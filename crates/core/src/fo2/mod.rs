//! The FO² lifted algorithm (PTIME data complexity, Appendix C of the paper).
//!
//! The pipeline is:
//!
//! 1. [`normalize`] — Scott-style normal form: nested quantified subformulas
//!    are named by fresh "definition" predicates (weight (1,1)), existential
//!    pieces are Skolemized per Lemma 3.3 (fresh predicates with weight
//!    (1,−1)), and everything is conjoined into a single quantifier-free
//!    matrix `Ψ(x, y)` under an implicit `∀x∀y`.
//! 2. [`prepare`] — Shannon expansion over the nullary predicates, then the
//!    1-type (cell) decomposition: enumerate the valid cells, build the
//!    two-element table `r_{ij}`, and sum
//!    `Σ_{n₁+…+n_C = n} (n; n₁…n_C) Π_c u_c^{n_c} Π_{i≤j} r_{ij}^{…}`
//!    over all compositions of the domain.
//!
//! The result is exact for every FO² sentence over predicates of arity ≤ 2
//! (without constants) and runs in time polynomial in `n` for a fixed
//! sentence, which is exactly the statement reviewed in Appendix C.

pub mod algorithm;
pub mod cells;
pub mod cellsum;
pub mod normalize;
pub mod prepare;

pub use algorithm::Fo2Stats;
pub use cellsum::{cell_sum_elems, cell_sum_weights, CellSumStats};
pub use normalize::{fo2_normal_form, Fo2Shape, VAR_X, VAR_Y};
pub use prepare::Fo2Prepared;
