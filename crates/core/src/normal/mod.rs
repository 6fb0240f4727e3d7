//! The paper's three weight-preserving transformations (§3.1, Appendix A).
//!
//! * [`skolem`] — Lemma 3.3: every existential quantifier can be removed from
//!   a prenex sentence at the cost of a fresh predicate with weights (1, −1).
//! * [`negation`] — Lemma 3.4: negation can be removed from a ∀*-sentence at
//!   the cost of two fresh predicates per negated subformula, one of which has
//!   weight (1, −1).
//! * [`equality`] — Lemma 3.5: the equality predicate can be replaced by an
//!   ordinary relation `E` plus the hard constraint `∀x E(x,x)`; the original
//!   WFOMC is recovered as one coefficient of a polynomial in `w(E)`, computed
//!   symbolically in one evaluation over the `Poly` algebra.
//!
//! Chained together (as in the proof of Corollary 3.2), these three lemmas
//! turn an arbitrary FO sentence into a positive, equality-free, universally
//! quantified sentence with the same weighted model count.

pub mod equality;
pub mod negation;
pub mod skolem;

pub use equality::{remove_equality, wfomc_via_equality_removal, EqualityFree};
pub use negation::{remove_negation, NegationFree};
pub use skolem::{skolemize, Skolemized};
