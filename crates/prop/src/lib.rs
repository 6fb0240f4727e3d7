//! # wfomc-prop
//!
//! Propositional logic and exact **weighted model counting** (WMC) backends.
//!
//! §2 of the paper defines Weighted First-Order Model Counting through the
//! weighted model count of the *lineage* — a propositional formula over the
//! ground tuples. This crate provides that propositional layer:
//!
//! * [`formula::PropFormula`] — propositional formulas over integer-indexed
//!   variables;
//! * [`cnf::Cnf`] — clausal form, with a count-preserving Tseitin transform
//!   ([`tseitin`]);
//! * [`weights::VarWeights`] — per-variable weight pairs `(w, w̄)`, exactly the
//!   `WMC(F, w, w̄)` setting of Eq. (2)–(3) in the paper (negative weights are
//!   allowed);
//! * [`counter`] — three counters behind one dispatcher ([`wmc_in`], and
//!   [`wmc_formula_via_in`] for formulas): a brute-force enumerator, a
//!   weighted DPLL with unit propagation, connected-component decomposition
//!   and component caching, and d-DNNF compilation ([`counter::CompiledWmc`]).
//!   Each runs in any evaluation algebra under a resource guard; an exact
//!   count is the `Exact` instance.
//!
//! The counters are cross-checked against each other by unit tests and by
//! property-based tests, and are benchmarked against each other in the
//! `wmc_backends` ablation bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf;
pub mod counter;
pub mod formula;
pub mod tseitin;
pub mod weights;

pub use cnf::{Cnf, Lit};
pub use counter::{wmc_formula_via_in, wmc_in, WmcBackend};
pub use formula::PropFormula;
pub use weights::VarWeights;
