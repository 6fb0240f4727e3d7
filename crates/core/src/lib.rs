//! # wfomc-core
//!
//! Lifted algorithms for **symmetric Weighted First-Order Model Counting** —
//! the algorithmic content of *Symmetric Weighted First-Order Model Counting*
//! (Beame, Van den Broeck, Gribkoff, Suciu — PODS 2015).
//!
//! The crate provides, on top of the substrates `wfomc-logic`, `wfomc-prop`,
//! `wfomc-hypergraph` and `wfomc-ground`:
//!
//! * [`normal`] — the three weight-preserving transformations of §3.1:
//!   Skolemization (Lemma 3.3, existential quantifiers removed with a fresh
//!   predicate of weight (1, −1)), negation removal (Lemma 3.4) and equality
//!   removal (Lemma 3.5 — by default one symbolic evaluation in the
//!   polynomial algebra, with the interpolation protocol kept as the
//!   tests' differential oracle);
//! * [`fo2`] — the PTIME data-complexity algorithm for FO² (Appendix C):
//!   Scott normal form, Skolemization, Shannon expansion over nullary
//!   predicates and the 1-type / cell decomposition sum;
//! * [`cq`] — the γ-acyclic conjunctive query algorithm of Theorem 3.6
//!   (Fagin's reduction rules with probability bookkeeping) and the explicit
//!   linear-chain recurrence of Example 3.10;
//! * [`qs4`] — the dynamic program of Theorem 3.7 for the sentence QS4;
//! * [`closed_form`] — the closed-form counting identities of Table 1 and the
//!   introduction;
//! * [`solver`] — a front-door [`solver::Solver`] that inspects a sentence,
//!   picks the best applicable method and falls back to grounded WFOMC when no
//!   lifted method applies (which is exactly what the paper's hardness results
//!   predict for Table 2's open problems);
//! * [`plan`] — the plan-then-execute API: a [`plan::Problem`] is analyzed
//!   *once* by [`solver::Solver::plan`] into a [`plan::Plan`] (method
//!   selection, FO² normalization + cell decomposition, CQ recognition, a
//!   domain-size-keyed grounding/circuit cache), and then evaluated cheaply
//!   at any number of `(n, weights)` points — in any evaluation algebra
//!   (exact rationals, log-space floats, polynomials) via
//!   [`plan::Plan::count_in`], since plan-time analysis is weight- and
//!   algebra-independent.
//!
//! Every lifted path is cross-validated against brute-force structure
//! enumeration and the grounded lineage pipeline in this crate's tests and in
//! the workspace integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_form;
pub mod combinatorics;
pub mod cq;
pub mod error;
mod fanout;
pub mod fo2;
mod keyed;
pub mod normal;
pub mod plan;
pub mod qs4;
pub mod solver;

pub use error::{LiftError, SolveError};
pub use plan::{DegradePolicy, Plan, PlanReport, Problem};
pub use solver::{LimitsReport, Method, PlanCacheStats, Solver, SolverBuilder, SolverReport};
// The guard substrate is part of the governed API surface: callers build
// `ExecutionLimits`/`CancelToken` values to pass into
// [`Plan::count_with_limits`], and an unarmed `Guard` for the prepared FO²
// state, without depending on `wfomc-guard` directly.
pub use wfomc_guard::{CancelToken, ExecutionLimits, Guard};
