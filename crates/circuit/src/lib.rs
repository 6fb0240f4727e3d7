//! # wfomc-circuit
//!
//! Knowledge compilation for **compile-once / evaluate-many** weighted model
//! counting.
//!
//! The grounded WFOMC pipeline and the Lemma 3.5 equality-removal oracle both
//! evaluate the *same* propositional formula under many different weight
//! vectors — equality removal alone needs `n² + 1` evaluation points of one
//! CNF. Re-running a DPLL-style counter from scratch for every weight vector
//! repeats the identical search. This crate instead records the search
//! **once** as a circuit in *deterministic decomposable negation normal form*
//! (d-DNNF), after which each weighted evaluation is a single linear pass over
//! the circuit — the classical c2d / sharpSAT trace architecture.
//!
//! The pieces:
//!
//! * [`ir`] — an arena-based NNF circuit IR ([`Circuit`]) with True/False/
//!   literal/And/decision nodes and structural hashing;
//! * [`mod@compile`] — a top-down compiler mirroring the weighted DPLL search of
//!   `wfomc-prop` (unit propagation, connected-component decomposition, and a
//!   component cache keyed by circuit node ids) that emits d-DNNF;
//! * [`smooth`] — the smoothing pass that makes every decision node's
//!   branches mention the same variables, so weighted evaluation needs no
//!   gap-factor bookkeeping;
//! * [`eval`] — the linear-time evaluator over any weight table in any
//!   algebra (negative weights included), via `wfomc-logic`'s `VarPairs`.
//!
//! The crate deliberately sits *below* `wfomc-prop` in the crate graph: it
//! defines its own minimal literal type ([`CLit`]) so that `wfomc-prop` can
//! depend on it and dispatch its `WmcBackend::Circuit` natively.
//!
//! ```
//! use wfomc_circuit::{compile_guarded, CLit};
//! use wfomc_guard::Guard;
//! use wfomc_logic::algebra::{ElemWeights, Exact, LogF64};
//! use wfomc_logic::weights::{weight_int, weight_ratio};
//!
//! // (x0 ∨ x1) ∧ (¬x1 ∨ x2), compiled once…
//! let cnf = vec![
//!     vec![CLit::pos(0), CLit::pos(1)],
//!     vec![CLit::neg(1), CLit::pos(2)],
//! ];
//! let compiled = compile_guarded(3, &cnf, &Guard::unarmed()).unwrap();
//! // …then evaluated under as many weight vectors as needed. An empty table
//! // gives every variable the pair (1, 1): plain model counting.
//! assert_eq!(compiled.wmc_in(&Exact, &ElemWeights::new()), weight_int(4));
//! let w = ElemWeights::from_vecs(
//!     vec![weight_int(2), weight_int(1), weight_ratio(1, 2)],
//!     vec![weight_int(1), weight_int(3), weight_int(1)],
//! );
//! assert_eq!(compiled.wmc_in(&Exact, &w), weight_ratio(21, 2));
//! // The same circuit in log space.
//! let log = compiled.wmc_in(&LogF64, &ElemWeights::<LogF64>::new());
//! assert!((log.ln_abs() - 4f64.ln()).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod eval;
pub mod ir;
pub mod smooth;

pub use compile::{compile_guarded, CompileStats, CompiledCnf};
pub use eval::evaluate_in;
pub use ir::{CLit, Circuit, Node, NodeId};
