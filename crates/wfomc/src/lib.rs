//! # wfomc — Symmetric Weighted First-Order Model Counting
//!
//! A from-scratch Rust implementation of the algorithms, reductions and worked
//! examples of *Symmetric Weighted First-Order Model Counting* (Beame,
//! Van den Broeck, Gribkoff, Suciu — PODS 2015), packaged as a library for
//! exact lifted probabilistic inference.
//!
//! ## What you get
//!
//! * a first-order logic toolkit with exact rational weights
//!   ([`logic`], re-exported from `wfomc-logic`), plus a generic evaluation
//!   algebra (`logic::algebra`): every pipeline evaluates in exact
//!   rationals, sign-tracked log-space floats, or dense polynomials;
//! * propositional weighted model counting with three backends —
//!   enumeration, weighted DPLL, and d-DNNF knowledge compilation ([`prop`],
//!   [`circuit`]);
//! * Fagin's hypergraph acyclicity hierarchy ([`hypergraph`]);
//! * grounded baselines: brute-force enumeration and lineage + WMC
//!   ([`ground`]);
//! * the paper's lifted algorithms — Skolemization, the FO² cell algorithm,
//!   γ-acyclic conjunctive queries, the QS4 dynamic program — behind a single
//!   dispatching [`core::Solver`] ([`core`]);
//! * Markov Logic Networks with the Example 1.2 reduction to WFOMC ([`mln`]);
//! * the complexity reductions: counting Turing machines, the Θ₁ FO³
//!   encoding, #SAT → FO² FOMC, spectrum deciders ([`reductions`]).
//!
//! ## Quick start: plan once, count many
//!
//! The expensive part of symmetric WFOMC is analyzing the *sentence*
//! (Skolemization, cell decomposition, method selection); evaluating at a
//! domain size `n` and a weight function is the cheap, repeatable part. The
//! API is shaped around that split: describe a [`core::Problem`], let the
//! [`core::Solver`] analyze it **once** into a [`core::Plan`], then evaluate
//! the plan at as many `(n, weights)` points as you like.
//!
//! ```
//! use wfomc::prelude::*;
//!
//! // Φ = ∀x ∃y R(x,y): the introduction's example with (2ⁿ − 1)ⁿ models.
//! let phi = parse("forall x. exists y. R(x,y)").unwrap();
//! let problem = Problem::new(phi);
//! let plan = Solver::new().plan(&problem).unwrap();   // analysis happens here, once
//! assert_eq!(plan.method(), Method::Fo2);
//!
//! for n in 1..=8 {
//!     let report = plan.count(n, &Weights::ones()).unwrap();   // cheap per point
//!     let expected = weight_pow(&(weight_pow(&weight_int(2), n) - weight_int(1)), n);
//!     assert_eq!(report.value, expected);
//! }
//! println!("{}", plan.explain());   // what was prepared, and why
//! ```
//!
//! One-shot counting is still one call — [`core::Solver::wfomc`] /
//! [`core::Solver::fomc`] plan-then-count internally:
//!
//! ```
//! use wfomc::prelude::*;
//!
//! let phi = parse("forall x. exists y. R(x,y)").unwrap();
//! let report = Solver::new().fomc(&phi, 4).unwrap();
//! assert_eq!(report.value, weight_int(15 * 15 * 15 * 15));
//! assert_eq!(report.method, Method::Fo2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wfomc_circuit as circuit;
pub use wfomc_core as core;
pub use wfomc_ground as ground;
pub use wfomc_hypergraph as hypergraph;
pub use wfomc_logic as logic;
pub use wfomc_mln as mln;
pub use wfomc_prop as prop;
pub use wfomc_reductions as reductions;

/// One-stop import for applications and examples.
pub mod prelude {
    pub use wfomc_circuit::{CompileStats, CompiledCnf};
    pub use wfomc_core::closed_form;
    pub use wfomc_core::cq::{chain_probability, gamma_acyclic_wfomc, query_hypergraph};
    pub use wfomc_core::fo2::Fo2Prepared;
    pub use wfomc_core::normal::{
        remove_equality, remove_negation, skolemize, wfomc_via_equality_removal,
    };
    pub use wfomc_core::qs4::wfomc_qs4;
    pub use wfomc_core::{
        CancelToken, DegradePolicy, ExecutionLimits, Guard, LiftError, LimitsReport, Method, Plan,
        PlanReport, Problem, SolveError, Solver, SolverBuilder, SolverReport,
    };
    pub use wfomc_ground::{brute_force_fomc, brute_force_wfomc, CompiledWfomc, GroundSolver};
    pub use wfomc_hypergraph::{AcyclicityClass, Hypergraph};
    pub use wfomc_logic::algebra::{
        Algebra, AlgebraWeights, ElemWeights, Exact, LogF64, LogF64xN, LogWeight, LogWeightxN,
        Poly, VarPairs, LOG_LANES,
    };
    pub use wfomc_logic::builders::*;
    pub use wfomc_logic::catalog;
    pub use wfomc_logic::cq::ConjunctiveQuery;
    pub use wfomc_logic::parser::parse;
    pub use wfomc_logic::poly::Polynomial;
    pub use wfomc_logic::weights::{weight_int, weight_pow, weight_ratio, Weight, Weights};
    pub use wfomc_logic::{Formula, Predicate, Vocabulary};
    pub use wfomc_mln::{MarkovLogicNetwork, MlnEngine};
    pub use wfomc_prop::counter::CompiledWmc;
    pub use wfomc_prop::{PropFormula, WmcBackend};
    pub use wfomc_reductions::sharp_sat::sharp_sat_to_fomc;
    pub use wfomc_reductions::theta1::theta1;
    pub use wfomc_reductions::tm::{coin_flip_machine, scanner_machine, CountingTm};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn doc_example_compiles_and_runs() {
        let phi = parse("forall x. exists y. R(x,y)").unwrap();
        let report = Solver::new().fomc(&phi, 3).unwrap();
        assert_eq!(report.value, weight_int(343));
        assert_eq!(report.method, Method::Fo2);
    }

    #[test]
    fn plan_then_execute_through_the_prelude() {
        let phi = parse("forall x. exists y. R(x,y)").unwrap();
        let plan = Problem::new(phi).plan().unwrap();
        assert_eq!(plan.method(), Method::Fo2);
        // One plan, a batch of (n, weights) points.
        let points: Vec<(usize, Weights)> = (1..=4)
            .map(|n| (n, Weights::from_ints([("R", n as i64, 1)])))
            .collect();
        let reports = plan.count_batch_results(&points);
        for ((n, w), report) in points.iter().zip(&reports) {
            let one_shot = Solver::new()
                .wfomc(plan.sentence(), plan.vocabulary(), *n, w)
                .unwrap();
            assert_eq!(report.as_ref().unwrap().value, one_shot.value, "n = {n}");
        }
        assert!(plan.explain().to_string().contains("fo2-cells"));
    }

    #[test]
    fn compile_once_evaluate_many_through_the_prelude() {
        // Ground + compile the Table 1 sentence once, then answer several
        // weighted queries from the same circuit, checking against the
        // dispatching solver.
        let phi = catalog::table1_sentence();
        let voc = phi.vocabulary();
        let lineage = std::sync::Arc::new(wfomc_ground::Lineage::build(&phi, &voc, 2));
        let compiled = CompiledWfomc::from_lineage_guarded(lineage, &Guard::unarmed()).unwrap();
        for s in 1..4i64 {
            let w = Weights::from_ints([("R", 2, 1), ("S", s, 1), ("T", 1, 1)]);
            let report = Solver::builder()
                .lifted(false)
                .build()
                .wfomc(&phi, &voc, 2, &w)
                .unwrap();
            let exact = AlgebraWeights::lift(&Exact, &w);
            assert_eq!(compiled.wfomc_in(&Exact, &exact), report.value, "s = {s}");
        }
    }

    #[test]
    fn prelude_reexports_are_usable_together() {
        // Parse, classify, count, and check against the closed form.
        let q = catalog::table1_dual_cq();
        let hg = query_hypergraph(&q);
        assert_eq!(hg.classify(), AcyclicityClass::Gamma);
        let count = gamma_acyclic_wfomc(&q, 3, &Weights::ones()).unwrap();
        assert_eq!(count, closed_form::fomc_table1_dual_cq(3));
    }
}
