//! Exact weighted model counters.
//!
//! Three interchangeable backends are provided:
//!
//! * [`WmcBackend::Enumerate`] — brute-force enumeration of all assignments.
//!   Simple and obviously correct; exponential in the number of variables.
//!   Used as the ground truth in tests and as a baseline in the
//!   `wmc_backends` ablation bench.
//! * [`WmcBackend::Dpll`] — a weighted DPLL search with unit propagation,
//!   connected-component decomposition and component caching. This is the
//!   default counter of the one-shot grounded pipeline and the last stage
//!   of a plan's degradation chain.
//! * [`WmcBackend::Circuit`] — knowledge compilation to a smoothed d-DNNF
//!   circuit (`wfomc-circuit`) by tracing the same DPLL search, then
//!   evaluating the circuit. For a single weight vector this costs slightly
//!   more than DPLL; its purpose is **compile-once / evaluate-many**: via
//!   [`circuit::CompiledWmc`], one compilation serves any number of weight
//!   vectors (each evaluation linear in circuit size), which is what every
//!   grounded count of a `wfomc-core` plan and the equality-removal
//!   interpolation use.
//!
//! All backends compute `WMC(F, w, w̄) = Σ_{θ ⊨ F} Π_i w-or-w̄(Xᵢ)` exactly,
//! with arbitrary (possibly negative) rational weights, over the universe
//! `0..max(cnf.num_vars, weights.len())` — variables beyond the weight table
//! count unweighted, table entries beyond the CNF contribute `w + w̄` each.

pub mod circuit;
mod dpll;
mod enumerate;

pub use circuit::{wmc_circuit, CompiledWmc};
pub use dpll::{wmc_dpll, wmc_dpll_guarded, wmc_dpll_guarded_in, wmc_dpll_in};
pub use enumerate::{
    wmc_enumerate, wmc_enumerate_in, wmc_formula, wmc_formula_guarded, wmc_formula_in,
    MAX_ENUMERATION_VARS,
};

use crate::cnf::Cnf;
use crate::formula::PropFormula;
use crate::tseitin::to_cnf;
use crate::weights::VarWeights;
use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, VarPairs};
use wfomc_logic::weights::Weight;

/// Selects a weighted model counting backend.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WmcBackend {
    /// Brute-force enumeration of all assignments.
    Enumerate,
    /// Weighted DPLL with unit propagation, component decomposition and
    /// caching.
    #[default]
    Dpll,
    /// Knowledge compilation to a smoothed d-DNNF circuit, then linear
    /// evaluation; compile once with [`CompiledWmc`] to amortize over many
    /// weight vectors.
    Circuit,
}

/// Computes the weighted model count of a CNF with the chosen backend.
pub fn wmc(cnf: &Cnf, weights: &VarWeights, backend: WmcBackend) -> Weight {
    match backend {
        WmcBackend::Enumerate => wmc_enumerate(cnf, weights),
        WmcBackend::Dpll => wmc_dpll(cnf, weights),
        WmcBackend::Circuit => wmc_circuit(cnf, weights),
    }
}

/// Computes the weighted model count of an arbitrary propositional formula.
///
/// The enumerate backend evaluates the formula directly; the DPLL and
/// circuit backends first apply the count-preserving Tseitin transform.
pub fn wmc_formula_via(formula: &PropFormula, weights: &VarWeights, backend: WmcBackend) -> Weight {
    match backend {
        WmcBackend::Enumerate => wmc_formula(formula, weights),
        WmcBackend::Dpll => {
            let t = to_cnf(formula, weights);
            wmc_dpll(&t.cnf, &t.weights)
        }
        WmcBackend::Circuit => {
            let t = to_cnf(formula, weights);
            wmc_circuit(&t.cnf, &t.weights)
        }
    }
}

/// Unweighted model count of a CNF (all weights 1).
pub fn count_models(cnf: &Cnf, backend: WmcBackend) -> Weight {
    wmc(cnf, &VarWeights::ones(cnf.num_vars), backend)
}

/// [`wmc`] in an arbitrary [`Algebra`]: every backend runs the identical
/// weight-independent search/compilation and accumulates in the ring.
pub fn wmc_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    cnf: &Cnf,
    algebra: &A,
    weights: &W,
    backend: WmcBackend,
) -> A::Elem {
    match backend {
        WmcBackend::Enumerate => wmc_enumerate_in(cnf, algebra, weights),
        WmcBackend::Dpll => wmc_dpll_in(cnf, algebra, weights),
        WmcBackend::Circuit => CompiledWmc::compile(cnf).wmc_in(algebra, weights),
    }
}

/// [`wmc_formula_via`] in an arbitrary [`Algebra`], under a resource
/// [`Guard`]: every backend ticks the guard from its innermost loop, so
/// deadlines, work caps and cancellation interrupt mid-count. The guard's
/// work unit is backend-specific (assignments enumerated, DPLL
/// sub-problems, compiler sub-problems); ungoverned callers pass
/// [`Guard::unarmed`].
///
/// The Tseitin transform is weight-independent (definition variables carry
/// the pair `(1, 1)`, which is exactly what variables beyond the weight
/// table default to), so the encoding runs once on the formula alone and the
/// counters evaluate it in the ring.
pub fn wmc_formula_via_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    formula: &PropFormula,
    algebra: &A,
    weights: &W,
    backend: WmcBackend,
    guard: &Guard,
) -> Result<A::Elem, Interrupt> {
    if backend == WmcBackend::Enumerate {
        return wmc_formula_guarded(formula, algebra, weights, guard);
    }
    let universe = formula.num_vars().max(weights.table_len());
    let t = to_cnf(formula, &VarWeights::ones(universe));
    match backend {
        WmcBackend::Circuit => {
            Ok(CompiledWmc::compile_guarded(&t.cnf, guard)?.wmc_in(algebra, weights))
        }
        _ => wmc_dpll_guarded_in(&t.cnf, algebra, weights, guard),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Lit;
    use proptest::prelude::*;
    use wfomc_logic::weights::{weight_int, weight_ratio};

    const ALL_BACKENDS: [WmcBackend; 3] =
        [WmcBackend::Enumerate, WmcBackend::Dpll, WmcBackend::Circuit];

    #[test]
    fn backends_agree_on_simple_cnf() {
        // (x0 ∨ x1) ∧ (¬x1 ∨ x2)
        let cnf = Cnf::new(
            3,
            vec![
                vec![Lit::pos(0), Lit::pos(1)],
                vec![Lit::neg(1), Lit::pos(2)],
            ],
        );
        let w = VarWeights::ones(3);
        for backend in ALL_BACKENDS {
            // Truth-table check: assignments satisfying both clauses.
            assert_eq!(wmc(&cnf, &w, backend), weight_int(4), "{backend:?}");
        }
    }

    #[test]
    fn count_models_matches_known_value() {
        // x0 ∨ x1 has 3 models over 2 vars.
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::pos(1)]]);
        for backend in ALL_BACKENDS {
            assert_eq!(count_models(&cnf, backend), weight_int(3), "{backend:?}");
        }
    }

    #[test]
    fn formula_backends_agree() {
        let f = PropFormula::iff(
            PropFormula::var(0),
            PropFormula::or(PropFormula::var(1), PropFormula::not(PropFormula::var(2))),
        );
        let w = VarWeights::from_vecs(
            vec![weight_int(2), weight_ratio(1, 2), weight_int(3)],
            vec![weight_int(1), weight_int(1), weight_int(-1)],
        );
        let ground_truth = wmc_formula_via(&f, &w, WmcBackend::Enumerate);
        for backend in [WmcBackend::Dpll, WmcBackend::Circuit] {
            assert_eq!(
                wmc_formula_via(&f, &w, backend),
                ground_truth,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn one_compilation_serves_many_weight_vectors() {
        // The equality-removal interpolation pattern: one CNF, many weight
        // vectors differing in a single variable's weight.
        let cnf = Cnf::new(
            4,
            vec![
                vec![Lit::pos(0), Lit::pos(1)],
                vec![Lit::neg(1), Lit::pos(2)],
                vec![Lit::neg(0), Lit::pos(3)],
            ],
        );
        let compiled = CompiledWmc::compile(&cnf);
        for z in -3i64..=9 {
            let mut w = VarWeights::ones(4);
            w.set(1, weight_int(z), weight_int(1));
            w.set(3, weight_ratio(1, 2), weight_int(-2));
            assert_eq!(
                compiled.wmc(&w),
                wmc(&cnf, &w, WmcBackend::Enumerate),
                "z = {z}"
            );
        }
    }

    /// Random CNF generator for property tests.
    fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Cnf> {
        let clause = proptest::collection::vec((0..max_vars, any::<bool>()), 0..4);
        proptest::collection::vec(clause, 0..max_clauses).prop_map(move |raw| {
            let clauses = raw
                .into_iter()
                .map(|c| {
                    c.into_iter()
                        .map(|(v, pos)| Lit {
                            var: v,
                            positive: pos,
                        })
                        .collect()
                })
                .collect();
            Cnf::new(max_vars, clauses)
        })
    }

    /// Deterministic pseudo-random weights derived from the seed, including
    /// negative rationals.
    fn seeded_weights(num_vars: usize, seed: u64) -> VarWeights {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut s = seed as i64 + 1;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            weight_ratio((s % 5) - 1, 1 + (s % 4).unsigned_abs() as i64)
        };
        for _ in 0..num_vars {
            pos.push(next());
            neg.push(next());
        }
        VarWeights::from_vecs(pos, neg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn backends_match_enumeration_on_random_cnfs(cnf in arb_cnf(6, 8)) {
            let w = VarWeights::ones(cnf.num_vars);
            let ground_truth = wmc(&cnf, &w, WmcBackend::Enumerate);
            prop_assert_eq!(wmc(&cnf, &w, WmcBackend::Dpll), ground_truth.clone());
            prop_assert_eq!(wmc(&cnf, &w, WmcBackend::Circuit), ground_truth);
        }

        #[test]
        fn backends_match_enumeration_with_weights(cnf in arb_cnf(5, 6), seed in 0u64..1000) {
            let w = seeded_weights(cnf.num_vars, seed);
            let ground_truth = wmc(&cnf, &w, WmcBackend::Enumerate);
            prop_assert_eq!(wmc(&cnf, &w, WmcBackend::Dpll), ground_truth.clone());
            prop_assert_eq!(wmc(&cnf, &w, WmcBackend::Circuit), ground_truth);
        }

        #[test]
        fn compiled_circuit_agrees_across_weight_sweeps(cnf in arb_cnf(5, 6), seed in 0u64..200) {
            // One compilation, several weight vectors — the compile-once /
            // evaluate-many contract, cross-checked against fresh DPLL runs.
            let compiled = CompiledWmc::compile(&cnf);
            for offset in 0..4 {
                let w = seeded_weights(cnf.num_vars, seed * 4 + offset);
                prop_assert_eq!(compiled.wmc(&w), wmc(&cnf, &w, WmcBackend::Dpll));
            }
        }
    }
}
