//! Weighted model counters, generic over the evaluation algebra and
//! governed by a resource guard.
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
//!   [`CompiledWmc`], one compilation serves any number of weight vectors
//!   (each evaluation linear in circuit size), which is what every grounded
//!   count of a `wfomc-core` plan uses.
//!
//! The public surface is four items: the dispatchers [`wmc_in`] (a CNF) and
//! [`wmc_formula_via_in`] (any propositional formula), plus
//! [`CompiledWmc::compile_guarded`] and [`CompiledWmc::wmc_in`]. Each runs in
//! any [`Algebra`]: exact counting is the [`Exact`](wfomc_logic::algebra::Exact)
//! instance, and ungoverned callers pass [`Guard::unarmed`].
//!
//! All backends compute `WMC(F, w, w̄) = Σ_{θ ⊨ F} Π_i w-or-w̄(Xᵢ)` with
//! arbitrary (possibly negative) weights, over the universe
//! `0..max(num_vars, weights.table_len())`: variables beyond the weight
//! table carry the pair `(1, 1)` (they count unweighted), and table entries
//! beyond the CNF or formula contribute `w + w̄` each.

pub mod circuit;
mod dpll;
mod enumerate;

pub use circuit::CompiledWmc;
pub use enumerate::MAX_ENUMERATION_VARS;

use crate::cnf::Cnf;
use crate::formula::PropFormula;
use crate::tseitin::to_cnf;
use crate::weights::VarWeights;
use dpll::wmc_dpll_guarded_in;
use enumerate::wmc_enumerate_in;
use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, VarPairs};

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

/// Computes the weighted model count of a CNF with the chosen backend, in
/// any [`Algebra`], under a resource [`Guard`]: every backend runs the
/// identical weight-independent search or compilation, accumulates in the
/// ring, and ticks the guard from its innermost loop, so deadlines, work
/// caps and cancellation interrupt mid-count.
///
/// # Panics
/// The enumerate backend panics if the universe exceeds
/// [`MAX_ENUMERATION_VARS`].
pub fn wmc_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    cnf: &Cnf,
    algebra: &A,
    weights: &W,
    backend: WmcBackend,
    guard: &Guard,
) -> Result<A::Elem, Interrupt> {
    match backend {
        WmcBackend::Enumerate => {
            let universe = cnf.num_vars.max(weights.table_len());
            wmc_enumerate_in(universe, algebra, weights, guard, |a| cnf.evaluate(a))
        }
        WmcBackend::Dpll => wmc_dpll_guarded_in(cnf, algebra, weights, guard),
        WmcBackend::Circuit => {
            Ok(CompiledWmc::compile_guarded(cnf, guard)?.wmc_in(algebra, weights))
        }
    }
}

/// Computes the weighted model count of an arbitrary propositional formula
/// with the chosen backend, in any [`Algebra`], under a resource [`Guard`].
/// The guard's work unit is backend-specific (assignments enumerated, DPLL
/// sub-problems, compiler sub-problems).
///
/// The enumerate backend evaluates the formula directly; the DPLL and
/// circuit backends first apply the count-preserving Tseitin transform.
/// That transform is weight-independent (definition variables carry the
/// pair `(1, 1)`, which is exactly what variables beyond the weight table
/// default to), so the encoding runs once on the formula alone and the
/// counters evaluate it in the ring.
///
/// # Panics
/// The enumerate backend panics if the universe exceeds
/// [`MAX_ENUMERATION_VARS`].
pub fn wmc_formula_via_in<A: Algebra, W: VarPairs<A> + ?Sized>(
    formula: &PropFormula,
    algebra: &A,
    weights: &W,
    backend: WmcBackend,
    guard: &Guard,
) -> Result<A::Elem, Interrupt> {
    let universe = formula.num_vars().max(weights.table_len());
    if backend == WmcBackend::Enumerate {
        return wmc_enumerate_in(universe, algebra, weights, guard, |a| formula.evaluate(a));
    }
    let t = to_cnf(formula, &VarWeights::ones(universe));
    wmc_in(&t.cnf, algebra, weights, backend, guard)
}

/// Exact, ungoverned counts for the crate's tests.
#[cfg(test)]
pub(crate) fn exact_wmc(
    cnf: &Cnf,
    weights: &VarWeights,
    backend: WmcBackend,
) -> wfomc_logic::weights::Weight {
    wmc_in(
        cnf,
        &wfomc_logic::algebra::Exact,
        weights,
        backend,
        &Guard::unarmed(),
    )
    .unwrap()
}

/// [`exact_wmc`] for a propositional formula.
#[cfg(test)]
pub(crate) fn exact_wmc_formula(
    formula: &PropFormula,
    weights: &VarWeights,
    backend: WmcBackend,
) -> wfomc_logic::weights::Weight {
    wmc_formula_via_in(
        formula,
        &wfomc_logic::algebra::Exact,
        weights,
        backend,
        &Guard::unarmed(),
    )
    .unwrap()
}

/// Asserts the weight-table contract on one instance: every backend,
/// through [`wmc_in`] on `cnf` and [`wmc_formula_via_in`] on `formula` (the
/// same function), counts `expected` in `Exact` and lands within `1e-12`
/// relative of it in `LogF64`.
#[cfg(test)]
pub(crate) fn assert_weight_table_contract(
    cnf: &Cnf,
    formula: &PropFormula,
    weights: &VarWeights,
    expected: &wfomc_logic::weights::Weight,
) {
    use wfomc_logic::algebra::{ElemWeights, Exact, LogF64};
    let unarmed = Guard::unarmed();
    let mut log_weights = ElemWeights::new();
    for v in 0..weights.len() {
        log_weights.push(
            LogF64.from_weight(weights.pos(v)),
            LogF64.from_weight(weights.neg(v)),
        );
    }
    let want = LogF64.from_weight(expected);
    for backend in [WmcBackend::Enumerate, WmcBackend::Dpll, WmcBackend::Circuit] {
        let exact = [
            wmc_in(cnf, &Exact, weights, backend, &unarmed).unwrap(),
            wmc_formula_via_in(formula, &Exact, weights, backend, &unarmed).unwrap(),
        ];
        let log = [
            wmc_in(cnf, &LogF64, &log_weights, backend, &unarmed).unwrap(),
            wmc_formula_via_in(formula, &LogF64, &log_weights, backend, &unarmed).unwrap(),
        ];
        for (exact, log) in exact.iter().zip(log) {
            assert_eq!(exact, expected, "{backend:?} in Exact");
            assert_eq!(log.signum(), want.signum(), "{backend:?} in LogF64");
            if !want.is_zero() {
                let relative = (log.ln_abs() - want.ln_abs()).exp_m1().abs();
                assert!(relative <= 1e-12, "{backend:?} in LogF64: {log} vs {want}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Lit;
    use proptest::prelude::*;
    use wfomc_logic::algebra::Exact;
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
            assert_eq!(exact_wmc(&cnf, &w, backend), weight_int(4), "{backend:?}");
        }
    }

    #[test]
    fn count_models_matches_known_value() {
        // x0 ∨ x1 has 3 models over 2 vars.
        let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::pos(1)]]);
        for backend in ALL_BACKENDS {
            assert_eq!(
                exact_wmc(&cnf, &VarWeights::ones(cnf.num_vars), backend),
                weight_int(3),
                "{backend:?}"
            );
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
        let ground_truth = exact_wmc_formula(&f, &w, WmcBackend::Enumerate);
        for backend in [WmcBackend::Dpll, WmcBackend::Circuit] {
            assert_eq!(
                exact_wmc_formula(&f, &w, backend),
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
        let compiled = CompiledWmc::compile_guarded(&cnf, &Guard::unarmed()).unwrap();
        for z in -3i64..=9 {
            let mut w = VarWeights::ones(4);
            w.set(1, weight_int(z), weight_int(1));
            w.set(3, weight_ratio(1, 2), weight_int(-2));
            assert_eq!(
                compiled.wmc_in(&Exact, &w),
                exact_wmc(&cnf, &w, WmcBackend::Enumerate),
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
            let ground_truth = exact_wmc(&cnf, &w, WmcBackend::Enumerate);
            prop_assert_eq!(exact_wmc(&cnf, &w, WmcBackend::Dpll), ground_truth.clone());
            prop_assert_eq!(exact_wmc(&cnf, &w, WmcBackend::Circuit), ground_truth);
        }

        #[test]
        fn backends_match_enumeration_with_weights(cnf in arb_cnf(5, 6), seed in 0u64..1000) {
            let w = seeded_weights(cnf.num_vars, seed);
            let ground_truth = exact_wmc(&cnf, &w, WmcBackend::Enumerate);
            prop_assert_eq!(exact_wmc(&cnf, &w, WmcBackend::Dpll), ground_truth.clone());
            prop_assert_eq!(exact_wmc(&cnf, &w, WmcBackend::Circuit), ground_truth);
        }

        #[test]
        fn compiled_circuit_agrees_across_weight_sweeps(cnf in arb_cnf(5, 6), seed in 0u64..200) {
            // One compilation, several weight vectors — the compile-once /
            // evaluate-many contract, cross-checked against fresh DPLL runs.
            let compiled = CompiledWmc::compile_guarded(&cnf, &Guard::unarmed()).unwrap();
            for offset in 0..4 {
                let w = seeded_weights(cnf.num_vars, seed * 4 + offset);
                prop_assert_eq!(compiled.wmc_in(&Exact, &w), exact_wmc(&cnf, &w, WmcBackend::Dpll));
            }
        }
    }
}
