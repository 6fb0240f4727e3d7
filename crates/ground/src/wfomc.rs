//! The grounded WFOMC pipeline: lineage construction followed by propositional
//! weighted model counting.
//!
//! This is the always-applicable (but exponential-time) baseline of the paper:
//! for any FO sentence, `WFOMC(Φ, n, w, w̄) = WMC(F_{Φ,n}, w, w̄)`. The lifted
//! algorithms in `wfomc-core` beat it asymptotically whenever they apply; the
//! Figure 1 / Figure 2 / Table 2 benchmarks measure exactly that gap.
//!
//! Every count here is one call of `wfomc-prop`'s algebra-generic, guarded
//! counters: [`GroundSolver`] and the free functions are their `Exact`
//! instance without a guard, and [`CompiledWfomc`] evaluates one compiled
//! circuit in any algebra.

use std::sync::Arc;

use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, AlgebraWeights, Exact};
use wfomc_logic::weights::{Weight, Weights};
use wfomc_logic::{Formula, Vocabulary};
use wfomc_prop::counter::{wmc_formula_via_in, CompiledWmc, WmcBackend};
use wfomc_prop::tseitin::to_cnf;
use wfomc_prop::{PropFormula, VarWeights};

use crate::lineage::{GroundAtom, Lineage};

/// Configuration for the grounded solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroundSolver {
    /// Which propositional counter to use.
    pub backend: WmcBackend,
}

impl GroundSolver {
    /// A solver using the DPLL backend (the default).
    pub fn new() -> Self {
        GroundSolver::default()
    }

    /// A solver using the chosen backend.
    pub fn with_backend(backend: WmcBackend) -> Self {
        GroundSolver { backend }
    }

    /// Symmetric WFOMC of a sentence over the given vocabulary and domain
    /// size.
    pub fn wfomc(
        &self,
        formula: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        weights: &Weights,
    ) -> Weight {
        let lineage = Lineage::build(formula, vocabulary, n);
        self.count_exact(&lineage.prop, &lineage.symmetric_weights(weights))
    }

    /// [`wfomc`](Self::wfomc) in an arbitrary [`Algebra`]: the grounding is
    /// identical (it never looks at a weight); only the propositional count
    /// runs in the ring.
    pub fn wfomc_in<A: Algebra>(
        &self,
        formula: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        algebra: &A,
        weights: &AlgebraWeights<A>,
    ) -> A::Elem {
        let lineage = Lineage::build(formula, vocabulary, n);
        let var_weights = lineage.weights_in(algebra, weights);
        wmc_formula_via_in(
            &lineage.prop,
            algebra,
            &var_weights,
            self.backend,
            &Guard::unarmed(),
        )
        .expect("an unarmed guard cannot interrupt")
    }

    /// FOMC (all weights 1) of a sentence over its own vocabulary.
    pub fn fomc(&self, formula: &Formula, n: usize) -> Weight {
        let voc = formula.vocabulary();
        self.wfomc(formula, &voc, n, &Weights::ones())
    }

    /// The probability of the sentence under the tuple-independent
    /// distribution induced by the weights:
    /// `Pr(Φ) = WFOMC(Φ, n, w, w̄) / WFOMC(true, n, w, w̄)`.
    ///
    /// # Panics
    /// Panics if `WFOMC(true)` is zero (which can only happen with
    /// zero-total weight pairs such as the Skolemization weights).
    pub fn probability(
        &self,
        formula: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        weights: &Weights,
    ) -> Weight {
        let numerator = self.wfomc(formula, vocabulary, n, weights);
        let denominator = weights.wfomc_of_true(vocabulary, n);
        assert!(
            denominator != Weight::from_integer(0.into()),
            "WFOMC(true) is zero; the weights admit no probability normalization"
        );
        numerator / denominator
    }

    /// Asymmetric WFOMC: every ground tuple gets its own weight pair from the
    /// callback (Table 1's most general row).
    pub fn wfomc_asymmetric(
        &self,
        formula: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        weight_of: impl FnMut(&GroundAtom) -> (Weight, Weight),
    ) -> Weight {
        let lineage = Lineage::build(formula, vocabulary, n);
        self.count_exact(&lineage.prop, &lineage.asymmetric_weights(weight_of))
    }

    /// The exact, ungoverned count of a lineage under per-atom weights.
    fn count_exact(&self, prop: &PropFormula, weights: &VarWeights) -> Weight {
        wmc_formula_via_in(prop, &Exact, weights, self.backend, &Guard::unarmed())
            .expect("an unarmed guard cannot interrupt")
    }
}

/// A sentence grounded at a fixed domain size and compiled **once** into a
/// smoothed d-DNNF circuit, for evaluation under many weight functions.
///
/// The pipeline `lineage → Tseitin CNF → circuit` is weight-independent, so
/// the expensive steps run a single time; [`CompiledWfomc::wfomc_in`] then
/// costs one linear circuit pass per weight function, in any algebra. This
/// is the path of every grounded count of a `wfomc-core` plan, which caches
/// one per domain size, and of any repeated-query workload that varies
/// weights but not the sentence or domain.
#[derive(Clone, Debug)]
pub struct CompiledWfomc {
    /// Shared with whoever caches the grounding, so it is stored once.
    lineage: Arc<Lineage>,
    compiled: CompiledWmc,
}

impl CompiledWfomc {
    /// Compiles an already-built lineage to a circuit under a resource
    /// [`Guard`]: the circuit compilation ticks the guard, so deadlines,
    /// work caps and cancellation interrupt it; the partial circuit is
    /// discarded and the call can be retried. The lineage is shared, not
    /// copied, with a caller that caches it; ungoverned callers pass
    /// [`Guard::unarmed`].
    pub fn from_lineage_guarded(
        lineage: Arc<Lineage>,
        guard: &Guard,
    ) -> Result<CompiledWfomc, Interrupt> {
        let tseitin = to_cnf(&lineage.prop, &VarWeights::ones(lineage.num_vars()));
        let compiled = CompiledWmc::compile_guarded(&tseitin.cnf, guard)?;
        Ok(CompiledWfomc { lineage, compiled })
    }

    /// Reassembles a compiled grounding from a decoded lineage and circuit,
    /// skipping the expensive compilation step. The circuit's variable
    /// universe must match the lineage's Tseitin CNF (the transform is
    /// deterministic and linear, so it is recomputed to check), otherwise the
    /// pair cannot have come from
    /// [`from_lineage_guarded`](Self::from_lineage_guarded) and `None` is
    /// returned.
    pub fn from_parts(lineage: Arc<Lineage>, compiled: CompiledWmc) -> Option<CompiledWfomc> {
        let tseitin = to_cnf(&lineage.prop, &VarWeights::ones(lineage.num_vars()));
        if compiled.num_vars() != tseitin.cnf.num_vars {
            return None;
        }
        Some(CompiledWfomc { lineage, compiled })
    }

    /// Symmetric WFOMC under a weight function in any [`Algebra`] — one
    /// circuit evaluation, no recompilation. Tseitin definition variables
    /// lie beyond the per-atom weight table and therefore default to the
    /// pair `(1, 1)`, which is exactly the count-preserving weighting.
    pub fn wfomc_in<A: Algebra>(&self, algebra: &A, weights: &AlgebraWeights<A>) -> A::Elem {
        let var_weights = self.lineage.weights_in(algebra, weights);
        self.compiled.wmc_in(algebra, &var_weights)
    }

    /// Asymmetric WFOMC: every ground tuple gets its own weight pair from
    /// the callback, evaluated exactly on the same compiled circuit.
    pub fn wfomc_asymmetric(
        &self,
        weight_of: impl FnMut(&GroundAtom) -> (Weight, Weight),
    ) -> Weight {
        let var_weights = self.lineage.asymmetric_weights(weight_of);
        self.compiled.wmc_in(&Exact, &var_weights)
    }

    /// The underlying lineage (ground atoms and propositional formula).
    pub fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    /// The compiled circuit with its statistics.
    pub fn compiled(&self) -> &CompiledWmc {
        &self.compiled
    }
}

/// Symmetric WFOMC via the default (DPLL) grounded pipeline.
pub fn wfomc(formula: &Formula, vocabulary: &Vocabulary, n: usize, weights: &Weights) -> Weight {
    GroundSolver::new().wfomc(formula, vocabulary, n, weights)
}

/// FOMC via the default grounded pipeline.
pub fn fomc(formula: &Formula, n: usize) -> Weight {
    GroundSolver::new().fomc(formula, n)
}

/// Probability via the default grounded pipeline.
pub fn probability(
    formula: &Formula,
    vocabulary: &Vocabulary,
    n: usize,
    weights: &Weights,
) -> Weight {
    GroundSolver::new().probability(formula, vocabulary, n, weights)
}

/// Asymmetric WFOMC via the default grounded pipeline.
pub fn wfomc_asymmetric(
    formula: &Formula,
    vocabulary: &Vocabulary,
    n: usize,
    weight_of: impl FnMut(&GroundAtom) -> (Weight, Weight),
) -> Weight {
    GroundSolver::new().wfomc_asymmetric(formula, vocabulary, n, weight_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::brute_force_wfomc;
    use wfomc_logic::builders::*;
    use wfomc_logic::catalog;
    use wfomc_logic::weights::{weight_int, weight_pow, weight_ratio};

    fn compile_at(formula: &Formula, vocabulary: &Vocabulary, n: usize) -> CompiledWfomc {
        let lineage = Arc::new(Lineage::build(formula, vocabulary, n));
        CompiledWfomc::from_lineage_guarded(lineage, &Guard::unarmed()).unwrap()
    }

    fn exact(compiled: &CompiledWfomc, weights: &Weights) -> Weight {
        compiled.wfomc_in(&Exact, &AlgebraWeights::lift(&Exact, weights))
    }

    #[test]
    fn grounded_pipeline_matches_brute_force_on_catalog() {
        let cases: Vec<Formula> = vec![
            catalog::forall_exists_edge(),
            catalog::exists_unary(),
            catalog::table1_sentence(),
            catalog::spouse_constraint(),
            catalog::qs4(),
        ];
        let weights = Weights::from_ints([
            ("R", 2, 1),
            ("S", 1, 3),
            ("T", 2, 2),
            ("Spouse", 1, 1),
            ("Female", 2, 1),
            ("Male", 1, 2),
        ]);
        for f in cases {
            let voc = f.vocabulary();
            for n in 0..=2 {
                let brute = brute_force_wfomc(&f, &voc, n, &weights);
                let grounded = wfomc(&f, &voc, n, &weights);
                assert_eq!(brute, grounded, "mismatch for {f} at n={n}");
            }
        }
    }

    #[test]
    fn fomc_closed_forms() {
        // (2ⁿ − 1)ⁿ for ∀x∃y R(x,y).
        for n in 0..=3 {
            assert_eq!(
                fomc(&catalog::forall_exists_edge(), n),
                weight_pow(&weight_int((1 << n) - 1), n)
            );
        }
    }

    #[test]
    fn both_backends_agree() {
        let f = catalog::table1_sentence();
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 1, 2), ("S", 3, 1), ("T", 1, 1)]);
        let dpll = GroundSolver::with_backend(WmcBackend::Dpll).wfomc(&f, &voc, 3, &weights);
        let enumerate =
            GroundSolver::with_backend(WmcBackend::Enumerate).wfomc(&f, &voc, 2, &weights);
        let dpll_small = GroundSolver::with_backend(WmcBackend::Dpll).wfomc(&f, &voc, 2, &weights);
        assert_eq!(enumerate, dpll_small);
        // n=3 only via DPLL (15 variables is still fine for enumeration, but
        // the point is the pipeline works at sizes enumeration of *structures*
        // cannot reach).
        assert!(dpll > weight_int(0));
    }

    #[test]
    fn probability_of_tautology_is_one() {
        let f = forall(["x"], or(vec![atom("R", &["x"]), not(atom("R", &["x"]))]));
        let voc = f.vocabulary();
        let w = Weights::from_ints([("R", 1, 3)]);
        assert_eq!(probability(&f, &voc, 3, &w), weight_int(1));
    }

    #[test]
    fn probability_matches_independent_tuple_semantics() {
        // Pr(∃y S(y)) with p = 1/3 per tuple over n = 2: 1 − (2/3)² = 5/9.
        let f = catalog::exists_unary();
        let voc = f.vocabulary();
        let mut w = Weights::ones();
        w.set_probability("S", weight_ratio(1, 3));
        assert_eq!(probability(&f, &voc, 2, &w), weight_ratio(5, 9));
    }

    #[test]
    fn asymmetric_weights_reproduce_table1_generality() {
        // Give S(i,j) weight i+j+1 (present) and 1 (absent); check against a
        // hand-rolled enumeration through the brute-force structure path by
        // using weights that depend only on the tuple.
        let f = catalog::exists_unary();
        let voc = f.vocabulary();
        let n = 3;
        let asym = wfomc_asymmetric(&f, &voc, n, |atom| {
            (weight_int(atom.tuple[0] as i64 + 1), weight_int(1))
        });
        // Manual: WFOMC(∃y S(y)) = Π(w_i + 1) − Π(1) = (2·3·4) − 1 = 23.
        assert_eq!(asym, weight_int(23));
    }

    #[test]
    fn compiled_pipeline_matches_per_call_pipeline() {
        let f = catalog::table1_sentence();
        let voc = f.vocabulary();
        let compiled = compile_at(&f, &voc, 2);
        // One compilation, several weight functions.
        for (r, s, t) in [(1, 1, 1), (2, 3, 1), (5, 1, 7), (0, 2, 2)] {
            let w = Weights::from_ints([("R", r, 1), ("S", s, 1), ("T", t, 2)]);
            assert_eq!(
                exact(&compiled, &w),
                wfomc(&f, &voc, 2, &w),
                "weights ({r},{s},{t})"
            );
        }
        assert!(compiled.compiled().stats().nodes > 2);
        assert_eq!(compiled.lineage().num_vars(), voc.num_ground_tuples(2));
    }

    #[test]
    fn compiled_pipeline_supports_asymmetric_weights() {
        let f = catalog::exists_unary();
        let voc = f.vocabulary();
        let compiled = compile_at(&f, &voc, 3);
        let asym =
            compiled.wfomc_asymmetric(|atom| (weight_int(atom.tuple[0] as i64 + 1), weight_int(1)));
        // Same closed form as the per-call asymmetric test: (2·3·4) − 1.
        assert_eq!(asym, weight_int(23));
        // And the same circuit still answers the symmetric query.
        assert_eq!(
            exact(&compiled, &Weights::ones()),
            wfomc(&f, &voc, 3, &Weights::ones())
        );
    }

    #[test]
    fn circuit_backend_agrees_through_the_ground_solver() {
        let f = catalog::table1_sentence();
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 1, 2), ("S", 3, 1), ("T", 1, 1)]);
        let dpll = GroundSolver::with_backend(WmcBackend::Dpll).wfomc(&f, &voc, 2, &weights);
        let circuit = GroundSolver::with_backend(WmcBackend::Circuit).wfomc(&f, &voc, 2, &weights);
        assert_eq!(dpll, circuit);
    }

    #[test]
    fn spouse_constraint_counts() {
        // Cross-check the MLN-style constraint against brute force at n = 2
        // with nontrivial weights.
        let f = catalog::spouse_constraint();
        let voc = f.vocabulary();
        let w = Weights::from_ints([("Spouse", 1, 1), ("Female", 3, 1), ("Male", 1, 4)]);
        assert_eq!(wfomc(&f, &voc, 2, &w), brute_force_wfomc(&f, &voc, 2, &w));
    }
}
