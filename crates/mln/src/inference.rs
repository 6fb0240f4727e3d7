//! Exact MLN inference through the WFOMC reduction and the plan-then-execute
//! solver: one query = one plan, evaluated at any number of domain sizes.

use std::sync::{Arc, Mutex};

use num_traits::Zero;

use wfomc_core::{LiftError, Method, Plan, Problem, Solver};
use wfomc_logic::algebra::{Algebra, AlgebraWeights};
use wfomc_logic::syntax::Formula;
use wfomc_logic::weights::{weight_pow, Weight};

use crate::network::{MarkovLogicNetwork, MlnError};
use crate::reduction::{reduce_to_wfomc, WfomcReduction};

/// An exact inference engine for an MLN, backed by the Example 1.2 reduction
/// and the `wfomc-core` solver (which uses a lifted algorithm whenever the
/// reduced constraints allow, and grounded WMC otherwise).
///
/// Every distinct sentence the engine counts — the hard-constraint
/// conjunction Γ and each `query ∧ Γ` — is analyzed **once** into a
/// [`Plan`] and cached, so the typical MLN workload (one query asked at many
/// domain sizes, or many queries against one network) amortizes the sentence
/// analysis instead of redoing it per call.
#[derive(Debug)]
pub struct MlnEngine {
    reduction: WfomcReduction,
    solver: Solver,
    /// Plans keyed by the exact sentence counted (Γ or `query ∧ Γ`).
    plans: Mutex<Vec<(Formula, Arc<Plan>)>>,
}

impl Clone for MlnEngine {
    fn clone(&self) -> Self {
        MlnEngine {
            reduction: self.reduction.clone(),
            solver: self.solver,
            plans: Mutex::new(self.plans.lock().expect("plan cache poisoned").clone()),
        }
    }
}

impl MlnEngine {
    /// Builds the engine (applies the reduction once).
    pub fn new(mln: &MarkovLogicNetwork) -> Result<Self, MlnError> {
        Self::with_solver(mln, Solver::new())
    }

    /// Builds the engine with a custom solver configuration (e.g. the
    /// grounded-only baseline used in benchmarks).
    pub fn with_solver(mln: &MarkovLogicNetwork, solver: Solver) -> Result<Self, MlnError> {
        Ok(MlnEngine {
            reduction: reduce_to_wfomc(mln)?,
            solver,
            plans: Mutex::new(Vec::new()),
        })
    }

    /// The reduction underlying this engine.
    pub fn reduction(&self) -> &WfomcReduction {
        &self.reduction
    }

    /// The cached plan for a sentence over the reduction's vocabulary and
    /// weights, analyzing it on first use.
    fn plan_for(&self, sentence: &Formula) -> Result<Arc<Plan>, LiftError> {
        {
            let plans = self.plans.lock().expect("plan cache poisoned");
            if let Some((_, plan)) = plans.iter().find(|(s, _)| s == sentence) {
                return Ok(plan.clone());
            }
        }
        let problem = Problem::new(sentence.clone())
            .with_vocabulary(self.reduction.vocabulary.clone())
            .with_weights(self.reduction.weights.clone());
        let plan = Arc::new(self.solver.plan(&problem)?);
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        // A concurrent caller may have planned the same sentence while the
        // lock was released; keep the first entry so the cache stays
        // duplicate-free and everyone shares one plan (and its caches).
        if let Some((_, existing)) = plans.iter().find(|(s, _)| s == sentence) {
            return Ok(existing.clone());
        }
        plans.push((sentence.clone(), plan.clone()));
        Ok(plan)
    }

    /// The MLN partition function `Z(n) = Σ_D W(D)`.
    pub fn partition_function(&self, n: usize) -> Result<Weight, LiftError> {
        let report = self
            .plan_for(&self.reduction.hard_sentence)?
            .count(n, &self.reduction.weights)?;
        Ok(self.reduction.scaling_factor(n) * report.value)
    }

    /// `Pr_MLN(Φ) = WFOMC(Φ ∧ Γ) / WFOMC(Γ)` — the conditional-probability
    /// form of Example 1.2. Also reports which methods answered the two WFOMC
    /// calls.
    pub fn probability(&self, query: &Formula, n: usize) -> Result<Weight, LiftError> {
        self.probability_with_methods(query, n).map(|(p, _, _)| p)
    }

    /// As [`probability`](Self::probability), additionally returning the
    /// methods used for the numerator and denominator.
    pub fn probability_with_methods(
        &self,
        query: &Formula,
        n: usize,
    ) -> Result<(Weight, Method, Method), LiftError> {
        if !query.is_sentence() {
            return Err(LiftError::NotASentence);
        }
        // Denominator: the cached Γ plan, times `(w + w̄)^{n^arity}` for any
        // query predicate Γ's plan does not cover (both counts must range
        // over the same vocabulary for the ratio to be a probability).
        let hard_plan = self.plan_for(&self.reduction.hard_sentence)?;
        let denominator = hard_plan.count(n, &self.reduction.weights)?;
        let mut denominator_value = denominator.value;
        for p in query.vocabulary().iter() {
            if !hard_plan.vocabulary().contains(p.name()) {
                let pair = self.reduction.weights.pair_of(p);
                denominator_value *= weight_pow(&pair.total(), p.num_ground_tuples(n));
            }
        }
        if denominator_value.is_zero() {
            return Err(LiftError::Internal(format!(
                "the MLN's hard constraints are unsatisfiable over a domain of size {n}"
            )));
        }
        let numerator_sentence = Formula::and(query.clone(), self.reduction.hard_sentence.clone());
        let numerator = self
            .plan_for(&numerator_sentence)?
            .count(n, &self.reduction.weights)?;
        Ok((
            numerator.value / denominator_value,
            numerator.method,
            denominator.method,
        ))
    }

    /// [`partition_function`](Self::partition_function) in an arbitrary
    /// [`Algebra`] — e.g. [`wfomc_logic::algebra::LogF64`] for float-speed
    /// partition functions at domain sizes where the exact integers have
    /// thousands of digits.
    pub fn partition_function_in<A: Algebra>(
        &self,
        n: usize,
        algebra: &A,
    ) -> Result<A::Elem, LiftError> {
        let weights = AlgebraWeights::lift(algebra, &self.reduction.weights);
        let count = self
            .plan_for(&self.reduction.hard_sentence)?
            .count_in(n, algebra, &weights)?;
        let scaling = algebra.from_weight(&self.reduction.scaling_factor(n));
        Ok(algebra.mul(&scaling, &count))
    }

    /// [`probability`](Self::probability) in an arbitrary [`Algebra`] with
    /// division. The same cached plans serve every algebra: under
    /// [`wfomc_logic::algebra::LogF64`] this turns exact MLN inference into
    /// serving-speed approximate inference without changing any algorithm.
    ///
    /// Fails with [`LiftError::Internal`] when the normalizing count is zero
    /// (unsatisfiable hard constraints) or not a unit in the algebra.
    pub fn probability_in<A: Algebra>(
        &self,
        query: &Formula,
        n: usize,
        algebra: &A,
    ) -> Result<A::Elem, LiftError> {
        if !query.is_sentence() {
            return Err(LiftError::NotASentence);
        }
        let weights = AlgebraWeights::lift(algebra, &self.reduction.weights);
        // Denominator: the cached Γ plan, times `(w + w̄)^{n^arity}` for any
        // query predicate Γ's plan does not cover.
        let hard_plan = self.plan_for(&self.reduction.hard_sentence)?;
        let mut denominator = hard_plan.count_in(n, algebra, &weights)?;
        for p in query.vocabulary().iter() {
            if !hard_plan.vocabulary().contains(p.name()) {
                let total = weights.total(algebra, p.name());
                algebra.mul_assign(
                    &mut denominator,
                    &algebra.pow(&total, p.num_ground_tuples(n)),
                );
            }
        }
        let numerator_sentence = Formula::and(query.clone(), self.reduction.hard_sentence.clone());
        let numerator = self
            .plan_for(&numerator_sentence)?
            .count_in(n, algebra, &weights)?;
        algebra.try_div(&numerator, &denominator).ok_or_else(|| {
            LiftError::Internal(format!(
                "the MLN's normalizing count over a domain of size {n} is zero or not \
                 invertible in the {} algebra",
                algebra.name()
            ))
        })
    }

    /// Number of sentence plans currently cached (Γ plus one per distinct
    /// query asked so far).
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_semantics::{partition_function_brute, probability_brute};
    use wfomc_logic::builders::*;
    use wfomc_logic::weights::{weight_int, weight_ratio};

    fn spouse_mln() -> MarkovLogicNetwork {
        let mut mln = MarkovLogicNetwork::new();
        mln.add_soft(
            weight_int(3),
            implies(
                and(vec![atom("Spouse", &["x", "y"]), atom("Female", &["x"])]),
                atom("Male", &["y"]),
            ),
        );
        mln
    }

    fn smokers_mln() -> MarkovLogicNetwork {
        let mut mln = MarkovLogicNetwork::new();
        mln.add_soft(
            weight_int(2),
            implies(
                and(vec![atom("Smokes", &["x"]), atom("Friends", &["x", "y"])]),
                atom("Smokes", &["y"]),
            ),
        );
        mln.add_soft(weight_int(3), atom("Smokes", &["x"]));
        mln
    }

    #[test]
    fn partition_function_matches_brute_force() {
        for mln in [spouse_mln(), smokers_mln()] {
            let engine = MlnEngine::new(&mln).unwrap();
            for n in 0..=2 {
                assert_eq!(
                    engine.partition_function(n).unwrap(),
                    partition_function_brute(&mln, n),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn query_probabilities_match_brute_force() {
        let mln = spouse_mln();
        let engine = MlnEngine::new(&mln).unwrap();
        // Queries over the original vocabulary, closed sentences.
        let queries = vec![
            exists(["x"], atom("Female", &["x"])),
            forall(
                ["x", "y"],
                implies(atom("Spouse", &["x", "y"]), atom("Male", &["y"])),
            ),
            exists(["x", "y"], atom("Spouse", &["x", "y"])),
        ];
        for q in queries {
            for n in 1..=2 {
                let lifted = engine.probability(&q, n).unwrap();
                let brute = probability_brute(&mln, &q, n);
                assert_eq!(lifted, brute, "query {q}, n = {n}");
            }
        }
    }

    #[test]
    fn smokers_marginal_matches_brute_force() {
        let mln = smokers_mln();
        let engine = MlnEngine::new(&mln).unwrap();
        let q = exists(["x"], atom("Smokes", &["x"]));
        for n in 1..=2 {
            assert_eq!(
                engine.probability(&q, n).unwrap(),
                probability_brute(&mln, &q, n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn reduction_keeps_queries_liftable() {
        // The reduced spouse MLN is FO², so both WFOMC calls should be
        // answered by the FO² algorithm, not by grounding.
        let mln = spouse_mln();
        let engine = MlnEngine::new(&mln).unwrap();
        let q = exists(["x"], atom("Female", &["x"]));
        let (_, num_method, den_method) = engine.probability_with_methods(&q, 4).unwrap();
        assert_eq!(num_method, Method::Fo2);
        assert_eq!(den_method, Method::Fo2);
    }

    #[test]
    fn uniform_mln_probabilities() {
        // An MLN with only a weight-1 constraint is the uniform distribution:
        // Pr(∃x Smokes(x)) over n = 2 is 1 − 1/4 = 3/4.
        let mut mln = MarkovLogicNetwork::new();
        mln.add_soft(weight_int(1), atom("Smokes", &["x"]));
        let engine = MlnEngine::new(&mln).unwrap();
        let q = exists(["x"], atom("Smokes", &["x"]));
        assert_eq!(engine.probability(&q, 2).unwrap(), weight_ratio(3, 4));
    }

    #[test]
    fn one_plan_per_distinct_sentence_is_cached() {
        let engine = MlnEngine::new(&spouse_mln()).unwrap();
        let q = exists(["x"], atom("Female", &["x"]));
        assert_eq!(engine.cached_plans(), 0);
        // Repeated inference at many n reuses the Γ plan and the query plan.
        for n in 1..=3 {
            let _ = engine.probability(&q, n).unwrap();
        }
        assert_eq!(engine.cached_plans(), 2, "Γ plus one query plan");
        let _ = engine.partition_function(4).unwrap();
        assert_eq!(engine.cached_plans(), 2, "partition function reuses Γ");
        let q2 = exists(["x", "y"], atom("Spouse", &["x", "y"]));
        let _ = engine.probability(&q2, 2).unwrap();
        assert_eq!(engine.cached_plans(), 3, "a new query adds one plan");
    }

    #[test]
    fn open_queries_are_rejected() {
        let engine = MlnEngine::new(&spouse_mln()).unwrap();
        assert!(matches!(
            engine.probability(&atom("Female", &["x"]), 2),
            Err(LiftError::NotASentence)
        ));
        assert!(matches!(
            engine.probability_in(&atom("Female", &["x"]), 2, &wfomc_logic::algebra::LogF64),
            Err(LiftError::NotASentence)
        ));
    }

    #[test]
    fn log_space_inference_tracks_exact_inference() {
        use num_traits::ToPrimitive;
        use wfomc_logic::algebra::{Algebra, LogF64};

        for mln in [spouse_mln(), smokers_mln()] {
            let engine = MlnEngine::new(&mln).unwrap();
            let q = exists(["x"], atom("Smokes", &["x"]));
            let q = if mln.len() == 1 {
                exists(["x"], atom("Female", &["x"]))
            } else {
                q
            };
            for n in 1..=4 {
                // Partition function: compare in log space (the exact value
                // overflows f64 quickly).
                let z_exact = engine.partition_function(n).unwrap();
                let z_log = engine.partition_function_in(n, &LogF64).unwrap();
                let expected = LogF64.from_weight(&z_exact);
                assert_eq!(z_log.signum(), expected.signum(), "n = {n}");
                assert!(
                    (z_log.ln_abs() - expected.ln_abs()).abs() < 1e-9,
                    "n = {n}: {z_log} vs {expected}"
                );
                // Marginals are in [0, 1]: compare as plain floats.
                let p_exact = engine.probability(&q, n).unwrap().to_f64().unwrap();
                let p_log = engine.probability_in(&q, n, &LogF64).unwrap().to_f64();
                assert!(
                    (p_exact - p_log).abs() < 1e-9,
                    "n = {n}: {p_exact} vs {p_log}"
                );
            }
        }
    }

    /// The reduction's auxiliary predicates weigh (1, 1), so the cell sums
    /// of both plans collapse interchangeable cells; the merged exact
    /// marginal still matches brute force and log-space inference (which
    /// merges nothing).
    #[test]
    fn smokers_marginal_merges_cells_and_stays_exact() {
        use num_traits::ToPrimitive;
        use wfomc_logic::algebra::LogF64;
        use wfomc_logic::catalog;

        let mut mln = MarkovLogicNetwork::new();
        mln.add_soft(weight_int(2), catalog::smokers_constraint());
        mln.add_soft(weight_int(3), atom("Smokes", &["x"]));
        let engine = MlnEngine::new(&mln).unwrap();
        let q = exists(["x"], atom("Smokes", &["x"]));
        for n in 1..=2 {
            assert_eq!(
                engine.probability(&q, n).unwrap(),
                probability_brute(&mln, &q, n),
                "n = {n}"
            );
        }
        let n = 6;
        let p_exact = engine.probability(&q, n).unwrap().to_f64().unwrap();
        let p_log = engine.probability_in(&q, n, &LogF64).unwrap().to_f64();
        assert!((p_exact - p_log).abs() < 1e-9, "{p_exact} vs {p_log}");

        let hard = engine.reduction.hard_sentence.clone();
        for sentence in [hard.clone(), Formula::and(q.clone(), hard)] {
            let report = engine
                .plan_for(&sentence)
                .unwrap()
                .count(n, &engine.reduction.weights)
                .unwrap();
            let stats = report.fo2_stats.expect("both MLN plans are FO²");
            assert!(stats.cells_merged > 0, "{stats}");
        }
    }

    #[test]
    fn generic_inference_reuses_the_same_plans() {
        use wfomc_logic::algebra::LogF64;

        let engine = MlnEngine::new(&spouse_mln()).unwrap();
        let q = exists(["x"], atom("Female", &["x"]));
        let _ = engine.probability(&q, 2).unwrap();
        let cached = engine.cached_plans();
        // The log-space evaluation hits the same cached plans.
        let _ = engine.probability_in(&q, 3, &LogF64).unwrap();
        assert_eq!(engine.cached_plans(), cached);
    }
}
