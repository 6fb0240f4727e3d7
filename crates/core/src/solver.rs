//! A front-door solver that picks the best applicable counting method.
//!
//! The dispatch order mirrors the paper's tractability landscape:
//!
//! 1. the QS4 dynamic program (Theorem 3.7) for its specific sentence;
//! 2. the FO² cell algorithm (Appendix C) for sentences with at most two
//!    distinct variables and predicates of arity ≤ 2;
//! 3. the γ-acyclic conjunctive-query algorithm (Theorem 3.6);
//! 4. grounding + weighted model counting — always correct, exponential in
//!    `n`, and exactly what the paper's hardness results (Theorem 3.1,
//!    Corollary 3.2, Table 2) say cannot be avoided in general.
//!
//! Since the analysis is independent of the domain size and the weights, the
//! selection lives in [`crate::plan`]: [`Solver::plan`] analyzes a
//! [`crate::Problem`] once into a [`crate::Plan`] whose counts are cheap to
//! repeat, and [`Solver::wfomc`] is the one-shot plan-then-count wrapper.

use num_traits::Zero;

use wfomc_logic::syntax::Formula;
use wfomc_logic::vocabulary::Vocabulary;
use wfomc_logic::weights::{Weight, Weights};
use wfomc_obs::json::JsonObject;
use wfomc_prop::WmcBackend;

use crate::error::LiftError;
use crate::fo2::Fo2Stats;
use crate::plan::Problem;

/// Which algorithm produced a result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Theorem 3.7's dynamic program.
    Qs4,
    /// The FO² cell algorithm (Appendix C).
    Fo2,
    /// The γ-acyclic conjunctive-query algorithm (Theorem 3.6).
    GammaAcyclicCq,
    /// Grounding to the propositional lineage plus weighted model counting.
    Ground,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Method::Qs4 => "qs4-dynamic-program",
            Method::Fo2 => "fo2-cells",
            Method::GammaAcyclicCq => "gamma-acyclic-cq",
            Method::Ground => "grounded-wmc",
        };
        write!(f, "{name}")
    }
}

/// Hit/miss accounting of a plan's internal caches at the time a count
/// returned. Maintained unconditionally (plain integers updated inside locks
/// the caches already take), so one-shot runs print cache behavior and the CI
/// hit-rate gate works while `wfomc_obs` recording is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// FO² weight-binding LRU hits across the plan's lifetime, in every
    /// algebra.
    pub fo2_bind_hits: u64,
    /// FO² weight-binding LRU misses (each one ran a full bind).
    pub fo2_bind_misses: u64,
    /// Weight bindings currently cached by the FO² keyed LRU, over all
    /// algebras (at most 8 per algebra).
    pub fo2_cached_bindings: usize,
    /// Ground-plan LRU hits (a cached lineage/d-DNNF was reused).
    pub ground_hits: u64,
    /// Ground-plan LRU misses (each one ground the sentence).
    pub ground_misses: u64,
    /// Groundings currently cached per domain size.
    pub ground_cached: usize,
    /// γ-acyclic reduction memo hits across the plan's lifetime.
    pub cq_memo_hits: u64,
    /// γ-acyclic reduction memo misses (each one ran a reduction rule).
    pub cq_memo_misses: u64,
    /// Residual query shapes currently memoized, over the reduction tables
    /// of every algebra (at most 8 tables per algebra).
    pub cq_memo_len: usize,
}

impl PlanCacheStats {
    /// Hit rate of the FO² binding LRU in `[0, 1]`, or `None` before the
    /// first bind.
    pub fn fo2_bind_hit_rate(&self) -> Option<f64> {
        hit_rate(self.fo2_bind_hits, self.fo2_bind_misses)
    }

    /// Hit rate of the ground-plan LRU in `[0, 1]`, or `None` before the
    /// first grounding.
    pub fn ground_hit_rate(&self) -> Option<f64> {
        hit_rate(self.ground_hits, self.ground_misses)
    }
}

impl PlanCacheStats {
    /// The stats as a JSON object (keys sorted), the form embedded in both
    /// `wfomc-report/v1` documents and the `wfomc-serve` stats endpoint.
    pub fn to_json(&self) -> String {
        let mut c = JsonObject::new();
        c.field_u64("cq_memo_hits", self.cq_memo_hits);
        c.field_u64("cq_memo_len", self.cq_memo_len as u64);
        c.field_u64("cq_memo_misses", self.cq_memo_misses);
        c.field_u64("fo2_bind_hits", self.fo2_bind_hits);
        c.field_u64("fo2_bind_misses", self.fo2_bind_misses);
        c.field_u64("fo2_cached_bindings", self.fo2_cached_bindings as u64);
        c.field_u64("ground_cached", self.ground_cached as u64);
        c.field_u64("ground_hits", self.ground_hits);
        c.field_u64("ground_misses", self.ground_misses);
        c.finish()
    }
}

fn hit_rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    (total > 0).then(|| hits as f64 / total as f64)
}

/// Resource accounting of a governed solve: what was armed and what it cost.
///
/// Attached to [`SolverReport::limits`] by [`crate::Plan::count_with_limits`]
/// and friends whenever any limit or cancellation token was armed (`None` on
/// ungoverned counts and when [`wfomc_guard::ExecutionLimits::is_unlimited`]
/// held with no token).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LimitsReport {
    /// The armed wall-clock budget, if any.
    pub deadline: Option<std::time::Duration>,
    /// The armed work cap (abstract loop-iteration units), if any.
    pub work_cap: Option<u64>,
    /// Work units the solve recorded against the budget. For batch entry
    /// points this is the shared pool across all points, not a per-point
    /// figure.
    pub work_done: u64,
    /// Wall-clock time from arming the guard to the report.
    pub elapsed: std::time::Duration,
}

/// A solver result: the count and the method that produced it.
#[must_use = "a SolverReport carries the computed count"]
#[derive(Clone, Debug)]
pub struct SolverReport {
    /// The weighted model count (or probability, for the probability entry
    /// points).
    pub value: Weight,
    /// The method used.
    pub method: Method,
    /// The propositional backend, when the grounded fallback produced the
    /// result (`None` for lifted methods, which never touch a counter).
    pub backend: Option<WmcBackend>,
    /// Cost statistics of the FO² cell-sum engine, when [`Method::Fo2`]
    /// produced the result (`None` for every other method).
    pub fo2_stats: Option<Fo2Stats>,
    /// Cache accounting of the plan that served this count (`None` for
    /// reports produced outside a plan).
    pub cache: Option<PlanCacheStats>,
    /// True when a [`crate::plan::DegradePolicy`] exhausted the planned
    /// method's sub-budget and a cheaper fallback produced this value.
    pub degraded: bool,
    /// Resource accounting when the solve ran under armed
    /// [`wfomc_guard::ExecutionLimits`] or a cancellation token.
    pub limits: Option<LimitsReport>,
}

impl SolverReport {
    /// A report of `value` as computed by `method`, with every optional
    /// section empty (no backend, statistics, cache accounting or limits)
    /// and not degraded.
    pub(crate) fn new(value: Weight, method: Method) -> SolverReport {
        SolverReport {
            value,
            method,
            backend: None,
            fo2_stats: None,
            cache: None,
            degraded: false,
            limits: None,
        }
    }

    /// Machine-readable JSON under the stable `wfomc-report/v1` schema — the
    /// one report format shared by the `repro` harness and the `wfomc-serve`
    /// wire protocol.
    ///
    /// Layout: `schema` first (mirroring `wfomc-obs/v1`), then every other
    /// key in sorted order. Optional sections serialize as `null` when
    /// absent, so two reports of identical solves compare byte-for-byte.
    /// The count itself is a *string* (`"161"`, `"5/9"`): the exact
    /// rationals exceed any JSON number range.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("schema", "wfomc-report/v1");
        match self.backend {
            Some(backend) => obj.field_str("backend", &format!("{backend:?}")),
            None => obj.field_null("backend"),
        }
        match &self.cache {
            Some(cache) => obj.field_raw("cache", &cache.to_json()),
            None => obj.field_null("cache"),
        }
        obj.field_bool("degraded", self.degraded);
        match &self.fo2_stats {
            Some(stats) => {
                let mut s = JsonObject::new();
                s.field_u64("cells_merged", stats.cells_merged as u64);
                s.field_u64("compositions_pruned", stats.compositions_pruned as u64);
                s.field_u64("compositions_summed", stats.compositions_summed as u64);
                s.field_u64("compositions_total", stats.compositions_total as u64);
                s.field_u64("introduced_predicates", stats.introduced_predicates as u64);
                s.field_u64("shannon_branches", stats.shannon_branches as u64);
                s.field_u64("total_valid_cells", stats.total_valid_cells as u64);
                s.field_u64(
                    "zero_weight_cells_pruned",
                    stats.zero_weight_cells_pruned as u64,
                );
                obj.field_raw("fo2_stats", &s.finish());
            }
            None => obj.field_null("fo2_stats"),
        }
        match &self.limits {
            Some(limits) => {
                let mut l = JsonObject::new();
                match limits.deadline {
                    Some(d) => l.field_f64("deadline_ms", d.as_secs_f64() * 1e3, 3),
                    None => l.field_null("deadline_ms"),
                }
                l.field_f64("elapsed_ms", limits.elapsed.as_secs_f64() * 1e3, 3);
                match limits.work_cap {
                    Some(cap) => l.field_u64("work_cap", cap),
                    None => l.field_null("work_cap"),
                }
                l.field_u64("work_done", limits.work_done);
                obj.field_raw("limits", &l.finish());
            }
            None => obj.field_null("limits"),
        }
        obj.field_str("method", &self.method.to_string());
        obj.field_str("value", &self.value.to_string());
        obj.finish()
    }
}

impl std::fmt::Display for SolverReport {
    /// `value [method]`, extended with the propositional backend for
    /// grounded answers, the composition prune ratio for FO² answers, and
    /// the plan's cache behavior (binding LRU, ground-plan LRU, CQ memo) —
    /// everything callers used to hand-format.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}", self.value, self.method)?;
        if let Some(backend) = self.backend {
            write!(f, ", backend {backend:?}")?;
        }
        if let Some(stats) = &self.fo2_stats {
            if stats.compositions_total > 0 {
                write!(
                    f,
                    ", pruned {}/{} compositions",
                    stats.compositions_pruned, stats.compositions_total
                )?;
            }
        }
        if self.degraded {
            write!(f, ", degraded")?;
        }
        if let Some(limits) = &self.limits {
            write!(f, ", limits")?;
            if let Some(deadline) = limits.deadline {
                write!(f, " deadline={:.0}ms", deadline.as_secs_f64() * 1e3)?;
            }
            match limits.work_cap {
                Some(cap) => write!(f, " work={}/{}", limits.work_done, cap)?,
                None => write!(f, " work={}", limits.work_done)?,
            }
            write!(f, " elapsed={:.1}ms", limits.elapsed.as_secs_f64() * 1e3)?;
        }
        if let Some(cache) = &self.cache {
            if cache.fo2_bind_hits + cache.fo2_bind_misses > 0 {
                write!(
                    f,
                    ", bind cache {}/{} hits ({} cached)",
                    cache.fo2_bind_hits,
                    cache.fo2_bind_hits + cache.fo2_bind_misses,
                    cache.fo2_cached_bindings
                )?;
            }
            if cache.ground_hits + cache.ground_misses > 0 {
                write!(
                    f,
                    ", ground cache {}/{} hits ({} cached)",
                    cache.ground_hits,
                    cache.ground_hits + cache.ground_misses,
                    cache.ground_cached
                )?;
            }
            if cache.cq_memo_hits + cache.cq_memo_misses > 0 {
                write!(
                    f,
                    ", cq memo {}/{} hits ({} shapes)",
                    cache.cq_memo_hits,
                    cache.cq_memo_hits + cache.cq_memo_misses,
                    cache.cq_memo_len
                )?;
            }
        }
        write!(f, "]")
    }
}

/// The dispatching solver.
#[derive(Clone, Copy, Debug)]
pub struct Solver {
    /// Whether to fall back to grounding when no lifted method applies.
    pub allow_ground_fallback: bool,
    /// Whether lifted methods are tried at all (disable to force grounding,
    /// e.g. to cross-check a lifted count).
    pub use_lifted: bool,
    /// Bound on the plan's per-domain-size grounding cache (lineage plus
    /// lazily compiled d-DNNF): `Some(k)` keeps the `k` most recently used
    /// domain sizes and evicts the rest, `None` (the default) never evicts.
    /// Long-lived processes sweeping many domain sizes should set a bound.
    pub ground_cache_capacity: Option<usize>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            allow_ground_fallback: true,
            use_lifted: true,
            ground_cache_capacity: None,
        }
    }
}

/// Chainable configuration for a [`Solver`] — the one construction surface
/// behind all the former ad-hoc constructors.
///
/// ```
/// use wfomc_core::Solver;
///
/// let solver = Solver::builder().ground_cache_capacity(4).build();
/// assert_eq!(solver.ground_cache_capacity, Some(4));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverBuilder {
    solver: Solver,
}

impl SolverBuilder {
    /// Starts from the default configuration: lifted methods first, grounded
    /// fallback enabled, unbounded grounding cache. A grounded count
    /// compiles its lineage to a d-DNNF once per domain size and evaluates
    /// that circuit for every weight function.
    pub fn new() -> Self {
        SolverBuilder::default()
    }

    /// Whether lifted methods are tried at all (disable to force grounding,
    /// e.g. to cross-check a lifted count).
    pub fn lifted(mut self, enabled: bool) -> Self {
        self.solver.use_lifted = enabled;
        self
    }

    /// Whether to fall back to grounding when no lifted method applies
    /// (disable to make the solver error instead).
    pub fn ground_fallback(mut self, enabled: bool) -> Self {
        self.solver.allow_ground_fallback = enabled;
        self
    }

    /// Bounds the plan's per-domain-size grounding cache to the `capacity`
    /// most recently used domain sizes (LRU eviction). Unbounded by default.
    pub fn ground_cache_capacity(mut self, capacity: usize) -> Self {
        self.solver.ground_cache_capacity = Some(capacity);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Solver {
        self.solver
    }
}

impl Solver {
    /// A solver with the default configuration (lifted methods first, grounded
    /// fallback enabled).
    pub fn new() -> Self {
        Solver::default()
    }

    /// Chainable configuration: `Solver::builder().lifted(false).build()`.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::new()
    }

    /// Symmetric WFOMC of a sentence over `vocabulary` and a domain of size
    /// `n` — a one-shot [`Solver::plan`] + [`crate::Plan::count`].
    ///
    /// Callers that evaluate the same sentence at several `(n, weights)`
    /// points should plan once themselves and reuse the [`crate::Plan`].
    pub fn wfomc(
        &self,
        sentence: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        weights: &Weights,
    ) -> Result<SolverReport, LiftError> {
        let problem = Problem::new(sentence.clone())
            .with_vocabulary(vocabulary.clone())
            .with_weights(weights.clone());
        match self.plan(&problem) {
            Ok(plan) => plan.count(n, weights),
            // Method selection is n-independent, but `n = 0` is not: the
            // empty domain has only the 2^#nullary structures that differ in
            // the nullary atoms, so a lifted-only solver answers *any*
            // sentence there by enumerating them, and reports that it did.
            Err(LiftError::PatternMismatch { .. }) if n == 0 && self.use_lifted => {
                let vocabulary = vocabulary.extended_with(&sentence.vocabulary());
                let value = wfomc_ground::brute_force_wfomc(sentence, &vocabulary, 0, weights);
                Ok(SolverReport {
                    backend: Some(WmcBackend::Enumerate),
                    ..SolverReport::new(value, Method::Ground)
                })
            }
            Err(e) => Err(e),
        }
    }

    /// FOMC (all weights 1) over the sentence's own vocabulary.
    pub fn fomc(&self, sentence: &Formula, n: usize) -> Result<SolverReport, LiftError> {
        self.wfomc(sentence, &sentence.vocabulary(), n, &Weights::ones())
    }

    /// The probability of the sentence under the tuple-independent semantics:
    /// `Pr(Φ) = WFOMC(Φ) / WFOMC(true)`.
    pub fn probability(
        &self,
        sentence: &Formula,
        vocabulary: &Vocabulary,
        n: usize,
        weights: &Weights,
    ) -> Result<SolverReport, LiftError> {
        let full_voc = vocabulary.extended_with(&sentence.vocabulary());
        let report = self.wfomc(sentence, &full_voc, n, weights)?;
        let normalization = weights.wfomc_of_true(&full_voc, n);
        if normalization.is_zero() {
            return Err(LiftError::NoProbabilityNormalization {
                predicate: "<vocabulary>".to_string(),
            });
        }
        Ok(SolverReport {
            value: report.value / normalization,
            ..report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfomc_ground::wfomc as ground_wfomc;
    use wfomc_logic::catalog;
    use wfomc_logic::weights::{weight_int, weight_ratio};

    #[test]
    fn dispatches_qs4_to_the_dynamic_program() {
        let solver = Solver::new();
        let report = solver.fomc(&catalog::qs4(), 2).unwrap();
        assert_eq!(report.method, Method::Qs4);
        assert_eq!(report.value, weight_int(14));
    }

    #[test]
    fn dispatches_fo2_sentences_to_cells() {
        let solver = Solver::new();
        for f in [
            catalog::forall_exists_edge(),
            catalog::table1_sentence(),
            catalog::spouse_constraint(),
            catalog::exists_unary(),
        ] {
            let report = solver.fomc(&f, 3).unwrap();
            assert_eq!(report.method, Method::Fo2, "wrong method for {f}");
            let grounded = ground_wfomc(&f, &f.vocabulary(), 3, &Weights::ones());
            assert_eq!(report.value, grounded, "wrong count for {f}");
        }
    }

    #[test]
    fn dispatches_gamma_acyclic_cqs() {
        let solver = Solver::new();
        // A 3-variable chain is not FO², so it must go to the CQ algorithm.
        let q = catalog::chain_query(3);
        let f = q.to_formula();
        let report = solver.fomc(&f, 2).unwrap();
        assert_eq!(report.method, Method::GammaAcyclicCq);
        assert_eq!(
            report.value,
            ground_wfomc(&f, &f.vocabulary(), 2, &Weights::ones())
        );
    }

    #[test]
    fn falls_back_to_ground_for_open_problems() {
        let solver = Solver::new();
        for (name, f) in catalog::table2_open_problems() {
            if f.vocabulary().num_ground_tuples(2) > 20 {
                continue;
            }
            let report = solver.fomc(&f, 2).unwrap();
            assert_eq!(
                report.method,
                Method::Ground,
                "{name} should not be liftable by the implemented methods"
            );
        }
    }

    #[test]
    fn lifted_only_solver_errors_on_hard_sentences() {
        let solver = Solver::builder().ground_fallback(false).build();
        let err = solver.fomc(&catalog::transitivity(), 2).unwrap_err();
        assert!(matches!(err, LiftError::PatternMismatch { .. }));
        // But still solves FO² sentences.
        assert!(solver.fomc(&catalog::table1_sentence(), 3).is_ok());
    }

    #[test]
    fn lifted_only_solver_still_answers_any_sentence_at_n_zero() {
        // The empty domain has one structure per truth assignment of the
        // nullary atoms, so even sentences outside every lifted fragment
        // are answered without grounding.
        let solver = Solver::builder().ground_fallback(false).build();
        let report = solver.fomc(&catalog::transitivity(), 0).unwrap();
        assert_eq!(report.value, weight_int(1));
        // The report names what ran: enumeration of the empty-domain
        // structures, not a lifted method.
        assert_eq!(report.method, Method::Ground);
        assert_eq!(report.backend, Some(WmcBackend::Enumerate));
        assert!(report.fo2_stats.is_none());
        // An existential sentence is false on the empty domain.
        let exists = catalog::exists_unary();
        assert_eq!(solver.fomc(&exists, 0).unwrap().value, weight_int(0));
        // A nullary atom keeps its weight: only the P-true structure counts.
        let with_p = wfomc_logic::builders::and(vec![
            catalog::transitivity(),
            wfomc_logic::builders::atom("P", &[]),
        ]);
        let weights = Weights::from_ints([("P", 3, 5)]);
        let report = solver.wfomc(&with_p, &with_p.vocabulary(), 0, &weights);
        assert_eq!(report.unwrap().value, weight_int(3));
    }

    #[test]
    fn ground_only_solver_always_grounds() {
        let solver = Solver::builder().lifted(false).build();
        let report = solver.fomc(&catalog::table1_sentence(), 2).unwrap();
        assert_eq!(report.method, Method::Ground);
        assert_eq!(report.value, weight_int(161));
    }

    #[test]
    fn circuit_ground_backend_matches_dpll_and_is_reported() {
        // Every grounded count evaluates a compiled d-DNNF; it agrees with
        // the ground crate's one-shot DPLL pipeline.
        let f = catalog::transitivity();
        let weights = Weights::from_ints([("E", 2, -1)]);
        let circuit = Solver::builder()
            .lifted(false)
            .build()
            .wfomc(&f, &f.vocabulary(), 2, &weights)
            .unwrap();
        let dpll = ground_wfomc(&f, &f.vocabulary(), 2, &weights);
        assert_eq!(dpll, circuit.value);
        assert_eq!(circuit.method, Method::Ground);
        assert_eq!(circuit.backend, Some(WmcBackend::Circuit));
        // Lifted methods never report a propositional backend.
        let lifted = Solver::new().fomc(&catalog::table1_sentence(), 2).unwrap();
        assert_eq!(lifted.backend, None);
    }

    #[test]
    fn fo2_reports_engine_statistics() {
        let solver = Solver::new();
        let report = solver.fomc(&catalog::table1_sentence(), 4).unwrap();
        assert_eq!(report.method, Method::Fo2);
        let stats = report.fo2_stats.expect("FO² reports its stats");
        assert!(stats.total_valid_cells > 0);
        assert_eq!(
            stats.compositions_summed + stats.compositions_pruned,
            stats.compositions_total
        );
        // Other methods never carry FO² statistics.
        assert!(solver.fomc(&catalog::qs4(), 2).unwrap().fo2_stats.is_none());
        assert!(Solver::builder()
            .lifted(false)
            .build()
            .fomc(&catalog::table1_sentence(), 2)
            .unwrap()
            .fo2_stats
            .is_none());
    }

    #[test]
    fn builder_sets_each_field_and_keeps_the_defaults() {
        let lifted = Solver::builder().ground_fallback(false).build();
        assert!(!lifted.allow_ground_fallback && lifted.use_lifted);
        let ground = Solver::builder().lifted(false).build();
        assert!(!ground.use_lifted && ground.allow_ground_fallback);
        let bounded = Solver::builder().ground_cache_capacity(3).build();
        assert_eq!(bounded.ground_cache_capacity, Some(3));
        // Defaults are preserved by the builder.
        let default = Solver::builder().build();
        assert!(default.use_lifted && default.allow_ground_fallback);
        assert_eq!(default.ground_cache_capacity, None);
    }

    #[test]
    fn report_display_names_method_backend_and_prune_ratio() {
        let fo2 = Solver::new().fomc(&catalog::table1_sentence(), 4).unwrap();
        let text = fo2.to_string();
        assert!(text.contains("fo2-cells"), "{text}");
        assert!(text.contains("compositions"), "{text}");
        let ground = Solver::builder()
            .lifted(false)
            .build()
            .fomc(&catalog::table1_sentence(), 2)
            .unwrap();
        let text = ground.to_string();
        assert!(text.starts_with("161 ["), "{text}");
        assert!(text.contains("grounded-wmc"), "{text}");
        assert!(text.contains("Circuit"), "{text}");
    }

    #[test]
    fn report_to_json_is_stable_and_typed() {
        let report = Solver::new().fomc(&catalog::table1_sentence(), 4).unwrap();
        let json = report.to_json();
        assert!(
            json.starts_with("{\"schema\":\"wfomc-report/v1\""),
            "{json}"
        );
        assert!(json.contains("\"method\":\"fo2-cells\""), "{json}");
        assert!(json.contains("\"backend\":null"), "{json}");
        assert!(json.contains("\"degraded\":false"), "{json}");
        assert!(json.contains("\"compositions_total\""), "{json}");
        assert!(json.contains("\"cells_merged\":"), "{json}");
        assert!(
            json.contains(&format!("\"value\":\"{}\"", report.value)),
            "{json}"
        );
        // Identical solves serialize byte-for-byte identically (limits are
        // None on ungoverned counts, so no wall-clock noise leaks in).
        let again = Solver::new().fomc(&catalog::table1_sentence(), 4).unwrap();
        assert_eq!(json, again.to_json());
        // Grounded reports carry the backend and a rational-valued string.
        let ground = Solver::builder()
            .lifted(false)
            .build()
            .fomc(&catalog::table1_sentence(), 2)
            .unwrap();
        let gjson = ground.to_json();
        assert!(gjson.contains("\"backend\":\"Circuit\""), "{gjson}");
        assert!(gjson.contains("\"fo2_stats\":null"), "{gjson}");
        assert!(gjson.contains("\"value\":\"161\""), "{gjson}");
    }

    #[test]
    fn probability_normalizes_by_wfomc_of_true() {
        let solver = Solver::new();
        let f = catalog::exists_unary();
        let voc = f.vocabulary();
        let mut w = Weights::ones();
        w.set_probability("S", weight_ratio(1, 3));
        let report = solver.probability(&f, &voc, 2, &w).unwrap();
        assert_eq!(report.value, weight_ratio(5, 9));
        assert_eq!(report.method, Method::Fo2);
    }

    #[test]
    fn extra_vocabulary_predicates_are_counted() {
        let solver = Solver::new();
        let f = catalog::qs4();
        let voc = Vocabulary::from_pairs([("S", 2), ("Unused", 1)]);
        let report = solver.wfomc(&f, &voc, 2, &Weights::ones()).unwrap();
        // 14 · 2² (for the unused unary predicate).
        assert_eq!(report.value, weight_int(56));
    }

    #[test]
    fn open_formula_is_rejected() {
        let solver = Solver::new();
        let f = wfomc_logic::builders::atom("R", &["x"]);
        assert!(matches!(solver.fomc(&f, 2), Err(LiftError::NotASentence)));
    }
}
