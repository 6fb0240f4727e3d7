//! Plan-then-execute solving: analyze a sentence once, count many times.
//!
//! The expensive part of symmetric WFOMC is the *sentence analysis* — method
//! selection, Skolemization and cell decomposition for FO², query-structure
//! recognition, grounding and knowledge compilation for the fallback — while
//! evaluating at a given domain size `n` and weight function is the cheap,
//! repeatable part. This module makes that split the shape of the API:
//!
//! ```
//! use wfomc_core::{Problem, Solver};
//! use wfomc_logic::catalog;
//! use wfomc_logic::weights::Weights;
//!
//! let problem = Problem::new(catalog::table1_sentence());
//! let plan = Solver::new().plan(&problem).unwrap();
//! for n in 1..=8 {
//!     let report = plan.count(n, &Weights::ones()).unwrap();
//!     assert_eq!(report.method, plan.method());
//! }
//! ```
//!
//! A [`Plan`] captures per-method prepared state:
//!
//! * **QS4** — the recognized sentence shape plus the factor for unused
//!   vocabulary predicates; each count runs the `O(n²)` dynamic program.
//! * **FO²** — the normalized sentence, Shannon branch matrices, valid cells
//!   grouped into row classes, and the satisfying cross-assignment sets of
//!   every class pair ([`crate::fo2::Fo2Prepared`]);
//!   each count binds the weights (cached per algebra) and runs the
//!   cell-sum engine.
//! * **γ-acyclic CQ** — the recognized query plus reduction tables, one per
//!   probability vector and at most 8 per algebra, reused across counts and
//!   domain sizes; every algebra runs the same Theorem 3.6 reduction.
//! * **Ground** — a domain-size-keyed cache of groundings, each compiled
//!   once to a d-DNNF circuit that every count at that size evaluates.
//!
//! Every count takes one path: `count` is the [`Exact`] instance of
//! [`Plan::count_in`] with a [`SolverReport`] around the value, and exact
//! counts run on integer weights ([`Algebra::pair_scale`]).
//! [`crate::Solver::wfomc`] is a one-shot plan-then-count, so the dispatch
//! logic lives here exactly once.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use num_traits::Zero;

use wfomc_ground::{CompiledWfomc, Lineage};
use wfomc_guard::{CancelToken, ExecutionLimits, Guard, Interrupt};
use wfomc_logic::algebra::{
    Algebra, AlgebraWeights, Exact, LogF64, LogF64xN, LogWeight, LOG_LANES,
};
use wfomc_logic::cq::ConjunctiveQuery;
use wfomc_logic::snap;
use wfomc_logic::syntax::Formula;
use wfomc_logic::vocabulary::{Predicate, Vocabulary};
use wfomc_logic::weights::{Weight, Weights};
use wfomc_prop::counter::wmc_formula_via_in;
use wfomc_prop::{PropFormula, WmcBackend};

use crate::cq::gamma_acyclic::{gamma_acyclic_wfomc_in, CqMemo};
use crate::error::{demote, LiftError, SolveError};
use crate::fanout;
use crate::fo2::{Fo2Prepared, Fo2Stats};
use crate::qs4::{is_qs4, wfomc_qs4_in};
use crate::solver::{LimitsReport, Method, PlanCacheStats, Solver, SolverReport};

/// A counting problem: a sentence, the vocabulary it is counted over, and a
/// default weight function (used by [`Plan::probability`]; every count can
/// still override the weights).
///
/// Built in builder style:
///
/// ```
/// use wfomc_core::Problem;
/// use wfomc_logic::catalog;
/// use wfomc_logic::weights::Weights;
///
/// let problem = Problem::new(catalog::table1_sentence())
///     .with_weights(Weights::from_ints([("R", 2, 1)]));
/// let plan = problem.plan().unwrap();
/// assert!(plan.count(3, problem.weights()).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct Problem {
    sentence: Formula,
    vocabulary: Vocabulary,
    weights: Weights,
}

impl Problem {
    /// A problem over the sentence's own vocabulary with all-ones weights.
    pub fn new(sentence: Formula) -> Problem {
        let vocabulary = sentence.vocabulary();
        Problem {
            sentence,
            vocabulary,
            weights: Weights::ones(),
        }
    }

    /// Counts over this vocabulary instead of the sentence's own (predicates
    /// beyond the sentence contribute the usual `(w + w̄)^{n^arity}` factor;
    /// the sentence's predicates are always included).
    pub fn with_vocabulary(mut self, vocabulary: Vocabulary) -> Problem {
        self.vocabulary = vocabulary;
        self
    }

    /// Sets the default weight function.
    pub fn with_weights(mut self, weights: Weights) -> Problem {
        self.weights = weights;
        self
    }

    /// The sentence to count.
    pub fn sentence(&self) -> &Formula {
        &self.sentence
    }

    /// The vocabulary the problem was declared over (not yet extended with
    /// the sentence's own predicates).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The default weight function.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Plans this problem with the default solver configuration.
    pub fn plan(&self) -> Result<Plan, LiftError> {
        Solver::new().plan(self)
    }
}

/// The per-method prepared state of a plan.
#[derive(Debug)]
enum PlanState {
    /// Theorem 3.7's sentence, recognized syntactically.
    Qs4 {
        /// Vocabulary predicates the dynamic program does not cover.
        extra: Vec<Predicate>,
    },
    /// The FO² analysis, prepared once.
    Fo2(Fo2Prepared),
    /// A recognized γ-acyclic conjunctive query.
    Cq {
        query: ConjunctiveQuery,
        /// Vocabulary predicates outside the query.
        extra: Vec<Predicate>,
        /// Reduction tables shared across all counts of this plan.
        memo: Mutex<CqMemo>,
    },
    /// No lifted method applies: every count grounds (with caching).
    Ground,
}

/// One cached grounding: the lineage at a fixed domain size, with the d-DNNF
/// circuit compiled on the first count at that size.
#[derive(Debug)]
struct GroundInstance {
    /// Shared with the compiled circuit, which reads the same allocation.
    lineage: Arc<Lineage>,
    compiled: OnceLock<CompiledWfomc>,
}

/// The domain-size-keyed grounding cache (used by the Ground method and as
/// the weight-dependent fallback of the CQ method), with optional LRU
/// eviction for long-lived sweep processes
/// ([`crate::SolverBuilder::ground_cache_capacity`]).
#[derive(Debug, Default)]
struct GroundPrep {
    instances: Mutex<GroundCache>,
}

#[derive(Debug, Default)]
struct GroundCache {
    /// Instance plus last-use stamp, keyed by domain size.
    map: HashMap<usize, (Arc<GroundInstance>, u64)>,
    /// Monotone use counter backing the LRU stamps.
    clock: u64,
    /// Lifetime lookup hits — always-on accounting inside the lock the cache
    /// takes anyway, so reports see cache behavior while `wfomc_obs`
    /// recording is off.
    hits: u64,
    /// Lifetime lookup misses (each one ground the sentence).
    misses: u64,
}

impl GroundPrep {
    /// The cached instance for domain size `n`, building and evicting the
    /// least recently used entries beyond `capacity` on a miss. The build
    /// runs outside the lock, so a panic inside it cannot poison the cache
    /// and counts at other domain sizes do not wait behind it; the lock is
    /// taken again to insert, and if a concurrent count inserted `n` first,
    /// its instance wins and this build is dropped. A build interrupted by
    /// an armed guard inserts *nothing*: the cache only ever holds completed
    /// groundings, so a retry after exhaustion rebuilds cleanly.
    fn try_instance(
        &self,
        n: usize,
        capacity: Option<usize>,
        build: impl FnOnce() -> Result<GroundInstance, Interrupt>,
    ) -> Result<Arc<GroundInstance>, Interrupt> {
        {
            let mut cache = self.instances.lock().expect("ground cache poisoned");
            cache.clock += 1;
            let now = cache.clock;
            if let Some((instance, stamp)) = cache.map.get_mut(&n) {
                *stamp = now;
                let instance = instance.clone();
                cache.hits += 1;
                wfomc_obs::metrics::GROUND_CACHE_HITS.inc();
                return Ok(instance);
            }
            cache.misses += 1;
            wfomc_obs::metrics::GROUND_CACHE_MISSES.inc();
        }
        let built = {
            let _span = wfomc_obs::span("plan.ground_build");
            Arc::new(build()?)
        };
        let mut cache = self.instances.lock().expect("ground cache poisoned");
        cache.clock += 1;
        let now = cache.clock;
        let entry = cache.map.entry(n).or_insert((built, now));
        entry.1 = now;
        let instance = entry.0.clone();
        if let Some(capacity) = capacity {
            while cache.map.len() > capacity.max(1) {
                let evict = cache
                    .map
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(&k, _)| k)
                    .expect("non-empty cache has an LRU entry");
                cache.map.remove(&evict);
            }
        }
        wfomc_obs::metrics::GROUND_CACHE_LEN.set(cache.map.len() as u64);
        Ok(instance)
    }

    /// Number of groundings currently cached.
    fn len(&self) -> usize {
        self.instances
            .lock()
            .expect("ground cache poisoned")
            .map
            .len()
    }

    /// Lifetime `(hits, misses, currently cached)` of the grounding cache.
    fn stats(&self) -> (u64, u64, usize) {
        let cache = self.instances.lock().expect("ground cache poisoned");
        (cache.hits, cache.misses, cache.map.len())
    }
}

/// An analyzed counting problem, ready to be evaluated at many domain sizes
/// and weight functions. Built by [`Solver::plan`]; all the n-independent
/// work (method selection, normalization, cell decomposition, query
/// recognition) has already happened.
///
/// A `Plan` is `Sync`: [`Plan::count_batch_results`] hands independent points
/// to the crate's work-stealing fan-out, and the internal caches (FO² weight
/// binding, CQ memo, groundings and compiled circuits per domain size) are
/// shared behind locks.
#[must_use = "a Plan only pays off when its count/probability methods are called"]
#[derive(Debug)]
pub struct Plan {
    sentence: Formula,
    /// The problem vocabulary extended with the sentence's own predicates.
    vocabulary: Vocabulary,
    default_weights: Weights,
    solver: Solver,
    state: PlanState,
    ground: GroundPrep,
}

impl Solver {
    /// Analyzes a problem once: runs method selection and all n-independent
    /// preprocessing, returning a [`Plan`] whose counts are cheap to repeat.
    ///
    /// Fails with [`LiftError::NotASentence`] on open formulas, with
    /// [`LiftError::PatternMismatch`] when no lifted method applies and the
    /// grounded fallback is disabled, and propagates internal errors of the
    /// FO² analysis.
    pub fn plan(&self, problem: &Problem) -> Result<Plan, LiftError> {
        Plan::new(*self, problem)
    }
}

impl Plan {
    /// Runs method selection and preprocessing (see [`Solver::plan`]).
    fn new(solver: Solver, problem: &Problem) -> Result<Plan, LiftError> {
        let sentence = problem.sentence().clone();
        if !sentence.is_sentence() {
            return Err(LiftError::NotASentence);
        }
        let vocabulary = problem.vocabulary().extended_with(&sentence.vocabulary());

        let state = Self::select_method(&solver, &sentence, &vocabulary)?;
        Ok(Plan {
            sentence,
            vocabulary,
            default_weights: problem.weights().clone(),
            solver,
            state,
            ground: GroundPrep::default(),
        })
    }

    /// The dispatch order of the paper's tractability landscape: QS4 → FO² →
    /// γ-acyclic CQ → grounding. Applicability of every lifted method is a
    /// property of the sentence alone, so it is decided here, once.
    fn select_method(
        solver: &Solver,
        sentence: &Formula,
        vocabulary: &Vocabulary,
    ) -> Result<PlanState, LiftError> {
        if solver.use_lifted {
            // 1. The QS4 special case.
            if is_qs4(sentence) {
                return Ok(PlanState::Qs4 {
                    extra: extra_predicates(vocabulary, &sentence.vocabulary()),
                });
            }

            // 2. The FO² algorithm.
            match Fo2Prepared::prepare(sentence, vocabulary) {
                Ok(prepared) => return Ok(PlanState::Fo2(prepared)),
                Err(LiftError::Internal(msg)) => return Err(LiftError::Internal(msg)),
                Err(_) => {}
            }

            // 3. The γ-acyclic CQ algorithm. Reducibility is structural, so a
            // probe at a tiny domain size decides applicability for every n;
            // weight pathologies (w + w̄ = 0) are handled per count.
            if let Some(query) = ConjunctiveQuery::from_formula(sentence) {
                let ones = AlgebraWeights::ones();
                let probe = gamma_acyclic_wfomc_in(&query, 2, &Exact, &ones, &Guard::unarmed());
                if probe.is_ok() {
                    let extra = extra_predicates(vocabulary, &query.vocabulary());
                    return Ok(PlanState::Cq {
                        query,
                        extra,
                        memo: Mutex::new(CqMemo::default()),
                    });
                }
            }
        }

        // 4. Ground.
        if !solver.allow_ground_fallback {
            return Err(no_lifted_method());
        }
        Ok(PlanState::Ground)
    }

    /// The method the plan selected. Individual counts normally use it; the
    /// CQ method falls back to grounding for weight functions that admit no
    /// tuple probabilities (`w + w̄ = 0`), in which case the returned
    /// [`SolverReport::method`] records what actually ran.
    pub fn method(&self) -> Method {
        match &self.state {
            PlanState::Qs4 { .. } => Method::Qs4,
            PlanState::Fo2(_) => Method::Fo2,
            PlanState::Cq { .. } => Method::GammaAcyclicCq,
            PlanState::Ground => Method::Ground,
        }
    }

    /// The sentence this plan counts.
    pub fn sentence(&self) -> &Formula {
        &self.sentence
    }

    /// The full vocabulary (problem vocabulary extended with the sentence's).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The problem's default weight function.
    pub fn default_weights(&self) -> &Weights {
        &self.default_weights
    }

    /// Symmetric WFOMC at domain size `n` under `weights` — the cheap,
    /// repeatable half of the solve. This is the governed path of
    /// [`count_with_limits`](Self::count_with_limits) with nothing armed.
    pub fn count(&self, n: usize, weights: &Weights) -> Result<SolverReport, LiftError> {
        self.count_point(n, weights, true, &Guard::unarmed())
            .map_err(demote)
    }

    /// [`count`](Self::count) under [`ExecutionLimits`] and an optional
    /// [`CancelToken`] — the governed entry point.
    ///
    /// The limits are cooperative: every long-running loop in the pipeline
    /// (FO² cell-sum DFS and pair-structure preparation, DPLL, d-DNNF
    /// compilation, grounding, CQ reduction) consults a shared
    /// [`wfomc_guard::Guard`] built here, and exhaustion surfaces as a
    /// structured [`SolveError`] naming the phase that stopped. Exhaustion
    /// is not corruption — the plan's caches only ever hold completed
    /// entries, so retrying the same point with larger (or no) limits
    /// succeeds and agrees with an unbudgeted solve. A panic while counting
    /// is contained the same way and reported as
    /// [`SolveError::WorkerPanicked`], as the batch paths do per point.
    ///
    /// ```
    /// use std::time::Duration;
    /// use wfomc_core::{ExecutionLimits, Problem, SolveError};
    /// use wfomc_logic::catalog;
    /// use wfomc_logic::weights::Weights;
    ///
    /// let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
    /// let generous = ExecutionLimits::none().with_deadline(Duration::from_secs(600));
    /// let report = plan
    ///     .count_with_limits(4, &Weights::ones(), &generous, None)
    ///     .unwrap();
    /// assert!(report.limits.is_some(), "armed solves report their budget");
    /// // An already-expired deadline cannot finish; the plan stays reusable.
    /// let expired = ExecutionLimits::none().with_deadline(Duration::ZERO);
    /// let err = plan
    ///     .count_with_limits(4, &Weights::ones(), &expired, None)
    ///     .unwrap_err();
    /// assert!(matches!(err, SolveError::DeadlineExceeded { .. }));
    /// assert_eq!(
    ///     plan.count(4, &Weights::ones()).unwrap().value,
    ///     report.value,
    /// );
    /// ```
    pub fn count_with_limits(
        &self,
        n: usize,
        weights: &Weights,
        limits: &ExecutionLimits,
        cancel: Option<CancelToken>,
    ) -> Result<SolverReport, SolveError> {
        let guard = Guard::new(limits, cancel);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.count_point(n, weights, true, &guard)
        }));
        let mut report = contained(outcome)?;
        report.limits = limits_report(&guard, limits);
        Ok(report)
    }

    /// Evaluates many independent `(n, weights)` points, handing them to the
    /// crate's work-stealing fan-out (each point then evaluates serially, so
    /// the machine is not oversubscribed). Each point gets its own `Result`,
    /// so one pathological point (an algorithmic error, or — contained via
    /// `catch_unwind` — a panic, reported as [`SolveError::WorkerPanicked`])
    /// never takes the whole batch down with it. Results are in input order.
    ///
    /// CQ-method points check their weight function's reduction table out of
    /// the shared memo and back in, so they run concurrently instead of
    /// serializing on one memo lock.
    pub fn count_batch_results(
        &self,
        points: &[(usize, Weights)],
    ) -> Vec<Result<SolverReport, SolveError>> {
        self.count_batch_with_limits(points, &ExecutionLimits::none(), None)
    }

    /// [`count_batch_results`](Self::count_batch_results) under a *shared*
    /// budget: all points draw from one work/deadline pool, so the batch as
    /// a whole is bounded. Points evaluated after the pool is exhausted
    /// report exhaustion individually; completed points keep their reports.
    ///
    /// Worker panics are contained per point ([`SolveError::WorkerPanicked`])
    /// and never poison the plan's caches or the other points.
    pub fn count_batch_with_limits(
        &self,
        points: &[(usize, Weights)],
        limits: &ExecutionLimits,
        cancel: Option<CancelToken>,
    ) -> Vec<Result<SolverReport, SolveError>> {
        let guard = Guard::new(limits, cancel);
        let (workers, alone) = batch_workers(points.len());
        let outcomes = fanout::run(points.len(), workers, |i| {
            let (n, weights) = &points[i];
            self.count_point(*n, weights, alone, &guard)
        });
        let mut results: Vec<_> = outcomes.into_iter().map(contained).collect();
        if let Some(limits) = limits_report(&guard, limits) {
            for report in results.iter_mut().flatten() {
                report.limits = Some(limits);
            }
        }
        results
    }

    /// Lane-batched log-space batch evaluation: a same-`n` weight sweep
    /// binds once and runs **one** traversal per [`LOG_LANES`] points, with
    /// the weight vectors riding the lanes of the [`LogF64xN`] algebra
    /// through the unmodified generic paths (cell-sum DFS, circuit
    /// evaluation, DPLL, QS4 DP). Lane `i` of a chunk is bit-identical to a
    /// scalar [`LogF64`] run of point `i` — the lane algebra delegates every
    /// per-lane step to the scalar implementation — so this is a throughput
    /// optimization, not an approximation change. Mixed-`n` batches fall
    /// back to per-point scalar [`LogF64`] evaluation through the
    /// work-stealing fan-out (nothing can share a traversal), as does a CQ
    /// chunk with a lane whose weights admit no tuple probabilities (lane
    /// division is all-or-nothing). Results are in input order.
    pub fn count_batch_log(
        &self,
        points: &[(usize, Weights)],
    ) -> Vec<Result<LogWeight, SolveError>> {
        self.count_batch_log_with_limits(points, &ExecutionLimits::none(), None)
    }

    /// [`count_batch_log`](Self::count_batch_log) under a *shared* budget
    /// and optional cancellation, mirroring
    /// [`count_batch_with_limits`](Self::count_batch_with_limits): all
    /// chunks draw from one work/deadline pool, exhaustion and contained
    /// panics surface per point, and completed points keep their values.
    pub fn count_batch_log_with_limits(
        &self,
        points: &[(usize, Weights)],
        limits: &ExecutionLimits,
        cancel: Option<CancelToken>,
    ) -> Vec<Result<LogWeight, SolveError>> {
        let guard = Guard::new(limits, cancel);
        let scalar = |(n, weights): &(usize, Weights), alone| {
            let lifted = AlgebraWeights::lift(&LogF64, weights);
            self.count_in_guarded_point(*n, &LogF64, &lifted, alone, &guard)
                .map(|counted| counted.value)
        };
        let Some(&(n, _)) = points.first() else {
            return Vec::new();
        };
        if points.iter().any(|(m, _)| *m != n) {
            let (workers, alone) = batch_workers(points.len());
            let outcomes = fanout::run(points.len(), workers, |i| scalar(&points[i], alone));
            return outcomes.into_iter().map(contained).collect();
        }
        wfomc_obs::metrics::BATCH_LANE_POINTS.add(points.len() as u64);
        // The chunks run in order on this thread (each one already fans its
        // traversal out); one worker still contains a panic per chunk.
        let chunks: Vec<&[(usize, Weights)]> = points.chunks(LOG_LANES).collect();
        let outcomes = fanout::run(chunks.len(), 1, |c| {
            wfomc_obs::metrics::CELLSUM_LANE_BATCHES.inc();
            let lane_weights: Vec<&Weights> = chunks[c].iter().map(|(_, w)| w).collect();
            // A ragged final chunk repeats its last point in the tail
            // lanes (see `pack_weights`); only the real lanes are
            // unpacked below.
            let packed = LogF64xN::pack_weights(&lane_weights);
            match self.count_in_planned(n, &LogF64xN, &packed, true, &guard) {
                Ok(lanes) => Ok((0..lane_weights.len())
                    .map(|i| Ok(lanes.value.lane(i)))
                    .collect()),
                // One lane without tuple probabilities fails a whole CQ
                // chunk; its points count as scalars, so every lane still
                // equals its scalar run.
                Err(e) if undefined_probabilities(&e) => Ok(chunks[c]
                    .iter()
                    .map(|p| scalar(p, true))
                    .collect::<Vec<_>>()),
                Err(e) => Err(e),
            }
        });
        let mut out = Vec::with_capacity(points.len());
        for (chunk, outcome) in chunks.iter().zip(outcomes) {
            match contained(outcome) {
                Ok(lanes) => out.extend(lanes),
                Err(e) => out.extend((0..chunk.len()).map(|_| Err(e.clone()))),
            }
        }
        out
    }

    /// One governed exact point, reported: the [`Exact`] instance of
    /// [`count_in_guarded_point`](Self::count_in_guarded_point) behind
    /// `count`, `count_with_limits` and the exact batches.
    fn count_point(
        &self,
        n: usize,
        weights: &Weights,
        allow_parallel: bool,
        guard: &Guard,
    ) -> Result<SolverReport, SolveError> {
        let lifted = AlgebraWeights::lift(&Exact, weights);
        let counted = self.count_in_guarded_point(n, &Exact, &lifted, allow_parallel, guard)?;
        Ok(self.report(counted))
    }

    /// The report of an exact count, with the plan's cache accounting.
    fn report(&self, counted: Counted<Weight>) -> SolverReport {
        SolverReport {
            backend: counted.backend,
            fo2_stats: counted.fo2_stats,
            cache: Some(self.cache_stats()),
            ..SolverReport::new(counted.value, counted.method)
        }
    }

    /// One governed evaluation point in an arbitrary algebra — the one path
    /// of every count. Weight pairs the algebra can scale to cheaper ones
    /// (exact rationals, to integers) are scaled first and the count divided
    /// back at the end. A CQ point whose weights admit no tuple
    /// probabilities (`w + w̄ = 0`, or a divisor the algebra cannot divide
    /// by) grounds, unless the solver disables grounding; every other error
    /// of the planned method propagates, exhaustion included.
    fn count_in_guarded_point<A: Algebra>(
        &self,
        n: usize,
        algebra: &A,
        weights: &AlgebraWeights<A>,
        allow_parallel: bool,
        guard: &Guard,
    ) -> Result<Counted<A::Elem>, SolveError> {
        let scaled = scale_pairs(&self.vocabulary, algebra, weights);
        let weights = scaled.as_ref().map_or(weights, |(scaled, _)| scaled);
        let mut counted = match self.count_in_planned(n, algebra, weights, allow_parallel, guard) {
            Err(e) if undefined_probabilities(&e) && self.solver.allow_ground_fallback => {
                self.ground_count_in_guarded(n, algebra, weights, guard)?
            }
            Err(e) if undefined_probabilities(&e) => return Err(no_lifted_method().into()),
            counted => counted?,
        };
        if let Some((_, scales)) = scaled {
            let mut divisor = algebra.one();
            for (p, d) in scales {
                algebra.mul_assign(&mut divisor, &algebra.pow(&d, p.num_ground_tuples(n)));
            }
            counted.value = algebra
                .try_div(&counted.value, &divisor)
                .expect("pair scales are non-zero");
        }
        Ok(counted)
    }

    /// [`count_in_guarded_point`](Self::count_in_guarded_point) with the
    /// planned method alone and the weights as given: a CQ point whose
    /// weights admit no tuple probabilities returns that error instead of
    /// grounding. The one evaluation `match` over the prepared state.
    fn count_in_planned<A: Algebra>(
        &self,
        n: usize,
        algebra: &A,
        weights: &AlgebraWeights<A>,
        allow_parallel: bool,
        guard: &Guard,
    ) -> Result<Counted<A::Elem>, SolveError> {
        wfomc_obs::metrics::PLAN_COUNTS.inc();
        let _span = wfomc_obs::span("plan.count");
        // An already-expired deadline or raised token fails fast, before any
        // method-specific work.
        guard.check("plan.count")?;
        Ok(match &self.state {
            PlanState::Qs4 { extra } => Counted::lifted(
                algebra.mul(
                    &wfomc_qs4_in(n, algebra, weights),
                    &predicate_factor_in(extra, n, algebra, weights),
                ),
                Method::Qs4,
            ),
            PlanState::Fo2(prepared) => {
                let (value, stats) =
                    prepared.count_in(n, algebra, weights, allow_parallel, guard)?;
                Counted {
                    fo2_stats: Some(stats),
                    ..Counted::lifted(value, Method::Fo2)
                }
            }
            PlanState::Cq { query, extra, memo } => Counted::lifted(
                algebra.mul(
                    &CqMemo::wfomc_in(memo, query, n, algebra, weights, guard)?,
                    &predicate_factor_in(extra, n, algebra, weights),
                ),
                Method::GammaAcyclicCq,
            ),
            PlanState::Ground => self.ground_count_in_guarded(n, algebra, weights, guard)?,
        })
    }

    /// The probability of the sentence at domain size `n` under the problem's
    /// default weights: `Pr(Φ) = WFOMC(Φ) / WFOMC(true)`.
    pub fn probability(&self, n: usize) -> Result<SolverReport, LiftError> {
        let report = self.count(n, &self.default_weights)?;
        let normalization = self.default_weights.wfomc_of_true(&self.vocabulary, n);
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

    /// The plan's lifetime cache accounting: FO² weight-binding LRU,
    /// per-domain-size grounding LRU, and γ-acyclic CQ reduction memo.
    ///
    /// Always on — these tallies ride inside locks the caches already take,
    /// so they cost nothing measurable and work while `wfomc_obs` recording
    /// is off.
    pub fn cache_stats(&self) -> PlanCacheStats {
        let mut stats = PlanCacheStats::default();
        match &self.state {
            PlanState::Fo2(prepared) => {
                let (hits, misses) = prepared.bind_cache_stats();
                stats.fo2_bind_hits = hits;
                stats.fo2_bind_misses = misses;
                stats.fo2_cached_bindings = prepared.cached_bindings();
            }
            PlanState::Cq { memo, .. } => {
                let memo = memo.lock().expect("cq memo poisoned");
                let (hits, misses) = memo.hit_stats();
                stats.cq_memo_hits = hits;
                stats.cq_memo_misses = misses;
                stats.cq_memo_len = memo.len();
            }
            PlanState::Qs4 { .. } | PlanState::Ground => {}
        }
        let (hits, misses, cached) = self.ground.stats();
        stats.ground_hits = hits;
        stats.ground_misses = misses;
        stats.ground_cached = cached;
        stats
    }

    /// A structured [`wfomc_obs::MetricsSnapshot`] for this plan: the
    /// process-global metric registry (always compiled in, but all zeros
    /// until [`wfomc_obs::set_enabled`]`(true)`) overlaid with the plan's
    /// always-on cache accounting, labelled with the planned method.
    ///
    /// The cache-related entries are authoritative per plan rather than
    /// process-global, so two plans report their own hit rates even in one
    /// process.
    pub fn metrics(&self) -> wfomc_obs::MetricsSnapshot {
        let mut snap = wfomc_obs::snapshot().label("method", &self.method().to_string());
        let cache = self.cache_stats();
        snap.set_counter("fo2.bind.hits", cache.fo2_bind_hits);
        snap.set_counter("fo2.bind.misses", cache.fo2_bind_misses);
        snap.set_gauge("fo2.bind.cached", cache.fo2_cached_bindings as u64);
        snap.set_counter("plan.ground_cache.hits", cache.ground_hits);
        snap.set_counter("plan.ground_cache.misses", cache.ground_misses);
        snap.set_gauge("plan.ground_cache.len", cache.ground_cached as u64);
        snap.set_counter("cq.memo.hits", cache.cq_memo_hits);
        snap.set_counter("cq.memo.misses", cache.cq_memo_misses);
        snap.set_gauge("cq.memo.len", cache.cq_memo_len as u64);
        snap
    }

    /// A report of what was prepared and why, for humans.
    pub fn explain(&self) -> PlanReport {
        let mut details = vec![format!("sentence: {}", self.sentence)];
        match &self.state {
            PlanState::Qs4 { extra } => {
                details.push(
                    "sentence is syntactically QS4 (Theorem 3.7); each count runs the O(n²) \
                     dynamic program"
                        .to_string(),
                );
                if !extra.is_empty() {
                    details.push(format!(
                        "{} vocabulary predicate(s) outside the sentence contribute \
                         (w + w̄)^(n^arity) factors",
                        extra.len()
                    ));
                }
            }
            PlanState::Fo2(prepared) => {
                details.push(format!(
                    "FO² normal form prepared once: {} introduced predicate(s), {}/{} Shannon \
                     branch(es) survive, {} valid cells in {} row classes, {} satisfying pair \
                     assignment(s)",
                    prepared.introduced_predicates(),
                    prepared.branches_prepared(),
                    prepared.shannon_branches(),
                    prepared.total_cells(),
                    prepared.total_classes(),
                    prepared.satisfying_pair_assignments(),
                ));
                details.push(
                    "each count binds the weight function (cached per algebra) and runs the \
                     prefix-sharing \
                     cell-sum engine; exact and polynomial counts first drop zero-weight cells \
                     and merge interchangeable ones (equal weight and pair rows) into one cell \
                     per class"
                        .to_string(),
                );
            }
            PlanState::Cq { query, memo, .. } => {
                details.push(format!(
                    "γ-acyclic conjunctive query with {} atom(s); every algebra runs the \
                     reduction and keeps one table per probability vector, at most 8 per \
                     algebra ({} shape(s) memoized)",
                    query.atoms.len(),
                    memo.lock().expect("cq memo poisoned").len(),
                ));
                details.push("weights with w + w̄ = 0 ground, in every algebra".to_string());
            }
            PlanState::Ground => {
                details.push(
                    "no lifted method applies (consistent with the paper's hardness results)"
                        .to_string(),
                );
                details.push(format!(
                    "the first count at each domain size grounds and compiles one d-DNNF; \
                     every count evaluates that circuit, in any algebra; {} grounding(s) cached",
                    self.ground.len(),
                ));
            }
        }
        PlanReport {
            method: self.method(),
            details,
        }
    }

    /// The cached grounding for domain size `n` (built on first use, LRU
    /// eviction when the solver bounds the cache).
    fn ground_instance_guarded(
        &self,
        n: usize,
        guard: &Guard,
    ) -> Result<Arc<GroundInstance>, Interrupt> {
        self.ground
            .try_instance(n, self.solver.ground_cache_capacity, || {
                Ok(GroundInstance {
                    lineage: Arc::new(Lineage::build_guarded(
                        &self.sentence,
                        &self.vocabulary,
                        n,
                        guard,
                    )?),
                    compiled: OnceLock::new(),
                })
            })
    }

    /// The degradation chain's last stage: one exact DPLL search over the
    /// cached lineage, which needs no circuit and so stays within budgets a
    /// compilation cannot meet.
    fn ground_dpll_guarded(
        &self,
        n: usize,
        weights: &AlgebraWeights<Exact>,
        guard: &Guard,
    ) -> Result<Counted<Weight>, SolveError> {
        guard.check("plan.ground")?;
        let instance = self.ground_instance_guarded(n, guard)?;
        let value = wmc_formula_via_in(
            &instance.lineage.prop,
            &Exact,
            &instance.lineage.weights_in(&Exact, weights),
            WmcBackend::Dpll,
            guard,
        )?;
        Ok(Counted::ground(value, WmcBackend::Dpll))
    }

    /// [`count_with_limits`](Self::count_with_limits) with graceful
    /// degradation: when the planned method exhausts its sub-budget, cheaper
    /// stages of `policy` (grounded d-DNNF compilation, then plain DPLL) are
    /// tried in turn, each under its own sub-budget and the same optional
    /// cancellation token. A Ground plan skips the compilation stage: its
    /// primary stage already ran that compilation. A degraded answer is
    /// still *exact* — the stages trade the plan's preferred asymptotics for
    /// predictable worst-case behavior at small `n` — and is flagged via
    /// [`SolverReport::degraded`].
    ///
    /// Algorithmic errors (and a raised token) abort the chain immediately;
    /// only exhaustion degrades. When every stage exhausts, the error of the
    /// last stage tried is returned.
    pub fn count_degraded(
        &self,
        n: usize,
        weights: &Weights,
        policy: &DegradePolicy,
        cancel: Option<CancelToken>,
    ) -> Result<SolverReport, SolveError> {
        let primary = self.count_with_limits(n, weights, &policy.primary, cancel.clone());
        let mut last = match primary {
            Ok(report) => return Ok(report),
            Err(e) if e.is_exhaustion() && !matches!(e, SolveError::Cancelled { .. }) => e,
            Err(e) => return Err(e),
        };
        // A Ground plan's primary stage was this compilation already.
        let circuit = policy
            .circuit
            .as_ref()
            .filter(|_| !matches!(self.state, PlanState::Ground));
        type Stage =
            fn(&Plan, usize, &AlgebraWeights<Exact>, &Guard) -> Result<Counted<Weight>, SolveError>;
        let stages: [(Option<&ExecutionLimits>, Stage); 2] = [
            (circuit, |plan, n, weights, guard| {
                plan.ground_count_in_guarded(n, &Exact, weights, guard)
            }),
            (policy.dpll.as_ref(), Plan::ground_dpll_guarded),
        ];
        let lifted = AlgebraWeights::lift(&Exact, weights);
        for (limits, stage) in stages {
            let Some(limits) = limits else { continue };
            let guard = Guard::new(limits, cancel.clone());
            match stage(self, n, &lifted, &guard) {
                Ok(counted) => {
                    let mut report = self.report(counted);
                    report.degraded = true;
                    report.limits = limits_report(&guard, limits);
                    wfomc_obs::metrics::GUARD_DEGRADED_SOLVES.inc();
                    return Ok(report);
                }
                Err(e) if e.is_exhaustion() && !matches!(e, SolveError::Cancelled { .. }) => {
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Symmetric WFOMC at domain size `n` in an arbitrary [`Algebra`] — the
    /// same plan, the same prepared analysis, a different ring:
    ///
    /// * **QS4** runs its dynamic program over the ring;
    /// * **FO²** binds the algebra-valued weights to the prepared cells and
    ///   signature multisets and runs the prefix-sharing engine;
    /// * **Ground** evaluates the d-DNNF compiled once per domain size in
    ///   the ring;
    /// * **γ-acyclic CQ** runs the Theorem 3.6 reduction over the ring, with
    ///   one [`Algebra::try_div`] per predicate for its tuple probability.
    ///   When that division fails (`w + w̄ = 0`, or a polynomial that does
    ///   not divide) the point grounds; this requires the solver's grounded
    ///   fallback, which is on by default.
    ///
    /// Every algebra shares the plan's caches, each with its own slots: the
    /// FO² weight-binding LRU and the CQ reduction tables. [`count`](Self::count)
    /// is this method's [`Exact`] instance with a [`SolverReport`] around the
    /// value, so `count_in(n, &Exact, …)` returns the same value at the same
    /// speed, denominator clearing included.
    ///
    /// ```
    /// use wfomc_core::Problem;
    /// use wfomc_logic::algebra::{Algebra, AlgebraWeights, LogF64};
    /// use wfomc_logic::{catalog, weights::Weights};
    ///
    /// let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
    /// let exact = plan.count(4, &Weights::ones()).unwrap().value;
    /// let log = plan
    ///     .count_in(4, &LogF64, &AlgebraWeights::lift(&LogF64, &Weights::ones()))
    ///     .unwrap();
    /// assert!((log.ln_abs() - LogF64.from_weight(&exact).ln_abs()).abs() < 1e-9);
    /// ```
    pub fn count_in<A: Algebra>(
        &self,
        n: usize,
        algebra: &A,
        weights: &AlgebraWeights<A>,
    ) -> Result<A::Elem, LiftError> {
        self.count_in_guarded_point(n, algebra, weights, true, &Guard::unarmed())
            .map(|counted| counted.value)
            .map_err(demote)
    }

    /// [`count_batch_results`](Self::count_batch_results) in an arbitrary
    /// [`Algebra`]: results are ring elements in input order. This API has
    /// no panic-shaped error (`LiftError` is purely algorithmic), so a panic
    /// while evaluating a point is resumed here with its original payload.
    pub fn count_batch_in<A: Algebra>(
        &self,
        points: &[(usize, AlgebraWeights<A>)],
        algebra: &A,
    ) -> Result<Vec<A::Elem>, LiftError> {
        let guard = Guard::unarmed();
        let (workers, alone) = batch_workers(points.len());
        let outcomes = fanout::run(points.len(), workers, |i| {
            let (n, weights) = &points[i];
            self.count_in_guarded_point(*n, algebra, weights, alone, &guard)
        });
        outcomes
            .into_iter()
            .map(|outcome| {
                outcome
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                    .map(|counted| counted.value)
                    .map_err(demote)
            })
            .collect()
    }

    /// [`probability`](Self::probability) in an arbitrary [`Algebra`] with
    /// division (e.g. [`wfomc_logic::algebra::LogF64`] for serving-speed
    /// marginals): `WFOMC(Φ) / WFOMC(true)` under the given weights.
    ///
    /// Fails with [`LiftError::NoProbabilityNormalization`] when the
    /// normalization constant is zero or the algebra cannot divide by it
    /// (e.g. a non-constant polynomial in the [`wfomc_logic::algebra::Poly`]
    /// algebra that does not divide the numerator).
    pub fn probability_in<A: Algebra>(
        &self,
        n: usize,
        algebra: &A,
        weights: &AlgebraWeights<A>,
    ) -> Result<A::Elem, LiftError> {
        let count = self.count_in(n, algebra, weights)?;
        let normalization = weights.wfomc_of_true(algebra, &self.vocabulary, n);
        algebra.try_div(&count, &normalization).ok_or_else(|| {
            LiftError::NoProbabilityNormalization {
                predicate: "<vocabulary>".to_string(),
            }
        })
    }

    /// One grounded evaluation in an arbitrary algebra under a resource
    /// [`Guard`] — the path of every grounded count. The lineage is cached
    /// per domain size and compiled once to a d-DNNF (publishing only
    /// *completed* circuits), so repeated counts cost one linear circuit
    /// pass each and compiling once serves every ring. Grounding and
    /// compilation honor the guard's deadline, work cap, memory-estimate
    /// cap and cancellation; the circuit pass itself is unmetered.
    fn ground_count_in_guarded<A: Algebra>(
        &self,
        n: usize,
        algebra: &A,
        weights: &AlgebraWeights<A>,
        guard: &Guard,
    ) -> Result<Counted<A::Elem>, SolveError> {
        // Fail fast on an expired budget even when everything below is
        // cached, so the degradation stages honor their sub-budgets the
        // same way `count_in_planned` honors the solve budget.
        guard.check("plan.ground")?;
        let instance = self.ground_instance_guarded(n, guard)?;
        // `OnceLock::get_or_init` cannot carry the interrupt out, so compile
        // first and publish only a *completed* circuit; a concurrent winner's
        // circuit is identical, so dropping the loser is just wasted work,
        // never wrong.
        let compiled = match instance.compiled.get() {
            Some(compiled) => compiled,
            None => {
                let built =
                    CompiledWfomc::from_lineage_guarded(Arc::clone(&instance.lineage), guard)?;
                instance.compiled.get_or_init(|| built)
            }
        };
        Ok(Counted::ground(
            compiled.wfomc_in(algebra, weights),
            WmcBackend::Circuit,
        ))
    }
}

/// The human-readable output of [`Plan::explain`].
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// The method the plan selected.
    pub method: Method,
    /// One line per prepared-state fact.
    pub details: Vec<String>,
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan: {}", self.method)?;
        for line in &self.details {
            write!(f, "\n  {line}")?;
        }
        Ok(())
    }
}

/// A graceful-degradation chain for [`Plan::count_degraded`]: the planned
/// method first, then progressively simpler grounded backends, each under
/// its own sub-budget.
///
/// The default chain gives each stage the same limits:
///
/// ```
/// use std::time::Duration;
/// use wfomc_core::DegradePolicy;
/// use wfomc_guard::ExecutionLimits;
///
/// let per_stage = ExecutionLimits::none().with_deadline(Duration::from_millis(250));
/// let policy = DegradePolicy::uniform(per_stage);
/// assert_eq!(policy.circuit, Some(per_stage));
/// assert_eq!(policy.dpll, Some(per_stage));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Sub-budget for the plan's own (usually lifted) method.
    pub primary: ExecutionLimits,
    /// Sub-budget for the grounded d-DNNF stage; `None` skips the stage.
    pub circuit: Option<ExecutionLimits>,
    /// Sub-budget for the grounded DPLL stage; `None` skips the stage.
    pub dpll: Option<ExecutionLimits>,
}

impl DegradePolicy {
    /// The full chain with the same sub-budget per stage.
    pub fn uniform(limits: ExecutionLimits) -> DegradePolicy {
        DegradePolicy {
            primary: limits,
            circuit: Some(limits),
            dpll: Some(limits),
        }
    }

    /// Only the planned method, no fallback stages (equivalent to
    /// [`Plan::count_with_limits`]).
    pub fn primary_only(limits: ExecutionLimits) -> DegradePolicy {
        DegradePolicy {
            primary: limits,
            circuit: None,
            dpll: None,
        }
    }
}

/// A count in some algebra with what produced it: the value and the parts
/// of a [`SolverReport`] that depend on the method that ran.
struct Counted<E> {
    value: E,
    method: Method,
    /// The FO² engine's statistics, for FO² counts.
    fo2_stats: Option<Fo2Stats>,
    /// The propositional backend, for grounded counts.
    backend: Option<WmcBackend>,
}

impl<E> Counted<E> {
    /// A count by a lifted `method`.
    fn lifted(value: E, method: Method) -> Counted<E> {
        Counted {
            value,
            method,
            fo2_stats: None,
            backend: None,
        }
    }

    /// A grounded count computed by `backend`.
    fn ground(value: E, backend: WmcBackend) -> Counted<E> {
        Counted {
            backend: Some(backend),
            ..Counted::lifted(value, Method::Ground)
        }
    }
}

/// The weights with every pair the algebra scales ([`Algebra::pair_scale`])
/// replaced by `(d·w, d·w̄)`, and the scaled predicates with their `d`, or
/// `None` when no predicate of `vocabulary` scales. A count under the
/// scaled weights is the original count times `Π d^{n^arity}`.
#[allow(clippy::type_complexity)]
fn scale_pairs<'v, A: Algebra>(
    vocabulary: &'v Vocabulary,
    algebra: &A,
    weights: &AlgebraWeights<A>,
) -> Option<(AlgebraWeights<A>, Vec<(&'v Predicate, A::Elem)>)> {
    let mut scaled: Option<(AlgebraWeights<A>, Vec<_>)> = None;
    for p in vocabulary.iter() {
        let (pos, neg) = weights.pair_of(algebra, p);
        if let Some(d) = algebra.pair_scale(&pos, &neg) {
            let (weights, scales) = scaled.get_or_insert_with(|| (weights.clone(), Vec::new()));
            weights.set(p.name(), algebra.mul(&pos, &d), algebra.mul(&neg, &d));
            scales.push((p, d));
        }
    }
    scaled
}

/// The [`LimitsReport`] for a finished governed solve, or `None` when
/// nothing was armed (so ungoverned reports stay bit-identical to the
/// pre-governance ones).
fn limits_report(guard: &Guard, limits: &ExecutionLimits) -> Option<LimitsReport> {
    guard.is_armed().then(|| LimitsReport {
        deadline: limits.deadline,
        work_cap: limits.work_cap,
        work_done: guard.work_done(),
        elapsed: guard.elapsed(),
    })
}

/// Worker count for a batch of `len` points, and whether each point may fan
/// out internally: only a lone worker leaves the other cores idle.
fn batch_workers(len: usize) -> (usize, bool) {
    let workers = fanout::cores().min(len);
    (workers, workers <= 1)
}

/// One batch point's outcome with a contained panic reported as
/// [`SolveError::WorkerPanicked`]. Sound to contain because every plan
/// cache inserts only completed entries — an unwinding evaluation leaves
/// them consistent.
fn contained<R>(outcome: thread::Result<Result<R, SolveError>>) -> Result<R, SolveError> {
    outcome.unwrap_or_else(|payload| {
        Err(SolveError::WorkerPanicked {
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// True for the CQ reduction's error when a weight pair admits no tuple
/// probability — the one error a CQ point answers by grounding.
fn undefined_probabilities(e: &SolveError) -> bool {
    matches!(
        e,
        SolveError::Lift(LiftError::NoProbabilityNormalization { .. })
    )
}

/// The error returned when no lifted method applies and grounding is
/// disabled (identical to the one-shot solver's).
fn no_lifted_method() -> LiftError {
    LiftError::PatternMismatch {
        expected: "a sentence covered by a lifted algorithm (QS4, FO², γ-acyclic CQ)".to_string(),
    }
}

/// Predicates of `full` that `counted` does not cover.
fn extra_predicates(full: &Vocabulary, counted: &Vocabulary) -> Vec<Predicate> {
    full.iter()
        .filter(|p| !counted.contains(p.name()))
        .cloned()
        .collect()
}

/// `(w + w̄)^{n^arity}` for predicates a lifted method did not account for.
fn predicate_factor_in<A: Algebra>(
    extra: &[Predicate],
    n: usize,
    algebra: &A,
    weights: &AlgebraWeights<A>,
) -> A::Elem {
    let mut factor = algebra.one();
    for p in extra {
        let total = weights.total(algebra, p.name());
        algebra.mul_assign(&mut factor, &algebra.pow(&total, p.num_ground_tuples(n)));
    }
    factor
}

// ---- Snapshot codec (wfomc-snap/v2) ---------------------------------------
//
// A plan serializes to a flat payload covering everything `Solver::plan`
// computes plus the mutable caches worth keeping across restarts: the FO²
// prepared state (via `Fo2Prepared::snap_encode`), the ground lineage cache,
// and each cached grounding's compiled d-DNNF circuit. State that is cheap
// and deterministic to recompute — QS4 extras, the CQ query recognition, the
// Tseitin transform — is re-derived on decode instead of persisted, which
// keeps the format small and leaves fewer invariants to re-validate.

/// Format tags for [`PlanState`], stable across releases of the format.
const SNAP_STATE_QS4: u8 = 0;
const SNAP_STATE_FO2: u8 = 1;
const SNAP_STATE_CQ: u8 = 2;
const SNAP_STATE_GROUND: u8 = 3;

/// The reserved backend byte: encode writes 2 (Circuit); decode accepts
/// 0 (Enumerate), 1 (Dpll) and 2 and ignores the value, because every
/// grounded count compiles.
const SNAP_BACKEND_CIRCUIT: u8 = 2;

fn snap_encode_vocabulary(enc: &mut snap::Enc, vocabulary: &Vocabulary) {
    enc.usize(vocabulary.len());
    for p in vocabulary.iter() {
        snap::encode_predicate(enc, p);
    }
}

fn snap_decode_vocabulary(dec: &mut snap::Dec<'_>) -> snap::SnapResult<Vocabulary> {
    let n = dec.len()?;
    let mut out = Vocabulary::new();
    for _ in 0..n {
        let p = snap::decode_predicate(dec)?;
        // `Vocabulary::add` panics on conflicting arities; reject the
        // corruption gracefully instead.
        if let Some(existing) = out.iter().find(|q| q.name() == p.name()) {
            if existing.arity() != p.arity() {
                return Err(snap::SnapError::new(format!(
                    "predicate {} has conflicting arities",
                    p.name()
                )));
            }
        }
        out.add(p);
    }
    Ok(out)
}

/// Encodes a propositional formula as a postfix op stream: children are
/// emitted before their operator, so decode is a simple stack machine that
/// rebuilds the *raw* enum variants (no smart-constructor simplification —
/// the formula must round-trip bit-identically).
fn snap_encode_prop(enc: &mut snap::Enc, f: &PropFormula) {
    enc.usize(f.size());
    let mut stack: Vec<(&PropFormula, bool)> = vec![(f, false)];
    while let Some((node, children_done)) = stack.pop() {
        if children_done {
            match node {
                PropFormula::Not(_) => enc.u8(3),
                PropFormula::And(gs) => {
                    enc.u8(4);
                    enc.usize(gs.len());
                }
                PropFormula::Or(gs) => {
                    enc.u8(5);
                    enc.usize(gs.len());
                }
                _ => unreachable!("only connectives are re-visited"),
            }
            continue;
        }
        match node {
            PropFormula::Top => enc.u8(0),
            PropFormula::Bottom => enc.u8(1),
            PropFormula::Var(v) => {
                enc.u8(2);
                enc.usize(*v);
            }
            PropFormula::Not(g) => {
                stack.push((node, true));
                stack.push((g, false));
            }
            PropFormula::And(gs) | PropFormula::Or(gs) => {
                stack.push((node, true));
                for g in gs.iter().rev() {
                    stack.push((g, false));
                }
            }
        }
    }
}

fn snap_decode_prop(dec: &mut snap::Dec<'_>) -> snap::SnapResult<PropFormula> {
    let ops = dec.len()?;
    let mut stack: Vec<PropFormula> = Vec::new();
    for _ in 0..ops {
        match dec.u8()? {
            0 => stack.push(PropFormula::Top),
            1 => stack.push(PropFormula::Bottom),
            2 => stack.push(PropFormula::Var(dec.usize()?)),
            3 => {
                let g = stack
                    .pop()
                    .ok_or_else(|| snap::SnapError::new("negation with empty stack"))?;
                stack.push(PropFormula::Not(Box::new(g)));
            }
            tag @ (4 | 5) => {
                let len = dec.usize()?;
                if len > stack.len() {
                    return Err(snap::SnapError::new("connective arity exceeds stack"));
                }
                let args = stack.split_off(stack.len() - len);
                stack.push(if tag == 4 {
                    PropFormula::And(args)
                } else {
                    PropFormula::Or(args)
                });
            }
            other => {
                return Err(snap::SnapError::new(format!(
                    "unknown prop formula tag {other}"
                )))
            }
        }
    }
    if stack.len() == 1 {
        Ok(stack.pop().expect("checked length"))
    } else {
        Err(snap::SnapError::new("prop formula stack not a singleton"))
    }
}

fn snap_encode_lineage(enc: &mut snap::Enc, lineage: &Lineage) {
    enc.usize(lineage.domain_size);
    enc.usize(lineage.atoms.len());
    for atom in &lineage.atoms {
        enc.str(&atom.predicate);
        enc.usize(atom.tuple.len());
        for &i in &atom.tuple {
            enc.usize(i);
        }
    }
    snap_encode_prop(enc, &lineage.prop);
}

fn snap_decode_lineage(dec: &mut snap::Dec<'_>) -> snap::SnapResult<Lineage> {
    let domain_size = dec.usize()?;
    let num_atoms = dec.len()?;
    let mut atoms = Vec::with_capacity(num_atoms);
    for _ in 0..num_atoms {
        let predicate = dec.str()?;
        let arity = dec.len()?;
        let mut tuple = Vec::with_capacity(arity);
        for _ in 0..arity {
            tuple.push(dec.usize()?);
        }
        atoms.push(wfomc_ground::GroundAtom { predicate, tuple });
    }
    let prop = snap_decode_prop(dec)?;
    if prop.num_vars() > atoms.len() {
        return Err(snap::SnapError::new(
            "lineage formula mentions variables beyond its atoms",
        ));
    }
    Ok(Lineage {
        prop,
        atoms,
        domain_size,
    })
}

fn snap_encode_compiled(enc: &mut snap::Enc, compiled: &CompiledWfomc) {
    use wfomc_circuit::Node;
    let inner = compiled.compiled().inner();
    let circuit = inner.circuit();
    enc.usize(circuit.len());
    for node in circuit.nodes() {
        match node {
            Node::False => enc.u8(0),
            Node::True => enc.u8(1),
            Node::Lit(lit) => {
                enc.u8(2);
                enc.usize(lit.var);
                enc.bool(lit.positive);
            }
            Node::And(children) => {
                enc.u8(3);
                enc.usize(children.len());
                for child in children.iter() {
                    enc.u32(child.0);
                }
            }
            Node::Decision { var, hi, lo } => {
                enc.u8(4);
                enc.usize(*var);
                enc.u32(hi.0);
                enc.u32(lo.0);
            }
        }
    }
    enc.u32(inner.root().0);
    enc.usize(inner.num_vars());
    let stats = inner.stats();
    enc.usize(stats.nodes);
    enc.usize(stats.edges);
    enc.usize(stats.decisions);
    enc.usize(stats.cache_hits);
}

fn snap_decode_compiled(
    dec: &mut snap::Dec<'_>,
    lineage: &Arc<Lineage>,
) -> snap::SnapResult<CompiledWfomc> {
    use wfomc_circuit::{CLit, Circuit, CompileStats, CompiledCnf, Node, NodeId};
    let num_nodes = dec.len()?;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        nodes.push(match dec.u8()? {
            0 => Node::False,
            1 => Node::True,
            2 => {
                let var = dec.usize()?;
                let positive = dec.bool()?;
                Node::Lit(CLit { var, positive })
            }
            3 => {
                let len = dec.len()?;
                let mut children = Vec::with_capacity(len);
                for _ in 0..len {
                    children.push(NodeId(dec.u32()?));
                }
                Node::And(children.into_boxed_slice())
            }
            4 => {
                let var = dec.usize()?;
                let hi = NodeId(dec.u32()?);
                let lo = NodeId(dec.u32()?);
                Node::Decision { var, hi, lo }
            }
            other => {
                return Err(snap::SnapError::new(format!(
                    "unknown circuit node tag {other}"
                )))
            }
        });
    }
    let root = NodeId(dec.u32()?);
    let num_vars = dec.usize()?;
    let stats = CompileStats {
        nodes: dec.usize()?,
        edges: dec.usize()?,
        decisions: dec.usize()?,
        cache_hits: dec.usize()?,
    };
    let circuit = Circuit::from_nodes(nodes)
        .ok_or_else(|| snap::SnapError::new("circuit arena violates d-DNNF invariants"))?;
    let inner = CompiledCnf::from_parts(circuit, root, num_vars, stats)
        .ok_or_else(|| snap::SnapError::new("compiled circuit parts are inconsistent"))?;
    CompiledWfomc::from_parts(
        Arc::clone(lineage),
        wfomc_prop::counter::CompiledWmc::from_inner(inner),
    )
    .ok_or_else(|| snap::SnapError::new("circuit does not match its lineage"))
}

impl Plan {
    /// Serializes the plan's full prepared state — analysis plus the ground
    /// lineage cache and any compiled circuits — as a `wfomc-snap/v2`
    /// payload. The inverse is [`snap_decode`](Self::snap_decode); the
    /// weight-binding LRU and cache hit counters are not persisted (they
    /// restart cold, like a fresh plan).
    pub fn snap_encode(&self) -> Vec<u8> {
        let mut enc = snap::Enc::new();
        snap::encode_formula(&mut enc, &self.sentence);
        snap_encode_vocabulary(&mut enc, &self.vocabulary);
        snap::encode_weights(&mut enc, &self.default_weights);
        enc.bool(self.solver.allow_ground_fallback);
        enc.u8(SNAP_BACKEND_CIRCUIT);
        enc.bool(self.solver.use_lifted);
        match self.solver.ground_cache_capacity {
            Some(capacity) => {
                enc.bool(true);
                enc.usize(capacity);
            }
            None => enc.bool(false),
        }
        match &self.state {
            PlanState::Qs4 { .. } => enc.u8(SNAP_STATE_QS4),
            PlanState::Fo2(prepared) => {
                enc.u8(SNAP_STATE_FO2);
                prepared.snap_encode(&mut enc);
            }
            PlanState::Cq { .. } => enc.u8(SNAP_STATE_CQ),
            PlanState::Ground => enc.u8(SNAP_STATE_GROUND),
        }
        // Ground cache entries in LRU order (oldest first), so decode can
        // reassign fresh stamps without disturbing eviction behavior.
        let cache = self.ground.instances.lock().expect("ground cache poisoned");
        let mut entries: Vec<_> = cache.map.iter().collect();
        entries.sort_by_key(|(_, (_, stamp))| *stamp);
        enc.usize(entries.len());
        for (&n, (instance, _)) in entries {
            enc.usize(n);
            snap_encode_lineage(&mut enc, &instance.lineage);
            match instance.compiled.get() {
                Some(compiled) => {
                    enc.bool(true);
                    snap_encode_compiled(&mut enc, compiled);
                }
                None => enc.bool(false),
            }
        }
        drop(cache);
        enc.into_bytes()
    }

    /// Rebuilds a plan from a [`snap_encode`](Self::snap_encode) payload.
    ///
    /// Analysis state that is deterministic given the sentence (QS4 extras,
    /// CQ recognition, Tseitin CNFs) is recomputed; everything else is
    /// validated structurally as it is read. Any inconsistency — truncation,
    /// unknown tags, broken circuit invariants — yields an error, never a
    /// panic or a wrong plan, so callers can always fall back to replanning.
    pub fn snap_decode(bytes: &[u8]) -> Result<Plan, snap::SnapError> {
        let mut dec = snap::Dec::new(bytes);
        let sentence = snap::decode_formula(&mut dec)?;
        if !sentence.is_sentence() {
            return Err(snap::SnapError::new("payload formula is not a sentence"));
        }
        let vocabulary = snap_decode_vocabulary(&mut dec)?;
        if !sentence.vocabulary().is_subvocabulary_of(&vocabulary) {
            return Err(snap::SnapError::new(
                "vocabulary does not cover the sentence",
            ));
        }
        let default_weights = snap::decode_weights(&mut dec)?;
        let allow_ground_fallback = dec.bool()?;
        let backend = dec.u8()?;
        if backend > SNAP_BACKEND_CIRCUIT {
            return Err(snap::SnapError::new(format!(
                "unknown backend tag {backend}"
            )));
        }
        let use_lifted = dec.bool()?;
        let ground_cache_capacity = if dec.bool()? {
            Some(dec.usize()?)
        } else {
            None
        };
        let solver = Solver {
            allow_ground_fallback,
            use_lifted,
            ground_cache_capacity,
        };
        let state = match dec.u8()? {
            SNAP_STATE_QS4 => {
                if !is_qs4(&sentence) {
                    return Err(snap::SnapError::new("sentence is not QS4"));
                }
                PlanState::Qs4 {
                    extra: extra_predicates(&vocabulary, &sentence.vocabulary()),
                }
            }
            SNAP_STATE_FO2 => PlanState::Fo2(Fo2Prepared::snap_decode(&mut dec)?),
            SNAP_STATE_CQ => {
                let query = ConjunctiveQuery::from_formula(&sentence)
                    .ok_or_else(|| snap::SnapError::new("sentence is not a CQ"))?;
                let extra = extra_predicates(&vocabulary, &query.vocabulary());
                PlanState::Cq {
                    query,
                    extra,
                    memo: Mutex::new(CqMemo::default()),
                }
            }
            SNAP_STATE_GROUND => PlanState::Ground,
            other => {
                return Err(snap::SnapError::new(format!(
                    "unknown plan state tag {other}"
                )))
            }
        };
        let num_cached = dec.len()?;
        let mut cache = GroundCache::default();
        for _ in 0..num_cached {
            let n = dec.usize()?;
            let lineage = Arc::new(snap_decode_lineage(&mut dec)?);
            if lineage.domain_size != n {
                return Err(snap::SnapError::new("cached lineage at the wrong key"));
            }
            let compiled = OnceLock::new();
            if dec.bool()? {
                let circuit = snap_decode_compiled(&mut dec, &lineage)?;
                let _ = compiled.set(circuit);
            }
            cache.clock += 1;
            let stamp = cache.clock;
            cache
                .map
                .insert(n, (Arc::new(GroundInstance { lineage, compiled }), stamp));
        }
        dec.finish()?;
        Ok(Plan {
            sentence,
            vocabulary,
            default_weights,
            solver,
            state,
            ground: GroundPrep {
                instances: Mutex::new(cache),
            },
        })
    }

    /// A cheap fingerprint of the plan's mutable snapshot-relevant state:
    /// the number of cached groundings and how many of them carry a
    /// compiled circuit. A snapshot written at stamp `s` is *dirty* once the
    /// live plan's stamp differs — the serve layer uses this to decide which
    /// plans to rewrite on graceful shutdown.
    pub fn snap_stamp(&self) -> u64 {
        let cache = self.ground.instances.lock().expect("ground cache poisoned");
        let compiled = cache
            .map
            .values()
            .filter(|(instance, _)| instance.compiled.get().is_some())
            .count() as u64;
        ((cache.map.len() as u64) << 32) | compiled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_traits::One;
    use proptest::prelude::*;
    use wfomc_logic::catalog;
    use wfomc_logic::weights::{weight_int, weight_ratio, Weight};

    /// The four-method workload: one sentence per dispatch target, with the
    /// largest domain size the test should use for it.
    fn four_methods() -> Vec<(Formula, Method, usize)> {
        vec![
            (catalog::qs4(), Method::Qs4, 4),
            (catalog::table1_sentence(), Method::Fo2, 4),
            (
                catalog::chain_query(3).to_formula(),
                Method::GammaAcyclicCq,
                2,
            ),
            (catalog::transitivity(), Method::Ground, 2),
        ]
    }

    #[test]
    fn plan_selects_the_one_shot_method() {
        let solver = Solver::new();
        for (sentence, method, n) in four_methods() {
            let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
            assert_eq!(plan.method(), method, "plan method for {sentence}");
            let one_shot = solver.fomc(&sentence, n).unwrap();
            assert_eq!(one_shot.method, method, "one-shot method for {sentence}");
        }
    }

    #[test]
    fn plan_count_matches_one_shot_across_n() {
        let solver = Solver::new();
        for (sentence, _, max_n) in four_methods() {
            let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
            for n in 0..=max_n {
                let planned = plan.count(n, &Weights::ones()).unwrap();
                let one_shot = solver.fomc(&sentence, n).unwrap();
                assert_eq!(planned.value, one_shot.value, "{sentence} at n={n}");
                if n > 0 {
                    assert_eq!(planned.method, one_shot.method, "{sentence} at n={n}");
                }
            }
        }
    }

    #[test]
    fn one_plan_serves_many_weight_functions() {
        let solver = Solver::new();
        let weight_sets = [
            Weights::ones(),
            Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1)]),
            Weights::from_ints([("R", 0, 1), ("S", -1, 2), ("T", 2, 2)]),
            Weights::from_ints([("R", 1, -1), ("S", 2, 1), ("T", 1, 1)]),
        ];
        for (sentence, _, max_n) in four_methods() {
            let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
            for weights in &weight_sets {
                for n in 0..=max_n {
                    let planned = plan.count(n, weights).unwrap();
                    let one_shot = solver
                        .wfomc(&sentence, &sentence.vocabulary(), n, weights)
                        .unwrap();
                    assert_eq!(planned.value, one_shot.value, "{sentence} at n={n}");
                    if n > 0 {
                        assert_eq!(planned.method, one_shot.method, "{sentence} at n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn count_batch_matches_sequential_counts_in_order() {
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let points: Vec<(usize, Weights)> = (0..=6)
            .map(|n| (n, Weights::from_ints([("R", n as i64, 1)])))
            .collect();
        let batch = plan.count_batch_results(&points);
        assert_eq!(batch.len(), points.len());
        for (report, (n, w)) in batch.iter().zip(&points) {
            assert_eq!(
                report.as_ref().unwrap().value,
                plan.count(*n, w).unwrap().value,
                "n = {n}"
            );
        }
    }

    #[test]
    fn count_batch_log_mixed_n_falls_back_and_matches_scalar() {
        use wfomc_logic::algebra::LogF64;
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        // Mixed domain sizes force the per-point fallback path.
        let points: Vec<(usize, Weights)> = (0..=5)
            .map(|n| (n, Weights::from_ints([("R", n as i64 - 2, 1)])))
            .collect();
        let batch = plan.count_batch_log(&points);
        assert_eq!(batch.len(), points.len());
        for (i, ((n, w), lane)) in points.iter().zip(&batch).enumerate() {
            let scalar = plan
                .count_in(*n, &LogF64, &AlgebraWeights::lift(&LogF64, w))
                .unwrap();
            let lane = lane.as_ref().expect("mixed-n point");
            assert_eq!(lane.signum(), scalar.signum(), "point {i}");
            assert_eq!(
                lane.ln_abs().to_bits(),
                scalar.ln_abs().to_bits(),
                "point {i}"
            );
        }
        assert!(plan.count_batch_log(&[]).is_empty());
    }

    /// Mixed-n log batches count each point on one thread, while a lone
    /// `count_in` may split its cell sum over every core: the bits agree at
    /// domain sizes large enough for that split (table1 from n = 9 on).
    #[test]
    fn count_batch_log_mixed_n_is_bit_identical_to_count_in_at_large_n() {
        use wfomc_logic::algebra::LogF64;
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let points: Vec<(usize, Weights)> = (6..14)
            .map(|n| {
                (
                    n,
                    Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", n as i64 - 9, 2)]),
                )
            })
            .collect();
        let batch = plan.count_batch_log(&points);
        for ((n, w), lane) in points.iter().zip(&batch) {
            let scalar = plan
                .count_in(*n, &LogF64, &AlgebraWeights::lift(&LogF64, w))
                .unwrap();
            let lane = lane.as_ref().expect("mixed-n point");
            assert_eq!(lane.signum(), scalar.signum(), "n = {n}");
            assert_eq!(
                lane.ln_abs().to_bits(),
                scalar.ln_abs().to_bits(),
                "n = {n}"
            );
        }
    }

    /// On the empty domain the structures differ only in their nullary
    /// atoms. Exact, log and log-batch counts of an FO² plan sum over their
    /// truth assignments, like enumeration does.
    #[test]
    fn fo2_plans_count_the_empty_domain_over_nullary_predicates() {
        use wfomc_ground::brute_force_wfomc;
        use wfomc_logic::algebra::LogF64;
        use wfomc_logic::builders::{atom, forall, not, or};

        let p = || atom("P", &[]);
        let r = || atom("R", &["x"]);
        let p_weights = Weights::from_ints([("P", 3, 5)]);
        let cases = [
            (p(), Vocabulary::default(), p_weights.clone(), 3),
            (not(p()), Vocabulary::default(), p_weights.clone(), 5),
            (
                forall(["x"], or(vec![p(), r()])),
                Vocabulary::default(),
                p_weights,
                8,
            ),
            (
                forall(["x"], r()),
                Vocabulary::from_pairs([("Q", 0)]),
                Weights::from_ints([("Q", 2, 3)]),
                5,
            ),
        ];
        for (sentence, extra, weights, expected) in cases {
            let vocabulary = extra.extended_with(&sentence.vocabulary());
            let truth = brute_force_wfomc(&sentence, &vocabulary, 0, &weights);
            assert_eq!(truth, weight_int(expected), "{sentence}");
            let plan = Problem::new(sentence.clone())
                .with_vocabulary(vocabulary)
                .plan()
                .unwrap();
            assert_eq!(plan.method(), Method::Fo2, "{sentence}");
            assert_eq!(plan.count(0, &weights).unwrap().value, truth, "{sentence}");
            let want = LogF64.from_weight(&truth);
            let log = plan
                .count_in(0, &LogF64, &AlgebraWeights::lift(&LogF64, &weights))
                .unwrap();
            let batch = plan.count_batch_log(&[(0, weights.clone()), (0, Weights::ones())]);
            for got in [log, batch[0].clone().unwrap()] {
                assert_eq!(got.signum(), want.signum(), "{sentence}: {got}");
                assert!(
                    (got.ln_abs() - want.ln_abs()).abs() < 1e-12,
                    "{sentence}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn count_batch_log_with_limits_reports_exhaustion_per_point() {
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let points: Vec<(usize, Weights)> = (0..12).map(|_| (6, Weights::ones())).collect();
        let expired = ExecutionLimits::none().with_deadline(std::time::Duration::ZERO);
        let results = plan.count_batch_log_with_limits(&points, &expired, None);
        assert_eq!(results.len(), points.len());
        for result in &results {
            assert!(
                matches!(result, Err(e) if e.is_exhaustion()),
                "expired budget must exhaust every lane point"
            );
        }
        // The plan stays reusable after an exhausted lane batch.
        assert!(plan.count_batch_log(&points).iter().all(Result::is_ok));
    }

    #[test]
    fn cq_plans_fall_back_to_ground_on_zero_total_weights() {
        let sentence = catalog::chain_query(2).to_formula();
        let solver = Solver::new();
        let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
        assert_eq!(plan.method(), Method::GammaAcyclicCq);
        // Skolem-style weights make tuple probabilities undefined; both the
        // plan and the one-shot dispatch must ground instead.
        let weights = Weights::from_ints([("R1", 1, -1)]);
        let planned = plan.count(2, &weights).unwrap();
        let one_shot = solver
            .wfomc(&sentence, &sentence.vocabulary(), 2, &weights)
            .unwrap();
        assert_eq!(planned.method, Method::Ground);
        assert_eq!(one_shot.method, Method::Ground);
        assert_eq!(planned.value, one_shot.value);
    }

    #[test]
    fn ground_plan_reuses_one_circuit_per_domain_size() {
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        let w1 = Weights::from_ints([("E", 2, 1)]);
        let w2 = Weights::from_ints([("E", 1, 3)]);
        let a = plan.count(2, &w1).unwrap();
        let b = plan.count(2, &w2).unwrap();
        assert_eq!(a.backend, Some(WmcBackend::Circuit));
        assert_eq!(
            a.value,
            Solver::builder()
                .lifted(false)
                .build()
                .wfomc(
                    &catalog::transitivity(),
                    &catalog::transitivity().vocabulary(),
                    2,
                    &w1
                )
                .unwrap()
                .value
        );
        assert_eq!(
            b.value,
            Solver::builder()
                .lifted(false)
                .build()
                .wfomc(
                    &catalog::transitivity(),
                    &catalog::transitivity().vocabulary(),
                    2,
                    &w2
                )
                .unwrap()
                .value
        );
        assert_eq!(plan.snap_stamp(), (1 << 32) | 1, "one compiled grounding");
        let explain = plan.explain().to_string();
        assert!(explain.contains("grounded-wmc"), "{explain}");
        assert!(explain.contains("compiles one d-DNNF"), "{explain}");
        assert!(explain.contains("1 grounding(s) cached"), "{explain}");
    }

    #[test]
    fn plan_probability_matches_solver_probability() {
        let sentence = catalog::exists_unary();
        let voc = sentence.vocabulary();
        let mut weights = Weights::ones();
        weights.set_probability("S", weight_ratio(1, 3));
        let problem = Problem::new(sentence.clone())
            .with_vocabulary(voc.clone())
            .with_weights(weights.clone());
        let plan = Solver::new().plan(&problem).unwrap();
        for n in 1..=3 {
            let planned = plan.probability(n).unwrap();
            let one_shot = Solver::new()
                .probability(&sentence, &voc, n, &weights)
                .unwrap();
            assert_eq!(planned.value, one_shot.value, "n = {n}");
            assert_eq!(planned.method, one_shot.method, "n = {n}");
        }
        assert_eq!(plan.probability(2).unwrap().value, weight_ratio(5, 9));
    }

    #[test]
    fn lifted_only_plans_error_at_plan_time() {
        let solver = Solver::builder().ground_fallback(false).build();
        let err = solver
            .plan(&Problem::new(catalog::transitivity()))
            .unwrap_err();
        assert!(matches!(err, LiftError::PatternMismatch { .. }));
        // But FO² sentences still plan fine.
        assert!(solver
            .plan(&Problem::new(catalog::table1_sentence()))
            .is_ok());
    }

    #[test]
    fn open_formulas_are_rejected_at_plan_time() {
        let open = wfomc_logic::builders::atom("R", &["x"]);
        assert!(matches!(
            Problem::new(open).plan(),
            Err(LiftError::NotASentence)
        ));
    }

    #[test]
    fn extra_vocabulary_predicates_multiply_through_plans() {
        let problem = Problem::new(catalog::qs4())
            .with_vocabulary(Vocabulary::from_pairs([("S", 2), ("Unused", 1)]));
        let plan = problem.plan().unwrap();
        // 14 · 2² (for the unused unary predicate).
        assert_eq!(
            plan.count(2, &Weights::ones()).unwrap().value,
            weight_int(56)
        );
    }

    #[test]
    fn explain_mentions_the_prepared_state() {
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let report = plan.explain();
        assert_eq!(report.method, Method::Fo2);
        let text = report.to_string();
        assert!(text.contains("fo2-cells"), "{text}");
        assert!(text.contains("7 valid cells in 4 row classes"), "{text}");

        let cq = Problem::new(catalog::chain_query(3).to_formula())
            .plan()
            .unwrap();
        assert!(cq.explain().to_string().contains("γ-acyclic"), "cq explain");
    }

    #[test]
    fn count_in_matches_exact_across_all_methods() {
        use wfomc_logic::algebra::{Algebra, AlgebraWeights, Exact, LogF64, Poly};

        let solver = Solver::new();
        let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1), ("R1", 2, 1)]);
        for (sentence, method, max_n) in four_methods() {
            let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
            for n in 0..=max_n {
                let exact = plan.count(n, &weights).unwrap().value;
                // Exact algebra through the generic entry point.
                let generic = plan
                    .count_in(n, &Exact, &AlgebraWeights::lift(&Exact, &weights))
                    .unwrap();
                assert_eq!(exact, generic, "{sentence} ({method:?}) at n={n}");
                // Log-space floats track the exact value.
                let log = plan
                    .count_in(n, &LogF64, &AlgebraWeights::lift(&LogF64, &weights))
                    .unwrap();
                let expected = LogF64.from_weight(&exact);
                assert_eq!(log.signum(), expected.signum(), "{sentence} at n={n}");
                if !exact.is_zero() {
                    assert!(
                        (log.ln_abs() - expected.ln_abs()).abs() < 1e-9,
                        "{sentence} at n={n}"
                    );
                }
                // Constant polynomials give a degree-0 polynomial.
                let poly = plan
                    .count_in(n, &Poly, &AlgebraWeights::lift(&Poly, &weights))
                    .unwrap();
                assert_eq!(poly.coeff(0), exact, "{sentence} at n={n}");
            }
        }
    }

    /// `count` is the `Exact` instance of `count_in`: same value under
    /// rational, zero and negative weights for every method, and the same
    /// FO² binding (the exact count after `count` hits the LRU).
    #[test]
    fn count_in_exact_is_count_under_rational_zero_and_negative_weights() {
        use wfomc_logic::algebra::Exact;

        let weight_sets = [
            Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1), ("E", 3, 2)]),
            {
                let mut w = Weights::ones();
                for (name, (a, b), (c, d)) in [
                    ("R", (1, 2), (2, 3)),
                    ("S", (-3, 4), (5, 6)),
                    ("T", (0, 1), (7, 9)),
                    ("E", (2, 5), (-1, 10)),
                    ("R1", (1, 3), (1, 6)),
                    ("R2", (-2, 7), (3, 7)),
                ] {
                    w.set(name, weight_ratio(a, b), weight_ratio(c, d));
                }
                w
            },
        ];
        for (sentence, method, max_n) in four_methods() {
            let plan = Problem::new(sentence.clone()).plan().unwrap();
            for weights in &weight_sets {
                for n in 0..=max_n {
                    let report = plan.count(n, weights).unwrap();
                    let hits = plan.cache_stats().fo2_bind_hits;
                    let generic = plan
                        .count_in(n, &Exact, &AlgebraWeights::lift(&Exact, weights))
                        .unwrap();
                    assert_eq!(generic, report.value, "{sentence} ({method:?}) at n={n}");
                    if method == Method::Fo2 && n > 0 {
                        assert_eq!(plan.cache_stats().fo2_bind_hits, hits + 1, "n = {n}");
                    }
                }
            }
        }
    }

    /// Log-space counts bind through the plan's LRU too: a repeated
    /// `count_in(&LogF64, w)` reuses the binding of the first.
    #[test]
    fn repeated_log_counts_hit_the_binding_lru() {
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let weights = AlgebraWeights::lift(&LogF64, &Weights::from_ints([("R", 2, 1)]));
        let first = plan.count_in(6, &LogF64, &weights).unwrap();
        let hits = plan.cache_stats().fo2_bind_hits;
        let second = plan.count_in(6, &LogF64, &weights).unwrap();
        assert_eq!(plan.cache_stats().fo2_bind_hits, hits + 1);
        assert_eq!(first, second);
    }

    /// The CQ memo keeps at most a fixed number of tables per algebra, so
    /// counting under ever new weight functions does not grow it.
    #[test]
    fn cq_memo_stays_bounded_under_distinct_weights() {
        let plan = Problem::new(catalog::chain_query(3).to_formula())
            .plan()
            .unwrap();
        assert_eq!(plan.method(), Method::GammaAcyclicCq);
        let count = |i: i64| {
            plan.count(3, &Weights::from_ints([("R1", i + 1, 1), ("R2", 1, i + 2)]))
                .unwrap()
        };
        let per_table = count(0).cache.unwrap().cq_memo_len;
        assert!(per_table > 0);
        for i in 1..100 {
            let report = count(i);
            assert_eq!(report.method, Method::GammaAcyclicCq);
            let len = report.cache.unwrap().cq_memo_len;
            assert!(len <= 8 * per_table, "count {i}: {len} memoized shapes");
        }
    }

    #[test]
    fn count_batch_in_matches_count_in() {
        use wfomc_logic::algebra::{AlgebraWeights, Poly};
        use wfomc_logic::poly::Polynomial;

        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        // Polynomial weight sweeps: R's weight is the indeterminate.
        let points: Vec<(usize, AlgebraWeights<Poly>)> = (0..=5)
            .map(|n| {
                let mut w = AlgebraWeights::lift(&Poly, &Weights::ones());
                w.set("R", Polynomial::x(), Polynomial::one());
                (n, w)
            })
            .collect();
        let batch = plan.count_batch_in(&points, &Poly).unwrap();
        assert_eq!(batch.len(), points.len());
        for (result, (n, w)) in batch.iter().zip(&points) {
            assert_eq!(result, &plan.count_in(*n, &Poly, w).unwrap(), "n = {n}");
        }
        // The polynomial evaluated at a sample point matches an exact count
        // with that weight.
        let at_three = batch[4].eval(&weight_int(3));
        let exact = plan
            .count(4, &Weights::from_ints([("R", 3, 1)]))
            .unwrap()
            .value;
        assert_eq!(at_three, exact);
    }

    #[test]
    fn probability_in_divides_by_the_normalization() {
        use wfomc_logic::algebra::{AlgebraWeights, Exact, LogF64};

        let sentence = catalog::exists_unary();
        let mut weights = Weights::ones();
        weights.set_probability("S", weight_ratio(1, 3));
        let plan = Problem::new(sentence)
            .with_weights(weights.clone())
            .plan()
            .unwrap();
        let exact = plan
            .probability_in(2, &Exact, &AlgebraWeights::lift(&Exact, &weights))
            .unwrap();
        assert_eq!(exact, weight_ratio(5, 9));
        let log = plan
            .probability_in(2, &LogF64, &AlgebraWeights::lift(&LogF64, &weights))
            .unwrap();
        assert!((log.to_f64() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn cq_plans_run_lifted_under_generic_algebras() {
        use wfomc_logic::algebra::{AlgebraWeights, Exact, LogF64};

        let sentence = catalog::chain_query(3).to_formula();
        let plan = Solver::new().plan(&Problem::new(sentence.clone())).unwrap();
        assert_eq!(plan.method(), Method::GammaAcyclicCq);
        let weights = Weights::from_ints([("R1", 2, 1), ("R2", 1, 3)]);
        let exact = plan.count(2, &weights).unwrap().value;
        let generic = plan
            .count_in(2, &Exact, &AlgebraWeights::lift(&Exact, &weights))
            .unwrap();
        assert_eq!(exact, generic);
        let log = plan
            .count_in(2, &LogF64, &AlgebraWeights::lift(&LogF64, &weights))
            .unwrap();
        let expected = LogF64.from_weight(&exact);
        assert_eq!(log.signum(), expected.signum());
        assert!((log.ln_abs() - expected.ln_abs()).abs() < 1e-9);
        assert_eq!(plan.cache_stats().ground_misses, 0, "no point grounded");
        // Lifted-only solvers count too: these weights need no grounding.
        let lifted_only = Solver::builder().ground_fallback(false).build();
        let plan = lifted_only.plan(&Problem::new(sentence)).unwrap();
        assert_eq!(
            plan.count_in(2, &Exact, &AlgebraWeights::lift(&Exact, &weights))
                .unwrap(),
            exact
        );
    }

    #[test]
    fn ground_cache_capacity_bounds_and_evicts_lru() {
        let solver = Solver::builder().ground_cache_capacity(2).build();
        let plan = solver.plan(&Problem::new(catalog::transitivity())).unwrap();
        for n in [1usize, 2, 3] {
            let _ = plan.count(n, &Weights::ones()).unwrap();
        }
        assert_eq!(plan.ground.len(), 2, "capacity bounds the cache");
        // n = 1 was the least recently used, so it was evicted; touching
        // n = 3 then adding n = 1 must evict n = 2.
        let _ = plan.count(3, &Weights::ones()).unwrap();
        let _ = plan.count(1, &Weights::ones()).unwrap();
        assert_eq!(plan.ground.len(), 2);
        let cached: Vec<usize> = {
            let cache = plan.ground.instances.lock().unwrap();
            let mut keys: Vec<usize> = cache.map.keys().copied().collect();
            keys.sort_unstable();
            keys
        };
        assert_eq!(cached, vec![1, 3]);
        // Unbounded by default.
        let unbounded = Solver::new()
            .plan(&Problem::new(catalog::transitivity()))
            .unwrap();
        for n in [1usize, 2, 3] {
            let _ = unbounded.count(n, &Weights::ones()).unwrap();
        }
        assert_eq!(unbounded.ground.len(), 3);
    }

    #[test]
    fn cq_count_batch_merges_worker_memos() {
        let plan = Problem::new(catalog::chain_query(3).to_formula())
            .plan()
            .unwrap();
        assert_eq!(plan.method(), Method::GammaAcyclicCq);
        let points: Vec<(usize, Weights)> = (1..=6)
            .map(|n| (n, Weights::from_ints([("R1", n as i64, 1)])))
            .collect();
        let batch = plan.count_batch_results(&points);
        for (report, (n, w)) in batch.iter().zip(&points) {
            assert_eq!(
                report.as_ref().unwrap().value,
                plan.count(*n, w).unwrap().value,
                "n = {n}"
            );
        }
        // The workers' discoveries were folded back into the shared memo.
        let memo_len = match &plan.state {
            PlanState::Cq { memo, .. } => memo.lock().unwrap().len(),
            _ => unreachable!(),
        };
        assert!(memo_len > 0, "batch evaluation populates the shared memo");
    }

    #[test]
    fn unarmed_limits_report_nothing_and_match_plain_counts() {
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let plain = plan.count(4, &Weights::ones()).unwrap();
        let governed = plan
            .count_with_limits(4, &Weights::ones(), &ExecutionLimits::none(), None)
            .unwrap();
        assert_eq!(plain.value, governed.value);
        assert!(governed.limits.is_none(), "nothing armed, nothing reported");
        assert!(!governed.degraded);
    }

    #[test]
    fn armed_limits_are_reported_and_displayed() {
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let limits = ExecutionLimits::none()
            .with_deadline(std::time::Duration::from_secs(600))
            .with_work_cap(u64::MAX);
        let report = plan
            .count_with_limits(5, &Weights::ones(), &limits, None)
            .unwrap();
        let recorded = report.limits.expect("armed solves report their budget");
        assert_eq!(recorded.work_cap, Some(u64::MAX));
        assert!(recorded.deadline.is_some());
        let text = report.to_string();
        assert!(text.contains("limits"), "{text}");
        assert!(text.contains("work="), "{text}");
        assert!(text.contains("elapsed="), "{text}");
    }

    #[test]
    fn expired_deadline_interrupts_every_method_and_leaves_the_plan_reusable() {
        let expired = ExecutionLimits::none().with_deadline(std::time::Duration::ZERO);
        for (sentence, _, n) in four_methods() {
            let plan = Problem::new(sentence.clone()).plan().unwrap();
            let err = plan
                .count_with_limits(n, &Weights::ones(), &expired, None)
                .unwrap_err();
            assert!(
                matches!(err, SolveError::DeadlineExceeded { .. }),
                "{sentence}: {err}"
            );
            // Retrying without limits agrees with a fresh plan's solve.
            let retried = plan.count(n, &Weights::ones()).unwrap().value;
            let fresh = Problem::new(sentence.clone())
                .plan()
                .unwrap()
                .count(n, &Weights::ones())
                .unwrap()
                .value;
            assert_eq!(retried, fresh, "{sentence}");
        }
    }

    #[test]
    fn cancellation_interrupts_and_a_fresh_token_recovers() {
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = plan
            .count_with_limits(2, &Weights::ones(), &ExecutionLimits::none(), Some(token))
            .unwrap_err();
        assert!(matches!(err, SolveError::Cancelled { .. }), "{err}");
        // Same plan, fresh token: succeeds and matches the ungoverned count.
        let report = plan
            .count_with_limits(
                2,
                &Weights::ones(),
                &ExecutionLimits::none(),
                Some(CancelToken::new()),
            )
            .unwrap();
        assert_eq!(report.value, plan.count(2, &Weights::ones()).unwrap().value);
    }

    #[test]
    fn a_100ms_deadline_cuts_a_multi_second_workload_off_quickly() {
        // table1 at n = 30 runs ~2s uncapped under these weights, which
        // keep all seven cells distinct (under `Weights::ones()` the engine
        // merges interchangeable cells and finishes in milliseconds); the
        // acceptance bar is an error within 150ms of the 100ms deadline.
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 2, 2)]);
        let limits = ExecutionLimits::none().with_deadline(std::time::Duration::from_millis(100));
        let started = std::time::Instant::now();
        let result = plan.count_with_limits(30, &weights, &limits, None);
        let elapsed = started.elapsed();
        let err = result.expect_err("30-domain table1 cannot finish in 100ms");
        assert!(matches!(err, SolveError::DeadlineExceeded { .. }), "{err}");
        assert!(
            elapsed < std::time::Duration::from_millis(150),
            "deadline honored within 150ms, took {elapsed:?}"
        );
        // The interrupted plan still answers smaller points correctly.
        assert_eq!(
            plan.count(3, &Weights::ones()).unwrap().value,
            Problem::new(catalog::table1_sentence())
                .plan()
                .unwrap()
                .count(3, &Weights::ones())
                .unwrap()
                .value
        );
    }

    #[test]
    fn batch_under_a_shared_expired_deadline_fails_per_point_not_wholesale() {
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let points: Vec<(usize, Weights)> = (2..=5).map(|n| (n, Weights::ones())).collect();
        let expired = ExecutionLimits::none().with_deadline(std::time::Duration::ZERO);
        let results = plan.count_batch_with_limits(&points, &expired, None);
        assert_eq!(results.len(), points.len());
        for result in &results {
            let err = result.as_ref().unwrap_err();
            assert!(matches!(err, SolveError::DeadlineExceeded { .. }), "{err}");
        }
        // The batch pool being exhausted never corrupts the plan.
        let clean = plan.count_batch_results(&points);
        for (result, (n, w)) in clean.iter().zip(&points) {
            assert_eq!(
                result.as_ref().unwrap().value,
                plan.count(*n, w).unwrap().value
            );
        }
    }

    #[test]
    fn count_degraded_falls_back_to_ground_and_flags_the_report() {
        // Starve the lifted FO² method at a size it cannot finish instantly,
        // but give the grounded stages room at a small n: use a plan whose
        // primary deadline is already expired, so degradation is forced
        // deterministically.
        let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
        let policy = DegradePolicy {
            primary: ExecutionLimits::none().with_deadline(std::time::Duration::ZERO),
            circuit: Some(ExecutionLimits::none()),
            dpll: Some(ExecutionLimits::none()),
        };
        let report = plan
            .count_degraded(3, &Weights::ones(), &policy, None)
            .unwrap();
        assert!(report.degraded);
        assert_eq!(report.method, Method::Ground);
        assert_eq!(report.backend, Some(WmcBackend::Circuit));
        assert_eq!(report.value, plan.count(3, &Weights::ones()).unwrap().value);
        assert!(report.to_string().contains("degraded"));
        // When every stage is starved, the last stage's error surfaces.
        let starved = DegradePolicy::uniform(
            ExecutionLimits::none().with_deadline(std::time::Duration::ZERO),
        );
        let err = plan
            .count_degraded(3, &Weights::ones(), &starved, None)
            .unwrap_err();
        assert!(err.is_exhaustion(), "{err}");
        // A clean primary never degrades.
        let clean = plan
            .count_degraded(3, &Weights::ones(), &DegradePolicy::default(), None)
            .unwrap();
        assert!(!clean.degraded);
        assert_eq!(clean.method, Method::Fo2);
    }

    #[test]
    fn work_caps_stop_grounded_compilation_on_the_exact_and_log_batch_paths() {
        // Transitivity has no lifted method, so the plan grounds and
        // compiles. With the n = 4 lineage cached but no circuit yet, the
        // compilation is the only metered work left, and the same cap must
        // stop it whether the point is counted exactly or through a log
        // batch.
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        assert_eq!(plan.method(), Method::Ground);
        plan.ground_instance_guarded(4, &Guard::unarmed()).unwrap();
        let points = [(4, Weights::ones())];
        for cap in [1, 1024, 4096] {
            let limits = ExecutionLimits::none().with_work_cap(cap);
            let exact = plan
                .count_with_limits(4, &Weights::ones(), &limits, None)
                .unwrap_err();
            assert!(
                matches!(
                    exact,
                    SolveError::WorkCapExceeded {
                        phase: "circuit.compile",
                        ..
                    }
                ),
                "cap {cap}: {exact}"
            );
            let batch = plan.count_batch_log_with_limits(&points, &limits, None);
            assert!(
                matches!(
                    batch[0],
                    Err(SolveError::WorkCapExceeded {
                        phase: "circuit.compile",
                        ..
                    })
                ),
                "cap {cap}: {:?}",
                batch[0]
            );
        }
        assert_eq!(plan.snap_stamp(), 1 << 32, "no partial circuit is cached");
        let clean = plan.count(4, &Weights::ones()).unwrap().value;
        assert_eq!(
            clean,
            wfomc_ground::wfomc(
                &catalog::transitivity(),
                &catalog::transitivity().vocabulary(),
                4,
                &Weights::ones()
            )
        );
        // Once compiled, a count is one unmetered circuit pass: the same
        // cap no longer stops it.
        let capped = ExecutionLimits::none().with_work_cap(1);
        let report = plan
            .count_with_limits(4, &Weights::ones(), &capped, None)
            .unwrap();
        assert_eq!(report.value, clean);
    }

    #[test]
    fn mem_estimate_cap_stops_compilation_and_the_plan_recovers() {
        // The n = 3 lineage has 9 atoms, well under the cap; its circuit
        // arena outgrows it.
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        let limits = ExecutionLimits::none().with_mem_estimate_cap(16);
        let err = plan
            .count_with_limits(3, &Weights::ones(), &limits, None)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::MemEstimateExceeded {
                    phase: "circuit.compile",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(plan.snap_stamp(), 1 << 32, "lineage cached, no circuit");
        let fresh = Problem::new(catalog::transitivity()).plan().unwrap();
        assert_eq!(
            plan.count(3, &Weights::ones()).unwrap().value,
            fresh.count(3, &Weights::ones()).unwrap().value
        );
    }

    #[test]
    fn count_degraded_answers_an_exhausted_ground_plan_with_dpll() {
        // The primary stage of a Ground plan is the compilation itself, so
        // the chain skips its circuit stage and goes straight to DPLL.
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        let weights = Weights::from_ints([("E", 2, -1)]);
        let policy = DegradePolicy {
            primary: ExecutionLimits::none().with_deadline(std::time::Duration::ZERO),
            // An unbudgeted circuit stage would answer first if it ran.
            circuit: Some(ExecutionLimits::none()),
            dpll: Some(ExecutionLimits::none()),
        };
        let report = plan.count_degraded(3, &weights, &policy, None).unwrap();
        assert!(report.degraded);
        assert_eq!(report.method, Method::Ground);
        assert_eq!(report.backend, Some(WmcBackend::Dpll));
        let vocabulary = catalog::transitivity().vocabulary();
        assert_eq!(
            report.value,
            wfomc_ground::brute_force_wfomc(&catalog::transitivity(), &vocabulary, 3, &weights)
        );
        assert_eq!(
            plan.snap_stamp(),
            1 << 32,
            "the DPLL stage compiles nothing"
        );
        // Without a DPLL stage the primary's exhaustion surfaces.
        let no_dpll = DegradePolicy {
            dpll: None,
            ..policy
        };
        let err = plan
            .count_degraded(3, &weights, &no_dpll, None)
            .unwrap_err();
        assert!(matches!(err, SolveError::DeadlineExceeded { .. }), "{err}");
    }

    /// Weight functions for the grounded differential test: positive,
    /// zero, and negative `w̄`.
    fn grounded_weight_functions() -> Vec<Weights> {
        vec![
            Weights::ones(),
            Weights::from_ints([("E", 3, 2), ("R", 2, 1), ("S", 1, 3)]),
            Weights::from_ints([("E", 1, -1), ("R", 1, -1), ("S", 2, -3)]),
            Weights::from_ints([("E", -2, 3), ("R", -2, 3), ("S", 1, 0)]),
        ]
    }

    #[test]
    fn grounded_plans_match_brute_force_in_every_entry_point() {
        use wfomc_ground::brute_force_wfomc;
        // Transitivity and triangles have no lifted method; the third
        // sentence grounds because lifting is off. Every weight function
        // but the first has a negative or zero w̄ on some predicate.
        let grounded_fo2 =
            wfomc_logic::parser::parse("forall x. exists y. (R(x,y) & ~S(y))").unwrap();
        let lifted_off = Solver::builder().lifted(false).build();
        let sentences = [
            (catalog::transitivity(), Solver::new()),
            (catalog::untyped_triangles(), Solver::new()),
            (grounded_fo2, lifted_off),
        ];
        for (sentence, solver) in sentences {
            let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
            assert_eq!(plan.method(), Method::Ground, "{sentence}");
            let vocabulary = plan.vocabulary().clone();
            for n in 1..=3 {
                let points: Vec<(usize, Weights)> = grounded_weight_functions()
                    .into_iter()
                    .map(|w| (n, w))
                    .collect();
                let lanes = plan.count_batch_log(&points);
                for ((_, weights), lane) in points.iter().zip(lanes) {
                    let brute = brute_force_wfomc(&sentence, &vocabulary, n, weights);
                    let report = plan.count(n, weights).unwrap();
                    assert_eq!(report.value, brute, "{sentence} at n={n}");
                    assert_eq!(report.backend, Some(WmcBackend::Circuit));
                    let lifted = AlgebraWeights::lift(&LogF64, weights);
                    let scalar = plan.count_in(n, &LogF64, &lifted).unwrap();
                    let lane = lane.unwrap();
                    assert_eq!(
                        (lane.ln_abs().to_bits(), lane.signum()),
                        (scalar.ln_abs().to_bits(), scalar.signum()),
                        "{sentence} at n={n}: lane vs scalar"
                    );
                    // Float cancellation is relative to the terms, not the sum.
                    let tolerance = 1e-9 * ln_term_scale(&vocabulary, weights, n).exp();
                    let expected = LogF64.from_weight(&brute).to_f64();
                    assert!(
                        (scalar.to_f64() - expected).abs() <= tolerance,
                        "{sentence} at n={n}: {scalar} vs {expected}"
                    );
                }
            }
            let (hits, misses, cached) = plan.ground.stats();
            assert_eq!((misses, cached), (3, 3), "{sentence}: one grounding per n");
            assert!(hits > 0);
        }
    }

    #[test]
    fn mem_estimate_cap_stops_grounding_before_allocation() {
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        let limits = ExecutionLimits::none().with_mem_estimate_cap(1);
        let err = plan
            .count_with_limits(3, &Weights::ones(), &limits, None)
            .unwrap_err();
        assert!(
            matches!(err, SolveError::MemEstimateExceeded { .. }),
            "{err}"
        );
        // Retry uncapped: the cache holds no partial grounding.
        assert_eq!(
            plan.count(3, &Weights::ones()).unwrap().value,
            Problem::new(catalog::transitivity())
                .plan()
                .unwrap()
                .count(3, &Weights::ones())
                .unwrap()
                .value
        );
    }

    /// Deterministic pseudo-random weights including zero and negative
    /// rationals, over the predicate names the test sentences use.
    fn seeded_weights(seed: u64) -> Weights {
        let mut s = seed as i64 + 1;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            weight_ratio((s % 5) - 1, 1 + (s % 3).unsigned_abs() as i64)
        };
        let mut w = Weights::ones();
        for name in ["R", "S", "T", "R1", "R2", "R3"] {
            let pos = next();
            let neg = next();
            w.set(name, pos, neg);
        }
        w
    }

    /// `ln Π_R (|w_R| + |w̄_R| + 1)^{n^arity}` — an upper bound on the log
    /// magnitude of any intermediate term a count over `vocabulary` can
    /// produce, used to calibrate the LogF64 comparison tolerance (float
    /// cancellation is relative to the *terms*, not the final sum).
    fn ln_term_scale(vocabulary: &Vocabulary, weights: &Weights, n: usize) -> f64 {
        use num_traits::Signed;
        use wfomc_logic::algebra::{Algebra, LogF64};
        let mut scale = 0.0f64;
        for p in vocabulary.iter() {
            let pair = weights.pair_of(p);
            let bound = pair.pos.abs() + pair.neg.abs() + Weight::one();
            scale += LogF64.from_weight(&bound).ln_abs() * p.num_ground_tuples(n) as f64;
        }
        scale
    }

    /// The γ-acyclic CQ workload of the generic-path proptest.
    fn cq_workload() -> Vec<ConjunctiveQuery> {
        let mut queries: Vec<_> = (1..=4).map(catalog::chain_query).collect();
        queries.extend((1..=3).map(catalog::star_query));
        queries.push(catalog::table1_dual_cq());
        queries
    }

    /// Weight pairs for the CQ proptest: positive, zero, negative, and
    /// pairs with `w + w̄ = 0`, which leave no tuple probability.
    const CQ_PAIRS: [(i64, i64); 9] = [
        (1, 1),
        (2, 1),
        (1, 3),
        (0, 1),
        (1, 0),
        (-1, 2),
        (2, -1),
        (1, -1),
        (-2, 3),
    ];

    /// Each predicate of `vocabulary` gets the pair `CQ_PAIRS[picks[i + shift]]`.
    fn cq_weights(vocabulary: &Vocabulary, picks: &[usize], shift: usize) -> Weights {
        let mut weights = Weights::ones();
        for (i, p) in vocabulary.iter().enumerate() {
            let (pos, neg) = CQ_PAIRS[picks[(i + shift) % picks.len()]];
            weights.set(p.name(), weight_int(pos), weight_int(neg));
        }
        weights
    }

    /// Whether the compiled circuit cached at `n` reads the cached lineage
    /// itself, not a copy, and nothing else holds that lineage.
    fn lineage_is_shared(plan: &Plan, n: usize) -> bool {
        let cache = plan.ground.instances.lock().unwrap();
        let (instance, _) = &cache.map[&n];
        let compiled = instance.compiled.get().expect("compiled grounding");
        std::ptr::eq(&*instance.lineage, compiled.lineage())
            && Arc::strong_count(&instance.lineage) == 2
    }

    #[test]
    fn compiled_groundings_hold_one_lineage_allocation() {
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        let weights = Weights::from_ints([("E", 2, 1)]);
        let counted = plan.count(3, &weights).unwrap().value;
        assert!(lineage_is_shared(&plan, 3));
        // A decoded snapshot shares its lineage the same way, and counts
        // the same bits.
        let decoded = Plan::snap_decode(&plan.snap_encode()).unwrap();
        assert!(lineage_is_shared(&decoded, 3));
        assert_eq!(decoded.count(3, &weights).unwrap().value, counted);
    }

    #[test]
    fn snapshot_round_trip_preserves_ground_cache_and_circuits() {
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        let weights = Weights::from_ints([("E", 2, 1)]);
        // Populate the ground cache and compile a circuit per domain size.
        for n in 0..=2 {
            let _ = plan.count(n, &weights).unwrap();
        }
        let stamp = plan.snap_stamp();
        assert_eq!(stamp, (3 << 32) | 3, "every count compiled its grounding");

        let bytes = plan.snap_encode();
        let decoded = Plan::snap_decode(&bytes).expect("round trip");
        assert_eq!(decoded.method(), Method::Ground);
        assert_eq!(
            decoded.snap_stamp(),
            stamp,
            "groundings and compiled circuits survive the round trip"
        );
        for n in 0..=2 {
            let fresh = decoded.count(n, &weights).unwrap();
            assert_eq!(fresh.value, plan.count(n, &weights).unwrap().value);
            let cache = fresh.cache.expect("plan counts report cache stats");
            assert_eq!(cache.ground_misses, 0, "decoded cache serves n={n}");
        }
    }

    /// Byte offset of the reserved backend byte in a plan's snapshot: it
    /// follows the sentence, vocabulary, default weights and fallback flag.
    fn snap_backend_offset(plan: &Plan) -> usize {
        let mut enc = snap::Enc::new();
        snap::encode_formula(&mut enc, &plan.sentence);
        snap_encode_vocabulary(&mut enc, &plan.vocabulary);
        snap::encode_weights(&mut enc, &plan.default_weights);
        enc.bool(plan.solver.allow_ground_fallback);
        enc.into_bytes().len()
    }

    #[test]
    fn snapshot_backend_byte_is_reserved_and_old_dpll_snapshots_count_the_same() {
        let plan = Problem::new(catalog::transitivity()).plan().unwrap();
        let weights = Weights::from_ints([("E", 3, -2)]);
        let expected = plan.count(2, &weights).unwrap().value;
        let bytes = plan.snap_encode();
        let at = snap_backend_offset(&plan);
        assert_eq!(
            bytes[at], SNAP_BACKEND_CIRCUIT,
            "encode writes the Circuit tag"
        );
        // A snapshot written when the plan's backend was Enumerate (0) or
        // Dpll (1) decodes to the same plan and counts the same.
        for old_tag in [0u8, 1] {
            let mut old = bytes.clone();
            old[at] = old_tag;
            let decoded = Plan::snap_decode(&old).expect("old backend tags still decode");
            let report = decoded.count(2, &weights).unwrap();
            assert_eq!(report.value, expected);
            assert_eq!(report.backend, Some(WmcBackend::Circuit));
            assert_eq!(
                report.cache.unwrap().ground_misses,
                0,
                "the snapshot's compiled circuit serves the count"
            );
            // Re-encoding normalizes the reserved byte.
            assert_eq!(decoded.snap_encode(), bytes);
        }
        // An unknown tag is still rejected.
        let mut bad = bytes;
        bad[at] = 3;
        assert!(Plan::snap_decode(&bad).is_err());
    }

    #[test]
    fn snapshot_decode_rejects_corruption_gracefully() {
        let plan = Solver::new()
            .plan(&Problem::new(catalog::table1_sentence()))
            .unwrap();
        let bytes = plan.snap_encode();
        // Truncation at every prefix length must error, never panic.
        for cut in 0..bytes.len().min(64) {
            assert!(Plan::snap_decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        assert!(Plan::snap_decode(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Plan::snap_decode(&padded).is_err());
        // And the pristine payload still decodes.
        assert!(Plan::snap_decode(&bytes).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Snapshot round-trip (encode → decode) reproduces bit-identical
        /// counts across all four methods, under random weights including
        /// zeros and negatives.
        #[test]
        fn snapshot_round_trip_is_bit_identical(seed in 0u64..5000) {
            let solver = Solver::new();
            let weights = seeded_weights(seed);
            for (sentence, method, max_n) in four_methods() {
                let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
                let bytes = plan.snap_encode();
                let decoded = Plan::snap_decode(&bytes).expect("round trip");
                prop_assert_eq!(decoded.method(), method);
                for n in 0..=max_n {
                    let expected = plan.count(n, &weights).unwrap().value;
                    let got = decoded.count(n, &weights).unwrap().value;
                    prop_assert_eq!(got, expected, "{} at n={}", sentence, n);
                }
            }
        }

        /// LogF64 evaluation of one plan matches exact evaluation within
        /// relative tolerance, for all four methods, under random weights
        /// including zeros and negatives.
        #[test]
        fn differential_logf64_vs_exact(seed in 0u64..5000) {
            use wfomc_logic::algebra::{Algebra, AlgebraWeights, LogF64};
            let solver = Solver::new();
            let weights = seeded_weights(seed);
            for (sentence, _, max_n) in four_methods() {
                let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
                let lifted = AlgebraWeights::lift(&LogF64, &weights);
                for n in 0..=max_n {
                    let exact = plan.count(n, &weights).unwrap().value;
                    let log = plan.count_in(n, &LogF64, &lifted).unwrap();
                    let expected = LogF64.from_weight(&exact);
                    let scale = ln_term_scale(plan.vocabulary(), &weights, n);
                    if exact.is_zero() || expected.ln_abs() < scale - 26.0 {
                        // Exactly (or relatively) zero: floating cancellation
                        // may leave noise, but it must be noise — many orders
                        // of magnitude below the term scale.
                        prop_assert!(
                            log.is_zero() || log.ln_abs() < scale - 13.0,
                            "{} at n={}: residue {} vs scale {}",
                            sentence, n, log, scale
                        );
                    } else {
                        prop_assert_eq!(
                            log.signum(), expected.signum(),
                            "sign mismatch for {} at n={}", sentence, n
                        );
                        prop_assert!(
                            (log.ln_abs() - expected.ln_abs()).abs() < 1e-6,
                            "{} at n={}: {} vs {}", sentence, n, log, expected
                        );
                    }
                }
            }
        }

        /// Lane-batched `LogF64xN` evaluation is **bit-identical** to scalar
        /// `LogF64`, lane by lane, across all four methods — including zero
        /// and negative weights (the seeded generator produces both) and
        /// ragged final chunks (`k % LOG_LANES ≠ 0`).
        #[test]
        fn differential_lane_batch_vs_scalar_logf64(seed in 0u64..5000, k in 1usize..20) {
            use wfomc_logic::algebra::LogF64;
            let solver = Solver::new();
            for (sentence, _, max_n) in four_methods() {
                let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
                let points: Vec<(usize, Weights)> = (0..k)
                    .map(|i| (max_n, seeded_weights(seed.wrapping_add(i as u64))))
                    .collect();
                let lanes = plan.count_batch_log(&points);
                prop_assert_eq!(lanes.len(), k);
                for (i, ((n, w), lane)) in points.iter().zip(&lanes).enumerate() {
                    let scalar = plan
                        .count_in(*n, &LogF64, &AlgebraWeights::lift(&LogF64, w))
                        .unwrap();
                    let lane = lane.as_ref().expect("lane point");
                    prop_assert_eq!(
                        lane.signum(), scalar.signum(),
                        "sign mismatch for {} lane {}", sentence, i
                    );
                    prop_assert_eq!(
                        lane.ln_abs().to_bits(), scalar.ln_abs().to_bits(),
                        "magnitude bits differ for {} lane {}: {} vs {}",
                        sentence, i, lane, scalar
                    );
                }
            }
        }

        /// Poly evaluation with one predicate's weight left symbolic equals
        /// exact evaluation at sampled points, for all four methods, under
        /// random weights including zeros and negatives.
        #[test]
        fn differential_poly_vs_exact_at_sampled_points(seed in 0u64..5000) {
            use wfomc_logic::algebra::{AlgebraWeights, Poly};
            use wfomc_logic::poly::Polynomial;
            let solver = Solver::new();
            let weights = seeded_weights(seed);
            // Sample points including zero and a negative rational.
            let samples = [weight_int(0), weight_int(2), weight_ratio(-3, 2)];
            for (sentence, _, max_n) in four_methods() {
                let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
                // Leave the first vocabulary predicate's present-weight
                // symbolic: w(P) = z, w̄(P) unchanged.
                let symbolic = plan
                    .vocabulary()
                    .iter()
                    .next()
                    .expect("test sentences have predicates")
                    .clone();
                let mut poly_weights = AlgebraWeights::lift(&Poly, &weights);
                poly_weights.set(
                    symbolic.name(),
                    Polynomial::x(),
                    Poly.from_weight(&weights.pair(symbolic.name()).neg),
                );
                for n in 0..=max_n {
                    let f = plan.count_in(n, &Poly, &poly_weights).unwrap();
                    for point in &samples {
                        let mut at_point = weights.clone();
                        at_point.set(
                            symbolic.name(),
                            point.clone(),
                            weights.pair(symbolic.name()).neg,
                        );
                        let exact = plan.count(n, &at_point).unwrap().value;
                        prop_assert_eq!(
                            f.eval(point), exact,
                            "{} at n={} with w({})={}", sentence, n, symbolic.name(), point
                        );
                    }
                }
            }
        }

        /// Cache consistency under exhaustion: a governed solve under a
        /// random (often hopeless) budget either agrees with an unbudgeted
        /// solve or reports exhaustion — and in *both* cases the same plan
        /// retried uncapped matches a fresh plan's answer, for all four
        /// methods under random weights including zeros and negatives.
        #[test]
        fn interrupted_plans_stay_consistent_and_retry_clean(
            seed in 0u64..5000,
            // Values past the sentinel mean "this limit unarmed", so the
            // cases cover caps alone, deadlines alone, both, and neither.
            work_cap in 0u64..5120,
            deadline_us in 0u64..640,
        ) {
            let solver = Solver::new();
            let weights = seeded_weights(seed);
            let mut limits = ExecutionLimits::none();
            if work_cap < 4096 {
                limits = limits.with_work_cap(work_cap);
            }
            if deadline_us < 512 {
                limits = limits.with_deadline(std::time::Duration::from_micros(deadline_us));
            }
            for (sentence, _, max_n) in four_methods() {
                let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
                let fresh = solver
                    .plan(&Problem::new(sentence.clone()))
                    .unwrap()
                    .count(max_n, &weights)
                    .unwrap()
                    .value;
                match plan.count_with_limits(max_n, &weights, &limits, None) {
                    Ok(report) => prop_assert_eq!(
                        &report.value, &fresh,
                        "governed solve disagrees for {}", sentence
                    ),
                    Err(e) => prop_assert!(
                        e.is_exhaustion(),
                        "{}: unexpected error {}", sentence, e
                    ),
                }
                // The retry contract: uncapped re-run on the *same* plan
                // (same caches, possibly warmed or interrupted) matches a
                // fresh plan's solve.
                let retried = plan.count(max_n, &weights).unwrap().value;
                prop_assert_eq!(
                    &retried, &fresh,
                    "retry after budgeted run disagrees for {}", sentence
                );
            }
        }

        /// One plan reused across all domain sizes and a random weight
        /// function (including zero and negative rationals) matches fresh
        /// one-shot solves, for all four methods.
        #[test]
        fn differential_plan_vs_one_shot(seed in 0u64..5000) {
            let solver = Solver::new();
            let weights = seeded_weights(seed);
            for (sentence, _, max_n) in four_methods() {
                let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
                for n in 0..=max_n {
                    let planned = plan.count(n, &weights).unwrap();
                    let one_shot = solver
                        .wfomc(&sentence, &sentence.vocabulary(), n, &weights)
                        .unwrap();
                    prop_assert_eq!(
                        &planned.value, &one_shot.value,
                        "value mismatch for {} at n={}", sentence, n
                    );
                    if n > 0 {
                        prop_assert_eq!(
                            planned.method, one_shot.method,
                            "method mismatch for {} at n={}", sentence, n
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The γ-acyclic CQ reduction agrees with itself across algebras on
        /// chains, stars and the table-1 dual, under weights drawn from
        /// positive, zero, negative and `w + w̄ = 0` pairs: exact counts
        /// equal grounding, `LogF64` is within 1e-9 relative of exact,
        /// `Poly` equals exact wherever its divisions succeed, log lanes are
        /// bit-identical to scalar `LogF64` (in the reduction and through
        /// the plan), and a repeated exact count is served from the plan's
        /// table.
        #[test]
        fn cq_reduction_agrees_across_algebras(
            which in 0usize..8,
            n in 0usize..4,
            picks in proptest::collection::vec(0usize..CQ_PAIRS.len(), 4..5),
            k in 1usize..LOG_LANES + 1,
        ) {
            use wfomc_logic::algebra::{Algebra, Exact, LogF64, Poly};
            use wfomc_logic::poly::Polynomial;
            let query = &cq_workload()[which];
            let sentence = query.to_formula();
            let vocabulary = sentence.vocabulary();
            // Grounding is exponential in the ground atoms (27 take seconds),
            // so each query runs at the largest n ≤ 3 with at most 16.
            let n = (0..=n)
                .rev()
                .find(|&m| vocabulary.num_ground_tuples(m) <= 16)
                .expect("n = 0 has no ground atoms");
            let weights = cq_weights(&vocabulary, &picks, 0);
            let guard = Guard::unarmed();
            let grounded = wfomc_ground::wfomc(&sentence, &vocabulary, n, &weights);
            let plan = Problem::new(sentence.clone()).plan().unwrap();
            prop_assert_eq!(&plan.count(n, &weights).unwrap().value, &grounded);

            let lifted = AlgebraWeights::lift(&Exact, &weights);
            match gamma_acyclic_wfomc_in(query, n, &Exact, &lifted, &guard) {
                Ok(exact) => {
                    prop_assert_eq!(&exact, &grounded, "{} at n={}", sentence, n);
                    let lifted = AlgebraWeights::lift(&LogF64, &weights);
                    let log = gamma_acyclic_wfomc_in(query, n, &LogF64, &lifted, &guard).unwrap();
                    let expected = LogF64.from_weight(&exact).to_f64();
                    prop_assert!(
                        (log.to_f64() - expected).abs() <= 1e-9 * expected.abs(),
                        "{} at n={}: {} vs {}", sentence, n, log, exact
                    );
                }
                Err(e) => prop_assert!(undefined_probabilities(&e), "{}", e),
            }

            // Constant polynomials, then the first predicate's present
            // weight left symbolic (its division fails unless w̄ = 0).
            let first = vocabulary.iter().next().expect("queries have predicates").name();
            let constant = AlgebraWeights::lift(&Poly, &weights);
            let mut symbolic = constant.clone();
            symbolic.set(first, Polynomial::x(), Poly.from_weight(&weights.pair(first).neg));
            for poly_weights in [&constant, &symbolic] {
                match gamma_acyclic_wfomc_in(query, n, &Poly, poly_weights, &guard) {
                    Ok(f) => prop_assert_eq!(
                        &f.eval(&weights.pair(first).pos), &grounded,
                        "{} at n={}", sentence, n
                    ),
                    Err(e) => prop_assert!(undefined_probabilities(&e), "{}", e),
                }
            }

            let points: Vec<(usize, Weights)> = (0..k)
                .map(|shift| (n, cq_weights(&vocabulary, &picks, shift)))
                .collect();
            let scalar: Vec<_> = points
                .iter()
                .map(|(n, w)| {
                    gamma_acyclic_wfomc_in(query, *n, &LogF64, &AlgebraWeights::lift(&LogF64, w), &guard)
                })
                .collect();
            let lane_weights: Vec<&Weights> = points.iter().map(|(_, w)| w).collect();
            let packed = LogF64xN::pack_weights(&lane_weights);
            match gamma_acyclic_wfomc_in(query, n, &LogF64xN, &packed, &guard) {
                Ok(lanes) => {
                    for (i, scalar) in scalar.iter().enumerate() {
                        let scalar = scalar.as_ref().expect("every lane divides");
                        prop_assert_eq!(lanes.lane(i).signum(), scalar.signum());
                        prop_assert_eq!(lanes.lane(i).ln_abs().to_bits(), scalar.ln_abs().to_bits());
                    }
                }
                Err(e) => {
                    prop_assert!(undefined_probabilities(&e), "{}", e);
                    prop_assert!(scalar.iter().any(Result::is_err));
                }
            }
            for ((n, w), lane) in points.iter().zip(plan.count_batch_log(&points)) {
                let scalar = plan
                    .count_in(*n, &LogF64, &AlgebraWeights::lift(&LogF64, w))
                    .unwrap();
                let lane = lane.expect("lane point");
                prop_assert_eq!(lane.signum(), scalar.signum());
                prop_assert_eq!(lane.ln_abs().to_bits(), scalar.ln_abs().to_bits());
            }

            let misses = plan.cache_stats().cq_memo_misses;
            prop_assert_eq!(&plan.count(n, &weights).unwrap().value, &grounded);
            prop_assert_eq!(plan.cache_stats().cq_memo_misses, misses);
        }
    }
}
