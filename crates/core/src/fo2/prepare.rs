//! The n-independent half of the FO² algorithm, prepared once and evaluated
//! many times.
//!
//! [`Fo2Prepared::prepare`] runs everything that does not depend on the domain
//! size or the weight function: Scott normalization, Shannon expansion of the
//! nullary predicates into branch matrices, valid-cell enumeration and the
//! satisfying cross-assignment sets of every pair table
//! ([`super::cells::PairStructure`]). [`Fo2Prepared::count`] then *binds* a
//! weight function (cheap: products and sums over the prepared structures,
//! cached for the most recent weights) and runs the prefix-sharing cell-sum
//! engine at the requested `n`; [`Fo2Prepared::count_in`] does the same in
//! any evaluation algebra. Both run under a resource [`Guard`].
//!
//! This is the prepared state behind [`crate::plan::Plan`] for
//! [`crate::solver::Method::Fo2`].

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wfomc_ground::evaluate::evaluate;
use wfomc_ground::structure::Structure;
use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, AlgebraWeights, Exact};
use wfomc_logic::snap;
use wfomc_logic::syntax::Formula;
use wfomc_logic::vocabulary::{Predicate, Vocabulary};
use wfomc_logic::weights::{Weight, Weights};

use super::algorithm::Fo2Stats;
use super::cells::{
    bind_cell_weights_in, bind_pair_table_in, build_cell_shapes, build_pair_structure, Cell,
    CellSpace, PairStructure,
};
use super::cellsum::{cell_sum_elems, cell_sum_weights, CellSumStats};
use super::normalize::fo2_normal_form;
use crate::error::{LiftError, SolveError};
use crate::fanout;

/// Guard phase name for the n-independent pair-structure analysis.
const PREPARE_PHASE: &str = "fo2.prepare";

/// Capacity of the keyed weight-binding cache: large enough that an
/// alternating sweep over a handful of weight functions (the equality-removal
/// sweep, MLN learning loops) never thrashes, small enough that long-running
/// processes don't accumulate bindings without bound.
const BIND_CACHE_CAPACITY: usize = 8;

/// One Shannon branch with its weight-independent structure.
#[derive(Clone, Debug)]
struct PreparedBranch {
    /// Truth assignment to the nullary predicates (bit `i` is the `i`-th
    /// nullary predicate).
    mask: u64,
    /// Valid cells of the branch matrix (weights left at 1).
    shapes: Vec<Cell>,
    /// Satisfying cross assignments of every cell pair.
    pairs: PairStructure,
}

/// A weight-bound evaluation state: the prepared structures with one weight
/// function multiplied in, as elements of some algebra.
#[derive(Clone, Debug)]
struct Fo2BoundIn<E> {
    /// Branches whose nullary factor is non-zero, ready for the engine.
    branches: Vec<BoundBranchIn<E>>,
    /// `(predicate, w + w̄)` for the vocabulary predicates the cell
    /// decomposition does not cover.
    leftover: Vec<(Predicate, E)>,
}

#[derive(Clone, Debug)]
struct BoundBranchIn<E> {
    factor: E,
    /// Cell weights `u_c`, aligned with the branch's valid cells.
    u: Vec<E>,
    table: Vec<Vec<E>>,
}

/// The exact binding the keyed cache stores.
type Fo2Bound = Fo2BoundIn<Weight>;

/// The FO² sentence analysis, fully independent of the domain size and the
/// weight function. Prepare once, [`count`](Fo2Prepared::count) many times.
#[derive(Debug)]
pub struct Fo2Prepared {
    /// The original sentence (used for the empty domain).
    sentence: Formula,
    /// The cell space (unary/binary predicates of the normalized matrix).
    space: CellSpace,
    /// Nullary predicates removed by Shannon expansion.
    nullary: Vec<Predicate>,
    /// Predicates introduced by normalization (definition + Skolem).
    introduced: Vec<Predicate>,
    /// The fixed weight pairs of the introduced predicates.
    introduced_weights: Weights,
    /// Vocabulary predicates the cell decomposition does not account for;
    /// they contribute `(w + w̄)^{n^arity}`.
    leftover: Vec<Predicate>,
    /// The surviving (non-`Bottom`) Shannon branches.
    branches: Vec<PreparedBranch>,
    /// A small keyed LRU of exact weight bindings (most recent first), so
    /// alternating weight sweeps reuse their bindings instead of thrashing a
    /// single slot. Capacity [`BIND_CACHE_CAPACITY`].
    bound: Mutex<Vec<(Weights, Arc<Fo2Bound>)>>,
    /// Lifetime hits of the binding LRU. Always-on (one relaxed add next to
    /// a lock the cache takes anyway) so reports and the CI hit-rate gate
    /// see cache behavior while `wfomc_obs` recording is off.
    bind_hits: AtomicU64,
    /// Lifetime misses of the binding LRU (each one ran a full bind).
    bind_misses: AtomicU64,
}

impl Fo2Prepared {
    /// Runs the full n-independent analysis of an FO² sentence.
    ///
    /// Fails when the sentence is not FO², uses predicates of arity > 2, or
    /// contains constants.
    pub fn prepare(sentence: &Formula, vocabulary: &Vocabulary) -> Result<Fo2Prepared, LiftError> {
        Self::prepare_guarded(sentence, vocabulary, &Guard::unarmed()).map_err(|e| match e {
            SolveError::Lift(err) => err,
            _ => unreachable!("an unarmed guard cannot interrupt"),
        })
    }

    /// [`prepare`](Self::prepare) under a resource [`Guard`]: the Shannon
    /// expansion ticks the guard once per branch (the loop is `2^#nullary`
    /// long), so deadlines, work caps and cancellation interrupt the
    /// n-independent analysis. The partial analysis is discarded.
    pub fn prepare_guarded(
        sentence: &Formula,
        vocabulary: &Vocabulary,
        guard: &Guard,
    ) -> Result<Fo2Prepared, SolveError> {
        wfomc_guard::failpoint(PREPARE_PHASE)?;
        if !sentence.is_sentence() {
            return Err(LiftError::NotASentence.into());
        }
        // Normalization is weight-independent; the introduced predicates get
        // their fixed pairs ((1,1) for Def*, (1,−1) for Sk*) regardless of the
        // user weights, which we splice back in at bind time.
        let shape = fo2_normal_form(sentence, vocabulary, &Weights::ones())?;

        let mut counted: Vec<Predicate> = shape.matrix.vocabulary().predicates().to_vec();
        for p in &shape.introduced {
            if !counted.contains(p) {
                counted.push(p.clone());
            }
        }
        let space = CellSpace {
            unary: counted.iter().filter(|p| p.arity() == 1).cloned().collect(),
            binary: counted.iter().filter(|p| p.arity() == 2).cloned().collect(),
        };
        let nullary: Vec<Predicate> = counted.iter().filter(|p| p.arity() == 0).cloned().collect();

        let mut introduced_weights = Weights::ones();
        for p in &shape.introduced {
            let pair = shape.weights.pair_of(p);
            introduced_weights.set(p.name(), pair.pos, pair.neg);
        }

        let user_voc = vocabulary.extended_with(&sentence.vocabulary());
        let counted_names: BTreeSet<&str> = counted.iter().map(|p| p.name()).collect();
        let leftover: Vec<Predicate> = user_voc
            .iter()
            .filter(|p| !counted_names.contains(p.name()))
            .cloned()
            .collect();

        // Shannon expansion: one branch matrix per truth assignment to the
        // nullary predicates, each analyzed into cells and pair structures.
        // The pair-structure build (`2^{2b}` cross assignments per cell
        // pair) dominates and varies per branch, so many-branch expansions
        // fan the masks over a work-stealing pool; the common zero-nullary
        // case (one mask) stays on the caller's thread.
        let build_branch = |mask: u64| -> Result<Option<PreparedBranch>, SolveError> {
            guard.tick(PREPARE_PHASE, 1)?;
            let branch_matrix = if nullary.is_empty() {
                shape.matrix.clone()
            } else {
                shape.matrix.map_bottom_up(&mut |node| match &node {
                    Formula::Atom(a) if a.args.is_empty() => {
                        match nullary.iter().position(|p| p == &a.predicate) {
                            Some(i) if mask >> i & 1 == 1 => Formula::Top,
                            Some(_) => Formula::Bottom,
                            None => node,
                        }
                    }
                    _ => node,
                })
            };
            let branch_matrix = wfomc_logic::transform::simplify(&branch_matrix);
            if branch_matrix == Formula::Bottom {
                return Ok(None);
            }
            let shapes = build_cell_shapes(&branch_matrix, &space)?;
            let pairs = build_pair_structure(&branch_matrix, &space, &shapes)?;
            // Front-load structurally constrained cells (many pairs with no
            // satisfying cross assignment) once, at prepare time. The counts
            // are weight-independent, so this is the one cell order every
            // binding shares — order-sensitive algebras keep it verbatim
            // (bit-reproducible across weight vectors and lanes) while the
            // exact engine may still refine it against the bound weights.
            let zeros = pairs.structural_zero_counts();
            let mut order: Vec<usize> = (0..shapes.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(zeros[i]));
            let shapes = order.iter().map(|&i| shapes[i].clone()).collect();
            let pairs = pairs.permute(&order);
            Ok(Some(PreparedBranch {
                mask,
                shapes,
                pairs,
            }))
        };
        let total_masks = 1usize << nullary.len();
        let workers = if total_masks >= 4 { fanout::cores() } else { 1 };
        let built = fanout::run(total_masks, workers, |mask| build_branch(mask as u64));
        let mut branches = Vec::new();
        // Surface the mask-order-first error so the parallel build fails
        // exactly like a serial loop regardless of the steal schedule.
        for outcome in built {
            let branch = outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))?;
            branches.extend(branch);
        }

        guard.check(PREPARE_PHASE)?;
        Ok(Fo2Prepared {
            sentence: sentence.clone(),
            space,
            nullary,
            introduced: shape.introduced,
            introduced_weights,
            leftover,
            branches,
            bound: Mutex::new(Vec::new()),
            bind_hits: AtomicU64::new(0),
            bind_misses: AtomicU64::new(0),
        })
    }

    /// Number of predicates introduced by normalization.
    pub fn introduced_predicates(&self) -> usize {
        self.introduced.len()
    }

    /// Number of Shannon branches prepared (the non-`Bottom` ones).
    pub fn branches_prepared(&self) -> usize {
        self.branches.len()
    }

    /// Total number of Shannon branches (`2^#nullary`).
    pub fn shannon_branches(&self) -> usize {
        1 << self.nullary.len()
    }

    /// Total number of valid cells over the prepared branches.
    pub fn total_cells(&self) -> usize {
        self.branches.iter().map(|b| b.shapes.len()).sum()
    }

    /// Total number of satisfying cross assignments captured by the prepared
    /// pair structures (what each weight binding sums over, grouped by
    /// signature).
    pub fn satisfying_pair_assignments(&self) -> usize {
        self.branches.iter().map(|b| b.pairs.num_satisfying()).sum()
    }

    /// Multiplies one weight function into the prepared structures in an
    /// arbitrary algebra. This is the cheap, per-count half: products and
    /// sums over the prepared signature multisets, no matrix evaluation.
    fn bind_in<A: Algebra>(&self, algebra: &A, weights: &AlgebraWeights<A>) -> Fo2BoundIn<A::Elem> {
        let mut effective = weights.clone();
        for p in &self.introduced {
            let pair = self.introduced_weights.pair_of(p);
            effective.set(
                p.name(),
                algebra.from_weight(&pair.pos),
                algebra.from_weight(&pair.neg),
            );
        }
        let nullary_pairs: Vec<_> = self
            .nullary
            .iter()
            .map(|p| effective.pair_of(algebra, p))
            .collect();
        let mut branches = Vec::new();
        for branch in &self.branches {
            let mut factor = algebra.one();
            for (i, (pos, neg)) in nullary_pairs.iter().enumerate() {
                algebra.mul_assign(
                    &mut factor,
                    if branch.mask >> i & 1 == 1 { pos } else { neg },
                );
            }
            if algebra.is_zero(&factor) {
                continue;
            }
            branches.push(BoundBranchIn {
                factor,
                u: bind_cell_weights_in(&branch.shapes, &self.space, algebra, &effective),
                table: bind_pair_table_in(&branch.pairs, &self.space, algebra, &effective),
            });
        }
        let leftover = self
            .leftover
            .iter()
            .map(|p| (p.clone(), effective.total(algebra, p.name())))
            .collect();
        Fo2BoundIn { branches, leftover }
    }

    /// The exact binding for a weight function, through the keyed LRU cache
    /// (capacity [`BIND_CACHE_CAPACITY`], most recently used first).
    fn bind(&self, weights: &Weights) -> Arc<Fo2Bound> {
        {
            let mut cache = self.bound.lock().expect("fo2 bind cache poisoned");
            if let Some(at) = cache.iter().position(|(cached, _)| cached == weights) {
                let hit = cache.remove(at);
                let bound = hit.1.clone();
                cache.insert(0, hit);
                self.bind_hits.fetch_add(1, Ordering::Relaxed);
                wfomc_obs::metrics::FO2_BIND_HITS.inc();
                return bound;
            }
        }
        self.bind_misses.fetch_add(1, Ordering::Relaxed);
        wfomc_obs::metrics::FO2_BIND_MISSES.inc();
        let bound = {
            let _span = wfomc_obs::span("fo2.bind");
            Arc::new(self.bind_in(&Exact, &AlgebraWeights::lift(&Exact, weights)))
        };
        let mut cache = self.bound.lock().expect("fo2 bind cache poisoned");
        // A concurrent binder may have inserted the same key while the lock
        // was released; keep the cache duplicate-free.
        if !cache.iter().any(|(cached, _)| cached == weights) {
            cache.insert(0, (weights.clone(), bound.clone()));
            cache.truncate(BIND_CACHE_CAPACITY);
        }
        wfomc_obs::metrics::FO2_BIND_CACHED.set(cache.len() as u64);
        bound
    }

    /// Number of weight bindings currently cached (bounded by the keyed
    /// LRU's capacity of 8).
    pub fn cached_bindings(&self) -> usize {
        self.bound.lock().expect("fo2 bind cache poisoned").len()
    }

    /// Lifetime `(hits, misses)` of the binding LRU. Always-on — no `obs`
    /// feature needed.
    pub fn bind_cache_stats(&self) -> (u64, u64) {
        (
            self.bind_hits.load(Ordering::Relaxed),
            self.bind_misses.load(Ordering::Relaxed),
        )
    }

    /// `WFOMC` of the prepared sentence at domain size `n` under `weights`,
    /// together with the engine's cost statistics, under a resource
    /// [`Guard`]. `allow_parallel` lets the Shannon branches / top-level
    /// cell splits fan out over several threads (callers that already
    /// parallelize across evaluation points pass `false`); values, log-space
    /// bits included, do not depend on it.
    ///
    /// The weight binding goes through the keyed LRU, and the exact engine
    /// clears rational denominators before the DFS. The binding and every
    /// branch's cell sum are metered, so deadlines, work caps and
    /// cancellation interrupt mid-count; the LRU only ever stores
    /// *completed* bindings and the engine's accumulators are call-local, so
    /// an interrupted count leaves the prepared state fully reusable —
    /// retrying (with or without limits) gives the same answer as a fresh
    /// solve. Ungoverned callers pass [`Guard::unarmed`].
    pub fn count(
        &self,
        n: usize,
        weights: &Weights,
        allow_parallel: bool,
        guard: &Guard,
    ) -> Result<(Weight, Fo2Stats), Interrupt> {
        if n == 0 {
            return Ok(self.empty_domain(&Exact, &AlgebraWeights::lift(&Exact, weights)));
        }
        self.evaluate(
            &Exact,
            n,
            allow_parallel,
            guard,
            || self.bind(weights),
            |b, parallel| cell_sum_weights(&b.u, &b.table, n, parallel, guard),
        )
    }

    /// [`count`](Self::count) in an arbitrary [`Algebra`]: binds the weight
    /// function in the ring and runs the same prefix-sharing engine.
    ///
    /// Exact-rational callers should prefer [`count`](Self::count): this
    /// generic path neither caches bindings (only the exact path keeps the
    /// keyed LRU — its `Weights` keys are comparable and its bindings
    /// dominate repeat workloads) nor clears rational denominators before
    /// the DFS (a `BigRational`-specific optimization the exact wrapper
    /// applies), so `count_in(&Exact, …)` returns identical values slower.
    pub fn count_in<A: Algebra>(
        &self,
        n: usize,
        algebra: &A,
        weights: &AlgebraWeights<A>,
        allow_parallel: bool,
        guard: &Guard,
    ) -> Result<(A::Elem, Fo2Stats), Interrupt> {
        if n == 0 {
            return Ok(self.empty_domain(algebra, weights));
        }
        self.evaluate(
            algebra,
            n,
            allow_parallel,
            guard,
            || Arc::new(self.bind_in(algebra, weights)),
            |b, parallel| cell_sum_elems(algebra, &b.u, &b.table, n, parallel, guard),
        )
    }

    /// `WFOMC` on the empty domain, where the structures differ only in
    /// their nullary atoms. The sentence's own nullary predicates are summed
    /// over the truth assignments that satisfy the sentence there; every
    /// other nullary predicate of the vocabulary contributes `w + w̄`, and
    /// predicates of higher arity have no ground tuples. The Shannon
    /// branches cannot answer this: normalization moves nullary atoms under
    /// `∀`, which is equivalent only on a non-empty domain.
    fn empty_domain<A: Algebra>(
        &self,
        algebra: &A,
        weights: &AlgebraWeights<A>,
    ) -> (A::Elem, Fo2Stats) {
        let own: Vec<Predicate> = self
            .sentence
            .vocabulary()
            .iter()
            .filter(|p| p.arity() == 0)
            .cloned()
            .collect();
        let pairs: Vec<_> = own.iter().map(|p| weights.pair_of(algebra, p)).collect();
        let mut total = algebra.zero();
        for mask in 0..1u64 << own.len() {
            let mut structure = Structure::empty(0);
            let mut weight = algebra.one();
            for (i, (p, (pos, neg))) in own.iter().zip(&pairs).enumerate() {
                if mask >> i & 1 == 1 {
                    structure.insert(p.name(), Vec::new());
                    algebra.mul_assign(&mut weight, pos);
                } else {
                    algebra.mul_assign(&mut weight, neg);
                }
            }
            if evaluate(&self.sentence, &structure) {
                algebra.add_assign(&mut total, &weight);
            }
        }
        for p in &self.leftover {
            if p.arity() == 0 && !own.contains(p) {
                algebra.mul_assign(&mut total, &weights.total(algebra, p.name()));
            }
        }
        (total, Fo2Stats::default())
    }

    /// Shared body of [`count`](Self::count) and
    /// [`count_in`](Self::count_in) at `n ≥ 1`: the guarded weight binding,
    /// leftover-predicate factors, branch evaluation (fanned out when
    /// allowed and worthwhile) and stats accumulation.
    fn evaluate<A: Algebra>(
        &self,
        algebra: &A,
        n: usize,
        allow_parallel: bool,
        guard: &Guard,
        bind: impl FnOnce() -> Arc<Fo2BoundIn<A::Elem>>,
        eval: impl Fn(&BoundBranchIn<A::Elem>, bool) -> Result<(A::Elem, CellSumStats), Interrupt>
            + Sync,
    ) -> Result<(A::Elem, Fo2Stats), Interrupt> {
        wfomc_guard::failpoint("fo2.bind")?;
        guard.check("fo2.bind")?;
        let bound = bind();

        let _span = wfomc_obs::span("fo2.cellsum");
        let mut stats = Fo2Stats {
            introduced_predicates: self.introduced.len(),
            shannon_branches: self.shannon_branches(),
            ..Fo2Stats::default()
        };
        let mut leftover = algebra.one();
        for (p, total) in &bound.leftover {
            algebra.mul_assign(&mut leftover, &algebra.pow(total, p.num_ground_tuples(n)));
        }

        // Branch costs are wildly uneven (a hard-constraint branch prunes to
        // nothing, an unconstrained one sums every composition), so the
        // branches go through the work-stealing fan-out. With fewer branch
        // workers than cores, each branch's engine splits its top level too
        // (its own composition-count threshold still applies). A panic is
        // resumed here, where the plan layer's per-point containment turns
        // it into `SolveError::WorkerPanicked`.
        let branches = &bound.branches;
        let cores = fanout::cores();
        let workers = if allow_parallel && n >= 8 {
            cores.min(branches.len())
        } else {
            1
        };
        let parallel_within = allow_parallel && workers < cores;
        let sums = fanout::run(branches.len(), workers, |i| {
            eval(&branches[i], parallel_within)
        });
        let mut total = algebra.zero();
        for (branch, outcome) in branches.iter().zip(sums) {
            let (value, branch_stats) =
                outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))?;
            stats.absorb_cell_sum(&branch_stats);
            algebra.add_assign(&mut total, &algebra.mul(&branch.factor, &value));
        }
        wfomc_obs::metrics::CELLSUM_SUMMED.add(stats.compositions_summed as u64);
        wfomc_obs::metrics::CELLSUM_PRUNED.add(stats.compositions_pruned as u64);
        wfomc_obs::metrics::CELLSUM_CELLS_MERGED.add(stats.cells_merged as u64);
        Ok((algebra.mul(&leftover, &total), stats))
    }
}

// ---- Snapshot codec (wfomc-snap/v1) ---------------------------------------
//
// Everything prepare computes is serialized verbatim — normal-form cell
// space, introduced predicates with their fixed weights, Shannon branches
// with valid-cell shapes and pair-structure signature multisets (in their
// structural-zero-sorted order, so decode skips the reordering pass too).
// The binding LRU is deliberately *not* persisted: bindings are cheap,
// weight-dependent, and the cache starts cold like a fresh prepare.

fn snap_encode_cell(enc: &mut snap::Enc, cell: &Cell) {
    enc.usize(cell.unary.len());
    for &b in &cell.unary {
        enc.bool(b);
    }
    enc.usize(cell.reflexive.len());
    for &b in &cell.reflexive {
        enc.bool(b);
    }
    snap::encode_weight(enc, &cell.weight);
}

fn snap_decode_cell(dec: &mut snap::Dec<'_>) -> snap::SnapResult<Cell> {
    let n = dec.len()?;
    let mut unary = Vec::with_capacity(n);
    for _ in 0..n {
        unary.push(dec.bool()?);
    }
    let n = dec.len()?;
    let mut reflexive = Vec::with_capacity(n);
    for _ in 0..n {
        reflexive.push(dec.bool()?);
    }
    let weight = snap::decode_weight(dec)?;
    Ok(Cell {
        unary,
        reflexive,
        weight,
    })
}

fn snap_encode_predicates(enc: &mut snap::Enc, predicates: &[Predicate]) {
    enc.usize(predicates.len());
    for p in predicates {
        snap::encode_predicate(enc, p);
    }
}

fn snap_decode_predicates(dec: &mut snap::Dec<'_>) -> snap::SnapResult<Vec<Predicate>> {
    let n = dec.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(snap::decode_predicate(dec)?);
    }
    Ok(out)
}

fn snap_encode_pairs(enc: &mut snap::Enc, pairs: &PairStructure) {
    let rows = pairs.sat_rows();
    enc.usize(rows.len());
    for row in rows {
        enc.usize(row.len());
        for multiset in row {
            enc.usize(multiset.len());
            for (signature, count) in multiset {
                enc.bytes(signature);
                enc.u64(*count);
            }
        }
    }
}

fn snap_decode_pairs(dec: &mut snap::Dec<'_>) -> snap::SnapResult<PairStructure> {
    let k = dec.len()?;
    let mut rows = Vec::with_capacity(k);
    for _ in 0..k {
        let len = dec.len()?;
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            let sigs = dec.len()?;
            let mut multiset = Vec::with_capacity(sigs);
            for _ in 0..sigs {
                let signature = dec.bytes()?.to_vec();
                let count = dec.u64()?;
                multiset.push((signature, count));
            }
            row.push(multiset);
        }
        rows.push(row);
    }
    PairStructure::from_rows(rows)
        .ok_or_else(|| snap::SnapError::new("pair structure is not triangular"))
}

impl Fo2Prepared {
    /// Serializes the full prepared state into the encoder.
    pub(crate) fn snap_encode(&self, enc: &mut snap::Enc) {
        snap::encode_formula(enc, &self.sentence);
        snap_encode_predicates(enc, &self.space.unary);
        snap_encode_predicates(enc, &self.space.binary);
        snap_encode_predicates(enc, &self.nullary);
        snap_encode_predicates(enc, &self.introduced);
        snap::encode_weights(enc, &self.introduced_weights);
        snap_encode_predicates(enc, &self.leftover);
        enc.usize(self.branches.len());
        for branch in &self.branches {
            enc.u64(branch.mask);
            enc.usize(branch.shapes.len());
            for shape in &branch.shapes {
                snap_encode_cell(enc, shape);
            }
            snap_encode_pairs(enc, &branch.pairs);
        }
    }

    /// Rebuilds prepared state written by [`snap_encode`](Self::snap_encode).
    /// The binding LRU starts empty and the hit counters at zero, exactly
    /// like a fresh [`prepare`](Self::prepare).
    pub(crate) fn snap_decode(dec: &mut snap::Dec<'_>) -> snap::SnapResult<Fo2Prepared> {
        let sentence = snap::decode_formula(dec)?;
        let space = CellSpace {
            unary: snap_decode_predicates(dec)?,
            binary: snap_decode_predicates(dec)?,
        };
        let nullary = snap_decode_predicates(dec)?;
        let introduced = snap_decode_predicates(dec)?;
        let introduced_weights = snap::decode_weights(dec)?;
        let leftover = snap_decode_predicates(dec)?;
        let num_branches = dec.len()?;
        let mut branches = Vec::with_capacity(num_branches);
        for _ in 0..num_branches {
            let mask = dec.u64()?;
            let num_shapes = dec.len()?;
            let mut shapes = Vec::with_capacity(num_shapes);
            for _ in 0..num_shapes {
                let shape = snap_decode_cell(dec)?;
                if shape.unary.len() != space.unary.len()
                    || shape.reflexive.len() != space.binary.len()
                {
                    return Err(snap::SnapError::new("cell shape does not match cell space"));
                }
                shapes.push(shape);
            }
            let pairs = snap_decode_pairs(dec)?;
            if pairs.sat_rows().len() != shapes.len() {
                return Err(snap::SnapError::new("pair structure does not match cells"));
            }
            branches.push(PreparedBranch {
                mask,
                shapes,
                pairs,
            });
        }
        Ok(Fo2Prepared {
            sentence,
            space,
            nullary,
            introduced,
            introduced_weights,
            leftover,
            branches,
            bound: Mutex::new(Vec::new()),
            bind_hits: AtomicU64::new(0),
            bind_misses: AtomicU64::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_traits::Zero;
    use wfomc_ground::wfomc as ground_wfomc;
    use wfomc_logic::catalog;

    #[test]
    fn prepared_count_matches_one_shot_across_n_and_weights() {
        for sentence in [
            catalog::table1_sentence(),
            catalog::forall_exists_edge(),
            catalog::exists_unary(),
            catalog::smokers_constraint(),
        ] {
            let voc = sentence.vocabulary();
            let prepared = Fo2Prepared::prepare(&sentence, &voc).expect("FO² applies");
            for weights in [
                Weights::ones(),
                Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1)]),
                Weights::from_ints([("R", 0, 1), ("S", -1, 2), ("T", 2, 2)]),
            ] {
                for n in 0..=4 {
                    let (value, stats) = prepared
                        .count(n, &weights, true, &Guard::unarmed())
                        .unwrap();
                    let (one_shot, one_shot_stats) = Fo2Prepared::prepare(&sentence, &voc)
                        .expect("FO² applies")
                        .count(n, &weights, true, &Guard::unarmed())
                        .unwrap();
                    assert_eq!(value, one_shot, "{sentence} at n={n}");
                    assert_eq!(stats, one_shot_stats, "{sentence} stats at n={n}");
                    assert_eq!(
                        value,
                        ground_wfomc(&sentence, &voc, n, &weights),
                        "{sentence} vs ground at n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_codec_round_trips_prepared_state() {
        for sentence in [
            catalog::table1_sentence(),
            catalog::smokers_constraint(),
            catalog::exists_unary(),
        ] {
            let voc = sentence.vocabulary();
            let prepared = Fo2Prepared::prepare(&sentence, &voc).expect("FO² applies");
            let mut enc = snap::Enc::new();
            prepared.snap_encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = snap::Dec::new(&bytes);
            let decoded = Fo2Prepared::snap_decode(&mut dec).expect("round trip");
            dec.finish().expect("payload fully consumed");
            let weights = Weights::from_ints([("R", 2, 1), ("S", 0, -3), ("T", 1, 3)]);
            for n in 0..=4 {
                let (value, stats) = prepared
                    .count(n, &weights, true, &Guard::unarmed())
                    .unwrap();
                let (decoded_value, decoded_stats) =
                    decoded.count(n, &weights, true, &Guard::unarmed()).unwrap();
                assert_eq!(value, decoded_value, "{sentence} at n={n}");
                assert_eq!(stats, decoded_stats, "{sentence} stats at n={n}");
            }
        }
    }

    #[test]
    fn binding_is_cached_per_weight_function() {
        let sentence = catalog::table1_sentence();
        let voc = sentence.vocabulary();
        let prepared = Fo2Prepared::prepare(&sentence, &voc).unwrap();
        let w = Weights::from_ints([("R", 2, 1)]);
        let first = prepared.bind(&w);
        let second = prepared.bind(&w);
        assert!(Arc::ptr_eq(&first, &second), "same weights reuse binding");
        let other = prepared.bind(&Weights::ones());
        assert!(!Arc::ptr_eq(&first, &other), "new weights rebind");
    }

    #[test]
    fn binding_cache_is_a_keyed_lru() {
        // An alternating sweep over several weight functions must not thrash:
        // every function in a working set of ≤ capacity keeps its binding.
        let sentence = catalog::table1_sentence();
        let voc = sentence.vocabulary();
        let prepared = Fo2Prepared::prepare(&sentence, &voc).unwrap();
        let sweep: Vec<Weights> = (0..4)
            .map(|i| Weights::from_ints([("R", i + 2, 1)]))
            .collect();
        let firsts: Vec<_> = sweep.iter().map(|w| prepared.bind(w)).collect();
        // Second pass, alternating order: all hits.
        for (w, first) in sweep.iter().zip(&firsts).rev() {
            assert!(
                Arc::ptr_eq(first, &prepared.bind(w)),
                "alternating sweep must hit the LRU"
            );
        }
        assert_eq!(prepared.cached_bindings(), sweep.len());
        // Overflowing the capacity evicts the least recently used binding
        // (the last re-bound entry of the sweep is the most recent).
        for i in 0..super::BIND_CACHE_CAPACITY {
            let _ = prepared.bind(&Weights::from_ints([("T", i as i64 + 2, 1)]));
        }
        assert_eq!(prepared.cached_bindings(), super::BIND_CACHE_CAPACITY);
        assert!(
            !Arc::ptr_eq(&firsts[3], &prepared.bind(&sweep[3])),
            "evicted weights rebind"
        );
    }

    #[test]
    fn count_in_exact_matches_count_and_other_algebras_track_it() {
        use wfomc_logic::algebra::{AlgebraWeights, Exact, LogF64, Poly};

        let sentence = catalog::smokers_constraint();
        let voc = sentence.vocabulary();
        let prepared = Fo2Prepared::prepare(&sentence, &voc).unwrap();
        let weights = Weights::from_ints([("Smokes", 3, 1), ("Friends", 1, 2)]);
        for n in 0..=5 {
            let (exact, exact_stats) = prepared
                .count(n, &weights, false, &Guard::unarmed())
                .unwrap();
            // Exact algebra through the generic path: identical values.
            let (generic, generic_stats) = prepared
                .count_in(
                    n,
                    &Exact,
                    &AlgebraWeights::lift(&Exact, &weights),
                    false,
                    &Guard::unarmed(),
                )
                .unwrap();
            assert_eq!(exact, generic, "n = {n}");
            assert_eq!(exact_stats, generic_stats, "n = {n}");
            // LogF64 tracks the exact value within floating tolerance.
            let (log, _) = prepared
                .count_in(
                    n,
                    &LogF64,
                    &AlgebraWeights::lift(&LogF64, &weights),
                    false,
                    &Guard::unarmed(),
                )
                .unwrap();
            let expected = LogF64.from_weight(&exact);
            assert_eq!(log.signum(), expected.signum(), "n = {n}");
            if !exact.is_zero() {
                assert!(
                    (log.ln_abs() - expected.ln_abs()).abs() < 1e-9,
                    "n = {n}: {log} vs {expected}"
                );
            }
            // Poly with constant weights is a degree-0 polynomial.
            let (poly, _) = prepared
                .count_in(
                    n,
                    &Poly,
                    &AlgebraWeights::lift(&Poly, &weights),
                    false,
                    &Guard::unarmed(),
                )
                .unwrap();
            assert_eq!(poly.coeff(0), exact, "n = {n}");
        }
    }

    #[test]
    fn prepare_rejects_non_fo2_sentences() {
        let f = catalog::transitivity();
        assert!(matches!(
            Fo2Prepared::prepare(&f, &f.vocabulary()),
            Err(LiftError::TooManyVariables { .. })
        ));
    }

    #[test]
    fn prepared_summary_counters() {
        let f = catalog::forall_exists_edge();
        let prepared = Fo2Prepared::prepare(&f, &f.vocabulary()).unwrap();
        assert_eq!(prepared.introduced_predicates(), 1);
        assert_eq!(prepared.shannon_branches(), 1);
        assert_eq!(prepared.branches_prepared(), 1);
        assert!(prepared.total_cells() >= 3);
    }
}
