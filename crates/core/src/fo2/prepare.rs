//! The n-independent half of the FO² algorithm, prepared once and evaluated
//! many times.
//!
//! [`Fo2Prepared::prepare`] runs everything that does not depend on the domain
//! size or the weight function: Scott normalization, Shannon expansion of the
//! nullary predicates into branch matrices, valid-cell enumeration, the
//! grouping of the cells into row classes and the satisfying
//! cross-assignment sets of every class pair
//! ([`super::cells::PairStructure`]). [`Fo2Prepared::count_in`] then
//! *binds* a weight function in the requested evaluation algebra (cheap:
//! products and sums over the prepared structures, cached per algebra for
//! the most recent weights) and runs the prefix-sharing cell-sum engine at
//! the requested `n`, under a resource [`Guard`].
//!
//! This is the prepared state behind [`crate::plan::Plan`] for
//! [`crate::solver::Method::Fo2`].

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wfomc_ground::evaluate::evaluate;
use wfomc_ground::structure::Structure;
use wfomc_guard::{Guard, Interrupt};
use wfomc_logic::algebra::{Algebra, AlgebraWeights};
use wfomc_logic::snap;
use wfomc_logic::syntax::Formula;
use wfomc_logic::vocabulary::{Predicate, Vocabulary};
use wfomc_logic::weights::Weights;

use super::algorithm::Fo2Stats;
use super::cells::{
    bind_cell_weights_in, bind_pair_table_in, build_cell_shapes, build_pair_structure, Cell,
    CellSpace, PairStructure,
};
use super::cellsum::cell_sum_elems;
use super::normalize::fo2_normal_form;
use crate::combinatorics::num_compositions;
use crate::error::{LiftError, SolveError};
use crate::fanout;
use crate::keyed::{self, KeyedLru};

/// Guard phase name for the n-independent pair-structure analysis.
const PREPARE_PHASE: &str = "fo2.prepare";

/// One Shannon branch with its weight-independent structure.
#[derive(Clone, Debug)]
struct PreparedBranch {
    /// Truth assignment to the nullary predicates (bit `i` is the `i`-th
    /// nullary predicate).
    mask: u64,
    /// Valid cells of the branch matrix (weight-free shapes).
    shapes: Vec<Cell>,
    /// Row classes of the cells and the satisfying cross assignments of
    /// every class pair.
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

/// A cached binding counts as one toward the plan's reported bindings.
impl<E: std::fmt::Debug + Send + Sync + 'static> keyed::Entry for Arc<Fo2BoundIn<E>> {
    fn size(&self) -> usize {
        1
    }
}

/// The FO² sentence analysis, fully independent of the domain size and the
/// weight function. Prepare once, [`count_in`](Fo2Prepared::count_in) many
/// times.
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
    /// Weight bindings keyed by the weights, [`keyed::CAPACITY`] per
    /// algebra, so alternating weight sweeps reuse their bindings instead of
    /// thrashing a single slot and one algebra's traffic never evicts
    /// another's.
    bound: Mutex<KeyedLru>,
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
        // The pair-structure build (`2^{2b}` cross assignments per class
        // pair) dominates and varies per branch, so expansions with enough
        // matrix evaluations in all fan the masks over a work-stealing pool;
        // the common zero-nullary case (one mask) stays on the caller's
        // thread.
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
        let workers = mask_workers(total_masks, &space);
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
            bound: Mutex::default(),
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

    /// Total number of row classes over the prepared branches: cells whose
    /// pair rows the matrix cannot tell apart share one class.
    pub fn total_classes(&self) -> usize {
        self.branches.iter().map(|b| b.pairs.num_classes()).sum()
    }

    /// The valid-cell count of every prepared branch, in branch order.
    pub(crate) fn branch_cells(&self) -> Vec<usize> {
        self.branches.iter().map(|b| b.shapes.len()).collect()
    }

    /// The work of one count at domain size `n`, in compositions: each
    /// prepared branch's cell sum ranges over `C(n+k−1, k−1)` compositions
    /// of `n` into its `k` valid cells (saturating). This is the cell sum's
    /// size before any weight is bound, so it bounds every algebra's
    /// `compositions_summed + compositions_pruned`: binding drops branches
    /// with a zero nullary factor, and exact and polynomial counts drop
    /// zero-weight cells and merge interchangeable ones. Log-space counts
    /// range over every cell of every bound branch, so for them it is the
    /// reported `compositions_total` whenever no branch is dropped.
    pub fn estimate(&self, n: usize) -> usize {
        self.branches
            .iter()
            .map(|b| num_compositions(n, b.shapes.len()))
            .fold(0, usize::saturating_add)
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

    /// The binding for a weight function, through the keyed LRU
    /// ([`keyed::CAPACITY`] bindings per algebra, most recently used first).
    fn bind<A: Algebra>(
        &self,
        algebra: &A,
        weights: &AlgebraWeights<A>,
    ) -> Arc<Fo2BoundIn<A::Elem>> {
        let hit = self
            .bound
            .lock()
            .expect("fo2 bind cache poisoned")
            .get(weights);
        if let Some(bound) = hit {
            self.bind_hits.fetch_add(1, Ordering::Relaxed);
            wfomc_obs::metrics::FO2_BIND_HITS.inc();
            return bound;
        }
        self.bind_misses.fetch_add(1, Ordering::Relaxed);
        wfomc_obs::metrics::FO2_BIND_MISSES.inc();
        let bound = {
            let _span = wfomc_obs::span("fo2.bind");
            Arc::new(self.bind_in(algebra, weights))
        };
        let mut cache = self.bound.lock().expect("fo2 bind cache poisoned");
        cache.put(weights.clone(), bound.clone());
        wfomc_obs::metrics::FO2_BIND_CACHED.set(cache.len() as u64);
        bound
    }

    /// Number of weight bindings currently cached, over all algebras (at
    /// most 8 per algebra).
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

    /// `WFOMC` of the prepared sentence at domain size `n` under `weights`
    /// in an arbitrary [`Algebra`], together with the engine's cost
    /// statistics, under a resource [`Guard`]. `allow_parallel` lets the
    /// Shannon branches / top-level cell splits fan out over several threads
    /// (callers that already parallelize across evaluation points pass
    /// `false`); values, log-space bits included, do not depend on it.
    ///
    /// The weight binding goes through the keyed LRU of the algebra, then
    /// every branch runs the prefix-sharing engine. The engine multiplies
    /// whatever elements it is given: exact counts are fastest on integer
    /// weights, which [`crate::plan::Plan`] arranges by clearing the
    /// denominators of every weight pair first. The binding and every
    /// branch's cell sum are metered, so deadlines, work caps and
    /// cancellation interrupt mid-count; the LRU only ever stores
    /// *completed* bindings and the engine's accumulators are call-local, so
    /// an interrupted count leaves the prepared state fully reusable —
    /// retrying (with or without limits) gives the same answer as a fresh
    /// solve. Ungoverned callers pass [`Guard::unarmed`].
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
        wfomc_guard::failpoint("fo2.bind")?;
        guard.check("fo2.bind")?;
        let bound = self.bind(algebra, weights);

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
        // branches go through the work-stealing fan-out once their
        // compositions pay for the threads. The branch sums are added in
        // branch order whatever the schedule. With fewer branch
        // workers than cores, each branch's engine splits its top level too
        // (its own composition-count threshold still applies). A panic is
        // resumed here, where the plan layer's per-point containment turns
        // it into `SolveError::WorkerPanicked`.
        let branches = &bound.branches;
        let workers = self.branch_workers(branches.len(), n, allow_parallel);
        let parallel_within = allow_parallel && workers < fanout::cores();
        let sums = fanout::run(branches.len(), workers, |i| {
            let b = &branches[i];
            cell_sum_elems(algebra, &b.u, &b.table, n, parallel_within, guard)
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

    /// Workers for the cell sums of `branches` bound branches at domain
    /// size `n`: the fan-out gate on [`estimate`](Self::estimate).
    fn branch_workers(&self, branches: usize, n: usize, allow_parallel: bool) -> usize {
        if allow_parallel {
            fanout::workers_for(branches, self.estimate(n))
        } else {
            1
        }
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
}

/// Workers for the Shannon-mask build: each mask evaluates the matrix on
/// every candidate cell (`2^{cell bits}`) and at least once per cross
/// assignment (`4^b`, one class pair).
fn mask_workers(total_masks: usize, space: &CellSpace) -> usize {
    let per_mask = (1usize << space.cell_bits().min(24))
        .saturating_add(1usize << (2 * space.binary.len()).min(24));
    fanout::workers_for(total_masks, total_masks.saturating_mul(per_mask))
}

// ---- Snapshot codec (wfomc-snap/v2) ---------------------------------------
//
// Everything prepare computes is serialized verbatim — normal-form cell
// space, introduced predicates with their fixed weights, Shannon branches
// with valid-cell shapes (in their structural-zero-sorted order, so decode
// skips the reordering pass too), each cell's row class and the class-pair
// signature multisets.
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
    Ok(Cell { unary, reflexive })
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
    enc.usize(pairs.class_of().len());
    for &class in pairs.class_of() {
        enc.usize(class);
    }
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

fn snap_decode_pairs(dec: &mut snap::Dec<'_>, binary: usize) -> snap::SnapResult<PairStructure> {
    let cells = dec.len()?;
    let mut class_of = Vec::with_capacity(cells);
    for _ in 0..cells {
        class_of.push(dec.usize()?);
    }
    let classes = dec.len()?;
    let mut rows = Vec::with_capacity(classes);
    for _ in 0..classes {
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
    PairStructure::from_parts(class_of, rows, binary).map_err(snap::SnapError::new)
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
            let pairs = snap_decode_pairs(dec, space.binary.len())?;
            if pairs.class_of().len() != shapes.len() {
                return Err(snap::SnapError::new("row class map does not match cells"));
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
            bound: Mutex::default(),
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
    use wfomc_logic::algebra::{Exact, LogF64, LogF64xN, Poly};
    use wfomc_logic::catalog;
    use wfomc_logic::weights::{weight_int, Weight};

    /// The exact count with its statistics, unguarded.
    fn exact(
        prepared: &Fo2Prepared,
        n: usize,
        weights: &Weights,
        allow_parallel: bool,
    ) -> (Weight, Fo2Stats) {
        let lifted = AlgebraWeights::lift(&Exact, weights);
        prepared
            .count_in(n, &Exact, &lifted, allow_parallel, &Guard::unarmed())
            .unwrap()
    }

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
                    let (value, stats) = exact(&prepared, n, &weights, true);
                    let fresh = Fo2Prepared::prepare(&sentence, &voc).expect("FO² applies");
                    let (one_shot, one_shot_stats) = exact(&fresh, n, &weights, true);
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
                let (value, stats) = exact(&prepared, n, &weights, true);
                let (decoded_value, decoded_stats) = exact(&decoded, n, &weights, true);
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
        let w = AlgebraWeights::lift(&Exact, &Weights::from_ints([("R", 2, 1)]));
        let first = prepared.bind(&Exact, &w);
        let second = prepared.bind(&Exact, &w);
        assert!(Arc::ptr_eq(&first, &second), "same weights reuse binding");
        let other = prepared.bind(&Exact, &AlgebraWeights::ones());
        assert!(!Arc::ptr_eq(&first, &other), "new weights rebind");
    }

    #[test]
    fn binding_cache_is_a_keyed_lru() {
        // An alternating sweep over several weight functions must not thrash:
        // every function in a working set of ≤ capacity keeps its binding.
        let sentence = catalog::table1_sentence();
        let voc = sentence.vocabulary();
        let prepared = Fo2Prepared::prepare(&sentence, &voc).unwrap();
        let lift = |w: Weights| AlgebraWeights::lift(&Exact, &w);
        let sweep: Vec<_> = (0..4)
            .map(|i| lift(Weights::from_ints([("R", i + 2, 1)])))
            .collect();
        let firsts: Vec<_> = sweep.iter().map(|w| prepared.bind(&Exact, w)).collect();
        // Second pass, alternating order: all hits.
        for (w, first) in sweep.iter().zip(&firsts).rev() {
            assert!(
                Arc::ptr_eq(first, &prepared.bind(&Exact, w)),
                "alternating sweep must hit the LRU"
            );
        }
        assert_eq!(prepared.cached_bindings(), sweep.len());
        // Overflowing the capacity evicts the least recently used binding
        // (the last re-bound entry of the sweep is the most recent).
        for i in 0..keyed::CAPACITY {
            let _ = prepared.bind(&Exact, &lift(Weights::from_ints([("T", i as i64 + 2, 1)])));
        }
        assert_eq!(prepared.cached_bindings(), keyed::CAPACITY);
        assert!(
            !Arc::ptr_eq(&firsts[3], &prepared.bind(&Exact, &sweep[3])),
            "evicted weights rebind"
        );
    }

    /// Every algebra binds through its own LRU slot: log and lane traffic
    /// hits its own cached bindings and never evicts the exact ones.
    #[test]
    fn every_algebra_keeps_its_own_bindings() {
        let sentence = catalog::table1_sentence();
        let prepared = Fo2Prepared::prepare(&sentence, &sentence.vocabulary()).unwrap();
        let weights = Weights::from_ints([("R", 2, 1)]);
        let exact_binding = prepared.bind(&Exact, &AlgebraWeights::lift(&Exact, &weights));
        let log = AlgebraWeights::lift(&LogF64, &weights);
        let first = prepared.bind(&LogF64, &log);
        assert!(Arc::ptr_eq(&first, &prepared.bind(&LogF64, &log)));
        for i in 0..2 * keyed::CAPACITY as i64 {
            let sweep = Weights::from_ints([("S", i + 2, 1)]);
            let _ = prepared.bind(&LogF64xN, &LogF64xN::pack_weights(&[&sweep]));
        }
        assert_eq!(prepared.cached_bindings(), 2 + keyed::CAPACITY);
        let again = prepared.bind(&Exact, &AlgebraWeights::lift(&Exact, &weights));
        assert!(
            Arc::ptr_eq(&exact_binding, &again),
            "lanes never evict exact"
        );
        assert_eq!(
            prepared.bind_cache_stats(),
            (2, 2 + 2 * keyed::CAPACITY as u64)
        );
    }

    #[test]
    fn other_algebras_track_the_exact_count() {
        let sentence = catalog::smokers_constraint();
        let voc = sentence.vocabulary();
        let prepared = Fo2Prepared::prepare(&sentence, &voc).unwrap();
        let weights = Weights::from_ints([("Smokes", 3, 1), ("Friends", 1, 2)]);
        for n in 0..=5 {
            let (exact, exact_stats) = exact(&prepared, n, &weights, false);
            assert_eq!(exact, ground_wfomc(&sentence, &voc, n, &weights), "n = {n}");
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
            // Poly with constant weights is a degree-0 polynomial, counted
            // over the same cells as the exact count.
            let (poly, poly_stats) = prepared
                .count_in(
                    n,
                    &Poly,
                    &AlgebraWeights::lift(&Poly, &weights),
                    false,
                    &Guard::unarmed(),
                )
                .unwrap();
            assert_eq!(poly.coeff(0), exact, "n = {n}");
            assert_eq!(poly_stats, exact_stats, "n = {n}");
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

    #[test]
    fn catalog_cells_fall_into_row_classes() {
        for (sentence, cells, classes) in [
            (catalog::table1_sentence(), 7, 4),
            (catalog::spouse_constraint(), 7, 4),
            (catalog::smokers_constraint(), 4, 2),
            (catalog::forall_exists_edge(), 3, 2),
        ] {
            let prepared = Fo2Prepared::prepare(&sentence, &sentence.vocabulary()).unwrap();
            assert_eq!(prepared.total_cells(), cells, "{sentence}");
            assert_eq!(prepared.total_classes(), classes, "{sentence}");
        }
    }

    /// `∀x (R(x,x) ∧ ∀x∀y φ)` — the inner `∀x` re-binds `x` — and its
    /// explicitly scoped spelling normalize alike after miniscoping: no
    /// introduced predicates, one Shannon branch, equal counts.
    #[test]
    fn miniscoping_normalizes_both_scopings_alike() {
        let body = "forall x. forall y. (R(x,y) | S(x,y) | T(x,y) | U(x,y))";
        let nested = wfomc_logic::parser::parse(&format!("forall x. R(x,x) & {body}")).unwrap();
        let scoped = wfomc_logic::parser::parse(&format!("(forall x. R(x,x)) & ({body})")).unwrap();
        let voc = scoped.vocabulary();
        let nested_prepared = Fo2Prepared::prepare(&nested, &voc).unwrap();
        let scoped_prepared = Fo2Prepared::prepare(&scoped, &voc).unwrap();
        for prepared in [&nested_prepared, &scoped_prepared] {
            assert_eq!(prepared.introduced_predicates(), 0);
            assert_eq!(prepared.shannon_branches(), 1);
            assert_eq!(prepared.total_cells(), 8);
            assert_eq!(prepared.total_classes(), 1);
        }
        for weights in [
            Weights::from_ints([("R", 0, 1), ("S", -1, 2), ("T", 2, 0), ("U", 3, -2)]),
            Weights::from_ints([("R", -2, 3), ("S", 0, 0), ("T", 1, -1), ("U", 1, 1)]),
        ] {
            for n in 0..=4 {
                let (value, _) = exact(&nested_prepared, n, &weights, false);
                assert_eq!(
                    value,
                    exact(&scoped_prepared, n, &weights, false).0,
                    "n = {n}"
                );
                if n <= 2 {
                    assert_eq!(value, ground_wfomc(&nested, &voc, n, &weights), "n = {n}");
                }
            }
        }
    }

    /// The work estimate brackets what the cell sum ranges over, on every
    /// catalog sentence the FO² method prepares, in the exact and the
    /// log-space algebra: exact counts may drop zero-weight cells and merge
    /// interchangeable ones, so the estimate bounds their compositions;
    /// log-space counts keep every cell, so without nullary predicates in
    /// the sentence, whose zero weights are what drop a branch, it is
    /// their composition total.
    #[test]
    fn estimate_brackets_the_compositions_summed() {
        let mut sentences = vec![
            catalog::table1_sentence(),
            catalog::forall_exists_edge(),
            catalog::exists_unary(),
            catalog::spouse_constraint(),
            catalog::smokers_constraint(),
            catalog::qs4(),
            catalog::k_cycle(3),
            catalog::table1_dual_cq().to_formula(),
            catalog::chain_query(1).to_formula(),
            catalog::chain_query(3).to_formula(),
            catalog::star_query(1).to_formula(),
            catalog::star_query(3).to_formula(),
        ];
        sentences.extend(catalog::table2_open_problems().into_iter().map(|(_, f)| f));
        let mut prepared_sentences = 0;
        for sentence in &sentences {
            let voc = sentence.vocabulary();
            let Ok(prepared) = Fo2Prepared::prepare(sentence, &voc) else {
                continue;
            };
            prepared_sentences += 1;
            let nullary_free = voc.iter().all(|p| p.arity() > 0);
            // Unit weights, and weights with zeros and negatives for the
            // exact engine to drop and prune.
            let mut mixed = Weights::ones();
            for (i, p) in voc.iter().enumerate() {
                mixed.set(
                    p.name(),
                    weight_int(i as i64 % 3),
                    weight_int(1 - i as i64 % 2),
                );
            }
            for weights in [Weights::ones(), mixed] {
                let log_weights = AlgebraWeights::lift(&LogF64, &weights);
                for n in 1..=8 {
                    let estimate = prepared.estimate(n);
                    let (_, exact_stats) = exact(&prepared, n, &weights, false);
                    let (_, log_stats) = prepared
                        .count_in(n, &LogF64, &log_weights, false, &Guard::unarmed())
                        .unwrap();
                    for stats in [&exact_stats, &log_stats] {
                        assert!(
                            estimate >= stats.compositions_summed + stats.compositions_pruned,
                            "{sentence} at n = {n}: {estimate} < {stats:?}"
                        );
                    }
                    if nullary_free {
                        assert_eq!(
                            estimate, log_stats.compositions_total,
                            "{sentence} at n = {n}"
                        );
                    }
                }
            }
        }
        assert!(
            prepared_sentences >= 8,
            "{prepared_sentences} FO² sentences"
        );
    }

    /// The branch fan-out and the mask build go parallel on estimated work,
    /// not on `n` or the mask count: `∃y S(y)` has two branches and ten
    /// compositions at n = 8, so its branches sum on the caller's thread.
    #[test]
    fn fan_outs_are_gated_on_estimated_work() {
        let sentence = catalog::exists_unary();
        let prepared = Fo2Prepared::prepare(&sentence, &sentence.vocabulary()).unwrap();
        let bound = prepared.bind(&Exact, &AlgebraWeights::ones());
        assert_eq!(bound.branches.len(), 2);
        assert_eq!(prepared.estimate(8), 10);
        assert_eq!(prepared.branch_workers(2, 8, true), 1);
        let large = fanout::MIN_PARALLEL_WORK;
        assert!(prepared.estimate(large) >= fanout::MIN_PARALLEL_WORK);
        assert_eq!(
            prepared.branch_workers(2, large, true),
            fanout::cores().min(2)
        );
        assert_eq!(prepared.branch_workers(2, large, false), 1);

        // Four masks over four binary predicates evaluate the matrix about
        // 4·(2⁴ + 4⁴) times: too little to fan out. Six binary predicates
        // make it 4·(2⁶ + 4⁶).
        let binary = |b: usize| CellSpace {
            unary: vec![],
            binary: (0..b).map(|i| Predicate::new(format!("B{i}"), 2)).collect(),
        };
        assert_eq!(mask_workers(4, &binary(4)), 1);
        assert_eq!(mask_workers(1, &binary(6)), 1);
        assert_eq!(mask_workers(4, &binary(6)), fanout::cores().min(4));
    }

    /// Byte offset of the first branch's row class map in an encoded
    /// prepared state.
    fn class_map_offset(bytes: &[u8]) -> usize {
        let mut dec = snap::Dec::new(bytes);
        snap::decode_formula(&mut dec).unwrap();
        for _ in 0..4 {
            snap_decode_predicates(&mut dec).unwrap();
        }
        snap::decode_weights(&mut dec).unwrap();
        snap_decode_predicates(&mut dec).unwrap();
        assert!(dec.len().unwrap() >= 1, "at least one branch");
        dec.u64().unwrap();
        for _ in 0..dec.len().unwrap() {
            snap_decode_cell(&mut dec).unwrap();
        }
        bytes.len() - dec.remaining()
    }

    #[test]
    fn snapshot_decode_rejects_corrupt_class_maps() {
        // smokers: four cells in two row classes, class map `[k, c₀ … c₃]`.
        let sentence = catalog::smokers_constraint();
        let prepared = Fo2Prepared::prepare(&sentence, &sentence.vocabulary()).unwrap();
        assert_eq!((prepared.total_cells(), prepared.total_classes()), (4, 2));
        let mut enc = snap::Enc::new();
        prepared.snap_encode(&mut enc);
        let pristine = enc.into_bytes();
        let at = class_map_offset(&pristine);
        let entry = |i: usize| at + 8 * (1 + i);
        let decode = |bytes: &[u8]| {
            Fo2Prepared::snap_decode(&mut snap::Dec::new(bytes))
                .map(|_| ())
                .unwrap_err()
                .to_string()
        };
        assert!(Fo2Prepared::snap_decode(&mut snap::Dec::new(&pristine)).is_ok());

        // A class index ≥ the number of classes.
        let mut bytes = pristine.clone();
        bytes[entry(0)..entry(1)].copy_from_slice(&2u64.to_le_bytes());
        assert!(
            decode(&bytes).contains("out of range"),
            "{}",
            decode(&bytes)
        );
        let mut bytes = pristine.clone();
        bytes[entry(3)..entry(4)].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            decode(&bytes).contains("out of range"),
            "{}",
            decode(&bytes)
        );

        // A class with no member: every cell in class 0.
        let mut bytes = pristine.clone();
        for i in 0..4 {
            bytes[entry(i)..entry(i + 1)].copy_from_slice(&0u64.to_le_bytes());
        }
        assert!(
            decode(&bytes).contains("without a member"),
            "{}",
            decode(&bytes)
        );

        // A map one entry short or long of the four cells, with every class
        // still present.
        let classes: Vec<u64> = (0..4)
            .map(|i| u64::from_le_bytes(pristine[entry(i)..entry(i + 1)].try_into().unwrap()))
            .collect();
        for map in [vec![0u64, 1, 1], vec![0, 1, 1, 0, 1]] {
            assert!(classes.contains(&0) && classes.contains(&1));
            let mut bytes = pristine[..at].to_vec();
            bytes.extend_from_slice(&(map.len() as u64).to_le_bytes());
            for class in &map {
                bytes.extend_from_slice(&class.to_le_bytes());
            }
            bytes.extend_from_slice(&pristine[entry(4)..]);
            assert!(
                decode(&bytes).contains("does not match cells"),
                "{}",
                decode(&bytes)
            );
        }

        // Truncation anywhere in the class map or the class table is an
        // error, never a panic.
        for cut in at..pristine.len() {
            assert!(Fo2Prepared::snap_decode(&mut snap::Dec::new(&pristine[..cut])).is_err());
        }
    }
}
