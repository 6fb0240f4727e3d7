//! Prefix-sharing DFS engine for the FO² cell-decomposition sum.
//!
//! The sum of Appendix C has one term per composition `(m₁, …, m_k)` of the
//! domain size `n` into the `k` valid cells:
//!
//! `Σ (n; m₁…m_k) · Π_c u_c^{m_c} · Π_c r_{cc}^{C(m_c,2)} · Π_{i<j} r_{ij}^{m_i·m_j}`
//!
//! Enumerating compositions and evaluating each term from scratch costs
//! `O(k²)` big-rational exponentiations per term. This engine instead
//! recurses over the cells, fixing the counts one cell at a time, and
//! maintains per prefix:
//!
//! * the partial term (multinomial factor as a product of binomials,
//!   cell-weight powers, within-cell pair powers, cross pairs among fixed
//!   cells), and
//! * for every not-yet-fixed cell `j` the running cross product
//!   `R_j = Π_{i fixed} r_{ij}^{m_i}`,
//!
//! so extending a prefix by one cell costs O(k) multiplications and all
//! compositions sharing a prefix share its work. Powers of the per-cell bases
//! come from [`Powers`] caches (dense tables up to `n`, memoized
//! square-and-multiply beyond). Cells with zero weight are dropped up front,
//! and a whole subtree is cut as soon as the running term hits zero, which is
//! what makes hard constraints (zero-weight pair entries) collapse the search
//! space instead of merely zeroing terms late.
//!
//! Interchangeable cells are merged up front too. A class of `c` cells with
//! equal weights `u`, `r_ii = r_jj = r_ij` inside the class and equal pair
//! entries against every other cell becomes one cell of weight `c·u`: the
//! splits of `M` elements over the class sum to `c^M` by the multinomial
//! theorem, and all `C(M,2)` pairs inside it carry `r`. The DFS then ranges
//! over compositions into fewer cells (table1 FOMC at n = 30: 7 cells
//! become 4, 1 947 792 compositions become 5 456). Whether cells coincide
//! depends on the bound weights — unit-weight FOMC and the (1, 1) auxiliary
//! predicates of the MLN reduction make many copies — so the merge happens
//! here, per count, not at prepare time. Both the zero-cell drop and the
//! merge are skipped for order-sensitive algebras (log-space floats and
//! their lanes), whose traversal must not depend on the weights.
//!
//! The sum is split by the first cell's count `m₀`: each `m₀` is one task
//! on a work-stealing pool ([`stealer`]), drained by several threads when
//! the caller allows parallelism and the sum is large enough, by the calling
//! thread otherwise. Each `m₀` sums into its own partial and the partials
//! are added in `m₀` order, so every addition groups the same way with
//! parallelism on or off and on any number of cores: log-space results are
//! bit-identical across those settings.
//!
//! At the bottom of the DFS a fused loop runs over the counts of the last two
//! cells. Its compositions share the prefix term, so their leaf values are
//! summed first and the prefix term multiplies that sum once per loop rather
//! than once per composition: for exact counts the prefix term carries most
//! of the `Θ(n²)` bits, so that product is the most expensive one. The
//! `term × Σ leaves` products accumulate through a balanced sum tree
//! ([`BalancedSum`]) rather than a running `+=`, so each exact-rational
//! addition combines operands of comparable size instead of adding a small
//! term to an ever-growing total.
//!
//! The engine ([`cell_sum_elems`], its one entry point) only adds and
//! multiplies, so it is generic over the evaluation [`Algebra`] — the
//! zero-subtree cutoff is sound in any ring because `0 · x = 0`. It does no
//! weight tricks of its own: exact counts reach it with integer weights,
//! because [`crate::plan::Plan`] clears the denominators of every weight
//! pair before binding (see [`Algebra::pair_scale`]), so the hot loop
//! multiplies gcd-free integers.
//!
//! The engine runs under a resource [`Guard`]: every DFS worker meters
//! its nodes and compositions through its own [`Meter`], so deadlines, work
//! caps and cancellation interrupt the sum mid-search. Ungoverned callers
//! pass [`Guard::unarmed`], whose meters cost one local add and compare per
//! tick.
//!
//! The seed implementation's term-by-term enumeration is kept under
//! `cfg(test)` as the differential-testing oracle.

use wfomc_guard::{Guard, Interrupt, Meter};
use wfomc_logic::algebra::{Algebra, Powers};
use wfomc_logic::weights::weight_int;

use crate::combinatorics::{binomial_weight_triangle, num_compositions};

/// Guard phase name for the DFS engine.
const PHASE: &str = "fo2.cellsum";

/// Cost statistics for one cell-decomposition sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellSumStats {
    /// Valid cells (1-types satisfying the diagonal constraint).
    pub valid_cells: usize,
    /// Valid cells dropped up front because their weight `u_c` is zero.
    pub zero_weight_cells_pruned: usize,
    /// Non-zero cells folded into an interchangeable cell before the DFS
    /// (always zero under order-sensitive algebras).
    pub cells_merged: usize,
    /// Compositions whose term was actually evaluated (leaves reached).
    pub compositions_summed: usize,
    /// Compositions skipped by zero-term subtree cutoffs.
    pub compositions_pruned: usize,
    /// All compositions over the cells the DFS ranges over (non-zero,
    /// merged): `summed + pruned` (saturating).
    pub compositions_total: usize,
}

/// The cell-decomposition sum in an arbitrary [`Algebra`]: `u[c]` are the
/// cell weights, `table` the symmetric pair table, both as ring elements.
/// This is the engine itself — no denominator tricks, no weight binding —
/// shared by every algebra. `parallel` allows the engine to drain the
/// top-level cell split with several threads (callers that already run
/// branches concurrently pass `false`); the result does not depend on it.
/// Each DFS worker meters its work against `guard`; an interrupted sum
/// discards its partial accumulators, so retrying simply restarts it.
pub fn cell_sum_elems<A: Algebra>(
    algebra: &A,
    u: &[A::Elem],
    table: &[Vec<A::Elem>],
    n: usize,
    parallel: bool,
    guard: &Guard,
) -> Result<(A::Elem, CellSumStats), Interrupt> {
    wfomc_guard::failpoint(PHASE)?;
    if u.is_empty() {
        return Ok((algebra.zero(), CellSumStats::default()));
    }
    let engine = Engine::new(algebra, u, table, n);

    let mut stats = CellSumStats {
        valid_cells: u.len(),
        zero_weight_cells_pruned: engine.zero_cells_dropped,
        cells_merged: engine.cells_merged,
        compositions_total: num_compositions(n, engine.k),
        ..CellSumStats::default()
    };

    if engine.k == 0 {
        // Every cell has zero weight: only the empty domain has a (single,
        // empty) composition.
        let total = if n == 0 {
            algebra.one()
        } else {
            algebra.zero()
        };
        stats.compositions_summed = usize::from(n == 0);
        return Ok((total, stats));
    }

    let (total, summed, pruned) = engine.sum_by_first_cell(engine.thread_count(parallel), guard)?;
    stats.compositions_summed = summed;
    stats.compositions_pruned = pruned;
    Ok((total, stats))
}

/// Immutable per-branch state shared by all DFS workers.
struct Engine<'a, A: Algebra> {
    algebra: &'a A,
    /// Domain size.
    n: usize,
    /// Number of cells the DFS ranges over: the non-zero cells, one per
    /// class of interchangeable cells.
    k: usize,
    /// Valid cells dropped because their weight is zero.
    zero_cells_dropped: usize,
    /// Non-zero cells folded into another cell of their class.
    cells_merged: usize,
    /// Cell weights, re-indexed over the DFS cells: `c · u_c` for a class
    /// of `c` interchangeable cells.
    u: Vec<A::Elem>,
    /// Within-cell pair entries `r_{cc}`.
    diag: Vec<A::Elem>,
    /// The full symmetric cross table `r_{ij}` over the non-zero cells.
    cross: Vec<Vec<A::Elem>>,
    /// Pascal's triangle covering rows `0..=n`, injected into the algebra.
    binom: Vec<Vec<A::Elem>>,
    /// Which (re-indexed) cells have zero weight. Order-sensitive algebras
    /// keep such cells in the traversal; the DFS skips their dead work
    /// (running cross-product maintenance, tail power tables) since every
    /// `m > 0` branch of a zero-weight cell is pruned before those values
    /// are read.
    zero_u: Vec<bool>,
}

/// Groups the `keep` cells into classes of interchangeable cells, returned
/// as `(representative, class size)` in first-seen order. Cells `i` and `j`
/// are interchangeable when `u_i = u_j`, `r_ii = r_jj = r_ij` and
/// `r_il = r_jl` for every other kept cell `l`. The relation is transitive
/// over these conditions, so comparing each cell with the class
/// representatives alone is enough.
///
/// A class of `c` such cells can stand in the sum as one cell of weight
/// `c · u` with the same pair entries: the compositions that put `M`
/// elements into the class share every factor except the multinomial, all
/// `C(M, 2)` pairs inside the class carry `r`, and the splits of `M` over
/// the class sum to `c^M` by the multinomial theorem.
fn interchangeable_classes<E: PartialEq>(
    keep: &[usize],
    u: &[E],
    table: &[Vec<E>],
) -> Vec<(usize, usize)> {
    let mut classes: Vec<(usize, usize)> = Vec::new();
    for &j in keep {
        let same = |i: usize| {
            let r = &table[i][i];
            u[i] == u[j]
                && table[j][j] == *r
                && table[i][j] == *r
                && keep
                    .iter()
                    .all(|&l| l == i || l == j || table[i][l] == table[j][l])
        };
        match classes.iter_mut().find(|(i, _)| same(*i)) {
            Some((_, size)) => *size += 1,
            None => classes.push((j, 1)),
        }
    }
    classes
}

impl<'a, A: Algebra> Engine<'a, A> {
    fn new(algebra: &'a A, u: &[A::Elem], table: &[Vec<A::Elem>], n: usize) -> Engine<'a, A> {
        // `(cell, multiplicity)` pairs the DFS ranges over.
        let (classes, zero_cells_dropped) = if algebra.order_sensitive() {
            // Order-sensitive algebras need a weight-independent traversal:
            // dropping zero-weight cells, merging equal cells or reordering
            // by zero pattern would regroup the floating-point sums and
            // products, so two runs that differ only in which weights happen
            // to be zero (or equal) would no longer agree bit for bit (and a
            // lane run could not match its scalar lanes). Zero-weight cells
            // cost little here: their `m = 0` branch multiplies by an exact
            // one and every `m > 0` branch is pruned (scalars) or contributes
            // a canonical zero (lanes).
            ((0..u.len()).map(|i| (i, 1)).collect::<Vec<_>>(), 0)
        } else {
            let keep: Vec<usize> = (0..u.len()).filter(|&i| !algebra.is_zero(&u[i])).collect();
            let mut classes = interchangeable_classes(&keep, u, table);
            // Visit cells whose table row has many zeros first: a zero running
            // cross product or zero diagonal kills a subtree as soon as the
            // DFS reaches it, so front-loading constrained cells maximizes
            // sharing of the cutoff. The sum itself is symmetric in the cell
            // order.
            let reps: Vec<usize> = classes.iter().map(|&(i, _)| i).collect();
            classes.sort_by_key(|&(i, _)| {
                let zeros = reps
                    .iter()
                    .filter(|&&j| algebra.is_zero(&table[i][j]))
                    .count();
                std::cmp::Reverse(zeros)
            });
            (classes, u.len() - keep.len())
        };
        let order: Vec<usize> = classes.iter().map(|&(i, _)| i).collect();

        let binom_triangle = binomial_weight_triangle(n);
        Engine {
            algebra,
            n,
            k: order.len(),
            zero_cells_dropped,
            cells_merged: u.len() - zero_cells_dropped - order.len(),
            u: classes
                .iter()
                .map(|&(i, c)| match c {
                    1 => u[i].clone(),
                    _ => algebra.mul(&u[i], &algebra.from_weight(&weight_int(c as i64))),
                })
                .collect(),
            diag: order.iter().map(|&i| table[i][i].clone()).collect(),
            cross: order
                .iter()
                .map(|&i| order.iter().map(|&j| table[i][j].clone()).collect())
                .collect(),
            binom: binom_triangle
                .iter()
                .map(|row| row.iter().map(|w| algebra.from_weight(w)).collect())
                .collect(),
            zero_u: order.iter().map(|&i| algebra.is_zero(&u[i])).collect(),
        }
    }

    /// How many workers the top-level cell split should use: the fan-out
    /// gate on the compositions the DFS ranges over (after the zero-cell
    /// drop and the merge), one task per first-cell count `m₀`.
    fn thread_count(&self, parallel: bool) -> usize {
        if !parallel || self.k < 2 || self.n < 2 {
            return 1;
        }
        crate::fanout::workers_for(self.n + 1, num_compositions(self.n, self.k))
    }

    /// Sums the decomposition one top-level count `m₀` at a time, on
    /// `threads` workers draining a work-stealing pool (the calling thread
    /// alone when `threads == 1`): subtree costs vary wildly with `m₀` (a
    /// zero `u₀^{m₀}` prunes everything, small `m₀` leaves the most elements
    /// to distribute), so a fixed round-robin split skews badly while
    /// stealing rebalances as workers run dry. Each `m₀` sums into its own
    /// partial, and the partials are merged in `m₀` order whichever worker
    /// computed them. The grouping of every addition — and with it any
    /// floating-point rounding — is therefore the same for every thread
    /// count, so a log-space count is bit-identical with parallelism on or
    /// off, on any number of cores. Every worker gets its own meter; if any
    /// worker is interrupted, the whole sum reports that interrupt (the
    /// other workers trip on the same shared guard state within one check
    /// period). A worker panic is resumed on the joining thread, where the
    /// plan layer's per-point containment turns it into
    /// `SolveError::WorkerPanicked`.
    fn sum_by_first_cell(
        &self,
        threads: usize,
        guard: &Guard,
    ) -> Result<(A::Elem, usize, usize), Interrupt> {
        let n = self.n;
        let algebra = self.algebra;
        let pool = stealer::Pool::new(threads);
        // With a single cell, `m₀ = n` is the only composition.
        pool.seed(if self.k == 1 { n..=n } else { 0..=n });
        type WorkerResult<E> = Result<(Vec<(usize, E)>, usize, usize), Interrupt>;
        let drain = |t: usize| -> WorkerResult<A::Elem> {
            let mut queue = pool.worker(t);
            let mut worker = Worker::new(self, guard);
            let mut row0: Vec<Powers<A>> = (1..self.k)
                .map(|j| Powers::new(algebra, self.cross[0][j].clone(), n))
                .collect();
            let mut partials = Vec::new();
            while let Some(m0) = queue.pop() {
                worker.top_level(m0, &mut row0)?;
                let sum = std::mem::replace(&mut worker.total, BalancedSum::new(algebra));
                partials.push((m0, sum.finish(algebra)));
            }
            Ok((partials, worker.summed, worker.pruned))
        };
        let results = if threads == 1 {
            vec![drain(0)]
        } else {
            let drain = &drain;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| scope.spawn(move || drain(t)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                    })
                    .collect::<Vec<_>>()
            })
        };
        wfomc_obs::metrics::CELLSUM_STEALS.add(pool.steals());
        let mut slots: Vec<Option<A::Elem>> = vec![None; n + 1];
        let mut summed = 0usize;
        let mut pruned = 0usize;
        for result in results {
            let (partials, s, p) = result?;
            for (m0, value) in partials {
                slots[m0] = Some(value);
            }
            summed = summed.saturating_add(s);
            pruned = pruned.saturating_add(p);
        }
        let mut total = algebra.zero();
        for value in slots.into_iter().flatten() {
            algebra.add_assign(&mut total, &value);
        }
        Ok((total, summed, pruned))
    }
}

/// A balanced sum-tree accumulator over a ring.
///
/// A running `total += term` adds every new term to the full accumulated
/// sum, so with exact big-rational arithmetic each addition costs the *size
/// of the total* — the dominant cost once the cell-sum total grows to
/// thousands of limbs while individual `term × leaf` products stay small.
/// This accumulator instead keeps a binary counter of partial sums: slot `i`
/// holds the sum of exactly `2^i` pushed terms, and a push carries upward
/// like binary increment. Every addition therefore combines operands of
/// comparable size, and each term participates in only `O(log N)` additions
/// of geometrically growing operands — the classic balanced-reduction
/// argument. The total number of ring additions is the same as for a running
/// total; only the operand sizes change.
///
/// The tree only pays off when addition cost grows with the operand — for
/// constant-size elements ([`Algebra::growing_elements`] is `false`, e.g.
/// log-space floats) the accumulator degrades gracefully to a plain running
/// total in slot 0, keeping the counter bookkeeping off that hot path.
pub struct BalancedSum<A: Algebra> {
    /// `slots[i]` is either empty or the sum of exactly `2^i` terms
    /// (balanced mode); in running mode only slot 0 is used.
    slots: Vec<Option<A::Elem>>,
    balanced: bool,
    /// Ring additions performed so far — a plain local tally, flushed to the
    /// `fo2.cellsum.balanced_sum_merges` counter once in [`finish`], so the
    /// hot push loop never touches an atomic.
    merges: u64,
}

impl<A: Algebra> BalancedSum<A> {
    /// An empty accumulator, balanced exactly when the algebra's elements
    /// grow with their magnitude.
    pub fn new(algebra: &A) -> Self {
        BalancedSum {
            slots: Vec::new(),
            balanced: algebra.growing_elements(),
            merges: 0,
        }
    }

    /// Adds one term (binary-counter carry: merge equal-weight partial sums
    /// until an empty slot absorbs the carry).
    pub fn push(&mut self, algebra: &A, mut value: A::Elem) {
        if !self.balanced {
            match self.slots.first_mut().and_then(Option::as_mut) {
                Some(total) => {
                    algebra.add_assign(total, &value);
                    self.merges += 1;
                }
                None => self.slots = vec![Some(value)],
            }
            return;
        }
        for slot in &mut self.slots {
            match slot.take() {
                None => {
                    *slot = Some(value);
                    return;
                }
                Some(other) => {
                    algebra.add_assign(&mut value, &other);
                    self.merges += 1;
                }
            }
        }
        self.slots.push(Some(value));
    }

    /// Folds the remaining partial sums, smallest first, into the total.
    pub fn finish(mut self, algebra: &A) -> A::Elem {
        let mut acc: Option<A::Elem> = None;
        for value in self.slots.drain(..).flatten() {
            acc = Some(match acc {
                None => value,
                Some(mut sum) => {
                    algebra.add_assign(&mut sum, &value);
                    self.merges += 1;
                    sum
                }
            });
        }
        wfomc_obs::metrics::BALANCED_SUM_MERGES.add(self.merges);
        acc.unwrap_or_else(|| algebra.zero())
    }
}

/// One DFS worker: owns the mutable power caches, accumulators and its meter.
struct Worker<'e, 'g, A: Algebra> {
    eng: &'e Engine<'e, A>,
    /// Budget meter, ticked once per DFS node and per evaluated composition.
    meter: Meter<'g>,
    /// Per-cell power caches for `u_c`.
    u_pows: Vec<Powers<A>>,
    /// Per-cell power caches for `r_{cc}` (exponents `C(m,2)` can exceed `n`,
    /// where the caches fall back to memoized square-and-multiply).
    diag_pows: Vec<Powers<A>>,
    /// `own[c][m] = u_c^m · r_cc^{C(m,2)}`, the factor cell `c` contributes
    /// for count `m`, filled on first use: every prefix that reaches cell `c`
    /// needs the same few factors, and the fused bottom loop reads two per
    /// composition.
    own: Vec<Vec<A::Elem>>,
    /// Power cache for `r_{ab}` of the two cells fixed last, whose exponents
    /// `m_a · m_b` the fused bottom loop looks up directly.
    last_pair_pows: Option<Powers<A>>,
    /// Scratch buffer for `R_b^t`, `t = 0..=rem`, in the fused bottom loop.
    tail_pows: Vec<A::Elem>,
    /// `term × leaf` products accumulate through a balanced sum tree so the
    /// operands of each addition stay comparable in size (see
    /// [`BalancedSum`]).
    total: BalancedSum<A>,
    summed: usize,
    pruned: usize,
}

impl<'e, 'g, A: Algebra> Worker<'e, 'g, A> {
    fn new(eng: &'e Engine<'e, A>, guard: &'g Guard) -> Worker<'e, 'g, A> {
        let algebra = eng.algebra;
        Worker {
            meter: Meter::new(guard, PHASE),
            u_pows: eng
                .u
                .iter()
                .map(|u| Powers::new(algebra, u.clone(), eng.n))
                .collect(),
            diag_pows: eng
                .diag
                .iter()
                .map(|d| Powers::new(algebra, d.clone(), eng.n))
                .collect(),
            own: vec![Vec::new(); eng.k],
            last_pair_pows: (eng.k >= 2)
                .then(|| Powers::new(algebra, eng.cross[eng.k - 2][eng.k - 1].clone(), eng.n)),
            tail_pows: Vec::new(),
            eng,
            total: BalancedSum::new(algebra),
            summed: 0,
            pruned: 0,
        }
    }

    /// The factor a single cell contributes for count `m`:
    /// `u^m · r_cc^{C(m,2)}`, memoized in [`Worker::own`] (filled up to `m`).
    fn own_factor(&mut self, cell: usize, m: usize) -> &A::Elem {
        let algebra = self.eng.algebra;
        while self.own[cell].len() <= m {
            let j = self.own[cell].len();
            let u = self.u_pows[cell].pow_ref(algebra, j);
            let factor = if j < 2 || algebra.is_zero(u) {
                u.clone()
            } else {
                let d = self.diag_pows[cell].pow_ref(algebra, j * (j - 1) / 2);
                algebra.mul(u, d)
            };
            self.own[cell].push(factor);
        }
        &self.own[cell][m]
    }

    /// Handles one top-level count `m₀` (the unit of parallel work): cells
    /// `1..k` then run through the ordinary DFS. A single cell (`k = 1`,
    /// seeded with `m₀ = n` only) is the DFS leaf itself.
    fn top_level(&mut self, m0: usize, row0: &mut [Powers<A>]) -> Result<(), Interrupt> {
        let algebra = self.eng.algebra;
        let n = self.eng.n;
        if self.eng.k == 1 {
            return self.dfs(0, n, &algebra.one(), &[algebra.one()]);
        }
        let mut factor = self.own_factor(0, m0).clone();
        if algebra.is_zero(&factor) {
            self.pruned = self
                .pruned
                .saturating_add(num_compositions(n - m0, self.eng.k - 1));
            return Ok(());
        }
        algebra.mul_assign(&mut factor, &self.eng.binom[n][m0]);
        let child: Vec<A::Elem> = row0.iter_mut().map(|c| c.pow(algebra, m0)).collect();
        self.dfs(1, n - m0, &factor, &child)
    }

    /// Fixes the count of cell `i`, with `rem` elements left to distribute.
    /// `term` is the partial term of the prefix and `r[d]` the running cross
    /// product `R_{i+d}` of cell `i+d` against all fixed cells.
    fn dfs(
        &mut self,
        i: usize,
        rem: usize,
        term: &A::Elem,
        r: &[A::Elem],
    ) -> Result<(), Interrupt> {
        debug_assert_eq!(r.len(), self.eng.k - i);
        let algebra = self.eng.algebra;
        self.meter.tick(1)?;
        if i + 2 == self.eng.k {
            return self.last_two(i, rem, term, r);
        }
        if i + 1 == self.eng.k {
            // Last cell: its count is forced to `rem`.
            self.summed += 1;
            let mut leaf = self.own_factor(i, rem).clone();
            if !algebra.is_zero(&leaf) {
                algebra.mul_assign(&mut leaf, &algebra.pow(&r[0], rem));
            }
            if !algebra.is_zero(&leaf) {
                self.total.push(algebra, algebra.mul(term, &leaf));
            }
            return Ok(());
        }
        let cells_after = self.eng.k - i - 1;
        if algebra.is_zero(self.u_pows[i].base()) {
            // A zero-weight cell (kept, not dropped, by order-sensitive
            // algebras): `u^m = 0` for every `m > 0`, so only the `m = 0`
            // branch survives — and that branch multiplies the term by exact
            // ones (`u⁰`, `R⁰`, `binom[rem][0]`), which float algebras
            // preserve bit-for-bit. Recurse straight into it instead of
            // paying a child cross-product update for the doomed `m = 1`
            // probe; the pruned-composition accounting matches what the loop
            // would have recorded on that probe.
            if rem > 0 {
                self.pruned = self
                    .pruned
                    .saturating_add(num_compositions(rem - 1, cells_after + 1));
            }
            return self.dfs(i + 1, rem, term, &r[1..]);
        }
        // R_i^m and the children's cross products, maintained incrementally:
        // one multiplication each per extra element in cell i.
        let mut rpow = algebra.one();
        let mut child: Vec<A::Elem> = r[1..].to_vec();
        for m in 0..=rem {
            if m > 0 {
                algebra.mul_assign(&mut rpow, &r[0]);
                for (d, slot) in child.iter_mut().enumerate() {
                    // A zero-weight child never reads its running cross
                    // product: it recurses straight through its `m = 0`
                    // branch (or, as the last cell, hits a zero leaf before
                    // the product is consumed). Skipping the update leaves a
                    // stale slot that is provably never observed.
                    if self.eng.zero_u[i + 1 + d] {
                        continue;
                    }
                    algebra.mul_assign(slot, &self.eng.cross[i][i + 1 + d]);
                }
            }
            let own = self.own_factor(i, m);
            let mut factor = if algebra.is_zero(own) {
                own.clone()
            } else {
                algebra.mul(own, &rpow)
            };
            if algebra.is_zero(&factor) {
                // u^m, r_cc^{C(m,2)} and R^m each stay zero as m grows, so
                // every composition with a larger count for this cell is zero
                // too: cut the whole tail of the loop.
                self.pruned = self
                    .pruned
                    .saturating_add(num_compositions(rem - m, cells_after + 1));
                return Ok(());
            }
            algebra.mul_assign(&mut factor, &self.eng.binom[rem][m]);
            self.dfs(i + 1, rem - m, &algebra.mul(term, &factor), &child)?;
        }
        Ok(())
    }

    /// Fused loop over the counts of the last two cells `a = k−2`, `b = k−1`
    /// (`m_a = m`, `m_b = rem − m`). Every composition ending here is one
    /// iteration: `R_a^m` is maintained incrementally, `R_b^t` is tabulated
    /// once per call (one multiplication per composition, amortized), and
    /// `r_{ab}^{m·t}` comes from a memoized per-pair power cache — no
    /// per-leaf square-and-multiply. The leaves share the prefix term, so
    /// they are summed on their own and `term` multiplies their sum once per
    /// call: one product against the (typically largest) prefix term instead
    /// of one per composition.
    fn last_two(
        &mut self,
        a: usize,
        rem: usize,
        term: &A::Elem,
        r: &[A::Elem],
    ) -> Result<(), Interrupt> {
        let algebra = self.eng.algebra;
        let b = a + 1;
        // tail_pows[t] = R_b^t.
        let mut tail_pows = std::mem::take(&mut self.tail_pows);
        tail_pows.clear();
        tail_pows.push(algebra.one());
        if !self.eng.zero_u[b] {
            // When cell `b` has zero weight, `tail_pows[t]` is only ever read
            // at `t = 0` (every `t > 0` leaf dies on `u_b^t = 0` first), so
            // the table stops at the exact one.
            for t in 1..=rem {
                let next = algebra.mul(&tail_pows[t - 1], &r[1]);
                tail_pows.push(next);
            }
        }
        let mut a_pow = algebra.one(); // R_a^m
        let mut leaves: Option<A::Elem> = None;
        for m in 0..=rem {
            if let Err(stop) = self.meter.tick(1) {
                self.tail_pows = tail_pows;
                return Err(stop);
            }
            if m > 0 {
                algebra.mul_assign(&mut a_pow, &r[0]);
            }
            let t = rem - m;
            let own = self.own_factor(a, m);
            let a_side = if algebra.is_zero(own) {
                own.clone()
            } else {
                algebra.mul(own, &a_pow)
            };
            if algebra.is_zero(&a_side) {
                // Zero persists as m grows: every remaining composition
                // (one per larger m) is zero too.
                self.pruned = self.pruned.saturating_add(rem - m + 1);
                break;
            }
            self.summed += 1;
            let own = self.own_factor(b, t);
            let mut leaf = if algebra.is_zero(own) {
                own.clone()
            } else {
                algebra.mul(own, &tail_pows[t])
            };
            if !algebra.is_zero(&leaf) && m > 0 && t > 0 {
                let pair = self
                    .last_pair_pows
                    .as_mut()
                    .expect("pair cache exists when k >= 2");
                algebra.mul_assign(&mut leaf, pair.pow_ref(algebra, m * t));
            }
            if !algebra.is_zero(&leaf) {
                algebra.mul_assign(&mut leaf, &a_side);
                algebra.mul_assign(&mut leaf, &self.eng.binom[rem][m]);
                match &mut leaves {
                    Some(sum) => algebra.add_assign(sum, &leaf),
                    None => leaves = Some(leaf),
                }
            }
        }
        self.tail_pows = tail_pows; // hand the scratch buffer back
        if let Some(sum) = leaves {
            self.total.push(algebra, algebra.mul(term, &sum));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_traits::{One, Zero};
    use proptest::prelude::*;
    use wfomc_ground::wfomc as ground_wfomc;
    use wfomc_logic::algebra::{AlgebraWeights, Exact, LogF64, Poly};
    use wfomc_logic::builders::*;
    use wfomc_logic::catalog;
    use wfomc_logic::weights::{weight_pow, weight_ratio, Weight, Weights};

    use wfomc_logic::syntax::Formula;

    use crate::error::LiftError;
    use crate::fo2::cells::tests::exact_cells;
    use crate::fo2::cells::CellSpace;
    use crate::fo2::normalize::{fo2_normal_form, Fo2Shape};
    use crate::fo2::prepare::Fo2Prepared;

    /// The exact cell sum of one Shannon-free normal form: binds the cells
    /// and the pair table, then runs the engine unguarded.
    fn cell_sum(
        matrix: &Formula,
        space: &CellSpace,
        shape: &Fo2Shape,
        n: usize,
        parallel: bool,
    ) -> (Weight, CellSumStats) {
        let (_, u, table) = exact_cells(matrix, space, &shape.weights).unwrap();
        cell_sum_elems(&Exact, &u, &table, n, parallel, &Guard::unarmed()).unwrap()
    }

    /// The exact count of a prepared sentence with its statistics.
    fn prepared_count(
        prepared: &Fo2Prepared,
        n: usize,
        weights: &Weights,
        parallel: bool,
    ) -> Result<(Weight, crate::fo2::Fo2Stats), Interrupt> {
        let lifted = AlgebraWeights::lift(&Exact, weights);
        prepared.count_in(n, &Exact, &lifted, parallel, &Guard::unarmed())
    }

    /// The seed implementation — term-by-term enumeration over all compositions —
    /// kept as the differential-testing oracle for the DFS engine.
    fn cell_sum_enumeration(
        matrix: &Formula,
        space: &CellSpace,
        shape: &Fo2Shape,
        n: usize,
    ) -> Result<(Weight, CellSumStats), LiftError> {
        use crate::combinatorics::{compositions, multinomial_weight};

        let (_, u, table) = exact_cells(matrix, space, &shape.weights)?;
        if u.is_empty() {
            return Ok((Weight::zero(), CellSumStats::default()));
        }

        let k = u.len();
        let mut total = Weight::zero();
        let mut num_terms = 0usize;
        for comp in compositions(n, k) {
            num_terms += 1;
            let mut term = multinomial_weight(n, &comp);
            for (c, &count) in comp.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                term *= weight_pow(&u[c], count);
                // Pairs within the same cell.
                term *= weight_pow(&table[c][c], count * (count - 1) / 2);
            }
            if term.is_zero() {
                continue;
            }
            for i in 0..k {
                if comp[i] == 0 {
                    continue;
                }
                for j in (i + 1)..k {
                    if comp[j] == 0 {
                        continue;
                    }
                    term *= weight_pow(&table[i][j], comp[i] * comp[j]);
                }
            }
            total += term;
        }
        let stats = CellSumStats {
            valid_cells: k,
            zero_weight_cells_pruned: 0,
            cells_merged: 0,
            compositions_summed: num_terms,
            compositions_pruned: 0,
            compositions_total: num_terms,
        };
        Ok((total, stats))
    }

    /// Runs both cell-sum engines on every Shannon-free sentence shape and
    /// checks value equality plus the stats invariants.
    fn check_engines_agree(sentence: &Formula, weights: &Weights, n: usize) {
        let voc = sentence.vocabulary();
        let shape = fo2_normal_form(sentence, &voc, weights).expect("normalizable");
        let mut counted: Vec<_> = shape.matrix.vocabulary().predicates().to_vec();
        for p in &shape.introduced {
            if !counted.contains(p) {
                counted.push(p.clone());
            }
        }
        let space = CellSpace {
            unary: counted.iter().filter(|p| p.arity() == 1).cloned().collect(),
            binary: counted.iter().filter(|p| p.arity() == 2).cloned().collect(),
        };
        if counted.iter().any(|p| p.arity() == 0) {
            // Shannon branches are exercised through `Fo2Prepared` instead.
            return;
        }
        let (dfs_total, dfs_stats) = cell_sum(&shape.matrix, &space, &shape, n, true);
        let (legacy_total, legacy_stats) =
            cell_sum_enumeration(&shape.matrix, &space, &shape, n).unwrap();
        assert_eq!(
            dfs_total, legacy_total,
            "value mismatch for {sentence} at n={n}"
        );
        assert_eq!(dfs_stats.valid_cells, legacy_stats.valid_cells);
        // The DFS ranges over the non-zero cells only; evaluated plus pruned
        // compositions must exactly tile that space.
        assert_eq!(
            dfs_stats.compositions_summed + dfs_stats.compositions_pruned,
            dfs_stats.compositions_total,
            "composition accounting for {sentence} at n={n}"
        );
        assert_eq!(
            dfs_stats.compositions_total,
            crate::combinatorics::num_compositions(
                n,
                dfs_stats.valid_cells - dfs_stats.zero_weight_cells_pruned - dfs_stats.cells_merged
            )
        );
    }

    /// The top-level split fans out only when asked to and when the sum is
    /// large enough to pay for the threads: table1 at n = 30 ranges over
    /// thousands of compositions.
    #[test]
    fn large_sums_split_over_the_cores_only_when_parallel() {
        let sentence = catalog::table1_sentence();
        let shape = fo2_normal_form(&sentence, &sentence.vocabulary(), &Weights::ones()).unwrap();
        let counted = shape.matrix.vocabulary().predicates().to_vec();
        let space = CellSpace {
            unary: counted.iter().filter(|p| p.arity() == 1).cloned().collect(),
            binary: counted.iter().filter(|p| p.arity() == 2).cloned().collect(),
        };
        let (_, u, table) = exact_cells(&shape.matrix, &space, &shape.weights).unwrap();
        let n = 30;
        let engine = Engine::new(&Exact, &u, &table, n);
        assert!(num_compositions(n, engine.k) >= 4096, "k = {}", engine.k);
        let cores = crate::fanout::cores();
        assert_eq!(engine.thread_count(true), cores.min(n + 1));
        if cores >= 2 {
            assert!(engine.thread_count(true) > 1);
        }
        assert_eq!(engine.thread_count(false), 1);
    }

    #[test]
    fn balanced_sum_matches_sequential_addition() {
        // Exact ring: reassociation cannot change the value.
        let mut tree = BalancedSum::new(&Exact);
        let mut seq = Weight::zero();
        for i in 0..=100i64 {
            let term = weight_ratio(i * i - 7, 1 + i);
            seq += &term;
            tree.push(&Exact, term);
        }
        assert_eq!(tree.finish(&Exact), seq);
        // Empty and single-element accumulators.
        assert_eq!(BalancedSum::new(&Exact).finish(&Exact), Weight::zero());
        let mut one = BalancedSum::new(&Exact);
        one.push(&Exact, weight_ratio(3, 4));
        assert_eq!(one.finish(&Exact), weight_ratio(3, 4));
        // Non-power-of-two counts leave a mixed set of filled slots.
        for count in [2usize, 3, 5, 31, 33] {
            let mut tree = BalancedSum::new(&Exact);
            for _ in 0..count {
                tree.push(&Exact, Weight::one());
            }
            assert_eq!(tree.finish(&Exact), weight_ratio(count as i64, 1));
        }
        // Running mode (LogF64 has constant-size elements) still sums.
        let mut log_tree = BalancedSum::new(&LogF64);
        for i in 1..=10i64 {
            log_tree.push(&LogF64, LogF64.from_weight(&weight_ratio(i, 1)));
        }
        assert!((log_tree.finish(&LogF64).to_f64() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn engines_agree_on_catalog_sentences() {
        let weight_sets = [
            Weights::ones(),
            Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1)]),
            // Zero weights: whole cells drop out.
            Weights::from_ints([("R", 0, 1), ("S", 1, 0), ("T", 2, 2)]),
            // Negative weights.
            Weights::from_ints([("R", -1, 2), ("S", 3, -2), ("T", 1, 1)]),
        ];
        for weights in &weight_sets {
            for n in 0..=5 {
                check_engines_agree(&catalog::table1_sentence(), weights, n);
                check_engines_agree(&catalog::forall_exists_edge(), weights, n);
            }
        }
    }

    #[test]
    fn engines_agree_on_equality_matrix() {
        let f = forall(["x", "y"], or(vec![eq("x", "y"), atom("R", &["x", "y"])]));
        for n in 0..=5 {
            check_engines_agree(&f, &Weights::from_ints([("R", 2, 3)]), n);
            check_engines_agree(&f, &Weights::from_ints([("R", 0, 3)]), n);
        }
    }

    #[test]
    fn parallel_split_matches_serial() {
        // Large enough to clear the engine's parallelism threshold.
        let f = catalog::table1_sentence();
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1)]);
        let n = 13;
        let shape = fo2_normal_form(&f, &voc, &weights).unwrap();
        let counted: Vec<_> = shape.matrix.vocabulary().predicates().to_vec();
        let space = CellSpace {
            unary: counted.iter().filter(|p| p.arity() == 1).cloned().collect(),
            binary: counted.iter().filter(|p| p.arity() == 2).cloned().collect(),
        };
        let (par, par_stats) = cell_sum(&shape.matrix, &space, &shape, n, true);
        let (ser, ser_stats) = cell_sum(&shape.matrix, &space, &shape, n, false);
        assert_eq!(par, ser);
        assert_eq!(par_stats, ser_stats);
    }

    #[test]
    fn zero_weight_cells_are_pruned_up_front() {
        // With w(R) = 0 every cell containing R(x) drops out before the DFS.
        let f = catalog::table1_sentence();
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 0, 1), ("S", 1, 1), ("T", 1, 1)]);
        let shape = fo2_normal_form(&f, &voc, &weights).unwrap();
        let counted: Vec<_> = shape.matrix.vocabulary().predicates().to_vec();
        let space = CellSpace {
            unary: counted.iter().filter(|p| p.arity() == 1).cloned().collect(),
            binary: counted.iter().filter(|p| p.arity() == 2).cloned().collect(),
        };
        let (_, stats) = cell_sum(&shape.matrix, &space, &shape, 4, false);
        assert!(stats.zero_weight_cells_pruned > 0);
        assert_eq!(
            stats.compositions_summed + stats.compositions_pruned,
            stats.compositions_total
        );
    }

    /// Log-space sums are bit-identical for every number of workers draining
    /// the top-level split (not just the host's core count) and with
    /// parallelism on or off, with identical composition accounting.
    #[test]
    fn log_space_bits_do_not_depend_on_the_worker_count() {
        let f = catalog::table1_sentence();
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, -1)]);
        let shape = fo2_normal_form(&f, &voc, &weights).unwrap();
        let counted: Vec<_> = shape.matrix.vocabulary().predicates().to_vec();
        let space = CellSpace {
            unary: counted.iter().filter(|p| p.arity() == 1).cloned().collect(),
            binary: counted.iter().filter(|p| p.arity() == 2).cloned().collect(),
        };
        let (_, u, table) = exact_cells(&shape.matrix, &space, &shape.weights).unwrap();
        let log = LogF64;
        let lu: Vec<_> = u.iter().map(|w| log.from_weight(w)).collect();
        let lt: Vec<Vec<_>> = table
            .iter()
            .map(|row| row.iter().map(|w| log.from_weight(w)).collect())
            .collect();
        let guard = Guard::unarmed();
        for n in [1, 2, 9, 13] {
            let engine = Engine::new(&log, &lu, &lt, n);
            let (alone, summed, pruned) = engine.sum_by_first_cell(1, &guard).unwrap();
            for threads in [2, 3, 5] {
                let (split, s, p) = engine.sum_by_first_cell(threads, &guard).unwrap();
                assert_eq!(split.signum(), alone.signum(), "n = {n}, {threads} workers");
                assert_eq!(
                    split.ln_abs().to_bits(),
                    alone.ln_abs().to_bits(),
                    "n = {n}, {threads} workers"
                );
                assert_eq!((s, p), (summed, pruned), "n = {n}, {threads} workers");
            }
            let (par, par_stats) = cell_sum_elems(&log, &lu, &lt, n, true, &guard).unwrap();
            let (ser, ser_stats) = cell_sum_elems(&log, &lu, &lt, n, false, &guard).unwrap();
            assert_eq!(par.ln_abs().to_bits(), ser.ln_abs().to_bits(), "n = {n}");
            assert_eq!(par.ln_abs().to_bits(), alone.ln_abs().to_bits(), "n = {n}");
            assert_eq!(par_stats, ser_stats, "n = {n}");
        }
    }

    /// The generic engine instantiated at [`LogF64`] and [`Poly`] agrees
    /// with the exact instantiation on the same bound cells/tables.
    #[test]
    fn generic_engine_matches_exact_instantiation() {
        let f = catalog::table1_sentence();
        let voc = f.vocabulary();
        let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, -1)]);
        let shape = fo2_normal_form(&f, &voc, &weights).unwrap();
        let counted: Vec<_> = shape.matrix.vocabulary().predicates().to_vec();
        let space = CellSpace {
            unary: counted.iter().filter(|p| p.arity() == 1).cloned().collect(),
            binary: counted.iter().filter(|p| p.arity() == 2).cloned().collect(),
        };
        let (cells, u, table) = exact_cells(&shape.matrix, &space, &shape.weights).unwrap();
        let n = 5;
        let guard = Guard::unarmed();
        let (exact, exact_stats) = cell_sum_elems(&Exact, &u, &table, n, false, &guard).unwrap();

        // LogF64: same engine, log-space floats.
        let log = LogF64;
        let lu: Vec<_> = u.iter().map(|w| log.from_weight(w)).collect();
        let lt: Vec<Vec<_>> = table
            .iter()
            .map(|row| row.iter().map(|w| log.from_weight(w)).collect())
            .collect();
        let (log_total, log_stats) = cell_sum_elems(&log, &lu, &lt, n, false, &guard).unwrap();
        let expected = log.from_weight(&exact);
        assert_eq!(log_total.signum(), expected.signum());
        assert!(
            (log_total.ln_abs() - expected.ln_abs()).abs() < 1e-9,
            "{log_total} vs {expected}"
        );
        assert_eq!(log_stats, exact_stats);

        // Poly with constant polynomials: a degree-0 result equal to exact.
        // `shape.weights` already includes the introduced predicates' pairs,
        // so the generic binding reproduces the exact cells and table.
        let poly = Poly;
        let pw = AlgebraWeights::lift(&poly, &shape.weights);
        let pu = super::super::cells::bind_cell_weights_in(&cells, &space, &poly, &pw);
        let structure =
            super::super::cells::build_pair_structure(&shape.matrix, &space, &cells).unwrap();
        let pt = super::super::cells::bind_pair_table_in(&structure, &space, &poly, &pw);
        let (poly_total, poly_stats) = cell_sum_elems(&poly, &pu, &pt, n, false, &guard).unwrap();
        assert_eq!(poly_total.coeff(0), exact);
        assert_eq!(poly_total.degree(), 0);
        assert_eq!(poly_stats, exact_stats);
    }

    /// Deterministic pseudo-random weight triples including zero and negative
    /// rationals, derived from a seed.
    fn seeded_weights(seed: u64) -> Weights {
        let mut s = seed as i64 + 1;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            weight_ratio((s % 5) - 1, 1 + (s % 3).unsigned_abs() as i64)
        };
        let mut w = Weights::ones();
        for name in ["R", "S", "T"] {
            let pos = next();
            let neg = next();
            w.set(name, pos, neg);
        }
        w
    }

    /// Weight pairs under which cells often coincide: all-ones, symmetric
    /// `(w, w)`, zero, and negative rationals.
    fn merge_pool() -> Vec<(Weight, Weight)> {
        let pairs = [
            ((1, 1), (1, 1)),
            ((2, 1), (2, 1)),
            ((1, 2), (1, 2)),
            ((-3, 2), (-3, 2)),
            ((0, 1), (1, 1)),
            ((1, 1), (0, 1)),
            ((-1, 1), (2, 1)),
            ((3, 1), (-2, 1)),
            ((-1, 2), (1, 1)),
        ];
        pairs
            .into_iter()
            .map(|((a, b), (c, d))| (weight_ratio(a, b), weight_ratio(c, d)))
            .collect()
    }

    #[test]
    fn table1_fomc_merges_interchangeable_cells() {
        // Under all-ones weights table1's seven cells collapse to four.
        let f = catalog::table1_sentence();
        let prepared = Fo2Prepared::prepare(&f, &f.vocabulary()).unwrap();
        let n = 30;
        let (value, stats) = prepared_count(&prepared, n, &Weights::ones(), true).unwrap();
        assert_eq!(value, crate::closed_form::fomc_table1(n));
        assert!(stats.cells_merged > 0, "{stats}");
        assert_eq!(stats.zero_weight_cells_pruned, 0, "{stats}");
        assert_eq!(
            stats.compositions_total,
            num_compositions(n, stats.total_valid_cells - stats.cells_merged)
        );
        assert!(stats.compositions_total < num_compositions(n, stats.total_valid_cells));
    }

    /// Order-sensitive algebras never merge (nor drop) cells, so lane runs
    /// stay bit-identical to scalar runs whatever the weights.
    #[test]
    fn log_algebras_never_merge_cells() {
        use wfomc_logic::algebra::LogF64xN;
        let f = catalog::table1_sentence();
        let prepared = Fo2Prepared::prepare(&f, &f.vocabulary()).unwrap();
        let ones = Weights::ones();
        let (exact, exact_stats) = prepared_count(&prepared, 12, &ones, false).unwrap();
        assert!(exact_stats.cells_merged > 0);

        let log_weights = AlgebraWeights::lift(&LogF64, &ones);
        let (log, log_stats) = prepared
            .count_in(12, &LogF64, &log_weights, false, &Guard::unarmed())
            .unwrap();
        assert_eq!(log_stats.cells_merged, 0);
        assert_eq!(log_stats.zero_weight_cells_pruned, 0);
        let expected = LogF64.from_weight(&exact);
        assert!((log.ln_abs() - expected.ln_abs()).abs() < 1e-9);

        let lane_weights = LogF64xN::pack_weights(&[&ones, &ones]);
        let (lanes, lane_stats) = prepared
            .count_in(12, &LogF64xN, &lane_weights, false, &Guard::unarmed())
            .unwrap();
        assert_eq!(lane_stats.cells_merged, 0);
        assert_eq!(lanes.lane(0), log);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// With weights drawn from [`merge_pool`], the merged DFS equals the
        /// unmerged enumeration and grounding, `Poly` equals `Exact`, and
        /// `LogF64` runs merge nothing.
        #[test]
        fn merged_sum_matches_enumeration_ground_and_poly(
            picks in proptest::collection::vec(0usize..1000, 3..4),
            n in 0usize..6,
        ) {
            let pool = merge_pool();
            for sentence in [
                catalog::table1_sentence(),
                catalog::forall_exists_edge(),
                catalog::exists_unary(),
                catalog::spouse_constraint(),
                catalog::smokers_constraint(),
            ] {
                let voc = sentence.vocabulary();
                let mut weights = Weights::ones();
                for (p, &pick) in voc.iter().zip(&picks) {
                    let (w, w_bar) = pool[pick % pool.len()].clone();
                    weights.set(p.name(), w, w_bar);
                }
                check_engines_agree(&sentence, &weights, n);
                let prepared = Fo2Prepared::prepare(&sentence, &voc).unwrap();
                let (exact, _) = prepared_count(&prepared, n, &weights, true).unwrap();
                let grounded = ground_wfomc(&sentence, &voc, n, &weights);
                prop_assert_eq!(&exact, &grounded, "ground mismatch for {} at n={}", sentence, n);
                let poly_weights = AlgebraWeights::lift(&Poly, &weights);
                let (poly, _) = prepared.count_in(n, &Poly, &poly_weights, true, &Guard::unarmed()).unwrap();
                prop_assert_eq!(poly, Poly.from_weight(&exact));
                let log_weights = AlgebraWeights::lift(&LogF64, &weights);
                let (_, log_stats) = prepared.count_in(n, &LogF64, &log_weights, true, &Guard::unarmed()).unwrap();
                prop_assert_eq!(log_stats.cells_merged, 0);
            }
        }

        /// The DFS engine, the legacy enumeration and grounding agree on
        /// random weights (including zero and negative rationals).
        #[test]
        fn differential_dfs_vs_legacy_vs_ground(seed in 0u64..5000, n in 0usize..4) {
            let weights = seeded_weights(seed);
            for sentence in [
                catalog::table1_sentence(),
                catalog::forall_exists_edge(),
                catalog::exists_unary(),
            ] {
                let voc = sentence.vocabulary();
                check_engines_agree(&sentence, &weights, n);
                let prepared = Fo2Prepared::prepare(&sentence, &voc).unwrap();
                let (lifted, _) = prepared_count(&prepared, n, &weights, true).unwrap();
                let grounded = ground_wfomc(&sentence, &voc, n, &weights);
                prop_assert_eq!(lifted, grounded, "ground mismatch for {} at n={}", sentence, n);
            }
        }
    }
}
