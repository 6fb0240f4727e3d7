//! The one indexed fan-out behind the scoped-thread loops of this crate:
//! plan batches, the FO² Shannon-mask build and the per-branch cell sums.
//! (The cell-sum DFS splits its top level with its own loop: each of its
//! workers carries DFS caches and the sum stops at the first interrupt.)
//!
//! Every count-time fan-out decides its worker count through one gate,
//! [`workers_for`], on one figure: the plan's work estimate
//! ([`crate::plan::Plan::estimate`], in compositions of the FO² cell sum or
//! their equivalent), summed over a batch's points, taken over an FO²
//! count's branches, or the post-merge composition count of one cell sum.
//! Below [`MIN_PARALLEL_WORK`] the items run inline on the caller's thread.
//! Both costs the gate trades are measured (2-vCPU Xeon, release build):
//! `std::thread::available_parallelism` reads cgroup files and costs
//! 16–26 µs a call, so [`cores`] probes it once per process; spawning and
//! joining two scoped threads costs 60–90 µs, more than a small count (a
//! 4-point CQ batch took 122–176 µs fanned out against 23–37 µs for four
//! sequential counts). The prepare-time Shannon-mask build gates on its own
//! matrix-evaluation count through the same function.
//!
//! [`run`] evaluates `work(state, i)` for every index `i < len`. Item costs
//! vary wildly (a hard-constraint branch prunes to nothing, one domain size
//! dwarfs another), so the indices go through a work-stealing
//! [`stealer::Pool`] rather than a fixed round-robin split. With one worker
//! the items run inline, in order, on the caller's thread.
//!
//! Every item is contained on its own, inline or fanned out: a panic while
//! computing item `i` becomes the `Err` payload of outcome `i` and the
//! worker moves on, so one bad item never loses the others. Callers decide
//! what a panic means — the plan layer reports it as
//! `SolveError::WorkerPanicked` for that point, FO² internals resume it so
//! the plan layer above reports it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::thread;

/// The machine's available parallelism (1 when it cannot be queried),
/// probed on the first call and reused for the life of the process: the
/// probe reads cgroup files, which costs more than a small count. A CPU
/// quota changed while the process runs is therefore not seen. This is the
/// crate's one caller of `std::thread::available_parallelism`.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |c| c.get()))
}

/// Estimated work (compositions summed, or their equivalent; matrix
/// evaluations at prepare time) below which a fan-out costs more in thread
/// spawns than it saves. Every fan-out gates on it through
/// [`workers_for`].
pub(crate) const MIN_PARALLEL_WORK: usize = 4096;

/// Workers for a fan-out over `items` items whose estimated work totals
/// `work`: one below [`MIN_PARALLEL_WORK`], otherwise up to one per core.
pub(crate) fn workers_for(items: usize, work: usize) -> usize {
    if work < MIN_PARALLEL_WORK {
        1
    } else {
        cores().min(items)
    }
}

/// Runs `work(i)` for `i in 0..len` on up to `workers` scoped threads and
/// returns the outcomes in index order.
///
/// Each worker thread flushes its span tallies with
/// [`wfomc_obs::flush_thread`] before it is joined, since scope joins can
/// outrun thread-local destructors.
pub(crate) fn run<R: Send>(
    len: usize,
    workers: usize,
    work: impl Fn(usize) -> R + Sync,
) -> Vec<thread::Result<R>> {
    let contained = |i: usize| catch_unwind(AssertUnwindSafe(|| work(i)));
    let workers = workers.min(len);
    if workers <= 1 {
        return (0..len).map(contained).collect();
    }
    let pool = stealer::Pool::new(workers);
    pool.seed(0..len);
    let mut slots: Vec<Option<thread::Result<R>>> = (0..len).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let mut queue = pool.worker(t);
                let contained = &contained;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while let Some(i) = queue.pop() {
                        done.push((i, contained(i)));
                    }
                    wfomc_obs::flush_thread();
                    done
                })
            })
            .collect();
        for handle in handles {
            // Items are contained one by one, so a worker can only fail
            // outside them (in the queue or the obs flush): a bug that is
            // resumed rather than mistaken for a point's failure.
            let done = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, outcome) in done {
                slots[i] = Some(outcome);
            }
        }
    });
    wfomc_obs::metrics::CELLSUM_STEALS.add(pool.steals());
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outcomes_come_back_in_index_order() {
        for workers in [1, 2, 4] {
            let seen = AtomicUsize::new(0);
            let outcomes = run(37, workers, |i| {
                seen.fetch_add(1, Ordering::Relaxed);
                i * i
            });
            let values: Vec<usize> = outcomes.into_iter().map(Result::unwrap).collect();
            assert_eq!(values, (0..37).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(seen.load(Ordering::Relaxed), 37, "each item ran once");
        }
    }

    #[test]
    fn a_panicking_item_is_contained_alone() {
        for workers in [1, 3] {
            let outcomes = run(9, workers, |i| {
                assert!(i != 4, "item {i} fails");
                i
            });
            assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
            for (i, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    Ok(value) => assert_eq!(value, i),
                    Err(payload) => {
                        assert_eq!(i, 4);
                        let message = payload.downcast_ref::<String>().unwrap();
                        assert!(message.contains("item 4 fails"), "{message}");
                    }
                }
            }
        }
    }

    #[test]
    fn no_items_means_no_work() {
        let outcomes = run(0, 4, |i| -> usize { panic!("item {i} ran") });
        assert!(outcomes.is_empty());
    }
}
