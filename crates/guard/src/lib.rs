//! # wfomc-guard — resource governance for the WFOMC engine
//!
//! The paper's hardness results guarantee that some sentences are intractable
//! no matter the method, so a serving layer cannot run untrusted solves
//! without per-request limits. This crate is the small, dependency-free
//! substrate those limits stand on:
//!
//! * [`ExecutionLimits`] — a declarative budget (wall-clock deadline, work
//!   cap, memory estimate cap);
//! * [`CancelToken`] — a shareable cooperative cancellation flag (one relaxed
//!   `AtomicBool`), cloneable across threads;
//! * [`Guard`] — the armed runtime object long-running loops consult. An
//!   unarmed guard short-circuits on one boolean; an armed one pays a single
//!   relaxed atomic add per tick and runs the full check (cancel load, clock
//!   read, cap compare) once per [`CHECK_PERIOD`] units of work;
//! * [`Meter`] — a per-worker tick batcher for the hottest loops (the
//!   cell-sum DFS): one local add and compare per tick, one guard tick per
//!   [`CHECK_PERIOD`] units, so even the unarmed default path stays within
//!   measurement noise of an ungoverned loop;
//! * [`Interrupt`] — the structured exhaustion report (`phase` + kind),
//!   converted by `wfomc-core` into its `SolveError` variants;
//! * [`failpoint`] — feature-gated fault injection (compiled out by
//!   default) that forces deadline expiry or worker panics inside each
//!   instrumented loop, for CI to prove the failure paths work.
//!
//! Failpoints are zero-sized no-ops when compiled out, and one relaxed
//! atomic load when compiled in but not armed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many units of work an armed [`Guard`] accumulates between full checks
/// (cancellation load + clock read + cap compare). Coarse enough that hot
/// loops only pay a relaxed `fetch_add` per tick, fine enough that a 100ms
/// deadline is honored within a few milliseconds on every instrumented loop.
pub const CHECK_PERIOD: u64 = 1024;

/// Declarative resource limits for one solve.
///
/// All fields default to "unlimited"; arm only what the request needs. The
/// limits are *cooperative*: every long-running loop in the pipeline ticks a
/// [`Guard`] built from them and returns an [`Interrupt`] when exhausted,
/// leaving caches consistent so the same plan can be retried.
///
/// # Worked example
///
/// ```
/// use std::time::Duration;
/// use wfomc_guard::{ExecutionLimits, Guard};
///
/// // A serving layer would attach this to one request: at most 250ms of
/// // wall clock and 10 million units of work (≈ DFS nodes / DPLL decisions).
/// let limits = ExecutionLimits::none()
///     .with_deadline(Duration::from_millis(250))
///     .with_work_cap(10_000_000);
/// assert!(!limits.is_unlimited());
///
/// // The solver arms a guard from the limits and threads it through its
/// // loops; `tick` is the per-iteration call, `check` the per-phase one.
/// let guard = Guard::new(&limits, None);
/// assert!(guard.is_armed());
/// for _ in 0..100 {
///     guard.tick("doc.example", 1).expect("well within budget");
/// }
/// assert!(guard.work_done() >= 100);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionLimits {
    /// Wall-clock budget for the whole solve, measured from [`Guard::new`].
    pub deadline: Option<Duration>,
    /// Cap on abstract work units (loop iterations: DFS nodes, DPLL
    /// decisions, grounded subformulas, reduction rule applications).
    pub work_cap: Option<u64>,
    /// Cap on *memory estimates*, checked by exactly two phases: lineage
    /// grounding, against its ground-atom count before allocating, and the
    /// d-DNNF compiler, against its circuit nodes plus component-cache
    /// entries as it grows. FO² preparation and the cell-sum tables are not
    /// governed by it.
    pub mem_estimate_cap: Option<u64>,
}

impl ExecutionLimits {
    /// No limits at all — a guard built from this (and no cancel token) is
    /// unarmed and costs one branch per tick.
    pub const fn none() -> ExecutionLimits {
        ExecutionLimits {
            deadline: None,
            work_cap: None,
            mem_estimate_cap: None,
        }
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ExecutionLimits {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the work cap (abstract loop-iteration units).
    pub fn with_work_cap(mut self, cap: u64) -> ExecutionLimits {
        self.work_cap = Some(cap);
        self
    }

    /// Sets the memory-estimate cap (abstract units: ground atoms while
    /// grounding a lineage, circuit nodes plus cache entries while
    /// compiling a d-DNNF).
    pub fn with_mem_estimate_cap(mut self, cap: u64) -> ExecutionLimits {
        self.mem_estimate_cap = Some(cap);
        self
    }

    /// True when no limit is armed.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.work_cap.is_none() && self.mem_estimate_cap.is_none()
    }
}

/// A shareable cooperative cancellation flag.
///
/// Clones share the flag; `cancel()` from any thread makes every armed
/// [`Guard`] holding a clone interrupt at its next check. The flag is
/// one-way for the token's lifetime — retry a cancelled solve with a fresh
/// token (or none).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag (relaxed store; visible to every clone).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised (one relaxed load).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a guarded loop stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustKind {
    /// The wall-clock deadline passed; `elapsed` is time since the guard was
    /// armed.
    Deadline {
        /// Time since [`Guard::new`] when the deadline was detected.
        elapsed: Duration,
    },
    /// The work cap was reached.
    WorkCap {
        /// Work units recorded when the cap was detected.
        work: u64,
        /// The armed cap.
        cap: u64,
    },
    /// An up-front memory estimate exceeded the cap.
    MemEstimate {
        /// The phase's a-priori allocation estimate.
        estimate: u64,
        /// The armed cap.
        cap: u64,
    },
    /// The [`CancelToken`] was raised.
    Cancelled,
}

/// A structured exhaustion report: which pipeline phase stopped, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupt {
    /// Static name of the loop that observed the exhaustion (e.g.
    /// `"fo2.cellsum"`, `"prop.dpll"`, `"ground.lineage"`).
    pub phase: &'static str,
    /// What ran out.
    pub kind: ExhaustKind,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ExhaustKind::Deadline { elapsed } => {
                write!(
                    f,
                    "deadline exceeded in phase `{}` after {:.1}ms",
                    self.phase,
                    elapsed.as_secs_f64() * 1e3
                )
            }
            ExhaustKind::WorkCap { work, cap } => {
                write!(
                    f,
                    "work cap exceeded in phase `{}` ({work} of {cap} units)",
                    self.phase
                )
            }
            ExhaustKind::MemEstimate { estimate, cap } => {
                write!(
                    f,
                    "memory estimate {estimate} exceeds cap {cap} in phase `{}`",
                    self.phase
                )
            }
            ExhaustKind::Cancelled => write!(f, "cancelled in phase `{}`", self.phase),
        }
    }
}

impl std::error::Error for Interrupt {}

/// The armed runtime object guarded loops consult.
///
/// Constructed once per solve from [`ExecutionLimits`] and an optional
/// [`CancelToken`], then shared by reference across worker threads (all
/// state is atomic). When nothing is armed every method short-circuits on a
/// plain boolean, so ungoverned solves run the guarded code path with an
/// unarmed guard. That path is the only one, so the benchmark's A/B run
/// (`scripts/perf_ab.sh`) bounds its cost end to end.
#[derive(Debug)]
pub struct Guard {
    armed: bool,
    start: Instant,
    deadline: Option<Instant>,
    work_cap: Option<u64>,
    mem_cap: Option<u64>,
    cancel: Option<CancelToken>,
    work: AtomicU64,
}

impl Guard {
    /// A guard from limits plus an optional cancellation token. The deadline
    /// clock starts now.
    pub fn new(limits: &ExecutionLimits, cancel: Option<CancelToken>) -> Guard {
        let start = Instant::now();
        Guard {
            armed: !limits.is_unlimited() || cancel.is_some(),
            start,
            // `checked_add` so an absurd deadline (e.g. `Duration::MAX`)
            // degrades to "no deadline" instead of panicking.
            deadline: limits.deadline.and_then(|d| start.checked_add(d)),
            work_cap: limits.work_cap,
            mem_cap: limits.mem_estimate_cap,
            cancel,
            work: AtomicU64::new(0),
        }
    }

    /// A guard with nothing armed: every check is one branch on a boolean.
    pub fn unarmed() -> Guard {
        Guard::new(&ExecutionLimits::none(), None)
    }

    /// Whether any limit or token is armed.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Records `n` units of work; runs the full check whenever the shared
    /// tally crosses a [`CHECK_PERIOD`] boundary. The per-call cost while
    /// armed is one relaxed `fetch_add` plus a division; while unarmed, one
    /// branch.
    #[inline]
    pub fn tick(&self, phase: &'static str, n: u64) -> Result<(), Interrupt> {
        if !self.armed {
            return Ok(());
        }
        let before = self.work.fetch_add(n, Ordering::Relaxed);
        let after = before.saturating_add(n);
        if before / CHECK_PERIOD != after / CHECK_PERIOD {
            self.check_slow(phase, after)
        } else {
            Ok(())
        }
    }

    /// Runs the full check immediately (phase boundaries, cache misses —
    /// anywhere latency matters more than throughput).
    #[inline]
    pub fn check(&self, phase: &'static str) -> Result<(), Interrupt> {
        if !self.armed {
            return Ok(());
        }
        self.check_slow(phase, self.work.load(Ordering::Relaxed))
    }

    /// Checks an a-priori allocation estimate against the memory cap.
    #[inline]
    pub fn check_mem(&self, phase: &'static str, estimate: u64) -> Result<(), Interrupt> {
        if !self.armed {
            return Ok(());
        }
        match self.mem_cap {
            Some(cap) if estimate > cap => Err(Interrupt {
                phase,
                kind: ExhaustKind::MemEstimate { estimate, cap },
            }),
            _ => Ok(()),
        }
    }

    /// Adds work to the tally without checking (used by [`Meter`] on drop so
    /// partial batches still account their work).
    pub fn charge(&self, n: u64) {
        if self.armed {
            self.work.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total work units recorded so far.
    pub fn work_done(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }

    /// Time since the guard was armed.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    #[cold]
    fn check_slow(&self, phase: &'static str, work: u64) -> Result<(), Interrupt> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                wfomc_obs::metrics::GUARD_CANCELLED.inc();
                return Err(Interrupt {
                    phase,
                    kind: ExhaustKind::Cancelled,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                wfomc_obs::metrics::GUARD_DEADLINE_HITS.inc();
                return Err(Interrupt {
                    phase,
                    kind: ExhaustKind::Deadline {
                        elapsed: now.duration_since(self.start),
                    },
                });
            }
        }
        if let Some(cap) = self.work_cap {
            if work >= cap {
                wfomc_obs::metrics::GUARD_WORK_CAP_HITS.inc();
                return Err(Interrupt {
                    phase,
                    kind: ExhaustKind::WorkCap { work, cap },
                });
            }
        }
        Ok(())
    }
}

/// A per-worker meter for the hottest inner loops: it batches ticks locally
/// and flushes them into a shared [`Guard`] once per [`CHECK_PERIOD`] units
/// — one integer add and compare per tick, no atomics until the flush. Every
/// cell-sum DFS worker owns one; with an unarmed guard the flush is a single
/// branch, which is why there is no separate ungoverned path.
#[derive(Debug)]
pub struct Meter<'a> {
    guard: &'a Guard,
    phase: &'static str,
    pending: u64,
}

impl<'a> Meter<'a> {
    /// A meter feeding `guard` under the given phase name.
    pub fn new(guard: &'a Guard, phase: &'static str) -> Meter<'a> {
        Meter {
            guard,
            phase,
            pending: 0,
        }
    }

    /// Records `n` units of work; may interrupt once the batch is flushed.
    #[inline]
    pub fn tick(&mut self, n: u64) -> Result<(), Interrupt> {
        self.pending += n;
        if self.pending >= CHECK_PERIOD {
            let batch = std::mem::take(&mut self.pending);
            self.guard.tick(self.phase, batch)
        } else {
            Ok(())
        }
    }
}

impl Drop for Meter<'_> {
    fn drop(&mut self) {
        // Account the tail batch so `Guard::work_done` reflects all work
        // even when the loop exits early (success or interrupt).
        self.guard.charge(std::mem::take(&mut self.pending));
    }
}

/// What an armed failpoint does when hit.
#[cfg(feature = "failpoints")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Return a deadline-expired [`Interrupt`] from the instrumented loop.
    Expire,
    /// Panic inside the instrumented loop (exercises `catch_unwind`
    /// containment in fan-outs).
    Panic,
}

#[cfg(feature = "failpoints")]
mod fail {
    use super::{ExhaustKind, FailAction, Interrupt};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// One relaxed load decides whether the registry is consulted at all, so
    /// an armed-failpoints *build* with nothing armed costs a load + branch.
    static ANY_ARMED: AtomicBool = AtomicBool::new(false);
    static REGISTRY: Mutex<Vec<(String, FailAction)>> = Mutex::new(Vec::new());

    /// Arms a failpoint by name.
    pub fn arm(name: &str, action: FailAction) {
        let mut reg = REGISTRY.lock().expect("failpoint registry poisoned");
        reg.retain(|(n, _)| n != name);
        reg.push((name.to_string(), action));
        ANY_ARMED.store(true, Ordering::Relaxed);
    }

    /// Disarms every failpoint.
    pub fn clear() {
        REGISTRY
            .lock()
            .expect("failpoint registry poisoned")
            .clear();
        ANY_ARMED.store(false, Ordering::Relaxed);
    }

    #[inline]
    pub(super) fn hit(name: &'static str) -> Result<(), Interrupt> {
        if !ANY_ARMED.load(Ordering::Relaxed) {
            return Ok(());
        }
        let action = {
            let reg = REGISTRY.lock().expect("failpoint registry poisoned");
            reg.iter().find(|(n, _)| n == name).map(|(_, a)| *a)
        };
        match action {
            None => Ok(()),
            Some(FailAction::Expire) => Err(Interrupt {
                phase: name,
                kind: ExhaustKind::Deadline {
                    elapsed: Duration::ZERO,
                },
            }),
            Some(FailAction::Panic) => panic!("failpoint `{name}` forced a panic"),
        }
    }
}

#[cfg(feature = "failpoints")]
pub use fail::{arm as arm_failpoint, clear as clear_failpoints};

/// A fault-injection point. Compiled out (an empty inline function) without
/// the `failpoints` feature; with it, one relaxed load when nothing is
/// armed, and the armed action (expire or panic) when this name is armed.
#[inline]
pub fn failpoint(name: &'static str) -> Result<(), Interrupt> {
    #[cfg(feature = "failpoints")]
    {
        fail::hit(name)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = name;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_guard_never_interrupts() {
        let guard = Guard::unarmed();
        assert!(!guard.is_armed());
        for _ in 0..10_000 {
            guard.tick("test", 1).unwrap();
        }
        guard.check("test").unwrap();
        guard.check_mem("test", u64::MAX).unwrap();
        // Unarmed guards do not even account work.
        assert_eq!(guard.work_done(), 0);
    }

    #[test]
    fn work_cap_interrupts_and_reports_phase() {
        let limits = ExecutionLimits::none().with_work_cap(CHECK_PERIOD);
        let guard = Guard::new(&limits, None);
        let mut hit = None;
        for _ in 0..10 * CHECK_PERIOD {
            if let Err(i) = guard.tick("test.loop", 1) {
                hit = Some(i);
                break;
            }
        }
        let interrupt = hit.expect("cap must trip");
        assert_eq!(interrupt.phase, "test.loop");
        assert!(matches!(
            interrupt.kind,
            ExhaustKind::WorkCap { cap, .. } if cap == CHECK_PERIOD
        ));
        assert!(interrupt.to_string().contains("work cap exceeded"));
    }

    #[test]
    fn expired_deadline_interrupts_immediately_on_check() {
        let limits = ExecutionLimits::none().with_deadline(Duration::ZERO);
        let guard = Guard::new(&limits, None);
        let err = guard.check("test.deadline").unwrap_err();
        assert!(matches!(err.kind, ExhaustKind::Deadline { .. }));
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        let guard = Guard::new(&ExecutionLimits::none(), Some(token));
        assert!(guard.is_armed());
        guard.check("test.cancel").unwrap();
        clone.cancel();
        let err = guard.check("test.cancel").unwrap_err();
        assert_eq!(err.kind, ExhaustKind::Cancelled);
    }

    #[test]
    fn mem_estimate_cap_rejects_large_allocations_up_front() {
        let limits = ExecutionLimits::none().with_mem_estimate_cap(1000);
        let guard = Guard::new(&limits, None);
        guard.check_mem("test.alloc", 1000).unwrap();
        let err = guard.check_mem("test.alloc", 1001).unwrap_err();
        assert_eq!(
            err.kind,
            ExhaustKind::MemEstimate {
                estimate: 1001,
                cap: 1000
            }
        );
    }

    #[test]
    fn meter_batches_ticks_and_charges_the_tail_on_drop() {
        let limits = ExecutionLimits::none().with_work_cap(u64::MAX);
        let guard = Guard::new(&limits, None);
        {
            let mut meter = Meter::new(&guard, "test.meter");
            for _ in 0..CHECK_PERIOD + 10 {
                meter.tick(1).unwrap();
            }
            // One flush has happened; the 10-unit tail is still pending.
            assert_eq!(guard.work_done(), CHECK_PERIOD);
        }
        assert_eq!(guard.work_done(), CHECK_PERIOD + 10);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn failpoints_expire_when_armed_and_pass_otherwise() {
        clear_failpoints();
        failpoint("test.fp").unwrap();
        arm_failpoint("test.fp", FailAction::Expire);
        let err = failpoint("test.fp").unwrap_err();
        assert!(matches!(err.kind, ExhaustKind::Deadline { .. }));
        failpoint("test.other").unwrap();
        clear_failpoints();
        failpoint("test.fp").unwrap();
    }
}
