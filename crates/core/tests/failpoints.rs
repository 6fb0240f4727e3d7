//! Fault injection across the governed pipeline: each instrumented loop is
//! forced to expire (and, for the batch fan-out, to panic) via the
//! feature-gated failpoints in `wfomc-guard`, proving the failure paths are
//! real code that surfaces the right `SolveError` and leaves every cache
//! retryable. Compiled (and run in CI) only with `--features failpoints`.
#![cfg(feature = "failpoints")]

use std::sync::Mutex;
use std::time::Duration;

use wfomc_core::{DegradePolicy, ExecutionLimits, Problem, SolveError};
use wfomc_guard::{arm_failpoint, clear_failpoints, FailAction, Guard};
use wfomc_logic::algebra::{Algebra, AlgebraWeights, Exact, LogF64};
use wfomc_logic::catalog;
use wfomc_logic::weights::Weights;
use wfomc_prop::counter::wmc_formula_via_in;
use wfomc_prop::WmcBackend;

/// The failpoint registry is process-global, so these tests serialize on one
/// lock and disarm everything on the way out (even on assertion failure).
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        clear_failpoints();
    }
}

fn serialized() -> (std::sync::MutexGuard<'static, ()>, Armed) {
    let guard = REGISTRY_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    clear_failpoints();
    (guard, Armed)
}

/// Forces `phase` to expire, runs `solve`, and checks the structured error
/// names the phase; then disarms and checks the *same plan* recovers.
fn assert_expires_then_recovers<T: std::fmt::Debug>(
    phase: &str,
    solve: impl Fn() -> Result<T, SolveError>,
) {
    arm_failpoint(phase, FailAction::Expire);
    match solve() {
        Err(SolveError::DeadlineExceeded { phase: hit, .. }) => {
            assert_eq!(hit, phase, "interrupt names the instrumented loop")
        }
        other => panic!("armed `{phase}` must expire, got {other:?}"),
    }
    clear_failpoints();
    let _ = solve().unwrap_or_else(|e| panic!("retry after disarming `{phase}` failed: {e}"));
}

#[test]
fn fo2_phases_expire_and_recover() {
    let (_lock, _armed) = serialized();
    let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
    let expected = plan.count(3, &Weights::ones()).unwrap().value;
    for phase in ["fo2.bind", "fo2.cellsum"] {
        assert_expires_then_recovers(phase, || {
            plan.count_with_limits(3, &Weights::ones(), &ExecutionLimits::none(), None)
        });
    }
    assert_eq!(plan.count(3, &Weights::ones()).unwrap().value, expected);
}

#[test]
fn fo2_preparation_expires_and_recovers() {
    let (_lock, _armed) = serialized();
    let sentence = catalog::table1_sentence();
    let vocabulary = sentence.vocabulary();
    arm_failpoint("fo2.prepare", FailAction::Expire);
    let err = wfomc_core::fo2::Fo2Prepared::prepare_guarded(
        &sentence,
        &vocabulary,
        &wfomc_guard::Guard::unarmed(),
    )
    .map(|_| ())
    .unwrap_err();
    assert!(
        matches!(
            err,
            SolveError::DeadlineExceeded {
                phase: "fo2.prepare",
                ..
            }
        ),
        "{err}"
    );
    clear_failpoints();
    assert!(wfomc_core::fo2::Fo2Prepared::prepare_guarded(
        &sentence,
        &vocabulary,
        &wfomc_guard::Guard::unarmed(),
    )
    .is_ok());
}

#[test]
fn grounded_phases_expire_and_recover() {
    let (_lock, _armed) = serialized();
    let sentence = catalog::transitivity();
    let clean = Problem::new(sentence.clone())
        .plan()
        .unwrap()
        .count(2, &Weights::ones())
        .unwrap()
        .value;
    // Every grounded count grounds, then compiles: a fresh plan per phase,
    // so the phase under test is not skipped by a cached lineage or circuit.
    for phase in ["ground.lineage", "circuit.compile"] {
        let plan = Problem::new(sentence.clone()).plan().unwrap();
        assert_expires_then_recovers(phase, || {
            plan.count_with_limits(2, &Weights::ones(), &ExecutionLimits::none(), None)
        });
        assert_eq!(plan.count(2, &Weights::ones()).unwrap().value, clean);
    }
    // DPLL runs as the last stage of the degradation chain, here after an
    // expired primary stage.
    let plan = Problem::new(sentence.clone()).plan().unwrap();
    let policy = DegradePolicy {
        primary: ExecutionLimits::none().with_deadline(Duration::ZERO),
        circuit: None,
        dpll: Some(ExecutionLimits::none()),
    };
    assert_expires_then_recovers("prop.dpll", || {
        plan.count_degraded(2, &Weights::ones(), &policy, None)
    });
    let report = plan
        .count_degraded(2, &Weights::ones(), &policy, None)
        .unwrap();
    assert!(report.degraded);
    assert_eq!(report.value, clean);
    // Enumeration is the test oracle of `wfomc-prop`, reached through its
    // guarded entry point.
    let lineage = wfomc_ground::Lineage::build(&sentence, &sentence.vocabulary(), 2);
    let weights = lineage.weights_in(&Exact, &AlgebraWeights::ones());
    let enumerate = || {
        wmc_formula_via_in(
            &lineage.prop,
            &Exact,
            &weights,
            WmcBackend::Enumerate,
            &Guard::unarmed(),
        )
        .map_err(SolveError::from)
    };
    assert_expires_then_recovers("prop.enumerate", enumerate);
    assert_eq!(enumerate().unwrap(), clean);
}

#[test]
fn cq_reduction_expires_and_recovers() {
    let (_lock, _armed) = serialized();
    // Plan *before* arming: method selection probes the CQ reduction.
    let plan = Problem::new(catalog::chain_query(3).to_formula())
        .plan()
        .unwrap();
    let expected = plan.count(2, &Weights::ones()).unwrap().value;
    assert_expires_then_recovers("cq.reduce", || {
        plan.count_with_limits(2, &Weights::ones(), &ExecutionLimits::none(), None)
    });
    assert_eq!(plan.count(2, &Weights::ones()).unwrap().value, expected);

    // The log paths run the same reduction: a same-n batch as lanes, a
    // mixed-n batch point by point in scalar `LogF64`.
    let same_n: Vec<(usize, Weights)> = (1..=3)
        .map(|r| (2, Weights::from_ints([("R1", r, 1)])))
        .collect();
    let mixed_n: Vec<(usize, Weights)> = (1..=3).map(|n| (n, Weights::ones())).collect();
    let none = ExecutionLimits::none();
    for batch in [&same_n, &mixed_n] {
        arm_failpoint("cq.reduce", FailAction::Expire);
        for result in plan.count_batch_log_with_limits(batch, &none, None) {
            assert!(
                matches!(
                    result,
                    Err(SolveError::DeadlineExceeded {
                        phase: "cq.reduce",
                        ..
                    })
                ),
                "armed `cq.reduce` must expire every log point, got {result:?}"
            );
        }
        clear_failpoints();
        let results = plan.count_batch_log_with_limits(batch, &none, None);
        for (result, (n, w)) in results.iter().zip(batch) {
            let got = result.as_ref().expect("disarmed log point");
            let scalar = plan
                .count_in(*n, &LogF64, &AlgebraWeights::lift(&LogF64, w))
                .unwrap();
            assert_eq!(got.signum(), scalar.signum(), "n = {n}");
            assert_eq!(got.ln_abs().to_bits(), scalar.ln_abs().to_bits(), "n = {n}");
        }
    }
    // `count_in` reports no exhaustion (its error is a plain `LiftError`),
    // so a forced panic shows that it reaches the reduction too.
    let ones = AlgebraWeights::lift(&LogF64, &Weights::ones());
    arm_failpoint("cq.reduce", FailAction::Panic);
    let payload = std::panic::catch_unwind(|| plan.count_in(2, &LogF64, &ones))
        .expect_err("armed `cq.reduce` panics inside count_in");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("cq.reduce"), "{message}");
    clear_failpoints();
    let log = plan.count_in(2, &LogF64, &ones).unwrap();
    let want = LogF64.from_weight(&expected);
    assert!((log.ln_abs() - want.ln_abs()).abs() < 1e-9);
    assert_eq!(plan.cache_stats().ground_misses, 0, "no path grounded");
}

#[test]
fn count_with_limits_contains_a_panic_and_the_plan_recovers() {
    let (_lock, _armed) = serialized();
    let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
    let none = ExecutionLimits::none();
    arm_failpoint("fo2.cellsum", FailAction::Panic);
    match plan.count_with_limits(4, &Weights::ones(), &none, None) {
        Err(SolveError::WorkerPanicked { message }) => {
            assert!(message.contains("fo2.cellsum"), "{message}")
        }
        other => panic!("a panic must come back as WorkerPanicked, got {other:?}"),
    }
    clear_failpoints();
    let report = plan
        .count_with_limits(4, &Weights::ones(), &none, None)
        .unwrap();
    assert_eq!(report.value, plan.count(4, &Weights::ones()).unwrap().value);
}

#[test]
fn a_panicking_ground_build_leaves_the_ground_cache_usable() {
    let (_lock, _armed) = serialized();
    // Transitivity has no lifted method: every count grounds through the
    // plan's ground cache.
    let plan = Problem::new(catalog::transitivity()).plan().unwrap();
    let none = ExecutionLimits::none();
    arm_failpoint("ground.lineage", FailAction::Panic);
    match plan.count_with_limits(2, &Weights::ones(), &none, None) {
        Err(SolveError::WorkerPanicked { message }) => {
            assert!(message.contains("ground.lineage"), "{message}")
        }
        other => panic!("a panicking build must come back as WorkerPanicked, got {other:?}"),
    }
    clear_failpoints();
    let report = plan
        .count_with_limits(2, &Weights::ones(), &none, None)
        .expect("the ground cache is not poisoned");
    // 13 transitive relations on a 2-element domain.
    assert_eq!(report.value, wfomc_logic::weights::weight_int(13));
    assert_eq!(plan.count(2, &Weights::ones()).unwrap().value, report.value);
}

#[test]
fn forced_worker_panics_are_contained_per_point() {
    let (_lock, _armed) = serialized();
    let plan = Problem::new(catalog::table1_sentence()).plan().unwrap();
    let points: Vec<(usize, Weights)> = (2..=5).map(|n| (n, Weights::ones())).collect();
    // A same-n sweep runs as lanes; mixed domain sizes fan out per point.
    let same_n: Vec<(usize, Weights)> = (1..=3)
        .map(|r| (4, Weights::from_ints([("R", r, 1), ("S", 1, r)])))
        .collect();
    let log_batches = [&same_n, &points];
    arm_failpoint("fo2.cellsum", FailAction::Panic);
    let assert_contained = |result: Result<(), &SolveError>| match result {
        Err(SolveError::WorkerPanicked { message }) => {
            assert!(message.contains("fo2.cellsum"), "{message}")
        }
        other => panic!("forced panic must be contained per point, got {other:?}"),
    };
    let results = plan.count_batch_results(&points);
    assert_eq!(results.len(), points.len());
    for result in &results {
        assert_contained(result.as_ref().map(|_| ()));
    }
    for batch in log_batches {
        let results = plan.count_batch_log(batch);
        assert_eq!(results.len(), batch.len());
        for result in &results {
            assert_contained(result.as_ref().map(|_| ()));
        }
    }
    // These batches are small enough to run inline on this thread. Past
    // the work threshold (table1 at n = 30: about 1.9 million compositions
    // a point) a batch fans out over the cores, and a panic on a worker
    // thread is contained per point as well.
    let large: Vec<(usize, Weights)> = vec![(30, Weights::ones()), (31, Weights::ones())];
    for result in plan.count_batch_results(&large) {
        assert_contained(result.as_ref().map(|_| ()));
    }
    for result in plan.count_batch_log(&large) {
        assert_contained(result.as_ref().map(|_| ()));
    }
    // Containment never poisons the plan: disarm and the same batches are
    // clean, the log ones bit-identical to scalar log-space counts.
    clear_failpoints();
    let clean = plan.count_batch_results(&points);
    for (result, (n, w)) in clean.iter().zip(&points) {
        assert_eq!(
            result.as_ref().unwrap().value,
            plan.count(*n, w).unwrap().value
        );
    }
    for batch in log_batches {
        for (result, (n, w)) in plan.count_batch_log(batch).iter().zip(batch) {
            let got = result.as_ref().unwrap();
            let scalar = plan
                .count_in(*n, &LogF64, &AlgebraWeights::lift(&LogF64, w))
                .unwrap();
            assert_eq!(got.signum(), scalar.signum(), "n = {n}");
            assert_eq!(got.ln_abs().to_bits(), scalar.ln_abs().to_bits(), "n = {n}");
        }
    }
}
