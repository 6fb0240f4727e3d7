//! Observability invariants of the solver pipeline, exercised only when the
//! `obs` feature is on (without it the registry is a compiled-out no-op and
//! there is nothing to test): identical single-threaded runs produce
//! identical counter snapshots, counters are monotone under
//! `count_batch_results`,
//! and the cell-merge counter matches the report.
//!
//! The metric registry is process-global, so every test takes the `serial`
//! lock and starts from `wfomc_obs::reset()`.
#![cfg(feature = "obs")]

use std::sync::{Mutex, MutexGuard};

use wfomc_core::{Problem, Solver};
use wfomc_logic::catalog;
use wfomc_logic::weights::Weights;
use wfomc_obs::MetricsSnapshot;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One fresh plan, two counts — all at n = 4, far below the engine's
/// parallelism thresholds, so the run stays on the calling thread and the
/// counter trace is exactly reproducible.
fn run_table1_once(n: usize) -> MetricsSnapshot {
    wfomc_obs::reset();
    let plan = Solver::new()
        .plan(&Problem::new(catalog::table1_sentence()))
        .expect("table1 plans");
    let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1)]);
    let first = plan.count(n, &weights).expect("first count");
    let second = plan.count(n, &weights).expect("second count");
    assert_eq!(first.value, second.value);
    wfomc_obs::snapshot()
}

#[test]
fn identical_runs_produce_identical_counter_snapshots() {
    let _guard = serial();
    wfomc_obs::set_enabled(true);
    let a = run_table1_once(4);
    let b = run_table1_once(4);
    // Counters and gauges must agree exactly; spans agree on how often each
    // scope closed (their wall times of course differ between runs).
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.gauges, b.gauges);
    let span_counts = |snap: &MetricsSnapshot| {
        snap.spans
            .iter()
            .map(|(name, stat)| (name.clone(), stat.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(span_counts(&a), span_counts(&b));
    // And the run must have actually recorded something.
    assert!(a.counter("plan.counts") == Some(2));
    assert!(a.counter("fo2.bind.hits") == Some(1));
    assert!(a.counter("fo2.bind.misses") == Some(1));
    assert!(a.counter("fo2.cellsum.compositions_summed").unwrap_or(0) > 0);
    wfomc_obs::set_enabled(false);
}

#[test]
fn cells_merged_counter_matches_the_report() {
    let _guard = serial();
    wfomc_obs::set_enabled(true);
    wfomc_obs::reset();
    let plan = Solver::new()
        .plan(&Problem::new(catalog::table1_sentence()))
        .expect("table1 plans");
    // Unit weights make several of table1's cells interchangeable.
    let report = plan.count(4, &Weights::ones()).expect("count");
    let merged = report.fo2_stats.expect("FO² stats").cells_merged as u64;
    assert!(merged > 0);
    assert_eq!(
        wfomc_obs::snapshot().counter("fo2.cellsum.cells_merged"),
        Some(merged)
    );
    wfomc_obs::set_enabled(false);
}

#[test]
fn counters_are_monotone_under_count_batch_results() {
    let _guard = serial();
    wfomc_obs::set_enabled(true);
    wfomc_obs::reset();
    let plan = Solver::new()
        .plan(&Problem::new(catalog::table1_sentence()))
        .expect("table1 plans");
    let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 3), ("T", 5, 1)]);
    let mut previous = wfomc_obs::snapshot();
    for round in 0..3 {
        let points: Vec<(usize, Weights)> = (1..=4).map(|n| (n, weights.clone())).collect();
        let reports = plan.count_batch_results(&points);
        assert_eq!(reports.len(), points.len());
        assert!(reports.iter().all(Result::is_ok), "batch evaluates");
        let current = wfomc_obs::snapshot();
        for (name, value) in &current.counters {
            let before = previous.counter(name).unwrap_or(0);
            assert!(
                *value >= before,
                "counter {name} went backwards in round {round}: {before} -> {value}"
            );
        }
        assert!(
            current.counter("plan.counts").unwrap_or(0)
                >= previous.counter("plan.counts").unwrap_or(0) + points.len() as u64,
            "each batch point increments plan.counts"
        );
        previous = current;
    }
    wfomc_obs::set_enabled(false);
}
