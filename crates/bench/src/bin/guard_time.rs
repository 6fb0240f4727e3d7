//! Wall-clock A/B for the resource-governance layer's overhead. Prints one
//! JSON object per (workload, mode) pair so the numbers can be recorded in
//! `BENCH_guard.json`:
//!
//! ```text
//! cargo run --release -p wfomc-bench --bin guard_time
//! ```
//!
//! Three modes per workload, all in one build (the guard is always compiled
//! in — only the failpoints are feature-gated):
//!
//! * `ungoverned` — the plain `Plan::count` path, which routes through an
//!   unarmed `wfomc_guard::Guard` whose checks are branch-on-false;
//! * `unarmed` — `Plan::count_with_limits` with `ExecutionLimits::none()`:
//!   the governed entry point with nothing armed (the budget-off contract
//!   the perf gate enforces at ≤1% overhead on fo2-table1-30);
//! * `armed-generous` — a deadline and work cap large enough to never trip,
//!   so every loop pays the full metering price (local tick batching, one
//!   `Instant::now` + atomic per 1024 units of work).

use std::time::Duration;

use wfomc::prelude::*;
use wfomc_bench::{plan_reuse_workloads, standard_weights, time_ms};

/// Runs one workload under the three governance modes and prints a JSON
/// line per mode. `None` limits = the ungoverned `count` path.
fn run_modes(
    name: &str,
    generous: &ExecutionLimits,
    mut run: impl FnMut(Option<&ExecutionLimits>),
) {
    let none = ExecutionLimits::none();
    let modes: [(&str, Option<&ExecutionLimits>); 3] = [
        ("ungoverned", None),
        ("unarmed", Some(&none)),
        ("armed-generous", Some(generous)),
    ];
    for (mode, limits) in modes {
        run(limits); // warm-up: weight-binding / grounding caches
        let ms = (0..3)
            .map(|_| time_ms(|| run(limits)))
            .fold(f64::INFINITY, f64::min);
        println!("{{\"workload\": \"{name}\", \"mode\": \"{mode}\", \"ms\": {ms:.2}}}");
    }
}

fn main() {
    let weights = standard_weights();
    let generous = ExecutionLimits::none()
        .with_deadline(Duration::from_secs(3600))
        .with_work_cap(u64::MAX / 2);

    // Single-point FO² workloads share one plan across all three modes so
    // every mode sees the same warm caches and the A/B isolates the guard.
    let single_point: Vec<(&'static str, Formula)> = vec![
        ("fo2-smokers-30", catalog::smokers_constraint()),
        ("fo2-table1-30", catalog::table1_sentence()),
    ];
    for (name, sentence) in single_point {
        let plan = Problem::new(sentence)
            .plan()
            .unwrap_or_else(|e| panic!("{name} plans: {e:?}"));
        run_modes(name, &generous, |limits| match limits {
            None => drop(plan.count(30, &weights).expect("guard_time count succeeds")),
            Some(l) => drop(
                plan.count_with_limits(30, &weights, l, None)
                    .expect("guard_time governed count succeeds"),
            ),
        });
    }

    // The plan-reuse sweep re-plans inside the timed closure, mirroring the
    // perf gate's plan workload; planning cost is identical across modes so
    // the comparison stays honest.
    let (name, solver, sentence, points) = plan_reuse_workloads(16)
        .into_iter()
        .find(|(name, ..)| *name == "fo2/quad-binary-n-sweep")
        .expect("known workload");
    run_modes("plan-quad-binary-n-sweep", &generous, |limits| {
        let plan = solver
            .plan(&Problem::new(sentence.clone()))
            .unwrap_or_else(|e| panic!("{name} plans: {e:?}"));
        for (n, w) in &points {
            match limits {
                None => drop(plan.count(*n, w).expect("guard_time count succeeds")),
                Some(l) => drop(
                    plan.count_with_limits(*n, w, l, None)
                        .expect("guard_time governed count succeeds"),
                ),
            }
        }
    });
}
