//! Wall-clock snapshot tool for lane-batched evaluation. For each same-`n`
//! weight sweep it times the per-point exact `Plan::count_batch_results` (the
//! pre-lane behavior: one DFS traversal per point) against the lane-batched
//! `Plan::count_batch_log` (one `LogF64xN` traversal per eight points), and
//! prints one JSON object per workload so the numbers can be recorded in
//! `BENCH_lanes.json`. Run with
//! `cargo run --release -p wfomc-bench --bin lane_time [-- quick]`.

use std::env;

use wfomc::prelude::*;
use wfomc_bench::{lane_sweep_points, time_ms};

fn main() {
    let quick = env::args().nth(1).as_deref() == Some("quick");
    let (n, ks): (usize, &[usize]) = if quick { (12, &[8]) } else { (30, &[8, 32]) };
    let plan = Problem::new(catalog::table1_sentence())
        .plan()
        .expect("table1 plans");
    for &k in ks {
        let points = lane_sweep_points(n, k);
        // Warm-up binds the weight tables once so both timings measure
        // evaluation, matching the committed plan_time baselines.
        let _ = plan.count_batch_results(&points[..1]);
        let _ = plan.count_batch_log(&points[..1]);

        let mut exact = Vec::new();
        let per_point_ms = time_ms(|| {
            exact = plan.count_batch_results(&points);
        });
        let mut lanes = Vec::new();
        let lane_ms = time_ms(|| {
            lanes = plan.count_batch_log(&points);
        });

        for (e, l) in exact.iter().zip(&lanes) {
            let e = e.as_ref().expect("exact point counts");
            let l = l.as_ref().expect("lane point counts");
            let e_ln = LogF64.from_weight(&e.value).ln_abs();
            assert!(
                (e_ln - l.ln_abs()).abs() <= 1e-9 * e_ln.abs().max(1.0),
                "lane result diverged from exact: {e_ln} vs {}",
                l.ln_abs()
            );
        }
        println!(
            "{{\"workload\": \"fo2-table1-{n}\", \"k\": {k}, \
             \"per_point_ms\": {per_point_ms:.2}, \"lane_ms\": {lane_ms:.2}, \
             \"speedup\": {:.2}}}",
            per_point_ms / lane_ms
        );
    }
}
