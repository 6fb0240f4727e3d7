//! The plan-then-execute payoff: `k` repeated queries (domain-size sweeps,
//! weight sweeps) per sentence, one-shot `Solver::wfomc` per point vs one
//! `Solver::plan` whose `count` is called per point.
//!
//! The `plan/...` series includes plan *creation* in every iteration, so it
//! measures the honest amortized cost; `count-only/...` measures the marginal
//! cost of one extra point on an existing plan.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfomc::prelude::*;
use wfomc_bench::plan_reuse_workloads;

fn bench_plan_reuse(c: &mut Criterion) {
    let k = 8;
    let mut group = c.benchmark_group("plan_reuse");
    for (name, solver, sentence, points) in plan_reuse_workloads(k) {
        let voc = sentence.vocabulary();
        group.bench_with_input(BenchmarkId::new("one-shot", name), &(), |b, _| {
            b.iter(|| {
                points
                    .iter()
                    .map(|(n, w)| solver.wfomc(&sentence, &voc, *n, w).unwrap().value)
                    .collect::<Vec<_>>()
            })
        });
        group.bench_with_input(BenchmarkId::new("plan", name), &(), |b, _| {
            b.iter(|| {
                let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
                points
                    .iter()
                    .map(|(n, w)| plan.count(*n, w).unwrap().value)
                    .collect::<Vec<_>>()
            })
        });
        // Marginal cost of one extra point once planned (and warmed).
        let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
        let (last_n, last_w) = points.last().expect("workloads have points").clone();
        let _ = plan.count(last_n, &last_w).unwrap();
        group.bench_with_input(BenchmarkId::new("count-only", name), &(), |b, _| {
            b.iter(|| plan.count(last_n, &last_w).unwrap().value)
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_plan_reuse
}
criterion_main!(benches);
