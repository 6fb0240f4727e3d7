//! E6b — domain-size scaling of the prefix-sharing FO² cell-sum engine.
//!
//! Two regimes: `forall-exists` (3 cells, the dense sum is small) scales to
//! n = 100 directly, and `partition-12cell` (12 valid cells, hard constraints
//! zero most cross-cell pair entries) demonstrates that the engine's zero-term
//! subtree cutoffs — not raw enumeration speed — are what make a 12-cell
//! sentence with `C(111, 11) ≈ 4.7·10¹¹` compositions finish in seconds.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfomc::core::Guard;
use wfomc::prelude::*;
use wfomc_bench::{fo2_scaling_workload, standard_weights};

fn bench_fo2_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fo2_scaling");
    let exact = AlgebraWeights::lift(&Exact, &standard_weights());

    let forall_exists = catalog::forall_exists_edge();
    let voc = forall_exists.vocabulary();
    for n in [25usize, 50, 100] {
        group.bench_with_input(BenchmarkId::new("forall-exists", n), &n, |b, &n| {
            b.iter(|| {
                Fo2Prepared::prepare(&forall_exists, &voc)
                    .unwrap()
                    .count_in(n, &Exact, &exact, true, &Guard::unarmed())
                    .unwrap()
            })
        });
    }

    let partition = fo2_scaling_workload();
    let voc = partition.vocabulary();
    for n in [25usize, 50, 100] {
        group.bench_with_input(BenchmarkId::new("partition-12cell", n), &n, |b, &n| {
            b.iter(|| {
                Fo2Prepared::prepare(&partition, &voc)
                    .unwrap()
                    .count_in(n, &Exact, &exact, true, &Guard::unarmed())
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(2)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(5));
    targets = bench_fo2_scaling
}
criterion_main!(benches);
