//! E1 — Table 1: the three WFOMC variants on Φ = ∀x∀y (R(x) ∨ S(x,y) ∨ T(y)).
//!
//! Series reproduced: the closed-form row, the lifted FO² computation of the
//! same quantity, the grounded baseline (exponential — only small n), and the
//! asymmetric variant via per-tuple weights (the row the paper marks #P-hard).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfomc::core::closed_form;
use wfomc::core::Guard;
use wfomc::ground::{wfomc_asymmetric, GroundSolver};
use wfomc::prelude::*;
use wfomc_bench::{standard_weights, table1_workload};

fn bench_table1(c: &mut Criterion) {
    let sentence = table1_workload();
    let voc = sentence.vocabulary();
    let weights = standard_weights();
    let exact = AlgebraWeights::lift(&Exact, &weights);

    let mut group = c.benchmark_group("table1");
    for n in [4usize, 8, 12] {
        group.bench_with_input(BenchmarkId::new("closed-form", n), &n, |b, &n| {
            b.iter(|| closed_form::wfomc_table1(n, &weights))
        });
        group.bench_with_input(BenchmarkId::new("lifted-fo2", n), &n, |b, &n| {
            b.iter(|| {
                Fo2Prepared::prepare(&sentence, &voc)
                    .unwrap()
                    .count_in(n, &Exact, &exact, true, &Guard::unarmed())
                    .unwrap()
            })
        });
    }
    for n in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("grounded", n), &n, |b, &n| {
            b.iter(|| GroundSolver::new().wfomc(&sentence, &voc, n, &weights))
        });
        group.bench_with_input(BenchmarkId::new("asymmetric-grounded", n), &n, |b, &n| {
            b.iter(|| {
                wfomc_asymmetric(&sentence, &voc, n, |atom| {
                    let bump = atom.tuple.iter().sum::<usize>() as i64 + 1;
                    (weight_int(bump), weight_int(1))
                })
            })
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
    targets = bench_table1
}
criterion_main!(benches);
