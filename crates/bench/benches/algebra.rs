//! E12 — the generic evaluation algebra: one plan, three rings.
//!
//! Two workloads where the algebra choice is the whole story:
//!
//! * **MLN inference** (the E8 smokers network): exact rationals grow with
//!   `n` (the partition function has hundreds of digits), log-space floats
//!   stay constant-width — same plans, same cell-sum engine. Log-space
//!   marginals are nonetheless far *slower* at the bench sizes (release,
//!   2 vCPU: 0.23 ms exact against 14.9 ms `LogF64` at n = 8, 0.49 ms
//!   against 227 ms at n = 12): exact counts merge interchangeable cells,
//!   which log-space counts skip to stay bit-reproducible, so they sum over
//!   many more compositions. Merging cells at prepare time, in every
//!   algebra, is ROADMAP item 1.
//! * **Equality removal** (Lemma 3.5): the `Poly` algebra computes the
//!   Eq-weight polynomial in **one** lifted evaluation.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfomc::prelude::*;
use wfomc_bench::smokers_mln;

fn bench_mln_algebras(c: &mut Criterion) {
    let mut group = c.benchmark_group("algebra");
    let mln = smokers_mln();
    let engine = MlnEngine::new(&mln).unwrap();
    let query = exists(["x"], atom("Smokes", &["x"]));

    for n in [8usize, 12] {
        group.bench_with_input(BenchmarkId::new("mln-marginal/exact", n), &n, |b, &n| {
            b.iter(|| engine.probability(&query, n).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("mln-marginal/log-f64", n), &n, |b, &n| {
            b.iter(|| engine.probability_in(&query, n, &LogF64).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("mln-partition/exact", n), &n, |b, &n| {
            b.iter(|| engine.partition_function(n).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("mln-partition/log-f64", n), &n, |b, &n| {
            b.iter(|| engine.partition_function_in(n, &LogF64).unwrap())
        });
    }
    group.finish();
}

fn bench_equality_removal_algebras(c: &mut Criterion) {
    let mut group = c.benchmark_group("algebra");
    // The Lemma 3.5 running example: the rewritten sentence stays FO².
    let sentence = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
    let voc = sentence.vocabulary();
    let weights = Weights::from_ints([("R", 2, 3)]);

    for n in [4usize, 6] {
        group.bench_with_input(BenchmarkId::new("eq-removal/poly", n), &n, |b, &n| {
            b.iter(|| wfomc_via_equality_removal(&sentence, &voc, n, &weights))
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
    targets = bench_mln_algebras, bench_equality_removal_algebras
}
criterion_main!(benches);
