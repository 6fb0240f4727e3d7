//! The vendored bignum's hot paths: inline small values, Karatsuba
//! multiplication, Euclid gcd, and the balanced sum-tree accumulation —
//! measured both as microbenchmarks and through the multiplication-heavy
//! lifted workloads that motivated them.
//!
//! The `mul/dispatch-vs-schoolbook` pair pins the Karatsuba crossover: at and
//! below the threshold the two are the same code path, above it the dispatch
//! should pull ahead on balanced operands.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use num_bigint::BigUint;
use num_traits::One;
use wfomc::core::Guard;
use wfomc::prelude::*;
use wfomc_bench::{bignum_factorial_chain, bignum_harmonic, standard_weights};

/// A dense operand with `limbs` 64-bit limbs (all bits set, minus a nudge so
/// squares are not artificially regular).
fn dense(limbs: usize) -> BigUint {
    let mut x = BigUint::one();
    x = x << (64 * limbs);
    x - BigUint::from(41u32)
}

fn bench_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("bignum");
    for limbs in [16usize, 24, 32, 48, 64, 256] {
        let a = dense(limbs);
        let b = dense(limbs) - BigUint::from(1000u32);
        group.bench_with_input(BenchmarkId::new("mul/dispatch", limbs), &limbs, |bch, _| {
            bch.iter(|| &a * &b)
        });
        group.bench_with_input(
            BenchmarkId::new("mul/schoolbook", limbs),
            &limbs,
            |bch, _| bch.iter(|| a.mul_schoolbook(&b)),
        );
    }
    group.finish();
}

fn bench_small_value_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("bignum");
    // Chains dominated by word-sized values: the inline representation keeps
    // every step allocation-free.
    group.bench_function("small/factorial-500", |b| {
        b.iter(|| bignum_factorial_chain(500))
    });
    // Rational normalization: gcd + division per step.
    group.bench_function("small/harmonic-200", |b| b.iter(|| bignum_harmonic(200)));
    group.finish();
}

fn bench_lifted_workloads(c: &mut Criterion) {
    // The lifted workloads run tens of milliseconds each — fewer samples.
    let mut tuned = c
        .clone()
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    let mut group = tuned.benchmark_group("bignum");
    let weights = standard_weights();
    let exact = AlgebraWeights::lift(&Exact, &weights);

    // The FO² cell-sum engine's huge-exponent products (acceptance workload).
    let smokers = catalog::smokers_constraint();
    let voc = smokers.vocabulary();
    group.bench_function("fo2/smokers-30", |b| {
        b.iter(|| {
            Fo2Prepared::prepare(&smokers, &voc)
                .unwrap()
                .count_in(30, &Exact, &exact, true, &Guard::unarmed())
                .unwrap()
        })
    });

    // Circuit evaluation: one compiled d-DNNF, exact weight sweep.
    let plan = Problem::new(catalog::transitivity())
        .plan()
        .expect("transitivity plans");
    let points: Vec<(usize, Weights)> = (0..16)
        .map(|i| (3, Weights::from_ints([("E", i + 1, 1)])))
        .collect();
    group.bench_function("circuit/eval-sweep-16", |b| {
        b.iter(|| {
            for (n, w) in &points {
                let _ = plan.count(*n, w).unwrap();
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mul,
    bench_small_value_paths,
    bench_lifted_workloads
);
criterion_main!(benches);
