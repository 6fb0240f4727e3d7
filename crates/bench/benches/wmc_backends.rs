//! Ablation — the propositional WMC backends underlying the grounded
//! pipeline: brute-force enumeration vs weighted DPLL with component caching
//! vs d-DNNF knowledge compilation, on the lineage of a catalog sentence and
//! on random 3-CNFs.
//!
//! The `amortized/*` group is the compile-once / evaluate-many scenario the
//! circuit backend exists for: one CNF evaluated at `k` different weight
//! vectors (the access pattern of a grounded plan answering many weight
//! functions at one domain size). DPLL re-runs its search per vector; the
//! circuit backend compiles once and pays one linear evaluation per vector.
//!
//! Every count is the `Exact` instance of the generic counters, under an
//! unarmed guard.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wfomc::ground::Lineage;
use wfomc::prelude::*;
use wfomc::prop::cnf::Lit;
use wfomc::prop::counter::{wmc_formula_via_in, wmc_in, CompiledWmc, WmcBackend};
use wfomc::prop::{Cnf, VarWeights};

fn random_cnf(num_vars: usize, num_clauses: usize, seed: u64) -> Cnf {
    let mut rng = StdRng::seed_from_u64(seed);
    let clauses = (0..num_clauses)
        .map(|_| {
            (0..3)
                .map(|_| Lit {
                    var: rng.gen_range(0..num_vars),
                    positive: rng.gen_bool(0.5),
                })
                .collect()
        })
        .collect();
    Cnf::new(num_vars, clauses)
}

/// `k` weight vectors sweeping one variable's weight.
fn weight_sweep(num_vars: usize, k: usize) -> Vec<VarWeights> {
    (0..k)
        .map(|z| {
            let mut w = VarWeights::ones(num_vars);
            w.set(0, weight_int(z as i64), weight_int(1));
            w
        })
        .collect()
}

const ALL_BACKENDS: [WmcBackend; 3] =
    [WmcBackend::Dpll, WmcBackend::Enumerate, WmcBackend::Circuit];

fn bench_wmc_backends(c: &mut Criterion) {
    let unarmed = Guard::unarmed();
    let mut group = c.benchmark_group("wmc_backends");

    // Random 3-CNF instances, single evaluation.
    for &num_vars in &[12usize, 18] {
        let cnf = random_cnf(num_vars, num_vars * 3, 7);
        let weights = VarWeights::ones(cnf.num_vars);
        for backend in ALL_BACKENDS {
            let label = format!("{backend:?}").to_lowercase();
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/random-3cnf"), num_vars),
                &backend,
                |b, &backend| b.iter(|| wmc_in(&cnf, &Exact, &weights, backend, &unarmed)),
            );
        }
    }

    // The lineage of the Table 1 sentence at n = 3 (15 ground atoms).
    let sentence = catalog::table1_sentence();
    let voc = sentence.vocabulary();
    let lineage = Lineage::build(&sentence, &voc, 3);
    let weights = lineage.symmetric_weights(&Weights::ones());
    for backend in ALL_BACKENDS {
        group.bench_with_input(
            BenchmarkId::new("table1-lineage-n3", format!("{backend:?}")),
            &backend,
            |b, &backend| {
                b.iter(|| wmc_formula_via_in(&lineage.prop, &Exact, &weights, backend, &unarmed))
            },
        );
    }
    group.finish();

    // Compile-once / evaluate-many: one CNF, k weight vectors.
    let mut group = c.benchmark_group("amortized");
    let cnf = random_cnf(16, 40, 11);
    for &k in &[1usize, 5, 25] {
        let sweep = weight_sweep(cnf.num_vars, k);
        group.bench_with_input(BenchmarkId::new("dpll/k-vectors", k), &(), |b, _| {
            b.iter(|| {
                sweep
                    .iter()
                    .map(|w| wmc_in(&cnf, &Exact, w, WmcBackend::Dpll, &unarmed))
                    .collect::<Vec<_>>()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("circuit-compile+eval/k-vectors", k),
            &(),
            |b, _| {
                b.iter(|| {
                    let compiled = CompiledWmc::compile_guarded(&cnf, &unarmed).unwrap();
                    sweep
                        .iter()
                        .map(|w| compiled.wmc_in(&Exact, w))
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    // The marginal cost of one extra evaluation once compiled.
    let compiled = CompiledWmc::compile_guarded(&cnf, &unarmed).unwrap();
    let sweep = weight_sweep(cnf.num_vars, 1);
    group.bench_with_input(BenchmarkId::new("circuit-eval-only", 1), &(), |b, _| {
        b.iter(|| compiled.wmc_in(&Exact, &sweep[0]))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_wmc_backends
}
criterion_main!(benches);
