//! E6 — Appendix C: the FO² cell algorithm. Polynomial scaling in the domain
//! size for fixed sentences, compared against the exponential grounded
//! pipeline, plus an ablation of the cell-pruning step (statistics of valid
//! cells and compositions summed are exposed through `Fo2Stats`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfomc::core::Guard;
use wfomc::ground::GroundSolver;
use wfomc::prelude::*;
use wfomc_bench::standard_weights;

fn bench_fo2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fo2");
    let weights = standard_weights();

    let sentences = vec![
        ("forall-exists", catalog::forall_exists_edge()),
        ("table1", catalog::table1_sentence()),
        ("spouse", catalog::spouse_constraint()),
        ("smokers", catalog::smokers_constraint()),
    ];

    for (name, sentence) in &sentences {
        let voc = sentence.vocabulary();
        for n in [6usize, 12, 30] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/lifted"), n),
                &n,
                |b, &n| {
                    b.iter(|| {
                        Fo2Prepared::prepare(sentence, &voc)
                            .unwrap()
                            .count(n, &weights, true, &Guard::unarmed())
                            .unwrap()
                    })
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new(format!("{name}/grounded"), 3),
            &3,
            |b, &n| b.iter(|| GroundSolver::new().wfomc(sentence, &voc, n, &weights)),
        );
    }

    // Cell statistics (the cost drivers): report once as a benchmark of the
    // normalization + cell-construction pipeline alone (n = 1 keeps the
    // composition sum trivial).
    group.bench_function("normalization-and-cells/table1", |b| {
        let sentence = catalog::table1_sentence();
        let voc = sentence.vocabulary();
        b.iter(|| {
            Fo2Prepared::prepare(&sentence, &voc)
                .unwrap()
                .count(1, &weights, true, &Guard::unarmed())
                .unwrap()
                .1
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_fo2
}
criterion_main!(benches);
