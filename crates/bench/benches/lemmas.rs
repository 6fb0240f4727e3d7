//! E7 — Lemmas 3.3–3.5 ablation: how much does each transformation cost, and
//! what does counting through the transformed sentence cost compared to
//! counting the original directly?

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use wfomc::core::normal::{
    remove_equality, remove_negation, skolemize, wfomc_via_equality_removal,
};
use wfomc::ground::wfomc as ground_wfomc;
use wfomc::prelude::*;

fn bench_lemmas(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemmas");
    let weights = Weights::from_ints([("R", 2, 1), ("S", 1, 2)]);

    // Lemma 3.3: Skolemization (transformation cost + counting through it).
    let fe = catalog::forall_exists_edge();
    let fe_voc = fe.vocabulary();
    group.bench_function("skolemize/transform", |b| {
        b.iter(|| skolemize(&fe, &fe_voc, &weights))
    });
    let sk = skolemize(&fe, &fe_voc, &weights);
    group.bench_function("skolemize/count-original-grounded-n2", |b| {
        b.iter(|| ground_wfomc(&fe, &fe_voc, 2, &weights))
    });
    group.bench_function("skolemize/count-transformed-grounded-n2", |b| {
        b.iter(|| ground_wfomc(&sk.formula(), &sk.vocabulary, 2, &sk.weights))
    });

    // Lemma 3.4: negation removal on the spouse constraint.
    let spouse = catalog::spouse_constraint();
    group.bench_function("negation-removal/transform", |b| {
        b.iter(|| remove_negation(&spouse, &spouse.vocabulary(), &Weights::ones()).unwrap())
    });

    // Lemma 3.5: equality removal, transformation and counting through it at
    // n = 2.
    let eq_sentence = forall(["x", "y"], or(vec![eq("x", "y"), atom("R", &["x", "y"])]));
    let eq_voc = eq_sentence.vocabulary();
    group.bench_function("equality-removal/transform", |b| {
        b.iter(|| remove_equality(&eq_sentence, &eq_voc))
    });
    // The planned path analyzes the rewritten sentence once (FO² here) and
    // evaluates it once in the `Poly` algebra.
    group.bench_function("equality-removal/planned-n2", |b| {
        b.iter(|| wfomc_via_equality_removal(&eq_sentence, &eq_voc, 2, &weights))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_lemmas
}
criterion_main!(benches);
