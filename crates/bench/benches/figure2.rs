//! E3 — Figure 2 / Theorem 4.1(1): the #SAT → FO² FOMC reduction (combined
//! complexity). Measures the cost of building ϕ_F as the number of Boolean
//! variables grows, and the cost of actually counting its models by grounding
//! for the smallest instance (the #P-hard direction).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wfomc::ground::GroundSolver;
use wfomc::prelude::*;
use wfomc_bench::figure2_boolean_formula;

fn bench_figure2(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure2");

    // Building ϕ_F: the sentence grows quadratically with the variable count.
    for vars in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("build-phi_F", vars), &vars, |b, &vars| {
            let f = PropFormula::or(PropFormula::var(0), PropFormula::var(vars - 1));
            b.iter(|| sharp_sat_to_fomc(&f, vars).sentence.size())
        });
    }

    // Counting FOMC(ϕ_F, n+1) by grounding for the 2-variable instance.
    let (f, vars) = figure2_boolean_formula();
    let reduction = sharp_sat_to_fomc(&f, vars);
    group.bench_function("count-phi_F/2vars-grounded", |b| {
        b.iter(|| GroundSolver::new().fomc(&reduction.sentence, reduction.domain_size))
    });

    // The #SAT side of the equation, for reference.
    group.bench_function("count-F/enumeration", |b| {
        b.iter(|| {
            wfomc::prop::wmc_formula_via_in(
                &f,
                &Exact,
                &wfomc::prop::VarWeights::ones(vars),
                WmcBackend::Enumerate,
                &Guard::unarmed(),
            )
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
    targets = bench_figure2
}
criterion_main!(benches);
