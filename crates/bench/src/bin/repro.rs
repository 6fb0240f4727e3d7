//! The reproduction harness: prints the rows/series behind every table and
//! figure of the paper. Run a single experiment with e.g.
//! `cargo run --release -p wfomc-bench --bin repro -- table1`, or everything
//! with `-- all`. `EXPERIMENTS.md` records the expected output.
//! `-- smoke` runs a fast cross-section (including the FO² scaling
//! experiment at a reduced domain size) as the CI smoke test and writes
//! three artifacts: per-phase timings (`target/smoke-timings.json`), a
//! `wfomc-obs/v1` metrics snapshot (`target/metrics-smoke.json`) and one
//! `wfomc-report/v1` solver report (`target/report-smoke.json`). The harness
//! switches `wfomc-obs` recording on at start, so the counters and spans are
//! live.

use std::env;
use std::time::Instant;

use wfomc::core::closed_form;
use wfomc::core::fo2::Fo2Prepared;
use wfomc::core::qs4::wfomc_qs4;
use wfomc::core::Guard;
use wfomc::ground::GroundSolver;
use wfomc::mln::ground_semantics::partition_function_brute;
use wfomc::prelude::*;
use wfomc::reductions::theta1::theta1;
use wfomc_bench::{
    approx, bignum_factorial_chain, bignum_harmonic, bignum_square_chain, fo2_scaling_workload,
    plan_reuse_workloads, short, smokers_mln, standard_weights, table1_workload, time_ms,
};

fn main() {
    // Every experiment below feeds the counter registry and the span table.
    wfomc_obs::set_enabled(true);
    let which = env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which == "smoke" {
        smoke();
        return;
    }
    let all = which == "all";
    if all || which == "table1" {
        table1();
    }
    if all || which == "figure1" {
        figure1();
    }
    if all || which == "figure2" {
        figure2();
    }
    if all || which == "table2" {
        table2();
    }
    if all || which == "qs4" {
        qs4();
    }
    if all || which == "fo2" {
        fo2();
    }
    if all || which == "fo2-scaling" {
        fo2_scaling();
    }
    if all || which == "cq" {
        cq_algebras();
    }
    if all || which == "mln" {
        mln();
    }
    if all || which == "algebra" {
        algebra_with_sizes(&[8, 12], &[4, 6]);
    }
    if all || which == "plan-reuse" {
        plan_reuse_with_k(16);
    }
    if all || which == "bignum" {
        bignum();
    }
    if all || which == "theta1" {
        theta1_experiment();
    }
    if all || which == "closed-forms" {
        closed_forms();
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// E1 — Table 1.
fn table1() {
    header("E1  Table 1: Φ = ∀x∀y (R(x) ∨ S(x,y) ∨ T(y))");
    let sentence = catalog::table1_sentence();
    let voc = sentence.vocabulary();
    let weights = standard_weights();
    let prepared = Fo2Prepared::prepare(&sentence, &voc).expect("table1 is FO²");
    println!(
        "{:>3} {:>26} {:>26} {:>26}",
        "n", "FOMC closed form", "FOMC lifted (FO²)", "WFOMC closed form"
    );
    for n in 0..=6 {
        let closed = closed_form::fomc_table1(n);
        let (lifted, _) = prepared
            .count(n, &Weights::ones(), true, &Guard::unarmed())
            .unwrap();
        let weighted = closed_form::wfomc_table1(n, &weights);
        assert_eq!(closed, lifted);
        println!(
            "{n:>3} {:>26} {:>26} {:>26}",
            short(&closed),
            short(&lifted),
            short(&weighted)
        );
    }
    let grounded = GroundSolver::new().fomc(&sentence, 3);
    println!(
        "grounded cross-check at n=3: {grounded} (matches: {})",
        grounded == closed_form::fomc_table1(3)
    );
}

/// E2 — Figure 1.
fn figure1() {
    header("E2  Figure 1: conjunctive-query landscape");
    println!(
        "{:<14} {:>10} {:>18} {:>22}",
        "query", "acyclicity", "solver method", "FOMC at n=3"
    );
    let solver = Solver::new();
    for (name, q) in wfomc_bench::figure1_workload() {
        let class = query_hypergraph(&q).classify();
        let f = q.to_formula();
        let n = if f.vocabulary().num_ground_tuples(3) > 40 {
            2
        } else {
            3
        };
        let report = solver.fomc(&f, n).unwrap();
        println!(
            "{:<14} {:>10} {:>18} {:>22}",
            name,
            format!("{class:?}"),
            report.method.to_string(),
            format!("{} (n={n})", short(&report.value))
        );
    }
    println!("\nlifted chain-of-3 FOMC series (γ-acyclic, PTIME):");
    let chain = catalog::chain_query(3);
    for n in [2usize, 4, 8, 16] {
        let v = gamma_acyclic_wfomc(&chain, n, &Weights::ones()).unwrap();
        println!("  n = {n:>3}: {}", short(&v));
    }
}

/// Theorem 3.6 in two algebras: the chain and star CQs counted exactly and
/// in `LogF64` through one plan each, which must agree to 1e-9 (relative)
/// without grounding a single point.
fn cq_algebras() {
    header("CQ  Theorem 3.6: γ-acyclic CQs, exact vs LogF64");
    println!(
        "{:<8} {:>4} {:>22} {:>22} {:>10}",
        "query", "n", "ln FOMC (exact)", "ln FOMC (LogF64)", "|Δ ln|"
    );
    let ones = AlgebraWeights::lift(&LogF64, &Weights::ones());
    for (name, query) in [
        ("chain3", catalog::chain_query(3)),
        ("star3", catalog::star_query(3)),
    ] {
        let plan = Problem::new(query.to_formula()).plan().expect("CQs plan");
        assert_eq!(plan.method(), Method::GammaAcyclicCq, "{name}");
        for n in [2usize, 4, 8, 16, 50] {
            let exact = plan.count(n, &Weights::ones()).expect("exact count").value;
            let want = LogF64.from_weight(&exact);
            let got = plan.count_in(n, &LogF64, &ones).expect("log count");
            let delta = (got.ln_abs() - want.ln_abs()).abs();
            println!(
                "{name:<8} {n:>4} {:>22.6} {:>22.6} {delta:>10.1e}",
                want.ln_abs(),
                got.ln_abs()
            );
            assert!(
                got.signum() == want.signum() && delta < 1e-9,
                "{name} at n={n}: LogF64 {got} disagrees with exact {want}"
            );
        }
        assert_eq!(plan.cache_stats().ground_misses, 0, "{name} ran lifted");
    }
}

/// E3 — Figure 2.
fn figure2() {
    header("E3  Figure 2: #SAT → FO² FOMC (combined complexity)");
    let (f, vars) = wfomc_bench::figure2_boolean_formula();
    let models = wfomc::prop::counter::wmc_formula(&f, &wfomc::prop::VarWeights::ones(vars));
    let red = sharp_sat_to_fomc(&f, vars);
    let count = GroundSolver::new().fomc(&red.sentence, red.domain_size);
    let factorial: i64 = (1..=(red.domain_size as i64)).product();
    println!("F = {f},  #F = {models}");
    println!(
        "FOMC(ϕ_F, {}) = {}  =  (n+1)!·#F = {}·{}",
        red.domain_size, count, factorial, models
    );
    println!("\nsize of ϕ_F as |F| grows (the sentence is part of the input):");
    for vars in [2usize, 4, 8, 16] {
        let r = sharp_sat_to_fomc(&PropFormula::var(0), vars);
        println!(
            "  {vars:>3} Boolean variables → {:>7} AST nodes",
            r.sentence.size()
        );
    }
}

/// E4 — Table 2.
fn table2() {
    header("E4  Table 2: open problems (grounded fallback only)");
    let solver = Solver::new();
    println!(
        "{:<34} {:>14} {:>20} {:>20}",
        "sentence", "method", "FOMC n=2", "FOMC n=3"
    );
    for (name, f) in catalog::table2_open_problems() {
        let r2 = solver.fomc(&f, 2).unwrap();
        let n3 = if f.vocabulary().num_ground_tuples(3) <= 27 {
            short(&solver.fomc(&f, 3).unwrap().value)
        } else {
            "(skipped)".to_string()
        };
        println!(
            "{:<34} {:>14} {:>20} {:>20}",
            name,
            r2.method.to_string(),
            short(&r2.value),
            n3
        );
    }
}

/// E5 — Theorem 3.7.
fn qs4() {
    header("E5  Theorem 3.7: the QS4 dynamic program");
    println!("{:>4} {:>30} {:>30}", "n", "FOMC (DP)", "grounded check");
    for n in [0usize, 1, 2, 3, 6, 12, 24] {
        let dp = wfomc_qs4(n, &Weights::ones());
        let check = if n <= 3 {
            let g = GroundSolver::new().fomc(&catalog::qs4(), n);
            format!(
                "{} ({})",
                short(&g),
                if g == dp { "ok" } else { "MISMATCH" }
            )
        } else {
            "(too large to ground)".to_string()
        };
        println!("{n:>4} {:>30} {:>30}", short(&dp), check);
    }
}

/// E6 — Appendix C.
fn fo2() {
    header("E6  Appendix C: FO² data complexity is polynomial");
    let weights = standard_weights();
    for (name, sentence) in [
        ("∀x∃y R(x,y)", catalog::forall_exists_edge()),
        ("spouse constraint", catalog::spouse_constraint()),
        ("smokers constraint", catalog::smokers_constraint()),
    ] {
        let prepared = Fo2Prepared::prepare(&sentence, &sentence.vocabulary()).unwrap();
        print!("{name:<22}");
        for n in [2usize, 4, 8, 16] {
            let (v, _) = prepared
                .count(n, &weights, true, &Guard::unarmed())
                .unwrap();
            print!("  n={n}: {:<18}", short(&v));
        }
        println!();
    }
}

/// E6b — scaling of the prefix-sharing cell-sum engine with the domain size.
fn fo2_scaling() {
    fo2_scaling_with_sizes(&[25, 50, 100]);
}

fn fo2_scaling_with_sizes(sizes: &[usize]) {
    header("E6b  FO² scaling: prefix-sharing cell-sum engine");
    let weights = standard_weights();
    println!(
        "{:<18} {:>4} {:>6} {:>12} {:>12} {:>10}",
        "sentence", "n", "cells", "terms", "pruned", "ms"
    );
    for (name, sentence) in [
        ("forall-exists", catalog::forall_exists_edge()),
        ("partition-12cell", fo2_scaling_workload()),
    ] {
        let prepared = Fo2Prepared::prepare(&sentence, &sentence.vocabulary()).unwrap();
        for &n in sizes {
            let start = Instant::now();
            let (_, stats) = prepared
                .count(n, &weights, true, &Guard::unarmed())
                .unwrap();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            println!(
                "{name:<18} {n:>4} {:>6} {:>12} {:>12} {ms:>10.1}",
                stats.total_valid_cells, stats.compositions_summed, stats.compositions_pruned
            );
        }
    }
}

/// E11 — the plan-then-execute API: `k` repeated queries per sentence,
/// one-shot `Solver::wfomc` per point vs one plan reused for every point
/// (plan creation included; values are cross-checked for equality).
fn plan_reuse_with_k(k: usize) {
    header("E11  Plan-then-execute: analyze once, count many");
    println!(
        "{:<34} {:>18} {:>12} {:>10} {:>8}",
        format!("workload (k = {k})"),
        "method",
        "one-shot ms",
        "plan ms",
        "speedup"
    );
    for (name, solver, sentence, points) in plan_reuse_workloads(k) {
        let voc = sentence.vocabulary();
        let start = Instant::now();
        let one_shot: Vec<_> = points
            .iter()
            .map(|(n, w)| solver.wfomc(&sentence, &voc, *n, w).unwrap().value)
            .collect();
        let one_shot_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let plan = solver.plan(&Problem::new(sentence.clone())).unwrap();
        let planned: Vec<_> = points
            .iter()
            .map(|(n, w)| plan.count(*n, w).unwrap().value)
            .collect();
        let plan_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(one_shot, planned, "plan and one-shot disagree on {name}");
        println!(
            "{name:<34} {:>18} {one_shot_ms:>12.1} {plan_ms:>10.1} {:>7.1}×",
            plan.method().to_string(),
            one_shot_ms / plan_ms
        );
    }
}

/// E13 — the vendored bignum's hot paths: inline small values, Karatsuba
/// multiplication, Euclid gcd, the balanced sum-tree accumulator. Pure
/// microbenchmarks plus the lifted workloads that bottom out in them.
fn bignum() {
    header("E13  Bignum: inline small values + Karatsuba");
    println!("{:<26} {:>10}", "workload", "ms");
    let weights = standard_weights();
    let row = |name: &str, f: &mut dyn FnMut()| {
        println!("{name:<26} {:>10.2}", time_ms(&mut *f));
    };
    row("square-chain-10", &mut || drop(bignum_square_chain(10)));
    row("factorial-3000", &mut || drop(bignum_factorial_chain(3000)));
    row("harmonic-500", &mut || drop(bignum_harmonic(500)));
    let smokers = catalog::smokers_constraint();
    let voc = smokers.vocabulary();
    row("fo2-smokers-30", &mut || {
        Fo2Prepared::prepare(&smokers, &voc)
            .expect("smokers lifts")
            .count(30, &weights, true, &Guard::unarmed())
            .expect("an unarmed guard cannot interrupt");
    });
}

/// The CI smoke test: every lifted pipeline once, at sizes that finish in
/// well under a minute, with cross-checks against closed forms / grounding.
/// Emits machine-readable per-phase timings (JSON) so CI artifacts keep a
/// perf history alongside the textual output.
fn smoke() {
    let mut timings: Vec<(&str, f64)> = Vec::new();
    let mut phase = |name: &'static str, f: &mut dyn FnMut()| {
        timings.push((name, time_ms(&mut *f)));
    };
    phase("table1", &mut table1);
    phase("qs4", &mut qs4);
    phase("fo2", &mut fo2);
    phase("fo2-scaling-25", &mut || fo2_scaling_with_sizes(&[25]));
    phase("cq", &mut cq_algebras);
    phase("plan-reuse-k4", &mut || plan_reuse_with_k(4));
    phase("algebra-8-4", &mut || algebra_with_sizes(&[8], &[4]));
    phase("bignum", &mut bignum);
    phase("closed-forms", &mut closed_forms);

    let rows: Vec<String> = timings
        .iter()
        .map(|(name, ms)| format!("  {{\"phase\": \"{name}\", \"ms\": {ms:.2}}}"))
        .collect();
    println!();
    write_artifact(
        "smoke timings",
        "target/smoke-timings.json",
        &format!("[\n{}\n]\n", rows.join(",\n")),
    );
    wfomc_obs::flush_thread();
    write_artifact(
        "metrics snapshot",
        "target/metrics-smoke.json",
        &wfomc_obs::snapshot().label("run", "smoke").to_json(),
    );

    // One canonical `wfomc-report/v1` object as a CI artifact — the same
    // `SolverReport::to_json` serialization the query service returns for
    // every count, so wire-format drift shows up as an artifact diff.
    let plan = Problem::new(table1_workload())
        .plan()
        .expect("table1 plans");
    let report = plan
        .count(12, plan.default_weights())
        .expect("table1 counts")
        .to_json();
    write_artifact(
        "solver report",
        "target/report-smoke.json",
        &format!("{report}\n"),
    );
    println!("smoke: ok");
}

/// Writes one smoke artifact under `target/`; an I/O error is reported, not
/// fatal.
fn write_artifact(what: &str, path: &str, contents: &str) {
    let _ = std::fs::create_dir_all("target");
    match std::fs::write(path, contents) {
        Ok(()) => println!("{what} written to {path}"),
        Err(e) => eprintln!("smoke: could not write {what} to {path}: {e}"),
    }
}

/// E8 — Examples 1.1/1.2.
fn mln() {
    header("E8  MLN inference via the Example 1.2 reduction");
    let mln = smokers_mln();
    let engine = MlnEngine::new(&mln).unwrap();
    let q = exists(["x"], atom("Smokes", &["x"]));
    println!(
        "{:>3} {:>26} {:>22} {:>14}",
        "n", "Z(n) lifted", "ground-semantics check", "Pr[∃ smoker]"
    );
    for n in 1..=6 {
        let z = engine.partition_function(n).unwrap();
        let check = if n <= 2 {
            let b = partition_function_brute(&mln, n);
            if b == z {
                "ok".to_string()
            } else {
                "MISMATCH".to_string()
            }
        } else {
            "-".to_string()
        };
        let p = engine.probability(&q, n).unwrap();
        println!(
            "{n:>3} {:>26} {:>22} {:>14.6}",
            short(&z),
            check,
            approx(&p)
        );
    }
}

/// E12 — the generic evaluation algebra: one plan, three rings. Exact vs
/// log-space-float MLN inference, and Poly-symbolic vs interpolated
/// equality removal, with cross-checks.
fn algebra_with_sizes(mln_sizes: &[usize], eq_sizes: &[usize]) {
    header("E12  Evaluation algebras: exact · log-float · polynomial");
    let engine = MlnEngine::new(&smokers_mln()).unwrap();
    let q = exists(["x"], atom("Smokes", &["x"]));
    println!(
        "{:<26} {:>4} {:>12} {:>12} {:>9}",
        "workload", "n", "exact ms", "log-f64 ms", "speedup"
    );
    for &n in mln_sizes {
        // Warm the plan cache so both timings measure evaluation only.
        let _ = engine.probability(&q, 1).unwrap();
        let start = Instant::now();
        let exact = engine.probability(&q, n).unwrap();
        let exact_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let log = engine.probability_in(&q, n, &LogF64).unwrap();
        let log_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            (approx(&exact) - log.to_f64()).abs() < 1e-6,
            "log-f64 marginal diverged at n = {n}"
        );
        println!(
            "{:<26} {n:>4} {exact_ms:>12.2} {log_ms:>12.3} {:>8.1}×",
            "mln marginal (smokers)",
            exact_ms / log_ms
        );
    }
    let sentence = forall(["x", "y"], or(vec![atom("R", &["x", "y"]), eq("x", "y")]));
    let voc = sentence.vocabulary();
    let weights = Weights::from_ints([("R", 2, 3)]);
    println!(
        "{:<26} {:>4} {:>12} {:>12} {:>9}",
        "workload", "n", "interp ms", "poly ms", "speedup"
    );
    for &n in eq_sizes {
        let start = Instant::now();
        let interpolated = wfomc_via_equality_removal_interpolated(&sentence, &voc, n, &weights);
        let interp_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let symbolic = wfomc_via_equality_removal(&sentence, &voc, n, &weights);
        let poly_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            symbolic, interpolated,
            "equality removal diverged at n = {n}"
        );
        println!(
            "{:<26} {n:>4} {interp_ms:>12.2} {poly_ms:>12.2} {:>8.1}×",
            "equality removal (Lemma 3.5)",
            interp_ms / poly_ms
        );
    }
}

/// E9 — Theorem 3.1 / Appendix B.
fn theta1_experiment() {
    header("E9  Appendix B: the Θ₁ encoding");
    for (name, tm) in [
        ("scanner (deterministic)", scanner_machine(1)),
        ("coin-flip (nondeterministic)", coin_flip_machine(1)),
    ] {
        let enc = theta1(&tm);
        println!(
            "{name:<30} FO{}  |Θ₁| = {:>6} AST nodes, {:>3} predicates",
            enc.sentence.distinct_variable_count(),
            enc.sentence.size(),
            enc.vocabulary.len()
        );
        print!("  #accepting(n): ");
        for n in 1..=6 {
            print!("n={n}:{}  ", tm.count_accepting(n));
        }
        println!();
    }
    let enc = theta1(&scanner_machine(1));
    let counted = wfomc::ground::fomc(&enc.sentence, 1);
    println!("ground check at n=1 (scanner): FOMC(Θ₁,1) = {counted} = 1!·1");
}

/// E10 — closed forms.
fn closed_forms() {
    header("E10  Introduction / §2 closed forms");
    println!(
        "{:>4} {:>24} {:>24} {:>24}",
        "n", "(2ⁿ−1)ⁿ", "(w+w̄)ⁿ−w̄ⁿ  (w=3,w̄=2)", "dual CQ count"
    );
    for n in [1usize, 2, 3, 4, 6, 8] {
        println!(
            "{n:>4} {:>24} {:>24} {:>24}",
            short(&closed_form::fomc_forall_exists_edge(n)),
            short(&closed_form::wfomc_exists_unary(
                n,
                &weight_int(3),
                &weight_int(2)
            )),
            short(&closed_form::fomc_table1_dual_cq(n))
        );
    }
}
