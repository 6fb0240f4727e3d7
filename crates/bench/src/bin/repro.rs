//! The reproduction harness: prints the rows/series behind every table and
//! figure of the paper. Run a single experiment with e.g.
//! `cargo run --release -p wfomc-bench --bin repro -- table1`, or everything
//! with `-- all`. `EXPERIMENTS.md` records the expected output.
//! `-- smoke` runs a fast cross-section (including the FO² scaling
//! experiment at a reduced domain size) as the CI smoke test and writes
//! machine-readable per-phase timings to `target/smoke-timings.json`
//! (override the path with `SMOKE_TIMINGS_JSON`).
//! `-- perf-gate` re-times a curated set of workloads and fails (exit 1)
//! when any of them regresses more than `PERF_GATE_FACTOR` (default 2×,
//! plus `PERF_GATE_SLACK_MS` of absolute headroom for runner noise) against
//! the baselines committed in the `BENCH_*.json` snapshots; set
//! `PERF_GATE_SKIP=1` to bypass it. The gate also checks cache
//! effectiveness: the plan-reuse workloads must hit their weight-binding /
//! grounding caches at least `PERF_GATE_MIN_HIT_RATE` (default 90%) of the
//! time, and the resource-governance layer's budget-off contract: on
//! fo2/table1-30, `Plan::count_with_limits` with no limits armed must stay
//! within `GUARD_GATE_FACTOR` (default 1.01 = ≤1% overhead) plus
//! `GUARD_GATE_SLACK_MS` of the ungoverned `Plan::count` (the `guard_time`
//! bin records the full three-mode A/B in `BENCH_guard.json`).
//! `-- trace --experiment <name>` times one experiment phase by phase
//! (parse / plan / bind / evaluate) and writes `target/trace.json`
//! (override with `TRACE_JSON`).
//! Both `smoke` and `perf-gate` also write a `wfomc-obs/v1` metrics
//! snapshot (`target/metrics-smoke.json` / `target/metrics-perf-gate.json`)
//! for CI artifacts. The harness switches `wfomc-obs` recording on at start,
//! so the counters and spans are live.

use std::env;
use std::time::Instant;

use wfomc::core::closed_form;
use wfomc::core::fo2::{wfomc_fo2, wfomc_fo2_with_stats, Fo2Prepared};
use wfomc::core::qs4::wfomc_qs4;
use wfomc::core::Guard;
use wfomc::ground::GroundSolver;
use wfomc::mln::ground_semantics::partition_function_brute;
use wfomc::prelude::*;
use wfomc::reductions::theta1::theta1;
use wfomc_bench::{
    approx, bignum_factorial_chain, bignum_harmonic, bignum_square_chain, fo2_scaling_workload,
    lane_sweep_points, plan_reuse_workloads, run_trace, short, smokers_mln, standard_weights,
    table1_workload, time_ms,
};

fn main() {
    // Every experiment below feeds the counter registry and the span table.
    wfomc_obs::set_enabled(true);
    let which = env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which == "smoke" {
        smoke();
        return;
    }
    if which == "perf-gate" {
        perf_gate();
        return;
    }
    if which == "trace" {
        let args: Vec<String> = env::args().skip(2).collect();
        let experiment = args
            .iter()
            .position(|a| a == "--experiment")
            .and_then(|i| args.get(i + 1))
            .map_or("plan-reuse", String::as_str);
        trace_experiment(experiment);
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
    println!(
        "{:>3} {:>26} {:>26} {:>26}",
        "n", "FOMC closed form", "FOMC lifted (FO²)", "WFOMC closed form"
    );
    for n in 0..=6 {
        let closed = closed_form::fomc_table1(n);
        let lifted = wfomc_fo2(&sentence, &voc, n, &Weights::ones()).unwrap();
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
        let voc = sentence.vocabulary();
        print!("{name:<22}");
        for n in [2usize, 4, 8, 16] {
            let v = wfomc_fo2(&sentence, &voc, n, &weights).unwrap();
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
        let voc = sentence.vocabulary();
        for &n in sizes {
            let start = Instant::now();
            let (_, stats) = wfomc_fo2_with_stats(&sentence, &voc, n, &weights).unwrap();
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
/// microbenchmarks plus the lifted workloads that bottom out in them
/// (snapshot and before/after numbers in `BENCH_bignum.json`).
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
        wfomc_fo2(&smokers, &voc, 30, &weights).expect("smokers lifts");
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

    let path =
        env::var("SMOKE_TIMINGS_JSON").unwrap_or_else(|_| "target/smoke-timings.json".to_string());
    let rows: Vec<String> = timings
        .iter()
        .map(|(name, ms)| format!("  {{\"phase\": \"{name}\", \"ms\": {ms:.2}}}"))
        .collect();
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nsmoke timings written to {path}"),
        Err(e) => eprintln!("\nsmoke: could not write timings to {path}: {e}"),
    }
    write_metrics_snapshot("smoke", "SMOKE_METRICS_JSON", "target/metrics-smoke.json");

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
    let path =
        env::var("SMOKE_REPORT_JSON").unwrap_or_else(|_| "target/report-smoke.json".to_string());
    match std::fs::write(&path, format!("{report}\n")) {
        Ok(()) => println!("solver report written to {path}"),
        Err(e) => eprintln!("smoke: could not write solver report to {path}: {e}"),
    }
    println!("smoke: ok");
}

/// Writes the current `wfomc-obs/v1` metrics snapshot for CI artifacts.
fn write_metrics_snapshot(run: &str, env_override: &str, default_path: &str) {
    wfomc_obs::flush_thread();
    let path = env::var(env_override).unwrap_or_else(|_| default_path.to_string());
    let json = wfomc_obs::snapshot().label("run", run).to_json();
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("metrics snapshot written to {path}"),
        Err(e) => eprintln!("{run}: could not write metrics snapshot to {path}: {e}"),
    }
}

/// The `trace` subcommand: per-phase timings of one experiment, printed and
/// written to `target/trace.json` (override with `TRACE_JSON`).
fn trace_experiment(experiment: &str) {
    header(&format!("Trace: {experiment}, phase by phase"));
    let trace = run_trace(experiment);
    println!("{:<12} {:>10}", "phase", "ms");
    for (phase, ms) in &trace.phases {
        println!("{phase:<12} {ms:>10.3}");
    }
    let sum: f64 = trace.phases.iter().map(|(_, ms)| ms).sum();
    println!(
        "{:<12} {sum:>10.3}   (wall {:.3} ms)",
        "total", trace.wall_ms
    );
    // Steal balance of the work-stealing fan-outs under the trace: how many
    // queue transfers rebalanced uneven subtrees, and how many lane batches
    // the run packed.
    wfomc_obs::flush_thread();
    println!(
        "steal balance: {} steals, {} lane batches ({} lane points) across {} cores",
        wfomc_obs::metrics::CELLSUM_STEALS.get(),
        wfomc_obs::metrics::CELLSUM_LANE_BATCHES.get(),
        wfomc_obs::metrics::BATCH_LANE_POINTS.get(),
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    let path = env::var("TRACE_JSON").unwrap_or_else(|_| "target/trace.json".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, trace.to_json()) {
        Ok(()) => println!("trace written to {path}"),
        Err(e) => eprintln!("trace: could not write {path}: {e}"),
    }
}

// ---------------------------------------------------------------------------
// CI perf-regression gate
// ---------------------------------------------------------------------------

/// Extracts the number following `"field":` after all `anchors` have been
/// matched in order — a deliberately tiny scanner for this repository's own
/// `BENCH_*.json` snapshots (no JSON dependency in the workspace). The field
/// lookup is bounded to the anchored object (it stops at the next `}`), so a
/// baseline row that loses its field is a hard `None` rather than a silent
/// read from the following row.
fn json_number_after(content: &str, anchors: &[&str], field: &str) -> Option<f64> {
    let mut pos = 0usize;
    for anchor in anchors {
        pos += content[pos..].find(anchor)? + anchor.len();
    }
    let end = content[pos..].find('}').map_or(content.len(), |e| pos + e);
    let scope = &content[pos..end];
    let key = format!("\"{field}\":");
    let at = scope.find(&key)? + key.len();
    let number: String = scope[at..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    number.parse().ok()
}

/// One gated workload: where its baseline lives and how to re-measure it.
struct GateWorkload<'a> {
    name: &'static str,
    baseline_file: &'static str,
    anchors: &'static [&'static str],
    field: &'static str,
    run: Box<dyn FnMut() + 'a>,
}

/// Re-times the curated workloads and compares each against its committed
/// `BENCH_*.json` baseline. A workload fails the gate when its best-of-3
/// time exceeds `baseline × PERF_GATE_FACTOR + PERF_GATE_SLACK_MS`
/// (defaults 2.0 and 50 ms — tolerant of runner noise but loud about real
/// regressions). Results are also written as JSON to
/// `target/perf-gate.json`.
fn perf_gate() {
    if env::var("PERF_GATE_SKIP").is_ok_and(|v| v == "1") {
        println!("perf-gate: skipped (PERF_GATE_SKIP=1)");
        return;
    }
    let factor: f64 = env::var("PERF_GATE_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let slack_ms: f64 = env::var("PERF_GATE_SLACK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0);

    // Setup (formula construction, vocabularies, workload tables) happens
    // here, outside the timed closures, so measured_ms times the same work
    // as the committed fo2_time / plan_time baselines.
    let weights = standard_weights();
    let fo2_run = |sentence: Formula, n: usize| {
        let w = weights.clone();
        let voc = sentence.vocabulary();
        move || {
            wfomc_fo2(&sentence, &voc, n, &w).expect("gate workload lifts");
        }
    };
    let plan_run = |workload: &'static str| {
        let (name, solver, sentence, points) = plan_reuse_workloads(16)
            .into_iter()
            .find(|(name, ..)| *name == workload)
            .expect("gate references a known plan-reuse workload");
        move || {
            let plan = solver
                .plan(&Problem::new(sentence.clone()))
                .unwrap_or_else(|e| panic!("{name} plans: {e:?}"));
            for (n, w) in &points {
                let _ = plan.count(*n, w).expect("gate count succeeds");
            }
        }
    };
    let engine = MlnEngine::new(&smokers_mln()).expect("smokers MLN builds");
    let smokes_query = exists(["x"], atom("Smokes", &["x"]));

    let mut gates: Vec<GateWorkload> = vec![
        GateWorkload {
            name: "fo2/forall-exists-30",
            baseline_file: "BENCH_fo2.json",
            anchors: &["\"workload\": \"forall-exists\", \"n\": 30"],
            field: "after_ms",
            run: Box::new(fo2_run(catalog::forall_exists_edge(), 30)),
        },
        GateWorkload {
            name: "fo2/smokers-30",
            baseline_file: "BENCH_fo2.json",
            anchors: &["\"workload\": \"smokers\", \"n\": 30"],
            field: "after_ms",
            run: Box::new(fo2_run(catalog::smokers_constraint(), 30)),
        },
        GateWorkload {
            name: "fo2/table1-12",
            baseline_file: "BENCH_fo2.json",
            anchors: &["\"workload\": \"table1\", \"n\": 12"],
            field: "after_ms",
            run: Box::new(fo2_run(catalog::table1_sentence(), 12)),
        },
        GateWorkload {
            name: "plan/quad-binary-n-sweep",
            baseline_file: "BENCH_plan.json",
            anchors: &["\"workload\": \"fo2/quad-binary-n-sweep\""],
            field: "plan_ms",
            run: Box::new(plan_run("fo2/quad-binary-n-sweep")),
        },
        GateWorkload {
            name: "plan/ground-circuit-sweep",
            baseline_file: "BENCH_plan.json",
            anchors: &["\"workload\": \"ground/transitivity-weight-sweep\""],
            field: "plan_ms",
            run: Box::new(plan_run("ground/transitivity-weight-sweep")),
        },
        GateWorkload {
            name: "algebra/mln-marginal-log-8",
            baseline_file: "BENCH_algebra.json",
            anchors: &["\"mln-marginal\"", "\"n=8\""],
            field: "log_f64_ms",
            run: Box::new(|| {
                let _ = engine
                    .probability_in(&smokes_query, 8, &LogF64)
                    .expect("marginal evaluates");
            }),
        },
        GateWorkload {
            name: "bignum/square-chain-10",
            baseline_file: "BENCH_bignum.json",
            anchors: &["\"workload\": \"square-chain-10\""],
            field: "after_ms",
            run: Box::new(|| drop(bignum_square_chain(10))),
        },
        GateWorkload {
            name: "bignum/harmonic-500",
            baseline_file: "BENCH_bignum.json",
            anchors: &["\"workload\": \"harmonic-500\""],
            field: "after_ms",
            run: Box::new(|| drop(bignum_harmonic(500))),
        },
    ];

    header("Perf-regression gate (baselines: committed BENCH_*.json)");
    println!("tolerance: measured ≤ baseline × {factor} + {slack_ms} ms   (best of 3 runs)");
    println!(
        "{:<28} {:>12} {:>12} {:>12}  status",
        "workload", "baseline ms", "measured ms", "allowed ms"
    );
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let mut rows: Vec<String> = Vec::new();
    let mut failed = false;
    for gate in &mut gates {
        let path = format!("{manifest_dir}/../../{}", gate.baseline_file);
        let content = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", gate.baseline_file));
        let Some(baseline) = json_number_after(&content, gate.anchors, gate.field) else {
            panic!(
                "no baseline for {} in {} (anchors {:?}, field {})",
                gate.name, gate.baseline_file, gate.anchors, gate.field
            );
        };
        (gate.run)(); // warm-up: thread-local memos, lazily compiled plans
        let measured = (0..3)
            .map(|_| time_ms(|| (gate.run)()))
            .fold(f64::INFINITY, f64::min);
        let allowed = baseline * factor + slack_ms;
        let ok = measured <= allowed;
        failed |= !ok;
        println!(
            "{:<28} {baseline:>12.2} {measured:>12.2} {allowed:>12.2}  {}",
            gate.name,
            if ok { "ok" } else { "REGRESSED" }
        );
        rows.push(format!(
            "  {{\"workload\": \"{}\", \"baseline_ms\": {baseline:.2}, \"measured_ms\": {measured:.2}, \
             \"allowed_ms\": {allowed:.2}, \"ok\": {ok}}}",
            gate.name
        ));
    }
    // Cache-effectiveness gate: the whole point of plan-then-execute is that
    // repeated counts hit the prepared caches. Re-run two plan-reuse
    // workloads on fresh plans and require their cache hit rates (the plans'
    // own always-on accounting) to clear the bar: 16 points with
    // one distinct weight function / domain size ⇒ 15/16 = 93.75% ≥ 90%.
    let min_rate: f64 = env::var("PERF_GATE_MIN_HIT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.90);
    println!(
        "\n{:<28} {:>12} {:>12}  status",
        "cache gate", "hit rate", "required"
    );
    for (gate_name, workload, family) in [
        (
            "cache/fo2-bind-hit-rate",
            "fo2/quad-binary-n-sweep",
            Method::Fo2,
        ),
        (
            "cache/ground-hit-rate",
            "ground/transitivity-weight-sweep",
            Method::Ground,
        ),
    ] {
        let (name, solver, sentence, points) = plan_reuse_workloads(16)
            .into_iter()
            .find(|(name, ..)| *name == workload)
            .expect("cache gate references a known plan-reuse workload");
        let plan = solver
            .plan(&Problem::new(sentence))
            .unwrap_or_else(|e| panic!("{name} plans: {e:?}"));
        assert_eq!(
            plan.method(),
            family,
            "{name} planned to an unexpected method"
        );
        for (n, w) in &points {
            let _ = plan.count(*n, w).expect("cache gate count succeeds");
        }
        let stats = plan.cache_stats();
        let rate = match family {
            Method::Fo2 => stats.fo2_bind_hit_rate(),
            _ => stats.ground_hit_rate(),
        }
        .unwrap_or(0.0);
        let ok = rate >= min_rate;
        failed |= !ok;
        println!(
            "{gate_name:<28} {:>11.1}% {:>11.1}%  {}",
            rate * 100.0,
            min_rate * 100.0,
            if ok { "ok" } else { "LOW" }
        );
        rows.push(format!(
            "  {{\"workload\": \"{gate_name}\", \"hit_rate\": {rate:.4}, \
             \"required\": {min_rate:.4}, \"ok\": {ok}}}"
        ));
    }

    // Budget-off guard gate: governing a solve must be free when no limits
    // are armed. Time the same warm plan through the ungoverned
    // `Plan::count` and through `Plan::count_with_limits` with
    // `ExecutionLimits::none()` (guard constructed, nothing armed) and
    // require the governed path within GUARD_GATE_FACTOR (default 1.01,
    // i.e. ≤1% relative overhead) plus GUARD_GATE_SLACK_MS of absolute
    // headroom for runner noise.
    let guard_factor: f64 = env::var("GUARD_GATE_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.01);
    let guard_slack_ms: f64 = env::var("GUARD_GATE_SLACK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0);
    let guard_weights = standard_weights();
    let guard_plan = Solver::new()
        .plan(&Problem::new(catalog::table1_sentence()))
        .expect("table1 plans");
    let no_limits = ExecutionLimits::none();
    let ungoverned = || {
        let _ = guard_plan
            .count(30, &guard_weights)
            .expect("guard gate count succeeds");
    };
    let governed = || {
        let _ = guard_plan
            .count_with_limits(30, &guard_weights, &no_limits, None)
            .expect("guard gate governed count succeeds");
    };
    ungoverned(); // warm-up: both paths then share the same warm caches
    governed();
    let base_ms = (0..3)
        .map(|_| time_ms(ungoverned))
        .fold(f64::INFINITY, f64::min);
    let governed_ms = (0..3)
        .map(|_| time_ms(governed))
        .fold(f64::INFINITY, f64::min);
    let allowed = base_ms * guard_factor + guard_slack_ms;
    let ok = governed_ms <= allowed;
    failed |= !ok;
    println!(
        "\n{:<28} {:>12} {:>12} {:>12}  status",
        "guard gate (fo2/table1-30)", "ungoverned", "governed", "allowed ms"
    );
    println!(
        "{:<28} {base_ms:>12.2} {governed_ms:>12.2} {allowed:>12.2}  {}",
        "guard/budget-off-overhead",
        if ok { "ok" } else { "SLOW" }
    );
    rows.push(format!(
        "  {{\"workload\": \"guard/budget-off-overhead\", \"ungoverned_ms\": {base_ms:.2}, \
         \"governed_ms\": {governed_ms:.2}, \"allowed_ms\": {allowed:.2}, \"ok\": {ok}}}"
    ));

    // Serve overhead gate: k counts through an in-process wfomc-serve
    // daemon over loopback HTTP must stay within SERVE_GATE_FACTOR
    // (default 1.5, the serve PR's amortized-latency acceptance bar) of
    // the same k counts through a bare warm `Plan::count` loop,
    // plus SERVE_GATE_SLACK_MS of absolute headroom. The served time is
    // additionally held against the committed BENCH_serve.json baseline
    // (same k, same sentence, same n) under the standard factor/slack.
    let serve_factor: f64 = env::var("SERVE_GATE_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    let serve_slack_ms: f64 = env::var("SERVE_GATE_SLACK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let (serve_k, serve_n) = (32usize, 12usize);
    let serve_sentence = table1_workload();
    let serve_plan = Problem::new(serve_sentence.clone())
        .plan()
        .expect("serve gate: table1 plans");
    let serve_weights = serve_plan.default_weights();
    let _ = serve_plan
        .count(serve_n, serve_weights)
        .expect("serve gate warm-up");
    let serve_bare = || {
        for _ in 0..serve_k {
            let _ = serve_plan
                .count(serve_n, serve_weights)
                .expect("serve gate bare count");
        }
    };
    let server = wfomc_serve::Server::bind(&wfomc_serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        capacity: 8,
        registry_path: None,
    })
    .expect("serve gate binds loopback");
    let serve_handle = server.handle();
    let serve_addr = server.local_addr();
    let serve_daemon = std::thread::spawn(move || server.run());
    let reply = wfomc_serve::client::post(
        serve_addr,
        "/v1/plans",
        &format!("{{\"sentence\": \"{serve_sentence}\"}}"),
    )
    .expect("serve gate registers");
    assert_eq!(reply.status, 201, "serve gate register: {}", reply.body);
    let serve_id = reply
        .json()
        .expect("register body parses")
        .get("id")
        .and_then(|v| v.as_str().map(str::to_string))
        .expect("register returns an id");
    let count_path = format!("/v1/plans/{serve_id}/count");
    let count_body = format!("{{\"n\": {serve_n}}}");
    let serve_request = || {
        let reply = wfomc_serve::client::post(serve_addr, &count_path, &count_body)
            .expect("serve gate count request");
        assert_eq!(reply.status, 200, "serve gate count: {}", reply.body);
    };
    serve_request(); // warm-up: binds the served plan's weights once
    let serve_loop = || {
        for _ in 0..serve_k {
            serve_request();
        }
    };
    let serve_bare_ms = (0..3)
        .map(|_| time_ms(serve_bare))
        .fold(f64::INFINITY, f64::min);
    let served_ms = (0..3)
        .map(|_| time_ms(serve_loop))
        .fold(f64::INFINITY, f64::min);
    serve_handle.shutdown();
    serve_daemon
        .join()
        .expect("serve gate daemon thread")
        .expect("serve gate clean drain");
    let serve_allowed = serve_bare_ms * serve_factor + serve_slack_ms;
    let serve_baseline = {
        let path = format!("{manifest_dir}/../../BENCH_serve.json");
        let content = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline BENCH_serve.json: {e}"));
        json_number_after(
            &content,
            &["\"workload\": \"serve/table1-n12\", \"workers\": 1"],
            "served_ms",
        )
        .expect("BENCH_serve.json has the workers=1 served_ms baseline")
    };
    let baseline_allowed = serve_baseline * factor + slack_ms;
    let ok = served_ms <= serve_allowed && served_ms <= baseline_allowed;
    failed |= !ok;
    println!(
        "\n{:<28} {:>12} {:>12} {:>12}  status",
        "serve gate (table1-n12 k32)", "bare ms", "served ms", "allowed ms"
    );
    println!(
        "{:<28} {serve_bare_ms:>12.2} {served_ms:>12.2} {:>12.2}  {}",
        "serve/amortized-overhead",
        serve_allowed.min(baseline_allowed),
        if ok { "ok" } else { "SLOW" }
    );
    rows.push(format!(
        "  {{\"workload\": \"serve/amortized-overhead\", \"bare_ms\": {serve_bare_ms:.2}, \
         \"served_ms\": {served_ms:.2}, \"baseline_ms\": {serve_baseline:.2}, \
         \"allowed_ms\": {:.2}, \"ok\": {ok}}}",
        serve_allowed.min(baseline_allowed)
    ));

    // Lane-batching gate: the k=32 same-`n` weight sweep through
    // `Plan::count_batch_log` must stay ≥3× faster than the committed
    // per-point exact baseline (BENCH_lanes.json; the 32 exact n=30
    // traversals are NOT re-run — they would dominate the gate's wall
    // clock) and must not regress beyond the standard factor against the
    // committed lane time itself.
    let lane_points = lane_sweep_points(30, 32);
    let lane_plan = Problem::new(table1_workload())
        .plan()
        .expect("lane gate: table1 plans");
    let lane_run = || {
        for result in lane_plan.count_batch_log(&lane_points) {
            let _ = result.expect("lane gate point counts");
        }
    };
    lane_run(); // warm-up: binds the lane weight tables once
    let lane_ms = (0..3)
        .map(|_| time_ms(lane_run))
        .fold(f64::INFINITY, f64::min);
    let lanes_path = format!("{manifest_dir}/../../BENCH_lanes.json");
    let lanes_content = std::fs::read_to_string(&lanes_path)
        .unwrap_or_else(|e| panic!("cannot read baseline BENCH_lanes.json: {e}"));
    let lane_anchors: &[&str] = &["\"workload\": \"fo2-table1-30\", \"k\": 32"];
    let per_point_baseline = json_number_after(&lanes_content, lane_anchors, "per_point_ms")
        .expect("BENCH_lanes.json has the k=32 per_point_ms baseline");
    let lane_baseline = json_number_after(&lanes_content, lane_anchors, "lane_ms")
        .expect("BENCH_lanes.json has the k=32 lane_ms baseline");
    let speedup_allowed = per_point_baseline / 3.0 + slack_ms;
    let regress_allowed = lane_baseline * factor + slack_ms;
    let lane_allowed = speedup_allowed.min(regress_allowed);
    let ok = lane_ms <= lane_allowed;
    failed |= !ok;
    println!(
        "\n{:<28} {:>12} {:>12} {:>12}  status",
        "lane gate (table1-30 k32)", "per-pt base", "lane ms", "allowed ms"
    );
    println!(
        "{:<28} {per_point_baseline:>12.2} {lane_ms:>12.2} {lane_allowed:>12.2}  {}",
        "lanes/batch-speedup",
        if ok { "ok" } else { "SLOW" }
    );
    rows.push(format!(
        "  {{\"workload\": \"lanes/batch-speedup\", \"per_point_baseline_ms\": {per_point_baseline:.2}, \
         \"lane_baseline_ms\": {lane_baseline:.2}, \"lane_ms\": {lane_ms:.2}, \
         \"allowed_ms\": {lane_allowed:.2}, \"ok\": {ok}}}"
    ));

    // Scaling-efficiency check: with ≥2 cores, the work-stealing top-level
    // cell split must actually buy wall clock — the parallel exact count on
    // fo2/table1-30 must beat the serial one by SCALE_GATE_MIN_SPEEDUP
    // (default 1.05×) after SCALE_GATE_SLACK_MS of noise headroom. On a
    // 1-core container the comparison is meaningless, so it auto-skips with
    // a logged notice and the gate stays green.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores < 2 {
        println!("\nscaling check skipped: available_parallelism() = {cores}");
        rows.push(format!(
            "  {{\"workload\": \"scaling/fo2-table1-30\", \"skipped\": true, \
             \"available_parallelism\": {cores}}}"
        ));
    } else {
        let min_speedup: f64 = env::var("SCALE_GATE_MIN_SPEEDUP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.05);
        let scale_slack_ms: f64 = env::var("SCALE_GATE_SLACK_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50.0);
        let prepared = Fo2Prepared::prepare(&table1_workload(), &table1_workload().vocabulary())
            .expect("scaling check: table1 prepares");
        let scale_weights = standard_weights();
        let unarmed = Guard::unarmed();
        let count = |parallel| prepared.count(30, &scale_weights, parallel, &unarmed);
        let _ = count(false); // warm the binding
        let serial_ms = (0..3)
            .map(|_| time_ms(|| drop(count(false))))
            .fold(f64::INFINITY, f64::min);
        let parallel_ms = (0..3)
            .map(|_| time_ms(|| drop(count(true))))
            .fold(f64::INFINITY, f64::min);
        let allowed = serial_ms / min_speedup + scale_slack_ms;
        let ok = parallel_ms <= allowed;
        failed |= !ok;
        println!(
            "\n{:<28} {:>12} {:>12} {:>12}  status",
            format!("scaling gate ({cores} cores)"),
            "serial ms",
            "parallel ms",
            "allowed ms"
        );
        println!(
            "{:<28} {serial_ms:>12.2} {parallel_ms:>12.2} {allowed:>12.2}  {}",
            "scaling/fo2-table1-30",
            if ok { "ok" } else { "NO SCALING" }
        );
        rows.push(format!(
            "  {{\"workload\": \"scaling/fo2-table1-30\", \"cores\": {cores}, \
             \"serial_ms\": {serial_ms:.2}, \"parallel_ms\": {parallel_ms:.2}, \
             \"allowed_ms\": {allowed:.2}, \"ok\": {ok}}}"
        ));
    }

    // Warm-restart gate: booting a 20-plan registry from its wfomc-snap/v1
    // snapshots must be at least SNAP_GATE_FACTOR (default 10, the
    // warm-restart PR's acceptance bar) faster than replanning the same
    // registry from its JSONL log, plus SNAP_GATE_SLACK_MS of absolute
    // headroom. The warm boot is additionally held against the committed
    // BENCH_snap.json baseline under the standard factor/slack. The cold
    // boot is timed once (its cost already averages over 20 replans); the
    // warm boot is best of 3.
    let snap_factor: f64 = env::var("SNAP_GATE_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let snap_slack_ms: f64 = env::var("SNAP_GATE_SLACK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let snap_plans = 20usize;
    let snap_dir = std::env::temp_dir().join(format!("wfomc-repro-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let snap_registry = snap_dir.join("registry.jsonl");
    {
        // The snap_time workload: distinct FO² sentences whose pair tables
        // enumerate 2^4 binary interpretations per cell pair when planned.
        let mut log = wfomc_serve::RegistryLog::new(&snap_registry);
        for k in 0..snap_plans {
            log.append(
                &format!(
                    "forall x. forall y. (A{k}(x) & E{k}(x,y)) | (B{k}(y) & F{k}(x,y)) \
                     | (C{k}(x) & G{k}(x,y)) | (A{k}(y) & H{k}(x,y))"
                ),
                &Weights::ones(),
            )
            .expect("snap gate: append registry log");
        }
    }
    let snap_config = wfomc_serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        capacity: 256,
        registry_path: Some(snap_registry.clone()),
    };
    let snap_bind = || {
        let server = wfomc_serve::Server::bind(&snap_config).expect("snap gate binds loopback");
        assert_eq!(
            server.handle().plans(),
            snap_plans,
            "snap gate: boot replayed the whole log"
        );
    };
    let snap_cold_ms = time_ms(snap_bind); // no snapshots yet: replans + writes
    let snap_warm_ms = (0..3)
        .map(|_| time_ms(snap_bind))
        .fold(f64::INFINITY, f64::min);
    let _ = std::fs::remove_dir_all(&snap_dir);
    let snap_baseline = {
        let path = format!("{manifest_dir}/../../BENCH_snap.json");
        let content = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline BENCH_snap.json: {e}"));
        json_number_after(
            &content,
            &["\"workload\": \"snap/registry-20\""],
            "warm_boot_ms",
        )
        .expect("BENCH_snap.json has the registry-20 warm_boot_ms baseline")
    };
    let snap_allowed =
        (snap_cold_ms / snap_factor + snap_slack_ms).min(snap_baseline * factor + slack_ms);
    let ok = snap_warm_ms <= snap_allowed;
    failed |= !ok;
    println!(
        "\n{:<28} {:>12} {:>12} {:>12}  status",
        "snap gate (registry-20)", "cold ms", "warm ms", "allowed ms"
    );
    println!(
        "{:<28} {snap_cold_ms:>12.2} {snap_warm_ms:>12.2} {snap_allowed:>12.2}  {}",
        "snap/warm-boot-speedup",
        if ok { "ok" } else { "SLOW" }
    );
    rows.push(format!(
        "  {{\"workload\": \"snap/warm-boot-speedup\", \"cold_boot_ms\": {snap_cold_ms:.2}, \
         \"warm_boot_ms\": {snap_warm_ms:.2}, \"baseline_warm_ms\": {snap_baseline:.2}, \
         \"allowed_ms\": {snap_allowed:.2}, \"ok\": {ok}}}"
    ));

    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    let _ = std::fs::create_dir_all("target");
    if let Err(e) = std::fs::write("target/perf-gate.json", &json) {
        eprintln!("perf-gate: could not write target/perf-gate.json: {e}");
    }
    write_metrics_snapshot(
        "perf-gate",
        "PERF_GATE_METRICS_JSON",
        "target/metrics-perf-gate.json",
    );
    if failed {
        eprintln!(
            "perf-gate: FAILED — a workload regressed beyond {factor}× its committed baseline, \
             a plan-reuse cache hit rate fell below {:.0}%, \
             the budget-off governed path exceeded {guard_factor}× the ungoverned time, \
             the serve path exceeded {serve_factor}× the bare count loop, the lane batch \
             fell below 3× the committed per-point baseline, the parallel cell split \
             stopped scaling, or the snapshot-warm boot fell below {snap_factor}× the \
             cold replan. If the regression is expected (e.g. a slower but more capable \
             path), update the BENCH_*.json baselines in the same change; for a noisy \
             runner, raise PERF_GATE_FACTOR / PERF_GATE_SLACK_MS / GUARD_GATE_SLACK_MS / \
             SERVE_GATE_SLACK_MS / SCALE_GATE_SLACK_MS / SNAP_GATE_SLACK_MS or set \
             PERF_GATE_SKIP=1.",
            min_rate * 100.0
        );
        std::process::exit(1);
    }
    println!("perf-gate: ok");
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
