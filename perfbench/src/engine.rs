//! `engine-sweep`: one library caller in a closed loop over plans made in
//! set-up — FO² (table1, spouse, smokers, forall-exists, quad-binary),
//! QS4, and three smokers MLNs through `MlnEngine`. Each call is a
//! 32-point same-n weight sweep through the lanes, a mixed-n log batch, an
//! exact count at mid n, a QS4 count or an MLN marginal.
//!
//! Every cycle runs the same multiset of calls in a seeded order, the log
//! batches with seeded weights, so runs with different seeds load the
//! engine alike.

use std::time::{Duration, Instant};

use wfomc::prelude::*;

use crate::common::{fastest, median, ms, repeat_setup, since_ms, Outcome, Rng};
use crate::trace::Tracer;
use crate::Config;

/// Points in one lane sweep.
const SWEEP: usize = 32;
/// Points in one mixed-n log batch.
const MIXED: usize = 8;
/// Exact answers are checked against a one-shot `Solver` when the call took
/// at most this long (the one-shot solve costs about as much again).
const CHEAP_MS: f64 = 40.0;

/// The FO² and QS4 sentences the sweep plans once.
fn sentences() -> Vec<(&'static str, Formula)> {
    let quad_binary =
        parse("forall x. R(x,x) & forall x. forall y. (R(x,y) | S(x,y) | T(x,y) | U(x,y))")
            .expect("quad-binary parses");
    vec![
        ("table1", catalog::table1_sentence()),
        ("spouse", catalog::spouse_constraint()),
        ("smokers", catalog::smokers_constraint()),
        ("forall-exists", catalog::forall_exists_edge()),
        ("quad-binary", quad_binary),
        ("qs4", catalog::qs4()),
    ]
}

const TABLE1: usize = 0;
const SPOUSE: usize = 1;
const SMOKERS: usize = 2;
const FORALL_EXISTS: usize = 3;
const QUAD: usize = 4;
const QS4: usize = 5;

/// Seeded MLNs (smokers and friends with seeded soft weights).
const MLNS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// `Plan::count_batch_log` on a same-n sweep (the lanes).
    Lanes,
    /// `Plan::count_batch_log` on mixed n (per-point fallback).
    Mixed,
    /// Exact `Plan::count` on an FO² plan.
    Exact,
    /// Exact `Plan::count` on the QS4 plan.
    Qs4,
    /// `MlnEngine::probability`.
    Mln,
}

#[derive(Clone)]
struct Call {
    kind: Kind,
    /// Sentence index, or MLN index for `Kind::Mln`.
    target: usize,
    ns: Vec<usize>,
}

/// One cycle: every call kind at every n of its range.
fn cycle() -> Vec<Call> {
    let mut calls = Vec::new();
    let mut add = |kind, target, ns: Vec<usize>| calls.push(Call { kind, target, ns });
    for (target, ns) in [
        (TABLE1, vec![10, 12, 14]),
        (SPOUSE, vec![10, 12]),
        (SMOKERS, vec![30, 40]),
        (FORALL_EXISTS, vec![60, 100]),
        (QUAD, vec![3, 4]),
        (QS4, vec![10, 20]),
    ] {
        for n in ns {
            add(Kind::Lanes, target, vec![n; SWEEP]);
        }
    }
    add(Kind::Mixed, TABLE1, (6..6 + MIXED).collect());
    add(
        Kind::Mixed,
        SMOKERS,
        (0..MIXED).map(|i| 20 + 2 * i).collect(),
    );
    add(
        Kind::Mixed,
        FORALL_EXISTS,
        (0..MIXED).map(|i| 30 + 10 * i).collect(),
    );
    add(Kind::Mixed, QS4, (0..MIXED).map(|i| 5 + 2 * i).collect());
    for n in [12, 14, 16, 18] {
        add(Kind::Exact, TABLE1, vec![n]);
    }
    for n in [30, 35, 40, 45] {
        add(Kind::Exact, SMOKERS, vec![n]);
    }
    for n in [60, 70, 80, 90, 100] {
        add(Kind::Exact, FORALL_EXISTS, vec![n]);
    }
    for n in [10, 15, 20, 25] {
        add(Kind::Qs4, QS4, vec![n]);
    }
    for m in 0..MLNS {
        for n in [4, 6] {
            add(Kind::Mln, m, vec![n]);
        }
    }
    calls
}

struct Fixture {
    sentence: Formula,
    plan: Plan,
}

struct Mln {
    network: MarkovLogicNetwork,
    engine: MlnEngine,
}

struct Setup {
    fixtures: Vec<Fixture>,
    mlns: Vec<Mln>,
    query: Formula,
}

/// The smokers-and-friends MLN with fixed soft weights: its exact cost
/// swings by two orders of magnitude with the weights, so the seed only
/// orders the marginal queries.
fn mln_network(m: usize) -> MarkovLogicNetwork {
    let (w_friends, w_smokes) = [(2, 3), (3, 2), (2, 2)][m];
    let mut mln = MarkovLogicNetwork::new();
    mln.add_soft(weight_int(w_friends), catalog::smokers_constraint());
    mln.add_soft(weight_int(w_smokes), atom("Smokes", &["x"]));
    mln
}

/// Plans everything and warms each path once at a small n.
fn setup(seed: u64) -> Setup {
    let mut rng = Rng::new(seed ^ 0x5e70);
    let fixtures: Vec<Fixture> = sentences()
        .into_iter()
        .map(|(name, sentence)| Fixture {
            plan: Problem::new(sentence.clone())
                .plan()
                .unwrap_or_else(|e| panic!("{name} plans: {e}")),
            sentence,
        })
        .collect();
    let mlns: Vec<Mln> = (0..MLNS)
        .map(|m| {
            let network = mln_network(m);
            let engine = MlnEngine::new(&network).expect("the smokers MLN reduces");
            Mln { network, engine }
        })
        .collect();
    let query = parse("exists x. Smokes(x)").expect("query parses");
    for f in &fixtures {
        let w = weights_for(&f.plan, &mut rng);
        let _ = f.plan.count(4, &w);
        let _ = f.plan.count_batch_log(&[(4, w.clone()), (4, w)]);
    }
    for m in &mlns {
        let _ = m.engine.probability(&query, 4);
    }
    Setup {
        fixtures,
        mlns,
        query,
    }
}

/// Seeded weights for every predicate of the plan, for the log batches.
fn weights_for(plan: &Plan, rng: &mut Rng) -> Weights {
    let mut w = Weights::ones();
    for p in plan.vocabulary().iter() {
        w.set(
            p.name(),
            weight_int(rng.range(1, 5)),
            weight_int(rng.range(1, 3)),
        );
    }
    w
}

/// The weight pair of every predicate in the exact counts. Exact cost
/// grows with the operands' bit lengths (the counts carry integers of
/// `(w + w̄)^{n²}` size) and swings several-fold between small pairs, so
/// seeded weights here would make one run cost more than another; the seed
/// orders these calls and weights the log batches instead.
const EXACT_WEIGHT: (i64, i64) = (2, 1);

fn exact_weights(plan: &Plan) -> Weights {
    let (pos, neg) = EXACT_WEIGHT;
    let mut w = Weights::ones();
    for p in plan.vocabulary().iter() {
        w.set(p.name(), weight_int(pos), weight_int(neg));
    }
    w
}

enum Answer {
    Exact(Weight, Option<Fo2Stats>),
    /// One lane of a sweep: its index and value.
    Lane(usize, LogWeight),
    /// Every point of a mixed-n batch.
    Logs(Vec<LogWeight>),
    Prob(Weight),
}

struct Record {
    call: usize,
    weights: Vec<Weights>,
    answer: Answer,
    latency_ms: f64,
}

/// Lane batches timed three ways in the traced run.
#[derive(Default)]
struct Split {
    lanes_ns: u128,
    lane_points: u64,
    scalar_ns: u128,
    scalar_points: u64,
    exact_ns: u128,
    exact_points: u64,
}

use wfomc::core::fo2::Fo2Stats;

fn same_bits(a: &LogWeight, b: &LogWeight) -> bool {
    a.signum() == b.signum() && a.ln_abs().to_bits() == b.ln_abs().to_bits()
}

fn scalar_log(plan: &Plan, n: usize, w: &Weights) -> Result<LogWeight, LiftError> {
    plan.count_in(n, &LogF64, &AlgebraWeights::lift(&LogF64, w))
}

/// Runs whole cycles until `seconds` have passed.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    s: &Setup,
    calls: &[Call],
    rng: &mut Rng,
    seconds: f64,
    tracer: &Tracer,
    mut split: Option<&mut Split>,
    mut boots: Option<&mut Boots>,
    out: &mut Outcome,
) -> (Vec<Record>, Duration) {
    let start = Instant::now();
    let mut booting = Duration::ZERO;
    let mut records = Vec::new();
    let mut order: Vec<usize> = (0..calls.len()).collect();
    while start.elapsed().as_secs_f64() < seconds {
        rng.shuffle(&mut order);
        for &i in &order {
            let call = &calls[i];
            tracer.set_request(records.len() as u64 + 1);
            let (weights, answer, latency_ms) = match call.kind {
                Kind::Mln => {
                    let m = &s.mlns[call.target];
                    let t = Instant::now();
                    let r = tracer.span_result("mln.probability", || {
                        m.engine.probability(&s.query, call.ns[0])
                    });
                    let lat = since_ms(t);
                    match r {
                        Ok(p) => (Vec::new(), Answer::Prob(p), lat),
                        Err(e) => {
                            out.fail(format!("mln n={}: {e}", call.ns[0]));
                            continue;
                        }
                    }
                }
                Kind::Lanes | Kind::Mixed => {
                    let plan = &s.fixtures[call.target].plan;
                    let points: Vec<(usize, Weights)> = call
                        .ns
                        .iter()
                        .map(|&n| (n, weights_for(plan, rng)))
                        .collect();
                    let name = if call.kind == Kind::Lanes {
                        "core.count.lanes"
                    } else {
                        "core.count.log_mixed"
                    };
                    let t = Instant::now();
                    let results = tracer.span_checked(
                        name,
                        || plan.count_batch_log(&points),
                        |r| r.iter().all(Result::is_ok),
                    );
                    let elapsed = t.elapsed();
                    let mut logs = Vec::with_capacity(points.len());
                    for r in results {
                        match r {
                            Ok(v) => logs.push(v),
                            Err(e) => out.fail(format!("log batch: {e}")),
                        }
                    }
                    if logs.len() != points.len() {
                        continue;
                    }
                    if call.kind == Kind::Lanes {
                        if let Some(split) = split.as_deref_mut() {
                            split_lanes(plan, &points, &logs, elapsed, rng, tracer, split, out);
                        }
                    }
                    if call.kind == Kind::Lanes {
                        // Keep one seeded lane to check against a scalar run.
                        let i = rng.below(points.len());
                        (
                            vec![points[i].1.clone()],
                            Answer::Lane(i, logs[i]),
                            ms(elapsed),
                        )
                    } else {
                        let weights = points.into_iter().map(|(_, w)| w).collect();
                        (weights, Answer::Logs(logs), ms(elapsed))
                    }
                }
                Kind::Exact | Kind::Qs4 => {
                    let plan = &s.fixtures[call.target].plan;
                    let w = exact_weights(plan);
                    let name = if call.kind == Kind::Qs4 {
                        "core.count.qs4"
                    } else {
                        "core.count.fo2"
                    };
                    let t = Instant::now();
                    let r = tracer.span_result(name, || plan.count(call.ns[0], &w));
                    let lat = since_ms(t);
                    match r {
                        Ok(report) => (vec![w], Answer::Exact(report.value, report.fo2_stats), lat),
                        Err(e) => {
                            out.fail(format!("exact n={}: {e}", call.ns[0]));
                            continue;
                        }
                    }
                }
            };
            records.push(Record {
                call: i,
                weights,
                answer,
                latency_ms,
            });
        }
        if let Some(boots) = boots.as_deref_mut() {
            booting += boots.pair();
        }
    }
    // Restarts between cycles are not part of the sweep's wall clock.
    (records, start.elapsed() - booting)
}

/// Times one lane batch's points as per-point scalar `LogF64` and one
/// sampled point as an exact count, checking the scalar runs bit for bit
/// against the lanes.
#[allow(clippy::too_many_arguments)]
fn split_lanes(
    plan: &Plan,
    points: &[(usize, Weights)],
    lanes: &[LogWeight],
    lanes_elapsed: Duration,
    rng: &mut Rng,
    tracer: &Tracer,
    split: &mut Split,
    out: &mut Outcome,
) {
    split.lanes_ns += lanes_elapsed.as_nanos();
    split.lane_points += points.len() as u64;
    let t = Instant::now();
    for ((n, w), lane) in points.iter().zip(lanes) {
        match tracer.span_result("core.count.log_scalar", || scalar_log(plan, *n, w)) {
            Ok(v) if same_bits(&v, lane) => {}
            Ok(v) => out.wrong(format!("lane {lane} != scalar {v} at n={n}")),
            Err(e) => out.fail(format!("scalar log: {e}")),
        }
    }
    split.scalar_ns += t.elapsed().as_nanos();
    split.scalar_points += points.len() as u64;
    let (n, w) = &points[rng.below(points.len())];
    let t = Instant::now();
    if let Err(e) = plan.count(*n, w) {
        out.fail(format!("sampled exact: {e}"));
    }
    split.exact_ns += t.elapsed().as_nanos();
    split.exact_points += 1;
}

/// Checks the recorded answers after the timed window: exact counts against
/// a one-shot `Solver` where that is cheap, MLN marginals against a fresh
/// engine, and one seeded point of every log batch against scalar `LogF64`.
fn verify(s: &Setup, calls: &[Call], records: &[Record], out: &mut Outcome) {
    let mut mln_checked = std::collections::HashSet::new();
    for r in records {
        let call = &calls[r.call];
        match &r.answer {
            Answer::Exact(value, _) => {
                if r.latency_ms > CHEAP_MS {
                    continue;
                }
                let f = &s.fixtures[call.target];
                match Solver::new().wfomc(
                    &f.sentence,
                    f.plan.vocabulary(),
                    call.ns[0],
                    &r.weights[0],
                ) {
                    Ok(one_shot) if &one_shot.value == value => {}
                    Ok(_) => out.wrong(format!("exact n={} disagrees with one-shot", call.ns[0])),
                    Err(e) => out.fail(format!("one-shot check: {e}")),
                }
            }
            Answer::Prob(p) => {
                if !mln_checked.insert((call.target, call.ns[0])) {
                    continue;
                }
                let m = &s.mlns[call.target];
                let fresh = MlnEngine::new(&m.network)
                    .expect("the smokers MLN reduces")
                    .probability(&s.query, call.ns[0]);
                match fresh {
                    Ok(q) if &q == p => {}
                    Ok(_) => out.wrong(format!(
                        "mln n={} disagrees with a fresh engine",
                        call.ns[0]
                    )),
                    Err(e) => out.fail(format!("mln check: {e}")),
                }
            }
            Answer::Logs(logs) => {
                // The mixed-n fallback runs each point serially, so it is
                // compared with the per-point batch in the same algebra.
                let plan = &s.fixtures[call.target].plan;
                let points: Vec<(usize, AlgebraWeights<LogF64>)> = call
                    .ns
                    .iter()
                    .zip(&r.weights)
                    .map(|(&n, w)| (n, AlgebraWeights::lift(&LogF64, w)))
                    .collect();
                match plan.count_batch_in(&points, &LogF64) {
                    Ok(want) => {
                        for (i, (a, b)) in want.iter().zip(logs).enumerate() {
                            if !same_bits(a, b) {
                                out.wrong(format!(
                                    "mixed batch point {i} {b} != per-point {a} at n={}",
                                    call.ns[i]
                                ));
                            }
                        }
                    }
                    Err(e) => out.fail(format!("per-point check: {e}")),
                }
            }
            Answer::Lane(i, lane) => {
                let plan = &s.fixtures[call.target].plan;
                match scalar_log(plan, call.ns[*i], &r.weights[0]) {
                    Ok(v) if same_bits(&v, lane) => {}
                    Ok(v) => out.wrong(format!(
                        "lane {i} {lane} != scalar {v} at n={}",
                        call.ns[*i]
                    )),
                    Err(e) => out.fail(format!("scalar check: {e}")),
                }
            }
        }
    }
}

fn points_of(calls: &[Call], records: &[Record]) -> usize {
    records.iter().map(|r| calls[r.call].ns.len()).sum()
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let calls = cycle();
    let (s, setup_secs) = repeat_setup(|_| setup(cfg.seed), drop);
    let mut rng = Rng::new(cfg.seed);

    if !cfg.trace {
        out.metric(
            "setup_s",
            median(&setup_secs),
            "s",
            format!("median of {} set-ups", setup_secs.len()),
        );
        let mut boots = Boots::new(&s);
        let (records, wall) = run_loop(
            &s,
            &calls,
            &mut rng,
            cfg.seconds,
            &Tracer::new(false),
            None,
            Some(&mut boots),
            &mut out,
        );
        boots.report(&mut out);
        out.attempted = records.len() as u64 + out.failed;
        out.rates(records.len(), points_of(&calls, &records), wall);
        let lat: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
        out.latencies(&lat);
        out.peak_rss();
        verify(&s, &calls, &records, &mut out);
        return out;
    }

    // Traced run: half the time untraced, half traced with the lane split.
    let half = cfg.seconds / 2.0;
    let (plain, _) = run_loop(
        &s,
        &calls,
        &mut rng,
        half,
        &Tracer::new(false),
        None,
        None,
        &mut out,
    );
    let tracer = &cfg.tracer;
    for (name, sentence) in sentences() {
        let _plan = tracer
            .span_result("core.plan", || Problem::new(sentence).plan())
            .unwrap_or_else(|e| panic!("{name} plans: {e}"));
    }
    let mut split = Split::default();
    let (traced, _) = run_loop(
        &s,
        &calls,
        &mut rng,
        half,
        tracer,
        Some(&mut split),
        None,
        &mut out,
    );
    for f in &s.fixtures {
        let bytes = tracer.span("core.plan.snap_encode", || f.plan.snap_encode());
        if tracer
            .span_result("core.plan.snap_decode", || Plan::snap_decode(&bytes))
            .is_err()
        {
            out.fail("snapshot decode");
        }
    }
    out.attempted = (plain.len() + traced.len()) as u64 + out.failed;
    verify(&s, &calls, &traced, &mut out);

    let mean =
        |rs: &[Record]| rs.iter().map(|r| r.latency_ms).sum::<f64>() / rs.len().max(1) as f64;
    out.metric(
        "trace.overhead_pct",
        (mean(&traced) / mean(&plain) - 1.0) * 100.0,
        "%",
        format!(
            "mean call, {} traced vs {} untraced",
            traced.len(),
            plain.len()
        ),
    );
    let op_ns: u64 = [
        "core.count.lanes",
        "core.count.log_mixed",
        "core.count.fo2",
        "core.count.qs4",
        "mln.probability",
    ]
    .iter()
    .map(|name| tracer.total_ns(name))
    .sum();
    let traced_ms: f64 = traced.iter().map(|r| r.latency_ms).sum();
    out.metric(
        "unattributed_ms",
        (traced_ms - op_ns as f64 / 1e6) / traced.len().max(1) as f64,
        "ms",
        "per call",
    );
    let (mut pruned, mut total) = (0u128, 0u128);
    for r in &traced {
        if let Answer::Exact(_, Some(stats)) = &r.answer {
            pruned += stats.compositions_pruned as u128;
            total += stats.compositions_total as u128;
        }
    }
    out.metric(
        "core.fo2.cellsum.prune_ratio",
        if total == 0 {
            0.0
        } else {
            pruned as f64 / total as f64
        },
        "ratio",
        "pruned / total compositions",
    );
    let (mut filled, mut lanes) = (0usize, 0usize);
    for r in &traced {
        if calls[r.call].kind == Kind::Lanes {
            let pts = calls[r.call].ns.len();
            filled += pts;
            lanes += pts.div_ceil(LOG_LANES) * LOG_LANES;
        }
    }
    out.metric(
        "core.count.lanes.fill_ratio",
        if lanes == 0 {
            0.0
        } else {
            filled as f64 / lanes as f64
        },
        "ratio",
        "points / lane slots",
    );
    let per_point = |ns: u128, pts: u64| {
        if pts == 0 {
            0.0
        } else {
            ns as f64 / 1e6 / pts as f64
        }
    };
    let lane_ms = per_point(split.lanes_ns, split.lane_points);
    let scalar_ms = per_point(split.scalar_ns, split.scalar_points);
    let exact_ms = per_point(split.exact_ns, split.exact_points);
    out.metric(
        "split.lanes_ms_per_point",
        lane_ms,
        "ms",
        format!("{} points", split.lane_points),
    );
    out.metric(
        "split.log_scalar_ms_per_point",
        scalar_ms,
        "ms",
        format!("{} points", split.scalar_points),
    );
    out.metric(
        "split.exact_ms_per_point",
        exact_ms,
        "ms",
        format!("{} sampled points", split.exact_points),
    );
    out.metric(
        "split.batching_speedup",
        if lane_ms > 0.0 {
            scalar_ms / lane_ms
        } else {
            0.0
        },
        "x",
        "scalar LogF64 / lanes, same points",
    );
    out.metric(
        "split.exact_to_log_speedup",
        if scalar_ms > 0.0 {
            exact_ms / scalar_ms
        } else {
            0.0
        },
        "x",
        "exact / scalar LogF64",
    );
    out
}

/// Library restarts: planning every plan (cold) against decoding every
/// plan from its snapshot bytes (warm). Both take milliseconds, so pairs are
/// timed after every cycle, spread over the run like the sweep itself, and
/// each figure is the fastest over all pairs.
struct Boots {
    snapshots: Vec<Vec<u8>>,
    cold: Vec<f64>,
    warm: Vec<f64>,
}

/// Boot pairs timed after each cycle.
const BOOTS_PER_CYCLE: usize = 8;

impl Boots {
    fn new(s: &Setup) -> Boots {
        Boots {
            snapshots: s.fixtures.iter().map(|f| f.plan.snap_encode()).collect(),
            cold: Vec::new(),
            warm: Vec::new(),
        }
    }

    /// Times the pairs; returns the time they took.
    fn pair(&mut self) -> Duration {
        let start = Instant::now();
        for _ in 0..BOOTS_PER_CYCLE {
            let t = Instant::now();
            for (name, sentence) in sentences() {
                let plan = Problem::new(sentence).plan();
                assert!(plan.is_ok(), "{name} plans");
            }
            self.cold.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for bytes in &self.snapshots {
                assert!(Plan::snap_decode(bytes).is_ok(), "snapshot decodes");
            }
            self.warm.push(t.elapsed().as_secs_f64());
        }
        start.elapsed()
    }

    fn report(&self, out: &mut Outcome) {
        let n = self.cold.len();
        out.metric(
            "cold_boot_s",
            fastest(&self.cold),
            "s",
            format!("fastest of {n}: plan every sentence"),
        );
        out.metric(
            "warm_boot_s",
            fastest(&self.warm),
            "s",
            format!("fastest of {n}: decode every snapshot"),
        );
    }
}
