//! `serve-mix`: two client threads in a closed loop against an in-process
//! `wfomc-serve` daemon with two workers over loopback, with a JSONL log
//! and snapshots in a work directory. Sixteen plans cover all four methods.
//! The traffic is mostly `/count` at small n with weights from a seeded
//! pool (so the bind LRU both hits and misses), some exact and log
//! `/batch` requests, re-spelled re-registrations that deduplicate, and a
//! few new registrations that plan, append to the log and write a
//! snapshot.
//!
//! Log batches go only to FO² and QS4 plans: a log count on the γ-acyclic
//! CQ plans falls back to grounding, whose cost explodes with n.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wfomc::prelude::*;
use wfomc_serve::client::{self, Reply};
use wfomc_serve::http::{Server, ServerConfig, ServerHandle};
use wfomc_serve::json::{self, Value};
use wfomc_serve::wire::weights_to_json;
use wfomc_serve::{PlanRegistry, RegistryLog, SnapshotStore};

use crate::common::{
    fastest, median, quantile, repeat_setup, reply_value, tail, Outcome, Rng, WorkDir,
};
use crate::trace::Tracer;
use crate::Config;

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Weight tables per plan; the first `HOT` are drawn most often. The FO²
/// bind LRU holds eight bindings, so the pool both hits and misses.
const POOL: usize = 12;
const HOT: usize = 3;
/// Points per `/batch` request.
const EXACT_POINTS: usize = 4;
const LOG_POINTS: usize = 8;
/// One in this many requests of a client is a `/v1/healthz` probe in the
/// traced run.
const HEALTH_EVERY: usize = 16;

struct Spec {
    template: &'static str,
    ns: std::ops::RangeInclusive<usize>,
    /// Log batches are sent only where the lanes apply (FO² and QS4).
    log: bool,
}

/// The sixteen registered sentences; `{t}` is a seeded tag that gives every
/// seed its own predicate names and plan ids. The ranges of n keep engine
/// work per count at about a millisecond or less.
fn specs() -> Vec<Spec> {
    let spec = |template, ns, log| Spec { template, ns, log };
    vec![
        // FO² (the cell sum)
        spec("forall x. forall y. R{t}(x) | S{t}(x,y) | T{t}(y)", 3..=6, true),
        spec("forall x. forall y. P{t}(x) | N{t}(x,y) | P{t}(y)", 3..=6, true),
        spec("forall x. forall y. Spouse{t}(x,y) & Female{t}(x) -> Male{t}(y)", 3..=6, true),
        spec("forall x. forall y. Smokes{t}(x) & Friends{t}(x,y) -> Smokes{t}(y)", 4..=12, true),
        spec("forall x. exists y. E{t}(x,y)", 4..=20, true),
        spec("exists y. U{t}(y)", 4..=12, true),
        spec("exists x. exists y. A{t}(x) & B{t}(x,y) & C{t}(y)", 3..=5, true),
        spec(
            "forall x. K{t}(x,x) & forall x. forall y. (K{t}(x,y) | L{t}(x,y) | M{t}(x,y) | O{t}(x,y))",
            2..=3,
            true,
        ),
        spec("forall x. forall y. J{t}(x,y) -> J{t}(y,x)", 3..=6, true),
        // QS4 (the dynamic program). Recognition is syntactic and bound to
        // the predicate name `S`, so this one sentence carries no tag.
        spec(
            "forall x1. forall x2. forall y1. forall y2. S(x1,y1) | !S(x2,y1) | S(x2,y2) | !S(x1,y2)",
            3..=8,
            true,
        ),
        // γ-acyclic CQs (the reduction memo)
        spec(
            "exists x0. exists x1. exists x2. exists x3. Ra{t}(x0,x1) & Rb{t}(x1,x2) & Rc{t}(x2,x3)",
            3..=8,
            false,
        ),
        spec(
            "exists c. exists x1. exists x2. exists x3. Qa{t}(c,x1) & Qb{t}(c,x2) & Qc{t}(c,x3)",
            3..=8,
            false,
        ),
        spec("exists x0. exists x1. exists x2. Ga{t}(x0,x1) & Gb{t}(x1,x2)", 3..=8, false),
        spec("exists c. exists x1. exists x2. Ha{t}(c,x1) & Hb{t}(c,x2)", 3..=8, false),
        // Grounding (the lineage cache)
        spec(
            "forall x. forall y. forall z. V{t}(x,y) & V{t}(y,z) -> V{t}(x,z)",
            2..=2,
            false,
        ),
        spec(
            "exists x. exists y. exists z. D{t}(x,y) & D{t}(y,z) & D{t}(z,x)",
            2..=2,
            false,
        ),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Count,
    BatchExact,
    BatchLog,
    Respell,
    Register,
}

/// One pass of a client's deck: 200 requests in these proportions.
const DECK: [(Kind, usize); 5] = [
    (Kind::Count, 162),
    (Kind::BatchExact, 12),
    (Kind::BatchLog, 8),
    (Kind::Respell, 16),
    (Kind::Register, 2),
];

/// A plan the service knows, as the client sees it.
struct Registered {
    text: String,
    id: String,
    ns: std::ops::RangeInclusive<usize>,
    log: bool,
    pool: Vec<Weights>,
}

/// A point as sent: n and a pool index (`None`: the registered defaults).
type Point = (usize, Option<usize>);

/// A served log batch: plan, points and `(sign, ln)` per point.
type LogBatch = (usize, Vec<Point>, Vec<(i64, Option<f64>)>);

struct Live {
    handle: ServerHandle,
    addr: SocketAddr,
    daemon: JoinHandle<std::io::Result<()>>,
}

impl Live {
    fn start(registry_path: &Path) -> Live {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            capacity: 1024,
            registry_path: Some(registry_path.to_path_buf()),
        })
        .expect("bind the loopback daemon");
        let handle = server.handle();
        let addr = server.local_addr();
        let daemon = std::thread::spawn(move || server.run());
        Live {
            handle,
            addr,
            daemon,
        }
    }

    fn stop(self) {
        self.handle.shutdown();
        self.daemon
            .join()
            .expect("daemon thread")
            .expect("daemon drains cleanly");
    }
}

fn seeded_text(template: &str, tag: &str) -> String {
    template.replace("{t}", tag)
}

/// The same sentence spelled differently: extra blanks around every token.
fn respell(text: &str) -> String {
    text.replace(". ", ".   ")
        .replace(',', " , ")
        .replace('(', "( ")
        .replace(')', " )")
}

fn weight_pool(plan: &Plan, rng: &mut Rng) -> Vec<Weights> {
    (0..POOL)
        .map(|_| {
            let mut w = Weights::ones();
            for p in plan.vocabulary().iter() {
                w.set(
                    p.name(),
                    weight_int(rng.range(1, 4)),
                    weight_int(rng.range(1, 3)),
                );
            }
            w
        })
        .collect()
}

fn register(addr: SocketAddr, text: &str) -> std::io::Result<Reply> {
    let body = format!("{{\"sentence\": {}}}", crate::common::json_str(text));
    client::post(addr, "/v1/plans", &body)
}

fn reply_id(reply: &Reply) -> Option<String> {
    reply
        .json()
        .ok()?
        .get("id")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Binds, registers every plan and warms each once: the set-up a
/// deployment pays before serving.
fn setup(dir: &Path, tag: &str, rng: &mut Rng) -> (Live, Vec<Registered>) {
    let _ = std::fs::remove_dir_all(dir);
    let live = Live::start(&dir.join("registry.jsonl"));
    let mut plans = Vec::new();
    for spec in specs() {
        let text = seeded_text(spec.template, tag);
        let reply = register(live.addr, &text).expect("register request");
        assert_eq!(reply.status, 201, "register {text}: {}", reply.body);
        let id = reply_id(&reply).expect("register returns an id");
        let plan = Problem::new(parse(&text).expect("spec parses"))
            .plan()
            .expect("spec plans");
        let pool = weight_pool(&plan, rng);
        let n = *spec.ns.start();
        let warm = client::post(
            live.addr,
            &format!("/v1/plans/{id}/count"),
            &format!("{{\"n\": {n}}}"),
        )
        .expect("warm-up request");
        assert_eq!(warm.status, 200, "warm-up {text}: {}", warm.body);
        plans.push(Registered {
            text,
            id,
            ns: spec.ns,
            log: spec.log,
            pool,
        });
    }
    (live, plans)
}

/// Per-client in-process copies of the served plans, timed on the exact
/// inputs each request carried (traced run only).
struct Replica {
    plans: Vec<Plan>,
    snap: SnapshotStore,
    log: RegistryLog,
}

struct ClientRun {
    /// The first exact value served per input; every later answer to the
    /// same input must repeat it, and each is checked after the run.
    seen: HashMap<(usize, Point), String>,
    log_batches: Vec<LogBatch>,
    /// `(latency ms, points)` per answered request.
    samples: Vec<(f64, usize)>,
    /// Round-trip time of every request, probes included (traced run).
    rtt_ns: u128,
    requests: u64,
    failed: Vec<String>,
    wrong: Vec<String>,
}

impl ClientRun {
    fn served(&mut self, plan: usize, point: Point, value: String) {
        match self.seen.get(&(plan, point)) {
            Some(first) if *first != value => self.wrong.push(format!(
                "plan {plan} at {point:?} served {value} after {first}"
            )),
            Some(_) => {}
            None => {
                self.seen.insert((plan, point), value);
            }
        }
    }
}

struct Shared<'a> {
    addr: SocketAddr,
    plans: &'a [Registered],
    tag: &'a str,
    /// Distinguishes the sentences new registrations invent per phase.
    phase: usize,
    start: Instant,
    seconds: f64,
}

fn draw_weight(rng: &mut Rng) -> Option<usize> {
    match rng.below(20) {
        0..=2 => None,
        3..=14 => Some(rng.below(HOT)),
        _ => Some(HOT + rng.below(POOL - HOT)),
    }
}

fn point_json(reg: &Registered, (n, w): Point) -> String {
    match w {
        Some(i) => format!(
            "{{\"n\": {n}, \"weights\": {}}}",
            weights_to_json(&reg.pool[i])
        ),
        None => format!("{{\"n\": {n}}}"),
    }
}

fn run_client(
    sh: &Shared,
    c: usize,
    seed: u64,
    tracer: &Tracer,
    mut replica: Option<Replica>,
) -> ClientRun {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64 + 1));
    let mut deck: Vec<Kind> = DECK
        .iter()
        .flat_map(|&(kind, k)| std::iter::repeat(kind).take(k))
        .collect();
    let mut run = ClientRun {
        seen: HashMap::new(),
        log_batches: Vec::new(),
        samples: Vec::new(),
        rtt_ns: 0,
        requests: 0,
        failed: Vec::new(),
        wrong: Vec::new(),
    };
    let mut next_plan = rng.below(sh.plans.len());
    let mut fresh = 0usize;
    'outer: loop {
        rng.shuffle(&mut deck);
        for &kind in &deck {
            if sh.start.elapsed().as_secs_f64() >= sh.seconds {
                break 'outer;
            }
            let req = (c as u64) << 40 | run.requests;
            tracer.set_request(req);
            if tracer.enabled() && run.requests % HEALTH_EVERY as u64 == 0 {
                let t = Instant::now();
                let reply =
                    tracer.span_result("serve.http.rtt", || client::get(sh.addr, "/v1/healthz"));
                run.rtt_ns += t.elapsed().as_nanos();
                run.requests += 1;
                if !matches!(reply, Ok(ref r) if r.status == 200) {
                    run.failed.push("healthz".into());
                }
            }
            // Plans are visited round-robin from a seeded start, so every
            // run spreads requests over the plans alike.
            let plan = if matches!(kind, Kind::BatchLog) {
                loop {
                    next_plan = (next_plan + 1) % sh.plans.len();
                    if sh.plans[next_plan].log {
                        break next_plan;
                    }
                }
            } else {
                next_plan = (next_plan + 1) % sh.plans.len();
                next_plan
            };
            let reg = &sh.plans[plan];
            let n_of = |rng: &mut Rng| *reg.ns.start() + rng.below(reg.ns.clone().count());
            let (path, body, points): (String, String, Vec<Point>) = match kind {
                Kind::Count => {
                    let point = (n_of(&mut rng), draw_weight(&mut rng));
                    (
                        format!("/v1/plans/{}/count", reg.id),
                        point_json(reg, point),
                        vec![point],
                    )
                }
                Kind::BatchExact | Kind::BatchLog => {
                    let points: Vec<Point> = if kind == Kind::BatchLog {
                        // A same-n weight sweep: the shape the lanes batch.
                        let n = n_of(&mut rng);
                        (0..LOG_POINTS)
                            .map(|_| (n, draw_weight(&mut rng)))
                            .collect()
                    } else {
                        (0..EXACT_POINTS)
                            .map(|_| (n_of(&mut rng), draw_weight(&mut rng)))
                            .collect()
                    };
                    let items: Vec<String> = points.iter().map(|&p| point_json(reg, p)).collect();
                    let algebra = if kind == Kind::BatchLog {
                        ", \"algebra\": \"log\""
                    } else {
                        ""
                    };
                    (
                        format!("/v1/plans/{}/batch", reg.id),
                        format!("{{\"points\": [{}]{algebra}}}", items.join(", ")),
                        points,
                    )
                }
                Kind::Respell => (
                    "/v1/plans".to_string(),
                    format!(
                        "{{\"sentence\": {}}}",
                        crate::common::json_str(&respell(&reg.text))
                    ),
                    Vec::new(),
                ),
                Kind::Register => {
                    fresh += 1;
                    let text = format!(
                        "forall x. forall y. Fa{t}p{p}c{c}n{fresh}(x) | Fb{t}p{p}c{c}n{fresh}(x,y) \
                         | Fc{t}p{p}c{c}n{fresh}(y)",
                        t = sh.tag,
                        p = sh.phase
                    );
                    (
                        "/v1/plans".to_string(),
                        format!("{{\"sentence\": {}}}", crate::common::json_str(&text)),
                        Vec::new(),
                    )
                }
            };
            let t = Instant::now();
            let reply =
                tracer.span_result("serve.http.request", || client::post(sh.addr, &path, &body));
            let rtt = t.elapsed();
            run.rtt_ns += rtt.as_nanos();
            run.requests += 1;
            let reply = match reply {
                Ok(r) if r.status == 200 || r.status == 201 => r,
                Ok(r) => {
                    run.failed.push(format!("{path}: {} {}", r.status, r.body));
                    continue;
                }
                Err(e) => {
                    run.failed.push(format!("{path}: {e}"));
                    continue;
                }
            };
            let answered = match kind {
                Kind::Count => reply_value(&reply.body)
                    .map(|value| run.served(plan, points[0], value))
                    .ok_or("no value"),
                Kind::BatchExact | Kind::BatchLog => match batch_results(&reply.body, kind) {
                    Some(Ok(values)) => {
                        for (p, value) in points.iter().zip(values) {
                            run.served(plan, *p, value);
                        }
                        Ok(())
                    }
                    Some(Err(logs)) => {
                        run.log_batches.push((plan, points.clone(), logs));
                        Ok(())
                    }
                    None => Err("malformed batch reply"),
                },
                Kind::Respell => {
                    // A re-spelled sentence must land on the existing plan.
                    if reply.status != 200 || reply_id(&reply).as_deref() != Some(reg.id.as_str()) {
                        run.wrong
                            .push(format!("re-spelled registration: {}", reply.body));
                    }
                    Ok(())
                }
                Kind::Register => {
                    if reply.status != 201 {
                        run.wrong.push(format!("new registration: {}", reply.body));
                    }
                    Ok(())
                }
            };
            if let Err(e) = answered {
                run.failed.push(format!("{path}: {e}"));
                continue;
            }
            run.samples.push((rtt.as_secs_f64() * 1e3, points.len()));
            if let Some(replica) = replica.as_mut() {
                replay(replica, sh, kind, plan, &points, &body, tracer);
            }
        }
    }
    run
}

/// Exact values (`Ok`) or `(sign, ln)` pairs (`Err`) of a batch reply.
#[allow(clippy::type_complexity)]
fn batch_results(body: &str, kind: Kind) -> Option<Result<Vec<String>, Vec<(i64, Option<f64>)>>> {
    let doc = json::parse(body).ok()?;
    let results = doc.get("results")?.as_arr()?;
    if kind == Kind::BatchExact {
        results
            .iter()
            .map(|r| r.get("value").and_then(Value::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .map(Ok)
    } else {
        results
            .iter()
            .map(|r| {
                let sign = r.get("sign")?.as_i64()?;
                let ln = match r.get("ln")? {
                    Value::Null => None,
                    v => Some(v.as_f64()?),
                };
                Some((sign, ln))
            })
            .collect::<Option<Vec<_>>>()
            .map(Err)
    }
}

fn weights_of(reg: &Registered, w: Option<usize>) -> Weights {
    w.map_or_else(Weights::ones, |i| reg.pool[i].clone())
}

fn count_layer(plan: &Plan) -> &'static str {
    match plan.method() {
        Method::Fo2 => "core.count.fo2",
        Method::Qs4 => "core.count.qs4",
        Method::GammaAcyclicCq => "core.count.cq",
        Method::Ground => "core.count.ground",
    }
}

/// Times the public functions the handler ran, on the request's own
/// inputs, so the layers add up to the request's latency.
fn replay(
    r: &mut Replica,
    sh: &Shared,
    kind: Kind,
    plan: usize,
    points: &[Point],
    body: &str,
    tracer: &Tracer,
) {
    let _ = tracer.span_result("serve.json.parse", || json::parse(body));
    let reg = &sh.plans[plan];
    match kind {
        Kind::Count => {
            let bare = &r.plans[plan];
            let (n, w) = (points[0].0, weights_of(reg, points[0].1));
            let misses = bare.cache_stats().fo2_bind_misses;
            let t = Instant::now();
            let (report, id) =
                tracer.span_id(count_layer(bare), || bare.count(n, &w), Result::is_ok);
            let first = t.elapsed();
            if bare.cache_stats().fo2_bind_misses > misses {
                // A bind miss: the bind's cost is the miss call minus a
                // repeat call that hits the freshly cached binding.
                let t2 = Instant::now();
                let _ = bare.count(n, &w);
                let repeat = t2.elapsed();
                tracer.record("core.fo2.bind", t, first.saturating_sub(repeat), id);
            }
            if let Ok(report) = report {
                tracer.span("core.report.to_json", || report.to_json());
            }
        }
        Kind::BatchExact => {
            let bare = &r.plans[plan];
            let pts: Vec<(usize, Weights)> = points
                .iter()
                .map(|&(n, w)| (n, weights_of(reg, w)))
                .collect();
            let reports = tracer.span_checked(
                count_layer(bare),
                || bare.count_batch_results(&pts),
                |rs| rs.iter().all(Result::is_ok),
            );
            for report in reports.iter().flatten() {
                tracer.span("core.report.to_json", || report.to_json());
            }
        }
        Kind::BatchLog => {
            let bare = &r.plans[plan];
            let pts: Vec<(usize, Weights)> = points
                .iter()
                .map(|&(n, w)| (n, weights_of(reg, w)))
                .collect();
            tracer.span_checked(
                "core.count.lanes",
                || bare.count_batch_log(&pts),
                |rs| rs.iter().all(Result::is_ok),
            );
        }
        Kind::Respell => {
            let _ = tracer.span_result("serve.registry.canonicalize", || {
                PlanRegistry::canonicalize(&respell(&reg.text))
            });
        }
        Kind::Register => {
            let Some(text) = json::parse(body).ok().and_then(|v| {
                v.get("sentence")
                    .and_then(Value::as_str)
                    .map(str::to_string)
            }) else {
                return;
            };
            let Ok(canonical) = tracer.span_result("serve.registry.canonicalize", || {
                PlanRegistry::canonicalize(&text)
            }) else {
                return;
            };
            let Ok(formula) = tracer.span_result("logic.parse", || parse(&canonical)) else {
                return;
            };
            let Ok(plan) = tracer.span_result("core.plan", || Problem::new(formula).plan()) else {
                return;
            };
            let bytes = tracer.span("core.plan.snap_encode", || plan.snap_encode());
            let key = PlanRegistry::hash_sentence(&canonical);
            let id = PlanRegistry::format_id(key);
            let _ = tracer.span_result("serve.snap.write", || r.snap.write(&id, key, &bytes));
            let _ = tracer.span_result("serve.store.append", || {
                r.log.append(&canonical, &Weights::ones())
            });
        }
    }
}

/// Checks every distinct served input against bare `Plan::count` (exact)
/// and every log batch against bare `Plan::count_batch_log`, bit for bit.
fn verify(plans: &[Registered], runs: &[ClientRun], out: &mut Outcome) {
    let bare: Vec<Plan> = plans
        .iter()
        .map(|r| {
            Problem::new(parse(&r.text).expect("spec parses"))
                .plan()
                .expect("spec plans")
        })
        .collect();
    let mut expected: HashMap<(usize, Point), String> = HashMap::new();
    for run in runs {
        for problem in &run.wrong {
            out.wrong(problem.clone());
        }
        for (&(plan, point), value) in &run.seen {
            let want = expected.entry((plan, point)).or_insert_with(|| {
                match bare[plan].count(point.0, &weights_of(&plans[plan], point.1)) {
                    Ok(report) => report.value.to_string(),
                    Err(e) => format!("error: {e}"),
                }
            });
            if want != value {
                out.wrong(format!(
                    "served count on plan {plan} at {point:?} differs from Plan::count"
                ));
            }
        }
        for (plan, points, logs) in &run.log_batches {
            let pts: Vec<(usize, Weights)> = points
                .iter()
                .map(|&(n, w)| (n, weights_of(&plans[*plan], w)))
                .collect();
            for (want, got) in bare[*plan].count_batch_log(&pts).iter().zip(logs) {
                let same = match want {
                    Ok(v) => {
                        i64::from(v.signum()) == got.0
                            && (v.signum() == 0
                                || got.1.map(f64::to_bits) == Some(v.ln_abs().to_bits()))
                    }
                    Err(_) => false,
                };
                if !same {
                    out.wrong(format!(
                        "served log batch on plan {plan} differs from Plan::count_batch_log"
                    ));
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    live: &Live,
    plans: &[Registered],
    tag: &str,
    phase: usize,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    replica_dir: Option<&Path>,
) -> (Vec<ClientRun>, Duration) {
    let start = Instant::now();
    let sh = Shared {
        addr: live.addr,
        plans,
        tag,
        phase,
        start,
        seconds,
    };
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let replica = replica_dir.map(|dir| Replica {
                    plans: plans
                        .iter()
                        .map(|r| {
                            Problem::new(parse(&r.text).expect("spec parses"))
                                .plan()
                                .expect("spec plans")
                        })
                        .collect(),
                    snap: SnapshotStore::new(dir.join(format!("snapshots-{c}"))),
                    log: RegistryLog::new(dir.join(format!("registry-{c}.jsonl"))),
                });
                let sh = &sh;
                scope.spawn(move || run_client(sh, c, seed, tracer, replica))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (runs, start.elapsed())
}

/// Counts attempts and failures; returns every answered request's latency.
fn tally(runs: &[ClientRun], out: &mut Outcome) -> Vec<f64> {
    let mut lat = Vec::new();
    for run in runs {
        out.attempted += run.requests;
        for f in &run.failed {
            out.fail(f.clone());
        }
        lat.extend(run.samples.iter().map(|s| s.0));
    }
    lat
}

/// Windows the closed loop is cut into; each end-to-end figure is the
/// median over windows, so a burst of interference from outside the
/// process moves one window rather than the whole run.
const WINDOWS: usize = 30;

fn windowed(windows: &[(Vec<ClientRun>, Duration)], out: &mut Outcome) {
    let (mut ops, mut pts, mut p50, mut tails) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut label = "";
    let mut total = 0;
    for (runs, wall) in windows {
        let secs = wall.as_secs_f64();
        let mut lat: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.samples.iter().map(|s| s.0))
            .collect();
        let points: usize = runs
            .iter()
            .flat_map(|r| r.samples.iter().map(|s| s.1))
            .sum();
        total += lat.len();
        ops.push(lat.len() as f64 / secs);
        pts.push(points as f64 / secs);
        lat.sort_by(f64::total_cmp);
        p50.push(quantile(&lat, 0.5));
        let (name, value) = tail(&lat);
        label = name;
        tails.push(value);
    }
    let note = format!("median of {} windows, {total} requests", windows.len());
    out.metric("throughput_ops_s", median(&ops), "1/s", note.clone());
    out.metric("points_per_s", median(&pts), "1/s", note.clone());
    out.metric("latency_p50_ms", median(&p50), "ms", note.clone());
    out.metric(
        "latency_tail_ms",
        median(&tails),
        "ms",
        format!("{label}, {note}"),
    );
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new("serve-mix");
    let mut rng = Rng::new(cfg.seed);
    let tag = rng.tag();

    let live_dir = |rep: usize| work.0.join(format!("live-{rep}"));
    let mut stopped = 0;
    let ((live, plans), setup_secs) = repeat_setup(
        |rep| setup(&live_dir(rep), &tag, &mut Rng::new(cfg.seed ^ 0x5e70)),
        |(live, _)| {
            Live::stop(live);
            let _ = std::fs::remove_dir_all(live_dir(stopped));
            stopped += 1;
        },
    );

    if !cfg.trace {
        out.metric(
            "setup_s",
            median(&setup_secs),
            "s",
            format!("median of {} set-ups", setup_secs.len()),
        );
        let mut boots = Boots::new(&work.0.join("boot"), &plans);
        boots.pair(&plans, true, &mut out);
        let mut windows = Vec::new();
        for w in 0..WINDOWS {
            let seconds = cfg.seconds / WINDOWS as f64;
            let seed = cfg.seed.wrapping_add(w as u64);
            windows.push(drive(
                &live,
                &plans,
                &tag,
                w,
                seed,
                seconds,
                &Tracer::new(false),
                None,
            ));
            for _ in 0..BOOTS_PER_WINDOW {
                boots.pair(&plans, false, &mut out);
            }
        }
        live.stop();
        for (runs, _) in &windows {
            tally(runs, &mut out);
        }
        windowed(&windows, &mut out);
        boots.report(&mut out);
        out.peak_rss();
        for (runs, _) in &windows {
            verify(&plans, runs, &mut out);
        }
        return out;
    }

    // Traced run: half the time untraced, half traced with the replica.
    let half = cfg.seconds / 2.0;
    let (plain, _) = drive(
        &live,
        &plans,
        &tag,
        WINDOWS,
        cfg.seed,
        half,
        &Tracer::new(false),
        None,
    );
    let tracer = &cfg.tracer;
    let before = server_counters(&live, &plans, true);
    let replica_dir = work.0.join("replica");
    let (traced, _) = drive(
        &live,
        &plans,
        &tag,
        WINDOWS + 1,
        cfg.seed ^ 1,
        half,
        tracer,
        Some(&replica_dir),
    );
    let after = server_counters(&live, &plans, false);
    live.stop();
    let plain_lat = tally(&plain, &mut out);
    let traced_lat = tally(&traced, &mut out);
    verify(&plans, &plain, &mut out);
    verify(&plans, &traced, &mut out);

    out.metric(
        "trace.overhead_pct",
        (median(&traced_lat) / median(&plain_lat) - 1.0) * 100.0,
        "%",
        format!(
            "median request, {} traced vs {} untraced",
            traced_lat.len(),
            plain_lat.len()
        ),
    );
    let rtt_ns: u128 = traced.iter().map(|r| r.rtt_ns).sum();
    let requests = after.requests - before.requests;
    let handler_ns = (after.latency_ns - before.latency_ns) as u128;
    let layers = tracer.layers();
    out.metric(
        "serve.http.handler.calls",
        requests as f64,
        "count",
        "server requests",
    );
    out.metric(
        "serve.http.handler.busy_ms",
        handler_ns as f64 / 1e6,
        "ms",
        "server handler time",
    );
    out.metric(
        "serve.http.handler.failed",
        (after.errors - before.errors) as f64,
        "count",
        "error replies",
    );
    out.metric(
        "serve.http.outside_handler.calls",
        requests as f64,
        "count",
        "server requests",
    );
    out.metric(
        "serve.http.outside_handler.busy_ms",
        rtt_ns.saturating_sub(handler_ns) as f64 / 1e6,
        "ms",
        "round trip minus handler",
    );
    out.metric("serve.http.outside_handler.failed", 0.0, "count", "");
    let replayed_ns: u64 = layers
        .iter()
        .filter(|(name, _)| !matches!(**name, "serve.http.request" | "serve.http.rtt"))
        .map(|(_, l)| l.busy_ns)
        .sum();
    out.metric(
        "unattributed_ms",
        (handler_ns as f64 - replayed_ns as f64) / 1e6 / requests.max(1) as f64,
        "ms",
        "handler time not covered by replayed layers, per request",
    );
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    out.metric(
        "serve.registry.hit_ratio",
        ratio(
            after.registry_hits - before.registry_hits,
            after.registry_misses - before.registry_misses,
        ),
        "ratio",
        "registry lookups",
    );
    out.metric(
        "core.fo2.bind.hit_ratio",
        ratio(after.bind.0, after.bind.1),
        "ratio",
        "server plans, lifetime",
    );
    out.metric(
        "core.cq.memo_hit_ratio",
        ratio(after.memo.0, after.memo.1),
        "ratio",
        "server plans, lifetime",
    );
    out.metric(
        "ground.hit_ratio",
        ratio(after.ground.0, after.ground.1),
        "ratio",
        "server plans, lifetime",
    );
    // The boot layers, replayed after the request accounting above so they
    // do not count against the handler time.
    let boot_dir = work.0.join("boot");
    let registry = boot_log(&boot_dir, &plans);
    let snap = replay_boots(&registry, &boot_dir, tracer, &mut out).stats();
    out.metric(
        "serve.snap.hit_ratio",
        ratio(snap.hits, snap.misses),
        "ratio",
        "replayed snapshot loads",
    );
    let (mut filled, mut slots) = (0usize, 0usize);
    for (_, points, _) in traced.iter().flat_map(|r| &r.log_batches) {
        filled += points.len();
        slots += points.len().div_ceil(LOG_LANES) * LOG_LANES;
    }
    out.metric(
        "core.count.lanes.fill_ratio",
        if slots == 0 {
            0.0
        } else {
            filled as f64 / slots as f64
        },
        "ratio",
        "points / lane slots",
    );
    out
}

/// The server's own counters: request accounting, registry lookups and
/// the per-plan cache tallies (hits, misses).
#[derive(Default)]
struct Counters {
    requests: u64,
    errors: u64,
    latency_ns: u64,
    registry_hits: u64,
    registry_misses: u64,
    bind: (u64, u64),
    memo: (u64, u64),
    ground: (u64, u64),
}

/// Its own lookups are kept out of the request accounting: at the start of
/// a phase the accounting is read after them, at the end before them.
fn server_counters(live: &Live, plans: &[Registered], at_start: bool) -> Counters {
    let stats = live.handle.stats();
    let mut c = Counters {
        requests: stats.requests(),
        errors: stats.errors(),
        latency_ns: stats.latency_ns(),
        ..Counters::default()
    };
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    if let Ok(list) = client::get(live.addr, "/v1/plans").and_then(|r| {
        r.json()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }) {
        if let Some(reg) = list.get("registry") {
            c.registry_hits = field(reg, "hits");
            c.registry_misses = field(reg, "misses");
        }
    }
    for reg in plans {
        let Ok(reply) = client::get(live.addr, &format!("/v1/plans/{}/stats", reg.id)) else {
            continue;
        };
        let Some(cache) = reply.json().ok().and_then(|v| v.get("cache").cloned()) else {
            continue;
        };
        c.bind.0 += field(&cache, "fo2_bind_hits");
        c.bind.1 += field(&cache, "fo2_bind_misses");
        c.memo.0 += field(&cache, "cq_memo_hits");
        c.memo.1 += field(&cache, "cq_memo_misses");
        c.ground.0 += field(&cache, "ground_hits");
        c.ground.1 += field(&cache, "ground_misses");
    }
    if at_start {
        c.requests = stats.requests();
        c.errors = stats.errors();
        c.latency_ns = stats.latency_ns();
    }
    c
}

/// Restarts over a log of the sixteen registrations: a cold boot (no
/// snapshots: every record replans and writes its snapshot) and a warm boot
/// (every record decodes its snapshot). The boots take milliseconds, so
/// pairs are timed between the traffic windows, spread over the whole run
/// like the traffic itself, and each figure is the fastest over all
/// pairs.
struct Boots {
    config: ServerConfig,
    snapshots: SnapshotStore,
    cold: Vec<f64>,
    warm: Vec<f64>,
}

/// Boot pairs timed after each traffic window.
const BOOTS_PER_WINDOW: usize = 6;

/// Writes the boot log (one record per registration) under `dir`.
fn boot_log(dir: &Path, plans: &[Registered]) -> PathBuf {
    let registry = dir.join("registry.jsonl");
    let mut log = RegistryLog::new(&registry);
    for reg in plans {
        log.append(&reg.text, &Weights::ones())
            .expect("append the boot log");
    }
    registry
}

/// Times the public functions a cold and a warm boot run, on the boot log:
/// replay, then per record canonicalize, parse, snapshot load (a miss),
/// plan, encode and write; then replay again and per record canonicalize,
/// load (a hit) and decode. Returns the store, whose stats count the loads.
fn replay_boots(registry: &Path, dir: &Path, tracer: &Tracer, out: &mut Outcome) -> SnapshotStore {
    let store = SnapshotStore::new(dir.join("snapshots"));
    let _ = std::fs::remove_dir_all(store.dir());
    let log = RegistryLog::new(registry);
    let Ok(replay) = tracer.span_result("serve.store.replay", || log.replay()) else {
        out.fail("replaying the boot log");
        return store;
    };
    for record in &replay.records {
        let Ok(canonical) = tracer.span_result("serve.registry.canonicalize", || {
            PlanRegistry::canonicalize(&record.sentence)
        }) else {
            out.fail("canonicalize");
            continue;
        };
        let key = PlanRegistry::hash_sentence(&canonical);
        let id = PlanRegistry::format_id(key);
        let _ = tracer.span("serve.snap.load", || store.load(&id, key));
        let Ok(formula) = tracer.span_result("logic.parse", || parse(&canonical)) else {
            out.fail("parse");
            continue;
        };
        let problem = Problem::new(formula).with_weights(record.weights.clone());
        let Ok(plan) = tracer.span_result("core.plan", || problem.plan()) else {
            out.fail("plan");
            continue;
        };
        let bytes = tracer.span("core.plan.snap_encode", || plan.snap_encode());
        if tracer
            .span_result("serve.snap.write", || store.write(&id, key, &bytes))
            .is_err()
        {
            out.fail("snapshot write");
        }
    }
    let Ok(replay) = tracer.span_result("serve.store.replay", || log.replay()) else {
        out.fail("replaying the boot log");
        return store;
    };
    for record in &replay.records {
        let Ok(canonical) = tracer.span_result("serve.registry.canonicalize", || {
            PlanRegistry::canonicalize(&record.sentence)
        }) else {
            continue;
        };
        let key = PlanRegistry::hash_sentence(&canonical);
        let id = PlanRegistry::format_id(key);
        let Some(bytes) = tracer.span("serve.snap.load", || store.load(&id, key)) else {
            out.fail("snapshot load");
            continue;
        };
        if tracer
            .span_result("core.plan.snap_decode", || Plan::snap_decode(&bytes))
            .is_err()
        {
            out.fail("snapshot decode");
        }
    }
    store
}

impl Boots {
    fn new(dir: &Path, plans: &[Registered]) -> Boots {
        let registry = boot_log(dir, plans);
        Boots {
            snapshots: SnapshotStore::for_registry(&registry),
            config: ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: WORKERS,
                capacity: 1024,
                registry_path: Some(registry),
            },
            cold: Vec::new(),
            warm: Vec::new(),
        }
    }

    /// One cold and one warm boot. With `check`, both servers answer a
    /// count on every plan, and the warm answers must match the cold ones
    /// bit for bit.
    fn pair(&mut self, plans: &[Registered], check: bool, out: &mut Outcome) {
        let _ = std::fs::remove_dir_all(self.snapshots.dir());
        // Commit the filesystem journal (the removal and the traffic's
        // writes) before the clock starts, so the boot's own snapshot
        // writes do not queue behind a commit of earlier work.
        if let Some(parent) = self.snapshots.dir().parent() {
            let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
        }
        let t = Instant::now();
        let server = Server::bind(&self.config).expect("cold boot");
        self.cold.push(t.elapsed().as_secs_f64());
        let cold_values = check.then(|| probe(server, plans));
        let t = Instant::now();
        let server = Server::bind(&self.config).expect("warm boot");
        self.warm.push(t.elapsed().as_secs_f64());
        let Some(cold_values) = cold_values else {
            return;
        };
        let warm_values = probe(server, plans);
        out.attempted += 2 * plans.len() as u64;
        for (reg, (c, w)) in plans.iter().zip(cold_values.iter().zip(&warm_values)) {
            if c.is_none() || w.is_none() {
                out.fail(format!("boot probe on {} failed", reg.id));
            } else if c != w {
                out.wrong(format!(
                    "warm boot serves other bits than cold on {}",
                    reg.id
                ));
            }
        }
    }

    fn report(&self, out: &mut Outcome) {
        let n = self.cold.len();
        out.metric(
            "cold_boot_s",
            fastest(&self.cold),
            "s",
            format!("fastest of {n} Server::bind, replanning"),
        );
        out.metric(
            "warm_boot_s",
            fastest(&self.warm),
            "s",
            format!("fastest of {n} Server::bind, from snapshots"),
        );
    }
}

/// Runs a bound server just long enough to answer one count per plan.
fn probe(server: Server, plans: &[Registered]) -> Vec<Option<String>> {
    let addr = server.local_addr();
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());
    let values = plans
        .iter()
        .map(|reg| {
            let body = format!("{{\"n\": {}}}", reg.ns.start());
            client::post(addr, &format!("/v1/plans/{}/count", reg.id), &body)
                .ok()
                .and_then(|r| reply_value(&r.body))
        })
        .collect();
    handle.shutdown();
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drains cleanly");
    values
}
