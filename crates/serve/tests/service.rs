//! End-to-end tests over a real loopback socket: concurrent clients,
//! bit-identical values, typed limit errors, JSONL crash recovery, request
//! framing that does not depend on the client's write pattern, and a
//! shutdown that returns with any number of idle workers.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wfomc_core::Problem;
use wfomc_logic::parser::parse;
use wfomc_serve::client::{self, Reply};
use wfomc_serve::http::{Server, ServerConfig, ServerHandle};
use wfomc_serve::json::Value;
use wfomc_serve::snap::FORMAT_VERSION;

/// FO² sentence (independent-set style) used throughout: every count is
/// checked against a direct `Plan::count` on the same build.
const SENTENCE: &str = "forall x. forall y. S(x) | N(x,y) | S(y)";

/// γ-acyclic conjunctive queries (three and four variables, so they plan as
/// CQs rather than FO²).
const CHAIN2: &str = "exists x0. exists x1. exists x2. R1(x0,x1) & R2(x1,x2)";
const CHAIN3: &str =
    "exists x0. exists x1. exists x2. exists x3. R1(x0,x1) & R2(x1,x2) & R3(x2,x3)";

fn boot(
    registry_path: Option<PathBuf>,
) -> (ServerHandle, SocketAddr, JoinHandle<std::io::Result<()>>) {
    boot_with_workers(registry_path, 4)
}

fn boot_with_workers(
    registry_path: Option<PathBuf>,
    workers: usize,
) -> (ServerHandle, SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        capacity: 32,
        registry_path,
    })
    .expect("bind loopback");
    let handle = server.handle();
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    (handle, addr, daemon)
}

fn temp_registry(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "wfomc-serve-it-{tag}-{}-{n}/registry.jsonl",
        std::process::id()
    ))
}

fn direct_value(sentence: &str, n: usize) -> String {
    let plan = Problem::new(parse(sentence).unwrap()).plan().unwrap();
    plan.count(n, plan.default_weights())
        .unwrap()
        .value
        .to_string()
}

fn json_of(reply: &Reply) -> Value {
    reply
        .json()
        .unwrap_or_else(|e| panic!("body is not JSON ({e}): {}", reply.body))
}

fn str_field(value: &Value, key: &str) -> String {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {value:?}"))
        .to_string()
}

fn register(addr: SocketAddr, sentence: &str) -> String {
    let mut escaped = String::new();
    // Sentences here contain no JSON-special characters.
    escaped.push_str(sentence);
    let reply = client::post(
        addr,
        "/v1/plans",
        &format!(r#"{{"sentence": "{escaped}"}}"#),
    )
    .expect("register request");
    assert!(
        reply.status == 200 || reply.status == 201,
        "register failed: {} {}",
        reply.status,
        reply.body
    );
    str_field(&json_of(&reply), "id")
}

#[test]
fn concurrent_clients_get_bit_identical_values() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, SENTENCE);

    // Ground truth from the library, computed once up front.
    let expected: Vec<(usize, String)> = (0..=8).map(|n| (n, direct_value(SENTENCE, n))).collect();

    let clients: Vec<_> = (0..8)
        .map(|worker| {
            let id = id.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for round in 0..3 {
                    let (n, want) = &expected[(worker + round * 3) % expected.len()];
                    let reply = client::post(
                        addr,
                        &format!("/v1/plans/{id}/count"),
                        &format!(r#"{{"n": {n}}}"#),
                    )
                    .expect("count request");
                    assert_eq!(reply.status, 200, "{}", reply.body);
                    let body = reply.json().expect("count body parses");
                    assert_eq!(
                        &body
                            .get("value")
                            .and_then(Value::as_str)
                            .unwrap()
                            .to_string(),
                        want,
                        "served count for n={n} must be bit-identical to Plan::count"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    assert_eq!(handle.stats().errors(), 0);
    assert!(handle.stats().requests() >= 25); // register + 24 counts
    handle.shutdown();
    join_promptly(daemon);
}

#[test]
fn deadline_capped_request_fails_typed_and_plan_stays_usable() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, SENTENCE);
    let path = format!("/v1/plans/{id}/count");

    // timeout_ms: 0 trips the deadline on the first guard check.
    let reply = client::post(addr, &path, r#"{"n": 400, "timeout_ms": 0}"#).unwrap();
    assert_eq!(reply.status, 422, "{}", reply.body);
    let body = json_of(&reply);
    let error = body.get("error").expect("error object");
    assert_eq!(str_field(error, "kind"), "deadline_exceeded");
    assert!(
        error.get("phase").is_some(),
        "typed error carries the phase"
    );

    // A work cap trips deterministically too. Under default weights the two
    // S-cells are interchangeable and merge, leaving a 401-composition sum
    // that finishes inside the first guard check period; w(N) = (1, 3)
    // gives the three cells distinct weights or diagonals, so none merge
    // (80 601 compositions).
    let reply = client::post(
        addr,
        &path,
        r#"{"n": 400, "weights": {"N": [1, 3]}, "work_cap": 1}"#,
    )
    .unwrap();
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert_eq!(
        str_field(json_of(&reply).get("error").unwrap(), "kind"),
        "work_cap_exceeded"
    );

    // The plan is not poisoned: the same id immediately serves real counts.
    let reply = client::post(addr, &path, r#"{"n": 6}"#).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        str_field(&json_of(&reply), "value"),
        direct_value(SENTENCE, 6)
    );

    handle.shutdown();
    join_promptly(daemon);
}

#[test]
fn batch_shares_one_budget_and_reports_per_point() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, SENTENCE);

    let reply = client::post(
        addr,
        &format!("/v1/plans/{id}/batch"),
        r#"{"points": [{"n": 2}, {"n": 4}, {"n": 6}]}"#,
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let body = json_of(&reply);
    let results = body.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 3);
    for (result, n) in results.iter().zip([2usize, 4, 6]) {
        assert_eq!(str_field(result, "value"), direct_value(SENTENCE, n));
    }

    // A zero deadline over the whole batch fails every point, typed.
    let reply = client::post(
        addr,
        &format!("/v1/plans/{id}/batch"),
        r#"{"points": [{"n": 300}, {"n": 400}], "timeout_ms": 0}"#,
    )
    .unwrap();
    assert_eq!(reply.status, 200, "batch itself succeeds: {}", reply.body);
    let body = json_of(&reply);
    let results = body.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    for result in results {
        let error = result.get("error").expect("per-point typed error");
        assert_eq!(str_field(error, "kind"), "deadline_exceeded");
    }

    handle.shutdown();
    join_promptly(daemon);
}

#[test]
fn batch_log_algebra_matches_library_lanes_bitwise() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, SENTENCE);

    // Same-`n` sweep: the server routes this through the lane-batched
    // `LogF64xN` path. The wire sign/ln pairs must round-trip bit-identical
    // to the library's own lane evaluation.
    let points: Vec<(usize, wfomc_logic::weights::Weights)> = (0..3)
        .map(|_| (6usize, wfomc_logic::weights::Weights::ones()))
        .collect();
    let expected: Vec<_> = Problem::new(parse(SENTENCE).unwrap())
        .plan()
        .unwrap()
        .count_batch_log(&points)
        .into_iter()
        .map(|r| r.expect("library lane count"))
        .collect();

    let reply = client::post(
        addr,
        &format!("/v1/plans/{id}/batch"),
        r#"{"algebra": "log", "points": [{"n": 6}, {"n": 6}, {"n": 6}]}"#,
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let body = json_of(&reply);
    let results = body.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), 3);
    for (result, want) in results.iter().zip(&expected) {
        assert_eq!(result.get("n").and_then(Value::as_u64), Some(6));
        assert_eq!(
            result.get("sign").and_then(Value::as_i64),
            Some(i64::from(want.signum()))
        );
        let ln = result
            .get("ln")
            .and_then(Value::as_f64)
            .expect("ln is a number for a nonzero count");
        assert_eq!(
            ln.to_bits(),
            want.ln_abs().to_bits(),
            "served ln must round-trip bit-identical"
        );
    }

    // An unknown algebra is rejected up front, not silently exact.
    let reply = client::post(
        addr,
        &format!("/v1/plans/{id}/batch"),
        r#"{"algebra": "decimal", "points": [{"n": 2}]}"#,
    )
    .unwrap();
    assert_eq!(reply.status, 400, "{}", reply.body);

    handle.shutdown();
    join_promptly(daemon);
}

#[test]
fn batch_log_on_a_cq_plan_runs_lifted_and_matches_library_lanes_bitwise() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, CHAIN3);

    // A same-`n` sweep at a size grounding cannot reach: the lanes run the
    // γ-acyclic reduction in `LogF64xN`.
    let weights = [[1, 1], [2, 1], [1, 3]];
    let points: Vec<(usize, wfomc_logic::weights::Weights)> = weights
        .iter()
        .map(|&[pos, neg]| {
            let w = wfomc_logic::weights::Weights::from_ints([("R1", pos, neg)]);
            (20usize, w)
        })
        .collect();
    let plan = Problem::new(parse(CHAIN3).unwrap()).plan().unwrap();
    let expected: Vec<_> = plan
        .count_batch_log(&points)
        .into_iter()
        .map(|r| r.expect("library lane count"))
        .collect();
    assert_eq!(
        plan.cache_stats().ground_misses,
        0,
        "the library ran lifted"
    );

    let items: Vec<String> = weights
        .iter()
        .map(|[pos, neg]| format!(r#"{{"n": 20, "weights": {{"R1": [{pos}, {neg}]}}}}"#))
        .collect();
    let reply = client::post(
        addr,
        &format!("/v1/plans/{id}/batch"),
        &format!(r#"{{"algebra": "log", "points": [{}]}}"#, items.join(", ")),
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let body = json_of(&reply);
    let results = body.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), expected.len());
    for (result, want) in results.iter().zip(&expected) {
        assert_eq!(
            result.get("sign").and_then(Value::as_i64),
            Some(i64::from(want.signum())),
            "{}",
            reply.body
        );
        let ln = result
            .get("ln")
            .and_then(Value::as_f64)
            .expect("ln is a number for a nonzero count");
        assert_eq!(ln.to_bits(), want.ln_abs().to_bits());
    }

    handle.shutdown();
    join_promptly(daemon);
}

#[test]
fn huge_domain_fails_typed_and_the_only_worker_survives() {
    // One worker: a count that killed it would leave nothing to answer.
    let (handle, addr, daemon) = boot_with_workers(None, 1);
    let id = register(addr, CHAIN2);
    let path = format!("/v1/plans/{id}/count");

    // n² overflows the ground tuple count of the binary predicates.
    let reply = client::post(addr, &path, r#"{"n": 8589934592}"#).unwrap();
    assert_eq!(reply.status, 422, "{}", reply.body);
    let body = json_of(&reply);
    let error = body.get("error").expect("error object");
    assert_eq!(str_field(error, "kind"), "lift_error");
    assert!(
        str_field(error, "message").contains("too large"),
        "{}",
        reply.body
    );

    // The same plan keeps counting, and the registry still answers.
    let reply = client::post(addr, &path, r#"{"n": 3}"#).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        str_field(&json_of(&reply), "value"),
        direct_value(CHAIN2, 3)
    );
    let reply = client::get(addr, "/v1/plans").unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);

    handle.shutdown();
    join_promptly(daemon);
}

#[test]
fn registry_log_survives_restart_and_truncates_corrupt_tail() {
    let path = temp_registry("restart");

    // First daemon: register, query, shut down.
    let (handle, addr, daemon) = boot(Some(path.clone()));
    let id = register(addr, SENTENCE);
    let want = direct_value(SENTENCE, 5);
    let reply = client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 5}"#).unwrap();
    assert_eq!(str_field(&json_of(&reply), "value"), want);
    handle.shutdown();
    join_promptly(daemon);

    // Simulate a crash mid-append: torn garbage at the tail.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"schema\":\"wfomc-serve/v1\",\"kind\":\"regis")
            .unwrap();
    }

    // Second daemon boots from the same log: same id, same value, and the
    // torn tail is gone from disk.
    let (handle, addr, daemon) = boot(Some(path.clone()));
    assert_eq!(handle.plans(), 1, "replayed exactly the good prefix");
    let reply = client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 5}"#).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(str_field(&json_of(&reply), "value"), want);
    let logged = std::fs::read_to_string(&path).unwrap();
    assert!(logged.ends_with('\n'), "torn tail truncated: {logged:?}");
    assert_eq!(logged.lines().count(), 1);

    // Re-registering the same sentence is recognized, not duplicated.
    let reply = client::post(
        addr,
        "/v1/plans",
        &format!(r#"{{"sentence": "{SENTENCE}"}}"#),
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let body = json_of(&reply);
    assert_eq!(str_field(&body, "id"), id);
    assert_eq!(body.get("created").and_then(Value::as_bool), Some(false));

    handle.shutdown();
    join_promptly(daemon);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn error_paths_are_typed() {
    let (handle, addr, daemon) = boot(None);

    // Unknown plan id.
    let reply = client::post(addr, "/v1/plans/00000000deadbeef/count", r#"{"n": 2}"#).unwrap();
    assert_eq!(reply.status, 404);
    assert_eq!(
        str_field(json_of(&reply).get("error").unwrap(), "kind"),
        "unknown_plan"
    );

    // Wrong method on a known route.
    let reply = client::get(addr, "/v1/plans/00000000deadbeef/count").unwrap();
    assert_eq!(reply.status, 405);

    // Unknown route.
    let reply = client::get(addr, "/v2/anything").unwrap();
    assert_eq!(reply.status, 404);

    // Malformed JSON body.
    let reply = client::post(addr, "/v1/plans", "{not json").unwrap();
    assert_eq!(reply.status, 400);
    assert_eq!(
        str_field(json_of(&reply).get("error").unwrap(), "kind"),
        "bad_request"
    );

    // Unplannable sentence (parses, cannot be lifted or grounded: open).
    let reply = client::post(addr, "/v1/plans", r#"{"sentence": "R(x) & S(x,y)"}"#).unwrap();
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert_eq!(
        str_field(json_of(&reply).get("error").unwrap(), "kind"),
        "plan_failed"
    );

    // Health and metrics respond while all of the above was going on.
    let reply = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(reply.status, 200);
    let reply = client::get(addr, "/v1/metrics").unwrap();
    assert_eq!(reply.status, 200);
    let body = json_of(&reply);
    assert_eq!(str_field(&body, "schema"), "wfomc-obs/v1");
    // The tallies are this server's own, so other servers booted by tests
    // running concurrently in this process do not leak in. Five typed errors
    // plus the health check; the metrics request itself is counted only
    // after its body is built.
    let counters = body.get("counters").expect("counters section");
    let counter = |name: &str| counters.get(name).and_then(Value::as_u64);
    assert_eq!(counter("serve.requests"), Some(6), "{}", reply.body);
    assert_eq!(counter("serve.errors"), Some(5), "{}", reply.body);
    // No registry path, so no snapshot store: the snapshot keys are still
    // reported, as zeros.
    assert_eq!(counter("snap.hits"), Some(0), "{}", reply.body);

    handle.shutdown();
    join_promptly(daemon);
}

#[test]
fn shutdown_drains_and_rejects_new_work() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, SENTENCE);
    handle.shutdown();
    join_promptly(daemon);

    // The listener is gone; new connections are refused outright.
    assert!(client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 2}"#).is_err());
}

/// Reads a named counter out of the `/v1/metrics` overlay.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let reply = client::get(addr, "/v1/metrics").unwrap();
    json_of(&reply)
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing counter `{name}`: {}", reply.body))
}

#[test]
fn snapshot_warm_restart_is_bit_identical_and_survives_corruption() {
    let path = temp_registry("snap-warm");

    // First daemon: register, evaluate, shut down gracefully.
    let (handle, addr, daemon) = boot(Some(path.clone()));
    let id = register(addr, SENTENCE);
    let want = direct_value(SENTENCE, 6);
    let reply = client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 6}"#).unwrap();
    assert_eq!(str_field(&json_of(&reply), "value"), want);
    handle.shutdown();
    join_promptly(daemon);

    let snap_path = path
        .parent()
        .unwrap()
        .join("snapshots")
        .join(format!("{id}.snap"));
    assert!(snap_path.exists(), "registration wrote {snap_path:?}");

    // Warm boot: the plan comes back from its snapshot (a hit, no replan)
    // and serves the same bits.
    let (handle, addr, daemon) = boot(Some(path.clone()));
    assert_eq!(handle.plans(), 1);
    assert_eq!(metric(addr, "snap.hits"), 1, "boot loaded the snapshot");
    assert_eq!(metric(addr, "snap.invalid"), 0);
    let reply = client::get(addr, &format!("/v1/plans/{id}/stats")).unwrap();
    let stats = json_of(&reply);
    assert_eq!(
        stats.get("snapshotted").and_then(Value::as_bool),
        Some(true),
        "{}",
        reply.body
    );
    let reply = client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 6}"#).unwrap();
    assert_eq!(str_field(&json_of(&reply), "value"), want);
    handle.shutdown();
    join_promptly(daemon);

    // Flip one payload byte: the checksum fails, the boot silently replans,
    // and the answer is unchanged. The replan then rewrites a good file.
    {
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap_path, &bytes).unwrap();
    }
    let (handle, addr, daemon) = boot(Some(path.clone()));
    assert_eq!(handle.plans(), 1);
    assert_eq!(metric(addr, "snap.invalid"), 1, "corruption was detected");
    assert_eq!(metric(addr, "snap.writes"), 1, "replan rewrote the file");
    let reply = client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 6}"#).unwrap();
    assert_eq!(str_field(&json_of(&reply), "value"), want);
    handle.shutdown();
    join_promptly(daemon);

    // The rewrite is valid again: one more boot, one more hit.
    let (handle, addr, daemon) = boot(Some(path.clone()));
    assert_eq!(metric(addr, "snap.hits"), 1);
    handle.shutdown();
    join_promptly(daemon);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn version_skewed_snapshot_silently_replans() {
    let path = temp_registry("snap-skew");
    let (handle, addr, daemon) = boot(Some(path.clone()));
    let id = register(addr, SENTENCE);
    let want = direct_value(SENTENCE, 4);
    handle.shutdown();
    join_promptly(daemon);

    let snap_path = path
        .parent()
        .unwrap()
        .join("snapshots")
        .join(format!("{id}.snap"));
    // A `wfomc-snap/v1` file, written before FO² pair structures were
    // stored per row class, and one from a future format: the version
    // field follows the 4-byte magic. Each boot replans and rewrites the
    // file at this build's version.
    assert_eq!(FORMAT_VERSION, 2);
    for version in [1u16, FORMAT_VERSION + 1] {
        let mut bytes = std::fs::read(&snap_path).unwrap();
        assert_eq!(bytes[4..6], FORMAT_VERSION.to_le_bytes(), "rewritten at v2");
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&snap_path, &bytes).unwrap();

        let (handle, addr, daemon) = boot(Some(path.clone()));
        assert_eq!(
            handle.plans(),
            1,
            "v{version}: skew costs a replan, never a plan"
        );
        assert_eq!(
            metric(addr, "snap.invalid"),
            1,
            "v{version}: counted as invalid"
        );
        assert_eq!(metric(addr, "snap.hits"), 0, "v{version}");
        assert_eq!(
            metric(addr, "snap.writes"),
            1,
            "v{version}: replan rewrote the file"
        );
        let reply = client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 4}"#).unwrap();
        assert_eq!(str_field(&json_of(&reply), "value"), want, "v{version}");
        handle.shutdown();
        join_promptly(daemon);
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Joins the daemon, failing (instead of hanging) when `run` has not
/// returned within a few seconds: a worker left blocked in `accept` after
/// shutdown shows up as a test failure.
fn join_promptly(daemon: JoinHandle<std::io::Result<()>>) {
    let limit = Duration::from_secs(10);
    let started = Instant::now();
    while !daemon.is_finished() {
        assert!(
            started.elapsed() < limit,
            "Server::run did not return within {limit:?} of shutdown"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drains cleanly");
}

#[test]
fn shutdown_wakes_every_idle_worker() {
    for workers in [1, 2, 4] {
        let (handle, addr, daemon) = boot_with_workers(None, workers);
        let reply = client::get(addr, "/v1/healthz").unwrap();
        assert_eq!(reply.status, 200, "{workers} workers: {}", reply.body);
        handle.shutdown();
        join_promptly(daemon);
    }
}

#[test]
fn shutdown_over_http_drains_every_worker() {
    let (_handle, addr, daemon) = boot_with_workers(None, 4);
    register(addr, SENTENCE);
    let reply = client::post(addr, "/v1/shutdown", "").unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
    join_promptly(daemon);
}

/// POSTs `body` from a raw socket in two writes: everything before byte
/// `split` of the message, a pause, then the rest. Returns the status and
/// the response body.
fn post_in_two_writes(addr: SocketAddr, path: &str, body: &str, split: usize) -> (u16, String) {
    let message = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (first, rest) = message.as_bytes().split_at(split);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(first).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(rest).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

/// Every point's `value`, in order.
fn batch_values(body: &str) -> Vec<String> {
    let body = json_of(&Reply {
        status: 200,
        body: body.to_string(),
    });
    body.get("results")
        .and_then(Value::as_arr)
        .expect("batch results")
        .iter()
        .map(|result| str_field(result, "value"))
        .collect()
}

#[test]
fn head_and_body_in_separate_writes_are_read_whole() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, SENTENCE);
    let path = format!("/v1/plans/{id}/count");
    let body = r#"{"n": 5}"#;
    let head_len =
        format!("POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 8\r\n\r\n").len();

    let (status, split) = post_in_two_writes(addr, &path, body, head_len);
    assert_eq!(status, 200, "{split}");
    let whole = client::post(addr, &path, body).unwrap();
    assert_eq!(whole.status, 200, "{}", whole.body);
    let value = str_field(&json_of(&whole), "value");
    assert_eq!(value, direct_value(SENTENCE, 5));
    let split = Reply {
        status,
        body: split,
    };
    assert_eq!(str_field(&json_of(&split), "value"), value);

    handle.shutdown();
    join_promptly(daemon);
}

#[test]
fn batch_body_over_16_kib_is_read_whole() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, SENTENCE);
    let path = format!("/v1/plans/{id}/batch");
    let points: Vec<String> = (0..2500)
        .map(|i| format!(r#"{{"n": {}}}"#, i % 6))
        .collect();
    let body = format!(r#"{{"points": [{}]}}"#, points.join(", "));
    assert!(body.len() > 16 * 1024, "body is {} bytes", body.len());

    let whole = client::post(addr, &path, &body).unwrap();
    assert_eq!(whole.status, 200, "{}", whole.body);
    let values = batch_values(&whole.body);
    let expected: Vec<String> = (0..6).map(|n| direct_value(SENTENCE, n)).collect();
    assert_eq!(values.len(), points.len());
    for (i, value) in values.iter().enumerate() {
        assert_eq!(value, &expected[i % 6], "point {i}");
    }
    // The same body split mid-way, with a pause, reads the same.
    let (status, split) = post_in_two_writes(addr, &path, &body, body.len() / 2);
    assert_eq!(status, 200, "{split}");
    assert_eq!(batch_values(&split), values);

    handle.shutdown();
    join_promptly(daemon);
}
