//! End-to-end tests over a real loopback socket: concurrent clients,
//! bit-identical values, typed limit errors, and JSONL crash recovery.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

use wfomc_core::Problem;
use wfomc_logic::parser::parse;
use wfomc_serve::client::{self, Reply};
use wfomc_serve::http::{Server, ServerConfig, ServerHandle};
use wfomc_serve::json::Value;

/// FO² sentence (independent-set style) used throughout: every count is
/// checked against a direct `Plan::count` on the same build.
const SENTENCE: &str = "forall x. forall y. S(x) | N(x,y) | S(y)";

fn boot(
    registry_path: Option<PathBuf>,
) -> (ServerHandle, SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
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
    daemon.join().unwrap().unwrap();
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
    daemon.join().unwrap().unwrap();
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
    daemon.join().unwrap().unwrap();
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
    daemon.join().unwrap().unwrap();
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
    daemon.join().unwrap().unwrap();

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
    daemon.join().unwrap().unwrap();
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
    daemon.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_and_rejects_new_work() {
    let (handle, addr, daemon) = boot(None);
    let id = register(addr, SENTENCE);
    handle.shutdown();
    daemon.join().unwrap().unwrap();

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
    daemon.join().unwrap().unwrap();

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
    daemon.join().unwrap().unwrap();

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
    daemon.join().unwrap().unwrap();

    // The rewrite is valid again: one more boot, one more hit.
    let (handle, addr, daemon) = boot(Some(path.clone()));
    assert_eq!(metric(addr, "snap.hits"), 1);
    handle.shutdown();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn version_skewed_snapshot_silently_replans() {
    let path = temp_registry("snap-skew");
    let (handle, addr, daemon) = boot(Some(path.clone()));
    let id = register(addr, SENTENCE);
    let want = direct_value(SENTENCE, 4);
    handle.shutdown();
    daemon.join().unwrap().unwrap();

    // A snapshot from a future (or past) format version: bump the version
    // field right after the 4-byte magic.
    let snap_path = path
        .parent()
        .unwrap()
        .join("snapshots")
        .join(format!("{id}.snap"));
    let mut bytes = std::fs::read(&snap_path).unwrap();
    bytes[4] = bytes[4].wrapping_add(1);
    std::fs::write(&snap_path, &bytes).unwrap();

    let (handle, addr, daemon) = boot(Some(path.clone()));
    assert_eq!(handle.plans(), 1, "skew costs a replan, never a plan");
    assert_eq!(metric(addr, "snap.invalid"), 1, "skew counted as invalid");
    assert_eq!(metric(addr, "snap.hits"), 0);
    let reply = client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 4}"#).unwrap();
    assert_eq!(str_field(&json_of(&reply), "value"), want);
    handle.shutdown();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
