//! Wall-clock snapshot of the query service: requests/s and per-request
//! overhead of serving counts over loopback HTTP versus calling
//! `Plan::count` directly in-process. Boots an in-process daemon (no
//! persistence), registers the Table 1 sentence, and drives `k` count
//! requests at `n = 12` — once through a single worker with one sequential
//! client, once through a pooled daemon with concurrent clients. Prints
//! one JSON object per configuration for `BENCH_serve.json`. Run with
//! `cargo run --release -p wfomc-bench --bin serve_time [-- quick]`.

use std::env;
use std::time::Instant;

use wfomc::prelude::*;
use wfomc_bench::table1_workload;
use wfomc_serve::client;
use wfomc_serve::http::{Server, ServerConfig};
use wfomc_serve::json::Value;

const N: usize = 12;

fn main() {
    let quick = env::args().nth(1).as_deref() == Some("quick");
    let k = if quick { 8 } else { 32 };
    let sentence = table1_workload();

    // Bare baseline: one plan, k direct counts (the thing the service must
    // stay within 1.5x of, amortized).
    let plan = Problem::new(sentence.clone()).plan().expect("table1 plans");
    let weights = plan.default_weights();
    let _ = plan.count(N, weights).expect("warm-up count");
    let start = Instant::now();
    let mut bare_values = Vec::with_capacity(k);
    for _ in 0..k {
        bare_values.push(plan.count(N, weights).expect("bare count").value);
    }
    let bare_ms = start.elapsed().as_secs_f64() * 1e3;

    for (workers, clients) in [(1usize, 1usize), (4, 4)] {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            capacity: 16,
            registry_path: None,
        })
        .expect("bind loopback");
        let handle = server.handle();
        let addr = server.local_addr();
        let daemon = std::thread::spawn(move || server.run());

        let body = format!(r#"{{"sentence": "{sentence}"}}"#);
        let reply = client::post(addr, "/v1/plans", &body).expect("register");
        assert_eq!(reply.status, 201, "{}", reply.body);
        let id = reply
            .json()
            .unwrap()
            .get("id")
            .and_then(Value::as_str)
            .expect("register returns an id")
            .to_string();
        // Warm up the bound weights once, like the bare loop does.
        let count_path = format!("/v1/plans/{id}/count");
        let count_body = format!(r#"{{"n": {N}}}"#);
        let reply = client::post(addr, &count_path, &count_body).expect("warm-up request");
        assert_eq!(reply.status, 200, "{}", reply.body);

        let start = Instant::now();
        let served_values: Vec<String> = if clients <= 1 {
            (0..k)
                .map(|_| count_once(addr, &count_path, &count_body))
                .collect()
        } else {
            let threads: Vec<_> = (0..clients)
                .map(|c| {
                    let (path, body) = (count_path.clone(), count_body.clone());
                    let quota = k / clients + usize::from(c < k % clients);
                    std::thread::spawn(move || {
                        (0..quota)
                            .map(|_| count_once(addr, &path, &body))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread"))
                .collect()
        };
        let served_ms = start.elapsed().as_secs_f64() * 1e3;
        handle.shutdown();
        daemon.join().expect("daemon thread").expect("clean drain");

        for value in &served_values {
            assert_eq!(
                value,
                &bare_values[0].to_string(),
                "served value must be bit-identical to Plan::count"
            );
        }
        println!(
            "{{\"workload\": \"serve/table1-n12\", \"workers\": {workers}, \
             \"clients\": {clients}, \"k\": {k}, \"served_ms\": {served_ms:.2}, \
             \"bare_ms\": {bare_ms:.2}, \"per_request_ms\": {:.3}, \
             \"bare_per_request_ms\": {:.3}, \"requests_per_s\": {:.0}, \
             \"overhead\": {:.2}}}",
            served_ms / k as f64,
            bare_ms / k as f64,
            k as f64 / (served_ms / 1e3),
            served_ms / bare_ms
        );
    }
}

fn count_once(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    let reply = client::post(addr, path, body).expect("count request");
    assert_eq!(reply.status, 200, "{}", reply.body);
    reply
        .json()
        .unwrap()
        .get("value")
        .and_then(Value::as_str)
        .expect("count returns a value")
        .to_string()
}
