//! The repository's benchmark: named, seeded workloads run against the
//! public API of the wfomc library and the `wfomc-serve` query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-sweep --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Every answer is checked. The untraced run (`--trace 0`) reports the
//! end-to-end metrics; the traced run (`--trace 1`) reports per-layer
//! calls, self time and failures from spans recorded around each call into
//! a layer, written to `.bench_out/`. Human-readable lines, each starting
//! with `#`, come first, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod common;
mod engine;
mod serve;
mod trace;

use std::process::ExitCode;

use common::{json_num, json_str, stamp, Outcome};
use trace::Tracer;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Records spans when `trace` is set; a pass-through otherwise.
    pub tracer: Tracer,
}

/// Every span layer a traced run reports, loaded or not, so every traced
/// run prints the same metric names. `serve.http.handler` and
/// `serve.http.outside_handler` come from the server's own request
/// accounting rather than from spans.
const LAYERS: [&str; 23] = [
    "core.plan",
    "core.plan.snap_encode",
    "core.plan.snap_decode",
    "core.count.fo2",
    "core.fo2.bind",
    "core.count.lanes",
    "core.count.log_mixed",
    "core.count.log_scalar",
    "core.count.qs4",
    "core.count.cq",
    "core.count.ground",
    "mln.probability",
    "core.report.to_json",
    "logic.parse",
    "serve.json.parse",
    "serve.registry.canonicalize",
    "serve.http.rtt",
    "serve.http.handler",
    "serve.http.outside_handler",
    "serve.snap.write",
    "serve.snap.load",
    "serve.store.append",
    "serve.store.replay",
];

/// Derived per-layer metrics every traced run prints (zero where the
/// workload bypasses the layer).
const DERIVED: [&str; 14] = [
    "core.fo2.cellsum.prune_ratio",
    "core.count.lanes.fill_ratio",
    "core.fo2.bind.hit_ratio",
    "core.cq.memo_hit_ratio",
    "ground.hit_ratio",
    "serve.registry.hit_ratio",
    "serve.snap.hit_ratio",
    "trace.overhead_pct",
    "unattributed_ms",
    "split.lanes_ms_per_point",
    "split.log_scalar_ms_per_point",
    "split.exact_ms_per_point",
    "split.batching_speedup",
    "split.exact_to_log_speedup",
];

const WORKLOADS: [&str; 2] = ["engine-sweep", "serve-mix"];

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 45.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        tracer: Tracer::new(trace),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = stamp(&cfg.workload, cfg.seed, cfg.seconds as u64, cfg.trace);
    println!("# stamp {stamp}");
    let mut out = match cfg.workload.as_str() {
        "engine-sweep" => engine::run(&cfg),
        _ => serve::run(&cfg),
    };
    if cfg.trace {
        add_layers(&cfg.tracer, &mut out);
        let path = std::path::Path::new(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        match cfg.tracer.write_jsonl(&path, &stamp) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    print_report(&out);
    ExitCode::SUCCESS
}

/// Adds `X.calls`, `X.busy_ms` and `X.failed` for every layer, and zeros
/// for derived metrics the workload did not produce.
fn add_layers(tracer: &Tracer, out: &mut Outcome) {
    let layers = tracer.layers();
    for name in LAYERS {
        if out
            .metrics
            .iter()
            .any(|m| m.name == format!("{name}.calls"))
        {
            continue; // the workload reported this layer itself
        }
        let layer = layers.get(name).copied().unwrap_or_default();
        out.metric(
            &format!("{name}.calls"),
            layer.calls as f64,
            "count",
            "spans",
        );
        out.metric(
            &format!("{name}.busy_ms"),
            layer.busy_ns as f64 / 1e6,
            "ms",
            "self time",
        );
        out.metric(
            &format!("{name}.failed"),
            layer.failed as f64,
            "count",
            "spans",
        );
    }
    for name in DERIVED {
        if !out.metrics.iter().any(|m| m.name == name) {
            let unit = if name.ends_with("_ms") || name.ends_with("_per_point") {
                "ms"
            } else if name.ends_with("_pct") {
                "%"
            } else if name.ends_with("speedup") {
                "x"
            } else {
                "ratio"
            };
            out.metric(name, 0.0, unit, "not loaded by this workload");
        }
    }
}

fn print_report(out: &Outcome) {
    for problem in out.problems.iter().take(20) {
        eprintln!("perfbench: {problem}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# error_rate {} ({} failed or wrong of {} attempted; {} wrong)",
        error_rate, out.failed, out.attempted, out.wrong
    );
    let mut fields = Vec::new();
    for m in &out.metrics {
        println!(
            "# {:<40} {:>16} {:<6} {}",
            m.name,
            json_num(m.value),
            m.unit,
            m.note
        );
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
}
