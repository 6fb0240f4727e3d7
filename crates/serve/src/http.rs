//! The HTTP/1.1 front end: a `std::net` listener, a fixed worker pool,
//! and hand-rolled request parsing — no framework, no async runtime.
//!
//! One connection carries one request (`Connection: close`), which keeps
//! the parser trivial and matches the service's unit of work: a count
//! request is CPU-bound for milliseconds-to-seconds, so connection reuse
//! would buy nothing. The accept loop hands accepted sockets to
//! `workers` threads over an `mpsc` channel; graceful shutdown flips a
//! flag, cancels the shared [`CancelToken`] (so in-flight evaluations
//! return [`SolveError::Cancelled`](wfomc_core::SolveError::Cancelled) instead
//! of being abandoned), wakes the
//! blocking `accept` with a self-connection, and joins every worker after
//! the queue drains.
//!
//! # Endpoints (`wfomc-serve/v1`)
//!
//! | Method | Path                   | Meaning                                   |
//! |--------|------------------------|-------------------------------------------|
//! | POST   | `/v1/plans`            | parse + plan a sentence, return its id    |
//! | GET    | `/v1/plans`            | list registered plans                     |
//! | POST   | `/v1/plans/{id}/count` | evaluate one `n` (optional limits)        |
//! | POST   | `/v1/plans/{id}/batch` | evaluate many points under one budget     |
//! | GET    | `/v1/plans/{id}/stats` | plan cache stats + metrics snapshot       |
//! | GET    | `/v1/metrics`          | global `wfomc-obs/v1` snapshot            |
//! | GET    | `/v1/healthz`          | liveness                                  |
//! | POST   | `/v1/shutdown`         | graceful drain + exit                     |

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wfomc_guard::CancelToken;
use wfomc_logic::weights::Weights;
use wfomc_obs::json::{JsonArray, JsonObject};

use wfomc_core::Plan;

use crate::json::{parse, Value};
use crate::registry::{PlanRegistry, RegisteredPlan};
use crate::snap::SnapshotStore;
use crate::store::RegistryLog;
use crate::wire::{limits_from_json, n_from_json, weights_from_json, ApiError, SCHEMA};

/// Request headers larger than this are rejected.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Request bodies larger than this are rejected with 413.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-socket read/write timeout, so a stalled client cannot pin a worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How to run the service.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Plan-registry LRU capacity.
    pub capacity: usize,
    /// JSONL registry log; `None` disables persistence.
    pub registry_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            capacity: 256,
            registry_path: Some(PathBuf::from(".wfomc/registry.jsonl")),
        }
    }
}

/// Per-server request accounting (plain atomics, always recorded, whether or
/// not `wfomc_obs` recording is switched on).
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: AtomicU64,
    errors: AtomicU64,
    latency_ns: AtomicU64,
}

impl ServeStats {
    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests that produced an error body.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Total handler latency in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.latency_ns.load(Ordering::Relaxed)
    }
}

struct ServerCtx {
    registry: PlanRegistry,
    log: Option<Mutex<RegistryLog>>,
    /// Plan-state snapshots (`wfomc-snap/v1`), enabled alongside the log:
    /// a `snapshots/` directory next to the registry JSONL.
    snap: Option<SnapshotStore>,
    stats: ServeStats,
    shutdown: AtomicBool,
    cancel: CancelToken,
    addr: SocketAddr,
}

impl ServerCtx {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already draining
        }
        self.cancel.cancel();
        // Wake the blocking accept so the loop observes the flag. The
        // connection is accepted, sees the flag, and is dropped.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A handle for poking a running [`Server`] from another thread: resolved
/// address, live stats, and graceful shutdown.
#[derive(Clone)]
pub struct ServerHandle {
    ctx: Arc<ServerCtx>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Begins a graceful shutdown: stop accepting, cancel in-flight
    /// evaluations, drain queued connections, join workers.
    pub fn shutdown(&self) {
        self.ctx.begin_shutdown();
    }

    /// Always-on request accounting.
    pub fn stats(&self) -> &ServeStats {
        &self.ctx.stats
    }

    /// How many plans are currently registered.
    pub fn plans(&self) -> usize {
        self.ctx.registry.len()
    }
}

/// A bound (but not yet running) query service.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    ctx: Arc<ServerCtx>,
}

impl Server {
    /// Binds the listener and replays the registry log (if configured).
    /// Each logged record first tries its `wfomc-snap/v1` snapshot — one
    /// read plus a validated decode — and only replans when the snapshot
    /// is missing, version-skewed, corrupt, or does not match the record,
    /// so the daemon serves the same plan ids (and warm caches) it did
    /// before a restart. Records that no longer plan are skipped with a
    /// warning; a corrupt log tail is truncated (see [`RegistryLog::replay`]).
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = PlanRegistry::new(config.capacity);
        let (log, snap) = match &config.registry_path {
            Some(path) => {
                let snap = SnapshotStore::for_registry(path);
                let log = RegistryLog::new(path);
                let outcome = log.replay()?;
                for record in outcome.records {
                    if replay_from_snapshot(&registry, &snap, &record.sentence, &record.weights) {
                        continue;
                    }
                    match registry.register(&record.sentence, record.weights) {
                        Ok((registered, created)) => {
                            if created {
                                write_snapshot(&snap, &registered);
                            }
                        }
                        Err(e) => eprintln!(
                            "wfomc-serve: skipping logged sentence `{}`: {}",
                            record.sentence, e.message
                        ),
                    }
                }
                (Some(Mutex::new(log)), Some(snap))
            }
            None => (None, None),
        };
        let ctx = Arc::new(ServerCtx {
            registry,
            log,
            snap,
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            cancel: CancelToken::new(),
            addr,
        });
        Ok(Server {
            listener,
            workers: config.workers.max(1),
            ctx,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// A cloneable handle for shutdown and stats.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Runs the accept loop until a graceful shutdown, then drains queued
    /// connections and joins every worker. Returns `Ok(())` on a clean
    /// drain.
    pub fn run(self) -> io::Result<()> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let ctx = Arc::clone(&self.ctx);
                std::thread::Builder::new()
                    .name(format!("wfomc-serve-{i}"))
                    .spawn(move || loop {
                        let next = rx.lock().expect("worker queue poisoned").recv();
                        match next {
                            Ok(stream) => handle_connection(&ctx, stream),
                            Err(_) => break, // sender dropped: drained
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        for stream in self.listener.incoming() {
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                break; // the waking connection (or any racer) is dropped
            }
            match stream {
                Ok(stream) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) => eprintln!("wfomc-serve: accept failed: {e}"),
            }
        }
        drop(tx); // workers finish the queue, then exit
        for worker in workers {
            let _ = worker.join();
        }
        self.shutdown_persistence();
        Ok(())
    }

    /// Graceful-shutdown persistence sweep, run after the last worker has
    /// drained: rewrite snapshots for dirty plans (whose caches or compiled
    /// circuits grew since their last write) and compact the JSONL log down
    /// to the entries still live in the registry.
    fn shutdown_persistence(&self) {
        let plans = self.ctx.registry.plans();
        if let Some(snap) = &self.ctx.snap {
            for registered in &plans {
                if registered.snapshot_dirty() {
                    write_snapshot(snap, registered);
                }
            }
        }
        if let Some(log) = &self.ctx.log {
            let mut log = log.lock().expect("registry log poisoned");
            let live: Vec<(String, Weights)> = plans
                .iter()
                .map(|r| (r.sentence.clone(), r.weights.clone()))
                .collect();
            if let Err(e) = log.compact(&live) {
                eprintln!(
                    "wfomc-serve: failed to compact {}: {e}",
                    log.path().display()
                );
            }
        }
    }
}

/// Boot-replay fast path: registers a logged record straight from its
/// snapshot when one exists, validates, decodes, and matches the record's
/// canonical sentence and weights exactly. Returns `false` (replan) on any
/// shortfall; a snapshot can never change which plans are served, only how
/// fast they come back.
fn replay_from_snapshot(
    registry: &PlanRegistry,
    snap: &SnapshotStore,
    sentence: &str,
    weights: &Weights,
) -> bool {
    let canonical = match PlanRegistry::canonicalize(sentence) {
        Ok(canonical) => canonical,
        Err(_) => return false, // register() will report the parse error
    };
    let key = PlanRegistry::hash_sentence(&canonical);
    let id = PlanRegistry::format_id(key);
    let payload = match snap.load(&id, key) {
        Some(payload) => payload,
        None => return false,
    };
    let plan = match Plan::snap_decode(&payload) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("wfomc-serve: snapshot {id} failed to decode ({e}); replanning");
            snap.note_invalid();
            return false;
        }
    };
    if plan.sentence().to_string() != canonical || plan.default_weights() != weights {
        // A valid snapshot for a different registration (e.g. the logged
        // weights changed since it was written): replan and overwrite.
        snap.note_invalid();
        return false;
    }
    registry.register_preplanned(canonical, weights.clone(), plan);
    true
}

/// Encodes and writes a plan's snapshot — always outside any shard lock —
/// marking the entry clean at the stamp captured *before* encoding (so
/// state that races in mid-encode leaves the plan dirty for the shutdown
/// sweep rather than silently unsnapshotted).
fn write_snapshot(snap: &SnapshotStore, registered: &RegisteredPlan) {
    let stamp = registered.plan.snap_stamp();
    let payload = registered.plan.snap_encode();
    match snap.write(&registered.id, registered.key, &payload) {
        Ok(_) => registered.mark_snapshotted(stamp),
        Err(e) => eprintln!(
            "wfomc-serve: snapshot write failed for {}: {e}",
            registered.id
        ),
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn handle_connection(ctx: &ServerCtx, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let started = Instant::now();
    let (status, body) = match read_request(&mut stream) {
        Ok(request) => match dispatch(ctx, &request) {
            Ok(ok) => ok,
            Err(e) => (e.status, e.to_body()),
        },
        Err(e) => (e.status, e.to_body()),
    };
    ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
    if status >= 400 {
        ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    let elapsed = started.elapsed().as_nanos() as u64;
    ctx.stats.latency_ns.fetch_add(elapsed, Ordering::Relaxed);
    if let Err(e) = write_response(&mut stream, status, &body) {
        eprintln!("wfomc-serve: write failed: {e}");
    }
}

fn read_request(stream: &mut TcpStream) -> Result<Request, ApiError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ApiError::bad_request("request headers too large"));
        }
        let read = stream
            .read(&mut chunk)
            .map_err(|e| ApiError::bad_request(format!("read failed: {e}")))?;
        if read == 0 {
            return Err(ApiError::bad_request("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..read]);
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ApiError::bad_request("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ApiError::bad_request("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ApiError::bad_request("request line has no path"))?
        .to_string();

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ApiError::bad_request("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ApiError::payload_too_large(MAX_BODY_BYTES));
    }

    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let read = stream
            .read(&mut chunk)
            .map_err(|e| ApiError::bad_request(format!("read failed: {e}")))?;
        if read == 0 {
            return Err(ApiError::bad_request("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..read]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        status_text(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Routing and handlers
// ---------------------------------------------------------------------------

fn dispatch(ctx: &ServerCtx, request: &Request) -> Result<(u16, String), ApiError> {
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    let method = request.method.as_str();

    // While draining, only the (idempotent) shutdown endpoint answers.
    if ctx.shutdown.load(Ordering::SeqCst) && segments != ["v1", "shutdown"] {
        return Err(ApiError::shutting_down());
    }

    match segments.as_slice() {
        ["v1", "plans"] => match method {
            "POST" => handle_register(ctx, &request.body),
            "GET" => handle_list(ctx),
            _ => Err(ApiError::method_not_allowed(method, &request.path)),
        },
        ["v1", "plans", id, "count"] if method == "POST" => handle_count(ctx, id, &request.body),
        ["v1", "plans", id, "batch"] if method == "POST" => handle_batch(ctx, id, &request.body),
        ["v1", "plans", id, "stats"] if method == "GET" => handle_stats(ctx, id),
        ["v1", "plans", _, "count" | "batch" | "stats"] => {
            Err(ApiError::method_not_allowed(method, &request.path))
        }
        ["v1", "metrics"] if method == "GET" => Ok((200, metrics_body(ctx))),
        ["v1", "healthz"] if method == "GET" => {
            let mut obj = JsonObject::new();
            obj.field_str("schema", SCHEMA);
            obj.field_str("status", "ok");
            obj.field_u64("plans", ctx.registry.len() as u64);
            Ok((200, obj.finish()))
        }
        ["v1", "shutdown"] if method == "POST" => {
            ctx.begin_shutdown();
            let mut obj = JsonObject::new();
            obj.field_str("schema", SCHEMA);
            obj.field_str("status", "shutting down");
            Ok((200, obj.finish()))
        }
        ["v1", "metrics" | "healthz" | "shutdown"] => {
            Err(ApiError::method_not_allowed(method, &request.path))
        }
        _ => Err(ApiError::not_found(&request.path)),
    }
}

fn parse_body(body: &[u8]) -> Result<Value, ApiError> {
    if body.is_empty() {
        // Treat a missing body as `{}` so GET-like POSTs stay ergonomic.
        return Ok(Value::Obj(Vec::new()));
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    parse(text).map_err(|e| ApiError::bad_request(format!("request body: {e}")))
}

/// Per-request weights: the request's `weights` member, else the plan's
/// registered defaults.
fn request_weights(body: &Value, default: &Weights) -> Result<Weights, ApiError> {
    match body.get("weights") {
        Some(w) => weights_from_json(w),
        None => Ok(default.clone()),
    }
}

fn handle_register(ctx: &ServerCtx, body: &[u8]) -> Result<(u16, String), ApiError> {
    let body = parse_body(body)?;
    let sentence = body
        .get("sentence")
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::bad_request("`sentence` (string) is required"))?;
    let weights = match body.get("weights") {
        Some(w) => weights_from_json(w)?,
        None => Weights::ones(),
    };
    let (registered, created) = ctx.registry.register(sentence, weights)?;
    if created {
        if let Some(log) = &ctx.log {
            let mut log = log.lock().expect("registry log poisoned");
            if let Err(e) = log.append(&registered.sentence, &registered.weights) {
                eprintln!(
                    "wfomc-serve: failed to append to {}: {e}",
                    log.path().display()
                );
            }
        }
        // Snapshot the freshly-planned state; no shard lock is held here.
        if let Some(snap) = &ctx.snap {
            write_snapshot(snap, &registered);
        }
    }
    let report = registered.plan.explain();
    let mut plan_obj = JsonObject::new();
    plan_obj.field_str("method", &report.method.to_string());
    let mut details = JsonArray::new();
    for d in &report.details {
        details.push_str(d);
    }
    plan_obj.field_raw("details", &details.finish());

    let mut obj = JsonObject::new();
    obj.field_str("schema", SCHEMA);
    obj.field_str("id", &registered.id);
    obj.field_bool("created", created);
    obj.field_str("sentence", &registered.sentence);
    obj.field_raw("plan", &plan_obj.finish());
    Ok((if created { 201 } else { 200 }, obj.finish()))
}

fn handle_list(ctx: &ServerCtx) -> Result<(u16, String), ApiError> {
    let stats = ctx.registry.stats();
    let mut plans = JsonArray::new();
    for (id, sentence) in ctx.registry.entries() {
        let mut entry = JsonObject::new();
        entry.field_str("id", &id);
        entry.field_str("sentence", &sentence);
        plans.push_raw(&entry.finish());
    }
    let mut registry = JsonObject::new();
    registry.field_u64("capacity", stats.capacity as u64);
    registry.field_u64("evictions", stats.evictions);
    registry.field_u64("hits", stats.hits);
    registry.field_u64("len", stats.len as u64);
    registry.field_u64("misses", stats.misses);

    let mut obj = JsonObject::new();
    obj.field_str("schema", SCHEMA);
    obj.field_raw("plans", &plans.finish());
    obj.field_raw("registry", &registry.finish());
    Ok((200, obj.finish()))
}

fn handle_count(ctx: &ServerCtx, id: &str, body: &[u8]) -> Result<(u16, String), ApiError> {
    let registered = ctx
        .registry
        .get(id)
        .ok_or_else(|| ApiError::unknown_plan(id))?;
    let body = parse_body(body)?;
    let n = n_from_json(&body)?;
    let weights = request_weights(&body, &registered.weights)?;
    let limits = limits_from_json(&body)?;
    // The server's cancel token always rides along so a graceful shutdown
    // can drain in-flight evaluations instead of abandoning them.
    let report = registered
        .plan
        .count_with_limits(n, &weights, &limits, Some(ctx.cancel.clone()))
        .map_err(|e| ApiError::from_solve(&e))?;
    let mut obj = JsonObject::new();
    obj.field_str("schema", SCHEMA);
    obj.field_str("id", &registered.id);
    obj.field_u64("n", n as u64);
    obj.field_str("value", &report.value.to_string());
    obj.field_raw("report", &report.to_json());
    Ok((200, obj.finish()))
}

fn handle_batch(ctx: &ServerCtx, id: &str, body: &[u8]) -> Result<(u16, String), ApiError> {
    let registered = ctx
        .registry
        .get(id)
        .ok_or_else(|| ApiError::unknown_plan(id))?;
    let body = parse_body(body)?;
    let points_json = body
        .get("points")
        .and_then(Value::as_arr)
        .ok_or_else(|| ApiError::bad_request("`points` (array of {n, weights?}) is required"))?;
    if points_json.is_empty() {
        return Err(ApiError::bad_request("`points` must not be empty"));
    }
    let mut points: Vec<(usize, Weights)> = Vec::with_capacity(points_json.len());
    for (i, point) in points_json.iter().enumerate() {
        let n = n_from_json(point)
            .map_err(|e| ApiError::bad_request(format!("points[{i}]: {}", e.message)))?;
        let weights = request_weights(point, &registered.weights)
            .map_err(|e| ApiError::bad_request(format!("points[{i}]: {}", e.message)))?;
        points.push((n, weights));
    }
    // One shared limits pool for the whole batch: a deadline or work cap in
    // the body bounds the batch as a unit, exactly like the library API.
    let limits = limits_from_json(&body)?;
    let mut arr = JsonArray::new();
    match body.get("algebra").and_then(Value::as_str) {
        None | Some("exact") => {
            let results =
                registered
                    .plan
                    .count_batch_with_limits(&points, &limits, Some(ctx.cancel.clone()));
            for ((n, _), result) in points.iter().zip(&results) {
                let mut entry = JsonObject::new();
                entry.field_u64("n", *n as u64);
                match result {
                    Ok(report) => {
                        entry.field_str("value", &report.value.to_string());
                        entry.field_raw("report", &report.to_json());
                    }
                    Err(e) => {
                        entry.field_raw("error", &ApiError::from_solve(e).to_error_object());
                    }
                }
                arr.push_raw(&entry.finish());
            }
        }
        // Opt-in lane mode: same-`n` weight sweeps run one DFS per eight
        // points through the `LogF64xN` algebra, returning sign/ln pairs
        // instead of exact rationals.
        Some("log") => {
            let results = registered.plan.count_batch_log_with_limits(
                &points,
                &limits,
                Some(ctx.cancel.clone()),
            );
            for ((n, _), result) in points.iter().zip(&results) {
                let mut entry = JsonObject::new();
                entry.field_u64("n", *n as u64);
                match result {
                    Ok(value) => {
                        entry.field_raw("sign", &i64::from(value.signum()).to_string());
                        if value.signum() == 0 {
                            // ln(|0|) is -inf, which JSON cannot carry.
                            entry.field_null("ln");
                        } else {
                            entry.field_raw("ln", &format!("{:?}", value.ln_abs()));
                        }
                    }
                    Err(e) => {
                        entry.field_raw("error", &ApiError::from_solve(e).to_error_object());
                    }
                }
                arr.push_raw(&entry.finish());
            }
        }
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "`algebra` must be \"exact\" or \"log\", got \"{other}\""
            )));
        }
    }
    let mut obj = JsonObject::new();
    obj.field_str("schema", SCHEMA);
    obj.field_str("id", &registered.id);
    obj.field_raw("results", &arr.finish());
    Ok((200, obj.finish()))
}

fn handle_stats(ctx: &ServerCtx, id: &str) -> Result<(u16, String), ApiError> {
    let registered = ctx
        .registry
        .get(id)
        .ok_or_else(|| ApiError::unknown_plan(id))?;
    let mut obj = JsonObject::new();
    obj.field_str("schema", SCHEMA);
    obj.field_str("id", &registered.id);
    obj.field_str("sentence", &registered.sentence);
    obj.field_str("method", &registered.plan.method().to_string());
    obj.field_bool("snapshotted", registered.snapshotted());
    obj.field_raw("cache", &registered.plan.cache_stats().to_json());
    obj.field_raw("metrics", &registered.plan.metrics().to_json());
    Ok((200, obj.finish()))
}

fn metrics_body(ctx: &ServerCtx) -> String {
    // The obs snapshot is schema-first (`wfomc-obs/v1`) and records only
    // while `wfomc_obs::set_enabled(true)`; overlay this server's own
    // always-on request, registry and snapshot tallies.
    let mut snap = wfomc_obs::snapshot();
    snap.set_counter("serve.requests", ctx.stats.requests());
    snap.set_counter("serve.errors", ctx.stats.errors());
    snap.set_counter("serve.latency_ns", ctx.stats.latency_ns());
    let registry = ctx.registry.stats();
    snap.set_gauge("serve.registry.len", registry.len as u64);
    snap.set_counter("serve.registry.evictions", registry.evictions);
    let stats = ctx
        .snap
        .as_ref()
        .map(SnapshotStore::stats)
        .unwrap_or_default();
    snap.set_counter("snap.hits", stats.hits);
    snap.set_counter("snap.misses", stats.misses);
    snap.set_counter("snap.invalid", stats.invalid);
    snap.set_counter("snap.writes", stats.writes);
    snap.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn status_texts_cover_wire_codes() {
        for status in [200, 201, 400, 404, 405, 413, 422, 503] {
            assert_ne!(status_text(status), "Internal Server Error");
        }
        assert_eq!(status_text(500), "Internal Server Error");
    }
}
