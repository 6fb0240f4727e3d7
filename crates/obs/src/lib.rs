//! # wfomc-obs — zero-cost tracing and metrics for the WFOMC engine
//!
//! A deliberately small observability core (no `tracing`/`metrics`
//! dependencies, consistent with the workspace's vendored-deps-only policy)
//! with three pieces:
//!
//! * **Spans** — [`span`] returns a guard that records wall time under a
//!   static name on drop. Collection is thread-local (no locks on the hot
//!   path); per-thread tallies aggregate into a global table when each
//!   thread finishes (or when a snapshot is taken on the current thread).
//! * **Counters and gauges** — statics registered once by the
//!   [`define_metrics!`] macro, incremented with single lock-free relaxed
//!   [`core::sync::atomic::AtomicU64`] operations. The engine's load-bearing
//!   internals (cell-sum DFS, cache layers, circuit compiler, bignum
//!   representation) report through the registry in [`metrics`].
//! * **Snapshots** — [`snapshot`] freezes every counter, gauge and span into
//!   a [`MetricsSnapshot`], serialized by hand (no serde) as JSON with the
//!   stable `wfomc-obs/v1` schema.
//!
//! ## The zero-cost contract
//!
//! Everything here is compiled out unless the `enabled` cargo feature is on
//! (consumer crates forward it as their own `obs` feature): without it,
//! counters are zero-sized, [`span`] returns a zero-sized guard and every
//! method is an empty `#[inline]` function, so instrumented hot paths run at
//! exactly their uninstrumented speed (see `BENCH_obs.json` for the measured
//! A/B). With the feature compiled in, recording is additionally gated at
//! runtime behind one relaxed atomic load ([`set_enabled`]), so a binary
//! built with observability still pays only that load until it is switched
//! on.
//!
//! ## Worked example
//!
//! ```
//! use wfomc_obs as obs;
//!
//! obs::set_enabled(true);
//! obs::metrics::PLAN_COUNTS.inc();
//! {
//!     let _guard = obs::span("doc.example");
//!     // ... the work the span measures ...
//! }
//! let snap = obs::snapshot();
//! if cfg!(feature = "enabled") {
//!     assert!(snap.counters["plan.counts"] >= 1);
//!     assert_eq!(snap.spans["doc.example"].count, 1);
//! }
//! let json = snap.to_json();
//! assert!(json.starts_with("{\"schema\":\"wfomc-obs/v1\""));
//! obs::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::collections::BTreeMap;

pub use json::json_escape;

#[cfg(feature = "enabled")]
mod live {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    use crate::SpanStat;

    /// The one runtime switch: a single relaxed load gates every record.
    static ENABLED: AtomicBool = AtomicBool::new(false);

    /// Turns runtime recording on or off (compiled builds start disabled).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled (one relaxed atomic load).
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// A monotonically increasing metric backed by one [`AtomicU64`].
    #[derive(Debug)]
    pub struct Counter {
        name: &'static str,
        value: AtomicU64,
    }

    impl Counter {
        /// A counter registered under `name` (used by [`define_metrics!`]).
        pub const fn new(name: &'static str) -> Counter {
            Counter {
                name,
                value: AtomicU64::new(0),
            }
        }

        /// The registered name.
        pub fn name(&self) -> &'static str {
            self.name
        }

        /// Adds `n` (lock-free; dropped while recording is disabled).
        #[inline]
        pub fn add(&self, n: u64) {
            if is_enabled() {
                self.value.fetch_add(n, Ordering::Relaxed);
            }
        }

        /// Adds 1.
        #[inline]
        pub fn inc(&self) {
            self.add(1);
        }

        /// The current value.
        pub fn get(&self) -> u64 {
            self.value.load(Ordering::Relaxed)
        }

        /// Zeroes the counter (used by [`crate::reset`]).
        pub fn reset(&self) {
            self.value.store(0, Ordering::Relaxed);
        }
    }

    /// A last-written-value metric backed by one [`AtomicU64`].
    #[derive(Debug)]
    pub struct Gauge {
        name: &'static str,
        value: AtomicU64,
    }

    impl Gauge {
        /// A gauge registered under `name` (used by [`define_metrics!`]).
        pub const fn new(name: &'static str) -> Gauge {
            Gauge {
                name,
                value: AtomicU64::new(0),
            }
        }

        /// The registered name.
        pub fn name(&self) -> &'static str {
            self.name
        }

        /// Records the current level (dropped while recording is disabled).
        #[inline]
        pub fn set(&self, v: u64) {
            if is_enabled() {
                self.value.store(v, Ordering::Relaxed);
            }
        }

        /// The last recorded level.
        pub fn get(&self) -> u64 {
            self.value.load(Ordering::Relaxed)
        }

        /// Zeroes the gauge (used by [`crate::reset`]).
        pub fn reset(&self) {
            self.value.store(0, Ordering::Relaxed);
        }
    }

    /// Global span table: name → aggregated stat. `BTreeMap::new` is const,
    /// so no lazy-init cell is needed.
    static GLOBAL_SPANS: Mutex<BTreeMap<&'static str, SpanStat>> = Mutex::new(BTreeMap::new());

    /// Per-thread span tallies; merged into [`GLOBAL_SPANS`] when the thread
    /// exits (the [`LocalSpans`] drop) or when the thread snapshots.
    struct LocalSpans {
        map: BTreeMap<&'static str, SpanStat>,
    }

    impl LocalSpans {
        fn flush(&mut self) {
            if self.map.is_empty() {
                return;
            }
            let mut global = GLOBAL_SPANS.lock().expect("span table poisoned");
            for (name, stat) in std::mem::take(&mut self.map) {
                global.entry(name).or_default().absorb(&stat);
            }
        }
    }

    impl Drop for LocalSpans {
        fn drop(&mut self) {
            self.flush();
        }
    }

    thread_local! {
        static LOCAL_SPANS: RefCell<LocalSpans> = const {
            RefCell::new(LocalSpans { map: BTreeMap::new() })
        };
    }

    /// An in-flight span; records its elapsed time on drop.
    #[must_use = "a span guard measures until it is dropped"]
    #[derive(Debug)]
    pub struct Span {
        live: Option<(&'static str, Instant)>,
    }

    /// Opens a span under a static name. When recording is disabled this is
    /// one relaxed load and no clock read.
    #[inline]
    pub fn span(name: &'static str) -> Span {
        Span {
            live: is_enabled().then(|| (name, Instant::now())),
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if let Some((name, start)) = self.live.take() {
                let elapsed = start.elapsed().as_nanos();
                // A thread-local tally: no locks on the recording path. If
                // the thread-local is already torn down (thread exit), the
                // observation is dropped rather than panicking.
                let _ = LOCAL_SPANS.try_with(|local| {
                    let mut local = local.borrow_mut();
                    let stat = local.map.entry(name).or_default();
                    stat.count += 1;
                    stat.total_ns += elapsed;
                });
            }
        }
    }

    /// Merges the *current thread's* tallies into the global table. Worker
    /// threads should call this before finishing: the thread-local drop also
    /// flushes on thread exit, but TLS destruction can race a joiner's
    /// snapshot, so the exit-time flush is best-effort only.
    pub fn flush_thread() {
        let _ = LOCAL_SPANS.try_with(|local| local.borrow_mut().flush());
    }

    /// The aggregated span table (flushes the current thread first).
    pub fn spans() -> BTreeMap<&'static str, SpanStat> {
        flush_thread();
        GLOBAL_SPANS.lock().expect("span table poisoned").clone()
    }

    /// Clears all span aggregates, including the current thread's tallies.
    pub fn clear_spans() {
        let _ = LOCAL_SPANS.try_with(|local| local.borrow_mut().map.clear());
        GLOBAL_SPANS.lock().expect("span table poisoned").clear();
    }

    impl SpanStat {
        fn absorb(&mut self, other: &SpanStat) {
            self.count += other.count;
            self.total_ns += other.total_ns;
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod live {
    use std::collections::BTreeMap;

    use crate::SpanStat;

    /// Turns runtime recording on or off — a no-op without the `enabled`
    /// feature.
    #[inline]
    pub fn set_enabled(_on: bool) {}

    /// Whether recording is enabled — always `false` without the `enabled`
    /// feature.
    #[inline]
    pub fn is_enabled() -> bool {
        false
    }

    /// A monotonically increasing metric — zero-sized no-op in this build.
    #[derive(Debug)]
    pub struct Counter;

    impl Counter {
        /// A counter registered under a name — no-op in this build.
        pub const fn new(_name: &'static str) -> Counter {
            Counter
        }

        /// The registered name (empty in a no-op build).
        pub fn name(&self) -> &'static str {
            ""
        }

        /// Adds `n` — compiled to nothing.
        #[inline]
        pub fn add(&self, _n: u64) {}

        /// Adds 1 — compiled to nothing.
        #[inline]
        pub fn inc(&self) {}

        /// The current value — always 0 in this build.
        pub fn get(&self) -> u64 {
            0
        }

        /// Zeroes the counter — compiled to nothing.
        pub fn reset(&self) {}
    }

    /// A last-written-value metric — zero-sized no-op in this build.
    #[derive(Debug)]
    pub struct Gauge;

    impl Gauge {
        /// A gauge registered under a name — no-op in this build.
        pub const fn new(_name: &'static str) -> Gauge {
            Gauge
        }

        /// The registered name (empty in a no-op build).
        pub fn name(&self) -> &'static str {
            ""
        }

        /// Records the current level — compiled to nothing.
        #[inline]
        pub fn set(&self, _v: u64) {}

        /// The last recorded level — always 0 in this build.
        pub fn get(&self) -> u64 {
            0
        }

        /// Zeroes the gauge — compiled to nothing.
        pub fn reset(&self) {}
    }

    /// A zero-sized span guard — the drop does nothing.
    #[must_use = "a span guard measures until it is dropped"]
    #[derive(Debug)]
    pub struct Span;

    /// Opens a span — compiled to a zero-sized value in this build.
    #[inline]
    pub fn span(_name: &'static str) -> Span {
        Span
    }

    /// Merges the current thread's tallies — no-op in this build.
    pub fn flush_thread() {}

    /// The aggregated span table — always empty in this build.
    pub fn spans() -> BTreeMap<&'static str, SpanStat> {
        BTreeMap::new()
    }

    /// Clears all span aggregates — no-op in this build.
    pub fn clear_spans() {}
}

pub use live::{flush_thread, is_enabled, set_enabled, span, Counter, Gauge, Span};

/// Declares the static counter/gauge registry: one `pub static` per metric
/// plus `counters()` / `gauges()` accessors enumerating them for snapshots.
/// Used once in [`metrics`] for the engine's core metric set; downstream
/// crates can use it again for their own registries.
#[macro_export]
macro_rules! define_metrics {
    (
        counters { $($cvis:vis $cident:ident => $cname:literal;)* }
        gauges { $($gvis:vis $gident:ident => $gname:literal;)* }
    ) => {
        $(
            #[doc = concat!("Counter `", $cname, "`.")]
            $cvis static $cident: $crate::Counter = $crate::Counter::new($cname);
        )*
        $(
            #[doc = concat!("Gauge `", $gname, "`.")]
            $gvis static $gident: $crate::Gauge = $crate::Gauge::new($gname);
        )*

        /// Every counter in this registry, in declaration order, paired with
        /// its registered name.
        pub fn counters() -> &'static [(&'static str, &'static $crate::Counter)] {
            static COUNTERS: &[(&str, &$crate::Counter)] = &[$(($cname, &$cident)),*];
            COUNTERS
        }

        /// Every gauge in this registry, in declaration order, paired with
        /// its registered name.
        pub fn gauges() -> &'static [(&'static str, &'static $crate::Gauge)] {
            static GAUGES: &[(&str, &$crate::Gauge)] = &[$(($gname, &$gident)),*];
            GAUGES
        }
    };
}

/// The engine's core metric registry: the load-bearing internals every
/// serving/parallelism layer will want to watch. Names are stable (they are
/// the JSON keys of the `wfomc-obs/v1` schema).
pub mod metrics {
    define_metrics! {
        counters {
            // FO² cell-sum engine.
            pub CELLSUM_SUMMED => "fo2.cellsum.compositions_summed";
            pub CELLSUM_PRUNED => "fo2.cellsum.compositions_pruned";
            pub BALANCED_SUM_MERGES => "fo2.cellsum.balanced_sum_merges";
            pub CELLSUM_CELLS_MERGED => "fo2.cellsum.cells_merged";
            // Work-stealing fan-outs and lane-batched evaluation.
            pub CELLSUM_STEALS => "cellsum.steals";
            pub CELLSUM_LANE_BATCHES => "cellsum.lane_batches";
            pub BATCH_LANE_POINTS => "batch.lane_points";
            // FO² weight-binding LRU.
            pub FO2_BIND_HITS => "fo2.bind.hits";
            pub FO2_BIND_MISSES => "fo2.bind.misses";
            // Plan-level evaluation and the ground-plan LRU.
            pub PLAN_COUNTS => "plan.counts";
            pub GROUND_CACHE_HITS => "plan.ground_cache.hits";
            pub GROUND_CACHE_MISSES => "plan.ground_cache.misses";
            // γ-acyclic CQ reduction memo.
            pub CQ_MEMO_HITS => "cq.memo.hits";
            pub CQ_MEMO_MISSES => "cq.memo.misses";
            // d-DNNF knowledge compilation.
            pub CIRCUIT_COMPILES => "circuit.compiles";
            pub CIRCUIT_NODES => "circuit.compile.nodes";
            pub CIRCUIT_EDGES => "circuit.compile.edges";
            pub CIRCUIT_CACHE_HITS => "circuit.compile.cache_hits";
            // Propositional DPLL.
            pub DPLL_DECISIONS => "prop.dpll.decisions";
            // Power caches falling back to memoized square-and-multiply.
            pub POWERS_SPARSE => "logic.powers.sparse_pows";
            // The bignum inline representation spilling to heap limbs.
            pub BIGNUM_HEAP_SPILLS => "bignum.heap_spills";
            // Grounding.
            pub LINEAGE_BUILT => "ground.lineage.built";
            pub LINEAGE_VARS => "ground.lineage.vars";
            pub LINEAGE_PROP_NODES => "ground.lineage.prop_nodes";
            // Resource governance (wfomc-guard).
            pub GUARD_CANCELLED => "guard.cancelled";
            pub GUARD_DEADLINE_HITS => "guard.deadline_hits";
            pub GUARD_WORK_CAP_HITS => "guard.work_cap_hits";
            pub GUARD_DEGRADED_SOLVES => "guard.degraded_solves";
            // The wfomc-serve HTTP front end.
            pub SERVE_REQUESTS => "serve.requests";
            pub SERVE_ERRORS => "serve.errors";
            pub SERVE_LATENCY_NS => "serve.latency_ns";
            pub SERVE_PLANS_REGISTERED => "serve.plans_registered";
            pub SERVE_REGISTRY_EVICTIONS => "serve.registry.evictions";
            // Plan-state snapshots (wfomc-snap/v1).
            pub SNAP_HITS => "snap.hits";
            pub SNAP_MISSES => "snap.misses";
            pub SNAP_INVALID => "snap.invalid";
            pub SNAP_WRITES => "snap.writes";
        }
        gauges {
            pub FO2_BIND_CACHED => "fo2.bind.cached";
            pub GROUND_CACHE_LEN => "plan.ground_cache.len";
            pub SERVE_REGISTRY_LEN => "serve.registry.len";
        }
    }
}

/// Aggregated timings of one span name: how many times it closed and the
/// total wall time spent inside it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans under this name.
    pub count: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub total_ns: u128,
}

impl SpanStat {
    /// Total wall time in milliseconds (for human-facing output).
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// A frozen view of every registered counter, gauge and aggregated span,
/// plus free-form string labels (method names, workload ids). Serialized by
/// [`MetricsSnapshot::to_json`] under the stable `wfomc-obs/v1` schema:
///
/// ```json
/// {"schema": "wfomc-obs/v1",
///  "labels": {"experiment": "plan-reuse"},
///  "counters": {"fo2.bind.hits": 15},
///  "gauges": {"fo2.bind.cached": 1},
///  "spans": {"fo2.bind": {"count": 1, "total_ms": 0.42}}}
/// ```
///
/// All four sections are sorted by key; counters and gauges always contain
/// every registered metric (zeros included), so two snapshots of identical
/// work compare equal field-for-field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Free-form string annotations (e.g. `experiment`, `method`).
    pub labels: BTreeMap<String, String>,
    /// Counter values by registered name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by registered name.
    pub gauges: BTreeMap<String, u64>,
    /// Aggregated spans by name.
    pub spans: BTreeMap<String, SpanStat>,
}

impl MetricsSnapshot {
    /// A snapshot with only labels (used by builds without the `enabled`
    /// feature, and as the base the caller extends with plan-level stats).
    pub fn with_label(key: &str, value: &str) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.labels.insert(key.to_string(), value.to_string());
        snap
    }

    /// Sets a label, chainably.
    pub fn label(mut self, key: &str, value: &str) -> MetricsSnapshot {
        self.labels.insert(key.to_string(), value.to_string());
        self
    }

    /// Sets (or overwrites) one counter entry — how plan- or report-level
    /// stats that live outside the global registry join a snapshot.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets (or overwrites) one gauge entry.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Hand-rolled JSON under the `wfomc-obs/v1` schema (see the type-level
    /// docs). Deterministic: all sections sorted by key.
    pub fn to_json(&self) -> String {
        let mut root = json::JsonObject::new();
        root.field_str("schema", "wfomc-obs/v1");

        let mut labels = json::JsonObject::new();
        for (k, v) in &self.labels {
            labels.field_str(k, v);
        }
        root.field_raw("labels", &labels.finish());

        let mut counters = json::JsonObject::new();
        for (k, v) in &self.counters {
            counters.field_u64(k, *v);
        }
        root.field_raw("counters", &counters.finish());

        let mut gauges = json::JsonObject::new();
        for (k, v) in &self.gauges {
            gauges.field_u64(k, *v);
        }
        root.field_raw("gauges", &gauges.finish());

        let mut spans = json::JsonObject::new();
        for (k, s) in &self.spans {
            let mut span = json::JsonObject::new();
            span.field_u64("count", s.count);
            span.field_f64("total_ms", s.total_ms(), 3);
            spans.field_raw(k, &span.finish());
        }
        root.field_raw("spans", &spans.finish());

        root.finish()
    }
}

/// Freezes the current state of the [`metrics`] registry and the aggregated
/// span table (flushing the calling thread's span tallies first). Without
/// the `enabled` feature this returns an empty snapshot.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (name, counter) in metrics::counters() {
        snap.counters.insert((*name).to_string(), counter.get());
    }
    for (name, gauge) in metrics::gauges() {
        snap.gauges.insert((*name).to_string(), gauge.get());
    }
    for (name, stat) in live::spans() {
        snap.spans.insert(name.to_string(), stat);
    }
    snap
}

/// Zeroes every registered counter and gauge and clears all span aggregates
/// (global table and the calling thread's tallies) — the clean-slate
/// primitive behind repeatable measurement runs and the determinism tests.
pub fn reset() {
    for (_, counter) in metrics::counters() {
        counter.reset();
    }
    for (_, gauge) in metrics::gauges() {
        gauge.reset();
    }
    live::clear_spans();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counter/span state is process-global; serialize the tests that touch
    /// it so `cargo test`'s parallel runner cannot interleave them.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn snapshot_json_has_the_stable_schema() {
        let _guard = serial();
        reset();
        let snap = snapshot().label("experiment", "unit-test");
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":\"wfomc-obs/v1\""));
        assert!(json.contains("\"labels\":{\"experiment\":\"unit-test\"}"));
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"gauges\":{"));
        assert!(json.ends_with("\"spans\":{}}"));
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let mut snap = MetricsSnapshot::with_label("k\"ey", "v\\al");
        snap.set_counter("c", 1);
        let json = snap.to_json();
        assert!(json.contains("\"k\\\"ey\":\"v\\\\al\""));
    }

    #[test]
    fn disabled_runtime_records_nothing() {
        let _guard = serial();
        reset();
        set_enabled(false);
        metrics::PLAN_COUNTS.add(7);
        metrics::FO2_BIND_CACHED.set(3);
        drop(span("dead.span"));
        let snap = snapshot();
        assert_eq!(snap.counter("plan.counts"), Some(0));
        assert_eq!(snap.gauges["fo2.bind.cached"], 0);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn snapshot_always_lists_every_registered_metric() {
        let _guard = serial();
        reset();
        let snap = snapshot();
        assert_eq!(snap.counters.len(), metrics::counters().len());
        assert_eq!(snap.gauges.len(), metrics::gauges().len());
        assert!(snap.counter("bignum.heap_spills").is_some());
        assert!(snap.counter("fo2.cellsum.compositions_summed").is_some());
        assert!(snap.counter("no.such.metric").is_none());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn counters_spans_and_reset_work_when_enabled() {
        let _guard = serial();
        reset();
        set_enabled(true);
        metrics::PLAN_COUNTS.add(2);
        metrics::PLAN_COUNTS.inc();
        metrics::GROUND_CACHE_LEN.set(5);
        {
            let _span = span("test.enabled");
        }
        {
            let _span = span("test.enabled");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("plan.counts"), Some(3));
        assert_eq!(snap.gauges["plan.ground_cache.len"], 5);
        assert_eq!(snap.spans["test.enabled"].count, 2);
        // Worker threads flush explicitly before exiting: the TLS-destructor
        // flush also runs, but only after the scope's join observes the
        // thread as done, so it is best-effort for snapshot timing.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                {
                    let _span = span("test.worker");
                }
                flush_thread();
            });
        });
        assert_eq!(snapshot().spans["test.worker"].count, 1);
        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("plan.counts"), Some(0));
        assert!(snap.spans.is_empty());
        set_enabled(false);
    }
}
