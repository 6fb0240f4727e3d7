//! In-memory span recording for the traced run.
//!
//! Each call into a layer's public function is wrapped in a span carrying
//! its name, start, end, parent span and request id. Spans stay in memory
//! while the workload runs and are written out as JSON lines at the end.
//! A layer's busy time is its self time: the span's duration minus the part
//! its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::common::json_str;

pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub failed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// The span recorder. Disabled, every method is a pass-through.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-layer totals derived from the spans.
#[derive(Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub busy_ns: u64,
    pub failed: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request id the calling thread's next spans carry.
    pub fn set_request(&self, id: u64) {
        REQUEST.with(|r| r.set(id));
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_checked(name, f, |_| true)
    }

    /// Runs a fallible `f` inside a span that is marked failed on `Err`.
    pub fn span_result<R, E>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Result<R, E> {
        self.span_checked(name, f, Result::is_ok)
    }

    /// Runs `f` inside a span that is marked failed when `ok` rejects the
    /// result.
    pub fn span_checked<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        ok: impl FnOnce(&R) -> bool,
    ) -> R {
        self.span_id(name, f, ok).0
    }

    /// [`span_checked`](Self::span_checked), also returning the span's id
    /// (`None` when disabled) so a derived child can be hung under it.
    pub fn span_id<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        ok: impl FnOnce(&R) -> bool,
    ) -> (R, Option<u64>) {
        if !self.enabled {
            return (f(), None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        let failed = !ok(&out);
        self.push(Span {
            id,
            parent,
            request: REQUEST.with(Cell::get),
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            failed,
        });
        (out, Some(id))
    }

    /// Records a span measured by the caller as a child of `parent`.
    pub fn record(&self, name: &'static str, start: Instant, dur: Duration, parent: Option<u64>) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.at(start);
        self.push(Span {
            id,
            parent,
            request: REQUEST.with(Cell::get),
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            failed: false,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Calls, self time and failures per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for span in spans.iter() {
            let layer = out.entry(span.name).or_default();
            layer.calls += 1;
            layer.busy_ns += span
                .dur_ns()
                .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
            layer.failed += u64::from(span.failed);
        }
        out
    }

    /// Total duration of the spans named `name` (not self time).
    pub fn total_ns(&self, name: &str) -> u64 {
        let spans = self.spans.lock().expect("span buffer poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes every span as one JSON line, after a header line with the
    /// report stamp.
    pub fn write_jsonl(&self, path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"stamp\":{stamp}}}")?;
        let spans = self.spans.lock().expect("span buffer poisoned");
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"failed\":{}}}",
                s.id,
                s.request,
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.failed
            )?;
        }
        out.flush()
    }
}
