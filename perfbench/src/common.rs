//! Shared pieces of every workload: the seeded generator, sample
//! statistics, the metric list a run reports, and the report stamp.

use std::path::Path;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so the same `--seed` always yields
/// the same inputs without depending on an external crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A short tag derived from the seed, used to give seeded predicate
    /// names (and therefore plan ids) to generated sentences.
    pub fn tag(&mut self) -> String {
        format!("{:03x}", self.next_u64() & 0xfff)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn since_ms(start: Instant) -> f64 {
    ms(start.elapsed())
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The fastest sample.
///
/// Boot figures use it. The host lends its cores to other tenants and its
/// speed swings by up to 2× for seconds at a time; a median follows
/// whichever speed held for most of the run, while the fastest of many
/// boots spread over the run needs only one quiet moment. A boot has no
/// shortcut that could make one sample fast by luck: every cold boot
/// replans, every warm boot decodes.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Set-up is repeated for at least this long (and at least `SETUPS_MIN`
/// times), and `setup_s` is the median: one set-up takes tens of
/// milliseconds, shorter than the host's slow spells.
pub const SETUP_SECONDS: f64 = 2.0;
pub const SETUPS_MIN: usize = 5;

/// Runs `setup` repeatedly as [`SETUP_SECONDS`] asks, handing every result
/// but the last to `discard` (untimed), and returns the last result with
/// the time each repetition took.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let ready = setup(secs.len());
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= SETUPS_MIN && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return (ready, secs);
        }
        discard(ready);
    }
}

/// The highest of p99/p90/p50 that leaves at least ten samples beyond it;
/// the maximum when the run has too few samples for any of them.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    for (label, q) in [("p99", 0.99), ("p90", 0.90), ("p50", 0.50)] {
        let beyond = ((1.0 - q) * sorted.len() as f64).floor() as usize;
        if beyond >= 10 {
            return (label, quantile(sorted, q));
        }
    }
    ("max", sorted.last().copied().unwrap_or(0.0))
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the number summarizes (sample count, percentile), for the
    /// human-readable lines.
    pub note: String,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Of `failed`, the ones whose answer was checked and found wrong.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    /// Why each wrong or failed operation counted, for stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    /// Counts one operation whose answer was wrong.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.wrong += 1;
        self.fail(why);
    }

    /// The end-to-end latency metrics of one sample set, in milliseconds.
    pub fn latencies(&mut self, latencies_ms: &[f64]) {
        let mut sorted = latencies_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        self.metric(
            "latency_p50_ms",
            quantile(&sorted, 0.5),
            "ms",
            format!("p50 of {n}"),
        );
        let (label, value) = tail(&sorted);
        self.metric("latency_tail_ms", value, "ms", format!("{label} of {n}"));
    }

    /// `ops` operations and `points` query points over `wall` of closed
    /// loop.
    pub fn rates(&mut self, ops: usize, points: usize, wall: Duration) {
        let secs = wall.as_secs_f64();
        self.metric(
            "throughput_ops_s",
            ops as f64 / secs,
            "1/s",
            format!("{ops} ops in {secs:.3} s"),
        );
        self.metric(
            "points_per_s",
            points as f64 / secs,
            "1/s",
            format!("{points} points in {secs:.3} s"),
        );
    }

    pub fn peak_rss(&mut self) {
        self.metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM");
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Minimal JSON string escaping for the report and span files.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: the shortest representation that reads back exactly.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The first `"value":"…"` of a count reply. Read textually: the embedded
/// report can carry saturated u64 counters that the client parser rejects.
pub fn reply_value(body: &str) -> Option<String> {
    body.split("\"value\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .map(str::to_string)
}

/// Seed, source revision and host fingerprint, so figures from different
/// hosts or trees are never compared.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"rev\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{}}}",
        json_str(workload),
        json_str(&source_rev()),
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
    )
}

/// The git revision of the tree, or, in a checkout without git metadata, a
/// hash of the sources the benchmark builds (`src:<fnv64>`).
fn source_rev() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    let cwd = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    if let Ok(out) = git {
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let mut lines = text.lines();
        let top = lines.next().and_then(|t| std::fs::canonicalize(t).ok());
        // Only this tree's own repository counts, not one that encloses it.
        if out.status.success() && top.is_some() && top == cwd {
            let rev = lines.next().unwrap_or("unknown").trim().to_string();
            let dirty = std::process::Command::new("git")
                .args(["status", "--porcelain", "--untracked-files=no"])
                .output()
                .map(|o| !o.stdout.is_empty())
                .unwrap_or(false);
            return if dirty { format!("{rev}+dirty") } else { rev };
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        for b in file
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&file).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src:{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// A working directory inside the source tree for one run's service state,
/// removed when dropped.
pub struct WorkDir(pub std::path::PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> WorkDir {
        let dir = Path::new(".bench_work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
