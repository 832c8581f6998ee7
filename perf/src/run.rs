//! What the four workloads share: run options, the stop rule, latency
//! statistics, the end-to-end metric definitions and the share table.

use crate::spec::{Values, SETUP_REPEATS};
use crate::sys;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How one run was asked to behave.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Fixed op count instead of a time limit (exact-count comparisons).
    pub ops: Option<usize>,
    /// Traced run: spans, telemetry probes and isolated layer replays on;
    /// reports the per-layer metrics.
    pub trace: bool,
    /// Smoke run: a twentieth of the measured time, one set-up.
    pub smoke: bool,
}

/// Runs `f`; returns its value and its wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `setup_s`: the median of the run's set-ups. The first, which took
/// `first_s`, is the one the measured phase ran on. The others are made and
/// torn down here, once the measured phase is over and `peak_rss_mb` is
/// read: set up *before* it, they left 25 MB each behind in `serve_tcp`'s
/// heap, or not, and `peak_rss_mb` read 83, 103 or 133 MB by chance. Runs
/// that do not report `setup_s` to the driver (traced, `--ops`, smoke) make
/// no more set-ups than the one they need.
pub fn setup_s<T>(
    opts: &Opts,
    first_s: f64,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> f64 {
    let mut seconds = vec![first_s];
    if !(opts.trace || opts.smoke || opts.ops.is_some()) {
        for _ in 1..SETUP_REPEATS {
            let (state, s) = timed(&mut setup);
            seconds.push(s);
            teardown(state);
        }
    }
    median(&seconds)
}

/// When a measured leg ends: after a wall-clock span, or after a fixed
/// number of ops when one was asked for.
pub struct Stop {
    deadline: Instant,
    max_ops: Option<usize>,
}

impl Stop {
    /// A leg of `seconds`, or of exactly `ops` ops.
    pub fn new(seconds: f64, ops: Option<usize>) -> Stop {
        Stop {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            max_ops: ops,
        }
    }

    /// The fixed op count, when one was asked for.
    pub fn max_ops(&self) -> Option<usize> {
        self.max_ops
    }

    /// Whether the op budget is used up (checked after every op).
    pub fn ops_done(&self, done: usize) -> bool {
        self.max_ops.is_some_and(|m| done >= m)
    }

    /// Whether the time is used up (checked where the workload's op mix is
    /// whole, so every run measures the same mix). Never true for a
    /// fixed-count leg.
    pub fn time_done(&self) -> bool {
        self.max_ops.is_none() && Instant::now() >= self.deadline
    }
}

/// One measured leg.
#[derive(Clone, Debug, Default)]
pub struct Leg {
    /// Input→verdict latency of every op that has one, in ms.
    pub lat_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Wall seconds of the leg.
    pub wall_s: f64,
    /// Process CPU milliseconds over the leg.
    pub cpu_ms: f64,
}

impl Leg {
    /// Mean latency over the first `n` ops (the ops two legs have in
    /// common), in ms.
    pub fn mean_of_first(&self, n: usize) -> f64 {
        let n = n.min(self.lat_ms.len());
        if n == 0 {
            return 0.0;
        }
        self.lat_ms[..n].iter().sum::<f64>() / n as f64
    }
}

/// Times a leg's wall and CPU span around `body`.
pub fn timed_leg(body: impl FnOnce(&mut Leg)) -> Leg {
    let mut leg = Leg::default();
    let cpu0 = sys::cpu_ms();
    let t0 = Instant::now();
    body(&mut leg);
    leg.wall_s = t0.elapsed().as_secs_f64();
    leg.cpu_ms = sys::cpu_ms() - cpu0;
    leg
}

/// The `q`-quantile of `sorted` (ascending), linearly interpolated.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The end-to-end metrics of a leg, but for `setup_s` (see [`setup_s`]).
/// `ok` counts the ops that produced a definite, correct verdict within the
/// workload's latency limit.
pub fn end_to_end(leg: &Leg, ok: u64) -> Values {
    let lat = sorted(&leg.lat_ms);
    let mut v = Values::end_to_end();
    v.set("verdict_p50_ms", quantile(&lat, 0.50));
    v.set("verdict_p95_ms", quantile(&lat, 0.95));
    v.set("verdicts_per_s", ok as f64 / leg.wall_s.max(1e-9));
    v.set("cpu_ms_per_op", leg.cpu_ms / leg.attempted.max(1) as f64);
    v.set("peak_rss_mb", sys::peak_rss_mb());
    v
}

/// The result of one run of one workload.
pub struct Outcome {
    /// End-to-end metrics (from the measured leg of this run).
    pub e2e: Values,
    /// Reported on every run beside `e2e`: `fail_ratio`, `disk_kb_per_op`.
    pub extra: Values,
    /// Per-layer metrics; only a traced run has them.
    pub layers: Option<Values>,
    /// Ops attempted in the measured leg.
    pub attempted: u64,
    /// Ops that failed, were refused, timed out, came back `Unknown` or
    /// contradicted the reference.
    pub failed: u64,
    /// Failures of the untimed correctness check, one line each.
    pub errors: Vec<String>,
    /// Hash of the generated inputs.
    pub input_hash: String,
    /// The traced run's share table, ready to print.
    pub share_table: String,
}

/// Where each slice of the end-to-end busy time went, from the traced run.
/// Every row is measured on its own — a harness span's self time, or the sum
/// of a probe the program keeps — and never as what other rows leave over,
/// so the share no row accounts for is itself a measurement.
pub struct ShareTable {
    /// Sum of the op latencies, ns.
    pub busy_ns: f64,
    rows: Vec<(String, f64)>,
}

impl ShareTable {
    /// A table over `busy_ns` of end-to-end busy time.
    pub fn new(busy_ns: f64) -> ShareTable {
        ShareTable {
            busy_ns,
            rows: Vec::new(),
        }
    }

    /// Adds a measured row.
    pub fn row(&mut self, name: &str, ns: f64) {
        self.rows.push((name.to_string(), ns));
    }

    /// Share of the busy time the rows miss (or, were probes to overlap,
    /// count twice).
    pub fn unexplained_ratio(&self) -> f64 {
        let explained: f64 = self.rows.iter().map(|r| r.1).sum();
        ((self.busy_ns - explained) / self.busy_ns.max(1.0)).abs()
    }

    /// The table as text; `unexplained` says where the uncovered time is.
    pub fn render(&self, workload: &str, unexplained: &str) -> String {
        let mut out = format!(
            "share table · {workload} · end-to-end busy {:.1} ms\n",
            self.busy_ns / 1e6
        );
        for (name, ns) in &self.rows {
            out.push_str(&format!(
                "  {name:<60} {:>12.3} ms  {:>6.2} %\n",
                ns / 1e6,
                100.0 * ns / self.busy_ns.max(1.0)
            ));
        }
        out.push_str(&format!(
            "  {:<60} {:>12} {:>9.2} %\n      = {unexplained}\n",
            "(unexplained)",
            "",
            100.0 * self.unexplained_ratio()
        ));
        out
    }
}

/// `perf/out`: trace files and the stores of the durable workloads. Inside
/// the checkout the binary was built from, so a run reads and writes
/// nowhere else.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("perf/out is creatable");
    dir
}

/// A fresh, empty store directory under `perf/out`; removed by
/// [`remove_scratch`].
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SERIAL: AtomicUsize = AtomicUsize::new(0);
    let n = SERIAL.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("tmp-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store directory is creatable");
    dir
}

/// Removes a [`scratch_dir`].
pub fn remove_scratch(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
}
