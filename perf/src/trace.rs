//! Harness-side tracing: one span around every call the benchmark makes
//! into a layer's public API, kept in memory and written out at exit.
//!
//! A span records name, start, end, the span that caused it and the op it
//! belongs to. A layer's *self time* is its spans' duration minus the part
//! their child spans cover. Tracing is off in the runs that produce the
//! end-to-end metrics; `harness.trace_overhead_ratio` is the difference.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.Call` name.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The op (check, event) this span belongs to.
    pub op: u32,
}

/// Per-name totals derived from the span tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus child spans.
    pub self_ns: u64,
}

/// An in-memory span recorder; a disabled one costs a branch per call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens the span of the next op; close it with [`Tracer::end`].
    pub fn begin_op(&mut self, name: &'static str) {
        self.op += 1;
        self.begin(name);
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Appends another thread's spans (ids re-based; ops kept).
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Total nanoseconds under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals().get(name).map_or(0, |t| t.total_ns)
    }

    /// Mean duration of `name`'s spans in microseconds (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .filter(|t| t.count > 0)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e3)
    }

    /// The spans as a JSON array of
    /// `{"id","name","start_ns","end_ns","parent","op"}` objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj()
                        .with("id", i)
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        )
                        .with("op", u64::from(s.op))
                })
                .collect(),
        )
    }
}

/// A copy of the `bcdb_telemetry` probe table, read by probe name.
pub struct Probes(bcdb_telemetry::TelemetrySnapshot);

impl Probes {
    /// Zeroes the probe table and switches the probes on: the start of a
    /// traced leg.
    pub fn start() {
        bcdb_telemetry::reset();
        bcdb_telemetry::set_enabled(true);
    }

    /// Switches the probes off and returns what they counted.
    pub fn stop() -> Probes {
        bcdb_telemetry::set_enabled(false);
        Probes(bcdb_telemetry::snapshot())
    }

    /// A counter or gauge value (0 for unknown names).
    pub fn count(&self, name: &str) -> f64 {
        self.0
            .counters
            .iter()
            .chain(&self.0.gauges)
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value as f64)
    }

    /// `(samples, sum_ns)` of a histogram.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        self.0
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
    }

    /// Sum of a histogram in nanoseconds.
    pub fn sum_ns(&self, name: &str) -> f64 {
        self.hist(name).1
    }

    /// Mean of a histogram in nanoseconds (0 when empty).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, sum) = self.hist(name);
        if n > 0.0 {
            sum / n
        } else {
            0.0
        }
    }

    /// The whole table as JSON text.
    pub fn to_json(&self) -> String {
        self.0.to_json()
    }
}
