//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, the op it belongs to, the span that caused
//! it and its start and end. Spans stay in memory during the run and
//! are written out once at the end. When the tracer is off every call
//! is a pass-through, so untraced runs pay only the op's own two clock
//! reads.

use crate::common::{pct, percentile};
use crate::probe;
use rb_obs::{Event, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A recorder that keeps only counter totals. It reports itself
/// disabled, so the program builds no event payloads for it; counters
/// reach it regardless. Attached to a simulator, it follows the
/// simulator into every clone and rebuild the program makes.
#[derive(Debug, Default)]
pub struct CounterTally(Mutex<BTreeMap<(&'static str, &'static str), u64>>);

impl CounterTally {
    /// The total of counter `scope.name`.
    pub fn get(&self, scope: &str, name: &str) -> u64 {
        let counters = self.0.lock().expect("counter tally poisoned");
        counters
            .iter()
            .find(|((s, n), _)| *s == scope && *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

impl Recorder for CounterTally {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}

    fn counter_add(&self, scope: &'static str, name: &'static str, delta: u64) {
        let mut counters = self.0.lock().expect("counter tally poisoned");
        *counters.entry((scope, name)).or_default() += delta;
    }

    fn histogram(&self, _scope: &'static str, _name: &'static str, _value: f64) {}
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    /// Index of the causing span in the tracer's list, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder and per-op CPU accounting.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Traced ops and the user/system CPU ms they used.
    ops: u64,
    user_ms: f64,
    sys_ms: f64,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
            user_ms: 0.0,
            sys_ms: 0.0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Marks the start of the next op; spans that follow belong to it.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            self.spans[idx].end_ns = self.ns(Instant::now());
            if let Some(pos) = self.open.iter().rposition(|&o| o == idx) {
                self.open.truncate(pos);
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let h = self.begin(name);
        let out = f();
        self.end(h);
        out
    }

    /// Records a span timed by the caller, under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                op: self.op,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// Times the op's own work — the part its latency is measured on —
    /// inside a root `op` span. When tracing, also reads the process CPU
    /// time around it.
    pub fn timed_op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
        let cpu0 = self.on.then(probe::cpu_ms);
        let h = self.begin("op");
        let t0 = Instant::now();
        let out = f(self);
        let elapsed = t0.elapsed();
        self.end(h);
        if let Some((u0, s0)) = cpu0 {
            let (u1, s1) = probe::cpu_ms();
            self.ops += 1;
            self.user_ms += u1 - u0;
            self.sys_ms += s1 - s0;
        }
        (out, elapsed)
    }

    /// `core.par` CPU time per traced op, user and kernel, and the
    /// kernel's share of it.
    pub fn cpu_per_op(&self) -> Vec<(String, f64, &'static str)> {
        let n = self.ops.max(1) as f64;
        vec![
            ("core.par.user_cpu_ms_per_op".into(), self.user_ms / n, "ms"),
            ("core.par.sys_cpu_ms_per_op".into(), self.sys_ms / n, "ms"),
            (
                "core.par.sys_cpu_pct".into(),
                pct(self.sys_ms, self.user_ms + self.sys_ms),
                "%",
            ),
        ]
    }

    /// Traced ops so far.
    pub fn traced_ops(&self) -> u64 {
        self.ops
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Nearest-rank percentile of the spans named `name`, in ms.
    pub fn p(&self, name: &str, q: f64) -> f64 {
        percentile(&mut self.durations(name), q)
    }

    /// Total ms in spans named `name`, per traced op.
    pub fn per_op(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<f64>() / self.ops.max(1) as f64
    }

    /// Self time of the spans named `name` per traced op, in ms: their
    /// duration minus the part their child spans cover.
    pub fn self_per_op(&self, name: &str) -> f64 {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.ms();
            }
        }
        let total: f64 = self
            .spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ms() - c)
            .sum();
        total / self.ops.max(1) as f64
    }

    /// Writes the spans as JSON lines to
    /// `perfbench/out/spans-<workload>-<seed>.jsonl`; returns the path.
    pub fn write_spans(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let dir = std::path::Path::new("perfbench").join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(&path, text)?;
        Ok(path.display().to_string())
    }
}
