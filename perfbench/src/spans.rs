//! In-memory span recorder for the traced run.
//!
//! Every layer call the benchmark makes is bracketed by `begin`/`end`.
//! Durations are always measured (the untraced run needs stage times
//! too); spans — name, start, end, parent — are kept only while recording
//! is on, and written out once the run ends. A layer's self time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of one timed sample.
pub const JOB: &str = "job";

/// Prefix of spans that are the benchmark's own work (correctness checks,
/// clean-up), which end-to-end job times exclude.
pub const BENCH_PREFIX: &str = "bench.";

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span in progress, returned by [`Tracer::begin`].
#[must_use = "end the span with Tracer::end"]
pub struct Open {
    name: &'static str,
    start: Instant,
    recorded: Option<usize>,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    totals: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    pub fn recording(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let recorded = self.on.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.t0).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(idx);
            idx
        });
        Open {
            name,
            start,
            recorded,
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.recorded {
            self.spans[idx].end_ns = now.duration_since(self.t0).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
        let secs = now.duration_since(open.start).as_secs_f64();
        *self.totals.entry(open.name).or_default() += secs;
        secs
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Seconds spent in the benchmark's own spans since the last reset.
    pub fn bench_overhead(&self) -> f64 {
        self.totals
            .iter()
            .filter(|(k, _)| k.starts_with(BENCH_PREFIX))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn reset_totals(&mut self) {
        self.totals.clear();
    }

    /// Self seconds per span name over every recorded span.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of every recorded root job span.
    pub fn recorded_job_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == JOB)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The recorded spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_recording(true);
        let job = t.begin(JOB);
        let (_, child) = t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = t.end(job);
        let st = t.self_times();
        assert!(st["child"] >= 0.005);
        assert!((st[JOB] + st["child"] - total).abs() < 1e-6);
        assert!(child <= total);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn unrecorded_spans_still_time() {
        let mut t = Tracer::new();
        let (_, secs) = t.time("bench.check", || ());
        assert!(secs >= 0.0);
        assert!(t.self_times().is_empty());
        assert_eq!(t.bench_overhead(), secs);
    }
}
