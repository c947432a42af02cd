//! The run context every workload reports into: correctness checks,
//! sampled series, the per-layer ledger, and replay-digest references.

use crate::calib::{self, Calibrator};
use crate::spans::Tracer;
use crate::stats;
use nvsim::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One metric declared in `BENCHMARK.json`.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

/// The metric lists of `BENCHMARK.json`, the single place names and
/// units are declared.
pub struct Spec {
    /// Seconds one run measures when `--seconds` is not given.
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("BENCHMARK.json has no {key} list"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key} entry without {f}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                    })
                })
                .collect()
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .filter(|s| *s > 0.0)
            .ok_or("BENCHMARK.json has no positive run_seconds")?;
        Ok(Spec {
            run_seconds,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// Recorded replay digests: workload → seed → cell → digest.
pub type References = BTreeMap<String, BTreeMap<String, BTreeMap<String, String>>>;

pub fn parse_references(text: &str) -> Result<References, String> {
    let doc = json::parse(text).map_err(|e| format!("reference file: {e}"))?;
    let mut out = References::new();
    let obj = |v: &JsonValue| match v {
        JsonValue::Object(pairs) => Ok(pairs.clone()),
        _ => Err("reference file: expected an object".to_string()),
    };
    let digests = doc.get("digests").ok_or("reference file has no digests")?;
    for (workload, seeds) in obj(digests)? {
        for (seed, cells) in obj(&seeds)? {
            for (cell, digest) in obj(&cells)? {
                let d = digest.as_str().ok_or("digest must be a string")?;
                out.entry(workload.clone())
                    .or_default()
                    .entry(seed.clone())
                    .or_default()
                    .insert(cell, d.to_string());
            }
        }
    }
    Ok(out)
}

pub fn references_json(refs: &References) -> String {
    let mut s = String::from("{\n  \"schema\": 1,\n  \"digests\": {");
    for (wi, (workload, seeds)) in refs.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{workload}\": {{",
            if wi > 0 { "," } else { "" }
        );
        for (si, (seed, cells)) in seeds.iter().enumerate() {
            let _ = write!(s, "{}\n      \"{seed}\": {{", if si > 0 { "," } else { "" });
            for (ci, (cell, d)) in cells.iter().enumerate() {
                let sep = if ci > 0 { "," } else { "" };
                let _ = write!(s, "{sep}\n        \"{}\": \"{d}\"", json::escape(cell));
            }
            s.push_str("\n      }");
        }
        s.push_str("\n    }");
    }
    s.push_str("\n  }\n}\n");
    s
}

/// A sampled series for the human-readable table.
pub struct Series {
    pub unit: &'static str,
    pub values: Vec<f64>,
}

pub struct Bench {
    pub tracer: Tracer,
    calib: Calibrator,
    pub attempted: u64,
    pub failed: u64,
    pub series: BTreeMap<&'static str, Series>,
    /// Seconds per job of each stage of the timed job: as measured, and
    /// rescaled to the reference host (see [`calib`]).
    stages: BTreeMap<String, Vec<(f64, f64)>>,
    layer: BTreeMap<String, Vec<f64>>,
    layer_units: BTreeMap<String, String>,
    /// Free-form per-cell detail for the ledger file.
    pub detail: BTreeMap<String, f64>,
    /// Digest of every cell as first seen in this run.
    pub digests: BTreeMap<String, String>,
    reference: Option<BTreeMap<String, String>>,
}

impl Bench {
    pub fn new(spec: &Spec, reference: Option<BTreeMap<String, String>>) -> Self {
        Bench {
            tracer: Tracer::new(),
            calib: Calibrator::new(),
            attempted: 0,
            failed: 0,
            series: BTreeMap::new(),
            stages: BTreeMap::new(),
            layer: BTreeMap::new(),
            layer_units: spec
                .per_layer
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect(),
            detail: BTreeMap::new(),
            digests: BTreeMap::new(),
            reference,
        }
    }

    /// Counts one checked operation; a failure is reported on stderr and
    /// fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Checks a cell's output digest against the recorded reference (when
    /// this seed has one) and against every earlier sample of this run.
    pub fn check_digest(&mut self, cell: &str, digest: String) {
        match self.digests.get(cell) {
            Some(first) => {
                let same = *first == digest;
                self.check(
                    &format!(
                        "{cell}: digest {digest} differs from this run's first sample {first}"
                    ),
                    same,
                );
            }
            None => {
                if let Some(expected) = self.reference.as_ref().and_then(|r| r.get(cell)) {
                    let same = *expected == digest;
                    self.check(
                        &format!("{cell}: digest {digest} differs from the recorded reference {expected}"),
                        same,
                    );
                } else if self.reference.is_some() {
                    self.check(&format!("{cell}: no recorded reference digest"), false);
                }
                self.digests.insert(cell.to_string(), digest);
            }
        }
    }

    /// Appends one value to a human-table series.
    pub fn sample(&mut self, name: &'static str, unit: &'static str, v: f64) {
        self.series
            .entry(name)
            .or_insert(Series {
                unit,
                values: Vec::new(),
            })
            .values
            .push(v);
    }

    /// Probes the host's current speed on `threads` threads (see
    /// [`calib`]); the probe is the benchmark's own work, outside every
    /// stage.
    pub fn calibrate(&mut self, threads: usize) -> f64 {
        let open = self.tracer.begin("bench.calibrate");
        let ns = self.calib.probe(threads);
        self.tracer.end(open);
        ns
    }

    /// Records one untraced job's seconds in one stage of the timed job.
    fn stage(&mut self, name: String, secs: f64, rescaled: f64) {
        if self.tracer.recording() {
            return;
        }
        self.stages.entry(name).or_default().push((secs, rescaled));
    }

    /// Median measured seconds of one stage over the jobs run so far.
    pub fn stage_median(&self, name: &str) -> f64 {
        self.stages.get(name).map_or(f64::NAN, |xs| {
            stats::median(&xs.iter().map(|&(s, _)| s).collect::<Vec<_>>())
        })
    }

    /// Each stage's sample count and median seconds, measured and
    /// rescaled to the reference host.
    pub fn stage_summary(&self) -> Vec<(&str, usize, f64, f64)> {
        self.stages
            .iter()
            .map(|(name, xs)| {
                let measured: Vec<f64> = xs.iter().map(|&(s, _)| s).collect();
                let rescaled: Vec<f64> = xs.iter().map(|&(_, r)| r).collect();
                let (m, r) = (stats::median(&measured), stats::median(&rescaled));
                (name.as_str(), xs.len(), m, r)
            })
            .collect()
    }

    /// The job's seconds on the reference host: the sum over stages of
    /// each stage's median rescaled seconds, so a burst of host noise in
    /// one stage of one job is voted out.
    pub fn job_secs(&self) -> f64 {
        self.stage_summary().iter().map(|s| s.3).sum()
    }

    /// The job's measured seconds: the sum over stages of each stage's
    /// median measured seconds.
    pub fn measured_job_secs(&self) -> f64 {
        self.stage_summary().iter().map(|s| s.2).sum()
    }

    /// Records one observation of a per-layer metric declared in
    /// `BENCHMARK.json`; the ledger reports the median observation.
    pub fn layer(&mut self, name: &str, v: f64) {
        assert!(
            self.layer_units.contains_key(name),
            "per-layer metric {name} is not declared in BENCHMARK.json"
        );
        self.layer.entry(name.to_string()).or_default().push(v);
    }

    /// The per-layer ledger: every declared metric, 0 for a layer this
    /// workload never ran.
    pub fn ledger(&self) -> Vec<(String, f64, String)> {
        self.layer_units
            .iter()
            .map(|(name, unit)| {
                let v = self.layer.get(name).map_or(0.0, |xs| stats::median(xs));
                (name.clone(), v, unit.clone())
            })
            .collect()
    }
}

/// Times one stage of a job, net of the benchmark's own checks, between
/// two host-speed probes on as many threads as the stage runs.
pub struct Meter {
    name: String,
    threads: usize,
    start: Instant,
    bench_s: f64,
    probe_ns: f64,
}

impl Meter {
    pub fn begin(bench: &mut Bench, name: impl Into<String>, threads: usize) -> Meter {
        let probe_ns = bench.calibrate(threads);
        Meter {
            name: name.into(),
            threads,
            start: Instant::now(),
            bench_s: bench.tracer.bench_overhead(),
            probe_ns,
        }
    }

    /// Ends the stage, records it, and returns its measured seconds.
    pub fn end(self, bench: &mut Bench) -> f64 {
        let secs =
            self.start.elapsed().as_secs_f64() - (bench.tracer.bench_overhead() - self.bench_s);
        let after = bench.calibrate(self.threads);
        bench.stage(self.name, secs, calib::rescale(secs, self.probe_ns, after));
        secs
    }
}
