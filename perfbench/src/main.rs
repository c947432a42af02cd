//! Pipeline benchmark for the NVOverlay suite.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--record]
//! ```
//!
//! Run from the repository root. Workloads (`BENCHMARK.json` says why
//! each was chosen): `figure-matrix`, `sharded-replay`,
//! `snapshot-lifecycle`, and `snapshot-hifreq`, which `BENCHMARK.json`
//! leaves out: on a shared 2-vCPU host its rescaled job time still
//! spreads by about 0.11 across runs, too much for a gated metric. `all`
//! runs the four in turn in one process.
//!
//! A run sets the workload up several times (the median is `setup_s`),
//! then repeats the workload's timed job until `--seconds` have passed
//! (by default `run_seconds` of `BENCHMARK.json`). Every set-up and every
//! stage of the job (replay cell, sharded leg, or pipeline phase) is timed
//! net of the benchmark's own checks between two host-speed probes, and
//! rescaled to a reference host (see `calib`), so co-tenant slowdowns of a
//! shared host cancel. `job_s` is the sum over the job's stages of each
//! stage's median rescaled seconds; the table also prints the measured
//! `job_wall_s` and `setup_wall_s`.
//!
//! Every job checks its outputs: each replay cell's result and metrics
//! digest against `perfbench/reference.json` (when the seed has recorded
//! digests) and against the run's first job; each restore against the
//! export that was backed up; the re-backup's zero new layers;
//! `validate`; serve determinism across worker counts; and every
//! one-shot query against the served answer. A failed check makes the
//! run exit 1.
//!
//! `--trace 1` alternates untraced and traced jobs. Traced jobs record a
//! span around every layer call and profile sharded replay; the run
//! prints the per-layer ledger and writes spans and per-cell detail to
//! `perfbench/out/`. `--record` runs one job and stores its digests as
//! the reference for this workload and seed.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of
//! `BENCHMARK.json` (untraced) or its per-layer metrics (traced), keyed
//! `<workload>/<metric>` under `all`.

mod bench;
mod calib;
mod io;
mod replay;
mod snapshot;
mod spans;
mod stats;

use bench::{Bench, Spec};
use spans::JOB;
use std::process::exit;
use std::time::{Duration, Instant};

/// The suite's default workload seed (`EnvScale::suite_params`).
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Set-up repetitions per run: at least this many, and more while they
/// add up to less than [`SETUP_SECONDS`], so a cheap set-up's median
/// rests on enough samples. `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// See [`SETUP_REPS`].
const SETUP_SECONDS: f64 = 2.0;
/// Fewest timed jobs per run, whatever `--seconds` says.
const MIN_JOBS: usize = 2;
/// Where stores, spans and ledgers go, relative to the repository root.
pub const OUT_DIR: &str = "perfbench/out";
/// Recorded replay and image digests, relative to the repository root.
const REFERENCE: &str = "perfbench/reference.json";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    FigureMatrix,
    ShardedReplay,
    SnapshotLifecycle,
    SnapshotHifreq,
}

impl WorkloadKind {
    const ALL: [WorkloadKind; 4] = [
        WorkloadKind::FigureMatrix,
        WorkloadKind::ShardedReplay,
        WorkloadKind::SnapshotLifecycle,
        WorkloadKind::SnapshotHifreq,
    ];

    fn name(self) -> &'static str {
        match self {
            WorkloadKind::FigureMatrix => "figure-matrix",
            WorkloadKind::ShardedReplay => "sharded-replay",
            WorkloadKind::SnapshotLifecycle => "snapshot-lifecycle",
            WorkloadKind::SnapshotHifreq => "snapshot-hifreq",
        }
    }
}

struct Args {
    workloads: Vec<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--record]",
        WorkloadKind::ALL.map(WorkloadKind::name).join("|")
    );
    exit(2);
}

/// Parses the command line; `--seconds` defaults to `run_seconds`.
fn parse_args(run_seconds: f64) -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: run_seconds,
        trace: false,
        record: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(WorkloadKind::ALL.to_vec()),
            "--workload" => {
                workload = Some(vec![WorkloadKind::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .unwrap_or_else(|| usage(&format!("unknown workload {value:?}")))])
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seed must be an integer, got {value:?}")))
            }
            "--seconds" => {
                args.seconds = match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => usage(&format!("--seconds must be positive, got {value:?}")),
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args.workloads = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

/// A workload: a set-up that builds the job's inputs, and the timed job.
pub trait Pipeline {
    type State;
    fn setup(&self, bench: &mut Bench) -> Self::State;
    /// Runs one timed job, reporting each stage's seconds with
    /// [`Bench::stage`].
    fn job(&self, state: &Self::State, bench: &mut Bench);
    /// Derives end-of-run metrics from the stage medians.
    fn finish(&self, _state: &Self::State, _bench: &mut Bench) {}
}

/// Runs set-up repeatedly (see [`SETUP_REPS`]), then timed jobs until
/// `seconds` have passed. In trace mode jobs alternate untraced and traced, and
/// the traced-vs-untraced difference is the tracing overhead.
fn drive<P: Pipeline>(p: &P, bench: &mut Bench, args: &Args) {
    let (min_setups, setup_seconds, max_jobs, seconds) = if args.record {
        (1, 0.0, 1, 0.0)
    } else {
        (SETUP_REPS, SETUP_SECONDS, usize::MAX, args.seconds)
    };
    let trace = args.trace;
    let mut state = None;
    let mut setup_total = 0.0;
    let mut setups = 0;
    while setups < min_setups || setup_total < setup_seconds {
        // Free the previous inputs before building the next copy.
        drop(state.take());
        // Set-up (generation and serial replay) runs on one thread.
        let before = bench.calibrate(1);
        let t = Instant::now();
        let checks = bench.tracer.bench_overhead();
        let s = p.setup(bench);
        // Net of the set-up's own correctness checks, as job stages are.
        let secs = t.elapsed().as_secs_f64() - (bench.tracer.bench_overhead() - checks);
        let after = bench.calibrate(1);
        bench.sample("setup_wall_s", "s", secs);
        bench.sample("setup_s", "s", calib::rescale(secs, before, after));
        setup_total += secs;
        setups += 1;
        state = Some(s);
    }
    let state = state.expect("at least one set-up ran");
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for n in 0..max_jobs {
        let tracing = trace && n % 2 == 1;
        bench.tracer.set_recording(tracing);
        bench.tracer.reset_totals();
        let job = bench.tracer.begin(JOB);
        p.job(&state, bench);
        let wall = bench.tracer.end(job);
        let job_s = wall - bench.tracer.bench_overhead();
        if tracing {
            traced.push(job_s);
        } else {
            untraced.push(job_s);
            bench.sample("job_wall_s", "s", job_s);
        }
        if n + 1 >= MIN_JOBS && Instant::now() >= deadline {
            break;
        }
    }
    bench.tracer.set_recording(false);
    let job_s = bench.job_secs();
    bench.sample("job_s", "s", job_s);
    p.finish(&state, bench);
    if trace && !traced.is_empty() {
        let overhead = stats::median(&traced) / stats::median(&untraced) - 1.0;
        bench.layer("tracing.overhead_share", overhead);
    }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so each workload of `--workload all` reports its own peak.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("note: cannot reset the peak resident set ({e}); peak_rss_mb covers earlier workloads too");
    }
}

/// Peak resident set of this process in MB (`VmHWM`) since the last
/// [`reset_peak_rss`].
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn provenance(kind: WorkloadKind, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto=thin, codegen-units=1)"
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"serve_seed\":{},\"nproc\":{nproc},\"profile\":\"{profile}\",\"git_revision\":\"{}\"}}",
        kind.name(),
        args.seed,
        snapshot::SERVE_SEED,
        git_revision()
    )
}

/// What one workload's run reports on the final JSON line.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`, in `BENCHMARK.json` order.
    metrics: Vec<(String, f64, String)>,
}

fn main() {
    let spec_text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        eprintln!("error: cannot read BENCHMARK.json (run from the repository root): {e}");
        exit(1);
    });
    let spec = Spec::parse(&spec_text).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    let args = parse_args(spec.run_seconds);
    let mut references = match std::fs::read_to_string(REFERENCE) {
        Ok(text) => bench::parse_references(&text).unwrap_or_else(|e| {
            eprintln!("error: {REFERENCE}: {e}");
            exit(1);
        }),
        Err(_) if args.record => bench::References::new(),
        Err(e) => {
            eprintln!("error: cannot read {REFERENCE}: {e}");
            exit(1);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        exit(1);
    }

    let outcomes: Vec<(WorkloadKind, Outcome)> = args
        .workloads
        .iter()
        .map(|&kind| (kind, run_workload(kind, &args, &spec, &mut references)))
        .collect();
    if args.record {
        if let Err(e) = std::fs::write(REFERENCE, bench::references_json(&references)) {
            eprintln!("error: cannot write {REFERENCE}: {e}");
            exit(1);
        }
    }

    let single = outcomes.len() == 1;
    let mut metrics = Vec::new();
    for (kind, o) in &outcomes {
        for (name, v, unit) in &o.metrics {
            let key = if single {
                name.clone()
            } else {
                format!("{}/{name}", kind.name())
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            ));
        }
    }
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        exit(1);
    }
}

/// Runs one workload, prints its table (and ledger when tracing), and
/// returns what goes on the final JSON line.
fn run_workload(
    kind: WorkloadKind,
    args: &Args,
    spec: &Spec,
    references: &mut bench::References,
) -> Outcome {
    let seed_key = args.seed.to_string();
    let reference = if args.record {
        None
    } else {
        references
            .get(kind.name())
            .and_then(|seeds| seeds.get(&seed_key))
            .cloned()
    };
    if reference.is_none() && !args.record {
        eprintln!(
            "note: seed {} has no recorded {} digests; replay outputs are checked for repeatability within the run only",
            args.seed,
            kind.name()
        );
    }
    let mut bench = Bench::new(spec, reference);
    reset_peak_rss();
    match kind {
        WorkloadKind::FigureMatrix => {
            drive(&replay::FigureMatrix { seed: args.seed }, &mut bench, args)
        }
        WorkloadKind::ShardedReplay => {
            drive(&replay::ShardedReplay { seed: args.seed }, &mut bench, args)
        }
        WorkloadKind::SnapshotLifecycle => {
            drive(&snapshot::Snapshot::lifecycle(args.seed), &mut bench, args)
        }
        WorkloadKind::SnapshotHifreq => {
            drive(&snapshot::Snapshot::hifreq(args.seed), &mut bench, args)
        }
    }
    bench.sample("peak_rss_mb", "MB", peak_rss_mb());
    let failed_share = bench.failed as f64 / bench.attempted.max(1) as f64;
    bench.sample("failed_share", "share", failed_share);
    if args.record {
        eprintln!(
            "recorded {} digests for {} seed {}",
            bench.digests.len(),
            kind.name(),
            args.seed
        );
        references
            .entry(kind.name().to_string())
            .or_default()
            .insert(seed_key, bench.digests.clone());
    }

    let prov = provenance(kind, args);
    println!("# {} seed {}", kind.name(), args.seed);
    println!(
        "{:<22} {:>10} {:>4} {:>14} {:>8}  values",
        "metric", "unit", "n", "median", "spread"
    );
    for (name, s) in &bench.series {
        let values: Vec<String> = s
            .values
            .iter()
            .take(12)
            .map(|v| format!("{v:.4}"))
            .collect();
        println!(
            "{:<22} {:>10} {:>4} {:>14.6} {:>8.4}  {}",
            name,
            s.unit,
            s.values.len(),
            stats::median(&s.values),
            stats::spread(&s.values),
            values.join(" ")
        );
    }
    for (name, n, measured, rescaled) in bench.stage_summary() {
        println!("stage {name:<30} {n:>4} jobs, median {measured:.6} s measured, {rescaled:.6} s rescaled");
    }
    let metrics = if args.trace {
        traced_ledger(kind, args, spec, &mut bench, failed_share, &prov)
    } else {
        spec.end_to_end
            .iter()
            .map(|m| {
                let Some(s) = bench.series.get(m.name.as_str()) else {
                    panic!("end-to-end metric {} was not measured", m.name);
                };
                assert_eq!(
                    s.unit, m.unit,
                    "unit of {} disagrees with BENCHMARK.json",
                    m.name
                );
                let v = stats::median(&s.values);
                bench.check(
                    &format!("{} measured as {v}, expected a positive number", m.name),
                    v.is_finite() && v > 0.0,
                );
                (m.name.clone(), v, m.unit.clone())
            })
            .collect()
    };
    println!("# provenance {prov}");
    Outcome {
        attempted: bench.attempted,
        failed: bench.failed,
        metrics,
    }
}

/// Derives the per-layer ledger from the traced jobs' spans, prints it,
/// and writes it with the spans and per-cell detail to [`OUT_DIR`].
fn traced_ledger(
    kind: WorkloadKind,
    args: &Args,
    spec: &Spec,
    bench: &mut Bench,
    failed_share: f64,
    prov: &str,
) -> Vec<(String, f64, String)> {
    let self_times = bench.tracer.self_times();
    let is_bench = |name: &str| name.starts_with(spans::BENCH_PREFIX);
    // Traced job time net of the benchmark's own checks: the same wall
    // `job_s` measures untraced.
    let bench_secs: f64 = self_times
        .iter()
        .filter(|(name, _)| is_bench(name))
        .map(|(_, s)| s)
        .sum();
    let job_secs = bench.tracer.recorded_job_secs() - bench_secs;
    let mut accounted = 0.0;
    for (name, secs) in &self_times {
        if *name == JOB || is_bench(name) {
            continue;
        }
        accounted += secs;
        let metric = format!("{name}_share");
        if spec.per_layer.iter().any(|m| m.name == metric) {
            bench.layer(&metric, secs / job_secs);
        }
    }
    bench.layer("tracing.accounted_share", accounted / job_secs);
    bench.layer("bench.failed_share", failed_share);
    let ledger = bench.ledger();
    println!(
        "# per-layer ledger over {job_secs:.3} s of traced jobs; store.io.* describe this \
         host's filesystem under DiskIo's fsync-per-write/rename policy, not a device"
    );
    for (name, v, unit) in &ledger {
        println!("{name:<40} {v:>16.6} {unit}");
    }
    let rows = |pairs: Vec<(String, f64)>| -> String {
        pairs
            .iter()
            .map(|(n, v)| format!("\"{}\": {}", nvsim::json::escape(n), num(*v)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let doc = format!(
        "{{\n\"provenance\": {prov},\n\"metrics\": {{\n{}}},\n\"self_s\": {{\n{}}},\n\"detail\": {{\n{}}},\n\"spans\": {}\n}}\n",
        rows(ledger.iter().map(|(n, v, _)| (n.clone(), *v)).collect()),
        rows(self_times.iter().map(|(n, s)| (n.to_string(), *s)).collect()),
        rows(bench.detail.iter().map(|(n, v)| (n.clone(), *v)).collect()),
        bench.tracer.to_json()
    );
    let path = format!("{OUT_DIR}/{}-seed{}.json", kind.name(), args.seed);
    match std::fs::write(&path, doc) {
        Ok(()) => println!("# spans and ledger written to {path}"),
        Err(e) => bench.check(&format!("write {path}: {e}"), false),
    }
    ledger
}

/// A JSON number with every digit (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
