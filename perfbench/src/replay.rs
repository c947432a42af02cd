//! Replay workloads: the serial figure matrix and 2-shard replay.

use crate::bench::{Bench, Meter};
use crate::stats::Digest;
use crate::Pipeline;
use nvbench::{run_scheme_sharded_prof, run_scheme_stats, EnvScale, ExpResult, Scheme};
use nvsim::metrics::Registry;
use nvsim::trace::{PackedTrace, TraceBuilder};
use nvsim::{Addr, ShardPlan, SimConfig, ThreadId};
use nvworkloads::{generate, Workload};
use std::sync::Arc;

/// One generated, packed trace.
pub struct Generated {
    pub name: &'static str,
    pub trace: PackedTrace,
}

/// Generates and packs `workloads` at `scale` with the workload seed, as
/// `nvo` does before any replay; reports the `gen.*` ledger.
pub fn generate_traces(
    bench: &mut Bench,
    workloads: &[Workload],
    scale: EnvScale,
    seed: u64,
) -> Vec<Generated> {
    let mut params = scale.suite_params();
    params.seed = seed;
    let mut secs = 0.0;
    let mut accesses = 0;
    let mut stores = 0;
    let out: Vec<Generated> = workloads
        .iter()
        .map(|&w| {
            let (trace, s) = bench
                .tracer
                .time("gen", || generate(w, &params).to_packed());
            secs += s;
            accesses += trace.access_count();
            stores += trace.store_count();
            bench.detail.insert(format!("gen.s.{}", w.name()), s);
            bench.detail.insert(
                format!("gen.accesses.{}", w.name()),
                trace.access_count() as f64,
            );
            bench.detail.insert(
                format!("gen.stores.{}", w.name()),
                trace.store_count() as f64,
            );
            Generated {
                name: w.name(),
                trace,
            }
        })
        .collect();
    bench.layer("gen.s", secs);
    bench.layer("gen.accesses", accesses as f64);
    bench.layer("gen.stores", stores as f64);
    out
}

/// Digest of everything a replay cell reports: the figure-level result
/// and the full metrics registry.
fn cell_digest(res: &ExpResult, reg: &Registry, extra: &[u64]) -> String {
    let mut d = Digest::new();
    d.bytes(format!("{res:?}").as_bytes());
    d.bytes(reg.dump_tree().as_bytes());
    for &x in extra {
        d.word(x);
    }
    d.hex()
}

/// Deterministic per-access counts of serial replay, summed over cells.
#[derive(Default)]
pub struct ReplayTally {
    secs: f64,
    accesses: u64,
    l1_hits: u64,
    noc_msgs: u64,
    noc_accesses: u64,
    nvm_writes: u64,
}

impl ReplayTally {
    /// Adds one serial cell. NoC counts are exported by the NVOverlay
    /// hierarchy only, so the per-access NoC figure covers those cells.
    pub fn add(&mut self, reg: &Registry, accesses: u64, secs: f64) {
        self.secs += secs;
        self.accesses += accesses;
        self.l1_hits += reg.counter("sys.access.l1_hits").unwrap_or(0);
        let mut noc = None;
        for (name, _) in reg.iter() {
            if name.ends_with(".noc.total") {
                *noc.get_or_insert(0) += reg.counter(name).unwrap_or(0);
            }
            if name.starts_with("sys.nvm.writes.") {
                self.nvm_writes += reg.counter(name).unwrap_or(0);
            }
        }
        if let Some(n) = noc {
            self.noc_msgs += n;
            self.noc_accesses += accesses;
        }
    }

    pub fn report(&self, bench: &mut Bench) {
        let a = self.accesses.max(1) as f64;
        bench.layer("replay.ns_per_access", self.secs * 1e9 / a);
        bench.layer("replay.l1_hit_share", self.l1_hits as f64 / a);
        bench.layer(
            "replay.noc_msgs_per_access",
            self.noc_msgs as f64 / self.noc_accesses.max(1) as f64,
        );
        bench.layer(
            "replay.nvm_writes_per_kaccess",
            self.nvm_writes as f64 * 1e3 / a,
        );
    }
}

/// Runs one serial replay cell through `nvbench::run_scheme_stats` and
/// checks its digest.
fn serial_cell(
    bench: &mut Bench,
    tally: &mut ReplayTally,
    scheme: Scheme,
    cfg: &Arc<SimConfig>,
    g: &Generated,
) {
    let cell = format!("{}.{}", scheme.name(), g.name);
    let meter = Meter::begin(bench, format!("serial/{cell}"), 1);
    let ((res, _stats, reg), secs) = bench
        .tracer
        .time("replay.serial", || run_scheme_stats(scheme, cfg, &g.trace));
    meter.end(bench);
    let accesses = g.trace.access_count();
    tally.add(&reg, accesses, secs);
    bench.detail.insert(
        format!("replay.ns_per_access.{cell}"),
        secs * 1e9 / accesses as f64,
    );
    let check = bench.tracer.begin("bench.check");
    bench.check_digest(&format!("serial/{cell}"), cell_digest(&res, &reg, &[]));
    bench.tracer.end(check);
}

/// Fig 11/12's six schemes × {B+Tree, kmeans} at Standard scale, serial.
pub struct FigureMatrix {
    pub seed: u64,
}

pub struct MatrixState {
    cfg: Arc<SimConfig>,
    traces: Vec<Generated>,
}

impl Pipeline for FigureMatrix {
    type State = MatrixState;

    fn setup(&self, bench: &mut Bench) -> MatrixState {
        let traces = generate_traces(
            bench,
            &[Workload::BTree, Workload::Kmeans],
            EnvScale::Standard,
            self.seed,
        );
        MatrixState {
            cfg: Arc::new(EnvScale::Standard.sim_config()),
            traces,
        }
    }

    fn job(&self, st: &MatrixState, bench: &mut Bench) {
        let mut tally = ReplayTally::default();
        for g in &st.traces {
            for scheme in Scheme::FIGURE {
                serial_cell(bench, &mut tally, scheme, &st.cfg, g);
            }
        }
        tally.report(bench);
    }

    fn finish(&self, st: &MatrixState, bench: &mut Bench) {
        let per_job: u64 = st
            .traces
            .iter()
            .map(|g| g.trace.access_count())
            .sum::<u64>()
            * Scheme::FIGURE.len() as u64;
        bench.sample(
            "replay_maccess_s",
            "Maccess/s",
            per_job as f64 / bench.measured_job_secs() / 1e6,
        );
    }
}

/// Full-scale B+Tree at 2 shards (NVOverlay, PiCL) plus a serial
/// NVOverlay leg for the measured speedup.
pub struct ShardedReplay {
    pub seed: u64,
}

pub struct ShardedState {
    cfg: Arc<SimConfig>,
    trace: Generated,
}

const SHARDS: usize = 2;

/// Drops `trace`'s plan from nvsim's process-wide plan memo, so the next
/// sharded leg builds it again as a fresh `nvo run --shards` process
/// does. The memo is only reachable through `ShardPlan::cached`: fetch
/// the (cached) plan, keep a weak handle, and insert single-access
/// filler plans until the memo lets the real one go.
fn evict_plan(trace: &PackedTrace, cfg: &SimConfig) {
    let weak = Arc::downgrade(&ShardPlan::cached(trace, cfg));
    let mut filler = 0u64;
    while weak.strong_count() > 0 {
        let mut b = TraceBuilder::new(1);
        b.store(ThreadId(0), Addr::new(filler * 64));
        ShardPlan::cached(&b.build().to_packed(), cfg);
        filler += 1;
        assert!(filler < 1 << 16, "shard plan memo never released the plan");
    }
}

impl Pipeline for ShardedReplay {
    type State = ShardedState;

    fn setup(&self, bench: &mut Bench) -> ShardedState {
        let mut traces = generate_traces(bench, &[Workload::BTree], EnvScale::Full, self.seed);
        ShardedState {
            cfg: Arc::new(EnvScale::Full.sim_config()),
            trace: traces.pop().expect("one trace"),
        }
    }

    fn job(&self, st: &ShardedState, bench: &mut Bench) {
        let profiled = bench.tracer.recording();
        let accesses = st.trace.trace.access_count() as f64;
        let mut sharded_secs = 0.0;
        for (scheme, key) in [(Scheme::NvOverlay, "nvoverlay"), (Scheme::Picl, "picl")] {
            let meter = Meter::begin(bench, format!("sharded{SHARDS}/{}", scheme.name()), SHARDS);
            let (run, secs) = bench.tracer.time("shard.run", || {
                run_scheme_sharded_prof(scheme, &st.cfg, &st.trace.trace, SHARDS, profiled)
            });
            meter.end(bench);
            sharded_secs += secs;
            let check = bench.tracer.begin("bench.check");
            bench.check(&format!("{key}: replay ran sharded"), run.sharded);
            let extra = [
                run.islands as u64,
                run.windows,
                run.rendezvous_windows,
                run.imported_lines,
            ];
            bench.check_digest(
                &format!("sharded{SHARDS}/{}.{}", scheme.name(), st.trace.name),
                cell_digest(&run.result, &run.metrics, &extra),
            );
            bench.tracer.end(check);
            let evict = bench.tracer.begin("bench.evict");
            evict_plan(&st.trace.trace, &st.cfg);
            bench.tracer.end(evict);

            bench.layer(&format!("shard.windows.{key}"), run.windows as f64);
            bench.layer(
                &format!("shard.rendezvous_windows.{key}"),
                run.rendezvous_windows as f64,
            );
            bench.layer(
                &format!("shard.imported_lines.{key}"),
                run.imported_lines as f64,
            );
            if let Some(p) = &run.profile {
                bench.layer(
                    &format!("shard.imbalance_permille.{key}"),
                    p.imbalance_permille() as f64,
                );
                let acc = p.accountable_ns().max(1) as f64;
                for (bucket, ns) in nvsim::ProfBucket::ALL.iter().zip(p.bucket_ns()) {
                    let b = bucket.name().replace('-', "_");
                    bench.layer(&format!("shard.{b}_share.{key}"), ns as f64 / acc);
                    bench
                        .detail
                        .insert(format!("shard.{b}_s.{key}"), ns as f64 * 1e-9);
                }
                bench.detail.insert(
                    format!("shard.plan_build_s.{key}"),
                    p.plan_build_ns as f64 * 1e-9,
                );
                if scheme == Scheme::NvOverlay {
                    bench.layer("shard.speedup_forecast", p.predicted_speedup(SHARDS));
                }
            }
        }
        let mut tally = ReplayTally::default();
        serial_cell(bench, &mut tally, Scheme::NvOverlay, &st.cfg, &st.trace);
        tally.report(bench);
        bench.layer("shard.maccess_s", 2.0 * accesses / sharded_secs / 1e6);
    }

    fn finish(&self, st: &ShardedState, bench: &mut Bench) {
        let accesses = st.trace.trace.access_count() as f64;
        let serial = bench.stage_median(&format!("serial/NVOverlay.{}", st.trace.name));
        let nvo = bench.stage_median(&format!("sharded{SHARDS}/NVOverlay"));
        let picl = bench.stage_median(&format!("sharded{SHARDS}/PiCL"));
        bench.sample("replay_maccess_s", "Maccess/s", accesses / serial / 1e6);
        bench.sample(
            "sharded_maccess_s",
            "Maccess/s",
            2.0 * accesses / (nvo + picl) / 1e6,
        );
        bench.sample("shard_speedup", "x", serial / nvo);
        bench.layer("shard.speedup_measured", serial / nvo);
    }
}
