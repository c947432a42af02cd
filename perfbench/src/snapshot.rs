//! Snapshot pipeline workloads: an NVOverlay image is backed up epoch by
//! epoch into a fresh on-disk store, restored, maintained, mounted,
//! served, and queried one read at a time.

use crate::bench::{Bench, Meter};
use crate::io::{CountingIo, IoLedger};
use crate::replay::{generate_traces, ReplayTally};
use crate::stats::{self, Digest};
use crate::{Pipeline, OUT_DIR};
use nvbench::EnvScale;
use nvoverlay::mnm::Mnm;
use nvoverlay::system::NvOverlaySystem;
use nvserve::{driver, serve, Mount, ServeConfig};
use nvsim::memsys::{MemorySystem, Runner};
use nvsim::{LineAddr, SimConfig};
use nvstore::{BackupStats, DiskIo, SnapshotExport, Store};
use nvworkloads::Workload;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the scripted serve load (nvserve's default). The one-shot
/// query client replays the same (key, epoch) pairs, so it needs no
/// seed of its own.
pub const SERVE_SEED: u64 = 0x5345_5256_4531;
/// Serve worker threads for the timed serve call.
const SERVE_WORKERS: usize = 2;

pub struct Snapshot {
    seed: u64,
    scale: EnvScale,
    epoch_size_stores: u64,
    /// Epochs each job backs up: the image's first `backed_up`. The
    /// image's own epoch count moves with the seed by a few percent, and
    /// store costs grow faster than linearly in it; a fixed count keeps
    /// every seed's job the same size.
    backed_up: usize,
    /// Epoch tables each serving shard keeps resident.
    cache_cap: usize,
    jobs: Cell<usize>,
}

impl Snapshot {
    /// Standard-scale B+Tree at the paper-scaled epoch size (~20 large
    /// epochs, the first 16 backed up): every epoch table fits the serve
    /// cache.
    pub fn lifecycle(seed: u64) -> Self {
        Snapshot {
            seed,
            scale: EnvScale::Standard,
            epoch_size_stores: 3_000,
            backed_up: 16,
            cache_cap: ServeConfig::default().cache_cap,
            jobs: Cell::new(0),
        }
    }

    /// Quick-scale B+Tree with the epoch size cut 10× (~180–200 small
    /// epochs, the first 96 backed up), served with 64 resident epoch
    /// tables per shard: 1.5× as many epochs as the cache holds. Store
    /// open cost grows faster than the square of the backed-up epoch
    /// count, so the cache is shrunk rather than the chain lengthened.
    pub fn hifreq(seed: u64) -> Self {
        Snapshot {
            seed,
            scale: EnvScale::Quick,
            epoch_size_stores: 80,
            backed_up: 96,
            cache_cap: 64,
            jobs: Cell::new(0),
        }
    }
}

pub struct Image {
    sys: NvOverlaySystem,
    epochs: Vec<u64>,
}

fn export_digest(x: &SnapshotExport) -> u64 {
    let mut d = Digest::new();
    d.word(x.rec_epoch)
        .word(x.max_epoch_seen)
        .word(x.omcs as u64)
        .word(x.vds as u64)
        .word(x.pool_pages as u64);
    for (epoch, lines) in &x.deltas {
        d.word(*epoch).word(lines.len() as u64);
        for &(l, t) in lines {
            d.word(l).word(t);
        }
    }
    d.word(x.master.len() as u64);
    for &(l, t) in &x.master {
        d.word(l).word(t);
    }
    for &(vd, e, blob) in &x.contexts {
        d.word(vd).word(e).word(blob);
    }
    d.value()
}

fn dir_bytes(path: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Pipeline for Snapshot {
    type State = Image;

    /// Generates the trace, replays it through NVOverlay and drains the
    /// persistence state: the image every job starts from.
    fn setup(&self, bench: &mut Bench) -> Image {
        let g = generate_traces(bench, &[Workload::BTree], self.scale, self.seed)
            .pop()
            .expect("one trace");
        let cfg = SimConfig::builder()
            .epoch_size_stores(self.epoch_size_stores)
            .build()
            .expect("valid epoch size");
        let mut sys = NvOverlaySystem::new_shared(Arc::new(cfg));
        let (report, secs) = bench.tracer.time("replay.serial", || {
            Runner::new().run_packed(&mut sys, &g.trace)
        });
        bench.check(
            "image replay: every load matches the golden model",
            report.load_value_mismatches == 0,
        );
        let accesses = g.trace.access_count();
        let mut tally = ReplayTally::default();
        tally.add(&sys.metrics(), accesses, secs);
        tally.report(bench);
        bench.sample(
            "replay_maccess_s",
            "Maccess/s",
            accesses as f64 / secs / 1e6,
        );
        let check = bench.tracer.begin("bench.check");
        match SnapshotExport::from_mnm(sys.mnm()) {
            Ok(export) => {
                let mut d = Digest::new();
                d.word(export_digest(&export))
                    .bytes(sys.metrics().dump_tree().as_bytes());
                bench.check_digest("image/NVOverlay.B+Tree", d.hex());
            }
            Err(e) => bench.check(&format!("image export: {e}"), false),
        }
        bench.tracer.end(check);
        let epochs: Vec<u64> = sys.mnm().epochs().into_iter().map(|(e, _)| e).collect();
        bench.sample("image_epochs", "count", epochs.len() as f64);
        bench.check(
            &format!(
                "the image has {} epochs, at least the {} a job backs up",
                epochs.len(),
                self.backed_up
            ),
            epochs.len() >= self.backed_up,
        );
        let epochs = epochs.into_iter().take(self.backed_up).collect();
        Image { sys, epochs }
    }

    fn job(&self, img: &Image, bench: &mut Bench) {
        let n = self.jobs.get();
        self.jobs.set(n + 1);
        let dir = format!("{OUT_DIR}/store-{}-{n}", std::process::id());
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Rc::new(IoLedger::default());
        if let Err(what) = pipeline(img, bench, &dir, &ledger, self.cache_cap, n == 0) {
            bench.check(&what, false);
        }
        let cleanup = bench.tracer.begin("bench.cleanup");
        let _ = std::fs::remove_dir_all(&dir);
        bench.tracer.end(cleanup);
    }
}

/// Stages the snapshot of `mnm` as it stood at `epoch` and backs it up
/// under `name`; returns the staged export's digest.
fn stage_and_backup(
    bench: &mut Bench,
    store: &mut Store<CountingIo>,
    mnm: &Mnm,
    epoch: u64,
    name: &str,
) -> Result<(u64, BackupStats), String> {
    let (export, _) = bench.tracer.time("store.stage", || {
        SnapshotExport::from_mnm(mnm).map(|x| x.truncated(epoch))
    });
    let export = export.map_err(|err| format!("stage epoch {epoch}: {err}"))?;
    let (stats, _) = bench
        .tracer
        .time("store.backup_call", || store.backup(name, &export));
    let stats = stats.map_err(|err| format!("backup {name}: {err}"))?;
    let check = bench.tracer.begin("bench.check");
    let digest = export_digest(&export);
    bench.tracer.end(check);
    Ok((digest, stats))
}

fn open_store(
    bench: &mut Bench,
    dir: &str,
    ledger: &Rc<IoLedger>,
) -> Result<Store<CountingIo>, String> {
    let (store, _) = bench.tracer.time("store.open", || {
        let io = DiskIo::create(dir).map_err(|e| e.to_string())?;
        Store::open(CountingIo::new(io, Rc::clone(ledger))).map_err(|e| e.to_string())
    });
    store.map_err(|e| format!("open store {dir}: {e}"))
}

/// backup → restore → maintain → mount → serve → query, checking each
/// step. Errors end the job and fail the run.
fn pipeline(
    img: &Image,
    bench: &mut Bench,
    dir: &str,
    ledger: &Rc<IoLedger>,
    cache_cap: usize,
    first_job: bool,
) -> Result<(), String> {
    let mnm = img.sys.mnm();
    let newest_epoch = *img.epochs.last().ok_or("the image has no epochs")?;

    // Back up every per-epoch snapshot, staged as `nvo backup --upto e`
    // stages it, then back the newest up again.
    let phase = Meter::begin(bench, "backup", 1);
    let mut store = open_store(bench, dir, ledger)?;
    let mut staged: Vec<(String, u64)> = Vec::with_capacity(img.epochs.len());
    let (mut new_layers, mut shared_layers) = (0usize, 0usize);
    for &e in &img.epochs {
        let name = format!("epoch-{e:05}");
        let (digest, stats) = stage_and_backup(bench, &mut store, mnm, e, &name)?;
        new_layers += stats.new_layers;
        shared_layers += stats.shared_layers;
        staged.push((name, digest));
    }
    let (_, again) = stage_and_backup(bench, &mut store, mnm, newest_epoch, "rebackup")?;
    shared_layers += again.shared_layers;
    bench.check(
        &format!(
            "re-backup wrote {} new layers, expected 0",
            again.new_layers
        ),
        again.new_layers == 0,
    );
    let backup_s = phase.end(bench);
    let measure = bench.tracer.begin("bench.measure");
    let store_bytes = dir_bytes(std::path::Path::new(dir));
    bench.tracer.end(measure);
    let store_mb = store_bytes as f64 / 1e6;
    drop(store);

    // Open cold, restore every backup, rebuild and recover the newest.
    let phase = Meter::begin(bench, "restore", 1);
    let mut store = open_store(bench, dir, ledger)?;
    let mut newest = None;
    for (name, digest) in &staged {
        let (restored, _) = bench
            .tracer
            .time("store.restore_call", || store.restore(name));
        let restored = restored.map_err(|err| format!("restore {name}: {err}"))?;
        let check = bench.tracer.begin("bench.check");
        bench.check(
            &format!("restore of {name} equals the export that was backed up"),
            export_digest(&restored) == *digest,
        );
        bench.tracer.end(check);
        newest = Some(restored);
    }
    let newest = newest.ok_or("nothing was backed up")?;
    let (rebuilt, _) = bench.tracer.time("store.rebuild", || newest.rebuild());
    let (restored_mnm, _nvm) = rebuilt.map_err(|err| format!("rebuild newest: {err}"))?;
    let (image, _) = bench.tracer.time("recovery.recover", || {
        nvoverlay::recovery::recover(&restored_mnm)
    });
    let image = image.map_err(|err| format!("recover newest: {err:?}"))?;
    let check = bench.tracer.begin("bench.check");
    let mut recovered: Vec<(u64, u64)> = image.iter().map(|(l, t)| (l.raw(), t)).collect();
    recovered.sort_unstable();
    bench.check(
        "recovered image of the newest backup equals its stored master",
        recovered == newest.master,
    );
    bench.tracer.end(check);
    bench.layer("recovery.lines", image.len() as f64);
    let restore_s = phase.end(bench);

    // Validate, drop every backup but the newest, collect garbage.
    let phase = Meter::begin(bench, "maintain", 1);
    let (validated, _) = bench.tracer.time("store.validate", || store.validate());
    let validated = validated.map_err(|err| format!("validate: {err}"))?;
    bench.check(
        &format!(
            "validate verified {validated} of {} backups",
            staged.len() + 1
        ),
        validated == staged.len() + 1,
    );
    let (keep, keep_digest) = staged.last().cloned().expect("non-empty");
    let doomed = staged[..staged.len() - 1]
        .iter()
        .map(|(name, _)| name.as_str())
        .chain(["rebackup"]);
    for name in doomed {
        let (removed, _) = bench.tracer.time("store.remove", || store.remove(name));
        removed.map_err(|err| format!("remove {name}: {err}"))?;
    }
    let (gc, _) = bench.tracer.time("store.gc", || store.gc());
    let gc = gc.map_err(|err| format!("gc: {err}"))?;
    let maintain_s = phase.end(bench);
    let check = bench.tracer.begin("bench.check");
    let survivor = store.restore(&keep).map(|x| export_digest(&x));
    bench.check(
        &format!("{keep} restores unchanged after gc"),
        survivor == Ok(keep_digest),
    );
    bench.tracer.end(check);
    drop(store);

    // Mount the restored image and serve the scripted load.
    let phase = Meter::begin(bench, "serve", SERVE_WORKERS);
    let scfg = ServeConfig {
        workers: SERVE_WORKERS,
        cache_cap,
        seed: SERVE_SEED,
        error_probes: false,
        ..ServeConfig::default()
    };
    let (mount, _) = bench
        .tracer
        .time("serve.mount", || Mount::new(&restored_mnm, scfg.subshards));
    let mount = mount.map_err(|err| format!("mount: {err}"))?;
    let (plan, _) = bench
        .tracer
        .time("serve.plan", || driver::plan(&mount, &scfg));
    let plan = plan.ok_or("nothing to serve")?;
    let (out, serve_secs) = bench
        .tracer
        .time("serve.serve", || serve(&mount, &plan, &scfg));
    let serve_s = phase.end(bench);
    let check = bench.tracer.begin("bench.check");
    bench.check(
        &format!(
            "served {} of {} queries",
            out.report.answered,
            plan.queries()
        ),
        out.report.answered == plan.queries() as u64,
    );
    bench.check_digest("serve/report", format!("{:016x}", out.report.digest));
    if first_job {
        let one = serve(
            &mount,
            &plan,
            &ServeConfig {
                workers: 1,
                ..scfg.clone()
            },
        );
        bench.check(
            "serve report digest is identical at 1 and 2 workers",
            one.report.to_json("-", "-") == out.report.to_json("-", "-"),
        );
    }
    bench.tracer.end(check);

    // One client, closed loop: `GET key AS OF epoch` through the one-shot
    // `nvo query` path, for every (key, epoch) the serve plan holds.
    let phase = Meter::begin(bench, "query", 1);
    let pairs: Vec<(LineAddr, u64)> = plan
        .sessions
        .iter()
        .flat_map(|s| s.batches.iter())
        .flat_map(|b| b.keys.iter().map(move |&k| (k, b.epoch)))
        .collect();
    let mut latency_us = Vec::with_capacity(pairs.len());
    let mut answers = Vec::with_capacity(pairs.len());
    let mut rejected = 0usize;
    let open = bench.tracer.begin("query.loop");
    for &(line, epoch) in &pairs {
        let t = Instant::now();
        let answer = match mount.dir().resolve(epoch) {
            Ok(view) => mount.mnm().time_travel(line, view.epoch()),
            Err(_) => {
                rejected += 1;
                None
            }
        };
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        answers.push(answer);
    }
    let query_secs = bench.tracer.end(open);
    let query_s = phase.end(bench);
    let check = bench.tracer.begin("bench.check");
    bench.check(
        &format!("{rejected} one-shot queries rejected"),
        rejected == 0,
    );
    let mismatched = answers
        .iter()
        .zip(&out.answers)
        .filter(|(a, b)| a != b)
        .count();
    bench.check(
        &format!("{mismatched} one-shot answers differ from the served answers"),
        mismatched == 0 && answers.len() == out.answers.len(),
    );
    bench.tracer.end(check);

    // Report.
    let p50 = stats::percentile(&latency_us, 50.0);
    let p99 = stats::percentile(&latency_us, 99.0);
    let job_s = backup_s + restore_s + maintain_s + serve_s + query_s;
    let r = &out.report;
    let serve_qps = r.answered as f64 / serve_secs;
    bench.sample("backup_s", "s", backup_s);
    bench.sample("restore_s", "s", restore_s);
    bench.sample("maintain_s", "s", maintain_s);
    bench.sample("store_mb", "MB", store_mb);
    bench.sample("epochs", "count", staged.len() as f64);
    bench.sample("serve_qps", "1/s", serve_qps);
    bench.sample("query_p50_us", "us", p50);
    bench.sample("query_p99_us", "us", p99);
    bench.sample("query_samples", "count", latency_us.len() as f64);
    bench.layer("store.mb", store_mb);
    bench.layer("store.new_layers", new_layers as f64);
    bench.layer("store.shared_layers", shared_layers as f64);
    bench.layer(
        "store.dedup_share",
        shared_layers as f64 / (new_layers + shared_layers).max(1) as f64,
    );
    bench.layer("store.gc_quarantined", gc.quarantined as f64);
    bench.layer("store.io.writes", ledger.writes.get() as f64);
    bench.layer("store.io.renames", ledger.renames.get() as f64);
    bench.layer("store.io.reads", ledger.reads.get() as f64);
    bench.layer("store.io.bytes_written", ledger.bytes_written.get() as f64);
    bench.layer("store.io.bytes_read", ledger.bytes_read.get() as f64);
    bench.layer("store.io.write_share", ledger.write_s.get() / job_s);
    bench.layer("store.io.read_share", ledger.read_s.get() / job_s);
    bench
        .detail
        .insert("store.io.write_s".into(), ledger.write_s.get());
    bench
        .detail
        .insert("store.io.read_s".into(), ledger.read_s.get());
    bench.layer("serve.qps", serve_qps);
    bench.layer("serve.cache_hit_rate", r.hit_rate());
    bench.layer("serve.cache_misses", r.cache.misses as f64);
    bench.layer("serve.cache_evictions", r.cache.evictions as f64);
    bench.layer(
        "serve.misses_per_query",
        r.cache.misses as f64 / r.answered.max(1) as f64,
    );
    bench.layer("query.qps", pairs.len() as f64 / query_secs);
    bench.layer("query.p99_over_p50", p99 / p50);
    bench.detail.insert("query.p50_us".into(), p50);
    bench.detail.insert("query.p99_us".into(), p99);
    bench
        .detail
        .insert("query.samples".into(), latency_us.len() as f64);
    bench
        .detail
        .insert("store.epochs".into(), staged.len() as f64);
    Ok(())
}
