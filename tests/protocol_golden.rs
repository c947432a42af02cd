//! Cross-crate protocol golden digests.
//!
//! Every scheme replays one small workload on every combination of
//! coherence protocol (MESI, MOESI), L1 replay path (fast, reference)
//! and driver (serial, and 2-way island-sharded where the scheme is
//! shardable). Each cell folds its metrics `dump_tree`, its stale-load
//! count, its run totals and its recovered (or golden) image into one
//! FNV-1a digest, compared against the table below.
//!
//! The table pins the exact behaviour of the coherence engine that all
//! schemes share: a protocol change that alters any counter, any
//! recovered line or any load value in any cell fails here. On a
//! mismatch the test prints the full recomputed table, so an intended
//! behaviour change is a reviewed edit of `GOLDEN`.

use nvoverlay_suite::baselines::{HwShadow, IdealSystem, Picl, PiclLevel, SwShadow, SwUndoLogging};
use nvoverlay_suite::overlay::system::NvOverlaySystem;
use nvoverlay_suite::sim::addr::{LineAddr, Token};
use nvoverlay_suite::sim::config::Protocol;
use nvoverlay_suite::sim::memsys::{MemorySystem, Runner};
use nvoverlay_suite::sim::trace::PackedTrace;
use nvoverlay_suite::sim::{ShardPlan, SimConfig};
use nvoverlay_suite::workloads::{generate, SuiteParams, Workload};
use std::sync::Arc;

/// The machine of `tests/integration_schemes.rs`.
fn cfg() -> SimConfig {
    SimConfig::builder()
        .cores(16, 2)
        .l1(8 * 1024, 4, 4)
        .l2(64 * 1024, 8, 8)
        .llc(2 * 1024 * 1024, 8, 30, 4)
        .epoch_size_stores(1_000)
        .build()
        .unwrap()
}

/// The suite parameters of `tests/integration_schemes.rs`, with fewer
/// operations so all 52 cells replay in a few seconds unoptimized.
fn params() -> SuiteParams {
    SuiteParams {
        threads: 16,
        ops: 1_500,
        warmup_ops: 10_000,
        seed: 123,
    }
}

const SCHEMES: [&str; 7] = [
    "Ideal",
    "SW Logging",
    "SW Shadow",
    "HW Shadow",
    "PiCL",
    "PiCL-L2",
    "NVOverlay",
];

/// `(cell, digest)`; cell = `scheme/protocol/path/driver`.
const GOLDEN: &[(&str, u64)] = &[
    ("Ideal/Mesi/fast/serial", 0x0485e18aab229477),
    ("Ideal/Mesi/fast/sharded2", 0x428f81d5e2e4aabd),
    ("SW Logging/Mesi/fast/serial", 0xcc052c16b5d9a0ab),
    ("SW Logging/Mesi/fast/sharded2", 0xadb3ce8193c9a3b5),
    ("SW Shadow/Mesi/fast/serial", 0xd29f021365e15cc3),
    ("SW Shadow/Mesi/fast/sharded2", 0x35f4b2690e2014fc),
    ("HW Shadow/Mesi/fast/serial", 0x727323107dd84327),
    ("PiCL/Mesi/fast/serial", 0xdea0ffd725aa3203),
    ("PiCL/Mesi/fast/sharded2", 0xfb11124d534876a0),
    ("PiCL-L2/Mesi/fast/serial", 0xece68d9d42b3704c),
    ("PiCL-L2/Mesi/fast/sharded2", 0xfb11124d534876a0),
    ("NVOverlay/Mesi/fast/serial", 0x56542be8012d973f),
    ("NVOverlay/Mesi/fast/sharded2", 0x288f066cf634dde3),
    ("Ideal/Mesi/reference/serial", 0x0485e18aab229477),
    ("Ideal/Mesi/reference/sharded2", 0x428f81d5e2e4aabd),
    ("SW Logging/Mesi/reference/serial", 0xcc052c16b5d9a0ab),
    ("SW Logging/Mesi/reference/sharded2", 0xadb3ce8193c9a3b5),
    ("SW Shadow/Mesi/reference/serial", 0xd29f021365e15cc3),
    ("SW Shadow/Mesi/reference/sharded2", 0x35f4b2690e2014fc),
    ("HW Shadow/Mesi/reference/serial", 0x727323107dd84327),
    ("PiCL/Mesi/reference/serial", 0xdea0ffd725aa3203),
    ("PiCL/Mesi/reference/sharded2", 0xfb11124d534876a0),
    ("PiCL-L2/Mesi/reference/serial", 0xece68d9d42b3704c),
    ("PiCL-L2/Mesi/reference/sharded2", 0xfb11124d534876a0),
    ("NVOverlay/Mesi/reference/serial", 0x56542be8012d973f),
    ("NVOverlay/Mesi/reference/sharded2", 0x288f066cf634dde3),
    ("Ideal/Moesi/fast/serial", 0xe740aef27dbe8fb7),
    ("Ideal/Moesi/fast/sharded2", 0x428f81d5e2e4aabd),
    ("SW Logging/Moesi/fast/serial", 0x4bea991f14891018),
    ("SW Logging/Moesi/fast/sharded2", 0xadb3ce8193c9a3b5),
    ("SW Shadow/Moesi/fast/serial", 0x8c7a6e55196b1211),
    ("SW Shadow/Moesi/fast/sharded2", 0x35f4b2690e2014fc),
    ("HW Shadow/Moesi/fast/serial", 0x228e3143eeb0e6eb),
    ("PiCL/Moesi/fast/serial", 0xb9528986d1b2128b),
    ("PiCL/Moesi/fast/sharded2", 0xfb11124d534876a0),
    ("PiCL-L2/Moesi/fast/serial", 0xb9528986d1b2128b),
    ("PiCL-L2/Moesi/fast/sharded2", 0xfb11124d534876a0),
    ("NVOverlay/Moesi/fast/serial", 0x576b35949cf30442),
    ("NVOverlay/Moesi/fast/sharded2", 0x288f066cf634dde3),
    ("Ideal/Moesi/reference/serial", 0xe740aef27dbe8fb7),
    ("Ideal/Moesi/reference/sharded2", 0x428f81d5e2e4aabd),
    ("SW Logging/Moesi/reference/serial", 0x4bea991f14891018),
    ("SW Logging/Moesi/reference/sharded2", 0xadb3ce8193c9a3b5),
    ("SW Shadow/Moesi/reference/serial", 0x8c7a6e55196b1211),
    ("SW Shadow/Moesi/reference/sharded2", 0x35f4b2690e2014fc),
    ("HW Shadow/Moesi/reference/serial", 0x228e3143eeb0e6eb),
    ("PiCL/Moesi/reference/serial", 0xb9528986d1b2128b),
    ("PiCL/Moesi/reference/sharded2", 0xfb11124d534876a0),
    ("PiCL-L2/Moesi/reference/serial", 0xb9528986d1b2128b),
    ("PiCL-L2/Moesi/reference/sharded2", 0xfb11124d534876a0),
    ("NVOverlay/Moesi/reference/serial", 0x576b35949cf30442),
    ("NVOverlay/Moesi/reference/sharded2", 0x288f066cf634dde3),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn image<'a>(&mut self, img: impl Iterator<Item = (&'a LineAddr, &'a Token)>) {
        let mut lines: Vec<(u64, u64)> = img.map(|(l, t)| (l.raw(), *t)).collect();
        lines.sort_unstable();
        self.u64(lines.len() as u64);
        for (l, t) in lines {
            self.u64(l);
            self.u64(t);
        }
    }
}

/// Replays `scheme` serially and digests the run, the metrics tree and
/// the image the scheme recovers after the run (the golden image for
/// Ideal, which keeps no persistent state).
fn serial_digest(scheme: &str, cfg: &SimConfig, trace: &PackedTrace) -> u64 {
    let mut h = Fnv::new();
    let mut run = |sys: &mut dyn MemorySystem| {
        let r = Runner::new().run_packed(sys, trace);
        h.bytes(sys.metrics().dump_tree().as_bytes());
        h.u64(r.cycles);
        h.u64(r.stall_cycles);
        h.u64(r.load_value_mismatches);
        r
    };
    match scheme {
        "Ideal" => {
            let r = run(&mut IdealSystem::new(cfg));
            h.image(r.golden_image.iter());
        }
        "SW Logging" => {
            let mut s = SwUndoLogging::new(cfg);
            run(&mut s);
            h.image(s.recovered_image().iter());
        }
        "SW Shadow" => {
            let mut s = SwShadow::new(cfg);
            run(&mut s);
            h.image(s.recovered_image().iter());
        }
        "HW Shadow" => {
            let mut s = HwShadow::new(cfg);
            run(&mut s);
            h.image(s.recovered_image().iter());
        }
        "PiCL" | "PiCL-L2" => {
            let level = if scheme == "PiCL" {
                PiclLevel::Llc
            } else {
                PiclLevel::L2
            };
            let mut s = Picl::new(cfg, level);
            run(&mut s);
            h.image(s.recovered_image().iter());
        }
        "NVOverlay" => {
            let mut s = NvOverlaySystem::new(cfg);
            run(&mut s);
            let img = s.recover().expect("NVOverlay recovers");
            let lines: Vec<(LineAddr, Token)> = img.iter().collect();
            h.image(lines.iter().map(|(l, t)| (l, t)));
        }
        other => unreachable!("unknown scheme {other}"),
    }
    h.0
}

/// Replays `scheme` island-sharded over 2 workers and digests the merged
/// report, metrics tree and golden image; `None` for serial-only schemes.
fn sharded_digest(scheme: &str, cfg: &SimConfig, trace: &PackedTrace) -> Option<u64> {
    let plan = ShardPlan::new(trace, cfg);
    let icfg = Arc::new(cfg.island_config());
    let c = &icfg;
    let runner = Runner::new();
    let r = match scheme {
        "Ideal" => {
            runner.run_packed_sharded(|_| IdealSystem::new_shared(c.clone()), trace, &plan, 2)
        }
        "SW Logging" => {
            runner.run_packed_sharded(|_| SwUndoLogging::new_shared(c.clone()), trace, &plan, 2)
        }
        "SW Shadow" => {
            runner.run_packed_sharded(|_| SwShadow::new_shared(c.clone()), trace, &plan, 2)
        }
        "HW Shadow" => {
            assert!(!HwShadow::new(cfg).shardable());
            return None;
        }
        "PiCL" => runner.run_packed_sharded(
            |_| Picl::new_shared(c.clone(), PiclLevel::Llc),
            trace,
            &plan,
            2,
        ),
        "PiCL-L2" => runner.run_packed_sharded(
            |_| Picl::new_shared(c.clone(), PiclLevel::L2),
            trace,
            &plan,
            2,
        ),
        "NVOverlay" => {
            runner.run_packed_sharded(|_| NvOverlaySystem::new_shared(c.clone()), trace, &plan, 2)
        }
        other => unreachable!("unknown scheme {other}"),
    };
    let mut h = Fnv::new();
    h.bytes(r.metrics.dump_tree().as_bytes());
    h.u64(r.cycles);
    h.u64(r.stall_cycles);
    h.u64(r.load_value_mismatches);
    h.u64(r.imported_lines);
    h.image(r.golden_image.iter());
    Some(h.0)
}

#[test]
fn every_scheme_matches_its_protocol_golden_digest() {
    let trace = PackedTrace::from_trace(&generate(Workload::BTree, &params()));
    let mut got: Vec<(String, u64)> = Vec::new();
    for protocol in [Protocol::Mesi, Protocol::Moesi] {
        for fast in [true, false] {
            let cfg = SimConfig {
                protocol,
                replay_fast_path: fast,
                ..cfg()
            };
            let path = if fast { "fast" } else { "reference" };
            for scheme in SCHEMES {
                let cell = format!("{scheme}/{protocol:?}/{path}");
                got.push((
                    format!("{cell}/serial"),
                    serial_digest(scheme, &cfg, &trace),
                ));
                if let Some(d) = sharded_digest(scheme, &cfg, &trace) {
                    got.push((format!("{cell}/sharded2"), d));
                }
            }
        }
    }
    assert_eq!(got.len(), 52, "7 serial + 6 sharded cells per combination");
    let table: String = got
        .iter()
        .map(|(c, d)| format!("    (\"{c}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|(c, d)| (c.to_string(), *d)).collect();
    assert!(
        got == expected,
        "protocol digests changed; recomputed table:\n{table}"
    );
}
