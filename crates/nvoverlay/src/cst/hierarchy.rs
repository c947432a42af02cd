//! The CST line policy — NVOverlay's modified access protocol (paper §IV)
//! over `nvsim`'s coherence engine.
//!
//! The hierarchy is [`nvsim::hierarchy::Hierarchy`], the same engine the
//! baselines run on; [`Cst`] makes every L1/L2 line carry a 16-bit OID
//! tag and a *persisted* bit, which turns the engine's shared transaction
//! code into the Version Access Protocol:
//!
//! * **Store-eviction** (§IV-A1): a store hitting a dirty, unpersisted
//!   version of an older epoch first pushes that version into the L2, then
//!   completes in place under the current epoch.
//! * **Version PUTX** (§IV-A2): when an L1 version lands on an older dirty
//!   L2 version, the L2 version is evicted to the OMC first.
//! * **External downgrade** (§IV-A3, Fig 5): the newest version is
//!   deposited in the LLC and persisted; an older L2 version goes to the
//!   OMC *only* (it is not the current memory image — optimization 1).
//! * **External invalidation** (§IV-A3, Fig 6): the newest version moves
//!   cache-to-cache to the requestor without touching LLC or OMC
//!   (optimization 2); its persistence obligation travels with it. Older
//!   versions go to the OMC.
//! * **Epoch synchronization** (§IV-B2): every response carries the line's
//!   OID as its RV; a VD observing an RV newer than its epoch stalls,
//!   dumps context, and advances (Lamport clock) — [`Cst`]'s `fetched`
//!   hook.
//! * **Tag walker** (§IV-C): persists dirty versions older than the VD's
//!   current epoch and reports `min-ver` to the OMC.
//! * **Wrap-around** (§IV-D): when a VD's epoch crosses between the two
//!   16-bit groups, lines still tagged in the newly-entered group are
//!   flushed out of the hierarchy before the tags are recycled, and DRAM
//!   tags of that group are scrubbed.
//!
//! The first four live in the engine, switched on by versioned lines; the
//! last three live here, as [`Versioned`] operations on the engine.
//!
//! ### Modeling notes
//!
//! The hardware encodes "this version has reached the OMC" as the M→E
//! downgrade performed by the tag walker. We track the same fact in an
//! explicit `persisted` bit and keep the MESI dirty bit for the DRAM
//! working-copy chain; the two encodings are behaviourally equivalent and
//! the bit keeps the DRAM image exact in simulation.
//!
//! The hierarchy is *mechanism only*: versions leaving a VD surface as
//! [`CstEvent::Version`] events / return values; `NvOverlaySystem` routes
//! them to the MNM backend and charges NVM time.

use crate::epoch::{reconstruct_abs, Epoch, HALF_SPACE};
use nvsim::addr::{LineAddr, Token, VdId};
use nvsim::cache::CacheArray;
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::hierarchy::{Fetch, Hierarchy, LineOf, LineOid, LinePolicy};
use nvsim::mesi::MesiState;
use nvsim::noc::MsgKind;
use nvsim::stats::EvictReason;
use std::sync::Arc;

/// CST-specific tuning knobs on top of [`SimConfig`].
#[derive(Clone, Debug)]
pub struct CstConfig {
    /// Cycles a VD's cores stall to drain queues at an epoch advance.
    pub epoch_advance_stall: Cycle,
    /// Bytes of processor context dumped per core at an epoch advance.
    pub context_bytes_per_core: u64,
    /// Absolute epoch the system starts in (useful to exercise 16-bit
    /// wrap-around in tests; clamped to at least 1).
    pub initial_epoch: u64,
}

impl Default for CstConfig {
    fn default() -> Self {
        Self {
            epoch_advance_stall: 30,
            context_bytes_per_core: 256,
            initial_epoch: 1,
        }
    }
}

/// A dirty version leaving its Versioned Domain, bound for the OMC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionOut {
    /// The line.
    pub line: LineAddr,
    /// The version's content.
    pub token: Token,
    /// Absolute epoch of the version (reconstructed from the 16-bit tag).
    pub abs_epoch: u64,
    /// Why it left.
    pub reason: EvictReason,
}

/// What caused an epoch advance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvanceCause {
    /// The per-VD store budget was exhausted.
    StoreBudget,
    /// A coherence response carried a newer epoch (Lamport sync).
    CoherenceSync,
    /// The workload requested a boundary (`TraceEvent::EpochMark`).
    ExplicitMark,
    /// Final drain at the end of a run.
    Finish,
}

/// Events produced by an access (drained by the system each access).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CstEvent {
    /// A version left a VD and must be persisted by the OMC.
    Version(VersionOut),
    /// A VD advanced its epoch. The system dumps core contexts.
    EpochAdvanced {
        /// The VD that advanced.
        vd: VdId,
        /// Epoch before.
        from_abs: u64,
        /// Epoch after.
        to_abs: u64,
        /// Why.
        cause: AdvanceCause,
    },
    /// An *unpersisted* version moved cache-to-cache into `vd`
    /// (optimization 2): the receiving L2 controller refreshes its
    /// `min-ver` at the OMC with the version's epoch, otherwise the
    /// recoverable epoch could advance past an obligation that changed
    /// hands between two walks.
    DirtyTransfer {
        /// The VD that now holds the obligation.
        vd: VdId,
        /// The version's epoch.
        abs_epoch: u64,
    },
}

impl LineOid for Epoch {
    #[inline]
    fn to_abs(self, reference: u64) -> u64 {
        reconstruct_abs(self, reference)
    }

    #[inline]
    fn from_abs(abs: u64) -> Self {
        Epoch::from_abs(abs)
    }

    #[inline]
    fn newer_than(self, other: Self) -> bool {
        Epoch::newer_than(self, other)
    }
}

/// The CST line policy and its state.
#[derive(Clone, Debug)]
pub struct Cst {
    cfg: CstConfig,
    wrap_flushes: u64,
}

impl Cst {
    /// The policy under `cfg`.
    pub fn new(cfg: CstConfig) -> Self {
        Self {
            cfg,
            wrap_flushes: 0,
        }
    }
}

/// The CST versioned hierarchy: the coherence engine under [`Cst`].
pub type VersionedHierarchy = Hierarchy<Cst>;

impl LinePolicy for Cst {
    type Oid = Epoch;
    type Persisted = bool;
    type Event = CstEvent;
    const VERSIONED: bool = true;

    fn initial_epoch(&self) -> u64 {
        self.cfg.initial_epoch.max(1)
    }

    fn store_budget(h: &mut VersionedHierarchy, vd: VdId) -> Cycle {
        h.advance_epoch_explicit(vd, AdvanceCause::StoreBudget)
    }

    /// Coherence-driven epoch update (§IV-B2) before the line installs;
    /// an unpersisted version arriving cache-to-cache brings its
    /// persistence obligation along.
    fn fetched(h: &mut VersionedHierarchy, vd: VdId, f: &Fetch) -> Cycle {
        let stall = sync_epoch(h, vd, f.rv);
        if f.state == MesiState::M && !f.persisted {
            h.emit(CstEvent::DirtyTransfer {
                vd,
                abs_epoch: f.rv,
            });
        }
        stall
    }

    fn version_out(
        h: &mut VersionedHierarchy,
        vd: VdId,
        line: LineAddr,
        token: Token,
        oid: Epoch,
        reason: EvictReason,
    ) {
        let abs_epoch = h.abs_of(oid, vd);
        h.emit(CstEvent::Version(VersionOut {
            line,
            token,
            abs_epoch,
            reason,
        }));
    }

    /// Dirty data going home refreshes the DRAM tag, so later fetches of
    /// the line carry its epoch as RV (§IV-A4).
    fn home_written(h: &mut VersionedHierarchy, line: LineAddr, oid: Epoch) {
        h.dram_mut()
            .update_oid(line, oid.raw(), |a, b| Epoch(a).newer_than(Epoch(b)));
    }
}

/// Advances `vd` to absolute epoch `to`. Returns the stall charged to the
/// VD's in-flight access.
fn advance_epoch(h: &mut VersionedHierarchy, vd: VdId, to: u64, cause: AdvanceCause) -> Cycle {
    let from = h.epoch(vd);
    debug_assert!(to > from, "epochs only move forward");
    if from / HALF_SPACE != to / HALF_SPACE {
        wrap_flush(h, to);
    }
    h.set_epoch(vd, to);
    h.emit(CstEvent::EpochAdvanced {
        vd,
        from_abs: from,
        to_abs: to,
        cause,
    });
    h.policy().cfg.epoch_advance_stall
}

/// Synchronizes `vd` to a response's RV if newer (Lamport rule).
/// Spurious "future" RVs from stale DRAM tags are clamped to the
/// system-wide maximum epoch: causality guarantees no genuine RV can
/// exceed the epoch of the VD that produced it.
fn sync_epoch(h: &mut VersionedHierarchy, vd: VdId, rv_abs: u64) -> Cycle {
    let cur = h.epoch(vd);
    let max_abs = h.epochs().iter().copied().max().unwrap_or(cur);
    let to = rv_abs.min(max_abs);
    if to > cur {
        return advance_epoch(h, vd, to, AdvanceCause::CoherenceSync);
    }
    0
}

/// §IV-D group flush: before epochs enter a recycled half-space
/// generation, every cache line still tagged in that half-space is
/// flushed out of the hierarchy (unpersisted versions to the OMC, dirty
/// data home to DRAM), and DRAM tags of the group are scrubbed.
fn wrap_flush(h: &mut VersionedHierarchy, entering_abs: u64) {
    h.policy_mut().wrap_flushes += 1;
    let entering_group = Epoch::from_abs(entering_abs).group();
    // A tag in the entering group is, by the invariant this flush
    // maintains, from that group's *previous* generation: resolve it
    // strictly into the past (the normal ±half-space reconstruction
    // would read it as "future").
    let gen_base = entering_abs >> 16 << 16;
    let stale_abs = |tag: Epoch| {
        let cand = gen_base + tag.raw() as u64;
        if cand >= entering_abs {
            cand.saturating_sub(1 << 16)
        } else {
            cand
        }
    };
    let flush = |h: &mut VersionedHierarchy, line: LineAddr, m: LineOf<Cst>| {
        if m.unpersisted() {
            h.emit(CstEvent::Version(VersionOut {
                line,
                token: m.token,
                abs_epoch: stale_abs(m.oid),
                reason: EvictReason::EpochFlush,
            }));
        }
        if m.state.is_dirty() {
            h.dram_mut().write(line, m.token);
        }
    };
    let in_group = |_: LineAddr, m: &LineOf<Cst>| m.oid.group() == entering_group;
    for vdix in 0..h.l2s().len() {
        let vd = VdId(vdix as u16);
        // Collect lines where the L2 copy or any L1 copy is tagged in the
        // entering group; flush the whole line out of the VD.
        let mut stale: Vec<LineAddr> = h.l2s()[vdix].lines_where(in_group);
        for c in h.local_cores(vd) {
            for l in h.l1s()[c as usize].lines_where(in_group) {
                if !stale.contains(&l) {
                    stale.push(l);
                }
            }
        }
        for line in stale {
            for c in h.local_cores(vd) {
                if let Some(m) = h.l1s_mut()[c as usize].remove(line) {
                    flush(h, line, m);
                }
            }
            if let Some(m) = h.l2s_mut()[vdix].remove(line) {
                flush(h, line, m);
            }
            h.dir_mut().remove_node(line, vd.0);
        }
    }
    for s in 0..h.llc().len() {
        let stale = h.llc()[s].lines_where(|_, m| m.oid.group() == entering_group);
        for line in stale {
            let m = h.llc_mut()[s].remove(line).expect("listed");
            if m.dirty {
                h.dram_mut().write(line, m.token);
            }
        }
    }
    let boundary = Epoch::from_abs(entering_abs / HALF_SPACE * HALF_SPACE);
    h.dram_mut()
        .scrub_oids(|t| Epoch(t).group() == entering_group, boundary.raw());
}

/// CST's operations on the versioned hierarchy: epoch management, the
/// tag walker (§IV-C), the final drain, metrics and the invariant
/// checker.
pub trait Versioned {
    /// Builds the hierarchy.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    fn new(cfg: &SimConfig, cst: CstConfig) -> Self;

    /// The CST configuration in force.
    fn cst_config(&self) -> &CstConfig;

    /// Group-crossing wrap flushes performed so far.
    fn wrap_flushes(&self) -> u64;

    /// Publishes CST-side metrics under `prefix`: per-VD epoch gauges,
    /// wrap flushes, NoC message counts, and DRAM OID footprint.
    fn metrics_into(&self, reg: &mut nvsim::metrics::Registry, prefix: &str);

    /// Advances a VD's epoch by one for an explicit mark or the system's
    /// policy. Returns the stall.
    fn advance_epoch_explicit(&mut self, vd: VdId, cause: AdvanceCause) -> Cycle;

    /// Runs the VD's tag walker: every unpersisted dirty version older
    /// than the VD's current epoch is handed to the OMC (returned) and
    /// marked persisted. Returns `(versions, min_ver)`, `min_ver` being
    /// the smallest absolute epoch still unpersisted afterwards (the VD's
    /// current epoch when nothing older remains).
    fn tag_walk(&mut self, vd: VdId) -> (Vec<VersionOut>, u64);

    /// Smallest absolute epoch of any unpersisted version in the VD.
    fn min_unpersisted(&self, vd: VdId) -> Option<u64>;

    /// Final drain: advances every VD one epoch and persists *all*
    /// unpersisted versions (including current-epoch ones). Dirty data
    /// also goes home to DRAM. Returns the persisted versions.
    fn drain(&mut self) -> Vec<VersionOut>;

    /// Checks every invariant of [`super::invariants`]; returns all
    /// violations found (empty = healthy). Quiescent-point use only.
    fn check_invariants(&self) -> Vec<super::InvariantViolation>;

    /// Panics with a readable report if any invariant is violated
    /// (test helper).
    ///
    /// # Panics
    /// Panics when [`Versioned::check_invariants`] is non-empty.
    fn assert_invariants(&self) {
        let v = self.check_invariants();
        assert!(
            v.is_empty(),
            "versioned hierarchy invariants violated:\n{}",
            v.iter()
                .map(|x| format!("  - {x}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Hot-path validation hook, called by `NvOverlaySystem` at quiescent
    /// points (epoch advances and the final drain).
    ///
    /// The checks are O(cache contents) — far too expensive for release
    /// sweeps, which replay millions of accesses. This compiles to
    /// nothing unless the build carries `debug_assertions` (every `cargo
    /// test`) or the `strict-invariants` cargo feature (opt-in release
    /// validation, forwarded from the workspace root as
    /// `nvoverlay-suite/strict-invariants`).
    ///
    /// # Panics
    /// As [`Versioned::assert_invariants`], when enabled.
    #[inline]
    fn debug_validate(&self) {
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        self.assert_invariants();
    }
}

impl Versioned for VersionedHierarchy {
    fn new(cfg: &SimConfig, cst: CstConfig) -> Self {
        Hierarchy::with_policy(Arc::new(cfg.clone()), Cst::new(cst))
    }

    fn cst_config(&self) -> &CstConfig {
        &self.policy().cfg
    }

    fn wrap_flushes(&self) -> u64 {
        self.policy().wrap_flushes
    }

    fn metrics_into(&self, reg: &mut nvsim::metrics::Registry, prefix: &str) {
        let p = |s: &str| format!("{prefix}.{s}");
        reg.set_counter(&p("wrap_flushes"), self.wrap_flushes());
        for (vd, abs) in self.epochs().iter().enumerate() {
            reg.set_gauge(&p(&format!("vd{vd}.epoch_abs")), *abs as f64);
        }
        for kind in MsgKind::ALL {
            reg.set_counter(&p(&format!("noc.{kind}")), self.noc().count(kind));
        }
        reg.set_counter(&p("noc.total"), self.noc().total());
        reg.set_counter(&p("dram.reads"), self.dram().reads());
        reg.set_counter(&p("dram.oid_tags"), self.dram().oid_tag_count() as u64);
    }

    fn advance_epoch_explicit(&mut self, vd: VdId, cause: AdvanceCause) -> Cycle {
        let to = self.epoch(vd) + 1;
        advance_epoch(self, vd, to, cause)
    }

    fn tag_walk(&mut self, vd: VdId) -> (Vec<VersionOut>, u64) {
        let cur_abs = self.epoch(vd);
        let cur_tag = Epoch::from_abs(cur_abs);
        let mut out = Vec::new();
        let mut walk = |c: &mut CacheArray<LineOf<Cst>>| {
            for line in c.lines_where(|_, m| m.unpersisted() && m.oid != cur_tag) {
                let m = c.peek_mut(line).expect("listed");
                m.persisted = true;
                out.push(VersionOut {
                    line,
                    token: m.token,
                    abs_epoch: reconstruct_abs(m.oid, cur_abs),
                    reason: EvictReason::TagWalk,
                });
            }
        };
        walk(&mut self.l2s_mut()[vd.index()]);
        // The hardware walker is L2-level; the VD's few L1s are probed too
        // so min-ver is exact (see DESIGN.md §6).
        for c in self.local_cores(vd) {
            walk(&mut self.l1s_mut()[c as usize]);
        }
        let min_ver = self.min_unpersisted(vd).unwrap_or(cur_abs);
        (out, min_ver)
    }

    fn min_unpersisted(&self, vd: VdId) -> Option<u64> {
        let cur_abs = self.epoch(vd);
        let l1s = self.local_cores(vd).map(|c| &self.l1s()[c as usize]);
        std::iter::once(&self.l2s()[vd.index()])
            .chain(l1s)
            .flat_map(|c| c.iter())
            .filter(|(_, m)| m.unpersisted())
            .map(|(_, m)| reconstruct_abs(m.oid, cur_abs))
            .min()
    }

    fn drain(&mut self) -> Vec<VersionOut> {
        let mut out = Vec::new();
        for vdix in 0..self.l2s().len() {
            let vd = VdId(vdix as u16);
            self.advance_epoch_explicit(vd, AdvanceCause::Finish);
            let (walked, _) = self.tag_walk(vd);
            // End-of-run drain traffic is attributed to `Drain`, not the
            // walker, so eviction-reason decompositions (Fig 15) are not
            // polluted by the shutdown flush.
            out.extend(walked.into_iter().map(|v| VersionOut {
                reason: EvictReason::Drain,
                ..v
            }));
            debug_assert_eq!(self.min_unpersisted(vd), None, "drain walked everything");
        }
        // Every version is persisted now: what remains is dirty data
        // going home to DRAM.
        self.drain_dirty();
        out
    }

    fn check_invariants(&self) -> Vec<super::InvariantViolation> {
        super::invariants::check(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim::addr::{Addr, CoreId};
    use nvsim::memsys::MemOp;

    fn small_cfg() -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(1_000_000)
            .build()
            .unwrap()
    }

    fn hier() -> VersionedHierarchy {
        VersionedHierarchy::new(&small_cfg(), CstConfig::default())
    }

    fn addr(line: u64) -> Addr {
        Addr::new(line * 64)
    }

    fn versions(h: &mut VersionedHierarchy) -> Vec<VersionOut> {
        h.take_events()
            .into_iter()
            .filter_map(|e| match e {
                CstEvent::Version(v) => Some(v),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn store_in_same_epoch_updates_in_place() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(1), 10);
        h.access(CoreId(0), MemOp::Store, addr(1), 11);
        assert!(
            versions(&mut h).is_empty(),
            "same-epoch rewrite is in place"
        );
        assert_eq!(h.newest_token(LineAddr::new(1)), 11);
    }

    #[test]
    fn store_after_epoch_advance_store_evicts_old_version() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(1), 10);
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        // Old version @e1 is dirty & unpersisted: the store pushes it to L2
        // (intra-VD, no OMC write yet).
        h.access(CoreId(0), MemOp::Store, addr(1), 20);
        assert!(versions(&mut h).is_empty(), "version moved L1→L2 only");
        // A second advance + store displaces the L2 version to the OMC.
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        h.access(CoreId(0), MemOp::Store, addr(1), 30);
        let v = versions(&mut h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].token, 10, "epoch-1 version displaced to OMC");
        assert_eq!(v[0].abs_epoch, 1);
        assert_eq!(v[0].reason, EvictReason::StoreEviction);
        assert_eq!(h.newest_token(LineAddr::new(1)), 30);
    }

    #[test]
    fn tag_walker_persists_old_versions_and_reports_min_ver() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(1), 10);
        h.access(CoreId(0), MemOp::Store, addr(2), 20);
        assert_eq!(h.min_unpersisted(VdId(0)), Some(1));
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        let (walked, min_ver) = h.tag_walk(VdId(0));
        assert_eq!(walked.len(), 2);
        assert!(walked.iter().all(|v| v.abs_epoch == 1));
        assert!(walked.iter().all(|v| v.reason == EvictReason::TagWalk));
        assert_eq!(min_ver, 2, "nothing older than the current epoch remains");
        // Second walk finds nothing.
        let (walked2, _) = h.tag_walk(VdId(0));
        assert!(walked2.is_empty());
        // Data is still cached and current.
        assert_eq!(h.newest_token(LineAddr::new(1)), 10);
    }

    #[test]
    fn remote_load_downgrade_persists_newest_version() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(5), 50);
        h.take_events();
        h.access(CoreId(2), MemOp::Load, addr(5), 0);
        let v = versions(&mut h);
        assert_eq!(v.len(), 1, "downgrade persists the version once");
        assert_eq!(v[0].token, 50);
        assert_eq!(v[0].reason, EvictReason::CoherenceDowngrade);
        // Walker afterwards has nothing to do for that line.
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        let (walked, _) = h.tag_walk(VdId(0));
        assert!(walked.is_empty());
    }

    #[test]
    fn remote_store_c2c_transfers_obligation_without_omc_write() {
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(5), 50);
        h.take_events();
        // Remote store: optimization 2 — no OMC write; the version and its
        // persistence obligation move to VD 1.
        h.access(CoreId(2), MemOp::Store, addr(5), 60);
        let v = versions(&mut h);
        assert!(v.is_empty(), "C2C invalidation must not write the OMC");
        // The obligation now sits in VD 1: epoch sync made VD 1's epoch
        // match, and the (overwritten) version is current-epoch.
        assert_eq!(h.newest_token(LineAddr::new(5)), 60);
        assert_eq!(h.min_unpersisted(VdId(1)), Some(h.epoch(VdId(1))));
    }

    #[test]
    fn epoch_syncs_on_reading_future_data() {
        let cfg = small_cfg();
        let mut h = VersionedHierarchy::new(&cfg, CstConfig::default());
        // VD 0 advances to epoch 5.
        for _ in 0..4 {
            h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        }
        assert_eq!(h.epoch(VdId(0)), 5);
        h.access(CoreId(0), MemOp::Store, addr(9), 99);
        h.take_events();
        assert_eq!(h.epoch(VdId(1)), 1);
        // VD 1 reads the epoch-5 line: Lamport sync to 5.
        let (_lat, _stall, v) = h.access(CoreId(2), MemOp::Load, addr(9), 0);
        assert_eq!(v, 99, "reader sees the future epoch's value");
        assert_eq!(h.epoch(VdId(1)), 5);
        let advanced = h.take_events().into_iter().any(|e| {
            matches!(
                e,
                CstEvent::EpochAdvanced {
                    vd: VdId(1),
                    to_abs: 5,
                    cause: AdvanceCause::CoherenceSync,
                    ..
                }
            )
        });
        assert!(advanced);
    }

    #[test]
    fn epoch_advances_on_store_budget() {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(3)
            .build()
            .unwrap();
        let mut h = VersionedHierarchy::new(&cfg, CstConfig::default());
        for i in 0..7 {
            h.access(CoreId(0), MemOp::Store, addr(i), i + 1);
        }
        assert_eq!(h.epoch(VdId(0)), 3, "two budget advances after 7 stores");
        assert_eq!(h.epoch(VdId(1)), 1, "VD 1 did not store");
    }

    #[test]
    fn capacity_eviction_sends_unpersisted_version_to_omc_and_llc() {
        let mut h = hier();
        // L2 is 64 lines; write 200 distinct lines from one core.
        for i in 0..200 {
            h.access(CoreId(0), MemOp::Store, addr(i), 1000 + i);
        }
        let v = versions(&mut h);
        assert!(!v.is_empty(), "L2 capacity evictions persist versions");
        assert!(v.iter().all(|x| x.reason == EvictReason::CapacityMiss));
        // All data still reachable.
        for i in 0..200 {
            assert_eq!(h.newest_token(LineAddr::new(i)), 1000 + i, "line {i}");
        }
    }

    #[test]
    fn drain_persists_everything_and_updates_dram() {
        let mut h = hier();
        for i in 0..50 {
            h.access(CoreId((i % 4) as u16), MemOp::Store, addr(i), 500 + i);
        }
        h.take_events();
        let drained = h.drain();
        // Every line's final version must be persisted by *someone*
        // (either an earlier coherence/capacity event or the drain).
        for vd in 0..2 {
            assert_eq!(h.min_unpersisted(VdId(vd)), None);
        }
        assert!(!drained.is_empty());
        for i in 0..50 {
            assert_eq!(h.dram().peek(LineAddr::new(i)), 500 + i, "line {i}");
        }
    }

    #[test]
    fn wrap_around_group_flush_fires_and_preserves_data() {
        // A line written at a Lower-group epoch must be flushed out of the
        // hierarchy when epochs re-enter the Lower group one full 16-bit
        // wrap later (its tag would otherwise alias as "new").
        let cfg = small_cfg();
        let cst = CstConfig {
            initial_epoch: 2,
            ..CstConfig::default()
        };
        let mut h = VersionedHierarchy::new(&cfg, cst);
        h.access(CoreId(0), MemOp::Store, addr(1), 10);
        h.take_events();

        let mut flushed = Vec::new();
        // Advance VD 0 through two group crossings (into Upper at 32768,
        // back into Lower at 65536).
        while h.epoch(VdId(0)) < 2 * HALF_SPACE + 1 {
            h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
            for e in h.take_events() {
                if let CstEvent::Version(v) = e {
                    if v.reason == EvictReason::EpochFlush {
                        flushed.push(v);
                    }
                }
            }
            if h.epoch(VdId(0)) == HALF_SPACE + 5 {
                // While in the Upper group the Lower-tagged line is still
                // resident and current.
                assert_eq!(h.wrap_flushes(), 1);
                assert_eq!(h.newest_token(LineAddr::new(1)), 10);
                assert!(flushed.is_empty(), "nothing tagged Upper existed");
            }
        }
        assert_eq!(h.wrap_flushes(), 2);
        assert_eq!(flushed.len(), 1, "the old Lower-group version flushed");
        assert_eq!(flushed[0].token, 10);
        assert_eq!(flushed[0].abs_epoch, 2);
        // The data survived the flush (home in DRAM) and stays readable.
        assert_eq!(h.newest_token(LineAddr::new(1)), 10);
        // New stores after the wrap work normally.
        h.access(CoreId(0), MemOp::Store, addr(3), 30);
        assert_eq!(h.newest_token(LineAddr::new(3)), 30);
    }

    #[test]
    fn functional_correctness_mixed_sharing() {
        let mut h = hier();
        let mut model = std::collections::HashMap::new();
        let mut tok = 1u64;
        for i in 0..4000u64 {
            let core = CoreId((i % 4) as u16);
            let line = (i * 7 + i / 13) % 97;
            if i % 3 == 0 {
                h.access(core, MemOp::Load, addr(line), 0);
            } else {
                h.access(core, MemOp::Store, addr(line), tok);
                model.insert(line, tok);
                tok += 1;
            }
            if i % 500 == 499 {
                let vd = VdId(((i / 500) % 2) as u16);
                h.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
                h.tag_walk(vd);
            }
        }
        for (line, expect) in model {
            assert_eq!(h.newest_token(LineAddr::new(line)), expect, "line {line}");
        }
    }

    #[test]
    fn version_stream_has_no_duplicate_line_epoch_after_walk() {
        // Once a (line, epoch) version is persisted by the walker, later
        // evictions must not re-emit it.
        let mut h = hier();
        h.access(CoreId(0), MemOp::Store, addr(4), 44);
        h.advance_epoch_explicit(VdId(0), AdvanceCause::ExplicitMark);
        h.take_events();
        let (w, _) = h.tag_walk(VdId(0));
        assert_eq!(w.len(), 1);
        // Remote load later: the version is persisted; only a clean copy
        // transfer happens.
        h.access(CoreId(2), MemOp::Load, addr(4), 0);
        let v = versions(&mut h);
        assert!(
            v.iter()
                .all(|x| !(x.line == LineAddr::new(4) && x.abs_epoch == 1)),
            "persisted version re-emitted: {v:?}"
        );
    }
}
