//! The coherence engine every scheme runs on.
//!
//! One 3-level hierarchy: private L1-Ds, one shared inclusive L2 per
//! Versioned Domain (L2 cluster), and a distributed **non-inclusive** LLC
//! with a sparse directory — the organization the paper assumes for
//! modern multicores (§II-D) — under MESI or MOESI.
//!
//! [`Hierarchy`] is generic over a [`LinePolicy`], which decides what a
//! line carries besides its state and data, and what happens when a
//! store retires or a line leaves a level:
//!
//! * [`Mesi`] — the five baseline schemes. A line carries the epoch of
//!   its last store; the engine reports [`HierarchyEvent`]s (stores
//!   committed, dirty write-backs with their reason, epoch triggers) that
//!   a scheme in `nvbaselines` interprets — generating log writes,
//!   flushing write sets, walking tags — charging persistence stalls on
//!   top.
//! * `nvoverlay::cst::Cst` — NVOverlay's Coherent Snapshot Tracking
//!   (§IV): 16-bit version tags, a persisted-custody bit, store
//!   eviction, and Lamport epoch sync on coherence responses.
//!
//! Everything else is written once, here: the L1 fast path and the
//! reference path, the directory GETS/GETX transactions, sibling
//! resolution, downgrades and invalidations, L2 capacity evictions, LLC
//! installs, the final drain and the verification helpers. The hooks are
//! statically dispatched, so each policy's access path compiles to its
//! own straight-line code. Scheme-specific maintenance (the baselines'
//! `clwb` and tag walks, CST's tag walker and wrap-around flush) reaches
//! the levels through the small level-access API.

use crate::addr::{Addr, CoreId, LineAddr, Token, VdId};
use crate::cache::CacheArray;
use crate::clock::Cycle;
use crate::config::{Protocol, SimConfig};
use crate::directory::Directory;
use crate::dram::Dram;
use crate::memsys::MemOp;
use crate::mesi::{MesiState, Permission};
use crate::noc::{MsgKind, Noc};
use crate::stats::{AccessCounters, EvictReason};
use std::fmt;
use std::sync::Arc;

/// An epoch number as tracked by the *baseline* hierarchy.
///
/// Baselines use a monotonically increasing 64-bit epoch; the 16-bit
/// wrap-around OID machinery is specific to NVOverlay and lives there.
pub type EpochId = u64;

/// The epoch tag a line carries.
pub trait LineOid: Copy + PartialEq + fmt::Debug {
    /// The absolute epoch the tag denotes, seen from a VD whose current
    /// epoch is `reference`.
    fn to_abs(self, reference: u64) -> u64;
    /// The tag of absolute epoch `abs` (DRAM tags are stored as the low
    /// 16 bits of one).
    fn from_abs(abs: u64) -> Self;
    /// The tag's version is strictly newer than `other`'s.
    fn newer_than(self, other: Self) -> bool;
    /// The tag's version is `other`'s or newer.
    fn at_least(self, other: Self) -> bool {
        self == other || self.newer_than(other)
    }
}

impl LineOid for EpochId {
    fn to_abs(self, _reference: u64) -> u64 {
        self
    }

    fn from_abs(abs: u64) -> Self {
        abs
    }

    fn newer_than(self, other: Self) -> bool {
        self > other
    }
}

/// A line's persisted-custody bit: `bool` where a policy tracks which
/// versions have been handed to persistence, `()` where it tracks none
/// (every line then reads as persisted).
pub trait PersistBit: Copy + fmt::Debug {
    /// The bit holding `persisted`.
    fn new(persisted: bool) -> Self;
    /// Whether the line's version has been handed to persistence.
    fn get(self) -> bool;
    /// Updates the bit.
    fn set(&mut self, persisted: bool);
}

impl PersistBit for () {
    fn new(_persisted: bool) -> Self {}

    fn get(self) -> bool {
        true
    }

    fn set(&mut self, _persisted: bool) {}
}

impl PersistBit for bool {
    fn new(persisted: bool) -> Self {
        persisted
    }

    fn get(self) -> bool {
        self
    }

    fn set(&mut self, persisted: bool) {
        *self = persisted;
    }
}

/// Per-line L1/L2 metadata.
#[derive(Clone, Copy, Debug)]
pub struct Line<O, F> {
    /// Coherence state.
    pub state: MesiState,
    /// Newest content of this copy.
    pub token: Token,
    /// Epoch of the last store.
    pub oid: O,
    /// Persisted-custody bit (see [`PersistBit`]).
    pub persisted: F,
}

impl<O: LineOid, F: PersistBit> Line<O, F> {
    fn new(state: MesiState, token: Token, oid: O, persisted: bool) -> Self {
        Self {
            state,
            token,
            oid,
            persisted: F::new(persisted),
        }
    }

    /// A dirty version not yet handed to persistence.
    #[inline]
    pub fn unpersisted(&self) -> bool {
        self.state.is_dirty() && !self.persisted.get()
    }
}

/// Per-line LLC metadata (non-inclusive victim cache; no version protocol
/// below the VDs, §IV-A4 — the tag rides along so responses can carry it).
#[derive(Clone, Copy, Debug)]
pub struct LlcLine<O> {
    /// Content.
    pub token: Token,
    /// Epoch of the last store.
    pub oid: O,
    /// Newer than the DRAM working copy.
    pub dirty: bool,
}

/// The L1/L2 line type of policy `P`.
pub type LineOf<P> = Line<<P as LinePolicy>::Oid, <P as LinePolicy>::Persisted>;

/// A directory response on its way to the requesting VD's L2.
#[derive(Clone, Copy, Debug)]
pub struct Fetch {
    /// The data.
    pub token: Token,
    /// Absolute epoch of the data's tag — the response's RV (§IV-B2).
    pub rv: u64,
    /// State granted to the requester's L2.
    pub state: MesiState,
    /// The data is newer than the DRAM working copy.
    pub dirty: bool,
    /// The data's version has already been handed to persistence (false
    /// only for an unpersisted version moving cache-to-cache).
    pub persisted: bool,
}

/// What a line carries besides state and data, and what happens when it
/// moves. Every hook is statically dispatched; those taking
/// `&mut Hierarchy<Self>` may touch any level through the level-access
/// API, so a policy defined in another crate keeps its maintenance next
/// to its hooks.
pub trait LinePolicy: Sized {
    /// The line's epoch tag.
    type Oid: LineOid;
    /// The line's persisted-custody bit.
    type Persisted: PersistBit;
    /// What the hierarchy reports to the scheme driving it.
    type Event: Copy + fmt::Debug;
    /// Whether tags order versions. Unversioned lines carry the last
    /// store's epoch but no version order: the copy nearest the cores is
    /// the newest.
    const VERSIONED: bool;

    /// The absolute epoch every VD starts in.
    fn initial_epoch(&self) -> u64 {
        1
    }

    /// A store retires into `old` (the line before the store) under tag
    /// `cur`.
    fn store_committed(
        _events: &mut Vec<Self::Event>,
        _line: LineAddr,
        _old: &LineOf<Self>,
        _cur: Self::Oid,
    ) {
    }

    /// `vd` used up its per-epoch store budget. Returns the stall charged
    /// to the access.
    fn store_budget(h: &mut Hierarchy<Self>, vd: VdId) -> Cycle;

    /// A directory response reaches `vd`, before the line installs.
    /// Returns the stall charged to the access.
    fn fetched(_h: &mut Hierarchy<Self>, _vd: VdId, _f: &Fetch) -> Cycle {
        0
    }

    /// An unpersisted version leaves `vd` for persistence.
    fn version_out(
        _h: &mut Hierarchy<Self>,
        _vd: VdId,
        _line: LineAddr,
        _token: Token,
        _oid: Self::Oid,
        _reason: EvictReason,
    ) {
    }

    /// Dirty data left `vd`'s L2 for the LLC.
    fn l2_writeback(
        _h: &mut Hierarchy<Self>,
        _vd: VdId,
        _line: LineAddr,
        _token: Token,
        _oid: Self::Oid,
        _reason: EvictReason,
    ) {
    }

    /// A dirty LLC victim went home to DRAM.
    fn llc_writeback(
        _h: &mut Hierarchy<Self>,
        _line: LineAddr,
        _token: Token,
        _oid: Self::Oid,
        _reason: EvictReason,
    ) {
    }

    /// Dirty data tagged `oid` reached its DRAM home (after the DRAM
    /// write).
    fn home_written(_h: &mut Hierarchy<Self>, _line: LineAddr, _oid: Self::Oid) {}
}

/// Something the baseline hierarchy did that a persistence scheme may
/// care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HierarchyEvent {
    /// A store retired. `first_in_epoch` is true when this is the first
    /// store to the line in the current epoch (undo-logging trigger).
    StoreCommitted {
        /// The line written.
        line: LineAddr,
        /// The line's content before the store (undo-log pre-image).
        old_token: Token,
        /// Epoch of the previous store to the line.
        old_oid: EpochId,
        /// Epoch the store happened in.
        new_oid: EpochId,
        /// Whether this is the first store to the line this epoch.
        first_in_epoch: bool,
    },
    /// A dirty line left an L2 (downward): capacity eviction or coherence
    /// downgrade. PiCL-L2-style schemes persist on this event.
    L2Writeback {
        /// The VD whose L2 wrote back.
        vd: VdId,
        /// The line written back.
        line: LineAddr,
        /// Newest content.
        token: Token,
        /// Epoch of the last store.
        oid: EpochId,
        /// Why it left.
        reason: EvictReason,
    },
    /// A dirty line left the LLC toward memory. LLC-based schemes (PiCL)
    /// persist on this event; the hierarchy has already updated the DRAM
    /// working copy.
    LlcWriteback {
        /// The line written back.
        line: LineAddr,
        /// Newest content.
        token: Token,
        /// Epoch of the last store.
        oid: EpochId,
        /// Why it left.
        reason: EvictReason,
    },
    /// A VD crossed the configured store budget for one epoch; the scheme
    /// should advance epochs per its own policy.
    EpochTrigger {
        /// The VD whose budget expired.
        vd: VdId,
    },
}

/// The baseline policy: plain MESI/MOESI lines tagged with the epoch of
/// their last store, no version custody.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mesi;

impl LinePolicy for Mesi {
    type Oid = EpochId;
    type Persisted = ();
    type Event = HierarchyEvent;
    const VERSIONED: bool = false;

    #[inline]
    fn store_committed(
        events: &mut Vec<HierarchyEvent>,
        line: LineAddr,
        old: &LineOf<Self>,
        cur: EpochId,
    ) {
        events.push(HierarchyEvent::StoreCommitted {
            line,
            old_token: old.token,
            old_oid: old.oid,
            new_oid: cur,
            first_in_epoch: old.oid != cur,
        });
    }

    fn store_budget(h: &mut Hierarchy<Self>, vd: VdId) -> Cycle {
        h.events.push(HierarchyEvent::EpochTrigger { vd });
        0
    }

    fn l2_writeback(
        h: &mut Hierarchy<Self>,
        vd: VdId,
        line: LineAddr,
        token: Token,
        oid: EpochId,
        reason: EvictReason,
    ) {
        h.events.push(HierarchyEvent::L2Writeback {
            vd,
            line,
            token,
            oid,
            reason,
        });
    }

    fn llc_writeback(
        h: &mut Hierarchy<Self>,
        line: LineAddr,
        token: Token,
        oid: EpochId,
        reason: EvictReason,
    ) {
        h.events.push(HierarchyEvent::LlcWriteback {
            line,
            token,
            oid,
            reason,
        });
    }
}

/// A dirty line surfaced by a flush/drain/walk helper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirtyLine<O = EpochId> {
    /// The line.
    pub line: LineAddr,
    /// Its newest content.
    pub token: Token,
    /// Epoch of its last store.
    pub oid: O,
}

/// The newest copy of a line within one VD, gathered from its L2 copy and
/// then each L1 copy. Custody is tracked twice because the paths that
/// hand the newest version on (invalidation, MOESI Owned) and the paths
/// that persist it (MESI downgrade, capacity eviction) combine equal-tag
/// copies differently; the two readings differ only over a clean L2 copy.
struct Newest<O> {
    token: Token,
    oid: O,
    /// Any gathered copy is dirty.
    dirty: bool,
    /// The newest copy's version is persisted (the AND over equal-tag
    /// dirty copies).
    persisted: bool,
    /// The newest copy is an unpersisted version (the OR over equal-tag
    /// dirty copies).
    unpersisted: bool,
    /// An unpersisted L2 version superseded by a newer L1 version.
    older: Option<(Token, O)>,
}

impl<O: LineOid> Newest<O> {
    fn of_l2<F: PersistBit>(l2: &Line<O, F>) -> Self {
        Self {
            token: l2.token,
            oid: l2.oid,
            dirty: l2.state.is_dirty(),
            persisted: l2.persisted.get(),
            unpersisted: l2.unpersisted(),
            older: None,
        }
    }

    /// Folds in one L1 copy of the VD whose L2 copy is `l2`.
    fn fold<F: PersistBit>(&mut self, versioned: bool, l2: &Line<O, F>, m: &Line<O, F>) {
        if !m.state.is_dirty() {
            return;
        }
        if !versioned || m.oid.newer_than(self.oid) {
            if l2.unpersisted() {
                self.older = Some((l2.token, l2.oid));
            }
            self.token = m.token;
            self.oid = m.oid;
            self.persisted = m.persisted.get();
            self.unpersisted = !m.persisted.get();
            self.dirty = true;
        } else if m.oid == self.oid {
            self.token = m.token;
            self.persisted = self.persisted && m.persisted.get();
            self.unpersisted = self.unpersisted || !m.persisted.get();
            self.dirty = true;
        }
    }
}

/// The coherence engine, parameterized by its line policy.
pub struct Hierarchy<P: LinePolicy = Mesi> {
    cfg: Arc<SimConfig>,
    policy: P,
    l1s: Vec<CacheArray<LineOf<P>>>,
    l2s: Vec<CacheArray<LineOf<P>>>,
    llc: Vec<CacheArray<LlcLine<P::Oid>>>,
    dir: Directory,
    noc: Noc,
    dram: Dram,
    vd_epoch: Vec<u64>,
    store_counts: Vec<u64>,
    counters: AccessCounters,
    events: Vec<P::Event>,
}

impl Hierarchy<Mesi> {
    /// Builds a baseline hierarchy from a validated configuration.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::with_policy(Arc::new(cfg.clone()), Mesi)
    }
}

impl<P: LinePolicy> Hierarchy<P> {
    /// Builds a hierarchy sharing an already-wrapped configuration —
    /// matrix sweeps hand every cell the same `Arc` instead of cloning
    /// the config per hierarchy.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn with_policy(cfg: Arc<SimConfig>, policy: P) -> Self {
        cfg.validate().expect("invalid SimConfig");
        let vds = cfg.vd_count() as usize;
        let slices = cfg.llc_slices as u64;
        let slice_sets = cfg.llc_slice_bytes() / (crate::addr::LINE_BYTES * cfg.llc.ways as u64);
        let initial = policy.initial_epoch();
        Self {
            l1s: (0..cfg.cores as usize)
                .map(|_| CacheArray::from_params(&cfg.l1))
                .collect(),
            l2s: (0..vds).map(|_| CacheArray::from_params(&cfg.l2)).collect(),
            llc: (0..slices)
                .map(|_| CacheArray::with_stride(slice_sets, cfg.llc.ways, slices))
                .collect(),
            dir: Directory::new(),
            noc: Noc::new(cfg.noc_hop_latency),
            dram: Dram::new(cfg.dram_latency, cfg.dram_oid_superblock_lines),
            vd_epoch: vec![initial; vds],
            store_counts: vec![0; vds],
            counters: AccessCounters::default(),
            events: Vec::new(),
            policy,
            cfg,
        }
    }

    /// The shared configuration handle (for constructing sibling
    /// components without another clone).
    pub fn config_shared(&self) -> &Arc<SimConfig> {
        &self.cfg
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The line policy's state.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the line policy's state.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The VD a core belongs to.
    pub fn vd_of(&self, core: CoreId) -> VdId {
        VdId(core.0 / self.cfg.cores_per_vd)
    }

    fn slice_of(&self, line: LineAddr) -> usize {
        (line.raw() % self.cfg.llc_slices as u64) as usize
    }

    /// The cores of `vd`.
    pub fn local_cores(&self, vd: VdId) -> std::ops::Range<u16> {
        let base = vd.0 * self.cfg.cores_per_vd;
        base..base + self.cfg.cores_per_vd
    }

    /// Current (absolute) epoch of a VD.
    pub fn epoch(&self, vd: VdId) -> u64 {
        self.vd_epoch[vd.index()]
    }

    /// Every VD's current epoch, by VD index.
    pub fn epochs(&self) -> &[u64] {
        &self.vd_epoch
    }

    /// Moves `vd` to epoch `abs` and resets its store budget.
    pub fn set_epoch(&mut self, vd: VdId, abs: u64) {
        self.vd_epoch[vd.index()] = abs;
        self.store_counts[vd.index()] = 0;
    }

    /// The absolute epoch `oid` denotes, seen from `vd`.
    #[inline]
    pub fn abs_of(&self, oid: P::Oid, vd: VdId) -> u64 {
        oid.to_abs(self.vd_epoch[vd.index()])
    }

    #[inline]
    fn cur_oid(&self, vd: VdId) -> P::Oid {
        P::Oid::from_abs(self.vd_epoch[vd.index()])
    }

    /// Access counters (hits per level, etc.).
    pub fn counters(&self) -> &AccessCounters {
        &self.counters
    }

    /// The NoC model (for traffic reports).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// The DRAM working memory.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable access to the DRAM working memory.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    // ---- Level access (scheme-specific maintenance) --------------------

    /// The L1s, by core index.
    pub fn l1s(&self) -> &[CacheArray<LineOf<P>>] {
        &self.l1s
    }

    /// Mutable L1s, by core index.
    pub fn l1s_mut(&mut self) -> &mut [CacheArray<LineOf<P>>] {
        &mut self.l1s
    }

    /// The L2s, by VD index.
    pub fn l2s(&self) -> &[CacheArray<LineOf<P>>] {
        &self.l2s
    }

    /// Mutable L2s, by VD index.
    pub fn l2s_mut(&mut self) -> &mut [CacheArray<LineOf<P>>] {
        &mut self.l2s
    }

    /// The LLC slices.
    pub fn llc(&self) -> &[CacheArray<LlcLine<P::Oid>>] {
        &self.llc
    }

    /// Mutable LLC slices.
    pub fn llc_mut(&mut self) -> &mut [CacheArray<LlcLine<P::Oid>>] {
        &mut self.llc
    }

    /// Mutable access to the directory.
    pub fn dir_mut(&mut self) -> &mut Directory {
        &mut self.dir
    }

    // ---- Events ---------------------------------------------------------

    /// Events produced since the last [`Hierarchy::swap_events`] or
    /// [`Hierarchy::take_events`].
    pub fn events(&self) -> &[P::Event] {
        &self.events
    }

    /// Appends an event.
    pub fn emit(&mut self, e: P::Event) {
        self.events.push(e);
    }

    /// Drains the event buffer.
    pub fn take_events(&mut self) -> Vec<P::Event> {
        std::mem::take(&mut self.events)
    }

    /// Drains the event buffer into `buf` by swapping — the hot-path
    /// variant of [`Hierarchy::take_events`]: the consumer hands back its
    /// (cleared) scratch vector so neither side reallocates.
    pub fn swap_events(&mut self, buf: &mut Vec<P::Event>) {
        debug_assert!(buf.is_empty(), "swap_events expects a cleared buffer");
        std::mem::swap(&mut self.events, buf);
    }

    // ---- Access path ----------------------------------------------------

    /// Performs one access and returns `(latency, stall, value)`: the
    /// latency including `stall` (the policy's epoch-advance stalls
    /// within it) and the value loaded (for loads) or stored (for
    /// stores), letting callers verify read coherence end-to-end.
    /// Persistence-relevant events are appended to [`Hierarchy::events`].
    pub fn access(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        token: Token,
    ) -> (Cycle, Cycle, Token) {
        let line = addr.line();
        let vd = self.vd_of(core);
        let ci = core.index();
        let perm = match op {
            MemOp::Load => Permission::Read,
            MemOp::Store => Permission::Write,
        };
        match op {
            MemOp::Load => self.counters.loads += 1,
            MemOp::Store => self.counters.stores += 1,
        }
        let lat = self.cfg.l1.latency;

        // An L1 hit with sufficient permission. The fast path's single
        // `get_mut` probe both classifies the hit and yields the slot a
        // store retires into; the reference path probes with `get` and
        // retires through `commit_store`. A store onto an unpersisted
        // version of an older epoch needs the §IV-A1 store-eviction and
        // takes `commit_store` either way. Everything observable
        // (counters, LRU promotion, events, store budget) is identical.
        let store_hit = if self.cfg.replay_fast_path {
            let cur = self.cur_oid(vd);
            match self.l1s[ci].get_mut(line) {
                Some(l) if perm.satisfied_by(l.state) => {
                    self.counters.l1_hits += 1;
                    if op == MemOp::Load {
                        return (lat, 0, l.token);
                    }
                    if !(l.unpersisted() && l.oid != cur) {
                        Self::store_line(l, line, token, cur, &mut self.events);
                        let stall = self.count_store(vd);
                        return (lat + stall, stall, token);
                    }
                    true
                }
                _ => false,
            }
        } else {
            match self.l1s[ci].get(line) {
                Some(l) if perm.satisfied_by(l.state) => {
                    self.counters.l1_hits += 1;
                    if op == MemOp::Load {
                        return (lat, 0, l.token);
                    }
                    true
                }
                _ => false,
            }
        };
        if store_hit {
            let stall = self.commit_store(core, vd, line, token);
            return (lat + stall, stall, token);
        }

        // L1 miss (or upgrade). Go to the L2.
        let (l2_lat, mut stall) = self.ensure_l2(vd, line, perm);
        // Intra-VD: resolve sibling L1 copies. After a load-resolve,
        // siblings retain S copies: the new fill must then also be S
        // (granting E beside a live sharer would let a later store skip
        // the sibling invalidation).
        let (sib_lat, sibling_retains) = self.resolve_sibling_l1s(core, vd, line, op);
        let lat = lat + self.cfg.l2.latency + l2_lat + sib_lat;

        // Fill or upgrade the L1 from the L2. The L2 keeps version
        // custody, so the L1 copy starts persisted.
        let l2_meta = *self.l2s[vd.index()]
            .peek(line)
            .expect("L2 must hold the line after ensure_l2 (inclusion)");
        let fill_state = match op {
            MemOp::Load if sibling_retains => MesiState::S,
            MemOp::Load => match l2_meta.state {
                MesiState::M | MesiState::E => MesiState::E,
                // The L2 keeps the dirty Owned copy; L1s read it Shared.
                MesiState::S | MesiState::O => MesiState::S,
                MesiState::I => unreachable!("ensure_l2 grants at least S"),
            },
            MemOp::Store => MesiState::E,
        };
        // Fill and (for stores) retire in one pass: the store updates the
        // filled line before it is inserted, so no second probe is needed.
        // A fresh fill is persisted, so it never store-evicts, and the
        // victim writeback touches a different line.
        let store = op == MemOp::Store;
        let cur = self.cur_oid(vd);
        let fill = LineOf::<P>::new(fill_state, l2_meta.token, l2_meta.oid, true);
        match self.l1s[ci].peek_mut(line) {
            Some(l) => {
                debug_assert!(!l.state.is_dirty(), "upgrades start from a clean state");
                *l = fill;
                if store {
                    Self::store_line(l, line, token, cur, &mut self.events);
                }
            }
            None => {
                let mut meta = fill;
                if store {
                    Self::store_line(&mut meta, line, token, cur, &mut self.events);
                }
                if let Some((vline, vmeta)) = self.l1s[ci].insert(line, meta) {
                    self.l1_writeback(vd, vline, vmeta, EvictReason::CapacityMiss);
                }
            }
        }
        if store {
            stall += self.count_store(vd);
            return (lat + stall, stall, token);
        }
        (lat + stall, stall, l2_meta.token)
    }

    /// The store-retire body on an already-located L1 slot: the policy
    /// sees the pre-store line, then the line becomes a dirty,
    /// unpersisted version of the current epoch.
    #[inline]
    fn store_line(
        l: &mut LineOf<P>,
        line: LineAddr,
        token: Token,
        cur: P::Oid,
        events: &mut Vec<P::Event>,
    ) {
        debug_assert!(l.state.is_writable(), "store commit requires M/E");
        P::store_committed(events, line, l, cur);
        l.token = token;
        l.oid = cur;
        l.state = MesiState::M;
        l.persisted.set(false);
    }

    /// Counts a retired store against the VD's epoch budget.
    #[inline]
    fn count_store(&mut self, vd: VdId) -> Cycle {
        let sc = &mut self.store_counts[vd.index()];
        *sc += 1;
        if *sc < self.cfg.epoch_size_stores {
            return 0;
        }
        *sc = 0;
        P::store_budget(self, vd)
    }

    /// Retires a store into an L1 line with write permission. A dirty,
    /// unpersisted version of an older epoch is immutable: it is first
    /// store-evicted into the L2 (§IV-A1).
    fn commit_store(&mut self, core: CoreId, vd: VdId, line: LineAddr, token: Token) -> Cycle {
        let cur = self.cur_oid(vd);
        let meta = *self.l1s[core.index()]
            .peek(line)
            .expect("store commit requires a resident L1 line");
        if meta.unpersisted() && meta.oid != cur {
            self.l1_writeback(vd, line, meta, EvictReason::StoreEviction);
        }
        let l = self.l1s[core.index()]
            .peek_mut(line)
            .expect("store commit requires a resident L1 line");
        Self::store_line(l, line, token, cur, &mut self.events);
        self.count_store(vd)
    }

    /// Folds a copy leaving an L1 into the VD's L2 (which holds the line,
    /// by inclusion). Clean copies leave silently; persisted dirty data
    /// overwrites an L2 copy that is not newer. An unpersisted version is
    /// a version PUTX (§IV-A2): it displaces an older unpersisted L2
    /// version to persistence first.
    fn l1_writeback(&mut self, vd: VdId, line: LineAddr, m: LineOf<P>, reason: EvictReason) {
        if !m.state.is_dirty() {
            return;
        }
        let l2 = self.l2s[vd.index()]
            .peek_mut(line)
            .expect("inclusion: L2 must hold every L1 line");
        if m.persisted.get() {
            if !P::VERSIONED || m.oid.at_least(l2.oid) {
                *l2 = LineOf::<P>::new(MesiState::M, m.token, m.oid, true);
            }
            return;
        }
        debug_assert!(
            !l2.state.is_dirty() || m.oid.at_least(l2.oid),
            "L1 versions are never older than the L2 version (§IV-A2 invariant)"
        );
        let displaced = (l2.unpersisted() && m.oid != l2.oid).then_some((l2.token, l2.oid));
        *l2 = LineOf::<P>::new(MesiState::M, m.token, m.oid, false);
        if let Some((token, oid)) = displaced {
            P::version_out(self, vd, line, token, oid, reason);
        }
    }

    /// Invalidates (stores) or downgrades to S (loads) sibling L1 copies
    /// within the VD, folding dirty data into the L2. Returns extra
    /// latency plus whether any sibling retains a (Shared) copy.
    fn resolve_sibling_l1s(
        &mut self,
        core: CoreId,
        vd: VdId,
        line: LineAddr,
        op: MemOp,
    ) -> (Cycle, bool) {
        let mut lat = 0;
        let mut retains = false;
        for c in self.local_cores(vd) {
            if c == core.0 {
                continue;
            }
            let ci = c as usize;
            let (meta, reason) = match op {
                MemOp::Store => {
                    let Some(m) = self.l1s[ci].remove(line) else {
                        continue;
                    };
                    (m, EvictReason::CoherenceInvalidation)
                }
                MemOp::Load => {
                    let Some(l) = self.l1s[ci].peek_mut(line) else {
                        continue;
                    };
                    let m = *l;
                    l.state = MesiState::S;
                    l.persisted.set(true);
                    retains = true;
                    (m, EvictReason::CoherenceDowngrade)
                }
            };
            lat += self.cfg.l1.latency;
            // Intra-VD transfer: a version moves to the L2 (it stays
            // inside the VD — unless it displaces an older L2 version).
            self.l1_writeback(vd, line, meta, reason);
        }
        (lat, retains)
    }

    /// Ensures the VD's L2 holds `line` with permission `perm`. Returns
    /// `(extra latency beyond the L2 lookup, policy stall)`.
    fn ensure_l2(&mut self, vd: VdId, line: LineAddr, perm: Permission) -> (Cycle, Cycle) {
        if let Some(l2) = self.l2s[vd.index()].get(line) {
            if perm.satisfied_by(l2.state) {
                self.counters.l2_hits += 1;
                return (0, 0);
            }
        }
        // Inter-VD transaction through the directory at the LLC.
        let mut lat = self.cfg.llc.latency;
        let f = match perm {
            Permission::Read => {
                lat += self.noc.send(MsgKind::GetS);
                self.dir_gets(vd, line, &mut lat)
            }
            Permission::Write => {
                lat += self.noc.send(MsgKind::GetX);
                self.dir_getx(vd, line, &mut lat)
            }
        };
        let stall = P::fetched(self, vd, &f);

        // Install into the L2 (upgrade in place or fill). Versioned lines
        // always take the response's tag; unversioned ones keep their own
        // copy unless the response brings dirty data.
        let oid = P::Oid::from_abs(f.rv);
        match self.l2s[vd.index()].peek_mut(line) {
            Some(l) => {
                debug_assert!(
                    !l.state.is_dirty() || l.state == MesiState::O,
                    "upgrades start from a clean or Owned state"
                );
                l.state = f.state;
                if P::VERSIONED || f.dirty {
                    l.token = f.token;
                    l.oid = oid;
                }
                l.persisted.set(f.persisted);
            }
            None => {
                let fill = LineOf::<P>::new(f.state, f.token, oid, f.persisted);
                if let Some((vline, vmeta)) = self.l2s[vd.index()].insert(line, fill) {
                    self.evict_l2_line(vd, vline, vmeta);
                }
            }
        }
        (lat, stall)
    }

    /// The LLC copy of `line` (removed when `take`), counting the hit.
    fn llc_copy(&mut self, line: LineAddr, take: bool) -> Option<LlcLine<P::Oid>> {
        let s = self.slice_of(line);
        let c = if take {
            self.llc[s].remove(line)
        } else {
            self.llc[s].get(line).copied()
        };
        if c.is_some() {
            self.counters.llc_hits += 1;
        }
        c
    }

    /// Reads `line` from DRAM with its (super-block) tag.
    fn dram_copy(&mut self, line: LineAddr, lat: &mut Cycle) -> (Token, P::Oid) {
        *lat += self.dram.latency();
        self.counters.mem_fetches += 1;
        let token = self.dram.read(line);
        let oid = P::Oid::from_abs(self.dram.oid(line).unwrap_or(0) as u64);
        (token, oid)
    }

    /// Invalidates every sharer of `e` except `keep` and `also_keep`.
    fn invalidate_sharers(
        &mut self,
        line: LineAddr,
        e: &crate::directory::DirEntry,
        keep: u16,
        also_keep: Option<u16>,
        lat: &mut Cycle,
    ) {
        for sh in e.sharers_except(keep) {
            if Some(sh) == also_keep {
                continue;
            }
            *lat += self.noc.send(MsgKind::FwdGetX);
            self.noc.send(MsgKind::InvAck);
            self.invalidate_vd_clean(VdId(sh), line);
            self.dir.remove_node(line, sh);
        }
    }

    /// Directory GETX: acquire exclusive ownership for `vd` (§IV-A3,
    /// Fig 6). A remote owner's newest copy moves cache-to-cache with
    /// its persistence obligation (optimization 2); an older unpersisted
    /// version there goes to persistence.
    fn dir_getx(&mut self, vd: VdId, line: LineAddr, lat: &mut Cycle) -> Fetch {
        let granted = |token, rv, dirty, persisted| Fetch {
            token,
            rv,
            state: if dirty { MesiState::M } else { MesiState::E },
            dirty,
            persisted,
        };
        let Some(e) = self.dir.entry(line).copied() else {
            // Nobody caches it: LLC then DRAM.
            let (token, oid, dirty) = match self.llc_copy(line, true) {
                Some(c) => (c.token, c.oid, c.dirty),
                None => {
                    let (t, o) = self.dram_copy(line, lat);
                    (t, o, false)
                }
            };
            self.dir.set_owner(line, vd.0);
            return granted(token, self.abs_of(oid, vd), dirty, true);
        };
        match e.owner() {
            Some(owner) if owner != vd.0 => {
                // Under MOESI the Owned line may have plain sharers too —
                // invalidate them alongside.
                self.invalidate_sharers(line, &e, vd.0, Some(owner), lat);
                *lat += self.noc.send(MsgKind::FwdGetX);
                *lat += self.cfg.l2.latency;
                let ov = VdId(owner);
                let n = self.strip_vd(ov, line);
                if let Some((t, o)) = n.older {
                    P::version_out(self, ov, line, t, o, EvictReason::CoherenceInvalidation);
                }
                let rv = self.abs_of(n.oid, ov);
                *lat += self.noc.send(MsgKind::CacheToCache);
                self.dir.remove_node(line, owner);
                self.dir.set_owner(line, vd.0);
                // Drop any LLC copy. It can be dirty: a sole-fetcher GETS
                // leaves a dirty LLC line behind while granting E, and the
                // E owner may have silently upgraded to M. The requester's
                // copy must then stay dirty w.r.t. memory.
                let s = self.slice_of(line);
                let llc_dirty = self.llc[s].remove(line).is_some_and(|m| m.dirty);
                granted(n.token, rv, n.dirty || llc_dirty, n.persisted || !n.dirty)
            }
            Some(_) => {
                // We already own it (the MOESI O→M upgrade): invalidate
                // the other sharers; the data and its persistence custody
                // stay in place.
                self.invalidate_sharers(line, &e, vd.0, None, lat);
                self.dir.set_owner(line, vd.0);
                let l2 = *self.l2s[vd.index()].peek(line).expect("owner holds line");
                let rv = self.abs_of(l2.oid, vd);
                granted(l2.token, rv, l2.state.is_dirty(), l2.persisted.get())
            }
            None => {
                // Shared: invalidate every other sharer (clean by MESI).
                self.invalidate_sharers(line, &e, vd.0, None, lat);
                // Data source: the LLC, our own S copy, or DRAM.
                let own = self.l2s[vd.index()].peek(line).map(|o| (o.token, o.oid));
                let (token, oid, dirty) = match (self.llc_copy(line, true), own) {
                    (Some(c), _) => (c.token, c.oid, c.dirty),
                    (None, Some((t, o))) => (t, o, false),
                    (None, None) => {
                        let (t, o) = self.dram_copy(line, lat);
                        (t, o, false)
                    }
                };
                self.dir.remove_node(line, vd.0); // clear own S membership
                self.dir.set_owner(line, vd.0);
                granted(token, self.abs_of(oid, vd), dirty, true)
            }
        }
    }

    /// Directory GETS: acquire a readable copy for `vd` (§IV-A3, Fig 5).
    /// Under MESI a remote owner's newest data lands in the LLC and its
    /// unpersisted version goes to persistence; an older unpersisted L2
    /// version is persisted without touching the LLC (optimization 1).
    /// Under MOESI the owner keeps the newest data Owned in place.
    fn dir_gets(&mut self, vd: VdId, line: LineAddr, lat: &mut Cycle) -> Fetch {
        let shared = |token, rv| Fetch {
            token,
            rv,
            state: MesiState::S,
            dirty: false,
            persisted: true,
        };
        let entry = self.dir.entry(line).copied();
        if let Some(owner) = entry.and_then(|e| e.owner()) {
            debug_assert_ne!(owner, vd.0, "self-owned lines hit in ensure_l2");
            *lat += self.noc.send(MsgKind::FwdGetS);
            *lat += self.cfg.l2.latency;
            let ov = VdId(owner);
            let moesi = self.cfg.protocol == Protocol::Moesi;
            let n = self.downgrade_vd(ov, line, moesi);
            if let Some((t, o)) = n.older {
                P::version_out(self, ov, line, t, o, EvictReason::CoherenceDowngrade);
            }
            let rv = self.abs_of(n.oid, ov);
            if moesi {
                // Supplied cache-to-cache: no LLC write, no write-back.
                *lat += self.noc.send(MsgKind::CacheToCache);
                self.dir.add_sharer_keep_owner(line, vd.0);
            } else {
                if n.unpersisted {
                    P::version_out(
                        self,
                        ov,
                        line,
                        n.token,
                        n.oid,
                        EvictReason::CoherenceDowngrade,
                    );
                }
                *lat += self.noc.send(MsgKind::Data);
                if n.dirty {
                    let deposit = LlcLine {
                        token: n.token,
                        oid: n.oid,
                        dirty: true,
                    };
                    self.llc_install(line, deposit, EvictReason::CapacityMiss);
                    P::l2_writeback(
                        self,
                        ov,
                        line,
                        n.token,
                        n.oid,
                        EvictReason::CoherenceDowngrade,
                    );
                }
                self.dir.downgrade_owner(line);
                self.dir.add_sharer(line, vd.0);
            }
            return shared(n.token, rv);
        }
        // Shared already, or nobody caches it: the LLC or DRAM supplies
        // data. A dirty LLC copy stays in the LLC (it still backs memory);
        // a sole fetcher's copy is clean-exclusive relative to it.
        let (token, oid) = match self.llc_copy(line, false) {
            Some(c) => (c.token, c.oid),
            None => self.dram_copy(line, lat),
        };
        let rv = self.abs_of(oid, vd);
        if entry.is_some() {
            self.dir.add_sharer(line, vd.0);
            return shared(token, rv);
        }
        self.dir.set_owner(line, vd.0);
        Fetch {
            state: MesiState::E,
            ..shared(token, rv)
        }
    }

    /// Removes every copy of `line` from `vd` (external invalidation),
    /// returning the newest.
    fn strip_vd(&mut self, vd: VdId, line: LineAddr) -> Newest<P::Oid> {
        let l2 = self.l2s[vd.index()]
            .remove(line)
            .expect("directory says the VD caches the line");
        let mut n = Newest::of_l2(&l2);
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].remove(line) {
                n.fold(P::VERSIONED, &l2, &m);
            }
        }
        n
    }

    /// External downgrade of `vd`'s copies, returning the newest. Every
    /// copy drops to S with the newest data folded in — except that under
    /// MOESI a dirty L2 keeps it Owned, together with its persistence
    /// custody.
    fn downgrade_vd(&mut self, vd: VdId, line: LineAddr, moesi: bool) -> Newest<P::Oid> {
        let l2 = *self.l2s[vd.index()]
            .peek(line)
            .expect("directory says the VD caches the line");
        let mut n = Newest::of_l2(&l2);
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                n.fold(P::VERSIONED, &l2, m);
                *m = LineOf::<P>::new(MesiState::S, n.token, n.oid, true);
            }
        }
        let owned = moesi && n.dirty;
        let l2 = self.l2s[vd.index()].peek_mut(line).expect("resident");
        l2.token = n.token;
        l2.oid = n.oid;
        l2.state = if owned { MesiState::O } else { MesiState::S };
        l2.persisted.set(!owned || n.persisted);
        n
    }

    /// Invalidates a clean shared copy in `vd`.
    fn invalidate_vd_clean(&mut self, vd: VdId, line: LineAddr) {
        self.l2s[vd.index()].remove(line);
        for c in self.local_cores(vd) {
            self.l1s[c as usize].remove(line);
        }
    }

    /// Evicts a line from an L2 (pulling back its L1 copies, by
    /// inclusion) into the LLC (§IV-A2): an unpersisted newest version
    /// also goes to persistence over the LLC-bypass path.
    fn evict_l2_line(&mut self, vd: VdId, line: LineAddr, l2: LineOf<P>) {
        let reason = EvictReason::CapacityMiss;
        let mut n = Newest::of_l2(&l2);
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].remove(line) {
                n.fold(P::VERSIONED, &l2, &m);
            }
        }
        self.dir.remove_node(line, vd.0);
        self.noc.send(MsgKind::PutX);
        if let Some((t, o)) = n.older {
            P::version_out(self, vd, line, t, o, reason);
        }
        if n.unpersisted {
            self.noc.send(MsgKind::OmcEvict);
            P::version_out(self, vd, line, n.token, n.oid, reason);
        }
        let meta = LlcLine {
            token: n.token,
            oid: n.oid,
            dirty: n.dirty,
        };
        self.llc_install(line, meta, reason);
        if n.dirty {
            P::l2_writeback(self, vd, line, n.token, n.oid, reason);
        }
    }

    /// Installs (or, with dirty data, refreshes) a line in its LLC slice;
    /// dirty victims go home to DRAM.
    fn llc_install(&mut self, line: LineAddr, meta: LlcLine<P::Oid>, victim_reason: EvictReason) {
        let s = self.slice_of(line);
        if let Some(existing) = self.llc[s].peek_mut(line) {
            if meta.dirty {
                *existing = meta;
            }
            return;
        }
        if let Some((vline, v)) = self.llc[s].insert(line, meta) {
            if v.dirty {
                self.write_home(vline, v.token, v.oid);
                P::llc_writeback(self, vline, v.token, v.oid, victim_reason);
            }
        }
    }

    fn write_home(&mut self, line: LineAddr, token: Token, oid: P::Oid) {
        self.dram.write(line, token);
        P::home_written(self, line, oid);
    }

    /// Flushes every dirty line in the hierarchy to DRAM and returns them
    /// (newest copy each): L1 data folds into the L2s, L2 data goes home
    /// (reconciling any LLC copy: the owning VD's data is authoritative —
    /// a stale dirty LLC copy can survive an E-grant fetch that was
    /// silently upgraded), then the remaining dirty LLC lines go home.
    pub fn drain_dirty(&mut self) -> Vec<DirtyLine<P::Oid>> {
        let mut out = Vec::new();
        for core in 0..self.l1s.len() {
            let vd = VdId(core as u16 / self.cfg.cores_per_vd);
            for l in self.l1s[core].lines_where(|_, m| m.state.is_dirty()) {
                let meta = *self.l1s[core].peek(l).expect("listed");
                self.l1_writeback(vd, l, meta, EvictReason::Drain);
                self.l1s[core].peek_mut(l).expect("listed").state = MesiState::E;
            }
        }
        for vdix in 0..self.l2s.len() {
            for l in self.l2s[vdix].lines_where(|_, m| m.state.is_dirty()) {
                let m = self.l2s[vdix].peek_mut(l).expect("listed");
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                let (token, oid) = (m.token, m.oid);
                let s = self.slice_of(l);
                if let Some(c) = self.llc[s].peek_mut(l) {
                    *c = LlcLine {
                        token,
                        oid,
                        dirty: false,
                    };
                }
                self.write_home(l, token, oid);
                out.push(DirtyLine {
                    line: l,
                    token,
                    oid,
                });
            }
        }
        for s in 0..self.llc.len() {
            for l in self.llc[s].lines_where(|_, m| m.dirty) {
                let m = self.llc[s].peek_mut(l).expect("listed");
                m.dirty = false;
                let (token, oid) = (m.token, m.oid);
                self.write_home(l, token, oid);
                out.push(DirtyLine {
                    line: l,
                    token,
                    oid,
                });
            }
        }
        out
    }

    // ---- Verification and sharded-replay helpers ------------------------

    /// The newest visible content of a line anywhere in the system
    /// (verification helper): the newest dirty copy, else memory.
    pub fn newest_token(&self, line: LineAddr) -> Token {
        let mut best: Option<(P::Oid, Token)> = None;
        let mut consider = |oid: P::Oid, token: Token| match best {
            Some((b, _)) if !(P::VERSIONED && oid.newer_than(b)) => {}
            _ => best = Some((oid, token)),
        };
        for c in self.l1s.iter().chain(&self.l2s) {
            if let Some(m) = c.peek(line).filter(|m| m.state.is_dirty()) {
                consider(m.oid, m.token);
            }
        }
        if let Some(m) = self.llc[self.slice_of(line)].peek(line).filter(|m| m.dirty) {
            consider(m.oid, m.token);
        }
        // Clean copies equal memory.
        best.map_or_else(|| self.dram.peek(line), |(_, t)| t)
    }

    fn cached_anywhere(&self, line: LineAddr) -> bool {
        self.l1s.iter().chain(&self.l2s).any(|c| c.contains(line))
            || self.llc[self.slice_of(line)].contains(line)
    }

    /// Installs a cross-island line at its DRAM home during a sharded
    /// replay barrier (see [`crate::shard`]). Returns `true` if the
    /// token was written. If any cache level still holds the line, the
    /// island's own copy is authoritative and the import is skipped —
    /// keeping the island's coherence lattice (and any version tags)
    /// untouched is what lets each island evolve exactly as its local
    /// trace dictates.
    pub fn import_line(&mut self, line: LineAddr, token: Token) -> bool {
        if self.cached_anywhere(line) {
            return false;
        }
        self.dram.write(line, token);
        true
    }

    /// Batched [`Hierarchy::import_line`] over one window's sorted
    /// exchange run: one pass, own-island entries skipped inline,
    /// applied deposits mirrored into `golden`. Amortizes the per-line
    /// call dispatch of the sharded barrier's import phase.
    pub fn import_lines(
        &mut self,
        entries: &[crate::shard::ExchangeEntry],
        island: u16,
        golden: &mut crate::fastmap::FastMap<LineAddr, Token>,
    ) -> u64 {
        let mut applied = 0;
        for e in entries {
            if e.src != island && self.import_line(e.line, e.token) {
                golden.insert(e.line, e.token);
                applied += 1;
            }
        }
        applied
    }

    /// Debug: human-readable state of every copy of `line`.
    pub fn debug_line_state(&self, line: LineAddr) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let levels = [("L1", &self.l1s), ("L2", &self.l2s)];
        for (name, level) in levels {
            for (i, c) in level.iter().enumerate() {
                if let Some(m) = c.peek(line) {
                    let custody = match (P::VERSIONED, m.persisted.get()) {
                        (false, _) => "",
                        (true, true) => "P",
                        (true, false) => "U",
                    };
                    let _ = write!(
                        out,
                        "{name}[{i}]:{}/e{:?}{custody}/t{} ",
                        m.state, m.oid, m.token
                    );
                }
            }
        }
        if let Some(m) = self.llc[self.slice_of(line)].peek(line) {
            let d = if m.dirty { "D" } else { "C" };
            let _ = write!(out, "LLC:{d}/e{:?}/t{} ", m.oid, m.token);
        }
        if let Some(e) = self.dir.entry(line) {
            let sharers: Vec<u16> = e.sharers().collect();
            let _ = write!(out, "dir[own={:?},sh={sharers:?}] ", e.owner());
        }
        let _ = write!(out, "dram:t{}", self.dram.peek(line));
        out
    }
}

impl<P: LinePolicy> fmt::Debug for Hierarchy<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hierarchy")
            .field("cores", &self.cfg.cores)
            .field("vds", &self.cfg.vd_count())
            .field("epochs", &self.vd_epoch)
            .field("loads", &self.counters.loads)
            .field("stores", &self.counters.stores)
            .finish()
    }
}

// ---- Baseline maintenance ------------------------------------------------

impl Hierarchy<Mesi> {
    /// Advances one VD's epoch and resets its store budget.
    pub fn advance_epoch(&mut self, vd: VdId) {
        self.set_epoch(vd, self.epoch(vd) + 1);
    }

    /// Advances all VDs to a common next epoch (global-epoch schemes).
    pub fn advance_all_epochs(&mut self) {
        let next = self.vd_epoch.iter().copied().max().unwrap_or(0) + 1;
        for vd in 0..self.vd_epoch.len() {
            self.set_epoch(VdId(vd as u16), next);
        }
    }

    /// All dirty LLC lines matching `pred` (tag-walk read phase).
    pub fn dirty_llc_lines(
        &self,
        mut pred: impl FnMut(LineAddr, EpochId) -> bool,
    ) -> Vec<DirtyLine> {
        let mut out = Vec::new();
        for slice in &self.llc {
            for (l, m) in slice.iter() {
                if m.dirty && pred(l, m.oid) {
                    out.push(DirtyLine {
                        line: l,
                        token: m.token,
                        oid: m.oid,
                    });
                }
            }
        }
        out
    }

    /// Marks an LLC line clean after the scheme persisted it (walker
    /// write-back downgrade). Also refreshes the DRAM working copy so that
    /// clean-copy semantics stay exact.
    pub fn clean_llc_line(&mut self, line: LineAddr) {
        let s = self.slice_of(line);
        if let Some(m) = self.llc[s].peek_mut(line) {
            if m.dirty {
                m.dirty = false;
                let t = m.token;
                self.dram.write(line, t);
            }
        }
    }

    /// All dirty lines of `vd`'s L2 matching `pred` (L2 tag walk). The L1s
    /// are probed so the newest data is reported.
    pub fn dirty_l2_lines(
        &self,
        vd: VdId,
        mut pred: impl FnMut(LineAddr, EpochId) -> bool,
    ) -> Vec<DirtyLine> {
        let mut out = Vec::new();
        for (l, m) in self.l2s[vd.index()].iter() {
            let mut n = Newest::of_l2(m);
            for c in self.local_cores(vd) {
                if let Some(lm) = self.l1s[c as usize].peek(l) {
                    n.fold(false, m, lm);
                }
            }
            if n.dirty && pred(l, n.oid) {
                out.push(DirtyLine {
                    line: l,
                    token: n.token,
                    oid: n.oid,
                });
            }
        }
        out
    }

    /// Marks an L2 line (and its L1 copies) clean after the scheme
    /// persisted it, refreshing the DRAM working copy and reconciling any
    /// stale LLC copy (a dirty LLC copy can survive an E-grant fetch that
    /// was later silently upgraded; the VD's data is authoritative).
    pub fn clean_l2_line(&mut self, vd: VdId, line: LineAddr) {
        let mut newest: Option<(Token, EpochId)> = None;
        if let Some(m) = self.l2s[vd.index()].peek_mut(line) {
            if m.state.is_dirty() {
                m.state = if m.state == MesiState::O {
                    MesiState::S
                } else {
                    MesiState::E
                };
                newest = Some((m.token, m.oid));
            }
        }
        for c in self.local_cores(vd) {
            if let Some(m) = self.l1s[c as usize].peek_mut(line) {
                if m.state.is_dirty() {
                    m.state = MesiState::E;
                    newest = Some((m.token, m.oid));
                }
            }
        }
        if let Some((t, oid)) = newest {
            // Fold newest into L2 so later evictions stay consistent.
            if let Some(m) = self.l2s[vd.index()].peek_mut(line) {
                m.token = t;
                m.oid = oid;
            }
            let s = self.slice_of(line);
            if let Some(m) = self.llc[s].peek_mut(line) {
                m.token = t;
                m.oid = oid;
                m.dirty = false;
            }
            self.dram.write(line, t);
        }
    }

    /// `clwb`-style flush of one line: cleans every cached copy, folds
    /// the newest content into every remaining copy and the DRAM home,
    /// and returns the newest content plus whether any copy was dirty.
    /// Used by the software schemes' barrier flushes.
    ///
    /// Folding matters: downgrading a dirty L1 copy to clean without
    /// pushing its data into the L2 would let a later silent clean
    /// eviction drop the newest value.
    pub fn clwb(&mut self, line: LineAddr) -> (Token, bool) {
        let mut token = self.dram.peek(line);
        let mut dirty = false;
        let s = self.slice_of(line);
        let llc_holds = match self.llc[s].peek(line) {
            Some(m) => {
                if m.dirty {
                    token = m.token;
                    dirty = true;
                }
                true
            }
            None => false,
        };
        // The discovery scan records which caches hold the line (typical
        // flushes touch one VD) so the clean pass below probes only those
        // instead of re-scanning the whole machine. Machines wider than
        // the mask clean by full re-scan.
        let masked = self.l2s.len() <= 128 && self.l1s.len() <= 128;
        let mut l2_mask: u128 = 0;
        let mut l1_mask: u128 = 0;
        for (i, l2) in self.l2s.iter().enumerate() {
            if let Some(m) = l2.peek(line) {
                if masked {
                    l2_mask |= 1 << i;
                }
                if m.state.is_dirty() {
                    token = m.token;
                    dirty = true;
                }
            }
        }
        for (i, l1) in self.l1s.iter().enumerate() {
            if let Some(m) = l1.peek(line) {
                if masked {
                    l1_mask |= 1 << i;
                }
                if m.state.is_dirty() {
                    token = m.token;
                    dirty = true;
                }
            }
        }
        // Clean every copy and fold the newest data into all of them.
        if llc_holds {
            let m = self.llc[s].peek_mut(line).expect("probed above");
            m.dirty = false;
            m.token = token;
        }
        let clean_l2 = |l2: &mut CacheArray<LineOf<Mesi>>| {
            if let Some(m) = l2.peek_mut(line) {
                if m.state.is_dirty() {
                    // Owned copies stay shared after cleaning.
                    m.state = if m.state == MesiState::O {
                        MesiState::S
                    } else {
                        MesiState::E
                    };
                }
                m.token = token;
            }
        };
        let clean_l1 = |l1: &mut CacheArray<LineOf<Mesi>>| {
            if let Some(m) = l1.peek_mut(line) {
                if m.state.is_dirty() {
                    m.state = MesiState::E;
                }
                m.token = token;
            }
        };
        if masked {
            while l2_mask != 0 {
                let i = l2_mask.trailing_zeros() as usize;
                l2_mask &= l2_mask - 1;
                clean_l2(&mut self.l2s[i]);
            }
            while l1_mask != 0 {
                let i = l1_mask.trailing_zeros() as usize;
                l1_mask &= l1_mask - 1;
                clean_l1(&mut self.l1s[i]);
            }
        } else {
            self.l2s.iter_mut().for_each(clean_l2);
            self.l1s.iter_mut().for_each(clean_l1);
        }
        if dirty {
            self.dram.write(line, token);
        }
        (token, dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SimConfig {
        SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4) // 8 sets
            .l2(4096, 4, 8) // 16 sets
            .llc(16 * 1024, 4, 30, 2) // 2 slices, 32 sets each
            .epoch_size_stores(1_000_000)
            .build()
            .unwrap()
    }

    fn addr(line: u64) -> Addr {
        Addr::new(line * 64)
    }

    #[test]
    fn load_miss_then_hit() {
        let mut h = Hierarchy::new(&small_cfg());
        let (lat1, _, _) = h.access(CoreId(0), MemOp::Load, addr(1), 0);
        assert!(lat1 > h.config().l1.latency, "first access misses");
        assert_eq!(h.counters().mem_fetches, 1);
        let (lat2, _, v) = h.access(CoreId(0), MemOp::Load, addr(1), 0);
        assert_eq!(v, 0, "unwritten line loads zero");
        assert_eq!(lat2, h.config().l1.latency, "second access hits L1");
        assert_eq!(h.counters().l1_hits, 1);
    }

    #[test]
    fn store_then_remote_load_transfers_newest_data() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(5), 77);
        // Core 2 is in the other VD.
        h.access(CoreId(2), MemOp::Load, addr(5), 0);
        // The downgrade deposited dirty data into the LLC and produced a
        // writeback event.
        assert!(h.events().iter().any(|e| matches!(
            e,
            HierarchyEvent::L2Writeback {
                reason: EvictReason::CoherenceDowngrade,
                token: 77,
                ..
            }
        )));
        assert_eq!(h.newest_token(LineAddr::new(5)), 77);
        // Both VDs can now read it cheaply, and see the stored value.
        let (lat, _, v) = h.access(CoreId(0), MemOp::Load, addr(5), 0);
        assert_eq!(lat, h.config().l1.latency);
        assert_eq!(v, 77);
    }

    #[test]
    fn remote_store_invalidates_and_moves_ownership() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(9), 1);
        h.access(CoreId(2), MemOp::Store, addr(9), 2);
        assert_eq!(h.newest_token(LineAddr::new(9)), 2);
        // Core 0 must re-fetch (its copy was invalidated) and sees the
        // remote store's value.
        let (lat, _, v) = h.access(CoreId(0), MemOp::Load, addr(9), 0);
        assert!(lat > h.config().l1.latency);
        assert_eq!(v, 2);
        assert_eq!(h.newest_token(LineAddr::new(9)), 2);
    }

    #[test]
    fn sibling_l1_store_transfer_within_vd() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(3), 10);
        // Core 1 shares VD 0; its store must see/replace core 0's copy.
        h.access(CoreId(1), MemOp::Store, addr(3), 11);
        assert_eq!(h.newest_token(LineAddr::new(3)), 11);
        // Core 0's copy was invalidated.
        let (lat, _, v) = h.access(CoreId(0), MemOp::Load, addr(3), 0);
        assert!(lat > h.config().l1.latency, "sibling invalidated the copy");
        assert_eq!(v, 11);
        assert_eq!(h.newest_token(LineAddr::new(3)), 11);
    }

    #[test]
    fn store_commit_events_track_first_write_per_epoch() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(7), 1);
        assert!(h.events().iter().any(|e| matches!(
            e,
            HierarchyEvent::StoreCommitted {
                first_in_epoch: true,
                ..
            }
        )));
        h.access(CoreId(0), MemOp::Store, addr(7), 2);
        assert!(h.events().iter().any(|e| matches!(
            e,
            HierarchyEvent::StoreCommitted {
                first_in_epoch: false,
                old_token: 1,
                ..
            }
        )));
        // New epoch: first write again.
        h.advance_epoch(VdId(0));
        h.access(CoreId(0), MemOp::Store, addr(7), 3);
        assert!(h.events().iter().any(|e| matches!(
            e,
            HierarchyEvent::StoreCommitted {
                first_in_epoch: true,
                old_token: 2,
                ..
            }
        )));
    }

    #[test]
    fn epoch_trigger_fires_on_store_budget() {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(3)
            .build()
            .unwrap();
        let mut h = Hierarchy::new(&cfg);
        let mut triggers = 0;
        for i in 0..6 {
            h.access(CoreId(0), MemOp::Store, addr(i), i + 1);
            triggers += h
                .take_events()
                .iter()
                .filter(|e| matches!(e, HierarchyEvent::EpochTrigger { .. }))
                .count();
        }
        assert_eq!(triggers, 2);
    }

    #[test]
    fn capacity_evictions_cascade_to_dram() {
        let cfg = small_cfg();
        let mut h = Hierarchy::new(&cfg);
        // Write far more lines than LLC capacity (16KB = 256 lines).
        let total = 2_000u64;
        for i in 0..total {
            h.access(CoreId(0), MemOp::Store, addr(i), i + 1);
        }
        let _ = h.drain_dirty();
        for i in 0..total {
            assert_eq!(
                h.newest_token(LineAddr::new(i)),
                i + 1,
                "line {i} lost its data in the eviction cascade"
            );
        }
        assert!(h.dram().writes() > 0, "dirty LLC victims reached DRAM");
    }

    #[test]
    fn clwb_cleans_and_returns_newest() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(4), 99);
        let (tok, dirty) = h.clwb(LineAddr::new(4));
        assert_eq!(tok, 99);
        assert!(dirty);
        assert_eq!(h.dram().peek(LineAddr::new(4)), 99);
        let (_, dirty2) = h.clwb(LineAddr::new(4));
        assert!(!dirty2, "second clwb finds the line clean");
        // The copy is still cached: hit at L1 latency with the value.
        let (lat, _, v) = h.access(CoreId(0), MemOp::Load, addr(4), 0);
        assert_eq!(lat, h.config().l1.latency);
        assert_eq!(v, 99);
    }

    #[test]
    fn drain_returns_every_dirty_line_once() {
        let mut h = Hierarchy::new(&small_cfg());
        for i in 0..10u64 {
            h.access(CoreId((i % 4) as u16), MemOp::Store, addr(i), 100 + i);
        }
        let drained = h.drain_dirty();
        let mut lines: Vec<u64> = drained.iter().map(|d| d.line.raw()).collect();
        lines.sort_unstable();
        let before = lines.len();
        lines.dedup();
        assert_eq!(lines.len(), before, "no line drained twice");
        assert_eq!(lines.len(), 10);
        for d in &drained {
            assert_eq!(h.dram().peek(d.line), d.token);
        }
        assert!(h.drain_dirty().is_empty(), "second drain finds nothing");
    }

    #[test]
    fn l2_tag_walk_sees_l1_newest_data() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(2), 5);
        let dirty = h.dirty_l2_lines(VdId(0), |_, _| true);
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].token, 5, "walker must see the L1's newer data");
        h.clean_l2_line(VdId(0), LineAddr::new(2));
        assert!(h.dirty_l2_lines(VdId(0), |_, _| true).is_empty());
        assert_eq!(h.dram().peek(LineAddr::new(2)), 5);
    }

    #[test]
    fn llc_tag_walk_filters_by_epoch() {
        let mut h = Hierarchy::new(&small_cfg());
        h.access(CoreId(0), MemOp::Store, addr(11), 1);
        // Downgrade to push dirty data into the LLC.
        h.access(CoreId(2), MemOp::Load, addr(11), 0);
        h.advance_epoch(VdId(0));
        h.access(CoreId(0), MemOp::Store, addr(12), 2);
        h.access(CoreId(2), MemOp::Load, addr(12), 0);
        let old = h.dirty_llc_lines(|_, oid| oid < 2);
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].line, LineAddr::new(11));
        h.clean_llc_line(old[0].line);
        assert!(h.dirty_llc_lines(|_, oid| oid < 2).is_empty());
    }

    #[test]
    fn many_threads_functional_correctness() {
        // Random-ish mixed traffic across 4 cores; final tokens must match
        // a simple sequential model of the same access order.
        let mut h = Hierarchy::new(&small_cfg());
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
        }
        for (line, expect) in model {
            assert_eq!(h.newest_token(LineAddr::new(line)), expect, "line {line}");
        }
    }
}
