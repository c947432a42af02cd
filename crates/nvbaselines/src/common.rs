//! Shared plumbing for the baseline schemes.

use nvsim::addr::CoreId;
use nvsim::clock::Cycle;
use nvsim::config::SimConfig;
use nvsim::hierarchy::{Hierarchy, HierarchyEvent, Mesi};
use nvsim::nvm::Nvm;
use nvsim::stats::SystemStats;
use std::sync::Arc;

/// The parts every baseline owns: the shared hierarchy, an NVM device,
/// the stats block and a per-core "resume time" used to model global
/// quiesce stalls (epoch flushes that halt all cores).
pub struct BaselineCore {
    /// The coherence engine under the plain (unversioned) policy.
    pub hier: Hierarchy,
    /// The scheme's NVM device.
    pub nvm: Nvm,
    /// Statistics (synced from devices at `finish`).
    pub stats: SystemStats,
    /// Per-core earliest resume time after a global stall.
    pub core_resume: Vec<Cycle>,
    /// Recycled event buffer swapped with the hierarchy's after every
    /// access, so the hot path never allocates (see
    /// [`BaselineCore::take_event_scratch`]).
    pub ev_scratch: Vec<HierarchyEvent>,
}

impl BaselineCore {
    /// Builds the shared parts from a validated configuration.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::new_shared(Arc::new(cfg.clone()))
    }

    /// Builds the shared parts over a shared configuration handle.
    ///
    /// # Panics
    /// Panics if `cfg` does not validate.
    pub fn new_shared(cfg: Arc<SimConfig>) -> Self {
        let nvm = Nvm::new(
            cfg.nvm_banks,
            cfg.nvm_write_latency,
            cfg.nvm_read_latency,
            cfg.nvm_queue_depth,
            cfg.bandwidth_bucket_cycles,
        );
        Self {
            nvm,
            stats: SystemStats::new(cfg.bandwidth_bucket_cycles),
            core_resume: vec![0; cfg.cores as usize],
            ev_scratch: Vec::new(),
            hier: Hierarchy::with_policy(cfg, Mesi),
        }
    }

    /// Takes the hierarchy's pending events by swapping in the recycled
    /// (cleared) buffer. The caller iterates them (the borrow on `self`
    /// is released) and MUST hand the buffer back via
    /// [`BaselineCore::return_event_scratch`] so the next access reuses
    /// the capacity instead of allocating.
    pub fn take_event_scratch(&mut self) -> Vec<HierarchyEvent> {
        let mut buf = std::mem::take(&mut self.ev_scratch);
        self.hier.swap_events(&mut buf);
        buf
    }

    /// Clears and returns the buffer taken by
    /// [`BaselineCore::take_event_scratch`].
    pub fn return_event_scratch(&mut self, mut buf: Vec<HierarchyEvent>) {
        buf.clear();
        self.ev_scratch = buf;
    }

    /// Stall this core owes from a previous global quiesce.
    pub fn pending_stall(&mut self, core: CoreId, now: Cycle) -> Cycle {
        let r = self.core_resume[core.index()];
        r.saturating_sub(now)
    }

    /// Halts every core until `t` (global quiesce, e.g. a software epoch
    /// flush or a synchronous mapping-table update).
    pub fn stall_all_until(&mut self, t: Cycle) {
        for r in &mut self.core_resume {
            *r = (*r).max(t);
        }
    }

    /// Copies device counters into the stats block.
    pub fn sync_stats(&mut self) {
        self.stats.nvm = self.nvm.stats().clone();
        self.stats.nvm_bandwidth = self.nvm.bandwidth().clone();
        self.stats.access = self.hier.counters().clone();
    }
}

impl std::fmt::Debug for BaselineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineCore")
            .field("hier", &self.hier)
            .finish()
    }
}

/// Size in bytes of one undo/redo log entry (paper §VII-B: "each log
/// entry takes 72 bytes (64B data + 8B address tag)").
pub const LOG_ENTRY_BYTES: u64 = 72;

/// Size of a cache line's data payload.
pub const DATA_BYTES: u64 = 64;

/// Size of one mapping-table entry write.
pub const TABLE_ENTRY_BYTES: u64 = 8;
