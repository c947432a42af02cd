//! Coherent Snapshot Tracking (CST) — the NVOverlay frontend (paper §IV).
//!
//! CST tracks, *coherently across Versioned Domains*, every change to
//! memory since the last snapshot:
//!
//! * every cache line carries a 16-bit OID tag — the epoch of its last
//!   store ([`hierarchy`]);
//! * each VD runs its own epoch; epochs form a Lamport clock, synchronized
//!   when coherence responses carry data "from the future" (§III-C);
//! * dirty versions of past epochs are immutable: a store to one first
//!   *store-evicts* it into the L2 (§IV-A1);
//! * versions leave a VD through capacity evictions, coherence downgrades
//!   and invalidations, and the opportunistic tag walker (§IV-C), and are
//!   handed to the MNM backend;
//! * 16-bit epoch wrap-around is handled with the two-group epoch-sense
//!   scheme (§IV-D).

pub mod hierarchy;
pub mod invariants;

pub use hierarchy::{
    AdvanceCause, Cst, CstConfig, CstEvent, VersionOut, Versioned, VersionedHierarchy,
};
pub use invariants::InvariantViolation;
