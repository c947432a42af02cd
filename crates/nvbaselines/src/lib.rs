//! # nvbaselines — the paper's five comparison schemes, plus the ideal
//! no-snapshot system
//!
//! Each scheme implements [`nvsim::memsys::MemorySystem`] on top of the
//! shared coherence engine under its plain MESI/MOESI policy
//! ([`nvsim::hierarchy::Hierarchy`])
//! and models the persistence behaviour the paper ascribes to it (§VI-B):
//!
//! | Scheme | Module | Mechanism |
//! |---|---|---|
//! | Ideal (no snapshotting) | [`ideal`] | normalization baseline of Fig 11 |
//! | SW Undo Logging | [`sw_undo`] | synchronous undo log before first write; barriered write-set flush at epoch end |
//! | SW Shadow Paging | [`sw_shadow`] | barriered write-set flush to shadow locations + synchronous persistent mapping-table update |
//! | HW Shadow (ThyNVM-like) | [`hw_shadow`] | background data persistence overlapped with execution; synchronous mapping-table update at epoch end |
//! | PiCL | [`picl`] | hardware undo logging, version-tagged inclusive LLC, epoch-boundary tag walks |
//! | PiCL-L2 | [`picl`] (L2 level) | PiCL with the persistence boundary at the (small) L2s |
//!
//! All schemes run identical traces through identical hierarchies, so the
//! cycle and write-amplification comparisons of Figs 11/12 are
//! apples-to-apples.

#![warn(missing_docs)]

pub mod common;
pub mod hw_shadow;
pub mod ideal;
pub mod picl;
pub mod sw_shadow;
pub mod sw_undo;

pub use hw_shadow::HwShadow;
pub use ideal::IdealSystem;
pub use picl::{Picl, PiclLevel};
pub use sw_shadow::SwShadow;
pub use sw_undo::SwUndoLogging;
