//! Executable invariants of the versioned hierarchy.
//!
//! DESIGN.md §6 lists the invariants CST maintains; this module makes
//! them checkable at any quiescent point (between accesses). The checker
//! is exhaustive and O(cache contents) — meant for tests and debugging,
//! not the simulation fast path.
//!
//! Checked here:
//!
//! 1. **Inclusion** — every L1-resident line is resident in its VD's L2.
//! 2. **Version ordering (§IV-A2)** — an L1 copy's OID is never older
//!    than the L2 copy's OID for the same line.
//! 3. **Single writer** — at most one L1 within a VD holds a line in M;
//!    writable (M/E) copies never coexist with copies in other VDs.
//! 4. **Tag-window discipline** — every cached OID reconstructs within
//!    half the epoch space of its VD's current epoch (the wrap-around
//!    flush guarantee, §IV-D).
//! 5. **Version causality** — no cached version is tagged newer than its
//!    VD's current epoch.

use super::hierarchy::VersionedHierarchy;
use crate::epoch::Epoch;
use nvsim::addr::{LineAddr, VdId};
use std::fmt;

/// A violated invariant, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// An L1 line has no backing L2 line.
    InclusionBroken {
        /// Core whose L1 holds the orphan.
        core: u16,
        /// The orphaned line.
        line: LineAddr,
    },
    /// An L1 version is older than the L2 version of the same line.
    VersionOrderBroken {
        /// Core whose L1 violates the order.
        core: u16,
        /// The line.
        line: LineAddr,
        /// L1 OID tag.
        l1_oid: u16,
        /// L2 OID tag.
        l2_oid: u16,
    },
    /// Two L1s of one VD hold the same line with at least one M copy.
    MultipleWriters {
        /// The VD.
        vd: u16,
        /// The line.
        line: LineAddr,
    },
    /// A writable (M/E) copy coexists with a copy in another VD.
    WritableShared {
        /// The line.
        line: LineAddr,
        /// VD holding it writable.
        writer_vd: u16,
        /// Another VD holding a copy.
        other_vd: u16,
    },
    /// A cached version is tagged in the future of its VD's epoch.
    FutureVersion {
        /// The VD.
        vd: u16,
        /// The line.
        line: LineAddr,
        /// The offending tag.
        oid: u16,
        /// The VD's current tag.
        cur: u16,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::InclusionBroken { core, line } => {
                write!(
                    f,
                    "inclusion broken: core{core} L1 holds {line} without an L2 copy"
                )
            }
            InvariantViolation::VersionOrderBroken {
                core,
                line,
                l1_oid,
                l2_oid,
            } => write!(
                f,
                "version order broken on {line}: core{core} L1 @{l1_oid} older than L2 @{l2_oid}"
            ),
            InvariantViolation::MultipleWriters { vd, line } => {
                write!(f, "multiple writers in vd{vd} for {line}")
            }
            InvariantViolation::WritableShared {
                line,
                writer_vd,
                other_vd,
            } => write!(
                f,
                "{line} writable in vd{writer_vd} while vd{other_vd} holds a copy"
            ),
            InvariantViolation::FutureVersion { vd, line, oid, cur } => {
                write!(f, "vd{vd} caches {line} @{oid}, newer than its epoch {cur}")
            }
        }
    }
}

/// Checks every invariant; returns all violations found.
pub(crate) fn check(h: &VersionedHierarchy) -> Vec<InvariantViolation> {
    let mut v = Vec::new();
    check_inclusion_and_order(h, &mut v);
    check_writers(h, &mut v);
    check_tag_windows(h, &mut v);
    v
}

/// Invariant 1 + 2: inclusion and L1-not-older-than-L2 (§IV-A2).
fn check_inclusion_and_order(h: &VersionedHierarchy, out: &mut Vec<InvariantViolation>) {
    use InvariantViolation as V;
    for (core, l1) in h.l1s().iter().enumerate() {
        let vd = core / h.config().cores_per_vd as usize;
        for (line, m) in l1.iter() {
            match h.l2s()[vd].peek(line) {
                None => out.push(V::InclusionBroken {
                    core: core as u16,
                    line,
                }),
                Some(l2) => {
                    if l2.oid.newer_than(m.oid) {
                        out.push(V::VersionOrderBroken {
                            core: core as u16,
                            line,
                            l1_oid: m.oid.raw(),
                            l2_oid: l2.oid.raw(),
                        });
                    }
                }
            }
        }
    }
}

/// Invariant 3: single writer per VD; exclusivity across VDs.
fn check_writers(h: &VersionedHierarchy, out: &mut Vec<InvariantViolation>) {
    use std::collections::HashMap;
    use InvariantViolation as V;
    // Per line: which VDs hold copies, and whether their L2 is M/E.
    let mut holders: HashMap<LineAddr, Vec<(u16, bool)>> = HashMap::new();
    for (vdix, l2) in h.l2s().iter().enumerate() {
        for (line, m) in l2.iter() {
            holders
                .entry(line)
                .or_default()
                .push((vdix as u16, m.state.is_writable()));
        }
    }
    for (line, hs) in &holders {
        if let Some((w, _)) = hs.iter().find(|(_, writable)| *writable) {
            if let Some((o, _)) = hs.iter().find(|(v, _)| v != w) {
                out.push(V::WritableShared {
                    line: *line,
                    writer_vd: *w,
                    other_vd: *o,
                });
            }
        }
    }
    // At most one dirty (M or O) L2 copy of a line system-wide.
    let mut dirty_l2: HashMap<LineAddr, Vec<u16>> = HashMap::new();
    for (vdix, l2) in h.l2s().iter().enumerate() {
        for (line, m) in l2.iter() {
            if m.state.is_dirty() {
                dirty_l2.entry(line).or_default().push(vdix as u16);
            }
        }
    }
    for (line, vds) in dirty_l2 {
        if vds.len() > 1 {
            out.push(V::WritableShared {
                line,
                writer_vd: vds[0],
                other_vd: vds[1],
            });
        }
    }
    // Within each VD: at most one dirty L1 copy of a line.
    for vd in 0..h.l2s().len() {
        let mut dirty_seen: HashMap<LineAddr, u32> = HashMap::new();
        for c in h.local_cores(VdId(vd as u16)) {
            for (line, m) in h.l1s()[c as usize].iter() {
                if m.state.is_dirty() {
                    *dirty_seen.entry(line).or_default() += 1;
                }
            }
        }
        for (line, n) in dirty_seen {
            if n > 1 {
                out.push(V::MultipleWriters {
                    vd: vd as u16,
                    line,
                });
            }
        }
    }
}

/// Invariant 4 + 5: every cached tag reconstructs at or before its VD's
/// current epoch (and hence within the half-space window).
fn check_tag_windows(h: &VersionedHierarchy, out: &mut Vec<InvariantViolation>) {
    use InvariantViolation as V;
    for (vdix, cur_abs) in h.epochs().iter().enumerate() {
        let cur = Epoch::from_abs(*cur_abs);
        let check = |line: LineAddr, oid: Epoch, out: &mut Vec<_>| {
            if oid.newer_than(cur) {
                out.push(V::FutureVersion {
                    vd: vdix as u16,
                    line,
                    oid: oid.raw(),
                    cur: cur.raw(),
                });
            }
        };
        for (line, m) in h.l2s()[vdix].iter() {
            check(line, m.oid, out);
        }
        for c in h.local_cores(VdId(vdix as u16)) {
            for (line, m) in h.l1s()[c as usize].iter() {
                check(line, m.oid, out);
            }
        }
    }
    // LLC tags must be at or before the global maximum epoch.
    let max_abs = h.epochs().iter().copied().max().unwrap_or(1);
    let max_tag = Epoch::from_abs(max_abs);
    for slice in h.llc() {
        for (line, m) in slice.iter() {
            if m.oid.newer_than(max_tag) {
                out.push(V::FutureVersion {
                    vd: u16::MAX,
                    line,
                    oid: m.oid.raw(),
                    cur: max_tag.raw(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{AdvanceCause, CstConfig, Versioned};
    use nvsim::addr::{Addr, CoreId, VdId};
    use nvsim::config::SimConfig;
    use nvsim::memsys::MemOp;

    fn hier() -> VersionedHierarchy {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(100)
            .build()
            .unwrap();
        VersionedHierarchy::new(&cfg, CstConfig::default())
    }

    #[test]
    fn fresh_hierarchy_is_healthy() {
        hier().assert_invariants();
    }

    #[test]
    fn invariants_hold_through_mixed_traffic() {
        let mut h = hier();
        for i in 0..3000u64 {
            let core = CoreId((i % 4) as u16);
            let line = (i * 13 + i / 17) % 150;
            if i % 3 == 0 {
                h.access(core, MemOp::Load, Addr::new(line * 64), 0);
            } else {
                h.access(core, MemOp::Store, Addr::new(line * 64), i);
            }
            if i % 257 == 0 {
                h.assert_invariants();
            }
            if i % 500 == 499 {
                let vd = VdId(((i / 500) % 2) as u16);
                h.advance_epoch_explicit(vd, AdvanceCause::ExplicitMark);
                h.tag_walk(vd);
                h.assert_invariants();
            }
        }
        h.drain();
        h.assert_invariants();
    }

    #[test]
    fn invariants_hold_across_wrap() {
        let cfg = SimConfig::builder()
            .cores(4, 2)
            .l1(1024, 2, 4)
            .l2(4096, 4, 8)
            .llc(16 * 1024, 4, 30, 2)
            .epoch_size_stores(10)
            .build()
            .unwrap();
        let cst = CstConfig {
            initial_epoch: crate::epoch::HALF_SPACE - 30,
            ..CstConfig::default()
        };
        let mut h = VersionedHierarchy::new(&cfg, cst);
        for i in 0..800u64 {
            h.access(
                CoreId((i % 4) as u16),
                MemOp::Store,
                Addr::new((i % 40) * 64),
                i + 1,
            );
            if i % 100 == 99 {
                h.assert_invariants();
            }
        }
        assert!(h.wrap_flushes() >= 1, "the run crossed a group boundary");
        h.assert_invariants();
    }
}
