//! MOESI protocol variant tests for the coherence engine's baseline policy.

use nvsim::addr::{Addr, CoreId, LineAddr};
use nvsim::config::Protocol;
use nvsim::hierarchy::{Hierarchy, HierarchyEvent};
use nvsim::memsys::MemOp;
use nvsim::SimConfig;
use std::collections::HashMap;

fn cfg(protocol: Protocol) -> SimConfig {
    SimConfig::builder()
        .cores(8, 2)
        .l1(1024, 2, 4)
        .l2(4096, 4, 8)
        .llc(16 * 1024, 4, 30, 2)
        .epoch_size_stores(1_000_000)
        .protocol(protocol)
        .build()
        .unwrap()
}

fn addr(line: u64) -> Addr {
    Addr::new(line * 64)
}

#[test]
fn moesi_downgrade_keeps_dirty_data_in_place() {
    let mut h = Hierarchy::new(&cfg(Protocol::Moesi));
    h.access(CoreId(0), MemOp::Store, addr(5), 77);
    // Remote load: under MOESI, NO L2 write-back event is produced.
    let (_, _, v) = h.access(CoreId(2), MemOp::Load, addr(5), 0);
    assert_eq!(v, 77, "reader sees the owner's data");
    assert!(
        !h.events()
            .iter()
            .any(|e| matches!(e, HierarchyEvent::L2Writeback { .. })),
        "MOESI downgrade must not write back: {:?}",
        h.events()
    );
    assert_eq!(h.newest_token(LineAddr::new(5)), 77);
    // Under MESI, the same sequence deposits dirty data in the LLC.
    let mut m = Hierarchy::new(&cfg(Protocol::Mesi));
    m.access(CoreId(0), MemOp::Store, addr(5), 77);
    m.access(CoreId(2), MemOp::Load, addr(5), 0);
    assert!(m
        .events()
        .iter()
        .any(|e| matches!(e, HierarchyEvent::L2Writeback { .. })));
}

#[test]
fn moesi_owner_upgrade_invalidates_sharers() {
    let mut h = Hierarchy::new(&cfg(Protocol::Moesi));
    h.access(CoreId(0), MemOp::Store, addr(9), 1); // VD0 owns M
    h.access(CoreId(2), MemOp::Load, addr(9), 0); // VD1 shares; VD0 -> O
    h.access(CoreId(4), MemOp::Load, addr(9), 0); // VD2 shares too
                                                  // Owner stores again: O -> M upgrade must invalidate VD1 and VD2.
    h.access(CoreId(0), MemOp::Store, addr(9), 2);
    let (_, _, v1) = h.access(CoreId(2), MemOp::Load, addr(9), 0);
    let (_, _, v2) = h.access(CoreId(4), MemOp::Load, addr(9), 0);
    assert_eq!(v1, 2, "stale sharer copy must have been invalidated");
    assert_eq!(v2, 2);
}

#[test]
fn moesi_foreign_store_takes_ownership_from_o() {
    let mut h = Hierarchy::new(&cfg(Protocol::Moesi));
    h.access(CoreId(0), MemOp::Store, addr(3), 10); // VD0 M
    h.access(CoreId(2), MemOp::Load, addr(3), 0); // VD0 O, VD1 S
    h.access(CoreId(4), MemOp::Store, addr(3), 20); // VD2 takes M
    for core in [0u16, 2, 4] {
        let (_, _, v) = h.access(CoreId(core), MemOp::Load, addr(3), 0);
        assert_eq!(v, 20, "core{core}");
    }
}

#[test]
fn moesi_o_eviction_lands_in_llc_dirty() {
    let mut h = Hierarchy::new(&cfg(Protocol::Moesi));
    h.access(CoreId(0), MemOp::Store, addr(7), 70);
    h.access(CoreId(2), MemOp::Load, addr(7), 0); // VD0 now O
                                                  // Thrash VD0's L2 so the O line gets evicted (64-line L2).
    for i in 100..300u64 {
        h.access(CoreId(0), MemOp::Load, addr(i), 0);
    }
    // The data must still be visible everywhere.
    assert_eq!(h.newest_token(LineAddr::new(7)), 70);
    let (_, _, v) = h.access(CoreId(4), MemOp::Load, addr(7), 0);
    assert_eq!(v, 70);
}

#[test]
fn moesi_functional_correctness_random_mix() {
    let mut h = Hierarchy::new(&cfg(Protocol::Moesi));
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut x = 12345u64;
    for i in 0..30_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let core = CoreId((x >> 33) as u16 % 8);
        let line = (x >> 40) % 150;
        if x.is_multiple_of(3) {
            h.access(core, MemOp::Store, addr(line), i + 1);
            model.insert(line, i + 1);
        } else {
            let (_, _, v) = h.access(core, MemOp::Load, addr(line), 0);
            let expect = model.get(&line).copied().unwrap_or(0);
            assert_eq!(v, expect, "step {i}: stale load of line {line}");
        }
    }
    let _ = h.drain_dirty();
    for (line, expect) in model {
        assert_eq!(h.newest_token(LineAddr::new(line)), expect);
    }
}
