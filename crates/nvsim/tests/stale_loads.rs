#[test]
fn plain_hierarchy_loads_match_model() {
    use nvsim::addr::{Addr, CoreId};
    use nvsim::config::SimConfig;
    use nvsim::hierarchy::Hierarchy;
    use nvsim::memsys::MemOp;
    use nvsim::rng::Rng64;
    use std::collections::HashMap;

    let cfg = SimConfig::builder()
        .cores(16, 2)
        .l1(1024, 2, 4)
        .l2(4096, 4, 8)
        .llc(16 * 1024, 4, 30, 2)
        .epoch_size_stores(1_000_000)
        .build()
        .unwrap();
    for seed in 0..20u64 {
        let mut h = Hierarchy::new(&cfg);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = Rng64::seed_from_u64(seed);
        for i in 0..20_000u64 {
            let core = CoreId(rng.gen_range(0..16));
            let line = rng.gen_range(0..200u64);
            if rng.gen_bool(0.4) {
                h.access(core, MemOp::Store, Addr::new(line * 64), i + 1);
                model.insert(line, i + 1);
            } else {
                let (_, _, v) = h.access(core, MemOp::Load, Addr::new(line * 64), 0);
                let expect = model.get(&line).copied().unwrap_or(0);
                assert_eq!(
                    v, expect,
                    "seed {seed} step {i}: stale load of line {line} by {core:?}"
                );
            }
        }
    }
}
