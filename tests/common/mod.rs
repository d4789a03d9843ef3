//! Helpers shared by the tier-1 test binaries.

pub mod json;

use dilos::apps::farmem::FarMemory;
use dilos::sim::SplitMix64;

pub const WS_PAGES: u64 = 192;

/// A seeded mixed workload: sequential warm-up, then random reads/writes,
/// then a strided sweep — enough to exercise faults, prefetch, eviction,
/// and writeback on every system.
pub fn drive(mem: &mut dyn FarMemory, seed: u64) {
    let va = mem.alloc((WS_PAGES * 4096) as usize);
    for p in 0..WS_PAGES {
        mem.write_u64(0, va + p * 4096, seed ^ p);
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..600 {
        let p = rng.next_u64() % WS_PAGES;
        let addr = va + p * 4096 + (rng.next_u64() % 500) * 8;
        if rng.next_u64().is_multiple_of(3) {
            mem.write_u64(0, addr, rng.next_u64());
        } else {
            let _ = mem.read_u64(0, addr);
        }
    }
    for p in (0..WS_PAGES).step_by(3) {
        let _ = mem.read_u64(0, va + p * 4096);
    }
}
