//! Model-based property tests for the DiLOS node.
//!
//! A reference flat memory (a `Vec<u8>`) is driven in lockstep with a DiLOS
//! node through random read/write scripts under heavy memory pressure. The
//! invariant is the compatibility contract itself: the paging subsystem is
//! invisible — every read returns exactly what a flat memory would.

use dilos_core::{Dilos, DilosConfig, NoPrefetch, Readahead, TrendBased};
use dilos_sim::ComputeNode;
use proptest::prelude::*;

const REGION_PAGES: usize = 64;
const REGION: usize = REGION_PAGES * 4096;

#[derive(Debug, Clone)]
enum Op {
    Write { at: usize, len: usize, stamp: u8 },
    Read { at: usize, len: usize },
    Compute(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..REGION, 1usize..9000, any::<u8>()).prop_map(|(at, len, stamp)| {
            Op::Write { at, len, stamp }
        }),
        4 => (0usize..REGION, 1usize..9000).prop_map(|(at, len)| Op::Read { at, len }),
        1 => (1u64..10_000).prop_map(Op::Compute),
    ]
}

fn prefetcher(choice: u8) -> Box<dyn dilos_core::Prefetcher> {
    match choice % 3 {
        0 => Box::new(NoPrefetch),
        1 => Box::new(Readahead::new()),
        _ => Box::new(TrendBased::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random access scripts under 4×-overcommit must behave exactly like
    /// flat memory, for every prefetcher.
    #[test]
    fn node_matches_flat_memory(
        ops in prop::collection::vec(op_strategy(), 1..120),
        local_pages in 16usize..32,
        pf in any::<u8>(),
    ) {
        let mut node = Dilos::new(DilosConfig {
            local_pages,
            remote_bytes: (REGION as u64 * 2).next_power_of_two(),
            ..DilosConfig::default()
        });
        node.set_prefetcher(prefetcher(pf));
        let base = node.ddc_alloc(REGION);
        let mut model = vec![0u8; REGION];
        let mut last_now = 0;

        for op in &ops {
            match *op {
                Op::Write { at, len, stamp } => {
                    let len = len.min(REGION - at);
                    if len == 0 {
                        continue;
                    }
                    let data: Vec<u8> = (0..len).map(|i| stamp.wrapping_add(i as u8)).collect();
                    node.write(0, base + at as u64, &data);
                    model[at..at + len].copy_from_slice(&data);
                }
                Op::Read { at, len } => {
                    let len = len.min(REGION - at);
                    if len == 0 {
                        continue;
                    }
                    let mut buf = vec![0u8; len];
                    node.read(0, base + at as u64, &mut buf);
                    prop_assert_eq!(&buf[..], &model[at..at + len], "read at {} len {}", at, len);
                }
                Op::Compute(ns) => node.machine_mut().advance(0, ns),
            }
            // Virtual time is monotone.
            prop_assert!(node.machine().now(0) >= last_now);
            last_now = node.machine().now(0);
        }

        // Final full verification: every byte survives the paging churn.
        let mut all = vec![0u8; REGION];
        node.read(0, base, &mut all);
        prop_assert_eq!(all, model);

        // Accounting sanity: resident never exceeds the cache.
        prop_assert!(node.resident_pages() <= local_pages);
    }

    /// The same script with the same seed is bit- and time-identical.
    #[test]
    fn node_is_deterministic(
        ops in prop::collection::vec(op_strategy(), 1..60),
        pf in any::<u8>(),
    ) {
        let run = || {
            let mut node = Dilos::new(DilosConfig {
                local_pages: 24,
                remote_bytes: (REGION as u64 * 2).next_power_of_two(),
                ..DilosConfig::default()
            });
            node.set_prefetcher(prefetcher(pf));
            let base = node.ddc_alloc(REGION);
            let mut digest = 0u64;
            for op in &ops {
                match *op {
                    Op::Write { at, len, stamp } => {
                        let len = len.min(REGION - at).max(1);
                        node.write(0, base + at as u64, &vec![stamp; len]);
                    }
                    Op::Read { at, len } => {
                        let len = len.min(REGION - at).max(1);
                        let mut buf = vec![0u8; len];
                        node.read(0, base + at as u64, &mut buf);
                        for b in buf {
                            digest = digest.wrapping_mul(31).wrapping_add(b as u64);
                        }
                    }
                    Op::Compute(ns) => node.machine_mut().advance(0, ns),
                }
            }
            let s = node.stats();
            (digest, node.machine().now(0), s.major_faults, s.minor_faults, s.evictions)
        };
        prop_assert_eq!(run(), run());
    }

    /// ddc_free releases everything it maps, at any pressure.
    #[test]
    fn alloc_free_cycles_never_leak(rounds in 1usize..8, pages in 1usize..48) {
        let mut node = Dilos::new(DilosConfig {
            local_pages: 24,
            remote_bytes: 1 << 24,
            ..DilosConfig::default()
        });
        for r in 0..rounds {
            let va = node.ddc_alloc(pages * 4096);
            for p in 0..pages as u64 {
                node.write_u64(0, va + p * 4096, r as u64 ^ p);
            }
            for p in 0..pages as u64 {
                prop_assert_eq!(node.read_u64(0, va + p * 4096), r as u64 ^ p);
            }
            node.ddc_free(va, pages * 4096);
            prop_assert_eq!(node.resident_pages(), 0, "round {}", r);
        }
    }
}

/// PTE encode/decode is a bijection over the tag space.
mod pte {
    use dilos_core::Pte;
    use proptest::prelude::*;

    fn pte_strategy() -> impl Strategy<Value = Pte> {
        prop_oneof![
            Just(Pte::None),
            (any::<u32>(), any::<bool>(), any::<bool>()).prop_map(|(frame, accessed, dirty)| {
                Pte::Local {
                    frame: frame >> 4,
                    accessed,
                    dirty,
                }
            }),
            (0u64..(1 << 36)).prop_map(|slot| Pte::Remote { slot }),
            any::<u32>().prop_map(|i| Pte::Fetching { inflight: i >> 4 }),
            any::<u32>().prop_map(|a| Pte::Action { action: a >> 4 }),
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrips(pte in pte_strategy()) {
            prop_assert_eq!(Pte::decode(pte.encode()), pte);
        }

        /// The tag always lives in the three low bits, as §4.1 specifies.
        #[test]
        fn tags_are_distinguished_by_low_bits(pte in pte_strategy()) {
            let bits = pte.encode() & 0b111;
            match pte {
                Pte::None => prop_assert_eq!(bits, 0),
                Pte::Local { .. } => prop_assert_eq!(bits & 1, 1),
                Pte::Remote { .. } => prop_assert_eq!(bits, 0b010),
                Pte::Fetching { .. } => prop_assert_eq!(bits, 0b100),
                Pte::Action { .. } => prop_assert_eq!(bits, 0b110),
            }
        }
    }
}
