//! Property test: the PTE state machine never takes an illegal edge.
//!
//! The node runs random access/free scripts under heavy memory pressure
//! with the invariant auditor attached. The auditor watches every traced
//! `PteTransition` against the legal automaton (`legal_pte_transition`) and
//! simultaneously checks frame conservation, prefetch lifecycles, LRU
//! membership, and the fault-phase/breakdown equalities — so a passing case
//! means the whole event stream was self-consistent, not just that the
//! final answer came out right.

use dilos_core::{legal_pte_transition, Dilos, DilosConfig, NoPrefetch, Readahead, TrendBased};
use dilos_sim::{ComputeNode, PteClass};
use proptest::prelude::*;

const REGION_PAGES: usize = 48;
const REGION: usize = REGION_PAGES * 4096;

#[derive(Debug, Clone)]
enum Op {
    Write {
        at: usize,
        len: usize,
        stamp: u8,
    },
    Read {
        at: usize,
        len: usize,
    },
    /// Free a whole-page span, then immediately touch it again later ops —
    /// exercises the `* → None → Local` edges and prefetch cancellation.
    FreePages {
        page: usize,
        pages: usize,
    },
    Compute(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..REGION, 1usize..6000, any::<u8>()).prop_map(|(at, len, stamp)| {
            Op::Write { at, len, stamp }
        }),
        4 => (0usize..REGION, 1usize..6000).prop_map(|(at, len)| Op::Read { at, len }),
        1 => (0usize..REGION_PAGES, 1usize..8).prop_map(|(page, pages)| {
            Op::FreePages { page, pages }
        }),
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
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random scripts under 3×-overcommit keep the audited event stream
    /// violation-free: no illegal PTE edge, no frame leak, no lost fetch.
    #[test]
    fn random_ops_never_take_an_illegal_pte_edge(
        ops in prop::collection::vec(op_strategy(), 1..100),
        local_pages in 16usize..32,
        pf in any::<u8>(),
    ) {
        let mut node = Dilos::new(DilosConfig {
            local_pages,
            remote_bytes: (REGION as u64 * 2).next_power_of_two(),
            obs: dilos_sim::Observability::audited(),
            ..DilosConfig::default()
        });
        node.set_prefetcher(prefetcher(pf));
        let base = node.ddc_alloc(REGION);

        for op in &ops {
            match *op {
                Op::Write { at, len, stamp } => {
                    let len = len.min(REGION - at);
                    if len == 0 {
                        continue;
                    }
                    let data: Vec<u8> = (0..len).map(|i| stamp.wrapping_add(i as u8)).collect();
                    node.write(0, base + at as u64, &data);
                }
                Op::Read { at, len } => {
                    let len = len.min(REGION - at);
                    if len == 0 {
                        continue;
                    }
                    let mut buf = vec![0u8; len];
                    node.read(0, base + at as u64, &mut buf);
                }
                Op::FreePages { page, pages } => {
                    let pages = pages.min(REGION_PAGES - page);
                    if pages == 0 {
                        continue;
                    }
                    node.ddc_free(base + (page * 4096) as u64, pages * 4096);
                }
                Op::Compute(ns) => node.machine_mut().advance(0, ns),
            }
        }

        let report = node.audit_report();
        prop_assert!(report.is_empty(), "audit violations: {:#?}", report);
        prop_assert!(node.trace_digest() != 0, "audited runs record a trace");
    }
}

/// The legal-edge table itself: spot-check the automaton the auditor
/// enforces, including the edges the paper's design rules out.
#[test]
fn automaton_matches_the_design() {
    use PteClass::*;
    // The demand-paging cycle.
    for (from, to) in [
        (None, Local),
        (Local, Remote),
        (Remote, Fetching),
        (Fetching, Local),
        (Local, Action),
        (Action, Fetching),
    ] {
        assert!(legal_pte_transition(from, to), "{from:?} -> {to:?}");
    }
    // Fastswap's shortcut and other corruption signatures are illegal.
    for (from, to) in [
        (Remote, Local),
        (None, Remote),
        (Fetching, Remote),
        (Action, Local),
        (Remote, Action),
    ] {
        assert!(!legal_pte_transition(from, to), "{from:?} -> {to:?}");
    }
}
