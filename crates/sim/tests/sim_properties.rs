//! Property tests for the simulation substrate.
//!
//! The virtual-time model underpins every number in the reproduction, so
//! its primitives get ground-truth checks: histogram quantiles against a
//! sorted reference, timeline conservation laws, memory-node consistency
//! against a flat buffer, LRU-chain equivalence with a naive list, and verb
//! timings against `SimConfig`'s formulas.

use std::collections::BTreeMap;

use dilos_sim::{
    Fabric, LatencyHistogram, LruChain, MemoryNode, Ns, RdmaEndpoint, Redundancy, ServiceClass,
    SimConfig, Timeline,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles are within one log-bucket (≤ ~6.25 %) of exact.
    ///
    /// The estimate interpolates inside the bucket holding the exact order
    /// statistic, so it can land on either side of it — but never further
    /// than one sub-bucket width away, and never outside `[min, max]`.
    #[test]
    fn histogram_quantiles_track_sorted_reference(
        mut samples in prop::collection::vec(1u64..10_000_000, 1..500),
        q in 0.0f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let approx = h.quantile(q);
        prop_assert!(
            approx as f64 <= exact as f64 * (1.0 + 1.0 / 16.0) + 1.0,
            "within one sub-bucket above: {approx} vs {exact}"
        );
        prop_assert!(
            approx as f64 >= exact as f64 * (1.0 - 1.0 / 16.0) - 1.0,
            "within one sub-bucket below: {approx} vs {exact}"
        );
        prop_assert!(approx >= samples[0] && approx <= *samples.last().expect("non-empty"));
        prop_assert_eq!(h.max(), *samples.last().expect("non-empty"));
        prop_assert_eq!(h.min(), samples[0]);
    }

    /// A timeline serves requests back to back: total busy time equals the
    /// sum of durations, and completions are monotone.
    #[test]
    fn timeline_conserves_busy_time(reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100)) {
        let mut t = Timeline::new();
        let mut last_end = 0;
        let mut total = 0;
        for &(now, dur) in &reqs {
            let (start, end) = t.acquire(now, dur);
            prop_assert!(start >= now);
            prop_assert!(start >= last_end, "no overlap");
            prop_assert_eq!(end - start, dur);
            last_end = end;
            total += dur;
        }
        prop_assert_eq!(t.total_busy(), total);
        prop_assert_eq!(t.acquisitions() as usize, reqs.len());
    }

    /// The memory node is a flat byte array with protection: any sequence
    /// of in-bounds reads/writes matches a `Vec<u8>` model.
    #[test]
    fn memnode_matches_flat_buffer(
        ops in prop::collection::vec((0u64..60_000, 1usize..5_000, any::<u8>(), any::<bool>()), 1..60),
    ) {
        const SIZE: u64 = 1 << 16;
        let mut node = MemoryNode::new();
        let key = node.register_region(0, SIZE);
        let mut model = vec![0u8; SIZE as usize];
        for &(at, len, stamp, is_write) in &ops {
            let len = len.min((SIZE - at) as usize);
            if len == 0 {
                continue;
            }
            if is_write {
                let data = vec![stamp; len];
                node.write(key, at, &data).expect("in bounds");
                model[at as usize..at as usize + len].copy_from_slice(&data);
            } else {
                let mut buf = vec![0u8; len];
                node.read(key, at, &mut buf).expect("in bounds");
                prop_assert_eq!(&buf[..], &model[at as usize..at as usize + len]);
            }
        }
    }

    /// LruChain behaves exactly like a naive recency list. Keys come from a
    /// window at a high base, the shape of Fastswap's VPNs; the first insert
    /// lands anywhere in it, so a lower key rebases the chain. Touches and
    /// removes of keys just below, just above and far above the window are
    /// mixed in, and change nothing.
    #[test]
    fn lru_chain_matches_naive_list(
        first in 0u64..48,
        ops in prop::collection::vec((0u64..64, 0u8..3), 1..300),
    ) {
        const BASE: u64 = 0x1_0000_0000;
        const WINDOW: u64 = 48;
        let mut chain = LruChain::new();
        chain.insert(BASE + first);
        // Naive model: most recent at the back.
        let mut model: Vec<u64> = vec![BASE + first];
        for &(k, op) in &ops {
            if k < WINDOW {
                let k = BASE + k;
                match op {
                    0 => {
                        chain.insert(k);
                        model.retain(|&x| x != k);
                        model.push(k);
                    }
                    1 => {
                        chain.touch(k);
                        if model.contains(&k) {
                            model.retain(|&x| x != k);
                            model.push(k);
                        }
                    }
                    _ => {
                        prop_assert_eq!(chain.remove(k), model.contains(&k));
                        model.retain(|&x| x != k);
                    }
                }
            } else {
                // Eight keys just below the window, then eight from just
                // above it to 7 × 2^28 above it.
                let j = k - WINDOW;
                let outside = if j < 8 { BASE - 1 - j } else { BASE + WINDOW + ((j - 8) << 28) };
                if op == 2 {
                    prop_assert!(!chain.remove(outside));
                } else {
                    chain.touch(outside);
                }
                prop_assert!(!chain.contains(outside));
            }
            prop_assert_eq!(chain.len(), model.len());
            prop_assert_eq!(chain.coldest(), model.first().copied());
            for key in BASE..BASE + WINDOW {
                prop_assert_eq!(chain.contains(key), model.contains(&key), "key {:#x}", key);
            }
            let cold_order: Vec<u64> = chain.iter_cold().collect();
            prop_assert_eq!(&cold_order, &model);
        }
    }

    /// Replication never changes what reads observe, regardless of the
    /// (nodes, replication) geometry.
    #[test]
    fn cluster_geometry_is_transparent(
        nodes in 1usize..5,
        writes in prop::collection::vec((0u64..64, any::<u8>()), 1..40),
        replication in 1usize..5,
    ) {
        let replication = replication.min(nodes);
        let mut e = RdmaEndpoint::connect_cluster(
            SimConfig::default(),
            1 << 20,
            nodes,
            Redundancy::Replicas(replication),
        );
        let mut model = std::collections::BTreeMap::new();
        for &(page, stamp) in &writes {
            e.write(0, 0, ServiceClass::App, page * 4096, &[stamp; 32]).expect("write");
            model.insert(page, stamp);
        }
        for (&page, &stamp) in &model {
            let mut buf = [0u8; 32];
            e.read(0, 0, ServiceClass::App, page * 4096, &mut buf).expect("read");
            prop_assert!(buf.iter().all(|&b| b == stamp), "page {}", page);
        }
    }
}

/// Verb sizes that revisit each other, paired with alternating directions;
/// the second pass flips every direction.
fn interleaved_verbs() -> Vec<(usize, bool)> {
    let sizes = [4096usize, 128, 0, 4096, 8192];
    (0..2)
        .flat_map(|pass| (0..sizes.len()).map(move |i| (sizes[i], (i + pass) % 2 == 1)))
        .collect()
}

/// Tenant 0 holds a quarter of the link when shaped.
fn shares(qos: bool) -> Option<BTreeMap<u8, u32>> {
    qos.then(|| BTreeMap::from([(0, 1), (1, 3)]))
}

/// The fabric keeps each direction's last verb size and costs. On one
/// endpoint and one fabric, reads and writes of interleaved sizes, FCFS and
/// QoS-shaped, must each complete when a fresh endpoint (fabric) would and
/// when `SimConfig`'s formulas say — a stale cost would show as a wrong
/// completion time.
#[test]
fn verb_costs_follow_size_and_direction() {
    let cfg = SimConfig::default();
    let endpoint = |qos: bool| {
        let mut e = RdmaEndpoint::connect(cfg.clone(), 1 << 20);
        if let Some(s) = shares(qos) {
            e.set_qos(s);
        }
        e
    };
    let post = |e: &mut RdmaEndpoint, t: Ns, bytes: usize, write: bool| {
        let mut buf = vec![7u8; bytes];
        if write {
            e.write(t, 0, ServiceClass::Cleaner, 0, &buf)
        } else {
            e.read(t, 0, ServiceClass::Fault, 0, &mut buf)
        }
        .expect("verb")
    };
    for qos in [false, true] {
        // Verbs far apart: each completes at its isolated latency.
        let mut e = endpoint(qos);
        for (i, &(bytes, write)) in interleaved_verbs().iter().enumerate() {
            let t = i as Ns * 1_000_000;
            let total = if write {
                cfg.rdma_write_ns(bytes)
            } else {
                cfg.rdma_read_ns(bytes)
            };
            let want = t + total - cfg.memnode_hugepage_saving_ns;
            assert_eq!(post(&mut e, t, bytes, write), want, "qos {qos}, verb {i}");
            assert_eq!(post(&mut endpoint(qos), t, bytes, write), want);
        }
        // Transfers back to back: each queues behind its direction's last.
        let fabric = || {
            let mut f = Fabric::new(cfg.clone(), 1_000_000);
            if let Some(s) = shares(qos) {
                f.set_qos(s);
            }
            f
        };
        let mut f = fabric();
        let mut free: [Ns; 2] = [0; 2];
        for (i, &(bytes, inbound)) in interleaved_verbs().iter().enumerate() {
            let t = i as Ns * 100;
            let wire = cfg.wire_ns(bytes);
            let d = usize::from(inbound);
            let start = t.max(free[d]);
            free[d] = if qos { start + wire * 4 } else { start + wire };
            let end = f.transfer(t, ServiceClass::App, bytes, inbound);
            assert_eq!(end, start + wire, "qos {qos}, transfer {i}");
            assert_eq!(
                fabric().transfer(start, ServiceClass::App, bytes, inbound),
                end
            );
        }
    }
}
