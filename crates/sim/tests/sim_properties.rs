//! Property tests for the simulation substrate.
//!
//! The virtual-time model underpins every number in the reproduction, so
//! its primitives get ground-truth checks: histogram quantiles against a
//! sorted reference, timeline conservation laws, memory-node consistency
//! against a flat buffer, and LRU-chain equivalence with a naive list.

use dilos_sim::{
    LatencyHistogram, LruChain, MemoryNode, RdmaEndpoint, ServiceClass, SimConfig, Timeline,
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

    /// LruChain behaves exactly like a naive recency list.
    #[test]
    fn lru_chain_matches_naive_list(
        ops in prop::collection::vec((0u64..32, 0u8..3), 1..300),
    ) {
        let mut chain = LruChain::new();
        // Naive model: most recent at the back.
        let mut model: Vec<u64> = Vec::new();
        for &(k, op) in &ops {
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
                    chain.remove(k);
                    model.retain(|&x| x != k);
                }
            }
            prop_assert_eq!(chain.len(), model.len());
            prop_assert_eq!(chain.coldest(), model.first().copied());
        }
        let cold_order: Vec<u64> = chain.iter_cold().collect();
        prop_assert_eq!(cold_order, model);
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
            replication,
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
