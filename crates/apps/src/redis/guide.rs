//! The app-aware Redis prefetch guide (§6.3).
//!
//! "The app-aware prefetcher for GET and LRANGE is written in only 275
//! lines of C code and compiled with the Redis source. It includes four
//! handlers for subpage prefetching and four hooker functions for
//! application information gathering. Note that we need not modify the
//! Redis main code for the prefetcher."
//!
//! Hooks (called by the server wrapper, standing in for the ELF-loader
//! function hooks of §5) arm the guide with what Redis is about to
//! traverse; the fault handler then drives it:
//!
//! - **GET**: on the first fault into a value, subpage-fetch the SDS header,
//!   read the length, and prefetch exactly the pages the value spans.
//! - **LRANGE**: on each fault during a quicklist traversal, subpage-fetch
//!   the node struct (it arrives ahead of the full page), then prefetch the
//!   node's ziplist pages and chase the `next` pointer a few nodes ahead —
//!   the Figure 11 pipeline.

use dilos_core::{GuideOps, PrefetchGuide};

use crate::redis::quicklist::{decode_node, NODE_SIZE};
use crate::redis::sds::SDS_HDR;

/// How many quicklist nodes to chase ahead per fault.
const CHASE_DEPTH: usize = 3;

/// Guide statistics (for the evaluation tables).
#[derive(Debug, Clone, Copy, Default)]
pub struct RedisGuideStats {
    /// GET faults handled.
    pub get_assists: u64,
    /// LRANGE faults handled.
    pub lrange_assists: u64,
    /// Pages prefetched by the guide.
    pub pages_prefetched: u64,
}

/// The Redis prefetch guide.
#[derive(Debug, Default)]
pub struct RedisGuide {
    /// Armed by the GET hook: the SDS value about to be read.
    get_target: Option<u64>,
    /// Armed by the LRANGE hook and advanced on faults: the next quicklist
    /// node to chase.
    lrange_node: Option<u64>,
    /// Stats.
    pub stats: RedisGuideStats,
}

impl RedisGuide {
    /// Creates an idle guide.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hook: Redis is about to read the SDS value at `sds_va`
    /// (`lookupKeyRead` → `addReplyBulk` in real Redis).
    pub fn hook_get(&mut self, sds_va: u64) {
        self.get_target = Some(sds_va);
    }

    /// Hook: Redis is about to traverse the quicklist starting at
    /// `head_node` (`listTypeIterator` in real Redis).
    pub fn hook_lrange(&mut self, head_node: u64) {
        self.lrange_node = (head_node != 0).then_some(head_node);
    }

    /// Hook: the command finished; disarm.
    pub fn hook_done(&mut self) {
        self.get_target = None;
        self.lrange_node = None;
    }

    fn assist_get(&mut self, sds_va: u64, ops: &mut dyn GuideOps) {
        // Subpage-fetch the SDS header (all of it — a read cut short by the
        // page boundary is no header); its length tells us exactly which
        // pages the value spans.
        let mut hdr = [0u8; SDS_HDR];
        let Some((SDS_HDR, _)) = ops.subpage_read(sds_va, &mut hdr) else {
            return;
        };
        let len = u32::from_le_bytes(hdr[..4].try_into().expect("4-byte len")) as u64;
        let end = sds_va + SDS_HDR as u64 + len;
        let mut page = (sds_va >> 12) << 12;
        while page < end {
            ops.prefetch_page(page);
            self.stats.pages_prefetched += 1;
            page += 4096;
        }
        self.stats.get_assists += 1;
    }

    fn assist_lrange(&mut self, ops: &mut dyn GuideOps) {
        let Some(mut node_va) = self.lrange_node else {
            return;
        };
        let mut bytes = [0u8; NODE_SIZE];
        for _ in 0..CHASE_DEPTH {
            // Subpage-fetch the whole node struct; it lands ahead of any full
            // page fetch, giving us the ziplist and next pointers early.
            let Some((NODE_SIZE, _)) = ops.subpage_read(node_va, &mut bytes) else {
                break;
            };
            let node = decode_node(&bytes);
            // Prefetch the pages the node's ziplist occupies.
            if node.zl != 0 {
                let mut page = (node.zl >> 12) << 12;
                let end = node.zl + node.zl_bytes as u64;
                while page < end {
                    ops.prefetch_page(page);
                    self.stats.pages_prefetched += 1;
                    page += 4096;
                }
            }
            if node.next == 0 {
                self.lrange_node = None;
                self.stats.lrange_assists += 1;
                return;
            }
            // Prefetch the next node's page and keep chasing.
            ops.prefetch_page(node.next);
            self.stats.pages_prefetched += 1;
            node_va = node.next;
        }
        self.lrange_node = Some(node_va);
        self.stats.lrange_assists += 1;
    }
}

impl PrefetchGuide for RedisGuide {
    fn on_fault(&mut self, _va: u64, ops: &mut dyn GuideOps) {
        if let Some(sds_va) = self.get_target.take() {
            self.assist_get(sds_va, ops);
        }
        if self.lrange_node.is_some() {
            self.assist_lrange(ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilos_sim::Ns;

    /// A scripted GuideOps for testing the guide's decisions in isolation.
    #[derive(Default)]
    struct FakeOps {
        memory: std::collections::BTreeMap<u64, Vec<u8>>,
        prefetched: Vec<u64>,
    }

    impl GuideOps for FakeOps {
        fn subpage_read(&mut self, va: u64, buf: &mut [u8]) -> Option<(usize, Ns)> {
            let d = self.memory.get(&va)?;
            let n = buf.len().min(d.len());
            buf[..n].copy_from_slice(&d[..n]);
            Some((n, 100))
        }
        fn prefetch_page(&mut self, va: u64) {
            self.prefetched.push(va);
        }
        fn now(&self) -> Ns {
            0
        }
    }

    fn node_bytes(next: u64, prev: u64, zl: u64, zl_bytes: u32, count: u32) -> Vec<u8> {
        let mut b = vec![0u8; NODE_SIZE];
        b[0..8].copy_from_slice(&next.to_le_bytes());
        b[8..16].copy_from_slice(&prev.to_le_bytes());
        b[16..24].copy_from_slice(&zl.to_le_bytes());
        b[24..28].copy_from_slice(&zl_bytes.to_le_bytes());
        b[28..32].copy_from_slice(&count.to_le_bytes());
        b
    }

    #[test]
    fn get_assist_prefetches_exactly_the_value_pages() {
        let mut guide = RedisGuide::new();
        let mut ops = FakeOps::default();
        // A 10 KiB value at page-aligned 0x10000: spans 3 pages.
        let sds = 0x10_000u64;
        let mut hdr = vec![0u8; SDS_HDR];
        hdr[..4].copy_from_slice(&(10_240u32).to_le_bytes());
        ops.memory.insert(sds, hdr);
        guide.hook_get(sds);
        guide.on_fault(sds, &mut ops);
        assert_eq!(ops.prefetched, vec![0x10_000, 0x11_000, 0x12_000]);
        assert_eq!(guide.stats.get_assists, 1);
        // The target is one-shot.
        guide.on_fault(sds, &mut ops);
        assert_eq!(guide.stats.get_assists, 1);
    }

    #[test]
    fn lrange_assist_chases_nodes_and_ziplists() {
        let mut guide = RedisGuide::new();
        let mut ops = FakeOps::default();
        // Three nodes on separate pages, each with a 1-page ziplist.
        let (n1, n2, n3) = (0x20_000u64, 0x30_000u64, 0x40_000u64);
        let (z1, z2, z3) = (0x21_000u64, 0x31_000u64, 0x41_000u64);
        ops.memory.insert(n1, node_bytes(n2, 0, z1, 4096, 5));
        ops.memory.insert(n2, node_bytes(n3, n1, z2, 4096, 5));
        ops.memory.insert(n3, node_bytes(0, n2, z3, 4096, 5));
        guide.hook_lrange(n1);
        guide.on_fault(n1, &mut ops);
        // Ziplists of all three nodes + the next-node pages.
        assert!(ops.prefetched.contains(&z1));
        assert!(ops.prefetched.contains(&z2));
        assert!(ops.prefetched.contains(&z3));
        assert!(ops.prefetched.contains(&n2));
        assert!(ops.prefetched.contains(&n3));
        // Chain ended; the guide disarmed itself.
        assert_eq!(guide.stats.lrange_assists, 1);
        let before = ops.prefetched.len();
        guide.on_fault(n1, &mut ops);
        assert_eq!(ops.prefetched.len(), before);
    }

    #[test]
    fn lrange_assist_resumes_where_it_stopped() {
        let mut guide = RedisGuide::new();
        let mut ops = FakeOps::default();
        // A chain longer than CHASE_DEPTH.
        let nodes: Vec<u64> = (0..6).map(|i| 0x100_000 + i * 0x10_000).collect();
        for (i, &n) in nodes.iter().enumerate() {
            let next = nodes.get(i + 1).copied().unwrap_or(0);
            ops.memory
                .insert(n, node_bytes(next, 0, n + 0x1_000, 4096, 3));
        }
        guide.hook_lrange(nodes[0]);
        guide.on_fault(nodes[0], &mut ops);
        let first_round = ops.prefetched.len();
        assert!(first_round > 0);
        // Second fault continues deeper into the chain.
        guide.on_fault(nodes[3], &mut ops);
        assert!(ops.prefetched.len() > first_round);
        assert!(ops.prefetched.contains(&(nodes[5] + 0x1_000)));
    }

    #[test]
    fn disarmed_guide_is_inert() {
        let mut guide = RedisGuide::new();
        let mut ops = FakeOps::default();
        guide.on_fault(0x5000, &mut ops);
        assert!(ops.prefetched.is_empty());
        guide.hook_get(0x9000);
        guide.hook_done();
        guide.on_fault(0x9000, &mut ops);
        assert!(ops.prefetched.is_empty());
    }
}
