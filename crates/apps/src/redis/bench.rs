//! The redis-benchmark equivalent: workload generators and drivers for the
//! GET / LRANGE / DEL evaluations (§6.2, §6.3 — Figures 10, 12, Table 4).
//!
//! Mirrors the paper's methodology: fully populate the keyspace (4 KiB,
//! 64 KiB, or the Facebook-photo mixed sizes), then issue GET queries with
//! random keys; for lists, populate many separate lists ("we have modified
//! the benchmark to populate and query 100 thousand separate lists") and
//! run LRANGE_100; for the bandwidth experiment, SET small values then DEL
//! a random 70 % of the keyspace.

use dilos_sim::{LatencyHistogram, MixedSizes, Ns, SplitMix64};

use crate::farmem::FarMemory;
use crate::redis::server::RedisServer;

/// Value-size configuration for the GET workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSizes {
    /// Fixed-size values.
    Fixed(usize),
    /// The six-way mixed distribution (4–128 KiB).
    Mixed,
}

impl ValueSizes {
    fn sample(&self, rng: &mut SplitMix64) -> usize {
        match self {
            ValueSizes::Fixed(n) => *n,
            ValueSizes::Mixed => MixedSizes::sample(rng),
        }
    }

    /// Label for tables.
    pub fn label(&self) -> String {
        match self {
            ValueSizes::Fixed(n) if n % 1024 == 0 => format!("{}KB", n / 1024),
            ValueSizes::Fixed(n) => format!("{n}B"),
            ValueSizes::Mixed => "mixed".to_string(),
        }
    }
}

/// Result of a query workload run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Queries executed.
    pub queries: u64,
    /// Virtual elapsed time.
    pub elapsed: Ns,
    /// Per-query latency histogram.
    pub latency: LatencyHistogram,
}

impl BenchResult {
    /// Requests per second (the Figure 10 metric).
    pub fn qps(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.queries as f64 / (self.elapsed as f64 / 1e9)
    }
}

/// The workload driver.
#[derive(Debug)]
pub struct RedisBench {
    /// Key count for the keyspace workloads.
    pub keys: usize,
    /// Value sizes.
    pub sizes: ValueSizes,
    /// RNG seed.
    pub seed: u64,
}

impl RedisBench {
    /// Key string for index `i` (stable, zero-padded like redis-benchmark).
    pub fn key(i: usize) -> Vec<u8> {
        format!("key:{i:010}").into_bytes()
    }

    /// Populates the keyspace with SETs; returns total value bytes.
    pub fn populate(&self, server: &mut RedisServer, mem: &mut dyn FarMemory) -> u64 {
        let mut rng = SplitMix64::new(self.seed);
        let mut total = 0u64;
        let mut payload = vec![0u8; 128 * 1024];
        for i in 0..self.keys {
            let size = self.sizes.sample(&mut rng);
            // Deterministic, verifiable fill.
            let stamp = (i % 251) as u8;
            payload[..size].fill(stamp);
            server.set(mem, 0, &Self::key(i), &payload[..size]);
            total += size as u64;
        }
        total
    }

    /// GET workload: `queries` random-key GETs, verifying payloads.
    ///
    /// # Panics
    ///
    /// Panics if a value comes back missing or corrupted.
    pub fn run_gets(
        &self,
        server: &mut RedisServer,
        mem: &mut dyn FarMemory,
        queries: usize,
    ) -> BenchResult {
        let mut rng = SplitMix64::new(self.seed ^ 0x6E75);
        let mut latency = LatencyHistogram::new();
        let t0 = mem.now(0);
        for _ in 0..queries {
            let i = rng.gen_range(self.keys as u64) as usize;
            let q0 = mem.now(0);
            let v = server
                .get(mem, 0, &Self::key(i))
                .unwrap_or_else(|| panic!("missing key {i}"));
            latency.record(mem.now(0) - q0);
            let stamp = (i % 251) as u8;
            assert!(v.iter().all(|&b| b == stamp), "corrupted value for key {i}");
        }
        BenchResult {
            queries: queries as u64,
            elapsed: mem.now(0) - t0,
            latency,
        }
    }

    /// DEL workload: deletes a random `percent` of the keyspace (the
    /// fragmentation phase of Figure 12). Returns the deleted key indices.
    pub fn run_dels(
        &self,
        server: &mut RedisServer,
        mem: &mut dyn FarMemory,
        percent: u32,
    ) -> Vec<usize> {
        let mut rng = SplitMix64::new(self.seed ^ 0xDE1);
        let mut idx: Vec<usize> = (0..self.keys).collect();
        rng.shuffle(&mut idx);
        let n = self.keys * percent as usize / 100;
        let deleted = idx[..n].to_vec();
        for &i in &deleted {
            assert!(server.del(mem, 0, &Self::key(i)), "key {i} must exist");
        }
        deleted
    }

    /// GET over the surviving keys only (the post-DEL phase of Figure 12).
    pub fn run_gets_surviving(
        &self,
        server: &mut RedisServer,
        mem: &mut dyn FarMemory,
        deleted: &[usize],
        queries: usize,
    ) -> BenchResult {
        let dead: std::collections::BTreeSet<usize> = deleted.iter().copied().collect();
        let alive: Vec<usize> = (0..self.keys).filter(|i| !dead.contains(i)).collect();
        assert!(!alive.is_empty(), "some keys must survive");
        let mut rng = SplitMix64::new(self.seed ^ 0x6E76);
        let mut latency = LatencyHistogram::new();
        let t0 = mem.now(0);
        for _ in 0..queries {
            let i = alive[rng.gen_range(alive.len() as u64) as usize];
            let q0 = mem.now(0);
            let v = server
                .get(mem, 0, &Self::key(i))
                .unwrap_or_else(|| panic!("missing surviving key {i}"));
            latency.record(mem.now(0) - q0);
            assert!(!v.is_empty());
        }
        BenchResult {
            queries: queries as u64,
            elapsed: mem.now(0) - t0,
            latency,
        }
    }
}

/// The LRANGE workload: many separate lists, range queries on random lists.
#[derive(Debug)]
pub struct LrangeBench {
    /// Number of lists.
    pub lists: usize,
    /// Total elements pushed (spread randomly across lists).
    pub elements: usize,
    /// Element payload size.
    pub elem_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl LrangeBench {
    /// List key for index `i`.
    pub fn key(i: usize) -> Vec<u8> {
        format!("mylist:{i:08}").into_bytes()
    }

    /// Populates: pushes `elements` random-sized payloads to random lists
    /// ("we randomly pushed 20 million elements to lists so that each list
    /// contains 200 elements on average").
    pub fn populate(&self, server: &mut RedisServer, mem: &mut dyn FarMemory) {
        let mut rng = SplitMix64::new(self.seed);
        let mut payload = vec![0u8; self.elem_size];
        for e in 0..self.elements {
            let list = rng.gen_range(self.lists as u64) as usize;
            payload.fill((e % 251) as u8);
            server.rpush(mem, 0, &Self::key(list), &payload);
        }
    }

    /// LRANGE_100 workload: fetch the front 100 elements of random lists.
    pub fn run(
        &self,
        server: &mut RedisServer,
        mem: &mut dyn FarMemory,
        queries: usize,
    ) -> BenchResult {
        let mut rng = SplitMix64::new(self.seed ^ 0x14A);
        let mut latency = LatencyHistogram::new();
        let t0 = mem.now(0);
        for _ in 0..queries {
            let list = rng.gen_range(self.lists as u64) as usize;
            let q0 = mem.now(0);
            let _ = server.lrange(mem, 0, &Self::key(list), 100);
            latency.record(mem.now(0) - q0);
        }
        BenchResult {
            queries: queries as u64,
            elapsed: mem.now(0) - t0,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farmem::{SystemKind, SystemSpec};
    use dilos_alloc::Heap;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup(bytes: u64, ratio: u32) -> (Box<dyn FarMemory>, RedisServer) {
        let mut mem = SystemSpec::for_working_set(SystemKind::DilosReadahead, bytes, ratio).boot();
        let base = mem.alloc(bytes as usize);
        let heap = Rc::new(RefCell::new(Heap::new(base, bytes)));
        let server = RedisServer::new(heap, mem.as_mut(), 8192);
        (mem, server)
    }

    #[test]
    fn get_workload_runs_and_measures() {
        let bench = RedisBench {
            keys: 64,
            sizes: ValueSizes::Fixed(4096),
            seed: 1,
        };
        let (mut mem, mut server) = setup(1 << 22, 25);
        let total = bench.populate(&mut server, mem.as_mut());
        assert_eq!(total, 64 * 4096);
        let r = bench.run_gets(&mut server, mem.as_mut(), 200);
        assert_eq!(r.queries, 200);
        assert!(r.qps() > 0.0);
        assert!(r.latency.quantile(0.99) >= r.latency.quantile(0.5));
    }

    #[test]
    fn mixed_sizes_cover_the_distribution() {
        let bench = RedisBench {
            keys: 60,
            sizes: ValueSizes::Mixed,
            seed: 2,
        };
        let (mut mem, mut server) = setup(1 << 24, 100);
        let total = bench.populate(&mut server, mem.as_mut());
        // Mean of {4,8,16,32,64,128} KiB is 42 KiB; 60 keys ≈ 2.5 MiB.
        assert!(total > 60 * 4 * 1024 && total < 60 * 128 * 1024);
        let r = bench.run_gets(&mut server, mem.as_mut(), 100);
        assert_eq!(r.queries, 100);
    }

    #[test]
    fn del_then_get_surviving() {
        let bench = RedisBench {
            keys: 100,
            sizes: ValueSizes::Fixed(128),
            seed: 3,
        };
        let (mut mem, mut server) = setup(1 << 22, 50);
        bench.populate(&mut server, mem.as_mut());
        let deleted = bench.run_dels(&mut server, mem.as_mut(), 70);
        assert_eq!(deleted.len(), 70);
        assert_eq!(server.dbsize(), 30);
        let r = bench.run_gets_surviving(&mut server, mem.as_mut(), &deleted, 50);
        assert_eq!(r.queries, 50);
    }

    #[test]
    fn lrange_workload_runs() {
        let bench = LrangeBench {
            lists: 10,
            elements: 600,
            elem_size: 64,
            seed: 4,
        };
        let (mut mem, mut server) = setup(1 << 22, 50);
        bench.populate(&mut server, mem.as_mut());
        let r = bench.run(&mut server, mem.as_mut(), 20);
        assert_eq!(r.queries, 20);
        assert!(r.qps() > 0.0);
    }
}
