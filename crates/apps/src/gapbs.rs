//! GAPBS graph workloads: PageRank and betweenness centrality (Figure 9).
//!
//! The paper runs GAP Benchmark Suite 1.4's PR and BC kernels on the
//! Twitter graph (17 GB working set) with four threads. This module
//! implements, from scratch:
//!
//! - a Kronecker (R-MAT) power-law graph generator (the GAPBS synthetic
//!   generator, substituting for the non-redistributable Twitter crawl),
//! - a CSR representation living in far memory (both directions),
//! - pull-based PageRank, and
//! - Brandes betweenness centrality from sampled sources —
//!
//! with the multi-threaded execution model of the paper: vertex ranges are
//! partitioned across simulated cores with barriers between phases. BC's
//! extra level of indirection (frontier → CSR → per-vertex arrays) is what
//! makes it "more random than PageRank" (§6.2), and that shows up here.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::farmem::{FarArray, FarMemory};
use dilos_core::{GuideOps, PrefetchGuide};
use dilos_sim::SplitMix64;

/// Per-edge compute charge (ns).
const EDGE_NS: u64 = 2;

/// A far-memory CSR graph (plus its transpose for pull-style kernels).
#[derive(Debug, Clone, Copy)]
pub struct FarGraph {
    /// Out-neighbour offsets, `n + 1` entries.
    pub out_ptr: FarArray,
    /// Out-neighbour targets, `m` entries.
    pub out_col: FarArray,
    /// In-neighbour offsets, `n + 1` entries.
    pub in_ptr: FarArray,
    /// In-neighbour sources, `m` entries.
    pub in_col: FarArray,
    /// Vertices.
    pub n: usize,
    /// Directed edges.
    pub m: usize,
}

/// The graph workload descriptor.
#[derive(Debug, Clone, Copy)]
pub struct GraphWorkload {
    /// Kronecker scale: `n = 2^scale` vertices.
    pub scale: u32,
    /// Edges per vertex (GAPBS default 16).
    pub edge_factor: usize,
    /// RNG seed.
    pub seed: u64,
    /// Simulated threads (the paper uses 4).
    pub threads: usize,
}

impl GraphWorkload {
    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        1 << self.scale
    }

    /// Generates the R-MAT edge list and builds both CSR directions in far
    /// memory.
    pub fn build(&self, mem: &mut dyn FarMemory) -> FarGraph {
        let n = self.vertices();
        let m = n * self.edge_factor;
        let mut rng = SplitMix64::new(self.seed);
        // R-MAT parameters from the Graph500/GAPBS spec.
        let (a, b, c) = (0.57, 0.19, 0.19);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..self.scale {
                let r = rng.gen_f64();
                let (ub, vb) = if r < a {
                    (0, 0)
                } else if r < a + b {
                    (0, 1)
                } else if r < a + b + c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | ub;
                v = (v << 1) | vb;
            }
            if u != v {
                edges.push((u as u32, v as u32));
            }
        }
        // Permute vertex labels (GAPBS shuffles to avoid locality bias).
        let mut perm: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut perm);
        for e in &mut edges {
            e.0 = perm[e.0 as usize];
            e.1 = perm[e.1 as usize];
        }
        let m = edges.len();

        // Degree counting + prefix sums (host-side scratch; the CSR itself
        // lives in far memory).
        let mut out_deg = vec![0u64; n + 1];
        let mut in_deg = vec![0u64; n + 1];
        for &(u, v) in &edges {
            out_deg[u as usize + 1] += 1;
            in_deg[v as usize + 1] += 1;
        }
        for i in 1..=n {
            out_deg[i] += out_deg[i - 1];
            in_deg[i] += in_deg[i - 1];
        }

        let g = FarGraph {
            out_ptr: FarArray::new(mem, n + 1),
            out_col: FarArray::new(mem, m.max(1)),
            in_ptr: FarArray::new(mem, n + 1),
            in_col: FarArray::new(mem, m.max(1)),
            n,
            m,
        };
        g.out_ptr.write_range(mem, 0, 0, &out_deg);
        g.in_ptr.write_range(mem, 0, 0, &in_deg);

        let mut out_fill = out_deg.clone();
        let mut in_fill = in_deg.clone();
        let mut out_col = vec![0u64; m];
        let mut in_col = vec![0u64; m];
        for &(u, v) in &edges {
            out_col[out_fill[u as usize] as usize] = v as u64;
            out_fill[u as usize] += 1;
            in_col[in_fill[v as usize] as usize] = u as u64;
            in_fill[v as usize] += 1;
        }
        g.out_col.write_range(mem, 0, 0, &out_col);
        g.in_col.write_range(mem, 0, 0, &in_col);
        g
    }

    /// Far-memory footprint of the CSR in bytes.
    pub fn working_set(&self) -> u64 {
        let n = self.vertices() as u64;
        let m = (self.vertices() * self.edge_factor) as u64;
        // Two ptr arrays + two col arrays + rank/score arrays.
        (2 * (n + 1) + 2 * m + 4 * n) * 8
    }

    /// Pull-based PageRank for `iters` iterations; returns the score array
    /// and the virtual elapsed time.
    pub fn pagerank(&self, mem: &mut dyn FarMemory, g: &FarGraph, iters: usize) -> (Vec<f64>, u64) {
        let t0 = mem.max_now();
        let n = g.n;
        let damp = 0.85;
        let base = (1.0 - damp) / n as f64;
        let rank = FarArray::new(mem, n);
        let contrib = FarArray::new(mem, n);
        for v in 0..n {
            rank.set_f64(mem, 0, v, 1.0 / n as f64);
        }
        let threads = self.threads.max(1);
        for _ in 0..iters {
            // Phase 1: per-vertex contribution = rank / out-degree.
            for (core, range) in partition(n, threads) {
                for v in range {
                    let d = g.out_ptr.get(mem, core, v + 1) - g.out_ptr.get(mem, core, v);
                    let r = rank.get_f64(mem, core, v);
                    let c = if d > 0 { r / d as f64 } else { 0.0 };
                    contrib.set_f64(mem, core, v, c);
                    mem.compute(core, EDGE_NS);
                }
            }
            mem.barrier();
            // Phase 2: pull contributions along in-edges.
            for (core, range) in partition(n, threads) {
                for v in range {
                    let s = g.in_ptr.get(mem, core, v) as usize;
                    let e = g.in_ptr.get(mem, core, v + 1) as usize;
                    let mut sum = 0f64;
                    for idx in s..e {
                        let u = g.in_col.get(mem, core, idx) as usize;
                        sum += contrib.get_f64(mem, core, u);
                        mem.compute(core, EDGE_NS);
                    }
                    rank.set_f64(mem, core, v, base + damp * sum);
                }
            }
            mem.barrier();
        }
        let scores: Vec<f64> = (0..n).map(|v| rank.get_f64(mem, 0, v)).collect();
        (scores, mem.max_now() - t0)
    }

    /// Brandes betweenness centrality from `sources` sampled roots;
    /// returns centrality scores and virtual elapsed time.
    pub fn betweenness(
        &self,
        mem: &mut dyn FarMemory,
        g: &FarGraph,
        sources: usize,
    ) -> (Vec<f64>, u64) {
        self.betweenness_hooked(mem, g, sources, None)
    }

    /// [`betweenness`](Self::betweenness) with the app-aware [`GraphGuide`]
    /// hooks driven from the frontier loop (the §5 "hooking interface"
    /// pattern: the kernel is unchanged except for the hook calls).
    pub fn betweenness_hooked(
        &self,
        mem: &mut dyn FarMemory,
        g: &FarGraph,
        sources: usize,
        guide: Option<&Rc<RefCell<GraphGuide>>>,
    ) -> (Vec<f64>, u64) {
        let t0 = mem.max_now();
        let n = g.n;
        let threads = self.threads.max(1);
        let mut centrality = vec![0f64; n];
        let mut rng = SplitMix64::new(self.seed ^ 0xBC);
        let depth = FarArray::new(mem, n);
        let sigma = FarArray::new(mem, n);
        let delta = FarArray::new(mem, n);

        for _ in 0..sources {
            // GAPBS samples sources with non-zero out-degree (a Kronecker
            // graph has many isolated vertices).
            let src = loop {
                let cand = rng.gen_range(n as u64) as usize;
                let deg = g.out_ptr.get(mem, 0, cand + 1) - g.out_ptr.get(mem, 0, cand);
                if deg > 0 {
                    break cand;
                }
            };
            // Init arrays (parallel sweep).
            for (core, range) in partition(n, threads) {
                for v in range {
                    depth.set_i64(mem, core, v, -1);
                    sigma.set(mem, core, v, 0);
                    delta.set_f64(mem, core, v, 0.0);
                }
            }
            mem.barrier();
            depth.set_i64(mem, 0, src, 0);
            sigma.set(mem, 0, src, 1);

            // Forward BFS, level-synchronous; frontier chunks round-robin
            // across cores.
            let mut levels: Vec<Vec<u32>> = vec![vec![src as u32]];
            loop {
                let frontier = levels.last().expect("non-empty");
                if frontier.is_empty() {
                    levels.pop();
                    break;
                }
                let d = (levels.len() - 1) as i64;
                let mut next = Vec::new();
                for (ci, chunk) in frontier.chunks(64).enumerate() {
                    let core = ci % threads;
                    if let Some(gd) = guide {
                        gd.borrow_mut().hook_frontier(chunk, false);
                    }
                    for &u in chunk {
                        let s = g.out_ptr.get(mem, core, u as usize) as usize;
                        let e = g.out_ptr.get(mem, core, u as usize + 1) as usize;
                        let su = sigma.get(mem, core, u as usize);
                        for idx in s..e {
                            let v = g.out_col.get(mem, core, idx) as usize;
                            let dv = depth.get_i64(mem, core, v);
                            mem.compute(core, EDGE_NS);
                            if dv < 0 {
                                depth.set_i64(mem, core, v, d + 1);
                                sigma.set(mem, core, v, su);
                                next.push(v as u32);
                            } else if dv == d + 1 {
                                let sv = sigma.get(mem, core, v);
                                sigma.set(mem, core, v, sv + su);
                            }
                        }
                    }
                }
                mem.barrier();
                levels.push(next);
            }

            // Backward dependency accumulation.
            for level in levels.iter().skip(1).rev() {
                for (ci, chunk) in level.chunks(64).enumerate() {
                    let core = ci % threads;
                    if let Some(gd) = guide {
                        gd.borrow_mut().hook_frontier(chunk, true);
                    }
                    for &v in chunk {
                        let dv = depth.get_i64(mem, core, v as usize);
                        let s = g.in_ptr.get(mem, core, v as usize) as usize;
                        let e = g.in_ptr.get(mem, core, v as usize + 1) as usize;
                        let sv = sigma.get(mem, core, v as usize) as f64;
                        let delv = delta.get_f64(mem, core, v as usize);
                        for idx in s..e {
                            let u = g.in_col.get(mem, core, idx) as usize;
                            mem.compute(core, EDGE_NS);
                            if depth.get_i64(mem, core, u) == dv - 1 {
                                let su = sigma.get(mem, core, u) as f64;
                                let du = delta.get_f64(mem, core, u);
                                delta.set_f64(mem, core, u, du + (su / sv) * (1.0 + delv));
                            }
                        }
                        if v as usize != src {
                            centrality[v as usize] += delv;
                        }
                    }
                }
                mem.barrier();
            }
        }
        if let Some(gd) = guide {
            gd.borrow_mut().hook_done();
        }
        (centrality, mem.max_now() - t0)
    }
}

/// An app-aware prefetch guide for CSR traversals (§4.3 applied to graphs).
///
/// The application hooks its frontier loop: before expanding a batch of
/// vertices it tells the guide which vertices come next
/// ([`hook_frontier`](Self::hook_frontier)). On each page fault the guide
/// subpage-fetches the CSR offsets of the next few frontier vertices (16
/// bytes each — they arrive ahead of any full page) and prefetches the
/// column-array pages their edge lists occupy. General-purpose prefetchers
/// cannot see this: frontier order is BFS discovery order, so consecutive
/// edge segments are scattered across the column array.
#[derive(Debug)]
pub struct GraphGuide {
    out_ptr: u64,
    out_col: u64,
    in_ptr: u64,
    in_col: u64,
    /// Upcoming `(vertex, backward?)` expansions, newest last.
    queue: VecDeque<(u32, bool)>,
    /// Vertices to chase per fault.
    depth: usize,
    /// Pages prefetched (stats).
    pub pages_prefetched: u64,
    /// Faults assisted (stats).
    pub assists: u64,
}

impl GraphGuide {
    /// Builds a guide for `g`'s memory layout.
    pub fn new(g: &FarGraph) -> Self {
        Self {
            out_ptr: g.out_ptr.base(),
            out_col: g.out_col.base(),
            in_ptr: g.in_ptr.base(),
            in_col: g.in_col.base(),
            queue: VecDeque::new(),
            depth: 4,
            pages_prefetched: 0,
            assists: 0,
        }
    }

    /// Hook: the application is about to expand `verts` (in order);
    /// `backward` selects the in-CSR (BC's dependency pass).
    pub fn hook_frontier(&mut self, verts: &[u32], backward: bool) {
        self.queue.clear();
        self.queue.extend(verts.iter().map(|&v| (v, backward)));
    }

    /// Hook: the traversal finished; disarm.
    pub fn hook_done(&mut self) {
        self.queue.clear();
    }
}

impl PrefetchGuide for GraphGuide {
    fn on_fault(&mut self, _va: u64, ops: &mut dyn GuideOps) {
        if self.queue.is_empty() {
            return;
        }
        self.assists += 1;
        for _ in 0..self.depth {
            let Some((v, backward)) = self.queue.pop_front() else {
                break;
            };
            let (ptr_base, col_base) = if backward {
                (self.in_ptr, self.in_col)
            } else {
                (self.out_ptr, self.out_col)
            };
            // Subpage-fetch offsets `ptr[v]` and `ptr[v + 1]` (16 bytes;
            // two reads when the pair straddles a page boundary).
            let addr = ptr_base + v as u64 * 8;
            let mut bytes = [0u8; 16];
            if (addr >> 12) == ((addr + 15) >> 12) {
                let Some((16, _)) = ops.subpage_read(addr, &mut bytes) else {
                    continue;
                };
            } else {
                let (lo, hi) = bytes.split_at_mut(8);
                let Some((8, _)) = ops.subpage_read(addr, lo) else {
                    continue;
                };
                let Some((8, _)) = ops.subpage_read(addr + 8, hi) else {
                    continue;
                };
            }
            let s = u64::from_le_bytes(bytes[0..8].try_into().expect("8"));
            let e = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
            if e <= s {
                continue;
            }
            // Prefetch the column pages this vertex's edge list occupies.
            let mut page = (col_base + s * 8) & !4095;
            let end = col_base + e * 8;
            while page < end {
                ops.prefetch_page(page);
                self.pages_prefetched += 1;
                page += 4096;
            }
        }
    }
}

/// Splits `0..n` into `threads` contiguous ranges tagged with core ids.
fn partition(n: usize, threads: usize) -> Vec<(usize, std::ops::Range<usize>)> {
    let per = n.div_ceil(threads);
    (0..threads)
        .map(|c| (c, (c * per).min(n)..((c + 1) * per).min(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farmem::{SystemKind, SystemSpec};

    fn small() -> GraphWorkload {
        GraphWorkload {
            scale: 8,
            edge_factor: 8,
            seed: 21,
            threads: 4,
        }
    }

    fn boot(wl: &GraphWorkload, ratio: u32) -> Box<dyn FarMemory> {
        let mut spec =
            SystemSpec::for_working_set(SystemKind::DilosReadahead, wl.working_set(), ratio);
        spec.cores = wl.threads;
        spec.boot()
    }

    #[test]
    fn csr_is_well_formed() {
        let wl = small();
        let mut mem = boot(&wl, 100);
        let g = wl.build(mem.as_mut());
        assert_eq!(g.n, 256);
        assert!(g.m > 0);
        // Offsets are monotone and end at m, in both directions.
        let mut prev = 0;
        for v in 0..=g.n {
            let p = g.out_ptr.get(mem.as_mut(), 0, v);
            assert!(p >= prev);
            prev = p;
        }
        assert_eq!(prev as usize, g.m);
        assert_eq!(g.in_ptr.get(mem.as_mut(), 0, g.n) as usize, g.m);
        // Every column index is a valid vertex.
        for i in 0..g.m {
            assert!((g.out_col.get(mem.as_mut(), 0, i) as usize) < g.n);
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_is_skewed() {
        let wl = small();
        let mut mem = boot(&wl, 100);
        let g = wl.build(mem.as_mut());
        let (scores, elapsed) = wl.pagerank(mem.as_mut(), &g, 10);
        assert!(elapsed > 0);
        // GAPBS's pull kernel does not redistribute dangling-vertex mass,
        // so the total is ≤ 1 but must stay substantial.
        let sum: f64 = scores.iter().sum();
        assert!(sum > 0.5 && sum <= 1.0 + 1e-9, "rank mass {sum}");
        // Power-law graph: the max rank dwarfs the median.
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!(sorted[scores.len() - 1] > 10.0 * sorted[scores.len() / 2]);
    }

    #[test]
    fn bc_scores_are_nonnegative_and_nonzero_somewhere() {
        let wl = small();
        let mut mem = boot(&wl, 100);
        let g = wl.build(mem.as_mut());
        let (scores, elapsed) = wl.betweenness(mem.as_mut(), &g, 2);
        assert!(elapsed > 0);
        assert!(scores.iter().all(|&s| s >= 0.0));
        assert!(
            scores.iter().any(|&s| s > 0.0),
            "some vertex must be central"
        );
    }

    #[test]
    fn results_independent_of_memory_pressure() {
        let wl = GraphWorkload {
            scale: 7,
            edge_factor: 8,
            seed: 5,
            threads: 2,
        };
        let run = |ratio| {
            let mut mem = boot(&wl, ratio);
            let g = wl.build(mem.as_mut());
            wl.pagerank(mem.as_mut(), &g, 5).0
        };
        assert_eq!(run(100), run(13));
    }

    #[test]
    fn graph_guide_speeds_up_bc_under_pressure() {
        use dilos_core::{Dilos, DilosConfig, Readahead};
        let wl = GraphWorkload {
            scale: 9,
            edge_factor: 16,
            seed: 13,
            threads: 1,
        };
        let run = |guided: bool| {
            let local_pages = (wl.working_set() / 4096 * 20 / 100).max(32) as usize;
            let mut node = Dilos::new(DilosConfig {
                local_pages,
                remote_bytes: (wl.working_set() * 4).next_power_of_two(),
                ..DilosConfig::default()
            });
            node.set_prefetcher(Box::new(Readahead::new()));
            let g = wl.build(&mut node);
            let guide = Rc::new(RefCell::new(GraphGuide::new(&g)));
            if guided {
                node.set_prefetch_guide(guide.clone());
            }
            let (scores, t) = wl.betweenness_hooked(&mut node, &g, 2, guided.then_some(&guide));
            let prefetched = guide.borrow().pages_prefetched;
            (scores, t, prefetched)
        };
        let (s_plain, t_plain, _) = run(false);
        let (s_guided, t_guided, prefetched) = run(true);
        assert_eq!(s_plain, s_guided, "guides must not change results");
        assert!(prefetched > 0, "the guide must have prefetched");
        assert!(
            t_guided < t_plain,
            "guided BC must be faster: {t_guided} vs {t_plain}"
        );
    }

    #[test]
    fn partition_covers_everything() {
        for n in [0, 1, 7, 100] {
            for t in [1, 3, 4] {
                let parts = partition(n, t);
                let total: usize = parts.iter().map(|(_, r)| r.len()).sum();
                assert_eq!(total, n);
            }
        }
    }
}
