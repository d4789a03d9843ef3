//! The AIFM baseline: application-integrated far memory.
//!
//! AIFM (Ruan et al., OSDI '20) avoids page faults entirely: remoteable
//! objects are dereferenced through smart pointers that *check* locality on
//! every access, misses are handled by a user-level runtime over TCP, and a
//! multi-threaded background prefetcher streams sequential data with
//! "almost perfect overlapping of computation and networking" (§6.2 of the
//! DiLOS paper).
//!
//! The model reproduces AIFM's three signatures the DiLOS evaluation leans
//! on:
//!
//! 1. **No exception cost** — a miss or an in-flight wait costs user-level
//!    handling only, so AIFM wins on sequential scans under tight local
//!    memory (Figure 7c/d at 12.5 %).
//! 2. **Per-deref tax** — every access pays the locality check, so AIFM
//!    *loses* when everything is local (Figure 8 at 100 %).
//! 3. **Object-granularity I/O** — fetches move the object (≤ one chunk),
//!    not the page, and ride TCP with the paper's 14,000-cycle handicap.

use std::collections::BTreeMap;

use dilos_sim::{
    page_chunks, ComputeNode, DeliverCompletion, EventId, FaultKind, Machine, MetricsRegistry, Ns,
    Observability, RdmaEndpoint, SchedEvent, ServiceClass, SimConfig, TraceEvent, PAGE_SIZE,
};

/// Smart-pointer locality check per dereference, in virtual ns (the
/// "extra instructions" §6.2 blames for AIFM's 100 %-local slowdown).
const DEREF_CHECK_NS: Ns = 6;
/// User-level miss handling, in virtual ns (runtime dispatch, no kernel
/// crossing).
const MISS_HANDLING_NS: Ns = 600;

/// AIFM configuration.
#[derive(Debug, Clone)]
pub struct AifmConfig {
    /// Local memory budget in 4 KiB chunks (`kCacheGBs` in AIFM).
    pub local_chunks: usize,
    /// Remote pool size in bytes.
    pub remote_bytes: u64,
    /// Simulated cores.
    pub cores: usize,
    /// Background prefetcher's maximum stream depth.
    pub prefetch_depth: usize,
    /// The observability bundle (trace + metrics + profiler) threaded to
    /// every component at boot. Pure observation — trace digests are
    /// identical whether metrics are on or off. Use a fresh bundle per
    /// booted node.
    pub obs: Observability,
}

impl Default for AifmConfig {
    fn default() -> Self {
        Self {
            local_chunks: 1024,
            remote_bytes: 1 << 32,
            cores: 1,
            prefetch_depth: 16,
            obs: Observability::none(),
        }
    }
}

/// AIFM counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AifmStats {
    /// Dereferences checked.
    pub derefs: u64,
    /// Chunk misses that issued a demand fetch.
    pub misses: u64,
    /// Accesses that waited on an in-flight prefetched chunk.
    pub inflight_waits: u64,
    /// Chunks prefetched by the background streamer.
    pub prefetched: u64,
    /// Chunks evacuated to the remote pool.
    pub evictions: u64,
    /// Dirty chunks written back.
    pub writebacks: u64,
}

#[derive(Debug, Clone)]
enum ChunkState {
    Local {
        data: Box<[u8]>,
        dirty: bool,
        accessed: bool,
        ready_at: Ns,
        /// Streamed in by the prefetcher and not yet dereferenced — pairs
        /// the traced `PrefetchIssue` with its `Land` (first deref) or
        /// `Cancel` (evacuated or freed untouched).
        prefetched: bool,
    },
    Remote,
}

const BASE_VA: u64 = 0x1000_0000_0000;
const CHUNK: usize = PAGE_SIZE;

/// The AIFM compute node.
pub struct Aifm {
    cfg: AifmConfig,
    rdma: RdmaEndpoint,
    chunks: BTreeMap<u64, ChunkState>,
    /// Allocation sizes (object granularity for the final chunk).
    allocs: Vec<(u64, usize)>,
    local_count: usize,
    lru: Vec<u64>,
    clock_hand: usize,
    last_chunk: u64,
    stream_window: usize,
    stats: AifmStats,
    brk: u64,
    /// The chassis. Its calendar delivers the background streamer's
    /// landings at their true completion times; traced verb completions
    /// ride it too.
    m: Machine,
    /// Pending `PrefetchLand` event per streamed-but-unlanded chunk, so a
    /// consuming dereference (or a free) can cancel the landing.
    pending_land: BTreeMap<u64, EventId>,
}

impl std::fmt::Debug for Aifm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aifm")
            .field("local_chunks", &self.cfg.local_chunks)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Aifm {
    /// Boots an AIFM node.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(cfg: AifmConfig) -> Self {
        let sim = SimConfig::default();
        let m = Machine::new(cfg.cores, &sim, &cfg.obs);
        assert!(cfg.local_chunks >= 16, "cache too small");
        let mut rdma = RdmaEndpoint::connect(sim, cfg.remote_bytes);
        // AIFM's transport is TCP: every completion pays the handicap.
        rdma.set_tcp_mode(true);
        rdma.observe(&cfg.obs);
        rdma.set_calendar(m.cal.clone());
        Self {
            rdma,
            m,
            pending_land: BTreeMap::new(),
            chunks: BTreeMap::new(),
            allocs: Vec::new(),
            local_count: 0,
            lru: Vec::new(),
            clock_hand: 0,
            last_chunk: u64::MAX,
            stream_window: 2,
            stats: AifmStats::default(),
            brk: BASE_VA,
            cfg,
        }
    }

    /// Node statistics.
    pub fn stats(&self) -> &AifmStats {
        &self.stats
    }

    /// The RDMA endpoint.
    pub fn rdma(&self) -> &RdmaEndpoint {
        &self.rdma
    }

    /// Allocates a remoteable object/array of `len` bytes.
    pub fn alloc(&mut self, len: usize) -> u64 {
        let va = self.brk;
        let len_r = (len.max(1) + CHUNK - 1) & !(CHUNK - 1);
        self.brk += len_r as u64;
        assert!(
            self.brk - BASE_VA <= self.cfg.remote_bytes,
            "remote pool exhausted"
        );
        self.allocs.push((va, len));
        va
    }

    /// Frees the object at `va` spanning `len` bytes.
    pub fn free(&mut self, va: u64, len: usize) {
        let t = self.m.max_now();
        let start = va >> 12;
        let end = (va + len as u64 + CHUNK as u64 - 1) >> 12;
        for c in start..end {
            if let Some(ChunkState::Local { prefetched, .. }) = self.chunks.remove(&c) {
                if prefetched {
                    if let Some(id) = self.pending_land.remove(&c) {
                        self.m.cal.cancel(id);
                    }
                    self.m.trace.emit(t, TraceEvent::PrefetchCancel { vpn: c });
                }
                self.local_count -= 1;
                self.lru.retain(|&v| v != c);
            }
        }
        self.allocs.retain(|&(a, _)| a != va);
    }

    /// Reads through a remoteable pointer.
    pub fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        for (chunk, off, span) in page_chunks(va, buf.len()) {
            let n = span.len();
            self.deref(core, chunk);
            let ChunkState::Local { data, .. } = &self.chunks[&chunk] else {
                unreachable!("deref localizes the chunk");
            };
            buf[span].copy_from_slice(&data[off..off + n]);
            self.m.charge_copy(core, n);
        }
    }

    /// Writes through a remoteable pointer.
    pub fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        for (chunk, off, span) in page_chunks(va, buf.len()) {
            let n = span.len();
            self.deref(core, chunk);
            let Some(ChunkState::Local { data, dirty, .. }) = self.chunks.get_mut(&chunk) else {
                unreachable!("deref localizes the chunk");
            };
            data[off..off + n].copy_from_slice(&buf[span]);
            *dirty = true;
            self.m.charge_copy(core, n);
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, core: usize, va: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(core, va, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, core: usize, va: u64, v: u64) {
        self.write(core, va, &v.to_le_bytes());
    }

    /// The smart-pointer dereference: check, localize if needed.
    fn deref(&mut self, core: usize, chunk: u64) {
        self.stats.derefs += 1;
        self.m.advance(core, DEREF_CHECK_NS);
        // Deliver the background streamer's completed landings first: a
        // chunk that finished streaming in the past is simply local by now.
        self.drain_events(self.m.now(core));
        match self.chunks.get_mut(&chunk) {
            Some(ChunkState::Local {
                accessed,
                ready_at,
                prefetched,
                ..
            }) => {
                *accessed = true;
                let landed = std::mem::take(prefetched);
                let ready = *ready_at;
                let now = self.m.now(core);
                if ready > now {
                    // In-flight prefetch: wait, but no exception — AIFM's
                    // edge over paging on tight sequential scans.
                    self.stats.inflight_waits += 1;
                    self.m.wait_until(core, ready);
                }
                if landed {
                    // Dereferenced before the landing delivered: this access
                    // consumes the stream; the scheduled event must not fire
                    // later against a recycled chunk.
                    if let Some(id) = self.pending_land.remove(&chunk) {
                        self.m.cal.cancel(id);
                    }
                    self.m
                        .trace
                        .emit(ready.max(now), TraceEvent::PrefetchLand { vpn: chunk });
                }
            }
            Some(ChunkState::Remote) => self.miss(core, chunk),
            None => {
                // First touch: materialize a zeroed local chunk.
                self.make_room(core, 1, Some(chunk));
                self.chunks.insert(
                    chunk,
                    ChunkState::Local {
                        data: vec![0u8; CHUNK].into_boxed_slice(),
                        dirty: false,
                        accessed: true,
                        ready_at: 0,
                        prefetched: false,
                    },
                );
                self.local_count += 1;
                self.lru.push(chunk);
            }
        }
    }

    /// Demand-fetch a chunk and stream ahead.
    fn miss(&mut self, core: usize, chunk: u64) {
        self.stats.misses += 1;
        self.m.trace.emit(
            self.m.now(core),
            TraceEvent::FaultBegin {
                core: core as u8,
                vpn: chunk,
                kind: FaultKind::Major,
            },
        );
        self.make_room(core, 1, Some(chunk));
        let t = self.m.now(core) + MISS_HANDLING_NS;
        let remote = (chunk - (BASE_VA >> 12)) << 12;
        let mut data = vec![0u8; CHUNK].into_boxed_slice();
        let done = self
            .rdma
            .read(t, core, ServiceClass::App, remote, &mut data)
            .expect("fetch inside remote pool");
        self.chunks.insert(
            chunk,
            ChunkState::Local {
                data,
                dirty: false,
                accessed: true,
                ready_at: 0,
                prefetched: false,
            },
        );
        self.local_count += 1;
        self.lru.push(chunk);

        // Background streamer: on a sequential miss pattern, pull the next
        // chunks with growing depth. After a stream of depth `w`, the next
        // miss lands `w + 1` chunks ahead — that still counts as sequential.
        if chunk > self.last_chunk && chunk - self.last_chunk <= self.stream_window as u64 + 1 {
            self.stream_window = (self.stream_window * 2).min(self.cfg.prefetch_depth);
        } else {
            self.stream_window = 2;
        }
        self.last_chunk = chunk;
        let window = self.stream_window;
        for i in 1..=window as u64 {
            self.prefetch(core, chunk + i, t, chunk);
        }
        self.m.wait_until(core, done);
        self.m.trace.emit(
            done,
            TraceEvent::FaultEnd {
                core: core as u8,
                vpn: chunk,
            },
        );
    }

    /// Streams one chunk ahead; never evicts `protect` (the chunk the
    /// current dereference is localizing).
    fn prefetch(&mut self, core: usize, chunk: u64, t: Ns, protect: u64) {
        if ((chunk - (BASE_VA >> 12)) << 12) >= self.cfg.remote_bytes {
            return;
        }
        if !matches!(self.chunks.get(&chunk), Some(ChunkState::Remote)) {
            return;
        }
        if self.local_count + 1 >= self.cfg.local_chunks {
            self.make_room(core, 1, Some(protect));
        }
        if self.local_count + 1 > self.cfg.local_chunks {
            return;
        }
        let remote = (chunk - (BASE_VA >> 12)) << 12;
        let mut data = vec![0u8; CHUNK].into_boxed_slice();
        self.m
            .trace
            .emit(t, TraceEvent::PrefetchIssue { vpn: chunk });
        let Ok(done) = self
            .rdma
            .read(t, core, ServiceClass::Prefetch, remote, &mut data)
        else {
            self.m
                .trace
                .emit(t, TraceEvent::PrefetchCancel { vpn: chunk });
            return;
        };
        self.chunks.insert(
            chunk,
            ChunkState::Local {
                data,
                dirty: false,
                accessed: false,
                ready_at: done,
                prefetched: true,
            },
        );
        // The landing is a calendar event at the fetch's completion time —
        // the streamer's thread marks the chunk ready then, whether or not
        // the mutator ever looks at it.
        let id = self.m.cal.schedule(
            done,
            SchedEvent::PrefetchLand {
                vpn: chunk,
                token: 0,
            },
        );
        self.pending_land.insert(chunk, id);
        self.local_count += 1;
        self.lru.push(chunk);
        self.stats.prefetched += 1;
    }

    /// Evacuates cold chunks until `need` fit under the budget.
    ///
    /// Evacuation is the AIFM runtime's job and runs concurrently with the
    /// mutator; writebacks ride the cleaner queue asynchronously. `protect`
    /// names a chunk that must never be chosen as a victim (the one the
    /// current dereference is localizing).
    fn make_room(&mut self, core: usize, need: usize, protect: Option<u64>) {
        let budget = self.cfg.local_chunks;
        let mut guard = 3 * self.lru.len() + 8;
        while self.local_count + need > budget && guard > 0 {
            guard -= 1;
            if self.lru.is_empty() {
                break;
            }
            if self.clock_hand >= self.lru.len() {
                self.clock_hand = 0;
            }
            let victim = self.lru[self.clock_hand];
            if Some(victim) == protect {
                self.clock_hand += 1;
                continue;
            }
            let now = self.m.now(core);
            let Some(ChunkState::Local {
                dirty,
                accessed,
                ready_at,
                ..
            }) = self.chunks.get_mut(&victim)
            else {
                self.lru.swap_remove(self.clock_hand);
                continue;
            };
            if *ready_at > now {
                self.clock_hand += 1;
                continue;
            }
            if *accessed {
                *accessed = false;
                self.clock_hand += 1;
                continue;
            }
            let dirty = *dirty;
            let Some(ChunkState::Local {
                data, prefetched, ..
            }) = self.chunks.remove(&victim)
            else {
                unreachable!("checked above");
            };
            if prefetched {
                // Evacuated before the landing delivered or any deref saw it.
                if let Some(id) = self.pending_land.remove(&victim) {
                    self.m.cal.cancel(id);
                }
                self.m
                    .trace
                    .emit(now, TraceEvent::PrefetchCancel { vpn: victim });
            }
            self.m
                .trace
                .emit(now, TraceEvent::Evict { vpn: victim, dirty });
            if dirty {
                let remote = (victim - (BASE_VA >> 12)) << 12;
                self.rdma
                    .write(now, core, ServiceClass::Cleaner, remote, &data)
                    .expect("writeback inside remote pool");
                self.stats.writebacks += 1;
            }
            self.chunks.insert(victim, ChunkState::Remote);
            self.lru.swap_remove(self.clock_hand);
            self.local_count -= 1;
            self.stats.evictions += 1;
        }
    }
}

impl ComputeNode for Aifm {
    #[inline]
    fn machine(&self) -> &Machine {
        &self.m
    }

    #[inline]
    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn endpoint(&mut self) -> &mut dyn DeliverCompletion {
        &mut self.rdma
    }

    fn dispatch(&mut self, t: Ns, ev: SchedEvent) -> Option<(Ns, SchedEvent)> {
        if let SchedEvent::PrefetchLand { vpn, .. } = ev {
            self.pending_land.remove(&vpn);
            if let Some(ChunkState::Local { prefetched, .. }) = self.chunks.get_mut(&vpn) {
                if std::mem::take(prefetched) {
                    self.m.trace.emit(t, TraceEvent::PrefetchLand { vpn });
                }
            }
        }
        None
    }

    fn record_gauges(&self, t: Ns, g: &MetricsRegistry) {
        g.set_gauge("local_chunks", self.local_count as u64);
        g.set_gauge("lru_chunks", self.lru.len() as u64);
        g.set_gauge("pending_land", self.pending_land.len() as u64);
        g.set_gauge("busy_qps", self.rdma.busy_qps(t) as u64);
        g.set_gauge("link_busy_ns", self.rdma.link_busy());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(local_chunks: usize) -> Aifm {
        Aifm::new(AifmConfig {
            local_chunks,
            remote_bytes: 1 << 28,
            ..AifmConfig::default()
        })
    }

    #[test]
    fn roundtrip_through_evacuation() {
        let mut n = node(64);
        let va = n.alloc(256 * CHUNK);
        for p in 0..256u64 {
            n.write_u64(0, va + p * CHUNK as u64, p * 11);
        }
        for p in 0..256u64 {
            assert_eq!(n.read_u64(0, va + p * CHUNK as u64), p * 11);
        }
        let s = n.stats();
        assert!(s.misses > 0);
        assert!(s.evictions > 0);
        assert!(s.writebacks > 0);
    }

    #[test]
    fn every_access_pays_the_deref_check() {
        let mut n = node(64);
        let va = n.alloc(CHUNK);
        n.write_u64(0, va, 1);
        let t0 = n.m.now(0);
        let d0 = n.stats().derefs;
        for _ in 0..1_000 {
            let _ = n.read_u64(0, va);
        }
        assert_eq!(n.stats().derefs - d0, 1_000);
        let per_access = (n.m.now(0) - t0) / 1_000;
        assert!(
            per_access >= DEREF_CHECK_NS,
            "deref tax missing: {per_access}"
        );
    }

    #[test]
    fn streaming_prefetch_overlaps_fetches() {
        let run = |depth: usize| {
            let mut n = Aifm::new(AifmConfig {
                local_chunks: 64,
                remote_bytes: 1 << 28,
                prefetch_depth: depth,
                ..AifmConfig::default()
            });
            let va = n.alloc(512 * CHUNK);
            for p in 0..512u64 {
                n.write_u64(0, va + p * CHUNK as u64, p);
            }
            for p in 0..512u64 {
                let _ = n.read_u64(0, va + p * CHUNK as u64);
            }
            (n.m.now(0), n.stats().prefetched)
        };
        let (t_stream, pf) = run(16);
        let (t_none, _) = run(1);
        assert!(pf > 0);
        assert!(
            t_stream < t_none,
            "streaming must be faster: {t_stream} vs {t_none}"
        );
    }

    #[test]
    fn no_exception_cost_on_inflight_waits() {
        let mut n = node(64);
        let va = n.alloc(256 * CHUNK);
        for p in 0..256u64 {
            n.write_u64(0, va + p * CHUNK as u64, p);
        }
        for p in 0..256u64 {
            let _ = n.read_u64(0, va + p * CHUNK as u64);
        }
        assert!(
            n.stats().inflight_waits > 0,
            "streamer must be caught up to"
        );
    }

    #[test]
    fn deterministic_virtual_time() {
        let run = || {
            let mut n = node(64);
            let va = n.alloc(200 * CHUNK);
            for p in 0..200u64 {
                n.write_u64(0, va + p * CHUNK as u64, p);
            }
            for p in (0..200u64).rev() {
                let _ = n.read_u64(0, va + p * CHUNK as u64);
            }
            n.m.now(0)
        };
        assert_eq!(run(), run());
    }
}
