//! The Fastswap baseline: Linux kernel paging over remote memory.
//!
//! Fastswap (Amaro et al., EuroSys '20) extends the Linux swap subsystem:
//! the frontswap store is an RDMA memory node, faults go through the kernel
//! swap cache, readahead pulls clusters of pages into the cache (where they
//! cost a **minor fault** on first touch), and reclamation runs partly in
//! the fault path ("not all reclamation work is offloaded", §3.1 of the
//! DiLOS paper).
//!
//! This model implements that data path — swap cache, cluster readahead,
//! direct + offloaded reclamation, per-phase latency accounting — with
//! software costs calibrated to the DiLOS paper's Figure 1 breakdown and
//! Table 1/2 measurements. The *shape* is what matters: every overhead
//! DiLOS removes (swap-cache management, minor-fault storms, in-handler
//! reclaim, TLB shootdowns on unmap) is present here and absent there.

use std::rc::Rc;

use dilos_sim::{
    page_chunks, ComputeNode, DeliverCompletion, FaultKind, LruChain, Machine, MetricsRegistry, Ns,
    Observability, Page, RdmaEndpoint, SchedEvent, ServiceClass, SimConfig, Timeline, TraceEvent,
    TraceSink, PAGE_SIZE,
};

// Fastswap's kernel-path costs, in virtual nanoseconds, calibrated against
// Figure 1 (average major fault ≈ 6.3 µs: 46 % fetch, 9 % exception, 29 %
// reclaim, the rest swap-cache bookkeeping) and the sequential-read
// throughput of Table 2. The exception itself is `SimConfig::hw_exception_ns`,
// the cost DiLOS pays too.

/// Swap-cache lookup/insertion and swap-entry management.
const SWAP_CACHE_NS: Ns = 1_000;
/// Kernel page allocation (alloc_page + charge + LRU insert).
const PAGE_ALLOC_NS: Ns = 400;
/// Kernel I/O submission overhead on top of the raw RDMA latency
/// (frontswap indirection, DMA mapping).
const KERNEL_IO_NS: Ns = 850;
/// Mapping the page (PTE install, rmap, unlock).
const MAP_NS: Ns = 300;
/// Minor fault service: exception + swap-cache hit + map under LRU/page
/// lock contention.
const MINOR_FAULT_NS: Ns = 2_500;
/// Direct-reclaim software cost per page scanned in the fault path.
const RECLAIM_SCAN_NS: Ns = 100;
/// TLB shootdown (IPI round) when unmapping a victim page.
const TLB_SHOOTDOWN_NS: Ns = 2_000;
/// Readahead cluster size in pages (Linux `page-cluster` default: 8).
const READAHEAD_CLUSTER: u64 = 8;

/// Fastswap configuration.
#[derive(Debug, Clone)]
pub struct FastswapConfig {
    /// Local cache size in pages (the cgroup limit the paper sweeps).
    pub local_pages: usize,
    /// Remote swap-device size in bytes.
    pub remote_bytes: u64,
    /// Simulated cores.
    pub cores: usize,
    /// Fabric calibration.
    pub sim: SimConfig,
    /// Fraction (0–100) of reclaim batches the dedicated offload thread
    /// absorbs; the rest run in the fault handler (Fastswap's design).
    pub offload_percent: u32,
    /// The observability bundle (trace + metrics + profiler) threaded to
    /// every component at boot. Pure observation — trace digests are
    /// identical whether metrics are on or off. Use a fresh bundle per
    /// booted node.
    pub obs: Observability,
}

impl Default for FastswapConfig {
    fn default() -> Self {
        Self {
            local_pages: 1024,
            remote_bytes: 1 << 32,
            cores: 1,
            sim: SimConfig::default(),
            offload_percent: 50,
            obs: Observability::none(),
        }
    }
}

/// Per-phase fault-latency sums (Figure 1's stacked bars).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastswapBreakdown {
    /// Exception delivery + kernel entry.
    pub exception: Ns,
    /// Swap-cache management.
    pub swap_cache: Ns,
    /// Page allocation.
    pub page_alloc: Ns,
    /// Remote fetch (RDMA + kernel I/O submission).
    pub fetch: Ns,
    /// Direct reclamation in the fault path.
    pub reclaim: Ns,
    /// PTE mapping.
    pub map: Ns,
    /// Major faults folded in.
    pub count: u64,
}

impl FastswapBreakdown {
    /// Average total major-fault latency.
    pub fn avg_total(&self) -> Ns {
        if self.count == 0 {
            return 0;
        }
        (self.exception + self.swap_cache + self.page_alloc + self.fetch + self.reclaim + self.map)
            / self.count
    }

    /// Per-phase averages `(label, ns)` in plot order.
    pub fn avg_phases(&self) -> [(&'static str, Ns); 6] {
        let d = self.count.max(1);
        [
            ("exception", self.exception / d),
            ("swap-cache", self.swap_cache / d),
            ("page-alloc", self.page_alloc / d),
            ("fetch", self.fetch / d),
            ("reclaim", self.reclaim / d),
            ("map", self.map / d),
        ]
    }
}

/// Fastswap counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastswapStats {
    /// Faults that went to the remote swap device.
    pub major_faults: u64,
    /// Faults served from the swap cache.
    pub minor_faults: u64,
    /// First-touch zero-fill faults.
    pub zero_fills: u64,
    /// Pages read ahead into the swap cache.
    pub readahead_pages: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Reclaim batches run directly in the fault path.
    pub direct_reclaims: u64,
    /// Reclaim batches absorbed by the offload thread.
    pub offloaded_reclaims: u64,
    /// The fault-latency breakdown.
    pub breakdown: FastswapBreakdown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Mapped in the page table; payload in `frame` (recency lives in the
    /// LRU chain).
    Mapped { frame: u32, dirty: bool },
    /// In the swap cache: fetched (or being fetched) but not mapped.
    Cached { frame: u32, ready_at: Ns },
    /// On the remote swap device.
    Swapped,
}

/// The Fastswap compute node.
pub struct Fastswap {
    cfg: FastswapConfig,
    rdma: RdmaEndpoint,
    /// Per-page swap state, dense by VPN offset from `BASE_VA` (the heap
    /// is brk-allocated, so offsets are small and contiguous). `None` means
    /// never touched / unmapped. Grown lazily to the high-water VPN.
    state: Vec<Option<PageState>>,
    /// Frame page images: a swap-in shares the memory node's image, and the
    /// first store copies it (`Rc::make_mut`); a swap-out hands the image
    /// back. All frames start as one shared zero page.
    frames: Vec<Page>,
    free: Vec<u32>,
    /// Frames whose previous writeback completes at `Ns`.
    pending_free: Vec<(u32, Ns)>,
    /// Resident pages (mapped *and* swap-cached) in LRU order — the Linux
    /// two-list LRU, which tracks swap-cache pages too.
    lru: LruChain,
    /// The chassis. Its calendar runs offloaded reclaim batches when the
    /// offload thread's CPU is actually free, and delivers traced verb
    /// completions at their completion times.
    m: Machine,
    /// The dedicated reclaim-offload kernel thread.
    offload: Timeline,
    /// Due times of the `ReclaimTick`s scheduled and not yet delivered —
    /// what `get_frame` may wake up for. The calendar itself also carries
    /// trace-only completions, which must not steer the model.
    reclaim_due: Vec<Ns>,
    reclaim_round: u32,
    stats: FastswapStats,
    brk: u64,
}

impl std::fmt::Debug for Fastswap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fastswap")
            .field("local_pages", &self.cfg.local_pages)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

const BASE_VA: u64 = 0x1000_0000_0000;

impl Fastswap {
    /// Boots a Fastswap node.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(cfg: FastswapConfig) -> Self {
        let m = Machine::new(cfg.cores, &cfg.sim, &cfg.obs);
        assert!(cfg.local_pages >= 16, "cache too small for the cluster");
        let mut rdma = RdmaEndpoint::connect(cfg.sim.clone(), cfg.remote_bytes);
        rdma.observe(&cfg.obs);
        rdma.set_calendar(m.cal.clone());
        let zero: Page = Rc::new([0; PAGE_SIZE]);
        Self {
            rdma,
            m,
            reclaim_due: Vec::new(),
            state: Vec::new(),
            frames: vec![zero; cfg.local_pages],
            free: (0..cfg.local_pages as u32).rev().collect(),
            pending_free: Vec::new(),
            lru: LruChain::new(),
            offload: Timeline::new(),
            reclaim_round: 0,
            stats: FastswapStats::default(),
            brk: BASE_VA,
            cfg,
        }
    }

    /// Node statistics.
    pub fn stats(&self) -> &FastswapStats {
        &self.stats
    }

    /// The RDMA endpoint (wire bytes, link utilization).
    pub fn rdma(&self) -> &RdmaEndpoint {
        &self.rdma
    }

    /// The structured event trace (dark unless [`FastswapConfig::obs`] records).
    pub fn trace(&self) -> &TraceSink {
        &self.m.trace
    }

    /// Allocates `len` bytes of (swappable) anonymous memory.
    pub fn alloc(&mut self, len: usize) -> u64 {
        let va = self.brk;
        let len = (len.max(1) + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        self.brk += len as u64;
        assert!(
            self.brk - BASE_VA <= self.cfg.remote_bytes,
            "swap device exhausted"
        );
        va
    }

    /// Unmaps `len` bytes at `va`.
    pub fn free(&mut self, va: u64, len: usize) {
        let t = self.m.max_now();
        let start = va >> 12;
        let end = (va + len as u64 + PAGE_SIZE as u64 - 1) >> 12;
        for vpn in start..end {
            if let Some(state) = self.st_clear(vpn) {
                match state {
                    PageState::Mapped { frame, .. } => {
                        self.m.trace.emit(t, TraceEvent::LruRemove { vpn });
                        self.lru.remove(vpn);
                        self.m.trace.emit(t, TraceEvent::FrameFree { frame });
                        self.free.push(frame);
                    }
                    PageState::Cached { frame, ready_at } => {
                        self.m.trace.emit(t, TraceEvent::LruRemove { vpn });
                        self.lru.remove(vpn);
                        // The readahead that filled this frame will never be
                        // consumed.
                        self.m.trace.emit(t, TraceEvent::PrefetchCancel { vpn });
                        self.m.trace.emit(ready_at, TraceEvent::FrameFree { frame });
                        self.pending_free.push((frame, ready_at));
                    }
                    PageState::Swapped => {}
                }
            }
        }
    }

    /// Reads `buf.len()` bytes at `va`.
    ///
    /// # Panics
    ///
    /// Panics on access outside the allocated region.
    pub fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        for (vpn, off, span) in page_chunks(va, buf.len()) {
            let n = span.len();
            let frame = self.touch(core, vpn, false);
            buf[span].copy_from_slice(&self.frames[frame as usize][off..off + n]);
            self.m.charge_copy(core, n);
        }
    }

    /// Writes `buf` at `va`.
    ///
    /// # Panics
    ///
    /// Panics on access outside the allocated region.
    pub fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        for (vpn, off, span) in page_chunks(va, buf.len()) {
            let end = off + span.len();
            let frame = self.touch(core, vpn, true);
            Rc::make_mut(&mut self.frames[frame as usize])[off..end].copy_from_slice(&buf[span]);
            self.m.charge_copy(core, end - off);
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

    /// Dense index of `vpn` in the swap-state table.
    #[inline]
    fn st_idx(vpn: u64) -> usize {
        (vpn - (BASE_VA >> 12)) as usize
    }

    #[inline]
    fn st_get(&self, vpn: u64) -> Option<PageState> {
        self.state.get(Self::st_idx(vpn)).copied().flatten()
    }

    #[inline]
    fn st_set(&mut self, vpn: u64, st: PageState) {
        let i = Self::st_idx(vpn);
        if i >= self.state.len() {
            self.state.resize(i + 1, None);
        }
        self.state[i] = Some(st);
    }

    /// Clears and returns the page's state (unmap).
    #[inline]
    fn st_clear(&mut self, vpn: u64) -> Option<PageState> {
        self.state.get_mut(Self::st_idx(vpn)).and_then(Option::take)
    }

    fn touch(&mut self, core: usize, vpn: u64, is_write: bool) -> u32 {
        assert!(
            vpn >= BASE_VA >> 12 && ((vpn - (BASE_VA >> 12)) << 12) < self.cfg.remote_bytes,
            "segmentation fault at {:#x}",
            vpn << 12
        );
        match self.st_get(vpn) {
            Some(PageState::Mapped { frame, dirty }) => {
                self.st_set(
                    vpn,
                    PageState::Mapped {
                        frame,
                        dirty: dirty || is_write,
                    },
                );
                self.lru.touch(vpn);
                frame
            }
            Some(PageState::Cached { frame, ready_at }) => {
                self.minor_fault(core, vpn, frame, ready_at, is_write)
            }
            Some(PageState::Swapped) => self.major_fault(core, vpn, is_write),
            None => self.zero_fill(core, vpn, is_write),
        }
    }

    /// A swap-cache hit: the page is local but unmapped.
    fn minor_fault(
        &mut self,
        core: usize,
        vpn: u64,
        frame: u32,
        ready_at: Ns,
        is_write: bool,
    ) -> u32 {
        self.stats.minor_faults += 1;
        let now = self.m.now(core);
        let prev_req = self.m.begin_fault(now, core, vpn, FaultKind::Minor);
        let t = (now + MINOR_FAULT_NS).max(ready_at);
        self.m.wait_until(core, t);
        // First touch consumes the readahead.
        self.m.trace.emit(t, TraceEvent::PrefetchLand { vpn });
        self.map(t, vpn, frame, is_write);
        self.m.end_fault(t, core, vpn, prev_req);
        frame
    }

    fn zero_fill(&mut self, core: usize, vpn: u64, is_write: bool) -> u32 {
        let now = self.m.now(core);
        let prev_req = self.m.begin_fault(now, core, vpn, FaultKind::ZeroFill);
        let t = now + self.cfg.sim.hw_exception_ns + PAGE_ALLOC_NS;
        let (frame, t_frame, _) = self.get_frame(t);
        // Clear the page in place, unless the store still shares it: then a
        // fresh zero page replaces it.
        let page = &mut self.frames[frame as usize];
        match Rc::get_mut(page) {
            Some(bytes) => bytes.fill(0),
            None => *page = Rc::new([0; PAGE_SIZE]),
        }
        let t_end = t_frame + MAP_NS;
        self.m.wait_until(core, t_end);
        self.stats.zero_fills += 1;
        self.map(t_end, vpn, frame, is_write);
        self.m.end_fault(t_end, core, vpn, prev_req);
        frame
    }

    /// A major fault: swap-in through the swap cache, with readahead.
    fn major_fault(&mut self, core: usize, vpn: u64, is_write: bool) -> u32 {
        let now = self.m.now(core);
        let prev_req = self.m.begin_fault(now, core, vpn, FaultKind::Major);
        let exception = self.cfg.sim.hw_exception_ns;
        let mut t = now + exception + SWAP_CACHE_NS;
        let (frame, t_frame, reclaim_ns) = self.get_frame(t + PAGE_ALLOC_NS);
        t = t_frame;
        // Demand fetch (synchronous).
        let remote = (vpn - (BASE_VA >> 12)) << 12;
        let done = self.swap_in(t + KERNEL_IO_NS, core, ServiceClass::Fault, remote, frame);
        // Readahead the rest of the cluster into the swap cache
        // (asynchronous; pages cost a minor fault on first touch).
        self.readahead(core, vpn, done);
        let t_end = done + MAP_NS;
        self.m.wait_until(core, t_end);
        self.stats.major_faults += 1;
        let b = &mut self.stats.breakdown;
        b.exception += exception;
        b.swap_cache += SWAP_CACHE_NS;
        b.page_alloc += PAGE_ALLOC_NS;
        b.fetch += KERNEL_IO_NS + (done - (t + KERNEL_IO_NS));
        b.reclaim += reclaim_ns;
        b.map += MAP_NS;
        b.count += 1;
        self.map(t_end, vpn, frame, is_write);
        self.m.end_fault(t_end, core, vpn, prev_req);
        frame
    }

    /// Reads the page at `remote` into `frame`, posting at `t`; returns when
    /// it lands. The frame's page becomes the memory node's image, shared
    /// until the first store copies it — no bounce buffer, no copy.
    fn swap_in(&mut self, t: Ns, core: usize, class: ServiceClass, remote: u64, frame: u32) -> Ns {
        self.rdma
            .read_page(t, core, class, remote, &mut self.frames[frame as usize])
            .expect("swap-in inside swap device")
    }

    /// Linux-style cluster readahead into the swap cache.
    ///
    /// Readahead allocations are opportunistic: at most two frames per
    /// fault may be produced by extra reclaim, bounding cache pollution
    /// under pressure (the kernel's GFP_NORETRY behaviour for readahead).
    fn readahead(&mut self, core: usize, vpn: u64, t: Ns) {
        let mut reclaim_budget = READAHEAD_CLUSTER as u32;
        for i in 1..READAHEAD_CLUSTER {
            let target = vpn + i;
            if ((target - (BASE_VA >> 12)) << 12) >= self.cfg.remote_bytes {
                break;
            }
            if !matches!(self.st_get(target), Some(PageState::Swapped)) {
                continue;
            }
            // Readahead never blocks the fault path: claim a frame without
            // direct reclaim, letting the offload thread free pages. A frame
            // whose writeback is still in flight is usable once it lands.
            let Some((frame, avail)) = self.frame_for_readahead(t, &mut reclaim_budget) else {
                break;
            };
            let remote = (target - (BASE_VA >> 12)) << 12;
            // Each readahead page is its own causal request, issued at
            // origin; the faulting request resumes once it lands.
            let prev_req = self.m.trace.begin_request();
            self.m
                .trace
                .emit(t.max(avail), TraceEvent::PrefetchIssue { vpn: target });
            let done = self.swap_in(t.max(avail), core, ServiceClass::Prefetch, remote, frame);
            self.st_set(
                target,
                PageState::Cached {
                    frame,
                    ready_at: done,
                },
            );
            self.m
                .trace
                .emit(t.max(avail), TraceEvent::LruInsert { vpn: target });
            self.lru.insert(target);
            self.stats.readahead_pages += 1;
            self.m.trace.set_request(prev_req);
        }
    }

    /// Claims a frame for readahead without charging the fault path: free
    /// list, then pending writebacks (earliest first), then one offloaded
    /// reclaim batch. Returns `(frame, available_at)`.
    fn frame_for_readahead(&mut self, t: Ns, reclaim_budget: &mut u32) -> Option<(u32, Ns)> {
        if let Some(f) = self.free.pop() {
            self.m.trace.emit(t, TraceEvent::FrameAlloc { frame: f });
            return Some((f, t));
        }
        if self.pending_free.is_empty() {
            if *reclaim_budget == 0 {
                return None;
            }
            *reclaim_budget -= 1;
            // Gentle reclaim: readahead may only take pages that are
            // already cold — it must not strip accessed bits off the hot
            // working set (that would be self-inflicted thrashing).
            self.reclaim_gentle(t);
        }
        if let Some(f) = self.free.pop() {
            self.m.trace.emit(t, TraceEvent::FrameAlloc { frame: f });
            return Some((f, t));
        }
        let i = self
            .pending_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &(_, a))| a)
            .map(|(i, _)| i)?;
        let (f, a) = self.pending_free.swap_remove(i);
        self.m.trace.emit(a, TraceEvent::FrameAlloc { frame: f });
        Some((f, a))
    }

    /// Evicts one already-cold clean-or-dirty page without touching
    /// accessed bits; a no-op when everything is hot.
    /// One offloaded eviction on behalf of readahead. With the LRU chain
    /// the tail is by definition the coldest page, so no extra care is
    /// needed to avoid stripping the hot set.
    fn reclaim_gentle(&mut self, t: Ns) {
        self.reclaim_batch(t, true);
        self.stats.offloaded_reclaims += 1;
    }

    fn map(&mut self, t: Ns, vpn: u64, frame: u32, is_write: bool) {
        self.st_set(
            vpn,
            PageState::Mapped {
                frame,
                dirty: is_write,
            },
        );
        // A swap-cached page is already an LRU member; mapping it is a
        // touch, not an insert.
        if !self.lru.contains(vpn) {
            self.m.trace.emit(t, TraceEvent::LruInsert { vpn });
        }
        self.lru.insert(vpn);
    }

    /// Claims a frame, reclaiming if necessary.
    ///
    /// Returns `(frame, time, direct_reclaim_ns)`. Every other reclaim
    /// round is absorbed by the offload thread; the rest run here, in the
    /// fault path — Fastswap's partial offload (§3.1).
    fn get_frame(&mut self, t: Ns) -> (u32, Ns, Ns) {
        let mut now = t;
        let mut direct_ns = 0;
        let mut spins = 0;
        loop {
            self.drain_events(now);
            if let Some(f) = self.free.pop() {
                self.m.trace.emit(now, TraceEvent::FrameAlloc { frame: f });
                return (f, now, direct_ns);
            }
            // The free list is empty: kernel reclaim runs *now*, before the
            // allocation can be satisfied — even if an earlier writeback is
            // about to complete. This is the cost Figure 1 charges to
            // "reclaim" on the average fault.
            self.reclaim_round += 1;
            let offloaded = (self.reclaim_round * self.cfg.offload_percent / 100) as u64
                != ((self.reclaim_round - 1) * self.cfg.offload_percent / 100) as u64;
            if offloaded {
                // The dedicated thread runs the batch when its CPU is next
                // free — a calendar event, not an instantaneous favour. If
                // the thread is idle that is right now; the drain below
                // delivers it before the handler re-checks the free list.
                let due = self.offload.next_free(now);
                self.m.cal.schedule(due, SchedEvent::ReclaimTick);
                self.reclaim_due.push(due);
                self.drain_events(now);
            } else {
                let spent = self.reclaim_batch(now, false);
                self.stats.direct_reclaims += 1;
                direct_ns += spent;
                now += spent;
            }
            if let Some(i) = self
                .pending_free
                .iter()
                .position(|&(_, avail)| avail <= now)
            {
                let (f, _) = self.pending_free.swap_remove(i);
                self.m.trace.emit(now, TraceEvent::FrameAlloc { frame: f });
                return (f, now, direct_ns);
            }
            if self.free.is_empty() {
                // Wait for whichever comes first: a pending writeback's
                // completion or a scheduled offload batch.
                let frees = self.pending_free.iter().map(|&(_, a)| a);
                if let Some(n) = frees.chain(self.reclaim_due.iter().copied()).min() {
                    now = now.max(n);
                }
            }
            spins += 1;
            assert!(spins < 100_000, "fastswap: local cache thrashing");
        }
    }

    /// Evicts up to a small batch of cold pages; returns software time.
    ///
    /// Offloaded batches model Fastswap's dedicated reclaim thread, whose
    /// work hides under the fault's in-flight RDMA: their software time is
    /// charged to the offload timeline, and clean frames are available
    /// immediately from the handler's perspective.
    fn reclaim_batch(&mut self, t: Ns, offloaded: bool) -> Ns {
        let mut spent = 0;
        // Victim: the LRU tail (Linux's inactive-list tail). Swap-cache
        // pages that were read ahead but never touched are first-class
        // victims — dropping them costs no shootdown and no writeback.
        let mut victim: Option<(u64, PageState)> = None;
        for vpn in self.lru.iter_cold().take(64) {
            spent += RECLAIM_SCAN_NS;
            match self.st_get(vpn) {
                Some(st @ PageState::Cached { ready_at, .. }) if ready_at <= t + spent => {
                    victim = Some((vpn, st));
                    break;
                }
                Some(PageState::Cached { .. }) => continue, // Fetch in flight.
                Some(st @ PageState::Mapped { .. }) => {
                    victim = Some((vpn, st));
                    break;
                }
                _ => continue,
            }
        }
        let Some((vpn, st)) = victim else {
            if offloaded {
                self.offload.acquire(t, spent);
                return 0;
            }
            return spent;
        };
        // Each eviction is its own causal request, whether produced by the
        // offload thread or by direct reclaim inside a fault.
        let prev_req = self.m.trace.begin_request();
        match st {
            PageState::Cached { frame, .. } => {
                // Drop from the swap cache: clean by construction. The
                // readahead that fetched this page goes unconsumed.
                let at = if offloaded { t } else { t + spent };
                self.m.trace.emit(at, TraceEvent::PrefetchCancel { vpn });
                self.m
                    .trace
                    .emit(at, TraceEvent::Evict { vpn, dirty: false });
                self.st_set(vpn, PageState::Swapped);
                self.m.trace.emit(at, TraceEvent::LruRemove { vpn });
                self.lru.remove(vpn);
                self.m.trace.emit(at, TraceEvent::FrameFree { frame });
                self.pending_free.push((frame, at));
                self.stats.evictions += 1;
            }
            PageState::Mapped { frame, dirty, .. } => {
                // Unmap: TLB shootdown, then write back if dirty.
                spent += TLB_SHOOTDOWN_NS;
                let mut available_at = if offloaded { t } else { t + spent };
                if dirty {
                    let remote = (vpn - (BASE_VA >> 12)) << 12;
                    // The frame's image goes to the store shared, not copied.
                    let done = self
                        .rdma
                        .write_page(
                            t + spent,
                            0,
                            ServiceClass::Cleaner,
                            remote,
                            &self.frames[frame as usize],
                        )
                        .expect("swap-out inside swap device");
                    self.stats.writebacks += 1;
                    if offloaded {
                        available_at = done;
                    } else {
                        // Direct reclaim waits for the writeback.
                        spent += done.saturating_sub(t + spent);
                        available_at = t + spent;
                    }
                }
                self.m
                    .trace
                    .emit(available_at, TraceEvent::Evict { vpn, dirty });
                self.st_set(vpn, PageState::Swapped);
                self.m
                    .trace
                    .emit(available_at, TraceEvent::LruRemove { vpn });
                self.lru.remove(vpn);
                self.m
                    .trace
                    .emit(available_at, TraceEvent::FrameFree { frame });
                self.pending_free.push((frame, available_at));
                self.stats.evictions += 1;
            }
            PageState::Swapped => unreachable!("victims are resident"),
        }
        self.m.trace.set_request(prev_req);
        if offloaded {
            // The offload thread's CPU time rides its own timeline.
            self.offload.acquire(t, spent);
            0
        } else {
            spent
        }
    }
}

impl ComputeNode for Fastswap {
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
        if ev == SchedEvent::ReclaimTick {
            if let Some(i) = self.reclaim_due.iter().position(|&due| due == t) {
                self.reclaim_due.swap_remove(i);
            }
            // One offloaded reclaim batch, running at the offload thread's
            // true time.
            self.reclaim_batch(t, true);
            self.stats.offloaded_reclaims += 1;
        }
        None
    }

    fn record_gauges(&self, t: Ns, g: &MetricsRegistry) {
        g.set_gauge("free_frames", self.free.len() as u64);
        g.set_gauge("lru_pages", self.lru.len() as u64);
        g.set_gauge("pending_writebacks", self.pending_free.len() as u64);
        g.set_gauge("busy_qps", self.rdma.busy_qps(t) as u64);
        g.set_gauge("link_busy_ns", self.rdma.link_busy());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(local_pages: usize) -> Fastswap {
        Fastswap::new(FastswapConfig {
            local_pages,
            remote_bytes: 1 << 28,
            ..FastswapConfig::default()
        })
    }

    #[test]
    fn roundtrip_through_swap() {
        let mut n = node(64);
        let va = n.alloc(256 * PAGE_SIZE);
        for p in 0..256u64 {
            n.write_u64(0, va + p * PAGE_SIZE as u64, p * 7);
        }
        for p in 0..256u64 {
            assert_eq!(n.read_u64(0, va + p * PAGE_SIZE as u64), p * 7);
        }
        let s = n.stats();
        assert!(s.major_faults > 0);
        assert!(s.evictions > 0);
        assert!(s.writebacks > 0);
    }

    #[test]
    fn readahead_produces_minor_fault_majority() {
        // Table 1: on sequential read, ~87.5 % of faults are minor (swap
        // cache hits from the 8-page readahead cluster).
        let mut n = node(64);
        let pages = 512u64;
        let va = n.alloc(pages as usize * PAGE_SIZE);
        for p in 0..pages {
            n.write_u64(0, va + p * PAGE_SIZE as u64, p);
        }
        for p in 0..pages {
            let _ = n.read_u64(0, va + p * PAGE_SIZE as u64);
        }
        let s = n.stats();
        assert!(
            s.minor_faults > 3 * s.major_faults,
            "minor {} major {}",
            s.minor_faults,
            s.major_faults
        );
        assert!(s.readahead_pages > 0);
    }

    #[test]
    fn direct_reclaim_shows_up_in_the_breakdown() {
        let mut n = node(64);
        let va = n.alloc(512 * PAGE_SIZE);
        for p in 0..512u64 {
            n.write_u64(0, va + p * PAGE_SIZE as u64, p);
        }
        for p in 0..512u64 {
            let _ = n.read_u64(0, va + p * PAGE_SIZE as u64);
        }
        let s = n.stats();
        assert!(s.direct_reclaims > 0, "some reclaim must be direct");
        assert!(s.offloaded_reclaims > 0, "some reclaim must be offloaded");
        assert!(s.breakdown.reclaim > 0);
        // Figure 1: the average Fastswap fault is far costlier than DiLOS's
        // ~3 µs; fetch is its largest phase.
        let avg = s.breakdown.avg_total();
        assert!(avg > 4_500, "avg fault {avg}");
        let phases = s.breakdown.avg_phases();
        let fetch = phases.iter().find(|(l, _)| *l == "fetch").unwrap().1;
        assert!(phases.iter().all(|&(_, v)| v <= fetch), "fetch dominates");
    }

    #[test]
    fn free_releases_pages() {
        let mut n = node(64);
        let va = n.alloc(32 * PAGE_SIZE);
        for p in 0..32u64 {
            n.write_u64(0, va + p * PAGE_SIZE as u64, p);
        }
        n.free(va, 32 * PAGE_SIZE);
        // All frames eventually reusable: a fresh working set fits.
        let vb = n.alloc(48 * PAGE_SIZE);
        for p in 0..48u64 {
            n.write_u64(0, vb + p * PAGE_SIZE as u64, p);
        }
        assert_eq!(n.stats().zero_fills, 32 + 48);
    }

    #[test]
    fn a_freed_frame_reads_as_zeros_after_a_zero_fill() {
        // Pages written in place and freed before any swap-out: each frame
        // holds the only reference to its page, so the next zero-fill must
        // clear it in place.
        let mut n = node(64);
        let va = n.alloc(16 * PAGE_SIZE);
        for p in 0..16u64 {
            n.write(0, va + p * PAGE_SIZE as u64, &[0xC7; PAGE_SIZE]);
        }
        n.free(va, 16 * PAGE_SIZE);
        let vb = n.alloc(16 * PAGE_SIZE);
        let mut page = [0xFF; PAGE_SIZE];
        for p in 0..16u64 {
            n.read(0, vb + p * PAGE_SIZE as u64, &mut page);
            let stale = page.iter().position(|&b| b != 0);
            assert_eq!(stale, None, "page {p} shows stale bytes");
        }
        assert_eq!(n.stats().zero_fills, 32);
        assert_eq!(n.stats().writebacks, 0, "no page was swapped out");
    }

    #[test]
    fn deterministic_virtual_time() {
        let run = || {
            let mut n = node(64);
            let va = n.alloc(300 * PAGE_SIZE);
            for p in 0..300u64 {
                n.write_u64(0, va + p * PAGE_SIZE as u64, p);
            }
            for p in (0..300u64).rev() {
                let _ = n.read_u64(0, va + p * PAGE_SIZE as u64);
            }
            n.m.now(0)
        };
        assert_eq!(run(), run());
    }
}
