//! The DiLOS compute node (§4): configuration, boot, the memory API and the
//! access entry points. Each decision §4 names is a child module holding one
//! `impl Dilos` block over the state declared here: `fault`, the §4.2 page
//! fault handler, which checks only the unified page table before posting
//! the demand read; `prefetch`, the §4.3 prefetcher, run inside the demand
//! fetch's window; and `pagemgr`, the §4.4 page manager, which evicts in the
//! background so reclamation never blocks the handler. The §4.5
//! communication module is the [`RdmaPort`], with per-module queue pairs
//! ([`ServiceClass`]-keyed QPs in the fabric).
//!
//! Prefetched pages are *not* mapped until their fetch completes: the PTE
//! holds the `fetching` tag, and a touch before completion is DiLOS's minor
//! fault — a hardware exception that only waits, never re-fetches. A touch
//! after completion sees a mapped page and pays nothing, which is exactly
//! why Table 3 shows fewer minor faults than Fastswap's swap cache.

mod fault;
mod pagemgr;
mod prefetch;

use std::cell::RefCell;
use std::rc::Rc;

use dilos_sim::{
    page_chunks, ComputeNode, DeliverCompletion, EventId, Fault, FaultPlan, Machine,
    MetricsRegistry, Ns, Observability, PteClass, RdmaEndpoint, RdmaPort, RecoverConfig,
    RecoveryStats, Redundancy, ReqId, SchedEvent, Segment, ServiceClass, SimConfig, TraceEvent,
    TraceSink, When, PAGE_SIZE,
};

use crate::audit::{Auditor, NodeCensus};
use crate::compat::MAP_DDC;
use crate::frames::FrameArena;
use crate::guide::{ActionTable, PagingGuide, PrefetchGuide};
use crate::prefetch::{HitTracker, NoPrefetch, Prefetcher};
use crate::pt::{PageTable, Pte};
use crate::stats::DilosStats;
use pagemgr::Watermarks;

/// Base virtual address of the disaggregated (DDC) region.
pub const DDC_BASE: u64 = 0x1000_0000_0000;
/// Base virtual address of the local-only region (`mmap` without `MAP_DDC`).
pub const LOCAL_BASE: u64 = 0x2000_0000_0000;

const DDC_BASE_VPN: u64 = DDC_BASE >> 12;

// Software-path costs of the DiLOS handler, in virtual nanoseconds: the
// *short* paths the paper claims (Fig. 6: ~0.2 µs of handler software
// against Fastswap's ~1.0 µs), because the handler touches one data
// structure before the RDMA post. Fastswap's far larger equivalents live in
// `dilos-baselines`.

/// Unified-page-table check in the fault handler.
pub const PTE_CHECK_NS: Ns = 100;
/// Mapping a fetched page (PTE write + LRU insert).
pub const MAP_NS: Ns = 150;
/// Zero-filling a first-touch page.
pub const ZERO_FILL_NS: Ns = 350;
/// Hit-tracker cost per PTE scanned (hidden in the fetch window).
pub const TRACKER_PER_PTE_NS: Ns = 15;
/// Issuing one asynchronous prefetch (hidden in the fetch window).
pub const PREFETCH_ISSUE_NS: Ns = 60;
/// Reclaimer cost per page scanned (background thread).
pub const RECLAIM_SCAN_NS: Ns = 150;
/// Hardware page-table walk on a TLB miss to a resident page.
pub const TLB_MISS_WALK_NS: Ns = 30;
/// Swap-cache management cost per fault (only in the `swap_cache_mode`
/// ablation, mirroring the Linux path DiLOS removed).
pub const SWAPCACHE_MGMT_NS: Ns = 900;
/// Minor-fault service from the swap cache (ablation only).
pub const SWAPCACHE_MINOR_NS: Ns = 800;

/// DiLOS node configuration.
#[derive(Debug, Clone)]
pub struct DilosConfig {
    /// Local DRAM cache size in 4 KiB frames.
    pub local_pages: usize,
    /// Registered remote region size in bytes.
    pub remote_bytes: u64,
    /// Simulated CPU cores.
    pub cores: usize,
    /// Fabric/latency calibration.
    pub sim: SimConfig,
    /// Ablation: route every verb through one shared queue pair.
    pub shared_queue: bool,
    /// Ablation: emulate a Linux-style swap cache in front of the page
    /// table (extra management cost + minor fault per prefetched page).
    pub swap_cache_mode: bool,
    /// Ablation: reclaim synchronously inside the fault handler instead of
    /// in the background (the Fastswap behaviour).
    pub direct_reclaim: bool,
    /// Run the PTE hit tracker (feeds prefetcher feedback).
    pub hit_tracker: bool,
    /// Emulate TCP transport (+14,000 cycles per completion, §6.2).
    pub tcp_mode: bool,
    /// Memory nodes to stripe pages across (§5.1 future work; default 1,
    /// the paper's configuration).
    pub memory_nodes: usize,
    /// How the pool keeps pages through memory-node failures: `r`-way
    /// replication or Carbink-style erasure coding (default one copy).
    pub redundancy: Redundancy,
    /// Memnode crash–recovery: arms durable state (periodic checkpoints +
    /// a write-intent log acknowledged ahead of every remote write) on all
    /// memory nodes, so a repaired node replays what it acknowledged. The
    /// crashes themselves come from `faults`. Ignored in a shared-pool boot
    /// ([`Dilos::with_port`]) — durability is a property of the endpoint,
    /// which the pool owns.
    pub recovery: Option<RecoverConfig>,
    /// Faults injected at boot (empty by default): each entry crashes,
    /// fails, repairs or corrupts a memory node at a completion index or a
    /// virtual instant. More can be added at run time with
    /// [`Dilos::inject`].
    pub faults: FaultPlan,
    /// The observability bundle: trace sink, metrics registry, span
    /// profiler, and audit flag, built once via [`Observability`]'s
    /// constructors and threaded down to every component. Pure observation
    /// — trace digests are identical with metrics on or off.
    pub obs: Observability,
}

impl Default for DilosConfig {
    fn default() -> Self {
        Self {
            local_pages: 1024,
            remote_bytes: 1 << 32,
            cores: 1,
            sim: SimConfig::default(),
            shared_queue: false,
            swap_cache_mode: false,
            direct_reclaim: false,
            hit_tracker: true,
            tcp_mode: false,
            memory_nodes: 1,
            redundancy: Redundancy::default(),
            recovery: None,
            faults: FaultPlan::default(),
            obs: Observability::none(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct InflightEntry {
    frame: u32,
    ready_at: Ns,
    vpn: u64,
    /// Set in the swap-cache ablation: first access pays a minor fault.
    swap_cached: bool,
    /// The scheduled `PrefetchLand` calendar event that will map this fetch
    /// at its true completion time (cancelled if a fault consumes the entry
    /// first).
    event: EventId,
    /// Causal request id of the prefetch that started this fetch (side-band
    /// only; landing events re-attribute to it).
    req: Option<ReqId>,
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    vpn: u64,
    frame: u32,
    generation: u64,
    valid: bool,
    dirty_marked: bool,
}

const TLB_WAYS: usize = 64;

/// A DiLOS compute node.
pub struct Dilos {
    cfg: DilosConfig,
    /// The node's capability to its (exclusive or shared) RDMA endpoint.
    rdma: RdmaPort,
    pt: PageTable,
    frames: FrameArena,
    wm: Watermarks,
    prefetcher: Box<dyn Prefetcher>,
    tracker: HitTracker,
    actions: ActionTable,
    inflight: Vec<Option<InflightEntry>>,
    inflight_free: Vec<u32>,
    paging_guide: Option<Rc<RefCell<dyn PagingGuide>>>,
    prefetch_guide: Option<Rc<RefCell<dyn PrefetchGuide>>>,
    /// The chassis: per-core clocks, the calendar, the trace and metrics.
    m: Machine,
    tlb: Vec<[TlbEntry; TLB_WAYS]>,
    /// Background reclaimer/cleaner CPU timeline.
    bg: dilos_sim::Timeline,
    /// A reclaim episode is open (`ReclaimBegin` emitted, no `End` yet).
    /// Invariant: an open episode always has a tick pending, so draining
    /// the calendar always closes it.
    episode_open: bool,
    /// A `ReclaimTick` is scheduled and not yet delivered.
    tick_pending: bool,
    /// Victims evicted in the open episode (for `ReclaimEnd { freed }`).
    episode_freed: u32,
    /// Dirty background evictions whose cleaner writeback is still on the
    /// wire; their frames rejoin the free list when the `CleanerWriteback`
    /// event delivers. Counted toward the reclaim target so an episode does
    /// not over-evict while writebacks are in flight.
    pending_clean: usize,
    /// Exact LRU over resident frames (the §4.4 "LRU list").
    lru: dilos_sim::LruChain,
    stats: DilosStats,
    ddc_brk: u64,
    /// Local-only pages, indexed by `vpn - (LOCAL_BASE >> 12)`; `None`
    /// until first touched.
    local_pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    local_brk: u64,
    prefetch_buf: Vec<u64>,
    /// Scratch for guided-fetch segment vectors (reused across faults).
    seg_buf: Vec<Segment>,
    /// Online invariant checker attached to the trace.
    audit: Option<Rc<RefCell<Auditor>>>,
}

impl std::fmt::Debug for Dilos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dilos")
            .field("local_pages", &self.cfg.local_pages)
            .field("resident", &self.pt.resident())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Dilos {
    /// Boots a node: registers the remote region and sizes the local cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no cores, no local pages).
    pub fn new(cfg: DilosConfig) -> Self {
        let mut rdma = RdmaEndpoint::connect_cluster(
            cfg.sim.clone(),
            cfg.remote_bytes,
            cfg.memory_nodes,
            cfg.redundancy,
        );
        rdma.set_shared_queue(cfg.shared_queue);
        rdma.set_tcp_mode(cfg.tcp_mode);
        if let Some(rc) = cfg.recovery {
            rdma.arm_durability(rc);
        }
        Self::with_port(cfg, RdmaPort::exclusive(rdma))
    }

    /// Boots a node as one tenant of a shared memory pool: the port carries
    /// the tenant's protection keys, remote-address base, and queue-pair
    /// lanes on an endpoint other tenants also use. Transport-level config
    /// knobs (`shared_queue`, `tcp_mode`, `memory_nodes`, `redundancy`)
    /// are properties of the shared endpoint and are ignored here;
    /// `remote_bytes` must be the tenant's slice size.
    pub fn with_port(cfg: DilosConfig, mut rdma: RdmaPort) -> Self {
        let m = Machine::new(cfg.cores, &cfg.sim, &cfg.obs);
        assert!(
            cfg.local_pages >= 16,
            "local cache below 16 pages cannot hold the prefetch window"
        );
        let audit = cfg.obs.audit().then(|| {
            let mut auditor = Auditor::new();
            auditor.set_frame_quota(cfg.local_pages);
            let a = Rc::new(RefCell::new(auditor));
            m.trace.attach(a.clone());
            a
        });
        let mut frames = FrameArena::new(cfg.local_pages);
        frames.observe(&cfg.obs);
        let wm = Watermarks::for_cache(cfg.local_pages);
        // The endpoint posts its traced completions on the node's calendar.
        rdma.bind(cfg.obs.clone(), m.cal.clone());
        for &(when, fault) in &cfg.faults {
            rdma.inject(0, when, fault);
        }
        Self {
            frames,
            rdma,
            pt: PageTable::new(),
            wm,
            prefetcher: Box::new(NoPrefetch),
            tracker: HitTracker::new(),
            actions: ActionTable::new(),
            inflight: Vec::new(),
            inflight_free: Vec::new(),
            paging_guide: None,
            prefetch_guide: None,
            m,
            tlb: vec![[TlbEntry::default(); TLB_WAYS]; cfg.cores],
            bg: dilos_sim::Timeline::new(),
            episode_open: false,
            tick_pending: false,
            episode_freed: 0,
            pending_clean: 0,
            lru: dilos_sim::LruChain::new(),
            stats: DilosStats::default(),
            ddc_brk: DDC_BASE,
            local_pages: Vec::new(),
            local_brk: LOCAL_BASE,
            cfg,
            prefetch_buf: Vec::new(),
            seg_buf: Vec::new(),
            audit,
        }
    }

    /// Installs a general-purpose prefetcher.
    pub fn set_prefetcher(&mut self, p: Box<dyn Prefetcher>) {
        self.prefetcher = p;
    }

    /// Name of the active prefetcher.
    pub fn prefetcher_name(&self) -> &'static str {
        if self.prefetch_guide.is_some() {
            "app-aware"
        } else {
            self.prefetcher.name()
        }
    }

    /// Installs an app-aware prefetch guide (§4.3).
    pub fn set_prefetch_guide(&mut self, g: Rc<RefCell<dyn PrefetchGuide>>) {
        self.prefetch_guide = Some(g);
    }

    /// Installs an app-aware paging guide (§4.4).
    pub fn set_paging_guide(&mut self, g: Rc<RefCell<dyn PagingGuide>>) {
        self.paging_guide = Some(g);
    }

    /// Node statistics.
    pub fn stats(&self) -> &DilosStats {
        &self.stats
    }

    /// The RDMA endpoint (bandwidth series, op counters). In a shared-pool
    /// boot this is the whole shared endpoint, not a tenant-scoped view.
    pub fn rdma(&self) -> std::cell::Ref<'_, RdmaEndpoint> {
        self.rdma.endpoint()
    }

    /// The node's trace sink (dark unless [`DilosConfig::obs`] records).
    pub fn trace(&self) -> &TraceSink {
        &self.m.trace
    }

    /// Order-sensitive digest over every traced event so far (0 when
    /// tracing is off); equal seeds and configurations give equal digests.
    /// Quiesces first, so the digest covers a settled system. Idempotent.
    pub fn trace_digest(&mut self) -> u64 {
        self.quiesce();
        self.m.trace.digest()
    }

    /// Runs the auditor's end-of-run checks plus cross-checks of the traced
    /// totals against the node's own state and counters. Returns every
    /// violation found — empty on a healthy run, and always empty when
    /// auditing is off.
    ///
    /// Quiesces first (see [`Dilos::trace_digest`]): the auditor's final
    /// checks require all scheduled background work to have been delivered.
    pub fn audit_report(&mut self) -> Vec<String> {
        self.quiesce();
        let Some(aud) = &self.audit else {
            return Vec::new();
        };
        let census = NodeCensus {
            frames_in_use: self.frames.total() as i64 - self.frames.free_count() as i64,
            inflight: self.inflight.iter().flatten().map(|e| e.vpn).collect(),
            stats: self.stats,
            lru_len: self.lru.len(),
            link_bytes: ServiceClass::ALL.map(|class| self.rdma.class_bytes(class)),
        };
        aud.borrow_mut().report(&census)
    }

    /// Adds `fault` to the endpoint's plan, applied at once if `when` is
    /// already due at the node's latest clock. A failed node's pages are
    /// served by the surviving redundancy; without any, fetches of lost
    /// pages panic — the unikernel's fate on unrecoverable data loss.
    ///
    /// # Panics
    ///
    /// Panics if the fault names a memory node outside the pool.
    pub fn inject(&mut self, when: When, fault: Fault) {
        self.rdma.inject(self.m.max_now(), when, fault);
    }

    /// Crash–recovery counters: crashes fired, recoveries completed, log
    /// depth at the crash, records replayed, pages reconciled from the
    /// surviving redundancy, and the modeled recovery latency (see
    /// [`RecoveryStats`] for which accumulate). All zero unless booted with
    /// [`DilosConfig::recovery`].
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.rdma.endpoint().recovery_stats()
    }

    /// The node configuration.
    pub fn config(&self) -> &DilosConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Memory management API (the compat layer's targets).
    // ------------------------------------------------------------------

    /// Allocates `len` bytes of disaggregated memory (`ddc_malloc`).
    ///
    /// Pages are zero-fill-on-first-touch; nothing is fetched until the
    /// application touches them.
    ///
    /// # Panics
    ///
    /// Panics if the DDC region (the registered remote size) is exhausted.
    pub fn ddc_alloc(&mut self, len: usize) -> u64 {
        let va = self.ddc_brk;
        let len = (len.max(1) + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        self.ddc_brk += len as u64;
        assert!(
            self.ddc_brk - DDC_BASE <= self.cfg.remote_bytes,
            "DDC region exhausted: grow DilosConfig::remote_bytes"
        );
        va
    }

    /// Frees `len` bytes at `va` (`ddc_free`): unmaps pages, releasing local
    /// frames and any in-flight or action state.
    pub fn ddc_free(&mut self, va: u64, len: usize) {
        let t = self.m.max_now();
        self.drain_events(t);
        let start = va >> 12;
        let end = (va + len as u64 + PAGE_SIZE as u64 - 1) >> 12;
        for vpn in start..end {
            match self.pt.get(vpn) {
                Pte::Local { frame, .. } => {
                    self.m
                        .trace
                        .emit(t, TraceEvent::LruRemove { vpn: frame as u64 });
                    self.lru.remove(frame as u64);
                    self.frames.push_free(frame, 0);
                }
                Pte::Fetching { inflight } => {
                    let e = self.take_inflight(inflight);
                    self.m.cal.cancel(e.event);
                    self.m.trace.emit(t, TraceEvent::PrefetchCancel { vpn });
                    // The frame may be reused once the fetch has landed.
                    self.frames.push_free(e.frame, e.ready_at);
                }
                Pte::Action { action } => {
                    let _ = self.actions.take(action);
                }
                Pte::Remote { .. } | Pte::None => {}
            }
            self.set_pte(t, vpn, Pte::None);
        }
    }

    /// `mmap`: with [`MAP_DDC`] the mapping is disaggregated; without it the
    /// mapping is local-only (never migrated to the memory node).
    pub fn mmap(&mut self, len: usize, flags: u32) -> u64 {
        if flags & MAP_DDC != 0 {
            self.ddc_alloc(len)
        } else {
            let va = self.local_brk;
            let len = (len.max(1) + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
            self.local_brk += len as u64;
            va
        }
    }

    // ------------------------------------------------------------------
    // Access path (the fault handler behind it is in `fault`).
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes at `va` on `core`.
    ///
    /// # Panics
    ///
    /// Panics on access outside any mapping (the LibOS equivalent of a
    /// segmentation fault).
    pub fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        if va >= LOCAL_BASE {
            for (vpn, off, span) in page_chunks(va, buf.len()) {
                let n = span.len();
                buf[span].copy_from_slice(&self.local_page(vpn)[off..off + n]);
            }
            return self.m.charge_copy(core, buf.len());
        }
        for (vpn, off, span) in page_chunks(va, buf.len()) {
            let n = span.len();
            let frame = self.touch(core, vpn, false);
            buf[span].copy_from_slice(&self.frames.bytes(frame)[off..off + n]);
            self.m.charge_copy(core, n);
        }
    }

    /// Writes `buf` at `va` on `core`.
    ///
    /// # Panics
    ///
    /// Panics on access outside any mapping.
    pub fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        if va >= LOCAL_BASE {
            for (vpn, off, span) in page_chunks(va, buf.len()) {
                let n = span.len();
                self.local_page(vpn)[off..off + n].copy_from_slice(&buf[span]);
            }
            return self.m.charge_copy(core, buf.len());
        }
        for (vpn, off, span) in page_chunks(va, buf.len()) {
            let end = off + span.len();
            let frame = self.touch(core, vpn, true);
            self.frames.bytes_mut(frame)[off..end].copy_from_slice(&buf[span]);
            self.m.charge_copy(core, end - off);
        }
    }

    /// Reads a little-endian `u64` at `va`: for a word inside one DDC page,
    /// exactly the byte loop's one touch, 8-byte copy and charge, inlined.
    #[inline]
    pub fn read_u64(&mut self, core: usize, va: u64) -> u64 {
        let mut b = [0u8; 8];
        let off = (va % PAGE_SIZE as u64) as usize;
        if va >= LOCAL_BASE || off > PAGE_SIZE - 8 {
            self.read(core, va, &mut b);
        } else {
            let frame = self.touch(core, va >> 12, false);
            b.copy_from_slice(&self.frames.bytes(frame)[off..off + 8]);
            self.m.charge_copy(core, 8);
        }
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `va`, on the word path of
    /// [`read_u64`](Self::read_u64).
    #[inline]
    pub fn write_u64(&mut self, core: usize, va: u64, v: u64) {
        let off = (va % PAGE_SIZE as u64) as usize;
        if va >= LOCAL_BASE || off > PAGE_SIZE - 8 {
            return self.write(core, va, &v.to_le_bytes());
        }
        let frame = self.touch(core, va >> 12, true);
        self.frames.bytes_mut(frame)[off..off + 8].copy_from_slice(&v.to_le_bytes());
        self.m.charge_copy(core, 8);
    }

    /// The local-only page backing `vpn`, zero-filled on first touch.
    fn local_page(&mut self, vpn: u64) -> &mut [u8; PAGE_SIZE] {
        let idx = (vpn - (LOCAL_BASE >> 12)) as usize;
        if idx >= self.local_pages.len() {
            self.local_pages.resize_with(idx + 1, || None);
        }
        self.local_pages[idx].get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Byte offset of `vpn`'s page in the remote region, or `None` when
    /// `vpn` lies outside the DDC range the node registered.
    fn remote_offset(&self, vpn: u64) -> Option<u64> {
        let offset = vpn.checked_sub(DDC_BASE_VPN)? << 12;
        (offset < self.cfg.remote_bytes).then_some(offset)
    }

    /// Maps `vpn` to `frame` as a local page and inserts it in the LRU.
    fn map_page(&mut self, t: Ns, vpn: u64, frame: u32, ready_at: Ns) {
        self.m
            .trace
            .emit(t, TraceEvent::LruInsert { vpn: frame as u64 });
        self.lru.insert(frame as u64);
        let m = self.frames.meta_mut(frame);
        m.vpn = vpn;
        m.ready_at = ready_at;
        self.set_pte(
            t,
            vpn,
            Pte::Local {
                frame,
                accessed: false,
                dirty: false,
            },
        );
    }

    /// Installs `pte` for `vpn`, tracing the state-class transition.
    fn set_pte(&mut self, t: Ns, vpn: u64, pte: Pte) {
        if self.m.trace.is_enabled() {
            self.m.trace.emit(
                t,
                TraceEvent::PteTransition {
                    vpn,
                    from: pte_class(&self.pt.get(vpn)),
                    to: pte_class(&pte),
                },
            );
        }
        self.pt.set(vpn, pte);
    }

    /// Page-table residency (for tests/diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pt.resident()
    }

    /// Raw PTE inspection (tests/diagnostics).
    pub fn pte_of(&self, va: u64) -> Pte {
        self.pt.get(va >> 12)
    }
}

impl ComputeNode for Dilos {
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

    #[deny(clippy::wildcard_enum_match_arm)]
    fn dispatch(&mut self, t: Ns, ev: SchedEvent) -> Option<(Ns, SchedEvent)> {
        match ev {
            SchedEvent::PrefetchLand { vpn, token } => self.on_prefetch_land(t, vpn, token),
            SchedEvent::ReclaimTick => return self.on_reclaim_tick(t),
            SchedEvent::CleanerWriteback { frame } => {
                self.pending_clean -= 1;
                self.frames.push_free(frame, t);
            }
            SchedEvent::FaultDue => self.rdma.fault_due(t),
            SchedEvent::RdmaCompletion { .. } => {}
        }
        None
    }

    fn record_gauges(&self, t: Ns, g: &MetricsRegistry) {
        g.set_gauge("free_frames", self.frames.free_count() as u64);
        g.set_gauge("lru_pages", self.lru.len() as u64);
        let inflight = self.inflight.len() - self.inflight_free.len();
        g.set_gauge("inflight_fetches", inflight as u64);
        g.set_gauge("pending_clean", self.pending_clean as u64);
        g.set_gauge("resident_pages", self.pt.resident() as u64);
        // Endpoint-wide: in a shared pool the queue pairs and wire are too.
        let ep = self.rdma.endpoint();
        g.set_gauge("busy_qps", ep.busy_qps(t) as u64);
        g.set_gauge("link_busy_ns", ep.link_busy());
    }
}

/// One range of a fetch vector as the verb's [`Segment`]: the same bytes of
/// the page whose remote copy starts at `remote` and of its local frame.
fn page_segment(remote: u64, (offset, len): (u16, u16)) -> Segment {
    Segment {
        remote: remote + u64::from(offset),
        offset: usize::from(offset),
        len: usize::from(len),
    }
}

/// The trace-visible class of a PTE (drops per-variant payloads).
fn pte_class(p: &Pte) -> PteClass {
    match p {
        Pte::None => PteClass::None,
        Pte::Local { .. } => PteClass::Local,
        Pte::Remote { .. } => PteClass::Remote,
        Pte::Fetching { .. } => PteClass::Fetching,
        Pte::Action { .. } => PteClass::Action,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::Readahead;
    use dilos_alloc::PageLiveness;

    /// Corruptions the auditor must catch, injected behind the node's back.
    impl Dilos {
        /// Re-inserts a freed frame into the LRU without re-allocating it,
        /// simulating a use-after-free in the page manager.
        fn inject_resurrected_frame(&mut self, t: Ns) -> Option<u32> {
            let frame = self.frames.pop_free(t)?;
            self.frames.push_free(frame, t);
            let vpn = u64::from(frame);
            self.m.trace.emit(t, TraceEvent::LruInsert { vpn });
            self.lru.insert(vpn);
            Some(frame)
        }

        /// Returns an allocated frame to the free list twice. A healthy run
        /// can never double-free.
        fn inject_double_frame_free(&mut self) {
            let t = self.m.max_now();
            let frame = self.frames.pop_free(t).expect("a free frame to corrupt");
            self.frames.push_free(frame, t);
            self.frames.push_free(frame, t);
        }

        /// Silently drops one in-flight fetch so its traced `PrefetchIssue`
        /// never lands or cancels. Returns `false` when nothing was in
        /// flight.
        fn inject_lost_fetch(&mut self) -> bool {
            for (idx, slot) in self.inflight.iter_mut().enumerate() {
                if slot.take().is_some() {
                    self.inflight_free.push(idx as u32);
                    return true;
                }
            }
            false
        }
    }

    fn audited_node() -> Dilos {
        let mut node = Dilos::new(DilosConfig {
            local_pages: 32,
            remote_bytes: 1 << 24,
            obs: dilos_sim::Observability::audited(),
            ..DilosConfig::default()
        });
        node.set_prefetcher(Box::new(Readahead::new()));
        node
    }

    /// Streams enough pages through a small cache to exercise faults,
    /// prefetch, eviction, and reclaim — then expects a spotless report.
    #[test]
    fn healthy_run_audits_clean() {
        let mut node = audited_node();
        let pages = 128usize;
        let va = node.ddc_alloc(pages * PAGE_SIZE);
        for i in 0..pages {
            node.write_u64(0, va + (i * PAGE_SIZE) as u64, i as u64);
        }
        for i in 0..pages {
            assert_eq!(node.read_u64(0, va + (i * PAGE_SIZE) as u64), i as u64);
        }
        let report = node.audit_report();
        assert!(report.is_empty(), "unexpected violations: {report:#?}");
        assert_ne!(node.trace_digest(), 0, "an audited run records a trace");
    }

    #[test]
    fn auditor_catches_double_frame_free() {
        let mut node = audited_node();
        let va = node.ddc_alloc(8 * PAGE_SIZE);
        for i in 0..8u64 {
            node.write_u64(0, va + i * PAGE_SIZE as u64, i);
        }
        node.inject_double_frame_free();
        let report = node.audit_report();
        assert!(
            report.iter().any(|m| m.contains("double free of frame")),
            "double free not detected: {report:#?}"
        );
    }

    /// Deliberately re-inserts a freed frame into the LRU without a fresh
    /// allocation: the auditor must flag the resurrection.
    #[test]
    fn auditor_catches_resurrected_frame() {
        let mut node = audited_node();
        let va = node.ddc_alloc(8 * PAGE_SIZE);
        for i in 0..8u64 {
            node.write_u64(0, va + i * PAGE_SIZE as u64, i);
        }
        let frame = node.inject_resurrected_frame(node.m.now(0));
        assert!(frame.is_some(), "free list should not be empty");
        let report = node.audit_report();
        assert!(
            report.iter().any(|m| m.contains("resurrected in the LRU")),
            "resurrection not detected: {report:#?}"
        );
    }

    /// A paging guide calling the first 64 bytes of every page live.
    struct HeadLive;

    impl PagingGuide for HeadLive {
        fn live_ranges(&self, _page_va: u64) -> PageLiveness {
            PageLiveness::Partial([(0, 64)].into())
        }
    }

    /// Best-effort prefetch failure through `fill_frame`: pages stripe over
    /// two unreplicated memory nodes, node 1 dies, and a fault on page 0
    /// (node 0) makes readahead target page 1 (node 1). The prefetch must
    /// vanish without a trace: frame back on the free list, action vector
    /// back in the PTE, nothing issued.
    #[test]
    fn failed_prefetch_is_dropped_cleanly() {
        struct Recorder(Vec<(Ns, TraceEvent)>);
        impl dilos_sim::TraceObserver for Recorder {
            fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
                self.0.push((t, *ev));
            }
        }
        for guided in [false, true] {
            let mut node = Dilos::new(DilosConfig {
                local_pages: 32,
                remote_bytes: 1 << 24,
                memory_nodes: 2,
                obs: dilos_sim::Observability::audited(),
                ..DilosConfig::default()
            });
            let seen = Rc::new(RefCell::new(Recorder(Vec::new())));
            node.trace().attach(seen.clone());
            node.set_prefetcher(Box::new(Readahead::new()));
            if guided {
                node.set_paging_guide(Rc::new(RefCell::new(HeadLive)));
            }
            let pages = 128u64;
            let va = node.ddc_alloc(pages as usize * PAGE_SIZE);
            let page_va = |i: u64| va + i * PAGE_SIZE as u64;
            for i in 0..pages {
                node.write_u64(0, page_va(i), i + 1);
            }
            // A read pass leaves only clean pages resident, so evictions
            // after the failure never need the dead node.
            for i in 0..pages {
                assert_eq!(node.read_u64(0, page_va(i)), i + 1);
            }
            // Page 1's logged vector: taken, then put back in its slot.
            let logged = |n: &mut Dilos| match n.pte_of(page_va(1)) {
                Pte::Action { action } => {
                    let v = n.actions.take(action);
                    assert_eq!(n.actions.insert(v), action);
                    Some(v)
                }
                Pte::Remote { .. } => None,
                other => panic!("page 1 must stay remote, got {other:?}"),
            };
            let before = logged(&mut node);
            assert_eq!(before, guided.then(|| [(0, 64)].into()));

            node.inject(When::At(node.m.now(0)), Fault::Fail { node: 1 });
            let issued = node.stats().prefetch_issued;
            let posted = node.rdma().ops(ServiceClass::Prefetch).reads;
            let traced = || {
                let vpn = page_va(1) >> 12;
                let issue = TraceEvent::PrefetchIssue { vpn };
                let events = seen.borrow();
                events.0.iter().filter(|(_, e)| *e == issue).count()
            };
            let traced_before = traced();
            assert_eq!(node.read_u64(0, page_va(0)), 1);

            assert_eq!(
                node.rdma().ops(ServiceClass::Prefetch).reads,
                posted + 1,
                "readahead must have posted (and lost) the fetch of page 1"
            );
            assert_eq!(node.stats().prefetch_issued, issued);
            assert_eq!(traced(), traced_before, "no PrefetchIssue traced");
            // The declined prefetch restored, by copy, the vector it took.
            assert_eq!(logged(&mut node), before);
            let report = node.audit_report();
            assert!(report.is_empty(), "unexpected violations: {report:#?}");
            let in_use = node.frames.total() - node.frames.free_count();
            assert_eq!(in_use, node.resident_pages(), "prefetch frame leaked");
        }
    }

    #[test]
    fn auditor_catches_lost_inflight_fetch() {
        let mut node = audited_node();
        let va = node.ddc_alloc(64 * PAGE_SIZE);
        // Populate past the cache size so early pages are evicted to the
        // memory node; re-reading them then major-faults, and the sequential
        // pattern makes readahead leave fetches in flight.
        for i in 0..64u64 {
            node.write_u64(0, va + i * PAGE_SIZE as u64, i);
        }
        let mut i = 0u64;
        while !node.inject_lost_fetch() {
            assert!(i < 64, "readahead never left a fetch in flight");
            node.read_u64(0, va + i * PAGE_SIZE as u64);
            i += 1;
        }
        let report = node.audit_report();
        assert!(
            report.iter().any(|m| m.contains("lost in-flight fetch")),
            "lost fetch not detected: {report:#?}"
        );
    }
}
