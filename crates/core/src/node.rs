//! The DiLOS compute node: fault handler, page manager, and access path.
//!
//! This is the system §4 describes, assembled: an application address space
//! whose DDC range is backed by a local frame cache plus a remote memory
//! node, with
//!
//! - a **page fault handler** (§4.2) that checks exactly one data structure
//!   (the unified page table) before posting the demand RDMA read,
//! - a **prefetcher** (§4.3) whose decisions and hit-tracker sweeps run
//!   inside the demand fetch's 2–3 µs window,
//! - a **page manager** (§4.4) that keeps free frames above a watermark by
//!   evicting in the background, so reclamation never blocks the handler,
//! - a **communication module** (§4.5) with per-core, per-module queue
//!   pairs (realized as [`ServiceClass`]-keyed QPs in the fabric), and
//! - the **guide API** (§4.1/§4.3/§4.4) with subpage fetches and action
//!   PTEs.
//!
//! Prefetched pages are *not* mapped until their fetch completes: the PTE
//! holds the `fetching` tag, and a touch before completion is DiLOS's minor
//! fault — a hardware exception that only waits, never re-fetches. A touch
//! after completion sees a mapped page and pays nothing, which is exactly
//! why Table 3 shows fewer minor faults than Fastswap's swap cache.

use std::cell::RefCell;
use std::rc::Rc;

use dilos_sim::{
    page_chunks, ComputeNode, DeliverCompletion, EventId, Fault, FaultKind, FaultPhase, FaultPlan,
    Machine, MetricsRegistry, Ns, Observability, PteClass, RdmaEndpoint, RdmaError, RdmaPort,
    RecoverConfig, RecoveryStats, ReqId, SchedEvent, Segment, ServiceClass, SimConfig, TraceEvent,
    TraceSink, When, PAGE_SIZE,
};

use crate::audit::Auditor;
use crate::compat::MAP_DDC;
use crate::frames::FrameArena;
use crate::guide::{ActionTable, FetchVector, GuideOps, PagingGuide, PrefetchGuide};
use crate::pagemgr::Watermarks;
use crate::prefetch::{HitTracker, NoPrefetch, Prefetcher};
use crate::pt::{PageTable, Pte};
use crate::stats::DilosStats;

use dilos_alloc::PageLiveness;

/// Base virtual address of the disaggregated (DDC) region.
pub const DDC_BASE: u64 = 0x1000_0000_0000;
/// Base virtual address of the local-only region (`mmap` without `MAP_DDC`).
pub const LOCAL_BASE: u64 = 0x2000_0000_0000;

const DDC_BASE_VPN: u64 = DDC_BASE >> 12;

/// Software-path costs of the DiLOS handler, in virtual nanoseconds.
///
/// These are the *short* paths the paper claims: the handler touches one
/// data structure before the RDMA post. Fastswap's far larger equivalents
/// live in `dilos-baselines`.
#[derive(Debug, Clone, Copy)]
pub struct SoftCosts {
    /// Unified-page-table check in the fault handler.
    pub pte_check_ns: Ns,
    /// Mapping a fetched page (PTE write + LRU insert).
    pub map_ns: Ns,
    /// Zero-filling a first-touch page.
    pub zero_fill_ns: Ns,
    /// Hit-tracker cost per PTE scanned (hidden in the fetch window).
    pub tracker_per_pte_ns: Ns,
    /// Issuing one asynchronous prefetch (hidden in the fetch window).
    pub prefetch_issue_ns: Ns,
    /// Reclaimer cost per page scanned (background thread).
    pub reclaim_scan_ns: Ns,
    /// Hardware page-table walk on a TLB miss to a resident page.
    pub tlb_miss_walk_ns: Ns,
    /// Swap-cache management cost per fault (only in the `swap_cache_mode`
    /// ablation, mirroring the Linux path DiLOS removed).
    pub swapcache_mgmt_ns: Ns,
    /// Minor-fault service from the swap cache (ablation only).
    pub swapcache_minor_ns: Ns,
}

impl Default for SoftCosts {
    fn default() -> Self {
        Self {
            pte_check_ns: 100,
            map_ns: 150,
            zero_fill_ns: 350,
            tracker_per_pte_ns: 15,
            prefetch_issue_ns: 60,
            reclaim_scan_ns: 150,
            tlb_miss_walk_ns: 30,
            swapcache_mgmt_ns: 900,
            swapcache_minor_ns: 800,
        }
    }
}

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
    /// Handler software costs.
    pub costs: SoftCosts,
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
    /// Replication factor across the pool (1 = no replication).
    pub replication: usize,
    /// Carbink-style erasure coding `(k, m)` across the pool; overrides
    /// `replication` when set (requires `memory_nodes ≥ k + m`).
    pub erasure: Option<(usize, usize)>,
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
            costs: SoftCosts::default(),
            shared_queue: false,
            swap_cache_mode: false,
            direct_reclaim: false,
            hit_tracker: true,
            tcp_mode: false,
            memory_nodes: 1,
            replication: 1,
            erasure: None,
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
        let mut rdma = match cfg.erasure {
            Some((k, m)) => {
                RdmaEndpoint::connect_ec(cfg.sim.clone(), cfg.remote_bytes, cfg.memory_nodes, k, m)
            }
            None => RdmaEndpoint::connect_cluster(
                cfg.sim.clone(),
                cfg.remote_bytes,
                cfg.memory_nodes,
                cfg.replication,
            ),
        };
        rdma.set_shared_queue(cfg.shared_queue);
        rdma.set_tcp_mode(cfg.tcp_mode);
        if let Some(rc) = cfg.recovery {
            rdma.arm_durability(rc);
        }
        Self::boot(cfg, RdmaPort::exclusive(rdma))
    }

    /// Boots a node as one tenant of a shared memory pool: the port carries
    /// the tenant's protection keys, remote-address base, and queue-pair
    /// lanes on an endpoint other tenants also use. Transport-level config
    /// knobs (`shared_queue`, `tcp_mode`, `memory_nodes`, `replication`,
    /// `erasure`) are properties of the shared endpoint and are ignored
    /// here; `remote_bytes` must be the tenant's slice size.
    pub fn with_port(cfg: DilosConfig, port: RdmaPort) -> Self {
        Self::boot(cfg, port)
    }

    fn boot(cfg: DilosConfig, mut rdma: RdmaPort) -> Self {
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
        aud.borrow_mut().final_checks();
        let a = aud.borrow();
        let mut v: Vec<String> = a.violations().to_vec();

        // Frame conservation: allocs − frees must equal the frames in use.
        // Signed: a corrupted free list can exceed the arena's total.
        let in_use = self.frames.total() as i64 - self.frames.free_count() as i64;
        if a.frames_in_use() as i64 != in_use {
            v.push(format!(
                "[cross-check] trace says {} frames in use, the arena says {in_use}",
                a.frames_in_use()
            ));
        }

        // No lost in-flight fetches: the traced outstanding set must equal
        // the node's in-flight table (pending prefetches at shutdown are
        // fine — silently dropped ones are not).
        let actual: std::collections::BTreeSet<u64> =
            self.inflight.iter().flatten().map(|e| e.vpn).collect();
        for vpn in a.outstanding_fetches() {
            if !actual.contains(&vpn) {
                v.push(format!(
                    "[cross-check] lost in-flight fetch: vpn {vpn:#x} was issued but \
                     never landed or cancelled"
                ));
            }
        }
        let traced: std::collections::BTreeSet<u64> = a.outstanding_fetches().into_iter().collect();
        for &vpn in &actual {
            if !traced.contains(&vpn) {
                v.push(format!(
                    "[cross-check] untraced in-flight fetch for vpn {vpn:#x}"
                ));
            }
        }

        // Ad-hoc counters must be derivable from the trace.
        let (majors, minors, zero_fills) = a.fault_counts();
        for (name, traced, counted) in [
            ("major faults", majors, self.stats.major_faults),
            ("minor faults", minors, self.stats.minor_faults),
            ("zero fills", zero_fills, self.stats.zero_fills),
            (
                "prefetch issues",
                a.prefetch_flow().0,
                self.stats.prefetch_issued,
            ),
            ("evictions", a.evictions(), self.stats.evictions),
        ] {
            if traced != counted {
                v.push(format!(
                    "[cross-check] trace counts {traced} {name}, stats say {counted}"
                ));
            }
        }

        // Fault-phase sums must reproduce the recorded latency breakdown.
        let b = &self.stats.breakdown;
        for (phase, sum) in [
            (FaultPhase::Exception, b.exception),
            (FaultPhase::Check, b.check),
            (FaultPhase::Alloc, b.alloc_wait),
            (FaultPhase::Fetch, b.fetch),
            (FaultPhase::Map, b.map),
            (FaultPhase::Reclaim, b.reclaim),
        ] {
            if a.phase_sum(phase) != sum {
                v.push(format!(
                    "[cross-check] {phase:?} phase sum {} != breakdown's {sum}",
                    a.phase_sum(phase)
                ));
            }
        }

        // LRU membership.
        if a.lru_members() != self.lru.len() {
            v.push(format!(
                "[cross-check] trace says {} LRU members, the chain holds {}",
                a.lru_members(),
                self.lru.len()
            ));
        }

        // Link-bandwidth conservation, per service class.
        for class in ServiceClass::ALL {
            let traced = a.link_bytes(class);
            let fabric = self.rdma.class_bytes(class);
            if traced != fabric {
                v.push(format!(
                    "[cross-check] {} link bytes {traced:?} != fabric accounting {fabric:?}",
                    class.label()
                ));
            }
        }
        v
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

    /// Test hook (invariant proving): re-inserts a freed frame into the
    /// LRU without re-allocating it, simulating a use-after-free in the
    /// page manager. The auditor must flag the resurrection.
    #[cfg(test)]
    pub(crate) fn inject_resurrected_frame(&mut self, t: Ns) -> Option<u32> {
        let frame = self.frames.pop_free(t)?;
        self.frames.push_free(frame, t);
        let vpn = u64::from(frame);
        self.m.trace.emit(t, TraceEvent::LruInsert { vpn });
        self.lru.insert(vpn);
        Some(frame)
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
    // Access path.
    // ------------------------------------------------------------------

    /// Reads `buf.len()` bytes at `va` on `core`.
    ///
    /// # Panics
    ///
    /// Panics on access outside any mapping (the LibOS equivalent of a
    /// segmentation fault).
    pub fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        if va >= LOCAL_BASE {
            self.local_read(core, va, buf);
            return;
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
        if va >= LOCAL_BASE {
            self.local_write(core, va, buf);
            return;
        }
        for (vpn, off, span) in page_chunks(va, buf.len()) {
            let end = off + span.len();
            let frame = self.touch(core, vpn, true);
            self.frames.bytes_mut(frame)[off..end].copy_from_slice(&buf[span]);
            self.m.charge_copy(core, end - off);
        }
    }

    /// Reads a little-endian `u64` at `va`.
    pub fn read_u64(&mut self, core: usize, va: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(core, va, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `va`.
    pub fn write_u64(&mut self, core: usize, va: u64, v: u64) {
        self.write(core, va, &v.to_le_bytes());
    }

    fn local_read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        for (vpn, off, span) in page_chunks(va, buf.len()) {
            let n = span.len();
            buf[span].copy_from_slice(&self.local_page(vpn)[off..off + n]);
        }
        self.m.charge_copy(core, buf.len());
    }

    fn local_write(&mut self, core: usize, va: u64, buf: &[u8]) {
        for (vpn, off, span) in page_chunks(va, buf.len()) {
            let n = span.len();
            self.local_page(vpn)[off..off + n].copy_from_slice(&buf[span]);
        }
        self.m.charge_copy(core, buf.len());
    }

    /// The local-only page backing `vpn`, zero-filled on first touch.
    fn local_page(&mut self, vpn: u64) -> &mut [u8; PAGE_SIZE] {
        let idx = (vpn - (LOCAL_BASE >> 12)) as usize;
        if idx >= self.local_pages.len() {
            self.local_pages.resize_with(idx + 1, || None);
        }
        self.local_pages[idx].get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Resolves `vpn` to a resident frame, faulting as needed, and marks the
    /// access (A/D bits) — the software MMU.
    fn touch(&mut self, core: usize, vpn: u64, is_write: bool) -> u32 {
        // Deliver every calendar event whose time has passed before looking
        // anything up: prefetch landings map their pages, reclaim ticks
        // evict, writebacks return frames — all at their true virtual times,
        // so this access observes the state the background work produced.
        self.drain_events(self.m.now(core));
        // TLB fast path. The way index is hashed so that arrays laid out at
        // power-of-two strides (columnar tables) don't alias pathologically.
        let way = ((vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 52) as usize % TLB_WAYS;
        let gen = self.pt.generation();
        let e = self.tlb[core][way];
        if e.valid && e.vpn == vpn && e.generation == gen {
            if is_write && !e.dirty_marked {
                self.pt.mark_access(vpn, true);
                self.tlb[core][way].dirty_marked = true;
            }
            self.stats.local_hits += 1;
            self.lru.touch(e.frame as u64);
            return e.frame;
        }
        let frame = self.resolve(core, vpn, is_write);
        self.lru.touch(frame as u64);
        let gen = self.pt.generation();
        self.tlb[core][way] = TlbEntry {
            vpn,
            frame,
            generation: gen,
            valid: true,
            dirty_marked: is_write,
        };
        frame
    }

    /// Page-table walk plus fault handling (slow path).
    fn resolve(&mut self, core: usize, vpn: u64, is_write: bool) -> u32 {
        assert!(
            vpn >= DDC_BASE_VPN && ((vpn - DDC_BASE_VPN) << 12) < self.cfg.remote_bytes,
            "segmentation fault: access to unmapped VA {:#x}",
            vpn << 12
        );
        match self.pt.get(vpn) {
            Pte::Local { frame, .. } => {
                // TLB miss to a resident page: hardware walk only.
                self.m.advance(core, self.cfg.costs.tlb_miss_walk_ns);
                let ready = self.frames.meta(frame).ready_at;
                let now = self.m.now(core);
                if ready > now {
                    // Mapped but the payload is still on the wire: stall.
                    self.m.wait_until(core, ready);
                }
                self.pt.mark_access(vpn, is_write);
                self.stats.local_hits += 1;
                frame
            }
            Pte::Fetching { inflight } => self.fault_on_inflight(core, vpn, inflight, is_write),
            Pte::None => self.fault_zero_fill(core, vpn, is_write),
            Pte::Remote { .. } => self.fault_remote(core, vpn, is_write, None),
            Pte::Action { action } => {
                let vector = self.actions.take(action);
                self.fault_remote(core, vpn, is_write, Some(vector))
            }
        }
    }

    /// Consumes the in-flight entry behind a `Pte::Fetching` and recycles
    /// its slot.
    ///
    /// # Panics
    ///
    /// A `Fetching` PTE always names a live slot: the entry is installed
    /// before the PTE and the PTE is rewritten before the entry is taken,
    /// so an empty slot is page-table corruption and unrecoverable.
    #[expect(clippy::expect_used, reason = "a Fetching PTE names a live slot")]
    fn take_inflight(&mut self, idx: u32) -> InflightEntry {
        let entry = self.inflight[idx as usize]
            .take()
            .expect("fetching PTE has an in-flight entry");
        self.inflight_free.push(idx);
        entry
    }

    /// A fault on a page whose (pre)fetch is in flight.
    ///
    /// If the fetch already completed, the completion handler has mapped the
    /// page in the past: no fault is charged. Otherwise this is DiLOS's
    /// minor fault — exception, wait, map.
    fn fault_on_inflight(&mut self, core: usize, vpn: u64, idx: u32, is_write: bool) -> u32 {
        let entry = self.take_inflight(idx);
        // This access consumes the fetch; the scheduled landing must not
        // fire later against a reused slot.
        self.m.cal.cancel(entry.event);
        let now = self.m.now(core);
        let costs = self.cfg.costs;
        if entry.ready_at <= now {
            // Completed in the past; mapping it cost the completion path,
            // not this access. The landing closes the *prefetch's* span.
            let prev_req = self.m.trace.set_request(entry.req);
            self.m.trace.emit(now, TraceEvent::PrefetchLand { vpn });
            self.map_page(now, vpn, entry.frame, 0);
            self.m.trace.set_request(prev_req);
            self.pt.mark_access(vpn, is_write);
            self.stats.local_hits += 1;
            self.m.advance(core, costs.tlb_miss_walk_ns);
            return entry.frame;
        }
        // Minor fault: pay the exception, wait out the fetch, map. The wait
        // is its own causal request; the landing still closes the prefetch.
        let prev_req = self.m.begin_fault(now, core, vpn, FaultKind::Minor);
        self.stats.minor_faults += 1;
        let mut t = now + self.cfg.sim.hw_exception_ns + costs.pte_check_ns;
        if entry.swap_cached {
            t += costs.swapcache_minor_ns;
        }
        t = t.max(entry.ready_at) + costs.map_ns;
        self.m.wait_until(core, t);
        let minor_req = self.m.trace.set_request(entry.req);
        self.m.trace.emit(t, TraceEvent::PrefetchLand { vpn });
        self.m.trace.set_request(minor_req);
        self.map_page(t, vpn, entry.frame, 0);
        self.pt.mark_access(vpn, is_write);
        self.m.end_fault(t, core, vpn, prev_req);
        entry.frame
    }

    /// First touch of a DDC page: zero-fill, no network.
    fn fault_zero_fill(&mut self, core: usize, vpn: u64, is_write: bool) -> u32 {
        let now = self.m.now(core);
        let prev_req = self.m.begin_fault(now, core, vpn, FaultKind::ZeroFill);
        let t = now + self.cfg.sim.hw_exception_ns + self.cfg.costs.pte_check_ns;
        let (frame, t_alloc, reclaim_ns) = self.alloc_frame(core, t);
        self.frames.zero(frame);
        let t_done = t_alloc + self.cfg.costs.zero_fill_ns + self.cfg.costs.map_ns + reclaim_ns;
        self.m.wait_until(core, t_done);
        self.stats.zero_fills += 1;
        self.map_page(t_done, vpn, frame, 0);
        self.pt.mark_access(vpn, is_write);
        self.m.end_fault(t_done, core, vpn, prev_req);
        frame
    }

    /// A major fault: demand-fetch the page (whole or via an action vector).
    fn fault_remote(
        &mut self,
        core: usize,
        vpn: u64,
        is_write: bool,
        vector: Option<FetchVector>,
    ) -> u32 {
        let now = self.m.now(core);
        let prev_req = self.m.begin_fault(now, core, vpn, FaultKind::Major);
        let hw = self.cfg.sim.hw_exception_ns;
        let costs = self.cfg.costs;
        let mut check = costs.pte_check_ns;
        if self.cfg.swap_cache_mode {
            check += costs.swapcache_mgmt_ns;
        }
        let t = now + hw + check;
        // Transition through the `fetching` tag, exactly as §4.2 describes
        // (other cores reading the PTE would wait instead of re-fetching).
        self.set_pte(t, vpn, Pte::Fetching { inflight: u32::MAX });
        let (frame, t_alloc, reclaim_ns) = self.alloc_frame(core, t);
        let class = ServiceClass::Fault;
        // A demand fault cannot degrade gracefully: the faulting load needs
        // the bytes now, so data loss here is fatal by design (mirrors a
        // real machine taking SIGBUS).
        #[expect(clippy::expect_used, reason = "all replicas down is unrecoverable")]
        let mut done = self
            .fill_frame(t_alloc, core, class, vpn, frame, vector.as_ref())
            .expect("demand fetch failed: address out of region or all replicas down");
        if vector.is_some_and(|v| v.is_empty()) {
            // Fully-dead page: the handler zero-fills instead of waiting.
            done += costs.zero_fill_ns;
        }

        // Hidden-window work: hit-tracker sweep + prefetch decision/issue,
        // plus the app-aware guide. All of it runs while the demand fetch is
        // on the wire; only overflow beyond the window costs latency.
        let hidden_done = self.fetch_window_work(core, vpn, t_alloc);

        let t_ready = done.max(hidden_done) + reclaim_ns;
        let t_end = t_ready + costs.map_ns;
        self.m.wait_until(core, t_end);
        self.stats.major_faults += 1;
        let b = &mut self.stats.breakdown;
        b.exception += hw;
        b.check += check;
        b.alloc_wait += t_alloc - t;
        b.fetch += t_ready - t_alloc;
        b.map += costs.map_ns;
        b.reclaim += reclaim_ns;
        b.count += 1;
        if self.m.trace.is_enabled() {
            for (phase, dur) in [
                (FaultPhase::Exception, hw),
                (FaultPhase::Check, check),
                (FaultPhase::Alloc, t_alloc - t),
                (FaultPhase::Fetch, t_ready - t_alloc),
                (FaultPhase::Map, costs.map_ns),
                (FaultPhase::Reclaim, reclaim_ns),
            ] {
                self.m.trace.emit(
                    t_end,
                    TraceEvent::FaultPhase {
                        core: core as u8,
                        phase,
                        dur,
                    },
                );
            }
        }

        self.map_page(t_end, vpn, frame, 0);
        self.pt.mark_access(vpn, is_write);
        self.m.end_fault(t_end, core, vpn, prev_req);
        frame
    }

    /// Fills `frame` with `vpn`'s remote content, posting at `t`: the whole
    /// page, or only the live chunks an action `vector` names (an empty
    /// vector is a fully-dead page — nothing on the wire). The demand fault
    /// and the prefetch both fill through here; they differ only in `class`
    /// and in whether an `Err` is fatal. Returns when the payload lands.
    fn fill_frame(
        &mut self,
        t: Ns,
        core: usize,
        class: ServiceClass,
        vpn: u64,
        frame: u32,
        vector: Option<&FetchVector>,
    ) -> Result<Ns, RdmaError> {
        let remote = (vpn - DDC_BASE_VPN) << 12;
        // The whole page replaces the frame's: it becomes the memory node's
        // own image, shared until the first store into the frame copies it.
        let Some(v) = vector else {
            let page = self.frames.page_mut(frame);
            return self.rdma.read_page(t, core, class, remote, page);
        };
        // A vectored verb touches only its segments; the rest of the frame
        // must read as dead zeros, so it is zeroed first.
        self.frames.zero(frame);
        let mut done = t;
        if !v.is_empty() {
            let mut segs = std::mem::take(&mut self.seg_buf);
            segs.clear();
            segs.extend(v.iter().map(|&range| page_segment(remote, range)));
            let posted = self
                .rdma
                .read_v(t, core, class, &segs, self.frames.bytes_mut(frame));
            self.seg_buf = segs;
            done = posted?;
        }
        self.stats.guided_fetches += 1;
        self.stats.fetch_bytes_saved += (PAGE_SIZE - v.live_bytes()) as u64;
        Ok(done)
    }

    /// Runs the tracker sweep, the prefetcher, and the prefetch guide in the
    /// demand-fetch window starting at `t0`; returns when that software
    /// finishes (usually before the fetch completes).
    fn fetch_window_work(&mut self, core: usize, vpn: u64, t0: Ns) -> Ns {
        let costs = self.cfg.costs;
        let mut sw = t0;
        if self.cfg.hit_tracker {
            if let Some((hits, total)) = self.tracker.sweep_if_due(&self.pt) {
                sw += total as Ns * costs.tracker_per_pte_ns;
                self.prefetcher.feedback(hits, total);
                self.stats.prefetch_hits += hits as u64;
            }
        }
        // General-purpose prefetcher.
        let mut targets = std::mem::take(&mut self.prefetch_buf);
        targets.clear();
        self.prefetcher.on_fault(vpn, &mut targets);
        // `targets` is moved back into `prefetch_buf` below, so iterate by
        // index rather than borrowing across the `prefetch_vpn` call.
        for i in 0..targets.len() {
            if let Some(&target) = targets.get(i) {
                sw += costs.prefetch_issue_ns;
                self.prefetch_vpn(core, target, sw);
            }
        }
        self.prefetch_buf = targets;
        // App-aware guide (its subpage reads ride the guide queue and are
        // pipelined with the demand fetch).
        if let Some(g) = self.prefetch_guide.clone() {
            let va = vpn << 12;
            self.m
                .trace
                .emit(sw, TraceEvent::GuideInvoke { vpn, fetch: true });
            let mut ops = NodeGuideOps {
                node: self,
                core,
                now: sw,
            };
            g.borrow_mut().on_fault(va, &mut ops);
            sw = sw.max(ops.now);
        }
        sw
    }

    /// Issues one asynchronous page prefetch at virtual time `t`.
    ///
    /// Skips pages that are resident, already in flight, never touched, or
    /// when free frames are at the reserve watermark (prefetch must not
    /// force eviction stalls).
    fn prefetch_vpn(&mut self, core: usize, vpn: u64, t: Ns) {
        if vpn < DDC_BASE_VPN || ((vpn - DDC_BASE_VPN) << 12) >= self.cfg.remote_bytes {
            return;
        }
        let vector = match self.pt.get(vpn) {
            Pte::Remote { .. } => None,
            Pte::Action { action } => Some(self.actions.take(action)),
            _ => return,
        };
        // The prefetch is its own causal request from here on: verbs and the
        // eventual landing attribute to it, not to the fault whose hidden
        // window issued it.
        let prev_req = self.m.trace.begin_request();
        let req = self.m.trace.current_request();
        let filled = self.try_alloc_prefetch_frame(t).and_then(|frame| {
            let class = ServiceClass::Prefetch;
            match self.fill_frame(t, core, class, vpn, frame, vector.as_ref()) {
                Ok(done) => Some((frame, done)),
                Err(_) => {
                    self.frames.push_free(frame, t);
                    None
                }
            }
        });
        let Some((frame, ready_at)) = filled else {
            // Out of reserve, or the fetch failed. Prefetch is best-effort:
            // on a degraded fabric (all replicas of this page down) drop the
            // attempt and put an action vector back if we took one, so the
            // demand path can retry — and surface the failure — if the page
            // is ever actually touched.
            if let Some(v) = vector {
                let idx = self.actions.insert(v);
                self.set_pte(t, vpn, Pte::Action { action: idx });
            }
            self.m.trace.set_request(prev_req);
            return;
        };
        let idx = match self.inflight_free.pop() {
            Some(i) => i,
            None => {
                self.inflight.push(None);
                (self.inflight.len() - 1) as u32
            }
        };
        // The landing is a first-class calendar event: when virtual time
        // reaches `ready_at` the page is mapped then, not lazily at the next
        // reclaim pass (§4.3: completed prefetches are "mapped into the
        // unified page table immediately").
        let land = SchedEvent::PrefetchLand { vpn, token: idx };
        let event = self.m.cal.schedule(ready_at, land);
        self.inflight[idx as usize] = Some(InflightEntry {
            frame,
            ready_at,
            vpn,
            swap_cached: self.cfg.swap_cache_mode,
            event,
            req,
        });
        self.m.trace.emit(t, TraceEvent::PrefetchIssue { vpn });
        self.set_pte(t, vpn, Pte::Fetching { inflight: idx });
        self.stats.prefetch_issued += 1;
        if self.cfg.hit_tracker {
            self.tracker.track(vpn);
        }
        self.m.trace.set_request(prev_req);
    }

    /// Claims a frame for a prefetch without ever stalling; `None` when the
    /// free reserve is needed for demand faults.
    fn try_alloc_prefetch_frame(&mut self, now: Ns) -> Option<u32> {
        if self.cfg.direct_reclaim {
            // Ablation: no background reclaimer exists; prefetch may only
            // use frames that happen to be free already.
            return self.frames.pop_free(now);
        }
        if self.frames.free_count() <= self.wm.low {
            self.kick_reclaim(now);
            // An idle reclaimer's first tick is due immediately; let it run
            // so the watermark reacts to prefetch pressure, not just faults.
            self.drain_events(now);
        }
        if self.frames.free_count() <= self.wm.low / 2 + 1 {
            return None;
        }
        self.frames.pop_free(now)
    }

    /// Claims a frame for a demand fault at time `t`, waiting if necessary.
    ///
    /// Returns `(frame, time_frame_held, direct_reclaim_ns)`. With eager
    /// background eviction the wait is almost always zero; the
    /// `direct_reclaim` ablation instead charges the reclaim to the handler.
    fn alloc_frame(&mut self, _core: usize, t: Ns) -> (u32, Ns, Ns) {
        if self.cfg.direct_reclaim {
            // Fastswap-style: reclaim inside the handler when low.
            let mut reclaim_ns = 0;
            if self.frames.free_count() == 0 {
                reclaim_ns = self.direct_reclaim_one(t);
            }
            let mut now = t;
            loop {
                if let Some(f) = self.frames.pop_free(now) {
                    return (f, now, reclaim_ns);
                }
                match self.frames.earliest_available() {
                    Some(avail) => now = now.max(avail),
                    None => {
                        reclaim_ns += self.direct_reclaim_one(now);
                    }
                }
            }
        }
        let mut now = t;
        let mut spins = 0u32;
        loop {
            self.drain_events(now);
            if self.frames.free_count() <= self.wm.low {
                self.kick_reclaim(now);
                // The tick may be due at `now` (idle reclaimer): run it.
                self.drain_events(now);
            }
            if let Some(f) = self.frames.pop_free(now) {
                return (f, now, 0);
            }
            // Free list empty at `now`: wait for whichever comes first — a
            // frame already committed to the free list becoming available,
            // or the next calendar event (reclaim tick, cleaner writeback,
            // prefetch landing) that can produce one.
            let mut next: Option<Ns> = None;
            if let Some(avail) = self.frames.earliest_available() {
                if avail > now {
                    next = Some(avail);
                }
            }
            if let Some(due) = self.m.cal.next_due() {
                if due > now {
                    next = Some(next.map_or(due, |n| n.min(due)));
                }
            }
            now = next.unwrap_or(now + 1);
            spins += 1;
            assert!(
                spins < 100_000,
                "local cache thrashing: no frame became reclaimable \
                 (local_pages={} resident={})",
                self.cfg.local_pages,
                self.pt.resident()
            );
        }
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

    // ------------------------------------------------------------------
    // Event calendar: the background half of the node (§4.3/§4.4).
    // ------------------------------------------------------------------

    /// A (pre)fetch completed at `t`: map the page into the unified page
    /// table at its true completion time (§4.3: "mapped immediately").
    ///
    /// The event may be stale — test hooks can drop the in-flight entry
    /// without cancelling, and a stale delivery must not touch a reused
    /// slot — so the entry is validated against the event's vpn first.
    fn on_prefetch_land(&mut self, t: Ns, vpn: u64, token: u32) {
        let Some(entry) = self.inflight.get(token as usize).copied().flatten() else {
            return;
        };
        if entry.vpn != vpn {
            return;
        }
        self.inflight[token as usize] = None;
        self.inflight_free.push(token);
        // The landing closes the span of the prefetch that started the
        // fetch, so the map/PTE events join its request tree.
        let prev_req = self.m.trace.set_request(entry.req);
        self.m.trace.emit(t, TraceEvent::PrefetchLand { vpn });
        // The payload is on the frame exactly at `t`; a core whose clock
        // lags behind the landing stalls until then (resolve's Local path).
        self.map_page(t, vpn, entry.frame, t);
        self.m.trace.set_request(prev_req);
    }

    /// Schedules the next reclaim tick if the watermark asks for one and no
    /// tick is already pending. The tick runs when the background core is
    /// next free — not "now", which is the lie the old single-instant
    /// reclaim episode told.
    fn kick_reclaim(&mut self, now: Ns) {
        if self.cfg.direct_reclaim || self.tick_pending {
            return;
        }
        self.tick_pending = true;
        let at = self.bg.next_free(now);
        self.m.cal.schedule(at, SchedEvent::ReclaimTick);
    }

    /// One reclaimer tick: scan for a victim, evict it, and chain the next
    /// tick — one victim per tick, each at the background core's true time,
    /// so an episode's evictions spread across virtual time instead of
    /// collapsing onto a single instant. The next tick is *returned*: the
    /// delivery loop runs it in place when nothing else is due first.
    fn on_reclaim_tick(&mut self, t: Ns) -> Option<(Ns, SchedEvent)> {
        self.tick_pending = false;
        // Target met? Frames whose cleaner writeback is in flight count:
        // they are already committed to return.
        if self.frames.free_count() + self.pending_clean >= self.wm.high {
            self.close_episode(t);
            return None;
        }
        let Some((vpn, frame, dirty, scan_end)) = self.pick_victim(t) else {
            // Nothing evictable this round (everything cold is in flight).
            self.close_episode(t);
            return None;
        };
        if !self.episode_open {
            self.episode_open = true;
            self.episode_freed = 0;
            self.m.trace.emit(
                t,
                TraceEvent::ReclaimBegin {
                    free: self.frames.free_count() as u32,
                },
            );
        }
        let _ = self.evict(vpn, frame, dirty, scan_end, ServiceClass::Cleaner);
        self.episode_freed += 1;
        self.tick_pending = true;
        Some((self.bg.next_free(scan_end), SchedEvent::ReclaimTick))
    }

    /// Emits `ReclaimEnd` for the open episode, if any.
    fn close_episode(&mut self, t: Ns) {
        if !self.episode_open {
            return;
        }
        self.episode_open = false;
        self.m.trace.emit(
            t,
            TraceEvent::ReclaimEnd {
                freed: self.episode_freed,
            },
        );
        self.episode_freed = 0;
    }

    /// Chooses the eviction victim: the least-recently-used resident frame
    /// whose payload is not in flight (§4.4's LRU list, exactly).
    fn pick_victim(&mut self, now: Ns) -> Option<(u64, u32, bool, Ns)> {
        let mut chosen: Option<u32> = None;
        let mut scan_end = now;
        for (i, key) in self.lru.iter_cold().enumerate() {
            if i >= 64 {
                break; // Everything cold is in flight: give up this round.
            }
            let frame = key as u32;
            let (_, t) = self.bg.acquire(now, self.cfg.costs.reclaim_scan_ns);
            scan_end = t;
            if self.frames.meta(frame).ready_at > scan_end {
                continue; // In-flight payload: not evictable yet.
            }
            chosen = Some(frame);
            break;
        }
        let frame = chosen?;
        let vpn = self.frames.meta(frame).vpn;
        let Pte::Local { dirty, .. } = self.pt.get(vpn) else {
            return None;
        };
        Some((vpn, frame, dirty, scan_end))
    }

    /// Fastswap-ablation direct reclaim: evict one page synchronously,
    /// returning the handler time consumed.
    fn direct_reclaim_one(&mut self, now: Ns) -> Ns {
        let bg0 = self.bg.busy_until().max(now);
        if let Some((vpn, frame, dirty, scan_end)) = self.pick_victim(now) {
            // Direct reclaim runs in the handler: it pays the scan *and*
            // waits for any writeback before the frame is reusable — the
            // cost Fastswap's Figure 1 "reclaim" bar charges.
            let avail = self.evict(vpn, frame, dirty, scan_end, ServiceClass::Cleaner);
            return avail
                .max(scan_end)
                .saturating_sub(bg0)
                .max(self.cfg.costs.reclaim_scan_ns);
        }
        self.cfg.costs.reclaim_scan_ns
    }

    /// Evicts `vpn` (writing back if dirty), freeing its frame. Returns
    /// when the frame becomes reusable (writeback completion).
    fn evict(&mut self, vpn: u64, frame: u32, dirty: bool, t: Ns, class: ServiceClass) -> Ns {
        // Each eviction is its own causal request (whether it runs on the
        // background reclaimer or as direct reclaim inside a fault).
        let prev_req = self.m.trace.begin_request();
        self.m.trace.emit(t, TraceEvent::Evict { vpn, dirty });
        if self.paging_guide.is_some() {
            self.m
                .trace
                .emit(t, TraceEvent::GuideInvoke { vpn, fetch: false });
        }
        // What survives the eviction: `None` is the whole page, `Some` only
        // the ranges the guide calls live (none at all for an empty page).
        let guide = self.paging_guide.as_ref();
        let live_ranges = guide.and_then(|g| match g.borrow().live_ranges(vpn << 12) {
            PageLiveness::Full => None,
            PageLiveness::Empty => Some(FetchVector::new()),
            PageLiveness::Partial(ranges) => Some(ranges),
        });
        let mut available_at = t;
        if dirty {
            available_at = self.flush_frame(t, class, vpn, frame, live_ranges.as_ref());
        }
        let new_pte = match live_ranges {
            None => Pte::Remote {
                slot: vpn - DDC_BASE_VPN,
            },
            Some(vector) => {
                // Log the live ranges so the later fetch is guided too (an
                // empty vector makes it a zero-fill).
                self.stats.guided_evictions += 1;
                Pte::Action {
                    action: self.actions.insert(vector),
                }
            }
        };

        self.m
            .trace
            .emit(t, TraceEvent::LruRemove { vpn: frame as u64 });
        self.lru.remove(frame as u64);
        self.set_pte(t, vpn, new_pte);
        if !self.cfg.direct_reclaim && available_at > t {
            // Background eviction with the writeback still on the wire: the
            // frame rejoins the free list when the cleaner's completion
            // event delivers, not before. Direct reclaim stays synchronous —
            // the handler pays for the wait, which is the point of that
            // ablation.
            self.pending_clean += 1;
            let cleaned = SchedEvent::CleanerWriteback { frame };
            self.m.cal.schedule(available_at, cleaned);
        } else {
            self.frames.push_free(frame, available_at);
        }
        self.stats.evictions += 1;
        self.m.trace.set_request(prev_req);
        available_at
    }

    /// Writes dirty `frame` back to `vpn`'s remote slot, posting at `t`: the
    /// whole page, or only the `ranges` a paging guide reports live (none
    /// at all for an empty page — nothing on the wire). Returns when the
    /// write-back completes.
    fn flush_frame(
        &mut self,
        t: Ns,
        class: ServiceClass,
        vpn: u64,
        frame: u32,
        ranges: Option<&FetchVector>,
    ) -> Ns {
        let remote = (vpn - DDC_BASE_VPN) << 12;
        let buf = self.frames.bytes(frame);
        let posted = match ranges {
            // The store shares the frame's image, not a copy of it.
            None => {
                let page = self.frames.page(frame);
                self.rdma.write_page(t, 0, class, remote, page)
            }
            Some(ranges) => {
                self.stats.writeback_bytes_saved += (PAGE_SIZE - ranges.live_bytes()) as u64;
                if ranges.is_empty() {
                    return t;
                }
                let mut segs = std::mem::take(&mut self.seg_buf);
                segs.clear();
                segs.extend(ranges.iter().map(|&range| page_segment(remote, range)));
                let r = self.rdma.write_v(t, 0, class, &segs, buf);
                self.seg_buf = segs;
                r
            }
        };
        self.stats.writebacks += 1;
        // Dropping a dirty writeback would silently lose the application's
        // stores; fatal by design.
        #[expect(clippy::expect_used, reason = "a lost dirty writeback corrupts data")]
        posted.expect("writeback failed: all replicas of the page are down")
    }

    /// Page-table residency (for tests/diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pt.resident()
    }

    /// Raw PTE inspection (tests/diagnostics).
    pub fn pte_of(&self, va: u64) -> Pte {
        self.pt.get(va >> 12)
    }

    /// Fault injection for auditor tests: returns an allocated frame to the
    /// free list twice. A healthy run can never double-free, so the auditor
    /// must flag the second return.
    #[cfg(test)]
    fn inject_double_frame_free(&mut self) {
        let t = self.m.max_now();
        let frame = self.frames.pop_free(t).expect("a free frame to corrupt");
        self.frames.push_free(frame, t);
        self.frames.push_free(frame, t);
    }

    /// Fault injection for auditor tests: silently drops one in-flight fetch
    /// so its traced `PrefetchIssue` never lands or cancels. Returns `false`
    /// when nothing was in flight.
    #[cfg(test)]
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
        g.set_gauge("link_busy_ns", ep.fabric().link_busy());
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

/// [`GuideOps`] implementation bridging guides to the node.
struct NodeGuideOps<'a> {
    node: &'a mut Dilos,
    core: usize,
    now: Ns,
}

impl GuideOps for NodeGuideOps<'_> {
    fn subpage_read(&mut self, va: u64, buf: &mut [u8]) -> Option<(usize, Ns)> {
        let vpn = va >> 12;
        if vpn < DDC_BASE_VPN || ((vpn - DDC_BASE_VPN) << 12) >= self.node.cfg.remote_bytes {
            return None;
        }
        // Subpage reads never cross the page boundary: with a sharded pool
        // the next page may live on a different memory node.
        let off = (va & 0xFFF) as usize;
        let n = buf.len().min(PAGE_SIZE - off);
        let data = &mut buf[..n];
        // Resident pages are read directly (no wire traffic).
        if let Pte::Local { frame, .. } = self.node.pt.get(vpn) {
            data.copy_from_slice(&self.node.frames.bytes(frame)[off..off + n]);
            return Some((n, self.now));
        }
        let remote = va - DDC_BASE;
        let done = self
            .node
            .rdma
            .read(self.now, self.core, ServiceClass::Guide, remote, data)
            .ok()?;
        self.node.stats.subpage_fetches += 1;
        // The guide's decision logic runs when the subpage lands.
        self.now = self.now.max(done);
        Some((n, done))
    }

    fn prefetch_page(&mut self, va: u64) {
        let t = self.now;
        self.node.prefetch_vpn(self.core, va >> 12, t);
    }

    fn now(&self) -> Ns {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::Readahead;

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
