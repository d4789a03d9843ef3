//! The seven workloads and their load generators.
//!
//! Every workload is two steps. `boot` builds a fresh system from the seed,
//! populates it and runs one untimed warm-up pass, so the modelled local
//! cache is full and reclaim is in steady state before anything is
//! counted. `run` is the timed region: a fixed amount of work whose every
//! virtual-clock result repeats exactly for one seed. `check` then does
//! whatever verification would not belong inside a timed region.
//!
//! The generators draw only from [`SplitMix64`] streams derived from the
//! seed; the systems under test receive generated inputs and nothing else.

use std::cell::RefCell;
use std::rc::Rc;

use dilos_alloc::Heap;
use dilos_apps::farmem::{FarArray, FarMemory};
use dilos_apps::quicksort::QuicksortWorkload;
use dilos_apps::redis::{RedisGuide, RedisServer};
use dilos_baselines::{Fastswap, FastswapConfig};
use dilos_core::{
    ClusterConfig, Dilos, DilosConfig, HeapPagingGuide, Readahead, ServingCluster, TenantSpec,
};
use dilos_sim::{Ns, Observability, RdmaEndpoint, ServiceClass, SplitMix64};

use crate::capture::Instr;
use crate::quant::{fold, LatHist, FOLD_SEED};
use crate::spans::Probe;

const PAGE: u64 = 4096;

/// Workload sizes. [`Scale::FULL`] is what the benchmark measures; tests
/// use a tiny one.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub seq_pages: u64,
    pub seq_passes: u32,
    pub fastswap_passes: u32,
    pub rand_pages: u64,
    pub rand_ops: usize,
    pub sort_elements: usize,
    pub kv_keys: usize,
    pub kv_gets: usize,
    pub victim_requests: usize,
    pub noisy_requests: usize,
    pub victim_pages: u64,
    pub noisy_pages: u64,
    pub scan_pages: u64,
    pub quota_frames: usize,
}

impl Scale {
    /// Sized so one instance (boot + timed region) takes about a second of
    /// on-CPU time on a 2-core sandbox, which fits eight or more instances
    /// into one run; every workload retires well over 10 000 requests.
    pub const FULL: Scale = Scale {
        seq_pages: 16_384,
        seq_passes: 64,
        fastswap_passes: 64,
        rand_pages: 16_384,
        rand_ops: 400_000,
        sort_elements: 1 << 19,
        kv_keys: 40_000,
        kv_gets: 60_000,
        victim_requests: 100_000,
        noisy_requests: 7_500,
        victim_pages: 384,
        noisy_pages: 2_048,
        scan_pages: 256,
        quota_frames: 256,
    };

    #[cfg(test)]
    pub const TINY: Scale = Scale {
        seq_pages: 256,
        seq_passes: 3,
        fastswap_passes: 3,
        rand_pages: 256,
        rand_ops: 3_000,
        sort_elements: 1 << 15,
        kv_keys: 600,
        kv_gets: 900,
        victim_requests: 120,
        noisy_requests: 20,
        victim_pages: 96,
        noisy_pages: 256,
        scan_pages: 32,
        quota_frames: 64,
    };
}

/// Monotone counters of one system (or summed over a cluster's tenants).
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub major: u64,
    pub minor: u64,
    pub evictions: u64,
    pub writebacks: u64,
    pub prefetch_issued: u64,
    pub prefetch_hits: u64,
    pub guide_invokes: u64,
    pub guide_bytes_saved: u64,
    pub rdma_reads: u64,
    pub rdma_writes: u64,
    pub net_bytes: u64,
    pub link_busy_ns: u64,
    pub trace_events: u64,
}

impl Counts {
    /// Applies `f` field by field.
    fn zip(self, o: Counts, f: fn(u64, u64) -> u64) -> Counts {
        Counts {
            major: f(self.major, o.major),
            minor: f(self.minor, o.minor),
            evictions: f(self.evictions, o.evictions),
            writebacks: f(self.writebacks, o.writebacks),
            prefetch_issued: f(self.prefetch_issued, o.prefetch_issued),
            prefetch_hits: f(self.prefetch_hits, o.prefetch_hits),
            guide_invokes: f(self.guide_invokes, o.guide_invokes),
            guide_bytes_saved: f(self.guide_bytes_saved, o.guide_bytes_saved),
            rdma_reads: f(self.rdma_reads, o.rdma_reads),
            rdma_writes: f(self.rdma_writes, o.rdma_writes),
            net_bytes: f(self.net_bytes, o.net_bytes),
            link_busy_ns: f(self.link_busy_ns, o.link_busy_ns),
            trace_events: f(self.trace_events, o.trace_events),
        }
    }

    fn since(self, earlier: Counts) -> Counts {
        self.zip(earlier, |now, then| now - then)
    }

    fn plus(self, o: Counts) -> Counts {
        self.zip(o, |a, b| a + b)
    }
}

/// `(reads, writes, wire bytes, link-busy ns)` an endpoint has counted.
pub fn endpoint_counts(ep: &RdmaEndpoint) -> (u64, u64, u64, u64) {
    let (mut reads, mut writes) = (0, 0);
    for class in ServiceClass::ALL {
        let ops = ep.ops(class);
        reads += ops.reads;
        writes += ops.writes;
    }
    let (tx, rx) = ep.total_bytes();
    (reads, writes, tx + rx, ep.fabric().link_busy())
}

fn dilos_counts(node: &Dilos, with_endpoint: bool) -> Counts {
    let s = node.stats();
    let mut c = Counts {
        major: s.major_faults,
        minor: s.minor_faults,
        evictions: s.evictions,
        writebacks: s.writebacks,
        prefetch_issued: s.prefetch_issued,
        prefetch_hits: s.prefetch_hits,
        guide_invokes: s.guided_evictions + s.guided_fetches + s.subpage_fetches,
        guide_bytes_saved: s.writeback_bytes_saved + s.fetch_bytes_saved,
        trace_events: node.trace().count(),
        ..Counts::default()
    };
    if with_endpoint {
        (c.rdma_reads, c.rdma_writes, c.net_bytes, c.link_busy_ns) = endpoint_counts(&node.rdma());
    }
    c
}

/// A paper figure the model can be held against.
#[derive(Clone, Copy, Debug)]
pub struct PaperRef {
    pub what: &'static str,
    pub unit: &'static str,
    pub model: f64,
    pub paper: f64,
}

/// What one timed region produced. Everything here except `failed` is a
/// virtual-clock quantity or an exact count.
pub struct Outcome {
    pub ops: u64,
    pub failed: u64,
    pub makespan_ns: Ns,
    pub lat: LatHist,
    pub counts: Counts,
    /// Fold of the trace digests of natively traced systems (0 if none).
    pub digest: u64,
    pub paper: Option<PaperRef>,
}

impl Outcome {
    pub fn faults(&self) -> u64 {
        self.counts.major + self.counts.minor
    }

    /// Fold of every simulated statistic of the timed region. The digest
    /// is included only where the workload is traced by definition, so an
    /// instance lit up for the layers run still fingerprints the same.
    pub fn fingerprint(&self, with_digest: bool) -> u64 {
        let c = &self.counts;
        let mut h = FOLD_SEED;
        for w in [
            self.ops,
            self.makespan_ns,
            c.major,
            c.minor,
            c.evictions,
            c.writebacks,
            c.net_bytes,
        ] {
            h = fold(h, w);
        }
        h = self.lat.fold_into(h);
        if with_digest {
            h = fold(h, self.digest);
        }
        h
    }
}

/// Read-only handle on a finished instance, for the replays.
pub struct View<'a> {
    pub endpoint: EndpointRef<'a>,
    /// Frames of the (largest) local cache.
    pub local_frames: usize,
    /// Remote slices `(base, bytes, bandwidth share)`, one per tenant.
    pub tenants: Vec<(u64, u64, u32)>,
    pub heap: Option<Rc<RefCell<Heap>>>,
    pub fastswap: bool,
}

pub enum EndpointRef<'a> {
    Plain(&'a RdmaEndpoint),
    Cell(std::cell::Ref<'a, RdmaEndpoint>),
}

impl std::ops::Deref for EndpointRef<'_> {
    type Target = RdmaEndpoint;
    fn deref(&self) -> &RdmaEndpoint {
        match self {
            EndpointRef::Plain(ep) => ep,
            EndpointRef::Cell(ep) => ep,
        }
    }
}

pub trait Workload {
    /// The timed region.
    fn run(&mut self, probe: &mut Probe) -> Outcome;
    /// Untimed verification after the timed region; adds to `out.failed`
    /// and settles `out.digest`.
    fn check(&mut self, out: &mut Outcome);
    fn view(&self) -> View<'_>;
}

/// Whether the workload's own definition boots (some of) its systems with
/// tracing on.
pub fn natively_traced(name: &str) -> bool {
    matches!(name, "seq_fault_traced" | "fastswap_seq" | "serve_qos")
}

pub fn boot(name: &str, seed: u64, scale: &Scale, instr: &Instr) -> Box<dyn Workload> {
    match name {
        "seq_fault" => Box::new(SeqFault::boot(seed, scale, instr, SeqKind::Dilos)),
        "seq_fault_traced" => Box::new(SeqFault::boot(seed, scale, instr, SeqKind::DilosTraced)),
        "fastswap_seq" => Box::new(SeqFault::boot(seed, scale, instr, SeqKind::Fastswap)),
        "rand_rw" => Box::new(RandRw::boot(seed, scale, instr)),
        "sort_hit" => Box::new(SortHit::boot(seed, scale, instr)),
        "kv_guided" => Box::new(KvGuided::boot(seed, scale, instr)),
        "serve_qos" => Box::new(ServeQos::boot(seed, scale, instr)),
        other => panic!("unknown workload {other}"),
    }
}

/// Local cache of `percent` of `pages`, remote region with headroom — the
/// sizing rule the paper's sweeps (and `repro`) use.
fn sizing(pages: u64, percent: u64) -> (usize, u64) {
    let local = (pages * percent / 100).max(32) as usize;
    let remote = (pages * PAGE * 2).next_power_of_two().max(1 << 24);
    (local, remote)
}

fn boot_dilos(local_pages: usize, remote_bytes: u64, obs: Observability) -> Dilos {
    let mut node = Dilos::new(DilosConfig {
        local_pages,
        remote_bytes,
        obs,
        ..DilosConfig::default()
    });
    node.set_prefetcher(Box::new(Readahead::new()));
    node
}

// ---------------------------------------------------------------------
// seq_fault, seq_fault_traced, fastswap_seq
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum SeqKind {
    Dilos,
    DilosTraced,
    Fastswap,
}

enum SeqSys {
    Dilos(Box<Dilos>),
    Fastswap(Box<Fastswap>),
}

impl SeqSys {
    fn mem(&mut self) -> &mut dyn FarMemory {
        match self {
            SeqSys::Dilos(n) => n.as_mut(),
            SeqSys::Fastswap(n) => n.as_mut(),
        }
    }

    fn counts(&self) -> Counts {
        match self {
            SeqSys::Dilos(n) => dilos_counts(n, true),
            SeqSys::Fastswap(n) => {
                let s = n.stats();
                let (rdma_reads, rdma_writes, net_bytes, link_busy_ns) = endpoint_counts(n.rdma());
                Counts {
                    major: s.major_faults,
                    minor: s.minor_faults,
                    evictions: s.evictions,
                    writebacks: s.writebacks,
                    prefetch_issued: s.readahead_pages,
                    rdma_reads,
                    rdma_writes,
                    net_bytes,
                    link_busy_ns,
                    trace_events: n.trace().count(),
                    ..Counts::default()
                }
            }
        }
    }
}

/// Sequential 8-byte reads at 4 KiB strides over a sparse region (paper
/// Table 2 / Tables 1 & 3 shape). Each pass covers every page once,
/// starting at a page the seed picks, and verifies each page's stamp.
struct SeqFault {
    kind: SeqKind,
    sys: SeqSys,
    base: u64,
    pages: u64,
    key: u64,
    /// First page of each timed pass.
    starts: Vec<u64>,
    local_frames: usize,
}

impl SeqFault {
    fn stamp(key: u64, page: u64) -> u64 {
        (page + 1).wrapping_mul(key) | 1
    }

    fn boot(seed: u64, scale: &Scale, instr: &Instr, kind: SeqKind) -> Self {
        let pages = scale.seq_pages;
        let (local, remote) = sizing(pages, 13);
        let passes = if kind == SeqKind::Fastswap {
            scale.fastswap_passes
        } else {
            scale.seq_passes
        };
        // Fastswap is traced as `repro --only tab01` boots it.
        let obs = instr.bundle(kind != SeqKind::Dilos, 0);
        let mut sys = match kind {
            SeqKind::Fastswap => SeqSys::Fastswap(Box::new(Fastswap::new(FastswapConfig {
                local_pages: local,
                remote_bytes: remote,
                obs,
                ..FastswapConfig::default()
            }))),
            _ => SeqSys::Dilos(Box::new(boot_dilos(local, remote, obs))),
        };
        let mut rng = SplitMix64::new(seed ^ 0x5E0F_A017);
        let key = rng.next_u64() | 1;
        let mem = sys.mem();
        let base = mem.alloc((pages * PAGE) as usize);
        for p in 0..pages {
            mem.write_u64(0, base + p * PAGE, Self::stamp(key, p));
        }
        // Warm-up: one full pass, so the timed passes start from the
        // steady state a cyclic scan settles into.
        for p in 0..pages {
            mem.read_u64(0, base + p * PAGE);
        }
        let starts = (0..passes).map(|_| rng.gen_range(pages)).collect();
        Self {
            kind,
            sys,
            base,
            pages,
            key,
            starts,
            local_frames: local,
        }
    }
}

impl Workload for SeqFault {
    fn run(&mut self, probe: &mut Probe) -> Outcome {
        let c0 = self.sys.counts();
        let (base, pages, key) = (self.base, self.pages, self.key);
        let mut lat = LatHist::default();
        let mut failed = 0u64;
        let t0 = self.sys.mem().max_now();
        probe.with_mem(self.sys.mem(), |mem, ticker| {
            for &start in &self.starts {
                for i in 0..pages {
                    let p = (start + i) % pages;
                    let q0 = mem.now(0);
                    let v = mem.read_u64(0, base + p * PAGE);
                    lat.record(mem.now(0) - q0);
                    failed += u64::from(v != Self::stamp(key, p));
                }
                ticker.tick();
            }
        });
        let makespan_ns = self.sys.mem().max_now() - t0;
        let passes = self.starts.len() as u64;
        // Table 2 reports GB/s of the populated region per pass.
        let gbps = (pages * PAGE * passes) as f64 / makespan_ns as f64;
        Outcome {
            ops: pages * passes,
            failed,
            makespan_ns,
            lat,
            counts: self.sys.counts().since(c0),
            digest: 0,
            paper: Some(PaperRef {
                what: "sequential read throughput (Table 2)",
                unit: "GB/s",
                model: gbps,
                paper: if self.kind == SeqKind::Fastswap {
                    0.98
                } else {
                    3.74
                },
            }),
        }
    }

    fn check(&mut self, out: &mut Outcome) {
        out.digest = self.sys.mem().trace_digest();
    }

    fn view(&self) -> View<'_> {
        let (endpoint, remote) = match &self.sys {
            SeqSys::Dilos(n) => (EndpointRef::Cell(n.rdma()), n.config().remote_bytes),
            SeqSys::Fastswap(n) => (EndpointRef::Plain(n.rdma()), sizing(self.pages, 13).1),
        };
        View {
            endpoint,
            local_frames: self.local_frames,
            tenants: vec![(0, remote, 1)],
            heap: None,
            fastswap: self.kind == SeqKind::Fastswap,
        }
    }
}

// ---------------------------------------------------------------------
// rand_rw
// ---------------------------------------------------------------------

/// Uniform random 8-byte accesses, 30 % writes, over pages whose every
/// byte is non-zero, checked against a flat reference memory.
struct RandRw {
    node: Box<Dilos>,
    base: u64,
    /// The flat reference memory: what the region must hold.
    reference: Vec<u8>,
    /// `(byte offset, value, is_write)` for the timed region.
    ops: Vec<(u64, u64, bool)>,
    /// Values the timed reads returned, in order.
    got: Vec<u64>,
    local_frames: usize,
}

/// Requests per timed segment where a workload has no coarser natural
/// unit (about ten milliseconds of work).
const SEGMENT_OPS: usize = 1024;

/// Forces every byte of `v` non-zero (keeps pages fully live).
fn dense(v: u64) -> u64 {
    v | 0x0101_0101_0101_0101
}

impl RandRw {
    fn boot(seed: u64, scale: &Scale, instr: &Instr) -> Self {
        let pages = scale.rand_pages;
        let (local, remote) = sizing(pages, 13);
        let mut node = Box::new(boot_dilos(local, remote, instr.bundle(false, 0)));
        let mut rng = SplitMix64::new(seed ^ 0x7A2D_0BB1);
        let base = node.ddc_alloc((pages * PAGE) as usize);
        let mut reference = vec![0u8; (pages * PAGE) as usize];
        for w in reference.chunks_exact_mut(8) {
            w.copy_from_slice(&dense(rng.next_u64()).to_le_bytes());
        }
        for (p, page) in reference.chunks_exact(PAGE as usize).enumerate() {
            node.write(0, base + p as u64 * PAGE, page);
        }
        let words = pages * PAGE / 8;
        // Warm-up: enough random reads to turn the cache over twice.
        for _ in 0..2 * local {
            node.read_u64(0, base + rng.gen_range(words) * 8);
        }
        let ops = (0..scale.rand_ops)
            .map(|_| {
                let off = rng.gen_range(words) * 8;
                let write = rng.gen_range(10) < 3;
                (off, dense(rng.next_u64()), write)
            })
            .collect();
        Self {
            node,
            base,
            reference,
            ops,
            got: Vec::with_capacity(scale.rand_ops),
            local_frames: local,
        }
    }
}

impl Workload for RandRw {
    fn run(&mut self, probe: &mut Probe) -> Outcome {
        let c0 = dilos_counts(&self.node, true);
        let t0 = self.node.max_now();
        let mut lat = LatHist::default();
        let (base, ops, got) = (self.base, &self.ops, &mut self.got);
        probe.with_mem(self.node.as_mut(), |mem, ticker| {
            for chunk in ops.chunks(SEGMENT_OPS) {
                for &(off, val, write) in chunk {
                    let q0 = mem.now(0);
                    if write {
                        mem.write_u64(0, base + off, val);
                    } else {
                        got.push(mem.read_u64(0, base + off));
                    }
                    lat.record(mem.now(0) - q0);
                }
                ticker.tick();
            }
        });
        Outcome {
            ops: self.ops.len() as u64,
            failed: 0,
            makespan_ns: self.node.max_now() - t0,
            lat,
            counts: dilos_counts(&self.node, true).since(c0),
            digest: 0,
            paper: None,
        }
    }

    fn check(&mut self, out: &mut Outcome) {
        // Replay the same operations on the flat reference: every read
        // must have returned what the reference held at that point.
        let mut reads = self.got.iter();
        for &(off, val, write) in &self.ops {
            let cell = &mut self.reference[off as usize..off as usize + 8];
            if write {
                cell.copy_from_slice(&val.to_le_bytes());
            } else {
                let want = u64::from_le_bytes((&*cell).try_into().expect("8-byte cell"));
                out.failed += u64::from(reads.next() != Some(&want));
            }
        }
        // And the region as a whole must now equal the reference (spot
        // check: one word per page keeps the check cheap).
        for p in 0..self.reference.len() as u64 / PAGE {
            let off = (p * PAGE + (p % 512) * 8) as usize;
            let want = u64::from_le_bytes(
                self.reference[off..off + 8]
                    .try_into()
                    .expect("8-byte cell"),
            );
            out.failed += u64::from(self.node.read_u64(0, self.base + off as u64) != want);
        }
        out.digest = self.node.trace_digest();
    }

    fn view(&self) -> View<'_> {
        View {
            endpoint: EndpointRef::Cell(self.node.rdma()),
            local_frames: self.local_frames,
            tenants: vec![(0, self.node.config().remote_bytes, 1)],
            heap: None,
            fastswap: false,
        }
    }
}

// ---------------------------------------------------------------------
// sort_hit
// ---------------------------------------------------------------------

/// `apps::quicksort` at 25 % local: nearly every call is a hit.
struct SortHit {
    node: Box<Dilos>,
    wl: QuicksortWorkload,
    arr: FarArray,
    local_frames: usize,
}

impl SortHit {
    fn boot(seed: u64, scale: &Scale, instr: &Instr) -> Self {
        let pages = (scale.sort_elements as u64 * 8).div_ceil(PAGE);
        let (local, remote) = sizing(pages, 25);
        let mut node = Box::new(boot_dilos(local, remote, instr.bundle(false, 0)));
        let wl = QuicksortWorkload {
            elements: scale.sort_elements,
            seed,
        };
        let arr = wl.populate(node.as_mut());
        // Warm-up: one read per page, front to back.
        for i in (0..arr.len()).step_by(512) {
            arr.get(node.as_mut(), 0, i);
        }
        Self {
            node,
            wl,
            arr,
            local_frames: local,
        }
    }
}

impl Workload for SortHit {
    fn run(&mut self, probe: &mut Probe) -> Outcome {
        let c0 = dilos_counts(&self.node, true);
        let t0 = self.node.max_now();
        let (wl, arr) = (self.wl, self.arr);
        // The sort runs inside `dilos-apps`, so it is one segment.
        probe.with_mem(self.node.as_mut(), |mem, _| wl.sort(mem, arr));
        // A request is one data-path call; the calls are counted, and
        // their virtual latencies recorded, by the span wrapper of the
        // census instance (see `driver.rs`) — the sort itself cannot tell.
        let (ops, lat) = match &probe.spans {
            Some(s) => (s.calls(), s.virt.clone()),
            None => (0, LatHist::default()),
        };
        Outcome {
            ops,
            failed: 0,
            makespan_ns: self.node.max_now() - t0,
            lat,
            counts: dilos_counts(&self.node, true).since(c0),
            digest: 0,
            paper: None,
        }
    }

    fn check(&mut self, out: &mut Outcome) {
        if !self.wl.verify(self.node.as_mut(), self.arr) {
            out.failed = out.ops.max(1);
        }
        out.digest = self.node.trace_digest();
    }

    fn view(&self) -> View<'_> {
        View {
            endpoint: EndpointRef::Cell(self.node.rdma()),
            local_frames: self.local_frames,
            tenants: vec![(0, self.node.config().remote_bytes, 1)],
            heap: None,
            fastswap: false,
        }
    }
}

// ---------------------------------------------------------------------
// kv_guided
// ---------------------------------------------------------------------

const KV_VALUE: usize = 128;

/// The Redis-like store with the app-aware prefetch guide and guided
/// paging on (paper Fig. 12 shape): DEL a random 70 %, then GET survivors.
struct KvGuided {
    node: Box<Dilos>,
    server: RedisServer,
    heap: Rc<RefCell<Heap>>,
    keys: Vec<Vec<u8>>,
    /// Indices deleted in the timed region, then indices fetched.
    dels: Vec<usize>,
    gets: Vec<usize>,
    local_frames: usize,
}

fn kv_stamp(i: usize) -> u8 {
    (i % 251) as u8 + 1
}

impl KvGuided {
    fn boot(seed: u64, scale: &Scale, instr: &Instr) -> Self {
        let n = scale.kv_keys;
        // Sizing as `repro --only fig12`: 160 B per key of working set,
        // a heap four times that, local memory a quarter of it.
        let ws = n as u64 * 160;
        let heap_bytes = (ws * 4).next_power_of_two().max(1 << 22);
        let local = (ws.div_ceil(PAGE) * 25 / 100).max(32) as usize;
        let remote = (heap_bytes * 2).next_power_of_two().max(1 << 24);
        let mut node = Box::new(boot_dilos(local, remote, instr.bundle(false, 0)));
        let base = node.ddc_alloc(heap_bytes as usize);
        let heap = Rc::new(RefCell::new(Heap::new(base, heap_bytes)));
        let guide = Rc::new(RefCell::new(RedisGuide::new()));
        node.set_prefetch_guide(guide.clone());
        node.set_paging_guide(Rc::new(RefCell::new(HeapPagingGuide::new(
            Rc::clone(&heap),
            3,
        ))));
        let mut server = RedisServer::new(Rc::clone(&heap), node.as_mut(), 8192);
        server.attach_guide(guide);

        let keys: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("key:{i:010}").into_bytes())
            .collect();
        let mut value = [0u8; KV_VALUE];
        for (i, key) in keys.iter().enumerate() {
            value.fill(kv_stamp(i));
            server.set(node.as_mut(), 0, key, &value);
        }
        let mut rng = SplitMix64::new(seed ^ 0x0C0F_FEE5);
        // Warm-up: a GET pass over a random tenth of the keyspace.
        for _ in 0..n / 10 {
            let i = rng.gen_range(n as u64) as usize;
            server.get(node.as_mut(), 0, &keys[i]);
        }
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let survivors = order.split_off(n * 70 / 100);
        let gets = (0..scale.kv_gets)
            .map(|_| survivors[rng.gen_range(survivors.len() as u64) as usize])
            .collect();
        Self {
            node,
            server,
            heap,
            keys,
            dels: order,
            gets,
            local_frames: local,
        }
    }
}

impl Workload for KvGuided {
    fn run(&mut self, probe: &mut Probe) -> Outcome {
        let c0 = dilos_counts(&self.node, true);
        let t0 = self.node.max_now();
        let mut lat = LatHist::default();
        let mut failed = 0u64;
        let (server, keys, dels, gets) = (&mut self.server, &self.keys, &self.dels, &self.gets);
        let node = &mut self.node;
        // The DEL phase's counters are read between the phases, outside
        // the wrapper, so both phases run under one `with_mem`.
        let mut run_phase = |probe: &mut Probe, node: &mut Dilos, del: bool| {
            probe.with_mem(node, |mem, ticker| {
                for chunk in if del { dels } else { gets }.chunks(SEGMENT_OPS / 4) {
                    for &i in chunk {
                        let q0 = mem.now(0);
                        let ok = if del {
                            server.del(mem, 0, &keys[i])
                        } else {
                            server.get(mem, 0, &keys[i]).is_some_and(|v| {
                                v.len() == KV_VALUE && v.iter().all(|&b| b == kv_stamp(i))
                            })
                        };
                        lat.record(mem.now(0) - q0);
                        failed += u64::from(!ok);
                    }
                    ticker.tick();
                }
            });
        };
        run_phase(probe, node, true);
        let mid = dilos_counts(node, true);
        run_phase(probe, node, false);
        let end = dilos_counts(node, true);
        let get_phase = end.since(mid);
        // Fig. 12: share of GET-phase traffic guided paging avoided.
        let saved = get_phase.guide_bytes_saved as f64;
        let saved_pct = 100.0 * saved / (saved + get_phase.net_bytes as f64).max(1.0);
        Outcome {
            ops: (dels.len() + gets.len()) as u64,
            failed,
            makespan_ns: node.max_now() - t0,
            lat,
            counts: end.since(c0),
            digest: 0,
            paper: Some(PaperRef {
                what: "GET traffic saved by guided paging (Fig. 12)",
                unit: "%",
                model: saved_pct,
                paper: 29.0,
            }),
        }
    }

    fn check(&mut self, out: &mut Outcome) {
        // Deleted keys must be gone; the keyspace must be what survived.
        for &i in self.dels.iter().step_by(16) {
            let gone = self
                .server
                .get(self.node.as_mut(), 0, &self.keys[i])
                .is_none();
            out.failed += u64::from(!gone);
        }
        if self.server.dbsize() != self.keys.len() - self.dels.len() {
            out.failed += 1;
        }
        out.digest = self.node.trace_digest();
    }

    fn view(&self) -> View<'_> {
        View {
            endpoint: EndpointRef::Cell(self.node.rdma()),
            local_frames: self.local_frames,
            tenants: vec![(0, self.node.config().remote_bytes, 1)],
            heap: Some(Rc::clone(&self.heap)),
            fastswap: false,
        }
    }
}

// ---------------------------------------------------------------------
// serve_qos
// ---------------------------------------------------------------------

const VICTIM_MEAN_NS: f64 = 50_000.0;
const VICTIM_REMOTE: u64 = 1 << 24;
const NOISY_REMOTE: u64 = 1 << 25;

/// Three tenants on one pool with QoS on (shares 4:4:1): two open-loop
/// victims doing point reads, one closed-loop scanner.
struct ServeQos {
    cluster: ServingCluster,
    tenants: Vec<Tenant>,
    quota: usize,
}

struct Tenant {
    base: u64,
    pages: u64,
    key: u64,
    rng: SplitMix64,
    /// `Some(mean gap)` = open loop; `None` = closed loop, no think time.
    open: bool,
    requests: usize,
    done: usize,
    next_arrival: Ns,
    cursor: u64,
    scan: u64,
}

impl ServeQos {
    fn boot(seed: u64, scale: &Scale, instr: &Instr) -> Self {
        let victim = |tenant: u8| TenantSpec {
            local_quota: scale.quota_frames,
            local_demand: scale.quota_frames,
            remote_bytes: VICTIM_REMOTE,
            bandwidth_share: 4,
            cores: 1,
            obs: instr.bundle(true, tenant),
        };
        let noisy = TenantSpec {
            local_quota: scale.quota_frames,
            local_demand: scale.noisy_pages as usize,
            remote_bytes: NOISY_REMOTE,
            bandwidth_share: 1,
            cores: 1,
            obs: instr.bundle(false, 2),
        };
        let mut cluster = ServingCluster::boot(ClusterConfig {
            qos: true,
            tenants: vec![victim(0), victim(1), noisy],
            ..ClusterConfig::default()
        });
        let mut root = SplitMix64::new(seed ^ 0x5E21_E005);
        let mut tenants = Vec::new();
        for id in 0..3 {
            let open = id < 2;
            let pages = if open {
                scale.victim_pages
            } else {
                scale.noisy_pages
            };
            let mut rng = root.split();
            let key = rng.next_u64();
            let node = cluster.tenant(id);
            let base = node.ddc_alloc((pages * PAGE) as usize);
            for p in 0..pages {
                node.write_u64(0, base + p * PAGE, p ^ key);
            }
            // Warm-up: one read pass over the working set.
            for p in 0..pages {
                node.read_u64(0, base + p * PAGE);
            }
            tenants.push(Tenant {
                base,
                pages,
                key,
                rng,
                open,
                requests: if open {
                    scale.victim_requests
                } else {
                    scale.noisy_requests
                },
                done: 0,
                next_arrival: 0,
                cursor: 0,
                scan: scale.scan_pages,
            });
        }
        Self {
            cluster,
            tenants,
            quota: scale.quota_frames,
        }
    }

    fn counts(&self) -> Counts {
        let mut c = (0..self.cluster.len())
            .map(|i| dilos_counts(self.cluster.tenant_ref(i), false))
            .fold(Counts::default(), Counts::plus);
        (c.rdma_reads, c.rdma_writes, c.net_bytes, c.link_busy_ns) =
            endpoint_counts(&self.cluster.pool().endpoint());
        c
    }
}

/// Exponential inter-arrival gap on the virtual clock, at least 1 ns.
fn exp_gap(rng: &mut SplitMix64) -> Ns {
    ((-(1.0 - rng.gen_f64()).ln() * VICTIM_MEAN_NS) as Ns).max(1)
}

impl Workload for ServeQos {
    fn run(&mut self, probe: &mut Probe) -> Outcome {
        let c0 = self.counts();
        let starts: Vec<Ns> = (0..3)
            .map(|i| self.cluster.tenant_ref(i).max_now())
            .collect();
        for (t, &now) in self.tenants.iter_mut().zip(&starts) {
            t.next_arrival = if t.open {
                now + exp_gap(&mut t.rng)
            } else {
                now
            };
        }
        let mut lat = LatHist::default();
        let (mut failed, mut served) = (0u64, 0usize);
        // Earliest-start loop: serve the tenant whose next request can
        // start soonest (arrival or its own clock, whichever is later),
        // ties to the lower id, so contention on the shared wire resolves
        // the same way every run.
        loop {
            let mut pick: Option<(Ns, usize)> = None;
            for (id, t) in self.tenants.iter().enumerate() {
                if t.done < t.requests {
                    let start = t.next_arrival.max(self.cluster.tenant_ref(id).max_now());
                    if pick.is_none_or(|(best, _)| start < best) {
                        pick = Some((start, id));
                    }
                }
            }
            let Some((_, id)) = pick else { break };
            let t = &mut self.tenants[id];
            let arrival = t.next_arrival;
            let node = self.cluster.tenant(id);
            let now = node.now(0);
            if arrival > now {
                node.compute(0, arrival - now);
            }
            let completion = probe.with_mem(node, |mem, _| {
                if t.open {
                    for _ in 0..2 {
                        let p = t.rng.gen_range(t.pages);
                        let v = mem.read_u64(0, t.base + p * PAGE);
                        failed += u64::from(v != p ^ t.key);
                    }
                } else {
                    // Scan lengths vary ±25 % around `scan` with the seed.
                    for _ in 0..t.scan * 3 / 4 + t.rng.gen_range(t.scan / 2 + 1) {
                        let p = t.cursor;
                        let v = mem.read_u64(0, t.base + p * PAGE);
                        failed += u64::from(v != p ^ t.key);
                        t.cursor = (t.cursor + 1) % t.pages;
                    }
                }
                mem.now(0)
            });
            t.done += 1;
            served += 1;
            if served.is_multiple_of(SEGMENT_OPS / 4) {
                probe.ticker.tick();
            }
            if t.open {
                // Timed from the scheduled arrival: queueing counts.
                lat.record(completion - arrival);
                t.next_arrival = arrival + exp_gap(&mut t.rng);
            } else {
                t.next_arrival = completion;
            }
        }
        let makespan_ns = (0..3)
            .map(|i| self.cluster.tenant_ref(i).max_now() - starts[i])
            .max()
            .unwrap_or(0);
        let ops = self.tenants.iter().map(|t| t.done as u64).sum();
        let short: u64 = self
            .tenants
            .iter()
            .map(|t| (t.requests - t.done) as u64)
            .sum();
        Outcome {
            ops,
            failed: failed + short,
            makespan_ns,
            lat,
            counts: self.counts().since(c0),
            digest: 0,
            paper: None,
        }
    }

    fn check(&mut self, out: &mut Outcome) {
        let mut h = FOLD_SEED;
        for id in 0..2 {
            h = fold(h, self.cluster.tenant(id).trace_digest());
        }
        out.digest = h;
    }

    fn view(&self) -> View<'_> {
        View {
            endpoint: EndpointRef::Cell(self.cluster.pool().endpoint()),
            local_frames: self.quota,
            tenants: vec![
                (0, VICTIM_REMOTE, 4),
                (VICTIM_REMOTE, VICTIM_REMOTE, 4),
                (2 * VICTIM_REMOTE, NOISY_REMOTE, 1),
            ],
            heap: None,
            fastswap: false,
        }
    }
}
