//! Per-layer replays: the captured event window, fed back into a fresh
//! instance of each layer through that layer's public API.
//!
//! A layer's cost inside a fault cannot be read off from outside the
//! library without editing it, so each layer is timed on its own, on the
//! traffic the real run generated: the same verbs with the same sizes and
//! addresses, the same calendar churn, the same page-table transitions.
//! The structures start cold, so these are upper bounds that rank the
//! layers; what a fault costs beyond them is `node.self_ns_per_fault`.
//!
//! Event payloads carry addresses and lengths, not bytes. Writes are
//! replayed with the bytes the run's memory node ended up holding at that
//! address, which reproduces each page's real density (8 live bytes on
//! `seq_fault`, 4096 on `rand_rw`) — the property store cost depends on.

use std::collections::{BTreeMap, HashMap};

use dilos_alloc::Heap;
use dilos_core::frames::FrameArena;
use dilos_core::{PageTable, Prefetcher, Pte, Readahead, LANES_PER_TENANT};
use dilos_sim::{
    Calendar, Fabric, FaultKind, FlatStore, LruChain, MemStore, MemoryNode, Ns, Observability,
    PteClass, RdmaEndpoint, RdmaPort, SchedEvent, Segment, ServiceClass, SharedPool, SimConfig,
    TraceEvent, TraceSink, PAGE_SIZE,
};

use crate::capture::Rec;
use crate::clock::Stamp;
use crate::spans::CallRec;
use crate::workloads::View;

/// Host cost of one replay: operations performed and on-CPU ns spent.
#[derive(Clone, Copy, Default, Debug)]
pub struct Cost {
    pub ops: u64,
    pub ns: u64,
}

impl Cost {
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }

    /// The cost of `ops` of this replay's operations at its mean rate.
    pub fn portion(&self, ops: u64) -> Cost {
        self.scaled(ops as f64 / self.ops.max(1) as f64)
    }

    pub fn scaled(&self, by: f64) -> Cost {
        Cost {
            ops: (self.ops as f64 * by).round() as u64,
            ns: (self.ns as f64 * by) as u64,
        }
    }

    pub fn plus(&self, o: Cost) -> Cost {
        Cost {
            ops: self.ops + o.ops,
            ns: self.ns + o.ns,
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let s0 = Stamp::now();
    let r = f();
    let ns = (Stamp::now().since(&s0).cpu_s * 1e9) as u64;
    (r, ns)
}

/// One RDMA verb reassembled from `RdmaIssue` + the `MemAccess` events
/// the memory node emitted while serving it.
pub struct Verb {
    pub tenant: u8,
    pub t: Ns,
    pub core: usize,
    pub class: ServiceClass,
    pub write: bool,
    /// `(absolute remote address, length)` per segment.
    pub segs: Vec<(u64, usize)>,
}

/// One memory-node access.
#[derive(Clone, Copy)]
pub struct Access {
    pub write: bool,
    pub addr: u64,
    pub len: usize,
}

pub fn verbs_of(win: &[Rec]) -> Vec<Verb> {
    let mut out: Vec<Verb> = Vec::new();
    let mut open = false;
    for r in win {
        match r.ev {
            TraceEvent::RdmaIssue {
                class, write, core, ..
            } => {
                out.push(Verb {
                    tenant: r.tenant,
                    t: r.t,
                    core: core as usize % LANES_PER_TENANT,
                    class,
                    write,
                    segs: Vec::new(),
                });
                open = true;
            }
            TraceEvent::MemAccess { offset, len, .. } if open => {
                if let Some(v) = out.last_mut() {
                    v.segs.push((offset, len as usize));
                }
            }
            TraceEvent::LinkTransfer { .. } | TraceEvent::IntentAppend { .. } => {}
            _ => open = false,
        }
    }
    out.retain(|v| !v.segs.is_empty());
    out
}

pub fn accesses_of(win: &[Rec]) -> Vec<Access> {
    win.iter()
        .filter_map(|r| match r.ev {
            TraceEvent::MemAccess { write, offset, len } => Some(Access {
                write,
                addr: offset,
                len: len as usize,
            }),
            _ => None,
        })
        .collect()
}

/// Bytes carried by the window's link transfers.
pub fn wire_bytes(win: &[Rec]) -> u64 {
    win.iter()
        .map(|r| match r.ev {
            TraceEvent::LinkTransfer { bytes, .. } => u64::from(bytes),
            _ => 0,
        })
        .sum()
}

pub fn count_faults(win: &[Rec]) -> u64 {
    win.iter()
        .filter(|r| matches!(r.ev, TraceEvent::FaultBegin { .. }))
        .count() as u64
}

/// The events of the window a replay consumes, extracted before its clock
/// starts: scanning a million records for a few thousand relevant ones
/// would otherwise be most of what a sparse replay measures.
fn only(win: &[Rec], keep: impl Fn(&TraceEvent) -> bool) -> Vec<Rec> {
    win.iter().filter(|r| keep(&r.ev)).copied().collect()
}

const ZEROS: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];

/// The bytes the run's memory node holds at `[addr, addr + len)`, when the
/// range lies within one materialized page; zeros otherwise.
fn final_bytes(node: &MemoryNode, addr: u64, len: usize) -> &[u8] {
    let in_page = (addr % PAGE_SIZE as u64) as usize;
    match node.page_snapshot(addr / PAGE_SIZE as u64) {
        Some(page) if in_page + len <= PAGE_SIZE => &page[in_page..in_page + len],
        _ => &ZEROS[..len.min(PAGE_SIZE)],
    }
}

fn total_remote(view: &View<'_>) -> u64 {
    view.tenants.iter().map(|&(_, bytes, _)| bytes).sum()
}

/// `TraceSink::emit` over the whole window into `sink`, opening a request
/// at each fault so request-keyed observers have real work.
pub fn emit_window(sink: &TraceSink, win: &[Rec]) -> Cost {
    let ((), ns) = timed(|| {
        for r in win {
            match r.ev {
                TraceEvent::FaultBegin { .. } => {
                    sink.begin_request();
                    sink.emit(r.t, r.ev);
                }
                TraceEvent::FaultEnd { .. } => {
                    sink.emit(r.t, r.ev);
                    sink.set_request(None);
                }
                ev => sink.emit(r.t, ev),
            }
        }
    });
    Cost {
        ops: win.len() as u64,
        ns,
    }
}

/// Emit cost into a plain recording sink, and the extra cost per event of
/// the span profiler (`Observability::full`) and the causal tracer
/// (`.with_timeline()`) observing the same stream.
pub fn replay_trace(win: &[Rec]) -> (Cost, TraceSink, f64, f64) {
    let plain = TraceSink::recording();
    let base = emit_window(&plain, win);
    let full = emit_window(Observability::full().trace(), win);
    let causal = emit_window(Observability::tracing().with_timeline().trace(), win);
    let extra = |c: Cost| (c.ns as f64 - base.ns as f64) / win.len().max(1) as f64;
    (base, plain, extra(full), extra(causal))
}

/// Calendar churn: what the node schedules, cancels and drains.
pub struct SchedCost {
    pub cost: Cost,
    pub scheduled: u64,
    pub cancelled: u64,
}

pub fn replay_sched(win: &[Rec], native_traced: bool) -> SchedCost {
    let cfg = SimConfig::default();
    let cal = Calendar::new();
    let mut pending: HashMap<u64, dilos_sim::EventId> = HashMap::new();
    let (mut scheduled, mut cancelled, mut delivered) = (0u64, 0u64, 0u64);
    let mut minor_on: Option<u64> = None;
    let mut buf = Vec::new();
    let win = only(win, |ev| {
        matches!(
            ev,
            TraceEvent::FaultBegin { .. }
                | TraceEvent::FaultEnd { .. }
                | TraceEvent::PrefetchIssue { .. }
                | TraceEvent::PrefetchLand { .. }
                | TraceEvent::PrefetchCancel { .. }
                | TraceEvent::Evict { .. }
                | TraceEvent::RdmaIssue { .. }
        )
    });
    let ((), ns) = timed(|| {
        for r in &win {
            let t = r.t;
            match r.ev {
                TraceEvent::FaultBegin { vpn, kind, .. } => {
                    minor_on = (kind == FaultKind::Minor).then_some(vpn);
                }
                TraceEvent::FaultEnd { .. } => minor_on = None,
                TraceEvent::PrefetchIssue { vpn } => {
                    let at = t.saturating_add(cfg.rdma_read_ns(PAGE_SIZE));
                    let id = cal.schedule(at, SchedEvent::PrefetchLand { vpn, token: 0 });
                    pending.insert(vpn, id);
                    scheduled += 1;
                }
                // A landing promoted by a minor fault is consumed by the
                // fault, which cancels the calendar entry.
                TraceEvent::PrefetchLand { vpn } if minor_on == Some(vpn) => {
                    if let Some(id) = pending.remove(&vpn) {
                        cancelled += u64::from(cal.cancel(id));
                    }
                }
                TraceEvent::PrefetchCancel { vpn } => {
                    if let Some(id) = pending.remove(&vpn) {
                        cancelled += u64::from(cal.cancel(id));
                    }
                }
                TraceEvent::Evict { dirty, .. } => {
                    cal.schedule(t, SchedEvent::ReclaimTick);
                    scheduled += 1;
                    if dirty {
                        let at = t.saturating_add(cfg.rdma_write_ns(PAGE_SIZE));
                        cal.schedule(at, SchedEvent::CleanerWriteback { frame: 0 });
                        scheduled += 1;
                    }
                }
                // Completions ride the calendar only on traced systems.
                TraceEvent::RdmaIssue {
                    class,
                    write,
                    node,
                    core,
                    bytes,
                } if native_traced => {
                    let at = t.saturating_add(cfg.rdma_read_ns(bytes as usize));
                    cal.schedule(
                        at,
                        SchedEvent::RdmaCompletion {
                            class,
                            write,
                            node,
                            core,
                        },
                    );
                    scheduled += 1;
                }
                _ => {}
            }
            if cal.has_due(t) {
                while cal.drain_due(t, &mut buf) > 0 {
                    delivered += buf.len() as u64;
                    buf.clear();
                }
            }
        }
    });
    SchedCost {
        cost: Cost {
            ops: scheduled + cancelled + delivered,
            ns,
        },
        scheduled,
        cancelled,
    }
}

/// Copies every page the run's memory node holds into `ep` (untimed), so
/// replayed reads find the content real reads found.
fn preload_endpoint(ep: &mut RdmaEndpoint, from: &MemoryNode) {
    for page in from.resident_page_numbers() {
        if let Some(data) = from.page_snapshot(page) {
            let _ = ep.write(0, 0, ServiceClass::Cleaner, page * PAGE_SIZE as u64, data);
        }
    }
}

/// Issues `v` on an endpoint-shaped target through the four verbs.
macro_rules! issue_verb {
    ($target:expr, $v:expr, $node:expr, $buf:expr, $segs:expr, $base:expr) => {{
        let v: &Verb = $v;
        if let [(addr, len)] = v.segs[..] {
            let addr = addr - $base;
            if v.write {
                let data = final_bytes($node, addr + $base, len);
                let _ = $target.write_live(v.t, v.core, v.class, addr, data, data.len());
            } else {
                let _ =
                    $target.read_live(v.t, v.core, v.class, addr, &mut $buf[..len.min(PAGE_SIZE)]);
            }
        } else {
            $segs.clear();
            $segs.extend(v.segs.iter().map(|&(addr, len)| Segment {
                remote: addr - $base,
                offset: (addr % PAGE_SIZE as u64) as usize,
                len: len.min(PAGE_SIZE - (addr % PAGE_SIZE as u64) as usize),
            }));
            if v.write {
                let page = v.segs[0].0 & !(PAGE_SIZE as u64 - 1);
                let data = final_bytes($node, page, PAGE_SIZE);
                let _ = $target.write_v(v.t, v.core, v.class, &$segs, data);
            } else {
                let _ = $target.read_v(v.t, v.core, v.class, &$segs, &mut $buf[..]);
            }
        }
    }};
}

/// The verbs of the window on a fresh single-tenant endpoint.
pub fn replay_rdma(verbs: &[Verb], view: &View<'_>) -> Cost {
    let from = view.endpoint.node();
    let mut ep = RdmaEndpoint::connect(SimConfig::default(), total_remote(view));
    preload_endpoint(&mut ep, from);
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut segs: Vec<Segment> = Vec::new();
    let ((), ns) = timed(|| {
        for v in verbs {
            issue_verb!(ep, v, from, buf, segs, 0);
        }
    });
    Cost {
        ops: verbs.len() as u64,
        ns,
    }
}

/// The same verbs through tenant ports on a QoS-armed shared pool, and
/// through one exclusive port: the difference is what sharing costs.
pub fn replay_cluster(verbs: &[Verb], view: &View<'_>) -> (Cost, Cost) {
    let from = view.endpoint.node();
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut segs: Vec<Segment> = Vec::new();
    let total = total_remote(view);

    let pool = SharedPool::new(RdmaEndpoint::connect(SimConfig::default(), total));
    let mut shares = BTreeMap::new();
    for (id, &(base, bytes, share)) in view.tenants.iter().enumerate() {
        pool.register_tenant(id as u8, base, bytes);
        shares.insert(id as u8, share);
    }
    pool.set_qos(shares);
    let mut ports: Vec<RdmaPort> = view
        .tenants
        .iter()
        .enumerate()
        .map(|(id, &(base, _, _))| {
            let mut p = pool.port(id as u8, base, id * LANES_PER_TENANT);
            p.bind(Observability::none(), Calendar::new());
            p
        })
        .collect();
    let ((), shared_ns) = timed(|| {
        for v in verbs {
            let base = view.tenants[v.tenant as usize].0;
            let port = &mut ports[v.tenant as usize];
            issue_verb!(port, v, from, buf, segs, base);
        }
    });

    let mut port = RdmaPort::exclusive(RdmaEndpoint::connect(SimConfig::default(), total));
    port.bind(Observability::none(), Calendar::new());
    let ((), exclusive_ns) = timed(|| {
        for v in verbs {
            issue_verb!(port, v, from, buf, segs, 0);
        }
    });
    let ops = verbs.len() as u64;
    (
        Cost { ops, ns: shared_ns },
        Cost {
            ops,
            ns: exclusive_ns,
        },
    )
}

/// `Fabric::transfer` for every `LinkTransfer`, first-come-first-served
/// and (when the run had several tenants) QoS-shaped.
pub fn replay_fabric(win: &[Rec], view: &View<'_>) -> (Cost, Option<Cost>) {
    let win = only(win, |ev| matches!(ev, TraceEvent::LinkTransfer { .. }));
    let run = |shaped: bool| {
        let mut fabric = Fabric::new(SimConfig::default(), 10_000_000);
        if shaped {
            fabric.set_qos(
                view.tenants
                    .iter()
                    .enumerate()
                    .map(|(id, &(_, _, share))| (id as u8, share))
                    .collect(),
            );
        }
        let mut ops = 0u64;
        let ((), ns) = timed(|| {
            for r in &win {
                if let TraceEvent::LinkTransfer {
                    class,
                    bytes,
                    inbound,
                    ..
                } = r.ev
                {
                    if shaped {
                        fabric.set_active_tenant(r.tenant);
                    }
                    fabric.transfer(r.t, class, bytes as usize, inbound);
                    ops += 1;
                }
            }
        });
        Cost { ops, ns }
    };
    let fcfs = run(false);
    let shaped = (view.tenants.len() > 1).then(|| run(true));
    (fcfs, shaped)
}

/// `MemoryNode::{read, write_live}` for every access of the window.
pub fn replay_memnode(accesses: &[Access], view: &View<'_>) -> Cost {
    let from = view.endpoint.node();
    let mut node = MemoryNode::new();
    node.set_huge_pages(true);
    let key = node.register_region(0, total_remote(view));
    for page in from.resident_page_numbers() {
        if let Some(data) = from.page_snapshot(page) {
            node.install_page(page, data);
        }
    }
    let mut buf = vec![0u8; PAGE_SIZE];
    let ((), ns) = timed(|| {
        for a in accesses {
            if a.write {
                let data = final_bytes(from, a.addr, a.len);
                let _ = node.write_live(key, a.addr, data, data.len());
            } else {
                let _ = node.read(key, a.addr, &mut buf[..a.len.min(PAGE_SIZE)]);
            }
        }
    });
    Cost {
        ops: accesses.len() as u64,
        ns,
    }
}

pub struct StoreCost {
    pub reads: Cost,
    pub writes: Cost,
    /// Mean non-zero prefix of the pages the run's memory node holds.
    pub live_bytes_per_page: f64,
}

/// `FlatStore::{read_into, write_at}` page by page. With `preload` the
/// store starts as a copy of the run's memory node (reads then copy what
/// real reads copied); without it the store starts empty, which is what
/// the conservation test wants. Returns the store for inspection.
pub fn replay_store(
    accesses: &[Access],
    from: &MemoryNode,
    preload: bool,
) -> (FlatStore, StoreCost) {
    let mut store = FlatStore::new();
    let pages = from.resident_page_numbers();
    let mut live = 0u64;
    for &page in &pages {
        if let Some(data) = from.page_snapshot(page) {
            live += data.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1) as u64;
            if preload {
                store.install(page, data);
            }
        }
    }
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut pass = |store: &mut FlatStore, want_write: bool| {
        let mut ops = 0u64;
        let ((), ns) = timed(|| {
            for a in accesses.iter().filter(|a| a.write == want_write) {
                let mut done = 0usize;
                while done < a.len {
                    let addr = a.addr + done as u64;
                    let in_page = (addr % PAGE_SIZE as u64) as usize;
                    let n = (PAGE_SIZE - in_page).min(a.len - done);
                    let page = addr / PAGE_SIZE as u64;
                    if want_write {
                        let data = final_bytes(from, addr, n);
                        store.write_at(page, in_page, data, data.len());
                    } else {
                        store.read_into(page, in_page, &mut buf[..n]);
                    }
                    ops += 1;
                    done += n;
                }
            }
        });
        Cost { ops, ns }
    };
    let writes = pass(&mut store, true);
    let reads = pass(&mut store, false);
    let cost = StoreCost {
        reads,
        writes,
        live_bytes_per_page: live as f64 / pages.len().max(1) as f64,
    };
    (store, cost)
}

fn pte_for(class: PteClass, vpn: u64) -> Pte {
    let small = (vpn & 0xFF_FFFF) as u32;
    match class {
        PteClass::None => Pte::None,
        PteClass::Local => Pte::Local {
            frame: small,
            accessed: false,
            dirty: false,
        },
        PteClass::Remote => Pte::Remote {
            slot: u64::from(small),
        },
        PteClass::Fetching => Pte::Fetching { inflight: small },
        PteClass::Action => Pte::Action { action: small },
    }
}

/// One step of a virtual-time-ordered walk over events and calls.
enum Step<'a> {
    Event(&'a Rec),
    Call(&'a CallRec),
}

/// Walks `events` and `calls` together in virtual-time order.
fn merge_by_time<'a>(events: &'a [Rec], calls: &'a [CallRec], mut f: impl FnMut(Step<'a>)) {
    let (mut i, mut j) = (0, 0);
    while i < events.len() || j < calls.len() {
        let take_call = match (events.get(i), calls.get(j)) {
            (Some(e), Some(c)) => c.t < e.t,
            (None, _) => true,
            (_, None) => false,
        };
        if take_call {
            f(Step::Call(&calls[j]));
            j += 1;
        } else {
            f(Step::Event(&events[i]));
            i += 1;
        }
    }
}

/// `PageTable::{set, get, mark_access}`: every PTE transition of the
/// window, plus a translation for each logged call — a probe of a 64-entry
/// software TLB keyed the way the node keys its own, and a walk on a miss.
/// One operation = one `set` or one translation. Returns the cost and how
/// many of the operations were `set`s.
pub fn replay_pt(win: &[Rec], calls: &[CallRec]) -> (Cost, u64) {
    const WAYS: usize = 64;
    let mut pt = PageTable::new();
    let mut tlb = [(u64::MAX, 0u64); WAYS];
    let (mut ops, mut sets) = (0u64, 0u64);
    let transitions = only(win, |ev| matches!(ev, TraceEvent::PteTransition { .. }));
    let ((), ns) = timed(|| {
        merge_by_time(&transitions, calls, |step| match step {
            Step::Event(r) => {
                if let TraceEvent::PteTransition { vpn, to, .. } = r.ev {
                    pt.set(vpn, pte_for(to, vpn));
                    sets += 1;
                }
            }
            Step::Call(c) => {
                // Every call is a translation; most end at the TLB probe.
                ops += 1;
                let way = (c.vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize % WAYS;
                let gen = pt.generation();
                if tlb[way] != (c.vpn, gen) {
                    if matches!(pt.get(c.vpn), Pte::Local { .. }) {
                        pt.mark_access(c.vpn, c.write);
                    }
                    tlb[way] = (c.vpn, gen);
                }
            }
        });
    });
    (
        Cost {
            ops: ops + sets,
            ns,
        },
        sets,
    )
}

/// `FrameArena::{pop_free, zero, push_free}` from the alloc/free events.
pub fn replay_frames(win: &[Rec], local_frames: usize, live_bytes: usize) -> Cost {
    let mut arena = FrameArena::new(local_frames);
    // Frames that were already allocated when the window opened.
    let mut held: Vec<u32> = std::iter::from_fn(|| arena.pop_free(0)).collect();
    let mut map: HashMap<u32, u32> = HashMap::new();
    let mut ops = 0u64;
    let win = only(win, |ev| {
        matches!(
            ev,
            TraceEvent::FrameAlloc { .. } | TraceEvent::FrameFree { .. }
        )
    });
    let ((), ns) = timed(|| {
        for r in &win {
            match r.ev {
                TraceEvent::FrameAlloc { frame } => {
                    if let Some(f) = arena.pop_free(r.t) {
                        arena.zero(f);
                        arena.set_live(f, live_bytes);
                        map.insert(frame, f);
                        ops += 2;
                    }
                }
                TraceEvent::FrameFree { frame } => {
                    if let Some(f) = map.remove(&frame).or_else(|| held.pop()) {
                        arena.push_free(f, r.t);
                        ops += 1;
                    }
                }
                _ => {}
            }
        }
    });
    Cost { ops, ns }
}

/// `LruChain::{insert, remove}` from the events and `touch` from the
/// logged calls. Returns the cost and how many operations were inserts or
/// removes (the fault path's share).
pub fn replay_lru(win: &[Rec], calls: &[CallRec]) -> (Cost, u64) {
    let mut lru = LruChain::new();
    let (mut touches, mut structural) = (0u64, 0u64);
    let events = only(win, |ev| {
        matches!(
            ev,
            TraceEvent::LruInsert { .. } | TraceEvent::LruRemove { .. }
        )
    });
    let ((), ns) = timed(|| {
        merge_by_time(&events, calls, |step| match step {
            Step::Event(r) => {
                match r.ev {
                    TraceEvent::LruInsert { vpn } => lru.insert(vpn),
                    TraceEvent::LruRemove { vpn } => {
                        lru.remove(vpn);
                    }
                    _ => {}
                }
                structural += 1;
            }
            Step::Call(c) => {
                lru.touch(c.lru_key);
                touches += 1;
            }
        });
    });
    (
        Cost {
            ops: structural + touches,
            ns,
        },
        structural,
    )
}

/// `Prefetcher::on_fault` (readahead) for every major fault of the window.
pub fn replay_prefetch(win: &[Rec]) -> Cost {
    let mut ra = Readahead::new();
    let mut out = Vec::new();
    let mut ops = 0u64;
    let win = only(win, |ev| {
        matches!(
            ev,
            TraceEvent::FaultBegin {
                kind: FaultKind::Major,
                ..
            }
        )
    });
    let ((), ns) = timed(|| {
        for r in &win {
            if let TraceEvent::FaultBegin {
                vpn,
                kind: FaultKind::Major,
                ..
            } = r.ev
            {
                out.clear();
                ra.on_fault(vpn, &mut out);
                std::hint::black_box(&out);
                ops += 1;
            }
        }
    });
    Cost { ops, ns }
}

/// The key-value command stream on a fresh heap: three allocations per SET
/// (value string, key string, dict entry — the sizes the store uses), the
/// matching frees for a seeded random 70 % of the keys, as DEL does.
pub fn replay_alloc(keys: usize, seed: u64, heap_bytes: u64) -> Cost {
    const SIZES: [usize; 3] = [8 + 128, 8 + 14, 32];
    let mut heap = Heap::new(0x1000_0000_0000, heap_bytes);
    let mut blocks = vec![[0u64; 3]; keys];
    let mut order: Vec<usize> = (0..keys).collect();
    dilos_sim::SplitMix64::new(seed).shuffle(&mut order);
    let dels = &order[..keys * 70 / 100];
    let mut ops = 0u64;
    let ((), ns) = timed(|| {
        for b in &mut blocks {
            for (slot, size) in b.iter_mut().zip(SIZES) {
                *slot = heap.malloc(size).unwrap_or(0);
                ops += 1;
            }
        }
        for &i in dels {
            for va in blocks[i] {
                let _ = heap.free(va);
                ops += 1;
            }
        }
    });
    Cost { ops, ns }
}

/// `Heap::live_segments` for every evict-side guide invocation, on the
/// run's own heap (its final layout).
pub fn replay_guide(win: &[Rec], heap: &Heap) -> Cost {
    let mut ops = 0u64;
    let win = only(win, |ev| {
        matches!(ev, TraceEvent::GuideInvoke { fetch: false, .. })
    });
    let ((), ns) = timed(|| {
        for r in &win {
            if let TraceEvent::GuideInvoke { vpn, fetch: false } = r.ev {
                std::hint::black_box(heap.live_segments(vpn << 12, 3));
                ops += 1;
            }
        }
    });
    Cost { ops, ns }
}
