//! The access path and the page fault handler (§4.2): drain the calendar,
//! try the TLB, walk the unified page table, and on a miss take a minor
//! fault (wait on a fetch in flight), a zero-fill, or a major fault (post
//! the demand read and run the prefetcher in its window).

use dilos_sim::memnode::MemNodeError;
use dilos_sim::{
    ComputeNode, FaultKind, FaultPhase, Ns, RdmaError, ServiceClass, TraceEvent, PAGE_SIZE,
};

use super::{
    page_segment, Dilos, InflightEntry, TlbEntry, MAP_NS, PTE_CHECK_NS, SWAPCACHE_MGMT_NS,
    SWAPCACHE_MINOR_NS, TLB_MISS_WALK_NS, TLB_WAYS, ZERO_FILL_NS,
};
use crate::guide::FetchVector;
use crate::pt::Pte;

impl Dilos {
    /// Resolves `vpn` to a resident frame, faulting as needed, and marks the
    /// access (A/D bits) — the software MMU.
    pub(super) fn touch(&mut self, core: usize, vpn: u64, is_write: bool) -> u32 {
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
            self.remote_offset(vpn).is_some(),
            "segmentation fault: access to unmapped VA {:#x}",
            vpn << 12
        );
        match self.pt.get(vpn) {
            Pte::Local { frame, .. } => {
                // TLB miss to a resident page: hardware walk only.
                self.m.advance(core, TLB_MISS_WALK_NS);
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
    pub(super) fn take_inflight(&mut self, idx: u32) -> InflightEntry {
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
        if entry.ready_at <= now {
            // Completed in the past; mapping it cost the completion path,
            // not this access. The landing closes the *prefetch's* span.
            let prev_req = self.m.trace.set_request(entry.req);
            self.m.trace.emit(now, TraceEvent::PrefetchLand { vpn });
            self.map_page(now, vpn, entry.frame, 0);
            self.m.trace.set_request(prev_req);
            self.pt.mark_access(vpn, is_write);
            self.stats.local_hits += 1;
            self.m.advance(core, TLB_MISS_WALK_NS);
            return entry.frame;
        }
        // Minor fault: pay the exception, wait out the fetch, map. The wait
        // is its own causal request; the landing still closes the prefetch.
        let prev_req = self.m.begin_fault(now, core, vpn, FaultKind::Minor);
        self.stats.minor_faults += 1;
        let mut t = now + self.cfg.sim.hw_exception_ns + PTE_CHECK_NS;
        if entry.swap_cached {
            t += SWAPCACHE_MINOR_NS;
        }
        t = t.max(entry.ready_at) + MAP_NS;
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
        let t = now + self.cfg.sim.hw_exception_ns + PTE_CHECK_NS;
        let (frame, t_alloc, reclaim_ns) = self.alloc_frame(t);
        self.frames.zero(frame);
        let t_done = t_alloc + ZERO_FILL_NS + MAP_NS + reclaim_ns;
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
        let mut check = PTE_CHECK_NS;
        if self.cfg.swap_cache_mode {
            check += SWAPCACHE_MGMT_NS;
        }
        let t = now + hw + check;
        // Transition through the `fetching` tag, exactly as §4.2 describes
        // (other cores reading the PTE would wait instead of re-fetching).
        self.set_pte(t, vpn, Pte::Fetching { inflight: u32::MAX });
        let (frame, t_alloc, reclaim_ns) = self.alloc_frame(t);
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
            done += ZERO_FILL_NS;
        }

        // Hidden-window work: hit-tracker sweep + prefetch decision/issue,
        // plus the app-aware guide. All of it runs while the demand fetch is
        // on the wire; only overflow beyond the window costs latency.
        let hidden_done = self.fetch_window_work(core, vpn, t_alloc);

        let t_ready = done.max(hidden_done) + reclaim_ns;
        let t_end = t_ready + MAP_NS;
        self.m.wait_until(core, t_end);
        self.stats.major_faults += 1;
        let b = &mut self.stats.breakdown;
        b.exception += hw;
        b.check += check;
        b.alloc_wait += t_alloc - t;
        b.fetch += t_ready - t_alloc;
        b.map += MAP_NS;
        b.reclaim += reclaim_ns;
        b.count += 1;
        if self.m.trace.is_enabled() {
            for (phase, dur) in [
                (FaultPhase::Exception, hw),
                (FaultPhase::Check, check),
                (FaultPhase::Alloc, t_alloc - t),
                (FaultPhase::Fetch, t_ready - t_alloc),
                (FaultPhase::Map, MAP_NS),
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
    pub(super) fn fill_frame(
        &mut self,
        t: Ns,
        core: usize,
        class: ServiceClass,
        vpn: u64,
        frame: u32,
        vector: Option<&FetchVector>,
    ) -> Result<Ns, RdmaError> {
        let remote = self
            .remote_offset(vpn)
            .ok_or(RdmaError::Remote(MemNodeError::OutOfBounds))?;
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
}
