//! The prefetcher (§4.3): the hit-tracker sweep, the prefetcher and the
//! app-aware guide, all inside a demand fetch's window. A prefetched page
//! stays `fetching` until its scheduled landing maps it.

use dilos_sim::{Ns, SchedEvent, ServiceClass, TraceEvent, PAGE_SIZE};

use super::{Dilos, InflightEntry, PREFETCH_ISSUE_NS, TRACKER_PER_PTE_NS};
use crate::guide::GuideOps;
use crate::pt::Pte;

impl Dilos {
    /// Runs the tracker sweep, the prefetcher, and the prefetch guide in the
    /// demand-fetch window starting at `t0`; returns when that software
    /// finishes (usually before the fetch completes).
    pub(super) fn fetch_window_work(&mut self, core: usize, vpn: u64, t0: Ns) -> Ns {
        let mut sw = t0;
        if self.cfg.hit_tracker {
            if let Some((hits, total)) = self.tracker.sweep_if_due(&self.pt) {
                sw += total as Ns * TRACKER_PER_PTE_NS;
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
                sw += PREFETCH_ISSUE_NS;
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
        if self.remote_offset(vpn).is_none() {
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
        // The watermark reacts to prefetch pressure, not just faults.
        self.kick_reclaim(now);
        if self.frames.free_count() <= self.wm.low / 2 + 1 {
            return None;
        }
        self.frames.pop_free(now)
    }

    /// A (pre)fetch completed at `t`: map the page into the unified page
    /// table at its true completion time (§4.3: "mapped immediately").
    ///
    /// The event may be stale — test hooks can drop the in-flight entry
    /// without cancelling, and a stale delivery must not touch a reused
    /// slot — so the entry is validated against the event's vpn first.
    pub(super) fn on_prefetch_land(&mut self, t: Ns, vpn: u64, token: u32) {
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
        // Subpage reads never cross the page boundary: with a sharded pool
        // the next page may live on a different memory node.
        let off = (va & 0xFFF) as usize;
        let remote = self.node.remote_offset(vpn)? + off as u64;
        let n = buf.len().min(PAGE_SIZE - off);
        let data = &mut buf[..n];
        // Resident pages are read directly (no wire traffic).
        if let Pte::Local { frame, .. } = self.node.pt.get(vpn) {
            data.copy_from_slice(&self.node.frames.bytes(frame)[off..off + n]);
            return Some((n, self.now));
        }
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
