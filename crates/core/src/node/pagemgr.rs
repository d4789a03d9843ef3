//! The page manager (§4.4): frame allocation, the background reclaimer
//! (one LRU victim per calendar tick on the background core, so the fault
//! handler never reclaims) and eviction. The `direct_reclaim` ablation
//! evicts inside the handler instead, as Fastswap does.

use dilos_alloc::PageLiveness;
use dilos_sim::{ComputeNode, Ns, SchedEvent, ServiceClass, TraceEvent, PAGE_SIZE};

use super::{page_segment, Dilos, DDC_BASE_VPN, RECLAIM_SCAN_NS};
use crate::guide::FetchVector;
use crate::pt::Pte;

/// Free-memory watermarks driving eager background eviction.
///
/// DiLOS "always keeps a few free pages by eagerly evicting the local cache"
/// so reclamation never runs in the fault path. When the free list drops
/// below `low`, the background reclaimer refills it to `high`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Watermarks {
    /// Trigger threshold: refill when free frames drop below this.
    pub(super) low: usize,
    /// Refill target.
    high: usize,
}

impl Watermarks {
    /// Derives watermarks from the local cache size: 1/32 of frames low,
    /// 1/16 high, clamped to a sane minimum.
    pub(super) fn for_cache(frames: usize) -> Self {
        let low = (frames / 32).clamp(2, 256);
        let high = (frames / 16).clamp(4, 512).max(low + 2);
        Self { low, high }
    }
}

impl Dilos {
    /// Claims a frame for a demand fault at time `t`, waiting if necessary.
    ///
    /// Returns `(frame, time_frame_held, direct_reclaim_ns)`. With eager
    /// background eviction the wait is almost always zero; the
    /// `direct_reclaim` ablation instead charges the reclaim to the handler.
    pub(super) fn alloc_frame(&mut self, t: Ns) -> (u32, Ns, Ns) {
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
            self.kick_reclaim(now);
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

    /// At or below the low watermark, wakes the reclaimer: schedules its
    /// next tick unless one is pending, then delivers what is due at `now`
    /// (an idle reclaimer's first tick is), so the watermark reacts at once.
    /// The tick runs when the background core is next free — not "now",
    /// which is the lie the old single-instant reclaim episode told.
    pub(super) fn kick_reclaim(&mut self, now: Ns) {
        if self.frames.free_count() > self.wm.low {
            return;
        }
        if !self.cfg.direct_reclaim && !self.tick_pending {
            self.tick_pending = true;
            let at = self.bg.next_free(now);
            self.m.cal.schedule(at, SchedEvent::ReclaimTick);
        }
        self.drain_events(now);
    }

    /// One reclaimer tick: scan for a victim, evict it, and chain the next
    /// tick — one victim per tick, each at the background core's true time,
    /// so an episode's evictions spread across virtual time instead of
    /// collapsing onto a single instant. The next tick is *returned*: the
    /// delivery loop runs it in place when nothing else is due first.
    pub(super) fn on_reclaim_tick(&mut self, t: Ns) -> Option<(Ns, SchedEvent)> {
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
            let (_, t) = self.bg.acquire(now, RECLAIM_SCAN_NS);
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
            return avail.max(scan_end).saturating_sub(bg0).max(RECLAIM_SCAN_NS);
        }
        RECLAIM_SCAN_NS
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
        // A resident page passed the DDC range check when it faulted in.
        let slot = vpn - DDC_BASE_VPN;
        let mut available_at = t;
        if dirty {
            available_at = self.flush_frame(t, class, slot << 12, frame, live_ranges.as_ref());
        }
        let new_pte = match live_ranges {
            None => Pte::Remote { slot },
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

    /// Writes dirty `frame` back to its page's `remote` offset, posting at
    /// `t`: the whole page, or only the `ranges` a paging guide reports
    /// live (none at all for an empty page — nothing on the wire). Returns
    /// when the write-back completes.
    fn flush_frame(
        &mut self,
        t: Ns,
        class: ServiceClass,
        remote: u64,
        frame: u32,
        ranges: Option<&FetchVector>,
    ) -> Ns {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_scale_with_cache() {
        let w = Watermarks::for_cache(64);
        assert!(w.low >= 2 && w.high > w.low);
        let big = Watermarks::for_cache(1 << 20);
        assert_eq!(big.low, 256);
        assert_eq!(big.high, 512);
    }
}
