//! DiLOS node statistics: fault counts and the latency breakdown.
//!
//! The breakdown mirrors the phases Figures 1 and 6 plot, so the benches can
//! print the same stacked bars (as table rows) for DiLOS and Fastswap.

use dilos_sim::Ns;

/// Accumulated per-phase fault-handling time (sums over all major faults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultBreakdown {
    /// Hardware exception delivery + OS exception entry.
    pub exception: Ns,
    /// Unified-page-table check (the only data structure on the path).
    pub check: Ns,
    /// Waiting for a free local frame (zero when eager eviction keeps up).
    pub alloc_wait: Ns,
    /// Waiting on the remote fetch.
    pub fetch: Ns,
    /// Mapping the fetched page into the page table.
    pub map: Ns,
    /// Direct reclamation performed inside the handler (zero for DiLOS by
    /// design; nonzero under the `direct_reclaim` ablation).
    pub reclaim: Ns,
    /// Number of major faults folded into the sums.
    pub count: u64,
}

impl FaultBreakdown {
    /// Average total fault latency.
    pub fn avg_total(&self) -> Ns {
        if self.count == 0 {
            return 0;
        }
        (self.exception + self.check + self.alloc_wait + self.fetch + self.map + self.reclaim)
            / self.count
    }

    /// Per-phase raw sums `(label, ns)` in plot order. The labels match the
    /// span profiler's phase names, so trace-derived phase totals can be
    /// cross-checked against these hand-maintained counters directly.
    pub fn sums(&self) -> [(&'static str, Ns); 6] {
        [
            ("exception", self.exception),
            ("check", self.check),
            ("alloc", self.alloc_wait),
            ("fetch", self.fetch),
            ("map", self.map),
            ("reclaim", self.reclaim),
        ]
    }

    /// Per-phase averages `(label, ns)` in plot order.
    pub fn avg_phases(&self) -> [(&'static str, Ns); 6] {
        let d = self.count.max(1);
        [
            ("exception", self.exception / d),
            ("pte-check", self.check / d),
            ("alloc-wait", self.alloc_wait / d),
            ("fetch", self.fetch / d),
            ("map", self.map / d),
            ("reclaim", self.reclaim / d),
        ]
    }
}

/// Counters a DiLOS node maintains (reported by every bench).
#[derive(Debug, Clone, Copy, Default)]
pub struct DilosStats {
    /// Faults that issued a demand fetch to the memory node.
    pub major_faults: u64,
    /// Faults that only waited on an in-flight (prefetched) page.
    pub minor_faults: u64,
    /// First-touch zero-fill faults (no network traffic).
    pub zero_fills: u64,
    /// Pages prefetched.
    pub prefetch_issued: u64,
    /// Prefetched pages later observed accessed by the hit tracker.
    pub prefetch_hits: u64,
    /// Pages evicted by the reclaimer.
    pub evictions: u64,
    /// Dirty pages written back by the cleaner.
    pub writebacks: u64,
    /// Evictions that used a guide vector instead of a full page.
    pub guided_evictions: u64,
    /// Fetches served from an action PTE's vector.
    pub guided_fetches: u64,
    /// Eviction bytes *not* sent thanks to guided paging.
    pub writeback_bytes_saved: u64,
    /// Fetch bytes *not* pulled thanks to guided paging.
    pub fetch_bytes_saved: u64,
    /// Subpage fetches issued by prefetch guides.
    pub subpage_fetches: u64,
    /// Accesses served from resident pages.
    pub local_hits: u64,
    /// The fault-latency breakdown.
    pub breakdown: FaultBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_averages() {
        let b = FaultBreakdown {
            exception: 570 * 4,
            check: 100 * 4,
            alloc_wait: 0,
            fetch: 2_000 * 4,
            map: 150 * 4,
            reclaim: 0,
            count: 4,
        };
        assert_eq!(b.avg_total(), 570 + 100 + 2_000 + 150);
        let phases = b.avg_phases();
        assert_eq!(phases[0], ("exception", 570));
        assert_eq!(phases[3], ("fetch", 2_000));
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = FaultBreakdown::default();
        assert_eq!(b.avg_total(), 0);
        assert!(b.avg_phases().iter().all(|&(_, v)| v == 0));
    }
}
