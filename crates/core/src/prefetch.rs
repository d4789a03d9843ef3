//! Page prefetchers and the PTE hit tracker (§4.3).
//!
//! DiLOS maps fetched *and prefetched* pages straight into the unified page
//! table, so the swap-cache statistics Linux prefetchers feed on do not
//! exist. Instead, a **PTE hit tracker** scans the accessed bits of recently
//! prefetched PTEs to recover the hit ratio, and the prefetchers take that as
//! feedback. Both the tracker sweep and the prefetch decision run inside the
//! 2–3 µs window of the demand fetch, so they add no fault latency.
//!
//! Two general-purpose prefetchers ship by default, as in the paper:
//! Linux-style [`Readahead`] and Leap's majority-trend [`TrendBased`].

use crate::pt::{PageTable, Pte};

/// A general-purpose page prefetcher.
///
/// Implementations are pure policy: they receive fault VPNs, emit candidate
/// VPNs, and adapt to hit-ratio feedback from the [`HitTracker`]. The node
/// filters candidates that are already resident or in flight.
pub trait Prefetcher {
    /// Called on every page fault at `vpn`; pushes prefetch candidates.
    fn on_fault(&mut self, vpn: u64, out: &mut Vec<u64>);

    /// Hit-ratio feedback from the PTE hit tracker.
    fn feedback(&mut self, hits: u32, total: u32);

    /// Display name for tables ("no-prefetch", "readahead", "trend-based").
    fn name(&self) -> &'static str;
}

/// The no-op prefetcher (the paper's *no-prefetch* configuration).
#[derive(Debug, Default)]
pub struct NoPrefetch;

impl Prefetcher for NoPrefetch {
    fn on_fault(&mut self, _vpn: u64, _out: &mut Vec<u64>) {}
    fn feedback(&mut self, _hits: u32, _total: u32) {}
    fn name(&self) -> &'static str {
        "no-prefetch"
    }
}

/// Linux-style readahead (§6: "Linux's readahead prefetcher \[28\]").
///
/// Sequential faults grow the window (up to [`Readahead::MAX_WINDOW`]);
/// non-sequential faults and poor hit ratios shrink it — the VMA-based swap
/// readahead behaviour. A sweep in which fewer than one in eight prefetched
/// pages was touched turns it *quiet*: non-sequential faults then prefetch
/// nothing at all (`__swapin_nr_pages` returning 1 when the last window
/// scored no hits) until one adjacent fault wakes it. One in eight is the
/// model's break-even: a wasted page costs 328 ns of wire time, a useful one
/// saves a 2 822 ns major fault.
#[derive(Debug)]
pub struct Readahead {
    last_vpn: u64,
    window: u32,
    quiet: bool,
}

impl Readahead {
    /// Smallest window while awake: the faulting page and the one after it.
    pub const MIN_WINDOW: u32 = 2;
    /// Largest window, matching Linux's swap readahead cluster of 8.
    pub const MAX_WINDOW: u32 = 8;

    /// Creates a readahead prefetcher with the minimum window.
    pub fn new() -> Self {
        Self {
            last_vpn: u64::MAX,
            window: Self::MIN_WINDOW,
            quiet: false,
        }
    }

    /// The current window size.
    pub fn window(&self) -> u32 {
        self.window
    }
}

impl Default for Readahead {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Readahead {
    fn on_fault(&mut self, vpn: u64, out: &mut Vec<u64>) {
        // Sequential means the fault lands within (or adjacent to) the
        // previous readahead window — after a window of size `w` is
        // prefetched, the next demand fault arrives `w` pages ahead.
        let sequential = vpn > self.last_vpn && vpn - self.last_vpn <= self.window.max(1) as u64;
        if sequential {
            self.window = (self.window * 2).min(Self::MAX_WINDOW);
            self.quiet = false;
        } else {
            self.window = if self.quiet { 1 } else { Self::MIN_WINDOW };
        }
        self.last_vpn = vpn;
        for i in 1..self.window as u64 {
            out.push(vpn + i);
        }
    }

    fn feedback(&mut self, hits: u32, total: u32) {
        if total > 0 && hits * 2 < total {
            self.window = (self.window / 2).max(Self::MIN_WINDOW);
        }
        self.quiet |= hits * 8 < total;
    }

    fn name(&self) -> &'static str {
        "readahead"
    }
}

/// Leap's majority-trend prefetcher (§6: "Leap's majority trend-based
/// prefetcher \[49\]").
///
/// Keeps a short access history and finds the majority stride via
/// Boyer–Moore voting over progressively larger suffixes; if a majority
/// trend exists, it prefetches along that stride.
#[derive(Debug)]
pub struct TrendBased {
    history: Vec<u64>,
    head: usize,
    filled: usize,
    window: u32,
}

impl TrendBased {
    /// History depth (Leap uses a small fixed buffer).
    pub const HISTORY: usize = 32;
    /// Smallest prefetch window.
    pub const MIN_WINDOW: u32 = 2;
    /// Largest prefetch window.
    pub const MAX_WINDOW: u32 = 8;

    /// Creates a trend-based prefetcher.
    pub fn new() -> Self {
        Self {
            history: vec![0; Self::HISTORY],
            head: 0,
            filled: 0,
            window: Self::MIN_WINDOW,
        }
    }

    /// Boyer–Moore majority vote over the last `w` strides; verifies the
    /// candidate actually holds a majority (Leap's two-pass scheme).
    fn majority_stride(&self, w: usize) -> Option<i64> {
        if self.filled < w + 1 {
            return None;
        }
        let at = |i: usize| {
            // i-th most recent entry (i = 0 is the newest).
            self.history[(self.head + Self::HISTORY - 1 - i) % Self::HISTORY]
        };
        let stride = |i: usize| at(i) as i64 - at(i + 1) as i64;
        let mut candidate = 0i64;
        let mut count = 0u32;
        for i in 0..w {
            let s = stride(i);
            if count == 0 {
                candidate = s;
                count = 1;
            } else if s == candidate {
                count += 1;
            } else {
                count -= 1;
            }
        }
        let votes = (0..w).filter(|&i| stride(i) == candidate).count();
        (votes * 2 > w && candidate != 0).then_some(candidate)
    }

    /// The current window size.
    pub fn window(&self) -> u32 {
        self.window
    }
}

impl Default for TrendBased {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for TrendBased {
    fn on_fault(&mut self, vpn: u64, out: &mut Vec<u64>) {
        self.history[self.head] = vpn;
        self.head = (self.head + 1) % Self::HISTORY;
        self.filled = (self.filled + 1).min(Self::HISTORY);
        // Try the smallest window first, then widen (Leap's scheme).
        let stride = [4usize, 8, 16, Self::HISTORY - 1]
            .into_iter()
            .find_map(|w| self.majority_stride(w));
        if let Some(d) = stride {
            self.window = (self.window * 2).min(Self::MAX_WINDOW);
            for i in 1..=self.window as i64 {
                let target = vpn as i64 + d * i;
                if target >= 0 {
                    out.push(target as u64);
                }
            }
        } else {
            self.window = Self::MIN_WINDOW;
        }
    }

    fn feedback(&mut self, hits: u32, total: u32) {
        if total > 0 && hits * 2 < total {
            self.window = (self.window / 2).max(Self::MIN_WINDOW);
        }
    }

    fn name(&self) -> &'static str {
        "trend-based"
    }
}

/// The PTE hit tracker (§4.3).
///
/// "Upon prefetching, the PTE hit tracker scans accessed bits of prefetched
/// PTEs and collects the result to calculate the hit ratio and access
/// history." Tracked VPNs are swept in batches; a prefetched page whose
/// accessed bit is set by sweep time counts as a hit.
#[derive(Debug, Default)]
pub struct HitTracker {
    pending: Vec<u64>,
    hits: u64,
    total: u64,
}

impl HitTracker {
    /// Sweep batch size: the tracker sweeps once this many prefetched pages
    /// accumulate, bounding per-fault work to the fetch window.
    pub const BATCH: usize = 32;

    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a just-issued prefetch for later sweeping.
    pub fn track(&mut self, vpn: u64) {
        self.pending.push(vpn);
    }

    /// Number of pages awaiting a sweep.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Sweeps accessed bits if a batch has accumulated, returning
    /// `(hits, swept)` and the number of PTEs scanned (for time accounting).
    pub fn sweep_if_due(&mut self, pt: &PageTable) -> Option<(u32, u32)> {
        if self.pending.len() < Self::BATCH {
            return None;
        }
        Some(self.sweep(pt))
    }

    /// Unconditionally sweeps all pending PTEs.
    pub fn sweep(&mut self, pt: &PageTable) -> (u32, u32) {
        let mut hits = 0u32;
        let total = self.pending.len() as u32;
        for vpn in self.pending.drain(..) {
            if matches!(pt.get(vpn), Pte::Local { accessed: true, .. }) {
                hits += 1;
            }
        }
        self.hits += hits as u64;
        self.total += total as u64;
        (hits, total)
    }

    /// Lifetime `(hits, prefetched)` counts for reporting.
    pub fn lifetime(&self) -> (u64, u64) {
        (self.hits, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilos_sim::SplitMix64;

    fn faults(p: &mut dyn Prefetcher, vpns: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &v in vpns {
            out.clear();
            p.on_fault(v, &mut out);
        }
        out
    }

    #[test]
    fn readahead_grows_on_sequential_faults() {
        let mut r = Readahead::new();
        let out = faults(&mut r, &[100, 101, 102, 103]);
        assert_eq!(r.window(), Readahead::MAX_WINDOW);
        assert_eq!(out, vec![104, 105, 106, 107, 108, 109, 110]);
    }

    #[test]
    fn readahead_resets_on_random_faults() {
        let mut r = Readahead::new();
        faults(&mut r, &[100, 101, 102, 103]);
        let out = faults(&mut r, &[5000]);
        assert_eq!(r.window(), Readahead::MIN_WINDOW);
        assert_eq!(out, vec![5001], "awake: the minimum window survives");
        r.feedback(0, 32);
        let out = faults(&mut r, &[9000]);
        assert_eq!(r.window(), 1);
        assert_eq!(out, vec![], "quiet: a random fault fetches only itself");
    }

    #[test]
    fn readahead_goes_quiet_below_one_eighth_and_stays_quiet() {
        let mut r = Readahead::new();
        r.feedback(3, 32);
        for vpn in [5000, 70, 5002, 71, 90_000, 89_999, 5000] {
            assert_eq!(faults(&mut r, &[vpn]), vec![], "fault at {vpn}");
        }
        // Good news about pages issued earlier does not wake it; only an
        // adjacent fault does.
        r.feedback(32, 32);
        assert_eq!(faults(&mut r, &[12]), vec![]);
    }

    #[test]
    fn one_adjacent_fault_wakes_a_quiet_readahead() {
        let mut r = Readahead::new();
        r.feedback(0, 32);
        assert_eq!(faults(&mut r, &[5000]), vec![]);
        assert_eq!(r.window(), 1);
        assert_eq!(faults(&mut r, &[5001]), vec![5002]);
        assert_eq!(r.window(), 2);
        assert_eq!(faults(&mut r, &[5002]), vec![5003, 5004, 5005]);
        assert_eq!(r.window(), 4);
        assert_eq!(faults(&mut r, &[5003]).len(), 7);
        assert_eq!(r.window(), 8);
        // Awake again: the next random fault keeps the minimum window.
        assert_eq!(faults(&mut r, &[40]), vec![41]);
    }

    #[test]
    fn one_eighth_or_better_never_silences() {
        let mut r = Readahead::new();
        for (hits, total) in [(4, 32), (1, 8), (5, 33), (32, 32), (0, 0)] {
            r.feedback(hits, total);
            assert_eq!(faults(&mut r, &[7000]), vec![7001], "{hits}/{total}");
        }
    }

    /// The retired rule, kept as the oracle: a non-sequential fault always
    /// falls back to `MIN_WINDOW`, whatever the tracker said.
    struct OldReadahead {
        last_vpn: u64,
        window: u32,
    }

    impl Prefetcher for OldReadahead {
        fn on_fault(&mut self, vpn: u64, out: &mut Vec<u64>) {
            let sequential = vpn > self.last_vpn && vpn - self.last_vpn <= self.window as u64;
            self.window = if sequential {
                (self.window * 2).min(Readahead::MAX_WINDOW)
            } else {
                Readahead::MIN_WINDOW
            };
            self.last_vpn = vpn;
            out.extend((1..self.window as u64).map(|i| vpn + i));
        }

        fn feedback(&mut self, hits: u32, total: u32) {
            if total > 0 && hits * 2 < total {
                self.window = (self.window / 2).max(Readahead::MIN_WINDOW);
            }
        }

        fn name(&self) -> &'static str {
            "old-readahead"
        }
    }

    /// Differential: while the tracker never reports fewer than one hit in
    /// eight, the quiet rule is unreachable and every fault emits what the
    /// old rule emitted — runs, jumps, strides inside the window and
    /// window-halving sweeps included. This is what keeps the scan-shaped
    /// tables byte-identical across the model change.
    #[test]
    fn readahead_matches_the_old_rule_while_feedback_is_never_poor() {
        for seed in 0..64 {
            let mut rng = SplitMix64::new(0xD1_05 + seed);
            let mut new = Readahead::new();
            let mut old = OldReadahead {
                last_vpn: u64::MAX,
                window: Readahead::MIN_WINDOW,
            };
            let mut vpn = rng.gen_range(1 << 20);
            for _ in 0..512 {
                vpn = match rng.gen_range(8) {
                    0 => {
                        let total = rng.gen_range(40) as u32;
                        let floor = total.div_ceil(8);
                        let hits = floor + rng.gen_range((total - floor + 1) as u64) as u32;
                        new.feedback(hits, total);
                        old.feedback(hits, total);
                        continue;
                    }
                    1 => rng.gen_range(1 << 20),
                    2 => vpn.saturating_sub(rng.gen_range(4)),
                    _ => vpn + 1 + rng.gen_range(9),
                };
                let want = faults(&mut old, &[vpn]);
                assert_eq!(faults(&mut new, &[vpn]), want, "seed {seed}, vpn {vpn}");
            }
        }
    }

    #[test]
    fn readahead_shrinks_on_bad_feedback() {
        let mut r = Readahead::new();
        faults(&mut r, &[1, 2, 3, 4]);
        assert_eq!(r.window(), 8);
        r.feedback(1, 8);
        assert_eq!(r.window(), 4);
        r.feedback(4, 8);
        assert_eq!(r.window(), 4, "good ratio keeps the window");
    }

    #[test]
    fn trend_finds_forward_stride() {
        let mut t = TrendBased::new();
        let seq: Vec<u64> = (0..8).map(|i| 100 + i * 2).collect();
        let out = faults(&mut t, &seq);
        assert!(!out.is_empty(), "majority stride of +2 must be detected");
        assert_eq!(out[0], 116, "first prediction continues the stride");
        assert!(out.windows(2).all(|w| w[1] - w[0] == 2));
    }

    #[test]
    fn trend_finds_backward_stride() {
        let mut t = TrendBased::new();
        let seq: Vec<u64> = (0..10).map(|i| 1_000 - i * 3).collect();
        let out = faults(&mut t, &seq);
        assert!(!out.is_empty());
        // Last fault was at 973; the stride is −3.
        assert_eq!(out[0], 970);
    }

    #[test]
    fn trend_stays_quiet_on_random_access() {
        let mut t = TrendBased::new();
        let seq = [5u64, 900, 33, 12_000, 7, 4_400, 210, 90_000, 3, 777];
        let out = faults(&mut t, &seq);
        assert!(out.is_empty(), "no majority trend in random access");
    }

    #[test]
    fn trend_survives_interleaved_noise() {
        // Two of eight strides are noise; the majority is still +1.
        let mut t = TrendBased::new();
        let seq = [10u64, 11, 12, 13, 500, 14, 15, 16, 17, 18];
        let mut out = Vec::new();
        for &v in &seq {
            out.clear();
            t.on_fault(v, &mut out);
        }
        assert!(!out.is_empty());
        assert_eq!(out[0], 19);
    }

    #[test]
    fn tracker_counts_accessed_prefetches() {
        let mut pt = PageTable::new();
        let mut tr = HitTracker::new();
        for vpn in 0..4u64 {
            pt.set(
                vpn,
                Pte::Local {
                    frame: vpn as u32,
                    accessed: false,
                    dirty: false,
                },
            );
            tr.track(vpn);
        }
        pt.mark_access(0, false);
        pt.mark_access(2, true);
        let (hits, total) = tr.sweep(&pt);
        assert_eq!((hits, total), (2, 4));
        assert_eq!(tr.pending(), 0);
        assert_eq!(tr.lifetime(), (2, 4));
    }

    #[test]
    fn tracker_batches_sweeps() {
        let pt = PageTable::new();
        let mut tr = HitTracker::new();
        for vpn in 0..(HitTracker::BATCH - 1) as u64 {
            tr.track(vpn);
        }
        assert!(tr.sweep_if_due(&pt).is_none());
        tr.track(99);
        assert!(tr.sweep_if_due(&pt).is_some());
    }
}
