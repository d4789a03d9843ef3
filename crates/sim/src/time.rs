//! Virtual-time primitives.
//!
//! All durations and instants in the simulation are expressed in virtual
//! nanoseconds ([`Ns`]). Each simulated CPU core owns a [`CoreClock`]; the
//! clock only moves forward, and every cost the paper measures (exception
//! delivery, handler software, RDMA completion waits) is charged by advancing
//! it.

/// A virtual-time instant or duration, in nanoseconds.
pub type Ns = u64;

/// The page size used throughout DiLOS, matching the x86-64 base page.
pub const PAGE_SIZE: usize = 4096;

/// Base-2 logarithm of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Splits the byte range `[addr, addr + len)` at page boundaries: one
/// `(page number, offset in page, span of the caller's buffer)` per page
/// touched, in address order. Every page-granular copy loop — the compute
/// nodes' access paths, the memory node's store walk — iterates this.
#[inline]
pub fn page_chunks(
    addr: u64,
    len: usize,
) -> impl Iterator<Item = (u64, usize, std::ops::Range<usize>)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        if done >= len {
            return None;
        }
        let a = addr + done as u64;
        let off = (a % PAGE_SIZE as u64) as usize;
        let span = done..done + (PAGE_SIZE - off).min(len - done);
        done = span.end;
        Some((a >> PAGE_SHIFT, off, span))
    })
}

/// Converts a CPU cycle count to nanoseconds at the given clock rate.
///
/// The paper's testbed runs at 2.3 GHz; §6.2 expresses the AIFM TCP handicap
/// as "14,000 cycles", which this helper converts.
pub fn cycles_to_ns(cycles: u64, ghz: f64) -> Ns {
    (cycles as f64 / ghz) as Ns
}

/// One simulated CPU core's monotonically increasing clock.
///
/// The simulation is logically single-threaded: workload drivers interleave
/// per-core work explicitly and the shared resources ([`Timeline`]s) resolve
/// contention. A `CoreClock` never moves backwards.
///
/// [`Timeline`]: crate::timeline::Timeline
#[derive(Debug, Clone, Default)]
pub struct CoreClock {
    now: Ns,
}

impl CoreClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self { now: 0 }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Charges `dur` nanoseconds of work to this core.
    pub fn advance(&mut self, dur: Ns) {
        self.now += dur;
    }

    /// Blocks this core until `deadline` (no-op if already past it).
    pub fn wait_until(&mut self, deadline: Ns) {
        self.now = self.now.max(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_waits() {
        let mut c = CoreClock::new();
        assert_eq!(c.now(), 0);
        c.advance(100);
        assert_eq!(c.now(), 100);
        c.wait_until(50);
        assert_eq!(c.now(), 100, "waiting for the past is a no-op");
        c.wait_until(250);
        assert_eq!(c.now(), 250);
    }

    #[test]
    fn cycles_conversion_matches_paper_handicap() {
        // 14,000 cycles at 2.3 GHz is roughly 6.09 µs (§6.2 footnote 2).
        let ns = cycles_to_ns(14_000, 2.3);
        assert!((6_000..6_200).contains(&ns), "got {ns}");
    }
}
