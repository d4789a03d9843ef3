//! Serially-occupied resource timelines.
//!
//! A [`Timeline`] models a resource that serves one request at a time — a
//! queue pair's doorbell processing, the network link's wire time, the
//! cleaner thread's CPU. Requests acquire the resource for a duration; if it
//! is busy, they queue behind the current occupancy. This is the backbone of
//! the virtual-time model: contention and head-of-line blocking fall out of
//! the `busy_until` bookkeeping with no event calendar needed.

use crate::time::Ns;

/// A resource that serves requests one at a time, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    busy_until: Ns,
    total_busy: Ns,
    acquisitions: u64,
}

impl Timeline {
    /// Creates an idle timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the resource at `now` for `dur`, returning `(start, end)`.
    ///
    /// If the resource is busy, `start` is delayed to when it frees up. The
    /// resource is then busy until `end`.
    pub fn acquire(&mut self, now: Ns, dur: Ns) -> (Ns, Ns) {
        let start = now.max(self.busy_until);
        let end = start.saturating_add(dur);
        self.busy_until = end;
        self.total_busy = self.total_busy.saturating_add(dur);
        self.acquisitions += 1;
        (start, end)
    }

    /// Returns when the resource next becomes free.
    pub fn busy_until(&self) -> Ns {
        self.busy_until
    }

    /// The earliest instant, no earlier than `now`, at which the resource
    /// can start new work. This is the scheduling hook the event calendar
    /// uses: background daemons (the reclaimer, the offload core) schedule
    /// their next tick at `next_free(now)` instead of pretending the
    /// resource was idle.
    pub fn next_free(&self, now: Ns) -> Ns {
        self.busy_until.max(now)
    }

    /// Total busy time accumulated (for utilization reporting).
    pub fn total_busy(&self) -> Ns {
        self.total_busy
    }

    /// Number of acquisitions served.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut t = Timeline::new();
        let (s, e) = t.acquire(100, 50);
        assert_eq!((s, e), (100, 150));
        assert_eq!(t.busy_until(), 150);
    }

    #[test]
    fn busy_resource_queues() {
        let mut t = Timeline::new();
        t.acquire(0, 100);
        // A request arriving at t=10 waits for the first to finish.
        let (s, e) = t.acquire(10, 20);
        assert_eq!((s, e), (100, 120));
        assert_eq!(t.total_busy(), 120);
        assert_eq!(t.acquisitions(), 2);
    }

    #[test]
    fn gaps_are_idle_time() {
        let mut t = Timeline::new();
        t.acquire(0, 10);
        let (s, _) = t.acquire(1000, 10);
        assert_eq!(s, 1000, "resource idles between requests");
        assert_eq!(t.total_busy(), 20);
    }

    #[test]
    fn next_free_is_now_when_idle_and_busy_until_when_not() {
        let mut t = Timeline::new();
        assert_eq!(t.next_free(40), 40, "idle resource is free immediately");
        t.acquire(0, 100);
        assert_eq!(t.next_free(40), 100);
        assert_eq!(t.next_free(250), 250);
    }
}
