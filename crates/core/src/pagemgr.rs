//! Page-manager policy: the free-memory watermarks (§4.4).
//!
//! "The allocator inserts all newly allocated pages into an LRU list … When
//! the system is under memory pressure, the reclaimer evicts" from it. That
//! list is the node's exact LRU chain ([`dilos_sim::LruChain`]), and the
//! eviction I/O is orchestrated by the node ([`crate::node::Dilos`]); this
//! module owns the one policy decision left over — when the background
//! reclaimer starts and how far it refills — which keeps it unit-testable
//! in isolation.

/// Free-memory watermarks driving eager background eviction.
///
/// DiLOS "always keeps a few free pages by eagerly evicting the local cache"
/// so reclamation never runs in the fault path. When the free list drops
/// below `low`, the background reclaimer refills it to `high`.
#[derive(Debug, Clone, Copy)]
pub struct Watermarks {
    /// Trigger threshold: refill when free frames drop below this.
    pub low: usize,
    /// Refill target.
    pub high: usize,
}

impl Watermarks {
    /// Derives watermarks from the local cache size: 1/32 of frames low,
    /// 1/16 high, clamped to a sane minimum.
    pub fn for_cache(frames: usize) -> Self {
        let low = (frames / 32).clamp(2, 256);
        let high = (frames / 16).clamp(4, 512).max(low + 2);
        Self { low, high }
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
