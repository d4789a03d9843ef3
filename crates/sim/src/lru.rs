//! An exact O(1) LRU chain over dense `u64` keys.
//!
//! All three systems in this reproduction maintain a recency order over
//! their resident pages/chunks — DiLOS's page manager puts every new page
//! on one LRU list (§4.4), Linux keeps its two-list LRU,
//! and AIFM's evacuator tracks hot objects. [`LruChain`] is that list: an
//! intrusive doubly-linked chain with O(1) touch/insert/remove and
//! tail-first iteration for victim selection.
//!
//! The links live in one flat `Vec`, one 8-byte link per key of the window
//! `base..base + links.len()`, at index `key - base`. Neighbours are `u32`
//! indices, and two reserved values mean "no neighbour" and "not tracked",
//! so each step of `unlink`/`push_head` is one bounds-checked index. The
//! first insert sets `base`, a higher key extends the window, and a lower
//! key rebases it (prepending idle links and shifting stored indices). Only
//! `insert` grows the window: `touch`, `contains` and `remove` of a key
//! outside it are no-ops. Keys must be dense: the window costs 8 B per key
//! of its span, and an `assert!` rejects a span of 2³² − 2 keys or more.
//! DiLOS keys the chain by frame number, Fastswap by VPN in its brk'd
//! range. Recency order lives in the links alone, so neither key values
//! nor a rebase can leak into victim selection or the trace.
//!
//! The chain emits nothing and counts nothing. Its owner traces
//! `LruInsert` when a key enters and `LruRemove` when one leaves
//! (re-inserting a tracked key is a touch and traces nothing); the events'
//! `vpn` field carries the owner's key. The `lru_inserts` / `lru_removes`
//! counters are folded from those events by the span profiler.

/// Link value "no neighbour": the head's `prev`, the tail's `next`, and
/// `head`/`tail` of an empty chain.
const NIL: u32 = u32::MAX;
/// Link value "not tracked", held in both fields of an idle link.
const IDLE: u32 = u32::MAX - 1;
/// The window spans fewer keys than this, so every index stays below the
/// two reserved values.
const MAX_SPAN: u64 = IDLE as u64;

/// One key's place in the chain: its neighbours' indices.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// More recently used neighbour ([`NIL`] at the head).
    prev: u32,
    /// Less recently used neighbour ([`NIL`] at the tail).
    next: u32,
}

impl Link {
    const IDLE: Link = Link {
        prev: IDLE,
        next: IDLE,
    };
}

/// An exact LRU chain: head = most recently used, tail = least.
#[derive(Debug)]
pub struct LruChain {
    /// One link per key of the window, at index `key - base`.
    links: Vec<Link>,
    /// Key of `links[0]`.
    base: u64,
    /// Tracked-key count.
    len: usize,
    /// Index of the most recently used key, [`NIL`] when empty.
    head: u32,
    /// Index of the least recently used key, [`NIL`] when empty.
    tail: u32,
}

impl Default for LruChain {
    fn default() -> Self {
        Self::new()
    }
}

/// Panics unless a window whose last index is `last` spans fewer than
/// [`MAX_SPAN`] keys.
fn check_span(last: u64) {
    assert!(
        last < MAX_SPAN - 1,
        "LruChain keys must be dense: a span of {MAX_SPAN} keys or more"
    );
}

impl LruChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self {
            links: Vec::new(),
            base: 0,
            len: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of `key` if it lies in the window.
    #[inline]
    fn index(&self, key: u64) -> Option<u32> {
        // A key below `base` wraps past every index.
        let i = key.wrapping_sub(self.base);
        (i < self.links.len() as u64).then_some(i as u32)
    }

    /// Index of `key` if it is tracked.
    #[inline]
    fn tracked(&self, key: u64) -> Option<u32> {
        let i = self.index(key)?;
        (self.links[i as usize].prev != IDLE).then_some(i)
    }

    /// Whether `key` is tracked.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.tracked(key).is_some()
    }

    /// Widens the window to cover `key` and returns its index.
    fn grow(&mut self, key: u64) -> u32 {
        if self.links.is_empty() {
            self.base = key;
        } else if key < self.base {
            self.rebase(key);
        }
        let i = key - self.base;
        if i >= self.links.len() as u64 {
            check_span(i);
            self.links.resize(i as usize + 1, Link::IDLE);
        }
        i as u32
    }

    /// Moves `base` down to `key`: prepends idle links and shifts every
    /// stored index by as many. It costs O(span), so it must stay rare:
    /// DiLOS rebases once, because its first frame is its highest.
    fn rebase(&mut self, key: u64) {
        check_span(self.base + (self.links.len() as u64 - 1) - key);
        let shift = (self.base - key) as u32;
        // The reserved values are the two largest; they keep their meaning.
        let up = |i: u32| if i >= IDLE { i } else { i + shift };
        let mut links = vec![Link::IDLE; shift as usize];
        links.extend(self.links.iter().map(|l| Link {
            prev: up(l.prev),
            next: up(l.next),
        }));
        self.links = links;
        self.head = up(self.head);
        self.tail = up(self.tail);
        self.base = key;
    }

    /// Detaches the tracked link at `i` from the chain.
    #[inline]
    fn unlink(&mut self, i: u32) {
        let Link { prev, next } = self.links[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    /// Links `i` in as most recently used.
    #[inline]
    fn push_head(&mut self, i: u32) {
        let old = self.head;
        self.links[i as usize] = Link {
            prev: NIL,
            next: old,
        };
        match old {
            NIL => self.tail = i,
            o => self.links[o as usize].prev = i,
        }
        self.head = i;
    }

    /// Moves the tracked link at `i` to the head.
    #[inline]
    fn promote(&mut self, i: u32) {
        if i != self.head {
            self.unlink(i);
            self.push_head(i);
        }
    }

    /// Inserts `key` as most recently used (re-inserting touches it).
    #[inline]
    pub fn insert(&mut self, key: u64) {
        let i = match self.index(key) {
            Some(i) if self.links[i as usize].prev != IDLE => return self.promote(i),
            Some(i) => i,
            None => self.grow(key),
        };
        self.len += 1;
        self.push_head(i);
    }

    /// Marks `key` most recently used; no-op if untracked.
    #[inline]
    pub fn touch(&mut self, key: u64) {
        if let Some(i) = self.tracked(key) {
            self.promote(i);
        }
    }

    /// Removes `key`. Returns whether it was tracked.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(i) = self.tracked(key) else {
            return false;
        };
        self.unlink(i);
        self.links[i as usize] = Link::IDLE;
        self.len -= 1;
        true
    }

    /// The least recently used key.
    pub fn coldest(&self) -> Option<u64> {
        (self.tail != NIL).then(|| self.base + u64::from(self.tail))
    }

    /// Iterates from coldest to hottest (victim scanning).
    pub fn iter_cold(&self) -> IterCold<'_> {
        IterCold {
            chain: self,
            cur: self.tail,
        }
    }
}

/// Cold-to-hot iterator.
#[derive(Debug)]
pub struct IterCold<'a> {
    chain: &'a LruChain,
    cur: u32,
}

impl Iterator for IterCold<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.cur == NIL {
            return None;
        }
        let i = self.cur;
        self.cur = self.chain.links[i as usize].prev;
        Some(self.chain.base + u64::from(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold(l: &LruChain) -> Vec<u64> {
        l.iter_cold().collect()
    }

    #[test]
    fn touch_moves_to_head() {
        let mut l = LruChain::new();
        l.touch(9);
        assert!(l.is_empty());
        for k in 1..=4 {
            l.insert(k);
        }
        assert_eq!(cold(&l), vec![1, 2, 3, 4]);
        l.touch(1);
        assert_eq!(l.coldest(), Some(2));
        assert_eq!(cold(&l), vec![2, 3, 4, 1]);
        // Touching the head, or an untracked key, is a no-op.
        l.touch(1);
        l.touch(9);
        assert_eq!(cold(&l), vec![2, 3, 4, 1]);
    }

    #[test]
    fn remove_relinks() {
        let mut l = LruChain::new();
        for k in 1..=3 {
            l.insert(k);
        }
        assert!(l.remove(2));
        assert!(!l.remove(2));
        assert_eq!(cold(&l), vec![1, 3]);
        assert!(l.remove(1));
        assert!(l.remove(3));
        assert!(l.is_empty());
        assert_eq!(l.coldest(), None);
    }

    #[test]
    fn one_window_rebases_below_the_first_key_and_ignores_keys_outside() {
        const B: u64 = 1 << 40;
        let mut l = LruChain::new();
        // The first key sets the base, a higher key extends the window…
        l.insert(B);
        l.insert(B + 5_000);
        // …and a lower one rebases it; order and membership survive.
        l.insert(B - 3_000);
        assert_eq!((l.len(), l.base), (3, B - 3_000));
        assert_eq!(cold(&l), vec![B, B + 5_000, B - 3_000]);
        l.touch(B);
        assert_eq!(l.coldest(), Some(B + 5_000));
        assert!(l.remove(B + 5_000));
        assert_eq!(cold(&l), vec![B - 3_000, B]);
        // Keys outside the window change nothing and never widen it.
        let (base, span) = (l.base, l.links.len());
        for k in [3, base - 1, base + span as u64, u64::MAX] {
            l.touch(k);
            assert!(!l.contains(k));
            assert!(!l.remove(k));
        }
        assert_eq!((l.base, l.links.len()), (base, span));
        assert_eq!(cold(&l), vec![B - 3_000, B]);
    }

    #[test]
    fn the_two_top_keys_of_u64_are_ordinary_keys() {
        let mut l = LruChain::new();
        l.insert(u64::MAX - 1);
        l.insert(u64::MAX);
        assert_eq!(l.len(), 2);
        assert_eq!(cold(&l), vec![u64::MAX - 1, u64::MAX]);
        l.touch(u64::MAX - 1);
        assert_eq!(l.coldest(), Some(u64::MAX));
        assert_eq!(cold(&l), vec![u64::MAX, u64::MAX - 1]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn a_span_of_two_to_the_32_keys_is_rejected() {
        let mut l = LruChain::new();
        l.insert(7);
        l.insert(7 + (1 << 32));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn a_rebase_to_a_span_of_two_to_the_32_keys_is_rejected() {
        let mut l = LruChain::new();
        l.insert(7 + (1 << 32));
        l.insert(7);
    }
}
