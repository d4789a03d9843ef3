//! An exact O(1) LRU chain over `u64` keys.
//!
//! All three systems in this reproduction maintain a recency order over
//! their resident pages/chunks — DiLOS's page manager "inserts all newly
//! allocated pages into an LRU list" (§4.4), Linux keeps its two-list LRU,
//! and AIFM's evacuator tracks hot objects. [`LruChain`] is that list:
//! O(1) touch/insert/remove via an intrusive doubly-linked chain whose
//! link slots live in a chunked directory indexed directly by key, with
//! tail-first iteration for victim selection. Key sets are dense in
//! practice (frame indices, or VPNs within a working set), so the
//! directory stays compact; a base offset absorbs high key ranges.
//! Recency order lives in the chain itself — the store is position-blind,
//! so no allocator or hash order can leak into victim selection or the
//! trace.
//!
//! The chain emits nothing and counts nothing. Its owner traces
//! `LruInsert` when a key enters and `LruRemove` when one leaves
//! (re-inserting a tracked key is a touch and traces nothing), and the
//! `lru_inserts` / `lru_removes` counters are folded from those events by
//! the span profiler.

/// Keys per directory chunk (power of two).
const CHUNK: u64 = 256;
/// Link sentinel: "no neighbor".
const NONE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// More recently used neighbor ([`NONE`] at the head).
    prev: u64,
    /// Less recently used neighbor ([`NONE`] at the tail).
    next: u64,
    /// Whether the key is currently tracked.
    present: bool,
}

impl Slot {
    const EMPTY: Slot = Slot {
        prev: NONE,
        next: NONE,
        present: false,
    };
}

/// Extents closer than this many chunks coalesce into one; further apart
/// they stay separate, so one far-off key never inflates the directory.
const GROW_CHUNKS: u64 = 4096;

/// A contiguous run of slot chunks starting at chunk index `base`.
#[derive(Debug)]
struct Extent {
    base: u64,
    chunks: Vec<Option<Box<[Slot; CHUNK as usize]>>>,
}

/// An exact LRU chain: head = most recently used, tail = least.
#[derive(Debug)]
pub struct LruChain {
    /// Slot directory: a few sorted, non-overlapping extents (key sets are
    /// dense around one or two address bases, so this stays at 1–2 entries
    /// and lookup is two array indexes).
    dir: Vec<Extent>,
    /// Tracked-key count.
    len: usize,
    /// Most recently used key, [`NONE`] when empty.
    head: u64,
    /// Least recently used key, [`NONE`] when empty.
    tail: u64,
}

impl Default for LruChain {
    fn default() -> Self {
        Self::new()
    }
}

impl LruChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self {
            dir: Vec::new(),
            len: 0,
            head: NONE,
            tail: NONE,
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

    /// Whether `key` is tracked.
    pub fn contains(&self, key: u64) -> bool {
        self.slot(key).is_some_and(|s| s.present)
    }

    /// `(extent, chunk)` indices covering chunk `c`, if any extent does.
    fn locate(&self, c: u64) -> Option<(usize, usize)> {
        for (e, ext) in self.dir.iter().enumerate() {
            if c >= ext.base {
                let i = (c - ext.base) as usize;
                if i < ext.chunks.len() {
                    return Some((e, i));
                }
            }
        }
        None
    }

    fn slot(&self, key: u64) -> Option<&Slot> {
        let (e, i) = self.locate(key / CHUNK)?;
        let chunk = self.dir[e].chunks[i].as_ref()?;
        Some(&chunk[(key % CHUNK) as usize])
    }

    fn slot_mut(&mut self, key: u64) -> Option<&mut Slot> {
        let (e, i) = self.locate(key / CHUNK)?;
        let chunk = self.dir[e].chunks[i].as_mut()?;
        Some(&mut chunk[(key % CHUNK) as usize])
    }

    /// Slot of `key`, materializing its chunk (and extent) as needed.
    fn slot_entry(&mut self, key: u64) -> &mut Slot {
        let c = key / CHUNK;
        let (e, i) = match self.locate(c) {
            Some(at) => at,
            None => self.open_chunk(c),
        };
        let chunk =
            self.dir[e].chunks[i].get_or_insert_with(|| Box::new([Slot::EMPTY; CHUNK as usize]));
        &mut chunk[(key % CHUNK) as usize]
    }

    /// Grows the directory to cover chunk `c`: inserts a fresh extent in
    /// sorted position, then coalesces with neighbors closer than
    /// [`GROW_CHUNKS`] (the gap fills with unmaterialized chunks). Returns
    /// the `(extent, chunk)` indices of `c`.
    fn open_chunk(&mut self, c: u64) -> (usize, usize) {
        let pos = self
            .dir
            .iter()
            .position(|e| e.base > c)
            .unwrap_or(self.dir.len());
        self.dir.insert(
            pos,
            Extent {
                base: c,
                chunks: vec![None],
            },
        );
        let mut e = pos;
        if e + 1 < self.dir.len() && self.dir[e + 1].base - (c + 1) <= GROW_CHUNKS {
            let right = self.dir.remove(e + 1);
            let ext = &mut self.dir[e];
            ext.chunks
                .resize_with((right.base - ext.base) as usize, || None);
            ext.chunks.extend(right.chunks);
        }
        if e > 0 {
            let left_end = self.dir[e - 1].base + self.dir[e - 1].chunks.len() as u64;
            if c - left_end <= GROW_CHUNKS {
                let cur = self.dir.remove(e);
                e -= 1;
                let ext = &mut self.dir[e];
                ext.chunks
                    .resize_with((cur.base - ext.base) as usize, || None);
                ext.chunks.extend(cur.chunks);
            }
        }
        (e, (c - self.dir[e].base) as usize)
    }

    /// Detaches a tracked key from the chain (its slot stays present).
    fn unlink(&mut self, key: u64) {
        let Some(&l) = self.slot(key).filter(|s| s.present) else {
            return;
        };
        match if l.prev == NONE {
            None
        } else {
            self.slot_mut(l.prev)
        } {
            Some(p) => p.next = l.next,
            None => self.head = l.next,
        }
        match if l.next == NONE {
            None
        } else {
            self.slot_mut(l.next)
        } {
            Some(n) => n.prev = l.prev,
            None => self.tail = l.prev,
        }
    }

    fn push_head(&mut self, key: u64) {
        let old = self.head;
        let s = self.slot_entry(key);
        s.prev = NONE;
        s.next = old;
        s.present = true;
        if old != NONE {
            if let Some(o) = self.slot_mut(old) {
                o.prev = key;
            }
        }
        self.head = key;
        if self.tail == NONE {
            self.tail = key;
        }
    }

    /// Inserts `key` as most recently used (re-inserting touches it).
    pub fn insert(&mut self, key: u64) {
        if self.contains(key) {
            self.unlink(key);
        } else {
            self.len += 1;
        }
        self.push_head(key);
    }

    /// Marks `key` most recently used; no-op if untracked.
    pub fn touch(&mut self, key: u64) {
        if self.head == key {
            return;
        }
        if self.contains(key) {
            self.unlink(key);
            self.push_head(key);
        }
    }

    /// Removes `key`. Returns whether it was tracked.
    pub fn remove(&mut self, key: u64) -> bool {
        if self.contains(key) {
            self.unlink(key);
            if let Some(s) = self.slot_mut(key) {
                *s = Slot::EMPTY;
            }
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// The least recently used key.
    pub fn coldest(&self) -> Option<u64> {
        if self.tail == NONE {
            None
        } else {
            Some(self.tail)
        }
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
    cur: u64,
}

impl Iterator for IterCold<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.cur == NONE {
            return None;
        }
        let k = self.cur;
        self.cur = self.chain.slot(k).map_or(NONE, |l| l.prev);
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_orders_by_recency() {
        let mut l = LruChain::new();
        l.insert(1);
        l.insert(2);
        l.insert(3);
        assert_eq!(l.coldest(), Some(1));
        assert_eq!(l.iter_cold().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn touch_moves_to_head() {
        let mut l = LruChain::new();
        for k in 1..=4 {
            l.insert(k);
        }
        l.touch(1);
        assert_eq!(l.coldest(), Some(2));
        assert_eq!(l.iter_cold().collect::<Vec<_>>(), vec![2, 3, 4, 1]);
        // Touching the head is a cheap no-op.
        l.touch(1);
        assert_eq!(l.iter_cold().collect::<Vec<_>>(), vec![2, 3, 4, 1]);
    }

    #[test]
    fn remove_relinks() {
        let mut l = LruChain::new();
        for k in 1..=3 {
            l.insert(k);
        }
        assert!(l.remove(2));
        assert!(!l.remove(2));
        assert_eq!(l.iter_cold().collect::<Vec<_>>(), vec![1, 3]);
        assert!(l.remove(1));
        assert!(l.remove(3));
        assert!(l.is_empty());
        assert_eq!(l.coldest(), None);
    }

    #[test]
    fn untracked_touch_is_inert() {
        let mut l = LruChain::new();
        l.touch(9);
        assert!(l.is_empty());
        l.insert(1);
        l.touch(9);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn keys_far_apart_and_below_the_first_key_work() {
        let mut l = LruChain::new();
        // First key establishes a high directory base…
        l.insert(1 << 40);
        // …a far-higher key extends it, and a lower key re-bases it.
        l.insert((1 << 40) + 5_000_000);
        l.insert(3);
        assert_eq!(l.len(), 3);
        assert_eq!(
            l.iter_cold().collect::<Vec<_>>(),
            vec![1 << 40, (1 << 40) + 5_000_000, 3]
        );
        l.touch(1 << 40);
        assert_eq!(l.coldest(), Some((1 << 40) + 5_000_000));
        assert!(l.remove((1 << 40) + 5_000_000));
        assert_eq!(l.iter_cold().collect::<Vec<_>>(), vec![3, 1 << 40]);
    }

    #[test]
    fn heavy_mixed_usage_stays_consistent() {
        let mut l = LruChain::new();
        let mut rng = crate::rng::SplitMix64::new(1);
        let mut present = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let k = rng.gen_range(64);
            match rng.gen_range(3) {
                0 => {
                    l.insert(k);
                    present.insert(k);
                }
                1 => {
                    l.touch(k);
                }
                _ => {
                    l.remove(k);
                    present.remove(&k);
                }
            }
            assert_eq!(l.len(), present.len());
        }
        let seen: Vec<u64> = l.iter_cold().collect();
        assert_eq!(seen.len(), present.len());
        for k in seen {
            assert!(present.contains(&k));
        }
    }
}
