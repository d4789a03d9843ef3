//! Page-store backends for the memory node.
//!
//! The memory node's pool is sparse — pages that were never written read
//! back as zeros — and its enumeration order feeds the repair path and
//! therefore the trace, so any backend must enumerate pages in ascending
//! page-number order. [`MemStore`] captures exactly that contract; the
//! node itself does not care how pages are laid out.
//!
//! [`FlatStore`] implements it: a chunked page directory mapping page
//! numbers to dense slots, with a per-slot *extent* — the byte length of
//! the non-zero prefix. Lookups are two array indexes instead of a
//! `BTreeMap` walk, and reads/writes touch only the live prefix of each
//! page (workloads that write a few bytes per page never pay 4 KB copies).
//! Unit tests hold it against `BTreeStore`, the original ordered-map layout
//! kept as their reference implementation.
//!
//! The extent invariant: every byte of a slot at offset `>= extent` is zero.
//! Writes maintain it by trimming trailing zeros off the incoming data and
//! explicitly zeroing any stale bytes the trimmed write would have covered.

use std::collections::BTreeMap;

use crate::time::PAGE_SIZE;

/// Pages per directory chunk in [`FlatStore`] (must be a power of two).
const CHUNK_PAGES: usize = 512;
const CHUNK_SHIFT: u32 = CHUNK_PAGES.trailing_zeros();
/// Directory entry meaning "page not materialized".
const NO_SLOT: u32 = u32::MAX;

/// Storage contract for the memory node's sparse page pool.
///
/// `page` is an absolute page number (`addr / PAGE_SIZE`); `in_page` offsets
/// within it. Callers never hand a range that crosses a page boundary.
pub trait MemStore: std::fmt::Debug {
    /// Copies `out.len()` bytes of `page` starting at `in_page` into `out`.
    /// Bytes that were never written read as zero.
    ///
    /// Returns an upper bound on the non-zero prefix of `out`: every byte of
    /// `out` at or past the returned index is zero. Backends without extent
    /// metadata may return `out.len()` — the bound is a performance hint for
    /// the caller's own extent bookkeeping, never a semantic contract.
    ///
    /// This is [`read_hinted`](Self::read_hinted) for a buffer of unknown
    /// prior content (`live_in = out.len()`): every byte of `out` is written.
    fn read_into(&self, page: u64, in_page: usize, out: &mut [u8]) -> usize {
        self.read_hinted(page, in_page, out, out.len())
    }

    /// [`read_into`](Self::read_into) for a buffer whose prior content the
    /// caller knows: `live_in` is the caller's promise that `out[live_in..]`
    /// is already all zero (the mirror image of [`write_at`](Self::write_at)'s
    /// `live`). It lets extent-tracking backends zero only the stale bytes
    /// between the page's live prefix and `live_in` instead of the whole
    /// tail; it never changes the bytes `out` ends up holding or the returned
    /// bound, and a backend may ignore it. A broken promise leaves stale
    /// bytes in `out`, so backends that rely on it check it in debug builds.
    fn read_hinted(&self, page: u64, in_page: usize, out: &mut [u8], live_in: usize) -> usize;

    /// Copies `data` into `page` at `in_page`, materializing the page if
    /// absent (even for all-zero data — materialization is observable via
    /// [`page_numbers`](Self::page_numbers)).
    ///
    /// `live` is the caller's promise that `data[live..]` is all zero (pass
    /// `data.len()` when unknown). It lets extent-tracking backends bound
    /// their trailing-zero scan to the prefix the writer actually touched
    /// instead of re-reading a page of cold zeros; it never changes the
    /// stored bytes.
    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], live: usize);

    /// Number of materialized pages.
    fn len(&self) -> usize;

    /// Whether no page is materialized.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialized page numbers, ascending. Repair walks this, and the walk
    /// order feeds the trace — ascending order is part of the contract.
    fn page_numbers(&self) -> Vec<u64>;

    /// Borrow of one materialized page's full content, `None` if absent.
    fn snapshot(&self, page: u64) -> Option<&[u8; PAGE_SIZE]>;

    /// Installs a full page verbatim (control path: repair/recovery).
    fn install(&mut self, page: u64, data: &[u8; PAGE_SIZE]);

    /// Drops every page (node crash).
    fn clear(&mut self);

    /// Full image of the pool, for checkpoint sealing.
    fn snapshot_all(&self) -> BTreeMap<u64, Box<[u8; PAGE_SIZE]>>;
}

/// Length of `data` with trailing zeros trimmed: the index one past the
/// last non-zero byte, 0 for all-zero input.
fn content_len(data: &[u8]) -> usize {
    let mut n = data.len();
    // Wide scan first: drop 64-byte all-zero blocks with eight u64 loads
    // (a mostly-zero 4 KiB page costs ~64 iterations instead of ~512).
    while n >= 64 {
        let mut acc = 0u64;
        for w in data[n - 64..n].chunks_exact(8) {
            acc |= u64::from_le_bytes(w.try_into().unwrap_or([0u8; 8]));
        }
        if acc != 0 {
            break;
        }
        n -= 64;
    }
    while n >= 8 && data[n - 8..n] == [0u8; 8] {
        n -= 8;
    }
    while n > 0 && data[n - 1] == 0 {
        n -= 1;
    }
    n
}

/// Chunked-directory page store with per-page live extents (default).
#[derive(Debug, Default)]
pub struct FlatStore {
    /// `page >> CHUNK_SHIFT` indexes a chunk; each chunk maps the low bits
    /// to a slot index, [`NO_SLOT`] marking absent pages.
    dir: Vec<Option<Box<[u32; CHUNK_PAGES]>>>,
    /// Page contents. Invariant: bytes at offset `>= extents[i]` are zero.
    slots: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Non-zero prefix length of each slot.
    extents: Vec<u32>,
}

impl FlatStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot_of(&self, page: u64) -> Option<usize> {
        let chunk = self.dir.get((page >> CHUNK_SHIFT) as usize)?.as_ref()?;
        match chunk[(page & (CHUNK_PAGES as u64 - 1)) as usize] {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }

    fn slot_or_insert(&mut self, page: u64) -> usize {
        let c = (page >> CHUNK_SHIFT) as usize;
        if c >= self.dir.len() {
            self.dir.resize_with(c + 1, || None);
        }
        let next = self.slots.len() as u32;
        let chunk = self.dir[c].get_or_insert_with(|| Box::new([NO_SLOT; CHUNK_PAGES]));
        let entry = &mut chunk[(page & (CHUNK_PAGES as u64 - 1)) as usize];
        if *entry == NO_SLOT {
            *entry = next;
            self.slots.push(Box::new([0u8; PAGE_SIZE]));
            self.extents.push(0);
        }
        *entry as usize
    }
}

impl MemStore for FlatStore {
    fn read_hinted(&self, page: u64, in_page: usize, out: &mut [u8], live_in: usize) -> usize {
        let stale = live_in.min(out.len());
        debug_assert!(
            out[stale..].iter().all(|&b| b == 0),
            "read hint broken: non-zero byte at or past live_in = {live_in}"
        );
        let live = match self.slot_of(page) {
            Some(s) => {
                let live = (self.extents[s] as usize)
                    .saturating_sub(in_page)
                    .min(out.len());
                out[..live].copy_from_slice(&self.slots[s][in_page..in_page + live]);
                live
            }
            None => 0,
        };
        // Past `live` the page is zero; past `stale` the buffer already is.
        out[live..live.max(stale)].fill(0);
        live
    }

    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], live: usize) {
        let s = self.slot_or_insert(page);
        let eff = content_len(&data[..live.min(data.len())]);
        let slot = &mut self.slots[s];
        slot[in_page..in_page + eff].copy_from_slice(&data[..eff]);
        // The trimmed tail of the write may cover stale bytes below the old
        // extent; zero them to restore the extent invariant. At or above the
        // old extent the slot is already zero.
        let old_ext = self.extents[s] as usize;
        let zero_end = (in_page + data.len()).min(old_ext);
        let zero_start = (in_page + eff).min(zero_end);
        slot[zero_start..zero_end].fill(0);
        self.extents[s] = old_ext.max(in_page + eff) as u32;
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn page_numbers(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.slots.len());
        for (c, chunk) in self.dir.iter().enumerate() {
            let Some(chunk) = chunk else { continue };
            for (i, &slot) in chunk.iter().enumerate() {
                if slot != NO_SLOT {
                    out.push(((c << CHUNK_SHIFT) | i) as u64);
                }
            }
        }
        out
    }

    fn snapshot(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.slot_of(page).map(|s| &*self.slots[s])
    }

    fn install(&mut self, page: u64, data: &[u8; PAGE_SIZE]) {
        let s = self.slot_or_insert(page);
        *self.slots[s] = *data;
        self.extents[s] = content_len(data) as u32;
    }

    fn clear(&mut self) {
        self.dir.clear();
        self.slots.clear();
        self.extents.clear();
    }

    fn snapshot_all(&self) -> BTreeMap<u64, Box<[u8; PAGE_SIZE]>> {
        let mut out = BTreeMap::new();
        for p in self.page_numbers() {
            if let Some(s) = self.slot_of(p) {
                out.insert(p, self.slots[s].clone());
            }
        }
        out
    }
}

/// Ordered-map page store: the original layout, kept as the reference
/// backend for differential tests against [`FlatStore`].
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct BTreeStore {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>,
}

#[cfg(test)]
impl From<BTreeMap<u64, Box<[u8; PAGE_SIZE]>>> for BTreeStore {
    fn from(pages: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>) -> Self {
        Self { pages }
    }
}

#[cfg(test)]
impl MemStore for BTreeStore {
    fn read_hinted(&self, page: u64, in_page: usize, out: &mut [u8], _live_in: usize) -> usize {
        match self.pages.get(&page) {
            Some(p) => {
                out.copy_from_slice(&p[in_page..in_page + out.len()]);
                out.len()
            }
            None => {
                out.fill(0);
                0
            }
        }
    }

    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], _live: usize) {
        let p = self
            .pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        p[in_page..in_page + data.len()].copy_from_slice(data);
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn page_numbers(&self) -> Vec<u64> {
        self.pages.keys().copied().collect()
    }

    fn snapshot(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&page).map(|b| &**b)
    }

    fn install(&mut self, page: u64, data: &[u8; PAGE_SIZE]) {
        self.pages.insert(page, Box::new(*data));
    }

    fn clear(&mut self) {
        self.pages.clear();
    }

    fn snapshot_all(&self) -> BTreeMap<u64, Box<[u8; PAGE_SIZE]>> {
        self.pages.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_len_trims_trailing_zeros_only() {
        assert_eq!(content_len(&[]), 0);
        assert_eq!(content_len(&[0; 64]), 0);
        assert_eq!(content_len(&[1, 0, 0]), 1);
        assert_eq!(content_len(&[0, 0, 7]), 3);
        let mut page = [0u8; PAGE_SIZE];
        page[100] = 5;
        assert_eq!(content_len(&page), 101);
        page[PAGE_SIZE - 1] = 9;
        assert_eq!(content_len(&page), PAGE_SIZE);
    }

    /// Drives both backends through the same mixed op sequence and checks
    /// they agree byte-for-byte at every step.
    #[test]
    fn flat_and_btree_stores_agree() {
        let mut flat = FlatStore::new();
        let mut btree = BTreeStore::default();
        // Deterministic mix of aligned/misaligned, zero/non-zero writes,
        // overwrites that shrink the live prefix, and far-apart pages.
        // `(page, off, data, live)`: `live` is the caller hint — sometimes
        // exact, sometimes the loose `data.len()` bound.
        let writes: &[(u64, usize, &[u8], usize)] = &[
            (0, 0, &[1, 2, 3, 4, 5, 6, 7, 8], 8),
            (0, 4, &[0, 0, 0, 0], 0), // zeros stale bytes mid-prefix
            (3, 4090, &[9; 6], 6),    // tail of a page
            (700, 128, &[0xAB; 256], 256),
            (700, 128, &[0; 256], 256), // overwrite content with zeros
            (u64::from(u32::MAX) + 5, 0, &[42], 1), // far chunk
            (1, 0, &[0; 16], 16),       // all-zero write still materializes
        ];
        for &(page, off, data, live) in writes {
            flat.write_at(page, off, data, live);
            btree.write_at(page, off, data, live);
            assert_eq!(flat.len(), btree.len());
            assert_eq!(flat.page_numbers(), btree.page_numbers());
            for &p in &btree.page_numbers() {
                assert_eq!(flat.snapshot(p), btree.snapshot(p), "page {p}");
                let (mut a, mut b) = ([0u8; 100], [0u8; 100]);
                flat.read_into(p, 37, &mut a);
                btree.read_into(p, 37, &mut b);
                assert_eq!(a, b, "partial read of page {p}");
            }
        }
        // Absent pages read zero from both.
        let (mut a, mut b) = ([7u8; 64], [7u8; 64]);
        flat.read_into(999_999, 0, &mut a);
        btree.read_into(999_999, 0, &mut b);
        assert_eq!(a, [0; 64]);
        assert_eq!(b, [0; 64]);
        // Full images agree, and survive a clear.
        assert_eq!(flat.snapshot_all(), btree.snapshot_all());
        flat.clear();
        btree.clear();
        assert_eq!(flat.len(), 0);
        assert_eq!(btree.len(), 0);
        assert!(flat.page_numbers().is_empty());
    }

    /// The hinted read zeroes exactly `out[live_out..live_in]`: nothing when
    /// the page's prefix covers the stale bytes, the whole stale prefix when
    /// the page is absent — and the result never differs from a full fill.
    #[test]
    fn hinted_read_zeroes_only_the_stale_gap() {
        let mut s = FlatStore::new();
        s.write_at(2, 0, &[0xEE; 300], 300);
        for (page, in_page, live_in, live_out) in [
            (2, 0, 1000, 300),  // stale bytes past the page's prefix
            (2, 0, 100, 300),   // live_in < live_out: the copy covers them
            (2, 0, 0, 300),     // clean buffer
            (2, 200, 512, 100), // offset read: extent is relative to in_page
            (2, 400, 64, 0),    // read entirely past the extent
            (9, 0, 777, 0),     // absent page
            (9, 0, 0, 0),       // absent page, clean buffer
        ] {
            let mut hinted = [0u8; 1024];
            hinted[..live_in].fill(0x55);
            let mut full = hinted;
            assert_eq!(s.read_hinted(page, in_page, &mut hinted, live_in), live_out);
            assert_eq!(s.read_into(page, in_page, &mut full), live_out);
            assert_eq!(hinted, full, "page {page} +{in_page} live_in {live_in}");
            assert!(hinted[..live_out].iter().all(|&b| b == 0xEE));
            assert!(hinted[live_out..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn extent_invariant_holds_after_shrinking_overwrites() {
        let mut s = FlatStore::new();
        s.write_at(5, 0, &[0xFF; 1024], 1024);
        // Overwrite most of the prefix with zeros: the trimmed write must
        // still zero the stale 0xFF bytes it covers — even when the caller's
        // live hint says the payload has no non-zero content at all.
        s.write_at(5, 8, &[0; 1016], 0);
        let snap = s.snapshot(5).unwrap();
        assert!(snap[..8].iter().all(|&b| b == 0xFF));
        assert!(snap[8..].iter().all(|&b| b == 0));
        let mut out = [9u8; 2048];
        s.read_into(5, 0, &mut out);
        assert_eq!(&out[..8], &[0xFF; 8]);
        assert!(out[8..].iter().all(|&b| b == 0));
    }
}
