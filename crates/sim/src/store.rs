//! Page-store backends for the memory node.
//!
//! The memory node's pool is sparse — pages that were never written read
//! back as zeros — and its enumeration order feeds the repair path and
//! therefore the trace, so any backend must enumerate pages in ascending
//! page-number order. [`MemStore`] captures exactly that contract; the
//! node itself does not care how pages are laid out.
//!
//! [`FlatStore`] implements it: a chunked page directory mapping page
//! numbers to dense slots. Lookups are two array indexes instead of a
//! `BTreeMap` walk. Whole pages move as shared [`Page`] images
//! ([`MemStore::share`], [`MemStore::put`]), never copied; sub-page reads
//! and writes copy the bytes they name. Every write to an image's bytes
//! goes through `Rc::make_mut`, so an image a reader holds never changes
//! under it. Unit tests hold it against `BTreeStore`, the original
//! ordered-map layout kept as their reference implementation.

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::time::PAGE_SIZE;

/// One page's bytes as a copy-on-write image: the store's slot and the
/// frame that fetched it hold the same allocation until one of them writes
/// (through `Rc::make_mut`, the only `&mut` to an image's bytes).
pub type Page = Rc<[u8; PAGE_SIZE]>;

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
    /// Bytes that were never written read as zero; every byte of `out` is
    /// written.
    fn read_into(&self, page: u64, in_page: usize, out: &mut [u8]);

    /// The whole of `page` as a shared image (all zeros if the page is
    /// absent). Reading does not materialize the page.
    fn share(&self, page: u64) -> Page;

    /// Copies `data` into `page` at `in_page`, materializing the page if
    /// absent (even for all-zero data — materialization is observable via
    /// [`page_numbers`](Self::page_numbers)).
    ///
    /// `_live` is unused. It is a compatibility shim for existing callers
    /// and goes with the verb shims (ROADMAP item 5).
    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], _live: usize);

    /// Replaces the whole of `page` with `image`, materializing the page if
    /// absent: the bytes [`write_at`](Self::write_at) of the full image
    /// would store, without copying them.
    fn put(&mut self, page: u64, image: Page);

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

/// Chunked-directory page store (default).
#[derive(Debug)]
pub struct FlatStore {
    /// `page >> CHUNK_SHIFT` indexes a chunk; each chunk maps the low bits
    /// to a slot index, [`NO_SLOT`] marking absent pages.
    dir: Vec<Option<Box<[u32; CHUNK_PAGES]>>>,
    /// Page contents.
    slots: Vec<Page>,
    /// What a new slot starts as and an absent page is shared as; the
    /// store's own reference keeps every holder from writing it in place.
    zero: Page,
}

impl Default for FlatStore {
    fn default() -> Self {
        Self {
            dir: Vec::new(),
            slots: Vec::new(),
            zero: Rc::new([0; PAGE_SIZE]),
        }
    }
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

    /// The stored image of `page`, the zero image if absent.
    fn image(&self, page: u64) -> &Page {
        self.slot_of(page).map_or(&self.zero, |s| &self.slots[s])
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
            self.slots.push(Rc::clone(&self.zero));
        }
        *entry as usize
    }
}

impl MemStore for FlatStore {
    fn read_into(&self, page: u64, in_page: usize, out: &mut [u8]) {
        let image = self.image(page);
        out.copy_from_slice(&image[in_page..in_page + out.len()]);
    }

    fn share(&self, page: u64) -> Page {
        Rc::clone(self.image(page))
    }

    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], _live: usize) {
        let s = self.slot_or_insert(page);
        Rc::make_mut(&mut self.slots[s])[in_page..in_page + data.len()].copy_from_slice(data);
    }

    fn put(&mut self, page: u64, image: Page) {
        let s = self.slot_or_insert(page);
        self.slots[s] = image;
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
        self.slots[s] = Rc::new(*data);
    }

    fn clear(&mut self) {
        self.dir.clear();
        self.slots.clear();
    }

    fn snapshot_all(&self) -> BTreeMap<u64, Box<[u8; PAGE_SIZE]>> {
        let mut out = BTreeMap::new();
        for p in self.page_numbers() {
            if let Some(s) = self.slot_of(p) {
                out.insert(p, Box::new(*self.slots[s]));
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
    pages: BTreeMap<u64, Page>,
}

#[cfg(test)]
impl From<BTreeMap<u64, Box<[u8; PAGE_SIZE]>>> for BTreeStore {
    fn from(pages: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>) -> Self {
        let pages = pages.into_iter().map(|(p, b)| (p, Rc::from(b))).collect();
        Self { pages }
    }
}

#[cfg(test)]
impl MemStore for BTreeStore {
    fn read_into(&self, page: u64, in_page: usize, out: &mut [u8]) {
        match self.pages.get(&page) {
            Some(p) => out.copy_from_slice(&p[in_page..in_page + out.len()]),
            None => out.fill(0),
        }
    }

    fn share(&self, page: u64) -> Page {
        match self.pages.get(&page) {
            Some(p) => Rc::clone(p),
            None => Rc::new([0; PAGE_SIZE]),
        }
    }

    fn write_at(&mut self, page: u64, in_page: usize, data: &[u8], _live: usize) {
        let p = self
            .pages
            .entry(page)
            .or_insert_with(|| Rc::new([0u8; PAGE_SIZE]));
        Rc::make_mut(p)[in_page..in_page + data.len()].copy_from_slice(data);
    }

    fn put(&mut self, page: u64, image: Page) {
        self.pages.insert(page, image);
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn page_numbers(&self) -> Vec<u64> {
        self.pages.keys().copied().collect()
    }

    fn snapshot(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&page).map(|p| &**p)
    }

    fn install(&mut self, page: u64, data: &[u8; PAGE_SIZE]) {
        self.pages.insert(page, Rc::new(*data));
    }

    fn clear(&mut self) {
        self.pages.clear();
    }

    fn snapshot_all(&self) -> BTreeMap<u64, Box<[u8; PAGE_SIZE]>> {
        self.pages
            .iter()
            .map(|(&p, b)| (p, Box::new(**b)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of the differential: a sub-page write `(page, off, data)`,
    /// or a put `(page, stamp, len)` of an image whose first `len` bytes
    /// are `stamp`.
    enum Op {
        Write(u64, usize, &'static [u8]),
        Put(u64, u8, usize),
    }

    /// Drives both backends through the same mixed op sequence and checks
    /// they agree byte-for-byte at every step, through copying reads and
    /// shared images alike.
    #[test]
    fn flat_and_btree_stores_agree() {
        let mut flat = FlatStore::new();
        let mut btree = BTreeStore::default();
        // A caller holding page 700's image across every later step: no
        // store write may reach it.
        let mut held: Option<(Page, [u8; PAGE_SIZE])> = None;
        // Deterministic mix of aligned/misaligned, zero/non-zero writes,
        // overwrites with zeros, whole-page puts (one over a slot a caller
        // holds), and far-apart pages.
        let ops = [
            Op::Write(0, 0, &[1, 2, 3, 4, 5, 6, 7, 8]),
            Op::Write(0, 4, &[0, 0, 0, 0]), // zeros over written bytes
            Op::Write(3, 4090, &[9; 6]),    // tail of a page
            Op::Put(700, 0xAB, 3000),
            Op::Write(700, 128, &[0xCD; 256]), // into the held slot
            Op::Put(700, 0x11, 40),
            Op::Write(700, 128, &[0; 256]),
            Op::Put(5, 0x22, 10),                         // materializes a page
            Op::Write(u64::from(u32::MAX) + 5, 0, &[42]), // far chunk
            Op::Write(1, 0, &[0; 16]),                    // all-zero write still materializes
            Op::Put(6, 0, 0),                             // an all-zero put too
        ];
        for op in ops {
            match op {
                Op::Write(page, off, data) => {
                    flat.write_at(page, off, data, data.len());
                    btree.write_at(page, off, data, data.len());
                }
                Op::Put(page, stamp, len) => {
                    let mut img = [0; PAGE_SIZE];
                    img[..len].fill(stamp);
                    let img = Rc::new(img);
                    flat.put(page, Rc::clone(&img));
                    btree.put(page, img);
                    if page == 700 && held.is_none() {
                        let shared = flat.share(700);
                        held = Some((Rc::clone(&shared), *shared));
                    }
                }
            }
            assert_eq!(flat.len(), btree.len());
            assert_eq!(flat.page_numbers(), btree.page_numbers());
            for &p in &btree.page_numbers() {
                assert_eq!(flat.snapshot(p), btree.snapshot(p), "page {p}");
                let (mut a, mut b) = ([0u8; 100], [0u8; 100]);
                flat.read_into(p, 37, &mut a);
                btree.read_into(p, 37, &mut b);
                assert_eq!(a, b, "partial read of page {p}");
                assert_eq!(flat.share(p), btree.share(p), "shared image of page {p}");
            }
            if let Some((img, bytes)) = &held {
                assert_eq!(**img, *bytes, "a held image changed under its holder");
            }
        }
        // Absent pages read zero from both, and sharing them materializes
        // nothing.
        let (mut a, mut b) = ([7u8; 64], [7u8; 64]);
        flat.read_into(999_999, 0, &mut a);
        btree.read_into(999_999, 0, &mut b);
        assert_eq!(a, [0; 64]);
        assert_eq!(b, [0; 64]);
        assert_eq!(*flat.share(999_999), [0; PAGE_SIZE]);
        assert_eq!(flat.len(), btree.len());
        // Full images agree, and survive a clear.
        assert_eq!(flat.snapshot_all(), btree.snapshot_all());
        flat.clear();
        btree.clear();
        assert_eq!(flat.len(), 0);
        assert_eq!(btree.len(), 0);
        assert!(flat.page_numbers().is_empty());
    }
}
