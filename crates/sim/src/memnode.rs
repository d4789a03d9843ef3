//! The memory node: a passive, RNIC-served remote memory pool.
//!
//! §5 of the paper: "A server process in the memory node handles setup
//! requests from the computing node and registers its memory region to its
//! RDMA NIC. After that, the RNIC serves all read and write RDMA requests
//! from the computing node." The node is entirely passive on the data path —
//! one-sided verbs — which this module mirrors: registration is the only
//! control-path operation, and all data-path access goes through
//! [`MemoryNode::read`]/[`MemoryNode::write`] (or their page-sharing
//! forms) after an rkey + bounds check. The node has no clock and emits
//! nothing: a write returns its [`Durability`], and the RDMA endpoint that
//! drove the access traces it at the verb's time.
//!
//! Backing storage is sparse: pages that were never written read back as
//! zeros, exactly like freshly-registered (zeroed) host memory. A page is
//! just its bytes: the page-sharing forms move one [`Page`] image, every
//! other access copies the bytes it names.

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::recover::DurableState;
use crate::store::{FlatStore, MemStore, Page};
use crate::time::{page_chunks, PAGE_SIZE};

/// A registered memory region's access handle (rkey analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionHandle(u32);

#[derive(Debug, Clone)]
struct Region {
    base: u64,
    len: u64,
}

/// Errors returned by memory-node accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemNodeError {
    /// The rkey does not name a registered region (protection-key check).
    BadKey,
    /// The access falls outside the region the rkey protects.
    OutOfBounds,
}

impl std::fmt::Display for MemNodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemNodeError::BadKey => write!(f, "rkey does not match a registered region"),
            MemNodeError::OutOfBounds => write!(f, "access outside registered region"),
        }
    }
}

impl std::error::Error for MemNodeError {}

/// What a served write left in the durable image: the intent it logged and
/// the checkpoint it sealed (both `None` while persistence is off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Durability {
    /// Sequence number of the write-intent record appended.
    pub intent: Option<u64>,
    /// Last sequence number the checkpoint this write sealed covers.
    pub sealed: Option<u64>,
}

/// The node's page store: [`FlatStore`], concretely, so the hottest read is
/// a direct call. This crate's unit tests box it instead, so differential
/// tests can swap in the reference `BTreeStore`.
#[cfg(not(test))]
type Pages = FlatStore;
#[cfg(test)]
type Pages = Box<dyn MemStore>;

/// The memory node's registered memory pool.
#[derive(Debug)]
pub struct MemoryNode {
    // The store contract guarantees ascending page enumeration: repair
    // walks it, and walk order feeds the trace — hash order must never
    // leak into it.
    pages: Pages,
    /// Region table indexed by protection key (keys are handed out
    /// sequentially, so the table is dense).
    regions: Vec<Option<Region>>,
    next_key: u32,
    /// Durable image (checkpoint + intent log) when persistence is armed;
    /// `None` keeps the write path free of any recovery overhead.
    durable: Option<DurableState>,
}

impl Default for MemoryNode {
    fn default() -> Self {
        #[cfg(not(test))]
        let pages = FlatStore::new();
        #[cfg(test)]
        let pages = Box::new(FlatStore::new());
        Self {
            pages,
            regions: Vec::new(),
            next_key: 0,
            durable: None,
        }
    }
}

impl MemoryNode {
    /// Creates an empty memory node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Swaps the page store for the `BTreeStore` reference backend,
    /// migrating any resident pages. Differential tests use this to prove
    /// the flat backend is observationally identical to the original map.
    #[cfg(test)]
    pub(crate) fn use_reference_store(&mut self) {
        self.pages = Box::new(crate::store::BTreeStore::from(self.pages.snapshot_all()));
    }

    /// Does nothing: every memory node is backed by 2 MB huge pages, and
    /// the calibration alone says what they save
    /// ([`memnode_hugepage_saving_ns`]). A compatibility shim for existing
    /// callers, going with the verb shims (ROADMAP item 5).
    ///
    /// [`memnode_hugepage_saving_ns`]: crate::config::SimConfig::memnode_hugepage_saving_ns
    pub fn set_huge_pages(&mut self, _on: bool) {}

    /// Registers `[base, base + len)` and returns its protection key.
    ///
    /// This is the control-path operation a compute node performs once at
    /// connection setup (§5: "the control-path only once at the
    /// initialization stage").
    pub fn register_region(&mut self, base: u64, len: u64) -> RegionHandle {
        let key = self.next_key;
        self.next_key += 1;
        self.set_region(key, Region { base, len });
        RegionHandle(key)
    }

    fn set_region(&mut self, key: u32, region: Region) {
        let idx = key as usize;
        if idx >= self.regions.len() {
            self.regions.resize_with(idx + 1, || None);
        }
        self.regions[idx] = Some(region);
    }

    fn check(&self, key: RegionHandle, addr: u64, len: usize) -> Result<(), MemNodeError> {
        let region = self
            .regions
            .get(key.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(MemNodeError::BadKey)?;
        let end = addr
            .checked_add(len as u64)
            .ok_or(MemNodeError::OutOfBounds)?;
        if addr < region.base || end > region.base + region.len {
            return Err(MemNodeError::OutOfBounds);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr` (may span pages). Every
    /// byte of `buf` is written.
    pub fn read(&self, key: RegionHandle, addr: u64, buf: &mut [u8]) -> Result<(), MemNodeError> {
        self.check(key, addr, buf.len())?;
        for (page, in_page, span) in page_chunks(addr, buf.len()) {
            self.pages.read_into(page, in_page, &mut buf[span]);
        }
        Ok(())
    }

    /// [`read`](Self::read) of the page at aligned `addr` with no copy:
    /// `page` becomes a shared image of the stored page.
    pub(crate) fn read_page(
        &self,
        key: RegionHandle,
        addr: u64,
        page: &mut Page,
    ) -> Result<(), MemNodeError> {
        self.check(key, addr, PAGE_SIZE)?;
        *page = self.pages.share(addr / PAGE_SIZE as u64);
        Ok(())
    }

    /// Writes `buf` starting at `addr` (may span pages).
    ///
    /// With persistence armed, a write-intent record is appended to the
    /// durable log *before* the page copy — the write-ahead ack rule: once
    /// the intent is logged the write counts as acknowledged, and a crash
    /// at any later instant must not lose it. The log seals into a fresh
    /// checkpoint once it reaches the configured depth.
    pub fn write(
        &mut self,
        key: RegionHandle,
        addr: u64,
        buf: &[u8],
    ) -> Result<Durability, MemNodeError> {
        self.serve_write(key, addr, buf, |n| n.copy_in(addr, buf))
    }

    /// [`write`](Self::write); `_live` is unused. A compatibility shim for
    /// existing callers, going with the verb shims (ROADMAP item 5).
    pub fn write_live(
        &mut self,
        key: RegionHandle,
        addr: u64,
        buf: &[u8],
        _live: usize,
    ) -> Result<Durability, MemNodeError> {
        self.write(key, addr, buf)
    }

    /// [`write`](Self::write) of a whole image at aligned `addr` with no
    /// copy: the stored page becomes `page` itself.
    pub(crate) fn write_page(
        &mut self,
        key: RegionHandle,
        addr: u64,
        page: &Page,
    ) -> Result<Durability, MemNodeError> {
        let p = addr / PAGE_SIZE as u64;
        self.serve_write(key, addr, &page[..], |n| n.pages.put(p, Rc::clone(page)))
    }

    /// One served write: checks, the durable intent, `store` (the bytes
    /// themselves), then a checkpoint if the log is due.
    fn serve_write(
        &mut self,
        key: RegionHandle,
        addr: u64,
        buf: &[u8],
        store: impl FnOnce(&mut Self),
    ) -> Result<Durability, MemNodeError> {
        self.check(key, addr, buf.len())?;
        let intent = self.durable.as_mut().map(|d| d.append(addr, buf));
        store(self);
        let due = self.durable.as_ref().is_some_and(|d| d.should_checkpoint());
        let sealed = if due { self.seal() } else { None };
        Ok(Durability { intent, sealed })
    }

    /// The page-copy loop shared by the data-path write and intent replay.
    fn copy_in(&mut self, addr: u64, buf: &[u8]) {
        for (page, in_page, span) in page_chunks(addr, buf.len()) {
            let data = &buf[span];
            self.pages.write_at(page, in_page, data, data.len());
        }
    }

    /// Number of pages materialized on the node (for capacity reporting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Page numbers materialized on the node, sorted ascending.
    ///
    /// Control-path enumeration for node repair: the endpoint walks the
    /// survivors' resident sets to decide which pages a returning node must
    /// resynchronize. The backing map is ordered, so the repair order is
    /// deterministic by construction.
    pub fn resident_page_numbers(&self) -> Vec<u64> {
        self.pages.page_numbers()
    }

    /// Control-path snapshot of one materialized page (no rkey check, no
    /// trace) — `None` if the page was never written.
    pub fn page_snapshot(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.snapshot(page)
    }

    /// Control-path page install (no rkey check, no trace): resync writes
    /// reconstructed content directly into a repaired node's pool.
    pub fn install_page(&mut self, page: u64, data: &[u8; PAGE_SIZE]) {
        self.pages.install(page, data);
    }

    // ------------------------------------------------------------------
    // Crash–recovery: durable checkpoints + write-intent log.
    // ------------------------------------------------------------------

    /// Arms the persistent-state model: from now on every acknowledged
    /// write appends a durable intent record, and the log seals into a
    /// checkpoint every `checkpoint_every` records. The arming checkpoint
    /// covers everything already resident (boot-time registrations and any
    /// pre-existing pages), so recovery never depends on pre-arm history.
    pub fn arm_persistence(&mut self, checkpoint_every: u64) {
        let mut d = DurableState::new(checkpoint_every);
        d.seal(self.pages.snapshot_all(), self.region_table());
        self.durable = Some(d);
    }

    /// Whether the persistent-state model is armed.
    pub fn persistence_armed(&self) -> bool {
        self.durable.is_some()
    }

    /// Acknowledged intents not yet covered by a checkpoint (0 when
    /// persistence is off).
    pub fn intent_log_depth(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.log_depth())
    }

    /// The region table as plain `(key, (base, len))` rows, for the
    /// checkpoint image.
    fn region_table(&self) -> BTreeMap<u32, (u64, u64)> {
        self.regions
            .iter()
            .enumerate()
            .filter_map(|(k, r)| r.as_ref().map(|r| (k as u32, (r.base, r.len))))
            .collect()
    }

    /// Kills the node: all volatile state (page and region tables) is
    /// gone. The durable image and the key counter survive — exactly what
    /// a restarted server process would find on its persistent store.
    pub fn crash(&mut self) {
        self.pages.clear();
        self.regions.clear();
    }

    /// Seals a checkpoint over the live tables now and returns the last
    /// sequence number it covers; `None` when persistence is off.
    pub fn seal(&mut self) -> Option<u64> {
        let regions = self.region_table();
        let d = self.durable.as_mut()?;
        Some(d.seal(self.pages.snapshot_all(), regions))
    }

    /// Recovery step 1 + 2: restores the last checkpoint into the live
    /// tables, then replays the intent log record by record. Returns the
    /// sequence numbers replayed, in order: the endpoint traces one replay
    /// event each, the hook the auditor uses to prove no acknowledged write
    /// was lost. The log is left intact; the caller [`seal`](Self::seal)s a
    /// fresh checkpoint once reconciliation is done.
    pub fn recover_from_durable(&mut self) -> Vec<u64> {
        let Some(mut d) = self.durable.take() else {
            return Vec::new();
        };
        self.pages.clear();
        for (&page, data) in &d.checkpoint_pages {
            self.pages.install(page, data);
        }
        self.regions.clear();
        for (&k, &(base, len)) in &d.checkpoint_regions {
            self.set_region(k, Region { base, len });
        }
        let log = std::mem::take(&mut d.log);
        let mut replayed = Vec::with_capacity(log.len());
        for rec in &log {
            replayed.push(rec.seq);
            self.copy_in(rec.addr, &rec.data);
        }
        d.log = log;
        self.durable = Some(d);
        replayed
    }

    /// Fault injection for the auditor's negative tests: silently drops the
    /// most recent acknowledged intent record, returning its sequence
    /// number. The next recovery then *cannot* replay it — the auditor must
    /// flag exactly that sequence as an acknowledged write lost.
    pub fn corrupt_drop_last_intent(&mut self) -> Option<u64> {
        self.durable
            .as_mut()
            .and_then(|d| d.log.pop())
            .map(|rec| rec.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_with_region() -> (MemoryNode, RegionHandle) {
        let mut n = MemoryNode::new();
        let k = n.register_region(0, 1 << 20);
        (n, k)
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let (n, k) = node_with_region();
        let mut buf = [0xFFu8; 64];
        n.read(k, 4096, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_roundtrips_across_pages() {
        let (mut n, k) = node_with_region();
        let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        // Deliberately misaligned so the access spans three pages.
        n.write(k, 100, &data).unwrap();
        let mut out = vec![0u8; 8192];
        n.read(k, 100, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(n.resident_pages(), 3);
    }

    #[test]
    fn bad_key_is_rejected() {
        let (mut n, _) = node_with_region();
        let forged = RegionHandle(99);
        let mut buf = [0u8; 8];
        assert_eq!(n.read(forged, 0, &mut buf), Err(MemNodeError::BadKey));
        assert_eq!(n.write(forged, 0, &buf), Err(MemNodeError::BadKey));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let (mut n, k) = node_with_region();
        let mut buf = [0u8; 16];
        assert_eq!(
            n.read(k, (1 << 20) - 8, &mut buf),
            Err(MemNodeError::OutOfBounds)
        );
        assert_eq!(
            n.write(k, u64::MAX - 4, &buf),
            Err(MemNodeError::OutOfBounds)
        );
    }

    #[test]
    fn crash_then_recover_replays_acknowledged_writes() {
        let (mut n, k) = node_with_region();
        n.arm_persistence(4);
        // Three writes: fewer than checkpoint_every, so all live in the log.
        for i in 0..3u64 {
            n.write(k, i * 4096, &[i as u8 + 1; 64]).unwrap();
        }
        assert_eq!(n.intent_log_depth(), 3);
        n.crash();
        assert_eq!(n.resident_pages(), 0);
        let mut buf = [0u8; 64];
        assert_eq!(n.read(k, 0, &mut buf), Err(MemNodeError::BadKey));
        assert_eq!(n.recover_from_durable(), [1, 2, 3]);
        for i in 0..3u64 {
            n.read(k, i * 4096, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8 + 1), "page {i}");
        }
    }

    #[test]
    fn checkpoint_seals_at_the_configured_depth() {
        let (mut n, k) = node_with_region();
        n.arm_persistence(2);
        let logged = |seq, sealed| {
            Ok(Durability {
                intent: Some(seq),
                sealed,
            })
        };
        assert_eq!(n.write(k, 0, &[1; 8]), logged(1, None));
        assert_eq!(n.intent_log_depth(), 1);
        assert_eq!(n.write(k, 4096, &[2; 8]), logged(2, Some(2)));
        // The second ack reached the depth: the log sealed into checkpoint 2
        // (the arming checkpoint was the first).
        assert_eq!(n.intent_log_depth(), 0);
        assert_eq!(n.durable.as_ref().map(|d| d.checkpoints), Some(2));
        // A crash now recovers everything from the checkpoint alone.
        n.crash();
        assert!(n.recover_from_durable().is_empty());
        let mut buf = [0u8; 8];
        n.read(k, 4096, &mut buf).unwrap();
        assert_eq!(buf, [2; 8]);
    }

    #[test]
    fn dropping_an_intent_loses_exactly_that_write() {
        let (mut n, k) = node_with_region();
        n.arm_persistence(100);
        n.write(k, 0, &[0xAA; 8]).unwrap();
        n.write(k, 4096, &[0xBB; 8]).unwrap();
        assert_eq!(n.corrupt_drop_last_intent(), Some(2));
        n.crash();
        assert_eq!(n.recover_from_durable(), [1]);
        let mut buf = [0u8; 8];
        n.read(k, 0, &mut buf).unwrap();
        assert_eq!(buf, [0xAA; 8], "surviving intent must replay");
        n.read(k, 4096, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "dropped intent must be lost");
    }

    #[test]
    fn unarmed_node_has_no_recovery_surface() {
        let (mut n, k) = node_with_region();
        assert_eq!(n.write(k, 0, &[1; 8]), Ok(Durability::default()));
        assert!(!n.persistence_armed());
        assert_eq!(n.intent_log_depth(), 0);
        assert!(n.recover_from_durable().is_empty());
        assert_eq!(n.corrupt_drop_last_intent(), None);
    }

    #[test]
    fn regions_isolate_each_other() {
        let mut n = MemoryNode::new();
        let a = n.register_region(0, 4096);
        let b = n.register_region(1 << 30, 4096);
        let mut buf = [0u8; 8];
        // Key `a` cannot touch region `b` (protection-key isolation, §5).
        assert_eq!(n.read(a, 1 << 30, &mut buf), Err(MemNodeError::OutOfBounds));
        assert!(n.read(b, 1 << 30, &mut buf).is_ok());
    }
}
