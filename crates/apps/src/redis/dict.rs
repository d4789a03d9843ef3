//! The Redis dict: a chained hash table with incremental rehash, in far
//! memory.
//!
//! Redis's keyspace is a `dict`: two bucket tables (for incremental
//! rehashing), chains of 32-byte entries, and a rehash index that migrates
//! one bucket per operation. Pointer-chasing through bucket chains is the
//! "highly irregular memory access pattern" §6.2 attributes to in-memory
//! key-value stores.
//!
//! Entry layout (32 bytes): `[next: u64][key_sds: u64][val: u64][hash: u64]`.

use std::cell::RefCell;
use std::rc::Rc;

use crate::farmem::FarMemory;
use crate::redis::sds;
use dilos_alloc::Heap;

const ENTRY_SIZE: usize = 32;

/// FNV-1a, the stand-in for Redis's siphash (deterministic here).
pub fn hash_key(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[derive(Debug, Clone, Copy)]
struct Table {
    buckets: u64,
    size: usize,
}

/// The far-memory dict.
#[derive(Debug)]
pub struct Dict {
    heap: Rc<RefCell<Heap>>,
    t0: Table,
    /// Rehash target (present while rehashing).
    t1: Option<Table>,
    rehash_idx: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    next: u64,
    key: u64,
    val: u64,
    hash: u64,
}

fn read_entry(mem: &mut dyn FarMemory, core: usize, va: u64) -> Entry {
    let mut b = [0u8; ENTRY_SIZE];
    mem.read(core, va, &mut b);
    Entry {
        next: u64::from_le_bytes(b[0..8].try_into().expect("8")),
        key: u64::from_le_bytes(b[8..16].try_into().expect("8")),
        val: u64::from_le_bytes(b[16..24].try_into().expect("8")),
        hash: u64::from_le_bytes(b[24..32].try_into().expect("8")),
    }
}

fn write_entry(mem: &mut dyn FarMemory, core: usize, va: u64, e: &Entry) {
    let mut b = [0u8; ENTRY_SIZE];
    b[0..8].copy_from_slice(&e.next.to_le_bytes());
    b[8..16].copy_from_slice(&e.key.to_le_bytes());
    b[16..24].copy_from_slice(&e.val.to_le_bytes());
    b[24..32].copy_from_slice(&e.hash.to_le_bytes());
    mem.write(core, va, &b);
}

impl Dict {
    /// Creates a dict with `initial` buckets (rounded to a power of two).
    pub fn new(heap: Rc<RefCell<Heap>>, mem: &mut dyn FarMemory, initial: usize) -> Self {
        let size = initial.next_power_of_two().max(4);
        let buckets = Self::alloc_table(&heap, mem, size);
        Self {
            heap,
            t0: Table { buckets, size },
            t1: None,
            rehash_idx: 0,
            len: 0,
        }
    }

    fn alloc_table(heap: &Rc<RefCell<Heap>>, mem: &mut dyn FarMemory, size: usize) -> u64 {
        let va = heap
            .borrow_mut()
            .malloc(size * 8)
            .expect("heap exhausted allocating dict table");
        // Zero the table (null bucket heads).
        let zeros = vec![0u8; 4096.min(size * 8)];
        let mut off = 0usize;
        while off < size * 8 {
            let n = zeros.len().min(size * 8 - off);
            mem.write(0, va + off as u64, &zeros[..n]);
            off += n;
        }
        va
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the dict holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether an incremental rehash is in progress.
    pub fn rehashing(&self) -> bool {
        self.t1.is_some()
    }

    fn bucket_addr(t: &Table, idx: usize) -> u64 {
        t.buckets + (idx * 8) as u64
    }

    /// Migrates up to `steps` buckets of an in-progress rehash — the
    /// incremental work Redis piggybacks on every command.
    fn rehash_step(&mut self, mem: &mut dyn FarMemory, core: usize, steps: usize) {
        let Some(t1) = self.t1 else { return };
        for _ in 0..steps {
            if self.rehash_idx >= self.t0.size {
                // Rehash complete: swap tables, free the old one.
                self.heap
                    .borrow_mut()
                    .free(self.t0.buckets)
                    .expect("old dict table is live");
                self.t0 = t1;
                self.t1 = None;
                self.rehash_idx = 0;
                return;
            }
            let mut cur = mem.read_u64(core, Self::bucket_addr(&self.t0, self.rehash_idx));
            while cur != 0 {
                let e = read_entry(mem, core, cur);
                let idx = (e.hash as usize) & (t1.size - 1);
                let head_addr = Self::bucket_addr(&t1, idx);
                let head = mem.read_u64(core, head_addr);
                write_entry(mem, core, cur, &Entry { next: head, ..e });
                mem.write_u64(core, head_addr, cur);
                cur = e.next;
            }
            mem.write_u64(core, Self::bucket_addr(&self.t0, self.rehash_idx), 0);
            self.rehash_idx += 1;
        }
    }

    fn maybe_grow(&mut self, mem: &mut dyn FarMemory) {
        if self.t1.is_none() && self.len >= self.t0.size {
            let size = self.t0.size * 2;
            let buckets = Self::alloc_table(&self.heap, mem, size);
            self.t1 = Some(Table { buckets, size });
            self.rehash_idx = 0;
        }
    }

    /// Finds `key`, returning `(entry_va, value_va)`.
    pub fn find(&mut self, mem: &mut dyn FarMemory, core: usize, key: &[u8]) -> Option<(u64, u64)> {
        self.rehash_step(mem, core, 1);
        let h = hash_key(key);
        mem.compute(core, 30); // Hashing + dispatch.
        let tables: Vec<Table> = std::iter::once(self.t0).chain(self.t1).collect();
        for t in tables {
            let idx = (h as usize) & (t.size - 1);
            let mut cur = mem.read_u64(core, Self::bucket_addr(&t, idx));
            while cur != 0 {
                let e = read_entry(mem, core, cur);
                if e.hash == h && sds::sds_eq(mem, core, e.key, key) {
                    return Some((cur, e.val));
                }
                cur = e.next;
            }
        }
        None
    }

    /// Inserts `key → val`, replacing any existing binding.
    ///
    /// Returns the previous value address if the key existed.
    pub fn insert(
        &mut self,
        mem: &mut dyn FarMemory,
        core: usize,
        key: &[u8],
        val: u64,
    ) -> Option<u64> {
        if let Some((entry_va, old_val)) = self.find(mem, core, key) {
            let e = read_entry(mem, core, entry_va);
            write_entry(mem, core, entry_va, &Entry { val, ..e });
            return Some(old_val);
        }
        self.maybe_grow(mem);
        self.rehash_step(mem, core, 1);
        let h = hash_key(key);
        let target = self.t1.unwrap_or(self.t0);
        let idx = (h as usize) & (target.size - 1);
        let head_addr = Self::bucket_addr(&target, idx);
        let head = mem.read_u64(core, head_addr);
        let key_sds = sds::sds_new(&self.heap, mem, core, key);
        let entry_va = self
            .heap
            .borrow_mut()
            .malloc(ENTRY_SIZE)
            .expect("heap exhausted allocating dict entry");
        write_entry(
            mem,
            core,
            entry_va,
            &Entry {
                next: head,
                key: key_sds,
                val,
                hash: h,
            },
        );
        mem.write_u64(core, head_addr, entry_va);
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value address.
    pub fn remove(&mut self, mem: &mut dyn FarMemory, core: usize, key: &[u8]) -> Option<u64> {
        self.rehash_step(mem, core, 1);
        let h = hash_key(key);
        let tables: Vec<Table> = std::iter::once(self.t0).chain(self.t1).collect();
        for t in tables {
            let idx = (h as usize) & (t.size - 1);
            let head_addr = Self::bucket_addr(&t, idx);
            let mut prev: Option<u64> = None;
            let mut cur = mem.read_u64(core, head_addr);
            while cur != 0 {
                let e = read_entry(mem, core, cur);
                if e.hash == h && sds::sds_eq(mem, core, e.key, key) {
                    match prev {
                        None => mem.write_u64(core, head_addr, e.next),
                        Some(p) => {
                            let pe = read_entry(mem, core, p);
                            write_entry(mem, core, p, &Entry { next: e.next, ..pe });
                        }
                    }
                    sds::sds_free(&self.heap, e.key);
                    self.heap
                        .borrow_mut()
                        .free(cur)
                        .expect("dict entry is live");
                    self.len -= 1;
                    return Some(e.val);
                }
                prev = Some(cur);
                cur = e.next;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farmem::{SystemKind, SystemSpec};

    fn setup() -> (Box<dyn FarMemory>, Rc<RefCell<Heap>>) {
        let mut mem = SystemSpec::for_working_set(SystemKind::DilosReadahead, 1 << 22, 100).boot();
        let base = mem.alloc(1 << 22);
        (mem, Rc::new(RefCell::new(Heap::new(base, 1 << 22))))
    }

    #[test]
    fn insert_find_remove() {
        let (mut mem, heap) = setup();
        let mut d = Dict::new(Rc::clone(&heap), mem.as_mut(), 4);
        assert!(d.insert(mem.as_mut(), 0, b"alpha", 111).is_none());
        assert!(d.insert(mem.as_mut(), 0, b"beta", 222).is_none());
        assert_eq!(d.len(), 2);
        assert_eq!(d.find(mem.as_mut(), 0, b"alpha").map(|(_, v)| v), Some(111));
        assert_eq!(d.find(mem.as_mut(), 0, b"beta").map(|(_, v)| v), Some(222));
        assert!(d.find(mem.as_mut(), 0, b"gamma").is_none());
        assert_eq!(d.remove(mem.as_mut(), 0, b"alpha"), Some(111));
        assert!(d.find(mem.as_mut(), 0, b"alpha").is_none());
        assert_eq!(d.len(), 1);
        assert!(d.remove(mem.as_mut(), 0, b"alpha").is_none());
    }

    #[test]
    fn replace_returns_old_value() {
        let (mut mem, heap) = setup();
        let mut d = Dict::new(Rc::clone(&heap), mem.as_mut(), 4);
        assert!(d.insert(mem.as_mut(), 0, b"k", 1).is_none());
        assert_eq!(d.insert(mem.as_mut(), 0, b"k", 2), Some(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d.find(mem.as_mut(), 0, b"k").map(|(_, v)| v), Some(2));
    }

    #[test]
    fn grows_with_incremental_rehash_preserving_entries() {
        let (mut mem, heap) = setup();
        let mut d = Dict::new(Rc::clone(&heap), mem.as_mut(), 4);
        let n = 500u64;
        for i in 0..n {
            let key = format!("key:{i:06}");
            assert!(d.insert(mem.as_mut(), 0, key.as_bytes(), i).is_none());
        }
        assert_eq!(d.len(), n as usize);
        // Rehash may be mid-flight; every key must still resolve.
        for i in 0..n {
            let key = format!("key:{i:06}");
            assert_eq!(
                d.find(mem.as_mut(), 0, key.as_bytes()).map(|(_, v)| v),
                Some(i),
                "{key}"
            );
        }
        // Drive rehash to completion via more ops.
        for _ in 0..2_000 {
            let _ = d.find(mem.as_mut(), 0, b"nonexistent");
        }
        assert!(!d.rehashing(), "rehash must eventually complete");
        for i in 0..n {
            let key = format!("key:{i:06}");
            assert!(d.find(mem.as_mut(), 0, key.as_bytes()).is_some());
        }
    }

    #[test]
    fn collisions_chain_correctly() {
        let (mut mem, heap) = setup();
        // A tiny table forces chains.
        let mut d = Dict::new(Rc::clone(&heap), mem.as_mut(), 4);
        for i in 0..32u64 {
            d.insert(mem.as_mut(), 0, format!("c{i}").as_bytes(), i);
        }
        for i in 0..32u64 {
            assert_eq!(
                d.find(mem.as_mut(), 0, format!("c{i}").as_bytes())
                    .map(|(_, v)| v),
                Some(i)
            );
        }
        // Remove every other entry; the rest must survive the unlinking.
        for i in (0..32u64).step_by(2) {
            assert_eq!(
                d.remove(mem.as_mut(), 0, format!("c{i}").as_bytes()),
                Some(i)
            );
        }
        for i in 0..32u64 {
            let found = d.find(mem.as_mut(), 0, format!("c{i}").as_bytes());
            assert_eq!(found.is_some(), i % 2 == 1, "c{i}");
        }
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_key(b"abc"), hash_key(b"abc"));
        assert_ne!(hash_key(b"abc"), hash_key(b"abd"));
        // Rough spread check over a small table.
        let mut buckets = [0u32; 16];
        for i in 0..1_000 {
            buckets[(hash_key(format!("k{i}").as_bytes()) as usize) & 15] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 20), "{buckets:?}");
    }
}
