//! The Redis-like server: a keyspace of strings and quicklists over far
//! memory, with guide hooks.
//!
//! The server executes the commands the evaluation drives — SET/GET/DEL for
//! the keyspace workloads and RPUSH/LRANGE for lists — against the
//! far-memory dict, SDS, and quicklist structures, allocating through the
//! bitmap [`Heap`] (so guided paging can see liveness). When an app-aware
//! [`RedisGuide`] is attached, the server fires its hooks before value
//! reads and list traversals, exactly where the paper's ELF-loader hooks
//! intercept real Redis.

#![expect(
    clippy::disallowed_types,
    reason = "`kinds` is lookup-only on kv_guided's per-command path; nothing iterates it"
)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dilos_alloc::Heap;

use crate::farmem::FarMemory;
use crate::redis::dict::Dict;
use crate::redis::guide::RedisGuide;
use crate::redis::quicklist::{read_node, Quicklist};
use crate::redis::sds;

/// Per-command dispatch compute charge (ns): parse + command table lookup.
const CMD_NS: u64 = 150;

/// What a value address points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    String,
    List { zl_cap: u32 },
}

/// The server.
pub struct RedisServer {
    heap: Rc<RefCell<Heap>>,
    dict: Dict,
    /// Value type registry (Redis's robj type field, kept host-side).
    kinds: HashMap<u64, ValueKind>,
    guide: Option<Rc<RefCell<RedisGuide>>>,
    zl_cap: u32,
}

impl std::fmt::Debug for RedisServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RedisServer")
            .field("keys", &self.dict.len())
            .finish_non_exhaustive()
    }
}

impl RedisServer {
    /// Creates a server allocating from `heap`. `zl_cap` is the per-node
    /// ziplist capacity (8 KiB matches Redis's multi-page ziplists).
    pub fn new(heap: Rc<RefCell<Heap>>, mem: &mut dyn FarMemory, zl_cap: u32) -> Self {
        let dict = Dict::new(Rc::clone(&heap), mem, 16);
        Self {
            heap,
            dict,
            kinds: HashMap::new(),
            guide: None,
            zl_cap,
        }
    }

    /// Attaches the app-aware guide's hook side (the node registration is
    /// separate; see the bench harness).
    pub fn attach_guide(&mut self, guide: Rc<RefCell<RedisGuide>>) {
        self.guide = Some(guide);
    }

    /// The shared heap (for wiring the paging guide).
    pub fn heap(&self) -> Rc<RefCell<Heap>> {
        Rc::clone(&self.heap)
    }

    /// Number of keys.
    pub fn dbsize(&self) -> usize {
        self.dict.len()
    }

    /// SET key value.
    pub fn set(&mut self, mem: &mut dyn FarMemory, core: usize, key: &[u8], val: &[u8]) {
        mem.compute(core, CMD_NS);
        let sds_va = sds::sds_new(&self.heap, mem, core, val);
        self.kinds.insert(sds_va, ValueKind::String);
        if let Some(old) = self.dict.insert(mem, core, key, sds_va) {
            self.free_value(mem, core, old);
        }
    }

    /// GET key.
    pub fn get(&mut self, mem: &mut dyn FarMemory, core: usize, key: &[u8]) -> Option<Vec<u8>> {
        mem.compute(core, CMD_NS);
        let (_, val) = self.dict.find(mem, core, key)?;
        if self.kinds.get(&val) != Some(&ValueKind::String) {
            return None; // WRONGTYPE in real Redis.
        }
        if let Some(g) = &self.guide {
            g.borrow_mut().hook_get(val);
        }
        let data = sds::sds_read(mem, core, val);
        if let Some(g) = &self.guide {
            g.borrow_mut().hook_done();
        }
        Some(data)
    }

    /// DEL key; returns whether the key existed.
    pub fn del(&mut self, mem: &mut dyn FarMemory, core: usize, key: &[u8]) -> bool {
        mem.compute(core, CMD_NS);
        match self.dict.remove(mem, core, key) {
            Some(val) => {
                self.free_value(mem, core, val);
                true
            }
            None => false,
        }
    }

    /// RPUSH key element (creates the list on first push).
    pub fn rpush(&mut self, mem: &mut dyn FarMemory, core: usize, key: &[u8], elem: &[u8]) {
        mem.compute(core, CMD_NS);
        let header = match self.dict.find(mem, core, key) {
            Some((_, val)) if matches!(self.kinds.get(&val), Some(ValueKind::List { .. })) => val,
            Some(_) => panic!("WRONGTYPE: key holds a string"),
            None => {
                let ql = Quicklist::new(Rc::clone(&self.heap), mem, core, self.zl_cap);
                self.kinds.insert(
                    ql.header,
                    ValueKind::List {
                        zl_cap: self.zl_cap,
                    },
                );
                self.dict.insert(mem, core, key, ql.header);
                ql.header
            }
        };
        let ql = Quicklist {
            heap: Rc::clone(&self.heap),
            header,
            zl_cap: self.zl_cap,
        };
        ql.rpush(mem, core, elem);
    }

    /// LRANGE key 0 count-1.
    pub fn lrange(
        &mut self,
        mem: &mut dyn FarMemory,
        core: usize,
        key: &[u8],
        count: usize,
    ) -> Vec<Vec<u8>> {
        mem.compute(core, CMD_NS);
        let Some((_, val)) = self.dict.find(mem, core, key) else {
            return Vec::new();
        };
        let Some(&ValueKind::List { zl_cap }) = self.kinds.get(&val) else {
            return Vec::new();
        };
        let ql = Quicklist {
            heap: Rc::clone(&self.heap),
            header: val,
            zl_cap,
        };
        if let Some(g) = &self.guide {
            let head = ql.head(mem, core);
            g.borrow_mut().hook_lrange(head);
        }
        let out = ql.lrange(mem, core, count);
        if let Some(g) = &self.guide {
            g.borrow_mut().hook_done();
        }
        out
    }

    /// LLEN key.
    pub fn llen(&mut self, mem: &mut dyn FarMemory, core: usize, key: &[u8]) -> u64 {
        mem.compute(core, CMD_NS);
        match self.dict.find(mem, core, key) {
            Some((_, val)) if matches!(self.kinds.get(&val), Some(ValueKind::List { .. })) => {
                let ql = Quicklist {
                    heap: Rc::clone(&self.heap),
                    header: val,
                    zl_cap: self.zl_cap,
                };
                ql.len(mem, core)
            }
            _ => 0,
        }
    }

    fn free_value(&mut self, mem: &mut dyn FarMemory, core: usize, val: u64) {
        match self.kinds.remove(&val) {
            Some(ValueKind::String) | None => sds::sds_free(&self.heap, val),
            Some(ValueKind::List { zl_cap }) => {
                let ql = Quicklist {
                    heap: Rc::clone(&self.heap),
                    header: val,
                    zl_cap,
                };
                ql.destroy(mem, core);
            }
        }
    }

    /// Walks a list's node chain (diagnostics/tests).
    pub fn list_nodes(&mut self, mem: &mut dyn FarMemory, core: usize, key: &[u8]) -> usize {
        let Some((_, val)) = self.dict.find(mem, core, key) else {
            return 0;
        };
        let ql = Quicklist {
            heap: Rc::clone(&self.heap),
            header: val,
            zl_cap: self.zl_cap,
        };
        let mut n = 0;
        let mut va = ql.head(mem, core);
        while va != 0 {
            n += 1;
            va = read_node(mem, core, va).next;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farmem::{SystemKind, SystemSpec};

    fn setup(bytes: u64) -> (Box<dyn FarMemory>, RedisServer) {
        let mut mem = SystemSpec::for_working_set(SystemKind::DilosReadahead, bytes, 100).boot();
        let base = mem.alloc(bytes as usize);
        let heap = Rc::new(RefCell::new(Heap::new(base, bytes)));
        let server = RedisServer::new(heap, mem.as_mut(), 1024);
        (mem, server)
    }

    #[test]
    fn set_get_del() {
        let (mut mem, mut s) = setup(1 << 22);
        s.set(mem.as_mut(), 0, b"k1", b"value one");
        s.set(mem.as_mut(), 0, b"k2", b"value two");
        assert_eq!(
            s.get(mem.as_mut(), 0, b"k1").as_deref(),
            Some(&b"value one"[..])
        );
        assert_eq!(
            s.get(mem.as_mut(), 0, b"k2").as_deref(),
            Some(&b"value two"[..])
        );
        assert!(s.get(mem.as_mut(), 0, b"k3").is_none());
        assert!(s.del(mem.as_mut(), 0, b"k1"));
        assert!(!s.del(mem.as_mut(), 0, b"k1"));
        assert!(s.get(mem.as_mut(), 0, b"k1").is_none());
        assert_eq!(s.dbsize(), 1);
    }

    #[test]
    fn set_overwrites_and_frees_old_value() {
        let (mut mem, mut s) = setup(1 << 22);
        let heap = s.heap();
        s.set(mem.as_mut(), 0, b"k", &[1u8; 1000]);
        let live1 = heap.borrow().stats().live_bytes;
        s.set(mem.as_mut(), 0, b"k", &[2u8; 1000]);
        let live2 = heap.borrow().stats().live_bytes;
        assert_eq!(live1, live2, "overwrite must not leak");
        assert_eq!(s.get(mem.as_mut(), 0, b"k"), Some(vec![2u8; 1000]));
    }

    #[test]
    fn list_commands() {
        let (mut mem, mut s) = setup(1 << 22);
        for i in 0..250 {
            s.rpush(
                mem.as_mut(),
                0,
                b"mylist",
                format!("item-{i:04}").as_bytes(),
            );
        }
        assert_eq!(s.llen(mem.as_mut(), 0, b"mylist"), 250);
        assert!(
            s.list_nodes(mem.as_mut(), 0, b"mylist") > 1,
            "multi-node list"
        );
        let front = s.lrange(mem.as_mut(), 0, b"mylist", 100);
        assert_eq!(front.len(), 100);
        for (i, e) in front.iter().enumerate() {
            assert_eq!(e, format!("item-{i:04}").as_bytes());
        }
        assert!(s.del(mem.as_mut(), 0, b"mylist"));
        assert!(s.lrange(mem.as_mut(), 0, b"mylist", 10).is_empty());
    }

    #[test]
    fn large_values_survive_memory_pressure() {
        let mut mem = SystemSpec::for_working_set(SystemKind::DilosReadahead, 1 << 23, 13).boot();
        let base = mem.alloc(1 << 23);
        let heap = Rc::new(RefCell::new(Heap::new(base, 1 << 23)));
        let mut s = RedisServer::new(heap, mem.as_mut(), 8192);
        // 64 KiB values × 64 keys = 4 MiB working set, 13 % local.
        for i in 0..64u32 {
            let val = vec![(i % 251) as u8; 64 * 1024];
            s.set(mem.as_mut(), 0, format!("big:{i}").as_bytes(), &val);
        }
        for i in 0..64u32 {
            let got = s
                .get(mem.as_mut(), 0, format!("big:{i}").as_bytes())
                .unwrap();
            assert_eq!(got.len(), 64 * 1024);
            assert!(got.iter().all(|&b| b == (i % 251) as u8), "key big:{i}");
        }
    }
}
