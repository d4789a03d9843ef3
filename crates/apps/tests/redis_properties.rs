//! Model-based property tests for the Redis data structures on far memory.
//!
//! The dict and the whole server are driven against a `BTreeMap`, the
//! quicklist against a `Vec`, all under memory pressure, so every
//! structural invariant (chains, rehash, ziplist packing) is checked against
//! ground truth while pages churn through the memory node.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dilos_alloc::Heap;
use dilos_apps::farmem::{FarMemory, SystemKind, SystemSpec};
use dilos_apps::redis::dict::Dict;
use dilos_apps::redis::quicklist::Quicklist;
use dilos_apps::redis::RedisServer;
use proptest::prelude::*;

fn setup(heap_bytes: u64, ratio: u32) -> (Box<dyn FarMemory>, Rc<RefCell<Heap>>) {
    let mut mem = SystemSpec::for_working_set(SystemKind::DilosReadahead, heap_bytes, ratio).boot();
    let base = mem.alloc(heap_bytes as usize);
    (mem, Rc::new(RefCell::new(Heap::new(base, heap_bytes))))
}

#[derive(Debug, Clone)]
enum DictOp {
    Insert(u8, u64),
    Remove(u8),
    Find(u8),
}

fn dict_op() -> impl Strategy<Value = DictOp> {
    prop_oneof![
        3 => (any::<u8>(), any::<u64>()).prop_map(|(k, v)| DictOp::Insert(k, v)),
        1 => any::<u8>().prop_map(DictOp::Remove),
        2 => any::<u8>().prop_map(DictOp::Find),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dict_matches_map_model(ops in prop::collection::vec(dict_op(), 1..250)) {
        let (mut mem, heap) = setup(1 << 22, 25);
        let mut dict = Dict::new(Rc::clone(&heap), mem.as_mut(), 4);
        let mut model: BTreeMap<u8, u64> = BTreeMap::new();
        for op in ops {
            match op {
                DictOp::Insert(k, v) => {
                    let key = format!("key-{k}");
                    let old = dict.insert(mem.as_mut(), 0, key.as_bytes(), v);
                    let model_old = model.insert(k, v);
                    prop_assert_eq!(old.is_some(), model_old.is_some());
                }
                DictOp::Remove(k) => {
                    let key = format!("key-{k}");
                    let got = dict.remove(mem.as_mut(), 0, key.as_bytes());
                    prop_assert_eq!(got, model.remove(&k));
                }
                DictOp::Find(k) => {
                    let key = format!("key-{k}");
                    let got = dict.find(mem.as_mut(), 0, key.as_bytes()).map(|(_, v)| v);
                    prop_assert_eq!(got, model.get(&k).copied());
                }
            }
            prop_assert_eq!(dict.len(), model.len());
        }
        // Post-run: everything still resolvable (rehash may be mid-flight).
        for (k, v) in &model {
            let key = format!("key-{k}");
            prop_assert_eq!(
                dict.find(mem.as_mut(), 0, key.as_bytes()).map(|(_, val)| val),
                Some(*v)
            );
        }
    }

    #[test]
    fn quicklist_matches_vec(
        elems in prop::collection::vec((1usize..200, any::<u8>()), 1..150),
        zl_cap in 64u32..2048,
        count in 1usize..120,
    ) {
        let (mut mem, heap) = setup(1 << 22, 25);
        let ql = Quicklist::new(Rc::clone(&heap), mem.as_mut(), 0, zl_cap.max(256));
        let mut model: Vec<Vec<u8>> = Vec::new();
        for (len, stamp) in elems {
            let len = len.min(ql.zl_cap as usize - 12);
            let payload = vec![stamp; len.max(1)];
            ql.rpush(mem.as_mut(), 0, &payload);
            model.push(payload);
        }
        prop_assert_eq!(ql.len(mem.as_mut(), 0) as usize, model.len());
        let got = ql.lrange(mem.as_mut(), 0, count);
        let want: Vec<Vec<u8>> = model.iter().take(count).cloned().collect();
        prop_assert_eq!(got, want);
        // Destroy returns all memory.
        let live_before = heap.borrow().stats().live_bytes;
        prop_assert!(live_before > 0);
        ql.destroy(mem.as_mut(), 0);
        prop_assert_eq!(heap.borrow().stats().live_bytes, 0);
    }
}

#[derive(Debug, Clone)]
enum ServerOp {
    Set(u8, u16),
    Get(u8),
    Del(u8),
    Rpush(u8, u8),
    Lrange(u8),
}

fn server_op() -> impl Strategy<Value = ServerOp> {
    prop_oneof![
        3 => (any::<u8>(), 1u16..2000).prop_map(|(k, n)| ServerOp::Set(k, n)),
        2 => any::<u8>().prop_map(ServerOp::Get),
        1 => any::<u8>().prop_map(ServerOp::Del),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| ServerOp::Rpush(k, v)),
        1 => any::<u8>().prop_map(ServerOp::Lrange),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The whole server against a reference model, under pressure. String
    /// and list keyspaces are disjoint (as in the paper's workloads).
    #[test]
    fn server_matches_reference(ops in prop::collection::vec(server_op(), 1..150)) {
        let (mut mem, heap) = setup(1 << 23, 13);
        let mut server = RedisServer::new(heap, mem.as_mut(), 1024);
        let mut strings: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        let mut lists: BTreeMap<u8, Vec<Vec<u8>>> = BTreeMap::new();
        for op in ops {
            match op {
                ServerOp::Set(k, n) => {
                    let key = format!("str:{k}");
                    let val = vec![k ^ 0x5A; n as usize];
                    server.set(mem.as_mut(), 0, key.as_bytes(), &val);
                    strings.insert(k, val);
                }
                ServerOp::Get(k) => {
                    let key = format!("str:{k}");
                    let got = server.get(mem.as_mut(), 0, key.as_bytes());
                    prop_assert_eq!(got.as_ref(), strings.get(&k));
                }
                ServerOp::Del(k) => {
                    let key = format!("str:{k}");
                    let existed = server.del(mem.as_mut(), 0, key.as_bytes());
                    prop_assert_eq!(existed, strings.remove(&k).is_some());
                }
                ServerOp::Rpush(k, v) => {
                    let key = format!("list:{k}");
                    let elem = vec![v; (v as usize % 90) + 1];
                    server.rpush(mem.as_mut(), 0, key.as_bytes(), &elem);
                    lists.entry(k).or_default().push(elem);
                }
                ServerOp::Lrange(k) => {
                    let key = format!("list:{k}");
                    let got = server.lrange(mem.as_mut(), 0, key.as_bytes(), 100);
                    let want: Vec<Vec<u8>> = lists
                        .get(&k)
                        .map(|l| l.iter().take(100).cloned().collect())
                        .unwrap_or_default();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(server.dbsize(), strings.len() + lists.len());
    }
}
