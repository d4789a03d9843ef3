//! Word ≡ bytes: `Dilos::read_u64`/`write_u64` take a one-page path of
//! their own (one touch, one 8-byte load or store, one copy charge), and
//! must be indistinguishable from `read`/`write` with an 8-byte buffer —
//! in the values, in every core clock after every op, in the node's
//! counters, in the trace and in the audit.

use dilos::apps::farmem::FarMemory;
use dilos::core::{Dilos, DilosConfig, Readahead, LOCAL_BASE, MAP_DDC};
use dilos::sim::{Observability, SplitMix64, PAGE_SIZE};

/// DDC pages the ops range over: four times the cache, so hits, minor
/// faults (readahead), major faults and zero-fills all occur.
const PAGES: u64 = 64;
const LOCAL_PAGES: usize = 16;
const OPS: usize = 6_000;

fn boot() -> Dilos {
    let mut node = Dilos::new(DilosConfig {
        local_pages: LOCAL_PAGES,
        remote_bytes: 1 << 24,
        obs: Observability::audited(),
        ..DilosConfig::default()
    });
    node.set_prefetcher(Box::new(Readahead::new()));
    node
}

/// How node A issues a word access.
#[derive(Clone, Copy, Debug)]
enum Via {
    Inherent,
    Dyn,
}

fn read_a(node: &mut Dilos, via: Via, va: u64) -> u64 {
    match via {
        Via::Inherent => node.read_u64(0, va),
        Via::Dyn => (node as &mut dyn FarMemory).read_u64(0, va),
    }
}

fn write_a(node: &mut Dilos, via: Via, va: u64, v: u64) {
    match via {
        Via::Inherent => node.write_u64(0, va, v),
        Via::Dyn => (node as &mut dyn FarMemory).write_u64(0, va, v),
    }
}

fn read_b(node: &mut Dilos, va: u64) -> u64 {
    let mut b = [0u8; 8];
    node.read(0, va, &mut b);
    u64::from_le_bytes(b)
}

/// An address in `[base, base + pages)`: aligned, unaligned inside a page,
/// or straddling a page boundary (in-page offsets 4089–4095).
fn addr(rng: &mut SplitMix64, base: u64, pages: u64) -> u64 {
    let page = base + rng.next_u64() % (pages - 1) * PAGE_SIZE as u64;
    let off = match rng.next_u64() % 3 {
        0 => rng.next_u64() % 512 * 8,
        1 => rng.next_u64() % (PAGE_SIZE as u64 - 8),
        _ => PAGE_SIZE as u64 - 7 + rng.next_u64() % 7,
    };
    page + off
}

#[test]
fn word_accesses_are_byte_accesses_in_value_time_stats_trace_and_audit() {
    let (mut a, mut b) = (boot(), boot());
    let ddc = a.ddc_alloc(PAGES as usize * PAGE_SIZE);
    assert_eq!(ddc, b.ddc_alloc(PAGES as usize * PAGE_SIZE));
    let local = a.mmap(4 * PAGE_SIZE, 0);
    assert_eq!(local, b.mmap(4 * PAGE_SIZE, 0));
    assert_eq!(a.mmap(PAGE_SIZE, MAP_DDC), b.mmap(PAGE_SIZE, MAP_DDC));

    let mut rng = SplitMix64::new(0x5EED_0041);
    let mut straddles = 0;
    for i in 0..OPS {
        let via = if i % 2 == 0 { Via::Inherent } else { Via::Dyn };
        let va = if rng.next_u64().is_multiple_of(8) {
            addr(&mut rng, local, 4)
        } else {
            addr(&mut rng, ddc, PAGES)
        };
        straddles += usize::from(va % PAGE_SIZE as u64 > PAGE_SIZE as u64 - 8);
        if rng.next_u64().is_multiple_of(3) {
            let v = rng.next_u64();
            write_a(&mut a, via, va, v);
            b.write(0, va, &v.to_le_bytes());
        } else {
            let (va_, vb) = (read_a(&mut a, via, va), read_b(&mut b, va));
            assert_eq!(va_, vb, "op {i}: value at {va:#x} ({via:?})");
        }
        assert_eq!(a.now(0), b.now(0), "op {i}: clock after {va:#x} ({via:?})");
    }
    assert!(straddles > 100, "too few page-crossing words: {straddles}");

    let (sa, sb) = (*a.stats(), *b.stats());
    assert!(sa.local_hits > 0 && sa.major_faults > 0, "{sa:?}");
    assert!(sa.minor_faults > 0 && sa.zero_fills > 0, "{sa:?}");
    assert_eq!(format!("{sa:?}"), format!("{sb:?}"), "stats");
    assert_eq!(a.trace_digest(), b.trace_digest(), "trace digest");
    assert_eq!(a.audit_report(), Vec::<String>::new());
    assert_eq!(b.audit_report(), Vec::<String>::new());
}

#[test]
fn a_zero_length_access_moves_no_clock_and_faults_nothing() {
    let mut node = boot();
    let va = node.ddc_alloc(4 * PAGE_SIZE);
    let local = node.mmap(4 * PAGE_SIZE, 0);
    assert!(
        local >= LOCAL_BASE,
        "a mapping without MAP_DDC is local-only"
    );
    let before = (node.now(0), format!("{:?}", node.stats()));
    for base in [va, local] {
        for off in [0, 8, PAGE_SIZE as u64 - 3, 3 * PAGE_SIZE as u64] {
            node.read(0, base + off, &mut []);
            node.write(0, base + off, &[]);
        }
    }
    assert_eq!((node.now(0), format!("{:?}", node.stats())), before);
    assert_eq!(node.resident_pages(), 0, "nothing was touched");
}
