//! Quickstart: boot a DiLOS compute node, run an application on
//! disaggregated memory, and inspect what the paging subsystem did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dilos::apps::farmem::FarMemory;
use dilos::core::{Dilos, DilosConfig, Readahead};

fn main() {
    // A compute node with 256 local pages (1 MiB of local DRAM) backed by a
    // simulated memory node over the calibrated RDMA fabric.
    let mut node = Dilos::new(DilosConfig {
        local_pages: 256,
        remote_bytes: 1 << 26,
        ..DilosConfig::default()
    });
    node.set_prefetcher(Box::new(Readahead::new()));

    // `ddc_alloc` is the `ddc_malloc` path of the compatibility layer: the
    // returned memory is zero-fill-on-touch and transparently migrated
    // between local DRAM and the memory node.
    let bytes = 4 << 20; // A 4 MiB working set: 4× the local cache.
    let va = node.ddc_alloc(bytes);
    println!(
        "allocated {} MiB of disaggregated memory at {va:#x}",
        bytes >> 20
    );

    // Touch every page: the first pass is zero-fill (no network)…
    let pages = (bytes / 4096) as u64;
    for p in 0..pages {
        node.write_u64(0, va + p * 4096, p * p);
    }
    let populate_done = node.now(0);

    // …and the second pass streams pages back from the memory node, with
    // readahead hiding most of the fetch latency.
    for p in 0..pages {
        assert_eq!(node.read_u64(0, va + p * 4096), p * p);
    }
    let read_done = node.now(0);

    let s = node.stats();
    println!(
        "\nvirtual time: populate {:.2} ms, read-back {:.2} ms",
        populate_done as f64 / 1e6,
        (read_done - populate_done) as f64 / 1e6
    );
    println!("zero-fill faults : {}", s.zero_fills);
    println!("major faults     : {}", s.major_faults);
    println!(
        "minor faults     : {} (touched while the prefetch was in flight)",
        s.minor_faults
    );
    println!("pages prefetched : {}", s.prefetch_issued);
    println!(
        "evictions        : {} ({} with writeback)",
        s.evictions, s.writebacks
    );
    println!(
        "avg fault latency: {:.2} µs (paper Figure 6: ~2.8 µs)",
        s.breakdown.avg_total() as f64 / 1e3
    );
    let read_gbps = bytes as f64 / (read_done - populate_done) as f64;
    println!("read throughput  : {read_gbps:.2} GB/s");
}
