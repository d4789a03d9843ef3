//! DiLOS — paging-based memory disaggregation without trading compatibility
//! for performance.
//!
//! This is the umbrella crate of the DiLOS reproduction (EuroSys '23). It
//! re-exports the workspace crates so examples, integration tests, and
//! downstream users can depend on a single crate:
//!
//! - [`sim`] — the deterministic virtual-time substrate (RDMA fabric, memory
//!   node, calibration constants).
//! - [`core`] — the paper's contribution: the DiLOS paging subsystem
//!   (unified page table, page-fault handler, prefetchers, page manager,
//!   guide API, guided paging).
//! - [`alloc`] — the mimalloc-flavoured user-level allocator whose per-page
//!   liveness bitmaps drive guided paging.
//! - [`baselines`] — the Fastswap and AIFM comparison systems.
//! - [`apps`] — the evaluation workloads, written once against the portable
//!   [`apps::farmem::FarMemory`] interface.
//!
//! # Quickstart
//!
//! ```
//! use dilos::apps::farmem::FarMemory;
//! use dilos::core::{Dilos, DilosConfig};
//!
//! // Boot a DiLOS compute node with 256 KiB of local DRAM backed by a
//! // simulated memory node.
//! let mut node = Dilos::new(DilosConfig {
//!     local_pages: 64,
//!     ..DilosConfig::default()
//! });
//!
//! // Allocate disaggregated memory (the ddc_malloc path) and touch it.
//! let va = node.ddc_alloc(1 << 20);
//! node.write(0, va, b"hello far memory");
//! let mut buf = [0u8; 16];
//! node.read(0, va, &mut buf);
//! assert_eq!(&buf, b"hello far memory");
//!
//! // The working set exceeded local DRAM, so pages were evicted and
//! // fetched back — all accounted in virtual time.
//! assert!(node.stats().major_faults > 0 || node.now(0) > 0);
//! ```

pub use dilos_alloc as alloc;
pub use dilos_apps as apps;
pub use dilos_baselines as baselines;
pub use dilos_core as core;
pub use dilos_sim as sim;
