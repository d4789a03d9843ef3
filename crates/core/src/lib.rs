//! `dilos-core` — the DiLOS paging subsystem (the paper's contribution).
//!
//! DiLOS ("Do Not Trade Compatibility for Performance in Memory
//! Disaggregation", EuroSys '23) is a library-OS paging subsystem that makes
//! kernel-paging-style memory disaggregation fast without giving up POSIX
//! compatibility. Its pieces, all implemented here:
//!
//! - [`pt`] — the **unified page table** (§4.1): one hardware-format table
//!   encoding local/remote/fetching/action states in PTE tag bits, replacing
//!   the Linux swap cache entirely.
//! - [`node`] — the compute node tying everything together: the
//!   `ddc_malloc`/`mmap(MAP_DDC)` memory API and the access path, with one
//!   child module per part of §4 — the short-path **page fault handler**
//!   (§4.2, `node/fault.rs`), the demand-fetch window where prefetches are
//!   issued (§4.3, `node/prefetch.rs`), and the **page manager** (§4.4,
//!   `node/pagemgr.rs`): watermarks, the background reclaimer and eviction
//!   in the node's exact LRU order.
//! - [`prefetch`] — the **page prefetcher** policies (§4.3): readahead and
//!   Leap-style trend prefetchers plus the PTE **hit tracker** that replaces
//!   swap-cache statistics.
//! - [`guide`] — the **app-aware guide API** (§4.1/§4.3/§4.4): prefetch
//!   guides with subpage fetches, paging guides, action PTE vectors, and the
//!   allocator-bitmap paging guide.
//! - [`compat`] — the **compatibility layer** (§5): DDC API surface and the
//!   ELF symbol patcher model.
//! - [`frames`], [`stats`] — the local frame cache and measurement hooks.
//! - [`cluster`] — the multi-tenant serving cluster: N nodes on one shared
//!   memory pool with QoS arbitration (bandwidth shares + local quotas).
//!
//! The node runs against the `dilos-sim` virtual-time substrate, so every
//! latency it reports is deterministic and calibrated to the paper's
//! testbed. See the workspace DESIGN.md for the substitution ledger.

#![forbid(unsafe_code)]

pub mod audit;
pub mod cluster;
pub mod compat;
pub mod frames;
pub mod guide;
pub mod node;
pub mod prefetch;
pub mod pt;
pub mod stats;

pub use audit::{legal_pte_transition, Auditor};
pub use cluster::{ClusterConfig, ServingCluster, TenantSpec, LANES_PER_TENANT};
pub use compat::{PatchReport, SymbolKind, SymbolPatcher, SymbolTable, MAP_DDC};
pub use guide::{ActionTable, FetchVector, GuideOps, HeapPagingGuide, PagingGuide, PrefetchGuide};
pub use node::{
    Dilos, DilosConfig, DDC_BASE, LOCAL_BASE, MAP_NS, PREFETCH_ISSUE_NS, PTE_CHECK_NS,
    RECLAIM_SCAN_NS, SWAPCACHE_MGMT_NS, SWAPCACHE_MINOR_NS, TLB_MISS_WALK_NS, TRACKER_PER_PTE_NS,
    ZERO_FILL_NS,
};
pub use prefetch::{HitTracker, NoPrefetch, Prefetcher, Readahead, TrendBased};
pub use pt::{PageTable, Pte};
pub use stats::{DilosStats, FaultBreakdown};
