//! `dilos-baselines` — the comparison systems of the DiLOS evaluation.
//!
//! The paper compares DiLOS against two systems, both re-implemented here
//! from scratch on the same `dilos-sim` substrate — the same
//! [`Machine`](dilos_sim::Machine) chassis of clocks, calendar and delivery
//! loop DiLOS stands on — so the comparison isolates the *data-path
//! design*, not the hardware:
//!
//! - [`fastswap`] — the state-of-the-art kernel paging system: Linux swap
//!   cache, cluster readahead, direct + offloaded reclamation, kernel
//!   crossing costs, TLB shootdowns.
//! - [`aifm`] — the state-of-the-art user-level system: remoteable objects
//!   with per-dereference checks, a user-level miss path over TCP, and a
//!   background streaming prefetcher.

#![forbid(unsafe_code)]

pub mod aifm;
pub mod fastswap;

pub use aifm::{Aifm, AifmConfig, AifmStats};
pub use fastswap::{Fastswap, FastswapBreakdown, FastswapConfig, FastswapStats};
