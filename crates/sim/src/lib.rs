//! Deterministic virtual-time substrate for the DiLOS reproduction.
//!
//! The DiLOS paper ([EuroSys '23]) evaluates a paging-based memory
//! disaggregation system on a two-node RDMA testbed. This crate replaces that
//! testbed with a calibrated, deterministic simulation: every latency the
//! paper measures (one-sided RDMA verbs, link occupancy, hardware page-fault
//! exception cost) is charged in *virtual nanoseconds* against resource
//! timelines, so experiments are reproducible on any machine and still
//! exercise the same code paths a real deployment would.
//!
//! The crate provides:
//!
//! - [`time`]: virtual-time primitives ([`Ns`], [`PAGE_SIZE`]).
//! - [`machine`]: the chassis every compute node stands on ([`Machine`])
//!   and its one calendar-delivery loop ([`ComputeNode`]).
//! - [`timeline`]: serially-occupied resources ([`Timeline`]).
//! - [`sched`]: the deterministic discrete-event calendar ([`Calendar`])
//!   that delivers background work — prefetch landings, reclaim ticks,
//!   cleaner writebacks, RDMA completions, planned faults — at its true
//!   virtual time.
//! - [`config`]: the calibration constants ([`SimConfig`]), sourced from the
//!   paper's Figures 1, 2, and 6 and §6.2.
//! - [`memnode`]: the memory node — a registered remote memory region served
//!   by a simulated RNIC ([`MemoryNode`]).
//! - [`fabric`]: the network link model with per-(tenant, class) byte
//!   accounting ([`Fabric`], [`ServiceClass`]).
//! - [`rdma`]: one-sided verbs over per-core, per-module queue pairs
//!   ([`RdmaEndpoint`]), including the scatter/gather verbs guided paging
//!   uses.
//! - [`stats`]: the latency histogram used to regenerate the paper's
//!   tail-latency table.
//! - [`metrics`]: the virtual-time telemetry layer — a deterministic
//!   [`MetricsRegistry`] of sampled gauges, plus the [`SpanProfiler`] that
//!   folds the trace stream into counters, flamegraph stacks and
//!   fault-latency histograms.
//! - [`rng`]: deterministic random streams and the size/popularity
//!   distributions the evaluation workloads need.
//! - [`obs`]: the unified [`Observability`] bundle (trace + metrics +
//!   profiler + causal tracer + audit flag) handed to boot paths once and
//!   threaded down.
//! - [`causal`]: per-request span trees ([`CausalTracer`]) assembled from
//!   side-band request ids, plus the [`critical_path`] analyzer that
//!   attributes each request's latency to queueing / transfer / service /
//!   replay.
//! - [`cluster`]: multi-tenant sharing of one endpoint ([`SharedPool`],
//!   [`RdmaPort`]) with per-tenant protection keys, QP lanes, and QoS
//!   bandwidth arbitration.
//! - [`recover`]: memnode crash–recovery — durable checkpoints and a
//!   write-intent log acknowledged ahead of every remote write
//!   ([`RecoverConfig`]), the [`FaultPlan`] of `(When, Fault)` entries the
//!   endpoint applies at one site, and detectable replay on rejoin.
//!
//! [EuroSys '23]: https://doi.org/10.1145/3552326.3567488

#![forbid(unsafe_code)]

pub mod causal;
pub mod cluster;
pub mod config;
mod ec;
pub mod fabric;
pub mod lru;
pub mod machine;
pub mod memnode;
pub mod metrics;
pub mod obs;
pub mod rdma;
pub mod recover;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod store;
pub mod time;
pub mod timeline;
pub mod trace;

pub use causal::{critical_path, CausalTracer, PhaseBreakdown, ReqKind, RequestTrace};
pub use cluster::{RdmaPort, SharedPool};
pub use config::SimConfig;
pub use fabric::{Fabric, ServiceClass};
pub use lru::LruChain;
pub use machine::{ComputeNode, DeliverCompletion, Machine};
pub use memnode::{MemoryNode, RegionHandle};
pub use metrics::{MetricsRegistry, SpanProfiler, SAMPLE_INTERVAL_NS};
pub use obs::Observability;
pub use rdma::{RdmaEndpoint, RdmaError, Redundancy, Segment};
pub use recover::{Fault, FaultPlan, RecoverConfig, RecoveryStats, When};
pub use rng::{MixedSizes, SplitMix64, Zipf};
pub use sched::{Calendar, EventId, SchedEvent};
pub use stats::LatencyHistogram;
pub use store::{FlatStore, MemStore, Page};
pub use time::{page_chunks, Ns, PAGE_SIZE};
pub use timeline::Timeline;
pub use trace::{FaultKind, FaultPhase, PteClass, ReqId, TraceEvent, TraceObserver, TraceSink};
