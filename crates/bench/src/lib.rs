//! `dilos-bench` — the harness that regenerates every table and figure of
//! the DiLOS paper.
//!
//! Each experiment is a library function returning a [`table::Report`];
//! the `repro` binary runs them. The experiment ↔ paper mapping lives in
//! DESIGN.md; the measured-vs-paper comparison in EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod apps_exp;
pub mod hostprof;
pub mod json;
pub mod loadgen;
pub mod micro;
pub mod recover;
pub mod redis_exp;
pub mod serve;
pub mod table;
pub mod telemetry;
pub mod timeline;

pub use table::Report;
