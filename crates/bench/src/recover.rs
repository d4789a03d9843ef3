//! The crash-recovery experiment: recovery latency vs intent-log depth.
//!
//! Not a paper figure — DiLOS (§5.1) leaves memory-node fault tolerance as
//! future work — but the natural measurement for this reproduction's
//! recovery model: each memory node keeps a durable checkpoint plus a
//! write-intent log acknowledged ahead of every remote write, so the cost
//! of a crash is replaying the log tail onto the last checkpoint and
//! reconciling with the surviving replicas. The checkpoint interval sets
//! that tail's length: seal rarely and a crash replays a deep log, seal
//! often and replay shrinks while reconciliation stays constant.
//!
//! The sweep crashes the same victim at the same data-path completion
//! index under four checkpoint intervals and reports the log depth at the
//! crash, the records replayed, the pages reconciled, and the modeled
//! recovery latency. Every run is audited (invariants: no acknowledged
//! write lost, no frame resurrected) and digest-pinned.

use dilos_core::{Dilos, DilosConfig, Readahead};
use dilos_sim::{Fault, Observability, RecoverConfig, RecoveryStats, Redundancy, SplitMix64, When};

use crate::table::{us, Report};

/// Scale knobs for the recovery experiment.
#[derive(Debug, Clone, Copy)]
pub struct RecoverScale {
    /// Working-set pages (4× the local cache, so evictions keep the
    /// intent log busy).
    pub pages: u64,
    /// Local cache size in frames.
    pub local_pages: usize,
    /// Random read/write operations between populate and read-back.
    pub rw_ops: u64,
}

impl Default for RecoverScale {
    fn default() -> Self {
        Self {
            pages: 256,
            local_pages: 64,
            rw_ops: 400,
        }
    }
}

const SEED: u64 = 0xC4A5;
const CHECKPOINT_INTERVALS: [u64; 4] = [8, 32, 128, 512];

fn boot(scale: RecoverScale, checkpoint_every: u64, crash_at: Option<u64>) -> Dilos {
    let mut n = Dilos::new(DilosConfig {
        local_pages: scale.local_pages,
        remote_bytes: 1 << 24,
        memory_nodes: 3,
        redundancy: Redundancy::Replicas(2),
        recovery: Some(RecoverConfig { checkpoint_every }),
        faults: crash_at
            .map(|at| {
                let crash = Fault::Crash {
                    node: 1,
                    down_for: 1_500_000,
                };
                (When::Completion(at), crash)
            })
            .into_iter()
            .collect(),
        obs: Observability::audited(),
        ..DilosConfig::default()
    });
    n.set_prefetcher(Box::new(Readahead::new()));
    n
}

/// Seeded mixed workload; returns the read-back checksum.
fn drive(n: &mut Dilos, scale: RecoverScale) -> u64 {
    let va = n.ddc_alloc((scale.pages * 4096) as usize);
    for p in 0..scale.pages {
        n.write_u64(0, va + p * 4096, SEED ^ p);
    }
    let mut rng = SplitMix64::new(SEED);
    for _ in 0..scale.rw_ops {
        let p = rng.next_u64() % scale.pages;
        let addr = va + p * 4096 + (rng.next_u64() % 500) * 8;
        if rng.next_u64().is_multiple_of(3) {
            n.write_u64(0, addr, rng.next_u64());
        } else {
            let _ = n.read_u64(0, addr);
        }
    }
    let mut fold = 0u64;
    for p in 0..scale.pages {
        fold = fold
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(n.read_u64(0, va + p * 4096));
    }
    fold
}

fn run(
    scale: RecoverScale,
    checkpoint_every: u64,
    crash_at: Option<u64>,
) -> (u64, u64, RecoveryStats, Vec<String>) {
    let mut n = boot(scale, checkpoint_every, crash_at);
    let fold = drive(&mut n, scale);
    let report = n.audit_report();
    let digest = n.trace_digest();
    (digest, fold, n.recovery_stats(), report)
}

/// Recovery latency vs intent-log depth: crash the same victim at the same
/// completion index under four checkpoint intervals.
pub fn recover_crash_sweep(scale: RecoverScale) -> Report {
    let mut report = Report::new(
        "Crash recovery — latency vs intent-log depth",
        &[
            "checkpoint every",
            "crash at op",
            "log depth",
            "replayed",
            "reconciled",
            "recovery",
        ],
    );
    // A crash-free run under the middle interval fixes the crash point (¾
    // through the run) and the reference checksum recovery must reproduce.
    let (_, fold_ref, base, base_report) = run(scale, 32, None);
    let crash_at = base.completions * 3 / 4;
    report.note(format!(
        "Workload: {} pages, {} rw ops, {} completions crash-free; \
         crash at completion {crash_at}, victim node 1 of 3 (replication 2).",
        scale.pages, scale.rw_ops, base.completions
    ));
    if !base_report.is_empty() {
        report.note(format!(
            "crash-free run: {} AUDIT VIOLATIONS: {base_report:?}",
            base_report.len()
        ));
    }
    for every in CHECKPOINT_INTERVALS {
        let (digest, fold, stats, violations) = run(scale, every, Some(crash_at));
        report.row(vec![
            every.to_string(),
            crash_at.to_string(),
            stats.log_depth_at_crash.to_string(),
            stats.replayed.to_string(),
            stats.reconciled.to_string(),
            us(stats.recovery_ns),
        ]);
        let label = format!("ckpt{every}");
        report.digest(&label, digest);
        report.note(format!(
            "{label}: trace digest {digest:#018x}, audit {}, data {}",
            if violations.is_empty() {
                "clean".to_string()
            } else {
                format!("{} VIOLATIONS: {violations:?}", violations.len())
            },
            if fold == fold_ref {
                "intact"
            } else {
                "DIVERGED"
            }
        ));
    }
    report.note(
        "Modeled recovery cost: 500 ns per replayed record + 2 µs per \
         reconciled page (control path; not charged to the calendar).",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{tab01_tab03_fault_counts, MicroScale};

    /// The recovery artifact is byte-stable: two fresh sweeps render and
    /// serialize identically (the CI determinism gate `cmp`s this).
    #[test]
    fn recover_sweep_is_byte_identical_across_runs() {
        let a = recover_crash_sweep(RecoverScale::default());
        let b = recover_crash_sweep(RecoverScale::default());
        assert_eq!(a.to_json(), b.to_json(), "recover.json diverged");
        assert_eq!(a.render(), b.render(), "recover.md diverged");
        assert!(
            !a.to_json().contains("VIOLATIONS"),
            "sweep must audit clean: {}",
            a.to_json()
        );
        assert!(!a.to_json().contains("DIVERGED"), "recovery lost data");
    }

    /// Deeper intent logs replay more: the largest checkpoint interval must
    /// replay at least as many records as the smallest.
    #[test]
    fn replay_grows_with_checkpoint_interval() {
        let scale = RecoverScale::default();
        let (_, _, base, _) = run(scale, 32, None);
        let crash_at = base.completions * 3 / 4;
        let (_, _, rare, _) = run(scale, 512, Some(crash_at));
        let (_, _, frequent, _) = run(scale, 8, Some(crash_at));
        assert!(
            rare.replayed >= frequent.replayed,
            "rare checkpoints ({}) must replay no less than frequent ones ({})",
            rare.replayed,
            frequent.replayed
        );
        assert_eq!(rare.crashes, 1);
        assert_eq!(frequent.crashes, 1);
    }

    /// The recovery machinery is invisible when disarmed: the tab01 fault
    /// table still lands on its pinned trace digests.
    #[test]
    fn disarmed_tab01_digests_are_unchanged() {
        let (report, _) = tab01_tab03_fault_counts(MicroScale::default(), Observability::audited);
        for (label, digest) in [
            ("DiLOS no-prefetch", 0x72868b6c6c8f6be7_u64),
            ("DiLOS readahead", 0xa05d4ca934983990),
            ("DiLOS trend-based", 0xf0d93ae335272561),
        ] {
            assert!(
                report
                    .digests
                    .iter()
                    .any(|(l, d)| l == label && *d == digest),
                "{label}: pinned digest {digest:#018x} missing or changed: {:?}",
                report.digests
            );
        }
    }
}
