//! Deterministic load generation for the multi-tenant serving cluster.
//!
//! The generator is **open-loop** by default: arrival times come from a
//! SplitMix-seeded exponential distribution on the *virtual* clock, fixed
//! before the system serves a single request, so a slow server faces the
//! same offered load as a fast one and queueing delay lands in the latency
//! distribution where it belongs (the coordinated-omission trap a
//! closed-loop generator falls into). A closed-loop mode (fixed think time
//! after each completion) exists for saturation workloads — a scanner with
//! zero think time is a wire-saturating noisy neighbor.
//!
//! Determinism: every random choice flows from per-tenant [`SplitMix64`]
//! streams; tenants are driven by a global earliest-start event loop with
//! ties broken by tenant id. Same seeds + same cluster ⇒ byte-identical
//! latency tables and trace digests.

use dilos_apps::farmem::FarMemory;
use dilos_core::ServingCluster;
use dilos_sim::{LatencyHistogram, Ns, SplitMix64};

/// Page size the request kernels stride by.
const PAGE: u64 = 4096;

/// When a request stream hands the next request to the server.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Open loop: exponential inter-arrival times with the given mean,
    /// independent of completions.
    Open {
        /// Mean inter-arrival gap in virtual ns.
        mean_ns: Ns,
    },
    /// Closed loop: the next request arrives `think_ns` after the previous
    /// one completes.
    Closed {
        /// Think time in virtual ns.
        think_ns: Ns,
    },
}

/// What one request does against the tenant's working set.
#[derive(Debug, Clone, Copy)]
pub enum RequestKind {
    /// Point lookups: `touches` uniformly random 8-byte reads.
    PointRead {
        /// Pages touched per request.
        touches: usize,
    },
    /// A sequential scan of `pages` pages, resuming where the previous
    /// scan stopped (wrapping at the working-set end).
    Scan {
        /// Pages read per request.
        pages: usize,
    },
}

/// One tenant's request stream.
#[derive(Debug, Clone, Copy)]
pub struct TenantLoad {
    /// Seed for this tenant's arrival/choice streams.
    pub seed: u64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Requests to serve.
    pub requests: usize,
    /// Request kernel.
    pub kind: RequestKind,
    /// Working-set size in pages (populated by a warmup write pass).
    pub working_pages: usize,
}

/// Measured outcome of one tenant's stream.
#[derive(Debug)]
pub struct TenantResult {
    /// Request latency (arrival → completion, so queueing counts).
    pub latency: LatencyHistogram,
    /// Requests completed (always `requests`).
    pub completed: usize,
    /// Virtual time the tenant finished its stream.
    pub makespan: Ns,
}

/// Exponential inter-arrival gap: `-ln(1 - u) * mean`, floored at 1 ns.
fn exp_gap(rng: &mut SplitMix64, mean_ns: Ns) -> Ns {
    let u = rng.gen_f64();
    let gap = -(1.0 - u).ln() * mean_ns as f64;
    (gap as Ns).max(1)
}

struct TenantState {
    load: TenantLoad,
    rng: SplitMix64,
    base: u64,
    next_arrival: Ns,
    scan_cursor: u64,
    done: usize,
    latency: LatencyHistogram,
}

/// Drives every tenant's stream to completion and returns per-tenant
/// latency tables. `loads[i]` drives cluster tenant `i` on core 0.
///
/// A warmup write pass populates (and stamps) each working set before any
/// request is timed, then per-tenant clocks restart from the arrival
/// schedule — warmup cost never pollutes the latency table.
///
/// # Panics
///
/// Panics when `loads` does not match the cluster's tenant count.
pub fn drive(cluster: &mut ServingCluster, loads: &[TenantLoad]) -> Vec<TenantResult> {
    assert_eq!(loads.len(), cluster.len(), "one load per tenant");

    // Warmup: populate every working set (zero-fill + stamp) so requests
    // measure steady-state paging, not first-touch faults.
    let mut states: Vec<TenantState> = loads
        .iter()
        .enumerate()
        .map(|(id, &load)| {
            let node = cluster.tenant(id);
            let base = node.ddc_alloc(load.working_pages * PAGE as usize);
            for p in 0..load.working_pages as u64 {
                node.write_u64(0, base + p * PAGE, p ^ load.seed);
            }
            let mut rng = SplitMix64::new(load.seed);
            let first = match load.arrival {
                Arrival::Open { mean_ns } => node.now(0) + exp_gap(&mut rng, mean_ns),
                Arrival::Closed { think_ns } => node.now(0) + think_ns,
            };
            TenantState {
                load,
                rng,
                base,
                next_arrival: first,
                scan_cursor: 0,
                done: 0,
                latency: LatencyHistogram::new(),
            }
        })
        .collect();

    // Global earliest-start loop: each step serves one request on the
    // tenant whose next request can start soonest (start = max(arrival,
    // tenant clock)), ties broken by tenant id. This interleaves tenants
    // in virtual-time order so shared-fabric contention is resolved the
    // same way every run.
    loop {
        let mut pick: Option<(Ns, usize)> = None;
        for (id, st) in states.iter().enumerate() {
            if st.done == st.load.requests {
                continue;
            }
            let start = st.next_arrival.max(cluster.tenant_ref(id).max_now());
            if pick.is_none_or(|(best, _)| start < best) {
                pick = Some((start, id));
            }
        }
        let Some((_, id)) = pick else { break };
        let st = &mut states[id];
        let arrival = st.next_arrival;
        let node = cluster.tenant(id);
        let now = node.now(0);
        if arrival > now {
            // Idle until the request arrives.
            node.compute(0, arrival - now);
        }
        match st.load.kind {
            RequestKind::PointRead { touches } => {
                for _ in 0..touches {
                    let p = st.rng.gen_range(st.load.working_pages as u64);
                    let _ = node.read_u64(0, st.base + p * PAGE);
                }
            }
            RequestKind::Scan { pages } => {
                for _ in 0..pages {
                    let p = st.scan_cursor;
                    let _ = node.read_u64(0, st.base + p * PAGE);
                    st.scan_cursor = (st.scan_cursor + 1) % st.load.working_pages as u64;
                }
            }
        }
        let completion = node.now(0);
        st.latency.record(completion.saturating_sub(arrival));
        st.done += 1;
        st.next_arrival = match st.load.arrival {
            Arrival::Open { mean_ns } => arrival + exp_gap(&mut st.rng, mean_ns),
            Arrival::Closed { think_ns } => completion + think_ns,
        };
    }

    states
        .into_iter()
        .enumerate()
        .map(|(id, st)| TenantResult {
            latency: st.latency,
            completed: st.done,
            makespan: cluster.tenant_ref(id).max_now(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilos_core::{ClusterConfig, TenantSpec};
    use dilos_sim::Observability;

    fn small_cluster(qos: bool) -> ServingCluster {
        ServingCluster::boot(ClusterConfig {
            qos,
            tenants: vec![
                TenantSpec {
                    local_quota: 128,
                    local_demand: 128,
                    obs: Observability::tracing(),
                    ..TenantSpec::default()
                },
                TenantSpec {
                    local_quota: 128,
                    local_demand: 512,
                    ..TenantSpec::default()
                },
            ],
            ..ClusterConfig::default()
        })
    }

    fn loads() -> Vec<TenantLoad> {
        vec![
            TenantLoad {
                seed: 0xA11CE,
                arrival: Arrival::Open { mean_ns: 40_000 },
                requests: 200,
                kind: RequestKind::PointRead { touches: 2 },
                working_pages: 256,
            },
            TenantLoad {
                seed: 0xB0B,
                arrival: Arrival::Closed { think_ns: 0 },
                requests: 50,
                kind: RequestKind::Scan { pages: 64 },
                working_pages: 512,
            },
        ]
    }

    #[test]
    fn open_loop_arrivals_are_schedule_driven() {
        let mut cluster = small_cluster(true);
        let results = drive(&mut cluster, &loads());
        assert_eq!(results[0].completed, 200);
        assert_eq!(results[1].completed, 50);
        assert_eq!(results[0].latency.count(), 200);
        assert!(results[0].latency.p999() >= results[0].latency.p50());
        assert!(results[0].makespan > 0);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let run = || {
            let mut cluster = small_cluster(true);
            let results = drive(&mut cluster, &loads());
            let quantiles: Vec<(Ns, Ns, Ns, Ns)> = results
                .iter()
                .map(|r| {
                    (
                        r.latency.p50(),
                        r.latency.p90(),
                        r.latency.p99(),
                        r.latency.p999(),
                    )
                })
                .collect();
            (quantiles, cluster.tenant(0).trace_digest())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exponential_gaps_have_roughly_the_requested_mean() {
        let mut rng = SplitMix64::new(42);
        let mean = 10_000u64;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| exp_gap(&mut rng, mean)).sum();
        let measured = total / n;
        assert!(
            (measured as i64 - mean as i64).unsigned_abs() < mean / 10,
            "measured mean {measured} vs requested {mean}"
        );
    }
}
