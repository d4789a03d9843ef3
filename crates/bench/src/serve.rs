//! The multi-tenant serving experiment: noisy-neighbor isolation under QoS.
//!
//! Three tenants share one memory node: two well-behaved *victims* serving
//! open-loop point lookups, and one *noisy* tenant running a closed-loop
//! full-working-set scanner with zero think time (a wire- and
//! reclaim-saturating neighbor). Three passes:
//!
//! 1. **solo** — the victims alone (no neighbor): the baseline tail.
//! 2. **QoS off** — the neighbor joins; local frames are split by demand
//!    and the wire is first-come-first-served, so the scanner starves the
//!    victims of both.
//! 3. **QoS on** — bandwidth shares + local-memory quotas: the scanner is
//!    shaped to its share and capped at its frame quota; victim tails stay
//!    near solo.
//!
//! The stated isolation bound ([`QOS_P999_BOUND`]): with QoS on, victim
//! p99.9 stays within `QOS_P999_BOUND ×` the solo baseline. The table's
//! notes state the bound and whether each pass held it — with QoS off the
//! bound fails, which is the point.

use dilos_core::{ClusterConfig, ServingCluster, TenantSpec};
use dilos_sim::{Observability, ServiceClass};

use crate::loadgen::{drive, Arrival, RequestKind, TenantLoad, TenantResult};
use crate::table::{us, Report};

/// Stated isolation bound: QoS-on victim p99.9 ≤ bound × solo p99.9.
pub const QOS_P999_BOUND: u64 = 4;

/// Experiment sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServeScale {
    /// Open-loop requests per victim tenant.
    pub victim_requests: usize,
    /// Mean inter-arrival gap per victim (virtual ns).
    pub victim_mean_ns: u64,
    /// Closed-loop scan requests for the noisy tenant.
    pub noisy_requests: usize,
}

impl Default for ServeScale {
    fn default() -> Self {
        Self {
            victim_requests: 400,
            victim_mean_ns: 50_000,
            noisy_requests: 150,
        }
    }
}

const VICTIM_QUOTA: usize = 256;
const VICTIM_WS_PAGES: usize = 384;
const NOISY_WS_PAGES: usize = 2_048;

fn victim_spec(obs: Observability) -> TenantSpec {
    TenantSpec {
        local_quota: VICTIM_QUOTA,
        local_demand: VICTIM_QUOTA,
        remote_bytes: 1 << 24,
        bandwidth_share: 4,
        cores: 1,
        obs,
    }
}

fn noisy_spec(obs: Observability) -> TenantSpec {
    TenantSpec {
        local_quota: VICTIM_QUOTA,
        // Demands 8× its quota: without QoS the demand-proportional split
        // hands it most of the frame pool, starving the victims.
        local_demand: NOISY_WS_PAGES,
        remote_bytes: 1 << 25,
        bandwidth_share: 1,
        cores: 1,
        obs,
    }
}

fn victim_load(scale: ServeScale, seed: u64) -> TenantLoad {
    TenantLoad {
        seed,
        arrival: Arrival::Open {
            mean_ns: scale.victim_mean_ns,
        },
        requests: scale.victim_requests,
        kind: RequestKind::PointRead { touches: 2 },
        working_pages: VICTIM_WS_PAGES,
    }
}

fn noisy_load(scale: ServeScale) -> TenantLoad {
    TenantLoad {
        seed: 0x5CA7,
        arrival: Arrival::Closed { think_ns: 0 },
        requests: scale.noisy_requests,
        kind: RequestKind::Scan { pages: 256 },
        working_pages: NOISY_WS_PAGES,
    }
}

/// One tenant's metric lane: fault counts from its node's hand counters
/// plus its attributed wire bytes across all service classes. These are the
/// per-tenant numbers the causal tail exemplars are cross-checked against.
#[derive(Debug, Clone, Copy)]
struct TenantLane {
    major: u64,
    minor: u64,
    tx_bytes: u64,
    rx_bytes: u64,
}

struct Pass {
    results: Vec<TenantResult>,
    lanes: Vec<TenantLane>,
    audit: Vec<(u8, Vec<String>)>,
    /// The bundle each tenant ran under, settled.
    obs: Vec<Observability>,
}

fn tenant_lanes(cluster: &ServingCluster) -> Vec<TenantLane> {
    (0..cluster.len())
        .map(|i| {
            let stats = cluster.tenant_ref(i).stats();
            let (mut tx_bytes, mut rx_bytes) = (0u64, 0u64);
            let ep = cluster.pool().endpoint();
            for class in ServiceClass::ALL {
                let (tx, rx) = ep.tenant_class_bytes(i as u8, class);
                tx_bytes += tx;
                rx_bytes += rx;
            }
            TenantLane {
                major: stats.major_faults,
                minor: stats.minor_faults,
                tx_bytes,
                rx_bytes,
            }
        })
        .collect()
}

/// Runs one pass: victims (+ optionally the noisy neighbor), QoS on/off.
/// `arm` finishes every lit tenant's bundle.
fn run_pass(
    scale: ServeScale,
    with_noisy: bool,
    qos: bool,
    arm: &dyn Fn(Observability) -> Observability,
) -> Pass {
    let mut obs = vec![arm(Observability::audited()), arm(Observability::tracing())];
    let mut tenants: Vec<TenantSpec> = obs.iter().cloned().map(victim_spec).collect();
    let mut loads = vec![victim_load(scale, 0xA0), victim_load(scale, 0xB1)];
    if with_noisy {
        // Nothing but a timeline reads the neighbor's stream: it boots dark
        // unless `arm` put a causal tracer on it.
        let lit = arm(Observability::tracing());
        let noisy = if lit.causal().is_enabled() {
            lit
        } else {
            Observability::none()
        };
        tenants.push(noisy_spec(noisy.clone()));
        obs.push(noisy);
        loads.push(noisy_load(scale));
    }
    let mut cluster = ServingCluster::boot(ClusterConfig {
        qos,
        tenants,
        ..ClusterConfig::default()
    });
    let results = drive(&mut cluster, &loads);
    let lanes = tenant_lanes(&cluster);
    let audit = cluster.audit_reports();
    // Digesting quiesces: every tenant's stream is settled before its
    // bundle is handed back.
    for i in 0..cluster.len() {
        cluster.tenant(i).trace_digest();
    }
    Pass {
        results,
        lanes,
        audit,
        obs,
    }
}

/// The serving table: per-pass, per-tenant latency percentiles.
///
/// `arm` finishes the bundle of every lit tenant of the two contended
/// passes: the identity for the table alone,
/// [`Observability::with_timeline`] to also assemble span trees (which
/// lights the noisy tenant too). Those passes' bundles come back beside
/// the table, one per tenant, labelled as timeline process names
/// (`tenant0 (victim, qos-off)` …), so a cluster timeline reads as one
/// track group per tenant.
pub fn serve_qos(
    scale: ServeScale,
    arm: impl Fn(Observability) -> Observability,
) -> (Report, Vec<(String, Observability)>) {
    let mut report = Report::new(
        "Serve — multi-tenant tail latency under a noisy neighbor",
        &[
            "pass", "tenant", "role", "requests", "p50", "p90", "p99", "p99.9", "mean", "major",
            "minor", "rx KiB", "tx KiB",
        ],
    );
    let passes = [
        ("solo", run_pass(scale, false, false, &|obs| obs)),
        ("qos-off", run_pass(scale, true, false, &arm)),
        ("qos-on", run_pass(scale, true, true, &arm)),
    ];
    let role_of = |id: usize| if id < 2 { "victim" } else { "noisy" };
    let mut solo_p999 = 0u64;
    let mut tracks = Vec::new();
    for (name, pass) in &passes {
        for (id, r) in pass.results.iter().enumerate() {
            let role = role_of(id);
            let lane = pass.lanes.get(id);
            report.row(vec![
                (*name).into(),
                id.to_string(),
                role.into(),
                r.completed.to_string(),
                us(r.latency.p50()),
                us(r.latency.p90()),
                us(r.latency.p99()),
                us(r.latency.p999()),
                us(r.latency.mean()),
                lane.map_or(0, |l| l.major).to_string(),
                lane.map_or(0, |l| l.minor).to_string(),
                (lane.map_or(0, |l| l.rx_bytes) / 1024).to_string(),
                (lane.map_or(0, |l| l.tx_bytes) / 1024).to_string(),
            ]);
        }
        report.digest(format!("{name} (victim 0)"), pass.obs[0].trace().digest());
        if *name != "solo" {
            tracks.extend(
                pass.obs
                    .iter()
                    .enumerate()
                    .map(|(id, o)| (format!("tenant{id} ({}, {name})", role_of(id)), o.clone())),
            );
        }
        let victim_p999 = pass.results[..2]
            .iter()
            .map(|r| r.latency.p999())
            .max()
            .unwrap_or(0);
        match *name {
            "solo" => solo_p999 = victim_p999.max(1),
            _ => {
                let held = victim_p999 <= QOS_P999_BOUND * solo_p999;
                report.note(format!(
                    "{name}: victim p99.9 {} = {:.2}x solo — bound ({QOS_P999_BOUND}x) {}",
                    us(victim_p999),
                    victim_p999 as f64 / solo_p999 as f64,
                    if held { "HELD" } else { "EXCEEDED" }
                ));
            }
        }
        if !pass.audit.is_empty() {
            report.note(format!("{name}: AUDIT VIOLATIONS {:?}", pass.audit));
        }
    }
    report.note(
        "QoS arbitration = per-tenant bandwidth shares (4:4:1) + local-frame quotas \
         with demand capped at quota; without it frames are split demand-proportionally \
         and the wire is FCFS.",
    );
    report.note("Audited victim (tenant 0) ran clean in every pass unless noted above.");
    report.note(
        "Per-tenant lanes (major/minor faults, attributed wire bytes) cross-check \
         the causal tail exemplars in results/tail.{md,json}: a victim tail blowup \
         with QoS off shows up as transfer-dominated exemplars while the noisy \
         tenant's rx lane saturates.",
    );
    (report, tracks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_report_is_deterministic_and_qos_bounds_the_tail() {
        let scale = ServeScale {
            victim_requests: 120,
            victim_mean_ns: 50_000,
            noisy_requests: 60,
        };
        let a = serve_qos(scale, |obs| obs).0.to_json();
        let b = serve_qos(scale, |obs| obs).0.to_json();
        assert_eq!(a, b, "serve table must be byte-stable");
        assert!(a.contains("HELD"), "QoS-on must hold the stated bound");
        assert!(a.contains("rx KiB"), "per-tenant wire lanes missing");
    }

    #[test]
    fn serve_timeline_tracks_are_per_tenant_and_deterministic() {
        let scale = ServeScale {
            victim_requests: 60,
            victim_mean_ns: 50_000,
            noisy_requests: 30,
        };
        let (table, a) = serve_qos(scale, Observability::with_timeline);
        let (_, b) = serve_qos(scale, Observability::with_timeline);
        // Both contended passes, three tenants each, qos-off first.
        assert_eq!(a.len(), 6);
        assert!(a[3].0.contains("victim") && a[5].0.contains("noisy"));
        assert!(a[2].0.contains("qos-off") && a[5].0.contains("qos-on"));
        for ((_, oa), (_, ob)) in a.iter().zip(&b) {
            let (ta, tb) = (oa.causal(), ob.causal());
            assert_eq!(
                oa.trace().digest(),
                ob.trace().digest(),
                "per-tenant digests must be deterministic"
            );
            assert_eq!(ta.request_count(), tb.request_count());
            assert!(ta.request_count() > 0, "tenant saw no requests");
        }
        // Arming the timeline lights the noisy tenant and changes no row.
        let (dark, none) = serve_qos(scale, |obs| obs);
        assert_eq!(table.to_json(), dark.to_json());
        assert!(none.iter().all(|(_, o)| !o.causal().is_enabled()));
        assert!(!none[2].1.trace().is_enabled(), "noisy tenant boots dark");
    }
}
