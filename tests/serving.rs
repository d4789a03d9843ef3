//! Integration tests for the multi-tenant serving cluster: determinism of
//! the open-loop load generator, QoS noisy-neighbor isolation, the
//! per-tenant frame-quota invariant, and disjoint queue-pair lanes.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use dilos::core::{Auditor, ClusterConfig, ServingCluster, TenantSpec, LANES_PER_TENANT};
use dilos::sim::{Ns, Observability, TraceEvent, TraceObserver, TraceSink};
use dilos_bench::loadgen::{drive, Arrival, RequestKind, TenantLoad};
use dilos_bench::serve::{serve_qos, ServeScale};

fn victim_spec(obs: Observability) -> TenantSpec {
    TenantSpec {
        local_quota: 256,
        local_demand: 256,
        remote_bytes: 1 << 24,
        bandwidth_share: 4,
        cores: 1,
        obs,
    }
}

fn noisy_spec() -> TenantSpec {
    TenantSpec {
        local_quota: 256,
        local_demand: 2_048,
        remote_bytes: 1 << 25,
        bandwidth_share: 1,
        cores: 1,
        obs: Observability::none(),
    }
}

fn victim_load(seed: u64) -> TenantLoad {
    TenantLoad {
        seed,
        arrival: Arrival::Open { mean_ns: 50_000 },
        requests: 150,
        kind: RequestKind::PointRead { touches: 2 },
        working_pages: 384,
    }
}

fn noisy_load() -> TenantLoad {
    TenantLoad {
        seed: 0x5CA7,
        arrival: Arrival::Closed { think_ns: 0 },
        requests: 60,
        kind: RequestKind::Scan { pages: 256 },
        working_pages: 2_048,
    }
}

/// Drives victim + noisy tenants, returning (worst victim p99, worst victim
/// p99.9, victim-0 trace digest).
fn contended_run(qos: bool) -> (Ns, Ns, u64) {
    let mut cluster = ServingCluster::boot(ClusterConfig {
        qos,
        tenants: vec![
            victim_spec(Observability::audited()),
            victim_spec(Observability::tracing()),
            noisy_spec(),
        ],
        ..ClusterConfig::default()
    });
    let results = drive(
        &mut cluster,
        &[victim_load(0xA0), victim_load(0xB1), noisy_load()],
    );
    assert!(
        cluster.audit_reports().is_empty(),
        "audited tenants must stay clean under load"
    );
    let p99 = results[..2].iter().map(|r| r.latency.p99()).max().unwrap();
    let p999 = results[..2].iter().map(|r| r.latency.p999()).max().unwrap();
    (p99, p999, cluster.tenant(0).trace_digest())
}

#[test]
fn same_seed_boots_give_byte_identical_tables_and_digests() {
    let run = || {
        let mut cluster = ServingCluster::boot(ClusterConfig {
            qos: true,
            tenants: vec![
                victim_spec(Observability::tracing()),
                victim_spec(Observability::tracing()),
            ],
            ..ClusterConfig::default()
        });
        let results = drive(&mut cluster, &[victim_load(1), victim_load(2)]);
        let table: Vec<(Ns, Ns, Ns, Ns, u64)> = results
            .iter()
            .map(|r| {
                (
                    r.latency.p50(),
                    r.latency.p90(),
                    r.latency.p99(),
                    r.latency.p999(),
                    r.latency.count(),
                )
            })
            .collect();
        let digests = (
            cluster.tenant(0).trace_digest(),
            cluster.tenant(1).trace_digest(),
        );
        (table, digests)
    };
    let (table_a, digests_a) = run();
    let (table_b, digests_b) = run();
    assert_eq!(table_a, table_b, "percentile tables must be byte-identical");
    assert_eq!(digests_a, digests_b, "trace digests must be byte-identical");
    assert_ne!(digests_a.0, 0, "victim traces must actually record");
}

#[test]
fn serve_report_json_is_byte_stable() {
    let scale = ServeScale {
        victim_requests: 100,
        victim_mean_ns: 50_000,
        noisy_requests: 40,
    };
    assert_eq!(
        serve_qos(scale, |obs| obs).0.to_json(),
        serve_qos(scale, |obs| obs).0.to_json()
    );
}

#[test]
fn qos_on_bounds_victim_tail_inflation_and_qos_off_does_not() {
    // Solo baseline: the victims with no neighbor.
    let mut solo = ServingCluster::boot(ClusterConfig {
        qos: false,
        tenants: vec![
            victim_spec(Observability::audited()),
            victim_spec(Observability::tracing()),
        ],
        ..ClusterConfig::default()
    });
    let solo_results = drive(&mut solo, &[victim_load(0xA0), victim_load(0xB1)]);
    let solo_p999 = solo_results[..2]
        .iter()
        .map(|r| r.latency.p999())
        .max()
        .unwrap()
        .max(1);

    let (off_p99, off_p999, off_digest) = contended_run(false);
    let (on_p99, on_p999, on_digest) = contended_run(true);

    const BOUND: Ns = 4;
    assert!(
        on_p999 <= BOUND * solo_p999,
        "QoS on must bound victim p99.9: {on_p999} vs solo {solo_p999}"
    );
    assert!(
        off_p999 > BOUND * solo_p999,
        "QoS off must NOT bound victim p99.9 (else the experiment shows \
         nothing): {off_p999} vs solo {solo_p999}"
    );
    assert!(
        off_p99 > on_p99,
        "the noisy neighbor must hurt more without QoS: off {off_p99} vs on {on_p99}"
    );
    assert_ne!(
        off_digest, on_digest,
        "the two policies must produce genuinely different schedules"
    );
}

/// Negative test: the per-tenant frame-conservation invariant must flag a
/// tenant whose live-frame population exceeds its quota (a broken cluster
/// boot or arena-accounting bug would show up exactly like this).
#[test]
fn frame_quota_invariant_flags_an_over_quota_tenant() {
    let sink = TraceSink::recording();
    let mut auditor = Auditor::new();
    auditor.set_frame_quota(2);
    let auditor = Rc::new(RefCell::new(auditor));
    sink.attach(auditor.clone());
    sink.emit(1, TraceEvent::FrameAlloc { frame: 0 });
    sink.emit(2, TraceEvent::FrameAlloc { frame: 1 });
    assert!(
        auditor.borrow().is_clean(),
        "within quota must stay clean: {:?}",
        auditor.borrow().violations()
    );
    sink.emit(3, TraceEvent::FrameAlloc { frame: 2 });
    let a = auditor.borrow();
    assert_eq!(a.violation_count(), 1, "over-quota must be flagged once");
    assert!(
        a.violations()[0].contains("frame quota exceeded"),
        "violation must name the invariant: {:?}",
        a.violations()
    );
}

/// The lanes a tenant's verbs were traced on.
#[derive(Default)]
struct Lanes(BTreeSet<u8>);

impl TraceObserver for Lanes {
    fn on_event(&mut self, _t: Ns, ev: &TraceEvent) {
        if let TraceEvent::RdmaIssue { core, .. } = *ev {
            self.0.insert(core);
        }
    }
}

/// Lane ids are `u8` in the trace and in the calendar's completions, so the
/// largest cluster is the one whose last tenant's last core is lane 255:
/// every tenant's verbs stay inside its own lane range up to there.
#[test]
fn thirty_two_tenants_keep_their_lanes_apart_up_to_lane_255() {
    let tenants = 256 / LANES_PER_TENANT;
    let lanes: Vec<_> = (0..tenants)
        .map(|_| Rc::new(RefCell::new(Lanes::default())))
        .collect();
    let specs = lanes
        .iter()
        .map(|l| {
            let obs = Observability::tracing();
            obs.trace().attach(l.clone());
            TenantSpec {
                local_quota: 16,
                local_demand: 16,
                remote_bytes: 64 * 4096,
                cores: LANES_PER_TENANT,
                obs,
                ..TenantSpec::default()
            }
        })
        .collect();
    let mut cluster = ServingCluster::boot(ClusterConfig {
        tenants: specs,
        ..ClusterConfig::default()
    });
    let core = LANES_PER_TENANT - 1;
    for id in 0..tenants {
        let node = cluster.tenant(id);
        let va = node.ddc_alloc(64 * 4096);
        for p in 0..64 {
            node.write_u64(core, va + p * 4096, p + 1);
        }
        // Page 0 was evicted long ago: a demand fetch on the tenant's last
        // lane.
        assert_eq!(node.read_u64(core, va), 1);
        node.trace_digest();
    }
    for (id, l) in lanes.iter().enumerate() {
        let own = id * LANES_PER_TENANT..(id + 1) * LANES_PER_TENANT;
        let seen = &l.borrow().0;
        assert!(
            seen.iter().all(|&lane| own.contains(&usize::from(lane))),
            "tenant {id} traced lanes {seen:?} outside {own:?}"
        );
    }
    assert!(lanes[tenants - 1].borrow().0.contains(&255));
}

#[test]
#[should_panic(expected = "lane ids fit u8")]
fn thirty_three_tenants_would_overflow_the_lane_ids() {
    ServingCluster::boot(ClusterConfig {
        tenants: vec![TenantSpec::default(); 256 / LANES_PER_TENANT + 1],
        ..ClusterConfig::default()
    });
}
