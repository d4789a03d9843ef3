//! The network fabric: shared link occupancy and per-class accounting.
//!
//! DiLOS's communication module (§4.5) is shared-nothing: every paging module
//! gets its own per-core RDMA queue so that "the page fault handler's
//! requests must not be blocked by other low prioritized requests from a
//! prefetcher or a manager (head-of-line blocking)". The fabric models the
//! part all queues *do* share — the 100 GbE wire — and counts its bytes per
//! (tenant, class) row, the one ledger every wire-byte total reads (Figure
//! 12's per-phase traffic, the auditor's census, `net_bytes`).

use std::collections::BTreeMap;

use crate::config::SimConfig;
use crate::time::Ns;
use crate::timeline::Timeline;

/// The originating module of a verb, mapping onto DiLOS's per-module queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// Demand fetches issued by the page fault handler (highest urgency).
    Fault,
    /// Asynchronous prefetches issued by the page prefetcher.
    Prefetch,
    /// Subpage fetches issued by app-aware guides (their own queues, §4.5).
    Guide,
    /// Writebacks and evictions issued by the cleaner/reclaimer.
    Cleaner,
    /// Direct application traffic (used by the AIFM baseline's object
    /// fetches and by raw-verb microbenchmarks).
    App,
}

impl ServiceClass {
    /// All classes, for iteration in reports.
    pub const ALL: [ServiceClass; 5] = [
        ServiceClass::Fault,
        ServiceClass::Prefetch,
        ServiceClass::Guide,
        ServiceClass::Cleaner,
        ServiceClass::App,
    ];

    /// Index into per-class arrays.
    pub fn idx(self) -> usize {
        match self {
            ServiceClass::Fault => 0,
            ServiceClass::Prefetch => 1,
            ServiceClass::Guide => 2,
            ServiceClass::Cleaner => 3,
            ServiceClass::App => 4,
        }
    }

    /// Human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            ServiceClass::Fault => "fault",
            ServiceClass::Prefetch => "prefetch",
            ServiceClass::Guide => "guide",
            ServiceClass::Cleaner => "cleaner",
            ServiceClass::App => "app",
        }
    }
}

/// Deterministic per-tenant bandwidth shaping.
///
/// Each tenant owns a weighted, *dedicated* slice of the link. A transfer
/// by tenant `i` with weight `w_i` runs at full wire speed but advances
/// that tenant's per-direction release horizon by `wire_ns · W / w_i`
/// (where `W` is the total weight); the tenant's next transfer may not
/// start before the horizon. Over any window a tenant therefore consumes
/// at most `w_i / W` of the wire. Shaped transfers never queue on the
/// shared FCFS wire — isolation holds by construction, like per-tenant
/// RNIC rate limiters — so admission assumes the weights together fit the
/// link. The shaper is not work-conserving: an idle tenant's slice is not
/// redistributed. That keeps the model state a handful of release times,
/// so it stays exactly deterministic and auditable.
#[derive(Debug, Clone, Default)]
struct QosShaper {
    /// Per-tenant link weight, indexed by tenant id (missing tenants
    /// default to weight 1).
    shares: Vec<u32>,
    /// Sum of all registered weights.
    total: u64,
    /// Earliest next start, indexed `tenant * 2 + inbound` (grown on
    /// demand; tenant ids are small and dense).
    release: Vec<Ns>,
    /// True wire time consumed by shaped transfers (occupancy reports).
    shaped_busy: Ns,
}

/// A verb's size-only costs: wire occupancy and total latency of `bytes`.
#[derive(Debug, Clone, Copy)]
struct VerbCost {
    bytes: usize,
    wire: Ns,
    total: Ns,
}

impl VerbCost {
    fn of(cfg: &SimConfig, bytes: usize, read: bool) -> Self {
        let total = if read {
            cfg.rdma_read_ns(bytes)
        } else {
            cfg.rdma_write_ns(bytes)
        };
        Self {
            bytes,
            wire: cfg.wire_ns(bytes),
            total,
        }
    }
}

/// The shared wire plus per-(tenant, class) byte accounting.
#[derive(Debug)]
pub struct Fabric {
    cfg: SimConfig,
    /// The last size's [`VerbCost`], one entry per direction (`[write,
    /// read]`). `cfg` never changes after construction, so a hit is exact.
    memo: [VerbCost; 2],
    /// Compute-node → memory-node direction (evictions/writebacks).
    link_up: Timeline,
    /// Memory-node → compute-node direction (fetches). RoCE links are full
    /// duplex, so the two directions do not contend.
    link_down: Timeline,
    /// Tenant whose traffic is currently on the wire (single-tenant boots
    /// never change this from 0). Set by the cluster layer around each verb.
    active_tenant: u8,
    /// Per-(tenant, class) byte counts, outbound, indexed
    /// `tenant * 5 + class.idx()` (grown on demand).
    tenant_tx: Vec<u64>,
    /// Per-(tenant, class) byte counts, inbound, same layout.
    tenant_rx: Vec<u64>,
    /// QoS bandwidth arbitration; `None` (the default) is free-for-all.
    qos: Option<QosShaper>,
}

impl Fabric {
    /// Creates a fabric with the given calibration. `_bw_bucket_ns` is
    /// ignored: a compatibility shim for existing callers, going with the
    /// verb shims (ROADMAP item 5).
    pub fn new(cfg: SimConfig, _bw_bucket_ns: Ns) -> Self {
        Self {
            memo: [VerbCost::of(&cfg, 0, false), VerbCost::of(&cfg, 0, true)],
            cfg,
            link_up: Timeline::new(),
            link_down: Timeline::new(),
            active_tenant: 0,
            tenant_tx: Vec::new(),
            tenant_rx: Vec::new(),
            qos: None,
        }
    }

    /// Attributes subsequent transfers to `tenant` (accounting and, when
    /// QoS is on, shaping). Single-tenant boots leave this at 0.
    pub fn set_active_tenant(&mut self, tenant: u8) {
        self.active_tenant = tenant;
    }

    /// Enables QoS bandwidth arbitration with the given per-tenant weights.
    /// Tenants absent from the map get weight 1.
    pub fn set_qos(&mut self, shares: BTreeMap<u8, u32>) {
        let total: u64 = shares.values().map(|&w| u64::from(w.max(1))).sum();
        let mut dense = Vec::new();
        for (&tenant, &w) in &shares {
            let i = tenant as usize;
            if dense.len() <= i {
                dense.resize(i + 1, 1);
            }
            dense[i] = w;
        }
        self.qos = Some(QosShaper {
            shares: dense,
            total: total.max(1),
            release: Vec::new(),
            shaped_busy: 0,
        });
    }

    /// The calibration constants in force.
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// `(wire_ns, rdma_{read,write}_ns)` of a `bytes`-byte verb, recomputed
    /// only when the size differs from the direction's last one.
    pub(crate) fn verb_cost(&mut self, bytes: usize, read: bool) -> (Ns, Ns) {
        let m = &mut self.memo[usize::from(read)];
        if m.bytes != bytes {
            *m = VerbCost::of(&self.cfg, bytes, read);
        }
        (m.wire, m.total)
    }

    /// Occupies the wire for `bytes` starting no earlier than `t`, returning
    /// the wire-completion time, and accounts the bytes to `class`.
    ///
    /// `inbound` is memory-node → compute-node (fetch) traffic.
    pub fn transfer(&mut self, t: Ns, class: ServiceClass, bytes: usize, inbound: bool) -> Ns {
        let (wire, _) = self.verb_cost(bytes, inbound);
        let tenant = self.active_tenant;
        // QoS shaping: hold the transfer until the tenant's release horizon,
        // advance the horizon by the share-scaled wire cost, and run on the
        // tenant's dedicated slice (never the shared FCFS wire, where a
        // saturating tenant's future-booked transfers would block everyone
        // who calls after it).
        let end = match &mut self.qos {
            Some(q) => {
                let share = u64::from(q.shares.get(tenant as usize).copied().unwrap_or(1).max(1));
                let ri = tenant as usize * 2 + usize::from(inbound);
                if q.release.len() <= ri {
                    q.release.resize(ri + 1, 0);
                }
                let start = t.max(q.release[ri]);
                q.release[ri] = start.saturating_add(wire.saturating_mul(q.total) / share);
                q.shaped_busy = q.shaped_busy.saturating_add(wire);
                start.saturating_add(wire)
            }
            None => {
                let link = if inbound {
                    &mut self.link_down
                } else {
                    &mut self.link_up
                };
                link.acquire(t, wire).1
            }
        };
        let ti = tenant as usize * 5 + class.idx();
        let rows = if inbound {
            &mut self.tenant_rx
        } else {
            &mut self.tenant_tx
        };
        if rows.len() <= ti {
            rows.resize(ti + 1, 0);
        }
        rows[ti] += bytes as u64;
        end
    }

    /// Total bytes on this link, `(tx, rx)`: the sum of every
    /// per-(tenant, class) row.
    pub fn total_bytes(&self) -> (u64, u64) {
        (self.tenant_tx.iter().sum(), self.tenant_rx.iter().sum())
    }

    /// Outbound bytes attributed to `(tenant, class)`.
    pub fn tenant_tx(&self, tenant: u8, class: ServiceClass) -> u64 {
        self.tenant_tx
            .get(tenant as usize * 5 + class.idx())
            .copied()
            .unwrap_or(0)
    }

    /// Inbound bytes attributed to `(tenant, class)`.
    pub fn tenant_rx(&self, tenant: u8, class: ServiceClass) -> u64 {
        self.tenant_rx
            .get(tenant as usize * 5 + class.idx())
            .copied()
            .unwrap_or(0)
    }

    /// Total link busy time across both directions (utilization reports),
    /// including true wire time consumed on shaped per-tenant slices.
    pub fn link_busy(&self) -> Ns {
        self.link_up
            .total_busy()
            .saturating_add(self.link_down.total_busy())
            .saturating_add(self.qos.as_ref().map_or(0, |q| q.shaped_busy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_serialize_on_the_wire() {
        let mut f = Fabric::new(SimConfig::default(), 1_000_000);
        let w = f.cfg().wire_ns(4096);
        let a = f.transfer(0, ServiceClass::Fault, 4096, true);
        let b = f.transfer(0, ServiceClass::Prefetch, 4096, true);
        assert_eq!(a, w);
        assert_eq!(b, 2 * w, "second transfer queues behind the first");
        // The opposite direction is independent (full duplex).
        let c = f.transfer(0, ServiceClass::Cleaner, 4096, false);
        assert_eq!(c, w);
    }

    #[test]
    fn per_class_accounting() {
        let mut f = Fabric::new(SimConfig::default(), 1_000_000);
        f.transfer(0, ServiceClass::Cleaner, 100, false);
        f.transfer(0, ServiceClass::Fault, 200, true);
        assert_eq!(f.total_bytes(), (100, 200));
        // Single-tenant traffic lands on tenant 0's ledger.
        assert_eq!(f.tenant_rx(0, ServiceClass::Fault), 200);
        assert_eq!(f.tenant_tx(0, ServiceClass::Cleaner), 100);
        assert_eq!(f.tenant_rx(1, ServiceClass::Fault), 0);
    }

    #[test]
    fn per_tenant_accounting_follows_the_active_tenant() {
        let mut f = Fabric::new(SimConfig::default(), 1_000_000);
        f.set_active_tenant(1);
        f.transfer(0, ServiceClass::Fault, 4096, true);
        f.set_active_tenant(2);
        f.transfer(0, ServiceClass::Fault, 8192, true);
        assert_eq!(f.tenant_rx(1, ServiceClass::Fault), 4096);
        assert_eq!(f.tenant_rx(2, ServiceClass::Fault), 8192);
        assert_eq!(f.total_bytes().1, 4096 + 8192);
    }

    #[test]
    fn wire_bytes_land_on_exactly_one_tenant_row() {
        use ServiceClass::{Cleaner, Fault};
        let mut f = Fabric::new(SimConfig::default(), 1_000_000);
        // Two tenants, two classes, both directions, interleaved.
        for (tenant, class, bytes, inbound) in [
            (3u8, Fault, 4096usize, true),
            (1, Cleaner, 512, false),
            (1, Fault, 64, true),
            (3, Cleaner, 4096, false),
            (1, Fault, 4096, true),
            (3, Fault, 128, false),
        ] {
            f.set_active_tenant(tenant);
            f.transfer(0, class, bytes, inbound);
        }
        assert_eq!(f.tenant_rx(1, Fault), 64 + 4096);
        assert_eq!(f.tenant_rx(3, Fault), 4096);
        assert_eq!(f.tenant_tx(3, Fault), 128);
        assert_eq!(f.tenant_tx(1, Cleaner), 512);
        assert_eq!(f.tenant_tx(3, Cleaner), 4096);
        // The rows partition the link's traffic: nothing counted twice,
        // nothing dropped.
        let (mut tx, mut rx) = (0, 0);
        for class in ServiceClass::ALL {
            for t in 0..=u8::MAX {
                tx += f.tenant_tx(t, class);
                rx += f.tenant_rx(t, class);
            }
        }
        assert_eq!((tx, rx), f.total_bytes());
        assert_eq!(f.total_bytes().1, 4096 + 64 + 4096);
        assert_eq!(f.total_bytes().0, 512 + 4096 + 128);
    }

    #[test]
    fn qos_shaper_throttles_a_tenant_to_its_share() {
        let mut f = Fabric::new(SimConfig::default(), 1_000_000);
        let w = f.cfg().wire_ns(4096);
        let mut shares = BTreeMap::new();
        shares.insert(1u8, 1u32);
        shares.insert(2u8, 3u32);
        f.set_qos(shares);
        // Tenant 1 holds 1/4 of the link: back-to-back transfers are spaced
        // 4 wire-times apart even though the wire itself is idle.
        f.set_active_tenant(1);
        let a = f.transfer(0, ServiceClass::Fault, 4096, true);
        let b = f.transfer(0, ServiceClass::Fault, 4096, true);
        assert_eq!(a, w);
        assert_eq!(b, 4 * w + w, "second start held to release = 4 wire-times");
        // Tenant 2 (3/4 share) is spaced only 4/3 wire-times.
        f.set_active_tenant(2);
        let c = f.transfer(2 * 4 * w, ServiceClass::Fault, 4096, true);
        let d = f.transfer(2 * 4 * w, ServiceClass::Fault, 4096, true);
        assert_eq!(d - c, w * 4 / 3);
    }

    #[test]
    fn qos_off_is_unshaped() {
        let mut f = Fabric::new(SimConfig::default(), 1_000_000);
        let w = f.cfg().wire_ns(4096);
        f.set_active_tenant(1);
        let a = f.transfer(0, ServiceClass::Fault, 4096, true);
        let b = f.transfer(0, ServiceClass::Fault, 4096, true);
        assert_eq!(a, w);
        assert_eq!(b, 2 * w, "without QoS only wire occupancy serializes");
    }
}
