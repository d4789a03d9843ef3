//! The multi-tenant serving cluster: N DiLOS nodes on one memory pool.
//!
//! The ROADMAP north-star talks about "serving heavy traffic from millions
//! of users"; every experiment before this module booted exactly one app
//! node. [`ServingCluster`] boots N [`Dilos`] tenants against one shared
//! [`RdmaEndpoint`] — one wire-occupancy model, one memory-node pool —
//! via per-tenant [`RdmaPort`](dilos_sim::RdmaPort)s (protection keys,
//! remote-address slices,
//! disjoint queue-pair lanes).
//!
//! QoS arbitration (the [`ClusterConfig::qos`] switch) has two arms:
//!
//! - **Bandwidth shares** — each tenant's wire traffic is shaped to its
//!   weighted share of the link (see `dilos_sim::fabric`), so a scan-heavy
//!   neighbour cannot monopolize the wire.
//! - **Local-memory quotas** — each tenant's local frame cache is capped at
//!   its quota, so reclaim pressure from an over-subscribed tenant stays in
//!   its own arena (the over-quota tenant evicts its *own* pages first —
//!   admission-time enforcement of reclaim priority). With QoS off, the
//!   frame pool is instead divided proportionally to *demand*, which lets a
//!   greedy tenant starve its neighbours of local memory exactly like an
//!   unpartitioned host.
//!
//! Tenants that boot with an audited [`Observability`] bundle get the
//! per-tenant frame-conservation invariant armed with their quota.
//!
//! Determinism: tenant ids are `u8` and every per-tenant structure is
//! ordered by them; the cluster itself holds no wall-clock or hash-ordered
//! state, so a cluster run is as replayable as a single-node run.

use std::collections::BTreeMap;

use dilos_sim::{Observability, RdmaEndpoint, SharedPool, SimConfig};

use crate::node::{Dilos, DilosConfig};
use crate::prefetch::Readahead;

/// Maximum cores per tenant: tenants get disjoint queue-pair lane ranges
/// of this width, and lane ids must stay within `u8` for trace events.
pub const LANES_PER_TENANT: usize = 8;

/// One tenant's sizing and instrumentation.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Local frame quota under QoS (and this tenant's fair entitlement).
    pub local_quota: usize,
    /// Local frames the tenant *tries* to take. With QoS on, the effective
    /// cache is `min(demand, quota)`; with QoS off, the shared pool is
    /// split proportionally to demand — a greedy demand starves neighbours.
    pub local_demand: usize,
    /// Remote slice size in bytes (page-aligned).
    pub remote_bytes: u64,
    /// Weighted share of the link under QoS.
    pub bandwidth_share: u32,
    /// Simulated cores (must be ≤ [`LANES_PER_TENANT`]).
    pub cores: usize,
    /// The tenant's observability bundle (one per tenant — bundles must
    /// not be shared across tenants or their event streams interleave).
    pub obs: Observability,
}

impl Default for TenantSpec {
    fn default() -> Self {
        Self {
            local_quota: 256,
            local_demand: 256,
            remote_bytes: 1 << 24,
            bandwidth_share: 1,
            cores: 1,
            obs: Observability::none(),
        }
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Fabric/latency calibration shared by every tenant.
    pub sim: SimConfig,
    /// Enable QoS arbitration (bandwidth shares + local-memory quotas).
    pub qos: bool,
    /// The tenants, in id order (tenant id = index).
    pub tenants: Vec<TenantSpec>,
}

/// N booted DiLOS tenants sharing one memory pool.
pub struct ServingCluster {
    pool: SharedPool,
    nodes: Vec<Dilos>,
    qos: bool,
}

impl ServingCluster {
    /// Boots the cluster: connects one endpoint sized for every tenant's
    /// slice, registers per-tenant protection keys, applies the QoS policy,
    /// and boots each tenant through its port.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list, more than 256 / [`LANES_PER_TENANT`]
    /// tenants, a tenant with more cores than that, or an unaligned slice.
    pub fn boot(cfg: ClusterConfig) -> Self {
        assert!(!cfg.tenants.is_empty(), "at least one tenant");
        assert!(
            cfg.tenants.len() * LANES_PER_TENANT <= 256,
            "lane ids fit u8"
        );
        let total_remote: u64 = cfg.tenants.iter().map(|t| t.remote_bytes).sum();
        let pool = SharedPool::new(RdmaEndpoint::connect(cfg.sim.clone(), total_remote));

        // Per-tenant protection keys over disjoint slices of the pool.
        let mut base = 0u64;
        let mut bases = Vec::with_capacity(cfg.tenants.len());
        for (id, spec) in cfg.tenants.iter().enumerate() {
            assert!(
                spec.remote_bytes % 4096 == 0,
                "tenant slice must be page-aligned"
            );
            assert!(
                spec.cores <= LANES_PER_TENANT,
                "tenant cores exceed the lane range"
            );
            pool.register_tenant(id as u8, base, spec.remote_bytes);
            bases.push(base);
            base += spec.remote_bytes;
        }

        if cfg.qos {
            let shares: BTreeMap<u8, u32> = cfg
                .tenants
                .iter()
                .enumerate()
                .map(|(id, t)| (id as u8, t.bandwidth_share.max(1)))
                .collect();
            pool.set_qos(shares);
        }

        let frames = Self::frame_split(&cfg);
        let nodes = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(id, spec)| {
                let port = pool.port(id as u8, bases[id], id * LANES_PER_TENANT);
                let node_cfg = DilosConfig {
                    local_pages: frames[id],
                    remote_bytes: spec.remote_bytes,
                    cores: spec.cores,
                    sim: cfg.sim.clone(),
                    obs: spec.obs.clone(),
                    ..DilosConfig::default()
                };
                let mut node = Dilos::with_port(node_cfg, port);
                node.set_prefetcher(Box::new(Readahead::new()));
                node
            })
            .collect();
        Self {
            pool,
            nodes,
            qos: cfg.qos,
        }
    }

    /// The effective local-frame split: quotas under QoS,
    /// demand-proportional division of the quota pool without it.
    fn frame_split(cfg: &ClusterConfig) -> Vec<usize> {
        if cfg.qos {
            return cfg
                .tenants
                .iter()
                .map(|t| t.local_quota.min(t.local_demand).max(16))
                .collect();
        }
        let pool: usize = cfg.tenants.iter().map(|t| t.local_quota).sum();
        let demand: usize = cfg
            .tenants
            .iter()
            .map(|t| t.local_demand)
            .sum::<usize>()
            .max(1);
        cfg.tenants
            .iter()
            .map(|t| (pool * t.local_demand / demand).max(16))
            .collect()
    }

    /// Whether QoS arbitration is active.
    pub fn qos(&self) -> bool {
        self.qos
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no tenants (never, post-boot).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Tenant `id`'s node.
    pub fn tenant(&mut self, id: usize) -> &mut Dilos {
        &mut self.nodes[id]
    }

    /// Immutable view of tenant `id`'s node.
    pub fn tenant_ref(&self, id: usize) -> &Dilos {
        &self.nodes[id]
    }

    /// The shared pool (endpoint-wide reports).
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    /// Runs every tenant's audit cross-checks, returning `(tenant id,
    /// findings)` for tenants that booted with an audited bundle and have
    /// findings. Empty means every audited tenant is clean.
    pub fn audit_reports(&mut self) -> Vec<(u8, Vec<String>)> {
        self.nodes
            .iter_mut()
            .enumerate()
            .filter(|(_, n)| n.config().obs.audit())
            .map(|(id, n)| (id as u8, n.audit_report()))
            .filter(|(_, findings)| !findings.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_cfg(qos: bool) -> ClusterConfig {
        ClusterConfig {
            sim: SimConfig::default(),
            qos,
            tenants: vec![
                TenantSpec {
                    obs: Observability::audited(),
                    ..TenantSpec::default()
                },
                TenantSpec {
                    local_demand: 512,
                    bandwidth_share: 4,
                    obs: Observability::tracing(),
                    ..TenantSpec::default()
                },
            ],
        }
    }

    fn run_tenant(cluster: &mut ServingCluster, id: usize, pages: u64, stamp: u64) {
        let node = cluster.tenant(id);
        let base = node.ddc_alloc((pages * 4096) as usize);
        for p in 0..pages {
            node.write_u64(0, base + p * 4096, stamp + p);
        }
        for p in 0..pages {
            assert_eq!(node.read_u64(0, base + p * 4096), stamp + p);
        }
    }

    #[test]
    fn tenants_roundtrip_independently() {
        let mut cluster = ServingCluster::boot(two_tenant_cfg(false));
        run_tenant(&mut cluster, 0, 600, 0xAAAA_0000);
        run_tenant(&mut cluster, 1, 600, 0xBBBB_0000);
        // Interleave again to force cross-tenant activation switches.
        run_tenant(&mut cluster, 0, 600, 0xCCCC_0000);
        assert!(
            cluster.audit_reports().is_empty(),
            "audited tenant must stay clean"
        );
    }

    #[test]
    fn qos_quotas_cap_the_greedy_tenant() {
        let mut on = ServingCluster::boot(two_tenant_cfg(true));
        let mut off = ServingCluster::boot(two_tenant_cfg(false));
        // Tenant 1 demands 512 frames against a 256 quota.
        assert_eq!(on.tenant_ref(1).config().local_pages, 256);
        assert!(
            off.tenant_ref(1).config().local_pages > 256,
            "without QoS the greedy tenant grabs more than its quota"
        );
        assert!(
            off.tenant_ref(0).config().local_pages < 256,
            "and its neighbour is starved below its entitlement"
        );
        run_tenant(&mut on, 1, 400, 1);
        run_tenant(&mut off, 1, 400, 1);
    }

    #[test]
    fn same_seed_clusters_produce_identical_digests() {
        let digest = |qos| {
            let mut c = ServingCluster::boot(two_tenant_cfg(qos));
            run_tenant(&mut c, 0, 600, 7);
            run_tenant(&mut c, 1, 600, 9);
            (c.tenant(0).trace_digest(), c.tenant(1).trace_digest())
        };
        assert_eq!(digest(false), digest(false));
        assert_eq!(digest(true), digest(true));
    }
}
