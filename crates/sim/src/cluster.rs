//! Multi-tenant sharing of one RDMA endpoint / memory-node pool.
//!
//! The paper's evaluation boots exactly one compute node against the
//! fabric. A serving rack does not: N app nodes contend for the same wire
//! and the same memory pool (Clio, DRackSim). This module provides the
//! sharing primitive: a [`SharedPool`] wraps one [`RdmaEndpoint`] —
//! one link-occupancy model and one memory-node calendar — and hands each
//! tenant an [`RdmaPort`], a capability carrying the tenant's protection
//! keys (a registered sub-region per memory node), its remote-address
//! base, and its own queue-pair lane range.
//!
//! Determinism: a port *activates* its tenant on the endpoint before every
//! verb — installing that tenant's trace/metrics/calendar and protection
//! keys — so interleaved verbs from different tenants each observe into
//! their own streams while contending on the shared wire timelines. All
//! tenant state is keyed by tenant id in `BTreeMap`s; nothing iterates in
//! hash order. A single-tenant boot is tenant 0 of a one-tenant pool:
//! tenant 0 registers no slice, so its verbs carry the full-pool keys, and
//! its traffic lands on the fabric's tenant-0 rows, the default.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::fabric::ServiceClass;
use crate::machine::DeliverCompletion;
use crate::obs::Observability;
use crate::rdma::{Local, RdmaEndpoint, RdmaError, Segment};
use crate::recover::{Fault, When};
use crate::sched::Calendar;
use crate::store::Page;
use crate::time::Ns;

/// A shared memory-node pool: one endpoint, many tenants.
#[derive(Debug, Clone)]
pub struct SharedPool {
    ep: Rc<RefCell<RdmaEndpoint>>,
}

impl SharedPool {
    /// Wraps a connected endpoint for sharing.
    pub fn new(ep: RdmaEndpoint) -> Self {
        Self {
            ep: Rc::new(RefCell::new(ep)),
        }
    }

    /// Registers tenant `tenant`'s remote slice `[base, base + bytes)` on
    /// every memory node (per-tenant protection keys).
    pub fn register_tenant(&self, tenant: u8, base: u64, bytes: u64) {
        self.ep.borrow_mut().register_tenant(tenant, base, bytes);
    }

    /// Enables QoS bandwidth arbitration with per-tenant link weights.
    pub fn set_qos(&self, shares: BTreeMap<u8, u32>) {
        self.ep.borrow_mut().set_qos(shares);
    }

    /// Creates tenant `tenant`'s port. `base` is the tenant's remote-address
    /// base (all verb addresses are offset by it) and `lane_base` the first
    /// queue-pair lane of the tenant's core range — give each tenant a
    /// disjoint range so tenants never share a QP, only the wire.
    pub fn port(&self, tenant: u8, base: u64, lane_base: usize) -> RdmaPort {
        RdmaPort {
            ep: Rc::clone(&self.ep),
            tenant,
            base,
            lane_base,
            obs: Observability::none(),
            cal: Calendar::new(),
            seg_scratch: Vec::new(),
        }
    }

    /// Immutable view of the shared endpoint (reports and tests).
    pub fn endpoint(&self) -> Ref<'_, RdmaEndpoint> {
        self.ep.borrow()
    }
}

/// A tenant's capability to the shared endpoint.
///
/// The port mirrors the endpoint's verb surface; each call activates the
/// owning tenant (observability, calendar, protection keys) and forwards
/// with the tenant's address base and lane base applied.
#[derive(Debug, Clone)]
pub struct RdmaPort {
    ep: Rc<RefCell<RdmaEndpoint>>,
    tenant: u8,
    base: u64,
    lane_base: usize,
    obs: Observability,
    cal: Calendar,
    /// Reusable buffer for tenant-base-shifted segments (vectored verbs).
    seg_scratch: Vec<Segment>,
}

impl RdmaPort {
    /// Wraps `ep` as tenant 0 of a one-tenant pool, owning the whole
    /// endpoint.
    pub fn exclusive(ep: RdmaEndpoint) -> Self {
        SharedPool::new(ep).port(0, 0, 0)
    }

    /// Binds the owner's observability bundle and calendar, which the first
    /// verb installs on the endpoint. Called once at node boot.
    pub fn bind(&mut self, obs: Observability, cal: Calendar) {
        self.obs = obs;
        self.cal = cal;
    }

    /// Immutable view of the underlying endpoint.
    pub fn endpoint(&self) -> Ref<'_, RdmaEndpoint> {
        self.ep.borrow()
    }

    /// Mutable handle on the endpoint with this port's tenant activated.
    /// Activation happens inside the same `RefCell` borrow as the verb
    /// that follows, so every port call costs exactly one borrow.
    fn ep_mut(&self) -> RefMut<'_, RdmaEndpoint> {
        let mut ep = self.ep.borrow_mut();
        ep.activate_tenant(self.tenant, &self.obs, &self.cal);
        ep
    }

    /// The one place the tenant's address base and lane base are applied:
    /// every verb below is a segment list posted through here into the
    /// endpoint's verb core.
    fn post(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        segments: &[Segment],
        local: Local<'_>,
    ) -> Result<Ns, RdmaError> {
        let core = self.lane_base + core;
        if self.base == 0 {
            return self.ep_mut().post(now, core, class, segments, local);
        }
        let mut shifted = std::mem::take(&mut self.seg_scratch);
        shifted.clear();
        shifted.extend(segments.iter().map(|s| Segment {
            remote: self.base + s.remote,
            ..*s
        }));
        let r = self.ep_mut().post(now, core, class, &shifted, local);
        self.seg_scratch = shifted;
        r
    }

    /// Posts a one-sided read (tenant-relative `remote`).
    pub fn read(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        buf: &mut [u8],
    ) -> Result<Ns, RdmaError> {
        self.post_whole(now, core, class, remote, Local::Read(buf))
    }

    /// [`read`](Self::read) (see [`RdmaEndpoint::read_live`]).
    pub fn read_live(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        buf: &mut [u8],
    ) -> Result<Ns, RdmaError> {
        self.read(now, core, class, remote, buf)
    }

    /// Reads the whole page at tenant-relative `remote` as a shared image
    /// (see [`RdmaEndpoint::read_page`]).
    pub fn read_page(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        page: &mut Page,
    ) -> Result<Ns, RdmaError> {
        self.post_whole(now, core, class, remote, Local::ReadPage(page))
    }

    /// Posts a one-sided write (tenant-relative `remote`).
    pub fn write(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        buf: &[u8],
    ) -> Result<Ns, RdmaError> {
        self.post_whole(now, core, class, remote, Local::Write(buf))
    }

    /// [`write`](Self::write) (see [`RdmaEndpoint::write_live`]).
    pub fn write_live(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        buf: &[u8],
        _live: usize,
    ) -> Result<Ns, RdmaError> {
        self.write(now, core, class, remote, buf)
    }

    /// Writes a whole image to the page at tenant-relative `remote`, which
    /// every live replica then shares (see [`RdmaEndpoint::write_page`]).
    pub fn write_page(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        page: &Page,
    ) -> Result<Ns, RdmaError> {
        self.post_whole(now, core, class, remote, Local::WritePage(page))
    }

    /// The plain verbs' one body: the whole local buffer as one segment.
    fn post_whole(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        remote: u64,
        local: Local<'_>,
    ) -> Result<Ns, RdmaError> {
        let seg = [Segment::whole(remote, local.shape().1)];
        self.post(now, core, class, &seg, local)
    }

    /// Posts a vectored read; segment addresses are tenant-relative.
    pub fn read_v(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        segments: &[Segment],
        buf: &mut [u8],
    ) -> Result<Ns, RdmaError> {
        self.post(now, core, class, segments, Local::Read(buf))
    }

    /// Posts a vectored write; segment addresses are tenant-relative.
    pub fn write_v(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        segments: &[Segment],
        buf: &[u8],
    ) -> Result<Ns, RdmaError> {
        self.post(now, core, class, segments, Local::Write(buf))
    }

    /// Wire bytes attributed to this port's tenant and `class`: `(tx, rx)`.
    /// The only port of a one-tenant pool is tenant 0, so all of the
    /// endpoint's traffic is on its rows.
    pub fn class_bytes(&self, class: ServiceClass) -> (u64, u64) {
        self.ep.borrow().tenant_class_bytes(self.tenant, class)
    }

    /// Adds a fault to the shared pool's plan, with this port's tenant
    /// activated (see [`RdmaEndpoint::inject`]).
    pub fn inject(&mut self, now: Ns, when: When, fault: Fault) {
        self.ep_mut().inject(now, when, fault);
    }

    /// Applies the earliest planned fault due by `now`: the handler of a
    /// delivered [`SchedEvent::FaultDue`](crate::sched::SchedEvent::FaultDue).
    pub fn fault_due(&mut self, now: Ns) {
        self.ep_mut().fault_due(now);
    }
}

/// Completions are delivered with the port's tenant activated.
impl DeliverCompletion for RdmaPort {
    fn deliver_completion(&mut self, t: Ns, class: ServiceClass, write: bool, node: u8, core: u8) {
        self.ep_mut()
            .deliver_completion(t, class, write, node, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::rdma::Redundancy::Replicas;
    use crate::time::PAGE_SIZE;

    #[test]
    fn exclusive_port_forwards_verbatim() {
        let mut direct = RdmaEndpoint::connect(SimConfig::default(), 1 << 24);
        let mut port = RdmaPort::exclusive(RdmaEndpoint::connect(SimConfig::default(), 1 << 24));
        let data = [0xABu8; PAGE_SIZE];
        let mut buf = [0u8; PAGE_SIZE];
        let d1 = direct.write(0, 1, ServiceClass::Cleaner, 4096, &data).ok();
        let d2 = port.write(0, 1, ServiceClass::Cleaner, 4096, &data).ok();
        assert_eq!(d1, d2);
        let r1 = direct
            .read(5_000, 1, ServiceClass::Fault, 4096, &mut buf)
            .ok();
        let r2 = port
            .read(5_000, 1, ServiceClass::Fault, 4096, &mut buf)
            .ok();
        assert_eq!(r1, r2);
        assert_eq!(buf, data);
    }

    #[test]
    fn exclusive_port_owns_all_the_endpoints_traffic() {
        use ServiceClass::{Cleaner, Fault};
        // Two nodes, so the totals sum over more than one link.
        let ep = RdmaEndpoint::connect_cluster(SimConfig::default(), 1 << 24, 2, Replicas(1));
        let mut port = RdmaPort::exclusive(ep);
        let mut buf = [0x5Au8; PAGE_SIZE];
        for (page, class) in [(0, Cleaner), (1, Fault), (2, Cleaner), (3, Fault)] {
            port.write(0, 0, class, page * 4096, &buf[..512]).unwrap();
            port.read(0, 1, class, page * 4096, &mut buf[..64]).unwrap();
        }
        let (tx, rx) = ServiceClass::ALL.iter().fold((0, 0), |(tx, rx), &c| {
            let (t, r) = port.class_bytes(c);
            (tx + t, rx + r)
        });
        assert_eq!((tx, rx), port.endpoint().total_bytes());
        assert_eq!(port.class_bytes(Cleaner), (1024, 128));
        assert_eq!(port.class_bytes(Fault), (1024, 128));
    }

    #[test]
    fn tenant_ports_isolate_address_spaces() {
        let pool = SharedPool::new(RdmaEndpoint::connect(SimConfig::default(), 1 << 24));
        pool.register_tenant(0, 0, 1 << 23);
        pool.register_tenant(1, 1 << 23, 1 << 23);
        let mut a = pool.port(0, 0, 0);
        let mut b = pool.port(1, 1 << 23, 8);
        let pa = [0x0Au8; PAGE_SIZE];
        let pb = [0x0Bu8; PAGE_SIZE];
        a.write(0, 0, ServiceClass::Cleaner, 0, &pa).unwrap();
        b.write(0, 0, ServiceClass::Cleaner, 0, &pb).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        a.read(10_000, 0, ServiceClass::Fault, 0, &mut buf).unwrap();
        assert_eq!(buf, pa, "tenant 0 reads its own page at offset 0");
        b.read(10_000, 0, ServiceClass::Fault, 0, &mut buf).unwrap();
        assert_eq!(buf, pb, "tenant 1's offset 0 is a different page");
    }

    #[test]
    fn tenant_port_cannot_reach_past_its_slice() {
        let pool = SharedPool::new(RdmaEndpoint::connect(SimConfig::default(), 1 << 24));
        pool.register_tenant(0, 0, 1 << 23);
        let mut a = pool.port(0, 0, 0);
        let mut buf = [0u8; PAGE_SIZE];
        // Offset 1 << 23 is the first byte past tenant 0's slice: the
        // protection key must reject it even though the pool has it.
        let err = a.read(0, 0, ServiceClass::Fault, 1 << 23, &mut buf);
        assert!(err.is_err(), "out-of-slice access must be rejected");
    }

    #[test]
    fn tenants_contend_on_the_shared_wire() {
        let pool = SharedPool::new(RdmaEndpoint::connect(SimConfig::default(), 1 << 24));
        pool.register_tenant(0, 0, 1 << 23);
        pool.register_tenant(1, 1 << 23, 1 << 23);
        let mut a = pool.port(0, 0, 0);
        let mut b = pool.port(1, 1 << 23, 8);
        let mut buf = [0u8; PAGE_SIZE];
        let w = pool.endpoint().fabric().cfg().wire_ns(PAGE_SIZE);
        let da = a.read(0, 0, ServiceClass::Fault, 0, &mut buf).unwrap();
        let db = b.read(0, 0, ServiceClass::Fault, 0, &mut buf).unwrap();
        // Distinct QPs (disjoint lanes), one wire: the second read queues
        // exactly one wire-time behind the first.
        assert_eq!(db - da, w);
    }
}
