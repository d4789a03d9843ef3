//! Pool redundancy: how a page outlives its memory node (§5.1, §7). A pool
//! is built with one [`Redundancy`], and this module is the only code that
//! branches on it: the geometry checks, the transfer every verb's
//! [`post`](RdmaEndpoint::post) makes, placement, and a repaired node's resync.

use std::collections::BTreeMap;
use std::rc::Rc;

use super::{Local, OpCounts, RdmaEndpoint, RdmaError, RemoteNode, Segment};
use crate::config::SimConfig;
use crate::ec::ReedSolomon;
use crate::fabric::{Fabric, ServiceClass};
use crate::memnode::MemoryNode;
use crate::recover::{FaultPlan, RecoveryStats};
use crate::time::{Ns, PAGE_SIZE};
use crate::trace::TraceSink;

/// How a pool of memory nodes keeps each page through node failures (§5.1
/// future work). The default is one copy: the paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// `r`-way replication: a page lives on its shard's node and the
    /// `r − 1` after it. Writes reach every live replica; reads take the
    /// first live one and fail over when a node dies.
    Replicas(usize),
    /// Carbink-style erasure coding: spans of `k` pages across the pool,
    /// protected by `m` Reed–Solomon parity shards on further nodes, so any
    /// `m` node failures are survivable at a storage overhead of `m/k`. A
    /// write adds an old-data read and `m` parity deltas; a read whose data
    /// node died rebuilds the page from `k` surviving shards.
    Erasure {
        /// Data pages per span.
        k: usize,
        /// Parity shards per span.
        m: usize,
    },
}

impl Default for Redundancy {
    fn default() -> Self {
        Redundancy::Replicas(1)
    }
}

/// A [`Redundancy`] whose geometry the pool has checked.
#[derive(Debug, Clone, Copy)]
pub(super) enum Scheme {
    Replicas(usize),
    Erasure(Stripe),
}

/// An erasure-coded pool: its code, and where a span's shards live. A
/// `Copy` value, so each verb holds its own across the `&mut self` timing.
#[derive(Debug, Clone, Copy)]
pub(super) struct Stripe {
    rs: ReedSolomon,
    /// Memory nodes in the pool.
    nodes: usize,
    /// Parity shards live above the data address space.
    parity_base: u64,
}

impl Stripe {
    /// `(group, lane, node)` of the data page holding `[addr, addr + len)`,
    /// which must not cross a page; an empty range names `addr`'s page.
    fn data(self, addr: u64, len: usize) -> (u64, usize, usize) {
        let (page, last) = (addr >> 12, (addr + (len as u64).saturating_sub(1)) >> 12);
        debug_assert_eq!(page, last, "EC access crosses a page");
        let (group, lane) = (page / self.rs.k as u64, (page % self.rs.k as u64) as usize);
        (group, lane, self.shard(group, lane).0)
    }

    /// `(node, page address)` of shard `slot` of span `group`: the data
    /// lanes `0..k`, then the parities. All `k + m` nodes are distinct.
    fn shard(self, group: u64, slot: usize) -> (usize, u64) {
        let node = (group as usize + slot) % self.nodes;
        let addr = match slot.checked_sub(self.rs.k) {
            None => (group * self.rs.k as u64 + slot as u64) << 12,
            Some(j) => self.parity_base + ((group * self.rs.m as u64 + j as u64) << 12),
        };
        (node, addr)
    }
}

impl RdmaEndpoint {
    /// Connects to a pool of `nodes` memory nodes, each exposing
    /// `remote_bytes`, that keeps pages under `redundancy` (§5.1 future
    /// work). Pages are striped by page number.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ r ≤ nodes` for [`Redundancy::Replicas`], or
    /// `1 ≤ k`, `1 ≤ m` and `k + m ≤ min(nodes, 256)` (each shard of a span
    /// on a distinct node, each a distinct field element) for
    /// [`Redundancy::Erasure`].
    pub fn connect_cluster(
        cfg: SimConfig,
        remote_bytes: u64,
        nodes: usize,
        redundancy: Redundancy,
    ) -> Self {
        let (scheme, region_bytes) = match redundancy {
            Redundancy::Replicas(r) => {
                assert!((1..=nodes).contains(&r), "replication must be in 1..=nodes");
                (Scheme::Replicas(r), remote_bytes)
            }
            Redundancy::Erasure { k, m } => {
                assert!(nodes >= k + m, "erasure coding needs nodes >= k + m");
                // Each node's region also hosts parity shards above the data.
                let parity_base = remote_bytes.next_multiple_of(4096);
                let st = Stripe {
                    rs: ReedSolomon::new(k, m),
                    nodes,
                    parity_base,
                };
                (Scheme::Erasure(st), parity_base * 2)
            }
        };
        let nodes = (0..nodes)
            .map(|_| {
                let mut node = MemoryNode::new();
                let region = node.register_region(0, region_bytes);
                RemoteNode {
                    node,
                    region,
                    fabric: Fabric::new(cfg.clone(), 0),
                    alive: true,
                    death_detected: false,
                }
            })
            .collect();
        Self {
            nodes,
            scheme,
            reconstructions: 0,
            qps: Vec::new(),
            qp_cores: 0,
            ops: [OpCounts::default(); 5],
            shared_queue: false,
            tcp_mode: false,
            failovers: 0,
            trace: TraceSink::disabled(),
            calendar: None,
            tenants: BTreeMap::new(),
            active: None,
            faults: FaultPlan::default(),
            next_completion: u64::MAX,
            failed_verbs: 0,
            stats: RecoveryStats::default(),
            pending_req: Vec::new(),
            pending_cores: 0,
        }
    }

    /// Moves one verb's bytes under the pool's scheme and returns its
    /// completion time with the node it is attributed to. `shard` is the
    /// page's primary node (a vector addresses one page, so every segment
    /// shares it).
    #[expect(clippy::too_many_arguments, reason = "post's verb, decomposed")]
    pub(super) fn transfer(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        shard: u8,
        segments: &[Segment],
        bytes: usize,
        local: &mut Local<'_>,
    ) -> Result<(Ns, u8), RdmaError> {
        let st = match self.scheme {
            Scheme::Replicas(r) => {
                return self.replica_transfer(now, core, class, r, shard, segments, bytes, local)
            }
            Scheme::Erasure(st) => st,
        };
        let done = self.ec_transfer(now, core, class, st, segments, local)?;
        Ok((done, shard))
    }

    /// Erasure coding: one degraded-capable transfer per segment (a slight
    /// overcharge vs a true vectored verb), decoded into the buffer or a
    /// fresh page image. Out of line, so `post` keeps a small stack frame.
    #[inline(never)]
    fn ec_transfer(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        st: Stripe,
        segments: &[Segment],
        local: &mut Local<'_>,
    ) -> Result<Ns, RdmaError> {
        let mut done = now;
        for s in segments {
            let span = s.offset..s.offset + s.len;
            done = done.max(match local {
                Local::Read(buf) => self.ec_read(now, core, class, st, s.remote, &mut buf[span])?,
                Local::ReadPage(page) => {
                    let mut fresh = [0; PAGE_SIZE];
                    let read = self.ec_read(now, core, class, st, s.remote, &mut fresh[span]);
                    **page = Rc::new(fresh);
                    read?
                }
                Local::Write(buf) => self.ec_write(now, core, class, st, s.remote, &buf[span])?,
                Local::WritePage(page) => {
                    self.ec_write(now, core, class, st, s.remote, &page[span])?
                }
            });
        }
        Ok(done)
    }

    /// What reaching dead node `ni` costs a read: the RNIC's transport
    /// timeout on the first contact after the failure, nothing after.
    fn detect_death(&mut self, ni: usize) -> Ns {
        let n = &mut self.nodes[ni];
        if std::mem::replace(&mut n.death_detected, true) {
            return 0;
        }
        n.fabric.cfg().failover_detect_ns
    }

    /// `r`-way replication: a read is served (and attributed) by the first
    /// live replica; a write goes to every live replica, sharing one page
    /// image, completes with the slowest (distinct links: one write plus
    /// doorbells) and is attributed to the primary.
    #[expect(clippy::too_many_arguments, reason = "post's verb, decomposed")]
    fn replica_transfer(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        r: usize,
        shard: u8,
        segments: &[Segment],
        bytes: usize,
        local: &mut Local<'_>,
    ) -> Result<(Ns, u8), RdmaError> {
        let write = local.shape().0;
        let n = self.nodes.len();
        let shard = usize::from(shard);
        let mut served = shard;
        let mut penalty: Ns = 0;
        let mut done: Option<Ns> = None;
        for rank in 0..r {
            let ni = (shard + rank) % n;
            if !self.nodes[ni].alive {
                if !write {
                    penalty = penalty.saturating_add(self.detect_death(ni));
                }
                continue;
            }
            if !write && rank > 0 {
                self.failovers += 1;
            }
            let start = now.saturating_add(penalty);
            let d = self.verb_timing(ni, start, core, class, bytes, segments.len(), !write);
            let region = self.region_of(ni);
            for s in segments {
                let span = s.offset..s.offset + s.len;
                let node = &mut self.nodes[ni].node;
                let wrote = match local {
                    Local::Read(buf) => node.read(region, s.remote, &mut buf[span]).map(|()| None),
                    Local::ReadPage(page) => node.read_page(region, s.remote, page).map(|()| None),
                    Local::Write(buf) => node.write(region, s.remote, &buf[span]).map(Some),
                    Local::WritePage(page) => node.write_page(region, s.remote, page).map(Some),
                }?;
                self.served(now, ni, s.remote, s.len, wrote);
            }
            done = Some(done.map_or(d, |x| x.max(d)));
            if !write {
                served = ni;
                break;
            }
        }
        Ok((done.ok_or(RdmaError::AllReplicasDown)?, served as u8))
    }

    /// Erasure-coded write: data write + old-data read + parity deltas.
    fn ec_write(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        st: Stripe,
        addr: u64,
        data: &[u8],
    ) -> Result<Ns, RdmaError> {
        let (group, lane, dn) = st.data(addr, data.len());
        let mut old = vec![0u8; data.len()];
        let (read_done, mut done);
        if self.nodes[dn].alive {
            // Old data (for the parity delta): one read verb.
            let region = self.region_of(dn);
            self.nodes[dn].node.read(region, addr, &mut old)?;
            self.served(now, dn, addr, old.len(), None);
            read_done = self.verb_timing(dn, now, core, class, data.len(), 1, true);
            // The data write itself.
            let wrote = self.nodes[dn].node.write(region, addr, data)?;
            self.served(now, dn, addr, data.len(), Some(wrote));
            done = self.verb_timing(dn, read_done, core, class, data.len(), 1, false);
        } else {
            // Degraded write: the data lane is gone, so the old value comes
            // from a reconstruction and only the parities are updated —
            // future reads of this lane reconstruct through them.
            read_done = self.ec_read(now, core, class, st, addr, &mut old)?;
            done = read_done;
        }
        // Parity deltas, one write per live parity node.
        let delta: Vec<u8> = old.iter().zip(data).map(|(o, n)| o ^ n).collect();
        for j in 0..st.rs.m {
            let (pn, pbase) = st.shard(group, st.rs.k + j);
            if !self.nodes[pn].alive {
                continue;
            }
            let paddr = pbase + (addr & 0xFFF);
            let mut parity = vec![0u8; delta.len()];
            let pregion = self.region_of(pn);
            self.nodes[pn].node.read(pregion, paddr, &mut parity)?;
            self.served(now, pn, paddr, parity.len(), None);
            st.rs.apply_delta(j, lane, &delta, &mut parity);
            let wrote = self.nodes[pn].node.write(pregion, paddr, &parity)?;
            self.served(now, pn, paddr, parity.len(), Some(wrote));
            let d = self.verb_timing(pn, read_done, core, class, delta.len(), 1, false);
            done = done.max(d);
        }
        Ok(done)
    }

    /// Erasure-coded read: direct when the data node lives, otherwise a
    /// degraded read rebuilding the range from `k` surviving shards.
    fn ec_read(
        &mut self,
        now: Ns,
        core: usize,
        class: ServiceClass,
        st: Stripe,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<Ns, RdmaError> {
        let (group, lane, dn) = st.data(addr, buf.len());
        if self.nodes[dn].alive {
            let region = self.region_of(dn);
            self.nodes[dn].node.read(region, addr, buf)?;
            self.served(now, dn, addr, buf.len(), None);
            return Ok(self.verb_timing(dn, now, core, class, buf.len(), 1, true));
        }
        let t = now.saturating_add(self.detect_death(dn));
        self.failovers += 1;
        self.reconstructions += 1;
        let len = buf.len();
        let (k, m) = (st.rs.k, st.rs.m);
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; k + m];
        let mut fetched = 0usize;
        let mut done = t;
        // The same in-page range of the first `k` live shards: the other
        // data lanes, then parities as needed.
        for slot in (0..k + m).filter(|&slot| slot != lane) {
            if fetched >= k {
                break;
            }
            let (n, base) = st.shard(group, slot);
            if !self.nodes[n].alive {
                continue;
            }
            let mut s = vec![0u8; len];
            let region = self.region_of(n);
            let at = base + (addr & 0xFFF);
            self.nodes[n].node.read(region, at, &mut s)?;
            self.served(now, n, at, len, None);
            done = done.max(self.verb_timing(n, t, core, class, len, 1, true));
            shards[slot] = Some(s);
            fetched += 1;
        }
        if fetched < k {
            return Err(RdmaError::AllReplicasDown);
        }
        st.rs
            .reconstruct(&mut shards)
            .map_err(|_| RdmaError::AllReplicasDown)?;
        let shard = shards[lane].as_deref().ok_or(RdmaError::AllReplicasDown)?;
        buf.copy_from_slice(shard);
        // Decode cost: a GF multiply-accumulate per byte per source shard.
        let decode_ns = (len as Ns).saturating_mul(k as Ns) / 2;
        Ok(done.saturating_add(decode_ns))
    }

    /// Rebuilds repaired node `i` from the surviving redundancy; returns
    /// the pages installed.
    pub(super) fn resync(&mut self, i: usize) -> u64 {
        match self.scheme {
            Scheme::Replicas(r) => self.replica_resync(i, r),
            Scheme::Erasure(st) => self.ec_resync(st, i),
        }
    }

    /// Replication resync: every page whose replica set includes `i` is
    /// copied from its first other live replica. Pages written during the
    /// outage only reached the survivors, so the full copy restores them;
    /// pages `i` alone replicated are unrecoverable and left as-is.
    fn replica_resync(&mut self, i: usize, r: usize) -> u64 {
        // Page `p`'s replicas: its shard `p mod n` and the `r − 1` after it.
        let n = self.nodes.len();
        let replicas = move |p: u64| (0..r).map(move |x| (p as usize + x) % n);
        let mut installed = 0u64;
        let mut todo: Vec<u64> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(j, n)| j != i && n.alive)
            .flat_map(|(_, n)| n.node.resident_page_numbers())
            .filter(|&p| replicas(p).any(|x| x == i))
            .collect();
        todo.sort_unstable();
        todo.dedup();
        for p in todo {
            let src = replicas(p).find(|&x| x != i && self.nodes[x].alive);
            let Some(page) = src.and_then(|x| self.nodes[x].node.page_snapshot(p).copied()) else {
                continue;
            };
            self.nodes[i].node.install_page(p, &page);
            installed += 1;
        }
        installed
    }

    /// Erasure-coding resync: for every span group with any materialized
    /// shard, node `i`'s shard (one data lane or one parity, by placement)
    /// is rebuilt from the surviving shards. Dead nodes' shards are treated
    /// as unknowns — their volatile copies are stale for anything written
    /// during their outage — so a group decodes only while at least `k`
    /// *live* shards remain.
    fn ec_resync(&mut self, st: Stripe, i: usize) -> u64 {
        let (k, m, nodes) = (st.rs.k, st.rs.m, &mut self.nodes);
        let mut installed = 0u64;
        let parity_page0 = st.parity_base >> 12;
        let mut groups: Vec<u64> = nodes
            .iter()
            .flat_map(|n| n.node.resident_page_numbers())
            .map(|p| match p.checked_sub(parity_page0) {
                Some(q) => q / m as u64,
                None => p / k as u64,
            })
            .collect();
        groups.sort_unstable();
        groups.dedup();
        for g in groups {
            // Node i hosts at most one shard of each group. Gather the
            // others; leave i's slot as the unknown for reconstruction.
            let mut mine: Option<(usize, u64)> = None;
            let mut shards: Vec<Option<Vec<u8>>> = (0..k + m)
                .map(|slot| {
                    let (n, addr) = st.shard(g, slot);
                    if n == i {
                        mine = Some((slot, addr >> 12));
                        return None;
                    }
                    let stored = || nodes[n].node.page_snapshot(addr >> 12);
                    nodes[n]
                        .alive
                        .then(|| stored().map_or_else(|| vec![0; PAGE_SIZE], |p| p.to_vec()))
                })
                .collect();
            let Some((slot, page)) = mine else { continue };
            if st.rs.reconstruct(&mut shards).is_err() {
                continue;
            }
            let Some(data) = shards[slot]
                .as_deref()
                .and_then(|s| <&[u8; PAGE_SIZE]>::try_from(s).ok())
            else {
                continue;
            };
            nodes[i].node.install_page(page, data);
            installed += 1;
        }
        installed
    }
}
