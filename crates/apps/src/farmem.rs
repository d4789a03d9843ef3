//! The portable far-memory interface the workloads are written against.
//!
//! Every evaluation workload runs unmodified on DiLOS, Fastswap, and AIFM —
//! the compatibility the paper's title is about. [`FarMemory`] is the
//! byte-level surface all three systems expose; [`SystemSpec`] is the
//! factory the benches use to sweep systems and local-memory ratios.

use dilos_baselines::{Aifm, AifmConfig, Fastswap, FastswapConfig};
use dilos_core::{Dilos, DilosConfig, NoPrefetch, Readahead, TrendBased};
use dilos_sim::{ComputeNode, MetricsRegistry, Ns, Observability, SpanProfiler};

/// Observation surface of a far-memory system: counters, traces, telemetry.
///
/// Split out of [`FarMemory`] so the core data-path surface stays small.
/// Everything here is pure observation — calling it never changes what a
/// workload computes or when. All methods have dark defaults; systems
/// booted with [`Observability::none`] report zeros and empty handles.
pub trait Introspect {
    /// `(major, minor)` page-fault counts, where the system defines them
    /// (AIFM reports `(misses, in-flight waits)`).
    fn fault_counts(&self) -> (u64, u64);

    /// Total network traffic so far: `(tx_bytes, rx_bytes)`.
    fn net_bytes(&self) -> (u64, u64);

    /// Downcast to a DiLOS node for DiLOS-specific reporting.
    fn as_dilos(&self) -> Option<&Dilos> {
        None
    }

    /// Order-sensitive digest of the structured event trace; 0 when the
    /// system was booted with a non-recording [`Observability`] bundle.
    /// Equal seeds and configurations must produce equal digests.
    ///
    /// Takes `&mut self` because digesting quiesces the system first:
    /// pending calendar events (in-flight fetches, open reclaim episodes,
    /// deferred writebacks) are delivered at their scheduled virtual times
    /// so the digest covers a settled trace. Idempotent.
    fn trace_digest(&mut self) -> u64 {
        0
    }

    /// Invariant-auditor findings (empty on a healthy run, and always empty
    /// when the system does not support auditing or it is off). Quiesces
    /// pending background work first, like [`Introspect::trace_digest`].
    fn audit_report(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Handle to the system's metrics registry. Disabled (and empty) unless
    /// the system was booted with a metered [`Observability`] bundle.
    fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::disabled()
    }

    /// Handle to the system's span profiler. Disabled unless the system was
    /// booted with a metered [`Observability`] bundle.
    fn profiler(&self) -> SpanProfiler {
        SpanProfiler::disabled()
    }

    /// `(major, minor, zero_fill)` fault counts *as the event trace records
    /// them*, for cross-checking trace-derived profiler counts against the
    /// hand-maintained stats. AIFM only traces misses as major faults, so it
    /// reports `(misses, 0, 0)` here even though [`Introspect::fault_counts`]
    /// exposes in-flight waits.
    fn fault_counters(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Hand-maintained per-phase fault-latency sums `(label, ns)`, using the
    /// same labels as the span profiler's phases. Empty for systems that do
    /// not keep a phase breakdown.
    fn phase_sums(&self) -> Vec<(&'static str, Ns)> {
        Vec::new()
    }
}

/// Byte-addressable far memory with virtual-time accounting.
///
/// This is the data-path surface (alloc/read/write/compute/time); the
/// observation surface lives in the [`Introspect`] supertrait.
pub trait FarMemory: Introspect {
    /// Allocates `len` bytes; returns the base virtual address.
    fn alloc(&mut self, len: usize) -> u64;

    /// Releases `len` bytes at `va`.
    fn release(&mut self, va: u64, len: usize);

    /// Reads `buf.len()` bytes at `va` on `core`.
    fn read(&mut self, core: usize, va: u64, buf: &mut [u8]);

    /// Writes `buf` at `va` on `core`.
    fn write(&mut self, core: usize, va: u64, buf: &[u8]);

    /// Charges `ns` of application compute to `core`.
    fn compute(&mut self, core: usize, ns: Ns);

    /// Virtual time on `core`.
    fn now(&self, core: usize) -> Ns;

    /// Joins all cores; returns the barrier time.
    fn barrier(&mut self) -> Ns;

    /// Completion time across cores.
    fn max_now(&self) -> Ns;

    /// Display label for result tables.
    fn label(&self) -> String;

    /// Reads a little-endian `u64`.
    fn read_u64(&mut self, core: usize, va: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(core, va, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    fn write_u64(&mut self, core: usize, va: u64, v: u64) {
        self.write(core, va, &v.to_le_bytes());
    }

    /// Reads a little-endian `i64`.
    fn read_i64(&mut self, core: usize, va: u64) -> i64 {
        self.read_u64(core, va) as i64
    }

    /// Writes a little-endian `i64`.
    fn write_i64(&mut self, core: usize, va: u64, v: i64) {
        self.write_u64(core, va, v as u64);
    }

    /// Reads a little-endian `f64`.
    fn read_f64(&mut self, core: usize, va: u64) -> f64 {
        f64::from_bits(self.read_u64(core, va))
    }

    /// Writes a little-endian `f64`.
    fn write_f64(&mut self, core: usize, va: u64, v: f64) {
        self.write_u64(core, va, v.to_bits());
    }

    /// Reads a little-endian `u32`.
    fn read_u32(&mut self, core: usize, va: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(core, va, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    fn write_u32(&mut self, core: usize, va: u64, v: u32) {
        self.write(core, va, &v.to_le_bytes());
    }
}

impl Introspect for Dilos {
    fn fault_counts(&self) -> (u64, u64) {
        let s = self.stats();
        (s.major_faults, s.minor_faults)
    }
    fn net_bytes(&self) -> (u64, u64) {
        self.rdma().total_bytes()
    }
    fn as_dilos(&self) -> Option<&Dilos> {
        Some(self)
    }
    fn trace_digest(&mut self) -> u64 {
        Dilos::trace_digest(self)
    }
    fn audit_report(&mut self) -> Vec<String> {
        Dilos::audit_report(self)
    }
    fn metrics(&self) -> MetricsRegistry {
        self.machine().metrics.clone()
    }
    fn profiler(&self) -> SpanProfiler {
        self.machine().profiler.clone()
    }
    fn fault_counters(&self) -> (u64, u64, u64) {
        let s = self.stats();
        (s.major_faults, s.minor_faults, s.zero_fills)
    }
    fn phase_sums(&self) -> Vec<(&'static str, Ns)> {
        self.stats().breakdown.sums().to_vec()
    }
}

impl FarMemory for Dilos {
    fn alloc(&mut self, len: usize) -> u64 {
        self.ddc_alloc(len)
    }
    fn release(&mut self, va: u64, len: usize) {
        self.ddc_free(va, len);
    }
    fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        Dilos::read(self, core, va, buf);
    }
    fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        Dilos::write(self, core, va, buf);
    }
    fn read_u64(&mut self, core: usize, va: u64) -> u64 {
        Dilos::read_u64(self, core, va)
    }
    fn write_u64(&mut self, core: usize, va: u64, v: u64) {
        Dilos::write_u64(self, core, va, v);
    }
    fn compute(&mut self, core: usize, ns: Ns) {
        self.machine_mut().advance(core, ns);
    }
    fn now(&self, core: usize) -> Ns {
        self.machine().now(core)
    }
    fn barrier(&mut self) -> Ns {
        self.machine_mut().barrier()
    }
    fn max_now(&self) -> Ns {
        self.machine().max_now()
    }
    fn label(&self) -> String {
        let transport = if self.config().tcp_mode {
            "DiLOS-TCP"
        } else {
            "DiLOS"
        };
        format!("{} ({})", transport, self.prefetcher_name())
    }
}

impl Introspect for Fastswap {
    fn fault_counts(&self) -> (u64, u64) {
        let s = self.stats();
        (s.major_faults, s.minor_faults)
    }
    fn net_bytes(&self) -> (u64, u64) {
        self.rdma().total_bytes()
    }
    fn trace_digest(&mut self) -> u64 {
        self.quiesce();
        self.machine().trace.digest()
    }
    fn metrics(&self) -> MetricsRegistry {
        self.machine().metrics.clone()
    }
    fn profiler(&self) -> SpanProfiler {
        self.machine().profiler.clone()
    }
    fn fault_counters(&self) -> (u64, u64, u64) {
        let s = self.stats();
        (s.major_faults, s.minor_faults, s.zero_fills)
    }
}

impl FarMemory for Fastswap {
    fn alloc(&mut self, len: usize) -> u64 {
        Fastswap::alloc(self, len)
    }
    fn release(&mut self, va: u64, len: usize) {
        Fastswap::free(self, va, len);
    }
    fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        Fastswap::read(self, core, va, buf);
    }
    fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        Fastswap::write(self, core, va, buf);
    }
    fn compute(&mut self, core: usize, ns: Ns) {
        self.machine_mut().advance(core, ns);
    }
    fn now(&self, core: usize) -> Ns {
        self.machine().now(core)
    }
    fn barrier(&mut self) -> Ns {
        self.machine_mut().barrier()
    }
    fn max_now(&self) -> Ns {
        self.machine().max_now()
    }
    fn label(&self) -> String {
        "Fastswap".to_string()
    }
}

impl Introspect for Aifm {
    fn fault_counts(&self) -> (u64, u64) {
        let s = self.stats();
        (s.misses, s.inflight_waits)
    }
    fn net_bytes(&self) -> (u64, u64) {
        self.rdma().total_bytes()
    }
    fn trace_digest(&mut self) -> u64 {
        self.quiesce();
        self.machine().trace.digest()
    }
    fn metrics(&self) -> MetricsRegistry {
        self.machine().metrics.clone()
    }
    fn profiler(&self) -> SpanProfiler {
        self.machine().profiler.clone()
    }
    fn fault_counters(&self) -> (u64, u64, u64) {
        // AIFM's trace only marks demand misses as faults; in-flight waits
        // are spin-waits without a fault span.
        (self.stats().misses, 0, 0)
    }
}

impl FarMemory for Aifm {
    fn alloc(&mut self, len: usize) -> u64 {
        Aifm::alloc(self, len)
    }
    fn release(&mut self, va: u64, len: usize) {
        Aifm::free(self, va, len);
    }
    fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        Aifm::read(self, core, va, buf);
    }
    fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        Aifm::write(self, core, va, buf);
    }
    fn compute(&mut self, core: usize, ns: Ns) {
        self.machine_mut().advance(core, ns);
    }
    fn now(&self, core: usize) -> Ns {
        self.machine().now(core)
    }
    fn barrier(&mut self) -> Ns {
        self.machine_mut().barrier()
    }
    fn max_now(&self) -> Ns {
        self.machine().max_now()
    }
    fn label(&self) -> String {
        "AIFM".to_string()
    }
}

/// Which system to boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// DiLOS without a prefetcher.
    DilosNoPrefetch,
    /// DiLOS with the Linux-style readahead prefetcher.
    DilosReadahead,
    /// DiLOS with Leap's trend-based prefetcher.
    DilosTrend,
    /// DiLOS with readahead over emulated TCP (the AIFM-fair config).
    DilosTcp,
    /// Fastswap.
    Fastswap,
    /// AIFM.
    Aifm,
}

impl SystemKind {
    /// All kinds, for sweeps.
    pub const ALL: [SystemKind; 6] = [
        SystemKind::Fastswap,
        SystemKind::DilosNoPrefetch,
        SystemKind::DilosReadahead,
        SystemKind::DilosTrend,
        SystemKind::DilosTcp,
        SystemKind::Aifm,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::DilosNoPrefetch => "DiLOS no-prefetch",
            SystemKind::DilosReadahead => "DiLOS readahead",
            SystemKind::DilosTrend => "DiLOS trend-based",
            SystemKind::DilosTcp => "DiLOS-TCP",
            SystemKind::Fastswap => "Fastswap",
            SystemKind::Aifm => "AIFM",
        }
    }
}

/// The experiments' one cache-sizing rule: `(local_pages, remote_bytes)`
/// for a working set of `working_set` bytes. The local cache holds
/// `ratio_percent` of the working set's pages (the paper's 12.5/25/50/100
/// sweeps), at least 32; the remote region is twice the working set
/// rounded up to a power of two, at least 16 MiB (headroom for allocator
/// metadata and rounding).
pub fn cache_sizing(working_set: u64, ratio_percent: u32) -> (usize, u64) {
    let ws_pages = working_set.div_ceil(4096);
    let local_pages = ((ws_pages * ratio_percent as u64) / 100).max(32) as usize;
    (
        local_pages,
        (working_set * 2).next_power_of_two().max(1 << 24),
    )
}

/// A bootable system description: kind + sizing.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Which system.
    pub kind: SystemKind,
    /// Local cache size in 4 KiB pages.
    pub local_pages: usize,
    /// Remote region size in bytes.
    pub remote_bytes: u64,
    /// Simulated cores.
    pub cores: usize,
    /// The observability bundle handed to the booted system — tracing,
    /// auditing (DiLOS only), metrics, and the span profiler travel
    /// together. Read results back via [`Introspect`]. Use a fresh bundle
    /// per boot; sharing one across systems interleaves their traces.
    pub obs: Observability,
}

impl SystemSpec {
    /// A spec with enough remote memory for `working_set` bytes and a local
    /// cache of `ratio_percent` of it (the paper's 12.5/25/50/100 sweeps).
    pub fn for_working_set(kind: SystemKind, working_set: u64, ratio_percent: u32) -> Self {
        let (local_pages, remote_bytes) = cache_sizing(working_set, ratio_percent);
        Self {
            kind,
            local_pages,
            remote_bytes,
            cores: 1,
            obs: Observability::none(),
        }
    }

    /// Replaces the observability bundle (builder-style convenience for
    /// sweep loops that share a base spec).
    pub fn observed(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// Boots the system, handing it the spec's [`Observability`] bundle.
    pub fn boot(&self) -> Box<dyn FarMemory> {
        match self.kind {
            SystemKind::Fastswap => Box::new(Fastswap::new(FastswapConfig {
                local_pages: self.local_pages,
                remote_bytes: self.remote_bytes,
                cores: self.cores,
                obs: self.obs.clone(),
                ..FastswapConfig::default()
            })),
            SystemKind::Aifm => Box::new(Aifm::new(AifmConfig {
                local_chunks: self.local_pages,
                remote_bytes: self.remote_bytes,
                cores: self.cores,
                obs: self.obs.clone(),
                ..AifmConfig::default()
            })),
            kind => {
                let mut node = Dilos::new(DilosConfig {
                    local_pages: self.local_pages,
                    remote_bytes: self.remote_bytes,
                    cores: self.cores,
                    tcp_mode: kind == SystemKind::DilosTcp,
                    obs: self.obs.clone(),
                    ..DilosConfig::default()
                });
                match kind {
                    SystemKind::DilosNoPrefetch => node.set_prefetcher(Box::new(NoPrefetch)),
                    SystemKind::DilosTrend => node.set_prefetcher(Box::new(TrendBased::new())),
                    _ => node.set_prefetcher(Box::new(Readahead::new())),
                }
                Box::new(node)
            }
        }
    }
}

/// A typed far-memory array of little-endian `u64`/`i64`/`f64` cells.
#[derive(Debug, Clone, Copy)]
pub struct FarArray {
    base: u64,
    len: usize,
}

impl FarArray {
    /// Allocates an array of `len` 8-byte cells.
    pub fn new(mem: &mut dyn FarMemory, len: usize) -> Self {
        let base = mem.alloc(len * 8);
        Self { base, len }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Address of cell `i`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn addr(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.base + (i * 8) as u64
    }

    /// Reads cell `i` as `u64`.
    pub fn get(&self, mem: &mut dyn FarMemory, core: usize, i: usize) -> u64 {
        mem.read_u64(core, self.addr(i))
    }

    /// Writes cell `i` as `u64`.
    pub fn set(&self, mem: &mut dyn FarMemory, core: usize, i: usize, v: u64) {
        mem.write_u64(core, self.addr(i), v);
    }

    /// Reads cell `i` as `i64`.
    pub fn get_i64(&self, mem: &mut dyn FarMemory, core: usize, i: usize) -> i64 {
        mem.read_i64(core, self.addr(i))
    }

    /// Writes cell `i` as `i64`.
    pub fn set_i64(&self, mem: &mut dyn FarMemory, core: usize, i: usize, v: i64) {
        mem.write_i64(core, self.addr(i), v);
    }

    /// Reads cell `i` as `f64`.
    pub fn get_f64(&self, mem: &mut dyn FarMemory, core: usize, i: usize) -> f64 {
        mem.read_f64(core, self.addr(i))
    }

    /// Writes cell `i` as `f64`.
    pub fn set_f64(&self, mem: &mut dyn FarMemory, core: usize, i: usize, v: f64) {
        mem.write_f64(core, self.addr(i), v);
    }

    /// Bulk-reads cells `[start, start + out.len())`.
    pub fn read_range(&self, mem: &mut dyn FarMemory, core: usize, start: usize, out: &mut [u64]) {
        assert!(start + out.len() <= self.len, "range out of bounds");
        let mut bytes = vec![0u8; out.len() * 8];
        mem.read(core, self.base + (start * 8) as u64, &mut bytes);
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            out[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
    }

    /// Bulk-writes cells starting at `start`.
    pub fn write_range(&self, mem: &mut dyn FarMemory, core: usize, start: usize, vals: &[u64]) {
        assert!(start + vals.len() <= self.len, "range out of bounds");
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        mem.write(core, self.base + (start * 8) as u64, &bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_system_boots_and_roundtrips() {
        for kind in SystemKind::ALL {
            let spec = SystemSpec::for_working_set(kind, 1 << 20, 50);
            let mut mem = spec.boot();
            let va = mem.alloc(4096 * 8);
            mem.write_u64(0, va + 16, 0xDEAD_BEEF);
            assert_eq!(mem.read_u64(0, va + 16), 0xDEAD_BEEF, "{}", kind.label());
            assert!(mem.now(0) > 0);
        }
    }

    /// The chassis every system stands on: per-core clocks, the barrier,
    /// and a quiesce that a second digest finds nothing left to do.
    #[test]
    fn every_system_shares_the_chassis() {
        for kind in SystemKind::ALL {
            let obs = Observability::metered();
            let mut spec = SystemSpec::for_working_set(kind, 1 << 20, 13).observed(obs.clone());
            spec.cores = 2;
            let mut mem = spec.boot();
            let va = mem.alloc(1 << 20);
            for p in 0..256 {
                mem.write_u64(0, va + p * 4096, p);
            }
            let label = kind.label();
            for p in 0..256 {
                assert_eq!(mem.read_u64(0, va + p * 4096), p, "{label}");
            }
            let (t0, t1) = (mem.now(0), mem.now(1));
            mem.compute(1, 5_000);
            assert_eq!((mem.now(0), mem.now(1)), (t0, t1 + 5_000), "{label}");
            let t = mem.barrier();
            assert_eq!(t, mem.max_now(), "{label}");
            assert_eq!((mem.now(0), mem.now(1)), (t, t), "{label}");

            let digest = mem.trace_digest();
            let settled = (obs.trace().count(), mem.metrics().samples());
            assert!(settled.1 > 0, "{label}: the sampler never ran");
            assert_eq!(mem.trace_digest(), digest, "{label}");
            let again = (obs.trace().count(), mem.metrics().samples());
            assert_eq!(again, settled, "{label}: a second quiesce did work");
        }
    }

    #[test]
    fn far_array_typed_access() {
        let mut mem = SystemSpec::for_working_set(SystemKind::DilosReadahead, 1 << 20, 100).boot();
        let arr = FarArray::new(mem.as_mut(), 1000);
        arr.set_i64(mem.as_mut(), 0, 7, -42);
        assert_eq!(arr.get_i64(mem.as_mut(), 0, 7), -42);
        arr.set_f64(mem.as_mut(), 0, 8, 2.5);
        assert_eq!(arr.get_f64(mem.as_mut(), 0, 8), 2.5);
        let vals: Vec<u64> = (0..100).collect();
        arr.write_range(mem.as_mut(), 0, 100, &vals);
        let mut out = vec![0u64; 100];
        arr.read_range(mem.as_mut(), 0, 100, &mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn ratio_sizing_matches_the_paper_sweeps() {
        let ws = 1u64 << 24; // 16 MiB working set.
        let s125 = SystemSpec::for_working_set(SystemKind::Fastswap, ws, 13);
        let s100 = SystemSpec::for_working_set(SystemKind::Fastswap, ws, 100);
        assert_eq!(s100.local_pages, (ws / 4096) as usize);
        assert!(s125.local_pages * 7 < s100.local_pages);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn far_array_bounds_checked() {
        let mut mem = SystemSpec::for_working_set(SystemKind::DilosReadahead, 1 << 20, 100).boot();
        let arr = FarArray::new(mem.as_mut(), 4);
        arr.get(mem.as_mut(), 0, 4);
    }
}
