//! The unified observability bundle.
//!
//! An [`Observability`] value bundles the trace sink, the gauge registry,
//! the span profiler, the causal tracer and the audit flag into one handle
//! that is built once and handed to a system's boot path once. The system
//! keeps the registry (it alone knows its gauges) and hands the bundle to
//! the RDMA endpoint and the frame arena with one `observe(&Observability)`
//! call each; all those take from it is the trace sink. The endpoint emits
//! for the links and memory nodes it drives, which hold no sink. Counters
//! are not threaded anywhere: the profiler folds them from the stream (see
//! `crate::metrics`).
//!
//! The bundle is a set of `Rc` handles (the same "dark when disabled"
//! pattern the sink and registry already use): cloning it shares the
//! underlying state, so one bundle describes one booted system. Boot two
//! systems from two bundles — sharing a bundle would interleave their
//! event streams and change both digests.
//!
//! The sink keeps a digest and a count, never events: anything that reads
//! the stream — the profiler and tracer bundled here, the auditor a boot
//! path adds, a test's recorder — is an observer attached to
//! [`Observability::trace`] before the run.

use crate::causal::CausalTracer;
use crate::metrics::{MetricsRegistry, SpanProfiler};
use crate::trace::TraceSink;

/// One system's observability configuration: trace sink, metrics registry,
/// span profiler, and whether an auditor should be attached at boot.
///
/// Invariants maintained by the constructors:
/// - `audit` or metered implies a recording trace sink (the auditor and the
///   profiler are both trace observers).
/// - a recording profiler is already attached to the sink; boot paths must
///   not attach it again.
#[derive(Debug, Clone)]
pub struct Observability {
    trace: TraceSink,
    metrics: MetricsRegistry,
    profiler: SpanProfiler,
    causal: CausalTracer,
    audit: bool,
}

impl Default for Observability {
    fn default() -> Self {
        Self::none()
    }
}

impl Observability {
    /// Fully dark: no tracing, no metrics, no audit. Zero overhead.
    pub fn none() -> Self {
        Self {
            trace: TraceSink::disabled(),
            metrics: MetricsRegistry::disabled(),
            profiler: SpanProfiler::disabled(),
            causal: CausalTracer::disabled(),
            audit: false,
        }
    }

    /// Event tracing only (digests available, no auditor, no metrics).
    pub fn tracing() -> Self {
        Self {
            trace: TraceSink::recording(),
            ..Self::none()
        }
    }

    /// Tracing plus an online auditor attached at boot.
    pub fn audited() -> Self {
        Self {
            audit: true,
            ..Self::tracing()
        }
    }

    /// Tracing plus the metrics registry and span profiler. The profiler is
    /// attached to the sink here, once.
    pub fn metered() -> Self {
        let trace = TraceSink::recording();
        let profiler = SpanProfiler::recording();
        profiler.attach_to(&trace);
        Self {
            trace,
            metrics: MetricsRegistry::recording(),
            profiler,
            causal: CausalTracer::disabled(),
            audit: false,
        }
    }

    /// Everything on: tracing, auditor, metrics, profiler.
    pub fn full() -> Self {
        Self {
            audit: true,
            ..Self::metered()
        }
    }

    /// Arms causal request tracing on an existing bundle: attaches a
    /// recording [`CausalTracer`] to the trace sink (once). The tracer is a
    /// pure observer riding the side-band request ids, so arming it leaves
    /// the run's digest byte-identical — see `crates/sim/src/causal.rs`.
    /// A dark bundle has no stream to observe and is returned unchanged.
    pub fn with_timeline(mut self) -> Self {
        if self.trace.is_enabled() && !self.causal.is_enabled() {
            let causal = CausalTracer::recording();
            causal.attach_to(&self.trace);
            self.causal = causal;
        }
        self
    }

    /// The shared trace sink handle.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The shared metrics registry handle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The shared span profiler handle.
    pub fn profiler(&self) -> &SpanProfiler {
        &self.profiler
    }

    /// The shared causal tracer handle (dark unless
    /// [`Observability::with_timeline`] armed it).
    pub fn causal(&self) -> &CausalTracer {
        &self.causal
    }

    /// Whether the boot path should attach an online auditor.
    pub fn audit(&self) -> bool {
        self.audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_hold_their_invariants() {
        let none = Observability::none();
        assert!(!none.trace().is_enabled());
        assert!(!none.metrics().is_enabled());
        assert!(!none.profiler().is_enabled());
        assert!(!none.audit());

        let tracing = Observability::tracing();
        assert!(tracing.trace().is_enabled());
        assert!(!tracing.metrics().is_enabled());
        assert!(!tracing.audit());

        let audited = Observability::audited();
        assert!(audited.trace().is_enabled());
        assert!(audited.audit());

        let metered = Observability::metered();
        assert!(metered.trace().is_enabled());
        assert!(metered.metrics().is_enabled());
        assert!(metered.profiler().is_enabled());
        assert!(!metered.audit());

        let full = Observability::full();
        assert!(full.metrics().is_enabled());
        assert!(full.audit());
    }

    #[test]
    fn with_timeline_arms_the_causal_tracer_once() {
        let obs = Observability::tracing();
        assert!(!obs.causal().is_enabled());
        let armed = obs.with_timeline();
        assert!(armed.causal().is_enabled());
        // Idempotent: re-arming must not attach a second observer.
        let again = armed.clone().with_timeline();
        again.trace().begin_request();
        again
            .trace()
            .emit(1, crate::trace::TraceEvent::PrefetchIssue { vpn: 4 });
        assert_eq!(again.causal().request_count(), 1);
        let reqs = again.causal().requests();
        assert_eq!(reqs[0].events.len(), 1, "one observer, one record");
        // No sink, nothing to attach to: a dark bundle stays dark.
        assert!(!Observability::none().with_timeline().causal().is_enabled());
    }

    #[test]
    fn clones_share_the_sink() {
        let obs = Observability::tracing();
        let other = obs.clone();
        obs.trace()
            .emit(0, crate::trace::TraceEvent::ReclaimBegin { free: 1 });
        assert_eq!(obs.trace().digest(), other.trace().digest());
    }
}
