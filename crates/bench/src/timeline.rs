//! Causal timeline export and critical-path tail analysis.
//!
//! `repro --timeline` arms the [`CausalTracer`] on the tab01 systems and on
//! the contended serving passes; this module renders two kinds of artifact
//! from the span trees those runs assembled, and boots nothing itself:
//!
//! * **`timeline.json` / `serve_timeline.json`** — Chrome trace-event JSON
//!   (the format `chrome://tracing` and <https://ui.perfetto.dev> open
//!   directly). One process per system or tenant, one thread track per
//!   faulting core plus dedicated prefetch / evict / reclaim lanes and one
//!   lane per memory node for RDMA verb spans. All timestamps are the
//!   simulator's *virtual* clock (µs), so two runs produce byte-identical
//!   files.
//! * **`tail.md` / `tail.json`** — the k worst demand-fault exemplars per
//!   track with their [`critical_path`] breakdown (queueing / transfer /
//!   service / replay) and full span trees, so a p99.9 blowup can be read
//!   causally ("this fault spent 92 % of its life queueing behind the
//!   noisy tenant's transfers") instead of statistically.
//!
//! Arming the tracer never perturbs data-path timing: the tab01 table
//! computed under it lands on the unarmed digests, and a tier-1 test pins
//! that equality.

use std::fmt::Write as _;
use std::io;

use dilos_sim::TraceEvent;
use dilos_sim::{critical_path, CausalTracer, Ns, Observability, ReqKind, RequestTrace};

use crate::json::{
    self, JsonWriter,
    Layout::{Broken, Inline},
};
use crate::table::{us, Report};

/// How many worst-case exemplars the tail report keeps per track.
pub const TAIL_K: usize = 5;

/// Synthetic thread ids for non-core lanes (cores use their own number).
const TID_PREFETCH: u32 = 80;
const TID_EVICT: u32 = 81;
const TID_RECLAIM: u32 = 82;
const TID_NODE_BASE: u32 = 100;

fn span_tid(r: &RequestTrace) -> u32 {
    match r.kind {
        ReqKind::Prefetch => TID_PREFETCH,
        ReqKind::Evict => TID_EVICT,
        _ => u32::from(r.core),
    }
}

fn tid_name(tid: u32) -> String {
    match tid {
        TID_PREFETCH => "prefetch".into(),
        TID_EVICT => "evict".into(),
        TID_RECLAIM => "reclaim-bg".into(),
        t if t >= TID_NODE_BASE => format!("memnode{} rdma", t - TID_NODE_BASE),
        t => format!("core{t} faults"),
    }
}

/// Writes one trace event: the fields every record carries, then what
/// `rest` adds (`ts`/`dur` of a slice, `name`, `args`).
fn event<W: io::Write>(
    w: &mut JsonWriter<W>,
    ph: &str,
    pid: u64,
    tid: u32,
    rest: impl FnOnce(&mut JsonWriter<W>),
) {
    w.object(Inline, |w| {
        w.key("ph").string(ph);
        w.key("pid").uint(pid);
        w.key("tid").uint(tid);
        rest(w);
    });
}

/// A metadata record naming a process or one of its threads.
fn name_record<W: io::Write>(w: &mut JsonWriter<W>, pid: u64, tid: u32, what: &str, name: &str) {
    event(w, "M", pid, tid, |w| {
        w.key("name").string(what);
        w.key("args").object(Inline, |w| {
            w.key("name").string(name);
        });
    });
}

/// The `ts` / `dur` pair of a complete slice: virtual ns rendered as
/// Chrome's microsecond field.
fn slice_span<W: io::Write>(w: &mut JsonWriter<W>, begin: Ns, dur: Ns) {
    w.key("ts").thousandths(begin);
    w.key("dur").thousandths(dur);
}

/// Renders a set of tracks as Chrome trace-event JSON (`{"traceEvents":
/// [...]}`), streamed — the serving timeline runs to tens of megabytes.
/// Every value derives from the virtual clock and the request register, so
/// the output is byte-identical across runs.
pub fn chrome_trace_json<W: io::Write>(w: &mut JsonWriter<W>, tracks: &[(String, &CausalTracer)]) {
    w.object(Broken, |w| {
        w.key("displayTimeUnit").string("ns");
        w.key("traceEvents").array(Broken, |w| {
            for (pid, (label, tracer)) in (1..).zip(tracks) {
                track_events(w, pid, label, tracer);
            }
        });
    });
}

/// One track's records: its process and thread names, then its slices.
fn track_events<W: io::Write>(w: &mut JsonWriter<W>, pid: u64, label: &str, tracer: &CausalTracer) {
    let reqs = tracer.requests();
    let episodes = tracer.reclaim_episodes();
    // Thread metadata for every lane this track actually uses, in
    // ascending tid order.
    let mut tids: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for r in &reqs {
        tids.insert(span_tid(r));
        tids.extend(r.verbs.iter().map(|v| TID_NODE_BASE + u32::from(v.node)));
    }
    if !episodes.is_empty() {
        tids.insert(TID_RECLAIM);
    }
    name_record(w, pid, 0, "process_name", label);
    for tid in tids {
        name_record(w, pid, tid, "thread_name", &tid_name(tid));
    }
    // One complete ("X") slice per request, plus verb slices on the
    // owning memnode lane.
    for r in &reqs {
        let b = critical_path(r);
        event(w, "X", pid, span_tid(r), |w| {
            slice_span(w, r.begin, r.total());
            let kind = r.kind.label();
            if r.vpn == u64::MAX {
                w.key("name").string(format_args!("{kind} vpn=-"));
            } else {
                w.key("name")
                    .string(format_args!("{kind} vpn={:#x}", r.vpn));
            }
            w.key("args").object(Inline, |w| {
                w.key("req").uint(r.id);
                breakdown_fields(w, &b);
            });
        });
        // Verb sub-spans, drawn on the serving memnode's lane.
        for v in &r.verbs {
            event(w, "X", pid, TID_NODE_BASE + u32::from(v.node), |w| {
                slice_span(w, v.issued, v.done.saturating_sub(v.issued));
                let rw = if v.write { "write" } else { "read" };
                w.key("name")
                    .string(format_args!("rdma {rw} ({})", v.class.label()));
                w.key("args").object(Inline, |w| {
                    w.key("req").uint(r.id);
                });
            });
        }
    }
    for (begin, end, freed) in episodes {
        event(w, "X", pid, TID_RECLAIM, |w| {
            slice_span(w, begin, end.saturating_sub(begin));
            w.key("name").string("reclaim");
            w.key("args").object(Inline, |w| {
                w.key("freed").uint(freed);
            });
        });
    }
}

/// The critical-path components and the dominant one, as object members
/// (shared by the timeline slices and the tail exemplars).
fn breakdown_fields<W: io::Write>(w: &mut JsonWriter<W>, b: &dilos_sim::PhaseBreakdown) {
    w.key("queueing_ns").uint(b.queueing);
    w.key("transfer_ns").uint(b.transfer);
    w.key("service_ns").uint(b.service);
    w.key("replay_ns").uint(b.replay);
    w.key("other_ns").uint(b.other);
    w.key("dominant").string(b.dominant());
}

/// One tail exemplar: a worst-case demand fault and where its time went.
#[derive(Debug, Clone)]
pub struct TailExemplar {
    /// Track (system or tenant) the fault belongs to.
    pub track: String,
    /// The full span tree.
    pub request: RequestTrace,
    /// Its critical-path attribution.
    pub breakdown: dilos_sim::PhaseBreakdown,
}

fn is_demand_fault(kind: ReqKind) -> bool {
    matches!(
        kind,
        ReqKind::MajorFault | ReqKind::MinorFault | ReqKind::ZeroFill
    )
}

/// Picks the `k` slowest demand faults of one track (ties broken by the
/// earlier request id, so the pick is deterministic).
pub fn worst_faults(
    tracer: &CausalTracer,
    k: usize,
) -> Vec<(RequestTrace, dilos_sim::PhaseBreakdown)> {
    let mut faults: Vec<RequestTrace> = tracer
        .requests()
        .into_iter()
        .filter(|r| is_demand_fault(r.kind))
        .collect();
    faults.sort_by(|a, b| b.total().cmp(&a.total()).then(a.id.cmp(&b.id)));
    faults
        .into_iter()
        .take(k)
        .map(|r| {
            let b = critical_path(&r);
            (r, b)
        })
        .collect()
}

/// Collects the tail exemplars across every track.
pub fn tail_exemplars(tracks: &[(String, &CausalTracer)], k: usize) -> Vec<TailExemplar> {
    let mut out = Vec::new();
    for (label, tracer) in tracks {
        for (request, breakdown) in worst_faults(tracer, k) {
            out.push(TailExemplar {
                track: label.clone(),
                request,
                breakdown,
            });
        }
    }
    out
}

fn event_line(t: Ns, ev: &TraceEvent) -> String {
    format!("{} {ev:?}", us(t))
}

/// Renders `tail.md`: per-track worst-fault tables plus indented span
/// trees for each exemplar.
pub fn tail_md(exemplars: &[TailExemplar]) -> String {
    let mut out = String::from(
        "# Causal tail exemplars\n\n\
         The k slowest demand faults per track, with end-to-end latency\n\
         attributed along the critical path. All times are virtual µs; the\n\
         span trees list every event the causal tracer attributed to the\n\
         request id, in emission order.\n",
    );
    let mut track = "";
    for e in exemplars {
        if e.track != track {
            track = &e.track;
            let _ = write!(
                out,
                "\n## {track}\n\n\
                 | req | kind | core | vpn | begin | total | queueing | transfer \
                 | service | replay | other | dominant |\n\
                 |---|---|---|---|---|---|---|---|---|---|---|---|\n"
            );
            for peer in exemplars.iter().filter(|p| p.track == e.track) {
                let r = &peer.request;
                let b = &peer.breakdown;
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:#x} | {} | {} | {} | {} | {} | {} | {} | {} |",
                    r.id,
                    r.kind.label(),
                    r.core,
                    r.vpn,
                    us(r.begin),
                    us(b.total),
                    us(b.queueing),
                    us(b.transfer),
                    us(b.service),
                    us(b.replay),
                    us(b.other),
                    b.dominant(),
                );
            }
        }
        let r = &e.request;
        let _ = write!(
            out,
            "\n### req {} — {} vpn={:#x} ({} total, dominant: {})\n\n",
            r.id,
            r.kind.label(),
            r.vpn,
            us(r.total()),
            e.breakdown.dominant(),
        );
        for (t, ev) in &r.events {
            let _ = writeln!(out, "    {}", event_line(*t, ev));
        }
    }
    out
}

/// Renders `tail.json`: the same exemplars, machine-readable.
pub fn tail_json<W: io::Write>(w: &mut JsonWriter<W>, exemplars: &[TailExemplar]) {
    w.object(Broken, |w| {
        w.key("exemplars").array(Broken, |w| {
            for e in exemplars {
                let r = &e.request;
                w.object(Broken, |w| {
                    w.key("track").string(&e.track);
                    w.key("req").uint(r.id);
                    w.key("kind").string(r.kind.label());
                    w.key("core").uint(r.core);
                    w.key("vpn").uint(r.vpn);
                    w.key("begin_ns").uint(r.begin);
                    w.key("total_ns").uint(e.breakdown.total);
                    breakdown_fields(w, &e.breakdown);
                    w.key("events").array(Broken, |w| {
                        for (t, ev) in &r.events {
                            w.object(Inline, |w| {
                                w.key("t_ns").uint(*t);
                                w.key("event").string(format_args!("{ev:?}"));
                            });
                        }
                    });
                });
            }
        });
    });
}

/// A track's label beside its tracer, the shape the renderers take.
fn tracers(tracks: &[(String, Observability)]) -> Vec<(String, &CausalTracer)> {
    tracks
        .iter()
        .map(|(label, obs)| (label.clone(), obs.causal()))
        .collect()
}

/// Writes `timeline.json` (the `micro` tracks), `serve_timeline.json` (the
/// `serve` tracks), and `tail.md` / `tail.json` (both) under `out_dir`, and
/// returns a human summary table. A track is a label — the Perfetto
/// process name — and the settled bundle of the run it names.
pub fn write_timeline_artifacts(
    micro: &[(String, Observability)],
    serve: &[(String, Observability)],
    out_dir: &str,
) -> std::io::Result<Report> {
    let micro_tracks = tracers(micro);
    json::write_file(&format!("{out_dir}/timeline.json"), |w| {
        chrome_trace_json(w, &micro_tracks)
    })?;
    // The serving cluster, contended, with and without QoS: the per-tenant
    // tracks cross-check the serve table's lanes.
    let serve_tracks = tracers(serve);
    json::write_file(&format!("{out_dir}/serve_timeline.json"), |w| {
        chrome_trace_json(w, &serve_tracks)
    })?;
    let mut all_tracks = micro_tracks;
    all_tracks.extend(serve_tracks);
    let exemplars = tail_exemplars(&all_tracks, TAIL_K);
    std::fs::write(format!("{out_dir}/tail.md"), tail_md(&exemplars))?;
    json::write_file(&format!("{out_dir}/tail.json"), |w| {
        tail_json(w, &exemplars)
    })?;

    let mut report = Report::new(
        "Timeline — causal span trees (tab01 systems + serving cluster)",
        &["track", "requests", "worst fault", "dominant"],
    );
    for (label, tracer) in &all_tracks {
        let worst = worst_faults(tracer, 1);
        let (total, dominant) = worst
            .first()
            .map_or((0, "none"), |(r, b)| (r.total(), b.dominant()));
        report.row(vec![
            label.clone(),
            tracer.request_count().to_string(),
            us(total),
            dominant.to_string(),
        ]);
    }
    for (label, obs) in micro.iter().chain(serve) {
        report.digest(label.clone(), obs.trace().digest());
    }
    report.note(format!(
        "Artifacts: {out_dir}/timeline.json, {out_dir}/serve_timeline.json, \
         {out_dir}/tail.md, {out_dir}/tail.json."
    ));
    report.note("Open the timelines at https://ui.perfetto.dev (or chrome://tracing).");
    report.note(
        "Read from the tab01 and serve runs themselves: the causal tracer is a pure observer.",
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{tab01_tab03_fault_counts, MicroScale};

    /// The tracks of one timeline-armed tab01 run at test scale.
    fn armed() -> Vec<(String, Observability)> {
        let tiny = MicroScale {
            pages: 256,
            ratio: 25,
        };
        let arm = || Observability::audited().with_timeline();
        let (_, runs) = tab01_tab03_fault_counts(tiny, arm);
        runs.into_iter()
            .map(|(id, _, obs)| (id.to_string(), obs))
            .collect()
    }

    #[test]
    fn the_tab01_run_covers_every_system_and_is_deterministic() {
        let a = armed();
        let b = armed();
        assert_eq!(a.len(), 4);
        for ((label, oa), (_, ob)) in a.iter().zip(&b) {
            assert_eq!(oa.trace().digest(), ob.trace().digest(), "{label}");
            assert!(oa.causal().request_count() > 0, "{label}: no requests");
            assert_eq!(
                oa.causal().request_count(),
                ob.causal().request_count(),
                "{label}"
            );
        }
    }

    #[test]
    fn chrome_export_is_byte_stable_and_well_formed() {
        let mk = || json::document(|w| chrome_trace_json(w, &tracers(&armed())));
        let a = mk();
        assert_eq!(a, mk(), "timeline must be byte-stable");
        assert!(a.starts_with("{\n"));
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"ph\": \"X\""));
        assert!(a.contains("major-fault"));
        assert!(a.contains("rdma read (fault)"));
    }

    #[test]
    fn tail_picks_the_slowest_faults_first() {
        let tracks = armed();
        let exemplars = tail_exemplars(&tracers(&tracks), TAIL_K);
        assert!(!exemplars.is_empty());
        let mut track = "";
        let mut last = Ns::MAX;
        for e in &exemplars {
            if e.track != track {
                track = &e.track;
                last = Ns::MAX;
            }
            assert!(is_demand_fault(e.request.kind));
            assert!(e.request.total() <= last, "{track}: not sorted");
            last = e.request.total();
            let b = &e.breakdown;
            assert_eq!(
                b.queueing + b.transfer + b.service + b.replay + b.other,
                b.total,
                "breakdown must be exhaustive"
            );
        }
        let md = tail_md(&exemplars);
        assert!(md.contains("| req | kind |"));
        assert!(md.contains("FaultBegin"));
        let json = json::document(|w| tail_json(w, &exemplars));
        assert!(json.contains("\"dominant\""));
    }
}
