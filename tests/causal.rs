//! Causal tracing, enforced: arming the per-request tracer and exporting
//! timelines must never perturb the simulation.
//!
//! Three contracts from the causal-tracing layer:
//!
//! 1. **Digest purity** — a run with the timeline armed emits the exact
//!    event stream of an unarmed run (compared via the order-sensitive
//!    trace digest), on every system at two cache ratios, and the tab01
//!    table still lands on its pinned digests.
//! 2. **Schema** — `timeline.json` is valid Chrome trace-event JSON (the
//!    format Perfetto and `chrome://tracing` load), checked by an actual
//!    parse, not a substring probe.
//! 3. **Byte stability** — two fresh boots produce byte-identical
//!    `timeline.json` / `serve_timeline.json` / `tail.md` / `tail.json`.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::json::Json;
use common::{drive, WS_PAGES};
use dilos::apps::farmem::{SystemKind, SystemSpec};
use dilos::apps::seqrw::SeqWorkload;
use dilos::sim::trace::{FaultKind, FaultPhase, PteClass, TraceEvent, TraceObserver};
use dilos::sim::{Observability, ServiceClass};
use dilos_bench::hostprof::{profile, HostLedger, LAYERS};
use dilos_bench::json;
use dilos_bench::micro::{tab01_tab03_fault_counts, MicroScale};
use dilos_bench::recover::{recover_crash_sweep, RecoverScale};
use dilos_bench::serve::{serve_qos, ServeScale};
use dilos_bench::table::{bench_json, Report};
use dilos_bench::telemetry::write_artifacts;
use dilos_bench::timeline::{chrome_trace_json, write_timeline_artifacts};

/// Test-scale runs: big enough to fault, evict and fill every lane.
const TINY: MicroScale = MicroScale {
    pages: 256,
    ratio: 25,
};
const TINY_SERVE: ServeScale = ServeScale {
    victim_requests: 60,
    victim_mean_ns: 50_000,
    noisy_requests: 30,
};

/// The tracks of one tab01 run with everything armed, as `repro --metrics
/// --timeline` makes it: `(id, settled bundle)` per system.
fn tab01_tracks(scale: MicroScale) -> Vec<(String, Observability)> {
    let arm = || Observability::full().with_timeline();
    let (_, runs) = tab01_tab03_fault_counts(scale, arm);
    runs.into_iter()
        .map(|(id, _, obs)| (id.to_string(), obs))
        .collect()
}

/// Each track's label beside its tracer, the shape the renderers take.
fn tracers(tracks: &[(String, Observability)]) -> Vec<(String, &dilos::sim::CausalTracer)> {
    tracks
        .iter()
        .map(|(label, obs)| (label.clone(), obs.causal()))
        .collect()
}

fn digest_of(kind: SystemKind, ratio: u32, obs: Observability) -> (u64, Observability) {
    let spec = SystemSpec::for_working_set(kind, WS_PAGES * 4096, ratio).observed(obs.clone());
    let mut mem = spec.boot();
    drive(mem.as_mut(), 0xCA05A1);
    (mem.trace_digest(), obs)
}

#[test]
fn timeline_leaves_trace_digests_unchanged() {
    for kind in [
        SystemKind::DilosReadahead,
        SystemKind::DilosTrend,
        SystemKind::Fastswap,
        SystemKind::Aifm,
    ] {
        for ratio in [13u32, 100] {
            let (plain, _) = digest_of(kind, ratio, Observability::tracing());
            let (armed, obs) = digest_of(kind, ratio, Observability::tracing().with_timeline());
            assert_ne!(plain, 0, "{} @ {ratio}%: trace must record", kind.label());
            assert_eq!(
                plain,
                armed,
                "{} @ {ratio}%: the causal tracer perturbed the trace",
                kind.label()
            );
            // AIFM is object-granular and assigns no page-request ids; the
            // tracer must still be a pure observer there (checked above),
            // it just has nothing to assemble.
            if kind != SystemKind::Aifm {
                assert!(
                    obs.causal().request_count() > 0,
                    "{} @ {ratio}%: armed run assembled no span trees",
                    kind.label()
                );
            }
        }
    }
}

/// The digest scheme of PRs 1–14, kept as a reference observer: every event
/// staged as up to six words (discriminant first), the timestamp and each
/// word folded byte by byte, little-endian, with 64-bit FNV-1a. The sink's
/// own fold was replaced by a word-wise one; replaying the old fold over the
/// live stream shows the *stream* did not move when its name did, and keeps
/// every digest recorded before that change checkable.
struct LegacyFnvDigest(u64);

impl LegacyFnvDigest {
    #[rustfmt::skip]
    fn words(ev: &TraceEvent) -> Vec<u64> {
        use TraceEvent as E;
        let verb = |class: ServiceClass, write: bool, node: u8, core: u8| {
            ((class.idx() as u64) << 24)
                | ((write as u64) << 16)
                | ((node as u64) << 8)
                | core as u64
        };
        let kind = |k: FaultKind| match k {
            FaultKind::Major => 0,
            FaultKind::Minor => 1,
            FaultKind::ZeroFill => 2,
        };
        let phase = |p: FaultPhase| match p {
            FaultPhase::Exception => 0,
            FaultPhase::Check => 1,
            FaultPhase::Alloc => 2,
            FaultPhase::Fetch => 3,
            FaultPhase::Map => 4,
            FaultPhase::Reclaim => 5,
        };
        let pte = |c: PteClass| match c {
            PteClass::None => 0u64,
            PteClass::Local => 1,
            PteClass::Remote => 2,
            PteClass::Fetching => 3,
            PteClass::Action => 4,
        };
        match *ev {
            E::FaultBegin { core, vpn, kind: k } => vec![1, ((core as u64) << 8) | kind(k), vpn],
            E::FaultPhase { core, phase: p, dur } => vec![2, ((core as u64) << 8) | phase(p), dur],
            E::FaultEnd { core, vpn } => vec![3, core as u64, vpn],
            E::RdmaIssue { class, write, node, core, bytes } => vec![4, verb(class, write, node, core), bytes as u64],
            E::RdmaComplete { class, write, node, core, done } => vec![5, verb(class, write, node, core), done],
            E::LinkTransfer { class, bytes, inbound, done } => vec![6, ((class.idx() as u64) << 1) | inbound as u64, bytes as u64, done],
            E::MemAccess { write, offset, len } => vec![7, write as u64, offset, len as u64],
            E::PrefetchIssue { vpn } => vec![8, vpn],
            E::PrefetchLand { vpn } => vec![9, vpn],
            E::PrefetchCancel { vpn } => vec![10, vpn],
            E::FrameAlloc { frame } => vec![11, frame as u64],
            E::FrameFree { frame } => vec![12, frame as u64],
            E::PteTransition { vpn, from, to } => vec![13, (pte(from) << 8) | pte(to), vpn],
            E::LruInsert { vpn } => vec![14, vpn],
            E::LruRemove { vpn } => vec![15, vpn],
            E::ReclaimBegin { free } => vec![16, free as u64],
            E::ReclaimEnd { freed } => vec![17, freed as u64],
            E::Evict { vpn, dirty } => vec![18, dirty as u64, vpn],
            E::GuideInvoke { vpn, fetch } => vec![19, fetch as u64, vpn],
            E::Checkpoint { node, upto } => vec![20, node as u64, upto],
            E::IntentAppend { node, seq } => vec![21, node as u64, seq],
            E::NodeCrash { node } => vec![22, node as u64],
            E::RecoveryReplay { node, seq } => vec![23, node as u64, seq],
            E::RecoveryComplete { node, replayed, reconciled } => vec![24, node as u64, replayed, reconciled],
        }
    }
}

impl TraceObserver for LegacyFnvDigest {
    fn on_event(&mut self, t: u64, ev: &TraceEvent) {
        for w in std::iter::once(t).chain(Self::words(ev)) {
            for b in w.to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x1000_0000_01B3);
            }
        }
    }
}

/// One tab01 boot exactly as `tab01_tracks` arms it, with the legacy fold
/// riding along: (sink digest, legacy digest).
fn tab01_boot_with_legacy_fold(kind: SystemKind) -> (u64, u64) {
    let scale = MicroScale::default();
    let obs = Observability::full().with_timeline();
    let legacy = Rc::new(RefCell::new(LegacyFnvDigest(0xCBF2_9CE4_8422_2325)));
    obs.trace().attach(legacy.clone());
    let mut mem = SystemSpec::for_working_set(kind, (scale.pages * 4096) as u64, scale.ratio)
        .observed(obs)
        .boot();
    let wl = SeqWorkload { pages: scale.pages };
    let base = wl.populate(mem.as_mut());
    wl.read_pass(mem.as_mut(), base);
    let digest = mem.trace_digest();
    let legacy = legacy.borrow().0;
    (digest, legacy)
}

/// The acceptance pin: tab01 digests with the timeline armed equal the
/// pinned ones — under the sink's fold *and*, through the reference
/// observer, under the fold that named the same streams from PR 1 to PR 14.
/// The second column is the chain of custody for the re-pin: it can only
/// hold if the event stream itself is what it has always been.
#[test]
fn tab01_digests_pinned_with_timeline_armed() {
    let tracks = tab01_tracks(MicroScale::default());
    for (id, kind, digest, legacy) in [
        (
            "fastswap",
            SystemKind::Fastswap,
            0x67ee96b717678304_u64,
            0x3beeb03d3dec5802_u64,
        ),
        (
            "dilos-noprefetch",
            SystemKind::DilosNoPrefetch,
            0x72868b6c6c8f6be7,
            0x16731fc2dfab62cb,
        ),
        (
            "dilos-readahead",
            SystemKind::DilosReadahead,
            0xa05d4ca934983990,
            0x19ed7dbb10f8648a,
        ),
        (
            "dilos-trend",
            SystemKind::DilosTrend,
            0xf0d93ae335272561,
            0x367878bd711bc5bf,
        ),
    ] {
        assert!(
            tracks
                .iter()
                .any(|(label, obs)| label == id && obs.trace().digest() == digest),
            "{id}: pinned digest {digest:#018x} missing or changed: {:?}",
            tracks
                .iter()
                .map(|(label, obs)| (label.clone(), format!("{:#018x}", obs.trace().digest())))
                .collect::<Vec<_>>()
        );
        let (now, then) = tab01_boot_with_legacy_fold(kind);
        assert_eq!(now, digest, "{id}: the extra observer perturbed the run");
        assert_eq!(
            then, legacy,
            "{id}: the event stream itself changed — the pre-re-pin fold \
             no longer lands on the digest recorded since PR 1"
        );
    }
    let fastswap = tracks.iter().find(|(label, _)| label == "fastswap");
    assert!(
        fastswap.is_some_and(|(_, obs)| obs.causal().request_count() > 0),
        "fastswap track missing from the armed run"
    );
}

/// Asserts `doc` is Chrome trace-event JSON and returns how many metadata
/// records and complete slices it holds.
fn check_trace_events(doc: &Json) -> (u32, u32) {
    assert_eq!(doc.keys(), ["displayTimeUnit", "traceEvents"]);
    let mut saw_meta = 0u32;
    let mut saw_complete = 0u32;
    for ev in doc["traceEvents"].items() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("event without ph: {ev:?}"));
        assert!(
            matches!(ev.get("pid"), Some(Json::Num(_))),
            "event without numeric pid: {ev:?}"
        );
        assert!(
            matches!(ev.get("name"), Some(Json::Str(_))),
            "event without name: {ev:?}"
        );
        match ph {
            "M" => {
                saw_meta += 1;
                let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unknown metadata record: {name}"
                );
            }
            "X" => {
                saw_complete += 1;
                for key in ["ts", "dur", "tid"] {
                    assert!(
                        matches!(ev.get(key), Some(Json::Num(_))),
                        "complete event without numeric {key}: {ev:?}"
                    );
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    (saw_meta, saw_complete)
}

#[test]
fn timeline_json_is_valid_chrome_trace_event_json() {
    let tracks = tab01_tracks(TINY);
    let json = json::document(|w| chrome_trace_json(w, &tracers(&tracks)));
    let doc = Json::parse(&json).expect("timeline.json must parse");
    let (saw_meta, saw_complete) = check_trace_events(&doc);
    assert!(saw_meta >= 8, "process/thread metadata missing");
    assert!(saw_complete > 100, "no spans exported");
}

/// A track label is data, not syntax: quotes, backslashes and control
/// characters in it must come back out of a parse unchanged. (The
/// `format!`-built timeline interpolated labels raw and broke here.)
#[test]
fn timeline_escapes_track_labels() {
    let label = "a\"b\\c\n";
    let tracks = tab01_tracks(TINY);
    let hostile = [(label.to_string(), tracks[0].1.causal())];
    let json = json::document(|w| chrome_trace_json(w, &hostile));
    let doc = Json::parse(&json).expect("a hostile label must not break the document");
    let first = &doc.get("traceEvents").expect("traceEvents").items()[0];
    assert_eq!(
        first.get("name").and_then(Json::as_str),
        Some("process_name")
    );
    let name = first.get("args").and_then(|a| a.get("name"));
    assert_eq!(name.and_then(Json::as_str), Some(label));
    check_trace_events(&doc);
}

/// The names of an accessor's `(name, data)` pairs, in its order.
fn names<T>(pairs: &[(&'static str, T)]) -> Vec<&'static str> {
    pairs.iter().map(|(name, _)| *name).collect()
}

/// A `Report` object as `bench.json` / `serve.json` / `recover.json` carry
/// it: parsed back, it is the report.
fn check_report(doc: &Json, report: &Report) {
    assert_eq!(doc.keys(), ["title", "headers", "rows", "notes", "digests"]);
    let strings = |v: &Json| -> Vec<String> {
        let items = v.items().iter();
        items
            .map(|s| s.as_str().expect("string cell").to_string())
            .collect()
    };
    assert_eq!(
        doc.get("title").and_then(Json::as_str),
        Some(&*report.title)
    );
    assert_eq!(strings(&doc["headers"]), report.headers);
    let rows: Vec<Vec<String>> = doc["rows"].items().iter().map(strings).collect();
    assert_eq!(rows, report.rows);
    assert_eq!(strings(&doc["notes"]), report.notes);
    // Digests are 16-digit hex strings keyed by label, in recording order.
    let digests: Vec<(String, String)> = doc["digests"]
        .members()
        .iter()
        .map(|(label, hex)| (label.clone(), hex.as_str().expect("hex string").to_string()))
        .collect();
    let recorded: Vec<(String, String)> = report
        .digests
        .iter()
        .map(|(label, d)| (label.clone(), format!("{d:#018x}")))
        .collect();
    assert_eq!(digests, recorded);
}

/// Every `.json` artefact `repro` can write, rendered from tiny runs the
/// way `repro --metrics --timeline` renders them, must parse back and hold
/// its schema: the same keys in the same order, the values the runs report.
#[test]
fn every_json_artifact_parses_back_to_its_schema() {
    let dir = std::env::temp_dir().join(format!("dilos-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = dir.to_string_lossy().to_string();
    let arm = || Observability::full().with_timeline();
    let (tab01, runs) = tab01_tab03_fault_counts(TINY, arm);
    let (serve, serve_tracks) = serve_qos(TINY_SERVE, Observability::with_timeline);
    let recover = recover_crash_sweep(RecoverScale::default());
    let micro_tracks: Vec<(String, Observability)> = runs
        .iter()
        .map(|(id, _, obs)| (id.to_string(), obs.clone()))
        .collect();
    write_artifacts(&runs, &out).expect("write telemetry");
    write_timeline_artifacts(&micro_tracks, &serve_tracks, &out).expect("write timelines");
    let reports = [("tab01", tab01), ("serve", serve), ("recover", recover)];
    json::write_file(&format!("{out}/bench.json"), |w| bench_json(w, &reports))
        .expect("bench.json");
    for (id, report) in &reports[1..] {
        std::fs::write(dir.join(format!("{id}.json")), report.to_json()).expect("per-id json");
    }
    let parse = |file: &str| {
        let text = std::fs::read_to_string(dir.join(file)).expect("read artefact");
        assert!(text.ends_with("}\n"), "{file}: no closing newline");
        Json::parse(&text).unwrap_or_else(|e| panic!("{file} must parse: {e}"))
    };

    let bench = parse("bench.json");
    assert_eq!(bench.keys(), ["tab01", "serve", "recover"]);
    for (id, report) in &reports {
        check_report(&bench[id], report);
    }
    check_report(&parse("serve.json"), &reports[1].1);
    check_report(&parse("recover.json"), &reports[2].1);

    let ids: Vec<&str> = runs.iter().map(|(id, ..)| *id).collect();
    let metrics = parse("metrics.json");
    let series = parse("timeseries.json");
    assert_eq!(metrics.keys(), ids);
    assert_eq!(series.keys(), ids);
    for (id, kind, obs) in &runs {
        let m = &metrics[id];
        assert_eq!(
            m.keys(),
            [
                "label",
                "digest",
                "major",
                "minor",
                "zero_fill",
                "counters",
                "gauges",
                "histograms",
                "phase_quantiles"
            ]
        );
        assert_eq!(m["label"].as_str(), Some(kind.label()));
        let digest = format!("{:#018x}", obs.trace().digest());
        assert_eq!(m["digest"].as_str(), Some(&*digest), "{id}");
        let p = obs.profiler();
        assert_eq!(m["major"], Json::Num(p.fault_count("major") as f64));
        assert_eq!(m["counters"].keys(), names(&p.counters()));
        assert_eq!(m["histograms"].keys(), names(&p.histograms()));
        assert_eq!(m["phase_quantiles"].keys(), names(&p.phase_histograms()));
        for (_, h) in m["histograms"].members() {
            let keys = [
                "count", "sum", "mean", "min", "max", "p50", "p99", "p999", "buckets",
            ];
            assert_eq!(h.keys(), keys);
            let in_buckets: f64 = h["buckets"]
                .items()
                .iter()
                .map(|b| match b.items() {
                    [Json::Num(_), Json::Num(_), Json::Num(n)] => *n,
                    other => panic!("bucket must be [lo, hi, count]: {other:?}"),
                })
                .sum();
            assert_eq!(
                Json::Num(in_buckets),
                h["count"],
                "{id}: buckets lose samples"
            );
        }
        let gauges = obs.metrics().gauges();
        assert_eq!(m["gauges"].keys(), names(&gauges));
        for (name, value) in gauges {
            assert_eq!(m["gauges"][name], Json::Num(value as f64), "{id}: {name}");
        }

        let s = &series[id];
        assert_eq!(s.keys(), ["interval_ns", "samples", "series"]);
        assert_eq!(s["samples"], Json::Num(obs.metrics().samples() as f64));
        let sampled = obs.metrics().series();
        assert_eq!(s["series"].keys(), names(&sampled));
        for (name, points) in sampled {
            let parsed: Vec<(f64, f64)> = s["series"][name]
                .items()
                .iter()
                .map(|p| match p.items() {
                    [Json::Num(t), Json::Num(v)] => (*t, *v),
                    other => panic!("point must be [t_ns, value]: {other:?}"),
                })
                .collect();
            let held: Vec<(f64, f64)> = points.iter().map(|&(t, v)| (t as f64, v as f64)).collect();
            assert_eq!(parsed, held, "{id}: {name}");
        }
    }

    let (meta, slices) = check_trace_events(&parse("timeline.json"));
    assert!(
        meta >= 8 && slices > 100,
        "timeline.json: {meta} / {slices}"
    );
    let (meta, slices) = check_trace_events(&parse("serve_timeline.json"));
    assert!(
        meta >= 8 && slices > 100,
        "serve_timeline.json: {meta} / {slices}"
    );

    let tail = parse("tail.json");
    assert_eq!(tail.keys(), ["exemplars"]);
    let exemplars = tail["exemplars"].items();
    assert!(!exemplars.is_empty(), "no tail exemplars");
    for e in exemplars {
        assert_eq!(
            e.keys(),
            [
                "track",
                "req",
                "kind",
                "core",
                "vpn",
                "begin_ns",
                "total_ns",
                "queueing_ns",
                "transfer_ns",
                "service_ns",
                "replay_ns",
                "other_ns",
                "dominant",
                "events"
            ]
        );
        let part = |key: &str| match e[key] {
            Json::Num(n) => n,
            ref other => panic!("{key} must be a number: {other:?}"),
        };
        let parts = [
            "queueing_ns",
            "transfer_ns",
            "service_ns",
            "replay_ns",
            "other_ns",
        ];
        assert_eq!(parts.map(part).iter().sum::<f64>(), part("total_ns"));
        assert!(!e["events"].items().is_empty());
        for ev in e["events"].items() {
            assert_eq!(ev.keys(), ["t_ns", "event"]);
            assert!(matches!(ev["t_ns"], Json::Num(_)) && ev["event"].as_str().is_some());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timeline_artifacts_are_byte_identical_across_boots() {
    let files = [
        "timeline.json",
        "serve_timeline.json",
        "tail.md",
        "tail.json",
    ];
    let run = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("dilos-causal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let (_, serve_tracks) = serve_qos(TINY_SERVE, Observability::with_timeline);
        write_timeline_artifacts(&tab01_tracks(TINY), &serve_tracks, &dir.to_string_lossy())
            .expect("write artifacts");
        let contents: Vec<String> = files
            .iter()
            .map(|f| std::fs::read_to_string(dir.join(f)).expect("read artifact"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        contents
    };
    let a = run("a");
    let b = run("b");
    for (i, f) in files.iter().enumerate() {
        assert_eq!(a[i], b[i], "{f} differs across fresh boots");
        assert!(!a[i].is_empty(), "{f} is empty");
    }
}

/// `repro --only hostprof` on a tiny run: its JSON parses back to its
/// schema, no layer comes out negative, both hit runs leave one digest, and
/// attaching the ledger leaves tab01's table and digests as they were.
/// Host time is not byte-stable, so no value is pinned.
#[test]
fn the_host_time_ledger_holds_its_schema_and_observes_only() {
    let prof = profile(TINY, TINY_SERVE, 1 << 12, 2, 1);
    let doc = Json::parse(&json::document(|w| prof.write_json(w))).expect("hostprof.json parses");
    assert_eq!(
        doc.keys(),
        [
            "hot_loop_clock_ns",
            "sample_every",
            "layers",
            "systems",
            "hit"
        ]
    );
    let layers: Vec<&str> = doc["layers"]
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(layers, LAYERS);
    let ids: Vec<&str> = prof.rows.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "fastswap",
            "dilos-noprefetch",
            "dilos-readahead",
            "dilos-trend",
            "serve"
        ]
    );
    assert_eq!(doc["systems"].keys(), ids);
    for r in &prof.rows {
        let s = &doc["systems"][&r.id];
        assert_eq!(
            s.keys(),
            [
                "faults",
                "sampled",
                "events",
                "layer_ns_per_fault",
                "sum_ns_per_fault",
                "timed",
                "timed_ns_per_fault",
                "sum_over_timed",
                "probe_ns"
            ]
        );
        assert_eq!(s["layer_ns_per_fault"].keys(), LAYERS);
        assert!(
            r.totals.sampled > 0 && r.totals.timed > 0,
            "{}: nothing sampled",
            r.id
        );
        assert!(r.no_negative_layer(), "{}: {:?}", r.id, r.layer_ns);
    }
    assert_eq!(
        doc["hit"].keys(),
        [
            "calls",
            "word_ns_per_call",
            "byte_ns_per_call",
            "word_digest",
            "byte_digest"
        ]
    );
    assert!(prof.hit.calls > 0);
    assert_eq!(
        prof.hit.word_digest, prof.hit.byte_digest,
        "word and byte runs diverged"
    );

    let with_ledger = tab01_tab03_fault_counts(TINY, || {
        let obs = Observability::tracing();
        obs.trace()
            .attach(Rc::new(RefCell::new(HostLedger::new(2))));
        obs
    });
    let without = tab01_tab03_fault_counts(TINY, Observability::tracing);
    assert_eq!(with_ledger.0.to_json(), without.0.to_json());
}
