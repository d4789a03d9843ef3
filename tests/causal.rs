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

use common::{drive, WS_PAGES};
use dilos::apps::farmem::{SystemKind, SystemSpec};
use dilos::apps::seqrw::SeqWorkload;
use dilos::sim::trace::{FaultKind, FaultPhase, PteClass, TraceEvent, TraceObserver};
use dilos::sim::{Observability, ServiceClass};
use dilos_bench::micro::{tab01_tab03_fault_counts, MicroScale};
use dilos_bench::serve::{serve_qos, ServeScale};
use dilos_bench::timeline::{chrome_trace_json, write_timeline_artifacts};

/// The tracks of one tab01 run with everything armed, as `repro --metrics
/// --timeline` makes it: `(id, settled bundle)` per system.
fn tab01_tracks(scale: MicroScale) -> Vec<(String, Observability)> {
    let arm = || Observability::full().with_timeline();
    let (_, runs) = tab01_tab03_fault_counts(scale, arm);
    runs.into_iter()
        .map(|(id, _, obs)| (id.to_string(), obs))
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

// --- a minimal JSON parser, enough to validate the trace-event schema ---

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.i,
                self.s.get(self.i).map(|&c| c as char)
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(val)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            char::from_u32(code).ok_or("bad \\u code point")?
                        }
                        c => c as char,
                    });
                }
                c => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(&b) = self.s.get(self.i) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.s[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                self.eat(b'{')?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.eat(b'}')?;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => break,
                    }
                }
                self.eat(b'}')?;
                Ok(Json::Obj(fields))
            }
            b'[' => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.eat(b']')?;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => break,
                    }
                }
                self.eat(b']')?;
                Ok(Json::Arr(items))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.i == self.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing garbage at byte {}", self.i))
        }
    }
}

#[test]
fn timeline_json_is_valid_chrome_trace_event_json() {
    let tracks = tab01_tracks(MicroScale {
        pages: 256,
        ratio: 25,
    });
    let pairs: Vec<(String, &dilos::sim::CausalTracer)> = tracks
        .iter()
        .map(|(label, obs)| (label.clone(), obs.causal()))
        .collect();
    let json = chrome_trace_json(&pairs);
    let doc = Parser::new(&json)
        .parse()
        .expect("timeline.json must parse");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(events.len() > 100, "suspiciously empty timeline");
    let mut saw_meta = 0u32;
    let mut saw_complete = 0u32;
    for ev in events {
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
    assert!(saw_meta >= 8, "process/thread metadata missing");
    assert!(saw_complete > 100, "no spans exported");
}

#[test]
fn timeline_artifacts_are_byte_identical_across_boots() {
    let micro = MicroScale {
        pages: 256,
        ratio: 25,
    };
    let serve = ServeScale {
        victim_requests: 60,
        victim_mean_ns: 50_000,
        noisy_requests: 30,
    };
    let files = [
        "timeline.json",
        "serve_timeline.json",
        "tail.md",
        "tail.json",
    ];
    let run = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("dilos-causal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let (_, serve_tracks) = serve_qos(serve, Observability::with_timeline);
        write_timeline_artifacts(&tab01_tracks(micro), &serve_tracks, &dir.to_string_lossy())
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
