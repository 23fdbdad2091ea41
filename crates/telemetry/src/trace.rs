//! Causal tracing: bounded per-lane ring buffers of structured
//! [`TraceEvent`]s, span contexts that propagate across the
//! enclave boundary, and Chrome trace-event JSON export
//! (Perfetto-loadable).
//!
//! The metrics layer (the rest of this crate) answers *how much*;
//! this module answers *which call chain*. Every boundary crossing —
//! proxy RMI call, ecall/ocall transition, shim relay, switchless
//! queue hop, GC pause — records one span carrying a
//! `(trace_id, span_id, parent_span_id)` triple, so a call entering
//! the enclave and issuing nested ocalls produces one connected tree
//! spanning both runtimes.
//!
//! Design constraints, in order:
//!
//! 1. **Never block the hot path.** Recording reserves a slot with a
//!    single `fetch_add`; a full ring counts the drop and returns.
//!    The reserved slot is written under a per-slot mutex that is
//!    uncontended by construction (each index is handed to exactly
//!    one writer; only an export in progress can briefly share it).
//! 2. **Allocation- and clock-free when disabled.** Event names and
//!    timestamps are closures that only run once the enabled check
//!    has passed, so a disabled tracer reads no clock: every record
//!    call costs one relaxed load.
//! 3. **One event per span.** A span is recorded once, complete, when
//!    it ends ([`SpanGuard`]'s drop or [`Tracer::span_at`]), so a
//!    capture never holds half a span and nothing re-pairs events.
//! 4. **Two timestamps.** A span's begin and end each carry model
//!    time (the charged clock — a function of the run's inputs only)
//!    *and* wall time from the tracer's origin. The exported timeline
//!    is model time; wall time rides along in `args`.
//!
//! Sizing knobs (read when a tracer is enabled):
//! `MONTSALVAT_TRACE_BUFFER` — events per lane (default 65536);
//! `MONTSALVAT_TRACE=1` — enable the process-global tracer at first
//! use. See `docs/TRACING.md`.

use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use crate::json::Json;
use crate::recorder::Recorder;
use crate::Counter;

/// Identifier of the JSON document written by `--trace-out`.
///
/// Same versioning contract as [`crate::SCHEMA`]: field additions keep
/// the version, renames/removals bump it.
pub const TRACE_SCHEMA: &str = "montsalvat.trace/v2";

/// Default ring capacity per lane, overridable with
/// `MONTSALVAT_TRACE_BUFFER`.
pub const DEFAULT_BUFFER: usize = 65_536;

/// Which runtime ("process" in the Chrome trace sense) an event
/// belongs to. Mirrors `montsalvat_core::exec::Side` without a
/// dependency on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The enclave runtime (trusted image).
    Trusted,
    /// The host runtime (untrusted image).
    Untrusted,
}

impl Lane {
    /// Chrome trace `pid` for this lane.
    pub const fn pid(self) -> u64 {
        match self {
            Lane::Trusted => 1,
            Lane::Untrusted => 2,
        }
    }

    /// Human label used for the `process_name` metadata event.
    pub const fn label(self) -> &'static str {
        match self {
            Lane::Trusted => "trusted (enclave)",
            Lane::Untrusted => "untrusted (host)",
        }
    }

    const fn index(self) -> usize {
        match self {
            Lane::Trusted => 0,
            Lane::Untrusted => 1,
        }
    }
}

/// The compact identity a span hands to its children — the part of an
/// event that travels with an RMI message across the enclave boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Identifies the whole call tree (one per root span).
    pub trace_id: u64,
    /// Identifies this span within the tree; children record it as
    /// their `parent_span_id`.
    pub span_id: u64,
}

/// A point on both clocks: a span's begin or end, or an instant.
/// [`Tracer::stamp`] takes one only while the tracer is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Model time (cost-clock nanoseconds).
    pub model_ns: u64,
    /// Wall nanoseconds since the tracer was created.
    pub wall_ns: u64,
}

/// One structured event in a ring buffer: a complete span, or an
/// instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which runtime recorded the event.
    pub lane: Lane,
    /// Category: `"rmi"`, `"sgx"`, `"shim"`, `"serde"`, `"queue"`,
    /// `"exec"`, `"gc"`.
    pub cat: &'static str,
    /// Span name (e.g. `"Account.relay$balance"`, `"ecall:relay"`).
    pub name: String,
    /// Call-tree identifier; doubles as the Chrome `tid` so each tree
    /// renders as one track per lane.
    pub trace_id: u64,
    /// This span's identifier (0 for instants).
    pub span_id: u64,
    /// The enclosing span's identifier, 0 at the root.
    pub parent_span_id: u64,
    /// When the span began, or when the instant happened.
    pub begin: Stamp,
    /// When the span ended (never before `begin` in model time);
    /// `None` for an instant.
    pub end: Option<Stamp>,
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// Fill-then-drop bounded buffer. `next` reserves slots; once it runs
/// past capacity every further event is counted in `dropped` and
/// discarded, leaving the captured prefix intact (the paper workloads
/// we trace are short; a fill-then-drop prefix keeps whole trees
/// rather than shredding them the way a wrap-around would).
struct Ring {
    slots: Vec<Mutex<Option<TraceEvent>>>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Returns `false` (and counts the drop) when full. Never blocks:
    /// the slot index is uniquely owned, so the per-slot lock only
    /// ever overlaps with a concurrent export's clone.
    fn push(&self, event: TraceEvent) -> bool {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut slot = self.slots[idx].lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(event);
        true
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let filled = self.next.load(Ordering::Acquire).min(self.slots.len());
        self.slots[..filled]
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect()
    }

    fn clear(&self) {
        let filled = self.next.load(Ordering::Acquire).min(self.slots.len());
        for slot in &self.slots[..filled] {
            *slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
        self.dropped.store(0, Ordering::Relaxed);
        self.next.store(0, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// A per-process (or per-test) trace sink: one ring per lane, a span
/// id allocator, and the wall-clock origin.
///
/// Disabled by default — every record call first checks one relaxed
/// atomic and touches nothing else, so leaving instrumentation
/// compiled in costs a branch. [`Tracer::enable`] allocates the rings
/// lazily.
pub struct Tracer {
    enabled: AtomicBool,
    rings: OnceLock<[Ring; 2]>,
    next_id: AtomicU64,
    origin: Instant,
    /// Mirrors drops into [`Counter::TraceDropped`] on the attached
    /// recorder so the telemetry export reconciles with the trace.
    recorder: Mutex<Weak<Recorder>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish_non_exhaustive()
    }
}

fn buffer_from_env() -> usize {
    std::env::var("MONTSALVAT_TRACE_BUFFER")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(8))
        .unwrap_or(DEFAULT_BUFFER)
}

impl Tracer {
    /// Creates a disabled tracer.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: AtomicBool::new(false),
            rings: OnceLock::new(),
            next_id: AtomicU64::new(1),
            origin: Instant::now(),
            recorder: Mutex::new(Weak::new()),
        })
    }

    /// The process-global tracer that [`CostModel`]s attach to by
    /// default. Starts disabled unless `MONTSALVAT_TRACE=1`.
    ///
    /// [`CostModel`]: ../../sgx_sim/cost/struct.CostModel.html
    pub fn global() -> &'static Arc<Tracer> {
        static GLOBAL: OnceLock<Arc<Tracer>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let tracer = Tracer::new();
            if std::env::var("MONTSALVAT_TRACE").map(|v| v == "1").unwrap_or(false) {
                tracer.enable();
            }
            tracer
        })
    }

    /// Enables capture with the `MONTSALVAT_TRACE_BUFFER` capacity
    /// (default [`DEFAULT_BUFFER`] events per lane).
    pub fn enable(&self) {
        self.enable_with_capacity(buffer_from_env());
    }

    /// Enables capture with an explicit per-lane capacity. The first
    /// enable fixes the capacity; later calls only flip the flag.
    pub fn enable_with_capacity(&self, capacity: usize) {
        let capacity = capacity.max(8);
        self.rings.get_or_init(|| [Ring::with_capacity(capacity), Ring::with_capacity(capacity)]);
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops capture (buffers are kept for export).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether events are currently being captured. The fast path of
    /// every record call.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Mirrors future drops into `recorder`'s
    /// [`Counter::TraceDropped`].
    pub fn attach_recorder(&self, recorder: &Arc<Recorder>) {
        *self.recorder.lock().unwrap_or_else(|e| e.into_inner()) = Arc::downgrade(recorder);
    }

    /// Allocates a fresh span (or trace) identifier. Never 0.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn wall_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Takes the begin timestamps of a span that [`Tracer::span_at`]
    /// records later. Returns `None`, evaluating `model_ns` and reading
    /// no clock, when disabled.
    pub fn stamp(&self, model_ns: impl FnOnce() -> u64) -> Option<Stamp> {
        self.is_enabled().then(|| Stamp { model_ns: model_ns(), wall_ns: self.wall_ns() })
    }

    fn push(&self, event: TraceEvent) {
        let Some(rings) = self.rings.get() else { return };
        if !rings[event.lane.index()].push(event) {
            if let Some(recorder) =
                self.recorder.lock().unwrap_or_else(|e| e.into_inner()).upgrade()
            {
                recorder.incr(Counter::TraceDropped);
            }
        }
    }

    /// The identity of a new span under `parent`, which starts a new
    /// call tree when `None`: its context and its parent's span id.
    fn open(&self, parent: Option<SpanContext>) -> (SpanContext, u64) {
        let span_id = self.next_id();
        let (trace_id, parent_span_id) = match parent {
            Some(p) => (p.trace_id, p.span_id),
            None => (self.next_id(), 0),
        };
        (SpanContext { trace_id, span_id }, parent_span_id)
    }

    /// Opens a span that begins now, at `clock()`, and makes its
    /// context the thread's current one (see [`current`]). The span is
    /// recorded when the returned guard drops, ending at `clock()`.
    ///
    /// Returns `None` without evaluating `clock` or `name` (so without
    /// reading a clock or allocating) when disabled. `parent = None`
    /// starts a new call tree; otherwise the span joins the parent's
    /// tree.
    pub fn span<C: Fn() -> u64>(
        &self,
        lane: Lane,
        cat: &'static str,
        parent: Option<SpanContext>,
        clock: C,
        name: impl FnOnce() -> String,
    ) -> Option<SpanGuard<'_, C>> {
        if !self.is_enabled() {
            return None;
        }
        let model_ns = clock();
        let (ctx, parent_span_id) = self.open(parent);
        let name = name();
        let begin = Stamp { model_ns, wall_ns: self.wall_ns() };
        Some(SpanGuard {
            tracer: self,
            clock,
            lane,
            cat,
            name,
            ctx,
            parent_span_id,
            begin,
            prev: CURRENT.with(|c| c.replace(Some(ctx))),
            _thread: PhantomData,
        })
    }

    /// Records a complete span that began at `begin` (a
    /// [`Tracer::stamp`]) and ends now — used when the span is only
    /// recorded after the fact (e.g. switchless queue wait,
    /// reconstructed from the job's posting stamp at drain time).
    /// Evaluates nothing and returns `None` when disabled or when
    /// `begin` is `None` (the tracer was off when the span began);
    /// otherwise returns the span's context, so a caller can record
    /// children under it.
    pub fn span_at(
        &self,
        lane: Lane,
        cat: &'static str,
        parent: Option<SpanContext>,
        begin: Option<Stamp>,
        end_model_ns: impl FnOnce() -> u64,
        name: impl FnOnce() -> String,
    ) -> Option<SpanContext> {
        let begin = begin.filter(|_| self.is_enabled())?;
        let (ctx, parent_span_id) = self.open(parent);
        self.push(TraceEvent {
            lane,
            cat,
            name: name(),
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id,
            begin,
            end: Some(Stamp {
                model_ns: end_model_ns().max(begin.model_ns),
                wall_ns: self.wall_ns(),
            }),
        });
        Some(ctx)
    }

    /// Records a point event (e.g. an AEX) attributed to `parent`'s
    /// tree when given. Evaluates neither closure when disabled.
    pub fn instant(
        &self,
        lane: Lane,
        cat: &'static str,
        parent: Option<SpanContext>,
        model_ns: impl FnOnce() -> u64,
        name: impl FnOnce() -> String,
    ) {
        if !self.is_enabled() {
            return;
        }
        let (trace_id, parent_span_id) = match parent {
            Some(p) => (p.trace_id, p.span_id),
            None => (0, 0),
        };
        self.push(TraceEvent {
            lane,
            cat,
            name: name(),
            trace_id,
            span_id: 0,
            parent_span_id,
            begin: Stamp { model_ns: model_ns(), wall_ns: self.wall_ns() },
            end: None,
        });
    }

    /// Events dropped because a lane's ring was full.
    pub fn dropped(&self) -> u64 {
        self.rings
            .get()
            .map(|rings| rings.iter().map(|r| r.dropped.load(Ordering::Relaxed)).sum())
            .unwrap_or(0)
    }

    /// Events currently captured across both lanes.
    pub fn event_count(&self) -> usize {
        self.rings
            .get()
            .map(|rings| {
                rings.iter().map(|r| r.next.load(Ordering::Relaxed).min(r.slots.len())).sum()
            })
            .unwrap_or(0)
    }

    /// Clones every captured event, ring order (record order per lane).
    pub fn snapshot_events(&self) -> Vec<TraceEvent> {
        let Some(rings) = self.rings.get() else { return Vec::new() };
        let mut out = rings[0].snapshot();
        out.extend(rings[1].snapshot());
        out
    }

    /// Empties both rings and resets drop counts. Only call while no
    /// instrumented code is running (between experiment modes).
    pub fn clear(&self) {
        if let Some(rings) = self.rings.get() {
            for ring in rings {
                ring.clear();
            }
        }
    }

    /// Serialises the capture as Chrome trace-event JSON (see
    /// `docs/TRACING.md` for the exact shape). `extra` lands in
    /// `otherData` — pass `("rmi_calls", n)` so `trace-report` can
    /// reconcile the trace against telemetry.
    ///
    /// A span is one complete event (`ph: "X"`). Events are sorted by
    /// lane, call tree, begin model time and span id; ids are taken as
    /// spans open, so a parent sorts before a child that begins with
    /// it.
    pub fn to_chrome_json(&self, extra: &[(&str, u64)]) -> String {
        let mut events = self.snapshot_events();
        events.sort_by_key(|e| (e.lane.pid(), e.trace_id, e.begin.model_ns, e.span_id));
        let mut other = Json::obj().with("dropped", self.dropped()).with("events", events.len());
        for (key, value) in extra {
            other.push(key, *value);
        }
        let lanes = [Lane::Trusted, Lane::Untrusted].map(|lane| {
            Json::obj()
                .with("ph", "M")
                .with("pid", lane.pid())
                .with("tid", 0u64)
                .with("name", "process_name")
                .with("args", Json::obj().with("name", lane.label()))
        });
        let micros = |ns: u64| ns as f64 / 1000.0;
        let events = events.into_iter().map(|event| {
            let begin = event.begin;
            let mut line = Json::obj()
                .with("ph", if event.end.is_some() { "X" } else { "i" })
                .with("pid", event.lane.pid())
                .with("tid", event.trace_id)
                .with("cat", event.cat)
                .with("name", event.name)
                .with("ts", micros(begin.model_ns));
            let mut args = Json::obj()
                .with("span", event.span_id)
                .with("parent", event.parent_span_id)
                .with("model_ns", begin.model_ns)
                .with("wall_ns", begin.wall_ns);
            match event.end {
                Some(end) => {
                    line.push("dur", micros(end.model_ns - begin.model_ns));
                    args.push("end_model_ns", end.model_ns);
                    args.push("end_wall_ns", end.wall_ns);
                }
                None => line.push("s", "t"),
            }
            line.with("args", args)
        });
        Json::obj()
            .with("schema", TRACE_SCHEMA)
            .with("displayTimeUnit", "ns")
            .with("otherData", other)
            .with("traceEvents", lanes.into_iter().chain(events).collect::<Vec<_>>())
            .to_pretty()
    }
}

// ---------------------------------------------------------------------------
// Open spans and the thread-local context
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// The span context active on this thread, if any. Classic (same
/// thread) crossings propagate context through here; cross-thread
/// switchless hops carry it in the wire frame instead.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.get())
}

/// A span opened by [`Tracer::span`]. While the guard lives, its
/// context is the thread's current one. When it drops — also while
/// unwinding — it restores the context that was current before and
/// records the span as one complete event ending at `clock()`.
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard<'t, C: Fn() -> u64> {
    tracer: &'t Tracer,
    clock: C,
    lane: Lane,
    cat: &'static str,
    name: String,
    ctx: SpanContext,
    parent_span_id: u64,
    begin: Stamp,
    /// The context current before this span opened.
    prev: Option<SpanContext>,
    /// The guard restores a thread-local, so it stays on its thread.
    _thread: PhantomData<*const ()>,
}

impl<C: Fn() -> u64> SpanGuard<'_, C> {
    /// The context children should inherit (and the wire should
    /// carry) while this span is open.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }
}

impl<C: Fn() -> u64> std::fmt::Debug for SpanGuard<'_, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("ctx", &self.ctx)
            .finish_non_exhaustive()
    }
}

impl<C: Fn() -> u64> Drop for SpanGuard<'_, C> {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        let end = Stamp {
            model_ns: (self.clock)().max(self.begin.model_ns),
            wall_ns: self.tracer.wall_ns(),
        };
        self.tracer.push(TraceEvent {
            lane: self.lane,
            cat: self.cat,
            name: std::mem::take(&mut self.name),
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.parent_span_id,
            begin: self.begin,
            end: Some(end),
        });
    }
}

// ---------------------------------------------------------------------------
// Parsing (for `montsalvat trace-report` and tests)
// ---------------------------------------------------------------------------

/// One span read back from a `--trace-out` document, linked into the
/// span forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Lane pid (1 = trusted, 2 = untrusted).
    pub pid: u64,
    /// Track (= trace id).
    pub tid: u64,
    /// Span category.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Span id (`args.span`).
    pub id: u64,
    /// Parent span id (`args.parent`), 0 at a root.
    pub parent_id: u64,
    /// Begin on both clocks.
    pub begin: Stamp,
    /// End on both clocks (model time never before `begin`'s).
    pub end: Stamp,
    /// Payload bytes from a `b=<n>` name suffix (serde spans), else 0.
    pub payload_bytes: u64,
    /// Index of the parent span, when the parent is in the trace.
    pub parent: Option<usize>,
    /// Indices of the child spans, in begin order.
    pub children: Vec<usize>,
}

impl ParsedSpan {
    /// Model-time duration.
    pub fn dur_ns(&self) -> u64 {
        self.end.model_ns.saturating_sub(self.begin.model_ns)
    }
}

/// A parsed `--trace-out` document.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// Every span, in document order (lane, call tree, begin), with
    /// parent and children links resolved. Instants are not kept.
    pub spans: Vec<ParsedSpan>,
    /// The numeric `otherData` entries (`dropped`, `events`, plus any
    /// extras the exporter attached such as `rmi_calls`).
    pub other: Vec<(String, u64)>,
}

impl ParsedTrace {
    /// Looks up one `otherData` entry.
    pub fn other(&self, key: &str) -> Option<u64> {
        self.other.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Model time span `i` spent outside its children: its duration
    /// minus theirs, floored at zero (children served on other threads
    /// can overlap and sum past their parent). On a single-threaded
    /// capture with no drops, the exclusive times of all spans sum to
    /// the roots' durations.
    pub fn exclusive_ns(&self, i: usize) -> u64 {
        let span = &self.spans[i];
        let children: u64 = span.children.iter().map(|&k| self.spans[k].dur_ns()).sum();
        span.dur_ns().saturating_sub(children)
    }
}

/// Reads back a document produced by [`Tracer::to_chrome_json`], in
/// any layout (it goes through [`Json::parse`]).
pub fn parse_chrome_trace(json: &str) -> Result<ParsedTrace, String> {
    let doc = Json::parse(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("not a Chrome trace document (no traceEvents)")?;
    let other = doc.get("otherData").and_then(Json::as_obj).unwrap_or_default();
    let mut spans = Vec::with_capacity(events.len());
    for event in events {
        match event.get("ph").and_then(Json::as_str).and_then(|s| s.chars().next()) {
            Some('X') => {}
            Some('M' | 'i') => continue,
            ph => return Err(format!("unknown event phase `{}`", ph.unwrap_or('?'))),
        }
        let field = |path: &[&str]| event.at(path).and_then(Json::as_u64);
        let text = |key| event.get(key).and_then(Json::as_str).unwrap_or_default().to_owned();
        let name = text("name");
        let begin = Stamp {
            model_ns: field(&["args", "model_ns"]).ok_or("span missing model_ns")?,
            wall_ns: field(&["args", "wall_ns"]).unwrap_or(0),
        };
        let end_model_ns = field(&["args", "end_model_ns"]).ok_or("span missing end_model_ns")?;
        spans.push(ParsedSpan {
            pid: field(&["pid"]).ok_or("event missing pid")?,
            tid: field(&["tid"]).ok_or("event missing tid")?,
            cat: text("cat"),
            payload_bytes: name
                .rsplit_once("b=")
                .and_then(|(_, n)| n.trim().parse().ok())
                .unwrap_or(0),
            name,
            id: field(&["args", "span"]).unwrap_or(0),
            parent_id: field(&["args", "parent"]).unwrap_or(0),
            begin,
            end: Stamp {
                model_ns: end_model_ns.max(begin.model_ns),
                wall_ns: field(&["args", "end_wall_ns"]).unwrap_or(0),
            },
            parent: None,
            children: Vec::new(),
        });
    }
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    for i in 0..spans.len() {
        let parent_id = spans[i].parent_id;
        if let Some(&p) = by_id.get(&parent_id).filter(|_| parent_id != 0) {
            spans[i].parent = Some(p);
            spans[p].children.push(i);
        }
    }
    let begins: Vec<u64> = spans.iter().map(|s| s.begin.model_ns).collect();
    for span in &mut spans {
        span.children.sort_by_key(|&k| begins[k]);
    }
    Ok(ParsedTrace {
        spans,
        other: other.iter().filter_map(|(k, v)| Some((k.clone(), v.as_u64()?))).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(capacity: usize) -> Arc<Tracer> {
        let tracer = Tracer::new();
        tracer.enable_with_capacity(capacity);
        tracer
    }

    fn at(model_ns: u64) -> Option<Stamp> {
        Some(Stamp { model_ns, wall_ns: 0 })
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_name_closures() {
        let tracer = Tracer::new();
        let clock = || -> u64 { panic!("no clock is read while disabled") };
        let name = || -> String { panic!("name closure must not run while disabled") };
        assert!(tracer.span(Lane::Trusted, "rmi", None, clock, name).is_none());
        assert_eq!(current(), None, "a disabled span makes nothing current");
        tracer.instant(Lane::Trusted, "sgx", None, clock, name);
        let begin = tracer.stamp(clock);
        assert!(begin.is_none());
        assert!(tracer.span_at(Lane::Trusted, "serde", None, begin, clock, name).is_none());
        assert_eq!(tracer.event_count(), 0);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn span_names_round_trip_through_escaping() {
        let tracer = enabled(8);
        let name = "say \"hi\" C:\\dir\nnext\u{1}end";
        tracer.span_at(Lane::Trusted, "rmi", None, at(0), || 1, || name.into());
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.spans[0].name, name);
    }

    #[test]
    fn a_guard_records_one_complete_span_when_it_drops() {
        let tracer = enabled(64);
        let clock = AtomicU64::new(100);
        let now = || clock.load(Ordering::Relaxed);
        let root = tracer.span(Lane::Untrusted, "rmi", None, now, || "call".into()).unwrap();
        let root_ctx = root.context();
        assert_eq!(current(), Some(root_ctx));
        clock.store(200, Ordering::Relaxed);
        {
            let child = tracer.span(Lane::Trusted, "sgx", current(), now, || "ecall".into());
            let child = child.unwrap();
            assert_eq!(child.context().trace_id, root_ctx.trace_id);
            assert_eq!(current(), Some(child.context()));
            assert_eq!(tracer.event_count(), 0, "nothing is recorded while a span is open");
            clock.store(300, Ordering::Relaxed);
        }
        assert_eq!(current(), Some(root_ctx), "the child restores its parent's context");
        assert_eq!(tracer.event_count(), 1);
        clock.store(400, Ordering::Relaxed);
        drop(root);
        assert_eq!(current(), None);

        let json = tracer.to_chrome_json(&[("rmi_calls", 1)]);
        let parsed = parse_chrome_trace(&json).unwrap();
        assert_eq!(parsed.other("dropped"), Some(0));
        assert_eq!(parsed.other("events"), Some(2), "one event per span");
        assert_eq!(parsed.other("rmi_calls"), Some(1));
        // The trusted lane (pid 1) sorts first.
        let [ecall, call] = &parsed.spans[..] else { panic!("{:?}", parsed.spans) };
        assert_eq!(
            (call.name.as_str(), call.begin.model_ns, call.end.model_ns),
            ("call", 100, 400)
        );
        assert_eq!((call.id, call.parent_id, call.parent), (root_ctx.span_id, 0, None));
        assert_eq!(call.children, [0]);
        assert_eq!((ecall.begin.model_ns, ecall.end.model_ns), (200, 300));
        assert_eq!((ecall.parent_id, ecall.parent), (root_ctx.span_id, Some(1)));
        assert_eq!((ecall.tid, ecall.pid), (root_ctx.trace_id, Lane::Trusted.pid()));
        assert!(call.begin.wall_ns <= ecall.begin.wall_ns && ecall.end.wall_ns <= call.end.wall_ns);
    }

    #[test]
    fn a_guard_records_its_span_while_unwinding() {
        let tracer = enabled(8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = tracer.span(Lane::Trusted, "exec", None, || 5, || "serve:X".into());
            panic!("relay body fails");
        }));
        assert!(caught.is_err());
        assert_eq!(current(), None, "unwinding restores the context");
        let events = tracer.snapshot_events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].name.as_str(), events[0].end.map(|e| e.model_ns)),
            ("serve:X", Some(5))
        );
    }

    #[test]
    fn a_tiny_ring_keeps_only_complete_spans_and_exports_them_sorted() {
        let tracer = enabled(8);
        let recorder = Recorder::new();
        tracer.attach_recorder(&recorder);
        tracer.span_at(Lane::Trusted, "gc", None, at(1_000), || 1_001, || "late".into());
        // A guard records a child before its parent, so the ring holds
        // each pair child first, and it fills between the fourth child
        // and its parent, which is dropped whole.
        for i in 0..20u64 {
            let _call = tracer.span(Lane::Trusted, "rmi", None, || i * 10, || format!("call{i}"));
            let _marshal =
                tracer.span(Lane::Trusted, "serde", current(), || i * 10, || format!("marshal{i}"));
        }
        assert_eq!(tracer.event_count(), 8);
        assert_eq!(tracer.dropped(), 33);
        assert_eq!(recorder.counter(Counter::TraceDropped), 33);
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        assert_eq!(parsed.other("dropped"), Some(33));
        let names: Vec<&str> = parsed.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["late", "call0", "marshal0", "call1", "marshal1", "call2", "marshal2", "marshal3"],
            "sorted by call tree, then begin, then span id"
        );
        for call in [1, 3, 5] {
            let marshal = &parsed.spans[call + 1];
            assert_eq!((marshal.parent_id, marshal.parent), (parsed.spans[call].id, Some(call)));
        }
        let orphan = &parsed.spans[7];
        assert!(orphan.parent_id != 0 && orphan.parent.is_none(), "its parent was dropped");
    }

    #[test]
    fn span_at_records_explicit_interval() {
        let tracer = enabled(16);
        let ctx =
            tracer.span_at(Lane::Trusted, "queue", None, at(50), || 90, || "queue_wait".into());
        let events = tracer.snapshot_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span_id, ctx.unwrap().span_id);
        assert_eq!(events[0].begin.model_ns, 50);
        assert_eq!(events[0].end.map(|e| e.model_ns), Some(90));
        // An end before the begin is clamped to it.
        tracer.span_at(Lane::Trusted, "queue", None, at(50), || 10, || "early".into());
        assert_eq!(tracer.snapshot_events()[1].end.map(|e| e.model_ns), Some(50));
    }

    #[test]
    fn exclusive_time_subtracts_children_and_floors_at_zero() {
        let tracer = enabled(16);
        let root = tracer.span_at(Lane::Untrusted, "rmi", None, at(0), || 100, || "r".into());
        let a = tracer.span_at(Lane::Untrusted, "serde", root, at(10), || 30, || "a".into());
        tracer.span_at(Lane::Untrusted, "exec", root, at(40), || 90, || "b".into());
        // Two overlapping children worth 120 ns under a 20 ns parent.
        tracer.span_at(Lane::Untrusted, "exec", a, at(10), || 70, || "c".into());
        tracer.span_at(Lane::Untrusted, "exec", a, at(10), || 70, || "d".into());
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let exclusive: Vec<(&str, u64)> = (0..parsed.spans.len())
            .map(|i| (parsed.spans[i].name.as_str(), parsed.exclusive_ns(i)))
            .collect();
        assert_eq!(exclusive, [("r", 30), ("a", 0), ("c", 60), ("d", 60), ("b", 50)]);
    }

    #[test]
    fn thread_local_context_nests_and_restores() {
        let tracer = enabled(8);
        assert_eq!(current(), None);
        {
            let outer = tracer.span(Lane::Trusted, "rmi", None, || 0, || "outer".into()).unwrap();
            assert_eq!(current(), Some(outer.context()));
            {
                let inner = tracer.span(Lane::Trusted, "sgx", current(), || 0, || "inner".into());
                assert_eq!(current(), inner.as_ref().map(SpanGuard::context));
            }
            assert_eq!(current(), Some(outer.context()));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn clear_resets_rings_and_drop_counts() {
        let tracer = enabled(8);
        for i in 0..20 {
            tracer.instant(Lane::Untrusted, "gc", None, || i, || "tick".into());
        }
        assert!(tracer.dropped() > 0);
        tracer.clear();
        assert_eq!(tracer.event_count(), 0);
        assert_eq!(tracer.dropped(), 0);
        tracer.instant(Lane::Untrusted, "gc", None, || 1, || "tick".into());
        assert_eq!(tracer.event_count(), 1);
    }

    #[test]
    fn instants_export_but_are_not_spans() {
        let tracer = enabled(8);
        tracer.instant(Lane::Trusted, "sgx", None, || 7, || "aex:epc_faults=1".into());
        let json = tracer.to_chrome_json(&[]);
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        let parsed = parse_chrome_trace(&json).unwrap();
        assert!(parsed.spans.is_empty());
        assert_eq!(parsed.other("events"), Some(1));
    }

    #[test]
    fn begin_and_end_phases_are_rejected() {
        let doc = r#"{"traceEvents": [{"ph": "B", "pid": 1, "tid": 1, "args": {"model_ns": 0}}]}"#;
        assert_eq!(parse_chrome_trace(doc).unwrap_err(), "unknown event phase `B`");
    }

    #[test]
    fn push_is_cheap_under_concurrency() {
        let tracer = enabled(1024);
        let mut handles = Vec::new();
        for t in 0..4 {
            let tracer = Arc::clone(&tracer);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let begin = t * 1000 + i;
                    drop(tracer.span(Lane::Untrusted, "rmi", None, || begin, || "c".into()));
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(tracer.event_count(), 400);
        assert_eq!(tracer.dropped(), 0);
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        assert_eq!(parsed.spans.len(), 400);
    }
}
