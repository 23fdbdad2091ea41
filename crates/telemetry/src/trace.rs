//! Causal tracing: bounded per-lane ring buffers of structured
//! [`TraceEvent`]s, span contexts that propagate across the
//! enclave boundary, and Chrome trace-event JSON export
//! (Perfetto-loadable).
//!
//! The metrics layer (the rest of this crate) answers *how much*;
//! this module answers *which call chain*. Every boundary crossing —
//! proxy RMI call, ecall/ocall transition, shim relay, switchless
//! queue hop, GC pause — records begin/end events carrying a
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
//! 3. **Two timestamps.** Every event carries model time (the charged
//!    clock — a function of the run's inputs only) *and* wall time
//!    from the tracer's origin. The exported timeline is model time;
//!    wall time rides along in `args`.
//!
//! Sizing knobs (read when a tracer is enabled):
//! `MONTSALVAT_TRACE_BUFFER` — events per lane (default 65536);
//! `MONTSALVAT_TRACE=1` — enable the process-global tracer at first
//! use. See `docs/TRACING.md`.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
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
pub const TRACE_SCHEMA: &str = "montsalvat.trace/v1";

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

/// Event phase, mapping onto Chrome trace-event `ph` codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span opens (`ph: "B"`).
    Begin,
    /// Span closes (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
}

impl TracePhase {
    /// The Chrome `ph` code.
    pub const fn ph(self) -> char {
        match self {
            TracePhase::Begin => 'B',
            TracePhase::End => 'E',
            TracePhase::Instant => 'i',
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

/// One structured event in a ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin / end / instant.
    pub phase: TracePhase,
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
    /// This span's identifier (0 for instants outside any span).
    pub span_id: u64,
    /// The enclosing span's identifier, 0 at the root.
    pub parent_span_id: u64,
    /// Model time (cost-clock nanoseconds) — the exported timeline.
    pub model_ns: u64,
    /// Wall nanoseconds since the tracer was created.
    pub wall_ns: u64,
}

/// Handle for a span that has begun but not yet finished. Carries
/// everything the matching end event needs.
#[derive(Debug)]
pub struct ActiveSpan {
    ctx: SpanContext,
    lane: Lane,
    cat: &'static str,
    name: String,
}

impl ActiveSpan {
    /// The context children should inherit (and the wire should
    /// carry) while this span is open.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }
}

/// The begin timestamps of a span recorded after the fact with
/// [`Tracer::span_at`]. [`Tracer::stamp`] takes one only while the
/// tracer is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Model time (cost-clock nanoseconds) at the span's begin.
    pub model_ns: u64,
    /// Wall nanoseconds since the tracer was created, at the begin.
    pub wall_ns: u64,
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

    fn push(&self, lane: Lane, event: TraceEvent) {
        let Some(rings) = self.rings.get() else { return };
        if !rings[lane.index()].push(event) {
            if let Some(recorder) =
                self.recorder.lock().unwrap_or_else(|e| e.into_inner()).upgrade()
            {
                recorder.incr(Counter::TraceDropped);
            }
        }
    }

    /// Opens a span. Returns `None` without evaluating `model_ns` or
    /// `name` (so without reading a clock or allocating) when disabled.
    ///
    /// `parent = None` starts a new call tree; otherwise the span
    /// joins the parent's tree.
    pub fn start(
        &self,
        lane: Lane,
        cat: &'static str,
        parent: Option<SpanContext>,
        model_ns: impl FnOnce() -> u64,
        name: impl FnOnce() -> String,
    ) -> Option<ActiveSpan> {
        if !self.is_enabled() {
            return None;
        }
        let model_ns = model_ns();
        let span_id = self.next_id();
        let (trace_id, parent_span_id) = match parent {
            Some(p) => (p.trace_id, p.span_id),
            None => (self.next_id(), 0),
        };
        let name = name();
        self.push(
            lane,
            TraceEvent {
                phase: TracePhase::Begin,
                lane,
                cat,
                name: name.clone(),
                trace_id,
                span_id,
                parent_span_id,
                model_ns,
                wall_ns: self.wall_ns(),
            },
        );
        Some(ActiveSpan { ctx: SpanContext { trace_id, span_id }, lane, cat, name })
    }

    /// Closes a span opened by [`Tracer::start`].
    pub fn finish(&self, span: ActiveSpan, model_ns: u64) {
        let wall_ns = self.wall_ns();
        let ActiveSpan { ctx, lane, cat, name } = span;
        self.push(
            lane,
            TraceEvent {
                phase: TracePhase::End,
                lane,
                cat,
                name,
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_span_id: 0,
                model_ns,
                wall_ns,
            },
        );
    }

    /// Records a complete span that began at `begin` (a
    /// [`Tracer::stamp`]) and ends now — used when the span is only
    /// recorded after the fact (e.g. switchless queue wait,
    /// reconstructed from the job's posting stamp at drain time).
    /// Evaluates nothing when disabled or when `begin` is `None` (the
    /// tracer was off when the span began).
    pub fn span_at(
        &self,
        lane: Lane,
        cat: &'static str,
        parent: Option<SpanContext>,
        begin: Option<Stamp>,
        end_model_ns: impl FnOnce() -> u64,
        name: impl FnOnce() -> String,
    ) {
        let Some(Stamp { model_ns: begin_model_ns, wall_ns: begin_wall_ns }) =
            begin.filter(|_| self.is_enabled())
        else {
            return;
        };
        let span_id = self.next_id();
        let (trace_id, parent_span_id) = match parent {
            Some(p) => (p.trace_id, p.span_id),
            None => (self.next_id(), 0),
        };
        let name = name();
        self.push(
            lane,
            TraceEvent {
                phase: TracePhase::Begin,
                lane,
                cat,
                name: name.clone(),
                trace_id,
                span_id,
                parent_span_id,
                model_ns: begin_model_ns,
                wall_ns: begin_wall_ns,
            },
        );
        self.push(
            lane,
            TraceEvent {
                phase: TracePhase::End,
                lane,
                cat,
                name,
                trace_id,
                span_id,
                parent_span_id: 0,
                model_ns: end_model_ns().max(begin_model_ns),
                wall_ns: self.wall_ns(),
            },
        );
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
        self.push(
            lane,
            TraceEvent {
                phase: TracePhase::Instant,
                lane,
                cat,
                name: name(),
                trace_id,
                span_id: 0,
                parent_span_id,
                model_ns: model_ns(),
                wall_ns: self.wall_ns(),
            },
        );
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

    /// Clones every captured event, ring order (push order per lane).
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
    /// Begin/end events are re-balanced per `(pid, tid)` track at
    /// export: an unmatched begin (span cut off by an error path or a
    /// full ring) gets a synthetic end at the track's last timestamp,
    /// and orphan ends are dropped, so the output always loads.
    pub fn to_chrome_json(&self, extra: &[(&str, u64)]) -> String {
        let balanced = balance(self.snapshot_events());
        let mut other = Json::obj().with("dropped", self.dropped()).with("events", balanced.len());
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
        let events = balanced.into_iter().map(|event| {
            let mut line = Json::obj()
                .with("ph", event.phase.ph().to_string())
                .with("pid", event.lane.pid())
                .with("tid", event.trace_id)
                .with("cat", event.cat)
                .with("name", event.name)
                .with("ts", event.model_ns as f64 / 1000.0);
            if event.phase == TracePhase::Instant {
                line.push("s", "t");
            }
            line.with(
                "args",
                Json::obj()
                    .with("span", event.span_id)
                    .with("parent", event.parent_span_id)
                    .with("model_ns", event.model_ns)
                    .with("wall_ns", event.wall_ns),
            )
        });
        Json::obj()
            .with("schema", TRACE_SCHEMA)
            .with("displayTimeUnit", "ns")
            .with("otherData", other)
            .with("traceEvents", lanes.into_iter().chain(events).collect::<Vec<_>>())
            .to_pretty()
    }
}

/// Re-balances begin/end events per `(pid, tid)` track; see
/// [`Tracer::to_chrome_json`].
fn balance(events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    let mut tracks: BTreeMap<(u64, u64), Vec<TraceEvent>> = BTreeMap::new();
    for event in events {
        tracks.entry((event.lane.pid(), event.trace_id)).or_default().push(event);
    }
    let mut out = Vec::new();
    for (_, mut track) in tracks {
        // Stable sort: ties (zero model time charged between pushes)
        // keep push order, which is causal order within a lane.
        track.sort_by_key(|e| e.model_ns);
        let mut open: Vec<TraceEvent> = Vec::new();
        let mut last_model = 0u64;
        let mut last_wall = 0u64;
        for event in track {
            last_model = last_model.max(event.model_ns);
            last_wall = last_wall.max(event.wall_ns);
            match event.phase {
                TracePhase::Begin => {
                    open.push(event.clone());
                    out.push(event);
                }
                TracePhase::End => {
                    if open.pop().is_some() {
                        out.push(event);
                    }
                    // Orphan end: its begin was dropped — discard.
                }
                TracePhase::Instant => out.push(event),
            }
        }
        // Synthesize ends for spans cut off mid-flight, innermost
        // first so the stack unwinds.
        while let Some(begin) = open.pop() {
            out.push(TraceEvent {
                phase: TracePhase::End,
                model_ns: last_model,
                wall_ns: last_wall,
                parent_span_id: 0,
                ..begin
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Thread-local span context
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

/// Makes `ctx` the current context until the returned guard drops
/// (restoring whatever was current before).
#[must_use = "the context is only current while the guard lives"]
pub fn set_current(ctx: SpanContext) -> ContextScope {
    ContextScope { prev: CURRENT.with(|c| c.replace(Some(ctx))) }
}

/// Guard returned by [`set_current`].
#[derive(Debug)]
pub struct ContextScope {
    prev: Option<SpanContext>,
}

impl Drop for ContextScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Parsing (for `montsalvat trace-report` and tests)
// ---------------------------------------------------------------------------

/// One event read back from a `--trace-out` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Chrome phase code (`B`/`E`/`i`; metadata events are skipped).
    pub ph: char,
    /// Lane pid (1 = trusted, 2 = untrusted).
    pub pid: u64,
    /// Track (= trace id).
    pub tid: u64,
    /// Event category.
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Span id from `args` (0 for instants).
    pub span: u64,
    /// Parent span id from `args` (0 at roots and on end events).
    pub parent: u64,
    /// Model-time nanoseconds from `args`.
    pub model_ns: u64,
    /// Wall nanoseconds from `args`.
    pub wall_ns: u64,
}

/// A parsed `--trace-out` document.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// Every non-metadata event, document order.
    pub events: Vec<ParsedEvent>,
    /// The numeric `otherData` entries (`dropped`, `events`, plus any
    /// extras the exporter attached such as `rmi_calls`).
    pub other: Vec<(String, u64)>,
}

impl ParsedTrace {
    /// Looks up one `otherData` entry.
    pub fn other(&self, key: &str) -> Option<u64> {
        self.other.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Rebuilds the span forest: each begin event paired with its end
    /// (by span id), linked to its parent through an id map. Spans are
    /// in begin-event document order; each span's children are in
    /// begin order, ties in document order.
    pub fn spans(&self) -> Vec<ParsedSpan<'_>> {
        let mut spans: Vec<ParsedSpan<'_>> = Vec::new();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for event in &self.events {
            match event.ph {
                'B' => {
                    by_id.insert(event.span, spans.len());
                    spans.push(ParsedSpan {
                        event,
                        end_ns: event.model_ns,
                        payload_bytes: event
                            .name
                            .rsplit_once("b=")
                            .and_then(|(_, n)| n.trim().parse().ok())
                            .unwrap_or(0),
                        parent: None,
                        children: Vec::new(),
                    });
                }
                'E' => {
                    if let Some(&i) = by_id.get(&event.span) {
                        spans[i].end_ns = spans[i].end_ns.max(event.model_ns);
                    }
                }
                _ => {}
            }
        }
        for i in 0..spans.len() {
            let parent = spans[i].event.parent;
            if let Some(&p) = by_id.get(&parent).filter(|_| parent != 0) {
                spans[i].parent = Some(p);
                spans[p].children.push(i);
            }
        }
        let begins: Vec<u64> = spans.iter().map(|s| s.event.model_ns).collect();
        for span in &mut spans {
            span.children.sort_by_key(|&k| begins[k]);
        }
        spans
    }
}

/// One span of a [`ParsedTrace`]: a begin event paired with its end.
#[derive(Debug, Clone)]
pub struct ParsedSpan<'a> {
    /// The begin event: name, category, lane, ids and begin time.
    pub event: &'a ParsedEvent,
    /// Model time of the matching end event (the begin time if none).
    pub end_ns: u64,
    /// Payload bytes from a `b=<n>` name suffix (serde spans), else 0.
    pub payload_bytes: u64,
    /// Index of the parent span, when its begin is in the trace.
    pub parent: Option<usize>,
    /// Indices of the child spans, in begin order.
    pub children: Vec<usize>,
}

impl ParsedSpan<'_> {
    /// Model-time duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.event.model_ns)
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
    let mut trace = ParsedTrace {
        events: Vec::with_capacity(events.len()),
        other: other.iter().filter_map(|(k, v)| Some((k.clone(), v.as_u64()?))).collect(),
    };
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).and_then(|s| s.chars().next());
        let ph = ph.unwrap_or('?');
        if ph == 'M' {
            continue;
        }
        if !matches!(ph, 'B' | 'E' | 'i') {
            return Err(format!("unknown event phase `{ph}`"));
        }
        let field = |path: &[&str]| event.at(path).and_then(Json::as_u64);
        let text = |key| event.get(key).and_then(Json::as_str).unwrap_or_default().to_owned();
        trace.events.push(ParsedEvent {
            ph,
            pid: field(&["pid"]).ok_or("event missing pid")?,
            tid: field(&["tid"]).ok_or("event missing tid")?,
            cat: text("cat"),
            name: text("name"),
            span: field(&["args", "span"]).unwrap_or(0),
            parent: field(&["args", "parent"]).unwrap_or(0),
            model_ns: field(&["args", "model_ns"]).ok_or("event missing model_ns")?,
            wall_ns: field(&["args", "wall_ns"]).unwrap_or(0),
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(capacity: usize) -> Arc<Tracer> {
        let tracer = Tracer::new();
        tracer.enable_with_capacity(capacity);
        tracer
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_name_closures() {
        let tracer = Tracer::new();
        let clock = || -> u64 { panic!("no clock is read while disabled") };
        let name = || -> String { panic!("name closure must not run while disabled") };
        assert!(tracer.start(Lane::Trusted, "rmi", None, clock, name).is_none());
        tracer.instant(Lane::Trusted, "sgx", None, clock, name);
        let begin = tracer.stamp(clock);
        assert!(begin.is_none());
        tracer.span_at(Lane::Trusted, "serde", None, begin, clock, name);
        assert_eq!(tracer.event_count(), 0);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn span_names_round_trip_through_escaping() {
        let tracer = enabled(8);
        let name = "say \"hi\" C:\\dir\nnext\u{1}end";
        tracer.instant(Lane::Trusted, "rmi", None, || 0, || name.into());
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.events[0].name, name);
    }

    #[test]
    fn spans_nest_and_export_balances() {
        let tracer = enabled(64);
        let root = tracer.start(Lane::Untrusted, "rmi", None, || 100, || "call".into()).unwrap();
        let child = tracer
            .start(Lane::Trusted, "sgx", Some(root.context()), || 200, || "ecall".into())
            .unwrap();
        assert_eq!(child.context().trace_id, root.context().trace_id);
        let root_ctx = root.context();
        tracer.finish(child, 300);
        tracer.finish(root, 400);

        let json = tracer.to_chrome_json(&[("rmi_calls", 1)]);
        let parsed = parse_chrome_trace(&json).unwrap();
        assert_eq!(parsed.events.len(), 4);
        assert_eq!(parsed.other("dropped"), Some(0));
        assert_eq!(parsed.other("rmi_calls"), Some(1));
        let begins: Vec<_> = parsed.events.iter().filter(|e| e.ph == 'B').collect();
        let ends = parsed.events.iter().filter(|e| e.ph == 'E').count();
        assert_eq!(begins.len(), 2);
        assert_eq!(ends, 2);
        let child_b = begins.iter().find(|e| e.cat == "sgx").unwrap();
        assert_eq!(child_b.parent, root_ctx.span_id);
        assert_eq!(child_b.tid, root_ctx.trace_id);
        assert_eq!(child_b.pid, Lane::Trusted.pid());
    }

    #[test]
    fn overflow_counts_drops_and_keeps_the_prefix_intact() {
        let tracer = enabled(8);
        let recorder = Recorder::new();
        tracer.attach_recorder(&recorder);
        let mut kept = Vec::new();
        for i in 0..20 {
            let span =
                tracer.start(Lane::Trusted, "rmi", None, || i, || format!("call{i}")).unwrap();
            kept.push(span.context());
            tracer.finish(span, i + 1);
        }
        assert_eq!(tracer.event_count(), 8);
        assert_eq!(tracer.dropped(), 32);
        assert_eq!(recorder.counter(Counter::TraceDropped), 32);
        // The captured prefix is the first four complete spans.
        let events = tracer.snapshot_events();
        assert_eq!(events.len(), 8);
        for pair in events.chunks(2) {
            assert_eq!(pair[0].phase, TracePhase::Begin);
            assert_eq!(pair[1].phase, TracePhase::End);
            assert_eq!(pair[0].span_id, pair[1].span_id);
        }
        // Export still parses and stays balanced.
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let b = parsed.events.iter().filter(|e| e.ph == 'B').count();
        let e = parsed.events.iter().filter(|e| e.ph == 'E').count();
        assert_eq!(b, e);
    }

    #[test]
    fn export_synthesizes_missing_ends_and_drops_orphan_ends() {
        let tracer = enabled(64);
        let abandoned =
            tracer.start(Lane::Untrusted, "rmi", None, || 10, || "abandoned".into()).unwrap();
        let _ = abandoned; // dropped without finish (simulates an error path)
                           // Hand-craft an orphan end by finishing a span twice worth of
                           // ends: start+finish, then push another end via span_at trick.
        let done = tracer.start(Lane::Untrusted, "rmi", None, || 20, || "done".into()).unwrap();
        tracer.finish(done, 30);
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let b = parsed.events.iter().filter(|e| e.ph == 'B').count();
        let e = parsed.events.iter().filter(|e| e.ph == 'E').count();
        assert_eq!(b, 2);
        assert_eq!(e, 2, "unfinished span must get a synthetic end");
    }

    #[test]
    fn span_at_records_explicit_interval() {
        let tracer = enabled(16);
        tracer.span_at(
            Lane::Trusted,
            "queue",
            None,
            Some(Stamp { model_ns: 50, wall_ns: 0 }),
            || 90,
            || "queue_wait".into(),
        );
        let events = tracer.snapshot_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].model_ns, 50);
        assert_eq!(events[1].model_ns, 90);
    }

    #[test]
    fn thread_local_context_nests_and_restores() {
        assert_eq!(current(), None);
        let outer = SpanContext { trace_id: 7, span_id: 1 };
        let inner = SpanContext { trace_id: 7, span_id: 2 };
        {
            let _a = set_current(outer);
            assert_eq!(current(), Some(outer));
            {
                let _b = set_current(inner);
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
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
    fn names_with_quotes_round_trip() {
        let tracer = enabled(16);
        let span = tracer
            .start(Lane::Trusted, "exec", None, || 1, || "weird \"name\"\\path".into())
            .unwrap();
        tracer.finish(span, 2);
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        assert_eq!(parsed.events[0].name, "weird \"name\"\\path");
    }

    #[test]
    fn push_is_cheap_under_concurrency() {
        let tracer = enabled(1024);
        let mut handles = Vec::new();
        for t in 0..4 {
            let tracer = Arc::clone(&tracer);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let span = tracer
                        .start(Lane::Untrusted, "rmi", None, || t * 1000 + i, || "c".into())
                        .unwrap();
                    tracer.finish(span, t * 1000 + i + 1);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(tracer.event_count(), 800);
        assert_eq!(tracer.dropped(), 0);
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        assert_eq!(parsed.events.len(), 800);
    }
}
