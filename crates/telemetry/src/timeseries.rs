//! Windowed time-series flight recorder.
//!
//! Aggregate snapshots answer *how much*; the [`trace`](crate::trace)
//! module answers *which call chain*; this module answers *when*. A
//! [`FlightRecorder`] samples one [`Recorder`] into a bounded ring of
//! fixed-width **model-time** windows: each window stores the
//! [`Snapshot::delta_since`] of the app's metrics over that window —
//! counter increments and histogram observations that happened inside
//! it, plus the gauge *levels* observed at its close. Windows with no
//! flow are elided (the gaps are implicit from `start_ns`/`end_ns`),
//! and when the ring is full further windows are discarded
//! fill-then-drop like the trace lanes, counted into
//! [`Counter::TimeseriesDropped`].
//!
//! The export is the versioned, line-oriented JSON document
//! [`SCHEMA`] (`montsalvat.timeseries/v1`, one window per line so
//! `jq`/grep and [`parse_timeseries`] both work), plus a
//! Prometheus-style text exposition for external scrapers
//! ([`Series::to_prometheus`]).
//!
//! On top of the windows sits the spike detector ([`detect_spikes`]):
//! it flags windows whose per-window latency quantile exceeds `k×`
//! the run median and attributes each spike to co-occurring GC,
//! EPC-paging, switchless-fallback, scale, or queue-pressure events
//! with a confidence note. `montsalvat timeline <export>` renders the
//! aligned timelines and the spike report (see `docs/TELEMETRY.md`).
//!
//! Knobs: `MONTSALVAT_TIMESERIES=0` disables windowed capture in the
//! traffic harness (default on there); `MONTSALVAT_TIMESERIES_WINDOW`
//! sets the window width in model nanoseconds (default
//! [`DEFAULT_WINDOW_NS`]).

use std::sync::Arc;

use crate::hist::nearest_rank;
use crate::{Counter, Gauge, Hist, Recorder, Snapshot};

/// Identifier of the JSON document emitted by [`Series::to_json`].
///
/// Versioned like the telemetry schema: field *additions* keep the
/// version; renames, removals, or unit changes bump it.
pub const SCHEMA: &str = "montsalvat.timeseries/v1";

/// Default window width: 1 ms of model time.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000;

/// Default ring capacity, in stored (active) windows.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Sizing read from the environment (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeseriesConfig {
    /// Whether windowed capture is enabled (`MONTSALVAT_TIMESERIES`,
    /// default true — the flag exists to switch the harness *off*).
    pub enabled: bool,
    /// Window width in model nanoseconds
    /// (`MONTSALVAT_TIMESERIES_WINDOW`, default [`DEFAULT_WINDOW_NS`]).
    pub window_ns: u64,
    /// Ring capacity in stored windows (default [`DEFAULT_CAPACITY`]).
    pub capacity: usize,
}

impl Default for TimeseriesConfig {
    fn default() -> Self {
        TimeseriesConfig { enabled: true, window_ns: DEFAULT_WINDOW_NS, capacity: DEFAULT_CAPACITY }
    }
}

impl TimeseriesConfig {
    /// Reads `MONTSALVAT_TIMESERIES` / `MONTSALVAT_TIMESERIES_WINDOW`,
    /// falling back to the defaults for anything unset or unparsable.
    pub fn from_env() -> TimeseriesConfig {
        let enabled = std::env::var("MONTSALVAT_TIMESERIES").map(|v| v != "0").unwrap_or(true);
        let window_ns = std::env::var("MONTSALVAT_TIMESERIES_WINDOW")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|n| n.max(1))
            .unwrap_or(DEFAULT_WINDOW_NS);
        TimeseriesConfig { enabled, window_ns, capacity: DEFAULT_CAPACITY }
    }
}

/// One sealed window: the metric activity in `[start_ns, end_ns)`.
#[derive(Debug, Clone)]
pub struct Window {
    /// Model-time start of the window (inclusive).
    pub start_ns: u64,
    /// Model-time end of the window (exclusive; the final window of a
    /// run may be partial and close at the finish time).
    pub end_ns: u64,
    /// Counter/histogram deltas over the window plus gauge levels at
    /// its close (see [`Snapshot::delta_since`]).
    pub delta: Snapshot,
}

/// Samples a [`Recorder`] into fixed-width model-time windows.
///
/// Single-owner by design: the driving loop (e.g. the traffic
/// harness) calls [`tick`](FlightRecorder::tick) with the current
/// model time as it advances, and [`finish`](FlightRecorder::finish)
/// once at the end. Because sealing takes a fresh snapshot, the sum
/// of all stored window deltas equals the recorder's end-of-run
/// aggregate exactly — unless windows were dropped, which
/// [`Series::dropped`] and [`Counter::TimeseriesDropped`] make loud.
#[derive(Debug)]
pub struct FlightRecorder {
    recorder: Arc<Recorder>,
    window_ns: u64,
    capacity: usize,
    window_start_ns: u64,
    prev: Snapshot,
    windows: Vec<Window>,
    dropped: u64,
}

impl FlightRecorder {
    /// Starts recording `recorder` with the given sizing. The first
    /// window opens at model time 0; anything already recorded is
    /// attributed to it, so create the flight recorder before the
    /// workload starts if exact reconciliation matters.
    pub fn new(recorder: Arc<Recorder>, config: TimeseriesConfig) -> FlightRecorder {
        let prev = recorder.snapshot();
        FlightRecorder {
            recorder,
            window_ns: config.window_ns.max(1),
            capacity: config.capacity.max(1),
            window_start_ns: 0,
            prev,
            windows: Vec::new(),
            dropped: 0,
        }
    }

    /// Advances model time to `now_ns`, sealing every window that
    /// ended at or before it. Activity recorded since the previous
    /// tick is attributed to the window that was open when it was
    /// recorded-to-the-recorder last — i.e. tick *before* recording an
    /// event that should land in the window containing `now_ns`.
    pub fn tick(&mut self, now_ns: u64) {
        while now_ns >= self.window_start_ns + self.window_ns {
            let end = self.window_start_ns + self.window_ns;
            self.seal(end);
            self.window_start_ns = end;
        }
    }

    /// Seals the residual partial window and returns the finished
    /// series. `now_ns` should be at or past the last tick.
    pub fn finish(mut self, now_ns: u64) -> Series {
        self.tick(now_ns);
        let end = now_ns.max(self.window_start_ns);
        self.seal(end);
        Series {
            window_ns: self.window_ns,
            capacity: self.capacity,
            dropped: self.dropped,
            windows: self.windows,
        }
    }

    fn seal(&mut self, end_ns: u64) {
        let snap = self.recorder.snapshot();
        let delta = snap.delta_since(&self.prev);
        self.prev = snap;
        if !delta.has_activity() {
            return;
        }
        if self.windows.len() >= self.capacity {
            self.dropped += 1;
            self.recorder.incr(Counter::TimeseriesDropped);
            // Fold the bookkeeping increment into the baseline so the
            // drop counter never shows up as next-window "activity" —
            // otherwise a full ring would seal (and drop) an endless
            // tail of windows containing only their own drop marker.
            self.prev.counters[Counter::TimeseriesDropped as usize] += 1;
            return;
        }
        self.windows.push(Window { start_ns: self.window_start_ns, end_ns, delta });
    }
}

/// A finished run of windows, ready for export.
#[derive(Debug, Clone)]
pub struct Series {
    /// Window width in model nanoseconds.
    pub window_ns: u64,
    /// Ring capacity the run was recorded with.
    pub capacity: usize,
    /// Windows discarded because the ring was full.
    pub dropped: u64,
    /// Stored windows, oldest first. Idle windows are elided; gaps
    /// are implicit from `start_ns`/`end_ns`.
    pub windows: Vec<Window>,
}

impl Series {
    /// Serialises the series as the versioned [`SCHEMA`] document.
    ///
    /// Line-oriented: one window object per line, so the document
    /// greps and diffs cleanly and [`parse_timeseries`] can stay a
    /// line parser. Only nonzero counters/gauges and non-empty
    /// histograms are listed. Histograms in deterministic units get
    /// `count`/`sum`/`p50`/`p95`/`p99`/`max`; `wall_ns` histograms
    /// export `count` only, because wall-clock durations differ
    /// run-to-run and the document is otherwise byte-identical for
    /// seeded runs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"window_ns\": {},\n", self.window_ns));
        out.push_str(&format!("  \"capacity\": {},\n", self.capacity));
        out.push_str(&format!("  \"dropped\": {},\n", self.dropped));
        out.push_str("  \"windows\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            let comma = if i + 1 == self.windows.len() { "" } else { "," };
            out.push_str(&format!("    {}{comma}\n", window_json(w)));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the series in the Prometheus text exposition format,
    /// one sample per window with the window-close model time (in
    /// milliseconds) as the sample timestamp. Counter families carry
    /// the conventional `_total` suffix and accumulate across
    /// windows; gauges report the per-window level; histograms export
    /// summary-style `quantile` samples (omitted, along with `_sum`,
    /// for nondeterministic `wall_ns` units) plus cumulative
    /// `_count`/`_sum`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            if self.windows.iter().all(|w| w.delta.counter(*c) == 0) {
                continue;
            }
            let name = format!("montsalvat_{}_total", mangle(c.metric_name()));
            out.push_str(&format!("# TYPE {name} counter\n"));
            let mut total = 0u64;
            for w in &self.windows {
                total += w.delta.counter(*c);
                out.push_str(&format!("{name} {total} {}\n", w.end_ns / 1_000_000));
            }
        }
        for g in Gauge::ALL {
            if self.windows.iter().all(|w| w.delta.gauge(*g) == 0) {
                continue;
            }
            let name = format!("montsalvat_{}", mangle(g.metric_name()));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            for w in &self.windows {
                out.push_str(&format!("{name} {} {}\n", w.delta.gauge(*g), w.end_ns / 1_000_000));
            }
        }
        for h in Hist::ALL {
            if self.windows.iter().all(|w| w.delta.hist(*h).is_empty()) {
                continue;
            }
            let name = format!("montsalvat_{}", mangle(h.metric_name()));
            let deterministic = h.unit() != "wall_ns";
            out.push_str(&format!("# TYPE {name} summary\n"));
            let (mut count, mut sum) = (0u64, 0u64);
            for w in &self.windows {
                let snap = w.delta.hist(*h);
                if snap.is_empty() {
                    continue;
                }
                let ts = w.end_ns / 1_000_000;
                if deterministic {
                    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{name}{{quantile=\"{label}\"}} {} {ts}\n",
                            snap.quantile(q)
                        ));
                    }
                }
                count += snap.count;
                sum = sum.wrapping_add(snap.sum);
                if deterministic {
                    out.push_str(&format!("{name}_sum {sum} {ts}\n"));
                }
                out.push_str(&format!("{name}_count {count} {ts}\n"));
            }
        }
        out
    }
}

fn mangle(metric: &str) -> String {
    metric.replace('.', "_")
}

fn window_json(w: &Window) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!("{{\"start_ns\":{},\"end_ns\":{}", w.start_ns, w.end_ns));
    let mut first = true;
    for c in Counter::ALL {
        let v = w.delta.counter(*c);
        if v == 0 {
            continue;
        }
        out.push_str(if first { ",\"counters\":{" } else { "," });
        first = false;
        out.push_str(&format!("\"{}\":{v}", c.metric_name()));
    }
    if !first {
        out.push('}');
    }
    first = true;
    for g in Gauge::ALL {
        let v = w.delta.gauge(*g);
        if v == 0 {
            continue;
        }
        out.push_str(if first { ",\"gauges\":{" } else { "," });
        first = false;
        out.push_str(&format!("\"{}\":{v}", g.metric_name()));
    }
    if !first {
        out.push('}');
    }
    first = true;
    for h in Hist::ALL {
        let snap = w.delta.hist(*h);
        if snap.is_empty() {
            continue;
        }
        out.push_str(if first { ",\"hists\":{" } else { "," });
        first = false;
        if h.unit() == "wall_ns" {
            // Wall-clock durations are nondeterministic; exporting
            // only the count keeps seeded documents byte-identical.
            out.push_str(&format!("\"{}\":{{\"count\":{}}}", h.metric_name(), snap.count));
        } else {
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                h.metric_name(),
                snap.count,
                snap.sum,
                snap.quantile(0.5),
                snap.quantile(0.95),
                snap.quantile(0.99),
                snap.quantile(1.0),
            ));
        }
    }
    if !first {
        out.push('}');
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Parsing (for `montsalvat timeline` and the ablation gates)
// ---------------------------------------------------------------------------

/// One window as read back from a [`SCHEMA`] document.
#[derive(Debug, Clone, Default)]
pub struct ParsedWindow {
    /// Model-time start of the window (inclusive).
    pub start_ns: u64,
    /// Model-time end of the window (exclusive).
    pub end_ns: u64,
    /// Nonzero counter deltas, by metric name.
    pub counters: Vec<(String, u64)>,
    /// Nonzero gauge levels at window close, by metric name.
    pub gauges: Vec<(String, u64)>,
    /// Non-empty histogram windows, by metric name.
    pub hists: Vec<(String, ParsedHist)>,
}

impl ParsedWindow {
    /// Looks up a counter delta by metric name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Looks up a gauge level by metric name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Looks up a histogram window by metric name.
    pub fn hist(&self, name: &str) -> Option<&ParsedHist> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// One histogram's per-window stats as read back from a document.
/// `sum` and the quantiles are absent for `wall_ns` histograms.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParsedHist {
    /// Observations in the window.
    pub count: u64,
    /// Sum of observed values (deterministic units only).
    pub sum: Option<u64>,
    /// Median observation (bucket upper bound).
    pub p50: Option<u64>,
    /// 95th-percentile observation (bucket upper bound).
    pub p95: Option<u64>,
    /// 99th-percentile observation (bucket upper bound).
    pub p99: Option<u64>,
    /// Largest observation (bucket upper bound).
    pub max: Option<u64>,
}

/// A [`SCHEMA`] document read back into memory.
#[derive(Debug, Clone, Default)]
pub struct ParsedSeries {
    /// Window width in model nanoseconds.
    pub window_ns: u64,
    /// Ring capacity the run was recorded with.
    pub capacity: u64,
    /// Windows discarded because the ring was full.
    pub dropped: u64,
    /// Stored windows, oldest first.
    pub windows: Vec<ParsedWindow>,
}

/// Parses a document produced by [`Series::to_json`]. Line-oriented
/// like `trace::parse_chrome_trace`: tolerant of unknown fields,
/// strict about the schema marker.
pub fn parse_timeseries(json: &str) -> Result<ParsedSeries, String> {
    if !json.contains(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    let mut series = ParsedSeries::default();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.starts_with("{\"start_ns\":") {
            series.windows.push(parse_window(line)?);
        } else if line.starts_with("\"window_ns\":") {
            series.window_ns = field_u64(line, "window_ns").unwrap_or(0);
        } else if line.starts_with("\"capacity\":") {
            series.capacity = field_u64(line, "capacity").unwrap_or(0);
        } else if line.starts_with("\"dropped\":") {
            series.dropped = field_u64(line, "dropped").unwrap_or(0);
        }
    }
    if series.window_ns == 0 {
        return Err("missing or zero window_ns".into());
    }
    Ok(series)
}

fn parse_window(line: &str) -> Result<ParsedWindow, String> {
    let mut w = ParsedWindow {
        start_ns: field_u64(line, "start_ns").ok_or("window missing start_ns")?,
        end_ns: field_u64(line, "end_ns").ok_or("window missing end_ns")?,
        ..ParsedWindow::default()
    };
    if let Some(body) = object_after(line, "counters") {
        for (key, value) in object_entries(body) {
            let v = value.parse::<u64>().map_err(|_| format!("bad counter value for {key}"))?;
            w.counters.push((key.to_owned(), v));
        }
    }
    if let Some(body) = object_after(line, "gauges") {
        for (key, value) in object_entries(body) {
            let v = value.parse::<u64>().map_err(|_| format!("bad gauge value for {key}"))?;
            w.gauges.push((key.to_owned(), v));
        }
    }
    if let Some(body) = object_after(line, "hists") {
        for (key, value) in object_entries(body) {
            let hist = ParsedHist {
                count: field_u64(value, "count").ok_or_else(|| format!("{key} missing count"))?,
                sum: field_u64(value, "sum"),
                p50: field_u64(value, "p50"),
                p95: field_u64(value, "p95"),
                p99: field_u64(value, "p99"),
                max: field_u64(value, "max"),
            };
            w.hists.push((key.to_owned(), hist));
        }
    }
    Ok(w)
}

/// Extracts the body of the `{...}` object following `"key":` —
/// brace-matched, so nested objects (histogram stats) survive.
fn object_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":{{");
    let start = line.find(&pat)? + pat.len();
    let bytes = line.as_bytes();
    let mut depth = 1usize;
    for (offset, &b) in bytes[start..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[start..start + offset]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits an object body into `(key, raw value)` pairs at top-level
/// commas. Keys are metric names (never contain quotes or braces).
fn object_entries(body: &str) -> Vec<(&str, &str)> {
    fn flush<'a>(body: &'a str, start: usize, end: usize, entries: &mut Vec<(&'a str, &'a str)>) {
        let item = body[start..end].trim();
        if item.is_empty() {
            return;
        }
        if let Some(colon) = item.find(':') {
            let key = item[..colon].trim().trim_matches('"');
            let value = item[colon + 1..].trim();
            entries.push((key, value));
        }
    }
    let mut entries = Vec::new();
    let (mut depth, mut item_start) = (0usize, 0usize);
    for (i, &b) in body.as_bytes().iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                flush(body, item_start, i, &mut entries);
                item_start = i + 1;
            }
            _ => {}
        }
    }
    flush(body, item_start, body.len(), &mut entries);
    entries
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

// ---------------------------------------------------------------------------
// Spike detection and attribution
// ---------------------------------------------------------------------------

/// The per-window facts the spike detector looks at — buildable from
/// both a live [`Window`] and a [`ParsedWindow`], so the CLI (which
/// reads exports) and the ablation bin (which holds the live series)
/// run the identical detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowView {
    /// Model-time start of the window.
    pub start_ns: u64,
    /// Model-time end of the window.
    pub end_ns: u64,
    /// Traffic requests completed in the window.
    pub requests: u64,
    /// Latency observations in the window.
    pub latency_count: u64,
    /// Per-window p95 request latency (bucket upper bound, model ns).
    pub latency_p95: u64,
    /// GC activity: collections plus recorded pauses.
    pub gc_events: u64,
    /// EPC page faults raised in the window.
    pub epc_faults: u64,
    /// Switchless posts that fell back to classic crossings.
    pub fallbacks: u64,
    /// Worker-pool churn: scale-ups/downs plus tuner decisions.
    pub scale_events: u64,
    /// Mailbox depth observed at window close.
    pub queue_depth: u64,
    /// Resident switchless workers at window close.
    pub workers: u64,
}

impl WindowView {
    /// Projects a live window.
    pub fn from_window(w: &Window) -> WindowView {
        let d = &w.delta;
        WindowView {
            start_ns: w.start_ns,
            end_ns: w.end_ns,
            requests: d.counter(Counter::TrafficRequests),
            latency_count: d.hist(Hist::TrafficLatencyNs).count,
            latency_p95: d.hist(Hist::TrafficLatencyNs).quantile(0.95),
            gc_events: d.counter(Counter::GcCollections) + d.hist(Hist::GcPauseNs).count,
            epc_faults: d.counter(Counter::EpcFaults),
            fallbacks: d.counter(Counter::SwitchlessFallbacks),
            scale_events: d.counter(Counter::SwitchlessScaleUps)
                + d.counter(Counter::SwitchlessScaleDowns)
                + d.counter(Counter::SwitchlessTuneUps)
                + d.counter(Counter::SwitchlessTuneDowns),
            queue_depth: d.gauge(Gauge::SwitchlessQueueDepth),
            workers: d.gauge(Gauge::SwitchlessWorkers),
        }
    }

    /// Projects a window read back from an export.
    pub fn from_parsed(w: &ParsedWindow) -> WindowView {
        let latency = w.hist("traffic.request_latency_ns");
        WindowView {
            start_ns: w.start_ns,
            end_ns: w.end_ns,
            requests: w.counter("traffic.requests"),
            latency_count: latency.map(|h| h.count).unwrap_or(0),
            latency_p95: latency.and_then(|h| h.p95).unwrap_or(0),
            gc_events: w.counter("gc.collections")
                + w.hist("gc.pause_ns").map(|h| h.count).unwrap_or(0),
            epc_faults: w.counter("sgx.epc_faults"),
            fallbacks: w.counter("rmi.switchless_fallbacks"),
            scale_events: w.counter("rmi.switchless_scale_ups")
                + w.counter("rmi.switchless_scale_downs")
                + w.counter("rmi.switchless_tune_ups")
                + w.counter("rmi.switchless_tune_downs"),
            queue_depth: w.gauge("rmi.switchless_queue_depth"),
            workers: w.gauge("rmi.switchless_workers"),
        }
    }
}

/// How strongly a co-occurrence implicates a cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// Circumstantial: the pattern is consistent with the cause but
    /// common in healthy windows too.
    Low,
    /// The cause was active in the window and plausibly on the
    /// latency path.
    Medium,
    /// The cause is rare, co-located, and directly charges latency.
    High,
}

impl Confidence {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Confidence::High => "high",
            Confidence::Medium => "medium",
            Confidence::Low => "low",
        }
    }
}

/// One candidate cause for a spike.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Stable cause tag: `gc`, `epc-paging`, `switchless-fallback`,
    /// `scale`, `queue-pressure`, `arrival-burst`, or `unattributed`.
    pub cause: &'static str,
    /// Human-readable co-occurrence evidence.
    pub evidence: String,
    /// Confidence note for the attribution.
    pub confidence: Confidence,
}

/// One flagged window.
#[derive(Debug, Clone)]
pub struct Spike {
    /// Index into the view slice handed to [`detect_spikes`].
    pub window_index: usize,
    /// Model-time start of the flagged window.
    pub start_ns: u64,
    /// Model-time end of the flagged window.
    pub end_ns: u64,
    /// The window's p95 latency that tripped the threshold.
    pub latency_p95: u64,
    /// Candidate causes, strongest first.
    pub causes: Vec<Attribution>,
}

/// Detector output: the baseline, the threshold, and the spikes.
#[derive(Debug, Clone, Default)]
pub struct SpikeReport {
    /// Median per-window p95 over windows with latency observations.
    pub median_p95: u64,
    /// Flagging threshold: `max(k × median, median + 1)`.
    pub threshold: u64,
    /// Windows with latency observations (the detector's sample size;
    /// fewer than [`MIN_ACTIVE_WINDOWS`] yields an empty report).
    pub active_windows: usize,
    /// Flagged windows, oldest first.
    pub spikes: Vec<Spike>,
}

/// Minimum number of latency-bearing windows before the median is
/// meaningful enough to flag anything.
pub const MIN_ACTIVE_WINDOWS: usize = 3;

/// Default spike multiplier `k`.
pub const DEFAULT_SPIKE_FACTOR: f64 = 4.0;

/// Flags windows whose p95 latency exceeds `k×` the run median (over
/// latency-bearing windows) and attributes each to co-occurring
/// events. Pure and deterministic: same views and `k` → same report.
pub fn detect_spikes(views: &[WindowView], k: f64) -> SpikeReport {
    let active: Vec<usize> = (0..views.len()).filter(|&i| views[i].latency_count > 0).collect();
    let mut report = SpikeReport { active_windows: active.len(), ..SpikeReport::default() };
    if active.len() < MIN_ACTIVE_WINDOWS {
        return report;
    }
    let mut p95s: Vec<u64> = active.iter().map(|&i| views[i].latency_p95).collect();
    p95s.sort_unstable();
    report.median_p95 = p95s[nearest_rank(p95s.len() as u64, 0.5) as usize - 1];
    let k = if k.is_finite() && k > 1.0 { k } else { DEFAULT_SPIKE_FACTOR };
    report.threshold = ((report.median_p95 as f64 * k) as u64).max(report.median_p95 + 1);

    let median_of = |f: fn(&WindowView) -> u64| -> u64 {
        let mut vals: Vec<u64> = active.iter().map(|&i| f(&views[i])).collect();
        vals.sort_unstable();
        vals[nearest_rank(vals.len() as u64, 0.5) as usize - 1]
    };
    let median_faults = median_of(|v| v.epc_faults);
    let median_queue = median_of(|v| v.queue_depth);
    let median_requests = median_of(|v| v.requests);

    for &i in &active {
        let v = &views[i];
        if v.latency_p95 < report.threshold {
            continue;
        }
        let causes = attribute(v, median_faults, median_queue, median_requests);
        report.spikes.push(Spike {
            window_index: i,
            start_ns: v.start_ns,
            end_ns: v.end_ns,
            latency_p95: v.latency_p95,
            causes,
        });
    }
    report
}

fn attribute(
    v: &WindowView,
    median_faults: u64,
    median_queue: u64,
    median_requests: u64,
) -> Vec<Attribution> {
    let mut causes = Vec::new();
    if v.gc_events > 0 {
        causes.push(Attribution {
            cause: "gc",
            evidence: format!("{} GC event(s) in the window", v.gc_events),
            confidence: Confidence::High,
        });
    }
    if v.epc_faults > 0 && v.epc_faults >= 2 * median_faults.max(1) {
        causes.push(Attribution {
            cause: "epc-paging",
            evidence: format!("{} EPC faults vs run median {median_faults}", v.epc_faults),
            confidence: if median_faults == 0 { Confidence::High } else { Confidence::Medium },
        });
    }
    if v.fallbacks > 0 {
        causes.push(Attribution {
            cause: "switchless-fallback",
            evidence: format!("{} classic fallback(s) under full mailbox", v.fallbacks),
            confidence: Confidence::Medium,
        });
    }
    if v.scale_events > 0 {
        causes.push(Attribution {
            cause: "scale",
            evidence: format!("{} worker scale/tune event(s)", v.scale_events),
            confidence: Confidence::Medium,
        });
    }
    if v.queue_depth > 0 && v.queue_depth >= 2 * median_queue.max(1) {
        causes.push(Attribution {
            cause: "queue-pressure",
            evidence: format!("mailbox depth {} vs run median {median_queue}", v.queue_depth),
            confidence: Confidence::Medium,
        });
    }
    if v.requests >= 2 * median_requests.max(1) {
        causes.push(Attribution {
            cause: "arrival-burst",
            evidence: format!("{} requests vs run median {median_requests}", v.requests),
            confidence: Confidence::Low,
        });
    }
    if causes.is_empty() {
        causes.push(Attribution {
            cause: "unattributed",
            evidence: "no co-occurring GC/paging/fallback/scale/queue events".into(),
            confidence: Confidence::Low,
        });
    }
    causes.sort_by_key(|c| std::cmp::Reverse(c.confidence));
    causes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_and_flight(window_ns: u64, capacity: usize) -> (Arc<Recorder>, FlightRecorder) {
        let recorder = Recorder::new();
        let flight = FlightRecorder::new(
            Arc::clone(&recorder),
            TimeseriesConfig { enabled: true, window_ns, capacity },
        );
        (recorder, flight)
    }

    #[test]
    fn windows_partition_activity_and_reconcile() {
        let (recorder, mut flight) = recorder_and_flight(1000, 64);
        recorder.add(Counter::RmiCalls, 3);
        recorder.record(Hist::TrafficLatencyNs, 500);
        flight.tick(1000); // seals [0, 1000) with the 3 calls
        recorder.add(Counter::RmiCalls, 4);
        flight.tick(3500); // seals [1000, 2000) with 4; [2000, 3000) idle
        recorder.incr(Counter::RmiCalls);
        let series = flight.finish(3600); // partial [3000, 3600) with 1

        assert_eq!(series.windows.len(), 3, "idle window elided");
        assert_eq!(series.windows[0].start_ns, 0);
        assert_eq!(series.windows[0].end_ns, 1000);
        assert_eq!(series.windows[0].delta.counter(Counter::RmiCalls), 3);
        assert_eq!(series.windows[0].delta.hist(Hist::TrafficLatencyNs).count, 1);
        assert_eq!(series.windows[1].delta.counter(Counter::RmiCalls), 4);
        assert_eq!(series.windows[2].start_ns, 3000);
        assert_eq!(series.windows[2].end_ns, 3600);
        assert_eq!(series.windows[2].delta.counter(Counter::RmiCalls), 1);

        let window_sum: u64 =
            series.windows.iter().map(|w| w.delta.counter(Counter::RmiCalls)).sum();
        assert_eq!(window_sum, recorder.snapshot().counter(Counter::RmiCalls));
    }

    #[test]
    fn gauges_report_the_level_at_window_close() {
        let (recorder, mut flight) = recorder_and_flight(1000, 64);
        recorder.gauge_set(Gauge::SwitchlessQueueDepth, 7);
        recorder.incr(Counter::RmiCalls);
        flight.tick(1000);
        recorder.gauge_set(Gauge::SwitchlessQueueDepth, 2);
        recorder.incr(Counter::RmiCalls);
        let series = flight.finish(1500);
        assert_eq!(series.windows[0].delta.gauge(Gauge::SwitchlessQueueDepth), 7);
        assert_eq!(series.windows[1].delta.gauge(Gauge::SwitchlessQueueDepth), 2);
    }

    #[test]
    fn ring_fills_then_drops_and_counts() {
        let (recorder, mut flight) = recorder_and_flight(100, 2);
        for window in 0..4u64 {
            recorder.incr(Counter::RmiCalls);
            flight.tick((window + 1) * 100);
        }
        let series = flight.finish(400);
        assert_eq!(series.windows.len(), 2, "ring capacity");
        assert_eq!(series.dropped, 2);
        assert_eq!(recorder.snapshot().counter(Counter::TimeseriesDropped), 2);
        assert_eq!(series.windows[0].start_ns, 0, "fill-then-drop keeps the oldest");
    }

    #[test]
    fn export_parses_back_losslessly() {
        let (recorder, mut flight) = recorder_and_flight(1000, 64);
        recorder.add(Counter::RmiCalls, 5);
        recorder.add(Counter::TrafficRequests, 5);
        recorder.gauge_set(Gauge::SwitchlessWorkers, 2);
        for latency in [300u64, 400, 500, 6000, 900] {
            recorder.record(Hist::TrafficLatencyNs, latency);
        }
        recorder.record(Hist::GcPauseNs, 123_456); // wall_ns: count-only
        flight.tick(1000);
        recorder.incr(Counter::RmiCalls);
        let series = flight.finish(1250);
        let json = series.to_json();

        let parsed = parse_timeseries(&json).expect("parses");
        assert_eq!(parsed.window_ns, 1000);
        assert_eq!(parsed.dropped, 0);
        assert_eq!(parsed.windows.len(), 2);
        let w0 = &parsed.windows[0];
        assert_eq!(w0.counter("rmi.calls"), 5);
        assert_eq!(w0.counter("traffic.requests"), 5);
        assert_eq!(w0.gauge("rmi.switchless_workers"), 2);
        let latency = w0.hist("traffic.request_latency_ns").expect("latency hist");
        assert_eq!(latency.count, 5);
        assert_eq!(latency.sum, Some(300 + 400 + 500 + 6000 + 900));
        assert_eq!(latency.p95, Some(8192), "p95 is 6000's bucket upper bound");
        let pause = w0.hist("gc.pause_ns").expect("pause hist");
        assert_eq!(pause.count, 1);
        assert_eq!(pause.sum, None, "wall_ns exports count only");
        assert_eq!(parsed.windows[1].counter("rmi.calls"), 1);
    }

    #[test]
    fn prometheus_exposition_accumulates_counters() {
        let (recorder, mut flight) = recorder_and_flight(1_000_000, 64);
        recorder.add(Counter::RmiCalls, 3);
        recorder.record(Hist::TrafficLatencyNs, 700);
        flight.tick(1_000_000);
        recorder.add(Counter::RmiCalls, 2);
        let series = flight.finish(2_000_000);
        let text = series.to_prometheus();
        assert!(text.contains("# TYPE montsalvat_rmi_calls_total counter"));
        assert!(text.contains("montsalvat_rmi_calls_total 3 1\n"));
        assert!(text.contains("montsalvat_rmi_calls_total 5 2\n"), "cumulative:\n{text}");
        assert!(text.contains("montsalvat_traffic_request_latency_ns{quantile=\"0.95\"}"));
        assert!(!text.contains("montsalvat_gc_pause_ns{"), "no samples for empty families");
    }

    #[test]
    fn detector_flags_and_attributes_a_gc_spike() {
        let mut views: Vec<WindowView> = (0..8)
            .map(|i| WindowView {
                start_ns: i * 1000,
                end_ns: (i + 1) * 1000,
                requests: 10,
                latency_count: 10,
                latency_p95: 4096,
                ..WindowView::default()
            })
            .collect();
        views[5].latency_p95 = 1 << 22; // way past 4× the median
        views[5].gc_events = 1;
        let report = detect_spikes(&views, DEFAULT_SPIKE_FACTOR);
        assert_eq!(report.median_p95, 4096);
        assert_eq!(report.spikes.len(), 1);
        let spike = &report.spikes[0];
        assert_eq!(spike.window_index, 5);
        assert_eq!(spike.causes[0].cause, "gc");
        assert_eq!(spike.causes[0].confidence, Confidence::High);
    }

    #[test]
    fn detector_needs_enough_active_windows() {
        let views = vec![
            WindowView { latency_count: 5, latency_p95: 100, ..WindowView::default() },
            WindowView { latency_count: 5, latency_p95: 1 << 30, ..WindowView::default() },
        ];
        let report = detect_spikes(&views, 4.0);
        assert!(report.spikes.is_empty());
        assert_eq!(report.active_windows, 2);
    }

    #[test]
    fn unattributed_spikes_say_so() {
        let mut views: Vec<WindowView> = (0..5)
            .map(|_| WindowView { latency_count: 4, latency_p95: 512, ..WindowView::default() })
            .collect();
        views[2].latency_p95 = 1 << 20;
        let report = detect_spikes(&views, 4.0);
        assert_eq!(report.spikes.len(), 1);
        assert_eq!(report.spikes[0].causes.len(), 1);
        assert_eq!(report.spikes[0].causes[0].cause, "unattributed");
        assert_eq!(report.spikes[0].causes[0].confidence, Confidence::Low);
    }

    #[test]
    fn parsed_and_live_views_agree() {
        let (recorder, flight) = recorder_and_flight(1000, 64);
        recorder.add(Counter::TrafficRequests, 4);
        recorder.incr(Counter::GcCollections);
        recorder.incr(Counter::SwitchlessFallbacks);
        recorder.gauge_set(Gauge::SwitchlessQueueDepth, 3);
        recorder.gauge_set(Gauge::SwitchlessWorkers, 2);
        for latency in [200u64, 300, 400, 50_000] {
            recorder.record(Hist::TrafficLatencyNs, latency);
        }
        let series = flight.finish(1000);
        let live = WindowView::from_window(&series.windows[0]);
        let parsed = parse_timeseries(&series.to_json()).unwrap();
        let round = WindowView::from_parsed(&parsed.windows[0]);
        assert_eq!(live.requests, round.requests);
        assert_eq!(live.latency_count, round.latency_count);
        assert_eq!(live.latency_p95, round.latency_p95);
        assert_eq!(live.gc_events, round.gc_events);
        assert_eq!(live.fallbacks, round.fallbacks);
        assert_eq!(live.queue_depth, round.queue_depth);
        assert_eq!(live.workers, round.workers);
    }

    /// A window whose mailbox depth is at least twice the run median
    /// is attributed `queue-pressure`.
    #[test]
    fn detector_names_queue_pressure_from_mailbox_depth() {
        let mut views: Vec<WindowView> = (0..8)
            .map(|i| WindowView {
                start_ns: i * 1000,
                end_ns: (i + 1) * 1000,
                requests: 10,
                latency_count: 10,
                latency_p95: 4096,
                queue_depth: 2,
                ..WindowView::default()
            })
            .collect();
        views[6].latency_p95 = 1 << 22;
        views[6].queue_depth = 16;

        let report = detect_spikes(&views, DEFAULT_SPIKE_FACTOR);
        assert_eq!(report.spikes.len(), 1);
        let deep = &report.spikes[0];
        assert_eq!(deep.window_index, 6);
        assert_eq!(deep.causes[0].cause, "queue-pressure");
        assert_eq!(deep.causes[0].confidence, Confidence::Medium);
        assert!(
            deep.causes[0].evidence.contains("mailbox depth 16 vs run median 2"),
            "evidence names the depth: {}",
            deep.causes[0].evidence
        );
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = TimeseriesConfig::default();
        assert!(config.enabled);
        assert_eq!(config.window_ns, DEFAULT_WINDOW_NS);
        assert_eq!(config.capacity, DEFAULT_CAPACITY);
    }
}
