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
//! The export is the versioned JSON document [`SCHEMA`]
//! (`montsalvat.timeseries/v1`, one window per line so grep and diff
//! work; [`parse_timeseries`] reads any layout), plus a
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
//! Knob: `MONTSALVAT_TIMESERIES_WINDOW` sets the window width in model
//! nanoseconds (default [`DEFAULT_WINDOW_NS`]). Every traffic lane
//! records its series.

use std::sync::Arc;

use crate::hist::nearest_rank;
use crate::json::Json;
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
    /// Window width in model nanoseconds
    /// (`MONTSALVAT_TIMESERIES_WINDOW`, default [`DEFAULT_WINDOW_NS`]).
    pub window_ns: u64,
    /// Ring capacity in stored windows (default [`DEFAULT_CAPACITY`]).
    pub capacity: usize,
}

impl Default for TimeseriesConfig {
    fn default() -> Self {
        TimeseriesConfig { window_ns: DEFAULT_WINDOW_NS, capacity: DEFAULT_CAPACITY }
    }
}

impl TimeseriesConfig {
    /// Reads `MONTSALVAT_TIMESERIES_WINDOW`, falling back to the
    /// default for anything unset or unparsable.
    pub fn from_env() -> TimeseriesConfig {
        let window_ns = std::env::var("MONTSALVAT_TIMESERIES_WINDOW")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|n| n.max(1))
            .unwrap_or(DEFAULT_WINDOW_NS);
        TimeseriesConfig { window_ns, capacity: DEFAULT_CAPACITY }
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
    /// One window object per line, so the document greps and diffs
    /// cleanly. Only nonzero counters/gauges and non-empty histograms
    /// are listed. Histograms in deterministic units get
    /// `count`/`sum`/`p50`/`p95`/`p99`/`max`; `wall_ns` histograms
    /// export `count` only, because wall-clock durations differ
    /// run-to-run and the document is otherwise byte-identical for
    /// seeded runs.
    pub fn to_json(&self) -> String {
        Json::obj()
            .with("schema", SCHEMA)
            .with("window_ns", self.window_ns)
            .with("capacity", self.capacity)
            .with("dropped", self.dropped)
            .with("windows", self.windows.iter().map(Window::json).collect::<Vec<_>>())
            .to_pretty()
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

impl Window {
    /// The window's object in a [`SCHEMA`] document (see
    /// [`Series::to_json`]).
    fn json(&self) -> Json {
        let d = &self.delta;
        let named = |name: &str, value: Json| (name.to_owned(), value);
        let counters: Vec<_> = Counter::ALL
            .iter()
            .filter(|&&c| d.counter(c) != 0)
            .map(|&c| named(c.metric_name(), d.counter(c).into()))
            .collect();
        let gauges: Vec<_> = Gauge::ALL
            .iter()
            .filter(|&&g| d.gauge(g) != 0)
            .map(|&g| named(g.metric_name(), d.gauge(g).into()))
            .collect();
        let hists: Vec<_> = Hist::ALL
            .iter()
            .filter(|&&h| !d.hist(h).is_empty())
            .map(|&h| {
                let snap = d.hist(h);
                let stats = Json::obj().with("count", snap.count);
                // Wall-clock durations are nondeterministic; exporting
                // only the count keeps seeded documents byte-identical.
                if h.unit() == "wall_ns" {
                    return named(h.metric_name(), stats);
                }
                let stats = stats
                    .with("sum", snap.sum)
                    .with("p50", snap.quantile(0.5))
                    .with("p95", snap.quantile(0.95))
                    .with("p99", snap.quantile(0.99))
                    .with("max", snap.quantile(1.0));
                named(h.metric_name(), stats)
            })
            .collect();
        let mut doc = Json::obj().with("start_ns", self.start_ns).with("end_ns", self.end_ns);
        for (key, group) in [("counters", counters), ("gauges", gauges), ("hists", hists)] {
            if !group.is_empty() {
                doc.push(key, Json::Obj(group));
            }
        }
        doc
    }
}

// ---------------------------------------------------------------------------
// Parsing (for `montsalvat timeline` and the ablation gates)
// ---------------------------------------------------------------------------

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
    pub windows: Vec<WindowView>,
}

/// Parses a document produced by [`Series::to_json`], in any layout
/// (it goes through [`Json::parse`]): tolerant of unknown fields,
/// strict about the schema marker.
pub fn parse_timeseries(json: &str) -> Result<ParsedSeries, String> {
    let doc = Json::parse(json)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    let number = |key| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let window_ns = number("window_ns");
    if window_ns == 0 {
        return Err("missing or zero window_ns".into());
    }
    let windows = doc.get("windows").and_then(Json::as_arr).unwrap_or_default();
    Ok(ParsedSeries {
        window_ns,
        capacity: number("capacity"),
        dropped: number("dropped"),
        windows: windows.iter().map(WindowView::from_json).collect::<Result<_, _>>()?,
    })
}

// ---------------------------------------------------------------------------
// Spike detection and attribution
// ---------------------------------------------------------------------------

/// The per-window facts the spike detector looks at — buildable from
/// both a live [`Window`] and a window of an export, so the CLI (which
/// reads exports) and the ablation bin (which holds the live series)
/// run the identical detector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Worker-pool churn: scale-ups plus scale-downs.
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
                + d.counter(Counter::SwitchlessScaleDowns),
            queue_depth: d.gauge(Gauge::SwitchlessQueueDepth),
            workers: d.gauge(Gauge::SwitchlessWorkers),
        }
    }

    /// Projects a window object read back from a [`SCHEMA`] export.
    pub fn from_json(w: &Json) -> Result<WindowView, String> {
        let field = |path: &[&str]| w.at(path).and_then(Json::as_u64);
        let counter = |c: Counter| field(&["counters", c.metric_name()]).unwrap_or(0);
        let gauge = |g: Gauge| field(&["gauges", g.metric_name()]).unwrap_or(0);
        let hist = |h: Hist, stat| field(&["hists", h.metric_name(), stat]).unwrap_or(0);
        Ok(WindowView {
            start_ns: field(&["start_ns"]).ok_or("window missing start_ns")?,
            end_ns: field(&["end_ns"]).ok_or("window missing end_ns")?,
            requests: counter(Counter::TrafficRequests),
            latency_count: hist(Hist::TrafficLatencyNs, "count"),
            latency_p95: hist(Hist::TrafficLatencyNs, "p95"),
            gc_events: counter(Counter::GcCollections) + hist(Hist::GcPauseNs, "count"),
            epc_faults: counter(Counter::EpcFaults),
            fallbacks: counter(Counter::SwitchlessFallbacks),
            scale_events: counter(Counter::SwitchlessScaleUps)
                + counter(Counter::SwitchlessScaleDowns),
            queue_depth: gauge(Gauge::SwitchlessQueueDepth),
            workers: gauge(Gauge::SwitchlessWorkers),
        })
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
            evidence: format!("{} worker scale event(s)", v.scale_events),
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
        let flight =
            FlightRecorder::new(Arc::clone(&recorder), TimeseriesConfig { window_ns, capacity });
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
        let doc = Json::parse(&series.to_json()).expect("parses");

        let field = |path: &[&str]| doc.at(path).and_then(Json::as_u64);
        assert_eq!(field(&["window_ns"]), Some(1000));
        assert_eq!(field(&["dropped"]), Some(0));
        let windows = doc.get("windows").and_then(Json::as_arr).expect("windows");
        assert_eq!(windows.len(), 2);
        let w0 = |path: &[&str]| windows[0].at(path).and_then(Json::as_u64);
        assert_eq!(w0(&["counters", "rmi.calls"]), Some(5));
        assert_eq!(w0(&["counters", "traffic.requests"]), Some(5));
        assert_eq!(w0(&["gauges", "rmi.switchless_workers"]), Some(2));
        let latency = |stat| w0(&["hists", "traffic.request_latency_ns", stat]);
        assert_eq!(latency("count"), Some(5));
        assert_eq!(latency("sum"), Some(300 + 400 + 500 + 6000 + 900));
        assert_eq!(latency("p95"), Some(8192), "p95 is 6000's bucket upper bound");
        assert_eq!(w0(&["hists", "gc.pause_ns", "count"]), Some(1));
        assert_eq!(w0(&["hists", "gc.pause_ns", "sum"]), None, "wall_ns exports count only");
        assert_eq!(windows[1].at(&["counters", "rmi.calls"]).and_then(Json::as_u64), Some(1));
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
        assert_eq!(parsed.windows, vec![live]);
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
        assert_eq!(config.window_ns, DEFAULT_WINDOW_NS);
        assert_eq!(config.capacity, DEFAULT_CAPACITY);
    }
}
