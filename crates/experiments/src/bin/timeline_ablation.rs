//! Flight-recorder ablation: prove a seeded stall produces a
//! detected, correctly-attributed latency spike.
//!
//! Runs the deterministic `sim-sgx-classic` traffic lane twice over
//! the identical seed-pinned schedule: once **with** a synthetic GC
//! stall injected into one mid-run request
//! (`TrafficConfig::inject_gc`), once **without** (the control). The
//! injected run must yield at least one spike window whose
//! attribution names `gc`; the control must yield none — that is the
//! ablation: the detector fires on the event we planted and only on
//! it. Both runs also gate window-sum reconciliation: per-window
//! `rmi.calls` and `traffic.requests` deltas must sum exactly to the
//! lane's end-of-run aggregate, and the injected lane's
//! `montsalvat.timeseries/v1` export must be byte-identical across two
//! runs of the same seed.
//!
//! Flags: `--quick` (CI scale), `--json-out <path>` (the
//! `montsalvat.timeline-ablation/v1` report), `--timeseries-out
//! <path>` (the injected lane's timeseries export), `--prom-out
//! <path>` (Prometheus text exposition of the same series).
//!
//! The process exits non-zero if any assertion fails, so CI needs no
//! jq to get the safety — the jq gates in bench-smoke just make the
//! numbers visible in the job log.

use experiments::report::{arg_value, Scale};
use experiments::traffic::{lanes, run_lane, GcInjection, LaneResult, TrafficConfig};
use telemetry::json::Json;
use telemetry::timeseries::{detect_spikes, SpikeReport, WindowView, DEFAULT_SPIKE_FACTOR};
use telemetry::Counter;

/// Schema identifier of the emitted report.
const ABLATION_SCHEMA: &str = "montsalvat.timeline-ablation/v1";

/// The synthetic stall: ~2.5 ms of model time, two orders of
/// magnitude above the lane's typical per-request service cost.
const INJECTED_PAUSE_NS: u64 = 2_500_000;

struct RunOutcome {
    lane: LaneResult,
    report: SpikeReport,
}

fn run(cfg: &TrafficConfig) -> RunOutcome {
    let lane = run_lane(lanes()[0], cfg).expect("classic lane runs");
    let views: Vec<WindowView> =
        lane.timeseries.windows.iter().map(WindowView::from_window).collect();
    let report = detect_spikes(&views, DEFAULT_SPIKE_FACTOR);
    RunOutcome { lane, report }
}

fn gc_attributed(report: &SpikeReport) -> usize {
    report.spikes.iter().filter(|s| s.causes.iter().any(|c| c.cause == "gc")).count()
}

struct Reconciliation {
    metric: &'static str,
    window_sum: u64,
    aggregate: u64,
}

fn reconcile(outcome: &RunOutcome, counter: Counter, metric: &'static str) -> Reconciliation {
    Reconciliation {
        metric,
        window_sum: outcome.lane.timeseries.windows.iter().map(|w| w.delta.counter(counter)).sum(),
        aggregate: outcome.lane.snap.counter(counter),
    }
}

fn report_json(
    scale_name: &str,
    injection: GcInjection,
    injected: &RunOutcome,
    control: &RunOutcome,
    recs: &[Reconciliation],
) -> String {
    let mut reconciliation = Json::obj();
    for r in recs {
        let rec = Json::obj()
            .with("window_sum", r.window_sum)
            .with("aggregate", r.aggregate)
            .with("equal", r.window_sum == r.aggregate);
        reconciliation.push(r.metric, rec);
    }
    let detail = injected.report.spikes.iter().map(|spike| {
        let causes = spike.causes.iter().map(|c| {
            Json::obj()
                .with("cause", c.cause)
                .with("confidence", c.confidence.label())
                .with("evidence", c.evidence.as_str())
        });
        Json::obj()
            .with("start_ns", spike.start_ns)
            .with("end_ns", spike.end_ns)
            .with("p95_ns", spike.latency_p95)
            .with("causes", causes.collect::<Vec<_>>())
    });
    let spikes = Json::obj()
        .with("median_p95_ns", injected.report.median_p95)
        .with("threshold_ns", injected.report.threshold)
        .with("active_windows", injected.report.active_windows)
        .with("count", injected.report.spikes.len())
        .with("gc_attributed", gc_attributed(&injected.report))
        .with("detail", detail.collect::<Vec<_>>());
    let series = &injected.lane.timeseries;
    Json::obj()
        .with("schema", ABLATION_SCHEMA)
        .with("scale", scale_name)
        .with(
            "injection",
            Json::obj()
                .with("at_request", injection.at_request)
                .with("pause_ns", injection.pause_ns),
        )
        .with("window_ns", series.window_ns)
        .with("windows", series.windows.len())
        .with("dropped", series.dropped)
        .with("reconciliation", reconciliation)
        .with("spikes", spikes)
        .with(
            "control",
            Json::obj()
                .with("count", control.report.spikes.len())
                .with("gc_attributed", gc_attributed(&control.report)),
        )
        .to_pretty()
}

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let base = TrafficConfig::for_scale(scale);
    // Mid-run, inside a calm phase, so the spike is the stall and not
    // an arrival burst.
    let injection = GcInjection { at_request: base.requests / 2, pause_ns: INJECTED_PAUSE_NS };
    let injected_cfg = TrafficConfig { inject_gc: Some(injection), ..base.clone() };

    println!(
        "timeline ablation: {} requests, GC stall of {} ns injected at request {}",
        base.requests, injection.pause_ns, injection.at_request
    );

    // Warm the process-wide serde buffer pools first: the very first
    // run in a process takes a few unpooled allocations
    // (`serde.pooled_bytes` differs), so byte-identical exports only
    // hold between steady-state runs.
    let _ = run(&base);

    let injected = run(&injected_cfg);
    let control = run(&base);

    // Determinism: same seed, same config → byte-identical export.
    let replay = run(&injected_cfg);
    assert_eq!(
        injected.lane.timeseries.to_json(),
        replay.lane.timeseries.to_json(),
        "seeded runs must export byte-identical montsalvat.timeseries/v1 documents"
    );

    // Window-sum reconciliation on the deterministic lane.
    let recs = [
        reconcile(&injected, Counter::RmiCalls, "rmi.calls"),
        reconcile(&injected, Counter::TrafficRequests, "traffic.requests"),
        reconcile(&control, Counter::RmiCalls, "rmi.calls.control"),
        reconcile(&control, Counter::TrafficRequests, "traffic.requests.control"),
    ];
    for r in &recs {
        assert_eq!(
            r.window_sum, r.aggregate,
            "window deltas must sum to the run aggregate for {}",
            r.metric
        );
    }

    // The ablation itself: the planted stall is detected and named;
    // the control plants nothing and gets no GC attribution.
    assert!(
        !injected.report.spikes.is_empty(),
        "the injected stall must register as a spike (median {} ns, threshold {} ns)",
        injected.report.median_p95,
        injected.report.threshold
    );
    assert!(
        gc_attributed(&injected.report) >= 1,
        "at least one spike must be attributed to the injected GC event: {:?}",
        injected.report.spikes
    );
    assert_eq!(
        gc_attributed(&control.report),
        0,
        "the control run injects nothing, so nothing may be GC-attributed: {:?}",
        control.report.spikes
    );

    println!(
        "ok: {} window(s), {} spike(s), {} gc-attributed (median p95 {} ns, threshold {} ns); \
         control: {} spike(s), 0 gc-attributed; reconciliation holds for rmi.calls and \
         traffic.requests",
        injected.lane.timeseries.windows.len(),
        injected.report.spikes.len(),
        gc_attributed(&injected.report),
        injected.report.median_p95,
        injected.report.threshold,
        control.report.spikes.len(),
    );

    let report = report_json(scale_name, injection, &injected, &control, &recs);
    if let Some(path) = arg_value("--json-out") {
        std::fs::write(&path, &report).expect("write ablation report");
        println!("report ({ABLATION_SCHEMA}): {}", path.display());
    }
    if let Some(path) = arg_value("--timeseries-out") {
        std::fs::write(&path, injected.lane.timeseries.to_json()).expect("write timeseries export");
        println!("timeseries ({}): {}", telemetry::timeseries::SCHEMA, path.display());
    }
    if let Some(path) = arg_value("--prom-out") {
        std::fs::write(&path, injected.lane.timeseries.to_prometheus()).expect("write exposition");
        println!("exposition (prometheus text): {}", path.display());
    }
}
