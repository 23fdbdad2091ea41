//! Every document reader accepts any valid layout of its document.
//!
//! The exports of a traced bank run (its Chrome trace, carrying
//! `rmi_calls`, and its telemetry snapshot) and a seeded flight-recorder
//! series are re-laid out twice, by hand rather than through
//! `telemetry::json`: once with every line trimmed and joined into one
//! line, once with a newline and an indent after every `{`, `[` and `,`
//! outside a string literal. Each copy must read back equal to the
//! original through its reader (`parse_chrome_trace`,
//! `parse_timeseries`) and through `Json::parse`.

use std::sync::Arc;

use experiments::report::Scale;
use experiments::traffic::{lanes, run_lane, TrafficConfig};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::telemetry::json::Json;
use montsalvat::telemetry::timeseries::parse_timeseries;
use montsalvat::telemetry::trace::{parse_chrome_trace, Tracer};
use montsalvat::telemetry::{Counter, Recorder};

/// Every line trimmed and joined into one line.
fn joined(text: &str) -> String {
    text.lines().map(str::trim).collect()
}

/// A newline and an indent after every `{`, `[` and `,` that is outside
/// a string literal.
fn spread(text: &str) -> String {
    let mut out = String::with_capacity(2 * text.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in text.chars() {
        out.push(c);
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        } else if matches!(c, '{' | '[' | ',') {
            out.push_str("\n   ");
        }
    }
    out
}

/// The two re-laid-out copies of `text`, each checked to differ from
/// it and to hold the same JSON value.
fn copies(text: &str) -> [String; 2] {
    let original = Json::parse(text).expect("the export parses");
    [joined(text), spread(text)].map(|copy| {
        assert_ne!(copy, text, "the copy changes the layout");
        assert_eq!(Json::parse(&copy).expect("the copy parses"), original);
        copy
    })
}

/// The bank sample under an injected recorder and tracer: `main` plus
/// in-enclave scratch I/O. Returns the trace and telemetry exports.
fn traced_bank_run() -> (String, String) {
    let transformed = transform(&bank_program());
    let (trusted, untrusted) =
        build_partitioned_images(&transformed, &ImageOptions::default(), &ImageOptions::default())
            .unwrap();
    let recorder = Recorder::new();
    let tracer = Tracer::new();
    tracer.enable_with_capacity(65_536);
    let config = AppConfig {
        gc_helper_interval: None,
        telemetry: Some(recorder.clone()),
        trace: Some(Arc::clone(&tracer)),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    app.run_main().unwrap();
    app.enter_trusted(|ctx| ctx.io_write(1024)).unwrap();
    let snapshot = recorder.snapshot();
    app.shutdown();
    let trace = tracer.to_chrome_json(&[("rmi_calls", snapshot.counter(Counter::RmiCalls))]);
    (trace, snapshot.to_json())
}

#[test]
fn bank_run_exports_read_back_the_same_in_any_layout() {
    let (trace_json, telemetry_json) = traced_bank_run();
    let original = parse_chrome_trace(&trace_json).unwrap();
    assert!(!original.spans.is_empty(), "a traced run captures spans");
    assert!(original.other("rmi_calls").is_some_and(|n| n > 0), "{:?}", original.other);
    for copy in copies(&trace_json) {
        let parsed = parse_chrome_trace(&copy).unwrap();
        assert_eq!(parsed.spans, original.spans);
        assert_eq!(parsed.other, original.other);
    }

    let ecalls = |doc: &Json| doc.at(&["counters", "sgx.ecalls", "value"]).and_then(Json::as_u64);
    assert!(ecalls(&Json::parse(&telemetry_json).unwrap()).is_some_and(|n| n > 0));
    copies(&telemetry_json);
}

#[test]
fn a_seeded_timeseries_reads_back_the_same_in_any_layout() {
    let lane = run_lane(lanes()[0], &TrafficConfig::for_scale(Scale::Quick)).unwrap();
    let json = lane.timeseries.to_json();
    let original = parse_timeseries(&json).unwrap();
    assert!(original.windows.len() > 1, "the lane spans several windows");
    for copy in copies(&json) {
        let parsed = parse_timeseries(&copy).unwrap();
        assert_eq!(
            (parsed.window_ns, parsed.capacity, parsed.dropped),
            (original.window_ns, original.capacity, original.dropped)
        );
        assert_eq!(parsed.windows, original.windows);
    }
}
