//! End-to-end causal-tracing integration: a partitioned run with an
//! injected tracer produces one connected call tree per crossing — an
//! ecall span on the trusted lane with nested shim-ocall children on
//! the untrusted lane — exports each span once, as one complete Chrome
//! trace event, and reconciles against telemetry (`rmi.calls` ==
//! traced rmi spans when nothing was dropped). Every traced transition
//! names an edge routine the EDL declares. A further test pins the
//! overflow path: a tiny ring keeps whole spans and counts the rest
//! into `trace.dropped`.

use std::collections::HashSet;
use std::sync::Arc;

use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::telemetry::trace::{self, parse_chrome_trace, ParsedSpan, Tracer};
use montsalvat::telemetry::{Counter, Gauge, Hist, Recorder};

/// Launches the bank sample with an injected recorder and tracer, runs
/// `main`, then performs in-enclave scratch I/O (an ecall whose body
/// issues shim-relayed ocalls — the nested-crossing shape the trace
/// must reproduce as one tree).
fn traced_run(tracer: &Arc<Tracer>) -> (PartitionedApp, Arc<Recorder>) {
    let transformed = transform(&bank_program());
    let (trusted, untrusted) =
        build_partitioned_images(&transformed, &ImageOptions::default(), &ImageOptions::default())
            .unwrap();
    let recorder = Recorder::new();
    let config = AppConfig {
        gc_helper_interval: None,
        telemetry: Some(recorder.clone()),
        trace: Some(Arc::clone(tracer)),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    app.run_main().unwrap();
    app.enter_trusted(|ctx| ctx.io_write(1024)).unwrap();
    (app, recorder)
}

#[test]
fn crossing_produces_one_connected_tree_across_both_lanes() {
    let tracer = Tracer::new();
    tracer.enable_with_capacity(65_536);
    let (app, recorder) = traced_run(&tracer);
    let rmi_calls = recorder.counter(Counter::RmiCalls);
    let json = tracer.to_chrome_json(&[("rmi_calls", rmi_calls)]);
    app.shutdown();

    let parsed = parse_chrome_trace(&json).unwrap();
    assert!(!parsed.spans.is_empty(), "a traced run captures spans");
    assert_eq!(parsed.other("dropped"), Some(0), "nothing dropped at this capacity");

    // One complete event per span: the export holds exactly the
    // captured events, and no span is recorded twice.
    let events = tracer.snapshot_events();
    assert_eq!(parsed.other("events"), Some(events.len() as u64));
    assert_eq!(parsed.spans.len(), events.iter().filter(|e| e.end.is_some()).count());
    let ids: HashSet<u64> = parsed.spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), parsed.spans.len(), "each span is recorded once");

    // Both runtimes show up as their own lane (Perfetto "process").
    assert!(parsed.spans.iter().any(|s| s.pid == 1), "trusted lane present");
    assert!(parsed.spans.iter().any(|s| s.pid == 2), "untrusted lane present");

    // The nested-crossing shape: an ecall span on the trusted lane
    // whose direct child is a shim ocall span on the untrusted lane,
    // in the same trace (= one connected tree).
    let is_ecall = |s: &ParsedSpan| s.pid == 1 && s.cat == "sgx" && s.name.starts_with("ecall:");
    assert!(parsed.spans.iter().any(is_ecall), "the run performs ecalls");
    let nested_ocall = parsed.spans.iter().any(|s| {
        s.pid == 2
            && s.name.starts_with("ocall:")
            && s.parent.is_some_and(|p| is_ecall(&parsed.spans[p]) && parsed.spans[p].tid == s.tid)
    });
    assert!(nested_ocall, "an ecall span contains an opposite-lane ocall child");

    // Shim-relayed I/O is categorised separately from raw transitions.
    assert!(
        parsed.spans.iter().any(|s| s.cat == "shim" && s.name.starts_with("ocall:shim_")),
        "shim relays are traced under cat \"shim\""
    );

    // Reconciliation: one cat-"rmi" span per cross_call, so telemetry
    // and the trace agree exactly in the no-drop regime.
    let rmi_spans = parsed.spans.iter().filter(|s| s.cat == "rmi").count() as u64;
    assert!(rmi_calls > 0, "the bank app performs proxy calls");
    assert_eq!(rmi_spans, rmi_calls, "rmi.calls == traced rmi spans + 0 dropped");
    assert_eq!(parsed.other("rmi_calls"), Some(rmi_calls), "otherData carries the counter");

    // Every parent pointer resolves to a span in the same trace, which
    // encloses its child in model time.
    for s in parsed.spans.iter().filter(|s| s.parent_id != 0) {
        let parent = s.parent.map(|p| &parsed.spans[p]);
        assert!(
            parent.is_some_and(|p| p.tid == s.tid),
            "parent {} of span {} resolves within trace {}",
            s.parent_id,
            s.id,
            s.tid
        );
        let parent = parent.unwrap();
        assert!(parent.begin.model_ns <= s.begin.model_ns && s.end.model_ns <= parent.end.model_ns);
    }

    // Instrumentation never leaks a context past the crossing.
    assert!(trace::current().is_none(), "no dangling thread-local context");
}

/// Every transition the bank run traces on cat `sgx` names an edge
/// routine the transformer declared in the EDL — the routines the
/// generated C bridges define — except the runtime's own entry and
/// GC-release routines, which are not per-method relays.
#[test]
fn every_traced_transition_names_an_edl_routine() {
    const RUNTIME_ROUTINES: [&str; 4] =
        ["ecall_enter", "ecall_main", "ecall_gc_release", "ocall_gc_release"];
    let tracer = Tracer::new();
    tracer.enable_with_capacity(65_536);
    let (app, _recorder) = traced_run(&tracer);
    let json = tracer.to_chrome_json(&[]);
    app.shutdown();

    let edl = transform(&bank_program()).edl;
    let parsed = parse_chrome_trace(&json).unwrap();
    let routines: Vec<&str> = parsed
        .spans
        .iter()
        .filter(|s| s.cat == "sgx")
        .filter_map(|s| s.name.strip_prefix("ecall:").or_else(|| s.name.strip_prefix("ocall:")))
        .collect();
    assert!(
        routines.iter().any(|r| r.starts_with("ecall_relay_")),
        "the run crosses through relays: {routines:?}"
    );
    for routine in routines.iter().filter(|r| !RUNTIME_ROUTINES.contains(r)) {
        assert!(edl.contains(routine), "`{routine}` is not declared in the EDL");
    }
}

/// Regression: trace/telemetry reconciliation must survive the
/// switchless pool resizing itself mid-run. A hair-trigger miss engine
/// (one miss spawns a worker) is driven until it scales up; afterwards
/// every span must be recorded once, `rmi.calls` must still equal the
/// traced rmi spans (nothing dropped at this capacity), every traced
/// hit must have recorded exactly one queue-wait histogram sample and
/// one cat-`queue` wait span, and the pool must have stayed within its
/// worker bounds.
#[test]
fn resizing_run_keeps_trace_and_telemetry_reconciled() {
    let tracer = Tracer::new();
    tracer.enable_with_capacity(1 << 20);
    let transformed = transform(&bank_program());
    let (trusted, untrusted) =
        build_partitioned_images(&transformed, &ImageOptions::default(), &ImageOptions::default())
            .unwrap();
    let recorder = Recorder::new();
    let config = AppConfig {
        gc_helper_interval: None,
        telemetry: Some(recorder.clone()),
        trace: Some(Arc::clone(&tracer)),
        switchless: Some(SwitchlessConfig {
            min_workers: 1,
            max_workers: 4,
            mailbox_capacity: 2,
            scale_up_misses: 1,
            ..SwitchlessConfig::default()
        }),
        ..AppConfig::default()
    };
    let app = Arc::new(PartitionedApp::launch(&trusted, &untrusted, config).unwrap());

    // Concurrent load until the pool demonstrably grew.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let app = Arc::clone(&app);
            handles.push(std::thread::spawn(move || {
                app.run_main().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        if recorder.counter(Counter::SwitchlessScaleUps) > 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "the pool never scaled up");
    }

    let rmi_calls = recorder.counter(Counter::RmiCalls);
    let hits = recorder.counter(Counter::SwitchlessCalls);
    let fallbacks = recorder.counter(Counter::SwitchlessFallbacks);
    let snap = recorder.snapshot();
    let json = tracer.to_chrome_json(&[]);
    match Arc::try_unwrap(app) {
        Ok(app) => app.shutdown(),
        Err(_) => panic!("no other app handles remain"),
    }

    let parsed = parse_chrome_trace(&json).unwrap();
    assert_eq!(parsed.other("dropped"), Some(0), "nothing dropped at this capacity");
    let ids: HashSet<u64> = parsed.spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), parsed.spans.len(), "each span is recorded once under live resizing");

    // Crossing accounting under active resizing.
    assert_eq!(rmi_calls, hits + fallbacks, "every crossing is one hit or one fallback");
    let rmi_spans = parsed.spans.iter().filter(|s| s.cat == "rmi").count() as u64;
    assert_eq!(rmi_spans, rmi_calls, "rmi.calls == traced rmi spans");

    // Queue-wait reconciliation: one histogram sample and one
    // cat-`queue` wait span per traced hit.
    assert_eq!(snap.hist(Hist::SwitchlessQueueWaitNs).count, hits);
    let wait_spans = parsed
        .spans
        .iter()
        .filter(|s| s.cat == "queue" && s.name.starts_with("queue-wait:"))
        .count() as u64;
    assert_eq!(wait_spans, hits, "one queue-wait span per switchless hit");

    // The pool grew, but never past its bound.
    let peak = recorder.gauge(Gauge::SwitchlessWorkersPeak);
    assert!((2..=4).contains(&peak), "worker peak {peak} outside [2, max_workers]");
}

#[test]
fn ring_overflow_counts_drops_without_corrupting_the_capture() {
    let tracer = Tracer::new();
    // The minimum capacity: the bank run emits far more events/lane.
    tracer.enable_with_capacity(8);
    let (app, recorder) = traced_run(&tracer);
    let rmi_calls = recorder.counter(Counter::RmiCalls);
    app.shutdown();

    assert!(tracer.dropped() > 0, "a full ring counts drops");
    assert_eq!(
        recorder.counter(Counter::TraceDropped),
        tracer.dropped(),
        "drops mirror into the telemetry counter"
    );
    assert_eq!(tracer.event_count(), 16, "fill-then-drop fills both rings, never more");

    // The truncated capture exports whole spans only: a span that
    // ended after its lane filled is dropped whole (its children may
    // remain, with no parent in the capture), and nothing is made up.
    let json = tracer.to_chrome_json(&[]);
    let parsed = parse_chrome_trace(&json).unwrap();
    assert!(!parsed.spans.is_empty(), "the prefix of the run is retained");
    assert!(parsed.spans.len() <= 16);
    assert_eq!(parsed.other("dropped"), Some(tracer.dropped()));
    let rmi_spans = parsed.spans.iter().filter(|s| s.cat == "rmi").count() as u64;
    assert!(
        rmi_spans <= rmi_calls && rmi_calls <= rmi_spans + tracer.dropped(),
        "rmi spans {rmi_spans} <= rmi.calls {rmi_calls} <= rmi spans + dropped"
    );
}
