//! A relay body that panics on a switchless worker fails only its own
//! call, with a typed error, and leaves nothing rooted.
//!
//! `@Trusted Sink.take(p)` is a native method that panics on its first
//! call. The untrusted caller passes it a neutral `Point`, which crosses
//! by copy: the enclave decodes a fresh `Point` and pins it while the
//! relay runs. The panic must fail the call with
//! `VmError::App("switchless relay Sink.relay$take panicked")`, the pin
//! must be released as the body unwinds, the worker must serve the next
//! call, and every crossing must still be one hit or one fallback.
//! Traced, the panicking call's serve span is recorded once, as the
//! body unwinds, under the caller's rmi span.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use montsalvat::core::class::{
    ClassDef, Instr, MethodDef, MethodKind, MethodRef, Operand, Program, CTOR,
};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::transform;
use montsalvat::core::{Side, Trust, VmError};
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::trace::{self, parse_chrome_trace, Tracer};
use montsalvat::telemetry::Counter;

/// Neutral `Point { x, y }` and `@Trusted Sink`, whose `take(p)`
/// panics the first time it runs and returns 7 afterwards.
fn sink_program() -> Program {
    let point = ClassDef::new("Point").field("x").field("y").method(MethodDef::interpreted(
        CTOR,
        MethodKind::Constructor,
        2,
        2,
        vec![
            Instr::SetField { recv: Operand::This, field: "x".into(), value: Operand::Local(0) },
            Instr::SetField { recv: Operand::This, field: "y".into(), value: Operand::Local(1) },
            Instr::Return { value: None },
        ],
    ));
    let first = AtomicBool::new(true);
    let sink = ClassDef::new("Sink")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "take",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(move |_ctx, _this, _args: &[Value]| {
                if first.swap(false, Ordering::SeqCst) {
                    panic!("Sink.take fails on its first call");
                }
                Ok(Value::Int(7))
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![point, sink, main], MethodRef::new("Main", "main")).unwrap()
}

/// Launches the sink program with crossings on `switchless`, traced by
/// `trace` when given.
fn launch(switchless: SwitchlessConfig, trace: Option<Arc<Tracer>>) -> PartitionedApp {
    let tp = transform(&sink_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Point", CTOR),
        MethodRef::new("Sink", CTOR),
        MethodRef::new("Sink", "take"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        switchless: Some(switchless),
        trace,
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

/// Constructs a `Sink` and calls `take` twice: the first call panics
/// and must fail typed with its pin released, the second is served.
fn take_twice(app: &PartitionedApp) {
    let trusted_roots = || app.shared.world(Side::Trusted).isolate.with_heap(|h| h.root_count());
    app.enter_untrusted(|ctx| {
        let sink = ctx.new_object("Sink", &[])?;
        let point = ctx.new_object("Point", &[Value::Int(1), Value::Int(2)])?;
        let roots = trusted_roots();
        match ctx.call(&sink, "take", std::slice::from_ref(&point)) {
            Err(VmError::App(m)) => assert_eq!(m, "switchless relay Sink.relay$take panicked"),
            other => panic!("expected the typed panic error, got {other:?}"),
        }
        assert_eq!(trusted_roots(), roots, "the copied Point is no longer pinned");
        assert_eq!(ctx.call(&sink, "take", &[point])?, Value::Int(7), "the worker serves on");
        assert_eq!(trusted_roots(), roots, "a served call leaves nothing pinned either");
        Ok(())
    })
    .unwrap();
    let recorder = app.telemetry();
    let calls = recorder.counter(Counter::RmiCalls);
    let hits = recorder.counter(Counter::SwitchlessCalls);
    let fallbacks = recorder.counter(Counter::SwitchlessFallbacks);
    assert_eq!(calls, 3, "the constructor and both takes crossed");
    assert_eq!(calls, hits + fallbacks, "rmi.calls == hits + fallbacks");
}

#[test]
fn a_panicking_relay_body_fails_typed_and_releases_its_argument_pins() {
    let app = launch(SwitchlessConfig::default(), None);
    take_twice(&app);
    app.shutdown();
}

#[test]
fn a_panicking_relay_records_its_serve_span_once_under_the_callers_rmi_span() {
    let tracer = Tracer::new();
    tracer.enable_with_capacity(1024);
    let app = launch(SwitchlessConfig::fixed(1), Some(Arc::clone(&tracer)));
    take_twice(&app);
    let calls = app.telemetry().counter(Counter::RmiCalls);
    app.shutdown();
    assert!(trace::current().is_none(), "no context outlives the calls");

    let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
    assert_eq!(parsed.other("dropped"), Some(0));
    let spans = &parsed.spans;
    let rmi: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].cat == "rmi").collect();
    assert_eq!(rmi.len() as u64, calls, "one rmi span per rmi.calls");
    let mut takes: Vec<usize> =
        rmi.into_iter().filter(|&i| spans[i].name == "Sink.relay$take").collect();
    takes.sort_by_key(|&i| spans[i].begin.model_ns);
    assert_eq!(takes.len(), 2);
    // The first take is the one that panicked.
    for (take, what) in takes.into_iter().zip(["the panicking", "the served"]) {
        let serves: Vec<&_> = spans
            .iter()
            .filter(|s| s.name == "serve:Sink.relay$take" && s.parent == Some(take))
            .collect();
        assert_eq!(serves.len(), 1, "{what} take's serve span is recorded exactly once");
        assert_eq!(serves[0].parent_id, spans[take].id, "{what} serve parents under its rmi span");
        assert_eq!(serves[0].tid, spans[take].tid);
    }
    let all_serves = spans.iter().filter(|s| s.name == "serve:Sink.relay$take").count();
    assert_eq!(all_serves, 2, "no serve span is recorded twice");
}
