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

#[test]
fn a_panicking_relay_body_fails_typed_and_releases_its_argument_pins() {
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
        switchless: Some(SwitchlessConfig::default()),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&t, &u, config).unwrap();
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
    app.shutdown();
}
