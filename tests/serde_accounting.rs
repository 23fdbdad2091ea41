//! Serde accounting across the enclave boundary. Every crossing encodes
//! wire format v2, so `serde.encode_calls` must equal
//! `serde.fast_path_hits` on every path — a crossing that fails to
//! marshal included — and `serde.slow_path_hits` stays 0 (see
//! `docs/SERDE.md` and `docs/TELEMETRY.md`).

use std::sync::Arc;

use montsalvat::core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::core::{Trust, VmError};
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::{Counter, Snapshot};

fn launch(program: &Program, entries: Vec<MethodRef>) -> PartitionedApp {
    let tp = transform(program);
    let options = ImageOptions::with_entry_points(entries);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig { gc_helper_interval: None, ..AppConfig::default() };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

/// A trusted sink whose `put` returns the byte length it received.
fn sink_program() -> Program {
    let sink = ClassDef::new("Sink")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| match &args[0] {
                Value::Bytes(b) => Ok(Value::Int(b.len() as i64)),
                other => Ok(other.clone()),
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![sink, main], MethodRef::new("Main", "main")).unwrap()
}

/// Asserts the serde invariant on `snap` and returns the encode count.
fn reconciled_encodes(snap: &Snapshot) -> u64 {
    let calls = snap.counter(Counter::SerdeEncodeCalls);
    assert_eq!(calls, snap.counter(Counter::SerdeFastPathHits), "every encode is a fast-path hit");
    assert_eq!(snap.counter(Counter::SerdeSlowPathHits), 0, "there is no classic path");
    calls
}

#[test]
fn encode_calls_reconcile_with_path_hits() {
    let entries = vec![
        MethodRef::new("Person", CTOR),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Account", CTOR),
        MethodRef::new("Account", "balance"),
        MethodRef::new("AccountRegistry", CTOR),
        MethodRef::new("AccountRegistry", "addAccount"),
        MethodRef::new("AccountRegistry", "size"),
    ];
    let app = launch(&bank_program(), entries);
    let balance = app
        .enter_untrusted(|ctx| {
            let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
            let bob = ctx.new_object("Person", &[Value::from("Bob"), Value::Int(25)])?;
            ctx.call(&alice, "transfer", &[bob, Value::Int(25)])?;
            let acc = ctx.call(&alice, "getAccount", &[])?;
            ctx.call(&acc, "balance", &[])
        })
        .unwrap();
    assert_eq!(balance, Value::Int(75));
    assert!(reconciled_encodes(&app.telemetry_snapshot()) > 0, "crossings marshalled");
    app.shutdown();
}

#[test]
fn a_failed_marshal_leaves_serde_accounting_reconciled() {
    let entries = vec![
        MethodRef::new("Sink", CTOR),
        MethodRef::new("Sink", "put"),
        MethodRef::new("Main", "main"),
    ];
    let app = launch(&sink_program(), entries);
    app.enter_untrusted(|ctx| {
        let sink = ctx.new_object("Sink", &[])?;
        // A reference that dies before it crosses: marshal rejects it.
        let blob = ctx.alloc_blob(64)?;
        ctx.forget(&blob);
        ctx.collect_garbage();
        let before = app.telemetry_snapshot();
        let err = ctx.call(&sink, "put", &[blob]).unwrap_err();
        assert!(matches!(&err, VmError::BadRef(m) if m.contains("dead at marshal")), "{err}");

        let after = app.telemetry_snapshot();
        assert_eq!(
            after.counter(Counter::RmiCalls),
            before.counter(Counter::RmiCalls),
            "a failed marshal is not a crossing"
        );
        assert_eq!(reconciled_encodes(&after), reconciled_encodes(&before));

        // The next crossing marshals and is counted as usual.
        assert_eq!(ctx.call(&sink, "put", &[Value::Bytes(vec![1; 8])])?, Value::Int(8));
        assert!(reconciled_encodes(&app.telemetry_snapshot()) > reconciled_encodes(&after));
        Ok(())
    })
    .unwrap();
    app.shutdown();
}
