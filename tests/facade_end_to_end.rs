//! End-to-end integration through the facade crate: the complete
//! pipeline — annotate, transform, analyse, build, attest, run,
//! GC-sync, shut down — using only the public `montsalvat` API.

use montsalvat::core::annotation::{Side, Trust};
use montsalvat::core::codegen;
use montsalvat::core::exec::app::{AppConfig, PartitionedApp, Placement, SingleWorldApp};
use montsalvat::core::image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions,
};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::core::MethodRef;
use montsalvat::runtime::value::Value;
use montsalvat::sgx::Enclave;

fn no_helpers() -> AppConfig {
    AppConfig { gc_helper_interval: None, ..AppConfig::default() }
}

#[test]
fn full_pipeline_through_the_facade() {
    let program = bank_program();
    let transformed = transform(&program);

    // The build emits inspectable SGX artefacts.
    let artefacts = codegen::generate(&transformed);
    assert!(artefacts.edl.contains("trusted {"));
    assert!(artefacts.untrusted_bridge_c.contains("ecall_relay_Account"));

    let (trusted, untrusted) =
        build_partitioned_images(&transformed, &ImageOptions::default(), &ImageOptions::default())
            .unwrap();
    let app = PartitionedApp::launch(&trusted, &untrusted, no_helpers()).unwrap();

    // Remote attestation stub: the quote verifies and carries the
    // enclave's measurement.
    let quote = app.enclave.quote([9u8; 32]);
    assert!(Enclave::verify_quote(&quote));
    assert_eq!(quote.measurement, app.enclave.measurement());

    app.run_main().unwrap();
    assert_eq!(app.registry_len(Side::Trusted), 3);

    // GC consistency end-to-end.
    app.enter_untrusted(|ctx| {
        ctx.collect_garbage();
        Ok(())
    })
    .unwrap();
    let (released, _) = app.gc_sync_once().unwrap();
    assert_eq!(released, 3);
    app.shutdown();
}

#[test]
fn partitioned_and_unpartitioned_results_agree() {
    // The same logical application computes identical balances in all
    // three deployments.
    let entries = vec![
        MethodRef::new("Person", "<init>"),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Account", "balance"),
    ];
    let drive = |ctx: &mut montsalvat::core::Ctx<'_>| {
        let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
        let bob = ctx.new_object("Person", &[Value::from("Bob"), Value::Int(25)])?;
        ctx.call(&alice, "transfer", &[bob.clone(), Value::Int(40)])?;
        let acc = ctx.call(&alice, "getAccount", &[])?;
        ctx.call(&acc, "balance", &[])
    };

    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(entries.clone());
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let partitioned = PartitionedApp::launch(&t, &u, no_helpers()).unwrap();
    let part_result = partitioned.enter_untrusted(drive).unwrap();

    let image =
        build_unpartitioned_image(&bank_program(), &ImageOptions::with_entry_points(entries))
            .unwrap();
    for placement in [Placement::Host, Placement::Enclave] {
        let single = SingleWorldApp::launch(&image, placement, no_helpers()).unwrap();
        let result = single.enter(drive).unwrap();
        assert_eq!(result, part_result, "{placement:?} must agree with partitioned");
    }
    assert_eq!(part_result, Value::Int(60));
}

#[test]
fn annotations_control_placement_of_io() {
    // An @Untrusted class writes without crossings; an @Trusted class
    // relays every write as an ocall.
    use montsalvat::core::class::{ClassDef, Instr, MethodDef, MethodKind, CTOR};
    use std::sync::Arc;

    let io_body: montsalvat::core::class::NativeFn = Arc::new(|ctx, _this, _args| {
        for _ in 0..10 {
            ctx.io_write(512)?;
        }
        Ok(Value::Unit)
    });
    let make = |trust: Trust| {
        let worker = ClassDef::new("Worker")
            .trust(trust)
            .method(MethodDef::interpreted(
                CTOR,
                MethodKind::Constructor,
                0,
                0,
                vec![Instr::Return { value: None }],
            ))
            .method(MethodDef::native("work", MethodKind::Instance, 0, vec![], io_body.clone()));
        let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
            "main",
            MethodKind::Static,
            0,
            0,
            vec![Instr::Return { value: None }],
        ));
        montsalvat::core::Program::new(vec![worker, main], MethodRef::new("Main", "main")).unwrap()
    };

    let mut ocalls = Vec::new();
    for trust in [Trust::Untrusted, Trust::Trusted] {
        let tp = transform(&make(trust));
        let options = ImageOptions::with_entry_points(vec![
            MethodRef::new("Worker", CTOR),
            MethodRef::new("Worker", "work"),
        ]);
        let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
        let app = PartitionedApp::launch(&t, &u, no_helpers()).unwrap();
        app.enter_untrusted(|ctx| {
            let w = ctx.new_object("Worker", &[])?;
            ctx.call(&w, "work", &[])
        })
        .unwrap();
        ocalls.push(app.telemetry().counter(montsalvat::telemetry::Counter::Ocalls));
    }
    assert_eq!(ocalls[0], 0, "untrusted worker writes directly");
    assert!(ocalls[1] >= 10, "trusted worker relays each write: {}", ocalls[1]);
}
