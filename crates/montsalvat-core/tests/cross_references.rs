//! Semantics of references crossing the enclave boundary: nesting in
//! neutral structure, identity preservation, round trips, and
//! concurrent crossings.

use montsalvat_core::annotation::{Side, Trust};
use montsalvat_core::class::{ClassDef, Instr, MethodDef, MethodKind, MethodRef, Operand, CTOR};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use montsalvat_core::Program;
use runtime_sim::value::Value;

/// A `Box`-like container on each side: stores and returns any value.
fn boxes_program() -> Program {
    let make = |name: &str, trust: Trust| {
        ClassDef::new(name)
            .trust(trust)
            .field("val")
            .method(MethodDef::interpreted(
                CTOR,
                MethodKind::Constructor,
                0,
                0,
                vec![Instr::Return { value: None }],
            ))
            .method(MethodDef::interpreted(
                "set",
                MethodKind::Instance,
                1,
                1,
                vec![
                    Instr::SetField {
                        recv: Operand::This,
                        field: "val".into(),
                        value: Operand::Local(0),
                    },
                    Instr::Return { value: None },
                ],
            ))
            .method(MethodDef::interpreted(
                "get",
                MethodKind::Instance,
                0,
                1,
                vec![
                    Instr::GetField { dst: 0, recv: Operand::This, field: "val".into() },
                    Instr::Return { value: Some(Operand::Local(0)) },
                ],
            ))
    };
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![Instr::Return { value: None }],
    ));
    Program::new(
        vec![make("TBox", Trust::Trusted), make("UBox", Trust::Untrusted), main],
        MethodRef::new("Main", "main"),
    )
    .unwrap()
}

fn entries() -> Vec<MethodRef> {
    ["TBox", "UBox"]
        .into_iter()
        .flat_map(|c| [CTOR, "set", "get"].into_iter().map(move |m| MethodRef::new(c, m)))
        .collect()
}

fn launch() -> PartitionedApp {
    let tp = transform(&boxes_program());
    let options = ImageOptions::with_entry_points(entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    PartitionedApp::launch(&t, &u, AppConfig { gc_helper_interval: None, ..AppConfig::default() })
        .unwrap()
}

#[test]
fn primitive_roundtrip_through_the_enclave() {
    let app = launch();
    let out = app
        .enter_untrusted(|ctx| {
            let b = ctx.new_object("TBox", &[])?;
            ctx.call(&b, "set", &[Value::Float(2.75)])?;
            ctx.call(&b, "get", &[])
        })
        .unwrap();
    assert_eq!(out, Value::Float(2.75));
}

#[test]
fn annotated_ref_roundtrip_preserves_proxy_identity() {
    // Store proxy A inside trusted box B; reading it back must yield
    // the *same* proxy object, not a fresh one (§5.2: a single version
    // of each object in both worlds).
    let app = launch();
    let (sent, received) = app
        .enter_untrusted(|ctx| {
            let a = ctx.new_object("TBox", &[])?;
            let b = ctx.new_object("TBox", &[])?;
            ctx.call(&b, "set", std::slice::from_ref(&a))?;
            let back = ctx.call(&b, "get", &[])?;
            Ok((a, back))
        })
        .unwrap();
    assert_eq!(sent.as_ref_id(), received.as_ref_id(), "same proxy object");
    // Exactly two mirrors exist (one per TBox), no duplicates.
    assert_eq!(app.registry_len(Side::Trusted), 2);
}

#[test]
fn annotated_refs_nested_in_neutral_structure_cross_correctly() {
    // A neutral list containing [int, proxy-ref, string] crosses into
    // the enclave; the mirror must see the mirror of the nested proxy.
    let app = launch();
    let out = app
        .enter_untrusted(|ctx| {
            let inner = ctx.new_object("TBox", &[])?;
            ctx.call(&inner, "set", &[Value::Int(99)])?;
            let holder = ctx.new_object("TBox", &[])?;
            let bundle = Value::List(vec![Value::Int(1), inner.clone(), Value::from("tag")]);
            ctx.call(&holder, "set", &[bundle])?;
            // Read the bundle back and call through the nested proxy.
            let back = ctx.call(&holder, "get", &[])?;
            let items = back.as_list().expect("list returns").to_vec();
            assert_eq!(items[0], Value::Int(1));
            assert_eq!(items[2], Value::from("tag"));
            let nested = items[1].clone();
            ctx.call(&nested, "get", &[])
        })
        .unwrap();
    assert_eq!(out, Value::Int(99));
}

#[test]
fn untrusted_objects_proxy_into_the_enclave_and_back() {
    // Reverse direction: a UBox (untrusted concrete) stored inside a
    // TBox mirror must export a hash, materialise a UBox proxy inside
    // the enclave, and calls through it must come back out as ocalls.
    let app = launch();
    let out = app
        .enter_untrusted(|ctx| {
            let u = ctx.new_object("UBox", &[])?;
            ctx.call(&u, "set", &[Value::from("outside data")])?;
            let t = ctx.new_object("TBox", &[])?;
            ctx.call(&t, "set", &[u])?; // UBox ref crosses inward as a hash
            let back = ctx.call(&t, "get", &[])?; // comes back as the same UBox
            ctx.call(&back, "get", &[])
        })
        .unwrap();
    assert_eq!(out, Value::from("outside data"));
    // The UBox was exported: its strong ref lives in the *untrusted*
    // registry (its home), keyed for the enclave-side proxy.
    assert_eq!(app.registry_len(Side::Untrusted), 1);
}

#[test]
fn deep_neutral_structures_deep_copy() {
    // Nested lists of primitives are copied by value: mutating the
    // original afterwards must not affect the enclave copy.
    let app = launch();
    let out = app
        .enter_untrusted(|ctx| {
            let t = ctx.new_object("TBox", &[])?;
            let nested = Value::List(vec![
                Value::List(vec![Value::Int(1), Value::Int(2)]),
                Value::Bytes(vec![7, 8, 9]),
            ]);
            ctx.call(&t, "set", &[nested])?;
            ctx.call(&t, "get", &[])
        })
        .unwrap();
    let items = out.as_list().unwrap();
    assert_eq!(items[0], Value::List(vec![Value::Int(1), Value::Int(2)]));
    assert_eq!(items[1], Value::Bytes(vec![7, 8, 9]));
}

#[test]
fn concurrent_crossings_from_multiple_threads() {
    let app = std::sync::Arc::new(launch());
    let mut handles = Vec::new();
    for t in 0..4 {
        let app = std::sync::Arc::clone(&app);
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let v = app
                    .enter_untrusted(|ctx| {
                        let b = ctx.new_object("TBox", &[])?;
                        ctx.call(&b, "set", &[Value::Int(t * 1000 + i)])?;
                        ctx.call(&b, "get", &[])
                    })
                    .unwrap();
                assert_eq!(v, Value::Int(t * 1000 + i));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(app.registry_len(Side::Trusted), 200);
    assert_eq!(app.telemetry().counter(telemetry::Counter::Ecalls), 4 * 50 * 3);
}

#[test]
fn gc_sync_handles_mixed_live_and_dead_nested_proxies() {
    let app = launch();
    app.enter_untrusted(|ctx| {
        // One long-lived proxy holding a short-lived one.
        let keeper = ctx.new_object("TBox", &[])?;
        {
            let shortlived = ctx.new_object("TBox", &[])?;
            ctx.call(&keeper, "set", std::slice::from_ref(&shortlived))?;
            // Drop our frame root; the mirror graph inside the enclave
            // still references the nested mirror.
            ctx.forget(&shortlived);
        }
        ctx.collect_garbage();
        Ok(())
    })
    .unwrap();
    // The short-lived *proxy* died outside -> its registry entry is
    // released; the nested *mirror* stays alive through the keeper
    // mirror's field (trusted-heap reachability), so the object graph
    // in the enclave stays intact.
    let (released, _) = app.gc_sync_once().unwrap();
    assert_eq!(released, 1);
    assert_eq!(app.registry_len(Side::Trusted), 1);
    let live_after_gc = app
        .enter_trusted(|ctx| {
            ctx.collect_garbage();
            Ok(ctx.with_heap(|h| h.live_objects()))
        })
        .unwrap();
    assert!(live_after_gc >= 2, "keeper mirror and nested mirror survive: {live_after_gc}");
}
