//! Behavioural tests for boundary serde (wire format v2: shape-cached
//! interned hints, pooled buffers, bulk primitive encoding — see
//! `docs/SERDE.md`). The serde accounting invariants that tier-1 must
//! hold live in the root `tests/serde_accounting.rs`.

use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::samples::bank_program;
use montsalvat_core::transform::transform;
use montsalvat_core::Trust;
use runtime_sim::value::Value;
use sgx_sim::cost::CostParams;

fn bank_entries() -> Vec<MethodRef> {
    vec![
        MethodRef::new("Person", CTOR),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Account", CTOR),
        MethodRef::new("Account", "balance"),
        MethodRef::new("AccountRegistry", CTOR),
        MethodRef::new("AccountRegistry", "addAccount"),
        MethodRef::new("AccountRegistry", "size"),
    ]
}

fn launch_bank(switchless: bool) -> PartitionedApp {
    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(bank_entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        switchless: switchless.then(SwitchlessConfig::default),
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

fn run_bank(app: &PartitionedApp) -> Value {
    app.enter_untrusted(|ctx| {
        let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
        let bob = ctx.new_object("Person", &[Value::from("Bob"), Value::Int(25)])?;
        ctx.call(&alice, "transfer", &[bob.clone(), Value::Int(25)])?;
        let acc = ctx.call(&alice, "getAccount", &[])?;
        ctx.call(&acc, "balance", &[])
    })
    .unwrap()
}

/// A run whose crossings carry an annotated object as an argument
/// (`addAccount(proxy)`), so marshalling produces class-name hints.
fn run_registry(app: &PartitionedApp) -> Value {
    app.enter_untrusted(|ctx| {
        let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
        let acc = ctx.call(&alice, "getAccount", &[])?;
        let reg = ctx.new_object("AccountRegistry", &[])?;
        ctx.call(&reg, "addAccount", std::slice::from_ref(&acc))?;
        ctx.call(&reg, "size", &[])
    })
    .unwrap()
}

/// The PalDB-write shape: a trusted sink taking a bulk byte payload.
fn sink_program() -> Program {
    let sink = ClassDef::new("Sink")
        .trust(Trust::Trusted)
        .field("total")
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            1,
            vec![],
            std::sync::Arc::new(|_ctx, _this, args: &[Value]| match &args[0] {
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

fn launch_sink(cost_params: CostParams) -> PartitionedApp {
    let tp = transform(&sink_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Sink", CTOR),
        MethodRef::new("Sink", "put"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig { gc_helper_interval: None, cost_params, ..AppConfig::default() };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

#[test]
fn bulk_payloads_are_pooled_and_bulk_counted() {
    let app = launch_sink(CostParams::paper_defaults());
    let payload = [Value::Bytes(vec![0xA5; 4096])];
    app.enter_untrusted(|ctx| {
        let sink = ctx.new_object("Sink", &[])?;
        for _ in 0..16 {
            assert_eq!(ctx.call(&sink, "put", &payload)?, Value::Int(4096));
        }
        Ok(())
    })
    .unwrap();
    let snap = app.telemetry_snapshot();
    assert!(
        snap.counter(telemetry::Counter::SerdeBulkBytes) >= 16 * 4096,
        "byte payloads take the bulk path"
    );
    assert!(
        snap.counter(telemetry::Counter::SerdePooledBytes) > 0,
        "steady-state encodes reuse pooled buffers"
    );
    app.shutdown();
}

#[test]
fn class_names_cross_once_and_shapes_cache() {
    let app = launch_bank(false);
    assert_eq!(run_registry(&app), Value::Int(1));
    let names_after_first = app.shared.serde_interned_names();
    let misses_after_first =
        app.telemetry_snapshot().counter(telemetry::Counter::SerdeShapeCacheMisses);
    assert!(names_after_first > 0, "annotated crossings intern their class names");
    for _ in 0..3 {
        run_registry(&app);
    }
    assert_eq!(
        app.shared.serde_interned_names(),
        names_after_first,
        "steady-state crossings intern no new names"
    );
    assert_eq!(
        app.telemetry_snapshot().counter(telemetry::Counter::SerdeShapeCacheMisses),
        misses_after_first,
        "steady-state crossings add no shape-cache misses"
    );
    app.shutdown();
}

#[test]
fn fast_path_costs_less_model_time_on_bulk_payloads() {
    let charged = |cost_params: CostParams| {
        let app = launch_sink(cost_params);
        let payload = [Value::Bytes(vec![0x5A; 8192])];
        let charged = app
            .enter_untrusted(|ctx| {
                let sink = ctx.new_object("Sink", &[])?;
                let before = ctx.cost_charged();
                for _ in 0..8 {
                    ctx.call(&sink, "put", &payload)?;
                }
                Ok(ctx.cost_charged() - before)
            })
            .unwrap();
        app.shutdown();
        charged
    };
    let paper = CostParams::paper_defaults();
    // The same run with bulk bytes billed at the graph-walk rate.
    let flat = CostParams { serde_bulk_ns_per_byte: paper.serde_ns_per_byte, ..paper.clone() };
    assert!(paper.serde_bulk_ns_per_byte < paper.serde_ns_per_byte);
    let bulk = charged(paper);
    let walked = charged(flat);
    assert!(
        bulk < walked,
        "bulk bytes must cost less model time: bulk rate {bulk:?} vs walk rate {walked:?}"
    );
}

#[test]
fn switchless_reconciliation_holds_with_fast_path() {
    let app = launch_bank(true);
    assert_eq!(run_bank(&app), Value::Int(75));
    let snap = app.telemetry_snapshot();
    assert_eq!(snap.counter(telemetry::Counter::RmiCalls), 5);
    assert_eq!(
        snap.counter(telemetry::Counter::RmiCalls),
        snap.counter(telemetry::Counter::SwitchlessCalls)
            + snap.counter(telemetry::Counter::SwitchlessFallbacks),
        "every crossing is a switchless hit or a fallback"
    );
    assert_eq!(
        snap.counter(telemetry::Counter::SerdeEncodeCalls),
        snap.counter(telemetry::Counter::SerdeFastPathHits)
    );
    assert_eq!(snap.counter(telemetry::Counter::SerdeSlowPathHits), 0);
    app.shutdown();
}
