//! Tests for the switchless (transition-less) RMI mode — the paper's
//! §7 future-work item. Results must be identical to classic crossings;
//! the transition counters and the model cost must differ.

use montsalvat_core::annotation::Side;
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::samples::bank_program;
use montsalvat_core::transform::transform;
use montsalvat_core::MethodRef;
use runtime_sim::value::Value;
use telemetry::Counter;

fn entries() -> Vec<MethodRef> {
    vec![
        MethodRef::new("Person", "<init>"),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Account", "<init>"),
        MethodRef::new("Account", "balance"),
    ]
}

fn launch(switchless: bool) -> PartitionedApp {
    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(entries());
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

#[test]
fn switchless_results_match_classic() {
    let classic = launch(false);
    let switchless = launch(true);
    assert_eq!(run_bank(&classic), run_bank(&switchless));
    assert_eq!(run_bank(&switchless), Value::Int(75));
    classic.shutdown();
    switchless.shutdown();
}

#[test]
fn switchless_performs_no_transitions() {
    let app = launch(true);
    run_bank(&app);
    let snap = app.telemetry_snapshot();
    assert_eq!(snap.counter(Counter::Ecalls), 0, "no hardware ecalls in switchless mode");
    assert_eq!(snap.counter(Counter::Ocalls), 0);
    assert_eq!(snap.counter(Counter::RmiCalls), 5);
    assert_eq!(snap.counter(Counter::SwitchlessCalls), 5, "calls were served switchlessly");
    app.shutdown();
}

#[test]
fn switchless_is_cheaper_in_model_time() {
    let classic = launch(false);
    let switchless = launch(true);
    let charged = |app: &PartitionedApp| {
        let before = app.shared.cost.charged();
        run_bank(app);
        (app.shared.cost.charged() - before).as_nanos()
    };
    let classic_cost = charged(&classic);
    let switchless_cost = charged(&switchless);
    assert!(
        switchless_cost * 5 < classic_cost,
        "switchless {switchless_cost} ns should be well under classic {classic_cost} ns"
    );
    classic.shutdown();
    switchless.shutdown();
}

#[test]
fn switchless_mirrors_and_gc_consistency_still_work() {
    let app = launch(true);
    run_bank(&app);
    assert_eq!(app.registry_len(Side::Trusted), 2, "two account mirrors");
    app.enter_untrusted(|ctx| {
        ctx.collect_garbage();
        Ok(())
    })
    .unwrap();
    let (released, _) = app.gc_sync_once().unwrap();
    assert_eq!(released, 2);
    app.shutdown();
}

#[test]
fn switchless_shutdown_is_clean_and_repeated_runs_work() {
    for _ in 0..3 {
        let app = launch(true);
        assert_eq!(run_bank(&app), Value::Int(75));
        app.shutdown();
    }
}

#[test]
fn switchless_handles_concurrent_callers() {
    let app = std::sync::Arc::new(launch(true));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let app = std::sync::Arc::clone(&app);
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                assert_eq!(run_bank(&app), Value::Int(75));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
