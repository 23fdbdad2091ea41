//! End-to-end telemetry integration: a quickstart-scale partitioned run
//! exports versioned JSON whose counters are nonzero and are exactly the
//! app's recorder — the one store of every count the enclave, the heaps
//! and the RMI layer make.

use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::telemetry::json::Json;
use montsalvat::telemetry::{Counter, Recorder, SCHEMA};

/// Launches the bank sample with an injected recorder (isolated from
/// any other app running in the test process), runs `main` plus a GC
/// cycle, and returns the app alongside its recorder.
fn quickstart_run() -> (PartitionedApp, std::sync::Arc<Recorder>) {
    let transformed = transform(&bank_program());
    let (trusted, untrusted) =
        build_partitioned_images(&transformed, &ImageOptions::default(), &ImageOptions::default())
            .unwrap();
    let recorder = Recorder::new();
    let config = AppConfig {
        gc_helper_interval: None,
        telemetry: Some(recorder.clone()),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    app.run_main().unwrap();
    // In-enclave scratch I/O relays through the libc shim: one ecall to
    // enter, ocalls for the file operations.
    app.enter_trusted(|ctx| ctx.io_write(1024)).unwrap();
    app.enter_untrusted(|ctx| {
        ctx.collect_garbage();
        Ok(())
    })
    .unwrap();
    app.gc_sync_once().unwrap();
    (app, recorder)
}

#[test]
fn exported_json_carries_the_recorders_counts() {
    let (app, recorder) = quickstart_run();
    let json = recorder.snapshot().to_json();

    assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
    let doc = Json::parse(&json).expect("the export parses");
    let counter = |name: &str| doc.at(&["counters", name, "value"]).and_then(Json::as_u64);

    // Nonzero activity: the bank app crosses the boundary and collects.
    assert!(counter("sgx.ecalls").unwrap() > 0, "quickstart run must perform ecalls");
    assert!(counter("sgx.ocalls").unwrap() > 0, "gc_sync_once exits the enclave");
    assert!(counter("gc.collections").unwrap() > 0, "the run must collect at least once");

    // The export is the app's recorder, count for count.
    assert!(std::sync::Arc::ptr_eq(app.telemetry(), &recorder));
    for &c in Counter::ALL {
        assert_eq!(counter(c.metric_name()), Some(recorder.counter(c)), "{}", c.metric_name());
    }

    // The RMI layer reports into the same recorder.
    assert_eq!(counter("rmi.calls"), Some(6));
    assert_eq!(counter("rmi.bytes_serialized"), Some(105));
    assert_eq!(counter("rmi.proxies_created"), Some(3));
    assert_eq!(counter("rmi.mirrors_created"), Some(3));
    app.shutdown();
}

#[test]
fn injected_recorders_isolate_concurrent_apps() {
    let (app_a, rec_a) = quickstart_run();
    let ecalls_a = rec_a.counter(Counter::Ecalls);
    app_a.shutdown();

    let (app_b, rec_b) = quickstart_run();
    // The second run's recorder starts from zero: app A's activity did
    // not leak into it.
    assert_eq!(rec_b.counter(Counter::Ecalls), ecalls_a, "B counts one run's ecalls");
    assert_eq!(rec_a.counter(Counter::Ecalls), ecalls_a, "app B did not write into A");
    app_b.shutdown();
}

#[test]
fn snapshot_counters_match_live_reads() {
    let (app, recorder) = quickstart_run();
    let snap = app.telemetry_snapshot();
    for &c in Counter::ALL.iter() {
        assert_eq!(snap.counter(c), recorder.counter(c), "{}", c.metric_name());
    }
    app.shutdown();
}
