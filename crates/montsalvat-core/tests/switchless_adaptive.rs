//! Tests for the *adaptive* switchless engine: bounded-mailbox classic
//! fallback, miss-driven scaling, and the worker-count invariants.

use std::sync::Arc;
use std::time::{Duration, Instant};

use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::samples::bank_program;
use montsalvat_core::transform::transform;
use montsalvat_core::MethodRef;
use proptest::prelude::*;
use runtime_sim::value::Value;

fn entries() -> Vec<MethodRef> {
    vec![
        MethodRef::new("Person", "<init>"),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Account", "<init>"),
        MethodRef::new("Account", "balance"),
    ]
}

fn launch(switchless: SwitchlessConfig) -> PartitionedApp {
    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        switchless: Some(switchless),
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

/// A single worker behind a one-slot mailbox, saturated by concurrent
/// callers: some posts must find the mailbox full, fall back to classic
/// crossings (real transitions), and be counted as fallbacks — while
/// every call still returns the right answer.
#[test]
fn saturating_one_worker_falls_back_to_classic_and_counts_it() {
    let app = Arc::new(launch(SwitchlessConfig {
        mailbox_capacity: 1,
        max_batch: 1,
        ..SwitchlessConfig::fixed(1)
    }));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let app = Arc::clone(&app);
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                assert_eq!(run_bank(&app), Value::Int(75));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let snap = app.telemetry_snapshot();
    let calls = snap.counter(telemetry::Counter::RmiCalls);
    let hits = snap.counter(telemetry::Counter::SwitchlessCalls);
    let fallbacks = snap.counter(telemetry::Counter::SwitchlessFallbacks);
    assert_eq!(calls, 1000, "8 callers x 25 runs x 5 crossings");
    assert!(fallbacks > 0, "8 callers against 1 worker and 1 mailbox slot must overflow");
    // Every crossing is exactly one of: switchless hit, classic fallback.
    assert_eq!(calls, hits + fallbacks);
    assert!(snap.counter(telemetry::Counter::SwitchlessMisses) >= fallbacks);

    // The fallbacks performed real transitions; the hits did not.
    let ecalls = snap.counter(telemetry::Counter::Ecalls);
    assert!(ecalls > 0, "fallbacks must cross classically");
}

/// Adaptive scaling under real load: worker wakes and (under pressure)
/// scale-ups are visible in telemetry, and the queue-depth gauge never
/// reports beyond the configured mailbox capacity.
#[test]
fn adaptive_engine_reports_wakes_and_bounded_queue_depth() {
    let config = SwitchlessConfig {
        min_workers: 1,
        max_workers: 4,
        mailbox_capacity: 4,
        scale_up_misses: 2,
        ..SwitchlessConfig::default()
    };
    let app = Arc::new(launch(config.clone()));
    let mut handles = Vec::new();
    for _ in 0..6 {
        let app = Arc::clone(&app);
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                assert_eq!(run_bank(&app), Value::Int(75));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = app.telemetry_snapshot();
    assert!(snap.counter(telemetry::Counter::SwitchlessWorkerWakes) > 0);
    let peak_depth = snap.gauge(telemetry::Gauge::SwitchlessQueueDepthPeak);
    // `queued` is incremented before the mailbox probe, so the gauge may
    // observe the one in-flight probe on top of a full mailbox.
    assert!(
        peak_depth <= config.mailbox_capacity as u64 + 1,
        "queue depth {peak_depth} beyond capacity {}",
        config.mailbox_capacity
    );
    let peak_workers = snap.gauge(telemetry::Gauge::SwitchlessWorkersPeak);
    assert!(
        (config.min_workers as u64..=config.max_workers as u64).contains(&peak_workers),
        "worker peak {peak_workers} outside configured bounds"
    );
}

/// Regression: the crossing accounting must survive the pool actively
/// resizing itself. A hair-trigger miss engine (one miss spawns a
/// worker) behind a two-slot mailbox is driven until it scales up —
/// then every crossing must still be exactly one hit or one fallback,
/// the queue-wait histogram must hold exactly one sample per hit (every
/// post was traced), and the worker count must stay inside its
/// configured bounds throughout.
#[test]
fn miss_driven_resizing_preserves_crossing_and_queue_wait_accounting() {
    let tracer = telemetry::trace::Tracer::new();
    tracer.enable_with_capacity(1 << 20);
    let config = SwitchlessConfig {
        min_workers: 1,
        max_workers: 4,
        mailbox_capacity: 2,
        scale_up_misses: 1,
        idle_park: Duration::from_millis(5),
        ..SwitchlessConfig::default()
    };
    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let app_config = AppConfig {
        gc_helper_interval: None,
        switchless: Some(config.clone()),
        trace: Some(Arc::clone(&tracer)),
        ..AppConfig::default()
    };
    let app = Arc::new(PartitionedApp::launch(&t, &u, app_config).unwrap());

    // Drive concurrent load until the pool has demonstrably grown,
    // sampling the worker-count invariant the whole time.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut handles = Vec::new();
        for _ in 0..6 {
            let app = Arc::clone(&app);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    assert_eq!(run_bank(&app), Value::Int(75));
                }
            }));
        }
        while handles.iter().any(|h| !h.is_finished()) {
            let stats = app.switchless_stats().unwrap();
            for side in [stats.trusted, stats.untrusted] {
                assert!(side.workers >= config.min_workers, "below min: {stats:?}");
                assert!(side.workers <= config.max_workers, "above max: {stats:?}");
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = app.telemetry_snapshot();
        if snap.counter(telemetry::Counter::SwitchlessScaleUps) > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "the pool never scaled up: {snap:?}");
    }

    let snap = app.telemetry_snapshot();
    // Every crossing is exactly one of: switchless hit, classic
    // fallback, however the pool was resized. A side's hits plus
    // fallbacks never exceed that side's calls, so equal totals mean
    // each calling side reconciles too.
    assert_eq!(
        snap.counter(telemetry::Counter::RmiCalls),
        snap.counter(telemetry::Counter::SwitchlessCalls)
            + snap.counter(telemetry::Counter::SwitchlessFallbacks),
        "crossing accounting broke under live resizing"
    );
    // Queue-wait reconciliation: the tracer was on for every post, so
    // each served (hit) job recorded exactly one wait sample.
    assert_eq!(
        snap.hist(telemetry::Hist::SwitchlessQueueWaitNs).count,
        snap.counter(telemetry::Counter::SwitchlessCalls),
        "one queue-wait sample per traced switchless hit"
    );
    // Resizing never touches the drain bound the gauge reports.
    assert_eq!(
        snap.gauge(telemetry::Gauge::SwitchlessTargetBatch),
        config.max_batch as u64,
        "batch target is the configured bound"
    );
    let peak = snap.gauge(telemetry::Gauge::SwitchlessWorkersPeak);
    assert!(peak <= config.max_workers as u64, "worker peak {peak} beyond max");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the configuration and load, the live worker count of
    /// each side never exceeds `max_workers` nor drops below
    /// `min_workers` — sampled continuously while callers hammer the
    /// engine, and after the load drains.
    #[test]
    fn worker_count_stays_within_configured_bounds(
        min_workers in 1usize..3,
        extra in 0usize..3,
        mailbox_capacity in 1usize..5,
        callers in 2usize..5,
    ) {
        let config = SwitchlessConfig {
            min_workers,
            max_workers: min_workers + extra,
            mailbox_capacity,
            scale_up_misses: 1,
            idle_park: Duration::from_millis(5),
            ..SwitchlessConfig::default()
        };
        let app = Arc::new(launch(config.clone()));
        let mut handles = Vec::new();
        for _ in 0..callers {
            let app = Arc::clone(&app);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    assert_eq!(run_bank(&app), Value::Int(75));
                }
            }));
        }
        // Sample the invariant while the load runs.
        while handles.iter().any(|h| !h.is_finished()) {
            let stats = app.switchless_stats().unwrap();
            for side in [stats.trusted, stats.untrusted] {
                prop_assert!(side.workers >= config.min_workers, "below min: {stats:?}");
                prop_assert!(side.workers <= config.max_workers, "above max: {stats:?}");
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        // After the load drains, scale-down must converge back to
        // exactly `min_workers` — and no further.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = app.switchless_stats().unwrap();
            if stats.trusted.workers == config.min_workers
                && stats.untrusted.workers == config.min_workers
            {
                break;
            }
            prop_assert!(Instant::now() < deadline, "never converged to min: {stats:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
