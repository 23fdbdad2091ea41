//! Switchless equivalence: the switchless pool must change only what a
//! crossing costs, never what it computes or how it is counted.
//!
//! Several concurrent untrusted callers drive `@Trusted TNest.ping(x)`,
//! whose body constructs an `@Untrusted UObj(x)` and reads it back, so
//! every call makes two *nested* crossings back out of the enclave. The
//! same program runs on classic crossings, on the default adaptive pool
//! and on a one-worker pool with a one-slot mailbox (which forces
//! classic fallbacks). Every run must produce the same reply checksum
//! and the same number of crossings, and every switchless crossing must
//! resolve as exactly one hit or one fallback.

#[path = "common/nested.rs"]
mod nested;

use std::sync::Arc;

use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::core::image_builder::build_partitioned_images;
use montsalvat::core::transform::transform;
use montsalvat::runtime::value::Value;
use montsalvat::sgx::cost::ClockMode;
use montsalvat::telemetry::{Counter, Gauge, Hist, Snapshot};

const CALLERS: usize = 4;
const CALLS_PER_CALLER: i64 = 24;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

struct Run {
    checksum: u64,
    calls: u64,
    snap: Snapshot,
}

/// Drives `CALLERS` concurrent callers × `CALLS_PER_CALLER` nested
/// pings through one crossing mode (`None` = classic) and folds every
/// reply, in caller-then-call order, into a checksum.
fn run(switchless: Option<SwitchlessConfig>) -> Run {
    let tp = transform(&nested::nested_program());
    let options = nested::nested_options();
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        switchless,
        ..AppConfig::default()
    };
    let app = Arc::new(PartitionedApp::launch(&t, &u, config).expect("launch"));

    let handles: Vec<_> = (0..CALLERS)
        .map(|caller| {
            let app = Arc::clone(&app);
            std::thread::spawn(move || {
                app.enter_untrusted(|ctx| {
                    let obj = ctx.new_object("TNest", &[])?;
                    let mut replies = Vec::new();
                    for i in 0..CALLS_PER_CALLER {
                        let x = caller as i64 * 1_000_000 + i;
                        let got = ctx.call(&obj, "ping", &[Value::Int(x)])?;
                        assert_eq!(got, Value::Int(x), "a nested ping echoes its argument");
                        replies.push(x);
                    }
                    Ok(replies)
                })
                .expect("caller runs")
            })
        })
        .collect();
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    let mut calls = 0u64;
    for h in handles {
        for x in h.join().expect("caller joins") {
            fnv1a(&mut checksum, &x.to_le_bytes());
            calls += 1;
        }
    }
    let snap = app.telemetry_snapshot();
    Arc::try_unwrap(app).unwrap_or_else(|_| panic!("all callers joined")).shutdown();
    Run { checksum, calls, snap }
}

/// The work-stealing engine is gone: its metrics stay in the export
/// schema, but nothing records into them.
fn assert_scheduler_metrics_are_zero(label: &str, snap: &Snapshot) {
    for counter in [Counter::SchedSteals, Counter::SchedSuspends, Counter::SchedTimeouts] {
        assert_eq!(snap.counter(counter), 0, "{label}: {}", counter.metric_name());
    }
    assert_eq!(snap.gauge(Gauge::SchedInflight), 0, "{label}: rmi.sched_inflight");
    assert_eq!(snap.hist(Hist::SchedTaskWaitNs).count, 0, "{label}: rmi.sched_task_wait_ns");
}

#[test]
fn nested_crossings_agree_between_classic_and_the_switchless_pool() {
    let classic = run(None);
    let expected_calls = (CALLERS as i64 * CALLS_PER_CALLER) as u64;
    assert_eq!(classic.calls, expected_calls);
    assert_eq!(classic.snap.counter(Counter::SwitchlessCalls), 0);
    assert_eq!(classic.snap.counter(Counter::SwitchlessFallbacks), 0);
    assert_scheduler_metrics_are_zero("classic", &classic.snap);
    // One ctor per caller, then an ecall and two nested ocalls per ping.
    let crossings = classic.snap.counter(Counter::RmiCalls);
    assert_eq!(crossings, CALLERS as u64 + 3 * expected_calls);

    let one_slot =
        SwitchlessConfig { mailbox_capacity: 1, max_batch: 1, ..SwitchlessConfig::fixed(1) };
    for (label, config) in
        [("default pool", SwitchlessConfig::default()), ("one-slot pool", one_slot)]
    {
        let pool = run(Some(config));
        let snap = &pool.snap;
        assert_eq!(pool.calls, expected_calls, "{label}: every ping completed");
        assert_eq!(pool.checksum, classic.checksum, "{label}: the pool changes cost, not results");
        assert_eq!(snap.counter(Counter::RmiCalls), crossings, "{label}: same crossings");
        assert_eq!(
            snap.counter(Counter::RmiCalls),
            snap.counter(Counter::SwitchlessCalls) + snap.counter(Counter::SwitchlessFallbacks),
            "{label}: every crossing is one switchless hit or one fallback"
        );
        assert!(snap.counter(Counter::SwitchlessCalls) > 0, "{label}: the pool served crossings");
        assert_scheduler_metrics_are_zero(label, snap);
    }
}
