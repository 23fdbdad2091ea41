//! Determinism contract of the open-loop traffic harness.
//!
//! The CI latency gate compares percentiles against a committed
//! baseline, so the generator must be bit-reproducible: same seed →
//! byte-identical arrival schedule and op mix, and the deterministic
//! `sim-sgx-classic` lane must report identical percentiles across
//! runs. Property tests pin the zipfian sampler to its key-space
//! bound for arbitrary spaces and draws.

use experiments::traffic::{
    arrival_schedule, lanes, op_schedule, run_lane, GcChurn, TrafficConfig, ZipfSampler,
};
use proptest::prelude::*;
use runtime_sim::heap::CollectorKind;
use specjvm::montecarlo::Lcg;
use telemetry::{Counter, Gauge};

fn tiny() -> TrafficConfig {
    TrafficConfig { requests: 120, key_space: 64, ..TrafficConfig::quick() }
}

/// A tiny run with managed-heap churn riding on the request stream, so
/// the collector actually runs during the lane.
fn churny(collector: CollectorKind) -> TrafficConfig {
    TrafficConfig {
        collector: Some(collector),
        gc_churn: Some(GcChurn { every: 10, garbage_bytes: 64 * 1024 }),
        ..tiny()
    }
}

#[test]
fn same_seed_gives_byte_identical_schedules() {
    let cfg = tiny();
    assert_eq!(arrival_schedule(&cfg), arrival_schedule(&cfg));
    assert_eq!(op_schedule(&cfg), op_schedule(&cfg));
}

#[test]
fn different_seeds_give_different_schedules() {
    let a = tiny();
    let b = TrafficConfig { seed: a.seed + 1, ..tiny() };
    assert_ne!(arrival_schedule(&a), arrival_schedule(&b));
}

#[test]
fn gated_lane_percentiles_are_identical_across_runs() {
    let cfg = tiny();
    let gated = lanes()[0];
    assert_eq!(gated.name, "sim-sgx-classic", "lane order pins the gated lane first");
    let a = run_lane(gated, &cfg).expect("first run");
    let b = run_lane(gated, &cfg).expect("second run");
    assert_eq!(a.latencies_ns, b.latencies_ns, "per-request latencies are bit-identical");
    assert_eq!(
        (a.latency.p50_ns, a.latency.p95_ns, a.latency.p99_ns),
        (b.latency.p50_ns, b.latency.p95_ns, b.latency.p99_ns),
        "p50/p95/p99 are identical across runs"
    );
    assert_eq!(a.checksum, b.checksum, "response checksums are identical");
    assert_eq!(a.model_time_ns, b.model_time_ns, "charged model time is identical");
}

#[test]
fn gated_lane_timeseries_exports_are_byte_identical_across_runs() {
    let cfg = tiny();
    let gated = lanes()[0];
    // Warm the process-wide serde buffer pools first: the very first
    // run in a process takes a few unpooled allocations (its
    // `serde.pooled_bytes` differs), so byte-identical exports only
    // hold between steady-state runs.
    let _ = run_lane(gated, &cfg).expect("warm-up run");
    let a = run_lane(gated, &cfg).expect("first run");
    let b = run_lane(gated, &cfg).expect("second run");
    let a = a.timeseries.expect("flight recorder on by default");
    let b = b.timeseries.expect("flight recorder on by default");
    assert!(!a.windows.is_empty(), "the run spans at least one window");
    assert_eq!(a.dropped, 0, "the tiny run fits the default ring");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "seeded runs export byte-identical montsalvat.timeseries/v1 documents"
    );
    assert_eq!(a.to_prometheus(), b.to_prometheus(), "expositions are identical too");
}

#[test]
fn gated_lane_is_byte_identical_per_collector_and_checksums_agree_across_them() {
    let gated = lanes()[0];
    let mut checksums = Vec::new();
    for collector in [CollectorKind::Semispace, CollectorKind::Block] {
        let cfg = churny(collector);
        let a = run_lane(gated, &cfg).expect("first run");
        let b = run_lane(gated, &cfg).expect("second run");
        assert_eq!(
            a.latencies_ns,
            b.latencies_ns,
            "{}: per-request latencies are bit-identical across runs",
            collector.name()
        );
        assert_eq!(a.checksum, b.checksum, "{}: checksums identical", collector.name());
        assert_eq!(
            a.model_time_ns,
            b.model_time_ns,
            "{}: charged model time identical",
            collector.name()
        );
        assert!(
            a.snap.counter(Counter::GcCollections) > 0,
            "{}: the churn must drive real collections",
            collector.name()
        );
        checksums.push(a.checksum);
    }
    // The collector is invisible to the application: both lanes serve
    // byte-identical responses.
    assert_eq!(checksums[0], checksums[1], "response stream is collector-independent");
}

#[test]
fn gc_gauges_and_counters_reconcile_with_flight_recorder_windows() {
    let cfg = churny(CollectorKind::Block);
    let lane = run_lane(lanes()[0], &cfg).expect("block-collector lane runs");
    let series = lane.timeseries.as_ref().expect("flight recorder on by default");
    assert!(lane.snap.counter(Counter::GcMinorCollections) > 0, "churn drives minors");
    assert!(lane.snap.counter(Counter::GcMajorCollections) > 0, "churn escalates to majors");

    // Counter deltas across windows must sum exactly to the lane
    // aggregate, GC included.
    for counter in
        [Counter::GcCollections, Counter::GcMinorCollections, Counter::GcMajorCollections]
    {
        let window_sum: u64 = series.windows.iter().map(|w| w.delta.counter(counter)).sum();
        assert_eq!(
            window_sum,
            lane.snap.counter(counter),
            "window deltas must sum to the aggregate for {}",
            counter.metric_name()
        );
    }
    // Gauges report the level at window close, so the final window must
    // agree with the end-of-run snapshot.
    let last = series.windows.last().expect("run spans at least one window");
    for gauge in [Gauge::GcBlocksLive, Gauge::GcBlocksFree] {
        assert_eq!(
            last.delta.gauge(gauge),
            lane.snap.gauge(gauge),
            "final window level must match the snapshot for {}",
            gauge.metric_name()
        );
    }
    assert!(lane.snap.gauge(Gauge::GcBlocksLive) > 0, "standing state keeps blocks live");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every zipfian draw lands strictly inside the configured key
    /// space, for arbitrary spaces, exponents and uniform draws.
    #[test]
    fn zipf_respects_key_space_bound(
        key_space in 1usize..600,
        exponent in 0.1f64..2.5,
        seed in any::<u64>(),
    ) {
        let zipf = ZipfSampler::new(key_space, exponent);
        let mut rng = Lcg::new(seed);
        for _ in 0..256 {
            let key = zipf.sample(rng.next_f64());
            prop_assert!(key < key_space, "key {key} outside space {key_space}");
        }
        // Edge draws stay in range too.
        prop_assert!(zipf.sample(0.0) < key_space);
        prop_assert!(zipf.sample(1.0) < key_space);
    }

    /// The arrival schedule is a pure function of the config.
    #[test]
    fn arrival_schedule_is_pure(seed in any::<u64>()) {
        let cfg = TrafficConfig { seed, requests: 64, ..TrafficConfig::quick() };
        prop_assert_eq!(arrival_schedule(&cfg), arrival_schedule(&cfg));
    }
}
