//! The app's recorder and model clock keep exact totals in per-thread
//! shards (`telemetry::shard`): under contention, as exited threads
//! hand their slots on, and once more threads are alive than there are
//! slots. Every interleaving is forced with barriers (and a spinning
//! start line), not sleeps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::sgx::cost::CostModel;
use montsalvat::telemetry::shard::MAX_SHARDS;
use montsalvat::telemetry::{aggregate, Counter, Hist, HistogramSnapshot, Recorder};

/// The counter and histogram the tests below record into: nothing in a
/// launched, idle app touches either.
const COUNTER: Counter = Counter::TrafficRequests;
const HIST: Hist = Hist::TrafficServiceNs;

/// The bank sample, idle after launch, reporting into `recorder`.
fn launch(recorder: &Arc<Recorder>) -> PartitionedApp {
    let transformed = transform(&bank_program());
    let options = ImageOptions::default();
    let (trusted, untrusted) = build_partitioned_images(&transformed, &options, &options).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        telemetry: Some(Arc::clone(recorder)),
        ..AppConfig::default()
    };
    PartitionedApp::launch(&trusted, &untrusted, config).unwrap()
}

/// What a test's threads added to the counter, the histogram and the
/// clock.
#[derive(Debug, PartialEq, Eq)]
struct Totals {
    counter: u64,
    hist_count: u64,
    hist_sum: u64,
    charged_ns: u64,
}

/// Readings of the recorder and clock, to subtract later ones from.
struct Baseline {
    counter: u64,
    hist: HistogramSnapshot,
    charged_ns: u64,
}

impl Baseline {
    fn take(recorder: &Recorder, cost: &CostModel) -> Baseline {
        Baseline {
            counter: recorder.counter(COUNTER),
            hist: recorder.snapshot().hist(HIST).clone(),
            charged_ns: cost.charged_ns(),
        }
    }

    fn added(&self, recorder: &Recorder, cost: &CostModel) -> Totals {
        let hist = recorder.snapshot().hist(HIST).diff(&self.hist);
        Totals {
            counter: recorder.counter(COUNTER) - self.counter,
            hist_count: hist.count,
            hist_sum: hist.sum,
            charged_ns: cost.charged_ns() - self.charged_ns,
        }
    }
}

/// One update of each kind, as a crossing makes them.
fn record(recorder: &Recorder, cost: &CostModel, value: u64) {
    recorder.incr(COUNTER);
    recorder.record(HIST, value);
    cost.charge_ns(value);
}

#[test]
fn contended_updates_sum_exactly_and_the_clock_never_runs_back() {
    const THREADS: u64 = 8;
    const CALLS: u64 = 10_000;
    let recorder = Recorder::new();
    let app = launch(&recorder);
    let cost = &*app.shared.cost;
    let base = Baseline::take(&recorder, cost);
    let start = Barrier::new(THREADS as usize + 1);
    let running = AtomicU64::new(0);

    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (recorder, start, running) = (&recorder, &start, &running);
                s.spawn(move || {
                    start.wait();
                    // The barrier wakes its waiters one by one, and the
                    // first could finish before the last runs. Waiting,
                    // runnable, until every worker runs keeps the loops
                    // overlapping, so two threads writing one shard
                    // would lose updates here.
                    running.fetch_add(1, Ordering::SeqCst);
                    while running.load(Ordering::SeqCst) < THREADS {
                        std::thread::yield_now();
                    }
                    for i in 0..CALLS {
                        record(recorder, cost, t * CALLS + i);
                    }
                })
            })
            .collect();
        start.wait();
        let mut last = cost.charged_ns();
        while workers.iter().any(|w| !w.is_finished()) {
            let now = cost.charged_ns();
            assert!(now >= last, "the model clock ran back from {last} to {now}");
            last = now;
        }
    });

    let n = THREADS * CALLS;
    let sum = n * (n - 1) / 2;
    let want = Totals { counter: n, hist_count: n, hist_sum: sum, charged_ns: sum };
    assert_eq!(base.added(&recorder, cost), want);
    app.shutdown();
}

#[test]
fn short_lived_threads_hand_their_slots_on_without_losing_counts() {
    const THREADS: u64 = 100;
    let recorder = Recorder::new();
    let app = launch(&recorder);
    let cost = &*app.shared.cost;
    let base = Baseline::take(&recorder, cost);

    for t in 1..=THREADS {
        let recorder = &recorder;
        std::thread::scope(|s| {
            s.spawn(move || record(recorder, cost, t));
        });
    }

    let sum = THREADS * (THREADS + 1) / 2;
    let want = Totals { counter: THREADS, hist_count: THREADS, hist_sum: sum, charged_ns: sum };
    assert_eq!(base.added(&recorder, cost), want);
    app.shutdown();
}

#[test]
fn threads_beyond_the_slots_share_an_exact_overflow_shard() {
    let threads = MAX_SHARDS as u64 + 4;
    let recorder = Recorder::new();
    let app = launch(&recorder);
    let cost = &*app.shared.cost;
    let base = Baseline::take(&recorder, cost);
    let all_alive = Barrier::new(threads as usize);

    std::thread::scope(|s| {
        for t in 1..=threads {
            let (recorder, all_alive) = (&recorder, &all_alive);
            s.spawn(move || {
                // No thread exits, so no slot frees, before every
                // thread has taken a slot or the overflow shard.
                all_alive.wait();
                record(recorder, cost, t);
                all_alive.wait();
            });
        }
    });

    let sum = threads * (threads + 1) / 2;
    let want = Totals { counter: threads, hist_count: threads, hist_sum: sum, charged_ns: sum };
    assert_eq!(base.added(&recorder, cost), want);
    app.shutdown();
}

#[test]
fn a_dropped_recorder_adds_exactly_its_shard_totals_to_the_aggregate() {
    // Nothing else in this test binary records these two.
    const DROPPED: Counter = Counter::TimeseriesDropped;
    const LATENCY: Hist = Hist::TrafficLatencyNs;
    const THREADS: u64 = 8;
    let before = aggregate();
    let recorder = Recorder::new();
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 1..=THREADS {
            let (recorder, start) = (&recorder, &start);
            s.spawn(move || {
                start.wait();
                recorder.add(DROPPED, t);
                recorder.record(LATENCY, t);
            });
        }
    });
    drop(recorder);

    let after = aggregate();
    let sum = THREADS * (THREADS + 1) / 2;
    assert_eq!(after.counter(DROPPED) - before.counter(DROPPED), sum);
    let latency = after.hist(LATENCY).diff(before.hist(LATENCY));
    assert_eq!((latency.count, latency.sum), (THREADS, sum));
}
