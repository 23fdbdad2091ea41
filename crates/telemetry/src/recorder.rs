//! The [`Recorder`]: the shared sink every instrumented layer writes to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::hist::AtomicHistogram;
use crate::shard::PerThread;
use crate::snapshot::Snapshot;
use crate::{Counter, Gauge, Hist};

/// Every live recorder, so whole-process exports can [`aggregate`]
/// without threading handles through each experiment's call graph.
fn registry() -> &'static Mutex<Vec<Weak<Recorder>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<Recorder>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Final snapshots of recorders that have been dropped, merged into one
/// accumulator so [`aggregate`] still reflects completed runs
/// (experiment binaries shut their apps down before exporting).
fn graveyard() -> &'static Mutex<Snapshot> {
    static GRAVEYARD: OnceLock<Mutex<Snapshot>> = OnceLock::new();
    GRAVEYARD.get_or_init(|| Mutex::new(Snapshot::default()))
}

/// A fixed set of metrics.
///
/// One recorder is created per [`CostModel`] (so per app/enclave) and
/// shared by `Arc` through every layer that instrument points live
/// in. Counters and histograms live in per-thread shards
/// ([`crate::shard`]): recording one is a plain load and store on a
/// line only the recording thread writes, and reads sum the shards.
/// Gauges keep their max and last-value semantics in one shared
/// atomic each. Recording never blocks and never takes a lock.
///
/// [`CostModel`]: ../sgx_sim/cost/struct.CostModel.html
pub struct Recorder {
    shards: PerThread<Shard>,
    gauges: [AtomicU64; Gauge::COUNT],
}

/// One thread's counters and histograms, built straight on the heap.
/// Each histogram (0.5 KiB) is allocated on the thread's first record
/// into it, so creating a shard, which an app's launch does on its
/// first event, allocates 0.7 KiB rather than a block for every
/// histogram (8 KiB).
struct Shard {
    counters: Box<[AtomicU64; Counter::COUNT]>,
    hists: Box<[OnceLock<Box<AtomicHistogram>>; Hist::COUNT]>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard { counters: on_heap(AtomicU64::default), hists: on_heap(OnceLock::new) }
    }
}

/// `N` values from `new`, written into one heap block as they are made.
fn on_heap<T, const N: usize>(new: impl FnMut() -> T) -> Box<[T; N]> {
    let block: Box<[T]> = std::iter::repeat_with(new).take(N).collect();
    match block.try_into() {
        Ok(array) => array,
        Err(_) => unreachable!("the block holds exactly N values"),
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates a recorder and registers it for process-wide
    /// [`aggregate`] exports.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Recorder> {
        let recorder = Arc::new(Recorder {
            shards: PerThread::new(),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(&recorder));
        recorder
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.shards.update(|shard, add| add.to(&shard.counters[counter as usize], delta));
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Reads a counter's current value: the sum of its shards.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.shards.sum(|shard| shard.counters[counter as usize].load(Ordering::Relaxed))
    }

    /// Raises a high-water-mark gauge to `value` if it is larger than
    /// every previously reported value.
    pub fn gauge_max(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Overwrites a gauge with `value` (last-value semantics, for
    /// gauges that track a current setting rather than a peak — e.g.
    /// [`Gauge::SwitchlessTargetBatch`]).
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Reads a gauge's high-water mark.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn record(&self, hist: Hist, value: u64) {
        self.shards.update(|shard, add| {
            let hist = shard.hists[hist as usize].get_or_init(|| Box::new(AtomicHistogram::new()));
            hist.record(value, add);
        });
    }

    /// Records a nanosecond duration into a histogram (alias of
    /// [`Recorder::record`] that reads naturally at call sites
    /// charging model time).
    pub fn record_ns(&self, hist: Hist, ns: u64) {
        self.record(hist, ns);
    }

    /// Freezes every metric into a [`Snapshot`], summing the shards.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot {
            gauges: std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed)),
            ..Snapshot::default()
        };
        self.shards.for_each(|shard| {
            for (total, counter) in snap.counters.iter_mut().zip(shard.counters.iter()) {
                *total = total.wrapping_add(counter.load(Ordering::Relaxed));
            }
            for (total, hist) in snap.hists.iter_mut().zip(shard.hists.iter()) {
                if let Some(hist) = hist.get() {
                    total.merge(&hist.snapshot());
                }
            }
        });
        snap
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // Preserve the totals for whole-process aggregation after the
        // owning app is gone.
        let mut grave = graveyard().lock().unwrap_or_else(|e| e.into_inner());
        grave.merge(&self.snapshot());
    }
}

/// Merges the snapshots of every recorder this process has created:
/// live recorders plus the accumulated totals of dropped ones.
///
/// Experiment binaries create one app (and so one recorder) per data
/// point and shut each app down when the point completes; this is how
/// `--telemetry-out` captures the run's total boundary activity without
/// plumbing recorder handles through every figure function.
pub fn aggregate() -> Snapshot {
    let recorders: Vec<Arc<Recorder>> = {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.iter().filter_map(Weak::upgrade).collect()
    };
    let mut total = graveyard().lock().unwrap_or_else(|e| e.into_inner()).clone();
    for recorder in recorders {
        total.merge(&recorder.snapshot());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Recorder::new();
        r.incr(Counter::Ecalls);
        r.add(Counter::BytesIn, 100);
        r.gauge_max(Gauge::RegistrySizePeak, 5);
        r.gauge_max(Gauge::RegistrySizePeak, 3);
        assert_eq!(r.counter(Counter::Ecalls), 1);
        assert_eq!(r.counter(Counter::BytesIn), 100);
        assert_eq!(r.gauge(Gauge::RegistrySizePeak), 5);
    }

    #[test]
    fn gauge_set_overwrites_rather_than_maxing() {
        let r = Recorder::new();
        r.gauge_set(Gauge::SwitchlessTargetBatch, 8);
        r.gauge_set(Gauge::SwitchlessTargetBatch, 2);
        assert_eq!(r.gauge(Gauge::SwitchlessTargetBatch), 2);
    }

    #[test]
    fn wall_and_model_histograms_declare_their_clock_in_the_unit() {
        // Pins the clock split: `rmi.call_ns` carries cost-clock
        // charges (exec/ctx.rs), `gc.pause_ns` carries host time
        // (runtime-sim's collector). Mixing them in one histogram was
        // the PR-1 bug this guards against.
        assert_eq!(Hist::RmiCallNs.unit(), "model_ns");
        assert_eq!(Hist::SwitchlessCallNs.unit(), "model_ns");
        assert_eq!(Hist::SwitchlessQueueWaitNs.unit(), "model_ns");
        assert_eq!(Hist::GcPauseNs.unit(), "wall_ns");
    }

    #[test]
    fn aggregate_sums_live_recorders() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.add(Counter::MeeBytes, 7);
        b.add(Counter::MeeBytes, 5);
        let total = aggregate();
        // Other tests' recorders may be alive too, so >= not ==.
        assert!(total.counter(Counter::MeeBytes) >= 12);
    }

    #[test]
    fn dropped_recorders_keep_contributing_via_the_graveyard() {
        let r = Recorder::new();
        r.add(Counter::WeakDeadFound, 1_000_000);
        drop(r);
        let total = aggregate();
        // Concurrent tests may add more, so >= rather than ==.
        assert!(total.counter(Counter::WeakDeadFound) >= 1_000_000);
    }

    #[test]
    fn gauge_set_levels_survive_app_drop_into_the_aggregate() {
        // Last-value gauges ride the same graveyard merge as counters
        // when their app (and so its recorder) is dropped. The merge
        // maxes gauges, so the distinctive level must be visible as a
        // floor in the aggregate afterwards.
        let r = Recorder::new();
        r.gauge_set(Gauge::SwitchlessQueueDepth, 41);
        r.gauge_set(Gauge::SwitchlessQueueDepth, 37_777);
        assert_eq!(r.gauge(Gauge::SwitchlessQueueDepth), 37_777, "set overwrites");
        drop(r);
        let total = aggregate();
        assert!(
            total.gauge(Gauge::SwitchlessQueueDepth) >= 37_777,
            "graveyard lost the last-value gauge: {}",
            total.gauge(Gauge::SwitchlessQueueDepth)
        );
    }
}
