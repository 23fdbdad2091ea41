//! The GC helper thread (§5.5).
//!
//! Montsalvat spawns one helper thread per runtime. Each periodically
//! scans its runtime's proxy weak-reference list; hashes of collected
//! proxies are relayed to the opposite runtime, whose mirror-proxy
//! registry drops the matching strong references — making the mirrors
//! eligible for collection. This module provides the thread harness;
//! the scan-and-relay closure is wired up by the partitioned-application
//! runtime, which owns the worlds and the enclave.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A periodic scanner thread with graceful shutdown.
///
/// The helper runs `tick` every `interval` until stopped or dropped, and
/// counts each completed sweep into its recorder as
/// [`telemetry::Counter::GcHelperSweeps`].
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use rmi::gc_helper::GcHelper;
/// use telemetry::{Counter, Recorder};
///
/// let recorder = Recorder::new();
/// let interval = Duration::from_millis(5);
/// let helper = GcHelper::spawn("trusted-gc-helper", interval, recorder.clone(), || {});
/// std::thread::sleep(Duration::from_millis(40));
/// helper.stop();
/// assert!(recorder.counter(Counter::GcHelperSweeps) > 0);
/// ```
#[derive(Debug)]
pub struct GcHelper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl GcHelper {
    /// Spawns a helper named `name` running `tick` every `interval` and
    /// counting its sweeps into `recorder`.
    pub fn spawn(
        name: impl Into<String>,
        interval: Duration,
        recorder: Arc<telemetry::Recorder>,
        mut tick: impl FnMut() + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    tick();
                    recorder.incr(telemetry::Counter::GcHelperSweeps);
                    // Sleep in short slices so shutdown is prompt even
                    // with long scan intervals.
                    let mut remaining = interval;
                    let slice = Duration::from_millis(5);
                    while remaining > Duration::ZERO && !stop_flag.load(Ordering::Acquire) {
                        let nap = remaining.min(slice);
                        std::thread::sleep(nap);
                        remaining = remaining.saturating_sub(nap);
                    }
                }
            })
            .expect("spawn gc helper thread");
        GcHelper { stop, handle: Some(handle) }
    }

    /// Stops the helper and waits for its thread to exit.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for GcHelper {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn helper_counts_each_sweep() {
        let rec = telemetry::Recorder::new();
        let ran = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&ran);
        let helper = GcHelper::spawn("t", Duration::from_millis(1), rec.clone(), move || {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(30));
        helper.stop();
        let sweeps = rec.counter(telemetry::Counter::GcHelperSweeps);
        assert!(sweeps >= 2, "expected sweeps recorded, got {sweeps}");
        assert_eq!(sweeps, ran.load(Ordering::Relaxed), "one count per completed tick");
    }

    #[test]
    fn stop_is_prompt_even_with_long_interval() {
        let rec = telemetry::Recorder::new();
        let helper = GcHelper::spawn("t", Duration::from_secs(60), rec, || {});
        std::thread::sleep(Duration::from_millis(10));
        let started = std::time::Instant::now();
        helper.stop();
        assert!(started.elapsed() < Duration::from_secs(1), "stop did not block on interval");
    }

    #[test]
    fn drop_stops_the_thread() {
        let ran = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&ran);
        {
            let rec = telemetry::Recorder::new();
            let _helper = GcHelper::spawn("t", Duration::from_millis(1), rec, move || {
                seen.fetch_add(1, Ordering::Relaxed);
            });
            std::thread::sleep(Duration::from_millis(10));
        }
        let after_drop = ran.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ran.load(Ordering::Relaxed), after_drop, "no ticks after drop");
    }
}
