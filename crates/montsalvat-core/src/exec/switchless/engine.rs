//! The thread-per-worker switchless engine (PR 2's adaptive pool).
//!
//! This module implements the *adaptive* engine modeled on the Intel
//! SGX switchless library:
//!
//! - **Per-side worker pools** whose workers park when idle (a bounded
//!   wait on the mailbox) and are woken on demand; a wakeup from a
//!   parked state is charged [`CostParams::switchless_wake_ns`].
//! - **A bounded mailbox with classic fallback**: a caller that finds
//!   the mailbox full does not block — it pays a small probe charge
//!   ([`CostParams::switchless_fallback_ns`]) and performs a classic
//!   EENTER/EEXIT crossing instead, so the engine degrades to the
//!   classic path under overload instead of queueing without bound.
//! - **Miss-driven adaptive scaling**: posts that find no idle worker
//!   (or a full mailbox) count as *misses*; accumulated misses spawn
//!   another worker up to [`SwitchlessConfig::max_workers`], and
//!   workers that stay idle past [`SwitchlessConfig::idle_park`]
//!   retire down to [`SwitchlessConfig::min_workers`].
//! - **Small-batch drain**: a woken worker serves up to
//!   [`SwitchlessConfig::max_batch`] queued requests per wakeup,
//!   moving them across the boundary as one [`rmi::batch`] frame so
//!   the wake and the frame header amortise across the batch.
//!
//! The reproduction implements the mechanism with real threads and
//! real mailboxes: requests genuinely execute on a worker of the
//! opposite world, concurrently with the caller, and the cost model
//! charges the switchless hand-off instead of the transition. The
//! ablation binary `experiments/src/bin/switchless_ablation.rs` and
//! the `switchless_*` tests compare fixed pools, the adaptive engine
//! and classic crossings.
//!
//! [`CostParams::switchless_wake_ns`]: sgx_sim::cost::CostParams::switchless_wake_ns
//! [`CostParams::switchless_fallback_ns`]: sgx_sim::cost::CostParams::switchless_fallback_ns

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use sgx_sim::cost::CostModel;

use super::{PostOutcome, ServeFn, SideStats, SwitchlessConfig, SwitchlessJob, SwitchlessStats};
use crate::annotation::Side;
use crate::error::VmError;
use crate::exec::ctx::{Crossing, WireMsg};

/// Worker-shared state of one side's pool.
struct SideState {
    side: Side,
    rx: Receiver<SwitchlessJob>,
    /// Resident workers; the scaling invariant
    /// `min_workers ≤ active ≤ max_workers` is maintained by CAS.
    active: AtomicUsize,
    /// Workers parked on (or about to poll) the mailbox.
    idle: AtomicUsize,
    /// Jobs posted and not yet picked up.
    queued: AtomicUsize,
    /// Misses accumulated since the last scale-up.
    misses: AtomicU64,
    /// Set when the pool drops; parked workers exit at their next poll.
    stop: AtomicBool,
}

/// The per-application switchless machinery: one bounded mailbox per
/// side, served by that side's adaptively-sized worker pool. Dropping
/// the pool stops and joins every worker.
pub(crate) struct SwitchlessPool {
    config: SwitchlessConfig,
    serve: ServeFn,
    cost: Arc<CostModel>,
    /// The trusted then the untrusted mailbox; emptied on drop, which
    /// disconnects the workers.
    mailboxes: Vec<Sender<SwitchlessJob>>,
    trusted: Arc<SideState>,
    untrusted: Arc<SideState>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_seq: AtomicUsize,
}

impl std::fmt::Debug for SwitchlessPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchlessPool")
            .field("config", &self.config)
            .field("trusted_workers", &self.trusted.active.load(Ordering::Relaxed))
            .field("untrusted_workers", &self.untrusted.active.load(Ordering::Relaxed))
            .finish()
    }
}

impl SwitchlessPool {
    /// Spawns `min_workers` per side. `serve` is the relay dispatcher
    /// bound to the application (it captures `AppShared`); `cost` is
    /// the application's cost model, whose recorder receives the
    /// engine's telemetry.
    pub(crate) fn spawn(config: &SwitchlessConfig, serve: ServeFn, cost: Arc<CostModel>) -> Self {
        let config = config.normalized();
        let (trusted_tx, trusted_rx) = bounded::<SwitchlessJob>(config.mailbox_capacity);
        let (untrusted_tx, untrusted_rx) = bounded::<SwitchlessJob>(config.mailbox_capacity);
        let side_state = |side: Side, rx: Receiver<SwitchlessJob>| {
            Arc::new(SideState {
                side,
                rx,
                active: AtomicUsize::new(0),
                idle: AtomicUsize::new(0),
                queued: AtomicUsize::new(0),
                misses: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            })
        };
        // The drain bound is fixed for the pool's life; the gauge reports
        // the bound in force.
        cost.recorder().gauge_set(telemetry::Gauge::SwitchlessTargetBatch, config.max_batch as u64);
        let pool = SwitchlessPool {
            config,
            serve,
            cost,
            mailboxes: vec![trusted_tx, untrusted_tx],
            trusted: side_state(Side::Trusted, trusted_rx),
            untrusted: side_state(Side::Untrusted, untrusted_rx),
            workers: Mutex::new(Vec::new()),
            worker_seq: AtomicUsize::new(0),
        };
        for side in [Side::Trusted, Side::Untrusted] {
            let state = Arc::clone(pool.side(side));
            for _ in 0..pool.config.min_workers {
                state.active.fetch_add(1, Ordering::Relaxed);
                pool.spawn_worker(&state);
            }
            pool.cost
                .recorder()
                .gauge_max(telemetry::Gauge::SwitchlessWorkersPeak, pool.config.min_workers as u64);
            pool.cost
                .recorder()
                .gauge_set(telemetry::Gauge::SwitchlessWorkers, pool.config.min_workers as u64);
        }
        pool
    }

    fn side(&self, side: Side) -> &Arc<SideState> {
        match side {
            Side::Trusted => &self.trusted,
            Side::Untrusted => &self.untrusted,
        }
    }

    fn tx(&self, side: Side) -> &Sender<SwitchlessJob> {
        match side {
            Side::Trusted => &self.mailboxes[0],
            Side::Untrusted => &self.mailboxes[1],
        }
    }

    /// Live worker/queue readings (tests and the ablation harness).
    pub(crate) fn stats(&self) -> SwitchlessStats {
        let read = |s: &SideState| SideStats {
            workers: s.active.load(Ordering::Relaxed),
            idle: s.idle.load(Ordering::Relaxed),
            queued: s.queued.load(Ordering::Relaxed),
        };
        SwitchlessStats { trusted: read(&self.trusted), untrusted: read(&self.untrusted) }
    }

    /// Posts a call to `side`'s mailbox. On a hit, blocks for the
    /// reply; on a full mailbox, charges the probe and hands the unsent
    /// message back in [`PostOutcome::Fallback`] so the caller performs
    /// a classic crossing with it instead of blocking.
    pub(crate) fn post(
        &self,
        side: Side,
        crossing: Arc<Crossing>,
        msg: WireMsg,
    ) -> Result<PostOutcome, VmError> {
        let state = self.side(side);
        let recorder = self.cost.recorder();
        // Pressure signal: a post that finds every worker busy is a
        // miss even if the mailbox still has room.
        if state.idle.load(Ordering::Relaxed) == 0 {
            recorder.incr(telemetry::Counter::SwitchlessMisses);
            state.misses.fetch_add(1, Ordering::Relaxed);
            self.maybe_scale_up(state);
        }
        let (reply_tx, reply_rx) = bounded(1);
        let posted = self.cost.tracer().stamp(|| self.cost.charged_ns());
        let job = SwitchlessJob { crossing, msg, reply: reply_tx, posted };
        state.queued.fetch_add(1, Ordering::Relaxed);
        match self.tx(side).try_send(job) {
            Ok(()) => {
                let queued = state.queued.load(Ordering::Relaxed) as u64;
                recorder.gauge_max(telemetry::Gauge::SwitchlessQueueDepthPeak, queued);
                recorder.gauge_set(telemetry::Gauge::SwitchlessQueueDepth, queued);
                // The hand-off itself; the worker charges the wake and
                // the batched boundary copy when it drains the mailbox.
                self.cost.charge_ns(self.cost.params().switchless_call_ns);
                match reply_rx.recv() {
                    Ok(out) => Ok(PostOutcome::Served(out)),
                    Err(_) => Err(VmError::Sgx(sgx_sim::SgxError::EnclaveLost)),
                }
            }
            Err(TrySendError::Full(job)) => {
                state.queued.fetch_sub(1, Ordering::Relaxed);
                recorder.incr(telemetry::Counter::SwitchlessFallbacks);
                recorder.incr(telemetry::Counter::SwitchlessMisses);
                state.misses.fetch_add(1, Ordering::Relaxed);
                self.maybe_scale_up(state);
                self.cost.charge_ns(self.cost.params().switchless_fallback_ns);
                Ok(PostOutcome::Fallback(job.msg))
            }
            Err(TrySendError::Disconnected(_)) => {
                state.queued.fetch_sub(1, Ordering::Relaxed);
                Err(VmError::Sgx(sgx_sim::SgxError::EnclaveLost))
            }
        }
    }

    /// Spawns one more worker on `state`'s side if miss pressure has
    /// accumulated and the pool is below `max_workers`.
    fn maybe_scale_up(&self, state: &Arc<SideState>) {
        if state.misses.load(Ordering::Relaxed) < self.config.scale_up_misses {
            return;
        }
        loop {
            let n = state.active.load(Ordering::Relaxed);
            if n >= self.config.max_workers {
                return;
            }
            if state.active.compare_exchange(n, n + 1, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                state.misses.store(0, Ordering::Relaxed);
                let recorder = self.cost.recorder();
                recorder.incr(telemetry::Counter::SwitchlessScaleUps);
                recorder.gauge_max(telemetry::Gauge::SwitchlessWorkersPeak, (n + 1) as u64);
                recorder.gauge_set(telemetry::Gauge::SwitchlessWorkers, (n + 1) as u64);
                self.spawn_worker(state);
                return;
            }
        }
    }

    /// Spawns one worker thread for `state`'s side. The caller has
    /// already counted it in `state.active`.
    fn spawn_worker(&self, state: &Arc<SideState>) {
        let seq = self.worker_seq.fetch_add(1, Ordering::Relaxed);
        let state = Arc::clone(state);
        let serve = Arc::clone(&self.serve);
        let cost = Arc::clone(&self.cost);
        let config = self.config.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{}-switchless-{seq}", state.side))
            .spawn(move || worker_loop(&state, &serve, &cost, &config))
            .expect("spawn switchless worker");
        self.workers.lock().push(handle);
    }
}

impl Drop for SwitchlessPool {
    /// Stops the workers: parked workers exit at their next poll, the
    /// mailboxes are closed, and every thread is joined.
    fn drop(&mut self) {
        self.trusted.stop.store(true, Ordering::Relaxed);
        self.untrusted.stop.store(true, Ordering::Relaxed);
        self.mailboxes.clear();
        let handles = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// One worker: park on the mailbox, wake for a job, drain a small
/// batch, serve it, repeat; retire when idle past the park interval
/// and the pool is above its minimum.
fn worker_loop(
    state: &SideState,
    serve: &ServeFn,
    cost: &Arc<CostModel>,
    config: &SwitchlessConfig,
) {
    let recorder = Arc::clone(cost.recorder());
    let params = cost.params().clone();
    // A fresh worker is parked until its first job: waking it costs.
    let mut parked = true;
    state.idle.fetch_add(1, Ordering::Relaxed);
    loop {
        match state.rx.recv_timeout(config.idle_park) {
            Ok(job) => {
                state.idle.fetch_sub(1, Ordering::Relaxed);
                state.queued.fetch_sub(1, Ordering::Relaxed);
                if parked {
                    recorder.incr(telemetry::Counter::SwitchlessWorkerWakes);
                    cost.charge_ns(params.switchless_wake_ns);
                    parked = false;
                }
                // Batch drain: serve whatever else is already queued,
                // up to the batch bound, on this same wakeup.
                let mut batch = vec![job];
                while batch.len() < config.max_batch {
                    match state.rx.try_recv() {
                        Ok(next) => {
                            state.queued.fetch_sub(1, Ordering::Relaxed);
                            batch.push(next);
                        }
                        Err(_) => break,
                    }
                }
                recorder.record(telemetry::Hist::SwitchlessBatchJobs, batch.len() as u64);
                // The whole drained batch crosses as one batch frame:
                // one header, then each request's wire bytes. Tracing
                // adds nothing to the frame, so it cannot change the
                // charge.
                let wire_lens: Vec<usize> = batch.iter().map(|j| j.msg.wire_len()).collect();
                let frame_bytes = rmi::batch::frame_len(&wire_lens);
                let tracer = cost.tracer();
                cost.charge_ns((frame_bytes as f64 * params.copy_ns_per_byte) as u64);
                for job in batch {
                    // Queue wait — post to pickup — attributed as its
                    // own span under the caller's rmi span, never
                    // inside the execution span.
                    if let Some(posted) = job.posted {
                        let picked_up = cost.charged_ns();
                        tracer.span_at(
                            state.side.lane(),
                            "queue",
                            job.msg.trace,
                            job.posted,
                            || picked_up,
                            || format!("queue-wait:{}", job.crossing.name),
                        );
                        recorder.record(
                            telemetry::Hist::SwitchlessQueueWaitNs,
                            picked_up.saturating_sub(posted.model_ns),
                        );
                    }
                    // A panicking relay body fails only its own call:
                    // the worker keeps its `active` slot and serves on.
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        serve(state.side, &job.crossing, &job.msg)
                    }))
                    .unwrap_or_else(|_| {
                        Err(VmError::App(format!(
                            "switchless relay {} panicked",
                            job.crossing.name
                        )))
                    });
                    let _ = job.reply.send(out);
                }
                state.idle.fetch_add(1, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Timeout) => {
                if state.stop.load(Ordering::Relaxed) {
                    state.idle.fetch_sub(1, Ordering::Relaxed);
                    state.active.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                // Idle a full park interval: retire if above
                // `min_workers`.
                if try_retire(state, config.min_workers) {
                    recorder.incr(telemetry::Counter::SwitchlessScaleDowns);
                    recorder.gauge_set(
                        telemetry::Gauge::SwitchlessWorkers,
                        state.active.load(Ordering::Relaxed) as u64,
                    );
                    state.idle.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                parked = true;
            }
            Err(RecvTimeoutError::Disconnected) => {
                state.idle.fetch_sub(1, Ordering::Relaxed);
                state.active.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Decrements `state.active` unless that would drop the pool below
/// `min`; returns whether the calling worker should exit.
fn try_retire(state: &SideState, min: usize) -> bool {
    loop {
        let n = state.active.load(Ordering::Relaxed);
        if n <= min {
            return false;
        }
        if state.active.compare_exchange(n, n - 1, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::exec::ctx::RelayKind;
    use runtime_sim::value::ClassId;
    use sgx_sim::cost::{ClockMode, CostParams};

    fn echo_serve() -> ServeFn {
        Arc::new(|_side, _crossing, msg| Ok(msg.clone()))
    }

    /// A serve fn that blocks until `release` is signalled, so tests
    /// can hold the single worker busy deterministically.
    fn gated_serve(entered: Arc<AtomicUsize>, release: Receiver<()>) -> ServeFn {
        Arc::new(move |_side, _crossing, msg| {
            entered.fetch_add(1, Ordering::SeqCst);
            let _ = release.recv();
            Ok(msg.clone())
        })
    }

    fn crossing() -> Arc<Crossing> {
        Arc::new(Crossing {
            class: ClassId(0),
            target: 0,
            kind: RelayKind::Static,
            routine: "ecall_relay_C_r".into(),
            name: "C.r".into(),
        })
    }

    fn msg() -> WireMsg {
        WireMsg { recv_hash: None, hints: Vec::new(), payload: vec![1, 2, 3].into(), trace: None }
    }

    fn model() -> Arc<CostModel> {
        Arc::new(CostModel::new(CostParams::paper_defaults(), ClockMode::Virtual))
    }

    #[test]
    fn served_posts_round_trip() {
        let pool = SwitchlessPool::spawn(&SwitchlessConfig::default(), echo_serve(), model());
        for _ in 0..10 {
            match pool.post(Side::Trusted, crossing(), msg()).unwrap() {
                PostOutcome::Served(out) => assert_eq!(out.unwrap(), msg()),
                PostOutcome::Fallback(_) => panic!("idle pool must not fall back"),
            }
        }
        drop(pool);
    }

    /// The saturation scenario: one worker, a one-slot mailbox, the
    /// worker deterministically held busy. The first post occupies the
    /// worker, the second fills the slot, the third must fall back —
    /// and the fallback telemetry must say so.
    #[test]
    fn saturated_mailbox_falls_back_and_counts_it() {
        let cost = model();
        let entered = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = bounded::<()>(16);
        let config =
            SwitchlessConfig { mailbox_capacity: 1, max_batch: 1, ..SwitchlessConfig::fixed(1) };
        let pool = Arc::new(SwitchlessPool::spawn(
            &config,
            gated_serve(Arc::clone(&entered), release_rx),
            Arc::clone(&cost),
        ));

        // Post A on a helper thread; wait until the worker holds it.
        let pool_a = Arc::clone(&pool);
        let a = std::thread::spawn(move || pool_a.post(Side::Trusted, crossing(), msg()).unwrap());
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // Post B on a helper thread; wait until it occupies the slot.
        let pool_b = Arc::clone(&pool);
        let b = std::thread::spawn(move || pool_b.post(Side::Trusted, crossing(), msg()).unwrap());
        while pool.stats().trusted.queued == 0 {
            std::thread::yield_now();
        }

        // The mailbox is now provably full: this post must fall back.
        let before = cost.recorder().counter(telemetry::Counter::SwitchlessFallbacks);
        match pool.post(Side::Trusted, crossing(), msg()).unwrap() {
            PostOutcome::Fallback(unsent) => assert_eq!(unsent, msg(), "the message comes back"),
            PostOutcome::Served(_) => panic!("full mailbox must fall back"),
        }
        assert_eq!(
            cost.recorder().counter(telemetry::Counter::SwitchlessFallbacks),
            before + 1,
            "fallback telemetry must increment"
        );

        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert!(matches!(a.join().unwrap(), PostOutcome::Served(Ok(_))));
        assert!(matches!(b.join().unwrap(), PostOutcome::Served(Ok(_))));
        match Arc::try_unwrap(pool) {
            Ok(pool) => drop(pool),
            Err(_) => panic!("no other pool handles remain"),
        }
    }

    /// A relay body that panics must fail only its own call with a
    /// typed error; the single worker of a `fixed(1)` pool has no
    /// replacement, so it must survive to serve the next post.
    #[test]
    fn panicking_relay_fails_its_call_and_the_worker_serves_on() {
        let first = Arc::new(AtomicBool::new(true));
        let serve: ServeFn = Arc::new(move |_side, _crossing, msg| {
            if first.swap(false, Ordering::SeqCst) {
                panic!("relay body failure");
            }
            Ok(msg.clone())
        });
        let pool = Arc::new(SwitchlessPool::spawn(&SwitchlessConfig::fixed(1), serve, model()));
        // Post from a helper thread, so a dead worker fails the test on
        // the timeout instead of hanging it.
        let post = |pool: &Arc<SwitchlessPool>| {
            let (tx, rx) = bounded(1);
            let pool = Arc::clone(pool);
            std::thread::spawn(move || {
                let out = pool.post(Side::Trusted, crossing(), msg());
                // Release this handle before replying, so the test's
                // closing `Arc::try_unwrap` cannot race it.
                drop(pool);
                let _ = tx.send(out);
            });
            rx.recv_timeout(Duration::from_secs(10)).expect("post must complete")
        };
        match post(&pool) {
            Ok(PostOutcome::Served(Err(VmError::App(m)))) => {
                assert_eq!(m, "switchless relay C.r panicked");
            }
            Ok(PostOutcome::Served(other)) => {
                panic!("expected the typed panic error, got {other:?}")
            }
            Ok(PostOutcome::Fallback(_)) => panic!("idle pool must not fall back"),
            Err(e) => panic!("expected the typed panic error, got {e:?}"),
        }
        match post(&pool) {
            Ok(PostOutcome::Served(out)) => assert_eq!(out.unwrap(), msg()),
            Ok(PostOutcome::Fallback(_)) => panic!("idle pool must not fall back"),
            Err(e) => panic!("the worker must survive the panic, got {e:?}"),
        }
        assert_eq!(pool.stats().trusted.workers, 1, "the worker keeps its slot");
        match Arc::try_unwrap(pool) {
            Ok(pool) => drop(pool),
            Err(_) => panic!("no other pool handles remain"),
        }
    }

    #[test]
    fn miss_pressure_scales_up_and_idleness_scales_down() {
        let cost = model();
        let entered = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = bounded::<()>(64);
        let config = SwitchlessConfig {
            min_workers: 1,
            max_workers: 3,
            mailbox_capacity: 1,
            scale_up_misses: 1,
            idle_park: Duration::from_millis(5),
            ..SwitchlessConfig::default()
        };
        let pool = Arc::new(SwitchlessPool::spawn(
            &config,
            gated_serve(Arc::clone(&entered), release_rx),
            Arc::clone(&cost),
        ));
        assert_eq!(pool.stats().untrusted.workers, 1);

        // Hold workers busy and keep posting: misses must spawn more
        // workers, but never beyond max_workers. The scale-up counter
        // is monotone, so waiting on it (rather than on the live
        // worker count, which may already be shrinking again) is
        // race-free.
        let mut posters = Vec::new();
        for _ in 0..6 {
            let pool = Arc::clone(&pool);
            posters.push(std::thread::spawn(move || {
                pool.post(Side::Untrusted, crossing(), msg()).unwrap();
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cost.recorder().counter(telemetry::Counter::SwitchlessScaleUps) < 2 {
            assert!(std::time::Instant::now() < deadline, "scale-up never happened");
            std::thread::yield_now();
        }
        let peak = cost.recorder().gauge(telemetry::Gauge::SwitchlessWorkersPeak);
        assert!(peak <= config.max_workers as u64, "peak {peak} beyond max");
        assert!(pool.stats().untrusted.workers <= config.max_workers);

        for _ in 0..16 {
            let _ = release_tx.send(());
        }
        for p in posters {
            // Some posts fell back (mailbox full) — both outcomes end.
            p.join().unwrap();
        }

        // With the load gone, the pool must shrink back to min_workers
        // and no further.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().untrusted.workers > config.min_workers {
            assert!(std::time::Instant::now() < deadline, "scale-down never happened");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.stats().untrusted.workers, config.min_workers);
        assert!(cost.recorder().counter(telemetry::Counter::SwitchlessScaleDowns) >= 1);
        match Arc::try_unwrap(pool) {
            Ok(pool) => drop(pool),
            Err(_) => panic!("no other pool handles remain"),
        }
    }

    #[test]
    fn batch_drain_serves_queued_jobs_in_one_wake() {
        let cost = model();
        let entered = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = bounded::<()>(64);
        let config =
            SwitchlessConfig { mailbox_capacity: 8, max_batch: 4, ..SwitchlessConfig::fixed(1) };
        let pool = Arc::new(SwitchlessPool::spawn(
            &config,
            gated_serve(Arc::clone(&entered), release_rx),
            Arc::clone(&cost),
        ));
        // Occupy the worker first — once `entered` reads 1, its drain
        // for this wakeup is over — and only then queue three more
        // jobs behind it, so they provably sit in the mailbox when the
        // worker's next wakeup drains them.
        let mut posters = Vec::new();
        {
            let pool = Arc::clone(&pool);
            posters.push(std::thread::spawn(move || {
                pool.post(Side::Trusted, crossing(), msg()).unwrap();
            }));
        }
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        for _ in 0..3 {
            let pool = Arc::clone(&pool);
            posters.push(std::thread::spawn(move || {
                pool.post(Side::Trusted, crossing(), msg()).unwrap();
            }));
        }
        while pool.stats().trusted.queued < 3 {
            std::thread::yield_now();
        }
        for _ in 0..8 {
            let _ = release_tx.send(());
        }
        for p in posters {
            p.join().unwrap();
        }
        let snap = cost.recorder().snapshot();
        let batches = snap.hist(telemetry::Hist::SwitchlessBatchJobs);
        assert_eq!(batches.sum, 4, "all four jobs served");
        assert!(batches.count < 4, "at least one wakeup drained a batch: {batches:?}");
        match Arc::try_unwrap(pool) {
            Ok(pool) => drop(pool),
            Err(_) => panic!("no other pool handles remain"),
        }
    }
}
