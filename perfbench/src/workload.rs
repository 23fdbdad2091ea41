//! The trial loop every workload shares: launching the program through
//! its public entry points, replaying the seeded requests, timing both
//! clocks, and the open-loop model-time replay.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use montsalvat_core::class::{MethodRef, Program};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::ctx::Ctx;
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use montsalvat_core::{Side, VmError};
use runtime_sim::value::Value;
use sgx_sim::cost::ClockMode;
use telemetry::trace::Tracer;
use telemetry::{Counter, Snapshot};

use crate::probe::{Crossing, Probes};
use crate::spans::{enter, SpanName, Spans};
use crate::stats;

/// Ops between folds of the traced run's spans (bounds span memory).
const FOLD_EVERY: usize = 4096;
/// Ops between clears of the program tracer's ring in the tracing-cost
/// segment, well below the default ring size per lane.
const CLEAR_TRACER_EVERY: usize = 256;
/// Every this many ops, the traced run probes the `rmi` and `sgx` layers.
const PROBE_EVERY: usize = 64;
/// Timed slices of a trial's request loop (see [`Trial::chunks`]).
pub const CHUNKS: usize = 64;

/// A running hash of responses: cheap enough to fold every reply inside
/// the timed loop, strong enough that one flipped byte changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xCBF2_9CE4_8422_2325)
    }
}

impl Checksum {
    /// Folds one 64-bit word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
    }

    /// Folds a byte string (length included, so prefixes differ).
    pub fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
        self.word(b.len() as u64);
    }

    /// Folds a reply value of the benchmark's services.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Bytes(b) => self.bytes(b),
            Value::Int(i) => self.word(*i as u64),
            Value::List(items) => {
                for item in items {
                    self.value(item);
                }
                self.word(items.len() as u64);
            }
            other => self.word(other.shallow_size() ^ 0xFFFF),
        }
    }
}

/// A workload program plus the host-side state its service bodies share.
pub struct Built<S> {
    /// The annotated program.
    pub program: Program,
    /// Methods the benchmark invokes dynamically (the reflection-config
    /// analogue that image building keeps through pruning).
    pub entries: Vec<MethodRef>,
    /// State the native bodies write, read back by the final checks.
    pub state: S,
}

/// One seeded workload: its program, its requests, and the reference
/// its outputs are checked against.
pub trait Workload {
    /// Host-side state of one launched program.
    type State;
    /// What [`Workload::open`] hands to [`Workload::finish`].
    type Baseline;

    /// Name, as in `BENCHMARK.json`.
    fn name(&self) -> &'static str;
    /// Requests per trial.
    fn ops(&self) -> usize;
    /// Arrival times of the requests on the model clock, ns.
    fn arrivals(&self) -> &[u64];
    /// The p99.9 latency limit of the capacity search, model ns.
    fn latency_limit_ns(&self) -> u64;
    /// Digest of the generated inputs.
    fn input_digest(&self) -> u64;
    /// The switchless engine the crossings go through, if any.
    fn switchless(&self) -> Option<SwitchlessConfig> {
        None
    }
    /// Builds a fresh program; `spans` instrument its service bodies.
    fn program(&self, spans: Option<Arc<Spans>>) -> Built<Self::State>;
    /// Untimed: creates the service object the requests call and any
    /// state it starts with.
    fn open(&self, ctx: &mut Ctx<'_>) -> Result<(Value, Self::Baseline), VmError>;
    /// The method and arguments of request `i`.
    fn request<'a>(&'a self, i: usize, buf: &'a mut Vec<Value>) -> (&'static str, &'a [Value]);
    /// The checksum the first `n` replies must fold to.
    fn expected_checksum(&self, n: usize) -> u64;
    /// Untimed: checks the service's final state after `n` requests.
    fn finish(
        &self,
        ctx: &mut Ctx<'_>,
        target: &Value,
        baseline: &Self::Baseline,
        state: &Self::State,
        n: usize,
    ) -> Result<(), String>;
    /// Every boundary crossing request `i` makes, for the layer probes.
    fn crossings(&self, i: usize, buf: &mut Vec<Value>, reply: &Value) -> Vec<Crossing>;
}

/// The configuration a run actually resolved to, printed and recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// Deployment provider.
    pub provider: &'static str,
    /// Collector of the isolates.
    pub collector: &'static str,
    /// Crossing engine: `classic`, `pool` or `scheduler`.
    pub engine: &'static str,
    /// Serde mode: `fast` (wire v2) or `classic`.
    pub serde: &'static str,
}

/// Setup phase durations of one launch, wall µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `transform`.
    pub transform_us: f64,
    /// `build_partitioned_images`.
    pub image_build_us: f64,
    /// `PartitionedApp::launch`.
    pub launch_us: f64,
}

impl SetupTimes {
    /// Transform + image build + launch.
    pub fn total_us(&self) -> f64 {
        self.transform_us + self.image_build_us + self.launch_us
    }
}

/// A launched workload program.
pub struct Launched<S> {
    /// The running application.
    pub app: PartitionedApp,
    /// Its native bodies' shared state.
    pub state: S,
    /// What the launch cost.
    pub times: SetupTimes,
}

/// Where launched apps keep working files: inside the build directory
/// next to the benchmark executable, never the system temp dir.
pub fn workdir() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let dir = exe.parent().expect("an executable lives in a directory");
    dir.join(format!("montsalvat-bench-work-{}", std::process::id()))
}

/// Transforms, builds and launches `w`'s program. `setup_spans` records
/// the three setup phases; `body_spans` instruments the service bodies.
///
/// # Errors
///
/// Propagates image-build and launch failures.
pub fn launch<W: Workload>(
    w: &W,
    workdir: &Path,
    body_spans: Option<&Arc<Spans>>,
    setup_spans: Option<&Arc<Spans>>,
    tracer: Option<Arc<Tracer>>,
) -> Result<Launched<W::State>, VmError> {
    let built = w.program(body_spans.cloned());
    let t0 = Instant::now();
    let tp = {
        let _span = enter(setup_spans, SpanName::SetupTransform);
        transform(&built.program)
    };
    let t1 = Instant::now();
    let (trusted, untrusted) = {
        let _span = enter(setup_spans, SpanName::SetupImageBuild);
        let options = ImageOptions::with_entry_points(built.entries.iter().cloned());
        build_partitioned_images(&tp, &options, &options)
            .map_err(|e| VmError::App(e.to_string()))?
    };
    let t2 = Instant::now();
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        switchless: w.switchless(),
        trace: tracer,
        workdir: Some(workdir.to_owned()),
        ..AppConfig::default()
    };
    let app = {
        let _span = enter(setup_spans, SpanName::SetupLaunch);
        PartitionedApp::launch(&trusted, &untrusted, config)?
    };
    let t3 = Instant::now();
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    let times =
        SetupTimes { transform_us: us(t0, t1), image_build_us: us(t1, t2), launch_us: us(t2, t3) };
    Ok(Launched { app, state: built.state, times })
}

/// Reads back what a launched app resolved its configuration to.
pub fn resolve<W: Workload>(w: &W, app: &PartitionedApp) -> Resolved {
    let collector = app.shared.world(Side::Trusted).isolate.lock_heap().collector_kind().name();
    let engine = match w.switchless() {
        None => "classic",
        Some(c) if c.scheduler.is_some() => "scheduler",
        Some(_) => "pool",
    };
    Resolved {
        provider: app.shared.provider.kind().name(),
        collector,
        engine,
        serde: if app.shared.serde_fastpath() { "fast" } else { "classic" },
    }
}

/// Launches and shuts down `cycles` times, returning every cycle's times.
///
/// # Errors
///
/// Propagates launch failures.
pub fn setup_cycles<W: Workload>(
    w: &W,
    workdir: &Path,
    cycles: usize,
    spans: Option<&Arc<Spans>>,
) -> Result<Vec<SetupTimes>, VmError> {
    (0..cycles)
        .map(|_| {
            let launched = launch(w, workdir, None, spans, None)?;
            launched.app.shutdown();
            Ok(launched.times)
        })
        .collect()
}

/// Options of one trial.
#[derive(Default)]
pub struct TrialOptions<'a> {
    /// Requests to replay (a prefix of the workload's schedule).
    pub ops: usize,
    /// Record the benchmark's spans (the traced run).
    pub spans: Option<&'a Arc<Spans>>,
    /// Probe the layers every [`PROBE_EVERY`] ops.
    pub probes: Option<&'a mut Probes>,
    /// Run the program with this (enabled) tracer.
    pub tracer: Option<Arc<Tracer>>,
    /// Corrupt the first reply before it is checked.
    pub corrupt: bool,
}

/// What one trial measured.
pub struct Trial {
    /// Requests replayed.
    pub ops: usize,
    /// Requests that returned a `VmError`.
    pub failed: usize,
    /// Host wall time of the request loop.
    pub wall: Duration,
    /// Process CPU time (all threads) of the request loop.
    pub cpu: Duration,
    /// `(wall, cpu)` of each of [`CHUNKS`] consecutive slices of the
    /// request loop. Every trial of a workload replays the same requests,
    /// so slice `k` is the same work in every trial.
    pub chunks: Vec<(Duration, Duration)>,
    /// Model service time of each request, ns.
    pub service_ns: Vec<u64>,
    /// Model time charged over the request loop, ns.
    pub model_ns: u64,
    /// Telemetry accumulated over the request loop.
    pub snap: Snapshot,
    /// Wall time the layer probes took inside the loop.
    pub probe_ns: u64,
    /// Check failures; empty when every output matched its reference.
    pub errors: Vec<String>,
    /// The configuration the trial ran under.
    pub resolved: Resolved,
}

/// Launches a fresh app, replays `opts.ops` requests through it and
/// checks every output.
///
/// # Errors
///
/// Propagates launch failures and failures of the untimed open/finish
/// calls; a failing request only counts in [`Trial::failed`].
pub fn run_trial<W: Workload>(
    w: &W,
    workdir: &Path,
    mut opts: TrialOptions<'_>,
) -> Result<Trial, VmError> {
    let tracer = opts.tracer.clone();
    let launched = launch(w, workdir, opts.spans, None, opts.tracer.take())?;
    let app = &launched.app;
    let resolved = resolve(w, app);
    let cost = Arc::clone(&app.shared.cost);
    let charged_ns = || cost.charged().as_nanos() as u64;
    let n = opts.ops;
    let spans = opts.spans;

    let mut trial = app.enter_untrusted(|ctx| {
        let (target, baseline) = w.open(ctx)?;
        let before = app.telemetry_snapshot();
        let mut buf = Vec::new();
        let mut service_ns = Vec::with_capacity(n);
        let mut sum = Checksum::default();
        let mut failed = 0;
        let mut probe_ns = 0;
        let chunk_len = n.div_ceil(CHUNKS).max(1);
        let mut chunks = Vec::with_capacity(CHUNKS);
        let model0 = charged_ns();
        let cpu0 = crate::sys::process_cpu_time();
        let t0 = Instant::now();
        let (mut chunk_cpu, mut chunk_t) = (cpu0, t0);
        for i in 0..n {
            let _op = enter(spans, SpanName::Op);
            let (method, args) = w.request(i, &mut buf);
            let start_ns = charged_ns();
            let reply = {
                let _call = enter(spans, SpanName::ExecCall);
                ctx.call(&target, method, args)
            };
            service_ns.push(charged_ns() - start_ns);
            match reply {
                Ok(mut reply) => {
                    if opts.corrupt && i == 0 {
                        reply = Value::Str("corrupted reply".into());
                    }
                    sum.value(&reply);
                    if let Some(probes) = opts.probes.as_deref_mut() {
                        if i % PROBE_EVERY == 0 {
                            let t = Instant::now();
                            probes.probe(&w.crossings(i, &mut buf, &reply), spans);
                            probe_ns += t.elapsed().as_nanos() as u64;
                        }
                    }
                }
                Err(_) => failed += 1,
            }
            drop(_op);
            if let Some(spans) = spans.filter(|_| (i + 1) % FOLD_EVERY == 0) {
                spans.fold();
            }
            if let Some(tracer) = tracer.as_ref().filter(|_| (i + 1) % CLEAR_TRACER_EVERY == 0) {
                tracer.clear();
            }
            if (i + 1) % chunk_len == 0 || i + 1 == n {
                let (cpu, t) = (crate::sys::process_cpu_time(), Instant::now());
                chunks.push((t - chunk_t, cpu.saturating_sub(chunk_cpu)));
                (chunk_cpu, chunk_t) = (cpu, t);
            }
        }
        let wall = chunk_t - t0;
        let cpu = chunk_cpu.saturating_sub(cpu0);
        let model_ns = charged_ns() - model0;
        let snap = app.telemetry_snapshot().delta_since(&before);
        let mut errors = Vec::new();
        if sum.0 != w.expected_checksum(n) {
            errors.push(format!(
                "reply checksum {:#018x} differs from the reference {:#018x}",
                sum.0,
                w.expected_checksum(n)
            ));
        }
        if let Err(e) = w.finish(ctx, &target, &baseline, &launched.state, n) {
            errors.push(e);
        }
        Ok(Trial {
            ops: n,
            failed,
            wall,
            cpu,
            chunks,
            service_ns,
            model_ns,
            snap,
            probe_ns,
            errors,
            resolved,
        })
    })?;
    if let Some(spans) = spans {
        spans.fold();
    }
    check_reconciliation(w, &trial.snap, &mut trial.errors);
    launched.app.shutdown();
    Ok(trial)
}

/// `rmi.calls == hits + fallbacks` when the switchless engine carries
/// the crossings; no hits or fallbacks at all when it does not.
fn check_reconciliation<W: Workload>(w: &W, snap: &Snapshot, errors: &mut Vec<String>) {
    let calls = snap.counter(Counter::RmiCalls);
    let hits = snap.counter(Counter::SwitchlessCalls);
    let fallbacks = snap.counter(Counter::SwitchlessFallbacks);
    let expected = if w.switchless().is_some() { calls } else { 0 };
    if hits + fallbacks != expected {
        errors.push(format!(
            "rmi reconciliation failed: calls {calls}, switchless hits {hits} + fallbacks \
             {fallbacks} (expected {expected})"
        ));
    }
}

/// Latency of every request when request `i` arrives at
/// `arrivals[i] * scale` and starts once it has arrived and the previous
/// request is done (open loop on the model clock: the generator is never
/// late). Also returns the last request's queue wait.
pub fn replay(arrivals: &[u64], service_ns: &[u64], scale: f64) -> (Vec<u64>, u64) {
    let mut free = 0u64;
    let mut last_wait = 0;
    let latencies = arrivals
        .iter()
        .zip(service_ns)
        .map(|(&a, &s)| {
            let arrival = (a as f64 * scale) as u64;
            let start = free.max(arrival);
            free = start + s;
            last_wait = start - arrival;
            free - arrival
        })
        .collect();
    (latencies, last_wait)
}

/// p50 and p99.9 open-loop latency at the workload's own arrival rate,
/// model ns.
pub fn latency_stats(arrivals: &[u64], service_ns: &[u64]) -> (u64, u64) {
    let (mut latencies, _) = replay(arrivals, service_ns, 1.0);
    (stats::nearest_rank(&mut latencies, 0.5), stats::nearest_rank(&mut latencies, 0.999))
}

/// First rung of the capacity ladder, requests per model second.
const LADDER_START_RPS: f64 = 250.0;
const LADDER_STEP: f64 = 1.25;
/// Where the ladder gives up climbing: a schedule whose whole service
/// time fits the limit passes at any rate.
const LADDER_MAX_RPS: f64 = 1e9;
/// Bisection steps between the last passing and first failing rung:
/// resolves the capacity to about 0.001% of the rung width.
const BISECT_STEPS: usize = 16;

/// The highest mean arrival rate at which the recorded service times,
/// replayed against the same seeded arrival process rescaled to that
/// rate, keep p99.9 latency and the last request's queue wait within
/// `limit_ns`. Requests per model second; 0 when even a trickle fails.
pub fn capacity_rps(arrivals: &[u64], service_ns: &[u64], limit_ns: u64) -> f64 {
    let horizon_s = arrivals.last().copied().unwrap_or(0) as f64 / 1e9;
    if horizon_s <= 0.0 {
        return 0.0;
    }
    let base_rps = arrivals.len() as f64 / horizon_s;
    let passes = |rps: f64| {
        let (mut latencies, last_wait) = replay(arrivals, service_ns, base_rps / rps);
        last_wait <= limit_ns && stats::nearest_rank(&mut latencies, 0.999) <= limit_ns
    };
    let (mut lo, mut hi);
    if passes(LADDER_START_RPS) {
        lo = LADDER_START_RPS;
        loop {
            hi = lo * LADDER_STEP;
            if hi > LADDER_MAX_RPS {
                return LADDER_MAX_RPS;
            }
            if !passes(hi) {
                break;
            }
            lo = hi;
        }
    } else {
        hi = LADDER_START_RPS;
        loop {
            lo = hi / LADDER_STEP;
            if passes(lo) {
                break;
            }
            if lo < 1e-3 {
                return 0.0;
            }
            hi = lo;
        }
    }
    for _ in 0..BISECT_STEPS {
        let mid = (lo * hi).sqrt();
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_queues_behind_a_busy_server() {
        let (lat, last_wait) = replay(&[0, 10, 20], &[15, 15, 1], 1.0);
        // starts at 0, 15, 30: latencies 15, 20, 11; the last waited 10.
        assert_eq!(lat, vec![15, 20, 11]);
        assert_eq!(last_wait, 10);
    }

    #[test]
    fn capacity_tracks_service_time() {
        let arrivals: Vec<u64> = (1..=20_000).map(|i| i * 1_000_000).collect();
        let slow = capacity_rps(&arrivals, &vec![200_000; 20_000], 1_000_000);
        let fast = capacity_rps(&arrivals, &vec![100_000; 20_000], 1_000_000);
        // A uniform stream saturates at 1/service: 5k and 10k req/s.
        assert!((slow - 5_000.0).abs() < 50.0, "slow capacity {slow}");
        assert!((fast - 10_000.0).abs() < 100.0, "fast capacity {fast}");
    }
}
