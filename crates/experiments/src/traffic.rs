//! Open-loop sustained-traffic harness over the RMI boundary.
//!
//! The paper's figures are short, closed-loop workloads; the ROADMAP
//! north-star is a service under sustained load. This module models
//! that load: a seed-pinned **open-loop** generator (arrivals do not
//! wait for completions, so queueing delay is visible — the thing
//! closed-loop harnesses hide) drives a trusted key-value service
//! through real RMI crossings and reports per-request **model-time**
//! latency percentiles.
//!
//! The generator is deterministic end to end:
//!
//! - **Key popularity** is zipfian ([`ZipfSampler`]) over a bounded key
//!   space — a few keys absorb most traffic, like real caches see.
//! - **Arrivals** are exponential interarrivals (Poisson-ish) from the
//!   pinned [`Lcg`], modulated by a square burst wave
//!   ([`arrival_schedule`]): bursts arrive [`TrafficConfig::burst_factor`]×
//!   faster than the calm phase, so queues build and drain.
//! - **Op mix** is a configurable read percentage; writes carry
//!   deterministic values ([`op_schedule`]).
//!
//! Requests execute sequentially on the charged clock
//! (`ClockMode::Virtual`, GC helpers off), and the harness replays the
//! virtual arrival timeline against per-request service costs: request
//! `i` starts at `max(arrival_i, completion_{i-1})` and its latency is
//! `completion_i - arrival_i`. That keeps idle gaps out of the cost
//! clock while still modelling the queueing a real open-loop server
//! would see. Latencies land in the telemetry log2 histograms
//! (`traffic.request_latency_ns`, `traffic.service_ns`) and exactly in
//! [`LaneResult::latencies_ns`] for precise percentiles.
//!
//! Three deployment lanes ([`lanes`]) run the identical schedule —
//! `sim-sgx` classic, `sim-sgx` switchless (thread-per-worker pool) and
//! `passthrough` classic (see [`montsalvat_core::provider`]) — so one
//! run compares what SGX costs, what the switchless engine buys back
//! and what the partitioning machinery costs by itself. The
//! `traffic_service` binary turns the results into the
//! `montsalvat.traffic/v1` report that CI gates against
//! `results/traffic_baseline.json` (`docs/DEPLOYMENT.md`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::error::VmError;
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use montsalvat_core::{ProviderKind, Trust};
use runtime_sim::heap::CollectorKind;
use runtime_sim::value::Value;
use sgx_sim::cost::ClockMode;
use specjvm::montecarlo::Lcg;
use telemetry::timeseries::{FlightRecorder, Series, TimeseriesConfig};
use telemetry::{Counter, Hist};

use crate::report::Scale;

/// Workload seed pinned for CI reproducibility (the regression gate
/// compares percentiles against a committed baseline, so the schedule
/// must be bit-identical run to run).
pub const TRAFFIC_SEED: u64 = 0x00C0_FFEE;

/// Knobs of the open-loop generator.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed; every stream (arrivals, keys, op mix) derives from
    /// it with distinct mixing constants.
    pub seed: u64,
    /// Number of requests in the run.
    pub requests: usize,
    /// Size of the key space the zipfian sampler draws from.
    pub key_space: usize,
    /// Zipf exponent `s` (popularity of key `k` ∝ `1/k^s`).
    pub zipf_exponent: f64,
    /// Mean interarrival gap during the calm phase, model ns.
    pub mean_interarrival_ns: u64,
    /// Arrival-rate multiplier during bursts (≥ 1).
    pub burst_factor: f64,
    /// Requests per burst phase.
    pub burst_len: usize,
    /// Requests per calm phase between bursts.
    pub calm_len: usize,
    /// Percentage of requests that are reads (`get`), 0–100.
    pub read_pct: u32,
    /// Value payload size for writes, bytes.
    pub value_bytes: usize,
    /// Optional seeded fault injection: stall one request with a
    /// synthetic GC pause so the flight recorder has a known spike to
    /// detect and attribute (`timeline_ablation`). `None` for real
    /// measurement runs — the CI latency baseline assumes no injection.
    pub inject_gc: Option<GcInjection>,
    /// Collector the lanes run under (`None` keeps the
    /// `AppConfig` default resolution: `MONTSALVAT_GC` env, then the
    /// semispace reference collector). The whole schedule is identical
    /// either way; only GC pauses and `gc.*` telemetry differ.
    pub collector: Option<CollectorKind>,
    /// Optional managed-heap churn riding on the request stream, so GC
    /// telemetry (pauses, block gauges) flows through the windowed
    /// time-series. `None` for measurement runs — the CI latency
    /// baseline assumes no churn.
    pub gc_churn: Option<GcChurn>,
}

/// A deterministic injected GC stall (see [`TrafficConfig::inject_gc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcInjection {
    /// Index of the request whose service time absorbs the pause.
    pub at_request: usize,
    /// Model nanoseconds the injected collection stalls the service.
    pub pause_ns: u64,
}

/// Deterministic managed-heap churn (see [`TrafficConfig::gc_churn`]):
/// every `every`-th request allocates `garbage_bytes` of short-lived
/// managed objects and forces a minor cycle; every fourth such event
/// escalates to a major, so both generations see real collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcChurn {
    /// Request period between churn events (≥ 1).
    pub every: usize,
    /// Garbage allocated per churn event, bytes.
    pub garbage_bytes: u64,
}

impl TrafficConfig {
    /// CI-sized run: small enough for bench-smoke, large enough that
    /// bursts queue visibly behind the calm-phase service rate.
    pub fn quick() -> Self {
        TrafficConfig {
            seed: TRAFFIC_SEED,
            requests: 600,
            key_space: 512,
            zipf_exponent: 1.1,
            mean_interarrival_ns: 120_000,
            burst_factor: 8.0,
            burst_len: 48,
            calm_len: 96,
            read_pct: 80,
            value_bytes: 96,
            inject_gc: None,
            collector: None,
            gc_churn: None,
        }
    }

    /// Paper-scale sustained run.
    pub fn full() -> Self {
        TrafficConfig {
            requests: 20_000,
            key_space: 8_192,
            burst_len: 256,
            calm_len: 512,
            ..Self::quick()
        }
    }

    /// The config for a CLI scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self::quick(),
            Scale::Full => Self::full(),
        }
    }
}

/// Zipfian key sampler over a bounded key space: key `k` (0-based) is
/// drawn with probability proportional to `1/(k+1)^s`, via a
/// precomputed CDF and binary search.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the CDF for `key_space` keys with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `key_space` is zero.
    pub fn new(key_space: usize, s: f64) -> Self {
        assert!(key_space > 0, "zipf sampler needs a non-empty key space");
        let mut cdf = Vec::with_capacity(key_space);
        let mut acc = 0.0f64;
        for k in 1..=key_space {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Close the range so u ∈ [0, 1) can never fall past the end.
        *cdf.last_mut().expect("non-empty cdf") = 1.0;
        ZipfSampler { cdf }
    }

    /// Number of keys in the sampler's space.
    pub fn key_space(&self) -> usize {
        self.cdf.len()
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a key index, always strictly
    /// below [`ZipfSampler::key_space`].
    pub fn sample(&self, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0);
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1)
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOp {
    /// Absolute arrival time on the virtual open-loop timeline, ns.
    pub arrival_ns: u64,
    /// What the request does.
    pub kind: OpKind,
}

/// The operation mix of the KV service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read the key with this index.
    Get(usize),
    /// Write a deterministic value to the key with this index.
    Put(usize),
}

/// Absolute arrival times for the run: exponential interarrivals from
/// the pinned LCG, with the rate stepped up by
/// [`TrafficConfig::burst_factor`] for [`TrafficConfig::burst_len`]
/// requests out of every `burst_len + calm_len`. Deterministic for a
/// given config (same seed → byte-identical schedule).
pub fn arrival_schedule(cfg: &TrafficConfig) -> Vec<u64> {
    let mut rng = Lcg::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let phase = (cfg.burst_len + cfg.calm_len).max(1);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let in_burst = (i % phase) < cfg.burst_len;
        let rate = if in_burst { cfg.burst_factor.max(1.0) } else { 1.0 };
        // Exponential gap: -ln(u) * mean, sped up inside a burst.
        let u = rng.next_f64().max(1e-12);
        let gap = (-u.ln() * cfg.mean_interarrival_ns as f64 / rate) as u64;
        t = t.saturating_add(gap);
        out.push(t);
    }
    out
}

/// The full request schedule: arrivals plus zipfian keys and the op
/// mix, all from seed-derived streams.
pub fn op_schedule(cfg: &TrafficConfig) -> Vec<RequestOp> {
    let arrivals = arrival_schedule(cfg);
    let zipf = ZipfSampler::new(cfg.key_space, cfg.zipf_exponent);
    let mut keys = Lcg::new(cfg.seed ^ 0xD1B5_4A32_D192_ED03);
    let mut mix = Lcg::new(cfg.seed ^ 0x94D0_49BB_1331_11EB);
    arrivals
        .into_iter()
        .map(|arrival_ns| {
            let key = zipf.sample(keys.next_f64());
            let kind = if (mix.next_f64() * 100.0) < cfg.read_pct as f64 {
                OpKind::Get(key)
            } else {
                OpKind::Put(key)
            };
            RequestOp { arrival_ns, kind }
        })
        .collect()
}

/// Wire form of a key index.
pub fn key_bytes(key: usize) -> Vec<u8> {
    format!("key-{key:06}").into_bytes()
}

/// Deterministic write payload for a key: `value_bytes` of a pattern
/// derived from the key index, so both sides can validate checksums.
pub fn value_bytes(cfg: &TrafficConfig, key: usize) -> Vec<u8> {
    (0..cfg.value_bytes).map(|i| (key.wrapping_mul(31).wrapping_add(i) % 251) as u8).collect()
}

/// One deployment lane of the comparison run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSpec {
    /// Stable lane name used in the report and the baseline file.
    pub name: &'static str,
    /// Deployment-mode provider the lane pins.
    pub provider: ProviderKind,
    /// Whether the adaptive switchless engine serves the crossings.
    pub switchless: bool,
}

/// The three lanes every traffic run compares. The first —
/// `sim-sgx-classic` — is the deterministic lane the latency baseline
/// gates on; the switchless lane uses real worker threads, so its
/// latencies wobble with host scheduling and only its crossing
/// *accounting* is gated; the passthrough lane is the zero-SGX
/// control. Lane order is stable — existing gates index it.
pub fn lanes() -> [LaneSpec; 3] {
    [
        LaneSpec { name: "sim-sgx-classic", provider: ProviderKind::SimSgx, switchless: false },
        LaneSpec { name: "sim-sgx-switchless", provider: ProviderKind::SimSgx, switchless: true },
        LaneSpec {
            name: "passthrough-classic",
            provider: ProviderKind::PassThrough,
            switchless: false,
        },
    ]
}

/// Latency percentiles (exact, from the per-request vector).
#[derive(Debug, Clone, Copy, Default)]
pub struct Percentiles {
    /// Median latency, model ns.
    pub p50_ns: u64,
    /// 95th percentile, model ns.
    pub p95_ns: u64,
    /// 99th percentile, model ns.
    pub p99_ns: u64,
    /// Mean latency, model ns.
    pub mean_ns: u64,
    /// Worst request, model ns.
    pub max_ns: u64,
}

/// Exact percentiles of a latency vector (nearest-rank).
pub fn percentiles(latencies: &[u64]) -> Percentiles {
    if latencies.is_empty() {
        return Percentiles::default();
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    // Same nearest-rank definition as the telemetry histograms and the
    // windowed time-series path, applied to exact sorted samples.
    let rank =
        |q: f64| -> u64 { sorted[telemetry::nearest_rank(sorted.len() as u64, q) as usize - 1] };
    Percentiles {
        p50_ns: rank(0.50),
        p95_ns: rank(0.95),
        p99_ns: rank(0.99),
        mean_ns: (latencies.iter().map(|&v| v as u128).sum::<u128>() / latencies.len() as u128)
            as u64,
        max_ns: *sorted.last().expect("non-empty"),
    }
}

/// Everything one lane produced.
#[derive(Debug)]
pub struct LaneResult {
    /// The lane that ran.
    pub spec: LaneSpec,
    /// Per-request model-time latency, request order.
    pub latencies_ns: Vec<u64>,
    /// Exact latency percentiles over [`LaneResult::latencies_ns`].
    pub latency: Percentiles,
    /// FNV-1a checksum over every response payload, in request order.
    pub checksum: u64,
    /// `get` requests that found a value.
    pub hits: u64,
    /// `get` requests that missed.
    pub misses: u64,
    /// `put` requests served.
    pub puts: u64,
    /// Completion time of the last request on the virtual timeline, ns.
    pub horizon_ns: u64,
    /// Completed requests per model-time second.
    pub throughput_rps: f64,
    /// Total model time charged across the lane (launch + drive), ns.
    pub model_time_ns: u64,
    /// Per-lane telemetry (each lane runs under its own recorder).
    pub snap: telemetry::Snapshot,
    /// Windowed time series of the lane (`montsalvat.timeseries/v1`),
    /// ticked on the virtual completion timeline. `None` when
    /// `MONTSALVAT_TIMESERIES=0`.
    pub timeseries: Option<Series>,
}

impl LaneResult {
    /// `rmi.calls` from the lane's recorder.
    pub fn rmi_calls(&self) -> u64 {
        self.snap.counter(Counter::RmiCalls)
    }

    /// `rmi.switchless_calls` (hits) from the lane's recorder.
    pub fn switchless_hits(&self) -> u64 {
        self.snap.counter(Counter::SwitchlessCalls)
    }

    /// `rmi.switchless_fallbacks` from the lane's recorder.
    pub fn switchless_fallbacks(&self) -> u64 {
        self.snap.counter(Counter::SwitchlessFallbacks)
    }

    /// Total enclave transitions (ecalls + ocalls) the lane performed.
    pub fn transitions(&self) -> u64 {
        self.snap.counter(Counter::Ecalls) + self.snap.counter(Counter::Ocalls)
    }
}

/// The trusted KV service: `get(key)` and `put(key, value)` natives
/// over a shared in-memory map, each charging a small modelled service
/// compute so latency has an app component beyond the crossing itself.
type SharedStore = Arc<Mutex<BTreeMap<Vec<u8>, Vec<u8>>>>;

const GET_SERVICE_NS: u64 = 1_500;
const PUT_SERVICE_NS: u64 = 2_500;

fn bytes_arg(args: &[Value], i: usize) -> Result<&[u8], VmError> {
    match args.get(i) {
        Some(Value::Bytes(b)) => Ok(b),
        other => Err(VmError::Type(format!("argument {i} must be bytes, got {other:?}"))),
    }
}

/// Builds the annotated program for one lane over `store`.
pub fn kv_service_program(store: &SharedStore) -> Program {
    let get_store = Arc::clone(store);
    let put_store = Arc::clone(store);
    let service = ClassDef::new("KvService")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "get",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(move |ctx, _this, args: &[Value]| {
                let key = bytes_arg(args, 0)?.to_vec();
                ctx.charge_compute_ns(GET_SERVICE_NS);
                let store = get_store.lock().expect("kv store lock");
                Ok(match store.get(&key) {
                    Some(v) => Value::Bytes(v.clone()),
                    None => Value::Int(-1),
                })
            }),
        ))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            2,
            vec![],
            Arc::new(move |ctx, _this, args: &[Value]| {
                let key = bytes_arg(args, 0)?.to_vec();
                let value = bytes_arg(args, 1)?.to_vec();
                ctx.charge_compute_ns(PUT_SERVICE_NS + value.len() as u64 / 8);
                let len = value.len() as i64;
                put_store.lock().expect("kv store lock").insert(key, value);
                Ok(Value::Int(len))
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![service, main], MethodRef::new("Main", "main"))
        .expect("kv service program is well-formed")
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs the full schedule through one deployment lane and collects
/// latencies, counters and the response checksum.
///
/// # Errors
///
/// Propagates launch and execution failures.
pub fn run_lane(spec: LaneSpec, cfg: &TrafficConfig) -> Result<LaneResult, VmError> {
    let ops = op_schedule(cfg);
    let store: SharedStore = Arc::new(Mutex::new(BTreeMap::new()));
    let tp = transform(&kv_service_program(&store));
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("KvService", CTOR),
        MethodRef::new("KvService", "get"),
        MethodRef::new("KvService", "put"),
        MethodRef::new("Main", "main"),
    ]);
    let (trusted, untrusted) = build_partitioned_images(&tp, &options, &options)
        .map_err(|e| VmError::App(e.to_string()))?;
    // The lane's recorder and flight recorder exist before launch, so
    // launch-time activity (image load, ctor crossings) lands in the
    // windowed stream too and the per-window deltas sum exactly to the
    // lane's end-of-run aggregate.
    let recorder = telemetry::Recorder::new();
    let ts_config = TimeseriesConfig::from_env();
    let mut flight =
        ts_config.enabled.then(|| FlightRecorder::new(Arc::clone(&recorder), ts_config));
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        provider: Some(spec.provider),
        switchless: spec.switchless.then(SwitchlessConfig::default),
        telemetry: Some(Arc::clone(&recorder)),
        collector: cfg.collector,
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config)?;
    let cost = Arc::clone(&app.shared.cost);
    let model_start_ns = cost.charged().as_nanos() as u64;

    let flight_ref = &mut flight;
    let (latencies_ns, checksum, hits, misses, puts, horizon_ns) = app.enter_untrusted(|ctx| {
        let service = ctx.new_object("KvService", &[])?;
        let mut latencies = Vec::with_capacity(ops.len());
        let mut checksum = 0xCBF2_9CE4_8422_2325u64;
        let (mut hits, mut misses, mut puts) = (0u64, 0u64, 0u64);
        let mut horizon_ns = 0u64;
        let mut churn_events = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let injected = cfg.inject_gc.filter(|inj| inj.at_request == i);
            let before_ns = cost.charged().as_nanos() as u64;
            let ret = match op.kind {
                OpKind::Get(key) => ctx.call(&service, "get", &[Value::Bytes(key_bytes(key))])?,
                OpKind::Put(key) => ctx.call(
                    &service,
                    "put",
                    &[Value::Bytes(key_bytes(key)), Value::Bytes(value_bytes(cfg, key))],
                )?,
            };
            if let Some(inj) = injected {
                // The stall charges inside the service measurement, so
                // this request's latency carries the pause.
                cost.charge_ns(inj.pause_ns);
            }
            if let Some(churn) = cfg.gc_churn {
                let every = churn.every.max(1);
                if i % every == every - 1 {
                    // Real collector work inside the service window: the
                    // pause lands in this request's latency, and the
                    // gc.* telemetry lands in this request's window.
                    ctx.alloc_garbage(churn.garbage_bytes, 1024);
                    churn_events += 1;
                    if churn_events % 4 == 0 {
                        ctx.collect_garbage();
                    } else {
                        ctx.collect_garbage_minor();
                    }
                }
            }
            let service_ns = (cost.charged().as_nanos() as u64).saturating_sub(before_ns);
            // Open-loop accounting on the virtual arrival timeline:
            // the request starts when it has arrived *and* the previous
            // request has completed.
            let start_ns = horizon_ns.max(op.arrival_ns);
            let completion_ns = start_ns + service_ns;
            let latency_ns = completion_ns - op.arrival_ns;
            // Advance the window clock *before* recording, so the
            // request's metrics — and the injected GC evidence — land
            // in the window containing its completion.
            horizon_ns = completion_ns;
            if let Some(flight) = flight_ref.as_mut() {
                flight.tick(horizon_ns);
            }
            if let Some(inj) = injected {
                recorder.incr(Counter::GcCollections);
                recorder.record(Hist::GcPauseNs, inj.pause_ns);
            }
            latencies.push(latency_ns);
            recorder.record(Hist::TrafficLatencyNs, latency_ns);
            recorder.record(Hist::TrafficServiceNs, service_ns);
            recorder.incr(Counter::TrafficRequests);
            match (&op.kind, &ret) {
                (OpKind::Get(_), Value::Bytes(b)) => {
                    hits += 1;
                    fnv1a(&mut checksum, b);
                }
                (OpKind::Get(_), _) => {
                    misses += 1;
                    fnv1a(&mut checksum, &(-1i64).to_le_bytes());
                }
                (OpKind::Put(_), v) => {
                    puts += 1;
                    fnv1a(&mut checksum, &v.as_int().unwrap_or(0).to_le_bytes());
                }
            }
        }
        Ok((latencies, checksum, hits, misses, puts, horizon_ns))
    })?;

    let model_time_ns = (cost.charged().as_nanos() as u64).saturating_sub(model_start_ns);
    // Seal the series before the final snapshot: nothing records
    // between the two, so window sums reconcile with `snap` exactly
    // on the deterministic (non-switchless) lanes.
    let timeseries = flight.map(|f| f.finish(horizon_ns));
    let snap = app.telemetry_snapshot();
    app.shutdown();

    let latency = percentiles(&latencies_ns);
    let throughput_rps =
        if horizon_ns > 0 { latencies_ns.len() as f64 / (horizon_ns as f64 / 1e9) } else { 0.0 };
    Ok(LaneResult {
        spec,
        latencies_ns,
        latency,
        checksum,
        hits,
        misses,
        puts,
        horizon_ns,
        throughput_rps,
        model_time_ns,
        snap,
        timeseries,
    })
}

/// Runs every lane of [`lanes`] over the same schedule.
///
/// # Errors
///
/// Propagates the first lane failure.
pub fn run_all(cfg: &TrafficConfig) -> Result<Vec<LaneResult>, VmError> {
    lanes().into_iter().map(|spec| run_lane(spec, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TrafficConfig {
        TrafficConfig { requests: 160, key_space: 64, ..TrafficConfig::quick() }
    }

    #[test]
    fn schedule_is_sorted_and_sized() {
        let cfg = tiny();
        let arrivals = arrival_schedule(&cfg);
        assert_eq!(arrivals.len(), cfg.requests);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "arrivals are monotone");
    }

    #[test]
    fn bursts_arrive_faster_than_calm_phases() {
        let cfg = TrafficConfig { requests: 2_880, ..tiny() };
        let arrivals = arrival_schedule(&cfg);
        let phase = cfg.burst_len + cfg.calm_len;
        let (mut burst_gap, mut burst_n, mut calm_gap, mut calm_n) = (0u64, 0u64, 0u64, 0u64);
        for (i, w) in arrivals.windows(2).enumerate() {
            let gap = w[1] - w[0];
            // Attribute the gap to the later request's phase.
            if ((i + 1) % phase) < cfg.burst_len {
                burst_gap += gap;
                burst_n += 1;
            } else {
                calm_gap += gap;
                calm_n += 1;
            }
        }
        let burst_mean = burst_gap as f64 / burst_n as f64;
        let calm_mean = calm_gap as f64 / calm_n as f64;
        assert!(
            burst_mean * 2.0 < calm_mean,
            "burst mean gap {burst_mean:.0} ns should be well below calm {calm_mean:.0} ns"
        );
    }

    #[test]
    fn zipf_head_dominates_tail() {
        let zipf = ZipfSampler::new(256, 1.1);
        let mut rng = Lcg::new(9);
        let mut head = 0usize;
        const DRAWS: usize = 4_000;
        for _ in 0..DRAWS {
            if zipf.sample(rng.next_f64()) < 8 {
                head += 1;
            }
        }
        assert!(
            head * 3 > DRAWS,
            "the 8 hottest of 256 keys should absorb over a third of draws, got {head}/{DRAWS}"
        );
    }

    #[test]
    fn op_mix_respects_read_pct_roughly() {
        let cfg = TrafficConfig { requests: 2_000, ..tiny() };
        let ops = op_schedule(&cfg);
        let gets = ops.iter().filter(|o| matches!(o.kind, OpKind::Get(_))).count();
        let pct = 100.0 * gets as f64 / ops.len() as f64;
        assert!((pct - cfg.read_pct as f64).abs() < 5.0, "read mix {pct:.1}% vs {}", cfg.read_pct);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let p = percentiles(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(p.p50_ns, 50);
        assert_eq!(p.p95_ns, 100);
        assert_eq!(p.p99_ns, 100);
        assert_eq!(p.max_ns, 100);
        assert_eq!(p.mean_ns, 55);
    }

    #[test]
    fn windowed_deltas_sum_to_lane_totals() {
        let cfg = tiny();
        let lane = run_lane(lanes()[0], &cfg).expect("classic lane runs");
        let series = lane.timeseries.as_ref().expect("timeseries on by default");
        assert_eq!(series.dropped, 0, "tiny run fits the ring");
        assert!(series.windows.len() > 1, "the run spans several windows");
        for counter in [Counter::RmiCalls, Counter::TrafficRequests] {
            let window_sum: u64 = series.windows.iter().map(|w| w.delta.counter(counter)).sum();
            assert_eq!(
                window_sum,
                lane.snap.counter(counter),
                "window deltas must sum to the aggregate for {}",
                counter.metric_name()
            );
        }
        let latency_obs: u64 =
            series.windows.iter().map(|w| w.delta.hist(Hist::TrafficLatencyNs).count).sum();
        assert_eq!(latency_obs, cfg.requests as u64);
    }

    #[test]
    fn injected_gc_stall_spikes_and_carries_its_evidence() {
        use telemetry::timeseries::{detect_spikes, WindowView, DEFAULT_SPIKE_FACTOR};
        let cfg = TrafficConfig {
            inject_gc: Some(GcInjection { at_request: 80, pause_ns: 2_500_000 }),
            ..tiny()
        };
        let lane = run_lane(lanes()[0], &cfg).expect("classic lane runs");
        let series = lane.timeseries.as_ref().expect("timeseries on by default");
        let views: Vec<WindowView> = series.windows.iter().map(WindowView::from_window).collect();
        let report = detect_spikes(&views, DEFAULT_SPIKE_FACTOR);
        assert!(!report.spikes.is_empty(), "the injected stall must register as a spike");
        assert!(
            report.spikes.iter().any(|s| s.causes.iter().any(|c| c.cause == "gc")),
            "at least one spike must carry the injected GC evidence: {:?}",
            report.spikes
        );
    }
}
