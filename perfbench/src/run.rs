//! One workload's run: either the end-to-end trials (tracing off) or the
//! traced run that yields the per-layer metrics, with setup cycles
//! sampled before every trial.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use telemetry::trace::Tracer;
use telemetry::{Counter, Gauge, Hist, Snapshot};

use crate::bulk::Bulk;
use crate::churn::Churn;
use crate::json::Json;
use crate::kv::Kv;
use crate::metrics::{Metric, Values};
use crate::probe::Probes;
use crate::spans::{SpanName, Spans};
use crate::stats::median;
use crate::workload::{
    capacity_rps, latency_stats, run_trial, setup_cycles, Resolved, SetupTimes, Trial,
    TrialOptions, Workload,
};

/// The workloads, in report order.
pub const WORKLOADS: [&str; 4] = ["kv-classic", "kv-switchless", "bulk-shard", "enclave-churn"];

/// Fewest timed trials of an end-to-end run (after one untimed warm-up).
const MIN_TRIALS: usize = 5;
/// Host seconds one full-size trial takes on the reference host. A longer
/// `--seconds` buys more trials of this size, not longer ones: each slice
/// of the schedule then has more replays to take its fastest from.
const TRIAL_SECONDS: f64 = 2.0;
/// Setup cycles run as one batch before every trial; `setup_s` is the
/// median over the run's batches of each batch's fastest cycle. A launch
/// takes tens of µs, and on a shared host whole stretches of cycles run
/// up to twice as slowly (the switchless engine's thread starts and joins
/// most of all), which moves a median over single cycles between the
/// fast and the slow mode.
const SETUP_CYCLES_PER_TRIAL: usize = 41;
/// Fewest requests per trial at full size, so p99.9 keeps at least
/// fifteen samples beyond it.
const MIN_OPS: usize = 15_000;

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Trials sized so a run measures for about `--seconds`.
    Full,
    /// At most a few thousand requests per trial, for the smoke test.
    Tiny,
}

/// Options of one workload's run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement budget of the run, host seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of end-to-end trials.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// Corrupt one reply of the first timed trial (checks the checker).
    pub corrupt: bool,
}

/// What one workload's run produced.
pub struct Outcome {
    /// Whether every output matched its reference.
    pub correct: bool,
    /// Requests attempted across all trials.
    pub attempted: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// The metrics of the result line: end-to-end (untraced run) or
    /// per-layer (traced run).
    pub values: Values,
    /// The model-clock metrics of an untraced run, printed and recorded
    /// beside the end-to-end ones.
    pub model: Values,
    /// The workload's entry in the `--json-out` record.
    pub record: Json,
}

/// Requests per trial. At full size a trial takes about
/// [`TRIAL_SECONDS`] on the reference host (2-core x86-64); the count
/// depends only on the workload, never on a measurement, so model-time
/// results repeat.
pub fn trial_ops(workload: &str, size: Size) -> usize {
    let (ops_per_host_s, tiny) = match workload {
        "kv-classic" => (420_000.0, 3_000),
        "kv-switchless" => (48_000.0, 1_500),
        "bulk-shard" => (9_000.0, 96),
        "enclave-churn" => (6_000.0, 300),
        other => unreachable!("unknown workload {other}"),
    };
    match size {
        Size::Tiny => tiny,
        Size::Full => ((ops_per_host_s * TRIAL_SECONDS) as usize).max(MIN_OPS),
    }
}

/// Timed trials of an end-to-end run: at full size, with the warm-up,
/// they fill `seconds` on the reference host. Never fewer than
/// [`MIN_TRIALS`].
pub fn timed_trials(size: Size, seconds: u64) -> usize {
    match size {
        Size::Tiny => MIN_TRIALS,
        Size::Full => ((seconds as f64 / TRIAL_SECONDS) as usize).saturating_sub(1).max(MIN_TRIALS),
    }
}

/// Runs the named workload.
///
/// # Errors
///
/// Returns a message when the program fails to launch or to answer an
/// untimed call; output mismatches are reported in [`Outcome::correct`].
pub fn run_named(name: &str, opts: &RunOptions) -> Result<Outcome, String> {
    let ops = trial_ops(name, opts.size);
    match name {
        "kv-classic" => run(&Kv::new(opts.seed, ops, false), opts),
        "kv-switchless" => run(&Kv::new(opts.seed, ops, true), opts),
        "bulk-shard" => run(&Bulk::new(opts.seed, ops), opts),
        "enclave-churn" => run(&Churn::new(opts.seed, ops), opts),
        other => Err(format!("unknown workload `{other}` (known: {})", WORKLOADS.join(", "))),
    }
}

/// `{name: {"value": v, "unit": u}}` in catalogue order.
pub fn metrics_json<'a>(values: impl IntoIterator<Item = &'a (&'static Metric, f64)>) -> Json {
    let mut out = Json::obj();
    for (metric, value) in values {
        out.push(metric.name, Json::obj().with("value", *value).with("unit", metric.unit));
    }
    out
}

/// One workload's run in progress: every trial and setup cycle it made.
struct Runner<'a, W> {
    w: &'a W,
    workdir: &'a Path,
    /// The traced run's span sink.
    spans: Option<Arc<Spans>>,
    setup_cycles: usize,
    setup: Vec<SetupTimes>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    resolved: Option<Resolved>,
}

impl<W: Workload> Runner<'_, W> {
    /// Runs a batch of setup cycles, then one trial; tallies and prints it.
    fn trial(&mut self, label: &str, options: TrialOptions<'_>) -> Result<Trial, String> {
        let cycles = setup_cycles(self.w, self.workdir, self.setup_cycles, self.spans.as_ref())
            .map_err(|e| format!("setup before {label}: {e}"))?;
        self.setup.extend(cycles);
        let t = run_trial(self.w, self.workdir, options).map_err(|e| format!("{label}: {e}"))?;
        self.attempted += t.ops as u64;
        self.failed += t.failed as u64;
        self.errors.extend(t.errors.iter().map(|e| format!("{label}: {e}")));
        self.resolved.get_or_insert(t.resolved);
        println!(
            "{label}: {} requests, {:.3} s host, {:.0} ops/s, {:.2} us cpu/op, {:.6} s model{}",
            t.ops,
            t.wall.as_secs_f64(),
            t.ops as f64 / t.wall.as_secs_f64(),
            t.cpu.as_secs_f64() * 1e6 / t.ops as f64,
            t.model_ns as f64 / 1e9,
            if t.errors.is_empty() { ", outputs match" } else { ", OUTPUTS DIFFER" }
        );
        Ok(t)
    }

    fn setup_median(&self, phase: fn(&SetupTimes) -> f64) -> f64 {
        median(&self.setup.iter().map(phase).collect::<Vec<_>>())
    }

    /// The fastest whole setup of each batch, seconds.
    fn setup_batch_best(&self) -> Vec<f64> {
        self.setup
            .chunks(self.setup_cycles)
            .map(|batch| batch.iter().map(SetupTimes::total_us).fold(f64::MAX, f64::min) / 1e6)
            .collect()
    }
}

/// The apps' working directory, removed however the run ends.
struct Workdir(PathBuf);

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run<W: Workload>(w: &W, opts: &RunOptions) -> Result<Outcome, String> {
    let workdir = Workdir(crate::workload::workdir());
    std::fs::create_dir_all(&workdir.0)
        .map_err(|e| format!("creating {}: {e}", workdir.0.display()))?;
    run_in(w, opts, &workdir.0)
}

fn run_in<W: Workload>(w: &W, opts: &RunOptions, workdir: &Path) -> Result<Outcome, String> {
    let n = w.ops();
    println!(
        "workload {}: seed {}, {} requests per trial, input digest {:#018x}, {} host threads",
        w.name(),
        opts.seed,
        n,
        w.input_digest(),
        crate::sys::host_threads()
    );
    let mut runner = Runner {
        w,
        workdir,
        spans: opts.trace.then(Spans::new),
        setup_cycles: if opts.size == Size::Tiny { 2 } else { SETUP_CYCLES_PER_TRIAL },
        setup: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        resolved: None,
    };
    let mut values = Values::default();
    let mut model = Values::default();
    let mut trials_record = Json::obj();
    runner.trial("warm-up", TrialOptions { ops: n, ..TrialOptions::default() })?;
    if opts.trace {
        traced(&mut runner, &mut values, opts)?;
    } else {
        let trials = (0..timed_trials(opts.size, opts.seconds))
            .map(|k| {
                let corrupt = opts.corrupt && k == 0;
                runner.trial(
                    &format!("trial {}", k + 1),
                    TrialOptions { ops: n, corrupt, ..TrialOptions::default() },
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        end_to_end(&mut runner, &mut values, &mut model, &mut trials_record, &trials);
    }
    println!(
        "setup: {} cycles, median {:.1} us, median of each batch's fastest {:.1} us \
         (per-cycle medians: transform {:.1}, image build {:.1}, launch {:.1})",
        runner.setup.len(),
        runner.setup_median(SetupTimes::total_us),
        median(&runner.setup_batch_best()) * 1e6,
        runner.setup_median(|t| t.transform_us),
        runner.setup_median(|t| t.image_build_us),
        runner.setup_median(|t| t.launch_us),
    );
    let resolved = runner.resolved.expect("a run makes at least one trial");
    println!(
        "config: provider {}, collector {}, engine {}, serde {}",
        resolved.provider, resolved.collector, resolved.engine, resolved.serde
    );
    for e in &runner.errors {
        println!("CHECK FAILED: {e}");
    }

    let correct = runner.errors.is_empty() && runner.failed == 0;
    let phase = |f: fn(&SetupTimes) -> f64| runner.setup.iter().map(f).collect::<Vec<_>>();
    let record = Json::obj()
        .with("correct", correct)
        .with("attempted", runner.attempted)
        .with("failed", runner.failed)
        .with("errors", Json::Arr(runner.errors.iter().map(|e| Json::from(e.as_str())).collect()))
        .with(
            "config",
            Json::obj()
                .with("provider", resolved.provider)
                .with("collector", resolved.collector)
                .with("engine", resolved.engine)
                .with("serde", resolved.serde),
        )
        .with("ops_per_trial", n)
        .with("input_digest", format!("{:#018x}", w.input_digest()))
        .with("reply_checksum", format!("{:#018x}", w.expected_checksum(n)))
        .with(
            "setup_cycles",
            Json::obj()
                .with("transform_us", phase(|t| t.transform_us))
                .with("image_build_us", phase(|t| t.image_build_us))
                .with("launch_us", phase(|t| t.launch_us)),
        )
        .with("trials", trials_record)
        .with("metrics", metrics_json(values.0.iter().chain(&model.0)));
    Ok(Outcome {
        correct,
        attempted: runner.attempted,
        failed: runner.failed,
        values,
        model,
        record,
    })
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::MIN, f64::max)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::MAX, f64::min)
}

fn end_to_end<W: Workload>(
    runner: &mut Runner<'_, W>,
    values: &mut Values,
    model: &mut Values,
    record: &mut Json,
    trials: &[Trial],
) {
    let w = runner.w;
    let per = |f: &dyn Fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
    let ops_per_s = per(&|t| t.ops as f64 / t.wall.as_secs_f64());
    let cpu_us = per(&|t| t.cpu.as_secs_f64() * 1e6 / t.ops as f64);
    let model_s = per(&|t| t.model_ns as f64 / 1e9);
    // Host time of the schedule with every slice at its fastest replay:
    // other tenants of a shared host only ever slow a slice down, and the
    // slowdowns come and go over seconds, so the fastest of the replays of
    // the same requests is the steadiest reading of the program's own
    // cost.
    let ops = trials[0].ops as f64;
    let fastest = |part: fn(&(Duration, Duration)) -> Duration| -> f64 {
        (0..trials[0].chunks.len())
            .map(|k| {
                trials.iter().map(|t| part(&t.chunks[k])).min().unwrap_or_default().as_secs_f64()
            })
            .sum()
    };
    let host_ops_per_s = ops / fastest(|c| c.0);
    let host_cpu_us_per_op = fastest(|c| c.1) * 1e6 / ops;

    let arrivals = &w.arrivals()[..trials[0].ops];
    // Classic crossings charge model time deterministically: every trial
    // must repeat the first one's service times, so the replays run once.
    // The switchless engine's vary with thread timing, so each trial
    // replays.
    let exact = w.switchless().is_none();
    if exact && trials.iter().any(|t| t.service_ns != trials[0].service_ns) {
        runner.errors.push("model-time service times did not repeat across trials".into());
    }
    let replayed: Vec<&Trial> = if exact { vec![&trials[0]] } else { trials.iter().collect() };
    let latency: Vec<(u64, u64)> =
        replayed.iter().map(|t| latency_stats(arrivals, &t.service_ns)).collect();
    let p50 = latency.iter().map(|l| l.0 as f64 / 1e3).collect::<Vec<_>>();
    let p999 = latency.iter().map(|l| l.1 as f64 / 1e3).collect::<Vec<_>>();
    let capacity = replayed
        .iter()
        .map(|t| capacity_rps(arrivals, &t.service_ns, w.latency_limit_ns()))
        .collect::<Vec<_>>();
    let setup_s = runner.setup_batch_best();

    values.set("setup_s", median(&setup_s));
    values.set("host_ops_per_s", host_ops_per_s);
    values.set("host_cpu_us_per_op", host_cpu_us_per_op);
    values.set("peak_rss_mb", crate::sys::peak_rss_mb());
    model.set("model_s", median(&model_s));
    model.set("model_p50_us", median(&p50));
    model.set("model_p999_us", median(&p999));
    model.set("model_capacity_rps", median(&capacity));
    println!(
        "host: {host_ops_per_s:.0} ops/s and {host_cpu_us_per_op:.3} us cpu/op with every slice at its \
         fastest replay; trial spread of ops/s {:.2}%",
        (max(&ops_per_s) - min(&ops_per_s)) / median(&ops_per_s) * 100.0
    );
    for (name, v) in [
        ("setup_s", setup_s),
        ("trial_ops_per_s", ops_per_s),
        ("trial_cpu_us_per_op", cpu_us),
        ("model_s", model_s),
        ("model_p50_us", p50),
        ("model_p999_us", p999),
        ("model_capacity_rps", capacity),
    ] {
        record.push(name, v);
    }
}

/// The traced run: untraced reference trials (the tracing overhead and
/// trial spread are judged against them), one trial with the benchmark's
/// spans and layer probes, and a prefix of the schedule with the
/// program's own tracer off and then on. The traced trial and the prefix
/// take about two trials' time, so the run fills `--seconds` like an
/// end-to-end one.
fn traced<W: Workload>(
    runner: &mut Runner<'_, W>,
    values: &mut Values,
    opts: &RunOptions,
) -> Result<(), String> {
    let n = runner.w.ops();
    let reference = (0..timed_trials(opts.size, opts.seconds) - 2)
        .map(|k| {
            runner.trial(
                &format!("untraced {}", k + 1),
                TrialOptions { ops: n, ..TrialOptions::default() },
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let spans = Arc::clone(runner.spans.as_ref().expect("a traced run records spans"));
    let mut probes = Probes::new();
    let traced = runner.trial(
        "traced",
        TrialOptions {
            ops: n,
            spans: Some(&spans),
            probes: Some(&mut probes),
            ..TrialOptions::default()
        },
    )?;
    let m = (n / 4).max(1);
    let off = runner.trial("tracer off", TrialOptions { ops: m, ..TrialOptions::default() })?;
    let tracer = Tracer::new();
    tracer.enable();
    let on = runner.trial(
        "tracer on",
        TrialOptions { ops: m, tracer: Some(tracer), ..TrialOptions::default() },
    )?;
    let layers = Layers {
        reference: &reference,
        traced: &traced,
        spans: &spans,
        probes: &probes,
        off: &off,
        on: &on,
    };
    layers.set(values, runner);
    if let Some(path) = &opts.trace_out {
        let other = Json::obj()
            .with("workload", runner.w.name())
            .with("seed", opts.seed.to_string())
            .with("metrics", metrics_json(&values.0));
        std::fs::write(path, spans.to_chrome_json(other))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: wrote {}", path.display());
    }
    Ok(())
}

/// Everything the per-layer metrics are derived from.
struct Layers<'a> {
    /// Untraced trials of the same schedule.
    reference: &'a [Trial],
    /// The trial with the benchmark's spans and probes.
    traced: &'a Trial,
    spans: &'a Spans,
    probes: &'a Probes,
    /// A schedule prefix with the program's tracer off, then on.
    off: &'a Trial,
    on: &'a Trial,
}

/// Per-op ratio of a counter.
fn per_op(snap: &Snapshot, counter: Counter, ops: usize) -> f64 {
    snap.counter(counter) as f64 / ops as f64
}

impl Layers<'_> {
    fn set<W: Workload>(&self, values: &mut Values, runner: &Runner<'_, W>) {
        let ops = self.traced.ops;
        let snap = &self.traced.snap;
        values.set("setup.transform_us", runner.setup_median(|t| t.transform_us));
        values.set("setup.image_build_us", runner.setup_median(|t| t.image_build_us));
        values.set("setup.launch_us", runner.setup_median(|t| t.launch_us));

        // Every span under a request's `exec.call` is either another
        // `exec.call` (a nested crossing) or an `app.body`, so their self
        // times add up to the request's whole call.
        let call_self = self.spans.totals(SpanName::ExecCall).self_ns as f64 / ops as f64;
        let body = self.spans.totals(SpanName::AppBody).self_ns as f64 / ops as f64;
        let probed = self.probes.probed.max(1) as f64;
        let encode = self.probes.encode_ns as f64 / probed;
        let decode = self.probes.decode_ns as f64 / probed;
        let transition = self.probes.transition_ns as f64 / self.probes.transitions.max(1) as f64;
        let transitions_per_op =
            (snap.counter(Counter::Ecalls) + snap.counter(Counter::Ocalls)) as f64 / ops as f64;
        values.set("exec.call_ns", call_self + body);
        values.set("exec.self_ns", call_self - encode - decode - transitions_per_op * transition);
        values.set("exec.crossings_per_op", per_op(snap, Counter::RmiCalls, ops));
        values.set("app.body_ns", body);
        values.set("sgx.transition_ns", transition);
        values.set("sgx.transitions_per_op", transitions_per_op);
        values.set("sgx.epc_faults_per_op", per_op(snap, Counter::EpcFaults, ops));
        values.set("sgx.mee_bytes_per_op", per_op(snap, Counter::MeeBytes, ops));
        values.set("rmi.encode_ns", encode);
        values.set("rmi.decode_ns", decode);
        values.set("rmi.wire_bytes_per_op", per_op(snap, Counter::CodecBytesOut, ops));
        let encodes = snap.counter(Counter::SerdeEncodeCalls).max(1) as f64;
        values.set("rmi.fast_path_frac", snap.counter(Counter::SerdeFastPathHits) as f64 / encodes);
        values.set("rmi.shape_cache_misses", snap.counter(Counter::SerdeShapeCacheMisses) as f64);

        let calls = snap.counter(Counter::RmiCalls).max(1) as f64;
        values.set("switchless.hit_frac", snap.counter(Counter::SwitchlessCalls) as f64 / calls);
        values.set("switchless.fallbacks", snap.counter(Counter::SwitchlessFallbacks) as f64);
        // The pool records queue waits only while the program's tracer is
        // on, so the waits come from the tracer-on prefix; the scheduler's
        // task-wait histogram is always on.
        let mut waits = self.on.snap.hist(Hist::SwitchlessQueueWaitNs).clone();
        waits.merge(self.on.snap.hist(Hist::SchedTaskWaitNs));
        values.set("switchless.wait_p50_ns", waits.quantile(0.5) as f64);
        values.set("switchless.wait_p999_ns", waits.quantile(0.999) as f64);
        values.set("switchless.wakes_per_op", per_op(snap, Counter::SwitchlessWorkerWakes, ops));
        values.set("switchless.workers_peak", snap.gauge(Gauge::SwitchlessWorkersPeak) as f64);
        values.set("switchless.steals", snap.counter(Counter::SchedSteals) as f64);
        values.set("switchless.suspends", snap.counter(Counter::SchedSuspends) as f64);
        values.set("switchless.timeouts", snap.counter(Counter::SchedTimeouts) as f64);

        values.set("gc.collections_per_kop", per_op(snap, Counter::GcCollections, ops) * 1e3);
        values.set(
            "gc.pause_model_p999_us",
            snap.hist(Hist::GcPauseModelNs).quantile(0.999) as f64 / 1e3,
        );
        values.set("gc.bytes_copied_per_op", per_op(snap, Counter::GcBytesCopied, ops));
        let untraced = &self.reference[0];
        let pause_s = untraced.snap.hist(Hist::GcPauseNs).sum as f64 / 1e9;
        values.set("gc.pause_wall_frac", pause_s / untraced.wall.as_secs_f64());

        let wall_per_op = |t: &Trial| t.wall.as_secs_f64() * 1e9 / t.ops as f64;
        values.set("telemetry.trace_on_ns_per_op", wall_per_op(self.on) - wall_per_op(self.off));
        let walls: Vec<f64> = self.reference.iter().map(|t| t.wall.as_secs_f64()).collect();
        let traced_wall = self.traced.wall.as_secs_f64() - self.traced.probe_ns as f64 / 1e9;
        values.set("bench.trace_overhead_frac", traced_wall / median(&walls) - 1.0);
        let ops_per_s: Vec<f64> =
            self.reference.iter().map(|t| t.ops as f64 / t.wall.as_secs_f64()).collect();
        values.set("bench.trial_spread", (max(&ops_per_s) - min(&ops_per_s)) / median(&ops_per_s));
    }
}
