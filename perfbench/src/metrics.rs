//! The metric catalogue: every end-to-end, model-clock and per-layer
//! metric the benchmark prints, with unit, clock, direction and (all but
//! per-layer) regression bound. `BENCHMARK.json` lists the end-to-end and
//! per-layer names, units, directions and bounds; the smoke test keeps the
//! two in step.

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time or host resources: what running the simulator costs.
    Host,
    /// Charged model time: what the modelled SGX platform would take.
    /// Deterministic for a given seed on the classic-crossing workloads.
    Model,
    /// A count or ratio of events (clock-free).
    Count,
}

impl Clock {
    /// Lower-case label for tables and records.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Model => "model",
            Clock::Count => "count",
        }
    }
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit the value is expressed in.
    pub unit: &'static str,
    /// Clock the value reads.
    pub clock: Clock,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median a change may worsen it by before
    /// `compare` calls it a regression (none for per-layer metrics).
    pub bound: Option<f64>,
}

const fn bounded(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Metric {
    Metric { name, unit, clock, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Metric {
    Metric { name, unit, clock, better, bound: None }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Model};

/// End-to-end metrics, printed by every untraced run on every workload
/// and listed in `BENCHMARK.json`. They read the host clock, so their
/// bounds allow for a shared host's seed-to-seed and run-to-run spread.
pub const END_TO_END: [Metric; 4] = [
    bounded("setup_s", "s", Host, Lower, 0.25),
    bounded("host_ops_per_s", "1/s", Host, Higher, 0.25),
    bounded("host_cpu_us_per_op", "us", Host, Lower, 0.25),
    bounded("peak_rss_mb", "MB", Host, Lower, 0.10),
];

/// Model-clock end-to-end metrics, printed and recorded by every untraced
/// run and judged by `compare`, seed against seed. They are exact for a
/// given seed on the classic-crossing workloads, hence the 0.1% bound;
/// across seeds they either do not move at all or move by more than that,
/// so `BENCHMARK.json`, whose runs vary the seed, does not list them.
pub const MODEL: [Metric; 4] = [
    bounded("model_s", "s", Model, Lower, 0.001),
    bounded("model_p50_us", "us", Model, Lower, 0.001),
    bounded("model_p999_us", "us", Model, Lower, 0.001),
    bounded("model_capacity_rps", "1/s", Model, Higher, 0.001),
];

/// Per-layer metrics, printed by every traced run on every workload.
pub const PER_LAYER: [Metric; 32] = [
    layer("setup.transform_us", "us", Host, Lower),
    layer("setup.image_build_us", "us", Host, Lower),
    layer("setup.launch_us", "us", Host, Lower),
    layer("exec.call_ns", "ns", Host, Lower),
    layer("exec.self_ns", "ns", Host, Lower),
    layer("exec.crossings_per_op", "count/op", Count, Lower),
    layer("app.body_ns", "ns", Host, Lower),
    layer("sgx.transition_ns", "ns", Host, Lower),
    layer("sgx.transitions_per_op", "count/op", Count, Lower),
    layer("sgx.epc_faults_per_op", "count/op", Count, Lower),
    layer("sgx.mee_bytes_per_op", "bytes/op", Count, Lower),
    layer("rmi.encode_ns", "ns", Host, Lower),
    layer("rmi.decode_ns", "ns", Host, Lower),
    layer("rmi.wire_bytes_per_op", "bytes/op", Count, Lower),
    layer("rmi.fast_path_frac", "frac", Count, Higher),
    layer("rmi.shape_cache_misses", "count", Count, Lower),
    layer("switchless.hit_frac", "frac", Count, Higher),
    layer("switchless.fallbacks", "count", Count, Lower),
    layer("switchless.wait_p50_ns", "ns", Model, Lower),
    layer("switchless.wait_p999_ns", "ns", Model, Lower),
    layer("switchless.wakes_per_op", "count/op", Count, Lower),
    layer("switchless.workers_peak", "count", Count, Lower),
    layer("switchless.steals", "count", Count, Lower),
    layer("switchless.suspends", "count", Count, Lower),
    layer("switchless.timeouts", "count", Count, Lower),
    layer("gc.collections_per_kop", "count/kop", Count, Lower),
    layer("gc.pause_model_p999_us", "us", Model, Lower),
    layer("gc.bytes_copied_per_op", "bytes/op", Count, Lower),
    layer("gc.pause_wall_frac", "frac", Host, Lower),
    layer("telemetry.trace_on_ns_per_op", "ns", Host, Lower),
    layer("bench.trace_overhead_frac", "frac", Host, Lower),
    layer("bench.trial_spread", "frac", Host, Lower),
];

/// Looks a metric up by name in every catalogue.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&MODEL).chain(&PER_LAYER).find(|m| m.name == name)
}

/// Metric values in catalogue order.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(&'static Metric, f64)>);

impl Values {
    /// Records `value` for the catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue — a bug in this
    /// benchmark, not in its input.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = find(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.0.push((metric, value));
    }
}
