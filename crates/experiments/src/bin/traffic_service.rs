//! Open-loop sustained-traffic service run + CI latency-regression gate.
//!
//! Drives the seed-pinned traffic schedule (`experiments::traffic`)
//! through three deployment lanes — `sim-sgx` classic, `sim-sgx`
//! switchless (thread-per-worker) and `passthrough` classic — and emits a
//! `montsalvat.traffic/v1` JSON report with per-lane p50/p95/p99
//! model-time latency, throughput, crossing reconciliation and the
//! provider comparison. With a committed baseline
//! (`results/traffic_baseline.json`) it becomes the repo's standing
//! latency-trajectory gate: the process exits non-zero when the
//! deterministic `sim-sgx-classic` percentiles drift outside the
//! baseline's tolerance bands. See `docs/DEPLOYMENT.md`.
//!
//! Flags: `--quick` (CI scale), `--json-out <path>` (the report),
//! `--baseline <path>` (default `results/traffic_baseline.json`),
//! `--update-baseline` (rewrite the baseline from this run, no gate),
//! `--no-gate` (report bands but always exit 0), `--telemetry-out
//! <path>` (aggregate telemetry plus `<path>.<lane>.json` per lane).
//!
//! Self-checking regardless of flags: all lanes must compute identical
//! response checksums, the passthrough lane must charge strictly less
//! model time than sim-sgx with zero enclave transitions, and the
//! switchless lane's crossings must reconcile
//! (`rmi.calls == hits + fallbacks`).

use std::path::PathBuf;

use experiments::report::{arg_value, print_table, Scale};
use experiments::traffic::{run_all, LaneResult, TrafficConfig};
use telemetry::json::Json;

/// Schema identifier of the emitted report.
const TRAFFIC_SCHEMA: &str = "montsalvat.traffic/v1";
/// Schema identifier of the baseline file.
const BASELINE_SCHEMA: &str = "montsalvat.traffic-baseline/v1";
/// The deterministic lane the baseline bands apply to.
const GATED_LANE: &str = "sim-sgx-classic";
/// Tolerance written into fresh baselines: generous enough for libm
/// ulp drift across hosts, tight enough to catch a real cost-model or
/// crossing-path regression (one extra crossing per request moves p50
/// by far more than this).
const DEFAULT_TOLERANCE: f64 = 0.25;

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

struct Baseline {
    path: PathBuf,
    found: bool,
    scale_matches: bool,
    p50_ns: f64,
    p95_ns: f64,
    p99_ns: f64,
    tol_p50: f64,
    tol_p95: f64,
    tol_p99: f64,
}

fn load_baseline(path: &PathBuf, scale_name: &str) -> Baseline {
    let missing = Baseline {
        path: path.clone(),
        found: false,
        scale_matches: false,
        p50_ns: 0.0,
        p95_ns: 0.0,
        p99_ns: 0.0,
        tol_p50: DEFAULT_TOLERANCE,
        tol_p95: DEFAULT_TOLERANCE,
        tol_p99: DEFAULT_TOLERANCE,
    };
    let Ok(doc) = std::fs::read_to_string(path) else { return missing };
    let doc = Json::parse(&doc).unwrap_or(Json::Null);
    let text = |key| doc.get(key).and_then(Json::as_str);
    if text("schema") != Some(BASELINE_SCHEMA) {
        eprintln!("baseline {}: unexpected schema, ignoring", path.display());
        return missing;
    }
    let number = |key, default| doc.get(key).and_then(Json::as_f64).unwrap_or(default);
    Baseline {
        path: path.clone(),
        found: true,
        scale_matches: text("scale") == Some(scale_name),
        p50_ns: number("p50_ns", 0.0),
        p95_ns: number("p95_ns", 0.0),
        p99_ns: number("p99_ns", 0.0),
        tol_p50: number("tol_p50", DEFAULT_TOLERANCE),
        tol_p95: number("tol_p95", DEFAULT_TOLERANCE),
        tol_p99: number("tol_p99", DEFAULT_TOLERANCE),
    }
}

struct BandCheck {
    name: &'static str,
    observed_ns: u64,
    expected_ns: f64,
    tolerance: f64,
    within: bool,
}

/// Two-sided band: a faster result outside the band also fails, so the
/// committed baseline tracks the real trajectory instead of silently
/// going stale after an improvement (refresh with `--update-baseline`).
fn band_checks(baseline: &Baseline, gated: &LaneResult) -> Vec<BandCheck> {
    if !(baseline.found && baseline.scale_matches) {
        return Vec::new();
    }
    let check = |name, observed_ns: u64, expected_ns: f64, tolerance: f64| BandCheck {
        name,
        observed_ns,
        expected_ns,
        tolerance,
        within: (observed_ns as f64 - expected_ns).abs() <= expected_ns * tolerance,
    };
    vec![
        check("p50", gated.latency.p50_ns, baseline.p50_ns, baseline.tol_p50),
        check("p95", gated.latency.p95_ns, baseline.p95_ns, baseline.tol_p95),
        check("p99", gated.latency.p99_ns, baseline.p99_ns, baseline.tol_p99),
    ]
}

fn write_baseline(path: &PathBuf, scale_name: &str, gated: &LaneResult) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = Json::obj()
        .with("schema", BASELINE_SCHEMA)
        .with("lane", GATED_LANE)
        .with("scale", scale_name)
        .with("p50_ns", gated.latency.p50_ns)
        .with("p95_ns", gated.latency.p95_ns)
        .with("p99_ns", gated.latency.p99_ns)
        .with("tol_p50", DEFAULT_TOLERANCE)
        .with("tol_p95", DEFAULT_TOLERANCE)
        .with("tol_p99", DEFAULT_TOLERANCE);
    std::fs::write(path, doc.to_pretty())
}

#[allow(clippy::too_many_arguments)]
fn report_json(
    scale_name: &str,
    cfg: &TrafficConfig,
    lanes: &[LaneResult],
    switchless_lane: &LaneResult,
    baseline: &Baseline,
    checks: &[BandCheck],
    checksums_match: bool,
    passthrough: &LaneResult,
    sim_sgx: &LaneResult,
) -> String {
    let lanes_json = lanes.iter().map(|lane| {
        let hist = lane.snap.hist(telemetry::Hist::TrafficLatencyNs);
        Json::obj()
            .with("name", lane.spec.name)
            .with("provider", lane.spec.provider.name())
            .with("switchless", lane.spec.switchless)
            .with("requests", lane.latencies_ns.len())
            .with("hits", lane.hits)
            .with("misses", lane.misses)
            .with("puts", lane.puts)
            .with("checksum", format!("{:#018x}", lane.checksum))
            .with(
                "latency_ns",
                Json::obj()
                    .with("p50", lane.latency.p50_ns)
                    .with("p95", lane.latency.p95_ns)
                    .with("p99", lane.latency.p99_ns)
                    .with("mean", lane.latency.mean_ns)
                    .with("max", lane.latency.max_ns),
            )
            .with(
                "hist_latency_ns",
                Json::obj()
                    .with("p50", hist.quantile(0.50))
                    .with("p95", hist.quantile(0.95))
                    .with("p99", hist.quantile(0.99)),
            )
            .with("throughput_rps", Json::fixed(lane.throughput_rps, 1))
            .with("horizon_ns", lane.horizon_ns)
            .with("model_time_ns", lane.model_time_ns)
            .with(
                "rmi",
                Json::obj()
                    .with("calls", lane.rmi_calls())
                    .with("hits", lane.switchless_hits())
                    .with("fallbacks", lane.switchless_fallbacks()),
            )
            .with("sgx", Json::obj().with("transitions", lane.transitions()))
    });
    let checks_json = checks.iter().map(|c| {
        Json::obj()
            .with("name", c.name)
            .with("observed_ns", c.observed_ns)
            .with("expected_ns", c.expected_ns)
            .with("tolerance", c.tolerance)
            .with("within", c.within)
    });
    let config = Json::obj()
        .with("requests", cfg.requests)
        .with("key_space", cfg.key_space)
        .with("zipf_exponent", cfg.zipf_exponent)
        .with("mean_interarrival_ns", cfg.mean_interarrival_ns)
        .with("burst_factor", cfg.burst_factor)
        .with("read_pct", u64::from(cfg.read_pct))
        .with("value_bytes", cfg.value_bytes);
    let rmi = Json::obj()
        .with("calls", switchless_lane.rmi_calls())
        .with("hits", switchless_lane.switchless_hits())
        .with("fallbacks", switchless_lane.switchless_fallbacks())
        .with(
            "reconciled",
            switchless_lane.rmi_calls()
                == switchless_lane.switchless_hits() + switchless_lane.switchless_fallbacks(),
        );
    let equivalence = Json::obj()
        .with("checksums_match", checksums_match)
        .with("passthrough_transitions", passthrough.transitions())
        .with("passthrough_model_ns", passthrough.model_time_ns)
        .with("sim_sgx_model_ns", sim_sgx.model_time_ns)
        .with("passthrough_faster", passthrough.model_time_ns < sim_sgx.model_time_ns);
    let baseline_json = Json::obj()
        .with("path", baseline.path.display().to_string())
        .with("found", baseline.found)
        .with("scale_matches", baseline.scale_matches)
        .with("lane", GATED_LANE)
        .with("checks", checks_json.collect::<Vec<_>>());
    let within = checks.iter().map(|c| Json::from(c.within));
    Json::obj()
        .with("schema", TRAFFIC_SCHEMA)
        .with("scale", scale_name)
        .with("seed", cfg.seed)
        .with("config", config)
        .with("lanes", lanes_json.collect::<Vec<_>>())
        .with("rmi", rmi)
        .with("equivalence", equivalence)
        .with("baseline", baseline_json)
        .with("percentiles_within_band", within.collect::<Vec<_>>())
        .to_pretty()
}

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let cfg = TrafficConfig::for_scale(scale);
    println!(
        "traffic: {} requests, {} keys (zipf {}), mean gap {} ns, burst x{}, {}% reads \
         (open loop, model time)",
        cfg.requests,
        cfg.key_space,
        cfg.zipf_exponent,
        cfg.mean_interarrival_ns,
        cfg.burst_factor,
        cfg.read_pct
    );

    let lanes = run_all(&cfg).expect("traffic lanes run");
    let gated = lanes.iter().find(|l| l.spec.name == GATED_LANE).expect("gated lane ran");
    let switchless_lane = lanes.iter().find(|l| l.spec.switchless).expect("switchless lane ran");
    let passthrough = lanes
        .iter()
        .find(|l| l.spec.provider == montsalvat_core::ProviderKind::PassThrough)
        .expect("passthrough lane ran");

    let rows: Vec<Vec<String>> = lanes
        .iter()
        .map(|l| {
            vec![
                l.spec.name.to_owned(),
                format!("{:.3}", l.latency.p50_ns as f64 / 1e6),
                format!("{:.3}", l.latency.p95_ns as f64 / 1e6),
                format!("{:.3}", l.latency.p99_ns as f64 / 1e6),
                format!("{:.0}", l.throughput_rps),
                l.rmi_calls().to_string(),
                l.switchless_hits().to_string(),
                l.switchless_fallbacks().to_string(),
                l.transitions().to_string(),
            ]
        })
        .collect();
    print_table(
        "Open-loop traffic by deployment lane (model-time latency)",
        &["lane", "p50 ms", "p95 ms", "p99 ms", "req/s", "rmi", "sw hits", "sw fb", "trans"],
        &rows,
    );

    // Invariants this harness exists to hold, gate or no gate.
    assert!(
        lanes.iter().all(|l| l.checksum == gated.checksum),
        "all lanes must compute identical response checksums: {:?}",
        lanes.iter().map(|l| (l.spec.name, l.checksum)).collect::<Vec<_>>()
    );
    assert_eq!(
        passthrough.transitions(),
        0,
        "the passthrough provider must perform zero enclave transitions"
    );
    assert!(
        passthrough.model_time_ns < gated.model_time_ns,
        "passthrough model time {} ns must be strictly below sim-sgx {} ns",
        passthrough.model_time_ns,
        gated.model_time_ns
    );
    assert_eq!(
        switchless_lane.rmi_calls(),
        switchless_lane.switchless_hits() + switchless_lane.switchless_fallbacks(),
        "switchless crossings must reconcile: every call is a hit or a fallback"
    );
    println!(
        "ok: checksums match ({:#018x}), passthrough {:.3} ms < sim-sgx {:.3} ms with 0 \
         transitions, switchless reconciles {} calls",
        gated.checksum,
        passthrough.model_time_ns as f64 / 1e6,
        gated.model_time_ns as f64 / 1e6,
        switchless_lane.rmi_calls(),
    );

    let baseline_path =
        arg_value("--baseline").unwrap_or_else(|| PathBuf::from("results/traffic_baseline.json"));
    if flag("--update-baseline") {
        write_baseline(&baseline_path, scale_name, gated).expect("write baseline");
        println!(
            "baseline updated: {} (lane {GATED_LANE}, scale {scale_name}, p50 {} / p95 {} / \
             p99 {} ns)",
            baseline_path.display(),
            gated.latency.p50_ns,
            gated.latency.p95_ns,
            gated.latency.p99_ns
        );
    }
    let baseline = load_baseline(&baseline_path, scale_name);
    let checks = band_checks(&baseline, gated);
    if baseline.found && !baseline.scale_matches {
        eprintln!(
            "baseline {}: recorded for a different scale; bands not applied (run with the \
             baseline's scale or refresh it with --update-baseline)",
            baseline_path.display()
        );
    } else if !baseline.found {
        eprintln!("baseline {}: not found; bands not applied", baseline_path.display());
    }
    for c in &checks {
        println!(
            "band {}: observed {} ns vs baseline {:.0} ns (tolerance {:.0}%) — {}",
            c.name,
            c.observed_ns,
            c.expected_ns,
            c.tolerance * 100.0,
            if c.within { "within" } else { "OUT OF BAND" }
        );
    }

    let report = report_json(
        scale_name,
        &cfg,
        &lanes,
        switchless_lane,
        &baseline,
        &checks,
        true,
        passthrough,
        gated,
    );
    if let Some(path) = arg_value("--json-out") {
        std::fs::write(&path, &report).expect("write traffic report");
        println!("report ({TRAFFIC_SCHEMA}): {}", path.display());
    }
    if let Some(path) = arg_value("--telemetry-out") {
        for lane in &lanes {
            let lane_path = path.with_extension(format!("{}.json", lane.spec.name));
            std::fs::write(&lane_path, lane.snap.to_json()).expect("write lane telemetry");
            println!("telemetry ({}): {}", lane.spec.name, lane_path.display());
        }
    }
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();

    let out_of_band: Vec<&BandCheck> = checks.iter().filter(|c| !c.within).collect();
    if !out_of_band.is_empty() && !flag("--no-gate") {
        for c in &out_of_band {
            eprintln!(
                "latency regression: {} = {} ns is outside {:.0} ns ± {:.0}% — investigate, \
                 or refresh results/traffic_baseline.json with --update-baseline if the \
                 change is intended",
                c.name,
                c.observed_ns,
                c.expected_ns,
                c.tolerance * 100.0
            );
        }
        std::process::exit(1);
    }
}
