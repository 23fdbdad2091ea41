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

use std::fmt::Write as _;
use std::path::PathBuf;

use experiments::report::{print_table, telemetry_out_from_args, Scale};
use experiments::traffic::{run_all, LaneResult, TrafficConfig};

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

fn arg_value(name: &str) -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next().map(PathBuf::from);
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(PathBuf::from(v));
        }
    }
    None
}

/// Minimal JSON number extraction for the flat baseline document:
/// finds `"key":` and parses the number after it. Adequate because the
/// baseline is machine-written by `--update-baseline` with unique keys.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_string(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
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
    if json_string(&doc, "schema").as_deref() != Some(BASELINE_SCHEMA) {
        eprintln!("baseline {}: unexpected schema, ignoring", path.display());
        return missing;
    }
    let scale_matches = json_string(&doc, "scale").as_deref() == Some(scale_name);
    Baseline {
        path: path.clone(),
        found: true,
        scale_matches,
        p50_ns: json_number(&doc, "p50_ns").unwrap_or(0.0),
        p95_ns: json_number(&doc, "p95_ns").unwrap_or(0.0),
        p99_ns: json_number(&doc, "p99_ns").unwrap_or(0.0),
        tol_p50: json_number(&doc, "tol_p50").unwrap_or(DEFAULT_TOLERANCE),
        tol_p95: json_number(&doc, "tol_p95").unwrap_or(DEFAULT_TOLERANCE),
        tol_p99: json_number(&doc, "tol_p99").unwrap_or(DEFAULT_TOLERANCE),
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
    let doc = format!(
        "{{\n  \"schema\": \"{BASELINE_SCHEMA}\",\n  \"lane\": \"{GATED_LANE}\",\n  \
         \"scale\": \"{scale_name}\",\n  \"p50_ns\": {},\n  \"p95_ns\": {},\n  \
         \"p99_ns\": {},\n  \"tol_p50\": {DEFAULT_TOLERANCE},\n  \"tol_p95\": \
         {DEFAULT_TOLERANCE},\n  \"tol_p99\": {DEFAULT_TOLERANCE}\n}}\n",
        gated.latency.p50_ns, gated.latency.p95_ns, gated.latency.p99_ns,
    );
    std::fs::write(path, doc)
}

fn lane_json(lane: &LaneResult) -> String {
    let mut out = String::new();
    let h50 = lane.snap.hist(telemetry::Hist::TrafficLatencyNs).quantile(0.50);
    let h95 = lane.snap.hist(telemetry::Hist::TrafficLatencyNs).quantile(0.95);
    let h99 = lane.snap.hist(telemetry::Hist::TrafficLatencyNs).quantile(0.99);
    write!(
        out,
        "    {{\n      \"name\": \"{name}\", \"provider\": \"{provider}\", \
         \"switchless\": {switchless},\n      \"requests\": {requests}, \
         \"hits\": {hits}, \"misses\": {misses}, \"puts\": {puts},\n      \
         \"checksum\": \"{checksum:#018x}\",\n      \
         \"latency_ns\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \
         \"mean\": {mean}, \"max\": {max}}},\n      \
         \"hist_latency_ns\": {{\"p50\": {h50}, \"p95\": {h95}, \"p99\": {h99}}},\n      \
         \"throughput_rps\": {rps:.1}, \"horizon_ns\": {horizon}, \
         \"model_time_ns\": {model},\n      \
         \"rmi\": {{\"calls\": {calls}, \"hits\": {shits}, \"fallbacks\": {sfb}}},\n      \
         \"sgx\": {{\"transitions\": {transitions}}}\n    }}",
        name = lane.spec.name,
        provider = lane.spec.provider,
        switchless = lane.spec.switchless,
        requests = lane.latencies_ns.len(),
        hits = lane.hits,
        misses = lane.misses,
        puts = lane.puts,
        checksum = lane.checksum,
        p50 = lane.latency.p50_ns,
        p95 = lane.latency.p95_ns,
        p99 = lane.latency.p99_ns,
        mean = lane.latency.mean_ns,
        max = lane.latency.max_ns,
        rps = lane.throughput_rps,
        horizon = lane.horizon_ns,
        model = lane.model_time_ns,
        calls = lane.rmi_calls(),
        shits = lane.switchless_hits(),
        sfb = lane.switchless_fallbacks(),
        transitions = lane.transitions(),
    )
    .expect("write to string");
    out
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
    let lanes_json: Vec<String> = lanes.iter().map(lane_json).collect();
    let checks_json: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "      {{\"name\": \"{}\", \"observed_ns\": {}, \"expected_ns\": {}, \
                 \"tolerance\": {}, \"within\": {}}}",
                c.name, c.observed_ns, c.expected_ns, c.tolerance, c.within
            )
        })
        .collect();
    let within: Vec<String> = checks.iter().map(|c| c.within.to_string()).collect();
    let reconciled = switchless_lane.rmi_calls()
        == switchless_lane.switchless_hits() + switchless_lane.switchless_fallbacks();
    format!(
        "{{\n  \"schema\": \"{TRAFFIC_SCHEMA}\",\n  \"scale\": \"{scale_name}\",\n  \
         \"seed\": {seed},\n  \"config\": {{\"requests\": {requests}, \"key_space\": \
         {key_space}, \"zipf_exponent\": {zipf}, \"mean_interarrival_ns\": {mean_ia}, \
         \"burst_factor\": {burst}, \"read_pct\": {read_pct}, \"value_bytes\": \
         {value_bytes}}},\n  \"lanes\": [\n{lanes}\n  ],\n  \
         \"rmi\": {{\"calls\": {calls}, \"hits\": {hits}, \"fallbacks\": {fallbacks}, \
         \"reconciled\": {reconciled}}},\n  \
         \"equivalence\": {{\"checksums_match\": {checksums_match}, \
         \"passthrough_transitions\": {pt_transitions}, \"passthrough_model_ns\": \
         {pt_model}, \"sim_sgx_model_ns\": {sgx_model}, \"passthrough_faster\": \
         {pt_faster}}},\n  \
         \"baseline\": {{\"path\": \"{bpath}\", \"found\": {bfound}, \
         \"scale_matches\": {bscale}, \"lane\": \"{GATED_LANE}\", \"checks\": \
         [\n{checks}\n    ]}},\n  \
         \"percentiles_within_band\": [{within}]\n}}\n",
        seed = cfg.seed,
        requests = cfg.requests,
        key_space = cfg.key_space,
        zipf = cfg.zipf_exponent,
        mean_ia = cfg.mean_interarrival_ns,
        burst = cfg.burst_factor,
        read_pct = cfg.read_pct,
        value_bytes = cfg.value_bytes,
        lanes = lanes_json.join(",\n"),
        calls = switchless_lane.rmi_calls(),
        hits = switchless_lane.switchless_hits(),
        fallbacks = switchless_lane.switchless_fallbacks(),
        reconciled = reconciled,
        pt_transitions = passthrough.transitions(),
        pt_model = passthrough.model_time_ns,
        sgx_model = sim_sgx.model_time_ns,
        pt_faster = passthrough.model_time_ns < sim_sgx.model_time_ns,
        bpath = baseline.path.display(),
        bfound = baseline.found,
        bscale = baseline.scale_matches,
        checks = checks_json.join(",\n"),
        within = within.join(", "),
    )
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
    if let Some(path) = telemetry_out_from_args() {
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
