//! `montsalvat` — command-line partitioning tool.
//!
//! Takes an annotated class description, runs the full static pipeline
//! (transformation → reachability analysis → image building → SGX
//! code generation) and reports the partition: which classes land in
//! which image, the generated relays/proxies, and the EDL interface.
//!
//! ```sh
//! montsalvat partition app.mont            # report to stdout
//! montsalvat partition app.mont -o outdir  # also write EDL + bridge C
//! montsalvat partition app.mont --telemetry-out t.json
//!                                          # also launch the partitioned
//!                                          # app, run main, export metrics
//! montsalvat partition app.mont --trace-out trace.json
//!                                          # also capture a causal trace
//!                                          # (Chrome/Perfetto JSON)
//! montsalvat trace-report trace.json       # summarize a captured trace
//! montsalvat advise trace.json             # recommend re-annotations
//! montsalvat timeline timeseries.json      # render windowed timelines
//!                                          # and attribute latency spikes
//! montsalvat example                       # print a sample description
//! ```
//!
//! The description format (one construct per line):
//!
//! ```text
//! @Trusted class Account
//!   field owner
//!   field balance
//!   ctor 2
//!   method updateBalance 1
//!   method balance 0
//!
//! @Untrusted class Person
//!   field name
//!   method getAccount 0 calls Account.balance
//!
//! main Person.getAccount
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use montsalvat::core::analysis::Reachability;
use montsalvat::core::annotation::Trust;
use montsalvat::core::class::{
    ClassDef, ClassRole, Instr, MethodDef, MethodKind, MethodRef, Program, CTOR,
};
use montsalvat::core::codegen;
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::transform;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("example") => {
            print!("{}", EXAMPLE);
            ExitCode::SUCCESS
        }
        Some("partition") => {
            let Some(input) = args.get(1) else {
                eprintln!(
                    "usage: montsalvat partition <file> [-o <outdir>] \
                     [--telemetry-out <path>] [--trace-out <path>]"
                );
                return ExitCode::FAILURE;
            };
            let flag_path = |flag: &str| {
                args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(PathBuf::from)
            };
            let outdir = flag_path("-o");
            let telemetry_out = flag_path("--telemetry-out");
            let trace_out = flag_path("--trace-out");
            match run_partition(
                input,
                outdir.as_deref(),
                telemetry_out.as_deref(),
                trace_out.as_deref(),
            ) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("trace-report") => {
            let Some(input) = args.get(1) else {
                eprintln!("usage: montsalvat trace-report <trace.json> [--top <n>]");
                return ExitCode::FAILURE;
            };
            let top = args
                .iter()
                .position(|a| a == "--top")
                .and_then(|i| args.get(i + 1))
                .and_then(|n| n.parse().ok())
                .unwrap_or(5usize);
            match run_trace_report(input, top) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("timeline") => {
            let Some(input) = args.get(1) else {
                eprintln!("usage: montsalvat timeline <timeseries.json> [--k <factor>]");
                return ExitCode::FAILURE;
            };
            let k = args
                .iter()
                .position(|a| a == "--k")
                .and_then(|i| args.get(i + 1))
                .and_then(|n| n.parse().ok())
                .unwrap_or(montsalvat::telemetry::timeseries::DEFAULT_SPIKE_FACTOR);
            match run_timeline(input, k) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("advise") => {
            let Some(input) = args.get(1) else {
                eprintln!(
                    "usage: montsalvat advise <trace.json> [--program <file>] \
                     [--telemetry <t.json>] [--json] [--min-samples <n>] [--pin <A,B,..>]"
                );
                return ExitCode::FAILURE;
            };
            let flag_value = |flag: &str| {
                args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
            };
            let opts = AdviseOpts {
                program: flag_value("--program"),
                telemetry: flag_value("--telemetry"),
                json: args.iter().any(|a| a == "--json"),
                min_samples: flag_value("--min-samples").and_then(|n| n.parse().ok()),
                pin: flag_value("--pin")
                    .map(|list| list.split(',').map(|s| s.trim().to_owned()).collect())
                    .unwrap_or_default(),
            };
            match run_advise(input, &opts) {
                Ok(output) => {
                    print!("{output}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("montsalvat — annotation-based partitioning for (simulated) SGX enclaves");
            eprintln!();
            eprintln!("commands:");
            eprintln!("  partition <file> [-o <outdir>] [--telemetry-out <path>]");
            eprintln!("                   [--trace-out <path>]");
            eprintln!("                                  partition a class description;");
            eprintln!("                                  with --telemetry-out, also launch");
            eprintln!("                                  the app, run main, export metrics;");
            eprintln!("                                  with --trace-out, also capture a");
            eprintln!("                                  causal trace (Chrome/Perfetto JSON)");
            eprintln!("  trace-report <trace.json> [--top <n>]");
            eprintln!("                                  summarize a --trace-out capture:");
            eprintln!("                                  slowest call trees, per-class");
            eprintln!("                                  profiles, model-time breakdown");
            eprintln!("  advise <trace.json> [--program <file>] [--telemetry <t.json>]");
            eprintln!("                      [--json] [--min-samples <n>] [--pin <A,B,..>]");
            eprintln!("                                  price a --trace-out capture against");
            eprintln!("                                  the cost model and emit a ranked");
            eprintln!(
                "                                  re-annotation plan (docs/PARTITIONING.md)"
            );
            eprintln!("  timeline <timeseries.json> [--k <factor>]");
            eprintln!("                                  render a montsalvat.timeseries/v1");
            eprintln!("                                  export as aligned per-window");
            eprintln!("                                  timelines and attribute latency");
            eprintln!("                                  spikes (> k x median p95) to");
            eprintln!("                                  co-occurring GC/EPC/queue events");
            eprintln!("  example                         print a sample description");
            ExitCode::FAILURE
        }
    }
}

const EXAMPLE: &str = "\
# The paper's Listing-1 bank application.
@Trusted class Account
  field owner
  field balance
  ctor 2
  method updateBalance 1
  method balance 0

@Trusted class AccountRegistry
  field reg
  ctor 0
  method addAccount 1 calls Account.balance

@Untrusted class Person
  field name
  field account
  ctor 2 calls Account.<init>
  method getAccount 0
  method transfer 2 calls Person.getAccount calls Account.updateBalance

@Untrusted class Main
  static main 0 calls Person.<init> calls Person.transfer calls AccountRegistry.<init> calls AccountRegistry.addAccount

main Main.main
";

fn run_partition(
    input: &str,
    outdir: Option<&std::path::Path>,
    telemetry_out: Option<&std::path::Path>,
    trace_out: Option<&std::path::Path>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let program = parse_program(&text)?;
    let tp = transform(&program);
    let (trusted, untrusted) =
        build_partitioned_images(&tp, &ImageOptions::default(), &ImageOptions::default())
            .map_err(|e| e.to_string())?;

    println!("== partition report for {input} ==\n");
    print_image("trusted.o (enclave)", &trusted.classes, &trusted.reachability);
    print_image("untrusted.o (host)", &untrusted.classes, &untrusted.reachability);

    let artefacts = codegen::generate(&tp);
    println!("\n== generated EDL ==\n{}", artefacts.edl);

    if let Some(dir) = outdir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("montsalvat_enclave.edl"), &artefacts.edl)
            .map_err(|e| e.to_string())?;
        std::fs::write(dir.join("untrusted_bridges.c"), &artefacts.untrusted_bridge_c)
            .map_err(|e| e.to_string())?;
        std::fs::write(dir.join("trusted_bridges.c"), &artefacts.trusted_bridge_c)
            .map_err(|e| e.to_string())?;
        println!("artefacts written to {}", dir.display());
    }

    if telemetry_out.is_some() || trace_out.is_some() {
        export_run_outputs(&trusted, &untrusted, telemetry_out, trace_out)?;
    }
    Ok(())
}

/// Launches the freshly partitioned application, runs its `main` entry
/// point, and writes the run's telemetry as versioned JSON
/// ([`montsalvat::telemetry::SCHEMA`]) and/or its causal trace as
/// Chrome trace-event JSON ([`montsalvat::telemetry::trace::TRACE_SCHEMA`]).
fn export_run_outputs(
    trusted: &montsalvat::core::image_builder::NativeImage,
    untrusted: &montsalvat::core::image_builder::NativeImage,
    telemetry_out: Option<&std::path::Path>,
    trace_out: Option<&std::path::Path>,
) -> Result<(), String> {
    use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
    use montsalvat::telemetry::trace::Tracer;
    use montsalvat::telemetry::{Counter, Recorder};

    let recorder = Recorder::new();
    // A private tracer isolates this run's trace from anything else in
    // the process; capacity comes from MONTSALVAT_TRACE_BUFFER.
    let tracer = trace_out.map(|_| {
        let t = Tracer::new();
        t.enable();
        t
    });
    let config = AppConfig {
        telemetry: Some(recorder.clone()),
        trace: tracer.clone(),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(trusted, untrusted, config).map_err(|e| e.to_string())?;
    app.run_main().map_err(|e| e.to_string())?;
    let snapshot = recorder.snapshot();
    app.shutdown();
    if let Some(path) = telemetry_out {
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "\ntelemetry ({}): {} — ecalls {}, ocalls {}, proxies {}",
            montsalvat::telemetry::SCHEMA,
            path.display(),
            snapshot.counter(Counter::Ecalls),
            snapshot.counter(Counter::Ocalls),
            snapshot.counter(Counter::ProxiesCreated),
        );
    }
    if let (Some(path), Some(tracer)) = (trace_out, tracer) {
        let json = tracer.to_chrome_json(&[("rmi_calls", snapshot.counter(Counter::RmiCalls))]);
        std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace ({}): {} — {} events, {} dropped; load in Perfetto or run \
             `montsalvat trace-report {}`",
            montsalvat::telemetry::trace::TRACE_SCHEMA,
            path.display(),
            tracer.event_count(),
            tracer.dropped(),
            path.display(),
        );
    }
    Ok(())
}

/// Reads a `--trace-out` document and renders the textual summary.
fn run_trace_report(input: &str, top: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let trace = montsalvat::telemetry::trace::parse_chrome_trace(&text)
        .map_err(|e| format!("parsing {input}: {e}"))?;
    Ok(render_trace_report(&trace, top))
}

/// Reads a `montsalvat.timeseries/v1` export and renders the aligned
/// per-window timeline plus the spike report.
fn run_timeline(input: &str, k: f64) -> Result<String, String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let series = montsalvat::telemetry::timeseries::parse_timeseries(&text)
        .map_err(|e| format!("parsing {input}: {e}"))?;
    Ok(render_timeline(&series, k))
}

/// Builds the timeline report: a header (with an explicit WARN when
/// the recording ring dropped windows), one aligned row per stored
/// window, and the spike detector's verdict with per-spike cause
/// attribution. The detector is the library's — the CLI sees exactly
/// what `timeline_ablation` gates.
fn render_timeline(series: &montsalvat::telemetry::timeseries::ParsedSeries, k: f64) -> String {
    use montsalvat::telemetry::timeseries::{
        detect_spikes, WindowView, MIN_ACTIVE_WINDOWS, SCHEMA,
    };
    use std::fmt::Write as _;

    let views: Vec<WindowView> = series.windows.iter().map(WindowView::from_parsed).collect();
    let report = detect_spikes(&views, k);
    let spiky: std::collections::HashSet<usize> =
        report.spikes.iter().map(|s| s.window_index).collect();

    let mut out = String::new();
    let _ = writeln!(out, "== timeline report ==");
    let _ = writeln!(
        out,
        "{SCHEMA}: {} window(s) of {}, ring capacity {}, dropped {}",
        series.windows.len(),
        fmt_ns(series.window_ns),
        series.capacity,
        series.dropped
    );
    if series.dropped > 0 {
        let _ = writeln!(
            out,
            "WARN: {} window(s) dropped — the ring filled, the newest activity is \
             missing; raise MONTSALVAT_TIMESERIES_WINDOW or the capacity",
            series.dropped
        );
    }

    let _ = writeln!(out, "\n-- per-window timeline --");
    let _ = writeln!(
        out,
        "{:>4} {:>14} {:>6} {:>14} {:>4} {:>5} {:>4} {:>5} {:>4}",
        "win", "start", "reqs", "p95 latency", "gc", "epc", "wrk", "queue", "fbk"
    );
    for (i, v) in views.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4} {:>14} {:>6} {:>14} {:>4} {:>5} {:>4} {:>5} {:>4}{}",
            i,
            fmt_ns(v.start_ns),
            v.requests,
            fmt_ns(v.latency_p95),
            v.gc_events,
            v.epc_faults,
            v.workers,
            v.queue_depth,
            v.fallbacks,
            if spiky.contains(&i) { "  <- SPIKE" } else { "" }
        );
    }

    let _ = writeln!(out, "\n-- spike report --");
    if report.active_windows < MIN_ACTIVE_WINDOWS {
        let _ = writeln!(
            out,
            "{} latency-bearing window(s) — fewer than the {MIN_ACTIVE_WINDOWS} the \
             detector needs; nothing flagged",
            report.active_windows
        );
        return out;
    }
    let _ = writeln!(
        out,
        "{} latency-bearing window(s), median p95 {}, threshold {} (k = {k})",
        report.active_windows,
        fmt_ns(report.median_p95),
        fmt_ns(report.threshold)
    );
    if report.spikes.is_empty() {
        let _ = writeln!(out, "no spikes: every window's p95 stayed under the threshold");
        return out;
    }
    for spike in &report.spikes {
        let _ = writeln!(
            out,
            "spike at window {} [{} .. {}): p95 {}",
            spike.window_index,
            fmt_ns(spike.start_ns),
            fmt_ns(spike.end_ns),
            fmt_ns(spike.latency_p95)
        );
        for cause in &spike.causes {
            let _ = writeln!(
                out,
                "  {} ({} confidence): {}",
                cause.cause,
                cause.confidence.label(),
                cause.evidence
            );
        }
    }
    out
}

/// Parsed flags of the `advise` subcommand.
#[derive(Default)]
struct AdviseOpts {
    /// `.mont` description supplying declared annotations and
    /// statelessness (enables `@Neutral` suggestions).
    program: Option<String>,
    /// Telemetry export whose `rmi.calls` reconciles trace coverage.
    telemetry: Option<String>,
    /// Emit `montsalvat.advice/v1` JSON instead of the table.
    json: bool,
    /// Override `AdvisorConfig::min_samples`.
    min_samples: Option<u64>,
    /// Classes pinned to their current annotation.
    pin: Vec<String>,
}

/// Reads a `--trace-out` document, runs the partition advisor over it
/// with `MONTSALVAT_*`-overridable cost parameters, and renders the
/// plan (table or JSON). See `docs/PARTITIONING.md` for the equations.
fn run_advise(input: &str, opts: &AdviseOpts) -> Result<String, String> {
    use montsalvat::core::analysis::advisor::{advise, advise_with_classes, AdvisorConfig};
    use montsalvat::sgx::cost::CostParams;

    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let trace = montsalvat::telemetry::trace::parse_chrome_trace(&text)
        .map_err(|e| format!("parsing {input}: {e}"))?;
    let params = CostParams::from_env();
    let mut cfg = AdvisorConfig::default();
    if let Some(n) = opts.min_samples {
        cfg.min_samples = n;
    }
    cfg.pinned.extend(opts.pin.iter().cloned());

    let mut plan = match &opts.program {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let program = parse_program(&text)?;
            advise_with_classes(&trace, &params, &cfg, &program.classes)
        }
        None => advise(&trace, &params, &cfg),
    };
    if let Some(path) = &opts.telemetry {
        let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        if let Some(calls) = montsalvat::telemetry::extract_counter(&json, "rmi.calls") {
            plan.rmi_calls = Some(calls);
        }
    }
    if plan.recommendations.is_empty() {
        return Err(format!("no cat-\"rmi\" spans in {input}: nothing to advise on"));
    }
    Ok(if opts.json { plan.to_json() } else { plan.render_table() })
}

/// One reconstructed span of a parsed trace.
struct ReportSpan {
    name: String,
    cat: String,
    pid: u64,
    tid: u64,
    parent: u64,
    begin_ns: u64,
    end_ns: u64,
}

impl ReportSpan {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{}.{:03} ms", ns / 1_000_000, (ns % 1_000_000) / 1000)
    } else {
        format!("{}.{:03} µs", ns / 1000, ns % 1000)
    }
}

/// Builds the report: reconciliation against telemetry, top-N slowest
/// call trees, per-class call profiles, and a model-time breakdown by
/// category (transitions / serialization / queue wait / GC).
fn render_trace_report(trace: &montsalvat::telemetry::trace::ParsedTrace, top: usize) -> String {
    use std::collections::HashMap;
    use std::fmt::Write as _;

    let mut spans: Vec<ReportSpan> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    for ev in &trace.events {
        match ev.ph {
            'B' => {
                by_id.insert(ev.span, spans.len());
                spans.push(ReportSpan {
                    name: ev.name.clone(),
                    cat: ev.cat.clone(),
                    pid: ev.pid,
                    tid: ev.tid,
                    parent: ev.parent,
                    begin_ns: ev.model_ns,
                    end_ns: ev.model_ns,
                });
            }
            'E' => {
                if let Some(&i) = by_id.get(&ev.span) {
                    spans[i].end_ns = spans[i].end_ns.max(ev.model_ns);
                }
            }
            _ => {}
        }
    }
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut span_ids: Vec<u64> = vec![0; spans.len()];
    for (&id, &i) in &by_id {
        span_ids[i] = id;
        if spans[i].parent != 0 {
            children.entry(spans[i].parent).or_default().push(i);
        }
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|&i| spans[i].begin_ns);
    }

    // Total traced model time: the sum of root-span durations. (The
    // raw max timestamp is useless as a denominator — each launched
    // application has its own clock origin.)
    let tree_total: u64 =
        (0..spans.len()).filter(|&i| spans[i].parent == 0).map(|i| spans[i].dur_ns()).sum();

    let mut out = String::new();
    let _ = writeln!(out, "== trace report ==");
    let _ = writeln!(
        out,
        "events: {} spans, {} inside traced call trees",
        spans.len(),
        fmt_ns(tree_total)
    );
    let dropped = trace.other("dropped").unwrap_or(0);
    if dropped > 0 {
        let _ = writeln!(
            out,
            "WARN: {dropped} trace event(s) dropped — the ring filled, call trees may \
             be truncated; raise MONTSALVAT_TRACE_BUFFER"
        );
    }

    // Reconciliation: every cross_call opens exactly one cat-"rmi"
    // span, so telemetry's rmi.calls and the trace agree modulo drops.
    let rmi_spans = spans.iter().filter(|s| s.cat == "rmi").count() as u64;
    if let Some(rmi_calls) = trace.other("rmi_calls") {
        let verdict = if rmi_calls == rmi_spans
            || (rmi_spans <= rmi_calls && rmi_calls <= rmi_spans + dropped)
        {
            "OK"
        } else {
            "MISMATCH"
        };
        let _ = writeln!(
            out,
            "reconciliation: rmi.calls (telemetry) = {rmi_calls}, rmi spans (trace) = \
             {rmi_spans}, dropped = {dropped} — {verdict}"
        );
    } else {
        let _ = writeln!(
            out,
            "reconciliation: rmi spans (trace) = {rmi_spans}, dropped = {dropped} \
             (no rmi_calls in otherData)"
        );
    }

    // Top-N slowest call trees (roots = spans with no parent).
    let mut roots: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].parent == 0).collect();
    roots.sort_by_key(|&i| std::cmp::Reverse(spans[i].dur_ns()));
    let _ = writeln!(out, "\n-- top {} slowest call trees --", top.min(roots.len()));
    for (rank, &root) in roots.iter().take(top).enumerate() {
        let _ =
            writeln!(out, "#{} trace {} (lane pid {})", rank + 1, spans[root].tid, spans[root].pid);
        let mut lines = 0usize;
        print_tree(&mut out, &spans, &children, &span_ids, root, 1, &mut lines);
    }

    // Per-class call profile over proxy-call spans ("Class.relay").
    // (count, total ns, max ns, serde bytes, serde ns)
    let mut profile: HashMap<&str, (u64, u64, u64, u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.cat == "rmi") {
        let entry = profile.entry(s.name.as_str()).or_default();
        entry.0 += 1;
        entry.1 += s.dur_ns();
        entry.2 = entry.2.max(s.dur_ns());
    }
    // Serde attribution: marshal/unmarshal spans carry their payload
    // size as a `b=<bytes>` suffix; charge each one to the nearest
    // enclosing cat-"rmi" span (the proxy call that crossed).
    for (i, s) in spans.iter().enumerate() {
        if s.cat != "serde" {
            continue;
        }
        let bytes =
            s.name.rsplit_once("b=").and_then(|(_, n)| n.trim().parse::<u64>().ok()).unwrap_or(0);
        let mut parent = spans[i].parent;
        while parent != 0 {
            let Some(&p) = by_id.get(&parent) else { break };
            if spans[p].cat == "rmi" {
                if let Some(entry) = profile.get_mut(spans[p].name.as_str()) {
                    entry.3 += bytes;
                    entry.4 += s.dur_ns();
                }
                break;
            }
            parent = spans[p].parent;
        }
    }
    let mut profile: Vec<_> = profile.into_iter().collect();
    profile.sort_by_key(|(_, (_, total, ..))| std::cmp::Reverse(*total));
    let _ = writeln!(out, "\n-- per-class call profile (cat \"rmi\") --");
    let _ = writeln!(
        out,
        "{:<40} {:>6} {:>14} {:>14} {:>14} {:>10} {:>14}",
        "call", "count", "total", "mean", "max", "serde B", "serde t"
    );
    for (name, (count, total, max, serde_bytes, serde_ns)) in &profile {
        let _ = writeln!(
            out,
            "{:<40} {:>6} {:>14} {:>14} {:>14} {:>10} {:>14}",
            name,
            count,
            fmt_ns(*total),
            fmt_ns(total / count.max(&1)),
            fmt_ns(*max),
            serde_bytes,
            fmt_ns(*serde_ns)
        );
    }

    // Model-time breakdown: where the modelled nanoseconds go. The
    // categories nest (an "rmi" span contains its transition and serde
    // spans), so each line is time inside spans of that category, not
    // exclusive self-time.
    let _ = writeln!(out, "\n-- model-time breakdown --");
    for (cat, label) in [
        ("rmi", "proxy calls (end to end)"),
        ("sgx", "enclave transitions"),
        ("shim", "shim-relayed I/O ocalls"),
        ("serde", "serialization"),
        ("queue", "switchless queue wait"),
        ("exec", "relay execution"),
        ("gc", "garbage collection"),
    ] {
        let total: u64 = spans.iter().filter(|s| s.cat == cat).map(ReportSpan::dur_ns).sum();
        let count = spans.iter().filter(|s| s.cat == cat).count();
        if count == 0 {
            continue;
        }
        let pct = if tree_total > 0 { 100.0 * total as f64 / tree_total as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "{label:<28} {:>6} spans {:>14} ({pct:>5.1}% of traced time)",
            count,
            fmt_ns(total)
        );
    }

    // Tuner decisions: the switchless controller emits one zero-width
    // cat-"queue" mark per applied decision, named
    // `tune:<side> <reason> workers=<n> batch=<n> p95=<ns>ns`.
    // Group by side + reason so the report shows which branch of the
    // control law drove the run.
    let tunes: Vec<&ReportSpan> =
        spans.iter().filter(|s| s.cat == "queue" && s.name.starts_with("tune:")).collect();
    if !tunes.is_empty() {
        let mut by_kind: HashMap<String, u64> = HashMap::new();
        for s in &tunes {
            let kind = s
                .name
                .trim_start_matches("tune:")
                .split_whitespace()
                .take(2)
                .collect::<Vec<_>>()
                .join(" ");
            *by_kind.entry(kind).or_default() += 1;
        }
        let mut by_kind: Vec<_> = by_kind.into_iter().collect();
        by_kind.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let _ = writeln!(out, "\n-- switchless tuner decisions --");
        let _ = writeln!(out, "{} decisions applied", tunes.len());
        for (kind, count) in &by_kind {
            let _ = writeln!(out, "{kind:<28} {count:>6}");
        }
        if let Some(last) = tunes.iter().max_by_key(|s| s.begin_ns) {
            let _ = writeln!(out, "last: {}", last.name);
        }
    }

    out
}

/// Prints one call tree, indentation = nesting, capped at 40 lines.
fn print_tree(
    out: &mut String,
    spans: &[ReportSpan],
    children: &std::collections::HashMap<u64, Vec<usize>>,
    span_ids: &[u64],
    i: usize,
    depth: usize,
    lines: &mut usize,
) {
    use std::fmt::Write as _;
    if *lines >= 40 {
        if *lines == 40 {
            let _ = writeln!(out, "{}…", "  ".repeat(depth));
            *lines += 1;
        }
        return;
    }
    let s = &spans[i];
    let _ = writeln!(out, "{}{} [{}] {}", "  ".repeat(depth), s.name, s.cat, fmt_ns(s.dur_ns()));
    *lines += 1;
    if let Some(kids) = children.get(&span_ids[i]) {
        for &kid in kids {
            print_tree(out, spans, children, span_ids, kid, depth + 1, lines);
        }
    }
}

fn print_image(name: &str, classes: &[ClassDef], reach: &Reachability) {
    println!("{name}: {} classes, {} reachable methods", classes.len(), reach.methods.len());
    for class in classes {
        let role = match class.role {
            ClassRole::Concrete => class.trust.annotation_name().to_owned(),
            ClassRole::Proxy => format!("proxy for {}", class.trust.annotation_name()),
        };
        let relays = class.methods.iter().filter(|m| m.name.starts_with("relay$")).count();
        println!(
            "  {:<20} [{role}] {} methods{}",
            class.name,
            class.methods.len(),
            if relays > 0 { format!(" ({relays} relays)") } else { String::new() }
        );
    }
}

/// Parses the `.mont` description format.
fn parse_program(text: &str) -> Result<Program, String> {
    let mut classes: Vec<ClassDef> = Vec::new();
    let mut main: Option<MethodRef> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}", lineno + 1);
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [annot, "class", name] => {
                let trust = match *annot {
                    "@Trusted" => Trust::Trusted,
                    "@Untrusted" => Trust::Untrusted,
                    "@Neutral" => Trust::Neutral,
                    other => return Err(err(&format!("unknown annotation `{other}`"))),
                };
                classes.push(ClassDef::new(*name).trust(trust));
            }
            ["class", name] => classes.push(ClassDef::new(*name)),
            ["field", name] => {
                let class = classes.last_mut().ok_or_else(|| err("field before class"))?;
                *class = std::mem::replace(class, ClassDef::new("")).field(*name);
            }
            ["main", target] => {
                let (c, m) =
                    target.split_once('.').ok_or_else(|| err("main must be Class.method"))?;
                main = Some(MethodRef::new(c, m));
            }
            [kind @ ("method" | "ctor" | "static"), rest @ ..] if !rest.is_empty() => {
                let class = classes.last_mut().ok_or_else(|| err("method before class"))?;
                let (name, rest) = match *kind {
                    "ctor" => (CTOR, rest),
                    _ => (rest[0], &rest[1..]),
                };
                if rest.is_empty() {
                    return Err(err("missing parameter count"));
                }
                let params: usize =
                    rest[0].parse().map_err(|_| err("parameter count must be a number"))?;
                let mut calls = Vec::new();
                let mut i = 1;
                while i < rest.len() {
                    if rest[i] != "calls" || i + 1 >= rest.len() {
                        return Err(err("expected `calls Class.method`"));
                    }
                    let (c, m) = rest[i + 1]
                        .split_once('.')
                        .ok_or_else(|| err("call target must be Class.method"))?;
                    calls.push(MethodRef::new(c, m));
                    i += 2;
                }
                let method_kind = match *kind {
                    "ctor" => MethodKind::Constructor,
                    "static" => MethodKind::Static,
                    _ => MethodKind::Instance,
                };
                let mut def = MethodDef::interpreted(
                    name,
                    method_kind,
                    params,
                    params,
                    vec![Instr::Return { value: None }],
                );
                def.declared_calls = calls;
                *class = std::mem::replace(class, ClassDef::new("")).method(def);
            }
            _ => return Err(err(&format!("cannot parse `{line}`"))),
        }
    }
    let main = main.ok_or("missing `main Class.method` line")?;
    Program::new(classes, main).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_parses_and_partitions() {
        let program = parse_program(EXAMPLE).unwrap();
        assert_eq!(program.classes.len(), 4);
        let tp = transform(&program);
        let (trusted, untrusted) =
            build_partitioned_images(&tp, &ImageOptions::default(), &ImageOptions::default())
                .unwrap();
        assert!(trusted.class("Account").is_some());
        assert!(untrusted.class("Main").is_some());
    }

    #[test]
    fn parse_errors_are_located() {
        let err = parse_program("field x\nmain A.b").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_program("@Wat class A\nmain A.b").unwrap_err();
        assert!(err.contains("unknown annotation"));
        let err = parse_program("class A\n  method m notanumber\nmain A.m").unwrap_err();
        assert!(err.contains("number"));
    }

    #[test]
    fn missing_main_is_reported() {
        let err = parse_program("class A\n  static m 0\n").unwrap_err();
        assert!(err.contains("missing `main"));
    }

    #[test]
    fn dangling_calls_are_caught_by_validation() {
        let err = parse_program("class A\n  static m 0 calls Ghost.x\nmain A.m").unwrap_err();
        assert!(err.contains("Ghost"), "{err}");
    }

    #[test]
    fn trace_report_attributes_serde_to_enclosing_call() {
        use montsalvat::telemetry::trace::{parse_chrome_trace, Lane, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(64);
        let call = tracer
            .start(Lane::Untrusted, "rmi", None, 0, || "Account.relay$get".into())
            .expect("tracing enabled");
        let ctx = call.context();
        tracer.span_at(Lane::Untrusted, "serde", Some(ctx), 10, 30, 10, || {
            "marshal:fast b=64".into()
        });
        tracer.span_at(Lane::Untrusted, "serde", Some(ctx), 40, 50, 40, || "unmarshal b=36".into());
        tracer.finish(call, 100);
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let report = render_trace_report(&parsed, 3);
        assert!(report.contains("serde B"), "{report}");
        // 64 marshalled + 36 unmarshalled bytes, 20 + 10 ns of serde
        // time, all charged to the one Account.relay$get call.
        let profile_line = report
            .lines()
            .find(|l| l.contains("Account.relay$get") && !l.contains("[rmi]"))
            .expect("profile row for the call");
        assert!(profile_line.contains("100"), "serde bytes column: {profile_line}");
        assert!(profile_line.contains("0.030 µs"), "serde time column: {profile_line}");
    }

    #[test]
    fn advise_recommends_moving_a_crossing_dominated_class() {
        use montsalvat::telemetry::trace::{Lane, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(1024);
        for i in 0..16u64 {
            let t0 = i * 100_000;
            let call = tracer
                .start(Lane::Untrusted, "rmi", None, t0, || "Account.relay$balance".into())
                .expect("tracing enabled");
            let ecall = tracer
                .start(Lane::Trusted, "sgx", Some(call.context()), t0, || "ecall:relay".into())
                .expect("tracing enabled");
            tracer.finish(ecall, t0 + 1_000);
            tracer.finish(call, t0 + 2_000);
        }
        let dir = std::env::temp_dir().join("montsalvat-advise-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        std::fs::write(&trace_path, tracer.to_chrome_json(&[("rmi_calls", 16)])).unwrap();

        // Table output: Account is a move, telemetry count reconciles.
        let table =
            run_advise(trace_path.to_str().unwrap(), &AdviseOpts::default()).expect("advise runs");
        assert!(table.contains("Account"), "{table}");
        assert!(table.contains("move"), "{table}");
        assert!(table.contains("telemetry rmi.calls = 16"), "{table}");

        // JSON output carries the schema and a positive prediction.
        let json = run_advise(
            trace_path.to_str().unwrap(),
            &AdviseOpts { json: true, ..AdviseOpts::default() },
        )
        .expect("advise runs");
        assert!(json.contains("montsalvat.advice/v1"), "{json}");
        assert!(json.contains("\"verdict\": \"move\""), "{json}");

        // Pinning the class holds it.
        let pinned = run_advise(
            trace_path.to_str().unwrap(),
            &AdviseOpts { pin: vec!["Account".into()], ..AdviseOpts::default() },
        )
        .expect("advise runs");
        assert!(pinned.contains("pinned"), "{pinned}");
        let _ = std::fs::remove_file(&trace_path);
    }

    #[test]
    fn advise_errors_on_a_trace_without_crossings() {
        use montsalvat::telemetry::trace::{Lane, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(16);
        tracer.span_at(Lane::Trusted, "gc", None, 0, 10, 0, || "gc".into());
        let dir = std::env::temp_dir().join("montsalvat-advise-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("no-rmi.json");
        std::fs::write(&path, tracer.to_chrome_json(&[])).unwrap();
        let err = run_advise(path.to_str().unwrap(), &AdviseOpts::default()).unwrap_err();
        assert!(err.contains("nothing to advise on"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// Records five 1 µs windows of traffic — calm except window 3,
    /// which carries a ~1 ms latency observation plus one GC event —
    /// and returns the sealed series.
    fn spiky_series(capacity: usize) -> montsalvat::telemetry::timeseries::Series {
        use montsalvat::telemetry::timeseries::{FlightRecorder, TimeseriesConfig};
        use montsalvat::telemetry::{Counter, Hist, Recorder};
        let recorder = Recorder::new();
        let cfg = TimeseriesConfig { enabled: true, window_ns: 1_000, capacity };
        let mut flight = FlightRecorder::new(std::sync::Arc::clone(&recorder), cfg);
        for w in 0..5u64 {
            recorder.incr(Counter::TrafficRequests);
            let latency = if w == 3 { 1_000_000 } else { 1_000 };
            recorder.record(Hist::TrafficLatencyNs, latency);
            if w == 3 {
                recorder.incr(Counter::GcCollections);
            }
            flight.tick((w + 1) * 1_000);
        }
        flight.finish(5_000)
    }

    #[test]
    fn timeline_renders_windows_and_attributes_the_gc_spike() {
        let series = spiky_series(64);
        let dir = std::env::temp_dir().join("montsalvat-timeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timeseries.json");
        std::fs::write(&path, series.to_json()).unwrap();
        let report = run_timeline(path.to_str().unwrap(), 4.0).expect("timeline renders");
        assert!(report.contains("montsalvat.timeseries/v1"), "{report}");
        assert!(report.contains("5 window(s)"), "{report}");
        assert!(report.contains("<- SPIKE"), "{report}");
        assert!(report.contains("gc (high confidence)"), "{report}");
        // A clean recording gets no drop warning.
        assert!(!report.contains("WARN"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timeline_header_warns_when_the_ring_dropped_windows() {
        // Capacity 2 against five active windows: three are dropped.
        let series = spiky_series(2);
        assert!(series.dropped > 0);
        let dir = std::env::temp_dir().join("montsalvat-timeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dropped.json");
        std::fs::write(&path, series.to_json()).unwrap();
        let report = run_timeline(path.to_str().unwrap(), 4.0).expect("timeline renders");
        assert!(report.contains("WARN"), "{report}");
        assert!(report.contains("MONTSALVAT_TIMESERIES_WINDOW"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timeline_rejects_non_timeseries_documents() {
        let dir = std::env::temp_dir().join("montsalvat-timeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a-series.json");
        std::fs::write(&path, "{\"schema\": \"something.else/v9\"}\n").unwrap();
        let err = run_timeline(path.to_str().unwrap(), 4.0).unwrap_err();
        assert!(err.contains("montsalvat.timeseries/v1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_report_warns_on_dropped_events() {
        use montsalvat::telemetry::trace::{parse_chrome_trace, Lane, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(4);
        for i in 0..16u64 {
            tracer.span_at(Lane::Trusted, "gc", None, i * 10, i * 10 + 5, i * 10, || "gc".into());
        }
        assert!(tracer.dropped() > 0);
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let report = render_trace_report(&parsed, 3);
        assert!(report.contains("WARN"), "{report}");
        assert!(report.contains("MONTSALVAT_TRACE_BUFFER"), "{report}");
    }

    #[test]
    fn trace_report_summarises_tuner_decisions() {
        use montsalvat::telemetry::trace::{parse_chrome_trace, Lane, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(64);
        for (i, mark) in [
            "tune:trusted queue-pressure workers=2 batch=4 p95=90000ns",
            "tune:trusted queue-pressure workers=3 batch=4 p95=91000ns",
            "tune:trusted idle-waits workers=2 batch=4 p95=1000ns",
        ]
        .iter()
        .enumerate()
        {
            let at = 1_000 * (i as u64 + 1);
            tracer.span_at(Lane::Trusted, "queue", None, at, at, at, || (*mark).to_owned());
        }
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let report = render_trace_report(&parsed, 3);
        assert!(report.contains("switchless tuner decisions"), "{report}");
        assert!(report.contains("3 decisions applied"), "{report}");
        assert!(report.contains("trusted queue-pressure") && report.contains("2"), "{report}");
        assert!(report.contains("last: tune:trusted idle-waits"), "{report}");
    }
}
