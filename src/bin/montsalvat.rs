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
use montsalvat::telemetry::trace::ParsedSpan;

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
                    "usage: montsalvat advise <trace.json> [--program <file>] [--json] \
                     [--min-samples <n>] [--pin <A,B,..>]"
                );
                return ExitCode::FAILURE;
            };
            let flag_value = |flag: &str| {
                args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
            };
            let opts = AdviseOpts {
                program: flag_value("--program"),
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
            eprintln!("  advise <trace.json> [--program <file>] [--json]");
            eprintln!("                      [--min-samples <n>] [--pin <A,B,..>]");
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
    use montsalvat::telemetry::timeseries::{detect_spikes, MIN_ACTIVE_WINDOWS, SCHEMA};
    use std::fmt::Write as _;

    let report = detect_spikes(&series.windows, k);
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
    for (i, v) in series.windows.iter().enumerate() {
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
    /// Emit `montsalvat.advice/v1` JSON instead of the table.
    json: bool,
    /// Override `AdvisorConfig::min_samples`.
    min_samples: Option<u64>,
    /// Classes pinned to their current annotation.
    pin: Vec<String>,
}

/// Reads a `--trace-out` document, runs the partition advisor over it
/// with the paper's cost parameters (the set `AppConfig::default()`
/// launches every app with), and renders the plan (table or JSON). See
/// `docs/PARTITIONING.md` for the equations.
fn run_advise(input: &str, opts: &AdviseOpts) -> Result<String, String> {
    use montsalvat::core::analysis::advisor::{advise, advise_with_classes, AdvisorConfig};
    use montsalvat::sgx::cost::CostParams;

    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let trace = montsalvat::telemetry::trace::parse_chrome_trace(&text)
        .map_err(|e| format!("parsing {input}: {e}"))?;
    let params = CostParams::paper_defaults();
    let mut cfg = AdvisorConfig::default();
    if let Some(n) = opts.min_samples {
        cfg.min_samples = n;
    }
    cfg.pinned.extend(opts.pin.iter().cloned());

    let plan = match &opts.program {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let program = parse_program(&text)?;
            advise_with_classes(&trace, &params, &cfg, &program.classes)
        }
        None => advise(&trace, &params, &cfg),
    };
    if plan.recommendations.is_empty() {
        return Err(format!("no cat-\"rmi\" spans in {input}: nothing to advise on"));
    }
    Ok(if opts.json { plan.to_json() } else { plan.render_table() })
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

    let spans = &trace.spans;

    // Total traced model time: the sum of root-span durations. (The
    // raw max timestamp is useless as a denominator — each launched
    // application has its own clock origin.)
    let mut roots: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].parent_id == 0).collect();
    let tree_total: u64 = roots.iter().map(|&i| spans[i].dur_ns()).sum();

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
    roots.sort_by_key(|&i| std::cmp::Reverse(spans[i].dur_ns()));
    let _ = writeln!(out, "\n-- top {} slowest call trees --", top.min(roots.len()));
    for (rank, &root) in roots.iter().take(top).enumerate() {
        let root_span = &spans[root];
        let _ = writeln!(out, "#{} trace {} (lane pid {})", rank + 1, root_span.tid, root_span.pid);
        let mut lines = 0usize;
        print_tree(&mut out, spans, root, 1, &mut lines);
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
    for s in spans.iter().filter(|s| s.cat == "serde") {
        let mut parent = s.parent;
        while let Some(p) = parent {
            if spans[p].cat == "rmi" {
                if let Some(entry) = profile.get_mut(spans[p].name.as_str()) {
                    entry.3 += s.payload_bytes;
                    entry.4 += s.dur_ns();
                }
                break;
            }
            parent = spans[p].parent;
        }
    }
    // Largest total first; equal totals in name order, so the report
    // is the same on every run.
    let mut profile: Vec<_> = profile.into_iter().collect();
    profile.sort_by_key(|&(name, (_, total, ..))| (std::cmp::Reverse(total), name));
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

    // Model-time breakdown: where the modelled nanoseconds go. Each
    // row is the exclusive time of its category's spans (a span's own
    // time, outside its children), so on a single-threaded capture
    // that dropped nothing the rows sum to the traced total. Children
    // served on other threads can overlap; each span floors at zero.
    let pct = |ns: u64| if tree_total > 0 { 100.0 * ns as f64 / tree_total as f64 } else { 0.0 };
    let _ = writeln!(out, "\n-- model-time breakdown (exclusive time) --");
    let (mut all_count, mut all_total) = (0usize, 0u64);
    for (cat, label) in [
        ("rmi", "proxy calls (own time)"),
        ("sgx", "enclave transitions"),
        ("shim", "shim-relayed I/O ocalls"),
        ("serde", "serialization"),
        ("queue", "switchless queue wait"),
        ("exec", "relay execution"),
        ("gc", "garbage collection"),
    ] {
        let of_cat: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].cat == cat).collect();
        if of_cat.is_empty() {
            continue;
        }
        let total: u64 = of_cat.iter().map(|&i| trace.exclusive_ns(i)).sum();
        all_count += of_cat.len();
        all_total += total;
        let _ = writeln!(
            out,
            "{label:<28} {:>6} spans {:>14} ({:>5.1}% of traced time)",
            of_cat.len(),
            fmt_ns(total),
            pct(total)
        );
    }
    let _ = writeln!(
        out,
        "{:<28} {all_count:>6} spans {:>14} ({:>5.1}% of traced time)",
        "total",
        fmt_ns(all_total),
        pct(all_total)
    );

    out
}

/// Prints one call tree, indentation = nesting, capped at 40 lines.
fn print_tree(out: &mut String, spans: &[ParsedSpan], i: usize, depth: usize, lines: &mut usize) {
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
    for &kid in &s.children {
        print_tree(out, spans, kid, depth + 1, lines);
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

    /// A directory of one test's own in the system temp dir, named with
    /// the process id and the test, so concurrent test runs never share
    /// it. Dropping it removes it with its files, also when the test
    /// panics.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(test: &str) -> TestDir {
            let name = format!("montsalvat-{}-{test}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        /// Writes `contents` to `file` in the directory and returns the
        /// file's path.
        fn write(&self, file: &str, contents: impl AsRef<[u8]>) -> String {
            let path = self.0.join(file);
            std::fs::write(&path, contents).unwrap();
            path.to_str().expect("temp paths are UTF-8").to_owned()
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

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

    fn enabled_tracer(capacity: usize) -> std::sync::Arc<montsalvat::telemetry::trace::Tracer> {
        let tracer = montsalvat::telemetry::trace::Tracer::new();
        tracer.enable_with_capacity(capacity);
        tracer
    }

    /// Records one complete span over `(begin, end)` model ns and
    /// returns its context, so children can be recorded under it.
    fn span(
        tracer: &montsalvat::telemetry::trace::Tracer,
        lane: montsalvat::telemetry::trace::Lane,
        cat: &'static str,
        parent: Option<montsalvat::telemetry::trace::SpanContext>,
        (begin, end): (u64, u64),
        name: &str,
    ) -> Option<montsalvat::telemetry::trace::SpanContext> {
        let begin = Some(montsalvat::telemetry::trace::Stamp { model_ns: begin, wall_ns: 0 });
        tracer.span_at(lane, cat, parent, begin, || end, || name.to_owned())
    }

    #[test]
    fn breakdown_rows_are_exclusive_and_sum_to_the_traced_total() {
        use montsalvat::telemetry::trace::{parse_chrome_trace, Lane};
        let tracer = enabled_tracer(64);
        // Two single-threaded call trees: 1000 ns and 400 ns.
        let main = span(&tracer, Lane::Trusted, "sgx", None, (0, 1_000), "ecall:ecall_enter");
        let call = span(&tracer, Lane::Trusted, "rmi", main, (100, 900), "A.relay$a");
        span(&tracer, Lane::Trusted, "serde", call, (100, 150), "marshal:fast b=8");
        let ocall = span(&tracer, Lane::Untrusted, "sgx", call, (200, 800), "ocall:relay");
        let serve = span(&tracer, Lane::Untrusted, "exec", ocall, (210, 790), "serve:A.relay$a");
        span(&tracer, Lane::Untrusted, "gc", serve, (300, 340), "gc:minor");
        span(&tracer, Lane::Trusted, "serde", call, (850, 900), "unmarshal b=4");
        span(&tracer, Lane::Untrusted, "gc", None, (5_000, 5_400), "gc-sweep:untrusted dead=1");
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let report = render_trace_report(&parsed, 0);
        let rows: Vec<(&str, u64)> = report
            .lines()
            .skip_while(|l| !l.starts_with("-- model-time breakdown (exclusive time) --"))
            .skip(1)
            .map(|l| {
                let (label, rest) = l.split_at(28);
                let ns = rest.split_whitespace().nth(2).unwrap().replace('.', "");
                (label.trim_end(), ns.parse().unwrap())
            })
            .collect();
        assert!(report.contains("1.400 µs inside traced call trees"), "{report}");
        // sgx: 200 + 20, rmi: 800 - 50 - 600 - 50, serde: 50 + 50,
        // exec: 580 - 40, gc: 40 + 400 (values in ns, printed as µs).
        assert_eq!(
            rows,
            [
                ("proxy calls (own time)", 100),
                ("enclave transitions", 220),
                ("serialization", 100),
                ("relay execution", 540),
                ("garbage collection", 440),
                ("total", 1_400),
            ],
            "{report}"
        );
    }

    #[test]
    fn trace_report_attributes_serde_to_enclosing_call() {
        use montsalvat::telemetry::trace::{parse_chrome_trace, Lane};
        let tracer = enabled_tracer(64);
        let call = span(&tracer, Lane::Untrusted, "rmi", None, (0, 100), "Account.relay$get");
        span(&tracer, Lane::Untrusted, "serde", call, (10, 30), "marshal:fast b=64");
        span(&tracer, Lane::Untrusted, "serde", call, (40, 50), "unmarshal b=36");
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
    fn trace_report_lists_equal_profile_totals_in_name_order() {
        use montsalvat::telemetry::trace::{parse_chrome_trace, Lane};
        let tracer = enabled_tracer(64);
        let names = ["F.relay$f", "B.relay$b", "D.relay$d", "A.relay$a", "E.relay$e", "C.relay$c"];
        for (i, name) in (0u64..).zip(names) {
            span(&tracer, Lane::Untrusted, "rmi", None, (i * 1_000, i * 1_000 + 500), name);
        }
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let report = render_trace_report(&parsed, 0);
        let rows: Vec<&str> = report
            .lines()
            .skip_while(|l| !l.starts_with("call "))
            .skip(1)
            .take(names.len())
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        assert_eq!(rows, sorted, "{report}");
    }

    #[test]
    fn advise_recommends_moving_a_crossing_dominated_class() {
        use montsalvat::telemetry::trace::Lane;
        let tracer = enabled_tracer(1024);
        for i in 0..16u64 {
            let t0 = i * 100_000;
            let call = span(
                &tracer,
                Lane::Untrusted,
                "rmi",
                None,
                (t0, t0 + 2_000),
                "Account.relay$balance",
            );
            span(&tracer, Lane::Trusted, "sgx", call, (t0, t0 + 1_000), "ecall:relay");
        }
        let dir = TestDir::new("advise-recommends-a-move");
        let trace_path = dir.write("trace.json", tracer.to_chrome_json(&[("rmi_calls", 16)]));

        // Table output: Account is a move, telemetry count reconciles.
        let table = run_advise(&trace_path, &AdviseOpts::default()).expect("advise runs");
        assert!(table.contains("Account"), "{table}");
        assert!(table.contains("move"), "{table}");
        assert!(table.contains("telemetry rmi.calls = 16"), "{table}");

        // JSON output carries the schema and a positive prediction.
        let json = run_advise(&trace_path, &AdviseOpts { json: true, ..AdviseOpts::default() })
            .expect("advise runs");
        assert!(json.contains("montsalvat.advice/v1"), "{json}");
        assert!(json.contains("\"verdict\": \"move\""), "{json}");

        // Pinning the class holds it.
        let pinned = run_advise(
            &trace_path,
            &AdviseOpts { pin: vec!["Account".into()], ..AdviseOpts::default() },
        )
        .expect("advise runs");
        assert!(pinned.contains("pinned"), "{pinned}");
    }

    #[test]
    fn advise_json_escapes_class_names_from_the_trace() {
        use montsalvat::telemetry::trace::Lane;
        let tracer = enabled_tracer(1024);
        for i in 0..16u64 {
            let t0 = i * 100_000;
            let call =
                span(&tracer, Lane::Untrusted, "rmi", None, (t0, t0 + 2_000), "Ev\"il.relay$get");
            span(&tracer, Lane::Trusted, "sgx", call, (t0, t0 + 1_000), "ecall:relay");
        }
        let dir = TestDir::new("advise-json-escapes");
        let path = dir.write("quoted-class.json", tracer.to_chrome_json(&[]));
        let json = run_advise(&path, &AdviseOpts { json: true, ..AdviseOpts::default() })
            .expect("advise runs");
        assert!(json.contains(r#""class": "Ev\"il""#), "{json}");
    }

    #[test]
    fn advise_errors_on_a_trace_without_crossings() {
        use montsalvat::telemetry::trace::{Lane, Stamp, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(16);
        tracer.span_at(
            Lane::Trusted,
            "gc",
            None,
            Some(Stamp { model_ns: 0, wall_ns: 0 }),
            || 10,
            || "gc".into(),
        );
        let dir = TestDir::new("advise-without-crossings");
        let path = dir.write("no-rmi.json", tracer.to_chrome_json(&[]));
        let err = run_advise(&path, &AdviseOpts::default()).unwrap_err();
        assert!(err.contains("nothing to advise on"), "{err}");
    }

    /// Records five 1 µs windows of traffic — calm except window 3,
    /// which carries a ~1 ms latency observation plus one GC event —
    /// and returns the sealed series.
    fn spiky_series(capacity: usize) -> montsalvat::telemetry::timeseries::Series {
        use montsalvat::telemetry::timeseries::{FlightRecorder, TimeseriesConfig};
        use montsalvat::telemetry::{Counter, Hist, Recorder};
        let recorder = Recorder::new();
        let cfg = TimeseriesConfig { window_ns: 1_000, capacity };
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
        let dir = TestDir::new("timeline-gc-spike");
        let path = dir.write("timeseries.json", series.to_json());
        let report = run_timeline(&path, 4.0).expect("timeline renders");
        assert!(report.contains("montsalvat.timeseries/v1"), "{report}");
        assert!(report.contains("5 window(s)"), "{report}");
        assert!(report.contains("<- SPIKE"), "{report}");
        assert!(report.contains("gc (high confidence)"), "{report}");
        // A clean recording gets no drop warning.
        assert!(!report.contains("WARN"), "{report}");
    }

    #[test]
    fn timeline_header_warns_when_the_ring_dropped_windows() {
        // Capacity 2 against five active windows: three are dropped.
        let series = spiky_series(2);
        assert!(series.dropped > 0);
        let dir = TestDir::new("timeline-dropped-windows");
        let path = dir.write("dropped.json", series.to_json());
        let report = run_timeline(&path, 4.0).expect("timeline renders");
        assert!(report.contains("WARN"), "{report}");
        assert!(report.contains("MONTSALVAT_TIMESERIES_WINDOW"), "{report}");
    }

    #[test]
    fn timeline_rejects_non_timeseries_documents() {
        let dir = TestDir::new("timeline-not-a-series");
        let path = dir.write("not-a-series.json", "{\"schema\": \"something.else/v9\"}\n");
        let err = run_timeline(&path, 4.0).unwrap_err();
        assert!(err.contains("montsalvat.timeseries/v1"), "{err}");
    }

    #[test]
    fn trace_report_warns_on_dropped_events() {
        use montsalvat::telemetry::trace::{parse_chrome_trace, Lane, Stamp, Tracer};
        let tracer = Tracer::new();
        tracer.enable_with_capacity(4);
        for i in 0..16u64 {
            tracer.span_at(
                Lane::Trusted,
                "gc",
                None,
                Some(Stamp { model_ns: i * 10, wall_ns: i * 10 }),
                || i * 10 + 5,
                || "gc".into(),
            );
        }
        assert!(tracer.dropped() > 0);
        let parsed = parse_chrome_trace(&tracer.to_chrome_json(&[])).unwrap();
        let report = render_trace_report(&parsed, 3);
        assert!(report.contains("WARN"), "{report}");
        assert!(report.contains("MONTSALVAT_TRACE_BUFFER"), "{report}");
    }
}
