//! `montsalvat-bench`: the repository benchmark.
//!
//! ```text
//! montsalvat-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--json-out PATH] [--side parent|change] [--trace-out PATH]
//!                  [--size full|tiny]
//! montsalvat-bench compare <run-record> …
//! ```
//!
//! With `--workload` the process runs that one workload. Without it,
//! every workload runs in a child process of its own, so peak RSS and
//! allocator state are per workload. Every input derives from `--seed`.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the `metrics` (end-to-end ones with
//! `--trace 0`, per-layer ones with `--trace 1`), each with its unit.
//! Exit codes: 0 all outputs checked out, 1 an output or a check
//! differed, 2 bad usage or a `MONTSALVAT_*` variable in the environment.
//! See `README.md` for the workloads, metrics and bounds.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use montsalvat_bench::json::Json;
use montsalvat_bench::run::{self, Outcome, RunOptions, Size, WORKLOADS};
use montsalvat_bench::{compare, sys};

const USAGE: &str = "usage: montsalvat-bench [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--json-out PATH] [--side parent|change] [--trace-out PATH] [--size full|tiny]
       montsalvat-bench compare <run-record> ...";

/// `--seconds` when none is given; `BENCHMARK.json` runs with the same.
const DEFAULT_SECONDS: u64 = 20;

struct Cli {
    workload: Option<String>,
    opts: RunOptions,
    json_out: Option<PathBuf>,
    /// Which side of a comparison the run measures, for `compare`.
    side: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: RunOptions {
            seed: experiments::traffic::TRAFFIC_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            size: Size::Full,
            trace_out: None,
            corrupt: false,
        },
        json_out: None,
        side: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}` (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 600")?;
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => {
                cli.opts.trace = true;
                cli.opts.trace_out = Some(PathBuf::from(value()?));
            }
            "--json-out" => cli.json_out = Some(PathBuf::from(value()?)),
            "--side" => {
                let side = value()?;
                if !compare::SIDES.contains(&side.as_str()) {
                    return Err(format!("--side takes parent or change, not `{side}`"));
                }
                cli.side = Some(side.clone());
            }
            "--size" => {
                cli.opts.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not `{other}`")),
                }
            }
            // Corrupts one reply of the first timed trial; the smoke test
            // uses it to prove a wrong output fails the run.
            "--corrupt" => cli.opts.corrupt = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    // Every knob of the program under test must be at its default, or
    // two runs could measure different programs.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MONTSALVAT_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "montsalvat-bench: refusing to run with {} set; unset it first",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("montsalvat-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &cli.workload {
        Some(name) => run_one(name, &cli),
        None => run_all(&cli),
    };
    std::process::exit(code);
}

fn record(cli: &Cli, workloads: Json) -> Json {
    let mut doc =
        Json::obj().with("schema", "montsalvat-bench/v1").with("seed", cli.opts.seed.to_string());
    if let Some(side) = &cli.side {
        doc.push("side", side.as_str());
    }
    doc.with("seconds", cli.opts.seconds)
        .with("size", if cli.opts.size == Size::Tiny { "tiny" } else { "full" })
        .with("trace", cli.opts.trace)
        .with("host_threads", sys::host_threads())
        .with("workloads", workloads)
}

fn write_record(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.to_line() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
        .to_line()
}

fn run_one(name: &str, cli: &Cli) -> i32 {
    let outcome: Outcome = match run::run_named(name, &cli.opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("montsalvat-bench: {name}: {e}");
            return 1;
        }
    };
    println!("{:<30} {:>16} {:<9} {:<6} {:<7} bound", "metric", "value", "unit", "clock", "better");
    for (m, v) in outcome.values.0.iter().chain(&outcome.model.0) {
        let bound = m.bound.map_or(String::new(), |b| format!("{}%", b * 100.0));
        println!(
            "{:<30} {:>16.6} {:<9} {:<6} {:<7} {bound}",
            m.name,
            v,
            m.unit,
            m.clock.label(),
            m.better.label()
        );
    }
    if let Some(path) = &cli.json_out {
        if let Err(e) = write_record(path, &record(cli, Json::obj().with(name, outcome.record))) {
            eprintln!("montsalvat-bench: {e}");
            return 1;
        }
    }
    let metrics = run::metrics_json(&outcome.values.0);
    println!("{}", result_line(outcome.correct, outcome.attempted, outcome.failed, metrics));
    i32::from(!outcome.correct)
}

/// `dir/stem.json` → `dir/stem.<workload>.json`.
fn per_workload(path: &Path, workload: &str) -> PathBuf {
    let stem = path.file_stem().map_or_else(String::new, |s| s.to_string_lossy().into_owned());
    let ext = path.extension().map_or_else(|| "json".into(), |e| e.to_string_lossy().into_owned());
    path.with_file_name(format!("{stem}.{workload}.{ext}"))
}

fn run_all(cli: &Cli) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("montsalvat-bench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Json::obj();
    let mut workloads = Json::obj();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &cli.opts.seed.to_string()])
            .args(["--seconds", &cli.opts.seconds.to_string()])
            .args(["--trace", if cli.opts.trace { "1" } else { "0" }])
            .args(["--size", if cli.opts.size == Size::Tiny { "tiny" } else { "full" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if cli.opts.corrupt {
            cmd.arg("--corrupt");
        }
        if let Some(path) = &cli.opts.trace_out {
            cmd.arg("--trace-out").arg(per_workload(path, name));
        }
        let part = cli.json_out.as_ref().map(|p| per_workload(p, &format!("{name}.part")));
        if let Some(part) = &part {
            cmd.arg("--json-out").arg(part);
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("montsalvat-bench: running {name}: {e}");
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().and_then(|line| Json::parse(line).ok());
        let Some(result) = result.filter(|_| output.status.code() != Some(2)) else {
            eprintln!("montsalvat-bench: {name} produced no result ({})", output.status);
            correct = false;
            continue;
        };
        correct &=
            output.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        for (metric, value) in result.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            metrics.push(&format!("{name}.{metric}"), value.clone());
        }
        if let Some(part) = part {
            let entry = std::fs::read_to_string(&part)
                .ok()
                .and_then(|t| Json::parse(&t).ok())
                .and_then(|doc| doc.get("workloads")?.get(name).cloned());
            let _ = std::fs::remove_file(&part);
            match entry {
                Some(entry) => workloads.push(name, entry),
                None => correct = false,
            }
        }
    }
    if let Some(path) = &cli.json_out {
        if let Err(e) = write_record(path, &record(cli, workloads)) {
            eprintln!("montsalvat-bench: {e}");
            return 1;
        }
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    i32::from(!correct)
}
