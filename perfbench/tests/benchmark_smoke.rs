//! Runs every workload at tiny size through the real binary and checks
//! what the benchmark promises: seeded repeatability, correctness checks
//! that fail loudly, pinned inputs, and metric names that match
//! `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

use montsalvat_bench::json::Json;
use montsalvat_bench::metrics::{Metric, END_TO_END, MODEL, PER_LAYER};
use montsalvat_bench::run::WORKLOADS;

const BIN: &str = env!("CARGO_BIN_EXE_montsalvat-bench");
/// The default seed (`experiments::traffic::TRAFFIC_SEED`).
const SEED: &str = "12648430";
const HELD_OUT_SEED: &str = "7";

/// Digests of each workload's generated inputs at tiny size and the
/// default seed. A change to `experiments::traffic::op_schedule`,
/// `arrival_schedule` or `graphchi::rmat::generate` changes what the
/// benchmark measures; it must show up here, not silently in the numbers.
const PINNED_DIGESTS: [(&str, &str); 4] = [
    ("kv-classic", "0x1c22b17b4c23432d"),
    ("kv-switchless", "0x361cad47d32870c2"),
    ("bulk-shard", "0x625d612d3265d78c"),
    ("enclave-churn", "0xcf2c871adb995e2f"),
];

fn bench(args: &[&str]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(["--size", "tiny"]).args(args);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MONTSALVAT_") {
            cmd.env_remove(key);
        }
    }
    cmd.output().expect("the benchmark binary runs")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("the benchmark prints a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"))
}

fn tmp_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs `workload` with `--json-out` and returns its record entry.
fn recorded(workload: &str, seed: &str, tag: &str) -> Json {
    let path = tmp_path(&format!("{workload}-{seed}-{tag}.json"));
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--json-out",
        path.to_str().expect("utf-8 path"),
        "--side",
        "parent",
    ]);
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("record written"))
        .expect("record is JSON");
    assert_eq!(str_at(&doc, "side"), "parent", "the record names its side for compare");
    assert_eq!(str_at(&doc, "seed"), seed, "the record names its seed for compare");
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .cloned()
        .expect("the record holds the workload")
}

fn str_at<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("record has {key}"))
}

fn model_values(entry: &Json) -> Vec<(String, f64)> {
    let metrics = entry.get("metrics").expect("metrics");
    MODEL
        .iter()
        .map(|m| {
            let v = metrics.get(m.name).and_then(|v| v.get("value")).and_then(Json::as_f64);
            (m.name.to_owned(), v.expect("model metric present"))
        })
        .collect()
}

#[test]
fn same_seed_repeats_and_a_held_out_seed_passes() {
    for workload in WORKLOADS {
        let first = recorded(workload, SEED, "a");
        let second = recorded(workload, SEED, "b");
        for key in ["input_digest", "reply_checksum"] {
            assert_eq!(str_at(&first, key), str_at(&second, key), "{workload}: {key} repeats");
        }
        if workload != "kv-switchless" {
            // The switchless engine's hand-offs race real threads; every
            // other workload's model clock is exact.
            assert_eq!(
                model_values(&first),
                model_values(&second),
                "{workload}: model metrics repeat"
            );
        }
        let pinned = PINNED_DIGESTS.iter().find(|(w, _)| *w == workload).expect("pinned").1;
        assert_eq!(str_at(&first, "input_digest"), pinned, "{workload}: generated inputs changed");

        let held_out = recorded(workload, HELD_OUT_SEED, "held-out");
        assert_eq!(held_out.get("correct").and_then(Json::as_bool), Some(true));
        assert_ne!(
            str_at(&held_out, "input_digest"),
            pinned,
            "{workload}: the seed drives the inputs"
        );
    }
}

/// The metric list of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<Json> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("valid JSON");
    doc.get(section).and_then(Json::as_arr).expect("section is a list").to_vec()
}

fn assert_catalogue_matches(section: &str, catalogue: &[Metric]) {
    let declared = declared(section);
    assert_eq!(declared.len(), catalogue.len(), "{section}: metric count");
    for (entry, metric) in declared.iter().zip(catalogue) {
        let field = |k: &str| entry.get(k).and_then(Json::as_str);
        assert_eq!(field("name"), Some(metric.name), "{section}: order and names");
        assert_eq!(field("unit"), Some(metric.unit), "{}: unit", metric.name);
        assert_eq!(field("better"), Some(metric.better.label()), "{}: direction", metric.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            metric.bound,
            "{}: bound",
            metric.name
        );
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    assert_catalogue_matches("end_to_end", &END_TO_END);
    assert_catalogue_matches("per_layer", &PER_LAYER);
    let names = |line: &Json| -> Vec<String> {
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics object");
        metrics
            .iter()
            .map(|(name, v)| {
                assert!(v.get("unit").and_then(Json::as_str).is_some(), "{name} carries its unit");
                name.clone()
            })
            .collect()
    };
    let expected =
        |catalogue: &[Metric]| catalogue.iter().map(|m| m.name.to_owned()).collect::<Vec<_>>();
    for workload in WORKLOADS {
        for (trace, catalogue) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let out = bench(&["--workload", workload, "--trace", trace]);
            assert!(out.status.success(), "{workload} --trace {trace} failed");
            let line = result_line(&out);
            assert_eq!(names(&line), expected(catalogue), "{workload} --trace {trace}");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        }
    }
}

#[test]
fn a_corrupted_reply_fails_the_run() {
    for workload in WORKLOADS {
        let out = bench(&["--workload", workload, "--corrupt"]);
        assert_eq!(out.status.code(), Some(1), "{workload}: a wrong reply must fail the run");
        assert_eq!(result_line(&out).get("correct").and_then(Json::as_bool), Some(false));
    }
}

#[test]
fn a_montsalvat_knob_in_the_environment_is_refused() {
    let out = Command::new(BIN)
        .args(["--workload", "kv-classic", "--size", "tiny"])
        .env("MONTSALVAT_GC", "block")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
