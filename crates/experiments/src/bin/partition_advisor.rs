//! Closed-loop validation of the partition advisor
//! (`montsalvat-core::analysis::advisor`, equations in
//! `docs/PARTITIONING.md`): trace a deliberately mis-partitioned run,
//! ask the advisor for a re-annotation plan, apply the suggested
//! moves, re-run the identical driver, and assert the observed
//! model-time delta lands within the documented tolerance band of the
//! prediction.
//!
//! Two workload shapes, both under [`ClockMode::Virtual`] so the
//! observed delta is a pure (deterministic) cost-model charge:
//!
//! - **kvstore**: a crossing-dominated trusted `Store` (per-record
//!   `put`), a stateless trusted `Fmt` checksum helper, and a
//!   rarely-called trusted `Config`. Expected plan: move `Store` →
//!   `@Untrusted`, promote `Fmt` → `@Neutral`, hold `Config`
//!   (insufficient samples).
//! - **graphchi**: a trusted `Engine` whose per-batch compute is
//!   modelled with [`Ctx::charge_compute_ns`] and which calls an
//!   untrusted `Audit` sink every batch (a nested crossing back out),
//!   plus a compute-heavy untrusted `Audit`. Expected plan: move
//!   `Engine` → `@Untrusted` (its compute sheds the MEE factor *and*
//!   the `Audit` calls become local — the advisor's nested-crossing
//!   term), hold `Audit` (predicted loss).
//!
//! `--quick` shrinks record/batch counts; `--json-out <path>` writes
//! the prediction-vs-observed verification document CI gates on;
//! `--trace-out <path>` writes each workload's baseline trace as
//! `<path>.<workload>.json` (ready for `montsalvat advise`).
//!
//! [`Ctx::charge_compute_ns`]: montsalvat_core::exec::ctx::Ctx::charge_compute_ns

use std::collections::BTreeMap;
use std::sync::Arc;

use experiments::report::{arg_value, print_params, print_table, Scale};
use montsalvat_core::analysis::advisor::{advise_with_classes, AdvicePlan, AdvisorConfig, Verdict};
use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use montsalvat_core::Trust;
use runtime_sim::value::Value;
use sgx_sim::cost::ClockMode;
use specjvm::montecarlo::Lcg;
use telemetry::json::Json;
use telemetry::trace::Tracer;
use telemetry::{Counter, Recorder};

/// Per-class annotation overrides: the "apply the plan" mechanism.
type TrustMap = BTreeMap<String, Trust>;

fn trust_of(overrides: &TrustMap, class: &str, baseline: Trust) -> Trust {
    overrides.get(class).copied().unwrap_or(baseline)
}

/// The kvstore shape: per-record `Store.put` and `Fmt.checksum`
/// crossings, plus a `Config` read twice.
fn kvstore_program(overrides: &TrustMap) -> Program {
    let store = ClassDef::new("Store")
        .trust(trust_of(overrides, "Store", Trust::Trusted))
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            2,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| {
                let len = |v: &Value| match v {
                    Value::Bytes(b) => b.len() as i64,
                    _ => 0,
                };
                Ok(Value::Int(len(&args[0]) + len(&args[1])))
            }),
        ));
    // Stateless by construction (no fields, no ctor): the advisor
    // should promote it to @Neutral, not merely swap its side.
    let fmt = ClassDef::new("Fmt").trust(trust_of(overrides, "Fmt", Trust::Trusted)).method(
        MethodDef::native(
            "checksum",
            MethodKind::Static,
            1,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| match &args[0] {
                Value::Bytes(b) => {
                    Ok(Value::Int(b.iter().fold(0i64, |acc, &x| (acc * 31 + x as i64) & 0xffff)))
                }
                _ => Ok(Value::Int(0)),
            }),
        ),
    );
    let config = ClassDef::new("Config")
        .trust(trust_of(overrides, "Config", Trust::Trusted))
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "get",
            MethodKind::Instance,
            0,
            vec![],
            Arc::new(|_ctx, _this, _args: &[Value]| Ok(Value::Int(128))),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![store, fmt, config, main], MethodRef::new("Main", "main"))
        .expect("kvstore shape is well-formed")
}

/// The graphchi shape: per-batch `Engine.addBatch` crossings whose
/// serve calls back out to `Audit.log` (nested crossing), with the
/// engine's compute modelled via `charge_compute_ns` so moving it out
/// of the enclave sheds exactly the MEE compute factor.
fn graphchi_program(overrides: &TrustMap) -> Program {
    /// Model-time cost of one engine batch (charged inside whichever
    /// world hosts the engine).
    const ENGINE_BATCH_NS: u64 = 50_000;
    /// Model-time cost of one audit append (compute-heavy on purpose:
    /// pulling it into the enclave must price as a loss).
    const AUDIT_LOG_NS: u64 = 100_000;

    let engine = ClassDef::new("Engine")
        .trust(trust_of(overrides, "Engine", Trust::Trusted))
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "addBatch",
            MethodKind::Instance,
            1,
            vec![MethodRef::new("Audit", "log")],
            Arc::new(|ctx, _this, args: &[Value]| {
                let sum = match &args[0] {
                    Value::List(items) => items.iter().filter_map(Value::as_int).sum::<i64>(),
                    _ => 0,
                };
                ctx.charge_compute_ns(ENGINE_BATCH_NS);
                ctx.call_static("Audit", "log", &[Value::Int(sum)])?;
                Ok(Value::Int(sum))
            }),
        ));
    let audit = ClassDef::new("Audit")
        .trust(trust_of(overrides, "Audit", Trust::Untrusted))
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "log",
            MethodKind::Static,
            1,
            vec![],
            Arc::new(|ctx, _this, args: &[Value]| {
                ctx.charge_compute_ns(AUDIT_LOG_NS);
                Ok(args[0].clone())
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![engine, audit, main], MethodRef::new("Main", "main"))
        .expect("graphchi shape is well-formed")
}

/// Launches a program with an isolated recorder and (optionally) an
/// isolated, enabled tracer, under the virtual clock.
fn launch(program: &Program, traced: bool) -> (PartitionedApp, Arc<Recorder>, Option<Arc<Tracer>>) {
    let tp = transform(program);
    let entry_points: Vec<MethodRef> = program
        .classes
        .iter()
        .flat_map(|c| c.methods.iter().map(|m| MethodRef::new(&c.name, &m.name)))
        .collect();
    let options = ImageOptions::with_entry_points(entry_points);
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let recorder = Recorder::new();
    let tracer = traced.then(|| {
        let tracer = Tracer::new();
        tracer.enable_with_capacity(1 << 16);
        tracer
    });
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        telemetry: Some(recorder.clone()),
        trace: tracer.clone(),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&t, &u, config).expect("launch");
    (app, recorder, tracer)
}

/// One workload run: `(checksum, charged model ns)`.
fn run_driver(
    app: &PartitionedApp,
    workload: &'static str,
    records: usize,
    batches: usize,
    batch_len: usize,
) -> (i64, u64) {
    let charged0 = app.shared.cost.charged();
    let checksum = app
        .enter_untrusted(|ctx| {
            let mut sum = 0i64;
            match workload {
                "kvstore" => {
                    let store = ctx.new_object("Store", &[])?;
                    let config = ctx.new_object("Config", &[])?;
                    sum += ctx.call(&config, "get", &[])?.as_int().expect("config value");
                    let mut rng = Lcg::new(42);
                    for _ in 0..records {
                        let key = format!("{}", (rng.next_f64() * 1.0e9) as u64).into_bytes();
                        let value: Vec<u8> = (0..128)
                            .map(|_| b'a' + ((rng.next_f64() * 26.0) as u8).min(25))
                            .collect();
                        sum += ctx
                            .call_static("Fmt", "checksum", &[Value::Bytes(key.clone())])?
                            .as_int()
                            .expect("checksum");
                        sum += ctx
                            .call(&store, "put", &[Value::Bytes(key), Value::Bytes(value)])?
                            .as_int()
                            .expect("put length");
                    }
                    sum += ctx.call(&config, "get", &[])?.as_int().expect("config value");
                }
                "graphchi" => {
                    let engine = ctx.new_object("Engine", &[])?;
                    let mut rng = Lcg::new(7);
                    for _ in 0..batches {
                        let edges: Vec<Value> = (0..batch_len)
                            .map(|_| Value::Int((rng.next_f64() * 1.0e6) as i64))
                            .collect();
                        sum += ctx
                            .call(&engine, "addBatch", &[Value::List(edges)])?
                            .as_int()
                            .expect("batch sum");
                    }
                }
                other => unreachable!("unknown workload {other}"),
            }
            Ok(sum)
        })
        .expect("workload runs");
    let charged_ns = (app.shared.cost.charged() - charged0).as_nanos() as u64;
    (checksum, charged_ns)
}

/// One workload's closed-loop outcome.
struct Verified {
    name: &'static str,
    plan: AdvicePlan,
    predicted_savings_ns: i64,
    observed_savings_ns: i64,
    rel_error: f64,
    tolerance: f64,
    within_tolerance: bool,
}

/// Trace the baseline partition, advise, apply the suggested moves,
/// re-run, and compare observed savings against the prediction.
fn verify_workload(
    name: &'static str,
    build: fn(&TrustMap) -> Program,
    records: usize,
    batches: usize,
    batch_len: usize,
    cfg: &AdvisorConfig,
) -> Verified {
    // Baseline run, traced.
    let baseline_program = build(&TrustMap::new());
    let (app, recorder, tracer) = launch(&baseline_program, true);
    let params = app.shared.cost.params().clone();
    let (checksum0, charged0) = run_driver(&app, name, records, batches, batch_len);
    let rmi_calls = recorder.snapshot().counter(Counter::RmiCalls);
    app.shutdown();
    let tracer = tracer.expect("baseline run is traced");
    let trace_json = tracer.to_chrome_json(&[("rmi_calls", rmi_calls)]);
    if let Some(path) = arg_value("--trace-out") {
        let run_path = path.with_extension(format!("{name}.json"));
        std::fs::write(&run_path, &trace_json).expect("write baseline trace");
        println!("trace ({name} baseline): {}", run_path.display());
    }

    // Advise on the capture.
    let trace = telemetry::trace::parse_chrome_trace(&trace_json).expect("trace parses");
    let plan = advise_with_classes(&trace, &params, cfg, &baseline_program.classes);
    print!("{}", plan.render_table());

    // Apply the moves and re-run the identical driver.
    let overrides: TrustMap = plan.moves().map(|r| (r.class.clone(), r.suggested)).collect();
    let (app, _, _) = launch(&build(&overrides), false);
    let (checksum1, charged1) = run_driver(&app, name, records, batches, batch_len);
    app.shutdown();

    assert_eq!(checksum0, checksum1, "{name}: the re-partitioned run must compute the same result");
    let predicted = plan.total_predicted_savings_ns;
    let observed = charged0 as i64 - charged1 as i64;
    let rel_error =
        if predicted != 0 { (observed - predicted).abs() as f64 / predicted as f64 } else { 0.0 };
    Verified {
        name,
        plan,
        predicted_savings_ns: predicted,
        observed_savings_ns: observed,
        rel_error,
        tolerance: cfg.tolerance,
        within_tolerance: rel_error <= cfg.tolerance,
    }
}

/// The verification document CI gates on with jq.
fn verification_json(results: &[Verified]) -> String {
    let workloads = results.iter().map(|v| {
        let names = |verdict: Verdict| {
            let classes = v.plan.recommendations.iter().filter(|r| r.verdict == verdict);
            classes.map(|r| Json::from(r.class.as_str())).collect::<Vec<_>>()
        };
        Json::obj()
            .with("name", v.name)
            .with("predicted_savings_ns", v.predicted_savings_ns)
            .with("observed_savings_ns", v.observed_savings_ns)
            .with("rel_error", Json::fixed(v.rel_error, 4))
            .with("tolerance", v.tolerance)
            .with("within_tolerance", v.within_tolerance)
            .with("moves", names(Verdict::Move))
            .with("holds", names(Verdict::Hold))
    });
    Json::obj()
        .with("schema", "montsalvat.advice-verify/v1")
        .with("workloads", workloads.collect::<Vec<_>>())
        .to_pretty()
}

fn suggestion<'p>(
    plan: &'p AdvicePlan,
    class: &str,
) -> &'p montsalvat_core::analysis::advisor::Recommendation {
    plan.recommendations
        .iter()
        .find(|r| r.class == class)
        .unwrap_or_else(|| panic!("plan must mention {class}"))
}

fn main() {
    let scale = Scale::from_args();
    let (records, batches, batch_len) = match scale {
        Scale::Quick => (64, 16, 64),
        Scale::Full => (512, 96, 256),
    };
    let cfg = AdvisorConfig::default();
    println!(
        "partition advisor loop: {records} kvstore records, {batches} graphchi batches x \
         {batch_len} edges (model time, ClockMode::Virtual)"
    );
    // Every run below launches with this set, so it is also the set
    // the advisor prices each trace with (`cost.params()`).
    print_params(&AppConfig::default().cost_params);

    let results = [
        verify_workload("kvstore", kvstore_program, records, batches, batch_len, &cfg),
        verify_workload("graphchi", graphchi_program, records, batches, batch_len, &cfg),
    ];

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|v| {
            vec![
                v.name.to_owned(),
                v.plan.moves().map(|r| r.class.clone()).collect::<Vec<_>>().join("+"),
                format!("{:.3}", v.predicted_savings_ns as f64 / 1e6),
                format!("{:.3}", v.observed_savings_ns as f64 / 1e6),
                format!("{:.1}%", v.rel_error * 100.0),
                format!("±{:.0}%", v.tolerance * 100.0),
            ]
        })
        .collect();
    print_table(
        "Prediction vs observed model-time savings",
        &["workload", "moves", "predicted ms", "observed ms", "rel err", "band"],
        &rows,
    );

    if let Some(path) = arg_value("--json-out") {
        std::fs::write(&path, verification_json(&results)).expect("write verification json");
        println!("verification: {}", path.display());
    }

    // The claims this loop exists to demonstrate.
    let kv = &results[0];
    let store = suggestion(&kv.plan, "Store");
    assert_eq!(store.verdict, Verdict::Move, "Store is crossing-dominated: {}", store.rationale);
    assert_eq!(store.suggested, Trust::Untrusted, "Store is stateful, so it swaps sides");
    assert!(store.predicted_savings_ns > 0, "a move must predict positive savings");
    let fmt = suggestion(&kv.plan, "Fmt");
    assert_eq!(fmt.verdict, Verdict::Move, "Fmt is crossing-dominated: {}", fmt.rationale);
    assert_eq!(fmt.suggested, Trust::Neutral, "Fmt is stateless, so it can be copied into both");
    let config = suggestion(&kv.plan, "Config");
    assert_eq!(config.verdict, Verdict::Hold, "Config was only called a handful of times");
    assert_eq!(config.rationale, "insufficient samples");

    let gc = &results[1];
    let engine = suggestion(&gc.plan, "Engine");
    assert_eq!(engine.verdict, Verdict::Move, "Engine: {}", engine.rationale);
    assert_eq!(engine.suggested, Trust::Untrusted);
    let audit = suggestion(&gc.plan, "Audit");
    assert_eq!(audit.verdict, Verdict::Hold, "Audit compute would inflate by the MEE factor");
    assert!(audit.rationale.starts_with("predicted loss"), "{}", audit.rationale);

    for v in &results {
        assert!(
            v.observed_savings_ns > 0,
            "{}: applying the plan must actually save model time (observed {} ns)",
            v.name,
            v.observed_savings_ns
        );
        assert!(
            v.within_tolerance,
            "{}: observed {} ns vs predicted {} ns — rel error {:.1}% exceeds the ±{:.0}% band",
            v.name,
            v.observed_savings_ns,
            v.predicted_savings_ns,
            v.rel_error * 100.0,
            v.tolerance * 100.0
        );
        println!(
            "ok: {} predicted {:.3} ms, observed {:.3} ms (rel error {:.1}% within ±{:.0}%)",
            v.name,
            v.predicted_savings_ns as f64 / 1e6,
            v.observed_savings_ns as f64 / 1e6,
            v.rel_error * 100.0,
            v.tolerance * 100.0
        );
    }
}
