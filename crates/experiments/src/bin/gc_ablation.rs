//! Ablation: the semispace stop-and-copy reference collector vs the
//! segmented generational block heap (`HeapConfig::collector`, see
//! `docs/GC.md`) on the two GC shapes of the evaluation:
//!
//! - **heap-churn**: a standing live set larger than usable EPC plus a
//!   stream of short-lived garbage (the allocation shape behind the
//!   paper's Fig. 9 in-enclave slowdowns). The semispace recopies the
//!   whole live set on every threshold collection; the block heap
//!   reclaims the young garbage with nursery evacuations and touches
//!   EPC per block.
//! - **consistency**: the proxy create/destroy timeline of Fig. 5(b) /
//!   Table 1 — after every step the untrusted heap is collected and the
//!   GC-helper scan relayed; the mirror population must track the proxy
//!   population identically under either collector.
//!
//! Runs under `ClockMode::Virtual`, so pause times are read from the
//! deterministic `gc.pause_model_ns` histogram (charged model time),
//! not wall clocks.
//!
//! Self-checking: asserts both collectors compute identical checksums
//! on both shapes, that the block collector ran real minor *and* major
//! cycles on the churn shape, and that on heap-churn the block
//! collector's p95 model pause and its EPC paging charges are strictly
//! below the semispace's. `--json-out <path>` writes the
//! `montsalvat.gc-ablation/v1` report CI gates on; `--quick` shrinks
//! the churn volume.

use experiments::progs::{proxy_bench_entries, proxy_bench_program};
use experiments::report::{arg_value, print_params, print_table, Scale};
use montsalvat_core::annotation::Side;
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use runtime_sim::heap::{CollectorKind, HeapConfig};
use runtime_sim::value::Value;
use sgx_sim::cost::{ClockMode, CostParams};
use telemetry::json::Json;
use telemetry::{Counter, Gauge, Hist};

/// Schema identifier of the emitted report.
const GC_ABLATION_SCHEMA: &str = "montsalvat.gc-ablation/v1";

/// One (shape, collector) run's outcome.
struct RunResult {
    shape: &'static str,
    collector: CollectorKind,
    /// Workload checksum (must match across collectors per shape).
    checksum: u64,
    /// Model time charged across the run, nanoseconds.
    charged_ns: u64,
    /// p95 of `gc.pause_model_ns` (deterministic model-time pauses).
    p95_pause_ns: u64,
    minor_collections: u64,
    major_collections: u64,
    epc_faults: u64,
    blocks_live: u64,
    blocks_free: u64,
    snap: telemetry::Snapshot,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn launch(heap: HeapConfig, params: CostParams) -> PartitionedApp {
    let tp = transform(&proxy_bench_program());
    let options = ImageOptions::with_entry_points(proxy_bench_entries());
    let (trusted, untrusted) =
        build_partitioned_images(&tp, &options, &options).expect("gc ablation images build");
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        heap_config: heap,
        cost_params: params,
        ..AppConfig::default()
    };
    PartitionedApp::launch(&trusted, &untrusted, config).expect("launch gc ablation")
}

/// The heap-churn shape's costs: usable EPC below the live set, so
/// residency is over-committed and paging charges separate the two
/// collectors' touch patterns.
fn churn_params() -> CostParams {
    CostParams { epc_usable_bytes: 1024 * 1024, ..CostParams::default() }
}

/// The heap-churn shape: `standing_bytes` of rooted blobs (the live
/// set) plus `garbage_bytes` of immediately-dead chunks, allocated
/// in-enclave so every collection pays MEE/EPC model charges. All GC is
/// automatic — the threshold and nursery knobs drive each collector's
/// own policy.
fn run_churn(collector: CollectorKind, scale: Scale) -> RunResult {
    let (standing_bytes, garbage_bytes) = match scale {
        Scale::Quick => (2 * 1024 * 1024u64, 8 * 1024 * 1024u64),
        Scale::Full => (4 * 1024 * 1024, 64 * 1024 * 1024),
    };
    let heap = HeapConfig {
        gc_threshold_bytes: 512 * 1024,
        nursery_bytes: 64 * 1024,
        collector,
        ..HeapConfig::default()
    };
    let app = launch(heap, churn_params());
    let charged0 = app.shared.cost.charged();
    let checksum = app
        .enter_trusted(|ctx| {
            let mut checksum = 0xCBF2_9CE4_8422_2325u64;
            let blob = 16 * 1024usize;
            for i in 0..(standing_bytes / blob as u64) {
                let v = ctx.alloc_blob(blob)?;
                fnv1a(&mut checksum, &i.to_le_bytes());
                // Keep it: alloc_blob roots the blob in this frame.
                let _ = v;
            }
            let chunk = 1024usize;
            let rounds = garbage_bytes / (64 * chunk as u64);
            for round in 0..rounds {
                ctx.alloc_garbage(64 * chunk as u64, chunk);
                fnv1a(&mut checksum, &round.to_le_bytes());
            }
            // Settle on the reachable set so the final accounting is
            // collector-independent.
            ctx.collect_garbage();
            let (objects, bytes) = ctx.with_heap(|h| (h.live_objects() as u64, h.live_bytes()));
            fnv1a(&mut checksum, &objects.to_le_bytes());
            fnv1a(&mut checksum, &bytes.to_le_bytes());
            Ok(checksum)
        })
        .expect("churn shape runs");
    finish("heap-churn", collector, checksum, charged0, app)
}

/// The consistency shape: proxies created and destroyed over a
/// timeline; after every step the untrusted heap is collected and the
/// GC-helper scan relayed, and both populations fold into the
/// checksum. The collector must be invisible to the proxy/mirror
/// timeline.
fn run_consistency(collector: CollectorKind, scale: Scale) -> RunResult {
    let (steps, batch) = match scale {
        Scale::Quick => (10u32, 300usize),
        Scale::Full => (40, 2_000),
    };
    let heap = HeapConfig {
        gc_threshold_bytes: u64::MAX,
        nursery_bytes: 256 * 1024,
        collector,
        ..HeapConfig::default()
    };
    let app = launch(heap, CostParams::default());
    let charged0 = app.shared.cost.charged();
    let mut held: Vec<Value> = Vec::new();
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    for step in 0..steps {
        app.enter_untrusted(|ctx| {
            let unroot = |ctx: &mut montsalvat_core::Ctx<'_>, v: &Value| {
                ctx.with_heap(|h| {
                    if let Some(id) = v.as_ref_id() {
                        h.remove_root(id);
                    }
                });
            };
            if step < steps / 2 {
                for i in 0..batch {
                    let p = ctx.new_object("TObj", &[Value::Int(i as i64)])?;
                    ctx.with_heap(|h| {
                        if let Some(id) = p.as_ref_id() {
                            h.add_root(id);
                        }
                    });
                    held.push(p);
                }
                for _ in 0..batch / 4 {
                    let v = held.remove(0);
                    unroot(ctx, &v);
                }
            } else {
                let drop_count = (batch * 3 / 2).min(held.len());
                for _ in 0..drop_count {
                    let v = held.remove(0);
                    unroot(ctx, &v);
                }
            }
            ctx.collect_garbage();
            Ok(())
        })
        .expect("consistency step runs");
        app.gc_sync_once().expect("helper sync runs");
        let proxies = app.live_proxy_count(Side::Untrusted) as u64;
        let mirrors = app.registry_len(Side::Trusted) as u64;
        assert_eq!(
            mirrors, proxies,
            "step {step}: mirror population must track the proxy population"
        );
        fnv1a(&mut checksum, &proxies.to_le_bytes());
        fnv1a(&mut checksum, &mirrors.to_le_bytes());
    }
    finish("consistency", collector, checksum, charged0, app)
}

fn finish(
    shape: &'static str,
    collector: CollectorKind,
    checksum: u64,
    charged0: std::time::Duration,
    app: PartitionedApp,
) -> RunResult {
    let charged_ns = (app.shared.cost.charged() - charged0).as_nanos() as u64;
    let snap = app.telemetry_snapshot();
    app.shutdown();
    RunResult {
        shape,
        collector,
        checksum,
        charged_ns,
        p95_pause_ns: snap.hist(Hist::GcPauseModelNs).quantile(0.95),
        minor_collections: snap.counter(Counter::GcMinorCollections),
        major_collections: snap.counter(Counter::GcMajorCollections),
        epc_faults: snap.counter(Counter::EpcFaults),
        blocks_live: snap.gauge(Gauge::GcBlocksLive),
        blocks_free: snap.gauge(Gauge::GcBlocksFree),
        snap,
    }
}

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    println!("gc ablation: semispace vs block collector, scale {scale_name} (model time)");
    print_params(&CostParams::default());
    print!("heap-churn ");
    print_params(&churn_params());

    let runs: Vec<RunResult> = vec![
        run_churn(CollectorKind::Semispace, scale),
        run_churn(CollectorKind::Block, scale),
        run_consistency(CollectorKind::Semispace, scale),
        run_consistency(CollectorKind::Block, scale),
    ];

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.shape.to_owned(),
                r.collector.name().to_owned(),
                format!("{:.3}", r.charged_ns as f64 / 1e6),
                format!("{:.1}", r.p95_pause_ns as f64 / 1e3),
                r.minor_collections.to_string(),
                r.major_collections.to_string(),
                r.epc_faults.to_string(),
                r.blocks_live.to_string(),
                r.blocks_free.to_string(),
            ]
        })
        .collect();
    print_table(
        "GC ablation (semispace vs block)",
        &[
            "shape",
            "collector",
            "model ms",
            "p95 pause us",
            "minors",
            "majors",
            "epc faults",
            "blk live",
            "blk free",
        ],
        &rows,
    );

    let by = |shape: &str, kind: CollectorKind| {
        runs.iter()
            .find(|r| r.shape == shape && r.collector == kind)
            .expect("every (shape, collector) pair ran")
    };
    let churn_semi = by("heap-churn", CollectorKind::Semispace);
    let churn_block = by("heap-churn", CollectorKind::Block);
    let cons_semi = by("consistency", CollectorKind::Semispace);
    let cons_block = by("consistency", CollectorKind::Block);

    // The claims this ablation exists to demonstrate.
    assert_eq!(
        churn_semi.checksum, churn_block.checksum,
        "heap-churn: both collectors must compute the same result"
    );
    assert_eq!(
        cons_semi.checksum, cons_block.checksum,
        "consistency: the proxy/mirror timeline must be collector-independent"
    );
    assert!(
        churn_block.minor_collections > 0 && churn_block.major_collections > 0,
        "heap-churn: the block collector must run real minor ({}) and major ({}) cycles",
        churn_block.minor_collections,
        churn_block.major_collections
    );
    assert!(
        churn_semi.major_collections > 0,
        "heap-churn: the semispace must collect under the threshold"
    );
    assert!(
        churn_block.p95_pause_ns < churn_semi.p95_pause_ns,
        "heap-churn: block p95 model pause {} ns must be strictly below semispace {} ns",
        churn_block.p95_pause_ns,
        churn_semi.p95_pause_ns
    );
    assert!(
        churn_block.epc_faults < churn_semi.epc_faults,
        "heap-churn: block EPC paging charges {} must be strictly below semispace {}",
        churn_block.epc_faults,
        churn_semi.epc_faults
    );
    println!(
        "ok: checksums match on both shapes; block p95 pause {:.1} us < semispace {:.1} us, \
         epc faults {} < {} ({} minors kept {} majors rare)",
        churn_block.p95_pause_ns as f64 / 1e3,
        churn_semi.p95_pause_ns as f64 / 1e3,
        churn_block.epc_faults,
        churn_semi.epc_faults,
        churn_block.minor_collections,
        churn_block.major_collections,
    );

    let runs_json: Vec<Json> = runs
        .iter()
        .map(|r| {
            Json::obj()
                .with("shape", r.shape)
                .with("collector", r.collector.name())
                .with("checksum", format!("{:#018x}", r.checksum))
                .with("model_time_ns", r.charged_ns)
                .with("p95_pause_model_ns", r.p95_pause_ns)
                .with(
                    "gc",
                    Json::obj()
                        .with("minor_collections", r.minor_collections)
                        .with("major_collections", r.major_collections),
                )
                .with("epc_faults", r.epc_faults)
                .with("blocks_live", r.blocks_live)
                .with("blocks_free", r.blocks_free)
        })
        .collect();
    let heap_churn = Json::obj()
        .with("semispace_p95_pause_ns", churn_semi.p95_pause_ns)
        .with("block_p95_pause_ns", churn_block.p95_pause_ns)
        .with("semispace_epc_faults", churn_semi.epc_faults)
        .with("block_epc_faults", churn_block.epc_faults);
    let checks = Json::obj()
        .with("checksums_match", true)
        .with("block_p95_lower", churn_block.p95_pause_ns < churn_semi.p95_pause_ns)
        .with("block_fewer_epc_faults", churn_block.epc_faults < churn_semi.epc_faults)
        .with(
            "block_ran_minors_and_majors",
            churn_block.minor_collections > 0 && churn_block.major_collections > 0,
        );
    let report = Json::obj()
        .with("schema", GC_ABLATION_SCHEMA)
        .with("scale", scale_name)
        .with("runs", runs_json)
        .with("crossover", Json::obj().with("heap_churn", heap_churn))
        .with("checks", checks)
        .to_pretty();
    if let Some(path) = arg_value("--json-out") {
        std::fs::write(&path, &report).expect("write gc ablation report");
        println!("report ({GC_ABLATION_SCHEMA}): {}", path.display());
    }
    if let Some(path) = arg_value("--telemetry-out") {
        for r in &runs {
            let run_path = path.with_extension(format!("{}.{}.json", r.shape, r.collector.name()));
            std::fs::write(&run_path, r.snap.to_json()).expect("write run telemetry");
            println!("telemetry ({} {}): {}", r.shape, r.collector.name(), run_path.display());
        }
    }
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();
}
