//! The whole telemetry export of one partitioned run, pinned per
//! collector against a committed golden document.
//!
//! The bank sample runs under `SimSgx` with small heap thresholds and a
//! small usable EPC, so both worlds make minor and major collections,
//! the block heap commits and releases blocks, and the enclave pages.
//! Then the untrusted side drops a proxy and one GC-helper sync releases
//! its mirror. Every heap, EPC, transition, RMI and GC-helper count the
//! run reports is compared, except the `wall_ns` histograms (host time).
//! The run does no scratch I/O: the scratch path's length would cross
//! the boundary and move `sgx.bytes_out`.
//!
//! On a mismatch the test prints the document the run exported.

use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::core::{Ctx, ProviderKind, VmError};
use montsalvat::runtime::heap::{CollectorKind, HeapConfig};
use montsalvat::runtime::value::Value;
use montsalvat::sgx::cost::CostParams;
use montsalvat::telemetry::json::Json;

/// Rooted blobs that a minor collection promotes and a major frees,
/// around a run of garbage that fills the nursery several times.
fn churn(ctx: &mut Ctx<'_>) -> Result<(), VmError> {
    let blobs = (0..12).map(|_| ctx.alloc_blob(3000)).collect::<Result<Vec<_>, _>>()?;
    ctx.alloc_garbage(256 * 1024, 512);
    ctx.collect_garbage_minor();
    for blob in &blobs {
        ctx.forget(blob);
    }
    ctx.collect_garbage();
    Ok(())
}

/// The app's export, parsed, without its `wall_ns` histograms.
fn bank_run(collector: CollectorKind) -> Json {
    let transformed = transform(&bank_program());
    let options = ImageOptions::default();
    let (trusted, untrusted) = build_partitioned_images(&transformed, &options, &options).unwrap();
    let config = AppConfig {
        cost_params: CostParams { epc_usable_bytes: 32 * 1024, ..CostParams::paper_defaults() },
        heap_config: HeapConfig {
            gc_threshold_bytes: 64 * 1024,
            collector,
            block_bytes: 4096,
            nursery_bytes: 16 * 1024,
            ..HeapConfig::default()
        },
        gc_helper_interval: None,
        provider: Some(ProviderKind::SimSgx),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    app.run_main().unwrap();
    app.enter_untrusted(churn).unwrap();
    app.enter_trusted(churn).unwrap();
    app.enter_untrusted(|ctx| {
        let account = ctx.new_object("Account", &[Value::from("Carol"), Value::Int(5)])?;
        ctx.forget(&account);
        ctx.collect_garbage();
        Ok(())
    })
    .unwrap();
    app.gc_sync_once().unwrap();
    let export = app.telemetry_snapshot().to_json();
    app.shutdown();
    let Json::Obj(members) = Json::parse(&export).unwrap() else { panic!("not an object") };
    let members = members.into_iter().map(|(name, value)| match (name.as_str(), value) {
        ("histograms", Json::Obj(hists)) => {
            let model = |h: &Json| h.get("unit").and_then(Json::as_str) != Some("wall_ns");
            (name, Json::Obj(hists.into_iter().filter(|(_, h)| model(h)).collect()))
        }
        (_, value) => (name, value),
    });
    Json::Obj(members.collect())
}

fn count(doc: &Json, group: &str, metric: &str) -> u64 {
    doc.at(&[group, metric, "value"]).and_then(Json::as_u64).unwrap()
}

/// Checks that the run made the events the golden pins, then compares.
fn assert_golden(collector: CollectorKind, actual: &Json) {
    for metric in ["gc.major_collections", "sgx.epc_faults", "rmi.mirrors_released"] {
        assert!(count(actual, "counters", metric) > 0, "{metric} reads 0");
    }
    let path =
        format!("{}/tests/golden/telemetry_{}.json", env!("CARGO_MANIFEST_DIR"), collector.name());
    let golden = std::fs::read_to_string(&path).ok().and_then(|text| Json::parse(&text).ok());
    assert!(
        golden.as_ref() == Some(actual),
        "the export differs from {path}; it was:\n{}",
        actual.to_pretty()
    );
}

#[test]
fn a_semispace_bank_run_exports_the_golden_counts() {
    assert_golden(CollectorKind::Semispace, &bank_run(CollectorKind::Semispace));
}

#[test]
fn a_block_bank_run_exports_the_golden_counts() {
    let doc = bank_run(CollectorKind::Block);
    assert!(count(&doc, "counters", "gc.minor_collections") > 0);
    assert!(
        count(&doc, "gauges", "sgx.epc_resident") < count(&doc, "gauges", "sgx.epc_resident_peak"),
        "the enclave released blocks"
    );
    assert_golden(CollectorKind::Block, &doc);
}
