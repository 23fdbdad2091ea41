//! The heap's level gauges report the whole app. Both worlds' heaps
//! report into the app's one recorder, so `gc.heap_live_bytes`,
//! `gc.blocks_live` and `gc.blocks_free` must read the sum over the
//! worlds of each heap's latest level, not the level of whichever heap
//! reported last, and `gc.heap_live_bytes_peak` the highest such sum.
//!
//! The bank sample runs `main` under `SimSgx`, then the trusted heap
//! collects and then the untrusted one, so the last report comes from
//! the untrusted heap while the trusted heap still holds live objects.

use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::core::{ProviderKind, Side};
use montsalvat::runtime::heap::{CollectorKind, HeapConfig};
use montsalvat::telemetry::Gauge;

fn check_levels_sum_over_worlds(collector: CollectorKind) {
    let transformed = transform(&bank_program());
    let options = ImageOptions::default();
    let (trusted, untrusted) = build_partitioned_images(&transformed, &options, &options).unwrap();
    let config = AppConfig {
        heap_config: HeapConfig { collector, ..HeapConfig::default() },
        gc_helper_interval: None,
        provider: Some(ProviderKind::SimSgx),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    app.run_main().unwrap();
    let (mut live, mut blocks_live, mut blocks_free) = (0, 0, 0);
    for side in [Side::Trusted, Side::Untrusted] {
        app.shared.world(side).isolate.with_heap(|h| {
            h.collect();
            live += h.live_bytes();
            let blocks = h.block_stats().unwrap_or_default();
            blocks_live += blocks.live_blocks;
            blocks_free += blocks.free_blocks;
        });
    }
    let trusted_live = app.shared.world(Side::Trusted).isolate.with_heap(|h| h.live_bytes());
    assert!(trusted_live > 0, "the trusted heap keeps the bank's objects");

    let snap = app.telemetry_snapshot();
    app.shutdown();
    let name = collector.name();
    assert_eq!(snap.gauge(Gauge::HeapLiveBytes), live, "{name}: live bytes of both heaps");
    assert!(snap.gauge(Gauge::HeapLiveBytesPeak) >= live, "{name}: the peak covers the sum");
    assert_eq!(snap.gauge(Gauge::GcBlocksLive), blocks_live, "{name}: live blocks");
    assert_eq!(snap.gauge(Gauge::GcBlocksFree), blocks_free, "{name}: free blocks");
}

#[test]
fn semispace_level_gauges_sum_both_worlds() {
    check_levels_sum_over_worlds(CollectorKind::Semispace);
}

#[test]
fn block_level_gauges_sum_both_worlds() {
    check_levels_sum_over_worlds(CollectorKind::Block);
}
