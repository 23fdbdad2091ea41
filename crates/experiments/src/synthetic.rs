//! Figure 6: the synthetic partition sweep (§6.5).
//!
//! A generated application with 100 classes, each doing either CPU- or
//! I/O-intensive work; the share of `@Untrusted` classes sweeps from
//! 0% to 100%. The paper's observation: moving classes out of the
//! enclave improves overall runtime for both workload kinds.

use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;

use crate::progs::{synthetic_program, WorkKind};
use crate::report::{Scale, Series};

/// Runs one sweep for a workload kind; x = % untrusted classes, y =
/// model seconds charged by `main`.
pub fn sweep(kind: WorkKind, scale: Scale) -> Series {
    let (n_classes, percents): (usize, Vec<u32>) = match scale {
        Scale::Full => (100, (0..=10).map(|i| i * 10).collect()),
        Scale::Quick => (12, vec![0, 50, 100]),
    };
    let label = match kind {
        WorkKind::Cpu => "CPU intensive operations",
        WorkKind::Io => "I/O intensive operations",
    };
    let mut series = Series::new(label);
    for &pct in &percents {
        let program = synthetic_program(n_classes, pct, kind);
        let tp = transform(&program);
        let (trusted, untrusted) =
            build_partitioned_images(&tp, &ImageOptions::default(), &ImageOptions::default())
                .expect("synthetic images build");
        let config = AppConfig { gc_helper_interval: None, ..AppConfig::default() };
        let app =
            PartitionedApp::launch(&trusted, &untrusted, config).expect("launch synthetic app");
        let cost = std::sync::Arc::clone(&app.shared.cost);
        let start = cost.charged();
        app.run_main().expect("synthetic main runs");
        let elapsed = cost.charged() - start;
        series.push(pct as f64, elapsed.as_secs_f64());
    }
    series
}

/// Runs Figure 6: both workload kinds.
pub fn fig6(scale: Scale) -> Vec<Series> {
    vec![sweep(WorkKind::Cpu, scale), sweep(WorkKind::Io, scale)]
}
