//! Figures 7 and 10: the PalDB macro-benchmark (§6.5–§6.6).
//!
//! The workload writes and then reads back `n` key/value pairs (keys =
//! random 31-bit integers as strings, values = 128-character strings).
//! Partitioning along `DBReader`/`DBWriter` yields the paper's two
//! schemes `RTWU` and `RUWT`; the baselines run the unpartitioned
//! application under the four deployments.

use std::sync::atomic::{AtomicU64, Ordering};

use baselines::{Deployment, JvmModel};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp, SingleWorldApp};
use montsalvat_core::image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions,
};
use montsalvat_core::transform::transform;
use montsalvat_core::VmError;
use runtime_sim::value::Value;
use telemetry::Counter::{Ecalls, Ocalls};

use crate::progs::{paldb_entries, paldb_program, PaldbScheme};
use crate::report::{Scale, Series};

/// A PalDB deployment under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaldbConfig {
    /// Unpartitioned native image on the host (`NoSGX`).
    NoSgx,
    /// Unpartitioned native image in the enclave (`NoPart`).
    NoPart,
    /// Partitioned: reader trusted, writer untrusted (`Part(RTWU)`).
    Rtwu,
    /// Partitioned: reader untrusted, writer trusted (`Part(WTRU)`).
    Ruwt,
    /// Unpartitioned on a JVM in a SCONE container (`SCONE+JVM`).
    SconeJvm,
}

impl PaldbConfig {
    /// The paper's legend label.
    pub fn label(&self) -> &'static str {
        match self {
            PaldbConfig::NoSgx => "NoSGX",
            PaldbConfig::NoPart => "NoPart",
            PaldbConfig::Rtwu => "Part(RTWU)",
            PaldbConfig::Ruwt => "Part(WTRU)",
            PaldbConfig::SconeJvm => "SCONE+JVM",
        }
    }
}

/// Outcome of one PalDB run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaldbRun {
    /// End-to-end time (write all + read all), model seconds, startup
    /// included.
    pub seconds: f64,
    /// Keys found by the read phase.
    pub hits: i64,
    /// Enclave ocalls performed.
    pub ocalls: u64,
    /// Enclave ecalls performed.
    pub ecalls: u64,
}

/// A fresh store path. The pid is zero-padded so the path's length —
/// which in-enclave opens charge per byte — is the same in every
/// process.
fn store_path(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "paldb_{tag}_{:010}_{}.store",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The fixed seed every PalDB run drives its workload RNG with. With
/// the key stream pinned, a run is a pure function of the cost
/// parameters — reproducible bit-for-bit.
pub const WORKLOAD_SEED: i64 = 77;

fn drive(ctx: &mut montsalvat_core::Ctx<'_>, path: &str, n: i64) -> Result<i64, VmError> {
    let seed = WORKLOAD_SEED;
    let writer = ctx.new_object("DBWriter", &[])?;
    ctx.call(&writer, "write", &[Value::from(path), Value::Int(n), Value::Int(seed)])?;
    let reader = ctx.new_object("DBReader", &[])?;
    let hits = ctx.call(&reader, "read", &[Value::from(path), Value::Int(n), Value::Int(seed)])?;
    hits.as_int().ok_or_else(|| VmError::Type("read must return an integer".into()))
}

/// Runs one configuration at `n` keys; `seconds` is the model time
/// the run charged.
pub fn run_config(config: PaldbConfig, n: i64) -> PaldbRun {
    let path = store_path(config.label());
    let path_str = path.to_string_lossy().into_owned();
    let jvm = JvmModel::default();

    let run = match config {
        PaldbConfig::Rtwu | PaldbConfig::Ruwt => {
            let scheme =
                if config == PaldbConfig::Rtwu { PaldbScheme::Rtwu } else { PaldbScheme::Ruwt };
            let tp = transform(&paldb_program(scheme));
            let options = ImageOptions::with_entry_points(paldb_entries());
            let (trusted, untrusted) =
                build_partitioned_images(&tp, &options, &options).expect("paldb images build");
            let app_config = AppConfig { gc_helper_interval: None, ..AppConfig::default() };
            let app = PartitionedApp::launch(&trusted, &untrusted, app_config)
                .expect("launch partitioned paldb");
            let cost = std::sync::Arc::clone(&app.shared.cost);
            let start = cost.charged();
            let hits = app.enter_untrusted(|ctx| drive(ctx, &path_str, n)).expect("paldb runs");
            let seconds = (cost.charged() - start).as_secs_f64();
            let (ocalls, ecalls) =
                (app.telemetry().counter(Ocalls), app.telemetry().counter(Ecalls));
            PaldbRun { seconds, hits, ocalls, ecalls }
        }
        PaldbConfig::NoSgx | PaldbConfig::NoPart | PaldbConfig::SconeJvm => {
            let deployment = match config {
                PaldbConfig::NoSgx => Deployment::NoSgxNative,
                PaldbConfig::NoPart => Deployment::SgxNative,
                PaldbConfig::SconeJvm => Deployment::SconeJvm,
                _ => unreachable!(),
            };
            let program = paldb_program(PaldbScheme::Unpartitioned);
            let image = build_unpartitioned_image(
                &program,
                &ImageOptions::with_entry_points(paldb_entries()),
            )
            .expect("paldb image builds");
            let app_config = deployment.app_config(&jvm, image.classes.len());
            let startup = app_config.exec_model.startup_ns;
            let app = SingleWorldApp::launch(&image, deployment.placement(), app_config)
                .expect("launch single-world paldb");
            let cost = std::sync::Arc::clone(&app.shared.cost);
            let start = cost.charged();
            let hits = app.enter(|ctx| drive(ctx, &path_str, n)).expect("paldb runs");
            let seconds = (cost.charged() - start).as_secs_f64() + startup as f64 * 1e-9;
            let (ocalls, ecalls) =
                (app.telemetry().counter(Ocalls), app.telemetry().counter(Ecalls));
            PaldbRun { seconds, hits, ocalls, ecalls }
        }
    };
    std::fs::remove_file(&path).ok();
    run
}

fn key_counts(scale: Scale) -> Vec<i64> {
    match scale {
        Scale::Full => (1..=10).map(|i| i * 10_000).collect(),
        Scale::Quick => vec![500, 1_000],
    }
}

/// Runs Figure 7: `{NoSGX, NoPart, RTWU, WTRU}` over the key sweep.
pub fn fig7(scale: Scale) -> Vec<Series> {
    run_set(&[PaldbConfig::NoSgx, PaldbConfig::NoPart, PaldbConfig::Rtwu, PaldbConfig::Ruwt], scale)
}

/// Runs Figure 10: Figure 7's configurations plus `SCONE+JVM`.
pub fn fig10(scale: Scale) -> Vec<Series> {
    run_set(
        &[
            PaldbConfig::NoPart,
            PaldbConfig::Rtwu,
            PaldbConfig::Ruwt,
            PaldbConfig::SconeJvm,
            PaldbConfig::NoSgx,
        ],
        scale,
    )
}

fn run_set(configs: &[PaldbConfig], scale: Scale) -> Vec<Series> {
    let mut series: Vec<Series> = configs.iter().map(|c| Series::new(c.label())).collect();
    for n in key_counts(scale) {
        for (idx, config) in configs.iter().enumerate() {
            let run = run_config(*config, n);
            assert!(run.hits >= n * 9 / 10, "{}: most keys must be found", config.label());
            series[idx].push(n as f64, run.seconds);
        }
    }
    series
}
