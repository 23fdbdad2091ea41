//! Figures 9 and 11: the GraphChi macro-benchmark (§6.5–§6.6).
//!
//! PageRank over R-MAT graphs: the FastSharder splits the graph into
//! shards (I/O-heavy), the engine computes ranks (compute-heavy). The
//! partitioned deployment keeps the engine in the enclave and moves the
//! sharder out, so sharding time returns to native speed.

use std::sync::atomic::{AtomicU64, Ordering};

use baselines::{Deployment, JvmModel};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp, SingleWorldApp};
use montsalvat_core::image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions,
};
use montsalvat_core::transform::transform;
use montsalvat_core::VmError;
use runtime_sim::value::Value;

use crate::progs::{graphchi_entries, graphchi_program};
use crate::report::Scale;

/// A GraphChi deployment under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphConfig {
    /// Unpartitioned native image on the host.
    NoSgxNi,
    /// Unpartitioned native image in the enclave.
    NoPartNi,
    /// Partitioned native images (engine trusted, sharder untrusted).
    PartNi,
    /// JVM on the host.
    NoSgxJvm,
    /// JVM in a SCONE container in the enclave.
    SconeJvm,
}

impl GraphConfig {
    /// The paper's legend label.
    pub fn label(&self) -> &'static str {
        match self {
            GraphConfig::NoSgxNi => "NoSGX-NI",
            GraphConfig::NoPartNi => "NoPart-NI",
            GraphConfig::PartNi => "Part-NI",
            GraphConfig::NoSgxJvm => "NoSGX+JVM",
            GraphConfig::SconeJvm => "SCONE+JVM",
        }
    }
}

/// Result of one PageRank run with its phase breakdown (the paper's
/// stacked bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphRun {
    /// Shard count used.
    pub shards: u32,
    /// Total model seconds (startup included).
    pub total: f64,
    /// Seconds spent in the sharding phase.
    pub sharding: f64,
    /// Seconds spent in the engine phase.
    pub engine: f64,
}

/// PageRank iterations per run.
pub const ITERATIONS: i64 = 4;

/// A fresh shard directory; the pid is zero-padded for the reason
/// given at `paldb::store_path`.
fn work_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "graphchi_exp_{tag}_{:010}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

struct Phases {
    sharding: std::time::Duration,
    engine: std::time::Duration,
}

fn drive(
    ctx: &mut montsalvat_core::Ctx<'_>,
    dir: &str,
    vertices: i64,
    edges: i64,
    shards: i64,
) -> Result<Phases, VmError> {
    let sharder = ctx.new_object("FastSharder", &[])?;
    let t0 = ctx.cost_charged();
    ctx.call(
        &sharder,
        "shard",
        &[
            Value::from(dir),
            Value::Int(vertices),
            Value::Int(edges),
            Value::Int(shards),
            Value::Int(4242),
        ],
    )?;
    let t1 = ctx.cost_charged();
    let engine = ctx.new_object("GraphChiEngine", &[])?;
    let checksum = ctx.call(&engine, "run", &[Value::from(dir), Value::Int(ITERATIONS)])?;
    let t2 = ctx.cost_charged();
    let sum = checksum.as_float().ok_or_else(|| VmError::Type("run must return a float".into()))?;
    if !sum.is_finite() || sum <= 0.0 {
        return Err(VmError::App(format!("pagerank checksum {sum} out of range")));
    }
    Ok(Phases { sharding: t1 - t0, engine: t2 - t1 })
}

/// Runs one configuration on a `(vertices, edges)` graph with `shards`
/// shards. Phase times are model charges: a pure function of the
/// configuration, the graph seed and the cost table.
pub fn run_config(config: GraphConfig, vertices: i64, edges: i64, shards: i64) -> GraphRun {
    let dir = work_dir(config.label());
    let dir_str = dir.to_string_lossy().into_owned();
    let jvm = JvmModel::default();

    let run = match config {
        GraphConfig::PartNi => {
            let tp = transform(&graphchi_program(true));
            let options = ImageOptions::with_entry_points(graphchi_entries());
            let (trusted, untrusted) =
                build_partitioned_images(&tp, &options, &options).expect("graphchi images build");
            let app_config = AppConfig { gc_helper_interval: None, ..AppConfig::default() };
            let app = PartitionedApp::launch(&trusted, &untrusted, app_config)
                .expect("launch partitioned graphchi");
            let phases = app
                .enter_untrusted(|ctx| drive(ctx, &dir_str, vertices, edges, shards))
                .expect("graphchi runs");
            GraphRun {
                shards: shards as u32,
                total: (phases.sharding + phases.engine).as_secs_f64(),
                sharding: phases.sharding.as_secs_f64(),
                engine: phases.engine.as_secs_f64(),
            }
        }
        _ => {
            let deployment = match config {
                GraphConfig::NoSgxNi => Deployment::NoSgxNative,
                GraphConfig::NoPartNi => Deployment::SgxNative,
                GraphConfig::NoSgxJvm => Deployment::NoSgxJvm,
                GraphConfig::SconeJvm => Deployment::SconeJvm,
                GraphConfig::PartNi => unreachable!(),
            };
            let program = graphchi_program(false);
            let image = build_unpartitioned_image(
                &program,
                &ImageOptions::with_entry_points(graphchi_entries()),
            )
            .expect("graphchi image builds");
            let app_config = deployment.app_config(&jvm, image.classes.len());
            let startup = app_config.exec_model.startup_ns as f64 * 1e-9;
            let app = SingleWorldApp::launch(&image, deployment.placement(), app_config)
                .expect("launch single-world graphchi");
            let phases = app
                .enter(|ctx| drive(ctx, &dir_str, vertices, edges, shards))
                .expect("graphchi runs");
            GraphRun {
                shards: shards as u32,
                total: (phases.sharding + phases.engine).as_secs_f64() + startup,
                sharding: phases.sharding.as_secs_f64(),
                engine: phases.engine.as_secs_f64(),
            }
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    run
}

/// Graph sizes of Figure 9: `(vertices, edges)`.
pub fn fig9_graphs(scale: Scale) -> Vec<(i64, i64)> {
    match scale {
        Scale::Full => vec![(6_250, 25_000), (12_500, 50_000), (25_000, 100_000)],
        Scale::Quick => vec![(500, 2_000)],
    }
}

/// Shard counts of Figures 9 and 11.
pub fn shard_counts(scale: Scale) -> Vec<i64> {
    match scale {
        Scale::Full => (1..=6).collect(),
        Scale::Quick => vec![1, 2],
    }
}

/// One Figure-9 row: a `(vertices, edges)` graph size with the runs
/// performed on it, one per `(configuration, result)` pair.
pub type Fig9Row = ((i64, i64), Vec<(GraphConfig, GraphRun)>);

/// Runs Figure 9: per graph size and shard count, the three
/// configurations with phase breakdowns.
pub fn fig9(scale: Scale) -> Vec<Fig9Row> {
    let configs = [GraphConfig::NoSgxNi, GraphConfig::NoPartNi, GraphConfig::PartNi];
    let mut out = Vec::new();
    for (v, e) in fig9_graphs(scale) {
        let mut runs = Vec::new();
        for shards in shard_counts(scale) {
            for config in configs {
                runs.push((config, run_config(config, v, e, shards)));
            }
        }
        out.push(((v, e), runs));
    }
    out
}

/// Runs Figure 11: the 25k-V/100k-E graph under all five
/// configurations.
pub fn fig11(scale: Scale) -> Vec<(GraphConfig, Vec<GraphRun>)> {
    let (v, e) = match scale {
        Scale::Full => (25_000i64, 100_000i64),
        Scale::Quick => (500, 2_000),
    };
    let configs = [
        GraphConfig::NoSgxNi,
        GraphConfig::NoSgxJvm,
        GraphConfig::PartNi,
        GraphConfig::NoPartNi,
        GraphConfig::SconeJvm,
    ];
    configs
        .into_iter()
        .map(|config| {
            let runs =
                shard_counts(scale).into_iter().map(|s| run_config(config, v, e, s)).collect();
            (config, runs)
        })
        .collect()
}
