//! Figure 12 and Table 1: SPECjvm2008 micro-benchmarks in enclaves
//! (§6.6).

use baselines::{Deployment, JvmModel};
use montsalvat_core::exec::app::SingleWorldApp;
use montsalvat_core::image_builder::{build_unpartitioned_image, ImageOptions};
use runtime_sim::value::Value;
use specjvm::Workload;

use crate::progs::{specjvm_entries, specjvm_program};
use crate::report::Scale;

/// One measured cell of Figure 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecRun {
    /// The workload.
    pub workload: Workload,
    /// The deployment.
    pub deployment: Deployment,
    /// Model seconds (startup included).
    pub seconds: f64,
}

/// Runs one workload under one deployment. `seconds` is the model
/// time the run charged plus the deployment's constant startup: a pure
/// function of the workload and the cost table.
pub fn run_one(workload: Workload, deployment: Deployment, scale: Scale) -> SpecRun {
    let divisor = match scale {
        Scale::Full => 1i64,
        Scale::Quick => 16,
    };
    let program = specjvm_program(workload);
    let image =
        build_unpartitioned_image(&program, &ImageOptions::with_entry_points(specjvm_entries()))
            .expect("specjvm image builds");
    let jvm = JvmModel::default();
    let app_config = deployment.app_config(&jvm, image.classes.len());
    let startup = app_config.exec_model.startup_ns as f64 * 1e-9;
    let app = SingleWorldApp::launch(&image, deployment.placement(), app_config)
        .expect("launch specjvm app");
    let cost = std::sync::Arc::clone(&app.shared.cost);
    let start = cost.charged();
    app.enter(|ctx| {
        let bench = ctx.new_object("Bench", &[])?;
        let checksum = ctx.call(&bench, "run", &[Value::Int(divisor)])?;
        checksum
            .as_float()
            .filter(|c| c.is_finite())
            .ok_or_else(|| montsalvat_core::VmError::App("kernel checksum invalid".into()))?;
        Ok(())
    })
    .expect("specjvm bench runs");
    let seconds = (cost.charged() - start).as_secs_f64() + startup;
    SpecRun { workload, deployment, seconds }
}

/// Runs Figure 12: every workload under all four deployments.
pub fn fig12(scale: Scale) -> Vec<SpecRun> {
    let mut out = Vec::new();
    for workload in Workload::all() {
        for deployment in Deployment::all() {
            out.push(run_one(workload, deployment, scale));
        }
    }
    out
}

/// One row of Table 1: the latency gain of the in-enclave native image
/// over SCONE+JVM (`SCONE+JVM seconds ÷ SGX-NI seconds`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// The workload.
    pub workload: Workload,
    /// Gain factor (> 1: the native image wins).
    pub gain: f64,
}

/// Derives Table 1 from Figure 12 data.
pub fn table1(runs: &[SpecRun]) -> Vec<Table1Row> {
    Workload::all()
        .into_iter()
        .map(|workload| {
            let find = |d: Deployment| {
                runs.iter()
                    .find(|r| r.workload == workload && r.deployment == d)
                    .map(|r| r.seconds)
                    .expect("fig12 covers all cells")
            };
            Table1Row { workload, gain: find(Deployment::SconeJvm) / find(Deployment::SgxNative) }
        })
        .collect()
}
