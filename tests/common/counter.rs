//! The trusted counter the allocation tests cross into: `Counter.add`
//! takes and returns an int.

use std::sync::Arc;

use montsalvat::core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::transform;
use montsalvat::core::Trust;
use montsalvat::runtime::value::Value;

fn counter_program() -> Program {
    let counter = ClassDef::new("Counter")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "add",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| match args[0] {
                Value::Int(n) => Ok(Value::Int(n + 1)),
                ref other => Ok(other.clone()),
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![counter, main], MethodRef::new("Main", "main")).unwrap()
}

/// Launches the counter with crossings on `switchless` (classic when
/// `None`) and no GC helper thread: a measured window must only see the
/// caller's crossings and the pool workers that serve them.
pub fn launch(switchless: Option<SwitchlessConfig>) -> PartitionedApp {
    let tp = transform(&counter_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Counter", CTOR),
        MethodRef::new("Counter", "add"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig { gc_helper_interval: None, switchless, ..AppConfig::default() };
    PartitionedApp::launch(&t, &u, config).unwrap()
}
