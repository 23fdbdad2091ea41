//! Both app shapes under both providers: the provider decides where the
//! enclave-bound image runs and what a crossing costs, never what the
//! program computes.
//!
//! Runs the bank program as a `PartitionedApp` and as a
//! `SingleWorldApp` under both placements, with the provider pinned
//! through `AppConfig::provider`. Under `PassThrough` nothing runs in
//! the enclave, `Placement::Enclave` included: no ecall or ocall, and
//! the EPC never holds a byte. Under `SimSgx` the enclave-bound image
//! (the trusted image, or the single image placed in the enclave) runs
//! inside, and the launch commits the measured image and its code to
//! the EPC; a host placement commits nothing.

use montsalvat::core::class::{MethodRef, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp, Placement, SingleWorldApp};
use montsalvat::core::image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions, NativeImage,
};
use montsalvat::core::provider::ProviderKind;
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::core::{Ctx, VmError};
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::{Counter, Gauge, Snapshot};

/// Alice pays Bob 40, then reads her balance back (60).
fn pay_and_read_balance(ctx: &mut Ctx<'_>) -> Result<Value, VmError> {
    let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
    let bob = ctx.new_object("Person", &[Value::from("Bob"), Value::Int(25)])?;
    ctx.call(&alice, "transfer", &[bob, Value::Int(40)])?;
    let account = ctx.call(&alice, "getAccount", &[])?;
    ctx.call(&account, "balance", &[])
}

/// What one launch showed.
struct Observed {
    /// `run_main`'s result, then [`pay_and_read_balance`]'s.
    results: (Value, Value),
    /// `Ctx::in_enclave()` in the enclave-bound image's world.
    in_enclave: bool,
    /// EPC bytes resident right after the launch.
    resident_at_launch: u64,
    telemetry: Snapshot,
}

fn config(provider: ProviderKind) -> AppConfig {
    AppConfig { gc_helper_interval: None, provider: Some(provider), ..AppConfig::default() }
}

fn run_partitioned(
    trusted: &NativeImage,
    untrusted: &NativeImage,
    provider: ProviderKind,
) -> Observed {
    let app = PartitionedApp::launch(trusted, untrusted, config(provider)).expect("launches");
    let resident_at_launch = app.enclave.epc_resident_bytes();
    let main = app.run_main().expect("main runs");
    let balance = app.enter_untrusted(pay_and_read_balance).expect("payment runs");
    let in_enclave = app.enter_trusted(|ctx| Ok(ctx.in_enclave())).expect("enters");
    let observed = Observed {
        results: (main, balance),
        in_enclave,
        resident_at_launch,
        telemetry: app.telemetry_snapshot(),
    };
    app.shutdown();
    observed
}

fn run_single(image: &NativeImage, placement: Placement, provider: ProviderKind) -> Observed {
    let app = SingleWorldApp::launch(image, placement, config(provider)).expect("launches");
    let resident_at_launch = app.enclave.epc_resident_bytes();
    let main = app.run_main().expect("main runs");
    let balance = app.enter(pay_and_read_balance).expect("payment runs");
    let in_enclave = app.enter(|ctx| Ok(ctx.in_enclave())).expect("enters");
    let observed = Observed {
        results: (main, balance),
        in_enclave,
        resident_at_launch,
        telemetry: app.telemetry_snapshot(),
    };
    app.shutdown();
    observed
}

/// Checks one launch whose enclave was measured over `measured`;
/// `wants_enclave` says whether its shape asked for the enclave.
fn check(
    label: &str,
    observed: &Observed,
    provider: ProviderKind,
    wants_enclave: bool,
    measured: &NativeImage,
) {
    let measured_bytes = measured.measurement_bytes().len() as u64;
    let peak = observed.telemetry.gauge(Gauge::EpcResidentPeak);
    let ecalls = observed.telemetry.counter(Counter::Ecalls);
    match provider {
        ProviderKind::PassThrough => {
            assert!(!observed.in_enclave, "{label}: nothing runs in the enclave");
            assert_eq!(ecalls, 0, "{label}: no ecalls");
            assert_eq!(observed.telemetry.counter(Counter::Ocalls), 0, "{label}: no ocalls");
            assert_eq!(observed.resident_at_launch, 0, "{label}: nothing committed");
            assert_eq!(peak, 0, "{label}: the EPC never holds a byte");
        }
        ProviderKind::SimSgx if wants_enclave => {
            assert!(observed.in_enclave, "{label}: the image runs in the enclave");
            assert_eq!(
                observed.resident_at_launch,
                measured_bytes + measured.code_size_estimate(),
                "{label}: launch commits the measured image and its code to the EPC"
            );
            assert!(ecalls > 0, "{label}: the run enters the enclave");
        }
        ProviderKind::SimSgx => {
            assert!(!observed.in_enclave, "{label}: a host placement stays outside");
            assert_eq!(observed.resident_at_launch, 0, "{label}: nothing committed");
            assert_eq!(peak, 0, "{label}: the EPC never holds a byte");
        }
    }
}

#[test]
fn both_app_shapes_compute_alike_under_both_providers() {
    let entries = [
        MethodRef::new("Person", CTOR),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Account", "balance"),
    ];
    let options = ImageOptions::with_entry_points(entries);
    let tp = transform(&bank_program());
    let (trusted, untrusted) = build_partitioned_images(&tp, &options, &options).expect("builds");
    let single = build_unpartitioned_image(&bank_program(), &options).expect("builds");

    let mut results = Vec::new();
    for provider in [ProviderKind::SimSgx, ProviderKind::PassThrough] {
        let observed = run_partitioned(&trusted, &untrusted, provider);
        check(&format!("partitioned/{provider}"), &observed, provider, true, &trusted);
        results.push(observed.results);
        for placement in [Placement::Enclave, Placement::Host] {
            let observed = run_single(&single, placement, provider);
            let label = format!("single/{placement:?}/{provider}");
            check(&label, &observed, provider, placement == Placement::Enclave, &single);
            results.push(observed.results);
        }
    }
    assert_eq!(results.len(), 6);
    for result in &results {
        assert_eq!(result, &(Value::Unit, Value::Int(60)), "every run computes the same");
    }
}
