//! Provider and collector equivalence: neither the deployment-mode
//! provider nor the garbage collector may change *what* an application
//! computes, only what it costs.
//!
//! Runs the kvstore traffic workload under `SimSgx` and `PassThrough`
//! and asserts identical results (checksums, hit/miss/put counts) with
//! strictly lower model time and zero enclave transitions for the
//! pass-through lane, plus the `MONTSALVAT_PROVIDER` detection
//! precedence and its unknown-value error end to end. Then runs the
//! same KV service with managed heap churn under each collector, picked
//! through `HeapConfig::collector`, and asserts identical results.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use experiments::traffic::{
    key_bytes, kv_service_program, lanes, op_schedule, run_lane, value_bytes, OpKind, TrafficConfig,
};
use montsalvat::core::class::{MethodRef, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::provider::{ProviderKind, PROVIDER_ENV};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::core::{Side, VmError};
use montsalvat::runtime::heap::{CollectorKind, HeapConfig};
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::Counter;

fn tiny() -> TrafficConfig {
    TrafficConfig { requests: 160, key_space: 96, ..TrafficConfig::quick() }
}

#[test]
fn kvstore_workload_is_identical_across_providers() {
    let all = lanes();
    let sgx_lane = all[0];
    let pt_lane = all[2];
    assert_eq!(sgx_lane.provider, ProviderKind::SimSgx);
    assert_eq!(pt_lane.provider, ProviderKind::PassThrough);

    let cfg = tiny();
    let sgx = run_lane(sgx_lane, &cfg).expect("sim-sgx lane");
    let pt = run_lane(pt_lane, &cfg).expect("passthrough lane");

    // Same computation: every response byte matches.
    assert_eq!(sgx.checksum, pt.checksum, "providers must return identical responses");
    assert_eq!(
        (sgx.hits, sgx.misses, sgx.puts),
        (pt.hits, pt.misses, pt.puts),
        "hit/miss/put accounting must match across providers"
    );

    // Different cost: pass-through pays no crossings at all.
    assert_eq!(pt.transitions(), 0, "pass-through performs zero enclave transitions");
    assert!(sgx.transitions() > 0, "sim-sgx crosses for every relayed call");
    assert!(
        pt.model_time_ns < sgx.model_time_ns,
        "pass-through model time ({}) must be strictly below sim-sgx ({})",
        pt.model_time_ns,
        sgx.model_time_ns
    );
}

/// Serves [`tiny`]'s request schedule from a KV service app whose heaps
/// run `collector`, picked through `HeapConfig::collector`. Every tenth
/// request also allocates 64 KiB of garbage and runs a minor cycle, as
/// the traffic harness's churny lanes do. Checks that both isolates ran
/// `collector` and that it collected; returns the FNV-1a checksum of
/// the responses and the `[hits, misses, puts]` counts.
fn run_kv_under(collector: CollectorKind) -> (u64, [u64; 3]) {
    let cfg = tiny();
    let store = Arc::new(Mutex::new(BTreeMap::new()));
    let tp = transform(&kv_service_program(&store));
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("KvService", CTOR),
        MethodRef::new("KvService", "get"),
        MethodRef::new("KvService", "put"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let config = AppConfig {
        gc_helper_interval: None,
        provider: Some(ProviderKind::SimSgx),
        heap_config: HeapConfig { collector, ..HeapConfig::default() },
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&t, &u, config).expect("app launches");
    let outcome = app
        .enter_untrusted(|ctx| {
            let service = ctx.new_object("KvService", &[])?;
            let mut checksum = 0xCBF2_9CE4_8422_2325u64;
            let mut counts = [0u64; 3];
            for (i, op) in op_schedule(&cfg).iter().enumerate() {
                let (slot, bytes) = match op.kind {
                    OpKind::Get(key) => {
                        match ctx.call(&service, "get", &[Value::Bytes(key_bytes(key))])? {
                            Value::Bytes(value) => (0, value),
                            _ => (1, Vec::new()),
                        }
                    }
                    OpKind::Put(key) => {
                        let args =
                            [Value::Bytes(key_bytes(key)), Value::Bytes(value_bytes(&cfg, key))];
                        let len = ctx.call(&service, "put", &args)?.as_int().unwrap_or(0);
                        (2, len.to_le_bytes().to_vec())
                    }
                };
                counts[slot] += 1;
                for b in bytes {
                    checksum = (checksum ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
                if i % 10 == 9 {
                    ctx.alloc_garbage(64 * 1024, 1024);
                    ctx.collect_garbage_minor();
                }
            }
            Ok((checksum, counts))
        })
        .expect("workload runs");
    let name = collector.name();
    assert!(app.telemetry().counter(Counter::GcCollections) > 0, "{name}: the churn collects");
    for side in [Side::Trusted, Side::Untrusted] {
        let kind = app.shared.world(side).isolate.lock_heap().collector_kind();
        assert_eq!(kind, collector, "{side} isolate runs the selected collector");
    }
    app.shutdown();
    outcome
}

#[test]
fn kvstore_workload_is_identical_across_collectors() {
    let semispace = run_kv_under(CollectorKind::Semispace);
    let block = run_kv_under(CollectorKind::Block);
    assert_eq!(semispace.0, block.0, "collectors must return identical responses");
    assert_eq!(semispace.1, block.1, "hit/miss/put accounting must match across collectors");
    assert!(semispace.1.iter().all(|&n| n > 0), "the schedule hits, misses and puts");
}

fn launch_bank(config: AppConfig) -> PartitionedApp {
    let tp = transform(&bank_program());
    let options = ImageOptions::default();
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    PartitionedApp::launch(&t, &u, config).expect("app launches")
}

/// Detection precedence end to end: env selects the provider when the
/// config leaves it open, an explicit config pin beats the env, and an
/// env value that names no provider fails only unpinned launches.
///
/// Kept as a single test so only one thread touches `MONTSALVAT_PROVIDER`
/// — every other test in the suite pins its provider via `AppConfig`.
#[test]
fn env_var_selects_provider_and_config_pin_wins() {
    std::env::set_var(PROVIDER_ENV, "passthrough");

    // provider: None → the detector consults the env.
    let app = launch_bank(AppConfig { gc_helper_interval: None, ..AppConfig::default() });
    app.run_main().expect("main runs");
    let stats = app.telemetry_snapshot();
    assert_eq!(stats.counter(Counter::Ecalls), 0, "pass-through performs no ecalls");
    assert_eq!(stats.counter(Counter::Ocalls), 0, "pass-through performs no ocalls");
    app.shutdown();

    // An explicit config pin beats the env.
    let app = launch_bank(AppConfig {
        gc_helper_interval: None,
        provider: Some(ProviderKind::SimSgx),
        ..AppConfig::default()
    });
    app.run_main().expect("main runs");
    assert!(app.telemetry().counter(Counter::Ecalls) > 0, "config-pinned sim-sgx still crosses");
    app.shutdown();

    // A value that names no provider fails an unpinned launch ...
    std::env::set_var(PROVIDER_ENV, "tdx");
    let tp = transform(&bank_program());
    let options = ImageOptions::default();
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let unpinned = AppConfig { gc_helper_interval: None, ..AppConfig::default() };
    match PartitionedApp::launch(&t, &u, unpinned) {
        Err(VmError::UnknownProvider { variable, value }) => {
            assert_eq!((variable, value.as_str()), (PROVIDER_ENV, "tdx"));
        }
        Err(other) => panic!("an unknown provider fails as such, not as: {other}"),
        Ok(_) => panic!("an unknown provider must fail the launch"),
    }
    // ... while a pinned one never reads it.
    let app = launch_bank(AppConfig {
        gc_helper_interval: None,
        provider: Some(ProviderKind::PassThrough),
        ..AppConfig::default()
    });
    app.run_main().expect("main runs");
    let ecalls = app.telemetry().counter(Counter::Ecalls);
    assert_eq!(ecalls, 0, "config-pinned pass-through does not cross");
    app.shutdown();

    std::env::remove_var(PROVIDER_ENV);
}
