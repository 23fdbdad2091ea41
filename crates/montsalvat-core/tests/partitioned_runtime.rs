//! End-to-end tests of the partitioned runtime on the paper's bank
//! example (Listing 1): correctness of cross-enclave calls, proxy/mirror
//! identity, GC consistency (§5.5), serialization of neutral objects,
//! and failure injection.

use std::time::Duration;

use montsalvat_core::annotation::Side;
use montsalvat_core::exec::app::{AppConfig, PartitionedApp, Placement, SingleWorldApp};
use montsalvat_core::image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions,
};
use montsalvat_core::samples::bank_program;
use montsalvat_core::transform::transform;
use montsalvat_core::VmError;
use runtime_sim::value::Value;
use sgx_sim::enclave::EnclaveConfig;
use telemetry::Counter;

/// Methods this harness drives dynamically (the reflection-config
/// analogue; without these the closed-world analysis prunes them).
fn harness_entries() -> Vec<montsalvat_core::MethodRef> {
    use montsalvat_core::MethodRef;
    vec![
        MethodRef::new("Account", "balance"),
        MethodRef::new("Account", "<init>"),
        MethodRef::new("AccountRegistry", "size"),
        MethodRef::new("Person", "<init>"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("AccountRegistry", "<init>"),
        MethodRef::new("AccountRegistry", "addAccount"),
    ]
}

fn launch_bank(config: AppConfig) -> PartitionedApp {
    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(harness_entries());
    let (trusted, untrusted) = build_partitioned_images(&tp, &options, &options).unwrap();
    PartitionedApp::launch(&trusted, &untrusted, config).unwrap()
}

fn no_helpers() -> AppConfig {
    AppConfig { gc_helper_interval: None, ..AppConfig::default() }
}

#[test]
fn transfer_updates_balances_inside_the_enclave() {
    let app = launch_bank(no_helpers());
    let (alice_balance, bob_balance) = app
        .enter_untrusted(|ctx| {
            let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
            let bob = ctx.new_object("Person", &[Value::from("Bob"), Value::Int(25)])?;
            ctx.call(&alice, "transfer", &[bob.clone(), Value::Int(25)])?;
            let a_acc = ctx.call(&alice, "getAccount", &[])?;
            let b_acc = ctx.call(&bob, "getAccount", &[])?;
            let a = ctx.call(&a_acc, "balance", &[])?;
            let b = ctx.call(&b_acc, "balance", &[])?;
            Ok((a, b))
        })
        .unwrap();
    assert_eq!(alice_balance, Value::Int(75));
    assert_eq!(bob_balance, Value::Int(50));
    // The balances were maintained inside the enclave: mirror objects
    // exist for both accounts, and every update was an ecall.
    assert_eq!(app.registry_len(Side::Trusted), 2);
    let ecalls = app.telemetry().counter(Counter::Ecalls);
    assert!(ecalls >= 6, "ctor x2 + transfer updates + balance reads, got {ecalls}");
}

#[test]
fn run_main_executes_listing_1() {
    let app = launch_bank(no_helpers());
    app.run_main().unwrap();
    // main creates two Accounts and one AccountRegistry in the enclave.
    assert_eq!(app.registry_len(Side::Trusted), 3);
    // Nothing crosses out, so every proxy is the untrusted side's and
    // every mirror the enclave's.
    let snap = app.telemetry_snapshot();
    assert_eq!(snap.counter(Counter::Ocalls), 0, "nothing in this program calls out");
    assert_eq!(snap.counter(Counter::MirrorsCreated), 3);
    assert_eq!(snap.counter(Counter::ProxiesCreated), 3);
}

#[test]
fn same_proxy_resolves_to_same_mirror() {
    let app = launch_bank(no_helpers());
    let size = app
        .enter_untrusted(|ctx| {
            let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(10)])?;
            let acc = ctx.call(&alice, "getAccount", &[])?;
            let registry = ctx.new_object("AccountRegistry", &[])?;
            // Add the same account twice through its proxy.
            ctx.call(&registry, "addAccount", std::slice::from_ref(&acc))?;
            ctx.call(&registry, "addAccount", std::slice::from_ref(&acc))?;
            ctx.call(&registry, "size", &[])
        })
        .unwrap();
    assert_eq!(size, Value::Int(2));
    // Only Account + AccountRegistry mirrors exist (no duplicate mirror
    // for the twice-passed proxy).
    assert_eq!(app.registry_len(Side::Trusted), 2);
}

#[test]
fn neutral_arguments_are_deep_copied() {
    let app = launch_bank(no_helpers());
    // Strings (neutral values) are serialized into the enclave; the
    // mirror keeps its own copy.
    let owner_dependent_balance = app
        .enter_untrusted(|ctx| {
            let p = ctx.new_object("Person", &[Value::from("Carol"), Value::Int(7)])?;
            let acc = ctx.call(&p, "getAccount", &[])?;
            ctx.call(&acc, "balance", &[])
        })
        .unwrap();
    assert_eq!(owner_dependent_balance, Value::Int(7));
    assert_eq!(app.telemetry_snapshot().counter(Counter::BytesSerialized), 31);
}

#[test]
fn gc_consistency_proxy_death_releases_mirror() {
    let app = launch_bank(no_helpers());
    app.enter_untrusted(|ctx| {
        for i in 0..16 {
            // Accounts created and immediately dropped (frame-local).
            ctx.new_object("Account", &[Value::from(format!("tmp{i}")), Value::Int(i)])?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(app.registry_len(Side::Trusted), 16);

    // Drop the proxies in the untrusted heap, then run the helper scan.
    app.enter_untrusted(|ctx| {
        ctx.collect_garbage();
        Ok(())
    })
    .unwrap();
    let (released_in_enclave, _) = app.gc_sync_once().unwrap();
    assert_eq!(released_in_enclave, 16);
    assert_eq!(app.registry_len(Side::Trusted), 0);

    // The mirrors are now collectable in the enclave.
    let reclaimed = app.enter_trusted(|ctx| Ok(ctx.collect_garbage().reclaimed)).unwrap();
    assert!(reclaimed >= 16, "mirrors reclaimed, got {reclaimed}");
}

#[test]
fn live_proxies_keep_their_mirrors() {
    let app = launch_bank(no_helpers());
    app.enter_untrusted(|ctx| {
        let keeper = ctx.new_object("Person", &[Value::from("Keep"), Value::Int(1)])?;
        // Anchor the account proxy in a field of a rooted-by-frame
        // object graph... and in a registry on the trusted side.
        let acc = ctx.call(&keeper, "getAccount", &[])?;
        let registry = ctx.new_object("AccountRegistry", &[])?;
        ctx.call(&registry, "addAccount", &[acc])?;
        ctx.collect_garbage();
        Ok(())
    })
    .unwrap();
    // After the frame ended everything is garbage; but BEFORE collection
    // the sync must not release anything for live proxies.
    let app2 = launch_bank(no_helpers());
    app2.enter_untrusted(|ctx| {
        let p = ctx.new_object("Person", &[Value::from("Live"), Value::Int(5)])?;
        ctx.collect_garbage(); // proxy still rooted by the frame
                               // Nothing may be released while the proxy lives.
        let _: () = drop(p);
        Ok(())
    })
    .unwrap();
    let before = app2.registry_len(Side::Trusted);
    // (run sync without any collection of the untrusted heap)
    let (released, _) = app2.gc_sync_once().unwrap();
    assert_eq!(released, 0);
    assert_eq!(app2.registry_len(Side::Trusted), before);
}

#[test]
fn gc_helper_threads_release_mirrors_automatically() {
    let config =
        AppConfig { gc_helper_interval: Some(Duration::from_millis(10)), ..AppConfig::default() };
    let app = launch_bank(config);
    app.enter_untrusted(|ctx| {
        for i in 0..8 {
            ctx.new_object("Account", &[Value::from(format!("a{i}")), Value::Int(i)])?;
        }
        Ok(())
    })
    .unwrap();
    app.enter_untrusted(|ctx| {
        ctx.collect_garbage();
        Ok(())
    })
    .unwrap();
    // Wait for the helper to scan and relay.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while app.registry_len(Side::Trusted) > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(app.registry_len(Side::Trusted), 0, "helper released all mirrors");
}

#[test]
fn unpartitioned_app_computes_the_same_result() {
    // §5.6: the same program can run unpartitioned; results must agree.
    let image = build_unpartitioned_image(
        &bank_program(),
        &ImageOptions::with_entry_points(harness_entries()),
    )
    .unwrap();
    for placement in [Placement::Host, Placement::Enclave] {
        let app = SingleWorldApp::launch(&image, placement, no_helpers()).unwrap();
        let (a, b) = app
            .enter(|ctx| {
                let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
                let bob = ctx.new_object("Person", &[Value::from("Bob"), Value::Int(25)])?;
                ctx.call(&alice, "transfer", &[bob.clone(), Value::Int(25)])?;
                let a_acc = ctx.call(&alice, "getAccount", &[])?;
                let b_acc = ctx.call(&bob, "getAccount", &[])?;
                Ok((ctx.call(&a_acc, "balance", &[])?, ctx.call(&b_acc, "balance", &[])?))
            })
            .unwrap();
        assert_eq!((a, b), (Value::Int(75), Value::Int(50)));
    }
}

#[test]
fn unpartitioned_in_enclave_has_no_rmi_crossings() {
    let image = build_unpartitioned_image(&bank_program(), &ImageOptions::default()).unwrap();
    let app = SingleWorldApp::launch(&image, Placement::Enclave, no_helpers()).unwrap();
    app.run_main().unwrap();
    let stats = app.telemetry_snapshot();
    // One big ecall for main, no relay traffic.
    assert_eq!(stats.counter(Counter::Ecalls), 1);
    assert_eq!(stats.counter(Counter::Ocalls), 0);
}

#[test]
fn proxy_fields_are_encapsulated() {
    let app = launch_bank(no_helpers());
    let err = app
        .enter_untrusted(|ctx| {
            let acc = ctx.new_object("Account", &[Value::from("X"), Value::Int(1)])?;
            ctx.get_field(&acc, "balance")
        })
        .unwrap_err();
    assert!(matches!(err, VmError::Type(_)), "got {err}");
}

#[test]
fn lost_enclave_surfaces_as_sgx_error() {
    let tp = transform(&bank_program());
    let (trusted, untrusted) =
        build_partitioned_images(&tp, &ImageOptions::default(), &ImageOptions::default()).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        enclave_config: EnclaveConfig {
            fail_after_transitions: Some(3),
            ..EnclaveConfig::default()
        },
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    let err = app
        .enter_untrusted(|ctx| {
            for i in 0..10 {
                ctx.new_object("Account", &[Value::from(format!("a{i}")), Value::Int(1)])?;
            }
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, VmError::Sgx(sgx_sim::SgxError::EnclaveLost)), "got {err}");
}

#[test]
fn arity_mismatch_is_caught_at_the_boundary() {
    let app = launch_bank(no_helpers());
    let err = app
        .enter_untrusted(|ctx| ctx.new_object("Account", &[Value::from("only-one-arg")]))
        .unwrap_err();
    assert!(matches!(err, VmError::Arity { .. }), "got {err}");
}

#[test]
fn neutral_classes_run_locally_in_both_worlds() {
    let app = launch_bank(no_helpers());
    // StringUtil was pruned from both images (unreachable from entry
    // points) — so the *call* fails with UnknownClass, demonstrating
    // the closed-world pruning. Rebuild with an entry point through a
    // reachable path is covered elsewhere; here we check the error.
    let err = app
        .enter_untrusted(|ctx| ctx.call_static("StringUtil", "greet", &[Value::from("bob")]))
        .unwrap_err();
    assert!(matches!(err, VmError::UnknownClass(_)));
}

#[test]
fn trusted_world_heap_traffic_charges_the_enclave() {
    let app = launch_bank(no_helpers());
    let mee_bytes = || app.telemetry().counter(Counter::MeeBytes);
    let mee_before = mee_bytes();
    app.enter_untrusted(|ctx| {
        for i in 0..32 {
            ctx.new_object("Account", &[Value::from(format!("m{i}")), Value::Int(i)])?;
        }
        Ok(())
    })
    .unwrap();
    assert!(mee_bytes() > mee_before, "mirror allocation paid MEE costs");
}
