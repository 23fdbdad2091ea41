//! Relay resolution failure: a proxy method whose relay is missing from
//! the opposite image fails its crossing with a typed interface
//! mismatch that names the method's EDL edge routine, on classic
//! crossings and on the default switchless pool alike. The failed call
//! roots, registers and exports nothing, crosses nothing and counts no
//! crossing; the proxy's other methods keep working.

use std::sync::Arc;

use montsalvat::core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::{relay_name, transform};
use montsalvat::core::{Side, Trust, VmError};
use montsalvat::runtime::value::Value;
use montsalvat::sgx::SgxError;
use montsalvat::telemetry::Counter;

/// `@Trusted Vault` with two int methods, `get` and `drop`.
fn vault_program() -> Program {
    let int_method = |name: &str| {
        MethodDef::native(
            name,
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| Ok(args[0].clone())),
        )
    };
    let vault = ClassDef::new("Vault")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(int_method("get"))
        .method(int_method("drop"));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![vault, main], MethodRef::new("Main", "main")).unwrap()
}

/// Every count a failed crossing must leave as it found it. Counters
/// only grow, so an unchanged total means unchanged per-side counts.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    roots: [usize; 2],
    registry: [usize; 2],
    live_proxies: [usize; 2],
    proxies_created: u64,
    rmi_calls: u64,
    transitions: u64,
}

fn counts(app: &PartitionedApp) -> Counts {
    let both = |f: &dyn Fn(Side) -> usize| [f(Side::Trusted), f(Side::Untrusted)];
    let transitions =
        app.telemetry().counter(Counter::Ecalls) + app.telemetry().counter(Counter::Ocalls);
    Counts {
        roots: both(&|side| app.shared.world(side).isolate.with_heap(|h| h.root_count())),
        registry: both(&|side| app.registry_len(side)),
        live_proxies: both(&|side| app.live_proxy_count(side)),
        proxies_created: app.telemetry().counter(Counter::ProxiesCreated),
        rmi_calls: app.telemetry().counter(Counter::RmiCalls),
        transitions,
    }
}

/// Launches the vault with `Vault.drop`'s relay removed from the
/// trusted image, calls `drop` on a live proxy and checks the failure.
/// Returns the app's `(rmi.calls, switchless hits, fallbacks)`.
fn a_missing_relay_fails_typed(switchless: Option<SwitchlessConfig>) -> (u64, u64, u64) {
    let tp = transform(&vault_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Vault", CTOR),
        MethodRef::new("Vault", "get"),
        MethodRef::new("Vault", "drop"),
        MethodRef::new("Main", "main"),
    ]);
    let (mut trusted, untrusted) = build_partitioned_images(&tp, &options, &options).unwrap();
    let vault = trusted.classes.iter_mut().find(|c| c.name == "Vault").unwrap();
    let before = vault.methods.len();
    vault.methods.retain(|m| m.name != relay_name("drop"));
    assert_eq!(vault.methods.len(), before - 1, "the trusted image had the relay");

    let config = AppConfig { gc_helper_interval: None, switchless, ..AppConfig::default() };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    app.enter_untrusted(|ctx| {
        let vault = ctx.new_object("Vault", &[])?;
        assert_eq!(ctx.call(&vault, "get", &[Value::Int(7)])?, Value::Int(7));
        let baseline = counts(&app);
        for _ in 0..2 {
            // Not cached: the second call fails the same way.
            match ctx.call(&vault, "drop", &[Value::Int(7)]) {
                Err(VmError::Sgx(SgxError::InterfaceMismatch { routine })) => {
                    assert_eq!(routine, "ecall_relay_Vault_drop");
                    assert!(tp.edl.contains(&routine), "the EDL declares `{routine}`");
                }
                other => panic!("expected an interface mismatch, got {other:?}"),
            }
            assert_eq!(counts(&app), baseline, "the failed call changed nothing");
        }
        assert_eq!(ctx.call(&vault, "get", &[Value::Int(8)])?, Value::Int(8));
        Ok(())
    })
    .unwrap();
    let recorder = app.telemetry();
    let calls = (
        recorder.counter(Counter::RmiCalls),
        recorder.counter(Counter::SwitchlessCalls),
        recorder.counter(Counter::SwitchlessFallbacks),
    );
    app.shutdown();
    calls
}

#[test]
fn a_missing_relay_is_a_typed_interface_mismatch_on_classic_crossings() {
    let (calls, hits, fallbacks) = a_missing_relay_fails_typed(None);
    assert_eq!(calls, 3, "the constructor and both gets crossed");
    assert_eq!(hits + fallbacks, 0, "classic crossings never touch the pool");
}

#[test]
fn a_missing_relay_is_a_typed_interface_mismatch_on_the_switchless_pool() {
    let (calls, hits, fallbacks) = a_missing_relay_fails_typed(Some(SwitchlessConfig::default()));
    assert_eq!(calls, 3, "the constructor and both gets crossed");
    assert_eq!(calls, hits + fallbacks, "rmi.calls == hits + fallbacks");
}
