//! A lone caller never grows the switchless pool.
//!
//! One untrusted thread makes sequential calls to `@Trusted TNest.ping`,
//! whose body crosses back out twice (it constructs an `@Untrusted UObj`
//! and reads it back). With one caller there is never a second post in
//! flight on either side, so every post must find its side's worker
//! idle: no miss, no scale-up, one worker per side at the peak, and
//! every crossing a switchless hit.

#[path = "common/nested.rs"]
mod nested;

use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::core::image_builder::build_partitioned_images;
use montsalvat::core::transform::transform;
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::{Counter, Gauge};

const CALLS: i64 = 500;

#[test]
fn a_lone_caller_never_misses_and_never_grows_the_pool() {
    let tp = transform(&nested::nested_program());
    let options = nested::nested_options();
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let config = AppConfig {
        gc_helper_interval: None,
        switchless: Some(SwitchlessConfig::default()),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&t, &u, config).expect("launch");
    app.enter_untrusted(|ctx| {
        let obj = ctx.new_object("TNest", &[])?;
        for x in 0..CALLS {
            assert_eq!(ctx.call(&obj, "ping", &[Value::Int(x)])?, Value::Int(x));
        }
        Ok(())
    })
    .expect("the caller runs");

    let snap = app.telemetry_snapshot();
    app.shutdown();
    let calls = snap.counter(Counter::RmiCalls);
    let hits = snap.counter(Counter::SwitchlessCalls);
    let fallbacks = snap.counter(Counter::SwitchlessFallbacks);
    assert_eq!(calls, 1 + 3 * CALLS as u64, "the constructor, then an ecall and two ocalls a ping");
    assert_eq!(calls, hits + fallbacks, "rmi.calls == hits + fallbacks");
    assert_eq!(fallbacks, 0, "an idle pool never falls back");
    assert_eq!(snap.counter(Counter::SwitchlessMisses), 0, "every post found its worker idle");
    assert_eq!(snap.counter(Counter::SwitchlessScaleUps), 0, "the pool never grew");
    assert_eq!(snap.gauge(Gauge::SwitchlessWorkersPeak), 1, "one worker per side at the peak");
}
