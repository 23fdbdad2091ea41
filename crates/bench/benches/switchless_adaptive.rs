//! Bench: the adaptive switchless engine under bursty concurrent load,
//! against a fixed two-worker pool and classic crossings.
//!
//! Each iteration is one *burst*: several caller threads fire a volley
//! of proxy calls at once, then go quiet — the access pattern the
//! adaptive engine is built for (scale up under the burst, park and
//! retire afterwards). Runs under `ClockMode::Spin` so Criterion's
//! wall-clock measurement observes the cost model.
//!
//! Set `MONTSALVAT_BENCH_QUICK=1` (as CI's bench-smoke job does) to
//! shrink samples and burst sizes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use runtime_sim::value::Value;
use sgx_sim::cost::ClockMode;

fn quick() -> bool {
    std::env::var("MONTSALVAT_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn launch(switchless: Option<SwitchlessConfig>) -> Arc<PartitionedApp> {
    let tp = transform(&experiments::progs::proxy_bench_program());
    let options = ImageOptions::with_entry_points(experiments::progs::proxy_bench_entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images");
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Spin,
        switchless,
        ..AppConfig::default()
    };
    Arc::new(PartitionedApp::launch(&t, &u, config).expect("launch"))
}

/// One burst: `threads` callers each perform `calls` proxy calls.
fn burst(app: &Arc<PartitionedApp>, threads: usize, calls: i64) {
    let mut handles = Vec::with_capacity(threads);
    for _ in 0..threads {
        let app = Arc::clone(app);
        handles.push(std::thread::spawn(move || {
            app.enter_untrusted(|ctx| {
                let obj = ctx.new_object("TObj", &[Value::Int(0)])?;
                for i in 0..calls {
                    ctx.call(&obj, "set", &[Value::Int(i)])?;
                }
                Ok(())
            })
            .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

fn bench_bursty_modes(c: &mut Criterion) {
    let (threads, calls) = if quick() { (4, 4) } else { (8, 16) };

    let classic = launch(None);
    c.bench_function("burst_classic", |b| b.iter(|| burst(&classic, threads, calls)));
    classic_shutdown(classic);

    let fixed = launch(Some(SwitchlessConfig::fixed(2)));
    c.bench_function("burst_switchless_fixed2", |b| b.iter(|| burst(&fixed, threads, calls)));

    let adaptive = launch(Some(SwitchlessConfig {
        min_workers: 1,
        max_workers: 8,
        ..SwitchlessConfig::default()
    }));
    c.bench_function("burst_switchless_adaptive", |b| b.iter(|| burst(&adaptive, threads, calls)));
}

fn classic_shutdown(app: Arc<PartitionedApp>) {
    if let Ok(app) = Arc::try_unwrap(app) {
        app.shutdown();
    }
}

criterion_group! {
    name = switchless_adaptive;
    config = Criterion::default().sample_size(if quick() { 10 } else { 20 });
    targets = bench_bursty_modes
}
criterion_main!(switchless_adaptive);
