//! Tracing overhead on the RMI call path: the same classic crossing
//! with the tracer disabled vs enabled.
//!
//! Runs under `ClockMode::Virtual` so wall-clock measures the real
//! instrumentation work (ring reservation, event construction, name
//! formatting), not the modelled charges. The enabled case clears the
//! ring between Criterion batches so every measured call pays a live
//! push, never the cheaper ring-full drop path. Headline numbers are
//! recorded in `docs/TRACING.md`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use runtime_sim::value::Value;
use sgx_sim::cost::ClockMode;
use telemetry::trace::{Lane, Tracer};

fn launch(tracer: Option<Arc<Tracer>>) -> PartitionedApp {
    let tp = transform(&experiments::progs::proxy_bench_program());
    let options = ImageOptions::with_entry_points(experiments::progs::proxy_bench_entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images");
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        trace: tracer,
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).expect("launch")
}

fn bench_trace_overhead(c: &mut Criterion) {
    // Disabled: the app's private tracer never gets enabled, so every
    // instrumentation point takes the None fast path (no allocation,
    // no name formatting).
    let disabled = launch(Some(Tracer::new()));
    c.bench_function("rmi_call_x100_trace_disabled", |b| {
        disabled
            .enter_untrusted(|ctx| {
                let obj = ctx.new_object("TObj", &[Value::Int(0)])?;
                let mut i = 0i64;
                b.iter(|| {
                    for _ in 0..100 {
                        i += 1;
                        ctx.call(&obj, "set", &[Value::Int(i)]).unwrap();
                    }
                });
                Ok(())
            })
            .unwrap();
    });
    disabled.shutdown();

    let tracer = Tracer::new();
    tracer.enable_with_capacity(65_536);
    let enabled = launch(Some(Arc::clone(&tracer)));
    c.bench_function("rmi_call_x100_trace_enabled", |b| {
        enabled
            .enter_untrusted(|ctx| {
                let obj = ctx.new_object("TObj", &[Value::Int(0)])?;
                let mut i = 0i64;
                b.iter_batched(
                    || tracer.clear(),
                    |()| {
                        for _ in 0..100 {
                            i += 1;
                            ctx.call(&obj, "set", &[Value::Int(i)]).unwrap();
                        }
                    },
                    BatchSize::PerIteration,
                );
                Ok(())
            })
            .unwrap();
    });
    enabled.shutdown();

    // The raw cost of one skipped instrumentation point, isolating the
    // disabled fast path the call benches amortise over a whole
    // crossing.
    let off = Tracer::new();
    c.bench_function("trace_span_disabled", |b| {
        b.iter(|| {
            assert!(off
                .span(Lane::Trusted, "bench", None, || 0, || unreachable!("disabled never names"))
                .is_none());
        });
    });
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
