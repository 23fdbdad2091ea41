//! Mechanism-level Criterion benches: the individual operations the
//! figures are built from, measured in wall time under
//! `ClockMode::Spin` so the cost model is physically realised.
//!
//! These are the ablation benches DESIGN.md calls out: each measures
//! one design choice (crossing cost, serialization, GC copy, registry,
//! store writes, sharding) in isolation.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp, Placement, SingleWorldApp};
use montsalvat_core::image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions,
};
use montsalvat_core::transform::transform;
use runtime_sim::heap::{Heap, HeapConfig};
use runtime_sim::value::{ClassId, Value};
use sgx_sim::cost::{ClockMode, CostModel, CostParams};
use sgx_sim::enclave::{Enclave, EnclaveConfig};

fn spin_app() -> PartitionedApp {
    let tp = transform(&experiments::progs::proxy_bench_program());
    let options = ImageOptions::with_entry_points(experiments::progs::proxy_bench_entries());
    let (trusted, untrusted) =
        build_partitioned_images(&tp, &options, &options).expect("images build");
    let config =
        AppConfig { gc_helper_interval: None, clock_mode: ClockMode::Spin, ..AppConfig::default() };
    PartitionedApp::launch(&trusted, &untrusted, config).expect("launch")
}

fn bench_crossings(c: &mut Criterion) {
    let cost = Arc::new(CostModel::new(CostParams::paper_defaults(), ClockMode::Spin));
    let enclave = Enclave::create(&EnclaveConfig::default(), b"bench", cost).expect("enclave");
    c.bench_function("raw_ecall_transition", |b| {
        b.iter(|| enclave.ecall("bench", 64, || std::hint::black_box(1)).unwrap())
    });
    c.bench_function("raw_ocall_transition", |b| {
        b.iter(|| enclave.ocall("bench", 64, || std::hint::black_box(1)).unwrap())
    });
}

fn bench_proxy_ops(c: &mut Criterion) {
    let app = spin_app();
    c.bench_function("proxy_creation_spin", |b| {
        b.iter(|| {
            app.enter_untrusted(|ctx| ctx.new_object("TObj", &[Value::Int(1)])).unwrap();
        })
    });
    let app2 = spin_app();
    c.bench_function("proxy_rmi_setter_spin", |b| {
        app2.enter_untrusted(|ctx| {
            let obj = ctx.new_object("TObj", &[Value::Int(1)])?;
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                ctx.call(&obj, "set", &[Value::Int(i)]).unwrap();
            });
            Ok(())
        })
        .unwrap();
    });
    let app3 = spin_app();
    c.bench_function("concrete_setter_spin", |b| {
        app3.enter_untrusted(|ctx| {
            let obj = ctx.new_object("UObj", &[Value::Int(1)])?;
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                ctx.call(&obj, "set", &[Value::Int(i)]).unwrap();
            });
            Ok(())
        })
        .unwrap();
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut heap = Heap::new(HeapConfig::default());
    let list = Value::List((0..1000).map(|i| Value::Str(format!("{i:016}"))).collect());
    let obj = heap.alloc(ClassId(1), vec![list]).expect("alloc");
    heap.add_root(obj);
    // Encode into one reused buffer, as a crossing does with its pooled
    // payload buffer.
    let encode = |out: &mut Vec<u8>| {
        out.clear();
        rmi::codec::encode_value_v2(&heap, &Value::Ref(obj), &mut rmi::codec::inline_all, out)
            .unwrap()
    };
    let mut bytes = Vec::new();
    encode(&mut bytes);
    c.bench_function("codec_encode_1000_strings", |b| b.iter(|| encode(&mut bytes)));
    c.bench_function("codec_decode_1000_strings", |b| {
        b.iter_batched(
            || Heap::new(HeapConfig::default()),
            |mut dst| {
                let d = rmi::codec::decode_value(&mut dst, &bytes, &mut rmi::codec::resolve_none)
                    .unwrap();
                std::hint::black_box(d.unpin(&mut dst))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_gc(c: &mut Criterion) {
    c.bench_function("gc_collect_10k_objects", |b| {
        b.iter_batched(
            || {
                let mut heap =
                    Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() });
                for i in 0..10_000 {
                    let id = heap.alloc(ClassId(0), vec![Value::Int(i)]).unwrap();
                    if i % 2 == 0 {
                        heap.add_root(id);
                    }
                }
                heap
            },
            |mut heap| std::hint::black_box(heap.collect()),
            BatchSize::SmallInput,
        )
    });
}

fn bench_kvstore(c: &mut Criterion) {
    let dir = std::env::temp_dir();
    c.bench_function("kvstore_build_1k_records", |b| {
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let path = dir.join(format!("bench_store_{}_{n}.paldb", std::process::id()));
            let mut w = kvstore::StoreWriter::create(&kvstore::Backend::Host, &path).unwrap();
            for i in 0..1000u32 {
                w.put(format!("key{i}").as_bytes(), b"value-payload-0123456789").unwrap();
            }
            w.finalize().unwrap();
            std::fs::remove_file(&path).ok();
        })
    });
}

fn bench_graphchi(c: &mut Criterion) {
    let edges = graphchi::rmat::generate(2000, 10_000, graphchi::rmat::RmatParams::default(), 7);
    c.bench_function("fastsharder_10k_edges", |b| {
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let dir = std::env::temp_dir().join(format!("bench_shard_{}_{n}", std::process::id()));
            let g =
                graphchi::sharder::shard(&graphchi::Backend::Host, &dir, 2000, &edges, 4).unwrap();
            g.cleanup();
            std::fs::remove_dir_all(&dir).ok();
        })
    });
}

/// The kernels whose model costs are counted constants: each row's
/// median is the wall time one constant is derived from (see the
/// constants' doc comments). Runs under `ClockMode::Virtual`, so the
/// constants' own charges add no wall time.
fn bench_kernels(c: &mut Criterion) {
    for w in specjvm::Workload::all() {
        c.bench_function(&format!("kernel_{w}"), |b| b.iter(|| std::hint::black_box(w.run_once())));
    }
    let program = experiments::progs::specjvm_program(specjvm::Workload::Fft);
    let image = build_unpartitioned_image(&program, &ImageOptions::default()).expect("image");
    let config = AppConfig { gc_helper_interval: None, ..AppConfig::default() };
    let app = SingleWorldApp::launch(&image, Placement::Host, config).expect("launch");
    c.bench_function("kernel_compute_1mib_x2", |b| {
        app.enter(|ctx| {
            b.iter(|| ctx.compute(1024 * 1024, 2));
            Ok(())
        })
        .unwrap()
    });
    c.bench_function("io_write_4kib", |b| {
        app.enter(|ctx| {
            b.iter(|| ctx.io_write(4096));
            Ok(())
        })
        .unwrap()
    });
    let path = std::env::temp_dir().join(format!("bench_paldb_{}.paldb", std::process::id()));
    let host = kvstore::Backend::Host;
    c.bench_function("paldb_write_1k_keys", |b| {
        b.iter(|| {
            let mut rng = specjvm::montecarlo::Lcg::new(77);
            let mut w = kvstore::StoreWriter::create(&host, &path).unwrap();
            for _ in 0..1000 {
                let (k, v) = experiments::progs::paldb_pair(&mut rng);
                w.put(k.as_bytes(), v.as_bytes()).unwrap();
            }
            w.finalize().unwrap();
        })
    });
    let reader = kvstore::StoreReader::open(&host, &path).unwrap();
    c.bench_function("paldb_read_1k_keys", |b| {
        b.iter(|| {
            let mut rng = specjvm::montecarlo::Lcg::new(77);
            for _ in 0..1000 {
                let (k, _) = experiments::progs::paldb_pair(&mut rng);
                assert!(reader.get(k.as_bytes()).unwrap().is_some());
            }
        })
    });
    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = mechanisms;
    config = Criterion::default().sample_size(10);
    targets = bench_crossings, bench_proxy_ops, bench_codec, bench_gc,
              bench_kvstore, bench_graphchi, bench_kernels
}
criterion_main!(mechanisms);
