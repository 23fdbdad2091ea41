//! A secure key-value store, partitioned two ways (the paper's PalDB
//! scenario, §6.5): compare `RTWU` (reader trusted / writer untrusted)
//! against `RUWT`, watching the crossing counters explain the
//! performance difference.
//!
//! ```sh
//! cargo run --release --example secure_kvstore
//! ```

use std::sync::Arc;

use montsalvat::core::annotation::{Side, Trust};
use montsalvat::core::class::{ClassDef, Instr, MethodDef, MethodKind, MethodRef, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::transform;
use montsalvat::core::VmError;
use montsalvat::kvstore::{StoreReader, StoreWriter};
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::Counter;

/// Builds the partitioned KV application with the given annotations.
fn kv_program(reader_trust: Trust, writer_trust: Trust) -> montsalvat::core::Program {
    let writer_body: montsalvat::core::class::NativeFn = Arc::new(|ctx, _this, args| {
        let path = args[0].as_str().expect("path").to_owned();
        let n = args[1].as_int().expect("count");
        let backend = ctx.io_backend();
        let mut writer =
            StoreWriter::create(&backend, &path).map_err(|e| VmError::App(e.to_string()))?;
        for i in 0..n {
            writer
                .put(format!("user:{i}").as_bytes(), format!("profile-{i:06}").as_bytes())
                .map_err(|e| VmError::App(e.to_string()))?;
        }
        writer.finalize().map_err(|e| VmError::App(e.to_string()))?;
        Ok(Value::Int(n))
    });
    let reader_body: montsalvat::core::class::NativeFn = Arc::new(|ctx, _this, args| {
        let path = args[0].as_str().expect("path").to_owned();
        let n = args[1].as_int().expect("count");
        let backend = ctx.io_backend();
        let reader = StoreReader::open(&backend, &path).map_err(|e| VmError::App(e.to_string()))?;
        let mut hits = 0i64;
        for i in 0..n {
            if reader
                .get(format!("user:{i}").as_bytes())
                .map_err(|e| VmError::App(e.to_string()))?
                .is_some()
            {
                hits += 1;
            }
        }
        Ok(Value::Int(hits))
    });

    let writer = ClassDef::new("DBWriter")
        .trust(writer_trust)
        .method(MethodDef::interpreted(
            CTOR,
            MethodKind::Constructor,
            0,
            0,
            vec![Instr::Return { value: None }],
        ))
        .method(MethodDef::native("write", MethodKind::Instance, 2, vec![], writer_body));
    let reader = ClassDef::new("DBReader")
        .trust(reader_trust)
        .method(MethodDef::interpreted(
            CTOR,
            MethodKind::Constructor,
            0,
            0,
            vec![Instr::Return { value: None }],
        ))
        .method(MethodDef::native("read", MethodKind::Instance, 2, vec![], reader_body));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![Instr::Return { value: None }],
    ));
    montsalvat::core::Program::new(vec![writer, reader, main], MethodRef::new("Main", "main"))
        .expect("program is well-formed")
}

fn run_scheme(name: &str, reader_trust: Trust, writer_trust: Trust, n: i64) {
    let tp = transform(&kv_program(reader_trust, writer_trust));
    let entries = vec![
        MethodRef::new("DBWriter", CTOR),
        MethodRef::new("DBWriter", "write"),
        MethodRef::new("DBReader", CTOR),
        MethodRef::new("DBReader", "read"),
    ];
    let options = ImageOptions::with_entry_points(entries);
    let (trusted, untrusted) =
        build_partitioned_images(&tp, &options, &options).expect("images build");
    let app =
        PartitionedApp::launch(&trusted, &untrusted, AppConfig::default()).expect("launch kv app");

    let path = std::env::temp_dir().join(format!("secure_kv_{name}_{}.store", std::process::id()));
    let path_str = path.to_string_lossy().into_owned();
    let cost = Arc::clone(&app.shared.cost);
    let start = cost.charged();
    let hits = app
        .enter_untrusted(|ctx| {
            let w = ctx.new_object("DBWriter", &[])?;
            ctx.call(&w, "write", &[Value::from(path_str.as_str()), Value::Int(n)])?;
            let r = ctx.new_object("DBReader", &[])?;
            ctx.call(&r, "read", &[Value::from(path_str.as_str()), Value::Int(n)])
        })
        .expect("kv app runs");
    let elapsed = cost.charged() - start;

    let stats = app.telemetry_snapshot();
    println!(
        "{name}: {n} keys written+read ({} hits) in {:.6} model s | ecalls {}, ocalls {} \
         (write-induced crossings {})",
        hits.as_int().unwrap_or(0),
        elapsed.as_secs_f64(),
        stats.counter(Counter::Ecalls),
        stats.counter(Counter::Ocalls),
        if writer_trust == Trust::Trusted { "inside -> ocall per record" } else { "none" },
    );
    println!(
        "   trusted mirrors: {}, proxies created: {}",
        app.registry_len(Side::Trusted),
        app.telemetry().counter(Counter::ProxiesCreated)
    );
    std::fs::remove_file(&path).ok();
}

fn main() {
    let n = 5_000;
    println!("partitioned secure KV store, {n} records\n");
    run_scheme("RTWU (reader trusted, writer untrusted)", Trust::Trusted, Trust::Untrusted, n);
    run_scheme("RUWT (reader untrusted, writer trusted)", Trust::Untrusted, Trust::Trusted, n);
    println!("\nRTWU avoids one ocall per written record — the paper's §6.5 result.");
}
