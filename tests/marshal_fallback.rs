//! Marshal's path for arguments that hold references. Marshal first
//! encodes under a policy that refuses every reference; a refusal sends
//! the whole argument list through the export walk and a second encode
//! (`docs/SERDE.md` §"Marshal").
//!
//! The first call here carries a reference behind a top-level 4096-int
//! bulk run, so the first encode has written the run when it meets the
//! reference, and the second encode must start from an empty payload.
//! The second call passes a neutral object whose 4096-int field comes
//! before an annotated field; the first encode refuses at the object
//! itself, because it never inlines an object the export walk has not
//! classified. The wire bytes, bulk bytes and proxies each call moves
//! are pinned to the counts measured when marshal still scanned the
//! arguments for references before encoding.

use std::sync::Arc;

use montsalvat::core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::transform;
use montsalvat::core::{Trust, VmError};
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::{Counter, Snapshot};

const RUN: i64 = 4096;

/// The sum `Sink` reports for the run `0..RUN`.
const RUN_SUM: i64 = RUN * (RUN - 1) / 2;

fn sum_ints(v: &Value) -> Result<i64, VmError> {
    let ints = v.as_list().ok_or_else(|| VmError::Type("expected an int list".into()))?;
    ints.iter().map(|i| i.as_int().ok_or_else(|| VmError::Type("expected an int".into()))).sum()
}

/// A trusted `Sink` that replies `[sum of the ints, the reference]`:
/// `take(ints, ref)` from its two arguments, `open(batch)` from the
/// fields of a neutral `Batch`, whose int-list field `edges` comes
/// before its annotated field `owner`. `Note` is an untrusted class, so
/// a note crossing in is exported; `Tag` is trusted, so a tag crosses
/// in as the hash of its mirror.
fn program() -> Program {
    let empty_ctor = || MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]);
    let sink = ClassDef::new("Sink")
        .trust(Trust::Trusted)
        .method(empty_ctor())
        .method(MethodDef::native(
            "take",
            MethodKind::Instance,
            2,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| {
                Ok(Value::List(vec![Value::Int(sum_ints(&args[0])?), args[1].clone()]))
            }),
        ))
        .method(MethodDef::native(
            "open",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(|ctx, _this, args: &[Value]| {
                let edges = ctx.get_field(&args[0], "edges")?;
                let owner = ctx.get_field(&args[0], "owner")?;
                Ok(Value::List(vec![Value::Int(sum_ints(&edges)?), owner]))
            }),
        ));
    let batch = ClassDef::new("Batch").field("edges").field("owner").method(empty_ctor());
    let note = ClassDef::new("Note").trust(Trust::Untrusted).method(empty_ctor());
    let tag = ClassDef::new("Tag").trust(Trust::Trusted).method(empty_ctor());
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![sink, batch, note, tag, main], MethodRef::new("Main", "main")).unwrap()
}

fn launch() -> PartitionedApp {
    let tp = transform(&program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Sink", CTOR),
        MethodRef::new("Sink", "take"),
        MethodRef::new("Sink", "open"),
        MethodRef::new("Batch", CTOR),
        MethodRef::new("Note", CTOR),
        MethodRef::new("Tag", CTOR),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig { gc_helper_interval: None, switchless: None, ..AppConfig::default() };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

/// The counters one call moved: wire payload bytes, bulk bytes and
/// proxies created.
fn moved(before: &Snapshot, after: &Snapshot) -> [u64; 3] {
    [Counter::BytesSerialized, Counter::SerdeBulkBytes, Counter::ProxiesCreated]
        .map(|c| after.counter(c) - before.counter(c))
}

#[test]
fn references_behind_a_bulk_run_cross_by_the_export_walk() {
    let app = launch();
    let run = Value::List((0..RUN).map(Value::Int).collect());
    let [took, opened] = app
        .enter_untrusted(|ctx| {
            let sink = ctx.new_object("Sink", &[])?;

            // An exported note behind a top-level bulk run: the enclave
            // makes a proxy for it, and the reply brings back the note.
            let note = ctx.new_object("Note", &[])?;
            let before = app.telemetry_snapshot();
            let reply = ctx.call(&sink, "take", &[run.clone(), note.clone()])?;
            assert_eq!(reply, Value::List(vec![Value::Int(RUN_SUM), note]));
            let took = moved(&before, &app.telemetry_snapshot());

            // A tag behind a bulk field of an inlined neutral object:
            // it resolves to its mirror inside, and to the same proxy
            // again outside.
            let tag = ctx.new_object("Tag", &[])?;
            let batch = ctx.new_object("Batch", &[])?;
            ctx.set_field(&batch, "edges", run.clone())?;
            ctx.set_field(&batch, "owner", tag.clone())?;
            let before = app.telemetry_snapshot();
            let reply = ctx.call(&sink, "open", &[batch])?;
            assert_eq!(reply, Value::List(vec![Value::Int(RUN_SUM), tag]));
            let opened = moved(&before, &app.telemetry_snapshot());
            Ok([took, opened])
        })
        .unwrap();

    let snap = app.telemetry_snapshot();
    app.shutdown();
    assert_eq!(
        snap.counter(Counter::SerdeEncodeCalls),
        snap.counter(Counter::SerdeFastPathHits),
        "every encode is counted once"
    );
    // [bytes serialized, bulk bytes, proxies created]
    assert_eq!(took, [32796, 32768, 1], "take([4096 ints, note])");
    assert_eq!(opened, [32805, 32768, 0], "open(batch)");
}
