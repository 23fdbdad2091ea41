//! A relay's run arguments are recycled, and every crossing still
//! decodes exactly what was sent.
//!
//! An argument that crosses as an `Int` or `Float` run decodes into a
//! list from the serving thread's run pool, refilled in place, and goes
//! back to that pool once the relay returns or unwinds
//! (`docs/SERDE.md` §"Run decode"). `@Trusted Sink.sum(list)` returns a
//! checksum of the list it received; one app sends it runs that take
//! longer, shorter and other-variant lists from the pool, a run too
//! short to take a long list, an empty list and a list that opens with
//! an `Int` but holds a `Bytes` and a `Str`. Each reply must equal the
//! checksum the sender computed. Over the switchless pool, one relay,
//! `Sink.boom(list)`, panics mid-sequence while it holds a run, and the
//! next call must still decode exactly.

use std::sync::Arc;

use montsalvat::core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::transform;
use montsalvat::core::{Side, Trust, VmError};
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::Counter;

/// FNV-1a over the list's length and each element's kind and payload,
/// so a wrong value, variant, order or length changes the sum.
fn checksum(list: &[Value]) -> i64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
    eat(list.len() as u64);
    for v in list {
        match v {
            Value::Int(i) => {
                eat(1);
                eat(*i as u64);
            }
            Value::Float(x) => {
                eat(2);
                eat(x.to_bits());
            }
            Value::Bytes(b) => {
                eat(3);
                b.iter().for_each(|&b| eat(u64::from(b)));
            }
            Value::Str(s) => {
                eat(4);
                s.bytes().for_each(|b| eat(u64::from(b)));
            }
            other => panic!("the sequence sends no {other:?}"),
        }
    }
    h as i64
}

/// `@Trusted Sink`: `sum(list)` returns the list's checksum and
/// `boom(list)` panics.
fn sink_program() -> Program {
    let sink = ClassDef::new("Sink")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "sum",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| match args.first() {
                Some(Value::List(list)) => Ok(Value::Int(checksum(list))),
                other => Err(VmError::Type(format!("Sink.sum expects a list, got {other:?}"))),
            }),
        ))
        .method(MethodDef::native(
            "boom",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(|_ctx, _this, _args: &[Value]| panic!("Sink.boom fails holding its list")),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![sink, main], MethodRef::new("Main", "main")).unwrap()
}

fn launch(switchless: Option<SwitchlessConfig>) -> PartitionedApp {
    let tp = transform(&sink_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Sink", CTOR),
        MethodRef::new("Sink", "sum"),
        MethodRef::new("Sink", "boom"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig { gc_helper_interval: None, switchless, ..AppConfig::default() };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

/// `n` ints that differ from those of any other `seed`, so a refill
/// that skipped a slot would leave a stale value the checksum sees.
fn ints(n: i64, seed: i64) -> Value {
    Value::List(
        (0..n).map(|i| Value::Int((i * 2_654_435_761 + seed * 40_503) % 1_000_003)).collect(),
    )
}

fn floats(n: u32, seed: u32) -> Value {
    Value::List((0..n).map(|i| Value::Float(f64::from(i) * 0.25 + f64::from(seed))).collect())
}

/// What the sequence sends, in order. Each run after the first takes
/// the list the one before gave back, unless it says otherwise.
fn sends() -> Vec<(&'static str, Value)> {
    vec![
        ("an Int run of 8192", ints(8192, 1)),
        ("an Int run of 4096 (a longer list)", ints(4096, 2)),
        ("an Int run of 8192 (a shorter list)", ints(8192, 3)),
        ("an Int run of 1 (too short for the pooled list)", ints(1, 4)),
        ("a Float run of 4096 (a list of Ints)", floats(4096, 5)),
        ("an Int run of 4096 (a list of Floats)", ints(4096, 6)),
        ("an empty list", Value::List(vec![])),
        (
            "a list that opens with an Int",
            Value::List(vec![Value::Int(7), Value::Bytes(vec![1, 2, 3]), Value::from("run")]),
        ),
        ("an Int run of 8192 again", ints(8192, 7)),
    ]
}

fn trusted_roots(app: &PartitionedApp) -> usize {
    app.shared.world(Side::Trusted).isolate.with_heap(|h| h.root_count())
}

/// Sends the sequence to a fresh sink, with `boom` called before the
/// send at index `boom_before` (when given), and checks every reply and
/// the trusted roots afterwards.
fn run_sequence(app: &PartitionedApp, boom_before: Option<usize>) {
    app.enter_untrusted(|ctx| {
        let sink = ctx.new_object("Sink", &[])?;
        let roots = trusted_roots(app);
        for (i, (what, list)) in sends().into_iter().enumerate() {
            if boom_before == Some(i) {
                match ctx.call(&sink, "boom", &[floats(4096, 9)]) {
                    Err(VmError::App(m)) => {
                        assert_eq!(m, "switchless relay Sink.relay$boom panicked")
                    }
                    other => panic!("expected the typed panic error, got {other:?}"),
                }
            }
            let Value::List(sent) = &list else { unreachable!("every send is a list") };
            let want = checksum(sent);
            let got = ctx.call(&sink, "sum", std::slice::from_ref(&list))?;
            assert_eq!(got, Value::Int(want), "{what}: the sink decoded what was sent");
        }
        assert_eq!(trusted_roots(app), roots, "trusted roots are back at their baseline");
        Ok(())
    })
    .unwrap();
}

#[test]
fn recycled_runs_decode_exactly_over_classic_crossings() {
    let app = launch(None);
    run_sequence(&app, None);
    let calls = app.telemetry().counter(Counter::RmiCalls);
    assert_eq!(calls, 1 + sends().len() as u64, "the constructor and every send crossed");
    app.shutdown();
}

#[test]
fn recycled_runs_decode_exactly_over_the_pool_across_a_panicking_relay() {
    let app = launch(Some(SwitchlessConfig::fixed(1)));
    // `boom` takes the list the Float run of 4096 gave back and unwinds
    // holding it; the list goes back to the worker's pool, and the Int
    // run of 4096 after it takes the list again.
    run_sequence(&app, Some(5));
    let recorder = app.telemetry();
    let calls = recorder.counter(Counter::RmiCalls);
    let hits = recorder.counter(Counter::SwitchlessCalls);
    let fallbacks = recorder.counter(Counter::SwitchlessFallbacks);
    assert_eq!(calls, 2 + sends().len() as u64, "the constructor, boom and every send crossed");
    assert_eq!(calls, hits + fallbacks, "rmi.calls == hits + fallbacks");
    app.shutdown();
}
