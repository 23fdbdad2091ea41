//! GC consistency between proxies and mirrors (§5.5): after a GC-helper
//! sync, the enclave holds exactly one mirror per live untrusted proxy,
//! and every proxy the untrusted side holds still reaches its mirror.
//!
//! The hard case is a proxy re-imported under the same hash after its
//! predecessor was collected but before the helper scanned it. An
//! `@Trusted TBox` "keeper" stores a second box, "inner"; the untrusted
//! side drops its proxy of inner and collects, then `keeper.get()` hands
//! inner back under the same hash. The scan must not release the mirror
//! the new proxy uses.

use montsalvat::core::class::{
    ClassDef, Instr, MethodDef, MethodKind, MethodRef, Operand, Program, CTOR,
};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::transform;
use montsalvat::core::{Ctx, Side, Trust, VmError};
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::Counter;
use proptest::prelude::*;

/// `@Trusted TBox { item }` with `put(x)` storing `x` and `get()`
/// returning it.
fn tbox_program() -> Program {
    let tbox = ClassDef::new("TBox")
        .trust(Trust::Trusted)
        .field("item")
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::interpreted(
            "put",
            MethodKind::Instance,
            1,
            1,
            vec![
                Instr::SetField {
                    recv: Operand::This,
                    field: "item".into(),
                    value: Operand::Local(0),
                },
                Instr::Return { value: None },
            ],
        ))
        .method(MethodDef::interpreted(
            "get",
            MethodKind::Instance,
            0,
            1,
            vec![
                Instr::GetField { dst: 0, recv: Operand::This, field: "item".into() },
                Instr::Return { value: Some(Operand::Local(0)) },
            ],
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![tbox, main], MethodRef::new("Main", "main")).unwrap()
}

/// Launches the box program with no GC helper thread (the tests sync
/// by hand), on classic crossings or over `switchless`.
fn launch(switchless: Option<SwitchlessConfig>) -> PartitionedApp {
    let tp = transform(&tbox_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("TBox", CTOR),
        MethodRef::new("TBox", "put"),
        MethodRef::new("TBox", "get"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig { gc_helper_interval: None, switchless, ..AppConfig::default() };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

#[test]
fn a_proxy_reimported_before_the_helper_scan_keeps_its_mirror() {
    let app = launch(None);
    app.enter_untrusted(|ctx| {
        let keeper = ctx.new_object("TBox", &[])?;
        let inner = ctx.new_object("TBox", &[])?;
        ctx.call(&inner, "put", &[Value::Int(7)])?;
        ctx.call(&keeper, "put", std::slice::from_ref(&inner))?;
        ctx.forget(&inner);
        ctx.collect_garbage();
        let first = inner.as_ref_id().unwrap();
        assert!(!ctx.with_heap(|h| h.is_live(first)), "the first proxy of inner is collected");

        // Inner comes back under its old hash before any helper scan.
        let again = ctx.call(&keeper, "get", &[])?;
        assert_ne!(again, inner, "a fresh proxy replaces the collected one");
        let first_sync = app.gc_sync_once()?;
        let mirrors = app.registry_len(Side::Trusted);
        let got = ctx.call(&again, "get", &[]);
        assert!(matches!(got, Ok(Value::Int(7))), "call through the re-imported proxy: {got:?}");
        assert_eq!(first_sync, (0, 0), "the collected predecessor releases nothing");
        assert_eq!(mirrors, 2, "keeper and inner stay registered");

        ctx.forget(&again);
        ctx.collect_garbage();
        assert_eq!(app.gc_sync_once()?, (1, 0), "dropping the live proxy releases inner");
        assert_eq!(app.registry_len(Side::Trusted), 1);
        Ok(())
    })
    .unwrap();
    let recorder = app.telemetry();
    assert_eq!(recorder.counter(Counter::MirrorsReleased), 1);
    assert_eq!(recorder.counter(Counter::WeakDeadFound), 1);
    app.shutdown();
}

/// One step of a random interleaving over the boxes the untrusted side
/// holds. Indices pick a held box modulo the number held.
#[derive(Debug, Clone)]
enum Op {
    /// Construct a box and hold its proxy.
    New,
    /// `held[into].put(held[from])`: the enclave keeps a reference.
    Store { into: u8, from: u8 },
    /// `held[from].get()`, holding the result if it is a box not held
    /// yet.
    Load { from: u8 },
    /// Stop holding a proxy.
    Drop { idx: u8 },
    /// Collect the untrusted heap.
    Collect,
    /// Run one GC-helper sync, then check the invariants.
    Sync,
}

/// Collections make up 3 of every 12 ops, so proxies often die and are
/// re-imported between two syncs. Each box is held at most once, so
/// dropping it forgets its proxy.
fn op_strategy() -> impl Strategy<Value = Op> {
    let store = || (any::<u8>(), any::<u8>()).prop_map(|(into, from)| Op::Store { into, from });
    let load = || any::<u8>().prop_map(|from| Op::Load { from });
    let drop = || any::<u8>().prop_map(|idx| Op::Drop { idx });
    prop_oneof![
        Just(Op::New),
        Just(Op::New),
        store(),
        store(),
        load(),
        load(),
        drop(),
        drop(),
        Just(Op::Collect),
        Just(Op::Collect),
        Just(Op::Collect),
        Just(Op::Sync),
    ]
}

/// After a sync: one enclave mirror per live untrusted proxy, and every
/// held proxy answers `get` (whose result is not kept).
fn check(app: &PartitionedApp, ctx: &mut Ctx<'_>, held: &[Value]) -> Result<(), String> {
    let mirrors = app.registry_len(Side::Trusted);
    let proxies = app.live_proxy_count(Side::Untrusted);
    if mirrors != proxies {
        return Err(format!("{mirrors} trusted mirrors for {proxies} live untrusted proxies"));
    }
    for (i, proxy) in held.iter().enumerate() {
        let got = ctx.call(proxy, "get", &[]).map_err(|e| format!("held proxy {i}: {e:?}"))?;
        ctx.forget(&got);
    }
    Ok(())
}

/// Replays `ops` in one untrusted frame, checking after every sync and
/// once more after a final sync.
fn replay(app: &PartitionedApp, ctx: &mut Ctx<'_>, ops: &[Op]) -> Result<(), String> {
    let pick = |held: &[Value], i: u8| held[i as usize % held.len()].clone();
    let mut held: Vec<Value> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let fail = |e: VmError| format!("op {step} {op:?}: {e:?}");
        match *op {
            Op::New => held.push(ctx.new_object("TBox", &[]).map_err(fail)?),
            Op::Store { into, from } if !held.is_empty() => {
                let (into, from) = (pick(&held, into), pick(&held, from));
                ctx.call(&into, "put", &[from]).map_err(fail)?;
            }
            Op::Load { from } if !held.is_empty() => {
                let got = ctx.call(&pick(&held, from), "get", &[]).map_err(fail)?;
                if got.as_ref_id().is_some() && !held.contains(&got) {
                    held.push(got);
                } else {
                    ctx.forget(&got);
                }
            }
            Op::Drop { idx } if !held.is_empty() => {
                let proxy = held.swap_remove(idx as usize % held.len());
                ctx.forget(&proxy);
            }
            Op::Collect => {
                ctx.collect_garbage();
            }
            Op::Sync => {
                app.gc_sync_once().map_err(fail)?;
                check(app, ctx, &held).map_err(|e| format!("after op {step}: {e}"))?;
            }
            _ => {}
        }
    }
    app.gc_sync_once().map_err(|e| format!("final sync: {e:?}"))?;
    check(app, ctx, &held).map_err(|e| format!("at the end: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each interleaving runs on classic crossings and over a one-worker
    /// switchless pool.
    #[test]
    fn mirrors_match_live_proxies_under_random_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..96)
    ) {
        for switchless in [None, Some(SwitchlessConfig::fixed(1))] {
            let engine = if switchless.is_some() { "switchless" } else { "classic" };
            let app = launch(switchless);
            let outcome = app.enter_untrusted(|ctx| Ok(replay(&app, ctx, &ops))).unwrap();
            app.shutdown();
            prop_assert!(outcome.is_ok(), "{}: {}", engine, outcome.unwrap_err());
        }
    }
}
