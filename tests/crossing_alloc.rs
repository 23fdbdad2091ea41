//! Allocation count of one whole classic crossing.
//!
//! Installs a counting global allocator and measures heap allocations
//! per steady-state proxy call with a primitive argument: the proxy
//! dispatch, marshal, transition, relay dispatch, the relay body,
//! and the return-value unmarshal. Crossings resolve their relay once
//! and read no clock while tracing is off, so nothing on this path
//! formats a routine name or looks a relay up by name.
//!
//! This file deliberately contains a single `#[test]` so no sibling
//! test thread allocates while the window is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use montsalvat::core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::transform::transform;
use montsalvat::core::Trust;
use montsalvat::runtime::value::Value;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations one steady-state crossing makes (the count measured
/// when this bound was set, in debug and release alike).
const ALLOCS_PER_CROSSING: u64 = 2;

/// A trusted counter whose `add` takes and returns an int.
fn counter_program() -> Program {
    let counter = ClassDef::new("Counter")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "add",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| match args[0] {
                Value::Int(n) => Ok(Value::Int(n + 1)),
                ref other => Ok(other.clone()),
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![counter, main], MethodRef::new("Main", "main")).unwrap()
}

fn launch() -> PartitionedApp {
    let tp = transform(&counter_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Counter", CTOR),
        MethodRef::new("Counter", "add"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig {
        // No helper/worker threads: the measured window must only see
        // this thread's crossings.
        gc_helper_interval: None,
        switchless: None,
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

#[test]
fn a_steady_state_classic_crossing_allocates_a_pinned_count() {
    const ROUNDS: u64 = 64;
    let app = launch();
    let allocs = app
        .enter_untrusted(|ctx| {
            let counter = ctx.new_object("Counter", &[])?;
            // Warm up: resolve the crossing, fill the buffer pool, grow
            // the managed heaps.
            for i in 0..32 {
                ctx.call(&counter, "add", &[Value::Int(i)])?;
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            for i in 0..ROUNDS as i64 {
                ctx.call(&counter, "add", &[Value::Int(i)])?;
            }
            Ok(ALLOCS.load(Ordering::Relaxed) - before)
        })
        .unwrap();
    app.shutdown();

    assert!(
        allocs <= ALLOCS_PER_CROSSING * ROUNDS,
        "at most {ALLOCS_PER_CROSSING} allocations per steady-state crossing: \
         {allocs} over {ROUNDS} crossings"
    );
}
