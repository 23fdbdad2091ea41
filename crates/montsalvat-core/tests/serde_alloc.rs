//! Allocation-count regression test for boundary serde.
//!
//! Installs a counting global allocator and measures heap allocations
//! per steady-state crossing on the kvstore-write shape (a bulk byte
//! payload into a trusted sink). Pooled encode buffers, no staging
//! copies of the arguments, and interned hint names keep a crossing at
//! [`MAX_ALLOCS_PER_CROSSING`] or fewer.
//!
//! This file deliberately contains a single `#[test]` so no sibling
//! test thread allocates while the window is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use montsalvat_core::Trust;
use runtime_sim::value::Value;

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

fn sink_program() -> Program {
    let sink = ClassDef::new("Sink")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            1,
            vec![],
            std::sync::Arc::new(|_ctx, _this, args: &[Value]| match &args[0] {
                Value::Bytes(b) => Ok(Value::Int(b.len() as i64)),
                other => Ok(other.clone()),
            }),
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

/// Heap allocations one steady-state crossing may make (the count
/// measured when this bound was set, in debug and release alike).
const MAX_ALLOCS_PER_CROSSING: u64 = 8;

fn launch() -> PartitionedApp {
    let tp = transform(&sink_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Sink", CTOR),
        MethodRef::new("Sink", "put"),
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

/// Allocations across `rounds` steady-state `put` crossings.
fn allocs_per_window(app: &PartitionedApp, payload: &[Value], rounds: usize) -> u64 {
    app.enter_untrusted(|ctx| {
        let sink = ctx.new_object("Sink", &[])?;
        // Warm up: intern names, fill the shape cache, grow the managed
        // heap, seed the thread-local buffer pool.
        for _ in 0..32 {
            ctx.call(&sink, "put", payload)?;
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..rounds {
            ctx.call(&sink, "put", payload)?;
        }
        Ok(ALLOCS.load(Ordering::Relaxed) - before)
    })
    .unwrap()
}

#[test]
fn fast_path_allocations_per_crossing_are_bounded() {
    const ROUNDS: usize = 64;
    let payload = [Value::Bytes(vec![0xEE; 1024])];

    let app = launch();
    let allocs = allocs_per_window(&app, &payload, ROUNDS);
    app.shutdown();

    assert!(
        allocs <= MAX_ALLOCS_PER_CROSSING * ROUNDS as u64,
        "at most {MAX_ALLOCS_PER_CROSSING} allocations per steady-state crossing: \
         {allocs} over {ROUNDS} crossings"
    );
}
