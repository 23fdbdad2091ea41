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

#[path = "common/counter.rs"]
mod counter;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use montsalvat::runtime::value::Value;

/// Heap allocations one steady-state crossing makes (the count measured
/// when this bound was set, in debug and release alike).
const ALLOCS_PER_CROSSING: u64 = 2;

#[test]
fn a_steady_state_classic_crossing_allocates_a_pinned_count() {
    const ROUNDS: u64 = 64;
    let app = counter::launch(None);
    let allocs = app
        .enter_untrusted(|ctx| {
            let counter = ctx.new_object("Counter", &[])?;
            // Warm up: resolve the crossing, fill the buffer pool, grow
            // the managed heaps.
            for i in 0..32 {
                ctx.call(&counter, "add", &[Value::Int(i)])?;
            }
            let before = allocations();
            for i in 0..ROUNDS as i64 {
                ctx.call(&counter, "add", &[Value::Int(i)])?;
            }
            Ok(allocations() - before)
        })
        .unwrap();
    app.shutdown();

    assert!(
        allocs <= ALLOCS_PER_CROSSING * ROUNDS,
        "at most {ALLOCS_PER_CROSSING} allocations per steady-state crossing: \
         {allocs} over {ROUNDS} crossings"
    );
}
