//! Allocation count of one whole switchless pool crossing.
//!
//! Installs a counting global allocator and measures heap allocations,
//! on every thread, per steady-state proxy call with a primitive
//! argument over a one-worker pool: the proxy dispatch, marshal, the
//! post, the worker's pickup and batch-frame charge, relay dispatch,
//! the relay body, the reply, and the return-value unmarshal.
//!
//! Two allocations remain, the same two a classic crossing makes
//! (`tests/crossing_alloc.rs`):
//! - the decoded argument list the worker unmarshals for the relay;
//! - the return list the caller unmarshals from the reply.
//!
//! Nothing else on the path allocates: a posting thread reuses one
//! reply slot, and a worker reuses one batch buffer and sizes the batch
//! frame without collecting its payload lengths.
//!
//! This file deliberately contains a single `#[test]` so no sibling
//! test thread allocates while the window is measured.

#[path = "common/counter.rs"]
mod counter;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use montsalvat::core::exec::switchless::SwitchlessConfig;
use montsalvat::runtime::value::Value;
use montsalvat::telemetry::Counter;

/// Heap allocations one steady-state pool crossing makes (the count
/// measured when this bound was set, in debug and release alike).
const ALLOCS_PER_CROSSING: u64 = 2;

#[test]
fn a_steady_state_pool_crossing_allocates_a_pinned_count() {
    const ROUNDS: u64 = 64;
    const WINDOWS: u64 = 4;
    let app = counter::launch(Some(SwitchlessConfig::fixed(1)));
    let fewest = app
        .enter_untrusted(|ctx| {
            let counter = ctx.new_object("Counter", &[])?;
            // Warm up: resolve the crossing, create this thread's reply
            // slot, fill the buffer pools, grow the managed heaps.
            for i in 0..32 {
                ctx.call(&counter, "add", &[Value::Int(i)])?;
            }
            // A worker allocates once when its thread starts and once
            // when it first blocks on its mailbox (its wait context).
            // Either can land in any window, and there are fewer such
            // events than windows, so the fewest count is the steady
            // state.
            let mut fewest = u64::MAX;
            for _ in 0..WINDOWS {
                let before = allocations();
                for i in 0..ROUNDS as i64 {
                    ctx.call(&counter, "add", &[Value::Int(i)])?;
                }
                fewest = fewest.min(allocations() - before);
            }
            Ok(fewest)
        })
        .unwrap();
    let snap = app.telemetry_snapshot();
    app.shutdown();

    assert_eq!(
        snap.counter(Counter::SwitchlessCalls),
        1 + 32 + WINDOWS * ROUNDS,
        "every crossing was a switchless hit"
    );
    assert!(
        fewest <= ALLOCS_PER_CROSSING * ROUNDS,
        "at most {ALLOCS_PER_CROSSING} allocations per steady-state pool crossing: \
         {fewest} over {ROUNDS} crossings"
    );
}
