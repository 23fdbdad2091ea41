//! Allocation count of one whole classic crossing.
//!
//! Installs a counting global allocator and measures heap allocations
//! per steady-state proxy call: the proxy dispatch, marshal, transition,
//! relay dispatch, the relay body, and the return-value unmarshal.
//! Crossings resolve their relay once and read no clock while tracing is
//! off, so nothing on this path formats a routine name or looks a relay
//! up by name. Marshal encodes into a pooled buffer, and a relay's
//! argument decoded from a primitive run refills a pooled list, so only
//! the other lists and arrays the receiver decodes allocate, whatever
//! the argument's size.
//!
//! This file deliberately contains a single `#[test]` so no sibling
//! test thread allocates while the window is measured.

#[path = "common/counter.rs"]
mod counter;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use montsalvat::runtime::value::Value;

#[test]
fn a_steady_state_classic_crossing_allocates_a_pinned_count() {
    const ROUNDS: u64 = 64;
    // Each argument with the heap allocations one steady-state crossing
    // makes (the counts measured when these bounds were set, in debug
    // and release alike):
    // - an int: the decoded argument list and the return list;
    // - a 1 KiB byte array: those two and the decoded byte array;
    // - a list of 8192 ints: the same two only, because the relay gives
    //   the inner list it decoded from a run back to the run pool and
    //   the next crossing refills it in place.
    let cases = [
        ("an int", "add", Value::Int(7), 2),
        ("a 1 KiB byte array", "size", Value::Bytes(vec![0xEE; 1024]), 3),
        ("a list of 8192 ints", "size", Value::List((0..8192).map(Value::Int).collect()), 2),
    ];
    let app = counter::launch(None);
    let counted = app
        .enter_untrusted(|ctx| {
            let counter = ctx.new_object("Counter", &[])?;
            let mut counted = Vec::new();
            for (_, method, arg, _) in &cases {
                let args = std::slice::from_ref(arg);
                // Warm up: resolve the crossing, fill the buffer pool,
                // grow the managed heaps.
                for _ in 0..32 {
                    ctx.call(&counter, method, args)?;
                }
                let before = allocations();
                for _ in 0..ROUNDS {
                    ctx.call(&counter, method, args)?;
                }
                counted.push(allocations() - before);
            }
            Ok(counted)
        })
        .unwrap();
    app.shutdown();

    for ((what, _, _, per_crossing), allocs) in cases.iter().zip(counted) {
        assert!(
            allocs <= per_crossing * ROUNDS,
            "{what}: at most {per_crossing} allocations per steady-state crossing, \
             {allocs} over {ROUNDS} crossings"
        );
    }
}
