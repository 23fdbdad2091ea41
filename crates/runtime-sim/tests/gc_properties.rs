//! Property-based tests for the stop-and-copy collector.
//!
//! These drive the heap with random interleavings of allocations, field
//! writes, rooting changes and collections, and check the collector's
//! core invariants afterwards.

use proptest::prelude::*;
use runtime_sim::heap::{Heap, HeapConfig};
use runtime_sim::value::{ClassId, ObjId, Value};

/// A randomly generated heap action.
#[derive(Debug, Clone)]
enum Action {
    /// Allocate with a payload of `bytes` and link to the `link`-th
    /// most recent live object (if any).
    Alloc { bytes: u16, link: Option<u8>, root: bool },
    /// Point the `src`-th tracked object's link field at the `dst`-th.
    Relink { src: u8, dst: u8 },
    /// Drop the root of the `idx`-th tracked object.
    Unroot { idx: u8 },
    /// Run a collection.
    Collect,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u16>(), proptest::option::of(any::<u8>()), any::<bool>())
            .prop_map(|(bytes, link, root)| Action::Alloc { bytes: bytes % 512, link, root }),
        (any::<u8>(), any::<u8>()).prop_map(|(src, dst)| Action::Relink { src, dst }),
        any::<u8>().prop_map(|idx| Action::Unroot { idx }),
        Just(Action::Collect),
    ]
}

/// Recomputes reachability from roots with an independent traversal.
fn reachable_from_roots(heap: &Heap) -> std::collections::HashSet<ObjId> {
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<ObjId> = heap.root_ids();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if let Some(fields) = heap.fields(id) {
            for f in fields {
                f.for_each_ref(&mut |child| stack.push(child));
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any action sequence ending in a collection, the live set
    /// equals the root-reachable set, and every handle reads live
    /// exactly when its object survived.
    #[test]
    fn collector_preserves_exactly_the_reachable_set(actions in proptest::collection::vec(action_strategy(), 1..120)) {
        let mut heap = Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() });
        let mut tracked: Vec<ObjId> = Vec::new();
        let mut rooted: Vec<ObjId> = Vec::new();

        for action in actions {
            match action {
                Action::Alloc { bytes, link, root } => {
                    let mut fields = vec![Value::Bytes(vec![0u8; bytes as usize]), Value::Unit];
                    if let Some(pick) = link {
                        if !tracked.is_empty() {
                            let target = tracked[pick as usize % tracked.len()];
                            if heap.is_live(target) {
                                fields[1] = Value::Ref(target);
                            }
                        }
                    }
                    let id = heap.alloc(ClassId(0), fields).unwrap();
                    tracked.push(id);
                    if root {
                        heap.add_root(id);
                        rooted.push(id);
                    }
                }
                Action::Relink { src, dst } => {
                    if !tracked.is_empty() {
                        let s = tracked[src as usize % tracked.len()];
                        let d = tracked[dst as usize % tracked.len()];
                        if heap.is_live(s) && heap.is_live(d) {
                            heap.set_field(s, 1, Value::Ref(d));
                        }
                    }
                }
                Action::Unroot { idx } => {
                    if !rooted.is_empty() {
                        let i = idx as usize % rooted.len();
                        let id = rooted.swap_remove(i);
                        heap.remove_root(id);
                    }
                }
                Action::Collect => {
                    heap.collect();
                }
            }
        }

        let expected = reachable_from_roots(&heap);
        heap.collect();

        // 1. Exactly the reachable objects survive.
        let live: std::collections::HashSet<ObjId> = heap.iter().map(|(id, _, _)| id).collect();
        prop_assert_eq!(&live, &expected);

        // 2. All surviving handles resolve; all others don't.
        for id in &tracked {
            prop_assert_eq!(heap.is_live(*id), expected.contains(id));
        }

        // 3. Size accounting matches the surviving objects.
        let recount: u64 = heap
            .iter()
            .map(|(_, _, fields)| {
                runtime_sim::heap::OBJECT_HEADER_BYTES
                    + fields.iter().map(Value::shallow_size).sum::<u64>()
            })
            .sum();
        prop_assert_eq!(heap.live_bytes(), recount);
    }

    /// Collection is idempotent: a second collection with no mutation in
    /// between reclaims nothing.
    #[test]
    fn collection_is_idempotent(sizes in proptest::collection::vec(0u16..256, 1..40), root_mask in any::<u64>()) {
        let mut heap = Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() });
        for (i, bytes) in sizes.iter().enumerate() {
            let id = heap.alloc(ClassId(0), vec![Value::Bytes(vec![0; *bytes as usize])]).unwrap();
            if root_mask & (1 << (i % 64)) != 0 {
                heap.add_root(id);
            }
        }
        heap.collect();
        let live_after_first = heap.live_objects();
        let out = heap.collect();
        prop_assert_eq!(out.reclaimed, 0);
        prop_assert_eq!(heap.live_objects(), live_after_first);
    }

    /// Image snapshot → restore preserves object count, classes and the
    /// shape of the reference graph.
    #[test]
    fn image_roundtrip_preserves_graph_shape(n in 1usize..30, edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..60)) {
        let mut build = Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() });
        let mut ids = Vec::new();
        for i in 0..n {
            let id = build.alloc(ClassId(i as u32 % 5), vec![Value::Int(i as i64), Value::Unit]).unwrap();
            build.add_root(id);
            ids.push(id);
        }
        for (s, d) in &edges {
            let src = ids[*s as usize % n];
            let dst = ids[*d as usize % n];
            build.set_field(src, 1, Value::Ref(dst));
        }
        build.collect();
        let image = runtime_sim::image::ImageHeap::snapshot(&build);

        let mut run = Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() });
        let map = image.restore_into(&mut run).unwrap();
        prop_assert_eq!(run.live_objects(), n);
        for old in &ids {
            let new = map[old];
            prop_assert_eq!(run.class_of(new), build.class_of(*old));
            // Link structure is preserved under the mapping.
            let old_link = build.field(*old, 1).unwrap().as_ref_id();
            let new_link = run.field(new, 1).unwrap().as_ref_id();
            prop_assert_eq!(new_link, old_link.map(|o| map[&o]));
        }
    }
}
