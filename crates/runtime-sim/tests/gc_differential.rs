//! Differential property tests: the semispace and block collectors must
//! be observationally indistinguishable.
//!
//! Each generated action sequence is replayed against two heaps — one
//! per collector — with parallel handle vectors tracking the "same"
//! logical object in both. Raw [`ObjId`]s are never compared across
//! heaps (slot reuse order differs between collectors); instead every
//! reference is canonicalised through the tracked-index maps before
//! comparison.

use std::collections::{BTreeSet, HashMap, HashSet};

use proptest::prelude::*;
use runtime_sim::heap::{CollectorKind, Heap, HeapConfig};
use runtime_sim::value::{ClassId, ObjId, Value};

/// A randomly generated heap action, applied identically to both heaps.
#[derive(Debug, Clone)]
enum Action {
    /// Allocate `bytes` of payload, optionally linking to a tracked
    /// object and/or rooting the new one. Sizes above the block size
    /// exercise the block heap's large-object path.
    Alloc { bytes: u16, link: Option<u8>, root: bool },
    /// Point the `src`-th tracked object's link field at the `dst`-th.
    Relink { src: u8, dst: u8 },
    /// Overwrite the `idx`-th tracked object's counter field.
    SetInt { idx: u8, val: i32 },
    /// Drop the root of the `idx`-th rooted object.
    Unroot { idx: u8 },
    /// Run a full (major) collection on both heaps.
    Collect,
    /// Run a minor cycle (nursery-only on the block heap; the semispace
    /// promotes it to a major).
    CollectMinor,
}

const BLOCK_BYTES: u64 = 4096;

fn action_strategy(minors: bool) -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u16>(), proptest::option::of(any::<u8>()), any::<bool>())
            .prop_map(|(bytes, link, root)| Action::Alloc { bytes: bytes % 6000, link, root }),
        (any::<u16>(), proptest::option::of(any::<u8>()), any::<bool>())
            .prop_map(|(bytes, link, root)| Action::Alloc { bytes: bytes % 6000, link, root }),
        (any::<u8>(), any::<u8>()).prop_map(|(src, dst)| Action::Relink { src, dst }),
        (any::<u8>(), any::<i32>()).prop_map(|(idx, val)| Action::SetInt { idx, val }),
        any::<u8>().prop_map(|idx| Action::Unroot { idx }),
        Just(Action::Collect),
        any::<bool>().prop_map(move |_| if minors {
            Action::CollectMinor
        } else {
            Action::Collect
        }),
    ]
}

fn semispace_heap() -> Heap {
    Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() })
}

fn block_heap() -> Heap {
    Heap::new(HeapConfig {
        gc_threshold_bytes: u64::MAX,
        collector: CollectorKind::Block,
        block_bytes: BLOCK_BYTES,
        nursery_bytes: u64::MAX,
        ..HeapConfig::default()
    })
}

/// Replay state for one heap: tracked handles plus a reverse map used
/// to canonicalise references into tracked indices.
struct Side {
    heap: Heap,
    tracked: Vec<ObjId>,
    rooted: Vec<ObjId>,
    pos: HashMap<ObjId, usize>,
}

impl Side {
    fn new(heap: Heap) -> Self {
        Side { heap, tracked: Vec::new(), rooted: Vec::new(), pos: HashMap::new() }
    }

    fn push(&mut self, id: ObjId, root: bool) {
        self.pos.insert(id, self.tracked.len());
        self.tracked.push(id);
        if root {
            self.heap.add_root(id);
            self.rooted.push(id);
        }
    }

    /// Canonicalises a link field into the tracked index it points at.
    fn link_index(&self, idx: usize) -> Option<usize> {
        let link = self.heap.field(self.tracked[idx], 1)?.as_ref_id()?;
        self.pos.get(&link).copied()
    }

    /// Root-reachable closure as a set of tracked indices.
    fn reachable_indices(&self) -> BTreeSet<usize> {
        let mut seen = HashSet::new();
        let mut out = BTreeSet::new();
        let mut stack: Vec<ObjId> = self.heap.root_ids();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            out.insert(self.pos[&id]);
            if let Some(fields) = self.heap.fields(id) {
                for f in fields {
                    f.for_each_ref(&mut |child| stack.push(child));
                }
            }
        }
        out
    }
}

/// Applies one action to both sides, making every decision once so the
/// two heaps always receive identical mutations. Liveness-dependent
/// decisions use the conjunction of both heaps so the replay stays
/// synchronised even while minor cycles let garbage linger on one side.
fn apply(action: &Action, a: &mut Side, b: &mut Side) {
    match action {
        Action::Alloc { bytes, link, root } => {
            let mut fields =
                vec![Value::Bytes(vec![0xAB; *bytes as usize]), Value::Unit, Value::Int(0)];
            if let Some(pick) = link {
                if !a.tracked.is_empty() {
                    let i = *pick as usize % a.tracked.len();
                    if a.heap.is_live(a.tracked[i]) && b.heap.is_live(b.tracked[i]) {
                        // Each side links its own handle for object `i`.
                        let id_a = a.heap.alloc(ClassId(1), {
                            let mut f = fields.clone();
                            f[1] = Value::Ref(a.tracked[i]);
                            f
                        });
                        let id_b = b.heap.alloc(ClassId(1), {
                            fields[1] = Value::Ref(b.tracked[i]);
                            fields.clone()
                        });
                        a.push(id_a.unwrap(), *root);
                        b.push(id_b.unwrap(), *root);
                        return;
                    }
                }
            }
            let id_a = a.heap.alloc(ClassId(1), fields.clone()).unwrap();
            let id_b = b.heap.alloc(ClassId(1), fields).unwrap();
            a.push(id_a, *root);
            b.push(id_b, *root);
        }
        Action::Relink { src, dst } => {
            if a.tracked.is_empty() {
                return;
            }
            let s = *src as usize % a.tracked.len();
            let d = *dst as usize % a.tracked.len();
            let live_both = a.heap.is_live(a.tracked[s])
                && a.heap.is_live(a.tracked[d])
                && b.heap.is_live(b.tracked[s])
                && b.heap.is_live(b.tracked[d]);
            if live_both {
                a.heap.set_field(a.tracked[s], 1, Value::Ref(a.tracked[d]));
                b.heap.set_field(b.tracked[s], 1, Value::Ref(b.tracked[d]));
            }
        }
        Action::SetInt { idx, val } => {
            if a.tracked.is_empty() {
                return;
            }
            let i = *idx as usize % a.tracked.len();
            if a.heap.is_live(a.tracked[i]) && b.heap.is_live(b.tracked[i]) {
                a.heap.set_field(a.tracked[i], 2, Value::Int(*val as i64));
                b.heap.set_field(b.tracked[i], 2, Value::Int(*val as i64));
            }
        }
        Action::Unroot { idx } => {
            if a.rooted.is_empty() {
                return;
            }
            let i = *idx as usize % a.rooted.len();
            let id_a = a.rooted.swap_remove(i);
            let id_b = b.rooted.swap_remove(i);
            a.heap.remove_root(id_a);
            b.heap.remove_root(id_b);
        }
        Action::Collect => {
            a.heap.collect();
            b.heap.collect();
        }
        Action::CollectMinor => {
            a.heap.collect_minor();
            b.heap.collect_minor();
        }
    }
}

/// Full observational equality: liveness per tracked index, classes,
/// field values (references canonicalised), live-byte and live-object
/// accounting. Valid whenever both heaps have collected
/// down to exactly the reachable set (i.e. after a major on both).
fn assert_observationally_equal(a: &Side, b: &Side) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.tracked.len(), b.tracked.len());
    for i in 0..a.tracked.len() {
        let live_a = a.heap.is_live(a.tracked[i]);
        let live_b = b.heap.is_live(b.tracked[i]);
        prop_assert_eq!(live_a, live_b, "liveness diverged for tracked object {}", i);
        if !live_a {
            continue;
        }
        prop_assert_eq!(a.heap.class_of(a.tracked[i]), b.heap.class_of(b.tracked[i]));
        let fields_a = a.heap.fields(a.tracked[i]).unwrap();
        let fields_b = b.heap.fields(b.tracked[i]).unwrap();
        prop_assert_eq!(fields_a.len(), fields_b.len());
        // Payload and counter compare directly; the link field compares
        // through the tracked-index maps.
        prop_assert_eq!(&fields_a[0], &fields_b[0], "payload diverged for object {}", i);
        prop_assert_eq!(&fields_a[2], &fields_b[2], "counter diverged for object {}", i);
        prop_assert_eq!(a.link_index(i), b.link_index(i), "link target diverged for object {}", i);
    }
    // The whole live set corresponds: no untracked stragglers either way.
    let live_a: BTreeSet<usize> = a.heap.iter().map(|(id, _, _)| a.pos[&id]).collect();
    let live_b: BTreeSet<usize> = b.heap.iter().map(|(id, _, _)| b.pos[&id]).collect();
    prop_assert_eq!(live_a, live_b);
    prop_assert_eq!(a.heap.live_objects(), b.heap.live_objects());
    prop_assert_eq!(a.heap.live_bytes(), b.heap.live_bytes(), "live-byte accounting diverged");
    Ok(())
}

/// Reachable-graph equality: valid after *any* collection (including
/// minors, where unreachable mature garbage may linger on the block
/// side only).
fn assert_reachable_graphs_equal(a: &Side, b: &Side) -> Result<(), TestCaseError> {
    let reach_a = a.reachable_indices();
    let reach_b = b.reachable_indices();
    prop_assert_eq!(&reach_a, &reach_b, "root-reachable closures diverged");
    for &i in &reach_a {
        prop_assert!(a.heap.is_live(a.tracked[i]) && b.heap.is_live(b.tracked[i]));
        let fields_a = a.heap.fields(a.tracked[i]).unwrap();
        let fields_b = b.heap.fields(b.tracked[i]).unwrap();
        prop_assert_eq!(&fields_a[0], &fields_b[0]);
        prop_assert_eq!(&fields_a[2], &fields_b[2]);
        prop_assert_eq!(a.link_index(i), b.link_index(i));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Major-only sequences: after every collection both collectors hold
    /// exactly the same object graph, byte for byte.
    #[test]
    fn collectors_agree_after_every_major_collection(
        actions in proptest::collection::vec(action_strategy(false), 1..120)
    ) {
        let mut a = Side::new(semispace_heap());
        let mut b = Side::new(block_heap());
        for action in &actions {
            let was_collect = matches!(action, Action::Collect);
            apply(action, &mut a, &mut b);
            if was_collect {
                assert_observationally_equal(&a, &b)?;
            }
        }
        let out_a = a.heap.collect();
        let out_b = b.heap.collect();
        // With identical live sets going in, a major reclaims the same
        // number of objects on both sides.
        prop_assert_eq!(out_a.reclaimed, out_b.reclaimed);
        prop_assert!(!out_a.minor && !out_b.minor);
        assert_observationally_equal(&a, &b)?;
    }

    /// Mixed minor/major sequences: minors may leave mature garbage
    /// behind on the block side, but the root-reachable graph must stay
    /// identical throughout, and a final major restores full equality.
    #[test]
    fn minor_cycles_never_perturb_the_reachable_graph(
        actions in proptest::collection::vec(action_strategy(true), 1..120)
    ) {
        let mut a = Side::new(semispace_heap());
        let mut b = Side::new(block_heap());
        for action in &actions {
            let was_gc = matches!(action, Action::Collect | Action::CollectMinor);
            apply(action, &mut a, &mut b);
            if was_gc {
                assert_reachable_graphs_equal(&a, &b)?;
            }
        }
        a.heap.collect();
        b.heap.collect();
        assert_observationally_equal(&a, &b)?;
    }
}
