//! Integration regressions for the segmented block collector: long-churn
//! fragmentation behaviour, object death across minor/major
//! cycles, handle-generation hygiene across block recycling, and image
//! snapshot equivalence with the semispace reference collector.

use runtime_sim::heap::{CollectorKind, Heap, HeapConfig};
use runtime_sim::image::ImageHeap;
use runtime_sim::value::{ClassId, ObjId, Value};

const BLOCK_BYTES: u64 = 4096;

fn block_heap() -> Heap {
    Heap::new(HeapConfig {
        gc_threshold_bytes: u64::MAX,
        collector: CollectorKind::Block,
        block_bytes: BLOCK_BYTES,
        nursery_bytes: u64::MAX,
        ..HeapConfig::default()
    })
}

fn semispace_heap() -> Heap {
    Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() })
}

fn alloc_bytes(heap: &mut Heap, n: usize) -> ObjId {
    heap.alloc(ClassId(0), vec![Value::Bytes(vec![0u8; n])]).unwrap()
}

/// Deterministic xorshift so the churn shape is reproducible.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Long-lived churn: short-lived garbage of mixed size classes cycles
/// through the heap while a standing live set persists. After each major
/// the free-block cache must rebound (evacuated/swept blocks return to
/// the free list) and the committed footprint must stay within a fixed
/// multiple of the peak live bytes — i.e. fragmentation stays bounded.
#[test]
fn fragmentation_stays_bounded_under_long_churn() {
    let mut heap = block_heap();
    let mut rng = 0x9E3779B97F4A7C15u64;

    // Standing live set: ~64 KiB across mixed size classes.
    let standing: Vec<ObjId> = (0..64)
        .map(|i| {
            let id = alloc_bytes(&mut heap, 64 + (i % 4) * 400);
            heap.add_root(id);
            id
        })
        .collect();

    let mut peak_live = heap.live_bytes();
    for round in 0..40 {
        // A burst of short-lived garbage, some of it briefly rooted,
        // some reaching the large-object path.
        let mut garbage = Vec::new();
        for _ in 0..200 {
            let size = match xorshift(&mut rng) % 10 {
                0 => 8 * 1024, // large: dedicated span
                1..=3 => 900,
                4..=6 => 200,
                _ => 40,
            };
            let id = alloc_bytes(&mut heap, size as usize);
            heap.add_root(id);
            garbage.push(id);
        }
        peak_live = peak_live.max(heap.live_bytes());
        for id in garbage {
            heap.remove_root(id);
        }
        if round % 4 == 3 {
            heap.collect();
            let stats = heap.block_stats().expect("block collector reports block stats");
            assert!(
                stats.free_blocks > 0,
                "round {round}: free blocks should rebound after a major"
            );
            assert!(
                stats.live_blocks + stats.free_blocks <= stats.committed_blocks,
                "round {round}: accounting: live {} + free {} > committed {}",
                stats.live_blocks,
                stats.free_blocks,
                stats.committed_blocks
            );
        } else {
            heap.collect_minor();
        }
    }

    heap.collect();
    let stats = heap.block_stats().unwrap();
    let committed_bytes = stats.committed_blocks * stats.block_bytes;
    // Fixed fragmentation bound: the settled footprint never exceeds a
    // small multiple of the peak live bytes (plus the free-block cache).
    let bound = 4 * peak_live + 16 * stats.block_bytes;
    assert!(
        committed_bytes <= bound,
        "committed {committed_bytes} bytes exceeds fragmentation bound {bound} (peak live {peak_live})"
    );
    for id in standing {
        assert!(heap.is_live(id), "standing live set must survive churn");
    }
}

/// Nursery garbage dies in the *minor* cycle that reclaims it: its
/// handle reads dead from then on, and later cycles do not reclaim it
/// again.
#[test]
fn nursery_garbage_dies_exactly_once_in_minor() {
    let mut heap = block_heap();
    let keep = alloc_bytes(&mut heap, 64);
    heap.add_root(keep);
    let doomed = alloc_bytes(&mut heap, 64);
    assert!(heap.is_live(doomed));

    let minor = heap.collect_minor();
    assert!(minor.minor);
    assert_eq!(minor.reclaimed, 1, "minor reclaims the nursery garbage");
    assert!(!heap.is_live(doomed));
    assert!(heap.is_live(keep));

    let major = heap.collect();
    assert_eq!(major.reclaimed, 0, "already-reclaimed garbage must not die again");
    assert!(!heap.is_live(doomed));
}

/// *Mature* garbage survives minors (minors never touch the mature
/// generation) and dies exactly once, in the major that sweeps it.
/// Evacuation itself must keep handles valid.
#[test]
fn mature_garbage_survives_minors_and_dies_once_in_major() {
    let mut heap = block_heap();
    let obj = alloc_bytes(&mut heap, 64);
    heap.add_root(obj);

    // Promote to the mature generation; the handle tracks the evacuated
    // object through the slot retarget.
    let minor = heap.collect_minor();
    assert!(minor.minor);
    assert!(heap.is_live(obj), "evacuation keeps handles valid");

    heap.remove_root(obj);
    let minor = heap.collect_minor();
    assert_eq!(minor.reclaimed, 0, "minor must not sweep mature garbage");
    assert!(heap.is_live(obj));

    let major = heap.collect();
    assert_eq!(major.reclaimed, 1, "major sweeps the mature garbage");
    assert!(!heap.is_live(obj));

    let again = heap.collect();
    assert_eq!(again.reclaimed, 0);
}

/// Slots freed when a nursery block is recycled must come back with a
/// bumped handle generation: stale [`ObjId`]s never resolve to the new
/// occupants, even when allocation reuses the same slot indices and the
/// same recycled blocks.
#[test]
fn no_stale_handle_generation_reuse_across_block_recycling() {
    let mut heap = block_heap();
    let keep = alloc_bytes(&mut heap, 64);
    heap.add_root(keep);

    let dead: Vec<ObjId> = (0..50).map(|_| alloc_bytes(&mut heap, 200)).collect();
    heap.collect_minor(); // reclaims the garbage, recycles nursery blocks

    // Refill: slot indices and blocks get reused.
    let fresh: Vec<ObjId> = (0..50).map(|_| alloc_bytes(&mut heap, 200)).collect();
    for id in &fresh {
        heap.add_root(*id);
    }

    for old in &dead {
        assert!(!heap.is_live(*old), "stale handle must not resolve after recycling");
        assert!(heap.fields(*old).is_none());
        assert!(heap.class_of(*old).is_none());
        assert!(
            !heap.set_field(*old, 0, Value::Int(7)),
            "writes through stale handles must be rejected"
        );
    }
    for (old, new) in dead.iter().zip(&fresh) {
        if old.index() == new.index() {
            assert_ne!(
                old.generation(),
                new.generation(),
                "reused slot must carry a new generation"
            );
        }
    }
    for id in &fresh {
        assert!(heap.is_live(*id));
    }
}

/// Builds the same deterministic object graph in `heap`: a ring of
/// linked records plus some garbage, returning the rooted survivors.
fn build_graph(heap: &mut Heap) -> Vec<ObjId> {
    let mut ids = Vec::new();
    for i in 0..24 {
        let id = heap
            .alloc(
                ClassId(i as u32 % 3),
                vec![Value::Int(i as i64), Value::Unit, Value::Bytes(vec![i as u8; 64 + i * 7])],
            )
            .unwrap();
        ids.push(id);
    }
    for i in 0..24 {
        heap.set_field(ids[i], 1, Value::Ref(ids[(i + 1) % 24]));
    }
    heap.add_root(ids[0]);
    // Unreachable garbage that the pre-snapshot collect must drop.
    for _ in 0..8 {
        let _ = heap.alloc(ClassId(9), vec![Value::Bytes(vec![0; 300])]);
    }
    ids
}

/// Snapshot-after-collect parity: the image captured from a block heap
/// is equivalent to the one captured from a semispace heap running the
/// same program — same object count, same payload bytes, and the same
/// restored graph.
#[test]
fn image_snapshot_after_collect_matches_semispace() {
    let mut build_s = semispace_heap();
    let mut build_b = block_heap();
    // Identical allocation history with no intermediate collections, so
    // handles coincide across the two builds.
    let ids_s = build_graph(&mut build_s);
    let ids_b = build_graph(&mut build_b);
    assert_eq!(ids_s, ids_b, "allocation order determines identical handles");
    build_s.collect();
    build_b.collect();

    let image_s = ImageHeap::snapshot(&build_s);
    let image_b = ImageHeap::snapshot(&build_b);
    assert_eq!(image_s.object_count(), image_b.object_count());
    assert_eq!(image_s.byte_len(), image_b.byte_len());

    // Restoring both images into fresh semispace heaps yields the same
    // graph under the handle mapping.
    let mut run_s = semispace_heap();
    let mut run_b = semispace_heap();
    let map_s = image_s.restore_into(&mut run_s).unwrap();
    let map_b = image_b.restore_into(&mut run_b).unwrap();
    assert_eq!(run_s.live_objects(), run_b.live_objects());
    assert_eq!(run_s.live_bytes(), run_b.live_bytes());
    for old in &ids_s {
        let new_s = map_s[old];
        let new_b = map_b[old];
        assert_eq!(run_s.class_of(new_s), run_b.class_of(new_b));
        assert_eq!(run_s.field(new_s, 0), run_b.field(new_b, 0));
        assert_eq!(run_s.field(new_s, 2), run_b.field(new_b, 2));
        let link_s = run_s.field(new_s, 1).unwrap().as_ref_id().unwrap();
        let link_b = run_b.field(new_b, 1).unwrap().as_ref_id().unwrap();
        // Both links land on the mapped image of the same original id.
        let orig = ids_s[(ids_s.iter().position(|i| i == old).unwrap() + 1) % ids_s.len()];
        assert_eq!(link_s, map_s[&orig]);
        assert_eq!(link_b, map_b[&orig]);
    }
}
