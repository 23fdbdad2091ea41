//! Segmented block/bucket heap with generational collection.
//!
//! The block collector replaces the semispace's single arena with
//! fixed-size blocks (`HeapConfig::block_bytes`) segregated into
//! size-class buckets. New objects are bump-placed into *nursery*
//! blocks; a **minor** collection evacuates live nursery objects into
//! *mature* survivor blocks, and a **major** collection marks the whole
//! reachable graph and sweeps mature blocks in place. A coarse
//! remembered set — one dirty bit per mature block, fed by the handle
//! table's field writes — keeps minors sound without scanning the whole
//! mature space.
//!
//! Because every reference is a generational handle resolved through
//! the owning [`Heap`](crate::heap::Heap)'s slot table, evacuation only
//! retargets slots; stored `Value::Ref`s are never rewritten. That is
//! what lets the differential tests hold this collector and the
//! semispace to *observational* equality.
//!
//! EPC accounting is per block: committing a fresh block grows enclave
//! residency by one block, collections report the number of distinct
//! blocks they touched, and empty blocks beyond a small cache are
//! released back after majors (see `docs/GC.md` for the charging
//! equations).

use crate::heap::{
    AllocEffect, BlockStats, CollectEvent, CollectKind, Collector, CollectorKind, Entry, GcCx,
    GcOutcome, HeapConfig,
};
use crate::value::{ObjId, Value};

/// Bits of a storage reference reserved for the entry index; the rest
/// address the block. 15 bits caps a block at 32768 entries and the
/// heap at 131072 blocks.
const ENTRY_BITS: u32 = 15;
const MAX_BLOCK_ENTRIES: usize = 1 << ENTRY_BITS;
const MAX_BLOCKS: usize = 1 << (32 - ENTRY_BITS);

/// Upper byte bounds of the small size-class buckets; anything larger
/// (up to a full block) shares the top bucket.
const BUCKET_BOUNDS: [u64; 3] = [64, 256, 1024];
const NUM_BUCKETS: usize = BUCKET_BOUNDS.len() + 1;
/// Bucket tag for dedicated large-object blocks (never on free lists).
const LARGE_BUCKET: usize = usize::MAX;

/// Committed-but-empty blocks kept for reuse after a major collection.
const MIN_FREE_CACHE: usize = 4;

fn pack(block: u32, entry: u32) -> u32 {
    (block << ENTRY_BITS) | entry
}

fn unpack(store_ref: u32) -> (usize, usize) {
    ((store_ref >> ENTRY_BITS) as usize, (store_ref & (MAX_BLOCK_ENTRIES as u32 - 1)) as usize)
}

fn bucket_of(size: u64) -> usize {
    BUCKET_BOUNDS.iter().position(|&bound| size <= bound).unwrap_or(NUM_BUCKETS - 1)
}

fn touch(touched: &mut Vec<bool>, id: usize) {
    if id >= touched.len() {
        touched.resize(id + 1, false);
    }
    touched[id] = true;
}

fn fields_contain_ref(fields: &[Value]) -> bool {
    let mut found = false;
    for field in fields {
        field.for_each_ref(&mut |_| found = true);
    }
    found
}

fn children_of(entry: &Entry) -> Vec<ObjId> {
    let mut children = Vec::new();
    for field in &entry.fields {
        field.for_each_ref(&mut |id| children.push(id));
    }
    children
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gen {
    Nursery,
    Mature,
}

#[derive(Debug)]
struct Block {
    gen: Gen,
    /// Size-class bucket, or [`LARGE_BUCKET`] for a dedicated block.
    bucket: usize,
    /// Committed bytes (one `block_bytes` for standard blocks; the
    /// rounded-up object span for large blocks).
    capacity: u64,
    /// Object bytes currently placed here.
    used: u64,
    /// Live entries currently placed here.
    live: usize,
    entries: Vec<Option<Entry>>,
    /// Recycled entry indices (mature sweep holes).
    holes: Vec<u32>,
    /// Remembered-set bit: a ref may have been written into this block
    /// since the last collection (mature blocks only).
    dirty: bool,
    /// On the free cache: committed, empty, not allocatable until
    /// re-acquired.
    free: bool,
}

impl Block {
    fn standard(gen: Gen, bucket: usize, capacity: u64) -> Self {
        Block {
            gen,
            bucket,
            capacity,
            used: 0,
            live: 0,
            entries: Vec::new(),
            holes: Vec::new(),
            dirty: false,
            free: false,
        }
    }

    fn fits(&self, size: u64) -> bool {
        self.used + size <= self.capacity
            && (!self.holes.is_empty() || self.entries.len() < MAX_BLOCK_ENTRIES)
    }

    fn has_room(&self) -> bool {
        self.used < self.capacity
            && (!self.holes.is_empty() || self.entries.len() < MAX_BLOCK_ENTRIES)
    }

    fn place(&mut self, entry: Entry) -> u32 {
        self.used += entry.size;
        self.live += 1;
        match self.holes.pop() {
            Some(idx) => {
                self.entries[idx as usize] = Some(entry);
                idx
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        }
    }

    /// Empties the block and parks it on the free cache.
    fn reset(&mut self) {
        self.entries.clear();
        self.holes.clear();
        self.used = 0;
        self.live = 0;
        self.dirty = false;
        self.free = true;
    }
}

/// Mutable tracing state shared by both collection kinds: per-block
/// mark bitmaps, the BFS queue, the distinct-blocks-touched set and
/// the marked-object counter.
struct MarkState {
    marks: Vec<Vec<bool>>,
    queue: Vec<u32>,
    touched: Vec<bool>,
    marked: u64,
}

impl MarkState {
    fn mark(&mut self, store_ref: u32) {
        let (bid, eid) = unpack(store_ref);
        if !self.marks[bid][eid] {
            self.marks[bid][eid] = true;
            self.marked += 1;
            touch(&mut self.touched, bid);
            self.queue.push(store_ref);
        }
    }
}

/// The segmented generational collector behind
/// [`CollectorKind::Block`].
#[derive(Debug)]
pub(crate) struct BlockHeap {
    block_bytes: u64,
    blocks: Vec<Option<Block>>,
    /// Released block ids available for fresh commits.
    spare_ids: Vec<u32>,
    /// Committed empty standard blocks cached for reuse.
    free_blocks: Vec<u32>,
    open_nursery: [Option<u32>; NUM_BUCKETS],
    open_mature: [Option<u32>; NUM_BUCKETS],
    /// Per bucket: mature blocks with sweep holes, rebuilt each major.
    avail_mature: Vec<Vec<u32>>,
    /// Blocks currently assigned to the nursery, in acquisition order.
    nursery_ids: Vec<u32>,
    /// Object bytes allocated in the nursery since the last collection.
    nursery_used: u64,
    /// Bytes promoted into the mature generation (evacuated survivors
    /// plus direct large allocations) since the last major. Majors are
    /// scheduled on mature *growth*, not raw allocation volume — young
    /// garbage that dies in minors never hastens a full collection.
    promoted_since_major: u64,
    len: usize,
}

impl BlockHeap {
    pub(crate) fn new(block_bytes: u64) -> Self {
        BlockHeap {
            block_bytes,
            blocks: Vec::new(),
            spare_ids: Vec::new(),
            free_blocks: Vec::new(),
            open_nursery: [None; NUM_BUCKETS],
            open_mature: [None; NUM_BUCKETS],
            avail_mature: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            nursery_ids: Vec::new(),
            nursery_used: 0,
            promoted_since_major: 0,
            len: 0,
        }
    }

    fn block(&self, bid: usize) -> &Block {
        self.blocks[bid].as_ref().expect("live block")
    }

    fn block_mut(&mut self, bid: usize) -> &mut Block {
        self.blocks[bid].as_mut().expect("live block")
    }

    fn new_block_slot(&mut self, block: Block) -> u32 {
        match self.spare_ids.pop() {
            Some(id) => {
                self.blocks[id as usize] = Some(block);
                id
            }
            None => {
                assert!(self.blocks.len() < MAX_BLOCKS, "block heap: block id space exhausted");
                self.blocks.push(Some(block));
                (self.blocks.len() - 1) as u32
            }
        }
    }

    /// Hands out a standard block: a cached free block when available
    /// (no residency change), otherwise a fresh commit of
    /// `block_bytes`. Returns `(id, committed_bytes)`.
    fn acquire_block(&mut self, gen: Gen, bucket: usize) -> (u32, u64) {
        match self.free_blocks.pop() {
            Some(id) => {
                let block = self.blocks[id as usize].as_mut().expect("cached block committed");
                debug_assert!(block.free && block.used == 0);
                block.gen = gen;
                block.bucket = bucket;
                block.free = false;
                block.dirty = false;
                (id, 0)
            }
            None => {
                let id = self.new_block_slot(Block::standard(gen, bucket, self.block_bytes));
                (id, self.block_bytes)
            }
        }
    }

    /// Commits a dedicated block span for an object larger than one
    /// block. Goes straight to the mature generation; the dirty bit is
    /// set conservatively when the object carries refs so minors still
    /// see its out-edges.
    fn insert_large(&mut self, entry: Entry) -> (u32, u64) {
        self.promoted_since_major += entry.size;
        let capacity = entry.size.div_ceil(self.block_bytes.max(1)).max(1) * self.block_bytes;
        let mut block = Block::standard(Gen::Mature, LARGE_BUCKET, capacity);
        block.dirty = fields_contain_ref(&entry.fields);
        let id = self.new_block_slot(block);
        let eid = self.block_mut(id as usize).place(entry);
        (pack(id, eid), capacity)
    }

    /// Places an evacuated survivor into the mature space: the open
    /// survivor block per bucket, then swept blocks with holes, then
    /// the free cache, then a fresh commit. Returns the new storage
    /// reference and any fresh committed bytes.
    fn place_mature(&mut self, entry: Entry, touched: &mut Vec<bool>) -> (u32, u64) {
        let size = entry.size;
        if size > self.block_bytes {
            // The object grew past a block via set_field while in the
            // nursery; promote it to a dedicated span.
            let (store_ref, committed) = self.insert_large(entry);
            touch(touched, unpack(store_ref).0);
            return (store_ref, committed);
        }
        self.promoted_since_major += size;
        let bucket = bucket_of(size);
        let mut committed = 0u64;
        let open_ok = self.open_mature[bucket].is_some_and(|id| {
            let b = self.block(id as usize);
            !b.free && b.gen == Gen::Mature && b.bucket == bucket && b.fits(size)
        });
        let id = if open_ok {
            self.open_mature[bucket].expect("checked above")
        } else {
            let mut picked = None;
            while let Some(cand) = self.avail_mature[bucket].pop() {
                let b = self.block(cand as usize);
                if !b.free && b.gen == Gen::Mature && b.bucket == bucket && b.fits(size) {
                    picked = Some(cand);
                    break;
                }
            }
            let id = match picked {
                Some(id) => id,
                None => {
                    let (id, fresh) = self.acquire_block(Gen::Mature, bucket);
                    committed = fresh;
                    id
                }
            };
            self.open_mature[bucket] = Some(id);
            id
        };
        touch(touched, id as usize);
        let eid = self.block_mut(id as usize).place(entry);
        (pack(id, eid), committed)
    }

    /// Scans one object's fields and marks any unmarked *nursery*
    /// referents (minor-collection tracing step).
    fn scan_for_nursery(&self, store_ref: u32, cx: &GcCx<'_>, state: &mut MarkState) {
        let (bid, eid) = unpack(store_ref);
        let entry = self.block(bid).entries[eid].as_ref().expect("scanned entry live");
        for child in children_of(entry) {
            if let Some(child_ref) = cx.resolve(child) {
                let (cb, _) = unpack(child_ref);
                if self.block(cb).gen == Gen::Nursery {
                    state.mark(child_ref);
                }
            }
        }
    }

    /// Evacuates marked nursery entries into the mature space and kills
    /// the rest; every nursery block is then reset onto the free cache
    /// (it stays committed, so evacuation never shrinks residency).
    fn evacuate_nursery(
        &mut self,
        marks: &[Vec<bool>],
        cx: &mut GcCx<'_>,
        touched: &mut Vec<bool>,
        outcome: &mut GcOutcome,
        committed: &mut u64,
    ) {
        let nursery = std::mem::take(&mut self.nursery_ids);
        for &bid in &nursery {
            touch(touched, bid as usize);
            let mut block = self.blocks[bid as usize].take().expect("nursery block present");
            for (eid, marked) in marks[bid as usize].iter().enumerate() {
                let Some(entry) = block.entries[eid].take() else { continue };
                if *marked {
                    outcome.bytes_copied += entry.size;
                    outcome.survivors += 1;
                    let slot = entry.slot;
                    let (new_ref, fresh) = self.place_mature(entry, touched);
                    *committed += fresh;
                    cx.retarget(slot, new_ref);
                } else {
                    outcome.bytes_freed += entry.size;
                    outcome.reclaimed += 1;
                    self.len -= 1;
                    cx.kill(entry.slot);
                }
            }
            block.reset();
            self.blocks[bid as usize] = Some(block);
            self.free_blocks.push(bid);
        }
        self.open_nursery = [None; NUM_BUCKETS];
        self.nursery_used = 0;
    }

    fn fresh_marks(&self) -> Vec<Vec<bool>> {
        self.blocks
            .iter()
            .map(|b| match b {
                Some(block) => vec![false; block.entries.len()],
                None => Vec::new(),
            })
            .collect()
    }

    /// Minor cycle: trace nursery-reachable objects from roots plus the
    /// dirty-block remembered set, evacuate survivors, recycle nursery
    /// blocks. Mature objects are never reclaimed here.
    fn collect_minor(&mut self, cx: &mut GcCx<'_>) -> CollectEvent {
        let mut state = MarkState {
            marks: self.fresh_marks(),
            queue: Vec::new(),
            touched: vec![false; self.blocks.len()],
            marked: 0,
        };
        // Seed from roots that resolve into the nursery. Clean mature
        // roots are deliberately *not* scanned (or charged as touched):
        // a mature object can only acquire a nursery out-edge through a
        // post-promotion field write or a ref-carrying large allocation,
        // and both paths set the block's dirty bit — so the remembered
        // set below already covers every mature→nursery edge.
        let root_refs: Vec<u32> =
            cx.root_slots().filter_map(|slot| cx.target_of_slot(slot)).collect();
        for store_ref in root_refs {
            let (bid, _) = unpack(store_ref);
            if self.block(bid).gen == Gen::Nursery {
                touch(&mut state.touched, bid);
                state.mark(store_ref);
            }
        }
        // Seed from the remembered set: every entry in a dirty mature
        // block may have had a nursery ref written into it.
        let dirty: Vec<u32> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.as_ref().is_some_and(|b| b.gen == Gen::Mature && b.dirty && !b.free))
            .map(|(bid, _)| bid as u32)
            .collect();
        for bid in dirty {
            touch(&mut state.touched, bid as usize);
            let refs: Vec<u32> = self
                .block(bid as usize)
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.is_some())
                .map(|(eid, _)| pack(bid, eid as u32))
                .collect();
            for store_ref in refs {
                self.scan_for_nursery(store_ref, cx, &mut state);
            }
        }
        // Transitive closure within the nursery.
        while let Some(store_ref) = state.queue.pop() {
            self.scan_for_nursery(store_ref, cx, &mut state);
        }
        let mut outcome = GcOutcome::default();
        let mut committed = 0u64;
        let MarkState { marks, mut touched, marked, .. } = state;
        self.evacuate_nursery(&marks, cx, &mut touched, &mut outcome, &mut committed);
        // The nursery is empty: no mature→nursery edge can exist until
        // the mutator writes one (which re-dirties), so the remembered
        // set resets wholesale.
        for block in self.blocks.iter_mut().flatten() {
            block.dirty = false;
        }
        let blocks_touched = touched.iter().filter(|t| **t).count() as u64;
        CollectEvent {
            outcome,
            marked_objects: marked,
            blocks_touched,
            committed_bytes: committed,
            ..CollectEvent::default()
        }
    }

    /// Major cycle: mark the full reachable graph, sweep mature blocks
    /// in place (first, so evacuated survivors land in swept space),
    /// evacuate the nursery, then trim the free-block cache — surplus
    /// committed-but-empty blocks are released back.
    fn collect_major(&mut self, cx: &mut GcCx<'_>) -> CollectEvent {
        let mut state = MarkState {
            marks: self.fresh_marks(),
            queue: Vec::new(),
            touched: vec![false; self.blocks.len()],
            marked: 0,
        };
        let root_refs: Vec<u32> =
            cx.root_slots().filter_map(|slot| cx.target_of_slot(slot)).collect();
        for store_ref in root_refs {
            state.mark(store_ref);
        }
        while let Some(store_ref) = state.queue.pop() {
            let (bid, eid) = unpack(store_ref);
            let entry = self.block(bid).entries[eid].as_ref().expect("marked entry live");
            for child in children_of(entry) {
                if let Some(child_ref) = cx.resolve(child) {
                    state.mark(child_ref);
                }
            }
        }
        let mut outcome = GcOutcome::default();
        let mut committed = 0u64;
        let mut released = 0u64;
        let MarkState { marks, mut touched, marked, .. } = state;
        // Sweep the mature space.
        for (bid, block_marks) in marks.iter().enumerate() {
            let is_mature =
                self.blocks[bid].as_ref().is_some_and(|b| b.gen == Gen::Mature && !b.free);
            if !is_mature {
                continue;
            }
            touch(&mut touched, bid);
            let mut block = self.blocks[bid].take().expect("mature block present");
            for (eid, marked) in block_marks.iter().enumerate() {
                if block.entries[eid].is_none() {
                    continue;
                }
                if *marked {
                    outcome.survivors += 1;
                    continue;
                }
                let entry = block.entries[eid].take().expect("checked above");
                block.used -= entry.size;
                block.live -= 1;
                block.holes.push(eid as u32);
                outcome.bytes_freed += entry.size;
                outcome.reclaimed += 1;
                self.len -= 1;
                cx.kill(entry.slot);
            }
            if block.live == 0 {
                if block.bucket == LARGE_BUCKET {
                    // Dedicated spans decommit as soon as they die.
                    released += block.capacity;
                    self.blocks[bid] = None;
                    self.spare_ids.push(bid as u32);
                } else {
                    block.reset();
                    self.blocks[bid] = Some(block);
                    self.free_blocks.push(bid as u32);
                }
            } else {
                self.blocks[bid] = Some(block);
            }
        }
        // Rebuild the allocation lists from swept occupancy.
        self.open_mature = [None; NUM_BUCKETS];
        for list in &mut self.avail_mature {
            list.clear();
        }
        for bid in 0..self.blocks.len() {
            let Some(block) = self.blocks[bid].as_ref() else { continue };
            if block.gen == Gen::Mature
                && !block.free
                && block.bucket < NUM_BUCKETS
                && block.has_room()
            {
                self.avail_mature[block.bucket].push(bid as u32);
            }
        }
        self.evacuate_nursery(&marks, cx, &mut touched, &mut outcome, &mut committed);
        // Trim the free cache: keep at most max(live blocks, a small
        // floor) committed empties; release the surplus.
        let live_blocks = self.blocks.iter().flatten().filter(|b| !b.free && b.live > 0).count();
        let keep = live_blocks.max(MIN_FREE_CACHE);
        while self.free_blocks.len() > keep {
            let bid = self.free_blocks.pop().expect("len checked");
            released += self.block(bid as usize).capacity;
            self.blocks[bid as usize] = None;
            self.spare_ids.push(bid);
        }
        for block in self.blocks.iter_mut().flatten() {
            block.dirty = false;
        }
        self.promoted_since_major = 0;
        let blocks_touched = touched.iter().filter(|t| **t).count() as u64;
        CollectEvent {
            outcome,
            marked_objects: marked,
            blocks_touched,
            committed_bytes: committed,
            released_bytes: released,
            ..CollectEvent::default()
        }
    }
}

impl Collector for BlockHeap {
    fn kind(&self) -> CollectorKind {
        CollectorKind::Block
    }

    fn insert(&mut self, entry: Entry) -> AllocEffect {
        let size = entry.size;
        if size > self.block_bytes {
            let (store_ref, committed) = self.insert_large(entry);
            self.len += 1;
            return AllocEffect { store_ref, committed_bytes: committed };
        }
        let bucket = bucket_of(size);
        let mut committed = 0u64;
        let open_ok = self.open_nursery[bucket].is_some_and(|id| {
            let b = self.block(id as usize);
            !b.free && b.gen == Gen::Nursery && b.fits(size)
        });
        let id = if open_ok {
            self.open_nursery[bucket].expect("checked above")
        } else {
            let (id, fresh) = self.acquire_block(Gen::Nursery, bucket);
            committed = fresh;
            self.open_nursery[bucket] = Some(id);
            self.nursery_ids.push(id);
            id
        };
        let eid = self.block_mut(id as usize).place(entry);
        self.nursery_used += size;
        self.len += 1;
        AllocEffect { store_ref: pack(id, eid), committed_bytes: committed }
    }

    fn entry(&self, store_ref: u32) -> &Entry {
        let (bid, eid) = unpack(store_ref);
        self.block(bid).entries[eid].as_ref().expect("live entry")
    }

    fn entry_mut(&mut self, store_ref: u32) -> &mut Entry {
        let (bid, eid) = unpack(store_ref);
        self.block_mut(bid).entries[eid].as_mut().expect("live entry")
    }

    fn len(&self) -> usize {
        self.len
    }

    fn iter_entries(&self) -> Box<dyn Iterator<Item = &Entry> + '_> {
        Box::new(
            self.blocks
                .iter()
                .filter_map(|b| b.as_ref())
                .flat_map(|b| b.entries.iter().filter_map(|e| e.as_ref())),
        )
    }

    fn note_field_write(&mut self, store_ref: u32, old_size: u64, new_size: u64, wrote_ref: bool) {
        let (bid, _) = unpack(store_ref);
        let nursery = {
            let block = self.block_mut(bid);
            block.used = block.used + new_size - old_size;
            if block.gen == Gen::Mature && wrote_ref {
                // Remembered set: this block may now hold the only
                // reference into the nursery.
                block.dirty = true;
            }
            block.gen == Gen::Nursery
        };
        if nursery {
            self.nursery_used = self.nursery_used + new_size - old_size;
        }
    }

    fn due(&self, _alloc_since_gc: u64, config: &HeapConfig) -> Option<CollectKind> {
        // Generational policy: majors are scheduled on mature *growth*
        // (promoted bytes), not raw allocation volume like the
        // semispace — young garbage reclaimed by minors never forces a
        // full collection.
        if self.promoted_since_major >= config.gc_threshold_bytes {
            return Some(CollectKind::Major);
        }
        if self.nursery_used >= config.nursery_bytes {
            return Some(CollectKind::Minor);
        }
        None
    }

    fn collect(&mut self, kind: CollectKind, cx: &mut GcCx<'_>) -> CollectEvent {
        match kind {
            CollectKind::Minor => self.collect_minor(cx),
            CollectKind::Major => self.collect_major(cx),
        }
    }

    fn block_stats(&self) -> Option<BlockStats> {
        let unit = self.block_bytes.max(1);
        let mut committed = 0u64;
        let mut live = 0u64;
        let mut nursery = 0u64;
        for block in self.blocks.iter().flatten() {
            let span = block.capacity.div_ceil(unit);
            committed += span;
            if !block.free && block.live > 0 {
                live += span;
            }
            if !block.free && block.gen == Gen::Nursery {
                nursery += span;
            }
        }
        Some(BlockStats {
            block_bytes: self.block_bytes,
            committed_blocks: committed,
            live_blocks: live,
            free_blocks: self.free_blocks.len() as u64,
            nursery_blocks: nursery,
            nursery_used_bytes: self.nursery_used,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::tests::Events;
    use crate::heap::{CollectorKind, Heap, HeapConfig};
    use crate::value::{ClassId, Value};

    fn block_config() -> HeapConfig {
        HeapConfig {
            gc_threshold_bytes: u64::MAX,
            collector: CollectorKind::Block,
            block_bytes: 4096,
            nursery_bytes: u64::MAX,
            ..HeapConfig::default()
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (b, e) in [(0u32, 0u32), (1, 7), (131071, 32767), (42, 1)] {
            let r = pack(b, e);
            assert_eq!(unpack(r), (b as usize, e as usize));
        }
    }

    #[test]
    fn bucket_bounds_partition_sizes() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(64), 0);
        assert_eq!(bucket_of(65), 1);
        assert_eq!(bucket_of(256), 1);
        assert_eq!(bucket_of(1024), 2);
        assert_eq!(bucket_of(1025), 3);
        assert_eq!(bucket_of(4096), 3);
    }

    #[test]
    fn basic_lifecycle_matches_facade_contract() {
        let mut h = Heap::new(block_config());
        assert_eq!(h.collector_kind(), CollectorKind::Block);
        let keep = h.alloc(ClassId(1), vec![Value::Int(5), Value::from("hello")]).unwrap();
        h.add_root(keep);
        let dead = h.alloc(ClassId(2), vec![Value::Bytes(vec![0; 100])]).unwrap();
        let out = h.collect();
        assert!(!out.minor);
        assert_eq!(out.survivors, 1);
        assert_eq!(out.reclaimed, 1);
        assert!(h.is_live(keep) && !h.is_live(dead));
        assert_eq!(h.field(keep, 0), Some(&Value::Int(5)));
        assert_eq!(h.field(keep, 1).unwrap().as_str(), Some("hello"));
        assert_eq!(h.live_objects(), 1);
    }

    #[test]
    fn minor_evacuates_survivors_and_recycles_nursery() {
        let (mut h, events) = Events::heap(block_config());
        let keep = h.alloc(ClassId(0), vec![Value::Int(9)]).unwrap();
        h.add_root(keep);
        for _ in 0..50 {
            h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 64])]).unwrap();
        }
        let before = h.block_stats().unwrap();
        assert!(before.nursery_blocks > 0);
        let out = h.collect_minor();
        assert!(out.minor);
        assert_eq!(out.survivors, 1);
        assert_eq!(out.reclaimed, 50);
        assert!(h.is_live(keep));
        assert_eq!(h.field(keep, 0), Some(&Value::Int(9)));
        let after = h.block_stats().unwrap();
        assert_eq!(after.nursery_blocks, 0, "nursery recycled");
        assert_eq!(after.nursery_used_bytes, 0);
        assert!(after.free_blocks > 0, "nursery blocks parked on free cache");
        let collects = events.collects.lock().clone();
        let [(CollectKind::Minor, event)] = collects[..] else { panic!("{collects:?}") };
        assert_eq!((event.outcome, event.block_stats), (out, Some(after)));
        assert!(event.blocks_touched > 0 && event.marked_objects > 0);
        assert_eq!(event.block_bytes, 4096);
    }

    #[test]
    fn automatic_minor_fires_on_nursery_budget() {
        let (mut h, events) = Events::heap(HeapConfig { nursery_bytes: 2048, ..block_config() });
        let keep = h.alloc(ClassId(0), vec![Value::Int(1)]).unwrap();
        h.add_root(keep);
        for _ in 0..100 {
            h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 64])]).unwrap();
        }
        assert!(events.count(CollectKind::Minor) > 0, "nursery budget triggered minors");
        assert_eq!(events.count(CollectKind::Major), 0, "threshold disabled");
        assert!(h.is_live(keep));
        assert!(h.live_objects() < 101, "nursery garbage reclaimed");
    }

    #[test]
    fn remembered_set_keeps_nursery_child_of_mature_parent() {
        let mut h = Heap::new(block_config());
        let grand = h.alloc(ClassId(0), vec![Value::Unit]).unwrap();
        let parent = h.alloc(ClassId(0), vec![Value::Unit]).unwrap();
        h.add_root(grand);
        h.add_root(parent);
        h.collect(); // both now mature
        h.set_field(grand, 0, Value::Ref(parent));
        h.remove_root(parent); // reachable only through the rooted grandparent
                               // Nursery child reachable only via the (unrooted, mature) parent:
                               // minors trace it solely through the dirty-block remembered set.
        let child = h.alloc(ClassId(7), vec![Value::Int(33)]).unwrap();
        assert!(h.set_field(parent, 0, Value::Ref(child)));
        let out = h.collect_minor();
        assert_eq!(out.survivors, 1, "child evacuated");
        assert!(h.is_live(child));
        assert_eq!(h.field(child, 0), Some(&Value::Int(33)));
        assert_eq!(h.class_of(child), Some(ClassId(7)));
    }

    #[test]
    fn nursery_garbage_unreferenced_by_mature_dies_in_minor() {
        let mut h = Heap::new(block_config());
        let root = h.alloc(ClassId(0), vec![Value::Unit]).unwrap();
        h.add_root(root);
        h.collect();
        let dead = h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 32])]).unwrap();
        let out = h.collect_minor();
        assert_eq!(out.reclaimed, 1);
        assert!(!h.is_live(dead));
        assert!(h.is_live(root), "mature root untouched by minor");
    }

    #[test]
    fn large_objects_get_dedicated_spans_that_release_on_death() {
        let mut h = Heap::new(block_config()); // 4 KiB blocks
        let big = h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 20_000])]).unwrap();
        h.add_root(big);
        let stats = h.block_stats().unwrap();
        assert!(stats.committed_blocks >= 5, "20 KB needs ≥5 4-KiB blocks");
        h.collect();
        assert!(h.is_live(big), "large object survives major");
        h.remove_root(big);
        h.collect();
        assert!(!h.is_live(big));
        let after = h.block_stats().unwrap();
        assert!(
            after.committed_blocks < stats.committed_blocks,
            "dedicated span released: {} -> {}",
            stats.committed_blocks,
            after.committed_blocks
        );
    }

    #[test]
    fn free_cache_is_trimmed_after_major() {
        let (mut h, events) = Events::heap(block_config());
        // Burn through many nursery blocks of garbage.
        for _ in 0..200 {
            h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 1500])]).unwrap();
        }
        h.collect_minor(); // everything dies; blocks pile onto the free cache
        h.collect(); // major trims the cache
        let stats = h.block_stats().unwrap();
        assert!(
            stats.free_blocks <= MIN_FREE_CACHE as u64,
            "no live blocks → cache trimmed to the floor, got {}",
            stats.free_blocks
        );
        assert_eq!(stats.live_blocks, 0);
        // Fresh blocks are committed as allocations need them, and the
        // trimmed surplus is what the major releases.
        let committed: u64 = events.allocs.lock().iter().map(|e| e.committed_bytes).sum();
        let (_, major) = events.collects.lock()[1];
        assert_eq!(committed - major.released_bytes, 4096 * stats.committed_blocks);
    }

    #[test]
    fn object_grown_past_block_size_survives_evacuation() {
        let mut h = Heap::new(block_config());
        let id = h.alloc(ClassId(0), vec![Value::Unit]).unwrap();
        h.add_root(id);
        assert!(h.set_field(id, 0, Value::Bytes(vec![7; 10_000])));
        let out = h.collect_minor();
        assert_eq!(out.survivors, 1);
        assert!(h.is_live(id));
        match h.field(id, 0) {
            Some(Value::Bytes(b)) => assert_eq!(b.len(), 10_000),
            other => panic!("unexpected field {other:?}"),
        }
    }

    #[test]
    fn slot_generations_bump_across_block_recycling() {
        let mut h = Heap::new(block_config());
        let dead = h.alloc(ClassId(0), vec![]).unwrap();
        h.collect();
        let fresh = h.alloc(ClassId(1), vec![]).unwrap();
        assert_eq!(dead.index(), fresh.index(), "slot reused");
        assert!(!h.is_live(dead));
        assert!(h.is_live(fresh));
        assert_eq!(h.class_of(dead), None);
    }
}
