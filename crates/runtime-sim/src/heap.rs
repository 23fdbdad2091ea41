//! A managed heap with pluggable collectors behind a handle table.
//!
//! GraalVM native images embed a serial stop-and-copy collector (§6.4 of
//! the paper cites it as the cause of in-enclave GC overhead: the copy
//! phase moves every live byte through the MEE). This module implements
//! that collector as the [`CollectorKind::Semispace`] reference
//! implementation, and a segmented [`CollectorKind::Block`] heap that
//! collects generationally (see `docs/GC.md`):
//!
//! - `Semispace`: objects live in a *from-space* arena; collection
//!   traces from roots and **moves** every live object into a fresh
//!   *to-space*, so the bytes copied that a collection reports is
//!   exactly the live set — the traffic an enclave pays MEE costs on.
//! - `Block`: objects live in fixed-size blocks with size-class
//!   buckets; minor collections evacuate the nursery into survivor
//!   blocks and major collections mark-sweep the mature space, so EPC
//!   paging is charged per *block touched* instead of per semispace
//!   flip.
//! - References are generational handles ([`ObjId`]) resolved through a
//!   handle table, so moving objects never invalidates references and
//!   stale handles are detected instead of misread. Handle indirection
//!   is also what makes the collectors observationally identical: no
//!   collector ever rewrites a stored reference.
//! - A handle is also a weak reference: holding one never keeps its
//!   object alive, and [`Heap::is_live`] reads `false` from the
//!   collection that reclaims the object on — the primitive
//!   Montsalvat's GC helper builds on (§5.5).
//!
//! The heap keeps no counts, clock or recorder of its own. It reports
//! each allocation and each collection as one event to its one
//! [`HeapObserver`], whichever collector runs; the application's world
//! installs the observer that charges, counts and traces them.

use crate::value::{ClassId, ObjId, Value};

/// Per-object header bytes charged in the size model.
pub const OBJECT_HEADER_BYTES: u64 = 16;

/// Which collector implementation a heap runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectorKind {
    /// Serial stop-and-copy semispace collector — the reference
    /// implementation matching the paper's native-image GC (§6.4).
    #[default]
    Semispace,
    /// Segmented block/bucket heap with generational collection
    /// (nursery evacuation + mature mark-sweep).
    Block,
}

impl CollectorKind {
    /// Stable lowercase name (`"semispace"` | `"block"`), as reports
    /// and exports print it.
    pub fn name(&self) -> &'static str {
        match self {
            CollectorKind::Semispace => "semispace",
            CollectorKind::Block => "block",
        }
    }
}

/// Which generation a collection covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectKind {
    /// Nursery-only cycle: evacuate live nursery objects into survivor
    /// blocks. The semispace collector has no nursery and promotes
    /// minor requests to major.
    Minor,
    /// Full cycle over every generation.
    Major,
}

/// Block-heap occupancy counters, reported by [`Heap::block_stats`]
/// (`None` under the semispace collector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockStats {
    /// Configured block size in bytes.
    pub block_bytes: u64,
    /// Blocks currently committed (live + cached-free), in units of
    /// `block_bytes` (large objects count their rounded-up span).
    pub committed_blocks: u64,
    /// Committed blocks holding at least one live object.
    pub live_blocks: u64,
    /// Committed-but-empty blocks cached for reuse.
    pub free_blocks: u64,
    /// Blocks currently assigned to the nursery.
    pub nursery_blocks: u64,
    /// Object bytes allocated in the nursery since the last collection.
    pub nursery_used_bytes: u64,
}

/// Heap construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapConfig {
    /// Allocation volume between automatic major collections, in bytes.
    pub gc_threshold_bytes: u64,
    /// Hard cap on live bytes; exceeded means the managed application is
    /// out of memory. `u64::MAX` disables the cap.
    pub max_heap_bytes: u64,
    /// Which collector implementation to run: the only collector
    /// switch (default semispace).
    pub collector: CollectorKind,
    /// Block size for the block collector (ignored by semispace). Each
    /// [`CollectEvent`] carries it as the granule of its blocks touched,
    /// so heap geometry and EPC charging use the one granule.
    pub block_bytes: u64,
    /// Nursery allocation volume between automatic minor collections
    /// (block collector only).
    pub nursery_bytes: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        // Native images in the paper are built with 2 GB max heaps (§6.1).
        HeapConfig {
            gc_threshold_bytes: 32 * 1024 * 1024,
            max_heap_bytes: 2 * 1024 * 1024 * 1024,
            collector: CollectorKind::Semispace,
            block_bytes: 32 * 1024,
            nursery_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Result of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcOutcome {
    /// Objects that survived the collected generation(s).
    pub survivors: usize,
    /// Objects reclaimed.
    pub reclaimed: usize,
    /// Bytes moved (semispace copy phase / nursery evacuation).
    pub bytes_copied: u64,
    /// Bytes reclaimed.
    pub bytes_freed: u64,
    /// Whether this was a minor (nursery-only) cycle.
    pub minor: bool,
}

/// What one allocation did, as the heap reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocEvent {
    /// The object's charged size, all of it written.
    pub bytes: u64,
    /// Fresh storage committed to hold it: the object itself under
    /// semispace; a fresh block, or 0, under the block collector.
    pub committed_bytes: u64,
    /// Live bytes after the allocation.
    pub live_bytes: u64,
}

/// What one collection did, as the heap reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectEvent {
    /// What [`Heap::collect`] returns.
    pub outcome: GcOutcome,
    /// Objects the block collector's tracing marked (0 under
    /// semispace, whose copy phase is charged per byte instead).
    pub marked_objects: u64,
    /// Distinct blocks read or written (0 under semispace).
    pub blocks_touched: u64,
    /// The granule of `blocks_touched` ([`HeapConfig::block_bytes`]).
    pub block_bytes: u64,
    /// Fresh storage committed by the cycle (survivor blocks).
    pub committed_bytes: u64,
    /// Committed storage released: the bytes freed under semispace,
    /// the trimmed free blocks under the block collector.
    pub released_bytes: u64,
    /// Live bytes after the collection.
    pub live_bytes: u64,
    /// Block occupancy after the collection (`None` under semispace).
    pub block_stats: Option<BlockStats>,
}

/// The one report path of a heap: every allocation and every collection
/// is one event, whichever collector runs.
///
/// Both methods run under the heap lock, so they must be cheap.
pub trait HeapObserver: Send + Sync {
    /// One object was allocated.
    fn on_alloc(&self, event: &AllocEvent);

    /// A `kind` collection is due. `collect` runs it and returns what it
    /// did; an observer calls it exactly once, so it can read a clock
    /// or open a span before the collection and charge and count after.
    fn on_collect(&self, kind: CollectKind, collect: &mut dyn FnMut() -> CollectEvent);
}

#[derive(Debug)]
pub(crate) struct Slot {
    gen: u32,
    /// Collector storage reference, or `None` while free.
    target: Option<u32>,
}

/// One stored object: its handle slot, class, fields and charged size.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) slot: u32,
    pub(crate) class: ClassId,
    pub(crate) fields: Vec<Value>,
    pub(crate) size: u64,
}

/// Result of inserting an entry into a collector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AllocEffect {
    /// Storage reference the handle table should point at.
    pub(crate) store_ref: u32,
    /// Storage committed to satisfy the insert, as
    /// [`AllocEvent::committed_bytes`] reports it.
    pub(crate) committed_bytes: u64,
}

/// Handle-table view lent to a collector for the duration of one
/// collection. Collectors resolve refs, retarget surviving slots and
/// kill dead ones through this — they never touch slot internals, so
/// generation bumping and free-slot recycling stay identical across
/// collectors.
pub(crate) struct GcCx<'a> {
    slots: &'a mut Vec<Slot>,
    free_slots: &'a mut Vec<u32>,
    roots: &'a std::collections::HashMap<u32, u32>,
}

impl GcCx<'_> {
    /// Resolves a handle to its storage reference, `None` when stale.
    pub(crate) fn resolve(&self, id: ObjId) -> Option<u32> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.target
    }

    /// Storage reference currently held by `slot_idx`, if any.
    pub(crate) fn target_of_slot(&self, slot_idx: u32) -> Option<u32> {
        self.slots[slot_idx as usize].target
    }

    /// Root slot indices (iteration order is not deterministic; callers
    /// must not let it influence outcomes).
    pub(crate) fn root_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.roots.keys().copied()
    }

    /// Points a surviving slot at the entry's new storage reference.
    pub(crate) fn retarget(&mut self, slot_idx: u32, store_ref: u32) {
        self.slots[slot_idx as usize].target = Some(store_ref);
    }

    /// Kills a dead slot: clears the target, bumps the generation so
    /// stale handles cannot resurrect it, recycles the slot index.
    pub(crate) fn kill(&mut self, slot_idx: u32) {
        let slot = &mut self.slots[slot_idx as usize];
        slot.target = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free_slots.push(slot_idx);
    }
}

/// Storage + collection strategy behind the [`Heap`] facade.
///
/// The facade owns handles, roots and the observer; implementations
/// own object storage and the trace / reclaim algorithm. All mutation
/// happens under the heap's external lock, so implementations need no
/// internal synchronisation.
pub(crate) trait Collector: std::fmt::Debug + Send {
    /// Which implementation this is.
    fn kind(&self) -> CollectorKind;
    /// Stores `entry` and returns where, plus any residency growth.
    fn insert(&mut self, entry: Entry) -> AllocEffect;
    /// Shared access to a stored entry.
    fn entry(&self, store_ref: u32) -> &Entry;
    /// Mutable access to a stored entry.
    fn entry_mut(&mut self, store_ref: u32) -> &mut Entry;
    /// Number of live entries.
    fn len(&self) -> usize;
    /// Iterates all live entries in a deterministic storage order.
    fn iter_entries(&self) -> Box<dyn Iterator<Item = &Entry> + '_>;
    /// Accounts an in-place field resize on the entry's containing
    /// storage; `wrote_ref` feeds the remembered set.
    fn note_field_write(&mut self, store_ref: u32, old_size: u64, new_size: u64, wrote_ref: bool);
    /// Whether an automatic collection should run before the next
    /// allocation, and of which kind.
    fn due(&self, alloc_since_gc: u64, config: &HeapConfig) -> Option<CollectKind>;
    /// Runs one collection over the handle table view. The heap fills
    /// in the event's live bytes, granule and block occupancy.
    fn collect(&mut self, kind: CollectKind, cx: &mut GcCx<'_>) -> CollectEvent;
    /// Block occupancy, for heaps that have blocks.
    fn block_stats(&self) -> Option<BlockStats>;
}

/// The serial stop-and-copy reference collector (paper §6.4). Kept
/// bit-identical to the pre-trait implementation: arena push order,
/// copy order and free-slot recycling order are unchanged.
#[derive(Debug, Default)]
struct Semispace {
    arena: Vec<Entry>,
}

impl Collector for Semispace {
    fn kind(&self) -> CollectorKind {
        CollectorKind::Semispace
    }

    fn insert(&mut self, entry: Entry) -> AllocEffect {
        let committed_bytes = entry.size;
        self.arena.push(entry);
        AllocEffect { store_ref: (self.arena.len() - 1) as u32, committed_bytes }
    }

    fn entry(&self, store_ref: u32) -> &Entry {
        &self.arena[store_ref as usize]
    }

    fn entry_mut(&mut self, store_ref: u32) -> &mut Entry {
        &mut self.arena[store_ref as usize]
    }

    fn len(&self) -> usize {
        self.arena.len()
    }

    fn iter_entries(&self) -> Box<dyn Iterator<Item = &Entry> + '_> {
        Box::new(self.arena.iter())
    }

    fn note_field_write(&mut self, _r: u32, _old: u64, _new: u64, _wrote_ref: bool) {}

    fn due(&self, alloc_since_gc: u64, config: &HeapConfig) -> Option<CollectKind> {
        (alloc_since_gc >= config.gc_threshold_bytes).then_some(CollectKind::Major)
    }

    fn collect(&mut self, _kind: CollectKind, cx: &mut GcCx<'_>) -> CollectEvent {
        let old_len = self.arena.len();
        // Trace: mark live arena entries via BFS from roots.
        let mut live = vec![false; old_len];
        let mut stack: Vec<u32> = Vec::new();
        for slot_idx in cx.root_slots() {
            if let Some(arena_idx) = cx.target_of_slot(slot_idx) {
                if !live[arena_idx as usize] {
                    live[arena_idx as usize] = true;
                    stack.push(arena_idx);
                }
            }
        }
        while let Some(arena_idx) = stack.pop() {
            // Collect child refs first to appease the borrow checker.
            let mut children: Vec<ObjId> = Vec::new();
            for field in &self.arena[arena_idx as usize].fields {
                field.for_each_ref(&mut |id| children.push(id));
            }
            for child in children {
                if let Some(child_idx) = cx.resolve(child) {
                    if !live[child_idx as usize] {
                        live[child_idx as usize] = true;
                        stack.push(child_idx);
                    }
                }
            }
        }
        // Copy phase: move live entries to the new arena in order.
        let mut new_arena: Vec<Entry> = Vec::with_capacity(live.iter().filter(|l| **l).count());
        let mut outcome = GcOutcome::default();
        for (idx, entry) in std::mem::take(&mut self.arena).into_iter().enumerate() {
            if live[idx] {
                outcome.bytes_copied += entry.size;
                outcome.survivors += 1;
                cx.retarget(entry.slot, new_arena.len() as u32);
                new_arena.push(entry);
            } else {
                outcome.bytes_freed += entry.size;
                outcome.reclaimed += 1;
                cx.kill(entry.slot);
            }
        }
        self.arena = new_arena;
        // Each object commits its own storage, so what dies is released.
        CollectEvent { outcome, released_bytes: outcome.bytes_freed, ..CollectEvent::default() }
    }

    fn block_stats(&self) -> Option<BlockStats> {
        None
    }
}

/// Error raised when the configured heap maximum is exceeded even after
/// collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Live bytes at the point of failure.
    pub live_bytes: u64,
    /// Requested allocation size.
    pub requested: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "managed heap exhausted: {} live bytes + {} requested",
            self.live_bytes, self.requested
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A managed heap with a pluggable stop-the-world collector.
///
/// Not internally synchronised; callers (an
/// [`Isolate`](crate::isolate::Isolate)) wrap it in a lock. All
/// `&mut self` operations are stop-the-world by construction.
///
/// # Examples
///
/// ```
/// use runtime_sim::heap::{Heap, HeapConfig};
/// use runtime_sim::value::{ClassId, Value};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let account = heap.alloc(ClassId(1), vec![Value::from("Alice"), Value::from(100i64)]).unwrap();
/// heap.add_root(account);
/// heap.collect();
/// assert!(heap.is_live(account));
/// heap.remove_root(account);
/// heap.collect();
/// assert!(!heap.is_live(account));
/// ```
pub struct Heap {
    config: HeapConfig,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    store: Box<dyn Collector>,
    roots: std::collections::HashMap<u32, u32>,
    live_bytes: u64,
    alloc_since_gc: u64,
    observer: Option<std::sync::Arc<dyn HeapObserver>>,
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("collector", &self.store.kind())
            .field("live_objects", &self.store.len())
            .field("live_bytes", &self.live_bytes)
            .field("roots", &self.roots.len())
            .finish()
    }
}

impl Heap {
    /// Creates an empty heap running the configured collector.
    pub fn new(config: HeapConfig) -> Self {
        let store: Box<dyn Collector> = match config.collector {
            CollectorKind::Semispace => Box::new(Semispace::default()),
            CollectorKind::Block => {
                Box::new(crate::block::BlockHeap::new(config.block_bytes.max(1)))
            }
        };
        Heap {
            config,
            slots: Vec::new(),
            free_slots: Vec::new(),
            store,
            roots: std::collections::HashMap::new(),
            live_bytes: 0,
            alloc_since_gc: 0,
            observer: None,
        }
    }

    /// Installs the observer this heap reports every allocation and
    /// collection to. At most one observer is supported; installing
    /// replaces the previous one.
    pub fn set_observer(&mut self, observer: std::sync::Arc<dyn HeapObserver>) {
        self.observer = Some(observer);
    }

    /// Which collector implementation this heap runs.
    pub fn collector_kind(&self) -> CollectorKind {
        self.store.kind()
    }

    /// Block occupancy counters (`None` under semispace).
    pub fn block_stats(&self) -> Option<BlockStats> {
        self.store.block_stats()
    }

    /// Bytes currently live (last-GC live set plus subsequent allocation).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        self.store.len()
    }

    fn object_size(fields: &[Value]) -> u64 {
        OBJECT_HEADER_BYTES + fields.iter().map(Value::shallow_size).sum::<u64>()
    }

    /// Allocates an object, running an automatic collection first when
    /// the collector decides one is due (semispace: allocation budget
    /// since the last GC exhausted; block: nursery full → minor,
    /// budget exhausted → major).
    ///
    /// Field values containing [`Value::Ref`]s must reference live,
    /// *rooted* objects — an automatic collection may run before the new
    /// object exists, and unrooted referents would be reclaimed by it.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when live bytes would exceed the
    /// configured maximum even after a forced collection.
    pub fn alloc(&mut self, class: ClassId, fields: Vec<Value>) -> Result<ObjId, OutOfMemory> {
        let size = Self::object_size(&fields);
        if let Some(kind) = self.store.due(self.alloc_since_gc, &self.config) {
            self.collect_kind(kind);
        }
        if self.live_bytes + size > self.config.max_heap_bytes {
            self.collect();
            if self.live_bytes + size > self.config.max_heap_bytes {
                return Err(OutOfMemory { live_bytes: self.live_bytes, requested: size });
            }
        }
        let slot_idx = match self.free_slots.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, target: None });
                (self.slots.len() - 1) as u32
            }
        };
        let effect = self.store.insert(Entry { slot: slot_idx, class, fields, size });
        self.slots[slot_idx as usize].target = Some(effect.store_ref);
        self.live_bytes += size;
        self.alloc_since_gc += size;
        if let Some(observer) = &self.observer {
            observer.on_alloc(&AllocEvent {
                bytes: size,
                committed_bytes: effect.committed_bytes,
                live_bytes: self.live_bytes,
            });
        }
        Ok(ObjId { index: slot_idx, gen: self.slots[slot_idx as usize].gen })
    }

    fn resolve(&self, id: ObjId) -> Option<u32> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.target
    }

    /// Whether `id` refers to a live object.
    pub fn is_live(&self, id: ObjId) -> bool {
        self.resolve(id).is_some()
    }

    /// The class of a live object.
    pub fn class_of(&self, id: ObjId) -> Option<ClassId> {
        self.resolve(id).map(|i| self.store.entry(i).class)
    }

    /// Shared view of an object's fields.
    pub fn fields(&self, id: ObjId) -> Option<&[Value]> {
        self.resolve(id).map(|i| self.store.entry(i).fields.as_slice())
    }

    /// Reads one field by index.
    pub fn field(&self, id: ObjId, idx: usize) -> Option<&Value> {
        self.fields(id)?.get(idx)
    }

    /// Writes one field by index, updating size accounting (and, under
    /// the block collector, the dirty-block remembered set when a ref
    /// is written into a mature object).
    ///
    /// Returns `false` if the object is dead or the index out of range.
    pub fn set_field(&mut self, id: ObjId, idx: usize, value: Value) -> bool {
        let Some(store_ref) = self.resolve(id) else { return false };
        let mut wrote_ref = false;
        value.for_each_ref(&mut |_| wrote_ref = true);
        let new_size = value.shallow_size();
        let entry = self.store.entry_mut(store_ref);
        let Some(slot_ref) = entry.fields.get_mut(idx) else { return false };
        let old_size = slot_ref.shallow_size();
        *slot_ref = value;
        entry.size = entry.size + new_size - old_size;
        self.store.note_field_write(store_ref, old_size, new_size, wrote_ref);
        self.live_bytes = self.live_bytes + new_size - old_size;
        true
    }

    /// Registers `id` as a GC root (counted; call
    /// [`Heap::remove_root`] symmetrically).
    pub fn add_root(&mut self, id: ObjId) {
        if self.resolve(id).is_some() {
            *self.roots.entry(id.index).or_insert(0) += 1;
        }
    }

    /// Releases one root registration of `id`.
    pub fn remove_root(&mut self, id: ObjId) {
        if let Some(count) = self.roots.get_mut(&id.index) {
            *count -= 1;
            if *count == 0 {
                self.roots.remove(&id.index);
            }
        }
    }

    /// Current root registrations (distinct objects).
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Runs a full (major) collection and returns its outcome.
    ///
    /// Live objects are those reachable from roots by following `Ref`
    /// fields. Dead slots are generation-bumped so stale handles cannot
    /// resurrect them: [`Heap::is_live`] reads `false` for every handle
    /// to a reclaimed object.
    /// Under semispace every live object is *moved* into a fresh arena
    /// (the copy phase whose byte volume is reported to the observer);
    /// under the block collector the nursery is evacuated and the
    /// mature space swept in place.
    pub fn collect(&mut self) -> GcOutcome {
        self.collect_kind(CollectKind::Major)
    }

    /// Runs a minor (nursery) collection. Under semispace — which has
    /// no nursery — this is promoted to a full collection so counters
    /// stay truthful.
    pub fn collect_minor(&mut self) -> GcOutcome {
        let kind = match self.store.kind() {
            CollectorKind::Block => CollectKind::Minor,
            CollectorKind::Semispace => CollectKind::Major,
        };
        self.collect_kind(kind)
    }

    /// Runs a `kind` collection through the observer, which reports it.
    fn collect_kind(&mut self, kind: CollectKind) -> GcOutcome {
        let Some(observer) = self.observer.clone() else {
            return self.run_collection(kind).outcome;
        };
        let mut outcome = GcOutcome::default();
        observer.on_collect(kind, &mut || {
            let event = self.run_collection(kind);
            outcome = event.outcome;
            event
        });
        outcome
    }

    fn run_collection(&mut self, kind: CollectKind) -> CollectEvent {
        let mut cx =
            GcCx { slots: &mut self.slots, free_slots: &mut self.free_slots, roots: &self.roots };
        let mut event = self.store.collect(kind, &mut cx);
        event.outcome.minor = kind == CollectKind::Minor;
        self.live_bytes -= event.outcome.bytes_freed;
        if kind == CollectKind::Major {
            self.alloc_since_gc = 0;
        }
        event.live_bytes = self.live_bytes;
        event.block_bytes = self.config.block_bytes;
        event.block_stats = self.store.block_stats();
        event
    }

    /// Iterates over all live objects as `(id, class, fields)`.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, ClassId, &[Value])> + '_ {
        let slots = &self.slots;
        self.store.iter_entries().map(move |e| {
            (ObjId { index: e.slot, gen: slots[e.slot as usize].gen }, e.class, e.fields.as_slice())
        })
    }

    /// Objects currently registered as roots.
    pub fn root_ids(&self) -> Vec<ObjId> {
        self.roots
            .keys()
            .map(|&slot_idx| ObjId { index: slot_idx, gen: self.slots[slot_idx as usize].gen })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Keeps every event a heap reports.
    #[derive(Debug, Default)]
    pub(crate) struct Events {
        pub(crate) allocs: Mutex<Vec<AllocEvent>>,
        pub(crate) collects: Mutex<Vec<(CollectKind, CollectEvent)>>,
    }

    impl Events {
        /// A heap over `config` that reports to a fresh `Events`.
        pub(crate) fn heap(config: HeapConfig) -> (Heap, Arc<Events>) {
            let events = Arc::new(Events::default());
            let mut heap = Heap::new(config);
            heap.set_observer(events.clone());
            (heap, events)
        }

        /// Collections of `kind` reported so far.
        pub(crate) fn count(&self, kind: CollectKind) -> usize {
            self.collects.lock().iter().filter(|(k, _)| *k == kind).count()
        }
    }

    impl HeapObserver for Events {
        fn on_alloc(&self, event: &AllocEvent) {
            self.allocs.lock().push(*event);
        }

        fn on_collect(&self, kind: CollectKind, collect: &mut dyn FnMut() -> CollectEvent) {
            let event = collect();
            self.collects.lock().push((kind, event));
        }
    }

    fn config() -> HeapConfig {
        HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() }
    }

    fn heap() -> Heap {
        Heap::new(config())
    }

    #[test]
    fn alloc_and_read_fields() {
        let mut h = heap();
        let id = h.alloc(ClassId(3), vec![Value::Int(7), Value::from("x")]).unwrap();
        assert_eq!(h.class_of(id), Some(ClassId(3)));
        assert_eq!(h.field(id, 0), Some(&Value::Int(7)));
        assert_eq!(h.field(id, 1).unwrap().as_str(), Some("x"));
        assert_eq!(h.live_objects(), 1);
    }

    #[test]
    fn set_field_updates_size_accounting() {
        let mut h = heap();
        let id = h.alloc(ClassId(0), vec![Value::Unit]).unwrap();
        let before = h.live_bytes();
        assert!(h.set_field(id, 0, Value::Bytes(vec![0; 100])));
        assert_eq!(h.live_bytes(), before + 100);
        assert!(!h.set_field(id, 5, Value::Unit), "out of range");
    }

    #[test]
    fn unrooted_objects_are_reclaimed() {
        let mut h = heap();
        let id = h.alloc(ClassId(0), vec![]).unwrap();
        let out = h.collect();
        assert_eq!(out.reclaimed, 1);
        assert!(!h.is_live(id));
        assert_eq!(h.live_objects(), 0);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn rooted_objects_survive_and_handles_stay_valid() {
        let mut h = heap();
        let id = h.alloc(ClassId(9), vec![Value::Int(1)]).unwrap();
        h.add_root(id);
        for _ in 0..3 {
            let out = h.collect();
            assert_eq!(out.survivors, 1);
        }
        assert_eq!(h.field(id, 0), Some(&Value::Int(1)));
    }

    #[test]
    fn reachability_is_transitive() {
        let mut h = heap();
        let leaf = h.alloc(ClassId(0), vec![Value::Int(42)]).unwrap();
        let mid = h.alloc(ClassId(0), vec![Value::Ref(leaf)]).unwrap();
        let root = h.alloc(ClassId(0), vec![Value::List(vec![Value::Ref(mid)])]).unwrap();
        h.add_root(root);
        let out = h.collect();
        assert_eq!(out.survivors, 3);
        assert!(h.is_live(leaf) && h.is_live(mid) && h.is_live(root));
    }

    #[test]
    fn cycles_are_collected_when_unrooted() {
        let mut h = heap();
        let a = h.alloc(ClassId(0), vec![Value::Unit]).unwrap();
        let b = h.alloc(ClassId(0), vec![Value::Ref(a)]).unwrap();
        h.set_field(a, 0, Value::Ref(b));
        let out = h.collect();
        assert_eq!(out.reclaimed, 2);
    }

    #[test]
    fn stale_handles_do_not_resurrect_slots() {
        let mut h = heap();
        let dead = h.alloc(ClassId(0), vec![]).unwrap();
        h.collect();
        // Slot is reused by a fresh allocation.
        let fresh = h.alloc(ClassId(1), vec![]).unwrap();
        assert_eq!(dead.index(), fresh.index(), "slot reused");
        assert!(!h.is_live(dead));
        assert!(h.is_live(fresh));
        assert_eq!(h.class_of(dead), None);
    }

    #[test]
    fn auto_gc_triggers_on_threshold() {
        let (mut h, events) =
            Events::heap(HeapConfig { gc_threshold_bytes: 1024, ..HeapConfig::default() });
        for _ in 0..200 {
            h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 64])]).unwrap();
        }
        assert!(events.count(CollectKind::Major) > 0, "automatic GC ran");
        assert!(h.live_objects() < 200, "garbage was reclaimed");
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut h = Heap::new(HeapConfig {
            gc_threshold_bytes: u64::MAX,
            max_heap_bytes: 4096,
            ..HeapConfig::default()
        });
        let big = h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 2048])]).unwrap();
        h.add_root(big);
        let err = h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 4096])]).unwrap_err();
        assert!(err.requested > 4096);
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn oom_recovers_by_collecting_garbage() {
        let mut h = Heap::new(HeapConfig {
            gc_threshold_bytes: u64::MAX,
            max_heap_bytes: 8192,
            ..HeapConfig::default()
        });
        for _ in 0..3 {
            h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 2000])]).unwrap();
        }
        // Garbage fills the heap; a forced GC must rescue this alloc.
        let id = h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 4000])]).unwrap();
        assert!(h.is_live(id));
    }

    #[test]
    fn a_semispace_commits_each_object_and_releases_what_it_frees() {
        let (mut h, events) = Events::heap(config());
        let live = h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 100])]).unwrap();
        h.add_root(live);
        h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 50])]).unwrap();
        let out = h.collect();
        let allocs = events.allocs.lock().clone();
        assert_eq!(allocs.len(), 2);
        for event in &allocs {
            assert_eq!(event.committed_bytes, event.bytes, "each object commits itself");
        }
        assert_eq!(allocs[1].live_bytes, allocs[0].bytes + allocs[1].bytes);
        let collects = events.collects.lock().clone();
        let [(CollectKind::Major, event)] = collects[..] else { panic!("{collects:?}") };
        assert_eq!(event.outcome, out);
        assert_eq!((out.bytes_copied, out.bytes_freed), (allocs[0].bytes, allocs[1].bytes));
        assert_eq!(event.released_bytes, out.bytes_freed);
        assert_eq!((event.committed_bytes, event.marked_objects, event.blocks_touched), (0, 0, 0));
        assert_eq!(event.live_bytes, h.live_bytes());
        assert_eq!(event.block_stats, None);
    }

    #[test]
    fn iter_yields_live_objects_with_valid_ids() {
        let mut h = heap();
        let a = h.alloc(ClassId(1), vec![Value::Int(1)]).unwrap();
        let b = h.alloc(ClassId(2), vec![Value::Int(2)]).unwrap();
        h.add_root(a);
        h.add_root(b);
        h.collect();
        let ids: Vec<ObjId> = h.iter().map(|(id, _, _)| id).collect();
        assert_eq!(ids.len(), 2);
        for id in ids {
            assert!(h.is_live(id));
        }
    }

    #[test]
    fn root_counting_is_balanced() {
        let mut h = heap();
        let id = h.alloc(ClassId(0), vec![]).unwrap();
        h.add_root(id);
        h.add_root(id);
        h.remove_root(id);
        h.collect();
        assert!(h.is_live(id), "still one root held");
        h.remove_root(id);
        h.collect();
        assert!(!h.is_live(id));
    }

    #[test]
    fn semispace_has_no_block_stats_and_promotes_minor() {
        let (mut h, events) = Events::heap(config());
        assert_eq!(h.collector_kind(), CollectorKind::Semispace);
        assert_eq!(CollectorKind::Semispace.name(), "semispace");
        assert_eq!(CollectorKind::Block.name(), "block");
        assert!(h.block_stats().is_none());
        let id = h.alloc(ClassId(0), vec![]).unwrap();
        let out = h.collect_minor();
        assert!(!out.minor, "semispace promotes minor to major");
        assert_eq!((events.count(CollectKind::Major), events.count(CollectKind::Minor)), (1, 0));
        assert!(!h.is_live(id));
    }
}
