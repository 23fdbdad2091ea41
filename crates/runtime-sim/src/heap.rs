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
//!   *to-space*, so the bytes-copied figure reported to the
//!   [`HeapObserver`] is exactly the live set — the traffic an enclave
//!   pays MEE costs on.
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

use std::time::Instant;

use crate::value::{ClassId, ObjId, Value};

/// Per-object header bytes charged in the size model.
pub const OBJECT_HEADER_BYTES: u64 = 16;

/// Observer hooks for memory traffic, used to charge enclave costs.
///
/// All methods have empty defaults so observers implement only what they
/// need. Implementations must be cheap; they run under the heap lock.
///
/// The semispace collector reports through [`HeapObserver::on_alloc`] /
/// [`HeapObserver::on_gc_copy`] / [`HeapObserver::on_free`] exactly as
/// before; the block collector splits residency from traffic: block
/// commits/releases move EPC residency while `on_block_alloc`,
/// `on_gc_mark` and `on_gc_blocks_touched` are pure traffic.
pub trait HeapObserver: Send + Sync {
    /// `bytes` of new allocation were committed (semispace path:
    /// residency and write traffic in one).
    fn on_alloc(&self, bytes: u64) {
        let _ = bytes;
    }
    /// A collection copied `bytes` of live data (semispace copy phase,
    /// or nursery evacuation under the block collector).
    fn on_gc_copy(&self, bytes: u64) {
        let _ = bytes;
    }
    /// `bytes` of dead data were reclaimed (semispace path).
    fn on_free(&self, bytes: u64) {
        let _ = bytes;
    }
    /// The block heap committed `bytes` of fresh block storage
    /// (residency growth; the block analogue of the grow half of
    /// [`HeapObserver::on_alloc`]).
    fn on_block_commit(&self, bytes: u64) {
        let _ = bytes;
    }
    /// `bytes` were written into already-committed blocks (allocation
    /// write traffic without residency growth).
    fn on_block_alloc(&self, bytes: u64) {
        let _ = bytes;
    }
    /// The block heap released `bytes` of committed block storage back
    /// to the OS (residency shrink).
    fn on_block_release(&self, bytes: u64) {
        let _ = bytes;
    }
    /// A collection marked `objects` live objects (block-collector
    /// tracing work).
    fn on_gc_mark(&self, objects: u64) {
        let _ = objects;
    }
    /// A collection touched `blocks` distinct blocks of `block_bytes`
    /// each (per-block EPC paging granule).
    fn on_gc_blocks_touched(&self, blocks: u64, block_bytes: u64) {
        let _ = (blocks, block_bytes);
    }
}

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
    /// Block size for the block collector (ignored by semispace). The
    /// heap hands it to [`HeapObserver::on_gc_blocks_touched`], so heap
    /// geometry and EPC charging use the one granule.
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

/// Counters describing heap activity since creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Completed collections (minor + major).
    pub collections: u64,
    /// Completed minor (nursery) collections.
    pub minor_collections: u64,
    /// Completed major (full) collections.
    pub major_collections: u64,
    /// Objects allocated.
    pub objects_allocated: u64,
    /// Objects reclaimed by GC.
    pub objects_freed: u64,
    /// Bytes allocated.
    pub bytes_allocated: u64,
    /// Live bytes copied by all collections.
    pub bytes_copied: u64,
    /// Bytes reclaimed by all collections.
    pub bytes_freed: u64,
    /// Real time spent inside [`Heap::collect`], in nanoseconds.
    pub gc_real_ns: u64,
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
    /// Fresh block bytes committed to satisfy the insert (0 when the
    /// object fit in already-committed storage; semispace always 0).
    pub(crate) committed_bytes: u64,
}

/// What one collection did, beyond the externally visible
/// [`GcOutcome`]: the work/residency figures the heap reports to the
/// observer and recorder.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CollectResult {
    pub(crate) outcome: GcOutcome,
    /// Objects marked live by tracing.
    pub(crate) marked_objects: u64,
    /// Distinct blocks read or written by the cycle (0 for semispace).
    pub(crate) blocks_touched: u64,
    /// Fresh block bytes committed (survivor-space growth).
    pub(crate) committed_bytes: u64,
    /// Committed block bytes released back to the OS.
    pub(crate) released_bytes: u64,
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
/// The facade owns handles, roots, stats, observers and
/// telemetry; implementations own object storage and the trace /
/// reclaim algorithm. All mutation happens under the heap's external
/// lock, so implementations need no internal synchronisation.
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
    /// Runs one collection over the handle table view.
    fn collect(&mut self, kind: CollectKind, cx: &mut GcCx<'_>) -> CollectResult;
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
        self.arena.push(entry);
        AllocEffect { store_ref: (self.arena.len() - 1) as u32, committed_bytes: 0 }
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

    fn collect(&mut self, _kind: CollectKind, cx: &mut GcCx<'_>) -> CollectResult {
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
        let marked = outcome.survivors as u64;
        CollectResult {
            outcome,
            marked_objects: marked,
            blocks_touched: 0,
            committed_bytes: 0,
            released_bytes: 0,
        }
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
    stats: HeapStats,
    observer: Option<std::sync::Arc<dyn HeapObserver>>,
    recorder: Option<std::sync::Arc<telemetry::Recorder>>,
    trace: Option<TraceSink>,
    /// The owner's model clock (total charged nanoseconds; the heap
    /// itself has no cost clock). When installed, GC pauses are also
    /// recorded in model time, and pause spans are stamped with it.
    charge_clock: Option<std::sync::Arc<dyn Fn() -> u64 + Send + Sync>>,
}

/// Trace wiring installed by [`Heap::set_tracer`]: the sink and which
/// runtime lane this heap's pauses belong to.
struct TraceSink {
    tracer: std::sync::Arc<telemetry::trace::Tracer>,
    lane: telemetry::trace::Lane,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").field("lane", &self.lane).finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("collector", &self.store.kind())
            .field("live_objects", &self.store.len())
            .field("live_bytes", &self.live_bytes)
            .field("roots", &self.roots.len())
            .field("stats", &self.stats)
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
            stats: HeapStats::default(),
            observer: None,
            recorder: None,
            trace: None,
            charge_clock: None,
        }
    }

    /// Installs the traffic observer (e.g. the enclave charger). At most
    /// one observer is supported; installing replaces the previous one.
    pub fn set_observer(&mut self, observer: std::sync::Arc<dyn HeapObserver>) {
        self.observer = Some(observer);
    }

    /// Installs the telemetry recorder this heap reports GC cycles,
    /// allocation volume and pause times into. At most one recorder is
    /// supported; installing replaces the previous one.
    pub fn set_recorder(&mut self, recorder: std::sync::Arc<telemetry::Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Installs the trace sink GC pauses are reported into: `lane`
    /// says which runtime this isolate's heap belongs to. Pause spans
    /// are stamped with the charge clock ([`Heap::set_charge_clock`];
    /// 0 until one is installed). A pause triggered mid-call nests
    /// under the span active on the allocating thread.
    pub fn set_tracer(
        &mut self,
        tracer: std::sync::Arc<telemetry::trace::Tracer>,
        lane: telemetry::trace::Lane,
    ) {
        self.trace = Some(TraceSink { tracer, lane });
    }

    /// Installs the owner's model clock (typically
    /// `move || cost.charged_ns()`). When present, each collection also
    /// records its pause in *model* nanoseconds — the charged-cost delta
    /// across the cycle — into `gc.pause_model_ns`, which is
    /// reproducible run-to-run unlike the wall-clock pause.
    pub fn set_charge_clock(&mut self, clock: std::sync::Arc<dyn Fn() -> u64 + Send + Sync>) {
        self.charge_clock = Some(clock);
    }

    /// The configuration the heap was created with.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Which collector implementation this heap runs.
    pub fn collector_kind(&self) -> CollectorKind {
        self.store.kind()
    }

    /// Block occupancy counters (`None` under semispace).
    pub fn block_stats(&self) -> Option<BlockStats> {
        self.store.block_stats()
    }

    /// Activity counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
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
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size;
        if let Some(obs) = &self.observer {
            match self.store.kind() {
                CollectorKind::Semispace => obs.on_alloc(size),
                CollectorKind::Block => {
                    if effect.committed_bytes > 0 {
                        obs.on_block_commit(effect.committed_bytes);
                    }
                    obs.on_block_alloc(size);
                }
            }
        }
        if let Some(rec) = &self.recorder {
            rec.incr(telemetry::Counter::HeapAllocObjects);
            rec.add(telemetry::Counter::HeapAllocBytes, size);
            rec.gauge_max(telemetry::Gauge::HeapLiveBytesPeak, self.live_bytes);
            rec.gauge_set(telemetry::Gauge::HeapLiveBytes, self.live_bytes);
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

    fn collect_kind(&mut self, kind: CollectKind) -> GcOutcome {
        let started = Instant::now();
        let charge_start = self.charge_clock.as_ref().map(|clock| clock());
        // Open the pause span before any work so the cycle's MEE and
        // paging charges (billed through the observer below) land
        // inside it.
        let gc_span = self.trace.as_ref().and_then(|sink| {
            sink.tracer.start(
                sink.lane,
                "gc",
                telemetry::trace::current(),
                || self.charge_clock.as_ref().map_or(0, |clock| clock()),
                || match kind {
                    CollectKind::Minor => "gc:minor".to_owned(),
                    CollectKind::Major => "gc:collect".to_owned(),
                },
            )
        });
        let result = {
            let mut cx = GcCx {
                slots: &mut self.slots,
                free_slots: &mut self.free_slots,
                roots: &self.roots,
            };
            self.store.collect(kind, &mut cx)
        };
        let mut outcome = result.outcome;
        outcome.minor = kind == CollectKind::Minor;
        self.live_bytes -= outcome.bytes_freed;
        if kind == CollectKind::Major {
            self.alloc_since_gc = 0;
        }
        self.stats.collections += 1;
        match kind {
            CollectKind::Minor => self.stats.minor_collections += 1,
            CollectKind::Major => self.stats.major_collections += 1,
        }
        self.stats.objects_freed += outcome.reclaimed as u64;
        self.stats.bytes_copied += outcome.bytes_copied;
        self.stats.bytes_freed += outcome.bytes_freed;
        let pause_ns = started.elapsed().as_nanos() as u64;
        self.stats.gc_real_ns += pause_ns;
        if let Some(obs) = &self.observer {
            match self.store.kind() {
                CollectorKind::Semispace => {
                    obs.on_gc_copy(outcome.bytes_copied);
                    obs.on_free(outcome.bytes_freed);
                }
                CollectorKind::Block => {
                    obs.on_gc_mark(result.marked_objects);
                    obs.on_gc_blocks_touched(result.blocks_touched, self.config.block_bytes);
                    if result.committed_bytes > 0 {
                        obs.on_block_commit(result.committed_bytes);
                    }
                    obs.on_gc_copy(outcome.bytes_copied);
                    if result.released_bytes > 0 {
                        obs.on_block_release(result.released_bytes);
                    }
                }
            }
        }
        if let Some(rec) = &self.recorder {
            rec.incr(telemetry::Counter::GcCollections);
            rec.incr(match kind {
                CollectKind::Minor => telemetry::Counter::GcMinorCollections,
                CollectKind::Major => telemetry::Counter::GcMajorCollections,
            });
            rec.add(telemetry::Counter::GcBytesCopied, outcome.bytes_copied);
            rec.add(telemetry::Counter::GcBytesFreed, outcome.bytes_freed);
            rec.record(telemetry::Hist::GcPauseNs, pause_ns);
            rec.record(
                match kind {
                    CollectKind::Minor => telemetry::Hist::GcMinorPauseNs,
                    CollectKind::Major => telemetry::Hist::GcMajorPauseNs,
                },
                pause_ns,
            );
            // Deterministic model-time pause: charged-cost delta across
            // the cycle, read after observer charges have landed.
            if let (Some(clock), Some(start)) = (&self.charge_clock, charge_start) {
                rec.record(telemetry::Hist::GcPauseModelNs, clock().saturating_sub(start));
            }
            // Post-collection live level: the flight recorder's
            // per-window heap residency sample.
            rec.gauge_set(telemetry::Gauge::HeapLiveBytes, self.live_bytes);
            if let Some(bs) = self.store.block_stats() {
                rec.gauge_set(telemetry::Gauge::GcBlocksLive, bs.live_blocks);
                rec.gauge_set(telemetry::Gauge::GcBlocksFree, bs.free_blocks);
            }
        }
        if let (Some(sink), Some(span)) = (&self.trace, gc_span) {
            sink.tracer.finish(span, self.charge_clock.as_ref().map_or(0, |clock| clock()));
        }
        outcome
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
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn heap() -> Heap {
        Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() })
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
    fn recorder_sees_alloc_and_gc_activity() {
        use telemetry::{Counter, Gauge, Hist, Recorder};
        let rec = Recorder::new();
        let mut h = heap();
        h.set_recorder(rec.clone());
        let keep = h.alloc(ClassId(0), vec![Value::Int(1)]).unwrap();
        h.add_root(keep);
        h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 64])]).unwrap();
        let live_before_gc = h.live_bytes();
        let out = h.collect();
        assert_eq!(rec.counter(Counter::HeapAllocObjects), 2);
        assert_eq!(rec.counter(Counter::HeapAllocBytes), h.stats().bytes_allocated);
        assert_eq!(rec.gauge(Gauge::HeapLiveBytesPeak), live_before_gc);
        assert_eq!(rec.counter(Counter::GcCollections), 1);
        assert_eq!(rec.counter(Counter::GcMajorCollections), 1);
        assert_eq!(rec.counter(Counter::GcMinorCollections), 0);
        assert_eq!(rec.counter(Counter::GcBytesFreed), out.bytes_freed);
        assert_eq!(rec.counter(Counter::GcBytesCopied), out.bytes_copied);
        assert_eq!(rec.snapshot().hist(Hist::GcPauseNs).count, 1);
        assert_eq!(rec.snapshot().hist(Hist::GcMajorPauseNs).count, 1);
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
        let mut h = Heap::new(HeapConfig { gc_threshold_bytes: 1024, ..HeapConfig::default() });
        for _ in 0..200 {
            h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 64])]).unwrap();
        }
        assert!(h.stats().collections > 0, "automatic GC ran");
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
    fn observer_sees_alloc_copy_free() {
        #[derive(Default)]
        struct Counter {
            alloc: AtomicU64,
            copied: AtomicU64,
            freed: AtomicU64,
        }
        impl HeapObserver for Counter {
            fn on_alloc(&self, b: u64) {
                self.alloc.fetch_add(b, Ordering::Relaxed);
            }
            fn on_gc_copy(&self, b: u64) {
                self.copied.fetch_add(b, Ordering::Relaxed);
            }
            fn on_free(&self, b: u64) {
                self.freed.fetch_add(b, Ordering::Relaxed);
            }
        }
        let counter = Arc::new(Counter::default());
        let mut h = heap();
        h.set_observer(counter.clone());
        let live = h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 100])]).unwrap();
        h.add_root(live);
        h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 50])]).unwrap();
        h.collect();
        assert!(counter.alloc.load(Ordering::Relaxed) >= 150);
        assert!(counter.copied.load(Ordering::Relaxed) >= 100);
        assert!(counter.freed.load(Ordering::Relaxed) >= 50);
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
        let mut h = heap();
        assert_eq!(h.collector_kind(), CollectorKind::Semispace);
        assert_eq!(CollectorKind::Semispace.name(), "semispace");
        assert_eq!(CollectorKind::Block.name(), "block");
        assert!(h.block_stats().is_none());
        let id = h.alloc(ClassId(0), vec![]).unwrap();
        let out = h.collect_minor();
        assert!(!out.minor, "semispace promotes minor to major");
        assert_eq!(h.stats().major_collections, 1);
        assert_eq!(h.stats().minor_collections, 0);
        assert!(!h.is_live(id));
    }

    #[test]
    fn charge_clock_records_model_pause() {
        use telemetry::{Hist, Recorder};
        let rec = Recorder::new();
        let mut h = heap();
        h.set_recorder(rec.clone());
        // A fixed clock yields zero-width pauses but still one sample
        // per collection.
        h.set_charge_clock(Arc::new(|| 7));
        h.collect();
        h.collect();
        let snap = rec.snapshot();
        assert_eq!(snap.hist(Hist::GcPauseModelNs).count, 2);
        assert_eq!(snap.hist(Hist::GcPauseModelNs).sum, 0, "fixed clock → zero-width pauses");
    }
}
