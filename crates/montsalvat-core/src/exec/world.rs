//! Runtime worlds: one per partitioned runtime.
//!
//! A [`World`] bundles everything one runtime owns at execution time: its
//! isolate (heap), its class index, its RMI state (mirror-proxy registry,
//! proxy weak list, hash allocator), its scratch I/O channel, and an
//! execution-model knob used by the JVM baseline. Every world's heap
//! reports to one observer, which counts and traces each allocation
//! and collection in the app's recorder and tracer; an in-enclave
//! heap's observer also charges the enclave for every byte of heap
//! traffic, which is how the paper's in-enclave GC and allocation
//! overheads arise in the model.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use rmi::hash::ProxyHasher;
use rmi::registry::MirrorProxyRegistry;
use rmi::weaklist::ProxyWeakList;
use runtime_sim::heap::{AllocEvent, BlockStats, CollectEvent, CollectKind, HeapObserver};
use runtime_sim::isolate::Isolate;
use runtime_sim::value::{ClassId, ObjId};
use sgx_sim::cost::CostModel;
use sgx_sim::enclave::Enclave;
use sgx_sim::shim::BackendFile;
use telemetry::trace;
use telemetry::{Counter, Gauge, Hist, Recorder};

use crate::annotation::Side;
use crate::class::ClassDef;
use crate::error::VmError;
use crate::exec::app::AppConfig;
use crate::exec::ctx::Crossing;

/// A class with its runtime id.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// Heap class id within this world.
    pub id: ClassId,
    /// The definition.
    pub def: ClassDef,
    /// One slot per method of `def`, allocated on the class's first
    /// crossing: a proxy method's crossing, resolved against the
    /// opposite world on the method's first call.
    pub(crate) crossings: OnceLock<Box<[OnceLock<Arc<Crossing>>]>>,
    /// The interned id of the class name, filled when an object of
    /// this class first crosses as a hint from this world (a
    /// `serde.shape_cache_misses`); later hints carry the id alone.
    pub(crate) name_id: OnceLock<u32>,
}

/// Name ↔ id index over one image's classes.
#[derive(Debug, Default)]
pub struct ClassIndex {
    infos: Vec<ClassInfo>,
    by_name: HashMap<String, usize>,
}

impl ClassIndex {
    /// Builds an index, assigning dense [`ClassId`]s.
    pub fn from_classes(classes: &[ClassDef]) -> Self {
        let mut index = ClassIndex::default();
        for (i, def) in classes.iter().enumerate() {
            index.by_name.insert(def.name.clone(), i);
            index.infos.push(ClassInfo {
                id: ClassId(i as u32),
                def: def.clone(),
                crossings: OnceLock::new(),
                name_id: OnceLock::new(),
            });
        }
        index
    }

    /// Looks up a class by name.
    pub fn by_name(&self, name: &str) -> Option<&ClassInfo> {
        self.by_name.get(name).map(|&i| &self.infos[i])
    }

    /// Looks up a class by id.
    pub fn by_id(&self, id: ClassId) -> Option<&ClassInfo> {
        self.infos.get(id.0 as usize)
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Iterates over all classes.
    pub fn iter(&self) -> impl Iterator<Item = &ClassInfo> + '_ {
        self.infos.iter()
    }
}

/// Mutable RMI state of one world. Lock ordering: `rmi` before the heap.
#[derive(Debug, Default)]
pub struct RmiState {
    /// Strong references to local mirrors, keyed by proxy hash, and the
    /// hash each exported local object crosses under.
    pub registry: MirrorProxyRegistry,
    /// Local proxy objects by hash, held weakly; the GC helper scans it.
    pub weaklist: ProxyWeakList,
}

/// Execution-model knobs (all neutral for native images; the SCONE+JVM
/// baseline overrides them, see `baselines`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecModel {
    /// Extra charge per method invocation (JVM dispatch/interpretation).
    pub call_overhead_ns: u64,
    /// Multiplier on compute-kernel time (JVM bytecode execution).
    pub compute_factor: f64,
    /// Multiplier on GC copy traffic charged to the enclave (a
    /// generational JVM collector copies less than the native image's
    /// full-heap serial collector on allocation-heavy loads).
    pub gc_copy_factor: f64,
    /// One-time startup charge (class loading, JIT warm-up).
    pub startup_ns: u64,
    /// Fixed runtime-heap overhead committed at startup (a JVM's own
    /// objects), driving extra EPC pressure in-enclave.
    pub runtime_heap_overhead_bytes: u64,
}

impl Default for ExecModel {
    fn default() -> Self {
        ExecModel {
            call_overhead_ns: 0,
            compute_factor: 1.0,
            gc_copy_factor: 1.0,
            startup_ns: 0,
            runtime_heap_overhead_bytes: 0,
        }
    }
}

impl ExecModel {
    /// The native-image execution model (no overheads).
    pub fn native_image() -> Self {
        Self::default()
    }
}

/// The scratch I/O channel of a world (backs `Instr::IoWrite` and
/// `Ctx::io_write`).
#[derive(Debug, Default)]
pub(crate) struct WorldIo {
    pub(crate) file: Option<BackendFile>,
    pub(crate) buf: Vec<u8>,
}

/// The latest heap level of each world of one app. Both worlds' heaps
/// report into the app's one recorder, so each level gauge reads the
/// sum over the worlds and the peak gauge the highest such sum; a
/// single-world app has one term.
#[derive(Debug, Default)]
pub(crate) struct HeapLevels {
    worlds: Mutex<[HeapLevel; 2]>,
}

#[derive(Debug, Default, Clone, Copy)]
struct HeapLevel {
    live_bytes: u64,
    blocks_live: u64,
    blocks_free: u64,
}

impl HeapLevels {
    /// Takes `side`'s latest live bytes (and block counts, when its heap
    /// has blocks) and sets the app's gauges from the sums.
    fn report(&self, side: Side, live_bytes: u64, blocks: Option<BlockStats>, rec: &Recorder) {
        let mut worlds = self.worlds.lock();
        let level = &mut worlds[side as usize];
        level.live_bytes = live_bytes;
        if let Some(blocks) = blocks {
            level.blocks_live = blocks.live_blocks;
            level.blocks_free = blocks.free_blocks;
        }
        let sum = |of: fn(&HeapLevel) -> u64| worlds.iter().map(of).sum::<u64>();
        let live = sum(|l| l.live_bytes);
        rec.gauge_max(Gauge::HeapLiveBytesPeak, live);
        rec.gauge_set(Gauge::HeapLiveBytes, live);
        if blocks.is_some() {
            rec.gauge_set(Gauge::GcBlocksLive, sum(|l| l.blocks_live));
            rec.gauge_set(Gauge::GcBlocksFree, sum(|l| l.blocks_free));
        }
    }
}

/// The one heap observer of a world. It counts every allocation and
/// collection into the app's recorder, reports the heap's levels to
/// the app's [`HeapLevels`] and traces each collection on the world's
/// lane; under an enclave it first charges the heap's traffic to it
/// (see `docs/GC.md`).
#[derive(Debug)]
struct WorldHeapObserver {
    cost: Arc<CostModel>,
    side: Side,
    levels: Arc<HeapLevels>,
    /// The enclave the heap runs inside, if any.
    enclave: Option<Arc<Enclave>>,
    /// Scales GC copy traffic (see [`ExecModel::gc_copy_factor`]).
    gc_copy_factor: f64,
}

impl HeapObserver for WorldHeapObserver {
    fn on_alloc(&self, event: &AllocEvent) {
        if let Some(enclave) = &self.enclave {
            // Committing and writing fresh enclave heap pays EPC + MEE.
            if event.committed_bytes > 0 {
                let _ = enclave.alloc_heap(event.committed_bytes);
            }
            enclave.charge_heap_traffic(event.bytes);
        }
        let recorder = self.cost.recorder();
        recorder.incr(Counter::HeapAllocObjects);
        recorder.add(Counter::HeapAllocBytes, event.bytes);
        self.levels.report(self.side, event.live_bytes, None, recorder);
    }

    fn on_collect(&self, kind: CollectKind, collect: &mut dyn FnMut() -> CollectEvent) {
        let cost = &self.cost;
        let charge_start = cost.charged_ns();
        // The pause span opens before the collection, so the cycle's
        // enclave charges (and their AEX instants) land inside it; a
        // pause triggered mid-call nests under the allocating thread's
        // span. It closes after the counts below.
        let _span = cost.tracer().span(
            self.side.lane(),
            "gc",
            trace::current(),
            || cost.charged_ns(),
            || match kind {
                CollectKind::Minor => "gc:minor".to_owned(),
                CollectKind::Major => "gc:collect".to_owned(),
            },
        );
        let started = Instant::now();
        let event = collect();
        let pause_ns = started.elapsed().as_nanos() as u64;
        if let Some(enclave) = &self.enclave {
            enclave.charge_gc_mark(event.marked_objects);
            enclave.charge_gc_blocks(event.blocks_touched, event.block_bytes);
            if event.committed_bytes > 0 {
                let _ = enclave.alloc_heap(event.committed_bytes);
            }
            let copied = (event.outcome.bytes_copied as f64 * self.gc_copy_factor) as u64;
            enclave.charge_gc_copy(copied);
            if event.released_bytes > 0 {
                enclave.free_heap(event.released_bytes);
            }
        }
        let recorder = cost.recorder();
        recorder.incr(Counter::GcCollections);
        let (counter, hist) = match kind {
            CollectKind::Minor => (Counter::GcMinorCollections, Hist::GcMinorPauseNs),
            CollectKind::Major => (Counter::GcMajorCollections, Hist::GcMajorPauseNs),
        };
        recorder.incr(counter);
        recorder.add(Counter::GcBytesCopied, event.outcome.bytes_copied);
        recorder.add(Counter::GcBytesFreed, event.outcome.bytes_freed);
        recorder.record(Hist::GcPauseNs, pause_ns);
        recorder.record(hist, pause_ns);
        // The model pause: what the cycle charged, read after the
        // charges above.
        recorder.record(Hist::GcPauseModelNs, cost.charged_ns().saturating_sub(charge_start));
        // Post-collection levels: the flight recorder's per-window
        // heap residency sample.
        self.levels.report(self.side, event.live_bytes, event.block_stats, recorder);
    }
}

/// One runtime of a (possibly partitioned) application.
#[derive(Debug)]
pub struct World {
    /// Which runtime this is.
    pub side: Side,
    /// Whether this world executes inside the enclave.
    pub in_enclave: bool,
    /// The world's isolate (heap).
    pub isolate: Arc<Isolate>,
    /// The image's class index.
    pub classes: Arc<ClassIndex>,
    /// RMI state (lock before the heap).
    pub rmi: Mutex<RmiState>,
    /// Proxy-hash allocator.
    pub hasher: ProxyHasher,
    /// Execution-model knobs.
    pub exec_model: ExecModel,
    /// Scratch-file path for `Ctx::io_write`.
    pub scratch_path: PathBuf,
    pub(crate) io: Mutex<WorldIo>,
}

impl World {
    /// Creates a world over a fresh isolate with `config`'s heap and
    /// execution model, inside `enclave` when it is `Some` and on the
    /// host otherwise. The world's heap, registry and weak list report
    /// into `cost`'s recorder; its GC pauses are stamped with `cost`'s
    /// model clock and traced on the world's lane; an in-enclave heap
    /// charges the enclave for its traffic. All of the heap's reporting
    /// goes through its one observer, and its levels join the app's
    /// other worlds' in `levels`.
    pub(crate) fn new(
        side: Side,
        classes: Arc<ClassIndex>,
        config: &AppConfig,
        scratch_path: PathBuf,
        cost: &Arc<CostModel>,
        enclave: Option<&Arc<Enclave>>,
        levels: &Arc<HeapLevels>,
    ) -> Arc<Self> {
        let exec_model = config.exec_model.clone();
        let observer = WorldHeapObserver {
            cost: Arc::clone(cost),
            side,
            levels: Arc::clone(levels),
            enclave: enclave.cloned(),
            gc_copy_factor: exec_model.gc_copy_factor,
        };
        let isolate = Isolate::new(config.heap_config.clone());
        isolate.with_heap(|h| h.set_observer(Arc::new(observer)));
        let mut rmi = RmiState::default();
        rmi.registry.set_recorder(Arc::clone(cost.recorder()));
        rmi.weaklist.set_recorder(Arc::clone(cost.recorder()));
        Arc::new(World {
            side,
            in_enclave: enclave.is_some(),
            isolate,
            classes,
            rmi: Mutex::new(rmi),
            hasher: ProxyHasher::new(side as u64 + 1),
            exec_model,
            scratch_path,
            io: Mutex::new(WorldIo::default()),
        })
    }

    /// Reads a class by name, as a runtime error if missing.
    pub fn class_by_name(&self, name: &str) -> Result<&ClassInfo, VmError> {
        self.classes.by_name(name).ok_or_else(|| VmError::UnknownClass(name.to_owned()))
    }

    /// Reads the class of a live object.
    pub fn class_of_obj(&self, id: ObjId) -> Result<&ClassInfo, VmError> {
        let class_id = self
            .isolate
            .with_heap(|h| h.class_of(id))
            .ok_or_else(|| VmError::BadRef(format!("{id} is dead or foreign")))?;
        self.classes
            .by_id(class_id)
            .ok_or_else(|| VmError::BadRef(format!("{id} has unknown class {class_id}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;
    use runtime_sim::heap::HeapConfig;
    use runtime_sim::value::Value;
    use sgx_sim::cost::{ClockMode, CostParams};
    use sgx_sim::enclave::EnclaveConfig;
    use telemetry::trace::{Lane, Tracer};

    /// A model with a fresh recorder and an enabled tracer of its own.
    fn cost() -> Arc<CostModel> {
        let tracer = Tracer::new();
        tracer.enable_with_capacity(64);
        Arc::new(CostModel::with_recorder_and_tracer(
            CostParams::paper_defaults(),
            ClockMode::Virtual,
            Recorder::new(),
            tracer,
        ))
    }

    /// A world of class `A` for `side`, inside `enclave` when given.
    fn world(side: Side, cost: &Arc<CostModel>, enclave: Option<&Arc<Enclave>>) -> Arc<World> {
        let heap_config = HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() };
        World::new(
            side,
            Arc::new(ClassIndex::from_classes(&[ClassDef::new("A")])),
            &AppConfig { heap_config, ..AppConfig::default() },
            std::env::temp_dir().join("world_test_scratch"),
            cost,
            enclave,
            &Arc::default(),
        )
    }

    #[test]
    fn class_index_assigns_dense_ids() {
        let idx = ClassIndex::from_classes(&[ClassDef::new("A"), ClassDef::new("B")]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.by_name("A").unwrap().id, ClassId(0));
        assert_eq!(idx.by_name("B").unwrap().id, ClassId(1));
        assert_eq!(idx.by_id(ClassId(1)).unwrap().def.name, "B");
        assert!(idx.by_name("C").is_none());
    }

    #[test]
    fn world_resolves_classes() {
        let world = world(Side::Untrusted, &cost(), None);
        assert!(!world.in_enclave);
        assert!(world.class_by_name("A").is_ok());
        assert!(matches!(world.class_by_name("Zed"), Err(VmError::UnknownClass(_))));
    }

    #[test]
    fn a_host_heap_reports_every_event_into_the_recorder() {
        let cost = cost();
        let world = world(Side::Untrusted, &cost, None);
        let (live_before_gc, out) = world.isolate.with_heap(|h| {
            let keep = h.alloc(ClassId(0), vec![Value::Int(1)]).unwrap();
            h.add_root(keep);
            h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 64])]).unwrap();
            (h.live_bytes(), h.collect())
        });
        let snap = cost.recorder().snapshot();
        assert_eq!(snap.counter(Counter::HeapAllocObjects), 2);
        assert_eq!(snap.counter(Counter::HeapAllocBytes), live_before_gc);
        assert_eq!(snap.gauge(Gauge::HeapLiveBytesPeak), live_before_gc);
        assert_eq!(snap.gauge(Gauge::HeapLiveBytes), live_before_gc - out.bytes_freed);
        assert_eq!(snap.counter(Counter::GcCollections), 1);
        assert_eq!(snap.counter(Counter::GcMajorCollections), 1);
        assert_eq!(snap.counter(Counter::GcMinorCollections), 0);
        assert_eq!(snap.counter(Counter::GcBytesFreed), out.bytes_freed);
        assert_eq!(snap.counter(Counter::GcBytesCopied), out.bytes_copied);
        assert_eq!(snap.hist(Hist::GcPauseNs).count, 1);
        assert_eq!(snap.hist(Hist::GcMajorPauseNs).count, 1);
        let model = snap.hist(Hist::GcPauseModelNs);
        assert_eq!((model.count, model.sum), (1, 0), "a host heap charges nothing");
        assert_eq!(snap.counter(Counter::MeeBytes), 0);
    }

    #[test]
    fn an_enclave_heap_pays_its_collection_inside_the_pause_span() {
        let cost = cost();
        let enclave =
            Enclave::create(&EnclaveConfig::default(), b"img", Arc::clone(&cost)).unwrap();
        let world = world(Side::Trusted, &cost, Some(&enclave));
        let (before, after) = world.isolate.with_heap(|h| {
            let keep = h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 4096])]).unwrap();
            h.add_root(keep);
            for _ in 0..8 {
                h.alloc(ClassId(0), vec![Value::Bytes(vec![0; 512])]).unwrap();
            }
            let before = cost.charged_ns();
            h.collect();
            // Each object committed itself and the collection released
            // what it freed, so the EPC holds exactly the live set.
            assert_eq!(enclave.epc_resident_bytes(), h.live_bytes());
            (before, cost.charged_ns())
        });
        let model = cost.recorder().snapshot().hist(Hist::GcPauseModelNs).clone();
        assert!(after > before, "copying the live set pays the MEE");
        assert_eq!((model.count, model.sum), (1, after - before));
        let events = cost.tracer().snapshot_events();
        let gc: Vec<_> = events.iter().filter(|e| e.cat == "gc").collect();
        assert_eq!(gc.len(), 1, "one event per span: {gc:?}");
        assert_eq!((gc[0].name.as_str(), gc[0].lane), ("gc:collect", Lane::Trusted));
        assert_eq!(gc[0].begin.model_ns, before);
        let end = gc[0].end.map(|e| e.model_ns);
        assert_eq!(end, Some(after), "the pause span closes after the charges");
    }
}
