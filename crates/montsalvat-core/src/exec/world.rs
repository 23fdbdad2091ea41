//! Runtime worlds: one per partitioned runtime.
//!
//! A [`World`] bundles everything one runtime owns at execution time: its
//! isolate (heap), its class index, its RMI state (mirror-proxy registry,
//! proxy weak list, hash allocator), its scratch I/O channel, and an
//! execution-model knob used by the JVM baseline. The trusted world's
//! heap carries an observer that charges the enclave for every byte of
//! heap traffic, which is how the paper's in-enclave GC and allocation
//! overheads arise in the model.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use rmi::hash::ProxyHasher;
use rmi::registry::MirrorProxyRegistry;
use rmi::weaklist::ProxyWeakList;
use runtime_sim::heap::{HeapConfig, HeapObserver};
use runtime_sim::isolate::Isolate;
use runtime_sim::value::{ClassId, ObjId};
use sgx_sim::cost::CostModel;
use sgx_sim::enclave::Enclave;
use sgx_sim::shim::BackendFile;

use crate::annotation::Side;
use crate::class::ClassDef;
use crate::error::VmError;
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

/// The scratch I/O channel of a world (backs `Instr::IoWrite` and the
/// `Ctx::io_*` operations).
#[derive(Debug, Default)]
pub(crate) struct WorldIo {
    pub(crate) file: Option<BackendFile>,
    pub(crate) buf: Vec<u8>,
    pub(crate) bytes_written: u64,
}

/// Heap observer that charges the enclave for trusted-heap traffic.
#[derive(Debug)]
pub struct EnclaveHeapCharger {
    enclave: Arc<Enclave>,
    gc_copy_factor: f64,
}

impl EnclaveHeapCharger {
    /// Creates a charger for `enclave`; `gc_copy_factor` scales GC copy
    /// traffic (see [`ExecModel::gc_copy_factor`]).
    pub fn new(enclave: Arc<Enclave>, gc_copy_factor: f64) -> Self {
        EnclaveHeapCharger { enclave, gc_copy_factor }
    }
}

impl HeapObserver for EnclaveHeapCharger {
    fn on_alloc(&self, bytes: u64) {
        // Committing and writing fresh enclave heap pays EPC + MEE.
        let _ = self.enclave.alloc_heap(bytes);
        self.enclave.charge_heap_traffic(bytes);
    }

    fn on_gc_copy(&self, bytes: u64) {
        let charged = (bytes as f64 * self.gc_copy_factor) as u64;
        self.enclave.charge_gc_copy(charged);
    }

    fn on_free(&self, bytes: u64) {
        self.enclave.free_heap(bytes);
    }

    // Block-collector hooks: residency moves per block while object
    // writes and GC work are pure traffic (see docs/GC.md).

    fn on_block_commit(&self, bytes: u64) {
        let _ = self.enclave.alloc_heap(bytes);
    }

    fn on_block_alloc(&self, bytes: u64) {
        self.enclave.charge_heap_traffic(bytes);
    }

    fn on_block_release(&self, bytes: u64) {
        self.enclave.free_heap(bytes);
    }

    fn on_gc_mark(&self, objects: u64) {
        self.enclave.charge_gc_mark(objects);
    }

    fn on_gc_blocks_touched(&self, blocks: u64, block_bytes: u64) {
        self.enclave.charge_gc_blocks(blocks, block_bytes);
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
    /// Scratch-file path for `Ctx::io_*`.
    pub scratch_path: PathBuf,
    pub(crate) io: Mutex<WorldIo>,
}

impl World {
    /// Creates a world over a fresh isolate, inside `enclave` when it
    /// is `Some` and on the host otherwise. The world's heap, registry
    /// and weak list report into `cost`'s recorder; its GC pauses are
    /// stamped with `cost`'s model clock and traced on the world's
    /// lane; an in-enclave heap charges the enclave for its traffic.
    pub fn new(
        side: Side,
        classes: Arc<ClassIndex>,
        heap_config: HeapConfig,
        exec_model: ExecModel,
        scratch_path: PathBuf,
        cost: &Arc<CostModel>,
        enclave: Option<&Arc<Enclave>>,
    ) -> Arc<Self> {
        let isolate = Isolate::new(side.name(), heap_config);
        isolate.with_heap(|h| {
            if let Some(enclave) = enclave {
                let charger =
                    EnclaveHeapCharger::new(Arc::clone(enclave), exec_model.gc_copy_factor);
                h.set_observer(Arc::new(charger));
            }
            h.set_recorder(Arc::clone(cost.recorder()));
            h.set_tracer(Arc::clone(cost.tracer()), side.lane());
            let cost = Arc::clone(cost);
            h.set_charge_clock(Arc::new(move || cost.charged_ns()));
        });
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
        let idx = Arc::new(ClassIndex::from_classes(&[ClassDef::new("A")]));
        let cost = Arc::new(CostModel::new(
            sgx_sim::cost::CostParams::paper_defaults(),
            sgx_sim::cost::ClockMode::Virtual,
        ));
        let world = World::new(
            Side::Untrusted,
            idx,
            HeapConfig::default(),
            ExecModel::native_image(),
            std::env::temp_dir().join("world_test_scratch"),
            &cost,
            None,
        );
        assert!(!world.in_enclave);
        assert!(world.class_by_name("A").is_ok());
        assert!(matches!(world.class_by_name("Zed"), Err(VmError::UnknownClass(_))));
    }
}
