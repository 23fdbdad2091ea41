//! The execution context and cross-world dispatch (§5.2–§5.5 at run time).
//!
//! All method execution funnels through `exec_method`:
//!
//! - interpreted bodies run in `exec::interp`;
//! - native bodies receive a [`Ctx`] handle;
//! - **proxy bodies** marshal their arguments and perform an
//!   ecall/ocall to the corresponding relay in the opposite world;
//! - **relay bodies** are executed only by the receiving side of a
//!   crossing: constructor relays instantiate the mirror and register it
//!   in the mirror-proxy registry; instance relays look the mirror up by
//!   the proxy hash and forward the call.
//!
//! ## Argument marshalling
//!
//! Crossing arguments are classified per the paper: primitives travel by
//! value, *neutral* objects are serialized (deep copy), and annotated
//! objects travel as proxy hashes. A hash is resolved on the receiving
//! side to the local mirror (if the object's home is there) or to a
//! local proxy (created on first sight). Concrete annotated objects that
//! cross for the first time are *exported*: registered in their home
//! world's registry under a fresh hash so the remote proxy keeps them
//! alive (§5.5's strong-reference rule).
//!
//! ## Rooting discipline
//!
//! The copying collector only honours rooted references. Every value a
//! frame holds is rooted for the frame's lifetime ([`Ctx`] is dropped =>
//! roots released). Values returned from calls carry one *in-flight*
//! root per contained reference, which the caller adopts into its frame.

use std::sync::{Arc, OnceLock};

use parking_lot::MutexGuard;
use rmi::codec::{self, CodecError, EncodeStats, RefEncoding};
use rmi::hash::ProxyHash;
use rmi::pool::PooledBuf;
use rmi::shape::NameRef;
use runtime_sim::heap::{GcOutcome, Heap};
use runtime_sim::value::{ClassId, ObjId, Value};
use sgx_sim::SgxError;
use telemetry::trace::{self, SpanContext};

use crate::annotation::Side;
use crate::class::{ClassRole, MethodBody, MethodKind, CTOR};
use crate::error::VmError;
use crate::exec::app::AppShared;
use crate::exec::interp;
use crate::exec::switchless::PostOutcome;
use crate::exec::world::{ClassInfo, World};
use crate::provider::CrossingDir;
use crate::transform::relay_name;

/// Execution context handed to native method bodies and the interpreter.
///
/// A `Ctx` is one *frame*: references it roots stay live until the frame
/// ends. Obtain one through
/// [`PartitionedApp::enter_untrusted`](crate::exec::app::PartitionedApp::enter_untrusted)
/// or receive one in a [`NativeFn`](crate::class::NativeFn) body.
pub struct Ctx<'a> {
    pub(crate) app: &'a AppShared,
    pub(crate) world: Arc<World>,
    frame_roots: Vec<ObjId>,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("side", &self.world.side)
            .field("frame_roots", &self.frame_roots.len())
            .finish()
    }
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(app: &'a AppShared, world: Arc<World>) -> Self {
        Ctx { app, world, frame_roots: Vec::new() }
    }

    /// The runtime this frame executes in.
    pub fn side(&self) -> Side {
        self.world.side
    }

    /// Whether this frame executes inside the enclave.
    pub fn in_enclave(&self) -> bool {
        self.world.in_enclave
    }

    /// Reading of the application's model clock: the total of every
    /// modelled charge so far — the clock every experiment measures
    /// with. The simulator's own execution time never enters it.
    pub fn cost_charged(&self) -> std::time::Duration {
        self.app.cost.charged()
    }

    /// Takes ownership of a value's in-flight roots into this frame.
    pub(crate) fn adopt(&mut self, v: &Value) {
        v.for_each_ref(&mut |id| self.frame_roots.push(id));
    }

    /// Roots a value's references in this frame (adds fresh roots).
    pub(crate) fn root_value(&mut self, v: &Value) {
        let mut ids = Vec::new();
        v.for_each_ref(&mut |id| ids.push(id));
        if !ids.is_empty() {
            self.world.isolate.with_heap(|h| {
                for &id in &ids {
                    h.add_root(id);
                }
            });
            self.frame_roots.extend(ids);
        }
    }

    /// Instantiates `class_name` with `args` (the `new` operator).
    ///
    /// For a proxy class this creates the local proxy and performs the
    /// constructor crossing that materialises the mirror (§5.2).
    ///
    /// # Errors
    ///
    /// Propagates unknown classes, arity mismatches, crossing failures
    /// and allocation failure.
    pub fn new_object(&mut self, class_name: &str, args: &[Value]) -> Result<Value, VmError> {
        let v = construct(self.app, &self.world, class_name, args)?;
        self.adopt(&v);
        Ok(v)
    }

    /// Invokes `method` on `recv` with dynamic dispatch. Proxy receivers
    /// cross the boundary.
    ///
    /// # Errors
    ///
    /// Propagates unknown methods, arity mismatches and crossing
    /// failures.
    pub fn call(&mut self, recv: &Value, method: &str, args: &[Value]) -> Result<Value, VmError> {
        let id = recv
            .as_ref_id()
            .ok_or_else(|| VmError::Type(format!("receiver of `{method}` is not an object")))?;
        // Borrow class metadata through a clone of the world handle:
        // the index is immutable for the app's lifetime, so the hot
        // path copies no `ClassInfo`/`MethodDef` (and no name strings).
        let world = Arc::clone(&self.world);
        let class = world.class_of_obj(id)?;
        let index = class.def.method_index(method).ok_or_else(|| VmError::UnknownMethod {
            class: class.def.name.clone(),
            method: method.to_owned(),
        })?;
        let v = exec_method(self.app, &world, class, index, Some(id), args)?;
        self.adopt(&v);
        Ok(v)
    }

    /// Invokes a static method of `class_name`.
    ///
    /// # Errors
    ///
    /// Propagates unknown classes/methods, arity mismatches and crossing
    /// failures.
    pub fn call_static(
        &mut self,
        class_name: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, VmError> {
        let world = Arc::clone(&self.world);
        let class = world.class_by_name(class_name)?;
        let index = class.def.method_index(method).ok_or_else(|| VmError::UnknownMethod {
            class: class_name.to_owned(),
            method: method.to_owned(),
        })?;
        if class.def.methods[index].kind != MethodKind::Static {
            return Err(VmError::Type(format!("`{class_name}.{method}` is not static")));
        }
        let v = exec_method(self.app, &world, class, index, None, args)?;
        self.adopt(&v);
        Ok(v)
    }

    /// Reads a field of a concrete local object.
    ///
    /// # Errors
    ///
    /// Fails for proxies (their state lives in the opposite runtime;
    /// the encapsulation assumption of §5.1 routes access through
    /// methods) and for unknown fields.
    pub fn get_field(&mut self, obj: &Value, field: &str) -> Result<Value, VmError> {
        let id = obj
            .as_ref_id()
            .ok_or_else(|| VmError::Type(format!("field `{field}` read on a non-object")))?;
        let world = Arc::clone(&self.world);
        let class = world.class_of_obj(id)?;
        if class.def.role == ClassRole::Proxy {
            return Err(VmError::Type(format!(
                "cannot read field `{field}` of proxy `{}`; call an accessor method",
                class.def.name
            )));
        }
        let idx = class.def.field_index(field).ok_or_else(|| VmError::UnknownField {
            class: class.def.name.clone(),
            field: field.to_owned(),
        })?;
        let v = world
            .isolate
            .with_heap(|h| h.field(id, idx).cloned())
            .ok_or_else(|| VmError::BadRef(format!("{id} died mid-read")))?;
        self.root_value(&v);
        Ok(v)
    }

    /// Writes a field of a concrete local object.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Ctx::get_field`].
    pub fn set_field(&mut self, obj: &Value, field: &str, value: Value) -> Result<(), VmError> {
        let id = obj
            .as_ref_id()
            .ok_or_else(|| VmError::Type(format!("field `{field}` write on a non-object")))?;
        let world = Arc::clone(&self.world);
        let class = world.class_of_obj(id)?;
        if class.def.role == ClassRole::Proxy {
            return Err(VmError::Type(format!(
                "cannot write field `{field}` of proxy `{}`",
                class.def.name
            )));
        }
        let idx = class.def.field_index(field).ok_or_else(|| VmError::UnknownField {
            class: class.def.name.clone(),
            field: field.to_owned(),
        })?;
        let ok = world.isolate.with_heap(|h| h.set_field(id, idx, value));
        if ok {
            Ok(())
        } else {
            Err(VmError::BadRef(format!("{id} died mid-write")))
        }
    }

    /// Writes `bytes` of scratch data to this world's file: direct host
    /// I/O outside the enclave, one ocall per write inside it (§5.4).
    /// Either way the host write itself costs
    /// [`HOST_IO_NS_PER_BYTE`] per byte.
    ///
    /// # Errors
    ///
    /// Propagates relayed/host I/O failures.
    pub fn io_write(&mut self, bytes: usize) -> Result<(), VmError> {
        let world = Arc::clone(&self.world);
        let mut io = world.io.lock();
        let crate::exec::world::WorldIo { file, buf } = &mut *io;
        let file = match file {
            Some(file) => file,
            None => file.insert(self.io_backend().create(&world.scratch_path)?),
        };
        if buf.len() < bytes {
            buf.resize(bytes, 0xA5);
        }
        file.write_all(&buf[..bytes])?;
        self.app.cost.charge_ns((bytes as f64 * HOST_IO_NS_PER_BYTE) as u64);
        Ok(())
    }

    /// Runs a CPU kernel with the given working set, charging its
    /// counted work ([`COMPUTE_NS_PER_BYTE_PASS`] per byte per pass)
    /// through [`Ctx::compute_with`].
    pub fn compute(&mut self, working_set_bytes: usize, passes: u32) -> f64 {
        let work_ns = working_set_bytes as f64 * passes as f64 * COMPUTE_NS_PER_BYTE_PASS;
        self.compute_with(working_set_bytes, work_ns as u64, || {
            compute_kernel(working_set_bytes, passes)
        })
    }

    /// Runs a compute kernel `f` and charges `work_ns` for it: the
    /// kernel's counted work (operations × a per-operation cost, never
    /// a host-time reading), scaled by the world's execution-model
    /// factor. Inside the enclave the first touch of the working set
    /// also moves it through the MEE, and the work pays the MEE compute
    /// factor when the working set spills the LLC
    /// ([`Enclave::charge_compute`](sgx_sim::enclave::Enclave::charge_compute)).
    /// Used by native workloads that bring their own kernels (FFT,
    /// PageRank, ...).
    pub fn compute_with<R>(
        &mut self,
        working_set_bytes: usize,
        work_ns: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.world.in_enclave {
            // First touch of the working set moves it through the MEE.
            self.app.enclave.charge_heap_traffic(working_set_bytes as u64);
        }
        let out = f();
        let work_ns = (work_ns as f64 * self.world.exec_model.compute_factor) as u64;
        if self.world.in_enclave {
            self.app.enclave.charge_compute(working_set_bytes as u64, work_ns);
        } else {
            self.app.cost.charge_ns(work_ns);
        }
        out
    }

    /// Charges `ns` of *modelled application compute* (work the real
    /// system would execute but the substrate replaces with a model,
    /// e.g. a managed engine's per-edge object churn). The charge is
    /// scaled by the world's execution-model factor (JVM baseline) and,
    /// inside the enclave, by the MEE compute factor — the same scaling
    /// real compute receives.
    pub fn charge_compute_ns(&mut self, ns: u64) {
        let mut total = ns as f64 * self.world.exec_model.compute_factor;
        if self.world.in_enclave {
            total *= self.app.cost.params().mee_compute_factor;
        }
        self.app.cost.charge_ns(total as u64);
    }

    /// The I/O backend matching this frame's placement: host I/O
    /// outside the enclave, shim-relayed I/O inside. Native workload
    /// bodies (the KV store, the graph sharder/engine) obtain their
    /// file handles through this, so annotating their class moves their
    /// I/O to the right side automatically.
    pub fn io_backend(&self) -> sgx_sim::shim::IoBackend {
        if self.world.in_enclave {
            sgx_sim::shim::IoBackend::Enclave(Arc::clone(&self.app.enclave))
        } else {
            sgx_sim::shim::IoBackend::Host
        }
    }

    /// Releases this frame's roots on a value, making the referenced
    /// objects eligible for collection before the frame ends (used by
    /// GC experiments to drop proxies mid-frame).
    pub fn forget(&mut self, v: &Value) {
        let mut ids = Vec::new();
        v.for_each_ref(&mut |id| ids.push(id));
        for id in ids {
            if let Some(pos) = self.frame_roots.iter().position(|&r| r == id) {
                self.frame_roots.swap_remove(pos);
                self.world.isolate.with_heap(|h| h.remove_root(id));
            }
        }
    }

    /// Allocates a `bytes`-sized managed byte blob, rooted in this
    /// frame (benchmark live-set pressure).
    ///
    /// # Errors
    ///
    /// Propagates managed-heap exhaustion.
    pub fn alloc_blob(&mut self, bytes: usize) -> Result<Value, VmError> {
        let id = self.world.isolate.with_heap(|h| {
            let id = h.alloc(
                runtime_sim::value::ClassId(u32::MAX),
                vec![Value::Bytes(vec![0u8; bytes])],
            )?;
            h.add_root(id);
            Ok::<_, runtime_sim::heap::OutOfMemory>(id)
        })?;
        self.frame_roots.push(id);
        Ok(Value::Ref(id))
    }

    /// Allocates `total_bytes` of immediately-garbage managed objects in
    /// `chunk_bytes` chunks (benchmark allocation pressure; drives the
    /// collector and, in-enclave, MEE/EPC charges).
    pub fn alloc_garbage(&mut self, total_bytes: u64, chunk_bytes: usize) {
        let chunk = chunk_bytes.max(16);
        let n = (total_bytes / chunk as u64).max(1);
        self.world.isolate.with_heap(|h| {
            for _ in 0..n {
                // Unrooted: eligible as soon as allocated.
                let _ = h.alloc(
                    runtime_sim::value::ClassId(u32::MAX),
                    vec![Value::Bytes(vec![0u8; chunk])],
                );
            }
        });
    }

    /// Forces a stop-and-copy collection of this world's heap.
    pub fn collect_garbage(&mut self) -> GcOutcome {
        self.world.isolate.with_heap(|h| h.collect())
    }

    /// Forces a minor (nursery) cycle of this world's heap. Under the
    /// semispace reference collector — which has no nursery — this
    /// promotes to a full collection, so counters stay truthful.
    pub fn collect_garbage_minor(&mut self) -> GcOutcome {
        self.world.isolate.with_heap(|h| h.collect_minor())
    }

    /// Escape hatch: exclusive access to this world's heap. References
    /// created here must be rooted by the caller (e.g. via frames).
    pub fn with_heap<R>(&mut self, f: impl FnOnce(&mut Heap) -> R) -> R {
        self.world.isolate.with_heap(f)
    }
}

impl Drop for Ctx<'_> {
    fn drop(&mut self) {
        if self.frame_roots.is_empty() {
            return;
        }
        let roots = std::mem::take(&mut self.frame_roots);
        self.world.isolate.with_heap(|h| {
            for id in roots {
                h.remove_root(id);
            }
        });
    }
}

/// Model cost of [`Ctx::compute`]'s kernel per working-set byte per
/// pass, in ns: the median of `cargo bench -p bench --bench
/// mechanisms`'s `kernel_compute_1mib_x2` row divided by 2 MiB (one
/// release run on a 2-core x86-64 host).
pub const COMPUTE_NS_PER_BYTE_PASS: f64 = 0.646;

/// Model cost of one byte of scratch-file I/O on the host, in ns: the
/// median of `cargo bench -p bench --bench mechanisms`'s
/// `io_write_4kib` row divided by 4 KiB (same run as
/// [`COMPUTE_NS_PER_BYTE_PASS`]). An in-enclave write pays its ocall on
/// top.
pub const HOST_IO_NS_PER_BYTE: f64 = 0.763;

/// The dense float kernel behind [`Ctx::compute`].
fn compute_kernel(working_set_bytes: usize, passes: u32) -> f64 {
    let n = (working_set_bytes / 8).max(1);
    let mut data: Vec<f64> = (0..n).map(|i| (i % 977) as f64 * 0.5).collect();
    let mut acc = 0.0f64;
    for p in 0..passes {
        let c = 0.3 + p as f64 * 1e-9;
        for x in data.iter_mut() {
            *x = x.mul_add(1.000_000_1, c);
        }
        acc += data[p as usize % n];
    }
    std::hint::black_box(acc)
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

/// A marshalled crossing message: receiver hash, class hints for every
/// hash reference in the payload, the codec-encoded payload, and — when
/// tracing is on — the caller's rmi span, so a request served on
/// another thread (switchless) still parents under it. The span rides
/// alongside the message in memory the two sides share; it is not
/// wire bytes and costs nothing.
///
/// The payload buffer is pooled ([`rmi::pool`]): steady-state crossings
/// reuse encode capacity instead of allocating, and each hint carries a
/// [`NameRef`] — the interned class-name id after the class's first
/// crossing — instead of a cloned `String`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WireMsg {
    pub recv_hash: Option<ProxyHash>,
    pub hints: Vec<(ProxyHash, NameRef)>,
    pub payload: PooledBuf,
    pub trace: Option<SpanContext>,
}

impl WireMsg {
    /// Total bytes that cross the boundary for this message: a 17-byte
    /// header, per hint 16 hash bytes plus its [`NameRef::wire_len`], a
    /// 4-byte payload length and the payload.
    pub(crate) fn wire_len(&self) -> usize {
        17 + self.hints.iter().map(|(_, n)| 16 + n.wire_len()).sum::<usize>()
            + 4
            + self.payload.len()
    }
}

/// Marshals `values` for a crossing out of `world`.
///
/// Neutral objects inline; annotated objects export/reuse a hash. The
/// payload is wire format v2 encoded into a pooled buffer
/// (`docs/SERDE.md`), and hints name a class by interned id after its
/// first crossing. The first encode refuses every reference before it
/// reads one, so a reference-free argument (the common primitive/bulk
/// crossing) is read once and takes no heap lock; only a refusal takes
/// the export walk of [`export_and_encode`].
fn marshal(app: &AppShared, world: &World, values: &[Value]) -> Result<WireMsg, VmError> {
    let rec = app.cost.recorder();
    let tracer = app.cost.tracer();
    let begin = tracer.stamp(|| app.cost.charged_ns());

    let mut payload = rmi::pool::acquire();
    let (stats, hints) = match codec::encode_values_ref_free(values, &mut payload) {
        Ok(stats) => (stats, Vec::new()),
        // A refused reference is the only way this encode fails; it
        // inlined no object before the refusal.
        Err(_) => {
            payload.clear();
            export_and_encode(app, world, values, &mut payload)?
        }
    };

    // Serialization walks the object graph; inside the enclave every
    // read goes through the MEE, hence the enclave factor on encode.
    // Bulk-encoded bytes bill at the cheap single-memcpy rate.
    let charged_ns = charge_serde(app, world, stats.element_bytes(), stats.bulk_bytes, true);
    // Counted only once the encode has succeeded, so a failed marshal
    // leaves `serde.encode_calls == serde.fast_path_hits`.
    rec.incr(telemetry::Counter::SerdeEncodeCalls);
    rec.incr(telemetry::Counter::SerdeFastPathHits);
    rec.add(telemetry::Counter::CodecBytesOut, payload.len() as u64);
    rec.add(telemetry::Counter::SerdeBulkBytes, stats.bulk_bytes);
    if payload.was_pooled() {
        rec.add(telemetry::Counter::SerdePooledBytes, payload.len() as u64);
    }
    rec.record(telemetry::Hist::SerdeEncodeFastNs, charged_ns);
    // The span name carries the payload size (`b=`), which the
    // trace-report CLI attributes to the enclosing rmi span's class.
    // Readers parse only that suffix; the `fast` label stays so traces
    // keep their span names.
    tracer.span_at(
        world.side.lane(),
        "serde",
        trace::current(),
        begin,
        || app.cost.charged_ns(),
        || format!("marshal:fast b={}", payload.len()),
    );
    Ok(WireMsg { recv_hash: None, hints, payload, trace: None })
}

/// Marshal's path for arguments that hold references: encodes `values`
/// into the empty `payload` and returns one hint per annotated object.
fn export_and_encode(
    app: &AppShared,
    world: &World,
    values: &[Value],
    payload: &mut Vec<u8>,
) -> Result<(EncodeStats, Vec<(ProxyHash, NameRef)>), VmError> {
    // Pass 1: find annotated references reachable through inline
    // (neutral) structure, borrowing the arguments and the fields under
    // the heap guard, and keep each annotated object's class.
    let mut annotated: Vec<(ObjId, &ClassInfo)> = Vec::new();
    {
        let heap = world.isolate.lock_heap();
        let mut stack: Vec<&Value> = values.iter().collect();
        let mut visited: std::collections::HashSet<ObjId> = std::collections::HashSet::new();
        let mut refs = Vec::new();
        while let Some(v) = stack.pop() {
            refs.clear();
            v.for_each_ref(&mut |id| refs.push(id));
            for &id in &refs {
                if !visited.insert(id) {
                    continue;
                }
                let class_id = heap
                    .class_of(id)
                    .ok_or_else(|| VmError::BadRef(format!("{id} is dead at marshal")))?;
                let info = world
                    .classes
                    .by_id(class_id)
                    .ok_or_else(|| VmError::BadRef(format!("{id}: unknown class")))?;
                if info.def.trust.is_annotated() {
                    annotated.push((id, info));
                } else {
                    let fields = heap
                        .fields(id)
                        .ok_or_else(|| VmError::BadRef(format!("{id} is dead at marshal")))?;
                    stack.extend(fields);
                }
            }
        }
    }

    // Pass 2: ensure every annotated object has a hash (reading proxy
    // hashes, exporting concrete objects on first crossing).
    let mut hash_map: std::collections::HashMap<ObjId, ProxyHash> = Default::default();
    let mut hints: Vec<(ProxyHash, NameRef)> = Vec::new();
    if !annotated.is_empty() {
        let mut rmi = world.rmi.lock();
        let mut heap = world.isolate.lock_heap();
        for (id, info) in annotated {
            let hash = if info.def.role == ClassRole::Proxy {
                read_proxy_hash(&heap, id)?
            } else if let Some(h) = rmi.registry.hash_of(id) {
                h
            } else {
                let h = world.hasher.next_hash();
                rmi.registry.register(&mut heap, h, id);
                h
            };
            hints.push((hash, hint_name(app, info)));
            hash_map.insert(id, hash);
        }
    }

    // Pass 3: encode with a pure policy.
    let heap = world.isolate.lock_heap();
    let mut policy = |id: ObjId| match hash_map.get(&id) {
        Some(&h) => Ok(RefEncoding::Hash(h)),
        None => Ok(RefEncoding::Inline),
    };
    let stats = codec::encode_values_v2(&heap, values, &mut policy, payload)?;
    Ok((stats, hints))
}

/// Produces a hint's class-name encoding: the full name on the class's
/// first crossing from its world (a shape-cache miss, which interns
/// the name and fills the class's slot), the 4-byte intern id
/// thereafter.
fn hint_name(app: &AppShared, info: &ClassInfo) -> NameRef {
    let mut named = None;
    let name_id = *info.name_id.get_or_init(|| {
        app.cost.recorder().incr(telemetry::Counter::SerdeShapeCacheMisses);
        let (name_id, name) = app.names.intern(&info.def.name);
        named = Some(name);
        name_id
    });
    match named {
        Some(name) => NameRef::Named(name_id, name),
        None => NameRef::Id(name_id),
    }
}

/// Reads the `__hash` field of a proxy object.
fn read_proxy_hash(heap: &Heap, proxy: ObjId) -> Result<ProxyHash, VmError> {
    match heap.field(proxy, 0) {
        Some(Value::Bytes(b)) if b.len() == 16 => {
            let mut raw = [0u8; 16];
            raw.copy_from_slice(b);
            Ok(ProxyHash(u128::from_le_bytes(raw)))
        }
        _ => Err(VmError::BadRef(format!("{proxy} has no proxy hash"))),
    }
}

fn hash_value(hash: ProxyHash) -> Value {
    Value::Bytes(hash.0.to_le_bytes().to_vec())
}

/// Unmarshals a message into `world`. Returns the decoded values, whose
/// runs go back to the run pool when they drop unless the caller keeps
/// them ([`Args::into_values`]), plus the pin list (temporary roots) the
/// caller must release after taking in-flight roots on whatever it
/// keeps. A message that fails to unmarshal leaves nothing pinned.
fn unmarshal(app: &AppShared, world: &World, msg: &WireMsg) -> Result<(Args, Vec<ObjId>), VmError> {
    let mut pins: Vec<ObjId> = Vec::new();
    match unmarshal_pinning(app, world, msg, &mut pins) {
        Ok(args) => Ok((args, pins)),
        Err(e) => {
            release_pins(world, &pins);
            Err(e)
        }
    }
}

/// The body of [`unmarshal`]. Every temporary root it takes goes into
/// `pins` as it is taken, so the caller can release them on failure.
fn unmarshal_pinning(
    app: &AppShared,
    world: &World,
    msg: &WireMsg,
    pins: &mut Vec<ObjId>,
) -> Result<Args, VmError> {
    let tracer = app.cost.tracer();
    let begin = tracer.stamp(|| app.cost.charged_ns());
    let mut by_hash: std::collections::HashMap<ProxyHash, ObjId> = Default::default();

    // Resolve every hinted hash to a local object: the mirror if its
    // home is here, an existing live proxy, or a freshly created proxy.
    if !msg.hints.is_empty() {
        let mut rmi = world.rmi.lock();
        let mut heap = world.isolate.lock_heap();
        for (hash, name_ref) in &msg.hints {
            if let Some(mirror) = rmi.registry.get(*hash) {
                by_hash.insert(*hash, mirror);
                continue;
            }
            if let Some(proxy) = rmi.weaklist.live(&heap, *hash) {
                heap.add_root(proxy);
                pins.push(proxy);
                by_hash.insert(*hash, proxy);
                continue;
            }
            let info = resolve_hint_class(app, world, name_ref)?;
            if info.def.role != ClassRole::Proxy {
                return Err(VmError::BadRef(format!(
                    "hash hint for `{}` does not name a proxy class here",
                    info.def.name
                )));
            }
            let proxy = heap.alloc(info.id, vec![hash_value(*hash)])?;
            heap.add_root(proxy);
            pins.push(proxy);
            rmi.weaklist.track(proxy, *hash);
            app.cost.recorder().incr(telemetry::Counter::ProxiesCreated);
            by_hash.insert(*hash, proxy);
        }
    }

    // Decode the payload with a pure resolver. The heap is locked only
    // if the payload inlines an object.
    let decoded =
        codec::decode_value(&mut LazyHeap { world, guard: None }, &msg.payload, &mut |h| {
            by_hash.get(&h).map(|&id| Value::Ref(id)).ok_or(CodecError::UnknownHash(h))
        })?;
    // Decoding streams a linear buffer; enclave writes are charged by
    // the heap observer, so no extra factor here. Bytes that arrived
    // through bulk tags decode as straight copies at the bulk rate.
    let element = (msg.payload.len() as u64).saturating_sub(decoded.bulk_bytes);
    charge_serde(app, world, element, decoded.bulk_bytes, false);
    app.cost.recorder().add(telemetry::Counter::CodecBytesIn, msg.payload.len() as u64);
    tracer.span_at(
        world.side.lane(),
        "serde",
        trace::current(),
        begin,
        || app.cost.charged_ns(),
        || format!("unmarshal b={}", msg.payload.len()),
    );
    pins.extend(decoded.allocated.iter().copied());
    let values = match decoded.value {
        Value::List(vs) => vs,
        other => vec![other],
    };
    Ok(Args { values, runs: decoded.runs })
}

/// `world`'s heap, locked on a decode's first use of it
/// ([`codec::DecodeHeap`]) and unlocked when this drops.
struct LazyHeap<'w> {
    world: &'w World,
    guard: Option<MutexGuard<'w, Heap>>,
}

impl codec::DecodeHeap for LazyHeap<'_> {
    fn heap(&mut self) -> &mut Heap {
        let world = self.world;
        self.guard.get_or_insert_with(|| world.isolate.lock_heap())
    }
}

/// Resolves a hint's class-name encoding against the receiving world.
/// A [`NameRef::Named`] hint populates the app's interner (the
/// receiving side learns the name); a [`NameRef::Id`] hint must
/// reference an already-interned name — i.e. the full name crossed
/// earlier, which the encoder guarantees.
fn resolve_hint_class<'w>(
    app: &AppShared,
    world: &'w World,
    name_ref: &NameRef,
) -> Result<&'w ClassInfo, VmError> {
    match name_ref {
        NameRef::Named(_, name) => {
            app.names.intern(name);
            world
                .classes
                .by_name(name)
                .ok_or_else(|| VmError::UnknownClass(format!("{name} (from crossing hint)")))
        }
        NameRef::Id(id) => {
            let name = app.names.resolve(*id).ok_or_else(|| {
                VmError::BadRef(format!("crossing hint names un-interned class id {id}"))
            })?;
            world
                .classes
                .by_name(&name)
                .ok_or_else(|| VmError::UnknownClass(format!("{name} (from crossing hint)")))
        }
    }
}

/// Charges serialization work, split by rate: `element_bytes` pay the
/// per-element graph-walk rate, `bulk_bytes` (single-memcpy encodings)
/// the cheap bulk rate. Encodes performed inside the enclave pay the
/// enclave factor on both (MEE reads along the walk). Returns the
/// modelled nanoseconds charged — recorded into the encode histogram.
fn charge_serde(
    app: &AppShared,
    world: &World,
    element_bytes: u64,
    bulk_bytes: u64,
    encoding: bool,
) -> u64 {
    let params = app.cost.params();
    let factor = if encoding && world.in_enclave { params.serde_enclave_factor } else { 1.0 };
    let ns = (element_bytes as f64 * params.serde_ns_per_byte * factor
        + bulk_bytes as f64 * params.serde_bulk_ns_per_byte * factor) as u64;
    app.cost.charge_ns(ns);
    ns
}

/// The temporary roots a relay's argument unmarshal took, released on
/// drop.
struct Pins<'w> {
    world: &'w World,
    ids: Vec<ObjId>,
}

impl Drop for Pins<'_> {
    fn drop(&mut self) {
        release_pins(self.world, &self.ids);
    }
}

/// Values a message unmarshalled to. As a relay's arguments it is a
/// guard: on drop, each argument the decode built from a primitive run
/// goes back to this thread's run pool, so the next crossing refills it
/// instead of allocating one list and dropping another `Value` by
/// `Value`. Everything else drops as usual.
#[derive(Debug)]
struct Args {
    values: Vec<Value>,
    /// Bit `i` set: `values[i]` is a list decoded from a run
    /// ([`codec::DecodedValue::runs`]).
    runs: u64,
}

impl Args {
    /// The values, for a caller that keeps them: no run goes back.
    fn into_values(mut self) -> Vec<Value> {
        self.runs = 0;
        std::mem::take(&mut self.values)
    }
}

impl Drop for Args {
    fn drop(&mut self) {
        let mut runs = self.runs;
        while runs != 0 {
            let i = runs.trailing_zeros() as usize;
            runs &= runs - 1;
            if let Some(Value::List(list)) = self.values.get_mut(i) {
                rmi::pool::recycle_run(std::mem::take(list));
            }
        }
    }
}

fn release_pins(world: &World, pins: &[ObjId]) {
    if pins.is_empty() {
        return;
    }
    world.isolate.with_heap(|h| {
        for &id in pins {
            h.remove_root(id);
        }
    });
}

/// Adds one in-flight root per reference `v` holds.
fn promote(world: &World, v: &Value) {
    for_each_ref_locked(world, v, |h, id| h.add_root(id));
}

/// Drops one root per reference `v` holds.
fn release(world: &World, v: &Value) {
    for_each_ref_locked(world, v, |h, id| h.remove_root(id));
}

/// Calls `f` on each reference `v` holds, under `world`'s heap lock,
/// which a value without references never takes.
fn for_each_ref_locked(world: &World, v: &Value, mut f: impl FnMut(&mut Heap, ObjId)) {
    let mut heap = None;
    v.for_each_ref(&mut |id| f(heap.get_or_insert_with(|| world.isolate.lock_heap()), id));
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// What a relay does with the receiver hash a crossing carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RelayKind {
    /// Instantiates the mirror and registers it under the hash.
    Ctor,
    /// Calls a static method; there is no receiver.
    Static,
    /// Calls the method on the mirror registered under the hash.
    Instance,
}

/// A proxy method's crossing, resolved against the opposite world on
/// the method's first call and kept in the caller's [`ClassInfo`] —
/// the run-time counterpart of the edge routine Edger8r generates once
/// per EDL entry (§5.3). Later calls dispatch through it with no name
/// lookup and no string formatting.
#[derive(Debug)]
pub(crate) struct Crossing {
    /// The relay's class in the opposite world.
    pub class: ClassId,
    /// Index of the method the relay forwards to, in that class.
    pub target: usize,
    /// What the relay does with the receiver.
    pub kind: RelayKind,
    /// The EDL edge routine the crossing transitions through.
    pub routine: Box<str>,
    /// `Class.relay$method`: names the crossing's trace spans and
    /// errors.
    pub name: Box<str>,
}

/// The crossing behind proxy method `method` of `class`, one of
/// `caller`'s classes: resolved on the method's first call, read from
/// its slot on every later one. A failed resolution leaves the slot
/// empty, so the next call fails the same way.
fn crossing<'c>(
    app: &AppShared,
    caller: &World,
    class: &'c ClassInfo,
    method: usize,
) -> Result<&'c Arc<Crossing>, VmError> {
    let slots =
        class.crossings.get_or_init(|| class.def.methods.iter().map(|_| OnceLock::new()).collect());
    let slot = &slots[method];
    if let Some(resolved) = slot.get() {
        return Ok(resolved);
    }
    let resolved = Arc::new(resolve_crossing(app, caller, class, method)?);
    Ok(slot.get_or_init(|| resolved))
}

/// Finds the relay the transformer generated for a proxy method in the
/// opposite world. A relay missing from the opposite image is an
/// interface mismatch on the method's edge routine.
fn resolve_crossing(
    app: &AppShared,
    caller: &World,
    class: &ClassInfo,
    method: usize,
) -> Result<Crossing, VmError> {
    let def = &class.def.methods[method];
    let MethodBody::ProxyCall { routine } = &def.body else {
        return Err(VmError::Type(format!(
            "`{}.{}` is not a proxy method",
            class.def.name, def.name
        )));
    };
    let info = app.world(caller.side.opposite()).class_by_name(&class.def.name)?;
    let relay = info
        .def
        .find_method(&relay_name(&def.name))
        .ok_or_else(|| VmError::Sgx(SgxError::InterfaceMismatch { routine: routine.clone() }))?;
    let MethodBody::Relay { target, is_ctor } = &relay.body else {
        return Err(VmError::Type(format!("`{}.{}` is not a relay", info.def.name, relay.name)));
    };
    let index = info.def.method_index(target).ok_or_else(|| VmError::UnknownMethod {
        class: info.def.name.clone(),
        method: target.clone(),
    })?;
    let kind = if *is_ctor {
        RelayKind::Ctor
    } else if info.def.methods[index].kind == MethodKind::Static {
        RelayKind::Static
    } else {
        RelayKind::Instance
    };
    Ok(Crossing {
        class: info.id,
        target: index,
        kind,
        routine: routine.as_str().into(),
        name: format!("{}.{}", info.def.name, relay.name).into(),
    })
}

/// Executes method `method` (an index into `class.def.methods`). The
/// returned value carries one in-flight root per contained reference,
/// which the caller must adopt or release.
pub(crate) fn exec_method(
    app: &AppShared,
    world: &Arc<World>,
    class: &ClassInfo,
    method: usize,
    this: Option<ObjId>,
    args: &[Value],
) -> Result<Value, VmError> {
    let def = &class.def.methods[method];
    if args.len() != def.param_count {
        return Err(VmError::Arity {
            class: class.def.name.clone(),
            method: def.name.clone(),
            expected: def.param_count,
            got: args.len(),
        });
    }
    if world.exec_model.call_overhead_ns > 0 {
        app.cost.charge_ns(world.exec_model.call_overhead_ns);
    }
    match &def.body {
        MethodBody::Instrs(instrs) => {
            let mut ctx = Ctx::new(app, Arc::clone(world));
            let out = interp::run(&mut ctx, &class.def, def, instrs, this, args)?;
            promote(world, &out);
            Ok(out)
        }
        MethodBody::Native(f) => {
            let mut ctx = Ctx::new(app, Arc::clone(world));
            let out = f(&mut ctx, this, args)?;
            promote(world, &out);
            Ok(out)
        }
        MethodBody::ProxyCall { .. } => {
            let crossing = crossing(app, world, class, method)?;
            let recv_hash = match this {
                Some(proxy) => {
                    let heap = world.isolate.lock_heap();
                    Some(read_proxy_hash(&heap, proxy)?)
                }
                None => None,
            };
            cross_call(app, world, crossing, recv_hash, args)
        }
        MethodBody::Relay { .. } => Err(VmError::Type(format!(
            "relay `{}.{}` is an entry point; it is invoked by crossings only",
            class.def.name, def.name
        ))),
    }
}

/// Constructs an instance of `class_name` in (or via) `world`. Returned
/// reference carries an in-flight root.
pub(crate) fn construct(
    app: &AppShared,
    world: &Arc<World>,
    class_name: &str,
    args: &[Value],
) -> Result<Value, VmError> {
    let info = world.class_by_name(class_name)?;
    if info.def.role == ClassRole::Proxy {
        construct_proxy(app, world, info, args)
    } else {
        construct_local(app, world, info, args).map(Value::Ref)
    }
}

/// Allocates and initialises a concrete object locally. The returned
/// object carries an in-flight root.
fn construct_local(
    app: &AppShared,
    world: &Arc<World>,
    info: &ClassInfo,
    args: &[Value],
) -> Result<ObjId, VmError> {
    let nfields = info.def.fields.len();
    let obj = world.isolate.with_heap(|h| {
        let id = h.alloc(info.id, vec![Value::Unit; nfields])?;
        h.add_root(id); // in-flight
        Ok::<_, runtime_sim::heap::OutOfMemory>(id)
    })?;
    if let Some(ctor) = info.def.method_index(CTOR) {
        match exec_method(app, world, info, ctor, Some(obj), args) {
            Ok(ret) => release(world, &ret), // constructors return unit
            Err(e) => {
                world.isolate.with_heap(|h| h.remove_root(obj));
                return Err(e);
            }
        }
    } else if !args.is_empty() {
        world.isolate.with_heap(|h| h.remove_root(obj));
        return Err(VmError::Arity {
            class: info.def.name.clone(),
            method: CTOR.into(),
            expected: 0,
            got: args.len(),
        });
    }
    Ok(obj)
}

/// Creates a proxy locally and crosses to materialise its mirror.
fn construct_proxy(
    app: &AppShared,
    world: &Arc<World>,
    info: &ClassInfo,
    args: &[Value],
) -> Result<Value, VmError> {
    let ctor = info.def.method_index(CTOR).ok_or_else(|| VmError::UnknownMethod {
        class: info.def.name.clone(),
        method: CTOR.into(),
    })?;
    let crossing = crossing(app, world, info, ctor)?;
    let hash = world.hasher.next_hash();
    let proxy = {
        let mut rmi = world.rmi.lock();
        let mut heap = world.isolate.lock_heap();
        let proxy = heap.alloc(info.id, vec![hash_value(hash)])?;
        heap.add_root(proxy); // in-flight
        rmi.weaklist.track(proxy, hash);
        app.cost.recorder().incr(telemetry::Counter::ProxiesCreated);
        proxy
    };
    match cross_call(app, world, crossing, Some(hash), args) {
        Ok(ret) => {
            release(world, &ret);
            Ok(Value::Ref(proxy))
        }
        Err(e) => {
            world.isolate.with_heap(|h| h.remove_root(proxy));
            Err(e)
        }
    }
}

/// Performs one boundary crossing: marshal, transition, relay dispatch
/// in the opposite world, and return-value unmarshal.
fn cross_call(
    app: &AppShared,
    caller: &Arc<World>,
    crossing: &Arc<Crossing>,
    recv_hash: Option<ProxyHash>,
    args: &[Value],
) -> Result<Value, VmError> {
    let callee = app.world(caller.side.opposite());
    let charged_at_entry = app.cost.charged();
    // One cat-"rmi" span per crossing, covering marshal, the transition
    // (or switchless hand-off), the remote relay and the return-value
    // unmarshal. Telemetry's `rmi.calls` counter and the number of
    // "rmi" spans in a trace therefore reconcile (modulo
    // `trace.dropped`). The span is the crossing's trace parent: the
    // thread-local context carries it through classic same-thread
    // serves, the message's context through cross-thread switchless
    // serves.
    let rmi_span = app.cost.tracer().span(
        caller.side.lane(),
        "rmi",
        trace::current(),
        || app.cost.charged_ns(),
        || crossing.name.to_string(),
    );
    let rmi_ctx = rmi_span.as_ref().map(|s| s.context());

    let mut switchless_hit = false;
    let result = (|| -> Result<Value, VmError> {
        let mut msg = marshal(app, caller, args)?;
        msg.recv_hash = recv_hash;
        msg.trace = rmi_ctx;
        let recorder = app.cost.recorder();
        recorder.incr(telemetry::Counter::RmiCalls);
        recorder.add(telemetry::Counter::BytesSerialized, msg.payload.len() as u64);
        let wire_len = msg.wire_len();

        // The classic crossing (`AppShared::cross_classic`), also the
        // target the adaptive switchless engine degrades to when its
        // mailbox is full.
        let classic = |msg: &WireMsg| -> Result<WireMsg, VmError> {
            let serve = || serve_relay(app, callee, crossing, msg);
            let dir = match callee.side {
                Side::Trusted => CrossingDir::Enter,
                Side::Untrusted => CrossingDir::Exit,
            };
            app.cross_classic(dir, &crossing.routine, wire_len, serve)?
        };

        // Switchless mode (§7 future work): post to the opposite side's
        // resident worker pool instead of performing a hardware
        // transition. The pool charges the hand-off on a hit (the
        // serving side adds the wake and batched boundary copies) or
        // the failed-probe surcharge on a fallback (full mailbox),
        // which then pays the classic crossing on top. A nested
        // crossing posted from a pool worker blocks that worker until
        // its reply arrives.
        let ret_msg = if let Some(pool) = &app.switchless {
            match pool.post(callee.side, Arc::clone(crossing), msg)? {
                PostOutcome::Served(served) => {
                    switchless_hit = true;
                    recorder.incr(telemetry::Counter::SwitchlessCalls);
                    served?
                }
                // The pool counted the fallback at the probe that failed.
                PostOutcome::Fallback(msg) => classic(&msg)?,
            }
        } else {
            classic(&msg)?
        };

        // Decode the return value in the caller's world.
        let (rets, pins) = unmarshal(app, caller, &ret_msg)?;
        let ret = rets.into_values().pop().unwrap_or(Value::Unit);
        promote(caller, &ret);
        release_pins(caller, &pins);
        Ok(ret)
    })();

    drop(rmi_span);
    if result.is_ok() {
        // Record the modelled latency of the whole crossing (marshal,
        // transition or worker hand-off, relay work, unmarshal) as a
        // charged-time delta, split by crossing flavour.
        let span_ns = app.cost.charged().saturating_sub(charged_at_entry).as_nanos() as u64;
        // A fallback is a classic crossing (plus the probe surcharge), so
        // it records into the classic histogram.
        let hist = if switchless_hit {
            telemetry::Hist::SwitchlessCallNs
        } else {
            telemetry::Hist::RmiCallNs
        };
        app.cost.recorder().record(hist, span_ns);
    }
    result
}

/// Receiving side of a crossing: dispatches its relay in `callee`.
pub(crate) fn serve_relay(
    app: &AppShared,
    callee: &Arc<World>,
    crossing: &Crossing,
    msg: &WireMsg,
) -> Result<WireMsg, VmError> {
    app.cost.recorder().incr(telemetry::Counter::RelayDispatches);
    // The serving side of the crossing. A classic serve runs on the
    // caller's thread, so the thread-local context (the ecall/ocall
    // transition span) is the parent; a switchless serve runs on a
    // worker thread, where the span context posted with the message
    // reconnects the tree.
    let _span = app.cost.tracer().span(
        callee.side.lane(),
        "exec",
        trace::current().or(msg.trace),
        || app.cost.charged_ns(),
        || format!("serve:{}", crossing.name),
    );
    serve_relay_inner(app, callee, crossing, msg)
}

/// The relay dispatch itself (see [`serve_relay`], which wraps it in
/// the serving side's trace span).
fn serve_relay_inner(
    app: &AppShared,
    callee: &Arc<World>,
    crossing: &Crossing,
    msg: &WireMsg,
) -> Result<WireMsg, VmError> {
    // A crossing resolves its class against the callee's image, so
    // this fails only for a crossing served by the wrong world.
    let info = callee.classes.by_id(crossing.class).ok_or_else(|| {
        VmError::Sgx(SgxError::InterfaceMismatch { routine: crossing.routine.to_string() })
    })?;
    // Both released when this returns, and also when a relay body
    // unwinds: the pins, and the arguments' runs, which go back to this
    // thread's run pool (the caller's, or a switchless worker's).
    let (args, pins) = unmarshal(app, callee, msg)?;
    let _pins = Pins { world: callee, ids: pins };

    let result = (|| -> Result<Value, VmError> {
        let receiver = || {
            msg.recv_hash.ok_or_else(|| {
                VmError::BadRef(format!("relay `{}` without a proxy hash", crossing.name))
            })
        };
        match crossing.kind {
            RelayKind::Ctor => {
                let hash = receiver()?;
                let mirror = construct_local(app, callee, info, &args.values)?;
                {
                    let mut rmi = callee.rmi.lock();
                    let mut heap = callee.isolate.lock_heap();
                    rmi.registry.register(&mut heap, hash, mirror);
                    app.cost.recorder().incr(telemetry::Counter::MirrorsCreated);
                    // The registry holds the mirror now; drop the
                    // in-flight root and return unit (the caller
                    // already holds the proxy).
                    heap.remove_root(mirror);
                }
                Ok(Value::Unit)
            }
            RelayKind::Static => {
                exec_method(app, callee, info, crossing.target, None, &args.values)
            }
            RelayKind::Instance => {
                let hash = receiver()?;
                let mirror = {
                    let rmi = callee.rmi.lock();
                    rmi.registry.get(hash)
                }
                .ok_or_else(|| VmError::BadRef(format!("no mirror registered for hash {hash}")))?;
                exec_method(app, callee, info, crossing.target, Some(mirror), &args.values)
            }
        }
    })();

    result.and_then(|ret| {
        let wire = marshal(app, callee, std::slice::from_ref(&ret));
        release(callee, &ret);
        wire
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::MethodRef;
    use crate::exec::app::{AppConfig, PartitionedApp};
    use crate::image_builder::{build_partitioned_images, ImageOptions};
    use crate::samples::bank_program;
    use crate::transform::transform;

    fn launch_bank() -> PartitionedApp {
        let entries = vec![
            MethodRef::new("Person", CTOR),
            MethodRef::new("Person", "getAccount"),
            MethodRef::new("Account", CTOR),
            MethodRef::new("Account", "balance"),
        ];
        let tp = transform(&bank_program());
        let options = ImageOptions::with_entry_points(entries);
        let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
        let config = AppConfig { gc_helper_interval: None, ..AppConfig::default() };
        PartitionedApp::launch(&t, &u, config).unwrap()
    }

    /// A message into the untrusted world whose one hint names
    /// `Account`, a class that world holds only as a proxy, so
    /// unmarshalling it roots a fresh proxy before reading the payload.
    fn hinted_msg(payload: Vec<u8>, recv_hash: Option<ProxyHash>) -> WireMsg {
        WireMsg {
            recv_hash,
            hints: vec![(ProxyHash(0x5EED), NameRef::Named(0, "Account".into()))],
            payload: payload.into(),
            trace: None,
        }
    }

    /// A well-formed one-int payload.
    fn int_payload(world: &World) -> Vec<u8> {
        let mut buf = Vec::new();
        let heap = world.isolate.lock_heap();
        codec::encode_value_v2(&heap, &Value::Int(7), &mut codec::inline_all, &mut buf).unwrap();
        buf
    }

    fn root_count(world: &World) -> usize {
        world.isolate.with_heap(|h| h.root_count())
    }

    /// The crossing behind proxy method `class.method` of `side`'s
    /// world, resolved as a call would resolve it.
    fn resolved(app: &PartitionedApp, side: Side, class: &str, method: &str) -> Arc<Crossing> {
        let world = app.shared.world(side);
        let info = world.class_by_name(class).unwrap();
        let index = info.def.method_index(method).unwrap();
        Arc::clone(crossing(&app.shared, world, info, index).unwrap())
    }

    #[test]
    fn a_crossing_is_resolved_on_its_first_call_and_kept() {
        let app = launch_bank();
        let world = app.shared.world(Side::Untrusted);
        let account = world.class_by_name("Account").unwrap();
        assert!(account.crossings.get().is_none(), "launch resolves nothing");

        let balance = resolved(&app, Side::Untrusted, "Account", "balance");
        assert_eq!(&*balance.routine, "ecall_relay_Account_balance");
        assert_eq!(&*balance.name, "Account.relay$balance");
        assert_eq!(balance.kind, RelayKind::Instance);
        let callee = app.shared.world(Side::Trusted).classes.by_id(balance.class).unwrap();
        assert_eq!(callee.def.methods[balance.target].name, "balance");
        assert!(Arc::ptr_eq(&balance, &resolved(&app, Side::Untrusted, "Account", "balance")));
        let slots = account.crossings.get().expect("the first crossing allocates the slots");
        let filled = slots.iter().filter(|slot| slot.get().is_some()).count();
        assert_eq!(filled, 1, "only the called method's slot is filled");
        app.shutdown();
    }

    #[test]
    fn a_rejected_payload_leaves_the_hint_proxies_unrooted() {
        let app = launch_bank();
        let world = app.shared.world(Side::Untrusted);
        let roots = root_count(world);
        let mut payload = int_payload(world);
        payload.extend_from_slice(&[0xAA, 0xBB]);

        let err = unmarshal(&app.shared, world, &hinted_msg(payload, None)).unwrap_err();
        assert!(matches!(err, VmError::Codec(CodecError::TrailingBytes(2))), "{err}");
        let proxies = app.telemetry_snapshot().counter(telemetry::Counter::ProxiesCreated);
        assert_eq!(proxies, 1, "the hint was resolved");
        assert_eq!(root_count(world), roots, "the hint's proxy is no longer pinned");
        app.shutdown();
    }

    #[test]
    fn a_rejected_relay_dispatch_releases_its_argument_pins() {
        let app = launch_bank();
        let world = app.shared.world(Side::Untrusted);
        let roots = root_count(world);
        // An instance relay needs the receiver's hash; this message
        // unmarshals cleanly but carries none.
        let msg = hinted_msg(int_payload(world), None);

        let get_account = resolved(&app, Side::Trusted, "Person", "getAccount");
        let err = serve_relay_inner(&app.shared, world, &get_account, &msg).unwrap_err();
        assert!(matches!(&err, VmError::BadRef(m) if m.contains("without a proxy hash")), "{err}");
        let proxies = app.telemetry_snapshot().counter(telemetry::Counter::ProxiesCreated);
        assert_eq!(proxies, 1, "the hint was resolved");
        assert_eq!(root_count(world), roots, "the hint's proxy is no longer pinned");
        app.shutdown();
    }
}
