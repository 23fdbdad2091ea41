//! `enclave-churn`: a trusted request handler whose cost is in-enclave
//! memory. Each request is one ecall that allocates 256 KiB of 1 KiB
//! garbage and replaces one 16 KiB blob of a retained 64 MiB ring, so the
//! `gc` layer and the `sgx` EPC/MEE model dominate while the crossing
//! itself is small. 64 MiB retained (twice that during a semispace copy)
//! overcommits the paper's 93.5 MiB EPC, so collections page, and GC
//! pauses land in the latency tail.

use std::sync::Arc;

use experiments::traffic::{arrival_schedule, TrafficConfig};
use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::ctx::Ctx;
use montsalvat_core::{Trust, VmError};
use runtime_sim::value::{ClassId, ObjId, Value};

use crate::probe::Crossing;
use crate::spans::{enter, SpanName, Spans};
use crate::workload::{Built, Checksum, Workload};

/// Blobs in the retained ring.
const RING_SLOTS: usize = 4096;
/// Bytes per blob: the ring retains 4096 × 16 KiB = 64 MiB.
const BLOB_BYTES: usize = 16 * 1024;
/// Garbage a request allocates, in [`GARBAGE_CHUNK`]-byte objects.
const GARBAGE_BYTES: u64 = 256 * 1024;
const GARBAGE_CHUNK: usize = 1024;
/// Slots filled per untimed pre-fill call.
const FILL_CHUNK: usize = 256;
/// Class id of the ring and blob objects: anonymous runtime arrays,
/// outside every image's class table (as `Ctx::alloc_blob` uses).
const ARRAY_CLASS: ClassId = ClassId(u32::MAX);
/// Mean gap of the Poisson request arrivals: about twice the mean model
/// service time, so the handler runs near half load.
const MEAN_GAP_NS: u64 = 8_500_000;
/// p99.9 latency limit of the capacity search: a full collection of the
/// ring takes a few hundred model milliseconds, so a useful limit for
/// this handler sits above one pause plus the requests queued behind it.
const LATENCY_LIMIT_NS: u64 = 2_000_000_000;

/// The enclave-churn workload over one seeded request stream.
pub struct Churn {
    /// Ring slot each request replaces.
    slots: Vec<usize>,
    arrivals: Vec<u64>,
}

/// Live heap objects and bytes after a full collection, and the hash of
/// the ring's blob versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    objects: i64,
    bytes: i64,
    versions: i64,
}

fn blob(version: u64) -> Value {
    let mut bytes = vec![(version % 251) as u8; BLOB_BYTES];
    bytes[..8].copy_from_slice(&version.to_le_bytes());
    Value::Bytes(bytes)
}

fn int_arg(args: &[Value], i: usize) -> Result<i64, VmError> {
    args.get(i)
        .and_then(Value::as_int)
        .ok_or_else(|| VmError::Type(format!("argument {i} must be an int")))
}

fn bad_ring(what: &str) -> VmError {
    VmError::BadRef(format!("ring {what}"))
}

/// The ring object of the handler `this`.
fn ring_of(ctx: &mut Ctx<'_>, this: Option<ObjId>) -> Result<ObjId, VmError> {
    let this = this.ok_or_else(|| bad_ring("handler without a receiver"))?;
    ctx.get_field(&Value::Ref(this), "ring")?.as_ref_id().ok_or_else(|| bad_ring("missing"))
}

/// Puts a fresh blob of `version` into `slot`; returns the version it
/// replaced (0 for an empty slot).
fn replace(ctx: &mut Ctx<'_>, ring: ObjId, slot: usize, version: u64) -> Result<i64, VmError> {
    ctx.with_heap(|h| {
        let old = match h.field(ring, slot) {
            Some(Value::Ref(old)) => match h.field(*old, 0) {
                Some(Value::Bytes(b)) if b.len() >= 8 => {
                    i64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
                }
                _ => return Err(bad_ring("blob without a version")),
            },
            Some(Value::Unit) => 0,
            _ => return Err(bad_ring("slot out of range")),
        };
        // The ring is reachable from the registered handler, and the new
        // blob is stored before anything else can allocate.
        let fresh = h.alloc(ARRAY_CLASS, vec![blob(version)])?;
        h.set_field(ring, slot, Value::Ref(fresh));
        Ok(old)
    })
}

fn churn_program(spans: Option<Arc<Spans>>) -> Program {
    let handler = ClassDef::new("ChurnHandler")
        .trust(Trust::Trusted)
        .field("ring")
        .method(MethodDef::native(
            CTOR,
            MethodKind::Constructor,
            0,
            vec![],
            Arc::new(|ctx, this, _args| {
                let this = this.ok_or_else(|| bad_ring("handler without a receiver"))?;
                let ring =
                    ctx.with_heap(|h| h.alloc(ARRAY_CLASS, vec![Value::Unit; RING_SLOTS]))?;
                ctx.set_field(&Value::Ref(this), "ring", Value::Ref(ring))?;
                Ok(Value::Unit)
            }),
        ))
        .method(MethodDef::native(
            "fill",
            MethodKind::Instance,
            2,
            vec![],
            Arc::new(|ctx, this, args| {
                let ring = ring_of(ctx, this)?;
                let from = int_arg(args, 0)? as usize;
                for slot in from..(from + int_arg(args, 1)? as usize).min(RING_SLOTS) {
                    replace(ctx, ring, slot, 0)?;
                }
                Ok(Value::Unit)
            }),
        ))
        .method(MethodDef::native(
            "handle",
            MethodKind::Instance,
            2,
            vec![],
            Arc::new(move |ctx, this, args| {
                let _body = enter(spans.as_ref(), SpanName::AppBody);
                let slot = int_arg(args, 0)? as usize;
                let version = int_arg(args, 1)? as u64;
                ctx.alloc_garbage(GARBAGE_BYTES, GARBAGE_CHUNK);
                let ring = ring_of(ctx, this)?;
                Ok(Value::Int(replace(ctx, ring, slot, version)?))
            }),
        ))
        .method(MethodDef::native(
            "audit",
            MethodKind::Instance,
            0,
            vec![],
            Arc::new(|ctx, this, _args| {
                let ring = ring_of(ctx, this)?;
                ctx.collect_garbage();
                ctx.with_heap(|h| {
                    let mut versions = Checksum::default();
                    for slot in 0..RING_SLOTS {
                        let version = match h.field(ring, slot) {
                            Some(Value::Ref(b)) => match h.field(*b, 0) {
                                Some(Value::Bytes(b)) => u64::from_le_bytes(
                                    b[..8].try_into().map_err(|_| bad_ring("short blob"))?,
                                ),
                                _ => return Err(bad_ring("blob without bytes")),
                            },
                            _ => return Err(bad_ring("unfilled slot")),
                        };
                        versions.word(version);
                    }
                    Ok(Value::List(vec![
                        Value::Int(h.live_objects() as i64),
                        Value::Int(h.live_bytes() as i64),
                        Value::Int(versions.0 as i64),
                    ]))
                })
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![handler, main], MethodRef::new("Main", "main"))
        .expect("the enclave-churn program is well-formed")
}

fn audit(ctx: &mut Ctx<'_>, handler: &Value) -> Result<Audit, VmError> {
    let reply = ctx.call(handler, "audit", &[])?;
    match reply.as_list() {
        Some([Value::Int(objects), Value::Int(bytes), Value::Int(versions)]) => {
            Ok(Audit { objects: *objects, bytes: *bytes, versions: *versions })
        }
        _ => Err(VmError::Type(format!("malformed audit reply {reply:?}"))),
    }
}

impl Churn {
    /// `ops` requests generated from `seed`.
    pub fn new(seed: u64, ops: usize) -> Churn {
        // splitmix64 over a seed-derived stream.
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let slots = (0..ops).map(|_| (next() % RING_SLOTS as u64) as usize).collect();
        let cfg = TrafficConfig {
            seed,
            requests: ops,
            mean_interarrival_ns: MEAN_GAP_NS,
            burst_factor: 1.0,
            ..TrafficConfig::full()
        };
        Churn { slots, arrivals: arrival_schedule(&cfg) }
    }
}

impl Workload for Churn {
    type State = ();
    type Baseline = Audit;

    fn name(&self) -> &'static str {
        "enclave-churn"
    }

    fn ops(&self) -> usize {
        self.slots.len()
    }

    fn arrivals(&self) -> &[u64] {
        &self.arrivals
    }

    fn latency_limit_ns(&self) -> u64 {
        LATENCY_LIMIT_NS
    }

    fn input_digest(&self) -> u64 {
        let mut sum = Checksum::default();
        self.slots.iter().for_each(|&s| sum.word(s as u64));
        self.arrivals.iter().for_each(|&a| sum.word(a));
        sum.0
    }

    fn program(&self, spans: Option<Arc<Spans>>) -> Built<()> {
        Built {
            program: churn_program(spans),
            entries: [CTOR, "fill", "handle", "audit"]
                .into_iter()
                .map(|m| MethodRef::new("ChurnHandler", m))
                .chain([MethodRef::new("Main", "main")])
                .collect(),
            state: (),
        }
    }

    /// Creates the handler, pre-fills the ring and takes the baseline
    /// audit (which ends in a full collection, so every trial starts
    /// from the same heap).
    fn open(&self, ctx: &mut Ctx<'_>) -> Result<(Value, Audit), VmError> {
        let handler = ctx.new_object("ChurnHandler", &[])?;
        for from in (0..RING_SLOTS).step_by(FILL_CHUNK) {
            ctx.call(&handler, "fill", &[Value::Int(from as i64), Value::Int(FILL_CHUNK as i64)])?;
        }
        let baseline = audit(ctx, &handler)?;
        Ok((handler, baseline))
    }

    fn request<'a>(&'a self, i: usize, buf: &'a mut Vec<Value>) -> (&'static str, &'a [Value]) {
        buf.clear();
        buf.push(Value::Int(self.slots[i] as i64));
        buf.push(Value::Int(i as i64 + 1));
        ("handle", buf)
    }

    fn expected_checksum(&self, n: usize) -> u64 {
        let mut ring = vec![0u64; RING_SLOTS];
        let mut sum = Checksum::default();
        for (i, &slot) in self.slots[..n].iter().enumerate() {
            sum.value(&Value::Int(ring[slot] as i64));
            ring[slot] = i as u64 + 1;
        }
        sum.0
    }

    /// After a final full collection the trusted heap must hold exactly
    /// what it held after the pre-fill (every blob replaced one for one,
    /// all garbage reclaimed) and the ring the reference's versions.
    fn finish(
        &self,
        ctx: &mut Ctx<'_>,
        target: &Value,
        baseline: &Audit,
        _state: &(),
        n: usize,
    ) -> Result<(), String> {
        let got = audit(ctx, target).map_err(|e| format!("final audit failed: {e}"))?;
        let mut ring = vec![0u64; RING_SLOTS];
        for (i, &slot) in self.slots[..n].iter().enumerate() {
            ring[slot] = i as u64 + 1;
        }
        let mut versions = Checksum::default();
        ring.into_iter().for_each(|v| versions.word(v));
        let expected = Audit { versions: versions.0 as i64, ..*baseline };
        if got == expected {
            Ok(())
        } else {
            Err(format!("final heap audit {got:?} differs from the expected {expected:?}"))
        }
    }

    fn crossings(&self, i: usize, buf: &mut Vec<Value>, reply: &Value) -> Vec<Crossing> {
        let (_, args) = self.request(i, buf);
        vec![(args.to_vec(), reply.clone())]
    }
}
