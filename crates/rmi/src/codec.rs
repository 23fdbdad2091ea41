//! Serialization of managed values across the enclave boundary.
//!
//! Relay methods pass primitives by value, annotated-class references by
//! proxy hash, and *neutral* objects by serialized copy (§5.2). This
//! module implements that wire format (`montsalvat.rmi/v2`, see
//! `docs/SERDE.md`): a compact, self-describing binary encoding of
//! [`Value`] graphs with
//!
//! - inline deep copies for neutral objects,
//! - back-references so shared substructure and cycles encode finitely,
//! - hash references for objects the caller maps to proxies/mirrors,
//! - *bulk* runs: `Value::Bytes` and primitive-homogeneous
//!   `Value::List`s encode as one length-prefixed memcpy instead of one
//!   tag per element.
//!
//! The caller supplies the policy that decides, per object reference,
//! whether to inline or hash-reference it — keeping the codec free of
//! class-annotation knowledge.
//!
//! Every stream opens with [`WIRE_V2_MARKER`]. [`encode_value_v2`] /
//! [`encode_values_v2`] write into a caller-supplied (typically pooled
//! — see [`crate::pool`]) buffer and report how many payload bytes went
//! through the bulk path so the cost model can charge them at the
//! cheaper bulk rate. [`decode_value`] refills a list from the thread's
//! run pool with a `TAG_INTS`/`TAG_FLOATS` run when one fits, and marks
//! the top-level elements it decoded from runs
//! ([`DecodedValue::runs`]) so their owner can give them back.
//!
//! [`decode_value`] is where one runtime first reads bytes the other
//! side produced, so it rejects malformed input instead of repairing
//! it: an unmarked stream, an unknown tag, a truncated value, an
//! out-of-range count or back-reference, invalid UTF-8 in a string,
//! bytes after the top-level value, and nesting deeper than
//! [`MAX_DECODE_DEPTH`] each end in a typed [`CodecError`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use runtime_sim::heap::Heap;
use runtime_sim::value::{ClassId, ObjId, Value};

use crate::hash::ProxyHash;

/// How a heap reference crosses the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefEncoding {
    /// Deep-copy the referenced object into the stream (neutral classes).
    Inline,
    /// Replace the reference by a proxy/mirror hash (annotated classes).
    Hash(ProxyHash),
}

/// Errors produced by [`encode_value_v2`] / [`decode_value`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CodecError {
    /// The policy rejected a reference (e.g. a trusted object would leak).
    ForbiddenRef {
        /// The offending reference.
        id: ObjId,
        /// Why the policy rejected it.
        reason: String,
    },
    /// A reference pointed at a dead object.
    DeadRef(ObjId),
    /// The byte stream ended mid-value.
    Truncated,
    /// An unknown tag byte was read.
    BadTag(u8),
    /// A back-reference index pointed outside the decoded set.
    BadBackRef(u32),
    /// A hash reference could not be resolved by the receiver.
    UnknownHash(ProxyHash),
    /// The receiving heap refused the allocation.
    AllocFailed(String),
    /// The stream nested values deeper than [`MAX_DECODE_DEPTH`].
    TooDeep,
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the top-level value; the count is how many.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::ForbiddenRef { id, reason } => {
                write!(f, "reference {id} may not cross the boundary: {reason}")
            }
            CodecError::DeadRef(id) => write!(f, "reference {id} is dead"),
            CodecError::Truncated => write!(f, "byte stream truncated"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t}"),
            CodecError::BadBackRef(i) => write!(f, "back-reference {i} out of range"),
            CodecError::UnknownHash(h) => write!(f, "unresolvable object hash {h}"),
            CodecError::AllocFailed(m) => write!(f, "receiver allocation failed: {m}"),
            CodecError::TooDeep => {
                write!(f, "value nesting exceeds the decode depth bound {MAX_DECODE_DEPTH}")
            }
            CodecError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the value"),
        }
    }
}

impl Error for CodecError {}

const TAG_UNIT: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_OBJ: u8 = 7;
const TAG_BACKREF: u8 = 8;
const TAG_HASHREF: u8 = 9;
// Bulk tags: a homogeneous primitive list as one raw copy.
const TAG_INTS: u8 = 10;
const TAG_FLOATS: u8 = 11;

/// First byte of every stream. [`decode_value`] rejects any other
/// first byte, so a payload from another format (or a corrupted one)
/// cannot be mistaken for a value.
pub const WIRE_V2_MARKER: u8 = 0xF2;

/// Maximum value-nesting depth [`decode_value`] accepts before
/// returning [`CodecError::TooDeep`]. Deep enough for any legitimate
/// object graph (cycles and sharing flatten through back-references),
/// shallow enough that decoding runs in bounded stack space.
pub const MAX_DECODE_DEPTH: usize = 128;

/// Byte accounting from an encode, for split-rate cost charging:
/// `bulk_bytes` moved through a single-memcpy bulk tag and are charged
/// at `serde_bulk_ns_per_byte`; the remaining
/// [`EncodeStats::element_bytes`] paid the per-element graph walk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EncodeStats {
    /// Total bytes this encode appended to the output buffer.
    pub total_bytes: u64,
    /// Payload bytes written by bulk (single-memcpy) tags.
    pub bulk_bytes: u64,
}

impl EncodeStats {
    /// Bytes that took the per-element path (tags, headers, scalars).
    pub fn element_bytes(&self) -> u64 {
        self.total_bytes - self.bulk_bytes
    }
}

/// Encodes `value` into `out`, appending, and consults `policy` for
/// every object reference encountered.
///
/// The buffer is caller-supplied so steady-state crossings can reuse a
/// pooled one ([`crate::pool::acquire`]). Returns the byte accounting
/// for split-rate cost charging.
///
/// # Errors
///
/// Fails if the policy rejects a reference, or a reference is dead.
pub fn encode_value_v2(
    heap: &Heap,
    value: &Value,
    policy: &mut impl FnMut(ObjId) -> Result<RefEncoding, CodecError>,
    out: &mut Vec<u8>,
) -> Result<EncodeStats, CodecError> {
    let start = out.len();
    let mut seen: HashMap<ObjId, u32> = HashMap::new();
    let mut bulk = 0;
    out.push(WIRE_V2_MARKER);
    encode_inner(heap, value, policy, &mut seen, out, &mut bulk)?;
    Ok(EncodeStats { total_bytes: (out.len() - start) as u64, bulk_bytes: bulk })
}

/// Encodes an argument slice as one list without materialising a
/// `Value::List`. Decodes as a `Value::List` of the arguments.
///
/// # Errors
///
/// Same failure modes as [`encode_value_v2`].
pub fn encode_values_v2(
    heap: &Heap,
    values: &[Value],
    policy: &mut impl FnMut(ObjId) -> Result<RefEncoding, CodecError>,
    out: &mut Vec<u8>,
) -> Result<EncodeStats, CodecError> {
    let start = out.len();
    let mut seen: HashMap<ObjId, u32> = HashMap::new();
    let mut bulk = 0;
    out.push(WIRE_V2_MARKER);
    encode_list(heap, values, policy, &mut seen, out, &mut bulk)?;
    Ok(EncodeStats { total_bytes: (out.len() - start) as u64, bulk_bytes: bulk })
}

/// Encodes a list body, taking the bulk path when every element is the
/// same fixed-width primitive. A list that opens with an `Int` (or a
/// `Float`) is written in one pass as a bulk run; at the first element
/// of another kind the run is cut away and the list is encoded element
/// by element instead.
fn encode_list(
    heap: &Heap,
    vs: &[Value],
    policy: &mut impl FnMut(ObjId) -> Result<RefEncoding, CodecError>,
    seen: &mut HashMap<ObjId, u32>,
    out: &mut Vec<u8>,
    bulk: &mut u64,
) -> Result<(), CodecError> {
    let bulk_run = match vs.first() {
        Some(Value::Int(_)) => encode_run(vs, TAG_INTS, out, |v| match v {
            Value::Int(i) => Some(i.to_le_bytes()),
            _ => None,
        }),
        Some(Value::Float(_)) => encode_run(vs, TAG_FLOATS, out, |v| match v {
            Value::Float(x) => Some(x.to_le_bytes()),
            _ => None,
        }),
        _ => false,
    };
    if bulk_run {
        *bulk += 8 * vs.len() as u64;
        return Ok(());
    }
    out.push(TAG_LIST);
    out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
    for v in vs {
        encode_inner(heap, v, policy, seen, out, bulk)?;
    }
    Ok(())
}

/// Writes `vs` as one bulk run under `tag` (count, then each element's
/// 8 bytes from `word`) into a block sized up front. Returns `false`
/// and leaves `out` as it found it if `word` refuses an element.
fn encode_run(
    vs: &[Value],
    tag: u8,
    out: &mut Vec<u8>,
    word: impl Fn(&Value) -> Option<[u8; 8]>,
) -> bool {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
    let body = out.len();
    out.resize(body + 8 * vs.len(), 0);
    let whole = out[body..].chunks_exact_mut(8).zip(vs).all(|(slot, v)| match word(v) {
        Some(bytes) => {
            slot.copy_from_slice(&bytes);
            true
        }
        None => false,
    });
    if !whole {
        out.truncate(start);
    }
    whole
}

fn encode_inner(
    heap: &Heap,
    value: &Value,
    policy: &mut impl FnMut(ObjId) -> Result<RefEncoding, CodecError>,
    seen: &mut HashMap<ObjId, u32>,
    out: &mut Vec<u8>,
    bulk: &mut u64,
) -> Result<(), CodecError> {
    match value {
        Value::Unit => out.push(TAG_UNIT),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
            *bulk += b.len() as u64;
        }
        Value::List(vs) => encode_list(heap, vs, policy, seen, out, bulk)?,
        Value::Ref(id) => {
            if let Some(&idx) = seen.get(id) {
                out.push(TAG_BACKREF);
                out.extend_from_slice(&idx.to_le_bytes());
                return Ok(());
            }
            match policy(*id)? {
                RefEncoding::Hash(h) => {
                    out.push(TAG_HASHREF);
                    out.extend_from_slice(&h.0.to_le_bytes());
                }
                RefEncoding::Inline => {
                    let class = heap.class_of(*id).ok_or(CodecError::DeadRef(*id))?;
                    let fields = heap.fields(*id).ok_or(CodecError::DeadRef(*id))?;
                    // Register before encoding fields so cycles terminate.
                    let idx = seen.len() as u32;
                    seen.insert(*id, idx);
                    out.push(TAG_OBJ);
                    out.extend_from_slice(&class.0.to_le_bytes());
                    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
                    for f in fields {
                        encode_inner(heap, f, policy, seen, out, bulk)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Result of decoding: the value plus every object the decode allocated.
///
/// Allocated objects are left **rooted** in the receiving heap so an
/// automatic collection cannot reclaim them before the caller takes
/// ownership; call [`DecodedValue::unpin`] once the result is anchored.
#[derive(Debug)]
pub struct DecodedValue {
    /// The decoded value.
    pub value: Value,
    /// Objects allocated by the decode, in allocation order.
    pub allocated: Vec<ObjId>,
    /// Payload bytes that arrived through bulk encodings
    /// ([`Value::Bytes`] bodies, `TAG_INTS`/`TAG_FLOATS` element
    /// blocks) and decode as straight copies — the cost model bills
    /// them at the bulk rate instead of the graph-walk rate.
    pub bulk_bytes: u64,
    /// Bit `i` is set when element `i` of a top-level list (`i` < 64)
    /// is a list this decode built from a `TAG_INTS`/`TAG_FLOATS` run.
    /// Such a list holds only `Int`s or only `Float`s, so its owner may
    /// give it back with [`crate::pool::recycle_run`] once done with
    /// it. Nothing else is marked: not a top-level value that is itself
    /// a run, not a `TAG_LIST` list, and not a run nested deeper.
    pub runs: u64,
}

impl DecodedValue {
    /// Releases the temporary roots on all allocated objects.
    pub fn unpin(self, heap: &mut Heap) -> Value {
        for id in &self.allocated {
            heap.remove_root(*id);
        }
        self.value
    }
}

/// Decodes a value into `heap`, resolving hash references via `resolve`.
///
/// `bytes` must hold exactly one value, opened by [`WIRE_V2_MARKER`].
///
/// # Errors
///
/// Fails on malformed input — an empty stream is
/// [`CodecError::Truncated`], any first byte other than the marker is
/// [`CodecError::BadTag`], invalid UTF-8 in a string is
/// [`CodecError::BadUtf8`], and bytes after the value are
/// [`CodecError::TrailingBytes`] — and on unresolvable hashes,
/// allocation failure, or nesting beyond [`MAX_DECODE_DEPTH`].
pub fn decode_value(
    heap: &mut Heap,
    bytes: &[u8],
    resolve: &mut impl FnMut(ProxyHash) -> Result<Value, CodecError>,
) -> Result<DecodedValue, CodecError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    match cursor.u8()? {
        WIRE_V2_MARKER => {}
        b => return Err(CodecError::BadTag(b)),
    }
    let mut allocated = Vec::new();
    let mut bulk = 0u64;
    let mut runs = 0u64;
    let err =
        match decode_inner(heap, &mut cursor, resolve, &mut allocated, 0, &mut bulk, &mut runs) {
            Ok(value) if cursor.remaining() == 0 => {
                return Ok(DecodedValue { value, allocated, bulk_bytes: bulk, runs });
            }
            Ok(_) => CodecError::TrailingBytes(cursor.remaining()),
            Err(e) => e,
        };
    // A rejected stream leaves nothing rooted in the receiver, and its
    // runs drop instead of going back to the pool.
    for id in allocated {
        heap.remove_root(id);
    }
    Err(err)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Validates a claimed element count against the remaining input:
    /// every encoded element occupies at least one byte, so any larger
    /// claim is malformed (and would otherwise drive huge allocations).
    fn checked_count(&self, claimed: u32) -> Result<usize, CodecError> {
        if claimed as usize > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(claimed as usize)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if self.pos + n > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

fn decode_inner(
    heap: &mut Heap,
    cur: &mut Cursor<'_>,
    resolve: &mut impl FnMut(ProxyHash) -> Result<Value, CodecError>,
    allocated: &mut Vec<ObjId>,
    depth: usize,
    bulk: &mut u64,
    runs: &mut u64,
) -> Result<Value, CodecError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match cur.u8()? {
        TAG_UNIT => Ok(Value::Unit),
        TAG_BOOL => Ok(Value::Bool(cur.u8()? != 0)),
        TAG_INT => Ok(Value::Int(cur.i64()?)),
        TAG_FLOAT => Ok(Value::Float(cur.f64()?)),
        TAG_STR => {
            let len = cur.u32()? as usize;
            let raw = cur.take(len)?;
            let s = std::str::from_utf8(raw).map_err(|_| CodecError::BadUtf8)?;
            Ok(Value::Str(s.to_owned()))
        }
        TAG_BYTES => {
            let len = cur.u32()? as usize;
            *bulk += len as u64;
            Ok(Value::Bytes(cur.take(len)?.to_vec()))
        }
        TAG_LIST => {
            let claimed = cur.u32()?;
            let len = cur.checked_count(claimed)?;
            let mut vs = Vec::with_capacity(len.min(1024));
            for i in 0..len {
                // The tag says, in O(1), whether a top-level element is
                // a run.
                if depth == 0 && i < 64 && matches!(cur.peek(), Some(TAG_INTS | TAG_FLOATS)) {
                    *runs |= 1 << i;
                }
                vs.push(decode_inner(heap, cur, resolve, allocated, depth + 1, bulk, runs)?);
            }
            Ok(Value::List(vs))
        }
        TAG_INTS => decode_run(
            cur,
            bulk,
            |w| Value::Int(i64::from_le_bytes(w)),
            |slot, w| match slot {
                Value::Int(x) => *x = i64::from_le_bytes(w),
                _ => *slot = Value::Int(i64::from_le_bytes(w)),
            },
        ),
        TAG_FLOATS => decode_run(
            cur,
            bulk,
            |w| Value::Float(f64::from_le_bytes(w)),
            |slot, w| match slot {
                Value::Float(x) => *x = f64::from_le_bytes(w),
                _ => *slot = Value::Float(f64::from_le_bytes(w)),
            },
        ),
        TAG_OBJ => {
            let class = ClassId(cur.u32()?);
            let claimed = cur.u32()?;
            let nfields = cur.checked_count(claimed)?;
            // Allocate a placeholder first so cyclic back-refs resolve.
            let id = heap
                .alloc(class, vec![Value::Unit; nfields])
                .map_err(|e| CodecError::AllocFailed(e.to_string()))?;
            heap.add_root(id);
            allocated.push(id);
            for idx in 0..nfields {
                let v = decode_inner(heap, cur, resolve, allocated, depth + 1, bulk, runs)?;
                heap.set_field(id, idx, v);
            }
            Ok(Value::Ref(id))
        }
        TAG_BACKREF => {
            let idx = cur.u32()?;
            let id = allocated.get(idx as usize).copied().ok_or(CodecError::BadBackRef(idx))?;
            Ok(Value::Ref(id))
        }
        TAG_HASHREF => {
            let h = ProxyHash(cur.u128()?);
            resolve(h)
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Decodes a run's body (count, then one 8-byte word per element) into
/// a list. A list from this thread's run pool is refilled in place when
/// one fits ([`crate::pool::take_run`]): `refill` writes only the
/// payload of a slot that already holds the run's variant and assigns
/// any other, then the list is cut or extended to the run's length.
/// With no list to reuse, the words are collected into a fresh one by
/// `fresh`.
fn decode_run(
    cur: &mut Cursor<'_>,
    bulk: &mut u64,
    fresh: impl Fn([u8; 8]) -> Value,
    refill: impl Fn(&mut Value, [u8; 8]),
) -> Result<Value, CodecError> {
    let claimed = cur.u32()?;
    let len = cur.checked_count(claimed)?;
    let raw = cur.take(len * 8)?;
    *bulk += raw.len() as u64;
    let word = |c: &[u8]| -> [u8; 8] { c.try_into().expect("8 bytes") };
    let Some(mut list) = crate::pool::take_run(len) else {
        return Ok(Value::List(raw.chunks_exact(8).map(|c| fresh(word(c))).collect()));
    };
    let (head, tail) = raw.split_at(8 * list.len().min(len));
    for (slot, c) in list.iter_mut().zip(head.chunks_exact(8)) {
        refill(slot, word(c));
    }
    list.truncate(len);
    list.extend(tail.chunks_exact(8).map(|c| fresh(word(c))));
    Ok(Value::List(list))
}

/// Convenience policy that inlines every reference (valid when the value
/// graph is known to contain only neutral objects).
pub fn inline_all(_: ObjId) -> Result<RefEncoding, CodecError> {
    Ok(RefEncoding::Inline)
}

/// Convenience resolver that rejects every hash (valid when the stream
/// is known to contain no hash references).
pub fn resolve_none(h: ProxyHash) -> Result<Value, CodecError> {
    Err(CodecError::UnknownHash(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime_sim::heap::HeapConfig;

    fn heap() -> Heap {
        Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() })
    }

    /// Encodes `value` into a fresh buffer.
    fn encode(
        src: &Heap,
        value: &Value,
        policy: &mut impl FnMut(ObjId) -> Result<RefEncoding, CodecError>,
    ) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        encode_value_v2(src, value, policy, &mut out)?;
        Ok(out)
    }

    fn roundtrip(value: &Value, src: &Heap, dst: &mut Heap) -> (Value, EncodeStats) {
        let mut bytes = Vec::new();
        let stats = encode_value_v2(src, value, &mut inline_all, &mut bytes).unwrap();
        assert_eq!(stats.total_bytes as usize, bytes.len());
        let decoded = decode_value(dst, &bytes, &mut resolve_none).unwrap();
        (decoded.unpin(dst), stats)
    }

    #[test]
    fn primitives_roundtrip() {
        let src = heap();
        let mut dst = heap();
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Int(-17),
            Value::Float(3.5),
            Value::Str("héllo".into()),
            Value::Bytes(vec![1, 2, 3]),
            Value::List(vec![Value::Int(1), Value::Str("x".into())]),
            Value::List(vec![]),
        ] {
            assert_eq!(roundtrip(&v, &src, &mut dst).0, v);
        }
    }

    #[test]
    fn neutral_objects_deep_copy() {
        let mut src = heap();
        let inner = src.alloc(ClassId(5), vec![Value::Int(7)]).unwrap();
        let outer = src.alloc(ClassId(6), vec![Value::Ref(inner), Value::from("s")]).unwrap();
        src.add_root(outer);

        let mut dst = heap();
        let (out, _) = roundtrip(&Value::Ref(outer), &src, &mut dst);
        let new_outer = out.as_ref_id().unwrap();
        assert_eq!(dst.class_of(new_outer), Some(ClassId(6)));
        let new_inner = dst.field(new_outer, 0).unwrap().as_ref_id().unwrap();
        assert_eq!(dst.class_of(new_inner), Some(ClassId(5)));
        assert_eq!(dst.field(new_inner, 0), Some(&Value::Int(7)));
        // Copies, not aliases.
        assert_eq!(dst.live_objects(), 2);
    }

    #[test]
    fn shared_substructure_is_preserved() {
        let mut src = heap();
        let shared = src.alloc(ClassId(1), vec![Value::Int(9)]).unwrap();
        let top = src.alloc(ClassId(2), vec![Value::Ref(shared), Value::Ref(shared)]).unwrap();
        src.add_root(top);

        let mut dst = heap();
        let (out, _) = roundtrip(&Value::Ref(top), &src, &mut dst);
        let new_top = out.as_ref_id().unwrap();
        let a = dst.field(new_top, 0).unwrap().as_ref_id().unwrap();
        let b = dst.field(new_top, 1).unwrap().as_ref_id().unwrap();
        assert_eq!(a, b, "sharing survives the roundtrip");
        assert_eq!(dst.live_objects(), 2, "shared object copied once");
    }

    #[test]
    fn cycles_roundtrip() {
        let mut src = heap();
        let a = src.alloc(ClassId(0), vec![Value::Unit]).unwrap();
        let b = src.alloc(ClassId(0), vec![Value::Ref(a)]).unwrap();
        src.set_field(a, 0, Value::Ref(b));
        src.add_root(a);

        let mut dst = heap();
        let (out, _) = roundtrip(&Value::Ref(a), &src, &mut dst);
        let na = out.as_ref_id().unwrap();
        let nb = dst.field(na, 0).unwrap().as_ref_id().unwrap();
        assert_eq!(dst.field(nb, 0).unwrap().as_ref_id(), Some(na));
    }

    #[test]
    fn hash_refs_substitute_via_resolver() {
        let mut src = heap();
        let trusted = src.alloc(ClassId(9), vec![]).unwrap();
        src.add_root(trusted);
        let the_hash = ProxyHash(0xdead_beef);
        let bytes =
            encode(&src, &Value::Ref(trusted), &mut |_id| Ok(RefEncoding::Hash(the_hash))).unwrap();

        let mut dst = heap();
        let mirror = dst.alloc(ClassId(9), vec![]).unwrap();
        dst.add_root(mirror);
        let decoded = decode_value(&mut dst, &bytes, &mut |h| {
            assert_eq!(h, the_hash);
            Ok(Value::Ref(mirror))
        })
        .unwrap();
        assert_eq!(decoded.value.as_ref_id(), Some(mirror));
        assert!(decoded.allocated.is_empty());
    }

    #[test]
    fn policy_can_forbid_refs() {
        let mut src = heap();
        let secret = src.alloc(ClassId(3), vec![Value::from("key")]).unwrap();
        src.add_root(secret);
        let err = encode(&src, &Value::Ref(secret), &mut |id| {
            Err(CodecError::ForbiddenRef { id, reason: "trusted field would leak".into() })
        })
        .unwrap_err();
        assert!(matches!(err, CodecError::ForbiddenRef { .. }));
    }

    #[test]
    fn dead_refs_are_rejected() {
        let mut src = heap();
        let id = src.alloc(ClassId(0), vec![]).unwrap();
        src.collect(); // reclaims the unrooted object
        let err = encode(&src, &Value::Ref(id), &mut inline_all).unwrap_err();
        assert_eq!(err, CodecError::DeadRef(id));
    }

    #[test]
    fn truncated_and_bad_tag_inputs_error() {
        let mut dst = heap();
        for (bytes, want) in [
            (&[][..], CodecError::Truncated),
            (&[WIRE_V2_MARKER][..], CodecError::Truncated),
            (&[WIRE_V2_MARKER, TAG_INT, 1, 2][..], CodecError::Truncated),
            (&[WIRE_V2_MARKER, 42][..], CodecError::BadTag(42)),
        ] {
            assert_eq!(decode_value(&mut dst, bytes, &mut resolve_none).unwrap_err(), want);
        }
    }

    #[test]
    fn bad_backref_is_detected() {
        let mut bytes = vec![WIRE_V2_MARKER, TAG_BACKREF];
        bytes.extend_from_slice(&7u32.to_le_bytes());
        let mut dst = heap();
        assert_eq!(
            decode_value(&mut dst, &bytes, &mut resolve_none).unwrap_err(),
            CodecError::BadBackRef(7)
        );
    }

    #[test]
    fn v2_bulk_encodes_homogeneous_primitive_lists() {
        let src = heap();
        let mut dst = heap();
        let ints = Value::List((0..100).map(Value::Int).collect());
        let (out, stats) = roundtrip(&ints, &src, &mut dst);
        assert_eq!(out, ints);
        assert_eq!(stats.bulk_bytes, 800, "one memcpy of 100 × 8 bytes");
        // marker + tag + count + payload
        assert_eq!(stats.total_bytes, 1 + 1 + 4 + 800);

        let floats = Value::List((0..10).map(|i| Value::Float(i as f64)).collect());
        let (out, stats) = roundtrip(&floats, &src, &mut dst);
        assert_eq!(out, floats);
        assert_eq!(stats.bulk_bytes, 80);

        // A mixed list takes the per-element path.
        let mixed = Value::List(vec![Value::Int(1), Value::Float(2.0)]);
        let (out, stats) = roundtrip(&mixed, &src, &mut dst);
        assert_eq!(out, mixed);
        assert_eq!(stats.bulk_bytes, 0);
    }

    #[test]
    fn v2_counts_bytes_payloads_as_bulk() {
        let src = heap();
        let mut dst = heap();
        let v = Value::Bytes(vec![7; 4096]);
        let (out, stats) = roundtrip(&v, &src, &mut dst);
        assert_eq!(out, v);
        assert_eq!(stats.bulk_bytes, 4096);
        assert_eq!(stats.element_bytes(), 1 + 1 + 4, "marker, tag, length prefix");
    }

    #[test]
    fn encode_values_v2_matches_a_decoded_list() {
        let src = heap();
        let mut dst = heap();
        let args = vec![Value::Bytes(vec![1, 2]), Value::Int(9)];
        let mut bytes = Vec::new();
        encode_values_v2(&src, &args, &mut inline_all, &mut bytes).unwrap();
        let decoded = decode_value(&mut dst, &bytes, &mut resolve_none).unwrap();
        assert_eq!(decoded.unpin(&mut dst), Value::List(args));
    }

    #[test]
    fn unmarked_streams_are_rejected() {
        // A well-formed value body without the leading marker.
        let mut bytes = vec![TAG_INTS];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&5i64.to_le_bytes());
        let mut dst = heap();
        assert_eq!(
            decode_value(&mut dst, &bytes, &mut resolve_none).unwrap_err(),
            CodecError::BadTag(TAG_INTS)
        );
        let mut bytes = vec![TAG_INT];
        bytes.extend_from_slice(&7i64.to_le_bytes());
        assert_eq!(
            decode_value(&mut dst, &bytes, &mut resolve_none).unwrap_err(),
            CodecError::BadTag(TAG_INT)
        );
    }

    #[test]
    fn pinned_wire_bytes() {
        // Golden payload assembled by hand: [Int(7), Str("hi"),
        // Bytes([1,2])]. Pins the bytes a crossing puts on the wire,
        // which every modelled wire length and seeded export depends on.
        let mut golden = vec![WIRE_V2_MARKER, TAG_LIST];
        golden.extend_from_slice(&3u32.to_le_bytes());
        golden.push(TAG_INT);
        golden.extend_from_slice(&7i64.to_le_bytes());
        golden.push(TAG_STR);
        golden.extend_from_slice(&2u32.to_le_bytes());
        golden.extend_from_slice(b"hi");
        golden.push(TAG_BYTES);
        golden.extend_from_slice(&2u32.to_le_bytes());
        golden.extend_from_slice(&[1, 2]);

        let args = vec![Value::Int(7), Value::Str("hi".into()), Value::Bytes(vec![1, 2])];
        let src = heap();
        let mut bytes = Vec::new();
        encode_values_v2(&src, &args, &mut inline_all, &mut bytes).unwrap();
        assert_eq!(bytes, golden, "argument-slice encoding");
        let list = Value::List(args);
        assert_eq!(encode(&src, &list, &mut inline_all).unwrap(), golden, "list encoding");

        let mut dst = heap();
        let decoded = decode_value(&mut dst, &golden, &mut resolve_none).unwrap();
        assert_eq!(decoded.bulk_bytes, 2);
        assert_eq!(decoded.unpin(&mut dst), list);
    }

    /// Encodes `args` after a byte already in the buffer (as in a reused
    /// pooled buffer) and checks that only `golden` was appended, with
    /// `bulk_bytes` of it through a bulk tag.
    fn assert_args_encode(args: &[Value], golden: &[u8], bulk_bytes: u64) {
        let mut bytes = vec![0xAA];
        let stats = encode_values_v2(&heap(), args, &mut inline_all, &mut bytes).unwrap();
        assert_eq!(bytes[0], 0xAA, "bytes before the encode are kept");
        assert_eq!(&bytes[1..], golden);
        assert_eq!(stats, EncodeStats { total_bytes: golden.len() as u64, bulk_bytes });
    }

    #[test]
    fn pinned_bulk_run_bytes() {
        // An all-Int argument slice is one top-level bulk run.
        let mut golden = vec![WIRE_V2_MARKER, TAG_INTS];
        golden.extend_from_slice(&4u32.to_le_bytes());
        for i in [65_536i64, 1 << 20, 16, 4242] {
            golden.extend_from_slice(&i.to_le_bytes());
        }
        let args = [Value::Int(65_536), Value::Int(1 << 20), Value::Int(16), Value::Int(4242)];
        assert_args_encode(&args, &golden, 32);

        // An Int run broken at its last element: per-element, and no
        // byte of the abandoned run remains.
        let mut golden = vec![WIRE_V2_MARKER, TAG_LIST];
        golden.extend_from_slice(&4u32.to_le_bytes());
        for i in [1i64, 2, 3] {
            golden.push(TAG_INT);
            golden.extend_from_slice(&i.to_le_bytes());
        }
        golden.push(TAG_STR);
        golden.extend_from_slice(&1u32.to_le_bytes());
        golden.push(b'x');
        let args = [Value::Int(1), Value::Int(2), Value::Int(3), Value::from("x")];
        assert_args_encode(&args, &golden, 0);

        // A Float run broken by an Int.
        let mut golden = vec![WIRE_V2_MARKER, TAG_LIST];
        golden.extend_from_slice(&3u32.to_le_bytes());
        golden.push(TAG_FLOAT);
        golden.extend_from_slice(&0.5f64.to_le_bytes());
        golden.push(TAG_INT);
        golden.extend_from_slice(&7i64.to_le_bytes());
        golden.push(TAG_FLOAT);
        golden.extend_from_slice(&1.5f64.to_le_bytes());
        let args = [Value::Float(0.5), Value::Int(7), Value::Float(1.5)];
        assert_args_encode(&args, &golden, 0);
    }

    fn nested_list_bytes(depth: usize) -> Vec<u8> {
        let mut bytes = vec![WIRE_V2_MARKER];
        for _ in 0..depth {
            bytes.push(TAG_LIST);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_UNIT);
        bytes
    }

    #[test]
    fn decode_depth_is_bounded() {
        let mut dst = heap();
        let deep = nested_list_bytes(MAX_DECODE_DEPTH + 1);
        assert_eq!(
            decode_value(&mut dst, &deep, &mut resolve_none).unwrap_err(),
            CodecError::TooDeep
        );
        let ok = nested_list_bytes(MAX_DECODE_DEPTH);
        assert!(decode_value(&mut dst, &ok, &mut resolve_none).is_ok());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = vec![WIRE_V2_MARKER, TAG_INT];
        bytes.extend_from_slice(&7i64.to_le_bytes());
        bytes.extend_from_slice(&[0xAA, 0xBB]);
        let mut dst = heap();
        assert_eq!(
            decode_value(&mut dst, &bytes, &mut resolve_none).unwrap_err(),
            CodecError::TrailingBytes(2)
        );
    }

    #[test]
    fn invalid_utf8_strings_are_rejected() {
        let mut bytes = vec![WIRE_V2_MARKER, TAG_STR];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0xFF);
        let mut dst = heap();
        assert_eq!(
            decode_value(&mut dst, &bytes, &mut resolve_none).unwrap_err(),
            CodecError::BadUtf8
        );
    }

    #[test]
    fn rejected_streams_leave_nothing_rooted() {
        // A valid object followed by garbage: the placeholder the
        // decode allocated must not stay pinned in the receiver.
        let mut src = heap();
        let obj = src.alloc(ClassId(1), vec![Value::Int(5)]).unwrap();
        src.add_root(obj);
        let mut bytes = encode(&src, &Value::Ref(obj), &mut inline_all).unwrap();
        bytes.push(0);

        let mut dst = heap();
        assert_eq!(
            decode_value(&mut dst, &bytes, &mut resolve_none).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
        dst.collect();
        assert_eq!(dst.live_objects(), 0, "decode allocations released on error");
    }

    #[test]
    fn encode_into_a_reused_buffer_appends_cleanly() {
        let src = heap();
        let mut dst = heap();
        let mut buf = crate::pool::acquire();
        for round in 0..3 {
            buf.clear();
            let v = Value::Bytes(vec![round as u8; 32]);
            encode_value_v2(&src, &v, &mut inline_all, &mut buf).unwrap();
            let decoded = decode_value(&mut dst, &buf, &mut resolve_none).unwrap();
            assert_eq!(decoded.unpin(&mut dst), v);
        }
    }

    /// Encodes `args` as a crossing's argument list.
    fn args_wire(args: &[Value]) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_values_v2(&heap(), args, &mut inline_all, &mut bytes).unwrap();
        bytes
    }

    /// Decodes a one-argument list whose argument is a run and returns
    /// that list.
    fn decode_run_arg(dst: &mut Heap, run: &Value) -> Vec<Value> {
        let decoded = decode_value(dst, &args_wire(std::slice::from_ref(run)), &mut resolve_none);
        let decoded = decoded.unwrap();
        assert_eq!(decoded.runs, 1, "the argument is marked as a run");
        match decoded.value {
            Value::List(mut args) => match args.pop() {
                Some(Value::List(list)) => list,
                other => panic!("expected a list argument, got {other:?}"),
            },
            other => panic!("expected an argument list, got {other:?}"),
        }
    }

    // The run-pool tests each run on a thread of their own, so the
    // thread's pool holds only the lists the test puts there.

    #[test]
    fn a_run_refills_a_recycled_list_to_exactly_the_run() {
        std::thread::spawn(|| {
            let mut dst = heap();
            // Every run's values differ from every other's, so a slot
            // the refill skipped would show.
            let ints =
                |n: i64, k: i64| Value::List((0..n).map(|i| Value::Int(k * 100 + i)).collect());
            let floats = |n: u32, k: u32| {
                Value::List((0..n).map(|i| Value::Float(f64::from(k * 100 + i) / 4.0)).collect())
            };
            let mut first = None;
            // Each run takes the list the previous one gave back, which
            // is longer, shorter, or holds the other variant.
            let runs = [ints(8, 1), ints(6, 2), ints(8, 3), floats(5, 4), ints(5, 5), floats(8, 6)];
            for run in runs.into_iter().chain([ints(4, 7)]) {
                let list = decode_run_arg(&mut dst, &run);
                assert_eq!(Value::List(list.clone()), run);
                let at = *first.get_or_insert(list.as_ptr());
                assert_eq!(list.as_ptr(), at, "the run refilled the recycled list");
                crate::pool::recycle_run(list);
                assert_eq!(crate::pool::pooled_runs(), 1);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_one_element_run_leaves_a_long_pooled_list_alone() {
        std::thread::spawn(|| {
            crate::pool::recycle_run(vec![Value::Int(0); 8192]);
            let mut dst = heap();
            let one = Value::List(vec![Value::Int(5)]);
            let list = decode_run_arg(&mut dst, &one);
            assert_eq!(Value::List(list.clone()), one);
            assert_eq!(list.capacity(), 1, "a fresh one-element list");
            // A one-int reply is a top-level run of one.
            let reply = decode_value(&mut dst, &args_wire(&[Value::Int(5)]), &mut resolve_none);
            assert_eq!(reply.unwrap().value, one);
            assert_eq!(crate::pool::pooled_runs(), 1, "the long list is still pooled");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn only_top_level_run_arguments_are_marked() {
        let mut dst = heap();
        let ints = Value::List((0..4).map(Value::Int).collect());
        let mixed = Value::List(vec![Value::Int(1), Value::Bytes(vec![2]), Value::from("x")]);
        let nested = Value::List(vec![ints.clone()]);
        let floats = Value::List(vec![Value::Float(0.5)]);
        let args = [mixed, ints.clone(), Value::List(vec![]), nested, Value::Int(9), floats];
        let decoded = decode_value(&mut dst, &args_wire(&args), &mut resolve_none).unwrap();
        assert_eq!(decoded.runs, 0b10_0010, "arguments 1 and 5 are runs; TAG_LIST lists are not");
        assert_eq!(decoded.value, Value::List(args.to_vec()));

        // A top-level run is the argument list itself, which is not
        // marked.
        let decoded = decode_value(&mut dst, &args_wire(&[Value::Int(1)]), &mut resolve_none);
        assert_eq!(decoded.unwrap().runs, 0);
        let decoded = decode_value(&mut dst, &args_wire(&[ints]), &mut resolve_none).unwrap();
        assert_eq!(decoded.runs, 1);
    }

    #[test]
    fn a_rejected_stream_roots_nothing_and_puts_no_list_back() {
        std::thread::spawn(|| {
            crate::pool::recycle_run(vec![Value::Int(0); 16]);
            let mut src = heap();
            let obj = src.alloc(ClassId(1), vec![Value::Int(5)]).unwrap();
            src.add_root(obj);
            let args = [Value::Ref(obj), Value::List((0..16).map(Value::Int).collect())];
            let mut bytes = Vec::new();
            encode_values_v2(&src, &args, &mut inline_all, &mut bytes).unwrap();
            bytes.push(0);

            let mut dst = heap();
            assert_eq!(
                decode_value(&mut dst, &bytes, &mut resolve_none).unwrap_err(),
                CodecError::TrailingBytes(1)
            );
            dst.collect();
            assert_eq!(dst.live_objects(), 0, "decode allocations released on error");
            assert_eq!(crate::pool::pooled_runs(), 0, "the run's list was taken and dropped");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn decoded_objects_survive_gc_until_unpinned() {
        let mut src = heap();
        let obj = src.alloc(ClassId(1), vec![Value::Int(5)]).unwrap();
        src.add_root(obj);
        let bytes = encode(&src, &Value::Ref(obj), &mut inline_all).unwrap();

        let mut dst = heap();
        let decoded = decode_value(&mut dst, &bytes, &mut resolve_none).unwrap();
        let new_id = decoded.value.as_ref_id().unwrap();
        dst.collect();
        assert!(dst.is_live(new_id), "pinned through GC");
        decoded.unpin(&mut dst);
        dst.collect();
        assert!(!dst.is_live(new_id), "reclaimed after unpin");
    }
}
