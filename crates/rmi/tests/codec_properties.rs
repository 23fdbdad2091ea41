//! Property-based tests for the cross-boundary value codec.

use proptest::prelude::*;
use rmi::codec::{
    decode_value, encode_value_v2, encode_values_v2, inline_all, resolve_none, EncodeStats,
};
use runtime_sim::heap::{Heap, HeapConfig};
use runtime_sim::value::{ClassId, Value};

fn fresh_heap() -> Heap {
    Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() })
}

/// Strategy for reference-free values of bounded depth.
fn flat_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Use finite floats so equality comparison is meaningful.
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        proptest::collection::vec(inner, 0..8).prop_map(Value::List)
    })
}

/// Lists of `Int`, `Float` and `Str` of length 0..64. Most keep one
/// kind (`kind` 0–2) with about one element in sixteen switched to the
/// next kind, so whole bulk runs and runs broken anywhere are both
/// common; `kind` 3 mixes freely.
fn primitive_list() -> impl Strategy<Value = Vec<Value>> {
    let element = (0u8..16, 0u8..3, any::<i64>(), any::<f64>(), "[a-z]{0,8}");
    (0u8..4, proptest::collection::vec(element, 0..64)).prop_map(|(kind, elements)| {
        elements
            .into_iter()
            .map(|(roll, pick, i, x, s)| {
                let k = match kind {
                    3 => pick,
                    _ if roll == 0 => (kind + 1) % 3,
                    _ => kind,
                };
                match k {
                    0 => Value::Int(i),
                    1 => Value::Float(x),
                    _ => Value::Str(s),
                }
            })
            .collect()
    })
}

/// The bulk rule as the encoder first applied it: check every element,
/// then write. Tags and layout are those of `docs/SERDE.md`.
fn reference_encode(vs: &[Value]) -> (Vec<u8>, EncodeStats) {
    const MARKER: u8 = 0xF2;
    const TAG_INT: u8 = 2;
    const TAG_FLOAT: u8 = 3;
    const TAG_STR: u8 = 4;
    const TAG_LIST: u8 = 6;
    const TAG_INTS: u8 = 10;
    const TAG_FLOATS: u8 = 11;
    let mut out = vec![MARKER];
    let mut bulk_bytes = 0;
    let all = |f: fn(&Value) -> bool| !vs.is_empty() && vs.iter().all(f);
    let tag = if all(|v| matches!(v, Value::Int(_))) {
        TAG_INTS
    } else if all(|v| matches!(v, Value::Float(_))) {
        TAG_FLOATS
    } else {
        TAG_LIST
    };
    out.push(tag);
    out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
    for v in vs {
        if tag == TAG_LIST {
            out.push(match v {
                Value::Int(_) => TAG_INT,
                Value::Float(_) => TAG_FLOAT,
                _ => TAG_STR,
            });
        }
        match v {
            Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
            Value::Float(x) => out.extend_from_slice(&x.to_le_bytes()),
            Value::Str(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            other => panic!("not a primitive list element: {other:?}"),
        }
    }
    if tag != TAG_LIST {
        bulk_bytes = 8 * vs.len() as u64;
    }
    let stats = EncodeStats { total_bytes: out.len() as u64, bulk_bytes };
    (out, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one-pass bulk encoder writes the same bytes and byte split
    /// as the check-then-write rule, as an argument slice and as a
    /// list value, whether a run holds to the end or breaks.
    #[test]
    fn one_pass_bulk_runs_match_the_check_then_write_rule(vs in primitive_list()) {
        let (want, want_stats) = reference_encode(&vs);
        let src = fresh_heap();
        let mut bytes = Vec::new();
        let stats = encode_values_v2(&src, &vs, &mut inline_all, &mut bytes).unwrap();
        prop_assert_eq!(&bytes, &want);
        prop_assert_eq!(stats, want_stats);
        let mut bytes = Vec::new();
        let stats = encode_value_v2(&src, &Value::List(vs), &mut inline_all, &mut bytes).unwrap();
        prop_assert_eq!(&bytes, &want);
        prop_assert_eq!(stats, want_stats);
    }

    /// Argument lists whose run arguments are given back to the run
    /// pool after each decode, as a relay gives them back, decode to
    /// exactly what was sent (compared as re-encoded bytes, so NaN
    /// payloads count too), whatever length and variant the refilled
    /// list held before. Only a run argument is marked.
    #[test]
    fn recycled_runs_decode_exactly(lists in proptest::collection::vec(primitive_list(), 1..12)) {
        let src = fresh_heap();
        let mut dst = fresh_heap();
        for vs in lists {
            let homogeneous = |f: fn(&Value) -> bool| !vs.is_empty() && vs.iter().all(f);
            let is_run = homogeneous(|v| matches!(v, Value::Int(_)))
                || homogeneous(|v| matches!(v, Value::Float(_)));
            let args = [Value::List(vs), Value::Int(1)];
            let mut bytes = Vec::new();
            encode_values_v2(&src, &args, &mut inline_all, &mut bytes).unwrap();
            let decoded = decode_value(&mut dst, &bytes, &mut resolve_none).unwrap();
            prop_assert_eq!(decoded.runs, u64::from(is_run));
            let runs = decoded.runs;
            let Value::List(mut got) = decoded.value else { panic!("an argument list") };
            let mut again = Vec::new();
            encode_values_v2(&src, &got, &mut inline_all, &mut again).unwrap();
            prop_assert_eq!(&again, &bytes);
            if runs & 1 == 1 {
                if let Value::List(list) = std::mem::take(&mut got[0]) {
                    rmi::pool::recycle_run(list);
                }
            }
        }
    }

    /// Reference-free values roundtrip bit-exactly (bulk paths
    /// included via `Bytes` and the primitive-homogeneous lists
    /// `flat_value` generates), and decode re-derives the encoder's
    /// bulk-byte split.
    #[test]
    fn flat_values_roundtrip(v in flat_value()) {
        let src = fresh_heap();
        let mut dst = fresh_heap();
        let mut bytes = Vec::new();
        let stats = encode_value_v2(&src, &v, &mut inline_all, &mut bytes).unwrap();
        prop_assert_eq!(stats.total_bytes as usize, bytes.len());
        prop_assert!(stats.bulk_bytes <= stats.total_bytes);
        let decoded = decode_value(&mut dst, &bytes, &mut resolve_none).unwrap();
        prop_assert_eq!(decoded.bulk_bytes, stats.bulk_bytes, "decode re-derives bulk bytes");
        prop_assert_eq!(decoded.unpin(&mut dst), v);
    }

    /// Random object DAGs (allocation order forbids forward refs, so
    /// these are acyclic but share freely) decode to isomorphic graphs.
    #[test]
    fn object_graphs_roundtrip_isomorphically(
        specs in proptest::collection::vec(
            (0u32..8, proptest::collection::vec(any::<u16>(), 0..4), flat_value()),
            1..16,
        )
    ) {
        let mut src = fresh_heap();
        let mut ids = Vec::new();
        for (class, links, payload) in &specs {
            let mut fields = vec![payload.clone()];
            for l in links {
                if !ids.is_empty() {
                    fields.push(Value::Ref(ids[*l as usize % ids.len()]));
                }
            }
            let id = src.alloc(ClassId(*class), fields).unwrap();
            src.add_root(id);
            ids.push(id);
        }
        let top = *ids.last().unwrap();

        let mut bytes = Vec::new();
        encode_value_v2(&src, &Value::Ref(top), &mut inline_all, &mut bytes).unwrap();
        let mut dst = fresh_heap();
        let decoded = decode_value(&mut dst, &bytes, &mut resolve_none).unwrap();
        let new_top = decoded.value.as_ref_id().unwrap();

        // Structural isomorphism check by parallel traversal.
        let mut stack = vec![(top, new_top)];
        let mut seen = std::collections::HashMap::new();
        while let Some((old, new)) = stack.pop() {
            if let Some(prev) = seen.insert(old, new) {
                prop_assert_eq!(prev, new, "sharing must map consistently");
                continue;
            }
            prop_assert_eq!(src.class_of(old), dst.class_of(new));
            let old_fields = src.fields(old).unwrap().to_vec();
            let new_fields = dst.fields(new).unwrap().to_vec();
            prop_assert_eq!(old_fields.len(), new_fields.len());
            for (of, nf) in old_fields.iter().zip(new_fields.iter()) {
                match (of, nf) {
                    (Value::Ref(o), Value::Ref(n)) => stack.push((*o, *n)),
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }
    }

    /// Decoding arbitrary bytes never panics (it may error). The
    /// marker prefix takes the same garbage past the marker check.
    #[test]
    fn decode_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut dst = fresh_heap();
        let _ = decode_value(&mut dst, &bytes, &mut resolve_none);
        let mut prefixed = vec![0xF2];
        prefixed.extend_from_slice(&bytes);
        let _ = decode_value(&mut dst, &prefixed, &mut resolve_none);
    }

    /// Encoded size is monotone in payload size for byte arrays.
    #[test]
    fn encoding_overhead_is_bounded(payload in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let src = fresh_heap();
        let v = Value::Bytes(payload.clone());
        let mut bytes = Vec::new();
        encode_value_v2(&src, &v, &mut inline_all, &mut bytes).unwrap();
        prop_assert_eq!(bytes.len(), payload.len() + 6, "marker + tag + u32 length + payload");
    }
}
