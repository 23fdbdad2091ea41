//! Property-based tests for the cross-boundary value codec.

use proptest::prelude::*;
use rmi::codec::{decode_value, encode_value_v2, inline_all, resolve_none};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
