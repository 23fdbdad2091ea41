//! # rmi — the RMI-like cross-enclave object layer of the Montsalvat reproduction
//!
//! Montsalvat lets objects in the trusted and untrusted runtimes call
//! each other through an RMI-like mechanism (§5.2, §5.5 of the paper).
//! This crate provides the mechanism's building blocks, independent of
//! class metadata:
//!
//! - [`hash`] — proxy identity hashes ([`ProxyHash`]),
//!   with both the prototype's Java-identity scheme and the recommended
//!   wide scheme;
//! - [`codec`] — the wire format that deep-copies neutral objects,
//!   preserves shared substructure/cycles, hash-references annotated
//!   objects and moves primitive runs as bulk copies;
//! - [`batch`] — batched wire frames: several queued switchless
//!   requests cross the boundary as one length-prefixed frame, so a
//!   worker wakeup that drains a batch pays one frame header;
//! - [`pool`] — thread-local pooled encode/decode buffers with
//!   high-water-mark trimming, so steady-state crossings allocate no
//!   fresh payload memory;
//! - [`shape`] — the per-app shape cache and class-name interner that
//!   keep class names off the wire after their first crossing
//!   (`docs/SERDE.md`);
//! - [`registry`] — the mirror-proxy registry holding strong references
//!   to mirror objects, keyed by proxy hash;
//! - [`weaklist`] — the per-runtime weak-reference list of live proxies;
//! - [`gc_helper`] — the periodic scanner thread that drives
//!   cross-runtime garbage-collection consistency.
//!
//! The partitioned-application runtime in `montsalvat-core` wires these
//! pieces to the enclave simulator (crossings, charges) and the class
//! model (which references are neutral vs. annotated).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod gc_helper;
pub mod hash;
pub mod pool;
pub mod registry;
pub mod shape;
pub mod weaklist;

pub use codec::{
    decode_value, encode_value_v2, encode_values_v2, CodecError, DecodedValue, EncodeStats,
    RefEncoding, TraceContext,
};
pub use gc_helper::GcHelper;
pub use hash::{HashScheme, ProxyHash, ProxyHasher};
pub use pool::PooledBuf;
pub use registry::MirrorProxyRegistry;
pub use shape::{NameInterner, NameRef, ShapeCache};
pub use weaklist::ProxyWeakList;
