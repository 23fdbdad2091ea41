//! # rmi — the RMI-like cross-enclave object layer of the Montsalvat reproduction
//!
//! Montsalvat lets objects in the trusted and untrusted runtimes call
//! each other through an RMI-like mechanism (§5.2, §5.5 of the paper).
//! This crate provides the mechanism's building blocks, independent of
//! class metadata:
//!
//! - [`hash`] — 128-bit proxy identity hashes ([`ProxyHash`]), the
//!   wide scheme the paper recommends over Java identity hashes;
//! - [`codec`] — the wire format that deep-copies neutral objects,
//!   preserves shared substructure/cycles, hash-references annotated
//!   objects and moves primitive runs as bulk copies;
//! - [`batch`] — the batched wire-frame length: several queued
//!   switchless requests cross the boundary as one length-prefixed
//!   frame, so a worker wakeup that drains a batch pays one header;
//! - [`pool`] — thread-local pools of encode buffers and of lists
//!   decoded from primitive runs, with high-water-mark trimming, so
//!   steady-state crossings allocate no fresh payload memory and
//!   refill a bulk argument's list in place;
//! - [`shape`] — the per-app class-name interner that keeps class
//!   names off the wire after their first crossing (`docs/SERDE.md`);
//! - [`registry`] — the mirror-proxy registry holding strong references
//!   to mirror objects, keyed by proxy hash, and each mirror's hash;
//! - [`weaklist`] — the per-runtime weak-reference list of live proxies,
//!   which is also the runtime's one proxy table;
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
    RefEncoding,
};
pub use gc_helper::GcHelper;
pub use hash::{ProxyHash, ProxyHasher};
pub use pool::PooledBuf;
pub use registry::MirrorProxyRegistry;
pub use shape::{NameInterner, NameRef};
pub use weaklist::ProxyWeakList;
