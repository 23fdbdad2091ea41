//! # runtime-sim — the managed-runtime substrate of the Montsalvat reproduction
//!
//! GraalVM native images embed their own runtime components — a serial
//! stop-and-copy garbage collector, isolates with independent heaps, and
//! a build-time-initialised *image heap* (§2.2 of the paper). This crate
//! implements those components for the simulation:
//!
//! - [`value`] — managed [`Value`]s and generational
//!   object handles ([`ObjId`]);
//! - [`heap`] — pluggable collectors (the paper's stop-and-copy
//!   semispace plus a segmented generational block heap) behind
//!   generational handles, which double as weak references. A heap
//!   reports each allocation and each collection as one event to one
//!   [`HeapObserver`], through which the application charges the
//!   enclave and counts and traces heap activity; the heap keeps no
//!   counts of its own;
//! - [`isolate`] — independently collected heaps, one per runtime;
//! - [`image`] — heap snapshots carried from build time to run time.
//!
//! # Examples
//!
//! ```
//! use runtime_sim::heap::HeapConfig;
//! use runtime_sim::isolate::Isolate;
//! use runtime_sim::value::{ClassId, Value};
//!
//! let isolate = Isolate::new(HeapConfig::default());
//! let person = isolate
//!     .with_heap(|h| h.alloc(ClassId(1), vec![Value::from("Alice"), Value::Int(100)]))
//!     .expect("allocation fits a fresh heap");
//! isolate.with_heap(|h| h.add_root(person));
//! isolate.with_heap(|h| h.collect());
//! assert!(isolate.with_heap(|h| h.is_live(person)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod heap;
pub mod image;
pub mod isolate;
pub mod value;

pub use heap::{
    AllocEvent, BlockStats, CollectEvent, CollectorKind, GcOutcome, Heap, HeapConfig, HeapObserver,
    OutOfMemory,
};
pub use image::ImageHeap;
pub use isolate::Isolate;
pub use value::{ClassId, ObjId, Value};
