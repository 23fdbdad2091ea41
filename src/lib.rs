//! # Montsalvat (reproduction) — SGX shielding for native images
//!
//! A Rust reproduction of *Montsalvat: Intel SGX Shielding for GraalVM
//! Native Images* (Yuhala et al., Middleware '21): annotation-based
//! partitioning of managed applications into trusted (in-enclave) and
//! untrusted halves, with an RMI-like proxy/mirror mechanism for
//! cross-enclave object communication and a GC extension that keeps
//! object destruction consistent across the two heaps.
//!
//! Real SGX hardware is replaced by a calibrated software model (the
//! [`sgx`] crate) — see `DESIGN.md` for the substitution map and
//! `EXPERIMENTS.md` for reproduced-vs-paper results.
//!
//! This crate is a facade re-exporting the workspace's components:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `montsalvat-core` | annotations, transformer, analysis, image builder, partitioned runtime |
//! | [`sgx`] | `sgx-sim` | enclave simulation: transitions, MEE, EPC, shim, EDL |
//! | [`runtime`] | `runtime-sim` | isolates, stop-and-copy GC, weak refs, image heap |
//! | [`rmi`] | `rmi` | proxy hashes, codec, mirror registry, GC helper |
//! | [`kvstore`] | `kvstore` | PalDB-style write-once KV store |
//! | [`graphchi`] | `graphchi` | GraphChi-style graph engine + PageRank |
//! | [`specjvm`] | `specjvm` | SPECjvm2008-style kernels |
//! | [`baselines`] | `baselines` | deployment configurations incl. the SCONE+JVM model |
//! | [`telemetry`] | `telemetry` | lock-cheap metrics layer: counters, histograms, JSON export |
//!
//! # Quickstart
//!
//! ```
//! use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
//! use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
//! use montsalvat::core::samples::bank_program;
//! use montsalvat::core::transform::transform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Annotate (the sample is Listing 1 of the paper) + transform.
//! let transformed = transform(&bank_program());
//! // 2. Build the two native images (reachability analysis + pruning).
//! let (trusted, untrusted) = build_partitioned_images(
//!     &transformed,
//!     &ImageOptions::default(),
//!     &ImageOptions::default(),
//! )?;
//! // 3. Launch: enclave + two isolates + GC helpers.
//! let app = PartitionedApp::launch(&trusted, &untrusted, AppConfig::default())?;
//! // 4. Run: accounts live in the enclave, people outside.
//! app.run_main()?;
//! assert!(app.telemetry().counter(montsalvat::telemetry::Counter::Ecalls) >= 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use graphchi;
pub use kvstore;
pub use montsalvat_core as core;
pub use rmi;
pub use runtime_sim as runtime;
pub use sgx_sim as sgx;
pub use specjvm;
pub use telemetry;
