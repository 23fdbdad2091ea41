//! # montsalvat-core — annotation-based partitioning for enclaves
//!
//! A Rust reproduction of **Montsalvat** (Yuhala et al., Middleware '21):
//! a tool that partitions managed applications into trusted and untrusted
//! halves for Intel SGX enclaves using class-level annotations, an
//! RMI-like proxy/mirror mechanism for cross-enclave object
//! communication, and a GC extension that keeps object destruction
//! consistent across the two heaps.
//!
//! The pipeline mirrors the paper's four phases:
//!
//! 1. **Annotation** ([`annotation`]) — classes are `@Trusted`,
//!    `@Untrusted` or neutral.
//! 2. **Bytecode transformation** ([`mod@transform`]) — proxies and relay
//!    methods are generated; the EDL interface is emitted ([`codegen`]).
//! 3. **Native-image partitioning** ([`analysis`], [`image_builder`]) —
//!    reachability analysis from each image's entry points prunes
//!    unreachable methods and proxies; build-time initialisation is
//!    snapshotted into the image heap.
//! 4. **SGX application** ([`exec`]) — the images run as two isolates
//!    bridged by simulated ecalls/ocalls, with GC helper threads
//!    synchronising proxy/mirror lifetimes.
//!
//! # Examples
//!
//! Partition and run the paper's bank example (Listing 1):
//!
//! ```
//! use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
//! use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
//! use montsalvat_core::samples::bank_program;
//! use montsalvat_core::transform::transform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let transformed = transform(&bank_program());
//! let (trusted, untrusted) = build_partitioned_images(
//!     &transformed,
//!     &ImageOptions::default(),
//!     &ImageOptions::default(),
//! )?;
//! let app = PartitionedApp::launch(&trusted, &untrusted, AppConfig::default())?;
//! app.run_main()?;
//! // Accounts were created in the enclave via ecalls:
//! assert!(app.telemetry().counter(telemetry::Counter::Ecalls) >= 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod annotation;
pub mod class;
pub mod codegen;
pub mod error;
pub mod exec;
pub mod image_builder;
pub mod provider;
pub mod samples;
pub mod transform;

pub use annotation::{Side, Trust};
pub use class::{ClassDef, Instr, MethodDef, MethodKind, MethodRef, Operand, Program};
pub use error::{BuildError, VmError};
pub use exec::app::{AppConfig, PartitionedApp, Placement, SingleWorldApp};
pub use exec::ctx::Ctx;
pub use image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions, NativeImage,
};
pub use provider::{CrossingDir, ProviderKind};
pub use transform::{transform, TransformedProgram};
