//! # experiments — the figure/table harness of the Montsalvat reproduction
//!
//! One module per evaluation artefact of the paper; each exposes a
//! `figN(scale)`-style function returning plain data, consumed by
//!
//! - the `figN` binaries (`cargo run --release -p experiments --bin
//!   fig7`), which print paper-style tables,
//! - the Criterion benches in `crates/bench`, and
//! - the shape-assertion integration tests in `tests/`.
//!
//! | Module | Artefact |
//! |---|---|
//! | [`micro`] | Fig. 3 (proxy creation), Fig. 4 (RMI + serialization) |
//! | [`gc`] | Fig. 5 (GC performance and consistency) |
//! | [`synthetic`] | Fig. 6 (partition sweep) |
//! | [`paldb`] | Fig. 7, Fig. 10 (PalDB) |
//! | [`graph`] | Fig. 9, Fig. 11 (GraphChi PageRank) |
//! | [`spec`] | Fig. 12, Table 1 (SPECjvm2008) |
//! | [`traffic`] | Open-loop sustained-traffic harness (`traffic_service`) |
//!
//! Pass `--quick` to any binary for a shrunk run.

pub mod gc;
pub mod graph;
pub mod micro;
pub mod paldb;
pub mod progs;
pub mod report;
pub mod spec;
pub mod synthetic;
pub mod traffic;

pub use report::Scale;
