//! The Montsalvat reproduction's benchmark: seeded workloads driven
//! through the program's public entry points, measured on both clocks —
//! model time (the charged nanoseconds the modelled SGX platform would
//! take) and host time (what the simulator itself costs) — end to end and
//! layer by layer. The `montsalvat-bench` binary is the command;
//! `README.md` documents the workloads, metrics and bounds.

mod bulk;
mod churn;
pub mod compare;
pub mod json;
mod kv;
pub mod metrics;
mod probe;
pub mod run;
mod spans;
mod stats;
pub mod sys;
mod workload;
