//! # sgx-sim — a software model of Intel SGX for systems experiments
//!
//! This crate is the hardware substrate of the
//! [Montsalvat](https://doi.org/10.1145/3464298.3493406) reproduction.
//! Real SGX could not be assumed (the reproduction runs on commodity
//! hardware), so the enclave is simulated: trusted code runs as ordinary
//! closures, but **every architectural cost the paper measures is
//! modelled and charged** against a shared clock:
//!
//! - ecall/ocall transitions (~13,100 cycles each, §2.1) plus
//!   per-byte marshalling — [`enclave::Enclave::ecall`] /
//!   [`enclave::Enclave::ocall`];
//! - memory-encryption-engine (MEE) work on in-enclave heap traffic and
//!   cache-spilling compute — [`enclave::Enclave::charge_heap_traffic`] /
//!   [`enclave::Enclave::charge_compute`];
//! - EPC paging once the resident set exceeds the usable EPC
//!   (93.5 MB on the paper's platform) — [`epc::EpcState`];
//! - the in-enclave libc **shim** that relays unsupported calls to an
//!   untrusted helper (§5.4) — [`shim`];
//! - the EDL interface description consumed by Edger8r (§2.1) —
//!   [`edl`].
//!
//! Every event is counted once, into the cost model's telemetry
//! recorder ([`enclave::Enclave::recorder`]), so experiments report
//! *measured* crossings/bytes/faults, with only the unit costs taken
//! from the paper and its citations.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use sgx_sim::cost::{ClockMode, CostModel, CostParams};
//! use sgx_sim::enclave::{Enclave, EnclaveConfig};
//! use telemetry::Counter;
//!
//! # fn main() -> Result<(), sgx_sim::SgxError> {
//! let cost = Arc::new(CostModel::new(CostParams::paper_defaults(), ClockMode::Virtual));
//! let enclave = Enclave::create(&EnclaveConfig::default(), b"trusted.so", cost)?;
//!
//! // Trusted work happens under an ecall and is counted + charged.
//! let secret_len = enclave.ecall("ecall_process", 32, || "hunter2".len())?;
//! assert_eq!(secret_len, 7);
//! assert_eq!(enclave.recorder().counter(Counter::Ecalls), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod edl;
pub mod enclave;
pub mod epc;
pub mod error;
pub mod shim;

pub use cost::{ClockMode, CostModel, CostParams};
pub use enclave::{Enclave, EnclaveConfig, Measurement, Quote};
pub use error::SgxError;
/// The metrics crate behind [`Enclave::recorder`], so a user of this
/// crate can read the enclave's counts without depending on it.
pub use telemetry;
