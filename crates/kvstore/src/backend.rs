//! Storage backends: direct host I/O or enclave-shim I/O.
//!
//! The store is written once and read many times. Where the code runs
//! decides what I/O costs: an in-enclave writer pays one ocall per write
//! (the effect the paper's `RUWT` scheme suffers from, §6.5), while an
//! in-enclave reader pays a single bulk ocall to map the store (PalDB
//! memory-maps the store file, making reads cheap).
//!
//! The mechanism is the shared [`sgx_sim::shim::IoBackend`]; this module
//! re-exports it under the store's vocabulary.

/// Where the store's I/O executes.
pub use sgx_sim::shim::IoBackend as Backend;

/// A file handle on either backend.
pub use sgx_sim::shim::BackendFile as KvFile;

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::cost::{ClockMode, CostModel, CostParams};
    use sgx_sim::enclave::{Enclave, EnclaveConfig};
    use std::io::SeekFrom;
    use std::sync::Arc;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kv_backend_{}_{name}", std::process::id()))
    }

    #[test]
    fn host_backend_roundtrips() {
        let path = temp("host");
        let backend = Backend::Host;
        let mut f = backend.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        let mut buf = [0u8; 5];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enclave_backend_counts_ocalls() {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        let enclave = Enclave::create(&EnclaveConfig::default(), b"kv", cost).unwrap();
        let path = temp("enclave");
        let backend = Backend::Enclave(Arc::clone(&enclave));
        let mut f = backend.create(&path).unwrap();
        f.write_all(b"data").unwrap();
        let ocalls = enclave.recorder().counter(sgx_sim::telemetry::Counter::Ocalls);
        assert_eq!(ocalls, 2, "create + write");
        std::fs::remove_file(&path).unwrap();
    }
}
