//! # kvstore — a PalDB-style embeddable write-once key-value store
//!
//! LinkedIn's PalDB is the first macro-benchmark of the paper (§6.5):
//! an embeddable, write-once KV store that does *regular I/O for
//! writes* but *memory-maps the store file for reads*. That asymmetry
//! is exactly what Montsalvat's partitioning exploits — placing the
//! writer outside the enclave (`RTWU`) removes the write-induced
//! ocalls, while reads stay cheap in either placement.
//!
//! This crate reproduces the store with the same profile over the
//! enclave simulator's two I/O paths:
//!
//! - [`StoreWriter`] appends one record per `put` (one ocall each when
//!   in-enclave) and finalizes with an open-addressed hash index;
//! - [`StoreReader`] "maps" the file with a single bulk read and serves
//!   `get`s from memory with zero crossings.
//!
//! # Examples
//!
//! ```
//! use kvstore::{Backend, StoreReader, StoreWriter};
//!
//! # fn main() -> Result<(), kvstore::StoreError> {
//! let path = std::env::temp_dir().join(format!("kv_doc_{}.paldb", std::process::id()));
//! let mut writer = StoreWriter::create(&Backend::Host, &path)?;
//! writer.put(b"k1", b"v1")?;
//! writer.put(b"k2", b"v2")?;
//! writer.finalize()?;
//!
//! let reader = StoreReader::open(&Backend::Host, &path)?;
//! assert_eq!(reader.get(b"k1")?, Some(b"v1".to_vec()));
//! assert_eq!(reader.get(b"missing")?, None);
//! # std::fs::remove_file(&path).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod format;
pub mod reader;
pub mod writer;

pub use backend::{Backend, KvFile};
pub use format::StoreError;
pub use reader::{StoreIter, StoreReader};
pub use writer::{StoreWriter, WriteStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kvstore_lib_{}_{name}.paldb", std::process::id()))
    }

    fn build(path: &PathBuf, pairs: &[(&[u8], &[u8])]) -> WriteStats {
        let mut w = StoreWriter::create(&Backend::Host, path).unwrap();
        for (k, v) in pairs {
            w.put(k, v).unwrap();
        }
        w.finalize().unwrap()
    }

    #[test]
    fn write_then_read_all_keys() {
        let path = temp("rw");
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..500)
            .map(|i| (format!("key-{i}").into_bytes(), format!("value-{i:04}").into_bytes()))
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        let stats = build(&path, &refs);
        assert_eq!(stats.records, 500);
        assert_eq!(stats.write_calls, 502, "one write per record + index + footer");

        let r = StoreReader::open(&Backend::Host, &path).unwrap();
        for (k, v) in &pairs {
            assert_eq!(r.get(k).unwrap().as_deref(), Some(v.as_slice()), "key {k:?}");
        }
        assert_eq!(r.get(b"not-present").unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_key_latest_value_wins() {
        let path = temp("dup");
        build(&path, &[(b"k", b"old"), (b"x", b"other"), (b"k", b"new")]);
        let r = StoreReader::open(&Backend::Host, &path).unwrap();
        assert_eq!(r.get(b"k").unwrap(), Some(b"new".to_vec()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn iter_returns_live_pairs() {
        let path = temp("iter");
        build(&path, &[(b"a", b"1"), (b"b", b"2"), (b"a", b"3")]);
        let r = StoreReader::open(&Backend::Host, &path).unwrap();
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = r.iter().collect();
        pairs.sort();
        assert_eq!(pairs, vec![(b"a".to_vec(), b"3".to_vec()), (b"b".to_vec(), b"2".to_vec())]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_store_reads_cleanly() {
        let path = temp("empty");
        build(&path, &[]);
        let r = StoreReader::open(&Backend::Host, &path).unwrap();
        assert_eq!(r.get(b"anything").unwrap(), None);
        assert_eq!(r.iter().count(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinalized_store_is_rejected() {
        let path = temp("unfinal");
        let mut w = StoreWriter::create(&Backend::Host, &path).unwrap();
        w.put(b"k", b"v").unwrap();
        drop(w); // never finalized
        let err = StoreReader::open(&Backend::Host, &path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = temp("trunc");
        build(&path, &[(b"k", b"v")]);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..10]).unwrap();
        assert!(StoreReader::open(&Backend::Host, &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reads_cost_no_crossings_in_enclave() {
        use sgx_sim::cost::{ClockMode, CostModel, CostParams};
        use sgx_sim::enclave::{Enclave, EnclaveConfig};
        use std::sync::Arc;

        let path = temp("enclave_reads");
        build(&path, &[(b"alpha", b"1"), (b"beta", b"2")]);

        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        let enclave = Enclave::create(&EnclaveConfig::default(), b"kv", cost).unwrap();
        let backend = Backend::Enclave(Arc::clone(&enclave));
        let r = StoreReader::open(&backend, &path).unwrap();
        let ocalls = || enclave.recorder().counter(sgx_sim::telemetry::Counter::Ocalls);
        let ocalls_after_open = ocalls();
        for _ in 0..100 {
            assert_eq!(r.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        }
        assert_eq!(ocalls(), ocalls_after_open, "gets are pure memory probes");
        std::fs::remove_file(&path).unwrap();
    }
}
