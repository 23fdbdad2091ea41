//! The in-enclave libc shim and its untrusted helper (§5.4).
//!
//! Enclaves run in user mode and cannot issue system calls. Rather than
//! embedding a library OS, Montsalvat redefines unsupported libc routines
//! inside the enclave as thin wrappers that relay the call to an
//! untrusted *shim helper* via ocalls. This module reproduces that
//! design: a [`BackendFile`] opened through [`IoBackend::Enclave`] is
//! the enclave-side wrapper; every operation crosses the boundary
//! (counted and charged by the [`Enclave`]) and is served by the host
//! OS outside.
//!
//! A [`BackendFile`] opened through [`IoBackend::Host`] calls the host
//! OS directly and pays nothing — the asymmetry the partitioning
//! experiments exploit.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::enclave::Enclave;
use crate::error::SgxError;

/// Runs the host operation `op`: as the ocall `routine` carrying `bytes`
/// out when `enclave` is `Some`, directly otherwise. Host I/O failures
/// surface as [`SgxError::HostIo`] either way; a lost enclave surfaces
/// as [`SgxError::EnclaveLost`].
fn host_op<R>(
    enclave: Option<&Enclave>,
    routine: &str,
    bytes: usize,
    op: impl FnOnce() -> std::io::Result<R>,
) -> Result<R, SgxError> {
    Ok(match enclave {
        Some(enclave) => enclave.ocall(routine, bytes, op)??,
        None => op()?,
    })
}

/// Selects where a component's file I/O executes: directly on the host
/// (untrusted placement) or relayed through the enclave shim (trusted
/// placement).
///
/// Components written against this type (the KV store, the graph
/// sharder/engine) can be placed on either side of the boundary without
/// code changes — the essence of what class-level partitioning moves
/// around.
///
/// # Examples
///
/// ```no_run
/// # use std::sync::Arc;
/// # use sgx_sim::cost::{ClockMode, CostModel, CostParams};
/// # use sgx_sim::enclave::{Enclave, EnclaveConfig};
/// # use sgx_sim::shim::IoBackend;
/// # use telemetry::Counter;
/// # fn main() -> Result<(), sgx_sim::SgxError> {
/// # let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
/// # let enclave = Enclave::create(&EnclaveConfig::default(), b"img", cost)?;
/// let mut f = IoBackend::Enclave(Arc::clone(&enclave)).create("/tmp/secret.bin")?;
/// f.write_all(b"sealed data")?; // one ocall
/// assert!(enclave.recorder().counter(Counter::Ocalls) >= 2); // create + write
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum IoBackend {
    /// Direct host I/O.
    Host,
    /// Relayed I/O through the enclave shim (each operation an ocall).
    Enclave(Arc<Enclave>),
}

impl IoBackend {
    /// Creates (truncating) a file on this backend: one `shim_open`
    /// ocall carrying the path bytes in the enclave.
    ///
    /// # Errors
    ///
    /// See [`BackendFile::write_all`].
    pub fn create(&self, path: impl AsRef<Path>) -> Result<BackendFile, SgxError> {
        self.open_with(
            path.as_ref(),
            OpenOptions::new().create(true).write(true).truncate(true).read(true),
        )
    }

    /// Opens an existing file read-only on this backend: one
    /// `shim_open` ocall carrying the path bytes in the enclave.
    ///
    /// # Errors
    ///
    /// See [`BackendFile::write_all`].
    pub fn open(&self, path: impl AsRef<Path>) -> Result<BackendFile, SgxError> {
        self.open_with(path.as_ref(), OpenOptions::new().read(true))
    }

    fn open_with(&self, path: &Path, options: &OpenOptions) -> Result<BackendFile, SgxError> {
        let enclave = match self {
            IoBackend::Host => None,
            IoBackend::Enclave(enclave) => Some(Arc::clone(enclave)),
        };
        let file = host_op(enclave.as_deref(), "shim_open", path.as_os_str().len(), || {
            options.open(path)
        })?;
        Ok(BackendFile { enclave, file })
    }
}

/// A file handle on either side of the enclave boundary. Held inside the
/// enclave, every operation is an ocall; held outside, it is a direct
/// host call.
#[derive(Debug)]
pub struct BackendFile {
    enclave: Option<Arc<Enclave>>,
    file: File,
}

impl BackendFile {
    /// Writes the whole buffer; in the enclave, one ocall carrying
    /// `buf.len()` bytes out.
    ///
    /// # Errors
    ///
    /// Host I/O failures surface as [`SgxError::HostIo`]; a lost enclave
    /// surfaces as [`SgxError::EnclaveLost`].
    pub fn write_all(&mut self, buf: &[u8]) -> Result<(), SgxError> {
        let file = &mut self.file;
        host_op(self.enclave.as_deref(), "shim_write", buf.len(), || file.write_all(buf))
    }

    /// Reads exactly `buf.len()` bytes; in the enclave, one ocall
    /// charged for them.
    ///
    /// # Errors
    ///
    /// See [`BackendFile::write_all`].
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), SgxError> {
        let file = &mut self.file;
        host_op(self.enclave.as_deref(), "shim_read", buf.len(), || file.read_exact(buf))
    }

    /// Seeks; in the enclave, one ocall.
    ///
    /// # Errors
    ///
    /// See [`BackendFile::write_all`].
    pub fn seek(&mut self, pos: SeekFrom) -> Result<u64, SgxError> {
        let file = &mut self.file;
        host_op(self.enclave.as_deref(), "shim_lseek", 8, || file.seek(pos))
    }

    /// Flushes and syncs to stable storage; in the enclave, one ocall.
    ///
    /// # Errors
    ///
    /// See [`BackendFile::write_all`].
    pub fn sync_all(&mut self) -> Result<(), SgxError> {
        let file = &mut self.file;
        host_op(self.enclave.as_deref(), "shim_fsync", 0, || file.sync_all())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ClockMode, CostModel, CostParams};
    use crate::enclave::EnclaveConfig;
    use std::path::PathBuf;

    fn enclave() -> Arc<Enclave> {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        Enclave::create(&EnclaveConfig::default(), b"shim test", cost).unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sgx_sim_shim_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn shim_roundtrip_counts_ocalls() {
        let e = enclave();
        let path = temp_path("roundtrip");
        let mut f = IoBackend::Enclave(Arc::clone(&e)).create(&path).unwrap();
        f.write_all(b"hello enclave").unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        let mut buf = [0u8; 13];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello enclave");
        let r = e.recorder();
        // create + write + seek + read = 4 ocalls
        assert_eq!(r.counter(telemetry::Counter::Ocalls), 4);
        assert!(r.counter(telemetry::Counter::BytesOut) >= 13);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn host_file_costs_nothing() {
        let e = enclave();
        let path = temp_path("host");
        let mut f = IoBackend::Host.create(&path).unwrap();
        f.write_all(b"plain").unwrap();
        assert_eq!(e.recorder().counter(telemetry::Counter::Ocalls), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shim_open_missing_file_is_host_io_error() {
        let err =
            IoBackend::Enclave(enclave()).open("/nonexistent/definitely/missing").unwrap_err();
        assert!(matches!(err, SgxError::HostIo { .. }));
        let err = IoBackend::Host.open("/nonexistent/definitely/missing").unwrap_err();
        assert!(matches!(err, SgxError::HostIo { .. }));
    }

    #[test]
    fn lost_enclave_fails_shim_ops() {
        let e = enclave();
        let path = temp_path("lost");
        let mut f = IoBackend::Enclave(Arc::clone(&e)).create(&path).unwrap();
        e.destroy();
        assert_eq!(f.write_all(b"x").unwrap_err(), SgxError::EnclaveLost);
        std::fs::remove_file(&path).unwrap();
    }
}
