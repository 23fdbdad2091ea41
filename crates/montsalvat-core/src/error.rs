//! Errors of the partitioning pipeline and the partitioned runtime.

use std::error::Error;
use std::fmt;

use rmi::codec::CodecError;
use sgx_sim::SgxError;

/// Errors raised while validating, transforming or building a program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// Two classes share a name.
    DuplicateClass(String),
    /// A method was defined twice in one class.
    DuplicateMethod {
        /// Owning class.
        class: String,
        /// Repeated method name.
        method: String,
    },
    /// A declared call edge references a class that does not exist.
    UnknownClass(String),
    /// A declared call edge references a method that does not exist.
    UnknownMethod {
        /// Receiver class.
        class: String,
        /// Missing method.
        method: String,
    },
    /// The program has no `main` entry point.
    MissingMain,
    /// Build-time initialisation failed.
    InitFailed(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateClass(c) => write!(f, "duplicate class `{c}`"),
            BuildError::DuplicateMethod { class, method } => {
                write!(f, "duplicate method `{class}.{method}`")
            }
            BuildError::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            BuildError::UnknownMethod { class, method } => {
                write!(f, "unknown method `{class}.{method}`")
            }
            BuildError::MissingMain => write!(f, "program has no main entry point"),
            BuildError::InitFailed(m) => write!(f, "build-time initialisation failed: {m}"),
        }
    }
}

impl Error for BuildError {}

/// Errors raised while executing a partitioned application.
#[derive(Debug)]
#[non_exhaustive]
pub enum VmError {
    /// A class name did not resolve in the executing image.
    UnknownClass(String),
    /// A method did not resolve on its receiver class.
    UnknownMethod {
        /// Receiver class.
        class: String,
        /// Missing method.
        method: String,
    },
    /// A field name did not resolve on its class.
    UnknownField {
        /// Owning class.
        class: String,
        /// Missing field.
        field: String,
    },
    /// A value had the wrong kind for an operation.
    Type(String),
    /// Wrong number of arguments for a method.
    Arity {
        /// Receiver class.
        class: String,
        /// Invoked method.
        method: String,
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        got: usize,
    },
    /// A reference was dead or pointed into the wrong isolate.
    BadRef(String),
    /// Serialization failed at the boundary.
    Codec(CodecError),
    /// The enclave substrate failed.
    Sgx(SgxError),
    /// The managed heap was exhausted.
    OutOfMemory(runtime_sim::heap::OutOfMemory),
    /// Relayed host I/O failed.
    Io(String),
    /// The application body returned an application-level error.
    App(String),
    /// An environment variable named a deployment provider that does
    /// not exist.
    UnknownProvider {
        /// The variable that was read.
        variable: &'static str,
        /// Its value.
        value: String,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            VmError::UnknownMethod { class, method } => {
                write!(f, "unknown method `{class}.{method}`")
            }
            VmError::UnknownField { class, field } => {
                write!(f, "unknown field `{class}.{field}`")
            }
            VmError::Type(m) => write!(f, "type error: {m}"),
            VmError::Arity { class, method, expected, got } => write!(
                f,
                "arity mismatch calling `{class}.{method}`: expected {expected}, got {got}"
            ),
            VmError::BadRef(m) => write!(f, "bad reference: {m}"),
            VmError::Codec(e) => write!(f, "serialization error: {e}"),
            VmError::Sgx(e) => write!(f, "sgx error: {e}"),
            VmError::OutOfMemory(e) => write!(f, "{e}"),
            VmError::Io(m) => write!(f, "i/o error: {m}"),
            VmError::App(m) => write!(f, "application error: {m}"),
            VmError::UnknownProvider { variable, value } => write!(
                f,
                "unknown provider `{value}` in {variable} (expected `sim-sgx` or `passthrough`)"
            ),
        }
    }
}

impl Error for VmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VmError::Codec(e) => Some(e),
            VmError::Sgx(e) => Some(e),
            VmError::OutOfMemory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for VmError {
    fn from(e: CodecError) -> Self {
        VmError::Codec(e)
    }
}

impl From<SgxError> for VmError {
    fn from(e: SgxError) -> Self {
        VmError::Sgx(e)
    }
}

impl From<runtime_sim::heap::OutOfMemory> for VmError {
    fn from(e: runtime_sim::heap::OutOfMemory) -> Self {
        VmError::OutOfMemory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BuildError>();
        assert_send_sync::<VmError>();
    }

    #[test]
    fn displays_are_lowercase() {
        assert!(BuildError::MissingMain.to_string().starts_with("program"));
        assert!(VmError::UnknownClass("X".into()).to_string().contains("`X`"));
    }

    #[test]
    fn sources_chain() {
        let e = VmError::Sgx(SgxError::EnclaveLost);
        assert!(e.source().is_some());
    }
}
