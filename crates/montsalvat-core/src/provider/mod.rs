//! Deployment modes: *how the trusted world is realized*.
//!
//! An application resolves its [`ProviderKind`] once, at launch, and
//! keeps it in [`AppShared`](crate::exec::app::AppShared). Every
//! boundary crossing then goes through
//! [`AppShared::cross`](crate::exec::app::AppShared), which matches on
//! it:
//!
//! - [`ProviderKind::SimSgx`] (the default) realizes the trusted world
//!   inside the simulated enclave: every crossing is an ecall/ocall
//!   charged at the paper's transition + per-byte rates, a classic RMI
//!   crossing also pays the relay overhead, trusted memory pays EPC/MEE
//!   costs, and trusted I/O relays through the libc shim.
//! - [`ProviderKind::PassThrough`] runs the trusted world as plain host
//!   code: crossings run the body inline at zero model cost and count
//!   zero transitions, and no world is placed in the enclave. It is
//!   the control arm for measuring pure app/serde/scheduler overhead —
//!   everything Montsalvat adds that is *not* SGX.
//!
//! Selection goes through [`detector::detect`]: an explicit
//! [`crate::exec::app::AppConfig::provider`] wins, then the
//! `MONTSALVAT_PROVIDER` environment variable, then the
//! [`ProviderKind::SimSgx`] default. See `docs/DEPLOYMENT.md` for the
//! contract.

pub mod detector;

pub use detector::{detect, detect_from, parse_provider, PROVIDER_ENV};

/// The deployment modes an application can run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProviderKind {
    /// Simulated SGX: crossings are charged transitions, trusted memory
    /// is EPC/MEE-priced (the default, and the paper's configuration).
    SimSgx,
    /// No enclave: crossings run the body directly at zero cost.
    PassThrough,
}

impl ProviderKind {
    /// The canonical name, accepted back by [`parse_provider`].
    pub const fn name(self) -> &'static str {
        match self {
            ProviderKind::SimSgx => "sim-sgx",
            ProviderKind::PassThrough => "passthrough",
        }
    }

    /// Returns `self`: the benchmark harness reads an app's mode as
    /// `app.shared.provider.kind()`.
    pub const fn kind(self) -> ProviderKind {
        self
    }
}

impl std::fmt::Display for ProviderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Direction of a boundary crossing, in enclave terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingDir {
    /// Into the trusted world (an ecall under [`ProviderKind::SimSgx`]).
    Enter,
    /// Out of the trusted world (an ocall under
    /// [`ProviderKind::SimSgx`]).
    Exit,
}
