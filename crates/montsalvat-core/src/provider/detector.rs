//! Provider detection: explicit config, then environment, then default.
//!
//! Mirrors the shape of nvrc's `platform/detector.rs`: a pure decision
//! function (`detect_from`, unit-testable) wrapped by an environment
//! probe (`detect`). There is no hardware to sniff in the simulation,
//! so the "platform probe" is the `MONTSALVAT_PROVIDER` variable.

use super::ProviderKind;
use crate::error::VmError;

/// Environment variable consulted when the application config does not
/// pin a provider. Accepted values are listed at [`parse_provider`].
pub const PROVIDER_ENV: &str = "MONTSALVAT_PROVIDER";

/// Parses a provider name. Accepts the canonical names
/// (`sim-sgx`, `passthrough`) plus common spellings:
/// `sim_sgx`/`simsgx`/`sim`/`sgx` and
/// `pass-through`/`pass_through`/`none`. Case-insensitive.
/// Returns `None` for anything else.
pub fn parse_provider(raw: &str) -> Option<ProviderKind> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "sim-sgx" | "sim_sgx" | "simsgx" | "sim" | "sgx" => Some(ProviderKind::SimSgx),
        "passthrough" | "pass-through" | "pass_through" | "none" => Some(ProviderKind::PassThrough),
        _ => None,
    }
}

/// Resolves the provider for a launch: an explicit config override
/// wins without reading the environment, then [`PROVIDER_ENV`], then
/// the [`ProviderKind::SimSgx`] default.
///
/// # Errors
///
/// See [`detect_from`].
pub fn detect(config_override: Option<ProviderKind>) -> Result<ProviderKind, VmError> {
    match config_override {
        Some(kind) => Ok(kind),
        None => detect_from(None, std::env::var(PROVIDER_ENV).ok().as_deref()),
    }
}

/// Pure core of [`detect`]: same precedence, environment value passed
/// in. An unset or blank value selects the default.
///
/// # Errors
///
/// Any other value that [`parse_provider`] rejects is a
/// [`VmError::UnknownProvider`]: a misspelled variable must not
/// silently change what an experiment measures.
pub fn detect_from(
    config_override: Option<ProviderKind>,
    env: Option<&str>,
) -> Result<ProviderKind, VmError> {
    if let Some(kind) = config_override {
        return Ok(kind);
    }
    match env.map(str::trim).filter(|raw| !raw.is_empty()) {
        None => Ok(ProviderKind::SimSgx),
        Some(raw) => parse_provider(raw).ok_or_else(|| VmError::UnknownProvider {
            variable: PROVIDER_ENV,
            value: raw.to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_override_beats_environment() {
        for env in [Some("sim-sgx"), Some("tdx")] {
            assert_eq!(
                detect_from(Some(ProviderKind::PassThrough), env).unwrap(),
                ProviderKind::PassThrough
            );
        }
        assert_eq!(
            detect_from(Some(ProviderKind::SimSgx), Some("passthrough")).unwrap(),
            ProviderKind::SimSgx
        );
    }

    #[test]
    fn environment_spellings_parse() {
        for raw in ["passthrough", "PASS-THROUGH", "pass_through", " none "] {
            assert_eq!(detect_from(None, Some(raw)).unwrap(), ProviderKind::PassThrough, "{raw:?}");
        }
        for raw in ["sim-sgx", "SIM_SGX", "simsgx", "sim", "sgx"] {
            assert_eq!(detect_from(None, Some(raw)).unwrap(), ProviderKind::SimSgx, "{raw:?}");
        }
    }

    #[test]
    fn missing_environment_defaults_to_sim_sgx_and_unknown_fails() {
        assert_eq!(detect_from(None, None).unwrap(), ProviderKind::SimSgx);
        assert_eq!(detect_from(None, Some("")).unwrap(), ProviderKind::SimSgx);
        assert_eq!(detect_from(None, Some("  ")).unwrap(), ProviderKind::SimSgx);
        let err = detect_from(None, Some("tdx")).unwrap_err();
        assert!(
            matches!(&err, VmError::UnknownProvider { variable, value }
                if *variable == PROVIDER_ENV && value == "tdx"),
            "{err:?}"
        );
        let message = err.to_string();
        assert!(message.contains(PROVIDER_ENV) && message.contains("`tdx`"), "{message}");
    }

    #[test]
    fn canonical_names_round_trip() {
        for kind in [ProviderKind::SimSgx, ProviderKind::PassThrough] {
            assert_eq!(parse_provider(kind.name()), Some(kind));
            assert_eq!(kind.kind(), kind);
        }
    }
}
