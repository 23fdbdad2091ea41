//! Static and dynamic partition analyses.
//!
//! Two complementary analyses decide *what goes where*:
//!
//! - [`reachability`] — the build-time points-to analysis (§5.3 of the
//!   paper): starting from each image's entry points it computes the
//!   transitively reachable methods and classes, which drives pruning
//!   of unreachable methods and generated proxies.
//! - [`advisor`] — the run-time partition advisor: it reads a causal
//!   trace captured from a partitioned run (`--trace-out`, schema
//!   `montsalvat.trace/v2`), prices every proxied class's boundary
//!   crossings against the cost model
//!   ([`CostParams`](sgx_sim::cost::CostParams)), and emits a ranked
//!   re-annotation plan — the repo's answer to the paper leaving the
//!   choice of `@Trusted`/`@Untrusted` annotations to the developer.
//!
//! The historical `analysis::{Reachability, analyze, prune}` paths are
//! preserved as re-exports; the advisor API is additionally re-exported
//! here for symmetry. The advisor's cost equations are documented
//! term-by-term in `docs/PARTITIONING.md`.

pub mod advisor;
pub mod reachability;

pub use advisor::{
    advise, advise_with_classes, class_meta, decide, decide_raw, extract_class_costs, AdvicePlan,
    AdvisorConfig, ClassCosts, ClassMeta, Decision, Recommendation, Verdict, ADVICE_SCHEMA,
};
pub use reachability::{analyze, prune, Reachability};
