//! Adaptive switchless (transition-less) RMI calls — the paper's first
//! future-work item (§7, after Tian et al., SysTEX'18).
//!
//! A classic crossing pays the full EENTER/EEXIT transition plus relay
//! software on *every* call. In the switchless design, each runtime
//! keeps resident serving capacity; a caller posts its request and the
//! opposite side serves it without any hardware transition — the cost
//! drops to a cache-line hand-off plus the marshalling itself.
//!
//! One serving engine implements the mechanism: [`engine`], the
//! adaptive thread-per-worker pool — per-side worker pools with bounded mailboxes, classic fallback on overflow,
//! miss-driven scaling, small-batch draining and the optional
//! trace-driven [`tuner`]. Each posted crossing occupies one OS worker
//! thread until its reply is sent, including any time that worker
//! spends blocked on a *nested* crossing.
//!
//! The engine preserves the accounting invariant the CI bench gates
//! check: every posted call resolves as exactly one switchless hit
//! (`rmi.switchless_calls`) or one classic fallback
//! (`rmi.switchless_fallbacks`), so `rmi.calls == hits + fallbacks`.
//! The ablation binary `switchless_ablation` compares it with classic
//! crossings; `docs/SWITCHLESS.md` documents the design and why it is
//! the only engine.

pub(crate) mod engine;
pub mod tuner;

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use rmi::hash::ProxyHash;
use sgx_sim::cost::CostModel;
use telemetry::HistogramSnapshot;

use crate::annotation::Side;
use crate::error::VmError;
use crate::exec::ctx::WireMsg;
use tuner::{Tuner, TunerConfig};

pub(crate) use engine::SwitchlessPool;

/// Configuration of the switchless call machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchlessConfig {
    /// Resident workers each side keeps even when idle (≥ 1).
    pub min_workers: usize,
    /// Upper bound miss-driven scaling may grow a side's pool to
    /// (raised to `min_workers` if set lower).
    pub max_workers: usize,
    /// Mailbox slots per side; a caller finding all slots taken falls
    /// back to a classic crossing (≥ 1).
    pub mailbox_capacity: usize,
    /// Most queued requests one worker wakeup drains as a single
    /// batch frame (1 disables batching).
    pub max_batch: usize,
    /// Misses (posts that found no idle worker or a full mailbox)
    /// accumulated before the engine spawns another worker.
    pub scale_up_misses: u64,
    /// How long an idle worker parks between mailbox polls; a worker
    /// idle past this retires if the pool is above `min_workers`.
    pub idle_park: Duration,
    /// Trace-driven feedback controller; `None` (the default) keeps
    /// PR 2's miss-counter engine as the only scaling mechanism.
    pub autotune: Option<TunerConfig>,
    /// Always `None`: `Infallible` has no values, so nothing but the
    /// pool can be selected. The field outlived the work-stealing
    /// engine it used to select only because the benchmark harness
    /// (`perfbench/`) reads it to label the engine it ran; it goes
    /// once the harness stops reading it.
    pub scheduler: Option<std::convert::Infallible>,
}

impl Default for SwitchlessConfig {
    /// The adaptive defaults: scale between 1 and 4 workers per side,
    /// a 16-slot mailbox, 4-deep batch drain.
    fn default() -> Self {
        SwitchlessConfig {
            min_workers: 1,
            max_workers: 4,
            mailbox_capacity: 16,
            max_batch: 4,
            scale_up_misses: 4,
            idle_park: Duration::from_millis(20),
            autotune: None,
            scheduler: None,
        }
    }
}

impl SwitchlessConfig {
    /// A fixed pool of `workers` per side: no adaptive scaling, the
    /// pre-adaptive engine's shape (used as the ablation baseline).
    pub fn fixed(workers: usize) -> Self {
        let workers = workers.max(1);
        SwitchlessConfig { min_workers: workers, max_workers: workers, ..Self::default() }
    }

    /// The adaptive defaults with the trace-driven tuner attached
    /// (default [`TunerConfig`]).
    pub fn autotuned() -> Self {
        SwitchlessConfig { autotune: Some(TunerConfig::default()), ..Self::default() }
    }

    /// Applies the `MONTSALVAT_AUTOTUNE` environment override: `1`
    /// (or `true`/`on`) attaches the default tuner if none is
    /// configured, `0` (or `false`/`off`) detaches any configured
    /// tuner; other values leave the config alone.
    pub fn with_env_autotune(mut self) -> Self {
        match std::env::var("MONTSALVAT_AUTOTUNE").ok().as_deref() {
            Some("1") | Some("true") | Some("on") if self.autotune.is_none() => {
                self.autotune = Some(TunerConfig::default());
            }
            Some("0") | Some("false") | Some("off") => self.autotune = None,
            _ => {}
        }
        self
    }

    /// Clamps the invariants the pool relies on: at least one
    /// worker, `max_workers ≥ min_workers`, a real mailbox slot and a
    /// positive batch depth.
    pub(crate) fn normalized(&self) -> Self {
        let min_workers = self.min_workers.max(1);
        SwitchlessConfig {
            min_workers,
            max_workers: self.max_workers.max(min_workers),
            mailbox_capacity: self.mailbox_capacity.max(1),
            max_batch: self.max_batch.max(1),
            scale_up_misses: self.scale_up_misses.max(1),
            idle_park: self.idle_park.max(Duration::from_millis(1)),
            autotune: self.autotune.as_ref().map(TunerConfig::normalized),
            scheduler: None,
        }
    }
}

/// The relay dispatcher the pool serves posts with: bound to the
/// application, it executes `class.relay` on the given side.
pub(crate) type ServeFn = Arc<
    dyn Fn(Side, &str, &str, Option<ProxyHash>, &WireMsg) -> Result<WireMsg, VmError> + Send + Sync,
>;

/// One posted request: serve `class.relay` with `msg` in the worker's
/// world, reply on `reply`.
pub(crate) struct SwitchlessJob {
    pub class_name: String,
    pub relay: String,
    pub recv_hash: Option<ProxyHash>,
    pub msg: WireMsg,
    pub reply: Sender<Result<WireMsg, VmError>>,
    /// `(model_ns, wall_ns)` at post time when tracing was on, so the
    /// serving worker can attribute queue wait separately from
    /// execution; `None` when the post was untraced.
    pub posted: Option<(u64, u64)>,
}

/// Outcome of posting a call to the pool.
pub(crate) enum PostOutcome {
    /// A worker served the call; this is the relay's reply.
    Served(Result<WireMsg, VmError>),
    /// The pool could not serve the call (full mailbox) — the caller
    /// must perform a classic crossing (the probe charge has already
    /// been paid).
    Fallback,
}

/// Live worker/queue readings for one side of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SideStats {
    /// Resident workers (parked + serving).
    pub workers: usize,
    /// Workers currently parked on the mailbox.
    pub idle: usize,
    /// Posted jobs not yet picked up by a worker.
    pub queued: usize,
}

/// Live readings of both sides of the pool (see
/// [`PartitionedApp::switchless_stats`](crate::exec::app::PartitionedApp::switchless_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchlessStats {
    /// The enclave-side pool.
    pub trusted: SideStats,
    /// The host-side pool.
    pub untrusted: SideStats,
}

/// Previous-snapshot cursors one tuner tick diffs against.
#[derive(Default)]
pub(crate) struct TunerWindow {
    pub(crate) wait_prev: HistogramSnapshot,
    pub(crate) batch_prev: HistogramSnapshot,
    pub(crate) fallbacks_prev: u64,
}

/// The live tuner: the pure controller plus per-side window cursors.
pub(crate) struct TunerRuntime {
    pub(crate) tuner: Tuner,
    pub(crate) trusted_window: Mutex<TunerWindow>,
    pub(crate) untrusted_window: Mutex<TunerWindow>,
}

impl TunerRuntime {
    /// Builds the runtime when `config.autotune` is set, judging
    /// queue waits against one classic crossing of `cost`'s params.
    pub(crate) fn from_config(config: &SwitchlessConfig, cost: &CostModel) -> Option<TunerRuntime> {
        config.autotune.as_ref().map(|tc| {
            // The yardstick queue waits are judged against: one classic
            // crossing (hardware transition + relay software).
            let crossing = cost.params().transition_ns() + cost.params().relay_overhead_ns;
            TunerRuntime {
                tuner: Tuner::new(tc.clone(), crossing),
                trusted_window: Mutex::new(TunerWindow::default()),
                untrusted_window: Mutex::new(TunerWindow::default()),
            }
        })
    }

    pub(crate) fn window(&self, side: Side) -> &Mutex<TunerWindow> {
        match side {
            Side::Trusted => &self.trusted_window,
            Side::Untrusted => &self.untrusted_window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_enforces_invariants() {
        let cfg = SwitchlessConfig {
            min_workers: 0,
            max_workers: 0,
            mailbox_capacity: 0,
            max_batch: 0,
            scale_up_misses: 0,
            idle_park: Duration::ZERO,
            autotune: Some(TunerConfig {
                interval_calls: 0,
                up_wait_pct: 0,
                down_wait_pct: 99,
                batch_limit: 0,
                min_samples: 0,
            }),
            scheduler: None,
        }
        .normalized();
        assert_eq!(cfg.min_workers, 1);
        assert_eq!(cfg.max_workers, 1);
        assert_eq!(cfg.mailbox_capacity, 1);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.scale_up_misses, 1);
        assert!(cfg.idle_park > Duration::ZERO);
        let tc = cfg.autotune.expect("autotune survives normalization");
        assert_eq!(tc.interval_calls, 1);
        assert_eq!(tc.batch_limit, 1);
        assert_eq!(tc.min_samples, 1);
        assert!(tc.down_wait_pct < tc.up_wait_pct, "shrink threshold below grow threshold");
    }

    #[test]
    fn autotuned_config_attaches_the_default_tuner() {
        let cfg = SwitchlessConfig::autotuned();
        assert_eq!(cfg.autotune, Some(TunerConfig::default()));
        assert_eq!(SwitchlessConfig::default().autotune, None);
        assert_eq!(SwitchlessConfig::fixed(2).autotune, None);
    }

    #[test]
    fn fixed_config_pins_both_bounds() {
        let cfg = SwitchlessConfig::fixed(3);
        assert_eq!((cfg.min_workers, cfg.max_workers), (3, 3));
    }
}
