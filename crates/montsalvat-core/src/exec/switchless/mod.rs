//! Adaptive switchless (transition-less) RMI calls — the paper's first
//! future-work item (§7, after Tian et al., SysTEX'18).
//!
//! A classic crossing pays the full EENTER/EEXIT transition plus relay
//! software on *every* call. In the switchless design, each runtime
//! keeps resident serving capacity; a caller posts its request and the
//! opposite side serves it without any hardware transition — the cost
//! drops to a cache-line hand-off plus the marshalling itself.
//!
//! One serving engine implements the mechanism: `engine`, the
//! adaptive thread-per-worker pool — per-side worker pools with
//! bounded mailboxes, classic fallback on overflow, miss-driven scaling
//! and small-batch draining. Each posted crossing occupies one OS
//! worker thread until its reply is sent, including any time that worker
//! spends blocked on a *nested* crossing.
//!
//! The engine preserves the accounting invariant the CI bench gates
//! check: every posted call resolves as exactly one switchless hit
//! (`rmi.switchless_calls`) or one classic fallback
//! (`rmi.switchless_fallbacks`), so `rmi.calls == hits + fallbacks`.
//! The ablation binary `switchless_ablation` compares it with classic
//! crossings; `docs/SWITCHLESS.md` documents the design, why it is
//! the only engine and why miss-driven scaling is its only sizing law.

pub(crate) mod engine;

use std::sync::Arc;
use std::time::Duration;

use telemetry::trace::Stamp;

use crate::annotation::Side;
use crate::error::VmError;
use crate::exec::ctx::{Crossing, WireMsg};

use engine::Reply;
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
            scheduler: None,
        }
    }
}

/// The relay dispatcher the pool serves posts with: bound to the
/// application, it serves the crossing's relay on the given side.
pub(crate) type ServeFn =
    Arc<dyn Fn(Side, &Crossing, &WireMsg) -> Result<WireMsg, VmError> + Send + Sync>;

/// One posted request: serve `crossing` with `msg` in the worker's
/// world, reply into the poster's slot through `reply`.
pub(crate) struct SwitchlessJob {
    pub crossing: Arc<Crossing>,
    pub msg: WireMsg,
    pub reply: Reply,
    /// The post time when tracing was on, so the serving worker can
    /// attribute queue wait separately from execution; `None` when the
    /// post was untraced.
    pub posted: Option<Stamp>,
}

/// Outcome of posting a call to the pool.
pub(crate) enum PostOutcome {
    /// A worker served the call; this is the relay's reply.
    Served(Result<WireMsg, VmError>),
    /// The pool could not serve the call (full mailbox) — the caller
    /// must perform a classic crossing with the returned, unsent
    /// message (the probe charge has already been paid).
    Fallback(WireMsg),
}

/// Live worker/queue readings for one side of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SideStats {
    /// Resident workers (parked + serving).
    pub workers: usize,
    /// Workers polling or parked on the mailbox.
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
            scheduler: None,
        }
        .normalized();
        assert_eq!(cfg.min_workers, 1);
        assert_eq!(cfg.max_workers, 1);
        assert_eq!(cfg.mailbox_capacity, 1);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.scale_up_misses, 1);
        assert!(cfg.idle_park > Duration::ZERO);
    }

    #[test]
    fn fixed_config_pins_both_bounds() {
        let cfg = SwitchlessConfig::fixed(3);
        assert_eq!((cfg.min_workers, cfg.max_workers), (3, 3));
    }
}
