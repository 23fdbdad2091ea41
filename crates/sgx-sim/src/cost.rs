//! The cost model that turns simulated SGX events into time.
//!
//! Real SGX overheads come from three sources the literature quantifies
//! well: enclave transitions (ecalls/ocalls cost ~13,100 cycles
//! [Weichbrodt et al., sgx-perf]), memory-encryption-engine (MEE) work on
//! traffic between the CPU caches and the EPC [Weisse et al., HotCalls],
//! and EPC paging once the resident set exceeds the usable EPC
//! [Brenner et al.; Taassori et al.]. This module keeps every such unit
//! cost in one place ([`CostParams`]) and lets the rest of the simulator
//! *charge* nanoseconds against a clock ([`CostModel`]).
//!
//! Modelled time is the sum of every charge: counted events times their
//! unit costs. [`CostModel::charged`] is the only model clock — every
//! figure, trace timestamp and model-time histogram reads it, so a run
//! reports the same time however loaded the host is.
//!
//! Two clock modes are supported:
//!
//! - [`ClockMode::Virtual`] — charges accumulate in per-thread counters
//!   ([`telemetry::shard`]), each on a cache line of its own and
//!   written by its thread alone; [`CostModel::charged`] sums them. This
//!   is fast and is what the experiment binaries use.
//! - [`ClockMode::Spin`] — charges busy-wait for the charged duration, so
//!   plain wall-clock measurement (e.g. Criterion) observes the model.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::cost::{ClockMode, CostModel, CostParams};
//!
//! let model = CostModel::new(CostParams::default(), ClockMode::Virtual);
//! let before = model.charged();
//! model.charge_ns(1_000_000); // simulate 1 ms of modelled work
//! assert_eq!(model.charged() - before, std::time::Duration::from_millis(1));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use telemetry::shard::PerThread;
use telemetry::trace::Tracer;
use telemetry::Recorder;

/// Unit costs for every modelled SGX effect.
///
/// Defaults reproduce the evaluation platform of the paper (§6.1): a
/// quad-core Xeon E3-1270 at 3.80 GHz with 93.5 MB of usable EPC, SGX SDK
/// v2.11. A run changes them only through the parameter set it is
/// launched with (`AppConfig::cost_params` in `montsalvat-core`); the
/// experiment harness prints the set it ran with.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// CPU clock in GHz, used to convert cycles to nanoseconds.
    pub cpu_ghz: f64,
    /// Cycles for one hardware enclave transition (EENTER/EEXIT pair).
    /// The paper cites up to 13,100 cycles (§2.1).
    pub transition_cycles: u64,
    /// Fixed software overhead per relayed call on top of the hardware
    /// transition: isolate attach, edge-routine marshalling, registry
    /// lookup. Calibrated against Fig. 3/4 of the paper, whose
    /// end-to-end proxy operations cost tens of microseconds while the
    /// hardware transition alone is ~3.4 µs — the difference is the
    /// prototype's relay software, modelled here as one constant.
    pub relay_overhead_ns: u64,
    /// Marshalling cost per byte copied across the enclave boundary
    /// (edge-routine `memcpy` plus MEE work on the copy).
    pub copy_ns_per_byte: f64,
    /// Serialization/deserialization cost per byte for neutral-object
    /// parameters (object-graph walk, not just the copy).
    pub serde_ns_per_byte: f64,
    /// Multiplier on `serde_ns_per_byte` when the (de)serialization
    /// runs inside the enclave: decoded objects are constructed
    /// straight into EPC memory and every buffer access is
    /// bounds-checked by the edge routines.
    pub serde_enclave_factor: f64,
    /// Serialization cost per byte moved by the *bulk* fast path —
    /// `Value::Bytes` and primitive-homogeneous lists encoded as one
    /// length-prefixed `memcpy` (wire format v2, `docs/SERDE.md`).
    /// Bulk bytes skip the per-element object-graph walk, so the rate
    /// is near the raw copy cost rather than `serde_ns_per_byte`.
    pub serde_bulk_ns_per_byte: f64,
    /// MEE charge per byte of ordinary in-enclave heap traffic
    /// (allocation writes, large scans). Cache-resident writes defer
    /// most MEE work, so this rate is modest.
    pub mee_ns_per_byte: f64,
    /// MEE charge per byte *copied by the collector*: a stop-and-copy
    /// phase reads and rewrites the whole live set straight through the
    /// MEE (the paper's explanation for in-enclave GC overhead, §6.4),
    /// so this rate is an order of magnitude above `mee_ns_per_byte`.
    pub mee_gc_ns_per_byte: f64,
    /// Multiplier applied to *compute* time spent inside the enclave on
    /// working sets that spill out of the last-level cache (§6.5: MEE
    /// makes cache-missing CPU work more expensive).
    pub mee_compute_factor: f64,
    /// Last-level-cache size in bytes; working sets below this see no
    /// compute penalty inside the enclave (8 MB L3 on the paper's Xeon).
    pub llc_bytes: u64,
    /// Usable EPC in bytes (93.5 MB on the paper's platform, §6.1).
    pub epc_usable_bytes: u64,
    /// Cost of one EPC page swap (encrypt + evict + load), ~40 µs/page.
    pub epc_fault_ns: u64,
    /// EPC page size in bytes.
    pub epc_page_bytes: u64,
    /// Cost of one *switchless* call hand-off (worker mailbox,
    /// cache-line ping-pong; no hardware transition) — Tian et al.,
    /// SysTEX'18.
    pub switchless_call_ns: u64,
    /// Cost of waking one parked switchless worker (futex/condvar
    /// wake plus the OS scheduler hop before it picks the job up). Paid
    /// once per worker wakeup; the batch drain amortises it across
    /// every job served by that wakeup.
    pub switchless_wake_ns: u64,
    /// Cost of a *failed* switchless probe: testing the mailbox,
    /// finding it full and deciding to fall back. The falling-back
    /// caller then additionally pays the full classic crossing
    /// (transition + relay), so a fallback is always strictly more
    /// expensive than a plain classic call.
    pub switchless_fallback_ns: u64,
    /// Tracing cost per object marked by a collection (header read,
    /// pointer chase, mark-bit write — through the MEE when
    /// in-enclave). Charged by the block collector, whose mark phase
    /// does not copy; the semispace copy already folds tracing into
    /// `mee_gc_ns_per_byte`.
    pub gc_mark_ns_per_obj: f64,
}

impl CostParams {
    /// Parameters matching the paper's evaluation platform (§6.1).
    pub fn paper_defaults() -> Self {
        CostParams {
            cpu_ghz: 3.8,
            transition_cycles: 13_100,
            relay_overhead_ns: 40_000,
            copy_ns_per_byte: 1.5,
            serde_ns_per_byte: 6.0,
            serde_enclave_factor: 8.0,
            serde_bulk_ns_per_byte: 0.75,
            mee_ns_per_byte: 0.25,
            mee_gc_ns_per_byte: 4.0,
            mee_compute_factor: 1.8,
            llc_bytes: 8 * 1024 * 1024,
            epc_usable_bytes: 93 * 1024 * 1024 + 512 * 1024,
            epc_fault_ns: 40_000,
            epc_page_bytes: 4096,
            switchless_call_ns: 800,
            switchless_wake_ns: 1_500,
            switchless_fallback_ns: 200,
            gc_mark_ns_per_obj: 25.0,
        }
    }

    /// Nanoseconds for the hardware part of one enclave transition.
    pub fn transition_ns(&self) -> u64 {
        (self.transition_cycles as f64 / self.cpu_ghz) as u64
    }

    /// Charge for one raw crossing moving `bytes` across the boundary
    /// (hardware transition + boundary copy). RMI crossings additionally
    /// pay `relay_overhead_ns`, charged by the relay layer; plain shim
    /// relays (file I/O) pay only this.
    pub fn crossing_ns(&self, bytes: u64) -> u64 {
        self.transition_ns() + (bytes as f64 * self.copy_ns_per_byte) as u64
    }
}

impl Default for CostParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// How charged nanoseconds are realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClockMode {
    /// Accumulate charges in a virtual counter (fast; default).
    #[default]
    Virtual,
    /// Busy-wait for every charge so wall-clock time observes the model.
    Spin,
}

/// The model clock: the running total of modelled charges.
///
/// Cloneable handles are not provided; share it behind an
/// [`std::sync::Arc`]. All operations are lock-free.
#[derive(Debug)]
pub struct CostModel {
    params: CostParams,
    mode: ClockMode,
    charged_ns: PerThread<Box<Line>>,
    recorder: Arc<Recorder>,
    tracer: Arc<Tracer>,
}

/// One thread's charged nanoseconds, alone on its cache line, so a
/// caller and a switchless worker never write the same line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Line(AtomicU64);

impl CostModel {
    /// Creates a model with the given parameters and clock mode, plus a
    /// fresh [`telemetry::Recorder`] that every layer sharing this model
    /// (enclave, heaps, RMI) reports its boundary events into. Trace
    /// events go to the process-global [`Tracer`] (disabled unless
    /// `--trace-out` / `MONTSALVAT_TRACE=1` turns it on).
    pub fn new(params: CostParams, mode: ClockMode) -> Self {
        Self::with_recorder(params, mode, Recorder::new())
    }

    /// Creates a model reporting into an existing recorder — used when a
    /// caller (a test, an experiment harness) wants to read one app's
    /// telemetry in isolation from every other recorder in the process.
    pub fn with_recorder(params: CostParams, mode: ClockMode, recorder: Arc<Recorder>) -> Self {
        Self::with_recorder_and_tracer(params, mode, recorder, Arc::clone(Tracer::global()))
    }

    /// Fully explicit constructor: recorder *and* tracer supplied, so a
    /// test can capture one app's trace in isolation.
    pub fn with_recorder_and_tracer(
        params: CostParams,
        mode: ClockMode,
        recorder: Arc<Recorder>,
        tracer: Arc<Tracer>,
    ) -> Self {
        tracer.attach_recorder(&recorder);
        CostModel { params, mode, charged_ns: PerThread::new(), recorder, tracer }
    }

    /// The unit-cost table this model charges with.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// The telemetry recorder shared by every layer built on this model.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The trace sink shared by every layer built on this model.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Charges `ns` nanoseconds of modelled time.
    ///
    /// In [`ClockMode::Spin`] this busy-waits; in [`ClockMode::Virtual`]
    /// it only adds to the calling thread's counter.
    #[inline]
    pub fn charge_ns(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        match self.mode {
            ClockMode::Virtual => self.charged_ns.update(|line, add| add.to(&line.0, ns)),
            ClockMode::Spin => spin_for(Duration::from_nanos(ns)),
        }
    }

    /// Total modelled time charged so far (zero in spin mode, where the
    /// charges were realised as real time instead).
    pub fn charged(&self) -> Duration {
        Duration::from_nanos(self.charged_ns())
    }

    /// [`CostModel::charged`] as integer nanoseconds — the model-time
    /// timestamp trace events carry. Sums one counter per thread that
    /// has charged this model.
    pub fn charged_ns(&self) -> u64 {
        self.charged_ns.sum(|line| line.0.load(Ordering::Relaxed))
    }
}

/// Busy-waits for approximately `d`. Used by [`ClockMode::Spin`].
///
/// Short waits spin pure for accuracy; past a couple of microseconds
/// each iteration also yields the core, so on oversubscribed hosts
/// (notably single-core CI runners) a spinning charge cannot starve a
/// thread that was just woken to serve it. Yielding never returns
/// early — the wait still lasts at least `d`.
pub fn spin_for(d: Duration) {
    const PURE_SPIN: Duration = Duration::from_micros(2);
    let start = Instant::now();
    while start.elapsed() < d {
        if start.elapsed() >= PURE_SPIN {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_transition_is_about_3_4_us() {
        let p = CostParams::paper_defaults();
        let ns = p.transition_ns();
        assert!((3_300..3_600).contains(&ns), "transition {ns} ns");
    }

    #[test]
    fn crossing_scales_with_bytes() {
        let p = CostParams::paper_defaults();
        assert!(p.crossing_ns(4096) > p.crossing_ns(0));
        let delta = p.crossing_ns(1000) - p.crossing_ns(0);
        assert_eq!(delta, (1000.0 * p.copy_ns_per_byte) as u64);
    }

    #[test]
    fn virtual_charges_advance_the_clock() {
        let m = CostModel::new(CostParams::default(), ClockMode::Virtual);
        m.charge_ns(5_000_000);
        assert_eq!(m.charged(), Duration::from_millis(5));
        assert_eq!(m.charged_ns(), 5_000_000);
    }

    #[test]
    fn spin_mode_takes_real_time() {
        let m = CostModel::new(CostParams::default(), ClockMode::Spin);
        let wall = Instant::now();
        m.charge_ns(2_000_000);
        assert!(wall.elapsed() >= Duration::from_millis(2));
        assert_eq!(m.charged(), Duration::ZERO);
    }

    #[test]
    fn models_report_into_their_own_recorder() {
        let m = CostModel::new(CostParams::default(), ClockMode::Virtual);
        m.recorder().incr(telemetry::Counter::Ecalls);
        assert_eq!(m.recorder().counter(telemetry::Counter::Ecalls), 1);
        let fresh = CostModel::new(CostParams::default(), ClockMode::Virtual);
        assert_eq!(fresh.recorder().counter(telemetry::Counter::Ecalls), 0);
    }

    #[test]
    fn switchless_charges_stay_below_the_transition() {
        let p = CostParams::paper_defaults();
        // A switchless hit must be far cheaper than the hardware
        // transition it replaces; even the worst case — a hit that
        // also pays a whole worker wake, nothing amortised — stays
        // below one transition. The fallback probe must be a small
        // surcharge on the classic path, not a second transition.
        assert!(p.switchless_call_ns < p.transition_ns() / 2);
        assert!(p.switchless_call_ns + p.switchless_wake_ns < p.transition_ns());
        assert!(p.switchless_fallback_ns < p.transition_ns() / 10);
    }

    #[test]
    fn bulk_serde_is_cheaper_than_the_graph_walk() {
        let p = CostParams::paper_defaults();
        // The bulk fast path skips the per-element walk, so it must be
        // well under the graph-walk rate, but it still performs a real
        // boundary copy, so it cannot undercut half the memcpy rate.
        assert!(p.serde_bulk_ns_per_byte < p.serde_ns_per_byte / 2.0);
        assert!(p.serde_bulk_ns_per_byte >= p.copy_ns_per_byte / 4.0);
    }

    #[test]
    fn zero_charge_is_free() {
        let m = CostModel::new(CostParams::default(), ClockMode::Virtual);
        m.charge_ns(0);
        assert_eq!(m.charged(), Duration::ZERO);
    }
}
