//! Lock-cheap event/metrics layer for the Montsalvat simulation.
//!
//! Every layer that touches the (simulated) enclave boundary reports
//! into a [`Recorder`]: `sgx-sim` counts transitions, crossing bytes,
//! EPC faults and MEE traffic; `runtime-sim` counts GC cycles and
//! copied bytes; `rmi` counts codec bytes, registry churn and
//! GC-helper sweeps; `montsalvat-core::exec` times per-proxy-call
//! spans for classic vs switchless RMI. A recorder is a fixed block
//! of atomics — recording an event is one `fetch_add` with relaxed
//! ordering, cheap enough to leave on everywhere.
//!
//! [`Recorder::snapshot`] freezes the current values into a
//! [`Snapshot`], snapshots [`Snapshot::merge`] across recorders, and
//! [`Snapshot::to_json`] exports the versioned, machine-readable
//! document that `--telemetry-out` writes (schema
//! [`SCHEMA`], documented in `docs/TELEMETRY.md`). Every document the
//! crate writes or reads goes through [`json`].
//!
//! # Example
//!
//! ```
//! use telemetry::{Counter, Hist, Recorder};
//!
//! let recorder = Recorder::new();
//! recorder.incr(Counter::Ecalls);
//! recorder.add(Counter::BytesIn, 128);
//! recorder.record_ns(Hist::RmiCallNs, 42_000);
//!
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counter(Counter::Ecalls), 1);
//! assert!(snap.to_json().contains("montsalvat.telemetry/v2"));
//! ```
//!
//! Aggregates answer *how much*; the [`trace`] module answers *which
//! call chain* — causal spans propagated across the enclave boundary
//! and exported as Chrome trace-event JSON (`docs/TRACING.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod json;
mod recorder;
mod snapshot;
pub mod timeseries;
pub mod trace;

pub use hist::{
    bucket_index, bucket_upper_bound, nearest_rank, AtomicHistogram, HistogramSnapshot, BUCKETS,
};
pub use recorder::{aggregate, Recorder};
pub use snapshot::Snapshot;

/// Identifier of the JSON schema emitted by [`Snapshot::to_json`].
///
/// The suffix is a major version: metric *additions* keep the same
/// version; renaming or removing a metric, or changing a unit, bumps
/// it. Consumers should accept unknown metric names.
///
/// v2: histogram units now distinguish `model_ns` (cost-clock time)
/// from `wall_ns` (host time); previously both exported as `ns`.
pub const SCHEMA: &str = "montsalvat.telemetry/v2";

macro_rules! metric_enum {
    (
        $(#[$outer:meta])*
        $vis:vis enum $name:ident {
            $($(#[$doc:meta])* $variant:ident => ($metric:literal, $unit:literal),)*
        }
    ) => {
        $(#[$outer])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$doc])* $variant,)*
        }

        impl $name {
            /// Every variant, in stable export order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// The dotted metric name used in the JSON export.
            pub const fn metric_name(self) -> &'static str {
                match self {
                    $($name::$variant => $metric,)*
                }
            }

            /// The unit recorded values are expressed in.
            pub const fn unit(self) -> &'static str {
                match self {
                    $($name::$variant => $unit,)*
                }
            }

            pub(crate) const COUNT: usize = Self::ALL.len();
        }
    };
}

metric_enum! {
    /// Monotone event counters.
    pub enum Counter {
        /// World→enclave transitions performed by `sgx-sim`'s `Enclave::ecall`.
        Ecalls => ("sgx.ecalls", "calls"),
        /// Enclave→world transitions performed by `Enclave::ocall`.
        Ocalls => ("sgx.ocalls", "calls"),
        /// Bytes marshalled into the enclave across ecalls.
        BytesIn => ("sgx.bytes_in", "bytes"),
        /// Bytes marshalled out of the enclave across ocalls.
        BytesOut => ("sgx.bytes_out", "bytes"),
        /// Bytes charged at MEE (memory-encryption-engine) rates.
        MeeBytes => ("sgx.mee_bytes", "bytes"),
        /// EPC page faults raised by the paging model.
        EpcFaults => ("sgx.epc_faults", "faults"),
        /// Ocalls issued by the libc shim (file + clock relays).
        ShimOcalls => ("sgx.shim_ocalls", "calls"),
        /// Named EDL routine dispatches through the trusted bridge.
        EdlDispatches => ("sgx.edl_dispatches", "calls"),
        /// Stop-and-copy collections completed.
        GcCollections => ("gc.collections", "collections"),
        /// Minor (nursery-evacuation) cycles of the generational block
        /// heap. Semispace never records these; `gc.collections` always
        /// equals minor + major.
        GcMinorCollections => ("gc.minor_collections", "collections"),
        /// Major (full-trace) collections. Every semispace collection
        /// is major.
        GcMajorCollections => ("gc.major_collections", "collections"),
        /// Bytes evacuated by the copying collector.
        GcBytesCopied => ("gc.bytes_copied", "bytes"),
        /// Bytes reclaimed from dead objects.
        GcBytesFreed => ("gc.bytes_freed", "bytes"),
        /// Bytes allocated on simulated heaps.
        HeapAllocBytes => ("gc.alloc_bytes", "bytes"),
        /// Objects allocated on simulated heaps.
        HeapAllocObjects => ("gc.alloc_objects", "objects"),
        /// Classic (relay-based) cross-world RMI invocations.
        RmiCalls => ("rmi.calls", "calls"),
        /// RMI invocations served by switchless worker pools (hits).
        SwitchlessCalls => ("rmi.switchless_calls", "calls"),
        /// Switchless posts that found the mailbox full and fell back
        /// to a classic EENTER/EEXIT crossing.
        SwitchlessFallbacks => ("rmi.switchless_fallbacks", "calls"),
        /// Switchless posts that found no idle worker (pressure signal
        /// driving adaptive scale-up; the call may still be a hit).
        SwitchlessMisses => ("rmi.switchless_misses", "calls"),
        /// Parked switchless workers woken by an arriving job.
        SwitchlessWorkerWakes => ("rmi.switchless_worker_wakes", "wakes"),
        /// Adaptive scale-up events (a worker spawned under miss
        /// pressure).
        SwitchlessScaleUps => ("rmi.switchless_scale_ups", "events"),
        /// Adaptive scale-down events (an idle worker retired).
        SwitchlessScaleDowns => ("rmi.switchless_scale_downs", "events"),
        /// Always 0. Counted capacity-raising decisions of the removed
        /// trace-driven tuner; the two `SwitchlessTune*` metrics stay so
        /// exports keep their shape, like the `Sched*` ones below.
        SwitchlessTuneUps => ("rmi.switchless_tune_ups", "events"),
        /// Always 0 (see [`SwitchlessTuneUps`](Counter::SwitchlessTuneUps)).
        SwitchlessTuneDowns => ("rmi.switchless_tune_downs", "events"),
        /// Payload bytes serialized for cross-world messages.
        BytesSerialized => ("rmi.bytes_serialized", "bytes"),
        /// Bytes produced by the value codec when encoding.
        CodecBytesOut => ("rmi.codec_bytes_out", "bytes"),
        /// Bytes consumed by the value codec when decoding.
        CodecBytesIn => ("rmi.codec_bytes_in", "bytes"),
        /// Proxy objects constructed for remote references.
        ProxiesCreated => ("rmi.proxies_created", "objects"),
        /// Mirror objects registered on the receiving side.
        MirrorsCreated => ("rmi.mirrors_created", "objects"),
        /// Mirrors released by cross-world GC synchronisation.
        MirrorsReleased => ("rmi.mirrors_released", "objects"),
        /// Periodic GC-helper thread wake-ups.
        GcHelperSweeps => ("rmi.gc_helper_sweeps", "sweeps"),
        /// Weak-proxy-list scans for dead proxies.
        WeakListScans => ("rmi.weaklist_scans", "scans"),
        /// Dead proxies found by weak-list scans.
        WeakDeadFound => ("rmi.weak_dead_found", "objects"),
        /// Relay method dispatches executed on a receiving world.
        RelayDispatches => ("exec.relay_dispatches", "calls"),
        /// Boundary payload encodes that succeeded (marshal calls).
        /// Always equals `serde.fast_path_hits`.
        SerdeEncodeCalls => ("serde.encode_calls", "calls"),
        /// Encodes in wire format v2 (shape-cached, pooled buffer, bulk
        /// primitives), the only serde path.
        SerdeFastPathHits => ("serde.fast_path_hits", "calls"),
        /// Always 0: it counted the classic v1 serde path, which was
        /// removed. It stays so exports keep their shape, like the
        /// `Sched*` metrics below.
        SerdeSlowPathHits => ("serde.slow_path_hits", "calls"),
        /// Bulk-copied payload bytes (single-memcpy `Bytes` /
        /// primitive-homogeneous lists) charged at the bulk serde rate.
        SerdeBulkBytes => ("serde.bulk_bytes", "bytes"),
        /// Payload bytes encoded into a reused pooled buffer instead
        /// of a fresh heap allocation.
        SerdePooledBytes => ("serde.pooled_bytes", "bytes"),
        /// Shape-cache misses (first crossing of a class from a side;
        /// interns the class name and caches its id).
        SerdeShapeCacheMisses => ("serde.shape_cache_misses", "misses"),
        /// Trace events discarded because a ring buffer was full
        /// (see `telemetry::trace`; `rmi.calls` reconciles against
        /// traced spans plus this).
        TraceDropped => ("trace.dropped", "events"),
        /// Requests completed by the open-loop traffic harness
        /// (`traffic_service`; see `docs/DEPLOYMENT.md`).
        TrafficRequests => ("traffic.requests", "requests"),
        /// Time-series windows discarded because the flight recorder's
        /// ring was full (see [`timeseries`]; fill-then-drop like the
        /// trace lanes).
        TimeseriesDropped => ("timeseries.dropped", "windows"),
        /// Always 0. Counted steals of the removed work-stealing
        /// engine; the five `Sched*` metrics stay so exports keep their
        /// shape and the benchmark harness keeps compiling.
        SchedSteals => ("rmi.sched_steals", "events"),
        /// Always 0 (see [`SchedSteals`](Counter::SchedSteals)).
        SchedSuspends => ("rmi.sched_suspends", "events"),
        /// Always 0 (see [`SchedSteals`](Counter::SchedSteals)).
        SchedTimeouts => ("rmi.sched_timeouts", "events"),
    }
}

metric_enum! {
    /// High-water-mark gauges: [`Recorder::gauge_max`] keeps the
    /// largest value ever reported.
    pub enum Gauge {
        /// Peak number of rooted mirrors in a registry.
        RegistrySizePeak => ("rmi.registry_size_peak", "objects"),
        /// Peak live bytes across simulated heaps.
        HeapLiveBytesPeak => ("gc.heap_live_bytes_peak", "bytes"),
        /// Peak EPC-resident bytes committed by an enclave.
        EpcResidentPeak => ("sgx.epc_resident_peak", "bytes"),
        /// Peak resident switchless workers on one side.
        SwitchlessWorkersPeak => ("rmi.switchless_workers_peak", "workers"),
        /// Peak queued jobs observed in a switchless mailbox.
        SwitchlessQueueDepthPeak => ("rmi.switchless_queue_depth_peak", "jobs"),
        /// Per-drain batch bound in force: the configured `max_batch`,
        /// set once when the switchless pool spawns (last-value, via
        /// [`Recorder::gauge_set`]).
        SwitchlessTargetBatch => ("rmi.switchless_target_batch", "jobs"),
        /// Current EPC-resident bytes committed by an enclave
        /// (last-value, via [`Recorder::gauge_set`]; the per-window
        /// level behind [`EpcResidentPeak`](Gauge::EpcResidentPeak)).
        EpcResident => ("sgx.epc_resident", "bytes"),
        /// Current live bytes on a simulated heap (last-value; the
        /// per-window level behind
        /// [`HeapLiveBytesPeak`](Gauge::HeapLiveBytesPeak)).
        HeapLiveBytes => ("gc.heap_live_bytes", "bytes"),
        /// Current resident switchless workers on one side
        /// (last-value; the per-window level behind
        /// [`SwitchlessWorkersPeak`](Gauge::SwitchlessWorkersPeak)).
        SwitchlessWorkers => ("rmi.switchless_workers", "workers"),
        /// Most recently observed switchless mailbox depth
        /// (last-value; the per-window level behind
        /// [`SwitchlessQueueDepthPeak`](Gauge::SwitchlessQueueDepthPeak)).
        SwitchlessQueueDepth => ("rmi.switchless_queue_depth", "jobs"),
        /// Blocks of the segmented heap holding at least one live
        /// object, sampled after each collection (last-value; block
        /// collector only).
        GcBlocksLive => ("gc.blocks_live", "blocks"),
        /// Committed-but-empty blocks cached on the free-block list,
        /// sampled after each collection (last-value; block collector
        /// only).
        GcBlocksFree => ("gc.blocks_free", "blocks"),
        /// Always 0 (see [`Counter::SchedSteals`]).
        SchedInflight => ("rmi.sched_inflight", "tasks"),
    }
}

metric_enum! {
    /// Log2-bucketed distributions.
    ///
    /// The unit tags distinguish the two clocks in play: `model_ns`
    /// is cost-clock time (deterministic under `ClockMode::Virtual`),
    /// `wall_ns` is host time. They must never be mixed within one
    /// histogram.
    pub enum Hist {
        /// Model nanoseconds charged per classic (relay) RMI call.
        RmiCallNs => ("rmi.call_ns", "model_ns"),
        /// Model nanoseconds charged per switchless RMI call.
        SwitchlessCallNs => ("rmi.switchless_call_ns", "model_ns"),
        /// Model nanoseconds a switchless job waited in the mailbox
        /// before a worker picked it up (queue wait, excluded from
        /// execution time).
        SwitchlessQueueWaitNs => ("rmi.switchless_queue_wait_ns", "model_ns"),
        /// Wire bytes per enclave-boundary crossing.
        CrossingBytes => ("sgx.crossing_bytes", "bytes"),
        /// Wall-clock nanoseconds per stop-and-copy collection.
        GcPauseNs => ("gc.pause_ns", "wall_ns"),
        /// Wall-clock nanoseconds per *minor* (nursery) cycle — the
        /// minor split of [`GcPauseNs`](Hist::GcPauseNs).
        GcMinorPauseNs => ("gc.minor_pause_ns", "wall_ns"),
        /// Wall-clock nanoseconds per *major* (full) collection — the
        /// major split of [`GcPauseNs`](Hist::GcPauseNs).
        GcMajorPauseNs => ("gc.major_pause_ns", "wall_ns"),
        /// Charged-clock nanoseconds per collection (the model cost of
        /// the pause: MEE copy traffic, marking work, EPC paging).
        /// Recorded only when the heap owner lends a charge clock
        /// (applications do); deterministic under `ClockMode::Virtual`.
        GcPauseModelNs => ("gc.pause_model_ns", "model_ns"),
        /// Jobs served per switchless worker wakeup (batch drain size).
        SwitchlessBatchJobs => ("rmi.switchless_batch_jobs", "jobs"),
        /// Always empty (see [`Counter::SerdeSlowPathHits`]).
        SerdeEncodeClassicNs => ("serde.encode_classic_ns", "model_ns"),
        /// Model nanoseconds charged per payload encode.
        SerdeEncodeFastNs => ("serde.encode_fast_ns", "model_ns"),
        /// Model nanoseconds an open-loop traffic request spent in the
        /// system — queueing delay on the virtual arrival timeline plus
        /// service time (`traffic_service`; see `docs/DEPLOYMENT.md`).
        TrafficLatencyNs => ("traffic.request_latency_ns", "model_ns"),
        /// Model nanoseconds of pure service time charged per traffic
        /// request (the charged-clock delta of the request's RMI call).
        TrafficServiceNs => ("traffic.service_ns", "model_ns"),
        /// Always empty (see [`Counter::SchedSteals`]).
        SchedTaskWaitNs => ("rmi.sched_task_wait_ns", "model_ns"),
    }
}
