//! Simulated enclave lifecycle, transitions and attestation.
//!
//! An [`Enclave`] is the meeting point of the whole cost model: it owns
//! the [`EpcState`] for its memory, counts ecall/ocall transitions,
//! traffic and EPC faults into the cost model's recorder, and charges
//! the shared [`CostModel`] for every modelled effect. It keeps no
//! counts of its own: [`Enclave::recorder`] is where they are read.
//!
//! Trusted code is represented as closures executed under
//! [`Enclave::ecall`]; untrusted relays run under [`Enclave::ocall`].
//! The closure-based design keeps the simulation honest: every crossing
//! in the system is forced through these two functions, so the counts
//! they record are ground truth for the experiments.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use telemetry::trace::{self, Lane};
use telemetry::{Counter, Gauge, Hist, Recorder};

use crate::cost::CostModel;
use crate::epc::EpcState;
use crate::error::SgxError;

/// Build-time configuration of an enclave, mirroring the SGX SDK's
/// enclave configuration XML.
#[derive(Debug, Clone, PartialEq)]
pub struct EnclaveConfig {
    /// Maximum enclave heap size in bytes (paper uses 4 GB, §6.1).
    pub heap_max: u64,
    /// Maximum enclave stack size in bytes (paper uses 8 MB, §6.1).
    pub stack_max: u64,
    /// Failure injection: the enclave is "lost" after serving this many
    /// transitions (simulates power transitions / TCB recovery). `None`
    /// disables injection.
    pub fail_after_transitions: Option<u64>,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            heap_max: 4 * 1024 * 1024 * 1024,
            stack_max: 8 * 1024 * 1024,
            fail_after_transitions: None,
        }
    }
}

/// SHA-256-shaped enclave measurement (MRENCLAVE analogue).
///
/// The digest is a non-cryptographic 256-bit FNV construction — adequate
/// for simulation (identity, tamper-evidence in tests) and clearly *not*
/// for production use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Measures an image byte-string the way signing measures the enclave
    /// shared object.
    pub fn of(image: &[u8]) -> Self {
        // Four independent 64-bit FNV-1a lanes with distinct offsets.
        let mut lanes = [
            0xcbf29ce484222325u64,
            0x84222325cbf29ce4u64,
            0x9ce484222325cbf2u64,
            0x25cbf29ce4842223u64,
        ];
        for (i, &b) in image.iter().enumerate() {
            let lane = &mut lanes[i % 4];
            *lane ^= b as u64;
            *lane = lane.wrapping_mul(0x100000001b3);
        }
        // Mix image length so prefixes differ.
        lanes[0] ^= image.len() as u64;
        let mut out = [0u8; 32];
        for (i, lane) in lanes.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&lane.to_le_bytes());
        }
        Measurement(out)
    }

    /// Hex rendering, as tooling would print MRENCLAVE.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Attestation quote stub (remote attestation, §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Measurement of the quoted enclave.
    pub measurement: Measurement,
    /// Caller-chosen report data bound into the quote.
    pub report_data: [u8; 32],
    /// Simulated signature over (measurement, report_data).
    pub signature: [u8; 32],
}

/// A simulated SGX enclave.
///
/// Cheap to share: wrap in an [`Arc`] and hand clones to both worlds.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sgx_sim::cost::{ClockMode, CostModel, CostParams};
/// use sgx_sim::enclave::{Enclave, EnclaveConfig};
/// use telemetry::Counter;
///
/// # fn main() -> Result<(), sgx_sim::SgxError> {
/// let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
/// let enclave = Enclave::create(&EnclaveConfig::default(), b"image bytes", cost)?;
/// let sum = enclave.ecall("add", 16, || 2 + 2)?;
/// assert_eq!(sum, 4);
/// assert_eq!(enclave.recorder().counter(Counter::Ecalls), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Enclave {
    measurement: Measurement,
    config: EnclaveConfig,
    cost: Arc<CostModel>,
    epc: Mutex<EpcState>,
    /// Transitions served, counted only while `fail_after_transitions`
    /// is armed.
    transitions_served: AtomicU64,
    lost: AtomicBool,
}

impl Enclave {
    /// Creates (loads and initialises) an enclave measured over `image`.
    /// Nothing is committed to the EPC yet: the launcher commits the
    /// image with [`Enclave::alloc_heap`] when it runs inside.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::CreateFailed`] if the configuration is invalid
    /// (zero-sized heap/stack or an empty image).
    pub fn create(
        config: &EnclaveConfig,
        image: &[u8],
        cost: Arc<CostModel>,
    ) -> Result<Arc<Self>, SgxError> {
        if image.is_empty() {
            return Err(SgxError::CreateFailed { reason: "empty enclave image".into() });
        }
        if config.heap_max == 0 || config.stack_max == 0 {
            return Err(SgxError::CreateFailed {
                reason: "heap_max and stack_max must be non-zero".into(),
            });
        }
        Ok(Arc::new(Enclave {
            measurement: Measurement::of(image),
            config: config.clone(),
            cost,
            epc: Mutex::new(EpcState::new()),
            transitions_served: AtomicU64::new(0),
            lost: AtomicBool::new(false),
        }))
    }

    /// The enclave measurement (MRENCLAVE analogue).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// The shared cost model.
    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// The telemetry recorder this enclave counts its transitions,
    /// traffic and EPC faults into (the cost model's recorder).
    pub fn recorder(&self) -> &Arc<Recorder> {
        self.cost.recorder()
    }

    /// Bytes currently resident in the EPC for this enclave.
    pub fn epc_resident_bytes(&self) -> u64 {
        self.epc.lock().resident_bytes()
    }

    fn check_alive(&self) -> Result<(), SgxError> {
        if self.lost.load(Ordering::Acquire) {
            return Err(SgxError::EnclaveLost);
        }
        if let Some(limit) = self.config.fail_after_transitions {
            if self.transitions_served.load(Ordering::Relaxed) >= limit {
                self.lost.store(true, Ordering::Release);
                return Err(SgxError::EnclaveLost);
            }
        }
        Ok(())
    }

    fn charge_crossing(&self, bytes: usize) {
        // Only failure injection reads the count.
        if self.config.fail_after_transitions.is_some() {
            self.transitions_served.fetch_add(1, Ordering::Relaxed);
        }
        self.cost.charge_ns(self.cost.params().crossing_ns(bytes as u64));
    }

    /// Runs `f` inside a transition span on `lane`. The span becomes
    /// the current context for `f`'s duration, so nested crossings and
    /// RMI spans parent under it — this is where the EENTER/EEXIT pair
    /// shows up on the trace timeline.
    fn traced_transition<R>(
        &self,
        lane: Lane,
        cat: &'static str,
        routine: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let prefix = if lane == Lane::Trusted { "ecall" } else { "ocall" };
        let _span = self.cost.tracer().span(
            lane,
            cat,
            trace::current(),
            || self.cost.charged_ns(),
            || format!("{prefix}:{routine}"),
        );
        f()
    }

    /// Enters the enclave: runs `f` as trusted code, charging one
    /// transition that carries `bytes_in` bytes inward.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::EnclaveLost`] if the enclave was destroyed or
    /// failure injection tripped.
    pub fn ecall<R>(
        &self,
        routine: &str,
        bytes_in: usize,
        f: impl FnOnce() -> R,
    ) -> Result<R, SgxError> {
        self.check_alive()?;
        let recorder = self.cost.recorder();
        recorder.incr(Counter::Ecalls);
        recorder.incr(Counter::EdlDispatches);
        recorder.add(Counter::BytesIn, bytes_in as u64);
        recorder.record(Hist::CrossingBytes, bytes_in as u64);
        self.charge_crossing(bytes_in);
        Ok(self.traced_transition(Lane::Trusted, "sgx", routine, f))
    }

    /// Exits the enclave: runs `f` as untrusted code, charging one
    /// transition that carries `bytes_out` bytes outward.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::EnclaveLost`] if the enclave was destroyed or
    /// failure injection tripped.
    pub fn ocall<R>(
        &self,
        routine: &str,
        bytes_out: usize,
        f: impl FnOnce() -> R,
    ) -> Result<R, SgxError> {
        self.check_alive()?;
        let recorder = self.cost.recorder();
        recorder.incr(Counter::Ocalls);
        recorder.incr(Counter::EdlDispatches);
        // The libc shim namespaces its edge routines "shim_*"; counting
        // them here keeps every shim call site automatically covered.
        let shim = routine.starts_with("shim_");
        if shim {
            recorder.incr(Counter::ShimOcalls);
        }
        recorder.add(Counter::BytesOut, bytes_out as u64);
        recorder.record(Hist::CrossingBytes, bytes_out as u64);
        self.charge_crossing(bytes_out);
        let cat = if shim { "shim" } else { "sgx" };
        Ok(self.traced_transition(Lane::Untrusted, cat, routine, f))
    }

    /// Commits `bytes` of enclave heap growth, charging EPC paging as
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::OutOfEnclaveMemory`] if the enclave heap
    /// maximum would be exceeded.
    pub fn alloc_heap(&self, bytes: u64) -> Result<(), SgxError> {
        let mut epc = self.epc.lock();
        if epc.resident_bytes() + bytes > self.config.heap_max {
            return Err(SgxError::OutOfEnclaveMemory {
                requested: bytes,
                heap_max: self.config.heap_max,
            });
        }
        let charge = epc.grow(bytes, self.cost.params());
        let resident = epc.resident_bytes();
        drop(epc);
        let recorder = self.cost.recorder();
        recorder.add(Counter::EpcFaults, charge.faults);
        recorder.gauge_max(Gauge::EpcResidentPeak, resident);
        recorder.gauge_set(Gauge::EpcResident, resident);
        self.cost.charge_ns(charge.ns);
        self.trace_aex(charge.faults);
        Ok(())
    }

    /// Marks EPC page faults on the trace: each fault implies an
    /// asynchronous enclave exit (AEX) for the paging handler, so
    /// bursts show up as instants inside whatever span they interrupt.
    fn trace_aex(&self, faults: u64) {
        if faults == 0 {
            return;
        }
        self.cost.tracer().instant(
            Lane::Trusted,
            "sgx",
            trace::current(),
            || self.cost.charged_ns(),
            || format!("aex:epc_faults={faults}"),
        );
    }

    /// Releases `bytes` of enclave heap.
    pub fn free_heap(&self, bytes: u64) {
        let mut epc = self.epc.lock();
        epc.shrink(bytes);
        let resident = epc.resident_bytes();
        drop(epc);
        self.cost.recorder().gauge_set(Gauge::EpcResident, resident);
    }

    /// Charges MEE + EPC costs for `bytes` of ordinary in-enclave heap
    /// traffic (allocation writes, large scans).
    pub fn charge_heap_traffic(&self, bytes: u64) {
        self.charge_traffic_at(bytes, self.cost.params().mee_ns_per_byte);
    }

    /// Charges MEE + EPC costs for `bytes` copied by a stop-and-copy
    /// collection — the heavy, read-and-rewrite-everything rate (§6.4).
    pub fn charge_gc_copy(&self, bytes: u64) {
        self.charge_traffic_at(bytes, self.cost.params().mee_gc_ns_per_byte);
    }

    /// Charges tracing work for `objects` marked by a collection
    /// (`gc_mark_ns_per_obj` each). The block collector's mark phase
    /// reads headers and chases pointers without copying, so it pays
    /// this per-object rate instead of the per-byte copy rate.
    pub fn charge_gc_mark(&self, objects: u64) {
        let ns = (objects as f64 * self.cost.params().gc_mark_ns_per_obj) as u64;
        self.cost.charge_ns(ns);
    }

    /// Charges EPC paging for GC work that touched `blocks` heap blocks
    /// of `block_bytes` each — the segmented collector's per-block
    /// residency charge, replacing the semispace model's whole-live-set
    /// touch (see `docs/GC.md`). MEE traffic is *not* charged here;
    /// evacuated bytes pay [`Enclave::charge_gc_copy`] separately.
    pub fn charge_gc_blocks(&self, blocks: u64, block_bytes: u64) {
        let params = self.cost.params();
        let charge = self.epc.lock().touch_blocks(blocks, block_bytes, params);
        self.cost.recorder().add(Counter::EpcFaults, charge.faults);
        self.cost.charge_ns(charge.ns);
        self.trace_aex(charge.faults);
    }

    fn charge_traffic_at(&self, bytes: u64, ns_per_byte: f64) {
        let recorder = self.cost.recorder();
        recorder.add(Counter::MeeBytes, bytes);
        let params = self.cost.params();
        let mee_ns = (bytes as f64 * ns_per_byte) as u64;
        let epc_charge = self.epc.lock().touch(bytes, params);
        recorder.add(Counter::EpcFaults, epc_charge.faults);
        self.cost.charge_ns(mee_ns + epc_charge.ns);
        self.trace_aex(epc_charge.faults);
    }

    /// Charges `work_ns` of compute done inside the enclave, scaled by
    /// `mee_compute_factor` when `working_set_bytes` spills out of the
    /// last-level cache (§6.5: the MEE makes cache-missing CPU work more
    /// expensive). `work_ns` is counted work — operations times a
    /// per-operation cost — never a host-time reading.
    pub fn charge_compute(&self, working_set_bytes: u64, work_ns: u64) {
        let params = self.cost.params();
        let factor =
            if working_set_bytes > params.llc_bytes { params.mee_compute_factor } else { 1.0 };
        self.cost.charge_ns((work_ns as f64 * factor) as u64);
    }

    /// Produces an attestation quote binding `report_data` to this
    /// enclave's measurement (remote-attestation stub, §4).
    pub fn quote(&self, report_data: [u8; 32]) -> Quote {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&self.measurement.0);
        buf.extend_from_slice(&report_data);
        Quote { measurement: self.measurement, report_data, signature: Measurement::of(&buf).0 }
    }

    /// Verifies that `quote` was produced over its contents by the
    /// simulated quoting infrastructure.
    pub fn verify_quote(quote: &Quote) -> bool {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&quote.measurement.0);
        buf.extend_from_slice(&quote.report_data);
        Measurement::of(&buf).0 == quote.signature
    }

    /// Destroys the enclave; subsequent transitions fail with
    /// [`SgxError::EnclaveLost`].
    pub fn destroy(&self) {
        self.lost.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ClockMode, CostParams};

    fn enclave() -> Arc<Enclave> {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        Enclave::create(&EnclaveConfig::default(), b"test image", cost).unwrap()
    }

    #[test]
    fn create_rejects_empty_image() {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        let err = Enclave::create(&EnclaveConfig::default(), b"", cost).unwrap_err();
        assert!(matches!(err, SgxError::CreateFailed { .. }));
    }

    #[test]
    fn create_rejects_zero_heap() {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        let cfg = EnclaveConfig { heap_max: 0, ..EnclaveConfig::default() };
        assert!(Enclave::create(&cfg, b"img", cost).is_err());
    }

    #[test]
    fn measurement_is_deterministic_and_tamper_evident() {
        assert_eq!(Measurement::of(b"abc"), Measurement::of(b"abc"));
        assert_ne!(Measurement::of(b"abc"), Measurement::of(b"abd"));
        assert_ne!(Measurement::of(b"a"), Measurement::of(b"aa"));
        assert_eq!(Measurement::of(b"abc").to_hex().len(), 64);
    }

    #[test]
    fn transitions_count_and_charge() {
        let e = enclave();
        let before = e.cost().charged();
        e.ecall("f", 100, || ()).unwrap();
        e.ocall("g", 200, || ()).unwrap();
        let r = e.recorder();
        assert_eq!((r.counter(Counter::Ecalls), r.counter(Counter::Ocalls)), (1, 1));
        assert_eq!((r.counter(Counter::BytesIn), r.counter(Counter::BytesOut)), (100, 200));
        assert!(e.cost().charged() > before);
    }

    #[test]
    fn failure_injection_loses_enclave() {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        let cfg = EnclaveConfig { fail_after_transitions: Some(2), ..EnclaveConfig::default() };
        let e = Enclave::create(&cfg, b"img", cost).unwrap();
        assert!(e.ecall("a", 0, || ()).is_ok());
        assert!(e.ocall("b", 0, || ()).is_ok());
        assert_eq!(e.ecall("c", 0, || ()).unwrap_err(), SgxError::EnclaveLost);
        // And it stays lost.
        assert_eq!(e.ocall("d", 0, || ()).unwrap_err(), SgxError::EnclaveLost);
    }

    #[test]
    fn destroy_blocks_transitions() {
        let e = enclave();
        e.destroy();
        assert_eq!(e.ecall("f", 0, || ()).unwrap_err(), SgxError::EnclaveLost);
    }

    #[test]
    fn heap_alloc_respects_heap_max() {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        let cfg = EnclaveConfig { heap_max: 1024 * 1024, ..EnclaveConfig::default() };
        let e = Enclave::create(&cfg, b"i", cost).unwrap();
        assert!(e.alloc_heap(512 * 1024).is_ok());
        let err = e.alloc_heap(600 * 1024).unwrap_err();
        assert!(matches!(err, SgxError::OutOfEnclaveMemory { .. }));
    }

    #[test]
    fn heap_traffic_charges_mee() {
        let e = enclave();
        let before = e.cost().charged();
        e.charge_heap_traffic(1_000_000);
        assert!(e.cost().charged() > before);
        assert_eq!(e.recorder().counter(Counter::MeeBytes), 1_000_000);
    }

    #[test]
    fn epc_overcommit_charges_faults() {
        let cost = Arc::new(CostModel::new(
            CostParams { epc_usable_bytes: 64 * 1024, ..CostParams::default() },
            ClockMode::Virtual,
        ));
        let e = Enclave::create(&EnclaveConfig::default(), b"i", cost).unwrap();
        e.alloc_heap(256 * 1024).unwrap();
        assert!(e.recorder().counter(Counter::EpcFaults) > 0);
    }

    #[test]
    fn transitions_and_traffic_count_into_the_recorder() {
        let e = enclave();
        e.ecall("f", 64, || ()).unwrap();
        e.ocall("shim_write", 32, || ()).unwrap();
        e.charge_heap_traffic(500);
        let r = e.recorder();
        assert_eq!((r.counter(Counter::Ecalls), r.counter(Counter::Ocalls)), (1, 1));
        assert_eq!((r.counter(Counter::BytesIn), r.counter(Counter::BytesOut)), (64, 32));
        assert_eq!(r.counter(Counter::MeeBytes), 500);
        assert_eq!(r.counter(Counter::ShimOcalls), 1);
        assert_eq!(r.counter(Counter::EdlDispatches), 2);
        assert_eq!(r.snapshot().hist(telemetry::Hist::CrossingBytes).count, 2);
    }

    #[test]
    fn recorded_epc_faults_and_residency_follow_the_paging_model() {
        let cost = Arc::new(CostModel::new(
            CostParams { epc_usable_bytes: 64 * 1024, ..CostParams::default() },
            ClockMode::Virtual,
        ));
        let e = Enclave::create(&EnclaveConfig::default(), b"i", cost).unwrap();
        assert_eq!(e.epc_resident_bytes(), 0, "creating an enclave commits nothing");
        e.alloc_heap(256 * 1024).unwrap();
        e.charge_heap_traffic(512 * 1024);
        e.free_heap(64 * 1024);
        let params = e.cost().params();
        let mut model = EpcState::new();
        let faults = model.grow(256 * 1024, params).faults + model.touch(512 * 1024, params).faults;
        assert!(faults > 0);
        let r = e.recorder();
        assert_eq!(r.counter(Counter::EpcFaults), faults);
        assert_eq!(r.gauge(Gauge::EpcResidentPeak), 256 * 1024);
        assert_eq!(r.gauge(Gauge::EpcResident), 192 * 1024);
        assert_eq!(e.epc_resident_bytes(), 192 * 1024);
    }

    #[test]
    fn nested_transitions_trace_as_one_tree() {
        let tracer = telemetry::trace::Tracer::new();
        tracer.enable_with_capacity(64);
        let cost = Arc::new(CostModel::with_recorder_and_tracer(
            CostParams::default(),
            ClockMode::Virtual,
            telemetry::Recorder::new(),
            Arc::clone(&tracer),
        ));
        let e = Enclave::create(&EnclaveConfig::default(), b"img", cost).unwrap();
        e.ecall("relay", 16, || {
            e.ocall("shim_write", 8, || ()).unwrap();
        })
        .unwrap();
        let spans = tracer.snapshot_events();
        assert_eq!(spans.len(), 2, "one event per span");
        let ecall = spans.iter().find(|ev| ev.name == "ecall:relay").unwrap();
        let ocall = spans.iter().find(|ev| ev.name == "ocall:shim_write").unwrap();
        assert!(ecall.end.is_some() && ocall.end.is_some(), "both are complete spans");
        assert_eq!(ecall.lane, Lane::Trusted);
        assert_eq!(ecall.parent_span_id, 0, "outer ecall is the root");
        assert_eq!(ocall.lane, Lane::Untrusted);
        assert_eq!(ocall.cat, "shim");
        assert_eq!(ocall.parent_span_id, ecall.span_id, "ocall nests under the ecall");
        assert_eq!(ocall.trace_id, ecall.trace_id, "one connected tree");
        assert!(trace::current().is_none(), "context restored after the crossing");
    }

    #[test]
    fn quotes_verify_and_detect_tampering() {
        let e = enclave();
        let q = e.quote([7u8; 32]);
        assert!(Enclave::verify_quote(&q));
        let mut bad = q.clone();
        bad.report_data[0] ^= 1;
        assert!(!Enclave::verify_quote(&bad));
    }

    #[test]
    fn compute_surcharge_applies_only_to_large_working_sets() {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        let e = Enclave::create(&EnclaveConfig::default(), b"i", cost).unwrap();
        e.charge_compute(1024, 1_000);
        assert_eq!(e.cost().charged_ns(), 1_000, "small working set pays the work only");
        e.charge_compute(64 * 1024 * 1024, 1_000);
        let factor = e.cost().params().mee_compute_factor;
        assert_eq!(e.cost().charged_ns(), 1_000 + (1_000.0 * factor) as u64, "MEE surcharge");
    }
}
