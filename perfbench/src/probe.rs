//! Layer probes of the traced run: the `rmi` codec and the `sgx`
//! transition timed on instances of their own, so probing never touches
//! the workload app's counters or heaps.

use std::sync::Arc;
use std::time::Instant;

use rmi::codec::{self, RefEncoding};
use runtime_sim::heap::{Heap, HeapConfig};
use runtime_sim::value::Value;
use sgx_sim::cost::{ClockMode, CostModel, CostParams};
use sgx_sim::enclave::{Enclave, EnclaveConfig};

use crate::spans::{enter, SpanName, Spans};

/// Empty ecalls per transition probe; timing a small batch keeps the
/// clock reads out of the per-transition figure.
const TRANSITIONS_PER_PROBE: u32 = 8;

/// One crossing's payloads: the arguments that travel in and the reply
/// that travels back.
pub type Crossing = (Vec<Value>, Value);

/// Probe instances plus what they measured.
pub struct Probes {
    heap: Heap,
    enclave: Arc<Enclave>,
    /// Reused encode buffers, one per payload of an op (the program's
    /// marshal path encodes into pooled buffers too).
    wires: Vec<Vec<u8>>,
    /// Ops probed.
    pub probed: u64,
    /// Summed encode time of every probed op's payloads, wall ns.
    pub encode_ns: u64,
    /// Summed decode time, wall ns.
    pub decode_ns: u64,
    /// Empty transitions timed.
    pub transitions: u64,
    /// Their summed time, wall ns.
    pub transition_ns: u64,
}

impl Probes {
    /// Fresh probe heap and enclave (its own cost model and recorder).
    pub fn new() -> Probes {
        let cost = Arc::new(CostModel::new(CostParams::paper_defaults(), ClockMode::Virtual));
        let enclave = Enclave::create(&EnclaveConfig::default(), b"montsalvat-bench probe", cost)
            .expect("the probe enclave config is valid");
        Probes {
            heap: Heap::new(HeapConfig::default()),
            enclave,
            wires: Vec::new(),
            probed: 0,
            encode_ns: 0,
            decode_ns: 0,
            transitions: 0,
            transition_ns: 0,
        }
    }

    /// Encodes and decodes every payload of one op the way the fast
    /// serde path does (`encode_values_v2` / `decode_value`), then times
    /// a batch of empty ecalls.
    pub fn probe(&mut self, crossings: &[Crossing], spans: Option<&Arc<Spans>>) {
        let payloads = crossings.len() * 2;
        if self.wires.len() < payloads {
            self.wires.resize_with(payloads, Vec::new);
        }
        {
            let _span = enter(spans, SpanName::ProbeRmiEncode);
            let t = Instant::now();
            let values = crossings
                .iter()
                .flat_map(|(args, reply)| [args.as_slice(), std::slice::from_ref(reply)]);
            for (wire, values) in self.wires.iter_mut().zip(values) {
                wire.clear();
                codec::encode_values_v2(&self.heap, values, &mut |_| Ok(RefEncoding::Inline), wire)
                    .expect("benchmark payloads hold no references");
            }
            self.encode_ns += t.elapsed().as_nanos() as u64;
        }
        {
            let _span = enter(spans, SpanName::ProbeRmiDecode);
            let t = Instant::now();
            for wire in &self.wires[..payloads] {
                let decoded = codec::decode_value(&mut self.heap, wire, &mut codec::resolve_none)
                    .expect("a payload this probe encoded decodes");
                std::hint::black_box(decoded.unpin(&mut self.heap));
            }
            self.decode_ns += t.elapsed().as_nanos() as u64;
        }
        {
            let _span = enter(spans, SpanName::ProbeSgxTransition);
            let t = Instant::now();
            for _ in 0..TRANSITIONS_PER_PROBE {
                self.enclave.ecall("probe", 0, || ()).expect("the probe enclave is alive");
            }
            self.transition_ns += t.elapsed().as_nanos() as u64;
            self.transitions += u64::from(TRANSITIONS_PER_PROBE);
        }
        self.probed += 1;
    }
}
