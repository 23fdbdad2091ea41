//! `bulk-shard`: the GraphChi Part-NI sharding shape. The untrusted side
//! pushes R-MAT edges (`graphchi::rmat::generate`) in 4096-edge batches
//! into a trusted shard accumulator. Each batch crosses as one
//! `Value::List` of primitive ints, so bulk `rmi` encode/decode dominates
//! the crossing while per-crossing `exec` dispatch is a small share — the
//! second use of `rmi` beside the KV workloads' small messages.

use std::sync::{Arc, Mutex};

use experiments::traffic::{arrival_schedule, TrafficConfig};
use graphchi::rmat::{self, RmatParams};
use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::ctx::Ctx;
use montsalvat_core::{Trust, VmError};
use runtime_sim::value::Value;

use crate::probe::Crossing;
use crate::spans::{enter, SpanName, Spans};
use crate::workload::{Built, Checksum, Workload};

/// Edges per batch (one crossing).
pub const BATCH_EDGES: usize = 4096;
/// Distinct batches generated per seed; requests cycle through them.
const POOL_BATCHES: usize = 64;
/// Vertex count of the R-MAT graph.
const VERTICES: u32 = 1 << 16;
/// Destination-interval shards, as GraphChi partitions by destination.
const SHARDS: usize = 16;
/// Calm-phase gap of the batch arrivals, which come in the traffic
/// harness's ×8 burst waves (a sharder flushes its input in blocks). The
/// mean gap, 544/768 of the calm gap, is then about twice the mean model
/// service time of a batch (about 240 µs: transition, wire copy and bulk
/// serde of 64 KiB), so the accumulator runs near half load and queues
/// during bursts.
const CALM_GAP_NS: u64 = 680_000;
/// p99.9 latency limit of the capacity search.
const LATENCY_LIMIT_NS: u64 = 10_000_000;

/// The accumulator's running totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    edges: u64,
    src_sum: u64,
    dst_sum: u64,
    shards: [u64; SHARDS],
}

impl Totals {
    fn add(&mut self, src: u64, dst: u64) {
        self.edges += 1;
        self.src_sum = self.src_sum.wrapping_add(src);
        self.dst_sum = self.dst_sum.wrapping_add(dst);
        self.shards[shard(dst)] += 1;
    }
}

fn shard(dst: u64) -> usize {
    (dst as usize * SHARDS) / VERTICES as usize
}

/// The bulk-shard workload over one seeded edge pool.
pub struct Bulk {
    ops: usize,
    /// Each batch as the `Value::List` that crosses: src, dst, src, dst…
    batches: Vec<Value>,
    /// Reply of each pool batch, computed directly.
    batch_sums: Vec<i64>,
    /// Totals of each pool batch, computed directly.
    batch_totals: Vec<Totals>,
    arrivals: Vec<u64>,
}

fn batch_sum(pairs: impl Iterator<Item = (u64, u64)>) -> i64 {
    pairs.fold(0u64, |acc, (s, d)| acc.wrapping_mul(31).wrapping_add((s << 32) | d)) as i64
}

impl Bulk {
    /// `ops` batch pushes over the edge pool generated from `seed`.
    pub fn new(seed: u64, ops: usize) -> Bulk {
        let edges =
            rmat::generate(VERTICES, POOL_BATCHES * BATCH_EDGES, RmatParams::default(), seed);
        let mut batches = Vec::with_capacity(POOL_BATCHES);
        let mut batch_sums = Vec::with_capacity(POOL_BATCHES);
        let mut batch_totals = Vec::with_capacity(POOL_BATCHES);
        for chunk in edges.chunks(BATCH_EDGES) {
            let pairs = || chunk.iter().map(|e| (u64::from(e.src), u64::from(e.dst)));
            batches.push(Value::List(
                pairs().flat_map(|(s, d)| [Value::Int(s as i64), Value::Int(d as i64)]).collect(),
            ));
            batch_sums.push(batch_sum(pairs()));
            let mut totals = Totals::default();
            pairs().for_each(|(s, d)| totals.add(s, d));
            batch_totals.push(totals);
        }
        let cfg = TrafficConfig {
            seed,
            requests: ops,
            mean_interarrival_ns: CALM_GAP_NS,
            ..TrafficConfig::full()
        };
        Bulk { ops, batches, batch_sums, batch_totals, arrivals: arrival_schedule(&cfg) }
    }

    /// Totals after the first `n` pushes, computed directly.
    fn expected_totals(&self, n: usize) -> Totals {
        let mut out = Totals::default();
        for i in 0..n {
            let b = &self.batch_totals[i % POOL_BATCHES];
            out.edges += b.edges;
            out.src_sum = out.src_sum.wrapping_add(b.src_sum);
            out.dst_sum = out.dst_sum.wrapping_add(b.dst_sum);
            for (o, s) in out.shards.iter_mut().zip(b.shards) {
                *o += s;
            }
        }
        out
    }
}

fn bulk_program(state: &Arc<Mutex<Totals>>, spans: Option<Arc<Spans>>) -> Program {
    let state = Arc::clone(state);
    let accumulator = ClassDef::new("ShardAccumulator")
        .trust(Trust::Trusted)
        .method(MethodDef::native(
            CTOR,
            MethodKind::Constructor,
            0,
            vec![],
            Arc::new(|_ctx, _this, _args| Ok(Value::Unit)),
        ))
        .method(MethodDef::native(
            "add",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(move |_ctx, _this, args| {
                let _body = enter(spans.as_ref(), SpanName::AppBody);
                let Some(Value::List(flat)) = args.first() else {
                    return Err(VmError::Type("add expects an edge list".into()));
                };
                let mut pairs = Vec::with_capacity(flat.len() / 2);
                for pair in flat.chunks_exact(2) {
                    match (&pair[0], &pair[1]) {
                        (Value::Int(s), Value::Int(d)) if (0..i64::from(VERTICES)).contains(d) => {
                            pairs.push((*s as u64, *d as u64));
                        }
                        other => return Err(VmError::Type(format!("bad edge {other:?}"))),
                    }
                }
                let mut totals = state.lock().expect("accumulator lock");
                pairs.iter().for_each(|&(s, d)| totals.add(s, d));
                Ok(Value::Int(batch_sum(pairs.into_iter())))
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![accumulator, main], MethodRef::new("Main", "main"))
        .expect("the bulk-shard program is well-formed")
}

impl Workload for Bulk {
    type State = Arc<Mutex<Totals>>;
    type Baseline = ();

    fn name(&self) -> &'static str {
        "bulk-shard"
    }

    fn ops(&self) -> usize {
        self.ops
    }

    fn arrivals(&self) -> &[u64] {
        &self.arrivals
    }

    fn latency_limit_ns(&self) -> u64 {
        LATENCY_LIMIT_NS
    }

    fn input_digest(&self) -> u64 {
        let mut sum = Checksum::default();
        for batch in &self.batches {
            sum.value(batch);
        }
        self.arrivals.iter().for_each(|&a| sum.word(a));
        sum.0
    }

    fn program(&self, spans: Option<Arc<Spans>>) -> Built<Arc<Mutex<Totals>>> {
        let state = Arc::new(Mutex::new(Totals::default()));
        Built {
            program: bulk_program(&state, spans),
            entries: vec![
                MethodRef::new("ShardAccumulator", CTOR),
                MethodRef::new("ShardAccumulator", "add"),
                MethodRef::new("Main", "main"),
            ],
            state,
        }
    }

    fn open(&self, ctx: &mut Ctx<'_>) -> Result<(Value, ()), VmError> {
        Ok((ctx.new_object("ShardAccumulator", &[])?, ()))
    }

    fn request<'a>(&'a self, i: usize, _buf: &'a mut Vec<Value>) -> (&'static str, &'a [Value]) {
        ("add", std::slice::from_ref(&self.batches[i % POOL_BATCHES]))
    }

    fn expected_checksum(&self, n: usize) -> u64 {
        let mut sum = Checksum::default();
        for i in 0..n {
            sum.value(&Value::Int(self.batch_sums[i % POOL_BATCHES]));
        }
        sum.0
    }

    fn finish(
        &self,
        _ctx: &mut Ctx<'_>,
        _target: &Value,
        _baseline: &(),
        state: &Arc<Mutex<Totals>>,
        n: usize,
    ) -> Result<(), String> {
        let got = *state.lock().expect("accumulator lock");
        let expected = self.expected_totals(n);
        if got == expected {
            Ok(())
        } else {
            Err(format!("accumulator totals {got:?} differ from the direct sums {expected:?}"))
        }
    }

    fn crossings(&self, i: usize, buf: &mut Vec<Value>, reply: &Value) -> Vec<Crossing> {
        let (_, args) = self.request(i, buf);
        vec![(args.to_vec(), reply.clone())]
    }
}
