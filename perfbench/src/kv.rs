//! `kv-classic` / `kv-switchless`: a trusted key-value service driven by
//! the traffic harness's seeded schedule (`experiments::traffic`).
//!
//! Keys are zipf 1.1 over 8192 keys, so hot keys share work; the mix is
//! 80/20 get/put with 96-byte values and ×8 burst waves. Every put makes
//! one nested ocall to an untrusted `AuditLog.append` proxy the service
//! creates once in its constructor. The two workloads run the identical
//! program and schedule and differ only in how crossings are carried, so
//! a change to the switchless engine shows on one and must not move the
//! other.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use experiments::traffic::{self, OpKind, RequestOp, TrafficConfig};
use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::ctx::Ctx;
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::{Trust, VmError};
use runtime_sim::value::Value;

use crate::probe::Crossing;
use crate::spans::{enter, SpanName, Spans};
use crate::workload::{Built, Checksum, Workload};

/// Modelled compute of the service bodies (the traffic harness's).
const GET_SERVICE_NS: u64 = 1_500;
const PUT_SERVICE_NS: u64 = 2_500;
/// p99.9 latency limit of the capacity search.
const LATENCY_LIMIT_NS: u64 = 1_000_000;

/// Host-side state the service bodies share.
#[derive(Default)]
pub struct KvState {
    store: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
    /// Entries appended to the audit log, and their running hash.
    audit: Mutex<(u64, Checksum)>,
}

/// The KV workload over one seeded schedule.
pub struct Kv {
    switchless: bool,
    value_bytes: usize,
    schedule: Vec<RequestOp>,
    arrivals: Vec<u64>,
    keys: Vec<Vec<u8>>,
    expected: Reference,
}

/// What a replay of a schedule prefix on a `BTreeMap` predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    checksum: u64,
    distinct_keys: usize,
    puts: u64,
    audit: Checksum,
}

impl Kv {
    /// The schedule of `ops` requests generated from `seed`; `switchless`
    /// routes crossings through the default switchless engine.
    pub fn new(seed: u64, ops: usize, switchless: bool) -> Kv {
        let cfg = TrafficConfig { seed, requests: ops, ..TrafficConfig::full() };
        let schedule = traffic::op_schedule(&cfg);
        let arrivals = schedule.iter().map(|op| op.arrival_ns).collect();
        let keys: Vec<Vec<u8>> = (0..cfg.key_space).map(traffic::key_bytes).collect();
        let expected = reference(&schedule, &keys, cfg.value_bytes);
        Kv { switchless, value_bytes: cfg.value_bytes, schedule, arrivals, keys, expected }
    }

    /// The reference for the first `n` requests.
    fn expected(&self, n: usize) -> Reference {
        if n == self.schedule.len() {
            self.expected
        } else {
            reference(&self.schedule[..n], &self.keys, self.value_bytes)
        }
    }
}

/// The value request `i` writes to `key`: its request index and key up
/// front, so a get that returns a stale or foreign value fails the check.
fn value(value_bytes: usize, i: usize, key: usize) -> Vec<u8> {
    let mut v: Vec<u8> = (0..value_bytes).map(|j| ((i * 31 + key * 17 + j) % 251) as u8).collect();
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    v[8..16].copy_from_slice(&(key as u64).to_le_bytes());
    v
}

/// Replays `schedule` on a plain `BTreeMap`.
fn reference(schedule: &[RequestOp], keys: &[Vec<u8>], value_bytes: usize) -> Reference {
    let mut map: BTreeMap<usize, usize> = BTreeMap::new();
    let mut sum = Checksum::default();
    let mut audit = Checksum::default();
    let mut puts = 0u64;
    for (i, op) in schedule.iter().enumerate() {
        match op.kind {
            OpKind::Get(key) => match map.get(&key) {
                Some(&writer) => sum.value(&Value::Bytes(value(value_bytes, writer, key))),
                None => sum.value(&Value::Int(-1)),
            },
            OpKind::Put(key) => {
                map.insert(key, i);
                puts += 1;
                audit.bytes(&keys[key]);
                audit.word(value_bytes as u64);
                sum.value(&Value::Int(puts as i64));
            }
        }
    }
    Reference { checksum: sum.0, distinct_keys: map.len(), puts, audit }
}

fn bytes_arg(args: &[Value], i: usize) -> Result<&[u8], VmError> {
    match args.get(i) {
        Some(Value::Bytes(b)) => Ok(b),
        other => Err(VmError::Type(format!("argument {i} must be bytes, got {other:?}"))),
    }
}

fn this_ref(this: Option<runtime_sim::value::ObjId>) -> Result<Value, VmError> {
    this.map(Value::Ref).ok_or_else(|| VmError::Type("instance method without a receiver".into()))
}

/// The annotated program: a trusted `KvService` with an untrusted
/// `AuditLog` it calls back into on every put.
fn kv_program(state: &Arc<KvState>, spans: Option<Arc<Spans>>) -> Program {
    let (get_state, put_state, audit_state) =
        (Arc::clone(state), Arc::clone(state), Arc::clone(state));
    let (get_spans, put_spans, audit_spans) = (spans.clone(), spans.clone(), spans);
    let service = ClassDef::new("KvService")
        .trust(Trust::Trusted)
        .field("log")
        .method(MethodDef::native(
            CTOR,
            MethodKind::Constructor,
            0,
            vec![MethodRef::new("AuditLog", CTOR)],
            Arc::new(|ctx, this, _args| {
                let log = ctx.new_object("AuditLog", &[])?;
                ctx.set_field(&this_ref(this)?, "log", log)?;
                Ok(Value::Unit)
            }),
        ))
        .method(MethodDef::native(
            "get",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(move |ctx, _this, args| {
                let _body = enter(get_spans.as_ref(), SpanName::AppBody);
                let key = bytes_arg(args, 0)?;
                ctx.charge_compute_ns(GET_SERVICE_NS);
                let store = get_state.store.lock().expect("kv store lock");
                Ok(store.get(key).map_or(Value::Int(-1), |v| Value::Bytes(v.clone())))
            }),
        ))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            2,
            vec![MethodRef::new("AuditLog", "append")],
            Arc::new(move |ctx, this, args| {
                let _body = enter(put_spans.as_ref(), SpanName::AppBody);
                let key = bytes_arg(args, 0)?.to_vec();
                let value = bytes_arg(args, 1)?.to_vec();
                let len = value.len() as i64;
                ctx.charge_compute_ns(PUT_SERVICE_NS + value.len() as u64 / 8);
                put_state.store.lock().expect("kv store lock").insert(key.clone(), value);
                let log = ctx.get_field(&this_ref(this)?, "log")?;
                let _call = enter(put_spans.as_ref(), SpanName::ExecCall);
                ctx.call(&log, "append", &[Value::Bytes(key), Value::Int(len)])
            }),
        ));
    let audit_log = ClassDef::new("AuditLog")
        .trust(Trust::Untrusted)
        .method(MethodDef::native(
            CTOR,
            MethodKind::Constructor,
            0,
            vec![],
            Arc::new(|_ctx, _this, _args| Ok(Value::Unit)),
        ))
        .method(MethodDef::native(
            "append",
            MethodKind::Instance,
            2,
            vec![],
            Arc::new(move |_ctx, _this, args| {
                let _body = enter(audit_spans.as_ref(), SpanName::AppBody);
                let key = bytes_arg(args, 0)?;
                let len = args.get(1).and_then(Value::as_int).unwrap_or(-1);
                let mut audit = audit_state.audit.lock().expect("audit log lock");
                audit.0 += 1;
                audit.1.bytes(key);
                audit.1.word(len as u64);
                Ok(Value::Int(audit.0 as i64))
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![service, audit_log, main], MethodRef::new("Main", "main"))
        .expect("the kv program is well-formed")
}

impl Workload for Kv {
    type State = Arc<KvState>;
    type Baseline = ();

    fn name(&self) -> &'static str {
        if self.switchless {
            "kv-switchless"
        } else {
            "kv-classic"
        }
    }

    fn ops(&self) -> usize {
        self.schedule.len()
    }

    fn arrivals(&self) -> &[u64] {
        &self.arrivals
    }

    fn latency_limit_ns(&self) -> u64 {
        LATENCY_LIMIT_NS
    }

    fn input_digest(&self) -> u64 {
        let mut sum = Checksum::default();
        for op in &self.schedule {
            sum.word(op.arrival_ns);
            sum.word(match op.kind {
                OpKind::Get(k) => k as u64,
                OpKind::Put(k) => (1 << 63) | k as u64,
            });
        }
        sum.0
    }

    fn switchless(&self) -> Option<SwitchlessConfig> {
        self.switchless.then(SwitchlessConfig::default)
    }

    fn program(&self, spans: Option<Arc<Spans>>) -> Built<Arc<KvState>> {
        let state = Arc::new(KvState::default());
        Built {
            program: kv_program(&state, spans),
            entries: vec![
                MethodRef::new("KvService", CTOR),
                MethodRef::new("KvService", "get"),
                MethodRef::new("KvService", "put"),
                MethodRef::new("AuditLog", CTOR),
                MethodRef::new("AuditLog", "append"),
                MethodRef::new("Main", "main"),
            ],
            state,
        }
    }

    fn open(&self, ctx: &mut Ctx<'_>) -> Result<(Value, ()), VmError> {
        Ok((ctx.new_object("KvService", &[])?, ()))
    }

    fn request<'a>(&'a self, i: usize, buf: &'a mut Vec<Value>) -> (&'static str, &'a [Value]) {
        buf.clear();
        let method = match self.schedule[i].kind {
            OpKind::Get(key) => {
                buf.push(Value::Bytes(self.keys[key].clone()));
                "get"
            }
            OpKind::Put(key) => {
                buf.push(Value::Bytes(self.keys[key].clone()));
                buf.push(Value::Bytes(value(self.value_bytes, i, key)));
                "put"
            }
        };
        (method, buf)
    }

    fn expected_checksum(&self, n: usize) -> u64 {
        self.expected(n).checksum
    }

    fn finish(
        &self,
        _ctx: &mut Ctx<'_>,
        _target: &Value,
        _baseline: &(),
        state: &Arc<KvState>,
        n: usize,
    ) -> Result<(), String> {
        let expected = self.expected(n);
        let keys = state.store.lock().expect("kv store lock").len();
        let (appended, audit) = *state.audit.lock().expect("audit log lock");
        if keys != expected.distinct_keys {
            return Err(format!("store holds {keys} keys, reference {}", expected.distinct_keys));
        }
        if appended != expected.puts || audit != expected.audit {
            return Err(format!(
                "audit log holds {appended} entries (hash {:#x}), reference {} (hash {:#x})",
                audit.0, expected.puts, expected.audit.0
            ));
        }
        Ok(())
    }

    fn crossings(&self, i: usize, buf: &mut Vec<Value>, reply: &Value) -> Vec<Crossing> {
        let (method, args) = self.request(i, buf);
        let mut out = vec![(args.to_vec(), reply.clone())];
        if method == "put" {
            // The nested AuditLog.append ocall: key and length in, the
            // entry count back.
            out.push((vec![args[0].clone(), Value::Int(self.value_bytes as i64)], Value::Int(0)));
        }
        out
    }
}
