//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer —
//! never inside the program. Every request runs as one synchronous call
//! chain (one caller thread; a switchless serve or a nested crossing
//! only hands the chain to another thread while the caller waits), so a
//! single open-span stack behind one mutex gives every span its exact
//! parent even when a service body runs on an executor thread.
//!
//! Completed spans are folded into per-name totals and self times at op
//! boundaries, so memory stays bounded however long the trial is; the
//! first [`KEEP`] spans are kept verbatim for the Chrome trace export.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// Spans kept verbatim for `--trace-out`.
const KEEP: usize = 65_536;

/// What a span measures. The prefix before the first `.` names the
/// layer the span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// `montsalvat_core::transform` on the workload program.
    SetupTransform,
    /// `build_partitioned_images`.
    SetupImageBuild,
    /// `PartitionedApp::launch`.
    SetupLaunch,
    /// One request, from building its arguments to checking its reply.
    Op,
    /// One `Ctx::call` — the program's whole proxy call/relay path.
    ExecCall,
    /// A service body of the benchmark's own program.
    AppBody,
    /// Encoding the op's crossing payloads on a probe heap.
    ProbeRmiEncode,
    /// Decoding them again.
    ProbeRmiDecode,
    /// Empty ecalls on a probe enclave.
    ProbeSgxTransition,
}

impl SpanName {
    /// Every span name, in report order.
    pub const ALL: [SpanName; 9] = [
        SpanName::SetupTransform,
        SpanName::SetupImageBuild,
        SpanName::SetupLaunch,
        SpanName::Op,
        SpanName::ExecCall,
        SpanName::AppBody,
        SpanName::ProbeRmiEncode,
        SpanName::ProbeRmiDecode,
        SpanName::ProbeSgxTransition,
    ];

    /// The span's name in the trace.
    pub const fn label(self) -> &'static str {
        match self {
            SpanName::SetupTransform => "setup.transform",
            SpanName::SetupImageBuild => "setup.image_build",
            SpanName::SetupLaunch => "setup.launch",
            SpanName::Op => "op",
            SpanName::ExecCall => "exec.call",
            SpanName::AppBody => "app.body",
            SpanName::ProbeRmiEncode => "probe.rmi.encode",
            SpanName::ProbeRmiDecode => "probe.rmi.decode",
            SpanName::ProbeSgxTransition => "probe.sgx.transition",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    id: u64,
    parent: u64,
    op: u64,
    name: SpanName,
    start_ns: u64,
    dur_ns: u64,
}

/// Folded totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, wall ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), wall ns.
    pub self_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    /// Open spans, innermost last: `(id, name)`.
    stack: Vec<(u64, SpanName)>,
    /// Id of the open `op` span (0 outside a request).
    op: u64,
    /// Spans completed since the last fold; all ids `>= fold_base`.
    chunk: Vec<Rec>,
    fold_base: u64,
    kept: Vec<Rec>,
    totals: [Totals; SpanName::ALL.len()],
}

/// The in-memory span sink of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    inner: Mutex<Inner>,
}

/// An open span; ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    id: u64,
    parent: u64,
    op: u64,
    name: SpanName,
    start_ns: u64,
}

impl Spans {
    /// An empty recorder; span timestamps count from now.
    pub fn new() -> Arc<Spans> {
        Arc::new(Spans {
            origin: Instant::now(),
            inner: Mutex::new(Inner { next_id: 1, fold_base: 1, ..Inner::default() }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a span recorder user panicked")
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&self, name: SpanName) -> SpanGuard<'_> {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let parent = inner.stack.last().map_or(0, |&(p, _)| p);
        inner.stack.push((id, name));
        if name == SpanName::Op {
            inner.op = id;
        }
        let op = inner.op;
        drop(inner);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        SpanGuard { spans: self, id, parent, op, name, start_ns }
    }

    /// Folds completed spans into the per-name totals. Call only between
    /// requests, when no span is open.
    pub fn fold(&self) {
        let mut inner = self.lock();
        debug_assert!(inner.stack.is_empty(), "fold with open spans");
        let base = inner.fold_base;
        let mut child_ns = vec![0u64; (inner.next_id - base) as usize];
        for rec in &inner.chunk {
            if rec.parent >= base {
                child_ns[(rec.parent - base) as usize] += rec.dur_ns;
            }
        }
        let chunk = std::mem::take(&mut inner.chunk);
        for rec in &chunk {
            let totals = &mut inner.totals[rec.name.index()];
            totals.count += 1;
            totals.total_ns += rec.dur_ns;
            totals.self_ns += rec.dur_ns.saturating_sub(child_ns[(rec.id - base) as usize]);
        }
        let room = KEEP.saturating_sub(inner.kept.len());
        inner.kept.extend(chunk.into_iter().take(room));
        inner.fold_base = inner.next_id;
    }

    /// Folded totals of `name`.
    pub fn totals(&self, name: SpanName) -> Totals {
        self.lock().totals[name.index()]
    }

    /// Chrome trace-event JSON of the kept spans, with the per-name
    /// totals and self times in `otherData`.
    pub fn to_chrome_json(&self, other: Json) -> String {
        self.fold();
        let inner = self.lock();
        let events = inner
            .kept
            .iter()
            .map(|rec| {
                Json::obj()
                    .with("name", rec.name.label())
                    .with("cat", rec.name.label().split('.').next().unwrap_or("bench"))
                    .with("ph", "X")
                    .with("ts", rec.start_ns as f64 / 1e3)
                    .with("dur", rec.dur_ns as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with(
                        "args",
                        Json::obj()
                            .with("id", rec.id)
                            .with("parent", rec.parent)
                            .with("op", rec.op),
                    )
            })
            .collect();
        let mut self_times = Json::obj();
        for name in SpanName::ALL {
            let t = inner.totals[name.index()];
            self_times.push(
                name.label(),
                Json::obj()
                    .with("count", t.count)
                    .with("total_ns", t.total_ns)
                    .with("self_ns", t.self_ns),
            );
        }
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", "ns")
            .with("otherData", other.with("span_totals", self_times))
            .to_line()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.spans.origin.elapsed().as_nanos() as u64;
        // A poisoned recorder only loses this span; panicking in drop
        // could abort the process.
        let Ok(mut inner) = self.spans.inner.lock() else { return };
        if let Some(pos) = inner.stack.iter().rposition(|&(id, _)| id == self.id) {
            inner.stack.truncate(pos);
        }
        if self.name == SpanName::Op {
            inner.op = 0;
        }
        inner.chunk.push(Rec {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
        });
    }
}

/// Opens `name` on `spans` when the run is traced; a no-op otherwise.
pub fn enter(spans: Option<&Arc<Spans>>, name: SpanName) -> Option<SpanGuard<'_>> {
    spans.map(|s| s.begin(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_across_folds() {
        let spans = Spans::new();
        for _ in 0..3 {
            {
                let _op = spans.begin(SpanName::Op);
                let _call = spans.begin(SpanName::ExecCall);
                let _body = spans.begin(SpanName::AppBody);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            spans.fold();
        }
        let call = spans.totals(SpanName::ExecCall);
        let body = spans.totals(SpanName::AppBody);
        assert_eq!((call.count, body.count), (3, 3));
        assert_eq!(body.self_ns, body.total_ns, "a leaf's self time is its duration");
        assert_eq!(call.self_ns, call.total_ns - body.total_ns);
        let op = spans.totals(SpanName::Op);
        assert_eq!(op.self_ns, op.total_ns - call.total_ns);
    }

    #[test]
    fn chrome_export_lists_kept_spans() {
        let spans = Spans::new();
        {
            let _op = spans.begin(SpanName::Op);
        }
        let doc = Json::parse(&spans.to_chrome_json(Json::obj())).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("op"));
    }
}
