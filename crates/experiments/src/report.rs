//! Uniform reporting for the figure/table harnesses.

use sgx_sim::cost::CostParams;

/// One labelled series of `(x, seconds)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's legends, e.g. `proxy-out→in`).
    pub label: String,
    /// `(x, y)` points; `y` in seconds.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, seconds: f64) {
        self.points.push((x, seconds));
    }

    /// Mean of the y values.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, y)| y).sum::<f64>() / self.points.len() as f64
    }
}

/// Pointwise mean ratio `a/b` over series with matching x values.
pub fn mean_ratio(a: &Series, b: &Series) -> f64 {
    let pairs: Vec<(f64, f64)> =
        a.points.iter().zip(&b.points).map(|(&(_, ya), &(_, yb))| (ya, yb)).collect();
    if pairs.is_empty() {
        return f64::NAN;
    }
    pairs.iter().map(|(ya, yb)| ya / yb).sum::<f64>() / pairs.len() as f64
}

/// Prints a figure as an aligned text table: one row per x, one column
/// per series.
pub fn print_figure(title: &str, xlabel: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    print!("{xlabel:>16}");
    for s in series {
        print!("  {:>18}", s.label);
    }
    println!();
    let xs: Vec<f64> =
        series.first().map(|s| s.points.iter().map(|p| p.0).collect()).unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>16.0}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => print!("  {:>18.6}", y),
                None => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

/// Prints a plain table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    for h in headers {
        print!("{h:>18}");
    }
    println!();
    for row in rows {
        for cell in row {
            print!("{cell:>18}");
        }
        println!();
    }
}

/// Prints the cost-model parameter set an experiment ran with.
pub fn print_params(params: &CostParams) {
    println!(
        "cost model: {:.1} GHz, transition {} cycles (~{} ns), relay {} ns, copy {:.2} ns/B, \
         serde {:.2} ns/B, MEE {:.2} ns/B (compute x{:.2} past {} MiB LLC), EPC {} MiB usable, \
         fault {} us/page",
        params.cpu_ghz,
        params.transition_cycles,
        params.transition_ns(),
        params.relay_overhead_ns,
        params.copy_ns_per_byte,
        params.serde_ns_per_byte,
        params.mee_ns_per_byte,
        params.mee_compute_factor,
        params.llc_bytes / (1024 * 1024),
        params.epc_usable_bytes / (1024 * 1024),
        params.epc_fault_ns / 1000,
    );
}

/// Experiment scale: `Full` reproduces the paper's parameter ranges;
/// `Quick` shrinks them for CI and Criterion runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Paper-size parameters.
    Full,
    /// Shrunk parameters for tests/benches.
    Quick,
}

impl Scale {
    /// Reads the scale from the first CLI argument (`--quick` selects
    /// [`Scale::Quick`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// The path after `flag` on the command line, given as `<flag> <path>`
/// or `<flag>=<path>` (e.g. `arg_value("--telemetry-out")`).
pub fn arg_value(flag: &str) -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().map(std::path::PathBuf::from);
        }
        if let Some(p) = a.strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            return Some(std::path::PathBuf::from(p));
        }
    }
    None
}

/// Exports the process-wide aggregated telemetry to `path` as versioned
/// JSON ([`telemetry::SCHEMA`]) and prints a one-line summary sourced
/// from the same snapshot, so the file and the printed report can never
/// disagree.
///
/// # Errors
///
/// Propagates filesystem errors from writing `path`.
pub fn export_telemetry(path: &std::path::Path) -> std::io::Result<()> {
    use telemetry::Counter;
    let snap = telemetry::aggregate();
    std::fs::write(path, snap.to_json())?;
    println!(
        "telemetry ({schema}): {p} — ecalls {e}, ocalls {o}, gc collections {g}, rmi calls {r}",
        schema = telemetry::SCHEMA,
        p = path.display(),
        e = snap.counter(Counter::Ecalls),
        o = snap.counter(Counter::Ocalls),
        g = snap.counter(Counter::GcCollections),
        r = snap.counter(Counter::RmiCalls),
    );
    Ok(())
}

/// Exports telemetry if `--telemetry-out` was passed; every figure/table
/// binary calls this as its last step. Export failures are reported on
/// stderr but do not fail the experiment.
pub fn maybe_export_telemetry() {
    if let Some(path) = arg_value("--telemetry-out") {
        if let Err(e) = export_telemetry(&path) {
            eprintln!("telemetry: failed to write {}: {e}", path.display());
        }
    }
}

/// Enables the process-global tracer when `--trace-out` was passed.
/// Every figure/table binary calls this before its first run, so each
/// crossing of the experiment lands in the capture
/// ([`maybe_export_trace`] writes it out at the end). Returns whether
/// tracing is on.
pub fn init_tracing_from_args() -> bool {
    if arg_value("--trace-out").is_some() {
        telemetry::trace::Tracer::global().enable();
        true
    } else {
        false
    }
}

/// Exports the captured causal trace as Chrome trace-event JSON
/// ([`telemetry::trace::TRACE_SCHEMA`]) if `--trace-out` was passed;
/// every figure/table binary calls this right after
/// [`maybe_export_telemetry`]. The aggregate `rmi.calls` counter rides
/// along in `otherData` so `montsalvat trace-report` can reconcile the
/// trace against telemetry. Export failures are reported on stderr but
/// do not fail the experiment.
pub fn maybe_export_trace() {
    let Some(path) = arg_value("--trace-out") else { return };
    let tracer = telemetry::trace::Tracer::global();
    let aggregate = telemetry::aggregate();
    let json =
        tracer.to_chrome_json(&[("rmi_calls", aggregate.counter(telemetry::Counter::RmiCalls))]);
    match std::fs::write(&path, json) {
        Ok(()) => println!(
            "trace ({schema}): {p} — {n} events, {d} dropped; load in Perfetto or run \
             `montsalvat trace-report {p}`",
            schema = telemetry::trace::TRACE_SCHEMA,
            p = path.display(),
            n = tracer.event_count(),
            d = tracer.dropped(),
        ),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_mean_and_ratio() {
        let mut a = Series::new("a");
        a.push(1.0, 2.0);
        a.push(2.0, 4.0);
        let mut b = Series::new("b");
        b.push(1.0, 1.0);
        b.push(2.0, 2.0);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(mean_ratio(&a, &b), 2.0);
    }

    #[test]
    fn empty_series_are_safe() {
        let a = Series::new("a");
        assert_eq!(a.mean(), 0.0);
        assert!(mean_ratio(&a, &a).is_nan());
        print_figure("empty", "x", &[a]);
    }
}
