//! Model time is a function of the workload and the cost table only:
//! repeating a run, or observing it with the tracer, must not move a
//! single bit of a reported number.
//!
//! This file is its own test binary because it enables the
//! process-global tracer.

use baselines::Deployment;
use experiments::report::{Scale, Series};
use specjvm::Workload;
use telemetry::trace::Tracer;

fn bits(series: &[Series]) -> Vec<(String, Vec<(u64, u64)>)> {
    series
        .iter()
        .map(|s| {
            let points = s.points.iter().map(|&(x, y)| (x.to_bits(), y.to_bits())).collect();
            (s.label.clone(), points)
        })
        .collect()
}

/// A timed kernel's cost is counted work, so two runs of the same cell
/// report the same seconds, inside and outside the JVM model.
#[test]
fn a_specjvm_cell_repeats_bit_for_bit() {
    for deployment in [Deployment::SgxNative, Deployment::SconeJvm] {
        let first = experiments::spec::run_one(Workload::Lu, deployment, Scale::Quick);
        let second = experiments::spec::run_one(Workload::Lu, deployment, Scale::Quick);
        assert_eq!(first.seconds.to_bits(), second.seconds.to_bits(), "lu under {deployment}");
    }
}

/// Tracing charges nothing: the trace context rides beside the wire
/// message, not in it.
#[test]
fn tracing_does_not_change_fig3() {
    let untraced = experiments::micro::fig3(Scale::Quick);
    let tracer = Tracer::global();
    tracer.enable();
    let traced = experiments::micro::fig3(Scale::Quick);
    let events = tracer.event_count();
    tracer.disable();
    assert!(events > 0, "the traced run recorded events");
    assert_eq!(bits(&untraced), bits(&traced));
}

/// Work done outside the enclave is charged too, so no PalDB cell —
/// NoSGX included — reads zero.
#[test]
fn every_fig7_cell_charges_its_work() {
    for series in experiments::paldb::fig7(Scale::Quick) {
        for &(keys, seconds) in &series.points {
            assert!(seconds > 0.0, "{} at {keys} keys reads {seconds} s", series.label);
        }
    }
}
