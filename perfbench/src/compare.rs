//! `montsalvat-bench compare`: judges a change against its parent from
//! `--json-out` run records, by the rule of choosing-metrics §8.
//!
//! Every record names the side it measured (`--side parent` or
//! `--side change`), and runs pair up by seed: each parent run needs
//! exactly one change run of the same seed, `--seconds` and size, and at
//! least ten pairs. The order of the arguments does not matter; take the
//! runs alternating sides, and alternate which side of a pair runs first.
//! For every workload × end-to-end and model-clock metric:
//!
//! - a model-clock metric of a classic-crossing workload is exact for a
//!   given seed, so pairs compare exactly: `regressed` when any pair is
//!   worse by more than the bound (with no noise, a worse pair is a real
//!   regression on that seed's input), `improved` when at least nine
//!   tenths of the pairs are better and none regressed, `within-bound`
//!   otherwise;
//! - anything else is `improved` only when the change wins at least nine
//!   tenths of the pairs (ties count for neither) and the medians differ
//!   by more than the parent's interquartile range; `regressed` when the
//!   change's median is worse than the parent's by more than the metric's
//!   bound; `unresolved` when the parent's own spread is wider than the
//!   bound and the runs do not separate; `within-bound` otherwise.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, Clock, Metric, END_TO_END, MODEL};
use crate::stats::{median, quartiles};

/// Fewest parent/change pairs a comparison accepts.
pub const MIN_PAIRS: usize = 10;
/// The values `--side` takes: the parent first.
pub const SIDES: [&str; 2] = ["parent", "change"];

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, beyond the run-to-run spread.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
    /// The spread is wider than the bound; no conclusion.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    /// Label as printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges `change` against `parent`: values of one metric, where
/// `parent[k]` and `change[k]` ran the same seed. `exact` says the metric
/// repeats exactly for a given seed.
pub fn judge(metric: &Metric, exact: bool, parent: &[f64], change: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let better = |a: f64, b: f64| is_better(metric, a, b);
    // Signed share by which `c` is worse than `p` (negative: better).
    let worse = |c: f64, p: f64| {
        let delta = match metric.better {
            Better::Lower => c - p,
            Better::Higher => p - c,
        };
        if p == 0.0 {
            delta.signum()
        } else {
            delta / p.abs()
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better(c, p)).count();
    let nine_tenths = pairs >= MIN_PAIRS && wins * 10 >= pairs * 9;
    if exact {
        return if parent.iter().zip(change).any(|(&p, &c)| worse(c, p) > bound) {
            Verdict::Regressed
        } else if nine_tenths {
            Verdict::Improved
        } else {
            Verdict::WithinBound
        };
    }
    let (p, c) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let iqr = q3 - q1;
    if nine_tenths && better(c, p) && (c - p).abs() > iqr {
        return Verdict::Improved;
    }
    let all =
        |side: &[f64], other: &[f64]| side.iter().all(|&x| other.iter().all(|&y| better(x, y)));
    let separated = all(change, parent) || all(parent, change);
    let spread = if p == 0.0 { 0.0 } else { iqr / p.abs() };
    if spread > bound && !separated {
        Verdict::Unresolved
    } else if worse(c, p) > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// A parent run and the change run of the same seed.
#[derive(Debug)]
pub struct Pair {
    /// The seed both ran.
    pub seed: String,
    /// The parent's run record.
    pub parent: Json,
    /// The change's run record.
    pub change: Json,
}

/// Pairs labelled run records by seed, in seed order. `runs` holds each
/// record with the name it is reported under.
///
/// # Errors
///
/// Refuses a record without a side or seed, a seed run twice on one side
/// or on one side only, records of different `--seconds` or size, and
/// fewer than [`MIN_PAIRS`] pairs.
pub fn pair_up(runs: Vec<(String, Json)>) -> Result<Vec<Pair>, String> {
    let shape = |doc: &Json| {
        let field = |k: &str| doc.get(k).map(Json::to_line).unwrap_or_default();
        (field("seconds"), field("size"))
    };
    let first_shape = runs.first().map(|(_, doc)| shape(doc));
    let mut sides: [BTreeMap<String, Json>; 2] = Default::default();
    for (name, doc) in runs {
        let side = doc.get("side").and_then(Json::as_str).ok_or_else(|| {
            format!("{name} names no side; take each run with --side parent or --side change")
        })?;
        let index = SIDES
            .iter()
            .position(|s| *s == side)
            .ok_or_else(|| format!("{name} has unknown side `{side}`"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{name} has no seed"))?
            .to_owned();
        if Some(shape(&doc)) != first_shape {
            return Err(format!("{name} ran another --seconds or size than the first record"));
        }
        if sides[index].contains_key(&seed) {
            return Err(format!("seed {seed} appears twice on the {} side", SIDES[index]));
        }
        sides[index].insert(seed, doc);
    }
    let [parents, mut changes] = sides;
    if let Some(seed) = changes.keys().find(|seed| !parents.contains_key(*seed)) {
        return Err(format!("seed {seed} has a change run but no parent run"));
    }
    let pairs = parents
        .into_iter()
        .map(|(seed, parent)| match changes.remove(&seed) {
            Some(change) => Ok(Pair { seed, parent, change }),
            None => Err(format!("seed {seed} has a parent run but no change run")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    if pairs.len() < MIN_PAIRS {
        return Err(format!("{} pairs; a comparison needs at least {MIN_PAIRS}", pairs.len()));
    }
    Ok(pairs)
}

/// The value of `metric` for `workload` in one run record.
fn value_of(run: &Json, workload: &str, metric: &str) -> Option<f64> {
    run.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Whether `workload`'s model clock is exact per seed in `run`: it is
/// whenever its crossings were classic.
fn model_exact(run: &Json, workload: &str) -> bool {
    run.get("workloads")
        .and_then(|w| w.get(workload)?.get("config")?.get("engine")?.as_str())
        .is_some_and(|engine| engine == "classic")
}

/// Entry point: returns the process exit code (0 no regression, 1 a
/// regression, 2 unusable input).
pub fn main(paths: &[String]) -> i32 {
    let mut runs = Vec::with_capacity(paths.len());
    for path in paths {
        match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|t| Json::parse(&t))
        {
            Ok(doc) => runs.push((path.clone(), doc)),
            Err(e) => {
                eprintln!("compare: cannot read run record {path}: {e}");
                return 2;
            }
        }
    }
    let pairs = match pair_up(runs) {
        Ok(pairs) => pairs,
        Err(e) => {
            eprintln!(
                "compare: {e}\nusage: montsalvat-bench compare <run-record> … — --json-out \
                 records taken with --side, at least {MIN_PAIRS} seeds run on both sides"
            );
            return 2;
        }
    };
    let workloads: Vec<String> = pairs[0]
        .parent
        .get("workloads")
        .and_then(Json::as_obj)
        .map(|w| w.iter().map(|(name, _)| name.clone()).collect())
        .unwrap_or_default();
    if workloads.is_empty() {
        eprintln!("compare: the parent run of seed {} holds no workload results", pairs[0].seed);
        return 2;
    }
    let n = pairs.len();
    println!("compare: {n} parent/change pairs, seeds matched");
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "parent median", "change median", "spread", "wins"
    );
    let mut regressed = false;
    for workload in &workloads {
        let exact = pairs
            .iter()
            .all(|p| model_exact(&p.parent, workload) && model_exact(&p.change, workload));
        for metric in END_TO_END.iter().chain(&MODEL) {
            let side = |pick: fn(&Pair) -> &Json| -> Option<Vec<f64>> {
                pairs.iter().map(|p| value_of(pick(p), workload, metric.name)).collect()
            };
            let (Some(parent), Some(change)) = (side(|p| &p.parent), side(|p| &p.change)) else {
                println!("{workload:<14} {:<20} missing from some runs", metric.name);
                continue;
            };
            let verdict = judge(metric, exact && metric.clock == Clock::Model, &parent, &change);
            regressed |= verdict == Verdict::Regressed;
            let (q1, q3) = quartiles(&parent);
            let p = median(&parent);
            let wins =
                parent.iter().zip(&change).filter(|&(&p, &c)| is_better(metric, c, p)).count();
            println!(
                "{workload:<14} {:<20} {:>14.6} {:>14.6} {:>8.2}% {:>3}/{n}  {}",
                metric.name,
                p,
                median(&change),
                if p == 0.0 { 0.0 } else { (q3 - q1) / p.abs() * 100.0 },
                wins,
                verdict.label()
            );
        }
    }
    i32::from(regressed)
}

/// Whether `a` reads better than `b` for `metric`.
fn is_better(metric: &Metric, a: f64, b: f64) -> bool {
    match metric.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn metric(name: &str) -> &'static Metric {
        find(name).expect("catalogued")
    }

    #[test]
    fn host_metric_needs_nine_tenths_and_a_gap_beyond_the_spread() {
        let ops = metric("host_ops_per_s");
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(judge(ops, false, &parent, &change), Verdict::Improved);
        let mut eight_wins = change.clone();
        eight_wins[0] = 50.0;
        eight_wins[1] = 50.0;
        assert_ne!(judge(ops, false, &parent, &eight_wins), Verdict::Improved);
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.7).collect();
        assert_eq!(judge(ops, false, &parent, &slower), Verdict::Regressed);
        let same: Vec<f64> = parent.iter().map(|p| p * 0.99).collect();
        assert_eq!(judge(ops, false, &parent, &same), Verdict::WithinBound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let ops = metric("host_ops_per_s");
        let parent = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0];
        let change = [70.0, 130.0, 60.0, 140.0, 90.0, 110.0, 80.0, 120.0, 95.0, 105.0];
        assert_eq!(judge(ops, false, &parent, &change), Verdict::Unresolved);
    }

    #[test]
    fn exact_model_metrics_compare_seed_against_seed() {
        let p999 = metric("model_p999_us");
        // Seed-to-seed spread far wider than the 0.1% bound.
        let parent: Vec<f64> = (0..10).map(|i| 1000.0 + 50.0 * f64::from(i)).collect();
        assert_eq!(judge(p999, true, &parent, &parent), Verdict::WithinBound);
        let worse: Vec<f64> = parent.iter().map(|p| p * 1.14).collect();
        assert_eq!(judge(p999, true, &parent, &worse), Verdict::Regressed);
        let one_seed_worse: Vec<f64> =
            parent.iter().enumerate().map(|(i, p)| if i == 3 { p * 1.01 } else { *p }).collect();
        assert_eq!(judge(p999, true, &parent, &one_seed_worse), Verdict::Regressed);
        let better: Vec<f64> = parent.iter().map(|p| p * 0.999).collect();
        assert_eq!(judge(p999, true, &parent, &better), Verdict::Improved);
        let tiny: Vec<f64> = parent.iter().map(|p| p * 1.0005).collect();
        assert_eq!(judge(p999, true, &parent, &tiny), Verdict::WithinBound);
    }

    fn run(side: Option<&str>, seed: u64, model_s: f64) -> Json {
        let metrics = Json::obj().with("model_s", Json::obj().with("value", model_s));
        let workload = Json::obj()
            .with("config", Json::obj().with("engine", "classic"))
            .with("metrics", metrics);
        let mut doc = Json::obj().with("seed", seed.to_string());
        if let Some(side) = side {
            doc.push("side", side);
        }
        doc.with("seconds", 12u64)
            .with("size", "full")
            .with("workloads", Json::obj().with("kv-classic", workload))
    }

    fn model_s(doc: &Json) -> f64 {
        value_of(doc, "kv-classic", "model_s").expect("model_s recorded")
    }

    #[test]
    fn runs_pair_by_seed_and_side_whatever_their_order() {
        // Taken order p1 c1 c2 p2 p3 c3 …: positions alternate sides only
        // every other pair.
        let mut runs = Vec::new();
        for seed in 1..=10u64 {
            let (p, c) = (run(Some("parent"), seed, seed as f64), run(Some("change"), seed, 0.5));
            if seed % 2 == 0 {
                runs.push((format!("c{seed}"), c));
                runs.push((format!("p{seed}"), p));
            } else {
                runs.push((format!("p{seed}"), p));
                runs.push((format!("c{seed}"), c));
            }
        }
        let pairs = pair_up(runs).expect("ten labelled pairs");
        assert_eq!(pairs.len(), 10);
        for pair in &pairs {
            assert_eq!(model_s(&pair.parent).to_string(), pair.seed);
            assert_eq!(model_s(&pair.change), 0.5);
            assert!(model_exact(&pair.parent, "kv-classic"));
        }
    }

    #[test]
    fn unlabelled_unbalanced_or_mismatched_runs_are_refused() {
        let pairs_of = |seeds: std::ops::RangeInclusive<u64>| -> Vec<(String, Json)> {
            seeds
                .flat_map(|s| {
                    [
                        (format!("p{s}"), run(Some("parent"), s, 1.0)),
                        (format!("c{s}"), run(Some("change"), s, 1.0)),
                    ]
                })
                .collect()
        };
        assert!(pair_up(pairs_of(1..=10)).is_ok());
        assert!(pair_up(pairs_of(1..=9)).unwrap_err().contains("at least"));

        let mut unlabelled = pairs_of(1..=10);
        unlabelled[4].1 = run(None, 3, 1.0);
        assert!(pair_up(unlabelled).unwrap_err().contains("names no side"));

        let mut twice = pairs_of(1..=10);
        twice[1].1 = run(Some("parent"), 1, 1.0);
        assert!(pair_up(twice).unwrap_err().contains("twice"));

        let mut other_seed = pairs_of(1..=10);
        other_seed[3].1 = run(Some("change"), 99, 1.0);
        assert!(pair_up(other_seed).unwrap_err().contains("seed"));

        let mut other_size = pairs_of(1..=10);
        other_size[5].1 = Json::obj()
            .with("seed", "3")
            .with("side", "change")
            .with("seconds", 30u64)
            .with("size", "full");
        assert!(pair_up(other_size).unwrap_err().contains("--seconds"));
    }
}
