//! Order statistics shared by the trial loop and `compare`.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so `compare` and an external check read the same spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => (0.0, 0.0),
        1 => (sorted[0], sorted[0]),
        len => {
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Nearest-rank quantile of an unsorted sample (the definition the
/// repository's telemetry and traffic harness use), reordering `values`
/// in place. 0 when empty.
pub fn nearest_rank(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let rank = telemetry::nearest_rank(values.len() as u64, q) as usize;
    *values.select_nth_unstable(rank - 1).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_and_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(nearest_rank(&mut v, 0.5), 500);
        assert_eq!(nearest_rank(&mut v, 0.999), 999);
    }
}
