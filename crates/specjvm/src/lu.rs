//! Dense LU factorisation with partial pivoting (the SciMark `lu`
//! kernel).

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` matrix from `data` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n`.
    pub fn new(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "matrix data must be n*n");
        Matrix { n, data }
    }

    /// Deterministic well-conditioned test matrix.
    pub fn synthetic(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] =
                    if i == j { n as f64 + 1.0 } else { ((i * 7 + j * 13) % 19) as f64 * 0.1 };
            }
        }
        Matrix { n, data }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element access.
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }

    /// Matrix–vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        (0..self.n).map(|i| (0..self.n).map(|j| self.at(i, j) * x[j]).sum()).collect()
    }
}

/// LU factorisation result: combined LU matrix and pivot order.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Combined factors (unit lower triangle implicit).
    pub lu: Matrix,
    /// Row permutation.
    pub pivots: Vec<usize>,
}

/// Factorises `a` in place with partial pivoting.
///
/// Returns `None` for (numerically) singular matrices.
pub fn factor(mut a: Matrix) -> Option<LuFactors> {
    let n = a.n;
    let mut pivots: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot search.
        let (mut p, mut max) = (k, a.at(k, k).abs());
        for i in k + 1..n {
            let v = a.at(i, k).abs();
            if v > max {
                p = i;
                max = v;
            }
        }
        if max < 1e-12 {
            return None;
        }
        if p != k {
            for j in 0..n {
                let tmp = a.at(k, j);
                *a.at_mut(k, j) = a.at(p, j);
                *a.at_mut(p, j) = tmp;
            }
            pivots.swap(k, p);
        }
        let pivot = a.at(k, k);
        for i in k + 1..n {
            let factor = a.at(i, k) / pivot;
            *a.at_mut(i, k) = factor;
            for j in k + 1..n {
                *a.at_mut(i, j) -= factor * a.at(k, j);
            }
        }
    }
    Some(LuFactors { lu: a, pivots })
}

/// Solves `A x = b` given factors of `A`.
pub fn solve(f: &LuFactors, b: &[f64]) -> Vec<f64> {
    let n = f.lu.n;
    // Apply permutation.
    let mut x: Vec<f64> = f.pivots.iter().map(|&p| b[p]).collect();
    // Forward substitution (unit lower).
    for i in 1..n {
        for j in 0..i {
            x[i] -= f.lu.at(i, j) * x[j];
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        for j in i + 1..n {
            x[i] -= f.lu.at(i, j) * x[j];
        }
        x[i] /= f.lu.at(i, i);
    }
    x
}

/// Model cost of one [`crate::Workload::Lu`] rep (`run(256)`), in
/// ns: the median of the `kernel_lu` row of
/// `cargo bench -p bench --bench mechanisms`, from one release run on a
/// 2-core x86-64 host. The harness charges this per rep instead of
/// timing the kernel, so modelled time never depends on the host.
pub const NS_PER_REP: u64 = 2_448_024;

/// Benchmark kernel: factor a synthetic `n × n` matrix and solve one
/// system; returns a checksum.
pub fn run(n: usize) -> f64 {
    let a = Matrix::synthetic(n);
    let f = factor(a).expect("synthetic matrix is non-singular");
    let b: Vec<f64> = (0..n).map(|i| (i % 11) as f64).collect();
    solve(&f, &b).iter().sum()
}

/// Working-set size in bytes for an `n × n` run.
pub fn working_set_bytes(n: usize) -> usize {
    n * n * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_known_solution() {
        let n = 24;
        let a = Matrix::synthetic(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3) - 2.0).collect();
        let b = a.matvec(&x_true);
        let f = factor(a).unwrap();
        let x = solve(&f, &b);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::new(2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(factor(a).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::new(2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = factor(a).unwrap();
        let x = solve(&f, &[3.0, 5.0]);
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn run_is_deterministic() {
        assert_eq!(run(32), run(32));
    }
}
