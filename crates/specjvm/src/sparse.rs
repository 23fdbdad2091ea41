//! Sparse matrix–vector multiplication in CSR form (the SciMark
//! `sparse` kernel).

/// A sparse matrix in compressed-sparse-row form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triples.
    ///
    /// Duplicate coordinates are summed; out-of-range coordinates are
    /// ignored.
    pub fn from_triples(rows: usize, cols: usize, triples: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triples {
            if r < rows && c < cols {
                per_row[r].push((c, v));
            }
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(c, _)| c);
            let mut last: Option<usize> = None;
            for &(c, v) in row.iter() {
                if last == Some(c) {
                    *values.last_mut().expect("entry exists") += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                    last = Some(c);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Deterministic synthetic sparse matrix with ~`nnz_per_row`
    /// entries per row.
    pub fn synthetic(n: usize, nnz_per_row: usize) -> Self {
        let mut triples = Vec::with_capacity(n * nnz_per_row);
        for i in 0..n {
            for k in 0..nnz_per_row {
                let j = (i * 31 + k * 97 + 7) % n;
                triples.push((i, j, 1.0 + ((i + k) % 13) as f64 * 0.1));
            }
        }
        Self::from_triples(n, n, &triples)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Sparse matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
        y
    }

    /// Dense reference product (for testing).
    pub fn matvec_dense_reference(&self, x: &[f64]) -> Vec<f64> {
        let mut dense = vec![0.0; self.rows * self.cols];
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                dense[i * self.cols + self.col_idx[k]] += self.values[k];
            }
        }
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| dense[i * self.cols + j] * x[j]).sum())
            .collect()
    }
}

/// Model cost of one [`crate::Workload::Sparse`] rep (`run(4096, 6, 40)`), in
/// ns: the median of the `kernel_sparse` row of
/// `cargo bench -p bench --bench mechanisms`, from one release run on a
/// 2-core x86-64 host. The harness charges this per rep instead of
/// timing the kernel, so modelled time never depends on the host.
pub const NS_PER_REP: u64 = 2_265_400;

/// Benchmark kernel: `iterations` repeated mat-vec products on a
/// synthetic matrix; returns a checksum.
pub fn run(n: usize, nnz_per_row: usize, iterations: u32) -> f64 {
    let m = CsrMatrix::synthetic(n, nnz_per_row);
    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    for _ in 0..iterations {
        let y = m.matvec(&x);
        let norm = y.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1e-30);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    x.iter().sum()
}

/// Working-set size in bytes for an `n`/`nnz_per_row` run.
pub fn working_set_bytes(n: usize, nnz_per_row: usize) -> usize {
    n * nnz_per_row * 16 + n * 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_dense_reference() {
        let m = CsrMatrix::synthetic(50, 5);
        let x: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        let sparse = m.matvec(&x);
        let dense = m.matvec_dense_reference(&x);
        for (a, b) in sparse.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triples(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 4.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn out_of_range_triples_are_ignored() {
        let m = CsrMatrix::from_triples(2, 2, &[(5, 0, 1.0), (0, 9, 1.0), (1, 0, 2.0)]);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        CsrMatrix::synthetic(4, 2).matvec(&[1.0; 3]);
    }

    #[test]
    fn power_iteration_is_stable() {
        let a = run(64, 4, 10);
        let b = run(64, 4, 10);
        assert_eq!(a, b);
        assert!(a.is_finite());
    }
}
