//! Jacobi successive over-relaxation (the SciMark `sor` kernel).

/// Model cost of one [`crate::Workload::Sor`] rep (`run(128, 60, 1.25)`), in
/// ns: the median of the `kernel_sor` row of
/// `cargo bench -p bench --bench mechanisms`, from one release run on a
/// 2-core x86-64 host. The harness charges this per rep instead of
/// timing the kernel, so modelled time never depends on the host.
pub const NS_PER_REP: u64 = 7_402_823;

/// Runs `iterations` of SOR with factor `omega` on an `n × n` grid and
/// returns the final centre value (a stable checksum).
pub fn run(n: usize, iterations: u32, omega: f64) -> f64 {
    let n = n.max(3);
    let mut grid = vec![0.0f64; n * n];
    // Boundary condition: hot top edge.
    grid[..n].fill(1.0);
    let omega_over_four = omega * 0.25;
    let one_minus_omega = 1.0 - omega;
    for _ in 0..iterations {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let idx = i * n + j;
                let neighbours = grid[idx - n] + grid[idx + n] + grid[idx - 1] + grid[idx + 1];
                grid[idx] = omega_over_four * neighbours + one_minus_omega * grid[idx];
            }
        }
    }
    grid[(n / 2) * n + n / 2]
}

/// Residual of the relaxation: max interior update magnitude after one
/// more sweep (used by tests to check convergence).
pub fn residual(n: usize, iterations: u32, omega: f64) -> f64 {
    let a = run(n, iterations, omega);
    let b = run(n, iterations + 1, omega);
    (a - b).abs()
}

/// Working-set size in bytes for an `n × n` run.
pub fn working_set_bytes(n: usize) -> usize {
    n * n * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_diffuses_from_the_hot_edge() {
        let v = run(32, 200, 1.25);
        assert!(v > 0.0 && v < 1.0, "centre value {v} must be between boundaries");
    }

    #[test]
    fn iteration_converges() {
        let early = residual(24, 10, 1.25);
        let late = residual(24, 400, 1.25);
        assert!(late < early, "residual must shrink: early {early}, late {late}");
        assert!(late < 1e-6);
    }

    #[test]
    fn more_relaxation_converges_faster() {
        // Near-optimal omega converges faster than plain Jacobi.
        let jacobi = residual(24, 50, 1.0);
        let sor = residual(24, 50, 1.5);
        assert!(sor < jacobi);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(16, 20, 1.25), run(16, 20, 1.25));
    }
}
