//! Monte-Carlo π estimation (the SciMark `monte_carlo` kernel).
//!
//! In SPECjvm2008 this kernel is allocation-heavy on the JVM; the paper's
//! Table 1 shows it as the one benchmark where the in-enclave native
//! image *loses* to SCONE+JVM, which it attributes to the native image's
//! weaker garbage collector. The experiment harness therefore pairs this
//! kernel with managed-heap allocation pressure; the kernel itself is a
//! deterministic LCG-driven integration.

/// A small deterministic linear congruential generator (no external
/// entropy so runs are reproducible across deployments).
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Lcg { state: seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493) }
    }

    /// Next value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// Model cost of one [`crate::Workload::MonteCarlo`] rep (`run(400_000, 20210)`), in
/// ns: the median of the `kernel_monte_carlo` row of
/// `cargo bench -p bench --bench mechanisms`, from one release run on a
/// 2-core x86-64 host. The harness charges this per rep instead of
/// timing the kernel, so modelled time never depends on the host.
pub const NS_PER_REP: u64 = 2_178_745;

/// Estimates π from `samples` dart throws.
pub fn run(samples: u64, seed: u64) -> f64 {
    let mut rng = Lcg::new(seed);
    let mut inside = 0u64;
    for _ in 0..samples {
        let x = rng.next_f64();
        let y = rng.next_f64();
        if x * x + y * y <= 1.0 {
            inside += 1;
        }
    }
    4.0 * inside as f64 / samples as f64
}

/// Working-set size in bytes (the kernel itself is cache-resident).
pub fn working_set_bytes() -> usize {
    64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_pi() {
        let pi = run(200_000, 42);
        assert!((pi - std::f64::consts::PI).abs() < 0.02, "estimate {pi}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(run(10_000, 7), run(10_000, 7));
        assert_ne!(run(10_000, 7), run(10_000, 8));
    }

    #[test]
    fn lcg_is_uniform_ish() {
        let mut rng = Lcg::new(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
