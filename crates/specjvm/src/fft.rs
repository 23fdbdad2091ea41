//! Radix-2 complex FFT (the SPECjvm2008 / SciMark `fft` kernel).

use std::f64::consts::PI;

/// A complex number as a `(re, im)` pair.
pub type Complex = (f64, f64);

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft(data: &mut [Complex]) {
    transform(data, -1.0);
}

/// Inverse FFT (unscaled output is divided by `n`).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    transform(data, 1.0);
    let n = data.len() as f64;
    for c in data.iter_mut() {
        c.0 /= n;
        c.1 /= n;
    }
}

fn transform(data: &mut [Complex], sign: f64) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft length must be a power of two, got {n}");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let (w_re, w_im) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cur_re, mut cur_im) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (a_re, a_im) = data[start + k];
                let (b_re, b_im) = data[start + k + len / 2];
                let t_re = b_re * cur_re - b_im * cur_im;
                let t_im = b_re * cur_im + b_im * cur_re;
                data[start + k] = (a_re + t_re, a_im + t_im);
                data[start + k + len / 2] = (a_re - t_re, a_im - t_im);
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
        }
        len <<= 1;
    }
}

/// Model cost of one [`crate::Workload::Fft`] rep (`run(1 << 16)`), in
/// ns: the median of the `kernel_fft` row of
/// `cargo bench -p bench --bench mechanisms`, from one release run on a
/// 2-core x86-64 host. The harness charges this per rep instead of
/// timing the kernel, so modelled time never depends on the host.
pub const NS_PER_REP: u64 = 6_797_266;

/// Runs the benchmark kernel: forward+inverse FFT over `n` complex
/// samples (`n` must be a power of two), returning a checksum.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn run(n: usize) -> f64 {
    let mut data: Vec<Complex> =
        (0..n).map(|i| ((i % 31) as f64 * 0.25, (i % 17) as f64 * -0.5)).collect();
    fft(&mut data);
    ifft(&mut data);
    data.iter().map(|c| c.0 + c.1).sum()
}

/// Working-set size in bytes for an `n`-point run.
pub fn working_set_bytes(n: usize) -> usize {
    n * 16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn dc_signal_transforms_to_impulse() {
        let mut data = vec![(1.0, 0.0); 8];
        fft(&mut data);
        assert_close(data[0].0, 8.0);
        for c in &data[1..] {
            assert_close(c.0, 0.0);
            assert_close(c.1, 0.0);
        }
    }

    #[test]
    fn roundtrip_recovers_input() {
        let orig: Vec<Complex> =
            (0..64).map(|i| (i as f64 * 0.1, (63 - i) as f64 * -0.2)).collect();
        let mut data = orig.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in orig.iter().zip(&data) {
            assert_close(a.0, b.0);
            assert_close(a.1, b.1);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let mut data: Vec<Complex> = (0..128).map(|i| ((i % 7) as f64, (i % 5) as f64)).collect();
        let time_energy: f64 = data.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
        fft(&mut data);
        let freq_energy: f64 =
            data.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum::<f64>() / data.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut data = vec![(0.0, 0.0); 12];
        fft(&mut data);
    }

    #[test]
    fn run_is_deterministic() {
        assert_eq!(run(256), run(256));
        assert_eq!(working_set_bytes(1024), 16384);
    }
}
