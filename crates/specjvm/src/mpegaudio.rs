//! An mpegaudio-like kernel: polyphase filterbank + windowed DCT over
//! synthetic PCM.
//!
//! SPECjvm2008's `mpegaudio` decodes MP3 frames. A bit-exact decoder is
//! out of scope; this kernel reproduces the benchmark's computational
//! profile — a 32-band polyphase analysis filterbank with a 512-tap
//! window followed by a 32-point DCT per granule — over a synthetic PCM
//! stream, which is the part of the decoder where SPECjvm2008 spends
//! its cycles.

use std::f64::consts::PI;

/// Number of sub-bands in the analysis filterbank.
pub const BANDS: usize = 32;
/// Window length in samples.
pub const WINDOW: usize = 512;

/// Deterministic synthetic PCM: a mix of three tones plus a cheap
/// pseudo-noise term.
pub fn synth_pcm(samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|i| {
            let t = i as f64 / 44_100.0;
            let tone = (2.0 * PI * 440.0 * t).sin()
                + 0.5 * (2.0 * PI * 1_320.0 * t).sin()
                + 0.25 * (2.0 * PI * 2_640.0 * t).sin();
            let noise = (((i.wrapping_mul(2654435761)) >> 16) & 0xff) as f64 / 512.0 - 0.25;
            tone * 0.25 + noise * 0.05
        })
        .collect()
}

/// The analysis window (a raised-cosine approximation of the MP3
/// synthesis window).
fn window() -> Vec<f64> {
    (0..WINDOW)
        .map(|i| {
            let x = (i as f64 + 0.5) / WINDOW as f64;
            (PI * x).sin().powi(2) * 0.035
        })
        .collect()
}

/// Analyses `pcm` into per-granule sub-band energies.
pub fn filterbank(pcm: &[f64]) -> Vec<[f64; BANDS]> {
    let win = window();
    let granules = pcm.len().saturating_sub(WINDOW) / BANDS;
    let mut out = Vec::with_capacity(granules);
    for g in 0..granules {
        let base = g * BANDS;
        // Windowed fold: 512 taps folded into 64 partials.
        let mut z = [0.0f64; 64];
        for (k, partial) in z.iter_mut().enumerate() {
            let mut acc = 0.0;
            let mut idx = k;
            while idx < WINDOW {
                acc += pcm[base + idx] * win[idx];
                idx += 64;
            }
            *partial = acc;
        }
        // 32-band matrixing DCT.
        let mut bands = [0.0f64; BANDS];
        for (band, out_v) in bands.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, partial) in z.iter().enumerate() {
                acc += partial * ((2.0 * band as f64 + 1.0) * (k as f64 - 16.0) * PI / 64.0).cos();
            }
            *out_v = acc;
        }
        out.push(bands);
    }
    out
}

/// Model cost of one [`crate::Workload::MpegAudio`] rep (`run(WINDOW + BANDS * 512)`), in
/// ns: the median of the `kernel_mpegaudio` row of
/// `cargo bench -p bench --bench mechanisms`, from one release run on a
/// 2-core x86-64 host. The harness charges this per rep instead of
/// timing the kernel, so modelled time never depends on the host.
pub const NS_PER_REP: u64 = 20_172_676;

/// Benchmark kernel: filterbank analysis over `samples` PCM samples;
/// returns total spectral energy.
pub fn run(samples: usize) -> f64 {
    let pcm = synth_pcm(samples);
    filterbank(&pcm).iter().flat_map(|g| g.iter()).map(|v| v * v).sum()
}

/// Working-set size in bytes for a `samples`-sample run.
pub fn working_set_bytes(samples: usize) -> usize {
    samples * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_granules() {
        let pcm = synth_pcm(WINDOW + BANDS * 10);
        let granules = filterbank(&pcm);
        assert_eq!(granules.len(), 10);
    }

    #[test]
    fn tonal_input_concentrates_energy_in_low_bands() {
        let pcm = synth_pcm(WINDOW + BANDS * 64);
        let granules = filterbank(&pcm);
        let mut energy = [0.0f64; BANDS];
        for g in &granules {
            for (b, v) in g.iter().enumerate() {
                energy[b] += v * v;
            }
        }
        let low: f64 = energy[..8].iter().sum();
        let high: f64 = energy[24..].iter().sum();
        assert!(low > high * 2.0, "low {low} vs high {high}");
    }

    #[test]
    fn silence_has_near_zero_energy() {
        let pcm = vec![0.0; WINDOW + BANDS * 8];
        let e: f64 = filterbank(&pcm).iter().flat_map(|g| g.iter()).map(|v| v * v).sum();
        assert!(e.abs() < 1e-20);
    }

    #[test]
    fn run_is_deterministic_and_finite() {
        let a = run(WINDOW + BANDS * 32);
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(a, run(WINDOW + BANDS * 32));
    }
}
