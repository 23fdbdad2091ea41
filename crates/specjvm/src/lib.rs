//! # specjvm — SPECjvm2008-style micro-benchmark kernels
//!
//! The paper's Figure 12 and Table 1 evaluate six SPECjvm2008
//! micro-benchmarks in enclaves: `mpegaudio`, `fft`, `monte_carlo`,
//! `sor`, `lu` and `sparse`. This crate implements the same kernel
//! families in Rust — real numeric code, tested against closed-form
//! properties — plus a [`Workload`] descriptor the experiment harness
//! uses to run each kernel under the different deployments.
//!
//! # Examples
//!
//! ```
//! use specjvm::Workload;
//!
//! for w in Workload::all() {
//!     let checksum = w.run_once();
//!     assert!(checksum.is_finite());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fft;
pub mod lu;
pub mod montecarlo;
pub mod mpegaudio;
pub mod sor;
pub mod sparse;

/// One SPECjvm2008-style micro-benchmark at its default workload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Polyphase-filterbank audio analysis.
    MpegAudio,
    /// Fast Fourier transform.
    Fft,
    /// Monte-Carlo integration (allocation-heavy on managed runtimes;
    /// see [`Workload::managed_alloc_bytes_per_run`]).
    MonteCarlo,
    /// Successive over-relaxation.
    Sor,
    /// Dense LU factorisation.
    Lu,
    /// Sparse matrix–vector multiplication.
    Sparse,
}

impl Workload {
    /// All six workloads, in the paper's Figure-12 order.
    pub fn all() -> [Workload; 6] {
        [
            Workload::MpegAudio,
            Workload::Fft,
            Workload::MonteCarlo,
            Workload::Sor,
            Workload::Lu,
            Workload::Sparse,
        ]
    }

    /// The benchmark's display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::MpegAudio => "mpegaudio",
            Workload::Fft => "fft",
            Workload::MonteCarlo => "monte_carlo",
            Workload::Sor => "sor",
            Workload::Lu => "lu",
            Workload::Sparse => "sparse",
        }
    }

    /// Runs one iteration at the default size; returns a checksum.
    pub fn run_once(&self) -> f64 {
        match self {
            Workload::MpegAudio => mpegaudio::run(mpegaudio::WINDOW + mpegaudio::BANDS * 512),
            Workload::Fft => fft::run(1 << 16),
            Workload::MonteCarlo => montecarlo::run(400_000, 20210), // deterministic seed
            Workload::Sor => sor::run(128, 60, 1.25),
            Workload::Lu => lu::run(256),
            Workload::Sparse => sparse::run(4096, 6, 40),
        }
    }

    /// Kernel repetitions per benchmark run at the default workload
    /// (sized so one run takes a few hundred milliseconds in release
    /// mode, like the SPECjvm2008 default workloads).
    pub fn reps(&self) -> u64 {
        match self {
            Workload::MpegAudio => 45,
            Workload::Fft => 65,
            Workload::MonteCarlo => 40,
            Workload::Sor => 300,
            Workload::Lu => 500,
            Workload::Sparse => 550,
        }
    }

    /// `reps() / divisor` kernel iterations, at least one.
    pub fn scaled_reps(&self, divisor: u64) -> u64 {
        (self.reps() / divisor.max(1)).max(1)
    }

    /// Runs [`Workload::scaled_reps`] kernel iterations and returns the
    /// accumulated checksum.
    pub fn run_scaled(&self, divisor: u64) -> f64 {
        let mut acc = 0.0;
        for _ in 0..self.scaled_reps(divisor) {
            acc += self.run_once();
        }
        acc
    }

    /// Model cost of one [`Workload::run_once`] rep in nanoseconds — the
    /// kernel module's `NS_PER_REP`, measured once on a release build.
    pub fn ns_per_rep(&self) -> u64 {
        match self {
            Workload::MpegAudio => mpegaudio::NS_PER_REP,
            Workload::Fft => fft::NS_PER_REP,
            Workload::MonteCarlo => montecarlo::NS_PER_REP,
            Workload::Sor => sor::NS_PER_REP,
            Workload::Lu => lu::NS_PER_REP,
            Workload::Sparse => sparse::NS_PER_REP,
        }
    }

    /// Default working-set size in bytes (drives the MEE compute
    /// surcharge model inside enclaves).
    pub fn working_set_bytes(&self) -> usize {
        match self {
            Workload::MpegAudio => {
                mpegaudio::working_set_bytes(mpegaudio::WINDOW + mpegaudio::BANDS * 512)
            }
            Workload::Fft => fft::working_set_bytes(1 << 16),
            Workload::MonteCarlo => montecarlo::working_set_bytes(),
            Workload::Sor => sor::working_set_bytes(128),
            Workload::Lu => lu::working_set_bytes(256),
            Workload::Sparse => sparse::working_set_bytes(4096, 6),
        }
    }

    /// Managed-heap allocation pressure per run, in bytes.
    ///
    /// SPECjvm2008's `monte_carlo` allocates heavily; the paper's
    /// Table 1 attributes its in-enclave native-image *loss* against
    /// SCONE+JVM to GC cycles triggered in the native image (\[28\]).
    /// The harness allocates this volume of short-lived managed objects
    /// around the kernel so that deployments with weaker collectors pay
    /// for it.
    pub fn managed_alloc_bytes_per_run(&self) -> u64 {
        match self {
            Workload::MonteCarlo => 1536 * 1024 * 1024,
            _ => 256 * 1024,
        }
    }

    /// Live (retained) managed bytes held across the run.
    ///
    /// A full-heap serial stop-and-copy collector (the native image's)
    /// re-copies this entire set on every collection the churn
    /// triggers, while a generational collector (HotSpot's) does not —
    /// the mechanism behind Table 1's `monte_carlo` anomaly.
    pub fn retained_bytes(&self) -> u64 {
        match self {
            Workload::MonteCarlo => 24 * 1024 * 1024,
            _ => 0,
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_run_and_are_deterministic() {
        for w in Workload::all() {
            assert_eq!(w.run_once().to_bits(), w.run_once().to_bits(), "{w}");
        }
    }

    #[test]
    fn names_match_the_paper() {
        let names: Vec<&str> = Workload::all().iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["mpegaudio", "fft", "monte_carlo", "sor", "lu", "sparse"]);
    }

    #[test]
    fn monte_carlo_is_the_allocation_heavy_one() {
        let mc = Workload::MonteCarlo.managed_alloc_bytes_per_run();
        for w in Workload::all() {
            if w != Workload::MonteCarlo {
                assert!(mc > 100 * w.managed_alloc_bytes_per_run());
            }
        }
    }
}
