//! Enclave page cache (EPC) residency model.
//!
//! Real SGX keeps enclave pages in a fixed-size, encrypted EPC region.
//! When the combined resident set of all enclaves exceeds the usable EPC,
//! the kernel driver swaps pages between the EPC and regular DRAM, which
//! the paper (§2.1) notes comes "at a significant cost". This module
//! tracks the resident bytes of one enclave and converts over-commitment
//! into page-fault charges.

use crate::cost::CostParams;

/// Accounting state for one enclave's EPC usage.
///
/// The model is deterministic: growth beyond the usable EPC charges one
/// page swap per newly over-committed page, and heap *traffic* while
/// over-committed pays a proportional fault surcharge (a fraction of
/// touched pages miss the EPC). It keeps only the resident bytes: each
/// step hands its faults to the caller, which records them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpcState {
    resident_bytes: u64,
}

/// Outcome of an EPC accounting step: nanoseconds to charge and the
/// number of page faults the step produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpcCharge {
    /// Nanoseconds of paging work to charge against the clock.
    pub ns: u64,
    /// Page swaps this step caused.
    pub faults: u64,
}

impl EpcState {
    /// Creates an empty accounting state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently resident (committed) in this enclave.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Whether the resident set currently exceeds the usable EPC.
    pub fn over_committed(&self, params: &CostParams) -> bool {
        self.resident_bytes > params.epc_usable_bytes
    }

    /// Records `bytes` of enclave memory growth and returns the paging
    /// charge. Pages that newly spill past the usable EPC each cost one
    /// swap.
    pub fn grow(&mut self, bytes: u64, params: &CostParams) -> EpcCharge {
        let before = self.resident_bytes;
        self.resident_bytes += bytes;
        let over_before = before.saturating_sub(params.epc_usable_bytes);
        let over_after = self.resident_bytes.saturating_sub(params.epc_usable_bytes);
        let new_over = over_after.saturating_sub(over_before);
        let faults = new_over.div_ceil(params.epc_page_bytes.max(1));
        EpcCharge { ns: faults * params.epc_fault_ns, faults }
    }

    /// Records `bytes` of enclave memory shrink (e.g. after GC returns a
    /// semispace). Never charges.
    pub fn shrink(&mut self, bytes: u64) {
        self.resident_bytes = self.resident_bytes.saturating_sub(bytes);
    }

    /// Charges for `bytes` of heap traffic (reads/writes of enclave
    /// memory). While over-committed, a fraction of touched pages equal
    /// to the over-commit ratio is assumed to miss the EPC and swap.
    pub fn touch(&self, bytes: u64, params: &CostParams) -> EpcCharge {
        if !self.over_committed(params) || bytes == 0 {
            return EpcCharge::default();
        }
        let over = self.resident_bytes - params.epc_usable_bytes;
        // Fraction of the resident set that cannot be cached in the EPC.
        let miss_ratio = over as f64 / self.resident_bytes as f64;
        let pages_touched = bytes.div_ceil(params.epc_page_bytes.max(1));
        let faults = (pages_touched as f64 * miss_ratio).ceil() as u64;
        EpcCharge { ns: faults * params.epc_fault_ns, faults }
    }

    /// Charges for GC work that touched `blocks` heap blocks of
    /// `block_bytes` each (the segmented collector's marking and
    /// evacuation granule; see `docs/GC.md`). Per-block accounting:
    /// each touched block contributes its own page count, rounded up
    /// per block, and the same over-commit miss ratio as
    /// [`EpcState::touch`] decides how many of those pages swap. Free
    /// while the enclave fits the usable EPC, like all touch traffic.
    pub fn touch_blocks(&self, blocks: u64, block_bytes: u64, params: &CostParams) -> EpcCharge {
        if !self.over_committed(params) || blocks == 0 || block_bytes == 0 {
            return EpcCharge::default();
        }
        let over = self.resident_bytes - params.epc_usable_bytes;
        let miss_ratio = over as f64 / self.resident_bytes as f64;
        let pages_per_block = block_bytes.div_ceil(params.epc_page_bytes.max(1));
        let faults = (blocks as f64 * pages_per_block as f64 * miss_ratio).ceil() as u64;
        EpcCharge { ns: faults * params.epc_fault_ns, faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams {
            epc_usable_bytes: 1024 * 1024,
            epc_page_bytes: 4096,
            epc_fault_ns: 40_000,
            ..CostParams::paper_defaults()
        }
    }

    #[test]
    fn growth_under_epc_is_free() {
        let p = params();
        let mut e = EpcState::new();
        let c = e.grow(512 * 1024, &p);
        assert_eq!(c, EpcCharge::default());
        assert!(!e.over_committed(&p));
        assert_eq!(e.resident_bytes(), 512 * 1024);
    }

    #[test]
    fn growth_past_epc_charges_per_page() {
        let p = params();
        let mut e = EpcState::new();
        e.grow(1024 * 1024, &p);
        let c = e.grow(8192, &p);
        assert_eq!(c.faults, 2);
        assert_eq!(c.ns, 80_000);
        assert!(e.over_committed(&p));
    }

    #[test]
    fn shrink_restores_headroom() {
        let p = params();
        let mut e = EpcState::new();
        e.grow(2 * 1024 * 1024, &p);
        e.shrink(1536 * 1024);
        assert!(!e.over_committed(&p));
        assert_eq!(e.resident_bytes(), 512 * 1024);
    }

    #[test]
    fn touch_only_charges_when_over_committed() {
        let p = params();
        let mut e = EpcState::new();
        e.grow(512 * 1024, &p);
        assert_eq!(e.touch(64 * 1024, &p), EpcCharge::default());
        e.grow(1024 * 1024, &p); // now 1.5 MiB resident, 1 MiB usable
        let c = e.touch(300 * 1024, &p);
        assert!(c.faults > 0);
        // Miss ratio is 1/3, ~74 pages touched -> ~25 faults.
        assert!((20..=30).contains(&c.faults), "faults {}", c.faults);
    }

    #[test]
    fn touch_blocks_charges_per_block_when_over_committed() {
        let p = params();
        let mut e = EpcState::new();
        e.grow(512 * 1024, &p);
        assert_eq!(e.touch_blocks(16, 32 * 1024, &p), EpcCharge::default(), "fits EPC: free");
        e.grow(1024 * 1024, &p); // 1.5 MiB resident vs 1 MiB usable
        let c = e.touch_blocks(16, 32 * 1024, &p);
        // 8 pages per 32 KiB block, miss ratio 1/3 -> ~43 faults.
        assert!((40..=48).contains(&c.faults), "faults {}", c.faults);
        assert_eq!(c.ns, c.faults * p.epc_fault_ns);
        // Touching the same volume as one flat range charges the same
        // order: per-block rounding can only add pages, never remove.
        let mut flat = EpcState::new();
        flat.grow(1536 * 1024, &p);
        let f = flat.touch(16 * 32 * 1024, &p);
        assert!(c.faults >= f.faults, "block rounding is conservative");
    }

    #[test]
    fn touch_blocks_rounds_pages_up_per_block() {
        let p = params();
        let mut e = EpcState::new();
        e.grow(2 * 1024 * 1024, &p);
        // A 100-byte "block" still costs one page per block touched.
        let c = e.touch_blocks(10, 100, &p);
        let flat = {
            let mut s = EpcState::new();
            s.grow(2 * 1024 * 1024, &p);
            s.touch(1000, &p)
        };
        assert!(c.faults > flat.faults, "per-block rounding charges each block's page");
    }
}
