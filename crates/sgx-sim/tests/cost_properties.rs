//! Property tests for the cost model and EPC accounting.

use proptest::prelude::*;
use sgx_sim::cost::{ClockMode, CostModel, CostParams};
use sgx_sim::epc::EpcState;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Crossing cost is monotone in the byte count.
    #[test]
    fn crossing_cost_is_monotone(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let p = CostParams::paper_defaults();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(p.crossing_ns(lo) <= p.crossing_ns(hi));
        prop_assert!(p.crossing_ns(0) >= p.transition_ns());
    }

    /// Virtual charges accumulate exactly.
    #[test]
    fn virtual_charges_sum(charges in proptest::collection::vec(0u64..1_000_000, 0..64)) {
        let m = CostModel::new(CostParams::paper_defaults(), ClockMode::Virtual);
        for &c in &charges {
            m.charge_ns(c);
        }
        prop_assert_eq!(m.charged().as_nanos() as u64, charges.iter().sum::<u64>());
    }

    /// EPC accounting: resident bytes track grow/shrink exactly; faults
    /// only occur while over-committed; growth below the limit is free.
    #[test]
    fn epc_accounting_is_exact(ops in proptest::collection::vec((any::<bool>(), 0u64..256*1024), 1..64)) {
        let params = CostParams { epc_usable_bytes: 1024 * 1024, ..CostParams::paper_defaults() };
        let mut epc = EpcState::new();
        let mut expected: u64 = 0;
        for (grow, bytes) in ops {
            if grow {
                let before_over = expected > params.epc_usable_bytes;
                let charge = epc.grow(bytes, &params);
                expected += bytes;
                if expected <= params.epc_usable_bytes {
                    prop_assert_eq!(charge.faults, 0);
                } else if !before_over {
                    prop_assert!(charge.faults > 0 || bytes == 0);
                }
            } else {
                epc.shrink(bytes);
                expected = expected.saturating_sub(bytes);
            }
            prop_assert_eq!(epc.resident_bytes(), expected);
        }
    }

    /// Touch never charges while under the EPC limit and always charges
    /// something for large touches while far over it.
    #[test]
    fn touch_charges_match_commitment(resident in 1u64..4*1024*1024, touch in 1u64..1024*1024) {
        let params = CostParams { epc_usable_bytes: 1024 * 1024, ..CostParams::paper_defaults() };
        let mut epc = EpcState::new();
        epc.grow(resident, &params);
        let charge = epc.touch(touch, &params);
        if resident <= params.epc_usable_bytes {
            prop_assert_eq!(charge.faults, 0);
        } else if resident > 2 * params.epc_usable_bytes && touch > 64 * 1024 {
            prop_assert!(charge.faults > 0);
        }
    }
}
