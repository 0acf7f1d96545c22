//! SIMD dispatch facade and the exact multi-lane reduction.
//!
//! The runtime-dispatched SSE2/AVX2 kernels live in [`repro_fp::simd`]
//! (next to the superaccumulator whose hot loops they implement); this
//! module re-exports the dispatch surface where reduction-operator code
//! looks for it and pairs it with [`accumulate_lanes_exact`], the exact
//! counterpart of [`crate::lanes::accumulate_lanes`]:
//!
//! * the slice splits into contiguous plan chunks
//!   ([`crate::lanes::lane_chunks`], cut by the same
//!   [`crate::lanes::chunk_len_for_count`] as the runtime's
//!   `ReductionPlan::with_chunk_count`),
//! * each lane runs the batched superaccumulator kernel with the lane count
//!   as its accumulator-chain width
//!   ([`Superaccumulator::add_slice_lanes`]), and
//! * lanes merge through the one stride-doubling plan-order fold
//!   ([`crate::lanes::merge_in_plan_order`]) the runtime merges with.
//!
//! Because the superaccumulator is exact, every choice above — dispatch
//! tier, lane count, chunk boundaries, merge shape — yields bit-identical
//! results; the knobs only move throughput. The env override `REPRO_SIMD`
//! (`scalar|sse2|avx2|auto`) forces the tier process-wide, mirroring
//! `REPRO_RUNTIME_WORKERS` and `REPRO_SCALE`.

pub use repro_fp::simd::{active_tier, dispatch_source, supported_tiers, tier_supported, SimdTier};

use crate::lanes::{lane_chunks, merge_in_plan_order};
use repro_fp::Superaccumulator;

/// Exactly sum `values` with `lanes` contiguous plan-chunk lanes, each
/// running the batched kernel at chain width `lanes`, merged in plan order.
/// Bit-identical to [`repro_fp::exact_sum_acc`] for every lane count.
pub fn accumulate_lanes_exact(values: &[f64], lanes: usize) -> Superaccumulator {
    let parts: Vec<Option<Superaccumulator>> = lane_chunks(values, lanes)
        .map(|chunk| {
            let mut lane = Superaccumulator::new();
            lane.add_slice_lanes(chunk, lanes);
            Some(lane)
        })
        .collect();
    merge_in_plan_order(parts, |_, _, a, b| a.merge(b)).unwrap_or_default()
}

/// [`accumulate_lanes_exact`] rounded once to `f64`.
pub fn exact_sum_lanes(values: &[f64], lanes: usize) -> f64 {
    accumulate_lanes_exact(values, lanes).to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_fp::exact_sum_acc;

    fn hostile(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = repro_fp::rng::DetRng::seed_from_u64(seed);
        (0..n)
            .map(|i| match i % 9 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(rng.next_u64() % 1024 + 1), // subnormal
                _ => {
                    let m = rng.next_f64() - 0.5;
                    m * 2f64.powi((rng.next_u64() % 500) as i32 - 250)
                }
            })
            .collect()
    }

    #[test]
    fn lane_counts_are_bitwise_equivalent() {
        for seed in [1u64, 2015] {
            for n in [0usize, 1, 5, 127, 1024, 4097, 10_000] {
                let values = hostile(seed, n);
                let reference = exact_sum_acc(&values).to_f64().to_bits();
                for lanes in [1usize, 2, 4, 8] {
                    let acc = accumulate_lanes_exact(&values, lanes);
                    assert_eq!(
                        acc.to_f64().to_bits(),
                        reference,
                        "seed {seed} n {n} lanes {lanes}"
                    );
                    assert_eq!(exact_sum_lanes(&values, lanes).to_bits(), reference);
                }
            }
        }
    }

    #[test]
    fn dispatch_surface_is_reachable() {
        // The facade must expose a coherent dispatch story: the active tier
        // is one of the supported tiers and its label parses back.
        let tier = active_tier();
        assert!(tier_supported(tier));
        assert!(supported_tiers().contains(&tier));
        assert_eq!(SimdTier::parse(tier.label()), Some(tier));
        assert!(!dispatch_source().is_empty());
    }
}
