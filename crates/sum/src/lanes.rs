//! Multi-lane slice kernels over contiguous plan chunks, and the fixed
//! reduction-plan shape they share with the runtime.
//!
//! A scalar `add_slice` is one stream through the operator. Splitting the
//! slice into `L` **contiguous** chunks gives the operator `L` independent
//! accumulators whose inner loops each run the operator's batched
//! `add_slice` kernel at full speed, then the lanes merge through a fixed
//! balanced binary tree — a purely data-dependent schedule, so the kernel
//! is deterministic for every operator and bit-identical to the scalar
//! kernel for reproducible operators ([`crate::BinnedSum`],
//! [`crate::DistillSum`], the exact superaccumulator), whose results are
//! schedule-invariant by construction.
//!
//! The plan shape is written once, here: [`chunk_len_for_count`] (the
//! chunk-count → chunk-length rule) and [`merge_in_plan_order`] (the
//! stride-doubling merge tree). `repro-sum` is the lowest crate that needs
//! them, so the runtime's `ReductionPlan::with_chunk_count` and plan-order
//! merge, and the aggregation engine's shard merge, call these same two
//! functions. A lane result therefore equals the planned reduction a
//! runtime with `L` workers would produce — lane count, worker count, and
//! SIMD dispatch tier can all vary without moving a single bit of a
//! reproducible operator's output.
//!
//! This replaces the round-robin element interleave the module used before:
//! strided gathers forced either a per-element `add` (one long dependency
//! chain, ~3× slower for the superaccumulator) or a scratch-buffer copy.
//! Contiguous chunks keep every lane on the operator's fastest slice path
//! with zero data movement.

use crate::Accumulator;

/// Accumulate `values` into a fresh accumulator using `lanes` contiguous
/// lane chunks (see module docs). `lanes <= 1` is the scalar kernel.
pub fn accumulate_lanes<A, F>(make: F, values: &[f64], lanes: usize) -> A
where
    A: Accumulator,
    F: Fn() -> A,
{
    if lanes <= 1 {
        let mut acc = make();
        acc.add_slice(values);
        return acc;
    }
    let parts: Vec<Option<A>> = lane_chunks(values, lanes)
        .map(|chunk| {
            let mut lane = make();
            lane.add_slice(chunk);
            Some(lane)
        })
        .collect();
    merge_in_plan_order(parts, |_, _, a, b| a.merge(b)).unwrap_or_else(make)
}

/// The contiguous per-lane chunks of `values` for a given lane count:
/// [`chunk_len_for_count`]-sized runs, the last one short — the runtime's
/// `ReductionPlan::with_chunk_count(len, lanes)` boundaries.
pub fn lane_chunks(values: &[f64], lanes: usize) -> std::slice::Chunks<'_, f64> {
    values.chunks(chunk_len_for_count(values.len(), lanes))
}

/// The chunk length that splits `len` elements into `count` near-equal
/// contiguous chunks: `ceil(len / count)` with `count` clamped to
/// `1..=max(len, 1)`, never below 1.
pub fn chunk_len_for_count(len: usize, count: usize) -> usize {
    let count = count.max(1).min(len.max(1));
    len.div_ceil(count).max(1)
}

/// Merge partials along the plan's fixed balanced binary tree:
/// stride-doubling rounds over the slot indices (at stride `s`, slot
/// `i + s` folds into slot `i` for `i = 0, 2s, 4s, ...`, then the stride
/// doubles), so the topology depends only on the slot count.
///
/// `merge` receives `(i, stride, left, right)` for the node that folds the
/// subtree rooted at slot `i + stride` into the one rooted at slot `i`;
/// callers without per-node bookkeeping ignore the indices. Returns `None`
/// for an empty slot vector.
pub fn merge_in_plan_order<A, M>(mut parts: Vec<Option<A>>, mut merge: M) -> Option<A>
where
    M: FnMut(usize, usize, &mut A, &A),
{
    let n = parts.len();
    if n == 0 {
        return None;
    }
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let right = parts[i + stride].take().expect("merge tree slot filled");
            let left = parts[i].as_mut().expect("merge tree slot filled");
            merge(i, stride, left, &right);
            i += 2 * stride;
        }
        stride *= 2;
    }
    parts[0].take()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinnedSum, KahanSum, StandardSum};

    fn data(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let e = (i % 30) as i32 - 15;
                let sign = if i % 3 == 0 { -1.0 } else { 1.0 };
                sign * (i as f64 * 0.7 + 0.1) * (e as f64).exp2()
            })
            .collect()
    }

    #[test]
    fn reproducible_operator_is_lane_invariant() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 31, 1000, 4096, 4099] {
            let values = data(n);
            let mut scalar = BinnedSum::new(3);
            scalar.add_slice(&values);
            let reference = scalar.finalize().to_bits();
            for lanes in [1usize, 2, 4, 5, 8, 16] {
                let acc = accumulate_lanes(|| BinnedSum::new(3), &values, lanes);
                assert_eq!(
                    acc.finalize().to_bits(),
                    reference,
                    "BinnedSum diverged at n={n} lanes={lanes}"
                );
            }
        }
    }

    #[test]
    fn lane_layout_is_deterministic_per_width() {
        // Non-reproducible operators may differ from scalar, but the same
        // width must always give the same bits.
        let values = data(10_001);
        for lanes in [4usize, 8] {
            let a = accumulate_lanes(StandardSum::new, &values, lanes).finalize();
            let b = accumulate_lanes(StandardSum::new, &values, lanes).finalize();
            assert_eq!(a.to_bits(), b.to_bits());
            let k1 = accumulate_lanes(KahanSum::new, &values, lanes).finalize();
            let k2 = accumulate_lanes(KahanSum::new, &values, lanes).finalize();
            assert_eq!(k1.to_bits(), k2.to_bits());
        }
    }

    #[test]
    fn lane_chunks_match_plan_boundaries() {
        // Boundary formula pinned against the runtime plan's documented
        // shape: chunk_len = ceil(len / min(count, len)), last chunk short.
        for (n, lanes) in [
            (0usize, 4usize),
            (1, 4),
            (3, 4),
            (10, 4),
            (10, 8),
            (97, 8),
            (4096, 8),
            (4099, 16),
        ] {
            let values = data(n);
            let count = lanes.max(1).min(n.max(1));
            let chunk_len = n.div_ceil(count).max(1);
            let got: Vec<usize> = lane_chunks(&values, lanes).map(|c| c.len()).collect();
            let mut expect = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + chunk_len).min(n);
                expect.push(end - start);
                start = end;
            }
            assert_eq!(got, expect, "n={n} lanes={lanes}");
            assert_eq!(got.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn merge_order_is_the_stride_doubling_tree() {
        // StandardSum is order-sensitive, so it distinguishes fold shapes:
        // for five lanes the tree must be ((0+1)+(2+3))+4, not a left fold.
        let parts = [1e16f64, 1.0, -1e16, 1.0, 1.0];
        let lanes: Vec<Option<StandardSum>> = parts
            .iter()
            .map(|&v| {
                let mut a = StandardSum::new();
                a.add(v);
                Some(a)
            })
            .collect();
        let merged = merge_in_plan_order(lanes, |_, _, a, b| a.merge(b))
            .unwrap()
            .finalize();
        let expect = ((parts[0] + parts[1]) + (parts[2] + parts[3])) + parts[4];
        let left_fold = (((parts[0] + parts[1]) + parts[2]) + parts[3]) + parts[4];
        assert_eq!(merged.to_bits(), expect.to_bits());
        assert_ne!(expect.to_bits(), left_fold.to_bits(), "shapes must differ");
    }

    fn strings(n: usize) -> Vec<Option<String>> {
        (0..n).map(|i| Some(i.to_string())).collect()
    }

    #[test]
    fn plan_order_merge_is_a_fixed_tree() {
        // Merging strings shows the topology: ((0 1) (2 3)) (4 ..).
        let nest = |a: &mut String, b: &String| *a = format!("({a} {b})");
        let out = merge_in_plan_order(strings(5), |_, _, a, b| nest(a, b)).unwrap();
        assert_eq!(out, "(((0 1) (2 3)) 4)");
        // Same count, same topology — always.
        let again = merge_in_plan_order(strings(5), |_, _, a, b| nest(a, b)).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn merge_nodes_are_reported_in_tree_order() {
        let mut seen = Vec::new();
        let out = merge_in_plan_order(strings(5), |i, stride, a, b| {
            seen.push((i, stride));
            *a = format!("({a} {b})");
        })
        .unwrap();
        assert_eq!(out, "(((0 1) (2 3)) 4)");
        // Stride-doubling rounds over 5 slots: (0,1) (2,1) then (0,2) then (0,4).
        assert_eq!(seen, vec![(0, 1), (2, 1), (0, 2), (0, 4)]);
    }

    #[test]
    fn empty_and_single_slot_merges() {
        let mut calls = 0;
        assert!(merge_in_plan_order(strings(0), |_, _, _, _| calls += 1).is_none());
        let one = merge_in_plan_order(strings(1), |_, _, _, _| calls += 1);
        assert_eq!(one.as_deref(), Some("0"));
        assert_eq!(calls, 0, "no merge node below two slots");
    }

    #[test]
    fn chunk_len_for_count_clamps_the_count() {
        assert_eq!(chunk_len_for_count(10_000, 8), 1250);
        assert_eq!(chunk_len_for_count(10, 4), 3);
        assert_eq!(chunk_len_for_count(3, 8), 1); // count clamped to len
        assert_eq!(chunk_len_for_count(0, 4), 1); // never zero
        assert_eq!(chunk_len_for_count(7, 0), 7); // count clamped to 1
    }

    #[test]
    fn lanes_cover_every_element() {
        // Integer-valued data: every layout sums exactly.
        let values: Vec<f64> = (1..=97).map(|i| i as f64).collect();
        for lanes in [1usize, 2, 4, 8, 13] {
            let acc = accumulate_lanes(StandardSum::new, &values, lanes);
            assert_eq!(acc.finalize(), 97.0 * 98.0 / 2.0);
        }
    }
}
