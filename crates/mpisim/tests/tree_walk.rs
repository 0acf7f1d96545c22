//! The reduce walk's association and the blocking collectives' argument
//! checks.

use repro_mpisim::collectives::{self, ReduceConfig, ReduceTopology, MAX_JITTER_US};
use repro_mpisim::{Comm, World};
use repro_sum::{Accumulator, AlgoAccumulator, Algorithm};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn chunk(values: &[f64], size: usize, rank: usize) -> &[f64] {
    let per = values.len().div_ceil(size);
    &values[(rank * per).min(values.len())..((rank + 1) * per).min(values.len())]
}

fn standard_over(values: &[f64]) -> AlgoAccumulator {
    let mut acc = Algorithm::Standard.new_accumulator();
    for &x in values {
        acc.add(x);
    }
    acc
}

/// Reduce rank chunks of `values` with plain (order-sensitive) summation;
/// return the root's result bits.
fn walk_bits(values: &[f64], size: usize, root: usize, topology: ReduceTopology) -> u64 {
    let cfg = ReduceConfig {
        topology,
        ..Default::default()
    };
    let out = World::run(size, |c| {
        let local = standard_over(chunk(values, size, c.rank()));
        collectives::reduce_accumulator(c, local, root, &cfg).map(|a| a.finalize())
    });
    out[root].expect("root holds the result").to_bits()
}

/// The runtime's fixed plan merge over the rank chunks taken in virtual-rank
/// order (virtual rank `v` is rank `(v + root) % size`).
fn plan_bits(values: &[f64], size: usize, root: usize) -> u64 {
    let parts = (0..size)
        .map(|v| Some(standard_over(chunk(values, size, (v + root) % size))))
        .collect();
    repro_runtime::merge_in_plan_order(parts, |_, _, left, right| left.merge(right))
        .expect("at least one rank")
        .finalize()
        .to_bits()
}

/// A Binomial reduce associates exactly like the runtime's plan merge, so a
/// rank-level reduction and a chunk-level one share one tree shape: the
/// bits of plain floating-point summation, which exposes any difference in
/// association, agree for every world size and root.
#[test]
fn binomial_reduce_is_the_runtime_plan_merge() {
    let values = repro_gen::zero_sum_with_range(5000, 30, 7);
    for size in 1..=13 {
        for root in [0, size / 2, size - 1] {
            assert_eq!(
                walk_bits(&values, size, root, ReduceTopology::Binomial),
                plan_bits(&values, size, root),
                "size {size} root {root}"
            );
        }
    }
}

/// Negative control: the same comparison tells trees apart — the chain
/// associates differently and lands on different bits for some size.
#[test]
fn chain_reduce_is_not_the_plan_merge() {
    let values = repro_gen::zero_sum_with_range(5000, 30, 7);
    assert!(
        (1..=13).any(|size| walk_bits(&values, size, 0, ReduceTopology::Chain)
            != plan_bits(&values, size, 0)),
        "chain and plan merge agreed on every size"
    );
}

/// Run `f` on every rank of a 4-rank world; return each rank's panic
/// message (every rank must panic — none may be left waiting).
fn panic_messages(f: impl Fn(&mut Comm) + Sync) -> Vec<String> {
    World::run(4, |c| {
        let err = catch_unwind(AssertUnwindSafe(|| f(c))).expect_err("the call must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn root_outside_the_world_panics_on_every_rank() {
    let cfg = ReduceConfig::default();
    for msg in panic_messages(|c| {
        collectives::reduce_sum(c, &[1.0, 2.0, 3.0], Algorithm::Standard, 9, &cfg);
    }) {
        assert!(
            msg.contains("reduce_accumulator") && msg.contains("root 9"),
            "{msg}"
        );
    }
    for msg in panic_messages(|c| {
        collectives::broadcast(c, 4, (c.rank() == 0).then_some(1u8));
    }) {
        assert!(msg.contains("broadcast") && msg.contains("root 4"), "{msg}");
    }
}

#[test]
fn jitter_above_the_cap_panics_on_every_rank_before_sleeping() {
    let cfg = ReduceConfig {
        topology: ReduceTopology::Binomial,
        jitter_us: 20_000_000_000,
        jitter_seed: 1,
    };
    let expected = cfg.validate().expect_err("over the cap").to_string();
    assert!(expected.contains(&MAX_JITTER_US.to_string()), "{expected}");
    for msg in panic_messages(|c| {
        collectives::reduce_sum(c, &[1.0], Algorithm::Standard, 0, &cfg);
    }) {
        assert!(msg.contains(&expected), "{msg}");
    }
    for msg in panic_messages(|c| {
        collectives::adaptive_reduce_sum(c, &[1.0], repro_select::Tolerance::Bitwise, 0, &cfg);
    }) {
        assert!(msg.contains(&expected), "{msg}");
    }
}
