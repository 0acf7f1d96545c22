//! Property tests for the sharded aggregation engine (`repro-agg`),
//! driven through the `repro-core` facade:
//!
//! 1. Any sharding, arrival permutation, and merge-tree shape finalizes
//!    to the exact bits of a serial single-shard run — for both shard
//!    operators (pre-rounded binned and the exact superaccumulator).
//! 2. The `repro-agg-state-v1` wire format round-trips shard states
//!    bit-exactly, including subnormals, signed zeros, and non-finites,
//!    and merging a shipped snapshot into a differently-sharded peer
//!    changes nothing about the finalized bits.

use proptest::prelude::*;
use repro_core::agg::{AggConfig, AggEngine, OperatorKind, ShardState};
use repro_core::fp::rng::DetRng;
use repro_core::sum::lanes::merge_in_plan_order;
use repro_core::sum::Accumulator;

/// The edge of the f64 lattice: signed zeros, subnormals (including the
/// smallest), huge magnitudes that overflow when summed, and infinities.
fn specials() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1), // smallest subnormal
        -f64::from_bits(1),
        1e308,
        -1e308,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -1e16f64..1e16f64,
        2 => (0usize..specials().len()).prop_map(|i| specials()[i]),
        // Exact powers of two across most of the binade range.
        2 => (-900i32..=900).prop_map(|e| f64::from_bits(((1023 + e) as u64) << 52)),
    ]
}

fn both_ops(fold: usize) -> [OperatorKind; 2] {
    [OperatorKind::Binned { fold }, OperatorKind::Exact]
}

/// Serial reference: one state, original order.
fn serial_bits(op: OperatorKind, values: &[f64]) -> u64 {
    let mut state = op.new_state();
    state.add_slice(values);
    state.finalize().to_bits()
}

/// Shard `values` by round-robin, deposit each shard's share in a
/// shuffled arrival order, then collapse with a seeded *random* merge
/// tree (repeatedly merge two random states until one remains).
fn sharded_bits(op: OperatorKind, values: &[f64], shards: usize, seed: u64) -> u64 {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut per_shard: Vec<Vec<f64>> = vec![Vec::new(); shards];
    for (i, &v) in values.iter().enumerate() {
        per_shard[i % shards].push(v);
    }
    let mut states: Vec<ShardState> = per_shard
        .into_iter()
        .map(|mut share| {
            rng.shuffle(&mut share);
            let mut state = op.new_state();
            for v in share {
                state.add(v);
            }
            state
        })
        .collect();
    while states.len() > 1 {
        let a = rng.random_range(0..states.len());
        let donor = states.swap_remove(a);
        let b = rng.random_range(0..states.len());
        states[b].merge(&donor);
    }
    states.pop().unwrap().finalize().to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: shard count x arrival permutation x merge-tree
    /// shape never changes a finalized bit, for either shard operator.
    #[test]
    fn any_sharding_permutation_and_tree_matches_serial_bitwise(
        values in prop::collection::vec(value_strategy(), 1..260),
        shards in 1usize..17,
        fold in 1usize..5,
        seed in 0u64..10_000,
    ) {
        for op in both_ops(fold) {
            let serial = serial_bits(op, &values);
            let sharded = sharded_bits(op, &values, shards, seed);
            prop_assert_eq!(
                sharded, serial,
                "op={} shards={} seed={}", op.label(), shards, seed
            );
            // The shared stride-doubling plan-order tree agrees too.
            let mut states: Vec<Option<ShardState>> = Vec::new();
            for chunk in values.chunks(values.len().div_ceil(shards)) {
                let mut s = op.new_state();
                s.add_slice(chunk);
                states.push(Some(s));
            }
            let tree = merge_in_plan_order(states, |_, _, a, b| a.merge(b))
                .unwrap()
                .finalize()
                .to_bits();
            prop_assert_eq!(tree, serial, "merge_in_plan_order op={}", op.label());
        }
    }

    /// Checkpoint text round-trips every shard state bit-exactly, and a
    /// restored state keeps accumulating as if never serialized.
    #[test]
    fn shard_state_checkpoint_roundtrip_is_bitwise_transparent(
        head in prop::collection::vec(value_strategy(), 1..120),
        tail in prop::collection::vec(value_strategy(), 0..120),
        fold in 1usize..5,
    ) {
        for op in both_ops(fold) {
            let mut whole = op.new_state();
            whole.add_slice(&head);
            let text = whole.checkpoint();
            let mut restored = ShardState::restore(op, &text)
                .unwrap_or_else(|| panic!("own checkpoint restores: {text}"));
            prop_assert_eq!(restored.finalize().to_bits(), whole.finalize().to_bits());
            whole.add_slice(&tail);
            restored.add_slice(&tail);
            prop_assert_eq!(
                restored.finalize().to_bits(),
                whole.finalize().to_bits(),
                "resume after restore, op={}", op.label()
            );
        }
    }

    /// Engine wire format: serialize -> restore preserves every
    /// aggregate's bits, and merging the shipped snapshot into an empty
    /// peer with a *different* shard count reproduces them too.
    #[test]
    fn engine_snapshot_roundtrips_and_merges_across_shard_counts(
        values in prop::collection::vec(value_strategy(), 1..200),
        shards in 1usize..9,
        peer_shards in 1usize..9,
        clients in 1u64..40,
    ) {
        let engine = AggEngine::new(AggConfig { shards, ..AggConfig::default() });
        let agg = engine.declare("p", &values);
        for (i, chunk) in values.chunks(16).enumerate() {
            agg.ingest(i as u64 % clients, chunk);
        }
        let want = agg.finalize().to_bits();
        let shipped = engine.serialize();

        let restored = AggEngine::restore(&shipped, AggConfig::default()).unwrap();
        prop_assert_eq!(restored.get("p").unwrap().finalize().to_bits(), want);
        prop_assert_eq!(restored.serialize(), shipped, "serialize is stable");

        let peer = AggEngine::new(AggConfig { shards: peer_shards, ..AggConfig::default() });
        peer.merge_serialized(&shipped).unwrap();
        prop_assert_eq!(
            peer.get("p").unwrap().finalize().to_bits(),
            want,
            "merge into {peer_shards}-shard peer"
        );
    }
}
