//! # `repro-agg` — sharded reproducible aggregation engine
//!
//! The serving layer the ROADMAP's north star asks for: thousands of
//! concurrent clients stream `f64` batches into **named aggregates**, and
//! every finalized sum is **bitwise identical** regardless of
//!
//! * client arrival order (any interleaving of batches),
//! * shard count (1, 4, 16, … partial states per aggregate),
//! * worker count (how many threads drain the ingest stream), and
//! * snapshot/restore (kill the engine mid-run, restore from the wire
//!   format, finish the run).
//!
//! Grounded in *Reproducible Floating-Point Aggregation in RDBMSs*
//! (Müller et al.): their one-pass binned aggregation is exactly
//! [`repro_sum::BinnedSum`], and this crate adds the concurrent serving
//! layer around it — sharding, a versioned wire format, merge trees over
//! shards, and a deterministic load generator.
//!
//! ## Why the invariance holds
//!
//! Every shard holds a [`ShardState`]: either a [`repro_sum::BinnedSum`]
//! (the paper's PR operator — pre-rounded bins, add/merge commutative and
//! associative by construction) or a [`repro_fp::Superaccumulator`] (an
//! exact Kulisch register — a *true* integer sum, for which commutativity
//! and associativity are inherited from integer addition). For both,
//! `add`/`merge` schedules form a free commutative monoid on the multiset
//! of deposited values: **any** partition of the input into shards, any
//! per-shard arrival order, and any merge-tree shape over the shards
//! reaches the same state, hence the same finalized bits. Rounding to
//! `f64` happens exactly once, after the final merge.
//!
//! ## The moving parts
//!
//! * [`ShardState`] / [`OperatorKind`] — the per-shard partial state and
//!   its `checkpoint`/`restore` text form ([`state`]).
//! * [`Aggregate`] — one named aggregate: `K` mutex-guarded shards,
//!   deterministic `client → shard` assignment, batched
//!   [`repro_sum::Accumulator::add_slice`] ingest on the SIMD hot path,
//!   finalize through the shared stride-doubling plan-order fold
//!   ([`repro_sum::lanes::merge_in_plan_order`], [`engine`]).
//! * [`AggEngine`] — the named-aggregate registry, with per-aggregate
//!   operators chosen by the `repro-select` selector under the engine's
//!   accuracy budget and cached in a [`repro_select::DecisionCache`].
//!   Under the default `Bitwise` budget that is the selector's
//!   reproducible rung, DS, run as the exact superaccumulator
//!   ([`operator_for`]).
//! * `repro-agg-state-v1` — the versioned wire format: serialize an
//!   engine (or one aggregate), ship it, [`AggEngine::merge_serialized`]
//!   it into a peer — and the strict parser that rejects anything
//!   malformed ([`state::parse_snapshot`]).
//! * [`loadgen`] — the seeded load generator: a deterministic schedule of
//!   `(aggregate, client, batch)` events, shuffled by a seed, drained by
//!   any number of worker threads.
//!
//! ```
//! use repro_agg::{AggConfig, AggEngine};
//!
//! let engine = AggEngine::new(AggConfig::default());
//! let agg = engine.declare("demo", &[1.0, 2.5e-3, -7.0]);
//! agg.ingest(0, &[1.0, 2.0, 3.0]);
//! agg.ingest(1, &[4.0]);
//! assert_eq!(agg.finalize(), 10.0);
//!
//! // The wire format round-trips the exact shard states.
//! let restored = AggEngine::restore(&engine.serialize(), AggConfig::default()).unwrap();
//! assert_eq!(
//!     restored.get("demo").unwrap().finalize().to_bits(),
//!     agg.finalize().to_bits(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod loadgen;
pub mod state;

pub use engine::{operator_for, AggConfig, AggEngine, Aggregate};
pub use loadgen::{aggregate_name, batch_values, batch_values_into, schedule, LoadEvent, LoadSpec};
pub use state::{
    parse_aggregate, parse_snapshot, AggStateError, OperatorKind, ParsedAggregate, ShardState,
    SNAPSHOT_SCHEMA, STATE_SCHEMA,
};
