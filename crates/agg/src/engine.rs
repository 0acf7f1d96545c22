//! The aggregation engine: named aggregates, sharded ingest, and the
//! deterministic merge tree.
//!
//! ## Shard layout
//!
//! Each [`Aggregate`] owns `K` mutex-guarded [`ShardState`]s. A client is
//! pinned to shard `client_id mod K` — deterministic, so contention is
//! spread without any routing state — and every batch lands via one lock
//! acquisition and one batched `add_slice` (the SIMD hot path). Two
//! clients on different shards never contend; two on the same shard
//! serialize only against each other.
//!
//! ## Why finalize is bitwise-invariant
//!
//! Both operators' `add`/`merge` are commutative and associative on the
//! partial-state level (integer addition for the exact register,
//! pre-rounded bin addition for PR). Therefore the map from the *multiset
//! of ingested values* to the merged state is independent of: which shard
//! each value landed in (shard count / client assignment), the order
//! values arrived (client interleaving, worker count), and the shape of
//! the merge tree over shards. [`Aggregate::merged_state`] fixes the
//! stride-doubling order anyway, through
//! [`repro_sum::lanes::merge_in_plan_order`] — the one fold the runtime's
//! plan merge and the lane kernels also use — so even a hypothetical
//! order-sensitive operator would fail loudly in tests, not silently
//! drift. Rounding to `f64` happens once, in `finalize`, after
//! the last merge.

use crate::state::{self, valid_name, AggStateError, OperatorKind, ParsedAggregate, ShardState};
use repro_select::{CostModel, DecisionCache, Fingerprint, HeuristicSelector, Selector, Tolerance};
use repro_sum::lanes::merge_in_plan_order;
use repro_sum::{Accumulator, Algorithm};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Engine-wide configuration: the shard count for new aggregates, the PR
/// fold, and the accuracy budget the selector chooses operators under.
#[derive(Clone, Copy, Debug)]
pub struct AggConfig {
    /// Shards per newly declared aggregate (≥ 1).
    pub shards: usize,
    /// PR fold (1..=4) used when a non-reproducible choice maps onto a PR
    /// reproducible rung.
    pub fold: usize,
    /// Accuracy budget each aggregate's operator must meet.
    pub budget: Tolerance,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig {
            shards: 4,
            fold: 3,
            budget: Tolerance::Bitwise,
        }
    }
}

/// Map the selector's choice onto a shard-safe operator.
///
/// Sharded ingest only works with operators whose partials merge
/// bitwise-invariantly, so the engine clamps the selector's ladder to the
/// two that qualify:
///
/// * PR (`binned`) stays PR at its own fold.
/// * DS becomes the superaccumulator ([`OperatorKind::Exact`]) — the
///   fastest *batched* ingest path in the workspace (~0.6 ns/elem on
///   narrow data vs ~14 for PR), at 0.64 kB of checkpoint per shard
///   against ~0.1 kB for PR at fold 3.
/// * A **non-reproducible** choice (ST/K/CP/…) means the budget is loose
///   enough that even the cheapest rung met it; any reproducible
///   operator's run-to-run spread is zero, so the model's reproducible
///   rung ([`CostModel::reproducible_rung`]) keeps the budget trivially
///   while restoring mergeability — `Exact` when DS is the rung, PR at
///   `fold` when PR is.
pub fn operator_for(algorithm: Algorithm, fold: usize, costs: &CostModel) -> OperatorKind {
    match algorithm {
        Algorithm::Binned { fold } => OperatorKind::Binned {
            fold: fold as usize,
        },
        a if a.is_reproducible() => OperatorKind::Exact,
        _ => match costs.reproducible_rung() {
            Algorithm::Binned { .. } => OperatorKind::Binned { fold },
            _ => OperatorKind::Exact,
        },
    }
}

/// One named aggregate: `K` sharded partial states plus ingest counters.
#[derive(Debug)]
pub struct Aggregate {
    name: String,
    op: OperatorKind,
    shards: Vec<Mutex<ShardState>>,
    updates: AtomicU64,
    batches: AtomicU64,
}

impl Aggregate {
    fn new(name: String, op: OperatorKind, shard_count: usize) -> Self {
        let shards = (0..shard_count.max(1))
            .map(|_| Mutex::new(op.new_state()))
            .collect();
        Aggregate {
            name,
            op,
            shards,
            updates: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    fn from_parsed(parsed: ParsedAggregate) -> Self {
        Aggregate {
            name: parsed.name,
            op: parsed.op,
            shards: parsed.shards.into_iter().map(Mutex::new).collect(),
            updates: AtomicU64::new(parsed.updates),
            batches: AtomicU64::new(parsed.batches),
        }
    }

    /// Aggregate name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator every shard runs.
    pub fn op(&self) -> OperatorKind {
        self.op
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Values ingested so far.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// The shard a client's batches land in: `client_id mod K`.
    pub fn shard_of(&self, client_id: u64) -> usize {
        (client_id % self.shards.len() as u64) as usize
    }

    /// Ingest one batch from `client_id`: one lock, one batched
    /// `add_slice` on the operator's hot path.
    pub fn ingest(&self, client_id: u64, values: &[f64]) {
        lock(&self.shards[self.shard_of(client_id)]).add_slice(values);
        self.updates
            .fetch_add(values.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Clone every shard's current state, each once under its own lock.
    /// Each clone is internally consistent; for a cross-shard-consistent
    /// view, quiesce ingest first (the load generator stops at an event
    /// boundary before snapshotting).
    fn shard_states(&self) -> Vec<ShardState> {
        self.shards
            .iter()
            .map(|shard| lock(shard).clone())
            .collect()
    }

    /// The merged root state (stride-doubling over shard clones).
    pub fn merged_state(&self) -> ShardState {
        let states = self.shard_states().into_iter().map(Some).collect();
        merge_in_plan_order(states, |_, _, a, b| a.merge(b))
            .expect("aggregates have at least one shard")
    }

    /// Finalize: merge all shards, round once.
    pub fn finalize(&self) -> f64 {
        let result = self.merged_state().finalize();
        repro_obs::flight::record_with("agg", "finalize", || {
            vec![
                repro_obs::f("name", self.name.as_str()),
                repro_obs::f("bits", format!("{:016x}", result.to_bits())),
                repro_obs::f("updates", self.updates()),
            ]
        });
        result
    }

    /// [`Aggregate::finalize`] as raw IEEE-754 bits (what the CI identity
    /// gates compare).
    pub fn finalize_bits(&self) -> u64 {
        self.finalize().to_bits()
    }

    /// Serialize this aggregate as one `repro-agg-state-v1` document.
    pub fn serialize(&self) -> String {
        let states = self.shard_states();
        state::render_aggregate(&self.name, self.op, self.updates(), self.batches(), &states)
    }

    /// Merge a shipped aggregate state into this one. The operator must
    /// match; the remote's shard `i` folds into local shard
    /// `i mod K_local` (any assignment yields the same bits — the
    /// operators are merge-invariant — this one keeps locks short).
    pub fn merge_parsed(&self, remote: &ParsedAggregate) -> Result<(), AggStateError> {
        if remote.op != self.op {
            return Err(AggStateError(format!(
                "operator mismatch for {:?}: local {} remote {}",
                self.name,
                self.op.label(),
                remote.op.label()
            )));
        }
        for (i, shard) in remote.shards.iter().enumerate() {
            lock(&self.shards[i % self.shards.len()]).merge(shard);
        }
        self.updates.fetch_add(remote.updates, Ordering::Relaxed);
        self.batches.fetch_add(remote.batches, Ordering::Relaxed);
        Ok(())
    }
}

/// The engine: a registry of named aggregates sharing one configuration
/// and one selector decision cache.
#[derive(Debug)]
pub struct AggEngine {
    config: AggConfig,
    aggregates: RwLock<BTreeMap<String, Arc<Aggregate>>>,
    cache: DecisionCache,
    selector: HeuristicSelector,
}

impl AggEngine {
    /// An empty engine.
    pub fn new(config: AggConfig) -> Self {
        AggEngine {
            config,
            aggregates: RwLock::new(BTreeMap::new()),
            cache: DecisionCache::new(),
            selector: HeuristicSelector::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AggConfig {
        &self.config
    }

    /// The shared selector decision cache (hit-rate observability).
    pub fn cache(&self) -> &DecisionCache {
        &self.cache
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<Aggregate>>> {
        self.aggregates
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<Aggregate>>> {
        self.aggregates
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Declare (or fetch) an aggregate. On first declaration the selector
    /// profiles `sample` — a *representative* batch the caller derives
    /// deterministically, **not** whichever batch happens to arrive first,
    /// so the chosen operator is independent of arrival order — and the
    /// decision is cached by workload fingerprint. Redeclaration returns
    /// the existing aggregate untouched (restored state wins).
    ///
    /// # Panics
    /// If `name` is not a legal wire name (`[A-Za-z0-9_.:-]+`).
    pub fn declare(&self, name: &str, sample: &[f64]) -> Arc<Aggregate> {
        assert!(valid_name(name), "invalid aggregate name {name:?}");
        if let Some(existing) = self.read().get(name) {
            return existing.clone();
        }
        let profile = repro_select::profile(sample);
        let fingerprint = Fingerprint::of(&profile, self.config.budget);
        let algorithm = self.cache.lookup(&fingerprint).unwrap_or_else(|| {
            let chosen = self.selector.choose(&profile, self.config.budget);
            self.cache.insert(fingerprint, chosen);
            chosen
        });
        let op = operator_for(algorithm, self.config.fold, &self.selector.costs);
        let mut map = self.write();
        let entry = map.entry(name.to_string()).or_insert_with(|| {
            repro_obs::flight::record_with("agg", "declare", || {
                vec![
                    repro_obs::f("name", name),
                    repro_obs::f("alg", algorithm.abbrev()),
                    repro_obs::f("op", op.label()),
                    repro_obs::f("shards", self.config.shards as u64),
                ]
            });
            Arc::new(Aggregate::new(name.to_string(), op, self.config.shards))
        });
        entry.clone()
    }

    /// Fetch an aggregate by name.
    pub fn get(&self, name: &str) -> Option<Arc<Aggregate>> {
        self.read().get(name).cloned()
    }

    /// All aggregates, in name order.
    pub fn aggregates(&self) -> Vec<Arc<Aggregate>> {
        self.read().values().cloned().collect()
    }

    /// Total values ingested across all aggregates.
    pub fn total_updates(&self) -> u64 {
        self.read().values().map(|a| a.updates()).sum()
    }

    /// Serialize the whole engine as a `repro-agg-snapshot-v1` document.
    pub fn serialize(&self) -> String {
        let aggregates = self.aggregates();
        let docs: Vec<String> = aggregates.iter().map(|a| a.serialize()).collect();
        repro_obs::flight::record_with("agg", "snapshot", || {
            vec![
                repro_obs::f("aggregates", docs.len() as u64),
                repro_obs::f("updates", self.total_updates()),
            ]
        });
        state::render_snapshot(&docs)
    }

    /// Rebuild an engine from a serialized snapshot. Shard counts and
    /// operators come from the wire (they are part of the state), not
    /// from `config`; `config` governs aggregates declared later.
    pub fn restore(text: &str, config: AggConfig) -> Result<Self, AggStateError> {
        let parsed = state::parse_snapshot(text)?;
        let engine = AggEngine::new(config);
        {
            let mut map = engine.write();
            for p in parsed {
                map.insert(p.name.clone(), Arc::new(Aggregate::from_parsed(p)));
            }
        }
        Ok(engine)
    }

    /// Merge a shipped snapshot into this engine: unknown aggregates are
    /// adopted wholesale, known ones shard-merge (operators must match).
    pub fn merge_serialized(&self, text: &str) -> Result<(), AggStateError> {
        let parsed = state::parse_snapshot(text)?;
        for p in parsed {
            let existing = self.get(&p.name);
            match existing {
                Some(agg) => agg.merge_parsed(&p)?,
                None => {
                    self.write()
                        .entry(p.name.clone())
                        .or_insert_with(|| Arc::new(Aggregate::from_parsed(p)));
                }
            }
        }
        Ok(())
    }

    /// A single-`f64` digest of the whole engine: the **exact** sum (via
    /// a superaccumulator) of every aggregate's finalized value, in name
    /// order. This is what an `agg` run manifest records as
    /// `result_bits`, and what `replay` re-derives.
    pub fn digest_bits(&self) -> u64 {
        let mut digest = repro_fp::Superaccumulator::new();
        for agg in self.aggregates() {
            digest.add(agg.finalize());
        }
        digest.to_f64().to_bits()
    }

    /// Publish `agg.*` gauges (engine totals and per-aggregate updates)
    /// plus the decision cache's `select.cache.*` traffic into `registry`.
    pub fn publish(&self, registry: &repro_obs::Registry) {
        let aggregates = self.aggregates();
        registry.gauge_set("agg.aggregates", aggregates.len() as f64);
        registry.gauge_set("agg.updates", self.total_updates() as f64);
        let shards: usize = aggregates.iter().map(|a| a.shard_count()).sum();
        registry.gauge_set("agg.shards", shards as f64);
        for agg in &aggregates {
            registry.gauge_set(&format!("agg.updates.{}", agg.name()), agg.updates() as f64);
            registry.gauge_set(&format!("agg.batches.{}", agg.name()), agg.batches() as f64);
        }
        self.cache.publish(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_fp::rng::DetRng;

    fn hostile(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let e = rng.random_range(-40i32..40) as f64;
                (rng.next_f64() - 0.5) * e.exp2()
            })
            .collect()
    }

    #[test]
    fn operator_mapping_clamps_to_shard_safe_operators() {
        let costs = CostModel::default();
        assert_eq!(
            operator_for(Algorithm::PR, 3, &costs),
            OperatorKind::Binned { fold: 3 }
        );
        assert_eq!(
            operator_for(Algorithm::Binned { fold: 2 }, 3, &costs),
            OperatorKind::Binned { fold: 2 }
        );
        assert_eq!(
            operator_for(Algorithm::Distill, 3, &costs),
            OperatorKind::Exact
        );
        // Non-reproducible choices map to the model's reproducible rung:
        // DS on the committed baseline, PR at the configured fold where
        // PR is the cheaper reproducible operator.
        assert_eq!(costs.reproducible_rung(), Algorithm::Distill);
        assert_eq!(
            operator_for(Algorithm::Standard, 2, &costs),
            OperatorKind::Exact
        );
        // A machine whose exact path is dearer than PR.
        let entries: Vec<String> = [
            ("sum/ST", 1.0),
            ("sum/PW", 3.0),
            ("sum/K", 3.0),
            ("sum/N", 2.0),
            ("sum/CP", 2.0),
            ("sum/DD", 5.0),
            ("sum/PR", 14.0),
            ("simd/scalar", 20.0),
        ]
        .iter()
        .map(|(op, ns)| format!("{{\"op\": \"{op}\", \"ns_per_elem\": {ns}}}"))
        .collect();
        let doc = format!(
            "{{\"schema\": \"repro-bench-throughput-v1\", \"entries\": [{}]}}",
            entries.join(",")
        );
        let slow_exact =
            CostModel::from_baseline_json(&doc, "x", repro_fp::simd::SimdTier::Scalar).unwrap();
        assert_eq!(slow_exact.reproducible_rung(), Algorithm::PR);
        assert_eq!(
            operator_for(Algorithm::Standard, 2, &slow_exact),
            OperatorKind::Binned { fold: 2 }
        );
        assert_eq!(
            operator_for(Algorithm::Distill, 2, &slow_exact),
            OperatorKind::Exact
        );
    }

    /// A snapshot rendered before the default Bitwise rung moved from PR to
    /// DS: two `binned:3` aggregates, two shards each.
    const PR_ERA_SNAPSHOT: &str = "\
repro-agg-snapshot-v1 aggregates=2
repro-agg-state-v1 name=latency op=binned:3 shards=2 updates=64 batches=4
shard=0;3;24;43d8000000000000,4158000141eb851f,3ed7ffb851fb8000,3c58000000000000;0,0,0,0;0000
shard=1;3;24;43d8000000000000,41580001e7ae147b,3ed7ffe147b58000,3c58000000000000;0,0,0,0;0000
end
repro-agg-state-v1 name=volume op=binned:3 shards=2 updates=64 batches=4
shard=0;3;24;43d8000000000000,41580001a1eb851f,3ed7ffb851fa0000,3c58000000000000;0,0,0,0;0000
shard=1;3;24;43d8000000000000,4158000185c28f5c,3ed80028f5cd0000,3c58000000000000;0,0,0,0;0000
end
";

    #[test]
    fn pr_era_snapshots_restore_under_the_exact_default() {
        let engine = AggEngine::restore(PR_ERA_SNAPSHOT, AggConfig::default()).expect("restores");
        // The operator comes from the wire, not from the selector.
        for (name, bits) in [
            ("latency", 0x40294cccccccccce_u64),
            ("volume", 0x40293d70a3d70a3e),
        ] {
            let agg = engine.declare(name, &hostile(1, 64));
            assert_eq!(agg.op(), OperatorKind::Binned { fold: 3 }, "{name}");
            assert_eq!(agg.finalize_bits(), bits, "{name}");
            assert_eq!(agg.updates(), 64);
        }
        assert_eq!(engine.digest_bits(), 0x4039451eb851eb86);
        assert_eq!(engine.serialize().trim_end(), PR_ERA_SNAPSHOT.trim_end());
        // Aggregates declared after the restore get today's rung.
        assert_eq!(
            engine.declare("fresh", &hostile(1, 64)).op(),
            OperatorKind::Exact
        );
    }

    #[test]
    fn sharded_ingest_matches_serial_sum_exactly_under_bitwise_budget() {
        let engine = AggEngine::new(AggConfig::default());
        let agg = engine.declare("t", &hostile(1, 64));
        let values = hostile(2, 4096);
        for (i, chunk) in values.chunks(64).enumerate() {
            agg.ingest(i as u64, chunk);
        }
        let mut serial = OperatorKind::Exact.new_state();
        if agg.op() == OperatorKind::Exact {
            serial.add_slice(&values);
        } else {
            let mut s = agg.op().new_state();
            s.add_slice(&values);
            serial = s;
        }
        assert_eq!(agg.finalize().to_bits(), serial.finalize().to_bits());
        assert_eq!(agg.updates(), 4096);
        assert_eq!(agg.batches(), 64);
    }

    #[test]
    fn finalize_is_invariant_to_shard_count_and_arrival_order() {
        let values = hostile(7, 2048);
        let mut reference: Option<u64> = None;
        for shards in [1usize, 4, 16] {
            for shuffle in [0u64, 9, 42] {
                let engine = AggEngine::new(AggConfig {
                    shards,
                    ..AggConfig::default()
                });
                let agg = engine.declare("t", &hostile(1, 64));
                let mut batches: Vec<(u64, &[f64])> = values
                    .chunks(32)
                    .enumerate()
                    .map(|(i, c)| (i as u64, c))
                    .collect();
                DetRng::seed_from_u64(shuffle).shuffle(&mut batches);
                for (client, batch) in batches {
                    agg.ingest(client, batch);
                }
                let bits = agg.finalize_bits();
                match reference {
                    None => reference = Some(bits),
                    Some(r) => assert_eq!(bits, r, "shards={shards} shuffle={shuffle}"),
                }
            }
        }
    }

    #[test]
    fn merge_tree_shape_does_not_matter() {
        let values = hostile(11, 1000);
        let build = |k: usize| -> Vec<ShardState> {
            let mut states: Vec<ShardState> =
                (0..k).map(|_| OperatorKind::Exact.new_state()).collect();
            for (i, chunk) in values.chunks(50).enumerate() {
                states[i % k].add_slice(chunk);
            }
            states
        };
        let states = build(7).into_iter().map(Some).collect();
        let stride = merge_in_plan_order(states, |_, _, a: &mut ShardState, b| a.merge(b))
            .unwrap()
            .finalize()
            .to_bits();
        // Sequential left fold — a maximally unbalanced "tree".
        let mut seq = build(7);
        let mut acc = seq.remove(0);
        for s in &seq {
            acc.merge(s);
        }
        assert_eq!(acc.finalize().to_bits(), stride);
    }

    #[test]
    fn snapshot_restore_then_resume_is_bitwise_transparent() {
        let values = hostile(3, 2000);
        let (first, second) = values.split_at(1200);

        let full = AggEngine::new(AggConfig::default());
        let agg = full.declare("t", &hostile(1, 64));
        for (i, c) in values.chunks(40).enumerate() {
            agg.ingest(i as u64, c);
        }

        let partial = AggEngine::new(AggConfig::default());
        let agg_p = partial.declare("t", &hostile(1, 64));
        for (i, c) in first.chunks(40).enumerate() {
            agg_p.ingest(i as u64, c);
        }
        let snap = partial.serialize();
        let resumed = AggEngine::restore(&snap, AggConfig::default()).expect("restores");
        // Redeclaration after restore keeps the restored state.
        let agg_r = resumed.declare("t", &hostile(1, 64));
        for (i, c) in second.chunks(40).enumerate() {
            agg_r.ingest((30 + i) as u64, c);
        }
        assert_eq!(agg_r.finalize_bits(), agg.finalize_bits());
        assert_eq!(resumed.digest_bits(), full.digest_bits());
        assert_eq!(agg_r.updates(), 2000);
    }

    #[test]
    fn merge_serialized_combines_two_engines_exactly() {
        let values = hostile(5, 3000);
        let (left, right) = values.split_at(1000);
        let make = |vals: &[f64], shards: usize| {
            let engine = AggEngine::new(AggConfig {
                shards,
                ..AggConfig::default()
            });
            let agg = engine.declare("t", &hostile(1, 64));
            for (i, c) in vals.chunks(100).enumerate() {
                agg.ingest(i as u64, c);
            }
            engine
        };
        let a = make(left, 4);
        let b = make(right, 16); // different shard count on the remote
        a.merge_serialized(&b.serialize()).expect("merges");

        let whole = make(&values, 4);
        assert_eq!(a.digest_bits(), whole.digest_bits());
        assert_eq!(a.total_updates(), 3000);

        // Unknown aggregates are adopted wholesale.
        let fresh = AggEngine::new(AggConfig::default());
        fresh.merge_serialized(&whole.serialize()).expect("adopts");
        assert_eq!(fresh.digest_bits(), whole.digest_bits());
    }

    #[test]
    fn declare_caches_selector_decisions_per_fingerprint() {
        let engine = AggEngine::new(AggConfig::default());
        let sample = hostile(1, 256);
        engine.declare("a", &sample);
        engine.declare("b", &sample); // same shape → cache hit
        let counters = engine.cache().counters();
        assert_eq!(counters.inserts, 1);
        assert!(counters.hits >= 1, "{counters:?}");
        assert_eq!(engine.aggregates().len(), 2);
    }

    #[test]
    fn publish_exports_engine_gauges() {
        let engine = AggEngine::new(AggConfig::default());
        let agg = engine.declare("t", &[1.0, 2.0]);
        agg.ingest(0, &[1.0, 2.0, 3.0]);
        let registry = repro_obs::Registry::new();
        engine.publish(&registry);
        let rendered = registry.snapshot().render();
        assert!(rendered.contains("agg.updates"), "{rendered}");
        assert!(rendered.contains("agg.aggregates"), "{rendered}");
    }
}
