//! The agg family: one `AggEngine` (4 aggregates × 4 shards, Bitwise
//! budget) fed by two closed-loop client threads, then repeated
//! serialize → restore recovery cycles.
//!
//! Each thread repeats a fixed round of [`ROUND`] requests drawn from the
//! seed: batch ingests from a pre-generated payload pool into a seeded
//! (aggregate, client) pair, with every [`QUERY_EVERY`]th request a
//! `finalize` of a round-robin aggregate, so reads contend with writes for
//! the shard locks.

use crate::common::{flight_counts, median_setup, mix, Family, Layers, Limit, Phase, Tally};
use crate::stats::{self, Reservoir};
use crate::trace::Tracer;
use repro_agg::{aggregate_name, AggConfig, AggEngine, Aggregate, OperatorKind};
use repro_select::Tolerance;
use repro_sum::Accumulator;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub const AGGREGATES: usize = 4;
pub const SHARDS: usize = 4;
const CLIENTS: u64 = 16;
pub const THREADS: usize = 2;
/// Requests per thread per round.
const ROUND: usize = 1024;
const QUERY_EVERY: usize = 64;
/// Set-ups timed per run.
const SETUP_REPS: usize = 9;
/// Latency samples kept per client thread.
const RESERVOIR: usize = 1 << 20;
/// Share of a timed run spent ingesting; the rest runs recovery cycles.
const INGEST_SHARE: f64 = 0.85;

const CONFIG: AggConfig = AggConfig {
    shards: SHARDS,
    fold: 3,
    budget: Tolerance::Bitwise,
};

#[derive(Clone, Copy, Debug)]
enum Step {
    Ingest {
        agg: usize,
        client: u64,
        batch: usize,
    },
    Query {
        agg: usize,
    },
}

/// Thread `t`'s round of requests.
fn schedule(seed: u64, t: usize, pool: usize) -> Vec<Step> {
    (0..ROUND)
        .map(|i| {
            if i % QUERY_EVERY == QUERY_EVERY - 1 {
                Step::Query {
                    agg: (i / QUERY_EVERY + t) % AGGREGATES,
                }
            } else {
                let h = mix(seed, t as u64 + 1, i as u64);
                Step::Ingest {
                    agg: (h % AGGREGATES as u64) as usize,
                    client: (h >> 8) % CLIENTS,
                    batch: ((h >> 16) % pool as u64) as usize,
                }
            }
        })
        .collect()
}

/// A fresh engine with every aggregate declared and one round of every
/// client's schedule ingested, serially.
fn one_round_engine(
    batches: &[Vec<f64>],
    schedules: &[Vec<Step>],
) -> (AggEngine, Vec<Arc<Aggregate>>) {
    let engine = AggEngine::new(CONFIG);
    let aggs: Vec<_> = (0..AGGREGATES)
        .map(|a| engine.declare(&aggregate_name(a), &batches[a % batches.len()]))
        .collect();
    for sched in schedules {
        for step in sched {
            if let Step::Ingest { agg, client, batch } = *step {
                aggs[agg].ingest(client, &batches[batch]);
            }
        }
    }
    (engine, aggs)
}

pub struct Agg {
    batches: Vec<Vec<f64>>,
    schedules: Vec<Vec<Step>>,
    engine: AggEngine,
    aggs: Vec<Arc<Aggregate>>,
    /// Rounds of each thread's schedule ingested into `engine` so far (the
    /// set-up ingests one).
    rounds: [u64; THREADS],
    /// Set-up time (median), seconds.
    pub setup_s: f64,
    #[cfg(test)]
    corrupt: bool,
}

/// What one client thread did in an ingest phase.
struct Client {
    ingest: Reservoir,
    query: Vec<f64>,
    merged: Vec<f64>,
    rounds: u64,
    tally: Tally,
    tracer: Tracer,
}

impl Agg {
    /// Set up an engine over `batches` (timed: construction, `declare` of
    /// every aggregate, a first round of every client's requests, and a
    /// first query of each aggregate).
    pub fn new(batches: Vec<Vec<f64>>, seed: u64) -> Self {
        assert!(!batches.is_empty());
        let schedules: Vec<_> = (0..THREADS)
            .map(|t| schedule(seed, t, batches.len()))
            .collect();
        let ((engine, aggs), setup_s) = median_setup(SETUP_REPS, || {
            let (engine, aggs) = one_round_engine(&batches, &schedules);
            for a in &aggs {
                black_box(a.finalize());
            }
            (engine, aggs)
        });
        Agg {
            batches,
            schedules,
            engine,
            aggs,
            rounds: [1; THREADS],
            setup_s,
            #[cfg(test)]
            corrupt: false,
        }
    }

    fn batch_len(&self, step: &Step) -> u64 {
        match *step {
            Step::Ingest { batch, .. } => self.batches[batch].len() as u64,
            Step::Query { .. } => 0,
        }
    }

    fn client(&self, t: usize, tracer: Tracer, limit: Limit, start: Instant) -> Client {
        let mut c = Client {
            ingest: Reservoir::new(RESERVOIR),
            query: Vec::new(),
            merged: Vec::new(),
            rounds: 0,
            tally: Tally::default(),
            tracer,
        };
        let tr = &mut c.tracer;
        loop {
            for step in &self.schedules[t] {
                match *step {
                    Step::Ingest { agg, client, batch } => {
                        let s = Instant::now();
                        tr.begin("op.ingest");
                        tr.begin("agg.ingest");
                        self.aggs[agg].ingest(client, black_box(&self.batches[batch]));
                        tr.end();
                        tr.end();
                        c.ingest.push(s.elapsed().as_secs_f64());
                    }
                    Step::Query { agg } => {
                        let s = Instant::now();
                        tr.begin("op.query");
                        tr.begin("agg.finalize");
                        let v = self.aggs[agg].finalize();
                        tr.end();
                        tr.end();
                        c.query.push(s.elapsed().as_secs_f64());
                        // A mid-stream read has no reference value; it must
                        // at least be a number.
                        c.tally.record(!black_box(v).is_nan());
                        if tr.on() {
                            let s = Instant::now();
                            black_box(self.aggs[agg].merged_state());
                            c.merged.push(s.elapsed().as_secs_f64());
                        }
                    }
                }
            }
            c.rounds += 1;
            if limit.done(start, c.rounds) {
                break;
            }
        }
        c
    }

    /// Serial single-state reference of one round of thread `t`, per
    /// aggregate, in schedule order.
    fn round_reference(&self, t: usize) -> Vec<repro_agg::ShardState> {
        let mut states: Vec<_> = self.aggs.iter().map(|a| a.op().new_state()).collect();
        for step in &self.schedules[t] {
            if let Step::Ingest { agg, batch, .. } = *step {
                states[agg].add_slice(&self.batches[batch]);
            }
        }
        states
    }
}

impl Family for Agg {
    fn run(&mut self, tr: &mut Tracer, limit: Limit) -> Phase {
        let on = tr.on();
        let ingest_limit = limit.share(INGEST_SHARE);
        let (ev0, by0) = flight_counts();
        let start = Instant::now();
        let epoch = tr.epoch();
        let this = &*self;
        let clients: Vec<Client> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let tracer = Tracer::new(on, epoch, (t as u64 + 1) << 40);
                    s.spawn(move || this.client(t, tracer, ingest_limit, start))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let (ev1, by1) = flight_counts();

        let mut tally = Tally::default();
        let mut ops = 0;
        let mut values = 0;
        let mut query = Vec::new();
        let mut merged = Vec::new();
        let mut lat = Vec::new();
        for (t, c) in clients.into_iter().enumerate() {
            self.rounds[t] += c.rounds;
            let per_round: u64 = self.schedules[t].iter().map(|s| self.batch_len(s)).sum();
            let ingests = self.schedules[t]
                .iter()
                .filter(|s| matches!(s, Step::Ingest { .. }))
                .count() as u64;
            ops += c.rounds * ingests;
            values += c.rounds * per_round;
            tally.add(c.tally);
            // Every ingest counts as attempted; whether it landed is
            // checked against the serial reference in `finish`.
            tally.attempted += c.rounds * ingests;
            query.extend(c.query);
            merged.extend(c.merged);
            lat.push(c.ingest);
            tr.absorb(c.tracer);
        }

        // Recovery: serialize → restore must reproduce the digest.
        let digest = self.engine.digest_bits();
        let mut recover = Vec::new();
        let recover_limit = match limit {
            Limit::Time(_) => limit.share(1.0 - INGEST_SHARE),
            Limit::Rounds(k) => Limit::Rounds(16 * k),
        };
        let rstart = Instant::now();
        let mut cycles = 0;
        loop {
            let s = Instant::now();
            tr.begin("op.recover");
            tr.begin("agg.serialize");
            let text = self.engine.serialize();
            tr.end();
            tr.begin("agg.restore");
            let restored = AggEngine::restore(black_box(&text), CONFIG);
            tr.end();
            tr.end();
            recover.push(s.elapsed().as_secs_f64());
            tally.record(matches!(restored, Ok(e) if e.digest_bits() == digest));
            cycles += 1;
            if recover_limit.done(rstart, cycles) {
                break;
            }
        }

        let ingest_sorted = stats::pooled(&lat);
        let query = stats::sorted(&query);
        let recover = stats::sorted(&recover);
        let mut extra = BTreeMap::new();
        extra.insert(
            "agg.ingest_batch_us_p99",
            stats::pct(&ingest_sorted, 99.0) * 1e6,
        );
        extra.insert("agg.query_us_p50", stats::pct(&query, 50.0) * 1e6);
        extra.insert("agg.query_us_p90", stats::pct(&query, 90.0) * 1e6);
        extra.insert("agg.recover_us_p50", stats::pct(&recover, 50.0) * 1e6);
        extra.insert("agg.recover_us_p90", stats::pct(&recover, 90.0) * 1e6);
        extra.insert("agg.merged_state_us", stats::mean(&merged) * 1e6);
        extra.insert("agg.updates", values as f64);
        extra.insert("agg.queries", query.len() as f64);
        extra.insert("agg.recoveries", recover.len() as f64);
        Phase {
            lat,
            ops,
            values,
            wall_s,
            tally,
            flight_events: ev1 - ev0,
            flight_bytes: by1 - by0,
            extra,
        }
    }

    /// Each aggregate's final bits must equal a serial single-state run of
    /// its operator over the canonical order: thread 0's round, then
    /// thread 1's, each repeated as many times as that thread ran it.
    /// (Repeats of one round are folded in with `merge`, which the
    /// operators guarantee equals re-adding the values; serially re-adding
    /// billions of values would take longer than the run.)
    fn finish(&mut self) -> Tally {
        let mut reference: Vec<_> = self.aggs.iter().map(|a| a.op().new_state()).collect();
        for t in 0..THREADS {
            let round = self.round_reference(t);
            for _ in 0..self.rounds[t] {
                for (r, s) in reference.iter_mut().zip(&round) {
                    r.merge(s);
                }
            }
        }
        let mut tally = Tally::default();
        for (a, r) in self.aggs.iter().zip(&reference) {
            #[allow(unused_mut)]
            let mut want = r.finalize().to_bits();
            #[cfg(test)]
            if self.corrupt {
                want ^= 1;
            }
            tally.record(a.finalize_bits() == want);
        }
        tally
    }

    fn layers(&mut self, tr: &Tracer, untraced: &Phase, traced: &Phase, out: &mut Layers) {
        let ingest_ns = tr.stat("agg.ingest").total_ns as f64 / traced.extra["agg.updates"];
        // The same batches into one private state: the kernel alone.
        let kernel_rounds = 8;
        let mut updates = 0u64;
        let t = Instant::now();
        for _ in 0..kernel_rounds {
            for sched in &self.schedules {
                let mut st = self.aggs[0].op().new_state();
                for step in sched {
                    if let Step::Ingest { batch, .. } = *step {
                        st.add_slice(black_box(&self.batches[batch]));
                        updates += self.batches[batch].len() as u64;
                    }
                }
                black_box(st.finalize());
            }
        }
        let kernel_ns = t.elapsed().as_nanos() as f64 / updates as f64;
        out.insert("agg.ingest_ns_per_upd", ingest_ns);
        out.insert("agg.kernel_ns_per_upd", kernel_ns);
        out.insert("agg.lock_wait_ns_per_upd", ingest_ns - kernel_ns);

        // Updates per (aggregate, shard) over one round of every thread.
        let mut per_shard = [0u64; AGGREGATES * SHARDS];
        for sched in &self.schedules {
            for step in sched {
                if let Step::Ingest { agg, client, batch } = *step {
                    let shard = self.aggs[agg].shard_of(client);
                    per_shard[agg * SHARDS + shard] += self.batches[batch].len() as u64;
                }
            }
        }
        let max = *per_shard.iter().max().expect("shards") as f64;
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
        out.insert("agg.shard_skew", max / mean);

        out.insert("agg.merged_state_us", traced.extra["agg.merged_state_us"]);
        out.insert("agg.finalize_us", tr.mean_ns("agg.finalize") / 1e3);
        out.insert("agg.serialize_us", tr.mean_ns("agg.serialize") / 1e3);
        out.insert("agg.restore_us", tr.mean_ns("agg.restore") / 1e3);

        // State size after exactly one round of each thread, in a fresh
        // engine: a function of the seed alone.
        let (fresh, _) = one_round_engine(&self.batches, &self.schedules);
        out.insert("agg.state_bytes", fresh.serialize().len() as f64);
        let exact = self
            .aggs
            .iter()
            .filter(|a| a.op() == OperatorKind::Exact)
            .count();
        out.insert("agg.exact_aggregates", exact as f64);
        for name in [
            "agg.ingest_batch_us_p99",
            "agg.query_us_p50",
            "agg.query_us_p90",
            "agg.recover_us_p50",
            "agg.recover_us_p90",
        ] {
            out.insert(name, untraced.extra[name]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Agg {
        let batches = (0..64)
            .map(|b| repro_agg::batch_values(seed, (b % 4) as u32, 0, b as u32, 256))
            .collect();
        Agg::new(batches, seed)
    }

    #[test]
    fn sharded_ingest_matches_the_serial_reference() {
        let mut a = small(3);
        let ph = a.run(&mut Tracer::off(), Limit::Rounds(2));
        assert_eq!(ph.tally.failed, 0);
        let mut tr = Tracer::new(true, Instant::now(), 0);
        a.run(&mut tr, Limit::Rounds(1));
        assert_eq!(a.rounds, [4, 4]);
        assert_eq!(
            a.finish(),
            Tally {
                attempted: 4,
                failed: 0
            }
        );
    }

    #[test]
    fn a_flipped_low_bit_counts_as_failed() {
        let mut a = small(4);
        a.run(&mut Tracer::off(), Limit::Rounds(1));
        a.corrupt = true;
        assert_eq!(
            a.finish(),
            Tally {
                attempted: 4,
                failed: 4
            }
        );
    }
}
