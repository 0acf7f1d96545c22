//! The reduce family: `AdaptiveReducer::reduce_cached` under the Bitwise
//! budget, one caller thread, round-robin over a pool of arrays.
//!
//! Traced, each call is re-executed from the public parts `reduce_cached`
//! is built from, so the select layer splits into sampling, the cached
//! decision, and the full-profile fallback, and the chosen kernel shows on
//! its own. The traced call must return the untraced call's bits.

use crate::common::{flight_counts, median_setup, Family, Layers, Limit, Phase, Tally};
use crate::stats::{self, Reservoir};
use crate::trace::Tracer;
use repro_fp::rng::DetRng;
use repro_fp::Superaccumulator;
use repro_select::profile::profile_and_sum;
use repro_select::sample::{choose_sampled, SampleConfig, SampledProfile};
use repro_select::{
    AdaptiveReducer, DecisionCache, Fingerprint, HeuristicSelector, Selector, Tolerance,
};
use repro_sum::{Accumulator, Algorithm, StandardSum};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const TOL: Tolerance = Tolerance::Bitwise;

/// Set-ups timed per run; the median is `setup_s`.
const SETUP_REPS: usize = 9;

/// Bytes the kernel reads per element per pass over the data.
const BYTES_PER_PASS: f64 = 8.0;

pub struct Reduce {
    arrays: Vec<Vec<f64>>,
    seed: u64,
    reducer: AdaptiveReducer,
    cache: DecisionCache,
    selector: HeuristicSelector,
    /// Result bits and operator of each array, from [`Family::verify`].
    expected: Vec<(u64, Algorithm)>,
    /// Set-up time (median), seconds.
    pub setup_s: f64,
}

/// Bound on |result − exact| for `alg` over `values`.
///
/// PR with fold `f` drops at most one quantum of its window bottom per
/// value, `n · max|x| · 2^(40 − 40f)` (Demmel–Nguyen; see
/// `repro_sum::binned`), and rounds once at the end; the exact operator
/// only rounds once. Anything else gets Higham's recursive-summation bound.
pub fn error_bound(alg: Algorithm, values: &[f64], result: f64) -> f64 {
    let n = values.len() as f64;
    let max_abs = values.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let abs_sum: f64 = values.iter().map(|x| x.abs()).sum();
    let final_rounding = 2.0 * repro_fp::UNIT_ROUNDOFF * result.abs();
    match alg {
        Algorithm::Binned { fold } => {
            2.0 * n * max_abs * 2f64.powi(40 - 40 * fold as i32) + final_rounding
        }
        Algorithm::Distill => final_rounding,
        _ => repro_fp::bounds::higham_gamma_bound(values.len(), abs_sum) + final_rounding,
    }
}

impl Reduce {
    /// Set up a reducer and its decision cache over `arrays` (timed:
    /// construction plus a first call, on `warmup`).
    pub fn new(arrays: Vec<Vec<f64>>, warmup: &[f64], seed: u64) -> Self {
        assert!(!arrays.is_empty());
        let ((reducer, cache), setup_s) = median_setup(SETUP_REPS, || {
            let reducer = AdaptiveReducer::heuristic(TOL);
            let cache = DecisionCache::new();
            black_box(reducer.reduce_cached(black_box(warmup), &cache));
            (reducer, cache)
        });
        Reduce {
            arrays,
            seed,
            reducer,
            cache,
            selector: HeuristicSelector::default(),
            expected: Vec::new(),
            setup_s,
        }
    }

    fn n(&self) -> usize {
        self.arrays[0].len()
    }

    /// `reduce_cached`, re-executed from its public parts with a span
    /// around each. Returns the sum, the operator, and whether the sampled
    /// bounds were too loose (the full-profile fallback ran).
    fn traced_call(&self, values: &[f64], tr: &mut Tracer) -> (f64, Algorithm, bool) {
        let cfg = SampleConfig::default();
        tr.begin("op.reduce");
        tr.begin("select.sample");
        let sampled = SampledProfile::collect(values, &cfg);
        tr.end();
        tr.begin("select.decide");
        let cached = if sampled.bounds_tight(&cfg) {
            let fp = Fingerprint::of(&sampled.estimated_profile(), TOL);
            self.cache.lookup(&fp).or_else(|| {
                let alg = choose_sampled(&self.selector, TOL, &sampled, &cfg)?;
                self.cache.insert(fp, alg);
                Some(alg)
            })
        } else {
            None
        };
        tr.end();
        let (alg, speculative) = match cached {
            Some(alg) => (alg, None),
            None => {
                tr.begin("select.profile");
                let mut st = StandardSum::new();
                let profile = profile_and_sum(values, &mut st);
                tr.end();
                tr.begin("select.choose");
                let alg = self.selector.choose(&profile, TOL);
                tr.end();
                (alg, Some(st))
            }
        };
        let fell_back = speculative.is_some();
        tr.begin("sum.kernel");
        let sum = match speculative {
            // The fused profile pass already summed in plain order.
            Some(st) if alg == Algorithm::Standard => st.finalize(),
            _ => {
                let mut acc = alg.new_accumulator();
                acc.add_slice(values);
                acc.finalize()
            }
        };
        tr.end();
        tr.end();
        (sum, alg, fell_back)
    }

    #[cfg(test)]
    pub fn corrupt_expected(&mut self) {
        for e in &mut self.expected {
            e.0 ^= 1;
        }
    }
}

impl Family for Reduce {
    /// Each array's result must be bit-identical to that of a seeded
    /// permutation of it, and within the chosen operator's error bound of
    /// the exact (superaccumulator) sum.
    fn verify(&mut self) -> Tally {
        let mut tally = Tally::default();
        self.expected.clear();
        for (i, a) in self.arrays.iter().enumerate() {
            let out = self.reducer.reduce_cached(a, &self.cache);
            self.expected.push((out.sum.to_bits(), out.algorithm));
            let mut perm = a.clone();
            DetRng::seed_from_u64(crate::common::mix(self.seed, 0x7065_726d, i as u64))
                .shuffle(&mut perm);
            let permuted = self.reducer.reduce_cached(&perm, &self.cache);
            tally.record(permuted.sum.to_bits() == out.sum.to_bits());
            let err = repro_fp::abs_error(out.sum, a);
            tally.record(err <= error_bound(out.algorithm, a, out.sum));
        }
        tally
    }

    fn run(&mut self, tr: &mut Tracer, limit: Limit) -> Phase {
        let mut lat = Reservoir::new(1 << 16);
        let mut tally = Tally::default();
        let mut chosen: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut fallbacks = 0u64;
        let mut rounds = 0;
        let counters0 = self.cache.counters();
        let (ev0, by0) = flight_counts();
        let start = Instant::now();
        loop {
            for (i, a) in self.arrays.iter().enumerate() {
                let t = Instant::now();
                let (sum, alg, fell_back) = if tr.on() {
                    self.traced_call(black_box(a), tr)
                } else {
                    let out = self.reducer.reduce_cached(black_box(a), &self.cache);
                    (out.sum, out.algorithm, false)
                };
                lat.push(t.elapsed().as_secs_f64());
                let (bits, want) = self.expected[i];
                tally.record(black_box(sum).to_bits() == bits && alg == want);
                *chosen.entry(alg.abbrev()).or_default() += 1;
                fallbacks += u64::from(fell_back);
            }
            rounds += 1;
            if limit.done(start, rounds) {
                break;
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let (ev1, by1) = flight_counts();
        let counters1 = self.cache.counters();
        let ops = rounds * self.arrays.len() as u64;
        let mut extra = BTreeMap::new();
        for alg in Algorithm::ALL {
            let share = *chosen.get(alg.abbrev()).unwrap_or(&0) as f64 / ops as f64;
            extra.insert(chosen_name(alg), share);
        }
        extra.insert("select.fallback_ratio", fallbacks as f64 / ops as f64);
        let hits = counters1.hits - counters0.hits;
        let lookups = hits + counters1.misses - counters0.misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        extra.insert("select.cache_hit_ratio", hit_ratio);
        Phase {
            lat: vec![lat],
            ops,
            values: ops * self.n() as u64,
            wall_s,
            tally,
            flight_events: ev1 - ev0,
            flight_bytes: by1 - by0,
            extra,
        }
    }

    fn layers(&mut self, tr: &Tracer, _untraced: &Phase, traced: &Phase, out: &mut Layers) {
        let n = self.n() as f64;
        let elems = traced.ops as f64 * n;
        let per_elem = |name: &str| tr.stat(name).total_ns as f64 / elems;
        out.insert("select.sample_ns_per_elem", per_elem("select.sample"));
        let profile = tr.stat("select.profile");
        let profile_ns = if profile.count > 0 {
            profile.total_ns as f64 / (profile.count as f64 * n)
        } else {
            // No call fell back: time the fallback pass directly.
            let t = Instant::now();
            for a in &self.arrays {
                black_box(profile_and_sum(black_box(a), &mut StandardSum::new()));
            }
            t.elapsed().as_nanos() as f64 / (self.arrays.len() as f64 * n)
        };
        out.insert("select.profile_ns_per_elem", profile_ns);
        for (k, v) in &traced.extra {
            out.insert(k, *v);
        }
        let select_self = tr
            .layer_per_op
            .get("select")
            .map_or(f64::NAN, |v| stats::median(v));
        out.insert("select.self_ms_p50", select_self / 1e6);
        out.insert("sum.kernel_ns_per_elem", per_elem("sum.kernel"));
        out.insert(
            "sum.bytes_read_per_elem",
            BYTES_PER_PASS * (1.0 + traced.extra["select.fallback_ratio"]),
        );
        let t = Instant::now();
        for a in &self.arrays {
            let mut acc = Superaccumulator::new();
            acc.add_slice(black_box(a));
            black_box(acc.to_f64());
        }
        let superacc = t.elapsed().as_nanos() as f64 / (self.arrays.len() as f64 * n);
        out.insert("fp.superacc_ns_per_elem", superacc);
    }
}

/// Name of the per-operator share metric, `select.chosen_<ALG>`.
pub fn chosen_name(alg: Algorithm) -> &'static str {
    match alg.abbrev() {
        "ST" => "select.chosen_ST",
        "K" => "select.chosen_K",
        "N" => "select.chosen_N",
        "PW" => "select.chosen_PW",
        "CP" => "select.chosen_CP",
        "DD" => "select.chosen_DD",
        "PR" => "select.chosen_PR",
        _ => "select.chosen_DS",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Reduce {
        let arrays: Vec<_> = (0..3)
            .map(|i| repro_gen::zero_sum_with_range(1 << 13, 32, seed + i))
            .collect();
        let warmup = arrays[0].clone();
        Reduce::new(arrays, &warmup, seed)
    }

    #[test]
    fn traced_call_reproduces_untraced_bits() {
        let mut r = small(7);
        assert_eq!(
            r.verify(),
            Tally {
                attempted: 6,
                failed: 0
            }
        );
        let mut tr = Tracer::new(true, Instant::now(), 0);
        let ph = r.run(&mut tr, Limit::Rounds(2));
        assert_eq!(
            ph.tally,
            Tally {
                attempted: 6,
                failed: 0
            }
        );
        assert_eq!(tr.stat("op.reduce").count, 6);
    }

    #[test]
    fn a_flipped_low_bit_counts_as_failed() {
        let mut r = small(8);
        r.verify();
        r.corrupt_expected();
        let ph = r.run(&mut Tracer::off(), Limit::Rounds(1));
        assert_eq!(
            ph.tally,
            Tally {
                attempted: 3,
                failed: 3
            }
        );
    }
}
