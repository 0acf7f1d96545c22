//! What every workload family shares: run limits, failure accounting, the
//! result of one closed-loop phase, and the family interface.

use crate::stats::{self, Reservoir};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a closed-loop phase runs. Phases always stop at a round
/// boundary (one pass over the family's fixed request schedule), so the
/// exact counts a traced run reports are ratios over whole rounds and
/// repeat exactly for one seed.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Keep starting rounds until this much time has passed.
    Time(Duration),
    /// Run exactly this many rounds.
    Rounds(u64),
}

impl Limit {
    /// Whether a phase that started at `start` and finished `rounds`
    /// rounds should stop.
    pub fn done(&self, start: Instant, rounds: u64) -> bool {
        match *self {
            Limit::Time(d) => start.elapsed() >= d,
            Limit::Rounds(k) => rounds >= k,
        }
    }

    /// The same limit, scaled (time) or kept (rounds).
    pub fn share(&self, frac: f64) -> Limit {
        match *self {
            Limit::Time(d) => Limit::Time(d.mul_f64(frac)),
            Limit::Rounds(k) => Limit::Rounds(k),
        }
    }
}

/// Attempted and failed operations. Every check lands here; nothing is
/// retried or dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one closed-loop phase did.
pub struct Phase {
    /// Latency of each primary request, in seconds (one reservoir per
    /// client thread).
    pub lat: Vec<Reservoir>,
    /// Primary requests completed.
    pub ops: u64,
    /// Input values the primary requests consumed.
    pub values: u64,
    /// Wall time of the primary-request part of the phase, seconds.
    pub wall_s: f64,
    pub tally: Tally,
    /// Flight-recorder events and bytes recorded while the primary
    /// requests ran.
    pub flight_events: u64,
    pub flight_bytes: u64,
    /// Family-specific figures (secondary request latencies, counts).
    pub extra: BTreeMap<&'static str, f64>,
}

impl Phase {
    /// All primary-request latencies in ascending order.
    pub fn sorted_lat(&self) -> Vec<f64> {
        stats::pooled(&self.lat)
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One family of requests (reduce, agg or CLI) over one set of inputs.
pub trait Family {
    /// Compute the expected result of every input and check it (untimed).
    fn verify(&mut self) -> Tally {
        Tally::default()
    }
    /// Closed-loop requests until `limit`, spans into `tr` when it is on.
    fn run(&mut self, tr: &mut Tracer, limit: Limit) -> Phase;
    /// Checks that need the state every phase left behind.
    fn finish(&mut self) -> Tally {
        Tally::default()
    }
    /// Per-layer figures from an untraced and a traced phase.
    fn layers(&mut self, tr: &Tracer, untraced: &Phase, traced: &Phase, out: &mut Layers);
}

/// Run `setup` `reps` times; keep the last result and report the median
/// set-up time in seconds.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(std::hint::black_box(setup()));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// The process-wide flight recorder's (events, bytes) counters.
pub fn flight_counts() -> (u64, u64) {
    let ring = repro_obs::flight::global().ring();
    (ring.events_recorded(), ring.bytes_recorded())
}

/// A seeded 64-bit mix (splitmix64 finalizer over the xor of its inputs).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
