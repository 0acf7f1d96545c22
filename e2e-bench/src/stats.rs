//! Order statistics over latency samples, and a bounded sample store.

/// Linear-interpolated percentile `p` (0..=100) of an ascending slice.
pub fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The values in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    pct(&sorted(values), 50.0)
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples left beyond percentile `p` of `n` samples. A tail percentile is
/// only reported as trustworthy when this is at least ten.
pub fn beyond(n: usize, p: f64) -> f64 {
    n as f64 * (1.0 - p / 100.0)
}

/// A fixed-capacity uniform sample of latencies (Vitter's algorithm R with
/// a fixed-seed generator). The buffer is written in full up front, so the
/// process's resident memory does not grow with the number of operations a
/// run completes.
pub struct Reservoir {
    buf: Vec<f64>,
    len: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        Reservoir {
            buf: vec![f64::NAN; cap.max(1)],
            len: 0,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Offer one sample.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = x;
            self.len += 1;
            return;
        }
        // xorshift64*: cheap, deterministic, good enough for sampling.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let j = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if (j as usize) < self.buf.len() {
            self.buf[j as usize] = x;
        }
    }

    /// The kept samples, in no particular order.
    pub fn kept(&self) -> &[f64] {
        &self.buf[..self.len]
    }
}

/// The kept samples of several equally sized reservoirs (one per client
/// thread, each offered a similar number of samples), in ascending order.
pub fn pooled(reservoirs: &[Reservoir]) -> Vec<f64> {
    let all: Vec<f64> = reservoirs.iter().flat_map(|r| r.kept()).copied().collect();
    sorted(&all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 50.0), 50.0);
        assert_eq!(pct(&v, 90.0), 90.0);
        assert_eq!(pct(&[1.0, 2.0], 50.0), 1.5);
        assert!(pct(&[], 50.0).is_nan());
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.kept().len(), 1000);
        let m = median(r.kept());
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
    }
}
