//! Selectors: map `(profile, tolerance)` to the cheapest acceptable
//! algorithm.

use crate::calibrate::CalibrationTable;
use crate::cost::CostModel;
use crate::profile::DataProfile;
use repro_fp::UNIT_ROUNDOFF;
use repro_sum::Algorithm;

/// How much run-to-run variability the application can tolerate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Absolute spread: the standard deviation of results across reduction
    /// orders must stay below this (the paper's Figure 12 thresholds
    /// `t = 5e-13 … 5e-14` are of this kind).
    AbsoluteSpread(f64),
    /// Spread relative to the magnitude of the result.
    RelativeSpread(f64),
    /// Bitwise reproducibility: only a reproducible operator will do.
    Bitwise,
}

/// The absolute spread budget `tolerance` resolves to on `profile`, or
/// `None` when only a reproducible operator qualifies: a bitwise request,
/// or a relative one on a zero (or fully cancelled) sum, which has no
/// magnitude to be relative to.
pub(crate) fn absolute_budget(profile: &DataProfile, tolerance: Tolerance) -> Option<f64> {
    match tolerance {
        Tolerance::Bitwise => None,
        Tolerance::AbsoluteSpread(t) => Some(t),
        Tolerance::RelativeSpread(r) => {
            let scale = profile.sum_estimate.abs();
            (scale != 0.0).then_some(r * scale)
        }
    }
}

/// A selection policy.
pub trait Selector {
    /// The cheapest algorithm expected to meet `tolerance` on data shaped
    /// like `profile`.
    fn choose(&self, profile: &DataProfile, tolerance: Tolerance) -> Algorithm;
}

/// Analytic selector: closed-form variability predictors per algorithm.
///
/// Predicted spread across reduction orders (absolute):
///
/// | algorithm | predictor | rationale |
/// |-----------|-----------|-----------|
/// | ST | `√n · u · Σ\|x\|` | random-walk roundoff accumulation |
/// | K / Neumaier | `2u · Σ\|x\|` | compensated bound, n-independent |
/// | CP | `n · u² · Σ\|x\|` | second-order residual only |
/// | PR / DS | `0` | bitwise reproducible |
///
/// These are the statistical counterparts of the bounds in `repro-fp`; the
/// calibrated selector replaces them with measurements. Candidates come
/// from [`CostModel::ladder`]: ST, K and CP cheapest first, then the
/// reproducible rung ([`CostModel::reproducible_rung`], DS on the
/// committed baseline), which is also the answer to a bitwise request.
#[derive(Clone, Debug, Default)]
pub struct HeuristicSelector {
    /// Cost model used to order candidates and pick the reproducible rung
    /// (defaults to the calibrated baseline).
    pub costs: CostModel,
}

/// Predicted absolute spread for one algorithm on one profile.
pub fn predicted_spread(alg: Algorithm, p: &DataProfile) -> f64 {
    let n = p.n.max(1) as f64;
    let a = p.abs_sum;
    match alg {
        Algorithm::Standard => n.sqrt() * UNIT_ROUNDOFF * a,
        Algorithm::Pairwise => n.log2().max(1.0).sqrt() * UNIT_ROUNDOFF * a,
        Algorithm::Kahan | Algorithm::Neumaier => 2.0 * UNIT_ROUNDOFF * a,
        Algorithm::Composite | Algorithm::DoubleDouble => n * UNIT_ROUNDOFF * UNIT_ROUNDOFF * a,
        Algorithm::Binned { .. } | Algorithm::Distill => 0.0,
    }
}

impl Selector for HeuristicSelector {
    fn choose(&self, profile: &DataProfile, tolerance: Tolerance) -> Algorithm {
        let rung = self.costs.reproducible_rung();
        let Some(budget) = absolute_budget(profile, tolerance) else {
            return rung;
        };
        self.costs
            .ladder()
            .into_iter()
            .find(|&alg| predicted_spread(alg, profile) <= budget)
            .unwrap_or(rung)
    }
}

/// Empirical selector: nearest calibrated `(k, dr)` cell, cheapest
/// non-reproducible algorithm whose **measured** spread fits the budget
/// (scaled by `n` relative to the calibration size for the n-sensitive
/// algorithms), else the cost model's reproducible rung. Reproducible
/// columns of the table (PR's measured zero) stand in for the rung.
#[derive(Clone, Debug)]
pub struct CalibratedSelector {
    table: CalibrationTable,
    costs: CostModel,
}

impl CalibratedSelector {
    /// Wrap a calibration table with the default cost model.
    pub fn new(table: CalibrationTable) -> Self {
        Self {
            table,
            costs: CostModel::default(),
        }
    }

    /// Scale a calibrated spread from the calibration `n` to the profile's
    /// `n` (√n growth, per the random-walk model).
    fn rescale(&self, spread: f64, n: usize) -> f64 {
        let ratio = (n.max(1) as f64 / self.table.n.max(1) as f64).sqrt();
        spread * ratio
    }
}

impl Selector for CalibratedSelector {
    fn choose(&self, profile: &DataProfile, tolerance: Tolerance) -> Algorithm {
        let rung = self.costs.reproducible_rung();
        let Some(budget) = absolute_budget(profile, tolerance) else {
            return rung;
        };
        let cell = self.table.nearest(profile.k, profile.dr_decades());
        let mut candidates: Vec<(Algorithm, f64)> = cell
            .spread
            .iter()
            .copied()
            .filter(|(alg, _)| !alg.is_reproducible())
            .collect();
        candidates.sort_by(|a, b| self.costs.cost(a.0).total_cmp(&self.costs.cost(b.0)));
        candidates
            .into_iter()
            .find(|&(_, measured)| self.rescale(measured, profile.n) <= budget)
            .map_or(rung, |(alg, _)| alg)
    }
}

/// Empirical selector without a calibration table: estimate each
/// algorithm's spread by reducing a **subsample** of the data under a few
/// random shuffles, escalating until the measured spread fits the budget.
///
/// The middle ground between [`HeuristicSelector`] (model, free) and
/// full calibration (measured, expensive): cost is
/// `O(shuffles · subsample)` per choice, independent of `n`.
#[derive(Clone, Debug)]
pub struct SampledSelector {
    /// Values drawn from the data per probe (deterministic stride sample).
    pub subsample: usize,
    /// Shuffled reductions per algorithm probe.
    pub shuffles: u32,
    /// Probe RNG seed.
    pub seed: u64,
    costs: CostModel,
}

impl Default for SampledSelector {
    fn default() -> Self {
        Self {
            subsample: 2_048,
            shuffles: 8,
            seed: 0x5A3D,
            costs: CostModel::default(),
        }
    }
}

impl SampledSelector {
    /// Measured spread of `alg` over shuffled reductions of the subsample,
    /// rescaled from the subsample size to `n` (√ growth model).
    fn probe(&self, alg: Algorithm, sample: &[f64], n: usize) -> f64 {
        use repro_fp::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut work = sample.to_vec();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..self.shuffles.max(2) {
            rng.shuffle(&mut work);
            let r = alg.sum(&work);
            min = min.min(r);
            max = max.max(r);
        }
        let spread = max - min;
        let scale = (n.max(1) as f64 / sample.len().max(1) as f64).sqrt();
        spread * scale
    }
}

impl Selector for SampledSelector {
    fn choose(&self, profile: &DataProfile, tolerance: Tolerance) -> Algorithm {
        // The profile alone cannot carry the sample; selectors are given the
        // derived quantities only, so the sampled probe reconstructs a
        // surrogate workload with the profile's (n, k, dr) via the
        // generator — measuring on data *shaped like* the input.
        let rung = self.costs.reproducible_rung();
        let Some(budget) = absolute_budget(profile, tolerance) else {
            return rung;
        };
        let n = profile.n.max(2);
        let m = self.subsample.min(n).max(2);
        let surrogate = repro_gen::grid_cell(
            m,
            if profile.k.is_finite() {
                profile.k.max(1.0)
            } else {
                f64::INFINITY
            },
            profile.dr_decades().max(0) as u32,
            self.seed,
            1e16,
        );
        // Rescale the surrogate to the data's magnitude so absolute spreads
        // are comparable.
        let surrogate_abs = repro_fp::exact_abs_sum(&surrogate);
        let factor = if surrogate_abs > 0.0 {
            profile.abs_sum / surrogate_abs
        } else {
            1.0
        };
        let scaled: Vec<f64> = surrogate.iter().map(|v| v * factor).collect();
        self.costs
            .ladder()
            .into_iter()
            .find(|&alg| alg.is_reproducible() || self.probe(alg, &scaled, n) <= budget)
            .unwrap_or(rung)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{calibrate, CalibrationConfig};
    use crate::profile::profile;

    #[test]
    fn bitwise_always_selects_the_reproducible_rung() {
        let p = profile(&[1.0, 2.0]);
        let sel = HeuristicSelector::default();
        assert_eq!(sel.choose(&p, Tolerance::Bitwise), Algorithm::Distill);
        assert_eq!(
            sel.choose(&p, Tolerance::Bitwise),
            sel.costs.reproducible_rung()
        );
    }

    #[test]
    fn loose_tolerance_selects_st_on_benign_data() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let p = profile(&values);
        let alg = HeuristicSelector::default().choose(&p, Tolerance::AbsoluteSpread(1e-6));
        assert_eq!(alg, Algorithm::Standard);
    }

    #[test]
    fn tightening_tolerance_escalates_monotonically() {
        let values = repro_gen::zero_sum_with_range(10_000, 16, 3);
        let p = profile(&values);
        let sel = HeuristicSelector::default();
        let mut last_rank = 0u8;
        for t in [1e-3, 1e-8, 1e-11, 1e-14, 1e-17, 0.0] {
            let alg = sel.choose(&p, Tolerance::AbsoluteSpread(t));
            assert!(
                alg.cost_rank() >= last_rank,
                "tolerance {t:e} de-escalated to {alg}"
            );
            last_rank = alg.cost_rank();
        }
        // The zero-tolerance end must be the reproducible rung.
        assert_eq!(
            sel.choose(&p, Tolerance::AbsoluteSpread(0.0)),
            Algorithm::Distill
        );
    }

    #[test]
    fn relative_tolerance_on_zero_sum_forces_the_rung() {
        let values = repro_gen::zero_sum_with_range(100, 8, 9);
        let p = profile(&values);
        let alg = HeuristicSelector::default().choose(&p, Tolerance::RelativeSpread(1e-6));
        assert_eq!(alg, Algorithm::Distill);
    }

    #[test]
    fn calibrated_selector_is_cost_ordered_and_safe() {
        let table = calibrate(&CalibrationConfig {
            k_targets: vec![1.0, f64::INFINITY],
            dr_targets: vec![0, 16],
            n: 256,
            permutations: 6,
            algorithms: Algorithm::PAPER_SET.to_vec(),
            seed: 7,
        });
        let sel = CalibratedSelector::new(table);
        // Benign cell, generous budget: cheapest algorithm.
        let benign: Vec<f64> = (1..=256).map(|i| i as f64).collect();
        assert_eq!(
            sel.choose(&profile(&benign), Tolerance::AbsoluteSpread(1.0)),
            Algorithm::Standard
        );
        // Hostile cell, zero budget: the reproducible rung, also when the
        // table's own PR column measured a zero spread.
        let hostile = repro_gen::zero_sum_with_range(256, 16, 1);
        assert_eq!(
            sel.choose(&profile(&hostile), Tolerance::AbsoluteSpread(0.0)),
            Algorithm::Distill
        );
        assert_eq!(
            sel.choose(&profile(&hostile), Tolerance::Bitwise),
            Algorithm::Distill
        );
    }

    #[test]
    fn sampled_selector_matches_reality_on_the_extremes() {
        let sel = SampledSelector::default();
        // Benign: generous budget -> ST.
        let benign: Vec<f64> = (1..=4096).map(|i| i as f64).collect();
        assert_eq!(
            sel.choose(&profile(&benign), Tolerance::AbsoluteSpread(1.0)),
            Algorithm::Standard
        );
        // Hostile with a tiny budget -> escalates past ST.
        let hostile = repro_gen::zero_sum_with_range(4096, 24, 3);
        let choice = sel.choose(&profile(&hostile), Tolerance::AbsoluteSpread(1e-13));
        assert!(
            choice.cost_rank() > Algorithm::Standard.cost_rank(),
            "chose {choice}"
        );
        // Bitwise -> the reproducible rung.
        assert_eq!(
            sel.choose(&profile(&hostile), Tolerance::Bitwise),
            Algorithm::Distill
        );
    }

    #[test]
    fn sampled_selector_is_deterministic() {
        let sel = SampledSelector::default();
        let data = repro_gen::zero_sum_with_range(2048, 16, 5);
        let p = profile(&data);
        let a = sel.choose(&p, Tolerance::AbsoluteSpread(1e-12));
        let b = sel.choose(&p, Tolerance::AbsoluteSpread(1e-12));
        assert_eq!(a, b);
    }

    #[test]
    fn predicted_spread_orderings() {
        let values = repro_gen::zero_sum_with_range(4096, 8, 2);
        let p = profile(&values);
        let st = predicted_spread(Algorithm::Standard, &p);
        let k = predicted_spread(Algorithm::Kahan, &p);
        let cp = predicted_spread(Algorithm::Composite, &p);
        let pr = predicted_spread(Algorithm::PR, &p);
        assert!(st > k && k > cp && cp > pr);
        assert_eq!(pr, 0.0);
    }
}
