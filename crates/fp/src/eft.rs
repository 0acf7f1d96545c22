//! Error-free transforms (EFTs).
//!
//! An error-free transform expresses the exact result of a floating-point
//! operation as an *unevaluated sum* of floating-point numbers. For addition,
//! `two_sum(a, b)` returns `(s, e)` with `s = fl(a + b)` and `a + b = s + e`
//! **exactly**. These identities hold for every pair of finite `f64` inputs
//! (barring overflow) under IEEE-754 round-to-nearest, and are the foundation
//! of Kahan's compensated summation, composite-precision summation,
//! double-double arithmetic, and the binned/prerounded reproducible sums.

/// Knuth's branch-free two-sum.
///
/// Returns `(s, e)` with `s = fl(a + b)` and `s + e == a + b` exactly,
/// for any finite `a`, `b` whose sum does not overflow.
///
/// Costs 6 floating-point operations but places no precondition on the
/// relative magnitudes of `a` and `b`.
///
/// ```
/// use repro_fp::eft::two_sum;
/// let (s, e) = two_sum(1e16, 1.0);
/// assert_eq!(s, 1e16);      // 1.0 is entirely absorbed ...
/// assert_eq!(e, 1.0);       // ... and entirely recovered in the error term.
/// ```
#[inline(always)]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Dekker's fast two-sum, valid when `|a| >= |b|` (or either is zero).
///
/// Returns `(s, e)` with `s = fl(a + b)` and `s + e == a + b` exactly,
/// in 3 floating-point operations.
///
/// The magnitude precondition is checked with a `debug_assert!`; release
/// builds trust the caller. Prefer [`two_sum`] when the ordering is unknown.
/// Non-finite operands are exempt: there is no error term to recover, and
/// `s` carries the IEEE infinity or NaN onward.
#[inline(always)]
pub fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    debug_assert!(
        b == 0.0 || a.abs() >= b.abs() || a.abs() == 0.0 || !(a.is_finite() && b.is_finite()),
        "fast_two_sum precondition |a| >= |b| violated: a={a:e}, b={b:e}"
    );
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Exact product via fused multiply-add.
///
/// Returns `(p, e)` with `p = fl(a * b)` and `p + e == a * b` exactly
/// (for finite inputs without overflow/underflow into the subnormal range
/// of the error term).
#[inline(always)]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

/// Veltkamp splitting constant for `f64`: `2^27 + 1`.
const SPLIT: f64 = 134_217_729.0;

/// Veltkamp's split: decompose `a` into `hi + lo` where both halves have at
/// most 26 significant bits, so products of halves are exact in `f64`.
///
/// Used by [`two_prod_dekker`], the FMA-free exact product. Exposed for
/// testing and for building further FMA-free kernels.
#[inline(always)]
pub fn split(a: f64) -> (f64, f64) {
    let c = SPLIT * a;
    let hi = c - (c - a);
    let lo = a - hi;
    (hi, lo)
}

/// Dekker's exact product without FMA.
///
/// Returns `(p, e)` with `p = fl(a * b)` and `p + e == a * b` exactly, using
/// Veltkamp splitting. Slower than [`two_prod`] on hardware with FMA but
/// bit-identical to it; kept as a cross-checking reference implementation.
#[inline]
pub fn two_prod_dekker(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let e = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
    (p, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_recovers_absorbed_term() {
        let (s, e) = two_sum(1e16, 1.0);
        assert_eq!(s + e, 1e16 + 1.0);
        assert_eq!(e, 1.0);
    }

    #[test]
    fn two_sum_exact_identity_small_cases() {
        let cases = [
            (0.1, 0.2),
            (1e300, -1e284),
            (1.5, -1.5),
            (3.0, 4.5e-200),
            (-0.0, 0.0),
            (f64::MIN_POSITIVE, f64::MIN_POSITIVE / 2.0),
        ];
        for (a, b) in cases {
            let (s, e) = two_sum(a, b);
            assert_eq!(s, a + b, "s must equal fl(a+b) for ({a},{b})");
            // The identity s + e == a + b is exact in real arithmetic; we can
            // verify it with the superaccumulator in integration tests. Here
            // we at least require that e is the exact residual whenever the
            // residual is representable.
            if e != 0.0 {
                assert!(e.abs() <= 0.5 * crate::ulp::ulp(s).abs() + f64::MIN_POSITIVE);
            }
        }
    }

    #[test]
    fn fast_two_sum_matches_two_sum_when_ordered() {
        let cases = [
            (1e10, 3.7),
            (5.0, 5.0),
            (-8.0, 1.0),
            (2.0, -2.0),
            (1.0, 0.0),
        ];
        for (a, b) in cases {
            let (s1, e1) = two_sum(a, b);
            let (s2, e2) = fast_two_sum(a, b);
            assert_eq!(s1, s2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn two_prod_exact_for_representable_products() {
        let (p, e) = two_prod(1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30));
        // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60; the 2^-60 term is the error.
        assert_eq!(p, 1.0 + 2f64.powi(-29));
        assert_eq!(e, 2f64.powi(-60));
    }

    #[test]
    fn dekker_product_matches_fma_product() {
        let cases = [
            (0.1, 0.3),
            (1e150, 1e-150),
            (-7.25, 9.875),
            (1.0 / 3.0, 3.0),
            (2f64.powi(500), 2f64.powi(-400)),
        ];
        for (a, b) in cases {
            let (p1, e1) = two_prod(a, b);
            let (p2, e2) = two_prod_dekker(a, b);
            assert_eq!(p1, p2, "products differ for ({a},{b})");
            assert_eq!(e1, e2, "error terms differ for ({a},{b})");
        }
    }

    #[test]
    fn split_halves_multiply_exactly() {
        for a in [0.1, 123456789.123456, -3.5e75, 1.0 + 2f64.powi(-50)] {
            let (hi, lo) = split(a);
            assert_eq!(hi + lo, a);
            // Each half has at most 26 significant bits, so hi*hi is exact.
            let exact = hi * hi;
            assert_eq!(exact, hi * hi);
        }
    }
}
