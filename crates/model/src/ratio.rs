//! Exact rational arithmetic on `i128`.
//!
//! The feasibility theory in Ahuja–Lu–Moseley is stated over the reals, but
//! several of our oracles (the exact branch-and-bound partitioner, the
//! level-algorithm feasibility condition, the simulator's time scaling) need
//! *exact* comparisons: a task set sitting exactly on a bound must classify
//! deterministically, or the experiment harness would report phantom
//! approximation-ratio violations.
//!
//! [`Ratio`] is a minimal normalized fraction over `i128`. All operations
//! reduce eagerly by the gcd, and arithmetic panics on overflow (the
//! workloads we generate keep numerators far below `i128::MAX`; an overflow
//! indicates a misuse such as summing thousands of incommensurable periods,
//! for which the f64 path should be used instead — see `DESIGN.md` §10).
//! Comparison never overflows: [`Ord`] widens its cross-products to 256
//! bits, so every order built on it is exact.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Greatest common divisor of two non-negative `i128` values.
#[inline]
pub fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    debug_assert!(a >= 0 && b >= 0);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// An exact rational number `num / den`, always normalized so that
/// `den > 0` and `gcd(|num|, den) == 1`.
///
/// ```
/// use hetfeas_model::Ratio;
/// let a = Ratio::new(2, 4);
/// assert_eq!(a, Ratio::new(1, 2));
/// assert_eq!((a + Ratio::new(1, 3)).to_string(), "5/6");
/// assert!(a < Ratio::new(2, 3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Create a new ratio, normalizing the sign and reducing by the gcd.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[inline]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Ratio denominator must be non-zero");
        let sign = if (num < 0) != (den < 0) && num != 0 {
            -1
        } else {
            1
        };
        let (num, den) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_i128(num as i128, den as i128).max(1);
        Ratio {
            num: sign * (num as i128 / g),
            den: den as i128 / g,
        }
    }

    /// Ratio representing the integer `n`.
    #[inline]
    pub const fn from_integer(n: i128) -> Self {
        Ratio { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    #[inline]
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    #[inline]
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Convert to `f64` (possibly lossy).
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Best-effort conversion from an `f64` using a bounded continued
    /// fraction expansion (Stern–Brocot descent), with denominator capped by
    /// `max_den`. Useful for turning user-facing speed factors like `2.98`
    /// into exact ratios; returns `None` for non-finite inputs.
    pub fn approximate_f64(x: f64, max_den: i128) -> Option<Ratio> {
        if !x.is_finite() {
            return None;
        }
        let neg = x < 0.0;
        let mut x = x.abs();
        // Continued fraction convergents p/q.
        let (mut p0, mut q0, mut p1, mut q1) = (0i128, 1i128, 1i128, 0i128);
        for _ in 0..64 {
            let a = x.floor();
            if a > i128::MAX as f64 {
                return None;
            }
            let a = a as i128;
            let p2 = a.checked_mul(p1)?.checked_add(p0)?;
            let q2 = a.checked_mul(q1)?.checked_add(q0)?;
            if q2 > max_den {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a as f64;
            if frac < 1e-15 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            return None;
        }
        Some(Ratio::new(if neg { -p1 } else { p1 }, q1))
    }

    /// True if the ratio is an integer.
    #[inline]
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True if the value is exactly zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    #[inline]
    pub fn recip(&self) -> Ratio {
        assert!(self.num != 0, "cannot invert zero Ratio");
        Ratio::new(self.den * self.num.signum(), self.num.abs())
    }

    /// Absolute value.
    #[inline]
    pub fn abs(&self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Floor as an integer.
    #[inline]
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling as an integer.
    #[inline]
    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(&self, rhs: &Ratio) -> Option<Ratio> {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l  with l = lcm(b, d).
        let g = gcd_i128(self.den, rhs.den);
        let lb = rhs.den / g;
        let ld = self.den / g;
        let l = self.den.checked_mul(lb)?;
        let n = self
            .num
            .checked_mul(lb)?
            .checked_add(rhs.num.checked_mul(ld)?)?;
        Some(Ratio::new(n, l))
    }

    /// Checked multiplication; `None` on overflow.
    pub fn checked_mul(&self, rhs: &Ratio) -> Option<Ratio> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd_i128(self.num.abs(), rhs.den).max(1);
        let g2 = gcd_i128(rhs.num.abs(), self.den).max(1);
        let n = (self.num / g1).checked_mul(rhs.num / g2)?;
        let d = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Ratio::new(n, d))
    }

    /// Minimum of two ratios.
    #[inline]
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two ratios.
    #[inline]
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({}/{})", self.num, self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i128> for Ratio {
    fn from(n: i128) -> Self {
        Ratio::from_integer(n)
    }
}

impl From<u64> for Ratio {
    fn from(n: u64) -> Self {
        Ratio::from_integer(n as i128)
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Self {
        Ratio::from_integer(n as i128)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Full 256-bit product of two `u128` values as `(high, low)` halves, so
/// tuple order is numeric order.
fn mul_wide(x: u128, y: u128) -> (u128, u128) {
    const LO: u128 = u64::MAX as u128;
    let (x1, x0) = (x >> 64, x & LO);
    let (y1, y0) = (y >> 64, y & LO);
    let (p00, p01, p10, p11) = (x0 * y0, x0 * y1, x1 * y0, x1 * y1);
    // Each term is below 2^64, so the sum cannot overflow.
    let mid = (p00 >> 64) + (p01 & LO) + (p10 & LO);
    let low = (p00 & LO) | (mid << 64);
    let high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (high, low)
}

impl Ord for Ratio {
    /// Exact for every pair of ratios: `a/b` vs `c/d` is `a·d` vs `c·b`
    /// (denominators positive), taken in `i128` when the products fit and
    /// otherwise as signs first, then 256-bit magnitudes.
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_fractions(self.num, self.den, other.num, other.den)
    }
}

/// [`Ratio::cmp`] on `a/b` and `c/d` given as parts, for positive
/// denominators; the fractions need not be reduced.
pub(crate) fn cmp_fractions(a: i128, b: i128, c: i128, d: i128) -> Ordering {
    if let (Some(l), Some(r)) = (a.checked_mul(d), c.checked_mul(b)) {
        return l.cmp(&r);
    }
    // An overflowing product has a non-zero numerator, so the signs
    // either decide or are equal and non-zero.
    match a.signum().cmp(&c.signum()) {
        Ordering::Equal => {}
        ord => return ord,
    }
    let l = mul_wide(a.unsigned_abs(), d as u128);
    let r = mul_wide(c.unsigned_abs(), b as u128);
    if a < 0 {
        r.cmp(&l)
    } else {
        l.cmp(&r)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.checked_add(&rhs).expect("Ratio addition overflow")
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        self.checked_mul(&rhs)
            .expect("Ratio multiplication overflow")
    }
}

impl Div for Ratio {
    type Output = Ratio;
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiplication by the reciprocal
    fn div(self, rhs: Ratio) -> Ratio {
        self * rhs.recip()
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = *self - rhs;
    }
}

impl MulAssign for Ratio {
    fn mul_assign(&mut self, rhs: Ratio) {
        *self = *self * rhs;
    }
}

impl DivAssign for Ratio {
    fn div_assign(&mut self, rhs: Ratio) {
        *self = *self / rhs;
    }
}

impl core::iter::Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_reduces_and_fixes_sign() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(-2, 4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, -7), Ratio::ZERO);
        assert_eq!(Ratio::new(0, 7).denom(), 1);
    }

    #[test]
    fn arithmetic_basics() {
        let half = Ratio::new(1, 2);
        let third = Ratio::new(1, 3);
        assert_eq!(half + third, Ratio::new(5, 6));
        assert_eq!(half - third, Ratio::new(1, 6));
        assert_eq!(half * third, Ratio::new(1, 6));
        assert_eq!(half / third, Ratio::new(3, 2));
        assert_eq!(-half, Ratio::new(-1, 2));
    }

    #[test]
    fn ordering_is_exact() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::new(-1, 3));
        assert!(Ratio::new(7, 7) == Ratio::ONE);
        let mut v = vec![Ratio::new(3, 4), Ratio::new(2, 3), Ratio::new(5, 6)];
        v.sort();
        assert_eq!(
            v,
            vec![Ratio::new(2, 3), Ratio::new(3, 4), Ratio::new(5, 6)]
        );
    }

    #[test]
    fn ordering_stays_exact_when_cross_products_overflow() {
        // (p+1)/p for p near u64::MAX: the cross-products exceed i128 and
        // the f64 images are both 1.0, yet (q+1)/q with q = p−1 is larger.
        let lighter = Ratio::new(18446744073709551557, 18446744073709551556);
        let heavier = Ratio::new(18446744073709551556, 18446744073709551555);
        assert_eq!(lighter.to_f64(), heavier.to_f64());
        assert!(lighter < heavier);
        assert!(-heavier < -lighter);
        assert_eq!(heavier.cmp(&heavier), Ordering::Equal);
        // Mixed signs and extreme magnitudes decide by sign.
        let huge = Ratio::new(i128::MAX, 3);
        let tiny = Ratio::new(1, i128::MAX);
        assert!(tiny < huge);
        assert!(-huge < tiny);
        assert!(Ratio::ZERO < tiny);
        assert!(Ratio::new(i128::MIN + 1, 7) < Ratio::new(-1, i128::MAX));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Ratio::new(7, 2).floor(), 3);
        assert_eq!(Ratio::new(7, 2).ceil(), 4);
        assert_eq!(Ratio::new(-7, 2).floor(), -4);
        assert_eq!(Ratio::new(-7, 2).ceil(), -3);
        assert_eq!(Ratio::from_integer(5).floor(), 5);
        assert_eq!(Ratio::from_integer(5).ceil(), 5);
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(Ratio::new(-2, 3).recip(), Ratio::new(-3, 2));
        assert_eq!(Ratio::new(-2, 3).abs(), Ratio::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_of_zero_panics() {
        let _ = Ratio::ZERO.recip();
    }

    #[test]
    #[should_panic(expected = "denominator must be non-zero")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn sum_iterator() {
        let s: Ratio = (1..=4).map(|k| Ratio::new(1, k)).sum();
        assert_eq!(s, Ratio::new(25, 12));
    }

    #[test]
    fn approximate_f64_roundtrips_simple_values() {
        assert_eq!(Ratio::approximate_f64(0.5, 1000).unwrap(), Ratio::new(1, 2));
        assert_eq!(
            Ratio::approximate_f64(2.98, 1000).unwrap(),
            Ratio::new(149, 50)
        );
        assert_eq!(
            Ratio::approximate_f64(3.0, 1000).unwrap(),
            Ratio::from_integer(3)
        );
        assert_eq!(
            Ratio::approximate_f64(-0.25, 1000).unwrap(),
            Ratio::new(-1, 4)
        );
        assert!(Ratio::approximate_f64(f64::NAN, 1000).is_none());
        assert!(Ratio::approximate_f64(f64::INFINITY, 1000).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Ratio::new(3, 6).to_string(), "1/2");
        assert_eq!(Ratio::from_integer(4).to_string(), "4");
        assert_eq!(Ratio::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn to_f64_matches() {
        assert!((Ratio::new(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn min_max() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let big = Ratio::new(i128::MAX - 1, 1);
        assert!(big.checked_add(&big).is_none());
        assert!(big.checked_mul(&big).is_none());
        // And a near-limit case that still fits.
        let half = Ratio::new(i128::MAX / 2, 1);
        assert_eq!(half.checked_add(&half), Some(Ratio::new(i128::MAX - 1, 1)));
    }
}
