//! Minimal complex arithmetic for AC (phasor) analysis.
//!
//! The harvester's analytic steady-state solution works with impedances
//! `Z(jω)`; this module provides just enough complex algebra for that,
//! with operator overloads matching `f64` ergonomics, plus the
//! platform-independent [`hypot`] behind [`Complex::abs`] and its
//! lane-parallel form [`hypot_lanes`].

use std::hint::select_unpredictable;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// `2^-600`: glibc's scale factor for the huge and tiny ranges.
const SCALE: f64 = f64::from_bits((1023 - 600) << 52);
/// `2^511`: above this, `ax²` may overflow.
const LARGE_VAL: f64 = f64::from_bits((1023 + 511) << 52);
/// `2^-459`: below this, `ay²` may lose bits to underflow.
const TINY_VAL: f64 = f64::from_bits((1023 - 459) << 52);
/// `2^-54`: below this ratio `ay` cannot change the rounded result.
const EPS: f64 = f64::from_bits((1023 - 54) << 52);

/// `sqrt(x² + y²)` without undue overflow or underflow: a port of
/// glibc's (≥ 2.35) non-FMA `__hypot`, op for op, minus `errno`.
///
/// The result is correctly rounded in practice (glibc documents < 1
/// ulp) and, unlike `f64::hypot`, its bits do not depend on the
/// platform's libm: on x86-64 glibc ≥ 2.35 the two agree bit for bit
/// (asserted by the crate's `hypot` test battery).
///
/// This is the width-1 instance of [`hypot_lanes`].
///
/// ```
/// use ehsim_numeric::complex::hypot;
///
/// assert_eq!(hypot(3.0, -4.0), 5.0);
/// assert_eq!(hypot(f64::NAN, f64::INFINITY), f64::INFINITY);
/// assert_eq!(hypot(1e300, 1e300), 1e300 * 2f64.sqrt());
/// ```
#[inline]
pub fn hypot(x: f64, y: f64) -> f64 {
    hypot_lanes([x], [y])[0]
}

/// [`hypot`] of `N` independent pairs, bit-identical to `N` scalar
/// calls.
///
/// When every pair is already ordered and in glibc's common range
/// (`|x| >= |y|`, `|x|` finite and at most `2^511`, `|y|` at least
/// `2^-459` and more than `2^-54·|x|`), the group runs only the inline
/// kernel, as short per-element loops that optimised builds pack into
/// SIMD. Otherwise each pair takes the whole routine, out of line.
/// Ordering the pair inline instead put a `max`/`min` on the latency
/// chain and measured ~7 % slower per scalar call; the PPU's pairs are
/// always ordered.
///
/// ```
/// use ehsim_numeric::complex::{hypot, hypot_lanes};
///
/// let (x, y) = ([3.0, 1e-320, 2.0], [4.0, 0.0, f64::INFINITY]);
/// let h = hypot_lanes(x, y);
/// for k in 0..3 {
///     assert_eq!(h[k].to_bits(), hypot(x[k], y[k]).to_bits());
/// }
/// ```
#[inline(always)]
pub fn hypot_lanes<const N: usize>(x: [f64; N], y: [f64; N]) -> [f64; N] {
    let (ax, ay) = (x.map(f64::abs), y.map(f64::abs));
    // Non-short-circuit `&`, so the test packs like the rest.
    let common = (0..N).fold(true, |common, k| {
        common
            & (ax[k] >= ay[k])
            & (ax[k] <= LARGE_VAL)
            & (ay[k] >= TINY_VAL)
            & (ay[k] > ax[k] * EPS)
    });
    let mut h = [0.0; N];
    if common {
        for k in 0..N {
            h[k] = hypot_kernel(ax[k], ay[k]);
        }
    } else {
        for k in 0..N {
            h[k] = hypot_ranges(x[k], y[k]);
        }
    }
    h
}

/// The whole of glibc's `__hypot`: non-finite inputs, then the huge,
/// tiny and common ranges, each with its `ax + ay` shortcut when `ay`
/// is too small to change the rounded result.
#[cold]
#[inline(never)]
fn hypot_ranges(x: f64, y: f64) -> f64 {
    if !x.is_finite() || !y.is_finite() {
        if (x.is_infinite() || y.is_infinite()) && !is_signaling(x) && !is_signaling(y) {
            return f64::INFINITY;
        }
        return x + y;
    }
    let (x, y) = (x.abs(), y.abs());
    let (ax, ay) = if x < y { (y, x) } else { (x, y) };
    if ax > LARGE_VAL {
        if ay <= ax * EPS {
            return ax + ay;
        }
        return hypot_kernel(ax * SCALE, ay * SCALE) / SCALE;
    }
    if ay < TINY_VAL {
        if ax >= ay / EPS {
            return ax + ay;
        }
        return hypot_kernel(ax / SCALE, ay / SCALE) * SCALE;
    }
    if ay <= ax * EPS {
        return ax + ay;
    }
    hypot_kernel(ax, ay)
}

/// glibc's non-FMA hypot kernel for `ax >= ay >= 0` whose squares
/// neither overflow nor underflow: `sqrt(ax² + ay²)` plus one
/// correction step. Both arms of glibc's branch on `h <= 2·ay` are
/// computed and one is selected, which keeps lane loops branch-free.
#[inline(always)]
fn hypot_kernel(ax: f64, ay: f64) -> f64 {
    let h = (ax * ax + ay * ay).sqrt();
    let near = h <= 2.0 * ay;
    let delta_y = h - ay;
    let t1_y = ax * (2.0 * delta_y - ax);
    let t2_y = (delta_y - 2.0 * (ax - ay)) * delta_y;
    let delta_x = h - ax;
    let t1_x = 2.0 * delta_x * (ax - 2.0 * ay);
    let t2_x = (4.0 * delta_x - ay) * ay + delta_x * delta_x;
    let t1 = select_unpredictable(near, t1_y, t1_x);
    let t2 = select_unpredictable(near, t2_y, t2_x);
    h - (t1 + t2) / (2.0 * h)
}

/// Whether `v` is a signalling NaN (quiet bit clear).
fn is_signaling(v: f64) -> bool {
    v.is_nan() && v.to_bits() & (1 << 51) == 0
}

/// A complex number `re + j·im`.
///
/// # Example
///
/// ```
/// use ehsim_numeric::complex::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// let w = z * Complex::i();
/// assert_eq!(w, Complex::new(-4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + j·im`.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The imaginary unit `j`.
    pub fn i() -> Self {
        Complex { re: 0.0, im: 1.0 }
    }

    /// A purely real number.
    pub fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `|z|`, via the ported [`hypot`]: its bits are the same
    /// on every platform, whatever the local libm's `hypot` returns.
    #[inline]
    pub fn abs(&self) -> f64 {
        hypot(self.re, self.im)
    }

    /// Squared magnitude `|z|²`.
    pub fn abs_sq(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians.
    pub fn arg(&self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(&self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when inverting exact zero.
    pub fn inv(&self) -> Self {
        let d = self.abs_sq();
        debug_assert!(d > 0.0, "inverting zero complex number");
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(2.0, -3.0);
        let w = Complex::new(-1.0, 4.0);
        assert_eq!(z + w, Complex::new(1.0, 1.0));
        assert_eq!(z - w, Complex::new(3.0, -7.0));
        assert_eq!(z * Complex::real(1.0), z);
        // (2-3j)(-1+4j) = -2+8j+3j+12 = 10+11j
        assert_eq!(z * w, Complex::new(10.0, 11.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let z = Complex::new(2.0, -3.0);
        let w = Complex::new(-1.0, 4.0);
        let q = (z * w) / w;
        assert!((q - z).abs() < 1e-12);
    }

    #[test]
    fn polar_quantities() {
        let z = Complex::new(0.0, 2.0);
        assert_eq!(z.abs(), 2.0);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(z.conj(), Complex::new(0.0, -2.0));
        assert_eq!(Complex::i() * Complex::i(), Complex::real(-1.0));
    }

    #[test]
    fn inverse_and_scalar_ops() {
        let z = Complex::new(3.0, 4.0);
        let zi = z.inv();
        assert!((z * zi - Complex::real(1.0)).abs() < 1e-12);
        assert_eq!(z * 2.0, Complex::new(6.0, 8.0));
        assert_eq!(z / 2.0, Complex::new(1.5, 2.0));
        let from: Complex = 5.0.into();
        assert_eq!(from, Complex::real(5.0));
    }
}
