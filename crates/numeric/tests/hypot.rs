//! Bit-level battery for the ported `hypot` behind `Complex::abs`.
//!
//! The golden table pins the port's bits on every branch of glibc's
//! routine; the live comparison checks it against the platform libm
//! where that libm is glibc on x86-64.

use ehsim_numeric::complex::{hypot, hypot_lanes, Complex};

/// `(x, y, hypot(x, y))` as raw bits, recorded from glibc 2.36 on
/// x86-64. Each row reaches a named branch: the `2^511` overflow
/// guard, the `2^-459` underflow guard and the `2^-54` ratio guard
/// (each at and one ulp either side), both arms of the kernel,
/// subnormals, signed zeros, infinities and NaNs.
const GOLDEN: &[(u64, u64, u64)] = &[
    (0x5fdfffffffffffff, 0x5fd4cccccccccccd, 0x5fe3153df622e7cf), // just below 2^511: common range
    (0xdfdfffffffffffff, 0x5c7fffffffffffff, 0x5fdfffffffffffff), // ratio 2^-54 at the 2^511 guard
    (0x5fe0000000000000, 0x5fd4cccccccccccd, 0x5fe3153df622e7d0), // 2^511: common range
    (0xdfe0000000000000, 0x5c80000000000000, 0x5fe0000000000000), // ratio 2^-54 at the 2^511 guard
    (0x5fe0000000000001, 0x5fd4cccccccccccd, 0x5fe3153df622e7d1), // just above 2^511: scaled down
    (0xdfe0000000000001, 0x5c80000000000001, 0x5fe0000000000001), // ratio 2^-54 at the 2^511 guard
    (0x7e78000000000000, 0x7e64000000000000, 0x7e7a000000000000), // huge, scaled down
    (0x7fefffffffffffff, 0x7fefffffffffffff, 0x7ff0000000000000), // overflows to inf
    (0x7fefffffffffffff, 0x3ff0000000000000, 0x7fefffffffffffff), // huge with tiny ratio
    (0x234b333333333333, 0x233fffffffffffff, 0x234f8e9323d319f6), // just below 2^-459: scaled up
    (0x269fffffffffffff, 0x233fffffffffffff, 0x269fffffffffffff), // ratio 2^-54 at the 2^-459 guard
    (0x269ffffffffffffe, 0xa33fffffffffffff, 0x269ffffffffffffe), // just inside ratio 2^-54 at the 2^-459 guard
    (0x234b333333333333, 0x2340000000000000, 0x234f8e9323d319f6), // 2^-459: common range
    (0x26a0000000000000, 0x2340000000000000, 0x26a0000000000000), // ratio 2^-54 at the 2^-459 guard
    (0x269fffffffffffff, 0xa340000000000000, 0x269fffffffffffff), // just inside ratio 2^-54 at the 2^-459 guard
    (0x234b333333333333, 0x2340000000000001, 0x234f8e9323d319f6), // just above 2^-459: common range
    (0x26a0000000000001, 0x2340000000000001, 0x26a0000000000001), // ratio 2^-54 at the 2^-459 guard
    (0x26a0000000000000, 0xa340000000000001, 0x26a0000000000000), // just inside ratio 2^-54 at the 2^-459 guard
    (0x2003a089e6c09af7, 0x2003a089e6b5c40e, 0x200bc1c54f51fa67), // ay near 2^-511: unscaled kernel would round up
    (0x3ff0000000000000, 0x3c8fffffffffffff, 0x3ff0000000000000), // ratio just below 2^-54: ax + ay
    (0x3ff0000000000000, 0x3c90000000000000, 0x3ff0000000000000), // ratio 2^-54: ax + ay
    (0x3ff0000000000000, 0x3c90000000000001, 0x3ff0000000000000), // ratio just above 2^-54: kernel
    (0x2d48000000000000, 0x29e7ffffffffffff, 0x2d48000000000000), // ratio just below 2^-54: ax + ay
    (0x2d48000000000000, 0x29e8000000000000, 0x2d48000000000000), // ratio 2^-54: ax + ay
    (0x2d48000000000000, 0x29e8000000000001, 0x2d48000000000000), // ratio just above 2^-54: kernel
    (0x58f199999999999a, 0x5591999999999999, 0x58f199999999999a), // ratio just below 2^-54: ax + ay
    (0x58f199999999999a, 0x559199999999999a, 0x58f199999999999a), // ratio 2^-54: ax + ay
    (0x58f199999999999a, 0x559199999999999b, 0x58f199999999999a), // ratio just above 2^-54: kernel
    (0x4008000000000000, 0x4010000000000000, 0x4014000000000000), // kernel, h <= 2ay
    (0x3ff0000000000000, 0x3fd3333333333333, 0x3ff0b4597bd9942c), // kernel, h > 2ay
    (0x40e00c4b9690496c, 0x406921fb54442d18, 0x40e00c5f44a172c2), // PPU source plus load
    (0x0000000000000001, 0x0000000000000001, 0x0000000000000001), // smallest subnormals
    (0x000fffffffffffff, 0x0008000000000000, 0x0011e3779b97f4a7), // largest subnormals
    (0x00000000000017b8, 0x8000000000001fa0, 0x0000000000002788), // subnormal 3-4-5
    (0x0010000000000000, 0x0000000000000001, 0x0010000000000000), // min normal with smallest subnormal
    (0x01a56e1fc2f8f359, 0x000012688b70e62b, 0x01a56e1fc2f8f359), // tiny normal with subnormal
    (0x0000000000000000, 0x0000000000000000, 0x0000000000000000), // +0, +0
    (0x8000000000000000, 0x8000000000000000, 0x0000000000000000), // -0, -0
    (0x0000000000000000, 0xc008000000000000, 0x4008000000000000), // zero ay
    (0x8000000000000000, 0x0000000000000001, 0x0000000000000001), // -0 with subnormal
    (0x7ff0000000000000, 0x3ff0000000000000, 0x7ff0000000000000), // +inf
    (0x8000000000000000, 0xfff0000000000000, 0x7ff0000000000000), // -inf
    (0x7ff0000000000000, 0xfff0000000000000, 0x7ff0000000000000), // inf, -inf
    (0x7ff8000000000000, 0x3ff0000000000000, 0x7ff8000000000000), // NaN, finite
    (0xc000000000000000, 0xfff8000000000000, 0xfff8000000000000), // finite, -NaN
    (0x7ff8000000000000, 0xfff0000000000000, 0x7ff0000000000000), // NaN, -inf
    (0x7ff0000000000000, 0x7ff8000000000000, 0x7ff0000000000000), // inf, NaN
    (0x7ff0000000000000, 0x7ff0000000000001, 0x7ff8000000000001), // inf, signalling NaN: x + y
];

#[test]
fn hypot_golden_table() {
    for &(x, y, want) in GOLDEN {
        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
        for (a, b) in [(x, y), (y, x), (-x, y), (x, -y)] {
            let got = hypot(a, b).to_bits();
            // Negation and swapping commute with hypot except for the
            // NaN payload of `x + y`, which keeps its operand's sign.
            if f64::from_bits(want).is_nan() && (a, b) != (x, y) {
                assert!(f64::from_bits(got).is_nan(), "hypot({a:e}, {b:e})");
            } else {
                assert_eq!(got, want, "hypot({a:e}, {b:e}) = {:e}", f64::from_bits(got));
            }
        }
    }
}

#[test]
fn hypot_is_complex_abs() {
    for &(x, y, want) in GOLDEN.iter().filter(|r| !f64::from_bits(r.2).is_nan()) {
        let z = Complex::new(f64::from_bits(x), f64::from_bits(y));
        assert_eq!(z.abs().to_bits(), want, "|{z:?}|");
    }
}

/// Groups of golden rows through `hypot_lanes`, so that groups mix the
/// inline kernel with the out-of-line ranges, at every width the batch
/// solver uses and one wider.
#[test]
fn hypot_lanes_match_golden_rows() {
    fn check<const N: usize>() {
        for rows in GOLDEN.chunks(N) {
            let row = |k: usize| rows[k % rows.len()];
            let x: [f64; N] = std::array::from_fn(|k| f64::from_bits(row(k).0));
            let y: [f64; N] = std::array::from_fn(|k| f64::from_bits(row(k).1));
            let h = hypot_lanes(x, y);
            for k in 0..N {
                assert_eq!(
                    h[k].to_bits(),
                    row(k).2,
                    "width {N}, hypot({:e}, {:e})",
                    x[k],
                    y[k]
                );
            }
        }
    }
    check::<1>();
    check::<2>();
    check::<4>();
    check::<8>();
}

/// SplitMix64: a self-contained stream of random bit patterns.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `±m · 2^e` with a uniform mantissa `m` in `[1, 2)` and a
    /// uniform exponent `e` in `[lo, lo + span)`: log-uniform
    /// magnitudes, subnormal and overflowing ends included.
    fn log_uniform(&mut self, lo: i32, span: u64) -> f64 {
        let m = 1.0 + (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let e = lo + (self.next() % span) as i32;
        // Two exact power-of-two factors, so only the last product
        // rounds into the subnormals or overflows.
        let v = m * 2f64.powi(e / 2) * 2f64.powi(e - e / 2);
        if self.next() & 1 == 0 {
            v
        } else {
            -v
        }
    }
}

/// The port against `f64::hypot` (the platform libm) on 1.2·10⁶
/// inputs: random bit patterns (NaNs and infinities included),
/// log-uniform magnitudes over the whole range, and pairs within 64
/// binades of each other, where the kernel and both scaled ranges do
/// their work. glibc ≥ 2.35 on x86-64 runs the same non-FMA routine,
/// so any mismatch there is a finding about that libm, not noise.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[test]
fn hypot_matches_glibc_bit_for_bit() {
    let mut rng = SplitMix(0x5eed);
    let mut mismatches = Vec::new();
    let mut group = ([0.0; 4], [0.0; 4]);
    for k in 0..1_200_000u32 {
        let (x, y) = match k % 3 {
            0 => (f64::from_bits(rng.next()), f64::from_bits(rng.next())),
            1 => (rng.log_uniform(-1080, 2160), rng.log_uniform(-1080, 2160)),
            _ => {
                let x = rng.log_uniform(-1080, 2160);
                let e = ((x.to_bits() >> 52) & 0x7ff) as i32 - 1023;
                (x, rng.log_uniform(e - 64, 128))
            }
        };
        let (got, want) = (hypot(x, y), x.hypot(y));
        // With two NaN operands, IEEE 754 lets `x + y` return either
        // payload, and compilers may commute the add.
        let both_nan = x.is_nan() && y.is_nan() && got.is_nan() && want.is_nan();
        if got.to_bits() != want.to_bits() && !both_nan {
            mismatches.push((x, y, got, want));
        }
        // Every fourth case also checks the last four as one packed
        // group against the scalar port.
        let slot = k as usize % 4;
        (group.0[slot], group.1[slot]) = (x, y);
        if slot == 3 {
            let packed = hypot_lanes(group.0, group.1);
            for (j, h) in packed.iter().enumerate() {
                let (x, y) = (group.0[j], group.1[j]);
                let scalar = hypot(x, y).to_bits();
                assert_eq!(h.to_bits(), scalar, "lane {j}: hypot({x:e}, {y:e})");
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} mismatches against the platform libm, first: {:?}",
        mismatches.len(),
        mismatches.first()
    );
}
