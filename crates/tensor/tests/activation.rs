//! The activation kernel's contract (`deepbase_tensor::activation`):
//! accuracy against an `f64` reference, monotonicity, `tanh`'s odd
//! symmetry to the bit, `sigmoid`'s range, NaN / `±∞` handling, and the
//! slice form equal to the scalar form bit for bit.
//!
//! The sweep is every binade of both signs at 1,024 stratified mantissas
//! each, plus runs of consecutive `f32`s around every edge of the
//! piecewise definitions: the `tanh` polynomial's end (0.625), where
//! `tanh` rounds to 1 (≈ 9.01) and its clamp (9.5), where `sigmoid`
//! rounds to 1 (≈ 16.6 and 17.3), turns subnormal (≈ −87.3), rounds to 0
//! (≈ −103.3) and its clamps (−104, 20), and the exponent steps of the
//! shared `exp` (multiples of `ln 2`). On it the maximum error is 1.37
//! ulp for `tanh` and 2.48 ulp for `sigmoid`, the same as over all 2³²
//! inputs (`exhaustive_over_every_f32`, ignored by default: about seven
//! minutes in release).

use deepbase_tensor::activation::{sigmoid, sigmoid_slice, tanh, tanh_slice};
use std::f32::consts::LN_2;

const MAX_ULP: f64 = 4.0;

/// Runs of consecutive `f32`s are centred on these (and their negations).
const EDGES: [f32; 12] = [
    0.625,
    9.01,
    9.5,
    16.6,
    17.33,
    20.0,
    87.34,
    103.28,
    104.0,
    LN_2,
    8.0 * LN_2,
    64.0 * LN_2,
];

/// The sweep, sorted ascending, without NaN.
fn sweep() -> Vec<f32> {
    let mut xs = Vec::new();
    for exp in 0u32..=254 {
        for j in 0u32..1024 {
            // A fixed pseudo-random offset inside each stratum.
            let mantissa = (j << 13) | (j.wrapping_mul(2_654_435_761) >> 19);
            let x = f32::from_bits((exp << 23) | mantissa);
            xs.extend([x, -x]);
        }
    }
    for edge in EDGES {
        for centre in [edge, -edge] {
            let bits = centre.to_bits();
            for d in 0..2048u32 {
                xs.extend([f32::from_bits(bits - d), f32::from_bits(bits + d)]);
            }
        }
    }
    xs.extend([
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MAX,
        f32::MIN,
    ]);
    xs.sort_by(f32::total_cmp);
    xs.dedup_by(|a, b| a.to_bits() == b.to_bits());
    xs
}

/// The `f32` spacing at `v`'s magnitude.
fn ulp(v: f64) -> f64 {
    let exp = ((v.abs().to_bits() >> 52) as i32 - 1023).max(-126);
    2f64.powi(exp - 23)
}

/// Distance of `got` from `want` in units of the `f32` spacing at `want`.
fn ulp_error(got: f32, want: f64) -> f64 {
    if want.is_infinite() || got.is_infinite() {
        return if got as f64 == want {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (got as f64 - want).abs() / ulp(want)
}

fn tanh_ref(x: f32) -> f64 {
    (x as f64).tanh()
}

fn sigmoid_ref(x: f32) -> f64 {
    1.0 / (1.0 + (-(x as f64)).exp())
}

/// Maximum error and the count of monotonicity violations of `f` over
/// the ascending `xs`.
fn max_error_and_decreases(
    xs: impl Iterator<Item = f32>,
    f: fn(f32) -> f32,
    reference: fn(f32) -> f64,
) -> (f64, f32, usize) {
    let (mut worst, mut worst_at, mut decreases) = (0.0f64, 0.0f32, 0);
    let mut prev = f32::NEG_INFINITY;
    for x in xs {
        let y = f(x);
        let err = ulp_error(y, reference(x));
        if err > worst {
            (worst, worst_at) = (err, x);
        }
        if y < prev {
            decreases += 1;
        }
        prev = y;
    }
    (worst, worst_at, decreases)
}

#[test]
fn tanh_is_within_four_ulp_and_monotone() {
    let (worst, at, decreases) = max_error_and_decreases(sweep().into_iter(), tanh, tanh_ref);
    println!("tanh: max {worst:.3} ulp at {at:e}");
    assert!(worst <= MAX_ULP, "tanh: {worst:.3} ulp at {at:e}");
    assert_eq!(decreases, 0, "tanh decreases somewhere on the sweep");
}

#[test]
fn sigmoid_is_within_four_ulp_and_monotone() {
    let (worst, at, decreases) = max_error_and_decreases(sweep().into_iter(), sigmoid, sigmoid_ref);
    println!("sigmoid: max {worst:.3} ulp at {at:e}");
    assert!(worst <= MAX_ULP, "sigmoid: {worst:.3} ulp at {at:e}");
    assert_eq!(decreases, 0, "sigmoid decreases somewhere on the sweep");
}

#[test]
fn tanh_is_odd_to_the_bit() {
    for x in sweep().into_iter().chain([f32::NAN, -f32::NAN]) {
        assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x:e}");
    }
}

#[test]
fn sigmoid_stays_in_the_unit_interval() {
    for x in sweep() {
        let s = sigmoid(x);
        assert!((0.0..=1.0).contains(&s), "sigmoid({x:e}) = {s:e}");
    }
}

#[test]
fn special_values() {
    for nan in [f32::NAN, -f32::NAN] {
        assert!(tanh(nan).is_nan());
        assert!(sigmoid(nan).is_nan());
    }
    assert_eq!(tanh(f32::INFINITY), 1.0);
    assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(sigmoid(f32::INFINITY), 1.0);
    assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
    assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(sigmoid(0.0), 0.5);
    // The smallest subnormal passes through tanh unchanged.
    let tiny = f32::from_bits(1);
    assert_eq!(tanh(tiny), tiny);
}

/// Also the cross-ISA check: the slice forms run the copy the dispatcher
/// picks (AVX2 where the CPU has it), the scalar forms here compile for
/// this test's own target.
#[test]
fn slice_form_equals_scalar_form_bit_for_bit() {
    let xs: Vec<f32> = sweep().into_iter().chain([f32::NAN, -f32::NAN]).collect();
    // Several starting offsets, so vector bodies and scalar tails both
    // meet every kind of input.
    for len in [0, 1, 7, 64, 65] {
        for start in (0..xs.len().saturating_sub(len)).step_by(997) {
            let window = &xs[start..start + len];
            for (slice_fn, scalar_fn) in [
                (tanh_slice as fn(&mut [f32]), tanh as fn(f32) -> f32),
                (sigmoid_slice, sigmoid),
            ] {
                let mut got = window.to_vec();
                slice_fn(&mut got);
                let want: Vec<u32> = window.iter().map(|&x| scalar_fn(x).to_bits()).collect();
                let got: Vec<u32> = got.iter().map(|y| y.to_bits()).collect();
                assert_eq!(got, want, "len {len} at {start}");
            }
        }
    }
}

#[test]
#[ignore = "every f32: about seven minutes in release"]
fn exhaustive_over_every_f32() {
    // Ascending: −∞ … −0, then +0 … +∞ (NaNs skipped).
    let all = || {
        (0..=0x7F80_0000u32)
            .rev()
            .map(|b| f32::from_bits(b | 0x8000_0000))
            .chain((0..=0x7F80_0000u32).map(f32::from_bits))
    };
    for (name, f, reference) in [
        ("tanh", tanh as fn(f32) -> f32, tanh_ref as fn(f32) -> f64),
        ("sigmoid", sigmoid, sigmoid_ref),
    ] {
        let (worst, at, decreases) = max_error_and_decreases(all(), f, reference);
        println!("{name}: max {worst:.3} ulp at {at:e}, {decreases} decreases");
        assert!(worst <= MAX_ULP && decreases == 0);
    }
}
