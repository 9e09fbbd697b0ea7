//! The recurrent nonlinearities: `tanh` and the logistic `sigmoid`, in a
//! scalar and an in-place slice form, plus the `exp` they are built on.
//!
//! Every `f32` `tanh` / `sigmoid` in the workspace goes through this one
//! kernel — both LSTM forwards, the seq2seq attention head and the
//! logistic-regression probes — so stored activations equal live
//! extraction on any host, whatever its libm, and the slice form lets the
//! compiler vectorise a gate row. Output bits are part of every stored
//! column's identity: [`VERSION`] is written into the char-LSTM model
//! fingerprint, and a change to any output bit must bump it.
//!
//! The code is branch-free: both halves of a piecewise definition are
//! computed and one is selected, and the exponent split is integer
//! arithmetic on the bits, so the slice loops vectorise at the default
//! x86-64 target (SSE2, no FMA). It uses plain `*` / `+` and never
//! `mul_add`, which that target lowers to a libm call; that is also why
//! the slice form is bit-identical to the scalar one.
//!
//! * `exp`: `e^y = p · 2^k` with `k = ⌊y / ln 2⌋`, a two-part
//!   (Cody–Waite) `ln 2` for `r = y − k·ln 2 ∈ [0, ln 2]`, and
//!   `p = 1 + r·q(r)` with a degree-5 Chebyshev fit of `(e^r − 1)/r`.
//!   Every coefficient is positive and `r ≥ 0`, so Horner's rule is
//!   monotone in `r`.
//! * `tanh(x) = sign(x) · t(|x|)`: below `0.625`, `t = a + a·z·T(z)` with
//!   `z = a²` and a degree-4 Chebyshev fit `T`; above, `t = 1 − 2 / (1 +
//!   e^{2a})` with `a` clamped to `9.5`, past which `tanh` rounds to 1.
//! * `sigmoid(x) = 2^{−k} / (p + 2^{−k})` for `e^{−x} = p · 2^k`, with `x`
//!   clamped to `[−104, 20]` (outside it the result rounds to 0 or 1).
//!   `2^{−k}` is applied as two powers of two, so results down to the
//!   smallest subnormal round once.
//!
//! Contract (`tests/activation.rs`): at most 4 ulp from an `f64`
//! reference, monotone non-decreasing, `tanh` odd to the bit, `sigmoid`
//! in `[0, 1]`, NaN in → NaN out, `±∞` saturate, slice ≡ scalar bit for
//! bit. Measured over all 2³² `f32` inputs (the ignored
//! `exhaustive_over_every_f32` test): `tanh` at most 1.37 ulp (at
//! `|x| ≈ 0.626`), `sigmoid` at most 2.48 ulp (at `x ≈ −16.6`), and no
//! monotonicity violation in either.

use std::f32::consts::LOG2_E;

/// Version of the kernel's output bits, written into model fingerprints
/// whose behaviors depend on them. Bump it when any output bit changes.
pub const VERSION: u64 = 1;

/// `ln 2` split so that `k · LN2_HI` is exact for every `|k| < 2^15`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -0.000_212_194_44;
/// `1.5 · 2^23`: adding it rounds an `f32` below `2^22` to an integer,
/// which then sits in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;

/// `2^k` for `k` in the normal exponent range.
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits(((k + 127) as u32) << 23)
}

/// `e^y = p · 2^k` with `p ∈ [1, 2]`, for `|y| < 2^21`. NaN gives a NaN
/// `p`.
#[inline(always)]
fn exp_split(y: f32) -> (f32, i32) {
    // ⌊y·log2 e⌋ as round(y·log2 e − ½); an input one rounding below an
    // integer may land on it, leaving `r` a hair below 0, which is fine.
    let t = (y * LOG2_E - 0.5) + ROUND;
    let k = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let n = t - ROUND;
    let r = (y - n * LN2_HI) - n * LN2_LO;
    let q = 0.001_877_144_6;
    let q = q * r + 0.007_932_381;
    let q = q * r + 0.041_814_29;
    let q = q * r + 0.166_642_38;
    let q = q * r + 0.500_001_43;
    let q = q * r + 1.0;
    (q * r + 1.0, k)
}

/// Hyperbolic tangent.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    let t = -0.006_096_714;
    let t = t * z + 0.020_997_18;
    let t = t * z - 0.053_850_908;
    let t = t * z + 0.133_327_7;
    let t = t * z - 0.333_333_28;
    let small = a + a * z * t;
    // `clamp` keeps a NaN (where `min` would return 9.5).
    let c = a.clamp(0.0, 9.5);
    let (p, k) = exp_split(c + c);
    let large = 1.0 - 2.0 / (1.0 + p * pow2(k));
    let t = if a < 0.625 { small } else { large };
    t.copysign(x)
}

/// Logistic sigmoid `1 / (1 + e^{−x})`.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let (p, k) = exp_split(-x.clamp(-104.0, 20.0));
    // k ∈ [−29, 150]: 2^{−k} as two normal powers.
    let half = k >> 1;
    let lo = pow2(-half);
    let hi = pow2(half - k);
    let d = 1.0 / (p + lo * hi);
    (d * lo) * hi
}

/// [`tanh`] of every element, in place.
pub fn tanh_slice(xs: &mut [f32]) {
    for x in xs {
        *x = tanh(*x);
    }
}

/// [`sigmoid`] of every element, in place.
pub fn sigmoid_slice(xs: &mut [f32]) {
    for x in xs {
        *x = sigmoid(*x);
    }
}
