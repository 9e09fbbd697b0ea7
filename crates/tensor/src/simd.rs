//! Run-time kernel dispatch: one source, compiled twice.
//!
//! A hot kernel keeps one `#[inline(always)]` body. [`simd_kernel!`]
//! wraps it in a dispatcher that inlines the body twice — once for the
//! build's target (baseline x86-64: SSE2, 16 × 128-bit registers) and once
//! inside a nested `avx2` function compiled with
//! `#[target_feature(enable = "avx2")]` — and picks the AVX2 copy when the
//! CPU has it. On other architectures only the body is compiled.
//!
//! The two copies are bit-identical by construction. Both come from the
//! same source; Rust never contracts `a * b + c` into an FMA (and no `fma`
//! feature is enabled), and LLVM never reassociates a float reduction, so
//! the wider registers only carry more independent lanes at once: every
//! output element sees the same IEEE operations in the same order. Each
//! dispatched kernel has a test comparing the dispatcher with its body,
//! bit for bit. (A NaN stays a NaN; its sign and payload are unspecified
//! in Rust on any one copy, since LLVM may swap the operands of `+` and
//! `*`.)
//!
//! Everything the body calls in its hot loop must be `#[inline(always)]`
//! too, or it is compiled once, for the baseline target, and called from
//! the AVX2 copy.
//!
//! [`simd_kernel!`]: crate::simd_kernel

/// True when the running CPU supports AVX2 (the standard library caches
/// the detection, so this is a load and a bit test).
#[inline]
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The copy every dispatched kernel runs in this process: `"avx2"` or
/// `"baseline"`. Printed beside timings so a figure names the code path
/// that produced it.
pub fn path() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// Defines, per `fn $name(args) = $body;` entry, a dispatcher over the
/// `#[inline(always)]` kernel body `$body(args)`: the AVX2 copy when
/// [`simd::avx2`] holds, the baseline copy otherwise (see the
/// [module docs](crate::simd)).
///
/// ```
/// #[inline(always)]
/// fn scale_body(xs: &mut [f32], s: f32) {
///     for x in xs {
///         *x *= s;
///     }
/// }
///
/// deepbase_tensor::simd_kernel! {
///     /// Multiplies every element by `s`.
///     fn scale(xs: &mut [f32], s: f32) = scale_body;
/// }
///
/// let mut xs = [1.0, -2.5];
/// scale(&mut xs, 2.0);
/// assert_eq!(xs, [2.0, -5.0]);
/// ```
///
/// [`simd::avx2`]: crate::simd::avx2
#[macro_export]
macro_rules! simd_kernel {
    ($(
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) = $body:ident;
    )*) => {$(
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) {
                    $body($($arg),*)
                }
                if $crate::simd::avx2() {
                    // SAFETY: `avx2` only adds the AVX2 target feature to
                    // safe code, and the check above saw that this CPU
                    // supports it.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    )*};
}
