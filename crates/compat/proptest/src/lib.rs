//! Offline stub of `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the `proptest!` macro, range/tuple/`Just`/vec/regex-literal
//! strategies, `prop_map`/`prop_flat_map`, `prop_oneof!`, and the
//! `prop_assert*`/`prop_assume!` macros. Cases are generated from a
//! deterministic per-test RNG (seeded from the test name) and there is no
//! shrinking — a failing case reports its index and message only.

pub mod strategy;

pub mod test_runner {
    pub use crate::runner::{Config as ProptestConfig, TestCaseError, TestRng};
}

mod runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Test-runner configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of accepted cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 64 }
        }
    }

    /// Outcome of one generated case.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; try another case.
        Reject,
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// Failure with a message.
        pub fn fail(msg: String) -> TestCaseError {
            TestCaseError::Fail(msg)
        }
    }

    /// Deterministic per-test RNG.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// Seeds from a test name (FNV-1a), so each property gets a stable
        /// but distinct stream.
        pub fn deterministic(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng {
                inner: StdRng::seed_from_u64(h),
            }
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Vector length specification: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} != {}", stringify!($left), stringify!($right)),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{} == {}",
                stringify!($left),
                stringify!($right)
            )));
        }
    }};
}

/// Rejects the current case (generates a replacement).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among same-typed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($strategy),+])
    };
}

/// Declares property tests. Each accepted case regenerates all inputs;
/// failures panic with the case index (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(20).max(100);
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "proptest '{}': too many rejected cases ({} attempts)",
                        stringify!($name),
                        attempts,
                    );
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )+
                    let outcome = (move || -> ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => accepted += 1,
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject,
                        ) => continue,
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => panic!(
                            "proptest '{}' failed at case {}: {}",
                            stringify!($name),
                            accepted,
                            msg,
                        ),
                    }
                }
            }
        )*
    };
}
