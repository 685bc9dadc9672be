//! Minimal, API-compatible shim for the subset of the `proptest` crate this
//! workspace uses: the `proptest!` macro with `pat in strategy` bindings,
//! `any::<T>()`, numeric range strategies, `collection::vec`, and the
//! `prop_assert*` macros.
//!
//! The build environment has no network access, so the real `proptest` crate
//! cannot be fetched. The shim samples each strategy deterministically
//! (seeded per test by the test name), runs [`cases`] cases (64 unless the
//! `PROPTEST_CASES` environment variable says otherwise), and reports the
//! failing case number on assertion failure. There is no shrinking — the
//! failing inputs are printed instead.

/// Number of cases each `proptest!` test runs by default (the real crate
/// defaults to 256).
pub const CASES: u64 = 64;

/// Number of cases each `proptest!` test runs: `PROPTEST_CASES` when it is
/// set, as the real crate reads it, else [`CASES`]. The first cases are the
/// same whatever the count, so a deep run extends the default one.
///
/// # Panics
///
/// Panics if `PROPTEST_CASES` is set to anything but a positive integer.
pub fn cases() -> u64 {
    let Ok(value) = std::env::var("PROPTEST_CASES") else {
        return CASES;
    };
    match value.trim().parse() {
        Ok(n) if n > 0 => n,
        _ => panic!("PROPTEST_CASES must be a positive integer, not {value:?}"),
    }
}

/// Deterministic SplitMix64 generator driving all strategy sampling.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of value produced.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

/// Strategy produced by [`any`]: the full range of a primitive type.
#[derive(Debug, Default, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Returns a strategy covering the whole domain of `T`.
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_any_int {
    ($($t:ty),+) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as u64;
                let hi = self.end as u64;
                assert!(hi > lo, "empty range strategy");
                (lo + rng.below(hi - lo)) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let lo = *self.start() as u64;
                let hi = *self.end() as u64;
                (lo + rng.below(hi - lo + 1)) as $t
            }
        }
    )+};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        // Finite, sign-varied doubles; the real crate's any::<f64>() includes
        // NaN/inf, but no test here relies on that.
        (rng.unit_f64() - 0.5) * 2e12
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.end > self.start, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec<T>` with a length drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Produces vectors whose elements come from `element` and whose length
    /// lies in `len`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into().0,
        }
    }

    /// Length specification accepted by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange(pub std::ops::Range<usize>);

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end.saturating_sub(self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a `proptest!` test body needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running [`cases`] sampled cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )+) => {$(
        $(#[$attr])*
        fn $name() {
            // Seed per test name so failures reproduce across runs.
            let mut __seed = 0xcbf2_9ce4_8422_2325u64;
            for b in stringify!($name).bytes() {
                __seed = (__seed ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
            let mut __rng = $crate::TestRng::new(__seed);
            let __cases = $crate::cases();
            for __case in 0..__cases {
                $(let $arg = $crate::Strategy::sample(&($strategy), &mut __rng);)+
                let __inputs = format!(concat!($(stringify!($arg), " = {:?}; "),+), $(&$arg),+);
                let __result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body));
                if let Err(panic) = __result {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed with inputs: {}",
                        __case + 1,
                        __cases,
                        stringify!($name),
                        __inputs
                    );
                    std::panic::resume_unwind(panic);
                }
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = (10u64..20).sample(&mut rng);
            assert!((10..20).contains(&v));
            let f = (0.5f64..1.5).sample(&mut rng);
            assert!((0.5..1.5).contains(&f));
            let i = (1u8..=255).sample(&mut rng);
            assert!(i >= 1);
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = crate::TestRng::new(2);
        for _ in 0..100 {
            let v = collection::vec(any::<u8>(), 3..7).sample(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(x in any::<u64>(), yrange in 1u64..100) {
            prop_assert!((1..100).contains(&yrange));
            prop_assert_eq!(x, x);
            prop_assert_ne!(yrange, 0);
        }
    }
}
