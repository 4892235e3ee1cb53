//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the API subset the property tests use: the [`proptest!`] macro,
//! [`Strategy`] with `prop_map`, range/tuple/option/vec strategies,
//! [`any`], `ProptestConfig::with_cases` and the `prop_assert*` macros.
//!
//! Semantics: each test runs `cases` times with values drawn from a
//! deterministic per-test RNG (seeded from the test name), so failures
//! reproduce across runs. Failed cases report their inputs via the panic
//! message. Shrinking is not implemented — on failure the full offending
//! input is printed instead.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Runner configuration. Only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to execute per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// The value-generation RNG handed to strategies.
pub type TestRng = SmallRng;

/// Creates the deterministic RNG for one case of one named test.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    SmallRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// A recipe for generating random values of `Value`.
pub trait Strategy {
    /// The generated type.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: std::fmt::Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: std::fmt::Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i64, f64);

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        (rng.gen::<u64>() & 0xFF) as u8
    }
}

impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> u16 {
        (rng.gen::<u64>() & 0xFFFF) as u16
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.gen::<u64>() as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.gen()
    }
}

/// The whole-domain strategy for `T` (e.g. `any::<bool>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident / $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A / 0);
impl_tuple_strategy!(A / 0, B / 1);
impl_tuple_strategy!(A / 0, B / 1, C / 2);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// `Option<T>` strategies.
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    /// `None` 25% of the time, `Some(inner)` otherwise (proptest's
    /// default weighting is 1:4).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` that runs the body over `cases` random draws.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut __rng = $crate::case_rng(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let __case_inputs = format!(
                        concat!("case {} of ", stringify!($name), ":",
                                $(" ", stringify!($arg), "={:?}",)+),
                        case, $(&$arg,)+
                    );
                    let result = std::panic::catch_unwind(
                        std::panic::AssertUnwindSafe(|| { $body })
                    );
                    if let Err(e) = result {
                        eprintln!("proptest failure inputs: {__case_inputs}");
                        std::panic::resume_unwind(e);
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( $(#[$meta])* fn $name($($arg in $strat),+) $body )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_case() {
        let s = crate::collection::vec((0u16..100, any::<bool>()), 1..20);
        let a = s.generate(&mut crate::case_rng("t", 3));
        let b = s.generate(&mut crate::case_rng("t", 3));
        assert_eq!(a, b);
    }

    #[test]
    fn option_of_produces_both_variants() {
        let s = crate::option::of(0u32..10);
        let mut rng = crate::case_rng("opts", 0);
        let vals: Vec<_> = (0..200).map(|_| s.generate(&mut rng)).collect();
        assert!(vals.iter().any(|v| v.is_none()));
        assert!(vals.iter().any(|v| v.is_some()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_draws_respect_ranges(x in 3u64..9, v in crate::collection::vec(0u8..4, 2..6)) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn prop_map_applies(y in (0u32..5).prop_map(|v| v * 10)) {
            prop_assert_eq!(y % 10, 0);
            prop_assert!(y < 50);
        }
    }
}
