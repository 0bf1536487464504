//! Offline shim for `proptest`.
//!
//! The workspace builds hermetically (no network, no registry cache), so the
//! real crate cannot be fetched. This is a small, deterministic
//! property-testing engine with the same front-end surface the workspace
//! uses: the `proptest!` macro (with optional `proptest_config`),
//! `prop_assert!`/`prop_assert_eq!`, `any::<T>()`, integer/float range
//! strategies, tuples, `prop::collection::vec`, `prop::sample::select`, and
//! `Strategy::prop_map`.
//!
//! Differences from the real crate: no shrinking (failures report the first
//! counterexample as-is), and case generation is seeded per test name, so
//! every run explores the same deterministic sequence. The default case
//! count is 64 (vs 256) to keep `cargo test` fast.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Failure raised by `prop_assert!` and friends inside a proptest body.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }

    /// Alias kept for API compatibility; rejections are treated as failures.
    pub fn reject(message: impl Into<String>) -> Self {
        Self::fail(message)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Deterministic generator driving the shim (SplitMix64, seeded by FNV-1a of
/// the fully qualified test name so each test has a stable stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    #[must_use]
    pub fn deterministic(test_name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Widening-multiply mapping; bias is irrelevant for test generation.
        (((u128::from(self.next_u64())) * u128::from(bound)) >> 64) as u64
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }
}

/// A value generator. Unlike real proptest there is no intermediate value
/// tree: strategies sample concrete values directly (no shrinking).
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// `Strategy::prop_map` adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.sample(rng))
    }
}

/// Strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Full-range strategy behind `any::<T>()`.
#[derive(Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

/// Types with a canonical `any()` strategy.
pub trait Arbitrary: Sized {
    type Strategy: Strategy<Value = Self>;
    fn arbitrary() -> Self::Strategy;
}

#[must_use]
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

macro_rules! arbitrary_uint {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            type Strategy = Any<$ty>;
            fn arbitrary() -> Any<$ty> {
                Any(PhantomData)
            }
        }

        impl Strategy for Any<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                // Bias towards the edges now and then: boundary values find
                // off-by-one bugs that uniform draws rarely hit.
                match rng.next_u64() % 16 {
                    0 => 0,
                    1 => <$ty>::MAX,
                    2 => 1 as $ty,
                    _ => rng.next_u64() as $ty,
                }
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    type Strategy = Any<bool>;
    fn arbitrary() -> Any<bool> {
        Any(PhantomData)
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & (1 << 63) != 0
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                match rng.next_u64() % 16 {
                    0 => self.start,
                    1 => self.end - 1,
                    _ => (self.start as i128 + rng.below(span) as i128) as $ty,
                }
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                match rng.next_u64() % 16 {
                    0 => lo,
                    1 => hi,
                    _ => (lo as i128 + rng.below(span + 1) as i128) as $ty,
                }
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+) ;
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec`](fn@vec), inclusive of `min`, exclusive of `max`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_excl: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max_excl: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange { min: *r.start(), max_excl: *r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange { min: len, max_excl: len + 1 }
        }
    }

    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Strategy for `Vec`s whose length lies in `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_excl - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    #[derive(Debug, Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Strategy choosing uniformly from a fixed list of options.
    pub fn select<T: Clone + std::fmt::Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() needs at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }
}

pub mod strategy {
    pub use super::{Just, Map, Strategy};
}

pub mod prelude {
    pub use super::{any, Arbitrary, Just, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Declares property tests. As in the real crate, each property's
/// attributes pass through and none is added: a property registers as a
/// test only through the `#[test]` it writes, so it registers once.
/// Unlike the real crate, that `#[test]` is required (after the doc
/// comment, before any other attribute): a property without one would
/// compile without a warning and never run, so it is a compile error.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $(
        $(#[doc = $doc:expr])*
        #[test]
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[doc = $doc])*
        #[test]
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let __outcome = (move || -> ::core::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(__e) = __outcome {
                    ::core::panic!(
                        "proptest `{}` failed at case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        __e
                    );
                }
            }
        }
    )*};
    (config = ($cfg:expr); $($rest:tt)*) => {
        ::core::compile_error!(
            "each property in `proptest!` needs `#[test]` after its doc comment: \
             without one it would compile and never run"
        );
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                ::std::string::String::from(concat!("assertion failed: ", stringify!($cond))),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = &$left;
        let __r = &$right;
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{:?} == {:?}`",
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __l = &$left;
        let __r = &$right;
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{:?} == {:?}`: {}",
                __l,
                __r,
                ::std::format!($($fmt)+)
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = &$left;
        let __r = &$right;
        if *__l == *__r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{:?} != {:?}`",
                __l,
                __r
            )));
        }
    }};
}
