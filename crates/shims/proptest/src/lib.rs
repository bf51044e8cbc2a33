//! A minimal, offline stand-in for the [`proptest`] crate.
//!
//! The build environment has no registry access, so this in-tree shim
//! implements the subset of the proptest API the test suite uses:
//! the [`proptest!`] macro, [`Strategy`] with `prop_map`, `any`,
//! ranges-as-strategies, tuples-of-strategies, [`collection::vec`],
//! [`option::of`], [`Just`], [`prop_oneof!`], and the `prop_assert*` /
//! `prop_assume!` macros.
//!
//! Semantics differ from real proptest in two deliberate ways:
//! failing cases are reported by panic (no shrinking), and generation
//! is deterministic per `(test, case-index)` so failures reproduce.
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![forbid(unsafe_code)]

use std::ops::Range;

/// Runner configuration; only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic generator handed to strategies (xoshiro256++).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// RNG for one case of one property. Seeded from the property name
    /// and the case index so every case is distinct but reproducible.
    #[must_use]
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut seed = 0x5EED_0000 ^ case;
        for b in name.bytes() {
            seed = seed.wrapping_mul(0x100_0000_01B3) ^ u64::from(b);
        }
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let r = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&r[..chunk.len()]);
        }
    }
}

/// A value generator. The shim has no shrinking: `generate` is the
/// entire contract.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

macro_rules! arb_tuple {
    ($($t:ident),+) => {
        impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($t::arbitrary(rng),)+)
            }
        }
    };
}
arb_tuple!(A, B);
arb_tuple!(A, B, C);
arb_tuple!(A, B, C, D);

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Generates any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            #[allow(clippy::cast_possible_wrap, clippy::cast_lossless)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            #[allow(clippy::cast_possible_wrap, clippy::cast_lossless)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as u64)
                    .wrapping_sub(*self.start() as u64)
                    .wrapping_add(1);
                (*self.start() as u64).wrapping_add(rng.below(span)) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($($t:ident : $idx:tt),+) => {
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// One arm of a [`Union`]: a boxed generator function.
pub type UnionArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// A uniform choice among boxed strategy arms (see [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<UnionArm<V>>,
}

impl<V> Union<V> {
    /// Builds a union from generator arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    #[must_use]
    pub fn new(arms: Vec<UnionArm<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.arms.len() as u64) as usize;
        (self.arms[idx])(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s of `element` with a length in `len`.
    #[must_use]
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// See [`vec()`](vec()).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span.max(1)) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for `Option`s of `inner` (`None` half the time).
    #[must_use]
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64() & 1 == 0 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// The usual glob import: strategies, config, and macros.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestRng,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...)` body
/// runs for `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..u64::from(config.cases) {
                let mut __rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                // prop_assume! skips a case by returning from this
                // closure; prop_assert! fails the test by panicking.
                let mut __case = || $body;
                __case();
            }
        }
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
}

/// Uniformly picks one of the given strategies per generated value.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        $crate::Union::new(vec![
            $({
                let __s = $arm;
                Box::new(move |rng: &mut $crate::TestRng| {
                    $crate::Strategy::generate(&__s, rng)
                }) as Box<dyn Fn(&mut $crate::TestRng) -> _>
            },)+
        ])
    }};
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(TestRng::for_case("t", 3).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("r", 0);
        for _ in 0..1000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn vec_lengths_stay_in_bounds() {
        let mut rng = TestRng::for_case("v", 0);
        for _ in 0..200 {
            let v = collection::vec(any::<u8>(), 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_and_maps(a in 0u8..10, pair in (0u64..5, any::<bool>())) {
            prop_assume!(a != 9);
            prop_assert!(a < 10);
            prop_assert!(pair.0 < 5);
        }

        #[test]
        fn oneof_covers_arms(v in prop_oneof![Just(1u8), Just(2u8), 5u8..7u8]) {
            prop_assert!([1u8, 2, 5, 6].contains(&v));
        }
    }
}
