//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this workspace vendors a
//! minimal, dependency-free implementation of exactly the API surface the
//! other crates use: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_bool`] and [`Rng::gen_range`].
//!
//! The generator is xoshiro256** seeded via SplitMix64 — deterministic for a
//! given seed, statistically solid for simulation workloads, and NOT
//! cryptographically secure (neither is the real `StdRng` contract across
//! versions; all in-repo uses are seeded simulations and tests).

use std::ops::Range;

/// Trait mirroring `rand::SeedableRng`, restricted to `seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a half-open `Range<T>`.
///
/// Mirrors the subset of `rand::distributions::uniform::SampleUniform`
/// the workspace needs.
pub trait SampleUniform: PartialOrd + Copy {
    fn sample_range(rng: &mut dyn RngCore, range: Range<Self>) -> Self;
}

/// Object-safe raw generator interface (mirrors `rand::RngCore`).
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Trait mirroring the used subset of `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from a half-open range. Panics if the range is empty.
    #[inline]
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        assert!(range.start < range.end, "gen_range: empty range");
        T::sample_range(self, range)
    }

    /// Bernoulli draw with probability `p` of returning `true`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p not in [0,1]");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Map a u64 to [0, 1) using the top 53 bits (standard double-precision trick).
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range(rng: &mut dyn RngCore, range: Range<Self>) -> Self {
                // Lemire-style rejection sampling over the span, computed in
                // u128 so the widest integer types cannot overflow.
                let span = (range.end as i128).wrapping_sub(range.start as i128) as u128;
                debug_assert!(span > 0);
                // Rejection zone keeps the draw exactly uniform.
                let zone = u128::MAX - (u128::MAX - span + 1) % span;
                loop {
                    let raw = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                    if raw <= zone {
                        return ((range.start as i128) + (raw % span) as i128) as $t;
                    }
                }
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range(rng: &mut dyn RngCore, range: Range<Self>) -> Self {
        let v = range.start + unit_f64(rng.next_u64()) * (range.end - range.start);
        // start + unit*(end-start) can round up to exactly `end`; keep the
        // range half-open by clamping to the largest value below it.
        if v < range.end {
            v
        } else {
            range.end.next_down().max(range.start)
        }
    }
}

impl SampleUniform for f32 {
    fn sample_range(rng: &mut dyn RngCore, range: Range<Self>) -> Self {
        let v = range.start + unit_f64(rng.next_u64()) as f32 * (range.end - range.start);
        if v < range.end {
            v
        } else {
            range.end.next_down().max(range.start)
        }
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator, the shim's `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed, per the xoshiro authors'
            // recommendation, so nearby seeds give unrelated streams.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let i = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn float_range_never_returns_upper_bound() {
        // A raw draw with maximal top-53 bits makes start + unit*(end-start)
        // round up to exactly `end` without the clamp.
        struct MaxRng;
        impl crate::RngCore for MaxRng {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let v = <f64 as crate::SampleUniform>::sample_range(&mut MaxRng, 0.25..0.75);
        assert!(v < 0.75, "half-open bound violated: {v}");
        let w = <f32 as crate::SampleUniform>::sample_range(&mut MaxRng, 0.25f32..0.75);
        assert!(w < 0.75, "half-open bound violated: {w}");
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut r = StdRng::seed_from_u64(1);
        assert!(!(0..1000).any(|_| r.gen_bool(0.0)));
        assert!((0..1000).all(|_| r.gen_bool(1.0)));
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }
}
