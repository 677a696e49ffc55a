//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this workspace vendors a
//! minimal, dependency-free implementation of exactly the API surface the
//! other crates use: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_bool`] and [`Rng::gen_range`]. It adds one item the real
//! crate does not have: [`rngs::StdRngLanes`], 64 `StdRng` streams
//! advanced together (every lane, or the lanes of a mask), which the
//! stimulus generator vectorizes over.
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

    /// One xoshiro256** step on a state held in four separate words: the
    /// single definition behind [`StdRng`] and [`StdRngLanes`].
    #[inline(always)]
    fn xoshiro256ss(s0: &mut u64, s1: &mut u64, s2: &mut u64, s3: &mut u64) -> u64 {
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
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
            let [s0, s1, s2, s3] = &mut self.s;
            xoshiro256ss(s0, s1, s2, s3)
        }
    }

    /// Lanes of a [`StdRngLanes`] block: one per bit of a `u64` lane word.
    pub const BLOCK_LANES: usize = 64;

    /// [`BLOCK_LANES`] independent [`StdRng`] streams in
    /// structure-of-arrays form: lane `k` starts as
    /// `StdRng::seed_from_u64(seed + k)`. [`Self::next_u64s`] advances
    /// every lane by one draw and [`Self::next_u64s_masked`] only the lanes
    /// of a mask. Each lane makes exactly the draws its own `StdRng` would,
    /// while the lane loops vectorize.
    #[derive(Debug, Clone)]
    pub struct StdRngLanes {
        /// `s[i][k]` is state word `i` of lane `k`.
        s: [[u64; BLOCK_LANES]; 4],
    }

    impl StdRngLanes {
        /// Seeds lane `k` with `seed + k` (wrapping at `u64::MAX`).
        pub fn seed_from_u64(seed: u64) -> Self {
            let mut s = [[0; BLOCK_LANES]; 4];
            for k in 0..BLOCK_LANES {
                let lane = StdRng::seed_from_u64(seed.wrapping_add(k as u64));
                for (word, v) in s.iter_mut().zip(lane.s) {
                    word[k] = v;
                }
            }
            StdRngLanes { s }
        }

        /// Advances every lane by one draw: `out[k]` is lane `k`'s next
        /// `next_u64`.
        #[inline(always)]
        pub fn next_u64s(&mut self, out: &mut [u64; BLOCK_LANES]) {
            let [s0, s1, s2, s3] = &mut self.s;
            let states = s0.iter_mut().zip(s1.iter_mut()).zip(s2.iter_mut()).zip(s3);
            for (o, (((a, b), c), d)) in out.iter_mut().zip(states) {
                *o = xoshiro256ss(a, b, c, d);
            }
        }

        /// Advances only the lanes whose bit is set in `commit`: for those,
        /// `out[k]` is lane `k`'s next `next_u64`. A lane whose bit is clear
        /// keeps its state, so its `out[k]` is a draw it has not made and
        /// will make again on its next step.
        ///
        /// Every lane computes its step and keeps the old or the new state
        /// by a mask, without a branch, so the lane loop vectorizes.
        #[inline(always)]
        pub fn next_u64s_masked(&mut self, commit: u64, out: &mut [u64; BLOCK_LANES]) {
            let [s0, s1, s2, s3] = &mut self.s;
            let states = s0.iter_mut().zip(s1.iter_mut()).zip(s2.iter_mut()).zip(s3);
            for (k, (o, (((a, b), c), d))) in out.iter_mut().zip(states).enumerate() {
                // All ones when lane `k` commits its step, else zero.
                let step = 0u64.wrapping_sub(commit >> k & 1);
                let (mut a1, mut b1, mut c1, mut d1) = (*a, *b, *c, *d);
                *o = xoshiro256ss(&mut a1, &mut b1, &mut c1, &mut d1);
                *a ^= (*a ^ a1) & step;
                *b ^= (*b ^ b1) & step;
                *c ^= (*c ^ c1) & step;
                *d ^= (*d ^ d1) & step;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{StdRng, StdRngLanes, BLOCK_LANES};
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn lane_k_of_a_block_is_std_rng_seeded_seed_plus_k() {
        for seed in [0u64, 42, u64::MAX - 10] {
            let mut block = StdRngLanes::seed_from_u64(seed);
            let mut solo: Vec<StdRng> = (0..BLOCK_LANES as u64)
                .map(|k| StdRng::seed_from_u64(seed.wrapping_add(k)))
                .collect();
            let mut out = [0u64; BLOCK_LANES];
            for round in 0..64 {
                block.next_u64s(&mut out);
                for (k, rng) in solo.iter_mut().enumerate() {
                    assert_eq!(out[k], rng.next_u64(), "seed {seed} round {round} lane {k}");
                }
            }
        }
    }

    #[test]
    fn masked_step_advances_only_the_committed_lanes() {
        // Lane k stepped under a random sequence of commit masks, with
        // full steps in between, is lane k's own StdRng stepped on exactly
        // the cycles its bit was set.
        let mut mask_rng = StdRng::seed_from_u64(7);
        for seed in [0u64, 42, u64::MAX - 10] {
            let mut block = StdRngLanes::seed_from_u64(seed);
            let mut solo: Vec<StdRng> = (0..BLOCK_LANES as u64)
                .map(|k| StdRng::seed_from_u64(seed.wrapping_add(k)))
                .collect();
            let mut out = [0u64; BLOCK_LANES];
            for round in 0..256 {
                // Sparse, dense, empty, full and uniform masks.
                let commit = match round % 5 {
                    0 => mask_rng.next_u64() & mask_rng.next_u64(),
                    1 => mask_rng.next_u64() | mask_rng.next_u64(),
                    2 => 0,
                    3 => u64::MAX,
                    _ => mask_rng.next_u64(),
                };
                block.next_u64s_masked(commit, &mut out);
                for (k, rng) in solo.iter_mut().enumerate() {
                    if commit >> k & 1 == 1 {
                        assert_eq!(out[k], rng.next_u64(), "seed {seed} round {round} lane {k}");
                    }
                }
                if round % 3 == 0 {
                    block.next_u64s(&mut out);
                    for (k, rng) in solo.iter_mut().enumerate() {
                        assert_eq!(
                            out[k],
                            rng.next_u64(),
                            "seed {seed} full step {round} lane {k}"
                        );
                    }
                }
            }
        }
    }

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
