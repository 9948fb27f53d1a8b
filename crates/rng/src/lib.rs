//! # ftss-rng — deterministic randomness for a hermetic workspace
//!
//! Every stochastic element of the reproduction — state corruption,
//! omission adversaries, asynchronous delay draws, detector noise — flows
//! through this crate. It exists for two reasons:
//!
//! 1. **Hermeticity.** The workspace builds with zero registry
//!    dependencies, so `cargo build` succeeds with
//!    `CARGO_NET_OFFLINE=true` on a machine that has never seen
//!    crates.io.
//! 2. **Reproducibility.** Probabilistic-stabilization measurements are
//!    only meaningful when the corruption and scheduling randomness is a
//!    pure function of the seed, bit-for-bit across platforms. The
//!    generators here are fully specified algorithms (SplitMix64,
//!    xoshiro256\*\*) with golden-value tests pinning their exact output
//!    streams.
//!
//! The API mirrors the subset of the `rand` crate the workspace uses, so
//! call sites read identically: [`StdRng::seed_from_u64`],
//! [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`], [`Rng::shuffle`],
//! [`Rng::fill_bytes`].
//!
//! ```
//! use ftss_rng::{Rng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let a: u64 = rng.gen();
//! let b = rng.gen_range(0..10usize);
//! let c = rng.gen_bool(0.5);
//! // Same seed ⇒ same draws, on every platform.
//! let mut rng2 = StdRng::seed_from_u64(42);
//! assert_eq!(a, rng2.gen::<u64>());
//! assert_eq!(b, rng2.gen_range(0..10usize));
//! assert_eq!(c, rng2.gen_bool(0.5));
//! ```

pub mod check;

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Sebastiano Vigna's SplitMix64: a tiny 64-bit generator whose only job
/// here is seed expansion — one `u64` seed becomes the 256-bit state of
/// [`Xoshiro256StarStar`] — plus cheap stream derivation in the test
/// harness. Full period 2^64; passes BigCrush.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed. Any seed is valid.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output (Vigna's reference constants).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

/// Blackman & Vigna's xoshiro256\*\*: the workspace's standard generator.
/// 256-bit state, period 2^256 − 1, passes all known statistical tests,
/// and is a fully specified public-domain algorithm — so the streams it
/// produces are reproducible on any machine, forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

/// The workspace's default seeded generator.
///
/// The name deliberately matches the `rand` crate's `StdRng` so that the
/// idiomatic call `StdRng::seed_from_u64(seed)` reads the same here; the
/// algorithm, however, is pinned (xoshiro256\*\* with SplitMix64 seeding)
/// and will never change out from under recorded experiments.
pub type StdRng = Xoshiro256StarStar;

impl Xoshiro256StarStar {
    /// Seeds the 256-bit state by running SplitMix64 on `seed`, exactly as
    /// the xoshiro authors recommend (and as `rand_xoshiro` does). Any
    /// seed is valid; the expansion cannot produce the all-zero state.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256StarStar {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Constructs the generator from raw state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is all zeros (the one fixed point of the
    /// transition function, which would emit zeros forever).
    pub fn from_state(state: [u64; 4]) -> Xoshiro256StarStar {
        assert!(
            state.iter().any(|&w| w != 0),
            "xoshiro256** state must not be all zero"
        );
        Xoshiro256StarStar { s: state }
    }

    /// The raw 256-bit state, for checkpointing a simulation.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derives an independent child generator by drawing a fresh seed from
    /// this one. Simulators use this to give each process / subsystem its
    /// own stream while remaining a pure function of the root seed.
    pub fn fork(&mut self) -> Xoshiro256StarStar {
        let seed = self.next_u64();
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    /// The next 64-bit output (reference algorithm, verbatim).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Rng for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256StarStar::next_u64(self)
    }
}

// ---------------------------------------------------------------------
// The Rng trait
// ---------------------------------------------------------------------

/// The minimal `rand::Rng`-style interface the workspace consumes.
///
/// Only [`next_u64`](Rng::next_u64) is required; everything else derives
/// from it, so every implementor produces identical high-level draws from
/// identical raw streams.
pub trait Rng {
    /// The next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// The next 32 bits (upper half of the 64-bit draw, which for
    /// xoshiro256\*\* are the better-mixed bits).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes (little-endian chunks of the raw
    /// stream).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// A uniformly random value of a primitive type.
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} not in [0, 1]");
        // Compare the draw against p scaled to the full 64-bit range. The
        // one subtlety is p = 1.0, where the scaled threshold (2^64) is
        // unreachable by `u64`; handle it explicitly so the contract
        // "p = 1.0 always true" holds. A draw is still consumed in that
        // branch to keep the stream position independent of `p`.
        let draw = self.next_u64();
        if p >= 1.0 {
            return true;
        }
        (draw as f64) < p * 18_446_744_073_709_551_616.0
    }

    /// A uniform value in `range` (`a..b` or `a..=b`, any primitive
    /// integer type or `f64`). Unbiased for integers (Lemire rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Fisher–Yates shuffle of `slice`, in place.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = gen_u64_below(self, (i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` if it is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[gen_u64_below(self, slice.len() as u64) as usize])
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// [`Rng::gen_bool`] at a fixed `p`, as one integer comparison: the
/// float threshold is turned into an integer once, so a hot loop pays a
/// draw and a compare, and no branch on the outcome. Draw for draw the
/// same as `gen_bool(p)`, `p = 1.0` included (always true, a draw still
/// consumed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bernoulli {
    /// A draw `d` hits iff `d < below`, or `always`.
    below: u64,
    always: bool,
}

impl Bernoulli {
    /// The threshold of `gen_bool(p)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`, as `gen_bool` does.
    pub fn new(p: f64) -> Bernoulli {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} not in [0, 1]");
        if p >= 1.0 {
            return Bernoulli {
                below: 0,
                always: true,
            };
        }
        // `gen_bool` hits iff `d as f64 < scaled`. The conversion is
        // monotone in `d`, so the hits are a prefix of the draws: bisect
        // for its end, the least `d` whose float reaches `scaled` (one
        // exists, since `scaled < 2^64 = u64::MAX as f64`).
        let scaled = p * 18_446_744_073_709_551_616.0;
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mid as f64 >= scaled {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Bernoulli {
            below: lo,
            always: false,
        }
    }

    /// Whether the raw draw `draw` is a hit.
    #[inline]
    pub fn hit(self, draw: u64) -> bool {
        (draw < self.below) | self.always
    }

    /// One draw from `rng`, as `rng.gen_bool(p)` would make it.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> bool {
        self.hit(rng.next_u64())
    }
}

/// Unbiased uniform draw in `[0, n)` via Lemire's multiply-with-rejection,
/// in its nearly divisionless form: the rejection threshold
/// `2^64 mod n`, a division, is computed only when the product's low
/// word falls below `n`, since every low word at or above `n` clears it.
/// Same outputs from the same raw draws as testing every draw against the
/// threshold.
fn gen_u64_below<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n >= 1);
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    if (m as u64) < n {
        let threshold = n.wrapping_neg() % n;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(n);
        }
    }
    (m >> 64) as u64
}

// ---------------------------------------------------------------------
// FromRng: the `rng.gen()` sample space
// ---------------------------------------------------------------------

/// Types that can be drawn uniformly from a generator's raw stream
/// (the counterpart of sampling `rand`'s `Standard` distribution).
pub trait FromRng: Sized {
    /// Draws a uniform value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for u128 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl FromRng for i128 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> i128 {
        u128::from_rng(rng) as i128
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> bool {
        // Use the top bit; for weaker generators the high bits mix best.
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl FromRng for f32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
    }
}

impl<T: FromRng, const N: usize> FromRng for [T; N] {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> [T; N] {
        std::array::from_fn(|_| T::from_rng(rng))
    }
}

/// Uniform `f64` in `[0, 1)` with 53 bits of precision.
fn unit_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

// ---------------------------------------------------------------------
// gen_range support
// ---------------------------------------------------------------------

/// Range shapes accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types with a uniform-over-interval sampler; implemented for
/// the primitive integers and `f64`.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform in `[start, end)`. Panics if `start >= end`.
    fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self;
    /// Uniform in `[start, end]`. Panics if `start > end`.
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

// All integer sampling runs through u64 offset space: map the interval to
// [0, span), draw unbiased, and offset back with wrapping arithmetic (which
// is exact in two's complement for the signed types).
macro_rules! sample_uniform_int {
    ($($t:ty => $unsigned:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, start: $t, end: $t) -> $t {
                assert!(start < end, "gen_range: empty range {start}..{end}");
                let span = (end as $unsigned).wrapping_sub(start as $unsigned) as u64;
                start.wrapping_add(gen_u64_below(rng, span) as $t)
            }
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, start: $t, end: $t) -> $t {
                assert!(start <= end, "gen_range: empty range {start}..={end}");
                let span = (end as $unsigned).wrapping_sub(start as $unsigned) as u64;
                if span == u64::MAX {
                    // Full 64-bit domain: every raw draw is already uniform.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(gen_u64_below(rng, span + 1) as $t)
            }
        }
    )*};
}

sample_uniform_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

impl SampleUniform for f64 {
    fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, start: f64, end: f64) -> f64 {
        assert!(start < end, "gen_range: empty range {start}..{end}");
        start + unit_f64(rng) * (end - start)
    }
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, start: f64, end: f64) -> f64 {
        assert!(start <= end, "gen_range: empty range {start}..={end}");
        start + unit_f64(rng) * (end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `gen_u64_below` as it was: the threshold divided out on every
    /// draw.
    fn gen_u64_below_by_division<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = rng.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// The nearly divisionless draw against the one above: the same
    /// values from the same raw draws, at bounds where rejection never,
    /// rarely and half the time strikes.
    #[test]
    fn bounded_draws_match_the_dividing_form() {
        let bounds = [1, 2, 3, 7, (1 << 32) + 1, (1 << 63) + 1, u64::MAX];
        for n in bounds {
            for seed in 0..64 {
                let mut fast = StdRng::seed_from_u64(seed);
                let mut slow = StdRng::seed_from_u64(seed);
                for i in 0..256 {
                    let (a, b) = (
                        gen_u64_below(&mut fast, n),
                        gen_u64_below_by_division(&mut slow, n),
                    );
                    assert_eq!(a, b, "n {n}, seed {seed}, draw {i}");
                    assert!(a < n);
                    assert_eq!(fast.state(), slow.state(), "n {n}, seed {seed}, draw {i}");
                }
            }
        }
    }

    #[test]
    fn fork_streams_are_distinct_but_deterministic() {
        let mut root = StdRng::seed_from_u64(9);
        let mut a = root.fork();
        let mut b = root.fork();
        assert_ne!(a.next_u64(), b.next_u64());
        let mut root2 = StdRng::seed_from_u64(9);
        assert_eq!(
            root2.fork().next_u64(),
            StdRng::seed_from_u64(9).fork().next_u64()
        );
    }

    #[test]
    fn trait_object_free_dyn_dispatch_via_unsized_bound() {
        fn take<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..100u64)
        }
        let mut r = StdRng::seed_from_u64(1);
        let v = take(&mut r);
        assert!(v < 100);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = StdRng::seed_from_u64(2);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        let mut r2 = StdRng::seed_from_u64(2);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(3);
        let _ = r.gen_range(5..5usize);
    }

    #[test]
    fn inclusive_full_domain_does_not_overflow() {
        let mut r = StdRng::seed_from_u64(4);
        let _ = r.gen_range(u64::MIN..=u64::MAX);
        let _ = r.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn signed_ranges_cover_negative_intervals() {
        let mut r = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let v = r.gen_range(-50i64..-10);
            assert!((-50..-10).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn gen_bool_rejects_bad_probability() {
        let mut r = StdRng::seed_from_u64(6);
        let _ = r.gen_bool(1.5);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn bernoulli_rejects_a_nan() {
        let _ = Bernoulli::new(f64::NAN);
    }

    /// Hands out one fixed draw.
    struct Fixed(u64);

    impl Rng for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// `Bernoulli` is `gen_bool`, draw for draw: at the edges of `p`
    /// (0, the least positive float, ½, the greatest below 1, 1), at
    /// any float in `[0, 1]`, on the draws next to its threshold, and
    /// over a seeded stream whose position it keeps.
    #[test]
    fn bernoulli_is_gen_bool_draw_for_draw() {
        crate::check::forall(256, |g| {
            let below_one = f64::from_bits(1.0f64.to_bits() - 1);
            let any = f64::from_bits(g.gen_range(0..=1.0f64.to_bits()));
            let edges = [0.0, f64::from_bits(1), 0.5, below_one, 1.0, any, g.gen()];
            for p in edges {
                let threshold = Bernoulli::new(p);
                let b = threshold.below;
                let mut draws = vec![0, 1, u64::MAX, u64::MAX - 1, g.gen(), g.gen()];
                draws.extend([b.wrapping_sub(1), b, b.wrapping_add(1)]);
                for d in draws {
                    let want = Fixed(d).gen_bool(p);
                    assert_eq!(threshold.hit(d), want, "p = {p:e}, draw {d:#x}");
                }
                let seed = g.gen();
                let mut fast = StdRng::seed_from_u64(seed);
                let mut slow = fast.clone();
                for _ in 0..32 {
                    assert_eq!(threshold.sample(&mut fast), slow.gen_bool(p), "p = {p:e}");
                }
                assert_eq!(fast, slow, "p = {p:e}: one draw each");
            }
        });
    }
}
