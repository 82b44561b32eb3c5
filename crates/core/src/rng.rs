//! A small, deterministic, dependency-free PRNG used by the dataset
//! generators, the differential-testing oracle, and the property tests.
//!
//! Everything in SYMPLE-rs that consumes randomness must be reproducible
//! from an explicit `u64` seed: repro artifacts store only the seed, and
//! re-executed map attempts must see byte-identical inputs. The generator
//! here is SplitMix64 feeding xoshiro256**, the standard construction for
//! seedable, fast, statistically solid (non-cryptographic) streams.

/// A seedable xoshiro256** generator.
///
/// Equal seeds yield equal streams on every platform — the property the
/// oracle's repro artifacts depend on.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

/// Expands a seed into well-mixed state words (SplitMix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from an explicit seed.
    pub fn seed_from_u64(seed: u64) -> Rng64 {
        let mut sm = seed;
        Rng64 {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// A uniformly random value of any integer (or bool/f64) type.
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 bits of uniform mantissa, compared in float space.
        let x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        x < p
    }

    /// A uniform sample from `range` (half-open or inclusive integer
    /// ranges). Panics on an empty range, matching `rand`'s contract.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: std::ops::RangeBounds<T>,
    {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x.step_up().expect("range start overflow"),
            Bound::Unbounded => T::MIN_VALUE,
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x.step_down().expect("empty range"),
            Bound::Unbounded => T::MAX_VALUE,
        };
        assert!(lo <= hi, "gen_range called with an empty range");
        T::sample_inclusive(self, lo, hi)
    }
}

/// Types with a direct uniform sampling from the raw generator.
pub trait FromRng {
    /// Draws one uniformly random value.
    fn from_rng(rng: &mut Rng64) -> Self;
}

macro_rules! from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng(rng: &mut Rng64) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for bool {
    fn from_rng(rng: &mut Rng64) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    fn from_rng(rng: &mut Rng64) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Integer types that support uniform range sampling.
pub trait SampleUniform: Copy + PartialOrd {
    /// Smallest representable value.
    const MIN_VALUE: Self;
    /// Largest representable value.
    const MAX_VALUE: Self;
    /// `self + 1`, if representable.
    fn step_up(self) -> Option<Self>;
    /// `self - 1`, if representable.
    fn step_down(self) -> Option<Self>;
    /// Uniform sample from the inclusive range `[lo, hi]`.
    fn sample_inclusive(rng: &mut Rng64, lo: Self, hi: Self) -> Self;
}

macro_rules! sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            const MIN_VALUE: $t = <$t>::MIN;
            const MAX_VALUE: $t = <$t>::MAX;
            fn step_up(self) -> Option<$t> {
                self.checked_add(1)
            }
            fn step_down(self) -> Option<$t> {
                self.checked_sub(1)
            }
            fn sample_inclusive(rng: &mut Rng64, lo: $t, hi: $t) -> $t {
                // Width as u128 avoids overflow at extreme bounds; modulo
                // bias is immaterial for test/datagen purposes.
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    const MIN_VALUE: f64 = f64::MIN;
    const MAX_VALUE: f64 = f64::MAX;
    fn step_up(self) -> Option<f64> {
        Some(self)
    }
    fn step_down(self) -> Option<f64> {
        Some(self)
    }
    fn sample_inclusive(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
        let f = f64::from_rng(rng);
        lo + (hi - lo) * f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..1_000 {
            let v: i64 = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let u: u32 = rng.gen_range(0u32..=3);
            assert!(u <= 3);
            let w: usize = rng.gen_range(1usize..2);
            assert_eq!(w, 1);
            let f: f64 = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn extreme_ranges_do_not_overflow() {
        let mut rng = Rng64::seed_from_u64(1);
        let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
        let _: u64 = rng.gen_range(0u64..=u64::MAX);
    }

    #[test]
    fn gen_bool_edges() {
        let mut rng = Rng64::seed_from_u64(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_000..4_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn full_domain_sampling() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut seen = [false; 2];
        for _ in 0..64 {
            seen[usize::from(rng.gen::<bool>())] = true;
        }
        assert!(seen[0] && seen[1]);
    }
}
