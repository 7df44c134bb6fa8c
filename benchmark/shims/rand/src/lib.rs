//! Offline stand-in for `rand` 0.8: `StdRng::seed_from_u64`, `Rng::{gen,
//! gen_range}` over `f32`/`f64`/integers. Streams are reproducible per seed
//! but are NOT the published crate's streams.

use std::ops::Range;

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Types `Rng::gen_range` can draw from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(range: Range<$t>, rng: &mut R) -> $t {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift maps 64 random bits onto the span; the bias
                // is below 2^-64 per value for every span these crates use.
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (range.start as i128 + offset as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<f32>, rng: &mut R) -> f32 {
        assert!(range.start < range.end, "gen_range: empty range");
        let v = range.start + (range.end - range.start) * f32::sample(rng);
        // Rounding can land on the excluded upper bound.
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<f64>, rng: &mut R) -> f64 {
        assert!(range.start < range.end, "gen_range: empty range");
        let v = range.start + (range.end - range.start) * f64::sample(rng);
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(range, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ seeded through splitmix64.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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
