//! Deterministic random-number streams for reproducible campaigns.
//!
//! A fault-injection campaign runs hundreds of experiments, possibly across
//! many threads. To make every experiment bit-reproducible regardless of
//! scheduling, each experiment derives its own independent seed from the
//! campaign master seed and a list of identifiers (mission id, fault kind,
//! duration index, ...) via a SplitMix64-based mixer. The derived seed then
//! feeds a self-contained xoshiro-style generator implemented here, so the
//! streams depend on no outside crate.

use std::sync::LazyLock;

/// SplitMix64 step: advances the state and returns the next mixed value.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a master seed and a path of identifiers.
///
/// The derivation is stable: the same `(master, path)` always produces the
/// same seed, and distinct paths produce (statistically) independent seeds.
///
/// # Example
///
/// ```
/// use imufit_math::rng::derive_seed;
///
/// let a = derive_seed(42, &[1, 2, 3]);
/// let b = derive_seed(42, &[1, 2, 4]);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, &[1, 2, 3]));
/// ```
pub fn derive_seed(master: u64, path: &[u64]) -> u64 {
    let mut state = master ^ 0xD6E8_FEB8_6659_FD93;
    let mut acc = splitmix64(&mut state);
    for &id in path {
        state ^= id.wrapping_mul(0xA076_1D64_78BD_642F);
        acc ^= splitmix64(&mut state).rotate_left(17);
    }
    // One final avalanche so trailing zeros in the path still diffuse.
    state ^= acc;
    splitmix64(&mut state)
}

/// Right edge of the normal ziggurat's base strip: Marsaglia & Tsang's
/// value for 256 layers.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// The area of every ziggurat layer (Marsaglia & Tsang, 256 layers).
const ZIG_V: f64 = 4.928_673_233_99e-3;

/// The 256-layer ziggurat under the unnormalized density `exp(-x^2 / 2)`.
///
/// `x` holds the layer edges, `x[0] > x[1] = ZIG_R > ... > x[256] = 0`:
/// layer `i >= 1` is the rectangle `[0, x[i]] x [f[i], f[i + 1]]`, and
/// the base strip (layer 0) is the rectangle `[0, ZIG_R] x [0, f[1]]` plus
/// the tail beyond `ZIG_R`, drawn as a rectangle of width `x[0]` so every
/// layer has area `ZIG_V`. `f[i] = exp(-x[i]^2 / 2)`.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

impl Ziggurat {
    /// Marsaglia & Tsang's recursion: each edge is where the curve sits
    /// `ZIG_V / x[i - 1]` above the previous one.
    fn build() -> Self {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        Ziggurat { x, f: x.map(pdf) }
    }
}

/// Built on the first normal draw, so a process that never draws one never
/// pays for it.
static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::build);

/// A small, fast, deterministic PRNG (xoshiro256++) with a stable stream.
///
/// # Example
///
/// ```
/// use imufit_math::rng::Pcg;
///
/// let mut rng = Pcg::seed_from(7);
/// let x = rng.uniform_range(0.0, 1.0);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg {
    s: [u64; 4],
}

impl Pcg {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64
    /// as recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // All-zero state is invalid for xoshiro; SplitMix64 cannot produce
        // four zeros from any seed, but guard anyway.
        if s == [0; 4] {
            Pcg { s: [1, 2, 3, 4] }
        } else {
            Pcg { s }
        }
    }

    /// Derives a child generator for the given identifier path (see
    /// [`derive_seed`]).
    pub fn derive(&self, path: &[u64]) -> Pcg {
        // Use the current state as the master key without consuming entropy
        // from `self`.
        let master = self.s[0] ^ self.s[2].rotate_left(32);
        Pcg::seed_from(derive_seed(master, path))
    }

    /// The next raw 64-bit draw; every other sample is built from these.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `lo > hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform_range: lo > hi");
        lo + (hi - lo) * self.uniform()
    }

    /// A standard-normal sample (256-layer ziggurat, one value per call).
    ///
    /// One 64-bit draw picks a layer from its low 8 bits and a signed
    /// uniform from its high 52 bits; 98.5% of tries return after
    /// one multiply and one compare. Only the base strip's tail and the
    /// wedges between the rectangles and the curve call `ln`/`exp`. See
    /// DESIGN.md §21.
    pub fn normal(&mut self) -> f64 {
        let zig = &*ZIGGURAT;
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // Signed uniform in [-1, 1), exact in 52 bits.
            let u = (bits >> 12) as f64 * (2.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * zig.x[i];
            if x.abs() < zig.x[i + 1] {
                // Inside layer i's rectangle, wholly under the curve.
                return x;
            }
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            // The wedge between the rectangle and the curve.
            let y = zig.f[i] + (zig.f[i + 1] - zig.f[i]) * self.uniform();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A sample from the normal tail beyond the base strip's edge
    /// `ZIG_R`, by Marsaglia's exponential method.
    #[cold]
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            let x = self.uniform_open().ln() / ZIG_R;
            let y = self.uniform_open().ln();
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }

    /// A uniform sample in `(0, 1)`: never 0, so its logarithm is finite.
    #[inline]
    fn uniform_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// A normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(1, &[]), derive_seed(1, &[]));
        assert_eq!(derive_seed(9, &[5, 6]), derive_seed(9, &[5, 6]));
    }

    #[test]
    fn derive_seed_separates_paths() {
        let base = derive_seed(42, &[0]);
        assert_ne!(base, derive_seed(42, &[1]));
        assert_ne!(base, derive_seed(43, &[0]));
        assert_ne!(derive_seed(42, &[0, 0]), derive_seed(42, &[0]));
        // Trailing-zero paths must still differ.
        assert_ne!(derive_seed(42, &[1, 0]), derive_seed(42, &[1]));
    }

    #[test]
    fn generator_is_reproducible() {
        let mut a = Pcg::seed_from(123);
        let mut b = Pcg::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg::seed_from(1);
        let mut b = Pcg::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Pcg::seed_from(7);
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = Pcg::seed_from(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    /// The standard normal CDF, from Numerical Recipes' Chebyshev fit of
    /// `erfc` (fractional error below 1.2e-7 everywhere, tails included).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    const DRAWS: usize = 1_000_000;

    fn normals(seed: u64) -> Vec<f64> {
        let mut rng = Pcg::seed_from(seed);
        (0..DRAWS).map(|_| rng.normal()).collect()
    }

    #[test]
    fn ziggurat_layers_have_equal_areas() {
        let zig = &*ZIGGURAT;
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[256], 0.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges must fall");
        // Base strip: rectangle of width x[0] under f(ZIG_R).
        assert!((zig.x[0] * zig.f[1] / ZIG_V - 1.0).abs() < 1e-12);
        for i in 1..256 {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-6, "layer {i}: area {area}");
        }
    }

    #[test]
    fn normal_matches_the_standard_normal_cdf() {
        let mut xs = normals(2024);
        xs.sort_by(f64::total_cmp);
        let n = DRAWS as f64;
        let ks = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let p = phi(x);
                (p - i as f64 / n).max((i + 1) as f64 / n - p)
            })
            .fold(0.0, f64::max);
        // The 1% critical value of the Kolmogorov-Smirnov distance.
        assert!(ks < 1.63 / n.sqrt(), "KS distance {ks}");
    }

    #[test]
    fn normal_moments() {
        // Tolerances are about five standard errors at 10^6 draws:
        // sqrt(1/n), sqrt(2/n), sqrt(6/n) and sqrt(24/n).
        let xs = normals(13);
        let n = DRAWS as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let central = |k: i32| xs.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n;
        let var = central(2);
        let skew = central(3) / var.powf(1.5);
        let kurt = central(4) / (var * var);
        assert!(mean.abs() < 0.005, "mean={mean}");
        assert!((var - 1.0).abs() < 0.007, "var={var}");
        assert!(skew.abs() < 0.0125, "skewness={skew}");
        assert!((kurt - 3.0).abs() < 0.025, "kurtosis={kurt}");
    }

    #[test]
    fn normal_tails_have_their_share() {
        let xs = normals(31);
        let n = DRAWS as f64;
        for edge in [ZIG_R, 4.5] {
            let beyond = xs.iter().filter(|x| x.abs() > edge).count() as f64;
            let expected = n * 2.0 * (1.0 - phi(edge));
            // Five standard deviations of the binomial count.
            let tolerance = 5.0 * expected.sqrt();
            assert!(
                (beyond - expected).abs() < tolerance,
                "beyond {edge}: {beyond} draws, expected {expected:.1}"
            );
        }
    }

    #[test]
    fn normal_is_sign_symmetric() {
        let xs = normals(47);
        let positive = xs.iter().filter(|&&x| x > 0.0).count() as f64;
        let half = DRAWS as f64 / 2.0;
        // Five standard deviations of a fair coin over 10^6 flips.
        assert!((positive - half).abs() < 2_500.0, "{positive} positive");
    }

    #[test]
    fn normal_stream_is_pinned() {
        // Any change to the sampler or the generator moves these bits and
        // every golden file with them; re-baseline both together.
        let pinned: [(u64, [u64; 16]); 2] = [
            (
                1,
                [
                    0x3feb0209616c0cff,
                    0x3fe6e5df946f5f03,
                    0xbffea768d09aed0f,
                    0x3fdcf5b3c176d434,
                    0xbfea1af6292612da,
                    0x3fd6eecc8e5dfda4,
                    0x400796394bafef23,
                    0x3fbc8b72ae290d60,
                    0xbfe90df42d44b0db,
                    0xbffe107bf8b0cf04,
                    0x3ffa2a82668b848e,
                    0xbfd7d726f8fdcb68,
                    0xbfe925233e960cee,
                    0xbfda3f2f03076a89,
                    0xbfedf462f84b87d3,
                    0xbfe8eabec6e28ede,
                ],
            ),
            (
                2024,
                [
                    0x3fa8119e630c540b,
                    0xbfc857bd857953bf,
                    0xbff28b1bf84c1d9c,
                    0xbfd0c94af7e0c4ba,
                    0x3fe0ee84cdf736c8,
                    0x3ff10345c03b0d58,
                    0x3fff29b7d18599e0,
                    0x3feb020debc42a8b,
                    0xbfec377958b84350,
                    0xbfbeadce3c30183f,
                    0x3fc8d6b48fa5d8b7,
                    0x3fe7b168e1c28d02,
                    0x3fc4c7525d94bfd4,
                    0xbf83707c55b2de6f,
                    0xbfe92ada5d5ac099,
                    0x3fdfcc40b9fbfbea,
                ],
            ),
        ];
        for (seed, bits) in pinned {
            let mut rng = Pcg::seed_from(seed);
            for (k, &want) in bits.iter().enumerate() {
                let got = rng.normal().to_bits();
                assert_eq!(got, want, "seed {seed}, draw {k}: {got:#018x}");
            }
        }
    }

    #[test]
    fn normal_reaches_every_layer() {
        // A draw returned on the first try is `u * x[i]` for the layer `i`
        // and signed uniform `u` of the call's first 64-bit draw.
        let zig = &*ZIGGURAT;
        let mut rng = Pcg::seed_from(59);
        let mut hits = [0u32; 256];
        for _ in 0..DRAWS {
            let bits = rng.clone().next_u64();
            let x = rng.normal();
            let i = (bits & 0xff) as usize;
            let u = (bits >> 12) as f64 * (2.0 / (1u64 << 52) as f64) - 1.0;
            if x == u * zig.x[i] {
                hits[i] += 1;
            }
        }
        let missed: Vec<usize> = (0..256).filter(|&i| hits[i] == 0).collect();
        assert!(
            missed.is_empty(),
            "layers never returned a draw: {missed:?}"
        );
    }

    #[test]
    fn child_streams_are_independent_and_stable() {
        let parent = Pcg::seed_from(99);
        let mut c1 = parent.derive(&[1]);
        let mut c2 = parent.derive(&[2]);
        let mut c1b = parent.derive(&[1]);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
