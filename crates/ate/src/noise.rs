//! Measurement noise.

use cichar_dut::Parametrics;
use cichar_patterns::TestConditions;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
#[cfg(test)]
use std::cell::Cell;
use std::sync::LazyLock;

/// The largest |z| a Box–Muller normal drawn here can reach, plus a
/// rounding margin. `u1` is drawn from `[ε, 1)` and `|cos| ≤ 1`, so
/// `|z| ≤ √(−2 ln ε)`. With `ε = 2^(1 − MANTISSA_DIGITS)` the radicand is
/// `2·52·ln 2`, whose root (≈ 8.4904) Newton's iteration takes at compile
/// time. Four ulps of margin cover the rounding of that iteration and of
/// the `ln` and `sqrt` a draw evaluates.
const Z_MAX: f64 = {
    let radicand = 2.0 * (f64::MANTISSA_DIGITS - 1) as f64 * std::f64::consts::LN_2;
    let mut z = radicand;
    let mut step = 0;
    while step < 32 {
        z = 0.5 * (z + radicand / z);
        step += 1;
    }
    z * (1.0 + 4.0 * f64::EPSILON)
};

/// Relative widening of every per-draw bound entry: it swamps the few
/// ulps by which libm's `ln`, `sqrt` and `cos` may stray from the true
/// value, so a computed factor never exceeds its table entry.
const DRAW_MARGIN: f64 = 1e-9;

/// `u1`'s bins: its binary octave (2⁻⁵² up to 1) and the top four bits of
/// its mantissa, so a bin is `u1`'s top 16 bits less those of ε.
const U1_BINS: usize = 52 * 16;

/// `u2`'s bins: the 64ths of a turn.
const U2_BINS: usize = 64;

/// The top 16 bits of ε, the lower edge of `u1`'s first bin.
const U1_FIRST: u64 = f64::EPSILON.to_bits() >> 48;

/// The per-draw bound tables (DESIGN.md §16), built once on first use.
/// They are no field of [`NoiseModel`], whose `Debug` text is part of the
/// journal fingerprint.
static DRAW_BOUNDS: LazyLock<DrawBounds> = LazyLock::new(DrawBounds::new);

/// Bounds on the two factors of one Box–Muller sample, per bin of the
/// uniform it is computed from.
struct DrawBounds {
    /// `√(−2 ln L)` at each `u1` bin's lower edge `L`, where the decreasing
    /// radius peaks, widened by [`DRAW_MARGIN`].
    radius: [f64; U1_BINS],
    /// The larger `|cos(τ·u2)|` of each `u2` bin's two edges (`|cos|` is
    /// monotone between quarter turns, which fall on bin edges), widened
    /// by [`DRAW_MARGIN`] and capped at 1, which no computed `|cos|`
    /// exceeds. The bins touching 0, ½ and 1 hold exactly 1.
    cos: [f64; U2_BINS],
}

impl DrawBounds {
    fn new() -> Self {
        let widen = |factor: f64| factor * (1.0 + DRAW_MARGIN);
        Self {
            radius: std::array::from_fn(|bin| widen(radius(u1_bin_edge(bin)))),
            cos: std::array::from_fn(|bin| {
                let edges = [bin, bin + 1].map(|edge| cosine(edge as f64 / U2_BINS as f64).abs());
                widen(edges[0].max(edges[1])).min(1.0)
            }),
        }
    }
}

/// The lower edge of `u1` bin `bin`.
fn u1_bin_edge(bin: usize) -> f64 {
    f64::from_bits((U1_FIRST + bin as u64) << 48)
}

/// The Box–Muller radius `√(−2 ln u1)`, as every sample computes it.
fn radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// The Box–Muller angle's cosine `cos(τ·u2)`, as every sample computes it.
fn cosine(u2: f64) -> f64 {
    (2.0 * std::f64::consts::PI * u2).cos()
}

/// A bound on `|radius(u1)·cosine(u2)|` from the bins of this draw's
/// uniforms: two table loads and a product. `u1` lies in `[ε, 1)` and
/// `u2` in `[0, 1)`, as [`uniforms`] builds them.
fn draw_bound(u1: f64, u2: f64) -> f64 {
    let bounds = &*DRAW_BOUNDS;
    let u1_bin = (u1.to_bits() >> 48) - U1_FIRST;
    let u2_bin = u2 * U2_BINS as f64;
    bounds.radius[u1_bin as usize] * bounds.cos[u2_bin as usize]
}

/// One raw word replayed to `gen_range`, so building a uniform from a word
/// already drawn stays the vendored `rand`'s conversion.
struct Word(u64);

impl RngCore for Word {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// A sample's two uniforms from its two raw words: `u1` in `[ε, 1)`, kept
/// off zero so `ln` stays finite, and `u2` in `[0, 1)`.
fn uniforms(words: [u64; 2]) -> (f64, f64) {
    let u1 = Word(words[0]).gen_range(f64::EPSILON..1.0);
    let u2 = Word(words[1]).gen_range(0.0..1.0);
    (u1, u2)
}

#[cfg(test)]
thread_local! {
    /// Box–Muller transforms evaluated on this thread: the tests' measure
    /// of how many draws the bound in [`noisy_compare`] fails to settle.
    pub(crate) static TRANSFORMS: Cell<u64> = const { Cell::new(0) };
}

/// Gaussian measurement noise, per parameter, applied at every strobe.
///
/// Real ATE comparators and timing generators jitter; §1 lists inaccurate
/// readings among the pitfalls of slow searches. The defaults model a
/// well-maintained production tester.
///
/// # Examples
///
/// ```
/// use cichar_ate::NoiseModel;
///
/// let quiet = NoiseModel::noiseless();
/// assert_eq!(quiet.t_dq_sigma(), 0.0);
/// let real = NoiseModel::default();
/// assert!(real.t_dq_sigma() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    t_dq_sigma: f64,
    f_max_sigma: f64,
    vdd_min_sigma: f64,
}

impl NoiseModel {
    /// Creates a noise model with explicit sigmas (ns, MHz, V).
    ///
    /// # Panics
    ///
    /// Panics if any sigma is negative or non-finite.
    pub fn new(t_dq_sigma: f64, f_max_sigma: f64, vdd_min_sigma: f64) -> Self {
        for s in [t_dq_sigma, f_max_sigma, vdd_min_sigma] {
            assert!(s.is_finite() && s >= 0.0, "invalid sigma {s}");
        }
        Self {
            t_dq_sigma,
            f_max_sigma,
            vdd_min_sigma,
        }
    }

    /// A perfectly quiet tester (unit tests use this to assert physics).
    pub fn noiseless() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Whether every sigma is zero, making verdicts a pure function of the
    /// stimulus (the memoization cache is only sound in this regime).
    pub fn is_noiseless(&self) -> bool {
        self.t_dq_sigma == 0.0 && self.f_max_sigma == 0.0 && self.vdd_min_sigma == 0.0
    }

    /// Timing-strobe jitter sigma in nanoseconds.
    pub fn t_dq_sigma(&self) -> f64 {
        self.t_dq_sigma
    }

    /// Clock-generator sigma in megahertz.
    pub fn f_max_sigma(&self) -> f64 {
        self.f_max_sigma
    }

    /// Supply-forcing sigma in volts.
    pub fn vdd_min_sigma(&self) -> f64 {
        self.vdd_min_sigma
    }

    /// Whether one strobe passes against the device's noisy limits:
    /// `strobe ≤ t_dq` (when a strobe is forced), `clock ≤ f_max` and
    /// `vdd ≥ vdd_min`. The three noise samples are drawn in that order,
    /// each consuming its two raw words whether or not its compare needs
    /// the transform, so the RNG stream and every verdict match
    /// transforming every sample, adding it to its limit and comparing.
    pub(crate) fn strobe_passes<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        limits: &Parametrics,
        strobe: Option<f64>,
        conditions: &TestConditions,
    ) -> bool {
        let (clock, vdd) = (conditions.clock.value(), conditions.vdd.value());
        let strobe_ok = noisy_compare(rng, self.t_dq_sigma, limits.t_dq.value(), |t_dq| {
            strobe.is_none_or(|s| s <= t_dq)
        });
        let clock_ok = noisy_compare(rng, self.f_max_sigma, limits.f_max.value(), |f_max| {
            clock <= f_max
        });
        let vdd_ok = noisy_compare(rng, self.vdd_min_sigma, limits.vdd_min.value(), |vdd_min| {
            vdd >= vdd_min
        });
        strobe_ok && clock_ok && vdd_ok
    }

    /// Draws one noise sample with the given sigma: the reference that
    /// [`NoiseModel::strobe_passes`] is proven against.
    #[cfg(test)]
    pub(crate) fn sample<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 0.0;
        }
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        radius(u1) * cosine(u2) * sigma
    }
}

impl Default for NoiseModel {
    /// 50 ps timing jitter, 0.1 MHz clock accuracy, 2 mV supply accuracy.
    fn default() -> Self {
        Self::new(0.05, 0.1, 0.002)
    }
}

/// Draws one noise sample for the limit `value` and returns whether the
/// noisy limit `value + sample` satisfies `holds`, a compare that must be
/// monotone in the limit. Two bounds settle most compares without the
/// `ln`, `sqrt` and `cos` (DESIGN.md §16): `|sample| ≤ M` with
/// `M = Z_MAX·|σ|`, or failing that, `M = draw_bound(u1, u2)·|σ|` from
/// this draw's own uniforms. Rounded addition is monotone, so the noisy
/// limit lies in `[value − M, value + M]` and `holds` agreeing at both
/// ends decides it. The uniforms are built only when the first bound
/// fails. A NaN or non-finite limit or margin takes the exact path.
fn noisy_compare<R: Rng + ?Sized>(
    rng: &mut R,
    sigma: f64,
    value: f64,
    holds: impl Fn(f64) -> bool,
) -> bool {
    if sigma == 0.0 {
        return holds(value);
    }
    let words = [rng.next_u64(), rng.next_u64()];
    let settled = |margin: f64| {
        if !(value.is_finite() && margin.is_finite()) {
            return None;
        }
        let at_low = holds(value - margin);
        (at_low == holds(value + margin)).then_some(at_low)
    };
    if let Some(verdict) = settled(Z_MAX * sigma.abs()) {
        return verdict;
    }
    let (u1, u2) = uniforms(words);
    if let Some(verdict) = settled(draw_bound(u1, u2) * sigma.abs()) {
        return verdict;
    }
    #[cfg(test)]
    TRANSFORMS.with(|n| n.set(n.get() + 1));
    holds(value + radius(u1) * cosine(u2) * sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_units::{Megahertz, Nanoseconds, Volts};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// None, subnormal, tiny, the three defaults, and huge.
    const SIGMAS: [f64; 7] = [0.0, 5e-324, 1e-9, 0.002, 0.05, 0.1, 1e3];

    /// A threshold at `value ± margin`, one ulp either side of those, or
    /// at random within a few margins of `value` (`frac` in `[-1, 1)`).
    fn threshold(value: f64, margin: f64, pick: usize, frac: f64) -> f64 {
        let (low, high) = (value - margin, value + margin);
        match pick {
            0 => low,
            1 => low.next_down(),
            2 => low.next_up(),
            3 => high,
            4 => high.next_down(),
            5 => high.next_up(),
            _ => value + 3.0 * frac * margin,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn decided_compares_match_the_sampled_reference(
            seed in any::<u64>(),
            limit in (0usize..7, -12i32..=12, -1.0f64..1.0),
            at in (0usize..8, -1.0f64..1.0),
        ) {
            let (sigma, value) = (SIGMAS[limit.0], limit.2 * 10f64.powi(limit.1));
            let lhs = threshold(value, Z_MAX * sigma, at.0, at.1);
            let mut cut = StdRng::seed_from_u64(seed);
            let mut reference = cut.clone();
            for _ in 0..8 {
                let got = noisy_compare(&mut cut, sigma, value, |noisy| lhs <= noisy);
                prop_assert_eq!(got, lhs <= value + NoiseModel::sample(&mut reference, sigma));
                let got = noisy_compare(&mut cut, sigma, value, |noisy| lhs >= noisy);
                prop_assert_eq!(got, lhs >= value + NoiseModel::sample(&mut reference, sigma));
                prop_assert_eq!(&cut, &reference);
            }
        }

        #[test]
        fn strobe_verdicts_match_three_sampled_limits(
            seed in any::<u64>(),
            sigmas in (0usize..7, 0usize..7, 0usize..7),
            at in (0usize..9, 0usize..8, 0usize..8),
            fracs in (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        ) {
            let noise = NoiseModel::new(SIGMAS[sigmas.0], SIGMAS[sigmas.1], SIGMAS[sigmas.2]);
            let limits = Parametrics {
                t_dq: Nanoseconds::new(32.3),
                f_max: Megahertz::new(118.0),
                vdd_min: Volts::new(1.42),
            };
            // Each forced value sits near its limit; pick 8 forces no strobe.
            let strobe = (at.0 < 8).then(|| {
                threshold(32.3, Z_MAX * noise.t_dq_sigma(), at.0, fracs.0)
            });
            let clock = threshold(118.0, Z_MAX * noise.f_max_sigma(), at.1, fracs.1);
            let vdd = threshold(1.42, Z_MAX * noise.vdd_min_sigma(), at.2, fracs.2);
            let conditions = TestConditions::nominal()
                .with_clock(Megahertz::new(clock))
                .with_vdd(Volts::new(vdd));
            let mut cut = StdRng::seed_from_u64(seed);
            let mut reference = cut.clone();
            let got = noise.strobe_passes(&mut cut, &limits, strobe, &conditions);
            let t_dq = 32.3 + NoiseModel::sample(&mut reference, noise.t_dq_sigma());
            let f_max = 118.0 + NoiseModel::sample(&mut reference, noise.f_max_sigma());
            let vdd_min = 1.42 + NoiseModel::sample(&mut reference, noise.vdd_min_sigma());
            let want = strobe.is_none_or(|s| s <= t_dq) && clock <= f_max && vdd >= vdd_min;
            prop_assert_eq!(got, want);
            prop_assert_eq!(&cut, &reference);
        }

        #[test]
        fn per_draw_cuts_match_the_sampled_reference(
            seed in any::<u64>(),
            limit in (0usize..7, -12i32..=12, -1.0f64..1.0),
            at in (0usize..10, -1.0f64..1.0),
        ) {
            let (sigma, value) = (SIGMAS[limit.0], limit.2 * 10f64.powi(limit.1));
            let mut cut = StdRng::seed_from_u64(seed);
            let mut reference = cut.clone();
            for _ in 0..8 {
                for ge in [false, true] {
                    // Peek at the next draw: its own margin and noisy limit.
                    let mut peek = cut.clone();
                    let (u1, u2) = uniforms([peek.next_u64(), peek.next_u64()]);
                    let margin = draw_bound(u1, u2) * sigma.abs();
                    let noisy = value + NoiseModel::sample(&mut cut.clone(), sigma);
                    let lhs = match at.0 {
                        7 => noisy,
                        8 => noisy.next_down(),
                        9 => noisy.next_up(),
                        pick => threshold(value, margin, pick, at.1),
                    };
                    let holds = |limit: f64| if ge { lhs >= limit } else { lhs <= limit };
                    let got = noisy_compare(&mut cut, sigma, value, holds);
                    prop_assert_eq!(got, holds(value + NoiseModel::sample(&mut reference, sigma)));
                    prop_assert_eq!(&cut, &reference);
                }
            }
        }
    }

    /// Every table entry bounds the factor it stands for over its whole bin,
    /// and the two together bound the sample at every bin pair's corner,
    /// where both factors peak.
    #[test]
    fn every_per_draw_bound_covers_its_bin() {
        let bounds = &*DRAW_BOUNDS;
        let inside =
            |low: f64, high: f64| (1..=64).map(move |i| low + (high - low) * f64::from(i) / 65.0);
        for (bin, &bound) in bounds.radius.iter().enumerate() {
            let (low, high) = (u1_bin_edge(bin), u1_bin_edge(bin + 1));
            assert!(bound >= radius(low), "u1 bin {bin} at {low}");
            let tight = radius(low) * (1.0 + 2.0 * DRAW_MARGIN);
            assert!(bound <= tight, "u1 bin {bin} is tight");
            for u1 in inside(low, high).chain([high.next_down()]) {
                assert!(bound >= radius(u1), "u1 bin {bin} at {u1}");
                assert_eq!(draw_bound(u1, 0.0), bound, "u1 = {u1} maps to bin {bin}");
            }
        }
        assert_eq!(u1_bin_edge(0), f64::EPSILON);
        assert_eq!(u1_bin_edge(U1_BINS), 1.0);
        let last = bounds.radius[U1_BINS - 1];
        let mut corners = Vec::new();
        for (bin, &bound) in bounds.cos.iter().enumerate() {
            let (low, high) = (bin as f64 / 64.0, (bin + 1) as f64 / 64.0);
            assert!(bound <= 1.0, "u2 bin {bin}");
            for u2 in [low, high].into_iter().chain(inside(low, high)) {
                assert!(bound >= cosine(u2).abs(), "u2 bin {bin} at {u2}");
            }
            let peak = if cosine(low).abs() >= cosine(high).abs() {
                low
            } else {
                high.next_down()
            };
            assert_eq!(draw_bound(1.0f64.next_down(), peak), last * bound);
            corners.push(peak);
        }
        for bin in [0, 31, 32, 63] {
            assert_eq!(bounds.cos[bin], 1.0, "u2 bin {bin} touches a peak of |cos|");
        }
        for bin in 0..U1_BINS {
            let u1 = u1_bin_edge(bin);
            for &u2 in &corners {
                let sample = (radius(u1) * cosine(u2)).abs();
                assert!(draw_bound(u1, u2) >= sample, "({u1}, {u2})");
            }
        }
    }

    #[test]
    fn uniforms_replay_rands_conversion() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let mut twin = rng.clone();
            let words = [rng.next_u64(), rng.next_u64()];
            let u1: f64 = twin.gen_range(f64::EPSILON..1.0);
            let u2: f64 = twin.gen_range(0.0..1.0);
            assert_eq!(uniforms(words), (u1, u2));
        }
        assert_eq!(uniforms([0, 0]), (f64::EPSILON, 0.0));
        let top = (1.0f64.next_down(), 1.0 - 2f64.powi(-53));
        assert_eq!(uniforms([u64::MAX, u64::MAX]), top);
    }

    /// Replays two fixed words. All zeros make `gen_range(ε..1.0)` return
    /// exactly ε and `u2 = 0`, so `cos` is exactly 1; a second word of
    /// `1 << 63` makes `u2 = ½` and `cos(π)` exactly −1.
    struct Words([u64; 2], usize);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0[(self.1 - 1) % 2]
        }
    }

    #[test]
    fn the_largest_sample_stays_within_the_bound() {
        let root = (-2.0 * f64::EPSILON.ln()).sqrt();
        assert!(Z_MAX >= root, "{Z_MAX} < {root}");
        assert!(Z_MAX - root < 1e-13, "the margin is a few ulps");
        for sigma in SIGMAS.into_iter().filter(|&s| s > 0.0) {
            for (u2_word, cos) in [(0, 1.0), (1 << 63, -1.0)] {
                let extreme = NoiseModel::sample(&mut Words([0, u2_word], 0), sigma);
                assert_eq!(extreme, root * cos * sigma, "u1 = ε at σ = {sigma}");
                assert!(extreme.abs() <= Z_MAX * sigma, "σ = {sigma}");
                // At the extreme noisy limit the cut still answers exactly.
                let value = 1.0;
                let noisy = value + extreme;
                for lhs in [noisy.next_down(), noisy, noisy.next_up()] {
                    let mut rng = Words([0, u2_word], 0);
                    assert_eq!(
                        noisy_compare(&mut rng, sigma, value, |l| lhs <= l),
                        lhs <= noisy
                    );
                    assert_eq!(
                        noisy_compare(&mut rng, sigma, value, |l| lhs >= l),
                        lhs >= noisy
                    );
                }
            }
        }
    }

    #[test]
    fn noiseless_samples_are_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(NoiseModel::sample(&mut rng, 0.0), 0.0);
        }
    }

    #[test]
    fn samples_have_requested_spread() {
        let mut rng = StdRng::seed_from_u64(2);
        let sigma = 0.05;
        let n = 5000;
        let samples: Vec<f64> = (0..n).map(|_| NoiseModel::sample(&mut rng, sigma)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "invalid sigma")]
    fn rejects_negative_sigma() {
        let _ = NoiseModel::new(-0.1, 0.0, 0.0);
    }

    #[test]
    fn default_is_quieter_than_resolutions() {
        // Noise must not swamp the search resolutions or trip points
        // become unrepeatable.
        let n = NoiseModel::default();
        assert!(n.t_dq_sigma() <= 0.05 + 1e-12);
        assert!(n.f_max_sigma() <= 0.25);
        assert!(n.vdd_min_sigma() <= 0.005);
    }
}
