//! Property-based validation of the piecewise log-linear density engine.

use proptest::prelude::*;
use qni_stats::logspace::log_sum_exp;
use qni_stats::piecewise::{PiecewiseExpDensity, PiecewiseScratch, Segment};
use qni_stats::rng::rng_from_seed;
use rand::RngCore;

/// Strategy: a density spec with up to 4 segments over a random interval.
fn density_spec() -> impl Strategy<Value = (f64, f64, Vec<f64>, Vec<f64>)> {
    (
        -5.0f64..5.0,
        0.2f64..8.0,
        prop::collection::vec(-6.0f64..6.0, 1..=4),
        0u64..1_000_000,
    )
        .prop_map(|(lo, width, slopes, cut_seed)| {
            let hi = lo + width;
            // Deterministic interior breakpoints from the seed.
            let n = slopes.len() - 1;
            let mut breaks = Vec::with_capacity(n);
            let mut x = cut_seed as f64 / 1_000_000.0;
            for i in 0..n {
                x = (x * 0.61803 + 0.1931 * (i as f64 + 1.0)).fract();
                breaks.push(lo + x * width);
            }
            breaks.sort_by(f64::total_cmp);
            (lo, hi, breaks, slopes)
        })
}

/// Strategy: a Gibbs-scale density spec — times near 1,800, slopes up to
/// ±1000, 1 to 9 segments — whose last segment is a half-infinite
/// decaying tail when the flag is set.
fn steep_spec() -> impl Strategy<Value = (f64, f64, Vec<f64>, Vec<f64>)> {
    (
        1795.0f64..1805.0,
        prop::collection::vec(0.0005f64..0.5, 1..=9),
        prop::collection::vec(-1000.0f64..1000.0, 9),
        0u8..2,
    )
        .prop_map(|(lo, widths, mut slopes, tail)| {
            let n = widths.len();
            slopes.truncate(n);
            let mut breaks = Vec::with_capacity(n - 1);
            let mut x = lo;
            for w in &widths[..n - 1] {
                x += w;
                breaks.push(x);
            }
            let hi = if tail == 1 {
                // A tail must decay: keep its rate away from zero.
                slopes[n - 1] = -slopes[n - 1].abs().max(0.5);
                f64::INFINITY
            } else {
                x + widths[n - 1]
            };
            (lo, hi, breaks, slopes)
        })
}

/// The CDF at `x` of the density on `segments`, computed in log space
/// from [`Segment::log_mass`] and [`log_sum_exp`] alone: an oracle
/// independent of the sampler's linear-space masses.
fn log_space_cdf(segments: &[Segment], log_norm: f64, x: f64) -> f64 {
    let parts: Vec<f64> = segments
        .iter()
        .filter(|seg| x > seg.lo)
        .map(|seg| {
            Segment {
                hi: seg.hi.min(x),
                ..*seg
            }
            .log_mass()
        })
        .collect();
    (log_sum_exp(&parts) - log_norm).exp()
}

/// An RNG whose every word is the same constant.
struct ConstRng(u64);

impl RngCore for ConstRng {
    fn next_u32(&mut self) -> u32 {
        self.0 as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// All-ones words force the largest uniform, `u = 1 − 2⁻⁵³`, and zero
/// words force `u = 0`: on tails and multi-segment densities alike, both
/// draws stay finite and inside the support.
#[test]
fn extreme_uniforms_draw_inside_the_support() {
    let cases: &[(f64, f64, &[f64], &[f64])] = &[
        (1.0, f64::INFINITY, &[], &[-2.0]),
        (1800.0, f64::INFINITY, &[], &[-1000.0]),
        (0.0, f64::INFINITY, &[1.0, 2.0], &[3.0, 0.0, -1e-3]),
        (0.0, 4.0, &[1.0, 2.0, 3.0], &[2.0, 0.0, -5.0, 40.0]),
        (1800.0, 1800.5, &[1800.2], &[1000.0, -1000.0]),
        (1800.0, 1801.0, &[1800.5], &[-1000.0, 1000.0]),
        // At the largest uniform, rounding puts these draws at the very
        // top of their tail segment (v = 1 before the kernel's clamp).
        (
            1.0,
            f64::INFINITY,
            &[1.0063795058775185],
            &[310.09229905295024, -10.277681740944656],
        ),
        (
            1800.0,
            f64::INFINITY,
            &[1800.0001424234533],
            &[646.901879959482, -722.8054990157189],
        ),
    ];
    let mut scratch = PiecewiseScratch::new();
    for &(lo, hi, breaks, slopes) in cases {
        scratch
            .rebuild_continuous(lo, hi, breaks, slopes)
            .expect("build");
        for word in [u64::MAX, 0] {
            let x = scratch.sample(&mut ConstRng(word));
            assert!(x.is_finite(), "word {word:#x}: {x} on [{lo}, {hi})");
            assert!(
                (lo..=hi).contains(&x),
                "word {word:#x}: {x} on [{lo}, {hi})"
            );
        }
    }
}

fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    let h = (b - a) / n as f64;
    let mut acc = f(a) + f(b);
    for i in 1..n {
        acc += if i % 2 == 1 { 4.0 } else { 2.0 } * f(a + i as f64 * h);
    }
    acc * h / 3.0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn normalizes_to_one((lo, hi, breaks, slopes) in density_spec()) {
        let d = PiecewiseExpDensity::continuous_from_slopes(lo, hi, &breaks, &slopes)
            .expect("buildable");
        let total = simpson(|x| d.log_pdf(x).exp(), lo, hi - 1e-12, 4000);
        prop_assert!((total - 1.0).abs() < 1e-4, "total={total}");
    }

    #[test]
    fn cdf_is_monotone_and_bounded((lo, hi, breaks, slopes) in density_spec()) {
        let d = PiecewiseExpDensity::continuous_from_slopes(lo, hi, &breaks, &slopes)
            .expect("buildable");
        let mut prev = 0.0;
        for i in 0..=50 {
            let x = lo + (hi - lo) * i as f64 / 50.0;
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
            prop_assert!(c >= prev - 1e-9, "cdf decreased at {x}");
            prev = c;
        }
        prop_assert!((d.cdf(hi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inv_cdf_round_trips((lo, hi, breaks, slopes) in density_spec()) {
        let d = PiecewiseExpDensity::continuous_from_slopes(lo, hi, &breaks, &slopes)
            .expect("buildable");
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let x = d.inv_cdf(p);
            prop_assert!((lo..=hi).contains(&x));
            prop_assert!((d.cdf(x) - p).abs() < 1e-6, "p={p}, cdf={}", d.cdf(x));
        }
    }

    #[test]
    fn samples_lie_in_support_and_match_mean(
        (lo, hi, breaks, slopes) in density_spec(),
        seed in 0u64..1000,
    ) {
        let d = PiecewiseExpDensity::continuous_from_slopes(lo, hi, &breaks, &slopes)
            .expect("buildable");
        let mut rng = rng_from_seed(seed);
        let n = 4000;
        let mut acc = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            prop_assert!((lo..=hi).contains(&x), "sample {x} outside [{lo},{hi}]");
            acc += x;
        }
        let sample_mean = acc / n as f64;
        let true_mean = simpson(|x| x * d.log_pdf(x).exp(), lo, hi - 1e-12, 4000);
        // Bound the error by ~6 standard errors of a worst-case spread.
        let spread = hi - lo;
        prop_assert!(
            (sample_mean - true_mean).abs() < 6.0 * spread / (n as f64).sqrt(),
            "sample mean {sample_mean} vs true {true_mean}"
        );
    }

    #[test]
    fn segment_probs_sum_to_one((lo, hi, breaks, slopes) in density_spec()) {
        let d = PiecewiseExpDensity::continuous_from_slopes(lo, hi, &breaks, &slopes)
            .expect("buildable");
        let total: f64 = (0..d.segments().len()).map(|i| d.segment_prob(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_draws_match_the_log_space_cdf(
        (lo, hi, breaks, slopes) in steep_spec(),
        seed in 0u64..1000,
    ) {
        let mut scratch = PiecewiseScratch::new();
        scratch.rebuild_continuous(lo, hi, &breaks, &slopes).expect("buildable");
        let segments = scratch.segments();
        let log_masses: Vec<f64> = segments.iter().map(Segment::log_mass).collect();
        let log_norm = log_sum_exp(&log_masses);
        let mut rng = rng_from_seed(seed);
        let n = 4000;
        let mut xs: Vec<f64> = (0..n).map(|_| scratch.sample(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        prop_assert!(xs[0] >= lo && xs[n - 1] <= hi, "draws {} .. {}", xs[0], xs[n - 1]);
        let mut ks: f64 = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            let f = log_space_cdf(segments, log_norm, x);
            ks = ks.max((f - i as f64 / n as f64).abs()).max((f - (i + 1) as f64 / n as f64).abs());
        }
        // One-sample KS at α ≈ 1e-6 per case: √(ln(2/α)/2)/√n ≈ 2.7/√n.
        prop_assert!(ks < 2.7 / (n as f64).sqrt(), "ks={ks}");
    }
}
