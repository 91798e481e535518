//! The truncated exponential distribution `TrExp(rate; width)`.
//!
//! The paper's Figure 3 samples the middle segment of the Gibbs conditional
//! from an exponential truncated to an interval. This module implements
//! that law with a numerically stable inverse CDF that degrades gracefully
//! to the uniform distribution as `rate·width → 0`.

use crate::error::StatsError;
use rand::Rng;

/// Below this value of `rate · width`, the truncated exponential is
/// numerically indistinguishable from uniform and is sampled as such
/// (here and in [`crate::piecewise`]'s flat segments).
pub(crate) const UNIFORM_REGIME: f64 = 1e-12;

/// Exponential distribution with rate `rate`, truncated to `(0, width)`.
///
/// Density `f(x) ∝ e^{-rate·x}` on `(0, width)`. Matches the paper's
/// `TrExp(µ; N)` notation with `µ = rate`, `N = width`.
///
/// # Examples
///
/// ```
/// use qni_stats::truncated_exp::TruncatedExp;
///
/// let t = TruncatedExp::new(2.0, 1.0).unwrap();
/// let x = t.inv_cdf(0.5);
/// assert!(x > 0.0 && x < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedExp {
    rate: f64,
    width: f64,
}

impl TruncatedExp {
    /// Creates a truncated exponential on `(0, width)` with the given rate.
    ///
    /// `rate` must be finite and strictly positive; `width` must be finite
    /// and strictly positive.
    pub fn new(rate: f64, width: f64) -> Result<Self, StatsError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(StatsError::NonPositiveRate { value: rate });
        }
        if !(width.is_finite() && width > 0.0) {
            return Err(StatsError::BadInterval { lo: 0.0, hi: width });
        }
        Ok(TruncatedExp { rate, width })
    }

    /// Returns the rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Returns the truncation width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Evaluates the density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 || x >= self.width {
            return 0.0;
        }
        let z = -(-self.rate * self.width).exp_m1(); // 1 - e^{-r·w}
        self.rate * (-self.rate * x).exp() / z
    }

    /// Evaluates the quantile function at `p ∈ [0, 1]`.
    ///
    /// Stable for all regimes of `rate·width`: for tiny products it
    /// returns the uniform quantile `p·width`.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p));
        let rw = self.rate * self.width;
        if rw < UNIFORM_REGIME {
            return p * self.width;
        }
        // F(x) = (1 - e^{-r·x}) / (1 - e^{-r·w});  x = -ln(1 - p·q)/r with
        // q = 1 - e^{-r·w} computed by expm1 for accuracy.
        let q = -(-rw).exp_m1();
        let x = -(-p * q).ln_1p() / self.rate;
        x.min(self.width)
    }

    /// Draws one sample by inverse-CDF transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        self.inv_cdf(u)
    }

    /// Returns the mean `1/r − w·e^{-r·w}/(1 − e^{-r·w})`.
    pub fn mean(&self) -> f64 {
        let rw = self.rate * self.width;
        if rw < UNIFORM_REGIME {
            return self.width / 2.0;
        }
        let q = -(-rw).exp_m1();
        1.0 / self.rate - self.width * (-rw).exp() / q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn rejects_bad_parameters() {
        assert!(TruncatedExp::new(0.0, 1.0).is_err());
        assert!(TruncatedExp::new(1.0, 0.0).is_err());
        assert!(TruncatedExp::new(1.0, f64::INFINITY).is_err());
        assert!(TruncatedExp::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn inv_cdf_endpoints() {
        let t = TruncatedExp::new(3.0, 2.0).unwrap();
        assert_eq!(t.inv_cdf(0.0), 0.0);
        assert!((t.inv_cdf(1.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inv_cdf_matches_cdf_numerically() {
        let t = TruncatedExp::new(1.7, 0.9).unwrap();
        let cdf = |x: f64| (1.0 - (-t.rate() * x).exp()) / (1.0 - (-t.rate() * t.width()).exp());
        for &p in &[0.05, 0.3, 0.5, 0.77, 0.99] {
            assert!((cdf(t.inv_cdf(p)) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn uniform_limit_for_tiny_rate_width() {
        let t = TruncatedExp::new(1e-15, 4.0).unwrap();
        assert!((t.inv_cdf(0.25) - 1.0).abs() < 1e-9);
        assert!((t.mean() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn huge_rate_concentrates_near_zero() {
        let t = TruncatedExp::new(1e6, 1.0).unwrap();
        assert!(t.inv_cdf(0.999) < 1e-2);
    }

    #[test]
    fn sample_stays_in_support_and_matches_mean() {
        let t = TruncatedExp::new(2.0, 1.5).unwrap();
        let mut rng = rng_from_seed(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = t.sample(&mut rng);
            assert!((0.0..=1.5).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - t.mean()).abs() < 0.01,
            "mean={mean} vs {}",
            t.mean()
        );
    }

    #[test]
    fn pdf_integrates_to_one() {
        let t = TruncatedExp::new(0.8, 3.0).unwrap();
        let n = 20_000;
        let h = t.width() / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            acc += t.pdf((i as f64 + 0.5) * h) * h;
        }
        assert!((acc - 1.0).abs() < 1e-6);
    }
}
