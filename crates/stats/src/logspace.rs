//! Numerically stable log-domain arithmetic.
//!
//! The Gibbs conditionals of the paper multiply exponential densities whose
//! rates can differ by orders of magnitude, so their masses span far more
//! than an `f64`'s range. The sampler scales them by the highest peak
//! ([`crate::piecewise`]); log-space evaluation (CDFs, log-likelihoods,
//! the tests' oracles) uses the stable primitives collected here:
//! `log(Σ exp)`, `log(1 − exp)`, `log(exp − exp)`, and the integral of
//! `exp(c + s·x)` over an interval.

/// Computes `ln(1 - e^x)` for `x < 0` with full precision.
///
/// Uses the Mächler split: `ln(-expm1(x))` for `x > -ln 2` and
/// `ln1p(-exp(x))` otherwise.
///
/// # Panics
///
/// Debug-asserts that `x <= 0`; at `x == 0` the result is `-inf`.
pub fn ln_1m_exp(x: f64) -> f64 {
    debug_assert!(x <= 0.0, "ln_1m_exp requires x <= 0, got {x}");
    if x == 0.0 {
        f64::NEG_INFINITY
    } else if x > -std::f64::consts::LN_2 {
        (-x.exp_m1()).ln()
    } else {
        (-x.exp()).ln_1p()
    }
}

/// Computes `ln(e^a - e^b)` for `a >= b` stably.
///
/// Returns `-inf` when `a == b`.
pub fn log_diff_exp(a: f64, b: f64) -> f64 {
    debug_assert!(a >= b, "log_diff_exp requires a >= b, got a={a}, b={b}");
    if a == b {
        return f64::NEG_INFINITY;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    a + ln_1m_exp(b - a)
}

/// Computes `ln(Σᵢ e^{xᵢ})` stably; empty input yields `-inf`.
///
/// # Examples
///
/// ```
/// use qni_stats::logspace::log_sum_exp;
///
/// let v = [0.0_f64.ln(), 1.0_f64.ln(), 2.0_f64.ln()];
/// assert!((log_sum_exp(&v) - 3.0_f64.ln()).abs() < 1e-12);
/// ```
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    if m == f64::INFINITY {
        return f64::INFINITY;
    }
    let sum: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + sum.ln()
}

/// Computes `ln ∫_{x0}^{x1} exp(c + s·x) dx` for a finite interval.
///
/// Handles the three regimes exactly:
/// - `s == 0`: the integrand is constant, `c + ln(x1 - x0)`;
/// - `s > 0`: mass concentrates at `x1`;
/// - `s < 0`: mass concentrates at `x0`.
///
/// Returns `-inf` for an empty interval. `c` may be any finite value (it
/// shifts the result additively).
///
/// # Examples
///
/// ```
/// use qni_stats::logspace::log_int_exp_linear;
///
/// // ∫_0^1 e^x dx = e - 1.
/// let v = log_int_exp_linear(0.0, 1.0, 0.0, 1.0);
/// assert!((v.exp() - (1.0_f64.exp() - 1.0)).abs() < 1e-12);
/// ```
pub fn log_int_exp_linear(c: f64, s: f64, x0: f64, x1: f64) -> f64 {
    debug_assert!(x0.is_finite() && x1.is_finite());
    let w = x1 - x0;
    if w <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if s == 0.0 {
        return c + w.ln();
    }
    let a = s.abs();
    // Peak of the integrand on the interval.
    let peak = if s > 0.0 { s * x1 } else { s * x0 };
    // ∫ = exp(c + peak) · (1 - e^{-a·w}) / a.
    c + peak + ln_1m_exp(-a * w) - a.ln()
}

/// Computes `ln ∫_{x0}^{∞} exp(c + s·x) dx` for a decaying tail (`s < 0`).
///
/// Returns `+inf` (divergent) if `s >= 0`.
pub fn log_int_exp_linear_tail(c: f64, s: f64, x0: f64) -> f64 {
    if s >= 0.0 {
        return f64::INFINITY;
    }
    // ∫ = exp(c + s·x0) / |s|.
    c + s * x0 - (-s).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_integral(c: f64, s: f64, x0: f64, x1: f64, n: usize) -> f64 {
        // Simpson's rule.
        let h = (x1 - x0) / n as f64;
        let f = |x: f64| (c + s * x).exp();
        let mut acc = f(x0) + f(x1);
        for i in 1..n {
            let x = x0 + i as f64 * h;
            acc += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
        }
        acc * h / 3.0
    }

    #[test]
    fn ln_1m_exp_matches_naive_in_easy_range() {
        for &x in &[-0.1, -0.5, -1.0, -3.0, -10.0] {
            let naive = (1.0 - f64::exp(x)).ln();
            assert!((ln_1m_exp(x) - naive).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn ln_1m_exp_tiny_argument_is_accurate() {
        // For x = -1e-12 the naive formula loses most digits.
        let x = -1e-12;
        // 1 - e^x ≈ -x, so ln ≈ ln(1e-12).
        assert!((ln_1m_exp(x) - (1e-12f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn log_diff_exp_basic() {
        let v = log_diff_exp(3.0_f64.ln(), 1.0_f64.ln());
        assert!((v - 2.0_f64.ln()).abs() < 1e-12);
        assert_eq!(log_diff_exp(1.0, 1.0), f64::NEG_INFINITY);
        assert_eq!(log_diff_exp(2.5, f64::NEG_INFINITY), 2.5);
    }

    #[test]
    fn log_sum_exp_handles_extremes() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(
            log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]),
            f64::NEG_INFINITY
        );
        let v = log_sum_exp(&[-1000.0, -1000.0]);
        assert!((v - (-1000.0 + std::f64::consts::LN_2)).abs() < 1e-12);
        let v = log_sum_exp(&[700.0, 710.0]);
        assert!(v.is_finite() && v > 710.0);
    }

    #[test]
    fn integral_matches_quadrature_positive_slope() {
        for &(c, s, x0, x1) in &[
            (0.0, 1.0, 0.0, 1.0),
            (2.0, 3.5, -1.0, 0.5),
            (-1.0, 0.2, 10.0, 11.0),
        ] {
            let exact = log_int_exp_linear(c, s, x0, x1).exp();
            let num = numeric_integral(c, s, x0, x1, 2000);
            assert!((exact - num).abs() / num < 1e-8, "{c} {s} {x0} {x1}");
        }
    }

    #[test]
    fn integral_matches_quadrature_negative_slope() {
        for &(c, s, x0, x1) in &[(0.0, -1.0, 0.0, 1.0), (1.0, -7.0, 2.0, 2.25)] {
            let exact = log_int_exp_linear(c, s, x0, x1).exp();
            let num = numeric_integral(c, s, x0, x1, 2000);
            assert!((exact - num).abs() / num < 1e-8);
        }
    }

    #[test]
    fn integral_zero_slope_is_width() {
        let v = log_int_exp_linear(0.0, 0.0, 3.0, 5.0);
        assert!((v - 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn integral_empty_interval_is_zero_mass() {
        assert_eq!(log_int_exp_linear(0.0, 1.0, 1.0, 1.0), f64::NEG_INFINITY);
        assert_eq!(log_int_exp_linear(0.0, 1.0, 2.0, 1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn integral_is_stable_for_huge_slopes() {
        // Mass is e^{c + s·x1}/s-ish; log must stay finite even when the
        // linear term overflows exp().
        let v = log_int_exp_linear(0.0, 800.0, 0.0, 2.0);
        assert!(v.is_finite());
        assert!((v - (1600.0 - 800.0_f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn tail_integral_matches_closed_form() {
        // ∫_1^∞ e^{-2x} dx = e^{-2}/2.
        let v = log_int_exp_linear_tail(0.0, -2.0, 1.0).exp();
        assert!((v - (-2.0f64).exp() / 2.0).abs() < 1e-12);
        assert_eq!(log_int_exp_linear_tail(0.0, 0.0, 0.0), f64::INFINITY);
        assert_eq!(log_int_exp_linear_tail(0.0, 1.0, 0.0), f64::INFINITY);
    }
}
