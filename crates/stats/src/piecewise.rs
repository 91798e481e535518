//! Piecewise log-linear (piecewise-exponential) densities.
//!
//! The Gibbs conditional for an arrival time derived in the paper (its
//! Figure 3) is a density of the form `f(x) ∝ exp(c_i + s_i · x)` on each
//! of a handful of contiguous segments: the `max` terms inside the
//! exponential-service log-likelihood switch on or off as `x` crosses a
//! neighbouring event time, changing the slope of `log f` but never its
//! continuity. The final-departure move and the task shift of
//! `qni-core`'s sampler condition on densities of the same form, so every
//! Gibbs draw goes through this module.
//!
//! # The sampling kernel
//!
//! Building a density computes two numbers per segment `[lo, hi)` with
//! slope `s`, `a = |s|` and width `w = hi − lo`:
//!
//! - the log-density at the segment's peak, `g = offset + s·x*`, where
//!   `x* = hi` for `s > 0` and `x* = lo` otherwise;
//! - the truncated-exponential normalizer `q = 1 − e^{−a·w}` (via
//!   `expm1`), which makes the segment's mass `e^g · q / a`. A flat
//!   segment (`s = 0`, or `a·w < 1e-12`) has mass `e^g · w`, and a
//!   decaying tail (`hi = +∞`) has `q = 1` and mass `e^g / a`.
//!
//! Masses are held in **linear space, relative to the highest peak**
//! `M = max g`: `mass_i = e^{g_i − M} · q_i / a_i`, with the exponential
//! skipped for the peak segment itself. No mass can overflow, and one
//! that underflows to zero is never drawn. The log normalizer
//! `M + ln Σ mass_i` is computed only when asked for; sampling never
//! reads it.
//!
//! A draw takes **one uniform** `u`. The point `u · Σ mass` picks segment
//! `i` from the cumulative masses, and its offset into that segment,
//! `v = (u · Σ mass − cum_{i−1}) / mass_i`, inverts the segment's
//! truncated exponential with the cached `q`: `x = lo − ln(1 − v·q) / a`
//! on a decaying segment, mirrored from `hi` on a rising one, and
//! `lo + v·w` on a flat one. `v` is clamped below one, so a tail draw is
//! always finite. The map `u ↦ x` is the density's quantile function,
//! which [`PiecewiseExpDensity::inv_cdf`] exposes.
//!
//! A `k`-segment build costs at most `2k − 1` transcendental calls (one
//! `expm1` per finite sloped segment, one `exp` per segment but the
//! peak), and a draw one `ln_1p`.
//!
//! The representation is deliberately more general than the paper's
//! three-segment case so that degenerate configurations (missing
//! neighbours, coincident breakpoints, half-infinite support) all flow
//! through one well-tested code path.

use crate::error::StatsError;
use crate::logspace::{log_int_exp_linear, log_int_exp_linear_tail, log_sum_exp};
use rand::Rng;

/// Below this `|slope| · width`, a segment is numerically flat and its
/// mass is its width: the flat branch of the segment build.
const UNIFORM_REGIME: f64 = 1e-12;

/// The largest `f64` below one: the ceiling of a within-segment uniform.
const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;

/// One segment of a piecewise log-linear density.
///
/// On `[lo, hi)` the unnormalized log-density is `offset + slope · x`.
/// `hi` may be `+inf` provided `slope < 0` (a decaying tail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Left endpoint (finite).
    pub lo: f64,
    /// Right endpoint; `+inf` allowed when `slope < 0`.
    pub hi: f64,
    /// Additive constant of the log-density on this segment.
    pub offset: f64,
    /// Slope of the log-density on this segment.
    pub slope: f64,
}

impl Segment {
    /// Log of the unnormalized mass `∫_lo^hi exp(offset + slope·x) dx`.
    pub fn log_mass(&self) -> f64 {
        if self.hi.is_finite() {
            log_int_exp_linear(self.offset, self.slope, self.lo, self.hi)
        } else {
            log_int_exp_linear_tail(self.offset, self.slope, self.lo)
        }
    }

    /// Width of the segment (may be `+inf`).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// The log-density at the segment's peak: `hi` for a rising segment,
    /// `lo` otherwise.
    fn peak_log_density(&self) -> f64 {
        let x = if self.slope > 0.0 { self.hi } else { self.lo };
        self.offset + self.slope * x
    }
}

/// What a draw needs of one segment besides its bounds and slope,
/// computed once per build.
#[derive(Debug, Clone, Copy)]
struct Piece {
    /// Mass relative to the highest segment peak.
    mass: f64,
    /// Relative mass of this segment and every earlier one.
    cum: f64,
    /// Truncated-exponential normalizer `1 − e^{−a·w}`: `1` on a tail,
    /// and `0` marks a flat segment.
    q: f64,
}

/// Appends the segments of a *continuous* density on `[lower, upper]` to
/// `out` (which is **not** cleared): interior breakpoints are clamped into
/// the support, offsets are chosen so the log-density is continuous and
/// anchored at `log f(lower) = 0`.
///
/// Errors on a non-finite `lower`, breakpoint or slope, and on a NaN
/// `upper` (`upper` itself may be `+inf`), so a NaN rate reaching a
/// Gibbs move surfaces as a typed error in every build.
///
/// Shared by [`PiecewiseExpDensity::continuous_from_slopes`] and
/// [`PiecewiseScratch::rebuild_continuous`] so both construction paths
/// perform bit-identical arithmetic.
fn push_continuous_segments(
    lower: f64,
    upper: f64,
    breaks: &[f64],
    slopes: &[f64],
    out: &mut Vec<Segment>,
) -> Result<(), StatsError> {
    if slopes.len() != breaks.len() + 1 {
        return Err(StatsError::BadParameter {
            what: "slopes.len() must be breaks.len() + 1",
        });
    }
    if !lower.is_finite() || upper.is_nan() || lower >= upper {
        return Err(StatsError::BadInterval {
            lo: lower,
            hi: upper,
        });
    }
    if breaks.iter().chain(slopes).any(|v| !v.is_finite()) {
        return Err(StatsError::BadParameter {
            what: "breakpoints and slopes must be finite",
        });
    }
    if breaks.windows(2).any(|w| w[0] > w[1]) {
        return Err(StatsError::BadParameter {
            what: "breakpoints must be sorted",
        });
    }
    let mut offset = -slopes[0] * lower; // Anchor: log f(lower) = 0.
    let mut lo = lower;
    for (i, &s) in slopes.iter().enumerate() {
        // Clamp the cut into the support; clamping preserves sortedness.
        let hi = if i < breaks.len() {
            let mut c = breaks[i].max(lower);
            if upper.is_finite() {
                c = c.min(upper);
            }
            c
        } else {
            upper
        };
        if hi > lo {
            out.push(Segment {
                lo,
                hi,
                offset,
                slope: s,
            });
        }
        // Continuity at the cut: offset' = offset + (s - s_next)·cut.
        // An empty segment still shifts the anchor so downstream
        // segments stay continuous with the density shape.
        if i < breaks.len() {
            offset += (s - slopes[i + 1]) * hi;
            lo = lo.max(hi);
        }
    }
    Ok(())
}

/// The kernel's build (see the module docs): validates `segments` in
/// place (dropping empty ones, preserving order), fills `pieces` (cleared
/// first), and returns `(peak, total)` — the highest peak log-density
/// `M` and the total relative mass, so the log normalizer is
/// `M + ln total`.
///
/// Shared by [`PiecewiseExpDensity::new`] and
/// [`PiecewiseScratch::rebuild_continuous`].
fn finalize_segments(
    segments: &mut Vec<Segment>,
    pieces: &mut Vec<Piece>,
) -> Result<(f64, f64), StatsError> {
    pieces.clear();
    let mut kept = 0usize;
    for i in 0..segments.len() {
        let seg = segments[i];
        if seg.lo.is_nan() || seg.hi.is_nan() || !seg.lo.is_finite() {
            return Err(StatsError::BadInterval {
                lo: seg.lo,
                hi: seg.hi,
            });
        }
        if seg.hi == f64::INFINITY && seg.slope >= 0.0 {
            return Err(StatsError::BadParameter {
                what: "half-infinite segment must have negative slope",
            });
        }
        if seg.hi <= seg.lo {
            continue;
        }
        segments[kept] = seg;
        kept += 1;
    }
    segments.truncate(kept);
    // The first segment with the highest peak; its mass needs no `exp`.
    let mut peak = f64::NEG_INFINITY;
    let mut peak_at = 0;
    for (i, seg) in segments.iter().enumerate() {
        let g = seg.peak_log_density();
        if g > peak {
            peak = g;
            peak_at = i;
        }
    }
    let mut total = 0.0;
    for (i, seg) in segments.iter().enumerate() {
        let a = seg.slope.abs();
        let w = seg.width();
        let (q, rel) = if seg.hi == f64::INFINITY {
            (1.0, 1.0 / a)
        } else if a * w < UNIFORM_REGIME {
            (0.0, w)
        } else {
            let q = -(-a * w).exp_m1();
            (q, q / a)
        };
        let mass = if i == peak_at {
            rel
        } else {
            (seg.peak_log_density() - peak).exp() * rel
        };
        total += mass;
        pieces.push(Piece {
            mass,
            cum: total,
            q,
        });
    }
    if !(peak.is_finite() && total.is_finite() && total > 0.0) {
        return Err(StatsError::EmptyDensity);
    }
    Ok((peak, total))
}

/// The kernel's draw (see the module docs): maps `u ∈ [0, 1)` through
/// the quantile function of finalized parts. `u` picks the segment, and
/// its offset into that segment's mass inverts the segment's truncated
/// exponential.
fn quantile(segments: &[Segment], pieces: &[Piece], total: f64, u: f64) -> f64 {
    let t = u * total;
    // No segment qualifies only if `t` rounded up to `total`, the last
    // `cum`; the last segment then takes it, and the clamp on `v` keeps
    // the draw finite.
    let i = pieces
        .iter()
        .position(|p| t < p.cum)
        .unwrap_or(pieces.len() - 1);
    let (seg, piece) = (&segments[i], &pieces[i]);
    let below = if i == 0 { 0.0 } else { pieces[i - 1].cum };
    let v = ((t - below) / piece.mass).min(BELOW_ONE);
    let w = seg.width();
    if piece.q == 0.0 {
        return seg.lo + v * w;
    }
    let a = seg.slope.abs();
    if seg.slope < 0.0 {
        seg.lo + (-(-v * piece.q).ln_1p() / a).min(w)
    } else {
        seg.hi - (-(-(1.0 - v) * piece.q).ln_1p() / a).min(w)
    }
}

/// Normalized log-density at `x` over finalized parts.
fn log_pdf_segments(segments: &[Segment], log_norm: f64, x: f64) -> f64 {
    for seg in segments {
        if x >= seg.lo && x < seg.hi {
            return seg.offset + seg.slope * x - log_norm;
        }
    }
    f64::NEG_INFINITY
}

/// A normalized piecewise log-linear density.
///
/// # Examples
///
/// ```
/// use qni_stats::piecewise::PiecewiseExpDensity;
/// use qni_stats::rng::rng_from_seed;
///
/// // f(x) ∝ e^{-x} on [0,1), e^{-1} (flat) on [1,2): a continuous density.
/// let d = PiecewiseExpDensity::continuous_from_slopes(0.0, 2.0, &[1.0], &[-1.0, 0.0])
///     .unwrap();
/// let mut rng = rng_from_seed(1);
/// let x = d.sample(&mut rng);
/// assert!((0.0..2.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct PiecewiseExpDensity {
    segments: Vec<Segment>,
    /// Per-segment sampling data, aligned with `segments`.
    pieces: Vec<Piece>,
    /// Highest peak log-density over the segments.
    peak: f64,
    /// Total mass relative to `peak`.
    total: f64,
}

impl PiecewiseExpDensity {
    /// Builds a density from explicit segments.
    ///
    /// Segments with non-positive width are dropped. Errors if no segment
    /// carries positive mass, or if any segment is divergent
    /// (`hi = +inf` with `slope >= 0`) or malformed (NaN endpoints).
    pub fn new(segments: Vec<Segment>) -> Result<Self, StatsError> {
        let mut segments = segments;
        let mut pieces = Vec::with_capacity(segments.len());
        let (peak, total) = finalize_segments(&mut segments, &mut pieces)?;
        Ok(PiecewiseExpDensity {
            segments,
            pieces,
            peak,
            total,
        })
    }

    /// Builds a *continuous* density on `[lower, upper]` from interior
    /// breakpoints and per-segment slopes.
    ///
    /// `slopes.len()` must equal `breaks.len() + 1`, and `lower`, every
    /// breakpoint and every slope must be finite. Offsets are chosen so
    /// the log-density is continuous across breakpoints, anchored at
    /// `log f(lower) = 0`. Breakpoints outside `(lower, upper)` are clamped
    /// away (their segments become empty and are dropped) — this is what
    /// makes the Gibbs move's degenerate configurations collapse naturally
    /// to fewer segments. `upper` may be `+inf` if the final slope is
    /// negative.
    pub fn continuous_from_slopes(
        lower: f64,
        upper: f64,
        breaks: &[f64],
        slopes: &[f64],
    ) -> Result<Self, StatsError> {
        let mut segments = Vec::with_capacity(slopes.len());
        push_continuous_segments(lower, upper, breaks, slopes, &mut segments)?;
        PiecewiseExpDensity::new(segments)
    }

    /// Returns the segments of the density.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Log normalizing constant of the unnormalized density.
    pub fn log_norm(&self) -> f64 {
        self.peak + self.total.ln()
    }

    /// Probability mass of segment `i`.
    pub fn segment_prob(&self, i: usize) -> f64 {
        self.pieces[i].mass / self.total
    }

    /// Lower end of the support.
    pub fn support_lo(&self) -> f64 {
        self.segments.first().map_or(f64::NAN, |s| s.lo)
    }

    /// Upper end of the support (`+inf` possible).
    pub fn support_hi(&self) -> f64 {
        self.segments.last().map_or(f64::NAN, |s| s.hi)
    }

    /// Normalized log-density at `x` (`-inf` outside the support).
    pub fn log_pdf(&self, x: f64) -> f64 {
        log_pdf_segments(&self.segments, self.log_norm(), x)
    }

    /// CDF at `x`, evaluated in log space by summing full and partial
    /// segment masses.
    pub fn cdf(&self, x: f64) -> f64 {
        let mut parts = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            if x >= seg.hi {
                parts.push(seg.log_mass());
            } else if x > seg.lo {
                parts.push(log_int_exp_linear(seg.offset, seg.slope, seg.lo, x));
            }
        }
        (log_sum_exp(&parts) - self.log_norm()).exp()
    }

    /// Quantile function for `p ∈ [0, 1)`: the map [`Self::sample`]
    /// applies to its one uniform.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&p));
        quantile(&self.segments, &self.pieces, self.total, p)
    }

    /// Draws one sample from one uniform: the uniform picks a segment in
    /// proportion to its mass, and its offset into that segment's mass
    /// inverts the segment's (truncated-)exponential CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        quantile(&self.segments, &self.pieces, self.total, rng.random())
    }
}

/// A reusable, allocation-free workspace for building and sampling
/// piecewise log-linear densities.
///
/// The Gibbs hot path builds one short-lived density per move;
/// constructing a [`PiecewiseExpDensity`] there costs several heap
/// allocations per move. `PiecewiseScratch` owns the segment and mass
/// buffers and rebuilds them in place, so steady-state rebuilds are
/// allocation-free while performing **bit-identical arithmetic** to
/// [`PiecewiseExpDensity::continuous_from_slopes`] (both paths share the
/// same internal builder), and [`PiecewiseScratch::sample`] consumes the
/// RNG exactly like [`PiecewiseExpDensity::sample`].
///
/// # Examples
///
/// ```
/// use qni_stats::piecewise::{PiecewiseExpDensity, PiecewiseScratch};
/// use qni_stats::rng::rng_from_seed;
///
/// let mut scratch = PiecewiseScratch::new();
/// scratch.rebuild_continuous(0.0, 2.0, &[1.0], &[-1.0, 0.0]).unwrap();
/// let owned = PiecewiseExpDensity::continuous_from_slopes(0.0, 2.0, &[1.0], &[-1.0, 0.0])
///     .unwrap();
/// let (mut a, mut b) = (rng_from_seed(3), rng_from_seed(3));
/// assert_eq!(scratch.sample(&mut a).to_bits(), owned.sample(&mut b).to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PiecewiseScratch {
    segments: Vec<Segment>,
    pieces: Vec<Piece>,
    peak: f64,
    total: f64,
}

impl PiecewiseScratch {
    /// Creates an empty workspace (no density built yet).
    pub fn new() -> Self {
        PiecewiseScratch::default()
    }

    /// Rebuilds the workspace as the continuous density
    /// [`PiecewiseExpDensity::continuous_from_slopes`] would construct,
    /// reusing the internal buffers. On error the workspace is left empty
    /// (sampling it would panic), never holding a stale density.
    pub fn rebuild_continuous(
        &mut self,
        lower: f64,
        upper: f64,
        breaks: &[f64],
        slopes: &[f64],
    ) -> Result<(), StatsError> {
        self.segments.clear();
        let build = push_continuous_segments(lower, upper, breaks, slopes, &mut self.segments)
            .and_then(|()| finalize_segments(&mut self.segments, &mut self.pieces));
        match build {
            Ok((peak, total)) => {
                self.peak = peak;
                self.total = total;
                Ok(())
            }
            Err(e) => {
                self.segments.clear();
                self.pieces.clear();
                Err(e)
            }
        }
    }

    /// The segments of the current density (empty before the first
    /// successful rebuild).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Log normalizing constant of the current density.
    pub fn log_norm(&self) -> f64 {
        self.peak + self.total.ln()
    }

    /// Normalized log-density at `x` (`-inf` outside the support).
    pub fn log_pdf(&self, x: f64) -> f64 {
        log_pdf_segments(&self.segments, self.log_norm(), x)
    }

    /// Draws one sample from the current density with one uniform; RNG
    /// consumption and result bits are identical to
    /// [`PiecewiseExpDensity::sample`].
    ///
    /// # Panics
    ///
    /// Panics if no density has been (successfully) built.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        assert!(
            !self.segments.is_empty(),
            "PiecewiseScratch::sample called before a successful rebuild"
        );
        quantile(&self.segments, &self.pieces, self.total, rng.random())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Summary;
    use crate::rng::rng_from_seed;

    fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
        let h = (b - a) / n as f64;
        let mut acc = f(a) + f(b);
        for i in 1..n {
            acc += if i % 2 == 1 { 4.0 } else { 2.0 } * f(a + i as f64 * h);
        }
        acc * h / 3.0
    }

    #[test]
    fn rejects_divergent_and_empty() {
        let div = Segment {
            lo: 0.0,
            hi: f64::INFINITY,
            offset: 0.0,
            slope: 0.5,
        };
        assert!(PiecewiseExpDensity::new(vec![div]).is_err());
        assert!(PiecewiseExpDensity::new(vec![]).is_err());
        let empty = Segment {
            lo: 1.0,
            hi: 1.0,
            offset: 0.0,
            slope: 1.0,
        };
        assert!(PiecewiseExpDensity::new(vec![empty]).is_err());
    }

    #[test]
    fn continuous_builder_is_continuous() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(0.0, 3.0, &[1.0, 2.0], &[1.0, 0.0, -2.0])
                .unwrap();
        assert_eq!(d.segments().len(), 3);
        // Log-density continuous at the breakpoints.
        for &b in &[1.0f64, 2.0] {
            let eps = 1e-9;
            let l = d.log_pdf(b - eps);
            let r = d.log_pdf(b + eps);
            assert!((l - r).abs() < 1e-6, "discontinuity at {b}: {l} vs {r}");
        }
    }

    #[test]
    fn continuous_builder_drops_empty_segments() {
        // Breakpoint at the lower bound: first segment is empty.
        let d =
            PiecewiseExpDensity::continuous_from_slopes(1.0, 2.0, &[1.0], &[5.0, -1.0]).unwrap();
        assert_eq!(d.segments().len(), 1);
        assert_eq!(d.segments()[0].slope, -1.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(-1.0, 2.0, &[0.0, 1.0], &[3.0, -0.5, -4.0])
                .unwrap();
        let total = simpson(|x| d.log_pdf(x).exp(), -1.0, 2.0 - 1e-9, 6000);
        assert!((total - 1.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn cdf_and_inv_cdf_agree() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(0.0, 5.0, &[1.5, 3.0], &[-1.0, 2.0, -3.0])
                .unwrap();
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            let x = d.inv_cdf(p);
            assert!((d.cdf(x) - p).abs() < 1e-8, "p={p}, x={x}");
        }
    }

    #[test]
    fn sampling_matches_cdf() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(0.0, 4.0, &[1.0, 2.0], &[2.0, 0.0, -5.0])
                .unwrap();
        let mut rng = rng_from_seed(17);
        let n = 50_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        // One-sample KS against the exact CDF.
        let mut ks: f64 = 0.0;
        for (i, &x) in samples.iter().enumerate() {
            let f = d.cdf(x);
            let emp_hi = (i + 1) as f64 / n as f64;
            let emp_lo = i as f64 / n as f64;
            ks = ks.max((f - emp_lo).abs()).max((f - emp_hi).abs());
        }
        // 99.9% critical value ≈ 1.95/√n ≈ 0.0087.
        assert!(ks < 0.0087, "ks={ks}");
    }

    #[test]
    fn half_infinite_tail_sampling() {
        // f(x) ∝ e^{-2x} on [1, ∞): a shifted exponential.
        let d = PiecewiseExpDensity::new(vec![Segment {
            lo: 1.0,
            hi: f64::INFINITY,
            offset: 0.0,
            slope: -2.0,
        }])
        .unwrap();
        let mut rng = rng_from_seed(9);
        let xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let s = Summary::from_slice(&xs).unwrap();
        assert!(s.min >= 1.0);
        assert!((s.mean - 1.5).abs() < 0.01, "mean={}", s.mean);
    }

    #[test]
    fn segment_probabilities_sum_to_one() {
        let d =
            PiecewiseExpDensity::continuous_from_slopes(0.0, 10.0, &[2.0, 7.0], &[0.5, -0.1, -1.0])
                .unwrap();
        let total: f64 = (0..d.segments().len()).map(|i| d.segment_prob(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_slopes_remain_finite() {
        // Slopes of ±1000 at times around 1800 (webapp scale).
        let d = PiecewiseExpDensity::continuous_from_slopes(
            1800.0,
            1800.5,
            &[1800.2],
            &[1000.0, -1000.0],
        )
        .unwrap();
        assert!(d.log_norm().is_finite());
        let mut rng = rng_from_seed(2);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!((1800.0..1800.5).contains(&x));
            // Mass concentrates at the peak 1800.2.
            assert!((x - 1800.2).abs() < 0.05);
        }
    }

    #[test]
    fn scratch_matches_owned_builder_bitwise() {
        let cases: &[(f64, f64, &[f64], &[f64])] = &[
            (0.0, 3.0, &[1.0, 2.0], &[1.0, 0.0, -2.0]),
            (-1.0, 2.0, &[0.0, 1.0], &[3.0, -0.5, -4.0]),
            (1.0, 2.0, &[1.0], &[5.0, -1.0]), // Empty first segment.
            (0.0, 1.0, &[], &[0.0]),          // Uniform, no breakpoints.
            (1800.0, 1800.5, &[1800.2], &[1000.0, -1000.0]),
        ];
        let mut scratch = PiecewiseScratch::new();
        for &(lo, hi, breaks, slopes) in cases {
            let owned =
                PiecewiseExpDensity::continuous_from_slopes(lo, hi, breaks, slopes).expect("owned");
            scratch
                .rebuild_continuous(lo, hi, breaks, slopes)
                .expect("scratch");
            assert_eq!(scratch.segments(), owned.segments());
            assert_eq!(scratch.log_norm().to_bits(), owned.log_norm().to_bits());
            let mut ra = rng_from_seed(11);
            let mut rb = rng_from_seed(11);
            for _ in 0..50 {
                let a = owned.sample(&mut ra);
                let b = scratch.sample(&mut rb);
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for &x in &[lo + 1e-6, 0.5 * (lo + hi), hi - 1e-6] {
                assert_eq!(owned.log_pdf(x).to_bits(), scratch.log_pdf(x).to_bits());
            }
        }
    }

    #[test]
    fn scratch_is_reusable_and_clears_on_error() {
        let mut scratch = PiecewiseScratch::new();
        scratch
            .rebuild_continuous(0.0, 1.0, &[], &[1.0])
            .expect("first build");
        assert_eq!(scratch.segments().len(), 1);
        // Invalid rebuild: unsorted breakpoints.
        assert!(scratch
            .rebuild_continuous(0.0, 1.0, &[0.8, 0.2], &[1.0, 0.0, -1.0])
            .is_err());
        assert!(scratch.segments().is_empty());
        // Divergent rebuild: infinite support with non-negative slope.
        assert!(scratch
            .rebuild_continuous(0.0, f64::INFINITY, &[], &[0.5])
            .is_err());
        assert!(scratch.segments().is_empty());
        // Recovers after errors.
        scratch
            .rebuild_continuous(2.0, 4.0, &[3.0], &[0.5, -0.5])
            .expect("rebuild after error");
        assert_eq!(scratch.segments().len(), 2);
        let mut rng = rng_from_seed(4);
        let x = scratch.sample(&mut rng);
        assert!((2.0..4.0).contains(&x));
    }

    #[test]
    fn log_pdf_outside_support_is_neg_inf() {
        let d = PiecewiseExpDensity::continuous_from_slopes(0.0, 1.0, &[], &[0.0]).unwrap();
        assert_eq!(d.log_pdf(-0.1), f64::NEG_INFINITY);
        assert_eq!(d.log_pdf(1.1), f64::NEG_INFINITY);
        assert!((d.log_pdf(0.5) - 0.0).abs() < 1e-12); // Uniform on [0,1).
    }

    #[test]
    fn rejects_non_finite_inputs() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let mut scratch = PiecewiseScratch::new();
        let cases: &[(f64, f64, &[f64], &[f64])] = &[
            (nan, 1.0, &[], &[-1.0]),
            (-inf, 1.0, &[], &[-1.0]),
            (0.0, nan, &[], &[-1.0]),
            (0.0, 2.0, &[nan], &[-1.0, 1.0]),
            (0.0, 2.0, &[inf], &[-1.0, 1.0]),
            (0.0, 2.0, &[], &[nan]),
            (0.0, inf, &[1.0], &[-1.0, nan]),
            (0.0, 2.0, &[1.0], &[-inf, 1.0]),
        ];
        for &(lo, hi, breaks, slopes) in cases {
            let err = PiecewiseExpDensity::continuous_from_slopes(lo, hi, breaks, slopes)
                .expect_err("non-finite input");
            let bad_bounds = !lo.is_finite() || hi.is_nan();
            assert!(
                matches!(
                    (&err, bad_bounds),
                    (StatsError::BadInterval { .. }, true)
                        | (StatsError::BadParameter { .. }, false)
                ),
                "[{lo}, {hi}] {breaks:?} {slopes:?}: {err:?}"
            );
            assert!(scratch.rebuild_continuous(lo, hi, breaks, slopes).is_err());
            assert!(scratch.segments().is_empty());
        }
        // An infinite upper bound is a tail, not an error.
        scratch
            .rebuild_continuous(0.0, inf, &[1.0], &[0.5, -2.0])
            .expect("tail");
        assert_eq!(scratch.segments().len(), 2);
    }

    #[test]
    fn log_norm_matches_the_log_space_sum() {
        let cases: &[(f64, f64, &[f64], &[f64])] = &[
            (0.0, 3.0, &[1.0, 2.0], &[1.0, 0.0, -2.0]),
            (1800.0, 1800.5, &[1800.2], &[1000.0, -1000.0]),
            (
                1800.0,
                f64::INFINITY,
                &[1800.1, 1801.0],
                &[-700.0, 900.0, -0.5],
            ),
            (0.0, 1.0, &[0.5], &[1e-13, -1e-13]),
        ];
        for &(lo, hi, breaks, slopes) in cases {
            let d = PiecewiseExpDensity::continuous_from_slopes(lo, hi, breaks, slopes).unwrap();
            let log_masses: Vec<f64> = d.segments().iter().map(Segment::log_mass).collect();
            let oracle = log_sum_exp(&log_masses);
            let tol = 1e-12 * oracle.abs().max(1.0);
            assert!(
                (d.log_norm() - oracle).abs() < tol,
                "{} vs {oracle}",
                d.log_norm()
            );
            for (i, lm) in log_masses.iter().enumerate() {
                let p = (lm - oracle).exp();
                assert!((d.segment_prob(i) - p).abs() < 1e-12, "segment {i}");
            }
        }
    }
}
