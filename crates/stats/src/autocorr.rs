//! Autocorrelation and effective sample size for MCMC diagnostics.
//!
//! Stochastic EM produces a Markov chain of parameter estimates; these
//! utilities quantify how correlated the chain is and how many effectively
//! independent draws it contains (Geyer's initial positive sequence).

use crate::error::StatsError;

/// Sample autocovariance at lag `k` (biased, `1/n` normalization).
pub fn autocovariance(xs: &[f64], k: usize) -> Result<f64, StatsError> {
    if xs.is_empty() || k >= xs.len() {
        return Err(StatsError::EmptyData);
    }
    let n = xs.len();
    let mean: f64 = xs.iter().sum::<f64>() / n as f64;
    let mut acc = 0.0;
    for i in 0..n - k {
        acc += (xs[i] - mean) * (xs[i + k] - mean);
    }
    Ok(acc / n as f64)
}

/// Sample autocorrelation at lag `k`, in `[-1, 1]`.
pub fn autocorrelation(xs: &[f64], k: usize) -> Result<f64, StatsError> {
    let c0 = autocovariance(xs, 0)?;
    if c0 <= 0.0 {
        return Err(StatsError::BadParameter {
            what: "zero-variance sequence has undefined autocorrelation",
        });
    }
    Ok(autocovariance(xs, k)? / c0)
}

/// Effective sample size via Geyer's initial positive sequence estimator.
///
/// Sums consecutive autocorrelation pairs `ρ(2t) + ρ(2t+1)` while they stay
/// positive; `ESS = n / (1 + 2·Σρ)`. Returns `n` for an (empirically)
/// uncorrelated chain.
pub fn effective_sample_size(xs: &[f64]) -> Result<f64, StatsError> {
    if xs.len() < 4 {
        return Err(StatsError::EmptyData);
    }
    let n = xs.len();
    let c0 = autocovariance(xs, 0)?;
    if c0 <= 0.0 {
        // A constant chain carries one effective observation.
        return Ok(1.0);
    }
    let mut sum_rho = 0.0;
    let mut t = 1;
    while t + 1 < n / 2 {
        let pair = (autocovariance(xs, t)? + autocovariance(xs, t + 1)?) / c0;
        if pair <= 0.0 {
            break;
        }
        sum_rho += pair;
        t += 2;
    }
    Ok(n as f64 / (1.0 + 2.0 * sum_rho))
}

/// Gelman–Rubin variance components: within-chain variance `W` and the
/// pooled estimate `var⁺ = (n−1)/n · W + B/n`.
///
/// All chains are truncated to the shortest common length `n`; requires
/// ≥ 2 chains of length ≥ 2. `var⁺/W` is the squared potential scale
/// reduction factor (R̂²); `W ≤ 0` with `var⁺ > 0` means constant chains
/// stuck at different values (maximally unmixed).
pub fn within_and_pooled_variance(chains: &[&[f64]]) -> Result<(f64, f64), StatsError> {
    let shortest = chains.iter().map(|c| c.len()).min();
    let Some(n) = shortest.filter(|&n| n >= 2 && chains.len() >= 2) else {
        return Err(StatsError::EmptyData);
    };
    let m = chains.len() as f64;
    let means: Vec<f64> = chains
        .iter()
        .map(|c| c[..n].iter().sum::<f64>() / n as f64)
        .collect();
    let grand = means.iter().sum::<f64>() / m;
    let w = chains
        .iter()
        .zip(&means)
        .map(|(c, mu)| c[..n].iter().map(|x| (x - mu).powi(2)).sum::<f64>() / (n - 1) as f64)
        .sum::<f64>()
        / m;
    let b = n as f64 / (m - 1.0) * means.iter().map(|mu| (mu - grand).powi(2)).sum::<f64>();
    let var_plus = (n - 1) as f64 / n as f64 * w + b / n as f64;
    Ok((w, var_plus))
}

/// Combined effective sample size of several independent chains.
///
/// Every chain is truncated to the shortest common length; each truncated
/// chain's ESS is computed with [`effective_sample_size`] and the results
/// are summed, then — when two or more chains are given — the sum is
/// deflated by `W / var⁺` (see [`within_and_pooled_variance`]; the factor
/// is `1/R̂²`). For well-mixed chains the factor is ≈ 1 and independent
/// chains contribute additively; for chains stuck at different modes,
/// between-chain variance dominates `var⁺` and the pooled ESS collapses
/// toward zero instead of overstating the information in the pooled
/// estimate. This mirrors the multi-chain ESS of Gelman et al. (*Bayesian
/// Data Analysis*, §11.5), which discounts by between-chain disagreement
/// rather than summing per-chain values.
///
/// # Examples
///
/// ```
/// use qni_stats::autocorr::multi_chain_ess;
///
/// let a: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin()).collect();
/// let b: Vec<f64> = (0..100).map(|i| (i as f64 * 1.3).cos()).collect();
/// let pooled = multi_chain_ess(&[&a, &b]).unwrap();
/// assert!(pooled > 0.0);
/// ```
pub fn multi_chain_ess(chains: &[&[f64]]) -> Result<f64, StatsError> {
    let Some(n) = chains.iter().map(|c| c.len()).min() else {
        return Err(StatsError::EmptyData);
    };
    let truncated: Vec<&[f64]> = chains.iter().map(|c| &c[..n]).collect();
    let mut total = 0.0;
    for c in &truncated {
        total += effective_sample_size(c)?;
    }
    if truncated.len() < 2 {
        return Ok(total);
    }
    let (w, var_plus) = within_and_pooled_variance(&truncated)?;
    if var_plus <= 0.0 {
        // All chains constant and identical: the per-chain values (1
        // each) already say it.
        return Ok(total);
    }
    if w <= 0.0 {
        // Constant chains at different values: the pooled estimate
        // carries no usable information.
        return Ok(0.0);
    }
    // Cap at 1 — agreement cannot add information beyond the sum.
    Ok(total * (w / var_plus).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    #[test]
    fn white_noise_has_full_ess() {
        let mut rng = rng_from_seed(31);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.random::<f64>()).collect();
        let ess = effective_sample_size(&xs).unwrap();
        assert!(ess > 2_500.0, "ess={ess}");
        let rho1 = autocorrelation(&xs, 1).unwrap();
        assert!(rho1.abs() < 0.05);
    }

    #[test]
    fn ar1_chain_has_reduced_ess() {
        // x_t = 0.9·x_{t-1} + ε: theoretical ESS factor (1-φ)/(1+φ) ≈ 1/19.
        let mut rng = rng_from_seed(32);
        let mut xs = vec![0.0f64];
        for _ in 0..20_000 {
            let e: f64 = rng.random::<f64>() - 0.5;
            let prev = *xs.last().expect("non-empty");
            xs.push(0.9 * prev + e);
        }
        let ess = effective_sample_size(&xs).unwrap();
        let n = xs.len() as f64;
        assert!(ess < n / 8.0, "ess={ess}, n={n}");
        assert!(ess > n / 60.0, "ess={ess}, n={n}");
        let rho1 = autocorrelation(&xs, 1).unwrap();
        assert!((rho1 - 0.9).abs() < 0.05, "rho1={rho1}");
    }

    #[test]
    fn constant_sequence() {
        let xs = vec![2.0; 100];
        assert_eq!(effective_sample_size(&xs).unwrap(), 1.0);
        assert!(autocorrelation(&xs, 1).is_err());
    }

    #[test]
    fn validation() {
        assert!(autocovariance(&[], 0).is_err());
        assert!(autocovariance(&[1.0, 2.0], 2).is_err());
        assert!(effective_sample_size(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn multi_chain_ess_sums_well_mixed_chains() {
        let mut rng = rng_from_seed(33);
        let a: Vec<f64> = (0..2_000).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = (0..2_000).map(|_| rng.random::<f64>()).collect();
        let ea = effective_sample_size(&a).unwrap();
        let eb = effective_sample_size(&b).unwrap();
        let pooled = multi_chain_ess(&[&a, &b]).unwrap();
        // Same-distribution chains: the between-chain discount is ≈ 1.
        assert!(pooled <= ea + eb + 1e-9, "pooled={pooled} sum={}", ea + eb);
        assert!(pooled > 0.9 * (ea + eb), "pooled={pooled} sum={}", ea + eb);
        assert!(multi_chain_ess(&[]).is_err());
        assert!(multi_chain_ess(&[&[1.0, 2.0][..]]).is_err());
    }

    #[test]
    fn within_and_pooled_variance_components() {
        // Two chains of variance 0.25 (alternating ±0.5 around their
        // means) with means 0 and 10: W = 0.25, var⁺ dominated by B.
        let a: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let b: Vec<f64> = a.iter().map(|x| x + 10.0).collect();
        let (w, var_plus) = within_and_pooled_variance(&[&a, &b]).unwrap();
        assert!((w - 0.25252525).abs() < 1e-6, "w={w}");
        assert!(var_plus > 10.0, "var_plus={var_plus}");
        assert!(within_and_pooled_variance(&[&a]).is_err());
        assert!(within_and_pooled_variance(&[&a, &[1.0][..]]).is_err());
    }

    #[test]
    fn multi_chain_ess_truncates_to_common_length() {
        // A long chain that drifts after the common prefix must not leak
        // its full-length ESS into the pooled value: only the first
        // min-length samples of each chain may count.
        let mut rng = rng_from_seed(35);
        let long: Vec<f64> = (0..5_000)
            .map(|i| rng.random::<f64>() + if i >= 100 { 10.0 } else { 0.0 })
            .collect();
        let short: Vec<f64> = (0..100).map(|_| rng.random::<f64>()).collect();
        let pooled = multi_chain_ess(&[&long, &short]).unwrap();
        let prefix_sum =
            effective_sample_size(&long[..100]).unwrap() + effective_sample_size(&short).unwrap();
        assert!(
            pooled <= prefix_sum + 1e-9,
            "pooled={pooled} prefix_sum={prefix_sum}"
        );
    }

    #[test]
    fn multi_chain_ess_zero_for_constant_separated_chains() {
        let pooled = multi_chain_ess(&[&[1.0; 10][..], &[2.0; 10][..]]).unwrap();
        assert_eq!(pooled, 0.0);
        // Identical constant chains: one effective draw per chain.
        let pooled = multi_chain_ess(&[&[1.0; 10][..], &[1.0; 10][..]]).unwrap();
        assert_eq!(pooled, 2.0);
    }

    #[test]
    fn multi_chain_ess_collapses_for_separated_chains() {
        // Two locally-uncorrelated chains stuck at different modes: each
        // alone has ESS ≈ n, but the pooled estimate carries almost no
        // information — the discount must crush the naive 2n sum.
        let mut rng = rng_from_seed(34);
        let a: Vec<f64> = (0..1_000).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = (0..1_000).map(|_| rng.random::<f64>() + 10.0).collect();
        let naive = effective_sample_size(&a).unwrap() + effective_sample_size(&b).unwrap();
        let pooled = multi_chain_ess(&[&a, &b]).unwrap();
        assert!(pooled < naive / 100.0, "pooled={pooled} naive={naive}");
    }
}
