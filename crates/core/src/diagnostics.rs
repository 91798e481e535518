//! MCMC diagnostics for StEM chains.
//!
//! Single-chain tools ([`rate_trace_ess`]) quantify autocorrelation within
//! one run; the multi-chain tools ([`split_potential_scale_reduction`],
//! [`ChainDiagnostics`]) compare independent chains from
//! [`crate::chains::run_stem_parallel`] to detect non-convergence that no
//! single chain can reveal about itself.

use crate::error::InferenceError;
use qni_stats::autocorr::{effective_sample_size, multi_chain_ess, within_and_pooled_variance};

/// Effective sample size of each queue's rate trace.
///
/// `trace` is the per-iteration rate vectors from
/// [`crate::stem::StemResult::rate_trace`]; returns one ESS per queue.
pub fn rate_trace_ess(trace: &[Vec<f64>]) -> Result<Vec<f64>, InferenceError> {
    if trace.len() < 4 {
        return Err(InferenceError::BadOptions {
            what: "need at least 4 iterations for ESS",
        });
    }
    let q = trace[0].len();
    let mut out = Vec::with_capacity(q);
    for i in 0..q {
        let series: Vec<f64> = trace.iter().map(|row| row[i]).collect();
        out.push(effective_sample_size(&series)?);
    }
    Ok(out)
}

/// Gelman–Rubin potential scale reduction factor across chains of one
/// scalar quantity.
///
/// Values near 1 indicate the chains have mixed; > 1.1 is the usual
/// warning threshold.
pub fn potential_scale_reduction(chains: &[Vec<f64>]) -> Result<f64, InferenceError> {
    if chains.len() < 2 || chains.iter().any(|c| c.len() < 2) {
        return Err(InferenceError::BadOptions {
            what: "PSRF needs >= 2 chains of length >= 2",
        });
    }
    let borrowed: Vec<&[f64]> = chains.iter().map(Vec::as_slice).collect();
    let (w, var_plus) = within_and_pooled_variance(&borrowed)?;
    if w <= 0.0 {
        // No within-chain variance: identical constant chains are
        // perfectly mixed, but constant chains stuck at *different* values
        // are maximally unmixed (Stan reports a non-finite R̂ here too).
        return Ok(if var_plus > 0.0 { f64::INFINITY } else { 1.0 });
    }
    Ok((var_plus / w).sqrt())
}

/// Split-R̂: Gelman–Rubin PSRF computed after halving every chain.
///
/// Each of the `m` chains is truncated to the shortest common even length
/// and split into its first and second half, and
/// [`potential_scale_reduction`] is applied to the resulting `2m`
/// half-chains. Splitting catches within-chain trends (a chain still
/// drifting toward the stationary distribution) that plain R̂ misses, and
/// makes the statistic well-defined for a single chain. This is the
/// variant recommended by Gelman et al. (*Bayesian Data Analysis*, §11.4)
/// and reported by Stan.
pub fn split_potential_scale_reduction(chains: &[Vec<f64>]) -> Result<f64, InferenceError> {
    let Some(n) = chains.iter().map(Vec::len).min() else {
        return Err(InferenceError::BadOptions {
            what: "split-R̂ needs at least one chain",
        });
    };
    let half = n / 2;
    if half < 2 {
        return Err(InferenceError::BadOptions {
            what: "split-R̂ needs chains of length >= 4",
        });
    }
    let mut halves = Vec::with_capacity(2 * chains.len());
    for c in chains {
        halves.push(c[..half].to_vec());
        halves.push(c[half..2 * half].to_vec());
    }
    potential_scale_reduction(&halves)
}

/// Per-queue convergence summary of a multi-chain StEM run.
#[derive(Debug, Clone)]
pub struct ChainDiagnostics {
    /// Split-R̂ of each queue's rate trace (entry 0 is λ's).
    pub split_rhat: Vec<f64>,
    /// Pooled effective sample size of each queue's rate trace, summed
    /// over chains.
    pub ess: Vec<f64>,
}

impl ChainDiagnostics {
    /// The largest split-R̂ across queues — the single number to check
    /// against the 1.05 warning threshold.
    pub fn max_split_rhat(&self) -> f64 {
        self.split_rhat.iter().copied().fold(f64::NAN, f64::max)
    }

    /// The smallest pooled ESS across queues.
    pub fn min_ess(&self) -> f64 {
        self.ess.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Whether every queue's split-R̂ is below `threshold` (1.05 is the
    /// customary strict cut, 1.1 the lenient one).
    pub fn converged(&self, threshold: f64) -> bool {
        self.split_rhat
            .iter()
            .all(|r| r.is_finite() && *r < threshold)
    }
}

/// Computes [`ChainDiagnostics`] from per-chain post-burn-in rate traces.
///
/// `traces[k]` is chain `k`'s kept rate trace: one `Vec<f64>` of per-queue
/// rates per iteration, as in [`crate::stem::StemResult::rate_trace`]. All
/// chains must have the same queue count; each needs >= 4 kept iterations.
pub fn rate_trace_diagnostics(traces: &[&[Vec<f64>]]) -> Result<ChainDiagnostics, InferenceError> {
    if traces.is_empty() || traces.iter().any(|t| t.len() < 4) {
        return Err(InferenceError::BadOptions {
            what: "chain diagnostics need >= 1 chain with >= 4 kept iterations each",
        });
    }
    let q = traces[0][0].len();
    if traces.iter().any(|t| t.iter().any(|row| row.len() != q)) {
        return Err(InferenceError::BadOptions {
            what: "chains disagree on the number of queues",
        });
    }
    let mut split_rhat = Vec::with_capacity(q);
    let mut ess = Vec::with_capacity(q);
    for i in 0..q {
        let series: Vec<Vec<f64>> = traces
            .iter()
            .map(|t| t.iter().map(|row| row[i]).collect())
            .collect();
        split_rhat.push(split_potential_scale_reduction(&series)?);
        let borrowed: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
        ess.push(multi_chain_ess(&borrowed)?);
    }
    Ok(ChainDiagnostics { split_rhat, ess })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qni_stats::rng::rng_from_seed;
    use rand::Rng;

    #[test]
    fn ess_shape() {
        let trace: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i as f64).sin(), (i as f64).cos()])
            .collect();
        let ess = rate_trace_ess(&trace).unwrap();
        assert_eq!(ess.len(), 2);
        assert!(rate_trace_ess(&trace[..2]).is_err());
    }

    #[test]
    fn psrf_near_one_for_same_distribution() {
        let mut rng = rng_from_seed(1);
        let chains: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..2000).map(|_| rng.random::<f64>()).collect())
            .collect();
        let r = potential_scale_reduction(&chains).unwrap();
        assert!((r - 1.0).abs() < 0.02, "r={r}");
    }

    #[test]
    fn psrf_large_for_separated_chains() {
        let mut rng = rng_from_seed(2);
        let a: Vec<f64> = (0..500).map(|_| rng.random::<f64>()).collect();
        let b: Vec<f64> = (0..500).map(|_| rng.random::<f64>() + 10.0).collect();
        let r = potential_scale_reduction(&[a, b]).unwrap();
        assert!(r > 5.0, "r={r}");
    }

    #[test]
    fn psrf_constant_chains() {
        let r = potential_scale_reduction(&[vec![1.0; 10], vec![1.0; 10]]).unwrap();
        assert_eq!(r, 1.0);
        // Constant chains stuck at different values are NOT mixed.
        let r = potential_scale_reduction(&[vec![1.0; 10], vec![2.0; 10]]).unwrap();
        assert!(r.is_infinite());
        let split = split_potential_scale_reduction(&[vec![1.0; 8], vec![2.0; 8]]).unwrap();
        assert!(split.is_infinite());
        let d = ChainDiagnostics {
            split_rhat: vec![split],
            ess: vec![2.0],
        };
        assert!(!d.converged(1.05));
    }

    #[test]
    fn psrf_validation() {
        assert!(potential_scale_reduction(&[vec![1.0, 2.0]]).is_err());
        assert!(potential_scale_reduction(&[vec![1.0], vec![1.0]]).is_err());
    }

    #[test]
    fn split_psrf_flags_trending_single_chain() {
        // A monotone drift is invisible to plain R̂ with one chain but
        // split-R̂ sees the first half and second half disagree.
        let drift: Vec<f64> = (0..200).map(|i| i as f64 * 0.1).collect();
        let r = split_potential_scale_reduction(&[drift]).unwrap();
        assert!(r > 1.5, "r={r}");
    }

    #[test]
    fn split_psrf_near_one_for_stationary_chains() {
        let mut rng = rng_from_seed(3);
        let chains: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..2000).map(|_| rng.random::<f64>()).collect())
            .collect();
        let r = split_potential_scale_reduction(&chains).unwrap();
        assert!((r - 1.0).abs() < 0.03, "r={r}");
    }

    #[test]
    fn split_psrf_validation() {
        assert!(split_potential_scale_reduction(&[]).is_err());
        assert!(split_potential_scale_reduction(&[vec![1.0, 2.0, 3.0]]).is_err());
    }

    #[test]
    fn trace_diagnostics_shapes_and_thresholds() {
        let mut rng = rng_from_seed(4);
        let traces: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|_| {
                (0..500)
                    .map(|_| vec![rng.random::<f64>(), rng.random::<f64>() + 5.0])
                    .collect()
            })
            .collect();
        let borrowed: Vec<&[Vec<f64>]> = traces.iter().map(Vec::as_slice).collect();
        let d = rate_trace_diagnostics(&borrowed).unwrap();
        assert_eq!(d.split_rhat.len(), 2);
        assert_eq!(d.ess.len(), 2);
        assert!(d.converged(1.05), "rhat={:?}", d.split_rhat);
        // R̂ can dip slightly below 1 when between-chain variance is tiny.
        assert!(d.max_split_rhat() > 0.95, "rhat={:?}", d.split_rhat);
        assert!(d.min_ess() > 100.0, "ess={:?}", d.ess);
    }

    #[test]
    fn trace_diagnostics_validation() {
        assert!(rate_trace_diagnostics(&[]).is_err());
        let short = vec![vec![1.0], vec![2.0]];
        assert!(rate_trace_diagnostics(&[&short]).is_err());
        let a = vec![vec![1.0, 2.0]; 10];
        let b = vec![vec![1.0]; 10];
        assert!(rate_trace_diagnostics(&[&a, &b]).is_err());
    }
}
