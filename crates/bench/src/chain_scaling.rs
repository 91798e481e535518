//! Chain-scaling experiment: wall-clock speedup of multi-chain StEM.
//!
//! Holds the *total* post-burn-in sample budget fixed and splits it across
//! `K` parallel chains: each chain runs `burn_in + ceil(samples/K)`
//! iterations, so K chains finish their (parallel) post-burn-in work in
//! roughly `1/K` of the time while the per-chain burn-in is the serial
//! fraction (Amdahl). The experiment reports wall-clock speedup relative
//! to `K = 1` plus the convergence diagnostics of each configuration, and
//! serializes everything as machine-readable JSON (`BENCH_chains.json`)
//! for the CI anti-regression gate.

use qni_core::chains::{run_stem_parallel, ParallelStemOptions};
use qni_core::stem::StemOptions;
use qni_model::topology::three_tier;
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::{MaskedLog, ObservationScheme};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The workload every measurement point runs on.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChainWorkload {
    /// Tasks simulated through the 1-2-4 three-tier network.
    pub tasks: usize,
    /// Fraction of tasks with observed arrivals.
    pub fraction: f64,
    /// Total post-burn-in samples, split evenly across chains.
    pub samples_total: usize,
    /// Burn-in iterations *per chain* (the serial fraction).
    pub burn_in: usize,
    /// Simulation/masking seed.
    pub seed: u64,
}

impl ChainWorkload {
    /// The default (full-size) workload used by the chain-scaling binary.
    pub fn default_full() -> Self {
        ChainWorkload {
            tasks: 600,
            fraction: 0.1,
            samples_total: 400,
            burn_in: 40,
            seed: 7,
        }
    }

    /// A reduced workload for CI smoke runs (`QNI_QUICK=1`).
    pub fn quick() -> Self {
        ChainWorkload {
            tasks: 250,
            fraction: 0.1,
            samples_total: 160,
            burn_in: 16,
            seed: 7,
        }
    }

    /// The engine options for running this workload at `chains` chains:
    /// each chain gets `burn_in + ceil(samples_total / chains)` iterations,
    /// so the *total* kept-sample budget is fixed while the post-burn-in
    /// work parallelizes. Shared by [`measure`] and its warm-up so the
    /// fixed-budget formula lives in one place.
    pub fn options_for(&self, chains: usize) -> ParallelStemOptions {
        ParallelStemOptions {
            stem: StemOptions {
                iterations: self.burn_in + self.samples_total.div_ceil(chains),
                burn_in: self.burn_in,
                waiting_sweeps: 1,
                ..StemOptions::default()
            },
            chains,
            master_seed: self.seed,
            thread_budget: None,
        }
    }

    /// Simulates and masks the workload's trace.
    pub fn build(&self) -> MaskedLog {
        let bp = three_tier(10.0, 5.0, &[1, 2, 4], false).expect("structure");
        let mut rng = rng_from_seed(self.seed);
        let truth = Simulator::new(&bp.network)
            .run(
                &Workload::poisson_n(10.0, self.tasks).expect("workload"),
                &mut rng,
            )
            .expect("simulation");
        ObservationScheme::task_sampling(self.fraction)
            .expect("fraction")
            .apply(truth, &mut rng)
            .expect("mask")
    }
}

/// One measurement point of the chain-scaling experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChainScalingPoint {
    /// Number of parallel chains.
    pub chains: usize,
    /// Iterations each chain ran (burn-in + its share of the budget).
    pub iterations_per_chain: usize,
    /// Wall-clock seconds for the whole `run_stem_parallel` call.
    pub wall_secs: f64,
    /// Wall-clock speedup relative to the K=1 point (filled by the
    /// caller once the K=1 baseline is known).
    pub speedup: f64,
    /// `speedup / chains` — parallel efficiency in `(0, 1]`.
    pub efficiency: f64,
    /// Largest per-queue split-R̂ of the run.
    pub max_split_rhat: f64,
    /// Smallest per-queue pooled ESS of the run.
    pub min_ess: f64,
    /// Pooled λ̂ (sanity: must agree across K within Monte-Carlo noise).
    pub lambda_hat: f64,
}

/// The full JSON report written to `BENCH_chains.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChainScalingReport {
    /// Report schema / experiment name.
    pub bench: String,
    /// Whether the reduced `QNI_QUICK` workload was used.
    pub quick: bool,
    /// Worker threads the host reports as available.
    pub available_parallelism: usize,
    /// The workload every point ran on.
    pub workload: ChainWorkload,
    /// One entry per chain count, in measurement order.
    pub points: Vec<ChainScalingPoint>,
}

/// Measures one chain count on a pre-built masked log.
///
/// The per-chain iteration count is `burn_in + ceil(samples_total /
/// chains)`, i.e. the *total* kept-sample budget is fixed while the
/// post-burn-in work parallelizes.
pub fn measure(masked: &MaskedLog, w: &ChainWorkload, chains: usize) -> ChainScalingPoint {
    let opts = w.options_for(chains);
    let start = Instant::now();
    let r = run_stem_parallel(masked, None, &opts).expect("parallel stem");
    let wall_secs = start.elapsed().as_secs_f64();
    ChainScalingPoint {
        chains,
        iterations_per_chain: opts.stem.iterations,
        wall_secs,
        speedup: 1.0,
        efficiency: 1.0,
        max_split_rhat: r.diagnostics.max_split_rhat(),
        min_ess: r.diagnostics.min_ess(),
        lambda_hat: r.rates[0],
    }
}

/// Runs the experiment at each chain count and fills in speedups
/// relative to the first (expected `K = 1`) point.
pub fn run_experiment(w: &ChainWorkload, chain_counts: &[usize]) -> Vec<ChainScalingPoint> {
    let masked = w.build();
    // Untimed warm-up: absorb first-touch page faults and allocator growth
    // so they don't inflate the first (baseline) measurement and bias
    // every speedup upward.
    if let Some(&k0) = chain_counts.first() {
        run_stem_parallel(&masked, None, &w.options_for(k0)).expect("warm-up");
    }
    let mut points: Vec<ChainScalingPoint> = chain_counts
        .iter()
        .map(|&k| measure(&masked, w, k))
        .collect();
    if let Some(base) = points.first().map(|p| p.wall_secs) {
        for p in &mut points {
            p.speedup = base / p.wall_secs;
            p.efficiency = p.speedup / p.chains as f64;
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_reports_sane_points() {
        let w = ChainWorkload {
            tasks: 80,
            fraction: 0.2,
            samples_total: 24,
            burn_in: 4,
            seed: 1,
        };
        let points = run_experiment(&w, &[1, 2]);
        assert_eq!(points.len(), 2);
        assert!((points[0].speedup - 1.0).abs() < 1e-12);
        for p in &points {
            assert!(p.wall_secs > 0.0);
            assert!(p.min_ess > 0.0);
            assert!(p.max_split_rhat.is_finite());
            assert!(p.lambda_hat > 0.0);
        }
        assert_eq!(points[1].iterations_per_chain, 4 + 12);
    }

    #[test]
    fn report_serializes_to_json() {
        let w = ChainWorkload::quick();
        let report = ChainScalingReport {
            bench: "chain_scaling".into(),
            quick: true,
            available_parallelism: 4,
            workload: w,
            points: vec![],
        };
        let json = serde_json::to_string(&report).expect("json");
        assert!(json.contains("\"bench\":\"chain_scaling\""), "{json}");
        assert!(json.contains("\"samples_total\":160"), "{json}");
    }
}
