//! Batched-vs-scalar arrival-move speedup experiment.
//!
//! Runs the same single-chain StEM workload twice — once with
//! [`BatchMode::Scalar`] (one conditional rebuild per arrival move, the
//! paper's baseline) and once with [`BatchMode::Grouped`] (the batched
//! same-queue engine of `qni_core::gibbs::batch`) — on three topologies:
//! an M/M/1 queue, a three-stage tandem, and a fork-join network (tasks
//! fork across redundant servers per tier and rejoin at the next). Each
//! configuration is timed over several repetitions keeping the best, and
//! everything is serialized as `BENCH_batch.json` for the CI
//! anti-regression gate (`QNI_BATCH_GATE`, checked on the tandem-3
//! point).

use qni_core::gibbs::sweep::{sweep_with_opts_pooled, BatchMode};
use qni_core::init::InitStrategy;
use qni_core::stem::{run_stem, StemOptions};
use qni_core::{GibbsState, ShardMode};
use qni_model::topology::{single_queue, tandem, three_tier, Blueprint};
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::{MaskedLog, ObservationScheme};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One topology + masking + iteration budget to measure.
#[derive(Debug, Clone, Serialize)]
pub struct BatchWorkload {
    /// Short identifier (`mm1`, `tandem3`, `forkjoin`).
    pub name: String,
    /// Tasks simulated.
    pub tasks: usize,
    /// Fraction of tasks with observed arrivals.
    pub fraction: f64,
    /// StEM iterations per run.
    pub iterations: usize,
    /// Burn-in iterations.
    pub burn_in: usize,
    /// Simulation/masking/inference seed.
    pub seed: u64,
}

impl BatchWorkload {
    fn blueprint(&self) -> Blueprint {
        match self.name.as_str() {
            "mm1" => single_queue(2.0, 5.0).expect("topology"),
            "tandem3" => tandem(2.0, &[5.0, 4.0, 6.0]).expect("topology"),
            // Fork-join: two tiers of three redundant servers; each task
            // forks to one server per tier and rejoins at the next.
            "forkjoin" => three_tier(8.0, 5.0, &[3, 3], false).expect("topology"),
            other => panic!("unknown workload `{other}`"),
        }
    }

    /// Simulates and masks the workload's trace: arrivals task-sampled at
    /// `fraction`, plus *every* task exit time observed — the common
    /// production pattern (completion logging is cheap; per-queue arrival
    /// tracing is the expensive part this sampler imputes). This keeps the
    /// sweep dominated by arrival moves, the axis batching optimizes.
    pub fn build(&self) -> MaskedLog {
        let bp = self.blueprint();
        // The workload drives the network at its configured arrival rate
        // (q0's rate), so the load lives in one place: `blueprint`.
        let lambda = bp.network.rates().expect("mm1 rates")[0];
        let mut rng = rng_from_seed(self.seed);
        let truth = Simulator::new(&bp.network)
            .run(
                &Workload::poisson_n(lambda, self.tasks).expect("workload"),
                &mut rng,
            )
            .expect("simulation");
        let sampled = ObservationScheme::task_sampling(self.fraction)
            .expect("fraction")
            .apply(truth, &mut rng)
            .expect("mask");
        let mut mask = sampled.mask().clone();
        let truth = sampled.ground_truth().clone();
        for e in truth.event_ids() {
            if truth.is_final_event(e) {
                mask.observe_departure(e);
            }
        }
        MaskedLog::new(truth, mask).expect("mask shape")
    }

    fn options(&self, batch: BatchMode) -> StemOptions {
        StemOptions {
            iterations: self.iterations,
            burn_in: self.burn_in,
            waiting_sweeps: 5,
            batch,
            ..StemOptions::default()
        }
    }
}

/// The standard workload set at full or quick (CI smoke) size.
pub fn workloads(quick: bool) -> Vec<BatchWorkload> {
    let (tasks, iterations, burn_in) = if quick { (150, 40, 10) } else { (600, 150, 50) };
    ["mm1", "tandem3", "forkjoin"]
        .into_iter()
        .map(|name| BatchWorkload {
            name: name.to_owned(),
            tasks,
            fraction: 0.1,
            iterations,
            burn_in,
            seed: 7,
        })
        .collect()
}

/// One measurement: the same workload under both batch modes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchPoint {
    /// Workload identifier.
    pub name: String,
    /// Free arrival variables in the masked log (the batched axis).
    pub free_arrivals: usize,
    /// Best-of-reps wall-clock of the scalar run, seconds.
    pub scalar_secs: f64,
    /// Best-of-reps wall-clock of the batched run, seconds.
    pub batched_secs: f64,
    /// `scalar_secs / batched_secs`.
    pub speedup: f64,
    /// Fraction of batched arrival moves that hit the conflict fallback
    /// (probed over a few sweeps; 0 means every cached plan was reused).
    pub fallback_fraction: f64,
    /// Pooled λ̂ of the scalar run (sanity).
    pub lambda_scalar: f64,
    /// Pooled λ̂ of the batched run (sanity: same posterior, different
    /// scan order — must agree within Monte-Carlo noise).
    pub lambda_batched: f64,
}

/// The full JSON report written to `BENCH_batch.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchSpeedupReport {
    /// Report schema / experiment name.
    pub bench: String,
    /// Whether the reduced `QNI_QUICK` workload was used.
    pub quick: bool,
    /// Timed repetitions per mode (best kept).
    pub reps: usize,
    /// One entry per workload, in measurement order.
    pub points: Vec<BatchPoint>,
}

fn time_run(masked: &MaskedLog, w: &BatchWorkload, mode: BatchMode, reps: usize) -> (f64, f64) {
    let opts = w.options(mode);
    let mut best = f64::INFINITY;
    let mut lambda = 0.0;
    for _ in 0..reps.max(1) {
        let mut rng = rng_from_seed(w.seed);
        let start = Instant::now();
        let r = run_stem(masked, None, &opts, &mut rng).expect("stem run");
        best = best.min(start.elapsed().as_secs_f64());
        lambda = r.rates[0];
    }
    (best, lambda)
}

/// Probes the conflict-fallback fraction of the batched engine on this
/// workload: the share of arrival moves whose cached bounds a groupmate
/// invalidated.
fn probe_fallbacks(masked: &MaskedLog, w: &BatchWorkload) -> f64 {
    let rates = qni_core::stem::heuristic_rates(masked);
    let mut state = GibbsState::new(masked, rates, InitStrategy::default()).expect("state");
    let mut rng = rng_from_seed(w.seed ^ 0x5eed);
    let (mut moves, mut fallbacks) = (0, 0);
    for _ in 0..5 {
        let stats = sweep_with_opts_pooled(
            &mut state,
            BatchMode::Grouped,
            ShardMode::Serial,
            None,
            &mut rng,
        )
        .expect("sweep");
        moves += stats.arrival_moves;
        fallbacks += stats.group_fallbacks;
    }
    if moves == 0 {
        0.0
    } else {
        fallbacks as f64 / moves as f64
    }
}

/// Measures one workload under both modes (scalar first, then batched).
pub fn measure(w: &BatchWorkload, reps: usize) -> BatchPoint {
    let masked = w.build();
    // Untimed warm-up: absorb first-touch page faults and allocator
    // growth so they don't bias the first timed mode.
    let _ = time_run(&masked, w, BatchMode::Scalar, 1);
    let (scalar_secs, lambda_scalar) = time_run(&masked, w, BatchMode::Scalar, reps);
    let (batched_secs, lambda_batched) = time_run(&masked, w, BatchMode::Grouped, reps);
    BatchPoint {
        name: w.name.clone(),
        free_arrivals: masked.free_arrivals().len(),
        scalar_secs,
        batched_secs,
        speedup: scalar_secs / batched_secs,
        fallback_fraction: probe_fallbacks(&masked, w),
        lambda_scalar,
        lambda_batched,
    }
}

/// Runs the full experiment.
pub fn run_experiment(quick: bool) -> BatchSpeedupReport {
    let reps = if quick { 3 } else { 2 };
    let points = workloads(quick).iter().map(|w| measure(w, reps)).collect();
    BatchSpeedupReport {
        bench: "batch_speedup".to_owned(),
        quick,
        reps,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_experiment_reports_sane_points() {
        let w = BatchWorkload {
            name: "tandem3".to_owned(),
            tasks: 40,
            fraction: 0.2,
            iterations: 10,
            burn_in: 2,
            seed: 1,
        };
        let p = measure(&w, 1);
        assert!(p.scalar_secs > 0.0 && p.batched_secs > 0.0);
        assert!(p.speedup > 0.0);
        assert!(p.free_arrivals > 0);
        assert!((0.0..=1.0).contains(&p.fallback_fraction));
        assert!(p.lambda_scalar > 0.0 && p.lambda_batched > 0.0);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = BatchSpeedupReport {
            bench: "batch_speedup".to_owned(),
            quick: true,
            reps: 1,
            points: vec![],
        };
        let json = serde_json::to_string(&report).expect("json");
        assert!(json.contains("\"bench\":\"batch_speedup\""), "{json}");
    }

    #[test]
    fn workload_set_covers_all_topologies() {
        let names: Vec<String> = workloads(true).into_iter().map(|w| w.name).collect();
        assert_eq!(names, ["mm1", "tandem3", "forkjoin"]);
        for w in workloads(true) {
            let masked = w.build();
            assert!(masked.free_arrivals().len() > 10, "{}", w.name);
        }
    }
}
