//! Intra-trace sharding speedup experiment.
//!
//! Runs the same **single-chain** StEM workload at shard counts
//! {1, 2, 4} (`ShardMode` of `qni_core::gibbs::shard`) on three
//! topologies — M/M/1, a three-stage tandem, and a fork-join network —
//! and reports the wall-clock speedup of each shard count over the
//! serial sweep, the deferred-move fraction (same-wave π-couplings that
//! fall back to the serial cleanup), and a byte-identity cross-check:
//! sharding is contractually a pure performance knob, so the λ̂ of every
//! shard count must be *exactly* equal, and [`measure`] asserts it.
//!
//! The workloads are deliberately larger than `batch_speedup`'s: a wave
//! only fans out across worker threads once every worker can be handed
//! `MIN_EVENTS_PER_WORKER` members, so sharding targets the
//! one-giant-trace regime the ROADMAP calls out (per-queue waves of
//! hundreds-to-thousands of events), not the small-trace regime where
//! the wave pool's dispatch overhead would dominate.

use crate::batch_speedup::BatchWorkload;
use qni_core::gibbs::sweep::{sweep_with_opts_pooled, BatchMode};
use qni_core::init::InitStrategy;
use qni_core::stem::{run_stem, StemOptions};
use qni_core::{GibbsState, ShardMode, WavePool};
use qni_stats::rng::rng_from_seed;
use qni_trace::MaskedLog;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The shard counts every workload is measured at.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The standard workload set at full or quick (CI smoke) size.
///
/// Reuses [`BatchWorkload`]'s topologies and trace construction
/// (arrivals task-sampled, every exit observed) at single-giant-trace
/// sizes.
pub fn workloads(quick: bool) -> Vec<BatchWorkload> {
    let (tasks, iterations, burn_in) = if quick { (4000, 15, 4) } else { (8000, 40, 10) };
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

/// One measurement: the same workload at every shard count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardPoint {
    /// Workload identifier.
    pub name: String,
    /// Free arrival variables in the masked log (the sharded axis).
    pub free_arrivals: usize,
    /// Shard counts measured, aligned with `secs` and `speedup`.
    pub shards: Vec<usize>,
    /// Best-of-reps wall-clock per shard count, seconds.
    pub secs: Vec<f64>,
    /// Speedup of each shard count over shards = 1.
    pub speedup: Vec<f64>,
    /// Fraction of batched arrival moves deferred to the serial cleanup
    /// (same-wave π-couplings), probed over a few sweeps.
    pub deferred_fraction: f64,
    /// λ̂ of the run — identical at every shard count by contract
    /// (asserted during measurement).
    pub lambda: f64,
}

/// The full JSON report written to `BENCH_shard.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSpeedupReport {
    /// Report schema / experiment name.
    pub bench: String,
    /// Whether the reduced `QNI_QUICK` workload was used.
    pub quick: bool,
    /// Timed repetitions per shard count (best kept).
    pub reps: usize,
    /// Hardware threads available on the measuring host (speedups on a
    /// 1-thread host are ≤ 1 by construction).
    pub host_threads: usize,
    /// One entry per workload, in measurement order.
    pub points: Vec<ShardPoint>,
}

fn options(w: &BatchWorkload, shards: usize) -> StemOptions {
    StemOptions {
        iterations: w.iterations,
        burn_in: w.burn_in,
        waiting_sweeps: 3,
        shard: ShardMode::Sharded(shards),
        ..StemOptions::default()
    }
}

fn time_run(masked: &MaskedLog, w: &BatchWorkload, shards: usize, reps: usize) -> (f64, f64) {
    let opts = options(w, shards);
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

/// Probes the deferred-move fraction on this workload over three
/// two-shard sweeps on a wave pool: the share of batched arrival moves
/// whose prepared conditional a same-wave move invalidated, forcing the
/// serial-cleanup rebuild.
fn probe_deferred(masked: &MaskedLog, w: &BatchWorkload) -> f64 {
    let rates = qni_core::stem::heuristic_rates(masked);
    let mut state = GibbsState::new(masked, rates, InitStrategy::default()).expect("state");
    let mut rng = rng_from_seed(w.seed ^ 0x5eed);
    let mut pool = WavePool::new(2);
    let (mut moves, mut deferred) = (0, 0);
    for _ in 0..3 {
        let stats = sweep_with_opts_pooled(
            &mut state,
            BatchMode::Grouped,
            ShardMode::Sharded(2),
            Some(&mut pool),
            &mut rng,
        )
        .expect("sweep");
        moves += stats.arrival_moves;
        deferred += stats.group_fallbacks;
    }
    if moves == 0 {
        0.0
    } else {
        deferred as f64 / moves as f64
    }
}

/// Measures one workload at every shard count (ascending), asserting
/// the byte-identity contract on λ̂ along the way.
pub fn measure(w: &BatchWorkload, reps: usize) -> ShardPoint {
    let masked = w.build();
    // Untimed warm-up: absorb first-touch page faults and allocator
    // growth so they don't bias the first timed configuration.
    let _ = time_run(&masked, w, 1, 1);
    let mut secs = Vec::with_capacity(SHARD_COUNTS.len());
    let mut lambda = None;
    for &shards in &SHARD_COUNTS {
        let (s, l) = time_run(&masked, w, shards, reps);
        secs.push(s);
        match lambda {
            None => lambda = Some(l),
            Some(prev) => assert_eq!(
                prev.to_bits(),
                l.to_bits(),
                "{}: λ̂ diverged between shard counts — the determinism contract is broken",
                w.name
            ),
        }
    }
    let speedup = secs.iter().map(|&s| secs[0] / s).collect();
    ShardPoint {
        name: w.name.clone(),
        free_arrivals: masked.free_arrivals().len(),
        shards: SHARD_COUNTS.to_vec(),
        secs,
        speedup,
        deferred_fraction: probe_deferred(&masked, w),
        lambda: lambda.expect("at least one shard count"),
    }
}

/// Runs the full experiment.
pub fn run_experiment(quick: bool) -> ShardSpeedupReport {
    let reps = 2;
    let points = workloads(quick).iter().map(|w| measure(w, reps)).collect();
    ShardSpeedupReport {
        bench: "shard_speedup".to_owned(),
        quick,
        reps,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
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
            tasks: 60,
            fraction: 0.2,
            iterations: 8,
            burn_in: 2,
            seed: 1,
        };
        let p = measure(&w, 1);
        assert_eq!(p.shards, SHARD_COUNTS);
        assert_eq!(p.secs.len(), SHARD_COUNTS.len());
        assert!(p.secs.iter().all(|&s| s > 0.0));
        assert!((p.speedup[0] - 1.0).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&p.deferred_fraction));
        assert!(p.lambda > 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = ShardSpeedupReport {
            bench: "shard_speedup".to_owned(),
            quick: true,
            reps: 1,
            host_threads: 4,
            points: vec![ShardPoint {
                name: "mm1".to_owned(),
                free_arrivals: 10,
                shards: SHARD_COUNTS.to_vec(),
                secs: vec![1.0, 0.6, 0.4],
                speedup: vec![1.0, 1.67, 2.5],
                deferred_fraction: 0.01,
                lambda: 2.0,
            }],
        };
        let json = serde_json::to_string(&report).expect("json");
        let back: ShardSpeedupReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.bench, "shard_speedup");
        assert_eq!(back.points.len(), 1);
        assert_eq!(back.points[0].shards, SHARD_COUNTS);
    }

    #[test]
    fn workload_set_is_giant_trace_sized() {
        for w in workloads(true) {
            assert!(w.tasks >= 2000, "{} too small for wave fan-out", w.name);
        }
    }
}
