//! Experiment harness regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one artifact of the paper's
//! evaluation:
//!
//! - `fig4` — Figure 4: StEM absolute error in service and waiting times
//!   on five synthetic three-tier structures vs. observed fraction.
//! - `variance_table` — §5.1 in-text comparison: StEM estimator variance
//!   vs. the oracle mean-observed-service baseline.
//! - `fig5` — Figure 5: per-queue estimates on the web-application
//!   testbed vs. observed fraction, including the starved server.
//! - `one_percent` — the abstract's claim that 1% of trace data suffices.
//! - `scaling_table` — §5.2's claim that sweep cost scales in the number
//!   of unobserved arrivals, not the number of servers.
//! - `chain_scaling` — wall-clock speedup of the multi-chain parallel
//!   StEM engine at K ∈ {1, 2, 4, 8}, emitting `BENCH_chains.json` for
//!   the CI anti-regression gate.
//! - `batch_speedup` — batched-vs-scalar arrival-move wall-clock on
//!   M/M/1, tandem-3, and fork-join workloads, emitting
//!   `BENCH_batch.json` for the CI anti-regression gate.
//! - `shard_speedup` — intra-trace sharded sweeps at shard counts
//!   {1, 2, 4} on giant single-chain traces, emitting
//!   `BENCH_shard.json` (speedup + deferred-move fraction per
//!   workload) for the CI gate.
//! - `stream_tracking` — streaming windowed StEM vs. the fixed-log
//!   engine on a piecewise-constant workload, emitting
//!   `BENCH_stream.json` (tracking error + per-window wall time, warm
//!   vs. cold starts) and the `stream_trajectory.csv` artifact.
//! - `bench_compare` — cross-run regression check: compares the current
//!   `BENCH_*.json` against the rolling median of the last accepted
//!   CI runs' reports.
//!
//! Shared infrastructure lives here: replication runners, parallel
//! mapping, and console tables. CSV outputs land in `results/`.

pub mod batch_speedup;
pub mod chain_scaling;
pub mod compare;
pub mod fig4;
pub mod fig5;
pub mod jobs;
pub mod scaling;
pub mod shard_speedup;
pub mod stream_tracking;
pub mod table;
pub mod variance;

use std::path::PathBuf;

/// Resolves the `results/` directory at the workspace root, creating it
/// if needed.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("QNI_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // crates/bench → workspace root.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("results")
        });
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Whether to run experiments in quick mode (reduced sizes for smoke
/// tests), controlled by the `QNI_QUICK` environment variable.
pub fn quick_mode() -> bool {
    std::env::var("QNI_QUICK").is_ok_and(|v| v != "0")
}
