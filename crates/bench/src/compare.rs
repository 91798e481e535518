//! Cross-run benchmark comparison for CI.
//!
//! The `bench-smoke` job uploads its `BENCH_*.json` reports per run. The
//! `bench_compare` binary checks the current numbers against history, so
//! regressions are caught across runs, not just against the in-run
//! baseline. Two modes:
//!
//! - **Pairwise** (`--previous`): compare against the single previous
//!   successful run's artifact. One noisy previous run skews the floor.
//! - **Rolling history** (`--history-dir`): keep the last `K` accepted
//!   reports in a directory (itself round-tripped as a CI artifact) and
//!   compare each headline metric against the *rolling median* of its
//!   history — robust to individual noisy runs in a way the pairwise
//!   check is not. After a passing comparison the current report is
//!   appended to the directory and the oldest entries pruned to `K`.
//!
//! When no history exists (first run, expired retention, forked PR
//! without artifact access) the comparison is skipped — the absolute
//! `QNI_BATCH_GATE` / `QNI_SHARD_GATE` gates in the bench binaries
//! remain the fallback.
//!
//! Comparisons are deliberately tolerant: shared CI runners are noisy,
//! so a point only fails when it drops below `min_ratio` (default
//! [`DEFAULT_MIN_RATIO`]) of the reference value.

use crate::batch_speedup::BatchSpeedupReport;
use crate::chain_scaling::ChainScalingReport;
use crate::shard_speedup::ShardSpeedupReport;
use crate::stream_tracking::StreamTrackingReport;
use std::path::{Path, PathBuf};

/// Default fraction of the previous run's speedup the current run must
/// retain. 0.75 tolerates heavy runner noise while still catching a
/// real "parallelism silently turned off" regression (which shows up as
/// a ~2x drop).
pub const DEFAULT_MIN_RATIO: f64 = 0.75;

/// The outcome of one cross-run comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// No previous artifact (or it was unreadable): nothing to compare.
    NoBaseline(String),
    /// Comparison ran; every point held up.
    Ok(Vec<String>),
    /// Comparison ran; at least one point regressed.
    Regressed(Vec<String>),
}

impl Outcome {
    /// Whether CI should fail on this outcome.
    pub fn is_regression(&self) -> bool {
        matches!(self, Outcome::Regressed(_))
    }

    /// Human-readable report lines.
    pub fn lines(&self) -> Vec<String> {
        match self {
            Outcome::NoBaseline(why) => vec![format!("no baseline: {why} (comparison skipped)")],
            Outcome::Ok(lines) | Outcome::Regressed(lines) => lines.clone(),
        }
    }
}

fn check_point(name: &str, current: f64, previous: f64, min_ratio: f64) -> (bool, String) {
    let floor = previous * min_ratio;
    let ok = current >= floor;
    (
        ok,
        format!(
            "{name}: speedup {current:.2}x vs previous {previous:.2}x (floor {floor:.2}x) — {}",
            if ok { "ok" } else { "REGRESSED" }
        ),
    )
}

/// Compares two `BENCH_batch.json` reports: every workload present in
/// both must retain `min_ratio` of its previous batched-vs-scalar
/// speedup.
pub fn compare_batch(
    current: &BatchSpeedupReport,
    previous: &BatchSpeedupReport,
    min_ratio: f64,
) -> Outcome {
    let mut lines = Vec::new();
    let mut regressed = false;
    for cur in &current.points {
        let Some(prev) = previous.points.iter().find(|p| p.name == cur.name) else {
            lines.push(format!("{}: new workload, no previous point", cur.name));
            continue;
        };
        let (ok, line) = check_point(&cur.name, cur.speedup, prev.speedup, min_ratio);
        regressed |= !ok;
        lines.push(line);
    }
    if regressed {
        Outcome::Regressed(lines)
    } else {
        Outcome::Ok(lines)
    }
}

/// Compares two `BENCH_shard.json` reports on the max-shard speedup of
/// every workload present in both. Skipped entirely when either run was
/// measured on a single-thread host (its speedups are ≤ 1 by
/// construction, so a comparison would only measure noise).
pub fn compare_shard(
    current: &ShardSpeedupReport,
    previous: &ShardSpeedupReport,
    min_ratio: f64,
) -> Outcome {
    if current.host_threads < 2 || previous.host_threads < 2 {
        return Outcome::NoBaseline(format!(
            "shard speedups need a multi-core host (current: {} threads, previous: {})",
            current.host_threads, previous.host_threads
        ));
    }
    let mut lines = Vec::new();
    let mut regressed = false;
    for cur in &current.points {
        let Some(prev) = previous.points.iter().find(|p| p.name == cur.name) else {
            lines.push(format!("{}: new workload, no previous point", cur.name));
            continue;
        };
        let (Some(&c), Some(&p)) = (cur.speedup.last(), prev.speedup.last()) else {
            lines.push(format!("{}: empty speedup vector, skipped", cur.name));
            continue;
        };
        let (ok, line) = check_point(&cur.name, c, p, min_ratio);
        regressed |= !ok;
        lines.push(line);
    }
    if regressed {
        Outcome::Regressed(lines)
    } else {
        Outcome::Ok(lines)
    }
}

/// Compares two `BENCH_chains.json` reports on the largest-K point's
/// wall-clock speedup. Skipped when either run was measured on a
/// single-thread host (multi-chain speedups are ≤ 1 by construction
/// there, so a comparison would only measure noise) — the same rule as
/// [`compare_shard`].
pub fn compare_chains(
    current: &ChainScalingReport,
    previous: &ChainScalingReport,
    min_ratio: f64,
) -> Outcome {
    if current.available_parallelism < 2 || previous.available_parallelism < 2 {
        return Outcome::NoBaseline(format!(
            "chain speedups need a multi-core host (current: {} threads, previous: {})",
            current.available_parallelism, previous.available_parallelism
        ));
    }
    let max_point = |r: &ChainScalingReport| {
        r.points
            .iter()
            .max_by_key(|p| p.chains)
            .map(|p| (p.chains, p.speedup))
    };
    let (Some((ck, c)), Some((pk, p))) = (max_point(current), max_point(previous)) else {
        return Outcome::NoBaseline("a report has no measurement points".into());
    };
    if ck != pk {
        return Outcome::NoBaseline(format!(
            "chain counts differ (current max K={ck}, previous K={pk})"
        ));
    }
    let (ok, line) = check_point(&format!("chains K={ck}"), c, p, min_ratio);
    if ok {
        Outcome::Ok(vec![line])
    } else {
        Outcome::Regressed(vec![line])
    }
}

/// Smallest tracking error treated as meaningfully nonzero: below this,
/// ratio comparisons would amplify Monte-Carlo dust into failures.
const STREAM_ERR_FLOOR: f64 = 0.02;

fn check_error_point(name: &str, current: f64, previous: f64, min_ratio: f64) -> (bool, String) {
    // Tracking error: *lower* is better, so the ceiling is the previous
    // error inflated by 1/min_ratio (floored to dodge near-zero noise).
    let ceiling = previous.max(STREAM_ERR_FLOOR) / min_ratio;
    let ok = current <= ceiling;
    (
        ok,
        format!(
            "{name}: mean tracking error {:.1}% vs previous {:.1}% (ceiling {:.1}%) — {}",
            current * 100.0,
            previous * 100.0,
            ceiling * 100.0,
            if ok { "ok" } else { "REGRESSED" }
        ),
    )
}

/// Compares two `BENCH_stream.json` reports on the warm and cold mean
/// tracking errors (lower is better; the runs are fully seeded so the
/// error itself is deterministic given an unchanged scenario).
pub fn compare_stream(
    current: &StreamTrackingReport,
    previous: &StreamTrackingReport,
    min_ratio: f64,
) -> Outcome {
    let mut lines = Vec::new();
    let mut regressed = false;
    for (cur, prev) in [
        (&current.warm, &previous.warm),
        (&current.cold, &previous.cold),
    ] {
        if !(cur.mean_rel_err.is_finite() && prev.mean_rel_err.is_finite()) {
            lines.push(format!(
                "{}: no eligible windows in one run, skipped",
                cur.mode
            ));
            continue;
        }
        let (ok, line) =
            check_error_point(&cur.mode, cur.mean_rel_err, prev.mean_rel_err, min_ratio);
        regressed |= !ok;
        lines.push(line);
    }
    if regressed {
        Outcome::Regressed(lines)
    } else {
        Outcome::Ok(lines)
    }
}

// ---------------------------------------------------------------------
// Rolling-history mode.
// ---------------------------------------------------------------------

/// Default number of historical reports kept per benchmark kind.
pub const DEFAULT_KEEP: usize = 10;

/// One headline scalar extracted from a report, comparable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name (workload or mode), used to match across runs.
    pub name: String,
    /// The scalar (a speedup, or a tracking error).
    pub value: f64,
    /// `true` for error-like metrics where smaller is better.
    pub lower_is_better: bool,
}

impl Metric {
    fn speedup(name: impl Into<String>, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
            lower_is_better: false,
        }
    }

    fn error(name: impl Into<String>, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
            lower_is_better: true,
        }
    }
}

/// Headline metrics of a batch-speedup report: per-workload speedup.
pub fn batch_metrics(r: &BatchSpeedupReport) -> Vec<Metric> {
    r.points
        .iter()
        .map(|p| Metric::speedup(&p.name, p.speedup))
        .collect()
}

/// Headline metrics of a shard-speedup report: per-workload max-shard
/// speedup. Empty on a single-thread host (speedups are ≤ 1 by
/// construction there — recording them would poison the median).
pub fn shard_metrics(r: &ShardSpeedupReport) -> Vec<Metric> {
    if r.host_threads < 2 {
        return Vec::new();
    }
    r.points
        .iter()
        .filter_map(|p| {
            p.speedup
                .last()
                .map(|&s| Metric::speedup(format!("{} (max shards)", p.name), s))
        })
        .collect()
}

/// Headline metric of a chain-scaling report: the largest-K speedup,
/// keyed by K so runs with different sweep sizes never cross-compare.
/// Empty on a single-thread host.
pub fn chains_metrics(r: &ChainScalingReport) -> Vec<Metric> {
    if r.available_parallelism < 2 {
        return Vec::new();
    }
    r.points
        .iter()
        .max_by_key(|p| p.chains)
        .map(|p| vec![Metric::speedup(format!("chains K={}", p.chains), p.speedup)])
        .unwrap_or_default()
}

/// Headline metrics of a stream-tracking report: warm and cold mean
/// tracking errors (lower is better; seeded, so deterministic given an
/// unchanged scenario).
pub fn stream_metrics(r: &StreamTrackingReport) -> Vec<Metric> {
    [&r.warm, &r.cold]
        .into_iter()
        .filter(|t| t.mean_rel_err.is_finite())
        .map(|t| Metric::error(&t.mode, t.mean_rel_err))
        .collect()
}

/// Median of a nonempty sample (mean of the middle pair when even).
/// Returns `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Compares the current run's headline metrics against the rolling
/// median of the same metric across historical runs. A metric with no
/// history is reported but never fails; an entirely empty history is
/// [`Outcome::NoBaseline`].
pub fn compare_to_history(current: &[Metric], history: &[Vec<Metric>], min_ratio: f64) -> Outcome {
    if history.is_empty() {
        return Outcome::NoBaseline("history directory holds no prior reports".into());
    }
    let mut lines = Vec::new();
    let mut regressed = false;
    for m in current {
        let past: Vec<f64> = history
            .iter()
            .filter_map(|run| {
                run.iter()
                    .find(|h| h.name == m.name && h.lower_is_better == m.lower_is_better)
                    .map(|h| h.value)
            })
            .collect();
        let Some(med) = median(&past) else {
            lines.push(format!("{}: new metric, no history", m.name));
            continue;
        };
        let runs = past.len();
        let (ok, line) = if m.lower_is_better {
            let (ok, line) = check_error_point(&m.name, m.value, med, min_ratio);
            (ok, format!("{line} [median of {runs} run(s)]"))
        } else {
            let (ok, line) = check_point(&m.name, m.value, med, min_ratio);
            (ok, format!("{line} [median of {runs} run(s)]"))
        };
        regressed |= !ok;
        lines.push(line);
    }
    if regressed {
        Outcome::Regressed(lines)
    } else {
        Outcome::Ok(lines)
    }
}

/// Lists history files for one kind (`BENCH_<kind>.<index>.json`),
/// sorted by ascending index. Files that don't match the pattern are
/// ignored, so the directory can hold several kinds side by side.
pub fn history_entries(dir: &Path, kind: &str) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let prefix = format!("BENCH_{kind}.");
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(middle) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        if let Ok(index) = middle.parse::<u64>() {
            entries.push((index, path));
        }
    }
    entries.sort_by_key(|&(index, _)| index);
    Ok(entries)
}

/// Appends the current report to the history directory under the next
/// free index and prunes the oldest entries down to `keep`. Returns the
/// path written.
pub fn append_history(
    dir: &Path,
    kind: &str,
    report_json: &str,
    keep: usize,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let entries = history_entries(dir, kind)?;
    let next = entries.last().map_or(0, |&(index, _)| index + 1);
    let path = dir.join(format!("BENCH_{kind}.{next:06}.json"));
    std::fs::write(&path, report_json)?;
    let total = entries.len() + 1;
    for (_, old) in entries.iter().take(total.saturating_sub(keep.max(1))) {
        std::fs::remove_file(old)?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_speedup::BatchPoint;
    use crate::chain_scaling::{ChainScalingPoint, ChainWorkload};
    use crate::shard_speedup::ShardPoint;
    use crate::stream_tracking::{FixedSummary, StreamScenario, TrackingSummary};

    fn batch_report(speedup: f64) -> BatchSpeedupReport {
        BatchSpeedupReport {
            bench: "batch_speedup".into(),
            quick: true,
            reps: 1,
            points: vec![BatchPoint {
                name: "tandem3".into(),
                free_arrivals: 100,
                scalar_secs: 1.0,
                batched_secs: 1.0 / speedup,
                speedup,
                fallback_fraction: 0.0,
                lambda_scalar: 2.0,
                lambda_batched: 2.0,
            }],
        }
    }

    fn shard_report(speedup4: f64, host_threads: usize) -> ShardSpeedupReport {
        ShardSpeedupReport {
            bench: "shard_speedup".into(),
            quick: true,
            reps: 1,
            host_threads,
            points: vec![ShardPoint {
                name: "tandem3".into(),
                free_arrivals: 1000,
                shards: vec![1, 2, 4],
                secs: vec![1.0, 0.7, 1.0 / speedup4],
                speedup: vec![1.0, 1.4, speedup4],
                deferred_fraction: 0.01,
                lambda: 2.0,
            }],
        }
    }

    #[test]
    fn batch_within_tolerance_passes() {
        let out = compare_batch(&batch_report(1.3), &batch_report(1.5), DEFAULT_MIN_RATIO);
        assert!(!out.is_regression(), "{:?}", out.lines());
    }

    #[test]
    fn batch_large_drop_regresses() {
        let out = compare_batch(&batch_report(0.9), &batch_report(1.5), DEFAULT_MIN_RATIO);
        assert!(out.is_regression());
    }

    #[test]
    fn shard_comparison_checks_max_shard_point() {
        let out = compare_shard(
            &shard_report(1.8, 4),
            &shard_report(2.0, 4),
            DEFAULT_MIN_RATIO,
        );
        assert!(!out.is_regression(), "{:?}", out.lines());
        let out = compare_shard(
            &shard_report(1.0, 4),
            &shard_report(2.0, 4),
            DEFAULT_MIN_RATIO,
        );
        assert!(out.is_regression());
    }

    #[test]
    fn shard_comparison_skipped_on_single_core_hosts() {
        let out = compare_shard(
            &shard_report(0.8, 1),
            &shard_report(2.0, 4),
            DEFAULT_MIN_RATIO,
        );
        assert!(
            !out.is_regression(),
            "1-core current host must skip: {:?}",
            out.lines()
        );
        assert!(matches!(out, Outcome::NoBaseline(_)));
    }

    fn chains_report(speedup4: f64, parallelism: usize) -> ChainScalingReport {
        ChainScalingReport {
            bench: "chain_scaling".into(),
            quick: true,
            available_parallelism: parallelism,
            workload: ChainWorkload::quick(),
            points: [1usize, 4]
                .iter()
                .map(|&k| ChainScalingPoint {
                    chains: k,
                    iterations_per_chain: 20,
                    wall_secs: 1.0,
                    speedup: if k == 1 { 1.0 } else { speedup4 },
                    efficiency: 1.0,
                    max_split_rhat: 1.0,
                    min_ess: 50.0,
                    lambda_hat: 10.0,
                })
                .collect(),
        }
    }

    fn stream_report(warm_err: f64, cold_err: f64) -> StreamTrackingReport {
        let summary = |mode: &str, err: f64| TrackingSummary {
            mode: mode.into(),
            windows: 8,
            eligible_windows: 6,
            mean_rel_err: err,
            max_rel_err: err * 1.5,
            total_secs: 1.0,
            mean_window_secs: 0.125,
        };
        StreamTrackingReport {
            bench: "stream_tracking".into(),
            quick: true,
            scenario: StreamScenario::quick(),
            tasks: 480,
            warm: summary("warm", warm_err),
            cold: summary("cold", cold_err),
            fixed: FixedSummary {
                lambda_hat: 4.0,
                rel_err_seg1: 1.0,
                rel_err_seg2: 0.33,
                secs: 0.5,
            },
        }
    }

    #[test]
    fn chains_comparison_checks_max_k_and_skips_single_core() {
        let out = compare_chains(
            &chains_report(2.5, 4),
            &chains_report(3.0, 4),
            DEFAULT_MIN_RATIO,
        );
        assert!(!out.is_regression(), "{:?}", out.lines());
        let out = compare_chains(
            &chains_report(1.0, 4),
            &chains_report(3.0, 4),
            DEFAULT_MIN_RATIO,
        );
        assert!(out.is_regression());
        let out = compare_chains(
            &chains_report(0.8, 1),
            &chains_report(3.0, 4),
            DEFAULT_MIN_RATIO,
        );
        assert!(matches!(out, Outcome::NoBaseline(_)));
    }

    #[test]
    fn stream_comparison_fails_on_error_growth_only() {
        // Error shrank: fine.
        let out = compare_stream(
            &stream_report(0.05, 0.08),
            &stream_report(0.08, 0.10),
            DEFAULT_MIN_RATIO,
        );
        assert!(!out.is_regression(), "{:?}", out.lines());
        // Error grew slightly within the ceiling: fine.
        let out = compare_stream(
            &stream_report(0.09, 0.08),
            &stream_report(0.08, 0.08),
            DEFAULT_MIN_RATIO,
        );
        assert!(!out.is_regression(), "{:?}", out.lines());
        // Warm error blew up: regression.
        let out = compare_stream(
            &stream_report(0.20, 0.08),
            &stream_report(0.08, 0.08),
            DEFAULT_MIN_RATIO,
        );
        assert!(out.is_regression());
        // Near-zero noise is floored, not failed.
        let out = compare_stream(
            &stream_report(0.02, 0.02),
            &stream_report(0.005, 0.005),
            DEFAULT_MIN_RATIO,
        );
        assert!(!out.is_regression(), "{:?}", out.lines());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert!(median(&[]).is_none());
        assert!((median(&[3.0, 1.0, 2.0]).expect("odd") - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]).expect("even") - 2.5).abs() < 1e-12);
    }

    #[test]
    fn history_comparison_uses_rolling_median() {
        let hist: Vec<Vec<Metric>> = [1.4, 1.5, 0.2, 1.6]
            .iter()
            .map(|&s| batch_metrics(&batch_report(s)))
            .collect();
        // Median of {1.4, 1.5, 0.2, 1.6} is 1.45 — the one noisy 0.2 run
        // does not drag the floor down the way a pairwise check would.
        let ok = compare_to_history(&batch_metrics(&batch_report(1.2)), &hist, DEFAULT_MIN_RATIO);
        assert!(!ok.is_regression(), "{:?}", ok.lines());
        let bad = compare_to_history(&batch_metrics(&batch_report(0.9)), &hist, DEFAULT_MIN_RATIO);
        assert!(bad.is_regression(), "{:?}", bad.lines());
        // Empty history skips; a new metric name is reported, not failed.
        assert!(matches!(
            compare_to_history(&batch_metrics(&batch_report(1.0)), &[], DEFAULT_MIN_RATIO),
            Outcome::NoBaseline(_)
        ));
    }

    #[test]
    fn history_comparison_respects_lower_is_better() {
        let hist: Vec<Vec<Metric>> = [0.06, 0.08, 0.07]
            .iter()
            .map(|&e| stream_metrics(&stream_report(e, e)))
            .collect();
        let ok = compare_to_history(
            &stream_metrics(&stream_report(0.08, 0.08)),
            &hist,
            DEFAULT_MIN_RATIO,
        );
        assert!(!ok.is_regression(), "{:?}", ok.lines());
        let bad = compare_to_history(
            &stream_metrics(&stream_report(0.20, 0.07)),
            &hist,
            DEFAULT_MIN_RATIO,
        );
        assert!(bad.is_regression(), "{:?}", bad.lines());
    }

    #[test]
    fn single_core_reports_contribute_no_metrics() {
        assert!(shard_metrics(&shard_report(2.0, 1)).is_empty());
        assert!(chains_metrics(&chains_report(2.0, 1)).is_empty());
        assert_eq!(shard_metrics(&shard_report(2.0, 4)).len(), 1);
    }

    #[test]
    fn history_files_rotate_and_prune() {
        let dir = std::env::temp_dir().join(format!(
            "qni_bench_hist_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for i in 0..5 {
            let json = format!("{{\"run\":{i}}}");
            append_history(&dir, "batch", &json, 3).expect("append");
        }
        // Another kind in the same directory is untouched by pruning.
        append_history(&dir, "stream", "{}", 3).expect("append other kind");
        let entries = history_entries(&dir, "batch").expect("list");
        let indices: Vec<u64> = entries.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![2, 3, 4], "oldest pruned, order kept");
        assert_eq!(history_entries(&dir, "stream").expect("list").len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_workloads_are_reported_not_failed() {
        let mut prev = batch_report(1.5);
        prev.points[0].name = "other".into();
        let out = compare_batch(&batch_report(1.0), &prev, DEFAULT_MIN_RATIO);
        assert!(!out.is_regression());
        assert!(out.lines()[0].contains("no previous point"));
    }
}
