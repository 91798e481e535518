//! Cross-run benchmark regression check (see `qni_bench::compare`).
//!
//! Two modes, both exiting nonzero on a regression:
//!
//! - **Pairwise**: `--previous FILE` compares the current `BENCH_*.json`
//!   against the single previous successful run's downloaded artifact.
//! - **Rolling history**: `--history-dir DIR [--keep K]` compares each
//!   headline metric against the rolling *median* of the last `K`
//!   accepted reports (robust to one noisy CI run), then appends the
//!   current report to the directory and prunes it back to `K`. The
//!   directory round-trips through CI as the `bench-history` artifact.
//!   A regressed report is *not* recorded, so a bad run cannot drag the
//!   median down for its successors.
//!
//! A missing or unreadable previous artifact / empty history is *not*
//! an error — the absolute `QNI_*_GATE` gates in the bench binaries are
//! the fallback for that case.
//!
//! Usage:
//!   bench_compare --kind batch|shard|chains|stream \
//!       --current results/BENCH_batch.json \
//!       (--previous prev/BENCH_batch.json | --history-dir hist [--keep 10]) \
//!       [--min-ratio 0.75]

use qni_bench::compare::{
    append_history, batch_metrics, chains_metrics, compare_batch, compare_chains, compare_shard,
    compare_stream, compare_to_history, history_entries, shard_metrics, stream_metrics, Metric,
    Outcome, DEFAULT_KEEP, DEFAULT_MIN_RATIO,
};
use std::path::Path;
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn read_report<T: for<'de> serde::Deserialize<'de>>(path: &str, what: &str) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{what} `{path}` unreadable: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{what} `{path}` unparsable: {e:?}"))
}

/// Runs one pairwise comparison: the *current* report must parse (it was
/// produced by this run); only the previous one may be missing, which
/// yields [`Outcome::NoBaseline`].
fn run_compare<T: for<'de> serde::Deserialize<'de>>(
    current: &str,
    previous: &str,
    min_ratio: f64,
    f: impl Fn(&T, &T, f64) -> Outcome,
) -> Result<Outcome, String> {
    let cur: T = read_report(current, "current report")?;
    Ok(match read_report::<T>(previous, "previous artifact") {
        Ok(prev) => f(&cur, &prev, min_ratio),
        Err(why) => Outcome::NoBaseline(why),
    })
}

/// Extracts headline metrics from a report file of the given kind.
fn metrics_of(kind: &str, path: &str, what: &str) -> Result<Vec<Metric>, String> {
    match kind {
        "batch" => Ok(batch_metrics(&read_report(path, what)?)),
        "shard" => Ok(shard_metrics(&read_report(path, what)?)),
        "chains" => Ok(chains_metrics(&read_report(path, what)?)),
        "stream" => Ok(stream_metrics(&read_report(path, what)?)),
        other => Err(format!(
            "--kind must be `batch`, `shard`, `chains`, or `stream`, got `{other}`"
        )),
    }
}

/// Rolling-history mode: compare against the median of the stored
/// reports, then (unless regressed) append the current one and prune.
fn run_history(
    kind: &str,
    current: &str,
    dir: &Path,
    keep: usize,
    min_ratio: f64,
) -> Result<Outcome, String> {
    let cur = metrics_of(kind, current, "current report")?;
    let mut history = Vec::new();
    if dir.is_dir() {
        for (_, path) in
            history_entries(dir, kind).map_err(|e| format!("history dir unreadable: {e}"))?
        {
            let path = path.display().to_string();
            match metrics_of(kind, &path, "history entry") {
                Ok(m) => history.push(m),
                // A stale/corrupt entry degrades the sample, not the job.
                Err(why) => eprintln!("warning: skipping {why}"),
            }
        }
    }
    let outcome = compare_to_history(&cur, &history, min_ratio);
    if outcome.is_regression() {
        println!("  (regressed report NOT recorded into history)");
    } else {
        let json = std::fs::read_to_string(current)
            .map_err(|e| format!("current report `{current}` unreadable: {e}"))?;
        let path = append_history(dir, kind, &json, keep)
            .map_err(|e| format!("history append failed: {e}"))?;
        println!("  recorded as {} (keep {keep})", path.display());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(kind), Some(current)) = (flag(&args, "--kind"), flag(&args, "--current")) else {
        eprintln!(
            "usage: bench_compare --kind batch|shard|chains|stream --current FILE \
             (--previous FILE | --history-dir DIR [--keep K]) [--min-ratio R]"
        );
        return ExitCode::FAILURE;
    };
    let min_ratio: f64 = flag(&args, "--min-ratio")
        .map(|v| v.parse().expect("--min-ratio must be a number"))
        .unwrap_or(DEFAULT_MIN_RATIO);

    let outcome = match (flag(&args, "--history-dir"), flag(&args, "--previous")) {
        (Some(dir), _) => {
            let keep: usize = flag(&args, "--keep")
                .map(|v| v.parse().expect("--keep must be an integer"))
                .unwrap_or(DEFAULT_KEEP);
            println!("cross-run comparison ({kind}, rolling median, min ratio {min_ratio}):");
            run_history(&kind, &current, Path::new(&dir), keep.max(1), min_ratio)
        }
        (None, Some(previous)) => {
            println!("cross-run comparison ({kind}, pairwise, min ratio {min_ratio}):");
            match kind.as_str() {
                "batch" => run_compare(&current, &previous, min_ratio, compare_batch),
                "shard" => run_compare(&current, &previous, min_ratio, compare_shard),
                "chains" => run_compare(&current, &previous, min_ratio, compare_chains),
                "stream" => run_compare(&current, &previous, min_ratio, compare_stream),
                other => Err(format!(
                    "--kind must be `batch`, `shard`, `chains`, or `stream`, got `{other}`"
                )),
            }
        }
        (None, None) => {
            eprintln!("error: need --previous FILE or --history-dir DIR");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    for line in outcome.lines() {
        println!("  {line}");
    }
    if outcome.is_regression() {
        eprintln!("FAIL: benchmark regressed vs run history");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
