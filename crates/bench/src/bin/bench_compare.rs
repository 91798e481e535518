//! Cross-run benchmark regression check (see `qni_bench::compare`).
//!
//! Compares each headline metric of the current `BENCH_*.json` against
//! the rolling *median* of the last `K` accepted reports (robust to one
//! noisy CI run), then appends the current report to the directory and
//! prunes it back to `K`. The directory round-trips through CI as the
//! `bench-history` artifact. A regressed report is *not* recorded, so a
//! bad run cannot drag the median down for its successors. Exits nonzero
//! on a regression.
//!
//! An empty or missing history is *not* an error — the absolute
//! `QNI_*_GATE` gates in the bench binaries are the fallback for that
//! case.
//!
//! Usage:
//!   bench_compare --kind batch|shard|chains|stream \
//!       --current results/BENCH_batch.json \
//!       --history-dir hist [--keep 10] [--min-ratio 0.75]

use qni_bench::compare::{
    append_history, batch_metrics, chains_metrics, compare_to_history, history_entries,
    shard_metrics, stream_metrics, Metric, Outcome, DEFAULT_KEEP, DEFAULT_MIN_RATIO,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: bench_compare --kind batch|shard|chains|stream --current FILE \
     --history-dir DIR [--keep K] [--min-ratio R]";

/// Every flag `bench_compare` reads, in the order [`parse_args`] binds them.
const FLAGS: [&str; 5] = [
    "--kind",
    "--current",
    "--history-dir",
    "--keep",
    "--min-ratio",
];

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    kind: String,
    current: String,
    history_dir: String,
    keep: usize,
    min_ratio: f64,
}

/// Parses strict `--flag value` pairs. An unknown, repeated or
/// value-less flag, a missing required flag, a non-numeric value, a
/// `--min-ratio` outside (0, 1] and `--keep 0` are usage errors.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: [Option<&str>; FLAGS.len()] = [None; FLAGS.len()];
    for pair in args.chunks(2) {
        let flag = &pair[0];
        let slot = FLAGS
            .iter()
            .position(|f| f == flag)
            .ok_or_else(|| format!("unknown flag `{flag}`"))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        if values[slot].replace(value).is_some() {
            return Err(format!("flag {flag} given more than once"));
        }
    }
    let [kind, current, history_dir, keep, min_ratio] = values;
    let required = |value: Option<&str>, flag: &str| {
        value
            .map(str::to_owned)
            .ok_or(format!("{flag} is required"))
    };
    let keep = match keep {
        None => DEFAULT_KEEP,
        Some(v) => match v.parse() {
            Ok(k) if k > 0 => k,
            _ => return Err(format!("--keep must be a positive integer, got `{v}`")),
        },
    };
    let min_ratio = match min_ratio {
        None => DEFAULT_MIN_RATIO,
        Some(v) => match v.parse() {
            Ok(r) if r > 0.0 && r <= 1.0 => r,
            _ => return Err(format!("--min-ratio must be a number in (0, 1], got `{v}`")),
        },
    };
    Ok(Args {
        kind: required(kind, "--kind")?,
        current: required(current, "--current")?,
        history_dir: required(history_dir, "--history-dir")?,
        keep,
        min_ratio,
    })
}

fn read_report<T: for<'de> serde::Deserialize<'de>>(path: &str, what: &str) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{what} `{path}` unreadable: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{what} `{path}` unparsable: {e:?}"))
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

/// Compares against the median of the stored reports, then (unless
/// regressed) appends the current one and prunes.
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
    let Args {
        kind,
        current,
        history_dir,
        keep,
        min_ratio,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    println!("cross-run comparison ({kind}, rolling median, min ratio {min_ratio}):");
    let outcome = match run_history(&kind, &current, Path::new(&history_dir), keep, min_ratio) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&args)
    }

    #[test]
    fn ci_invocation_and_defaults_parse() {
        let ci = "--kind batch --current results/BENCH_batch.json \
                  --history-dir bench-history --keep 10";
        assert_eq!(
            parse(ci),
            Ok(Args {
                kind: "batch".into(),
                current: "results/BENCH_batch.json".into(),
                history_dir: "bench-history".into(),
                keep: 10,
                min_ratio: DEFAULT_MIN_RATIO,
            })
        );
        let parsed = parse("--history-dir h --min-ratio 1 --current c --kind shard").unwrap();
        assert_eq!((parsed.keep, parsed.min_ratio), (DEFAULT_KEEP, 1.0));
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        let base = "--kind batch --current c --history-dir h";
        for (extra, needle) in [
            ("--min-ratio abc", "--min-ratio"),
            ("--keep x", "--keep"),
            ("--keep 0", "--keep"),
            ("--keep -1", "--keep"),
            ("--min-ratio 0", "--min-ratio"),
            ("--min-ratio -0.5", "--min-ratio"),
            ("--min-ratio 1.5", "--min-ratio"),
            ("--min-ratio NaN", "--min-ratio"),
            ("--previous old.json", "--previous"),
            ("--bogus 1", "--bogus"),
            ("stray", "stray"),
            ("--kind shard", "--kind"),
            ("--keep", "--keep"),
        ] {
            let err = parse(&format!("{base} {extra}")).unwrap_err();
            assert!(err.contains(needle), "`{extra}`: {err}");
        }
        for (line, needle) in [
            ("", "--kind"),
            ("--kind batch --history-dir h", "--current"),
            ("--kind batch --current c", "--history-dir"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(needle), "`{line}`: {err}");
        }
    }
}
