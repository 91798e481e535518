//! End-to-end tests of the `qni` command-line tool.

use std::process::Command;

fn qni() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qni"))
}

#[test]
fn simulate_then_infer_round_trip() {
    let dir = std::env::temp_dir().join("qni-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,2",
            "--lambda",
            "4",
            "--mu",
            "5",
            "--tasks",
            "120",
            "--observe",
            "0.3",
            "--seed",
            "11",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
            "--seed",
            "3",
        ])
        .output()
        .expect("run infer");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("arrival rate"), "stdout: {stdout}");
    assert!(stdout.contains("q1"), "stdout: {stdout}");

    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
            "--seed",
            "3",
            "--chains",
            "3",
        ])
        .output()
        .expect("run infer --chains");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("pooled over 3 chain(s)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("split-R̂"), "stdout: {stdout}");
    assert!(stdout.contains("pooled ESS"), "stdout: {stdout}");
    assert!(stdout.contains("arrival rate"), "stdout: {stdout}");

    let out = qni()
        .args([
            "localize",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
        ])
        .output()
        .expect("run localize");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bottleneck ranking"), "stdout: {stdout}");
}

/// A bad trace line fails `infer` naming the file, the 1-based line, the
/// line's byte offset and the byte within the line; a malformed task
/// fails with the task's id. Like a missing trace file, these are
/// failures once the flags parse: the `error:` line comes without the
/// usage text.
#[test]
fn infer_locates_bad_lines_and_names_malformed_tasks() {
    let dir = std::env::temp_dir().join("qni-cli-bad-trace-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "6",
            "--tasks",
            "30",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).expect("read trace");
    let lines: Vec<&str> = text.lines().collect();
    let infer_stderr = |name: &str, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write trace");
        let out = qni()
            .args(["infer", "--trace", path.to_str().expect("utf8 path")])
            .output()
            .expect("run infer");
        assert!(!out.status.success());
        (path, String::from_utf8_lossy(&out.stderr).into_owned())
    };

    // Line 6 ends in junk.
    let mut junk: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
    junk[5].push_str(" junk");
    let (path, stderr) = infer_stderr("junk.jsonl", junk.join("\n") + "\n");
    let offset: usize = lines[..5].iter().map(|l| l.len() + 1).sum();
    let want = format!(
        "error: bad trace line 6 (byte offset {offset}) in {}: trailing characters at byte {}",
        path.display(),
        lines[5].len() + 1
    );
    assert!(stderr.starts_with(&want), "stderr: {stderr}");
    assert!(!stderr.contains("USAGE"), "stderr: {stderr}");

    let missing = dir.join("missing.jsonl");
    let _ = std::fs::remove_file(&missing);
    let out = qni()
        .args(["infer", "--trace", missing.to_str().expect("utf8 path")])
        .output()
        .expect("run infer");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: ") && !stderr.contains("USAGE"),
        "stderr: {stderr}"
    );

    // Task 1 cut to its q0 record, then task 1 without its q0 record.
    let task1 = lines
        .iter()
        .position(|l| l.starts_with("{\"task\":1,"))
        .expect("task 1");
    let (_, stderr) = infer_stderr("cut.jsonl", lines[..=task1].join("\n"));
    assert!(
        stderr.contains("task k1 has an empty path"),
        "stderr: {stderr}"
    );
    let mut no_entry = lines.clone();
    no_entry.remove(task1);
    let (_, stderr) = infer_stderr("no_entry.jsonl", no_entry.join("\n"));
    assert!(
        stderr.contains("task k1 has no q0 (system-entry) record"),
        "stderr: {stderr}"
    );
}

#[test]
fn infer_rejects_empty_kept_window_and_bad_batch_flag() {
    let dir = std::env::temp_dir().join("qni-cli-batch-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "6",
            "--tasks",
            "60",
            "--observe",
            "0.4",
            "--seed",
            "5",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // --burn-in >= --iterations: clear error instead of an empty window.
    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
            "--burn-in",
            "40",
        ])
        .output()
        .expect("run infer");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("burn-in (40)") && stderr.contains("iterations (40)"),
        "stderr: {stderr}"
    );

    // The retired --batch flag is rejected.
    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--batch",
            "sometimes",
        ])
        .output()
        .expect("run infer");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--batch"), "stderr: {stderr}");

    // A custom burn-in works end to end.
    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "40",
            "--burn-in",
            "10",
        ])
        .output()
        .expect("run infer");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("arrival rate"), "stdout: {stdout}");
}

#[test]
fn stream_happy_path_rejections_and_shard_identity() {
    let dir = std::env::temp_dir().join("qni-cli-stream-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "8",
            "--tasks",
            "150",
            "--observe",
            "0.4",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // Happy path: per-window table, CSV and JSON outputs.
    let csv = dir.join("traj.csv");
    let json = dir.join("traj.json");
    let out = qni()
        .args([
            "stream",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "30",
            "--seed",
            "3",
            "--out",
            csv.to_str().expect("utf8 path"),
            "--json",
            json.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run stream");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("streaming over"), "stdout: {stdout}");
    assert!(stdout.contains("warm-start on"), "stdout: {stdout}");
    assert!(stdout.contains("w0"), "stdout: {stdout}");
    assert!(stdout.contains("split-R̂"), "stdout: {stdout}");
    let csv_text = std::fs::read_to_string(&csv).expect("csv written");
    assert!(
        csv_text.starts_with("window,start,end,tasks"),
        "csv: {csv_text}"
    );
    assert!(csv_text.lines().count() > 2, "csv: {csv_text}");
    let json_text = std::fs::read_to_string(&json).expect("json written");
    assert!(json_text.contains("\"windows\""), "json: {json_text}");

    // Sharding is a pure performance knob for streaming too: stdout must
    // be byte-identical across --shards (wall times are not printed).
    let stream_stdout = |extra: &[&str]| {
        let mut args = vec![
            "stream",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "30",
            "--seed",
            "3",
        ];
        args.extend_from_slice(extra);
        let out = qni().args(&args).output().expect("run stream");
        assert!(
            out.status.success(),
            "{:?}: {}",
            extra,
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let base = stream_stdout(&[]);
    assert_eq!(base, stream_stdout(&["--shards", "2"]));

    // Rejections: zero stride, non-positive width, --warm-start typos.
    let reject = |args: &[&str], needle: &str| {
        let mut full = vec!["stream", "--trace", trace.to_str().expect("utf8 path")];
        full.extend_from_slice(args);
        let out = qni().args(&full).output().expect("run stream");
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    };
    reject(&["--window", "10", "--stride", "0"], "--stride must be > 0");
    reject(&["--window", "0", "--stride", "5"], "--window must be > 0");
    reject(&["--window", "-3", "--stride", "5"], "--window must be > 0");
    reject(
        &["--window", "10", "--stride", "5", "--warm-start", "maybe"],
        "--warm-start",
    );
    reject(&["--stride", "5"], "--window");
    reject(&["--window", "10"], "--stride");
}

#[test]
fn volume_reports_reduction() {
    let out = qni()
        .args([
            "volume",
            "--tasks-per-day",
            "250000000",
            "--events-per-task",
            "6",
            "--fraction",
            "0.01",
        ])
        .output()
        .expect("run volume");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("full tracing"), "stdout: {stdout}");
    assert!(stdout.contains("100x reduction"), "stdout: {stdout}");
}

#[test]
fn bad_usage_fails_with_help() {
    let out = qni().args(["simulate"]).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "stderr: {stderr}");

    let out = qni().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());

    let out = qni().output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn shards_flag_is_byte_identical_and_validated() {
    let dir = std::env::temp_dir().join("qni-cli-shard-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let simulate = |name: &str, flags: &[&str]| {
        let trace = dir.join(name);
        let out = qni()
            .arg("simulate")
            .args(flags)
            .args(["--out", trace.to_str().expect("utf8 path")])
            .output()
            .expect("run simulate");
        assert!(out.status.success());
        trace
    };
    let trace = simulate(
        "trace.jsonl",
        &[
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "6",
            "--tasks",
            "100",
            "--observe",
            "0.2",
            "--seed",
            "9",
        ],
    );
    // 2,249 free arrivals at q1 make waves of about 1,124 members, past
    // the 2 × MIN_EVENTS_PER_WORKER fan-out, so this trace runs the wave
    // pool; a fixed --threads 2 fans it out even on a one-core host.
    let fanout = simulate(
        "fanout.jsonl",
        &[
            "--tiers",
            "1",
            "--lambda",
            "4",
            "--mu",
            "6",
            "--tasks",
            "2500",
            "--observe",
            "0.1",
        ],
    );

    // Sharding is a pure performance knob: every --shards value must
    // print byte-identical estimates (only the shard banner differs).
    let infer = |trace: &std::path::Path, iterations: &str, shards: &[&str]| {
        let out = qni()
            .args([
                "infer",
                "--trace",
                trace.to_str().expect("utf8 path"),
                "--iterations",
                iterations,
                "--seed",
                "3",
                "--shards",
            ])
            .args(shards)
            .output()
            .expect("run infer --shards");
        assert!(
            out.status.success(),
            "--shards {shards:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let table: Vec<String> = stdout
            .lines()
            .filter(|l| !l.starts_with("sharded sweeps:"))
            .map(str::to_owned)
            .collect();
        (stdout, table)
    };
    let (base, base_table) = infer(&trace, "30", &["1"]);
    assert!(!base.contains("sharded sweeps:"), "stdout: {base}");
    for shards in ["2", "4"] {
        let (full, table) = infer(&trace, "30", &[shards]);
        assert!(
            full.contains("sharded sweeps:") && full.contains("byte-identical"),
            "--shards {shards} should print the shard banner: {full}"
        );
        assert_eq!(table, base_table, "--shards {shards} changed the estimates");
    }
    let (_, serial) = infer(&fanout, "8", &["1"]);
    let (full, pooled) = infer(&fanout, "8", &["2", "--threads", "2"]);
    assert!(full.contains("sharded sweeps:"), "stdout: {full}");
    assert_eq!(pooled, serial, "a fanned-out wave changed the estimates");

    // --shards 0 is a usage error, not a silent serial run.
    let out = qni()
        .args([
            "infer",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--iterations",
            "30",
            "--shards",
            "0",
        ])
        .output()
        .expect("run infer --shards 0");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shards must be >= 1"), "stderr: {stderr}");
}

/// Every subcommand reads a fixed set of flags: a misspelled flag, a
/// retired one (`--dispatch`, `--batch`), or a flag given twice is a
/// usage error naming the flag, never a silently ignored or overridden
/// value.
#[test]
fn unknown_retired_and_repeated_flags_are_rejected() {
    let dir = std::env::temp_dir().join("qni-cli-flags-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "6",
            "--tasks",
            "60",
            "--observe",
            "0.3",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let trace = trace.to_str().expect("utf8 path");
    let commands: [&[&str]; 3] = [
        &["infer", "--trace", trace, "--iterations", "12"],
        &[
            "stream",
            "--trace",
            trace,
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "12",
        ],
        &[
            "watch",
            "--trace",
            trace,
            "--window",
            "10",
            "--stride",
            "5",
            "--queues",
            "3",
            "--poll-ms",
            "1",
            "--idle-polls",
            "1",
            "--iterations",
            "12",
        ],
    ];
    let cases: [(&[&str], &str); 4] = [
        (&["--sahrds", "4"], "unknown flag --sahrds"),
        (&["--dispatch", "scoped"], "unknown flag --dispatch"),
        (&["--batch", "off"], "unknown flag --batch"),
        (
            &["--iterations", "40"],
            "flag --iterations given more than once",
        ),
    ];
    for command in commands {
        for (extra, message) in cases {
            let out = qni().args(command).args(extra).output().expect("run qni");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !out.status.success(),
                "{command:?} {extra:?} must fail, stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
            assert!(stderr.contains(message), "{command:?} {extra:?}: {stderr}");
        }
    }
}

#[test]
fn watch_matches_stream_fingerprint_and_enforces_gates() {
    let dir = std::env::temp_dir().join("qni-cli-watch-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "8",
            "--tasks",
            "150",
            "--observe",
            "0.4",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // The watcher on an already-complete file must report the exact
    // trajectory `qni stream` computes for it: same fingerprint line.
    let fingerprint_of = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint=").map(str::to_owned))
            .unwrap_or_else(|| panic!("no fingerprint line in: {stdout}"))
    };
    let watch_csv = dir.join("watch.csv");
    let out = qni()
        .args([
            "watch",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--queues",
            "3",
            "--iterations",
            "30",
            "--seed",
            "3",
            "--poll-ms",
            "1",
            "--idle-polls",
            "2",
            "--max-resident",
            "4",
            "--out",
            watch_csv.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run watch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("watching"), "stdout: {stdout}");
    assert!(stdout.contains("tail drained"), "stdout: {stdout}");
    let watch_fp = fingerprint_of(&out);
    assert!(
        std::fs::read_to_string(&watch_csv)
            .expect("csv written")
            .starts_with("window,start,end,tasks"),
        "csv missing header"
    );

    let out = qni()
        .args([
            "stream",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "30",
            "--seed",
            "3",
        ])
        .output()
        .expect("run stream");
    assert!(out.status.success());
    assert_eq!(
        fingerprint_of(&out),
        watch_fp,
        "watch and stream fingerprints diverged"
    );

    // An impossible residency gate must fail the run (this is what the
    // CI soak leans on); the loop stops promptly on the violation but
    // still persists the trajectory artifacts first.
    let out = qni()
        .args([
            "watch",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--queues",
            "3",
            "--iterations",
            "30",
            "--seed",
            "3",
            "--poll-ms",
            "1",
            "--idle-polls",
            "2",
            "--max-resident",
            "0",
        ])
        .output()
        .expect("run watch with zero residency budget");
    assert!(!out.status.success(), "--max-resident 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bounded-memory gate violated"),
        "stderr: {stderr}"
    );

    // Rejections: --queues is mandatory and must be >= 2.
    let reject = |args: &[&str], needle: &str| {
        let mut full = vec![
            "watch",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
        ];
        full.extend_from_slice(args);
        let out = qni().args(&full).output().expect("run watch");
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    };
    reject(&[], "--queues");
    reject(&["--queues", "1"], "--queues");
    reject(&["--queues", "3", "--idle-polls", "0"], "--idle-polls");
    reject(
        &["--queues", "3", "--checkpoint-every", "0"],
        "--checkpoint-every",
    );
    reject(
        &["--queues", "3", "--follow-rotations", "maybe"],
        "--follow-rotations",
    );
}

/// `--checkpoint`: an interrupted watch resumed with the same flags
/// reproduces the `qni stream` fingerprint of the complete trace, and a
/// resume under different byte-affecting options, or from a checkpoint
/// of another format version, is refused with an `error:` line and no
/// usage text.
#[test]
fn watch_checkpoint_resume_matches_stream_and_rejects_mismatches() {
    let dir = std::env::temp_dir().join("qni-cli-checkpoint-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = qni()
        .args([
            "simulate",
            "--tiers",
            "1,1",
            "--lambda",
            "4",
            "--mu",
            "8",
            "--tasks",
            "150",
            "--observe",
            "0.4",
            "--seed",
            "9",
            "--out",
            trace.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run simulate");
    assert!(out.status.success());
    let full = std::fs::read(&trace).expect("read trace");

    // Phase 1: watch only a prefix of the trace (cut mid-line so the
    // checkpoint carries a held partial line), exiting via idle polls.
    let cut = full.len() / 2 + 5;
    std::fs::write(&trace, &full[..cut]).expect("write prefix");
    let cp = dir.join("cp.json");
    let _ = std::fs::remove_file(&cp);
    let watch_args = |trace: &std::path::Path, cp: &std::path::Path| {
        vec![
            "watch".to_owned(),
            "--trace".to_owned(),
            trace.to_str().expect("utf8").to_owned(),
            "--window".to_owned(),
            "10".to_owned(),
            "--stride".to_owned(),
            "5".to_owned(),
            "--queues".to_owned(),
            "3".to_owned(),
            "--iterations".to_owned(),
            "30".to_owned(),
            "--seed".to_owned(),
            "3".to_owned(),
            "--poll-ms".to_owned(),
            "1".to_owned(),
            "--idle-polls".to_owned(),
            "2".to_owned(),
            "--checkpoint".to_owned(),
            cp.to_str().expect("utf8").to_owned(),
        ]
    };
    let out = qni()
        .args(watch_args(&trace, &cp))
        .output()
        .expect("run watch phase 1");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(cp.exists(), "no checkpoint written");

    // Phase 2: the rest of the trace arrives; the same command resumes
    // from the checkpoint instead of starting over.
    std::fs::write(&trace, &full).expect("write full trace");
    let out = qni()
        .args(watch_args(&trace, &cp))
        .output()
        .expect("run watch phase 2");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resumed from checkpoint"),
        "stdout: {stdout}"
    );
    let resumed_fp = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint=").map(str::to_owned))
        .expect("fingerprint line");

    let out = qni()
        .args([
            "stream",
            "--trace",
            trace.to_str().expect("utf8 path"),
            "--window",
            "10",
            "--stride",
            "5",
            "--iterations",
            "30",
            "--seed",
            "3",
        ])
        .output()
        .expect("run stream");
    assert!(out.status.success());
    let stream_stdout = String::from_utf8_lossy(&out.stdout);
    let stream_fp = stream_stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint=").map(str::to_owned))
        .expect("fingerprint line");
    assert_eq!(
        resumed_fp, stream_fp,
        "resumed watch and stream fingerprints diverged"
    );

    // A resume under a different master seed must be refused: silently
    // continuing would break byte-identity undetectably.
    let mut mismatched = watch_args(&trace, &cp);
    let seed_pos = mismatched
        .iter()
        .position(|a| a == "--seed")
        .expect("seed flag");
    mismatched[seed_pos + 1] = "4".to_owned();
    let out = qni()
        .args(&mismatched)
        .output()
        .expect("run watch with mismatched seed");
    assert!(!out.status.success(), "mismatched resume must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("different schedule/options") && !stderr.contains("USAGE"),
        "stderr: {stderr}"
    );

    // A checkpoint of an earlier format version is refused with the
    // version error instead of being misread: here the layouts versions 1
    // and 2 wrote for a session that had read nothing.
    let version_1 = r#"{"version":1,"options_fingerprint":1,"tail":{"offset":0,"pending":[],"line_number":0,"bad_lines":0,"rotations":0,"retries":0},"slicer":{"initial_state":null,"completed":[],"pending":[],"pending_first_event":0,"next_event_id":0,"next_task_id":0,"last_entry_bits":0,"max_observed_entry_bits":0,"next_window":0,"started":false},"engine":{"windows":[],"prev":null},"records_seen":0,"peak_open_spans":0,"peak_buffered_tasks":0}"#;
    let version_2 = r#"{"version":2,"options_fingerprint":10039482343086171814,"tail":{"offset":0,"pending":[],"line_number":0,"bad_lines":0,"rotations":0,"retries":0},"slicer":{"schedule":{"width":4621819117588971520,"stride":4617315517961601024},"num_queues":3,"initial_state":null,"completed":[],"pending":[],"pending_first_event":0,"next_event_id":0,"next_task_id":0,"last_entry":0,"max_observed_entry":0,"next_window":0,"started":false},"engine":{"windows":[],"prev":null},"records_seen":0,"peak_open_spans":0,"peak_buffered_tasks":0}"#;
    for old in [version_1, version_2] {
        std::fs::write(&cp, old).expect("write old checkpoint");
        let out = qni()
            .args(watch_args(&trace, &cp))
            .output()
            .expect("run watch on an old checkpoint");
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("checkpoint format version")
                && !stderr.contains("USAGE"),
            "stderr: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
