//! `qni` — command-line driver for simulate / infer / localize / volume.
//!
//! ```console
//! $ qni simulate --tiers 1,2,4 --lambda 10 --mu 5 --tasks 500 \
//!       --observe 0.1 --seed 7 --out trace.jsonl
//! $ qni infer --trace trace.jsonl --iterations 150
//! $ qni localize --trace trace.jsonl
//! $ qni volume --tasks-per-day 250000000 --events-per-task 6 --fraction 0.01
//! ```
//!
//! Flags are deliberately minimal (no external argument-parsing
//! dependency). A usage error — an unknown command, or a flag that is
//! unknown, repeated, missing or has a bad value — prints `--help`-style
//! usage after its `error:` line; a failure once the flags parse does not.

use qni::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(&mut flags),
        "infer" => cmd_infer(&mut flags, false),
        "localize" => cmd_infer(&mut flags, true),
        "stream" => cmd_stream(&mut flags),
        "watch" => cmd_watch(&mut flags),
        "volume" => cmd_volume(&mut flags),
        "--help" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => eprintln!("error: {e}\n{USAGE}"),
        Err(CliError::Failed(e)) => eprintln!("error: {e}"),
    }
    ExitCode::FAILURE
}

/// Why a command failed: a usage error, printed with the usage text, or
/// a failure once its flags parse, printed alone.
enum CliError {
    Usage(String),
    Failed(String),
}

/// A flag's error (the flag helpers return `String`) is a usage error.
impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Usage(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::Usage(e.to_owned())
    }
}

/// A failure once the flags parse.
fn failed(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

const USAGE: &str = "\
qni — probabilistic inference in queueing networks

USAGE:
  qni simulate --tiers 1,2,4 [--lambda 10] [--mu 5] [--tasks 1000]
               [--observe 0.1] [--seed 1] --out trace.jsonl
  qni infer    --trace trace.jsonl [--iterations 200] [--burn-in N]
               [--seed 2] [--chains 1] [--shards 1] [--threads N]
  qni localize --trace trace.jsonl [--iterations 200] [--burn-in N]
               [--seed 2] [--chains 1] [--shards 1] [--threads N]
  qni stream   --trace trace.jsonl --window W --stride S
               [--warm-start on|off] [--warm-burn-in B]
               [--occupancy-carry on|off] [--iterations 200] [--burn-in N]
               [--seed 2] [--chains 1] [--shards 1] [--threads N]
               [--out traj.csv] [--json traj.json]
  qni watch    --trace trace.jsonl --window W --stride S --queues Q
               [--poll-ms 50] [--idle-polls 40] [--max-lag-strides L]
               [--max-resident R] [--checkpoint cp.json] [--checkpoint-every 1]
               [--follow-rotations on|off] [--max-bad-lines 0]
               [--warm-start on|off] [--warm-burn-in B]
               [--occupancy-carry on|off] [--iterations 200] [--burn-in N]
               [--seed 2] [--chains 1] [--shards 1] [--threads N]
               [--out traj.csv] [--json traj.json]
  qni volume   --tasks-per-day N --events-per-task M [--fraction 0.01]";

/// Collects `--key value` pairs. A repeated flag is an error, so a
/// script never silently runs on the last of two values.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected flag, got `{}`", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        if map.insert(key.to_owned(), value.clone()).is_some() {
            return Err(format!("flag --{key} given more than once"));
        }
        i += 2;
    }
    Ok(map)
}

/// Fails on any flag the command did not read. Every read removes its
/// key from the map, so whatever is left once a command has read its
/// flags is unknown to it: a misspelling, or a retired flag.
fn reject_unknown(flags: &HashMap<String, String>) -> Result<(), String> {
    if flags.is_empty() {
        return Ok(());
    }
    let mut keys: Vec<String> = flags.keys().map(|k| format!("--{k}")).collect();
    keys.sort();
    Err(format!("unknown flag {}", keys.join(", ")))
}

fn get_f64(flags: &mut HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.remove(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
    }
}

fn get_usize(
    flags: &mut HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    match flags.remove(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer `{v}`")),
    }
}

fn cmd_simulate(flags: &mut HashMap<String, String>) -> Result<(), CliError> {
    let tiers: Vec<usize> = flags
        .remove("tiers")
        .ok_or("simulate requires --tiers (e.g. 1,2,4)")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad tier `{s}`")))
        .collect::<Result<_, _>>()?;
    let lambda = get_f64(flags, "lambda", 10.0)?;
    let mu = get_f64(flags, "mu", 5.0)?;
    let tasks = get_usize(flags, "tasks", 1000)?;
    let observe = get_f64(flags, "observe", 0.1)?;
    let seed = get_usize(flags, "seed", 1)? as u64;
    let out = flags.remove("out").ok_or("simulate requires --out FILE")?;
    reject_unknown(flags)?;

    let bp =
        qni::model::topology::three_tier(lambda, mu, &tiers, false).map_err(|e| e.to_string())?;
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(lambda, tasks).map_err(|e| e.to_string())?,
            &mut rng,
        )
        .map_err(failed)?;
    let masked = ObservationScheme::task_sampling(observe)
        .map_err(|e| e.to_string())?
        .apply(truth, &mut rng)
        .map_err(failed)?;
    let file = std::fs::File::create(&out).map_err(failed)?;
    qni::trace::record::write_jsonl(&masked, std::io::BufWriter::new(file)).map_err(failed)?;
    eprintln!(
        "wrote {} events ({} tasks, {:.1}% arrivals observed) to {out}",
        masked.ground_truth().num_events(),
        masked.ground_truth().num_tasks(),
        masked.observed_arrival_fraction() * 100.0
    );
    Ok(())
}

fn load_masked(path: &str) -> Result<MaskedLog, String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let records =
        qni::trace::record::read_jsonl(std::io::BufReader::new(file)).map_err(|mut e| {
            // The reader does not know the file; name it in the error.
            if let qni::trace::TraceError::BadLine { path: p, .. } = &mut e {
                path.clone_into(p);
            }
            e.to_string()
        })?;
    let num_queues = records
        .iter()
        .map(|r| r.event.queue.index() + 1)
        .max()
        .ok_or("trace is empty")?;
    qni::trace::record::from_records(&records, num_queues).map_err(|e| e.to_string())
}

/// The engine knobs shared by `infer`, `localize`, and `stream`.
struct EngineFlags {
    opts: StemOptions,
    chains: usize,
    seed: u64,
    shards: usize,
    threads: usize,
}

/// Parses and validates the shared engine flags (`--iterations`,
/// `--burn-in`, `--seed`, `--chains`, `--shards`, `--threads`).
fn parse_engine_flags(
    flags: &mut HashMap<String, String>,
    waiting_sweeps: usize,
) -> Result<EngineFlags, String> {
    let iterations = get_usize(flags, "iterations", 200)?;
    let burn_in = get_usize(flags, "burn-in", iterations / 2)?;
    let seed = get_usize(flags, "seed", 2)? as u64;
    let chains = get_usize(flags, "chains", 1)?;
    if chains == 0 {
        return Err("--chains must be >= 1".into());
    }
    // Intra-trace sharding: split each chain's sweep across worker
    // threads. A pure performance knob — results are byte-identical at
    // every shard count — so the effective worker count is silently
    // capped by a total-thread budget of chains × shards (defaulting to
    // the host's parallelism, override with --threads).
    let shards = get_usize(flags, "shards", 1)?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let shard = if shards == 1 {
        ShardMode::Serial
    } else {
        ShardMode::Sharded(shards)
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = get_usize(flags, "threads", host_threads.max(chains))?;
    if threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    if iterations < 8 {
        // The default burn_in = iterations/2 and the convergence
        // diagnostics need at least 4 post-burn-in iterations per chain.
        return Err(
            "--iterations must be >= 8 (diagnostics need >= 4 post-burn-in iterations)".into(),
        );
    }
    let opts = StemOptions {
        iterations,
        burn_in,
        waiting_sweeps,
        shard,
        ..StemOptions::default()
    };
    // Catches an empty kept-sample window (--burn-in >= --iterations) up
    // front with a clear message instead of a confusing all-NaN table.
    opts.validate().map_err(|e| e.to_string())?;
    Ok(EngineFlags {
        opts,
        chains,
        seed,
        shards,
        threads,
    })
}

fn cmd_infer(flags: &mut HashMap<String, String>, localize_report: bool) -> Result<(), CliError> {
    let trace = flags.remove("trace").ok_or("requires --trace FILE")?;
    let EngineFlags {
        opts,
        chains,
        seed,
        shards,
        threads,
    } = parse_engine_flags(flags, 20)?;
    reject_unknown(flags)?;
    let masked = load_masked(&trace).map_err(CliError::Failed)?;
    // Every chain count (including 1) routes through the parallel engine,
    // so diagnostics are always reported and every run uses the same
    // seed-derivation scheme (chain k draws from split_seed(seed, k); to
    // reproduce one chain, call the library's run_stem with that seed —
    // a CLI run re-splits its --seed, so it starts a new chain family).
    let popts = ParallelStemOptions {
        stem: opts,
        chains,
        master_seed: seed,
        thread_budget: Some(threads),
    };
    let r = run_stem_parallel(&masked, None, &popts).map_err(failed)?;
    println!("pooled over {chains} chain(s) (master seed {seed}, per-chain seeds via split_seed)");
    if shards > 1 {
        let effective = popts.effective_shard().workers();
        println!(
            "sharded sweeps: {shards} shard(s) requested, {effective} worker(s) per chain \
             (thread budget {threads}); results are byte-identical at any shard count"
        );
    }
    let d = &r.diagnostics;
    println!(
        "convergence: max split-R̂ = {:.4} ({}), min pooled ESS = {:.1}",
        d.max_split_rhat(),
        if d.converged(1.05) {
            "converged, < 1.05"
        } else {
            "NOT converged, >= 1.05 — rerun with more --iterations"
        },
        d.min_ess()
    );
    println!("{:<7} {:>12} {:>12}", "queue", "split-R̂", "pooled ESS");
    for q in 0..d.split_rhat.len() {
        println!("q{:<6} {:>12.4} {:>12.1}", q, d.split_rhat[q], d.ess[q]);
    }
    println!("arrival rate λ̂ = {:.4}", r.rates[0]);
    println!(
        "{:<7} {:>12} {:>12} {:>12}",
        "queue", "rate µ̂", "mean service", "mean waiting"
    );
    for q in 1..r.rates.len() {
        println!(
            "q{:<6} {:>12.4} {:>12.4} {:>12.4}",
            q, r.rates[q], r.mean_service[q], r.mean_waiting[q]
        );
    }
    if localize_report {
        let report = localize(&r.mean_service, &r.mean_waiting).map_err(failed)?;
        println!("\nbottleneck ranking:");
        for d in &report.ranked {
            println!(
                "  {:<6} response={:.4} ({:?})",
                d.queue.to_string(),
                d.response,
                d.kind
            );
        }
    }
    Ok(())
}

/// The flags `stream` and `watch` share: the window schedule, the
/// stream engine's options, and the `--out` CSV and `--json` paths.
struct StreamFlags {
    schedule: WindowSchedule,
    opts: StreamOptions,
    out: Option<String>,
    json: Option<String>,
}

/// Parses and validates the flags `stream` and `watch` share:
/// `--window`, `--stride`, `--warm-start`, the engine flags,
/// `--warm-burn-in`, `--occupancy-carry`, `--out` and `--json`.
fn parse_stream_flags(
    flags: &mut HashMap<String, String>,
    cmd: &str,
) -> Result<StreamFlags, String> {
    let width: f64 = flags
        .remove("window")
        .ok_or_else(|| format!("{cmd} requires --window W"))?
        .parse()
        .map_err(|_| "--window: bad number".to_owned())?;
    let stride: f64 = flags
        .remove("stride")
        .ok_or_else(|| format!("{cmd} requires --stride S"))?
        .parse()
        .map_err(|_| "--stride: bad number".to_owned())?;
    if !(width.is_finite() && width > 0.0) {
        return Err("--window must be > 0".into());
    }
    if !(stride.is_finite() && stride > 0.0) {
        return Err("--stride must be > 0".into());
    }
    let warm_start = match flags.remove("warm-start").as_deref() {
        None | Some("on") => true,
        Some("off") => false,
        Some(v) => return Err(format!("--warm-start: expected `on` or `off`, got `{v}`")),
    };
    // waiting_sweeps = 1: per-window fits do not report waiting times;
    // one fixed-rate sweep keeps the chain state fresh for the next
    // window's warm start.
    let EngineFlags {
        opts,
        chains,
        seed,
        shards: _,
        threads,
    } = parse_engine_flags(flags, 1)?;
    let warm_burn_in = match flags.remove("warm-burn-in") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| "--warm-burn-in: bad number".to_owned())?,
        ),
    };
    let occupancy_carry = match flags.remove("occupancy-carry").as_deref() {
        None | Some("on") => true,
        Some("off") => false,
        Some(v) => {
            return Err(format!(
                "--occupancy-carry: expected `on` or `off`, got `{v}`"
            ))
        }
    };
    let opts = StreamOptions {
        stem: opts,
        chains,
        master_seed: seed,
        thread_budget: Some(threads),
        warm_start,
        warm_burn_in,
        occupancy_carry,
        clock: Some(monotonic_secs),
    };
    // A warm burn-in that leaves too few iterations is a bad flag value.
    opts.validate().map_err(|e| e.to_string())?;
    Ok(StreamFlags {
        schedule: WindowSchedule::new(width, stride).map_err(|e| e.to_string())?,
        opts,
        out: flags.remove("out"),
        json: flags.remove("json"),
    })
}

/// Prints the column header of the per-window table, with `watch`'s
/// `lag` column when `lag` is set.
fn print_window_header(lag: bool) {
    print!(
        "{:<7} {:>16} {:>7} {:>10} {:>12} {:>10}",
        "window", "span", "tasks", "λ̂", "max split-R̂", "min ESS"
    );
    println!(
        "{}",
        if lag {
            format!(" {:>8}", "lag")
        } else {
            String::new()
        }
    );
}

/// Prints one window's row of the per-window table, with `watch`'s lag
/// column when given.
fn print_window_row(w: &WindowEstimate, lag: Option<f64>) {
    let max_rhat = w.split_rhat.iter().copied().fold(f64::NAN, f64::max);
    let min_ess = w.ess.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "w{:<6} [{:>6.1},{:>6.1}) {:>7} {:>10.4} {:>12.4} {:>10.1}{}{}",
        w.index,
        w.start,
        w.end,
        w.tasks,
        w.rates[0],
        max_rhat,
        min_ess,
        lag.map_or(String::new(), |l| format!(" {l:>8.2}")),
        if w.carried {
            "  (carried: empty window)"
        } else {
            ""
        }
    );
}

/// Writes the trajectory to the `--out` CSV and the `--json` file, for
/// whichever was given.
fn write_trajectory(traj: &RateTrajectory, flags: &StreamFlags) -> Result<(), CliError> {
    if let Some(path) = &flags.out {
        let file = std::fs::File::create(path).map_err(failed)?;
        traj.to_csv(std::io::BufWriter::new(file)).map_err(failed)?;
        eprintln!("wrote trajectory CSV to {path}");
    }
    if let Some(path) = &flags.json {
        let json = serde_json::to_string(traj).map_err(failed)?;
        std::fs::write(path, json).map_err(failed)?;
        eprintln!("wrote trajectory JSON to {path}");
    }
    Ok(())
}

fn cmd_stream(flags: &mut HashMap<String, String>) -> Result<(), CliError> {
    let trace = flags.remove("trace").ok_or("requires --trace FILE")?;
    let sf = parse_stream_flags(flags, "stream")?;
    reject_unknown(flags)?;
    let masked = load_masked(&trace).map_err(CliError::Failed)?;
    let traj = run_stream(&masked, &sf.schedule, &sf.opts).map_err(failed)?;
    println!(
        "streaming over {} window(s) (width {}, stride {}, warm-start {}, \
         {} chain(s), master seed {}; window w seeds via split_seed(seed, w))",
        traj.windows.len(),
        sf.schedule.width(),
        sf.schedule.stride(),
        if sf.opts.warm_start { "on" } else { "off" },
        sf.opts.chains,
        sf.opts.master_seed,
    );
    print_window_header(false);
    for w in &traj.windows {
        print_window_row(w, None);
    }
    // Per-queue service-rate trajectories, one line per queue.
    for q in 1..traj.num_queues {
        let series: Vec<String> = traj
            .windows
            .iter()
            .map(|w| format!("{:.3}", w.rates[q]))
            .collect();
        println!("µ̂ q{q}: [{}]", series.join(", "));
    }
    write_trajectory(&traj, &sf)?;
    println!("fingerprint={}", traj.fingerprint_digest());
    Ok(())
}

/// `qni watch` — tail a growing JSONL trace and fit windows as they
/// close. The library side is wall-clock-free; this command supplies the
/// poll pacing (`--poll-ms`), the stop policy (`--idle-polls` empty
/// polls in a row), and the injected clock. Exits nonzero if a
/// `--max-lag-strides` or `--max-resident` gate was violated at any
/// step — the machine-checkable bounded-lag/bounded-memory contract of
/// the CI soak job; a violation stops the loop promptly but still
/// rewrites `--out` and the final `--checkpoint` first.
///
/// Crash safety: `--checkpoint cp.json` persists the full session state
/// (atomically, every `--checkpoint-every` closed windows); re-running
/// the same command resumes from it bit-identically. `--follow-rotations
/// on` survives copytruncate log rotation, and `--max-bad-lines N`
/// quarantines up to N malformed lines before hard-failing.
fn cmd_watch(flags: &mut HashMap<String, String>) -> Result<(), CliError> {
    let path = flags.remove("trace").ok_or("watch requires --trace FILE")?;
    let sf = parse_stream_flags(flags, "watch")?;
    let (schedule, stride) = (sf.schedule, sf.schedule.stride());
    // A live tail cannot infer the queue count from a prefix of the
    // stream the way `stream` infers it from the complete file.
    let num_queues = get_usize(flags, "queues", 0)?;
    if num_queues < 2 {
        return Err("watch requires --queues Q (total queue count including q0, >= 2)".into());
    }
    let poll_ms = get_usize(flags, "poll-ms", 50)? as u64;
    let idle_polls = get_usize(flags, "idle-polls", 40)?;
    if idle_polls == 0 {
        return Err("--idle-polls must be >= 1".into());
    }
    let max_lag_strides = match flags.remove("max-lag-strides") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| "--max-lag-strides: bad number".to_owned())?,
        ),
    };
    let max_resident = match flags.remove("max-resident") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| "--max-resident: bad integer".to_owned())?,
        ),
    };
    let follow_rotations = match flags.remove("follow-rotations").as_deref() {
        None | Some("off") => false,
        Some("on") => true,
        Some(v) => {
            return Err(format!("--follow-rotations: expected `on` or `off`, got `{v}`").into())
        }
    };
    let max_bad_lines = get_usize(flags, "max-bad-lines", 0)? as u64;
    let checkpoint_path = flags.remove("checkpoint");
    let checkpoint_every = get_usize(flags, "checkpoint-every", 1)?;
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be >= 1".into());
    }
    reject_unknown(flags)?;
    let tail_opts = TailOptions {
        rotation: if follow_rotations {
            RotationPolicy::Follow
        } else {
            RotationPolicy::Strict
        },
        retry: RetryPolicy {
            max_attempts: 3,
            sleep: Some(sleep_ms),
        },
        max_bad_lines,
    };
    // Resume-if-exists: a present checkpoint file continues the
    // interrupted stream (bit-identically); an absent one starts fresh.
    let existing = checkpoint_path
        .as_deref()
        .filter(|p| std::path::Path::new(p).exists())
        .map(Checkpoint::load)
        .transpose()
        .map_err(failed)?;
    let resumed_from = existing.as_ref().map(|cp| cp.tail.offset);
    let mut session = match &existing {
        Some(cp) => {
            WatchSession::resume(&path, schedule, num_queues, sf.opts.clone(), tail_opts, cp)
        }
        None => {
            WatchSession::with_tail_options(&path, schedule, num_queues, sf.opts.clone(), tail_opts)
        }
    }
    .map_err(failed)?;
    println!(
        "watching {path} (width {}, stride {stride}, {num_queues} queues, \
         poll {poll_ms} ms, stop after {idle_polls} idle polls, master seed {})",
        schedule.width(),
        sf.opts.master_seed
    );
    if let Some(offset) = resumed_from {
        println!(
            "resumed from checkpoint {} at byte offset {offset} ({} window(s) already fitted)",
            checkpoint_path.as_deref().unwrap_or(""),
            session.estimates().len()
        );
    }
    print_window_header(true);
    // No external signal-handling dependency: the stop flag stays the
    // library-level shutdown hook for embedders; the CLI terminates via
    // the idle-poll budget (or a gate violation raising the flag below).
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut violation: Option<String> = None;
    let mut checkpoint_error: Option<String> = None;
    let mut windows_since_checkpoint = 0usize;
    run_watch(
        &mut session,
        &stop,
        Some(idle_polls),
        || std::thread::sleep(std::time::Duration::from_millis(poll_ms)),
        |s, r| {
            for w in &s.estimates()[r.total_windows - r.windows_closed..] {
                print_window_row(w, Some(r.lag.unwrap_or(f64::NAN)));
            }
            // Periodic emission: rewrite the trajectory artifact every
            // time new windows close, so a crash mid-run still leaves
            // the latest complete snapshot on disk.
            if r.windows_closed > 0 {
                if let Some(p) = &sf.out {
                    if let Ok(file) = std::fs::File::create(p) {
                        let _ = s
                            .trajectory_snapshot()
                            .to_csv(std::io::BufWriter::new(file));
                    }
                }
            }
            // Periodic crash-safety: persist a checkpoint every
            // `--checkpoint-every` closed windows.
            windows_since_checkpoint += r.windows_closed;
            if windows_since_checkpoint >= checkpoint_every {
                if let Some(cp) = &checkpoint_path {
                    match s.checkpoint().save_atomic(cp) {
                        Ok(()) => windows_since_checkpoint = 0,
                        Err(e) => {
                            checkpoint_error = Some(format!("checkpoint write failed: {e}"));
                            stop.store(true, std::sync::atomic::Ordering::SeqCst);
                        }
                    }
                }
            }
            if violation.is_none() {
                if let (Some(limit), Some(lag)) = (max_lag_strides, r.lag) {
                    if lag > limit * stride {
                        violation = Some(format!(
                            "bounded-lag gate violated: lag {lag:.2} > {limit} stride(s) = {:.2}",
                            limit * stride
                        ));
                    }
                }
                if let Some(limit) = max_resident {
                    if r.open_spans > limit {
                        violation = Some(format!(
                            "bounded-memory gate violated: {} resident windows > limit {limit}",
                            r.open_spans
                        ));
                    }
                }
                // A violated gate stops the loop after this step: the
                // run is failing, so exit promptly — but still persist
                // the trajectory and a final checkpoint below.
                if violation.is_some() {
                    stop.store(true, std::sync::atomic::Ordering::SeqCst);
                }
            }
        },
    )
    .map_err(failed)?;
    let peak_open = session.peak_open_spans();
    let peak_buffered = session.peak_buffered_tasks();
    let records = session.records_seen();
    let tail_stats = session.tail_stats();
    // Final checkpoint before the tail is drained: a later `qni watch`
    // on the same (possibly still growing) trace resumes from here. On
    // a gate violation this is the abort state the operator inspects.
    if let Some(cp) = &checkpoint_path {
        session
            .checkpoint()
            .save_atomic(cp)
            .map_err(|e| failed(format!("final checkpoint write failed: {e}")))?;
        eprintln!("wrote checkpoint to {cp}");
    }
    let aborted = violation.is_some() || checkpoint_error.is_some();
    let traj = if aborted {
        // Do not drain: the run is failing; report what was fitted.
        session.trajectory_snapshot()
    } else {
        session.finish().map_err(failed)?
    };
    println!(
        "{}: {records} records, {} windows, peak {peak_open} resident window(s), \
         peak {peak_buffered} buffered task(s), {} quarantined line(s), {} rotation(s), \
         {} retried poll(s)",
        if aborted {
            "stopped early"
        } else {
            "tail drained"
        },
        traj.windows.len(),
        tail_stats.bad_lines,
        tail_stats.rotations,
        tail_stats.retries,
    );
    write_trajectory(&traj, &sf)?;
    println!("fingerprint={}", traj.fingerprint_digest());
    match violation.or(checkpoint_error) {
        Some(e) => Err(CliError::Failed(e)),
        None => Ok(()),
    }
}

/// Millisecond sleeper injected into the tail's [`RetryPolicy`] — the
/// library side never sleeps or reads clocks itself.
fn sleep_ms(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// Monotonic seconds since the first call — the wall clock injected into
/// [`StreamOptions::clock`] so `qni-core` itself stays wall-clock-free.
fn monotonic_secs() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn cmd_volume(flags: &mut HashMap<String, String>) -> Result<(), CliError> {
    use qni::trace::volume::{human_bytes, DeploymentVolume, RecordCost};
    let tasks_per_day = get_usize(flags, "tasks-per-day", 0)? as u64;
    let events_per_task = get_usize(flags, "events-per-task", 0)? as u64;
    if tasks_per_day == 0 || events_per_task == 0 {
        return Err("volume requires --tasks-per-day and --events-per-task".into());
    }
    let fraction = get_f64(flags, "fraction", 0.01)?;
    reject_unknown(flags)?;
    let v = DeploymentVolume {
        tasks_per_day,
        events_per_task,
        cost: RecordCost::default(),
    };
    println!(
        "full tracing:    {}/day",
        human_bytes(v.full_bytes_per_day())
    );
    println!(
        "at {:>5.1}% sample: {}/day  ({}x reduction)",
        fraction * 100.0,
        human_bytes(v.sampled_bytes_per_day(fraction)),
        v.reduction(fraction)
    );
    Ok(())
}
