//! Traced runner of the qni benchmark (`perfbench/run.py --trace 1`).
//!
//! It re-enacts what the `qni` binary does through the library's public
//! calls and wraps each layer call in a span (name, op id, parent, start,
//! end). Spans stay in memory and are written as JSON when the run ends;
//! `perfbench/traced.py` turns them into the per-layer metrics. Every
//! library call of the benchmark sits in this file, so a library API
//! change can break only the traced runs, never the gated ones.
//!
//! ```text
//! qni-perfbench-tracer infer --ops OPS --iterations N --shards S --threads T
//!     [--compare-serial 1] --spans OUT
//! qni-perfbench-tracer watch --trace LIVE --source TRACE --plan PLAN
//!     --window W --stride S --queues Q --iterations N --burn-in B
//!     --warm-burn-in WB --seed SEED --threads T --poll-ms P --idle-polls I
//!     --checkpoint CP --out CSV --backlog-windows K --spans OUT
//! ```

use qni_core::chains::{run_stem_parallel, ParallelStemOptions};
use qni_core::diagnostics::rate_trace_diagnostics;
use qni_core::gibbs::sweep::{sweep_with_opts_pooled, SweepStats};
use qni_core::mstep;
use qni_core::stem::{heuristic_rates, StemOptions};
use qni_core::stream::{StreamEngine, StreamOptions};
use qni_core::watch::WatchSession;
use qni_core::{GibbsState, ShardMode, WavePool};
use qni_stats::rng::{rng_from_seed, split_seed};
use qni_trace::record::{from_records, read_jsonl};
use qni_trace::{
    LiveSlicer, MaskedLog, RetryPolicy, RotationPolicy, TailOptions, TailReader, WindowSchedule,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => parse_flags(rest).and_then(|f| match cmd.as_str() {
            "infer" => cmd_infer(&f),
            "watch" => cmd_watch(&f),
            other => Err(format!("unknown mode `{other}`")),
        }),
        None => Err("usage: qni-perfbench-tracer infer|watch --flag value ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut map = HashMap::new();
    for pair in args.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a flag, got `{}`", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    Ok(map)
}

fn flag<T: std::str::FromStr>(f: &Flags, key: &str) -> Result<T, String> {
    let v = f.get(key).ok_or_else(|| format!("missing --{key}"))?;
    v.parse().map_err(|_| format!("--{key}: bad value `{v}`"))
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Spans and counters, kept in memory until the run ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span whose parent is the innermost open span.
    fn begin(&mut self, name: &'static str, op: usize) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: f64::NAN,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let t = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = t;
    }

    fn time<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    fn add(&mut self, key: &str, v: f64) {
        *self.counters.entry(key.to_owned()).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &str, v: f64) {
        let e = self.counters.entry(key.to_owned()).or_insert(v);
        *e = e.max(v);
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let mut s = String::from("{\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}[\"{}\",{},{parent},{:?},{:?}]",
                sp.name, sp.op, sp.start, sp.end
            );
        }
        s.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{k}\":{v:?}");
        }
        s.push_str("}}");
        std::fs::write(path, s).map_err(err)
    }
}

/// User+sys CPU seconds of this process, all threads included.
fn process_cpu_s() -> f64 {
    const CLK_TCK: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLK_TCK
}

fn load(path: &str) -> Result<MaskedLog, String> {
    let file = std::fs::File::open(path).map_err(err)?;
    let records = read_jsonl(BufReader::new(file)).map_err(err)?;
    from_records(&records, num_queues(&records)?).map_err(err)
}

fn num_queues(records: &[qni_trace::record::TraceRecord]) -> Result<usize, String> {
    records
        .iter()
        .map(|r| r.event.queue.index() + 1)
        .max()
        .ok_or_else(|| "trace is empty".to_owned())
}

/// The options `qni infer` builds from the same flags.
fn infer_options(
    iterations: usize,
    shards: usize,
    threads: usize,
    seed: u64,
) -> ParallelStemOptions {
    ParallelStemOptions {
        stem: StemOptions {
            iterations,
            burn_in: iterations / 2,
            waiting_sweeps: 20,
            shard: if shards == 1 {
                ShardMode::Serial
            } else {
                ShardMode::Sharded(shards)
            },
            ..StemOptions::default()
        },
        chains: 1,
        master_seed: seed,
        thread_budget: Some(threads),
    }
}

fn cmd_infer(f: &Flags) -> Result<(), String> {
    let ops_text = std::fs::read_to_string(flag::<String>(f, "ops")?).map_err(err)?;
    let iterations: usize = flag(f, "iterations")?;
    let shards: usize = flag(f, "shards")?;
    let threads: usize = flag(f, "threads")?;
    let compare_serial = f.get("compare-serial").is_some_and(|v| v == "1");
    let mut rec = Recorder::new();
    for (op, line) in ops_text.lines().enumerate() {
        let (path, seed) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad ops line `{line}`"))?;
        let seed: u64 = seed.trim().parse().map_err(err)?;
        let popts = infer_options(iterations, shards, threads, seed);
        // Untraced: the binary's library path as one timed block.
        let t = rec.begin("untraced.op", op);
        let masked = load(path)?;
        let untraced = run_stem_parallel(&masked, None, &popts).map_err(err)?;
        rec.end(t);
        // Traced: the same fit, layer call by layer call.
        let root = rec.begin("op", op);
        let file = std::fs::File::open(path).map_err(err)?;
        let records = rec
            .time("trace.record.read_jsonl", op, || {
                read_jsonl(BufReader::new(file))
            })
            .map_err(err)?;
        let nq = num_queues(&records)?;
        let masked = rec
            .time("trace.record.from_records", op, || {
                from_records(&records, nq)
            })
            .map_err(err)?;
        rec.add("trace.record.records", records.len() as f64);
        let mut stem = popts.stem.clone();
        stem.shard = popts.effective_shard();
        let rates = fit(&mut rec, op, &masked, &stem, seed, Sweeps::Main)?;
        rec.end(root);
        let equal = bit_equal(&rates, &untraced.rates);
        rec.add("check.bit_equal_ops", f64::from(u8::from(equal)));
        let shown: Vec<String> = rates.iter().map(|r| format!("{r:.4}")).collect();
        println!("op {op} rates {}", shown.join(" "));
        if compare_serial {
            stem.shard = ShardMode::Serial;
            let serial = fit(&mut rec, op, &masked, &stem, seed, Sweeps::Serial)?;
            let same = bit_equal(&serial, &rates);
            rec.add("check.serial_equal_ops", f64::from(u8::from(same)));
        }
    }
    rec.write(&flag::<String>(f, "spans")?)
}

fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[derive(Clone, Copy, PartialEq)]
enum Sweeps {
    /// The fit as the binary runs it (sharded through a pool when the
    /// options fan out).
    Main,
    /// The same fit with serial sweeps, for the sharded/serial pair.
    Serial,
}

/// `run_stem_parallel`'s chain-0 fit, one layer call at a time: init,
/// per iteration a sweep and an M-step, the waiting sweeps, then the
/// diagnostics. Returns the pooled rates of the one-chain run.
fn fit(
    rec: &mut Recorder,
    op: usize,
    masked: &MaskedLog,
    opts: &StemOptions,
    seed: u64,
    which: Sweeps,
) -> Result<Vec<f64>, String> {
    let (fit_name, sweep_name) = match which {
        Sweeps::Main => ("core.stem.fit", "core.gibbs.sweep"),
        Sweeps::Serial => ("core.stem.serial_fit", "core.gibbs.serial_sweep"),
    };
    let fit_span = rec.begin(fit_name, op);
    opts.validate().map_err(err)?;
    let workers = opts.shard.workers();
    let mut pool = (workers > 1).then(|| WavePool::new(workers));
    let mut rng = rng_from_seed(split_seed(seed, 0));
    let rates0 = heuristic_rates(masked);
    let mut state = rec
        .time("core.init", op, || {
            GibbsState::new_warm(masked, rates0, opts.init, None)
        })
        .map_err(err)?;
    if !opts.shift_moves {
        state = state.with_shiftable_tasks(Vec::new());
    }
    let mut stats = SweepStats::default();
    let mut absorb = |s: SweepStats| {
        stats.arrival_moves += s.arrival_moves;
        stats.final_moves += s.final_moves;
        stats.shift_moves += s.shift_moves;
        stats.arrival_groups += s.arrival_groups;
        stats.group_fallbacks += s.group_fallbacks;
    };
    let cpu0 = process_cpu_s();
    let wall0 = rec.now();
    let mut trace: Vec<Vec<f64>> = Vec::with_capacity(opts.iterations);
    let mut rates_buf = state.rates().to_vec();
    for _ in 0..opts.iterations {
        let s = rec
            .time(sweep_name, op, || {
                sweep_with_opts_pooled(&mut state, opts.batch, opts.shard, pool.as_mut(), &mut rng)
            })
            .map_err(err)?;
        absorb(s);
        rec.time("core.mstep", op, || {
            mstep::update_rates(&mut rates_buf, state.log())
        })
        .map_err(err)?;
        state.set_rates(&rates_buf).map_err(err)?;
        trace.push(rates_buf.clone());
    }
    let kept = &trace[opts.burn_in..];
    let q = state.log().num_queues();
    let mut rates = vec![0.0f64; q];
    for row in kept {
        for (acc, v) in rates.iter_mut().zip(row) {
            *acc += v;
        }
    }
    for v in &mut rates {
        *v /= kept.len() as f64;
    }
    state.set_rates(&rates).map_err(err)?;
    let mut avgs = Vec::new();
    for _ in 0..opts.waiting_sweeps.max(1) {
        let s = rec
            .time(sweep_name, op, || {
                sweep_with_opts_pooled(&mut state, opts.batch, opts.shard, pool.as_mut(), &mut rng)
            })
            .map_err(err)?;
        absorb(s);
        state.log().queue_averages_into(&mut avgs);
    }
    let cpu = process_cpu_s() - cpu0;
    let wall = rec.now() - wall0;
    rec.time("core.diagnostics", op, || rate_trace_diagnostics(&[kept]))
        .map_err(err)?;
    // `run_stem_parallel` pools the chains' rates: a sum over one chain
    // divided by one, bit-equal to the chain's own rates.
    let mut pooled = vec![0.0f64; q];
    for (a, v) in pooled.iter_mut().zip(&rates) {
        *a += v;
    }
    for a in &mut pooled {
        *a /= 1.0;
    }
    rec.end(fit_span);
    if which == Sweeps::Main {
        rec.add("core.gibbs.cpu_s", cpu);
        rec.add("core.gibbs.wall_s", wall);
        rec.add("core.gibbs.arrival_moves", stats.arrival_moves as f64);
        rec.add("core.gibbs.final_moves", stats.final_moves as f64);
        rec.add("core.gibbs.shift_moves", stats.shift_moves as f64);
        rec.add("core.gibbs.arrival_groups", stats.arrival_groups as f64);
        rec.add("core.gibbs.group_fallbacks", stats.group_fallbacks as f64);
    }
    Ok(pooled)
}

fn sleep_ms(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

fn monotonic_secs() -> f64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The live feed's plan, written by the harness: the backlog's end
/// offset, then one `end_byte due_offset_s` line per live chunk.
struct Plan {
    backlog_end: usize,
    chunks: Vec<(usize, f64)>,
}

fn read_plan(path: &str) -> Result<Plan, String> {
    let text = std::fs::read_to_string(path).map_err(err)?;
    let mut lines = text.lines();
    let backlog_end = lines
        .next()
        .ok_or("empty plan")?
        .trim()
        .parse()
        .map_err(err)?;
    let chunks = lines
        .map(|l| {
            let (end, due) = l
                .split_once(' ')
                .ok_or_else(|| format!("bad plan line `{l}`"))?;
            Ok((end.parse().map_err(err)?, due.trim().parse().map_err(err)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Plan {
        backlog_end,
        chunks,
    })
}

struct WatchConfig {
    schedule: WindowSchedule,
    queues: usize,
    stream: StreamOptions,
    tail: TailOptions,
    poll: Duration,
    idle_polls: usize,
    backlog_windows: usize,
}

fn watch_config(f: &Flags) -> Result<WatchConfig, String> {
    let schedule = WindowSchedule::new(flag(f, "window")?, flag(f, "stride")?).map_err(err)?;
    // The options `qni watch` builds from the same flags.
    let stream = StreamOptions {
        stem: StemOptions {
            iterations: flag(f, "iterations")?,
            burn_in: flag(f, "burn-in")?,
            waiting_sweeps: 1,
            ..StemOptions::default()
        },
        chains: 1,
        master_seed: flag(f, "seed")?,
        thread_budget: Some(flag(f, "threads")?),
        warm_start: true,
        warm_burn_in: Some(flag(f, "warm-burn-in")?),
        occupancy_carry: true,
        clock: Some(monotonic_secs),
    };
    let tail = TailOptions {
        rotation: RotationPolicy::Strict,
        retry: RetryPolicy {
            max_attempts: 3,
            sleep: Some(sleep_ms),
            ..RetryPolicy::default()
        },
        max_bad_lines: 0,
    };
    Ok(WatchConfig {
        schedule,
        queues: flag(f, "queues")?,
        stream,
        tail,
        poll: Duration::from_millis(flag(f, "poll-ms")?),
        idle_polls: flag(f, "idle-polls")?,
        backlog_windows: flag(f, "backlog-windows")?,
    })
}

fn cmd_watch(f: &Flags) -> Result<(), String> {
    let cfg = watch_config(f)?;
    let live: String = flag(f, "trace")?;
    let checkpoint: String = flag(f, "checkpoint")?;
    let out: String = flag(f, "out")?;
    let mut rec = Recorder::new();
    let fingerprint = watch_session(&mut rec, &cfg, &live, &checkpoint, &out)?;
    println!("fingerprint={fingerprint}");
    let source = std::fs::read(flag::<String>(f, "source")?).map_err(err)?;
    let plan = read_plan(&flag::<String>(f, "plan")?)?;
    let layers = format!("{live}.layers");
    let fingerprint = watch_layers(&mut rec, &cfg, &source, &plan, &layers)?;
    println!("layers_fingerprint={fingerprint}");
    // No untraced pass shares this process, so the tracing overhead is
    // the measured cost of recording one span times the spans recorded.
    let spans = rec.spans.len() as f64;
    rec.add("trace.spans", spans);
    rec.add("trace.span_cost_s", span_cost_s());
    rec.write(&flag::<String>(f, "spans")?)
}

/// Seconds to open and close one span, averaged over many.
fn span_cost_s() -> f64 {
    const N: usize = 100_000;
    let mut rec = Recorder::new();
    let start = Instant::now();
    for i in 0..N {
        let id = rec.begin("calibration", i);
        rec.end(id);
    }
    start.elapsed().as_secs_f64() / N as f64
}

/// Pass 1: `qni watch`'s loop around `WatchSession::step` on the feed the
/// harness appends, printing the same window rows, rewriting the same
/// CSV and writing the same checkpoints.
fn watch_session(
    rec: &mut Recorder,
    cfg: &WatchConfig,
    live: &str,
    checkpoint: &str,
    out: &str,
) -> Result<String, String> {
    let mut session = WatchSession::with_tail_options(
        live,
        cfg.schedule,
        cfg.queues,
        cfg.stream.clone(),
        cfg.tail,
    )
    .map_err(err)?;
    let stride = cfg.schedule.stride();
    let loop_span = rec.begin("watch.loop", 0);
    let mut idle = 0usize;
    let mut step_no = 0usize;
    loop {
        let catch_up = session.estimates().len() < cfg.backlog_windows;
        let name = if catch_up {
            "core.watch.catchup_step"
        } else {
            "core.watch.live_step"
        };
        let r = rec.time(name, step_no, || session.step()).map_err(err)?;
        let emit = rec.begin("cli.emit", step_no);
        for w in &session.estimates()[r.total_windows - r.windows_closed..] {
            println!(
                "w{:<6} [{:>6.1},{:>6.1}) {:>7} {:>10.4}",
                w.index, w.start, w.end, w.tasks, w.rates[0]
            );
        }
        if r.windows_closed > 0 {
            let file = std::fs::File::create(out).map_err(err)?;
            session
                .trajectory_snapshot()
                .to_csv(std::io::BufWriter::new(file))
                .map_err(err)?;
        }
        rec.end(emit);
        if r.windows_closed > 0 {
            let c = rec.begin("core.watch.checkpoint", step_no);
            session.checkpoint().save_atomic(checkpoint).map_err(err)?;
            rec.end(c);
            let bytes = std::fs::metadata(checkpoint).map_err(err)?.len() as f64;
            rec.max("core.watch.checkpoint_bytes", bytes);
        }
        if !catch_up {
            if let Some(lag) = r.lag {
                rec.max("core.watch.lag_strides", lag / stride);
            }
        }
        step_no += 1;
        if r.new_records == 0 && r.windows_closed == 0 {
            idle += 1;
            if idle >= cfg.idle_polls {
                break;
            }
        } else {
            idle = 0;
        }
        rec.time("idle.sleep", step_no, || std::thread::sleep(cfg.poll));
    }
    rec.end(loop_span);
    let traj = session.finish().map_err(err)?;
    Ok(traj.fingerprint_digest())
}

/// Pass 2: the same feed replayed on its own schedule into a second file,
/// with `WatchSession::step`'s three layer calls timed one by one:
/// `TailReader::poll`, `LiveSlicer::push` and `StreamEngine::push_window`.
fn watch_layers(
    rec: &mut Recorder,
    cfg: &WatchConfig,
    source: &[u8],
    plan: &Plan,
    path: &str,
) -> Result<String, String> {
    std::fs::write(path, &source[..plan.backlog_end]).map_err(err)?;
    let mut tail = TailReader::with_options(path, cfg.tail);
    let mut slicer = LiveSlicer::new(cfg.schedule, cfg.queues).map_err(err)?;
    let mut engine =
        StreamEngine::new(cfg.schedule, cfg.queues, cfg.stream.clone()).map_err(err)?;
    let appended = Arc::new(AtomicUsize::new(0));
    let mut feeder: Option<(f64, std::thread::JoinHandle<Result<(), String>>)> = None;
    let mut read_chunks = 0usize;
    let mut idle = 0usize;
    let mut step_no = 0usize;
    loop {
        let live = engine.num_windows() >= cfg.backlog_windows;
        if live && feeder.is_none() {
            let t0 = rec.now() + 0.02;
            feeder = Some((
                t0,
                spawn_feeder(rec.origin, t0, source, plan, path, &appended),
            ));
        }
        let ready = appended.load(Ordering::SeqCst);
        let poll_start = rec.now();
        let records = rec
            .time("trace.tail.poll", step_no, || tail.poll())
            .map_err(err)?;
        let polled = rec.now();
        if !records.is_empty() {
            rec.add("trace.tail.busy_poll_s", polled - poll_start);
            rec.add("trace.tail.busy_polls", 1.0);
        }
        if let Some((t0, _)) = &feeder {
            for (_, due) in &plan.chunks[read_chunks..ready] {
                rec.add("trace.tail.wait_s", polled - (t0 + due));
                rec.add("trace.tail.chunks", 1.0);
            }
            read_chunks = ready;
            rec.add("trace.tail.polls", 1.0);
            if records.is_empty() {
                rec.add("trace.tail.empty_polls", 1.0);
            }
        }
        let new_records = records.len();
        // One span per poll around the slicer pushes; the fits they
        // trigger are its children, so its self time is the slicer's.
        let push_span = rec.begin("trace.window.push", step_no);
        let mut fitted = Vec::new();
        for r in records {
            let windows = slicer.push(r).map_err(err)?;
            let closed_at = rec.now();
            for w in windows {
                let index = w.index;
                let started = rec.now();
                let est = rec
                    .time("core.stream.push_window", index, || {
                        engine
                            .push_window(w)
                            .map(|e| (e.warm_started, e.carried, e.tasks))
                    })
                    .map_err(err)?;
                fitted.push((started - closed_at, est));
            }
        }
        rec.end(push_span);
        rec.max("trace.window.peak_open", slicer.open_spans() as f64);
        rec.max(
            "trace.window.peak_buffered_tasks",
            slicer.buffered_tasks() as f64,
        );
        let closed = fitted.len();
        for (wait, (warm, carried, tasks)) in fitted {
            if live {
                rec.add("core.stream.wait_s", wait);
                rec.add("core.stream.live_windows", 1.0);
            }
            rec.add("core.stream.warm_windows", f64::from(u8::from(warm)));
            rec.add("core.stream.carried_windows", f64::from(u8::from(carried)));
            rec.add("core.stream.tasks", tasks as f64);
            rec.add("core.stream.windows", 1.0);
        }
        step_no += 1;
        let done = feeder.as_ref().is_some_and(|(_, h)| h.is_finished())
            && appended.load(Ordering::SeqCst) == read_chunks;
        if new_records == 0 && closed == 0 && done {
            idle += 1;
            if idle >= cfg.idle_polls {
                break;
            }
        } else {
            idle = 0;
        }
        std::thread::sleep(cfg.poll);
    }
    if let Some((_, h)) = feeder {
        h.join()
            .map_err(|_| "feeder thread panicked".to_owned())??;
    }
    let stats = tail.stats();
    rec.add("trace.tail.bytes", tail.offset() as f64);
    rec.add("trace.tail.retries", stats.retries as f64);
    rec.add("trace.tail.bad_lines", stats.bad_lines as f64);
    for r in tail.poll().map_err(err)? {
        for w in slicer.push(r).map_err(err)? {
            engine.push_window(w).map_err(err)?;
        }
    }
    for w in slicer.finish().map_err(err)? {
        engine.push_window(w).map_err(err)?;
    }
    Ok(engine.into_trajectory().fingerprint_digest())
}

/// Appends the plan's live chunks to `path`, each at its due time
/// `t0 + offset` on the recorder's clock.
fn spawn_feeder(
    origin: Instant,
    t0: f64,
    source: &[u8],
    plan: &Plan,
    path: &str,
    appended: &Arc<AtomicUsize>,
) -> std::thread::JoinHandle<Result<(), String>> {
    use std::io::Write;
    let data = source.to_vec();
    let chunks = plan.chunks.clone();
    let mut start = plan.backlog_end;
    let path = path.to_owned();
    let appended = Arc::clone(appended);
    std::thread::spawn(move || {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(err)?;
        for (i, (end, due)) in chunks.iter().enumerate() {
            let wait = t0 + due - origin.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            file.write_all(&data[start..*end]).map_err(err)?;
            file.flush().map_err(err)?;
            appended.store(i + 1, Ordering::SeqCst);
            start = *end;
        }
        Ok(())
    })
}
