//! Live-tail monitoring: the long-running `qni watch` engine.
//!
//! [`WatchSession`] composes the three live-path pieces end to end:
//!
//! - [`qni_trace::tail::TailReader`] — polls the growing JSONL trace,
//!   reassembling partial lines and detecting truncation/rotation;
//! - [`qni_trace::window::LiveSlicer`] — turns the record stream into
//!   closed [`qni_trace::window::WindowedLog`]s with bounded memory
//!   (tasks retire as their last owning window closes);
//! - [`crate::stream::StreamEngine`] — fits each closed window
//!   warm-started from its own carried state.
//!
//! One [`WatchSession::step`] is one poll: read whatever was appended,
//! close whatever windows the new entries complete, fit them, and report
//! progress ([`StepReport`]: lag, resident windows, buffered tasks).
//! [`WatchSession::finish`] flushes the stream's tail and yields the
//! final [`RateTrajectory`] — byte-identical to [`crate::stream::run_stream`]
//! replaying the completed file, because every stage (slicing, window
//! construction, per-window seeding) is shared with the replay path.
//!
//! # Shutdown and pacing
//!
//! The library is wall-clock-free (QNI-D001): [`run_watch`] drives a
//! session with an *injected* sleeper and an *injected* stop flag — the
//! SIGTERM-style shutdown hook. Binaries pass `std::thread::sleep` and
//! flip the flag from a signal handler or another thread; tests pass a
//! no-op sleeper and flip the flag deterministically. The driver also
//! stops by itself after a configurable run of idle polls (no new
//! bytes), which is how the CLI's `--idle-polls` bounds a soak run.

use crate::error::InferenceError;
use crate::init::InitStrategy;
use crate::stream::{EngineState, RateTrajectory, StreamEngine, StreamOptions, WindowEstimate};
use qni_model::ids::QueueId;
use qni_model::log::{LogInputs, TaskInputs};
use qni_trace::tail::{TailOptions, TailReader, TailSnapshot, TailStats};
use qni_trace::window::{LiveSlicer, WindowSchedule};
use qni_trace::TraceError;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// One live-tail monitoring session over a growing JSONL trace.
#[derive(Debug)]
pub struct WatchSession {
    tail: TailReader,
    slicer: LiveSlicer,
    engine: StreamEngine,
    options_fingerprint: u64,
    records_seen: usize,
    peak_open_spans: usize,
    peak_buffered_tasks: usize,
}

/// What one [`WatchSession::step`] did and where the session stands.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Records parsed from this poll's appended bytes.
    pub new_records: usize,
    /// Windows closed (and fitted) by this step.
    pub windows_closed: usize,
    /// Total windows fitted so far.
    pub total_windows: usize,
    /// Latest entry watermark seen by the slicer (`None` before the
    /// first task).
    pub watermark: Option<f64>,
    /// End of the most recently closed window.
    pub last_closed_end: Option<f64>,
    /// Trace-time lag of the monitor: watermark minus the last closed
    /// window end (watermark itself before any window closes). Under
    /// steady flow this stays below `width + stride`.
    pub lag: Option<f64>,
    /// Schedule spans currently open (started, not yet closed) —
    /// bounded by `width/stride + 1` regardless of trace length.
    pub open_spans: usize,
    /// Tasks buffered in the slicer.
    pub buffered_tasks: usize,
    /// Byte offset consumed from the tailed file.
    pub offset: u64,
    /// Malformed lines quarantined so far (see
    /// [`TailOptions::max_bad_lines`]).
    pub bad_lines: u64,
    /// File rotations followed so far (see
    /// [`qni_trace::tail::RotationPolicy::Follow`]).
    pub rotations: u64,
}

/// Checkpoint format version; bumped whenever the serialized layout
/// changes incompatibly.
pub const CHECKPOINT_VERSION: u32 = 3;

/// A crash-consistent snapshot of a whole [`WatchSession`], in the serde
/// form of the session's own parts:
///
/// - the tail's position and counters, with any held partial line
///   ([`TailSnapshot`]);
/// - the slicer itself ([`LiveSlicer`]): its buffered tasks and the
///   in-progress task's records;
/// - the stream engine's state ([`EngineState`]): every emitted
///   estimate, plus what the next window reads of the last fitted one —
///   its index and start, the original ids of its real tasks, chain 0's
///   final imputed log on it as builder inputs
///   ([`qni_model::log::LogInputs`]), and its uncorrected pooled rates.
///   No window log, mask or original event id is written.
///
/// Every float goes through the bit-exact codec [`qni_model::bits`]
/// except the in-progress task's record times, which are finite (the
/// trace codec rejects others) and round-trip exactly as JSON numbers. A
/// resumed session therefore ends on the
/// [`RateTrajectory::fingerprint_digest`] of an uninterrupted run.
///
/// The checkpoint does *not* embed the options; instead it records a
/// fingerprint of every byte-affecting knob ([`options_fingerprint`]).
/// [`WatchSession::resume`] refuses a checkpoint written under other
/// options or by another [`CHECKPOINT_VERSION`], and one whose parts
/// disagree with each other or with the session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Fingerprint of the byte-affecting configuration the checkpoint
    /// was written under.
    pub options_fingerprint: u64,
    /// Tail reader position and counters.
    pub tail: TailSnapshot,
    /// The live slicer.
    pub slicer: LiveSlicer,
    /// Stream engine estimates and carried window.
    pub engine: EngineState,
    /// Total records ingested.
    pub records_seen: u64,
    /// Peak open-span count so far.
    pub peak_open_spans: u64,
    /// Peak buffered-task count so far.
    pub peak_buffered_tasks: u64,
}

/// The first thing [`Checkpoint::load`] reads: a checkpoint of another
/// version is refused before its layout is.
#[derive(Deserialize)]
struct Version {
    version: u32,
}

impl Checkpoint {
    /// Writes the checkpoint atomically: serialize to `<path>.tmp` in
    /// the same directory, then rename over `path`. A crash mid-write
    /// leaves the previous checkpoint intact — the resume path never
    /// sees a torn file.
    pub fn save_atomic<P: AsRef<Path>>(&self, path: P) -> Result<(), InferenceError> {
        let path = path.as_ref();
        let json = serde_json::to_string(self)
            .map_err(|e| InferenceError::Trace(qni_trace::TraceError::Serde(e)))?;
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, json.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| InferenceError::Trace(qni_trace::TraceError::Io(e)))
    }

    /// Loads a checkpoint previously written by
    /// [`Checkpoint::save_atomic`]. A checkpoint of another
    /// [`CHECKPOINT_VERSION`] is refused with the version error.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, InferenceError> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| InferenceError::Trace(qni_trace::TraceError::Io(e)))?;
        let serde_err = |e| InferenceError::Trace(qni_trace::TraceError::Serde(e));
        let Version { version } = serde_json::from_str(&json).map_err(serde_err)?;
        check_version(version)?;
        serde_json::from_str(&json).map_err(serde_err)
    }

    /// Every check a resume makes, before it uses any part: the version,
    /// the options fingerprint, then the parts against the session's
    /// `schedule` and `num_queues` and against each other. A checkpoint
    /// that passes continues the stream it was written from without a
    /// panic or an allocation beyond its own size.
    fn check(
        &self,
        schedule: &WindowSchedule,
        num_queues: usize,
        options_fingerprint: u64,
    ) -> Result<(), InferenceError> {
        check_version(self.version)?;
        if self.options_fingerprint != options_fingerprint {
            return Err(InferenceError::BadOptions {
                what: "checkpoint was written under a different schedule/options \
                       configuration; resuming would break byte-identity",
            });
        }
        self.slicer.check(schedule, num_queues)?;
        let windows = &self.engine.windows;
        let next = self.slicer.next_window_index();
        ensure(next == windows.len(), "slicer", || {
            format!(
                "next window is {next}, the engine has fitted {}",
                windows.len()
            )
        })?;
        let in_schedule = |index: usize, start: f64, end: f64| {
            let (s, e) = schedule.span(index);
            start.to_bits() == s.to_bits() && end.to_bits() == e.to_bits()
        };
        for (i, w) in windows.iter().enumerate() {
            let per_queue = [&w.rates, &w.mean_service, &w.split_rhat, &w.ess];
            let ok = w.index == i
                && in_schedule(i, w.start, w.end)
                && per_queue.iter().all(|v| v.len() == num_queues);
            ensure(ok, &format!("engine.windows[{i}]"), || {
                format!(
                    "is window {} over [{}, {}) with {} rates, not the schedule's window {i}",
                    w.index,
                    w.start,
                    w.end,
                    w.rates.len()
                )
            })?;
        }
        // The carried window is the last fitted one: later windows were
        // empty, and before the first fit there is none.
        let last_fit = windows.iter().rposition(|w| !w.carried);
        let Some(prev) = &self.engine.prev else {
            return ensure(last_fit.is_none(), "engine.prev", || {
                "is missing".to_owned()
            });
        };
        let (index, start) = (prev.index, prev.start);
        let est = last_fit.map(|i| &windows[i]);
        let est = est.filter(|w| w.index == index && w.start.to_bits() == start.to_bits());
        let est = located(est, "engine.prev", || {
            format!("is window {index} from {start}, the last fitted one {last_fit:?}")
        })?;
        let (real, carry, ids) = (est.tasks, est.carry_tasks, &prev.orig_tasks);
        let ok = ids.len() == real && ids.windows(2).all(|p| p[0] < p[1]);
        ensure(ok && prev.pooled.len() == num_queues, "engine.prev", || {
            let (n, pooled) = (ids.len(), prev.pooled.len());
            format!("has {n} task ids for {real} tasks or out of order, or {pooled} pooled rates")
        })?;
        // The final log holds the window's real tasks, then the carry
        // tasks with one visit each: its counts follow from the estimate.
        let fin = "engine.prev.final_log";
        check_log(fin, &prev.final_log, num_queues)?;
        let tasks = &prev.final_log.tasks;
        let events = |ts: &[TaskInputs]| ts.iter().map(|t| t.visits.len() + 1).sum::<usize>();
        let (real_tasks, carry_tasks) = tasks.split_at(real.min(tasks.len()));
        let counts = (tasks.len(), events(real_tasks), events(carry_tasks));
        let carry_events = carry.saturating_mul(2);
        let want = (real.saturating_add(carry), est.events, carry_events);
        ensure(counts == want, fin, || {
            format!("has (tasks, real events, carry events) {counts:?}, its window {want:?}")
        })?;
        // The next window shares only buffered tasks with this one, and
        // pairs their events by position.
        for (task, visits) in self.slicer.buffered_visits() {
            let Ok(j) = ids.binary_search(&task) else {
                continue;
            };
            let carried = tasks[j].visits.len();
            ensure(carried == visits, fin, || {
                format!("has {carried} visits for task {task}, the slicer buffers {visits}")
            })?;
        }
        Ok(())
    }
}

/// The error for a checkpoint of another format version.
fn check_version(version: u32) -> Result<(), InferenceError> {
    if version == CHECKPOINT_VERSION {
        Ok(())
    } else {
        Err(InferenceError::BadOptions {
            what: "checkpoint format version is not supported by this build",
        })
    }
}

/// `value`, or the typed error naming checkpoint `part` if it is `None`.
fn located<T>(
    value: Option<T>,
    part: &str,
    what: impl FnOnce() -> String,
) -> Result<T, InferenceError> {
    value.ok_or_else(|| {
        let part = part.to_owned();
        InferenceError::Trace(TraceError::BadCheckpoint { part, what: what() })
    })
}

/// Fails with the typed error naming checkpoint `part` unless `ok`.
fn ensure(ok: bool, part: &str, what: impl FnOnce() -> String) -> Result<(), InferenceError> {
    located(ok.then_some(()), part, what)
}

/// Checks a carried log's inputs before the engine reads them: the
/// session's queue count, finite times, and at least one visit per
/// task, each at a service queue.
fn check_log(part: &str, log: &LogInputs, num_queues: usize) -> Result<(), InferenceError> {
    ensure(log.num_queues == num_queues, part, || {
        format!("has {} queues, the session {num_queues}", log.num_queues)
    })?;
    for (k, t) in log.tasks.iter().enumerate() {
        let service = |q: QueueId| !q.is_initial() && q.index() < num_queues;
        let visits_ok =
            (t.visits.iter()).all(|v| service(v.1) && v.2.is_finite() && v.3.is_finite());
        ensure(
            !t.visits.is_empty() && t.entry.is_finite() && visits_ok,
            part,
            || {
                format!("task {k} has no visit, a non-finite time, or a visit outside the service queues")
            },
        )?;
    }
    Ok(())
}

/// Fingerprints every configuration knob that affects the stream's
/// bytes: the schedule, queue count, StEM budgets and strategies, chain
/// count, master seed, and warm-start/occupancy settings. Deliberately
/// *excluded* are the byte-neutral execution knobs — shard mode (and
/// with it the wave pool's size), thread budget, and the injected clock
/// — so a checkpoint written on an 8-core box resumes on a 2-core one.
///
/// `Option`-valued knobs hash a presence word *and* the value, so
/// `None` never aliases `Some(0)`: `warm_burn_in: None` (keep the full
/// `stem.burn_in` on warm windows) and `warm_burn_in: Some(0)` (zero
/// burn-in on warm windows) yield different byte streams and must
/// reject each other's checkpoints (pinned by the
/// `fingerprint_separates_absent_from_zero_warm_burn_in` test).
pub fn options_fingerprint(
    schedule: &WindowSchedule,
    num_queues: usize,
    opts: &StreamOptions,
) -> u64 {
    let init_words = match opts.stem.init {
        InitStrategy::LongestPath { use_targets } => [0u64, u64::from(use_targets)],
        InitStrategy::Lp => [1u64, 0],
    };
    let batch_word = match opts.stem.batch {
        crate::gibbs::sweep::BatchMode::Grouped => 0u64,
        crate::gibbs::sweep::BatchMode::Scalar => 1,
    };
    let words = [
        u64::from(CHECKPOINT_VERSION),
        schedule.width().to_bits(),
        schedule.stride().to_bits(),
        num_queues as u64,
        opts.stem.iterations as u64,
        opts.stem.burn_in as u64,
        opts.stem.waiting_sweeps as u64,
        init_words[0],
        init_words[1],
        u64::from(opts.stem.shift_moves),
        batch_word,
        opts.chains as u64,
        opts.master_seed,
        u64::from(opts.warm_start),
        u64::from(opts.warm_burn_in.is_some()),
        opts.warm_burn_in.unwrap_or(0) as u64,
        u64::from(opts.occupancy_carry),
    ];
    crate::stream::fnv1a(words)
}

impl WatchSession {
    /// Opens a session tailing `path` from its start. The file does not
    /// need to exist yet. `num_queues` is the trace's total queue count
    /// including q0 (the same value `qni stream` infers from a complete
    /// file — a live tail cannot infer it from a prefix).
    pub fn new<P: AsRef<Path>>(
        path: P,
        schedule: WindowSchedule,
        num_queues: usize,
        opts: StreamOptions,
    ) -> Result<Self, InferenceError> {
        Self::with_tail_options(path, schedule, num_queues, opts, TailOptions::default())
    }

    /// Like [`WatchSession::new`] with explicit tail behavior: rotation
    /// policy, transient-error retry, and the malformed-line quarantine
    /// budget.
    pub fn with_tail_options<P: AsRef<Path>>(
        path: P,
        schedule: WindowSchedule,
        num_queues: usize,
        opts: StreamOptions,
        tail: TailOptions,
    ) -> Result<Self, InferenceError> {
        let options_fingerprint = options_fingerprint(&schedule, num_queues, &opts);
        Ok(WatchSession {
            tail: TailReader::with_options(path, tail),
            slicer: LiveSlicer::new(schedule, num_queues)?,
            engine: StreamEngine::new(schedule, num_queues, opts)?,
            options_fingerprint,
            records_seen: 0,
            peak_open_spans: 0,
            peak_buffered_tasks: 0,
        })
    }

    /// Reopens a session from a [`Checkpoint`], positioned to continue
    /// the stream bit-identically. `schedule`, `num_queues`, and `opts`
    /// must fingerprint to the checkpoint's recorded configuration, and
    /// the checkpoint's parts must agree with each other and with the
    /// session; otherwise the resume is refused with a typed error
    /// before any part is used (continuing would silently break the
    /// byte-identity contract, or panic).
    pub fn resume<P: AsRef<Path>>(
        path: P,
        schedule: WindowSchedule,
        num_queues: usize,
        opts: StreamOptions,
        tail: TailOptions,
        checkpoint: &Checkpoint,
    ) -> Result<Self, InferenceError> {
        let options_fingerprint = options_fingerprint(&schedule, num_queues, &opts);
        checkpoint.check(&schedule, num_queues, options_fingerprint)?;
        Ok(WatchSession {
            tail: TailReader::restore(path, &checkpoint.tail, tail),
            slicer: checkpoint.slicer.clone(),
            engine: StreamEngine::restore(schedule, num_queues, opts, &checkpoint.engine)?,
            options_fingerprint,
            records_seen: checkpoint.records_seen as usize,
            peak_open_spans: checkpoint.peak_open_spans as usize,
            peak_buffered_tasks: checkpoint.peak_buffered_tasks as usize,
        })
    }

    /// Captures the session's full resume state (see [`Checkpoint`]).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            options_fingerprint: self.options_fingerprint,
            tail: self.tail.snapshot(),
            slicer: self.slicer.clone(),
            engine: self.engine.state(),
            records_seen: self.records_seen as u64,
            peak_open_spans: self.peak_open_spans as u64,
            peak_buffered_tasks: self.peak_buffered_tasks as u64,
        }
    }

    /// Tail-side fault counters: quarantined lines, followed rotations,
    /// transient-error retries.
    pub fn tail_stats(&self) -> TailStats {
        self.tail.stats()
    }

    /// One poll: ingest appended records, fit every window they close.
    pub fn step(&mut self) -> Result<StepReport, InferenceError> {
        let records = self.tail.poll()?;
        let new_records = records.len();
        self.records_seen += new_records;
        let mut windows_closed = 0usize;
        for rec in records {
            for window in self.slicer.push(rec)? {
                self.engine.push_window(window)?;
                windows_closed += 1;
            }
        }
        self.peak_open_spans = self.peak_open_spans.max(self.slicer.open_spans());
        self.peak_buffered_tasks = self.peak_buffered_tasks.max(self.slicer.buffered_tasks());
        Ok(self.report(new_records, windows_closed))
    }

    fn report(&self, new_records: usize, windows_closed: usize) -> StepReport {
        let watermark = self.slicer.watermark();
        let last_closed_end = self.slicer.last_closed_end();
        let stats = self.tail.stats();
        StepReport {
            new_records,
            windows_closed,
            total_windows: self.engine.num_windows(),
            watermark,
            last_closed_end,
            lag: watermark.map(|w| w - last_closed_end.unwrap_or(0.0)),
            open_spans: self.slicer.open_spans(),
            buffered_tasks: self.slicer.buffered_tasks(),
            offset: self.tail.offset(),
            bad_lines: stats.bad_lines,
            rotations: stats.rotations,
        }
    }

    /// Estimates of every window fitted so far, in window order.
    pub fn estimates(&self) -> &[WindowEstimate] {
        self.engine.estimates()
    }

    /// The trajectory built so far (for periodic emission mid-run).
    pub fn trajectory_snapshot(&self) -> RateTrajectory {
        self.engine.trajectory_snapshot()
    }

    /// Total records ingested.
    pub fn records_seen(&self) -> usize {
        self.records_seen
    }

    /// Peak resident (open) window count over the session's lifetime —
    /// the bounded-memory gate of the soak test.
    pub fn peak_open_spans(&self) -> usize {
        self.peak_open_spans
    }

    /// Peak buffered task count over the session's lifetime.
    pub fn peak_buffered_tasks(&self) -> usize {
        self.peak_buffered_tasks
    }

    /// Declares the trace complete: one final poll, then every remaining
    /// window is closed, fitted, and folded into the returned
    /// trajectory. Byte-identical to a [`crate::stream::run_stream`]
    /// replay of the final file with the same options.
    pub fn finish(mut self) -> Result<RateTrajectory, InferenceError> {
        let records = self.tail.poll()?;
        for rec in records {
            for window in self.slicer.push(rec)? {
                self.engine.push_window(window)?;
            }
        }
        for window in self.slicer.finish()? {
            self.engine.push_window(window)?;
        }
        Ok(self.engine.into_trajectory())
    }
}

/// Drives a [`WatchSession`] until the injected `stop` flag is raised or
/// `idle_poll_limit` consecutive polls bring no new bytes (pass `None`
/// to poll forever and rely on the flag alone). `sleep` paces the polls
/// — binaries pass a real `std::thread::sleep` closure, tests a no-op —
/// and `on_step` observes the session after every step (print progress,
/// dump periodic snapshots, enforce lag gates; the estimates fitted by
/// the step are `session.estimates()[report.total_windows -
/// report.windows_closed..]`). Returns the number of steps taken; call
/// [`WatchSession::finish`] afterwards for the final trajectory.
///
/// The stop flag is the SIGTERM-style shutdown hook: raise it from a
/// signal handler or another thread and the loop exits cleanly after
/// the in-flight step, never mid-window.
pub fn run_watch<S, F>(
    session: &mut WatchSession,
    stop: &AtomicBool,
    idle_poll_limit: Option<usize>,
    mut sleep: S,
    mut on_step: F,
) -> Result<usize, InferenceError>
where
    S: FnMut(),
    F: FnMut(&WatchSession, &StepReport),
{
    let mut steps = 0usize;
    let mut idle = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let report = session.step()?;
        steps += 1;
        on_step(session, &report);
        if report.new_records == 0 && report.windows_closed == 0 {
            idle += 1;
            if idle_poll_limit.is_some_and(|limit| idle >= limit) {
                break;
            }
        } else {
            idle = 0;
        }
        if !stop.load(Ordering::SeqCst) {
            sleep();
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::run_stream;
    use qni_model::ids::{QueueId, StateId, TaskId};
    use qni_trace::record::{to_records, write_jsonl};
    use qni_trace::{MaskedLog, ObservationScheme};
    use std::io::Write;
    use std::path::PathBuf;

    fn piecewise_masked(seed: u64) -> MaskedLog {
        use qni_sim::{Simulator, Workload};
        use qni_stats::rng::rng_from_seed;
        let bp = qni_model::topology::tandem(2.0, &[10.0]).unwrap();
        let mut rng = rng_from_seed(seed);
        let workload = Workload::piecewise_constant(vec![2.0, 5.0], vec![30.0], 60.0).unwrap();
        let truth = Simulator::new(&bp.network)
            .run(&workload, &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap()
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qni-watch-{}-{name}.jsonl", std::process::id()));
        p
    }

    /// The tentpole pin at the library level: a session fed by
    /// incremental appends produces the trajectory of a replay over the
    /// final file, byte for byte, while the resident window count stays
    /// bounded.
    #[test]
    fn watch_matches_replay_and_stays_bounded() {
        let masked = piecewise_masked(21);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions::quick_test();
        let replay = run_stream(&masked, &schedule, &opts).unwrap();

        let mut bytes = Vec::new();
        write_jsonl(&masked, &mut bytes).unwrap();
        let path = tmp_path("pin");
        let _ = std::fs::remove_file(&path);
        let mut session =
            WatchSession::new(&path, schedule, masked.ground_truth().num_queues(), opts).unwrap();
        // Appends arrive in seven slices, interleaved with steps; the
        // first step happens before the file even exists.
        assert_eq!(session.step().unwrap().new_records, 0);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        let n = bytes.len();
        let mut wrote = 0usize;
        for i in 1..=7 {
            let end = n * i / 7;
            f.write_all(&bytes[wrote..end]).unwrap();
            f.flush().unwrap();
            wrote = end;
            session.step().unwrap();
        }
        let report = session.step().unwrap();
        assert_eq!(report.offset, n as u64);
        assert!(report.total_windows > 0, "no window closed mid-stream");
        assert!(session.peak_open_spans() <= 3, "width/stride + 1 bound");
        let live = session.finish().unwrap();
        assert_eq!(live.fingerprint(), replay.fingerprint());
        assert_eq!(live.fingerprint_digest(), replay.fingerprint_digest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_watch_honors_stop_flag_and_idle_limit() {
        let masked = piecewise_masked(22);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let path = tmp_path("driver");
        let mut bytes = Vec::new();
        write_jsonl(&masked, &mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        // Idle limit: everything is already on disk, so after one
        // productive step the driver sees 3 idle polls and stops.
        let mut session = WatchSession::new(
            &path,
            schedule,
            masked.ground_truth().num_queues(),
            StreamOptions::quick_test(),
        )
        .unwrap();
        let stop = AtomicBool::new(false);
        let mut sleeps = 0usize;
        let mut seen_windows = 0usize;
        let steps = run_watch(
            &mut session,
            &stop,
            Some(3),
            || sleeps += 1,
            |s, r| {
                seen_windows += r.windows_closed;
                assert_eq!(s.estimates().len(), r.total_windows);
            },
        )
        .unwrap();
        assert_eq!(steps, 4, "1 productive + 3 idle");
        assert!(seen_windows > 0);
        assert_eq!(seen_windows, session.estimates().len());

        // Stop flag: raised before the first poll, the driver never
        // steps.
        let mut session = WatchSession::new(
            &path,
            schedule,
            masked.ground_truth().num_queues(),
            StreamOptions::quick_test(),
        )
        .unwrap();
        let stop = AtomicBool::new(true);
        let steps = run_watch(&mut session, &stop, None, || (), |_, _| ()).unwrap();
        assert_eq!(steps, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// A tail that stops right after a task's q0 line ends inside that
    /// task: `finish` names it with a typed error, and the checkpoint
    /// written before `finish` resumes, once the rest of the file
    /// arrives, onto the replay's trajectory.
    #[test]
    fn finish_inside_a_task_is_typed_and_its_checkpoint_resumes() {
        let masked = piecewise_masked(25);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions::quick_test();
        let replay = run_stream(&masked, &schedule, &opts).unwrap();
        let nq = masked.ground_truth().num_queues();
        let mut bytes = Vec::new();
        write_jsonl(&masked, &mut bytes).unwrap();
        // Cut just after the first q0 line in the second half.
        let (mut cut, mut task) = (0, None);
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let rec = qni_trace::record::parse_record(line.trim_ascii_end()).unwrap();
            cut += line.len();
            if cut > bytes.len() / 2 && rec.event.is_initial() {
                task = Some(rec.event.task);
                break;
            }
        }
        let task = task.unwrap();
        let path = tmp_path("inside");
        let cp_path = tmp_path("inside-cp");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut session = WatchSession::new(&path, schedule, nq, opts.clone()).unwrap();
        session.step().unwrap();
        session.checkpoint().save_atomic(&cp_path).unwrap();
        match session.finish() {
            Err(InferenceError::Trace(TraceError::EndsInsideTask { task: t })) => {
                assert_eq!(t, task);
            }
            other => panic!("expected EndsInsideTask({task}), got {other:?}"),
        }
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&bytes[cut..]).unwrap();
        f.flush().unwrap();
        let cp = Checkpoint::load(&cp_path).unwrap();
        let mut resumed =
            WatchSession::resume(&path, schedule, nq, opts, TailOptions::default(), &cp).unwrap();
        resumed.step().unwrap();
        let live = resumed.finish().unwrap();
        assert_eq!(live.fingerprint_digest(), replay.fingerprint_digest());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&cp_path).unwrap();
    }

    /// The tentpole resume pin at the library level: checkpoint the
    /// session mid-stream (with a partial line held in the tail and
    /// windows already fitted), round-trip the checkpoint through its
    /// on-disk JSON form, resume a *fresh* session from it, and the
    /// final trajectory is byte-identical to an uninterrupted replay.
    #[test]
    fn checkpoint_resume_mid_stream_matches_replay() {
        let masked = piecewise_masked(24);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions::quick_test();
        let replay = run_stream(&masked, &schedule, &opts).unwrap();
        let nq = masked.ground_truth().num_queues();

        let mut bytes = Vec::new();
        write_jsonl(&masked, &mut bytes).unwrap();
        let path = tmp_path("resume");
        let cp_path = tmp_path("resume-cp");
        let _ = std::fs::remove_file(&path);
        let mut session = WatchSession::new(&path, schedule, nq, opts.clone()).unwrap();
        // First half plus a torn fragment of the next line: the
        // checkpoint must carry the held partial line.
        let n = bytes.len();
        let cut = n / 2 + 7;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let report = session.step().unwrap();
        assert!(report.total_windows > 0, "no window fitted before the cut");
        session.checkpoint().save_atomic(&cp_path).unwrap();
        let loaded = Checkpoint::load(&cp_path).unwrap();
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            std::fs::read_to_string(&cp_path).unwrap()
        );
        drop(session); // the "crash"

        let mut resumed = WatchSession::resume(
            &path,
            schedule,
            nq,
            opts.clone(),
            TailOptions::default(),
            &loaded,
        )
        .unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&bytes[cut..]).unwrap();
        f.flush().unwrap();
        resumed.step().unwrap();
        let live = resumed.finish().unwrap();
        assert_eq!(live.fingerprint(), replay.fingerprint());
        assert_eq!(live.fingerprint_digest(), replay.fingerprint_digest());

        // A resume under different byte-affecting options is rejected.
        let other = StreamOptions {
            master_seed: 99,
            ..opts.clone()
        };
        assert!(matches!(
            WatchSession::resume(&path, schedule, nq, other, TailOptions::default(), &loaded),
            Err(InferenceError::BadOptions { .. })
        ));
        let wrong_version = Checkpoint {
            version: CHECKPOINT_VERSION + 1,
            ..loaded.clone()
        };
        assert!(WatchSession::resume(
            &path,
            schedule,
            nq,
            opts,
            TailOptions::default(),
            &wrong_version
        )
        .is_err());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&cp_path).unwrap();
    }

    /// Every edit a resume can meet in a checkpoint's parts — a carried
    /// final log that disagrees with its window's estimate or with a task
    /// the slicer still buffers, a log for another queue count or visiting
    /// a queue the session lacks, estimates that are not the schedule's, a
    /// slicer ahead of the engine, a carried window that is not the last
    /// fitted one, original task ids or rates that do not fit it — is
    /// refused with a typed error naming the part, before anything is
    /// built.
    #[test]
    fn resume_rejects_inconsistent_checkpoint_parts() {
        use qni_sim::{Simulator, Workload};
        use qni_stats::rng::rng_from_seed;
        // Two service queues, so every task has two visits.
        let bp = qni_model::topology::tandem(2.0, &[10.0, 12.0]).unwrap();
        let mut rng = rng_from_seed(25);
        let workload = Workload::piecewise_constant(vec![2.0, 5.0], vec![30.0], 60.0).unwrap();
        let truth = Simulator::new(&bp.network)
            .run(&workload, &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions::quick_test();
        let mut bytes = Vec::new();
        write_jsonl(&masked, &mut bytes).unwrap();
        let path = tmp_path("edited");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let mut session = WatchSession::new(&path, schedule, 3, opts.clone()).unwrap();
        session.step().unwrap();
        let cp = session.checkpoint();
        let resume = |cp: &Checkpoint| {
            WatchSession::resume(&path, schedule, 3, opts.clone(), TailOptions::default(), cp)
        };
        resume(&cp).expect("the unedited checkpoint resumes");
        let json = serde_json::to_string(&cp).unwrap();
        assert!(!json.contains("\"observed_entry\"") && !json.contains("_bits"));
        // No window log, mask, original event id or second copy of the
        // reported rates.
        for key in [
            "\"window\"",
            "\"mask\"",
            "orig_events",
            "\"reported\"",
            "event_id",
        ] {
            assert!(!json.contains(key), "checkpoint holds {key}");
        }
        let carried = cp.engine.prev.as_ref().unwrap();
        let ids = &carried.orig_tasks;
        assert!(
            carried.final_log.tasks.len() > ids.len(),
            "fixture must carry a carry task"
        );
        // A real task the slicer still buffers, and one it has retired.
        let buffered: Vec<TaskId> = cp.slicer.buffered_visits().map(|(t, _)| t).collect();
        let shared = (0..ids.len()).find(|&k| buffered.contains(&ids[k]));
        let shared = shared.expect("fixture must share a buffered task");
        assert!(!buffered.contains(&ids[0]), "task 0 must be retired");
        let rejects = |part: &str, edit: &dyn Fn(&mut Checkpoint)| {
            let mut bad = cp.clone();
            edit(&mut bad);
            match resume(&bad) {
                Err(InferenceError::Trace(TraceError::BadCheckpoint { part: p, what })) => {
                    assert_eq!(p, part, "{what}");
                }
                other => panic!("{part}: {other:?}"),
            }
        };
        fn p(cp: &mut Checkpoint) -> &mut crate::stream::PrevWindow {
            cp.engine.prev.as_mut().unwrap()
        }
        let visit = (StateId(1), QueueId(1), 0.0, 0.0);
        let (fin, prev) = ("engine.prev.final_log", "engine.prev");
        rejects(fin, &|c| drop(p(c).final_log.tasks.pop()));
        // A real task gaining or losing a visit.
        rejects(fin, &|c| p(c).final_log.tasks[0].visits.push(visit));
        rejects(fin, &|c| {
            p(c).final_log.tasks[0].visits.pop();
        });
        // A carry task with two visits.
        rejects(fin, &|c| {
            let tasks = &mut p(c).final_log.tasks;
            tasks.last_mut().unwrap().visits.push(visit);
        });
        // A visit moved from a buffered task to a retired one: every count
        // holds, but the buffered task's carried copy differs from it.
        rejects(fin, &|c| {
            let tasks = &mut p(c).final_log.tasks;
            let moved = tasks[shared].visits.pop().unwrap();
            tasks[0].visits.push(moved);
        });
        rejects(fin, &|c| p(c).final_log.num_queues = 1_000_000_000_000);
        rejects(fin, &|c| {
            p(c).final_log.tasks[0].visits[0].1 = QueueId(u32::MAX)
        });
        rejects(fin, &|c| p(c).final_log.tasks[0].entry = f64::NAN);
        rejects("engine.windows[0]", &|c| {
            c.engine.windows[0].rates.truncate(1)
        });
        rejects("engine.windows[1]", &|c| c.engine.windows[1].index = 7);
        rejects("engine.windows[1]", &|c| c.engine.windows[1].end += 1.0);
        rejects("slicer", &|c| drop(c.engine.windows.pop()));
        rejects(prev, &|c| p(c).pooled.truncate(1));
        rejects(prev, &|c| p(c).index -= 1);
        rejects(prev, &|c| p(c).start += 1.0);
        rejects(prev, &|c| p(c).orig_tasks.push(TaskId(u32::MAX)));
        rejects(prev, &|c| {
            p(c).orig_tasks.pop();
        });
        rejects(prev, &|c| p(c).orig_tasks.swap(0, 1));
        // The slicer's fields are private to it: edit the JSON.
        let edit_json = |from: &str, to: &str| {
            let edited = json.replacen(from, to, 1);
            assert_ne!(edited, json, "{from} not found");
            resume(&serde_json::from_str(&edited).unwrap()).unwrap_err()
        };
        let needle = format!("\"next_window\":{}", cp.slicer.next_window_index());
        let err = edit_json(&needle, "\"next_window\":9223372036854775808");
        assert!(
            err.to_string().contains("checkpoint slicer: next window"),
            "{err}"
        );
        // The buffered copy of a shared task gains a visit and its flag.
        let task = serde_json::to_string(&ids[shared]).unwrap();
        let at = json
            .find(&format!("\"orig_task\":{task},"))
            .expect("buffered task");
        let (head, tail) = json.split_at(at);
        let tail = tail.replacen("\"visits\":[", "\"visits\":[[1,1,0,0],", 1);
        let tail = tail.replacen("\"flags\":[", "\"flags\":[[true,true],", 1);
        let err = edit_json(&json, &format!("{head}{tail}"));
        assert!(
            err.to_string()
                .contains("checkpoint engine.prev.final_log: has 2 visits"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Byte-neutral execution knobs (shard mode, thread budget, clock)
    /// are excluded from the options fingerprint: a checkpoint written
    /// on one machine shape resumes on another.
    #[test]
    fn options_fingerprint_ignores_byte_neutral_knobs() {
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let base = StreamOptions::quick_test();
        let a = options_fingerprint(&schedule, 2, &base);
        let sharded = StreamOptions {
            thread_budget: Some(4),
            stem: crate::stem::StemOptions {
                shard: crate::gibbs::shard::ShardMode::Sharded(4),
                ..base.stem.clone()
            },
            ..base.clone()
        };
        assert_eq!(a, options_fingerprint(&schedule, 2, &sharded));
        let reseeded = StreamOptions {
            master_seed: 1,
            ..base.clone()
        };
        assert_ne!(a, options_fingerprint(&schedule, 2, &reseeded));
        assert_ne!(a, options_fingerprint(&schedule, 3, &base));
        let other_schedule = WindowSchedule::new(20.0, 5.0).unwrap();
        assert_ne!(a, options_fingerprint(&other_schedule, 2, &base));
    }

    /// Regression guard for the warm-burn-in aliasing hazard: hashing
    /// only `warm_burn_in.unwrap_or(0)` would make `None` (keep the
    /// full `stem.burn_in` on warm windows) and `Some(0)` (zero warm
    /// burn-in) collide even though they produce different byte
    /// streams. The fingerprint must keep them distinct — and a
    /// checkpoint written under either must be rejected by a session
    /// configured with the other, in both directions.
    #[test]
    fn fingerprint_separates_absent_from_zero_warm_burn_in() {
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let absent = StreamOptions {
            warm_burn_in: None,
            ..StreamOptions::quick_test()
        };
        let zero = StreamOptions {
            warm_burn_in: Some(0),
            ..absent.clone()
        };
        let f_absent = options_fingerprint(&schedule, 2, &absent);
        let f_zero = options_fingerprint(&schedule, 2, &zero);
        assert_ne!(
            f_absent, f_zero,
            "warm_burn_in None and Some(0) yield different byte streams \
             and must never share a fingerprint"
        );
        // Resume-level rejection, both directions: a checkpoint taken
        // under one setting must not be accepted by the other.
        let path = tmp_path("warm-burn-in-alias");
        let _ = std::fs::remove_file(&path);
        for (write_opts, resume_opts) in [(&absent, &zero), (&zero, &absent)] {
            let session = WatchSession::new(&path, schedule, 2, write_opts.clone()).unwrap();
            let cp = session.checkpoint();
            assert!(
                matches!(
                    WatchSession::resume(
                        &path,
                        schedule,
                        2,
                        resume_opts.clone(),
                        TailOptions::default(),
                        &cp,
                    ),
                    Err(InferenceError::BadOptions { .. })
                ),
                "resume under the aliased warm_burn_in setting must be rejected"
            );
            // Sanity: the same options do resume.
            WatchSession::resume(
                &path,
                schedule,
                2,
                write_opts.clone(),
                TailOptions::default(),
                &cp,
            )
            .unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Records arriving one at a time (the pathological slow writer)
    /// still reproduce the replay bytes.
    #[test]
    fn single_record_appends_match_replay() {
        let masked = piecewise_masked(23);
        let schedule = WindowSchedule::new(30.0, 15.0).unwrap();
        let opts = StreamOptions::quick_test();
        let replay = run_stream(&masked, &schedule, &opts).unwrap();
        let records = to_records(masked.ground_truth(), masked.mask());
        let path = tmp_path("one-by-one");
        let _ = std::fs::remove_file(&path);
        let mut session =
            WatchSession::new(&path, schedule, masked.ground_truth().num_queues(), opts).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap();
        for rec in &records {
            serde_json::to_writer(&mut f, rec).unwrap();
            f.write_all(b"\n").unwrap();
            f.flush().unwrap();
            session.step().unwrap();
        }
        let live = session.finish().unwrap();
        assert_eq!(live.fingerprint(), replay.fingerprint());
        std::fs::remove_file(&path).unwrap();
    }
}
