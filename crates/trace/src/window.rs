//! Sliding time windows over a masked log — the input of streaming
//! inference.
//!
//! A [`WindowSchedule`] cuts the time axis into overlapping half-open
//! windows `[k·stride, k·stride + width)`; [`slice_windows`] materializes
//! each as a self-contained [`WindowedLog`] from a complete trace, and
//! [`LiveSlicer`] does the same incrementally from a growing stream of
//! [`crate::record::TraceRecord`]s (the live-tail path). Both routes go
//! through one shared window builder, so for the same records they emit
//! bit-identical windows. The slicing convention mirrors
//! [`crate::observe::ObservationScheme::TimeWindow`]:
//!
//! - **Task ownership is by *observed* entry.** A task belongs to the
//!   window whose half-open span contains its observed entry time: the
//!   measured system-entry when the entry was observed, otherwise the
//!   earliest *measured* time of any of its events — the first instant a
//!   monitor actually learns the task exists. Tasks with no measured time
//!   at all fall back to the recorded entry (the paper's event counters
//!   make the existence, count, and order of tasks structural knowledge
//!   even when their times are unobserved). An entry exactly on a
//!   window's start is inside; exactly on its end is in the next window.
//! - **Whole tasks ride along.** Events of a task that straddles the
//!   window's end boundary stay with the entry-owning window, and their
//!   boundary-crossing departures stay pinned to the task — so every
//!   window is a complete constraint system (π/ρ pointers never reference
//!   a neighbouring window) and can be handed to inference on its own.
//! - **Each window gets its own clock.** All times are rebased by the
//!   window start, so a window's q0 interarrival gaps (and hence its λ̂)
//!   are local to the window rather than accumulating the absolute time
//!   since the trace began. Unobserved times that precede the window
//!   start (possible when an unobserved prefix of a task is pulled in by
//!   a later observed time) are clamped to the window's origin — they are
//!   free variables, so the clamp only changes the sampler's starting
//!   point, never an observation.
//!
//! Mask bits are copied verbatim: an arrival observed in the full trace
//! is observed in every window that contains it, and free times stay
//! free.
//!
//! # Cross-window server occupancy
//!
//! With a small stride, a window's early events compete for servers
//! against work carried over from *before* the window starts — work the
//! window's own log cannot see, which makes per-window service estimates
//! systematically optimistic. [`occupancy_carry`] measures, from the
//! previous window's final imputed log, how long each queue's server
//! stays busy past the next window's start with tasks the next window
//! does not own; [`WindowedLog::with_occupancy`] injects that residual as
//! one fully-observed *carry task* per affected queue (entering at the
//! window origin and occupying the server until the carried busy time),
//! so the FIFO machinery itself imposes the floor — no sampler changes.
//! Carry tasks are appended after the real tasks, are pinned by the
//! mask, and have no original task; q0's rate estimate must be rescaled
//! by `real/(real+carry)` tasks (the streaming engine does this), since
//! each carry task adds one q0 event with a zero interarrival gap.
//!
//! # Mapping back to the trace
//!
//! A window maps back to the original trace by task only
//! ([`WindowedLog::original_task`]). A task owned by two overlapping
//! windows has the same events in the same order in both, so its `i`-th
//! event in one window is its `i`-th event in the other.
//!
//! # Checkpoints
//!
//! The resume state of a live tail is the serde form of a
//! [`LiveSlicer`], its own fields with every float bit-exact; no
//! checkpoint holds a window. A read slicer is not trusted:
//! [`LiveSlicer::check`] compares it with the session and with the shape
//! its own pushes give before it is pushed to.

use crate::error::TraceError;
use crate::mask::{MaskedLog, ObservedMask};
use crate::record::TraceRecord;
use qni_model::ids::{QueueId, StateId, TaskId};
use qni_model::log::{LogInputs, TaskInputs};
use serde::{Deserialize, Serialize};

/// A `(width, stride)` sliding-window schedule.
///
/// Window `k` spans `[k·stride, k·stride + width)`. `stride < width`
/// yields overlapping windows (the usual streaming configuration, and
/// what gives warm starts shared tasks to reuse); `stride == width`
/// tiles the axis; `stride > width` subsamples it (tasks entering
/// between windows belong to none).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WindowSchedule {
    #[serde(with = "qni_model::bits")]
    width: f64,
    #[serde(with = "qni_model::bits")]
    stride: f64,
}

/// A schedule is read through [`WindowSchedule::new`], so a read one is
/// as valid as a constructed one.
impl<'de> Deserialize<'de> for WindowSchedule {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            #[serde(with = "qni_model::bits")]
            width: f64,
            #[serde(with = "qni_model::bits")]
            stride: f64,
        }
        let raw = Raw::deserialize(deserializer)?;
        WindowSchedule::new(raw.width, raw.stride).map_err(serde::de::Error::custom)
    }
}

impl WindowSchedule {
    /// Creates a schedule with validation: both `width` and `stride` must
    /// be positive and finite.
    pub fn new(width: f64, stride: f64) -> Result<Self, TraceError> {
        if !(width.is_finite() && width > 0.0) {
            return Err(TraceError::BadSchedule {
                what: "window width must be positive and finite",
            });
        }
        if !(stride.is_finite() && stride > 0.0) {
            return Err(TraceError::BadSchedule {
                what: "window stride must be positive and finite",
            });
        }
        Ok(WindowSchedule { width, stride })
    }

    /// The window width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// The stride between consecutive window starts.
    pub fn stride(&self) -> f64 {
        self.stride
    }

    /// The `[start, end)` span of window `k`.
    pub fn span(&self, k: usize) -> (f64, f64) {
        let start = k as f64 * self.stride;
        (start, start + self.width)
    }

    /// The `[start, end)` spans covering `[0, horizon]`: windows start at
    /// `0, stride, 2·stride, …` while the start does not exceed
    /// `horizon`, so every entry time in `[0, horizon]` lies in at least
    /// one window whenever `stride <= width`.
    pub fn spans(&self, horizon: f64) -> Vec<(f64, f64)> {
        let mut spans = Vec::new();
        let mut k = 0usize;
        loop {
            let (start, end) = self.span(k);
            if k > 0 && start > horizon {
                break;
            }
            spans.push((start, end));
            k += 1;
        }
        spans
    }
}

/// One task of the original trace, in the slicer's intermediate form:
/// absolute-clock times plus raw observation flags, ready to be rebased
/// into any window that owns it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TaskSlice {
    orig_task: TaskId,
    /// Recorded system entry (absolute clock).
    #[serde(with = "qni_model::bits")]
    entry: f64,
    /// Queue visits after the q0 entry, on the absolute clock.
    #[serde(with = "qni_model::bits")]
    visits: Vec<(StateId, QueueId, f64, f64)>,
    /// `(arrival_observed, departure_observed)` per event, including the
    /// q0 initial event at index 0.
    flags: Vec<(bool, bool)>,
}

impl TaskSlice {
    /// Membership time: observed entry, first measured time, or the
    /// recorded entry as fallback (see the module docs).
    fn observed_entry(&self) -> f64 {
        observed_entry(self.entry, &self.visits, &self.flags)
    }
}

/// The membership time of a task: its entry when measured (directly via
/// the q0 departure or equivalently the first visit's arrival), otherwise
/// the earliest measured time among its events, otherwise the recorded
/// entry (structural fallback).
fn observed_entry(
    entry: f64,
    visits: &[(StateId, QueueId, f64, f64)],
    flags: &[(bool, bool)],
) -> f64 {
    if flags.first().is_some_and(|f| f.1) || flags.get(1).is_some_and(|f| f.0) {
        return entry;
    }
    let mut first = f64::INFINITY;
    for (i, &(_, _, a, d)) in visits.iter().enumerate() {
        let Some(&(ao, dobs)) = flags.get(i + 1) else {
            break;
        };
        if ao {
            first = first.min(a);
        }
        if dobs {
            first = first.min(d);
        }
    }
    if first.is_finite() {
        first
    } else {
        entry
    }
}

/// One window of a masked log: a self-contained [`MaskedLog`] on the
/// window's local clock, plus the original trace's id of every real task.
#[derive(Debug, Clone)]
pub struct WindowedLog {
    /// Position of the window in the schedule (0-based).
    pub index: usize,
    /// Window start on the original trace's clock (inclusive).
    pub start: f64,
    /// Window end on the original trace's clock (exclusive).
    pub end: f64,
    masked: MaskedLog,
    orig_tasks: Vec<TaskId>,
    carry_tasks: usize,
}

impl WindowedLog {
    /// The window's self-contained masked log (times rebased so the
    /// window starts at 0). Includes any carry tasks appended by
    /// [`WindowedLog::with_occupancy`].
    pub fn masked(&self) -> &MaskedLog {
        &self.masked
    }

    /// Number of *real* tasks owned by the window (carry tasks excluded).
    pub fn num_tasks(&self) -> usize {
        self.orig_tasks.len()
    }

    /// Number of *real* events in the window's log (carry events
    /// excluded).
    pub fn num_events(&self) -> usize {
        self.masked.ground_truth().num_events() - self.carry_events()
    }

    /// Number of occupancy carry tasks appended by
    /// [`WindowedLog::with_occupancy`] (0 for a freshly sliced window).
    pub fn carry_tasks(&self) -> usize {
        self.carry_tasks
    }

    /// Number of events belonging to carry tasks (two per carry task: the
    /// q0 entry and the occupied queue's visit).
    pub fn carry_events(&self) -> usize {
        2 * self.carry_tasks
    }

    /// Maps a window-local task id back to the original trace's task.
    /// Carry tasks (local ids `>= num_tasks()`) have no original task.
    pub fn original_task(&self, k: TaskId) -> TaskId {
        self.orig_tasks[k.index()]
    }

    /// The inputs this window is built from; building them again yields
    /// a bit-identical window.
    fn inputs(&self) -> WindowInputs {
        WindowInputs {
            index: self.index,
            start: self.start,
            end: self.end,
            log: self.masked.ground_truth().inputs(),
            mask: self.masked.mask().clone(),
            orig_tasks: self.orig_tasks.clone(),
            carry_tasks: self.carry_tasks,
        }
    }

    /// Returns a copy of this window with the carried server occupancy
    /// injected as fully-observed carry tasks (see the
    /// [module docs](self)).
    ///
    /// For every service queue whose carried busy time extends past the
    /// window start *and* which has at least one real event in the
    /// window, one carry task is appended: it enters at the window origin
    /// and occupies the queue until the residual busy time, clamped to
    /// the queue's earliest pinned departure so pinned observations stay
    /// feasible. Queues without in-window events need no floor and get no
    /// carry task. Windows that gain no carry task are returned
    /// unchanged.
    pub fn with_occupancy(&self, carry: &OccupancyCarry) -> Result<WindowedLog, TraceError> {
        let log = self.masked.ground_truth();
        let mut ghosts: Vec<(StateId, QueueId, f64)> = Vec::new();
        for q in 1..log.num_queues() {
            let q = QueueId::from_index(q);
            let Some(busy) = carry.busy_until.get(q.index()).copied() else {
                continue;
            };
            // NaN-safe: a NaN residual must also be skipped, not carried.
            let mut residual = busy - self.start;
            if residual.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                continue;
            }
            let at_queue = log.events_at_queue(q);
            let Some(&first) = at_queue.first() else {
                continue;
            };
            // Feasibility clamp: a pinned departure before the carried
            // busy time would violate FIFO behind the carry task.
            for &e in at_queue {
                if self.masked.departure_pinned(e) {
                    residual = residual.min(log.departure(e));
                }
            }
            if residual > 0.0 {
                ghosts.push((log.state_of(first), q, residual));
            }
        }
        if ghosts.is_empty() {
            return Ok(self.clone());
        }
        let mut inputs = self.inputs();
        for &(state, q, residual) in &ghosts {
            inputs.log.tasks.push(TaskInputs {
                entry: 0.0,
                visits: vec![(state, q, 0.0, residual)],
            });
            // Carry tasks are fully pinned: the sampler must treat the
            // carried occupancy as data, not as a free variable.
            inputs.mask.push(true, true);
            inputs.mask.push(true, true);
        }
        inputs.carry_tasks += ghosts.len();
        inputs.build()
    }
}

/// Everything a [`WindowedLog`] is built from: the log as builder inputs
/// (carry tasks last), the observation mask, and the original task ids of
/// the real tasks. Sliced windows and windows given carry tasks are built
/// from these inputs.
#[derive(Debug, Clone)]
struct WindowInputs {
    index: usize,
    start: f64,
    end: f64,
    log: LogInputs,
    mask: ObservedMask,
    orig_tasks: Vec<TaskId>,
    carry_tasks: usize,
}

impl WindowInputs {
    /// Builds the window. Errors if the builder rejects a task, or if the
    /// mask does not cover every event of the log
    /// ([`TraceError::ShapeMismatch`]).
    fn build(self) -> Result<WindowedLog, TraceError> {
        Ok(WindowedLog {
            index: self.index,
            start: self.start,
            end: self.end,
            masked: MaskedLog::new(self.log.build()?, self.mask)?,
            orig_tasks: self.orig_tasks,
            carry_tasks: self.carry_tasks,
        })
    }
}

/// Per-queue server busy times carried across a window boundary, on the
/// original trace's absolute clock. Built by [`occupancy_carry`].
#[derive(Debug, Clone)]
pub struct OccupancyCarry {
    busy_until: Vec<f64>,
}

impl OccupancyCarry {
    /// The absolute time queue `q`'s server stays busy with carried work
    /// (`-inf` when nothing is carried).
    pub fn busy_until(&self, q: QueueId) -> f64 {
        self.busy_until
            .get(q.index())
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
    }
}

/// Measures, from the previous window's final imputed log, how long each
/// queue stays busy past `cur`'s start with work `cur` does not own:
/// the latest imputed departure over events of previous-window tasks
/// that are *not* members of `cur` (including the previous window's own
/// carry tasks, which by construction are never shared).
///
/// The previous window is given by its start, the original ids of its
/// real tasks ([`WindowedLog::original_task`], in increasing order) and
/// `prev_final`, the inputs of a log of its shape (the final Gibbs state
/// of a fit on it, [`qni_model::log::EventLog::inputs`]): its real tasks
/// first, then its carry tasks.
pub fn occupancy_carry(
    prev_start: f64,
    prev_tasks: &[TaskId],
    prev_final: &LogInputs,
    cur: &WindowedLog,
) -> OccupancyCarry {
    let mut busy_until = vec![f64::NEG_INFINITY; prev_final.num_queues];
    for (k, task) in prev_final.tasks.iter().enumerate() {
        if let Some(&orig) = prev_tasks.get(k) {
            // Real task: skip if `cur` owns it — its constraints are
            // native there (orig_tasks is in increasing task-id order).
            if cur.orig_tasks.binary_search(&orig).is_ok() {
                continue;
            }
        }
        for &(_, q, _, departure) in &task.visits {
            let depart = departure + prev_start;
            if depart > busy_until[q.index()] {
                busy_until[q.index()] = depart;
            }
        }
    }
    OccupancyCarry { busy_until }
}

/// Builds one window from its member tasks. This is the single slicing
/// path shared by [`slice_windows`] (replay) and [`LiveSlicer`] (live
/// tail): identical members in, bit-identical window out.
fn build_window(
    index: usize,
    (start, end): (f64, f64),
    members: &[&TaskSlice],
    num_queues: usize,
    initial_state: StateId,
) -> Result<WindowedLog, TraceError> {
    let mut inputs = WindowInputs {
        index,
        start,
        end,
        log: LogInputs {
            num_queues,
            initial_state,
            tasks: Vec::with_capacity(members.len()),
        },
        mask: ObservedMask::unobserved(0),
        orig_tasks: Vec::with_capacity(members.len()),
        carry_tasks: 0,
    };
    for t in members {
        // Rebase onto the window clock. Unobserved times of a task pulled
        // in by a later observed time may precede the window start; clamp
        // them to the origin (monotone, so within-task ordering and the
        // transition equalities survive — and only free times can be
        // clamped, since every observed time is >= the observed entry).
        inputs.log.tasks.push(TaskInputs {
            entry: (t.entry - start).max(0.0),
            visits: t
                .visits
                .iter()
                .map(|&(s, q, a, d)| (s, q, (a - start).max(0.0), (d - start).max(0.0)))
                .collect(),
        });
        inputs.orig_tasks.push(t.orig_task);
        for &(a, d) in &t.flags {
            inputs.mask.push(a, d);
        }
    }
    inputs.build()
}

/// Slices a masked log into the schedule's windows.
///
/// Tasks are assigned by *observed* entry time under the half-open
/// `[start, end)` convention documented at the [module level](self);
/// windows that own no task are still emitted (with an empty log), so
/// the trajectory's window indices always line up with the schedule.
/// Errors if the trace has no tasks.
pub fn slice_windows(
    masked: &MaskedLog,
    schedule: &WindowSchedule,
) -> Result<Vec<WindowedLog>, TraceError> {
    let truth = masked.ground_truth();
    if truth.num_tasks() == 0 {
        return Err(TraceError::BadSchedule {
            what: "cannot window a trace with no tasks",
        });
    }
    let inputs = truth.inputs();
    let mask = masked.mask();
    let tasks: Vec<TaskSlice> = (inputs.tasks.into_iter().enumerate())
        .map(|(k, t)| {
            let orig_task = TaskId::from_index(k);
            TaskSlice {
                orig_task,
                entry: t.entry,
                visits: t.visits,
                flags: (truth.task_events(orig_task).iter())
                    .map(|&e| (mask.arrival_observed(e), mask.departure_observed(e)))
                    .collect(),
            }
        })
        .collect();
    let entries: Vec<f64> = tasks.iter().map(TaskSlice::observed_entry).collect();
    let horizon = entries.iter().copied().fold(0.0f64, f64::max);
    let spans = schedule.spans(horizon);
    // Bin tasks into their owning windows in one pass: a task entering at
    // `t` can only belong to windows whose index lies in
    // `[(t - width)/stride, t/stride]`, so the scan per task is
    // O(overlap factor), not O(windows). The index range is widened by
    // one on each side against float rounding; the exact half-open span
    // check decides membership. Task ids are visited in increasing
    // order, so each bin stays in task-id order.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (k, &entry) in entries.iter().enumerate() {
        let lo = ((entry - schedule.width()) / schedule.stride()).floor() as isize - 1;
        let hi = (entry / schedule.stride()).floor() as isize + 1;
        for i in lo.max(0)..=hi.min(spans.len() as isize - 1) {
            let (start, end) = spans[i as usize];
            if entry >= start && entry < end {
                members[i as usize].push(k);
            }
        }
    }
    let mut windows = Vec::new();
    for (index, (span, member_tasks)) in spans.into_iter().zip(members).enumerate() {
        let refs: Vec<&TaskSlice> = member_tasks.iter().map(|&k| &tasks[k]).collect();
        windows.push(build_window(
            index,
            span,
            &refs,
            inputs.num_queues,
            inputs.initial_state,
        )?);
    }
    Ok(windows)
}

/// Incremental window slicer for live-tail ingestion: feed it
/// [`TraceRecord`]s as they are appended to the trace and it emits each
/// [`WindowedLog`] as soon as the stream guarantees the window is
/// complete, retiring buffered tasks as their last owning window closes —
/// memory stays bounded by the tasks inside one `width + stride` span of
/// the entry axis, independent of trace length.
///
/// # Append-order contract
///
/// The live path requires what [`crate::record::write_jsonl`] (and any
/// entry-ordered logger) produces:
///
/// - each task's records are contiguous and start with its q0 entry
///   record,
/// - task indices are consecutive from 0,
/// - task entry times are nondecreasing.
///
/// Violations surface as [`TraceError::OutOfOrder`]. Under the contract,
/// once a task entering at time `t` appears, no future record can belong
/// to a window ending at or before `t` — which is exactly when those
/// windows close.
///
/// For the same records, [`LiveSlicer`] and [`slice_windows`] emit
/// bit-identical windows (shared build path; pinned by tests).
///
/// # Resume
///
/// A slicer's serde form is its own fields, times bit-exact, so a slicer
/// written into a checkpoint and read back emits exactly the windows the
/// original would have. Run [`LiveSlicer::check`] on one read from
/// untrusted bytes before pushing to it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveSlicer {
    schedule: WindowSchedule,
    num_queues: usize,
    initial_state: Option<StateId>,
    /// Completed tasks not yet retired, in task-id order.
    completed: Vec<TaskSlice>,
    /// Records of the in-progress task (contiguity makes it unique).
    pending: Vec<TraceRecord>,
    next_task_id: usize,
    /// Recorded entry of the most recent task (the close watermark).
    #[serde(with = "qni_model::bits")]
    last_entry: f64,
    /// Max observed entry over completed tasks (the finish horizon).
    #[serde(with = "qni_model::bits")]
    max_observed_entry: f64,
    next_window: usize,
    started: bool,
}

impl LiveSlicer {
    /// Creates a slicer. `num_queues` is the total queue count including
    /// the virtual `q0` (the live path cannot infer it from a prefix of
    /// the stream, and it must match the replay side for bit-identity).
    pub fn new(schedule: WindowSchedule, num_queues: usize) -> Result<Self, TraceError> {
        if num_queues < 2 {
            return Err(TraceError::BadSchedule {
                what: "live slicing needs at least q0 plus one service queue",
            });
        }
        Ok(LiveSlicer {
            schedule,
            num_queues,
            initial_state: None,
            completed: Vec::new(),
            pending: Vec::new(),
            next_task_id: 0,
            last_entry: 0.0,
            max_observed_entry: 0.0,
            next_window: 0,
            started: false,
        })
    }

    /// The latest observed entry among completed tasks, if any.
    pub fn watermark(&self) -> Option<f64> {
        if self.started {
            Some(self.max_observed_entry.max(self.last_entry))
        } else {
            None
        }
    }

    /// The end of the most recently emitted window, if any.
    pub fn last_closed_end(&self) -> Option<f64> {
        if self.next_window == 0 {
            None
        } else {
            Some(self.schedule.span(self.next_window - 1).1)
        }
    }

    /// Index of the next window to be emitted.
    pub fn next_window_index(&self) -> usize {
        self.next_window
    }

    /// Number of buffered (not yet retired) tasks — the slicer's memory
    /// footprint, bounded by the entry density of one `width + stride`
    /// span.
    pub fn buffered_tasks(&self) -> usize {
        self.completed.len() + usize::from(!self.pending.is_empty())
    }

    /// Number of schedule spans that have started (their start is at or
    /// before the watermark) but are not yet emitted — the "resident
    /// window" count, bounded by `width/stride + 1` regardless of trace
    /// length.
    pub fn open_spans(&self) -> usize {
        let Some(watermark) = self.watermark() else {
            return 0;
        };
        let mut n = 0usize;
        while self.schedule.span(self.next_window + n).0 <= watermark {
            n += 1;
        }
        n
    }

    /// Feeds one record; returns the windows it completed (usually none,
    /// sometimes several when an entry jumps multiple strides ahead).
    pub fn push(&mut self, rec: TraceRecord) -> Result<Vec<WindowedLog>, TraceError> {
        let idx = rec.event.task.index();
        let mut out = Vec::new();
        if rec.event.is_initial() {
            if idx != self.next_task_id {
                return Err(TraceError::OutOfOrder {
                    what: "task indices must be consecutive and each task must \
                           start with exactly one q0 record",
                });
            }
            let entry = rec.event.departure;
            if self.started && entry < self.last_entry {
                return Err(TraceError::OutOfOrder {
                    what: "task entry times must be nondecreasing",
                });
            }
            self.complete_pending()?;
            if self.initial_state.is_none() {
                self.initial_state = Some(rec.event.state);
            }
            self.pending.push(rec);
            self.next_task_id += 1;
            self.last_entry = entry;
            self.started = true;
            self.close_ready(&mut out)?;
        } else {
            if self.pending.is_empty() || idx + 1 != self.next_task_id {
                return Err(TraceError::OutOfOrder {
                    what: "each task's records must be contiguous and start \
                           with its q0 record",
                });
            }
            if rec.event.queue.index() >= self.num_queues {
                return Err(TraceError::OutOfOrder {
                    what: "record names a queue beyond the declared queue count",
                });
            }
            self.pending.push(rec);
        }
        Ok(out)
    }

    /// Flushes the stream's end: completes the in-progress task and emits
    /// every remaining window up to the horizon (the maximum observed
    /// entry), exactly matching [`slice_windows`] on the full record
    /// list. Errors if the stream carried no task at all. The slicer is
    /// left empty; further pushes start a fresh trace.
    pub fn finish(&mut self) -> Result<Vec<WindowedLog>, TraceError> {
        self.complete_pending()?;
        if !self.started {
            return Err(TraceError::BadSchedule {
                what: "cannot window a trace with no tasks",
            });
        }
        let horizon = self.max_observed_entry;
        let mut out = Vec::new();
        loop {
            let (start, _) = self.schedule.span(self.next_window);
            if self.next_window > 0 && start > horizon {
                break;
            }
            self.emit_window(&mut out)?;
        }
        self.completed.clear();
        self.started = false;
        self.next_task_id = 0;
        self.next_window = 0;
        self.last_entry = 0.0;
        self.max_observed_entry = 0.0;
        Ok(out)
    }

    /// Converts the pending record group into a completed [`TaskSlice`].
    fn complete_pending(&mut self) -> Result<(), TraceError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let initial = self.pending[0];
        if !initial.event.is_initial() {
            return Err(TraceError::OutOfOrder {
                what: "each task must start with its q0 record",
            });
        }
        if self.pending.len() < 2 {
            return Err(TraceError::OutOfOrder {
                what: "a task needs at least one queue visit after its q0 record",
            });
        }
        let visits: Vec<_> = self.pending[1..]
            .iter()
            .map(|r| {
                (
                    r.event.state,
                    r.event.queue,
                    r.event.arrival,
                    r.event.departure,
                )
            })
            .collect();
        let flags: Vec<_> = self
            .pending
            .iter()
            .map(|r| (r.arrival_observed, r.departure_observed))
            .collect();
        let task = TaskSlice {
            orig_task: initial.event.task,
            entry: initial.event.departure,
            visits,
            flags,
        };
        self.max_observed_entry = self.max_observed_entry.max(task.observed_entry());
        self.completed.push(task);
        self.pending.clear();
        Ok(())
    }

    /// Emits every window whose end is at or before the entry watermark:
    /// the append-order contract guarantees no future record can join
    /// them.
    fn close_ready(&mut self, out: &mut Vec<WindowedLog>) -> Result<(), TraceError> {
        loop {
            let (_, end) = self.schedule.span(self.next_window);
            if end > self.last_entry {
                return Ok(());
            }
            self.emit_window(out)?;
        }
    }

    /// Builds and emits the next window from the buffered tasks, then
    /// retires tasks no future window can own.
    fn emit_window(&mut self, out: &mut Vec<WindowedLog>) -> Result<(), TraceError> {
        let (start, end) = self.schedule.span(self.next_window);
        let members: Vec<&TaskSlice> = self
            .completed
            .iter()
            .filter(|t| (start..end).contains(&t.observed_entry()))
            .collect();
        let initial_state = self.initial_state.unwrap_or(StateId(0));
        out.push(build_window(
            self.next_window,
            (start, end),
            &members,
            self.num_queues,
            initial_state,
        )?);
        self.next_window += 1;
        // Retire: a task whose observed entry precedes every future
        // window's start can never be a member again.
        let (next_start, _) = self.schedule.span(self.next_window);
        self.completed.retain(|t| t.observed_entry() >= next_start);
        Ok(())
    }

    /// The original id and visit count of every buffered completed task,
    /// in task-id order. A window still to be emitted shares with the
    /// emitted ones only tasks among these: the in-progress task has
    /// joined no window yet, and a retired one joins none again.
    pub fn buffered_visits(&self) -> impl Iterator<Item = (TaskId, usize)> + '_ {
        self.completed.iter().map(|t| (t.orig_task, t.visits.len()))
    }

    /// Checks a slicer read back from a checkpoint before a resume
    /// continues it: the slicer must be for the session's `schedule` and
    /// `num_queues`, and every buffered task must have the shape
    /// [`LiveSlicer::push`] gives it — at least one visit, one flag per
    /// event (the visits plus the q0 entry), and every visit at a service
    /// queue of the session.
    pub fn check(&self, schedule: &WindowSchedule, num_queues: usize) -> Result<(), TraceError> {
        let bad = |what: String| {
            Err(TraceError::BadCheckpoint {
                part: "slicer".to_owned(),
                what,
            })
        };
        let same_schedule = self.schedule.width.to_bits() == schedule.width.to_bits()
            && self.schedule.stride.to_bits() == schedule.stride.to_bits();
        if !same_schedule || self.num_queues != num_queues {
            return bad(format!(
                "written for {} queues and windows ({}, {}), resumed with {num_queues} and ({}, {})",
                self.num_queues,
                self.schedule.width,
                self.schedule.stride,
                schedule.width,
                schedule.stride
            ));
        }
        for t in &self.completed {
            let events = t.visits.len() + 1;
            if t.visits.is_empty() || t.flags.len() != events {
                return bad(format!(
                    "buffered task {} has {} flags for {events} events",
                    t.orig_task,
                    t.flags.len()
                ));
            }
            let service = |q: QueueId| !q.is_initial() && q.index() < num_queues;
            let visits_ok =
                (t.visits.iter()).all(|v| service(v.1) && v.2.is_finite() && v.3.is_finite());
            if !(t.entry.is_finite() && visits_ok) {
                return bad(format!(
                    "buffered task {} has a non-finite time or a visit outside the service queues",
                    t.orig_task
                ));
            }
        }
        // Once a record has arrived, the in-progress task holds the
        // latest entry: the watermark the slicer closes windows at.
        let in_progress = match self.pending.first() {
            None => !self.started,
            Some(first) => {
                self.started && first.event.departure.to_bits() == self.last_entry.to_bits()
            }
        };
        let finite = |r: &TraceRecord| r.event.arrival.is_finite() && r.event.departure.is_finite();
        if !(in_progress && self.pending.iter().all(finite) && self.max_observed_entry.is_finite())
        {
            return bad(
                "in-progress task disagrees with the watermark, or a time is not finite".to_owned(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationScheme;
    use crate::record::to_records;
    use qni_model::log::EventLogBuilder;
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;

    fn masked(n: usize, seed: u64) -> MaskedLog {
        let bp = tandem(2.0, &[6.0, 8.0]).unwrap();
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, n).unwrap(), &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap()
    }

    #[test]
    fn schedule_validation() {
        assert!(WindowSchedule::new(0.0, 1.0).is_err());
        assert!(WindowSchedule::new(-1.0, 1.0).is_err());
        assert!(WindowSchedule::new(1.0, 0.0).is_err());
        assert!(WindowSchedule::new(f64::NAN, 1.0).is_err());
        assert!(WindowSchedule::new(1.0, f64::INFINITY).is_err());
        let s = WindowSchedule::new(4.0, 2.0).unwrap();
        assert_eq!(s.width(), 4.0);
        assert_eq!(s.stride(), 2.0);
        // A schedule read back is validated like a constructed one.
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<WindowSchedule>(&json).unwrap(), s);
        let zero_stride = format!("{{\"width\":{},\"stride\":0}}", 4f64.to_bits());
        assert!(serde_json::from_str::<WindowSchedule>(&zero_stride).is_err());
    }

    #[test]
    fn spans_cover_horizon() {
        let s = WindowSchedule::new(4.0, 2.0).unwrap();
        let spans = s.spans(5.0);
        assert_eq!(spans, vec![(0.0, 4.0), (2.0, 6.0), (4.0, 8.0)]);
        // A start exactly on the horizon is still emitted (covers the
        // last entry); the next one is not.
        let spans = s.spans(4.0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2], (4.0, 8.0));
    }

    #[test]
    fn every_task_lands_in_some_window_when_overlapping() {
        let ml = masked(120, 1);
        let s = WindowSchedule::new(10.0, 5.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        let total_owned: usize = windows
            .iter()
            .step_by(2) // Non-overlapping subset: starts 0, 10, 20, …
            .map(WindowedLog::num_tasks)
            .sum();
        assert_eq!(total_owned, ml.ground_truth().num_tasks());
    }

    #[test]
    fn windows_are_rebased_and_self_contained() {
        let ml = masked(100, 2);
        let s = WindowSchedule::new(12.0, 6.0).unwrap();
        for w in slice_windows(&ml, &s).unwrap() {
            let log = w.masked().ground_truth();
            assert_eq!(log.num_tasks(), w.num_tasks());
            qni_model::constraints::validate(log).unwrap();
            for k in 0..log.num_tasks() {
                let k = TaskId::from_index(k);
                let entry = log.task_entry(k);
                // Local clock: entries lie in [0, width).
                assert!(
                    (0.0..s.width()).contains(&entry),
                    "window {} entry {entry} outside [0, {})",
                    w.index,
                    s.width()
                );
                // The original task's entry is the rebased one (exact for
                // task-sampled masks, where every member's entry is at or
                // after the window start).
                let orig = w.original_task(k);
                let orig_entry = ml.ground_truth().task_entry(orig);
                assert!((orig_entry - (w.start + entry)).abs() < 1e-12);
            }
        }
    }

    /// Every event of a window's task is the same-position event of its
    /// original task: same queue, same mask bits, times rebased.
    #[test]
    fn mask_bits_and_times_carry_over() {
        let ml = masked(80, 3);
        let s = WindowSchedule::new(15.0, 15.0).unwrap();
        let truth = ml.ground_truth();
        for w in slice_windows(&ml, &s).unwrap() {
            let log = w.masked().ground_truth();
            for k in 0..w.num_tasks() {
                let k = TaskId::from_index(k);
                let orig = truth.task_events(w.original_task(k));
                assert_eq!(log.task_events(k).len(), orig.len());
                for (&we, &oe) in log.task_events(k).iter().zip(orig) {
                    assert_eq!(
                        w.masked().mask().arrival_observed(we),
                        ml.mask().arrival_observed(oe),
                        "arrival bit of {oe} changed"
                    );
                    assert_eq!(
                        w.masked().mask().departure_observed(we),
                        ml.mask().departure_observed(oe),
                    );
                    assert_eq!(log.queue_of(we), truth.queue_of(oe));
                    if !log.is_initial_event(we) {
                        let shifted = truth.arrival(oe) - w.start;
                        assert!((log.arrival(we) - shifted).abs() < 1e-12);
                    }
                    let shifted = truth.departure(oe) - w.start;
                    assert!((log.departure(we) - shifted).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn boundary_entry_goes_to_the_owning_window() {
        // Entries exactly at 0.0, 5.0 (a boundary), and 7.5.
        let mut b = EventLogBuilder::new(2, StateId(0));
        for &t in &[0.0, 5.0, 7.5] {
            b.add_task(t, &[(StateId(1), QueueId(1), t, t + 0.5)])
                .unwrap();
        }
        let log = b.build().unwrap();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::fully_observed(n)).unwrap();
        let s = WindowSchedule::new(5.0, 5.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        // [0,5): the t=0 task only. [5,10): the boundary task and 7.5.
        assert_eq!(windows[0].num_tasks(), 1);
        assert_eq!(windows[1].num_tasks(), 2);
        assert_eq!(windows[1].original_task(TaskId(0)), TaskId(1));
    }

    #[test]
    fn empty_windows_are_emitted_and_empty_traces_rejected() {
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(0.5, &[(StateId(1), QueueId(1), 0.5, 1.0)])
            .unwrap();
        b.add_task(9.5, &[(StateId(1), QueueId(1), 9.5, 10.0)])
            .unwrap();
        let log = b.build().unwrap();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::fully_observed(n)).unwrap();
        let s = WindowSchedule::new(3.0, 3.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        // Starts 0, 3, 6, 9: the middle two own nothing but still exist.
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[1].num_tasks(), 0);
        assert_eq!(windows[2].num_tasks(), 0);
        assert_eq!(windows[1].num_events(), 0);
        assert_eq!(windows[3].num_tasks(), 1);

        let empty = EventLogBuilder::new(2, StateId(0)).build().unwrap();
        let ml = MaskedLog::new(empty, ObservedMask::unobserved(0)).unwrap();
        assert!(slice_windows(&ml, &s).is_err());
    }

    #[test]
    fn straddling_tasks_keep_their_late_events() {
        // One task entering at 4.9 whose service runs to 12.0 — far past
        // the [0, 5) window end.
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(4.9, &[(StateId(1), QueueId(1), 4.9, 12.0)])
            .unwrap();
        let log = b.build().unwrap();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::fully_observed(n)).unwrap();
        let s = WindowSchedule::new(5.0, 5.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        assert_eq!(windows[0].num_tasks(), 1);
        let wlog = windows[0].masked().ground_truth();
        let last = wlog.task_events(TaskId(0))[1];
        // Departure pinned past the boundary, on the window clock.
        assert!((wlog.departure(last) - 12.0).abs() < 1e-12);
    }

    /// A task whose entry is unobserved is assigned by its earliest
    /// *measured* time, and its unobserved prefix is clamped to the
    /// window origin rather than going negative.
    #[test]
    fn membership_uses_observed_entry_for_partially_observed_tasks() {
        // Task enters at 4.5 (unobserved) but its only measured time is
        // the second visit's arrival at 6.2 — window [5, 10) owns it.
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(
            4.5,
            &[
                (StateId(1), QueueId(1), 4.5, 6.2),
                (StateId(2), QueueId(2), 6.2, 7.0),
            ],
        )
        .unwrap();
        let log = b.build().unwrap();
        let mut mask = ObservedMask::unobserved(log.num_events());
        let second = log.task_events(TaskId(0))[2];
        mask.observe_arrival(second);
        let ml = MaskedLog::new(log, mask).unwrap();
        let s = WindowSchedule::new(5.0, 5.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        assert_eq!(windows[0].num_tasks(), 0, "entry window must not own it");
        assert_eq!(windows[1].num_tasks(), 1);
        let wlog = windows[1].masked().ground_truth();
        qni_model::constraints::validate(wlog).unwrap();
        // The unobserved prefix (entry 4.5, first arrival 4.5) clamps to
        // the window origin; the observed arrival lands at 6.2 - 5.
        let evs = wlog.task_events(TaskId(0));
        assert_eq!(wlog.task_entry(TaskId(0)), 0.0);
        assert!((wlog.arrival(evs[2]) - 1.2).abs() < 1e-12);
        // Fully unobserved tasks still fall back to the recorded entry.
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(4.5, &[(StateId(1), QueueId(1), 4.5, 6.2)])
            .unwrap();
        let log = b.build().unwrap();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::unobserved(n)).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        assert_eq!(windows[0].num_tasks(), 1);
    }

    /// The equivalence pin: feeding a full record stream through
    /// [`LiveSlicer`] (push + finish) yields bit-identical windows to
    /// [`slice_windows`] on the same records — times, masks, original
    /// task ids, and window count all agree. Exercised under
    /// both task- and event-level sampling.
    #[test]
    fn live_slicer_matches_replay_slicing_bit_for_bit() {
        for (seed, event_sampling) in [(1u64, false), (2, true), (3, false)] {
            let bp = tandem(2.0, &[6.0, 8.0]).unwrap();
            let mut rng = rng_from_seed(seed);
            let truth = Simulator::new(&bp.network)
                .run(&Workload::poisson_n(2.0, 80).unwrap(), &mut rng)
                .unwrap();
            let scheme = if event_sampling {
                ObservationScheme::event_sampling(0.4).unwrap()
            } else {
                ObservationScheme::task_sampling(0.5).unwrap()
            };
            let ml = scheme.apply(truth, &mut rng).unwrap();
            let records = to_records(ml.ground_truth(), ml.mask());
            let schedule = WindowSchedule::new(8.0, 4.0).unwrap();
            let replay = slice_windows(&ml, &schedule).unwrap();

            let mut live = LiveSlicer::new(schedule, ml.ground_truth().num_queues()).unwrap();
            let mut streamed = Vec::new();
            for rec in &records {
                streamed.extend(live.push(*rec).unwrap());
            }
            let mid_stream = streamed.len();
            streamed.extend(live.finish().unwrap());
            assert!(mid_stream > 0, "no window closed before the end");
            assert_eq!(streamed.len(), replay.len(), "window count differs");
            for (a, b) in replay.iter().zip(&streamed) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.start.to_bits(), b.start.to_bits());
                assert_eq!(a.end.to_bits(), b.end.to_bits());
                assert_eq!(a.num_tasks(), b.num_tasks());
                assert_eq!(a.num_events(), b.num_events());
                let (la, lb) = (a.masked().ground_truth(), b.masked().ground_truth());
                assert_eq!(la.num_events(), lb.num_events());
                for e in la.event_ids() {
                    assert_eq!(la.event(e), lb.event(e), "window {} event {e}", a.index);
                    assert_eq!(
                        a.masked().mask().arrival_observed(e),
                        b.masked().mask().arrival_observed(e)
                    );
                    assert_eq!(
                        a.masked().mask().departure_observed(e),
                        b.masked().mask().departure_observed(e)
                    );
                }
                for k in 0..a.num_tasks() {
                    let k = TaskId::from_index(k);
                    assert_eq!(a.original_task(k), b.original_task(k));
                }
            }
        }
    }

    #[test]
    fn live_slicer_bounded_memory_and_lag() {
        let ml = masked(200, 9);
        let records = to_records(ml.ground_truth(), ml.mask());
        let schedule = WindowSchedule::new(10.0, 5.0).unwrap();
        let mut live = LiveSlicer::new(schedule, ml.ground_truth().num_queues()).unwrap();
        let mut max_buffered = 0usize;
        let mut max_open = 0usize;
        let mut emitted = 0usize;
        for rec in &records {
            emitted += live.push(*rec).unwrap().len();
            max_buffered = max_buffered.max(live.buffered_tasks());
            max_open = max_open.max(live.open_spans());
            if let (Some(w), Some(closed)) = (live.watermark(), live.last_closed_end()) {
                // Lag never exceeds one stride past the last closed end
                // (windows close as soon as the watermark passes them).
                assert!(w - closed < schedule.width() + schedule.stride());
            }
        }
        emitted += live.finish().unwrap().len();
        assert!(emitted >= 10);
        // ~200 tasks over the horizon, but only one (width + stride)
        // span's worth is ever buffered.
        assert!(
            max_buffered < 60,
            "buffered {max_buffered} of {} tasks",
            ml.ground_truth().num_tasks()
        );
        // Open spans bounded by width/stride + 1 = 3.
        assert!(max_open <= 3, "open spans peaked at {max_open}");
    }

    #[test]
    fn live_slicer_rejects_out_of_order_streams() {
        let schedule = WindowSchedule::new(5.0, 5.0).unwrap();
        let rec = |task: usize, queue: usize, a: f64, d: f64| TraceRecord {
            event: qni_model::event::Event {
                task: TaskId::from_index(task),
                state: StateId(if queue == 0 { 0 } else { 1 }),
                queue: QueueId::from_index(queue),
                arrival: a,
                departure: d,
            },
            arrival_observed: true,
            departure_observed: true,
        };
        // A visit before any q0 record.
        let mut s = LiveSlicer::new(schedule, 2).unwrap();
        assert!(matches!(
            s.push(rec(0, 1, 1.0, 2.0)),
            Err(TraceError::OutOfOrder { .. })
        ));
        // Task indices must be consecutive.
        let mut s = LiveSlicer::new(schedule, 2).unwrap();
        s.push(rec(0, 0, 0.0, 1.0)).unwrap();
        s.push(rec(0, 1, 1.0, 2.0)).unwrap();
        assert!(matches!(
            s.push(rec(2, 0, 0.0, 3.0)),
            Err(TraceError::OutOfOrder { .. })
        ));
        // Entries must be nondecreasing.
        let mut s = LiveSlicer::new(schedule, 2).unwrap();
        s.push(rec(0, 0, 0.0, 5.0)).unwrap();
        s.push(rec(0, 1, 5.0, 6.0)).unwrap();
        assert!(matches!(
            s.push(rec(1, 0, 0.0, 3.0)),
            Err(TraceError::OutOfOrder { .. })
        ));
        // A task with no visits is rejected when the next task begins.
        let mut s = LiveSlicer::new(schedule, 2).unwrap();
        s.push(rec(0, 0, 0.0, 1.0)).unwrap();
        assert!(matches!(
            s.push(rec(1, 0, 0.0, 2.0)),
            Err(TraceError::OutOfOrder { .. })
        ));
        // Finishing an empty stream is an error (mirrors slice_windows).
        let mut s = LiveSlicer::new(schedule, 2).unwrap();
        assert!(s.finish().is_err());
    }

    /// The carry from `prev`, fitted to `prev_final`, into `cur`.
    fn carry_from(prev: &WindowedLog, prev_final: &LogInputs, cur: &WindowedLog) -> OccupancyCarry {
        occupancy_carry(prev.start, &prev.orig_tasks, prev_final, cur)
    }

    /// Occupancy carry: residual busy time from non-shared tasks is
    /// measured on the absolute clock, injected as a pinned carry task,
    /// clamped by pinned departures, and skipped for queues with no
    /// in-window events.
    #[test]
    fn occupancy_carry_injects_clamped_pinned_ghosts() {
        let s = WindowSchedule::new(5.0, 5.0).unwrap();
        // Task 0 enters at 1.0, occupies q1 until 7.5 (straddles the
        // [5,10) boundary). Task 1 enters at 6.0 inside window 1.
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 7.5)])
            .unwrap();
        b.add_task(6.0, &[(StateId(1), QueueId(1), 6.0, 9.0)])
            .unwrap();
        let log = b.build().unwrap();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::fully_observed(n)).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        assert_eq!(windows.len(), 2);
        let prev_final = windows[0].masked().ground_truth().inputs();
        let carry = carry_from(&windows[0], &prev_final, &windows[1]);
        // q1 busy until 7.5 absolute.
        assert!((carry.busy_until(QueueId(1)) - 7.5).abs() < 1e-12);
        assert_eq!(carry.busy_until(QueueId(2)), f64::NEG_INFINITY);
        let with = windows[1].with_occupancy(&carry).unwrap();
        assert_eq!(with.carry_tasks(), 1);
        assert_eq!(with.carry_events(), 2);
        assert_eq!(with.num_tasks(), 1, "real counts unchanged");
        let wlog = with.masked().ground_truth();
        assert_eq!(wlog.num_tasks(), 2);
        qni_model::constraints::validate(wlog).unwrap();
        // The ghost occupies q1 on the local clock for 7.5 - 5.0 = 2.5,
        // fully pinned.
        let ghost = TaskId::from_index(1);
        let gevs = wlog.task_events(ghost);
        assert_eq!(wlog.task_entry(ghost), 0.0);
        assert_eq!(wlog.queue_of(gevs[1]), QueueId(1));
        assert!((wlog.departure(gevs[1]) - 2.5).abs() < 1e-12);
        assert!(with.masked().mask().arrival_observed(gevs[1]));
        assert!(with.masked().mask().departure_observed(gevs[1]));
        assert!(with.masked().free_arrivals().len() <= windows[1].masked().free_arrivals().len());
        // The real task keeps its local id, events and original task.
        let before = windows[1].masked().ground_truth();
        assert_eq!(with.num_events(), windows[1].num_events());
        assert_eq!(wlog.task_events(TaskId(0)), before.task_events(TaskId(0)));
        assert_eq!(
            with.original_task(TaskId(0)),
            windows[1].original_task(TaskId(0))
        );
        // The real task's first event now queues behind the ghost.
        let real = wlog.task_events(TaskId(0))[1];
        assert!((wlog.begin_service(real) - 2.5).abs() < 1e-12);

        // Clamping: if the real task's departure were pinned at 1.5
        // (before the carried 2.5), the ghost must shrink to it.
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 7.5)])
            .unwrap();
        b.add_task(6.0, &[(StateId(1), QueueId(1), 6.0, 6.5)])
            .unwrap();
        let log = b.build().unwrap();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::fully_observed(n)).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        let prev_final = windows[0].masked().ground_truth().inputs();
        let carry = carry_from(&windows[0], &prev_final, &windows[1]);
        let with = windows[1].with_occupancy(&carry).unwrap();
        let wlog = with.masked().ground_truth();
        qni_model::constraints::validate(wlog).unwrap();
        let gevs = wlog.task_events(TaskId::from_index(1));
        assert!((wlog.departure(gevs[1]) - 1.5).abs() < 1e-12);

        // No in-window events at the carried queue -> no ghost.
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 7.5)])
            .unwrap();
        b.add_task(6.0, &[(StateId(2), QueueId(2), 6.0, 9.0)])
            .unwrap();
        let log = b.build().unwrap();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::fully_observed(n)).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        let prev_final = windows[0].masked().ground_truth().inputs();
        let carry = carry_from(&windows[0], &prev_final, &windows[1]);
        let with = windows[1].with_occupancy(&carry).unwrap();
        assert_eq!(with.carry_tasks(), 0);
    }

    /// Shared tasks do not feed the carry (their constraints are native
    /// to the next window), and a previous window's own carry tasks do.
    #[test]
    fn occupancy_carry_skips_shared_tasks_and_chains_ghosts() {
        let s = WindowSchedule::new(10.0, 5.0).unwrap();
        let mut b = EventLogBuilder::new(2, StateId(0));
        // Enters at 6.0 (shared by [0,10) and [5,15)), busy until 12.0.
        b.add_task(6.0, &[(StateId(1), QueueId(1), 6.0, 12.0)])
            .unwrap();
        b.add_task(11.0, &[(StateId(1), QueueId(1), 12.0, 13.0)])
            .unwrap();
        let log = b.build().unwrap();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::fully_observed(n)).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        let prev_final = windows[0].masked().ground_truth().inputs();
        let carry = carry_from(&windows[0], &prev_final, &windows[1]);
        // The only task is shared -> nothing carried.
        assert_eq!(carry.busy_until(QueueId(1)), f64::NEG_INFINITY);

        // A window's own ghosts count as carried work for the next one.
        let ghosted = windows[1].with_occupancy(&OccupancyCarry {
            busy_until: vec![f64::NEG_INFINITY, 7.0],
        });
        let ghosted = ghosted.unwrap();
        assert_eq!(ghosted.carry_tasks(), 1);
        let final_log = ghosted.masked().ground_truth().inputs();
        let carry2 = carry_from(&ghosted, &final_log, &windows[2]);
        // Ghost departs at local 2.0 => absolute 7.0; the shared task 0
        // is not in window 2 (entry 6.0 < 10.0): its departure 12.0
        // dominates.
        assert!((carry2.busy_until(QueueId(1)) - 12.0).abs() < 1e-12);
    }

    /// A window's bit content: span, log times (as `to_bits`), mask bits,
    /// original task ids and carry count.
    fn bits(w: &WindowedLog) -> String {
        let i = w.inputs();
        let log = serde_json::to_string(&i.log).unwrap();
        let (start, end) = (i.start.to_bits(), i.end.to_bits());
        format!(
            "{} {start} {end} {log} {:?} {:?} {}",
            i.index, i.mask, i.orig_tasks, i.carry_tasks
        )
    }

    /// A window's [`WindowInputs`] rebuild it without perturbing a bit —
    /// including a window with injected occupancy-carry ghosts, which
    /// [`WindowedLog::with_occupancy`] builds from the inputs of the
    /// window it extends.
    #[test]
    fn window_state_round_trips_bit_for_bit() {
        let ml = masked(80, 5);
        let s = WindowSchedule::new(10.0, 5.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        assert!(windows.len() >= 3);
        let ghosted = windows
            .windows(2)
            .map(|pair| {
                let prev_final = pair[0].masked().ground_truth().inputs();
                let carry = carry_from(&pair[0], &prev_final, &pair[1]);
                pair[1].with_occupancy(&carry).unwrap()
            })
            .find(|w| w.carry_tasks() > 0)
            .expect("fixture must carry occupancy into some window");
        for w in windows.iter().chain(std::iter::once(&ghosted)) {
            let rebuilt = w.inputs().build().unwrap();
            assert_eq!(bits(&rebuilt), bits(w), "window {}", w.index);
            let (a, b) = (rebuilt.masked().ground_truth(), w.masked().ground_truth());
            assert!(a.event_ids().all(|e| a.event(e) == b.event(e)));
        }
    }

    /// Inputs whose mask does not cover the log, or with a task that has
    /// no visit, are rejected with a typed error instead of a panic.
    #[test]
    fn window_state_rejects_inconsistent_lengths() {
        let ml = masked(80, 5);
        let s = WindowSchedule::new(10.0, 5.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        let inputs = windows
            .windows(2)
            .map(|pair| {
                let prev_final = pair[0].masked().ground_truth().inputs();
                let carry = carry_from(&pair[0], &prev_final, &pair[1]);
                pair[1].with_occupancy(&carry).unwrap().inputs()
            })
            .find(|w| w.carry_tasks > 0)
            .expect("fixture must carry occupancy into some window");
        let edited = |edit: fn(&mut WindowInputs)| {
            let mut w = inputs.clone();
            edit(&mut w);
            w.build().unwrap_err()
        };
        let err = edited(|w| w.mask.push(true, true));
        assert!(
            matches!(err, TraceError::ShapeMismatch { expected, actual } if actual == expected + 1),
            "{err}"
        );
        let err = edited(|w| w.log.tasks[0].visits.clear());
        assert!(
            matches!(err, TraceError::Model(qni_model::ModelError::EmptyTask(_))),
            "{err}"
        );
    }

    /// Writes a slicer as JSON and reads it back; the read slicer writes
    /// the same bytes.
    fn round_trip(slicer: &LiveSlicer) -> LiveSlicer {
        let json = serde_json::to_string(slicer).unwrap();
        let back: LiveSlicer = serde_json::from_str(&json).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            json,
            "JSON round-trip"
        );
        back
    }

    /// A buffered task whose flags disagree in length with its visits, or
    /// that visits a queue the session does not have, is
    /// rejected by the resume check instead of resuming on a different
    /// trace; so is a slicer written for another schedule or queue count.
    #[test]
    fn slicer_restore_rejects_inconsistent_task_lengths() {
        let ml = masked(60, 6);
        let records = to_records(ml.ground_truth(), ml.mask());
        let schedule = WindowSchedule::new(8.0, 4.0).unwrap();
        let nq = ml.ground_truth().num_queues();
        let mut slicer = LiveSlicer::new(schedule, nq).unwrap();
        for rec in &records[..records.len() / 2] {
            slicer.push(*rec).unwrap();
        }
        let slicer = round_trip(&slicer);
        assert!(!slicer.completed.is_empty(), "fixture must buffer tasks");
        slicer.check(&schedule, nq).unwrap();
        let mut extra_flag = slicer.clone();
        extra_flag.completed[0].flags.push((true, true));
        let mut far_queue = slicer.clone();
        far_queue.completed[0].visits[0].1 = QueueId::from_index(1 << 30);
        let mut nan_time = slicer.clone();
        nan_time.completed[0].visits[0].3 = f64::NAN;
        for bad in [extra_flag, far_queue, nan_time] {
            let err = bad.check(&schedule, nq).unwrap_err();
            assert!(
                matches!(&err, TraceError::BadCheckpoint { part, .. } if part == "slicer")
                    && err.to_string().contains("buffered task"),
                "{err}"
            );
        }
        // A watermark past the in-progress task would close windows
        // without end.
        let mut ahead = slicer.clone();
        ahead.last_entry = f64::INFINITY;
        let other = WindowSchedule::new(8.0, 2.0).unwrap();
        let errs = [
            ahead.check(&schedule, nq),
            slicer.check(&other, nq),
            slicer.check(&schedule, nq + 1),
        ];
        for err in errs {
            assert!(
                matches!(err, Err(TraceError::BadCheckpoint { .. })),
                "{err:?}"
            );
        }
    }

    /// Writing a `LiveSlicer` mid-stream, reading the JSON back, and
    /// continuing yields a slicer whose remaining emissions are
    /// bit-identical to the uninterrupted one's — at every possible cut
    /// point of the record stream.
    #[test]
    fn slicer_snapshot_restore_resumes_bit_identically() {
        let ml = masked(60, 6);
        let records = to_records(ml.ground_truth(), ml.mask());
        let schedule = WindowSchedule::new(8.0, 4.0).unwrap();
        let nq = ml.ground_truth().num_queues();

        // Reference: uninterrupted run.
        let mut reference = LiveSlicer::new(schedule, nq).unwrap();
        let mut ref_windows = Vec::new();
        for rec in &records {
            ref_windows.extend(reference.push(*rec).unwrap());
        }
        ref_windows.extend(reference.finish().unwrap());

        for cut in 0..=records.len() {
            let mut first = LiveSlicer::new(schedule, nq).unwrap();
            let mut out = Vec::new();
            for rec in &records[..cut] {
                out.extend(first.push(*rec).unwrap());
            }
            let mut resumed = round_trip(&first);
            resumed.check(&schedule, nq).unwrap();
            for rec in &records[cut..] {
                out.extend(resumed.push(*rec).unwrap());
            }
            out.extend(resumed.finish().unwrap());
            assert_eq!(out.len(), ref_windows.len(), "cut {cut}: window count");
            for (w, want) in out.iter().zip(&ref_windows) {
                assert_eq!(bits(w), bits(want), "cut {cut}: window {}", w.index);
            }
        }
    }
}
