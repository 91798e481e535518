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
//! mask, and are excluded from the original-trace mappings; q0's rate
//! estimate must be rescaled by `real/(real+carry)` tasks (the streaming
//! engine does this), since each carry task adds one q0 event with a
//! zero interarrival gap.

use crate::error::TraceError;
use crate::mask::{MaskedLog, ObservedMask};
use crate::record::TraceRecord;
use qni_model::event::Event;
use qni_model::ids::{EventId, QueueId, StateId, TaskId};
use qni_model::log::{EventLog, EventLogBuilder};
use serde::{Deserialize, Serialize};

/// A `(width, stride)` sliding-window schedule.
///
/// Window `k` spans `[k·stride, k·stride + width)`. `stride < width`
/// yields overlapping windows (the usual streaming configuration, and
/// what gives warm starts shared tasks to reuse); `stride == width`
/// tiles the axis; `stride > width` subsamples it (tasks entering
/// between windows belong to none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSchedule {
    width: f64,
    stride: f64,
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
#[derive(Debug, Clone)]
struct TaskSlice {
    orig_task: TaskId,
    /// Recorded system entry (absolute clock).
    entry: f64,
    /// Membership time: observed entry, first measured time, or the
    /// recorded entry as fallback (see the module docs).
    observed_entry: f64,
    /// Queue visits after the q0 entry, on the absolute clock.
    visits: Vec<(StateId, QueueId, f64, f64)>,
    /// `(arrival_observed, departure_observed)` per event, including the
    /// q0 initial event at index 0.
    flags: Vec<(bool, bool)>,
    /// Original-trace event ids, including the initial event.
    orig_events: Vec<EventId>,
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
    if flags[0].1 || flags.get(1).is_some_and(|f| f.0) {
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
/// window's local clock, plus the mapping back to the original trace.
#[derive(Debug, Clone)]
pub struct WindowedLog {
    /// Position of the window in the schedule (0-based).
    pub index: usize,
    /// Window start on the original trace's clock (inclusive).
    pub start: f64,
    /// Window end on the original trace's clock (exclusive).
    pub end: f64,
    masked: MaskedLog,
    orig_events: Vec<EventId>,
    orig_tasks: Vec<TaskId>,
    carry_tasks: usize,
    carry_events: usize,
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
        self.orig_events.len()
    }

    /// Number of occupancy carry tasks appended by
    /// [`WindowedLog::with_occupancy`] (0 for a freshly sliced window).
    pub fn carry_tasks(&self) -> usize {
        self.carry_tasks
    }

    /// Number of events belonging to carry tasks (two per carry task: the
    /// q0 entry and the occupied queue's visit).
    pub fn carry_events(&self) -> usize {
        self.carry_events
    }

    /// Maps a window-local event id back to the original trace's event.
    /// Carry events (local ids `>= num_events()`) have no original event.
    pub fn original_event(&self, e: EventId) -> EventId {
        self.orig_events[e.index()]
    }

    /// Maps a window-local task id back to the original trace's task.
    /// Carry tasks (local ids `>= num_tasks()`) have no original task.
    pub fn original_task(&self, k: TaskId) -> TaskId {
        self.orig_tasks[k.index()]
    }

    /// Window-local event ids paired with their original-trace ids, in
    /// window event order (real events only — carry events are excluded
    /// by construction because they follow all real events).
    pub fn event_mapping(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.orig_events
            .iter()
            .enumerate()
            .map(|(i, &orig)| (EventId::from_index(i), orig))
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
        let initial_state = initial_state_of(log);
        let mut builder = EventLogBuilder::new(log.num_queues(), initial_state);
        let mut flags: Vec<(bool, bool)> = Vec::with_capacity(log.num_events() + 2 * ghosts.len());
        for k in 0..log.num_tasks() {
            let k = TaskId::from_index(k);
            let events = log.task_events(k);
            let visits: Vec<_> = events[1..]
                .iter()
                .map(|&e| {
                    (
                        log.state_of(e),
                        log.queue_of(e),
                        log.arrival(e),
                        log.departure(e),
                    )
                })
                .collect();
            builder.add_task(log.task_entry(k), &visits)?;
            for &e in events {
                flags.push((
                    self.masked.mask().arrival_observed(e),
                    self.masked.mask().departure_observed(e),
                ));
            }
        }
        for &(state, q, residual) in &ghosts {
            builder.add_task(0.0, &[(state, q, 0.0, residual)])?;
            // Carry tasks are fully pinned: the sampler must treat the
            // carried occupancy as data, not as a free variable.
            flags.push((true, true));
            flags.push((true, true));
        }
        Ok(WindowedLog {
            index: self.index,
            start: self.start,
            end: self.end,
            masked: mask_log(builder.build()?, &flags)?,
            orig_events: self.orig_events.clone(),
            orig_tasks: self.orig_tasks.clone(),
            carry_tasks: ghosts.len(),
            carry_events: 2 * ghosts.len(),
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
/// `prev_final` must have the shape of `prev`'s log (it is the final
/// Gibbs state of a fit on that window).
pub fn occupancy_carry(
    prev: &WindowedLog,
    prev_final: &EventLog,
    cur: &WindowedLog,
) -> OccupancyCarry {
    let mut busy_until = vec![f64::NEG_INFINITY; prev_final.num_queues()];
    for k in 0..prev_final.num_tasks() {
        if let Some(&orig) = prev.orig_tasks.get(k) {
            // Real task: skip if `cur` owns it — its constraints are
            // native there (orig_tasks is in increasing task-id order).
            if cur.orig_tasks.binary_search(&orig).is_ok() {
                continue;
            }
        }
        for &e in prev_final.task_events(TaskId::from_index(k)) {
            if prev_final.is_initial_event(e) {
                continue;
            }
            let q = prev_final.queue_of(e).index();
            let depart = prev_final.departure(e) + prev.start;
            if depart > busy_until[q] {
                busy_until[q] = depart;
            }
        }
    }
    OccupancyCarry { busy_until }
}

/// The initial FSM state used for synthesized q0 events: the state of
/// the first event of task 0, falling back to `StateId(0)` for an empty
/// log (matching [`crate::record::from_records`]).
fn initial_state_of(log: &EventLog) -> StateId {
    if log.num_tasks() == 0 {
        StateId(0)
    } else {
        log.state_of(log.task_events(TaskId::from_index(0))[0])
    }
}

/// Builds one window from its member tasks. This is the single build
/// path shared by [`slice_windows`] (replay) and [`LiveSlicer`] (live
/// tail): identical members in, bit-identical window out.
fn build_window(
    index: usize,
    start: f64,
    end: f64,
    members: &[&TaskSlice],
    num_queues: usize,
    initial_state: StateId,
) -> Result<WindowedLog, TraceError> {
    let mut builder = EventLogBuilder::new(num_queues, initial_state);
    let mut orig_events = Vec::new();
    let mut orig_tasks = Vec::new();
    let mut flags: Vec<(bool, bool)> = Vec::new();
    for t in members {
        // Rebase onto the window clock. Unobserved times of a task pulled
        // in by a later observed time may precede the window start; clamp
        // them to the origin (monotone, so within-task ordering and the
        // transition equalities survive — and only free times can be
        // clamped, since every observed time is >= the observed entry).
        let visits: Vec<_> = t
            .visits
            .iter()
            .map(|&(s, q, a, d)| (s, q, (a - start).max(0.0), (d - start).max(0.0)))
            .collect();
        builder.add_task((t.entry - start).max(0.0), &visits)?;
        orig_tasks.push(t.orig_task);
        orig_events.extend_from_slice(&t.orig_events);
        flags.extend_from_slice(&t.flags);
    }
    Ok(WindowedLog {
        index,
        start,
        end,
        masked: mask_log(builder.build()?, &flags)?,
        orig_events,
        orig_tasks,
        carry_tasks: 0,
        carry_events: 0,
    })
}

/// Pairs a built window log with its per-event observation flags, the
/// last step of every window construction. A flag list whose length is
/// not the log's event count is a shape error.
fn mask_log(log: EventLog, flags: &[(bool, bool)]) -> Result<MaskedLog, TraceError> {
    if flags.len() != log.num_events() {
        return Err(TraceError::ShapeMismatch {
            expected: log.num_events(),
            actual: flags.len(),
        });
    }
    let mut mask = ObservedMask::unobserved(log.num_events());
    for (i, &(a, d)) in flags.iter().enumerate() {
        let e = EventId::from_index(i);
        if a {
            mask.observe_arrival(e);
        }
        if d {
            mask.observe_departure(e);
        }
    }
    MaskedLog::new(log, mask)
}

/// The error for resume state whose lengths disagree with the ones the
/// slicer's constructors produce, i.e. state that was edited or corrupted
/// after [`LiveSlicer::snapshot`] or [`WindowedLog::to_state`] wrote it.
fn inconsistent_state(what: std::fmt::Arguments<'_>) -> TraceError {
    TraceError::Serde(serde::de::Error::custom(what))
}

/// Extracts every task of a masked log into the slicer's intermediate
/// form, in task-id order.
fn task_slices(masked: &MaskedLog) -> Vec<TaskSlice> {
    let truth = masked.ground_truth();
    let mut out = Vec::with_capacity(truth.num_tasks());
    for k in 0..truth.num_tasks() {
        let k = TaskId::from_index(k);
        let events = truth.task_events(k);
        let visits: Vec<_> = events[1..]
            .iter()
            .map(|&e| {
                (
                    truth.state_of(e),
                    truth.queue_of(e),
                    truth.arrival(e),
                    truth.departure(e),
                )
            })
            .collect();
        let flags: Vec<_> = events
            .iter()
            .map(|&e| {
                (
                    masked.mask().arrival_observed(e),
                    masked.mask().departure_observed(e),
                )
            })
            .collect();
        let entry = truth.task_entry(k);
        out.push(TaskSlice {
            orig_task: k,
            entry,
            observed_entry: observed_entry(entry, &visits, &flags),
            visits,
            flags,
            orig_events: events.to_vec(),
        });
    }
    out
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
    let tasks = task_slices(masked);
    let horizon = tasks
        .iter()
        .map(|t| t.observed_entry)
        .fold(0.0f64, f64::max);
    let initial_state = initial_state_of(truth);
    let spans = schedule.spans(horizon);
    // Bin tasks into their owning windows in one pass: a task entering at
    // `t` can only belong to windows whose index lies in
    // `[(t - width)/stride, t/stride]`, so the scan per task is
    // O(overlap factor), not O(windows). The index range is widened by
    // one on each side against float rounding; the exact half-open span
    // check decides membership. Task ids are visited in increasing
    // order, so each bin stays in task-id order.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (k, t) in tasks.iter().enumerate() {
        let entry = t.observed_entry;
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
    for (index, ((start, end), member_tasks)) in spans.into_iter().zip(members).enumerate() {
        let refs: Vec<&TaskSlice> = member_tasks.iter().map(|&k| &tasks[k]).collect();
        windows.push(build_window(
            index,
            start,
            end,
            &refs,
            truth.num_queues(),
            initial_state,
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
#[derive(Debug)]
pub struct LiveSlicer {
    schedule: WindowSchedule,
    num_queues: usize,
    initial_state: Option<StateId>,
    /// Completed tasks not yet retired, in task-id order.
    completed: Vec<TaskSlice>,
    /// Records of the in-progress task (contiguity makes it unique).
    pending: Vec<TraceRecord>,
    pending_first_event: usize,
    next_event_id: usize,
    next_task_id: usize,
    /// Recorded entry of the most recent task (the close watermark).
    last_entry: f64,
    /// Max observed entry over completed tasks (the finish horizon).
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
            pending_first_event: 0,
            next_event_id: 0,
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
            self.pending_first_event = self.next_event_id;
            self.pending.push(rec);
            self.next_event_id += 1;
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
            self.next_event_id += 1;
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
        self.next_event_id = 0;
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
        let orig_events: Vec<_> = (0..self.pending.len())
            .map(|i| EventId::from_index(self.pending_first_event + i))
            .collect();
        let entry = initial.event.departure;
        let obs = observed_entry(entry, &visits, &flags);
        if obs > self.max_observed_entry {
            self.max_observed_entry = obs;
        }
        self.completed.push(TaskSlice {
            orig_task: initial.event.task,
            entry,
            observed_entry: obs,
            visits,
            flags,
            orig_events,
        });
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
            .filter(|t| t.observed_entry >= start && t.observed_entry < end)
            .collect();
        let initial_state = self.initial_state.unwrap_or(StateId(0));
        out.push(build_window(
            self.next_window,
            start,
            end,
            &members,
            self.num_queues,
            initial_state,
        )?);
        self.next_window += 1;
        // Retire: a task whose observed entry precedes every future
        // window's start can never be a member again.
        let (next_start, _) = self.schedule.span(self.next_window);
        self.completed.retain(|t| t.observed_entry >= next_start);
        Ok(())
    }

    /// Captures the slicer's full resume state as a serializable
    /// [`SlicerState`]. Restoring it with [`LiveSlicer::restore`] under
    /// the same schedule and queue count yields a slicer whose future
    /// emissions are bit-identical to this one's.
    pub fn snapshot(&self) -> SlicerState {
        SlicerState {
            initial_state: self.initial_state.map(|s| s.index() as u32),
            completed: self
                .completed
                .iter()
                .map(TaskSliceState::from_slice)
                .collect(),
            pending: self.pending.iter().map(RecordState::from_record).collect(),
            pending_first_event: self.pending_first_event as u64,
            next_event_id: self.next_event_id as u64,
            next_task_id: self.next_task_id as u64,
            last_entry_bits: self.last_entry.to_bits(),
            max_observed_entry_bits: self.max_observed_entry.to_bits(),
            next_window: self.next_window as u64,
            started: self.started,
        }
    }

    /// Rebuilds the slicer a [`SlicerState`] snapshot was taken from.
    /// `schedule` and `num_queues` must match the original (the
    /// checkpoint layer's options fingerprint enforces this). Errors if
    /// a buffered task's flags, event ids and visits disagree in length.
    pub fn restore(
        schedule: WindowSchedule,
        num_queues: usize,
        state: &SlicerState,
    ) -> Result<Self, TraceError> {
        for t in &state.completed {
            let events = t.visits.len() + 1;
            if t.flags.len() != events || t.orig_events.len() != events {
                return Err(inconsistent_state(format_args!(
                    "buffered task {} has {} flags and {} event ids for {events} events",
                    t.orig_task,
                    t.flags.len(),
                    t.orig_events.len()
                )));
            }
        }
        let mut slicer = LiveSlicer::new(schedule, num_queues)?;
        slicer.initial_state = state.initial_state.map(|s| StateId::from_index(s as usize));
        slicer.completed = state
            .completed
            .iter()
            .map(TaskSliceState::to_slice)
            .collect();
        slicer.pending = state.pending.iter().map(RecordState::to_record).collect();
        slicer.pending_first_event = state.pending_first_event as usize;
        slicer.next_event_id = state.next_event_id as usize;
        slicer.next_task_id = state.next_task_id as usize;
        slicer.last_entry = f64::from_bits(state.last_entry_bits);
        slicer.max_observed_entry = f64::from_bits(state.max_observed_entry_bits);
        slicer.next_window = state.next_window as usize;
        slicer.started = state.started;
        Ok(slicer)
    }
}

/// Serializable form of one buffered task slice. Every time is
/// bit-encoded as `u64` (`f64::to_bits`) so NaN and signed zero
/// round-trip exactly through JSON — the checkpoint must not perturb a
/// single bit of the resume state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSliceState {
    /// Original-trace task id.
    pub orig_task: u32,
    /// Recorded entry time, bit-encoded.
    pub entry_bits: u64,
    /// Membership (observed-entry) time, bit-encoded.
    pub observed_entry_bits: u64,
    /// `(state, queue, arrival_bits, departure_bits)` per visit.
    pub visits: Vec<(u32, u32, u64, u64)>,
    /// `(arrival_observed, departure_observed)` per event.
    pub flags: Vec<(bool, bool)>,
    /// Original-trace event ids.
    pub orig_events: Vec<u32>,
}

impl TaskSliceState {
    fn from_slice(t: &TaskSlice) -> Self {
        TaskSliceState {
            orig_task: t.orig_task.index() as u32,
            entry_bits: t.entry.to_bits(),
            observed_entry_bits: t.observed_entry.to_bits(),
            visits: t
                .visits
                .iter()
                .map(|&(s, q, a, d)| (s.index() as u32, q.index() as u32, a.to_bits(), d.to_bits()))
                .collect(),
            flags: t.flags.clone(),
            orig_events: t.orig_events.iter().map(|e| e.index() as u32).collect(),
        }
    }

    fn to_slice(&self) -> TaskSlice {
        TaskSlice {
            orig_task: TaskId::from_index(self.orig_task as usize),
            entry: f64::from_bits(self.entry_bits),
            observed_entry: f64::from_bits(self.observed_entry_bits),
            visits: self
                .visits
                .iter()
                .map(|&(s, q, a, d)| {
                    (
                        StateId::from_index(s as usize),
                        QueueId::from_index(q as usize),
                        f64::from_bits(a),
                        f64::from_bits(d),
                    )
                })
                .collect(),
            flags: self.flags.clone(),
            orig_events: self
                .orig_events
                .iter()
                .map(|&e| EventId::from_index(e as usize))
                .collect(),
        }
    }
}

/// Serializable form of one buffered [`TraceRecord`] (the in-progress
/// task's records), times bit-encoded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordState {
    /// Task id.
    pub task: u32,
    /// FSM state.
    pub state: u32,
    /// Queue id.
    pub queue: u32,
    /// Arrival time, bit-encoded.
    pub arrival_bits: u64,
    /// Departure time, bit-encoded.
    pub departure_bits: u64,
    /// Whether the arrival was measured.
    pub arrival_observed: bool,
    /// Whether the departure was measured.
    pub departure_observed: bool,
}

impl RecordState {
    fn from_record(r: &TraceRecord) -> Self {
        RecordState {
            task: r.event.task.index() as u32,
            state: r.event.state.index() as u32,
            queue: r.event.queue.index() as u32,
            arrival_bits: r.event.arrival.to_bits(),
            departure_bits: r.event.departure.to_bits(),
            arrival_observed: r.arrival_observed,
            departure_observed: r.departure_observed,
        }
    }

    fn to_record(&self) -> TraceRecord {
        TraceRecord {
            event: Event {
                task: TaskId::from_index(self.task as usize),
                state: StateId::from_index(self.state as usize),
                queue: QueueId::from_index(self.queue as usize),
                arrival: f64::from_bits(self.arrival_bits),
                departure: f64::from_bits(self.departure_bits),
            },
            arrival_observed: self.arrival_observed,
            departure_observed: self.departure_observed,
        }
    }
}

/// The full serializable resume state of a [`LiveSlicer`] (see
/// [`LiveSlicer::snapshot`]). Schedule and queue count are *not*
/// embedded — the checkpoint layer fingerprints them together with the
/// engine options and rejects mismatched resumes wholesale.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlicerState {
    /// FSM state of the first record seen, if any.
    pub initial_state: Option<u32>,
    /// Completed-but-unretired task slices, in task-id order.
    pub completed: Vec<TaskSliceState>,
    /// Records of the in-progress task.
    pub pending: Vec<RecordState>,
    /// Original-trace event id of the pending task's first record.
    pub pending_first_event: u64,
    /// Next original-trace event id to assign.
    pub next_event_id: u64,
    /// Next original-trace task id to expect.
    pub next_task_id: u64,
    /// Recorded entry of the most recent task, bit-encoded.
    pub last_entry_bits: u64,
    /// Max observed entry over completed tasks, bit-encoded.
    pub max_observed_entry_bits: u64,
    /// Index of the next window to emit.
    pub next_window: u64,
    /// Whether any record has been seen.
    pub started: bool,
}

/// One task of a [`WindowState`]: the exact `EventLogBuilder` inputs
/// that reproduce the window's log, times bit-encoded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowTaskState {
    /// Window-clock entry time, bit-encoded.
    pub entry_bits: u64,
    /// `(state, queue, arrival_bits, departure_bits)` per visit.
    pub visits: Vec<(u32, u32, u64, u64)>,
}

/// The full serializable form of a [`WindowedLog`] (see
/// [`WindowedLog::to_state`]) — used by the streaming engine's
/// checkpoint to persist its carried previous window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowState {
    /// Window index in the schedule.
    pub index: u64,
    /// Window start (absolute clock), bit-encoded.
    pub start_bits: u64,
    /// Window end (absolute clock), bit-encoded.
    pub end_bits: u64,
    /// Queue count of the window's log.
    pub num_queues: u64,
    /// FSM state for synthesized q0 events.
    pub initial_state: u32,
    /// Every task in the window's log, carry tasks included, in log
    /// task order.
    pub tasks: Vec<WindowTaskState>,
    /// `(arrival_observed, departure_observed)` per event in log order.
    pub flags: Vec<(bool, bool)>,
    /// Original-trace event ids of the real events.
    pub orig_events: Vec<u32>,
    /// Original-trace task ids of the real tasks.
    pub orig_tasks: Vec<u32>,
    /// Occupancy carry tasks appended after the real tasks.
    pub carry_tasks: u64,
    /// Events belonging to carry tasks.
    pub carry_events: u64,
}

impl WindowedLog {
    /// Captures the window as a serializable [`WindowState`].
    /// [`WindowedLog::from_state`] rebuilds a bit-identical window: the
    /// state records exactly the builder inputs the window was
    /// originally constructed from.
    pub fn to_state(&self) -> WindowState {
        let log = self.masked.ground_truth();
        let mut tasks = Vec::with_capacity(log.num_tasks());
        for k in 0..log.num_tasks() {
            let k = TaskId::from_index(k);
            let events = log.task_events(k);
            let visits: Vec<_> = events[1..]
                .iter()
                .map(|&e| {
                    (
                        log.state_of(e).index() as u32,
                        log.queue_of(e).index() as u32,
                        log.arrival(e).to_bits(),
                        log.departure(e).to_bits(),
                    )
                })
                .collect();
            tasks.push(WindowTaskState {
                entry_bits: log.task_entry(k).to_bits(),
                visits,
            });
        }
        let flags: Vec<_> = log
            .event_ids()
            .map(|e| {
                (
                    self.masked.mask().arrival_observed(e),
                    self.masked.mask().departure_observed(e),
                )
            })
            .collect();
        WindowState {
            index: self.index as u64,
            start_bits: self.start.to_bits(),
            end_bits: self.end.to_bits(),
            num_queues: log.num_queues() as u64,
            initial_state: initial_state_of(log).index() as u32,
            tasks,
            flags,
            orig_events: self.orig_events.iter().map(|e| e.index() as u32).collect(),
            orig_tasks: self.orig_tasks.iter().map(|t| t.index() as u32).collect(),
            carry_tasks: self.carry_tasks as u64,
            carry_events: self.carry_events as u64,
        }
    }

    /// Rebuilds the window a [`WindowState`] was captured from, through
    /// the same `EventLogBuilder` path as the original construction.
    /// Errors if the builder rejects the tasks, or if the flags, the
    /// original event and task ids and the carry counts disagree with
    /// the rebuilt log's event and task counts.
    pub fn from_state(state: &WindowState) -> Result<WindowedLog, TraceError> {
        let mut builder = EventLogBuilder::new(
            state.num_queues as usize,
            StateId::from_index(state.initial_state as usize),
        );
        for t in &state.tasks {
            let visits: Vec<_> = t
                .visits
                .iter()
                .map(|&(s, q, a, d)| {
                    (
                        StateId::from_index(s as usize),
                        QueueId::from_index(q as usize),
                        f64::from_bits(a),
                        f64::from_bits(d),
                    )
                })
                .collect();
            builder.add_task(f64::from_bits(t.entry_bits), &visits)?;
        }
        let log = builder.build()?;
        let (events, tasks) = (log.num_events() as u64, log.num_tasks() as u64);
        let real_events = state.orig_events.len() as u64;
        if real_events.checked_add(state.carry_events) != Some(events) {
            return Err(inconsistent_state(format_args!(
                "window has {real_events} original and {} carry events for {events} events",
                state.carry_events
            )));
        }
        let real_tasks = state.orig_tasks.len() as u64;
        if real_tasks.checked_add(state.carry_tasks) != Some(tasks) {
            return Err(inconsistent_state(format_args!(
                "window has {real_tasks} original and {} carry tasks for {tasks} tasks",
                state.carry_tasks
            )));
        }
        Ok(WindowedLog {
            index: state.index as usize,
            start: f64::from_bits(state.start_bits),
            end: f64::from_bits(state.end_bits),
            masked: mask_log(log, &state.flags)?,
            orig_events: state
                .orig_events
                .iter()
                .map(|&e| EventId::from_index(e as usize))
                .collect(),
            orig_tasks: state
                .orig_tasks
                .iter()
                .map(|&t| TaskId::from_index(t as usize))
                .collect(),
            carry_tasks: state.carry_tasks as usize,
            carry_events: state.carry_events as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationScheme;
    use crate::record::to_records;
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

    #[test]
    fn mask_bits_and_times_carry_over() {
        let ml = masked(80, 3);
        let s = WindowSchedule::new(15.0, 15.0).unwrap();
        for w in slice_windows(&ml, &s).unwrap() {
            let log = w.masked().ground_truth();
            for (we, oe) in w.event_mapping() {
                assert_eq!(
                    w.masked().mask().arrival_observed(we),
                    ml.mask().arrival_observed(oe),
                    "arrival bit of {oe} changed"
                );
                assert_eq!(
                    w.masked().mask().departure_observed(we),
                    ml.mask().departure_observed(oe),
                );
                assert_eq!(log.queue_of(we), ml.ground_truth().queue_of(oe));
                if !log.is_initial_event(we) {
                    let shifted = ml.ground_truth().arrival(oe) - w.start;
                    assert!((log.arrival(we) - shifted).abs() < 1e-12);
                }
                let shifted = ml.ground_truth().departure(oe) - w.start;
                assert!((log.departure(we) - shifted).abs() < 1e-12);
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

    /// The satellite equivalence pin: feeding a full record stream
    /// through [`LiveSlicer`] (push + finish) yields bit-identical
    /// windows to [`slice_windows`] on the same records — times, masks,
    /// original-id mappings, and window count all agree. Exercised under
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
                for (ea, eb) in a.event_mapping().zip(b.event_mapping()) {
                    assert_eq!(ea, eb);
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
        let prev_final = windows[0].masked().ground_truth().clone();
        let carry = occupancy_carry(&windows[0], &prev_final, &windows[1]);
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
        // Real events keep their local ids and original mappings.
        for (ea, eb) in windows[1].event_mapping().zip(with.event_mapping()) {
            assert_eq!(ea, eb);
        }
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
        let prev_final = windows[0].masked().ground_truth().clone();
        let carry = occupancy_carry(&windows[0], &prev_final, &windows[1]);
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
        let prev_final = windows[0].masked().ground_truth().clone();
        let carry = occupancy_carry(&windows[0], &prev_final, &windows[1]);
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
        let prev_final = windows[0].masked().ground_truth().clone();
        let carry = occupancy_carry(&windows[0], &prev_final, &windows[1]);
        // The only task is shared -> nothing carried.
        assert_eq!(carry.busy_until(QueueId(1)), f64::NEG_INFINITY);

        // A window's own ghosts count as carried work for the next one.
        let ghosted = windows[1].with_occupancy(&OccupancyCarry {
            busy_until: vec![f64::NEG_INFINITY, 7.0],
        });
        let ghosted = ghosted.unwrap();
        assert_eq!(ghosted.carry_tasks(), 1);
        let final_log = ghosted.masked().ground_truth().clone();
        let carry2 = occupancy_carry(&ghosted, &final_log, &windows[2]);
        // Ghost departs at local 2.0 => absolute 7.0; the shared task 0
        // is not in window 2 (entry 6.0 < 10.0): its departure 12.0
        // dominates.
        assert!((carry2.busy_until(QueueId(1)) - 12.0).abs() < 1e-12);
    }

    /// `WindowState` round-trips a window — including one with injected
    /// occupancy-carry ghosts — through JSON without perturbing a bit:
    /// the rebuilt window's state equals the original's, and the
    /// rebuilt log matches event by event.
    #[test]
    fn window_state_round_trips_bit_for_bit() {
        let ml = masked(80, 5);
        let s = WindowSchedule::new(10.0, 5.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        assert!(windows.len() >= 3);
        let prev_final = windows[0].masked().ground_truth().clone();
        let carry = occupancy_carry(&windows[0], &prev_final, &windows[1]);
        let ghosted = windows[1].with_occupancy(&carry).unwrap();
        for w in windows.iter().chain(std::iter::once(&ghosted)) {
            let state = w.to_state();
            let json = serde_json::to_string(&state).unwrap();
            let back: WindowState = serde_json::from_str(&json).unwrap();
            assert_eq!(state, back, "JSON round-trip window {}", w.index);
            let rebuilt = WindowedLog::from_state(&back).unwrap();
            assert_eq!(rebuilt.to_state(), state, "rebuild window {}", w.index);
            let (la, lb) = (w.masked().ground_truth(), rebuilt.masked().ground_truth());
            assert_eq!(la.num_events(), lb.num_events());
            for e in la.event_ids() {
                assert_eq!(la.event(e), lb.event(e), "window {} event {e}", w.index);
                assert_eq!(
                    w.masked().mask().arrival_observed(e),
                    rebuilt.masked().mask().arrival_observed(e)
                );
                assert_eq!(
                    w.masked().mask().departure_observed(e),
                    rebuilt.masked().mask().departure_observed(e)
                );
            }
            assert_eq!(rebuilt.carry_tasks(), w.carry_tasks());
            assert_eq!(rebuilt.carry_events(), w.carry_events());
            for (ea, eb) in w.event_mapping().zip(rebuilt.event_mapping()) {
                assert_eq!(ea, eb);
            }
        }
    }

    /// Edited window state is rejected with a typed error instead of a
    /// panic or a silently different window: one flag too many, a task
    /// with no visits, and original event or task ids that no longer
    /// cover the rebuilt log next to its carry tasks.
    #[test]
    fn window_state_rejects_inconsistent_lengths() {
        let ml = masked(80, 5);
        let s = WindowSchedule::new(10.0, 5.0).unwrap();
        let windows = slice_windows(&ml, &s).unwrap();
        let state = windows
            .windows(2)
            .map(|pair| {
                let prev_final = pair[0].masked().ground_truth().clone();
                let carry = occupancy_carry(&pair[0], &prev_final, &pair[1]);
                pair[1].with_occupancy(&carry).unwrap().to_state()
            })
            .find(|st| st.carry_tasks > 0)
            .expect("fixture must carry occupancy into some window");
        let edited = |edit: fn(&mut WindowState)| {
            let mut st = state.clone();
            edit(&mut st);
            WindowedLog::from_state(&st).unwrap_err()
        };
        let err = edited(|st| st.flags.push((true, true)));
        assert!(
            matches!(err, TraceError::ShapeMismatch { expected, actual } if actual == expected + 1),
            "{err}"
        );
        let err = edited(|st| st.tasks[0].visits.clear());
        assert!(
            matches!(err, TraceError::Model(qni_model::ModelError::EmptyTask(_))),
            "{err}"
        );
        let err = edited(|st| st.orig_events.truncate(3));
        assert!(
            matches!(err, TraceError::Serde(_)) && err.to_string().contains("has 3 original"),
            "{err}"
        );
        let err = edited(|st| st.orig_tasks.push(0));
        assert!(
            matches!(err, TraceError::Serde(_)) && err.to_string().contains("carry tasks"),
            "{err}"
        );
    }

    /// A buffered task whose flags or event ids disagree in length with
    /// its visits is rejected on restore instead of resuming on a
    /// different trace.
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
        let state = slicer.snapshot();
        assert!(!state.completed.is_empty(), "fixture must buffer tasks");
        let mut extra_flag = state.clone();
        extra_flag.completed[0].flags.push((true, true));
        let mut short_ids = state.clone();
        short_ids.completed[0].orig_events.pop();
        for bad in [extra_flag, short_ids] {
            let err = LiveSlicer::restore(schedule, nq, &bad).unwrap_err();
            assert!(
                matches!(err, TraceError::Serde(_)) && err.to_string().contains("buffered task"),
                "{err}"
            );
        }
    }

    /// Snapshotting a `LiveSlicer` mid-stream, JSON round-tripping the
    /// state, and restoring yields a slicer whose remaining emissions
    /// are bit-identical to the uninterrupted one's — at every possible
    /// cut point of the record stream.
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
        let ref_states: Vec<WindowState> = ref_windows.iter().map(WindowedLog::to_state).collect();

        for cut in 0..=records.len() {
            let mut first = LiveSlicer::new(schedule, nq).unwrap();
            let mut out = Vec::new();
            for rec in &records[..cut] {
                out.extend(first.push(*rec).unwrap());
            }
            let json = serde_json::to_string(&first.snapshot()).unwrap();
            let state: SlicerState = serde_json::from_str(&json).unwrap();
            assert_eq!(state, first.snapshot(), "cut {cut}: JSON round-trip");
            let mut resumed = LiveSlicer::restore(schedule, nq, &state).unwrap();
            for rec in &records[cut..] {
                out.extend(resumed.push(*rec).unwrap());
            }
            out.extend(resumed.finish().unwrap());
            assert_eq!(out.len(), ref_states.len(), "cut {cut}: window count");
            for (w, want) in out.iter().zip(&ref_states) {
                assert_eq!(&w.to_state(), want, "cut {cut}: window {}", w.index);
            }
        }
    }
}
