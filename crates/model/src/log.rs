//! The event log: a flat arena of events with queue- and task-order
//! pointers.
//!
//! Every quantity the sampler and estimators need — service time, waiting
//! time, the within-queue predecessor ρ(e) and within-task predecessor
//! π(e) — is derived from this structure. The log stores only arrival and
//! departure times; service times are always computed on demand from
//! `s_e = d_e − max(a_e, d_{ρ(e)})`, so mutating a time can never leave a
//! stale cached value behind.

use crate::error::ModelError;
use crate::event::Event;
use crate::ids::{EventId, QueueId, StateId, TaskId};
use serde::{Deserialize, Serialize};

/// An event log over a fixed set of tasks and queues.
///
/// Construct with [`EventLogBuilder`]. The *arrival order* of events at
/// each queue is fixed at construction time; the Gibbs sampler relies on
/// the paper's assumption that this order is known (via event counters)
/// and never reorders events. The serde form of a log is its builder
/// inputs, [`LogInputs`].
#[derive(Debug, Clone)]
pub struct EventLog {
    events: Vec<Event>,
    /// Per queue: events in arrival order.
    queue_order: Vec<Vec<EventId>>,
    /// Per task: events in task order (first entry is the initial event).
    task_order: Vec<Vec<EventId>>,
    /// Position of each event within its queue's order.
    pos_in_queue: Vec<u32>,
    /// Position of each event within its task's order.
    pos_in_task: Vec<u32>,
}

impl EventLog {
    /// Number of events (including initial events).
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.task_order.len()
    }

    /// Number of queues this log was built over (including `q0`).
    pub fn num_queues(&self) -> usize {
        self.queue_order.len()
    }

    /// The event record.
    pub fn event(&self, e: EventId) -> &Event {
        &self.events[e.index()]
    }

    /// Arrival time of `e`.
    #[inline]
    pub fn arrival(&self, e: EventId) -> f64 {
        self.events[e.index()].arrival
    }

    /// Departure time of `e`.
    #[inline]
    pub fn departure(&self, e: EventId) -> f64 {
        self.events[e.index()].departure
    }

    /// Queue of `e`.
    #[inline]
    pub fn queue_of(&self, e: EventId) -> QueueId {
        self.events[e.index()].queue
    }

    /// Task of `e`.
    #[inline]
    pub fn task_of(&self, e: EventId) -> TaskId {
        self.events[e.index()].task
    }

    /// FSM state of `e`.
    #[inline]
    pub fn state_of(&self, e: EventId) -> StateId {
        self.events[e.index()].state
    }

    /// Position of `e` within its queue's arrival order (0-based): the
    /// index such that `events_at_queue(queue_of(e))[pos] == e`. Fixed at
    /// construction except across [`EventLog::reassign_queue`] calls.
    pub fn queue_position(&self, e: EventId) -> usize {
        self.pos_in_queue[e.index()] as usize
    }

    /// Within-queue predecessor ρ(e): the previous arrival at `e`'s queue.
    pub fn rho(&self, e: EventId) -> Option<EventId> {
        let pos = self.pos_in_queue[e.index()] as usize;
        if pos == 0 {
            None
        } else {
            Some(self.queue_order[self.queue_of(e).index()][pos - 1])
        }
    }

    /// Within-queue successor ρ⁻¹(e): the next arrival at `e`'s queue.
    pub fn rho_inv(&self, e: EventId) -> Option<EventId> {
        let order = &self.queue_order[self.queue_of(e).index()];
        let pos = self.pos_in_queue[e.index()] as usize;
        order.get(pos + 1).copied()
    }

    /// Within-task predecessor π(e): the task's previous event.
    pub fn pi(&self, e: EventId) -> Option<EventId> {
        let pos = self.pos_in_task[e.index()] as usize;
        if pos == 0 {
            None
        } else {
            Some(self.task_order[self.task_of(e).index()][pos - 1])
        }
    }

    /// Within-task successor π⁻¹(e): the task's next event.
    pub fn pi_inv(&self, e: EventId) -> Option<EventId> {
        let order = &self.task_order[self.task_of(e).index()];
        let pos = self.pos_in_task[e.index()] as usize;
        order.get(pos + 1).copied()
    }

    /// Whether `e` is a system-entry event at `q0`.
    pub fn is_initial_event(&self, e: EventId) -> bool {
        self.pos_in_task[e.index()] == 0
    }

    /// Whether `e` is the last event of its task.
    pub fn is_final_event(&self, e: EventId) -> bool {
        let order = &self.task_order[self.task_of(e).index()];
        self.pos_in_task[e.index()] as usize == order.len() - 1
    }

    /// Time service began: `max(a_e, d_{ρ(e)})`.
    pub fn begin_service(&self, e: EventId) -> f64 {
        let a = self.arrival(e);
        match self.rho(e) {
            Some(p) => a.max(self.departure(p)),
            None => a,
        }
    }

    /// Service time `s_e = d_e − max(a_e, d_{ρ(e)})`.
    pub fn service_time(&self, e: EventId) -> f64 {
        self.departure(e) - self.begin_service(e)
    }

    /// Waiting time `w_e = max(0, d_{ρ(e)} − a_e)`.
    pub fn waiting_time(&self, e: EventId) -> f64 {
        (self.begin_service(e) - self.arrival(e)).max(0.0)
    }

    /// Response time at this queue: `d_e − a_e = w_e + s_e`.
    pub fn response_time(&self, e: EventId) -> f64 {
        self.departure(e) - self.arrival(e)
    }

    /// System entry time of a task (departure of its initial event).
    pub fn task_entry(&self, k: TaskId) -> f64 {
        let first = self.task_order[k.index()][0];
        self.departure(first)
    }

    /// System exit time of a task (departure of its last event).
    pub fn task_exit(&self, k: TaskId) -> f64 {
        let last = *self.task_order[k.index()]
            .last()
            .expect("tasks are non-empty"); // qni-lint: allow(QNI-E002) — TaskLog validates tasks non-empty at construction
        self.departure(last)
    }

    /// End-to-end response time of a task.
    pub fn task_response(&self, k: TaskId) -> f64 {
        self.task_exit(k) - self.task_entry(k)
    }

    /// Events at a queue, in arrival order.
    pub fn events_at_queue(&self, q: QueueId) -> &[EventId] {
        &self.queue_order[q.index()]
    }

    /// Events of a task, in task order (initial event first).
    pub fn task_events(&self, k: TaskId) -> &[EventId] {
        &self.task_order[k.index()]
    }

    /// Iterates over all event ids.
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.events.len()).map(EventId::from_index)
    }

    /// The builder inputs that rebuild this log: [`LogInputs::build`]
    /// yields the same events under the same ids, in the same task
    /// order. An empty log records `StateId(0)` as its initial state.
    pub fn inputs(&self) -> LogInputs {
        let initial_state = self
            .task_order
            .first()
            .map_or(StateId(0), |order| self.state_of(order[0]));
        let tasks = self
            .task_order
            .iter()
            .map(|order| TaskInputs {
                entry: self.departure(order[0]),
                visits: order[1..]
                    .iter()
                    .map(|&e| {
                        let ev = &self.events[e.index()];
                        (ev.state, ev.queue, ev.arrival, ev.departure)
                    })
                    .collect(),
            })
            .collect();
        LogInputs {
            num_queues: self.num_queues(),
            initial_state,
            tasks,
        }
    }

    /// Sets the *transition time* of a non-initial event: its arrival and,
    /// simultaneously, the departure of its within-task predecessor, which
    /// are equal by the deterministic constraint `a_e = d_{π(e)}`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is an initial event (its arrival is pinned at 0; its
    /// departure is owned by the *next* event's transition time).
    pub fn set_transition_time(&mut self, e: EventId, t: f64) {
        let p = self
            .pi(e)
            .expect("set_transition_time requires a within-task predecessor"); // qni-lint: allow(QNI-E002) — documented precondition of this crate-internal setter
        self.events[e.index()].arrival = t;
        self.events[p.index()].departure = t;
    }

    /// Sets the departure of a task's final event (the system exit time).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not the last event of its task — interior
    /// departures are owned by the successor's transition time.
    pub fn set_final_departure(&mut self, e: EventId, t: f64) {
        assert!(
            self.is_final_event(e),
            "set_final_departure requires a final event"
        );
        self.events[e.index()].departure = t;
    }

    /// Moves event `e` to `new_queue`, preserving arrival-sorted order in
    /// both queues.
    ///
    /// This is the structural edit behind Metropolis–Hastings *path*
    /// resampling (the paper's §3 note that unknown FSM paths "can be
    /// resampled by an outer Metropolis-Hastings step"): the caller is
    /// responsible for accepting/rejecting based on the density change
    /// and for feasibility (services at the insertion point must remain
    /// non-negative — see [`crate::constraints::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if `e` is an initial event (q0 membership is structural) or
    /// `new_queue` is `q0` / out of range.
    pub fn reassign_queue(&mut self, e: EventId, new_queue: QueueId) {
        assert!(
            !self.is_initial_event(e),
            "initial events cannot change queue"
        );
        assert!(
            !new_queue.is_initial() && new_queue.index() < self.queue_order.len(),
            "invalid target queue"
        );
        let old_queue = self.queue_of(e);
        if old_queue == new_queue {
            return;
        }
        // Remove from the old order.
        let old_pos = self.pos_in_queue[e.index()] as usize;
        self.queue_order[old_queue.index()].remove(old_pos);
        for (pos, &ev) in self.queue_order[old_queue.index()]
            .iter()
            .enumerate()
            .skip(old_pos)
        {
            self.pos_in_queue[ev.index()] = pos as u32;
        }
        // Insert into the new order by arrival time (ties by departure,
        // then id — the builder's ordering).
        let a = self.arrival(e);
        let d = self.departure(e);
        let order = &self.queue_order[new_queue.index()];
        let ins = order.partition_point(|&o| {
            let oe = &self.events[o.index()];
            (oe.arrival, oe.departure, o) < (a, d, e)
        });
        self.queue_order[new_queue.index()].insert(ins, e);
        for (pos, &ev) in self.queue_order[new_queue.index()]
            .iter()
            .enumerate()
            .skip(ins)
        {
            self.pos_in_queue[ev.index()] = pos as u32;
        }
        self.events[e.index()].queue = new_queue;
    }

    /// Per-queue count and sum of service times — the sufficient
    /// statistics of the exponential M-step. Entry 0 is `q0`, whose
    /// "service" sum is the total of interarrival gaps.
    pub fn service_sufficient_stats(&self) -> Vec<(usize, f64)> {
        let mut stats = vec![(0usize, 0.0f64); self.num_queues()];
        for e in self.event_ids() {
            let q = self.queue_of(e).index();
            stats[q].0 += 1;
            stats[q].1 += self.service_time(e);
        }
        stats
    }

    /// Per-queue mean service and waiting times.
    ///
    /// Queues with no events report `count == 0` and NaN means.
    pub fn queue_averages(&self) -> Vec<QueueAverages> {
        let mut out = Vec::new();
        self.queue_averages_into(&mut out);
        out
    }

    /// [`EventLog::queue_averages`] into a caller-owned buffer, so hot
    /// loops that summarize the log once per sweep allocate nothing in
    /// the steady state. `out` is cleared first; the computed values are
    /// bit-identical to [`EventLog::queue_averages`].
    pub fn queue_averages_into(&self, out: &mut Vec<QueueAverages>) {
        out.clear();
        out.resize(
            self.num_queues(),
            QueueAverages {
                count: 0,
                mean_service: 0.0,
                mean_waiting: 0.0,
            },
        );
        for e in self.event_ids() {
            let a = &mut out[self.queue_of(e).index()];
            a.count += 1;
            a.mean_service += self.service_time(e);
            a.mean_waiting += self.waiting_time(e);
        }
        for a in out.iter_mut() {
            if a.count > 0 {
                a.mean_service /= a.count as f64;
                a.mean_waiting /= a.count as f64;
            } else {
                a.mean_service = f64::NAN;
                a.mean_waiting = f64::NAN;
            }
        }
    }
}

/// Per-queue empirical averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueAverages {
    /// Number of events observed at the queue.
    pub count: usize,
    /// Mean service time (NaN if `count == 0`).
    pub mean_service: f64,
    /// Mean waiting time (NaN if `count == 0`).
    pub mean_waiting: f64,
}

/// One task as [`EventLogBuilder::add_task`] takes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskInputs {
    /// System entry time (the departure of the task's `q0` event).
    #[serde(with = "crate::bits")]
    pub entry: f64,
    /// `(state, queue, arrival, departure)` per queue visit, in task
    /// order.
    #[serde(with = "crate::bits")]
    pub visits: Vec<(StateId, QueueId, f64, f64)>,
}

/// An [`EventLog`] as the [`EventLogBuilder`] inputs that rebuild it
/// bit for bit ([`EventLog::inputs`]) — the serde form of a log, times
/// bit-exact.
///
/// Reading one allocates no more than its own text, because nothing is
/// built yet. [`LogInputs::build`] allocates one order per queue, so a
/// reader checks `num_queues` against the network it expects first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogInputs {
    /// Queue count, including `q0`.
    pub num_queues: usize,
    /// FSM state recorded on every task's `q0` event.
    pub initial_state: StateId,
    /// Every task, in log task order.
    pub tasks: Vec<TaskInputs>,
}

impl LogInputs {
    /// Number of events the built log has: each task's `q0` event plus
    /// one per visit.
    pub fn num_events(&self) -> usize {
        self.tasks.iter().map(|t| t.visits.len() + 1).sum()
    }

    /// Builds the log. Errors as [`EventLogBuilder::add_task`] does, on a
    /// task with no visit or a visit to `q0` or to a queue out of range.
    pub fn build(&self) -> Result<EventLog, ModelError> {
        let mut builder = EventLogBuilder::new(self.num_queues, self.initial_state);
        for t in &self.tasks {
            builder.add_task(t.entry, &t.visits)?;
        }
        builder.build()
    }
}

/// Builder for [`EventLog`].
///
/// Add tasks in any order; [`EventLogBuilder::build`] sorts each queue's
/// events by arrival time (ties broken by departure, then insertion order)
/// and wires the ρ/π pointers.
///
/// # Examples
///
/// ```
/// use qni_model::log::EventLogBuilder;
/// use qni_model::ids::{QueueId, StateId};
///
/// let mut b = EventLogBuilder::new(2, StateId(0));
/// // One task entering at t=1.0, visiting queue 1 from 1.0 to 2.5.
/// b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 2.5)]).unwrap();
/// let log = b.build().unwrap();
/// assert_eq!(log.num_events(), 2); // initial event + one visit.
/// ```
#[derive(Debug)]
pub struct EventLogBuilder {
    num_queues: usize,
    initial_state: StateId,
    events: Vec<Event>,
    task_order: Vec<Vec<EventId>>,
}

impl EventLogBuilder {
    /// Creates a builder for a network with `num_queues` queues (including
    /// `q0`). `initial_state` is recorded on each task's entry event.
    pub fn new(num_queues: usize, initial_state: StateId) -> Self {
        EventLogBuilder {
            num_queues,
            initial_state,
            events: Vec::new(),
            task_order: Vec::new(),
        }
    }

    /// Adds a task that enters the system at `entry` and performs the
    /// given `(state, queue, arrival, departure)` visits in task order.
    ///
    /// The entry event at `q0` (arrival 0, departure `entry`) is created
    /// automatically. Errors if the visit list is empty or references an
    /// out-of-range queue.
    pub fn add_task(
        &mut self,
        entry: f64,
        visits: &[(StateId, QueueId, f64, f64)],
    ) -> Result<TaskId, ModelError> {
        let task = TaskId::from_index(self.task_order.len());
        if visits.is_empty() {
            return Err(ModelError::EmptyTask(task));
        }
        for &(_, q, _, _) in visits {
            if q.index() >= self.num_queues {
                return Err(ModelError::UnknownQueue(q));
            }
            if q.is_initial() {
                return Err(ModelError::BadQueueParameter {
                    queue: q,
                    what: "task visits may not target the virtual queue q0",
                });
            }
        }
        let mut order = Vec::with_capacity(visits.len() + 1);
        let init_id = EventId::from_index(self.events.len());
        self.events.push(Event {
            task,
            state: self.initial_state,
            queue: QueueId::INITIAL,
            arrival: 0.0,
            departure: entry,
        });
        order.push(init_id);
        for &(state, queue, arrival, departure) in visits {
            let id = EventId::from_index(self.events.len());
            self.events.push(Event {
                task,
                state,
                queue,
                arrival,
                departure,
            });
            order.push(id);
        }
        self.task_order.push(order);
        Ok(task)
    }

    /// Finalizes the log: sorts per-queue arrival orders and computes
    /// positional indices.
    pub fn build(self) -> Result<EventLog, ModelError> {
        let mut queue_order: Vec<Vec<EventId>> = vec![Vec::new(); self.num_queues];
        for (i, ev) in self.events.iter().enumerate() {
            queue_order[ev.queue.index()].push(EventId::from_index(i));
        }
        for order in &mut queue_order {
            order.sort_by(|&a, &b| {
                let ea = &self.events[a.index()];
                let eb = &self.events[b.index()];
                ea.arrival
                    .total_cmp(&eb.arrival)
                    .then(ea.departure.total_cmp(&eb.departure))
                    .then(a.cmp(&b))
            });
        }
        let mut pos_in_queue = vec![0u32; self.events.len()];
        for order in &queue_order {
            for (pos, &e) in order.iter().enumerate() {
                pos_in_queue[e.index()] = pos as u32;
            }
        }
        let mut pos_in_task = vec![0u32; self.events.len()];
        for order in &self.task_order {
            for (pos, &e) in order.iter().enumerate() {
                pos_in_task[e.index()] = pos as u32;
            }
        }
        Ok(EventLog {
            events: self.events,
            queue_order,
            task_order: self.task_order,
            pos_in_queue,
            pos_in_task,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tasks through a single queue, overlapping so task 1 must wait.
    fn two_task_log() -> EventLog {
        let mut b = EventLogBuilder::new(2, StateId(0));
        // Task 0: enters at 1.0, served 1.0 → 3.0 (service 2.0, no wait).
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 3.0)])
            .unwrap();
        // Task 1: enters at 2.0, must wait until 3.0, departs 4.0.
        b.add_task(2.0, &[(StateId(1), QueueId(1), 2.0, 4.0)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shapes_and_pointers() {
        let log = two_task_log();
        assert_eq!(log.num_events(), 4);
        assert_eq!(log.num_tasks(), 2);
        assert_eq!(log.num_queues(), 2);

        let q1 = log.events_at_queue(QueueId(1));
        assert_eq!(q1.len(), 2);
        let (e0, e1) = (q1[0], q1[1]);
        assert_eq!(log.rho(e0), None);
        assert_eq!(log.rho(e1), Some(e0));
        assert_eq!(log.rho_inv(e0), Some(e1));
        assert_eq!(log.rho_inv(e1), None);

        // π of a first real visit is the initial event.
        let init0 = log.task_events(TaskId(0))[0];
        assert_eq!(log.pi(e0), Some(init0));
        assert_eq!(log.pi_inv(init0), Some(e0));
        assert!(log.is_initial_event(init0));
        assert!(log.is_final_event(e0));
        assert!(!log.is_final_event(init0));
    }

    #[test]
    fn q0_holds_all_initial_events_in_entry_order() {
        let log = two_task_log();
        let q0 = log.events_at_queue(QueueId::INITIAL);
        assert_eq!(q0.len(), 2);
        // Both arrive at 0; ordered by departure (= entry time).
        assert!(log.departure(q0[0]) < log.departure(q0[1]));
        // q0 service times are the interarrival gaps: 1.0 then 1.0.
        assert!((log.service_time(q0[0]) - 1.0).abs() < 1e-12);
        assert!((log.service_time(q0[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn service_and_waiting_times() {
        let log = two_task_log();
        let q1 = log.events_at_queue(QueueId(1));
        // First event: no predecessor, service = 2.0, wait = 0.
        assert!((log.service_time(q1[0]) - 2.0).abs() < 1e-12);
        assert!((log.waiting_time(q1[0]) - 0.0).abs() < 1e-12);
        // Second event: arrives at 2.0, predecessor departs 3.0 → waits 1.0,
        // service = 4.0 − 3.0 = 1.0.
        assert!((log.waiting_time(q1[1]) - 1.0).abs() < 1e-12);
        assert!((log.service_time(q1[1]) - 1.0).abs() < 1e-12);
        assert!((log.begin_service(q1[1]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn task_level_times() {
        let log = two_task_log();
        assert_eq!(log.task_entry(TaskId(1)), 2.0);
        assert_eq!(log.task_exit(TaskId(1)), 4.0);
        assert_eq!(log.task_response(TaskId(1)), 2.0);
    }

    #[test]
    fn set_transition_time_updates_both_sides() {
        let mut log = two_task_log();
        let e = log.events_at_queue(QueueId(1))[1];
        let p = log.pi(e).unwrap();
        log.set_transition_time(e, 2.5);
        assert_eq!(log.arrival(e), 2.5);
        assert_eq!(log.departure(p), 2.5);
    }

    #[test]
    #[should_panic(expected = "within-task predecessor")]
    fn set_transition_time_rejects_initial_events() {
        let mut log = two_task_log();
        let init = log.task_events(TaskId(0))[0];
        log.set_transition_time(init, 1.0);
    }

    #[test]
    fn set_final_departure() {
        let mut log = two_task_log();
        let e = log.events_at_queue(QueueId(1))[1];
        log.set_final_departure(e, 5.0);
        assert_eq!(log.departure(e), 5.0);
    }

    #[test]
    #[should_panic(expected = "final event")]
    fn set_final_departure_rejects_interior_events() {
        let mut log = two_task_log();
        let init = log.task_events(TaskId(0))[0];
        log.set_final_departure(init, 1.0);
    }

    #[test]
    fn sufficient_stats() {
        let log = two_task_log();
        let stats = log.service_sufficient_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, 2); // Two initial events.
        assert!((stats[0].1 - 2.0).abs() < 1e-12); // Gaps 1.0 + 1.0.
        assert_eq!(stats[1].0, 2);
        assert!((stats[1].1 - 3.0).abs() < 1e-12); // Services 2.0 + 1.0.
    }

    #[test]
    fn queue_averages() {
        let log = two_task_log();
        let avg = log.queue_averages();
        assert_eq!(avg[1].count, 2);
        assert!((avg[1].mean_service - 1.5).abs() < 1e-12);
        assert!((avg[1].mean_waiting - 0.5).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_tasks() {
        let mut b = EventLogBuilder::new(2, StateId(0));
        assert!(matches!(
            b.add_task(0.0, &[]),
            Err(ModelError::EmptyTask(_))
        ));
        assert!(b
            .add_task(0.0, &[(StateId(1), QueueId(7), 0.0, 1.0)])
            .is_err());
        assert!(b
            .add_task(0.0, &[(StateId(1), QueueId::INITIAL, 0.0, 1.0)])
            .is_err());
    }

    #[test]
    fn reassign_queue_moves_between_orders() {
        // Two queues; move task 1's event from queue 1 to queue 2.
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 2.0)])
            .unwrap();
        b.add_task(1.5, &[(StateId(1), QueueId(1), 1.5, 3.0)])
            .unwrap();
        b.add_task(1.2, &[(StateId(1), QueueId(2), 1.2, 1.6)])
            .unwrap();
        let mut log = b.build().unwrap();
        let e = log.task_events(TaskId(1))[1];
        log.reassign_queue(e, QueueId(2));
        assert_eq!(log.queue_of(e), QueueId(2));
        // Queue 1 keeps only task 0's event.
        assert_eq!(log.events_at_queue(QueueId(1)).len(), 1);
        // Queue 2 is ordered by arrival: task 2 (1.2) then task 1 (1.5).
        let q2 = log.events_at_queue(QueueId(2));
        assert_eq!(q2.len(), 2);
        assert_eq!(log.task_of(q2[0]), TaskId(2));
        assert_eq!(log.task_of(q2[1]), TaskId(1));
        assert_eq!(log.rho(e), Some(q2[0]));
        // Positions are consistent after the move.
        for (pos, &ev) in q2.iter().enumerate() {
            assert_eq!(log.rho(ev).is_none(), pos == 0);
        }
        crate::constraints::validate(&log).unwrap();
        // Moving back restores the original shape.
        log.reassign_queue(e, QueueId(1));
        assert_eq!(log.events_at_queue(QueueId(1)).len(), 2);
        assert_eq!(log.events_at_queue(QueueId(2)).len(), 1);
        crate::constraints::validate(&log).unwrap();
    }

    #[test]
    #[should_panic(expected = "initial events")]
    fn reassign_rejects_initial_events() {
        let mut log = two_task_log();
        let init = log.task_events(TaskId(0))[0];
        log.reassign_queue(init, QueueId(1));
    }

    #[test]
    fn consecutive_same_queue_visits() {
        // A task visiting queue 1 twice in a row: π(e2) == ρ(e2).
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(
            1.0,
            &[
                (StateId(1), QueueId(1), 1.0, 2.0),
                (StateId(1), QueueId(1), 2.0, 3.5),
            ],
        )
        .unwrap();
        let log = b.build().unwrap();
        let q1 = log.events_at_queue(QueueId(1));
        assert_eq!(q1.len(), 2);
        assert_eq!(log.pi(q1[1]), Some(q1[0]));
        assert_eq!(log.rho(q1[1]), Some(q1[0]));
        // Second visit: begin = max(2.0, d_prev=2.0) = 2.0; service 1.5.
        assert!((log.service_time(q1[1]) - 1.5).abs() < 1e-12);
        assert!((log.waiting_time(q1[1]) - 0.0).abs() < 1e-12);
    }
}
