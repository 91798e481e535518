//! Observation masks and the masked event log handed to inference.

use crate::error::TraceError;
use qni_model::ids::EventId;
use qni_model::log::EventLog;
use serde::{Deserialize, Serialize};

/// Which times of each event were measured.
///
/// Arrival observations are the paper's primary measurement
/// (`a_e = d_{π(e)}`, so an observed arrival also pins the predecessor's
/// departure). Departure observations are only meaningful for a task's
/// *final* event — interior departures are owned by the successor's
/// arrival.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservedMask {
    arrival: Vec<bool>,
    departure: Vec<bool>,
}

impl ObservedMask {
    /// Creates a mask with nothing observed, for `n` events.
    pub fn unobserved(n: usize) -> Self {
        ObservedMask {
            arrival: vec![false; n],
            departure: vec![false; n],
        }
    }

    /// Creates a mask with everything observed, for `n` events.
    pub fn fully_observed(n: usize) -> Self {
        ObservedMask {
            arrival: vec![true; n],
            departure: vec![true; n],
        }
    }

    /// Number of events covered.
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// Whether the mask covers zero events.
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }

    /// Appends one event with the given observation flags.
    pub fn push(&mut self, arrival: bool, departure: bool) {
        self.arrival.push(arrival);
        self.departure.push(departure);
    }

    /// Marks an arrival as observed.
    pub fn observe_arrival(&mut self, e: EventId) {
        self.arrival[e.index()] = true;
    }

    /// Marks a departure as observed.
    pub fn observe_departure(&mut self, e: EventId) {
        self.departure[e.index()] = true;
    }

    /// Whether `e`'s arrival was measured.
    pub fn arrival_observed(&self, e: EventId) -> bool {
        self.arrival[e.index()]
    }

    /// Whether `e`'s departure was measured.
    pub fn departure_observed(&self, e: EventId) -> bool {
        self.departure[e.index()]
    }
}

/// Ground truth plus an observation mask.
///
/// This is the interface between data generation and inference. Inference
/// must work from [`MaskedLog::scrubbed_log`] (unobserved times are NaN);
/// the ground truth is retained for *evaluation* (error measurement) and
/// for the paper's oracle baseline, and is accessible only through the
/// explicitly named [`MaskedLog::ground_truth`].
#[derive(Debug, Clone)]
pub struct MaskedLog {
    truth: EventLog,
    mask: ObservedMask,
}

impl MaskedLog {
    /// Pairs a ground-truth log with a mask.
    ///
    /// Initial events' arrivals (pinned at 0 by convention) are force-marked
    /// observed. Errors if the mask shape disagrees with the log.
    pub fn new(truth: EventLog, mut mask: ObservedMask) -> Result<Self, TraceError> {
        if mask.len() != truth.num_events() {
            return Err(TraceError::ShapeMismatch {
                expected: truth.num_events(),
                actual: mask.len(),
            });
        }
        for e in truth.event_ids() {
            if truth.is_initial_event(e) {
                mask.arrival[e.index()] = true;
            }
        }
        Ok(MaskedLog { truth, mask })
    }

    /// The observation mask.
    pub fn mask(&self) -> &ObservedMask {
        &self.mask
    }

    /// Oracle access to the ground truth (evaluation and baselines only).
    pub fn ground_truth(&self) -> &EventLog {
        &self.truth
    }

    /// Events whose arrival is a *free variable* of the posterior: arrival
    /// unobserved and not an initial event.
    pub fn free_arrivals(&self) -> Vec<EventId> {
        self.truth
            .event_ids()
            .filter(|&e| !self.truth.is_initial_event(e) && !self.mask.arrival_observed(e))
            .collect()
    }

    /// Final events whose departure is a free variable.
    ///
    /// An interior departure is never free on its own: it equals the
    /// successor's arrival. Initial events' departures are likewise owned
    /// by the first real arrival.
    pub fn free_final_departures(&self) -> Vec<EventId> {
        self.truth
            .event_ids()
            .filter(|&e| self.truth.is_final_event(e) && !self.mask.departure_observed(e))
            .collect()
    }

    /// Whether event `e`'s *departure* is pinned by observations — either
    /// directly (final departure observed) or via the successor's observed
    /// arrival.
    pub fn departure_pinned(&self, e: EventId) -> bool {
        match self.truth.pi_inv(e) {
            Some(succ) => self.mask.arrival_observed(succ),
            None => self.mask.departure_observed(e),
        }
    }

    /// Fraction of non-initial events with observed arrivals.
    pub fn observed_arrival_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut observed = 0usize;
        for e in self.truth.event_ids() {
            if self.truth.is_initial_event(e) {
                continue;
            }
            total += 1;
            if self.mask.arrival_observed(e) {
                observed += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            observed as f64 / total as f64
        }
    }

    /// A copy of the log in which every *unobserved* time is NaN.
    ///
    /// Times implied by observations are preserved: an interior departure
    /// is kept when the successor's arrival is observed. This is the log
    /// inference must start from; any NaN reaching arithmetic will
    /// propagate and trip validation, making accidental use of unobserved
    /// truth loud.
    pub fn scrubbed_log(&self) -> EventLog {
        let mut log = self.truth.clone();
        // Scrub free arrivals (and the tied predecessor departures).
        for e in self.free_arrivals() {
            log.set_transition_time(e, f64::NAN);
        }
        for e in self.free_final_departures() {
            log.set_final_departure(e, f64::NAN);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qni_model::ids::{QueueId, StateId, TaskId};
    use qni_model::log::EventLogBuilder;

    fn log2() -> EventLog {
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(
            1.0,
            &[
                (StateId(1), QueueId(1), 1.0, 2.0),
                (StateId(2), QueueId(2), 2.0, 3.0),
            ],
        )
        .unwrap();
        b.add_task(
            1.5,
            &[
                (StateId(1), QueueId(1), 1.5, 2.5),
                (StateId(2), QueueId(2), 2.5, 3.5),
            ],
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn shape_mismatch_rejected() {
        let log = log2();
        let mask = ObservedMask::unobserved(3);
        assert!(matches!(
            MaskedLog::new(log, mask),
            Err(TraceError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn initial_arrivals_forced_observed() {
        let log = log2();
        let ml = MaskedLog::new(log, ObservedMask::unobserved(6)).unwrap();
        for e in ml.ground_truth().event_ids() {
            if ml.ground_truth().is_initial_event(e) {
                assert!(ml.mask().arrival_observed(e));
            }
        }
    }

    #[test]
    fn free_variables_fully_unobserved() {
        let log = log2();
        let ml = MaskedLog::new(log, ObservedMask::unobserved(6)).unwrap();
        // 4 non-initial events → 4 free arrivals; 2 final departures.
        assert_eq!(ml.free_arrivals().len(), 4);
        assert_eq!(ml.free_final_departures().len(), 2);
        assert_eq!(ml.observed_arrival_fraction(), 0.0);
    }

    #[test]
    fn free_variables_fully_observed() {
        let log = log2();
        let n = log.num_events();
        let ml = MaskedLog::new(log, ObservedMask::fully_observed(n)).unwrap();
        assert!(ml.free_arrivals().is_empty());
        assert!(ml.free_final_departures().is_empty());
        assert_eq!(ml.observed_arrival_fraction(), 1.0);
    }

    #[test]
    fn departure_pinned_via_successor() {
        let log = log2();
        let mut mask = ObservedMask::unobserved(6);
        // Observe task 0's second arrival: pins the first visit's departure.
        let t0 = TaskId(0);
        let e2 = log.task_events(t0)[2];
        mask.observe_arrival(e2);
        let ml = MaskedLog::new(log, mask).unwrap();
        let e1 = ml.ground_truth().task_events(t0)[1];
        assert!(ml.departure_pinned(e1));
        assert!(!ml.departure_pinned(e2)); // Final departure unobserved.
    }

    #[test]
    fn scrubbed_log_nans_only_free_times() {
        let log = log2();
        let mut mask = ObservedMask::unobserved(6);
        let t0 = TaskId(0);
        let e1 = log.task_events(t0)[1];
        let e2 = log.task_events(t0)[2];
        mask.observe_arrival(e1);
        mask.observe_arrival(e2);
        mask.observe_departure(e2);
        let ml = MaskedLog::new(log, mask).unwrap();
        let s = ml.scrubbed_log();
        // Task 0 is fully pinned.
        for &e in s.task_events(t0) {
            assert!(s.arrival(e).is_finite());
            assert!(s.departure(e).is_finite());
        }
        // Task 1 is fully scrubbed except its initial arrival (0.0).
        let t1 = TaskId(1);
        let evs = s.task_events(t1);
        assert_eq!(s.arrival(evs[0]), 0.0);
        assert!(s.departure(evs[0]).is_nan()); // Entry = first arrival: free.
        assert!(s.arrival(evs[1]).is_nan());
        assert!(s.departure(evs[2]).is_nan());
    }

    #[test]
    fn observed_fraction_counts_non_initial_only() {
        let log = log2();
        let mut mask = ObservedMask::unobserved(6);
        let e = log.task_events(TaskId(0))[1];
        mask.observe_arrival(e);
        let ml = MaskedLog::new(log, mask).unwrap();
        assert!((ml.observed_arrival_fraction() - 0.25).abs() < 1e-12);
    }
}
