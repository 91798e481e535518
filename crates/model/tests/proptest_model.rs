//! Property-based tests of model-layer invariants.

use proptest::prelude::*;
use qni_model::constraints::validate;
use qni_model::ids::{QueueId, StateId, TaskId};
use qni_model::log::EventLogBuilder;

/// Strategy: a random one-queue schedule built directly from service and
/// interarrival gaps (always valid by construction).
fn gapped_schedule() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let n = 1usize..12;
    n.prop_flat_map(|n| {
        (
            prop::collection::vec(0.01f64..2.0, n), // Interarrival gaps.
            prop::collection::vec(0.0f64..2.0, n),  // Service times.
        )
    })
}

/// Builds a valid single-queue log from gaps via the Lindley recursion.
fn build_log(gaps: &[f64], services: &[f64]) -> qni_model::log::EventLog {
    let mut builder = EventLogBuilder::new(2, StateId(0));
    let mut arrivals = Vec::with_capacity(gaps.len());
    let mut t = 0.0;
    for g in gaps {
        t += g;
        arrivals.push(t);
    }
    let mut prev_dep: f64 = 0.0;
    for (i, &a) in arrivals.iter().enumerate() {
        let begin = a.max(prev_dep);
        let d = begin + services[i];
        builder
            .add_task(a, &[(StateId(1), QueueId(1), a, d)])
            .expect("valid task");
        prev_dep = d;
    }
    builder.build().expect("buildable")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn constructed_logs_validate((gaps, services) in gapped_schedule()) {
        let log = build_log(&gaps, &services);
        prop_assert!(validate(&log).is_ok());
        // Derived services equal the generating ones.
        let q1: Vec<_> = log.events_at_queue(QueueId(1)).to_vec();
        for (i, &e) in q1.iter().enumerate() {
            prop_assert!((log.service_time(e) - services[i]).abs() < 1e-9);
        }
    }

    /// A log written as its builder inputs and rebuilt is the same log.
    #[test]
    fn serde_round_trip_preserves_log((gaps, services) in gapped_schedule()) {
        let log = build_log(&gaps, &services);
        let json = serde_json::to_string(&log.inputs()).expect("serialize");
        let inputs: qni_model::log::LogInputs =
            serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(inputs.num_events(), log.num_events());
        let back = inputs.build().expect("rebuild");
        prop_assert_eq!(log.num_events(), back.num_events());
        for e in log.event_ids() {
            prop_assert_eq!(log.event(e), back.event(e));
            prop_assert_eq!(log.rho(e), back.rho(e));
            prop_assert_eq!(log.pi(e), back.pi(e));
        }
    }

    #[test]
    fn corruption_is_always_detected(
        (gaps, services) in gapped_schedule(),
        which in 0usize..3,
        bump in 0.5f64..5.0,
    ) {
        // Corrupt one time by a large amount; the validator must notice
        // (unless the log has a single task and the corruption hits the
        // final departure, which has slack upward).
        let mut log = build_log(&gaps, &services);
        let n = log.num_tasks();
        if n < 2 {
            return Ok(());
        }
        let k = TaskId::from_index(which % n);
        let events: Vec<_> = log.task_events(k).to_vec();
        let e = events[1];
        match which % 3 {
            0 => {
                // Move an arrival far ahead of its own departure.
                let d = log.departure(e);
                log.set_transition_time(e, d + bump);
            }
            1 => {
                // Move a final departure before its arrival.
                let a = log.arrival(e);
                log.set_final_departure(e, a - bump);
            }
            _ => {
                // Break the q0 entry order (if there is an earlier task).
                let a = log.arrival(e);
                log.set_transition_time(e, (a - 100.0 * bump).max(-1.0));
            }
        }
        prop_assert!(validate(&log).is_err());
    }

    #[test]
    fn queue_averages_match_manual((gaps, services) in gapped_schedule()) {
        let log = build_log(&gaps, &services);
        let avg = log.queue_averages();
        let mean_s: f64 = services.iter().sum::<f64>() / services.len() as f64;
        prop_assert!((avg[1].mean_service - mean_s).abs() < 1e-9);
        prop_assert_eq!(avg[1].count, services.len());
    }
}
