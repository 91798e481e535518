//! Feasible initialization of the Gibbs sampler.
//!
//! The sampler needs starting values for all unobserved times that satisfy
//! every deterministic constraint (§3 of the paper: "initializing the
//! Gibbs sampler requires finding arrival times for the unobserved events
//! that are feasible..."). Two strategies are provided:
//!
//! - [`InitStrategy::Lp`] — the paper's formulation: a linear program
//!   minimizing `Σ_e |s_e − m_{q_e}|` (with `m_q` the target mean service
//!   time) subject to the constraints, solved with `qni-lp`'s simplex.
//!   Exact but dense; intended for small instances.
//! - [`InitStrategy::LongestPath`] — the constraints form a
//!   difference-constraint system over *time slots* (one per transition
//!   `a_e = d_{π(e)}`, one per final departure), so minimal/maximal
//!   feasible completions come from longest-path passes; a forward sweep
//!   then walks the slots in topological order setting each to
//!   `begin + target service`, clamped into its feasibility box. Linear
//!   time, used by default.
//!
//! Both produce logs that pass [`qni_model::constraints::validate`].

mod longest_path;
mod lp;
mod slots;

pub use slots::{SlotKind, SlotMap};

use crate::error::InferenceError;
use qni_model::log::EventLog;
use qni_trace::MaskedLog;

/// Per-event *warm-start* targets for initialization: preferred values
/// for free times, carried over from a previous run on an overlapping
/// log (the streaming engine's window-to-window Gibbs-state handoff).
///
/// `NaN` means "no preference" — the strategy's own target (e.g. the
/// rate-derived service time) applies. Finite entries are treated as
/// *desired* values, not constraints: the longest-path forward sweep
/// clamps each into its feasibility box, so a warm target can never
/// produce an infeasible log. Targets are honored by
/// [`InitStrategy::LongestPath`] with `use_targets = true` (the
/// default); the minimal-completion and LP strategies ignore them.
#[derive(Debug, Clone)]
pub struct WarmTimes {
    /// Desired transition time `a_e = d_{π(e)}` per event (indexed by
    /// event id; entries for initial or observed events are ignored).
    pub transition: Vec<f64>,
    /// Desired final departure per event (only entries for task-final
    /// events are meaningful).
    pub final_departure: Vec<f64>,
}

impl WarmTimes {
    /// A no-preference table for `n` events (all `NaN`).
    pub fn empty(n: usize) -> Self {
        WarmTimes {
            transition: vec![f64::NAN; n],
            final_departure: vec![f64::NAN; n],
        }
    }

    /// Sets the desired transition time of `e`.
    pub fn set_transition(&mut self, e: qni_model::ids::EventId, t: f64) {
        self.transition[e.index()] = t;
    }

    /// Sets the desired final departure of `e`.
    pub fn set_final_departure(&mut self, e: qni_model::ids::EventId, t: f64) {
        self.final_departure[e.index()] = t;
    }

    /// Number of events covered.
    pub fn len(&self) -> usize {
        self.transition.len()
    }

    /// Whether the table covers zero events.
    pub fn is_empty(&self) -> bool {
        self.transition.is_empty()
    }

    /// Number of finite (expressed) preferences.
    pub fn num_set(&self) -> usize {
        self.transition
            .iter()
            .chain(&self.final_departure)
            .filter(|t| t.is_finite())
            .count()
    }
}

/// How to initialize the free times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// Longest-path feasibility box plus a target-service forward sweep.
    ///
    /// With `use_targets = false` the minimal feasible completion is used
    /// directly (useful for tests and worst-case studies).
    LongestPath {
        /// Whether to aim services at `1/rate` within the feasibility box.
        use_targets: bool,
    },
    /// The paper's LP (`min Σ|s_e − m_{q_e}|`). Practical for small
    /// instances only; guarded by a variable-count limit.
    Lp,
}

impl Default for InitStrategy {
    fn default() -> Self {
        InitStrategy::LongestPath { use_targets: true }
    }
}

/// Initializes all free times with the default strategy.
pub fn initialize(masked: &MaskedLog, rates: &[f64]) -> Result<EventLog, InferenceError> {
    initialize_with(masked, rates, InitStrategy::default())
}

/// Initializes all free times with an explicit strategy.
///
/// Returns a complete, constraint-valid event log whose observed times
/// equal the measurements and whose free times are feasible.
pub fn initialize_with(
    masked: &MaskedLog,
    rates: &[f64],
    strategy: InitStrategy,
) -> Result<EventLog, InferenceError> {
    initialize_warm(masked, rates, strategy, None)
}

/// [`initialize_with`] with optional per-event [`WarmTimes`] targets.
///
/// Warm targets replace the rate-derived desired value of the
/// longest-path forward sweep wherever they are finite; they are clamped
/// into the feasibility box exactly like rate targets, so the result is
/// always constraint-valid regardless of how stale the carried times
/// are. Errors if a warm table's shape disagrees with the log.
pub fn initialize_warm(
    masked: &MaskedLog,
    rates: &[f64],
    strategy: InitStrategy,
    warm: Option<&WarmTimes>,
) -> Result<EventLog, InferenceError> {
    let truth_shape = masked.ground_truth();
    if rates.len() != truth_shape.num_queues() {
        return Err(InferenceError::RateShapeMismatch {
            expected: truth_shape.num_queues(),
            actual: rates.len(),
        });
    }
    if let Some(w) = warm {
        if w.transition.len() != truth_shape.num_events()
            || w.final_departure.len() != truth_shape.num_events()
        {
            return Err(InferenceError::BadOptions {
                what: "warm-start times must cover every event of the log",
            });
        }
    }
    let log = match strategy {
        InitStrategy::LongestPath { use_targets } => {
            longest_path::initialize(masked, rates, use_targets, warm)?
        }
        InitStrategy::Lp => lp::initialize(masked, rates)?,
    };
    qni_model::constraints::validate(&log).map_err(qni_model::ModelError::from)?;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qni_model::ids::QueueId;
    use qni_model::topology::{tandem, three_tier};
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;
    use qni_trace::ObservationScheme;

    fn masked_case(frac: f64, tasks: usize, seed: u64) -> (MaskedLog, Vec<f64>) {
        let bp = tandem(2.0, &[5.0, 4.0]).unwrap();
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, tasks).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(frac)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        (masked, bp.network.rates().unwrap())
    }

    #[test]
    fn longest_path_produces_valid_log() {
        let (masked, rates) = masked_case(0.2, 100, 1);
        let log = initialize_with(
            &masked,
            &rates,
            InitStrategy::LongestPath { use_targets: true },
        )
        .unwrap();
        qni_model::constraints::validate(&log).unwrap();
        // Observed times preserved exactly.
        for e in log.event_ids() {
            if masked.mask().arrival_observed(e) {
                assert_eq!(log.arrival(e), masked.ground_truth().arrival(e));
            }
        }
    }

    #[test]
    fn minimal_solution_is_valid_too() {
        let (masked, rates) = masked_case(0.1, 80, 2);
        let log = initialize_with(
            &masked,
            &rates,
            InitStrategy::LongestPath { use_targets: false },
        )
        .unwrap();
        qni_model::constraints::validate(&log).unwrap();
    }

    #[test]
    fn zero_observation_still_initializes() {
        let (masked, rates) = {
            let bp = tandem(2.0, &[5.0]).unwrap();
            let mut rng = rng_from_seed(3);
            let truth = Simulator::new(&bp.network)
                .run(&Workload::poisson_n(2.0, 50).unwrap(), &mut rng)
                .unwrap();
            let masked = ObservationScheme::None.apply(truth, &mut rng).unwrap();
            (masked, bp.network.rates().unwrap())
        };
        let log = initialize(&masked, &rates).unwrap();
        qni_model::constraints::validate(&log).unwrap();
        // With targets, interior services should be near 1/µ = 0.2 where
        // slack allows; check they are not all zero.
        let avg = log.queue_averages();
        assert!(avg[1].mean_service > 0.05, "services collapsed to zero");
    }

    #[test]
    fn full_observation_returns_truth() {
        let (masked, rates) = masked_case(1.0, 60, 4);
        let log = initialize(&masked, &rates).unwrap();
        let truth = masked.ground_truth();
        for e in log.event_ids() {
            assert!((log.arrival(e) - truth.arrival(e)).abs() < 1e-9);
            assert!((log.departure(e) - truth.departure(e)).abs() < 1e-9);
        }
    }

    #[test]
    fn lp_small_instance_valid_and_targets_services() {
        let (masked, rates) = masked_case(0.3, 12, 5);
        let log = initialize_with(&masked, &rates, InitStrategy::Lp).unwrap();
        qni_model::constraints::validate(&log).unwrap();
        for e in log.event_ids() {
            if masked.mask().arrival_observed(e) {
                assert!((log.arrival(e) - masked.ground_truth().arrival(e)).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn lp_objective_not_worse_than_longest_path() {
        // The LP relaxes `begin = max(...)` to `begin ≥ ...`, so at fixed
        // times its optimal deviation variables realize the *shortfall*
        // objective Σ max(0, m − s). The LP minimizes that exactly; the
        // heuristic cannot beat it.
        let (masked, rates) = masked_case(0.3, 10, 6);
        let shortfall = |log: &qni_model::log::EventLog| -> f64 {
            log.event_ids()
                .map(|e| {
                    let m = 1.0 / rates[log.queue_of(e).index()];
                    (m - log.service_time(e)).max(0.0)
                })
                .sum()
        };
        let lp_log = initialize_with(&masked, &rates, InitStrategy::Lp).unwrap();
        let hp_log = initialize_with(
            &masked,
            &rates,
            InitStrategy::LongestPath { use_targets: true },
        )
        .unwrap();
        assert!(shortfall(&lp_log) <= shortfall(&hp_log) + 1e-6);
    }

    #[test]
    fn overloaded_network_initializes() {
        // The paper's overloaded three-tier structure at 5% observation.
        let bp = three_tier(10.0, 5.0, &[1, 2, 4], false).unwrap();
        let mut rng = rng_from_seed(7);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(10.0, 300).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(0.05)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        let rates = bp.network.rates().unwrap();
        let log = initialize(&masked, &rates).unwrap();
        qni_model::constraints::validate(&log).unwrap();
        assert_eq!(log.num_events(), 1200);
        let _ = QueueId(1);
    }

    #[test]
    fn rate_shape_checked() {
        let (masked, _) = masked_case(0.2, 10, 8);
        assert!(matches!(
            initialize(&masked, &[1.0]),
            Err(InferenceError::RateShapeMismatch { .. })
        ));
    }

    /// Two tasks entering together, ordered one way by q0's FIFO
    /// tie-break (task id) and the other by q1's arrival order (earlier
    /// departure first), close a `≤` cycle between their free entries:
    /// the init gives both one value.
    #[test]
    fn tied_free_entries_take_one_value() {
        use qni_model::ids::{StateId, TaskId};
        use qni_model::log::EventLogBuilder;
        use qni_trace::ObservedMask;
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 2.0)])
            .unwrap();
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 1.5)])
            .unwrap();
        let log = b.build().unwrap();
        let mut mask = ObservedMask::unobserved(log.num_events());
        for e in log.event_ids().filter(|&e| log.is_final_event(e)) {
            mask.observe_departure(e);
        }
        let masked = MaskedLog::new(log, mask).unwrap();
        let init = initialize(&masked, &[1.0, 1.0]).unwrap();
        let (a, b) = (init.task_entry(TaskId(0)), init.task_entry(TaskId(1)));
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a <= 1.5, "{a}");
    }

    #[test]
    fn warm_targets_are_reproduced_where_feasible() {
        // Initialize once, treat the result as a "previous Gibbs state",
        // and re-initialize warm: every free time must come back exactly
        // (the carried values are feasible by construction).
        let (masked, rates) = masked_case(0.3, 60, 9);
        let first = initialize_with(&masked, &rates, InitStrategy::default()).unwrap();
        let n = masked.ground_truth().num_events();
        let mut warm = super::WarmTimes::empty(n);
        for e in masked.free_arrivals() {
            warm.set_transition(e, first.arrival(e));
        }
        for e in masked.free_final_departures() {
            warm.set_final_departure(e, first.departure(e));
        }
        assert!(warm.num_set() > 0);
        assert_eq!(warm.len(), n);
        let second =
            initialize_warm(&masked, &rates, InitStrategy::default(), Some(&warm)).unwrap();
        qni_model::constraints::validate(&second).unwrap();
        for e in second.event_ids() {
            assert_eq!(
                second.arrival(e).to_bits(),
                first.arrival(e).to_bits(),
                "arrival of {e} not reproduced by warm init"
            );
            assert_eq!(second.departure(e).to_bits(), first.departure(e).to_bits());
        }
    }

    #[test]
    fn warm_targets_shape_checked_and_clamped() {
        let (masked, rates) = masked_case(0.3, 20, 10);
        // Wrong shape is rejected.
        let bad = super::WarmTimes::empty(3);
        assert!(initialize_warm(&masked, &rates, InitStrategy::default(), Some(&bad)).is_err());
        // Grossly infeasible targets (all zero) still yield a valid log:
        // the forward sweep clamps them into the feasibility box.
        let n = masked.ground_truth().num_events();
        let mut warm = super::WarmTimes::empty(n);
        for e in masked.free_arrivals() {
            warm.set_transition(e, 0.0);
        }
        let log = initialize_warm(&masked, &rates, InitStrategy::default(), Some(&warm)).unwrap();
        qni_model::constraints::validate(&log).unwrap();
    }
}
