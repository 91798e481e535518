//! The final-departure move.
//!
//! A task's last departure `x = d_e` is a free variable with no tied
//! arrival. Only two service times involve it:
//!
//! 1. `s_e = x − max(a_e, d_{ρ(e)})` — slope `−µ_e` throughout;
//! 2. `s_F = d_F − max(a_F, x)` for `F = ρ⁻¹(e)` — slope `+µ_e` once
//!    `x > a_F`.
//!
//! Support: `[max(a_e, d_{ρ(e)}), d_F]`, or `[·, ∞)` when `e` is its
//! queue's last event (the density is then a pure exponential tail).

use crate::error::InferenceError;
use qni_model::ids::EventId;
use qni_model::log::EventLog;
use qni_stats::piecewise::{PiecewiseExpDensity, PiecewiseScratch};
use rand::Rng;

/// The conditional distribution of one final-departure move.
#[derive(Debug, Clone)]
pub struct FinalConditional {
    /// Lower support bound.
    pub lower: f64,
    /// Upper support bound (`+inf` when `e` is last in its queue).
    pub upper: f64,
    /// The normalized density (`None` for a point support).
    pub density: Option<PiecewiseExpDensity>,
}

impl FinalConditional {
    /// Draws a value from the conditional.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match &self.density {
            Some(d) => d.sample(rng),
            None => self.lower,
        }
    }
}

/// The raw ingredients of one final-departure conditional: the support
/// and the slope structure of its piecewise log-linear density (at most
/// one interior breakpoint), held in fixed-size arrays.
///
/// Produced by [`final_inputs`]; both the owned oracle
/// ([`final_conditional`]) and the sweep path ([`resample_final`]) build
/// their density from these same inputs, so the two are bit-identical by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FinalInputs {
    /// Lower support bound.
    pub lower: f64,
    /// Upper support bound (`+inf` when `e` is last in its queue).
    pub upper: f64,
    breaks: [f64; 1],
    slopes: [f64; 2],
    /// Number of live breakpoints (0 or 1).
    n: usize,
}

impl FinalInputs {
    /// The sorted interior breakpoints.
    pub(crate) fn breaks(&self) -> &[f64] {
        &self.breaks[..self.n]
    }

    /// The per-segment slopes (one more than the breakpoints).
    pub(crate) fn slopes(&self) -> &[f64] {
        &self.slopes[..self.n + 1]
    }
}

/// The support classification of one final-departure move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FinalSupport {
    /// The support is (numerically) a single point: the move places the
    /// departure at the first field and consumes no randomness. The
    /// second field is the recorded upper bound.
    Point(f64, f64),
    /// A proper interval with its slope structure.
    Interval(FinalInputs),
}

/// Computes the support and slope structure of event `e`'s final-departure
/// conditional from the current log, allocation-free.
///
/// Errors if `e` is not a final event, if `rates` does not have one entry
/// per queue, or if the current state leaves an empty support (which
/// indicates constraint corruption).
pub(crate) fn final_inputs(
    log: &EventLog,
    rates: &[f64],
    e: EventId,
) -> Result<FinalSupport, InferenceError> {
    if !log.is_final_event(e) {
        return Err(InferenceError::BadMoveTarget {
            event: e,
            what: "interior departures are owned by the successor's arrival",
        });
    }
    if rates.len() != log.num_queues() {
        return Err(InferenceError::RateShapeMismatch {
            expected: log.num_queues(),
            actual: rates.len(),
        });
    }
    let mu = rates[log.queue_of(e).index()];
    let lower = log.begin_service(e);
    let next = log.rho_inv(e);
    let upper = next.map_or(f64::INFINITY, |f| log.departure(f));
    if upper < lower {
        if upper > lower - 1e-9 {
            return Ok(FinalSupport::Point(lower, lower));
        }
        return Err(InferenceError::EmptySupport {
            event: e,
            lower,
            upper,
        });
    }
    if upper - lower < super::arrival::DEGENERATE_WIDTH {
        return Ok(FinalSupport::Point(lower, upper));
    }
    // Base slope −µ; +µ activates at a_F.
    let mut inputs = FinalInputs {
        lower,
        upper,
        breaks: [0.0],
        slopes: [-mu, 0.0],
        n: 0,
    };
    if let Some(f) = next {
        let b = log.arrival(f);
        if b <= lower {
            inputs.slopes[0] += mu;
        } else if b < upper {
            inputs.breaks[0] = b;
            inputs.slopes[1] = inputs.slopes[0] + mu;
            inputs.n = 1;
        }
        // b ≥ upper cannot happen: a_F ≤ d_F = upper by validity.
    }
    Ok(FinalSupport::Interval(inputs))
}

/// Builds the conditional for resampling event `e`'s final departure.
///
/// Built from the same inputs as [`resample_final`], so the two draw
/// bit-identical values; kept as the oracle the sweep path is tested
/// against.
pub fn final_conditional(
    log: &EventLog,
    rates: &[f64],
    e: EventId,
) -> Result<FinalConditional, InferenceError> {
    match final_inputs(log, rates, e)? {
        FinalSupport::Point(lower, upper) => Ok(FinalConditional {
            lower,
            upper,
            density: None,
        }),
        FinalSupport::Interval(inputs) => {
            let density = PiecewiseExpDensity::continuous_from_slopes(
                inputs.lower,
                inputs.upper,
                inputs.breaks(),
                inputs.slopes(),
            )?;
            Ok(FinalConditional {
                lower: inputs.lower,
                upper: inputs.upper,
                density: Some(density),
            })
        }
    }
}

/// Resamples event `e`'s final departure in place; returns the new value.
///
/// The density is built into `pw`, so a steady-state move allocates
/// nothing. Draws the same bits, and consumes the RNG identically, as
/// sampling [`final_conditional`].
pub fn resample_final<R: Rng + ?Sized>(
    log: &mut EventLog,
    rates: &[f64],
    e: EventId,
    pw: &mut PiecewiseScratch,
    rng: &mut R,
) -> Result<f64, InferenceError> {
    let x = match final_inputs(log, rates, e)? {
        FinalSupport::Point(lower, _) => lower,
        FinalSupport::Interval(inputs) => {
            pw.rebuild_continuous(inputs.lower, inputs.upper, inputs.breaks(), inputs.slopes())?;
            pw.sample(rng)
        }
    };
    log.set_final_departure(e, x);
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::numeric::numeric_final_grid;
    use qni_model::ids::{QueueId, StateId, TaskId};
    use qni_model::log::EventLogBuilder;
    use qni_stats::rng::rng_from_seed;

    fn two_task_log() -> EventLog {
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 2.0)])
            .unwrap();
        b.add_task(1.5, &[(StateId(1), QueueId(1), 1.5, 3.0)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rejects_non_final() {
        let log = two_task_log();
        let rates = vec![1.0, 2.0];
        let init = log.task_events(TaskId(0))[0];
        assert!(matches!(
            final_conditional(&log, &rates, init),
            Err(InferenceError::BadMoveTarget { .. })
        ));
    }

    #[test]
    fn bounded_case_matches_numeric() {
        let log = two_task_log();
        let rates = vec![1.0, 2.5];
        // Task 0's final event: F = task 1's event (a=1.5, d=3.0).
        let e = log.task_events(TaskId(0))[1];
        let c = final_conditional(&log, &rates, e).unwrap();
        assert_eq!(c.lower, 1.0); // begin = max(1.0, no ρ) = 1.0.
        assert_eq!(c.upper, 3.0);
        let d = c.density.clone().unwrap();
        // Two segments: slope −µ on (1.0, 1.5), slope 0 on (1.5, 3.0).
        assert_eq!(d.segments().len(), 2);
        assert!((d.segments()[0].slope + 2.5).abs() < 1e-12);
        assert!(d.segments()[1].slope.abs() < 1e-12);
        let (grid, numeric) = numeric_final_grid(&log, &rates, e, 400, 3.0).unwrap();
        for (i, &x) in grid.iter().enumerate() {
            let exact = d.log_pdf(x).exp();
            assert!(
                (exact - numeric[i]).abs() < 0.02 * numeric[i].max(1.0),
                "x={x}: {exact} vs {}",
                numeric[i]
            );
        }
    }

    #[test]
    fn unbounded_tail_case() {
        let log = two_task_log();
        let rates = vec![1.0, 2.5];
        // Task 1's final event is last in queue: upper = ∞.
        let e = log.task_events(TaskId(1))[1];
        let c = final_conditional(&log, &rates, e).unwrap();
        assert_eq!(c.upper, f64::INFINITY);
        assert_eq!(c.lower, 2.0); // begin = max(1.5, d of task 0 = 2.0).
        let d = c.density.clone().unwrap();
        // Pure exponential tail at rate µ = 2.5: mean lower + 0.4.
        let mut rng = rng_from_seed(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 2.4).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn resample_preserves_validity() {
        let mut log = two_task_log();
        let rates = vec![1.0, 2.5];
        let mut rng = rng_from_seed(4);
        let mut pw = PiecewiseScratch::new();
        for _ in 0..500 {
            for k in 0..2 {
                let e = log.task_events(TaskId::from_index(k))[1];
                resample_final(&mut log, &rates, e, &mut pw, &mut rng).unwrap();
                qni_model::constraints::validate(&log).unwrap();
            }
        }
    }

    /// Two zero-service tasks entering together: task 0's final support
    /// is the point `[1, 1]` until task 1's departure moves.
    fn point_log() -> EventLog {
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 1.0)])
            .unwrap();
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 1.0)])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sweep_path_matches_oracle_bitwise() {
        // A seeded chain of final moves: the scratch path must draw the
        // same bits as the owned conditional, move after move, across
        // bounded finals, unbounded tails and point supports.
        let rates = vec![1.0, 2.5];
        let (mut bounded, mut tails, mut points) = (0, 0, 0);
        for (log, seed) in [(two_task_log(), 11u64), (point_log(), 12)] {
            let mut oracle = log.clone();
            let mut work = log;
            let mut ra = rng_from_seed(seed);
            let mut rb = rng_from_seed(seed);
            let mut pw = PiecewiseScratch::new();
            for _ in 0..200 {
                for k in 0..oracle.num_tasks() {
                    let e = oracle.task_events(TaskId::from_index(k))[1];
                    let c = final_conditional(&oracle, &rates, e).unwrap();
                    match (&c.density, c.upper.is_finite()) {
                        (None, _) => points += 1,
                        (Some(_), true) => bounded += 1,
                        (Some(_), false) => tails += 1,
                    }
                    let want = c.sample(&mut ra);
                    oracle.set_final_departure(e, want);
                    let got = resample_final(&mut work, &rates, e, &mut pw, &mut rb).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "event {e}");
                }
            }
            assert_eq!(
                ra.random::<u64>(),
                rb.random::<u64>(),
                "RNG streams diverged"
            );
        }
        assert!(bounded > 0 && tails > 0 && points > 0);
    }

    #[test]
    fn sweep_path_errors_match_oracle() {
        fn parity(log: &EventLog, rates: &[f64], e: EventId) {
            let want = final_conditional(log, rates, e).unwrap_err();
            let mut work = log.clone();
            let mut pw = PiecewiseScratch::new();
            let got =
                resample_final(&mut work, rates, e, &mut pw, &mut rng_from_seed(1)).unwrap_err();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(work.departure(e).to_bits(), log.departure(e).to_bits());
        }
        let log = two_task_log();
        let bounded = log.task_events(TaskId(0))[1];
        let tail = log.task_events(TaskId(1))[1];
        // BadMoveTarget: an initial event is not a final departure.
        parity(&log, &[1.0, 2.5], log.task_events(TaskId(0))[0]);
        // RateShapeMismatch.
        parity(&log, &[1.0], bounded);
        // A zero rate leaves the unbounded tail flat: the density builder
        // rejects it identically on both paths.
        parity(&log, &[1.0, 0.0], tail);
        // EmptySupport: the successor departs before e can begin service.
        let mut broken = log.clone();
        broken.set_final_departure(tail, 0.5);
        let err = final_conditional(&broken, &[1.0, 2.5], bounded).unwrap_err();
        assert!(matches!(err, InferenceError::EmptySupport { .. }));
        parity(&broken, &[1.0, 2.5], bounded);
    }

    #[test]
    fn waiting_successor_makes_uniform_segment() {
        // F arrives before e's service begins (e itself is queued behind
        // an earlier task) → a_F ≤ L → single uniform segment on [L, d_F].
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 2.0)])
            .unwrap();
        b.add_task(1.1, &[(StateId(1), QueueId(1), 1.1, 3.0)])
            .unwrap();
        b.add_task(1.2, &[(StateId(1), QueueId(1), 1.2, 4.0)])
            .unwrap();
        let log = b.build().unwrap();
        let rates = vec![1.0, 2.0];
        // e = task 1's event: begins at max(1.1, 2.0) = 2.0; its successor
        // F (task 2) arrived at 1.2 < 2.0.
        let e = log.task_events(TaskId(1))[1];
        let c = final_conditional(&log, &rates, e).unwrap();
        let d = c.density.unwrap();
        assert_eq!(d.segments().len(), 1);
        assert!(d.segments()[0].slope.abs() < 1e-12);
        assert_eq!(d.segments()[0].lo, 2.0);
        assert_eq!(d.segments()[0].hi, 4.0);
    }
}
