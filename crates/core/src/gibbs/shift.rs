//! The task-shift move: a translation-group Gibbs update.
//!
//! Single-site arrival moves change one transition time at a time, so a
//! task whose times are all unobserved performs a slow random walk: each
//! of its service intervals must shrink/grow one endpoint per sweep. This
//! move translates *all* free times of a fully-unobserved task by a
//! common `δ`, sampled exactly from the conditional density of the
//! shifted configuration — a one-dimensional Gibbs update along the
//! translation group (Liu & Sabatti-style), with unit Jacobian, hence a
//! valid MCMC move targeting the same posterior.
//!
//! The conditional over `δ` is again piecewise log-linear:
//!
//! - the task's *internal* services are translation-invariant (both
//!   endpoints shift), contributing nothing;
//! - a task service whose within-queue predecessor is *outside* the task
//!   contributes slope `−µ` while the queue is still busy at the shifted
//!   arrival (`δ` below the breakpoint `d_ρ − a_e`), 0 after;
//! - the entry gap (`q0` service) contributes a constant `−λ`;
//! - each *outside* event `f` whose queue predecessor is in the task
//!   contributes slope `+µ_f` once `δ` exceeds `a_f − d_ρ(f)` (the
//!   shifted departure starts eating into `f`'s service);
//! - support bounds come from keeping every affected service non-negative
//!   and every queue's arrival order intact.
//!
//! This move is an extension beyond the paper (which uses single-site
//! moves only); the `ablation_shift` harness measures its effect on
//! mixing.

use crate::error::InferenceError;
use qni_model::ids::{EventId, TaskId};
use qni_model::log::EventLog;
use qni_stats::piecewise::{PiecewiseExpDensity, PiecewiseScratch};
use rand::Rng;

/// The conditional over the shift `δ` for one task.
#[derive(Debug, Clone)]
pub struct ShiftConditional {
    /// Smallest feasible shift.
    pub lower: f64,
    /// Largest feasible shift (may be `+inf` for the last task).
    pub upper: f64,
    /// Normalized density over `δ` (`None` for a point support).
    pub density: Option<PiecewiseExpDensity>,
}

impl ShiftConditional {
    /// Draws a shift from the conditional.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match &self.density {
            Some(d) => d.sample(rng),
            None => self.lower,
        }
    }
}

/// Reusable buffers of the shift move: the slope changes collected while
/// scanning a task, and the sorted breakpoints and per-segment slopes
/// built from them. A sweep owns one, so its shift moves allocate nothing
/// once the buffers have grown to the longest task.
#[derive(Debug, Clone, Default)]
pub struct ShiftScratch {
    /// `(breakpoint, slope change applied above it)` pairs.
    changes: Vec<(f64, f64)>,
    /// Sorted interior breakpoints.
    breaks: Vec<f64>,
    /// Per-segment slopes (one more than `breaks`).
    slopes: Vec<f64>,
}

/// The support and slope structure of one shift conditional, with its
/// breakpoints and slopes borrowed from a [`ShiftScratch`].
///
/// Produced by [`shift_inputs`]; both the owned oracle
/// ([`shift_conditional`]) and the sweep path ([`resample_shift`]) build
/// their density from these same inputs, so the two are bit-identical by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShiftInputs<'a> {
    /// Smallest feasible shift.
    pub lower: f64,
    /// Largest feasible shift (may be `+inf` for the last task).
    pub upper: f64,
    /// Sorted interior breakpoints.
    pub breaks: &'a [f64],
    /// Per-segment slopes (one more than `breaks`).
    pub slopes: &'a [f64],
}

/// The support classification of one shift move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ShiftSupport<'a> {
    /// The support is (numerically) a single point: the move shifts by
    /// the first field and consumes no randomness. The second field is
    /// the recorded upper bound.
    Point(f64, f64),
    /// A proper interval with its slope structure.
    Interval(ShiftInputs<'a>),
}

/// Whether every time of task `k` is free (all non-initial arrivals and
/// the final departure unobserved). Only such tasks may shift rigidly.
pub fn task_fully_free(masked: &qni_trace::MaskedLog, k: TaskId) -> bool {
    let log = masked.ground_truth();
    let events = log.task_events(k);
    let arrivals_free = events[1..]
        .iter()
        .all(|&e| !masked.mask().arrival_observed(e));
    let last = *events.last().expect("tasks are non-empty"); // qni-lint: allow(QNI-E002) — TaskLog validates tasks non-empty at construction
    arrivals_free && !masked.mask().departure_observed(last)
}

/// Computes the support and slope structure of task `k`'s shift
/// conditional, writing the breakpoints and slopes into `scratch`.
///
/// `k` must be fully free (the caller guarantees it; the move would
/// otherwise displace observed data). Errors if `rates` does not have
/// one entry per queue, if the support is empty (constraint corruption),
/// or if it is unbounded above with a non-decaying density.
pub(crate) fn shift_inputs<'a>(
    log: &EventLog,
    rates: &[f64],
    k: TaskId,
    scratch: &'a mut ShiftScratch,
) -> Result<ShiftSupport<'a>, InferenceError> {
    if rates.len() != log.num_queues() {
        return Err(InferenceError::RateShapeMismatch {
            expected: log.num_queues(),
            actual: rates.len(),
        });
    }
    let events = log.task_events(k);
    let in_task = |e: EventId| log.task_of(e) == k;
    let ShiftScratch {
        changes,
        breaks,
        slopes,
    } = scratch;
    changes.clear();
    breaks.clear();
    slopes.clear();

    let mut lower = f64::NEG_INFINITY;
    let mut upper = f64::INFINITY;
    // Slope contributions: (breakpoint, delta-slope applied above it),
    // plus a base slope active on the whole support.
    let mut base_slope = 0.0f64;
    for &e in events {
        let mu_e = rates[log.queue_of(e).index()];
        let a_e = log.arrival(e);
        let d_e = log.departure(e);
        let rho = log.rho(e);
        let a_shifts = !log.is_initial_event(e);
        match rho {
            Some(r) if in_task(r) => {
                // Both endpoints of the max shift: service invariant.
            }
            Some(r) => {
                let d_r = log.departure(r);
                // s_e(δ) = d_e + δ − max(a_e + [a_shifts]δ, d_r).
                if a_shifts {
                    // Slope −µ_e while a_e + δ < d_r, 0 after.
                    let brk = d_r - a_e;
                    base_slope -= mu_e;
                    changes.push((brk, mu_e));
                    // s ≥ 0 ⟺ d_e + δ ≥ d_r.
                    lower = lower.max(d_r - d_e);
                    // Arrival order vs the out-of-task predecessor.
                    lower = lower.max(log.arrival(r) - a_e);
                } else {
                    // Initial event: a = 0 fixed, max = d_r throughout.
                    base_slope -= mu_e;
                    lower = lower.max(d_r - d_e);
                }
            }
            None => {
                if a_shifts {
                    // Service d_e − a_e invariant.
                } else {
                    // First task's entry gap: s = d_e + δ − 0.
                    base_slope -= mu_e;
                    lower = lower.max(-d_e);
                }
            }
        }
        // Outside successor at the same queue.
        if let Some(f) = log.rho_inv(e) {
            if !in_task(f) {
                let mu_f = rates[log.queue_of(f).index()];
                let a_f = log.arrival(f);
                let d_f = log.departure(f);
                // s_f(δ) = d_f − max(a_f, d_e + δ): slope +µ_f once
                // d_e + δ > a_f.
                changes.push((a_f - d_e, mu_f));
                // s_f ≥ 0 ⟺ d_e + δ ≤ d_f.
                upper = upper.min(d_f - d_e);
                // Arrival order vs the out-of-task successor.
                if a_shifts {
                    upper = upper.min(a_f - a_e);
                }
            }
        }
    }

    if upper < lower {
        if upper > lower - 1e-9 {
            return Ok(ShiftSupport::Point(lower, lower));
        }
        return Err(InferenceError::EmptySupport {
            event: events[0],
            lower,
            upper,
        });
    }
    if upper - lower < super::arrival::DEGENERATE_WIDTH {
        return Ok(ShiftSupport::Point(lower, upper));
    }
    // Fold sub-lower breakpoints into the base slope, drop super-upper
    // ones, and lay out the sorted breakpoints and running slopes.
    changes.retain(|&(brk, delta)| {
        if brk <= lower {
            base_slope += delta;
            false
        } else {
            brk < upper
        }
    });
    changes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut slope = base_slope;
    slopes.push(slope);
    for &(brk, delta) in changes.iter() {
        breaks.push(brk);
        slope += delta;
        slopes.push(slope);
    }
    // An unbounded upper support requires a decaying final slope; the last
    // task's entry-gap term (−λ) guarantees it, but guard anyway.
    if upper.is_infinite() && slope >= 0.0 {
        return Err(InferenceError::BadMoveTarget {
            event: events[0],
            what: "unbounded shift with non-decaying density",
        });
    }
    Ok(ShiftSupport::Interval(ShiftInputs {
        lower,
        upper,
        breaks,
        slopes,
    }))
}

/// Builds the shift conditional for task `k`.
///
/// Built from the same inputs as [`resample_shift`], so the two draw
/// bit-identical values; kept as the oracle the sweep path is tested
/// against.
pub fn shift_conditional(
    log: &EventLog,
    rates: &[f64],
    k: TaskId,
) -> Result<ShiftConditional, InferenceError> {
    match shift_inputs(log, rates, k, &mut ShiftScratch::default())? {
        ShiftSupport::Point(lower, upper) => Ok(ShiftConditional {
            lower,
            upper,
            density: None,
        }),
        ShiftSupport::Interval(inputs) => {
            let density = PiecewiseExpDensity::continuous_from_slopes(
                inputs.lower,
                inputs.upper,
                inputs.breaks,
                inputs.slopes,
            )?;
            Ok(ShiftConditional {
                lower: inputs.lower,
                upper: inputs.upper,
                density: Some(density),
            })
        }
    }
}

/// Applies a shift `δ` to all free times of task `k`.
pub fn apply_shift(log: &mut EventLog, k: TaskId, delta: f64) {
    // Tasks are non-empty (validated at construction); indexing afresh
    // each step keeps the event list borrowed only between writes.
    let n = log.task_events(k).len();
    for i in 1..n {
        let e = log.task_events(k)[i];
        let a = log.arrival(e);
        log.set_transition_time(e, a + delta);
    }
    let last = log.task_events(k)[n - 1];
    let d = log.departure(last);
    log.set_final_departure(last, d + delta);
}

/// Samples a shift for task `k` and applies it; returns `δ`.
///
/// The breakpoints go into `scratch` and the density into `pw`, so a
/// steady-state move allocates nothing. Draws the same bits, and
/// consumes the RNG identically, as sampling [`shift_conditional`] and
/// then calling [`apply_shift`].
pub fn resample_shift<R: Rng + ?Sized>(
    log: &mut EventLog,
    rates: &[f64],
    k: TaskId,
    scratch: &mut ShiftScratch,
    pw: &mut PiecewiseScratch,
    rng: &mut R,
) -> Result<f64, InferenceError> {
    let delta = match shift_inputs(log, rates, k, scratch)? {
        ShiftSupport::Point(lower, _) => lower,
        ShiftSupport::Interval(inputs) => {
            pw.rebuild_continuous(inputs.lower, inputs.upper, inputs.breaks, inputs.slopes)?;
            pw.sample(rng)
        }
    };
    apply_shift(log, k, delta);
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::numeric::service_log_joint;
    use qni_model::ids::{QueueId, StateId};
    use qni_model::log::EventLogBuilder;
    use qni_stats::rng::rng_from_seed;

    /// Three tasks through two queues with interleaving at both queues.
    fn setup() -> (EventLog, Vec<f64>) {
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(
            0.5,
            &[
                (StateId(1), QueueId(1), 0.5, 1.0),
                (StateId(2), QueueId(2), 1.0, 3.0),
            ],
        )
        .unwrap();
        b.add_task(
            1.0,
            &[
                (StateId(1), QueueId(1), 1.0, 2.0),
                (StateId(2), QueueId(2), 2.0, 3.8),
            ],
        )
        .unwrap();
        b.add_task(
            2.5,
            &[
                (StateId(1), QueueId(1), 2.5, 3.5),
                (StateId(2), QueueId(2), 3.5, 4.5),
            ],
        )
        .unwrap();
        let log = b.build().unwrap();
        qni_model::constraints::validate(&log).unwrap();
        (log, vec![2.0, 3.0, 1.5])
    }

    #[test]
    fn shift_conditional_matches_numeric() {
        let (log, rates) = setup();
        for k in 0..3u32 {
            let k = TaskId(k);
            let cond = shift_conditional(&log, &rates, k).unwrap();
            let Some(density) = &cond.density else {
                continue;
            };
            // Numeric check: apply shifts on a grid, evaluate the joint.
            let hi = if cond.upper.is_finite() {
                cond.upper
            } else {
                cond.lower + 5.0
            };
            let n = 400;
            let h = (hi - cond.lower) / n as f64;
            let mut lj = Vec::with_capacity(n);
            let mut grid = Vec::with_capacity(n);
            for i in 0..n {
                let delta = cond.lower + (i as f64 + 0.5) * h;
                let mut work = log.clone();
                apply_shift(&mut work, k, delta);
                grid.push(delta);
                lj.push(service_log_joint(&work, &rates));
            }
            let m = lj.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let unnorm: Vec<f64> = lj.iter().map(|&v| (v - m).exp()).collect();
            let total: f64 = unnorm.iter().sum::<f64>() * h;
            for (i, &delta) in grid.iter().enumerate() {
                let numeric = unnorm[i] / total;
                // Renormalize the analytic density to the same truncated
                // range when the support is infinite.
                let exact = if cond.upper.is_finite() {
                    density.log_pdf(delta).exp()
                } else {
                    let mass = density.cdf(hi);
                    density.log_pdf(delta).exp() / mass
                };
                assert!(
                    (exact - numeric).abs() < 0.03 * numeric.max(1.0),
                    "task {k}: δ={delta}, exact={exact}, numeric={numeric}"
                );
            }
        }
    }

    #[test]
    fn shift_moves_preserve_validity() {
        let (mut log, rates) = setup();
        let mut rng = rng_from_seed(1);
        let mut scratch = ShiftScratch::default();
        let mut pw = PiecewiseScratch::new();
        for _ in 0..1000 {
            for k in 0..3u32 {
                resample_shift(&mut log, &rates, TaskId(k), &mut scratch, &mut pw, &mut rng)
                    .unwrap();
                qni_model::constraints::validate(&log).unwrap();
            }
        }
    }

    /// Three zero-service tasks entering together: the middle task is
    /// pinned between its neighbours, so its shift support is the point
    /// `[0, 0]` until a neighbour moves.
    fn point_log() -> EventLog {
        let mut b = EventLogBuilder::new(2, StateId(0));
        for _ in 0..3 {
            b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 1.0)])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn sweep_path_matches_oracle_bitwise() {
        // A seeded chain of shift moves: the scratch path must draw the
        // same bits as the owned conditional + apply_shift, move after
        // move. Task 0 carries the first task's entry gap, the last task
        // an unbounded support, and the point fixture a pinned task.
        let (setup_log, rates) = setup();
        let (mut bounded, mut tails, mut points) = (0, 0, 0);
        for (log, seed) in [(setup_log, 21u64), (point_log(), 22)] {
            let rates = &rates[..log.num_queues()];
            let mut oracle = log.clone();
            let mut work = log;
            let mut ra = rng_from_seed(seed);
            let mut rb = rng_from_seed(seed);
            let mut scratch = ShiftScratch::default();
            let mut pw = PiecewiseScratch::new();
            for _ in 0..200 {
                // Task 1 moves first, while the point fixture still pins it.
                let n = oracle.num_tasks();
                for k in (0..n).map(|i| TaskId::from_index((i + 1) % n)) {
                    let c = shift_conditional(&oracle, rates, k).unwrap();
                    match (&c.density, c.upper.is_finite()) {
                        (None, _) => points += 1,
                        (Some(_), true) => bounded += 1,
                        (Some(_), false) => tails += 1,
                    }
                    let want = c.sample(&mut ra);
                    apply_shift(&mut oracle, k, want);
                    let got = resample_shift(&mut work, rates, k, &mut scratch, &mut pw, &mut rb)
                        .unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "task {k}");
                }
            }
            for e in oracle.event_ids() {
                assert_eq!(oracle.arrival(e).to_bits(), work.arrival(e).to_bits());
                assert_eq!(oracle.departure(e).to_bits(), work.departure(e).to_bits());
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
        fn parity(log: &EventLog, rates: &[f64], k: TaskId) {
            let want = shift_conditional(log, rates, k).unwrap_err();
            let mut work = log.clone();
            let mut scratch = ShiftScratch::default();
            let mut pw = PiecewiseScratch::new();
            let got = resample_shift(
                &mut work,
                rates,
                k,
                &mut scratch,
                &mut pw,
                &mut rng_from_seed(1),
            )
            .unwrap_err();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            for e in log.event_ids() {
                assert_eq!(work.arrival(e).to_bits(), log.arrival(e).to_bits());
                assert_eq!(work.departure(e).to_bits(), log.departure(e).to_bits());
            }
        }
        let (log, rates) = setup();
        // RateShapeMismatch.
        parity(&log, &rates[..2], TaskId(1));
        // EmptySupport: task 0 now leaves queue 2 after task 1 does.
        let mut broken = log.clone();
        broken.set_final_departure(log.task_events(TaskId(0))[2], 5.0);
        let err = shift_conditional(&broken, &rates, TaskId(1)).unwrap_err();
        assert!(matches!(err, InferenceError::EmptySupport { .. }));
        parity(&broken, &rates, TaskId(1));
        // BadMoveTarget: with λ = 0 a lone task's unbounded shift does
        // not decay.
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 1.5)])
            .unwrap();
        let lone = b.build().unwrap();
        let err = shift_conditional(&lone, &[0.0, 3.0], TaskId(0)).unwrap_err();
        assert!(matches!(err, InferenceError::BadMoveTarget { .. }));
        parity(&lone, &[0.0, 3.0], TaskId(0));
    }

    #[test]
    fn internal_services_are_invariant() {
        let (mut log, rates) = setup();
        let k = TaskId(1);
        let before: Vec<f64> = log
            .task_events(k)
            .iter()
            .map(|&e| log.response_time(e))
            .collect();
        let cond = shift_conditional(&log, &rates, k).unwrap();
        let delta = (cond.lower + cond.upper.min(cond.lower + 1.0)) / 2.0 - cond.lower;
        apply_shift(&mut log, k, delta.clamp(0.0, 0.05));
        let after: Vec<f64> = log
            .task_events(k)
            .iter()
            .map(|&e| log.response_time(e))
            .collect();
        // Response times within the task are translation-invariant
        // (except the initial event's, which *is* the entry gap).
        for (b, a) in before.iter().zip(&after).skip(1) {
            assert!((b - a).abs() < 1e-9);
        }
    }

    #[test]
    fn single_task_shift_is_entry_resample() {
        // One task alone: the shift conditional is an exponential in the
        // entry gap — shifting right costs e^{−λδ}.
        let mut b = EventLogBuilder::new(2, StateId(0));
        b.add_task(1.0, &[(StateId(1), QueueId(1), 1.0, 1.5)])
            .unwrap();
        let log = b.build().unwrap();
        let rates = vec![2.0, 3.0];
        let cond = shift_conditional(&log, &rates, TaskId(0)).unwrap();
        assert_eq!(cond.lower, -1.0); // Entry can move to 0.
        assert_eq!(cond.upper, f64::INFINITY);
        let d = cond.density.unwrap();
        // Pure Exp(λ = 2) tail starting at −1.
        let mut rng = rng_from_seed(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - (-1.0 + 0.5)).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn fully_free_detection() {
        use qni_model::topology::tandem;
        use qni_sim::{Simulator, Workload};
        use qni_trace::ObservationScheme;
        let bp = tandem(2.0, &[5.0]).unwrap();
        let mut rng = rng_from_seed(3);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 50).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        let free_count = (0..50)
            .filter(|&k| task_fully_free(&masked, TaskId::from_index(k)))
            .count();
        let observed = crate::baseline::observed_task_count(&masked);
        assert_eq!(free_count + observed, 50);
    }
}
