//! Stochastic EM (§4 of the paper) and a Monte-Carlo-EM variant.
//!
//! StEM alternates (i) an E-step that replaces the unobserved times with
//! *one* Gibbs sweep and (ii) the closed-form exponential M-step. The
//! iterate sequence `{µ^(t)}` is a Markov chain whose stationary
//! distribution concentrates near the maximum-likelihood estimate; the
//! point estimate reported is the post-burn-in average.
//!
//! Waiting-time estimates are produced as the paper describes: "once a
//! point estimate µ̂ of the mean service times is available, an estimate
//! of the waiting time can be obtained by running the Gibbs sampler with
//! µ̂ fixed".
//!
//! A fit is also the lifetime of its wave pool: when
//! [`StemOptions::shard`] fans out, [`run_stem`] spawns the
//! [`WavePool`]'s helper threads before the first sweep and joins them
//! when it returns, so no thread outlives the call.

use crate::error::InferenceError;
use crate::gibbs::pool::WavePool;
use crate::gibbs::shard::ShardMode;
use crate::gibbs::sweep::{sweep_with_opts_pooled, BatchMode};
use crate::init::InitStrategy;
use crate::mstep;
use crate::state::GibbsState;
use qni_trace::MaskedLog;
use rand::Rng;

/// Options for [`run_stem`].
#[derive(Debug, Clone)]
pub struct StemOptions {
    /// Total StEM iterations (sweep + M-step).
    pub iterations: usize,
    /// Iterations discarded before averaging the rate trace.
    pub burn_in: usize,
    /// Sweeps used for the fixed-µ̂ waiting-time estimation phase.
    pub waiting_sweeps: usize,
    /// Initialization strategy.
    pub init: InitStrategy,
    /// Whether sweeps include the rigid task-shift move (an extension
    /// beyond the paper that sharply improves mixing for fully-unobserved
    /// tasks; disable only for ablation studies).
    pub shift_moves: bool,
    /// How arrival moves are scheduled: batched same-queue groups
    /// (default) or one conditional rebuild per move. See
    /// [`crate::gibbs::batch`] for the engine and its correctness
    /// guarantees.
    pub batch: BatchMode,
    /// How each wave's prepare phase is executed: inline (default) or
    /// sharded across the threads of the fit's
    /// [`crate::gibbs::pool::WavePool`]. Pure performance knob — results
    /// are bit-identical at every shard count (see
    /// [`crate::gibbs::shard`]). Requires [`BatchMode::Grouped`].
    pub shard: ShardMode,
}

impl Default for StemOptions {
    fn default() -> Self {
        StemOptions {
            iterations: 200,
            burn_in: 100,
            waiting_sweeps: 25,
            init: InitStrategy::default(),
            shift_moves: true,
            batch: BatchMode::default(),
            shard: ShardMode::default(),
        }
    }
}

impl StemOptions {
    /// A small, fast configuration for doc tests and smoke tests.
    ///
    /// This is the **single shared quick config**: every doctest in the
    /// workspace and every derived quick constructor (e.g.
    /// [`crate::chains::ParallelStemOptions::quick_test`]) routes through
    /// it, so the iteration budget lives in exactly one place.
    pub fn quick_test() -> Self {
        StemOptions {
            iterations: 30,
            burn_in: 15,
            waiting_sweeps: 5,
            init: InitStrategy::default(),
            shift_moves: true,
            batch: BatchMode::default(),
            shard: ShardMode::default(),
        }
    }

    /// Checks the iteration budget: `iterations` must be positive and
    /// `burn_in` strictly smaller, otherwise the kept-sample window would
    /// be empty ([`InferenceError::EmptyKeptWindow`]). Also rejects a
    /// degenerate sharding configuration, and sharding of the scalar
    /// sweep, which has no waves to shard.
    pub fn validate(&self) -> Result<(), InferenceError> {
        if self.iterations == 0 {
            return Err(InferenceError::BadOptions {
                what: "need at least one StEM iteration",
            });
        }
        if self.burn_in >= self.iterations {
            return Err(InferenceError::EmptyKeptWindow {
                burn_in: self.burn_in,
                iterations: self.iterations,
            });
        }
        self.shard.validate()?;
        if self.batch == BatchMode::Scalar && self.shard != ShardMode::Serial {
            return Err(InferenceError::BadOptions {
                what: "sharded sweeps require the batched (grouped) arrival scheduling",
            });
        }
        Ok(())
    }
}

/// The result of a StEM run.
#[derive(Debug, Clone)]
pub struct StemResult {
    /// Final rate estimates per queue (entry 0 is λ̂).
    pub rates: Vec<f64>,
    /// Mean service estimates `1/µ̂_q` (entry 0 is the mean interarrival).
    pub mean_service: Vec<f64>,
    /// Posterior-mean waiting time per queue at the final rates.
    pub mean_waiting: Vec<f64>,
    /// Posterior-mean (sampled) service time per queue at the final rates
    /// — an alternative to `1/µ̂` that reflects the actual imputed data.
    pub sampled_service: Vec<f64>,
    /// The per-iteration rate trace (one vector per iteration).
    pub rate_trace: Vec<Vec<f64>>,
    /// The final imputed event log (the Gibbs chain's last state, after
    /// the waiting-time phase). This is what the streaming engine carries
    /// into the next window's warm start; it is *moved* out of the
    /// sampler state, so keeping it costs nothing.
    pub final_log: qni_model::log::EventLog,
}

/// Runs stochastic EM on a masked log.
///
/// `initial_rates` defaults to [`heuristic_rates`] when `None`. The log's
/// structural information (paths, per-queue order, observation counts) is
/// taken from the mask as the paper assumes. When `opts.shard` can fan
/// out, the fit builds one [`WavePool`] up front, so every sharded wave
/// of every sweep reuses the same parked workers, and drops it when it
/// returns.
pub fn run_stem<R: Rng + ?Sized>(
    masked: &MaskedLog,
    initial_rates: Option<&[f64]>,
    opts: &StemOptions,
    rng: &mut R,
) -> Result<StemResult, InferenceError> {
    run_stem_warm(masked, initial_rates, None, opts, rng)
}

/// [`run_stem`] with optional warm-start initialization targets for the
/// free times (see [`crate::init::WarmTimes`]), which the streaming
/// engine carries from one window into the next. Warm targets only shape
/// the chain's *starting point* — the stationary distribution and every
/// conditional are unchanged — so they buy faster burn-in on a log that
/// overlaps a previously fitted one without biasing the estimate.
pub(crate) fn run_stem_warm<R: Rng + ?Sized>(
    masked: &MaskedLog,
    initial_rates: Option<&[f64]>,
    warm: Option<&crate::init::WarmTimes>,
    opts: &StemOptions,
    rng: &mut R,
) -> Result<StemResult, InferenceError> {
    opts.validate()?;
    let rates0 = match initial_rates {
        Some(r) => r.to_vec(),
        None => heuristic_rates(masked),
    };
    let mut state = GibbsState::new_warm(masked, rates0, opts.init, warm)?;
    if !opts.shift_moves {
        state = state.with_shiftable_tasks(Vec::new());
    }
    let mut trace: Vec<Vec<f64>> = Vec::with_capacity(opts.iterations);
    // Reused M-step buffer: the only per-iteration allocation left is
    // the recorded trace row itself.
    let mut rates_buf = state.rates().to_vec();
    let workers = opts.shard.workers();
    let mut pool = (workers > 1).then(|| WavePool::new(workers));
    for _ in 0..opts.iterations {
        sweep_with_opts_pooled(&mut state, opts.batch, opts.shard, pool.as_mut(), rng)?;
        mstep::update_rates(&mut rates_buf, state.log())?;
        state.set_rates(&rates_buf)?;
        trace.push(rates_buf.clone());
    }
    // Post-burn-in average.
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
    // Waiting-time phase at fixed µ̂.
    state.set_rates(&rates)?;
    let mut wait_acc = vec![0.0f64; q];
    let mut serv_acc = vec![0.0f64; q];
    let mut avgs = Vec::new();
    let sweeps = opts.waiting_sweeps.max(1);
    for _ in 0..sweeps {
        sweep_with_opts_pooled(&mut state, opts.batch, opts.shard, pool.as_mut(), rng)?;
        state.log().queue_averages_into(&mut avgs);
        for (i, avg) in avgs.iter().enumerate() {
            if avg.count > 0 {
                wait_acc[i] += avg.mean_waiting;
                serv_acc[i] += avg.mean_service;
            }
        }
    }
    let mean_waiting: Vec<f64> = wait_acc.into_iter().map(|w| w / sweeps as f64).collect();
    let sampled_service: Vec<f64> = serv_acc.into_iter().map(|s| s / sweeps as f64).collect();
    let mean_service: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
    Ok(StemResult {
        rates,
        mean_service,
        mean_waiting,
        sampled_service,
        rate_trace: trace,
        final_log: state.log,
    })
}

/// Options for [`run_mcem`].
#[derive(Debug, Clone)]
pub struct McemOptions {
    /// Outer EM iterations.
    pub outer_iterations: usize,
    /// Gibbs sweeps averaged per E-step.
    pub inner_sweeps: usize,
}

impl Default for McemOptions {
    fn default() -> Self {
        McemOptions {
            outer_iterations: 40,
            inner_sweeps: 10,
        }
    }
}

/// Monte-Carlo EM: the E-step averages sufficient statistics over
/// `inner_sweeps` Gibbs sweeps (Wei & Tanner's MCEM, which the paper cites
/// as the slower alternative motivating StEM). It starts from the default
/// [`InitStrategy`] and sweeps with the default grouped arrival moves.
pub fn run_mcem<R: Rng + ?Sized>(
    masked: &MaskedLog,
    initial_rates: Option<&[f64]>,
    opts: &McemOptions,
    rng: &mut R,
) -> Result<StemResult, InferenceError> {
    if opts.outer_iterations == 0 || opts.inner_sweeps == 0 {
        return Err(InferenceError::BadOptions {
            what: "MCEM needs positive outer iterations and inner sweeps",
        });
    }
    let rates0 = match initial_rates {
        Some(r) => r.to_vec(),
        None => heuristic_rates(masked),
    };
    let mut state = GibbsState::new(masked, rates0, InitStrategy::default())?;
    let q = state.log().num_queues();
    let mut trace = Vec::with_capacity(opts.outer_iterations);
    let mut rates_buf = state.rates().to_vec();
    for _ in 0..opts.outer_iterations {
        let mut acc = vec![(0.0f64, 0.0f64); q];
        for _ in 0..opts.inner_sweeps {
            sweep_with_opts_pooled(&mut state, BatchMode::Grouped, ShardMode::Serial, None, rng)?;
            for (i, (n, sum)) in state
                .log()
                .service_sufficient_stats()
                .into_iter()
                .enumerate()
            {
                acc[i].0 += n as f64;
                acc[i].1 += sum;
            }
        }
        for (r, m) in rates_buf.iter_mut().zip(mstep::mle_rates_from_stats(&acc)) {
            if let Some(v) = m {
                *r = v;
            }
        }
        state.set_rates(&rates_buf)?;
        trace.push(rates_buf.clone());
    }
    // The last M-step's rates; waiting estimation identical to StEM.
    let rates = rates_buf;
    state.set_rates(&rates)?;
    let mut wait_acc = vec![0.0f64; q];
    let mut serv_acc = vec![0.0f64; q];
    let mut avgs = Vec::new();
    let sweeps_n = opts.inner_sweeps;
    for _ in 0..sweeps_n {
        sweep_with_opts_pooled(&mut state, BatchMode::Grouped, ShardMode::Serial, None, rng)?;
        state.log().queue_averages_into(&mut avgs);
        for (i, avg) in avgs.iter().enumerate() {
            if avg.count > 0 {
                wait_acc[i] += avg.mean_waiting;
                serv_acc[i] += avg.mean_service;
            }
        }
    }
    Ok(StemResult {
        mean_service: rates.iter().map(|r| 1.0 / r).collect(),
        mean_waiting: wait_acc.into_iter().map(|w| w / sweeps_n as f64).collect(),
        sampled_service: serv_acc.into_iter().map(|s| s / sweeps_n as f64).collect(),
        rates,
        rate_trace: trace,
        final_log: state.log,
    })
}

/// An observation-only initial rate guess.
///
/// λ starts at `total tasks / observed time span` (the total request
/// count is known even when times are not — the paper's premise). Each
/// service rate starts at the *larger* of two lower bounds on µ:
///
/// - **inverse mean observed response**: response = waiting + service, so
///   `1/E[r] ≤ 1/E[s] = µ`. Near-exact for lightly loaded queues; far too
///   small for overloaded ones (waiting dominates).
/// - **throughput**: a single server completes at most µ jobs per unit
///   time, so `events/span ≤ µ`. Near-exact for saturated queues (they
///   complete work back to back); far too small for idle ones. The event
///   count per queue is structural knowledge (the paper's event counters
///   report it), so this needs no extra timing data.
///
/// Taking the max starts every queue close to its regime's truth —
/// important because the Gibbs chain relaxes slowly from a badly
/// misscaled start (imputed services of the wrong order take thousands of
/// sweeps to drain).
pub fn heuristic_rates(masked: &MaskedLog) -> Vec<f64> {
    let log = masked.ground_truth();
    let q = log.num_queues();
    let mut t_max: f64 = 0.0;
    // Per-queue count and sum of observed response times.
    let mut resp = vec![(0usize, 0.0f64); q];
    for e in log.event_ids() {
        if log.is_initial_event(e) {
            continue;
        }
        let arrival_observed = masked.mask().arrival_observed(e);
        if arrival_observed {
            t_max = t_max.max(log.arrival(e));
        }
        if masked.departure_pinned(e) {
            // A pinned departure is measured time too (directly, or via the
            // successor's observed arrival): it must advance the span even
            // when this event's own arrival is masked — otherwise a log
            // with fully masked arrivals but pinned departures collapses
            // to the uninformative fallback despite measurable throughput.
            let d = log.departure(e);
            if d.is_finite() {
                t_max = t_max.max(d);
            }
            if arrival_observed {
                // Both endpoints measured: the response time is data.
                let r = d - log.arrival(e);
                if r.is_finite() && r >= 0.0 {
                    let qi = log.queue_of(e).index();
                    resp[qi].0 += 1;
                    resp[qi].1 += r;
                }
            }
        }
    }
    if t_max <= 0.0 {
        return vec![1.0; q];
    }
    let lambda = (log.num_tasks() as f64 / t_max).max(1e-3);
    let mut rates = vec![lambda; q];
    for (i, rate) in rates.iter_mut().enumerate().skip(1) {
        let (n, sum) = resp[i];
        let from_response = if n > 0 && sum > 0.0 {
            n as f64 / sum
        } else {
            0.0
        };
        let qid = qni_model::ids::QueueId::from_index(i);
        let from_throughput = log.events_at_queue(qid).len() as f64 / t_max;
        let best = from_response.max(from_throughput);
        *rate = if best > 0.0 { best.max(1e-3) } else { lambda };
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;
    use qni_trace::ObservationScheme;

    fn masked(frac: f64, n: usize, seed: u64) -> MaskedLog {
        let bp = tandem(2.0, &[6.0, 8.0]).unwrap();
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, n).unwrap(), &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(frac)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap()
    }

    #[test]
    fn options_validation() {
        let m = masked(0.5, 20, 1);
        let mut rng = rng_from_seed(2);
        let bad = StemOptions {
            iterations: 5,
            burn_in: 5,
            ..StemOptions::default()
        };
        assert!(run_stem(&m, None, &bad, &mut rng).is_err());
        let bad = McemOptions {
            outer_iterations: 0,
            ..McemOptions::default()
        };
        assert!(run_mcem(&m, None, &bad, &mut rng).is_err());
    }

    #[test]
    fn stem_recovers_rates_with_half_observed() {
        let m = masked(0.5, 600, 3);
        let mut rng = rng_from_seed(4);
        let opts = StemOptions {
            iterations: 120,
            burn_in: 60,
            waiting_sweeps: 10,
            ..StemOptions::default()
        };
        let r = run_stem(&m, None, &opts, &mut rng).unwrap();
        // True rates: λ=2, µ=(6, 8).
        assert!((r.rates[0] - 2.0).abs() < 0.3, "λ̂={}", r.rates[0]);
        assert!((r.rates[1] - 6.0).abs() < 1.2, "µ̂1={}", r.rates[1]);
        assert!((r.rates[2] - 8.0).abs() < 1.8, "µ̂2={}", r.rates[2]);
        // Mean service consistency.
        for (s, rate) in r.mean_service.iter().zip(&r.rates) {
            assert!((s - 1.0 / rate).abs() < 1e-12);
        }
        assert_eq!(r.rate_trace.len(), 120);
    }

    #[test]
    fn stem_with_full_observation_equals_mle() {
        let bp = tandem(2.0, &[6.0]).unwrap();
        let mut rng = rng_from_seed(5);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 400).unwrap(), &mut rng)
            .unwrap();
        let mle: Vec<f64> = crate::mstep::mle_rates(&truth)
            .into_iter()
            .map(Option::unwrap)
            .collect();
        let m = ObservationScheme::Full.apply(truth, &mut rng).unwrap();
        let r = run_stem(&m, None, &StemOptions::quick_test(), &mut rng).unwrap();
        // No free variables → every iteration's M-step is the complete-data
        // MLE exactly.
        for (a, b) in r.rates.iter().zip(&mle) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn mcem_also_recovers() {
        let m = masked(0.5, 300, 6);
        let mut rng = rng_from_seed(7);
        let opts = McemOptions {
            outer_iterations: 25,
            inner_sweeps: 5,
        };
        let r = run_mcem(&m, None, &opts, &mut rng).unwrap();
        assert!((r.rates[0] - 2.0).abs() < 0.4, "λ̂={}", r.rates[0]);
        assert!((r.rates[1] - 6.0).abs() < 1.5, "µ̂1={}", r.rates[1]);
    }

    #[test]
    fn waiting_estimates_are_nonnegative_and_plausible() {
        let m = masked(0.3, 400, 8);
        let mut rng = rng_from_seed(9);
        let opts = StemOptions {
            iterations: 80,
            burn_in: 40,
            waiting_sweeps: 10,
            ..StemOptions::default()
        };
        let r = run_stem(&m, None, &opts, &mut rng).unwrap();
        let truth_avg = m.ground_truth().queue_averages();
        for (i, (w, avg)) in r.mean_waiting.iter().zip(&truth_avg).enumerate().skip(1) {
            assert!(*w >= 0.0);
            // Same order of magnitude as the ground truth.
            let t = avg.mean_waiting.max(0.01);
            assert!(*w < 10.0 * t + 0.5, "queue {i}: est={w} truth={t}");
        }
    }

    #[test]
    fn heuristic_rates_are_positive_and_shaped() {
        let m = masked(0.2, 100, 10);
        let r = heuristic_rates(&m);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn heuristic_rates_use_pinned_departures_when_arrivals_masked() {
        // Regression: arrivals fully masked, final departures observed.
        // The span is measurable from the pinned departures, so the
        // heuristic must not collapse to the `vec![1.0; q]` fallback.
        use qni_trace::ObservedMask;
        let bp = tandem(2.0, &[6.0, 8.0]).unwrap();
        let mut rng = rng_from_seed(12);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 200).unwrap(), &mut rng)
            .unwrap();
        let n_tasks = truth.num_tasks();
        let mut mask = ObservedMask::unobserved(truth.num_events());
        let mut d_max: f64 = 0.0;
        for e in truth.event_ids() {
            if truth.is_final_event(e) {
                mask.observe_departure(e);
                d_max = d_max.max(truth.departure(e));
            }
        }
        let m = MaskedLog::new(truth, mask).unwrap();
        assert_eq!(m.observed_arrival_fraction(), 0.0);
        let r = heuristic_rates(&m);
        assert_ne!(r, vec![1.0; 3], "must not hit the no-data fallback");
        // λ estimate reflects the observed span.
        let expected_lambda = n_tasks as f64 / d_max;
        assert!(
            (r[0] - expected_lambda).abs() < 1e-9,
            "λ̂={} expected {expected_lambda}",
            r[0]
        );
        // Service rates fall back to throughput bounds: positive, not 1.0
        // by construction.
        assert!(r[1] > 0.0 && r[2] > 0.0);
    }

    #[test]
    fn validate_rejects_empty_kept_window_with_clear_error() {
        let opts = StemOptions {
            iterations: 10,
            burn_in: 10,
            ..StemOptions::default()
        };
        let err = opts.validate().unwrap_err();
        assert!(matches!(
            err,
            InferenceError::EmptyKeptWindow {
                burn_in: 10,
                iterations: 10
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("burn-in (10)"), "{msg}");
        assert!(msg.contains("iterations (10)"), "{msg}");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = masked(0.4, 100, 11);
        let run = |seed: u64| {
            let mut rng = rng_from_seed(seed);
            run_stem(&m, None, &StemOptions::quick_test(), &mut rng)
                .unwrap()
                .rates
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
