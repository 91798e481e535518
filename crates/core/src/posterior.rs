//! Posterior summaries with credible intervals.
//!
//! The paper's §4 closes with: "once a point estimate µ̂ of the mean
//! service times is available, an estimate of the waiting time can be
//! obtained by running the Gibbs sampler with µ̂ fixed". This module
//! packages that: it runs the chain at fixed rates, collects per-queue
//! posterior samples of the mean service and waiting times, and reports
//! means with equal-tailed credible intervals — the uncertainty report a
//! practitioner acts on ("is the db *significantly* slower?").

use crate::error::InferenceError;
use crate::gibbs::shard::ShardMode;
use crate::gibbs::sweep::{sweep_with_opts_pooled, BatchMode};
use crate::state::GibbsState;
use qni_stats::descriptive::quantile_sorted;
use rand::Rng;

/// Posterior summary for one queue.
#[derive(Debug, Clone)]
pub struct QueuePosterior {
    /// Queue index.
    pub queue: usize,
    /// Posterior mean of the per-sweep average service time.
    pub service_mean: f64,
    /// Equal-tailed credible interval for the service average.
    pub service_ci: (f64, f64),
    /// Posterior mean of the per-sweep average waiting time.
    pub waiting_mean: f64,
    /// Equal-tailed credible interval for the waiting average.
    pub waiting_ci: (f64, f64),
    /// Number of events at the queue.
    pub count: usize,
}

/// Options for [`posterior_summaries`].
#[derive(Debug, Clone, Copy)]
pub struct PosteriorOptions {
    /// Sweeps discarded before collecting samples.
    pub burn_in: usize,
    /// Samples collected (one per sweep).
    pub samples: usize,
    /// Credible-interval mass (e.g. 0.9 for a 90% interval).
    pub ci_mass: f64,
    /// Arrival-move scheduling (see [`crate::stem::StemOptions::batch`]).
    pub batch: BatchMode,
}

impl Default for PosteriorOptions {
    fn default() -> Self {
        PosteriorOptions {
            burn_in: 50,
            samples: 200,
            ci_mass: 0.9,
            batch: BatchMode::default(),
        }
    }
}

/// Runs the Gibbs sampler at the state's fixed rates and summarizes the
/// posterior over per-queue average service and waiting times.
pub fn posterior_summaries<R: Rng + ?Sized>(
    state: &mut GibbsState,
    opts: &PosteriorOptions,
    rng: &mut R,
) -> Result<Vec<QueuePosterior>, InferenceError> {
    if opts.samples == 0 {
        return Err(InferenceError::BadOptions {
            what: "need at least one posterior sample",
        });
    }
    if !(0.0 < opts.ci_mass && opts.ci_mass < 1.0) {
        return Err(InferenceError::BadOptions {
            what: "ci_mass must be in (0, 1)",
        });
    }
    let q = state.log().num_queues();
    for _ in 0..opts.burn_in {
        sweep_with_opts_pooled(state, opts.batch, ShardMode::Serial, None, rng)?;
    }
    let mut service: Vec<Vec<f64>> = vec![Vec::with_capacity(opts.samples); q];
    let mut waiting: Vec<Vec<f64>> = vec![Vec::with_capacity(opts.samples); q];
    let mut counts = vec![0usize; q];
    // Reused per-sweep summary buffer (no allocation in the sample loop).
    let mut avgs = Vec::new();
    for _ in 0..opts.samples {
        sweep_with_opts_pooled(state, opts.batch, ShardMode::Serial, None, rng)?;
        state.log().queue_averages_into(&mut avgs);
        for (i, avg) in avgs.iter().enumerate() {
            counts[i] = avg.count;
            if avg.count > 0 {
                service[i].push(avg.mean_service);
                waiting[i].push(avg.mean_waiting);
            }
        }
    }
    let lo_p = (1.0 - opts.ci_mass) / 2.0;
    let hi_p = 1.0 - lo_p;
    let summarize = |xs: &mut Vec<f64>| -> (f64, (f64, f64)) {
        if xs.is_empty() {
            return (f64::NAN, (f64::NAN, f64::NAN));
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.sort_by(f64::total_cmp);
        (mean, (quantile_sorted(xs, lo_p), quantile_sorted(xs, hi_p)))
    };
    Ok((0..q)
        .map(|i| {
            let (sm, sci) = summarize(&mut service[i]);
            let (wm, wci) = summarize(&mut waiting[i]);
            QueuePosterior {
                queue: i,
                service_mean: sm,
                service_ci: sci,
                waiting_mean: wm,
                waiting_ci: wci,
                count: counts[i],
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitStrategy;
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;
    use qni_trace::ObservationScheme;

    fn state(frac: f64) -> GibbsState {
        let bp = tandem(2.0, &[5.0, 4.0]).unwrap();
        let mut rng = rng_from_seed(1);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 300).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(frac)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        GibbsState::new(
            &masked,
            bp.network.rates().unwrap(),
            InitStrategy::default(),
        )
        .unwrap()
    }

    #[test]
    fn intervals_cover_truth_at_true_rates() {
        let mut st = state(0.3);
        let mut rng = rng_from_seed(2);
        let opts = PosteriorOptions {
            burn_in: 30,
            samples: 100,
            ci_mass: 0.95,
            ..PosteriorOptions::default()
        };
        let post = posterior_summaries(&mut st, &opts, &mut rng).unwrap();
        // True mean services: 0.2 and 0.25; run at the true rates, the 95%
        // interval should cover them.
        assert!(
            post[1].service_ci.0 <= 0.2 && 0.2 <= post[1].service_ci.1,
            "q1 ci={:?}",
            post[1].service_ci
        );
        assert!(
            post[2].service_ci.0 <= 0.25 && 0.25 <= post[2].service_ci.1,
            "q2 ci={:?}",
            post[2].service_ci
        );
    }

    #[test]
    fn more_observation_narrows_intervals() {
        let run_width = |frac: f64| {
            let mut st = state(frac);
            let mut rng = rng_from_seed(3);
            let opts = PosteriorOptions {
                burn_in: 20,
                samples: 80,
                ci_mass: 0.9,
                ..PosteriorOptions::default()
            };
            let post = posterior_summaries(&mut st, &opts, &mut rng).unwrap();
            post[1].service_ci.1 - post[1].service_ci.0
        };
        let wide = run_width(0.02);
        let narrow = run_width(0.8);
        assert!(
            narrow < wide,
            "interval should shrink with data: {narrow} vs {wide}"
        );
    }

    #[test]
    fn interval_is_ordered_and_contains_mean() {
        let mut st = state(0.2);
        let mut rng = rng_from_seed(4);
        let post = posterior_summaries(&mut st, &PosteriorOptions::default(), &mut rng).unwrap();
        for p in &post {
            if p.count == 0 {
                continue;
            }
            assert!(p.service_ci.0 <= p.service_mean && p.service_mean <= p.service_ci.1);
            assert!(p.waiting_ci.0 <= p.waiting_mean && p.waiting_mean <= p.waiting_ci.1);
        }
    }

    #[test]
    fn options_validated() {
        let mut st = state(0.2);
        let mut rng = rng_from_seed(5);
        let bad = PosteriorOptions {
            samples: 0,
            ..PosteriorOptions::default()
        };
        assert!(posterior_summaries(&mut st, &bad, &mut rng).is_err());
        let bad = PosteriorOptions {
            ci_mass: 1.0,
            ..PosteriorOptions::default()
        };
        assert!(posterior_summaries(&mut st, &bad, &mut rng).is_err());
    }
}
