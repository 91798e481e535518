//! Multi-chain parallel StEM with convergence diagnostics.
//!
//! The StEM iterate sequence is a Markov chain (see [`crate::stem`]), and
//! independent chains are embarrassingly parallel: each needs only the
//! masked log and its own RNG stream. This module runs `K` chains on
//! `K` threads — the calling thread works chain 0 itself and `K − 1`
//! scoped threads run the rest — pools their post-burn-in rate traces
//! into a combined
//! point estimate, and reports split-R̂ / pooled-ESS convergence
//! diagnostics — the multi-chain mixing checks of Sutton & Jordan's
//! journal follow-up, which a single chain cannot compute about itself.
//! Each chain is a [`crate::stem::run_stem`] fit that owns its wave pool
//! for the fit's duration, so `K` chains at `Sharded(n)` occupy `K × n`
//! threads and none outlives the call.
//!
//! # Determinism
//!
//! Chain `k` draws from `rng_from_seed(split_seed(master_seed, k))`, a
//! SplitMix64-derived ChaCha stream ([`qni_stats::rng::split_seed`]). The
//! streams depend only on `(master_seed, k)` and results are collected in
//! chain order, so a K-chain run is byte-reproducible regardless of thread
//! scheduling — and chain `k` of a K-chain run is byte-identical to a
//! single-chain run seeded with `split_seed(master_seed, k)`.
//!
//! # Examples
//!
//! ```
//! use qni_core::chains::{run_stem_parallel, ParallelStemOptions};
//! use qni_model::topology::tandem;
//! use qni_sim::{Simulator, Workload};
//! use qni_stats::rng::rng_from_seed;
//! use qni_trace::ObservationScheme;
//!
//! let bp = tandem(2.0, &[6.0, 8.0]).unwrap();
//! let mut rng = rng_from_seed(7);
//! let truth = Simulator::new(&bp.network)
//!     .run(&Workload::poisson_n(2.0, 150).unwrap(), &mut rng)
//!     .unwrap();
//! let masked = ObservationScheme::task_sampling(0.3)
//!     .unwrap()
//!     .apply(truth, &mut rng)
//!     .unwrap();
//! let opts = ParallelStemOptions::quick_test();
//! let r = run_stem_parallel(&masked, None, &opts).unwrap();
//! assert_eq!(r.chains.len(), opts.chains);
//! assert_eq!(r.rates.len(), 3); // q0 (λ) + two stages.
//! assert_eq!(r.diagnostics.split_rhat.len(), 3);
//! ```

use crate::diagnostics::{rate_trace_diagnostics, ChainDiagnostics};
use crate::error::InferenceError;
use crate::gibbs::shard::ShardMode;
use crate::init::WarmTimes;
use crate::stem::{run_stem_warm, StemOptions, StemResult};
use qni_stats::rng::{rng_from_seed, split_seed};
use qni_trace::MaskedLog;

/// Options for [`run_stem_parallel`].
#[derive(Debug, Clone)]
pub struct ParallelStemOptions {
    /// Per-chain StEM configuration (iterations, burn-in, init, the
    /// [`crate::gibbs::sweep::BatchMode`] arrival-move scheduling knob,
    /// and the per-chain [`ShardMode`] — every chain sweeps with the
    /// same modes).
    pub stem: StemOptions,
    /// Number of independent chains (and chain worker threads).
    pub chains: usize,
    /// Master seed from which every chain's stream is derived.
    pub master_seed: u64,
    /// Optional total-thread budget shared between `chains × shards`:
    /// when set, each chain's [`StemOptions::shard`] worker cap is
    /// reduced so the whole run never occupies more than this many OS
    /// threads (each chain always keeps at least one). The accounting
    /// is exact — the calling thread works chain 0 itself and each
    /// chain's sweep leader is its own chain thread, so `K` chains at
    /// `Sharded(n)` occupy exactly `K × n` threads and a budget of `B`
    /// admits every configuration with `chains × shards ≤ B`. Purely a
    /// scheduling knob — capping never changes results, because every
    /// shard count is bit-identical (see [`crate::gibbs::shard`]).
    pub thread_budget: Option<usize>,
}

impl Default for ParallelStemOptions {
    fn default() -> Self {
        ParallelStemOptions {
            stem: StemOptions::default(),
            chains: 4,
            master_seed: 0,
            thread_budget: None,
        }
    }
}

impl ParallelStemOptions {
    /// A small, fast configuration for doc tests and smoke tests.
    ///
    /// Routes through [`StemOptions::quick_test`] — the single shared
    /// quick config — so the iteration budget is defined in one place.
    pub fn quick_test() -> Self {
        ParallelStemOptions {
            stem: StemOptions::quick_test(),
            chains: 2,
            master_seed: 0,
            thread_budget: None,
        }
    }

    /// The [`ShardMode`] each chain actually sweeps with: the configured
    /// [`StemOptions::shard`], capped so `chains × shards` stays within
    /// [`ParallelStemOptions::thread_budget`] when one is set.
    pub fn effective_shard(&self) -> ShardMode {
        match self.thread_budget {
            Some(budget) => self.stem.shard.capped(budget, self.chains),
            None => self.stem.shard,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), InferenceError> {
        if self.chains == 0 {
            return Err(InferenceError::BadOptions {
                what: "need at least one chain",
            });
        }
        if self.thread_budget == Some(0) {
            return Err(InferenceError::BadOptions {
                what: "thread budget must be >= 1",
            });
        }
        // Surface the per-chain budget errors (including the empty
        // kept-window case) before the stricter diagnostics bound.
        self.stem.validate()?;
        if self.stem.iterations < self.stem.burn_in + 4 {
            return Err(InferenceError::BadOptions {
                what: "need >= 4 post-burn-in iterations per chain for diagnostics",
            });
        }
        Ok(())
    }
}

/// The pooled result of a multi-chain StEM run.
#[derive(Debug, Clone)]
pub struct ParallelStemResult {
    /// Pooled rate estimates per queue (entry 0 is λ̂): the mean of the
    /// per-chain post-burn-in averages, i.e. the grand mean of all kept
    /// draws.
    pub rates: Vec<f64>,
    /// Pooled mean service estimates `1/µ̂_q`.
    pub mean_service: Vec<f64>,
    /// Per-queue posterior-mean waiting time, averaged across chains.
    pub mean_waiting: Vec<f64>,
    /// Per-queue posterior-mean sampled service time, averaged across
    /// chains.
    pub sampled_service: Vec<f64>,
    /// Each chain's full [`StemResult`], in chain order.
    pub chains: Vec<StemResult>,
    /// The derived seed each chain drew from (`split_seed(master, k)`).
    pub chain_seeds: Vec<u64>,
    /// Split-R̂ and pooled ESS of the post-burn-in rate traces.
    pub diagnostics: ChainDiagnostics,
}

/// Runs `opts.chains` independent StEM chains in parallel and pools them.
///
/// Each chain is a full StEM fit ([`crate::stem::run_stem`], with its
/// own [`crate::gibbs::pool::WavePool`] for the fit's duration when the
/// shard mode fans out) on its own thread (chain 0 on the calling
/// thread, the rest on scoped threads) with its own derived RNG stream;
/// see the module docs for the seeding scheme and determinism
/// guarantees. The pooled `rates` average the chains' post-burn-in
/// means; `diagnostics` reports per-queue split-R̂ (values ≲ 1.05
/// indicate the chains agree) and pooled effective sample size. The
/// first chain error, if any, is returned in chain order.
pub fn run_stem_parallel(
    masked: &MaskedLog,
    initial_rates: Option<&[f64]>,
    opts: &ParallelStemOptions,
) -> Result<ParallelStemResult, InferenceError> {
    run_stem_parallel_warm(masked, initial_rates, None, opts)
}

/// [`run_stem_parallel`] with optional warm-start initialization targets
/// shared by every chain (see [`crate::init::WarmTimes`]), as the
/// streaming engine passes them. Warm targets only move each chain's
/// starting point; chain seeds, pooling, and diagnostics are unchanged.
pub(crate) fn run_stem_parallel_warm(
    masked: &MaskedLog,
    initial_rates: Option<&[f64]>,
    warm: Option<&WarmTimes>,
    opts: &ParallelStemOptions,
) -> Result<ParallelStemResult, InferenceError> {
    opts.validate()?;
    let chain_seeds: Vec<u64> = (0..opts.chains)
        .map(|k| split_seed(opts.master_seed, k as u64))
        .collect();
    // Apply the shared thread budget: chains × shards never exceeds it.
    // Bit-identical to the uncapped configuration, only the scheduling
    // changes.
    let mut stem_opts = opts.stem.clone();
    stem_opts.shard = opts.effective_shard();
    let stem_opts = &stem_opts;
    let run_chain = move |seed: u64| {
        let mut rng = rng_from_seed(seed);
        run_stem_warm(masked, initial_rates, warm, stem_opts, &mut rng)
    };
    let results: Vec<Result<StemResult, InferenceError>> = std::thread::scope(|s| {
        let handles: Vec<_> = chain_seeds[1..]
            .iter()
            .map(|&seed| s.spawn(move || run_chain(seed)))
            .collect();
        // The calling thread works chain 0 itself while the spawned
        // chains run, so `chains` chains never occupy more than
        // `chains × shards` OS threads — the exact quantity
        // `thread_budget` charges for (no parked-caller off-by-one).
        std::iter::once(run_chain(chain_seeds[0]))
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chain thread panicked")), // qni-lint: allow(QNI-E002) — re-raising a panicked chain thread is the intended failure mode
            )
            .collect()
    });
    let chains = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let kept: Vec<&[Vec<f64>]> = chains
        .iter()
        .map(|c| &c.rate_trace[opts.stem.burn_in..])
        .collect();
    let diagnostics = rate_trace_diagnostics(&kept)?;
    let q = chains[0].rates.len();
    let m = chains.len() as f64;
    let pooled = |field: fn(&StemResult) -> &[f64]| -> Vec<f64> {
        let mut acc = vec![0.0f64; q];
        for c in &chains {
            for (a, v) in acc.iter_mut().zip(field(c)) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= m;
        }
        acc
    };
    let rates = pooled(|c| &c.rates);
    let mean_waiting = pooled(|c| &c.mean_waiting);
    let sampled_service = pooled(|c| &c.sampled_service);
    let mean_service = rates.iter().map(|r| 1.0 / r).collect();
    Ok(ParallelStemResult {
        rates,
        mean_service,
        mean_waiting,
        sampled_service,
        chains,
        chain_seeds,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stem::run_stem;
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
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
        let bad = ParallelStemOptions {
            chains: 0,
            ..ParallelStemOptions::quick_test()
        };
        assert!(run_stem_parallel(&m, None, &bad).is_err());
        let bad = ParallelStemOptions {
            stem: StemOptions {
                iterations: 10,
                burn_in: 8,
                ..StemOptions::quick_test()
            },
            ..ParallelStemOptions::quick_test()
        };
        assert!(run_stem_parallel(&m, None, &bad).is_err());
    }

    #[test]
    fn chains_differ_but_agree_statistically() {
        let m = masked(0.5, 300, 2);
        let opts = ParallelStemOptions {
            stem: StemOptions {
                iterations: 60,
                burn_in: 30,
                waiting_sweeps: 5,
                ..StemOptions::default()
            },
            chains: 3,
            master_seed: 11,
            thread_budget: None,
        };
        let r = run_stem_parallel(&m, None, &opts).unwrap();
        assert_eq!(r.chains.len(), 3);
        assert_eq!(r.chain_seeds.len(), 3);
        // Distinct streams → distinct traces.
        assert_ne!(r.chains[0].rate_trace, r.chains[1].rate_trace);
        // Pooled λ̂ near truth (λ = 2).
        assert!((r.rates[0] - 2.0).abs() < 0.4, "λ̂={}", r.rates[0]);
        // Pooled estimate is the mean of per-chain estimates.
        let manual: f64 = r.chains.iter().map(|c| c.rates[0]).sum::<f64>() / 3.0;
        assert!((r.rates[0] - manual).abs() < 1e-12);
        for (s, rate) in r.mean_service.iter().zip(&r.rates) {
            assert!((s - 1.0 / rate).abs() < 1e-12);
        }
    }

    #[test]
    fn thread_budget_admits_exact_fit_configurations() {
        // The boundary case of the budget accounting: 2 chains at
        // Sharded(4) occupy exactly 8 threads (the caller works chain 0
        // and each chain's sweep leader is its own chain thread), so a
        // budget of 8 must admit the full configuration…
        let opts = |thread_budget| ParallelStemOptions {
            stem: StemOptions {
                shard: ShardMode::Sharded(4),
                ..StemOptions::quick_test()
            },
            chains: 2,
            master_seed: 0,
            thread_budget,
        };
        assert_eq!(opts(Some(8)).effective_shard(), ShardMode::Sharded(4));
        // …while one thread short of the fit caps each chain to 3.
        assert_eq!(opts(Some(7)).effective_shard(), ShardMode::Sharded(3));
        assert_eq!(opts(None).effective_shard(), ShardMode::Sharded(4));
    }

    #[test]
    fn single_chain_matches_run_stem_with_derived_seed() {
        let m = masked(0.4, 120, 3);
        let opts = ParallelStemOptions {
            chains: 1,
            master_seed: 42,
            ..ParallelStemOptions::quick_test()
        };
        let par = run_stem_parallel(&m, None, &opts).unwrap();
        let mut rng = rng_from_seed(split_seed(42, 0));
        let solo = run_stem(&m, None, &opts.stem, &mut rng).unwrap();
        assert_eq!(par.chains[0].rate_trace, solo.rate_trace);
        for (a, b) in par.rates.iter().zip(&solo.rates) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
