//! Probabilistic inference in queueing networks — the paper's contribution.
//!
//! Given a network of M/M/1 FIFO queues and a *partial* trace (a subset of
//! arrival times, with per-queue arrival order known from event counters),
//! this crate reconstructs the posterior distribution over all unobserved
//! arrival and departure times and estimates the per-queue service rates:
//!
//! - [`state::GibbsState`]: the mutable sampler state — a working event
//!   log whose free times are resampled in place, plus current rates.
//! - [`gibbs`]: the Gibbs moves. [`gibbs::arrival`] implements the
//!   three-segment conditional of the paper's Figure 3 (via the general
//!   piecewise log-linear construction of [`qni_stats::piecewise`]);
//!   [`gibbs::final_departure`] handles task exit times, and
//!   [`gibbs::sweep`] composes full sweeps.
//! - [`init`]: feasible initialization — the paper's LP (§3) and an
//!   equivalent longest-path construction for large instances.
//! - [`mstep`]: closed-form exponential MLE from completed data.
//! - [`stem`]: stochastic EM (§4) and a Monte-Carlo-EM variant, plus
//!   posterior waiting-time estimation at the final parameters.
//! - [`chains`]: the multi-chain parallel engine — K independent StEM
//!   chains on scoped threads with deterministically derived RNG streams,
//!   pooled into one estimate with split-R̂ / ESS convergence checks.
//! - [`stream`]: the streaming engine — StEM over overlapping time
//!   windows of the trace, each warm-started from the previous window,
//!   tracking *time-varying* rates as a [`stream::RateTrajectory`];
//!   exposed both as whole-trace replay ([`stream::run_stream`]) and as
//!   the incremental [`stream::StreamEngine`].
//! - [`watch`]: live-tail monitoring — tail a growing JSONL trace,
//!   close windows as the stream guarantees them complete, fit each with
//!   the incremental engine; byte-identical to replaying the final file.
//! - [`baseline`]: the §5.1 oracle baseline (mean observed service).
//! - [`estimates`], [`localize`], [`diagnostics`]: evaluation, bottleneck
//!   localization, and MCMC diagnostics.
//!
//! # Examples
//!
//! ```
//! use qni_core::stem::{StemOptions, run_stem};
//! use qni_model::topology::tandem;
//! use qni_sim::{Simulator, Workload};
//! use qni_trace::ObservationScheme;
//! use qni_stats::rng::rng_from_seed;
//!
//! // Simulate a 2-stage tandem network and observe 30% of tasks.
//! let bp = tandem(2.0, &[6.0, 8.0]).unwrap();
//! let mut rng = rng_from_seed(7);
//! let truth = Simulator::new(&bp.network)
//!     .run(&Workload::poisson_n(2.0, 200).unwrap(), &mut rng)
//!     .unwrap();
//! let masked = ObservationScheme::task_sampling(0.3)
//!     .unwrap()
//!     .apply(truth, &mut rng)
//!     .unwrap();
//! let opts = StemOptions::quick_test();
//! let result = run_stem(&masked, None, &opts, &mut rng).unwrap();
//! assert_eq!(result.rates.len(), 3); // q0 (λ) + two stages.
//! ```

pub mod baseline;
pub mod chains;
pub mod diagnostics;
pub mod error;
pub mod estimates;
pub mod gibbs;
pub mod init;
pub mod localize;
pub mod mstep;
pub mod posterior;
pub mod state;
pub mod stem;
pub mod stream;
pub mod watch;

pub use chains::{run_stem_parallel, ParallelStemOptions, ParallelStemResult};
pub use diagnostics::ChainDiagnostics;
pub use error::InferenceError;
pub use gibbs::pool::{PoolSet, WavePool};
pub use gibbs::shard::ShardMode;
pub use gibbs::sweep::BatchMode;
pub use state::GibbsState;
pub use stream::{run_stream, RateTrajectory, StreamEngine, StreamOptions, WindowEstimate};
pub use watch::{run_watch, StepReport, WatchSession};
