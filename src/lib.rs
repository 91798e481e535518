//! `qni` — Probabilistic Inference in Queueing Networks.
//!
//! A production-quality Rust implementation of Sutton & Jordan's
//! *Probabilistic Inference in Queueing Networks* (2008): networks of
//! M/M/1 FIFO queues treated as latent-variable probabilistic models, a
//! Gibbs sampler over unobserved arrival/departure times, and stochastic
//! EM for estimating per-queue service rates from a small fraction of
//! trace data.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`model`]: queueing-network model, FSM routing, event logs, joint
//!   density, constraint validation, topology builders.
//! - [`sim`]: discrete-event simulator, workloads, fault injection.
//! - [`trace`]: observation schemes, masked logs, event counters, JSONL.
//! - [`inference`]: the Gibbs sampler, initialization, StEM/MCEM,
//!   baseline, localization, diagnostics.
//! - [`lp`]: simplex and difference-constraint solvers.
//! - [`stats`]: distributions, the piecewise density engine, statistics.
//! - [`webapp`]: the synthetic §5.2 web-application testbed.
//!
//! # Quickstart
//!
//! ```
//! use qni::prelude::*;
//!
//! // 1. A two-stage tandem network with Poisson arrivals.
//! let bp = qni::model::topology::tandem(2.0, &[6.0, 8.0]).unwrap();
//! let mut rng = rng_from_seed(1);
//!
//! // 2. Simulate ground truth and observe 25% of tasks.
//! let truth = Simulator::new(&bp.network)
//!     .run(&Workload::poisson_n(2.0, 300).unwrap(), &mut rng)
//!     .unwrap();
//! let masked = ObservationScheme::task_sampling(0.25)
//!     .unwrap()
//!     .apply(truth, &mut rng)
//!     .unwrap();
//!
//! // 3. Recover service rates with stochastic EM.
//! let result = run_stem(&masked, None, &StemOptions::quick_test(), &mut rng).unwrap();
//! assert!(result.rates[0] > 0.0);
//! ```

pub use qni_core as inference;
pub use qni_lp as lp;
pub use qni_model as model;
pub use qni_sim as sim;
pub use qni_stats as stats;
pub use qni_trace as trace;
pub use qni_webapp as webapp;

/// Commonly used items, importable with `use qni::prelude::*`.
pub mod prelude {
    pub use qni_core::baseline::mean_observed_service;
    pub use qni_core::chains::{run_stem_parallel, ParallelStemOptions, ParallelStemResult};
    pub use qni_core::diagnostics::ChainDiagnostics;
    pub use qni_core::estimates::{absolute_errors, ground_truth_averages, ErrorField};
    pub use qni_core::init::InitStrategy;
    pub use qni_core::init::WarmTimes;
    pub use qni_core::localize::{localize, slow_request_attribution, BottleneckKind};
    pub use qni_core::posterior::{posterior_summaries, PosteriorOptions};
    pub use qni_core::stem::{run_mcem, run_stem, McemOptions, StemOptions};
    pub use qni_core::stream::{
        run_stream, RateTrajectory, StreamEngine, StreamOptions, WindowEstimate,
    };
    pub use qni_core::watch::{
        options_fingerprint, run_watch, Checkpoint, StepReport, WatchSession, CHECKPOINT_VERSION,
    };
    pub use qni_core::{BatchMode, GibbsState, ShardMode, WavePool};
    pub use qni_model::ids::{EventId, QueueId, StateId, TaskId};
    pub use qni_model::log::EventLog;
    pub use qni_model::network::QueueingNetwork;
    pub use qni_model::Fsm;
    pub use qni_sim::fault::{Fault, FaultPlan};
    pub use qni_sim::jackson::JacksonAnalysis;
    pub use qni_sim::{Simulator, Workload};
    pub use qni_stats::rng::{rng_from_seed, split_seed, SeedTree};
    // `qni_trace::FaultPlan` (tail-path fault injection) deliberately
    // stays out of the prelude: it would collide with the simulator's
    // `qni_sim::fault::FaultPlan`. Reach it as `qni::trace::FaultPlan`.
    pub use qni_trace::{
        slice_windows, LineAssembler, LiveSlicer, MaskedLog, ObservationScheme, RetryPolicy,
        RotationPolicy, TailOptions, TailReader, TailSnapshot, TailStats, WindowSchedule,
        WindowedLog,
    };
    pub use qni_webapp::{WebAppConfig, WebAppTestbed};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_compile() {
        use crate::prelude::*;
        let _ = ObservationScheme::Full;
        let _ = StemOptions::quick_test();
        let _ = rng_from_seed(0);
    }
}
