//! Statistical substrate for queueing-network inference.
//!
//! This crate provides the numerical machinery that the rest of the
//! workspace builds on:
//!
//! - [`rng`]: deterministic, splittable random-number streams so that every
//!   simulation, sampler run, and experiment in the workspace is exactly
//!   reproducible from a single `u64` seed.
//! - [`logspace`]: numerically stable log-domain primitives
//!   (`log_sum_exp`, `ln_1m_exp`, ...) used throughout.
//! - [`exponential`]: the exponential law at the heart of M/M/1 queues,
//!   with stable inverse-CDF sampling.
//! - [`piecewise`]: the *piecewise log-linear density engine*. The Gibbs
//!   conditionals derived in the paper (Figure 3) are densities whose
//!   logarithm is piecewise linear in the resampled time; this module
//!   integrates and samples such densities exactly.
//! - [`distributions`]: additional service-time laws (deterministic,
//!   Erlang, hyper-exponential, log-normal) for the generalized-service
//!   extension discussed in the paper's Section 2.
//! - [`descriptive`], [`histogram`], [`ks`], [`autocorr`]: summary
//!   statistics, histograms, Kolmogorov–Smirnov distances, and MCMC
//!   diagnostics used by tests and by the experiment harness.
//! - [`approx`]: tolerance-based float comparison — the sanctioned
//!   alternative to exact `==` on floats (lint rule QNI-N001).
//! - [`point_process`]: homogeneous and inhomogeneous (thinned) Poisson
//!   process samplers that drive open-loop workloads.
//!
//! # Examples
//!
//! ```
//! use qni_stats::exponential::Exponential;
//! use qni_stats::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(7);
//! let exp = Exponential::new(2.0).unwrap();
//! let x = exp.sample(&mut rng);
//! assert!(x >= 0.0);
//! ```

pub mod approx;
pub mod autocorr;
pub mod descriptive;
pub mod distributions;
pub mod error;
pub mod exponential;
pub mod histogram;
pub mod ks;
pub mod logspace;
pub mod piecewise;
pub mod point_process;
pub mod rng;

pub use error::StatsError;
