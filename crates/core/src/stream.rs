//! Online/streaming StEM: windowed inference over a live trace.
//!
//! The fixed-log engine ([`crate::stem`]) estimates *one* rate vector
//! from a whole trace — exactly wrong for live traffic whose arrival
//! rate drifts over the day (the deployment regime of Sutton & Jordan's
//! Bayesian follow-up). This module consumes a trace as a sequence of
//! overlapping `(width, stride)` time windows
//! ([`qni_trace::window::WindowSchedule`]) and runs one multi-chain StEM
//! fit per window, emitting a [`RateTrajectory`]: per-window λ̂/µ̂ plus the
//! usual split-R̂/ESS diagnostics.
//!
//! # Warm starts
//!
//! With [`StreamOptions::warm_start`] on (the default), window `w+1` is
//! warm-started from window `w`:
//!
//! - the previous window's **pooled rate estimate** becomes the next
//!   window's initial rates (and the init strategy's service targets),
//! - the previous window's **final Gibbs state** — chain 0's last
//!   imputed log — is carried into the next window's initialization as
//!   per-event [`crate::init::WarmTimes`] targets for the tasks the two
//!   overlapping windows share, rebased onto the new window's clock and
//!   clamped into feasibility. A shared task has the same events in the
//!   same order in both windows, so its events pair by position.
//!
//! Warm starts change only where each chain *begins*; conditionals and
//! the stationary distribution are untouched, so they accelerate
//! per-window burn-in without biasing the trajectory. With
//! [`StreamOptions::warm_burn_in`] set, warm-started windows also run a
//! *shorter* burn-in than the cold first window — the carried Gibbs
//! state is already near stationarity, so burn-in is amortized across
//! the stream instead of re-paid per window.
//!
//! # Cross-window server occupancy
//!
//! With [`StreamOptions::occupancy_carry`] on (the default), each
//! window is augmented before fitting with the server time its
//! predecessor's non-shared tasks still occupy past the window start
//! ([`qni_trace::window::occupancy_carry`]): small strides would
//! otherwise let every window start with idle servers, biasing µ̂
//! optimistic. The injected carry tasks add one q0 event each, so the
//! engine rescales the reported λ̂ by `real/(real+carry)`; the carried
//! pooled rates handed to the next window's warm start stay
//! uncorrected (they parameterize the sampler, not the report).
//!
//! # Replay vs. live
//!
//! [`run_stream`] replays a complete in-memory trace. The same
//! machinery is exposed incrementally as [`StreamEngine`]: push each
//! [`WindowedLog`] as it closes (e.g. from
//! [`qni_trace::window::LiveSlicer`]) and take the identical trajectory
//! at the end — `run_stream` itself is a thin wrapper that slices and
//! pushes, so replay and live ingestion are byte-identical by
//! construction.
//!
//! # Determinism
//!
//! Window `w` seeds its chain family from
//! `split_seed(master_seed, w)`, and each chain `k` inside the window
//! draws from `split_seed(split_seed(master_seed, w), k)` via
//! [`crate::chains::run_stem_parallel`]. The whole stream is therefore
//! byte-reproducible for a fixed master seed at *any*
//! [`crate::gibbs::shard::ShardMode`]/chain-count configuration, and bit-identical across
//! shard counts (sharding never changes bytes). Chain count, like in the
//! fixed-log engine, selects a different (equally reproducible) pooled
//! estimate family. [`RateTrajectory::fingerprint`] exposes the
//! deterministic bit content (everything except wall-clock times) for
//! byte-identity tests.
//!
//! # Examples
//!
//! ```
//! use qni_core::stream::{run_stream, StreamOptions};
//! use qni_sim::{Simulator, Workload};
//! use qni_stats::rng::rng_from_seed;
//! use qni_trace::{ObservationScheme, WindowSchedule};
//!
//! let bp = qni_model::topology::tandem(2.0, &[8.0]).unwrap();
//! let mut rng = rng_from_seed(7);
//! // Arrival rate switches from 2 to 4 halfway through.
//! let workload = Workload::piecewise_constant(vec![2.0, 4.0], vec![20.0], 40.0).unwrap();
//! let truth = Simulator::new(&bp.network).run(&workload, &mut rng).unwrap();
//! let masked = ObservationScheme::task_sampling(0.5)
//!     .unwrap()
//!     .apply(truth, &mut rng)
//!     .unwrap();
//! let schedule = WindowSchedule::new(20.0, 20.0).unwrap();
//! let traj = run_stream(&masked, &schedule, &StreamOptions::quick_test()).unwrap();
//! assert!(traj.windows.len() >= 2);
//! assert!(traj.windows[0].rates[0] > 0.0);
//! ```

use crate::chains::{run_stem_parallel_warm_in_pools, ParallelStemOptions};
use crate::error::InferenceError;
use crate::gibbs::pool::PoolSet;
use crate::init::WarmTimes;
use crate::stem::StemOptions;
use qni_model::ids::TaskId;
use qni_model::log::LogInputs;
use qni_stats::rng::split_seed;
use qni_trace::window::{occupancy_carry, slice_windows, WindowSchedule, WindowedLog};
use qni_trace::MaskedLog;
use serde::{Deserialize, Serialize};

/// A monotonic-seconds source for per-window timing. `qni-core` itself
/// never reads the wall clock (the byte-reproducibility contract is
/// lint-enforced: QNI-D001); binaries that want real
/// [`WindowEstimate::wall_secs`] inject one, e.g.
///
/// ```ignore
/// fn secs() -> f64 {
///     use std::sync::OnceLock;
///     use std::time::Instant;
///     static START: OnceLock<Instant> = OnceLock::new();
///     START.get_or_init(Instant::now).elapsed().as_secs_f64()
/// }
/// let opts = StreamOptions { clock: Some(secs), ..StreamOptions::default() };
/// ```
///
/// Only *differences* of the returned values are used, so any monotonic
/// epoch works.
pub type ClockFn = fn() -> f64;

/// Options for [`run_stream`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Per-window StEM configuration (iterations, burn-in, init,
    /// [`crate::gibbs::sweep::BatchMode`], [`crate::gibbs::shard::ShardMode`]).
    pub stem: StemOptions,
    /// Independent chains per window (pooled as in [`crate::chains`]).
    pub chains: usize,
    /// Master seed; window `w` derives `split_seed(master_seed, w)`.
    pub master_seed: u64,
    /// Optional total-thread budget shared between `chains × shards`
    /// within each window (see
    /// [`crate::chains::ParallelStemOptions::thread_budget`]).
    pub thread_budget: Option<usize>,
    /// Whether each window is warm-started from the previous window's
    /// rate estimates and final Gibbs state (see the module docs). Off
    /// means every window starts cold from [`crate::stem::heuristic_rates`].
    pub warm_start: bool,
    /// Burn-in override for *warm-started* windows. `None` (the
    /// default) keeps [`StemOptions::burn_in`] everywhere; `Some(b)`
    /// amortizes burn-in across the stream: the cold first window pays
    /// the full budget, every warm window only `b` sweeps (its chains
    /// start from the previous window's imputed state, already near
    /// stationarity). Must leave at least 4 post-burn-in iterations.
    pub warm_burn_in: Option<usize>,
    /// Whether to carry cross-window server occupancy (see the module
    /// docs). On by default; turning it off reproduces the pre-carry
    /// per-window-independent estimates.
    pub occupancy_carry: bool,
    /// Optional injected clock for [`WindowEstimate::wall_secs`]. With
    /// `None` (the default) every `wall_secs` is `0.0` — timing is a
    /// caller concern, and a library-side clock read would violate the
    /// determinism contract ([`ClockFn`] shows the caller-side recipe).
    pub clock: Option<ClockFn>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            stem: StemOptions::default(),
            chains: 1,
            master_seed: 0,
            thread_budget: None,
            warm_start: true,
            warm_burn_in: None,
            occupancy_carry: true,
            clock: None,
        }
    }
}

impl StreamOptions {
    /// A small, fast configuration for doc tests and smoke tests,
    /// routed through the shared [`StemOptions::quick_test`] budget.
    pub fn quick_test() -> Self {
        StreamOptions {
            stem: StemOptions::quick_test(),
            ..StreamOptions::default()
        }
    }

    /// The fit options of window `index`: its chains seed from
    /// `split_seed(master_seed, index)`, and a warm-started window runs
    /// the amortized burn-in when one is set.
    fn window_options(&self, index: usize, warm: bool) -> ParallelStemOptions {
        let mut stem = self.stem.clone();
        if let (true, Some(b)) = (warm, self.warm_burn_in) {
            // Amortized burn-in: warm chains start near stationarity.
            stem.burn_in = b;
        }
        ParallelStemOptions {
            stem,
            chains: self.chains,
            master_seed: split_seed(self.master_seed, index as u64),
            thread_budget: self.thread_budget,
        }
    }

    /// Validates the configuration, so errors surface before the first
    /// window runs: the per-window fit options, and a warm burn-in that
    /// leaves at least 4 post-burn-in iterations.
    pub fn validate(&self) -> Result<(), InferenceError> {
        self.window_options(0, false).validate()?;
        if let Some(b) = self.warm_burn_in {
            if self.stem.iterations < b.saturating_add(4) {
                return Err(InferenceError::BadOptions {
                    what: "warm burn-in must leave >= 4 post-burn-in iterations",
                });
            }
        }
        Ok(())
    }
}

/// One window's estimate in a [`RateTrajectory`].
#[derive(Debug, Clone, Serialize)]
pub struct WindowEstimate {
    /// Window index in the schedule.
    pub index: usize,
    /// Window start on the original trace's clock (inclusive).
    pub start: f64,
    /// Window end on the original trace's clock (exclusive).
    pub end: f64,
    /// Tasks owned by the window.
    pub tasks: usize,
    /// Events in the window's log.
    pub events: usize,
    /// Occupancy carry tasks injected ahead of the fit (see
    /// [`StreamOptions::occupancy_carry`]); the reported λ̂ is already
    /// rescaled to exclude their q0 events.
    pub carry_tasks: usize,
    /// Free (resampled) variables in the window.
    pub free_variables: usize,
    /// Whether this window was warm-started from the previous one.
    pub warm_started: bool,
    /// Whether the estimate was *carried* from the previous window
    /// because this window owned no tasks (rates repeat, diagnostics are
    /// NaN).
    pub carried: bool,
    /// Pooled rate estimates per queue (entry 0 is λ̂).
    pub rates: Vec<f64>,
    /// Pooled mean service estimates `1/µ̂_q`.
    pub mean_service: Vec<f64>,
    /// Per-queue split-R̂ of the window's chains.
    pub split_rhat: Vec<f64>,
    /// Per-queue pooled ESS of the window's chains.
    pub ess: Vec<f64>,
    /// Seconds spent fitting the window, measured by the injected
    /// [`StreamOptions::clock`] (`0.0` when no clock is provided — the
    /// library itself never reads the wall clock). The only potentially
    /// non-deterministic field; excluded from
    /// [`RateTrajectory::fingerprint`].
    // qni-lint: allow(QNI-F001) — timing is measurement, not estimate: deliberately outside the live == replay byte-identity contract
    pub wall_secs: f64,
}

/// The output of a streaming run: one [`WindowEstimate`] per scheduled
/// window, in window order.
#[derive(Debug, Clone, Serialize)]
pub struct RateTrajectory {
    /// Queue count (including `q0`) of every per-queue vector.
    pub num_queues: usize,
    /// The schedule's window width.
    pub width: f64,
    /// The schedule's stride.
    pub stride: f64,
    /// Master seed the stream derived every window seed from.
    pub master_seed: u64,
    /// Chains pooled per window.
    pub chains: usize,
    /// Whether warm starts were enabled.
    pub warm_start: bool,
    /// Per-window estimates.
    pub windows: Vec<WindowEstimate>,
}

impl RateTrajectory {
    /// The per-window λ̂ series (entry 0 of each window's rates).
    pub fn lambda_trace(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.rates[0]).collect()
    }

    /// The trajectory's deterministic bit content: the run
    /// configuration (queue count, schedule, master seed, chain count,
    /// warm-start flag) followed by `to_bits` of every deterministic
    /// field of every window (spans, sizes, flags, rates, mean service,
    /// split-R̂, ESS), excluding only wall-clock times. Two runs with
    /// the same trace, schedule, and options must produce equal
    /// fingerprints; see the [module docs](self) for the guarantee.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut bits = vec![
            self.num_queues as u64,
            self.width.to_bits(),
            self.stride.to_bits(),
            self.master_seed,
            self.chains as u64,
            u64::from(self.warm_start),
        ];
        for w in &self.windows {
            bits.push(w.index as u64);
            bits.push(w.start.to_bits());
            bits.push(w.end.to_bits());
            bits.push(w.tasks as u64);
            bits.push(w.events as u64);
            bits.push(w.carry_tasks as u64);
            bits.push(w.free_variables as u64);
            bits.push(u64::from(w.warm_started));
            bits.push(u64::from(w.carried));
            for v in w
                .rates
                .iter()
                .chain(&w.mean_service)
                .chain(&w.split_rhat)
                .chain(&w.ess)
            {
                bits.push(v.to_bits());
            }
        }
        bits
    }

    /// A 16-hex-digit digest of [`RateTrajectory::fingerprint`] (FNV-1a
    /// over the bit words), printable on one line — what `qni watch` and
    /// `qni stream` emit so byte-identity across the two ingestion paths
    /// can be asserted by comparing stdout.
    pub fn fingerprint_digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in self.fingerprint() {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }

    /// Writes the trajectory as CSV: one row per window with the span,
    /// size, diagnostics summary, and every per-queue rate
    /// (`rate_q0` is λ̂).
    pub fn to_csv<W: std::io::Write>(&self, out: W) -> Result<(), InferenceError> {
        let mut header: Vec<String> = [
            "window",
            "start",
            "end",
            "tasks",
            "events",
            "warm_started",
            "carried",
            "max_split_rhat",
            "min_ess",
            "wall_secs",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        for q in 0..self.num_queues {
            header.push(format!("rate_q{q}"));
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut w = qni_trace::csv::CsvWriter::new(out, &header_refs)?;
        for win in &self.windows {
            let max_rhat = win.split_rhat.iter().copied().fold(f64::NAN, f64::max);
            let min_ess = win.ess.iter().copied().fold(f64::INFINITY, f64::min);
            let mut row = vec![
                win.index.to_string(),
                format!("{}", win.start),
                format!("{}", win.end),
                win.tasks.to_string(),
                win.events.to_string(),
                win.warm_started.to_string(),
                win.carried.to_string(),
                format!("{max_rhat}"),
                format!("{min_ess}"),
                format!("{}", win.wall_secs),
            ];
            row.extend(win.rates.iter().map(|r| format!("{r}")));
            w.row(&row)?;
        }
        Ok(())
    }
}

/// Builds the next window's warm-start targets from the previous
/// window's final Gibbs log: every free time of a task shared by both
/// windows is targeted at its previously imputed value, rebased onto the
/// new window's clock. A shared task's events pair by position.
fn carry_warm_times(prev: &PrevWindow, cur: &WindowedLog) -> WarmTimes {
    let shift = prev.start - cur.start;
    let (cur_log, mask) = (cur.masked().ground_truth(), cur.masked().mask());
    // Sized by the full log (carry events included) — carry events are
    // fully observed, so they simply never gain a target.
    let mut warm = WarmTimes::empty(cur_log.num_events());
    for k in (0..cur.num_tasks()).map(TaskId::from_index) {
        let shared = prev.orig_tasks.binary_search(&cur.original_task(k));
        let Some(task) = shared.ok().and_then(|j| prev.final_log.tasks.get(j)) else {
            continue;
        };
        // `(arrival, departure)` of the task's q0 event, then its visits.
        let times =
            std::iter::once((0.0, task.entry)).chain(task.visits.iter().map(|v| (v.2, v.3)));
        for (&e, (arrival, departure)) in cur_log.task_events(k).iter().zip(times) {
            if !cur_log.is_initial_event(e) && !mask.arrival_observed(e) {
                warm.set_transition(e, arrival + shift);
            }
            if cur_log.is_final_event(e) && !mask.departure_observed(e) {
                warm.set_final_departure(e, departure + shift);
            }
        }
    }
    warm
}

/// State carried from the last fitted window into the next one: exactly
/// what [`StreamEngine::push_window`] reads, and all a checkpoint holds
/// of the window. Its reported rates are its own estimate, which the
/// engine keeps already.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PrevWindow {
    /// The fitted window's position in the schedule.
    pub(crate) index: usize,
    /// Its start on the original trace's clock.
    #[serde(with = "qni_model::bits")]
    pub(crate) start: f64,
    /// Original-trace ids of its real tasks, increasing.
    pub(crate) orig_tasks: Vec<TaskId>,
    /// Chain 0's final imputed Gibbs log on it, as builder inputs: the
    /// real tasks in `orig_tasks` order, then the carry tasks.
    pub(crate) final_log: LogInputs,
    /// Uncorrected pooled rates — the sampler-facing warm-start values.
    #[serde(with = "qni_model::bits")]
    pub(crate) pooled: Vec<f64>,
}

/// The incremental streaming engine: the persistent cross-window state
/// of a streaming StEM run ([`run_stream`] is a thin replay wrapper
/// around it).
///
/// Push each [`WindowedLog`] as it closes — in schedule order, empty
/// windows included — and the engine fits it warm-started from its own
/// carried state (previous pooled rates, previous final Gibbs log,
/// carried server occupancy), appending one [`WindowEstimate`] per
/// push. Because the engine never looks at anything but the pushed
/// window and its own state, a live tail that closes windows
/// incrementally produces exactly the bytes of a replay over the
/// complete trace.
#[derive(Debug)]
pub struct StreamEngine {
    opts: StreamOptions,
    schedule: WindowSchedule,
    num_queues: usize,
    prev: Option<PrevWindow>,
    windows: Vec<WindowEstimate>,
    /// Per-chain persistent wave-prepare pools, reused across every
    /// pushed window (built lazily on the first fit that shards).
    /// Runtime-only scheduling state: never checkpointed, rebuilt on
    /// resume, and byte-neutral to results (see [`crate::gibbs::pool`]).
    pools: PoolSet,
}

impl StreamEngine {
    /// Creates an engine for one stream. `num_queues` is the trace's
    /// total queue count including q0 (every pushed window must agree).
    pub fn new(
        schedule: WindowSchedule,
        num_queues: usize,
        opts: StreamOptions,
    ) -> Result<Self, InferenceError> {
        opts.validate()?;
        if num_queues < 2 {
            return Err(InferenceError::BadOptions {
                what: "stream needs at least q0 plus one service queue",
            });
        }
        Ok(StreamEngine {
            opts,
            schedule,
            num_queues,
            prev: None,
            windows: Vec::new(),
            pools: PoolSet::new(),
        })
    }

    /// The estimates of every window pushed so far, in window order.
    pub fn estimates(&self) -> &[WindowEstimate] {
        &self.windows
    }

    /// Number of windows fitted so far.
    pub fn num_windows(&self) -> usize {
        self.windows.len()
    }

    /// Fits one closed window and appends its estimate (returned by
    /// reference). Windows must arrive in schedule order, empty ones
    /// included — exactly what [`qni_trace::window::LiveSlicer`] emits.
    pub fn push_window(&mut self, window: WindowedLog) -> Result<&WindowEstimate, InferenceError> {
        if window.index != self.windows.len() {
            return Err(InferenceError::BadOptions {
                what: "windows must be pushed in schedule order, none skipped",
            });
        }
        if window.masked().ground_truth().num_queues() != self.num_queues {
            return Err(InferenceError::BadOptions {
                what: "window queue count disagrees with the stream's",
            });
        }
        let clock = self.opts.clock;
        let now = move || clock.map_or(0.0, |c| c());
        let t0 = now();
        if window.num_tasks() == 0 {
            // An empty window repeats the last fitted window's reported
            // rates, and never touches `prev`: the next fitted window
            // warm-starts from the last *fitted* one.
            let rates = match &self.prev {
                Some(p) => self.windows[p.index].rates.clone(),
                None => vec![f64::NAN; self.num_queues],
            };
            self.windows.push(WindowEstimate {
                index: window.index,
                start: window.start,
                end: window.end,
                tasks: 0,
                events: 0,
                carry_tasks: 0,
                free_variables: 0,
                warm_started: false,
                carried: true,
                mean_service: rates.iter().map(|r| 1.0 / r).collect(),
                rates,
                split_rhat: vec![f64::NAN; self.num_queues],
                ess: vec![f64::NAN; self.num_queues],
                wall_secs: now() - t0,
            });
            return self.windows.last().ok_or(InferenceError::BadOptions {
                what: "window list empty after push",
            });
        }
        // Inject the carried server occupancy before fitting.
        let window = match (&self.prev, self.opts.occupancy_carry) {
            (Some(p), true) => {
                let carry = occupancy_carry(p.start, &p.orig_tasks, &p.final_log, &window);
                window.with_occupancy(&carry)?
            }
            _ => window,
        };
        let (initial_rates, warm) = match (&self.prev, self.opts.warm_start) {
            (Some(p), true) => (Some(&p.pooled[..]), Some(carry_warm_times(p, &window))),
            _ => (None, None),
        };
        let popts = self.opts.window_options(window.index, warm.is_some());
        let mut r = run_stem_parallel_warm_in_pools(
            window.masked(),
            initial_rates,
            warm.as_ref(),
            &popts,
            &mut self.pools,
        )?;
        let free =
            window.masked().free_arrivals().len() + window.masked().free_final_departures().len();
        // Each carry task adds one synthetic q0 event with a zero
        // interarrival gap, inflating the M-step's λ̂ = count/gap-sum by
        // exactly (real+carry)/real — undo that in the report. The µ̂
        // side needs no correction (the carried busy time is real work).
        let mut rates = r.rates.clone();
        let mut mean_service = r.mean_service.clone();
        let (real, carry) = (window.num_tasks(), window.carry_tasks());
        if carry > 0 {
            let scale = real as f64 / (real + carry) as f64;
            rates[0] *= scale;
            mean_service[0] /= scale;
        }
        self.windows.push(WindowEstimate {
            index: window.index,
            start: window.start,
            end: window.end,
            tasks: window.num_tasks(),
            events: window.num_events(),
            carry_tasks: carry,
            free_variables: free,
            warm_started: warm.is_some(),
            carried: false,
            rates,
            mean_service,
            split_rhat: r.diagnostics.split_rhat.clone(),
            ess: r.diagnostics.ess.clone(),
            wall_secs: now() - t0,
        });
        // Chain 0 donates the Gibbs state carried into the next window;
        // the uncorrected pooled rates donate the next initial rates.
        let donor = r.chains.swap_remove(0).final_log;
        self.prev = Some(PrevWindow {
            index: window.index,
            start: window.start,
            orig_tasks: (0..window.num_tasks())
                .map(|k| window.original_task(TaskId::from_index(k)))
                .collect(),
            final_log: donor.inputs(),
            pooled: r.rates,
        });
        self.windows.last().ok_or(InferenceError::BadOptions {
            what: "window list empty after push",
        })
    }

    /// Consumes the engine, yielding the trajectory of every pushed
    /// window.
    pub fn into_trajectory(self) -> RateTrajectory {
        RateTrajectory {
            num_queues: self.num_queues,
            width: self.schedule.width(),
            stride: self.schedule.stride(),
            master_seed: self.opts.master_seed,
            chains: self.opts.chains,
            warm_start: self.opts.warm_start,
            windows: self.windows,
        }
    }

    /// The trajectory built so far, without consuming the engine (used
    /// for periodic emission while a live tail is still running).
    pub fn trajectory_snapshot(&self) -> RateTrajectory {
        RateTrajectory {
            num_queues: self.num_queues,
            width: self.schedule.width(),
            stride: self.schedule.stride(),
            master_seed: self.opts.master_seed,
            chains: self.opts.chains,
            warm_start: self.opts.warm_start,
            windows: self.windows.clone(),
        }
    }

    /// The engine's resume state: every emitted estimate and the carried
    /// previous window. A restored engine's subsequent pushes are
    /// bit-identical because window `w` seeds from
    /// `split_seed(master_seed, w)` — no RNG state crosses windows, only
    /// the data held here.
    pub(crate) fn state(&self) -> EngineState {
        EngineState {
            windows: self.windows.clone(),
            prev: self.prev.clone(),
        }
    }

    /// Rebuilds the engine an [`EngineState`] was taken from, under the
    /// original run's `schedule`, `num_queues` and `opts`. State read
    /// from untrusted bytes must first pass the checks of
    /// [`crate::watch::WatchSession::resume`].
    pub(crate) fn restore(
        schedule: WindowSchedule,
        num_queues: usize,
        opts: StreamOptions,
        state: &EngineState,
    ) -> Result<Self, InferenceError> {
        let mut engine = StreamEngine::new(schedule, num_queues, opts)?;
        engine.windows.clone_from(&state.windows);
        engine.prev.clone_from(&state.prev);
        Ok(engine)
    }
}

/// A [`StreamEngine`]'s resume state as a checkpoint holds it: the
/// emitted estimates and the carried previous window. Schedule, queue
/// count and options are *not* embedded — the checkpoint fingerprints
/// them and rejects a resume under others.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineState {
    /// Every emitted window estimate, in window order.
    #[serde(with = "exact_estimates")]
    pub(crate) windows: Vec<WindowEstimate>,
    /// The carried previous window, once a window has been fitted.
    pub(crate) prev: Option<PrevWindow>,
}

/// The checkpoint form of the estimates. [`WindowEstimate`]'s derived
/// form is what `--json` writes, with NaN and ±∞ (a carried window's
/// diagnostics, an infinite R̂) as `null`; this one keeps every float
/// bit-exact.
mod exact_estimates {
    use super::WindowEstimate;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    #[derive(Serialize, Deserialize)]
    struct Exact {
        index: usize,
        #[serde(with = "qni_model::bits")]
        start: f64,
        #[serde(with = "qni_model::bits")]
        end: f64,
        tasks: usize,
        events: usize,
        carry_tasks: usize,
        free_variables: usize,
        warm_started: bool,
        carried: bool,
        #[serde(with = "qni_model::bits")]
        rates: Vec<f64>,
        #[serde(with = "qni_model::bits")]
        mean_service: Vec<f64>,
        #[serde(with = "qni_model::bits")]
        split_rhat: Vec<f64>,
        #[serde(with = "qni_model::bits")]
        ess: Vec<f64>,
        #[serde(with = "qni_model::bits")]
        wall_secs: f64,
    }

    pub(super) fn serialize<S: Serializer>(
        windows: &[WindowEstimate],
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let exact: Vec<Exact> = windows
            .iter()
            .map(|w| Exact {
                index: w.index,
                start: w.start,
                end: w.end,
                tasks: w.tasks,
                events: w.events,
                carry_tasks: w.carry_tasks,
                free_variables: w.free_variables,
                warm_started: w.warm_started,
                carried: w.carried,
                rates: w.rates.clone(),
                mean_service: w.mean_service.clone(),
                split_rhat: w.split_rhat.clone(),
                ess: w.ess.clone(),
                wall_secs: w.wall_secs,
            })
            .collect();
        exact.serialize(serializer)
    }

    pub(super) fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<Vec<WindowEstimate>, D::Error> {
        let exact = Vec::<Exact>::deserialize(deserializer)?;
        Ok(exact
            .into_iter()
            .map(|w| WindowEstimate {
                index: w.index,
                start: w.start,
                end: w.end,
                tasks: w.tasks,
                events: w.events,
                carry_tasks: w.carry_tasks,
                free_variables: w.free_variables,
                warm_started: w.warm_started,
                carried: w.carried,
                rates: w.rates,
                mean_service: w.mean_service,
                split_rhat: w.split_rhat,
                ess: w.ess,
                wall_secs: w.wall_secs,
            })
            .collect())
    }
}

/// Runs streaming StEM over `masked` under the window `schedule` by
/// replay: slice every window, push each through a [`StreamEngine`].
///
/// Every scheduled window yields one [`WindowEstimate`], including
/// windows that own no task (their estimate is carried forward so the
/// trajectory always aligns with the schedule). See the
/// [module docs](self) for warm-start semantics and the determinism
/// contract.
pub fn run_stream(
    masked: &MaskedLog,
    schedule: &WindowSchedule,
    opts: &StreamOptions,
) -> Result<RateTrajectory, InferenceError> {
    let num_queues = masked.ground_truth().num_queues();
    let mut engine = StreamEngine::new(*schedule, num_queues, opts.clone())?;
    for window in slice_windows(masked, schedule)? {
        engine.push_window(window)?;
    }
    Ok(engine.into_trajectory())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;
    use qni_trace::ObservationScheme;

    fn piecewise_masked(seed: u64) -> MaskedLog {
        let bp = tandem(2.0, &[10.0]).unwrap();
        let mut rng = rng_from_seed(seed);
        let workload = Workload::piecewise_constant(vec![2.0, 5.0], vec![30.0], 60.0).unwrap();
        let truth = Simulator::new(&bp.network)
            .run(&workload, &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap()
    }

    #[test]
    fn options_validation() {
        let bad = StreamOptions {
            chains: 0,
            ..StreamOptions::quick_test()
        };
        assert!(bad.validate().is_err());
        let bad = StreamOptions {
            thread_budget: Some(0),
            ..StreamOptions::quick_test()
        };
        assert!(bad.validate().is_err());
        let bad = StreamOptions {
            stem: StemOptions {
                iterations: 10,
                burn_in: 8,
                ..StemOptions::quick_test()
            },
            ..StreamOptions::quick_test()
        };
        assert!(bad.validate().is_err());
        assert!(StreamOptions::quick_test().validate().is_ok());
    }

    #[test]
    fn trajectory_shapes_and_alignment() {
        let masked = piecewise_masked(1);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions::quick_test();
        let traj = run_stream(&masked, &schedule, &opts).unwrap();
        assert_eq!(traj.num_queues, 2);
        assert!(traj.windows.len() >= 5, "windows={}", traj.windows.len());
        for (i, w) in traj.windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert!((w.start - i as f64 * 10.0).abs() < 1e-12);
            assert!((w.end - w.start - 20.0).abs() < 1e-12);
            assert_eq!(w.rates.len(), 2);
            assert_eq!(w.split_rhat.len(), 2);
            if !w.carried {
                assert!(w.rates.iter().all(|r| r.is_finite() && *r > 0.0));
            }
        }
        assert_eq!(traj.lambda_trace().len(), traj.windows.len());
        // Later windows (rate 5 segment) see a clearly higher λ̂ than
        // early ones (rate 2 segment).
        let first = traj.windows.first().unwrap().rates[0];
        let last_full = traj
            .windows
            .iter()
            .rev()
            .find(|w| !w.carried && w.end <= 60.0)
            .unwrap();
        assert!(
            last_full.rates[0] > first,
            "λ̂ should rise: first={first} last={}",
            last_full.rates[0]
        );
    }

    #[test]
    fn warm_start_flags_and_cold_mode() {
        let masked = piecewise_masked(2);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let warm = run_stream(&masked, &schedule, &StreamOptions::quick_test()).unwrap();
        assert!(!warm.windows[0].warm_started, "first window has no donor");
        assert!(warm.windows[1].warm_started);
        let cold = run_stream(
            &masked,
            &schedule,
            &StreamOptions {
                warm_start: false,
                ..StreamOptions::quick_test()
            },
        )
        .unwrap();
        assert!(cold.windows.iter().all(|w| !w.warm_started));
        // Warm and cold chains consume the same RNG streams but start at
        // different states: trajectories differ.
        assert_ne!(warm.fingerprint(), cold.fingerprint());
    }

    #[test]
    fn stream_is_deterministic_and_seed_sensitive() {
        let masked = piecewise_masked(3);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions::quick_test();
        let a = run_stream(&masked, &schedule, &opts).unwrap();
        let b = run_stream(&masked, &schedule, &opts).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = run_stream(
            &masked,
            &schedule,
            &StreamOptions {
                master_seed: 99,
                ..StreamOptions::quick_test()
            },
        )
        .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn engine_pushes_match_replay_bit_for_bit() {
        let masked = piecewise_masked(5);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions::quick_test();
        let replay = run_stream(&masked, &schedule, &opts).unwrap();
        let mut engine = StreamEngine::new(schedule, 2, opts).unwrap();
        for window in slice_windows(&masked, &schedule).unwrap() {
            engine.push_window(window).unwrap();
        }
        assert_eq!(engine.num_windows(), replay.windows.len());
        let live = engine.into_trajectory();
        assert_eq!(live.fingerprint(), replay.fingerprint());
        assert_eq!(live.fingerprint_digest(), replay.fingerprint_digest());
    }

    #[test]
    fn engine_rejects_out_of_order_and_mismatched_windows() {
        let masked = piecewise_masked(5);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let mut windows = slice_windows(&masked, &schedule).unwrap();
        let mut engine = StreamEngine::new(schedule, 2, StreamOptions::quick_test()).unwrap();
        let second = windows.remove(1);
        assert!(engine.push_window(second).is_err(), "skipped window 0");
        assert!(StreamEngine::new(schedule, 1, StreamOptions::quick_test()).is_err());
    }

    #[test]
    fn occupancy_carry_rescales_lambda_and_is_opt_out() {
        let masked = piecewise_masked(6);
        // Small stride: plenty of straddling work to carry.
        let schedule = WindowSchedule::new(20.0, 5.0).unwrap();
        let carried = run_stream(&masked, &schedule, &StreamOptions::quick_test()).unwrap();
        let without = run_stream(
            &masked,
            &schedule,
            &StreamOptions {
                occupancy_carry: false,
                ..StreamOptions::quick_test()
            },
        )
        .unwrap();
        assert!(
            carried.windows.iter().any(|w| w.carry_tasks > 0),
            "expected at least one carried-occupancy window"
        );
        assert!(without.windows.iter().all(|w| w.carry_tasks == 0));
        assert_ne!(carried.fingerprint(), without.fingerprint());
        // λ̂ stays finite and positive despite the synthetic q0 events.
        for w in carried.windows.iter().filter(|w| !w.carried) {
            assert!(w.rates[0].is_finite() && w.rates[0] > 0.0);
        }
        // Each mode is individually reproducible.
        let carried2 = run_stream(&masked, &schedule, &StreamOptions::quick_test()).unwrap();
        assert_eq!(carried.fingerprint(), carried2.fingerprint());
    }

    #[test]
    fn warm_burn_in_amortizes_and_validates() {
        for b in [StemOptions::quick_test().iterations, usize::MAX] {
            let bad = StreamOptions {
                warm_burn_in: Some(b),
                ..StreamOptions::quick_test()
            };
            assert!(bad.validate().is_err(), "warm burn-in {b}");
        }
        let masked = piecewise_masked(7);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions {
            warm_burn_in: Some(1),
            ..StreamOptions::quick_test()
        };
        let a = run_stream(&masked, &schedule, &opts).unwrap();
        let b = run_stream(&masked, &schedule, &opts).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // The shortened burn-in changes which sweeps are averaged, so it
        // is a genuinely different (still reproducible) estimator.
        let full = run_stream(&masked, &schedule, &StreamOptions::quick_test()).unwrap();
        assert_ne!(a.fingerprint(), full.fingerprint());
    }

    /// Checkpointing the engine after any number of pushed windows,
    /// JSON round-tripping the state, and restoring yields an engine
    /// whose remaining pushes produce a trajectory bit-identical to an
    /// uninterrupted run — the core resume guarantee, swept over every
    /// window boundary.
    #[test]
    fn engine_state_resumes_bit_identically_at_every_boundary() {
        let masked = piecewise_masked(8);
        let schedule = WindowSchedule::new(20.0, 10.0).unwrap();
        let opts = StreamOptions::quick_test();
        let replay = run_stream(&masked, &schedule, &opts).unwrap();
        let num_windows = replay.windows.len();
        for cut in 0..=num_windows {
            let mut first = StreamEngine::new(schedule, 2, opts.clone()).unwrap();
            for window in slice_windows(&masked, &schedule)
                .unwrap()
                .into_iter()
                .take(cut)
            {
                first.push_window(window).unwrap();
            }
            let json = serde_json::to_string(&first.state()).unwrap();
            let back: EngineState = serde_json::from_str(&json).unwrap();
            let again = serde_json::to_string(&back).unwrap();
            assert_eq!(again, json, "cut {cut}: JSON round-trip");
            let mut resumed = StreamEngine::restore(schedule, 2, opts.clone(), &back).unwrap();
            assert_eq!(resumed.num_windows(), cut);
            for window in slice_windows(&masked, &schedule)
                .unwrap()
                .into_iter()
                .skip(cut)
            {
                resumed.push_window(window).unwrap();
            }
            let traj = resumed.into_trajectory();
            assert_eq!(
                traj.fingerprint(),
                replay.fingerprint(),
                "cut {cut}: trajectory diverged after resume"
            );
        }
    }

    /// The warm-start targets of a per-event search, the oracle for
    /// [`carry_warm_times`]: every real event of both windows is mapped
    /// to its event id in the original log, and an event of `cur` takes
    /// the previous final log's times at the position of its id among
    /// the previous window's ids.
    fn warm_times_by_event_id(
        truth: &qni_model::log::EventLog,
        prev: &PrevWindow,
        cur: &WindowedLog,
    ) -> WarmTimes {
        let prev_events: Vec<_> = (prev.orig_tasks.iter())
            .flat_map(|&t| truth.task_events(t).iter().copied())
            .collect();
        let cur_events = (0..cur.num_tasks())
            .flat_map(|k| truth.task_events(cur.original_task(TaskId::from_index(k))));
        let times: Vec<(f64, f64)> = (prev.final_log.tasks.iter())
            .flat_map(|t| {
                std::iter::once((0.0, t.entry)).chain(t.visits.iter().map(|v| (v.2, v.3)))
            })
            .collect();
        let shift = prev.start - cur.start;
        let (log, mask) = (cur.masked().ground_truth(), cur.masked().mask());
        let mut warm = WarmTimes::empty(log.num_events());
        for (i, oe) in cur_events.enumerate() {
            let we = qni_model::ids::EventId::from_index(i);
            let Ok(pe) = prev_events.binary_search(oe) else {
                continue;
            };
            let (arrival, departure) = times[pe];
            if !log.is_initial_event(we) && !mask.arrival_observed(we) {
                warm.set_transition(we, arrival + shift);
            }
            if log.is_final_event(we) && !mask.departure_observed(we) {
                warm.set_final_departure(we, departure + shift);
            }
        }
        warm
    }

    /// Pairing a shared task's events by position gives the warm-start
    /// targets of a per-event search through the original log's event
    /// ids, bit for bit, on seeded two-stage traces whose windows carry
    /// occupancy.
    #[test]
    fn warm_targets_by_task_match_an_event_id_oracle() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in [31u64, 32, 33] {
            let bp = tandem(2.0, &[10.0, 12.0]).unwrap();
            let mut rng = rng_from_seed(seed);
            let workload = Workload::piecewise_constant(vec![2.0, 5.0], vec![30.0], 60.0).unwrap();
            let truth = Simulator::new(&bp.network)
                .run(&workload, &mut rng)
                .unwrap();
            let masked = ObservationScheme::task_sampling(0.5)
                .unwrap()
                .apply(truth, &mut rng)
                .unwrap();
            let schedule = WindowSchedule::new(20.0, 5.0).unwrap();
            let mut engine = StreamEngine::new(schedule, 3, StreamOptions::quick_test()).unwrap();
            let (mut carry_tasks, mut targets) = (0, 0);
            for window in slice_windows(&masked, &schedule).unwrap() {
                if let (Some(prev), true) = (&engine.prev, window.num_tasks() > 0) {
                    let carry =
                        occupancy_carry(prev.start, &prev.orig_tasks, &prev.final_log, &window);
                    let cur = window.with_occupancy(&carry).unwrap();
                    let got = carry_warm_times(prev, &cur);
                    let want = warm_times_by_event_id(masked.ground_truth(), prev, &cur);
                    assert_eq!(bits(&got.transition), bits(&want.transition));
                    assert_eq!(bits(&got.final_departure), bits(&want.final_departure));
                    carry_tasks += prev.final_log.tasks.len() - prev.orig_tasks.len();
                    targets += got.num_set();
                }
                engine.push_window(window).unwrap();
            }
            assert!(
                carry_tasks > 0 && targets > 0,
                "seed {seed}: {carry_tasks}, {targets}"
            );
        }
    }

    #[test]
    fn csv_renders_one_row_per_window() {
        let masked = piecewise_masked(4);
        let schedule = WindowSchedule::new(30.0, 30.0).unwrap();
        let traj = run_stream(&masked, &schedule, &StreamOptions::quick_test()).unwrap();
        let mut buf = Vec::new();
        traj.to_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), traj.windows.len() + 1);
        assert!(lines[0].starts_with("window,start,end,tasks"));
        assert!(lines[0].ends_with("rate_q0,rate_q1"), "{}", lines[0]);
    }
}
