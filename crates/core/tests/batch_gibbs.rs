//! Correctness of the batched same-queue arrival engine against the
//! scalar sampler.
//!
//! Three layers of evidence:
//!
//! 1. **Bit-identity for singleton groups** (property test): whenever
//!    every queue has at most one free arrival, the batched sweep must
//!    consume the RNG and mutate the log exactly like the scalar sweep —
//!    the correctness bar the engine is built around.
//! 2. **Distributional exactness for multi-event groups**: the first
//!    event a group resamples is drawn from its full conditional at the
//!    group's entry state, so its samples must pass a KS test against the
//!    brute-force numeric conditional of `gibbs::numeric`.
//! 3. **Structural safety on arbitrary masks** (property test): batched
//!    sweeps never violate the deterministic constraints and always
//!    resample every free arrival exactly once.

use proptest::prelude::*;
use qni_core::gibbs::numeric::{numeric_conditional_grid, service_log_joint};
use qni_core::gibbs::sweep::{sweep, sweep_with_opts_pooled, BatchMode, SweepStats};
use qni_core::init::InitStrategy;
use qni_core::stem::{run_stem, StemOptions};
use qni_core::{GibbsState, InferenceError, ShardMode};
use qni_model::ids::{EventId, QueueId};
use qni_model::log::EventLog;
use qni_model::topology::tandem;
use qni_sim::{Simulator, Workload};
use qni_stats::ks::{ks_critical_value, ks_statistic};
use qni_stats::rng::{rng_from_seed, split_seed};
use qni_trace::{MaskedLog, ObservedMask};

const STAGE_RATES: [f64; 3] = [5.0, 4.0, 6.0];

/// One serial batched sweep.
fn grouped_sweep(
    st: &mut GibbsState,
    rng: &mut qni_stats::rng::Rng,
) -> Result<SweepStats, InferenceError> {
    sweep_with_opts_pooled(st, BatchMode::Grouped, ShardMode::Serial, None, rng)
}

fn simulate(stages: usize, tasks: usize, seed: u64) -> EventLog {
    let bp = tandem(2.0, &STAGE_RATES[..stages]).expect("topology");
    let mut rng = rng_from_seed(seed);
    Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(2.0, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation")
}

/// Masks exactly one arrival per queue (by `pick`), observing everything
/// else: every batch group is a singleton.
fn singleton_mask(truth: EventLog, pick: usize) -> MaskedLog {
    let mut free = Vec::new();
    for q in 1..truth.num_queues() {
        let at_q = truth.events_at_queue(QueueId::from_index(q));
        free.push(at_q[pick % at_q.len()]);
    }
    let mut mask = ObservedMask::unobserved(truth.num_events());
    for e in truth.event_ids() {
        if !free.contains(&e) {
            mask.observe_arrival(e);
        }
        mask.observe_departure(e);
    }
    MaskedLog::new(truth, mask).expect("mask shape")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Correctness bar: with singleton groups, batched and scalar sweeps
    /// are byte-identical under a shared seed.
    #[test]
    fn singleton_groups_are_bit_identical_to_scalar(
        stages in 1usize..=3,
        tasks in 5usize..25,
        sim_seed in 0u64..200,
        sweep_seed in 0u64..200,
        pick in 0usize..64,
    ) {
        let truth = simulate(stages, tasks, sim_seed);
        let masked = singleton_mask(truth, pick);
        let rates: Vec<f64> = std::iter::once(2.0)
            .chain(STAGE_RATES[..stages].iter().copied())
            .collect();
        let mk = || GibbsState::new(&masked, rates.clone(), InitStrategy::default()).unwrap();
        let (mut scalar, mut batched) = (mk(), mk());
        prop_assert_eq!(scalar.free_arrivals().len(), stages);
        let mut ra = rng_from_seed(sweep_seed);
        let mut rb = rng_from_seed(sweep_seed);
        for _ in 0..4 {
            let ss = sweep(&mut scalar, &mut ra).unwrap();
            let sb = grouped_sweep(&mut batched, &mut rb).unwrap();
            prop_assert_eq!(ss.arrival_moves, sb.arrival_moves);
            prop_assert_eq!(sb.group_fallbacks, 0);
            for e in scalar.log().event_ids() {
                prop_assert_eq!(
                    scalar.log().arrival(e).to_bits(),
                    batched.log().arrival(e).to_bits(),
                    "arrival of {} diverged", e
                );
                prop_assert_eq!(
                    scalar.log().departure(e).to_bits(),
                    batched.log().departure(e).to_bits(),
                    "departure of {} diverged", e
                );
            }
        }
    }

    /// Batched sweeps on arbitrary task-sampling masks keep the log valid
    /// and resample every free variable exactly once per sweep.
    #[test]
    fn batched_sweeps_preserve_validity_on_random_masks(
        stages in 1usize..=3,
        tasks in 4usize..20,
        frac in 0.0f64..0.9,
        seed in 200u64..400,
    ) {
        let truth = simulate(stages, tasks, seed);
        let mut rng = rng_from_seed(seed ^ 0xbeef);
        let masked = qni_trace::ObservationScheme::task_sampling(frac)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        let rates: Vec<f64> = std::iter::once(2.0)
            .chain(STAGE_RATES[..stages].iter().copied())
            .collect();
        let mut st = GibbsState::new(&masked, rates.clone(), InitStrategy::default()).unwrap();
        let free = st.free_arrivals().len();
        for _ in 0..3 {
            let stats = grouped_sweep(&mut st, &mut rng).unwrap();
            prop_assert_eq!(stats.arrival_moves, free);
            qni_model::constraints::validate(st.log()).unwrap();
            prop_assert!(service_log_joint(st.log(), &rates).is_finite());
        }
    }
}

/// Builds a state whose only free variables are `group_size` consecutive
/// arrivals at queue 1 — one multi-event batch group, no final or shift
/// moves, so the batched sweep's schedule is a single group item.
fn one_group_state(group_size: usize) -> (GibbsState, Vec<EventId>) {
    let truth = simulate(1, 14, 42);
    let at_q1 = truth.events_at_queue(QueueId(1)).to_vec();
    assert!(at_q1.len() >= group_size + 4);
    let free: Vec<EventId> = at_q1[2..2 + group_size].to_vec();
    let state = GibbsState::from_parts(truth, vec![2.0, STAGE_RATES[0]], free.clone(), Vec::new())
        .expect("state");
    (state, free)
}

#[test]
fn first_group_event_matches_numeric_conditional() {
    // The first event a group resamples (wave 0, first member) is drawn
    // from its conditional at the pristine state: KS-test it against the
    // brute-force numeric conditional.
    let (state, free) = one_group_state(5);
    let target = *free
        .iter()
        .find(|&&e| state.log().queue_position(e) % 2 == 0)
        .expect("even-position member");
    let bins = 2000;
    let (grid, pdf) =
        numeric_conditional_grid(state.log(), state.rates(), target, bins).expect("numeric grid");
    let h = grid[1] - grid[0];
    let lo = grid[0] - 0.5 * h;
    let mut cum = Vec::with_capacity(bins);
    let mut acc = 0.0;
    for &p in &pdf {
        cum.push(acc);
        acc += p * h;
    }
    let cdf = move |x: f64| -> f64 {
        if x <= lo {
            return 0.0;
        }
        let idx = ((x - lo) / h) as usize;
        if idx >= bins {
            return 1.0;
        }
        (cum[idx] + pdf[idx] * (x - (lo + idx as f64 * h))).clamp(0.0, 1.0)
    };

    let n = 3000u64;
    let mut samples = Vec::with_capacity(n as usize);
    for rep in 0..n {
        let mut st = state.clone();
        let mut rng = rng_from_seed(split_seed(9, rep));
        grouped_sweep(&mut st, &mut rng).expect("batched sweep");
        samples.push(st.log().arrival(target));
    }
    let ks = ks_statistic(&samples, cdf).expect("ks");
    // 1% critical value plus a small allowance for the grid's
    // piecewise-constant CDF approximation.
    let crit = ks_critical_value(n as usize, 0.01).expect("critical") + 2.0 * h;
    assert!(ks < crit, "KS statistic {ks} exceeds {crit}");
}

#[test]
fn multi_event_group_matches_scalar_kernel_statistically() {
    // Batched and scalar sweeps scan multi-event groups in different
    // orders, but both leave each event marginally distributed per the
    // same posterior: compare long-run means of a mid-group arrival.
    let (state, free) = one_group_state(4);
    let target = free[1];
    let run = |mode: BatchMode| {
        let mut st = state.clone();
        let mut rng = rng_from_seed(17);
        let mut acc = 0.0;
        let n = 4000;
        for _ in 0..n {
            sweep_with_opts_pooled(&mut st, mode, ShardMode::Serial, None, &mut rng).unwrap();
            acc += st.log().arrival(target);
        }
        acc / n as f64
    };
    let scalar = run(BatchMode::Scalar);
    let grouped = run(BatchMode::Grouped);
    assert!(
        (scalar - grouped).abs() < 0.02 * scalar.abs().max(0.1),
        "scalar mean {scalar} vs grouped mean {grouped}"
    );
}

#[test]
fn run_stem_batch_modes_are_bit_identical_for_singleton_groups() {
    let truth = simulate(2, 30, 5);
    let masked = singleton_mask(truth, 3);
    let run = |batch: BatchMode| {
        let mut rng = rng_from_seed(11);
        let opts = StemOptions {
            iterations: 20,
            burn_in: 5,
            waiting_sweeps: 3,
            batch,
            ..StemOptions::default()
        };
        run_stem(&masked, None, &opts, &mut rng).expect("stem")
    };
    let scalar = run(BatchMode::Scalar);
    let grouped = run(BatchMode::Grouped);
    assert_eq!(scalar.rate_trace.len(), grouped.rate_trace.len());
    for (a, b) in scalar.rate_trace.iter().zip(&grouped.rate_trace) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    for (x, y) in scalar.rates.iter().zip(&grouped.rates) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
