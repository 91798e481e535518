//! Correctness of the intra-trace sharded sweep engine.
//!
//! The contract (see `qni_core::gibbs::shard`): sharding is a pure
//! performance knob. For every shard count, on every workload, the
//! sharded sweep must be **byte-identical** to the serial batched sweep
//! — same logs, same estimates, same RNG consumption, same deferred
//! (conflict-fallback) counts. These tests pin that contract at three
//! levels: raw sweeps (property test across topologies), a constructed
//! π-coupling whose deferred-move count is known exactly, and full
//! `run_stem` runs at seed 7.

use proptest::prelude::*;
use qni_core::chains::{run_stem_parallel, ParallelStemOptions};
use qni_core::gibbs::shard::MIN_EVENTS_PER_WORKER;
use qni_core::gibbs::sweep::{sweep_with_opts_pooled, SweepStats};
use qni_core::init::InitStrategy;
use qni_core::stem::{run_stem, StemOptions};
use qni_core::{BatchMode, GibbsState, ShardMode, WavePool};
use qni_model::ids::{QueueId, StateId};
use qni_model::log::EventLogBuilder;
use qni_model::topology::{tandem, three_tier, Blueprint};
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::{MaskedLog, ObservationScheme};

/// The three bench topologies: an M/M/1 queue, a three-stage tandem, and
/// a fork-join network (π-couplings hop between queues).
fn blueprint(kind: usize) -> Blueprint {
    match kind {
        0 => tandem(2.0, &[5.0]).expect("mm1"),
        1 => tandem(2.0, &[5.0, 4.0, 6.0]).expect("tandem3"),
        _ => three_tier(8.0, 5.0, &[3, 3], false).expect("forkjoin"),
    }
}

fn masked(kind: usize, tasks: usize, frac: f64, seed: u64) -> MaskedLog {
    let bp = blueprint(kind);
    let lambda = bp.network.rates().expect("rates")[0];
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(lambda, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    ObservationScheme::task_sampling(frac)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask")
}

fn state_of(masked: &MaskedLog) -> GibbsState {
    let rates = qni_core::stem::heuristic_rates(masked);
    GibbsState::new(masked, rates, InitStrategy::default()).expect("state")
}

/// A wave pool sized to `shard`'s worker cap, so sharded sweeps fan out
/// (`None` when the mode never does).
fn pool_for(shard: ShardMode) -> Option<WavePool> {
    (shard.workers() > 1).then(|| WavePool::new(shard.workers()))
}

/// Runs `n` sharded batched sweeps from a fresh state and returns the
/// per-sweep stats plus the final (arrival, departure) bit patterns.
fn run_sweeps(
    masked: &MaskedLog,
    shard: ShardMode,
    sweep_seed: u64,
    n: usize,
) -> (Vec<SweepStats>, Vec<(u64, u64)>) {
    let mut st = state_of(masked);
    let mut rng = rng_from_seed(sweep_seed);
    let mut pool = pool_for(shard);
    let stats = (0..n)
        .map(|_| {
            sweep_with_opts_pooled(&mut st, BatchMode::Grouped, shard, pool.as_mut(), &mut rng)
                .expect("sweep")
        })
        .collect();
    let bits = st
        .log()
        .event_ids()
        .map(|e| {
            (
                st.log().arrival(e).to_bits(),
                st.log().departure(e).to_bits(),
            )
        })
        .collect();
    (stats, bits)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The tentpole contract: shards ∈ {1, 2, 4} produce byte-identical
    /// logs and identical sweep stats (incl. deferred counts) to the
    /// serial batched sweep, on M/M/1, tandem-3, and fork-join.
    #[test]
    fn shard_counts_are_byte_identical_across_topologies(
        kind in 0usize..3,
        tasks in 10usize..40,
        frac in 0.0f64..0.8,
        sim_seed in 0u64..100,
        sweep_seed in 0u64..100,
    ) {
        let masked = masked(kind, tasks, frac, sim_seed);
        let (base_stats, base_bits) = run_sweeps(&masked, ShardMode::Serial, sweep_seed, 3);
        for shards in [1usize, 2, 4] {
            let (stats, bits) = run_sweeps(&masked, ShardMode::Sharded(shards), sweep_seed, 3);
            prop_assert_eq!(&stats, &base_stats, "stats diverged at shards={}", shards);
            prop_assert_eq!(&bits, &base_bits, "log bytes diverged at shards={}", shards);
        }
    }
}

/// Waves large enough to actually fan out across worker threads stay
/// byte-identical: an M/M/1 trace whose single queue has waves well past
/// `2 × MIN_EVENTS_PER_WORKER` members.
#[test]
fn large_waves_fan_out_and_stay_byte_identical() {
    let tasks = 10 * MIN_EVENTS_PER_WORKER;
    let masked = masked(0, tasks, 0.05, 9);
    let free = masked.free_arrivals().len();
    // Red-black waves split the queue's free arrivals by parity, so a
    // full 4-worker fan-out needs ≥ 8 × MIN_EVENTS_PER_WORKER of them.
    assert!(
        free >= 8 * MIN_EVENTS_PER_WORKER,
        "workload too small to exercise worker fan-out: {free} free arrivals"
    );
    let (base_stats, base_bits) = run_sweeps(&masked, ShardMode::Serial, 11, 2);
    for shards in [2usize, 4] {
        let (stats, bits) = run_sweeps(&masked, ShardMode::Sharded(shards), 11, 2);
        assert_eq!(stats, base_stats, "stats diverged at shards={shards}");
        assert_eq!(bits, base_bits, "log bytes diverged at shards={shards}");
    }
}

/// A constructed same-wave π-coupling: task B revisits queue 1 with
/// another task interleaved, so B's two events share a wave (queue
/// positions 0 and 2) and the second must be deferred to the serial
/// cleanup. Exactly one deferred move per sweep, at every shard count.
#[test]
fn constructed_pi_coupling_pins_deferred_count() {
    let mut b = EventLogBuilder::new(2, StateId(0));
    let tb = b
        .add_task(
            1.0,
            &[
                (StateId(1), QueueId(1), 1.0, 1.5),
                (StateId(1), QueueId(1), 1.5, 3.0),
            ],
        )
        .expect("task b");
    let tf = b
        .add_task(1.1, &[(StateId(1), QueueId(1), 1.1, 2.6)])
        .expect("task f");
    let log = b.build().expect("log");
    let free = vec![
        log.task_events(tb)[1],
        log.task_events(tf)[1],
        log.task_events(tb)[2],
    ];
    for shard in [
        ShardMode::Serial,
        ShardMode::Sharded(1),
        ShardMode::Sharded(4),
    ] {
        let mut st = GibbsState::from_parts(log.clone(), vec![1.0, 2.0], free.clone(), Vec::new())
            .expect("state");
        let mut rng = rng_from_seed(13);
        let mut pool = pool_for(shard);
        for _ in 0..5 {
            let stats =
                sweep_with_opts_pooled(&mut st, BatchMode::Grouped, shard, pool.as_mut(), &mut rng)
                    .expect("sweep");
            assert_eq!(stats.arrival_moves, 3);
            assert_eq!(stats.arrival_groups, 1);
            assert_eq!(
                stats.group_fallbacks, 1,
                "π-coupled same-wave pair must defer exactly one move ({shard:?})"
            );
            qni_model::constraints::validate(st.log()).expect("constraints");
        }
    }
}

/// The run_stem-level pin at seed 7: `--shards 1` and shards = N are
/// byte-identical to the default batched StEM run — rate trace, point
/// estimates, and waiting times.
#[test]
fn run_stem_seed7_is_byte_identical_at_every_shard_count() {
    let masked = masked(1, 60, 0.25, 7);
    let opts_for = |shard: ShardMode| StemOptions {
        shard,
        ..StemOptions::quick_test()
    };
    let run = |shard: ShardMode| {
        let mut rng = rng_from_seed(7);
        run_stem(&masked, None, &opts_for(shard), &mut rng).expect("stem")
    };
    let base = run(ShardMode::Serial);
    for shards in [1usize, 2, 4] {
        let r = run(ShardMode::Sharded(shards));
        assert_eq!(base.rate_trace.len(), r.rate_trace.len());
        for (a, b) in base.rate_trace.iter().zip(&r.rate_trace) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "trace diverged at shards={shards}"
                );
            }
        }
        for (x, y) in base
            .rates
            .iter()
            .chain(&base.mean_waiting)
            .chain(&base.sampled_service)
            .zip(
                r.rates
                    .iter()
                    .chain(&r.mean_waiting)
                    .chain(&r.sampled_service),
            )
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "estimate diverged at shards={shards}"
            );
        }
    }
}

/// The chains engine's total-thread budget caps shards without changing
/// a byte of the result.
#[test]
fn thread_budget_caps_workers_but_not_results() {
    let masked = masked(1, 50, 0.3, 4);
    let opts = |thread_budget: Option<usize>, shard: ShardMode| ParallelStemOptions {
        stem: StemOptions {
            shard,
            ..StemOptions::quick_test()
        },
        chains: 2,
        master_seed: 42,
        thread_budget,
    };
    let capped = opts(Some(2), ShardMode::Sharded(4));
    assert_eq!(capped.effective_shard(), ShardMode::Sharded(1));
    let uncapped = opts(None, ShardMode::Sharded(4));
    assert_eq!(uncapped.effective_shard(), ShardMode::Sharded(4));
    let serial = opts(None, ShardMode::Serial);
    assert_eq!(serial.effective_shard(), ShardMode::Serial);

    let ra = run_stem_parallel(&masked, None, &capped).expect("capped");
    let rb = run_stem_parallel(&masked, None, &uncapped).expect("uncapped");
    let rc = run_stem_parallel(&masked, None, &serial).expect("serial");
    for ((a, b), c) in ra.rates.iter().zip(&rb.rates).zip(&rc.rates) {
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), c.to_bits());
    }
    // Zero budget is rejected up front.
    assert!(run_stem_parallel(&masked, None, &opts(Some(0), ShardMode::Serial)).is_err());
}

/// Sharding requires the batched engine: the scalar sweep has no waves.
#[test]
fn scalar_batch_mode_rejects_sharding() {
    let masked = masked(0, 20, 0.5, 5);
    let opts = StemOptions {
        batch: BatchMode::Scalar,
        shard: ShardMode::Sharded(2),
        ..StemOptions::quick_test()
    };
    let mut rng = rng_from_seed(1);
    assert!(run_stem(&masked, None, &opts, &mut rng).is_err());
    // Sharded(0) is a configuration error, not a silent serial run.
    let opts = StemOptions {
        shard: ShardMode::Sharded(0),
        ..StemOptions::quick_test()
    };
    assert!(run_stem(&masked, None, &opts, &mut rng).is_err());
}
