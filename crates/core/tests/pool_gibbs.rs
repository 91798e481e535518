//! Correctness of the persistent wave-prepare worker pool.
//!
//! The contract (see `qni_core::gibbs::pool`): the pool is a pure
//! scheduling vehicle. Pooled dispatch at every pool size must be
//! **byte-identical** to the serial batched sweep — same logs, same
//! estimates, same RNG consumption, same deferred counts — and pool
//! *reuse* must be byte-neutral: two consecutive fits on one pool equal
//! two fresh runs. These tests pin that contract at raw-sweep level
//! (waves large enough to actually dispatch), at `run_stem` level
//! across pool sizes, and across fit failures.

use qni_core::gibbs::shard::MIN_EVENTS_PER_WORKER;
use qni_core::gibbs::sweep::{sweep_with_opts_pooled, SweepStats};
use qni_core::init::InitStrategy;
use qni_core::stem::{run_stem, run_stem_warm_in_pool, StemOptions};
use qni_core::{BatchMode, GibbsState, ShardMode, WavePool};
use qni_model::topology::{tandem, Blueprint};
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::{MaskedLog, ObservationScheme};

fn blueprint(kind: usize) -> Blueprint {
    match kind {
        0 => tandem(2.0, &[5.0]).expect("mm1"),
        _ => tandem(2.0, &[5.0, 4.0, 6.0]).expect("tandem3"),
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

fn log_bits(st: &GibbsState) -> Vec<(u64, u64)> {
    st.log()
        .event_ids()
        .map(|e| {
            (
                st.log().arrival(e).to_bits(),
                st.log().departure(e).to_bits(),
            )
        })
        .collect()
}

/// Runs `n` pooled batched sweeps from a fresh state against `pool`
/// (`None` = inline preparation), returning per-sweep stats and final
/// log bits.
fn run_pooled_sweeps(
    masked: &MaskedLog,
    shard: ShardMode,
    mut pool: Option<&mut WavePool>,
    sweep_seed: u64,
    n: usize,
) -> (Vec<SweepStats>, Vec<(u64, u64)>) {
    let mut st = state_of(masked);
    let mut rng = rng_from_seed(sweep_seed);
    let stats = (0..n)
        .map(|_| {
            sweep_with_opts_pooled(
                &mut st,
                BatchMode::Grouped,
                shard,
                pool.as_deref_mut(),
                &mut rng,
            )
            .expect("sweep")
        })
        .collect();
    let bits = log_bits(&st);
    (stats, bits)
}

/// Raw-sweep pin on waves large enough to actually dispatch: for shard
/// counts 2 and 4, a persistent pool produces the exact serial bytes,
/// and two consecutive runs on ONE pool equal two fresh-pool runs.
#[test]
fn large_waves_pooled_dispatch_is_byte_identical_and_reusable() {
    let tasks = 10 * MIN_EVENTS_PER_WORKER;
    let masked = masked(0, tasks, 0.05, 9);
    let free = masked.free_arrivals().len();
    assert!(
        free >= 8 * MIN_EVENTS_PER_WORKER,
        "workload too small to exercise pool dispatch: {free} free arrivals"
    );
    let mut st = state_of(&masked);
    let mut rng = rng_from_seed(11);
    let base_stats: Vec<SweepStats> = (0..2)
        .map(|_| {
            sweep_with_opts_pooled(
                &mut st,
                BatchMode::Grouped,
                ShardMode::Serial,
                None,
                &mut rng,
            )
            .expect("sweep")
        })
        .collect();
    let base_bits = log_bits(&st);
    for shards in [2usize, 4] {
        let shard = ShardMode::Sharded(shards);
        // Fresh pool per run.
        let mut fresh = WavePool::new(shards);
        let (stats, bits) = run_pooled_sweeps(&masked, shard, Some(&mut fresh), 11, 2);
        assert_eq!(stats, base_stats, "stats diverged at pool size {shards}");
        assert_eq!(bits, base_bits, "log bytes diverged at pool size {shards}");
        // Pool reuse: a second full run on the SAME pool repeats the
        // fresh-pool bytes exactly.
        let mut reused = WavePool::new(shards);
        let first = run_pooled_sweeps(&masked, shard, Some(&mut reused), 11, 2);
        let second = run_pooled_sweeps(&masked, shard, Some(&mut reused), 11, 2);
        assert_eq!(first.0, stats, "first reused run diverged ({shards})");
        assert_eq!(first.1, bits, "first reused run diverged ({shards})");
        assert_eq!(second.0, stats, "reused pool diverged ({shards})");
        assert_eq!(second.1, bits, "reused pool diverged ({shards})");
    }
}

/// The run_stem-level pin at seed 7: inline (`Sharded(1)`) and pooled
/// preparation at pool sizes {2, 4} are all byte-identical to the
/// serial batched run — rate trace, point estimates, and waiting times.
#[test]
fn run_stem_seed7_is_byte_identical_across_dispatch_and_pool_sizes() {
    let masked = masked(1, 60, 0.25, 7);
    let run = |shard: ShardMode| {
        let opts = StemOptions {
            shard,
            ..StemOptions::quick_test()
        };
        let mut rng = rng_from_seed(7);
        run_stem(&masked, None, &opts, &mut rng).expect("stem")
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

/// Two consecutive `run_stem_warm_in_pool` fits on one caller-owned
/// pool equal two fresh `run_stem` runs bit-for-bit, and a fit that
/// errors leaves the pool fully usable (no deadlock, no wedged
/// workers).
#[test]
fn fits_on_a_shared_pool_match_fresh_runs_even_after_an_error() {
    let masked = masked(1, 60, 0.25, 3);
    let opts = StemOptions {
        shard: ShardMode::Sharded(2),
        ..StemOptions::quick_test()
    };
    let fresh = |seed: u64| {
        let mut rng = rng_from_seed(seed);
        run_stem(&masked, None, &opts, &mut rng).expect("fresh run")
    };
    let mut pool = WavePool::new(2);
    let pooled = |pool: &mut WavePool, seed: u64| {
        let mut rng = rng_from_seed(seed);
        run_stem_warm_in_pool(&masked, None, None, &opts, Some(pool), &mut rng).expect("pooled run")
    };
    let a = pooled(&mut pool, 7);
    // A failing fit in between: validation rejects the empty kept
    // window, and the pool must shrug it off.
    let bad = StemOptions {
        iterations: 4,
        burn_in: 9,
        ..opts.clone()
    };
    let mut rng = rng_from_seed(1);
    assert!(run_stem_warm_in_pool(&masked, None, None, &bad, Some(&mut pool), &mut rng).is_err());
    let b = pooled(&mut pool, 8);
    for (x, y) in [(&a, &fresh(7)), (&b, &fresh(8))] {
        assert_eq!(x.rate_trace.len(), y.rate_trace.len());
        for (ra, rb) in x.rate_trace.iter().zip(&y.rate_trace) {
            for (va, vb) in ra.iter().zip(rb) {
                assert_eq!(va.to_bits(), vb.to_bits(), "shared-pool fit diverged");
            }
        }
        for (va, vb) in x.rates.iter().zip(&y.rates) {
            assert_eq!(va.to_bits(), vb.to_bits(), "shared-pool estimate diverged");
        }
    }
}
