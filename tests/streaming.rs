//! End-to-end streaming inference: tracking accuracy on a
//! piecewise-constant workload (the acceptance scenario the fixed-log
//! engine cannot fit) and byte-level reproducibility in the
//! `reproducibility.rs` pattern.

use qni::prelude::*;

/// The acceptance scenario: M/M/1 with λ switching 2 → 6 at t = 100
/// (horizon 200, µ = 8), half the tasks observed. Matches the
/// `stream_tracking` bench scenario so the seeded numbers in
/// `BENCH_stream.json` and this test agree.
const LAMBDA1: f64 = 2.0;
const LAMBDA2: f64 = 6.0;
const SWITCH: f64 = 100.0;
const HORIZON: f64 = 200.0;

fn piecewise_masked(seed: u64) -> MaskedLog {
    let bp = qni::model::topology::tandem((LAMBDA1 + LAMBDA2) / 2.0, &[8.0]).expect("topology");
    let mut rng = rng_from_seed(seed);
    let workload = Workload::piecewise_constant(vec![LAMBDA1, LAMBDA2], vec![SWITCH], HORIZON)
        .expect("workload");
    let truth = Simulator::new(&bp.network)
        .run(&workload, &mut rng)
        .expect("simulation");
    ObservationScheme::task_sampling(0.5)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask")
}

fn tracking_stem_options() -> StemOptions {
    StemOptions {
        iterations: 80,
        burn_in: 40,
        waiting_sweeps: 1,
        ..StemOptions::default()
    }
}

/// The segment a `[start, end)` window lies fully inside, if any.
fn segment_of(start: f64, end: f64) -> Option<f64> {
    if end <= SWITCH {
        Some(LAMBDA1)
    } else if start >= SWITCH && end <= HORIZON {
        Some(LAMBDA2)
    } else {
        None
    }
}

/// Acceptance criterion: on the piecewise M/M/1 scenario the windowed
/// trajectory's λ̂ is within 15% of each segment's ground truth once a
/// window lies fully inside the segment, while the fixed-log estimate is
/// within 15% of *neither* segment.
#[test]
fn windowed_lambda_tracks_segments_where_fixed_log_cannot() {
    let masked = piecewise_masked(7);
    let schedule = WindowSchedule::new(50.0, 25.0).expect("schedule");
    let opts = StreamOptions {
        stem: tracking_stem_options(),
        chains: 1,
        master_seed: 7,
        thread_budget: None,
        warm_start: true,
        warm_burn_in: None,
        occupancy_carry: true,
        clock: None,
    };
    let traj = run_stream(&masked, &schedule, &opts).expect("stream");
    let mut eligible = [0usize; 2];
    for w in &traj.windows {
        if w.carried {
            continue;
        }
        let Some(truth) = segment_of(w.start, w.end) else {
            continue;
        };
        eligible[if truth == LAMBDA1 { 0 } else { 1 }] += 1;
        let rel = (w.rates[0] - truth).abs() / truth;
        assert!(
            rel <= 0.15,
            "window {} [{}, {}): λ̂ = {:.4} is {:.1}% off segment truth {truth}",
            w.index,
            w.start,
            w.end,
            w.rates[0],
            rel * 100.0
        );
    }
    // Both segments actually got tracked (the assertion above is not
    // vacuous).
    assert!(
        eligible[0] >= 2 && eligible[1] >= 2,
        "eligible windows per segment: {eligible:?}"
    );

    // The fixed-log engine sees one blended rate, far from both truths.
    let mut rng = rng_from_seed(7);
    let fixed = run_stem(&masked, None, &tracking_stem_options(), &mut rng).expect("fixed fit");
    let lambda = fixed.rates[0];
    let err1 = (lambda - LAMBDA1).abs() / LAMBDA1;
    let err2 = (lambda - LAMBDA2).abs() / LAMBDA2;
    assert!(
        err1 > 0.15 && err2 > 0.15,
        "fixed-log λ̂ = {lambda:.4} unexpectedly fits a segment \
         ({:.1}% / {:.1}% off)",
        err1 * 100.0,
        err2 * 100.0
    );
}

/// Streaming runs are byte-reproducible for a fixed master seed at every
/// `ShardMode`/chain-count configuration, and bit-identical across shard
/// counts (sharding is contractually a pure performance knob). Seed 7,
/// the `reproducibility.rs` pattern.
#[test]
fn stream_trajectory_byte_identity_across_runs_shards_and_chains() {
    let masked = piecewise_masked(7);
    let schedule = WindowSchedule::new(40.0, 20.0).expect("schedule");
    let run = |shards: usize, chains: usize| {
        let opts = StreamOptions {
            stem: StemOptions {
                shard: if shards == 1 {
                    ShardMode::Serial
                } else {
                    ShardMode::Sharded(shards)
                },
                ..StemOptions::quick_test()
            },
            chains,
            master_seed: 7,
            thread_budget: None,
            warm_start: true,
            warm_burn_in: None,
            occupancy_carry: true,
            clock: None,
        };
        run_stream(&masked, &schedule, &opts).expect("stream")
    };

    for chains in [1usize, 2] {
        let base = run(1, chains);
        // Across runs: identical bytes.
        let again = run(1, chains);
        assert_eq!(
            base.fingerprint(),
            again.fingerprint(),
            "chains={chains}: identically-seeded streams diverged"
        );
        // Across shard counts: bit-identical by the sharding contract.
        let sharded = run(2, chains);
        assert_eq!(
            base.fingerprint(),
            sharded.fingerprint(),
            "chains={chains}: --shards 2 changed the trajectory bytes"
        );
        // Full per-window rate bit-equality, not just the fingerprint.
        for (a, b) in base.windows.iter().zip(&sharded.windows) {
            for (x, y) in a.rates.iter().zip(&b.rates) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    // Different master seeds yield different trajectories (the test has
    // teeth).
    let a = run(1, 1);
    let opts = StreamOptions {
        stem: StemOptions::quick_test(),
        chains: 1,
        master_seed: 8,
        thread_budget: None,
        warm_start: true,
        warm_burn_in: None,
        occupancy_carry: true,
        clock: None,
    };
    let b = run_stream(&masked, &schedule, &opts).expect("stream");
    assert_ne!(a.fingerprint(), b.fingerprint());
}

/// Warm starts change only the chains' starting points: both modes stay
/// reproducible, and on this scenario both track the switch, but their
/// trajectories differ.
#[test]
fn warm_and_cold_streams_are_distinct_but_both_reproducible() {
    let masked = piecewise_masked(11);
    let schedule = WindowSchedule::new(40.0, 40.0).expect("schedule");
    let run = |warm: bool| {
        let opts = StreamOptions {
            stem: StemOptions::quick_test(),
            chains: 1,
            master_seed: 11,
            thread_budget: None,
            warm_start: warm,
            warm_burn_in: None,
            occupancy_carry: true,
            clock: None,
        };
        run_stream(&masked, &schedule, &opts).expect("stream")
    };
    let warm = run(true);
    let cold = run(false);
    assert_eq!(warm.fingerprint(), run(true).fingerprint());
    assert_eq!(cold.fingerprint(), run(false).fingerprint());
    assert_ne!(warm.fingerprint(), cold.fingerprint());
    assert!(warm.windows[1..].iter().any(|w| w.warm_started));
    assert!(cold.windows.iter().all(|w| !w.warm_started));
}
