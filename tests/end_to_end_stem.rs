//! End-to-end StEM accuracy on synthetic networks.

use qni::prelude::*;

fn tandem_masked(frac: f64, tasks: usize, seed: u64) -> MaskedLog {
    let bp = qni::model::topology::tandem(2.0, &[6.0, 8.0]).expect("topology");
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(2.0, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    ObservationScheme::task_sampling(frac)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask")
}

#[test]
fn tandem_rates_recovered_at_25_percent() {
    let masked = tandem_masked(0.25, 800, 1);
    let mut rng = rng_from_seed(2);
    let opts = StemOptions {
        iterations: 150,
        burn_in: 75,
        waiting_sweeps: 10,
        ..StemOptions::default()
    };
    let r = run_stem(&masked, None, &opts, &mut rng).expect("stem");
    assert!((r.rates[0] - 2.0).abs() / 2.0 < 0.15, "λ̂={}", r.rates[0]);
    assert!((r.rates[1] - 6.0).abs() / 6.0 < 0.25, "µ̂1={}", r.rates[1]);
    assert!((r.rates[2] - 8.0).abs() / 8.0 < 0.25, "µ̂2={}", r.rates[2]);
}

#[test]
fn three_tier_overloaded_service_errors_small_at_10_percent() {
    // The paper's §5.1 setting: λ=10, µ=5, structure (1,2,4).
    let bp = qni::model::topology::three_tier(10.0, 5.0, &[1, 2, 4], false).expect("topology");
    let mut rng = rng_from_seed(3);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(10.0, 1000).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    let masked = ObservationScheme::task_sampling(0.10)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask");
    let opts = StemOptions {
        iterations: 150,
        burn_in: 75,
        waiting_sweeps: 10,
        ..StemOptions::default()
    };
    let r = run_stem(&masked, None, &opts, &mut rng).expect("stem");
    let truths = ground_truth_averages(&masked);
    let errs = absolute_errors(&r.mean_service, &truths, ErrorField::Service).expect("errors");
    let mut es: Vec<f64> = errs.iter().map(|&(_, e)| e).collect();
    es.sort_by(f64::total_cmp);
    let median = es[es.len() / 2];
    // Paper's median at 5% is 0.033 (true mean service 0.2). A single run
    // is noisier than the paper's 350-point aggregate; 0.1 (half the true
    // mean) still certifies "accurate enough to localize".
    assert!(median < 0.1, "median service error = {median}");
}

#[test]
fn more_observation_means_smaller_error() {
    let run_err = |frac: f64, seed: u64| -> f64 {
        let masked = tandem_masked(frac, 600, seed);
        let mut rng = rng_from_seed(seed + 1000);
        let opts = StemOptions {
            iterations: 100,
            burn_in: 50,
            waiting_sweeps: 5,
            ..StemOptions::default()
        };
        let r = run_stem(&masked, None, &opts, &mut rng).expect("stem");
        // Mean relative rate error across all queues.
        let truth = [2.0, 6.0, 8.0];
        (0..3)
            .map(|i| (r.rates[i] - truth[i]).abs() / truth[i])
            .sum::<f64>()
            / 3.0
    };
    // Average over a few seeds to avoid flakiness.
    let lo: f64 = (0..3).map(|s| run_err(0.02, 10 + s)).sum::<f64>() / 3.0;
    let hi: f64 = (0..3).map(|s| run_err(0.5, 20 + s)).sum::<f64>() / 3.0;
    assert!(
        hi < lo,
        "error at 50% ({hi}) should be below error at 2% ({lo})"
    );
}

#[test]
fn stem_beats_nothing_even_at_one_percent() {
    // The abstract's claim, in miniature: at 1% observation the service
    // estimates stay on the right scale. A single dataset is very noisy
    // with only ~10 observed tasks, so pool errors over three datasets.
    let mut errs: Vec<f64> = Vec::new();
    for seed in [5u64, 6, 7] {
        let bp = qni::model::topology::three_tier(10.0, 5.0, &[2, 4, 1], false).expect("topology");
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(
                &Workload::poisson_n(10.0, 1000).expect("workload"),
                &mut rng,
            )
            .expect("simulation");
        let masked = ObservationScheme::task_sampling(0.01)
            .expect("fraction")
            .apply(truth, &mut rng)
            .expect("mask");
        let opts = StemOptions {
            iterations: 300,
            burn_in: 150,
            waiting_sweeps: 5,
            ..StemOptions::default()
        };
        let r = run_stem(&masked, None, &opts, &mut rng).expect("stem");
        for q in 1..r.mean_service.len() {
            assert!(r.mean_service[q].is_finite() && r.mean_service[q] > 0.0);
            errs.push((r.mean_service[q] - 0.2).abs());
        }
    }
    errs.sort_by(f64::total_cmp);
    let median = errs[errs.len() / 2];
    // True mean service is 0.2; the pooled median error staying below the
    // signal scale is what "usable for localization at 1%" requires. See
    // EXPERIMENTS.md for the full measured distribution.
    assert!(median < 0.2, "pooled median error at 1% = {median}");
}

#[test]
fn mcem_and_stem_agree() {
    let masked = tandem_masked(0.3, 400, 6);
    let mut rng = rng_from_seed(7);
    let stem = run_stem(
        &masked,
        None,
        &StemOptions {
            iterations: 120,
            burn_in: 60,
            waiting_sweeps: 5,
            ..StemOptions::default()
        },
        &mut rng,
    )
    .expect("stem");
    let mcem = run_mcem(
        &masked,
        None,
        &McemOptions {
            outer_iterations: 30,
            inner_sweeps: 8,
        },
        &mut rng,
    )
    .expect("mcem");
    for q in 0..stem.rates.len() {
        let rel = (stem.rates[q] - mcem.rates[q]).abs() / stem.rates[q];
        assert!(
            rel < 0.25,
            "queue {q}: stem={} mcem={}",
            stem.rates[q],
            mcem.rates[q]
        );
    }
}
