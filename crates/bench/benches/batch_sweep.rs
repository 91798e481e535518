//! Criterion benches for the batched arrival-move engine: the grouped
//! sweep vs the scalar sweep on the same state, per topology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qni_core::gibbs::sweep::{sweep, sweep_with_opts_pooled};
use qni_core::init::InitStrategy;
use qni_core::{BatchMode, GibbsState, ShardMode};
use qni_model::topology::{tandem, three_tier, Blueprint};
use qni_sim::{Simulator, Workload};
use qni_stats::rng::rng_from_seed;
use qni_trace::ObservationScheme;

fn make_state(bp: &Blueprint, lambda: f64, tasks: usize, seed: u64) -> GibbsState {
    let mut rng = rng_from_seed(seed);
    let truth = Simulator::new(&bp.network)
        .run(
            &Workload::poisson_n(lambda, tasks).expect("workload"),
            &mut rng,
        )
        .expect("simulation");
    let masked = ObservationScheme::task_sampling(0.1)
        .expect("fraction")
        .apply(truth, &mut rng)
        .expect("mask");
    let rates = bp.network.rates().expect("mm1");
    GibbsState::new(&masked, rates, InitStrategy::default()).expect("init")
}

fn bench_batched_vs_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_batched_vs_scalar");
    group.sample_size(10);
    let cases = [
        (
            "tandem3",
            make_state(&tandem(2.0, &[5.0, 4.0, 6.0]).expect("bp"), 2.0, 400, 1),
        ),
        (
            "forkjoin",
            make_state(
                &three_tier(8.0, 5.0, &[3, 3], false).expect("bp"),
                8.0,
                400,
                2,
            ),
        ),
    ];
    for (name, state) in cases {
        group.bench_with_input(BenchmarkId::new("scalar", name), &state, |b, st| {
            let mut st = st.clone();
            let mut rng = rng_from_seed(3);
            b.iter(|| sweep(&mut st, &mut rng).expect("sweep"));
        });
        group.bench_with_input(BenchmarkId::new("batched", name), &state, |b, st| {
            let mut st = st.clone();
            let mut rng = rng_from_seed(3);
            b.iter(|| {
                sweep_with_opts_pooled(
                    &mut st,
                    BatchMode::Grouped,
                    ShardMode::Serial,
                    None,
                    &mut rng,
                )
                .expect("sweep")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched_vs_scalar);
criterion_main!(benches);
