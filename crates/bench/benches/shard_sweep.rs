//! Criterion benches for the intra-trace sharded sweep engine: the same
//! giant-trace batched sweep at shard counts {1, 2, 4}, each sharded
//! count fanning out on a wave pool of its size. On a 1-core host the
//! sharded points measure dispatch overhead only; the `shard_speedup`
//! binary is the tracked experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qni_core::gibbs::sweep::sweep_with_opts_pooled;
use qni_core::init::InitStrategy;
use qni_core::{BatchMode, GibbsState, ShardMode, WavePool};
use qni_model::topology::{tandem, Blueprint};
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
    let rates = bp.network.rates().expect("rates");
    GibbsState::new(&masked, rates, InitStrategy::default()).expect("init")
}

fn bench_sharded_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_sharded");
    group.sample_size(10);
    // One giant single-queue trace: waves large enough to fan out.
    let state = make_state(&tandem(2.0, &[5.0]).expect("bp"), 2.0, 3000, 1);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("mm1_3000", shards),
            &shards,
            |b, &shards| {
                let mut st = state.clone();
                let mut rng = rng_from_seed(3);
                let mut pool = WavePool::new(shards);
                b.iter(|| {
                    sweep_with_opts_pooled(
                        &mut st,
                        BatchMode::Grouped,
                        ShardMode::Sharded(shards),
                        Some(&mut pool),
                        &mut rng,
                    )
                    .expect("sweep")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_sweep);
criterion_main!(benches);
