//! Full Gibbs sweeps over all free variables.

use crate::error::InferenceError;
use crate::gibbs::pool::WavePool;
use crate::gibbs::shard::ShardMode;
use crate::state::GibbsState;
use qni_model::ids::EventId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Statistics of one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Arrival moves performed.
    pub arrival_moves: usize,
    /// Final-departure moves performed.
    pub final_moves: usize,
    /// Rigid task-shift moves performed.
    pub shift_moves: usize,
    /// Same-queue arrival groups processed (batched mode only).
    pub arrival_groups: usize,
    /// Batched arrival moves that fell back to a live conditional rebuild
    /// because a groupmate invalidated their cached bounds.
    pub group_fallbacks: usize,
}

/// How a sweep schedules its arrival moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Group same-queue arrival moves and resample each group against a
    /// cached per-queue structure with conflict-set fallback
    /// ([`super::batch`]). The default: measurably faster, identical
    /// stationary distribution, and bit-identical to [`BatchMode::Scalar`]
    /// whenever every group is a singleton.
    #[default]
    Grouped,
    /// One independent conditional rebuild per arrival move — the paper's
    /// baseline sampler (a library-only ablation and the tests' oracle).
    Scalar,
}

/// One item in the sweep schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Move {
    Arrival(EventId),
    Final(EventId),
    Shift(qni_model::ids::TaskId),
    /// A same-queue group of arrival moves (batched mode only); indexes
    /// the state's group list.
    Group(u32),
}

/// Performs one full sweep: every free variable is resampled once from
/// its conditional, and every fully-unobserved task additionally receives
/// one rigid shift move, all in a freshly shuffled order.
///
/// Shuffling the scan order removes the systematic bias a fixed order can
/// introduce in highly coupled chains; it does not affect correctness of
/// the stationary distribution. The shift moves (an extension beyond the
/// paper, see [`super::shift`]) dramatically improve mixing for tasks
/// none of whose times are pinned by data.
///
/// This is the paper's scalar scheduler, kept as the reference the
/// batched sweep of [`sweep_with_opts_pooled`] is tested against.
pub fn sweep<R: Rng + ?Sized>(
    state: &mut GibbsState,
    rng: &mut R,
) -> Result<SweepStats, InferenceError> {
    let mut schedule = std::mem::take(&mut state.scratch.schedule);
    schedule.clear();
    schedule.extend(state.free_arrivals.iter().map(|&e| Move::Arrival(e)));
    schedule.extend(state.free_finals.iter().map(|&e| Move::Final(e)));
    schedule.extend(state.shiftable_tasks.iter().map(|&k| Move::Shift(k)));
    schedule.shuffle(rng);
    let mut stats = SweepStats::default();
    let result = run_schedule(state, &schedule, ShardMode::Serial, None, rng, &mut stats);
    state.scratch.schedule = schedule;
    result?;
    debug_assert!(
        qni_model::constraints::validate(state.log()).is_ok(),
        "sweep corrupted constraints"
    );
    Ok(stats)
}

/// Performs one full sweep under `mode`: the scalar [`sweep`], or the
/// batched sweep whose schedule holds one *group* item per queue (plus
/// the usual final and shift moves), each group resampled by
/// `batch::resample_group`. This is the sweep every fit runs.
///
/// The batched sweep prepares each wave under `shard`, fanning a large
/// wave out onto `pool` when one is supplied and preparing it inline
/// otherwise (see [`crate::gibbs::shard`]). The bytes are the same for
/// every [`ShardMode`] and pool: sharding changes which threads compute
/// the wave preparations, never what they produce or the order the
/// chain RNG is consumed in. When every group is a singleton the
/// schedule has the same length and item order as [`sweep`]'s, so the
/// batched and scalar sweeps are bit-identical too. The scalar path has
/// no waves; it ignores `shard` and `pool` (option validation upstream
/// rejects a sharded scalar configuration).
pub fn sweep_with_opts_pooled<R: Rng + ?Sized>(
    state: &mut GibbsState,
    mode: BatchMode,
    shard: ShardMode,
    pool: Option<&mut WavePool>,
    rng: &mut R,
) -> Result<SweepStats, InferenceError> {
    if mode == BatchMode::Scalar {
        return sweep(state, rng);
    }
    state.ensure_arrival_groups()?;
    let mut schedule = std::mem::take(&mut state.scratch.schedule);
    schedule.clear();
    schedule.extend((0..state.scratch.groups.len()).map(|gi| Move::Group(gi as u32)));
    schedule.extend(state.free_finals.iter().map(|&e| Move::Final(e)));
    schedule.extend(state.shiftable_tasks.iter().map(|&k| Move::Shift(k)));
    schedule.shuffle(rng);
    let mut stats = SweepStats::default();
    let result = run_schedule(state, &schedule, shard, pool, rng, &mut stats);
    state.scratch.schedule = schedule;
    result?;
    debug_assert!(
        qni_model::constraints::validate(state.log()).is_ok(),
        "batched sweep corrupted constraints"
    );
    Ok(stats)
}

/// Executes a shuffled schedule against the state's log. Single moves go
/// through the state's `move_*` methods and groups through the batched
/// engine; every move builds its density in the state's scratch, so once
/// the buffers have grown a serial sweep makes no heap allocation.
fn run_schedule<R: Rng + ?Sized>(
    state: &mut GibbsState,
    schedule: &[Move],
    shard: ShardMode,
    mut pool: Option<&mut WavePool>,
    rng: &mut R,
    stats: &mut SweepStats,
) -> Result<(), InferenceError> {
    for &mv in schedule {
        match mv {
            Move::Arrival(e) => {
                state.move_arrival(e, rng)?;
                stats.arrival_moves += 1;
            }
            Move::Final(e) => {
                state.move_final(e, rng)?;
                stats.final_moves += 1;
            }
            Move::Shift(k) => {
                state.move_shift(k, rng)?;
                stats.shift_moves += 1;
            }
            Move::Group(gi) => {
                // Split borrows: the group structure is read while the
                // batch workspace and the log are written.
                let GibbsState {
                    log,
                    rates,
                    scratch,
                    ..
                } = &mut *state;
                let g = super::batch::resample_group(
                    log,
                    rates,
                    &scratch.groups[gi as usize],
                    &mut scratch.batch,
                    shard,
                    pool.as_deref_mut(),
                    rng,
                )?;
                stats.arrival_moves += g.moves;
                stats.group_fallbacks += g.fallbacks;
                stats.arrival_groups += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitStrategy;
    use qni_model::topology::{tandem, three_tier};
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;
    use qni_trace::ObservationScheme;

    fn state(frac: f64, seed: u64) -> GibbsState {
        let bp = tandem(2.0, &[5.0, 4.0]).unwrap();
        let mut rng = rng_from_seed(seed);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 60).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(frac)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        GibbsState::new(&masked, vec![2.0, 5.0, 4.0], InitStrategy::default()).unwrap()
    }

    /// One serial batched sweep.
    fn grouped_sweep<R: Rng>(st: &mut GibbsState, rng: &mut R) -> SweepStats {
        sweep_with_opts_pooled(st, BatchMode::Grouped, ShardMode::Serial, None, rng).unwrap()
    }

    #[test]
    fn sweep_counts_moves() {
        let mut st = state(0.3, 1);
        let mut rng = rng_from_seed(2);
        let stats = sweep(&mut st, &mut rng).unwrap();
        assert_eq!(stats.arrival_moves, st.free_arrivals().len());
        assert_eq!(stats.final_moves, st.free_finals().len());
    }

    #[test]
    fn sweeps_preserve_validity() {
        let mut st = state(0.1, 3);
        let mut rng = rng_from_seed(4);
        for _ in 0..25 {
            sweep(&mut st, &mut rng).unwrap();
            qni_model::constraints::validate(st.log()).unwrap();
        }
    }

    #[test]
    fn fully_observed_sweep_is_a_no_op() {
        let bp = tandem(2.0, &[5.0]).unwrap();
        let mut rng = rng_from_seed(5);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 30).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::Full.apply(truth, &mut rng).unwrap();
        let mut st = GibbsState::new(&masked, vec![2.0, 5.0], InitStrategy::default()).unwrap();
        let before: Vec<f64> = st.log().event_ids().map(|e| st.log().arrival(e)).collect();
        let stats = sweep(&mut st, &mut rng).unwrap();
        assert_eq!(stats.arrival_moves + stats.final_moves, 0);
        let after: Vec<f64> = st.log().event_ids().map(|e| st.log().arrival(e)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn observed_times_never_move() {
        let bp = tandem(2.0, &[5.0, 4.0]).unwrap();
        let mut rng = rng_from_seed(6);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 40).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        let mut st =
            GibbsState::new(&masked, vec![2.0, 5.0, 4.0], InitStrategy::default()).unwrap();
        let observed: Vec<_> = st
            .log()
            .event_ids()
            .filter(|&e| masked.mask().arrival_observed(e))
            .map(|e| (e, st.log().arrival(e)))
            .collect();
        for _ in 0..10 {
            sweep(&mut st, &mut rng).unwrap();
        }
        for (e, a) in observed {
            assert_eq!(st.log().arrival(e), a, "observed arrival of {e} moved");
        }
    }

    #[test]
    fn overloaded_network_sweeps() {
        let bp = three_tier(10.0, 5.0, &[1, 2, 4], false).unwrap();
        let mut rng = rng_from_seed(7);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(10.0, 200).unwrap(), &mut rng)
            .unwrap();
        let masked = ObservationScheme::task_sampling(0.05)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap();
        let rates = bp.network.rates().unwrap();
        let mut st = GibbsState::new(&masked, rates, InitStrategy::default()).unwrap();
        let moves: usize = (0..5)
            .map(|_| sweep(&mut st, &mut rng).unwrap().arrival_moves)
            .sum();
        assert!(moves > 0);
        qni_model::constraints::validate(st.log()).unwrap();
    }

    #[test]
    fn batched_sweep_preserves_validity_and_counts() {
        let mut st = state(0.2, 21);
        let mut rng = rng_from_seed(22);
        for _ in 0..25 {
            let stats = grouped_sweep(&mut st, &mut rng);
            assert_eq!(stats.arrival_moves, st.free_arrivals().len());
            assert_eq!(stats.final_moves, st.free_finals().len());
            assert!(stats.arrival_groups > 0);
            qni_model::constraints::validate(st.log()).unwrap();
        }
    }

    #[test]
    fn batched_singleton_groups_match_scalar_bitwise() {
        // Mask everything except exactly one arrival per queue: every
        // batch group is then a singleton and the batched sweep must be
        // bit-identical to the scalar sweep.
        use qni_model::ids::QueueId;
        use qni_trace::{MaskedLog, ObservedMask};
        let bp = tandem(2.0, &[5.0, 4.0]).unwrap();
        let mut rng = rng_from_seed(30);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 40).unwrap(), &mut rng)
            .unwrap();
        let free: Vec<_> = (1..=2)
            .map(|q| truth.events_at_queue(QueueId(q))[3])
            .collect();
        let mut mask = ObservedMask::unobserved(truth.num_events());
        for e in truth.event_ids() {
            if !free.contains(&e) {
                mask.observe_arrival(e);
            }
            mask.observe_departure(e);
        }
        let masked = MaskedLog::new(truth, mask).unwrap();
        let mk = || GibbsState::new(&masked, vec![2.0, 5.0, 4.0], InitStrategy::default()).unwrap();
        let (mut scalar, mut batched) = (mk(), mk());
        assert_eq!(scalar.free_arrivals().len(), 2);
        let mut ra = rng_from_seed(31);
        let mut rb = rng_from_seed(31);
        for _ in 0..20 {
            let ss = sweep(&mut scalar, &mut ra).unwrap();
            let sb = grouped_sweep(&mut batched, &mut rb);
            assert_eq!(ss.arrival_moves, sb.arrival_moves);
            assert_eq!(sb.arrival_groups, 2);
            assert_eq!(sb.group_fallbacks, 0);
            for e in scalar.log().event_ids() {
                assert_eq!(
                    scalar.log().arrival(e).to_bits(),
                    batched.log().arrival(e).to_bits(),
                    "arrival of {e} diverged"
                );
                assert_eq!(
                    scalar.log().departure(e).to_bits(),
                    batched.log().departure(e).to_bits(),
                    "departure of {e} diverged"
                );
            }
        }
    }

    #[test]
    fn batched_and_scalar_agree_statistically() {
        // Multi-event groups: the two scan orders differ, but the
        // stationary service-time means must agree.
        let run = |mode: BatchMode| {
            let mut st = state(0.2, 40);
            let mut rng = rng_from_seed(41);
            let mut acc = 0.0;
            let n = 400;
            for _ in 0..n {
                sweep_with_opts_pooled(&mut st, mode, ShardMode::Serial, None, &mut rng).unwrap();
                acc += st.log().queue_averages()[1].mean_service;
            }
            acc / n as f64
        };
        let scalar = run(BatchMode::Scalar);
        let grouped = run(BatchMode::Grouped);
        assert!(
            (scalar - grouped).abs() < 0.05 * scalar.abs().max(0.05),
            "scalar={scalar} grouped={grouped}"
        );
    }

    #[test]
    fn chain_is_deterministic_given_seed() {
        let mut a = state(0.2, 9);
        let mut b = state(0.2, 9);
        let mut ra = rng_from_seed(10);
        let mut rb = rng_from_seed(10);
        for _ in 0..5 {
            sweep(&mut a, &mut ra).unwrap();
            sweep(&mut b, &mut rb).unwrap();
        }
        for e in a.log().event_ids() {
            assert_eq!(a.log().arrival(e), b.log().arrival(e));
        }
    }
}
