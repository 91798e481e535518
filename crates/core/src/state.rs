//! The mutable Gibbs sampler state.

use crate::error::InferenceError;
use crate::gibbs::batch::{BatchScratch, GroupStructure};
use crate::gibbs::shift::ShiftScratch;
use crate::gibbs::sweep::Move;
use crate::init::InitStrategy;
use qni_model::ids::{EventId, TaskId};
use qni_model::log::EventLog;
use qni_trace::MaskedLog;

/// Reusable per-state working memory for [`crate::gibbs::sweep`]: the
/// sweep schedule buffer, the per-queue arrival-move groups of the batched
/// engine, the batched-move workspace (whose density scratch every other
/// move kind borrows too), and the shift-move buffers. Everything here is
/// *scratch* — it never affects sampler semantics, only allocation
/// behavior.
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepScratch {
    /// Reused schedule buffer (cleared and refilled each sweep).
    pub(crate) schedule: Vec<Move>,
    /// Same-queue arrival-move group structures, in order of first
    /// occurrence in `free_arrivals` (so singleton groups line up with
    /// the scalar schedule). Rebuilt lazily when `groups_built` is false.
    pub(crate) groups: Vec<GroupStructure>,
    /// Whether `groups` reflects the current queue assignment of every
    /// free arrival (queue reassignment moves invalidate it).
    pub(crate) groups_built: bool,
    /// Batched-move workspace (wave bounds, conflict stamps, density
    /// scratch).
    pub(crate) batch: BatchScratch,
    /// Shift-move breakpoint and slope buffers.
    pub(crate) shift: ShiftScratch,
}

/// Sampler state: a complete working event log plus current rates.
///
/// The log always satisfies the deterministic constraints; Gibbs moves
/// mutate it in place. Free-variable lists are fixed at construction.
#[derive(Debug, Clone)]
pub struct GibbsState {
    pub(crate) log: EventLog,
    pub(crate) rates: Vec<f64>,
    pub(crate) free_arrivals: Vec<EventId>,
    pub(crate) free_finals: Vec<EventId>,
    /// Tasks with no observed time at all, eligible for the rigid
    /// [`crate::gibbs::shift`] move.
    pub(crate) shiftable_tasks: Vec<TaskId>,
    /// Reusable sweep working memory (see [`SweepScratch`]).
    pub(crate) scratch: SweepScratch,
}

impl GibbsState {
    /// Builds a state from a masked log: scrubs unobserved times,
    /// initializes them feasibly, and records the free-variable lists.
    pub fn new(
        masked: &MaskedLog,
        rates: Vec<f64>,
        strategy: InitStrategy,
    ) -> Result<Self, InferenceError> {
        Self::new_warm(masked, rates, strategy, None)
    }

    /// [`GibbsState::new`] with optional warm-start targets for the free
    /// times (see [`crate::init::WarmTimes`]): carried times are used as
    /// initialization targets where feasible, which is how the streaming
    /// engine hands a window's final Gibbs state to the next window.
    pub fn new_warm(
        masked: &MaskedLog,
        rates: Vec<f64>,
        strategy: InitStrategy,
        warm: Option<&crate::init::WarmTimes>,
    ) -> Result<Self, InferenceError> {
        let log = crate::init::initialize_warm(masked, &rates, strategy, warm)?;
        let shiftable_tasks = (0..log.num_tasks())
            .map(TaskId::from_index)
            .filter(|&k| crate::gibbs::shift::task_fully_free(masked, k))
            .collect();
        Ok(GibbsState {
            log,
            rates,
            free_arrivals: masked.free_arrivals(),
            free_finals: masked.free_final_departures(),
            shiftable_tasks,
            scratch: SweepScratch::default(),
        })
    }

    /// Builds a state from explicit parts (advanced; used by tests and by
    /// waiting-time estimation restarts).
    pub fn from_parts(
        log: EventLog,
        rates: Vec<f64>,
        free_arrivals: Vec<EventId>,
        free_finals: Vec<EventId>,
    ) -> Result<Self, InferenceError> {
        if rates.len() != log.num_queues() {
            return Err(InferenceError::RateShapeMismatch {
                expected: log.num_queues(),
                actual: rates.len(),
            });
        }
        qni_model::constraints::validate(&log).map_err(qni_model::ModelError::from)?;
        Ok(GibbsState {
            log,
            rates,
            free_arrivals,
            free_finals,
            shiftable_tasks: Vec::new(),
            scratch: SweepScratch::default(),
        })
    }

    /// Declares which tasks may receive rigid shift moves (see
    /// [`crate::gibbs::shift`]). Only meaningful with
    /// [`GibbsState::from_parts`]; [`GibbsState::new`] derives the list
    /// from the observation mask.
    pub fn with_shiftable_tasks(mut self, tasks: Vec<TaskId>) -> Self {
        self.shiftable_tasks = tasks;
        self
    }

    /// Tasks eligible for the rigid shift move.
    pub fn shiftable_tasks(&self) -> &[TaskId] {
        &self.shiftable_tasks
    }

    /// Runs one MH reassignment attempt for each event in `unknown`
    /// (see [`crate::gibbs::reassign`]); returns the number accepted.
    pub fn reassign_unknown<R: rand::Rng + ?Sized>(
        &mut self,
        fsm: &qni_model::Fsm,
        unknown: &[EventId],
        rng: &mut R,
    ) -> Result<usize, InferenceError> {
        // Reassignment can move events between queues, invalidating the
        // cached per-queue arrival groups of the batched sweep.
        self.scratch.groups_built = false;
        let GibbsState { log, rates, .. } = self;
        crate::gibbs::reassign::reassign_sweep(log, rates, fsm, unknown, rng)
    }

    /// Rebuilds the per-queue arrival-move group structures if stale: one
    /// group per queue with at least one free arrival, events in
    /// `free_arrivals` order, groups ordered by first occurrence (so that
    /// when every group is a singleton, the batched schedule lines up
    /// one-to-one with the scalar schedule). The resolved structures are
    /// move-invariant and reused by every batched sweep until a queue
    /// reassignment invalidates them.
    pub(crate) fn ensure_arrival_groups(&mut self) -> Result<(), InferenceError> {
        if self.scratch.groups_built {
            return Ok(());
        }
        let mut group_of_queue = vec![u32::MAX; self.log.num_queues()];
        let mut events_by_group: Vec<Vec<EventId>> = Vec::new();
        for &e in &self.free_arrivals {
            let slot = &mut group_of_queue[self.log.queue_of(e).index()];
            if *slot == u32::MAX {
                *slot = events_by_group.len() as u32;
                events_by_group.push(vec![e]);
            } else {
                events_by_group[*slot as usize].push(e);
            }
        }
        self.scratch.groups.clear();
        for events in &events_by_group {
            self.scratch
                .groups
                .push(crate::gibbs::batch::build_group_structure(
                    &self.log, events,
                )?);
        }
        self.scratch.groups_built = true;
        Ok(())
    }

    /// Resamples one rigid task-shift move in place, building its density
    /// in the state's scratch; returns `δ`.
    pub fn move_shift<R: rand::Rng + ?Sized>(
        &mut self,
        k: TaskId,
        rng: &mut R,
    ) -> Result<f64, InferenceError> {
        let GibbsState {
            log,
            rates,
            scratch,
            ..
        } = self;
        crate::gibbs::shift::resample_shift(
            log,
            rates,
            k,
            &mut scratch.shift,
            &mut scratch.batch.pw,
            rng,
        )
    }

    /// The working event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Current per-queue rates (entry 0 is λ).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Replaces the rates (the StEM M-step), copying into the existing
    /// buffer — no allocation in the per-iteration hot loop.
    pub fn set_rates(&mut self, rates: &[f64]) -> Result<(), InferenceError> {
        if rates.len() != self.log.num_queues() {
            return Err(InferenceError::RateShapeMismatch {
                expected: self.log.num_queues(),
                actual: rates.len(),
            });
        }
        self.rates.copy_from_slice(rates);
        Ok(())
    }

    /// Events whose arrival is resampled each sweep.
    pub fn free_arrivals(&self) -> &[EventId] {
        &self.free_arrivals
    }

    /// Events whose final departure is resampled each sweep.
    pub fn free_finals(&self) -> &[EventId] {
        &self.free_finals
    }

    /// Total number of free variables.
    pub fn num_free(&self) -> usize {
        self.free_arrivals.len() + self.free_finals.len()
    }

    /// Resamples one arrival move in place, building its density in the
    /// state's scratch; draws the same bits as
    /// [`crate::gibbs::arrival::resample_arrival`]. The scalar sweep's
    /// arrival move (exposed for benches and fine-grained drivers; sweeps
    /// should use [`crate::gibbs::sweep`]).
    pub fn move_arrival<R: rand::Rng + ?Sized>(
        &mut self,
        e: EventId,
        rng: &mut R,
    ) -> Result<f64, InferenceError> {
        let GibbsState {
            log,
            rates,
            scratch,
            ..
        } = self;
        let support = crate::gibbs::arrival::arrival_inputs(log, rates, e)?;
        let x = crate::gibbs::batch::sample_arrival(support, &mut scratch.batch.pw, rng)?;
        log.set_transition_time(e, x);
        Ok(x)
    }

    /// Resamples one final-departure move in place, building its density
    /// in the state's scratch.
    pub fn move_final<R: rand::Rng + ?Sized>(
        &mut self,
        e: EventId,
        rng: &mut R,
    ) -> Result<f64, InferenceError> {
        let GibbsState {
            log,
            rates,
            scratch,
            ..
        } = self;
        crate::gibbs::final_departure::resample_final(log, rates, e, &mut scratch.batch.pw, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qni_model::topology::tandem;
    use qni_sim::{Simulator, Workload};
    use qni_stats::rng::rng_from_seed;
    use qni_trace::ObservationScheme;

    fn masked() -> MaskedLog {
        let bp = tandem(2.0, &[5.0]).unwrap();
        let mut rng = rng_from_seed(1);
        let truth = Simulator::new(&bp.network)
            .run(&Workload::poisson_n(2.0, 50).unwrap(), &mut rng)
            .unwrap();
        ObservationScheme::task_sampling(0.5)
            .unwrap()
            .apply(truth, &mut rng)
            .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = masked();
        let state = GibbsState::new(&m, vec![2.0, 5.0], InitStrategy::default()).unwrap();
        assert_eq!(state.rates(), &[2.0, 5.0]);
        assert_eq!(
            state.num_free(),
            m.free_arrivals().len() + m.free_final_departures().len()
        );
        qni_model::constraints::validate(state.log()).unwrap();
    }

    #[test]
    fn set_rates_validates_shape() {
        let m = masked();
        let mut state = GibbsState::new(&m, vec![2.0, 5.0], InitStrategy::default()).unwrap();
        assert!(state.set_rates(&[1.0]).is_err());
        state.set_rates(&[3.0, 4.0]).unwrap();
        assert_eq!(state.rates(), &[3.0, 4.0]);
    }

    #[test]
    fn from_parts_validates() {
        let m = masked();
        let truth = m.ground_truth().clone();
        let s = GibbsState::from_parts(truth.clone(), vec![2.0, 5.0], vec![], vec![]);
        assert!(s.is_ok());
        assert!(GibbsState::from_parts(truth, vec![1.0], vec![], vec![]).is_err());
    }
}
