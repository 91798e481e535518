//! Batched same-queue arrival moves.
//!
//! Arrival moves are the bulk of a sweep: on a three-stage tandem trace
//! with 10 % of tasks observed, about 1,350 of its 2,250 moves (the rest
//! are final-departure and shift moves, which build their densities in
//! the same allocation-free scratch). Resampling an arrival on its own
//! ([`super::arrival::arrival_inputs`]) re-derives the full
//! neighbourhood (ρ/π pointer chases) for every unobserved event, every
//! sweep. This module amortizes that cost across a *group*: all of a
//! sweep's arrival moves at the same queue.
//!
//! Three levers, in decreasing order of payoff:
//!
//! 1. **Cached structure.** The neighbourhood of a move
//!    ([`super::arrival::ArrivalNeighbors`]) and its conflict set are
//!    purely structural — queue and task orders never change during
//!    time-resampling moves — so they are resolved **once per state**
//!    (in `build_group_structure`, invalidated only by queue
//!    reassignment) and reused by every subsequent sweep. Per move, the
//!    steady-state cost is [`super::arrival::inputs_from_neighbors`]:
//!    pure float reads.
//! 2. **Allocation-free densities.** Each conditional is built into a
//!    reusable [`PiecewiseScratch`] instead of a fresh
//!    [`qni_stats::piecewise::PiecewiseExpDensity`].
//! 3. **Red-black waves.** Within a group, events at even and odd queue
//!    positions form two *waves* (no two same-wave events are ρ-adjacent,
//!    so same-wave moves almost never interact). Each wave runs a
//!    draw-free **prepare phase** in two passes — every member's support
//!    from [`super::arrival::inputs_from_neighbors`], the function the
//!    scalar sweep calls, then the interval members' densities — and
//!    then a serial **drain** samples every member against the prepared
//!    slots. The prepare phase is a pure function of the wave-entry log,
//!    which is what lets [`crate::gibbs::shard`] fan it out across worker
//!    threads without changing a single byte of output.
//!
//! # Conflict sets and the fallback
//!
//! Moving event `g` sets `a_g` and the tied predecessor departure
//! `d_{π(g)}`. Event `e`'s conditional reads the times of up to eight
//! neighbours: the arrivals of `π(e)`, `ρ(e)`, `ρ⁻¹(e)` and
//! `N = ρ⁻¹(π(e))`, and the departures of `ρ(π(e))`, `ρ(e)`, `e` and `N`
//! — each departure owned by its successor `π⁻¹(·)`. In queue terms these
//! are the *adjacent events inside `e`'s busy period* (the ρ-neighbours
//! whose coupling the `max` terms encode) and the *tied predecessor
//! departures* (the `π⁻¹` owners of each departure the density reads).
//! Whenever a move earlier in the same wave touched one of them, the
//! stale bounds are discarded and the event **falls back to the scalar
//! path**: its conditional is recomputed from the live log. Wave parity
//! eliminates the dominant coupling (ρ-adjacent events are always in
//! opposite waves), but π-side couplings can still land in one wave —
//! through same-queue task revisits, or through another task whose next
//! hop arrives at the group's queue with matching parity (so the owner
//! of a departure the density reads, e.g. `π⁻¹(ρ(π(e)))` or `π⁻¹(N)`,
//! is itself a groupmate) — hence the conflict check stays on every
//! move. The same conflict sets are what make intra-trace sharding
//! ([`crate::gibbs::shard`]) safe: two arrival moves commute whenever
//! neither is in the other's conflict set, and a move that does not
//! commute with an earlier same-wave move is deferred to the drain's
//! serial cleanup by exactly this check.
//!
//! # Correctness
//!
//! Every event is still drawn from its **exact** full conditional at the
//! moment it is resampled — wave bounds are rebuilt from the live log and
//! reused only when provably untouched — so the batched sweep is a valid
//! Gibbs scan; only the scan *order* differs from the scalar sweep. When
//! every group is a singleton the batched schedule, RNG consumption, and
//! all arithmetic coincide with the scalar sweep bit-for-bit (see
//! `tests/batch_gibbs.rs`).

use crate::error::InferenceError;
use crate::gibbs::arrival::{
    inputs_from_neighbors, resolve_neighbors, ArrivalInputs, ArrivalNeighbors, ArrivalSupport,
};
use crate::gibbs::shard::ShardMode;
use qni_model::ids::EventId;
use qni_model::log::EventLog;
use qni_stats::piecewise::PiecewiseScratch;
use rand::Rng;

/// Sentinel for unused slots in a plan's conflict set.
const NO_DEP: u32 = u32::MAX;
/// Maximum number of conflict-set entries (see module docs).
const MAX_DEPS: usize = 8;

/// One event's move-invariant structure: neighbourhood, rate indices, and
/// conflict set. Everything here survives across sweeps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanShape {
    /// The event to resample.
    e: EventId,
    /// Resolved neighbourhood (see [`ArrivalNeighbors`]).
    nb: ArrivalNeighbors,
    /// Queue index of `e` (rate term µ1).
    qe: u32,
    /// Queue index of `π(e)` (rate term µ2).
    qp: u32,
    /// Event indices whose times the conditional reads (`NO_DEP`-padded).
    deps: [u32; MAX_DEPS],
}

/// A group's cached structure: its events split into red-black waves by
/// queue-position parity. Built once per state by
/// `build_group_structure`; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupStructure {
    waves: [Vec<PlanShape>; 2],
}

#[cfg(test)]
impl GroupStructure {
    /// Test-only view of one parity wave's shapes (used by the pool
    /// unit tests, which live outside this module).
    pub(crate) fn test_wave(&self, parity: usize) -> &[PlanShape] {
        &self.waves[parity]
    }
}

/// Per-group resampling statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Arrival moves performed.
    pub moves: usize,
    /// Moves that recomputed their conditional from the live log because
    /// an earlier same-wave move invalidated their cached bounds.
    pub fallbacks: usize,
}

/// Reusable working memory of the batched engine.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Wave-local supports, aligned with the wave's shapes.
    supports: Vec<ArrivalSupport>,
    /// Per-event generation stamp of the last in-wave move touching it.
    stamps: Vec<u32>,
    /// Current wave generation (bumped by [`BatchScratch::begin_wave`]).
    generation: u32,
    /// Allocation-free piecewise-density workspace for deferred
    /// (conflicted) moves, which rebuild from the live log in the drain,
    /// and for every scalar arrival, final-departure and shift move of a
    /// sweep.
    pub(crate) pw: PiecewiseScratch,
    /// Per-member density slots, aligned with the wave's shapes; built
    /// by the (possibly sharded) prepare phase, sampled by the drain.
    slots: Vec<PiecewiseScratch>,
}

impl BatchScratch {
    /// Starts a new wave: sizes the stamp table and opens a fresh
    /// generation so stamps from previous waves are ignored.
    fn begin_wave(&mut self, num_events: usize) {
        if self.stamps.len() < num_events {
            self.stamps.resize(num_events, 0);
        }
        if self.generation == u32::MAX {
            // Generation wrap: reset all stamps once every ~4 billion
            // waves rather than carrying ambiguity.
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    fn mark_moved(&mut self, e: EventId) {
        self.stamps[e.index()] = self.generation;
    }

    fn is_conflicted(&self, shape: &PlanShape) -> bool {
        shape
            .deps
            .iter()
            .any(|&d| d != NO_DEP && self.stamps[d as usize] == self.generation)
    }

    /// Sizes the per-member buffers for a wave and hands out the
    /// disjoint slices its prepare phase writes.
    pub(crate) fn wave_bufs<'a>(&'a mut self, shapes: &'a [PlanShape]) -> WaveBufs<'a> {
        let n = shapes.len();
        if self.supports.len() < n {
            self.supports.resize(n, ArrivalSupport::Point(0.0, 0.0));
        }
        if self.slots.len() < n {
            self.slots.resize_with(n, PiecewiseScratch::new);
        }
        WaveBufs {
            shapes,
            supports: &mut self.supports[..n],
            slots: &mut self.slots[..n],
        }
    }
}

/// The per-member slices one wave's prepare phase writes: the support
/// and density slots. Chunks split off with [`WaveBufs::split_at`] are
/// disjoint, so shard workers can fill them concurrently while sharing
/// the frozen log read-only.
pub(crate) struct WaveBufs<'a> {
    shapes: &'a [PlanShape],
    supports: &'a mut [ArrivalSupport],
    slots: &'a mut [PiecewiseScratch],
}

impl<'a> WaveBufs<'a> {
    /// Number of wave members covered by these buffers.
    pub(crate) fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Splits the buffers row-wise into `[..mid)` and `[mid..)` chunks.
    pub(crate) fn split_at(self, mid: usize) -> (WaveBufs<'a>, WaveBufs<'a>) {
        let (shapes_l, shapes_r) = self.shapes.split_at(mid);
        let (supports_l, supports_r) = self.supports.split_at_mut(mid);
        let (slots_l, slots_r) = self.slots.split_at_mut(mid);
        (
            WaveBufs {
                shapes: shapes_l,
                supports: supports_l,
                slots: slots_l,
            },
            WaveBufs {
                shapes: shapes_r,
                supports: supports_r,
                slots: slots_r,
            },
        )
    }
}

#[cfg(test)]
impl WaveBufs<'_> {
    /// Test-only view of the prepared support classifications.
    pub(crate) fn test_supports(&self) -> &[ArrivalSupport] {
        self.supports
    }

    /// Test-only mutable view of the prepared density slots.
    pub(crate) fn test_slots(&mut self) -> &mut [PiecewiseScratch] {
        self.slots
    }
}

/// Prepares one chunk of a wave against the frozen wave-entry log, in
/// two passes: every member's support from [`inputs_from_neighbors`],
/// then the interval members' densities into their slots. Building a
/// density inside the first loop measured about 4 % slower: the builds
/// stop the members' independent neighbour loads from overlapping.
///
/// The first failing member in member order decides the error, its
/// support error before its density error, so a wave split into chunks
/// fails exactly as an inline wave does: the first pass stops at the
/// first empty support, and the second pass builds only the members
/// before it. Pure with respect to the log and draw-free, so any
/// partition of a wave into chunks — and any thread schedule running
/// them — produces bit-identical buffers.
pub(crate) fn prepare_chunk(
    log: &EventLog,
    rates: &[f64],
    bufs: WaveBufs<'_>,
) -> Result<(), InferenceError> {
    let WaveBufs {
        shapes,
        supports,
        slots,
    } = bufs;
    let mut prepared = shapes.len();
    let mut support_err = None;
    for (i, shape) in shapes.iter().enumerate() {
        match inputs_from_neighbors(
            log,
            shape.e,
            &shape.nb,
            rates[shape.qe as usize],
            rates[shape.qp as usize],
        ) {
            Ok(support) => supports[i] = support,
            Err(err) => {
                prepared = i;
                support_err = Some(err);
                break;
            }
        }
    }
    for (support, slot) in supports[..prepared].iter().zip(&mut slots[..prepared]) {
        if let ArrivalSupport::Interval(inputs) = support {
            build_density(inputs, slot)?;
        }
    }
    support_err.map_or(Ok(()), Err)
}

/// Collects the conflict set of event `e` from its neighbourhood: every
/// event whose arrival or (tied) departure the arrival conditional reads.
fn conflict_set(log: &EventLog, e: EventId, nb: &ArrivalNeighbors) -> [u32; MAX_DEPS] {
    let mut deps = [NO_DEP; MAX_DEPS];
    let mut n = 0usize;
    let mut push = |ev: Option<EventId>| {
        if let Some(ev) = ev {
            deps[n] = ev.index() as u32;
            n += 1;
        }
    };
    // a_p; d_{ρ(p)} via its owner π⁻¹(ρ(p)).
    push(Some(nb.p));
    push(nb.rho_p.and_then(|rp| log.pi_inv(rp)));
    // a_{ρ(e)}; d_{ρ(e)} via π⁻¹(ρ(e)).
    push(nb.rho_e);
    push(nb.rho_e.and_then(|r| log.pi_inv(r)));
    // d_e via π⁻¹(e).
    push(log.pi_inv(e));
    // a_{ρ⁻¹(e)}.
    push(nb.succ);
    // a_N; d_N via π⁻¹(N).
    push(nb.next_at_p);
    push(nb.next_at_p.and_then(|nn| log.pi_inv(nn)));
    deps
}

/// Builds a group's cached structure: resolves every event's
/// neighbourhood and conflict set, and splits the group into red-black
/// waves by queue-position parity (preserving the input order within each
/// wave). A singleton group yields one single-event wave, keeping its
/// schedule slot aligned with the scalar sweep.
pub(crate) fn build_group_structure(
    log: &EventLog,
    events: &[EventId],
) -> Result<GroupStructure, InferenceError> {
    let mut gs = GroupStructure::default();
    for &e in events {
        let nb = resolve_neighbors(log, e)?;
        gs.waves[log.queue_position(e) % 2].push(PlanShape {
            e,
            nb,
            qe: log.queue_of(e).index() as u32,
            qp: log.queue_of(nb.p).index() as u32,
            deps: conflict_set(log, e, &nb),
        });
    }
    Ok(gs)
}

/// Resamples a same-queue group of arrival moves in place, wave by wave.
///
/// Each wave runs the (optionally sharded, see
/// [`crate::gibbs::shard`]) prepare phase — every member's support and
/// density against the wave's entry state (`prepare_chunk`) — then a
/// serial drain samples every member, deferring to a live conditional
/// rebuild for the rare member whose cached state an earlier same-wave
/// move invalidated. RNG consumption per event is
/// identical to the scalar [`super::arrival::resample_arrival`] (one
/// uniform per non-degenerate move, none for a point support), and the
/// drawn bytes are independent of `shard` (the prepare phase is
/// draw-free and pure in the wave-entry log).
pub(crate) fn resample_group<R: Rng + ?Sized>(
    log: &mut EventLog,
    rates: &[f64],
    group: &GroupStructure,
    scratch: &mut BatchScratch,
    shard: ShardMode,
    mut pool: Option<&mut crate::gibbs::pool::WavePool>,
    rng: &mut R,
) -> Result<GroupStats, InferenceError> {
    let mut stats = GroupStats::default();
    for wave in &group.waves {
        if wave.is_empty() {
            continue;
        }
        scratch.begin_wave(log.num_events());
        // Prepare phase: every wave member's support and density against
        // the wave's entry state, chunked across shard workers (drawn
        // from the persistent pool when one is supplied).
        crate::gibbs::shard::prepare_wave(
            log,
            rates,
            scratch.wave_bufs(wave),
            shard,
            pool.as_deref_mut(),
        )?;
        // Serial drain: draws, writes, and deferred-move cleanup.
        for (i, shape) in wave.iter().enumerate() {
            let x = if scratch.is_conflicted(shape) {
                // Deferred move: an earlier same-wave move touched one of
                // this event's neighbours; its prepared conditional is
                // stale, so recompute it from the live log (the scalar
                // fallback path — still the exact full conditional).
                stats.fallbacks += 1;
                let support = inputs_from_neighbors(
                    log,
                    shape.e,
                    &shape.nb,
                    rates[shape.qe as usize],
                    rates[shape.qp as usize],
                )?;
                sample_arrival(support, &mut scratch.pw, rng)?
            } else {
                match scratch.supports[i] {
                    ArrivalSupport::Point(lower, _) => lower,
                    ArrivalSupport::Interval(_) => scratch.slots[i].sample(rng),
                }
            };
            log.set_transition_time(shape.e, x);
            scratch.mark_moved(shape.e);
            stats.moves += 1;
        }
    }
    Ok(stats)
}

/// Draws an arrival move's new time from its classified support,
/// building an interval's density into `pw`: the allocation-free twin of
/// [`super::arrival::ArrivalConditional::sample`], with the same bits and
/// RNG consumption. Shared by the drain's fallback and the scalar sweep.
pub(crate) fn sample_arrival<R: Rng + ?Sized>(
    support: ArrivalSupport,
    pw: &mut PiecewiseScratch,
    rng: &mut R,
) -> Result<f64, InferenceError> {
    match support {
        ArrivalSupport::Point(lower, _) => Ok(lower),
        ArrivalSupport::Interval(inputs) => {
            build_density(&inputs, pw)?;
            Ok(pw.sample(rng))
        }
    }
}

/// Builds an interval support's density into `pw`.
fn build_density(inputs: &ArrivalInputs, pw: &mut PiecewiseScratch) -> Result<(), InferenceError> {
    let (breaks, slopes, n) = inputs.assemble();
    pw.rebuild_continuous(inputs.lower, inputs.upper, &breaks[..n], &slopes[..n + 1])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qni_model::ids::{QueueId, StateId, TaskId};
    use qni_model::log::EventLogBuilder;
    use qni_stats::rng::rng_from_seed;

    /// Three tasks through two queues (the arrival-move fixture of
    /// `super::arrival`): every neighbour of the middle events exists.
    fn rich_log() -> (EventLog, Vec<f64>) {
        let mut b = EventLogBuilder::new(3, StateId(0));
        b.add_task(
            1.0,
            &[
                (StateId(1), QueueId(1), 1.0, 2.0),
                (StateId(2), QueueId(2), 2.0, 2.5),
            ],
        )
        .unwrap();
        b.add_task(
            1.2,
            &[
                (StateId(1), QueueId(1), 1.2, 2.6),
                (StateId(2), QueueId(2), 2.6, 3.4),
            ],
        )
        .unwrap();
        b.add_task(
            1.4,
            &[
                (StateId(1), QueueId(1), 1.4, 3.0),
                (StateId(2), QueueId(2), 3.0, 4.0),
            ],
        )
        .unwrap();
        (b.build().unwrap(), vec![2.0, 3.0, 4.0])
    }

    fn resample(
        log: &mut EventLog,
        rates: &[f64],
        events: &[EventId],
        scratch: &mut BatchScratch,
        seed: u64,
    ) -> GroupStats {
        let gs = build_group_structure(log, events).unwrap();
        let mut rng = rng_from_seed(seed);
        resample_group(log, rates, &gs, scratch, ShardMode::Serial, None, &mut rng).unwrap()
    }

    #[test]
    fn singleton_group_matches_scalar_resample_bitwise() {
        let (log, rates) = rich_log();
        for task in 0..3 {
            for visit in 1..=2 {
                let e = log.task_events(TaskId::from_index(task))[visit];
                let mut scalar_log = log.clone();
                let mut batched_log = log.clone();
                let mut ra = rng_from_seed(7);
                let x =
                    crate::gibbs::arrival::resample_arrival(&mut scalar_log, &rates, e, &mut ra)
                        .unwrap();
                let mut scratch = BatchScratch::default();
                let stats = resample(&mut batched_log, &rates, &[e], &mut scratch, 7);
                assert_eq!(
                    stats,
                    GroupStats {
                        moves: 1,
                        fallbacks: 0
                    }
                );
                assert_eq!(batched_log.arrival(e).to_bits(), x.to_bits());
            }
        }
    }

    #[test]
    fn group_is_bitwise_equal_to_sequential_scalar_in_wave_order() {
        // Wave-order sequential scalar resampling is the reference kernel:
        // the batched engine must match it exactly, cached bounds or not.
        let (log, rates) = rich_log();
        let events: Vec<EventId> = log.events_at_queue(QueueId(1)).to_vec();
        for seed in 0..20u64 {
            let mut scalar_log = log.clone();
            let mut rng = rng_from_seed(seed);
            // Wave order: even queue positions first, then odd.
            for parity in 0..2 {
                for &e in &events {
                    if log.queue_position(e) % 2 == parity {
                        crate::gibbs::arrival::resample_arrival(
                            &mut scalar_log,
                            &rates,
                            e,
                            &mut rng,
                        )
                        .unwrap();
                    }
                }
            }
            let mut batched_log = log.clone();
            let mut scratch = BatchScratch::default();
            resample(&mut batched_log, &rates, &events, &mut scratch, seed);
            for e in log.event_ids() {
                assert_eq!(
                    scalar_log.arrival(e).to_bits(),
                    batched_log.arrival(e).to_bits(),
                    "seed {seed}: arrival of {e} diverged"
                );
            }
        }
    }

    #[test]
    fn rho_adjacent_events_land_in_opposite_waves() {
        let (log, rates) = rich_log();
        let e1 = log.task_events(TaskId(1))[1];
        let e2 = log.task_events(TaskId(2))[1];
        assert_eq!(log.rho(e2), Some(e1));
        let gs = build_group_structure(&log, &[e1, e2]).unwrap();
        assert_eq!(gs.waves[0].len() + gs.waves[1].len(), 2);
        assert_eq!(gs.waves[0].len(), 1, "ρ-adjacent events must split");
        // No same-wave neighbours → no fallbacks.
        let mut work = log.clone();
        let mut scratch = BatchScratch::default();
        let stats = resample(&mut work, &rates, &[e1, e2], &mut scratch, 3);
        assert_eq!(stats.moves, 2);
        assert_eq!(stats.fallbacks, 0);
        qni_model::constraints::validate(&work).unwrap();
    }

    #[test]
    fn same_wave_revisit_conflicts_and_falls_back() {
        // Task B revisits queue 1 back-to-back with another task's event
        // interleaved: B's two events sit at queue positions 0 and 2 (the
        // same wave) and are π-coupled, so the second must detect the
        // first one's move and fall back.
        let mut b = EventLogBuilder::new(2, StateId(0));
        let tb = b
            .add_task(
                1.0,
                &[
                    (StateId(1), QueueId(1), 1.0, 1.5),
                    (StateId(1), QueueId(1), 1.5, 3.0),
                ],
            )
            .unwrap();
        let tf = b
            .add_task(1.1, &[(StateId(1), QueueId(1), 1.1, 2.6)])
            .unwrap();
        let log = b.build().unwrap();
        qni_model::constraints::validate(&log).unwrap();
        let rates = vec![1.0, 2.0];
        let b1 = log.task_events(tb)[1];
        let b2 = log.task_events(tb)[2];
        let f = log.task_events(tf)[1];
        assert_eq!(log.queue_position(b1), 0);
        assert_eq!(log.queue_position(f), 1);
        assert_eq!(log.queue_position(b2), 2);
        let mut work = log.clone();
        let mut scratch = BatchScratch::default();
        let stats = resample(&mut work, &rates, &[b1, f, b2], &mut scratch, 9);
        assert_eq!(stats.moves, 3);
        assert_eq!(stats.fallbacks, 1, "π-coupled same-wave pair must conflict");
        qni_model::constraints::validate(&work).unwrap();
    }

    #[test]
    fn repeated_groups_preserve_validity() {
        let (mut log, rates) = rich_log();
        let q1: Vec<EventId> = log.events_at_queue(QueueId(1)).to_vec();
        let gs = build_group_structure(&log, &q1).unwrap();
        let mut scratch = BatchScratch::default();
        let mut rng = rng_from_seed(5);
        for _ in 0..500 {
            resample_group(
                &mut log,
                &rates,
                &gs,
                &mut scratch,
                ShardMode::Serial,
                None,
                &mut rng,
            )
            .unwrap();
            qni_model::constraints::validate(&log).unwrap();
        }
    }
}
