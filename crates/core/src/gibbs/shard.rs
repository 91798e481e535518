//! Intra-trace sharded Gibbs sweeps: one chain, many cores.
//!
//! The multi-chain engine ([`crate::chains`]) parallelizes over *chains*;
//! this module parallelizes over the events of a **single** chain's
//! sweep, so one giant trace is no longer bound by single-core speed.
//!
//! # What is sharded
//!
//! The batched engine ([`super::batch`]) already splits every same-queue
//! group into red-black *waves* and processes each wave in two phases:
//!
//! 1. a **prepare phase** — take every wave member's support from
//!    [`super::arrival::inputs_from_neighbors`] (the function the scalar
//!    sweep calls), then build each interval member's
//!    piecewise-exponential conditional. This phase is a *pure function
//!    of the wave-entry log*: it reads shared state and writes only
//!    per-member slots, and it draws **no randomness**.
//! 2. a **serial drain** — walk the wave in order, draw each member from
//!    the chain's RNG, write its new time, and re-resolve the rare
//!    member whose cached conditional an earlier same-wave move
//!    invalidated (a π-side coupling caught by the conflict sets).
//!
//! Sharding executes phase 1 on up to `N` threads of the fit's
//! [`crate::gibbs::pool::WavePool`], each owning a contiguous
//! block of the wave (a *queue block*: wave members are stored in
//! within-queue arrival order, so a chunk is a contiguous run of queue
//! positions). Phase 2 — every RNG draw, every write, and the serial
//! cleanup of deferred (conflicted) moves — stays on the calling thread,
//! in the exact order of the serial sweep.
//!
//! # Determinism
//!
//! Because the prepare phase is draw-free and each member's slot is a
//! pure function of the frozen wave-entry log, the bytes it produces do
//! not depend on how the wave is chunked, how many workers run, or how
//! the OS schedules them. The drain consumes the chain's master RNG in
//! the same order as the serial batched sweep and samples from densities
//! that are arithmetically identical to the ones the serial sweep would
//! build. Hence the contract, pinned by `crates/core/tests/shard_gibbs.rs`:
//!
//! > **`ShardMode::Sharded(n)` is bit-identical to
//! > [`ShardMode::Serial`] — today's default batched sweep — for every
//! > `n`, on every workload.**
//!
//! An alternative design — giving every event a counter-derived ChaCha
//! substream (`split_seed(sweep, event)`) and drawing *inside* the
//! workers — was considered and rejected: it would also be reproducible
//! across thread counts, but it could never be bit-identical to the
//! existing batched/scalar sweeps (their draws come from one sequential
//! chain stream), so enabling sharding would silently reshuffle every
//! seeded run and re-baseline every recorded experiment. Keeping the
//! draws on the master stream makes `--shards N` a pure *performance*
//! knob: turning it on can never change a result.
//!
//! # Deferred moves
//!
//! ρ-adjacent couplings never land in one wave (red-black parity), but
//! π-side couplings — same-queue revisits, and tasks hopping between
//! queues with matching parity — can. Those members' prepared
//! conditionals are discarded and the move is *deferred* to the drain's
//! serial cleanup: it recomputes the exact full conditional from the
//! live log (the same scalar fallback the batched engine always had),
//! so every draw remains the exact full conditional regardless of shard
//! count. [`super::batch::GroupStats::fallbacks`] counts these deferred
//! moves; the `shard_speedup` bench reports them as the per-workload
//! deferred fraction.
//!
//! # Scheduling policy
//!
//! Handing a wave to the pool costs one enqueue and one rendezvous per
//! worker, so tiny waves are prepared inline: a wave only fans out when
//! every worker can be handed at least [`MIN_EVENTS_PER_WORKER`] members
//! (floor division — see [`ShardMode::workers_for`] for the pinned
//! policy). Waves that do fan out run on the
//! [`crate::gibbs::pool::WavePool`] the caller passes, created once per
//! fit; without a pool every wave is prepared inline. The pool
//! splits the wave with `split_leader_rest` and surfaces errors in
//! leader-then-block order, so the policy affects scheduling only —
//! never results — and can be tuned freely. NUMA pinning of pool
//! workers is the known next step; see ROADMAP.md.

use crate::error::InferenceError;
use crate::gibbs::batch::WaveBufs;
use qni_model::log::EventLog;

/// How a batched sweep executes each wave's prepare phase.
///
/// The default is [`ShardMode::Serial`]. Every mode produces
/// bit-identical results (see the module docs); `Sharded(n)` only
/// changes how many threads compute them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// Prepare waves inline on the calling thread (the classic batched
    /// sweep).
    #[default]
    Serial,
    /// Prepare each sufficiently large wave on up to `n` threads of the
    /// chain's [`crate::gibbs::pool::WavePool`] (including the calling
    /// thread). `Sharded(1)` is the inline path and `Sharded(0)` is
    /// rejected by [`ShardMode::validate`].
    Sharded(usize),
}

/// Minimum wave members handed to each worker before a wave fans out:
/// a wave of `len` members uses `len / MIN_EVENTS_PER_WORKER` workers
/// (floor division, clamped to the configured cap), so below
/// `2 × MIN_EVENTS_PER_WORKER` members — up to and including
/// `2 × MIN_EVENTS_PER_WORKER − 1` — the wave is prepared inline. Sized
/// so each worker gets tens of microseconds of prepare work — well
/// above per-wave dispatch cost. Tuning this changes scheduling only,
/// never results.
pub const MIN_EVENTS_PER_WORKER: usize = 512;

impl ShardMode {
    /// The configured worker-thread cap (1 for [`ShardMode::Serial`]).
    pub fn workers(self) -> usize {
        match self {
            ShardMode::Serial => 1,
            ShardMode::Sharded(n) => n,
        }
    }

    /// Rejects the degenerate `Sharded(0)` configuration.
    pub fn validate(self) -> Result<(), InferenceError> {
        if let ShardMode::Sharded(0) = self {
            return Err(InferenceError::BadOptions {
                what: "shards must be >= 1 (ShardMode::Sharded(0) has no workers)",
            });
        }
        Ok(())
    }

    /// Caps this mode to a total-thread `budget` split across `chains`
    /// concurrent chains, so `chains × shards` never exceeds the budget.
    /// Capping affects scheduling only — results are bit-identical at
    /// every worker count.
    pub fn capped(self, budget: usize, chains: usize) -> ShardMode {
        match self {
            ShardMode::Serial => ShardMode::Serial,
            ShardMode::Sharded(n) => {
                let per_chain = (budget / chains.max(1)).max(1);
                ShardMode::Sharded(n.clamp(1, per_chain))
            }
        }
    }

    /// How many workers a wave of `len` members fans out to under this
    /// mode: `len / MIN_EVENTS_PER_WORKER` (floor division), at most
    /// [`ShardMode::workers`] — i.e. only as many workers as can each
    /// be handed a *full* [`MIN_EVENTS_PER_WORKER`] members. An
    /// unvalidated `Sharded(0)` degrades to the inline path rather than
    /// panicking (the option-carrying entry points reject it up front
    /// via [`ShardMode::validate`]).
    ///
    /// The inline threshold is pinned here: one member short of two
    /// full chunks still prepares inline, and the first wave to fan out
    /// is exactly `2 × MIN_EVENTS_PER_WORKER` members.
    ///
    /// ```
    /// use qni_core::gibbs::shard::{ShardMode, MIN_EVENTS_PER_WORKER};
    /// let m = ShardMode::Sharded(4);
    /// assert_eq!(m.workers_for(2 * MIN_EVENTS_PER_WORKER - 1), 1);
    /// assert_eq!(m.workers_for(2 * MIN_EVENTS_PER_WORKER), 2);
    /// ```
    pub fn workers_for(self, len: usize) -> usize {
        (len / MIN_EVENTS_PER_WORKER).clamp(1, self.workers().max(1))
    }
}

/// Executes a wave's prepare phase under `mode`: inline when the wave
/// is small, the mode serial, or no `pool` is supplied; otherwise split
/// into contiguous per-worker queue blocks on the pool. Workers read the
/// frozen log and write disjoint per-member slots, so results are
/// bit-identical regardless of the split; errors are surfaced
/// leader-first then in block order so even the failure path is
/// deterministic.
pub(crate) fn prepare_wave(
    log: &EventLog,
    rates: &[f64],
    bufs: WaveBufs<'_>,
    mode: ShardMode,
    pool: Option<&mut crate::gibbs::pool::WavePool>,
) -> Result<(), InferenceError> {
    let workers = mode.workers_for(bufs.len());
    match pool {
        Some(pool) if workers > 1 => pool.dispatch(log, rates, bufs, workers),
        _ => crate::gibbs::batch::prepare_chunk(log, rates, bufs),
    }
}

/// Splits wave buffers into `workers ≥ 2` contiguous, near-equal chunks
/// (the first `len % workers` chunks get one extra member), returning
/// the leader's chunk 0 separately from chunks `1..`, for
/// [`crate::gibbs::pool::WavePool::dispatch`].
pub(crate) fn split_leader_rest(
    bufs: WaveBufs<'_>,
    workers: usize,
) -> (WaveBufs<'_>, Vec<WaveBufs<'_>>) {
    let len = bufs.len();
    let base = len / workers;
    let extra = len % workers;
    let (leader, mut tail) = bufs.split_at(base + usize::from(extra > 0));
    let mut rest = Vec::with_capacity(workers - 1);
    for i in 1..workers - 1 {
        let take = base + usize::from(i < extra);
        let (head, t) = tail.split_at(take);
        rest.push(head);
        tail = t;
    }
    rest.push(tail);
    (leader, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_zero_shards() {
        assert!(ShardMode::Sharded(0).validate().is_err());
        assert!(ShardMode::Sharded(1).validate().is_ok());
        assert!(ShardMode::Serial.validate().is_ok());
    }

    #[test]
    fn worker_policy_respects_min_chunk() {
        let m = ShardMode::Sharded(4);
        assert_eq!(m.workers_for(10), 1);
        assert_eq!(m.workers_for(MIN_EVENTS_PER_WORKER * 2), 2);
        assert_eq!(m.workers_for(MIN_EVENTS_PER_WORKER * 100), 4);
        assert_eq!(ShardMode::Serial.workers_for(100_000), 1);
        // Unvalidated Sharded(0) degrades to inline instead of panicking.
        assert_eq!(ShardMode::Sharded(0).workers_for(100_000), 1);
    }

    #[test]
    fn thread_budget_caps_shards_per_chain() {
        assert_eq!(ShardMode::Sharded(8).capped(8, 4), ShardMode::Sharded(2));
        assert_eq!(ShardMode::Sharded(8).capped(2, 4), ShardMode::Sharded(1));
        assert_eq!(ShardMode::Sharded(2).capped(16, 2), ShardMode::Sharded(2));
        assert_eq!(ShardMode::Serial.capped(1, 1), ShardMode::Serial);
    }
}
