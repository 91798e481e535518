//! Persistent worker pool for sharded wave preparation.
//!
//! [`crate::gibbs::shard`] fans each sufficiently large red-black wave's
//! draw-free prepare phase out across worker threads, and this pool is
//! where those threads come from. A [`WavePool`] spawns its helper
//! threads **once per chain run** and parks them on channels, so
//! dispatching a wave is one enqueue per worker plus one rendezvous —
//! no thread spawn per wave — and the calling thread prepares chunk 0
//! itself.
//!
//! # Determinism
//!
//! The pool changes *scheduling only*. Workers run the same
//! `prepare_chunk` (`crate::gibbs::batch`) that inline preparation runs,
//! over contiguous queue blocks, and the serial drain still performs
//! every RNG draw on the chain's master stream. Hence **every pool size
//! is bit-identical to the serial batched sweep** (pinned by
//! `crates/core/tests/pool_gibbs.rs`). Errors are surfaced leader-first
//! then in block order, so even the failure path is deterministic.
//!
//! # Why there is `unsafe` here (and nowhere else in the crate)
//!
//! A pool thread outlives any single wave, so the chunk buffers it
//! borrows for one job cannot be expressed as safe channel payloads:
//! `std::sync::mpsc` channels are invariant in their payload type, while
//! each wave re-borrows scratch memory the drain mutates between waves.
//! This is the same reason scoped thread pools in the wider ecosystem
//! (rayon, crossbeam) erase lifetimes internally. The erasure here is
//! confined to the private `Job` type and governed by one invariant,
//! which `WavePool::dispatch` upholds structurally:
//!
//! > **No job outlives its dispatch call.** `dispatch` receives the
//! > result of every job it enqueued — even when the leader chunk or a
//! > worker chunk panics — before it returns or unwinds, so the erased
//! > borrows never escape the stack frame that owns them.
//!
//! Workers never panic across the channel: each chunk runs under
//! [`std::panic::catch_unwind`] and its outcome (value, error, or panic
//! payload) is sent back as data; the dispatcher re-raises panics with
//! [`std::panic::resume_unwind`] after the rendezvous completes.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::error::InferenceError;
use crate::gibbs::batch::WaveBufs;
use crate::gibbs::shard::ShardMode;
use qni_model::log::EventLog;

/// A chunk's outcome as shipped back over the done channel: the outer
/// layer carries a caught panic payload, the inner layer the prepare
/// error, so the dispatcher can re-raise panics in a fixed precedence.
type ChunkResult = std::thread::Result<Result<(), InferenceError>>;

/// One wave chunk, with its borrows erased so it can cross a channel to
/// a long-lived worker thread. Only [`WavePool::dispatch`] constructs
/// these, and it never lets one outlive the call (module docs).
struct Job {
    log: *const EventLog,
    rates: *const f64,
    rates_len: usize,
    bufs: WaveBufs<'static>,
}

// SAFETY: a Job is only ever sent from `dispatch` to a pool worker and
// is consumed before `dispatch` returns (the no-job-outlives-dispatch
// invariant in the module docs). The pointers target the `&EventLog`
// and `&[f64]` arguments of that live `dispatch` frame, and `bufs` is a
// lifetime-erased reborrow of caller-owned scratch; all of the pointees
// are `Sync` data read (or disjointly written, for `bufs`) for the
// duration of the call, so moving the handle to another thread is sound.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

impl Job {
    /// Erases a chunk's borrows for the trip across the channel. Callers
    /// must uphold the dispatch rendezvous invariant (module docs).
    #[allow(unsafe_code)]
    fn erase(log: &EventLog, rates: &[f64], bufs: WaveBufs<'_>) -> Job {
        Job {
            log,
            rates: rates.as_ptr(),
            rates_len: rates.len(),
            // SAFETY: `WaveBufs` differs from `WaveBufs<'static>` only in
            // its lifetime parameter, so the transmute is layout-trivial.
            // The 'static is a lie confined to this module: `dispatch`
            // rendezvouses with every worker holding one of these before
            // returning or unwinding, so the erased borrows never outlive
            // the true lifetime.
            bufs: unsafe { std::mem::transmute::<WaveBufs<'_>, WaveBufs<'static>>(bufs) },
        }
    }

    /// Reconstitutes the borrows and prepares the chunk.
    #[allow(unsafe_code)]
    fn run(self) -> Result<(), InferenceError> {
        let Job {
            log,
            rates,
            rates_len,
            bufs,
        } = self;
        // SAFETY: per the dispatch rendezvous invariant, the `dispatch`
        // frame that built this job is still live (blocked between
        // enqueue and rendezvous), so `log` points at its valid
        // `&EventLog` argument.
        let log = unsafe { &*log };
        // SAFETY: as above — `rates`/`rates_len` were taken from a live
        // `&[f64]` in the same `dispatch` frame.
        let rates = unsafe { std::slice::from_raw_parts(rates, rates_len) };
        crate::gibbs::batch::prepare_chunk(log, rates, bufs)
    }
}

/// One parked helper thread plus its private job/done channel pair.
/// Per-worker channels keep the rendezvous deterministic: chunk `i + 1`
/// always goes to worker `i` and its result is read back from worker
/// `i`, so no cross-worker ordering races exist even in principle.
#[derive(Debug)]
struct Worker {
    job_tx: Sender<Job>,
    done_rx: Receiver<ChunkResult>,
    handle: JoinHandle<()>,
}

/// A persistent pool of wave-prepare threads for one chain.
///
/// Created once per chain run with the chain's shard capacity; every
/// sharded wave is then dispatched through the pool at a cost
/// of one enqueue and one rendezvous per worker instead of a thread
/// spawn. See the module docs for the determinism and soundness
/// contracts. Dropping the pool closes the job channels and joins every
/// helper thread.
#[derive(Debug)]
pub struct WavePool {
    workers: Vec<Worker>,
}

impl WavePool {
    /// Creates a pool that can prepare waves on up to `capacity` threads
    /// *including the caller*: `capacity − 1` helper threads are spawned
    /// now and parked on their job channels, so `ShardMode::Sharded(n)`
    /// occupies exactly `n` threads per chain.
    pub fn new(capacity: usize) -> WavePool {
        let helpers = capacity.max(1) - 1;
        let mut workers = Vec::with_capacity(helpers);
        for _ in 0..helpers {
            let (job_tx, job_rx) = channel::<Job>();
            let (done_tx, done_rx) = channel::<ChunkResult>();
            let handle = std::thread::spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    // Catch panics so they travel back as data; the
                    // dispatcher re-raises them deterministically.
                    let result = catch_unwind(AssertUnwindSafe(|| job.run()));
                    if done_tx.send(result).is_err() {
                        // Dispatcher vanished mid-job (pool dropped);
                        // nothing left to report to.
                        break;
                    }
                }
            });
            workers.push(Worker {
                job_tx,
                done_rx,
                handle,
            });
        }
        WavePool { workers }
    }

    /// Total prepare threads this pool can field, including the caller.
    pub fn capacity(&self) -> usize {
        self.workers.len() + 1
    }

    /// Prepares a wave on up to `workers` threads (capped at
    /// [`WavePool::capacity`]): the wave is split into contiguous queue
    /// blocks, chunks `1..` are enqueued to the parked helpers, and the
    /// calling thread prepares chunk 0 itself before rendezvousing with
    /// every helper it fed. Results are bit-identical to inline
    /// preparation; errors and panics surface leader-first then in block
    /// order.
    pub(crate) fn dispatch(
        &mut self,
        log: &EventLog,
        rates: &[f64],
        bufs: WaveBufs<'_>,
        workers: usize,
    ) -> Result<(), InferenceError> {
        let workers = workers.min(self.capacity());
        if workers <= 1 {
            return crate::gibbs::batch::prepare_chunk(log, rates, bufs);
        }
        let (leader_chunk, rest) = crate::gibbs::shard::split_leader_rest(bufs, workers);
        // Enqueue chunks 1.. to their helpers. A send can only fail if
        // the helper thread is gone (it never exits while its channels
        // are open), in which case the chunk is prepared inline here —
        // graceful degradation, same bytes.
        enum Slot {
            Sent,
            Done(ChunkResult),
        }
        let mut slots = Vec::with_capacity(rest.len());
        for (i, chunk) in rest.into_iter().enumerate() {
            let job = Job::erase(log, rates, chunk);
            slots.push(match self.workers[i].job_tx.send(job) {
                Ok(()) => Slot::Sent,
                Err(std::sync::mpsc::SendError(job)) => {
                    Slot::Done(catch_unwind(AssertUnwindSafe(|| job.run())))
                }
            });
        }
        // The calling thread is worker 0. Catching a leader panic here is
        // load-bearing: the rendezvous below must run even then, or an
        // in-flight job would outlive this frame (the soundness invariant
        // in the module docs).
        let leader = catch_unwind(AssertUnwindSafe(|| {
            crate::gibbs::batch::prepare_chunk(log, rates, leader_chunk)
        }));
        // Unconditional rendezvous with every helper that was fed, in
        // block order. After this loop no job is in flight.
        let mut outcomes: Vec<ChunkResult> = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            outcomes.push(match slot {
                Slot::Done(r) => r,
                Slot::Sent => match self.workers[i].done_rx.recv() {
                    Ok(r) => r,
                    // The helper died without reporting — treat it like
                    // a panicked worker.
                    Err(_) => Err(Box::new("shard worker panicked")),
                },
            });
        }
        // Deterministic precedence: a leader panic unwinds first, then
        // worker panics in block order, then the leader's error, then
        // worker errors in block order.
        let leader = match leader {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        };
        let mut results = Vec::with_capacity(outcomes.len() + 1);
        results.push(leader);
        for outcome in outcomes {
            results.push(match outcome {
                Ok(r) => r,
                Err(payload) => resume_unwind(payload),
            });
        }
        results.into_iter().collect()
    }
}

impl Drop for WavePool {
    fn drop(&mut self) {
        for worker in self.workers.drain(..) {
            let Worker {
                job_tx,
                done_rx,
                handle,
            } = worker;
            // Closing the job channel ends the helper's recv loop; the
            // done receiver is dropped alongside so a helper mid-send
            // can never block. Join failures (a helper that somehow
            // panicked outside a job) are ignored during shutdown.
            drop(job_tx);
            drop(done_rx);
            let _ = handle.join();
        }
    }
}

/// A lazily-built set of per-chain [`WavePool`]s, keyed by the engine
/// configuration that shaped them so long-lived owners (the streaming
/// engine, watch sessions) can reuse pools across windows and rebuild
/// them only when the chain count or shard capacity changes.
#[derive(Debug, Default)]
pub struct PoolSet {
    pools: Vec<Option<WavePool>>,
    /// `(chains, per-chain capacity)` the current pools were built for;
    /// capacity 0 encodes "pools intentionally absent" (a shard mode that
    /// never fans out).
    key: Option<(usize, usize)>,
}

impl PoolSet {
    /// An empty set; pools are built on first [`PoolSet::ensure`].
    pub fn new() -> PoolSet {
        PoolSet::default()
    }

    /// Returns one pool slot per chain for the given configuration,
    /// rebuilding the set only when the shape changed. Slots are `None`
    /// when `shard` never fans out, so callers can thread the slots
    /// through unconditionally.
    pub fn ensure(&mut self, chains: usize, shard: ShardMode) -> &mut [Option<WavePool>] {
        let per_chain = shard.workers().max(1);
        let pooled = per_chain > 1;
        let key = (chains, if pooled { per_chain } else { 0 });
        if self.key != Some(key) {
            self.pools.clear();
            for _ in 0..chains {
                self.pools.push(pooled.then(|| WavePool::new(per_chain)));
            }
            self.key = Some(key);
        }
        &mut self.pools
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::arrival::ArrivalSupport;
    use crate::gibbs::batch::{build_group_structure, BatchScratch};
    use qni_model::ids::{QueueId, StateId};
    use qni_model::log::EventLogBuilder;
    use qni_stats::rng::rng_from_seed;

    /// Three tasks through two queues (the batch-engine fixture): every
    /// neighbour of the middle events exists, so the first parity wave
    /// at queue 1 has members with interval supports.
    fn fixture() -> (EventLog, Vec<f64>) {
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

    /// Drains a prepared wave with per-member fixed-seed RNGs and
    /// returns the sampled bits, so two preparations can be compared
    /// bit-for-bit without consuming a shared stream.
    fn drain_bits(scratch: &mut BatchScratch, wave: &[crate::gibbs::batch::PlanShape]) -> Vec<u64> {
        let mut bufs = scratch.wave_bufs(wave);
        let n = bufs.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut rng = rng_from_seed(41 + i as u64);
            let x = match bufs.test_supports()[i] {
                ArrivalSupport::Point(lower, _) => lower,
                ArrivalSupport::Interval(_) => bufs.test_slots()[i].sample(&mut rng),
            };
            out.push(x.to_bits());
        }
        out
    }

    #[test]
    fn dispatch_is_bitwise_identical_to_inline_prepare() {
        let (log, rates) = fixture();
        let events = log.events_at_queue(QueueId(1)).to_vec();
        let gs = build_group_structure(&log, &events).unwrap();
        let wave = gs.test_wave(0);
        assert!(wave.len() >= 2, "fixture wave too small to split");
        let mut inline = BatchScratch::default();
        crate::gibbs::batch::prepare_chunk(&log, &rates, inline.wave_bufs(wave)).unwrap();
        let reference = drain_bits(&mut inline, wave);
        for capacity in [2usize, 3, 4] {
            let mut pool = WavePool::new(capacity);
            assert_eq!(pool.capacity(), capacity);
            let mut scratch = BatchScratch::default();
            pool.dispatch(&log, &rates, scratch.wave_bufs(wave), capacity)
                .unwrap();
            assert_eq!(drain_bits(&mut scratch, wave), reference);
        }
    }

    #[test]
    fn dispatch_caps_workers_at_capacity_and_inlines_single_worker() {
        let (log, rates) = fixture();
        let events = log.events_at_queue(QueueId(1)).to_vec();
        let gs = build_group_structure(&log, &events).unwrap();
        let wave = gs.test_wave(0);
        let mut inline = BatchScratch::default();
        crate::gibbs::batch::prepare_chunk(&log, &rates, inline.wave_bufs(wave)).unwrap();
        let reference = drain_bits(&mut inline, wave);
        // More requested workers than capacity: capped, same bytes.
        let mut pool = WavePool::new(2);
        let mut scratch = BatchScratch::default();
        pool.dispatch(&log, &rates, scratch.wave_bufs(wave), 8)
            .unwrap();
        assert_eq!(drain_bits(&mut scratch, wave), reference);
        // A single-worker dispatch takes the inline path even on a pool.
        let mut scratch = BatchScratch::default();
        pool.dispatch(&log, &rates, scratch.wave_bufs(wave), 1)
            .unwrap();
        assert_eq!(drain_bits(&mut scratch, wave), reference);
    }

    #[test]
    fn pool_survives_a_failed_dispatch_and_stays_correct() {
        let (log, rates) = fixture();
        let events = log.events_at_queue(QueueId(1)).to_vec();
        let gs = build_group_structure(&log, &events).unwrap();
        let wave = gs.test_wave(0);
        let mut pool = WavePool::new(3);
        // An empty rates slice makes every chunk's rate lookup panic —
        // leader and workers alike, in every build. The dispatch must
        // rendezvous with all of them and re-raise the panic without
        // deadlocking or wedging the pool.
        let no_rates: Vec<f64> = Vec::new();
        let mut scratch = BatchScratch::default();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.dispatch(&log, &no_rates, scratch.wave_bufs(wave), 3);
        }));
        assert!(panicked.is_err(), "a missing rate must surface as a panic");
        // The same pool then produces bit-identical good results.
        let mut inline = BatchScratch::default();
        crate::gibbs::batch::prepare_chunk(&log, &rates, inline.wave_bufs(wave)).unwrap();
        let reference = drain_bits(&mut inline, wave);
        let mut scratch = BatchScratch::default();
        pool.dispatch(&log, &rates, scratch.wave_bufs(wave), 3)
            .unwrap();
        assert_eq!(drain_bits(&mut scratch, wave), reference);
    }

    #[test]
    fn nan_rates_are_a_typed_error_not_a_panic() {
        let (log, rates) = fixture();
        let events = log.events_at_queue(QueueId(1)).to_vec();
        let gs = build_group_structure(&log, &events).unwrap();
        let wave = gs.test_wave(0);
        let mut pool = WavePool::new(3);
        // The density builder rejects the NaN slopes in every build, so
        // the dispatch returns the error instead of re-raising a panic.
        let nan_rates = vec![f64::NAN; rates.len()];
        let mut scratch = BatchScratch::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(&log, &nan_rates, scratch.wave_bufs(wave), 3)
        }));
        assert!(matches!(outcome, Ok(Err(_))), "{outcome:?}");
    }

    #[test]
    fn drop_shuts_down_cleanly_used_or_not() {
        // Never dispatched: helpers are parked on recv and must exit
        // when the job channels close.
        drop(WavePool::new(4));
        // Dispatched, then dropped: same clean shutdown.
        let (log, rates) = fixture();
        let events = log.events_at_queue(QueueId(1)).to_vec();
        let gs = build_group_structure(&log, &events).unwrap();
        let wave = gs.test_wave(0);
        let mut pool = WavePool::new(3);
        let mut scratch = BatchScratch::default();
        pool.dispatch(&log, &rates, scratch.wave_bufs(wave), 3)
            .unwrap();
        drop(pool);
    }

    #[test]
    fn pool_set_rebuilds_only_when_the_shape_changes() {
        let mut set = PoolSet::new();
        let slots = set.ensure(2, ShardMode::Sharded(3));
        assert_eq!(slots.len(), 2);
        assert!(slots.iter().all(|s| s.is_some()));
        assert_eq!(slots[0].as_ref().map(WavePool::capacity), Some(3));
        // Same shape: slots are reused, not rebuilt.
        let again = set.ensure(2, ShardMode::Sharded(3));
        assert!(again.iter().all(|s| s.is_some()));
        // A non-fanning shard mode yields empty slots.
        let serial = set.ensure(4, ShardMode::Serial);
        assert_eq!(serial.len(), 4);
        assert!(serial.iter().all(|s| s.is_none()));
        // Back to pooled with a new chain count: rebuilt to match.
        let rebuilt = set.ensure(3, ShardMode::Sharded(2));
        assert_eq!(rebuilt.len(), 3);
        assert!(rebuilt.iter().all(|s| s.is_some()));
        assert_eq!(rebuilt[0].as_ref().map(WavePool::capacity), Some(2));
    }
}
