//! Instrumentation layer: traces, observation schemes, and masked logs.
//!
//! The paper's premise is that full tracing is too expensive (123 GB/day
//! for the Coral cache), so only a *subset* of arrival times is measured.
//! This crate models that measurement process:
//!
//! - [`observe`]: observation schemes — most importantly
//!   [`observe::ObservationScheme::TaskSampling`], the §5.1 protocol that
//!   observes *all arrivals of a random sample of tasks* (plus their final
//!   departures), and per-event sampling as an alternative.
//! - [`mask`]: the [`mask::MaskedLog`] — ground truth plus an observation
//!   mask. Inference code receives this and must call
//!   [`mask::MaskedLog::scrubbed_log`], which replaces every unobserved
//!   time with NaN, making accidental peeking loud.
//! - [`counter`]: the event-counter mechanism the paper proposes for
//!   knowing *how many* unobserved events occurred between observed ones
//!   (which justifies the fixed-arrival-order assumption of the sampler).
//! - [`record`]: serializable per-event trace records with JSONL
//!   round-tripping.
//! - [`tail`]: incremental append/tail-follow reading of a growing JSONL
//!   trace — partial-line reassembly, byte-offset resume, truncation
//!   detection, opt-in rotation following, transient-error retry, a
//!   malformed-line quarantine budget, and serializable resume
//!   snapshots.
//! - [`fault`]: deterministic (seeded) fault injection for the tail
//!   path — transient I/O errors, torn writes, forced rotations.
//! - [`window`]: sliding `(width, stride)` time windows over a masked
//!   log — the unit of work of the streaming StEM engine, sliced either
//!   from a complete trace ([`window::slice_windows`]) or incrementally
//!   from a live stream ([`window::LiveSlicer`]).
//! - [`csv`]: a minimal CSV writer used by the experiment harness.

pub mod counter;
pub mod csv;
pub mod error;
pub mod fault;
pub mod mask;
pub mod observe;
pub mod record;
pub mod tail;
pub mod volume;
pub mod window;

pub use error::TraceError;
pub use fault::{apply_write_op, torn_write_script, FaultPlan, FaultSource, WriteOp};
pub use mask::{MaskedLog, ObservedMask};
pub use observe::ObservationScheme;
pub use tail::{
    LineAssembler, RetryPolicy, RotationPolicy, TailOptions, TailReader, TailSnapshot, TailStats,
};
pub use window::{
    occupancy_carry, slice_windows, LiveSlicer, OccupancyCarry, WindowInputs, WindowSchedule,
    WindowedLog,
};
