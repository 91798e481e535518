//! The probabilistic queueing-network model of Sutton & Jordan.
//!
//! This crate defines the *model* half of the paper: networks of FIFO
//! single-server queues through which tasks are routed by a probabilistic
//! finite-state machine, and the event representation that makes the joint
//! density of all arrival/departure times tractable to write down
//! (Equation 1 of the paper).
//!
//! The key objects are:
//!
//! - [`bits`]: the bit-exact `f64` serde codec every checkpointed float
//!   goes through.
//! - [`ids`]: strongly-typed indices for queues, tasks, FSM states, and
//!   events.
//! - [`fsm::Fsm`]: the task-routing finite-state machine with transition
//!   distribution `p(σ′|σ)` and queue-emission distribution `p(q|σ)`.
//! - [`network::QueueingNetwork`]: queue metadata (service distributions)
//!   plus the FSM; the virtual *initial queue* `q0` holds one event per
//!   task that arrives at time 0 and departs at the task's system-entry
//!   time, so the interarrival law is simply `q0`'s service law (rate λ).
//! - [`event::Event`] and [`log::EventLog`]: the flat arena of events with
//!   within-queue predecessor ρ(e) and within-task predecessor π(e)
//!   pointers, plus derived quantities (service, waiting, response).
//! - [`joint`]: the joint log-density of an event set, Eq. (1).
//! - [`constraints`]: the deterministic-dependency validator
//!   (`a_e = d_{π(e)}`, `d_e = s_e + max(a_e, d_{ρ(e)})`, FIFO order).
//! - [`topology`]: builders for the paper's networks (tandem, the
//!   three-tier web service of Figure 1, with or without network queues).
//!
//! # Examples
//!
//! ```
//! use qni_model::topology::three_tier;
//!
//! // Figure 1 of the paper: 2 web servers, 1 middleware, 2 storage, with
//! // network queues between tiers.
//! let t = three_tier(1.0, 5.0, &[2, 1, 2], true).unwrap();
//! assert_eq!(t.tiers.len(), 3);
//! ```

pub mod bits;
pub mod constraints;
pub mod error;
pub mod event;
pub mod fsm;
pub mod ids;
pub mod joint;
pub mod log;
pub mod network;
pub mod topology;

pub use error::ModelError;
pub use event::Event;
pub use fsm::Fsm;
pub use ids::{EventId, QueueId, StateId, TaskId};
pub use log::EventLog;
pub use network::QueueingNetwork;
