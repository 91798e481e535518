//! Synthetic web-application testbed reproducing the paper's §5.2 system.
//!
//! The paper instruments a Ruby-on-Rails "movie voting" application: 10
//! identical web-server processes behind the `haproxy` load balancer, a
//! MySQL database on a separate machine, and a network queue capturing
//! request/response transmission. Its dataset — 5759 requests whose load
//! increases linearly over 30 minutes, producing 23 036 arrival events
//! (exactly 4 queue visits per request: network → web server → database →
//! network) — is private, so this crate builds a synthetic testbed with
//! the *same published shape*:
//!
//! - the same 12-queue topology and 4-visit request path;
//! - the same request count and ramping workload (sampled exactly, by
//!   inverse-CDF conditioning on the count);
//! - the same load-balancer skew: one web server receives ≈ 19 requests,
//!   so its estimates are unstable — the effect Figure 5 calls out.

pub mod config;
pub mod ramp;
pub mod testbed;

pub use config::WebAppConfig;
pub use testbed::WebAppTestbed;
