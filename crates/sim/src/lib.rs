//! # sdflmq-sim — discrete-event simulation substrate
//!
//! The virtual-time machinery behind SDFLMQ's delay experiments:
//!
//! * [`time`] — integer-nanosecond virtual clock;
//! * [`net`] — store-and-forward network with per-link FIFO contention
//!   (the congestion mechanism in the paper's Fig. 8);
//! * [`system`] — per-client memory/CPU models with stochastic drift (the
//!   signal the coordinator's load balancer optimizes over).
//!
//! The threaded MQTT stack (`sdflmq-mqtt`) is used by the functional tests
//! and examples; this crate is used where experiments need *controlled,
//! reproducible* timing instead of wall-clock noise: it substitutes
//! modelled compute and link time for the paper's physical testbed.

#![warn(missing_docs)]

pub mod net;
pub mod system;
pub mod time;

pub use net::{LinkModel, Network, NodeLink};
pub use system::{ClientSystem, SystemSpec, SystemStats};
pub use time::{SimDuration, SimTime};
