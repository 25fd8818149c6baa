//! Distributed workloads on top of the FLIPC transport.
//!
//! The transport stack (`flipc-net`) is verified, instrumented, and
//! chaos-hardened — but a transport is only interesting for what runs on
//! it. This crate builds three composable workloads that exercise the
//! stack the way real systems would, each riding the public transport
//! contract (per-epoch in-order delivery, session epochs, peer
//! lifecycle) and each checkable under seeded chaos:
//!
//! * [`pubsub`] — fan-out **pub-sub broadcast**: a topic registry maps
//!   each topic to its publisher and subscriber group (the library-level
//!   endpoint-group concept from the FLIPC paper, scoped to nodes);
//!   publishes fan out one transport send per subscriber, with
//!   per-subscriber delivery counters and a choice of **at-most-once**
//!   (shed on backpressure, never retried) or **reliable** (ack-backed,
//!   publisher-side outbox with bounded retry) modes.
//! * [`log`] — a kafka-style **replicated ordered log**: a leader
//!   assigns monotonically increasing offsets, replicates over the
//!   reliable path with cumulative follower acks, and serves
//!   **replay-from-offset** fetches so a restarted follower (new session
//!   epoch) catches up from its durable prefix. An invariant module
//!   asserts offset monotonicity, leader/follower prefix agreement, and
//!   the absence of cross-epoch leakage.
//! * [`tiers`] — **priority-tiered delivery**: three traffic
//!   classes mapped to distinct endpoint indexes (one endpoint group per
//!   class) behind a deadline-aware drain policy — strict priority with
//!   a starvation budget — so high-class p99 holds while low-class
//!   traffic saturates the window.
//!
//! Every harness runs over [`flipc_net::chaos::Cluster`]: real
//! [`flipc_net::NetTransport`]s joined by an in-memory hub, seeded fault
//! injectors, and a manual clock. A whole workload run is a pure
//! function of `(seed, call sequence)`, so the chaos tests in
//! `tests/chaos.rs` are replayable counterexample generators, not
//! flakes. Telemetry flows out through
//! [`flipc_obs::workload::WorkloadSnapshot`] (rendered by
//! `flipc_obs::expo::expose_workload` and `flipc-top --workload`) and,
//! when a trace ring is installed, workload-level send/deliver events
//! feed the same timeline and stall machinery as the engine's.

pub mod log;
pub mod msg;
pub mod pubsub;
mod stats;
pub mod tiers;

pub use log::ReplicatedLog;
pub use msg::WireMsg;
pub use pubsub::{Broadcast, DeliveryMode, TopicSpec};
pub use tiers::{Tiered, STARVATION_BUDGET};
