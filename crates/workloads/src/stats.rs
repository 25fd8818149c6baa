//! Harness-side counters shared by the three workloads.
//!
//! Workloads count locally with plain integers (the harness is
//! single-threaded and deterministic) and materialize
//! [`flipc_obs::workload::WorkloadSnapshot`]s on demand.

use flipc_core::endpoint::{EndpointAddress, EndpointIndex, FlipcNodeId};
use flipc_core::hist::{bucket_index, HistogramSnapshot, BUCKETS};
use flipc_engine::wire::Frame;
use flipc_obs::trace::{TraceEvent, TraceKind, TraceWriter};
use flipc_obs::workload::WorkloadSnapshot;

use crate::msg::WireMsg;

/// Clock ticks one harness step advances (all three workloads).
pub(crate) const STEP_TICKS: u64 = 25;

/// Ticks without ack progress before a reliable sender (broadcast
/// outbox, log leader) re-sends from its acked frontier.
pub(crate) const ACK_TIMEOUT: u64 = 400;

/// Max unacked messages in flight per reliable path.
pub(crate) const WINDOW: usize = 16;

/// A plain single-writer log₂ latency accumulator.
#[derive(Clone, Debug)]
pub(crate) struct LatencyHist {
    buckets: [u64; BUCKETS],
    sum: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl LatencyHist {
    pub(crate) fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.to_vec(),
            sum: self.sum,
        }
    }
}

/// Per-node workload counters (see [`WorkloadSnapshot`] for meanings).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    pub published: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub retried: u64,
    pub replayed: u64,
    pub acked: u64,
    pub violations: u64,
}

impl Counters {
    /// Builds the obs-side snapshot, leaving `backlog` and `classes` for
    /// the workload to fill.
    pub(crate) fn snapshot(&self, workload: &str, node: u16) -> WorkloadSnapshot {
        let mut s = WorkloadSnapshot::new(workload, node);
        s.published = self.published;
        s.delivered = self.delivered;
        s.dropped = self.dropped;
        s.retried = self.retried;
        s.replayed = self.replayed;
        s.acked = self.acked;
        s.invariant_violations = self.violations;
        s
    }
}

/// Wraps one workload message into a transport frame. The endpoint index
/// carries the workload's sub-address (topic or traffic class), which is
/// how "distinct endpoint groups per class" maps onto the wire.
pub(crate) fn frame(from: u16, to: u16, endpoint: u16, msg: &WireMsg) -> Frame {
    Frame {
        src: EndpointAddress::new(FlipcNodeId(from), EndpointIndex(endpoint), 1),
        dst: EndpointAddress::new(FlipcNodeId(to), EndpointIndex(endpoint), 1),
        payload: msg.encode().into(),
        stamp_ns: 0,
    }
}

/// Optional workload-level trace feed: when a ring is installed, the
/// harness records send/deliver events with the manual clock as the
/// timebase, so `flipc-top`'s timeline and stall analysis see workload
/// activity exactly like engine activity.
#[derive(Default)]
pub(crate) struct WorkloadTrace {
    writer: Option<TraceWriter>,
}

impl WorkloadTrace {
    pub(crate) fn install(&mut self, writer: TraceWriter) {
        self.writer = Some(writer);
    }

    pub(crate) fn record(
        &mut self,
        t_ns: u64,
        kind: TraceKind,
        node: u16,
        endpoint: u16,
        arg: u32,
    ) {
        if let Some(w) = self.writer.as_mut() {
            w.record(TraceEvent {
                t_ns,
                kind,
                node,
                endpoint,
                arg,
            });
        }
    }
}
