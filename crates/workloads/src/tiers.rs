//! Priority-tiered delivery with a deadline-aware drain policy.
//!
//! Three traffic classes (class 0 highest) are mapped to
//! **distinct endpoint indexes** — one endpoint group per class on the
//! wire — between one sender and one receiver. The sender holds a queue
//! per class and [`TieredDispatcher`]-drains them into the shared
//! transport window under a **strict-priority with starvation budget**
//! policy, motivated by the channel-prioritization pub-sub literature:
//!
//! * **Strict priority**: the highest-priority backlogged class sends
//!   first, so high-class latency is bounded by the transport window,
//!   not by low-class backlog depth.
//! * **Starvation budget**: after [`STARVATION_BUDGET`] consecutive
//!   higher-class sends while lower classes wait, one lower-class
//!   message is served — saturation at a high tier cannot starve bulk
//!   traffic forever.
//! * **Deadline shedding**: classes with a shedding deadline drop queued
//!   messages older than it instead of wasting window on them (counted
//!   in `dropped`); the real-time tier keeps everything and relies on
//!   priority.
//!
//! The invariant the chaos test pins down: under seeded loss with the
//! low class saturating the link, every high-class message still
//! delivers, in order, with a p99 that holds — while the low class keeps
//! making progress (no starvation).

use std::collections::VecDeque;

use flipc_engine::transport::Transport;
use flipc_net::chaos::Cluster;
use flipc_net::NetConfig;
use flipc_obs::trace::TraceKind;
use flipc_obs::workload::{WorkloadClass, WorkloadSnapshot};

use crate::msg::WireMsg;
use crate::stats::{frame, Counters, LatencyHist, WorkloadTrace, STEP_TICKS};

/// Consecutive higher-class sends (while lower classes wait) before one
/// lower-class message is served.
pub const STARVATION_BUDGET: u32 = 8;

/// Max messages drained per step (paces the dispatcher).
const BURST: usize = 32;

/// One traffic class.
struct TierClass {
    /// Stable class label (exposition and reports).
    name: &'static str,
    /// Ticks a queued message may wait before it is shed instead of sent;
    /// `None` keeps everything (the real-time tier).
    shed_after: Option<u64>,
}

/// The classes, index 0 highest priority. The bulk deadline is short
/// enough that a saturating bulk offer expires within a few thousand
/// ticks instead of queueing without bound.
const CLASSES: [TierClass; 3] = [
    TierClass {
        name: "high",
        shed_after: None,
    },
    TierClass {
        name: "mid",
        shed_after: Some(10_000),
    },
    TierClass {
        name: "bulk",
        shed_after: Some(3_000),
    },
];

/// Sender-side queue for one class.
#[derive(Debug, Default)]
struct ClassQueue {
    /// Queued `(seq, enqueue tick)` pairs.
    q: VecDeque<(u32, u64)>,
    next_seq: u32,
    shed: u64,
}

/// Receiver-side state for one class.
#[derive(Debug, Default)]
struct ClassSink {
    last_seen: Option<u32>,
    delivered: u64,
    latency: LatencyHist,
}

/// The drain policy's mutable cursor: how many consecutive
/// higher-priority sends have happened while lower classes waited.
#[derive(Debug, Default)]
struct TieredDispatcher {
    streak: u32,
}

impl TieredDispatcher {
    /// Picks the class to serve next: the highest-priority backlogged
    /// class, unless the starvation budget is spent and a lower class
    /// waits — then the topmost waiting lower class.
    fn pick(&mut self, queues: &[ClassQueue]) -> Option<usize> {
        let top = queues.iter().position(|c| !c.q.is_empty())?;
        let lower = queues
            .iter()
            .skip(top + 1)
            .position(|c| !c.q.is_empty())
            .map(|i| top + 1 + i);
        match lower {
            Some(low) if self.streak >= STARVATION_BUDGET => {
                self.streak = 0;
                Some(low)
            }
            Some(_) => {
                self.streak += 1;
                Some(top)
            }
            None => {
                self.streak = 0;
                Some(top)
            }
        }
    }
}

/// A deterministic two-node tiered-delivery harness (node 0 sends,
/// node 1 receives).
pub struct Tiered {
    cluster: Cluster,
    queues: [ClassQueue; CLASSES.len()],
    sinks: [ClassSink; CLASSES.len()],
    dispatcher: TieredDispatcher,
    counters: Vec<Counters>,
    violations: Vec<String>,
    trace: WorkloadTrace,
}

const SENDER: u16 = 0;
const RECEIVER: u16 = 1;

impl Tiered {
    /// Builds a harness over a fresh two-node cluster.
    pub fn new(net: NetConfig, seed: u64) -> Tiered {
        Tiered {
            cluster: Cluster::new(2, net, seed),
            queues: Default::default(),
            sinks: Default::default(),
            dispatcher: TieredDispatcher::default(),
            counters: vec![Counters::default(); 2],
            violations: Vec::new(),
            trace: WorkloadTrace::default(),
        }
    }

    /// The underlying cluster, for fault scripting.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Installs a trace writer for workload-level send/deliver events.
    pub fn install_trace(&mut self, writer: flipc_obs::trace::TraceWriter) {
        self.trace.install(writer);
    }

    /// Enqueues `count` messages in `class`.
    pub fn offer(&mut self, class: usize, count: u32) {
        let now = self.cluster.now();
        let q = &mut self.queues[class];
        for _ in 0..count {
            q.q.push_back((q.next_seq, now));
            q.next_seq += 1;
            self.counters[SENDER as usize].published += 1;
        }
    }

    /// One harness step: shed expired, drain by priority, pump both
    /// transports, advance the clock.
    pub fn step(&mut self) {
        self.drain();
        self.pump();
        self.cluster.advance(STEP_TICKS);
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The dispatcher's drain loop — the workload hot path registered
    /// with `flipc-analyzer`.
    fn drain(&mut self) {
        let now = self.cluster.now();
        // Deadline shedding first, so expired bulk never eats window.
        for (q, class) in self.queues.iter_mut().zip(&CLASSES) {
            let Some(deadline) = class.shed_after else {
                continue;
            };
            while let Some(&(_, enq)) = q.q.front() {
                if now.saturating_sub(enq) < deadline {
                    break;
                }
                q.q.pop_front();
                q.shed += 1;
                self.counters[SENDER as usize].dropped += 1;
            }
        }
        for _ in 0..BURST {
            let Some(class) = self.dispatcher.pick(&self.queues) else {
                break;
            };
            let Some(&(seq, enq)) = self.queues[class].q.front() else {
                break;
            };
            let msg = WireMsg::Tiered {
                class: class as u8,
                seq,
                stamp: enq,
            };
            let f = frame(SENDER, RECEIVER, class as u16, &msg);
            let sent = self
                .cluster
                .transport_mut(SENDER)
                .map(|tr| tr.try_send(f.dst.node(), &f))
                .unwrap_or(false);
            if !sent {
                // The transport refuses only when the shared (credit-
                // clamped) window is full, which blocks every class
                // alike: the burst is over.
                break;
            }
            self.queues[class].q.pop_front();
            self.trace
                .record(now, TraceKind::Send, SENDER, class as u16, seq);
        }
    }

    /// Drains both transports; the receiver dispatches per class.
    fn pump(&mut self) {
        for node in [SENDER, RECEIVER] {
            while let Some(f) = self
                .cluster
                .transport_mut(node)
                .and_then(|tr| tr.try_recv())
            {
                if node != RECEIVER {
                    continue;
                }
                let Some(WireMsg::Tiered { class, seq, stamp }) = WireMsg::decode(&f.payload)
                else {
                    continue;
                };
                let now = self.cluster.now();
                let Some(sink) = self.sinks.get_mut(class as usize) else {
                    continue;
                };
                if let Some(last) = sink.last_seen {
                    if seq <= last {
                        self.violations.push(format!(
                            "t={now} class {class}: seq {seq} after {last} (order/dup)"
                        ));
                        self.counters[RECEIVER as usize].violations += 1;
                        continue;
                    }
                }
                sink.last_seen = Some(seq);
                sink.delivered += 1;
                sink.latency.record(now.saturating_sub(stamp));
                self.counters[RECEIVER as usize].delivered += 1;
                self.trace
                    .record(now, TraceKind::Deliver, RECEIVER, u16::from(class), seq);
            }
        }
    }

    /// Messages delivered in one class so far.
    pub fn delivered(&self, class: usize) -> u64 {
        self.sinks.get(class).map(|s| s.delivered).unwrap_or(0)
    }

    /// Messages shed by the deadline policy in one class.
    pub fn shed(&self, class: usize) -> u64 {
        self.queues.get(class).map(|q| q.shed).unwrap_or(0)
    }

    /// Messages still queued in one class.
    pub fn queued(&self, class: usize) -> u64 {
        self.queues
            .get(class)
            .map(|q| q.q.len() as u64)
            .unwrap_or(0)
    }

    /// The p-quantile of one class's delivery latency, in ticks.
    pub fn latency_quantile(&self, class: usize, q: f64) -> Option<f64> {
        self.sinks.get(class)?.latency.snapshot().quantile(q)
    }

    /// Invariant breaches observed so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The cluster transcript, for failure artifacts.
    pub fn transcript_text(&self) -> String {
        self.cluster.transcript_text()
    }

    /// Per-node workload snapshots: the sender reports queue backlog,
    /// the receiver reports per-class latency.
    pub fn snapshots(&self) -> Vec<WorkloadSnapshot> {
        let mut snaps: Vec<WorkloadSnapshot> = self
            .counters
            .iter()
            .enumerate()
            .map(|(n, c)| c.snapshot("tiers", n as u16))
            .collect();
        snaps[SENDER as usize].backlog = self.queues.iter().map(|q| q.q.len() as u64).sum();
        for (sink, class) in self.sinks.iter().zip(&CLASSES) {
            snaps[RECEIVER as usize].classes.push(WorkloadClass {
                class: class.name.to_string(),
                latency: sink.latency.snapshot(),
            });
        }
        snaps
    }
}
