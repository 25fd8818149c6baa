//! Fan-out pub-sub broadcast over the transport.
//!
//! A [`Broadcast`] owns a [`Cluster`] and a topic registry. Each
//! [`TopicSpec`] names one publishing node and its subscriber group —
//! the FLIPC paper's endpoint-group idea lifted to node scope: a publish
//! fans out as one transport send per group member. Two delivery
//! contracts are offered per harness:
//!
//! * **At-most-once** ([`DeliveryMode::AtMostOnce`]): a publish is
//!   attempted exactly once per subscriber. Transport backpressure sheds
//!   the message (counted in `dropped`), dead-peer failures lose it
//!   silently; what *does* arrive is still in publish order, because the
//!   transport orders each path within an epoch and sequence numbers are
//!   assigned monotonically.
//! * **Reliable** ([`DeliveryMode::Reliable`]): every publish enters a
//!   per-subscriber outbox and is re-sent (app-level, counted in
//!   `retried`) until the subscriber's cumulative [`WireMsg::PubAck`]
//!   covers it — across loss storms, epoch resets, even subscriber
//!   restarts. Subscribers hold a bounded reorder buffer so retried
//!   messages interleaved with fresh ones on a new epoch still deliver
//!   in seq order, exactly once.
//!
//! The invariants the harness enforces continuously: per
//! `(topic, subscriber)` delivered sequence numbers are strictly
//! monotone (both modes) and gap-free (reliable); at quiesce, reliable
//! mode has delivered *everything* ([`Broadcast::assert_complete`]).

use std::collections::BTreeMap;

use flipc_engine::transport::Transport;
use flipc_net::chaos::Cluster;
use flipc_net::NetConfig;
use flipc_obs::trace::TraceKind;
use flipc_obs::workload::{WorkloadClass, WorkloadSnapshot};

use crate::msg::WireMsg;
use crate::stats::{frame, Counters, LatencyHist, WorkloadTrace, ACK_TIMEOUT, STEP_TICKS, WINDOW};

/// The delivery contract a broadcast harness runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryMode {
    /// One send attempt per subscriber; backpressure sheds.
    AtMostOnce,
    /// Ack-backed publisher outbox; everything eventually delivers.
    Reliable,
}

/// One topic in the registry: its publisher and subscriber group.
#[derive(Clone, Debug)]
pub struct TopicSpec {
    /// Topic identifier (doubles as the endpoint index on the wire).
    pub topic: u16,
    /// The node that publishes on this topic.
    pub publisher: u16,
    /// The subscriber group (node ids, no duplicates).
    pub subscribers: Vec<u16>,
}

/// Publisher-side state for one `(topic, subscriber)` path.
#[derive(Debug)]
struct PubPath {
    subscriber: u16,
    /// Unacked messages: seq → (publish stamp, last send tick or `None`
    /// before the first attempt).
    outbox: BTreeMap<u32, (u64, Option<u64>)>,
    /// Cumulative ack: every seq below this has been delivered.
    acked: u32,
}

/// Subscriber-side state for one `(topic, subscriber)` path.
#[derive(Debug)]
struct SubPath {
    subscriber: u16,
    /// Count of contiguously delivered messages (reliable).
    next_expected: u32,
    /// Out-of-order arrivals awaiting their predecessors (reliable).
    reorder: BTreeMap<u32, u64>,
    /// Highest seq delivered (at-most-once ordering check).
    last_seen: Option<u32>,
    /// Total messages delivered to the application on this path.
    delivered: u64,
    /// Ack to (re-)send when it advances past `acked_sent` (reliable).
    acked_sent: u32,
    latency: LatencyHist,
}

/// One registered topic with its live harness state.
struct Topic {
    spec: TopicSpec,
    next_seq: u32,
    pubs: Vec<PubPath>,
    subs: Vec<SubPath>,
}

/// A deterministic pub-sub broadcast running over live chaos transports.
pub struct Broadcast {
    cluster: Cluster,
    mode: DeliveryMode,
    topics: Vec<Topic>,
    counters: Vec<Counters>,
    violations: Vec<String>,
    trace: WorkloadTrace,
}

impl Broadcast {
    /// Builds a harness over a fresh [`Cluster`] of `nodes` transports,
    /// delivering every topic under `mode`.
    pub fn new(
        nodes: u16,
        net: NetConfig,
        seed: u64,
        mode: DeliveryMode,
        topics: Vec<TopicSpec>,
    ) -> Broadcast {
        let cluster = Cluster::new(nodes, net, seed);
        let topics = topics
            .into_iter()
            .map(|spec| {
                assert!(spec.publisher < nodes, "publisher out of range");
                Topic {
                    pubs: spec
                        .subscribers
                        .iter()
                        .map(|&s| {
                            assert!(s < nodes && s != spec.publisher, "bad subscriber {s}");
                            PubPath {
                                subscriber: s,
                                outbox: BTreeMap::new(),
                                acked: 0,
                            }
                        })
                        .collect(),
                    subs: spec
                        .subscribers
                        .iter()
                        .map(|&s| SubPath {
                            subscriber: s,
                            next_expected: 0,
                            reorder: BTreeMap::new(),
                            last_seen: None,
                            delivered: 0,
                            acked_sent: 0,
                            latency: LatencyHist::default(),
                        })
                        .collect(),
                    spec,
                    next_seq: 0,
                }
            })
            .collect();
        Broadcast {
            cluster,
            mode,
            topics,
            counters: vec![Counters::default(); nodes as usize],
            violations: Vec::new(),
            trace: WorkloadTrace::default(),
        }
    }

    /// The underlying cluster, for fault/partition/crash scripting.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Installs a trace writer; subsequent publishes and deliveries are
    /// recorded as workload-level send/deliver events.
    pub fn install_trace(&mut self, writer: flipc_obs::trace::TraceWriter) {
        self.trace.install(writer);
    }

    /// Publishes one message on `topic` from its registered publisher.
    /// Returns the sequence number assigned.
    pub fn publish(&mut self, topic: u16) -> u32 {
        let now = self.cluster.now();
        let t = self
            .topics
            .iter_mut()
            .find(|t| t.spec.topic == topic)
            .expect("unknown topic");
        let seq = t.next_seq;
        t.next_seq += 1;
        let publisher = t.spec.publisher;
        self.counters[publisher as usize].published += 1;
        self.trace
            .record(now, TraceKind::Send, publisher, topic, seq);
        match self.mode {
            DeliveryMode::Reliable => {
                for p in &mut t.pubs {
                    p.outbox.insert(seq, (now, None));
                }
            }
            DeliveryMode::AtMostOnce => {
                let msg = WireMsg::Publish {
                    topic,
                    publisher,
                    seq,
                    stamp: now,
                };
                for p in &mut t.pubs {
                    let f = frame(publisher, p.subscriber, topic, &msg);
                    let accepted = self
                        .cluster
                        .transport_mut(publisher)
                        .map(|tr| tr.try_send(f.dst.node(), &f))
                        .unwrap_or(false);
                    if !accepted {
                        // Backpressure (or a crashed publisher): shed —
                        // that is the at-most-once contract.
                        self.counters[publisher as usize].dropped += 1;
                    }
                }
            }
        }
        seq
    }

    /// Publishes `count` messages on every registered topic.
    pub fn publish_burst(&mut self, count: u32) {
        let ids: Vec<u16> = self.topics.iter().map(|t| t.spec.topic).collect();
        for _ in 0..count {
            for id in &ids {
                self.publish(*id);
            }
        }
    }

    /// One harness step: flush reliable outboxes and pending acks, pump
    /// every live transport, advance the clock one tick.
    pub fn step(&mut self) {
        if self.mode == DeliveryMode::Reliable {
            self.flush_outboxes();
        }
        self.pump();
        self.cluster.advance(STEP_TICKS);
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Re-sends every outbox entry that never went out or has waited
    /// `ACK_TIMEOUT` ticks without being covered by an ack, up to
    /// `WINDOW` in flight per path.
    fn flush_outboxes(&mut self) {
        let now = self.cluster.now();
        for t in &mut self.topics {
            let (topic, publisher) = (t.spec.topic, t.spec.publisher);
            let Some(tr) = self.cluster.transport_mut(publisher) else {
                continue;
            };
            for p in &mut t.pubs {
                for (&seq, (stamp, last_sent)) in p.outbox.iter_mut().take(WINDOW) {
                    let due = match *last_sent {
                        None => true,
                        Some(at) => now.saturating_sub(at) >= ACK_TIMEOUT,
                    };
                    if !due {
                        continue;
                    }
                    let msg = WireMsg::Publish {
                        topic,
                        publisher,
                        seq,
                        stamp: *stamp,
                    };
                    let f = frame(publisher, p.subscriber, topic, &msg);
                    if tr.try_send(f.dst.node(), &f) {
                        if last_sent.is_some() {
                            self.counters[publisher as usize].retried += 1;
                        }
                        *last_sent = Some(now);
                    } else {
                        // Window backpressure: the whole path waits.
                        break;
                    }
                }
            }
        }
    }

    /// Drains every live node's transport and dispatches workload
    /// messages; then sends any acks that advanced.
    fn pump(&mut self) {
        for node in 0..self.cluster.nodes() {
            while let Some(f) = self
                .cluster
                .transport_mut(node)
                .and_then(|tr| tr.try_recv())
            {
                let Some(msg) = WireMsg::decode(&f.payload) else {
                    continue;
                };
                self.dispatch(node, f.src.node().0, msg);
            }
        }
        self.send_acks();
    }

    /// Handles one decoded message arriving at `node`.
    fn dispatch(&mut self, node: u16, from: u16, msg: WireMsg) {
        let now = self.cluster.now();
        match msg {
            WireMsg::Publish {
                topic,
                publisher,
                seq,
                stamp,
            } => {
                let Some(t) = self.topics.iter_mut().find(|t| t.spec.topic == topic) else {
                    return;
                };
                if publisher != t.spec.publisher {
                    self.violations.push(format!(
                        "t={now} topic {topic}: publish from impostor node {publisher}"
                    ));
                    self.counters[node as usize].violations += 1;
                    return;
                }
                let Some(s) = t.subs.iter_mut().find(|s| s.subscriber == node) else {
                    return;
                };
                match self.mode {
                    DeliveryMode::AtMostOnce => {
                        if let Some(last) = s.last_seen {
                            if seq <= last {
                                self.violations.push(format!(
                                    "t={now} topic {topic} sub {node}: seq {seq} after {last} (order/dup)"
                                ));
                                self.counters[node as usize].violations += 1;
                                return;
                            }
                        }
                        s.last_seen = Some(seq);
                        s.delivered += 1;
                        s.latency.record(now.saturating_sub(stamp));
                        self.counters[node as usize].delivered += 1;
                        self.trace.record(now, TraceKind::Deliver, node, topic, seq);
                    }
                    DeliveryMode::Reliable => {
                        if seq < s.next_expected {
                            // A retry of something already delivered; the
                            // re-ack below refreshes the publisher.
                            s.acked_sent = s.acked_sent.min(s.next_expected.saturating_sub(1));
                            return;
                        }
                        s.reorder.insert(seq, stamp);
                        while let Some(stamp) = s.reorder.remove(&s.next_expected) {
                            let seq = s.next_expected;
                            s.next_expected += 1;
                            s.delivered += 1;
                            s.latency.record(now.saturating_sub(stamp));
                            self.counters[node as usize].delivered += 1;
                            self.trace.record(now, TraceKind::Deliver, node, topic, seq);
                        }
                    }
                }
            }
            WireMsg::PubAck { topic, cum } => {
                let Some(t) = self.topics.iter_mut().find(|t| t.spec.topic == topic) else {
                    return;
                };
                if node != t.spec.publisher {
                    return;
                }
                if let Some(p) = t.pubs.iter_mut().find(|p| p.subscriber == from) {
                    if cum > p.acked {
                        self.counters[node as usize].acked += u64::from(cum - p.acked);
                        p.acked = cum;
                    }
                    p.outbox.retain(|&seq, _| seq >= cum);
                }
            }
            _ => {}
        }
    }

    /// Sends cumulative acks for every reliable path whose delivery
    /// frontier advanced (retrying on backpressure next step).
    fn send_acks(&mut self) {
        if self.mode != DeliveryMode::Reliable {
            return;
        }
        for t in &mut self.topics {
            let (topic, publisher) = (t.spec.topic, t.spec.publisher);
            for s in &mut t.subs {
                if s.next_expected <= s.acked_sent && s.next_expected != 0 {
                    continue;
                }
                if s.next_expected == 0 {
                    continue;
                }
                let msg = WireMsg::PubAck {
                    topic,
                    cum: s.next_expected,
                };
                let f = frame(s.subscriber, publisher, topic, &msg);
                let sent = self
                    .cluster
                    .transport_mut(s.subscriber)
                    .map(|tr| tr.try_send(f.dst.node(), &f))
                    .unwrap_or(false);
                if sent {
                    s.acked_sent = s.next_expected;
                }
            }
        }
    }

    /// Messages delivered on one `(topic, subscriber)` path so far.
    pub fn delivered(&self, topic: u16, subscriber: u16) -> u64 {
        self.topics
            .iter()
            .find(|t| t.spec.topic == topic)
            .and_then(|t| t.subs.iter().find(|s| s.subscriber == subscriber))
            .map(|s| s.delivered)
            .unwrap_or(0)
    }

    /// Invariant breaches observed so far (empty means the contract
    /// held).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total messages still buffered (outboxes + reorder buffers).
    pub fn backlog(&self) -> u64 {
        self.topics
            .iter()
            .map(|t| {
                t.pubs.iter().map(|p| p.outbox.len() as u64).sum::<u64>()
                    + t.subs.iter().map(|s| s.reorder.len() as u64).sum::<u64>()
            })
            .sum()
    }

    /// Reliable-mode completeness check for quiesced harnesses: every
    /// published message delivered on every path, nothing buffered.
    /// Returns violations instead of panicking so chaos tests can attach
    /// the transcript.
    pub fn completeness_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.topics {
            for s in &t.subs {
                if s.next_expected != t.next_seq {
                    out.push(format!(
                        "topic {} sub {}: delivered {}/{} at quiesce",
                        t.spec.topic, s.subscriber, s.next_expected, t.next_seq
                    ));
                }
                if !s.reorder.is_empty() {
                    out.push(format!(
                        "topic {} sub {}: {} messages stuck in reorder buffer",
                        t.spec.topic,
                        s.subscriber,
                        s.reorder.len()
                    ));
                }
            }
            for p in &t.pubs {
                if !p.outbox.is_empty() {
                    out.push(format!(
                        "topic {} sub {}: {} messages unacked at quiesce",
                        t.spec.topic,
                        p.subscriber,
                        p.outbox.len()
                    ));
                }
            }
        }
        out
    }

    /// Panics (with the cluster transcript) unless reliable delivery
    /// completed everywhere.
    pub fn assert_complete(&self) {
        let missing = self.completeness_violations();
        assert!(
            missing.is_empty() && self.violations.is_empty(),
            "broadcast incomplete:\n  {}\n  {}\n--- transcript ---\n{}",
            missing.join("\n  "),
            self.violations.join("\n  "),
            self.cluster.transcript_text(),
        );
    }

    /// Per-node workload snapshots (publisher latency classes live on
    /// the subscriber nodes that measured them).
    pub fn snapshots(&self) -> Vec<WorkloadSnapshot> {
        let mut snaps: Vec<WorkloadSnapshot> = self
            .counters
            .iter()
            .enumerate()
            .map(|(n, c)| c.snapshot("broadcast", n as u16))
            .collect();
        for t in &self.topics {
            for p in &t.pubs {
                snaps[t.spec.publisher as usize].backlog += p.outbox.len() as u64;
            }
            for s in &t.subs {
                let snap = &mut snaps[s.subscriber as usize];
                snap.backlog += s.reorder.len() as u64;
                snap.classes.push(WorkloadClass {
                    class: format!("topic{}", t.spec.topic),
                    latency: s.latency.snapshot(),
                });
            }
        }
        snaps
    }
}
