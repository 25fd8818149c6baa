//! A kafka-style replicated ordered log.
//!
//! One leader assigns dense, monotonically increasing offsets to
//! appended entries and replicates them to a follower group over the
//! reliable transport path. Followers apply entries **in offset order
//! only** — an arrival past the durable frontier waits in an in-memory
//! reorder buffer, an arrival behind it is a duplicate and only
//! refreshes the cumulative [`WireMsg::AppendAck`]. The follower's
//! durable log (the harness plays the role of its fsync'd storage)
//! survives crashes; the reorder buffer does not.
//!
//! **Replay-from-offset.** A restarted follower comes back on a fresh
//! session epoch — the transport discards the dead epoch's stragglers,
//! so nothing from before the crash can sneak in — and sends
//! [`WireMsg::Fetch`] with its durable length. The leader rewinds that
//! follower's replication cursor and streams the missing suffix, marking
//! everything that existed before the fetch as `replay` (counted
//! separately, so tests and dashboards can see catch-up traffic).
//!
//! **Invariant module.** [`ReplicatedLog::check_invariants`] asserts,
//! against the omniscient harness view: offset monotonicity (a
//! follower's durable log never shrinks and applies are always at the
//! frontier), leader/follower **prefix agreement** (every durable
//! follower entry equals the leader entry at that offset — a mismatch
//! would mean cross-epoch leakage or corruption slipped through), and
//! replay equivalence (a caught-up follower's log *is* the leader
//! prefix). Violations are collected, not panicked, so chaos tests can
//! attach the transcript.

use std::collections::BTreeMap;

use flipc_engine::transport::Transport;
use flipc_net::chaos::Cluster;
use flipc_net::NetConfig;
use flipc_obs::trace::TraceKind;
use flipc_obs::workload::{WorkloadClass, WorkloadSnapshot};

use crate::msg::WireMsg;
use crate::stats::{frame, Counters, LatencyHist, WorkloadTrace, ACK_TIMEOUT, STEP_TICKS, WINDOW};

/// Leader-side replication cursor for one follower.
#[derive(Debug)]
struct LeaderPath {
    node: u16,
    /// Cumulative ack: the follower's durable length.
    acked: u64,
    /// Next offset to stream.
    cursor: u64,
    /// Tick of the last ack progress (go-back timer).
    last_progress: u64,
    /// Offsets below this answer a fetch → marked `replay`.
    replay_until: u64,
}

/// Follower-side state (durable parts survive crashes).
#[derive(Debug)]
struct FollowerState {
    node: u16,
    /// The durable applied log — survives crashes.
    durable: Vec<u32>,
    /// In-memory reorder buffer: offset → (value, stamp, replay) —
    /// cleared on crash.
    reorder: BTreeMap<u64, (u32, u64, bool)>,
    /// `true` between a restart and the first post-restart arrival:
    /// keep sending [`WireMsg::Fetch`] until the leader responds.
    fetching: bool,
    /// Durable length already announced to the leader.
    acked_sent: u64,
    /// Largest durable length ever observed (monotonicity check).
    high_water: u64,
    latency: LatencyHist,
}

/// A deterministic replicated ordered log over live chaos transports.
///
/// Node layout: `leader` plus `followers`, all members of one
/// [`Cluster`].
pub struct ReplicatedLog {
    cluster: Cluster,
    leader: u16,
    /// The leader's authoritative log: `(value, append stamp)`.
    log: Vec<(u32, u64)>,
    paths: Vec<LeaderPath>,
    followers: Vec<FollowerState>,
    counters: Vec<Counters>,
    violations: Vec<String>,
    trace: WorkloadTrace,
}

impl ReplicatedLog {
    /// Builds a log over a fresh cluster: node 0 leads, nodes
    /// `1..nodes` follow.
    pub fn new(nodes: u16, net: NetConfig, seed: u64) -> ReplicatedLog {
        assert!(nodes >= 2, "a replicated log needs a leader and a follower");
        let cluster = Cluster::new(nodes, net, seed);
        ReplicatedLog {
            cluster,
            leader: 0,
            log: Vec::new(),
            paths: (1..nodes)
                .map(|n| LeaderPath {
                    node: n,
                    acked: 0,
                    cursor: 0,
                    last_progress: 0,
                    replay_until: 0,
                })
                .collect(),
            followers: (1..nodes)
                .map(|n| FollowerState {
                    node: n,
                    durable: Vec::new(),
                    reorder: BTreeMap::new(),
                    fetching: false,
                    acked_sent: 0,
                    high_water: 0,
                    latency: LatencyHist::default(),
                })
                .collect(),
            counters: vec![Counters::default(); nodes as usize],
            violations: Vec::new(),
            trace: WorkloadTrace::default(),
        }
    }

    /// The underlying cluster, for fault/partition scripting.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Installs a trace writer for workload-level send/deliver events.
    pub fn install_trace(&mut self, writer: flipc_obs::trace::TraceWriter) {
        self.trace.install(writer);
    }

    /// Appends one entry at the leader; returns its offset.
    pub fn append(&mut self, value: u32) -> u64 {
        let offset = self.log.len() as u64;
        self.log.push((value, self.cluster.now()));
        self.counters[self.leader as usize].published += 1;
        self.trace
            .record(self.cluster.now(), TraceKind::Send, self.leader, 0, value);
        offset
    }

    /// Crashes a follower: its transport dies and its in-memory reorder
    /// buffer is lost; the durable log survives.
    pub fn crash_follower(&mut self, node: u16) {
        self.cluster.crash(node);
        if let Some(f) = self.followers.iter_mut().find(|f| f.node == node) {
            f.reorder.clear();
        }
    }

    /// Restarts a crashed follower. It boots on a new session epoch and
    /// starts fetching from its durable frontier.
    pub fn restart_follower(&mut self, node: u16) {
        if !self.cluster.restart(node) {
            return;
        }
        if let Some(f) = self.followers.iter_mut().find(|f| f.node == node) {
            f.fetching = true;
            // The announced frontier may predate the crash; re-announce.
            f.acked_sent = 0;
        }
    }

    /// One harness step: leader streams, everyone pumps, clock advances.
    pub fn step(&mut self) {
        self.replicate();
        self.pump();
        self.cluster.advance(STEP_TICKS);
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Leader side: rewind stalled cursors, then stream the window.
    fn replicate(&mut self) {
        let now = self.cluster.now();
        let leader = self.leader;
        let log_len = self.log.len() as u64;
        if self.cluster.transport(leader).is_none() {
            return;
        }
        for p in &mut self.paths {
            // Go-back: no ack progress for a full timeout with entries
            // in flight means the path lost something (epoch reset,
            // dead declaration) — rewind to the acked frontier.
            if p.cursor > p.acked && now.saturating_sub(p.last_progress) >= ACK_TIMEOUT {
                let refired = p.cursor - p.acked;
                p.cursor = p.acked;
                p.last_progress = now;
                self.counters[leader as usize].retried += refired;
            }
            while p.cursor < log_len && p.cursor.saturating_sub(p.acked) < WINDOW as u64 {
                let offset = p.cursor;
                let (value, stamp) = self.log[offset as usize];
                let msg = WireMsg::Append {
                    offset,
                    value,
                    stamp,
                    replay: offset < p.replay_until,
                };
                let f = frame(leader, p.node, 0, &msg);
                let sent = self
                    .cluster
                    .transport_mut(leader)
                    .map(|tr| tr.try_send(f.dst.node(), &f))
                    .unwrap_or(false);
                if !sent {
                    break;
                }
                p.cursor += 1;
            }
        }
    }

    /// Drains every live node's transport and dispatches.
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
        self.follower_maintenance();
    }

    /// Handles one decoded message arriving at `node`.
    fn dispatch(&mut self, node: u16, from: u16, msg: WireMsg) {
        let now = self.cluster.now();
        match msg {
            WireMsg::Append {
                offset,
                value,
                stamp,
                replay,
            } => {
                if from != self.leader {
                    return;
                }
                let Some(f) = self.followers.iter_mut().find(|f| f.node == node) else {
                    return;
                };
                f.fetching = false;
                let frontier = f.durable.len() as u64;
                if offset < frontier {
                    // Duplicate of something durable: verify agreement —
                    // a differing value here is cross-epoch leakage.
                    if f.durable[offset as usize] != value {
                        self.violations.push(format!(
                            "t={now} follower {node}: duplicate offset {offset} carries {value}, durable has {}",
                            f.durable[offset as usize]
                        ));
                        self.counters[node as usize].violations += 1;
                    }
                    f.acked_sent = 0; // force a re-ack
                    return;
                }
                f.reorder.insert(offset, (value, stamp, replay));
                // Apply the contiguous run at the frontier.
                while let Some((value, stamp, replay)) = f.reorder.remove(&(f.durable.len() as u64))
                {
                    let applied_at = f.durable.len() as u64;
                    f.durable.push(value);
                    f.high_water = f.high_water.max(f.durable.len() as u64);
                    f.latency.record(now.saturating_sub(stamp));
                    self.counters[node as usize].delivered += 1;
                    if replay {
                        self.counters[node as usize].replayed += 1;
                    }
                    self.trace
                        .record(now, TraceKind::Deliver, node, 0, applied_at as u32);
                }
            }
            WireMsg::AppendAck { durable } => {
                if node != self.leader {
                    return;
                }
                if let Some(p) = self.paths.iter_mut().find(|p| p.node == from) {
                    if durable > p.acked {
                        self.counters[node as usize].acked += durable - p.acked;
                        p.acked = durable;
                        // A late ack can land after a go-back rewind;
                        // never re-stream what is already durable.
                        p.cursor = p.cursor.max(durable);
                        p.last_progress = now;
                    }
                }
            }
            WireMsg::Fetch { from: fetch_from } => {
                if node != self.leader {
                    return;
                }
                if let Some(p) = self.paths.iter_mut().find(|p| p.node == from) {
                    // The follower's durable length is authoritative:
                    // rewind and mark everything already appended as
                    // replay traffic.
                    p.acked = fetch_from;
                    p.cursor = fetch_from;
                    p.last_progress = now;
                    p.replay_until = self.log.len() as u64;
                }
            }
            _ => {}
        }
    }

    /// Follower housekeeping: announce ack progress, keep fetching
    /// after a restart until the leader responds.
    fn follower_maintenance(&mut self) {
        let leader = self.leader;
        for f in &mut self.followers {
            let frontier = f.durable.len() as u64;
            if f.fetching {
                let msg = WireMsg::Fetch { from: frontier };
                let fr = frame(f.node, leader, 0, &msg);
                let _ = self
                    .cluster
                    .transport_mut(f.node)
                    .map(|tr| tr.try_send(fr.dst.node(), &fr));
                continue;
            }
            if frontier > f.acked_sent {
                let msg = WireMsg::AppendAck { durable: frontier };
                let fr = frame(f.node, leader, 0, &msg);
                let sent = self
                    .cluster
                    .transport_mut(f.node)
                    .map(|tr| tr.try_send(fr.dst.node(), &fr))
                    .unwrap_or(false);
                if sent {
                    f.acked_sent = frontier;
                }
            }
        }
    }

    /// The leader's current log length.
    pub fn leader_len(&self) -> u64 {
        self.log.len() as u64
    }

    /// One follower's durable log length.
    pub fn follower_len(&self, node: u16) -> u64 {
        self.followers
            .iter()
            .find(|f| f.node == node)
            .map(|f| f.durable.len() as u64)
            .unwrap_or(0)
    }

    /// Entries re-delivered to `node` through replay.
    pub fn replayed(&self, node: u16) -> u64 {
        self.counters
            .get(node as usize)
            .map(|c| c.replayed)
            .unwrap_or(0)
    }

    /// The committed frontier: entries durable on *every* follower.
    pub fn committed(&self) -> u64 {
        self.followers
            .iter()
            .map(|f| f.durable.len() as u64)
            .min()
            .unwrap_or(0)
    }

    /// Invariant breaches observed during dispatch so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Runs the invariant module: offset monotonicity, leader/follower
    /// prefix agreement, no cross-epoch leakage. Returns all breaches
    /// found (the dispatch-time ones included).
    pub fn check_invariants(&mut self) -> Vec<String> {
        let mut out = self.violations.clone();
        for f in &self.followers {
            let len = f.durable.len() as u64;
            if len < f.high_water {
                out.push(format!(
                    "follower {}: durable log shrank ({} < high water {})",
                    f.node, len, f.high_water
                ));
            }
            if len > self.log.len() as u64 {
                out.push(format!(
                    "follower {}: durable log longer than the leader's ({} > {})",
                    f.node,
                    len,
                    self.log.len()
                ));
                continue;
            }
            for (i, &v) in f.durable.iter().enumerate() {
                if self.log[i].0 != v {
                    out.push(format!(
                        "follower {}: offset {i} holds {v}, leader holds {} (prefix disagreement)",
                        f.node, self.log[i].0
                    ));
                }
            }
        }
        out
    }

    /// Panics (with the cluster transcript) unless every follower's
    /// durable log equals the leader's and all invariants held.
    pub fn assert_caught_up(&mut self) {
        let mut problems = self.check_invariants();
        let leader_len = self.log.len() as u64;
        for f in &self.followers {
            if f.durable.len() as u64 != leader_len {
                problems.push(format!(
                    "follower {}: {}/{} entries at quiesce",
                    f.node,
                    f.durable.len(),
                    leader_len
                ));
            }
        }
        assert!(
            problems.is_empty(),
            "replicated log failed:\n  {}\n--- transcript ---\n{}",
            problems.join("\n  "),
            self.cluster.transcript_text(),
        );
    }

    /// Per-node workload snapshots.
    pub fn snapshots(&self) -> Vec<WorkloadSnapshot> {
        let mut snaps: Vec<WorkloadSnapshot> = self
            .counters
            .iter()
            .enumerate()
            .map(|(n, c)| c.snapshot("log", n as u16))
            .collect();
        let leader_len = self.log.len() as u64;
        for (p, f) in self.paths.iter().zip(&self.followers) {
            snaps[self.leader as usize].backlog += leader_len - p.acked.min(leader_len);
            let snap = &mut snaps[f.node as usize];
            snap.backlog += f.reorder.len() as u64;
            snap.classes.push(WorkloadClass {
                class: "append".to_string(),
                latency: f.latency.snapshot(),
            });
        }
        snaps
    }
}
