//! The three workloads, their message generator and the receiving app's
//! checks.
//!
//! Every message carries its flow's sequence number (bytes 0..8), the flow
//! id (byte 8) and seeded bytes derived from (seed, flow, sequence) in the
//! rest of the payload. The receiving app checks all three, so a lost,
//! reordered, duplicated or corrupted message is a mismatch. A refused
//! send (ring full) is backpressure: the generator keeps the message and
//! offers it again on the next step; it is never a failure.
//!
//! Each workload is a closed or open loop over one [`Pair`], advanced by
//! [`Workload::step`]: one harness step is the apps' calls plus one
//! `Engine::iterate` of each node, source first.

use std::collections::VecDeque;
use std::time::Instant;

use flipc_core::api::LocalEndpoint;
use flipc_core::buffer::BufferToken;
use flipc_core::endpoint::{EndpointAddress, EndpointType, Importance};

use crate::pair::{Node, Pair};
use crate::stats::{Histogram, SplitMix64};

/// Nanoseconds since the start of the run.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock reading zero now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Send stamps kept per flow: more than any flow can have in flight
/// (send ring 32 + net window 64 + receive ring 32).
const STAMPS: usize = 4096;

/// Flow id of the set-up probe message.
const PROBE_FLOW: u8 = 0xFF;

/// The seeded bytes of message `seq` on `flow`.
fn filler(seed: u64, flow: u8, seq: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ (u64::from(flow) << 56) ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Writes message `seq` of `flow` into `buf`.
fn fill(buf: &mut [u8], seed: u64, flow: u8, seq: u64) {
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    buf[8] = flow;
    let mut rng = filler(seed, flow, seq);
    for chunk in buf[9..].chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// The sequence number a payload claims.
fn seq_of(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[..8].try_into().expect("payloads exceed 8 bytes"))
}

/// True when `buf` is exactly message `seq` of `flow`.
fn intact(buf: &[u8], seed: u64, flow: u8, seq: u64) -> bool {
    if seq_of(buf) != seq || buf[8] != flow {
        return false;
    }
    let mut rng = filler(seed, flow, seq);
    buf[9..].chunks(8).all(|chunk| {
        let w = rng.next_u64().to_le_bytes();
        chunk == &w[..chunk.len()]
    })
}

/// One ordered stream of messages from one send endpoint to one receive
/// endpoint: the sender's stamps and the receiver's checks.
pub struct Flow {
    id: u8,
    seed: u64,
    /// Messages accepted by `send_unlocked` (the next sequence number).
    pub sent: u64,
    /// The sequence number the receiver expects next.
    next_recv: u64,
    /// Messages delivered and verified.
    pub ok: u64,
    /// Messages delivered out of order or corrupted.
    pub mismatches: u64,
    /// The first mismatch, described.
    pub first_error: Option<String>,
    /// Verified deliveries while the measured window was open.
    pub window_ok: u64,
    /// Send time of each in-flight sequence number.
    stamps: Vec<u64>,
}

impl Flow {
    fn new(id: u8, seed: u64) -> Flow {
        Flow {
            id,
            seed,
            sent: 0,
            next_recv: 0,
            ok: 0,
            mismatches: 0,
            first_error: None,
            window_ok: 0,
            stamps: vec![0; STAMPS],
        }
    }

    /// Messages sent and not yet delivered (or written off as lost).
    fn in_flight(&self) -> u64 {
        self.sent - self.next_recv
    }

    /// Checks one delivered payload; returns its stamp when it verifies.
    fn check(&mut self, buf: &[u8], in_window: bool) -> Option<u64> {
        let seq = seq_of(buf);
        if intact(buf, self.seed, self.id, self.next_recv) {
            self.next_recv += 1;
            self.ok += 1;
            if in_window {
                self.window_ok += 1;
            }
            return Some(self.stamps[seq as usize % STAMPS]);
        }
        self.mismatches += 1;
        if self.first_error.is_none() {
            self.first_error = Some(format!(
                "flow {}: expected message {}, got one claiming flow {} sequence {}{}",
                self.id,
                self.next_recv,
                buf[8],
                seq,
                if buf[8] == self.id && seq == self.next_recv {
                    " with corrupted payload"
                } else {
                    ""
                }
            ));
        }
        // Resynchronise past a gap so one loss is one failure, not many.
        if buf[8] == self.id && seq >= self.next_recv && seq < self.sent {
            self.next_recv = seq + 1;
        }
        None
    }
}

/// Posts receive buffers on `rx` until its ring is full.
fn post_all<const T: bool>(node: &Node<T>, rx: &LocalEndpoint) {
    loop {
        let token = node.alloc();
        if let Err(token) = node.provide(rx, token) {
            node.free(token);
            return;
        }
    }
}

/// Hands every transmitted send buffer on `tx` back to the pool.
fn reclaim_all<const T: bool>(node: &Node<T>, tx: &LocalEndpoint) {
    while let Some(token) = node.reclaim(tx) {
        node.free(token);
    }
}

/// Receives everything delivered on `rx`, checks it against `flow`,
/// records latency against the stamps into `lat` (if given) while the
/// window is open, and posts each buffer back. True if anything arrived.
fn receive<const T: bool>(
    node: &Node<T>,
    rx: &LocalEndpoint,
    flow: &mut Flow,
    clock: &Clock,
    lat: Option<&mut Histogram>,
    in_window: bool,
) -> bool {
    let mut got = false;
    let mut lat = lat.filter(|_| in_window);
    while let Some(r) = node.recv(rx) {
        let t1 = clock.now();
        got = true;
        if let Some(stamp) = flow.check(node.payload(&r.token), in_window) {
            if let Some(h) = lat.as_deref_mut() {
                h.record(t1.saturating_sub(stamp));
            }
        }
        if let Err(token) = node.provide(rx, r.token) {
            node.free(token);
        }
    }
    got
}

/// A sender that keeps its send ring full. The message a full ring
/// refused is held and offered again next step.
struct Saturating {
    tx: LocalEndpoint,
    dst: EndpointAddress,
    held: Option<BufferToken>,
}

impl Saturating {
    /// Reclaims transmitted buffers, then sends until the ring refuses.
    fn refill<const T: bool>(&mut self, node: &Node<T>, flow: &mut Flow, clock: &Clock) {
        reclaim_all(node, &self.tx);
        while flow.in_flight() < (STAMPS - 1) as u64 {
            let token = self.held.take().unwrap_or_else(|| {
                let mut t = node.alloc();
                fill(node.payload_mut(&mut t), flow.seed, flow.id, flow.sent);
                t
            });
            flow.stamps[flow.sent as usize % STAMPS] = clock.now();
            match node.send(&self.tx, token, self.dst) {
                Ok(()) => flow.sent += 1,
                Err(token) => {
                    self.held = Some(token);
                    return;
                }
            }
        }
    }

    /// Returns a held buffer to the pool at the end of the run.
    fn release<const T: bool>(&mut self, node: &Node<T>) {
        if let Some(token) = self.held.take() {
            node.free(token);
        }
    }
}

/// What a workload measured over its window.
pub struct Measured<'a> {
    /// Latency samples (ns), from the app's send call until the
    /// receiving app's `recv_unlocked` returns the message.
    pub latency: &'a Histogram,
    /// Messages `throughput_msgs_per_s` counts in the window.
    pub throughput_msgs: u64,
    /// Verified deliveries of every flow inside the window.
    pub delivered: u64,
    /// How late the open-loop generator sent each message (ns): from its
    /// due time to the accepted send call, if the workload has one.
    pub generator_lag: Option<&'a Histogram>,
}

/// A workload: endpoints on a pair, a generator and the receiving checks.
pub trait Workload {
    /// Message size in bytes, header included.
    const MSG_SIZE: u32;

    /// True when throughput, not latency, is the number the workload is
    /// built around (it is what `harness.trace_overhead_ratio` compares).
    const HEADLINE_IS_THROUGHPUT: bool;

    /// Allocates endpoints on a fresh pair and posts receive buffers.
    fn new<const T: bool>(pair: &Pair<T>, seed: u64) -> Self;

    /// The send endpoint on `a` and the receive endpoint on `b` that the
    /// set-up probe crosses, with the latter's address.
    fn probe_route(&self) -> (&LocalEndpoint, &LocalEndpoint, EndpointAddress);

    /// One harness step. `generate` is false during the final drain.
    fn step<const T: bool>(&mut self, pair: &mut Pair<T>, clock: &Clock, generate: bool);

    /// Opens (true) or closes (false) the measured window; opening clears
    /// the window's samples.
    fn set_window(&mut self, open: bool);

    /// True when nothing offered is still pending.
    fn settled(&self) -> bool;

    /// The flows, for accounting.
    fn flows(&self) -> Vec<&Flow>;

    /// Messages offered that were never sent (the generator's backlog).
    fn unsent(&self) -> u64 {
        0
    }

    /// The window's measurements.
    fn measured(&self) -> Measured<'_>;

    /// Receiver drops seen on the pair's receive endpoints, and returns
    /// any buffer the app still holds.
    fn finish<const T: bool>(&mut self, pair: &Pair<T>) -> u64;
}

/// Sends one probe message across `w`'s probe route and steps both
/// engines until it is delivered; false if it never arrives or fails its
/// check.
pub fn probe<const T: bool, W: Workload>(pair: &mut Pair<T>, w: &W, seed: u64, n: u64) -> bool {
    let (tx, rx, dst) = w.probe_route();
    let mut token = pair.a.alloc();
    fill(pair.a.payload_mut(&mut token), seed, PROBE_FLOW, n);
    if pair.a.send(tx, token, dst).is_err() {
        return false;
    }
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    while Instant::now() < deadline {
        pair.a.iterate();
        pair.b.iterate();
        if let Some(r) = pair.b.recv(rx) {
            let ok = intact(pair.b.payload(&r.token), seed, PROBE_FLOW, n);
            if let Err(token) = pair.b.provide(rx, r.token) {
                pair.b.free(token);
            }
            reclaim_all(&pair.a, tx);
            return ok;
        }
    }
    false
}

/// `pingpong-64`: one message outstanding, alternating direction.
pub struct PingPong {
    a_tx: LocalEndpoint,
    a_rx: LocalEndpoint,
    b_tx: LocalEndpoint,
    b_rx: LocalEndpoint,
    to_a: EndpointAddress,
    to_b: EndpointAddress,
    /// Flow 0 runs a→b, flow 1 b→a.
    flows: [Flow; 2],
    /// Direction of the next (or outstanding) message: 0 a→b, 1 b→a.
    dir: usize,
    outstanding: bool,
    in_window: bool,
    latency: Histogram,
}

impl Workload for PingPong {
    const MSG_SIZE: u32 = 64;
    const HEADLINE_IS_THROUGHPUT: bool = false;

    fn new<const T: bool>(pair: &Pair<T>, seed: u64) -> Self {
        let a_tx = pair.a.endpoint(EndpointType::Send, Importance::Normal);
        let a_rx = pair.a.endpoint(EndpointType::Receive, Importance::Normal);
        let b_tx = pair.b.endpoint(EndpointType::Send, Importance::Normal);
        let b_rx = pair.b.endpoint(EndpointType::Receive, Importance::Normal);
        post_all(&pair.a, &a_rx);
        post_all(&pair.b, &b_rx);
        PingPong {
            to_a: pair.a.address(&a_rx),
            to_b: pair.b.address(&b_rx),
            a_tx,
            a_rx,
            b_tx,
            b_rx,
            flows: [Flow::new(0, seed), Flow::new(1, seed)],
            dir: 0,
            outstanding: false,
            in_window: false,
            latency: Histogram::default(),
        }
    }

    fn probe_route(&self) -> (&LocalEndpoint, &LocalEndpoint, EndpointAddress) {
        (&self.a_tx, &self.b_rx, self.to_b)
    }

    fn step<const T: bool>(&mut self, pair: &mut Pair<T>, clock: &Clock, generate: bool) {
        let (src, dst, tx, rx, to) = if self.dir == 0 {
            (&mut pair.a, &mut pair.b, &self.a_tx, &self.b_rx, self.to_b)
        } else {
            (&mut pair.b, &mut pair.a, &self.b_tx, &self.a_rx, self.to_a)
        };
        let flow = &mut self.flows[self.dir];
        if !self.outstanding && generate {
            let mut token = src.alloc();
            fill(src.payload_mut(&mut token), flow.seed, flow.id, flow.sent);
            flow.stamps[flow.sent as usize % STAMPS] = clock.now();
            // The ring is empty with one message outstanding, so the send
            // cannot be refused.
            src.send(tx, token, to)
                .expect("an empty send ring accepts a message");
            flow.sent += 1;
            self.outstanding = true;
        }
        src.iterate();
        dst.iterate();
        if self.outstanding
            && receive(
                dst,
                rx,
                flow,
                clock,
                Some(&mut self.latency),
                self.in_window,
            )
        {
            reclaim_all(src, tx);
            self.outstanding = false;
            self.dir ^= 1;
        }
    }

    fn set_window(&mut self, open: bool) {
        if open {
            self.latency.clear();
            self.flows.iter_mut().for_each(|f| f.window_ok = 0);
        }
        self.in_window = open;
    }

    fn settled(&self) -> bool {
        !self.outstanding
    }

    fn flows(&self) -> Vec<&Flow> {
        self.flows.iter().collect()
    }

    fn measured(&self) -> Measured<'_> {
        let delivered = self.flows.iter().map(|f| f.window_ok).sum();
        Measured {
            latency: &self.latency,
            throughput_msgs: delivered,
            delivered,
            generator_lag: None,
        }
    }

    fn finish<const T: bool>(&mut self, pair: &Pair<T>) -> u64 {
        reclaim_all(&pair.a, &self.a_tx);
        reclaim_all(&pair.b, &self.b_tx);
        u64::from(pair.a.drops(&self.a_rx)) + u64::from(pair.b.drops(&self.b_rx))
    }
}

/// `stream-64`: a saturating sender on `a` into one receive endpoint on
/// `b`.
pub struct Stream {
    sender: Saturating,
    rx: LocalEndpoint,
    flow: Flow,
    in_window: bool,
    latency: Histogram,
}

impl Workload for Stream {
    const MSG_SIZE: u32 = 64;
    const HEADLINE_IS_THROUGHPUT: bool = true;

    fn new<const T: bool>(pair: &Pair<T>, seed: u64) -> Self {
        let tx = pair.a.endpoint(EndpointType::Send, Importance::Normal);
        let rx = pair.b.endpoint(EndpointType::Receive, Importance::Normal);
        post_all(&pair.b, &rx);
        Stream {
            sender: Saturating {
                tx,
                dst: pair.b.address(&rx),
                held: None,
            },
            rx,
            flow: Flow::new(0, seed),
            in_window: false,
            latency: Histogram::default(),
        }
    }

    fn probe_route(&self) -> (&LocalEndpoint, &LocalEndpoint, EndpointAddress) {
        (&self.sender.tx, &self.rx, self.sender.dst)
    }

    fn step<const T: bool>(&mut self, pair: &mut Pair<T>, clock: &Clock, generate: bool) {
        if generate {
            self.sender.refill(&pair.a, &mut self.flow, clock);
        } else {
            reclaim_all(&pair.a, &self.sender.tx);
        }
        pair.a.iterate();
        pair.b.iterate();
        receive(
            &pair.b,
            &self.rx,
            &mut self.flow,
            clock,
            Some(&mut self.latency),
            self.in_window,
        );
    }

    fn set_window(&mut self, open: bool) {
        if open {
            self.latency.clear();
            self.flow.window_ok = 0;
        }
        self.in_window = open;
    }

    fn settled(&self) -> bool {
        self.flow.in_flight() == 0
    }

    fn flows(&self) -> Vec<&Flow> {
        vec![&self.flow]
    }

    fn measured(&self) -> Measured<'_> {
        Measured {
            latency: &self.latency,
            throughput_msgs: self.flow.window_ok,
            delivered: self.flow.window_ok,
            generator_lag: None,
        }
    }

    fn finish<const T: bool>(&mut self, pair: &Pair<T>) -> u64 {
        self.sender.release(&pair.a);
        reclaim_all(&pair.a, &self.sender.tx);
        u64::from(pair.b.drops(&self.rx))
    }
}

/// Mean gap between high-class arrivals: 2000 messages per second.
const HIGH_MEAN_GAP_NS: f64 = 500_000.0;

/// `tiered-544`: an open-loop `High` flow with seeded Poisson arrivals and
/// a saturating `Low` bulk flow on the same peer path.
pub struct Tiered {
    high_tx: LocalEndpoint,
    high_rx: LocalEndpoint,
    high_dst: EndpointAddress,
    high_held: Option<BufferToken>,
    bulk: Saturating,
    bulk_rx: LocalEndpoint,
    /// Flow 0 is the high class, flow 1 the bulk.
    flows: [Flow; 2],
    /// Due times of high-class messages not yet accepted by the ring.
    backlog: VecDeque<u64>,
    next_due: u64,
    arrivals: SplitMix64,
    in_window: bool,
    latency: Histogram,
    lag: Histogram,
}

impl Workload for Tiered {
    const MSG_SIZE: u32 = 544;
    const HEADLINE_IS_THROUGHPUT: bool = false;

    fn new<const T: bool>(pair: &Pair<T>, seed: u64) -> Self {
        let high_tx = pair.a.endpoint(EndpointType::Send, Importance::High);
        let bulk_tx = pair.a.endpoint(EndpointType::Send, Importance::Low);
        let high_rx = pair.b.endpoint(EndpointType::Receive, Importance::Normal);
        let bulk_rx = pair.b.endpoint(EndpointType::Receive, Importance::Normal);
        post_all(&pair.b, &high_rx);
        post_all(&pair.b, &bulk_rx);
        Tiered {
            high_dst: pair.b.address(&high_rx),
            high_tx,
            high_rx,
            high_held: None,
            bulk: Saturating {
                tx: bulk_tx,
                dst: pair.b.address(&bulk_rx),
                held: None,
            },
            bulk_rx,
            flows: [Flow::new(0, seed), Flow::new(1, seed)],
            backlog: VecDeque::with_capacity(1024),
            next_due: 0,
            arrivals: SplitMix64::new(seed ^ 0xA11C_E5ED),
            in_window: false,
            latency: Histogram::default(),
            lag: Histogram::default(),
        }
    }

    fn probe_route(&self) -> (&LocalEndpoint, &LocalEndpoint, EndpointAddress) {
        (&self.high_tx, &self.high_rx, self.high_dst)
    }

    fn step<const T: bool>(&mut self, pair: &mut Pair<T>, clock: &Clock, generate: bool) {
        let a = &pair.a;
        if generate {
            let now = clock.now();
            if self.next_due == 0 {
                self.next_due = now;
            }
            while self.next_due <= now {
                self.backlog.push_back(self.next_due);
                self.next_due += self.arrivals.exp(HIGH_MEAN_GAP_NS).max(1.0) as u64;
            }
        }
        // High class first: every due message until the ring refuses.
        reclaim_all(a, &self.high_tx);
        let high = &mut self.flows[0];
        while let Some(&due) = self.backlog.front() {
            let token = self.high_held.take().unwrap_or_else(|| {
                let mut t = a.alloc();
                fill(a.payload_mut(&mut t), high.seed, high.id, high.sent);
                t
            });
            let t0 = clock.now();
            match a.send(&self.high_tx, token, self.high_dst) {
                Ok(()) => {
                    // Latency runs from the send call, as on the other
                    // workloads; the wait from the due time until then is
                    // the generator lag. Timed from the due time, the p99
                    // would count every message that fell due while the
                    // host had the process stopped (1-20 ms, several
                    // times a second on a busy host), not the stack.
                    high.stamps[high.sent as usize % STAMPS] = t0;
                    high.sent += 1;
                    self.backlog.pop_front();
                    if self.in_window {
                        self.lag.record(t0.saturating_sub(due));
                    }
                }
                Err(token) => {
                    self.high_held = Some(token);
                    break;
                }
            }
        }
        if generate {
            self.bulk.refill(a, &mut self.flows[1], clock);
        } else {
            reclaim_all(a, &self.bulk.tx);
        }
        pair.a.iterate();
        pair.b.iterate();
        let [high, bulk] = &mut self.flows;
        receive(
            &pair.b,
            &self.high_rx,
            high,
            clock,
            Some(&mut self.latency),
            self.in_window,
        );
        receive(&pair.b, &self.bulk_rx, bulk, clock, None, self.in_window);
    }

    fn set_window(&mut self, open: bool) {
        if open {
            self.latency.clear();
            self.lag.clear();
            self.flows.iter_mut().for_each(|f| f.window_ok = 0);
        }
        self.in_window = open;
    }

    fn settled(&self) -> bool {
        self.backlog.is_empty() && self.flows.iter().all(|f| f.in_flight() == 0)
    }

    fn flows(&self) -> Vec<&Flow> {
        self.flows.iter().collect()
    }

    fn unsent(&self) -> u64 {
        self.backlog.len() as u64
    }

    fn measured(&self) -> Measured<'_> {
        Measured {
            latency: &self.latency,
            throughput_msgs: self.flows[1].window_ok,
            delivered: self.flows.iter().map(|f| f.window_ok).sum(),
            generator_lag: Some(&self.lag),
        }
    }

    fn finish<const T: bool>(&mut self, pair: &Pair<T>) -> u64 {
        if let Some(token) = self.high_held.take() {
            pair.a.free(token);
        }
        self.bulk.release(&pair.a);
        reclaim_all(&pair.a, &self.high_tx);
        reclaim_all(&pair.a, &self.bulk.tx);
        u64::from(pair.b.drops(&self.high_rx)) + u64::from(pair.b.drops(&self.bulk_rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_payload_verifies_and_corruption_does_not() {
        let mut buf = vec![0u8; 536];
        fill(&mut buf, 42, 1, 7);
        assert!(intact(&buf, 42, 1, 7));
        assert!(!intact(&buf, 43, 1, 7), "another seed gives other bytes");
        assert!(!intact(&buf, 42, 1, 8), "sequence is checked");
        buf[300] ^= 1;
        assert!(!intact(&buf, 42, 1, 7));
    }

    #[test]
    fn flow_counts_a_gap_once_and_resynchronises() {
        let mut f = Flow::new(0, 9);
        f.sent = 3;
        let mut buf = vec![0u8; 56];
        fill(&mut buf, 9, 0, 0);
        assert!(f.check(&buf, true).is_some());
        fill(&mut buf, 9, 0, 2);
        assert!(f.check(&buf, true).is_none(), "message 1 was skipped");
        assert_eq!((f.ok, f.mismatches, f.in_flight()), (1, 1, 0));
        assert!(f.first_error.is_some());
    }
}
