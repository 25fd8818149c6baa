//! KKT: the Kernel-to-Kernel Transport, FLIPC's development platform.
//!
//! The paper's initial FLIPC implementations (PC clusters over ethernet and
//! SCSI, and the first Paragon port) ran the messaging engine over the Mach
//! Kernel-to-Kernel Transport. KKT's defining property — and its mismatch
//! with FLIPC — is that it "uses an RPC to deliver each message": every
//! one-way FLIPC message costs a full request/acknowledge round trip, and
//! only one delivery per destination can be in flight at a time.
//!
//! [`KktPort`] reproduces that structure as a [`Transport`]: a request ring
//! and an acknowledgement ring per node pair, with `try_send` refusing a
//! new message to a destination until the previous one's acknowledgement
//! has returned. Plugged under the unchanged engine, it demonstrates both
//! halves of the paper's development story:
//!
//! * portability — the platform-independent components (communication
//!   buffer, queues, API) run unmodified over a completely different
//!   transport, and
//! * the performance penalty of RPC-per-message, reproduced by experiment
//!   E10 (`kkt_vs_native`).

use flipc_core::endpoint::FlipcNodeId;
use flipc_engine::spsc::{ring, Consumer, Producer};
use flipc_engine::transport::Transport;
use flipc_engine::wire::Frame;

/// One node's attachment to a KKT fabric.
pub struct KktPort {
    node: FlipcNodeId,
    /// Request rings: `req_tx[d]` carries frames to node `d`.
    req_tx: Vec<Option<Producer<Frame>>>,
    /// `req_rx[s]` receives frames from node `s`.
    req_rx: Vec<Option<Consumer<Frame>>>,
    /// Acknowledgement rings: `ack_tx[s]` returns acks to node `s`.
    ack_tx: Vec<Option<Producer<()>>>,
    /// `ack_rx[d]` receives acks for our requests to node `d`.
    ack_rx: Vec<Option<Consumer<()>>>,
    /// Outstanding (unacknowledged) RPCs per destination; KKT allows one.
    outstanding: Vec<u32>,
    next_rx: usize,
    /// Completed round trips (for tests/diagnostics).
    round_trips: u64,
}

/// Builds a KKT fabric of `n` nodes; index = node id.
pub fn kkt_fabric(n: usize) -> Vec<KktPort> {
    assert!(n >= 1, "fabric needs at least one node");
    let mut ports: Vec<KktPort> = (0..n)
        .map(|i| KktPort {
            node: FlipcNodeId(i as u16),
            req_tx: (0..n).map(|_| None).collect(),
            req_rx: (0..n).map(|_| None).collect(),
            ack_tx: (0..n).map(|_| None).collect(),
            ack_rx: (0..n).map(|_| None).collect(),
            outstanding: vec![0; n],
            next_rx: 0,
            round_trips: 0,
        })
        .collect();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            // KKT serializes per path, so depth-1 rings suffice; use 2 to
            // decouple ack arrival from the next request slot.
            let (req_p, req_c) = ring(2);
            let (ack_p, ack_c) = ring(2);
            ports[s].req_tx[d] = Some(req_p);
            ports[d].req_rx[s] = Some(req_c);
            ports[d].ack_tx[s] = Some(ack_p);
            ports[s].ack_rx[d] = Some(ack_c);
        }
    }
    ports
}

impl KktPort {
    /// Completed request/acknowledge round trips this port has performed as
    /// a sender.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    fn reap_acks(&mut self, dst: usize) {
        if let Some(rx) = self.ack_rx[dst].as_mut() {
            while rx.pop().is_some() {
                debug_assert!(self.outstanding[dst] > 0, "spurious ack");
                self.outstanding[dst] = self.outstanding[dst].saturating_sub(1);
                self.round_trips += 1;
            }
        }
    }
}

impl Transport for KktPort {
    fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
        let d = dst.0 as usize;
        if d >= self.req_tx.len() {
            return true; // out-of-fabric: black-holed, as in loopback
        }
        self.reap_acks(d);
        if self.outstanding[d] > 0 {
            // The RPC for the previous message has not returned: KKT cannot
            // pipeline. The engine will retry.
            return false;
        }
        match self.req_tx[d].as_mut() {
            Some(p) => {
                if p.push(frame.clone()).is_ok() {
                    self.outstanding[d] += 1;
                    true
                } else {
                    false
                }
            }
            None => true, // self-addressed: never reaches the transport
        }
    }

    fn try_recv(&mut self) -> Option<Frame> {
        let n = self.req_rx.len();
        for step in 0..n {
            let i = (self.next_rx + step) % n;
            let popped = self.req_rx[i].as_mut().and_then(|c| c.pop());
            if let Some(f) = popped {
                // Deliver-and-reply: the receiving kernel completes the RPC.
                if let Some(ack) = self.ack_tx[i].as_mut() {
                    // Depth-2 ack ring with one outstanding request per
                    // path can never be full.
                    let pushed = ack.push(()).is_ok();
                    debug_assert!(pushed, "ack ring overflow");
                }
                self.next_rx = (i + 1) % n;
                return Some(f);
            }
        }
        None
    }

    fn local_node(&self) -> FlipcNodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_core::endpoint::{EndpointAddress, EndpointIndex};

    fn frame(dst_node: u16, tag: u8) -> Frame {
        Frame {
            src: EndpointAddress::new(FlipcNodeId(0), EndpointIndex(0), 1),
            dst: EndpointAddress::new(FlipcNodeId(dst_node), EndpointIndex(0), 1),
            payload: vec![tag; 8].into(),
            stamp_ns: 0,
        }
    }

    #[test]
    fn one_message_per_round_trip() {
        let mut ports = kkt_fabric(2);
        let (a, b) = ports.split_at_mut(1);
        assert!(a[0].try_send(FlipcNodeId(1), &frame(1, 1)));
        // Second send refused until the first is delivered AND acked.
        assert!(!a[0].try_send(FlipcNodeId(1), &frame(1, 2)));
        assert_eq!(b[0].try_recv().unwrap().payload[0], 1);
        // Ack is back now; the next send goes through.
        assert!(a[0].try_send(FlipcNodeId(1), &frame(1, 2)));
        assert_eq!(a[0].round_trips(), 1);
    }

    #[test]
    fn independent_destinations_do_not_block_each_other() {
        let mut ports = kkt_fabric(3);
        let first = ports[0].try_send(FlipcNodeId(1), &frame(1, 1));
        let second = ports[0].try_send(FlipcNodeId(2), &frame(2, 2));
        assert!(first && second, "per-path serialization only");
    }

    #[test]
    fn fifo_per_path_across_round_trips() {
        let mut ports = kkt_fabric(2);
        let mut got = Vec::new();
        for i in 0..10u8 {
            let (a, b) = ports.split_at_mut(1);
            while !a[0].try_send(FlipcNodeId(1), &frame(1, i)) {
                if let Some(f) = b[0].try_recv() {
                    got.push(f.payload[0]);
                }
            }
        }
        while let Some(f) = ports[1].try_recv() {
            got.push(f.payload[0]);
        }
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn engine_runs_unchanged_over_kkt() {
        use flipc_core::endpoint::{EndpointType, Importance};
        use flipc_core::layout::Geometry;
        use flipc_engine::engine::EngineConfig;
        use flipc_engine::node::InlineCluster;

        let mut cl =
            InlineCluster::over(kkt_fabric(2), Geometry::small(), EngineConfig::default()).unwrap();
        let flipc = [cl.node(0).attach(), cl.node(1).attach()];
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        for _ in 0..8 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        for i in 0..5u8 {
            let mut t = flipc[0].buffer_allocate().unwrap();
            flipc[0].payload_mut(&mut t)[0] = i;
            flipc[0].send(&tx, t, dest).unwrap();
        }
        // KKT needs extra pump rounds: one message per path per round trip.
        for _ in 0..20 {
            cl.pump();
        }
        for i in 0..5u8 {
            let got = flipc[1].recv(&rx).unwrap().unwrap();
            assert_eq!(flipc[1].payload(&got.token)[0], i);
        }
        assert_eq!(flipc[1].drops_reset(&rx).unwrap(), 0);
    }

    #[test]
    fn kkt_needs_more_pump_rounds_than_native_for_a_burst() {
        // The structural penalty: moving a burst of K messages over KKT
        // takes ~K engine round-trips, where the native loopback moves them
        // in one. This is E10's mechanism, verified deterministically.
        use flipc_core::endpoint::{EndpointType, Importance};
        use flipc_core::layout::Geometry;
        use flipc_engine::engine::EngineConfig;
        use flipc_engine::loopback::fabric;
        use flipc_engine::node::InlineCluster;

        const K: usize = 8;

        fn rounds_to_deliver(mut cl: InlineCluster) -> u32 {
            let flipc = [cl.node(0).attach(), cl.node(1).attach()];
            let tx = flipc[0]
                .endpoint_allocate(EndpointType::Send, Importance::Normal)
                .unwrap();
            let rx = flipc[1]
                .endpoint_allocate(EndpointType::Receive, Importance::Normal)
                .unwrap();
            let dest = flipc[1].address(&rx);
            for _ in 0..K {
                let b = flipc[1].buffer_allocate().unwrap();
                flipc[1]
                    .provide_receive_buffer(&rx, b)
                    .map_err(|r| r.error)
                    .unwrap();
            }
            for i in 0..K {
                let mut t = flipc[0].buffer_allocate().unwrap();
                flipc[0].payload_mut(&mut t)[0] = i as u8;
                flipc[0].send(&tx, t, dest).unwrap();
            }
            let mut rounds = 0;
            let mut received = 0;
            while received < K {
                rounds += 1;
                assert!(rounds < 100, "never delivered");
                cl.pump();
                while flipc[1].recv(&rx).unwrap().is_some() {
                    received += 1;
                }
            }
            rounds
        }

        let (geo, cfg) = (Geometry::small(), EngineConfig::default());
        let native_rounds =
            rounds_to_deliver(InlineCluster::over(fabric(2, 64), geo, cfg).unwrap());
        let kkt_rounds = rounds_to_deliver(InlineCluster::over(kkt_fabric(2), geo, cfg).unwrap());

        assert!(
            kkt_rounds >= native_rounds * 4,
            "KKT ({kkt_rounds} rounds) should be far slower than native ({native_rounds})"
        );
    }
}
