//! Property tests for the credit-based flow-control machinery: the
//! sender-side grant clamp, the receiver-side AIMD grantor, and the
//! fairness the engine's drain pass keeps on a credit-clamped path.
//!
//! The properties pinned here are the ones a wrong edge case would turn
//! into a silent outage rather than a test failure: a sender overrunning
//! the peer's advertised credit (the exact flooding credit exists to
//! prevent), a window that wedges shut and can never regrow, a bulk
//! endpoint starving an equal-importance one past one `max_batch` turn,
//! and drop-counter wraparound misread as fresh congestion.

use flipc_core::api::Flipc;
use flipc_core::endpoint::{EndpointType, FlipcNodeId, Importance};
use flipc_core::layout::Geometry;
use flipc_engine::engine::EngineConfig;
use flipc_engine::node::InlineCluster;
use flipc_net::reliability::{CreditGrantor, SenderPath};
use flipc_net::{ManualClock, MemHub, NetConfig, NetTransport};
use proptest::prelude::*;

fn cfg(window: u32) -> NetConfig {
    NetConfig {
        window,
        ..NetConfig::default()
    }
}

/// What else node 0 transmits while its endpoints A and B share the
/// path to node 1.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Neighbour {
    Quiet,
    /// A `Low` bulk sender delivering node-locally.
    LowLocal,
    /// A `Normal` bulk sender to node 2.
    OtherPeer,
    /// Two `Normal` bulk senders, C and D, sharing the path to node 2.
    ContendedOtherPeer,
}

fn neighbour() -> impl Strategy<Value = Neighbour> {
    prop_oneof![
        Just(Neighbour::Quiet),
        Just(Neighbour::LowLocal),
        Just(Neighbour::OtherPeer),
        Just(Neighbour::ContendedOtherPeer),
    ]
}

/// Backlogged endpoints on node 0 stream through `Engine` →
/// `NetTransport` → `MemHub`. The receivers run with a `window`-frame
/// config, so their credit grant, not the sender's 64-frame configured
/// window, bounds each path. The sender engine runs `passes` drain passes
/// per round; node 1's engine runs every round and node 2's every other
/// round, and each receiver pass acks, reopening its window. Returns the
/// arrival order at node 1 (`true` for A) and at node 2 (`true` for the
/// first sender there), and the credit window node 0 was granted on the
/// path to node 1.
fn backlogged_arrivals(
    window: u32,
    max_batch: u32,
    passes: usize,
    neighbour: Neighbour,
) -> ([Vec<bool>; 2], u32) {
    let geo = Geometry {
        ring_capacity: 32,
        buffers: 128,
        ..Geometry::small()
    };
    let engine_cfg = EngineConfig {
        max_batch,
        ..EngineConfig::default()
    };
    let hub = MemHub::new(3, 4096);
    let clock = ManualClock::new();
    let transports: Vec<_> = (0..3u16)
        .map(|i| {
            let node = FlipcNodeId(i);
            let (peers, net_cfg) = if i == 0 {
                (vec![FlipcNodeId(1), FlipcNodeId(2)], cfg(64))
            } else {
                (vec![FlipcNodeId(0)], cfg(window))
            };
            NetTransport::new(node, &peers, hub.link(node), clock.clone(), net_cfg)
        })
        .collect();
    let sender_stats = transports[0].stats();
    let mut cl = InlineCluster::over(transports, geo, engine_cfg).unwrap();
    let apps: Vec<Flipc> = (0..cl.len()).map(|i| cl.node(i).attach()).collect();
    let receivers = [1, 2].map(|node| {
        let rx = apps[node]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        for _ in 0..24 {
            let b = apps[node].buffer_allocate().unwrap();
            apps[node]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        rx
    });
    let dests = [
        apps[1].address(&receivers[0]),
        apps[2].address(&receivers[1]),
    ];
    let sender = |importance| {
        apps[0]
            .endpoint_allocate(EndpointType::Send, importance)
            .unwrap()
    };
    let mut senders = vec![
        (sender(Importance::Normal), dests[0]),
        (sender(Importance::Normal), dests[0]),
    ];
    match neighbour {
        Neighbour::Quiet => {}
        Neighbour::LowLocal => {
            // No receive buffers: every local frame is dropped, which
            // still completes the send.
            let local = apps[0]
                .endpoint_allocate(EndpointType::Receive, Importance::Normal)
                .unwrap();
            senders.push((sender(Importance::Low), apps[0].address(&local)));
        }
        Neighbour::OtherPeer => senders.push((sender(Importance::Normal), dests[1])),
        Neighbour::ContendedOtherPeer => {
            senders.push((sender(Importance::Normal), dests[1]));
            senders.push((sender(Importance::Normal), dests[1]));
        }
    }
    // Warm-up: one frame per path, acked, so every grant has reached
    // node 0 before the backlog would overrun a receiver window.
    for dest in dests {
        let t = apps[0].buffer_allocate().unwrap();
        apps[0]
            .send(&senders[0].0, t, dest)
            .map_err(|r| r.error)
            .unwrap();
    }
    // Two rounds: with `max_batch` 1 the second frame leaves a pass later.
    for engine in [0, 1, 2, 0, 1, 2, 0] {
        clock.advance(1);
        cl.engine_mut(engine).iterate();
    }
    for (node, rx) in [1, 2].into_iter().zip(&receivers) {
        let r = apps[node].recv(rx).unwrap().expect("warm-up frame");
        apps[node]
            .provide_receive_buffer(rx, r.token)
            .map_err(|r| r.error)
            .unwrap();
    }
    for (ep, dest) in &senders {
        for _ in 0..16 {
            let t = apps[0].buffer_allocate().unwrap();
            apps[0].send(ep, t, *dest).map_err(|r| r.error).unwrap();
        }
    }
    let first_to = [senders[0].0.index(), senders[senders.len() - 1].0.index()];
    let mut orders = [Vec::new(), Vec::new()];
    for round in 0..60 {
        for _ in 0..passes {
            clock.advance(1);
            cl.engine_mut(0).iterate();
        }
        cl.engine_mut(1).iterate();
        if round % 2 == 1 {
            cl.engine_mut(2).iterate();
        }
        for (k, node) in [1, 2].into_iter().enumerate() {
            while let Some(r) = apps[node].recv(&receivers[k]).unwrap() {
                orders[k].push(r.from.index() == first_to[k]);
                apps[node]
                    .provide_receive_buffer(&receivers[k], r.token)
                    .map_err(|r| r.error)
                    .unwrap();
            }
        }
        // Resend every completed buffer: every queue stays backlogged.
        for (ep, dest) in &senders {
            while let Some(t) = apps[0].reclaim_send(ep).unwrap() {
                apps[0].send(ep, t, *dest).map_err(|r| r.error).unwrap();
            }
        }
    }
    let granted = sender_stats.snapshot().paths[0].credit_window;
    (orders, granted)
}

/// One step of an adversarial sender-side schedule.
#[derive(Clone, Debug)]
enum SenderOp {
    /// A credit advertisement arrives from the peer.
    Credit(u32, u32),
    /// The application tries to admit one frame.
    Admit,
    /// The peer cumulatively acks everything currently in flight.
    AckAll,
}

fn sender_op() -> impl Strategy<Value = SenderOp> {
    prop_oneof![
        (0u32..20, 0u32..4).prop_map(|(c, d)| SenderOp::Credit(c, d)),
        Just(SenderOp::Admit),
        Just(SenderOp::AckAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any interleaving of advertisements, admissions, and acks,
    /// the frames in flight never exceed the effective window, and the
    /// effective window never exceeds the latest advertised credit
    /// (clamped to the liveness floor of one frame).
    #[test]
    fn in_flight_never_exceeds_the_advertised_credit(
        window in 1u32..16,
        ops in proptest::collection::vec(sender_op(), 1..64),
    ) {
        let mut path = SenderPath::new(cfg(window));
        let mut now = 0u64;
        let mut last_credit: Option<u32> = None;
        let mut drops_total = 0u32;
        // Sequences start at 1 and the schedule never resets the epoch,
        // so the highest outstanding sequence is simply the admission
        // count.
        let mut admitted_total = 0u32;
        for op in &ops {
            now += 1;
            match op {
                SenderOp::Credit(c, fresh) => {
                    // Drop counters are cumulative on the wire.
                    drops_total = drops_total.wrapping_add(*fresh);
                    path.on_credit(*c, drops_total);
                    last_credit = Some((*c).max(1));
                }
                SenderOp::Admit => {
                    let was_full = path.full();
                    let admitted = path
                        .admit(now, |seq| Some(vec![seq as u8]))
                        .is_some();
                    prop_assert_eq!(
                        admitted,
                        !was_full,
                        "admit and full() must agree"
                    );
                    if admitted {
                        admitted_total += 1;
                    }
                }
                SenderOp::AckAll => {
                    if path.in_flight() > 0 {
                        path.on_ack(now, admitted_total);
                    }
                }
            }
            // The core overrun bound: admissions stop at the effective
            // window, which itself honours the latest grant (credit may
            // shrink below what is already in flight — those frames were
            // admitted legally under the old grant and drain, but nothing
            // NEW may be admitted while at or above the limit).
            if let Some(c) = last_credit {
                prop_assert!(
                    path.effective_window() <= window.min(c.max(1)).max(1),
                    "effective window {} exceeds grant {} (cfg window {})",
                    path.effective_window(), c, window
                );
            }
            if path.in_flight() >= path.effective_window() {
                prop_assert!(path.full(), "overrun admission must backpressure");
            }
        }
    }

    /// The grantor's advertised credit is never below the floor and the
    /// window can always regrow: after an arbitrary drop storm, rounds
    /// with delivery progress and no fresh drops climb back to the full
    /// configured window in at most `window` rounds. No schedule wedges
    /// the grant shut.
    #[test]
    fn the_granted_window_never_wedges_at_zero(
        window in 1u32..64,
        storm in proptest::collection::vec((0u32..8, 0u32..8), 0..32),
    ) {
        let mut g = CreditGrantor::new(&cfg(window));
        for (drops, delivered) in &storm {
            for _ in 0..*drops {
                g.on_drop();
            }
            g.on_delivered(*delivered);
            let (credit, _, _) = g.advertise();
            prop_assert!(credit >= 1, "grant fell below the liveness floor");
            prop_assert!(credit <= window, "grant exceeded the ceiling");
        }
        // Liveness: the floor guarantees one probe frame per round can
        // get through; each productive round regrows by one, so the full
        // window is back within `window` rounds of clean progress.
        let mut rounds = 0u32;
        while g.window() < window {
            rounds += 1;
            prop_assert!(rounds <= window, "regrow stalled at {}/{window}", g.window());
            g.on_delivered(1);
            let (credit, _, shrank) = g.advertise();
            prop_assert!(!shrank, "regrow round must not shrink");
            prop_assert!(credit >= 1, "regrow round fell below the floor");
        }
        prop_assert_eq!(g.window(), window, "regrow must reach the ceiling");
    }

    /// Fairness is the engine's, not the transport's: two backlogged
    /// equal-importance endpoints sharing one credit-clamped peer path
    /// both progress, and neither sends more than one `max_batch` turn in
    /// a row while the other waits. That holds however many drain passes
    /// find the window full between acks, and whatever a third sender
    /// does meanwhile: a `Low` node-local one, or a second peer path,
    /// itself contended or not, acked out of step with the first.
    #[test]
    fn a_backlogged_endpoint_cannot_starve_its_peer_on_a_shared_path(
        window in 2u32..12,
        max_batch in 1u32..6,
        passes in 1usize..4,
        neighbour in neighbour(),
    ) {
        let ([to_node1, to_node2], granted) =
            backlogged_arrivals(window, max_batch, passes, neighbour);
        prop_assert_eq!(granted, window, "the grant, not the configured window, must bound the path");
        let mut paths = vec![("A/B to node 1", to_node1)];
        if neighbour == Neighbour::ContendedOtherPeer {
            paths.push(("C/D to node 2", to_node2));
        }
        for (path, order) in paths {
            let first = order.iter().filter(|&&x| x).count();
            let second = order.len() - first;
            prop_assert!(first > 0 && second > 0, "{path} starved one endpoint: {first} : {second}");
            for from_first in [true, false] {
                let longest = order
                    .split(|&x| x != from_first)
                    .map(<[bool]>::len)
                    .max()
                    .unwrap_or(0);
                prop_assert!(
                    longest <= max_batch as usize,
                    "{path}: {longest} frames in a row from one endpoint past a \
                     backlogged peer (window {window}, max_batch {max_batch}, \
                     {passes} passes per ack, {neighbour:?})"
                );
            }
        }
    }

    /// Drop-counter wraparound is read as real arithmetic: a forward
    /// wrapping advance (even across `u32::MAX`) is fresh congestion and
    /// clamps the usable window; a stale or duplicate counter (zero or
    /// backward delta) never does.
    #[test]
    fn credit_drop_deltas_are_wraparound_safe(
        base in prop_oneof![
            Just(0u32),
            Just(u32::MAX),
            Just(u32::MAX - 1),
            Just(1u32 << 31),
            any::<u32>(),
        ],
        advance in 0u32..4,
        credit in 1u32..32,
    ) {
        let mut path = SenderPath::new(cfg(16));
        // Establish the baseline: the first advertisement never clamps
        // (there is no delta to judge yet).
        prop_assert!(!path.on_credit(credit, base), "baseline must not clamp");
        let next = base.wrapping_add(advance);
        let clamped = path.on_credit(credit, next);
        prop_assert_eq!(
            clamped,
            advance != 0,
            "forward delta {} from {} must clamp iff nonzero", advance, base
        );
        if clamped {
            // The stored grant is the raw advertisement halved (the
            // configured-window clamp is applied later, in
            // `effective_window`).
            prop_assert_eq!(path.remote_credit(), (credit / 2).max(1));
        }
        // Replaying the same counter (a duplicated ack) is not fresh
        // congestion and must not halve the window again.
        prop_assert!(!path.on_credit(credit, next), "duplicate counter clamped");
        // A stale counter from a reordered ack (backward delta lands in
        // the far half of the sequence space) must not clamp either.
        let stale = next.wrapping_sub(5);
        prop_assert!(!path.on_credit(credit, stale), "backward delta clamped");
    }
}
