//! H2: half-RTT of the real UDP transport vs the in-process loopback,
//! over the paper's 50–500 byte message range.
//!
//! Two complete FLIPC nodes live in this process, joined by real
//! `127.0.0.1` UDP sockets through `flipc-net`; the loopback rows run the
//! identical engine/API code over the in-process wire. Each criterion
//! iteration is one full ping-pong, so **half-RTT = reported time / 2**.
//! The gap between the two rows is the cost of sockets + the reliability
//! layer; the loopback row is the pure software floor.

#![allow(missing_docs)] // criterion macros generate undocumented entry points

use criterion::{criterion_group, criterion_main, Criterion};

use flipc_core::api::{Flipc, LocalEndpoint};
use flipc_core::endpoint::{EndpointType, Importance};
use flipc_core::layout::Geometry;
use flipc_engine::engine::EngineConfig;
use flipc_engine::node::InlineCluster;
use flipc_net::{udp_pair, NetConfig};

/// Message sizes (header + payload) spanning the paper's 50–500 B range.
const MSG_SIZES: [u32; 4] = [64, 128, 256, 512];

fn geometry(msg_size: u32) -> Geometry {
    Geometry {
        ring_capacity: 32,
        buffers: 128,
        msg_size,
        ..Geometry::small()
    }
}

/// One node's application handle and its send and receive endpoints.
struct Ends {
    app: Flipc,
    tx: LocalEndpoint,
    rx: LocalEndpoint,
}

/// Attaches to both nodes of `cl`; node `0` of the cluster pings.
fn ends(cl: &InlineCluster) -> [Ends; 2] {
    [0, 1].map(|i| {
        let app = cl.node(i).attach();
        let tx = app
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .expect("ep");
        let rx = app
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .expect("ep");
        Ends { app, tx, rx }
    })
}

/// One full ping-pong, both engines pumped inline (pinger first) until
/// delivery.
fn roundtrip(cl: &mut InlineCluster, [a, b]: &[Ends; 2]) {
    let to_b = b.app.address(&b.rx);
    let to_a = a.app.address(&a.rx);

    for n in [b, a] {
        let buf = n.app.buffer_allocate().expect("buffer");
        n.app
            .provide_receive_buffer(&n.rx, buf)
            .map_err(|r| r.error)
            .expect("provide");
    }

    let ping = a.app.buffer_allocate().expect("buffer");
    a.app.send_unlocked(&a.tx, ping, to_b).expect("send");
    let got = loop {
        cl.pump();
        if let Some(got) = b.app.recv_unlocked(&b.rx).expect("recv") {
            break got;
        }
    };
    b.app.send_unlocked(&b.tx, got.token, to_a).expect("send");
    let back = loop {
        cl.pump();
        if let Some(back) = a.app.recv_unlocked(&a.rx).expect("recv") {
            break back;
        }
    };
    a.app.buffer_free(back.token);
    for n in [a, b] {
        while let Some(tok) = n.app.reclaim_send_unlocked(&n.tx).expect("reclaim") {
            n.app.buffer_free(tok);
        }
    }
}

fn udp_vs_loopback(c: &mut Criterion) {
    for msg_size in MSG_SIZES {
        let geo = geometry(msg_size);
        let payload = geo.payload_size();

        // Over UDP node 1 pings: node 0 learns its port from the first
        // ping, so it goes first in the cluster.
        let [t0, t1] = udp_pair(NetConfig::default()).expect("bind the UDP pair");
        let mut udp = InlineCluster::over([t1, t0], geo, EngineConfig::default()).expect("cluster");
        let udp_ends = ends(&udp);
        c.bench_function(&format!("net_udp/{payload}B_round_trip"), |bench| {
            bench.iter(|| roundtrip(&mut udp, &udp_ends))
        });

        let mut cl = InlineCluster::new(2, geo, EngineConfig::default()).expect("cluster");
        let cl_ends = ends(&cl);
        c.bench_function(&format!("loopback/{payload}B_round_trip"), |bench| {
            bench.iter(|| roundtrip(&mut cl, &cl_ends))
        });
    }
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = udp_vs_loopback
}
criterion_main!(benches);
