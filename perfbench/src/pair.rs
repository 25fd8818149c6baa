//! The node pair under test: two complete FLIPC nodes in this process,
//! each a comm buffer, an app handle and an engine over `NetTransport`
//! with the default `NetConfig`, joined by real `UdpLink` sockets on
//! 127.0.0.1. One thread drives both engines inline.
//!
//! `Node<TRACED>` is the only way the workloads touch the stack. With
//! `TRACED = false` every method is the bare call into the library; with
//! `TRACED = true` each call is a span (see [`crate::trace`]) and the
//! transport and link are wrapped in the timing wrappers.

use std::net::SocketAddr;
use std::sync::Arc;

use flipc_core::api::{Flipc, LocalEndpoint, Received};
use flipc_core::buffer::BufferToken;
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointType, FlipcNodeId, Importance};
use flipc_core::inspect::TransportSnapshot;
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;
use flipc_engine::engine::{Engine, EngineConfig};
use flipc_engine::transport::Transport;
use flipc_net::{
    udp_transport, MonotonicClock, NetConfig, NetTransport, NodeAddr, NodeMap, UdpLink,
};

use crate::trace::{span, Kind, TimedLink, TimedTransport};

/// The geometry every workload uses, at message size `msg_size` (header
/// included).
pub fn geometry(msg_size: u32) -> Geometry {
    Geometry {
        ring_capacity: 32,
        buffers: 128,
        msg_size,
        ..Geometry::small()
    }
}

/// One FLIPC node: its app handle and its engine.
pub struct Node<const TRACED: bool> {
    app: Flipc,
    engine: Engine,
}

impl<const TRACED: bool> Node<TRACED> {
    /// One bounded engine pass; true when it moved nothing.
    pub fn iterate(&mut self) -> bool {
        span::<TRACED, _>(Kind::EngineIterate, || self.engine.iterate(), |&w| w == 0) == 0
    }

    /// Allocates an endpoint (set-up, untimed).
    pub fn endpoint(&self, ty: EndpointType, importance: Importance) -> LocalEndpoint {
        self.app
            .endpoint_allocate(ty, importance)
            .expect("the geometry has room for every workload's endpoints")
    }

    /// The endpoint's address.
    pub fn address(&self, ep: &LocalEndpoint) -> EndpointAddress {
        self.app.address(ep)
    }

    /// Takes a buffer from the pool.
    pub fn alloc(&self) -> BufferToken {
        span::<TRACED, _>(
            Kind::CoreAlloc,
            || self.app.buffer_allocate(),
            |r| r.is_err(),
        )
        .expect("workloads hold fewer buffers than the pool has")
    }

    /// Returns a buffer to the pool.
    pub fn free(&self, token: BufferToken) {
        span::<TRACED, _>(Kind::CoreFree, || self.app.buffer_free(token), |_| false)
    }

    /// Queues `token` for sending; gives it back when the ring is full.
    pub fn send(
        &self,
        ep: &LocalEndpoint,
        token: BufferToken,
        dst: EndpointAddress,
    ) -> Result<(), BufferToken> {
        span::<TRACED, _>(
            Kind::CoreSend,
            || self.app.send_unlocked(ep, token, dst),
            |r| r.is_err(),
        )
        .map(|_| ())
        .map_err(|r| r.token)
    }

    /// The next delivered message, if any.
    pub fn recv(&self, ep: &LocalEndpoint) -> Option<Received> {
        span::<TRACED, _>(
            Kind::CoreRecv,
            || self.app.recv_unlocked(ep),
            |r| !matches!(r, Ok(Some(_))),
        )
        .expect("receive endpoints stay valid")
    }

    /// Posts an empty receive buffer; gives it back when the ring is full.
    pub fn provide(&self, ep: &LocalEndpoint, token: BufferToken) -> Result<(), BufferToken> {
        span::<TRACED, _>(
            Kind::CoreProvide,
            || self.app.provide_receive_buffer_unlocked(ep, token),
            |r| r.is_err(),
        )
        .map_err(|r| r.token)
    }

    /// A transmitted send buffer, if the engine has finished one.
    pub fn reclaim(&self, ep: &LocalEndpoint) -> Option<BufferToken> {
        span::<TRACED, _>(
            Kind::CoreReclaim,
            || self.app.reclaim_send_unlocked(ep),
            |r| !matches!(r, Ok(Some(_))),
        )
        .expect("send endpoints stay valid")
    }

    /// The payload of a buffer the app owns.
    pub fn payload_mut<'a>(&'a self, token: &'a mut BufferToken) -> &'a mut [u8] {
        self.app.payload_mut(token)
    }

    /// The payload of a buffer the app owns.
    pub fn payload<'a>(&'a self, token: &'a BufferToken) -> &'a [u8] {
        self.app.payload(token)
    }

    /// Messages the engine discarded on `ep` for want of a buffer.
    pub fn drops(&self, ep: &LocalEndpoint) -> u32 {
        self.app.drops(ep).expect("receive endpoints stay valid")
    }

    /// The reliability layer's per-peer counters (observer call).
    pub fn transport_snapshot(&self) -> TransportSnapshot {
        self.engine
            .transport_snapshot()
            .expect("NetTransport keeps a snapshot")
    }
}

/// Two nodes joined over loopback UDP. `a` (node 1) knows `b`'s (node 0)
/// port from the start; `b` learns `a`'s from its first datagram, as a
/// server learns a client's.
pub struct Pair<const TRACED: bool> {
    /// Node 1: the pinger, the streaming sender, the tiered generator.
    pub a: Node<TRACED>,
    /// Node 0: the ponger and the receiver.
    pub b: Node<TRACED>,
}

/// `port` on the loopback interface (0 asks the OS for a free one).
fn loopback(port: u16) -> NodeAddr {
    NodeAddr::Static(SocketAddr::from(([127, 0, 0, 1], port)))
}

/// `node`'s transport over a freshly bound socket, and the socket's address.
fn transport<const TRACED: bool>(
    map: &NodeMap,
    node: FlipcNodeId,
) -> (Box<dyn Transport>, SocketAddr) {
    if TRACED {
        let link = UdpLink::bind(map, node).expect("bind 127.0.0.1");
        let addr = link.local_addr().expect("bound socket has an address");
        let peers: Vec<FlipcNodeId> = map.nodes().filter(|&n| n != node).collect();
        let t = NetTransport::new(
            node,
            &peers,
            TimedLink(link),
            MonotonicClock::new(),
            NetConfig::default(),
        );
        (Box::new(TimedTransport(t)), addr)
    } else {
        let t = udp_transport(map, node, NetConfig::default()).expect("bind 127.0.0.1");
        let addr = t.link().local_addr().expect("bound socket has an address");
        (Box::new(t), addr)
    }
}

fn node<const TRACED: bool>(geo: Geometry, id: FlipcNodeId, t: Box<dyn Transport>) -> Node<TRACED> {
    let cb = Arc::new(CommBuffer::new(geo).expect("valid geometry"));
    let registry = WaitRegistry::new();
    let app = Flipc::attach(cb.clone(), id, registry.clone());
    let engine = Engine::new(cb, t, registry, EngineConfig::default());
    Node { app, engine }
}

impl<const TRACED: bool> Pair<TRACED> {
    /// Builds both nodes: comm buffers, sockets, transports, engines.
    pub fn build(geo: Geometry) -> Pair<TRACED> {
        let (a_id, b_id) = (FlipcNodeId(1), FlipcNodeId(0));
        let mut map_b = NodeMap::new();
        map_b
            .insert(b_id, loopback(0))
            .insert(a_id, NodeAddr::Dynamic);
        let (tb, addr_b) = transport::<TRACED>(&map_b, b_id);
        let mut map_a = NodeMap::new();
        map_a
            .insert(b_id, NodeAddr::Static(addr_b))
            .insert(a_id, loopback(0));
        let (ta, _) = transport::<TRACED>(&map_a, a_id);
        Pair {
            a: node(geo, a_id, ta),
            b: node(geo, b_id, tb),
        }
    }
}
