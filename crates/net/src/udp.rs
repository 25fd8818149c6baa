//! The real-socket [`Link`]: non-blocking UDP.
//!
//! One socket per node, bound at the address the [`NodeMap`] assigns to
//! the local node id. The kernel is on the messaging path here — that is
//! the unavoidable cost of leaving the box on a commodity host — but it is
//! touched exactly once per datagram in each direction (`sendto` /
//! `recvfrom`, both non-blocking) and never for synchronization, keeping
//! the engine's event loop unblocked, in the spirit of the paper's
//! kernel-off-the-path design.
//!
//! With the `mmsg` feature on Linux even the once-per-datagram cost
//! amortizes: bursts go out through `sendmmsg` and arrive through
//! `recvmmsg` (the private `mmsg` module), so a retransmit burst or a
//! batched drain pass costs one syscall, not one per datagram. Every
//! other configuration compiles to exactly the portable path below.

#[cfg(not(all(feature = "mmsg", target_os = "linux")))]
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use flipc_core::endpoint::FlipcNodeId;

use crate::clock::MonotonicClock;
use crate::link::Link;
use crate::peers::{NodeAddr, NodeMap};
use crate::reliability::NetConfig;
use crate::transport::{udp_transport, NetTransport};

/// A non-blocking UDP socket speaking to peers from a [`NodeMap`].
#[derive(Debug)]
pub struct UdpLink {
    socket: UdpSocket,
    /// Peer addresses by node id (sparse; learned entries overwrite
    /// `Dynamic` slots).
    addrs: Vec<Option<SocketAddr>>,
    /// Source address of the most recently received datagram, pending a
    /// possible [`Link::associate`].
    last_from: Option<SocketAddr>,
    /// Vectored-receive staging: one `recvmmsg` syscall fills the ring,
    /// `recv` pops it one datagram at a time.
    #[cfg(all(feature = "mmsg", target_os = "linux"))]
    rx: crate::mmsg::RecvRing,
}

impl UdpLink {
    /// Binds the local node's socket and loads peer addresses from `map`.
    ///
    /// The local node must appear in the map with a static address (it is
    /// the bind address; port 0 asks the OS for an ephemeral port —
    /// [`UdpLink::local_addr`] reports what was actually bound).
    pub fn bind(map: &NodeMap, local: FlipcNodeId) -> std::io::Result<UdpLink> {
        let bind_addr = map.static_addr(local).ok_or_else(|| {
            std::io::Error::other(format!("node {} has no static bind address", local.0))
        })?;
        let socket = UdpSocket::bind(bind_addr)?;
        socket.set_nonblocking(true)?;
        let max_node = map.nodes().map(|n| n.0).max().unwrap_or(0) as usize;
        let mut addrs = vec![None; max_node + 1];
        for node in map.nodes() {
            if node == local {
                continue;
            }
            if let Some(NodeAddr::Static(a)) = map.addr(node) {
                addrs[node.0 as usize] = Some(a);
            }
        }
        Ok(UdpLink {
            socket,
            addrs,
            last_from: None,
            #[cfg(all(feature = "mmsg", target_os = "linux"))]
            rx: crate::mmsg::RecvRing::new(),
        })
    }

    /// The socket address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl Link for UdpLink {
    fn send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool {
        let Some(Some(addr)) = self.addrs.get(dst.0 as usize) else {
            return false; // no address (yet) for this peer
        };
        match self.socket.send_to(bytes, addr) {
            Ok(n) => n == bytes.len(),
            // WouldBlock = socket buffer full; anything else (e.g. a
            // transient ICMP-unreachable surfacing as ECONNREFUSED) is
            // equally just a lost datagram to the reliability layer.
            Err(_) => false,
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> Option<usize> {
        #[cfg(all(feature = "mmsg", target_os = "linux"))]
        {
            let (n, from) = self.rx.recv(&self.socket, buf)?;
            self.last_from = Some(from);
            Some(n)
        }
        #[cfg(not(all(feature = "mmsg", target_os = "linux")))]
        match self.socket.recv_from(buf) {
            Ok((n, from)) => {
                self.last_from = Some(from);
                Some(n)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => None,
            // Swallow transient errors (ICMP port unreachable bursts on
            // some platforms); the retransmit machinery absorbs the gap.
            Err(_) => None,
        }
    }

    #[cfg(all(feature = "mmsg", target_os = "linux"))]
    fn send_batch(&mut self, dst: FlipcNodeId, datagrams: &[&[u8]]) -> usize {
        let Some(Some(addr)) = self.addrs.get(dst.0 as usize) else {
            return 0; // no address (yet) for this peer
        };
        crate::mmsg::send_batch(&self.socket, *addr, datagrams)
    }

    fn associate(&mut self, node: FlipcNodeId) {
        let Some(from) = self.last_from else { return };
        let idx = node.0 as usize;
        if idx >= self.addrs.len() {
            self.addrs.resize(idx + 1, None);
        }
        if self.addrs[idx] != Some(from) {
            self.addrs[idx] = Some(from);
        }
    }
}

/// The boot map of one node of a two-node loopback pair, as `local`
/// sees it. Node 0 binds `node0_addr` and has no address for node 1
/// until node 1's first datagram arrives (`Dynamic`); node 1 binds an
/// ephemeral port on 127.0.0.1 and routes to `node0_addr`. So traffic
/// starts at node 1.
pub fn loopback_map(local: FlipcNodeId, node0_addr: SocketAddr) -> NodeMap {
    let node1 = if local == FlipcNodeId(0) {
        NodeAddr::Dynamic
    } else {
        NodeAddr::Static(SocketAddr::from(([127, 0, 0, 1], 0)))
    };
    let mut map = NodeMap::new();
    map.insert(FlipcNodeId(0), NodeAddr::Static(node0_addr))
        .insert(FlipcNodeId(1), node1);
    map
}

/// Binds both nodes of a loopback pair over [`loopback_map`] in one
/// process: node 0 on an ephemeral port first, then node 1 routed to it.
pub fn udp_pair(cfg: NetConfig) -> std::io::Result<[NetTransport<UdpLink, MonotonicClock>; 2]> {
    let node0 = FlipcNodeId(0);
    let t0 = udp_transport(
        &loopback_map(node0, SocketAddr::from(([127, 0, 0, 1], 0))),
        node0,
        cfg,
    )?;
    let node1 = FlipcNodeId(1);
    let t1 = udp_transport(&loopback_map(node1, t0.link().local_addr()?), node1, cfg)?;
    Ok([t0, t1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_core::endpoint::{EndpointAddress, EndpointIndex};
    use flipc_engine::transport::Transport;
    use flipc_engine::wire::Frame;

    /// Node 0's and node 1's links over [`loopback_map`], bound race-free:
    /// node 1 knows node 0's real address, node 0 learns node 1's from a
    /// first packet + associate (the client-server pattern).
    fn loopback_links() -> [UdpLink; 2] {
        let any = SocketAddr::from(([127, 0, 0, 1], 0));
        let a = UdpLink::bind(&loopback_map(FlipcNodeId(0), any), FlipcNodeId(0)).unwrap();
        let node0 = a.local_addr().unwrap();
        let b = UdpLink::bind(&loopback_map(FlipcNodeId(1), node0), FlipcNodeId(1)).unwrap();
        [a, b]
    }

    #[test]
    fn datagrams_cross_localhost() {
        let [mut a, mut b] = loopback_links();

        // b -> a: a learns b's address from the packet source.
        assert!(b.send(FlipcNodeId(0), b"ping"));
        let mut buf = [0u8; 64];
        let n = recv_with_patience(&mut a, &mut buf).expect("datagram arrives");
        assert_eq!(&buf[..n], b"ping");
        a.associate(FlipcNodeId(1));

        // a -> b now works through the learned address.
        assert!(a.send(FlipcNodeId(1), b"pong"));
        let n = recv_with_patience(&mut b, &mut buf).expect("reply arrives");
        assert_eq!(&buf[..n], b"pong");
    }

    fn recv_with_patience(link: &mut UdpLink, buf: &mut [u8]) -> Option<usize> {
        for _ in 0..1000 {
            if let Some(n) = link.recv(buf) {
                return Some(n);
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        None
    }

    #[test]
    fn send_without_address_is_refused() {
        let [mut a, _] = loopback_links();
        assert!(
            !a.send(FlipcNodeId(1), b"x"),
            "dynamic peer not yet learned"
        );
        assert!(!a.send(FlipcNodeId(9), b"x"), "unknown node");
    }

    #[cfg(all(feature = "mmsg", target_os = "linux"))]
    #[test]
    fn vectored_send_batch_crosses_localhost() {
        let [mut a, mut b] = loopback_links();

        let datagrams: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; 32]).collect();
        let refs: Vec<&[u8]> = datagrams.iter().map(|d| d.as_slice()).collect();
        assert_eq!(b.send_batch(FlipcNodeId(0), &refs), 24);
        assert_eq!(
            a.send_batch(FlipcNodeId(1), &refs),
            0,
            "no address for a dynamic peer not yet learned"
        );

        let mut buf = [0u8; 64];
        let mut got = Vec::new();
        for _ in 0..2_000 {
            if let Some(n) = a.recv(&mut buf) {
                got.push(buf[..n].to_vec());
                if got.len() == 24 {
                    break;
                }
            } else {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        got.sort();
        let mut want = datagrams.clone();
        want.sort();
        assert_eq!(got, want, "the whole burst crossed the wire");
        a.associate(FlipcNodeId(1));
        assert!(
            a.send(FlipcNodeId(1), b"ack"),
            "associate learned from mmsg recv"
        );
    }

    /// The pair's transports exchange frames both ways once node 1 has
    /// spoken first: node 0 learns node 1's port from that datagram.
    #[test]
    fn udp_pair_round_trips_from_node_1() {
        let [mut t0, mut t1] = udp_pair(NetConfig::default()).unwrap();
        assert_eq!(t0.local_node(), FlipcNodeId(0));
        assert_eq!(t1.local_node(), FlipcNodeId(1));
        let frame = |from: u16, to: u16, tag: u8| Frame {
            src: EndpointAddress::new(FlipcNodeId(from), EndpointIndex(0), 1),
            dst: EndpointAddress::new(FlipcNodeId(to), EndpointIndex(0), 1),
            payload: vec![tag; 16].into(),
            stamp_ns: 0,
        };
        let arrive = |to: &mut NetTransport<UdpLink, MonotonicClock>| {
            for _ in 0..2_000 {
                if let Some(f) = to.try_recv() {
                    return Some(f);
                }
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            None
        };
        assert!(t1.try_send(FlipcNodeId(0), &frame(1, 0, 7)));
        t1.flush();
        let ping = arrive(&mut t0).expect("node 1 -> node 0");
        assert_eq!(&ping.payload[..], &[7; 16]);
        assert!(t0.try_send(FlipcNodeId(1), &frame(0, 1, 9)));
        t0.flush();
        let pong = arrive(&mut t1).expect("node 0 -> node 1");
        assert_eq!(&pong.payload[..], &[9; 16]);
    }

    #[test]
    fn bind_requires_a_static_local_address() {
        let mut boot = NodeMap::new();
        boot.insert(FlipcNodeId(0), NodeAddr::Dynamic);
        assert!(UdpLink::bind(&boot, FlipcNodeId(0)).is_err());
        assert!(UdpLink::bind(&boot, FlipcNodeId(5)).is_err());
    }
}
