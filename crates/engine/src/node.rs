//! Node assembly: communication buffer + engine + transport, ready to use.
//!
//! Two cluster flavors mirror the paper's two engine placements:
//!
//! * [`ThreadedCluster`] — each node's engine runs on its own "message
//!   coprocessor" thread (the optimized native configuration);
//! * [`InlineCluster`] — engines are pumped explicitly by the caller,
//!   "implemented as part of the operating system kernel for debugging
//!   purposes": fully deterministic, used heavily by tests.
//!
//! [`InlineCluster::over`] is the one place a transport becomes a node;
//! every other constructor here builds through it.

use std::sync::Arc;

use flipc_core::api::Flipc;
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::FlipcNodeId;
use flipc_core::error::Result;
use flipc_core::layout::Geometry;
use flipc_core::wait::WaitRegistry;

use crate::engine::{Engine, EngineConfig, EngineStats};
use crate::loopback::fabric;
use crate::thread::{spawn_engine, spawn_engine_traced, EngineHandle};
use crate::transport::Transport;

/// Shared node state applications attach to.
#[derive(Clone)]
pub struct NodeCore {
    id: FlipcNodeId,
    cb: Arc<CommBuffer>,
    registry: Arc<WaitRegistry>,
}

impl NodeCore {
    /// The node's id.
    pub fn id(&self) -> FlipcNodeId {
        self.id
    }

    /// Attaches a new application handle (multiple cooperating applications
    /// per node share one communication buffer by dividing its endpoints).
    pub fn attach(&self) -> Flipc {
        Flipc::attach(self.cb.clone(), self.id, self.registry.clone())
    }

    /// The node's communication buffer.
    pub fn commbuf(&self) -> &Arc<CommBuffer> {
        &self.cb
    }
}

/// A cluster whose engines run on dedicated threads.
pub struct ThreadedCluster {
    cores: Vec<NodeCore>,
    handles: Vec<EngineHandle>,
}

impl ThreadedCluster {
    /// Builds `n` nodes on a loopback fabric and starts their engines.
    pub fn new(n: usize, geo: Geometry, cfg: EngineConfig) -> Result<ThreadedCluster> {
        ThreadedCluster::build(n, geo, cfg, None)
    }

    /// Like [`ThreadedCluster::new`], but every engine starts with a trace
    /// ring of `trace_capacity` events installed; observers claim the
    /// consumer halves via [`ThreadedCluster::handle_mut`] +
    /// [`EngineHandle::take_trace_reader`].
    pub fn new_traced(
        n: usize,
        geo: Geometry,
        cfg: EngineConfig,
        trace_capacity: usize,
    ) -> Result<ThreadedCluster> {
        ThreadedCluster::build(n, geo, cfg, Some(trace_capacity))
    }

    fn build(
        n: usize,
        geo: Geometry,
        cfg: EngineConfig,
        trace_capacity: Option<usize>,
    ) -> Result<ThreadedCluster> {
        let InlineCluster { cores, engines } = InlineCluster::new(n, geo, cfg)?;
        let handles = engines
            .into_iter()
            .map(|engine| match trace_capacity {
                Some(cap) => spawn_engine_traced(engine, cap),
                None => spawn_engine(engine),
            })
            .collect();
        Ok(ThreadedCluster { cores, handles })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when the cluster has no nodes (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Node `i`'s core (attach applications through it).
    pub fn node(&self, i: usize) -> &NodeCore {
        &self.cores[i]
    }

    /// Node `i`'s engine statistics.
    pub fn engine_stats(&self, i: usize) -> &Arc<EngineStats> {
        self.handles[i].stats()
    }

    /// Node `i`'s engine telemetry (histogram snapshots readable while
    /// the engine runs).
    pub fn engine_telemetry(&self, i: usize) -> &Arc<flipc_obs::EngineTelemetry> {
        self.handles[i].telemetry()
    }

    /// Mutable access to node `i`'s engine handle (e.g. to take a trace
    /// reader installed with [`ThreadedCluster::new_traced`]).
    pub fn handle_mut(&mut self, i: usize) -> &mut EngineHandle {
        &mut self.handles[i]
    }

    /// Stops all engines (also happens on drop).
    pub fn shutdown(self) {
        for h in self.handles {
            h.stop();
        }
    }
}

/// A cluster whose engines are pumped by the caller — deterministic, for
/// tests and simulation-style experiments.
pub struct InlineCluster {
    cores: Vec<NodeCore>,
    engines: Vec<Engine>,
}

impl InlineCluster {
    /// Builds `n` nodes on a loopback fabric with inline engines.
    pub fn new(n: usize, geo: Geometry, cfg: EngineConfig) -> Result<InlineCluster> {
        InlineCluster::over(fabric(n, 256), geo, cfg)
    }

    /// Builds one node per transport, in the given order: a fresh
    /// communication buffer and wait registry, and an engine over the
    /// transport. Each node's id is its transport's
    /// [`Transport::local_node`], so `node(i)` need not be node `i`.
    pub fn over<T: Transport + 'static>(
        transports: impl IntoIterator<Item = T>,
        geo: Geometry,
        cfg: EngineConfig,
    ) -> Result<InlineCluster> {
        let mut cores = Vec::new();
        let mut engines = Vec::new();
        for transport in transports {
            let core = NodeCore {
                id: transport.local_node(),
                cb: Arc::new(CommBuffer::new(geo)?),
                registry: WaitRegistry::new(),
            };
            engines.push(Engine::new(
                core.cb.clone(),
                Box::new(transport),
                core.registry.clone(),
                cfg,
            ));
            cores.push(core);
        }
        Ok(InlineCluster { cores, engines })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Node `i`'s core.
    pub fn node(&self, i: usize) -> &NodeCore {
        &self.cores[i]
    }

    /// Node `i`'s engine statistics.
    pub fn engine_stats(&self, i: usize) -> Arc<EngineStats> {
        self.engines[i].stats()
    }

    /// Node `i`'s engine telemetry.
    pub fn engine_telemetry(&self, i: usize) -> Arc<flipc_obs::EngineTelemetry> {
        self.engines[i].telemetry()
    }

    /// Node `i`'s engine (e.g. for its transport snapshot).
    pub fn engine(&self, i: usize) -> &Engine {
        &self.engines[i]
    }

    /// Mutable access to node `i`'s engine (e.g. to install rate limits).
    pub fn engine_mut(&mut self, i: usize) -> &mut Engine {
        &mut self.engines[i]
    }

    /// One engine iteration on every node; returns total messages moved.
    pub fn pump(&mut self) -> u32 {
        self.engines.iter_mut().map(|e| e.iterate()).sum()
    }

    /// Pumps until every engine reports idle (or `max_rounds` elapses);
    /// returns true if the cluster went idle.
    ///
    /// Caveat: an engine with rate-limited endpoints can report a
    /// zero-work iteration while messages are merely waiting for token
    /// refills; drive such clusters with a plain [`InlineCluster::pump`]
    /// loop instead.
    pub fn pump_until_idle(&mut self, max_rounds: u32) -> bool {
        for _ in 0..max_rounds {
            if self.pump() == 0 {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_core::endpoint::{EndpointType, Importance};
    use flipc_core::sync::atomic::Ordering;

    #[test]
    fn inline_cluster_roundtrip() {
        let mut cl = InlineCluster::new(3, Geometry::small(), EngineConfig::default()).unwrap();
        let a = cl.node(0).attach();
        let c = cl.node(2).attach();
        let tx = a
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = c
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = c.address(&rx);
        let b = c.buffer_allocate().unwrap();
        c.provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        let mut t = a.buffer_allocate().unwrap();
        a.payload_mut(&mut t)[..2].copy_from_slice(b"ok");
        a.send(&tx, t, dest).unwrap();
        assert!(cl.pump_until_idle(16));
        let got = c.recv(&rx).unwrap().unwrap();
        assert_eq!(&c.payload(&got.token)[..2], b"ok");
    }

    #[test]
    fn over_takes_node_ids_from_the_transports() {
        let node1 = fabric(2, 8).pop().unwrap();
        let mut cl =
            InlineCluster::over([node1], Geometry::small(), EngineConfig::default()).unwrap();
        assert_eq!(cl.len(), 1);
        assert_eq!(cl.node(0).id(), FlipcNodeId(1));
        let app = cl.node(0).attach();
        let tx = app
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = app
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        assert_eq!(app.address(&tx).node(), FlipcNodeId(1));
        assert_eq!(app.address(&rx).node(), FlipcNodeId(1));
        let b = app.buffer_allocate().unwrap();
        app.provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        let t = app.buffer_allocate().unwrap();
        app.send(&tx, t, app.address(&rx)).unwrap();
        assert!(cl.pump_until_idle(8));
        let got = app.recv(&rx).unwrap().expect("node-local delivery");
        assert_eq!(got.from, app.address(&tx));
    }

    #[test]
    fn multiple_apps_share_one_node() {
        let mut cl = InlineCluster::new(1, Geometry::small(), EngineConfig::default()).unwrap();
        let app1 = cl.node(0).attach();
        let app2 = cl.node(0).attach();
        // Each app allocates its own endpoints from the shared buffer.
        let tx = app1
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = app2
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = app2.address(&rx);
        let b = app2.buffer_allocate().unwrap();
        app2.provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        let t = app1.buffer_allocate().unwrap();
        app1.send(&tx, t, dest).unwrap();
        cl.pump_until_idle(8);
        assert!(app2.recv(&rx).unwrap().is_some());
        // Both apps drew from the one shared pool: two buffers are out
        // (app2 holds the received one; app1's is still reclaimable).
        assert_eq!(cl.node(0).commbuf().free_buffers(), 62);
    }

    #[test]
    fn threaded_cluster_roundtrip() {
        let cl = ThreadedCluster::new(2, Geometry::small(), EngineConfig::default()).unwrap();
        let a = cl.node(0).attach();
        let b = cl.node(1).attach();
        let tx = a
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = b
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = b.address(&rx);
        let buf = b.buffer_allocate().unwrap();
        b.provide_receive_buffer(&rx, buf)
            .map_err(|r| r.error)
            .unwrap();
        let mut t = a.buffer_allocate().unwrap();
        a.payload_mut(&mut t)[..5].copy_from_slice(b"hello");
        a.send(&tx, t, dest).unwrap();
        let got = b
            .recv_blocking(&rx, std::time::Duration::from_secs(10))
            .unwrap();
        assert_eq!(&b.payload(&got.token)[..5], b"hello");
        let stats = cl.engine_stats(1).clone();
        cl.shutdown();
        assert_eq!(
            stats.delivered.load(Ordering::Relaxed),
            1,
            "the stopped engine reports its one delivery"
        );
    }
}
