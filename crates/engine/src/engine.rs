//! The messaging engine: FLIPC's independently executing component.
//!
//! On the Paragon this code runs on the dedicated message coprocessor; here
//! it runs on a dedicated thread (see [`crate::thread`]) or is pumped
//! inline (the paper's run-inside-the-kernel debugging configuration; see
//! [`crate::node::InlineCluster`]). Either way it obeys the controller
//! discipline the paper designs for:
//!
//! * **Non-preemptible event loop with bounded work**: one [`Engine::iterate`]
//!   call performs at most a configured budget of receive deliveries and
//!   send transmissions, then returns — added work cannot starve unrelated
//!   communication.
//! * **Wait-free synchronization, loads and stores only**: all interaction
//!   with application threads goes through the three-pointer endpoint
//!   queues, header words, and two-location counters of `flipc-core`. The
//!   engine performs *no* read-modify-write on communication-buffer memory.
//! * **Optimistic transport**: frames are sent without acknowledgement; an
//!   arrival with no queued receive buffer is discarded and counted. Every
//!   node can therefore always accept from the interconnect, which avoids
//!   deadlock on a reliable fabric.
//! * **Priority-aware scanning**: higher-importance send endpoints are
//!   serviced first, so message streams of varying importance (the
//!   distributed real-time requirement) see differentiated service.

use flipc_core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flipc_core::buffer::BufferState;
use flipc_core::checks::{validate_backlog, validate_delivery_at, validate_queued_buffer};
use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointAddress, EndpointIndex, EndpointType, Importance};
use flipc_core::wait::WaitRegistry;
use flipc_obs::{EngineTelemetry, TraceKind, TraceWriter};

use crate::transport::Transport;
use crate::wire::Frame;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum arrivals delivered per iteration.
    pub incoming_budget: u32,
    /// Maximum sends transmitted per iteration.
    pub outgoing_budget: u32,
    /// Maximum frames collected from one send endpoint per drain pass
    /// (the batch the transport may coalesce into one datagram). Bounds
    /// how long one endpoint can hold the scan before equal-importance
    /// neighbours are serviced; the transport sees a `flush` at the end
    /// of every pass regardless. `0` is treated as `1`.
    pub max_batch: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            incoming_budget: 64,
            outgoing_budget: 64,
            max_batch: 16,
        }
    }
}

/// Shared engine statistics (readable while the engine runs).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Frames handed to the transport.
    pub sent: AtomicU64,
    /// Frames delivered into receive buffers.
    pub delivered: AtomicU64,
    /// Frames discarded because the destination endpoint had no buffer.
    pub dropped_no_buffer: AtomicU64,
    /// Frames discarded because the destination endpoint was stale,
    /// inactive, mistyped, or misrouted.
    pub misaddressed: AtomicU64,
    /// Validity-check failures on application-writable state.
    pub check_failures: AtomicU64,
    /// Sends suppressed by a protection domain's destination restriction.
    pub denied: AtomicU64,
    /// Sends failed because the transport's failure detector declared the
    /// destination node dead (the buffer completes and the endpoint's drop
    /// counter records the loss; see `Transport::peer_down`).
    pub peer_down: AtomicU64,
    /// Event-loop iterations executed.
    pub iterations: AtomicU64,
}

impl EngineStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A per-endpoint transmit rate limit: a token bucket measured in payload
/// bytes, refilled once per engine iteration (the event loop is the
/// engine's clock).
#[derive(Clone, Copy, Debug)]
struct RateLimit {
    /// Tokens added per iteration.
    refill: u64,
    /// Maximum accumulated tokens.
    burst: u64,
    /// Tokens available now; the bucket starts full.
    tokens: u64,
}

/// One protection domain served by an engine: a communication buffer, its
/// wait registry, the node-global endpoint-index base its endpoints are
/// published at, and an optional restriction on where it may send.
///
/// Multiple domains per node are the paper's Future Work item: "Support
/// for multiple communication buffers per node and protection mechanisms
/// that restrict where messages can be sent should be added to support
/// multiple applications that do not trust each other." The engine is the
/// trusted component, so it is where the restriction is enforced.
pub struct Domain {
    /// The domain's communication buffer.
    pub cb: Arc<CommBuffer>,
    /// Wakeup registry for this domain's blocking receivers.
    pub registry: Arc<WaitRegistry>,
    /// Node-global index of this domain's endpoint slot 0. Domains must
    /// occupy disjoint index ranges; applications attach with
    /// [`flipc_core::api::Flipc::attach_at`] using the same base.
    pub index_base: u16,
    /// Destination nodes this domain may address; `None` = unrestricted.
    /// Denied sends are discarded, counted on the engine's `denied` stat
    /// and on the *send* endpoint's drop counter so the application can
    /// observe them.
    pub allowed_destinations: Option<Vec<flipc_core::endpoint::FlipcNodeId>>,
}

impl Domain {
    /// An unrestricted domain at index base 0 (the single-application
    /// configuration).
    pub fn unrestricted(cb: Arc<CommBuffer>, registry: Arc<WaitRegistry>) -> Domain {
        Domain {
            cb,
            registry,
            index_base: 0,
            allowed_destinations: None,
        }
    }

    fn endpoints(&self) -> u16 {
        self.cb.geometry().endpoints
    }

    fn contains_global(&self, global: u16) -> bool {
        global >= self.index_base && global - self.index_base < self.endpoints()
    }

    fn may_send_to(&self, node: flipc_core::endpoint::FlipcNodeId) -> bool {
        match &self.allowed_destinations {
            None => true,
            Some(list) => list.contains(&node),
        }
    }
}

/// The messaging engine for one node.
pub struct Engine {
    domains: Vec<Domain>,
    transport: Box<dyn Transport>,
    cfg: EngineConfig,
    stats: Arc<EngineStats>,
    /// Flat endpoint positions, least recently served first: the order
    /// in which each importance class is tried.
    service_order: Vec<u16>,
    /// The endpoints that moved a frame in the current pass, in order.
    served: Vec<u16>,
    /// Transmit rate limits by node-global endpoint index; empty until
    /// the first [`Engine::set_rate_limit`].
    rate_limits: Vec<Option<RateLimit>>,
    /// Always-on wait-free histograms (iteration work, per-endpoint
    /// send→deliver latency). The engine is the single recorder.
    telemetry: Arc<EngineTelemetry>,
    /// Optional event trace; the engine is the single producer.
    trace: Option<TraceWriter>,
}

impl Engine {
    /// Builds an engine over a communication buffer and a transport.
    ///
    /// The `registry` must be the one application handles on this node use
    /// for blocking receives.
    pub fn new(
        cb: Arc<CommBuffer>,
        transport: Box<dyn Transport>,
        registry: Arc<WaitRegistry>,
        cfg: EngineConfig,
    ) -> Engine {
        Engine::new_multi(vec![Domain::unrestricted(cb, registry)], transport, cfg)
    }

    /// Builds an engine serving several protection domains (multiple
    /// communication buffers) over one transport.
    ///
    /// # Panics
    ///
    /// Panics if any buffer is uninitialized or domain index ranges
    /// overlap.
    pub fn new_multi(
        domains: Vec<Domain>,
        transport: Box<dyn Transport>,
        cfg: EngineConfig,
    ) -> Engine {
        assert!(!domains.is_empty(), "engine needs at least one domain");
        for d in &domains {
            assert!(d.cb.magic_ok(), "communication buffer not initialized");
        }
        for (i, a) in domains.iter().enumerate() {
            for b in domains.iter().skip(i + 1) {
                let a_end = a.index_base + a.endpoints();
                let b_end = b.index_base + b.endpoints();
                assert!(
                    a_end <= b.index_base || b_end <= a.index_base,
                    "domain endpoint-index ranges overlap"
                );
            }
        }
        // Telemetry spans the node-global endpoint index space so latency
        // samples land on the index applications see in addresses.
        let total_endpoints = domains
            .iter()
            .map(|d| usize::from(d.index_base) + usize::from(d.endpoints()))
            .max()
            .unwrap_or(0);
        let flat_endpoints: u16 = domains.iter().map(Domain::endpoints).sum();
        Engine {
            domains,
            transport,
            cfg,
            stats: Arc::new(EngineStats::default()),
            service_order: (0..flat_endpoints).collect(),
            served: Vec::with_capacity(usize::from(flat_endpoints)),
            rate_limits: Vec::new(),
            telemetry: EngineTelemetry::new(total_endpoints),
            trace: None,
        }
    }

    /// Installs a transmit rate limit (capacity control, the paper's
    /// Future Work item 4) on endpoint slot `ep`: at most
    /// `bytes_per_iteration` payload bytes per event-loop pass, with up to
    /// `burst` bytes of accumulated credit. Messages over the limit stay
    /// queued — nothing is dropped. A message is charged only once it
    /// has gone to the transport or been delivered locally; one the wire
    /// refuses, or one denied or failed onto the drop counter, costs
    /// nothing. (`ep` is the node-global endpoint index: domain base +
    /// slot.)
    pub fn set_rate_limit(&mut self, ep: EndpointIndex, bytes_per_iteration: u64, burst: u64) {
        let i = usize::from(ep.0);
        if self.rate_limits.len() <= i {
            self.rate_limits.resize(i + 1, None);
        }
        self.rate_limits[i] = Some(RateLimit {
            refill: bytes_per_iteration,
            burst,
            tokens: burst,
        });
    }

    /// Removes a previously installed rate limit.
    pub fn clear_rate_limit(&mut self, ep: EndpointIndex) {
        if let Some(limit) = self.rate_limits.get_mut(usize::from(ep.0)) {
            *limit = None;
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<EngineStats> {
        self.stats.clone()
    }

    /// Shared telemetry handle: loads-only histogram snapshots of
    /// iteration work and per-endpoint send→deliver latency, readable
    /// while the engine runs (same inspect discipline as
    /// [`flipc_core::inspect`]).
    pub fn telemetry(&self) -> Arc<EngineTelemetry> {
        self.telemetry.clone()
    }

    /// Installs the producer half of a trace ring; subsequent engine
    /// activity emits [`TraceKind`] events into it. The engine never
    /// blocks on a full ring — overflow events are dropped and tallied on
    /// the ring's lost counter.
    pub fn set_trace(&mut self, trace: TraceWriter) {
        self.trace = Some(trace);
    }

    /// Builds a trace ring of `capacity` events, installs its producer
    /// half on this engine, and hands back the consumer half — the
    /// one-call form of [`Engine::set_trace`] used by observers
    /// (`flipc-top`, the stall monitor).
    pub fn install_trace(&mut self, capacity: usize) -> flipc_obs::TraceReader {
        let (w, r) = flipc_obs::trace_ring(capacity);
        self.set_trace(w);
        r
    }

    /// A loads-only snapshot of the transport's reliability state, when
    /// the transport keeps one (`None` for in-process carriers). Observer
    /// surface — never called from the event loop.
    pub fn transport_snapshot(&self) -> Option<flipc_core::inspect::TransportSnapshot> {
        self.transport.snapshot()
    }

    /// The node this engine serves.
    pub fn node(&self) -> flipc_core::endpoint::FlipcNodeId {
        self.transport.local_node()
    }

    /// Runs one bounded event-loop iteration; returns the number of
    /// messages moved (sent + delivered + discarded). Zero means idle.
    pub fn iterate(&mut self) -> u32 {
        EngineStats::bump(&self.stats.iterations);
        for limit in self.rate_limits.iter_mut().flatten() {
            limit.tokens = limit.tokens.saturating_add(limit.refill).min(limit.burst);
        }
        let mut work = 0;
        work += self.pump_incoming();
        work += self.pump_outgoing();
        // Telemetry rides the loop's tail: one wait-free histogram record
        // of how much this pass moved (the engine's occupancy signal), and
        // a trace event for any reliability-layer retransmissions the
        // transport performed while we pumped it.
        self.telemetry.record_iteration_work(u64::from(work));
        if let Some(t) = self.trace.as_mut() {
            let rexmit = self.transport.retransmits_since_poll();
            if rexmit > 0 {
                t.event(
                    TraceKind::Retransmit,
                    self.transport.local_node().0,
                    u16::MAX,
                    rexmit,
                );
            }
        }
        work
    }

    // ------------------------------------------------------------------
    // Receive path.
    // ------------------------------------------------------------------

    fn pump_incoming(&mut self) -> u32 {
        let mut done = 0;
        while done < self.cfg.incoming_budget {
            let Some(frame) = self.transport.try_recv() else {
                break;
            };
            self.deliver(frame);
            done += 1;
        }
        done
    }

    fn deliver(&mut self, frame: Frame) {
        let local = self.transport.local_node();
        // Route to the protection domain owning the destination index.
        let Some(dom) = self
            .domains
            .iter()
            .position(|d| d.contains_global(frame.dst.index().0))
        else {
            // No domain owns the index: misaddressed at node scope; count
            // it on the first domain's buffer so applications can observe
            // it (there is always at least one domain).
            self.domains[0].cb.misaddressed_engine().increment();
            EngineStats::bump(&self.stats.misaddressed);
            if let Some(t) = self.trace.as_mut() {
                t.event(TraceKind::Misaddressed, local.0, frame.dst.index().0, 0);
            }
            return;
        };
        let domain = &self.domains[dom];
        let cb = &domain.cb;
        let didx = match validate_delivery_at(cb, local, frame.dst, domain.index_base) {
            Ok(i) => i,
            Err(_) => {
                cb.misaddressed_engine().increment();
                EngineStats::bump(&self.stats.misaddressed);
                if let Some(t) = self.trace.as_mut() {
                    t.event(TraceKind::Misaddressed, local.0, frame.dst.index().0, 0);
                }
                return;
            }
        };
        let Ok(q) = cb.engine_queue(didx) else {
            EngineStats::bump(&self.stats.misaddressed);
            return;
        };
        if validate_backlog(&q).is_err() {
            // Corrupted release pointer: treat the endpoint as having no
            // usable buffers; the message is discarded and counted.
            Self::count_drop(&self.stats, &mut self.trace, local.0, cb, didx, &frame);
            EngineStats::bump(&self.stats.check_failures);
            return;
        }
        let Some(buf) = q.peek() else {
            // The defining optimistic-transport move: no receive buffer
            // queued, so the message is discarded and the wait-free drop
            // counter ticks. The application learns via `drops()`.
            Self::count_drop(&self.stats, &mut self.trace, local.0, cb, didx, &frame);
            return;
        };
        if validate_queued_buffer(cb, buf).is_err() {
            // The ring slot held garbage. Skip the slot (bounded: one per
            // arrival) and count both a check failure and a drop.
            q.advance();
            Self::count_drop(&self.stats, &mut self.trace, local.0, cb, didx, &frame);
            EngineStats::bump(&self.stats.check_failures);
            return;
        }
        let n = frame.payload.len().min(cb.payload_size());
        // SAFETY: The engine owns `buf` between `peek` and `advance`; no
        // application thread may access it until the process pointer moves.
        unsafe { cb.payload_write(buf, &frame.payload[..n]) };
        cb.header(buf).store(frame.src, BufferState::Processed);
        q.advance();
        EngineStats::bump(&self.stats.delivered);
        // Send→deliver latency: only frames stamped by an engine whose
        // clock we share (node-local bypass and in-process transports; an
        // off-the-wire decode leaves the stamp 0, because two processes'
        // monotonic clocks are not comparable).
        if frame.stamp_ns != 0 {
            self.telemetry.record_deliver_latency(
                usize::from(frame.dst.index().0),
                flipc_obs::now_ns().saturating_sub(frame.stamp_ns),
            );
        }
        if let Some(t) = self.trace.as_mut() {
            t.event(TraceKind::Deliver, local.0, frame.dst.index().0, n as u32);
        }
        // The `advance` store must be globally visible before the waiter
        // count is read: a blocking receiver raises its count, fences, and
        // re-polls the ring, so with this fence at least one side always
        // sees the other (plain Release/Acquire would let the StoreLoad
        // pair reorder and the wakeup get lost).
        flipc_core::sync::atomic::fence(Ordering::SeqCst);
        // Kernel-wakeup role: only if a thread said it was blocking.
        let waiters = cb.waiters(didx).unwrap_or(0);
        if waiters > 0 {
            domain.registry.wake(didx);
            if let Some(t) = self.trace.as_mut() {
                t.event(TraceKind::Wakeup, local.0, frame.dst.index().0, waiters);
            }
        }
    }

    fn count_drop(
        stats: &EngineStats,
        trace: &mut Option<TraceWriter>,
        node: u16,
        cb: &CommBuffer,
        ep: EndpointIndex,
        frame: &Frame,
    ) {
        if let Ok(c) = cb.drops_engine(ep) {
            c.increment();
        }
        EngineStats::bump(&stats.dropped_no_buffer);
        if let Some(t) = trace.as_mut() {
            t.event(
                TraceKind::Drop,
                node,
                frame.dst.index().0,
                frame.payload.len() as u32,
            );
        }
    }

    // ------------------------------------------------------------------
    // Send path.
    // ------------------------------------------------------------------

    fn pump_outgoing(&mut self) -> u32 {
        let mut budget = self.cfg.outgoing_budget;
        let mut done = 0;
        // Importance classes high to low across ALL domains. Within a
        // class, endpoints are tried least recently served first.
        for importance in [Importance::High, Importance::Normal, Importance::Low] {
            for pos in 0..self.service_order.len() {
                if budget == 0 {
                    break;
                }
                let flat = self.service_order[pos];
                let Some((dom, idx)) = self.flat_to_domain(flat) else {
                    continue;
                };
                if !self.endpoint_sendable(dom, idx, importance) {
                    continue;
                }
                let moved = self.drain_send_endpoint(dom, idx, &mut budget);
                // An endpoint reallocated mid-pass into a later class can
                // be reached twice; it is recorded once.
                if moved > 0 && !self.served.contains(&flat) {
                    self.served.push(flat);
                }
                done += moved;
            }
        }
        // Round robin: an endpoint that moved goes to the back, behind
        // every endpoint that waited, including those a full wire refused.
        // So equal-importance endpoints sharing a path take turns of at
        // most `max_batch` frames, whatever other paths and classes do and
        // however many passes find the wire full. A pass that moved nothing
        // changes nothing.
        if !self.served.is_empty() {
            let served = &self.served;
            self.service_order.retain(|flat| !served.contains(flat));
            self.service_order.extend_from_slice(&self.served);
            self.served.clear();
        }
        // End of the drain pass: the batch boundary. A coalescing
        // transport transmits everything staged above; eager transports
        // no-op.
        self.transport.flush();
        done
    }

    /// Maps a flat scan position onto (domain, local endpoint index).
    fn flat_to_domain(&self, flat: u16) -> Option<(usize, EndpointIndex)> {
        let mut rest = flat;
        for (d, dom) in self.domains.iter().enumerate() {
            let n = dom.endpoints();
            if rest < n {
                return Some((d, EndpointIndex(rest)));
            }
            rest -= n;
        }
        None
    }

    fn endpoint_sendable(&self, dom: usize, idx: EndpointIndex, importance: Importance) -> bool {
        let cb = &self.domains[dom].cb;
        match (
            cb.endpoint_gen_active(idx),
            cb.endpoint_type(idx),
            cb.endpoint_importance(idx),
        ) {
            (Ok((_, true)), Ok(EndpointType::Send), Ok(imp)) => imp == importance,
            _ => false,
        }
    }

    /// Transmits queued messages from one endpoint until it drains, the
    /// per-endpoint batch cap (`max_batch`) is reached, the budget runs
    /// out, or the wire backpressures. The frames collected here form one
    /// batch from the transport's point of view: it may stage them and
    /// coalesce on the end-of-pass [`Transport::flush`].
    fn drain_send_endpoint(&mut self, dom: usize, idx: EndpointIndex, budget: &mut u32) -> u32 {
        let max_batch = self.cfg.max_batch.max(1);
        let mut done = 0;
        while *budget > 0 && done < max_batch {
            let cb = self.domains[dom].cb.clone();
            let index_base = self.domains[dom].index_base;
            let Ok(q) = cb.engine_queue(idx) else { break };
            if validate_backlog(&q).is_err() {
                // Corrupted queue: skip the endpoint entirely this pass.
                EngineStats::bump(&self.stats.check_failures);
                break;
            }
            let Some(buf) = q.peek() else { break };
            if validate_queued_buffer(&cb, buf).is_err() {
                q.advance();
                EngineStats::bump(&self.stats.check_failures);
                *budget -= 1;
                continue;
            }
            let global_idx = index_base + idx.0;
            // Capacity control: if this endpoint's token bucket cannot
            // cover the message, leave it queued and move on. The tokens
            // are spent below, once the message has actually moved.
            let cost = cb.payload_size() as u64;
            if let Some(Some(limit)) = self.rate_limits.get(usize::from(global_idx)) {
                if limit.tokens < cost {
                    break;
                }
            }
            let (dest, _) = cb.header(buf).load();
            let Ok((gen, _)) = cb.endpoint_gen_active(idx) else {
                break;
            };

            // Protection: an untrusting-domain configuration restricts
            // where this buffer's messages may go. Denied messages are
            // discarded (the buffer completes so the application can
            // reclaim it) and counted on the send endpoint's drop counter.
            if !self.domains[dom].may_send_to(dest.node()) {
                cb.header(buf).set_state(BufferState::Processed);
                q.advance();
                if let Ok(c) = cb.drops_engine(idx) {
                    c.increment();
                }
                EngineStats::bump(&self.stats.denied);
                *budget -= 1;
                continue;
            }

            // Peer lifecycle: a destination declared dead by the failure
            // detector fails fast instead of black-holing. The buffer
            // completes (the application reclaims it), the loss lands on
            // the endpoint's drop counter, and the transport spends no
            // datagram. The peer's return re-admits it automatically.
            if dest.node() != self.transport.local_node() && self.transport.peer_down(dest.node()) {
                cb.header(buf).set_state(BufferState::Processed);
                q.advance();
                if let Ok(c) = cb.drops_engine(idx) {
                    c.increment();
                }
                EngineStats::bump(&self.stats.peer_down);
                *budget -= 1;
                continue;
            }

            let src =
                EndpointAddress::new(self.transport.local_node(), EndpointIndex(global_idx), gen);
            let mut payload = vec![0u8; cb.payload_size()].into_boxed_slice();
            // SAFETY: The engine owns `buf` between `peek` and `advance`.
            unsafe { cb.payload_read(buf, &mut payload) };
            let frame = Frame {
                src,
                dst: dest,
                payload,
                // Stamped at transmit: the delivery path (here for the
                // node-local bypass, a peer engine sharing our clock for
                // in-process transports) turns this into a send→deliver
                // latency sample.
                stamp_ns: flipc_obs::now_ns(),
            };

            if dest.node() == self.transport.local_node() {
                // Node-local delivery bypasses the interconnect (possibly
                // into another domain on this node). Mark the send
                // complete first (releasing the queue view, since
                // `deliver` needs `&mut self`), then deliver.
                cb.header(buf).set_state(BufferState::Processed);
                q.advance();
                self.deliver(frame);
            } else {
                if !self.transport.try_send(dest.node(), &frame) {
                    // Wire full: leave the buffer queued (do NOT advance)
                    // and retry on a later iteration. Bounded: we stop
                    // this endpoint now.
                    break;
                }
                cb.header(buf).set_state(BufferState::Processed);
                q.advance();
            }
            if let Some(Some(limit)) = self.rate_limits.get_mut(usize::from(global_idx)) {
                limit.tokens = limit.tokens.saturating_sub(cost);
            }
            EngineStats::bump(&self.stats.sent);
            if let Some(t) = self.trace.as_mut() {
                t.event(
                    TraceKind::Send,
                    self.transport.local_node().0,
                    global_idx,
                    cb.payload_size() as u32,
                );
            }
            *budget -= 1;
            done += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::fabric;
    use crate::node::InlineCluster;
    use flipc_core::api::Flipc;
    use flipc_core::endpoint::FlipcNodeId;
    use flipc_core::layout::Geometry;

    struct World {
        flipc: Vec<Flipc>,
        cl: InlineCluster,
    }

    fn world(n: usize) -> World {
        world_with(n, EngineConfig::default(), Geometry::small())
    }

    fn world_with(n: usize, cfg: EngineConfig, geo: Geometry) -> World {
        let (flipc, cl) = cluster(fabric(n, 64), geo, cfg);
        World { flipc, cl }
    }

    /// One inline node per transport, and an application handle on each.
    pub(super) fn cluster<T: Transport + 'static>(
        transports: impl IntoIterator<Item = T>,
        geo: Geometry,
        cfg: EngineConfig,
    ) -> (Vec<Flipc>, InlineCluster) {
        let cl = InlineCluster::over(transports, geo, cfg).unwrap();
        let flipc = (0..cl.len()).map(|i| cl.node(i).attach()).collect();
        (flipc, cl)
    }

    impl World {
        fn pump(&mut self) {
            // A few sweeps so sends on node A arrive at node B within one
            // call even with local+remote hops.
            for _ in 0..4 {
                self.cl.pump();
            }
        }
    }

    fn send_bytes(
        f: &Flipc,
        ep: &flipc_core::api::LocalEndpoint,
        dest: EndpointAddress,
        data: &[u8],
    ) {
        let mut t = f.buffer_allocate().unwrap();
        f.payload_mut(&mut t)[..data.len()].copy_from_slice(data);
        f.send(ep, t, dest).unwrap();
    }

    #[test]
    fn end_to_end_delivery_between_nodes() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        let buf = w.flipc[1].buffer_allocate().unwrap();
        w.flipc[1]
            .provide_receive_buffer(&rx, buf)
            .map_err(|r| r.error)
            .unwrap();

        send_bytes(&w.flipc[0], &tx, dest, b"hello paragon");
        w.pump();

        let got = w.flipc[1].recv(&rx).unwrap().unwrap();
        assert_eq!(&w.flipc[1].payload(&got.token)[..13], b"hello paragon");
        assert_eq!(got.from.node(), FlipcNodeId(0));
        // Sender can reclaim its buffer (step 5).
        let back = w.flipc[0].reclaim_send(&tx).unwrap();
        assert!(back.is_some());
    }

    #[test]
    fn node_local_delivery_bypasses_the_wire() {
        let mut w = world(1);
        let f = &w.flipc[0];
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = f
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = f.address(&rx);
        let b = f.buffer_allocate().unwrap();
        f.provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        send_bytes(f, &tx, dest, b"local");
        w.cl.engine_mut(0).iterate();
        let got = w.flipc[0].recv(&rx).unwrap().unwrap();
        assert_eq!(&w.flipc[0].payload(&got.token)[..5], b"local");
    }

    #[test]
    fn ordering_is_preserved_per_endpoint_pair() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        for _ in 0..16 {
            let b = w.flipc[1].buffer_allocate().unwrap();
            w.flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        for i in 0..10u8 {
            send_bytes(&w.flipc[0], &tx, dest, &[i]);
            // Reclaim as we go so the send ring never fills.
            let _ = w.flipc[0].reclaim_send(&tx);
            w.pump();
        }
        for i in 0..10u8 {
            let got = w.flipc[1].recv(&rx).unwrap().unwrap();
            assert_eq!(w.flipc[1].payload(&got.token)[0], i, "out of order");
        }
    }

    #[test]
    fn no_receive_buffer_discards_and_counts() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        for i in 0..5u8 {
            send_bytes(&w.flipc[0], &tx, dest, &[i]);
        }
        w.pump();
        assert_eq!(w.flipc[1].drops_reset(&rx).unwrap(), 5);
        assert!(w.flipc[1].recv(&rx).unwrap().is_none());
        // The sender's buffers still complete: optimistic send never blocks
        // on the receiver.
        let mut reclaimed = 0;
        while w.flipc[0].reclaim_send(&tx).unwrap().is_some() {
            reclaimed += 1;
        }
        assert_eq!(reclaimed, 5);
    }

    #[test]
    fn stale_address_is_misaddressed_not_delivered() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let stale = w.flipc[1].address(&rx);
        // Free and reallocate the endpoint: the old address's generation is
        // now stale.
        w.flipc[1].endpoint_free(rx).unwrap();
        let rx2 = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let b = w.flipc[1].buffer_allocate().unwrap();
        w.flipc[1]
            .provide_receive_buffer(&rx2, b)
            .map_err(|r| r.error)
            .unwrap();

        send_bytes(&w.flipc[0], &tx, stale, b"ghost");
        w.pump();
        assert!(
            w.flipc[1].recv(&rx2).unwrap().is_none(),
            "stale traffic must not leak"
        );
        assert_eq!(w.flipc[1].misaddressed_reset(), 1);
        assert_eq!(w.cl.engine_stats(1).misaddressed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn high_importance_sends_first() {
        // Queue on a low-importance endpoint first, then a high one; with a
        // tiny outgoing budget the high-importance message must still win.
        let cfg = EngineConfig {
            outgoing_budget: 1,
            ..Default::default()
        };
        let mut w = world_with(2, cfg, Geometry::small());
        let lo = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Low)
            .unwrap();
        let hi = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::High)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        for _ in 0..4 {
            let b = w.flipc[1].buffer_allocate().unwrap();
            w.flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        send_bytes(&w.flipc[0], &lo, dest, b"maintenance");
        send_bytes(&w.flipc[0], &hi, dest, b"missile!");
        // One outgoing slot this iteration: the high-importance endpoint
        // gets it despite being queued later.
        w.cl.pump();
        let first = w.flipc[1].recv(&rx).unwrap().unwrap();
        assert_eq!(&w.flipc[1].payload(&first.token)[..8], b"missile!");
    }

    #[test]
    fn wire_backpressure_retries_without_loss() {
        // Wire depth 2, but 6 messages queued: the engine must deliver all
        // of them across iterations without losing or reordering any.
        let (flipc, mut cl) = cluster(fabric(2, 2), Geometry::small(), EngineConfig::default());
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
        for i in 0..6u8 {
            let mut t = flipc[0].buffer_allocate().unwrap();
            flipc[0].payload_mut(&mut t)[0] = i;
            flipc[0].send(&tx, t, dest).unwrap();
        }
        for _ in 0..10 {
            cl.pump();
        }
        for i in 0..6u8 {
            let got = flipc[1].recv(&rx).unwrap().unwrap();
            assert_eq!(flipc[1].payload(&got.token)[0], i);
        }
        assert_eq!(flipc[1].drops_reset(&rx).unwrap(), 0);
    }

    #[test]
    fn corrupted_ring_slot_cannot_stall_the_engine() {
        let mut w = world(2);
        let f = &w.flipc[0];
        let tx = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        // Errant application: scribble an out-of-range buffer index into
        // the ring and bump release by smashing raw words.
        let lay = f.commbuf().layout();
        let slot_off = lay.ring_slot(tx.index().0, 0);
        f.commbuf()
            .raw_word(slot_off)
            .store(0xFFFF_FFFF, Ordering::Relaxed);
        let rel_off = lay.endpoint(tx.index().0) + flipc_core::layout::EP_RELEASE;
        f.commbuf().raw_word(rel_off).store(1, Ordering::Relaxed);

        // The engine must complete its iteration, flag the check failure,
        // and keep serving other traffic.
        let stats = w.cl.engine_stats(0);
        w.cl.engine_mut(0).iterate();
        assert!(stats.check_failures.load(Ordering::Relaxed) >= 1);

        // Other endpoints still work end to end.
        let tx2 = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        let b = w.flipc[1].buffer_allocate().unwrap();
        w.flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        send_bytes(&w.flipc[0], &tx2, dest, b"alive");
        w.pump();
        assert!(w.flipc[1].recv(&rx).unwrap().unwrap().token.index() < 64);
    }

    #[test]
    fn iteration_work_is_bounded_by_budget() {
        let cfg = EngineConfig {
            incoming_budget: 4,
            outgoing_budget: 4,
            ..Default::default()
        };
        let mut w = world_with(
            2,
            cfg,
            Geometry {
                ring_capacity: 32,
                ..Geometry::small()
            },
        );
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        for i in 0..20u8 {
            send_bytes(&w.flipc[0], &tx, dest, &[i]);
        }
        // One iteration can move at most outgoing_budget messages.
        let moved = w.cl.engine_mut(0).iterate();
        assert!(moved <= 4, "engine exceeded its bounded work ({moved})");
        assert_eq!(w.cl.engine_stats(0).sent.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn blocking_receiver_is_woken_by_engine() {
        let mut w = world(2);
        let tx = w.flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = w.flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = w.flipc[1].address(&rx);
        let b = w.flipc[1].buffer_allocate().unwrap();
        w.flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();

        // Run the receiving app on another thread; pump engines here.
        let replacement = Flipc::attach(
            w.flipc[1].commbuf().clone(),
            FlipcNodeId(1),
            w.flipc[1].registry().clone(),
        );
        let f1 = std::mem::replace(&mut w.flipc[1], replacement);
        let waiter = std::thread::spawn(move || {
            let got = f1
                .recv_blocking(&rx, std::time::Duration::from_secs(10))
                .unwrap();
            f1.payload(&got.token)[0]
        });
        while w.flipc[1].commbuf().waiters(EndpointIndex(0)).unwrap() == 0 {
            std::thread::yield_now();
        }
        send_bytes(&w.flipc[0], &tx, dest, &[42]);
        w.pump();
        assert_eq!(waiter.join().unwrap(), 42);
    }
}

#[cfg(test)]
mod shaping_tests {
    use super::tests::cluster;
    use super::*;
    use crate::loopback::{fabric, LoopbackPort};
    use flipc_core::endpoint::FlipcNodeId;
    use flipc_core::layout::Geometry;

    /// Capacity control (Future Work item 4): a rate-limited endpoint's
    /// throughput is capped while an unlimited endpoint on the same node
    /// flows freely, and no limited message is ever dropped — it just
    /// waits.
    #[test]
    fn rate_limited_endpoint_is_throttled_not_dropped() {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            ..Geometry::small()
        };
        let (flipc, mut cl) = cluster(fabric(2, 256), geo, EngineConfig::default());
        let limited = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let free = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        for _ in 0..32 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        // One 120-byte payload per iteration for the limited endpoint.
        let payload = flipc[0].payload_size() as u64;
        cl.engine_mut(0)
            .set_rate_limit(limited.index(), payload, payload);

        for i in 0..8u8 {
            let mut t = flipc[0].buffer_allocate().unwrap();
            flipc[0].payload_mut(&mut t)[0] = i;
            flipc[0].send(&limited, t, dest).unwrap();
            let mut t = flipc[0].buffer_allocate().unwrap();
            flipc[0].payload_mut(&mut t)[0] = 100 + i;
            flipc[0].send(&free, t, dest).unwrap();
        }
        // One iteration: the free endpoint drains entirely; the limited
        // one sends exactly one message (its per-iteration budget).
        cl.pump();
        let mut limited_got = 0;
        let mut free_got = 0;
        while let Some(r) = flipc[1].recv(&rx).unwrap() {
            if flipc[1].payload(&r.token)[0] >= 100 {
                free_got += 1;
            } else {
                limited_got += 1;
            }
        }
        assert_eq!(free_got, 8, "unlimited endpoint must drain in one pass");
        assert_eq!(
            limited_got, 1,
            "limited endpoint gets one message per iteration"
        );

        // The rest arrive over subsequent iterations — throttled, never
        // dropped.
        for _ in 0..10 {
            cl.pump();
        }
        while let Some(r) = flipc[1].recv(&rx).unwrap() {
            assert!(flipc[1].payload(&r.token)[0] < 100);
            limited_got += 1;
        }
        assert_eq!(limited_got, 8);
        assert_eq!(flipc[1].drops_reset(&rx).unwrap(), 0);
    }

    /// Clearing a limit restores full-speed service.
    #[test]
    fn clear_rate_limit_restores_throughput() {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            ..Geometry::small()
        };
        let (flipc, mut cl) = cluster(fabric(2, 256), geo, EngineConfig::default());
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        for _ in 0..16 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        cl.engine_mut(0).set_rate_limit(tx.index(), 0, 0); // fully blocked
        for _ in 0..4 {
            let t = flipc[0].buffer_allocate().unwrap();
            flipc[0].send(&tx, t, dest).unwrap();
        }
        for _ in 0..5 {
            cl.pump();
        }
        assert!(
            flipc[1].recv(&rx).unwrap().is_none(),
            "blocked endpoint leaked"
        );
        cl.engine_mut(0).clear_rate_limit(tx.index());
        for _ in 0..3 {
            cl.pump();
        }
        let mut got = 0;
        while flipc[1].recv(&rx).unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, 4);
    }

    /// A wire that refuses every other send, as a window that keeps
    /// filling would, and whose failure detector reports node 2 dead.
    struct FlakyWire {
        inner: LoopbackPort,
        refuse: bool,
    }

    impl Transport for FlakyWire {
        fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
            self.refuse = !self.refuse;
            !self.refuse && self.inner.try_send(dst, frame)
        }
        fn try_recv(&mut self) -> Option<Frame> {
            self.inner.try_recv()
        }
        fn local_node(&self) -> FlipcNodeId {
            self.inner.local_node()
        }
        fn peer_down(&self, dst: FlipcNodeId) -> bool {
            dst == FlipcNodeId(2)
        }
    }

    /// A limited endpoint pays only for messages that move. It alternates
    /// sends to live node 1 and dead node 2 over a wire that refuses every
    /// other send, under a one-message-per-iteration limit with a
    /// two-message burst. Each iteration still moves one message to node 1:
    /// the refused attempt and the send failed onto the drop counter cost
    /// no tokens, so they cannot eat the next pass's allowance.
    #[test]
    fn refused_and_failed_sends_do_not_spend_the_rate_limit() {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            ..Geometry::small()
        };
        let ports = fabric(3, 256).into_iter().map(|inner| FlakyWire {
            inner,
            refuse: true,
        });
        let (flipc, mut cl) = cluster(ports, geo, EngineConfig::default());
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let live = flipc[1].address(&rx);
        let dead = EndpointAddress::new(FlipcNodeId(2), EndpointIndex(0), 1);
        for _ in 0..15 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
            for dest in [live, dead] {
                let t = flipc[0].buffer_allocate().unwrap();
                flipc[0].send(&tx, t, dest).unwrap();
            }
        }
        let payload = flipc[0].payload_size() as u64;
        cl.engine_mut(0)
            .set_rate_limit(tx.index(), payload, 2 * payload);

        const ITERATIONS: usize = 12;
        for _ in 0..ITERATIONS {
            cl.pump();
        }
        let mut got = 0;
        while flipc[1].recv(&rx).unwrap().is_some() {
            got += 1;
        }
        assert_eq!(
            got, ITERATIONS,
            "one message per iteration, as the rate allows"
        );
        assert_eq!(
            cl.engine_stats(0).peer_down.load(Ordering::Relaxed),
            ITERATIONS as u64
        );
        assert_eq!(flipc[1].drops_reset(&rx).unwrap(), 0);
    }
}

#[cfg(test)]
mod fairness_tests {
    use super::tests::cluster;
    use super::*;
    use crate::loopback::fabric;
    use flipc_core::layout::Geometry;

    /// Equal-importance endpoints share service round-robin: with a
    /// one-message budget per iteration, busy endpoints alternate rather
    /// than one draining completely first.
    #[test]
    fn equal_importance_endpoints_share_service() {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            ..Geometry::small()
        };
        let cfg = EngineConfig {
            outgoing_budget: 1,
            ..Default::default()
        };
        let (flipc, mut cl) = cluster(fabric(2, 256), geo, cfg);
        let ep_a = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let ep_b = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        for _ in 0..16 {
            let b = flipc[1].buffer_allocate().unwrap();
            flipc[1]
                .provide_receive_buffer(&rx, b)
                .map_err(|r| r.error)
                .unwrap();
        }
        for i in 0..4u8 {
            for (tag, ep) in [(b'a', &ep_a), (b'b', &ep_b)] {
                let mut t = flipc[0].buffer_allocate().unwrap();
                flipc[0].payload_mut(&mut t)[0] = tag;
                flipc[0].payload_mut(&mut t)[1] = i;
                flipc[0].send(ep, t, dest).unwrap();
            }
        }
        // Eight iterations at one message each: arrivals must alternate
        // a/b rather than aaaa bbbb.
        let mut order = Vec::new();
        for _ in 0..8 {
            cl.pump();
            while let Some(r) = flipc[1].recv(&rx).unwrap() {
                order.push(flipc[1].payload(&r.token)[0]);
            }
        }
        assert_eq!(order.len(), 8);
        let max_consecutive = order
            .windows(2)
            .fold((1u32, 1u32), |(max, cur), w| {
                if w[0] == w[1] {
                    (max.max(cur + 1), cur + 1)
                } else {
                    (max, 1)
                }
            })
            .0;
        assert!(
            max_consecutive <= 2,
            "service not shared: arrival order {:?}",
            order.iter().map(|&c| c as char).collect::<String>()
        );
    }

    /// What else node 0 transmits while its endpoints A and B share the
    /// wire to node 1.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Neighbour {
        Quiet,
        /// A `Low` bulk sender delivering node-locally: it moves frames
        /// on every pass, after the `Normal` class.
        LowLocal,
        /// A `Normal` bulk sender to node 2, allocated after B.
        OtherPeer,
        /// Two `Normal` bulk senders, C and D, sharing the wire to node 2,
        /// whose receiver runs only every other round.
        ContendedOtherPeer,
    }

    /// Backlogged endpoints on node 0 stream over four-frame wires while
    /// the sender engine runs `passes` drain passes per receiver pass, so
    /// most passes find a wire full. Returns the arrival order at node 1
    /// (`true` for A) and at node 2 (`true` for the first sender there).
    fn backlogged_arrivals(max_batch: u32, passes: usize, neighbour: Neighbour) -> [Vec<bool>; 2] {
        let geo = Geometry {
            ring_capacity: 32,
            buffers: 128,
            ..Geometry::small()
        };
        let cfg = EngineConfig {
            max_batch,
            ..Default::default()
        };
        let (flipc, mut cl) = cluster(fabric(3, 4), geo, cfg);
        let receivers = [1, 2].map(|node| {
            let rx = flipc[node]
                .endpoint_allocate(EndpointType::Receive, Importance::Normal)
                .unwrap();
            for _ in 0..16 {
                let b = flipc[node].buffer_allocate().unwrap();
                flipc[node]
                    .provide_receive_buffer(&rx, b)
                    .map_err(|r| r.error)
                    .unwrap();
            }
            rx
        });
        let dests = [
            flipc[1].address(&receivers[0]),
            flipc[2].address(&receivers[1]),
        ];
        let sender = |importance| {
            flipc[0]
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
                let local = flipc[0]
                    .endpoint_allocate(EndpointType::Receive, Importance::Normal)
                    .unwrap();
                senders.push((sender(Importance::Low), flipc[0].address(&local)));
            }
            Neighbour::OtherPeer => senders.push((sender(Importance::Normal), dests[1])),
            Neighbour::ContendedOtherPeer => {
                senders.push((sender(Importance::Normal), dests[1]));
                senders.push((sender(Importance::Normal), dests[1]));
            }
        }
        for (ep, dest) in &senders {
            for _ in 0..8 {
                let t = flipc[0].buffer_allocate().unwrap();
                flipc[0].send(ep, t, *dest).map_err(|r| r.error).unwrap();
            }
        }
        let first_to = [senders[0].0.index(), senders[senders.len() - 1].0.index()];
        let mut orders = [Vec::new(), Vec::new()];
        for round in 0..200 {
            for _ in 0..passes {
                cl.engine_mut(0).iterate();
            }
            cl.engine_mut(1).iterate();
            if round % 2 == 1 {
                cl.engine_mut(2).iterate();
            }
            for (k, node) in [1, 2].into_iter().enumerate() {
                while let Some(r) = flipc[node].recv(&receivers[k]).unwrap() {
                    orders[k].push(r.from.index() == first_to[k]);
                    flipc[node]
                        .provide_receive_buffer(&receivers[k], r.token)
                        .map_err(|r| r.error)
                        .unwrap();
                }
            }
            // Resend every completed buffer: every queue stays backlogged.
            for (ep, dest) in &senders {
                while let Some(t) = flipc[0].reclaim_send(ep).unwrap() {
                    flipc[0].send(ep, t, *dest).map_err(|r| r.error).unwrap();
                }
            }
        }
        orders
    }

    /// Endpoints waiting on a full wire are served before the one that
    /// just sent, whatever the number of passes that found the wire full
    /// and whatever other classes and paths move meanwhile. Otherwise one
    /// endpoint can take every refill while its equal-importance peer on
    /// the same path starves.
    #[test]
    fn full_wire_passes_do_not_skip_a_waiting_endpoint() {
        for neighbour in [
            Neighbour::Quiet,
            Neighbour::LowLocal,
            Neighbour::OtherPeer,
            Neighbour::ContendedOtherPeer,
        ] {
            for max_batch in [2, 16] {
                for passes in [1, 2, 3] {
                    let [to_node1, to_node2] = backlogged_arrivals(max_batch, passes, neighbour);
                    let mut paths = vec![("A/B to node 1", to_node1)];
                    if neighbour == Neighbour::ContendedOtherPeer {
                        paths.push(("C/D to node 2", to_node2));
                    }
                    for (path, order) in paths {
                        let first = order.iter().filter(|&&x| x).count();
                        let second = order.len() - first;
                        assert!(
                            first > 0 && second > 0,
                            "{neighbour:?}, max_batch {max_batch}, {passes} passes: \
                             {path} delivered {first} : {second}"
                        );
                        for from_first in [true, false] {
                            let longest = order
                                .split(|&x| x != from_first)
                                .map(<[bool]>::len)
                                .max()
                                .unwrap_or(0);
                            assert!(
                                longest <= max_batch as usize,
                                "{neighbour:?}, max_batch {max_batch}, {passes} passes: \
                                 {path} had a run of {longest} from one endpoint"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::tests::cluster;
    use super::*;
    use crate::loopback::fabric;
    use crate::node::InlineCluster;
    use flipc_core::api::Flipc;
    use flipc_core::endpoint::FlipcNodeId;
    use flipc_core::layout::Geometry;

    fn pair() -> (Vec<Flipc>, InlineCluster) {
        cluster(fabric(2, 64), Geometry::small(), EngineConfig::default())
    }

    /// An endpoint freed after its queue drains is skipped by subsequent
    /// scans, and a reallocated slot starts clean for the next tenant.
    #[test]
    fn freed_endpoint_is_skipped_and_slot_reuse_is_clean() {
        let (flipc, mut cl) = pair();
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        let b = flipc[1].buffer_allocate().unwrap();
        flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();

        let mut t = flipc[0].buffer_allocate().unwrap();
        flipc[0].payload_mut(&mut t)[0] = 1;
        flipc[0].send(&tx, t, dest).unwrap();
        for _ in 0..6 {
            cl.pump();
        }
        assert!(flipc[1].recv(&rx).unwrap().is_some());
        // Drain and free the send endpoint.
        let back = flipc[0].reclaim_send(&tx).unwrap().unwrap();
        flipc[0].buffer_free(back);
        let old_idx = tx.index();
        flipc[0].endpoint_free(tx).unwrap();

        // Engine keeps iterating without touching the freed slot.
        let sent_before = cl.engine_stats(0).sent.load(Ordering::Relaxed);
        for _ in 0..4 {
            cl.engine_mut(0).iterate();
        }
        assert_eq!(cl.engine_stats(0).sent.load(Ordering::Relaxed), sent_before);

        // The slot's next tenant works immediately, with a new generation.
        let tx2 = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        assert_eq!(tx2.index(), old_idx, "first-fit reuse expected");
        let b = flipc[1].buffer_allocate().unwrap();
        flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        let mut t = flipc[0].buffer_allocate().unwrap();
        flipc[0].payload_mut(&mut t)[0] = 2;
        flipc[0].send(&tx2, t, dest).unwrap();
        for _ in 0..6 {
            cl.pump();
        }
        let got = flipc[1].recv(&rx).unwrap().unwrap();
        assert_eq!(flipc[1].payload(&got.token)[0], 2);
        assert_eq!(got.from.index(), old_idx);
    }

    /// Zero engine budgets are legal (fully starved engine): nothing moves
    /// and nothing panics; restoring budgets resumes service.
    #[test]
    fn zero_budget_engine_is_inert_but_sound() {
        let cfg = EngineConfig {
            incoming_budget: 0,
            outgoing_budget: 0,
            ..Default::default()
        };
        let (flipc, mut cl) = cluster(fabric(2, 64), Geometry::small(), cfg);
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        let b = flipc[1].buffer_allocate().unwrap();
        flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();
        let t = flipc[0].buffer_allocate().unwrap();
        flipc[0].send(&tx, t, dest).unwrap();
        for _ in 0..10 {
            assert_eq!(cl.pump(), 0);
        }
        assert!(flipc[1].recv(&rx).unwrap().is_none());
    }

    /// A transport whose failure detector reports one node dead. Sends to
    /// it must fail fast onto the endpoint's drop counter — buffer
    /// completed, `peer_down` stat bumped, no frame handed to the wire —
    /// while other destinations keep flowing.
    #[test]
    fn sends_to_a_dead_peer_fail_onto_the_drop_counter() {
        struct DeadPeerPort {
            inner: Box<dyn Transport>,
            dead: FlipcNodeId,
        }
        impl Transport for DeadPeerPort {
            fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
                self.inner.try_send(dst, frame)
            }
            fn try_recv(&mut self) -> Option<Frame> {
                self.inner.try_recv()
            }
            fn local_node(&self) -> FlipcNodeId {
                self.inner.local_node()
            }
            fn peer_down(&self, dst: FlipcNodeId) -> bool {
                dst == self.dead
            }
        }

        let port = DeadPeerPort {
            inner: Box::new(fabric(3, 64).swap_remove(0)),
            dead: FlipcNodeId(2),
        };
        let (apps, mut cl) = cluster([port], Geometry::small(), EngineConfig::default());
        let flipc = &apps[0];

        let tx = flipc
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let to_dead = EndpointAddress::new(FlipcNodeId(2), EndpointIndex(0), 1);
        let to_live = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        let t = flipc.buffer_allocate().unwrap();
        flipc.send(&tx, t, to_dead).unwrap();
        let t = flipc.buffer_allocate().unwrap();
        flipc.send(&tx, t, to_live).unwrap();
        for _ in 0..4 {
            cl.pump();
        }

        let stats = cl.engine_stats(0);
        assert_eq!(stats.peer_down.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.sent.load(Ordering::Relaxed),
            1,
            "only the live-destination frame reached the wire"
        );
        assert_eq!(
            flipc.drops_reset(&tx).unwrap(),
            1,
            "the failed send lands on the endpoint's drop counter"
        );
        // Both buffers completed: the application reclaims them.
        assert!(flipc.reclaim_send(&tx).unwrap().is_some());
        assert!(flipc.reclaim_send(&tx).unwrap().is_some());
    }

    /// `max_batch` caps how many frames one endpoint may transmit per
    /// drain pass, independent of the (larger) global outgoing budget.
    #[test]
    fn max_batch_bounds_one_endpoints_drain_per_pass() {
        let cfg = EngineConfig {
            max_batch: 2,
            outgoing_budget: 64,
            ..EngineConfig::default()
        };
        let (apps, mut cl) = cluster([fabric(2, 64).swap_remove(0)], Geometry::small(), cfg);
        let flipc = &apps[0];
        let tx = flipc
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        for _ in 0..5 {
            let t = flipc.buffer_allocate().unwrap();
            flipc.send(&tx, t, dest).unwrap();
        }
        let sent = |cl: &InlineCluster| cl.engine_stats(0).sent.load(Ordering::Relaxed);
        cl.pump();
        assert_eq!(sent(&cl), 2, "first pass capped at max_batch");
        cl.pump();
        assert_eq!(sent(&cl), 4, "second pass takes the next batch");
        cl.pump();
        assert_eq!(sent(&cl), 5, "third pass drains the remainder");
    }

    /// Every outgoing drain pass ends with exactly one
    /// [`Transport::flush`] — the batch boundary a coalescing transport
    /// keys on — and the flush comes after the pass's sends.
    #[test]
    fn every_drain_pass_ends_with_one_transport_flush() {
        use flipc_core::sync::atomic::AtomicU32;

        #[derive(Clone, Default)]
        struct Tally {
            sends: Arc<AtomicU32>,
            flushes: Arc<AtomicU32>,
            sends_seen_at_last_flush: Arc<AtomicU32>,
        }
        struct FlushCountingPort {
            inner: Box<dyn Transport>,
            tally: Tally,
        }
        impl Transport for FlushCountingPort {
            fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
                self.tally.sends.fetch_add(1, Ordering::Relaxed);
                self.inner.try_send(dst, frame)
            }
            fn try_recv(&mut self) -> Option<Frame> {
                self.inner.try_recv()
            }
            fn local_node(&self) -> FlipcNodeId {
                self.inner.local_node()
            }
            fn flush(&mut self) {
                self.tally.flushes.fetch_add(1, Ordering::Relaxed);
                self.tally
                    .sends_seen_at_last_flush
                    .store(self.tally.sends.load(Ordering::Relaxed), Ordering::Relaxed);
                self.inner.flush();
            }
        }

        let tally = Tally::default();
        let port = FlushCountingPort {
            inner: Box::new(fabric(2, 64).swap_remove(0)),
            tally: tally.clone(),
        };
        let (apps, mut cl) = cluster([port], Geometry::small(), EngineConfig::default());
        let flipc = &apps[0];

        let tx = flipc
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let dest = EndpointAddress::new(FlipcNodeId(1), EndpointIndex(0), 1);
        for _ in 0..3 {
            let t = flipc.buffer_allocate().unwrap();
            flipc.send(&tx, t, dest).unwrap();
        }
        for i in 1..=4u32 {
            cl.pump();
            assert_eq!(
                tally.flushes.load(Ordering::Relaxed),
                i,
                "one batch boundary per pass, even with nothing to send"
            );
        }
        assert_eq!(tally.sends.load(Ordering::Relaxed), 3);
        assert_eq!(
            tally.sends_seen_at_last_flush.load(Ordering::Relaxed),
            3,
            "the boundary flush trails the pass's sends"
        );
    }
}
