//! Spans for the traced run, recorded from the benchmark's own files
//! around every call into the four layers of the stack:
//!
//! * `core`: the `Flipc` app calls, timed by [`crate::pair::Node`];
//! * `engine`: `Engine::iterate`, timed by [`crate::pair::Node`];
//! * `net`: `NetTransport`, seen through [`TimedTransport`];
//! * `link`: `UdpLink`, seen through [`TimedLink`].
//!
//! The benchmark is single-threaded, so the recorder is a thread-local: the
//! wrappers reach it without locks or atomics, and no wrapper has to carry
//! a handle. Each open span sits on a small stack; closing one charges its
//! duration to its parent's child time, so a span's self time is its
//! duration minus the time its children cover. Per-kind aggregates cover
//! the whole traced window. Full spans (kind, parent, start, end) go into
//! a buffer allocated once before the window, from its start until it is
//! full, and are written out when the run ends.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

use flipc_core::endpoint::FlipcNodeId;
use flipc_core::inspect::TransportSnapshot;
use flipc_engine::transport::Transport;
use flipc_engine::wire::Frame;
use flipc_net::Link;

/// The layer a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One pass of the benchmark's own loop (the root of every span).
    Harness,
    /// `flipc-core` app calls.
    Core,
    /// `flipc-engine` event-loop iterations.
    Engine,
    /// `flipc-net` reliability layer.
    Net,
    /// The UDP socket link.
    Link,
}

macro_rules! kinds {
    ($($kind:ident => $name:literal, $layer:ident;)*) => {
        /// Every call boundary the traced run times.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Kind {
            $(
                #[doc = concat!("`", $name, "`")]
                $kind,
            )*
        }

        impl Kind {
            /// All kinds, in index order.
            pub const ALL: &'static [Kind] = &[$(Kind::$kind),*];

            /// The span name written to the span file.
            pub fn name(self) -> &'static str {
                match self {
                    $(Kind::$kind => $name,)*
                }
            }

            /// The layer the call belongs to.
            pub fn layer(self) -> Layer {
                match self {
                    $(Kind::$kind => Layer::$layer,)*
                }
            }
        }
    };
}

kinds! {
    Step => "harness.step", Harness;
    CoreAlloc => "core.buffer_allocate", Core;
    CoreFree => "core.buffer_free", Core;
    CoreSend => "core.send_unlocked", Core;
    CoreRecv => "core.recv_unlocked", Core;
    CoreProvide => "core.provide_receive_buffer_unlocked", Core;
    CoreReclaim => "core.reclaim_send_unlocked", Core;
    EngineIterate => "engine.iterate", Engine;
    NetTrySend => "net.try_send", Net;
    NetTryRecv => "net.try_recv", Net;
    NetFlush => "net.flush", Net;
    NetPeerDown => "net.peer_down", Net;
    NetRetransmits => "net.retransmits_since_poll", Net;
    NetSnapshot => "net.snapshot", Net;
    LinkSend => "link.send", Link;
    LinkSendBatch => "link.send_batch", Link;
    LinkRecv => "link.recv", Link;
    LinkAssociate => "link.associate", Link;
    LinkOnTick => "link.on_tick", Link;
}

const KINDS: usize = Kind::ALL.len();

/// Totals for one kind of call over the traced window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Calls made.
    pub calls: u64,
    /// Work units the calls carried (datagrams for link sends, 1 otherwise).
    pub units: u64,
    /// Units that came back empty, refused or failed.
    pub flagged: u64,
    /// Wall time inside the calls, children included.
    pub total_ns: u64,
    /// Wall time inside the calls, children excluded.
    pub self_ns: u64,
}

/// Parent index of a root span or of one outside the sampled buffer.
const NO_SPAN: u32 = u32::MAX;

/// A timestamp in counter ticks: the TSC on x86_64, which reads in less
/// than half the time of `Instant::now` on the reference machine, so the
/// spans disturb what they time less. Ticks become nanoseconds through a
/// ratio measured against `Instant` over the traced window.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(unsafe_code)]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads the time-stamp counter; it has no
    // preconditions and every x86_64 processor implements it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// A timestamp in counter ticks: nanoseconds since first use.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Copy, Debug)]
struct Open {
    kind: Kind,
    slot: u32,
    start: u64,
    child: u64,
}

#[derive(Clone, Copy, Debug)]
struct SpanRec {
    kind: Kind,
    parent: u32,
    start: u64,
    end: u64,
}

/// [`Agg`] while recording: times in ticks.
#[derive(Clone, Copy, Debug)]
struct Acc {
    calls: u64,
    units: u64,
    flagged: u64,
    total: u64,
    own: u64,
}

const ZERO: Acc = Acc {
    calls: 0,
    units: 0,
    flagged: 0,
    total: 0,
    own: 0,
};

struct Tracer {
    stack: Vec<Open>,
    acc: [Acc; KINDS],
    spans: Vec<SpanRec>,
    /// `Instant` and tick count when the window started.
    origin: Option<(Instant, u64)>,
    /// Nanoseconds per tick, fixed when the aggregates are read.
    ns_per_tick: f64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            stack: Vec::new(),
            acc: [ZERO; KINDS],
            spans: Vec::new(),
            origin: None,
            ns_per_tick: 1.0,
        })
    };
}

/// Starts a traced window: clears the aggregates and allocates room for
/// `capacity` full spans, which fill from now until the buffer is full.
pub fn start_window(capacity: usize) {
    TRACER.with_borrow_mut(|t| {
        assert!(t.stack.is_empty(), "window starts between harness steps");
        t.stack.reserve(16);
        t.acc = [ZERO; KINDS];
        t.spans = Vec::with_capacity(capacity);
        t.origin = Some((Instant::now(), ticks()));
    });
}

/// Opens a span of `kind`.
#[inline]
pub fn enter(kind: Kind) {
    TRACER.with_borrow_mut(|t| {
        let start = ticks();
        let slot = if t.spans.len() < t.spans.capacity() {
            let parent = t.stack.last().map_or(NO_SPAN, |o| o.slot);
            t.spans.push(SpanRec {
                kind,
                parent,
                start,
                end: start,
            });
            (t.spans.len() - 1) as u32
        } else {
            NO_SPAN
        };
        t.stack.push(Open {
            kind,
            slot,
            start,
            child: 0,
        });
    });
}

/// Closes the innermost span, which carried `units` work units of which
/// `flagged` came back empty, refused or failed.
#[inline]
pub fn exit(units: u64, flagged: u64) {
    TRACER.with_borrow_mut(|t| {
        let end = ticks();
        let open = t.stack.pop().expect("exit matches an enter");
        let dur = end.saturating_sub(open.start);
        let a = &mut t.acc[open.kind as usize];
        a.calls += 1;
        a.units += units;
        a.flagged += flagged;
        a.total += dur;
        a.own += dur.saturating_sub(open.child);
        if let Some(parent) = t.stack.last_mut() {
            parent.child += dur;
        }
        if let Some(rec) = t.spans.get_mut(open.slot as usize) {
            rec.end = end;
        }
    });
}

/// Times `f` as a span of `kind` when `TRACED`, flagging its one unit when
/// `flag` says so; calls `f` directly otherwise.
#[inline(always)]
pub fn span<const TRACED: bool, R>(
    kind: Kind,
    f: impl FnOnce() -> R,
    flag: impl FnOnce(&R) -> bool,
) -> R {
    if !TRACED {
        return f();
    }
    enter(kind);
    let r = f();
    exit(1, u64::from(flag(&r)));
    r
}

/// The per-kind aggregates since [`start_window`], in nanoseconds.
pub fn aggregates() -> Vec<(Kind, Agg)> {
    TRACER.with_borrow_mut(|t| {
        if let Some((at, tick0)) = t.origin {
            let ticks = ticks().saturating_sub(tick0).max(1);
            t.ns_per_tick = at.elapsed().as_nanos() as f64 / ticks as f64;
        }
        let ns = |v: u64| (v as f64 * t.ns_per_tick) as u64;
        Kind::ALL
            .iter()
            .map(|&k| {
                let a = t.acc[k as usize];
                let agg = Agg {
                    calls: a.calls,
                    units: a.units,
                    flagged: a.flagged,
                    total_ns: ns(a.total),
                    self_ns: ns(a.own),
                };
                (k, agg)
            })
            .collect()
    })
}

/// Writes the sampled spans as tab-separated lines (`id`, `parent`,
/// `name`, `start_ns`, `end_ns`, times from the window's start; parent
/// `-` for a root) and returns how many there were. Call after
/// [`aggregates`], which fixes the tick rate.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<usize> {
    TRACER.with_borrow(|t| {
        let tick0 = t.origin.map_or(0, |o| o.1);
        let ns = |v: u64| (v.saturating_sub(tick0) as f64 * t.ns_per_tick) as u64;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.kind.name(),
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()?;
        Ok(t.spans.len())
    })
}

/// A [`Link`] that times every call into the link it wraps.
pub struct TimedLink<L>(pub L);

impl<L: Link> Link for TimedLink<L> {
    fn send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool {
        enter(Kind::LinkSend);
        let ok = self.0.send(dst, bytes);
        exit(1, u64::from(!ok));
        ok
    }

    fn recv(&mut self, buf: &mut [u8]) -> Option<usize> {
        enter(Kind::LinkRecv);
        let got = self.0.recv(buf);
        exit(1, u64::from(got.is_none()));
        got
    }

    fn associate(&mut self, node: FlipcNodeId) {
        enter(Kind::LinkAssociate);
        self.0.associate(node);
        exit(1, 0);
    }

    fn on_tick(&mut self, now: u64) {
        enter(Kind::LinkOnTick);
        self.0.on_tick(now);
        exit(1, 0);
    }

    fn send_batch(&mut self, dst: FlipcNodeId, datagrams: &[&[u8]]) -> usize {
        enter(Kind::LinkSendBatch);
        let accepted = self.0.send_batch(dst, datagrams);
        let n = datagrams.len();
        exit(n as u64, n.saturating_sub(accepted) as u64);
        accepted
    }
}

/// A [`Transport`] that times every call into the transport it wraps.
/// `local_node` is forwarded untimed: it is a field read the engine makes
/// several times per frame, and its cost stays in the engine's self time.
pub struct TimedTransport<T>(pub T);

impl<T: Transport> Transport for TimedTransport<T> {
    fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
        enter(Kind::NetTrySend);
        let ok = self.0.try_send(dst, frame);
        exit(1, u64::from(!ok));
        ok
    }

    fn try_recv(&mut self) -> Option<Frame> {
        enter(Kind::NetTryRecv);
        let got = self.0.try_recv();
        exit(1, u64::from(got.is_none()));
        got
    }

    fn local_node(&self) -> FlipcNodeId {
        self.0.local_node()
    }

    fn retransmits_since_poll(&mut self) -> u32 {
        enter(Kind::NetRetransmits);
        let n = self.0.retransmits_since_poll();
        exit(u64::from(n), 0);
        n
    }

    fn snapshot(&self) -> Option<TransportSnapshot> {
        enter(Kind::NetSnapshot);
        let s = self.0.snapshot();
        exit(1, 0);
        s
    }

    fn peer_down(&self, dst: FlipcNodeId) -> bool {
        enter(Kind::NetPeerDown);
        let down = self.0.peer_down(dst);
        exit(1, u64::from(down));
        down
    }

    fn flush(&mut self) {
        enter(Kind::NetFlush);
        self.0.flush();
        exit(1, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start_window(8);
        enter(Kind::Step);
        enter(Kind::EngineIterate);
        enter(Kind::NetTryRecv);
        std::thread::sleep(std::time::Duration::from_millis(2));
        exit(1, 1);
        exit(1, 0);
        exit(1, 0);
        let agg = aggregates();
        let get = |k: Kind| agg.iter().find(|(x, _)| *x == k).expect("kind").1;
        let net = get(Kind::NetTryRecv);
        let engine = get(Kind::EngineIterate);
        assert_eq!((net.calls, net.flagged), (1, 1));
        assert!(net.self_ns >= 1_900_000, "{}", net.self_ns);
        assert!(engine.total_ns >= net.total_ns);
        assert!(engine.self_ns < net.self_ns);
        TRACER.with_borrow(|t| {
            assert_eq!(t.spans.len(), 3);
            assert_eq!(t.spans[0].parent, NO_SPAN);
            assert_eq!(t.spans[2].parent, 1);
        });
    }
}
