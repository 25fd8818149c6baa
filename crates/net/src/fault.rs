//! Deterministic network-fault injection.
//!
//! [`FaultInjector`] wraps any [`Link`] and misdelivers its outbound
//! datagrams with seeded pseudo-randomness: probabilistic loss,
//! duplication, reordering, delay (with seeded jitter), corruption, and hard
//! per-direction partitions. Because the randomness comes from a seed and
//! the "time" unit is link operations (not wall clock), a given seed
//! reproduces the exact same fault schedule on every run — the robustness
//! suite's 10%-loss test and the chaos scenarios are fixed, replayable
//! adversaries, not flake generators.
//!
//! The injector can also *shape* the link: `bandwidth_bps` imposes a
//! token-bucket byte-rate cap with a bounded FIFO queue at the
//! bottleneck (overflow tail-drops, like a real router buffer). Shaping
//! is clocked by the transport's poll ([`Link::on_tick`], microsecond
//! ticks) and is fully deterministic — it consumes no randomness, and
//! with the cap at `0` the schedule is byte-identical to an unshaped
//! run.
//!
//! Faults are applied on the send side only; `recv` passes through. That
//! is sufficient generality: a drop on A→B's send is indistinguishable
//! from a drop on B's receive. A *one-way* partition of A→B is therefore
//! expressed by partitioning B on A's injector while leaving B's injector
//! alone — B's traffic still reaches A.
//!
//! Probabilities and partitions can be changed mid-run
//! ([`FaultInjector::set_config`], [`FaultInjector::partition`] /
//! [`FaultInjector::heal`]), which is how the chaos harness scripts loss
//! bursts and partition windows; the RNG stream is not reset by
//! reconfiguration, so a scenario stays a pure function of (seed, script).

use std::collections::{HashSet, VecDeque};

use flipc_core::endpoint::FlipcNodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::link::Link;
use crate::packet::MAX_DATAGRAM;

/// Datagrams the bandwidth shaper queues before tail-dropping — a small
/// router buffer. Deep enough to absorb a go-back-N burst, shallow enough
/// that a saturating sender sees loss (the congestion signal the credit
/// machinery reacts to) instead of unbounded latency.
const SHAPE_QUEUE_MAX: usize = 64;

/// Token-bucket depth of the bandwidth shaper, in bytes: two maximal
/// datagrams.
const BUCKET_BYTES: u64 = 2 * MAX_DATAGRAM as u64;

/// Fault probabilities and shape. Probabilities are independent per
/// datagram and evaluated in the order partition → loss → delay →
/// reorder → corruption → duplication.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability a datagram is silently dropped.
    pub loss: f64,
    /// Probability a datagram is delivered twice.
    pub duplicate: f64,
    /// Probability a datagram is held back so later traffic overtakes it.
    pub reorder: f64,
    /// How many link operations a held-back (reordered or delayed)
    /// datagram waits before release.
    pub delay_ops: u64,
    /// Probability a datagram is *delayed*: held like a reordered one, but
    /// for `delay_ops` plus a seeded jitter of up to `delay_jitter_ops`
    /// extra operations — an asymmetric-latency fault rather than a
    /// deliberate overtake.
    pub delay: f64,
    /// Upper bound (exclusive) of the extra random hold applied to
    /// delayed datagrams; `0` makes delays fixed at `delay_ops`.
    pub delay_jitter_ops: u64,
    /// Probability a datagram is corrupted in flight (one byte flipped).
    /// The versioned header/length checks must reject these; corruption
    /// storms surface as `decode_errors`, never as delivered garbage.
    pub corrupt: f64,
    /// Token-bucket bandwidth cap on this side's outbound wire, in bytes
    /// per second (clock ticks are microseconds, matching the
    /// production clock). Datagrams beyond the available tokens queue (up
    /// to a bounded router buffer) and drain as [`Link::on_tick`] refills
    /// the bucket; overflow tail-drops. `0` disables shaping entirely —
    /// no queue, no RNG draws, byte-identical to the unshaped schedule.
    /// The bucket holds at most twice [`MAX_DATAGRAM`] bytes, the burst
    /// the link absorbs at line rate.
    pub bandwidth_bps: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay_ops: 3,
            delay: 0.0,
            delay_jitter_ops: 0,
            corrupt: 0.0,
            bandwidth_bps: 0,
        }
    }
}

impl FaultConfig {
    /// Loss-only misbehaviour at probability `p`.
    pub fn lossy(p: f64) -> FaultConfig {
        FaultConfig {
            loss: p,
            ..FaultConfig::default()
        }
    }
}

/// Cumulative fault tallies (for test assertions and chaos transcripts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Datagrams silently dropped by the loss fault.
    pub dropped: u64,
    /// Datagrams delivered twice.
    pub duplicated: u64,
    /// Datagrams held back for deliberate reordering.
    pub reordered: u64,
    /// Datagrams held back by the delay fault.
    pub delayed: u64,
    /// Datagrams swallowed by an active partition.
    pub partitioned: u64,
    /// Datagrams corrupted in flight.
    pub corrupted: u64,
    /// Datagrams tail-dropped by the bandwidth shaper's full queue.
    pub shaped_dropped: u64,
}

/// A [`Link`] decorator that injects seeded faults into outbound traffic.
pub struct FaultInjector<L: Link> {
    inner: L,
    cfg: FaultConfig,
    rng: StdRng,
    /// Destinations currently unreachable from this side (one-way cut).
    partitioned: HashSet<u16>,
    /// Datagrams held for reordering/delay: (release at op counter, dst,
    /// bytes).
    held: Vec<(u64, FlipcNodeId, Vec<u8>)>,
    /// Monotone count of send/recv operations (the deterministic "clock"
    /// that releases held datagrams).
    ops: u64,
    /// Transport tick of the last [`Link::on_tick`] (the shaper's time
    /// base — distinct from `ops`, which counts link operations).
    shaper_now: u64,
    /// Token bucket, in byte-microseconds (`bytes × 1_000_000`): refilled
    /// by `elapsed_ticks × bandwidth_bps`, charged `len × 1_000_000` per
    /// datagram. Integer-exact at any rate.
    bucket: u64,
    /// Datagrams awaiting tokens, FIFO; bounded by [`SHAPE_QUEUE_MAX`].
    shape_q: VecDeque<(FlipcNodeId, Vec<u8>)>,
    counts: FaultCounts,
}

impl<L: Link> FaultInjector<L> {
    /// Wraps `inner` with the fault schedule determined by `cfg` and
    /// `seed`.
    pub fn new(inner: L, cfg: FaultConfig, seed: u64) -> FaultInjector<L> {
        FaultInjector {
            inner,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            partitioned: HashSet::new(),
            held: Vec::new(),
            ops: 0,
            shaper_now: 0,
            bucket: 0,
            shape_q: VecDeque::new(),
            counts: FaultCounts::default(),
        }
    }

    /// Cumulative fault tallies so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.counts
    }

    /// Replaces the fault probabilities mid-run (loss bursts, storm
    /// windows). Held datagrams and the RNG stream are untouched, so the
    /// overall schedule stays a pure function of the seed and the sequence
    /// of reconfigurations.
    pub fn set_config(&mut self, cfg: FaultConfig) {
        self.cfg = cfg;
    }

    /// Cuts this side's traffic toward `dst` (the reverse direction is
    /// governed by the peer's injector — partition both for a full cut).
    pub fn partition(&mut self, dst: FlipcNodeId) {
        self.partitioned.insert(dst.0);
    }

    /// Restores this side's traffic toward `dst`. Datagrams swallowed
    /// while the cut was active stay lost (that is what a partition is).
    pub fn heal(&mut self, dst: FlipcNodeId) {
        self.partitioned.remove(&dst.0);
    }

    /// True while this side's traffic toward `dst` is cut.
    pub fn is_partitioned(&self, dst: FlipcNodeId) -> bool {
        self.partitioned.contains(&dst.0)
    }

    fn tick(&mut self) {
        self.ops += 1;
        let due: Vec<(u64, FlipcNodeId, Vec<u8>)> = {
            let ops = self.ops;
            let mut due = Vec::new();
            self.held.retain_mut(|(at, dst, bytes)| {
                if *at <= ops {
                    due.push((*at, *dst, std::mem::take(bytes)));
                    false
                } else {
                    true
                }
            });
            due
        };
        for (_, dst, bytes) in due {
            // A held datagram released into an active partition is lost;
            // one the wire refuses on release is simply lost too — the
            // reliability layer recovers both like any other drop.
            if self.partitioned.contains(&dst.0) {
                self.counts.partitioned += 1;
            } else if !self.shaped_send(dst, &bytes) {
                self.counts.dropped += 1;
            }
        }
    }

    /// The final delivery stage every surviving datagram funnels through.
    /// With shaping off it *is* `inner.send` — zero extra state, zero RNG.
    /// With a bandwidth cap, datagrams spend tokens (bytes) to pass; the
    /// rest queue FIFO behind the bottleneck and drain as the bucket
    /// refills, overflow tail-dropping like a full router buffer.
    fn shaped_send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool {
        if self.cfg.bandwidth_bps == 0 {
            return self.inner.send(dst, bytes);
        }
        let cost = (bytes.len() as u64).saturating_mul(1_000_000);
        if self.shape_q.is_empty() && self.bucket >= cost {
            self.bucket -= cost;
            return self.inner.send(dst, bytes);
        }
        if self.shape_q.len() >= SHAPE_QUEUE_MAX {
            // The bottleneck's buffer is full: the congestion loss the
            // flow-control machinery upstream is built to react to.
            self.counts.shaped_dropped += 1;
            return true;
        }
        self.shape_q.push_back((dst, bytes.to_vec()));
        true
    }

    /// Spends refilled tokens on the queued backlog, oldest first.
    fn drain_shaped(&mut self) {
        while let Some((_, bytes)) = self.shape_q.front() {
            let cost = (bytes.len() as u64).saturating_mul(1_000_000);
            if self.bucket < cost {
                break;
            }
            self.bucket -= cost;
            let (dst, bytes) = self.shape_q.pop_front().expect("front just matched");
            // A partition cut or wire refusal while queued loses the
            // datagram, same as anywhere else on this side of the pipe.
            if self.partitioned.contains(&dst.0) {
                self.counts.partitioned += 1;
            } else if !self.inner.send(dst, &bytes) {
                self.counts.dropped += 1;
            }
        }
    }
}

impl<L: Link> Link for FaultInjector<L> {
    fn send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool {
        self.tick();
        if self.partitioned.contains(&dst.0) {
            // The wire "accepted" it; the far side never sees it. Real
            // partitions give the sender no error either.
            self.counts.partitioned += 1;
            return true;
        }
        if self.rng.gen_f64() < self.cfg.loss {
            self.counts.dropped += 1;
            return true;
        }
        if self.rng.gen_f64() < self.cfg.delay {
            self.counts.delayed += 1;
            let jitter = if self.cfg.delay_jitter_ops == 0 {
                0
            } else {
                (self.rng.gen_f64() * self.cfg.delay_jitter_ops as f64) as u64
            };
            self.held
                .push((self.ops + self.cfg.delay_ops + jitter, dst, bytes.to_vec()));
            return true;
        }
        if self.rng.gen_f64() < self.cfg.reorder {
            self.counts.reordered += 1;
            self.held
                .push((self.ops + self.cfg.delay_ops, dst, bytes.to_vec()));
            return true;
        }
        let payload: Vec<u8> = if self.rng.gen_f64() < self.cfg.corrupt && !bytes.is_empty() {
            self.counts.corrupted += 1;
            let mut b = bytes.to_vec();
            let at = (self.rng.gen_f64() * b.len() as f64) as usize % b.len();
            b[at] ^= 0xFF;
            b
        } else {
            bytes.to_vec()
        };
        let sent = self.shaped_send(dst, &payload);
        if sent && self.rng.gen_f64() < self.cfg.duplicate {
            self.counts.duplicated += 1;
            self.shaped_send(dst, &payload);
        }
        sent
    }

    fn recv(&mut self, buf: &mut [u8]) -> Option<usize> {
        self.tick();
        self.inner.recv(buf)
    }

    fn associate(&mut self, node: FlipcNodeId) {
        self.inner.associate(node);
    }

    fn on_tick(&mut self, now: u64) {
        self.inner.on_tick(now);
        let elapsed = now.saturating_sub(self.shaper_now);
        self.shaper_now = now;
        if self.cfg.bandwidth_bps == 0 {
            // Shaping turned off mid-run: whatever was queued floods out.
            while let Some((dst, bytes)) = self.shape_q.pop_front() {
                if self.partitioned.contains(&dst.0) {
                    self.counts.partitioned += 1;
                } else if !self.inner.send(dst, &bytes) {
                    self.counts.dropped += 1;
                }
            }
            return;
        }
        self.bucket = self
            .bucket
            .saturating_add(elapsed.saturating_mul(self.cfg.bandwidth_bps))
            .min(BUCKET_BYTES * 1_000_000);
        self.drain_shaped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::MemHub;

    fn drain(link: &mut impl Link) -> Vec<Vec<u8>> {
        let mut buf = [0u8; 64];
        let mut out = Vec::new();
        while let Some(n) = link.recv(&mut buf) {
            out.push(buf[..n].to_vec());
        }
        out
    }

    #[test]
    fn zero_faults_is_a_transparent_wrapper() {
        let hub = MemHub::new(2, 64);
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), FaultConfig::default(), 1);
        let mut b = hub.link(FlipcNodeId(1));
        for i in 0..10u8 {
            assert!(a.send(FlipcNodeId(1), &[i]));
        }
        let got = drain(&mut b);
        assert_eq!(got, (0..10u8).map(|i| vec![i]).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_reproduces_the_same_fault_schedule() {
        let run = |seed: u64| {
            let hub = MemHub::new(2, 1024);
            let cfg = FaultConfig {
                loss: 0.3,
                duplicate: 0.2,
                reorder: 0.2,
                delay: 0.1,
                delay_jitter_ops: 4,
                corrupt: 0.1,
                delay_ops: 2,
                ..FaultConfig::default()
            };
            let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), cfg, seed);
            let mut b = hub.link(FlipcNodeId(1));
            for i in 0..100u8 {
                a.send(FlipcNodeId(1), &[i]);
            }
            drain(&mut b)
        };
        assert_eq!(run(42), run(42), "identical seeds must replay identically");
        assert_ne!(run(42), run(43), "different seeds must differ");
    }

    #[test]
    fn loss_drops_roughly_the_configured_fraction() {
        let hub = MemHub::new(2, 4096);
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), FaultConfig::lossy(0.5), 7);
        let mut b = hub.link(FlipcNodeId(1));
        for i in 0..200u8 {
            a.send(FlipcNodeId(1), &[i]);
        }
        let got = drain(&mut b).len();
        assert!((50..150).contains(&got), "p=0.5 of 200 delivered {got}");
        assert_eq!(a.fault_counts().dropped as usize, 200 - got);
    }

    #[test]
    fn reordered_datagrams_are_released_later_not_lost() {
        let hub = MemHub::new(2, 64);
        let cfg = FaultConfig {
            reorder: 1.0,
            delay_ops: 2,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), cfg, 3);
        let mut b = hub.link(FlipcNodeId(1));
        // Every send is held; later link operations release earlier holds.
        for i in 0..8u8 {
            a.send(FlipcNodeId(1), &[i]);
        }
        let mut buf = [0u8; 8];
        for _ in 0..16 {
            // recv ticks the op counter, releasing held datagrams.
            a.recv(&mut buf);
        }
        let got = drain(&mut b);
        assert_eq!(got.len(), 8, "every held datagram is eventually released");
        assert_eq!(a.fault_counts().reordered, 8);
    }

    #[test]
    fn delayed_datagrams_arrive_late_with_bounded_jitter() {
        let hub = MemHub::new(2, 64);
        let cfg = FaultConfig {
            delay: 1.0,
            delay_ops: 3,
            delay_jitter_ops: 5,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), cfg, 11);
        let mut b = hub.link(FlipcNodeId(1));
        for i in 0..6u8 {
            a.send(FlipcNodeId(1), &[i]);
        }
        assert!(drain(&mut b).is_empty(), "all in the delay line");
        let mut buf = [0u8; 8];
        // delay_ops + jitter ≤ 8 extra ops covers every hold.
        for _ in 0..32 {
            a.recv(&mut buf);
        }
        assert_eq!(drain(&mut b).len(), 6, "delays never lose datagrams");
        assert_eq!(a.fault_counts().delayed, 6);
    }

    #[test]
    fn partition_is_per_direction_and_heals_mid_run() {
        let hub = MemHub::new(3, 64);
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), FaultConfig::default(), 5);
        let mut b = hub.link(FlipcNodeId(1));
        let mut c = hub.link(FlipcNodeId(2));

        a.partition(FlipcNodeId(1));
        assert!(a.is_partitioned(FlipcNodeId(1)));
        assert!(a.send(FlipcNodeId(1), b"cut"), "sender sees no error");
        assert!(a.send(FlipcNodeId(2), b"open"), "other directions flow");
        // The reverse direction is not this injector's business.
        assert!(b.send(FlipcNodeId(0), b"back"));
        assert!(drain(&mut b).is_empty());
        assert_eq!(drain(&mut c).len(), 1);
        let mut buf = [0u8; 8];
        assert!(a.recv(&mut buf).is_some(), "b -> a still open");

        a.heal(FlipcNodeId(1));
        assert!(a.send(FlipcNodeId(1), b"post"));
        let got = drain(&mut b);
        assert_eq!(got, vec![b"post".to_vec()], "cut traffic stays lost");
        assert_eq!(a.fault_counts().partitioned, 1);
    }

    #[test]
    fn corruption_flips_bytes_but_preserves_length() {
        let hub = MemHub::new(2, 256);
        let cfg = FaultConfig {
            corrupt: 1.0,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), cfg, 9);
        let mut b = hub.link(FlipcNodeId(1));
        for _ in 0..20 {
            a.send(FlipcNodeId(1), &[0xAA; 8]);
        }
        let got = drain(&mut b);
        assert_eq!(got.len(), 20);
        for d in &got {
            assert_eq!(d.len(), 8, "corruption never truncates");
            assert_ne!(d, &vec![0xAA; 8], "every datagram was mangled");
        }
        assert_eq!(a.fault_counts().corrupted, 20);
    }

    #[test]
    fn bandwidth_cap_queues_and_drains_at_the_configured_rate() {
        let hub = MemHub::new(2, 1024);
        // 1 byte per microsecond tick; 10-byte datagrams cost 10 ticks
        // each. Bucket starts empty.
        let cfg = FaultConfig {
            bandwidth_bps: 1_000_000,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), cfg, 21);
        let mut b = hub.link(FlipcNodeId(1));
        for i in 0..8u8 {
            assert!(a.send(FlipcNodeId(1), &[i; 10]), "queued, not refused");
        }
        assert!(drain(&mut b).is_empty(), "no tokens yet");
        // 30 ticks of refill pay for exactly three datagrams.
        a.on_tick(30);
        assert_eq!(drain(&mut b).len(), 3);
        // Plenty of time pays for the rest.
        a.on_tick(1_000);
        assert_eq!(drain(&mut b).len(), 5, "backlog drains in order");
        assert_eq!(a.fault_counts().shaped_dropped, 0);
    }

    #[test]
    fn shaper_tail_drops_overflow_like_a_router_buffer() {
        let hub = MemHub::new(2, 4096);
        let cfg = FaultConfig {
            bandwidth_bps: 1, // effectively frozen
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), cfg, 22);
        let mut b = hub.link(FlipcNodeId(1));
        for i in 0..200u16 {
            a.send(FlipcNodeId(1), &(i.to_le_bytes()));
        }
        assert_eq!(
            a.fault_counts().shaped_dropped,
            200 - SHAPE_QUEUE_MAX as u64,
            "everything past the queue bound tail-drops"
        );
        assert!(drain(&mut b).is_empty());
    }

    #[test]
    fn disabling_the_cap_mid_run_flushes_the_backlog() {
        let hub = MemHub::new(2, 1024);
        let cfg = FaultConfig {
            bandwidth_bps: 1,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), cfg, 23);
        let mut b = hub.link(FlipcNodeId(1));
        for i in 0..5u8 {
            a.send(FlipcNodeId(1), &[i]);
        }
        assert!(drain(&mut b).is_empty());
        a.set_config(FaultConfig::default());
        a.on_tick(10);
        assert_eq!(drain(&mut b).len(), 5, "queued datagrams flood out");
    }

    #[test]
    fn shaping_consumes_no_rng_draws() {
        // The same lossy schedule with a never-binding bandwidth cap must
        // deliver the identical byte sequence: shaping is RNG-free, so
        // turning it on cannot perturb seeded fault schedules.
        let run = |shaped: bool| {
            let hub = MemHub::new(2, 1024);
            let cfg = FaultConfig {
                loss: 0.3,
                duplicate: 0.1,
                bandwidth_bps: if shaped { u64::MAX / 2_000_000 } else { 0 },
                ..FaultConfig::default()
            };
            let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), cfg, 42);
            let mut b = hub.link(FlipcNodeId(1));
            a.on_tick(1_000_000); // fill the bucket
            for i in 0..100u8 {
                a.send(FlipcNodeId(1), &[i]);
            }
            drain(&mut b)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn set_config_toggles_faults_mid_run() {
        let hub = MemHub::new(2, 256);
        let mut a = FaultInjector::new(hub.link(FlipcNodeId(0)), FaultConfig::default(), 13);
        let mut b = hub.link(FlipcNodeId(1));
        for i in 0..10u8 {
            a.send(FlipcNodeId(1), &[i]);
        }
        a.set_config(FaultConfig::lossy(1.0));
        for i in 10..20u8 {
            a.send(FlipcNodeId(1), &[i]);
        }
        a.set_config(FaultConfig::default());
        for i in 20..30u8 {
            a.send(FlipcNodeId(1), &[i]);
        }
        let got: Vec<u8> = drain(&mut b).into_iter().map(|d| d[0]).collect();
        let expect: Vec<u8> = (0..10).chain(20..30).collect();
        assert_eq!(got, expect, "exactly the burst window was lost");
        assert_eq!(a.fault_counts().dropped, 10);
    }
}
