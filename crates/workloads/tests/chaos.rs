//! Workload chaos matrix: the three workloads under seeded fault
//! schedules, across the same pinned seed matrix as the transport's own
//! chaos suite (`CHAOS_SEED=<n>` narrows to one seed). Failures write
//! workload-prefixed transcripts under `target/chaos/` for CI artifact
//! upload.
//!
//! What each story proves:
//!
//! * **broadcast** — reliable fan-out delivers *everything*, in order,
//!   exactly once per subscriber, through a loss/duplication storm and
//!   a subscriber crash/restart (epoch resync); at-most-once never
//!   violates ordering even while shedding.
//! * **log** — the replicated log keeps offset monotonicity and
//!   leader/follower prefix agreement through a one-way partition and a
//!   follower restart, and the restarted follower catches up via
//!   replay-from-offset on a fresh epoch.
//! * **tiers** — with the bulk class saturating the link under loss,
//!   every high-class message still delivers in order with a bounded
//!   p99, while bulk keeps making progress (starvation budget) and
//!   sheds only by its own deadline policy.

use flipc_net::chaos::write_transcript_to;
use flipc_net::{FaultConfig, NetConfig};
use flipc_workloads::{
    Broadcast, DeliveryMode, ReplicatedLog, Tiered, TopicSpec, STARVATION_BUDGET,
};

/// Pinned seed matrix; `CHAOS_SEED` narrows the run to one seed.
fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let seed = s
            .parse()
            .or_else(|_| u64::from_str_radix(s.trim_start_matches("0x"), 16))
            .expect("CHAOS_SEED must be an integer");
        return vec![seed];
    }
    vec![0xF11C_0001, 0xF11C_0002, 0xF11C_0003]
}

/// Workload-tuned transport config: fast timers, quick heartbeats so
/// restarted nodes re-admit promptly, a sturdy strike budget.
fn net() -> NetConfig {
    NetConfig {
        window: 8,
        rto: 100,
        rto_min: 10,
        rto_max: 400,
        suspect_strikes: 2,
        dead_strikes: 8,
        heartbeat_interval: 500,
        ..NetConfig::default()
    }
}

/// Writes a failure transcript (lazily) and panics with `problems`.
fn fail(workload: &str, scenario: &str, seed: u64, transcript: &str, problems: &[String]) -> ! {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .map(|p| p.join("chaos"))
        .unwrap_or_else(|| "target/chaos".into());
    if let Ok(path) = write_transcript_to(&dir, workload, scenario, seed, transcript) {
        eprintln!("chaos transcript written to {}", path.display());
    }
    panic!(
        "workload '{workload}' scenario '{scenario}' (seed {seed:#x}) failed:\n  {}\n--- transcript ---\n{transcript}",
        problems.join("\n  "),
    );
}

#[test]
fn reliable_broadcast_survives_storm_and_subscriber_restart() {
    for seed in seeds() {
        let topics = vec![
            TopicSpec {
                topic: 0,
                publisher: 0,
                subscribers: vec![1, 2, 3],
            },
            TopicSpec {
                topic: 1,
                publisher: 0,
                subscribers: vec![1, 3],
            },
        ];
        let mut b = Broadcast::new(4, net(), seed, DeliveryMode::Reliable, topics);
        b.cluster_mut().log("storm on the publisher's uplink");
        b.cluster_mut().faults(0, FaultConfig::lossy(0.20));
        b.publish_burst(10);
        b.run(120);
        b.cluster_mut().log("subscriber 2 dies mid-stream");
        b.cluster_mut().crash(2);
        b.publish_burst(10);
        b.run(120);
        b.cluster_mut().log("subscriber 2 reboots on a fresh epoch");
        b.cluster_mut().restart(2);
        b.publish_burst(5);
        b.run(200);
        b.cluster_mut().log("storm passes; drain to quiesce");
        b.cluster_mut().faults(0, FaultConfig::default());
        // Drain until complete (bounded budget — determinism means a
        // hang here is a real bug, not a flake).
        for _ in 0..200 {
            if b.completeness_violations().is_empty() {
                break;
            }
            b.run(25);
        }
        let mut problems = b.completeness_violations();
        problems.extend(b.violations().iter().cloned());
        if !problems.is_empty() {
            let t = b.cluster_mut().transcript_text();
            fail("broadcast", "reliable-storm-restart", seed, &t, &problems);
        }
        // Per-subscriber delivery counters: every path got all 25 / 25.
        for sub in [1u16, 2, 3] {
            assert_eq!(
                b.delivered(0, sub),
                25,
                "topic 0 sub {sub} (seed {seed:#x})"
            );
        }
        for sub in [1u16, 3] {
            assert_eq!(
                b.delivered(1, sub),
                25,
                "topic 1 sub {sub} (seed {seed:#x})"
            );
        }
        // The storm + restart must have exercised the app-level retry
        // path, and the restarted subscriber forced an epoch resync.
        let snaps = b.snapshots();
        assert!(
            snaps[0].retried > 0,
            "storm must force retries (seed {seed:#x})"
        );
        let resyncs = b
            .cluster_mut()
            .snapshot(0)
            .map(|s| s.epoch_resyncs)
            .unwrap_or(0);
        assert!(
            resyncs >= 1,
            "restart must resync an epoch (seed {seed:#x})"
        );
    }
}

#[test]
fn at_most_once_broadcast_sheds_but_never_reorders() {
    for seed in seeds() {
        let topics = vec![TopicSpec {
            topic: 0,
            publisher: 0,
            subscribers: vec![1, 2],
        }];
        let mut b = Broadcast::new(3, net(), seed, DeliveryMode::AtMostOnce, topics);
        b.cluster_mut().faults(0, FaultConfig::lossy(0.30));
        // Publish in small pulses so the transport window backpressures
        // visibly (shed-on-backpressure is the at-most-once contract).
        for _ in 0..30 {
            b.publish_burst(2);
            b.step();
        }
        b.cluster_mut().faults(0, FaultConfig::default());
        b.run(200);
        if !b.violations().is_empty() {
            let problems = b.violations().to_vec();
            let t = b.cluster_mut().transcript_text();
            fail("broadcast", "at-most-once-storm", seed, &t, &problems);
        }
        // Deliveries are a (possibly strict) subset, but the path works:
        // both subscribers made progress and nothing arrived twice or
        // out of order (checked continuously by the harness).
        for sub in [1u16, 2] {
            let d = b.delivered(0, sub);
            assert!(d > 0, "sub {sub} starved (seed {seed:#x})");
            assert!(d <= 60, "sub {sub} over-delivered (seed {seed:#x})");
        }
    }
}

#[test]
fn replicated_log_replays_after_partition_and_follower_restart() {
    for seed in seeds() {
        // Slow heartbeats: follower 1's pings toward the leader must not
        // exhaust its own strike budget during the 6k-tick one-way cut
        // (mutual dead-declaration is unrecoverable by design — dead
        // peers cost zero datagrams, so neither side would ever speak
        // again). The leader still dead-declares follower 1 from data
        // strikes, which is the epoch-bump path the story wants.
        let net = NetConfig {
            heartbeat_interval: 2_000,
            ..net()
        };
        let mut log = ReplicatedLog::new(3, net, seed);
        for v in 0..20u32 {
            log.append(v);
        }
        log.run(80);
        log.cluster_mut()
            .log("one-way cut: leader cannot reach follower 1");
        log.cluster_mut().partition(0, 1);
        for v in 20..35u32 {
            log.append(v);
        }
        log.run(120);
        log.cluster_mut().log("follower 2 dies; appends continue");
        log.crash_follower(2);
        for v in 35..50u32 {
            log.append(v);
        }
        log.run(120);
        log.cluster_mut().log("heal the cut, reboot follower 2");
        log.cluster_mut().heal(0, 1);
        log.restart_follower(2);
        for v in 50..60u32 {
            log.append(v);
        }
        // Catch-up budget: deterministic, so a miss is a real bug.
        for _ in 0..400 {
            if log.committed() == log.leader_len() {
                break;
            }
            log.run(10);
        }
        let problems = log.check_invariants();
        if !problems.is_empty() || log.committed() != log.leader_len() {
            let mut problems = problems;
            problems.push(format!(
                "committed {}/{} at quiesce",
                log.committed(),
                log.leader_len()
            ));
            let t = log.cluster_mut().transcript_text();
            fail("log", "partition-restart-replay", seed, &t, &problems);
        }
        log.assert_caught_up();
        // The restarted follower must have caught up via the replay
        // path, and its rebirth must have resynced an epoch at the
        // leader.
        assert!(
            log.replayed(2) > 0,
            "follower 2 must replay-from-offset (seed {seed:#x})"
        );
        let resyncs = log
            .cluster_mut()
            .snapshot(0)
            .map(|s| s.epoch_resyncs)
            .unwrap_or(0);
        assert!(
            resyncs >= 1,
            "restart must resync an epoch (seed {seed:#x})"
        );
    }
}

#[test]
fn high_tier_p99_holds_while_bulk_saturates() {
    for seed in seeds() {
        let mut t = Tiered::new(net(), seed);
        t.cluster_mut().faults(0, FaultConfig::lossy(0.10));
        // 400 steps of cross-traffic: bulk offered far beyond link
        // capacity, a steady trickle of high-priority traffic on top.
        let mut high_sent = 0u32;
        for step in 0..400 {
            t.offer(2, 8); // saturating bulk
            if step % 4 == 0 {
                t.offer(0, 1); // steady high-class trickle
                high_sent += 1;
            }
            t.step();
        }
        t.cluster_mut().faults(0, FaultConfig::default());
        // Quiesce: stop offering, let the queues drain.
        for _ in 0..400 {
            if t.delivered(0) == u64::from(high_sent) {
                break;
            }
            t.step();
        }
        if !t.violations().is_empty() {
            let problems = t.violations().to_vec();
            let tr = t.transcript_text();
            fail("tiers", "bulk-saturation", seed, &tr, &problems);
        }
        // Every high-class message delivered (never shed, never lost).
        assert_eq!(
            t.delivered(0),
            u64::from(high_sent),
            "high class must deliver completely (seed {seed:#x})"
        );
        // The high-class p99 holds despite saturation: strict priority
        // bounds it by the transport window + recovery, not by bulk
        // backlog depth (which is thousands of ticks deep here).
        let p99 = t.latency_quantile(0, 0.99).expect("high class delivered");
        assert!(
            p99 <= 8_192.0,
            "high-class p99 {p99} ticks blew the bound (seed {seed:#x})"
        );
        // The starvation budget kept bulk moving: at least one bulk
        // message per budget-window of high sends, well beyond zero.
        assert!(
            t.delivered(2) > u64::from(high_sent / STARVATION_BUDGET),
            "bulk starved: {} delivered (seed {seed:#x})",
            t.delivered(2)
        );
        // Deadline shedding actually engaged under saturation.
        assert!(
            t.shed(2) > 0,
            "bulk never shed despite saturation (seed {seed:#x})"
        );
    }
}

#[test]
fn high_tier_p99_holds_through_a_shaped_bottleneck() {
    for seed in seeds() {
        // True congestion rather than loss: node 0's outbound wire is
        // token-bucket shaped to ~2 bytes per tick — roughly one tiered
        // datagram per 25-tick step — while bulk offers eight times
        // that. The credit clamp (all the transport enforces) plus the
        // dispatcher's strict priority must keep the high-class trickle
        // flowing with a bounded p99 even though the bulk tier could
        // fill every window slot many times over.
        // RTO sized for a congested link: the initial timeout must sit
        // above the bottleneck's worst service time or spurious
        // go-back-N rounds (Karn-starved estimator) melt the link.
        let net = NetConfig {
            rto: 2_000,
            rto_min: 100,
            rto_max: 20_000,
            ..net()
        };
        let mut t = Tiered::new(net, seed);
        t.cluster_mut()
            .log("token-bucket bottleneck on the sender uplink");
        t.cluster_mut().faults(
            0,
            FaultConfig {
                bandwidth_bps: 2_000_000,
                ..FaultConfig::default()
            },
        );
        let mut high_sent = 0u32;
        for step in 0..400 {
            t.offer(2, 8); // bulk at 8x link capacity
            if step % 4 == 0 {
                t.offer(0, 1); // steady high-class trickle
                high_sent += 1;
            }
            t.step();
        }
        t.cluster_mut().log("bottleneck lifts; drain to quiesce");
        t.cluster_mut().faults(0, FaultConfig::default());
        for _ in 0..400 {
            if t.delivered(0) == u64::from(high_sent) {
                break;
            }
            t.step();
        }
        if !t.violations().is_empty() {
            let problems = t.violations().to_vec();
            let tr = t.transcript_text();
            fail("tiers", "shaped-bottleneck", seed, &tr, &problems);
        }
        assert_eq!(
            t.delivered(0),
            u64::from(high_sent),
            "high class must deliver completely (seed {seed:#x})"
        );
        let p99 = t.latency_quantile(0, 0.99).expect("high class delivered");
        assert!(
            p99 <= 4_096.0,
            "high-class p99 {p99} ticks blew the congestion bound (seed {seed:#x})"
        );
        assert!(
            t.delivered(2) > 0,
            "bulk starved through the bottleneck (seed {seed:#x})"
        );
        assert!(
            t.shed(2) > 0,
            "bulk never shed despite 8x overload (seed {seed:#x})"
        );
    }
}

#[test]
fn workload_runs_are_deterministic_per_seed() {
    let play = || {
        let topics = vec![TopicSpec {
            topic: 0,
            publisher: 0,
            subscribers: vec![1, 2],
        }];
        let mut b = Broadcast::new(3, net(), 0xF11C_0001, DeliveryMode::Reliable, topics);
        b.cluster_mut().faults(0, FaultConfig::lossy(0.25));
        b.publish_burst(12);
        b.run(150);
        b.cluster_mut().crash(1);
        b.run(60);
        b.cluster_mut().restart(1);
        b.run(300);
        let delivered: Vec<u64> = [1u16, 2].iter().map(|&s| b.delivered(0, s)).collect();
        (delivered, b.cluster_mut().transcript_text())
    };
    let (d1, t1) = play();
    let (d2, t2) = play();
    assert_eq!(d1, d2, "deliveries must replay exactly");
    assert_eq!(t1, t2, "transcripts must replay exactly");
}
