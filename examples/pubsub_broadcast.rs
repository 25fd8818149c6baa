//! Fan-out pub-sub broadcast over the chaos transport, surviving a storm.
//!
//! Run with: `cargo run --example pubsub_broadcast`
//!
//! A market-data publisher fans one topic out to three subscribers in
//! reliable (ack-backed) mode while its uplink drops a fifth of all
//! datagrams, and one subscriber crashes and reboots mid-stream on a
//! fresh session epoch. The workload's per-(topic, subscriber) outbox
//! retries past the loss, the transport's epoch resync folds the
//! rebooted subscriber back in, and at quiesce every subscriber has
//! every message exactly once, in order — which the harness verifies
//! continuously.
//!
//! Everything is seeded and manually clocked: rerunning prints the exact
//! same story, byte for byte.

use flipc::net::{FaultConfig, NetConfig};
use flipc::workloads::{Broadcast, DeliveryMode, TopicSpec};

const MESSAGES: u32 = 30;

fn main() {
    // Fast timers sized for the manual clock (25 ticks per step).
    let net = NetConfig {
        window: 8,
        rto: 100,
        rto_min: 10,
        rto_max: 400,
        suspect_strikes: 2,
        dead_strikes: 8,
        heartbeat_interval: 500,
        ..NetConfig::default()
    };
    let topics = vec![TopicSpec {
        topic: 0,
        publisher: 0,
        subscribers: vec![1, 2, 3],
    }];
    let mut b = Broadcast::new(4, net, 0xF11C_D0D0, DeliveryMode::Reliable, topics);

    b.cluster_mut()
        .log("a lossy storm hits the publisher's uplink");
    b.cluster_mut().faults(0, FaultConfig::lossy(0.20));
    b.publish_burst(MESSAGES / 2);
    b.run(150);

    b.cluster_mut().log("subscriber 2 crashes mid-stream");
    b.cluster_mut().crash(2);
    b.publish_burst(MESSAGES / 2);
    b.run(150);

    b.cluster_mut().log("subscriber 2 reboots on a fresh epoch");
    b.cluster_mut().restart(2);
    b.cluster_mut().log("the storm passes; drain to quiesce");
    b.cluster_mut().faults(0, FaultConfig::default());
    for _ in 0..400 {
        if b.completeness_violations().is_empty() {
            break;
        }
        b.run(25);
    }

    println!("{}", b.cluster_mut().transcript_text());
    for sub in [1u16, 2, 3] {
        println!(
            "subscriber {sub}: {}/{MESSAGES} messages, in order, exactly once",
            b.delivered(0, sub)
        );
    }
    let snaps = b.snapshots();
    println!(
        "publisher: {} published, {} app-level retries through the storm",
        snaps[0].published, snaps[0].retried
    );
    assert!(b.violations().is_empty(), "ordering/dup invariant broke");
    assert!(
        b.completeness_violations().is_empty(),
        "a subscriber is missing messages"
    );
    println!("broadcast invariants held: complete, in-order, exactly-once");
}
