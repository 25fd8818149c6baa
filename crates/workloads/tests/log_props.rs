//! Property tests for the replicated ordered log's invariants — the
//! guarantees the chaos stories spot-check, here swept across generated
//! fault schedules and append patterns:
//!
//! * **offset monotonicity**: under seeded loss/duplication/reorder a
//!   follower's durable log only ever grows, and every apply lands at
//!   the frontier (no holes, no rollbacks);
//! * **replay equals the live prefix**: a follower that crashes and
//!   replays-from-offset ends up with byte-identical state to one that
//!   watched the stream live — the leader's prefix, exactly;
//! * **no cross-epoch leakage**: stragglers from a dead incarnation
//!   never alter durable state, across repeated crash/restart cycles.

use flipc_net::{FaultConfig, NetConfig};
use flipc_workloads::ReplicatedLog;
use proptest::prelude::*;

/// Transport tuning matching the chaos suite: fast timers, heartbeats
/// slow enough that loss alone cannot mutually dead-lock a path.
fn net() -> NetConfig {
    NetConfig {
        window: 8,
        rto: 100,
        rto_min: 10,
        rto_max: 400,
        suspect_strikes: 2,
        dead_strikes: 8,
        heartbeat_interval: 2_000,
        ..NetConfig::default()
    }
}

/// Drives the log until every follower holds the leader's full prefix,
/// with a bounded budget (deterministic harness: a miss is a bug, not a
/// flake). Returns `true` when fully committed.
fn drain(log: &mut ReplicatedLog) -> bool {
    for _ in 0..600 {
        if log.committed() == log.leader_len() {
            return true;
        }
        log.run(10);
    }
    false
}

/// A survivable fault schedule: each probability at most 30%.
fn fault_cfg() -> impl Strategy<Value = FaultConfig> {
    (0u32..=30, 0u32..=30, 0u32..=30).prop_map(|(loss, dup, reorder)| FaultConfig {
        loss: f64::from(loss) / 100.0,
        duplicate: f64::from(dup) / 100.0,
        reorder: f64::from(reorder) / 100.0,
        ..FaultConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the loss/duplication/reorder schedule and append pacing,
    /// follower logs stay monotone, agree with the leader's prefix, and
    /// converge to the full log once the faults clear.
    #[test]
    fn offsets_stay_monotone_under_loss_and_reorder(
        seed in any::<u64>(),
        faults in fault_cfg(),
        bursts in proptest::collection::vec((1u32..=6, 1u64..=8), 1..12),
    ) {
        let mut log = ReplicatedLog::new(3, net(), seed);
        log.cluster_mut().faults(0, faults);
        let mut value = 0u32;
        for &(count, steps) in &bursts {
            for _ in 0..count {
                log.append(value);
                value += 1;
            }
            log.run(steps);
            // The invariants hold *continuously*, not only at quiesce.
            prop_assert!(log.check_invariants().is_empty(),
                "mid-run invariant breach: {:?}", log.check_invariants());
        }
        log.cluster_mut().faults(0, FaultConfig::default());
        prop_assert!(drain(&mut log), "log failed to converge: {}/{} committed",
            log.committed(), log.leader_len());
        prop_assert!(log.check_invariants().is_empty(),
            "invariant breach at quiesce: {:?}", log.check_invariants());
    }

    /// A follower that crashes mid-stream and replays-from-offset ends
    /// with exactly the leader's prefix — and every entry it missed is
    /// accounted as replay traffic, not silently refetched live.
    #[test]
    fn replay_from_offset_equals_the_live_prefix(
        seed in any::<u64>(),
        pre in 1u32..40,
        post in 0u32..30,
        loss in 0u32..=25,
    ) {
        let mut log = ReplicatedLog::new(3, net(), seed);
        log.cluster_mut().faults(0, FaultConfig::lossy(f64::from(loss) / 100.0));
        for v in 0..pre {
            log.append(v);
        }
        log.run(40);
        log.crash_follower(2);
        for v in pre..pre + post {
            log.append(v);
        }
        log.run(40);
        let durable_at_restart = log.follower_len(2);
        log.restart_follower(2);
        log.cluster_mut().faults(0, FaultConfig::default());
        prop_assert!(drain(&mut log), "restarted follower never caught up: {}/{}",
            log.follower_len(2), log.leader_len());
        prop_assert!(log.check_invariants().is_empty(),
            "replayed state diverged from the live prefix: {:?}", log.check_invariants());
        // Everything missing at restart came back marked as replay.
        prop_assert!(
            log.replayed(2) >= log.leader_len() - durable_at_restart,
            "only {} of {} missing entries arrived as replay",
            log.replayed(2),
            log.leader_len() - durable_at_restart,
        );
    }

    /// Repeated crash/restart cycles under loss never let a dead
    /// incarnation's stragglers corrupt durable state: the dispatch-time
    /// agreement check (duplicate offsets must carry the durable value)
    /// stays silent and the final logs are the leader's prefix.
    #[test]
    fn no_cross_epoch_leakage_across_restart_cycles(
        seed in any::<u64>(),
        cycles in proptest::collection::vec((1u32..=10, 1u64..=40), 1..4),
        loss in 0u32..=25,
    ) {
        let mut log = ReplicatedLog::new(3, net(), seed);
        let mut value = 0u32;
        for &(count, steps) in &cycles {
            log.cluster_mut().faults(0, FaultConfig::lossy(f64::from(loss) / 100.0));
            for _ in 0..count {
                log.append(value);
                value += 1;
            }
            log.run(steps);
            log.crash_follower(2);
            log.run(8);
            log.restart_follower(2);
            log.run(steps);
            prop_assert!(log.violations().is_empty(),
                "cross-epoch leakage mid-cycle: {:?}", log.violations());
        }
        log.cluster_mut().faults(0, FaultConfig::default());
        prop_assert!(drain(&mut log), "cycles left the log unconverged: {}/{}",
            log.committed(), log.leader_len());
        prop_assert!(log.check_invariants().is_empty(),
            "invariant breach after restart cycles: {:?}", log.check_invariants());
    }
}
