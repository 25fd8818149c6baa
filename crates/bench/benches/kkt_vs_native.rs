//! E10: the development-transport penalty. The paper built FLIPC first on
//! the Kernel-to-Kernel Transport, whose RPC-per-message structure "is not
//! a good match to the one way messages used by FLIPC"; the native engine
//! replaced it. Here the *same* engine runs over both transports and a
//! burst of messages is timed in deterministic engine rounds and in
//! wall-clock time.

use std::time::Instant;

use flipc_bench::print_table;
use flipc_core::endpoint::{EndpointType, Importance};
use flipc_core::layout::Geometry;
use flipc_engine::engine::EngineConfig;
use flipc_engine::loopback::fabric;
use flipc_engine::node::InlineCluster;
use flipc_engine::transport::Transport;
use flipc_kkt::kkt_fabric;

const BURST: usize = 64;

fn build<T: Transport + 'static>(transports: Vec<T>) -> InlineCluster {
    let geo = Geometry {
        ring_capacity: 128,
        buffers: 256,
        ..Geometry::small()
    };
    InlineCluster::over(transports, geo, EngineConfig::default()).expect("commbuf")
}

/// Sends a burst and returns (engine rounds, wall-clock µs) to deliver all.
fn run(mut cl: InlineCluster) -> (u32, f64) {
    let flipc = [cl.node(0).attach(), cl.node(1).attach()];
    let tx = flipc[0]
        .endpoint_allocate(EndpointType::Send, Importance::Normal)
        .expect("ep");
    let rx = flipc[1]
        .endpoint_allocate(EndpointType::Receive, Importance::Normal)
        .expect("ep");
    let dest = flipc[1].address(&rx);
    for _ in 0..BURST {
        let b = flipc[1].buffer_allocate().expect("buffer");
        flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .expect("provide");
    }
    for i in 0..BURST {
        let mut t = flipc[0].buffer_allocate().expect("buffer");
        flipc[0].payload_mut(&mut t)[0] = i as u8;
        flipc[0].send(&tx, t, dest).expect("send");
    }
    let start = Instant::now();
    let mut rounds = 0;
    let mut received = 0;
    while received < BURST {
        rounds += 1;
        assert!(rounds < 10_000, "burst never delivered");
        cl.pump();
        while flipc[1].recv(&rx).expect("recv").is_some() {
            received += 1;
        }
    }
    (rounds, start.elapsed().as_secs_f64() * 1e6)
}

fn main() {
    let (native_rounds, native_us) = run(build(fabric(2, 256)));
    let (kkt_rounds, kkt_us) = run(build(kkt_fabric(2)));

    print_table(
        &format!("Delivering a {BURST}-message burst: native engine vs KKT transport (host)"),
        &["transport", "engine rounds", "wall clock (us)"],
        &[
            vec![
                "native (one-way frames)".into(),
                native_rounds.to_string(),
                format!("{native_us:.0}"),
            ],
            vec![
                "KKT (RPC per message)".into(),
                kkt_rounds.to_string(),
                format!("{kkt_us:.0}"),
            ],
        ],
    );
    println!();
    println!(
        "KKT needs {:.0}x the engine rounds: one request/acknowledge round trip per message,",
        kkt_rounds as f64 / native_rounds as f64
    );
    println!("which is why the paper replaced it with the native optimistic engine.");
}
