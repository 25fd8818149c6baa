//! The FLIPC benchmark: the shipping stack (comm buffer → `Engine::iterate`
//! → `NetTransport` with the default `NetConfig` → `UdpLink` on
//! 127.0.0.1) between two nodes in one process, one thread driving both
//! engines inline. See `README.md` for the workloads, the metrics and how
//! they relate.
//!
//! ```text
//! perfbench --workload <pingpong-64|stream-64|tiered-544> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then traced, and prints the per-layer metrics.
//! The last line of standard output is the JSON result; the lines before
//! it give each metric with its unit and sample count. The command exits
//! non-zero when any message is lost, reordered or corrupted.

mod pair;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pair::{geometry, Pair};
use stats::{json_str, median, result_json, Metric};
use trace::{span, Agg, Kind, Layer};
use workload::{probe, Clock, Measured, PingPong, Stream, Tiered, Workload};

/// One slice of the measured window. Each end-to-end timing is the
/// median of its per-slice values, so a burst of noise from the machine
/// moves one slice, not the result.
const SLICE_NS: u64 = 1_000_000_000;
/// Stepping before the measured window, so caches fill and the
/// reliability layer's RTT estimate settles.
const WARMUP_NS: u64 = 1_000_000_000;
/// Longest the end-of-run drain may take before what is still pending
/// counts as lost.
const DRAIN_NS: u64 = 5_000_000_000;
/// Full spans kept from the start of the traced window.
const SPAN_CAPACITY: usize = 1 << 17;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Offered and delivered messages over a whole run, probes included.
#[derive(Default)]
struct Tally {
    offered: u64,
    ok: u64,
    drops: u64,
    errors: Vec<String>,
}

impl Tally {
    fn probe(&mut self, ok: bool) {
        self.offered += 1;
        if ok {
            self.ok += 1;
        } else {
            self.errors
                .push("a set-up probe was lost or corrupted".into());
        }
    }

    fn add<const T: bool, W: Workload>(&mut self, pair: &Pair<T>, w: &mut W) {
        self.drops += w.finish(pair);
        self.offered += w.unsent();
        for f in w.flows() {
            self.offered += f.sent;
            self.ok += f.ok;
            self.errors.extend(f.first_error.clone());
        }
    }

    fn failed(&self) -> u64 {
        self.offered - self.ok
    }

    fn correct(&self) -> bool {
        self.failed() == 0 && self.drops == 0 && self.errors.is_empty()
    }
}

/// Builds a pair and its workload and delivers one probe message across
/// it; returns them with the seconds that took.
fn setup<const T: bool, W: Workload>(
    clock: &Clock,
    seed: u64,
    n: u64,
    tally: &mut Tally,
) -> (Pair<T>, W, f64) {
    let t0 = clock.now();
    let mut pair = Pair::<T>::build(geometry(W::MSG_SIZE));
    let w = W::new(&pair, seed);
    tally.probe(probe(&mut pair, &w, seed, n));
    let secs = (clock.now() - t0) as f64 / 1e9;
    (pair, w, secs)
}

/// Steps `w` for `ns` nanoseconds.
fn drive<const T: bool, W: Workload>(pair: &mut Pair<T>, w: &mut W, clock: &Clock, ns: u64) {
    let until = clock.now() + ns;
    while clock.now() < until {
        span::<T, _>(Kind::Step, || w.step(pair, clock, true), |_| false);
    }
}

/// What one slice of the window measured.
struct Slice {
    secs: f64,
    p50_us: f64,
    p99_us: f64,
    latency_samples: u64,
    throughput: f64,
    throughput_msgs: u64,
    delivered: u64,
    lag_p99_us: f64,
    lag_samples: u64,
}

impl Slice {
    fn of(m: &Measured<'_>, secs: f64) -> Slice {
        let lag = m.generator_lag;
        Slice {
            secs,
            p50_us: m.latency.quantile(0.50) / 1e3,
            p99_us: m.latency.quantile(0.99) / 1e3,
            latency_samples: m.latency.count(),
            throughput: m.throughput_msgs as f64 / secs,
            throughput_msgs: m.throughput_msgs,
            delivered: m.delivered,
            lag_p99_us: lag.map_or(0.0, |h| h.quantile(0.99) / 1e3),
            lag_samples: lag.map_or(0, |h| h.count()),
        }
    }
}

/// The median over slices of `f`.
fn median_of(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    median(&mut slices.iter().map(f).collect::<Vec<_>>())
}

/// The total over slices of `f`.
fn total_of<T: std::iter::Sum>(slices: &[Slice], f: impl Fn(&Slice) -> T) -> T {
    slices.iter().map(f).sum()
}

/// `harness.trace_overhead_ratio`: how much slower the traced run was,
/// as traced/untraced `latency_p50_us`, or untraced/traced
/// `throughput_msgs_per_s` where throughput is the headline; 1 is free.
fn slowdown<W: Workload>(traced: &[Slice], untraced: &[Slice]) -> f64 {
    if W::HEADLINE_IS_THROUGHPUT {
        let tput = |s: &Slice| s.throughput;
        ratio(median_of(untraced, tput), median_of(traced, tput))
    } else {
        let p50 = |s: &Slice| s.p50_us;
        ratio(median_of(traced, p50), median_of(untraced, p50))
    }
}

/// Warms up, measures `slices` slices, then drains. `between` runs
/// between slices, outside them; `at_open` just before the first slice,
/// `at_close` just after the last.
fn measure<const T: bool, W: Workload>(
    pair: &mut Pair<T>,
    w: &mut W,
    clock: &Clock,
    slices: u64,
    mut between: impl FnMut(),
    at_open: impl FnOnce(&Pair<T>),
    at_close: impl FnOnce(&Pair<T>),
) -> Vec<Slice> {
    drive(pair, w, clock, WARMUP_NS);
    at_open(pair);
    let mut out = Vec::new();
    for i in 0..slices {
        if i > 0 {
            between();
        }
        w.set_window(true);
        let t0 = clock.now();
        drive(pair, w, clock, SLICE_NS);
        let secs = (clock.now() - t0) as f64 / 1e9;
        w.set_window(false);
        out.push(Slice::of(&w.measured(), secs));
    }
    at_close(pair);
    let until = clock.now() + DRAIN_NS;
    while !w.settled() && clock.now() < until {
        span::<T, _>(Kind::Step, || w.step(pair, clock, false), |_| false);
    }
    out
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The untraced run: end-to-end metrics. A fresh pair is set up (and
/// dropped) between every two slices, so `setup_s` samples the whole run.
fn run_untraced<W: Workload>(seed: u64, seconds: u64, tally: &mut Tally) -> Option<Vec<Metric>> {
    let clock = Clock::start();
    let (mut pair, mut w, first) = setup::<false, W>(&clock, seed, 0, tally);
    let mut setups = vec![first];
    let slices = measure(
        &mut pair,
        &mut w,
        &clock,
        seconds * 1_000_000_000 / SLICE_NS,
        || {
            let n = setups.len() as u64;
            let (_, _, secs) = setup::<false, W>(&clock, seed, n, tally);
            setups.push(secs);
        },
        |_| {},
        |_| {},
    );
    tally.add(&pair, &mut w);
    let delivered = ratio(tally.ok as f64, tally.offered as f64);
    let rss = peak_rss_mib()?;
    let latency_samples = total_of(&slices, |s| s.latency_samples);
    Some(vec![
        metric("setup_s", median(&mut setups), "s", setups.len() as u64),
        metric(
            "latency_p50_us",
            median_of(&slices, |s| s.p50_us),
            "us",
            latency_samples,
        ),
        metric(
            "latency_p99_us",
            median_of(&slices, |s| s.p99_us),
            "us",
            latency_samples,
        ),
        metric(
            "throughput_msgs_per_s",
            median_of(&slices, |s| s.throughput),
            "msgs/s",
            total_of(&slices, |s| s.throughput_msgs),
        ),
        metric("delivered_ratio", delivered, "ratio", tally.offered),
        metric("peak_rss_mib", rss, "MiB", 1),
    ])
}

/// Retransmitted frames and credit stalls on both nodes' paths.
fn path_counters<const T: bool>(pair: &Pair<T>) -> (u64, u64) {
    [&pair.a, &pair.b]
        .iter()
        .flat_map(|n| n.transport_snapshot().paths)
        .fold((0, 0), |(r, c), p| {
            (
                r + u64::from(p.retransmitted),
                c + u64::from(p.credit_stalls),
            )
        })
}

/// Idle engine iterations timed after the untraced half of a traced run.
const IDLE_ITERATIONS: u32 = 20_000;

/// The traced run: the workload untraced for half the time (the baseline
/// of `harness.trace_overhead_ratio`), then traced for the other half.
fn run_traced<W: Workload>(name: &str, seed: u64, seconds: u64, tally: &mut Tally) -> Vec<Metric> {
    let clock = Clock::start();
    let half = (seconds * 1_000_000_000 / SLICE_NS / 2).max(1);

    let (mut pair, mut w, _) = setup::<false, W>(&clock, seed, 0, tally);
    let untraced = measure(&mut pair, &mut w, &clock, half, || {}, |_| {}, |_| {});
    tally.add(&pair, &mut w);
    // With nothing in flight every iteration is idle: this times the bare
    // scan over endpoints, transport poll and flush that a spinning engine
    // repeats while it waits (the harness steps the source engine first,
    // so the workloads themselves rarely iterate idle).
    let t0 = clock.now();
    let mut idle = 0u32;
    for _ in 0..IDLE_ITERATIONS {
        idle += u32::from(pair.a.iterate()) + u32::from(pair.b.iterate());
    }
    let idle_iterate_ns = (clock.now() - t0) as f64 / f64::from(2 * IDLE_ITERATIONS);
    drop(pair);

    let (mut pair, mut w, _) = setup::<true, W>(&clock, seed, 1, tally);
    let mut before = (0, 0);
    let mut after = (0, 0);
    let mut agg = Vec::new();
    let slices = measure(
        &mut pair,
        &mut w,
        &clock,
        half,
        || {},
        |p| {
            before = path_counters(p);
            trace::start_window(SPAN_CAPACITY);
        },
        |p| {
            agg = trace::aggregates();
            after = path_counters(p);
        },
    );
    let msgs = total_of(&slices, |s| s.delivered);
    let secs = total_of(&slices, |s| s.secs);
    tally.add(&pair, &mut w);

    let spans = out_dir().join(format!("spans-{name}-seed{seed}.tsv"));
    match trace::write_spans(&spans) {
        Ok(n) => println!("spans: {n} written to {}", spans.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", spans.display()),
    }

    let get = |k: Kind| {
        agg.iter()
            .find(|(x, _)| *x == k)
            .map_or(Agg::default(), |e| e.1)
    };
    let self_ns = |layer: Layer| -> f64 {
        agg.iter()
            .filter(|(k, _)| k.layer() == layer)
            .map(|(_, a)| a.self_ns as f64)
            .sum()
    };
    let calls = |layer: Layer| -> u64 {
        agg.iter()
            .filter(|(k, _)| k.layer() == layer)
            .map(|(_, a)| a.calls)
            .sum()
    };
    let per_msg = |v: f64| ratio(v, msgs as f64);
    let mean_ns = |a: Agg| ratio(a.total_ns as f64, a.calls as f64);
    let share = |a: Agg| ratio(a.flagged as f64, a.units as f64);

    let (send, batch, recv) = (
        get(Kind::LinkSend),
        get(Kind::LinkSendBatch),
        get(Kind::LinkRecv),
    );
    let datagrams = send.units + batch.units;
    let iterate = get(Kind::EngineIterate);
    let wall_ns = secs * 1e9;
    let traced_p50_us = median_of(&slices, |s| s.p50_us);
    let attributed: f64 = [Layer::Core, Layer::Engine, Layer::Net, Layer::Link]
        .into_iter()
        .map(self_ns)
        .sum();
    let (rexmit, stalls) = (after.0 - before.0, after.1 - before.1);

    let unattributed = per_msg(wall_ns - attributed);
    if W::HEADLINE_IS_THROUGHPUT {
        println!(
            "check: unattributed {unattributed:.1} ns/msg against a traced wall time of {:.1} ns/msg",
            per_msg(wall_ns)
        );
    } else {
        println!(
            "check: unattributed {unattributed:.1} ns/msg is {:.1}% of the traced one-way p50 ({:.3} us)",
            100.0 * unattributed / (traced_p50_us * 1e3),
            traced_p50_us
        );
    }

    vec![
        metric(
            "link.datagrams_per_msg",
            per_msg(datagrams as f64),
            "count",
            datagrams,
        ),
        metric(
            "link.send_ns",
            ratio(
                (send.total_ns + batch.total_ns) as f64,
                (send.calls + batch.calls) as f64,
            ),
            "ns",
            send.calls + batch.calls,
        ),
        metric("link.recv_ns", mean_ns(recv), "ns", recv.calls),
        metric("link.recv_empty_ratio", share(recv), "ratio", recv.calls),
        metric(
            "link.send_failed_ratio",
            ratio((send.flagged + batch.flagged) as f64, datagrams as f64),
            "ratio",
            datagrams,
        ),
        metric(
            "link.self_ns_per_msg",
            per_msg(self_ns(Layer::Link)),
            "ns",
            msgs,
        ),
        metric(
            "net.self_ns_per_msg",
            per_msg(self_ns(Layer::Net)),
            "ns",
            msgs,
        ),
        metric(
            "net.try_send_refused_ratio",
            share(get(Kind::NetTrySend)),
            "ratio",
            get(Kind::NetTrySend).calls,
        ),
        metric(
            "net.try_recv_empty_ratio",
            share(get(Kind::NetTryRecv)),
            "ratio",
            get(Kind::NetTryRecv).calls,
        ),
        metric(
            "net.retransmits_per_msg",
            per_msg(rexmit as f64),
            "count",
            rexmit,
        ),
        metric(
            "net.credit_stalls_per_kmsg",
            per_msg(stalls as f64 * 1e3),
            "count/kmsg",
            stalls,
        ),
        metric(
            "engine.iterations_per_msg",
            per_msg(iterate.calls as f64),
            "count",
            iterate.calls,
        ),
        metric("engine.idle_ratio", share(iterate), "ratio", iterate.calls),
        metric(
            "engine.idle_iterate_ns",
            idle_iterate_ns,
            "ns",
            u64::from(idle),
        ),
        metric(
            "engine.self_ns_per_msg",
            per_msg(self_ns(Layer::Engine)),
            "ns",
            msgs,
        ),
        metric(
            "core.calls_per_msg",
            per_msg(calls(Layer::Core) as f64),
            "count",
            calls(Layer::Core),
        ),
        metric(
            "core.send_ns",
            mean_ns(get(Kind::CoreSend)),
            "ns",
            get(Kind::CoreSend).calls,
        ),
        metric(
            "core.recv_ns",
            mean_ns(get(Kind::CoreRecv)),
            "ns",
            get(Kind::CoreRecv).calls,
        ),
        metric(
            "core.self_ns_per_msg",
            per_msg(self_ns(Layer::Core)),
            "ns",
            msgs,
        ),
        metric(
            "core.recv_empty_ratio",
            share(get(Kind::CoreRecv)),
            "ratio",
            get(Kind::CoreRecv).calls,
        ),
        metric(
            "core.send_refused_ratio",
            share(get(Kind::CoreSend)),
            "ratio",
            get(Kind::CoreSend).calls,
        ),
        metric(
            "harness.generator_lag_p99_us",
            median_of(&slices, |s| s.lag_p99_us),
            "us",
            total_of(&slices, |s| s.lag_samples),
        ),
        metric("harness.unattributed_ns_per_msg", unattributed, "ns", msgs),
        metric(
            "harness.trace_overhead_ratio",
            slowdown::<W>(&slices, &untraced),
            "ratio",
            msgs,
        ),
    ]
}

/// Where spans and result records go: `out/` beside this package's
/// manifest.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The commit the checkout was made from, read from `.git` beside this
/// package (without running git); `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run<W: Workload>(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \"nproc\": {nproc}, \"fabric\": \"loopback UDP on 127.0.0.1; traffic crossed the loopback interface, not a real link\", \"engines\": \"both nodes' engines iterated inline by one thread\"}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_rev()),
    );
    println!("provenance {provenance}");

    let mut tally = Tally::default();
    let metrics = if args.trace {
        run_traced::<W>(&args.workload, args.seed, args.seconds, &mut tally)
    } else {
        match run_untraced::<W>(args.seed, args.seconds, &mut tally) {
            Some(m) => m,
            None => {
                eprintln!("perfbench: cannot read peak RSS from /proc/self/status");
                return ExitCode::FAILURE;
            }
        }
    };

    for m in &metrics {
        println!(
            "metric {:<34} {:>16.4} {:<10} samples {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "metric {:<34} {:>16.4} {:<10} samples {}",
        "failed_ratio",
        ratio(tally.failed() as f64, tally.offered as f64),
        "ratio",
        tally.offered
    );
    if tally.drops > 0 {
        println!(
            "error: {} messages dropped for want of a receive buffer",
            tally.drops
        );
    }
    for e in &tally.errors {
        println!("error: {e}");
    }
    let result = result_json(tally.correct(), tally.offered, tally.failed(), &metrics);
    let record = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record, format!("{provenance}\n{result}\n")) {
        eprintln!("perfbench: could not write {}: {e}", record.display());
    }
    println!("{result}");
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pingpong-64|stream-64|tiered-544> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "pingpong-64" => run::<PingPong>(&args),
        "stream-64" => run::<Stream>(&args),
        "tiered-544" => run::<Tiered>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            ExitCode::from(2)
        }
    }
}
