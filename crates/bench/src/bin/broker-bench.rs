//! Open-loop broker benchmark: client processes drive a live
//! [`BrokerNode`] over Unix-domain sockets and measure end-to-end
//! publish→deliver latency.
//!
//! The coordinator starts the broker (match index behind the peer
//! plane, DESIGN.md §16), spawns `--workers` client processes
//! (re-invocations of this binary with `--worker`), and barriers them
//! on a control topic: every worker subscribes to all `--keys` bench
//! topics plus `::go`, the coordinator waits until the broker's live
//! count shows every subscription applied, then publishes `::go`.
//! From that instant each worker publishes `--publishes` messages
//! open-loop (no waiting between sends) while draining its own
//! deliveries; with every worker subscribed to every topic the
//! delivery fan-out is exact and deterministic — `workers²×publishes`
//! deliveries in total — so the perf entry's work counters are
//! seed-independent even though the latencies are wall clock.
//!
//! Artifacts (under `results/` or `$BSUB_RESULTS_DIR`):
//!
//! - `broker_qps.csv` — publish QPS, p50/p99 publish→deliver latency,
//!   and one row per observed frame kind from the broker's metrics
//!   sink (the DESIGN.md §15 stats plane; host-dependent, never
//!   diffed).
//! - `BENCH_perf.json` — one appended `broker_smoke` perf entry.
//!
//! Flags: `--smoke` (the only load shape for now), `--check` (gate
//! the perf entry against the committed baseline), `--workers N`
//! (default 2), `--publishes N` (per worker, default 150), `--keys N`
//! (bench topics, default 8), `--stats-addr A` (also serve the
//! broker's live metrics as Prometheus/JSON while the run executes;
//! `HOST:PORT` or `unix:PATH`). `--worker --dir D --peer N
//! --workers W --publishes P --keys K` is the internal client mode.

use bsub_bench::output::{arg_value, percentile_us, render_table, results_dir, write_csv};
use bsub_bench::perf::{self, PerfEntry, Tolerance};
use bsub_net::{
    frame_time_hist, BrokerClient, BrokerConfig, BrokerNode, EndpointAddr, FrameKind, PeerConfig,
    PeerId, StatsHandle, StatsServer, HEADER_LEN,
};
use bsub_obs::{calibrate_ns, ProfReport};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The broker's peer id; client workers are `1..=workers` and the
/// coordinator's own control client sits just above them.
const BROKER: PeerId = PeerId(10_000);
const CONTROL: PeerId = PeerId(10_001);

/// The barrier topic. Workers subscribe to it alongside the bench
/// topics and hold their publish loop until its delivery arrives.
const GO: &str = "::go";

fn topic(i: u64) -> String {
    format!("bench-{i}")
}

fn numeric(args: &[String], key: &str, default: u64) -> u64 {
    arg_value(args, key).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{key} requires a non-negative integer, got {v}");
            std::process::exit(2);
        })
    })
}

/// Parses a stats endpoint address: `unix:PATH` or a TCP `HOST:PORT`.
fn parse_stats_addr(raw: &str) -> EndpointAddr {
    if let Some(path) = raw.strip_prefix("unix:") {
        return EndpointAddr::Unix(PathBuf::from(path));
    }
    match raw.parse() {
        Ok(sock) => EndpointAddr::Tcp(sock),
        Err(_) => {
            eprintln!("--stats-addr wants HOST:PORT or unix:PATH, got {raw}");
            std::process::exit(2);
        }
    }
}

fn broker_addr(dir: &Path) -> EndpointAddr {
    EndpointAddr::Unix(dir.join("broker.sock"))
}

fn worker_main(args: &[String]) -> ! {
    let dir = PathBuf::from(arg_value(args, "--dir").expect("--dir"));
    let peer = numeric(args, "--peer", 0) as u32;
    let workers = numeric(args, "--workers", 0);
    let publishes = numeric(args, "--publishes", 0);
    let keys = numeric(args, "--keys", 0);
    assert!(peer > 0 && workers > 0 && publishes > 0 && keys > 0);

    let local = EndpointAddr::Unix(dir.join(format!("client-{peer}.sock")));
    let client = BrokerClient::connect(
        PeerConfig::new(PeerId(peer), local, u64::from(peer)),
        BROKER,
        &broker_addr(&dir),
    )
    .unwrap_or_else(|e| {
        eprintln!("worker {peer}: connect failed: {e}");
        std::process::exit(1);
    });
    // Arm the client-side metrics sink: the coordinator merges every
    // worker's report so the per-kind histogram rows cover the frames
    // clients write (SUBSCRIBE, PUBLISH), not just the broker's.
    client.manager().metrics().enable();

    // Subscribe to every bench topic plus the barrier topic, then hold
    // for the coordinator's `::go`.
    let mut topics: Vec<String> = (0..keys).map(topic).collect();
    topics.push(GO.to_string());
    client.subscribe(&topics, None).expect("subscribe");
    let go = Instant::now() + Duration::from_secs(60);
    loop {
        let left = go.saturating_duration_since(Instant::now());
        match client.recv_delivery(left) {
            Some(d) if d.body.key == GO => break,
            Some(_) => continue,
            None => {
                eprintln!("worker {peer}: no `{GO}` barrier within 60s");
                std::process::exit(1);
            }
        }
    }

    // Open-loop publish on this thread; a drain thread collects our
    // own delivery stream concurrently (every publish in the run fans
    // out to every worker, ourselves included).
    let client = Arc::new(client);
    let expected = (workers * publishes) as usize;
    let drain = {
        let client = Arc::clone(&client);
        thread::spawn(move || {
            let mut latencies_ns = Vec::with_capacity(expected);
            let deadline = Instant::now() + Duration::from_secs(120);
            while latencies_ns.len() < expected {
                let left = deadline.saturating_duration_since(Instant::now());
                match client.recv_delivery(left) {
                    Some(d) if d.body.key == GO => continue,
                    Some(d) => latencies_ns.push(d.latency_ns()),
                    None => break,
                }
            }
            latencies_ns
        })
    };
    for i in 0..publishes {
        let seq = (u64::from(peer) << 32) | i;
        client.publish(seq, &topic(i % keys)).expect("publish");
    }
    let latencies_ns = drain.join().expect("drain thread");

    let lines: String = latencies_ns.iter().map(|ns| format!("{ns}\n")).collect();
    std::fs::write(dir.join(format!("lat-{peer}.txt")), lines).expect("write latency samples");
    std::fs::write(
        dir.join(format!("stats-{peer}.bin")),
        client.manager().metrics().snapshot().encode(),
    )
    .expect("write worker metrics");
    if latencies_ns.len() < expected {
        eprintln!(
            "worker {peer}: {} of {expected} deliveries arrived before the deadline",
            latencies_ns.len()
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        worker_main(&args);
    }
    let check = args.iter().any(|a| a == "--check");
    // `--smoke` is the only load shape today; accept and ignore it so
    // the ci.sh invocation reads like the other smoke gates.
    let workers = numeric(&args, "--workers", 2);
    // Sized so the smoke run's wall clock is comfortably above
    // scheduler noise (~100 ms) — the perf gate medians normalized CPU
    // time, and a single-digit-millisecond wall would make it flaky.
    let publishes = numeric(&args, "--publishes", 5000);
    let keys = numeric(&args, "--keys", 16);
    assert!(workers > 0 && publishes > 0 && keys > 0);

    let dir = std::env::temp_dir().join(format!("bsub-broker-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench socket dir");

    let broker =
        BrokerNode::serve(BrokerConfig::new(BROKER, broker_addr(&dir), 0x1B)).expect("bind broker");
    broker.manager().metrics().enable();

    // The live stats plane: a merger thread ships the broker's metrics
    // deltas into a handle the optional endpoint serves while the
    // bench is running; the per-kind rows below come from the same
    // merged report.
    let stats = StatsHandle::new();
    let server = arg_value(&args, "--stats-addr").map(|raw| {
        let server = StatsServer::serve(&parse_stats_addr(&raw), stats.clone())
            .expect("bind stats endpoint");
        println!(
            "[stats endpoint {} — /metrics, /metrics.json]",
            server.local_addr()
        );
        server
    });
    let merger_stop = Arc::new(AtomicBool::new(false));
    let merger = {
        let stats = stats.clone();
        let metrics = Arc::clone(broker.manager());
        let stop = Arc::clone(&merger_stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                stats.merge(&metrics.metrics().take_delta());
                thread::sleep(Duration::from_millis(100));
            }
            stats.merge(&metrics.metrics().take_delta());
        })
    };

    let exe = std::env::current_exe().expect("current executable");
    let mut children: Vec<_> = (1..=workers)
        .map(|w| {
            Command::new(&exe)
                .args([
                    "--worker",
                    "--dir",
                    dir.to_str().expect("utf-8 temp dir"),
                    "--peer",
                    &w.to_string(),
                    "--workers",
                    &workers.to_string(),
                    "--publishes",
                    &publishes.to_string(),
                    "--keys",
                    &keys.to_string(),
                ])
                .stdin(Stdio::null())
                .spawn()
                .expect("spawn client worker")
        })
        .collect();

    // Barrier: one subscription per worker; once the broker has
    // applied them all, every client is ready for `::go`.
    let subscribed = Instant::now() + Duration::from_secs(60);
    while broker.live_count() < workers as usize {
        if Instant::now() >= subscribed {
            eprintln!(
                "broker-bench: only {} of {workers} workers subscribed within 60s",
                broker.live_count()
            );
            for child in &mut children {
                let _ = child.kill();
            }
            std::process::exit(1);
        }
        thread::sleep(Duration::from_millis(5));
    }

    let control = BrokerClient::connect(
        PeerConfig::new(CONTROL, EndpointAddr::Unix(dir.join("control.sock")), 0x60),
        BROKER,
        &broker_addr(&dir),
    )
    .expect("connect control client");
    let t0 = Instant::now();
    control.publish(0, GO).expect("publish barrier");

    for mut child in children {
        let status = child.wait().expect("wait for client worker");
        if !status.success() {
            eprintln!("broker-bench: a client worker failed");
            std::process::exit(1);
        }
    }
    let wall = t0.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;

    let mut latencies_ns: Vec<u64> = Vec::new();
    for w in 1..=workers {
        let text =
            std::fs::read_to_string(dir.join(format!("lat-{w}.txt"))).expect("latency samples");
        latencies_ns.extend(text.lines().filter_map(|l| l.parse::<u64>().ok()));
        let encoded = std::fs::read(dir.join(format!("stats-{w}.bin"))).expect("worker metrics");
        stats.merge(&ProfReport::decode(&encoded).expect("decode worker metrics"));
    }
    latencies_ns.sort_unstable();

    merger_stop.store(true, Ordering::Release);
    merger.join().expect("merger thread");
    let merged = stats.snapshot();
    drop(server);
    drop(broker);
    let _ = std::fs::remove_dir_all(&dir);

    let total_publishes = workers * publishes;
    let total_deliveries = total_publishes * workers;
    assert_eq!(
        latencies_ns.len() as u64,
        total_deliveries,
        "delivery fan-out must be exact: every worker subscribes to every topic"
    );
    let qps = total_publishes as f64 / wall.as_secs_f64().max(1e-9);

    let headers = [
        "metric", "samples", "p50_us", "p99_us", "per_sec", "wall_ms",
    ];
    let mut rows = vec![vec![
        "publish_deliver".to_string(),
        latencies_ns.len().to_string(),
        format!("{:.1}", percentile_us(&latencies_ns, 50)),
        format!("{:.1}", percentile_us(&latencies_ns, 99)),
        format!("{qps:.1}"),
        format!("{wall_ms:.1}"),
    ]];
    for kind in FrameKind::ALL {
        let hist = merged.time_hist(frame_time_hist(kind));
        if hist.count() == 0 {
            continue;
        }
        rows.push(vec![
            format!("frame_{}", kind.name()),
            hist.count().to_string(),
            format!("{:.1}", hist.quantile(0.5) as f64 / 1e3),
            format!("{:.1}", hist.quantile(0.99) as f64 / 1e3),
            format!("{:.1}", hist.count() as f64 / wall.as_secs_f64().max(1e-9)),
            format!("{wall_ms:.1}"),
        ]);
    }
    print!(
        "{}",
        render_table(
            "broker_qps — open-loop publish→deliver (wall clock, not diffed)",
            &headers,
            &rows
        )
    );
    write_csv("broker_qps", &headers, &rows);

    // Deterministic work counters: the fan-out is exact, so the frame
    // byte volume follows from the key schedule alone (PUBLISH body is
    // 20 bytes + key, DELIVER is 24 bytes + key, both behind the
    // 8-byte frame header).
    let mut bytes = 0u64;
    for i in 0..publishes {
        let key_len = topic(i % keys).len() as u64;
        bytes += workers * (HEADER_LEN as u64 + 20 + key_len);
        bytes += workers * workers * (HEADER_LEN as u64 + 24 + key_len);
    }
    let entry = PerfEntry {
        experiment: "broker_smoke".to_string(),
        workers,
        runs: 1,
        total_ms: wall_ms,
        cpu_ms: wall_ms,
        speedup: 1.0,
        calib_ns: calibrate_ns(),
        bytes,
        forwardings: total_publishes,
        delivered: total_deliveries,
    };
    let trajectory = results_dir().join("BENCH_perf.json");
    perf::append(&trajectory, &entry);
    println!("[appended {}]", trajectory.display());

    if check {
        let baseline = perf::load(&perf::baseline_path());
        match perf::check(&baseline, &entry, Tolerance::from_env()) {
            Ok(msg) => println!("[perf ok] {msg}"),
            Err(msg) => {
                eprintln!("[perf REGRESSION] {msg}");
                std::process::exit(3);
            }
        }
    }
    println!(
        "broker-bench: {total_publishes} publishes → {total_deliveries} deliveries at {qps:.0}/s"
    );
}
