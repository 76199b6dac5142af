//! `broker_uds`: a live `BrokerNode` served over loopback Unix-domain
//! sockets to two `BrokerClient` connections, one generator thread
//! each. Client A publishes and subscribes; client B only subscribes.
//!
//! Topics are the 38 paper trend keys, published with their trend
//! weights. A and B subscribe to overlapping seeded subsets and a few
//! keys have no subscriber, so a publish fans out to 0–2 clients.
//!
//! A run starts [`STACKS`] fresh stacks, each a newly started broker and
//! clients:
//!
//! 1. **steady** — open-loop Poisson arrivals at [`STEADY_RATE`],
//!    latency timed from each publish's intended send time;
//! 2. **flood** — [`FLOOD_ROUNDS`] rounds of [`FLOOD_PUBLISHES`]
//!    publishes sent as fast as backpressure allows; capacity is the
//!    deliveries received per second.
//!
//! The oracle: each client's received `seq` set must equal a
//! `ReferenceMatcher` replay (the broker's `MatchParams`) over the two
//! subscriptions — Bloom false positives included — with no duplicates.

use crate::openloop::{self, Plan, Sink, ThreadGauge, ThreadLog, GEN_THREADS};
use crate::report::{self, Outcome};
use crate::spans::Tracer;
use bsub_bloom::rng::SplitMix64;
use bsub_match::{Event, ReferenceMatcher};
use bsub_net::{
    frame_time_hist, BrokerClient, BrokerConfig, BrokerNode, EndpointAddr, FrameKind, PeerConfig,
    PeerId,
};
use bsub_obs::{Counter, ProfReport, SizeHist, TimeHist};
use bsub_workload::keys::trend_keys;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Offered publish rate of the steady phase, per second: about a
/// quarter of the flood capacity measured on a 2-vCPU host.
pub const STEADY_RATE: f64 = 25_000.0;
/// Share of the run's seconds spent in the steady phase.
const STEADY_SHARE: f64 = 0.6;
/// Leading share of each steady segment excluded from latency (warm-up).
const WARMUP_SHARE: f64 = 0.05;
/// Stacks per run: each a fresh broker with fresh clients (new
/// threads) that runs one steady segment and its flood rounds. The
/// figures are medians over stacks, so where the scheduler happened
/// to put one set of threads on the 2 vCPUs does not decide the run.
const STACKS: usize = 12;
/// Set-ups per stack (all but the last torn down); `setup_s` is the
/// median of every set-up in the run.
const SETUPS_PER_STACK: usize = 3;
/// Publishes per flood round, and rounds per stack.
pub const FLOOD_PUBLISHES: usize = 40_000;
const FLOOD_ROUNDS: usize = 1;
/// Back-to-back publishes before the flood publisher drains.
const FLOOD_DRAIN_EVERY: usize = 256;
/// How long a phase may overrun before missing deliveries count as lost.
const GRACE: Duration = Duration::from_secs(10);

const BROKER: PeerId = PeerId(1000);
const CLIENT_A: PeerId = PeerId(1);
const CLIENT_B: PeerId = PeerId(2);

/// The seeded inputs: the two subscriptions and the key weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub keys: Vec<&'static str>,
    pub weights: Vec<f64>,
    pub subs_a: Vec<&'static str>,
    pub subs_b: Vec<&'static str>,
    pub seed: u64,
}

impl Inputs {
    /// Assigns each key to A only, B only, both, or neither. Keys are
    /// taken in weight order in blocks of four; each block holds one
    /// A-only, one B-only and two shared keys, placed by the seed, and
    /// the leftover lightest keys have no subscriber. Every seed thus
    /// gets different subscriptions with nearly the same fan-out
    /// (about 1.5), so the load does not change with the seed.
    pub fn generate(seed: u64) -> Self {
        let all = trend_keys();
        let mut rng = SplitMix64::new(SplitMix64::mix(seed, 0xB0));
        // Classes 0: neither, 1: A, 2: B, 3: both.
        let mut class = vec![0u8; all.len()];
        for block in class.chunks_exact_mut(4) {
            block.copy_from_slice(&[1, 2, 3, 3]);
            for i in (1..4).rev() {
                block.swap(i, rng.below_usize(i + 1));
            }
        }
        let pick = |want: &[u8]| -> Vec<&'static str> {
            all.iter()
                .zip(&class)
                .filter(|(_, c)| want.contains(c))
                .map(|(k, _)| k.name)
                .collect()
        };
        Self {
            keys: all.iter().map(|k| k.name).collect(),
            weights: all.iter().map(|k| k.weight).collect(),
            subs_a: pick(&[1, 3]),
            subs_b: pick(&[2, 3]),
            seed,
        }
    }

    fn steady_plan(&self, stack: usize, seconds: f64) -> Plan {
        let count = (STEADY_RATE * seconds * STEADY_SHARE / STACKS as f64).max(1000.0) as usize;
        Plan::poisson(
            SplitMix64::mix(self.seed, 0xB100 + stack as u64),
            (stack as u64) << 32,
            STEADY_RATE,
            count,
            &self.weights,
        )
    }

    fn flood_plan(&self, stack: usize, round: usize) -> Plan {
        let n = stack * FLOOD_ROUNDS + round;
        Plan::burst(
            SplitMix64::mix(self.seed, 0xB200 + n as u64),
            (1 << 40) + (n * FLOOD_PUBLISHES) as u64,
            FLOOD_PUBLISHES,
            &self.weights,
        )
    }

    /// The generated inputs as bytes (the seeding test compares these).
    #[cfg(test)]
    pub fn to_bytes(&self, seconds: f64) -> Vec<u8> {
        let mut out = Vec::new();
        for k in self.subs_a.iter().chain([&"|"]).chain(&self.subs_b) {
            out.extend_from_slice(k.as_bytes());
        }
        out.extend(self.steady_plan(0, seconds).to_bytes());
        out.extend(self.flood_plan(0, 0).to_bytes());
        out
    }

    /// Per key: whether A and whether B must receive it, by replaying
    /// the two subscriptions through the reference matcher.
    fn recipients(&self, config: &BrokerConfig) -> Vec<[bool; 2]> {
        let mut reference = ReferenceMatcher::from_params(&config.params);
        reference.subscribe(u64::from(CLIENT_A.0), &self.subs_a);
        reference.subscribe(u64::from(CLIENT_B.0), &self.subs_b);
        let events: Vec<Event> = self.keys.iter().map(|k| Event::new(*k)).collect();
        reference
            .match_events(&events)
            .matches
            .iter()
            .map(|m| {
                [
                    m.contains(&u64::from(CLIENT_A.0)),
                    m.contains(&u64::from(CLIENT_B.0)),
                ]
            })
            .collect()
    }
}

struct ClientSink(BrokerClient);

impl Sink for ClientSink {
    fn publish(&self, seq: u64, key: &str) -> io::Result<()> {
        self.0.publish(seq, key)
    }

    fn recv(&self, timeout: Duration) -> Option<u64> {
        self.0.recv_delivery(timeout).map(|d| d.body.seq)
    }
}

/// A running broker with both clients connected and subscribed.
struct Stack {
    broker: BrokerNode,
    a: ClientSink,
    b: ClientSink,
}

fn start_stack(dir: &std::path::Path, inputs: &Inputs, traced: bool) -> io::Result<Stack> {
    let addr = EndpointAddr::Unix(dir.join("broker.sock"));
    let broker = BrokerNode::serve(BrokerConfig::new(BROKER, addr.clone(), inputs.seed))?;
    let connect = |id: PeerId, name: &str| {
        BrokerClient::connect(
            PeerConfig::new(
                id,
                EndpointAddr::Unix(dir.join(name)),
                inputs.seed ^ u64::from(id.0),
            ),
            BROKER,
            &addr,
        )
    };
    let a = connect(CLIENT_A, "a.sock")?;
    let b = connect(CLIENT_B, "b.sock")?;
    if traced {
        broker.manager().metrics().enable();
        a.manager().metrics().enable();
        b.manager().metrics().enable();
    }
    a.subscribe(&inputs.subs_a, None)?;
    b.subscribe(&inputs.subs_b, None)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while broker.live_count() < GEN_THREADS {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "subscriptions were not applied within 30 s",
            ));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    Ok(Stack {
        broker,
        a: ClientSink(a),
        b: ClientSink(b),
    })
}

/// Expected deliveries of `plan` per client.
fn expected(plan: &Plan, recipients: &[[bool; 2]]) -> [usize; 2] {
    let mut n = [0; 2];
    for &k in &plan.keys {
        for (c, slot) in n.iter_mut().enumerate() {
            *slot += usize::from(recipients[k as usize][c]);
        }
    }
    n
}

/// Per client, every publish whose delivery set was wrong: missing,
/// duplicated, or unexpected.
fn oracle_failures(
    plans: &[&Plan],
    recipients: &[[bool; 2]],
    received: [&[(u64, Instant)]; 2],
) -> u64 {
    let mut bad = std::collections::BTreeSet::new();
    for client in 0..2 {
        let mut seqs: Vec<u64> = received[client].iter().map(|&(s, _)| s).collect();
        seqs.sort_unstable();
        let mut want: Vec<u64> = Vec::new();
        for plan in plans {
            for (i, &k) in plan.keys.iter().enumerate() {
                if recipients[k as usize][client] {
                    want.push(plan.base_seq + i as u64);
                }
            }
        }
        want.sort_unstable();
        let (mut i, mut j) = (0, 0);
        while i < seqs.len() || j < want.len() {
            match (seqs.get(i), want.get(j)) {
                (Some(s), Some(w)) if s == w => {
                    i += 1;
                    j += 1;
                    // A duplicate repeats the seq just matched.
                    while seqs.get(i) == Some(s) {
                        bad.insert(*s);
                        i += 1;
                    }
                }
                (Some(s), Some(w)) if s < w => {
                    bad.insert(*s);
                    i += 1;
                }
                (Some(_), Some(w)) => {
                    bad.insert(*w);
                    j += 1;
                }
                (Some(s), None) => {
                    bad.insert(*s);
                    i += 1;
                }
                (None, Some(w)) => {
                    bad.insert(*w);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }
    bad.len() as u64
}

fn hist_q(report: &ProfReport, h: TimeHist, q: f64) -> f64 {
    report.time_hist(h).quantile(q) as f64
}

/// A socket directory inside the checkout, relative to the working
/// directory so socket paths stay short.
fn socket_dir(stack: usize, setup: usize) -> PathBuf {
    PathBuf::from("perfbench/out").join(format!("uds-{}-{stack}-{setup}", std::process::id()))
}

/// Latency of every steady delivery after the warm-up, timed from the
/// publish's intended send time.
fn steady_latencies(plan: &Plan, start: Instant, logs: &[ThreadLog; 2]) -> Vec<u64> {
    let warm = (plan.len() as f64 * WARMUP_SHARE) as u64;
    let mut ns: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.received.iter())
        .filter_map(|&(seq, at)| {
            let i = seq.checked_sub(plan.base_seq)?;
            (i >= warm && (i as usize) < plan.len()).then(|| {
                let due = start + Duration::from_nanos(plan.offsets_ns[i as usize]);
                at.saturating_duration_since(due).as_nanos() as u64
            })
        })
        .collect();
    ns.sort_unstable();
    ns
}

/// Deliveries per second of one flood round: all deliveries over the
/// time from the round's start to the last one received.
fn flood_rate(start: Instant, logs: &[ThreadLog; 2]) -> f64 {
    let delivered = logs[0].received.len() + logs[1].received.len();
    let last = logs
        .iter()
        .flat_map(|l| l.received.iter().map(|&(_, at)| at))
        .max()
        .unwrap_or(start);
    delivered as f64
        / last
            .saturating_duration_since(start)
            .as_secs_f64()
            .max(1e-9)
}

/// Runs the workload; `seconds` sizes the steady phase.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(seed);
    let recipients = inputs.recipients(&BrokerConfig::new(
        BROKER,
        EndpointAddr::Unix(PathBuf::new()),
        seed,
    ));
    let t0 = Instant::now();
    let mut tracer: Option<Tracer> = traced.then(|| Tracer::new(t0, 0));
    let gauge = ThreadGauge::default();
    let mut setups = Vec::new();
    let mut dirs = Vec::new();
    let (mut stack_p50, mut stack_p99, mut flood_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut late_ns) = (0usize, Vec::new());
    let (mut plans, mut logs_all) = (Vec::new(), Vec::new());
    let (mut client_metrics, mut broker_metrics) = (ProfReport::default(), ProfReport::default());

    for stack_no in 0..STACKS {
        let mut stack = None;
        for i in 0..SETUPS_PER_STACK {
            let dir = socket_dir(stack_no, i);
            dirs.push(dir.clone());
            // Tear the previous stack down before timing the next set-up.
            drop(stack.take());
            let t = Instant::now();
            match std::fs::create_dir_all(&dir).and_then(|()| start_stack(&dir, &inputs, traced)) {
                Ok(s) => {
                    setups.push(t.elapsed().as_secs_f64());
                    stack = Some(s);
                }
                Err(e) => {
                    out.check(1, false, format!("broker set-up in {}: {e}", dir.display()));
                    break;
                }
            }
        }
        let Some(stack) = stack else { break };
        let mut drive = |plan: &Plan, start: Instant, deadline: Instant, drain: Option<usize>| {
            let tracers = traced.then(|| [Tracer::new(t0, 0), Tracer::new(t0, 1)]);
            let expect = expected(plan, &recipients);
            let mut logs = openloop::drive(
                &stack.a,
                &stack.b,
                plan,
                &inputs.keys,
                expect,
                start,
                deadline,
                drain,
                tracers,
                &gauge,
            );
            if let Some(t) = tracer.as_mut() {
                for log in &mut logs {
                    t.merge(log.tracer.take().expect("traced thread log"));
                }
            }
            logs
        };

        // Steady open-loop segment.
        let plan = inputs.steady_plan(stack_no, seconds);
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_nanos(plan.offsets_ns.last().copied().unwrap_or(0));
        let logs = drive(&plan, start, end + GRACE, None);
        let lat = steady_latencies(&plan, start, &logs);
        stack_p50.push(report::quantile(&lat, 0.5) as f64);
        stack_p99.push(report::quantile(&lat, 0.99) as f64);
        samples += lat.len();
        late_ns.extend_from_slice(&logs[0].late_ns);
        plans.push(plan);
        logs_all.push(logs);

        // Flood rounds, each sent as fast as backpressure allows.
        for round in 0..FLOOD_ROUNDS {
            let plan = inputs.flood_plan(stack_no, round);
            let start = Instant::now();
            let logs = drive(&plan, start, start + GRACE, Some(FLOOD_DRAIN_EVERY));
            flood_rates.push(flood_rate(start, &logs));
            plans.push(plan);
            logs_all.push(logs);
        }
        if traced {
            client_metrics.merge(&stack.a.0.manager().metrics().snapshot());
            client_metrics.merge(&stack.b.0.manager().metrics().snapshot());
            broker_metrics.merge(&stack.broker.manager().metrics().snapshot());
        }
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }

    // Oracle: every client's received seq set, over every phase.
    let received: [Vec<(u64, Instant)>; 2] = [0, 1].map(|c| {
        logs_all
            .iter()
            .flat_map(|logs: &[ThreadLog; 2]| logs[c].received.iter().copied())
            .collect()
    });
    let plan_refs: Vec<&Plan> = plans.iter().collect();
    let total_publishes: u64 = plans.iter().map(|p| p.len() as u64).sum();
    let bad = oracle_failures(&plan_refs, &recipients, [&received[0], &received[1]]);
    let errors: u64 = logs_all.iter().map(|l| l[0].publish_errors).sum();
    out.attempted += total_publishes;
    out.failed += bad.max(errors).min(total_publishes);
    if bad > 0 || errors > 0 {
        out.notes.push(format!(
            "ORACLE FAILED: {bad} publishes delivered wrongly, {errors} publish errors"
        ));
    }
    let deliveries = received[0].len() + received[1].len();
    out.notes.push(format!(
        "oracle: {deliveries} deliveries of {total_publishes} publishes to 2 subscribers vs ReferenceMatcher replay; {bad} publishes wrong"
    ));

    late_ns.sort_unstable();
    let (p50, p99) = (report::median(&stack_p50), report::median(&stack_p99));
    let flood = report::median(&flood_rates);
    out.e2e.insert("setup_s", report::median(&setups));
    out.e2e.insert("throughput_per_s", flood);
    out.e2e.insert("latency_p50_ms", p50 / 1e6);
    out.layers.insert("net.deliver_p99_us", p99 / 1e3);
    let us = |v: &[f64]| v.iter().map(|x| (x / 1e3).round()).collect::<Vec<_>>();
    out.notes.push(format!(
        "deliver_p50_us = {:.1} us, deliver_p99_us = {:.1} us: medians over {STACKS} stacks of their p50 / p99 (n={samples} deliveries in all; per stack p50 {:?}, p99 {:?})",
        p50 / 1e3,
        p99 / 1e3,
        us(&stack_p50),
        us(&stack_p99),
    ));
    out.notes.push(format!(
        "steady: open loop at {STEADY_RATE} publishes/s offered, fan-out {:.2}, first {:.0}% of each stack excluded as warm-up",
        deliveries as f64 / total_publishes as f64,
        WARMUP_SHARE * 100.0
    ));
    out.notes.push(format!(
        "flood_deliveries_per_s = {flood:.1} 1/s (median of {} rounds of {FLOOD_PUBLISHES} publishes: {:.0?})",
        flood_rates.len(),
        flood_rates
    ));
    let late_p99_us = report::quantile(&late_ns, 0.99) as f64 / 1e3;
    out.notes.push(format!(
        "gen.late_p99_us = {late_p99_us:.1} us over n={} steady publishes; generator threads peak {} (connections {GEN_THREADS})",
        late_ns.len(),
        gauge.peak()
    ));
    out.notes.push(format!(
        "setup_s = median of {} broker set-ups",
        setups.len()
    ));
    out.layers.insert("gen.late_p99_us", late_p99_us);

    if let Some(t) = &tracer {
        let (client, broker) = (&client_metrics, &broker_metrics);
        let publish = t.layer("net.client_publish");
        let recv = t.layer("net.client_recv_delivery");
        let gen_self = t.layer("gen.publisher").self_ns + t.layer("gen.listener").self_ns;
        let mut publish_ns = publish.durations_ns.clone();
        publish_ns.sort_unstable();
        let frames =
            client.counter(Counter::NetFramesSent) + broker.counter(Counter::NetFramesSent);
        let bytes = client.counter(Counter::NetBytesSent) + broker.counter(Counter::NetBytesSent);
        let batch = broker.time_hist(TimeHist::BrokerBatchNs);
        let match_ns = broker.time_hist(TimeHist::MatchBatchNs);
        let publish_hist = frame_time_hist(FrameKind::Publish);
        let deliver_hist = frame_time_hist(FrameKind::Deliver);
        let l = &mut out.layers;
        l.insert("gen.self_s", gen_self as f64 / 1e9);
        l.insert(
            "net.client_publish_p50_ns",
            report::quantile(&publish_ns, 0.5) as f64,
        );
        l.insert(
            "net.client_publish_p99_ns",
            report::quantile(&publish_ns, 0.99) as f64,
        );
        l.insert("net.client_recv_wait_s", recv.total_ns as f64 / 1e9);
        l.insert(
            "net.client_send_stalls",
            client.counter(Counter::NetSendStalls) as f64,
        );
        l.insert(
            "net.broker.send_stalls",
            broker.counter(Counter::NetSendStalls) as f64,
        );
        l.insert(
            "net.frame_publish_p50_ns",
            hist_q(client, publish_hist, 0.5),
        );
        l.insert(
            "net.frame_publish_p99_ns",
            hist_q(client, publish_hist, 0.99),
        );
        l.insert(
            "net.frame_deliver_p50_ns",
            hist_q(broker, deliver_hist, 0.5),
        );
        l.insert(
            "net.frame_deliver_p99_ns",
            hist_q(broker, deliver_hist, 0.99),
        );
        l.insert("net.bytes_sent", bytes as f64);
        l.insert("net.frames_sent", frames as f64);
        l.insert(
            "net.bytes_per_delivery",
            bytes as f64 / deliveries.max(1) as f64,
        );
        l.insert(
            "net.broker.batches",
            broker.counter(Counter::BrokerBatches) as f64,
        );
        l.insert(
            "net.broker.batch_ops_mean",
            broker.size_hist(SizeHist::BrokerBatchOps).mean(),
        );
        l.insert(
            "net.broker.batch_p50_ns",
            hist_q(broker, TimeHist::BrokerBatchNs, 0.5),
        );
        l.insert(
            "net.broker.batch_p99_ns",
            hist_q(broker, TimeHist::BrokerBatchNs, 0.99),
        );
        l.insert("net.broker.match_batch_ns", match_ns.mean());
        l.insert(
            "net.broker.match_share",
            match_ns.sum() as f64 / (batch.sum() as f64).max(1.0),
        );
        out.notes.push(format!(
            "per-layer samples: client publish n={}, PUBLISH frames n={}, DELIVER frames n={}, broker batches n={}, match batches n={}",
            publish_ns.len(),
            client.time_hist(publish_hist).count(),
            broker.time_hist(deliver_hist).count(),
            batch.count(),
            match_ns.count()
        ));
        out.self_times = vec![
            (
                "gen (generator threads, outside client calls)".into(),
                2 * STACKS as u64,
                gen_self as f64 / 1e9,
            ),
            (
                "net.client publish (encode, enqueue, backpressure)".into(),
                publish.count,
                publish.self_ns as f64 / 1e9,
            ),
            (
                "net.client recv_delivery (waiting + decode)".into(),
                recv.count,
                recv.self_ns as f64 / 1e9,
            ),
            (
                "net.broker service batches (broker thread)".into(),
                batch.count(),
                batch.sum() as f64 / 1e9,
            ),
            (
                "match inside broker batches".into(),
                match_ns.count(),
                match_ns.sum() as f64 / 1e9,
            ),
        ];
    }
    (out, tracer)
}
