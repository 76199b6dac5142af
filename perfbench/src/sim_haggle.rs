//! `sim_haggle`: the paper's Fig. 7 point at TTL 200 min on the
//! Haggle-like trace — one serial run each of PUSH, B-SUB and PULL.
//!
//! The seed picks a relabeling of the scenario's node ids (trace,
//! subscriptions and producers permuted together). Every seed thus
//! replays the same contact graph and the same message schedule, so the
//! simulated work barely moves with the seed while the inputs differ.
//! The default seed is the identity: its reports must equal the
//! committed `results/fig7.csv` TTL-200 row, run with the sweep's own
//! engine seeds.

use crate::report::{self, Outcome};
use crate::spans::Tracer;
use bsub_bench::experiments::ttl_sweep_spec;
use bsub_bench::{Experiment, MASTER_SEED};
use bsub_bloom::rng::SplitMix64;
use bsub_obs::{self as obs, Counter, ProfReport, TimeHist};
use bsub_sim::{
    GeneratedMessage, Link, Message, Protocol, SimCtx, SimReport, Simulation, SubscriptionTable,
};
use bsub_traces::{ContactEvent, ContactTrace, NodeId};
use std::sync::Arc;
use std::time::Instant;

/// The seed whose relabeling is the identity (the fig7 oracle seed).
pub const DEFAULT_SEED: u64 = MASTER_SEED;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// `--seconds` buys one repetition (PUSH + B-SUB + PULL) per this many
/// seconds: about one repetition's wall time on a 2-vCPU host.
const SECONDS_PER_REP: f64 = 6.0;

/// The Fig. 7 point this workload replays.
const POINT: &str = "200";

/// The experiment for `seed`, with the trace and workload generation
/// times.
pub fn generate(seed: u64) -> (Experiment, f64, f64) {
    let t = Instant::now();
    let trace = bsub_traces::synthetic::haggle_like(MASTER_SEED);
    let traces_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let exp = relabel(&Experiment::over(trace, MASTER_SEED), seed);
    (exp, traces_s, t.elapsed().as_secs_f64())
}

/// A seeded permutation of node ids applied to the whole scenario;
/// the identity at [`DEFAULT_SEED`].
fn relabel(exp: &Experiment, seed: u64) -> Experiment {
    if seed == DEFAULT_SEED {
        return exp.clone();
    }
    let n = exp.trace.node_count();
    let mut perm: Vec<u32> = (0..n).collect();
    let mut rng = SplitMix64::new(SplitMix64::mix(seed, 0x51));
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below_usize(i + 1));
    }
    let map = |id: NodeId| NodeId::new(perm[id.index()]);
    let events: Vec<ContactEvent> = exp
        .trace
        .iter()
        .map(|c| ContactEvent::new(map(c.a), map(c.b), c.start, c.end))
        .collect();
    let trace =
        ContactTrace::new(exp.trace.name(), n, events).expect("a permutation keeps ids in range");
    let mut subscriptions = SubscriptionTable::new(n);
    for node in exp.trace.node_ids() {
        for key in exp.subscriptions.interests_of(node) {
            subscriptions.subscribe(map(node), Arc::clone(key));
        }
    }
    let schedule: Vec<GeneratedMessage> = exp
        .schedule
        .iter()
        .map(|m| GeneratedMessage {
            producer: map(m.producer),
            ..m.clone()
        })
        .collect();
    Experiment {
        trace: Arc::new(trace),
        subscriptions: Arc::new(subscriptions),
        schedule: schedule.into(),
    }
}

/// The generated inputs as bytes (the seeding test compares these).
#[cfg(test)]
pub fn input_bytes(seed: u64) -> Vec<u8> {
    let (exp, _, _) = generate(seed);
    let mut out = Vec::new();
    for c in exp.trace.iter() {
        for v in [
            c.a.index() as u64,
            c.b.index() as u64,
            c.start.as_millis(),
            c.end.as_millis(),
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    for node in exp.trace.node_ids() {
        for key in exp.subscriptions.interests_of(node) {
            out.extend_from_slice(&(node.index() as u64).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
        }
    }
    for m in exp.schedule.iter() {
        out.extend_from_slice(&m.at.as_millis().to_le_bytes());
        out.extend_from_slice(&(m.producer.index() as u64).to_le_bytes());
        out.extend_from_slice(m.key.as_bytes());
        out.extend_from_slice(&m.size.to_le_bytes());
    }
    out
}

/// A delegating protocol that times every callback as a span.
struct Timed {
    inner: Box<dyn Protocol>,
    tracer: Tracer,
    contact_span: &'static str,
    message_span: &'static str,
    contacts: u64,
}

impl Protocol for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_message(&mut self, ctx: &mut SimCtx<'_>, msg: &Arc<Message>) {
        self.tracer.enter(self.message_span, msg.id.raw());
        self.inner.on_message(ctx, msg);
        self.tracer.exit();
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: &ContactEvent, link: &mut Link) {
        self.tracer.enter(self.contact_span, self.contacts);
        self.contacts += 1;
        self.inner.on_contact(ctx, contact, link);
        self.tracer.exit();
    }

    fn on_node_reset(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        self.inner.on_node_reset(ctx, node);
    }
}

/// One protocol run of the Fig. 7 point.
struct Run {
    label: String,
    sim: Simulation,
    factory: Box<dyn bsub_sim::ProtocolFactory>,
    seed: u64,
}

fn fig7_runs(exp: &Experiment) -> Vec<Run> {
    let spec = ttl_sweep_spec("fig7", exp);
    spec.runs
        .into_iter()
        .enumerate()
        .filter(|(_, r)| r.point == POINT)
        .map(|(index, r)| Run {
            label: r.label,
            sim: r.sim,
            factory: r.factory,
            seed: SplitMix64::mix(spec.master_seed, index as u64),
        })
        .collect()
}

/// The committed fig7 TTL-200 row as the formatted cells the sweep
/// writes: delivery, delay and forwardings for push, bsub, pull.
fn committed_row() -> Option<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig7.csv");
    let text = std::fs::read_to_string(path).ok()?;
    let row = text.lines().find(|l| l.starts_with(&format!("{POINT},")))?;
    Some(row.split(',').skip(1).map(str::to_string).collect())
}

fn formatted_row(reports: &[SimReport]) -> Vec<String> {
    let mut cells = Vec::new();
    cells.extend(reports.iter().map(|r| format!("{:.3}", r.delivery_ratio())));
    cells.extend(
        reports
            .iter()
            .map(|r| format!("{:.1}", r.mean_delay_mins())),
    );
    cells.extend(
        reports
            .iter()
            .map(|r| format!("{:.1}", r.forwardings_per_delivered())),
    );
    cells
}

/// Per-protocol traced totals of one repetition.
#[derive(Default)]
struct TraceTotals {
    tracer: Option<Tracer>,
    bloom_bsub_ns: u64,
    prof: ProfReport,
}

const BLOOM_HISTS: [TimeHist; 5] = [
    TimeHist::MergeNs,
    TimeHist::DecayNs,
    TimeHist::PreferenceNs,
    TimeHist::EncodeNs,
    TimeHist::DecodeNs,
];

fn bloom_ns(report: &ProfReport) -> u64 {
    BLOOM_HISTS.iter().map(|&h| report.time_hist(h).sum()).sum()
}

/// Runs the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let t0 = Instant::now();

    let mut setups = Vec::new();
    let (mut traces_s, mut workload_s) = (Vec::new(), Vec::new());
    let mut exp = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (e, tr, wl) = generate(seed);
        let runs = fig7_runs(&e);
        setups.push(t.elapsed().as_secs_f64());
        traces_s.push(tr);
        workload_s.push(wl);
        exp = Some((e, runs));
    }
    let (exp, runs) = exp.expect("at least one set-up");
    let contacts = exp.trace.len() as u64;

    let reps = (seconds / SECONDS_PER_REP).round().max(1.0) as usize;
    let mut rep_walls: Vec<f64> = Vec::new();
    let mut first: Option<Vec<SimReport>> = None;
    let mut totals = TraceTotals::default();
    loop {
        let mut reports = Vec::new();
        let mut wall = 0.0;
        for (j, run) in runs.iter().enumerate() {
            let mut protocol = run.factory.build(run.seed);
            if traced {
                let mut tracer = totals.tracer.take().unwrap_or_else(|| Tracer::new(t0, 0));
                // The bloom group comes from the bsub-obs profiler, armed
                // for the B-SUB run only: the baselines never touch
                // bloom, and its counters would cost PUSH's millions of
                // forwardings far more than the spans do.
                let bsub = run.label == "bsub";
                let (contact_span, message_span) = if bsub {
                    ("core.on_contact", "core.on_message")
                } else {
                    ("baselines.on_contact", "baselines.on_message")
                };
                let t = Instant::now();
                tracer.enter("sim.run", j as u64);
                let mut timed = Timed {
                    inner: protocol,
                    tracer,
                    contact_span,
                    message_span,
                    contacts: 0,
                };
                if bsub {
                    obs::start();
                }
                let report = run.sim.run(&mut timed);
                let mut tracer = timed.tracer;
                tracer.exit();
                wall += t.elapsed().as_secs_f64();
                if bsub {
                    let prof = obs::finish();
                    totals.bloom_bsub_ns += bloom_ns(&prof);
                    totals.prof.merge(&prof);
                }
                totals.tracer = Some(tracer);
                reports.push(report);
            } else {
                let t = Instant::now();
                let report = run.sim.run(&mut *protocol);
                wall += t.elapsed().as_secs_f64();
                reports.push(report);
            }
        }
        rep_walls.push(wall);
        match &first {
            None => first = Some(reports),
            Some(f) => out.check(
                runs.len() as u64,
                *f == reports,
                "a repeated run changed a SimReport",
            ),
        }
        if rep_walls.len() == reps {
            break;
        }
    }
    let reports = first.expect("at least one repetition");
    if seed == DEFAULT_SEED {
        let ok = committed_row().is_some_and(|row| row == formatted_row(&reports));
        out.check(
            runs.len() as u64,
            ok,
            "reports differ from results/fig7.csv at TTL 200",
        );
        out.notes.push(format!(
            "oracle: fig7.csv TTL-200 row {}",
            if ok { "matched" } else { "MISMATCHED" }
        ));
    } else {
        out.check(runs.len() as u64, true, "");
        out.notes.push(format!(
            "oracle: relabeled scenario (seed {seed}); repeated runs identical over {} repetitions",
            rep_walls.len()
        ));
    }

    let rates: Vec<f64> = rep_walls
        .iter()
        .map(|w| (contacts * runs.len() as u64) as f64 / w)
        .collect();
    let mut walls_ns: Vec<u64> = rep_walls.iter().map(|w| (w * 1e9) as u64).collect();
    let (p50, tail) = report::p50_tail(&mut walls_ns);
    let setup_s = report::median(&setups);
    let throughput = report::median(&rates);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("throughput_per_s", throughput);
    out.e2e.insert("latency_p50_ms", p50 as f64 / 1e6);
    out.notes.push(format!(
        "sim_contacts_per_s = {throughput:.1} 1/s (median of {} repetitions of {} protocol runs x {contacts} contacts)",
        rep_walls.len(),
        runs.len()
    ));
    out.notes.push(format!(
        "fig7 point regeneration: p50 {:.1} ms, {} {:.1} ms over n={} repetitions",
        p50 as f64 / 1e6,
        report::tail_label(walls_ns.len()),
        tail as f64 / 1e6,
        walls_ns.len()
    ));
    out.notes
        .push(format!("setup_s = median of {SETUP_REPS} set-ups"));

    let work: [(&'static str, u64); 4] = [
        ("sim.contacts", reports.iter().map(|r| r.contacts).sum()),
        (
            "sim.forwardings",
            reports.iter().map(|r| r.forwardings).sum(),
        ),
        ("sim.delivered", reports.iter().map(|r| r.delivered).sum()),
        (
            "sim.total_bytes",
            reports.iter().map(SimReport::total_bytes).sum(),
        ),
    ];
    for (name, v) in work {
        out.layers.insert(name, v as f64);
    }
    out.layers
        .insert("traces.generate_s", report::median(&traces_s));
    out.layers
        .insert("workload.generate_s", report::median(&workload_s));

    let tracer = totals.tracer.take();
    if let Some(tracer) = &tracer {
        let reps = rep_walls.len() as f64;
        let per_rep = |ns: u64| ns as f64 / 1e9 / reps;
        let runner = tracer.layer("sim.run");
        let core_contact = tracer.layer("core.on_contact");
        let core_message = tracer.layer("core.on_message");
        let base_contact = tracer.layer("baselines.on_contact");
        let base_message = tracer.layer("baselines.on_message");
        for (agg, [count, p50, p99]) in [
            (
                &core_contact,
                [
                    "core.on_contact_count",
                    "core.on_contact_p50_ns",
                    "core.on_contact_p99_ns",
                ],
            ),
            (
                &core_message,
                [
                    "core.on_message_count",
                    "core.on_message_p50_ns",
                    "core.on_message_p99_ns",
                ],
            ),
        ] {
            let mut d = agg.durations_ns.clone();
            d.sort_unstable();
            out.layers.insert(count, (agg.count as f64 / reps).round());
            out.layers.insert(p50, report::quantile(&d, 0.5) as f64);
            out.layers.insert(p99, report::quantile(&d, 0.99) as f64);
        }
        let core_total = core_contact.total_ns + core_message.total_ns;
        let core_self = core_total.saturating_sub(totals.bloom_bsub_ns);
        let baselines = base_contact.total_ns + base_message.total_ns;
        out.layers
            .insert("sim.runner_self_s", per_rep(runner.self_ns));
        out.layers.insert("core.self_s", per_rep(core_self));
        out.layers
            .insert("baselines.on_contact_s", per_rep(baselines));
        out.layers
            .insert("bloom.self_s", per_rep(totals.bloom_bsub_ns));
        let prof = &totals.prof;
        for (name, hist) in [
            ("bloom.tcbf_merge_ns", TimeHist::MergeNs),
            ("bloom.tcbf_decay_ns", TimeHist::DecayNs),
            ("bloom.tcbf_preference_ns", TimeHist::PreferenceNs),
            ("bloom.wire_encode_ns", TimeHist::EncodeNs),
            ("bloom.wire_decode_ns", TimeHist::DecodeNs),
        ] {
            out.layers.insert(name, prof.time_hist(hist).mean());
        }
        out.layers.insert(
            "bloom.tcbf_a_merge",
            (prof.counter(Counter::TcbfAMerge) as f64 / reps).round(),
        );
        out.layers.insert(
            "bloom.tcbf_m_merge",
            (prof.counter(Counter::TcbfMMerge) as f64 / reps).round(),
        );
        // The table holds totals over the traced repetitions; the
        // per-layer metrics above are per repetition.
        let secs = |ns: u64| ns as f64 / 1e9;
        let bloom_ops: u64 = BLOOM_HISTS.iter().map(|&h| prof.time_hist(h).count()).sum();
        out.self_times = vec![
            (
                "sim.runner (Simulation::run minus callbacks)".into(),
                runner.count,
                secs(runner.self_ns),
            ),
            (
                "core (B-SUB callbacks minus bloom)".into(),
                core_contact.count + core_message.count,
                secs(core_self),
            ),
            (
                "bloom (TCBF + wire ops inside B-SUB)".into(),
                bloom_ops,
                secs(totals.bloom_bsub_ns),
            ),
            (
                "baselines (PUSH + PULL callbacks)".into(),
                base_contact.count + base_message.count,
                secs(baselines),
            ),
        ];
    }
    (out, tracer)
}
