//! `match_churn`: an in-process `MatchIndex` (default `MatchParams`)
//! under a read/write mix.
//!
//! Set-up bulk-loads [`SUBSCRIBERS`] subscribers with 1–4 Zipf-drawn
//! topics each. Each round then matches one [`BATCH`]-event batch and
//! applies churn: short-lived and long-lived `subscribe_until`s,
//! `unsubscribe`s of random live subscribers, and one `expire`; every
//! [`DECAY_EVERY`] rounds the index decays one epoch. The live
//! population stays level, so every round does the same kind of work.
//!
//! The oracle: a `ReferenceMatcher` mirrors every operation for the
//! subscribers whose id is a multiple of [`ORACLE_SAMPLE`] (a dense
//! reference filter costs 32 KiB per subscriber, too much to mirror
//! them all), and each batch's matches restricted to those
//! subscribers must equal the reference's — checked outside the timed
//! region. `expire` must also remove exactly the subscribers whose
//! deadline passed.

use crate::report::{self, Outcome};
use crate::spans::Tracer;
use bsub_bloom::rng::SplitMix64;
use bsub_match::{Event, MatchIndex, MatchParams, MatchStats, ReferenceMatcher};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Bulk-loaded subscribers.
pub const SUBSCRIBERS: u64 = 30_000;
/// Topic space the Zipf draws range over.
pub const TOPICS: usize = 2_000;
/// Zipf exponent of topic popularity (subscriptions and events).
const ZIPF_S: f64 = 0.9;
/// Events per `match_events` batch.
pub const BATCH: usize = 256;
/// One event in this many names a topic nobody subscribes to.
const ABSENT_EVERY: u64 = 10;
/// Per round: short-lived subscribes, long-lived subscribes, and
/// unsubscribes (one `expire` follows them).
const SHORT_SUBS: usize = 16;
const LONG_SUBS: usize = 16;
const UNSUBS: usize = 32;
/// Short-lived subscriptions live this many rounds (uniform).
const SHORT_LIFE: (u64, u64) = (4, 64);
/// Rounds between one-epoch decays, and the most decays a run applies
/// (half the initial counter, so decay alone never empties the index).
const DECAY_EVERY: u64 = 16;
const MAX_DECAYS: u64 = 8;
/// Ids that are multiples of this are mirrored in the reference.
pub const ORACLE_SAMPLE: u64 = 64;
/// `--seconds` buys this many rounds per second: about one round's
/// wall time on a 2-vCPU host, so the work is fixed by the arguments
/// and a faster index does not change what a run does.
const ROUNDS_PER_SECOND: f64 = 3.0;
/// Index bulk loads per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The seeded input source: bulk interests, then per-round events and
/// churn, all drawn from one stream in a fixed order.
pub struct ChurnGen {
    rng: SplitMix64,
    cdf: Vec<f64>,
}

impl ChurnGen {
    pub fn new(seed: u64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=TOPICS)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(ZIPF_S);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        Self {
            rng: SplitMix64::new(SplitMix64::mix(seed, 0xC0)),
            cdf: cdf.into_iter().map(|c| c / total).collect(),
        }
    }

    fn topic(&mut self) -> String {
        let u = self.rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(TOPICS - 1);
        format!("topic-{rank}")
    }

    /// 1–4 Zipf-drawn topics.
    pub fn interests(&mut self) -> Vec<String> {
        let n = 1 + self.rng.below(4) as usize;
        (0..n).map(|_| self.topic()).collect()
    }

    /// One batch of events.
    pub fn events(&mut self) -> Vec<Event> {
        (0..BATCH)
            .map(|_| {
                if self.rng.below(ABSENT_EVERY) == 0 {
                    Event::new(format!("absent-{}", self.rng.below(4096)))
                } else {
                    Event::new(self.topic())
                }
            })
            .collect()
    }

    pub fn bulk(&mut self) -> Vec<(u64, Vec<String>)> {
        (0..SUBSCRIBERS).map(|id| (id, self.interests())).collect()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }
}

/// Bulk interests plus the first rounds' events, as bytes (the seeding
/// test compares these).
#[cfg(test)]
pub fn input_bytes(seed: u64) -> Vec<u8> {
    let mut gen = ChurnGen::new(seed);
    let mut out = Vec::new();
    for (id, keys) in gen.bulk() {
        out.extend_from_slice(&id.to_le_bytes());
        for k in keys {
            out.extend_from_slice(k.as_bytes());
        }
    }
    for _ in 0..4 {
        for e in gen.events() {
            out.extend_from_slice(e.key.as_bytes());
        }
    }
    out
}

/// The live id set, with O(1) random pick and removal.
#[derive(Default)]
struct LiveSet {
    ids: Vec<u64>,
    pos: HashMap<u64, usize>,
}

impl LiveSet {
    fn insert(&mut self, id: u64) {
        self.pos.insert(id, self.ids.len());
        self.ids.push(id);
    }

    fn remove(&mut self, id: u64) -> bool {
        let Some(p) = self.pos.remove(&id) else {
            return false;
        };
        self.ids.swap_remove(p);
        if let Some(&moved) = self.ids.get(p) {
            self.pos.insert(moved, p);
        }
        true
    }
}

fn sampled(id: u64) -> bool {
    id.is_multiple_of(ORACLE_SAMPLE)
}

/// Times `f` and, in traced runs, wraps it in a span.
fn timed<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    request: u64,
    samples: &mut Vec<u64>,
    f: impl FnOnce() -> T,
) -> T {
    let go = || {
        let t = Instant::now();
        let out = f();
        samples.push(t.elapsed().as_nanos() as u64);
        out
    };
    match tracer.as_mut() {
        Some(tr) => tr.span(name, request, go),
        None => go(),
    }
}

/// Runs the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let params = MatchParams::default();

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let mut gen = ChurnGen::new(seed);
        let bulk = gen.bulk();
        let t = Instant::now();
        let mut index = MatchIndex::new(params);
        index.subscribe_bulk(&bulk);
        setups.push(t.elapsed().as_secs_f64());
        built = Some((index, gen, bulk));
    }
    let (mut index, mut gen, bulk) = built.expect("at least one set-up");
    let mut reference = ReferenceMatcher::from_params(&params);
    let mut live = LiveSet::default();
    for (id, keys) in &bulk {
        live.insert(*id);
        if sampled(*id) {
            reference.subscribe(*id, keys);
        }
    }
    drop(bulk);

    let t0 = Instant::now();
    let mut tracer = traced.then(|| Tracer::new(t0, 0));
    let mut next_id = SUBSCRIBERS;
    let mut deadlines: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let (mut match_ns, mut sub_ns, mut unsub_ns, mut expire_ns, mut decay_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stats = MatchStats::default();
    let mut decays = 0;
    let rounds = (seconds * ROUNDS_PER_SECOND).round().max(1.0) as u64;
    let mut round = 0u64;
    while round < rounds {
        round += 1;
        if let Some(t) = tracer.as_mut() {
            t.enter("harness.round", round);
        }
        let events = gen.events();
        let set = timed(
            &mut tracer,
            "match.match_events",
            round,
            &mut match_ns,
            || index.match_events(&events),
        );
        stats.events += set.stats.events;
        stats.tier_probes += set.stats.tier_probes;
        stats.tier_hits += set.stats.tier_hits;
        stats.candidates += set.stats.candidates;
        stats.matched += set.stats.matched;

        let want = match tracer.as_mut() {
            Some(t) => t.span("oracle.reference", round, || {
                reference.match_events(&events)
            }),
            None => reference.match_events(&events),
        };
        let got: Vec<Vec<u64>> = set
            .matches
            .iter()
            .map(|m| m.iter().copied().filter(|&id| sampled(id)).collect())
            .collect();
        out.check(
            1,
            got == want.matches,
            format!("round {round}: match_events != reference"),
        );

        for i in 0..SHORT_SUBS + LONG_SUBS {
            let id = next_id;
            next_id += 1;
            let keys = gen.interests();
            let deadline = if i < SHORT_SUBS {
                round + SHORT_LIFE.0 + gen.below(SHORT_LIFE.1 - SHORT_LIFE.0)
            } else {
                u64::MAX
            };
            timed(
                &mut tracer,
                "match.subscribe_until",
                id,
                &mut sub_ns,
                || index.subscribe_until(id, &keys, deadline),
            );
            if sampled(id) {
                reference.subscribe_until(id, &keys, deadline);
            }
            if deadline != u64::MAX {
                deadlines.entry(deadline).or_default().push(id);
            }
            live.insert(id);
        }
        for _ in 0..UNSUBS {
            let id = live.ids[gen.below(live.ids.len() as u64) as usize];
            live.remove(id);
            let was = timed(&mut tracer, "match.unsubscribe", id, &mut unsub_ns, || {
                index.unsubscribe(id)
            });
            if sampled(id) {
                reference.unsubscribe(id);
            }
            out.check(
                1,
                was,
                format!("unsubscribe({id}) found no live subscription"),
            );
        }
        let mut due = 0;
        while let Some((&d, _)) = deadlines.first_key_value() {
            if d > round {
                break;
            }
            for id in deadlines.pop_first().expect("peeked").1 {
                due += usize::from(live.remove(id));
            }
        }
        let removed = timed(&mut tracer, "match.expire", round, &mut expire_ns, || {
            index.expire(round)
        });
        reference.expire(round);
        out.check(
            1,
            removed == due,
            format!("expire({round}) removed {removed}, {due} were due"),
        );
        out.attempted += (SHORT_SUBS + LONG_SUBS) as u64;

        if round.is_multiple_of(DECAY_EVERY) && decays < MAX_DECAYS {
            decays += 1;
            timed(&mut tracer, "match.decay", round, &mut decay_ns, || {
                index.decay(1)
            });
            reference.decay(1);
        }
        if let Some(t) = tracer.as_mut() {
            t.exit();
        }
    }
    out.check(
        1,
        index.live_count() == live.ids.len(),
        "index live count differs from the subscriptions applied",
    );
    out.notes.push(format!(
        "oracle: {round} batches checked against ReferenceMatcher on ids = 0 mod {ORACLE_SAMPLE} ({} mirrored)",
        reference.live_count()
    ));

    // Events per second of the median batch: one slow stretch on a
    // shared host moves a few batches, not the figure.
    let batch_rates: Vec<f64> = match_ns
        .iter()
        .map(|&ns| BATCH as f64 / (ns as f64 / 1e9).max(1e-9))
        .collect();
    let events_per_s = report::median(&batch_rates);
    let churn_s = (sub_ns.iter().sum::<u64>()
        + unsub_ns.iter().sum::<u64>()
        + expire_ns.iter().sum::<u64>()) as f64
        / 1e9;
    let mut churn_all: Vec<u64> = sub_ns
        .iter()
        .chain(&unsub_ns)
        .chain(&expire_ns)
        .copied()
        .collect();
    let churn_ops = churn_all.len();
    let churn_per_s = churn_ops as f64 / churn_s.max(1e-9);
    let (p50, tail) = report::p50_tail(&mut churn_all);
    out.e2e.insert("setup_s", report::median(&setups));
    out.e2e.insert("throughput_per_s", events_per_s);
    out.e2e.insert("latency_p50_ms", p50 as f64 / 1e6);
    out.layers.insert("match.churn_op_p99_ns", tail as f64);
    out.notes.push(format!(
        "match_events_per_s = {events_per_s:.1} 1/s (median batch of {round} batches of {BATCH} events)"
    ));
    out.notes.push(format!(
        "churn_ops_per_s = {churn_per_s:.1} 1/s; churn op p50 {:.2} us, {} {:.2} us over n={churn_ops} ops",
        p50 as f64 / 1e3,
        report::tail_label(churn_ops),
        tail as f64 / 1e3
    ));
    out.notes.push(format!(
        "setup_s = median of {SETUP_REPS} bulk loads of {SUBSCRIBERS} subscribers"
    ));

    let (mp50, mp99) = report::p50_tail(&mut match_ns);
    let q = |v: &mut Vec<u64>, p: f64| {
        v.sort_unstable();
        report::quantile(v, p) as f64
    };
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let l = &mut out.layers;
    l.insert("match.match_events_p50_ns", mp50 as f64);
    l.insert("match.match_events_p99_ns", mp99 as f64);
    l.insert(
        "match.candidates_per_event",
        ratio(stats.candidates, stats.events),
    );
    l.insert(
        "match.tier_hit_ratio",
        ratio(stats.tier_hits, stats.tier_probes),
    );
    l.insert(
        "match.confirm_ratio",
        ratio(stats.matched, stats.candidates),
    );
    l.insert("match.subscribe_p50_ns", q(&mut sub_ns, 0.5));
    l.insert("match.subscribe_p99_ns", q(&mut sub_ns, 0.99));
    l.insert("match.unsubscribe_p50_ns", q(&mut unsub_ns, 0.5));
    l.insert("match.unsubscribe_p99_ns", q(&mut unsub_ns, 0.99));
    l.insert("match.expire_p50_ns", q(&mut expire_ns, 0.5));
    l.insert("match.expire_p99_ns", q(&mut expire_ns, 0.99));
    l.insert(
        "match.decay_ns",
        decay_ns.iter().sum::<u64>() as f64 / decay_ns.len().max(1) as f64,
    );
    l.insert("match.churn_ops_per_s", churn_per_s);
    l.insert("match.build_s", report::median(&setups));
    l.insert("match.live", index.live_count() as f64);
    l.insert("match.tiers", index.tier_count() as f64);
    l.insert("match.pool_filters", index.pool_filter_count() as f64);
    l.insert("match.compactions", index.compactions() as f64);

    if let Some(t) = &tracer {
        let row = |name: &str, label: &str| {
            let a = t.layer(name);
            (label.to_string(), a.count, a.self_ns as f64 / 1e9)
        };
        out.self_times = vec![
            row("harness.round", "harness (input generation, bookkeeping)"),
            row("oracle.reference", "oracle (ReferenceMatcher, untimed)"),
            row("match.match_events", "match.match_events"),
            row("match.subscribe_until", "match.subscribe_until"),
            row("match.unsubscribe", "match.unsubscribe"),
            row("match.expire", "match.expire"),
            row("match.decay", "match.decay"),
        ];
    }
    (out, tracer)
}
