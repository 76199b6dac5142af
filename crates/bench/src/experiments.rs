//! One function per table/figure of the paper. See DESIGN.md §3 for
//! the experiment index and EXPERIMENTS.md for recorded results.

use crate::engine::{Executor, RecordSpec, RunSpec, SweepSpec};
use crate::output::{
    f1, f3, f4, record_perf, render_table, write_csv, write_events, write_timeseries,
};
use crate::{Experiment, ProtocolKind, MASTER_SEED};
use bsub_bloom::wire::{self, CounterMode};
use bsub_bloom::{math, AllocationPlan, Tcbf};
use bsub_core::{BrokerPolicy, BsubConfig, BsubProtocol, DfMode, ForwardingPolicy, MergeRule};
use bsub_sim::fault::PPM;
use bsub_sim::FaultSpec;
use bsub_traces::stats::TraceStats;
use bsub_traces::SimDuration;
use bsub_workload::keys::{average_key_len, trend_keys};

/// The TTL grid of Figs. 7–8 (minutes, log-scale axis in the paper).
pub const TTL_GRID_MINS: [u64; 7] = [10, 20, 50, 100, 200, 500, 1000];

/// The DF grid of Fig. 9 (counter units per minute, 0 ⇒ no decay).
pub const DF_GRID: [f64; 8] = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0];

/// Table I — parameters of the two data sets.
pub fn table1() {
    let rows: Vec<Vec<String>> = [
        (
            "Haggle(Infocom06)-like",
            bsub_traces::synthetic::haggle_like(MASTER_SEED),
            "79 / 67,360 / 3d",
        ),
        (
            "MIT-Reality-like (full)",
            bsub_traces::synthetic::reality_like_full(MASTER_SEED),
            "97 / 54,667 / 246d",
        ),
        (
            "MIT-Reality-like (3-day sim slice)",
            bsub_traces::synthetic::reality_like(MASTER_SEED),
            "n/a (sim input)",
        ),
    ]
    .into_iter()
    .map(|(name, trace, paper)| {
        let s = TraceStats::compute(&trace);
        vec![
            name.to_string(),
            s.nodes.to_string(),
            s.contacts.to_string(),
            f1(s.duration.as_hours() / 24.0),
            f1(s.contacts_per_node_day),
            f1(s.mean_contact_secs),
            f1(s.mean_degree),
            paper.to_string(),
        ]
    })
    .collect();
    let headers = [
        "trace",
        "nodes",
        "contacts",
        "days",
        "contacts/node/day",
        "mean contact (s)",
        "mean degree",
        "paper (nodes/contacts/days)",
    ];
    print!(
        "{}",
        render_table("Table I — trace parameters", &headers, &rows)
    );
    write_csv("table1", &headers, &rows);
}

/// Table II — distribution of the top-4 keys, plus the workload's
/// empirical interest shares.
pub fn table2() {
    let keys = trend_keys();
    let e = Experiment::haggle(MASTER_SEED);
    let n = f64::from(e.trace.node_count());
    let rows: Vec<Vec<String>> = keys
        .iter()
        .take(4)
        .map(|k| {
            let subscribed = e.subscriptions.subscribers_of(k.name).count() as f64;
            vec![k.name.to_string(), f4(k.weight), f4(subscribed / n)]
        })
        .collect();
    let headers = ["key", "paper weight", "assigned share (79 nodes)"];
    print!(
        "{}",
        render_table("Table II — top-4 key weights", &headers, &rows)
    );
    println!(
        "38 keys total, weight sum {:.4}, average key length {:.1} bytes (paper: 11.5)",
        keys.iter().map(|k| k.weight).sum::<f64>(),
        average_key_len(keys),
    );
    write_csv("table2", &headers, &rows);
}

/// Declares the shared TTL sweep of Figs. 7 and 8 — every
/// (TTL, protocol) pair as an independent run.
#[must_use]
pub fn ttl_sweep_spec(figure: &str, experiment: &Experiment) -> SweepSpec {
    let mut runs = Vec::new();
    for &mins in &TTL_GRID_MINS {
        let ttl = SimDuration::from_mins(mins);
        let df = experiment.df_for_ttl(ttl);
        let protocols = [
            ("push", ProtocolKind::Push),
            (
                "bsub",
                ProtocolKind::Bsub {
                    df: DfMode::Fixed(df),
                },
            ),
            ("pull", ProtocolKind::Pull),
        ];
        for (label, kind) in protocols {
            runs.push(RunSpec {
                point: mins.to_string(),
                label: label.to_string(),
                sim: experiment.sim(ttl),
                factory: experiment.factory(kind, ttl),
                record: RecordSpec::default(),
            });
        }
    }
    SweepSpec {
        name: figure.to_string(),
        master_seed: MASTER_SEED,
        runs,
    }
}

/// Shared TTL sweep for Figs. 7 and 8: delivery ratio, delay, and
/// forwardings per delivered message for PUSH, B-SUB, PULL.
fn ttl_sweep(figure: &str, experiment: &Experiment) {
    let headers = [
        "ttl_mins",
        "push_delivery",
        "bsub_delivery",
        "pull_delivery",
        "push_delay_min",
        "bsub_delay_min",
        "pull_delay_min",
        "push_fwd",
        "bsub_fwd",
        "pull_fwd",
    ];
    let spec = ttl_sweep_spec(figure, experiment);
    let outcome = Executor::from_env().run(&spec);
    let rows: Vec<Vec<String>> = outcome
        .records
        .chunks(3)
        .map(|point| {
            let [push, bsub, pull] = point else {
                unreachable!("three protocols per TTL point")
            };
            vec![
                push.point.clone(),
                f3(push.report.delivery_ratio()),
                f3(bsub.report.delivery_ratio()),
                f3(pull.report.delivery_ratio()),
                f1(push.report.mean_delay_mins()),
                f1(bsub.report.mean_delay_mins()),
                f1(pull.report.mean_delay_mins()),
                f1(push.report.forwardings_per_delivered()),
                f1(bsub.report.forwardings_per_delivered()),
                f1(pull.report.forwardings_per_delivered()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("{figure} — delivery ratio / delay / forwardings vs TTL"),
            &headers,
            &rows
        )
    );
    write_csv(figure, &headers, &rows);
    record_perf(&outcome);
}

/// Fig. 7 — the three TTL-sweep panels on the Haggle-like trace.
pub fn fig7() {
    ttl_sweep("fig7", &Experiment::haggle(MASTER_SEED));
}

/// Fig. 8 — the three TTL-sweep panels on the Reality-like trace.
pub fn fig8() {
    ttl_sweep("fig8", &Experiment::reality(MASTER_SEED));
}

/// Declares the Fig. 9 DF sweep — every (DF, trace) pair as an
/// independent run at TTL = 20 h.
#[must_use]
pub fn df_sweep_spec(haggle: &Experiment, reality: &Experiment) -> SweepSpec {
    let ttl = SimDuration::from_hours(20);
    let mut runs = Vec::new();
    for &df in &DF_GRID {
        let mode = if df == 0.0 {
            DfMode::Disabled
        } else {
            DfMode::Fixed(df)
        };
        for (label, env) in [("haggle", haggle), ("reality", reality)] {
            runs.push(RunSpec {
                point: format!("{df:.2}"),
                label: label.to_string(),
                sim: env.sim(ttl),
                factory: env.factory(ProtocolKind::Bsub { df: mode }, ttl),
                record: RecordSpec::default(),
            });
        }
    }
    SweepSpec {
        name: "fig9".to_string(),
        master_seed: MASTER_SEED,
        runs,
    }
}

/// Fig. 9 — the four metrics vs the decaying factor, both traces,
/// TTL = 20 h.
pub fn fig9() {
    let headers = [
        "df_per_min",
        "haggle_delivery",
        "reality_delivery",
        "haggle_delay_min",
        "reality_delay_min",
        "haggle_fwd",
        "reality_fwd",
        "haggle_inj_fpr",
        "reality_inj_fpr",
    ];
    let haggle = Experiment::haggle(MASTER_SEED);
    let reality = Experiment::reality(MASTER_SEED);
    let spec = df_sweep_spec(&haggle, &reality);
    let outcome = Executor::from_env().run(&spec);
    let rows: Vec<Vec<String>> = outcome
        .records
        .chunks(2)
        .map(|point| {
            let [h, r] = point else {
                unreachable!("two traces per DF point")
            };
            vec![
                h.point.clone(),
                f3(h.report.delivery_ratio()),
                f3(r.report.delivery_ratio()),
                f1(h.report.mean_delay_mins()),
                f1(r.report.mean_delay_mins()),
                f1(h.report.forwardings_per_delivered()),
                f1(r.report.forwardings_per_delivered()),
                f4(h.report.injection_fpr()),
                f4(r.report.injection_fpr()),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "fig9 — four metrics vs decaying factor (TTL = 20 h)",
            &headers,
            &rows
        )
    );
    write_csv("fig9", &headers, &rows);
    record_perf(&outcome);
}

/// The shared smoke environment: a fig7-shaped small world (16
/// nodes, 6 simulated hours, TTL 120 min) built from fixed seeds.
/// Both the `perf` smoke sweep and the `net-cluster` loopback harness
/// run exactly this workload, so the networked runtime is diffed
/// against the environment the perf gate already tracks.
#[must_use]
pub fn smoke_environment() -> (Experiment, SimDuration) {
    let trace =
        bsub_traces::synthetic::SyntheticTrace::new("smoke", 16, SimDuration::from_hours(6), 900)
            .seed(7)
            .build();
    (Experiment::over(trace, 7), SimDuration::from_mins(120))
}

/// The smoke protocol roster in report order: PUSH, B-SUB (fixed DF
/// from Eq. 5 for this TTL), PULL.
#[must_use]
pub fn smoke_protocols(
    experiment: &Experiment,
    ttl: SimDuration,
) -> Vec<(&'static str, ProtocolKind)> {
    let df = experiment.df_for_ttl(ttl);
    vec![
        ("push", ProtocolKind::Push),
        (
            "bsub",
            ProtocolKind::Bsub {
                df: DfMode::Fixed(df),
            },
        ),
        ("pull", ProtocolKind::Pull),
    ]
}

/// Declares the perf smoke sweep: one fig7-shaped point (PUSH, B-SUB,
/// PULL at a single TTL) on a small synthetic trace — a couple of
/// seconds of work that still drives every instrumented hot path
/// (TCBF merges, wire codec, election, matching, the contact loop).
/// The `perf` binary runs it with profiling enabled and CI gates on
/// its trajectory, so the name is part of the committed
/// `BENCH_perf.json` baseline.
#[must_use]
pub fn perf_smoke_spec() -> SweepSpec {
    let (experiment, ttl) = smoke_environment();
    let protocols = smoke_protocols(&experiment, ttl);
    SweepSpec {
        name: "perf_smoke".to_string(),
        master_seed: MASTER_SEED,
        runs: protocols
            .into_iter()
            .map(|(label, kind)| RunSpec {
                point: "120".to_string(),
                label: label.to_string(),
                sim: experiment.sim(ttl),
                factory: experiment.factory(kind, ttl),
                record: RecordSpec::default(),
            })
            .collect(),
    }
}

/// Declares the dynamics sweep: two recorded B-SUB runs over the same
/// environment and TTL.
///
/// - `fig7` — the paper configuration (M-merge), i.e. the B-SUB run of
///   the Fig. 7 scenario, now observed over time;
/// - `fig6_amerge` — the same run with Additive broker↔broker merges,
///   the misconfiguration whose unbounded counter growth Fig. 6 warns
///   about.
///
/// Both runs record a time series (bucket width `bucket`) and the full
/// event log; everything recorded derives from the deterministic event
/// stream, so the artifacts are byte-identical at any worker count.
#[must_use]
pub fn dynamics_spec(experiment: &Experiment, ttl: SimDuration, bucket: SimDuration) -> SweepSpec {
    let df = experiment.df_for_ttl(ttl);
    let record = RecordSpec {
        events: true,
        series: Some(bucket),
        prof: false,
    };
    let amerge = BsubConfig::builder()
        .df(DfMode::Fixed(df))
        .delay_limit(ttl)
        .merge_rule(MergeRule::Additive)
        .build();
    SweepSpec {
        name: "dynamics".to_string(),
        master_seed: MASTER_SEED,
        runs: vec![
            RunSpec {
                point: "fig7".to_string(),
                label: "bsub".to_string(),
                sim: experiment.sim(ttl),
                factory: experiment.factory(
                    ProtocolKind::Bsub {
                        df: DfMode::Fixed(df),
                    },
                    ttl,
                ),
                record,
            },
            RunSpec {
                point: "fig6_amerge".to_string(),
                label: "bsub".to_string(),
                sim: experiment.sim(ttl),
                factory: experiment.bsub_factory(amerge),
                record,
            },
        ],
    }
}

/// Runs [`dynamics_spec`] and writes `timeseries_<point>.csv` and
/// `events_<point>.jsonl` per run, plus a printed summary comparing
/// the healthy M-merge counters against the A-merge pathology.
pub fn dynamics_with(experiment: &Experiment, ttl: SimDuration, bucket: SimDuration) {
    let spec = dynamics_spec(experiment, ttl, bucket);
    let outcome = Executor::from_env().run(&spec);
    let mut rows = Vec::new();
    for record in &outcome.records {
        let recording = record
            .recording
            .as_ref()
            .expect("dynamics runs always record");
        write_timeseries(&record.point, &recording.series);
        if let Some(log) = &recording.events {
            write_events(&record.point, log);
        }
        let last = recording.series.last();
        let peak_counter = recording
            .series
            .iter()
            .map(|r| r.max_counter)
            .max()
            .unwrap_or(0);
        rows.push(vec![
            record.point.clone(),
            recording.series.len().to_string(),
            last.map_or_else(|| "0".into(), |r| r.brokers.to_string()),
            peak_counter.to_string(),
            last.map_or_else(|| "0".into(), |r| format!("{:.6}", r.relay_fpr)),
            f3(record.report.delivery_ratio()),
        ]);
    }
    let headers = [
        "run",
        "epochs",
        "final_brokers",
        "peak_max_counter",
        "final_relay_fpr",
        "delivery",
    ];
    print!(
        "{}",
        render_table(
            "dynamics — broker population & filter state over time",
            &headers,
            &rows
        )
    );
    record_perf(&outcome);
}

/// The dynamics view of the Fig. 7 scenario: Haggle-like trace,
/// TTL = 500 min, 30-minute epochs.
pub fn dynamics() {
    dynamics_with(
        &Experiment::haggle(MASTER_SEED),
        SimDuration::from_mins(500),
        SimDuration::from_mins(30),
    );
}

/// Ablation study of B-SUB's design choices (not a paper figure, but
/// each row corresponds to an argument the paper makes in prose):
///
/// - **A-merge between brokers** — Fig. 6's bogus-counter loop;
/// - **AnyMatch hand-off** — dropping the preferential query;
/// - **static brokers** — dropping the social election (Section V-B's
///   claim that socially-active brokers forward better).
pub fn ablation() {
    let ttl = SimDuration::from_mins(500);
    let experiment = Experiment::haggle(MASTER_SEED);
    let df = experiment.df_for_ttl(ttl);

    let variants: Vec<(&str, BsubConfig)> = vec![
        (
            "paper (M-merge, preferential, elected)",
            BsubConfig::builder().df(DfMode::Fixed(df)).build(),
        ),
        (
            "A-merge between brokers (Fig. 6 pathology)",
            BsubConfig::builder()
                .df(DfMode::Fixed(df))
                .merge_rule(MergeRule::Additive)
                .build(),
        ),
        (
            "AnyMatch hand-off (no preferential query)",
            BsubConfig::builder()
                .df(DfMode::Fixed(df))
                .forwarding(ForwardingPolicy::AnyMatch)
                .build(),
        ),
        (
            "static brokers, 15% of nodes",
            BsubConfig::builder()
                .df(DfMode::Fixed(df))
                .broker_policy(BrokerPolicy::Static(0.15))
                .build(),
        ),
        (
            "static brokers, 30% of nodes",
            BsubConfig::builder()
                .df(DfMode::Fixed(df))
                .broker_policy(BrokerPolicy::Static(0.30))
                .build(),
        ),
    ];

    let spec = SweepSpec {
        name: "ablation".to_string(),
        master_seed: MASTER_SEED,
        runs: variants
            .iter()
            .map(|(name, config)| RunSpec {
                point: (*name).to_string(),
                label: "bsub".to_string(),
                sim: experiment.sim(ttl),
                factory: experiment.bsub_factory(config.clone()),
                record: RecordSpec::default(),
            })
            .collect(),
    };
    let outcome = Executor::from_env().run(&spec);
    let rows: Vec<Vec<String>> = outcome
        .records
        .iter()
        .map(|record| {
            // The engine hands the protocol back in its end-of-run
            // state; recover the concrete type for B-SUB's own
            // diagnostics.
            let bsub = (record.protocol.as_ref() as &dyn std::any::Any)
                .downcast_ref::<BsubProtocol>()
                .expect("ablation runs BsubProtocol");
            let r = &record.report;
            vec![
                record.point.clone(),
                f3(r.delivery_ratio()),
                f1(r.mean_delay_mins()),
                f1(r.forwardings_per_delivered()),
                f4(r.injection_fpr()),
                f3(bsub.broker_fraction()),
                bsub.max_relay_counter().to_string(),
            ]
        })
        .collect();
    let headers = [
        "variant",
        "delivery",
        "delay_min",
        "fwd/dlv",
        "inj_fpr",
        "broker_frac",
        "max_counter",
    ];
    print!(
        "{}",
        render_table(
            "ablation — B-SUB design choices (Haggle-like, TTL = 500 min)",
            &headers,
            &rows
        )
    );
    write_csv("ablation", &headers, &rows);
    record_perf(&outcome);
}

/// The fault-intensity grid of the degradation sweep, in parts per
/// million (0.0 … 0.6 as a probability).
pub const DEGRADATION_GRID_PPM: [u32; 5] = [0, 100_000, 200_000, 400_000, 600_000];

/// The [`FaultSpec`] exercised at one degradation-grid intensity `i`:
/// contact loss, contact truncation, and control-plane corruption each
/// fire with probability `i`, and node churn downs each node per
/// six-hour cell with probability `i/4` (churn is the most destructive
/// fault — a full-rate setting would drown the other three).
///
/// Intensity 0 is exactly [`FaultSpec::none`], so the first grid row
/// reproduces the committed fault-free figures.
#[must_use]
pub fn degradation_faults(intensity_ppm: u32) -> FaultSpec {
    if intensity_ppm == 0 {
        return FaultSpec::none();
    }
    FaultSpec::none()
        .with_seed(MASTER_SEED)
        .with_contact_loss(intensity_ppm)
        .with_truncation(intensity_ppm)
        .with_corruption(intensity_ppm)
        .with_churn(intensity_ppm / 4, SimDuration::from_hours(6))
}

/// Declares the degradation sweep: every (fault intensity, protocol)
/// pair as an independent run at a fixed TTL. The fault draws are keyed
/// only on the [`FaultSpec`] seed and the contact index, so the same
/// spec injects the identical fault pattern into PUSH, B-SUB, and PULL
/// — the protocols are compared under the *same* outages.
#[must_use]
pub fn degradation_spec(experiment: &Experiment, ttl: SimDuration) -> SweepSpec {
    let df = experiment.df_for_ttl(ttl);
    let mut runs = Vec::new();
    for &ppm in &DEGRADATION_GRID_PPM {
        let faults = degradation_faults(ppm);
        let protocols = [
            ("push", ProtocolKind::Push),
            (
                "bsub",
                ProtocolKind::Bsub {
                    df: DfMode::Fixed(df),
                },
            ),
            ("pull", ProtocolKind::Pull),
        ];
        for (label, kind) in protocols {
            runs.push(RunSpec {
                point: format!("{:.2}", f64::from(ppm) / f64::from(PPM)),
                label: label.to_string(),
                sim: experiment.sim(ttl).with_faults(faults.clone()),
                factory: experiment.factory(kind, ttl),
                record: RecordSpec::default(),
            });
        }
    }
    SweepSpec {
        name: "degradation".to_string(),
        master_seed: MASTER_SEED,
        runs,
    }
}

/// Runs [`degradation_spec`] and writes `degradation.csv`: delivery
/// ratio, delay, and forwardings per delivered message vs fault
/// intensity for the three protocols.
///
/// # Panics
///
/// Panics if B-SUB's delivery ratio ever *improves* as the fault
/// intensity rises — the monotone-degradation sanity check this sweep
/// exists to enforce (the nesting of the fault draws makes every
/// higher-intensity run a superset of the faults below it).
pub fn degradation_with(experiment: &Experiment, ttl: SimDuration) {
    let headers = [
        "fault_intensity",
        "push_delivery",
        "bsub_delivery",
        "pull_delivery",
        "push_delay_min",
        "bsub_delay_min",
        "pull_delay_min",
        "push_fwd",
        "bsub_fwd",
        "pull_fwd",
    ];
    let spec = degradation_spec(experiment, ttl);
    let outcome = Executor::from_env().run(&spec);
    let mut bsub_delivery = Vec::new();
    let rows: Vec<Vec<String>> = outcome
        .records
        .chunks(3)
        .map(|point| {
            let [push, bsub, pull] = point else {
                unreachable!("three protocols per intensity")
            };
            bsub_delivery.push(bsub.report.delivery_ratio());
            vec![
                push.point.clone(),
                f3(push.report.delivery_ratio()),
                f3(bsub.report.delivery_ratio()),
                f3(pull.report.delivery_ratio()),
                f1(push.report.mean_delay_mins()),
                f1(bsub.report.mean_delay_mins()),
                f1(pull.report.mean_delay_mins()),
                f1(push.report.forwardings_per_delivered()),
                f1(bsub.report.forwardings_per_delivered()),
                f1(pull.report.forwardings_per_delivered()),
            ]
        })
        .collect();
    for pair in bsub_delivery.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "B-SUB delivery must not improve as faults intensify: {bsub_delivery:?}"
        );
    }
    print!(
        "{}",
        render_table(
            "degradation — delivery / delay / forwardings vs fault intensity",
            &headers,
            &rows
        )
    );
    write_csv("degradation", &headers, &rows);
    record_perf(&outcome);
}

/// The degradation view of the Fig. 7 scenario: Haggle-like trace,
/// TTL = 500 min, fault intensities 0.0 … 0.6.
pub fn degradation() {
    degradation_with(
        &Experiment::haggle(MASTER_SEED),
        SimDuration::from_mins(500),
    );
}

/// Section VI-C / VII-A analysis artifacts: worst-case FPR, memory
/// comparison, and the Eq. 9–10 optimal allocation.
pub fn analysis() {
    // Worst-case FPR claim: 38 keys, m=256, k=4 ⇒ ~0.04.
    let keys = trend_keys();
    let mut rows = Vec::new();
    for n in [10usize, 20, 38, 60, 100] {
        rows.push(vec![
            n.to_string(),
            f4(math::false_positive_rate(256, 4, n as f64)),
            f3(math::fill_ratio(256, 4, n as f64)),
        ]);
    }
    let headers = ["keys", "fpr (Eq.1)", "fill ratio (Eq.3)"];
    print!(
        "{}",
        render_table(
            "analysis — Eq. 1 FPR (paper: 0.04 worst case at 38 keys)",
            &headers,
            &rows
        )
    );
    write_csv("analysis_fpr", &headers, &rows);

    // Memory: TCBF wire forms vs raw strings (paper: "the TCBF uses
    // half of the space used by the raw strings").
    let mut rows = Vec::new();
    for n in [5usize, 10, 20, 38] {
        let subset: Vec<&str> = keys.iter().take(n).map(|k| k.name).collect();
        let filter = Tcbf::from_keys(256, 4, 50, subset.iter().map(|s| s.as_bytes()));
        let raw = wire::raw_strings_len(subset.iter().copied());
        let full = wire::encode(&filter, CounterMode::Full)
            .expect("encodes")
            .len();
        let shared = wire::encode(&filter, CounterMode::Shared)
            .expect("encodes")
            .len();
        let ripped = wire::encode(&filter, CounterMode::Ripped)
            .expect("encodes")
            .len();
        rows.push(vec![
            n.to_string(),
            raw.to_string(),
            full.to_string(),
            shared.to_string(),
            ripped.to_string(),
            f3(shared as f64 / raw as f64),
        ]);
    }
    let headers = [
        "keys",
        "raw strings (B)",
        "tcbf full (B)",
        "tcbf shared (B)",
        "tcbf ripped (B)",
        "shared/raw",
    ];
    print!(
        "{}",
        render_table(
            "analysis — memory: TCBF wire forms vs raw strings (Section VI-C)",
            &headers,
            &rows
        )
    );
    write_csv("analysis_memory", &headers, &rows);

    // Eq. 9–10: optimal filter count under a storage bound.
    let mut rows = Vec::new();
    for budget in [300usize, 600, 1200, 2400, 4800] {
        match AllocationPlan::solve(256, 4, 100, budget) {
            Ok(plan) => rows.push(vec![
                budget.to_string(),
                plan.filters.to_string(),
                f1(plan.keys_per_filter),
                f3(plan.fr_threshold),
                f4(plan.joint_fpr),
                plan.memory_bytes.to_string(),
            ]),
            Err(_) => rows.push(vec![
                budget.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "infeasible".into(),
                "-".into(),
            ]),
        }
    }
    let headers = [
        "budget (B)",
        "filters h",
        "keys/filter",
        "θ (FR threshold)",
        "joint FPR",
        "memory (B)",
    ];
    print!(
        "{}",
        render_table(
            "analysis — Eq. 9-10 optimal TCBF allocation (100 keys)",
            &headers,
            &rows
        )
    );
    write_csv("analysis_allocation", &headers, &rows);

    // Eq. 6: unique interests among ℕ collected keys (k̄ = 1 per node,
    // 38-key universe) — the duplicate discount a broker's filter
    // enjoys.
    let mut rows = Vec::new();
    for ncol in [10u64, 50, 100, 300, 800] {
        let unique = math::expected_unique_keys(ncol as f64, 1.0, 38);
        rows.push(vec![ncol.to_string(), f1(unique), f3(unique / ncol as f64)]);
    }
    let headers = ["keys collected ℕ", "unique (Eq.6)", "unique/collected"];
    print!(
        "{}",
        render_table(
            "analysis — Eq. 6 unique interests per broker (38-key universe)",
            &headers,
            &rows
        )
    );
    write_csv("analysis_unique", &headers, &rows);

    // Eq. 4-5: the DF table for the TTL grid, on the Haggle-like trace.
    let e = Experiment::haggle(MASTER_SEED);
    let mut rows = Vec::new();
    for &mins in &TTL_GRID_MINS {
        let df = e.df_for_ttl(SimDuration::from_mins(mins));
        rows.push(vec![mins.to_string(), f4(df)]);
    }
    let headers = ["ttl_mins", "df_per_min (Eq.5)"];
    print!(
        "{}",
        render_table(
            "analysis — Eq. 5 decaying factors (paper: 0.138/min at D = 10 h)",
            &headers,
            &rows
        )
    );
    write_csv("analysis_df", &headers, &rows);
}
