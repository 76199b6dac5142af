//! The executor's determinism contract, end to end: for fig7- and
//! fig9-shaped sweeps, the records (reports, seeds, labels — and
//! therefore any CSV rendered from them) are bit-identical whether
//! the sweep runs on 1, 2, or 8 workers. The same holds for faulted
//! sweeps and for recorded and profiled figure artifacts (CSV, event
//! streams, deterministic profile counters), with profiling on or off.

use bsub_bench::engine::{Executor, RecordSpec, RunSpec, SweepOutcome, SweepSpec};
use bsub_bench::{Experiment, ProtocolKind};
use bsub_core::DfMode;
use bsub_obs::ProfReport;
use bsub_traces::SimDuration;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny(name: &str, seed: u64) -> Experiment {
    let trace =
        bsub_traces::synthetic::SyntheticTrace::new(name, 14, SimDuration::from_hours(8), 900)
            .seed(seed)
            .build();
    Experiment::over(trace, seed)
}

/// A fig7-shaped sweep: a TTL grid crossed with PUSH / B-SUB / PULL
/// over one environment.
fn fig7_shaped() -> SweepSpec {
    let experiment = tiny("t7", 31);
    let mut runs = Vec::new();
    for mins in [30u64, 90, 240] {
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
        name: "fig7-shaped".into(),
        master_seed: 7,
        runs,
    }
}

/// A fig9-shaped sweep: a DF grid crossed with two environments.
fn fig9_shaped() -> SweepSpec {
    let ttl = SimDuration::from_hours(4);
    let first = tiny("t9a", 41);
    let second = tiny("t9b", 43);
    let mut runs = Vec::new();
    for df in [0.0f64, 0.25, 1.0, 2.0] {
        let mode = if df == 0.0 {
            DfMode::Disabled
        } else {
            DfMode::Fixed(df)
        };
        for (label, env) in [("first", &first), ("second", &second)] {
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
        name: "fig9-shaped".into(),
        master_seed: 9,
        runs,
    }
}

/// Flattens everything deterministic about an outcome (wall-clock
/// excluded by design) into a comparable string.
fn fingerprint(outcome: &SweepOutcome) -> String {
    outcome
        .records
        .iter()
        .map(|r| format!("{}|{}|{}|{:?}\n", r.point, r.label, r.seed, r.report))
        .collect()
}

fn assert_identical_across_workers(build: impl Fn() -> SweepSpec) {
    let baseline = fingerprint(&Executor::with_workers(1).run(&build()));
    assert!(!baseline.is_empty());
    for workers in WORKER_COUNTS {
        let outcome = Executor::with_workers(workers).run(&build());
        assert_eq!(
            outcome.workers,
            workers.min(build().runs.len()),
            "executor reports its actual worker count"
        );
        assert_eq!(
            fingerprint(&outcome),
            baseline,
            "{} must be bit-identical on {workers} workers",
            outcome.name,
        );
    }
}

/// A degradation-shaped sweep: the fault-intensity grid crossed with
/// PUSH / B-SUB / PULL over one environment, using the real
/// [`degradation_faults`](bsub_bench::experiments::degradation_faults)
/// specs (contact loss + truncation + corruption + churn).
fn fault_matrix_shaped() -> SweepSpec {
    let experiment = tiny("flt", 61);
    let ttl = SimDuration::from_mins(240);
    let df = experiment.df_for_ttl(ttl);
    let mut runs = Vec::new();
    for ppm in [0u32, 200_000, 600_000] {
        let faults = bsub_bench::experiments::degradation_faults(ppm);
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
                point: ppm.to_string(),
                label: label.to_string(),
                sim: experiment.sim(ttl).with_faults(faults.clone()),
                factory: experiment.factory(kind, ttl),
                record: RecordSpec::default(),
            });
        }
    }
    SweepSpec {
        name: "fault-matrix".into(),
        master_seed: 13,
        runs,
    }
}

#[test]
fn fig7_shaped_sweep_is_worker_count_invariant() {
    assert_identical_across_workers(fig7_shaped);
}

/// Faulted runs obey the same contract as fault-free ones: the whole
/// fault matrix is bit-identical on 1, 2, and 8 workers (the fault
/// draws live in the run's own `FaultSpec` stream, independent of
/// scheduling).
#[test]
fn fault_matrix_is_worker_count_invariant() {
    assert_identical_across_workers(fault_matrix_shaped);
}

/// `FaultSpec::none()` is *exactly* the unfaulted simulation: the zero
/// row of the fault matrix fingerprints identically to runs built
/// without `with_faults` at all.
#[test]
fn none_spec_matches_unfaulted_runs() {
    let outcome = Executor::with_workers(2).run(&fault_matrix_shaped());
    let faultless: Vec<_> = outcome
        .records
        .iter()
        .take(3)
        .map(|r| format!("{}|{}|{:?}", r.label, r.seed, r.report))
        .collect();

    let experiment = tiny("flt", 61);
    let ttl = SimDuration::from_mins(240);
    let df = experiment.df_for_ttl(ttl);
    let runs = [
        ("push", ProtocolKind::Push),
        (
            "bsub",
            ProtocolKind::Bsub {
                df: DfMode::Fixed(df),
            },
        ),
        ("pull", ProtocolKind::Pull),
    ]
    .map(|(label, kind)| RunSpec {
        point: "0".into(),
        label: label.to_string(),
        sim: experiment.sim(ttl),
        factory: experiment.factory(kind, ttl),
        record: RecordSpec::default(),
    });
    let plain = Executor::with_workers(2).run(&SweepSpec {
        name: "no-faults".into(),
        master_seed: 13,
        runs: runs.into(),
    });
    let expected: Vec<_> = plain
        .records
        .iter()
        .map(|r| format!("{}|{}|{:?}", r.label, r.seed, r.report))
        .collect();
    assert_eq!(faultless, expected);
}

#[test]
fn fig9_shaped_sweep_is_worker_count_invariant() {
    assert_identical_across_workers(fig9_shaped);
}

/// The protocol instances come back too, in input order — the
/// ablation experiment relies on this to read B-SUB diagnostics.
/// A dynamics-shaped sweep: the same B-SUB run once silent and once
/// with full recording (events + 15-minute time-series buckets).
fn recorded_pair() -> SweepSpec {
    let experiment = tiny("dyn", 53);
    let ttl = SimDuration::from_mins(240);
    let df = experiment.df_for_ttl(ttl);
    let kind = ProtocolKind::Bsub {
        df: DfMode::Fixed(df),
    };
    SweepSpec {
        name: "recorded-pair".into(),
        master_seed: 11,
        runs: vec![
            RunSpec {
                point: "silent".into(),
                label: "bsub".into(),
                sim: experiment.sim(ttl),
                factory: experiment.factory(kind, ttl),
                record: RecordSpec::default(),
            },
            RunSpec {
                point: "recorded".into(),
                label: "bsub".into(),
                sim: experiment.sim(ttl),
                factory: experiment.factory(kind, ttl),
                record: RecordSpec {
                    events: true,
                    series: Some(SimDuration::from_mins(15)),
                    prof: false,
                },
            },
        ],
    }
}

/// Recorders are pure observers: a run with full recording attached
/// produces a report bit-identical to the same run on the
/// NullRecorder fast path.
#[test]
fn recording_does_not_perturb_reports() {
    let outcome = Executor::with_workers(2).run(&recorded_pair());
    let [silent, recorded] = &outcome.records[..] else {
        panic!("two runs expected")
    };
    assert_eq!(silent.report, recorded.report);
    assert!(silent.recording.is_none());
    let recording = recorded.recording.as_ref().expect("recording captured");
    let events = recording.events.as_ref().expect("event log captured");
    assert!(!events.events().is_empty(), "a live run emits events");
    assert!(!recording.series.is_empty(), "epochs were sealed");
}

/// The recorded artifacts themselves are part of the determinism
/// contract: identical JSONL and epoch rows at 1, 2, and 8 workers.
#[test]
fn recorded_artifacts_are_worker_count_invariant() {
    let render = |workers: usize| {
        let outcome = Executor::with_workers(workers).run(&recorded_pair());
        let recording = outcome.records[1]
            .recording
            .as_ref()
            .expect("recording captured");
        let jsonl = recording
            .events
            .as_ref()
            .expect("event log captured")
            .to_jsonl();
        (jsonl, format!("{:?}", recording.series))
    };
    let baseline = render(1);
    assert!(baseline.0.lines().count() > 0);
    for workers in WORKER_COUNTS {
        assert_eq!(render(workers), baseline, "workers = {workers}");
    }
}

/// A fig7-shaped sweep with full recording (events + series) and the
/// profiler optionally attached to every run.
fn fig7_shaped_recorded(prof: bool) -> SweepSpec {
    let mut spec = fig7_shaped();
    for run in &mut spec.runs {
        run.record = RecordSpec {
            events: true,
            series: Some(SimDuration::from_mins(30)),
            prof,
        };
    }
    spec
}

/// Renders the figure CSV text exactly as `experiments::ttl_sweep`
/// writes it, plus the concatenated event JSONL streams and any
/// per-run profiling reports.
fn figure_artifacts(workers: usize, prof: bool) -> (String, String, Vec<ProfReport>) {
    use bsub_bench::output::{f1, f3};
    let outcome = Executor::with_workers(workers).run(&fig7_shaped_recorded(prof));
    let mut csv = String::from(
        "ttl_mins,push_delivery,bsub_delivery,pull_delivery,push_delay_min,\
         bsub_delay_min,pull_delay_min,push_fwd,bsub_fwd,pull_fwd\n",
    );
    for point in outcome.records.chunks(3) {
        let [push, bsub, pull] = point else {
            panic!("three protocols per TTL point")
        };
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            push.point,
            f3(push.report.delivery_ratio()),
            f3(bsub.report.delivery_ratio()),
            f3(pull.report.delivery_ratio()),
            f1(push.report.mean_delay_mins()),
            f1(bsub.report.mean_delay_mins()),
            f1(pull.report.mean_delay_mins()),
            f1(push.report.forwardings_per_delivered()),
            f1(bsub.report.forwardings_per_delivered()),
            f1(pull.report.forwardings_per_delivered()),
        ));
    }
    let events: String = outcome
        .records
        .iter()
        .map(|r| {
            r.recording
                .as_ref()
                .expect("recording requested")
                .events
                .as_ref()
                .expect("event log requested")
                .to_jsonl()
        })
        .collect();
    assert_eq!(
        outcome.records.iter().all(|r| r.prof.is_some()),
        prof,
        "profiling reports attach exactly when requested"
    );
    let profs: Vec<ProfReport> = outcome
        .records
        .iter()
        .filter_map(|r| r.prof.clone())
        .collect();
    (csv, events, profs)
}

/// Recorded artifacts with the profiler attached: figure CSVs,
/// TraceEvent streams, and the deterministic portion of per-run
/// ProfReports are identical at 1, 2, and 8 workers.
#[test]
fn figure_artifacts_are_worker_count_invariant() {
    let (baseline_csv, baseline_events, baseline_profs) = figure_artifacts(1, true);
    assert!(!baseline_profs.is_empty());
    for workers in WORKER_COUNTS {
        let (csv, events, profs) = figure_artifacts(workers, true);
        assert_eq!(
            csv, baseline_csv,
            "figure CSV must be byte-identical (workers={workers})"
        );
        assert_eq!(
            events, baseline_events,
            "event stream must be byte-identical (workers={workers})"
        );
        assert_eq!(profs.len(), baseline_profs.len());
        for (i, (a, b)) in profs.iter().zip(&baseline_profs).enumerate() {
            assert!(
                a.eq_deterministic(b),
                "run {i}: deterministic profile drifted (workers={workers})"
            );
        }
    }
}

/// The live observability plane's standing invariant (DESIGN.md §15):
/// the profiler that feeds it — the same per-contact reports workers
/// ship as `STATS` deltas — is a pure observer. With the plane on or
/// off, figure CSVs and TraceEvent streams are byte-identical at 1, 2,
/// and 8 workers.
#[test]
fn observability_plane_on_off_artifacts_are_byte_identical() {
    let (baseline_csv, baseline_events, _) = figure_artifacts(1, false);
    assert!(baseline_csv.lines().count() > 1);
    assert!(!baseline_events.is_empty());
    for workers in WORKER_COUNTS {
        for plane_on in [false, true] {
            let (csv, events, profs) = figure_artifacts(workers, plane_on);
            assert_eq!(
                csv, baseline_csv,
                "figure CSV must not see the plane (workers={workers}, plane_on={plane_on})"
            );
            assert_eq!(
                events, baseline_events,
                "event stream must not see the plane (workers={workers}, plane_on={plane_on})"
            );
            assert_eq!(
                !profs.is_empty(),
                plane_on,
                "reports exist exactly when the plane is on"
            );
        }
    }
}

#[test]
fn protocols_return_in_input_order() {
    let outcome = Executor::with_workers(4).run(&fig7_shaped());
    for point in outcome.records.chunks(3) {
        let names: Vec<&str> = point.iter().map(|r| r.protocol.name()).collect();
        assert_eq!(names, ["PUSH", "B-SUB", "PULL"]);
    }
}
