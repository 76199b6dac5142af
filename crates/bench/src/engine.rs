//! The declarative experiment engine: a sweep is *described* as data
//! (a [`SweepSpec`] full of independent [`RunSpec`]s) and *executed*
//! by an [`Executor`] over a pool of scoped threads.
//!
//! # Determinism contract
//!
//! A run is fully described by its inputs (a [`Simulation`], which
//! shares its trace/subscriptions/schedule behind `Arc`s), its
//! protocol factory, and its seed. The executor derives each run's
//! seed from the sweep's master seed and the run's *index* —
//! `SplitMix64::mix(master_seed, index)` — never from scheduling
//! order, thread identity, or wall-clock time. Results are written
//! into an index-addressed slot table, so [`SweepOutcome::records`]
//! is always in input order. Consequently the records (and any CSV
//! rendered from them) are **bit-identical regardless of the worker
//! count**: `BSUB_WORKERS=1` and `BSUB_WORKERS=32` produce the same
//! bytes, only faster. Wall-clock timings are the one intentionally
//! non-deterministic output and are kept out of the figure CSVs (see
//! [`crate::output::record_perf`]).

use bsub_bloom::rng::SplitMix64;
use bsub_obs::{self as obs, MetricsReport, ProfReport};
use bsub_sim::{
    EpochRow, EventLog, Protocol, ProtocolFactory, RunRecorder, SimReport, Simulation,
    TimeSeriesRecorder,
};
use bsub_traces::SimDuration;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a run should record. The default records nothing, which keeps
/// the run on the [`bsub_sim::NullRecorder`] fast path — the figure
/// sweeps all use it, so observability never perturbs their CSVs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordSpec {
    /// Capture the full typed event log (rendered to JSONL by
    /// [`crate::output::write_events`]).
    pub events: bool,
    /// Aggregate a per-epoch time series with this bucket width
    /// (rendered to CSV by [`crate::output::write_timeseries`]).
    pub series: Option<SimDuration>,
    /// Profile the run with the `bsub-obs` metrics layer: hot-path
    /// counters, buffer gauges, and timing/size histograms, attached
    /// to the record as a [`ProfReport`]. Profiling is orthogonal to
    /// the event/series recorders and never perturbs the simulation —
    /// the determinism tests enforce bit-identical figure artifacts
    /// with it on or off.
    pub prof: bool,
}

impl RecordSpec {
    /// Whether the event/series recorder path is needed (profiling
    /// alone stays on the [`bsub_sim::NullRecorder`] fast path).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.events || self.series.is_some()
    }
}

/// The observability output of one recorded run.
#[derive(Debug, Default)]
pub struct RunRecording {
    /// The typed event log, when [`RecordSpec::events`] was set.
    pub events: Option<EventLog>,
    /// Sealed per-epoch rows, when [`RecordSpec::series`] was set.
    pub series: Vec<EpochRow>,
}

/// One independent simulation run: inputs + factory. The seed is
/// assigned by the executor from the run's position in the sweep.
pub struct RunSpec {
    /// The sweep-axis value this run sits at (e.g. `"500"` for a TTL
    /// of 500 minutes) — becomes the row key when rendering.
    pub point: String,
    /// Which configuration within the point (e.g. `"push"`).
    pub label: String,
    /// The fully prepared world (trace, subscriptions, schedule,
    /// config), cheap to clone and `Send` thanks to `Arc` sharing.
    pub sim: Simulation,
    /// Builds the protocol instance for this run from the derived
    /// seed.
    pub factory: Box<dyn ProtocolFactory>,
    /// What (if anything) to record while the run executes.
    pub record: RecordSpec,
}

impl std::fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("point", &self.point)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// A whole experiment, declared up front: every run it will perform
/// and the master seed the per-run seeds derive from.
#[derive(Debug)]
pub struct SweepSpec {
    /// Experiment name (used for logging and perf artifacts).
    pub name: String,
    /// Master seed; run `i` executes with
    /// `SplitMix64::mix(master_seed, i)`.
    pub master_seed: u64,
    /// The runs, in output order.
    pub runs: Vec<RunSpec>,
}

/// The result of one run, including the protocol instance for
/// post-run inspection (downcast via `std::any::Any`).
pub struct RunRecord {
    /// Copied from [`RunSpec::point`].
    pub point: String,
    /// Copied from [`RunSpec::label`].
    pub label: String,
    /// The seed this run executed with.
    pub seed: u64,
    /// The simulator's metrics.
    pub report: SimReport,
    /// The protocol in its end-of-run state.
    pub protocol: Box<dyn Protocol>,
    /// Captured observability output, when the spec asked for any.
    pub recording: Option<RunRecording>,
    /// The run's profiling report, when [`RecordSpec::prof`] was set.
    pub prof: Option<ProfReport>,
    /// Wall-clock duration of this run (excluded from figure CSVs).
    pub wall: Duration,
}

impl std::fmt::Debug for RunRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunRecord")
            .field("point", &self.point)
            .field("label", &self.label)
            .field("seed", &self.seed)
            .field("wall", &self.wall)
            .finish_non_exhaustive()
    }
}

/// Everything a sweep produced: records in input order plus timing.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Copied from [`SweepSpec::name`].
    pub name: String,
    /// How many workers actually executed the sweep.
    pub workers: usize,
    /// One record per [`RunSpec`], in the same order.
    pub records: Vec<RunRecord>,
    /// Wall-clock duration of the whole sweep.
    pub total_wall: Duration,
}

impl SweepOutcome {
    /// Sum of the per-run wall-clock durations — the sequential cost
    /// the worker pool amortized. `total_wall / cpu_wall` below 1.0 is
    /// the parallel speedup.
    #[must_use]
    pub fn cpu_wall(&self) -> Duration {
        self.records.iter().map(|r| r.wall).sum()
    }

    /// The measured speedup over a single worker
    /// (`cpu_wall / total_wall`).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let total = self.total_wall.as_secs_f64();
        if total == 0.0 {
            1.0
        } else {
            self.cpu_wall().as_secs_f64() / total
        }
    }

    /// Aggregates the profiled runs into a label-grouped
    /// [`MetricsReport`] (one group per protocol / experiment leg).
    /// Per-run reports merge commutatively, so the deterministic
    /// portion of the result is worker-count invariant.
    #[must_use]
    pub fn metrics_report(&self) -> MetricsReport {
        let mut report = MetricsReport::new();
        for record in &self.records {
            if let Some(prof) = &record.prof {
                report.add(&record.label, prof);
            }
        }
        report
    }
}

/// Fans a [`SweepSpec`]'s runs over a fixed-size scoped-thread pool.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor with exactly `workers` threads (minimum 1).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Worker count from the `BSUB_WORKERS` environment variable,
    /// falling back to the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let workers = std::env::var("BSUB_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        Self::with_workers(workers)
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes every run in the sweep and returns the records in
    /// input order. See the module docs for the determinism contract.
    #[must_use]
    pub fn run(&self, spec: &SweepSpec) -> SweepOutcome {
        let total = spec.runs.len();
        let workers = self.workers.min(total).max(1);
        let started = Instant::now();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunRecord>>> = (0..total).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let run = &spec.runs[index];
                    let seed = SplitMix64::mix(spec.master_seed, index as u64);
                    let run_started = Instant::now();
                    // A run executes entirely on this worker thread, so
                    // the thread-local profiler scopes exactly one run.
                    if run.record.prof {
                        obs::start();
                    }
                    let (report, protocol, recording) = if run.record.is_enabled() {
                        let mut recorder = RunRecorder {
                            events: run.record.events.then(EventLog::new),
                            series: run.record.series.map(TimeSeriesRecorder::new),
                        };
                        let (report, protocol) =
                            run.sim
                                .run_factory_recorded(run.factory.as_ref(), seed, &mut recorder);
                        let end = run.sim.trace().duration();
                        let recording = RunRecording {
                            events: recorder.events,
                            series: recorder
                                .series
                                .map(|s| s.into_rows(end))
                                .unwrap_or_default(),
                        };
                        (report, protocol, Some(recording))
                    } else {
                        let (report, protocol) = run.sim.run_factory(run.factory.as_ref(), seed);
                        (report, protocol, None)
                    };
                    let prof = run.record.prof.then(obs::finish);
                    let wall = run_started.elapsed();
                    eprintln!(
                        "[{}] run {}/{} {}@{} done in {:.3}s",
                        spec.name,
                        index + 1,
                        total,
                        run.label,
                        run.point,
                        wall.as_secs_f64(),
                    );
                    *slots[index].lock().expect("no panics hold the slot") = Some(RunRecord {
                        point: run.point.clone(),
                        label: run.label.clone(),
                        seed,
                        report,
                        protocol,
                        recording,
                        prof,
                        wall,
                    });
                });
            }
        });

        let records: Vec<RunRecord> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no panics hold the slot")
                    .expect("every index was claimed and completed")
            })
            .collect();
        let outcome = SweepOutcome {
            name: spec.name.clone(),
            workers,
            records,
            total_wall: started.elapsed(),
        };
        eprintln!(
            "[{}] sweep complete: {} runs on {} workers in {:.3}s \
             (cpu {:.3}s, speedup {:.2}x)",
            outcome.name,
            total,
            outcome.workers,
            outcome.total_wall.as_secs_f64(),
            outcome.cpu_wall().as_secs_f64(),
            outcome.speedup(),
        );
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_sim::{NullProtocol, SimConfig, SubscriptionTable};
    use bsub_traces::synthetic::SyntheticTrace;
    use bsub_traces::SimDuration;

    fn tiny_spec(runs: usize) -> SweepSpec {
        let trace = SyntheticTrace::new("eng", 8, SimDuration::from_hours(2), 200)
            .seed(9)
            .build();
        let subs = SubscriptionTable::new(8);
        let sim = Simulation::new(trace, subs, Vec::new(), SimConfig::default());
        SweepSpec {
            name: "tiny".into(),
            master_seed: 42,
            runs: (0..runs)
                .map(|i| RunSpec {
                    point: i.to_string(),
                    label: "null".into(),
                    sim: sim.clone(),
                    factory: Box::new(|_seed: u64| Box::new(NullProtocol) as Box<dyn Protocol>),
                    record: RecordSpec::default(),
                })
                .collect(),
        }
    }

    #[test]
    fn records_stay_in_input_order() {
        let spec = tiny_spec(7);
        let outcome = Executor::with_workers(4).run(&spec);
        let points: Vec<&str> = outcome.records.iter().map(|r| r.point.as_str()).collect();
        assert_eq!(points, ["0", "1", "2", "3", "4", "5", "6"]);
    }

    #[test]
    fn seeds_derive_from_index_not_scheduling() {
        let spec = tiny_spec(5);
        let outcome = Executor::with_workers(3).run(&spec);
        for (i, record) in outcome.records.iter().enumerate() {
            assert_eq!(record.seed, SplitMix64::mix(42, i as u64));
        }
    }

    #[test]
    fn worker_count_does_not_change_reports() {
        let sequential = Executor::with_workers(1).run(&tiny_spec(6));
        let parallel = Executor::with_workers(8).run(&tiny_spec(6));
        let lhs: Vec<&SimReport> = sequential.records.iter().map(|r| &r.report).collect();
        let rhs: Vec<&SimReport> = parallel.records.iter().map(|r| &r.report).collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn profiled_runs_attach_reports() {
        let mut spec = tiny_spec(4);
        for run in &mut spec.runs[..2] {
            run.record.prof = true;
        }
        let outcome = Executor::with_workers(2).run(&spec);
        assert!(outcome.records[0].prof.is_some());
        assert!(outcome.records[1].prof.is_some());
        assert!(outcome.records[2].prof.is_none());
        // Even a NullProtocol run drives the contact loop, which the
        // runner instruments.
        let metrics = outcome.metrics_report();
        let group = metrics.group("null").expect("profiled label present");
        assert!(group.counter(bsub_obs::Counter::Contacts) > 0);
    }

    /// The deterministic portion of the aggregated metrics is part of
    /// the worker-count-invariance contract.
    #[test]
    fn metrics_report_is_worker_count_invariant() {
        let profiled = || {
            let mut spec = tiny_spec(6);
            for run in &mut spec.runs {
                run.record.prof = true;
            }
            spec
        };
        let baseline = Executor::with_workers(1).run(&profiled()).metrics_report();
        assert!(!baseline.is_empty());
        for workers in [2usize, 8] {
            let metrics = Executor::with_workers(workers)
                .run(&profiled())
                .metrics_report();
            assert!(
                metrics.eq_deterministic(&baseline),
                "metrics must be deterministic on {workers} workers"
            );
        }
    }

    #[test]
    fn executor_clamps_to_at_least_one_worker() {
        assert_eq!(Executor::with_workers(0).workers(), 1);
        let outcome = Executor::with_workers(16).run(&tiny_spec(2));
        assert_eq!(outcome.workers, 2, "never more workers than runs");
    }
}
