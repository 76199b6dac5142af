//! In-process metrics and profiling for the B-SUB workspace.
//!
//! The ROADMAP's north star is a system that runs "as fast as the
//! hardware allows"; this crate is how the workspace *sees* where
//! time, bytes, and memory go. It sits at the bottom of the crate
//! graph (no dependencies, nothing below it) so every other crate can
//! instrument its hot paths without API threading.
//!
//! # Design
//!
//! The same zero-cost-when-inactive contract as `bsub_sim`'s
//! `NullRecorder` applies, enforced one layer lower: every
//! instrumentation call first reads a thread-local `Cell<bool>` and
//! returns immediately when no profiler is installed. Timing spans do
//! not even take a clock reading on the inactive path. Because
//! profiling only *observes* (it never feeds back into simulation
//! state), enabling it cannot perturb results — the determinism test
//! in `bsub-bench` proves figure CSVs and event streams are
//! byte-identical with profiling on and off.
//!
//! Metric identity is a closed enum taxonomy ([`Counter`], [`Gauge`],
//! [`TimeHist`], [`SizeHist`]) indexing fixed arrays, so the active
//! path is allocation-free: recording a value is an array index and a
//! saturating add. Histograms are log₂-bucketed (64 buckets cover the
//! full `u64` range) with exact count/sum/min/max, good enough for
//! p50/p90/p99/max summaries without storing samples.
//!
//! Each family is declared once, as a table whose rows are a doc
//! comment and `Variant => "name",`; the table generates the enum,
//! its `ALL` array, and `name()`, so adding a metric is one row. Row
//! order is report and wire order. The `bsub-net` per-frame-kind
//! histograms are one contiguous block per family in `FrameKind`
//! order: adding a frame kind is one row per family, appended to that
//! block. Any added row changes the taxonomy lengths in the wire
//! header, so [`ProfReport::decode`] rejects reports from peers built
//! before the change instead of misreading them.
//!
//! Each simulation run executes entirely on one worker thread (the
//! `bsub_bench::engine` contract), so the profiler is thread-local:
//! [`start`] installs a fresh [`ProfReport`] and instrumentation
//! records into it through the same methods a cross-thread sink uses;
//! [`finish`] hands it back. Reports merge commutatively (counter
//! sums, gauge high-water maxima, bucket-wise histogram sums), which
//! is what makes the aggregated [`MetricsReport`] invariant under
//! worker count and scheduling order — wall-clock *timing* histograms
//! are the one exception, and are excluded from invariance claims.
//!
//! For components whose work crosses threads or processes — the
//! `bsub-net` runtime's socket threads, a cluster shipping per-worker
//! reports to its coordinator — a report can also be mutated directly
//! ([`ProfReport::add_counter`] and friends) and moved over a wire
//! with the versioned binary codec ([`ProfReport::encode`] /
//! [`ProfReport::decode`]). Merge commutativity is what makes the
//! cluster-wide live report independent of frame arrival order.
//!
//! # Example
//!
//! ```
//! use bsub_obs::{self as obs, Counter, TimeHist};
//!
//! obs::start();
//! obs::count(Counter::TcbfInsert, 1);
//! {
//!     let _span = obs::span(TimeHist::MergeNs); // timed while in scope
//! }
//! let report = obs::finish();
//! assert_eq!(report.counter(Counter::TcbfInsert), 1);
//! assert_eq!(report.time_hist(TimeHist::MergeNs).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod hist;
pub mod json;
mod profiler;
mod report;

pub use crate::hist::Histogram;
pub use crate::profiler::{
    absorb, count, finish, gauge_set, is_active, observe, observe_ns, span, start, Counter, Gauge,
    SizeHist, Span, TimeHist, OCCUPANCY_SAMPLE_PERIOD,
};
pub use crate::report::{calibrate_ns, MetricsReport, ProfReport};
