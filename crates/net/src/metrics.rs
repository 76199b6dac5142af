//! Shared metrics sink for the networked runtime.
//!
//! `bsub_obs`'s profiler is thread-local by design (one simulation, one
//! worker thread), but a [`PeerManager`](crate::PeerManager) spreads its
//! work across reader, writer, and accept threads that never install a
//! profiler. [`NetMetrics`] is the cross-thread collection point: a
//! mutex-guarded [`ProfReport`] that every socket thread records into
//! directly, fronted by one `AtomicBool` so the disabled path costs a
//! single relaxed load — the same zero-cost-when-inactive contract the
//! rest of the workspace observes.
//!
//! The sink is *delta-oriented*: [`NetMetrics::take_delta`] swaps the
//! accumulated report out and leaves a fresh one behind, which is what
//! lets a cluster worker ship monotone deltas to its coordinator on a
//! cadence (DESIGN.md §15) — the coordinator's merged report only ever
//! grows, and because `ProfReport::absorb` is commutative the merged
//! result is independent of frame arrival order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use bsub_obs::{Counter, Gauge, ProfReport, SizeHist, TimeHist};

use crate::frame::FrameKind;

/// Cross-thread metrics sink shared by all threads of one peer.
///
/// Disabled by default; [`NetMetrics::enable`] arms it. Every recording
/// method checks the flag first and returns without touching the lock
/// when the sink is off, so an unobserved runtime does no metrics work
/// beyond one atomic load per call site.
#[derive(Debug, Default)]
pub struct NetMetrics {
    enabled: AtomicBool,
    sink: Mutex<ProfReport>,
}

impl NetMetrics {
    /// A disabled sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the sink; recording calls start accumulating.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Whether the sink is armed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Adds `n` to counter `c` when enabled.
    pub fn count(&self, c: Counter, n: u64) {
        if self.is_enabled() {
            self.sink.lock().expect("metrics sink").add_counter(c, n);
        }
    }

    /// Raises gauge `g` to at least `level` when enabled.
    pub fn raise_gauge(&self, g: Gauge, level: u64) {
        if self.is_enabled() {
            self.sink
                .lock()
                .expect("metrics sink")
                .raise_gauge(g, level);
        }
    }

    /// Records `ns` into timing histogram `h` when enabled.
    pub fn observe_ns(&self, h: TimeHist, ns: u64) {
        if self.is_enabled() {
            self.sink.lock().expect("metrics sink").record_time(h, ns);
        }
    }

    /// Records `value` into size histogram `h` when enabled.
    pub fn observe(&self, h: SizeHist, value: u64) {
        if self.is_enabled() {
            self.sink
                .lock()
                .expect("metrics sink")
                .record_size(h, value);
        }
    }

    /// Merges a whole report into the sink when enabled — how a cluster
    /// worker folds per-contact thread-local `ProfReport`s in.
    pub fn absorb(&self, report: &ProfReport) {
        if self.is_enabled() {
            self.sink.lock().expect("metrics sink").merge(report);
        }
    }

    /// Clones the accumulated report without resetting it.
    #[must_use]
    pub fn snapshot(&self) -> ProfReport {
        self.sink.lock().expect("metrics sink").clone()
    }

    /// Swaps the accumulated report for a fresh one and returns it.
    /// Successive deltas merge to the same total as one snapshot, so
    /// cadence shipping loses nothing.
    #[must_use]
    pub fn take_delta(&self) -> ProfReport {
        std::mem::take(&mut *self.sink.lock().expect("metrics sink"))
    }
}

/// The wall-clock write-latency histogram for frames of `kind`. The
/// per-kind histograms are one contiguous block in [`FrameKind::ALL`]
/// order, so the mapping is an offset from the block's first row.
#[must_use]
pub fn frame_time_hist(kind: FrameKind) -> TimeHist {
    TimeHist::ALL[TimeHist::NetFrameHelloNs as usize + usize::from(kind.byte() - 1)]
}

/// The encoded-size histogram for frames of `kind`, indexed like
/// [`frame_time_hist`]. Recorded on the send side only, so a
/// cluster-wide merge counts each frame once.
#[must_use]
pub fn frame_size_hist(kind: FrameKind) -> SizeHist {
    SizeHist::ALL[SizeHist::NetFrameHelloBytes as usize + usize::from(kind.byte() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let m = NetMetrics::new();
        m.count(Counter::NetFramesSent, 3);
        m.observe_ns(TimeHist::NetFrameHelloNs, 10);
        m.observe(SizeHist::NetFrameHelloBytes, 10);
        assert!(!m.is_enabled());
        assert_eq!(m.snapshot(), ProfReport::default());
    }

    #[test]
    fn deltas_absorb_back_to_the_snapshot_total() {
        let m = NetMetrics::new();
        m.enable();
        m.count(Counter::NetFramesSent, 2);
        m.observe_ns(TimeHist::NetFrameHelloNs, 40);
        let first = m.take_delta();
        m.count(Counter::NetFramesSent, 5);
        m.observe(SizeHist::NetFrameDoneBytes, 8);
        let second = m.take_delta();
        assert_eq!(m.snapshot(), ProfReport::default(), "drained");

        let mut merged = first.clone();
        merged.merge(&second);
        assert_eq!(merged.counter(Counter::NetFramesSent), 7);
        assert_eq!(merged.time_hist(TimeHist::NetFrameHelloNs).count(), 1);
        assert_eq!(merged.size_hist(SizeHist::NetFrameDoneBytes).sum(), 8);

        // Merge is commutative: arrival order cannot matter.
        let mut reversed = second;
        reversed.merge(&first);
        assert_eq!(merged, reversed);
    }

    #[test]
    fn every_frame_kind_maps_to_its_named_histograms() {
        // The offset mapping holds only while both blocks stay
        // contiguous and in `FrameKind::ALL` order; the names say so.
        for kind in FrameKind::ALL {
            let name = kind.name();
            assert_eq!(frame_time_hist(kind).name(), format!("net_frame_{name}_ns"));
            assert_eq!(
                frame_size_hist(kind).name(),
                format!("net_frame_{name}_bytes")
            );
        }
    }
}
