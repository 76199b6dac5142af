//! Thread-local profiler and the workspace metric taxonomy.
//!
//! Metric identity is a closed set of enums so the active recording
//! path is an array index — no hashing, no allocation, no locks. The
//! taxonomy is defined here, at the bottom of the crate graph, because
//! it spans crates: `bsub-bloom` records TCBF and wire-codec metrics,
//! `bsub-core` records election and matching, `bsub-sim` records the
//! contact loop, link budgets, and fault draws, and the baselines
//! record buffer occupancy.
//!
//! Each metric is one row of a `metrics!` table: its doc comment,
//! then `Variant => "name",`. The row order is the report, JSON,
//! table, Prometheus, and wire order, so new rows are appended to the
//! family (or to the block they extend) and never reordered.

use crate::report::ProfReport;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Declares one metric family from a table of rows, each a doc
/// comment followed by `Variant => "name",`. Generates the
/// `#[repr(usize)]` enum (variant `i` indexes slot `i` of a report),
/// `ALL` in row order with a macro-counted length, and `name()`.
macro_rules! metrics {
    (
        $(#[$meta:meta])*
        pub enum $family:ident {
            $( $(#[$row_meta:meta])* $variant:ident => $name:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $family {
            $( $(#[$row_meta])* $variant, )+
        }

        impl $family {
            /// Every variant, in stable report order (row order).
            pub const ALL: [$family; [$($family::$variant),+].len()] = [$($family::$variant),+];

            /// Stable snake-case name used in JSON, tables, and the
            /// Prometheus exposition.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $( $family::$variant => $name, )+
                }
            }
        }
    };
}

metrics! {
    /// Monotonic event counters, recorded with [`count`].
    ///
    /// All byte counters count *payload-level* bytes as the cost model of
    /// the paper does; `WireBytes` counts actual encoded control-filter
    /// bytes produced by `bsub_bloom::wire::encode`.
    pub enum Counter {
        /// TCBF key insertions.
        TcbfInsert => "tcbf_insert",
        /// Additive (reinforcement) merges.
        TcbfAMerge => "tcbf_a_merge",
        /// Maximum merges (broker ↔ broker).
        TcbfMMerge => "tcbf_m_merge",
        /// Decay applications with a non-zero amount.
        TcbfDecay => "tcbf_decay",
        /// Existential / minimum-counter queries.
        TcbfQuery => "tcbf_query",
        /// Preferential queries (Section IV-A).
        TcbfPreference => "tcbf_preference",
        /// Successful wire encodings of a control filter.
        WireEncode => "wire_encode",
        /// Successful wire decodings.
        WireDecodeOk => "wire_decode_ok",
        /// Wire decodings rejected (truncation or CRC mismatch).
        WireDecodeReject => "wire_decode_reject",
        /// Broker elections resolving to a promotion.
        ElectionPromote => "election_promote",
        /// Broker elections resolving to a demotion.
        ElectionDemote => "election_demote",
        /// Message-to-interest matching checks.
        MatchChecked => "match_checked",
        /// Matching checks that hit (message delivered or forwarded).
        MatchHit => "match_hit",
        /// Contacts processed by the runner loop.
        Contacts => "contacts",
        /// Contacts dropped entirely by fault injection.
        FaultContactLost => "fault_contact_lost",
        /// Contacts with a fault-truncated link budget.
        FaultTruncated => "fault_truncated",
        /// Corruption randomness draws taken from a fault stream.
        FaultCorruptionDraw => "fault_corruption_draw",
        /// Node state resets due to churn rejoin.
        NodeReset => "node_reset",
        /// Transfers refused because the link budget was exhausted.
        LinkExhausted => "link_exhausted",
        /// Control-plane bytes sent (filters, requests, identities).
        ControlBytes => "control_bytes",
        /// Data-plane bytes sent (message payloads).
        DataBytes => "data_bytes",
        /// Encoded control-filter bytes produced by the wire codec.
        WireBytes => "wire_bytes",
        /// Network frames written to a socket (`bsub-net`).
        NetFramesSent => "net_frames_sent",
        /// Network frames read and accepted from a socket (`bsub-net`).
        NetFramesRecv => "net_frames_recv",
        /// Bytes written to sockets, headers included (`bsub-net`).
        NetBytesSent => "net_bytes_sent",
        /// Bytes read from sockets, headers included (`bsub-net`).
        NetBytesRecv => "net_bytes_recv",
        /// Dial attempts that were retried after a connect failure or
        /// handshake timeout (`bsub-net`).
        NetRetries => "net_retries",
        /// Connections closed as the losing side of a simultaneous-dial
        /// race (`bsub-net`).
        NetRaceLost => "net_race_lost",
        /// Subscriptions added to a `bsub-match` index.
        MatchSubscribe => "match_subscribe",
        /// Subscriptions removed from a `bsub-match` index.
        MatchUnsubscribe => "match_unsubscribe",
        /// Subscriptions expired out of a `bsub-match` index (deadline
        /// passed or filter fully decayed).
        MatchExpire => "match_expire",
        /// Tier rebuilds triggered by tombstone accumulation
        /// (`bsub-match` compaction).
        MatchCompact => "match_compact",
        /// Events processed through the batched `match_events` path.
        MatchEvents => "match_events",
        /// Tier-aggregate probes taken while pruning a batch.
        MatchTierProbes => "match_tier_probes",
        /// Exact per-subscriber confirmations attempted after tier
        /// pruning (the candidates the hierarchy could not rule out).
        MatchCandidates => "match_candidates",
        /// Confirmed (subscriber, event) matches produced by the index.
        MatchMatched => "match_matched",
        /// Poll/wait intervals that elapsed without observable progress in
        /// `bsub-net`'s connection-assembly waits — the starvation
        /// visibility counter for single-CPU schedulers.
        NetPollStarved => "net_poll_starved",
        /// Outbound sends that found a connection's bounded queue full and
        /// had to block (`bsub-net` backpressure stalls).
        NetSendStalls => "net_send_stalls",
        /// `STATS` frames merged into a live cluster-wide report
        /// (`bsub-net` coordinator side).
        NetStatsFrames => "net_stats_frames",
        /// `SUBSCRIBE` frames applied to a live broker's match index
        /// (`bsub-net` broker service loop).
        BrokerSubscribes => "broker_subscribes",
        /// `UNSUBSCRIBE` frames applied to a live broker's match index.
        BrokerUnsubscribes => "broker_unsubscribes",
        /// `PUBLISH` frames matched through a live broker's index.
        BrokerPublishes => "broker_publishes",
        /// `DELIVER` frames a live broker enqueued toward subscribers
        /// (one per confirmed or false-positive match).
        BrokerDeliveries => "broker_deliveries",
        /// Subscriptions a live broker evicted because their real-clock
        /// deadline passed (clock-wheel expiry).
        BrokerExpired => "broker_expired",
        /// Service-loop batches a live broker drained from its inbound
        /// queues (each batch is one drain + match + deliver cycle).
        BrokerBatches => "broker_batches",
    }
}

metrics! {
    /// Level gauges with high-water tracking, driven by [`gauge_set`]
    /// (absolute levels). Like every family, adding a gauge is one row
    /// of this table.
    ///
    /// A report keeps only the high-water mark — the peak is what memory
    /// sizing cares about.
    pub enum Gauge {
        /// Messages resident in protocol buffers, across all nodes.
        BufferMsgs => "buffer_msgs_hwm",
        /// Payload bytes resident in protocol buffers, across all nodes.
        /// The workspace's memory-high-water proxy: message payloads
        /// dominate the simulator's per-node state.
        BufferBytes => "buffer_bytes_hwm",
    }
}

/// How often protocols walk their buffers to refresh the occupancy
/// gauges: on the first contact and every `OCCUPANCY_SAMPLE_PERIOD`-th
/// after. The walk is O(nodes × buffered messages), so doing it on
/// *every* contact turns a profiled full-trace PUSH run from seconds
/// into minutes; sampling keeps the high-water mark representative at
/// a bounded cost. Deterministic: driven by the contact count, never
/// by time.
pub const OCCUPANCY_SAMPLE_PERIOD: u64 = 64;

metrics! {
    /// Wall-clock timing histograms (nanoseconds), recorded with [`span`].
    ///
    /// Timing is machine- and scheduling-dependent, so these are *excluded*
    /// from worker-count-invariance guarantees; everything else in a
    /// report is deterministic.
    pub enum TimeHist {
        /// One TCBF merge (A- or M-).
        MergeNs => "tcbf_merge_ns",
        /// One TCBF decay application.
        DecayNs => "tcbf_decay_ns",
        /// One preferential query.
        PreferenceNs => "tcbf_preference_ns",
        /// One wire encode.
        EncodeNs => "wire_encode_ns",
        /// One wire decode (accepted or rejected).
        DecodeNs => "wire_decode_ns",
        /// One full protocol contact handler.
        ContactNs => "contact_ns",
        /// One networked contact exchange, dispatch to result, as seen by
        /// the cluster coordinator (`bsub-net`).
        NetExchangeNs => "net_exchange_ns",
        /// One batched `match_events` call on a `bsub-match` index.
        MatchBatchNs => "match_batch_ns",
        /// Socket-write latency of one `HELLO` frame (`bsub-net`). The
        /// per-frame-kind families below measure the writer thread's
        /// wall clock from dequeuing a frame to the flushed socket write,
        /// so OS-buffer backpressure shows up per kind. Each family is
        /// one contiguous block in `FrameKind` order, which
        /// `bsub_net::frame_time_hist` indexes by offset.
        NetFrameHelloNs => "net_frame_hello_ns",
        /// Socket-write latency of one `DISPATCH` frame.
        NetFrameDispatchNs => "net_frame_dispatch_ns",
        /// Socket-write latency of one `STATE_REQ` frame.
        NetFrameStateReqNs => "net_frame_state_req_ns",
        /// Socket-write latency of one `STATE_GRANT` frame.
        NetFrameStateGrantNs => "net_frame_state_grant_ns",
        /// Socket-write latency of one `STATE_RET` frame.
        NetFrameStateRetNs => "net_frame_state_ret_ns",
        /// Socket-write latency of one `RESULT` frame.
        NetFrameExchangeResultNs => "net_frame_exchange_result_ns",
        /// Socket-write latency of one `NODE_FREE` frame.
        NetFrameNodeFreeNs => "net_frame_node_free_ns",
        /// Socket-write latency of one `ADVANCE` frame.
        NetFrameAdvanceNs => "net_frame_advance_ns",
        /// Socket-write latency of one `PUBLISH_OK` frame.
        NetFramePublishOkNs => "net_frame_publish_ok_ns",
        /// Socket-write latency of one `DONE` frame.
        NetFrameDoneNs => "net_frame_done_ns",
        /// Socket-write latency of one `STATS` frame.
        NetFrameStatsNs => "net_frame_stats_ns",
        /// Socket-write latency of one `SUBSCRIBE` frame.
        NetFrameSubscribeNs => "net_frame_subscribe_ns",
        /// Socket-write latency of one `UNSUBSCRIBE` frame.
        NetFrameUnsubscribeNs => "net_frame_unsubscribe_ns",
        /// Socket-write latency of one `PUBLISH` frame.
        NetFramePublishNs => "net_frame_publish_ns",
        /// Socket-write latency of one `DELIVER` frame.
        NetFrameDeliverNs => "net_frame_deliver_ns",
        /// One broker service-loop batch: drain the inbound queues, expire
        /// due deadlines, apply subscribe/unsubscribe, match the publish
        /// run, enqueue deliveries (`bsub-net` broker).
        BrokerBatchNs => "broker_batch_ns",
        /// One epoch's A-merge derivation phase in the sharded scale
        /// engine (phase A, per shard).
        ScaleDeriveNs => "scale_derive_ns",
        /// One epoch's cross-shard merge phase (phase B, per shard).
        ScaleMergeNs => "scale_merge_ns",
        /// One epoch's query phase (phase C, per shard).
        ScaleQueryNs => "scale_query_ns",
        /// One epoch's decay phase (phase D, per shard).
        ScaleDecayNs => "scale_decay_ns",
    }
}

metrics! {
    /// Size histograms (bytes), recorded with [`observe`]. Deterministic,
    /// unlike [`TimeHist`].
    pub enum SizeHist {
        /// Encoded size of each control filter put on the wire.
        EncodedFilterBytes => "encoded_filter_bytes",
        /// Total bytes (control + data) moved per contact.
        ContactBytes => "contact_bytes",
        /// Events per batched `match_events` call (`bsub-match`).
        MatchBatchEvents => "match_batch_events",
        /// Exact confirmations attempted per batched `match_events` call
        /// (`bsub-match`) — how much work tier pruning let through.
        MatchBatchCandidates => "match_batch_candidates",
        /// Encoded size (header + body) of each `HELLO` frame written to a
        /// socket (`bsub-net`). The per-frame-kind families are recorded
        /// on the send side only, so a cluster-wide merge counts each
        /// frame exactly once. Like the timing block, this block is in
        /// `FrameKind` order (`bsub_net::frame_size_hist`).
        NetFrameHelloBytes => "net_frame_hello_bytes",
        /// Encoded size of each `DISPATCH` frame written.
        NetFrameDispatchBytes => "net_frame_dispatch_bytes",
        /// Encoded size of each `STATE_REQ` frame written.
        NetFrameStateReqBytes => "net_frame_state_req_bytes",
        /// Encoded size of each `STATE_GRANT` frame written.
        NetFrameStateGrantBytes => "net_frame_state_grant_bytes",
        /// Encoded size of each `STATE_RET` frame written.
        NetFrameStateRetBytes => "net_frame_state_ret_bytes",
        /// Encoded size of each `RESULT` frame written.
        NetFrameExchangeResultBytes => "net_frame_exchange_result_bytes",
        /// Encoded size of each `NODE_FREE` frame written.
        NetFrameNodeFreeBytes => "net_frame_node_free_bytes",
        /// Encoded size of each `ADVANCE` frame written.
        NetFrameAdvanceBytes => "net_frame_advance_bytes",
        /// Encoded size of each `PUBLISH_OK` frame written.
        NetFramePublishOkBytes => "net_frame_publish_ok_bytes",
        /// Encoded size of each `DONE` frame written.
        NetFrameDoneBytes => "net_frame_done_bytes",
        /// Encoded size of each `STATS` frame written.
        NetFrameStatsBytes => "net_frame_stats_bytes",
        /// Encoded size of each `SUBSCRIBE` frame written.
        NetFrameSubscribeBytes => "net_frame_subscribe_bytes",
        /// Encoded size of each `UNSUBSCRIBE` frame written.
        NetFrameUnsubscribeBytes => "net_frame_unsubscribe_bytes",
        /// Encoded size of each `PUBLISH` frame written.
        NetFramePublishBytes => "net_frame_publish_bytes",
        /// Encoded size of each `DELIVER` frame written.
        NetFrameDeliverBytes => "net_frame_deliver_bytes",
        /// Operations (subscribes + unsubscribes + publishes) applied per
        /// broker service-loop batch (`bsub-net` broker).
        BrokerBatchOps => "broker_batch_ops",
    }
}

thread_local! {
    /// Fast active flag: the only cost instrumentation pays when
    /// profiling is off is reading this cell.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The per-thread metric store: a plain [`ProfReport`], so the
    /// thread-local profiler and every cross-thread sink record
    /// through the same code.
    static PROFILER: RefCell<Option<ProfReport>> = const { RefCell::new(None) };
}

/// Installs a fresh profiler on the current thread, discarding any
/// previous one. Until [`finish`] is called, instrumentation on this
/// thread records into it.
pub fn start() {
    PROFILER.with(|p| *p.borrow_mut() = Some(ProfReport::default()));
    ACTIVE.with(|a| a.set(true));
}

/// Uninstalls the current thread's profiler and returns what it
/// collected. Returns an empty report if [`start`] was never called.
pub fn finish() -> ProfReport {
    ACTIVE.with(|a| a.set(false));
    PROFILER.with(|p| p.borrow_mut().take()).unwrap_or_default()
}

/// Merges a finished [`ProfReport`] into the profiler active on this
/// thread — counters sum, gauge high-water marks take the max,
/// histograms merge bucket-wise, exactly like
/// [`ProfReport::merge`](crate::ProfReport::merge). No-op when no
/// profiler is installed.
///
/// This is how a sharded run re-aggregates: each worker thread runs
/// its own `start()`/`finish()` pair around its slice of the work, and
/// the orchestrator absorbs the per-shard reports (in deterministic
/// shard order) into the run-level profiler.
pub fn absorb(report: &ProfReport) {
    with_profiler(|p| p.merge(report));
}

/// Whether a profiler is installed on this thread. Instrumentation
/// call sites don't need this — [`count`] and friends check it — but
/// it lets callers skip *building* expensive arguments, mirroring the
/// `Recorder::is_active` pattern.
#[must_use]
pub fn is_active() -> bool {
    ACTIVE.with(Cell::get)
}

fn with_profiler(f: impl FnOnce(&mut ProfReport)) {
    if !is_active() {
        return;
    }
    PROFILER.with(|p| {
        if let Some(prof) = p.borrow_mut().as_mut() {
            f(prof);
        }
    });
}

/// Adds `n` to a counter (saturating). Free when inactive.
#[inline]
pub fn count(c: Counter, n: u64) {
    with_profiler(|p| p.add_counter(c, n));
}

/// Reports a gauge's current level; the report keeps the high-water
/// mark, so a level below the mark leaves it unchanged.
#[inline]
pub fn gauge_set(g: Gauge, level: u64) {
    with_profiler(|p| p.raise_gauge(g, level));
}

/// Records a sample into a size histogram. Free when inactive.
#[inline]
pub fn observe(h: SizeHist, value: u64) {
    with_profiler(|p| p.record_size(h, value));
}

/// Records an externally measured duration into a timing histogram —
/// for latencies that cannot be bracketed by a [`span`] (e.g. a
/// request/response round trip observed across threads). Free when
/// inactive.
#[inline]
pub fn observe_ns(h: TimeHist, ns: u64) {
    with_profiler(|p| p.record_time(h, ns));
}

/// A scoped timing guard returned by [`span`]: measures wall-clock
/// nanoseconds from construction to drop and records them into a
/// [`TimeHist`]. When profiling is inactive the guard holds no clock
/// reading and its drop is a no-op — spans on hot paths cost one
/// thread-local read.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped; binding it to _ drops immediately"]
pub struct Span {
    hist: TimeHist,
    started: Option<Instant>,
}

/// Starts a timing span for `hist`. See [`Span`].
#[inline]
pub fn span(hist: TimeHist) -> Span {
    let started = if is_active() {
        Some(Instant::now())
    } else {
        None
    };
    Span { hist, started }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            observe_ns(self.hist, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_thread_records_nothing() {
        // No start(): everything is a no-op and finish() is empty.
        count(Counter::TcbfInsert, 5);
        gauge_set(Gauge::BufferMsgs, 3);
        observe(SizeHist::ContactBytes, 100);
        drop(span(TimeHist::ContactNs));
        assert!(!is_active());
        let report = finish();
        assert_eq!(report.counter(Counter::TcbfInsert), 0);
        assert!(report.is_empty());
    }

    #[test]
    fn start_finish_collects_and_resets() {
        start();
        assert!(is_active());
        count(Counter::WireEncode, 2);
        count(Counter::WireEncode, 3);
        observe(SizeHist::EncodedFilterBytes, 64);
        let report = finish();
        assert!(!is_active());
        assert_eq!(report.counter(Counter::WireEncode), 5);
        assert_eq!(report.size_hist(SizeHist::EncodedFilterBytes).count(), 1);
        // A second finish without start is empty again.
        assert!(finish().is_empty());
    }

    #[test]
    fn absorb_merges_into_active_profiler() {
        start();
        count(Counter::TcbfAMerge, 2);
        gauge_set(Gauge::BufferMsgs, 5);
        observe(SizeHist::ContactBytes, 64);
        let shard = finish();

        start();
        count(Counter::TcbfAMerge, 3);
        gauge_set(Gauge::BufferMsgs, 4);
        gauge_set(Gauge::BufferBytes, 9);
        gauge_set(Gauge::BufferBytes, 2);
        absorb(&shard);
        let merged = finish();
        assert_eq!(merged.counter(Counter::TcbfAMerge), 5);
        assert_eq!(merged.gauge(Gauge::BufferMsgs), 5, "hwm takes the max");
        assert_eq!(
            merged.gauge(Gauge::BufferBytes),
            9,
            "a level below the mark keeps the mark"
        );
        assert_eq!(merged.size_hist(SizeHist::ContactBytes).count(), 1);

        // Without an active profiler, absorb is a no-op.
        absorb(&shard);
        assert!(finish().is_empty());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        start();
        count(Counter::DataBytes, u64::MAX);
        count(Counter::DataBytes, u64::MAX);
        assert_eq!(finish().counter(Counter::DataBytes), u64::MAX);
    }

    #[test]
    fn spans_record_into_the_right_histogram() {
        start();
        {
            let _s = span(TimeHist::MergeNs);
        }
        {
            let _s = span(TimeHist::MergeNs);
        }
        let report = finish();
        assert_eq!(report.time_hist(TimeHist::MergeNs).count(), 2);
        assert_eq!(report.time_hist(TimeHist::DecayNs).count(), 0);
    }
}
