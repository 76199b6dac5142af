//! Broker-side subscription aggregation and batched event matching.
//!
//! B-SUB's brokers (PAPER.md §IV–VI) hold one relay TCBF and match
//! messages per-key, per-filter — fine for pocket-switched contact
//! rates, but the ROADMAP north star is the "millions of users" regime
//! where a broker aggregates millions of subscriptions and matches
//! high event rates against them. This crate is that subsystem:
//!
//! - [`MatchIndex`] — per-subscriber filters aggregated into tiers of
//!   [`bsub_bloom::TcbfPool`]s (the Section VI-D allocator), with bulk
//!   subscribe/unsubscribe/expire, lock-step decay, tombstone-driven
//!   compaction, and a batched [`MatchIndex::match_events`] path that
//!   hashes each event once, prunes candidates through the tier
//!   hierarchy and bit-sliced 64-bit per-member position signatures, and
//!   confirms the survivors exactly per subscriber.
//! - [`ReferenceMatcher`] — the naive per-filter scan kept in-tree as
//!   the differential oracle: `tests/differential.rs` drives both
//!   implementations through 100+ seeded interleavings and demands
//!   identical [`MatchSet`]s, Bloom false positives included.
//! - [`Probe`] — hash-once probes shared with the `bsub-core` broker
//!   contact pipeline, which computes one per message at publish, so
//!   the simulator, the scale harness, and the `bsub-net` cluster all
//!   match through one implementation without perturbing any
//!   committed artifact.
//!
//! Instrumented with `bsub-obs` (`match_*` counters, the
//! `match_batch_ns` timing histogram, and batch-size/candidate size
//! histograms); all probe reads are uninstrumented so batch probing is
//! metrics-invisible, exactly like `BloomFilter::contains`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod index;
mod probe;
mod reference;

pub use crate::index::{
    Event, IndexState, MatchIndex, MatchParams, MatchSet, MatchStats, SubscriberState,
};
pub use crate::probe::Probe;
pub use crate::reference::ReferenceMatcher;
