//! Bloom-filter substrate for B-SUB, including the paper's core data
//! structure: the **Temporal Counting Bloom Filter (TCBF)**.
//!
//! This crate implements, from scratch:
//!
//! - [`BloomFilter`] — the classic Bloom filter (Bloom, 1970) with
//!   insertion, probabilistic membership queries, and union merging.
//! - [`Tcbf`] — the Temporal Counting Bloom Filter of the B-SUB paper
//!   (Zhao & Wu, ICDCS 2010): counters are set to an initial value on
//!   insertion, combined with *A-merge* (additive) or *M-merge*
//!   (maximum), and *decayed* over time so that stale entries expire.
//!   It supports *existential* queries (classic membership) and
//!   *preferential* queries (ranking two filters as carriers of a key).
//!   Decay is recorded lazily as a per-filter epoch offset and
//!   materialized on read/merge, so it costs O(1) per call.
//! - [`LaneTcbf`] — that one TCBF algebra, written once over its
//!   counter width. It has two instances. [`Tcbf`] is
//!   `LaneTcbf<Lane32>`, with `u32` counters: the protocol runs it,
//!   because the paper's experiments need the range (Fig. 7 relay
//!   counters reach 233 801, and the Fig. 6 A-merge ablation saturates
//!   `u32`). `LaneTcbf<Lane4>` packs sixteen 4-bit counters per `u64`
//!   and merges them with the SWAR kernels of [`packed`]. The
//!   million-node scale harness runs it, since there `C ≤ 15` bounds
//!   every counter and a filter is 8x smaller.
//! - [`math`] — closed-form analysis from Sections III and VI of the
//!   paper: false-positive rate, fill ratio, the expected minimum of
//!   binomially distributed counter increments (Eq. 4), the decaying
//!   factor formula (Eq. 5), joint FPR of several filters (Eq. 7), and
//!   the memory model of the compressed wire format (Eq. 8).
//! - [`wire`] — the compressed encoding of Section VI-C: set-bit
//!   locations packed at ⌈log₂ m⌉ bits each, with full, shared, or
//!   ripped counters.
//! - [`allocation`] — the dynamic multi-filter allocation strategy of
//!   Section VI-D, including the binary search for the optimal filter
//!   count under a storage bound (Eq. 9–10).
//!
//! # Quickstart
//!
//! ```
//! use bsub_bloom::Tcbf;
//!
//! let mut interests = Tcbf::new(256, 4, 50);
//! interests.insert("NewMoon")?;
//! assert!(interests.contains("NewMoon"));
//! assert!(!interests.contains("openwebawards"));
//!
//! // Time passes: decay the counters. After 50 decrements the key
//! // expires, which is how B-SUB forgets interests of consumers a
//! // broker no longer meets.
//! interests.decay(50);
//! assert!(!interests.contains("NewMoon"));
//! # Ok::<(), bsub_bloom::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod allocation;
mod bitvec;
mod bloom;
mod error;
pub mod hash;
pub mod math;
pub mod packed;
pub mod rng;
mod tcbf;
pub mod wire;

pub use crate::allocation::{AllocationPlan, TcbfPool};
pub use crate::bitvec::BitVec;
pub use crate::bloom::BloomFilter;
pub use crate::error::Error;
pub use crate::hash::KeyHasher;
pub use crate::packed::Lane4;
pub use crate::rng::SplitMix64;
pub use crate::tcbf::{Decayer, Lane32, LaneTcbf, Preference, SparseTcbf, Tcbf};
