//! The Temporal Counting Bloom Filter (Section IV of the paper),
//! written once over two counter widths.
//!
//! [`LaneTcbf`] implements the whole TCBF algebra — insertion, A- and
//! M-merge, lazy decay, the existential and preferential queries —
//! against a small counter-storage interface: per-counter get/set,
//! word-wise saturating add, maximum and saturating subtract, the lane
//! maximum, and a count of non-zero lanes. Two storages implement it,
//! because only two widths have callers:
//!
//! - [`Lane32`]: one `u32` counter per word. [`Tcbf`] is this
//!   instance, and it is the filter the protocol runs. The paper's
//!   experiments reinforce relay counters far past any narrow range:
//!   in Fig. 7 they reach 233 801, and the Fig. 6 A-merge ablation
//!   saturates `u32` on purpose. So the figures need the full width.
//! - [`Lane4`](crate::packed::Lane4): sixteen 4-bit counters per
//!   `u64`, merged by the SWAR kernels of [`crate::packed`]. The
//!   `scale` harness runs this instance. There `C ≤ 15` bounds every
//!   counter, and a filter is 8x smaller.

use std::fmt;

use crate::bitvec::BitVec;
use crate::bloom::BloomFilter;
use crate::error::Error;
use crate::hash::KeyHasher;
use bsub_obs::{self as obs, Counter, TimeHist};

/// Counter storage for [`LaneTcbf`]: how counters pack into words, and
/// the word-wise kernels the TCBF algebra is written against.
///
/// Public only so that it can bound the public filter type. It is not
/// reachable from outside this crate, so [`Lane32`] and
/// [`Lane4`](crate::packed::Lane4) are its only implementors. The
/// implementors are unit markers, so the filter types derive `Clone`
/// and `Debug` at every width.
pub trait Lanes: Copy + fmt::Debug {
    /// The storage word.
    type Word: Copy + Eq + Default + fmt::Debug + Send + Sync;
    /// The lane maximum: counters saturate here.
    const MAX: u32;
    /// Counters per word.
    const PER_WORD: usize;
    /// Counter `i` of a word slice.
    fn get(words: &[Self::Word], i: usize) -> u32;
    /// Sets counter `i` of a word slice to `v` (`v ≤ MAX`).
    fn set(words: &mut [Self::Word], i: usize, v: u32);
    /// Lane-wise saturating add.
    fn sat_add(a: Self::Word, b: Self::Word) -> Self::Word;
    /// Lane-wise maximum.
    fn max(a: Self::Word, b: Self::Word) -> Self::Word;
    /// Saturating subtract of `d` (`d ≤ MAX`) from every lane.
    fn sat_sub(a: Self::Word, d: u32) -> Self::Word;
    /// Number of non-zero lanes.
    fn nonzero(a: Self::Word) -> u32;
}

/// 32-bit counter lanes, one counter per `u32` word: the storage of
/// [`Tcbf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane32;

impl Lanes for Lane32 {
    type Word = u32;
    const MAX: u32 = u32::MAX;
    const PER_WORD: usize = 1;

    #[inline]
    fn get(words: &[u32], i: usize) -> u32 {
        words[i]
    }

    #[inline]
    fn set(words: &mut [u32], i: usize, v: u32) {
        words[i] = v;
    }

    #[inline]
    fn sat_add(a: u32, b: u32) -> u32 {
        a.saturating_add(b)
    }

    #[inline]
    fn max(a: u32, b: u32) -> u32 {
        a.max(b)
    }

    #[inline]
    fn sat_sub(a: u32, d: u32) -> u32 {
        a.saturating_sub(d)
    }

    #[inline]
    fn nonzero(a: u32) -> u32 {
        u32::from(a != 0)
    }
}

/// The protocol's TCBF: [`LaneTcbf`] with 32-bit counters.
pub type Tcbf = LaneTcbf<Lane32>;

/// The Temporal Counting Bloom Filter (TCBF), the B-SUB paper's core
/// data structure, over counter lanes `L` ([`Lane32`] for [`Tcbf`],
/// [`Lane4`](crate::packed::Lane4) for the scale tier).
///
/// Like a counting Bloom filter, a TCBF associates a counter with each
/// bit — but the counters do **not** count key multiplicity. Instead
/// (Section IV-A):
///
/// - **Insertion** sets the counters of the key's hashed bits to a
///   fixed initial value `C` ([`LaneTcbf::initial_counter`]). Counters
///   that are already set are left unchanged, so a freshly built
///   filter always has uniform counters.
/// - **A-merge** (additive merge, [`LaneTcbf::a_merge`]) ORs the bit
///   vectors and *adds* the counters. B-SUB uses it when a consumer
///   reports its interests to a broker: repeated meetings *reinforce*
///   the interests' counters.
/// - **M-merge** (maximum merge, [`LaneTcbf::m_merge`]) ORs the bit
///   vectors and takes the counter-wise *maximum*. B-SUB uses it
///   between brokers, which prevents the "bogus counter" feedback loop
///   of Fig. 6 (two brokers meeting frequently would otherwise inflate
///   each other's counters without any consumer nearby).
/// - **Decaying** ([`LaneTcbf::decay`]) subtracts from every counter; a
///   bit whose counter reaches zero is reset. This is the *temporal
///   deletion* that expires interests of consumers a broker no longer
///   meets. The subtraction rate is the paper's *decaying factor* (DF);
///   see [`Decayer`] for fractional-rate bookkeeping.
/// - An **existential query** ([`LaneTcbf::contains`]) is classic Bloom
///   membership; a **preferential query** ([`LaneTcbf::preference`])
///   compares the min-counters of a key in two filters to decide which
///   filter's owner is the better carrier for that key.
///
/// Counters saturate at the lane maximum (`u32::MAX` or 15).
/// Insertion is only defined for filters that have never been merged
/// (the paper's rule); to add keys to a merged filter, insert them into
/// a fresh TCBF and merge the two.
///
/// # Lazy epoch decay
///
/// [`LaneTcbf::decay`] does **not** walk the counter array. It adds the
/// amount to a per-filter *epoch* offset, and every observable value is
/// materialized on read as `stored.saturating_sub(epoch)`. Because
/// saturating subtractions of accumulated amounts compose exactly
/// (`(c ∸ d₁) ∸ d₂ = c ∸ (d₁ + d₂)`), the materialized counters are
/// bit-identical to what an eager per-counter walk would produce — the
/// equivalence the property tests in `tests/properties.rs` and
/// `tests/packed.rs` pin down. An epoch that reaches the lane maximum
/// wipes every counter, so decay then clears the array instead.
/// A-merges fold both filters' pending epochs into the stored counters
/// in the same single pass that combines them; M-merges only
/// *equalize* the two epochs (max commutes with a shared saturating
/// offset, so the common `min(e_self, e_other)` part stays lazy).
/// Either way a broker that meets rarely pays O(1) per decay instead
/// of O(m) per contact.
///
/// # Examples
///
/// Reinforcement and expiry, the mechanism behind B-SUB forwarding:
///
/// ```
/// use bsub_bloom::Tcbf;
///
/// // A consumer's genuine filter.
/// let mut genuine = Tcbf::new(256, 4, 10);
/// genuine.insert("NewMoon")?;
///
/// // A broker A-merges it on every meeting.
/// let mut relay = Tcbf::new(256, 4, 10);
/// relay.a_merge(&genuine)?;
/// relay.a_merge(&genuine)?; // met twice: counter is now 20
/// assert_eq!(relay.min_counter("NewMoon"), 20);
///
/// // Decay below the reinforced level: the interest survives ...
/// relay.decay(15);
/// assert!(relay.contains("NewMoon"));
/// // ... but eventually expires.
/// relay.decay(5);
/// assert!(!relay.contains("NewMoon"));
/// # Ok::<(), bsub_bloom::Error>(())
/// ```
///
/// The same algebra on 4-bit lanes saturates at 15:
///
/// ```
/// use bsub_bloom::{Lane4, LaneTcbf};
///
/// let consumer = LaneTcbf::<Lane4>::from_keys(256, 4, 5, ["NewMoon"]);
/// let mut relay = LaneTcbf::<Lane4>::new(256, 4, 5);
/// for _ in 0..4 {
///     relay.a_merge(&consumer)?;
/// }
/// assert_eq!(relay.min_counter("NewMoon"), 15);
/// relay.decay(15); // O(1): an epoch this large clears the filter
/// assert!(relay.is_empty());
/// # Ok::<(), bsub_bloom::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct LaneTcbf<L: Lanes> {
    /// Stored counters, `L::PER_WORD` to a word, *before* the pending
    /// epoch is subtracted.
    words: Vec<L::Word>,
    bits: usize,
    /// Pending lazy decay: every observable counter value is
    /// `stored.saturating_sub(epoch)`. Kept below `L::MAX`: an epoch
    /// that reaches it wipes every counter, so [`LaneTcbf::decay`]
    /// clears the words instead.
    epoch: u32,
    hashes: usize,
    initial: u32,
    hasher: KeyHasher,
    merged: bool,
}

/// Equality is on *materialized* counters: a filter decayed lazily and
/// one decayed eagerly by the same amounts are the same filter.
impl<L: Lanes> PartialEq for LaneTcbf<L> {
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits
            && self.hashes == other.hashes
            && self.initial == other.initial
            && self.hasher == other.hasher
            && self.merged == other.merged
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(&a, &b)| L::sat_sub(a, self.epoch) == L::sat_sub(b, other.epoch))
    }
}

impl<L: Lanes> Eq for LaneTcbf<L> {}

impl<L: Lanes> LaneTcbf<L> {
    /// Creates an empty TCBF of `bits` counters, `hashes` hash
    /// functions, and insertion counter value `initial` (the paper's
    /// `C`).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, `hashes == 0`, `initial == 0`, or
    /// `initial` exceeds the lane maximum.
    #[must_use]
    pub fn new(bits: usize, hashes: usize, initial: u32) -> Self {
        Self::with_hasher(bits, hashes, initial, KeyHasher::default())
    }

    /// Creates an empty TCBF with an explicit hasher.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LaneTcbf::new`].
    #[must_use]
    pub fn with_hasher(bits: usize, hashes: usize, initial: u32, hasher: KeyHasher) -> Self {
        assert!(bits > 0, "bit-vector length must be positive");
        assert!(hashes > 0, "hash count must be positive");
        assert!(initial > 0, "initial counter value must be positive");
        assert!(
            initial <= L::MAX,
            "initial counter must fit a lane (1..={})",
            L::MAX
        );
        Self {
            words: vec![L::Word::default(); bits.div_ceil(L::PER_WORD)],
            bits,
            epoch: 0,
            hashes,
            initial,
            hasher,
            merged: false,
        }
    }

    /// Builds a never-merged TCBF containing every key in `keys`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`LaneTcbf::new`].
    #[must_use]
    pub fn from_keys<I, K>(bits: usize, hashes: usize, initial: u32, keys: I) -> Self
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
    {
        let mut f = Self::new(bits, hashes, initial);
        for key in keys {
            f.insert(key).expect("fresh filter accepts inserts");
        }
        f
    }

    /// Inserts a key: the counters of its hashed bits are set to the
    /// initial value `C`; counters that are already non-zero keep their
    /// value (Section IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsertAfterMerge`] if this filter has been the
    /// receiver of an A-merge or M-merge. The paper only defines
    /// insertion on never-merged filters; insert into a fresh TCBF and
    /// merge it instead.
    pub fn insert<K: AsRef<[u8]>>(&mut self, key: K) -> Result<(), Error> {
        if self.merged {
            return Err(Error::InsertAfterMerge);
        }
        obs::count(Counter::TcbfInsert, 1);
        // Fold any pending decay into the stored counters first, so
        // "already set" is judged on materialized values and the new
        // counters are stored exactly at `C`. Fresh filters (the only
        // insertion target in practice) have epoch 0 and skip this.
        self.flush_epoch();
        for pos in self.hasher.positions(key.as_ref(), self.hashes, self.bits) {
            if L::get(&self.words, pos) == 0 {
                L::set(&mut self.words, pos, self.initial);
            }
        }
        Ok(())
    }

    /// Additive merge: bit vectors are ORed and counters are *summed*
    /// (saturating).
    ///
    /// Used for consumer → broker interest reinforcement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' length, hash
    /// count, or hasher differ. (The initial counter value `C` may
    /// differ; merged counters no longer correspond to any single `C`.)
    pub fn a_merge(&mut self, other: &Self) -> Result<(), Error> {
        self.check_compatible(other)?;
        obs::count(Counter::TcbfAMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        self.merge_with(other, L::sat_add);
        Ok(())
    }

    /// Maximum merge: bit vectors are ORed and each counter becomes the
    /// *maximum* of the two.
    ///
    /// Used for broker ↔ broker relay-filter combination; prevents the
    /// bogus-counter loop of Fig. 6.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' parameters
    /// differ.
    pub fn m_merge(&mut self, other: &Self) -> Result<(), Error> {
        self.check_compatible(other)?;
        obs::count(Counter::TcbfMMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        // Max commutes with a shared saturating offset:
        // `max(a ∸ e, b ∸ f) = max(a ∸ (e−m), b ∸ (f−m)) ∸ m` for
        // `m = min(e, f)`. So the merge only equalizes the two
        // epochs — at most ONE per-element subtraction, on the side
        // with the larger epoch — and the common part `m` stays lazy,
        // to be folded (or decayed further) later. Exact for every
        // lane width: only saturating subtractions are involved, those
        // compose, and a maximum never leaves the lane range.
        let (se, oe) = (self.epoch, other.epoch);
        let m = se.min(oe);
        let pairs = self.words.iter_mut().zip(&other.words);
        if se == oe {
            for (a, &b) in pairs {
                *a = L::max(*a, b);
            }
        } else if se == m {
            for (a, &b) in pairs {
                *a = L::max(*a, L::sat_sub(b, oe - m));
            }
        } else {
            for (a, &b) in pairs {
                *a = L::max(L::sat_sub(*a, se - m), b);
            }
        }
        self.epoch = m;
        self.merged = true;
        Ok(())
    }

    /// Additive merge against a pre-extracted sparse view: identical
    /// observable result to [`LaneTcbf::a_merge`] with the view's
    /// source filter, in O(non-zero words) instead of O(m).
    ///
    /// This is the consumer → broker fast path: a genuine filter holds
    /// a handful of interests (tens of non-zero counters out of
    /// thousands), and it never changes after construction, so the
    /// sparse view is extracted once and reused for every meeting.
    /// Zero counters are additive identities — skipping them is exact,
    /// not approximate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the view's source filter
    /// had a different length, hash count, or hasher.
    pub fn a_merge_sparse(&mut self, other: &SparseTcbf<L>) -> Result<(), Error> {
        if self.bits != other.bits || self.hashes != other.hashes || self.hasher != other.hasher {
            return Err(Error::ParamMismatch {
                ours: (self.bits, self.hashes),
                theirs: (other.bits, other.hashes),
            });
        }
        obs::count(Counter::TcbfAMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        // The sparse entries are already materialized. A pending epoch
        // `e` on the receiver need not cost an O(m) flush: storing
        // `max(c, e) + v` under the unchanged epoch materializes to
        // `(c ∸ e) + v`, exactly the dense A-merge result, as long as
        // the sum fits a lane. Whether it does is a matter of the lane
        // maximum. A 32-bit lane only overflows within `v` of
        // `u32::MAX` (unseen in any committed workload), so 32-bit
        // lanes keep the epoch and check each entry. An entry that
        // would overflow flushes mid-way (entries already stored as
        // `max(c, e) + v` materialize correctly through the flush), and
        // the rest finish with plain saturating adds. Narrow lanes
        // saturate in ordinary use (`C ≤ 15`), where that check would
        // fail often and run per lane instead of per word, so they fold
        // the epoch first.
        if L::MAX < u32::MAX {
            self.flush_epoch();
        }
        let e = self.epoch;
        for (n, &(w, v)) in other.entries.iter().enumerate() {
            let w = w as usize;
            if e == 0 {
                self.words[w] = L::sat_add(self.words[w], v);
            } else if !self.add_over_epoch(w, v, e) {
                self.flush_epoch();
                for &(w, v) in &other.entries[n..] {
                    let slot = &mut self.words[w as usize];
                    *slot = L::sat_add(*slot, v);
                }
                break;
            }
        }
        self.merged = true;
        Ok(())
    }

    /// The epoch-preserving sparse add: stores `max(c, e) + x` in every
    /// lane of word `w`, for the matching lane `x` of `v`. Returns
    /// `false`, and changes nothing, if some lane would overflow.
    fn add_over_epoch(&mut self, w: usize, v: L::Word, e: u32) -> bool {
        let src = std::slice::from_ref(&v);
        let lanes = (0..L::PER_WORD).map(|j| (w * L::PER_WORD + j, L::get(src, j)));
        let lifted = |c: u32, x: u32| u64::from(c.max(e)) + u64::from(x);
        if lanes
            .clone()
            .any(|(i, x)| lifted(L::get(&self.words, i), x) > u64::from(L::MAX))
        {
            return false;
        }
        for (i, x) in lanes {
            let s = lifted(L::get(&self.words, i), x) as u32;
            L::set(&mut self.words, i, s);
        }
        true
    }

    /// Adopts an already-computed A-merge result by copy — see
    /// [`LaneTcbf::m_merge_adopt`]; addition is commutative too.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' parameters
    /// differ.
    pub fn a_merge_adopt(&mut self, merged: &Self) -> Result<(), Error> {
        self.check_compatible(merged)?;
        obs::count(Counter::TcbfAMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        self.adopt(merged);
        Ok(())
    }

    /// Adopts an already-computed M-merge result by copy.
    ///
    /// Merging is commutative: when two brokers exchange relay filters
    /// and each merges the other's pre-contact snapshot, both sides
    /// converge on the *same* counter array, so the second side can
    /// copy the first side's merged state instead of re-running the
    /// O(m) combining pass. The caller guarantees `merged` is exactly
    /// `self_snapshot ∨ peer` for the peer snapshot `self` would have
    /// merged — i.e. neither filter changed between snapshot and
    /// merge. Counted as an M-merge in the profile: it *is* one,
    /// computed by copy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' parameters
    /// differ.
    pub fn m_merge_adopt(&mut self, merged: &Self) -> Result<(), Error> {
        self.check_compatible(merged)?;
        obs::count(Counter::TcbfMMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        self.adopt(merged);
        Ok(())
    }

    /// Becomes a copy of `merged` (counters, pending epoch, merged
    /// flag), reusing this filter's storage.
    fn adopt(&mut self, merged: &Self) {
        self.words.copy_from_slice(&merged.words);
        self.epoch = merged.epoch;
        self.merged = true;
    }

    /// Extracts a reusable sparse view: the materialized non-zero
    /// storage words with their indices, plus the merge-compat
    /// parameters. The view is a snapshot — it does not track later
    /// mutations of this filter — so it suits filters that are
    /// immutable after construction, like a consumer's genuine filter.
    #[must_use]
    pub fn to_sparse(&self) -> SparseTcbf<L> {
        let e = self.epoch;
        SparseTcbf {
            bits: self.bits,
            hashes: self.hashes,
            hasher: self.hasher,
            entries: self
                .words
                .iter()
                .enumerate()
                .filter_map(|(i, &w)| {
                    let m = L::sat_sub(w, e);
                    (m != L::Word::default()).then_some((i as u32, m))
                })
                .collect(),
        }
    }

    /// Shared merge loop, monomorphized per combiner so `op` inlines
    /// into a branchless, autovectorizable pass. When either side has
    /// a pending decay epoch, the fold happens *inside* the same pass
    /// (`(a ∸ e_a) op (b ∸ e_b)`) — the lazy decays cost one extra
    /// vector subtract here instead of their own O(m) walks.
    fn merge_with<F: Fn(L::Word, L::Word) -> L::Word>(&mut self, other: &Self, op: F) {
        let (se, oe) = (self.epoch, other.epoch);
        let pairs = self.words.iter_mut().zip(&other.words);
        match (se, oe) {
            (0, 0) => {
                for (a, &b) in pairs {
                    *a = op(*a, b);
                }
            }
            (0, _) => {
                for (a, &b) in pairs {
                    *a = op(*a, L::sat_sub(b, oe));
                }
            }
            (_, 0) => {
                for (a, &b) in pairs {
                    *a = op(L::sat_sub(*a, se), b);
                }
            }
            _ => {
                for (a, &b) in pairs {
                    *a = op(L::sat_sub(*a, se), L::sat_sub(b, oe));
                }
            }
        }
        self.epoch = 0;
        self.merged = true;
    }

    /// Decays the filter: every non-zero counter is decremented by
    /// `amount` (saturating); counters that reach zero reset their bit.
    ///
    /// This is the TCBF's only deletion mechanism ("temporal
    /// deletion"). Callers translate wall-clock time into an integer
    /// `amount` via the decaying factor; [`Decayer`] handles fractional
    /// DFs.
    ///
    /// Decay is *lazy*: this is an O(1) epoch bump, not a counter walk.
    /// Reads materialize `stored ∸ epoch` on the fly and merges fold
    /// the epoch into their combining pass — see the type-level docs.
    pub fn decay(&mut self, amount: u32) {
        if amount == 0 {
            return;
        }
        obs::count(Counter::TcbfDecay, 1);
        let _span = obs::span(TimeHist::DecayNs);
        let epoch = self.epoch.saturating_add(amount);
        if epoch >= L::MAX {
            // No counter exceeds the lane maximum, so this epoch wipes
            // them all: clear outright and keep the epoch in range.
            self.words.fill(L::Word::default());
            self.epoch = 0;
        } else {
            self.epoch = epoch;
        }
    }

    /// Folds the pending epoch into the stored counters (making the
    /// lazy representation eager again). O(m), called only where a
    /// stored-value invariant matters (insertion, narrow-lane sparse
    /// merges, saturating refreshes).
    fn flush_epoch(&mut self) {
        if self.epoch == 0 {
            return;
        }
        let e = self.epoch;
        for w in &mut self.words {
            *w = L::sat_sub(*w, e);
        }
        self.epoch = 0;
    }

    /// The materialized (epoch-adjusted) counter at bit `idx`.
    ///
    /// This is the batch-matching read path: a caller that derived a
    /// key's positions once (via [`crate::KeyHasher::digests`]) probes
    /// counters directly instead of re-hashing the key per filter.
    /// Uninstrumented, exactly like [`BloomFilter::contains`] — batch
    /// probing must not perturb the metrics of the per-key query path.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is past the counter array.
    #[must_use]
    pub fn counter_at(&self, idx: usize) -> u32 {
        L::get(&self.words, idx).saturating_sub(self.epoch)
    }

    /// Raises the counters at `positions` to at least `value` (capped
    /// at the lane maximum): each becomes `max(current, value)` on
    /// materialized values.
    ///
    /// Observationally identical to M-merging a fresh filter whose
    /// only key hashes to exactly `positions` with initial counter
    /// `value`, in O(k) instead of O(m). Unlike [`LaneTcbf::insert`],
    /// which keeps already-set counters (the paper's insertion rule),
    /// this *refreshes* decayed counters — the aggregation write path
    /// of `bsub-match`, where a tier filter must guarantee
    /// `min_counter ≥ value` over a member's positions even when an
    /// earlier subscriber set them and decay has since weakened them.
    /// Being an M-merge, it marks the filter merged.
    ///
    /// # Panics
    ///
    /// Panics if any position is past the counter array.
    pub fn refresh_positions<I: IntoIterator<Item = usize>>(&mut self, positions: I, value: u32) {
        if value == 0 {
            return;
        }
        // Store `max(materialized, value)` under the unchanged epoch:
        // `max(c ∸ e, v) = max(c, v + e) ∸ e` as long as `v + e` fits
        // a lane; flush first otherwise so the max lands on
        // materialized values.
        let value = value.min(L::MAX);
        if self.epoch > L::MAX - value {
            self.flush_epoch();
        }
        let target = value + self.epoch;
        for pos in positions {
            if L::get(&self.words, pos) < target {
                L::set(&mut self.words, pos, target);
            }
        }
        self.merged = true;
    }

    /// Materialized (epoch-adjusted) counter values, in bit order — the
    /// observable state of the filter. Allocation-free iterator; use
    /// [`LaneTcbf::counter_values`] for a `Vec`.
    pub fn iter_counters(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.bits).map(move |i| self.counter_at(i))
    }

    /// Existential query: `true` iff all hashed bits of the key have
    /// non-zero counters. Same false-positive behavior as the classic
    /// Bloom filter (Section IV-A).
    #[must_use]
    pub fn contains<K: AsRef<[u8]>>(&self, key: K) -> bool {
        self.min_counter(key) > 0
    }

    /// The minimum counter value over the key's hashed bits.
    ///
    /// Zero means the key is (definitely) not present. A non-zero value
    /// is the filter's "strength" for the key — how recently and how
    /// often it was reinforced — and is what preferential queries
    /// compare.
    #[must_use]
    pub fn min_counter<K: AsRef<[u8]>>(&self, key: K) -> u32 {
        obs::count(Counter::TcbfQuery, 1);
        self.hasher
            .positions(key.as_ref(), self.hashes, self.bits)
            .map(|pos| self.counter_at(pos))
            .min()
            .unwrap_or(0)
    }

    /// Preferential query (Section IV-A): the preference of `self` over
    /// `against` for `key`.
    ///
    /// With `f = self.min_counter(key)` and `g = against.min_counter(key)`:
    ///
    /// - if `g != 0`, the preference is the finite difference `f - g`;
    /// - if `g == 0`, the preference is `f` but marked *absolute*: the
    ///   other filter does not hold the key at all, so its owner is not
    ///   a carrier for it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' parameters
    /// differ.
    pub fn preference<K: AsRef<[u8]>>(&self, against: &Self, key: K) -> Result<Preference, Error> {
        self.check_compatible(against)?;
        obs::count(Counter::TcbfPreference, 1);
        let _span = obs::span(TimeHist::PreferenceNs);
        let key = key.as_ref();
        let f = i64::from(self.min_counter(key));
        let g = i64::from(against.min_counter(key));
        Ok(if g == 0 {
            Preference::Absolute(f)
        } else {
            Preference::Relative(f - g)
        })
    }

    /// Projects the TCBF to a plain [`BloomFilter`] by "ripping off the
    /// counters" (Section V-D): what a broker sends to a producer when
    /// requesting messages, to save bandwidth.
    #[must_use]
    pub fn to_bloom(&self) -> BloomFilter {
        let mut bits = BitVec::new(self.bits);
        for (i, c) in self.iter_counters().enumerate() {
            if c > 0 {
                bits.set(i);
            }
        }
        BloomFilter::from_parts(bits, self.hashes, self.hasher)
    }

    /// Length of the counter vector (the paper's `m`).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bits
    }

    /// Number of hash functions (the paper's `k`).
    #[must_use]
    pub fn hash_count(&self) -> usize {
        self.hashes
    }

    /// The insertion counter value `C`.
    #[must_use]
    pub fn initial_counter(&self) -> u32 {
        self.initial
    }

    /// Number of non-zero counters (set bits), counted word-wise.
    #[must_use]
    pub fn set_bits(&self) -> usize {
        let e = self.epoch;
        self.words
            .iter()
            .map(|&w| L::nonzero(L::sat_sub(w, e)) as usize)
            .sum()
    }

    /// Fill ratio: non-zero counters over total (Eq. 3).
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.set_bits() as f64 / self.bits as f64
    }

    /// Whether no counter is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let e = self.epoch;
        self.words
            .iter()
            .all(|&w| L::sat_sub(w, e) == L::Word::default())
    }

    /// Whether this filter has ever been the receiver of a merge (and
    /// therefore rejects direct insertion).
    #[must_use]
    pub fn is_merged(&self) -> bool {
        self.merged
    }

    /// Resets the filter to empty and never-merged.
    pub fn reset(&mut self) {
        self.words.fill(L::Word::default());
        self.epoch = 0;
        self.merged = false;
    }

    /// Largest counter value in the filter; zero if empty.
    #[must_use]
    pub fn max_counter_value(&self) -> u32 {
        self.iter_counters().max().unwrap_or(0)
    }

    /// The hasher used by this filter.
    #[must_use]
    pub fn hasher(&self) -> KeyHasher {
        self.hasher
    }

    /// Materialized counter values, indexed by bit position.
    ///
    /// Allocates; prefer [`LaneTcbf::iter_counters`] in hot paths.
    #[must_use]
    pub fn counter_values(&self) -> Vec<u32> {
        self.iter_counters().collect()
    }

    /// Heap bytes held by the counter array.
    #[must_use]
    pub fn counter_bytes(&self) -> usize {
        std::mem::size_of_val(self.words.as_slice())
    }

    /// Rebuilds a filter from raw materialized counters.
    ///
    /// This is the deserialization seam: `bsub_bloom::wire::decode`
    /// and the node-state snapshot codec in `bsub-core` use it to
    /// reconstruct a filter whose counters, insertion value `C`, and
    /// merged flag were recorded elsewhere. The counters are taken as
    /// already materialized (epoch zero), and values above the lane
    /// maximum saturate; behavior is identical to a filter that
    /// reached the same counter values through insert/merge/decay
    /// operations.
    #[must_use]
    pub fn from_parts(
        counters: Vec<u32>,
        hashes: usize,
        initial: u32,
        hasher: KeyHasher,
        merged: bool,
    ) -> Self {
        let mut words = vec![L::Word::default(); counters.len().div_ceil(L::PER_WORD)];
        for (i, &c) in counters.iter().enumerate() {
            L::set(&mut words, i, c.min(L::MAX));
        }
        Self {
            words,
            bits: counters.len(),
            epoch: 0,
            hashes,
            initial,
            hasher,
            merged,
        }
    }

    fn check_compatible(&self, other: &Self) -> Result<(), Error> {
        if self.bits != other.bits || self.hashes != other.hashes || self.hasher != other.hasher {
            return Err(Error::ParamMismatch {
                ours: (self.bits, self.hashes),
                theirs: (other.bits, other.hashes),
            });
        }
        Ok(())
    }
}

/// A pre-extracted sparse view of a [`LaneTcbf`]: its materialized
/// non-zero storage words with their indices, and the parameters
/// another filter must share to merge with it. Built with
/// [`LaneTcbf::to_sparse`], consumed by [`LaneTcbf::a_merge_sparse`].
///
/// The point is asymptotic: a consumer's genuine filter sets
/// `interests × k` counters out of `m`, so reinforcing a broker's
/// relay through the sparse view costs O(set bits) per meeting rather
/// than a full O(m) counter pass. With 32-bit lanes an entry is one
/// counter; with 4-bit lanes it is a word of sixteen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseTcbf<L: Lanes = Lane32> {
    bits: usize,
    hashes: usize,
    hasher: KeyHasher,
    /// Materialized `(word index, word)` pairs, ascending by index.
    entries: Vec<(u32, L::Word)>,
}

impl<L: Lanes> SparseTcbf<L> {
    /// Number of non-zero counters in the view.
    #[must_use]
    pub fn set_bits(&self) -> usize {
        self.entries
            .iter()
            .map(|&(_, w)| L::nonzero(w) as usize)
            .sum()
    }

    /// Number of stored words: the source filter's non-zero words (its
    /// set bits, with 32-bit lanes).
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.entries.len()
    }
}

/// Result of a preferential query ([`Tcbf::preference`]).
///
/// Ordered so that any [`Preference::Absolute`] with a positive value
/// beats any [`Preference::Relative`]: a carrier that holds the key
/// when the other does not is always preferred, matching the paper's
/// "the preference is `f` when `g` equals 0" rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preference {
    /// Both filters hold the key; the value is `f - g`.
    Relative(i64),
    /// Only `self` may hold the key (`g == 0`); the value is `f`.
    Absolute(i64),
}

impl Preference {
    /// Whether this preference is strictly positive — i.e. the queried
    /// filter's owner is a *better* carrier. B-SUB forwards only
    /// messages with positive preference (Section V-D).
    #[must_use]
    pub fn is_positive(&self) -> bool {
        match self {
            Preference::Relative(v) | Preference::Absolute(v) => *v > 0,
        }
    }

    /// A sort key: absolute preferences rank above all relative ones,
    /// then by value. Messages with the largest positive preference are
    /// forwarded first.
    #[must_use]
    pub fn rank(&self) -> (u8, i64) {
        match self {
            Preference::Relative(v) => (0, *v),
            Preference::Absolute(v) => (1, *v),
        }
    }
}

impl PartialOrd for Preference {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Preference {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// Translates a fractional decaying factor into integer decay amounts.
///
/// The paper expresses the DF in counter units per minute (Fig. 9's
/// x-axis runs from 0 to 2.0 per minute, and the "best granularity" of
/// a 1-byte counter over 24 h is one decrement per 5.6 min). Counters
/// are integers, so a `Decayer` accumulates the exact product
/// `DF × elapsed` and releases its integer part, carrying the
/// fractional remainder — no decay is ever lost or double-applied.
///
/// # Examples
///
/// ```
/// use bsub_bloom::Decayer;
///
/// let mut d = Decayer::new(0.4); // 0.4 counter units per minute
/// assert_eq!(d.advance(1.0), 0); // 0.4 accumulated
/// assert_eq!(d.advance(2.0), 1); // 1.2 -> release 1, keep 0.2
/// assert_eq!(d.advance(2.0), 1); // 1.0 -> release 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Decayer {
    rate_per_min: f64,
    residual: f64,
}

impl Decayer {
    /// Creates a decayer with the given DF in counter units per minute.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_min` is negative or not finite.
    #[must_use]
    pub fn new(rate_per_min: f64) -> Self {
        assert!(
            rate_per_min >= 0.0 && rate_per_min.is_finite(),
            "decaying factor must be a finite non-negative rate"
        );
        Self {
            rate_per_min,
            residual: 0.0,
        }
    }

    /// The decaying factor, in counter units per minute.
    #[must_use]
    pub fn rate_per_min(&self) -> f64 {
        self.rate_per_min
    }

    /// Changes the decaying factor, keeping the accumulated fractional
    /// residual. B-SUB's online DF adaptation (Section VI-B: "we can
    /// tentatively adjust the DF, then re-adjust its value") uses this
    /// as contact rates drift.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_min` is negative or not finite.
    pub fn set_rate_per_min(&mut self, rate_per_min: f64) {
        assert!(
            rate_per_min >= 0.0 && rate_per_min.is_finite(),
            "decaying factor must be a finite non-negative rate"
        );
        self.rate_per_min = rate_per_min;
    }

    /// The accumulated fractional decay not yet released by
    /// [`Decayer::advance`], in `[0, 1)` counter units.
    ///
    /// Exposed so a decayer can be serialized exactly: reconstructing
    /// via [`Decayer::restore`] with this value reproduces the same
    /// future release schedule bit-for-bit.
    #[must_use]
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Rebuilds a decayer from a rate and a previously observed
    /// [`Decayer::residual`] — the deserialization counterpart of the
    /// accessor pair.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_min` is negative or not finite, or if
    /// `residual` is not in `[0, 1)`.
    #[must_use]
    pub fn restore(rate_per_min: f64, residual: f64) -> Self {
        let mut d = Self::new(rate_per_min);
        assert!(
            (0.0..1.0).contains(&residual),
            "residual must be a fraction in [0, 1)"
        );
        d.residual = residual;
        d
    }

    /// Advances time by `minutes` and returns the integer decay amount
    /// to apply via [`Tcbf::decay`].
    pub fn advance(&mut self, minutes: f64) -> u32 {
        debug_assert!(minutes >= 0.0, "time cannot flow backwards");
        self.residual += self.rate_per_min * minutes;
        let whole = self.residual.floor();
        self.residual -= whole;
        // Counters saturate at u32 range anyway; clamp the release.
        whole.min(f64::from(u32::MAX)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::packed::Lane4;

    fn tcbf() -> Tcbf {
        Tcbf::new(256, 4, 10)
    }

    #[test]
    fn insert_sets_counters_to_initial() {
        fn check<L: Lanes>() {
            let mut f = LaneTcbf::<L>::new(256, 4, 10);
            f.insert("k0").unwrap();
            assert_eq!(f.min_counter("k0"), 10);
            assert!(f.contains("k0"));
        }
        check::<Lane32>();
        check::<Lane4>();
    }

    #[test]
    fn reinsert_does_not_change_set_counters() {
        // Section IV-A: "If the counter has already been set, we do not
        // change its value."
        fn check<L: Lanes>() {
            let mut f = LaneTcbf::<L>::new(256, 4, 10);
            f.insert("k0").unwrap();
            f.insert("k0").unwrap();
            assert_eq!(f.min_counter("k0"), 10);
            assert_eq!(f.max_counter_value(), 10);
        }
        check::<Lane32>();
        check::<Lane4>();
    }

    #[test]
    fn counter_at_matches_iter_counters_under_lazy_decay() {
        let mut f = Tcbf::from_keys(64, 4, 10, ["a", "b", "c"]);
        f.decay(3);
        let eager: Vec<u32> = f.iter_counters().collect();
        for (i, &c) in eager.iter().enumerate() {
            assert_eq!(f.counter_at(i), c);
        }
    }

    #[test]
    fn refresh_positions_equals_m_merge_with_singleton() {
        // refresh = M-merge with a fresh one-key filter at counter v,
        // across decay states on the receiver.
        for receiver_decay in [0u32, 4, 9, 15] {
            let mut merged = Tcbf::from_keys(256, 4, 10, ["a", "b"]);
            merged.decay(receiver_decay);
            let mut refreshed = merged.clone();

            let single = Tcbf::from_keys(256, 4, 7, ["c"]);
            merged.m_merge(&single).unwrap();

            let positions: Vec<usize> = refreshed.hasher().positions(b"c", 4, 256).collect();
            refreshed.refresh_positions(positions.iter().copied(), 7);

            assert_eq!(refreshed, merged, "receiver_decay={receiver_decay}");
            assert!(refreshed.is_merged());
            assert!(refreshed.min_counter("c") >= 7);
        }
    }

    #[test]
    fn refresh_positions_raises_decayed_counters() {
        let mut f = Tcbf::from_keys(256, 4, 10, ["k"]);
        f.decay(8);
        assert_eq!(f.min_counter("k"), 2);
        let positions: Vec<usize> = f.hasher().positions(b"k", 4, 256).collect();
        f.refresh_positions(positions, 10);
        assert_eq!(f.min_counter("k"), 10);
    }

    #[test]
    fn refresh_positions_never_lowers() {
        let mut f = Tcbf::from_keys(256, 4, 10, ["k"]);
        let positions: Vec<usize> = f.hasher().positions(b"k", 4, 256).collect();
        f.refresh_positions(positions, 3);
        assert_eq!(f.min_counter("k"), 10, "refresh keeps the larger value");
    }

    #[test]
    fn refresh_positions_zero_value_is_noop() {
        let mut f = Tcbf::from_keys(256, 4, 10, ["k"]);
        let before = f.clone();
        f.refresh_positions(0..4, 0);
        assert_eq!(f, before);
        assert!(!f.is_merged());
    }

    #[test]
    fn fresh_filter_has_uniform_counters() {
        let mut f = tcbf();
        for k in ["a", "b", "c", "d"] {
            f.insert(k).unwrap();
        }
        for c in f.counter_values() {
            assert!(c == 0 || c == 10);
        }
    }

    #[test]
    fn insert_after_merge_rejected() {
        fn check<L: Lanes>() {
            let mut f = LaneTcbf::<L>::new(256, 4, 10);
            let other = LaneTcbf::<L>::from_keys(256, 4, 10, ["x"]);
            f.a_merge(&other).unwrap();
            assert!(f.is_merged());
            assert_eq!(f.insert("y"), Err(Error::InsertAfterMerge));
        }
        check::<Lane32>();
        check::<Lane4>();
    }

    #[test]
    fn paper_insert_into_merged_workflow() {
        // "In order to insert multiple keys into a merged filter, we
        // first insert the keys into an empty TCBF, then merge."
        let mut merged = tcbf();
        merged
            .a_merge(&Tcbf::from_keys(256, 4, 10, ["old"]))
            .unwrap();
        let fresh = Tcbf::from_keys(256, 4, 10, ["new"]);
        merged.a_merge(&fresh).unwrap();
        assert!(merged.contains("old"));
        assert!(merged.contains("new"));
    }

    #[test]
    fn a_merge_adds_counters() {
        // Fig. 3: A-merge of two filters holding {k0} and {k1}, both at
        // 10, yields k0/k1-only bits at 10 and shared bits at 20.
        let f0 = Tcbf::from_keys(256, 4, 10, ["k0"]);
        let f1 = Tcbf::from_keys(256, 4, 10, ["k1"]);
        let mut m = f0.clone();
        m.a_merge(&f1).unwrap();
        assert!(m.contains("k0") && m.contains("k1"));
        // Each counter is 10 (unshared bit) or 20 (shared bit).
        for c in m.counter_values() {
            assert!(c == 0 || c == 10 || c == 20, "counter {c}");
        }
    }

    #[test]
    fn m_merge_takes_maximum() {
        // Fig. 3: M-merge of the same two filters keeps all counters at
        // 10 — no bogus inflation.
        let f0 = Tcbf::from_keys(256, 4, 10, ["k0"]);
        let f1 = Tcbf::from_keys(256, 4, 10, ["k1"]);
        let mut m = f0.clone();
        m.m_merge(&f1).unwrap();
        assert!(m.contains("k0") && m.contains("k1"));
        assert_eq!(m.max_counter_value(), 10);
    }

    #[test]
    fn m_merge_prevents_bogus_counters() {
        // Fig. 6 scenario: two brokers repeatedly exchanging relay
        // filters must not inflate each other's counters.
        let seed = Tcbf::from_keys(256, 4, 10, ["a-interest"]);
        let mut broker_b = Tcbf::new(256, 4, 10);
        let mut broker_c = Tcbf::new(256, 4, 10);
        broker_b.a_merge(&seed).unwrap();
        for _ in 0..100 {
            broker_c.m_merge(&broker_b).unwrap();
            broker_b.m_merge(&broker_c).unwrap();
        }
        assert_eq!(broker_b.min_counter("a-interest"), 10);
        assert_eq!(broker_c.min_counter("a-interest"), 10);
        // With A-merge instead, the counters would explode:
        let mut bogus_b = Tcbf::new(256, 4, 10);
        let mut bogus_c = Tcbf::new(256, 4, 10);
        bogus_b.a_merge(&seed).unwrap();
        for _ in 0..5 {
            bogus_c.a_merge(&bogus_b).unwrap();
            bogus_b.a_merge(&bogus_c).unwrap();
        }
        assert!(bogus_b.min_counter("a-interest") > 100);
    }

    #[test]
    fn decay_removes_expired_keys() {
        // Fig. 4: keys decay out unless reinforced.
        let mut f = tcbf();
        f.insert("fleeting").unwrap();
        f.decay(9);
        assert!(f.contains("fleeting"));
        f.decay(1);
        assert!(!f.contains("fleeting"));
        assert!(f.is_empty());
    }

    #[test]
    fn decay_zero_is_noop() {
        let mut f = Tcbf::from_keys(256, 4, 10, ["k"]);
        let before = f.clone();
        f.decay(0);
        assert_eq!(f, before);
    }

    #[test]
    fn decay_saturates_at_zero() {
        let mut f = Tcbf::from_keys(256, 4, 10, ["k"]);
        f.decay(1000);
        assert!(f.is_empty());
        assert_eq!(f.max_counter_value(), 0);
    }

    #[test]
    fn reinforcement_extends_lifetime() {
        // The decaying-and-reinforcement mechanism: a consumer met
        // twice survives decay that expires a consumer met once.
        let once = Tcbf::from_keys(256, 4, 10, ["rare"]);
        let twice = Tcbf::from_keys(256, 4, 10, ["frequent"]);
        let mut relay = Tcbf::new(256, 4, 10);
        relay.a_merge(&once).unwrap();
        relay.a_merge(&twice).unwrap();
        relay.a_merge(&twice).unwrap();
        relay.decay(15);
        assert!(!relay.contains("rare"));
        assert!(relay.contains("frequent"));
    }

    #[test]
    fn existential_query_no_false_negatives() {
        let mut f = Tcbf::new(1024, 4, 5);
        let keys: Vec<String> = (0..40).map(|i| format!("k{i}")).collect();
        for k in &keys {
            f.insert(k).unwrap();
        }
        for k in &keys {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn preference_relative() {
        let mut strong = Tcbf::new(256, 4, 10);
        let mut weak = Tcbf::new(256, 4, 10);
        let genuine = Tcbf::from_keys(256, 4, 10, ["topic"]);
        strong.a_merge(&genuine).unwrap();
        strong.a_merge(&genuine).unwrap(); // counter 20
        weak.a_merge(&genuine).unwrap(); // counter 10
        let p = strong.preference(&weak, "topic").unwrap();
        assert_eq!(p, Preference::Relative(10));
        assert!(p.is_positive());
        let q = weak.preference(&strong, "topic").unwrap();
        assert_eq!(q, Preference::Relative(-10));
        assert!(!q.is_positive());
    }

    #[test]
    fn preference_absolute_when_other_lacks_key() {
        let holder = Tcbf::from_keys(256, 4, 10, ["topic"]);
        let empty = Tcbf::new(256, 4, 10);
        let p = holder.preference(&empty, "topic").unwrap();
        assert_eq!(p, Preference::Absolute(10));
        assert!(p.is_positive());
        // Neither holds it: absolute zero, not positive.
        let z = empty.preference(&empty.clone(), "topic").unwrap();
        assert_eq!(z, Preference::Absolute(0));
        assert!(!z.is_positive());
    }

    #[test]
    fn preference_ordering_absolute_beats_relative() {
        assert!(Preference::Absolute(1) > Preference::Relative(100));
        assert!(Preference::Relative(5) > Preference::Relative(3));
        assert!(Preference::Absolute(7) > Preference::Absolute(2));
    }

    #[test]
    fn to_bloom_rips_counters() {
        let f = Tcbf::from_keys(256, 4, 10, ["x", "y"]);
        let b = f.to_bloom();
        assert!(b.contains("x") && b.contains("y"));
        assert_eq!(b.set_bits(), f.set_bits());
    }

    #[test]
    fn merge_param_mismatch() {
        fn check<L: Lanes>() {
            let mut a = LaneTcbf::<L>::new(256, 4, 10);
            let b = LaneTcbf::<L>::new(128, 4, 10);
            assert!(matches!(a.a_merge(&b), Err(Error::ParamMismatch { .. })));
            assert!(matches!(a.m_merge(&b), Err(Error::ParamMismatch { .. })));
            assert!(a.preference(&b, "k").is_err());
        }
        check::<Lane32>();
        check::<Lane4>();
    }

    #[test]
    fn differing_initial_counters_still_merge() {
        let mut a = Tcbf::new(256, 4, 10);
        let b = Tcbf::from_keys(256, 4, 50, ["k"]);
        a.a_merge(&b).unwrap();
        assert_eq!(a.min_counter("k"), 50);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut f = tcbf();
        f.a_merge(&Tcbf::from_keys(256, 4, 10, ["k"])).unwrap();
        f.reset();
        assert!(f.is_empty());
        assert!(!f.is_merged());
        f.insert("again").unwrap();
        assert!(f.contains("again"));
    }

    #[test]
    fn fig4_timeline() {
        // Fig. 4's concept: k0 inserted repeatedly outlives k1, k2
        // inserted once. Initial value 10, DF 1 per unit time. We model
        // the timeline with fresh filters merged in (insertion into a
        // merged filter is not allowed).
        let mut f = Tcbf::new(256, 2, 10);
        let ins = |key: &str| Tcbf::from_keys(256, 2, 10, [key]);
        f.m_merge(&ins("k0")).unwrap(); // t=0
        f.decay(1);
        f.m_merge(&ins("k1")).unwrap(); // t=1
        f.decay(1);
        f.m_merge(&ins("k2")).unwrap(); // t=2
                                        // decay to t=10: k1 inserted at t=1 has counter 10-9=1, k2 has 2.
        f.decay(8);
        f.m_merge(&ins("k0")).unwrap(); // k0 refreshed at t=10
        f.decay(9); // t=19
        assert!(f.contains("k0"), "k0 was refreshed and survives");
        assert!(!f.contains("k1"), "k1 decayed away");
        assert!(!f.contains("k2"), "k2 decayed away");
    }

    #[test]
    fn decayer_accumulates_fractions() {
        let mut d = Decayer::new(0.25);
        let mut total = 0u32;
        for _ in 0..16 {
            total += d.advance(1.0);
        }
        assert_eq!(total, 4, "0.25/min over 16 min is exactly 4");
    }

    #[test]
    fn decayer_zero_rate_never_decays() {
        let mut d = Decayer::new(0.0);
        assert_eq!(d.advance(1e9), 0);
    }

    #[test]
    fn decayer_large_step() {
        let mut d = Decayer::new(2.0);
        assert_eq!(d.advance(600.0), 1200);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn decayer_rejects_negative_rate() {
        let _ = Decayer::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_initial_counter_panics() {
        let _ = Tcbf::new(256, 4, 0);
    }

    #[test]
    fn decay_is_lazy_but_observably_eager() {
        // The epoch offset must be invisible: every read path reports
        // the same values an eager per-counter walk would.
        let mut lazy = Tcbf::from_keys(256, 4, 10, ["a", "b", "c"]);
        lazy.a_merge(&Tcbf::from_keys(256, 4, 10, ["a"])).unwrap();
        let mut eager = lazy.clone();
        lazy.decay(4);
        lazy.decay(3);
        eager.flush_epoch(); // no-op, epoch 0
        for c in &mut eager.words {
            *c = c.saturating_sub(4);
        }
        for c in &mut eager.words {
            *c = c.saturating_sub(3);
        }
        assert!(lazy.epoch > 0, "decay must not have walked the array");
        assert_eq!(lazy, eager);
        assert_eq!(lazy.counter_values(), eager.counter_values());
        assert_eq!(lazy.set_bits(), eager.set_bits());
        assert_eq!(lazy.max_counter_value(), eager.max_counter_value());
        assert_eq!(lazy.min_counter("a"), eager.min_counter("a"));
        assert_eq!(lazy.to_bloom(), eager.to_bloom());
    }

    #[test]
    fn merge_folds_pending_epochs() {
        // Decayed filters on both sides of a merge must combine their
        // *materialized* values (the fused pass folds both pending
        // epochs); only observable values are asserted.
        let mut a = Tcbf::new(256, 4, 10);
        a.a_merge(&Tcbf::from_keys(256, 4, 10, ["k"])).unwrap();
        a.decay(3); // k at 7
        let mut b = Tcbf::new(256, 4, 10);
        b.a_merge(&Tcbf::from_keys(256, 4, 10, ["k"])).unwrap();
        b.decay(8); // k at 2
        let mut sum = a.clone();
        sum.a_merge(&b).unwrap();
        assert_eq!(sum.min_counter("k"), 9);
        let mut max = a.clone();
        max.m_merge(&b).unwrap();
        assert_eq!(max.min_counter("k"), 7);
        // Post-merge decay still applies on top.
        sum.decay(2);
        assert_eq!(sum.min_counter("k"), 7);
    }

    #[test]
    fn merge_near_u32_max_with_pending_epoch_stays_exact() {
        // Saturation at the top of the counter range must commute
        // with the lazy epoch: the fused merge materializes both
        // sides before combining, so a sum clamped at `u32::MAX`
        // stores exactly `u32::MAX`. Drive a filter there with a huge
        // initial counter and check against the eager expectation.
        let big = u32::MAX - 2;
        let mut f = Tcbf::new(64, 2, big);
        f.insert("k").unwrap();
        f.decay(5);
        // Materialized value: MAX - 7. A-merging another `big` filter
        // saturates the sum at MAX, which cannot be stored as
        // `MAX + 5`.
        f.a_merge(&Tcbf::from_keys(64, 2, big, ["k"])).unwrap();
        assert_eq!(f.min_counter("k"), u32::MAX);
        // Later decays still subtract exactly.
        f.decay(7);
        assert_eq!(f.min_counter("k"), u32::MAX - 7);
    }

    #[test]
    fn insert_after_decay_uses_materialized_state() {
        // A decayed-to-zero counter counts as unset again, and the new
        // insertion lands exactly at C — the epoch must not eat it.
        let mut f = tcbf();
        f.insert("gone").unwrap();
        f.decay(10);
        assert!(!f.contains("gone"));
        f.insert("gone").unwrap();
        assert_eq!(f.min_counter("gone"), 10);
    }

    #[test]
    fn m_merge_keeps_common_epoch_lazy() {
        // Max commutes with a shared saturating offset, so an M-merge
        // only equalizes the two epochs: min(e, f) must survive the
        // merge as pending decay, with materialized values identical
        // to the eager computation.
        let mut a = Tcbf::new(256, 4, 10);
        a.a_merge(&Tcbf::from_keys(256, 4, 10, ["ka", "shared"]))
            .unwrap();
        a.decay(4);
        let mut b = Tcbf::new(256, 4, 10);
        b.a_merge(&Tcbf::from_keys(256, 4, 10, ["kb", "shared"]))
            .unwrap();
        b.a_merge(&Tcbf::from_keys(256, 4, 10, ["shared"])).unwrap();
        b.decay(7);

        // Eager expectation on materialized values.
        let eager: Vec<u32> = a
            .iter_counters()
            .zip(b.iter_counters())
            .map(|(x, y)| x.max(y))
            .collect();
        let mut m = a.clone();
        m.m_merge(&b).unwrap();
        assert_eq!(m.epoch, 4, "common epoch part must stay pending");
        assert_eq!(m.counter_values(), eager);
        // And the mirror direction, with the larger epoch on self.
        let mut m2 = b.clone();
        m2.m_merge(&a).unwrap();
        assert_eq!(m2.epoch, 4);
        assert_eq!(m2.counter_values(), eager);
    }

    #[test]
    fn sparse_a_merge_with_pending_epoch_avoids_flush() {
        // The sparse add stores `max(a, e) + v` under the unchanged
        // epoch instead of flushing — observably identical to the
        // dense merge, with the decay still pending afterwards.
        let genuine = Tcbf::from_keys(256, 4, 10, ["g"]);
        let mut relay = Tcbf::new(256, 4, 10);
        relay
            .a_merge(&Tcbf::from_keys(256, 4, 10, ["g", "other"]))
            .unwrap();
        relay.decay(6);
        let mut dense = relay.clone();
        relay.a_merge_sparse(&genuine.to_sparse()).unwrap();
        dense.a_merge(&genuine).unwrap();
        assert_eq!(relay.epoch, 6, "epoch must survive the sparse add");
        assert_eq!(relay, dense);
        assert_eq!(relay.counter_values(), dense.counter_values());
        // Later decay applies on top of the preserved epoch.
        relay.decay(5);
        dense.decay(5);
        assert_eq!(relay.counter_values(), dense.counter_values());
    }

    #[test]
    fn sparse_a_merge_near_saturation_falls_back_exactly() {
        // When `max(a, e) + v` would overflow u32, the sparse path
        // must flush and saturate on materialized values, exactly
        // like the dense merge.
        let big = u32::MAX - 2;
        let genuine = Tcbf::from_keys(64, 2, big, ["k"]);
        let mut relay = Tcbf::new(64, 2, big);
        relay.a_merge(&genuine).unwrap();
        relay.decay(5); // materialized MAX - 7, epoch pending
        let mut dense = relay.clone();
        relay.a_merge_sparse(&genuine.to_sparse()).unwrap();
        dense.a_merge(&genuine).unwrap();
        assert_eq!(relay.min_counter("k"), u32::MAX);
        assert_eq!(relay.counter_values(), dense.counter_values());
        relay.decay(9);
        dense.decay(9);
        assert_eq!(relay.counter_values(), dense.counter_values());
    }

    #[test]
    fn sparse_a_merge_matches_dense() {
        // The sparse fast path must be observably identical to the
        // dense A-merge, including with pending epochs on the
        // receiver and a decayed source. On 4-bit lanes the shared
        // bits saturate (7 + 10 > 15).
        fn check<L: Lanes>() {
            let genuine = LaneTcbf::<L>::from_keys(256, 4, 10, ["a", "b", "c"]);
            let sparse = genuine.to_sparse();
            assert_eq!(sparse.set_bits(), genuine.set_bits());
            let mut relay = LaneTcbf::<L>::new(256, 4, 10);
            relay
                .a_merge(&LaneTcbf::<L>::from_keys(256, 4, 10, ["a"]))
                .unwrap();
            relay.decay(3); // pending epoch on the receiver
            let mut dense = relay.clone();
            relay.a_merge_sparse(&sparse).unwrap();
            dense.a_merge(&genuine).unwrap();
            assert_eq!(relay, dense);
            assert_eq!(relay.counter_values(), dense.counter_values());
        }
        check::<Lane32>();
        check::<Lane4>();
    }

    #[test]
    fn sparse_view_of_decayed_filter_is_materialized() {
        let mut f = Tcbf::from_keys(256, 4, 10, ["x", "y"]);
        f.decay(4);
        let sparse = f.to_sparse();
        let mut via_sparse = Tcbf::new(256, 4, 10);
        via_sparse.a_merge_sparse(&sparse).unwrap();
        let mut via_dense = Tcbf::new(256, 4, 10);
        via_dense.a_merge(&f).unwrap();
        assert_eq!(via_sparse, via_dense);
        assert_eq!(via_sparse.min_counter("x"), 6);
    }

    #[test]
    fn sparse_merge_param_mismatch() {
        let genuine = Tcbf::from_keys(128, 4, 10, ["a"]);
        let mut relay = Tcbf::new(256, 4, 10);
        assert!(matches!(
            relay.a_merge_sparse(&genuine.to_sparse()),
            Err(Error::ParamMismatch { .. })
        ));
    }

    #[test]
    fn merge_adopt_matches_second_direction_merge() {
        // The broker-exchange shortcut: after a merges b's snapshot,
        // b adopting a's result must equal b merging a's snapshot —
        // for both rules, and with pending epochs on both sides.
        for additive in [false, true] {
            let mut a = Tcbf::new(256, 4, 10);
            a.a_merge(&Tcbf::from_keys(256, 4, 10, ["a1", "shared"]))
                .unwrap();
            a.decay(2);
            let mut b = Tcbf::new(256, 4, 10);
            b.a_merge(&Tcbf::from_keys(256, 4, 10, ["b1", "shared"]))
                .unwrap();
            b.a_merge(&Tcbf::from_keys(256, 4, 10, ["shared"])).unwrap();
            b.decay(5);

            let (snap_a, snap_b) = (a.clone(), b.clone());
            let mut b_expected = b.clone();
            if additive {
                a.a_merge(&snap_b).unwrap();
                b_expected.a_merge(&snap_a).unwrap();
                b.a_merge_adopt(&a).unwrap();
            } else {
                a.m_merge(&snap_b).unwrap();
                b_expected.m_merge(&snap_a).unwrap();
                b.m_merge_adopt(&a).unwrap();
            }
            assert_eq!(b, b_expected, "additive={additive}");
            assert_eq!(b.counter_values(), b_expected.counter_values());
        }
    }

    #[test]
    fn merge_adopt_counts_as_merge() {
        bsub_obs::start();
        let mut a = Tcbf::new(256, 4, 10);
        a.m_merge(&Tcbf::from_keys(256, 4, 10, ["k"])).unwrap();
        let mut b = Tcbf::new(256, 4, 10);
        b.m_merge_adopt(&a).unwrap();
        let genuine = Tcbf::from_keys(256, 4, 10, ["g"]);
        b.a_merge_sparse(&genuine.to_sparse()).unwrap();
        let report = bsub_obs::finish();
        assert_eq!(report.counter(Counter::TcbfMMerge), 2);
        assert_eq!(report.counter(Counter::TcbfAMerge), 1);
        assert_eq!(report.time_hist(TimeHist::MergeNs).count(), 3);
    }

    #[test]
    fn profiling_counts_tcbf_hot_paths() {
        bsub_obs::start();
        let mut a = Tcbf::from_keys(256, 4, 10, ["x", "y"]);
        let b = Tcbf::from_keys(256, 4, 10, ["x"]);
        a.a_merge(&b).unwrap();
        let mut m = Tcbf::new(256, 4, 10);
        m.m_merge(&b).unwrap();
        a.decay(1);
        a.decay(0); // zero decay is a no-op and must not be counted
        let _ = a.contains("x");
        let _ = a.preference(&b, "x").unwrap();
        let report = bsub_obs::finish();
        assert_eq!(report.counter(Counter::TcbfInsert), 3);
        assert_eq!(report.counter(Counter::TcbfAMerge), 1);
        assert_eq!(report.counter(Counter::TcbfMMerge), 1);
        assert_eq!(report.counter(Counter::TcbfDecay), 1);
        // contains → 1 query; preference → 2 more via min_counter.
        assert_eq!(report.counter(Counter::TcbfQuery), 3);
        assert_eq!(report.counter(Counter::TcbfPreference), 1);
        assert_eq!(report.time_hist(TimeHist::MergeNs).count(), 2);
    }

    // ---- 4-bit lanes only ----

    type Tcbf4 = LaneTcbf<Lane4>;

    #[test]
    fn lane4_merge_decay_query_cycle() {
        let mut relay = Tcbf4::new(256, 4, 5);
        let consumer = Tcbf4::from_keys(256, 4, 5, ["t"]);
        relay.a_merge(&consumer).unwrap();
        relay.a_merge(&consumer).unwrap();
        relay.a_merge(&consumer).unwrap();
        assert_eq!(relay.min_counter("t"), 15, "saturates at the lane max");
        relay.decay(14);
        assert!(relay.contains("t"));
        relay.decay(1);
        assert!(relay.is_empty());
        assert_eq!(relay.epoch, 0, "full decay clears instead of epoching");
    }

    #[test]
    #[should_panic(expected = "1..=15")]
    fn lane4_oversized_initial_rejected() {
        let _ = Tcbf4::new(256, 4, 16);
    }

    #[test]
    fn lane4_sparse_merge_folds_pending_epoch() {
        let src = Tcbf4::from_keys(256, 4, 5, ["s"]);
        let mut decayed = Tcbf4::from_keys(256, 4, 9, ["s"]);
        decayed.decay(3); // pending epoch, not yet materialized
        let mut dense = decayed.clone();
        dense.a_merge(&src).unwrap();
        decayed.a_merge_sparse(&src.to_sparse()).unwrap();
        assert_eq!(decayed, dense);
        assert_eq!(decayed.min_counter("s"), 11, "9 - 3 + 5");
        assert_eq!(decayed.epoch, 0, "narrow lanes fold the epoch first");
    }

    #[test]
    fn lane4_sparse_view_skips_zero_words() {
        let f = Tcbf4::from_keys(8192, 4, 5, ["only-key"]);
        let sparse = f.to_sparse();
        assert!(sparse.word_count() <= 4, "one key sets at most k words");
        assert_eq!(sparse.set_bits(), f.set_bits());
        let mut rebuilt = Tcbf4::new(8192, 4, 5);
        rebuilt.a_merge_sparse(&sparse).unwrap();
        assert_eq!(rebuilt.min_counter("only-key"), 5);
    }

    #[test]
    fn lane4_non_multiple_of_16_bits() {
        let mut f = Tcbf4::new(300, 3, 7);
        f.insert("odd").unwrap();
        assert!(f.contains("odd"));
        assert_eq!(f.counter_values().len(), 300);
        assert_eq!(f.counter_bytes(), 19 * 8);
    }

    #[test]
    fn lane4_from_parts_saturates_and_round_trips() {
        let f = Tcbf4::from_keys(64, 2, 9, ["k"]);
        let rebuilt = Tcbf4::from_parts(f.counter_values(), 2, 9, f.hasher(), false);
        assert_eq!(rebuilt, f);
        let big = Tcbf4::from_parts(vec![40; 64], 2, 9, KeyHasher::default(), true);
        assert_eq!(big.max_counter_value(), 15);
    }
}
