//! The tiered subscription-aggregation and batch-matching index.
//!
//! # Model
//!
//! A broker aggregates per-subscriber interest filters into **tiers**
//! of at most [`MatchParams::tier_size`] subscribers. Each tier owns a
//! [`TcbfPool`] (the Section VI-D dynamic allocator) holding the
//! max-merge union of its members' keys **in the member geometry** —
//! the paper's M-merge is only defined over identical geometries, and
//! sharing the geometry is also what makes pruning exact (see below).
//! Each subscriber is stored as a compact filter: the sorted union of
//! its keys' bit positions plus a birth epoch. A subscriber's
//! materialized counter is uniform — `C ∸ (E − born)` — because
//! per-subscriber filters are never merged after construction, so the
//! sparse form is *exactly* the dense TCBF a consumer would have built
//! (the property suite pins this against [`bsub_bloom::Tcbf`]
//! directly).
//!
//! # Batch matching
//!
//! [`MatchIndex::match_events`] hashes each event key **once** (two
//! 64-bit digests), derives one position set per event, and walks the
//! tier hierarchy: an event only reaches a tier's members when the
//! tier pool reports its key present. The final, exact confirmation
//! probes the individual subscriber filter — the same predicate the
//! naive reference scan evaluates — so the index returns *identical*
//! matches to the reference, Bloom false positives included.
//!
//! Between the two sits a **position signature**: each tier keeps, slot
//! for slot with its member ids, a 64-bit word per member — the OR of
//! `1 << (p & 63)` over the member's positions. The event's `k`
//! positions fold into a mask the same way, and a member is confirmed
//! only when `sig & mask == mask`. The check is exact: if every event
//! position lies in the member's set, every mask bit is set in its
//! signature, so it only rejects members the confirmation would reject.
//!
//! # The no-false-negative invariant
//!
//! Tier pruning is sound because every tier pool is a counterwise
//! superset of its live members *in the same geometry*:
//!
//! 1. Tier pools share the member geometry `(m, k)`, so a key's pool
//!    positions equal its member positions. Subscribing reinforces
//!    every member key into the tier pool at the member's full counter
//!    `C` ([`TcbfPool::reinforce`] guarantees `min_counter ≥ C`
//!    afterwards) — covering the member's entire position set.
//! 2. Decay is applied to tiers and members in lock-step, and uniform
//!    saturating decay commutes with the counterwise maximum, so the
//!    superset relation survives every epoch.
//! 3. Unsubscribe and expiry only *remove* members (tombstones); the
//!    pool temporarily over-approximates, which costs candidate
//!    probes, never misses. Compaction rebuilds the pool from live
//!    members at their current strengths.
//!
//! Two details are load-bearing, both forced by member-level *false
//! positives* (which the reference scan reports as matches and the
//! index must therefore report too):
//!
//! - **Shared geometry.** A member accepts a key — even a phantom key
//!   it never subscribed to — exactly when all `k` of the key's
//!   positions lie inside the member's position set, and (1)
//!   guarantees every one of those positions carries a tier counter ≥
//!   the member's strength. With an independent tier geometry, a
//!   phantom key would hash to unrelated tier positions and be wrongly
//!   pruned.
//! - **Union probing.** The tier probe asks, per position, whether
//!   *any* pool filter covers it — the counterwise-max (M-merge) view
//!   of the pool. The pool's own existential query (all positions in
//!   *one* filter, the joint-FPR query of Eq. 7) would be unsound: a
//!   phantom key borrows its positions from several different real
//!   keys, and spill allocation can scatter those keys across pool
//!   filters.
//!
//! Hence `member.contains(key) ⇒ tier.contains(key)` for phantom keys
//! too, and the pruned batch path equals the exhaustive scan — the
//! equivalence the differential suite in `tests/differential.rs`
//! exercises over randomized interleavings.

use crate::probe::Probe;
use bsub_bloom::{math, KeyHasher, TcbfPool};
use bsub_obs::{self as obs, Counter, SizeHist, TimeHist};
use std::collections::BTreeMap;

/// One published event, identified by its content key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The content key producers attach and subscribers register.
    pub key: String,
}

impl Event {
    /// Wraps a content key.
    #[must_use]
    pub fn new(key: impl Into<String>) -> Self {
        Self { key: key.into() }
    }
}

/// Geometry and policy parameters of a [`MatchIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchParams {
    /// Bits `m` of the filter geometry, shared by per-subscriber
    /// filters and tier pools (the shared geometry is what makes tier
    /// pruning exact — see the module docs).
    pub member_bits: usize,
    /// Hash count `k`, shared by member and tier geometries.
    pub member_hashes: usize,
    /// Initial counter `C` a subscription starts at; decay expires a
    /// subscription after `C` epochs.
    pub initial: u32,
    /// Maximum live subscribers per tier.
    pub tier_size: usize,
    /// Resident-memory bound per tier pool: caps how many **dense**
    /// filters (`member_bits` × 4-byte counters each) a pool may
    /// spill into, and thereby derives its spill threshold θ.
    pub tier_budget_bytes: usize,
    /// Expected keys per subscriber, used only to size the allocation
    /// plan (`tier_size × hint` keys per tier).
    pub keys_per_subscriber_hint: usize,
    /// A tier is rebuilt when `tombstones > compact_ratio × live`.
    pub compact_ratio: f64,
}

impl Default for MatchParams {
    fn default() -> Self {
        Self {
            member_bits: 8192,
            member_hashes: 4,
            initial: 16,
            tier_size: 512,
            tier_budget_bytes: 64 * 1024,
            keys_per_subscriber_hint: 4,
            compact_ratio: 0.5,
        }
    }
}

/// Deterministic work counts of one [`MatchIndex::match_events`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Events in the batch.
    pub events: u64,
    /// Tier-pool probes taken (tiers × events reaching them).
    pub tier_probes: u64,
    /// Tier probes that reported the key present.
    pub tier_hits: u64,
    /// Members of a tier whose probe hit, summed over tier hits.
    pub candidates: u64,
    /// Candidates that passed the position-signature check and were
    /// confirmed exactly.
    pub confirmed: u64,
    /// Confirmed (subscriber, event) matches.
    pub matched: u64,
}

/// The result of a batched match: per-event subscriber lists plus the
/// work counters pruning is judged by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSet {
    /// For each event (batch order), the matching subscriber ids in
    /// ascending order.
    pub matches: Vec<Vec<u64>>,
    /// Deterministic work counts of the call.
    pub stats: MatchStats,
}

impl MatchSet {
    /// Total (subscriber, event) matches across the batch.
    #[must_use]
    pub fn total(&self) -> usize {
        self.matches.iter().map(Vec::len).sum()
    }
}

/// One subscriber's portable state, as exported by
/// [`MatchIndex::export_state`]: everything needed to rebuild the
/// member exactly — positions are rederived from the digests, and the
/// uniform counter from `born` against the index epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriberState {
    /// The subscriber id.
    pub id: u64,
    /// The Kirsch–Mitzenmacher digest pair of each subscribed key, in
    /// subscription order.
    pub digests: Vec<(u64, u64)>,
    /// Birth epoch (uniform counter is `C ∸ (epoch − born)`).
    pub born: u64,
    /// Optional expiry deadline ([`MatchIndex::expire`] semantics).
    pub deadline: Option<u64>,
    /// Tier the member lives in.
    pub tier: usize,
}

/// A portable snapshot of a whole [`MatchIndex`]: parameters, the
/// decay epoch, and every live subscriber in tier-member order.
///
/// [`MatchIndex::from_state`] rebuilds an index whose *matching
/// behavior* is identical to the exported one — same members, same
/// positions, same strengths, same deadlines, same tier layout. Tier
/// pools come back compacted (reinforced from live members at current
/// strength), so tombstone over-approximation is not carried across a
/// snapshot; match *results* are unaffected because the final
/// member-level confirmation is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexState {
    /// Geometry and policy parameters.
    pub params: MatchParams,
    /// Accumulated decay epochs at export time.
    pub epoch: u64,
    /// Live subscribers, grouped by tier in member order.
    pub subs: Vec<SubscriberState>,
}

/// A subscriber's aggregated state: its keys' digests (for tier
/// rebuilds), the sorted position union of its member-geometry filter,
/// and its birth epoch. Counters are uniform `C ∸ (E − born)`.
#[derive(Debug, Clone)]
struct Subscriber {
    digests: Vec<(u64, u64)>,
    positions: Vec<u32>,
    born: u64,
    deadline: Option<u64>,
    tier: usize,
}

#[derive(Debug)]
struct Tier {
    pool: TcbfPool,
    members: Vec<u64>,
    /// Position signature of each member, slot-aligned with `members`.
    sigs: Vec<u64>,
    tombstones: usize,
}

impl Tier {
    fn new(params: &MatchParams, theta: f64) -> Self {
        Self {
            pool: TcbfPool::new(
                params.member_bits,
                params.member_hashes,
                params.initial,
                theta,
            ),
            members: Vec::new(),
            sigs: Vec::new(),
            tombstones: 0,
        }
    }

    fn push(&mut self, id: u64, positions: &[u32]) {
        self.members.push(id);
        self.sigs.push(signature(positions));
    }
}

/// The 64-bit position signature: bit `p mod 64` for every position.
fn signature(positions: &[u32]) -> u64 {
    positions.iter().fold(0, |sig, &p| sig | 1 << (p & 63))
}

/// The broker-level subscription index: tiers of aggregated TCBF pools
/// over per-subscriber filters, with bulk maintenance and a batched
/// matching path. See the module docs for the model and invariants.
#[derive(Debug)]
pub struct MatchIndex {
    params: MatchParams,
    hasher: KeyHasher,
    /// Accumulated decay epochs.
    epoch: u64,
    /// Tier-pool spill threshold θ, from the allocation plan.
    theta: f64,
    subs: BTreeMap<u64, Subscriber>,
    tiers: Vec<Tier>,
    /// Index of the first tier that may have room (first-fit hint).
    open: usize,
    compactions: u64,
}

impl MatchIndex {
    /// An empty index. The tier-pool spill threshold θ is derived
    /// from the tier's **resident** budget: a pool may hold at most
    /// `tier_budget_bytes / (member_bits × 4)` dense filters, the
    /// expected per-tier key load (`tier_size ×
    /// keys_per_subscriber_hint`) is split across them, and θ is the
    /// expected fill ratio (Eq. 3) of one such share.
    ///
    /// This deliberately inverts the Section VI-D plan
    /// ([`bsub_bloom::AllocationPlan::solve`]): the paper's phones
    /// *maximize* the filter count under a wire-size budget to
    /// minimize the joint FPR of per-filter existential queries
    /// (Eq. 7). A broker's tier pool is the opposite regime — filters
    /// are resident dense counters, and the tier probe is the
    /// counterwise-max *union* view, whose discriminative power
    /// depends only on the union fill, not on how keys are split. So
    /// extra filters buy nothing here and cost 4 bits×`member_bits`
    /// of RAM plus one probe per position each; the budget wants the
    /// *fewest* filters that hold the load.
    ///
    /// # Panics
    ///
    /// Panics if geometry parameters are zero or `compact_ratio` is
    /// not positive.
    #[must_use]
    pub fn new(params: MatchParams) -> Self {
        assert!(params.member_bits > 0, "member bits must be positive");
        assert!(params.member_hashes > 0, "hash count must be positive");
        assert!(params.initial > 0, "initial counter must be positive");
        assert!(params.tier_size > 0, "tier size must be positive");
        assert!(params.compact_ratio > 0.0, "compact ratio must be positive");
        let expected_keys = params.tier_size * params.keys_per_subscriber_hint.max(1);
        let dense_filter_bytes = params.member_bits * 4;
        let pool_filters = (params.tier_budget_bytes / dense_filter_bytes).max(1);
        let keys_per_filter = expected_keys as f64 / pool_filters as f64;
        let theta = math::fill_ratio(params.member_bits, params.member_hashes, keys_per_filter);
        Self {
            params,
            hasher: KeyHasher::default(),
            epoch: 0,
            theta,
            subs: BTreeMap::new(),
            tiers: Vec::new(),
            open: 0,
            compactions: 0,
        }
    }

    /// The index parameters.
    #[must_use]
    pub fn params(&self) -> &MatchParams {
        &self.params
    }

    /// Accumulated decay epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The tier-pool spill threshold θ in effect.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Live subscriber count.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.subs.len()
    }

    /// Number of tiers allocated (never shrinks; emptied tiers are
    /// skipped during matching and refilled by later subscribes).
    #[must_use]
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Total TCBF filters across every tier pool.
    #[must_use]
    pub fn pool_filter_count(&self) -> usize {
        self.tiers.iter().map(|t| t.pool.filter_count()).sum()
    }

    /// Tier rebuilds performed so far.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether `id` is currently subscribed.
    #[must_use]
    pub fn is_subscribed(&self, id: u64) -> bool {
        self.subs.contains_key(&id)
    }

    /// A subscriber's current uniform counter value (`C ∸ (E − born)`),
    /// or `None` if not subscribed.
    #[must_use]
    pub fn strength(&self, id: u64) -> Option<u32> {
        self.subs.get(&id).map(|s| self.strength_of(s))
    }

    fn strength_of(&self, sub: &Subscriber) -> u32 {
        let decayed = self.epoch - sub.born;
        if decayed >= u64::from(self.params.initial) {
            0
        } else {
            self.params.initial - decayed as u32
        }
    }

    /// Subscribes `id` to `keys` with no deadline. An existing
    /// subscription under the same id is replaced (its counters reset
    /// to `C`, possibly in a different tier).
    pub fn subscribe<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K]) {
        self.subscribe_inner(id, keys, None);
    }

    /// Subscribes `id` to `keys` until `deadline`:
    /// [`MatchIndex::expire`] removes it once `now >= deadline`.
    pub fn subscribe_until<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K], deadline: u64) {
        self.subscribe_inner(id, keys, Some(deadline));
    }

    /// Bulk subscribe: one call per `(id, keys)` pair.
    pub fn subscribe_bulk<K: AsRef<[u8]>>(&mut self, batch: &[(u64, Vec<K>)]) {
        for (id, keys) in batch {
            self.subscribe_inner(*id, keys, None);
        }
    }

    fn subscribe_inner<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K], deadline: Option<u64>) {
        obs::count(Counter::MatchSubscribe, 1);
        if self.subs.contains_key(&id) {
            self.remove(id);
        }
        let k = self.params.member_hashes;
        let mut digests = Vec::with_capacity(keys.len());
        let mut positions: Vec<u32> = Vec::with_capacity(keys.len() * k);
        for key in keys {
            let probe = Probe::new(&self.hasher, key.as_ref());
            digests.push(probe.digests());
            positions.extend(
                probe
                    .positions(k, self.params.member_bits)
                    .map(|p| p as u32),
            );
        }
        positions.sort_unstable();
        positions.dedup();

        let tier = self.open_tier();
        self.tiers[tier].push(id, &positions);
        for &digest in &digests {
            self.tiers[tier].pool.reinforce(digest, self.params.initial);
        }
        self.subs.insert(
            id,
            Subscriber {
                digests,
                positions,
                born: self.epoch,
                deadline,
                tier,
            },
        );
    }

    /// First tier with room, allocating a fresh one when all are full.
    fn open_tier(&mut self) -> usize {
        let mut t = self.open;
        while t < self.tiers.len() && self.tiers[t].members.len() >= self.params.tier_size {
            t += 1;
        }
        if t == self.tiers.len() {
            self.tiers.push(Tier::new(&self.params, self.theta));
        }
        self.open = t;
        t
    }

    /// Unsubscribes `id`. Returns whether it was subscribed.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        if !self.subs.contains_key(&id) {
            return false;
        }
        obs::count(Counter::MatchUnsubscribe, 1);
        self.remove(id);
        true
    }

    /// Bulk unsubscribe; returns how many were subscribed.
    pub fn unsubscribe_bulk(&mut self, ids: &[u64]) -> usize {
        ids.iter().filter(|&&id| self.unsubscribe(id)).count()
    }

    /// Unsubscribes `id` and immediately rebuilds its tier pool, so the
    /// member's keys stop contributing to the tier aggregate *now*
    /// rather than after enough tombstones accumulate. Returns whether
    /// it was subscribed.
    ///
    /// The lazy path ([`MatchIndex::unsubscribe`]) leaves the pool
    /// over-approximating until the compaction threshold trips — sound
    /// (extra candidate probes, never missed matches) but wrong for a
    /// live broker honoring an explicit unsubscribe: the departed
    /// member must not keep inflating tier hits for its former keys.
    pub fn purge(&mut self, id: u64) -> bool {
        let Some(tier) = self.subs.get(&id).map(|s| s.tier) else {
            return false;
        };
        obs::count(Counter::MatchUnsubscribe, 1);
        self.remove(id);
        // `remove` may already have compacted; only rebuild when
        // tombstones (this one included) are still in the pool.
        if self.tiers[tier].tombstones > 0 {
            self.compact(tier);
        }
        true
    }

    /// A subscriber's deadline, or `None` when not subscribed or
    /// subscribed without one.
    #[must_use]
    pub fn deadline(&self, id: u64) -> Option<u64> {
        self.subs.get(&id).and_then(|s| s.deadline)
    }

    /// Targeted expiry for deadline-wheel callers: re-checks each
    /// candidate's *current* deadline against `now` and removes only
    /// those actually due (or fully decayed). Returns how many were
    /// removed.
    ///
    /// Unlike [`MatchIndex::expire`], this never scans the whole
    /// subscriber map — a broker's clock wheel hands over exactly the
    /// ids whose bucket came due. The re-check makes stale wheel
    /// entries harmless: a resubscribe under the same id moved the
    /// deadline forward, and the old bucket entry must not evict it.
    pub fn expire_candidates(&mut self, ids: &[u64], now: u64) -> usize {
        let mut removed = 0;
        for &id in ids {
            let due = self
                .subs
                .get(&id)
                .is_some_and(|s| s.deadline.is_some_and(|d| now >= d) || self.strength_of(s) == 0);
            if due {
                obs::count(Counter::MatchExpire, 1);
                self.remove(id);
                removed += 1;
            }
        }
        removed
    }

    /// Removes every subscription whose deadline has passed
    /// (`now >= deadline`) or whose counters have fully decayed.
    /// Returns how many were removed.
    pub fn expire(&mut self, now: u64) -> usize {
        let doomed: Vec<u64> = self
            .subs
            .iter()
            .filter(|(_, s)| s.deadline.is_some_and(|d| now >= d) || self.strength_of(s) == 0)
            .map(|(&id, _)| id)
            .collect();
        obs::count(Counter::MatchExpire, doomed.len() as u64);
        for id in &doomed {
            self.remove(*id);
        }
        doomed.len()
    }

    /// Shared removal path: tombstones the member and compacts the
    /// tier when tombstones outweigh `compact_ratio × live`.
    fn remove(&mut self, id: u64) {
        let sub = self.subs.remove(&id).expect("caller checked presence");
        let tier = &mut self.tiers[sub.tier];
        // `Vec::remove`, not `swap_remove`: member order is observable
        // through `export_state` and the compaction reinforce order.
        let slot = tier
            .members
            .iter()
            .position(|&m| m == id)
            .expect("member lives in its tier");
        tier.members.remove(slot);
        tier.sigs.remove(slot);
        tier.tombstones += 1;
        self.open = self.open.min(sub.tier);
        let live = tier.members.len();
        if tier.tombstones as f64 > self.params.compact_ratio * live.max(1) as f64 {
            self.compact(sub.tier);
        }
    }

    /// Rebuilds a tier pool from its live members at their *current*
    /// strengths, dropping every tombstoned key (and any pool filter
    /// the spill history left behind).
    fn compact(&mut self, tier: usize) {
        obs::count(Counter::MatchCompact, 1);
        self.compactions += 1;
        let mut pool = TcbfPool::new(
            self.params.member_bits,
            self.params.member_hashes,
            self.params.initial,
            self.theta,
        );
        for &id in &self.tiers[tier].members {
            let sub = &self.subs[&id];
            let strength = self.strength_of(sub);
            if strength == 0 {
                continue;
            }
            for &digest in &sub.digests {
                pool.reinforce(digest, strength);
            }
        }
        self.tiers[tier].pool = pool;
        self.tiers[tier].tombstones = 0;
    }

    /// Decays every subscription and every tier pool by `amount`
    /// epochs, in lock-step — the commutation that keeps tier pools
    /// supersets of their members.
    pub fn decay(&mut self, amount: u32) {
        if amount == 0 {
            return;
        }
        self.epoch += u64::from(amount);
        for tier in &mut self.tiers {
            tier.pool.decay(amount);
        }
    }

    /// Matches a batch of events against every live subscription.
    ///
    /// Each event key is hashed once; candidate tiers are pruned via
    /// their aggregate pools, and a hit tier's members via their
    /// position signatures, before the rest are confirmed exactly.
    /// Returns per-event subscriber lists identical to what the naive
    /// per-filter scan ([`crate::ReferenceMatcher`]) produces.
    #[must_use]
    pub fn match_events(&self, events: &[Event]) -> MatchSet {
        let _span = obs::span(TimeHist::MatchBatchNs);
        let k = self.params.member_hashes;
        let mut stats = MatchStats {
            events: events.len() as u64,
            ..MatchStats::default()
        };

        // One position set per event: tier pools share the member
        // geometry, so a single probe serves both levels.
        let mut positions: Vec<u32> = Vec::with_capacity(events.len() * k);
        for event in events {
            let probe = Probe::new(&self.hasher, event.key.as_bytes());
            positions.extend(
                probe
                    .positions(k, self.params.member_bits)
                    .map(|p| p as u32),
            );
        }
        let masks: Vec<u64> = positions.chunks_exact(k).map(signature).collect();

        let mut matches: Vec<Vec<u64>> = vec![Vec::new(); events.len()];
        for tier in &self.tiers {
            if tier.members.is_empty() {
                continue;
            }
            for ei in 0..events.len() {
                let mp = &positions[ei * k..(ei + 1) * k];
                stats.tier_probes += 1;
                // Counterwise-max (M-merge) union view of the pool: a
                // position counts as covered when ANY filter holds it.
                // The per-filter existential query (Eq. 7) would be
                // unsound here — a member-level false positive borrows
                // its positions from several different keys, and spill
                // can scatter those keys across pool filters.
                let filters = tier.pool.filters();
                let tier_holds = mp
                    .iter()
                    .all(|&p| filters.iter().any(|f| f.counter_at(p as usize) > 0));
                if !tier_holds {
                    continue;
                }
                stats.tier_hits += 1;
                stats.candidates += tier.members.len() as u64;
                let mask = masks[ei];
                for (slot, &sig) in tier.sigs.iter().enumerate() {
                    if sig & mask != mask {
                        continue;
                    }
                    stats.confirmed += 1;
                    let id = tier.members[slot];
                    let sub = &self.subs[&id];
                    if self.strength_of(sub) > 0
                        && mp.iter().all(|p| sub.positions.binary_search(p).is_ok())
                    {
                        stats.matched += 1;
                        matches[ei].push(id);
                    }
                }
            }
        }
        for per_event in &mut matches {
            per_event.sort_unstable();
        }
        obs::count(Counter::MatchEvents, stats.events);
        obs::count(Counter::MatchTierProbes, stats.tier_probes);
        obs::count(Counter::MatchCandidates, stats.candidates);
        obs::count(Counter::MatchMatched, stats.matched);
        obs::observe(SizeHist::MatchBatchEvents, stats.events);
        obs::observe(SizeHist::MatchBatchCandidates, stats.candidates);
        MatchSet { matches, stats }
    }

    /// Exports the index's live state for checkpointing or transfer
    /// (see [`IndexState`] for the rebuild contract).
    #[must_use]
    pub fn export_state(&self) -> IndexState {
        let mut subs = Vec::with_capacity(self.subs.len());
        for (tier, t) in self.tiers.iter().enumerate() {
            for &id in &t.members {
                let sub = &self.subs[&id];
                subs.push(SubscriberState {
                    id,
                    digests: sub.digests.clone(),
                    born: sub.born,
                    deadline: sub.deadline,
                    tier,
                });
            }
        }
        IndexState {
            params: self.params,
            epoch: self.epoch,
            subs,
        }
    }

    /// Rebuilds an index from exported state. Tier membership and
    /// member order are restored verbatim; each tier pool is rebuilt by
    /// reinforcing live members at their current strength (exactly the
    /// compaction rebuild), so the no-false-negative superset invariant
    /// holds from the first probe.
    ///
    /// # Panics
    ///
    /// Panics if the state is inconsistent: duplicate subscriber ids,
    /// or a tier holding more members than `params.tier_size`.
    #[must_use]
    pub fn from_state(state: &IndexState) -> Self {
        let mut idx = Self::new(state.params);
        idx.epoch = state.epoch;
        let tiers = state.subs.iter().map(|s| s.tier + 1).max().unwrap_or(0);
        for _ in 0..tiers {
            idx.tiers.push(Tier::new(&state.params, idx.theta));
        }
        let k = state.params.member_hashes;
        for sub in &state.subs {
            let mut positions: Vec<u32> = Vec::with_capacity(sub.digests.len() * k);
            for &digest in &sub.digests {
                positions.extend(
                    KeyHasher::positions_from_digests(digest, k, state.params.member_bits)
                        .map(|p| p as u32),
                );
            }
            positions.sort_unstable();
            positions.dedup();
            let tier = &mut idx.tiers[sub.tier];
            tier.push(sub.id, &positions);
            assert!(
                tier.members.len() <= state.params.tier_size,
                "tier {} overflows tier_size",
                sub.tier
            );
            let previous = idx.subs.insert(
                sub.id,
                Subscriber {
                    digests: sub.digests.clone(),
                    positions,
                    born: sub.born,
                    deadline: sub.deadline,
                    tier: sub.tier,
                },
            );
            assert!(previous.is_none(), "duplicate subscriber id {}", sub.id);
        }
        for tier in 0..idx.tiers.len() {
            let members = idx.tiers[tier].members.clone();
            for id in members {
                let strength = idx.strength_of(&idx.subs[&id]);
                if strength == 0 {
                    continue;
                }
                let digests = idx.subs[&id].digests.clone();
                for digest in digests {
                    idx.tiers[tier].pool.reinforce(digest, strength);
                }
            }
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceMatcher;

    fn small() -> MatchParams {
        MatchParams {
            member_bits: 512,
            member_hashes: 4,
            initial: 8,
            tier_size: 4,
            tier_budget_bytes: 4 * 1024,
            keys_per_subscriber_hint: 2,
            compact_ratio: 0.5,
        }
    }

    fn keys_of(id: u64) -> Vec<String> {
        vec![format!("topic-{}", id % 5), format!("extra-{id}")]
    }

    #[test]
    fn subscribe_then_match() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["apples", "pears"]);
        idx.subscribe(2, &["pears"]);
        let set = idx.match_events(&[Event::new("pears"), Event::new("plums")]);
        assert_eq!(set.matches[0], vec![1, 2]);
        assert!(set.matches[1].is_empty());
        assert_eq!(set.stats.matched, 2);
    }

    #[test]
    fn unsubscribe_stops_matching() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["apples"]);
        idx.subscribe(2, &["apples"]);
        assert!(idx.unsubscribe(1));
        assert!(!idx.unsubscribe(1), "second unsubscribe is a no-op");
        let set = idx.match_events(&[Event::new("apples")]);
        assert_eq!(set.matches[0], vec![2]);
    }

    #[test]
    fn decay_expires_subscriptions() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["apples"]);
        idx.decay(7);
        assert_eq!(idx.strength(1), Some(1));
        assert_eq!(idx.match_events(&[Event::new("apples")]).total(), 1);
        idx.decay(1);
        assert_eq!(idx.strength(1), Some(0));
        assert_eq!(idx.match_events(&[Event::new("apples")]).total(), 0);
        assert_eq!(idx.expire(0), 1, "fully decayed subscription expires");
        assert_eq!(idx.live_count(), 0);
    }

    #[test]
    fn deadline_expiry() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe_until(1, &["apples"], 10);
        idx.subscribe(2, &["apples"]);
        assert_eq!(idx.expire(9), 0);
        assert_eq!(idx.expire(10), 1);
        assert!(!idx.is_subscribed(1));
        assert!(idx.is_subscribed(2));
    }

    #[test]
    fn tiers_spill_and_refill() {
        let mut idx = MatchIndex::new(small());
        for id in 0..10 {
            idx.subscribe(id, &keys_of(id));
        }
        assert_eq!(idx.tier_count(), 3, "tier_size=4 ⇒ 10 subs need 3 tiers");
        idx.unsubscribe(0);
        idx.subscribe(100, &keys_of(100));
        assert_eq!(idx.tier_count(), 3, "freed slot is reused first-fit");
    }

    #[test]
    fn resubscribe_refreshes_strength() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["apples"]);
        idx.decay(6);
        assert_eq!(idx.strength(1), Some(2));
        idx.subscribe(1, &["apples"]);
        assert_eq!(idx.strength(1), Some(8));
        assert_eq!(idx.live_count(), 1);
    }

    #[test]
    fn compaction_preserves_matching() {
        let mut idx = MatchIndex::new(small());
        for id in 0..16 {
            idx.subscribe(id, &keys_of(id));
        }
        // Heavy churn forces tombstone-driven rebuilds.
        for id in 0..12 {
            idx.unsubscribe(id);
        }
        assert!(idx.compactions() > 0, "churn must have compacted");
        let events: Vec<Event> = (0..5).map(|t| Event::new(format!("topic-{t}"))).collect();
        let set = idx.match_events(&events);
        for (t, per_event) in set.matches.iter().enumerate() {
            let expected: Vec<u64> = (12..16).filter(|id| id % 5 == t as u64).collect();
            assert_eq!(per_event, &expected, "topic-{t}");
        }
    }

    #[test]
    fn empty_key_set_never_matches() {
        let mut idx = MatchIndex::new(small());
        let no_keys: &[&str] = &[];
        idx.subscribe(1, no_keys);
        idx.subscribe(2, &["apples"]);
        let set = idx.match_events(&[Event::new("apples")]);
        assert_eq!(set.matches[0], vec![2]);
    }

    #[test]
    fn empty_batch_and_empty_index() {
        let idx = MatchIndex::new(small());
        let set = idx.match_events(&[Event::new("anything")]);
        assert_eq!(set.matches, vec![Vec::<u64>::new()]);
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["k"]);
        let set = idx.match_events(&[]);
        assert!(set.matches.is_empty());
        assert_eq!(set.total(), 0);
    }

    #[test]
    fn bulk_helpers() {
        let mut idx = MatchIndex::new(small());
        let batch: Vec<(u64, Vec<String>)> = (0..6).map(|id| (id, keys_of(id))).collect();
        idx.subscribe_bulk(&batch);
        assert_eq!(idx.live_count(), 6);
        assert_eq!(idx.unsubscribe_bulk(&[0, 1, 99]), 2);
        assert_eq!(idx.live_count(), 4);
    }

    /// Params whose filters are wide enough that a member's own key
    /// never collides into a neighbour's: `own-{id}` matches exactly
    /// `id`, so a signature read from the wrong slot shows as a miss.
    fn slotted() -> MatchParams {
        MatchParams {
            member_bits: 4096,
            tier_size: 8,
            ..small()
        }
    }

    fn own_key(id: u64) -> Vec<String> {
        vec![format!("own-{id}")]
    }

    /// Matches every live member's own key and checks each event hits
    /// exactly its owner, then cross-checks the whole batch against a
    /// reference scan mirrored by the caller.
    fn assert_owners_match(idx: &MatchIndex, reference: &ReferenceMatcher, live: &[u64]) {
        let events: Vec<Event> = live
            .iter()
            .map(|&id| Event::new(format!("own-{id}")))
            .collect();
        let set = idx.match_events(&events);
        for (&id, per_event) in live.iter().zip(&set.matches) {
            assert_eq!(per_event, &vec![id], "own-{id}");
        }
        assert_eq!(set.matches, reference.match_events(&events).matches);
    }

    #[test]
    fn unsubscribe_mid_tier_keeps_signatures_aligned() {
        let mut idx = MatchIndex::new(slotted());
        let mut reference = ReferenceMatcher::from_params(&slotted());
        for id in 0..8 {
            idx.subscribe(id, &own_key(id));
            reference.subscribe(id, &own_key(id));
        }
        assert_eq!(idx.tier_count(), 1, "one full tier");
        idx.unsubscribe(3);
        reference.unsubscribe(3);
        assert_eq!(idx.compactions(), 0, "one tombstone must not compact");
        let order: Vec<u64> = idx.export_state().subs.iter().map(|s| s.id).collect();
        assert_eq!(order, [0, 1, 2, 4, 5, 6, 7], "removal keeps member order");
        assert_owners_match(&idx, &reference, &[0, 1, 2, 4, 5, 6, 7]);
        // The freed slot is refilled at the tier's end.
        idx.subscribe(8, &own_key(8));
        reference.subscribe(8, &own_key(8));
        assert_owners_match(&idx, &reference, &[0, 1, 2, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn resubscribe_across_tiers_keeps_signatures_aligned() {
        let mut idx = MatchIndex::new(slotted());
        let mut reference = ReferenceMatcher::from_params(&slotted());
        for id in 0..16 {
            idx.subscribe(id, &own_key(id));
            reference.subscribe(id, &own_key(id));
        }
        // Open a slot in tier 0, then resubscribe a mid-tier member of
        // tier 1 under a new key: it leaves tier 1 and lands in tier 0.
        idx.unsubscribe(1);
        reference.unsubscribe(1);
        idx.subscribe(11, &["moved"]);
        reference.subscribe(11, &["moved"]);
        let tier_of = |idx: &MatchIndex, id: u64| {
            idx.export_state()
                .subs
                .iter()
                .find(|s| s.id == id)
                .map(|s| s.tier)
        };
        assert_eq!(tier_of(&idx, 11), Some(0), "resubscribe moved tiers");
        let live: Vec<u64> = (0..16).filter(|&id| id != 1 && id != 11).collect();
        assert_owners_match(&idx, &reference, &live);
        let set = idx.match_events(&[Event::new("moved"), Event::new("own-11")]);
        assert_eq!(set.matches, vec![vec![11], vec![]]);
    }

    #[test]
    fn compaction_after_heavy_churn_keeps_signatures_aligned() {
        let mut idx = MatchIndex::new(slotted());
        let mut reference = ReferenceMatcher::from_params(&slotted());
        for id in 0..64 {
            idx.subscribe(id, &own_key(id));
            reference.subscribe(id, &own_key(id));
        }
        // Scattered removals and refills: every tier loses members from
        // the middle, and enough of them to compact.
        for id in (0..64).filter(|id| id % 3 != 0) {
            idx.unsubscribe(id);
            reference.unsubscribe(id);
        }
        for id in 100..110 {
            idx.subscribe(id, &own_key(id));
            reference.subscribe(id, &own_key(id));
        }
        assert!(idx.compactions() > 0, "churn must have compacted");
        let live: Vec<u64> = (0..64).filter(|id| id % 3 == 0).chain(100..110).collect();
        assert_owners_match(&idx, &reference, &live);
    }

    #[test]
    fn restored_index_matches_like_the_exported_one() {
        let mut idx = MatchIndex::new(slotted());
        for id in 0..40 {
            idx.subscribe(id, &[format!("own-{id}"), format!("topic-{}", id % 7)]);
        }
        for id in [2, 5, 9, 17, 18, 30] {
            idx.unsubscribe(id);
        }
        idx.decay(3);
        idx.subscribe(5, &["own-5", "late"]);
        let restored = MatchIndex::from_state(&idx.export_state());
        let batch: Vec<Event> = (0..40)
            .map(|id| Event::new(format!("own-{id}")))
            .chain((0..7).map(|t| Event::new(format!("topic-{t}"))))
            .chain([Event::new("late"), Event::new("absent")])
            .collect();
        let before = idx.match_events(&batch);
        assert!(before.total() > 40, "the batch must exercise matching");
        assert_eq!(restored.match_events(&batch).matches, before.matches);
    }

    #[test]
    fn signature_check_only_rejects_non_matches() {
        let mut idx = MatchIndex::new(small());
        for id in 0..12 {
            idx.subscribe(id, &keys_of(id));
        }
        let events: Vec<Event> = (0..5)
            .map(|t| Event::new(format!("topic-{t}")))
            .chain([Event::new("absent")])
            .collect();
        let set = idx.match_events(&events);
        assert!(set.stats.matched <= set.stats.confirmed);
        assert!(
            set.stats.confirmed < set.stats.candidates,
            "signatures must reject some candidates: {:?}",
            set.stats
        );
    }

    #[test]
    fn stats_account_for_pruning() {
        let mut idx = MatchIndex::new(small());
        for id in 0..12 {
            idx.subscribe(id, &[format!("only-{id}")]);
        }
        let set = idx.match_events(&[Event::new("only-3")]);
        assert_eq!(set.matches[0], vec![3]);
        assert!(
            set.stats.candidates < 12,
            "tier pruning must cut the exhaustive scan: {:?}",
            set.stats
        );
        assert!(set.stats.tier_probes >= set.stats.tier_hits);
    }
}
