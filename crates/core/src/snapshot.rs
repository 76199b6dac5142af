//! Cross-process serialization of one node's complete B-SUB state.
//!
//! The networked runtime (`bsub-net`) checks node state out to the
//! worker process that executes a contact and back afterwards. Across
//! a socket the state must travel as self-contained bytes; this module
//! implements that codec (B-SUB's [`Protocol::export_node`] and
//! [`Protocol::import_node`]) on top of the shared primitives in
//! [`bsub_sim::snapshot`].
//!
//! [`Protocol::export_node`]: bsub_sim::Protocol::export_node
//! [`Protocol::import_node`]: bsub_sim::Protocol::import_node
//!
//! Exactness is the contract: importing an exported snapshot must make
//! the receiving node behave *identically* to the original — every
//! future filter bit, counter, election decision, and forwarding
//! choice. Consequences for the format:
//!
//! - The relay filter travels in the wire codec's lossless
//!   [`CounterMode::Wide`] form (full `u32` counters, CRC-checked) —
//!   the radio-facing modes saturate counters at 255, which would
//!   silently corrupt a heavily reinforced relay. The real insertion
//!   value `C` and merged flag are carried alongside, because decoded
//!   filters are otherwise marked as generic merge sources.
//! - The decayer's fractional residual and the adaptive DF's
//!   `(ℕ, DF)` cache travel as exact IEEE-754 bit patterns.
//! - The genuine filter is *not* shipped: it is a pure function of the
//!   node's subscriptions (which every process knows) and never
//!   changes, so the importer keeps its own copy.
//! - Hash-ordered collections are canonically sorted on export, so
//!   equal states encode to equal bytes.

use crate::broker::ElectionLog;
use crate::config::{BsubConfig, DfMode};
use crate::node::{Carried, NodeState, Produced, RelayState, Role};
use bsub_bloom::wire::{self, CounterMode};
use bsub_bloom::{Decayer, KeyHasher, Tcbf};
use bsub_match::{IndexState, MatchIndex, MatchParams, SubscriberState};
use bsub_sim::snapshot::{SnapReader, SnapWriter};
use bsub_sim::MessageId;
use bsub_traces::NodeId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Snapshot format version; bump on any layout change.
const VERSION: u8 = 1;

/// Match-index snapshot format version; bump on any layout change.
const INDEX_VERSION: u8 = 1;

/// Encodes a live [`MatchIndex`]'s state — parameters, decay epoch,
/// and every subscriber in tier-member order — into a self-contained
/// byte snapshot a restarted broker can [`decode_match_index`] from.
///
/// Exactness follows the [`bsub_match::IndexState`] contract: the
/// decoded index produces identical match results (members, positions,
/// strengths, deadlines, tier layout all preserved; tier pools come
/// back compacted).
#[must_use]
pub fn encode_match_index(index: &MatchIndex) -> Vec<u8> {
    let state = index.export_state();
    let mut w = SnapWriter::new();
    w.u8(INDEX_VERSION);
    w.u64(state.params.member_bits as u64);
    w.u64(state.params.member_hashes as u64);
    w.u32(state.params.initial);
    w.u64(state.params.tier_size as u64);
    w.u64(state.params.tier_budget_bytes as u64);
    w.u64(state.params.keys_per_subscriber_hint as u64);
    w.f64(state.params.compact_ratio);
    w.u64(state.epoch);
    w.u32(state.subs.len() as u32);
    for sub in &state.subs {
        w.u64(sub.id);
        w.u64(sub.tier as u64);
        w.u64(sub.born);
        match sub.deadline {
            None => w.flag(false),
            Some(d) => {
                w.flag(true);
                w.u64(d);
            }
        }
        w.u32(sub.digests.len() as u32);
        for &(a, b) in &sub.digests {
            w.u64(a);
            w.u64(b);
        }
    }
    w.into_bytes()
}

/// Rebuilds a [`MatchIndex`] from an [`encode_match_index`] snapshot.
/// Returns `None` on any malformed input: truncation, trailing bytes,
/// version mismatch, degenerate parameters, duplicate subscriber ids,
/// or a tier over `tier_size`.
#[must_use]
pub fn decode_match_index(bytes: &[u8]) -> Option<MatchIndex> {
    let mut r = SnapReader::new(bytes);
    if r.u8()? != INDEX_VERSION {
        return None;
    }
    let params = MatchParams {
        member_bits: usize::try_from(r.u64()?).ok()?,
        member_hashes: usize::try_from(r.u64()?).ok()?,
        initial: r.u32()?,
        tier_size: usize::try_from(r.u64()?).ok()?,
        tier_budget_bytes: usize::try_from(r.u64()?).ok()?,
        keys_per_subscriber_hint: usize::try_from(r.u64()?).ok()?,
        compact_ratio: r.f64()?,
    };
    if params.member_bits == 0
        || params.member_hashes == 0
        || params.initial == 0
        || params.tier_size == 0
        || !params.compact_ratio.is_finite()
        || params.compact_ratio <= 0.0
    {
        return None;
    }
    let epoch = r.u64()?;
    let count = r.u32()?;
    let mut subs = Vec::with_capacity(count as usize);
    let mut seen = HashSet::new();
    let mut tier_fill: HashMap<usize, usize> = HashMap::new();
    for _ in 0..count {
        let id = r.u64()?;
        if !seen.insert(id) {
            return None;
        }
        let tier = usize::try_from(r.u64()?).ok()?;
        let fill = tier_fill.entry(tier).or_insert(0);
        *fill += 1;
        if *fill > params.tier_size {
            return None;
        }
        let born = r.u64()?;
        if born > epoch {
            return None;
        }
        let deadline = if r.flag()? { Some(r.u64()?) } else { None };
        let digest_count = r.u32()?;
        let mut digests = Vec::with_capacity(digest_count as usize);
        for _ in 0..digest_count {
            digests.push((r.u64()?, r.u64()?));
        }
        subs.push(SubscriberState {
            id,
            digests,
            born,
            deadline,
            tier,
        });
    }
    if !r.is_empty() {
        return None; // trailing garbage
    }
    Some(MatchIndex::from_state(&IndexState {
        params,
        epoch,
        subs,
    }))
}

/// Encodes `state` into a self-contained byte snapshot.
pub(crate) fn encode_node(state: &NodeState) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u8(VERSION);
    w.u8(match state.role {
        Role::User => 0,
        Role::Broker => 1,
    });

    // Election log, oldest meeting first (replay order).
    w.u32(state.election.len() as u32);
    for (at, peer, was_broker, degree) in state.election.meetings() {
        w.time(at);
        w.u32(peer.index() as u32);
        w.flag(was_broker);
        w.u64(degree as u64);
    }

    // Relay state (brokers, and demoted brokers keep none).
    match &state.relay {
        None => w.flag(false),
        Some(relay) => {
            w.flag(true);
            let encoded = wire::encode(&relay.filter, CounterMode::Wide)
                .expect("relay filter fits the wire envelope");
            w.bytes(&encoded);
            w.u32(relay.filter.initial_counter());
            w.flag(relay.filter.is_merged());
            w.f64(relay.decayer.rate_per_min());
            w.f64(relay.decayer.residual());
            w.time(relay.last_decay);
            w.u32(relay.contact_log.len() as u32);
            for &t in &relay.contact_log {
                w.time(t);
            }
            match &relay.adaptive {
                None => w.flag(false),
                Some(a) => {
                    w.flag(true);
                    w.u64(a.last_ncol());
                    w.f64(a.current());
                }
            }
            let mut shadow: Vec<(&Arc<str>, u32)> =
                relay.shadow.iter().map(|(k, &c)| (k, c)).collect();
            shadow.sort_by(|a, b| a.0.cmp(b.0));
            w.u32(shadow.len() as u32);
            for (key, c) in shadow {
                w.str(key);
                w.u32(c);
            }
        }
    }

    // Carried copies (Vec order is behavioral — preserved as-is).
    w.u32(state.store.len() as u32);
    for carried in &state.store {
        w.message(&carried.msg);
        write_node_set(&mut w, &carried.delivered_to);
    }

    // Own publications.
    w.u32(state.published.len() as u32);
    for produced in &state.published {
        w.message(&produced.msg);
        w.u32(produced.copies_left);
        write_node_set(&mut w, &produced.delivered_to);
    }

    // Seen message ids.
    let mut seen: Vec<u64> = state.seen.iter().map(|id| id.raw()).collect();
    seen.sort_unstable();
    w.u32(seen.len() as u32);
    for id in seen {
        w.u64(id);
    }

    w.into_bytes()
}

/// Overwrites everything in `state` except the genuine filter (and its
/// sparse view) from a snapshot produced by [`encode_node`] under the
/// same `config`. Returns `false` — leaving `state` untouched — on any
/// malformed or config-incompatible input.
pub(crate) fn decode_node_into(state: &mut NodeState, config: &BsubConfig, bytes: &[u8]) -> bool {
    let Some(parsed) = parse(config, bytes) else {
        return false;
    };
    state.role = parsed.role;
    state.election = parsed.election;
    state.relay = parsed.relay;
    state.store = parsed.store;
    state.published = parsed.published;
    state.seen = parsed.seen;
    true
}

/// Everything [`decode_node_into`] replaces, parsed up-front so a
/// malformed snapshot rejects without half-mutating the node.
struct Parsed {
    role: Role,
    election: ElectionLog,
    relay: Option<RelayState>,
    store: Vec<Carried>,
    published: Vec<Produced>,
    seen: HashSet<MessageId>,
}

fn parse(config: &BsubConfig, bytes: &[u8]) -> Option<Parsed> {
    let mut r = SnapReader::new(bytes);
    if r.u8()? != VERSION {
        return None;
    }
    let role = match r.u8()? {
        0 => Role::User,
        1 => Role::Broker,
        _ => return None,
    };

    let mut election = ElectionLog::new();
    for _ in 0..r.u32()? {
        let at = r.time()?;
        let peer = NodeId::new(r.u32()?);
        let was_broker = r.flag()?;
        let degree = usize::try_from(r.u64()?).ok()?;
        election.record(at, peer, was_broker, degree);
    }

    let relay = if r.flag()? {
        let decoded = wire::decode(r.bytes()?).ok()?.into_tcbf()?;
        let initial = r.u32()?;
        let merged = r.flag()?;
        if decoded.bit_len() != config.bits || decoded.hash_count() != config.hashes {
            return None;
        }
        let filter = Tcbf::from_parts(
            decoded.counter_values(),
            config.hashes,
            initial,
            KeyHasher::default(),
            merged,
        );
        let rate = r.f64()?;
        let residual = r.f64()?;
        if !(0.0..1.0).contains(&residual) {
            return None;
        }
        let decayer = Decayer::restore(rate, residual);
        let last_decay = r.time()?;
        let mut contact_log = VecDeque::new();
        for _ in 0..r.u32()? {
            contact_log.push_back(r.time()?);
        }
        let adaptive = if r.flag()? {
            let last_ncol = r.u64()?;
            let current = r.f64()?;
            let DfMode::Auto { delta } = config.df else {
                return None; // snapshot/config DF-mode mismatch
            };
            let mut a = crate::df::AdaptiveDf::new(
                config.initial_counter,
                config.bits,
                config.hashes,
                config.delay_limit.as_mins(),
                delta,
            );
            a.restore_cache(last_ncol, current);
            Some(a)
        } else {
            None
        };
        let mut shadow = HashMap::new();
        for _ in 0..r.u32()? {
            let key: Arc<str> = Arc::from(r.str()?);
            let c = r.u32()?;
            shadow.insert(key, c);
        }
        Some(RelayState {
            filter,
            decayer,
            last_decay,
            contact_log,
            adaptive,
            shadow,
        })
    } else {
        None
    };

    let mut store = Vec::new();
    for _ in 0..r.u32()? {
        let msg = Arc::new(r.message()?);
        let delivered_to = read_node_set(&mut r)?;
        store.push(Carried { msg, delivered_to });
    }

    let mut published = Vec::new();
    for _ in 0..r.u32()? {
        let msg = Arc::new(r.message()?);
        let copies_left = r.u32()?;
        let delivered_to = read_node_set(&mut r)?;
        published.push(Produced {
            msg,
            copies_left,
            delivered_to,
        });
    }

    let mut seen = HashSet::new();
    for _ in 0..r.u32()? {
        seen.insert(MessageId::new(r.u64()?));
    }

    if !r.is_empty() {
        return None; // trailing garbage
    }
    Some(Parsed {
        role,
        election,
        relay,
        store,
        published,
        seen,
    })
}

fn write_node_set(w: &mut SnapWriter, set: &HashSet<NodeId>) {
    let mut ids: Vec<u32> = set.iter().map(|n| n.index() as u32).collect();
    ids.sort_unstable();
    w.u32(ids.len() as u32);
    for id in ids {
        w.u32(id);
    }
}

fn read_node_set(r: &mut SnapReader<'_>) -> Option<HashSet<NodeId>> {
    let mut set = HashSet::new();
    for _ in 0..r.u32()? {
        set.insert(NodeId::new(r.u32()?));
    }
    Some(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BsubProtocol;
    use bsub_sim::{GeneratedMessage, Protocol as _, SimConfig, Simulation, SubscriptionTable};
    use bsub_traces::synthetic::SyntheticTrace;
    use bsub_traces::SimDuration;

    /// Runs a dense little network long enough to exercise every state
    /// component: elections, relays with decay + adaptation, carried
    /// cargo, publications, and seen sets.
    fn worked_protocol() -> (BsubProtocol, SubscriptionTable) {
        let trace = SyntheticTrace::new("snap", 16, SimDuration::from_hours(12), 2500)
            .seed(11)
            .build();
        let mut subs = SubscriptionTable::new(16);
        for i in 0..16 {
            subs.subscribe(NodeId::new(i), if i % 2 == 0 { "news" } else { "sports" });
        }
        let sched: Vec<GeneratedMessage> = (0..12)
            .map(|k| GeneratedMessage {
                at: bsub_traces::SimTime::from_secs(100 + k * 600),
                producer: NodeId::new((k % 5) as u32),
                key: if k % 2 == 0 { "sports" } else { "news" }.into(),
                size: 120,
            })
            .collect();
        let sim = Simulation::new(trace, subs.clone(), sched, SimConfig::default());
        let mut bsub = BsubProtocol::new(BsubConfig::default(), &subs);
        let report = sim.run(&mut bsub);
        assert!(report.delivered > 0, "the run must do real work");
        assert!(bsub.broker_count() > 0);
        (bsub, subs)
    }

    /// export → import into a *fresh* sibling → re-export must be
    /// byte-identical, for every node — the canonical-ordering and
    /// exactness guarantees in one test.
    #[test]
    fn export_import_reexport_is_byte_identical() {
        let (bsub, subs) = worked_protocol();
        let mut sibling = BsubProtocol::new(bsub.config().clone(), &subs);
        for i in 0..16 {
            let node = NodeId::new(i);
            let snap = bsub.export_node(node).expect("B-SUB exports");
            assert!(sibling.import_node(node, &snap), "import accepts");
            let again = sibling.export_node(node).expect("re-export");
            assert_eq!(snap, again, "node {i} snapshot must round-trip exactly");
        }
        assert_eq!(sibling.broker_count(), bsub.broker_count());
        assert_eq!(sibling.carried_copies(), bsub.carried_copies());
        assert_eq!(sibling.max_relay_counter(), bsub.max_relay_counter());
    }

    /// The relay filter round-trips losslessly even when counters
    /// exceed the radio wire format's 255 saturation point.
    #[test]
    fn relay_counters_above_255_survive() {
        let subs = SubscriptionTable::new(2);
        let config = BsubConfig::default();
        let mut a = BsubProtocol::new(config.clone(), &subs);
        // Promote node 0 and reinforce one key far past 255.
        let strong = Tcbf::from_keys(config.bits, config.hashes, 300, ["hot"]);
        {
            let state = &mut a.nodes_mut()[0];
            state.promote(&config, bsub_traces::SimTime::ZERO);
            let relay = state.relay.as_mut().unwrap();
            relay.filter.a_merge(&strong).unwrap();
            relay.filter.a_merge(&strong).unwrap();
        }
        let before = a.max_relay_counter();
        assert!(before > 255, "test needs a saturating-range counter");

        let snap = a.export_node(NodeId::new(0)).unwrap();
        let mut b = BsubProtocol::new(config, &subs);
        assert!(b.import_node(NodeId::new(0), &snap));
        assert_eq!(b.max_relay_counter(), before, "no 255 saturation");
    }

    #[test]
    fn malformed_snapshots_reject_without_mutation() {
        let (bsub, subs) = worked_protocol();
        let node = NodeId::new(3);
        let good = bsub.export_node(node).unwrap();

        let mut sibling = BsubProtocol::new(bsub.config().clone(), &subs);
        assert!(sibling.import_node(node, &good));
        let baseline = sibling.export_node(node).unwrap();

        // Truncations and version/role corruption must all reject.
        assert!(!sibling.import_node(node, &good[..good.len() - 1]));
        assert!(!sibling.import_node(node, &[]));
        let mut bad = good.clone();
        bad[0] = VERSION + 1;
        assert!(!sibling.import_node(node, &bad));
        let mut bad = good.clone();
        bad[1] = 9; // invalid role
        assert!(!sibling.import_node(node, &bad));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(!sibling.import_node(node, &trailing));

        // And none of the rejects touched the node.
        assert_eq!(sibling.export_node(node).unwrap(), baseline);
    }

    /// Builds a worked match index: several tiers, deadline and
    /// plain subscriptions, decay in flight, and churn-driven
    /// compactions.
    fn worked_index() -> MatchIndex {
        let mut idx = MatchIndex::new(bsub_match::MatchParams {
            member_bits: 512,
            member_hashes: 4,
            initial: 8,
            tier_size: 4,
            tier_budget_bytes: 4 * 1024,
            keys_per_subscriber_hint: 2,
            compact_ratio: 0.5,
        });
        for id in 0..20u64 {
            let keys = vec![format!("topic-{}", id % 6), format!("extra-{id}")];
            if id % 3 == 0 {
                idx.subscribe_until(id, &keys, 50 + id);
            } else {
                idx.subscribe(id, &keys);
            }
            if id % 4 == 0 {
                idx.decay(1);
            }
        }
        for id in (0..20u64).step_by(5) {
            idx.unsubscribe(id);
        }
        idx
    }

    /// Snapshot → decode → re-snapshot must be byte-identical, and the
    /// decoded index must match events exactly like the original.
    #[test]
    fn match_index_snapshot_round_trips() {
        let idx = worked_index();
        let snap = encode_match_index(&idx);
        let back = decode_match_index(&snap).expect("decodes");
        assert_eq!(encode_match_index(&back), snap, "re-export byte-identical");
        assert_eq!(back.live_count(), idx.live_count());
        assert_eq!(back.epoch(), idx.epoch());
        let events: Vec<bsub_match::Event> = (0..8)
            .map(|t| bsub_match::Event::new(format!("topic-{t}")))
            .collect();
        assert_eq!(
            back.match_events(&events).matches,
            idx.match_events(&events).matches,
            "decoded index must match identically"
        );
        for id in 0..20u64 {
            assert_eq!(back.strength(id), idx.strength(id), "strength of {id}");
            assert_eq!(back.deadline(id), idx.deadline(id), "deadline of {id}");
        }
    }

    #[test]
    fn malformed_match_index_snapshots_reject() {
        let snap = encode_match_index(&worked_index());
        assert!(decode_match_index(&snap).is_some());
        assert!(decode_match_index(&[]).is_none());
        assert!(decode_match_index(&snap[..snap.len() - 1]).is_none());
        let mut trailing = snap.clone();
        trailing.push(0);
        assert!(decode_match_index(&trailing).is_none());
        let mut bad_version = snap.clone();
        bad_version[0] = INDEX_VERSION + 1;
        assert!(decode_match_index(&bad_version).is_none());
    }

    #[test]
    fn import_out_of_range_node_rejects() {
        let (bsub, subs) = worked_protocol();
        let snap = bsub.export_node(NodeId::new(0)).unwrap();
        let mut sibling = BsubProtocol::new(bsub.config().clone(), &subs);
        assert!(!sibling.import_node(NodeId::new(999), &snap));
        assert_eq!(bsub.export_node(NodeId::new(999)), None);
    }
}
