//! The B-SUB protocol proper: what happens on every contact
//! (Sections V-C and V-D).
//!
//! Contact processing order, mirroring the paper's narrative:
//!
//! 1. **Housekeeping** — prune expired messages, lazily decay relay
//!    filters to the contact time.
//! 2. **Identity exchange** — 8-byte beacons carrying id, role, and
//!    self-reported degree.
//! 3. **Broker election** — each side that is (still) a *user* applies
//!    the Section V-B rule about its peer. Sides are processed
//!    sequentially (lower id first): a node promoted in this very
//!    contact is a broker by the time its own turn comes, and "brokers
//!    themselves do not perform these operations" — this is what stops
//!    two users from blindly promoting each other into an all-broker
//!    network.
//! 4. **Interest propagation** — each consumer sends its genuine TCBF
//!    (shared-counter wire form) to a broker peer, which A-merges it
//!    (reinforcement); two brokers exchange relay filters (full wire
//!    form) and M-merge them — *after* step 5's forwarding decisions,
//!    as the paper specifies.
//! 5. **Message forwarding** —
//!    a. *producer → consumer* (any pair): the consumer's genuine
//!    filter, with counters ripped, selects matching published
//!    messages for direct delivery (not counted as copies);
//!    b. *producer → broker*: the broker's relay filter (ripped)
//!    selects messages to replicate, up to `ℂ` copies each; a
//!    message whose copies are exhausted leaves the producer's memory;
//!    c. *carrier → consumer*: whoever holds relayed copies hands over
//!    the ones matching the consumer's genuine filter — the only
//!    step where a Bloom false positive becomes a falsely *delivered*
//!    message;
//!    d. *broker ↔ broker*: each message is scored with the
//!    preferential query against the peer's pre-merge relay filter;
//!    positive-preference messages move (largest preference first)
//!    and leave the sender's store.
//!
//! Every filter and message transfer debits the contact's link budget;
//! when the budget runs out, the remaining steps simply don't happen
//! (the paper's motivation for compressing interests in the first
//! place).

use crate::broker::ElectionAction;
use crate::config::BsubConfig;
use crate::node::{Carried, NodeState, Produced, Role};
use bsub_bloom::wire::{self, CounterMode};
use bsub_match::ProbeCache;
use bsub_obs::{self as obs, Counter, Gauge};
use bsub_sim::{
    Link, MergeKind, Message, PreferenceValue, Protocol, SimCtx, SubscriptionTable, TraceEvent,
};
use bsub_traces::{ContactEvent, NodeId, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

/// Bytes of one identity beacon (id + role + degree).
const IDENTITY_BYTES: u64 = 8;

/// How a consumer's genuine filter reaches the serving side in
/// [`BsubProtocol::serve_consumer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FilterChannel {
    /// Plain consumer: the ripped filter must still be paid for (and
    /// may be corrupted in flight).
    Pay,
    /// A broker already received the filter intact during interest
    /// propagation; serving is free.
    Arrived,
    /// A broker was sent the filter but it was corrupted in flight:
    /// the serving side has nothing to match against this contact.
    Corrupted,
}

/// Fault injection: decides whether a filter transmission arriving at
/// `receiver` is corrupted in flight. Returns `true` when the receiver
/// must discard it (the wire bytes were damaged and failed to decode).
///
/// This routes the *actual* encoded bytes through the sim layer's
/// [`WireCorruption`](bsub_sim::WireCorruption) damage and the real
/// [`wire::decode`] rejection path, so the protocol exercises exactly
/// the validation a deployment would: a truncated or bit-flipped TCBF
/// never poisons receiver state, it is dropped at the codec.
fn corrupted_in_flight(
    ctx: &mut SimCtx<'_>,
    receiver: NodeId,
    filter: &bsub_bloom::Tcbf,
    mode: CounterMode,
    bytes: u64,
) -> bool {
    let Some(damage) = ctx.draw_corruption() else {
        return false;
    };
    let rejected = match wire::encode(filter, mode) {
        Ok(mut encoded) => {
            damage.apply(&mut encoded);
            wire::decode(&encoded).is_err()
        }
        Err(_) => true,
    };
    debug_assert!(rejected, "corrupted encodings must never decode");
    let at = ctx.now();
    ctx.emit(|| TraceEvent::ControlCorrupted {
        at,
        node: receiver,
        bytes,
    });
    rejected
}

/// The B-SUB protocol (implements [`bsub_sim::Protocol`]).
#[derive(Debug)]
pub struct BsubProtocol {
    config: BsubConfig,
    nodes: Vec<NodeState>,
    /// Contacts seen while profiling — schedules the sampled
    /// occupancy walk. Metrics-only state: never read by the
    /// protocol logic, untouched when profiling is off.
    occupancy_probe: u64,
}

impl BsubProtocol {
    /// Creates B-SUB state for every node in `subscriptions`, building
    /// each node's genuine filter from its own interests.
    #[must_use]
    pub fn new(config: BsubConfig, subscriptions: &SubscriptionTable) -> Self {
        let n = subscriptions.node_count();
        let mut nodes: Vec<NodeState> = (0..n)
            .map(|i| NodeState::new(&config, subscriptions.interests_of(NodeId::new(i))))
            .collect();
        if let crate::config::BrokerPolicy::Static(fraction) = config.broker_policy {
            // Evenly spread `ceil(fraction·n)` (at least one) static
            // brokers over the id space — no social awareness.
            let count = ((fraction * f64::from(n)).ceil() as u32).clamp(1, n.max(1));
            for k in 0..count {
                let idx = (u64::from(k) * u64::from(n) / u64::from(count)) as usize;
                nodes[idx].promote(&config, SimTime::ZERO);
            }
        }
        Self {
            config,
            nodes,
            occupancy_probe: 0,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &BsubConfig {
        &self.config
    }

    /// Current number of brokers.
    #[must_use]
    pub fn broker_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_broker()).count()
    }

    /// Current fraction of nodes acting as brokers (the paper keeps
    /// about 30% with L=3, U=5).
    #[must_use]
    pub fn broker_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            self.broker_count() as f64 / self.nodes.len() as f64
        }
    }

    /// The role of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the network.
    #[must_use]
    pub fn role_of(&self, node: NodeId) -> Role {
        self.nodes[node.index()].role
    }

    /// Total messages currently carried by brokers (diagnostics).
    #[must_use]
    pub fn carried_copies(&self) -> usize {
        self.nodes.iter().map(|n| n.store.len()).sum()
    }

    /// The largest counter value across all relay filters — the
    /// quantity Fig. 6 is about: bounded by reinforcement under
    /// M-merge, runaway under A-merge between brokers.
    #[must_use]
    pub fn max_relay_counter(&self) -> u32 {
        self.nodes
            .iter()
            .filter_map(|n| n.relay.as_ref())
            .map(|r| r.filter.max_counter_value())
            .max()
            .unwrap_or(0)
    }

    /// Test seam for the snapshot codec: direct access to node states.
    #[cfg(test)]
    pub(crate) fn nodes_mut(&mut self) -> &mut Vec<NodeState> {
        &mut self.nodes
    }

    /// One [`TraceEvent::Snapshot`] of network-wide gauges: broker
    /// population, buffered copies, mean relay fill / estimated FPR,
    /// and the largest relay counter (the Fig. 6 quantity).
    fn snapshot(&self, at: SimTime) -> TraceEvent {
        let brokers = self.broker_count() as u64;
        let buffered = self
            .nodes
            .iter()
            .map(|n| (n.store.len() + n.published.len()) as u64)
            .sum();
        let relays: Vec<f64> = self
            .nodes
            .iter()
            .filter_map(|n| n.relay.as_ref())
            .map(|r| r.filter.fill_ratio())
            .collect();
        let relay_fill = if relays.is_empty() {
            0.0
        } else {
            relays.iter().sum::<f64>() / relays.len() as f64
        };
        TraceEvent::Snapshot {
            at,
            brokers,
            buffered,
            relay_fill,
            relay_fpr: relay_fill.powi(self.config.hashes as i32),
            max_counter: self.max_relay_counter(),
        }
    }

    /// Current buffer occupancy across all nodes: resident messages
    /// (relayed copies plus unretired publications) and their payload
    /// bytes. Only walked when profiling is active.
    fn buffer_occupancy(&self) -> (u64, u64) {
        let mut msgs = 0u64;
        let mut bytes = 0u64;
        for n in &self.nodes {
            for c in &n.store {
                msgs = msgs.saturating_add(1);
                bytes = bytes.saturating_add(u64::from(c.msg.size));
            }
            for p in &n.published {
                msgs = msgs.saturating_add(1);
                bytes = bytes.saturating_add(u64::from(p.msg.size));
            }
        }
        (msgs, bytes)
    }

    fn housekeeping(&mut self, ctx: &mut SimCtx<'_>, node: NodeId, now: SimTime) {
        let state = &mut self.nodes[node.index()];
        let dropped = state.prune(now);
        state.election.prune(now, self.config.window);
        let mut decayed = 0;
        if let Some(relay) = &mut state.relay {
            decayed = relay.decay_to(now);
        }
        if dropped > 0 {
            ctx.emit(|| TraceEvent::Expired {
                at: now,
                node,
                count: dropped,
            });
        }
        if decayed > 0 {
            // The fill ratio is an O(m) filter walk; with lazy epoch
            // decay it would be the only per-decay walk left, so it is
            // computed inside the closure — recording runs pay it,
            // plain runs decay in O(1).
            let relay = self.nodes[node.index()].relay.as_ref().expect("decayed");
            ctx.emit(|| TraceEvent::FilterDecay {
                at: now,
                node,
                amount: decayed,
                fill: relay.filter.fill_ratio(),
            });
        }
    }

    /// Step 3: sequential election, lower-id side first. A no-op under
    /// the static broker ablation.
    fn election(&mut self, ctx: &mut SimCtx<'_>, now: SimTime, a: NodeId, b: NodeId) {
        if matches!(
            self.config.broker_policy,
            crate::config::BrokerPolicy::Static(_)
        ) {
            return;
        }
        for (me, peer) in [(a, b), (b, a)] {
            let peer_role = self.nodes[peer.index()].role;
            let peer_degree = self.nodes[peer.index()].election.degree();
            let my_state = &mut self.nodes[me.index()];
            let action = if my_state.role == Role::User {
                my_state.election.decide(
                    peer_role == Role::Broker,
                    peer_degree,
                    self.config.lower,
                    self.config.upper,
                )
            } else {
                ElectionAction::Keep
            };
            match action {
                ElectionAction::Promote => {
                    obs::count(Counter::ElectionPromote, 1);
                    self.nodes[peer.index()].promote(&self.config, now);
                    ctx.emit(|| TraceEvent::Promoted {
                        at: now,
                        node: peer,
                        peer: me,
                    });
                }
                ElectionAction::Demote => {
                    obs::count(Counter::ElectionDemote, 1);
                    self.nodes[peer.index()].demote();
                    ctx.emit(|| TraceEvent::Demoted {
                        at: now,
                        node: peer,
                        peer: me,
                    });
                }
                ElectionAction::Keep => {}
            }
            // Record the peer's post-action role: a user that just
            // promoted its peer has, from its own perspective, met a
            // broker — otherwise the L bound never engages and the
            // user keeps promoting everyone it meets.
            let peer_is_broker_now = self.nodes[peer.index()].is_broker();
            self.nodes[me.index()]
                .election
                .record(now, peer, peer_is_broker_now, peer_degree);
        }
    }

    /// Wire cost of a genuine filter: ripped for plain consumers,
    /// shared-counter TCBF when a broker will A-merge it.
    fn genuine_wire_bytes(&self, node: NodeId, with_counters: bool) -> u64 {
        let mode = if with_counters {
            CounterMode::Shared
        } else {
            CounterMode::Ripped
        };
        wire::encoded_len(
            self.nodes[node.index()].genuine.set_bits(),
            self.config.bits,
            mode,
        ) as u64
    }

    /// Step 4 (consumer → broker direction): A-merge `consumer`'s
    /// genuine filter into `broker`'s relay. Charges the wire cost.
    ///
    /// Returns `(continue, arrived)`: whether the contact may proceed
    /// (false only on link-budget exhaustion) and whether the filter
    /// actually arrived intact at a broker peer (false for non-broker
    /// peers and for transmissions corrupted in flight — the bytes were
    /// spent either way).
    fn propagate_interests(
        &mut self,
        ctx: &mut SimCtx<'_>,
        link: &mut Link,
        consumer: NodeId,
        broker: NodeId,
    ) -> (bool, bool) {
        if !self.nodes[broker.index()].is_broker() {
            return (true, false);
        }
        let bytes = self.genuine_wire_bytes(consumer, true);
        if !ctx.send_control(link, bytes) {
            return (false, false);
        }
        if corrupted_in_flight(
            ctx,
            broker,
            &self.nodes[consumer.index()].genuine,
            CounterMode::Shared,
            bytes,
        ) {
            return (true, false);
        }
        let interests = ctx.subscriptions().interests_of(consumer).to_vec();
        let now = ctx.now();
        let (consumer_state, broker_state) = two(&mut self.nodes, consumer.index(), broker.index());
        let relay = broker_state.relay.as_mut().expect("broker has relay");
        relay.absorb_genuine(
            &consumer_state.genuine_sparse,
            &interests,
            self.config.initial_counter,
        );
        relay.on_consumer_contact(now, &self.config);
        // The fill ratio is an O(m) walk per merge; compute it inside
        // the closure so only recording runs pay it (same pattern as
        // FilterDecay in `housekeeping`).
        let relay = &*relay;
        ctx.emit(|| TraceEvent::FilterMerge {
            at: now,
            node: broker,
            kind: MergeKind::Reinforce,
            fill: relay.filter.fill_ratio(),
        });
        (true, true)
    }

    /// Steps 5a + 5c: `src` serves `dst` as a consumer — direct
    /// deliveries from `src`'s own publications, plus handing over any
    /// relayed copies `src` carries. The consumer's genuine filter
    /// (ripped) is what `src` matches against; how it reaches `src` is
    /// the [`FilterChannel`]: paid for here for plain consumers,
    /// already delivered during interest propagation for brokers — or
    /// corrupted in flight, in which case `src` has nothing to match
    /// against and this contact serves nothing (but continues).
    fn serve_consumer(
        &mut self,
        ctx: &mut SimCtx<'_>,
        link: &mut Link,
        probes: &mut ProbeCache,
        src: NodeId,
        dst: NodeId,
        channel: FilterChannel,
    ) -> bool {
        let has_content = !self.nodes[src.index()].published.is_empty()
            || !self.nodes[src.index()].store.is_empty();
        if !has_content {
            return true;
        }
        match channel {
            FilterChannel::Arrived => {}
            FilterChannel::Corrupted => return true,
            FilterChannel::Pay => {
                let bytes = self.genuine_wire_bytes(dst, false);
                if !ctx.send_control(link, bytes) {
                    return false;
                }
                if corrupted_in_flight(
                    ctx,
                    src,
                    &self.nodes[dst.index()].genuine,
                    CounterMode::Ripped,
                    bytes,
                ) {
                    return true;
                }
            }
        }
        let dst_bloom = self.nodes[dst.index()].genuine.to_bloom();
        let now = ctx.now();

        // 5a: direct producer → consumer (not counted as copies).
        let src_state = &mut self.nodes[src.index()];
        for produced in &mut src_state.published {
            obs::count(Counter::MatchChecked, 1);
            if produced.msg.is_expired(now)
                || produced.delivered_to.contains(&dst)
                || produced.msg.producer == dst
                || !probes.contains(
                    produced.msg.id.raw(),
                    produced.msg.key.as_bytes(),
                    &dst_bloom,
                )
            {
                continue;
            }
            if !ctx.transfer_message(link, &produced.msg) {
                return false;
            }
            obs::count(Counter::MatchHit, 1);
            produced.delivered_to.insert(dst);
            let _ = ctx.deliver(dst, &produced.msg);
        }

        // 5c: relayed copies → consumer.
        for carried in &mut src_state.store {
            obs::count(Counter::MatchChecked, 1);
            if carried.msg.is_expired(now)
                || carried.delivered_to.contains(&dst)
                || carried.msg.producer == dst
                || !probes.contains(carried.msg.id.raw(), carried.msg.key.as_bytes(), &dst_bloom)
            {
                continue;
            }
            if !ctx.transfer_message(link, &carried.msg) {
                return false;
            }
            obs::count(Counter::MatchHit, 1);
            carried.delivered_to.insert(dst);
            let _ = ctx.deliver(dst, &carried.msg);
        }
        true
    }

    /// Step 5b: `producer` replicates matching publications to
    /// `broker`, bounded by the per-message copy limit ℂ. The broker's
    /// relay filter travels counter-less ("we reduce the communication
    /// overhead by ripping the counters from the TCBFs").
    fn replicate_to_broker(
        &mut self,
        ctx: &mut SimCtx<'_>,
        link: &mut Link,
        probes: &mut ProbeCache,
        producer: NodeId,
        broker: NodeId,
    ) -> bool {
        if !self.nodes[broker.index()].is_broker() {
            return true;
        }
        if self.nodes[producer.index()].published.is_empty() {
            return true;
        }
        let relay_bits = self.nodes[broker.index()]
            .relay
            .as_ref()
            .expect("broker has relay")
            .filter
            .set_bits();
        let bytes = wire::encoded_len(relay_bits, self.config.bits, CounterMode::Ripped) as u64;
        if !ctx.send_control(link, bytes) {
            return false;
        }
        {
            let relay_filter = &self.nodes[broker.index()]
                .relay
                .as_ref()
                .expect("broker has relay")
                .filter;
            if corrupted_in_flight(ctx, producer, relay_filter, CounterMode::Ripped, bytes) {
                // The producer can't see the broker's interests this
                // contact; no replication, but the contact continues.
                return true;
            }
        }
        let now = ctx.now();
        let (producer_state, broker_state) = two(&mut self.nodes, producer.index(), broker.index());
        let relay_bloom = broker_state
            .relay
            .as_ref()
            .expect("broker has relay")
            .filter
            .to_bloom();
        let mut budget_hit = false;
        for produced in &mut producer_state.published {
            obs::count(Counter::MatchChecked, 1);
            if produced.copies_left == 0
                || produced.msg.is_expired(now)
                || broker_state.seen.contains(&produced.msg.id)
                || !probes.contains(
                    produced.msg.id.raw(),
                    produced.msg.key.as_bytes(),
                    &relay_bloom,
                )
            {
                continue;
            }
            if !ctx.transfer_message(link, &produced.msg) {
                budget_hit = true;
                break;
            }
            obs::count(Counter::MatchHit, 1);
            // Ground truth: was this acceptance a pure Bloom FP?
            let fp = !broker_state
                .relay
                .as_ref()
                .expect("broker")
                .truly_holds(&produced.msg.key);
            produced.copies_left -= 1;
            broker_state.seen.insert(produced.msg.id);
            broker_state.store.push(Carried {
                msg: Arc::clone(&produced.msg),
                delivered_to: HashSet::new(),
            });
            ctx.record_injection(broker, &produced.msg, fp);
        }
        // "The message is removed from the producer's memory after its
        // copy number reaches the limit."
        producer_state.published.retain(|p| p.copies_left > 0);
        !budget_hit
    }

    /// Step 5d: preferential broker ↔ broker handoff, then M-merge.
    fn broker_exchange(
        &mut self,
        ctx: &mut SimCtx<'_>,
        link: &mut Link,
        a: NodeId,
        b: NodeId,
    ) -> bool {
        if !(self.nodes[a.index()].is_broker() && self.nodes[b.index()].is_broker()) {
            return true;
        }
        // Exchange relay filters (full counters — the preferential
        // query needs them).
        let cost = |node: &NodeState| {
            wire::encoded_len(
                node.relay.as_ref().expect("broker").filter.set_bits(),
                self.config.bits,
                CounterMode::Full,
            ) as u64
        };
        let cost_a = cost(&self.nodes[a.index()]);
        let cost_b = cost(&self.nodes[b.index()]);
        if !ctx.send_control(link, cost_a + cost_b) {
            return false;
        }

        // Snapshot the pre-merge filters (and shadows): forwarding
        // decisions use them, and both directions must see the same
        // state.
        let relay_a = self.nodes[a.index()].relay.as_ref().expect("broker");
        let relay_b = self.nodes[b.index()].relay.as_ref().expect("broker");
        let filter_a = relay_a.filter.clone();
        let filter_b = relay_b.filter.clone();
        let shadow_a = relay_a.shadow.clone();
        let shadow_b = relay_b.shadow.clone();

        // Each direction's filter transmission can be corrupted
        // independently; a side that received a damaged filter neither
        // hands off (it can't score preferences) nor merges.
        let a_received_b = !corrupted_in_flight(ctx, a, &filter_b, CounterMode::Full, cost_b);
        let b_received_a = !corrupted_in_flight(ctx, b, &filter_a, CounterMode::Full, cost_a);

        let mut ok = true;
        for (src, dst, src_filter, dst_filter, received) in [
            (a, b, &filter_a, &filter_b, a_received_b),
            (b, a, &filter_b, &filter_a, b_received_a),
        ] {
            // `src` needs `dst`'s filter to score the handoff.
            if !received {
                continue;
            }
            if !self.handoff(ctx, link, src, dst, src_filter, dst_filter) {
                ok = false;
                break;
            }
        }

        // Merge after forwarding ("make message forwarding decisions
        // before merging their relay filters"). M-merge per the paper;
        // the Additive rule exists to reproduce Fig. 6's pathology.
        let rule = self.config.merge_rule;
        let kind = match rule {
            crate::config::MergeRule::Maximum => MergeKind::RelayMax,
            crate::config::MergeRule::Additive => MergeKind::RelayAdditive,
        };
        let now = ctx.now();
        let (state_a, state_b) = two(&mut self.nodes, a.index(), b.index());
        if a_received_b {
            let relay_a = state_a.relay.as_mut().expect("broker");
            relay_a.absorb_relay(&filter_b, &shadow_b, rule);
        }
        if b_received_a {
            let relay_b = state_b.relay.as_mut().expect("broker");
            if a_received_b {
                // Both directions succeeded: each side merges the
                // other's pre-contact snapshot, and the merge rules
                // are commutative, so side a (which merged first)
                // already holds exactly the array side b would
                // compute. Adopt it by copy instead of re-running the
                // O(m) combining pass. Nothing mutates either relay
                // filter between the snapshots and this point — the
                // handoff only moves messages.
                let relay_a = state_a.relay.as_ref().expect("broker");
                relay_b.absorb_relay_adopted(&relay_a.filter, &shadow_a, rule);
            } else {
                relay_b.absorb_relay(&filter_a, &shadow_a, rule);
            }
        }
        // Fill ratios are O(m) walks; compute them inside the closures
        // so only recording runs pay them.
        if a_received_b {
            let relay_a = state_a.relay.as_ref().expect("broker");
            ctx.emit(|| TraceEvent::FilterMerge {
                at: now,
                node: a,
                kind,
                fill: relay_a.filter.fill_ratio(),
            });
        }
        if b_received_a {
            let relay_b = state_b.relay.as_ref().expect("broker");
            ctx.emit(|| TraceEvent::FilterMerge {
                at: now,
                node: b,
                kind,
                fill: relay_b.filter.fill_ratio(),
            });
        }
        ok
    }

    /// Moves the positive-preference messages of `src` to `dst`,
    /// best-preference first.
    fn handoff(
        &mut self,
        ctx: &mut SimCtx<'_>,
        link: &mut Link,
        src: NodeId,
        dst: NodeId,
        src_filter: &bsub_bloom::Tcbf,
        dst_filter: &bsub_bloom::Tcbf,
    ) -> bool {
        let now = ctx.now();
        let mut candidates: Vec<(usize, bsub_bloom::Preference)> = Vec::new();
        {
            let src_state = &self.nodes[src.index()];
            let dst_state = &self.nodes[dst.index()];
            for (i, carried) in src_state.store.iter().enumerate() {
                if carried.msg.is_expired(now) || dst_state.seen.contains(&carried.msg.id) {
                    continue;
                }
                match self.config.forwarding {
                    crate::config::ForwardingPolicy::Preferential => {
                        let pref = dst_filter
                            .preference(src_filter, carried.msg.key.as_bytes())
                            .expect("parameters match");
                        if pref.is_positive() {
                            candidates.push((i, pref));
                        }
                    }
                    crate::config::ForwardingPolicy::AnyMatch => {
                        if dst_filter.contains(carried.msg.key.as_bytes()) {
                            candidates.push((i, bsub_bloom::Preference::Relative(0)));
                        }
                    }
                }
            }
        }
        // "Those messages that have the largest positive preference are
        // forwarded first."
        candidates.sort_by_key(|&(_, pref)| std::cmp::Reverse(pref));

        let preferential = matches!(
            self.config.forwarding,
            crate::config::ForwardingPolicy::Preferential
        );
        let mut moved: Vec<usize> = Vec::new();
        let mut ok = true;
        for (idx, pref) in candidates {
            let msg = Arc::clone(&self.nodes[src.index()].store[idx].msg);
            if !ctx.transfer_message(link, &msg) {
                ok = false;
                break;
            }
            ctx.emit(|| TraceEvent::ForwardingDecision {
                at: now,
                from: src,
                to: dst,
                msg: msg.id,
                preference: preferential.then_some(match pref {
                    bsub_bloom::Preference::Relative(v) => PreferenceValue {
                        absolute: false,
                        value: v,
                    },
                    bsub_bloom::Preference::Absolute(v) => PreferenceValue {
                        absolute: true,
                        value: v,
                    },
                }),
            });
            moved.push(idx);
        }
        // "Messages are removed from brokers' memory after being
        // forwarded" — move, don't copy.
        moved.sort_unstable_by(|x, y| y.cmp(x)); // remove from the back
        for idx in moved {
            let carried = self.nodes[src.index()].store.swap_remove(idx);
            let dst_state = &mut self.nodes[dst.index()];
            dst_state.seen.insert(carried.msg.id);
            dst_state.store.push(carried);
        }
        ok
    }
}

impl Protocol for BsubProtocol {
    fn name(&self) -> &str {
        "B-SUB"
    }

    fn on_message(&mut self, _ctx: &mut SimCtx<'_>, msg: &Arc<Message>) {
        let state = &mut self.nodes[msg.producer.index()];
        state.seen.insert(msg.id);
        state.published.push(Produced {
            msg: Arc::clone(msg),
            copies_left: self.config.copies,
            delivered_to: HashSet::new(),
        });
    }

    fn on_node_reset(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        let now = ctx.now();
        let Self { config, nodes, .. } = self;
        nodes[node.index()].reset_volatile(config, now);
    }

    /// Serializes `node`'s full state for cross-process shipping by the
    /// networked runtime; see the `snapshot` module for the format and
    /// exactness contract.
    fn export_node(&self, node: NodeId) -> Option<Vec<u8>> {
        let state = self.nodes.get(node.index())?;
        Some(crate::snapshot::encode_node(state))
    }

    fn import_node(&mut self, node: NodeId, bytes: &[u8]) -> bool {
        let Self { config, nodes, .. } = self;
        let Some(state) = nodes.get_mut(node.index()) else {
            return false;
        };
        crate::snapshot::decode_node_into(state, config, bytes)
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: &ContactEvent, link: &mut Link) {
        let (a, b) = (contact.a, contact.b);
        let now = ctx.now();

        // 1. Housekeeping.
        self.housekeeping(ctx, a, now);
        self.housekeeping(ctx, b, now);

        // Profiling: refresh the buffer-occupancy gauges on a sampled
        // schedule (first contact, then every
        // `OCCUPANCY_SAMPLE_PERIOD`-th) — the walk is
        // O(nodes × buffered messages), too heavy for every contact.
        // Guarded like the snapshot emission below, so unprofiled runs
        // never pay for it.
        if obs::is_active() {
            if self
                .occupancy_probe
                .is_multiple_of(obs::OCCUPANCY_SAMPLE_PERIOD)
            {
                let (msgs, bytes) = self.buffer_occupancy();
                obs::gauge_set(Gauge::BufferMsgs, msgs);
                obs::gauge_set(Gauge::BufferBytes, bytes);
            }
            self.occupancy_probe = self.occupancy_probe.wrapping_add(1);
        }

        // 2. Identity beacons.
        if !ctx.send_control(link, 2 * IDENTITY_BYTES) {
            return;
        }

        // 3. Election (may change roles for the rest of the contact).
        self.election(ctx, now, a, b);

        // 4. Interest propagation (consumer → broker, both directions).
        let a_is_broker = self.nodes[a.index()].is_broker();
        let b_is_broker = self.nodes[b.index()].is_broker();
        // `propagate_interests(x, y)` sends x's filter to broker y, so
        // its `arrived` flag tells whether *y* can later serve x.
        let (go, b_got_a) = self.propagate_interests(ctx, link, a, b);
        if !go {
            return;
        }
        let (go, a_got_b) = self.propagate_interests(ctx, link, b, a);
        if !go {
            return;
        }

        // 5a + 5c: serve each side as a consumer. The genuine filter
        // already traveled (with counters) if the serving side is a
        // broker — unless it was corrupted in flight.
        //
        // A contact probes the same message against up to two filters
        // (a genuine bloom in 5a/5c, a relay bloom in 5b); the probe
        // cache hashes each message key once per contact and replays
        // the digest pair — the decisions are bit-identical to direct
        // `contains` calls.
        let mut probes = ProbeCache::new(self.nodes[a.index()].genuine.hasher());
        let channel = |server_is_broker: bool, arrived: bool| {
            if !server_is_broker {
                FilterChannel::Pay
            } else if arrived {
                FilterChannel::Arrived
            } else {
                FilterChannel::Corrupted
            }
        };
        if !self.serve_consumer(ctx, link, &mut probes, a, b, channel(a_is_broker, a_got_b)) {
            return;
        }
        if !self.serve_consumer(ctx, link, &mut probes, b, a, channel(b_is_broker, b_got_a)) {
            return;
        }

        // 5b: producers replicate to brokers.
        if !self.replicate_to_broker(ctx, link, &mut probes, a, b) {
            return;
        }
        if !self.replicate_to_broker(ctx, link, &mut probes, b, a) {
            return;
        }

        // 5d: broker ↔ broker preferential handoff + M-merge.
        let _ = self.broker_exchange(ctx, link, a, b);

        // Observability: one network-wide gauge sample per contact. The
        // O(n) walk happens inside the closure, so a NullRecorder run
        // never pays for it.
        ctx.emit(|| self.snapshot(now));
    }
}

/// Mutably borrows two distinct elements of a slice.
fn two<T>(slice: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "need two distinct nodes");
    if i < j {
        let (lo, hi) = slice.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = slice.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DfMode;
    use bsub_sim::{GeneratedMessage, SimConfig, Simulation};
    use bsub_traces::{ContactTrace, SimDuration};

    fn contact(a: u32, b: u32, start_s: u64, end_s: u64) -> ContactEvent {
        ContactEvent::new(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start_s),
            SimTime::from_secs(end_s),
        )
    }

    fn message(at_s: u64, producer: u32, key: &str) -> GeneratedMessage {
        GeneratedMessage {
            at: SimTime::from_secs(at_s),
            producer: NodeId::new(producer),
            key: key.into(),
            size: 100,
        }
    }

    fn config() -> BsubConfig {
        BsubConfig::builder().df(DfMode::Fixed(0.01)).build()
    }

    #[test]
    fn first_contact_promotes_one_side() {
        // Two users meet: the lower-id side elects first and promotes
        // the peer; the peer, now a broker, does not elect.
        let trace = ContactTrace::new("p", 2, vec![contact(0, 1, 10, 100)]).unwrap();
        let subs = SubscriptionTable::new(2);
        let sched = Vec::new();
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(config(), &subs);
        let _ = sim.run(&mut bsub);
        assert_eq!(bsub.role_of(NodeId::new(0)), Role::User);
        assert_eq!(bsub.role_of(NodeId::new(1)), Role::Broker);
        assert_eq!(bsub.broker_count(), 1);
    }

    #[test]
    fn direct_producer_consumer_delivery() {
        let trace = ContactTrace::new("d", 2, vec![contact(0, 1, 100, 400)]).unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(config(), &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.delivered, 1, "direct delivery on first meeting");
        assert!(report.control_bytes > 0, "filters cost control bytes");
    }

    #[test]
    fn three_hop_relay_through_broker() {
        // 3 = broker candidate. Schedule:
        //   t=100  consumer(2) meets 3   (3 promoted; learns interest)
        //   t=500  producer(0) meets 3   (copy pushed to broker)
        //   t=900  3 meets consumer(2)   (delivery)
        // 0 and 2 never meet.
        let trace = ContactTrace::new(
            "relay",
            4,
            vec![
                contact(2, 3, 100, 300),
                contact(0, 3, 500, 700),
                contact(2, 3, 900, 1100),
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(4);
        subs.subscribe(NodeId::new(2), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(config(), &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.delivered, 1, "broker-relayed delivery");
        assert_eq!(report.forwardings, 2, "producer→broker and broker→consumer");
    }

    /// Replication shares the payload: the broker's carried copy and
    /// the producer's published entry point at the same allocation.
    #[test]
    fn replication_shares_payload_allocation() {
        let trace = ContactTrace::new(
            "share",
            4,
            vec![contact(2, 3, 100, 300), contact(0, 3, 500, 700)],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(4);
        subs.subscribe(NodeId::new(2), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(trace, subs.clone(), sched, SimConfig::default());
        let mut bsub = BsubProtocol::new(config(), &subs);
        let _ = sim.run(&mut bsub);
        let produced = &bsub.nodes[0].published[0];
        let carried = &bsub.nodes[3].store[0];
        assert!(
            Arc::ptr_eq(&produced.msg, &carried.msg),
            "producer and broker share one payload allocation"
        );
    }

    #[test]
    fn copy_limit_respected() {
        // One producer meets four brokers whose relay filters all match;
        // with ℂ = 3 only three replications may happen. Consumer 0
        // promotes nodes 2..=5 on first meeting (L = 4 here so all four
        // get promoted) and teaches them its interest.
        let mut events = Vec::new();
        for (i, broker) in (2..=5).enumerate() {
            events.push(contact(
                0,
                broker,
                50 + i as u64 * 100,
                100 + i as u64 * 100,
            ));
        }
        // Producer 1 then meets each broker.
        for (i, broker) in (2..=5).enumerate() {
            events.push(contact(
                1,
                broker,
                1000 + i as u64 * 100,
                1050 + i as u64 * 100,
            ));
        }
        let trace = ContactTrace::new("copies", 6, events).unwrap();
        let mut subs = SubscriptionTable::new(6);
        subs.subscribe(NodeId::new(0), "news");
        let sched = vec![message(10, 1, "news")];
        let cfg = BsubConfig::builder()
            .df(DfMode::Fixed(0.01))
            .lower(4)
            .upper(6)
            .build();
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(cfg, &subs);
        let report = sim.run(&mut bsub);
        // All four brokers exist and match, but ℂ = 3 caps replication.
        assert_eq!(bsub.broker_count(), 4);
        assert_eq!(
            report.forwardings, 3,
            "exactly ℂ broker replications, producer never meets the consumer"
        );
        assert_eq!(bsub.carried_copies(), 3);
    }

    #[test]
    fn decay_forgets_stale_interests() {
        // Broker learns an interest, then a very long gap passes before
        // the producer arrives: with a fast DF the interest is gone and
        // no replication happens. (The lower-id side of a first
        // user-user contact promotes the higher id, so node 2 becomes
        // the broker when consumer 0 meets it.)
        let trace = ContactTrace::new(
            "decay",
            3,
            vec![
                contact(0, 2, 100, 200),         // consumer 0 → broker 2
                contact(1, 2, 100_000, 100_100), // producer 1 meets 2 much later
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(0), "news");
        let sched = vec![message(10, 1, "news")];
        let fast_decay = BsubConfig::builder().df(DfMode::Fixed(2.0)).build();
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(fast_decay, &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.forwardings, 0, "decayed interest stops replication");
    }

    #[test]
    fn no_decay_keeps_interests_forever() {
        let trace = ContactTrace::new(
            "nodecay",
            3,
            vec![
                contact(0, 2, 100, 200),         // consumer 0 promotes/teaches 2
                contact(1, 2, 100_000, 100_100), // producer 1 pushes a copy
                contact(0, 2, 150_000, 150_100), // broker 2 delivers
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(0), "news");
        let sched = vec![message(10, 1, "news")];
        let cfg = BsubConfig::builder().df(DfMode::Disabled).build();
        let sim_cfg = SimConfig {
            ttl: SimDuration::from_days(30),
            ..SimConfig::default()
        };
        let sim = Simulation::new(trace.clone(), subs.clone(), sched.clone(), sim_cfg);
        let mut bsub = BsubProtocol::new(cfg, &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.delivered, 1, "without decay the relay remembers");
    }

    #[test]
    fn broker_to_broker_preferential_handoff() {
        // Broker 2 gets the message but never meets the consumer again;
        // broker 3 meets the consumer often (reinforced interest) and
        // then meets broker 2, which should hand the message over.
        // Consumer is node 0 (lowest id: it elects, it never gets
        // promoted itself once it has met enough brokers).
        let trace = ContactTrace::new(
            "handoff",
            4,
            vec![
                contact(0, 3, 100, 200),   // consumer 0 promotes+teaches broker 3
                contact(0, 3, 300, 400),   // reinforcement
                contact(0, 2, 500, 600),   // consumer 0 promotes+teaches broker 2 once
                contact(1, 2, 700, 800),   // producer 1 → broker 2 (copy)
                contact(2, 3, 900, 1000),  // brokers meet: prefer 3
                contact(0, 3, 1200, 1300), // broker 3 delivers
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(4);
        subs.subscribe(NodeId::new(0), "news");
        let sched = vec![message(10, 1, "news")];
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(config(), &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.delivered, 1);
        // producer→2, 2→3 handoff, 3→consumer: 3 forwardings. (The
        // first 0↔3 contacts predate the message.)
        assert_eq!(report.forwardings, 3);
    }

    #[test]
    fn handoff_removes_from_sender() {
        // After a broker hands a message off, its store is empty —
        // Section V-D: "Messages are removed from brokers' memory
        // after being forwarded."
        let trace = ContactTrace::new(
            "move",
            4,
            vec![
                contact(0, 3, 100, 200), // consumer 0 teaches broker 3 (twice)
                contact(0, 3, 250, 350),
                contact(0, 2, 400, 500), // consumer 0 teaches broker 2 once
                contact(1, 2, 600, 700), // producer 1 → broker 2
                contact(2, 3, 800, 900), // handoff 2 → 3
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(4);
        subs.subscribe(NodeId::new(0), "news");
        let sched = vec![message(10, 1, "news")];
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(config(), &subs);
        let _ = sim.run(&mut bsub);
        assert_eq!(
            bsub.carried_copies(),
            1,
            "exactly one copy lives on (moved, not duplicated)"
        );
    }

    #[test]
    fn bandwidth_exhaustion_stops_gracefully() {
        let trace = ContactTrace::new("bw", 2, vec![contact(0, 1, 100, 101)]).unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news")];
        let sim_cfg = SimConfig {
            bytes_per_sec: 10, // 10-byte budget: identity beacons fail
            ..SimConfig::default()
        };
        let sim = Simulation::new(trace.clone(), subs.clone(), sched.clone(), sim_cfg);
        let mut bsub = BsubProtocol::new(config(), &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.forwardings, 0);
        assert!(report.total_bytes() <= 10);
    }

    #[test]
    fn no_duplicate_direct_delivery_across_contacts() {
        let trace = ContactTrace::new(
            "dup",
            2,
            vec![contact(0, 1, 100, 200), contact(0, 1, 500, 600)],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(config(), &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.forwardings, 1, "delivered_to suppresses resend");
    }

    #[test]
    fn broker_fraction_stays_partial_on_dense_trace() {
        use bsub_traces::synthetic::SyntheticTrace;
        let trace = SyntheticTrace::new("frac", 40, SimDuration::from_hours(24), 8000)
            .seed(3)
            .build();
        let subs = SubscriptionTable::new(40);
        let sched = Vec::new();
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let mut bsub = BsubProtocol::new(config(), &subs);
        let _ = sim.run(&mut bsub);
        let frac = bsub.broker_fraction();
        assert!(
            frac > 0.05 && frac < 0.95,
            "election should stabilize between extremes, got {frac}"
        );
    }

    #[test]
    fn two_helper() {
        let mut v = vec![10, 20, 30];
        let (a, b) = two(&mut v, 2, 1);
        assert_eq!((*a, *b), (30, 20));
    }

    #[test]
    fn election_demotes_low_degree_broker() {
        // With L = U = 1: node 0 promotes node 5, later learns of the
        // better-connected broker 6, and on the next meeting demotes 5
        // (degree 1, below the average of the brokers 0 knows).
        let trace = ContactTrace::new(
            "demote",
            8,
            vec![
                contact(1, 6, 100, 150), // 1 promotes 6
                contact(2, 6, 200, 250), // 6's degree grows to 2
                contact(3, 6, 300, 350), // ... and 3
                contact(0, 5, 500, 550), // 0 promotes 5 (degree 0 at beacon time)
                contact(0, 6, 600, 650), // 0 now knows two brokers
                contact(0, 5, 700, 750), // brokers_met > U: demote low-degree 5
            ],
        )
        .unwrap();
        let subs = SubscriptionTable::new(8);
        let cfg = BsubConfig::builder()
            .df(DfMode::Fixed(0.01))
            .lower(1)
            .upper(1)
            .build();
        let mut bsub = BsubProtocol::new(cfg, &subs);
        let sched = Vec::new();
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let _ = sim.run(&mut bsub);
        assert_eq!(bsub.role_of(NodeId::new(5)), Role::User, "demoted");
        assert_eq!(bsub.role_of(NodeId::new(6)), Role::Broker, "kept");
    }

    #[test]
    fn demoted_broker_still_delivers_cargo() {
        // Node 5 collects a copy as a broker, is demoted, and still
        // hands the message to the consumer it later meets — carried
        // messages survive demotion (only the relay filter is
        // dropped).
        let trace = ContactTrace::new(
            "cargo",
            8,
            vec![
                contact(4, 5, 50, 100),  // consumer 4 promotes+teaches 5
                contact(7, 5, 200, 250), // producer 7 pushes the copy
                // Build up broker 6 (degree 5, above 5's degree of 2)
                // and demote 5, seen from node 4: L = U = 1.
                contact(1, 6, 300, 350),
                contact(2, 6, 400, 450),
                contact(3, 6, 500, 550),
                contact(0, 6, 560, 570),
                contact(6, 7, 580, 590),
                contact(4, 6, 600, 650),
                contact(4, 5, 700, 750), // demotion contact — and delivery
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(8);
        subs.subscribe(NodeId::new(4), "news");
        let cfg = BsubConfig::builder()
            .df(DfMode::Fixed(0.001))
            .lower(1)
            .upper(1)
            .build();
        let mut bsub = BsubProtocol::new(cfg, &subs);
        let sched = vec![message(10, 7, "news")];
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let report = sim.run(&mut bsub);
        assert_eq!(bsub.role_of(NodeId::new(5)), Role::User, "5 was demoted");
        assert_eq!(report.delivered, 1, "cargo outlives the brokership");
    }

    #[test]
    fn static_broker_policy_skips_election() {
        use crate::config::BrokerPolicy;
        let trace = ContactTrace::new(
            "static",
            10,
            vec![contact(0, 1, 10, 100), contact(2, 3, 200, 300)],
        )
        .unwrap();
        let subs = SubscriptionTable::new(10);
        let cfg = BsubConfig::builder()
            .df(DfMode::Fixed(0.01))
            .broker_policy(BrokerPolicy::Static(0.3))
            .build();
        let mut bsub = BsubProtocol::new(cfg, &subs);
        assert_eq!(bsub.broker_count(), 3, "ceil(0.3 * 10)");
        let before: Vec<Role> = (0..10).map(|i| bsub.role_of(NodeId::new(i))).collect();
        let sched = Vec::new();
        let sim = Simulation::new(
            trace.clone(),
            subs.clone(),
            sched.clone(),
            SimConfig::default(),
        );
        let _ = sim.run(&mut bsub);
        let after: Vec<Role> = (0..10).map(|i| bsub.role_of(NodeId::new(i))).collect();
        assert_eq!(before, after, "roles frozen under the static policy");
    }

    #[test]
    fn static_policy_always_has_a_broker() {
        use crate::config::BrokerPolicy;
        let subs = SubscriptionTable::new(5);
        let cfg = BsubConfig::builder()
            .broker_policy(BrokerPolicy::Static(0.0))
            .build();
        let bsub = BsubProtocol::new(cfg, &subs);
        assert_eq!(bsub.broker_count(), 1);
    }

    #[test]
    fn additive_merge_rule_inflates_counters() {
        use crate::config::MergeRule;
        // Fig. 6's pathology, end to end: two brokers meet repeatedly;
        // under A-merge their counters for a once-seen interest blow
        // up, under M-merge they stay bounded by the reinforcement.
        let mut events = vec![contact(0, 3, 10, 50)]; // consumer 0 teaches broker 3 once
        events.push(contact(0, 2, 60, 90)); // consumer 0 teaches broker 2 once
        for i in 0..20 {
            events.push(contact(2, 3, 200 + i * 100, 250 + i * 100)); // brokers churn
        }
        let trace = ContactTrace::new("fig6", 4, events).unwrap();
        let mut subs = SubscriptionTable::new(4);
        subs.subscribe(NodeId::new(0), "news");
        let sched = Vec::new();

        let run = |rule: MergeRule| {
            let cfg = BsubConfig::builder()
                .df(DfMode::Disabled)
                .merge_rule(rule)
                .build();
            let mut bsub = BsubProtocol::new(cfg, &subs);
            let sim = Simulation::new(
                trace.clone(),
                subs.clone(),
                sched.clone(),
                SimConfig::default(),
            );
            let _ = sim.run(&mut bsub);
            bsub.max_relay_counter()
        };
        let bounded = run(MergeRule::Maximum);
        let inflated = run(MergeRule::Additive);
        assert_eq!(bounded, 50, "M-merge: one insertion stays at C");
        assert!(
            inflated >= 50 * 20,
            "A-merge between brokers compounds: {inflated}"
        );
    }

    #[test]
    fn total_corruption_never_poisons_state() {
        use bsub_sim::fault::PPM;
        use bsub_sim::FaultSpec;
        // Same schedule as `three_hop_relay_through_broker`, but every
        // filter transmission is corrupted in flight. The codec rejects
        // each damaged encoding: nothing merges, nothing is forwarded
        // or delivered — and nothing panics or poisons receiver state.
        let trace = ContactTrace::new(
            "corrupt",
            4,
            vec![
                contact(2, 3, 100, 300),
                contact(0, 3, 500, 700),
                contact(2, 3, 900, 1100),
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(4);
        subs.subscribe(NodeId::new(2), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(trace, subs.clone(), sched, SimConfig::default())
            .with_faults(FaultSpec::none().with_corruption(PPM));
        let mut bsub = BsubProtocol::new(config(), &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.delivered, 0, "no filter ever arrives intact");
        assert_eq!(report.forwardings, 0);
        assert!(report.control_bytes > 0, "the wire bytes were still spent");
        // Election ran (beacons carry no filters), so a broker exists —
        // but its relay never absorbed a corrupted transmission.
        assert!(bsub.broker_count() > 0);
        let absorbed = bsub
            .nodes
            .iter()
            .filter_map(|n| n.relay.as_ref())
            .any(|r| r.filter.fill_ratio() > 0.0);
        assert!(!absorbed, "corrupted filters must never merge");
    }

    #[test]
    fn churn_reset_drops_brokered_cargo() {
        use bsub_sim::FaultSpec;
        // The three-hop relay schedule, with churn tuned (by seed
        // search) so broker 3 goes down after receiving the copy at
        // t=500s and is back up for the t=900s consumer contact: the
        // rejoin reset dropped the copy, so nothing is delivered even
        // though every contact still happens.
        let period = SimDuration::from_secs(100);
        let n = NodeId::new;
        let spec = (0..10_000u64)
            .map(|seed| {
                FaultSpec::none()
                    .with_seed(seed)
                    .with_churn(300_000, period)
            })
            .find(|s| {
                // Producer 0 must keep its publication (no reset before
                // its only contact in cell 5); consumer 2 must show up
                // at cells 1 and 9; broker 3 must be up for all three
                // contacts and keep its learned relay until the copy
                // arrives, then go down at least once before cell 9.
                (0..=5).all(|c| !s.node_down(n(0), c))
                    && !s.node_down(n(2), 1)
                    && !s.node_down(n(2), 9)
                    && (1..=5).all(|c| !s.node_down(n(3), c))
                    && !s.node_down(n(3), 9)
                    && (6..=8).any(|c| s.node_down(n(3), c))
            })
            .expect("some seed yields the up/down/up pattern");
        let trace = ContactTrace::new(
            "churn",
            4,
            vec![
                contact(2, 3, 100, 300),
                contact(0, 3, 500, 700),
                contact(2, 3, 900, 1100),
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(4);
        subs.subscribe(NodeId::new(2), "news");
        let sched = vec![message(10, 0, "news")];
        let sim =
            Simulation::new(trace, subs.clone(), sched, SimConfig::default()).with_faults(spec);
        let mut bsub = BsubProtocol::new(config(), &subs);
        let report = sim.run(&mut bsub);
        assert_eq!(report.forwardings, 1, "the replication itself happened");
        assert_eq!(report.delivered, 0, "the rejoin reset dropped the copy");
        assert_eq!(bsub.carried_copies(), 0);
        assert_eq!(
            bsub.role_of(NodeId::new(3)),
            Role::Broker,
            "the role survives the restart"
        );
    }

    #[test]
    fn any_match_forwarding_ping_pongs_less_selectively() {
        use crate::config::ForwardingPolicy;
        // Broker 3 has the stronger (reinforced) interest; broker 2
        // carries the message. Under AnyMatch the hand-off happens even
        // when 2's own counters are at least as strong — i.e. strictly
        // more messages move than under Preferential.
        let trace = ContactTrace::new(
            "policy",
            4,
            vec![
                contact(0, 2, 100, 200), // consumer teaches broker 2
                contact(0, 3, 300, 400), // consumer teaches broker 3 (equal strength)
                contact(1, 2, 500, 600), // producer 1 → broker 2
                contact(2, 3, 700, 800), // brokers meet
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(4);
        subs.subscribe(NodeId::new(0), "news");
        let sched = vec![message(10, 1, "news")];

        let carried_by = |policy: ForwardingPolicy| {
            let cfg = BsubConfig::builder()
                .df(DfMode::Fixed(0.001))
                .forwarding(policy)
                .build();
            let mut bsub = BsubProtocol::new(cfg, &subs);
            let sim = Simulation::new(
                trace.clone(),
                subs.clone(),
                sched.clone(),
                SimConfig::default(),
            );
            let _ = sim.run(&mut bsub);
            (bsub.nodes[2].store.len(), bsub.nodes[3].store.len())
        };
        // Equal counters ⇒ preference 0 ⇒ no move under Preferential.
        assert_eq!(carried_by(ForwardingPolicy::Preferential), (1, 0));
        // AnyMatch moves it regardless.
        assert_eq!(carried_by(ForwardingPolicy::AnyMatch), (0, 1));
    }
}
