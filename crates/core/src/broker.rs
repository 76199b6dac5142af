//! Broker allocation: the decentralized election of Section V-B.
//!
//! Each *user* keeps a sliding log of the nodes it met within the
//! window `W`. From the log it derives:
//!
//! - how many distinct **brokers** it met (if below `L`, promote the
//!   next user it meets; if above `U`, try to demote);
//! - its own **degree** — the number of distinct nodes met in `W`
//!   (exchanged in the identity beacon, and compared against the
//!   average degree of known brokers when demoting: "the user
//!   designates the broker to be a user if the broker's degree is
//!   below the average value").
//!
//! Brokers themselves never promote or demote anyone.

use bsub_traces::{NodeId, SimDuration, SimTime};
use std::collections::VecDeque;

/// One remembered meeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meeting {
    at: SimTime,
    peer: NodeId,
    peer_was_broker: bool,
    peer_degree: usize,
}

/// A node's sliding meeting log and the election statistics derived
/// from it.
///
/// Beside the log it keeps incremental counts, updated by
/// [`ElectionLog::record`] and [`ElectionLog::prune`], so that
/// [`ElectionLog::degree`] and [`ElectionLog::brokers_met`] are O(1)
/// instead of a distinct-peer scan of the whole window.
#[derive(Debug, Clone, Default)]
pub struct ElectionLog {
    meetings: VecDeque<Meeting>,
    /// `(peer, meetings, broker meetings)` for every peer in the
    /// window, sorted by peer id; a peer leaves when its last meeting
    /// is pruned.
    peers: Vec<(NodeId, u32, u32)>,
    /// Peers whose broker-meeting count is non-zero.
    brokers: usize,
}

/// What a user decides about the peer it just met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectionAction {
    /// Designate the peer (a user) as a broker — too few brokers seen.
    Promote,
    /// Designate the peer (a low-degree broker) back to a user — too
    /// many brokers seen.
    Demote,
    /// Leave the peer's role alone.
    Keep,
}

impl ElectionLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops meetings older than `window` before `now`.
    pub fn prune(&mut self, now: SimTime, window: SimDuration) {
        let cutoff = now.saturating_since(SimTime::ZERO + window);
        let cutoff = SimTime::from_secs(cutoff.as_secs());
        while let Some(front) = self.meetings.front() {
            if front.at < cutoff {
                let Meeting {
                    peer,
                    peer_was_broker,
                    ..
                } = *front;
                self.meetings.pop_front();
                self.forget(peer, peer_was_broker);
            } else {
                break;
            }
        }
    }

    /// Records a meeting with `peer`, whose pre-contact role and
    /// self-reported degree arrive in the identity beacon.
    pub fn record(
        &mut self,
        now: SimTime,
        peer: NodeId,
        peer_was_broker: bool,
        peer_degree: usize,
    ) {
        self.meetings.push_back(Meeting {
            at: now,
            peer,
            peer_was_broker,
            peer_degree,
        });
        let as_broker = u32::from(peer_was_broker);
        match self.peers.binary_search_by_key(&peer, |e| e.0) {
            Ok(i) => {
                let entry = &mut self.peers[i];
                if entry.2 == 0 && peer_was_broker {
                    self.brokers += 1;
                }
                entry.1 += 1;
                entry.2 += as_broker;
            }
            Err(i) => {
                self.peers.insert(i, (peer, 1, as_broker));
                self.brokers += as_broker as usize;
            }
        }
    }

    /// Takes one pruned meeting out of the per-peer counts.
    fn forget(&mut self, peer: NodeId, peer_was_broker: bool) {
        let i = self
            .peers
            .binary_search_by_key(&peer, |e| e.0)
            .expect("every logged meeting is counted");
        let entry = &mut self.peers[i];
        entry.1 -= 1;
        if peer_was_broker {
            entry.2 -= 1;
            if entry.2 == 0 {
                self.brokers -= 1;
            }
        }
        if entry.1 == 0 {
            self.peers.remove(i);
        }
    }

    /// Distinct brokers met within the (already pruned) window.
    #[must_use]
    pub fn brokers_met(&self) -> usize {
        self.brokers
    }

    /// This node's degree: distinct peers met within the window.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.peers.len()
    }

    /// Mean of the last-reported degrees of the distinct brokers in
    /// the window; `None` if no broker was met.
    #[must_use]
    pub fn average_broker_degree(&self) -> Option<f64> {
        let mut latest: Vec<(NodeId, usize)> = Vec::new();
        for m in &self.meetings {
            if !m.peer_was_broker {
                continue;
            }
            if let Some(entry) = latest.iter_mut().find(|(p, _)| *p == m.peer) {
                entry.1 = m.peer_degree; // later meeting wins
            } else {
                latest.push((m.peer, m.peer_degree));
            }
        }
        if latest.is_empty() {
            return None;
        }
        Some(latest.iter().map(|&(_, d)| d as f64).sum::<f64>() / latest.len() as f64)
    }

    /// The election rule of Section V-B, evaluated by a **user** about
    /// the peer it just met (call *before* recording the meeting, so
    /// the counts reflect the window prior to this contact).
    ///
    /// - fewer than `lower` brokers met and the peer is a user ⇒
    ///   [`ElectionAction::Promote`];
    /// - more than `upper` brokers met, the peer is a broker, and the
    ///   peer's degree is below the average broker degree ⇒
    ///   [`ElectionAction::Demote`];
    /// - otherwise ⇒ [`ElectionAction::Keep`].
    #[must_use]
    pub fn decide(
        &self,
        peer_is_broker: bool,
        peer_degree: usize,
        lower: usize,
        upper: usize,
    ) -> ElectionAction {
        let brokers = self.brokers_met();
        if brokers < lower && !peer_is_broker {
            return ElectionAction::Promote;
        }
        if brokers > upper && peer_is_broker {
            if let Some(avg) = self.average_broker_degree() {
                if (peer_degree as f64) < avg {
                    return ElectionAction::Demote;
                }
            }
        }
        ElectionAction::Keep
    }

    /// Iterates the remembered meetings oldest-first as
    /// `(at, peer, peer_was_broker, peer_degree)` tuples — the exact
    /// arguments [`ElectionLog::record`] takes, so a log snapshot is
    /// round-tripped by replaying each tuple into a fresh log. Used by
    /// the `snapshot` module to ship election state between processes.
    pub fn meetings(&self) -> impl Iterator<Item = (SimTime, NodeId, bool, usize)> + '_ {
        self.meetings
            .iter()
            .map(|m| (m.at, m.peer, m.peer_was_broker, m.peer_degree))
    }

    /// Number of meetings currently in the window (for diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.meetings.len()
    }

    /// Whether the window holds no meetings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meetings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: SimDuration = SimDuration::from_hours(5);

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn empty_log_promotes_users() {
        let log = ElectionLog::new();
        assert_eq!(log.decide(false, 3, 3, 5), ElectionAction::Promote);
        // A broker peer is never promoted.
        assert_eq!(log.decide(true, 3, 3, 5), ElectionAction::Keep);
    }

    #[test]
    fn enough_brokers_keeps() {
        let mut log = ElectionLog::new();
        for i in 0..3 {
            log.record(t(i), NodeId::new(i as u32), true, 4);
        }
        assert_eq!(log.brokers_met(), 3);
        assert_eq!(log.decide(false, 3, 3, 5), ElectionAction::Keep);
    }

    #[test]
    fn too_many_brokers_demotes_low_degree() {
        let mut log = ElectionLog::new();
        for i in 0..6 {
            log.record(t(i), NodeId::new(i as u32), true, 10);
        }
        // Average broker degree is 10; a degree-2 broker is below it.
        assert_eq!(log.decide(true, 2, 3, 5), ElectionAction::Demote);
        // A degree-12 broker is not.
        assert_eq!(log.decide(true, 12, 3, 5), ElectionAction::Keep);
        // A user peer is never demoted.
        assert_eq!(log.decide(false, 2, 3, 5), ElectionAction::Keep);
    }

    #[test]
    fn brokers_met_counts_distinct() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), true, 4);
        log.record(t(1), NodeId::new(1), true, 4);
        log.record(t(2), NodeId::new(2), true, 4);
        log.record(t(3), NodeId::new(3), false, 4);
        assert_eq!(log.brokers_met(), 2);
        assert_eq!(log.degree(), 3);
    }

    #[test]
    fn prune_drops_old_meetings() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), true, 4);
        log.record(t(100), NodeId::new(2), true, 4);
        log.prune(t(400), W); // window 300 min: meeting at t=0 expires
        assert_eq!(log.len(), 1);
        assert_eq!(log.brokers_met(), 1);
    }

    #[test]
    fn prune_near_time_zero_is_safe() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), true, 4);
        log.prune(t(1), W); // now < window: nothing can be older
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn average_broker_degree_uses_latest_report() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), true, 2);
        log.record(t(1), NodeId::new(1), true, 8); // degree grew
        log.record(t(2), NodeId::new(2), true, 4);
        assert_eq!(log.average_broker_degree(), Some(6.0));
    }

    #[test]
    fn average_broker_degree_none_without_brokers() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), false, 2);
        assert_eq!(log.average_broker_degree(), None);
        // With no average available, no demotion can happen.
        for i in 0..10 {
            log.record(t(i), NodeId::new(10 + i as u32), false, 1);
        }
        assert_eq!(log.decide(true, 0, 0, 0), ElectionAction::Keep);
    }

    /// `(degree, brokers_met)` by a distinct-peer scan of the window.
    fn naive_counts(log: &ElectionLog) -> (usize, usize) {
        let mut peers: Vec<NodeId> = Vec::new();
        let mut brokers: Vec<NodeId> = Vec::new();
        for (_, peer, was_broker, _) in log.meetings() {
            if !peers.contains(&peer) {
                peers.push(peer);
            }
            if was_broker && !brokers.contains(&peer) {
                brokers.push(peer);
            }
        }
        (peers.len(), brokers.len())
    }

    fn assert_counts_exact(log: &ElectionLog, step: usize) {
        assert_eq!(
            (log.degree(), log.brokers_met()),
            naive_counts(log),
            "step {step}"
        );
    }

    /// The incremental counts equal a naive scan after every `record`
    /// and `prune` of a seeded interleaving, across window-emptying
    /// prunes and a log rebuilt by replaying `meetings()`.
    #[test]
    fn incremental_counts_match_naive_scan() {
        let mut rng = bsub_bloom::SplitMix64::new(0x5EED_E1EC);
        let mut log = ElectionLog::new();
        let mut broker_flag = [false; 20];
        let mut now = 0u64;
        let mut emptied = 0;
        for step in 0..4000 {
            if rng.below(8) == 0 {
                // Jumps past the whole window now and then, so some
                // prunes empty it.
                now += if rng.below(10) == 0 {
                    400
                } else {
                    rng.below(60)
                };
                log.prune(t(now), W);
                if log.is_empty() {
                    emptied += 1;
                }
            } else {
                now += rng.below(3);
                let peer = rng.below_usize(broker_flag.len());
                if rng.below(4) == 0 {
                    broker_flag[peer] = !broker_flag[peer];
                }
                let degree = rng.below_usize(30);
                log.record(t(now), NodeId::new(peer as u32), broker_flag[peer], degree);
            }
            assert_counts_exact(&log, step);

            if step % 500 == 499 {
                let mut rebuilt = ElectionLog::new();
                for (at, peer, was_broker, degree) in log.meetings() {
                    rebuilt.record(at, peer, was_broker, degree);
                }
                assert_counts_exact(&rebuilt, step);
                assert_eq!(
                    (rebuilt.degree(), rebuilt.brokers_met()),
                    (log.degree(), log.brokers_met())
                );
                assert!(rebuilt.meetings().eq(log.meetings()));
                log = rebuilt;
            }
        }
        assert!(emptied > 0, "some prune must empty the window");
        log.prune(t(now + 10_000), W);
        assert!(log.is_empty());
        assert_eq!((log.degree(), log.brokers_met()), (0, 0));
    }

    #[test]
    fn is_empty_reflects_state() {
        let mut log = ElectionLog::new();
        assert!(log.is_empty());
        log.record(t(0), NodeId::new(1), false, 0);
        assert!(!log.is_empty());
    }
}
