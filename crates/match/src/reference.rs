//! The scalar reference matcher: a naive per-filter scan.
//!
//! One dense [`Tcbf`] per subscriber, built exactly as the paper's
//! consumer would build its genuine filter, and a match loop that
//! probes **every** subscriber's filter for **every** event — no
//! aggregation, no pruning, no probe reuse. This is deliberately the
//! simplest correct implementation: it is the oracle the differential
//! suite holds [`MatchIndex`](crate::MatchIndex) to, and the baseline
//! the `matching` bench binary measures the index's speedup against.
//!
//! Kept in-tree on purpose (test-archetype centerpiece): any future
//! change to the index must keep `match_events` equivalence against
//! this scan, Bloom false positives included.

use crate::index::{Event, MatchParams, MatchSet, MatchStats};
use bsub_bloom::Tcbf;
use std::collections::BTreeMap;

struct RefSub {
    filter: Tcbf,
    deadline: Option<u64>,
}

impl std::fmt::Debug for RefSub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefSub")
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

/// The naive matcher: dense per-subscriber TCBFs, exhaustive scans.
#[derive(Debug)]
pub struct ReferenceMatcher {
    bits: usize,
    hashes: usize,
    initial: u32,
    subs: BTreeMap<u64, RefSub>,
}

impl ReferenceMatcher {
    /// An empty matcher over the given member-filter geometry.
    #[must_use]
    pub fn new(bits: usize, hashes: usize, initial: u32) -> Self {
        Self {
            bits,
            hashes,
            initial,
            subs: BTreeMap::new(),
        }
    }

    /// An empty matcher sharing a [`MatchParams`]' member geometry.
    #[must_use]
    pub fn from_params(params: &MatchParams) -> Self {
        Self::new(params.member_bits, params.member_hashes, params.initial)
    }

    /// Live subscriber count.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.subs.len()
    }

    /// Subscribes `id` to `keys`, replacing any existing subscription.
    pub fn subscribe<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K]) {
        self.subscribe_inner(id, keys, None);
    }

    /// Subscribes `id` to `keys` until `deadline`.
    pub fn subscribe_until<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K], deadline: u64) {
        self.subscribe_inner(id, keys, Some(deadline));
    }

    fn subscribe_inner<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K], deadline: Option<u64>) {
        let filter = Tcbf::from_keys(self.bits, self.hashes, self.initial, keys.iter());
        self.subs.insert(id, RefSub { filter, deadline });
    }

    /// Unsubscribes `id`. Returns whether it was subscribed.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        self.subs.remove(&id).is_some()
    }

    /// Removes subscriptions past their deadline (`now >= deadline`)
    /// or fully decayed. Returns how many were removed.
    pub fn expire(&mut self, now: u64) -> usize {
        let before = self.subs.len();
        self.subs
            .retain(|_, s| !(s.deadline.is_some_and(|d| now >= d) || s.filter.is_empty()));
        before - self.subs.len()
    }

    /// Decays every subscriber filter by `amount` epochs.
    pub fn decay(&mut self, amount: u32) {
        for sub in self.subs.values_mut() {
            sub.filter.decay(amount);
        }
    }

    /// The naive batch match: for every event, probe every
    /// subscriber's filter with a fresh per-pair query.
    #[must_use]
    pub fn match_events(&self, events: &[Event]) -> MatchSet {
        let mut stats = MatchStats {
            events: events.len() as u64,
            ..MatchStats::default()
        };
        let matches: Vec<Vec<u64>> = events
            .iter()
            .map(|event| {
                self.subs
                    .iter()
                    .filter(|(_, sub)| {
                        stats.candidates += 1;
                        sub.filter.contains(&event.key)
                    })
                    .map(|(&id, _)| id)
                    .collect()
            })
            .collect();
        stats.confirmed = stats.candidates;
        stats.matched = matches.iter().map(|m| m.len() as u64).sum();
        MatchSet { matches, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_scan_matches_and_expires() {
        let mut reference = ReferenceMatcher::new(256, 4, 8);
        reference.subscribe(1, &["apples", "pears"]);
        reference.subscribe_until(2, &["pears"], 5);
        let set = reference.match_events(&[Event::new("pears")]);
        assert_eq!(set.matches[0], vec![1, 2]);
        assert_eq!(set.stats.candidates, 2);
        assert_eq!(
            set.stats.confirmed, 2,
            "no prefilter: every candidate is confirmed"
        );

        assert_eq!(reference.expire(5), 1, "deadline passed");
        reference.decay(8);
        let set = reference.match_events(&[Event::new("pears")]);
        assert!(set.matches[0].is_empty(), "fully decayed");
        assert_eq!(reference.expire(0), 1, "decayed-out subscriber expires");
        assert_eq!(reference.live_count(), 0);
    }
}
