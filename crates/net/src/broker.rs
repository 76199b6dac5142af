//! The live broker service: a `bsub_match::MatchIndex` served over
//! the peer state machine (DESIGN.md §16).
//!
//! PR 8's matching index answers batch queries in-process; this module
//! puts it behind real sockets. A [`BrokerNode`] binds a
//! [`PeerManager`], and a single **service thread** owns the index and
//! runs the drain → expire → apply cycle:
//!
//! 1. **Drain.** Inbound `SUBSCRIBE` / `UNSUBSCRIBE` / `PUBLISH`
//!    frames are pulled from the per-peer inbound queues into one
//!    batch (first frame blocking up to the poll slice, the rest
//!    opportunistically, capped at [`BrokerConfig::batch_max`]).
//! 2. **Expire.** Subscriptions carry *real-clock* deadlines — the
//!    sim's epoch decay replaced by wall time. A coarse monotonic
//!    [`ClockWheel`] buckets deadlines at [`BrokerConfig::tick`]
//!    granularity; each cycle pops only the buckets strictly below the
//!    current tick (so popped entries are definitely due — expiry lags
//!    a deadline by at most one tick) and hands the ids to
//!    [`MatchIndex::expire_candidates`], which re-checks the *current*
//!    deadline so a stale bucket entry left behind by a resubscribe
//!    never evicts the fresh subscription.
//! 3. **Apply.** Ops are applied in arrival order. Consecutive
//!    publishes accumulate into a run and are matched through **one**
//!    [`MatchIndex::match_events`] call — the batch path the index was
//!    built for — flushed whenever a subscribe/unsubscribe arrives (so
//!    ordering semantics stay exactly sequential) and at batch end.
//!    Matched publications fan out as `DELIVER` frames on the
//!    existing bounded outbound queues: a slow subscriber exerts
//!    backpressure on the service loop, never an unbounded buffer.
//!
//! Exactness is anchored by the **op journal**: when
//! [`BrokerConfig::journal`] is set, the broker records the exact
//! order in which it applied subscribes, unsubscribes, publishes, and
//! wheel expiries. Replaying that journal through the in-process
//! [`bsub_match::ReferenceMatcher`] must reproduce the broker's
//! deliveries *exactly* — Bloom false positives included — which is
//! what `tests/broker.rs` asserts over seeded concurrent clients.
//!
//! Everything here is `std`-only: blocking sockets, one service
//! thread, no async runtime.

use crate::frame::{Frame, FrameKind};
use crate::peer::{PeerConfig, PeerId, PeerManager};
use crate::transport::EndpointAddr;
use bsub_match::{Event, IndexState, MatchIndex, MatchParams};
use bsub_obs::{self as obs, Counter, SizeHist, TimeHist};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Most keys one `SUBSCRIBE` may carry. An unbounded key list would
/// let one member cover most of the filter — a position set and
/// signature that pass every event — and be confirmed on every match.
pub const MAX_SUBSCRIBE_KEYS: usize = 256;

/// Longest key, in bytes, a `SUBSCRIBE` or `PUBLISH` may carry.
pub const MAX_KEY_LEN: usize = 1024;

/// `SUBSCRIBE` body: a TTL and the key set (DESIGN.md §16.2).
///
/// ```text
/// offset  size  field
///      0     8  ttl_ms   — u64 LE; 0 = no deadline
///      8     4  keys     — key count, u32 LE (≤ MAX_SUBSCRIBE_KEYS)
///     12     …  per key: len u32 LE (≤ MAX_KEY_LEN), then len bytes (UTF-8)
/// ```
///
/// A client's new `SUBSCRIBE` *replaces* its previous one (same
/// semantics as [`MatchIndex::subscribe`] under one id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeBody {
    /// Time-to-live in milliseconds on the broker's clock; 0 keeps the
    /// subscription until unsubscribe or disconnect.
    pub ttl_ms: u64,
    /// The subscribed content keys.
    pub keys: Vec<String>,
}

impl SubscribeBody {
    /// Encodes the body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        debug_assert!(self.keys.len() <= MAX_SUBSCRIBE_KEYS, "too many keys");
        debug_assert!(
            self.keys.iter().all(|k| k.len() <= MAX_KEY_LEN),
            "key too long"
        );
        let mut out = Vec::with_capacity(12 + self.keys.iter().map(|k| 4 + k.len()).sum::<usize>());
        out.extend_from_slice(&self.ttl_ms.to_le_bytes());
        out.extend_from_slice(&(self.keys.len() as u32).to_le_bytes());
        for key in &self.keys {
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
        }
        out
    }

    /// Decodes a body; `None` on truncation, trailing bytes, non-UTF-8
    /// keys, more than [`MAX_SUBSCRIBE_KEYS`] keys, or a key longer
    /// than [`MAX_KEY_LEN`].
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Cursor::new(body);
        let ttl_ms = r.u64()?;
        let count = r.u32()? as usize;
        if count > MAX_SUBSCRIBE_KEYS {
            return None;
        }
        let mut keys = Vec::with_capacity(count);
        for _ in 0..count {
            keys.push(r.key()?);
        }
        r.done()?;
        Some(Self { ttl_ms, keys })
    }
}

/// `PUBLISH` body: one keyed event (DESIGN.md §16.2).
///
/// ```text
/// offset  size  field
///      0     8  seq      — publisher-chosen sequence id, u64 LE
///      8     8  sent_ns  — publisher's UNIX-epoch send time, u64 LE
///     16     4  len      — key length, u32 LE (≤ MAX_KEY_LEN)
///     20   len  key      — UTF-8 bytes
/// ```
///
/// `seq` and `sent_ns` are opaque to the broker and echoed verbatim in
/// every `DELIVER` the publish produces: `seq` lets a test key
/// deliveries to publishes, `sent_ns` lets a same-host subscriber
/// compute publish→deliver latency without clock exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishBody {
    /// Publisher-chosen sequence id, echoed in deliveries.
    pub seq: u64,
    /// Publisher's send timestamp (UNIX nanos), echoed in deliveries.
    pub sent_ns: u64,
    /// The event's content key.
    pub key: String,
}

impl PublishBody {
    /// Encodes the body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        debug_assert!(self.key.len() <= MAX_KEY_LEN, "key too long");
        let mut out = Vec::with_capacity(20 + self.key.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.sent_ns.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(self.key.as_bytes());
        out
    }

    /// Decodes a body; `None` on truncation, trailing bytes, a
    /// non-UTF-8 key, or a key longer than [`MAX_KEY_LEN`].
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Cursor::new(body);
        let seq = r.u64()?;
        let sent_ns = r.u64()?;
        let key = r.key()?;
        r.done()?;
        Some(Self { seq, sent_ns, key })
    }
}

/// `DELIVER` body: one matched publication (DESIGN.md §16.2).
///
/// ```text
/// offset  size  field
///      0     8  seq        — echoed from the PUBLISH, u64 LE
///      8     8  sent_ns    — echoed from the PUBLISH, u64 LE
///     16     4  publisher  — publishing peer id, u32 LE
///     20     4  len        — key length, u32 LE
///     24   len  key        — UTF-8 bytes
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliverBody {
    /// The publisher's sequence id.
    pub seq: u64,
    /// The publisher's send timestamp (UNIX nanos).
    pub sent_ns: u64,
    /// The publishing peer.
    pub publisher: u32,
    /// The event's content key.
    pub key: String,
}

impl DeliverBody {
    /// Encodes the body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.key.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.sent_ns.to_le_bytes());
        out.extend_from_slice(&self.publisher.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(self.key.as_bytes());
        out
    }

    /// Decodes a body; `None` on truncation, trailing bytes, or a
    /// non-UTF-8 key.
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Cursor::new(body);
        let seq = r.u64()?;
        let sent_ns = r.u64()?;
        let publisher = r.u32()?;
        let key = r.string()?;
        r.done()?;
        Some(Self {
            seq,
            sent_ns,
            publisher,
            key,
        })
    }
}

/// Minimal LE field reader shared by the body codecs; rejects
/// truncation and (via [`Cursor::done`]) trailing bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn string(&mut self) -> Option<String> {
        self.string_up_to(usize::MAX)
    }

    /// A client-supplied key: a string of at most [`MAX_KEY_LEN`] bytes.
    fn key(&mut self) -> Option<String> {
        self.string_up_to(MAX_KEY_LEN)
    }

    fn string_up_to(&mut self, max_len: usize) -> Option<String> {
        let len = self.u32()? as usize;
        if len > max_len {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn done(&self) -> Option<()> {
        self.bytes.is_empty().then_some(())
    }
}

/// A coarse monotonic timer wheel over subscription deadlines.
///
/// Deadlines (broker-monotonic milliseconds) are bucketed at `tick_ms`
/// granularity: bucket `b` holds every deadline in
/// `[b·tick, (b+1)·tick)`. [`ClockWheel::pop_due`] drains only buckets
/// **strictly below** `now / tick`, so every popped entry's deadline
/// is `< ⌊now/tick⌋·tick ≤ now` — definitely due, at the cost of
/// expiry lagging a deadline by at most one tick (that lag is the
/// documented coarseness of the wheel, DESIGN.md §16.3).
///
/// Entries are never *removed* on resubscribe — the wheel is
/// append-only between pops, and stale entries are rendered harmless
/// by [`MatchIndex::expire_candidates`] re-checking live deadlines.
#[derive(Debug)]
pub struct ClockWheel {
    tick_ms: u64,
    buckets: BTreeMap<u64, Vec<u64>>,
}

impl ClockWheel {
    /// An empty wheel with `tick_ms` bucket granularity (minimum 1).
    #[must_use]
    pub fn new(tick_ms: u64) -> Self {
        Self {
            tick_ms: tick_ms.max(1),
            buckets: BTreeMap::new(),
        }
    }

    /// Schedules `id` for expiry at `deadline_ms`.
    pub fn schedule(&mut self, id: u64, deadline_ms: u64) {
        self.buckets
            .entry(deadline_ms / self.tick_ms)
            .or_default()
            .push(id);
    }

    /// Drains every id whose bucket lies strictly below the current
    /// tick — all of them provably at or past their deadline.
    #[must_use]
    pub fn pop_due(&mut self, now_ms: u64) -> Vec<u64> {
        let current = now_ms / self.tick_ms;
        let mut due = Vec::new();
        while let Some((&bucket, _)) = self.buckets.first_key_value() {
            if bucket >= current {
                break;
            }
            let mut ids = self.buckets.remove(&bucket).expect("bucket exists");
            due.append(&mut ids);
        }
        due
    }

    /// Pending (possibly stale) entries across all buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Whether no entry is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// One operation the broker applied, in application order — the
/// journal [`BrokerNode::journal`] exposes for differential replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerOp {
    /// A `SUBSCRIBE` was applied for `client` at `at_ms`.
    Subscribe {
        /// The subscribing peer.
        client: u32,
        /// TTL carried on the frame (0 = none).
        ttl_ms: u64,
        /// The subscribed keys.
        keys: Vec<String>,
        /// Broker-monotonic application time.
        at_ms: u64,
    },
    /// An `UNSUBSCRIBE` was applied for `client`.
    Unsubscribe {
        /// The unsubscribing peer.
        client: u32,
    },
    /// A `PUBLISH` was matched; `delivered` holds the subscriber ids
    /// the broker enqueued `DELIVER` frames toward (ascending).
    Publish {
        /// The publishing peer.
        client: u32,
        /// The publisher's sequence id.
        seq: u64,
        /// The event key.
        key: String,
        /// Matched subscriber ids, ascending.
        delivered: Vec<u64>,
    },
    /// The clock wheel evicted `clients` at `at_ms` (only ids actually
    /// removed by [`MatchIndex::expire_candidates`]).
    Expire {
        /// Evicted subscriber ids, in eviction order.
        clients: Vec<u64>,
        /// Broker-monotonic application time.
        at_ms: u64,
    },
}

/// Configuration of a [`BrokerNode`].
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// The peer-layer configuration (identity, listen address, queue
    /// depth — the broker's `DELIVER` backpressure surface).
    pub peer: PeerConfig,
    /// Geometry and policy of the owned [`MatchIndex`].
    pub params: MatchParams,
    /// Clock-wheel tick: expiry may lag a deadline by at most this.
    pub tick: Duration,
    /// Most ops drained into one service-loop batch.
    pub batch_max: usize,
    /// How long the service loop blocks for the first frame of a batch
    /// (also bounds shutdown latency).
    pub poll: Duration,
    /// Record the op journal for differential replay (tests only —
    /// the journal grows without bound).
    pub journal: bool,
}

impl BrokerConfig {
    /// Defaults: 100 ms wheel tick, 256-op batches, 5 ms poll slice,
    /// no journal, default index geometry.
    #[must_use]
    pub fn new(local: PeerId, addr: EndpointAddr, seed: u64) -> Self {
        Self {
            peer: PeerConfig::new(local, addr, seed),
            params: MatchParams::default(),
            tick: Duration::from_millis(100),
            batch_max: 256,
            poll: Duration::from_millis(5),
            journal: false,
        }
    }
}

/// A live broker: a bound [`PeerManager`] plus the service thread that
/// owns the match index. See the module docs for the service cycle.
#[derive(Debug)]
pub struct BrokerNode {
    peers: Arc<PeerManager>,
    index: Arc<Mutex<MatchIndex>>,
    journal: Arc<Mutex<Vec<BrokerOp>>>,
    stop: Arc<AtomicBool>,
    started: Instant,
    service: Option<JoinHandle<()>>,
}

impl BrokerNode {
    /// Binds the configured address and starts the service thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve(config: BrokerConfig) -> io::Result<Self> {
        let peers = PeerManager::bind(config.peer.clone())?;
        let index = Arc::new(Mutex::new(MatchIndex::new(config.params)));
        let journal = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let service = {
            let peers = Arc::clone(&peers);
            let index = Arc::clone(&index);
            let journal = Arc::clone(&journal);
            let stop = Arc::clone(&stop);
            thread::spawn(move || service_loop(&config, &peers, &index, &journal, &stop, started))
        };
        Ok(Self {
            peers,
            index,
            journal,
            stop,
            started,
            service: Some(service),
        })
    }

    /// The broker's peer manager (for metrics, state, shutdown).
    #[must_use]
    pub fn manager(&self) -> &Arc<PeerManager> {
        &self.peers
    }

    /// Milliseconds elapsed on the broker's monotonic clock — the
    /// clock subscription deadlines are measured against.
    #[must_use]
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Live subscriber count of the owned index.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.index.lock().expect("index lock").live_count()
    }

    /// Exports the live index state (checkpointing — see
    /// `bsub_core::snapshot::encode_match_index` for the byte codec).
    #[must_use]
    pub fn export_index(&self) -> IndexState {
        self.index.lock().expect("index lock").export_state()
    }

    /// The op journal recorded so far (empty unless
    /// [`BrokerConfig::journal`] was set).
    #[must_use]
    pub fn journal(&self) -> Vec<BrokerOp> {
        self.journal.lock().expect("journal lock").clone()
    }

    /// Stops the service thread (after it finishes its current cycle)
    /// and tears down every connection.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.service.take() {
            let _ = handle.join();
        }
        self.peers.shutdown();
    }
}

impl Drop for BrokerNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One drained client op awaiting application.
enum PendingOp {
    Subscribe(u32, SubscribeBody),
    Unsubscribe(u32),
    Publish(u32, PublishBody),
}

fn service_loop(
    config: &BrokerConfig,
    peers: &Arc<PeerManager>,
    index: &Arc<Mutex<MatchIndex>>,
    journal: &Arc<Mutex<Vec<BrokerOp>>>,
    stop: &AtomicBool,
    started: Instant,
) {
    // The index's own `match_*` instrumentation is thread-local; run a
    // profiler on this thread and fold its deltas into the shared
    // NetMetrics sink after every batch, so a stats scrape sees broker
    // and socket metrics in one report.
    obs::start();
    let mut wheel = ClockWheel::new(config.tick.as_millis().max(1) as u64);
    let tick_ms = config.tick.as_millis().max(1) as u64;
    while !stop.load(Ordering::SeqCst) {
        // Drain one batch: block briefly for the first op, then sweep
        // whatever else is already queued.
        let mut ops: Vec<PendingOp> = Vec::new();
        if let Some(op) = next_op(peers, config.poll) {
            ops.push(op);
            while ops.len() < config.batch_max {
                match next_op(peers, Duration::ZERO) {
                    Some(op) => ops.push(op),
                    None => break,
                }
            }
        }

        let now_ms = started.elapsed().as_millis() as u64;
        let due = wheel.pop_due(now_ms);
        if !due.is_empty() || !ops.is_empty() {
            let batch_started = Instant::now();
            let op_count = ops.len() as u64;
            let mut idx = index.lock().expect("index lock");

            if !due.is_empty() {
                let evicted: Vec<u64> = due
                    .iter()
                    .copied()
                    .filter(|&id| idx.expire_candidates(&[id], now_ms) == 1)
                    .collect();
                if !evicted.is_empty() {
                    obs::count(Counter::BrokerExpired, evicted.len() as u64);
                    if config.journal {
                        journal
                            .lock()
                            .expect("journal lock")
                            .push(BrokerOp::Expire {
                                clients: evicted,
                                at_ms: now_ms,
                            });
                    }
                }
            }

            // Apply in arrival order; consecutive publishes accumulate
            // into one match_events run, flushed at every boundary.
            let mut pending: Vec<(u32, PublishBody)> = Vec::new();
            for op in ops {
                match op {
                    PendingOp::Subscribe(client, body) => {
                        flush_publishes(&idx, peers, journal, config.journal, &mut pending);
                        obs::count(Counter::BrokerSubscribes, 1);
                        if body.ttl_ms == 0 {
                            idx.subscribe(u64::from(client), &body.keys);
                        } else {
                            let deadline = now_ms.saturating_add(body.ttl_ms);
                            idx.subscribe_until(u64::from(client), &body.keys, deadline);
                            // Round the deadline *up* to a bucket whose
                            // pop time is past it (pop_due only drains
                            // buckets strictly below the current tick).
                            wheel.schedule(u64::from(client), deadline.saturating_add(tick_ms));
                        }
                        if config.journal {
                            journal
                                .lock()
                                .expect("journal lock")
                                .push(BrokerOp::Subscribe {
                                    client,
                                    ttl_ms: body.ttl_ms,
                                    keys: body.keys,
                                    at_ms: now_ms,
                                });
                        }
                    }
                    PendingOp::Unsubscribe(client) => {
                        flush_publishes(&idx, peers, journal, config.journal, &mut pending);
                        if idx.purge(u64::from(client)) {
                            obs::count(Counter::BrokerUnsubscribes, 1);
                            if config.journal {
                                journal
                                    .lock()
                                    .expect("journal lock")
                                    .push(BrokerOp::Unsubscribe { client });
                            }
                        }
                    }
                    PendingOp::Publish(client, body) => pending.push((client, body)),
                }
            }
            flush_publishes(&idx, peers, journal, config.journal, &mut pending);
            drop(idx);

            obs::count(Counter::BrokerBatches, 1);
            obs::observe(SizeHist::BrokerBatchOps, op_count);
            obs::observe_ns(
                TimeHist::BrokerBatchNs,
                batch_started.elapsed().as_nanos() as u64,
            );
            peers.metrics().absorb(&obs::finish());
            obs::start();
        }
    }
    peers.metrics().absorb(&obs::finish());
}

/// Matches the accumulated publish run through one `match_events` call
/// and fans the results out as `DELIVER` frames.
fn flush_publishes(
    idx: &MatchIndex,
    peers: &Arc<PeerManager>,
    journal: &Arc<Mutex<Vec<BrokerOp>>>,
    record: bool,
    pending: &mut Vec<(u32, PublishBody)>,
) {
    if pending.is_empty() {
        return;
    }
    let events: Vec<Event> = pending.iter().map(|(_, b)| Event::new(&*b.key)).collect();
    let set = idx.match_events(&events);
    obs::count(Counter::BrokerPublishes, pending.len() as u64);
    for ((publisher, body), matched) in pending.drain(..).zip(set.matches) {
        obs::count(Counter::BrokerDeliveries, matched.len() as u64);
        for &subscriber in &matched {
            let deliver = DeliverBody {
                seq: body.seq,
                sent_ns: body.sent_ns,
                publisher,
                key: body.key.clone(),
            };
            // A subscriber that disconnected mid-flight is not an
            // error; its index entry outlives the socket until an
            // unsubscribe or deadline reaps it.
            let _ = peers.send(
                PeerId(subscriber as u32),
                Frame::new(FrameKind::Deliver, deliver.encode()),
            );
        }
        if record {
            journal
                .lock()
                .expect("journal lock")
                .push(BrokerOp::Publish {
                    client: publisher,
                    seq: body.seq,
                    key: body.key,
                    delivered: matched,
                });
        }
    }
}

/// Pulls the next *service-plane* frame; malformed bodies and
/// cluster-plane kinds are dropped (a broker serves clients, not a
/// simulation cluster).
fn next_op(peers: &Arc<PeerManager>, timeout: Duration) -> Option<PendingOp> {
    let (from, frame) = peers.recv_timeout(timeout)?;
    match frame.kind {
        FrameKind::Subscribe => {
            SubscribeBody::decode(&frame.body).map(|body| PendingOp::Subscribe(from.0, body))
        }
        FrameKind::Unsubscribe if frame.body.is_empty() => Some(PendingOp::Unsubscribe(from.0)),
        FrameKind::Publish => {
            PublishBody::decode(&frame.body).map(|body| PendingOp::Publish(from.0, body))
        }
        _ => None,
    }
}

/// A delivery received by a [`BrokerClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The decoded `DELIVER` body.
    pub body: DeliverBody,
    /// Receive time (UNIX nanos) on the client's clock, for
    /// publish→deliver latency against [`DeliverBody::sent_ns`].
    pub received_ns: u64,
}

impl Delivery {
    /// Publish→deliver latency in nanoseconds (same-host clocks), 0 if
    /// the clocks disagree.
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.received_ns.saturating_sub(self.body.sent_ns)
    }
}

/// A client of a [`BrokerNode`]: its own [`PeerManager`] plus the
/// subscribe/publish/receive conveniences the tests and `broker-bench`
/// share.
#[derive(Debug)]
pub struct BrokerClient {
    peers: Arc<PeerManager>,
    broker: PeerId,
}

impl BrokerClient {
    /// Binds `config`'s address and connects to the broker.
    ///
    /// # Errors
    ///
    /// Propagates bind and dial failures.
    pub fn connect(
        config: PeerConfig,
        broker: PeerId,
        broker_addr: &EndpointAddr,
    ) -> io::Result<Self> {
        let peers = PeerManager::bind(config)?;
        peers.connect(broker, broker_addr)?;
        Ok(Self { peers, broker })
    }

    /// This client's peer id (doubles as its subscriber id).
    #[must_use]
    pub fn local(&self) -> PeerId {
        self.peers.local()
    }

    /// The underlying peer manager.
    #[must_use]
    pub fn manager(&self) -> &Arc<PeerManager> {
        &self.peers
    }

    /// Sends a `SUBSCRIBE` for `keys`, expiring after `ttl` if given.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn subscribe<K: AsRef<str>>(&self, keys: &[K], ttl: Option<Duration>) -> io::Result<()> {
        let body = SubscribeBody {
            ttl_ms: ttl.map_or(0, |t| t.as_millis().max(1) as u64),
            keys: keys.iter().map(|k| k.as_ref().to_string()).collect(),
        };
        self.peers
            .send(self.broker, Frame::new(FrameKind::Subscribe, body.encode()))
    }

    /// Sends an `UNSUBSCRIBE` withdrawing every interest.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn unsubscribe(&self) -> io::Result<()> {
        self.peers
            .send(self.broker, Frame::new(FrameKind::Unsubscribe, Vec::new()))
    }

    /// Publishes `key` under sequence id `seq`, stamped with the
    /// current UNIX time.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn publish(&self, seq: u64, key: &str) -> io::Result<()> {
        let body = PublishBody {
            seq,
            sent_ns: unix_ns(),
            key: key.to_string(),
        };
        self.peers
            .send(self.broker, Frame::new(FrameKind::Publish, body.encode()))
    }

    /// Receives the next delivery, waiting at most `timeout`. Frames
    /// of any other kind are discarded.
    #[must_use]
    pub fn recv_delivery(&self, timeout: Duration) -> Option<Delivery> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (_, frame) = self.peers.recv_timeout(deadline - now)?;
            if frame.kind == FrameKind::Deliver {
                if let Some(body) = DeliverBody::decode(&frame.body) {
                    return Some(Delivery {
                        body,
                        received_ns: unix_ns(),
                    });
                }
            }
        }
    }
}

/// Current UNIX time in nanoseconds, saturating.
#[must_use]
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_round_trip() {
        let sub = SubscribeBody {
            ttl_ms: 1500,
            keys: vec!["news".into(), String::new(), "sports/⚽".into()],
        };
        assert_eq!(SubscribeBody::decode(&sub.encode()), Some(sub.clone()));
        let publ = PublishBody {
            seq: u64::MAX,
            sent_ns: 7,
            key: "news".into(),
        };
        assert_eq!(PublishBody::decode(&publ.encode()), Some(publ.clone()));
        let del = DeliverBody {
            seq: 3,
            sent_ns: 9,
            publisher: 42,
            key: "news".into(),
        };
        assert_eq!(DeliverBody::decode(&del.encode()), Some(del.clone()));
    }

    #[test]
    fn truncated_and_trailing_bodies_reject() {
        let good = SubscribeBody {
            ttl_ms: 10,
            keys: vec!["k".into()],
        }
        .encode();
        assert!(SubscribeBody::decode(&good[..good.len() - 1]).is_none());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(SubscribeBody::decode(&trailing).is_none());
        assert!(PublishBody::decode(&[]).is_none());
        assert!(DeliverBody::decode(&[1, 2, 3]).is_none());
        // A key length pointing past the buffer.
        let mut lying = PublishBody {
            seq: 1,
            sent_ns: 2,
            key: "abc".into(),
        }
        .encode();
        lying[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PublishBody::decode(&lying).is_none());
    }

    #[test]
    fn admission_caps_accept_the_cap_and_reject_one_past() {
        let long = "k".repeat(MAX_KEY_LEN);
        let sub = SubscribeBody {
            ttl_ms: 0,
            keys: (0..MAX_SUBSCRIBE_KEYS).map(|i| i.to_string()).collect(),
        };
        assert_eq!(SubscribeBody::decode(&sub.encode()), Some(sub.clone()));
        let sub_long = SubscribeBody {
            ttl_ms: 0,
            keys: vec![long.clone()],
        };
        assert_eq!(SubscribeBody::decode(&sub_long.encode()), Some(sub_long));
        let publ = PublishBody {
            seq: 1,
            sent_ns: 2,
            key: long.clone(),
        };
        assert_eq!(PublishBody::decode(&publ.encode()), Some(publ));

        // One key past the count cap: rejected from the count field
        // alone, before any key is read.
        let mut too_many = sub.encode();
        too_many[8..12].copy_from_slice(&(MAX_SUBSCRIBE_KEYS as u32 + 1).to_le_bytes());
        too_many.extend_from_slice(&1u32.to_le_bytes());
        too_many.push(b'x');
        assert!(SubscribeBody::decode(&too_many).is_none());

        // One byte past the key-length cap, hand-encoded because
        // `encode` debug-asserts the caps.
        let over = format!("{long}k");
        let mut sub_over = Vec::new();
        sub_over.extend_from_slice(&0u64.to_le_bytes());
        sub_over.extend_from_slice(&1u32.to_le_bytes());
        sub_over.extend_from_slice(&(over.len() as u32).to_le_bytes());
        sub_over.extend_from_slice(over.as_bytes());
        assert!(SubscribeBody::decode(&sub_over).is_none());
        let mut publ_over = Vec::new();
        publ_over.extend_from_slice(&1u64.to_le_bytes());
        publ_over.extend_from_slice(&2u64.to_le_bytes());
        publ_over.extend_from_slice(&(over.len() as u32).to_le_bytes());
        publ_over.extend_from_slice(over.as_bytes());
        assert!(PublishBody::decode(&publ_over).is_none());
    }

    #[test]
    fn wheel_pops_only_past_deadlines() {
        let mut wheel = ClockWheel::new(100);
        wheel.schedule(1, 50); // bucket 0
        wheel.schedule(2, 150); // bucket 1
        wheel.schedule(3, 250); // bucket 2
        assert_eq!(wheel.len(), 3);
        assert!(wheel.pop_due(99).is_empty(), "bucket 0 not strictly past");
        assert_eq!(wheel.pop_due(100), vec![1]);
        // now=210 ⇒ current tick 2 ⇒ buckets 0 and 1 drain, 2 stays.
        assert_eq!(wheel.pop_due(210), vec![2]);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop_due(10_000), vec![3]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_popped_entries_are_definitely_due() {
        let mut wheel = ClockWheel::new(64);
        for id in 0..1000u64 {
            wheel.schedule(id, id * 7 % 997);
        }
        let now = 500;
        for id in wheel.pop_due(now) {
            assert!(id * 7 % 997 < now, "popped {id} before its deadline");
        }
    }
}
