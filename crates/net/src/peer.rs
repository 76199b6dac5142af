//! The peer/connection manager: lifecycle, dial races, backpressure.
//!
//! A [`PeerManager`] owns one listening socket and at most one live
//! connection per remote peer. Each connection moves through the
//! explicit state machine of DESIGN.md §12.1:
//!
//! ```text
//! Idle → Dialing ──┐
//!                  ├→ Established → Draining → Closed
//! Idle → Accepting ┘        │
//!                           └→ Closed   (error / displaced by a race)
//! ```
//!
//! **Handshake.** Three HELLO frames: the dialer announces itself,
//! the acceptor replies, and the dialer confirms. The acceptor only
//! installs the connection after reading the confirmation, so a
//! dialer whose reply read timed out (and who will therefore retry on
//! a fresh socket) never leaves a half-installed ghost behind on the
//! acceptor — on a loaded single-core host that ghost used to win the
//! duplicate-dial tiebreak against the retry and wedge the link. The
//! first two legs are guarded by the handshake timeout; the
//! confirmation read is not (an abandoning dialer closes the socket,
//! which aborts the read with EOF), because timing it out would drop
//! a socket the dialer already considers established.
//!
//! **Dial races.** Two peers that dial each other simultaneously
//! create two sockets for one logical link. Both sides resolve the
//! conflict with the same local rule — *the connection dialed by the
//! lower peer id wins* — so they converge on one surviving socket
//! without exchanging another byte (DESIGN.md §12.2). The loser is
//! torn down and counted under the `net_race_lost` metric. A
//! duplicate dial from the *same* direction is not a race: the remote
//! only re-dials after abandoning its previous socket, so the
//! newcomer always replaces the incumbent.
//!
//! **Backpressure.** Each connection's outbound path is a bounded
//! queue drained by a dedicated writer thread; [`PeerManager::send`]
//! blocks when the queue is full, so a slow peer throttles its
//! producers instead of growing an unbounded buffer. Inbound frames
//! from all peers funnel into one channel read via
//! [`PeerManager::recv_timeout`].
//!
//! **Reset semantics.** Frame streams never resynchronize: any read
//! error (CRC mismatch, unknown kind, EOF mid-frame) closes the
//! connection. Re-establishing is the dialer's job, with the
//! deterministic jittered backoff of [`crate::backoff`].

use crate::backoff::Backoff;
use crate::frame::{Frame, FrameKind, HEADER_LEN};
use crate::metrics::{frame_size_hist, frame_time_hist, NetMetrics};
use crate::trace::{self, NetEvent, NetTrace, TraceSlot};
use crate::transport::{EndpointAddr, Listener, Stream};
use bsub_obs::Counter;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A cluster-wide peer identity. Ids double as the dial-race
/// tiebreaker, so they must be unique within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer-{}", self.0)
    }
}

/// Lifecycle state of the connection toward one remote peer
/// (DESIGN.md §12.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnState {
    /// No connection and no attempt in progress.
    #[default]
    Idle,
    /// An outbound dial (including its HELLO exchange) is in flight.
    Dialing,
    /// An inbound connection's HELLO exchange is in flight.
    Accepting,
    /// The connection is live in both directions.
    Established,
    /// The outbound queue is closed and flushing; reads continue
    /// until the peer closes.
    Draining,
    /// The connection is gone (drained, errored, or displaced by a
    /// dial race).
    Closed,
}

/// Configuration for a [`PeerManager`].
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// This peer's identity.
    pub local: PeerId,
    /// The address this peer listens on.
    pub addr: EndpointAddr,
    /// Seed for the deterministic dial backoff.
    pub seed: u64,
    /// Outbound queue depth per connection; a full queue blocks
    /// [`PeerManager::send`] (backpressure).
    pub queue_depth: usize,
    /// Read timeout for the HELLO handshake.
    pub handshake_timeout: Duration,
    /// Dial attempts before [`PeerManager::connect`] gives up.
    pub dial_attempts: u32,
}

impl PeerConfig {
    /// A configuration with the defaults: queue depth 64, 2 s
    /// handshake timeout, 200 dial attempts.
    #[must_use]
    pub fn new(local: PeerId, addr: EndpointAddr, seed: u64) -> Self {
        Self {
            local,
            addr,
            seed,
            queue_depth: 64,
            handshake_timeout: Duration::from_secs(2),
            dial_attempts: 200,
        }
    }
}

/// One live connection's bookkeeping. The `stream` handle exists to
/// tear the socket down; the reader and writer threads own clones.
struct Conn {
    tx: SyncSender<Frame>,
    stream: Stream,
    dialer: PeerId,
    epoch: u64,
}

/// What this peer knows about one remote peer: the one source of truth
/// for both its connection and its lifecycle state.
enum Entry {
    /// The connection is live ([`ConnState::Established`]).
    Live(Conn),
    /// No connection: a handshake in flight (`Dialing`, `Accepting`),
    /// or the retained end state of a gone one (`Draining`, `Closed`).
    Down(ConnState),
}

impl Entry {
    fn live(&self) -> Option<&Conn> {
        match self {
            Entry::Live(conn) => Some(conn),
            Entry::Down(_) => None,
        }
    }
}

struct Shared {
    local: PeerId,
    queue_depth: usize,
    /// Every remote peer's [`Entry`]. Connection and state change
    /// together under this one lock, so no interleaving can report a
    /// state the connection table contradicts.
    conns: Mutex<HashMap<PeerId, Entry>>,
    /// Signalled on every `conns` mutation (install, displacement,
    /// retirement, drain, shutdown) so waiters like
    /// [`PeerManager::await_connections`] never have to poll on a
    /// fixed sleep — the fix for the 1-vCPU assembly flake.
    conns_changed: Condvar,
    inbound: Sender<(PeerId, Frame)>,
    shutdown: AtomicBool,
    epochs: AtomicU64,
    /// Cross-thread metrics sink (socket threads have no thread-local
    /// profiler); disabled unless armed via [`PeerManager::metrics`].
    metrics: NetMetrics,
    /// Optional wall-clock event trace; empty slot = one atomic load.
    trace: TraceSlot,
}

/// The number of live connections in a `conns` table.
fn live_count(conns: &HashMap<PeerId, Entry>) -> usize {
    conns.values().filter(|e| e.live().is_some()).count()
}

impl Shared {
    /// Marks a handshake toward `peer` as in flight (`Dialing` or
    /// `Accepting`), unless a live connection already serves it: a
    /// handshake that will lose to that connection must not mask it.
    /// Returns whether the peer is already connected.
    fn begin_handshake(&self, peer: PeerId, state: ConnState) -> bool {
        let mut conns = self.conns.lock().expect("conns lock");
        if matches!(conns.get(&peer), Some(Entry::Live(_))) {
            return true;
        }
        conns.insert(peer, Entry::Down(state));
        false
    }

    /// Reverts a failed handshake's `state` mark to `Idle`, unless
    /// something newer (another handshake, a connection) replaced it.
    fn fail_handshake(&self, peer: PeerId, state: ConnState) {
        let mut conns = self.conns.lock().expect("conns lock");
        if matches!(conns.get(&peer), Some(Entry::Down(s)) if *s == state) {
            conns.remove(&peer);
        }
    }

    fn trace(&self, event: NetEvent) {
        trace::record(&self.trace, event);
    }
}

/// Manages this peer's listening socket and its connections; see the
/// module docs for the lifecycle, race, and backpressure rules.
pub struct PeerManager {
    shared: Arc<Shared>,
    inbound_rx: Mutex<Receiver<(PeerId, Frame)>>,
    config: PeerConfig,
}

impl fmt::Debug for PeerManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerManager")
            .field("local", &self.config.local)
            .field("addr", &self.config.addr)
            .field("connections", &self.connection_count())
            .finish_non_exhaustive()
    }
}

impl PeerManager {
    /// Binds the configured address and starts the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: PeerConfig) -> io::Result<Arc<Self>> {
        let listener = Listener::bind(&config.addr)?;
        let (inbound_tx, inbound_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            local: config.local,
            queue_depth: config.queue_depth,
            conns: Mutex::new(HashMap::new()),
            conns_changed: Condvar::new(),
            inbound: inbound_tx,
            shutdown: AtomicBool::new(false),
            epochs: AtomicU64::new(0),
            metrics: NetMetrics::new(),
            trace: TraceSlot::new(),
        });
        let manager = Arc::new(Self {
            shared: Arc::clone(&shared),
            inbound_rx: Mutex::new(inbound_rx),
            config: config.clone(),
        });
        let handshake_timeout = config.handshake_timeout;
        thread::spawn(move || accept_loop(&shared, &listener, handshake_timeout));
        Ok(manager)
    }

    /// This peer's identity.
    #[must_use]
    pub fn local(&self) -> PeerId {
        self.config.local
    }

    /// The cross-thread metrics sink shared by this peer's socket
    /// threads. Disabled until [`NetMetrics::enable`] is called, so an
    /// unobserved runtime records nothing.
    #[must_use]
    pub fn metrics(&self) -> &NetMetrics {
        &self.shared.metrics
    }

    /// Attaches a wall-clock event trace. Only the first attach wins;
    /// a later call is ignored (the slot is write-once).
    pub fn attach_trace(&self, trace: Arc<NetTrace>) {
        let _ = self.shared.trace.set(trace);
    }

    /// The lifecycle state of the connection toward `peer`.
    #[must_use]
    pub fn state(&self, peer: PeerId) -> ConnState {
        match self.shared.conns.lock().expect("conns lock").get(&peer) {
            Some(Entry::Live(_)) => ConnState::Established,
            Some(Entry::Down(state)) => *state,
            None => ConnState::Idle,
        }
    }

    /// The number of live connections.
    #[must_use]
    pub fn connection_count(&self) -> usize {
        live_count(&self.shared.conns.lock().expect("conns lock"))
    }

    /// Dials `peer` at `addr` until a connection is established (in
    /// either direction — losing a dial race to the peer's own dial
    /// still counts as connected), retrying with the deterministic
    /// jittered backoff.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] after the configured number of
    /// attempts; [`io::ErrorKind::Interrupted`] on shutdown.
    pub fn connect(&self, peer: PeerId, addr: &EndpointAddr) -> io::Result<()> {
        let mut backoff = Backoff::new(
            self.config.seed,
            u64::from(self.config.local.0),
            u64::from(peer.0),
        );
        for attempt in 1..=self.config.dial_attempts {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "peer manager is shut down",
                ));
            }
            if self.shared.begin_handshake(peer, ConnState::Dialing) {
                return Ok(());
            }
            self.shared.trace(NetEvent::Dial { peer, attempt });
            match self.dial_once(peer, addr) {
                Ok(()) => return Ok(()),
                Err(_) => {
                    self.shared.metrics.count(Counter::NetRetries, 1);
                    self.shared.fail_handshake(peer, ConnState::Dialing);
                    let delay = backoff.next_delay();
                    self.shared.trace(NetEvent::Retry {
                        peer,
                        delay_ms: delay.as_millis() as u64,
                    });
                    thread::sleep(delay);
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("could not reach {peer} at {addr}"),
        ))
    }

    fn dial_once(&self, peer: PeerId, addr: &EndpointAddr) -> io::Result<()> {
        let mut stream = Stream::connect(addr)?;
        stream.set_read_timeout(Some(self.config.handshake_timeout))?;
        Frame::new(FrameKind::Hello, self.config.local.0.to_le_bytes().to_vec())
            .write_to(&mut stream)?;
        let reply = Frame::read_from(&mut stream)?;
        let remote = decode_hello(&reply)?;
        if remote != peer {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("dialed {peer}, reached {remote}"),
            ));
        }
        // Third leg of the handshake: confirm so the acceptor knows
        // this socket was not abandoned to a reply timeout. Only after
        // this write does either side install.
        Frame::new(FrameKind::Hello, self.config.local.0.to_le_bytes().to_vec())
            .write_to(&mut stream)?;
        stream.set_read_timeout(None)?;
        // Either this socket was installed or an existing (or
        // race-winning) connection already serves the peer — both
        // mean "connected".
        install(&self.shared, peer, stream, self.config.local)?;
        Ok(())
    }

    /// Queues `frame` for `peer`. Blocks while the peer's bounded
    /// outbound queue is full — this is the backpressure surface.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotConnected`] without a live connection;
    /// [`io::ErrorKind::BrokenPipe`] if the connection died while the
    /// frame was queued.
    pub fn send(&self, peer: PeerId, frame: Frame) -> io::Result<()> {
        let tx = {
            let conns = self.shared.conns.lock().expect("conns lock");
            conns.get(&peer).and_then(Entry::live).map(|c| c.tx.clone())
        };
        let tx = tx.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                format!("no connection to {peer}"),
            )
        })?;
        // Try the fast path first so a full queue — the backpressure
        // surface — is observable before this call blocks on it.
        let frame = match tx.try_send(frame) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(_)) => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("{peer} went away"),
                ));
            }
            Err(TrySendError::Full(frame)) => {
                self.shared.metrics.count(Counter::NetSendStalls, 1);
                self.shared.trace(NetEvent::SendStall {
                    peer,
                    kind: frame.kind,
                });
                frame
            }
        };
        tx.send(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, format!("{peer} went away")))
    }

    /// Receives the next inbound frame from any peer, waiting at most
    /// `timeout`. `None` on timeout.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(PeerId, Frame)> {
        self.inbound_rx
            .lock()
            .expect("inbound lock")
            .recv_timeout(timeout)
            .ok()
    }

    /// Waits until `count` connections are live.
    ///
    /// Readiness-driven: the waiter parks on a condvar that every
    /// `conns` mutation signals, so assembly needs no polling interval
    /// — on a 1-vCPU host the old fixed 5 ms sleep could starve the
    /// handshake threads it was waiting for. A bounded wait slice
    /// remains as a backstop; each slice that expires without progress
    /// is counted under `net_poll_starved`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] if the cluster does not assemble
    /// within `timeout`.
    pub fn await_connections(&self, count: usize, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        let mut conns = self.shared.conns.lock().expect("conns lock");
        while live_count(&conns) < count {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{} of {count} peers connected before timeout",
                        live_count(&conns)
                    ),
                ));
            }
            let before = live_count(&conns);
            let slice = (deadline - now).min(Duration::from_secs(1));
            let (guard, wait) = self
                .shared
                .conns_changed
                .wait_timeout(conns, slice)
                .expect("conns lock");
            conns = guard;
            if wait.timed_out() && live_count(&conns) <= before {
                self.shared.metrics.count(Counter::NetPollStarved, 1);
            }
        }
        Ok(())
    }

    /// Starts a graceful drain toward `peer`: the outbound queue is
    /// closed and flushed by the writer, then the write side shuts
    /// down; the peer observes a clean EOF after the last frame.
    pub fn drain(&self, peer: PeerId) {
        let mut conns = self.shared.conns.lock().expect("conns lock");
        if conns.get(&peer).and_then(Entry::live).is_none() {
            return;
        }
        // Dropping the Conn drops its SyncSender; the writer thread
        // drains the queue, then half-closes the socket.
        conns.insert(peer, Entry::Down(ConnState::Draining));
        self.shared.conns_changed.notify_all();
        drop(conns);
        self.shared.trace(NetEvent::Drain { peer });
    }

    /// Tears down every connection and stops the accept loop.
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut conns = self.shared.conns.lock().expect("conns lock");
        let mut closed = Vec::new();
        for (&peer, entry) in conns.iter_mut() {
            if let Entry::Live(conn) = entry {
                conn.stream.shutdown_both();
                *entry = Entry::Down(ConnState::Closed);
                closed.push(peer);
            }
        }
        self.shared.conns_changed.notify_all();
        drop(conns);
        for peer in closed {
            self.shared.trace(NetEvent::Closed { peer });
        }
    }
}

impl Drop for PeerManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn decode_hello(frame: &Frame) -> io::Result<PeerId> {
    if frame.kind != FrameKind::Hello || frame.body.len() != 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed HELLO",
        ));
    }
    Ok(PeerId(u32::from_le_bytes(
        frame.body[..4].try_into().expect("4 bytes"),
    )))
}

/// Longest the accept loop sleeps between empty polls.
const ACCEPT_IDLE_CAP: Duration = Duration::from_millis(5);

fn accept_loop(shared: &Arc<Shared>, listener: &Listener, handshake_timeout: Duration) {
    // Adaptive wait instead of a fixed sleep: yield while a burst may
    // still be arriving, then back off geometrically to the cap. On a
    // 1-vCPU host the yields give handshake threads the core instead
    // of parking the loop for a full 5 ms at the worst moment.
    let mut idle = 0u32;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept_pending() {
            Ok(Some(stream)) => {
                idle = 0;
                shared.trace(NetEvent::Accept);
                let shared = Arc::clone(shared);
                thread::spawn(move || accept_handshake(&shared, stream, handshake_timeout));
            }
            Ok(None) => {
                idle = idle.saturating_add(1);
                if idle <= 3 {
                    thread::yield_now();
                } else {
                    let backoff = Duration::from_micros(200).saturating_mul(1 << (idle - 4).min(8));
                    thread::sleep(backoff.min(ACCEPT_IDLE_CAP));
                }
            }
            Err(_) => break,
        }
    }
}

fn accept_handshake(shared: &Arc<Shared>, mut stream: Stream, handshake_timeout: Duration) {
    let mut accepting = None;
    let outcome = (|| -> io::Result<()> {
        stream.set_read_timeout(Some(handshake_timeout))?;
        let hello = Frame::read_from(&mut stream)?;
        let remote = decode_hello(&hello)?;
        accepting = Some(remote);
        shared.begin_handshake(remote, ConnState::Accepting);
        Frame::new(FrameKind::Hello, shared.local.0.to_le_bytes().to_vec())
            .write_to(&mut stream)?;
        // Wait for the dialer's confirmation before installing: a
        // dialer whose reply read timed out abandons the socket and
        // retries, and installing its ghost here would let the ghost
        // win the duplicate-dial tiebreak against that retry. The
        // confirmation read is NOT timed: the counterparty proved
        // itself live with a valid HELLO, and our dialer either
        // confirms promptly or closes the socket (a clean EOF aborts
        // this read) — while a timeout here would re-open the window
        // in the other direction, dropping a socket the dialer
        // already considers established.
        stream.set_read_timeout(None)?;
        let confirm = decode_hello(&Frame::read_from(&mut stream)?)?;
        if confirm != remote {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "handshake confirmation names a different peer",
            ));
        }
        stream.set_read_timeout(None)?;
        // An accepted connection was dialed by the remote peer.
        install(shared, remote, stream, remote)?;
        Ok(())
    })();
    // A failed handshake leaves no installed connection; only its
    // `Accepting` mark needs reverting.
    if let (Err(_), Some(remote)) = (outcome, accepting) {
        shared.fail_handshake(remote, ConnState::Accepting);
    }
}

/// Installs a freshly handshaken connection, resolving a dial race if
/// a connection to `peer` already exists: the socket dialed by the
/// lower peer id survives, the other is torn down (both sides apply
/// the same rule and converge without coordination).
fn install(shared: &Arc<Shared>, peer: PeerId, stream: Stream, dialer: PeerId) -> io::Result<bool> {
    let reader_stream = stream.try_clone()?;
    let writer_stream = stream.try_clone()?;
    let mut conns = shared.conns.lock().expect("conns lock");
    if let Some(existing) = conns.get(&peer).and_then(Entry::live) {
        if existing.dialer < dialer {
            // The established connection wins: it was dialed by the
            // lower id. Discard the newcomer.
            shared.metrics.count(Counter::NetRaceLost, 1);
            shared.trace(NetEvent::RaceLost { peer });
            drop(conns);
            stream.shutdown_both();
            return Ok(false);
        }
        // The newcomer wins: either it was dialed by the lower id
        // (cross race), or this is a duplicate dial of the same
        // direction — the remote only re-dials after abandoning its
        // previous socket, so the incumbent is dead. Displace it; its
        // reader observes the teardown and exits without touching the
        // new entry (epoch check).
        shared.metrics.count(Counter::NetRaceLost, 1);
        shared.trace(NetEvent::Displaced { peer });
        existing.stream.shutdown_both();
    }
    let epoch = shared.epochs.fetch_add(1, Ordering::SeqCst) + 1;
    let (tx, rx) = mpsc::sync_channel(shared.queue_depth);
    conns.insert(
        peer,
        Entry::Live(Conn {
            tx,
            stream,
            dialer,
            epoch,
        }),
    );
    shared.conns_changed.notify_all();
    drop(conns);
    shared.trace(NetEvent::HandshakeOk {
        peer,
        dialer: dialer == shared.local,
    });
    {
        let shared = Arc::clone(shared);
        thread::spawn(move || reader_loop(&shared, reader_stream, peer, epoch));
    }
    {
        let shared = Arc::clone(shared);
        thread::spawn(move || writer_loop(&shared, writer_stream, &rx));
    }
    Ok(true)
}

fn reader_loop(shared: &Arc<Shared>, mut stream: Stream, peer: PeerId, epoch: u64) {
    // Reset semantics: any read error — CRC mismatch, EOF mid-frame,
    // socket teardown — ends the connection; the stream is never
    // resynchronized.
    while let Ok(frame) = Frame::read_from(&mut stream) {
        shared.metrics.count(Counter::NetFramesRecv, 1);
        shared.metrics.count(
            Counter::NetBytesRecv,
            (HEADER_LEN + frame.body.len()) as u64,
        );
        if shared.inbound.send((peer, frame)).is_err() {
            break;
        }
    }
    let mut conns = shared.conns.lock().expect("conns lock");
    // Only retire the entry if it is still ours; if a dial race
    // displaced this connection, the winner's entry stays untouched.
    if let Some(conn) = conns
        .get(&peer)
        .and_then(Entry::live)
        .filter(|c| c.epoch == epoch)
    {
        conn.stream.shutdown_both();
        conns.insert(peer, Entry::Down(ConnState::Closed));
        shared.conns_changed.notify_all();
        drop(conns);
        shared.trace(NetEvent::Closed { peer });
    }
}

fn writer_loop(shared: &Arc<Shared>, mut stream: Stream, rx: &Receiver<Frame>) {
    while let Ok(frame) = rx.recv() {
        // The clock is read only when the sink is armed, keeping the
        // unobserved hot path free of syscalls.
        let started = shared.metrics.is_enabled().then(Instant::now);
        let kind = frame.kind;
        let bytes = frame.encoded_len() as u64;
        if frame.write_to(&mut stream).is_err() {
            return; // reader notices the dead socket and retires it
        }
        if let Some(started) = started {
            // Per-kind wall clock from dequeue to completed write,
            // and per-kind encoded size. Sizes are recorded on the
            // send side only so a cluster-wide merge counts each
            // frame exactly once.
            let ns = started.elapsed().as_nanos() as u64;
            shared.metrics.observe_ns(frame_time_hist(kind), ns);
            shared.metrics.observe(frame_size_hist(kind), bytes);
        }
        shared.metrics.count(Counter::NetFramesSent, 1);
        shared.metrics.count(Counter::NetBytesSent, bytes);
    }
    // Queue closed (drain): everything queued has been written.
    stream.shutdown_write();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn scratch_addr(tag: &str) -> EndpointAddr {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        EndpointAddr::Unix(
            std::env::temp_dir().join(format!("bsub-peer-{}-{tag}-{n}.sock", std::process::id())),
        )
    }

    fn pair(
        tag: &str,
    ) -> (
        Arc<PeerManager>,
        Arc<PeerManager>,
        EndpointAddr,
        EndpointAddr,
    ) {
        let (a_addr, b_addr) = (
            scratch_addr(&format!("{tag}a")),
            scratch_addr(&format!("{tag}b")),
        );
        let a = PeerManager::bind(PeerConfig::new(PeerId(0), a_addr.clone(), 7)).unwrap();
        let b = PeerManager::bind(PeerConfig::new(PeerId(1), b_addr.clone(), 7)).unwrap();
        (a, b, a_addr, b_addr)
    }

    #[test]
    fn connect_send_recv() {
        let (a, b, _a_addr, b_addr) = pair("basic");
        a.connect(PeerId(1), &b_addr).unwrap();
        assert_eq!(a.state(PeerId(1)), ConnState::Established);
        a.send(
            PeerId(1),
            Frame::new(FrameKind::Dispatch, 42u64.to_le_bytes().to_vec()),
        )
        .unwrap();
        let (from, frame) = b
            .recv_timeout(Duration::from_secs(5))
            .expect("frame arrives");
        assert_eq!(from, PeerId(0));
        assert_eq!(frame.kind, FrameKind::Dispatch);
        assert_eq!(b.state(PeerId(0)), ConnState::Established);
        // And the reverse direction over the same socket.
        b.send(PeerId(0), Frame::new(FrameKind::PublishOk, Vec::new()))
            .unwrap();
        let (from, frame) = a
            .recv_timeout(Duration::from_secs(5))
            .expect("reply arrives");
        assert_eq!((from, frame.kind), (PeerId(1), FrameKind::PublishOk));
    }

    #[test]
    fn send_without_connection_errors() {
        let (a, _b, _a_addr, _b_addr) = pair("noconn");
        let err = a
            .send(PeerId(9), Frame::new(FrameKind::Done, Vec::new()))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        assert_eq!(a.state(PeerId(9)), ConnState::Idle);
    }

    #[test]
    fn connect_retries_until_listener_appears() {
        let addr = scratch_addr("late");
        let a = PeerManager::bind(PeerConfig::new(PeerId(0), scratch_addr("latea"), 7)).unwrap();
        let dial_addr = addr.clone();
        let dialer = {
            let a = Arc::clone(&a);
            thread::spawn(move || a.connect(PeerId(1), &dial_addr))
        };
        // Let a few dial attempts fail before the listener exists.
        thread::sleep(Duration::from_millis(60));
        let _b = PeerManager::bind(PeerConfig::new(PeerId(1), addr, 7)).unwrap();
        dialer.join().unwrap().unwrap();
        assert_eq!(a.state(PeerId(1)), ConnState::Established);
    }

    #[test]
    fn metrics_sink_and_trace_observe_the_lifecycle() {
        let (a, b, _a_addr, b_addr) = pair("obsplane");
        a.metrics().enable();
        let trace = Arc::new(NetTrace::new());
        a.attach_trace(Arc::clone(&trace));
        a.connect(PeerId(1), &b_addr).unwrap();
        a.send(PeerId(1), Frame::new(FrameKind::Dispatch, vec![0; 16]))
            .unwrap();
        b.recv_timeout(Duration::from_secs(5)).expect("delivered");
        a.drain(PeerId(1));

        // The writer thread records asynchronously; wait for it.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = a.metrics().snapshot();
            // Dispatch + the dial-side share of the HELLO exchange.
            if snap.counter(Counter::NetFramesSent) >= 1 {
                assert!(snap.counter(Counter::NetBytesSent) >= 16);
                assert_eq!(
                    snap.size_hist(bsub_obs::SizeHist::NetFrameDispatchBytes)
                        .count(),
                    1
                );
                assert_eq!(
                    snap.time_hist(bsub_obs::TimeHist::NetFrameDispatchNs)
                        .count(),
                    1
                );
                break;
            }
            assert!(Instant::now() < deadline, "writer metrics never appeared");
            thread::yield_now();
        }

        let labels: Vec<&str> = trace.events().iter().map(|e| e.event.label()).collect();
        assert!(labels.contains(&"dial"), "{labels:?}");
        assert!(labels.contains(&"handshake_ok"), "{labels:?}");
        assert!(labels.contains(&"drain"), "{labels:?}");
        assert!(trace.to_jsonl().lines().count() == labels.len());

        // B never armed its sink: nothing recorded there.
        assert!(b.metrics().snapshot().is_empty());
    }

    /// The dial-race stale-state sequence, step by step: the link is
    /// already established when an inbound handshake from the same peer
    /// reaches its `Accepting` step, and that handshake then loses the
    /// race in `install`. The live link must still read `Established`.
    #[test]
    fn losing_accept_keeps_established_state() {
        let (a, _b, _a_addr, b_addr) = pair("stale");
        a.connect(PeerId(1), &b_addr).unwrap();
        assert_eq!(a.state(PeerId(1)), ConnState::Established);

        // The inbound handshake from peer 1 reads its HELLO ...
        assert!(a.shared.begin_handshake(PeerId(1), ConnState::Accepting));
        assert_eq!(a.state(PeerId(1)), ConnState::Established);
        // ... and installs a socket dialed by 1, which loses to the
        // incumbent dialed by 0.
        let stream = Stream::connect(&b_addr).unwrap();
        let installed = install(&a.shared, PeerId(1), stream, PeerId(1)).unwrap();
        assert!(!installed, "the incumbent dialed by the lower id wins");
        assert_eq!(a.state(PeerId(1)), ConnState::Established);
        assert_eq!(a.connection_count(), 1);
    }

    #[test]
    fn failed_handshake_reverts_only_its_own_mark() {
        let (a, _b, _a_addr, _b_addr) = pair("revert");
        assert!(!a.shared.begin_handshake(PeerId(5), ConnState::Accepting));
        assert_eq!(a.state(PeerId(5)), ConnState::Accepting);
        // A newer dial replaced the mark: the failed accept leaves it.
        assert!(!a.shared.begin_handshake(PeerId(5), ConnState::Dialing));
        a.shared.fail_handshake(PeerId(5), ConnState::Accepting);
        assert_eq!(a.state(PeerId(5)), ConnState::Dialing);
        a.shared.fail_handshake(PeerId(5), ConnState::Dialing);
        assert_eq!(a.state(PeerId(5)), ConnState::Idle);
    }

    #[test]
    fn drain_flushes_then_closes() {
        let (a, b, _a_addr, b_addr) = pair("drain");
        a.connect(PeerId(1), &b_addr).unwrap();
        a.send(PeerId(1), Frame::new(FrameKind::Done, Vec::new()))
            .unwrap();
        a.drain(PeerId(1));
        assert!(matches!(
            a.state(PeerId(1)),
            ConnState::Draining | ConnState::Closed
        ));
        // The queued frame still arrives before the EOF.
        let (_, frame) = b
            .recv_timeout(Duration::from_secs(5))
            .expect("drained frame");
        assert_eq!(frame.kind, FrameKind::Done);
        // B's reader sees the clean EOF and retires the connection.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while b.state(PeerId(0)) != ConnState::Closed {
            assert!(std::time::Instant::now() < deadline, "peer retires on EOF");
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(b.connection_count(), 0);
    }
}
