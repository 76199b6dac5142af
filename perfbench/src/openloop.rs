//! The open-loop load generator shared by `broker_uds` and its
//! coordinated-omission self-test.
//!
//! Arrivals follow a seeded Poisson schedule fixed before the run.
//! Every publish is timed from its *intended* send time — its `seq`
//! indexes the schedule — so a stall anywhere (generator, client,
//! broker) delays every publish due during it and shows in the
//! latency, instead of silently pushing the schedule back. How late
//! the generator itself ran is recorded separately.
//!
//! The publisher thread waits for its next due time inside the sink's
//! receive call, so it drains its own deliveries while it waits.

use crate::spans::Tracer;
use bsub_bloom::rng::SplitMix64;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Generator threads (and connections) the benchmark uses: one
/// publishing client and one subscribe-only client.
pub const GEN_THREADS: usize = 2;

/// A publish/deliver endpoint the generator drives.
pub trait Sink: Sync {
    /// Sends publish `seq` for `key`.
    fn publish(&self, seq: u64, key: &str) -> io::Result<()>;
    /// Waits at most `timeout` for the next delivery; its `seq`.
    fn recv(&self, timeout: Duration) -> Option<u64>;
}

/// A publish plan: intended send offsets (ns after the phase start)
/// and the key index of each publish. `seq` = `base_seq` + position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub base_seq: u64,
    pub offsets_ns: Vec<u64>,
    pub keys: Vec<u16>,
}

impl Plan {
    /// Open-loop Poisson arrivals at `rate` per second for `count`
    /// publishes, keys drawn by `weights`.
    pub fn poisson(seed: u64, base_seq: u64, rate: f64, count: usize, weights: &[f64]) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut t = 0.0f64;
        let mut offsets_ns = Vec::with_capacity(count);
        let mut keys = Vec::with_capacity(count);
        for _ in 0..count {
            t += -rng.next_unit_positive().ln() / rate;
            offsets_ns.push((t * 1e9) as u64);
            keys.push(weighted(&mut rng, weights));
        }
        Self {
            base_seq,
            offsets_ns,
            keys,
        }
    }

    /// Every publish due at once: sent as fast as backpressure allows.
    pub fn burst(seed: u64, base_seq: u64, count: usize, weights: &[f64]) -> Self {
        let mut rng = SplitMix64::new(seed);
        Self {
            base_seq,
            offsets_ns: vec![0; count],
            keys: (0..count).map(|_| weighted(&mut rng, weights)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Serialized plan (the seeding test compares these bytes).
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.base_seq.to_le_bytes().to_vec();
        for (o, k) in self.offsets_ns.iter().zip(&self.keys) {
            out.extend_from_slice(&o.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
        }
        out
    }
}

/// Draws an index with probability proportional to `weights`.
pub fn weighted(rng: &mut SplitMix64, weights: &[f64]) -> u16 {
    let total: f64 = weights.iter().sum();
    let mut u = rng.next_f64() * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i as u16;
        }
        u -= w;
    }
    (weights.len() - 1) as u16
}

/// What one generator thread saw.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// `(seq, receive instant)` of every delivery received.
    pub received: Vec<(u64, Instant)>,
    /// How late each publish was sent relative to its due time.
    pub late_ns: Vec<u64>,
    /// Publishes the sink refused.
    pub publish_errors: u64,
    /// The span recorder, in traced runs.
    pub tracer: Option<Tracer>,
}

impl ThreadLog {
    fn recv_once(&mut self, sink: &dyn Sink, timeout: Duration) -> bool {
        let got = match self.tracer.as_mut() {
            Some(t) => t.span("net.client_recv_delivery", 0, || sink.recv(timeout)),
            None => sink.recv(timeout),
        };
        match got {
            Some(seq) => {
                self.received.push((seq, Instant::now()));
                true
            }
            None => false,
        }
    }
}

/// Live and peak generator-thread counts (the self-test checks the
/// peak against `nproc`).
#[derive(Debug, Default)]
pub struct ThreadGauge {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl ThreadGauge {
    fn enter(&self) {
        let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn leave(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// Drives one phase: `publisher` sends `plan` (draining its own
/// deliveries while it waits) and then drains until it has received
/// `expect[0]` deliveries; `listener` receives until it has
/// `expect[1]`. Both stop at `deadline` regardless. With `drain_every`
/// set, the publisher also drains ready deliveries after that many
/// back-to-back publishes (a burst never waits for a due time).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    publisher: &dyn Sink,
    listener: &dyn Sink,
    plan: &Plan,
    keys: &[&str],
    expect: [usize; 2],
    start: Instant,
    deadline: Instant,
    drain_every: Option<usize>,
    tracers: Option<[Tracer; 2]>,
    gauge: &ThreadGauge,
) -> [ThreadLog; 2] {
    let [ta, tb] = match tracers {
        Some([a, b]) => [Some(a), Some(b)],
        None => [None, None],
    };
    std::thread::scope(|s| {
        let pub_thread = s.spawn(move || {
            gauge.enter();
            let mut log = ThreadLog {
                tracer: ta,
                ..ThreadLog::default()
            };
            if let Some(t) = log.tracer.as_mut() {
                t.enter("gen.publisher", plan.base_seq);
            }
            let mut back_to_back = 0usize;
            for (i, (&offset, &key)) in plan.offsets_ns.iter().zip(&plan.keys).enumerate() {
                let due = start + Duration::from_nanos(offset);
                let mut now = Instant::now();
                while now < due {
                    log.recv_once(publisher, due - now);
                    now = Instant::now();
                    back_to_back = 0;
                }
                if drain_every.is_some_and(|n| back_to_back >= n) {
                    while log.recv_once(publisher, Duration::from_micros(1)) {}
                    back_to_back = 0;
                }
                log.late_ns
                    .push(now.saturating_duration_since(due).as_nanos() as u64);
                let seq = plan.base_seq + i as u64;
                let key = keys[key as usize];
                let sent = match log.tracer.as_mut() {
                    Some(t) => t.span("net.client_publish", seq, || publisher.publish(seq, key)),
                    None => publisher.publish(seq, key),
                };
                if sent.is_err() {
                    log.publish_errors += 1;
                }
                back_to_back += 1;
            }
            while log.received.len() < expect[0] {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                log.recv_once(publisher, deadline - now);
            }
            if let Some(t) = log.tracer.as_mut() {
                t.exit();
            }
            gauge.leave();
            log
        });
        let listen_thread = s.spawn(move || {
            gauge.enter();
            let mut log = ThreadLog {
                tracer: tb,
                ..ThreadLog::default()
            };
            if let Some(t) = log.tracer.as_mut() {
                t.enter("gen.listener", plan.base_seq);
            }
            while log.received.len() < expect[1] {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                log.recv_once(listener, deadline - now);
            }
            if let Some(t) = log.tracer.as_mut() {
                t.exit();
            }
            gauge.leave();
            log
        });
        [
            pub_thread.join().expect("publisher thread"),
            listen_thread.join().expect("listener thread"),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::quantile;
    use std::collections::VecDeque;
    use std::sync::{Condvar, Mutex};

    /// An in-memory sink that echoes every publish back as a delivery
    /// and stalls exactly once, for 50 ms, inside one publish.
    struct StallingSink {
        queue: Mutex<VecDeque<u64>>,
        sent: Mutex<Vec<Instant>>,
        ready: Condvar,
        stall_at: u64,
        stall: Duration,
    }

    impl Sink for StallingSink {
        fn publish(&self, seq: u64, _key: &str) -> io::Result<()> {
            if seq == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.sent.lock().expect("sent lock").push(Instant::now());
            self.queue.lock().expect("queue lock").push_back(seq);
            self.ready.notify_all();
            Ok(())
        }

        fn recv(&self, timeout: Duration) -> Option<u64> {
            let q = self.queue.lock().expect("queue lock");
            let (mut q, _) = self
                .ready
                .wait_timeout_while(q, timeout, |q| q.is_empty())
                .expect("queue lock");
            q.pop_front()
        }
    }

    /// A sink that never delivers (the listener side of the test).
    struct Silent;

    impl Sink for Silent {
        fn publish(&self, _: u64, _: &str) -> io::Result<()> {
            Ok(())
        }
        fn recv(&self, timeout: Duration) -> Option<u64> {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            None
        }
    }

    #[test]
    fn a_stall_shows_in_intended_time_latency_and_generator_lateness() {
        let rate = 2000.0;
        let n = 1000;
        let plan = Plan::poisson(7, 0, rate, n, &[1.0]);
        let sink = StallingSink {
            queue: Mutex::new(VecDeque::new()),
            sent: Mutex::new(Vec::new()),
            ready: Condvar::new(),
            stall_at: (n / 2) as u64,
            stall: Duration::from_millis(50),
        };
        let gauge = ThreadGauge::default();
        let start = Instant::now() + Duration::from_millis(5);
        let deadline = start + Duration::from_secs(10);
        let [a, _b] = drive(
            &sink,
            &Silent,
            &plan,
            &["k"],
            [n, 0],
            start,
            deadline,
            None,
            None,
            &gauge,
        );
        assert_eq!(a.received.len(), n, "every publish echoed");

        let mut from_intended: Vec<u64> = a
            .received
            .iter()
            .map(|&(seq, at)| {
                let due = start + Duration::from_nanos(plan.offsets_ns[seq as usize]);
                at.saturating_duration_since(due).as_nanos() as u64
            })
            .collect();
        from_intended.sort_unstable();
        let mut late = a.late_ns.clone();
        late.sort_unstable();
        // ~100 publishes fall due during the 50 ms stall (2000/s), 10 %
        // of the run: both p99s must carry a large share of it.
        let ms = 1_000_000;
        assert!(
            quantile(&from_intended, 0.99) >= 20 * ms,
            "latency from the intended time hides the stall"
        );
        assert!(
            quantile(&late, 0.99) >= 20 * ms,
            "generator lateness hides the stall"
        );
        // Timed from the actual send instead, the stall vanishes: the
        // coordinated-omission error this generator avoids.
        let sent = sink.sent.lock().expect("sent lock");
        let mut from_actual: Vec<u64> = a
            .received
            .iter()
            .map(|&(seq, at)| at.saturating_duration_since(sent[seq as usize]).as_nanos() as u64)
            .collect();
        from_actual.sort_unstable();
        assert!(quantile(&from_actual, 0.99) < 20 * ms);

        // At most one generator thread per connection, and no more of
        // either than the host has CPUs.
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!((1..=GEN_THREADS).contains(&gauge.peak()));
        assert!(
            GEN_THREADS <= nproc,
            "generator uses {GEN_THREADS} threads and connections on a {nproc}-CPU host"
        );
    }

    #[test]
    fn plans_follow_the_seed() {
        let w = [0.5, 0.3, 0.2];
        let a = Plan::poisson(1, 0, 1000.0, 500, &w);
        assert_eq!(a, Plan::poisson(1, 0, 1000.0, 500, &w));
        assert_ne!(a, Plan::poisson(2, 0, 1000.0, 500, &w));
        let mean_gap = a.offsets_ns[499] as f64 / 500.0;
        assert!((mean_gap - 1e6).abs() < 1.5e5, "Poisson rate {mean_gap} ns");
    }
}
