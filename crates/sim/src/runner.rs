//! The simulation runner: merges the contact trace with the message
//! schedule and drives a [`Protocol`] through both.

use crate::fault::{FaultSpec, FaultState, PPM};
use crate::link::Link;
use crate::message::{Message, MessageId};
use crate::metrics::{MetricsCollector, SimReport};
use crate::protocols::{Protocol, ProtocolFactory, SimCtx};
use crate::record::{LossCause, NullRecorder, Recorder, TraceEvent};
use crate::subscriptions::SubscriptionTable;
use bsub_obs::{self as obs, Counter, SizeHist, TimeHist};
use bsub_traces::{ContactEvent, ContactTrace, NodeId, SimDuration, SimTime};
use std::sync::Arc;

/// Global simulation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Effective link rate in bytes per second. The paper assumes
    /// 250 Kbps = 31,250 B/s (Section VII-A).
    pub bytes_per_sec: u64,
    /// Message TTL — the maximum tolerable delay, identical for every
    /// message of a run (the paper sweeps it on the x-axis of
    /// Figs. 7–8).
    pub ttl: SimDuration,
}

impl Default for SimConfig {
    /// 250 Kbps links, 20-hour TTL (the setting of Fig. 9).
    fn default() -> Self {
        Self {
            bytes_per_sec: 31_250,
            ttl: SimDuration::from_hours(20),
        }
    }
}

/// A scheduled message publication, produced by the workload
/// generator (`bsub-workload`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedMessage {
    /// Publication time.
    pub at: SimTime,
    /// Publishing node.
    pub producer: NodeId,
    /// Content key.
    pub key: Arc<str>,
    /// Payload size in bytes.
    pub size: u32,
}

/// One simulation: a trace, the ground-truth subscriptions, a message
/// schedule, and the global configuration.
///
/// Inputs are held behind [`Arc`]s, so a `Simulation` is a cheap,
/// thread-shareable *description* of a run: the sweep executor clones
/// one per grid point and fans them out over worker threads without
/// copying the trace or schedule. Together with a
/// [`ProtocolFactory`], a `Simulation` fully describes an independent
/// run (see [`Simulation::run_factory`]).
#[derive(Debug, Clone)]
pub struct Simulation {
    trace: Arc<ContactTrace>,
    subscriptions: Arc<SubscriptionTable>,
    schedule: Arc<[GeneratedMessage]>,
    config: SimConfig,
    faults: FaultSpec,
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// Accepts owned values, `Arc`s, or anything else convertible —
    /// e.g. a `Vec<GeneratedMessage>` for the schedule. Passing `Arc`s
    /// shares the inputs with the caller at zero cost.
    ///
    /// # Panics
    ///
    /// Panics if the subscription table's node count differs from the
    /// trace's, or the schedule is not sorted by time.
    #[must_use]
    pub fn new(
        trace: impl Into<Arc<ContactTrace>>,
        subscriptions: impl Into<Arc<SubscriptionTable>>,
        schedule: impl Into<Arc<[GeneratedMessage]>>,
        config: SimConfig,
    ) -> Self {
        let trace = trace.into();
        let subscriptions = subscriptions.into();
        let schedule = schedule.into();
        assert_eq!(
            subscriptions.node_count(),
            trace.node_count(),
            "subscription table does not match trace"
        );
        assert!(
            schedule.windows(2).all(|w| w[0].at <= w[1].at),
            "message schedule must be sorted by time"
        );
        Self {
            trace,
            subscriptions,
            schedule,
            config,
            faults: FaultSpec::none(),
        }
    }

    /// Attaches a fault model to the run. [`FaultSpec::none`] (the
    /// default) is guaranteed to change nothing: the fault layer is a
    /// single branch per contact and draws no randomness.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The fault model in effect.
    #[must_use]
    pub fn faults(&self) -> &FaultSpec {
        &self.faults
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The contact trace driving the run.
    #[must_use]
    pub fn trace(&self) -> &Arc<ContactTrace> {
        &self.trace
    }

    /// The ground-truth subscription table.
    #[must_use]
    pub fn subscriptions(&self) -> &Arc<SubscriptionTable> {
        &self.subscriptions
    }

    /// The message schedule.
    #[must_use]
    pub fn schedule(&self) -> &Arc<[GeneratedMessage]> {
        &self.schedule
    }

    /// Replays the trace through `protocol` and returns the metrics.
    ///
    /// Events are interleaved chronologically: message publications at
    /// time `t` are handed to the protocol before contacts *starting*
    /// at `t`. Each contact's link budget is its duration times the
    /// configured rate.
    ///
    /// Equivalent to [`Simulation::run_recorded`] with a
    /// [`NullRecorder`], which is free: no trace events are built.
    #[must_use]
    pub fn run(&self, protocol: &mut dyn Protocol) -> SimReport {
        self.run_recorded(protocol, &mut NullRecorder)
    }

    /// Replays the trace through `protocol` while streaming
    /// [`TraceEvent`]s into `recorder`.
    ///
    /// [`TraceEvent`]: crate::TraceEvent
    ///
    /// The recorder is a pure observer — the metrics path is identical
    /// to [`Simulation::run`] and the returned report is bit-identical
    /// whether or not a recorder is attached.
    #[must_use]
    pub fn run_recorded(
        &self,
        protocol: &mut dyn Protocol,
        recorder: &mut dyn Recorder,
    ) -> SimReport {
        let mut metrics = MetricsCollector::new();
        let mut next_id = 0u64;
        let mut schedule = self.schedule.iter().peekable();

        let mut publish_until = |until: SimTime,
                                 inclusive: bool,
                                 metrics: &mut MetricsCollector,
                                 protocol: &mut dyn Protocol,
                                 recorder: &mut dyn Recorder| {
            while let Some(next) = schedule.peek() {
                let due = if inclusive {
                    next.at <= until
                } else {
                    next.at < until
                };
                if !due {
                    break;
                }
                let spec = schedule.next().expect("peeked");
                step_publish(self, spec, next_id, metrics, protocol, recorder);
                next_id += 1;
            }
        };

        // With `FaultSpec::none()` (the default) the fault layer is a
        // single branch per contact: no draws, no state, identical
        // behavior to a simulator without it.
        let faulted = !self.faults.is_none();
        let mut fault_state = FaultState::new(self.trace.node_count() as usize);

        for (index, contact) in self.trace.iter().enumerate() {
            publish_until(contact.start, true, &mut metrics, protocol, recorder);
            step_contact(
                self,
                index as u64,
                contact,
                faulted,
                &mut fault_state,
                &mut metrics,
                protocol,
                recorder,
            );
        }
        // Messages published after the last contact still count as
        // generated (they can never be delivered).
        publish_until(
            SimTime::from_millis(u64::MAX),
            true,
            &mut metrics,
            protocol,
            recorder,
        );

        metrics.finish(protocol.name())
    }

    /// Builds a fresh protocol from `factory` (passing `seed` through)
    /// and replays the trace through it.
    ///
    /// Returns the report *and* the finished protocol so callers can
    /// inspect post-run state (e.g. broker statistics) — downcast via
    /// `std::any::Any` when the concrete type is needed.
    #[must_use]
    pub fn run_factory(
        &self,
        factory: &dyn ProtocolFactory,
        seed: u64,
    ) -> (SimReport, Box<dyn Protocol>) {
        self.run_factory_recorded(factory, seed, &mut NullRecorder)
    }

    /// [`Simulation::run_factory`] with a recorder attached — see
    /// [`Simulation::run_recorded`].
    #[must_use]
    pub fn run_factory_recorded(
        &self,
        factory: &dyn ProtocolFactory,
        seed: u64,
        recorder: &mut dyn Recorder,
    ) -> (SimReport, Box<dyn Protocol>) {
        let mut protocol = factory.build(seed);
        let report = self.run_recorded(&mut *protocol, recorder);
        (report, protocol)
    }
}

/// One publication step of the driver sequence: builds the message
/// (`id` is its index in the schedule), accounts it as generated, and
/// hands it to the protocol.
fn step_publish(
    sim: &Simulation,
    spec: &GeneratedMessage,
    id: u64,
    metrics: &mut MetricsCollector,
    protocol: &mut dyn Protocol,
    recorder: &mut dyn Recorder,
) {
    // One allocation per publication; every protocol store afterwards
    // shares this payload.
    let msg = Arc::new(Message {
        id: MessageId::new(id),
        key: Arc::clone(&spec.key),
        size: spec.size,
        created: spec.at,
        ttl: sim.config.ttl,
        producer: spec.producer,
    });
    let targets = sim
        .subscriptions
        .subscribers_of(&msg.key)
        .filter(|&n| n != msg.producer)
        .count() as u64;
    metrics.on_generated(targets);
    let mut ctx = SimCtx::new(spec.at, &sim.subscriptions, metrics, recorder);
    ctx.emit(|| TraceEvent::Published {
        at: spec.at,
        msg: msg.id,
        producer: msg.producer,
        key: Arc::clone(&msg.key),
        size: msg.size,
        targets,
    });
    protocol.on_message(&mut ctx, &msg);
}

/// One contact step of the driver sequence: fault gating, link budget,
/// and the protocol's `on_contact`. `fault` holds every node's churn
/// cell; `faulted` is false exactly when the run's [`FaultSpec`] is
/// [`FaultSpec::none`], and then `fault` is never touched.
#[allow(clippy::too_many_arguments)]
fn step_contact(
    sim: &Simulation,
    index: u64,
    contact: &ContactEvent,
    faulted: bool,
    fault: &mut FaultState,
    metrics: &mut MetricsCollector,
    protocol: &mut dyn Protocol,
    recorder: &mut dyn Recorder,
) {
    metrics.on_contact();
    obs::count(Counter::Contacts, 1);

    if faulted {
        // Churn: advance both endpoints through their downtime
        // cells; a node back up after downtime resets first
        // (rejoin precedes any exchange of this contact).
        let a_down = fault.advance(&sim.faults, contact.a, contact.start);
        let b_down = fault.advance(&sim.faults, contact.b, contact.start);
        for (node, down) in [(contact.a, a_down), (contact.b, b_down)] {
            if !down && fault.take_reset(node) {
                obs::count(Counter::NodeReset, 1);
                let mut ctx = SimCtx::new(contact.start, &sim.subscriptions, metrics, recorder);
                protocol.on_node_reset(&mut ctx, node);
                ctx.emit(|| TraceEvent::NodeReset {
                    at: contact.start,
                    node,
                });
            }
        }
        let lost_cause = if a_down || b_down {
            Some(LossCause::Churn)
        } else if sim.faults.loses_contact(index) {
            Some(LossCause::Radio)
        } else {
            None
        };
        if let Some(cause) = lost_cause {
            obs::count(Counter::FaultContactLost, 1);
            if recorder.is_active() {
                recorder.record(&TraceEvent::ContactLost {
                    at: contact.start,
                    a: contact.a,
                    b: contact.b,
                    cause,
                });
            }
            return;
        }
    }

    let mut link = Link::for_contact(contact.duration(), sim.config.bytes_per_sec);
    if faulted {
        if let Some(keep) = sim.faults.truncates_contact(index) {
            obs::count(Counter::FaultTruncated, 1);
            let original = link.budget();
            let cut = (u128::from(original) * u128::from(keep) / u128::from(PPM)) as u64;
            link = Link::with_budget(cut);
            if recorder.is_active() {
                recorder.record(&TraceEvent::ContactTruncated {
                    at: contact.start,
                    a: contact.a,
                    b: contact.b,
                    budget: cut,
                    original,
                });
            }
        }
    }

    let mut ctx = SimCtx::new(contact.start, &sim.subscriptions, metrics, recorder);
    if faulted && sim.faults.corruption_ppm() > 0 {
        ctx.attach_corruption(
            sim.faults.corruption_stream(index),
            sim.faults.corruption_ppm(),
        );
    }
    ctx.emit(|| TraceEvent::ContactBegin {
        at: contact.start,
        a: contact.a,
        b: contact.b,
        budget: link.budget(),
    });
    {
        let _span = obs::span(TimeHist::ContactNs);
        protocol.on_contact(&mut ctx, contact, &mut link);
    }
    obs::observe(SizeHist::ContactBytes, link.used());
    ctx.emit(|| TraceEvent::ContactEnd {
        at: contact.start,
        a: contact.a,
        b: contact.b,
        used: link.used(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DeliveryOutcome;
    use bsub_traces::ContactEvent;

    /// A toy protocol: the producer hands its messages directly to any
    /// peer it meets (one-hop flooding to whoever it sees).
    #[derive(Debug, Default)]
    struct DirectHandoff {
        store: Vec<Arc<Message>>,
    }

    impl Protocol for DirectHandoff {
        fn name(&self) -> &str {
            "DIRECT"
        }

        fn on_message(&mut self, _ctx: &mut SimCtx<'_>, msg: &Arc<Message>) {
            self.store.push(Arc::clone(msg));
        }

        fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: &ContactEvent, link: &mut Link) {
            for msg in &self.store {
                for node in [contact.a, contact.b] {
                    if node != msg.producer && ctx.transfer_message(link, msg) {
                        let _ = ctx.deliver(node, msg);
                    }
                }
            }
        }
    }

    fn trace() -> ContactTrace {
        ContactTrace::new(
            "t",
            3,
            vec![
                ContactEvent::new(
                    NodeId::new(0),
                    NodeId::new(1),
                    SimTime::from_secs(100),
                    SimTime::from_secs(200),
                ),
                ContactEvent::new(
                    NodeId::new(1),
                    NodeId::new(2),
                    SimTime::from_secs(300),
                    SimTime::from_secs(400),
                ),
            ],
        )
        .unwrap()
    }

    fn schedule() -> Vec<GeneratedMessage> {
        vec![GeneratedMessage {
            at: SimTime::from_secs(50),
            producer: NodeId::new(0),
            key: "news".into(),
            size: 100,
        }]
    }

    #[test]
    fn message_delivered_on_contact() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "news");
        let sim = Simulation::new(trace(), subs, schedule(), SimConfig::default());
        let report = sim.run(&mut DirectHandoff::default());
        assert_eq!(report.generated, 1);
        assert_eq!(report.target_pairs, 1);
        assert_eq!(report.delivered, 1);
        assert!((report.delivery_ratio() - 1.0).abs() < 1e-12);
        // Created at t=50, first contact at t=100: delay 50 s.
        assert!((report.mean_delay_mins() - 50.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn uninterested_peer_is_false_delivery() {
        let subs = SubscriptionTable::new(3); // nobody subscribed
        let sim = Simulation::new(trace(), subs, schedule(), SimConfig::default());
        let report = sim.run(&mut DirectHandoff::default());
        assert_eq!(report.delivered, 0);
        assert!(report.false_delivered > 0);
        assert!((report.false_positive_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ttl_cuts_off_late_deliveries() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "news");
        let config = SimConfig {
            ttl: SimDuration::from_secs(20), // expires at t=70, contact at t=100
            ..SimConfig::default()
        };
        let sim = Simulation::new(trace(), subs, schedule(), config);
        let report = sim.run(&mut DirectHandoff::default());
        assert_eq!(report.delivered, 0);
    }

    #[test]
    fn generation_after_last_contact_still_counted() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "late");
        let sched = vec![GeneratedMessage {
            at: SimTime::from_secs(10_000),
            producer: NodeId::new(0),
            key: "late".into(),
            size: 10,
        }];
        let sim = Simulation::new(trace(), subs, sched, SimConfig::default());
        let report = sim.run(&mut DirectHandoff::default());
        assert_eq!(report.generated, 1);
        assert_eq!(report.delivered, 0);
    }

    #[test]
    fn link_budget_limits_transfers() {
        // A 1-second contact at 50 B/s fits zero 100-byte messages.
        let trace = ContactTrace::new(
            "tight",
            2,
            vec![ContactEvent::new(
                NodeId::new(0),
                NodeId::new(1),
                SimTime::from_secs(10),
                SimTime::from_secs(11),
            )],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![GeneratedMessage {
            at: SimTime::ZERO,
            producer: NodeId::new(0),
            key: "news".into(),
            size: 100,
        }];
        let config = SimConfig {
            bytes_per_sec: 50,
            ..SimConfig::default()
        };
        let sim = Simulation::new(trace, subs, sched, config);
        let report = sim.run(&mut DirectHandoff::default());
        assert_eq!(report.delivered, 0);
        assert_eq!(report.forwardings, 0);
    }

    #[test]
    fn contacts_counted() {
        let sim = Simulation::new(
            trace(),
            SubscriptionTable::new(3),
            Vec::new(),
            SimConfig::default(),
        );
        let report = sim.run(&mut DirectHandoff::default());
        assert_eq!(report.contacts, 2);
    }

    #[test]
    #[should_panic(expected = "does not match trace")]
    fn mismatched_table_panics() {
        let _ = Simulation::new(
            trace(),
            SubscriptionTable::new(7),
            Vec::new(),
            SimConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_schedule_panics() {
        let sched = vec![
            GeneratedMessage {
                at: SimTime::from_secs(100),
                producer: NodeId::new(0),
                key: "a".into(),
                size: 1,
            },
            GeneratedMessage {
                at: SimTime::from_secs(50),
                producer: NodeId::new(0),
                key: "b".into(),
                size: 1,
            },
        ];
        let _ = Simulation::new(
            trace(),
            SubscriptionTable::new(3),
            sched,
            SimConfig::default(),
        );
    }

    /// Smoke-check the DeliveryOutcome surface from a protocol's view.
    #[test]
    fn direct_handoff_duplicate_suppressed_by_metrics() {
        let mut metrics = MetricsCollector::new();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "k");
        metrics.on_generated(1);
        let msg = Message {
            id: MessageId::new(0),
            key: "k".into(),
            size: 1,
            created: SimTime::ZERO,
            ttl: SimDuration::from_hours(1),
            producer: NodeId::new(0),
        };
        let mut rec = crate::record::NullRecorder;
        let mut ctx = SimCtx::new(SimTime::from_secs(1), &subs, &mut metrics, &mut rec);
        assert_eq!(ctx.deliver(NodeId::new(1), &msg), DeliveryOutcome::Genuine);
        assert_eq!(
            ctx.deliver(NodeId::new(1), &msg),
            DeliveryOutcome::Duplicate
        );
    }

    /// A cloned simulation shares its inputs rather than copying them.
    #[test]
    fn clone_shares_inputs() {
        let sim = Simulation::new(
            trace(),
            SubscriptionTable::new(3),
            schedule(),
            SimConfig::default(),
        );
        let copy = sim.clone();
        assert!(Arc::ptr_eq(sim.trace(), copy.trace()));
        assert!(Arc::ptr_eq(sim.subscriptions(), copy.subscriptions()));
        assert_eq!(Arc::strong_count(sim.trace()), 2);
    }

    /// A simulation is a self-contained run description: it can move to
    /// another thread and produce the same report.
    #[test]
    fn runs_identically_across_threads() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "news");
        let sim = Simulation::new(trace(), subs, schedule(), SimConfig::default());
        let here = sim.run(&mut DirectHandoff::default());
        let clone = sim.clone();
        let there = std::thread::spawn(move || clone.run(&mut DirectHandoff::default()))
            .join()
            .unwrap();
        assert_eq!(here, there);
    }

    /// Attaching `FaultSpec::none()` is exactly the default run.
    #[test]
    fn faultless_spec_changes_nothing() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "news");
        let sim = Simulation::new(trace(), subs, schedule(), SimConfig::default());
        let plain = sim.run(&mut DirectHandoff::default());
        let faultless = sim
            .clone()
            .with_faults(FaultSpec::none())
            .run(&mut DirectHandoff::default());
        assert_eq!(plain, faultless);
        assert!(sim.faults().is_none());
    }

    /// With every contact lost, nothing is delivered but contacts are
    /// still counted (the encounter happened; the exchange failed).
    #[test]
    fn total_contact_loss_stops_all_delivery() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "news");
        let sim = Simulation::new(trace(), subs, schedule(), SimConfig::default()).with_faults(
            FaultSpec::none()
                .with_seed(1)
                .with_contact_loss(crate::fault::PPM),
        );
        let mut log = crate::record::EventLog::new();
        let report = sim.run_recorded(&mut DirectHandoff::default(), &mut log);
        assert_eq!(report.contacts, 2);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.forwardings, 0);
        let lost = log
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::ContactLost {
                        cause: LossCause::Radio,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(lost, 2);
    }

    /// Faulted runs are deterministic: same spec, same report.
    #[test]
    fn faulted_runs_are_deterministic() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "news");
        let spec = FaultSpec::none()
            .with_seed(11)
            .with_contact_loss(crate::fault::PPM / 3)
            .with_truncation(crate::fault::PPM / 3)
            .with_corruption(crate::fault::PPM / 3);
        let sim =
            Simulation::new(trace(), subs, schedule(), SimConfig::default()).with_faults(spec);
        let a = sim.run(&mut DirectHandoff::default());
        let b = sim.clone().run(&mut DirectHandoff::default());
        assert_eq!(a, b);
    }

    /// A protocol hears about a node's downtime exactly once, at the
    /// node's first contact back up, via `on_node_reset`.
    #[test]
    fn churn_rejoin_invokes_reset_hook() {
        #[derive(Debug, Default)]
        struct ResetCounter {
            resets: Vec<NodeId>,
        }
        impl Protocol for ResetCounter {
            fn name(&self) -> &str {
                "RESETS"
            }
            fn on_message(&mut self, _ctx: &mut SimCtx<'_>, _msg: &Arc<Message>) {}
            fn on_contact(
                &mut self,
                _ctx: &mut SimCtx<'_>,
                _contact: &ContactEvent,
                _link: &mut Link,
            ) {
            }
            fn on_node_reset(&mut self, _ctx: &mut SimCtx<'_>, node: NodeId) {
                self.resets.push(node);
            }
        }

        // Two contacts between nodes 0 and 1, one churn cell apart.
        let trace = ContactTrace::new(
            "churny",
            2,
            vec![
                ContactEvent::new(
                    NodeId::new(0),
                    NodeId::new(1),
                    SimTime::from_secs(10),
                    SimTime::from_secs(20),
                ),
                ContactEvent::new(
                    NodeId::new(0),
                    NodeId::new(1),
                    SimTime::from_secs(2 * 3600 + 10),
                    SimTime::from_secs(2 * 3600 + 20),
                ),
            ],
        )
        .unwrap();
        let period = SimDuration::from_hours(1);
        // Find a seed where both endpoints are up in cells 0 and 2 but
        // at least one was down in cell 1 (downtime between contacts).
        let spec = (0..256)
            .map(|s| {
                FaultSpec::none()
                    .with_seed(s)
                    .with_churn(crate::fault::PPM / 3, period)
            })
            .find(|spec| {
                let up = |n: u32, c: u64| !spec.node_down(NodeId::new(n), c);
                up(0, 0) && up(1, 0) && up(0, 2) && up(1, 2) && (!up(0, 1) || !up(1, 1))
            })
            .expect("some seed produces the pattern");
        let expected: Vec<NodeId> = [NodeId::new(0), NodeId::new(1)]
            .into_iter()
            .filter(|&n| spec.node_down(n, 1))
            .collect();

        let sim = Simulation::new(
            trace,
            SubscriptionTable::new(2),
            Vec::new(),
            SimConfig::default(),
        )
        .with_faults(spec);
        let mut protocol = ResetCounter::default();
        let mut log = crate::record::EventLog::new();
        let report = sim.run_recorded(&mut protocol, &mut log);
        assert_eq!(report.contacts, 2);
        assert_eq!(protocol.resets, expected);
        let reset_events = log
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::NodeReset { .. }))
            .count();
        assert_eq!(reset_events, expected.len());
    }

    /// Truncation cuts the link budget handed to the protocol.
    #[test]
    fn truncation_shrinks_contact_budget() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "news");
        let sim = Simulation::new(trace(), subs, schedule(), SimConfig::default()).with_faults(
            FaultSpec::none()
                .with_seed(2)
                .with_truncation(crate::fault::PPM),
        );
        let mut log = crate::record::EventLog::new();
        let _ = sim.run_recorded(&mut DirectHandoff::default(), &mut log);
        let mut seen = 0;
        for e in log.events() {
            if let TraceEvent::ContactTruncated {
                budget, original, ..
            } = e
            {
                assert!(budget < original);
                seen += 1;
            }
        }
        assert_eq!(seen, 2, "every contact truncated at p = 1");
        // The following ContactBegin must carry the truncated budget.
        let begins: Vec<u64> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ContactBegin { budget, .. } => Some(*budget),
                _ => None,
            })
            .collect();
        let cuts: Vec<u64> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ContactTruncated { budget, .. } => Some(*budget),
                _ => None,
            })
            .collect();
        assert_eq!(begins, cuts);
    }

    /// `run_factory` hands back the finished protocol for inspection.
    #[test]
    fn run_factory_returns_protocol_state() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "news");
        let sim = Simulation::new(trace(), subs, schedule(), SimConfig::default());
        let factory = |_seed: u64| Box::new(DirectHandoff::default()) as Box<dyn Protocol>;
        let (report, protocol) = sim.run_factory(&factory, 7);
        assert_eq!(report.delivered, 1);
        let any: &dyn std::any::Any = protocol.as_ref();
        let handoff = any.downcast_ref::<DirectHandoff>().expect("concrete type");
        assert_eq!(handoff.store.len(), 1);
    }
}
