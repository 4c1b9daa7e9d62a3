//! The simulation loop, and the builder that wires a topology into it.
//!
//! [`ShardSim`] is the one event loop. Every simulation is four event
//! kinds on one [`Calendar`] — push, arrive, sample, wake — and after
//! draining an instant's events the loop pumps: endpoint timers
//! fire, each link's transmitter serves its senders in priority order
//! while idle, receivers drain deliveries at their configured point in
//! the link order (a store-and-forward relay forwards into the *next*
//! link's sender before that link is pumped), holding samples flow to
//! collectors, and the completion / failure / wake checks run. A whole
//! simulation is [`ShardSim::run_solo`]: one pass to the deadline on the
//! caller's thread, ending at the first instant the run completes or a
//! sender declares link failure.
//!
//! Determinism rests on two rules the types here enforce:
//!
//! * **Canonical intra-instant order.** Same-instant events are
//!   dispatched in one defined order — pushes by source ordinal, then
//!   arrivals by link id and, within a link, transmit order, then the
//!   sampling tick, then the wake. The order is structural: it is the
//!   calendar's lane order, nothing sorts.
//! * **Registration order is the topology's order.** Builders must
//!   register links in ascending topology-id order and sources in
//!   ascending ordinal order (both validated), so lane and pump orders
//!   follow the topology rather than the call sites.

use crate::collect::Collect;
use crate::endpoint::{RxEndpoint, TxEndpoint};
use crate::event_queue::{Calendar, Event};
use crate::link::{Channel, Fate};
use crate::topology::{
    ColId, EndpointId, LinkId, NodeId, NodeRole, RxId, Topology, TopologyError, TxId,
};
use crate::traffic::TrafficGen;
use bytes::Bytes;
use sim_core::{Duration, Instant, QueueProfile, RunTimer};
use telemetry::TraceEvent;

/// Where a receiver's completed deliveries go.
enum Delivery {
    Collect(ColId),
    Forward(TxId),
}

struct ShardSource {
    gen: TrafficGen,
    tx: TxId,
    /// Collector credited with pushes.
    col: ColId,
    /// Source ordinal — the canonical same-instant dispatch key,
    /// checked ascending at build.
    ordinal: u64,
}

/// One collector's periodic sampling subjects.
struct Sampler {
    col: ColId,
    tx: TxId,
    /// Receivers whose worst (max) occupancy is sampled.
    rxs: Vec<RxId>,
}

/// One link: its channel, the endpoints competing for its transmitter,
/// and the endpoints its arrivals are offered to.
struct LinkSlot {
    /// Topology link id.
    global: usize,
    dir: &'static str,
    channel: Channel,
    senders: Vec<EndpointId>,
    listeners: Vec<EndpointId>,
}

/// Builder for one simulation, with topology link ids. Registration
/// order is semantic: links pump in registration order (which must be
/// ascending topology id), a link's senders are served in registration
/// order (first registered wins the transmitter), and arrivals are
/// offered to listeners in registration order (all but the last get a
/// clone).
pub struct ShardBuilder<T, R, C> {
    payload_bytes: usize,
    links: Vec<LinkSlot>,
    txs: Vec<T>,
    tx_link: Vec<usize>,
    rxs: Vec<R>,
    rx_link: Vec<usize>,
    rx_delivery: Vec<Option<Delivery>>,
    rx_drain_after: Vec<Option<usize>>,
    collectors: Vec<C>,
    expects: Vec<(ColId, u64)>,
    sources: Vec<ShardSource>,
    samplers: Vec<Sampler>,
    holdings: Vec<(ColId, TxId)>,
    sample_every: Duration,
    /// The topology [`ShardBuilder::place`] checks the wiring against.
    topo: Option<Topology>,
    /// Wiring mistakes caught at registration, reported by `build`.
    errors: Vec<String>,
}

impl<T, R, C> ShardBuilder<T, R, C>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
{
    /// Start a build with the given SDU payload size.
    pub fn new(payload_bytes: usize) -> Self {
        ShardBuilder {
            payload_bytes,
            links: Vec::new(),
            txs: Vec::new(),
            tx_link: Vec::new(),
            rxs: Vec::new(),
            rx_link: Vec::new(),
            rx_delivery: Vec::new(),
            rx_drain_after: Vec::new(),
            collectors: Vec::new(),
            expects: Vec::new(),
            sources: Vec::new(),
            samplers: Vec::new(),
            holdings: Vec::new(),
            sample_every: Duration::ZERO,
            topo: None,
            errors: Vec::new(),
        }
    }

    /// Check the wiring against `topo` at build time. Endpoints live at
    /// the node their transmit link leaves from; `build` then rejects
    /// links missing from the topology, listeners away from their
    /// link's far end, forwarding across nodes, and nodes whose wiring
    /// does not exhibit their [`NodeRole`].
    pub fn place(&mut self, topo: &Topology) {
        self.errors.extend(topo.problems());
        self.topo = Some(topo.clone());
    }

    /// Add a link carried by `channel` (topology id `global`).
    pub fn link(&mut self, global: usize, channel: Channel, dir: &'static str) -> LinkId {
        self.links.push(LinkSlot {
            global,
            dir,
            channel,
            senders: Vec::new(),
            listeners: Vec::new(),
        });
        LinkId(self.links.len() - 1)
    }

    /// Host a sending endpoint transmitting on `link`.
    pub fn tx(&mut self, link: LinkId, endpoint: T) -> TxId {
        let id = TxId(self.txs.len());
        self.txs.push(endpoint);
        self.tx_link.push(link.0);
        self.add_sender(link, EndpointId::Tx(id));
        id
    }

    fn add_sender(&mut self, link: LinkId, ep: EndpointId) {
        match self.links.get_mut(link.0) {
            Some(slot) => slot.senders.push(ep),
            None => self
                .errors
                .push(format!("{ep:?} transmits on an unknown link")),
        }
    }

    /// Host a receiving endpoint transmitting its control frames on
    /// `link`. Register the receiver before a co-located sender on the
    /// same link to give its control frames priority, as full-duplex
    /// nodes do.
    pub fn rx(&mut self, link: LinkId, endpoint: R) -> RxId {
        let id = RxId(self.rxs.len());
        self.rxs.push(endpoint);
        self.rx_link.push(link.0);
        self.add_sender(link, EndpointId::Rx(id));
        id
    }

    /// Deliver `link`'s arrivals to `endpoint`. Listeners are offered
    /// frames in registration order; all but the last receive a clone.
    pub fn listen(&mut self, link: LinkId, endpoint: impl Into<EndpointId>) {
        let endpoint = endpoint.into();
        match self.links.get_mut(link.0) {
            Some(slot) => slot.listeners.push(endpoint),
            None => self.errors.push(format!(
                "{endpoint:?} listens on unknown local link {}",
                link.0
            )),
        }
    }

    /// Register a collector.
    pub fn collector(&mut self, collector: C) -> ColId {
        self.collectors.push(collector);
        ColId(self.collectors.len() - 1)
    }

    /// Completion condition: `col` must reach `total` unique deliveries
    /// (a sink's half of "safe delivery").
    pub fn expect(&mut self, col: ColId, total: u64) {
        self.expects.push((col, total));
    }

    /// Feed `gen`'s SDUs into `tx`, crediting each push to `col`.
    /// `ordinal` is the source's registration index (the canonical
    /// dispatch key); register sources in ascending ordinal order.
    pub fn source(&mut self, gen: TrafficGen, tx: TxId, col: ColId, ordinal: u64) {
        self.sources.push(ShardSource {
            gen,
            tx,
            col,
            ordinal,
        });
    }

    fn set_delivery(&mut self, rx: RxId, delivery: Delivery) {
        if self.rx_delivery.len() <= rx.0 {
            self.rx_delivery.resize_with(rx.0 + 1, || None);
        }
        self.rx_delivery[rx.0] = Some(delivery);
    }

    /// Terminal receiver: `rx`'s deliveries credit `col`.
    pub fn deliver(&mut self, rx: RxId, col: ColId) {
        self.set_delivery(rx, Delivery::Collect(col));
    }

    /// Store-and-forward receiver: `rx`'s deliveries push into `tx`
    /// (both endpoints co-located at one node).
    pub fn forward(&mut self, rx: RxId, tx: TxId) {
        self.set_delivery(rx, Delivery::Forward(tx));
    }

    /// Drain `rx`'s deliveries right after `link` is pumped (default:
    /// after the last link). A relay drains hop `i`'s receiver before
    /// hop `i + 1`'s link pumps, so forwarded frames catch the same
    /// pump pass.
    pub fn drain_after(&mut self, rx: RxId, link: LinkId) {
        if self.rx_drain_after.len() <= rx.0 {
            self.rx_drain_after.resize_with(rx.0 + 1, || None);
        }
        self.rx_drain_after[rx.0] = Some(link.0);
    }

    /// Period of the sampling tick that drives [`ShardBuilder::sample`].
    pub fn sample_every(&mut self, period: Duration) {
        self.sample_every = period;
    }

    /// On every sampling tick, sample `tx`'s buffer and the worst
    /// occupancy among `rxs` into `col`, in registration order.
    pub fn sample(&mut self, col: ColId, tx: TxId, rxs: Vec<RxId>) {
        self.samplers.push(Sampler { col, tx, rxs });
    }

    /// Drain `tx`'s holding-time samples into `col` each pump pass.
    pub fn holding(&mut self, col: ColId, tx: TxId) {
        self.holdings.push((col, tx));
    }

    /// Validate the wiring and produce a runnable [`ShardSim`].
    pub fn build(mut self) -> Result<ShardSim<T, R, C>, TopologyError> {
        let mut errors = std::mem::take(&mut self.errors);
        let (n_tx, n_rx, n_col, links) = (
            self.txs.len(),
            self.rxs.len(),
            self.collectors.len(),
            self.links.len(),
        );
        if links == 0 {
            errors.push("shard has no links".to_string());
        }
        for w in self.links.windows(2) {
            if w[1].global <= w[0].global {
                errors.push(format!(
                    "links must be registered in ascending global-id order \
                     (got {} after {})",
                    w[1].global, w[0].global
                ));
            }
        }
        // Source lanes pop in registration order, so that order must be
        // the canonical one.
        for w in self.sources.windows(2) {
            if w[1].ordinal <= w[0].ordinal {
                errors.push(format!(
                    "sources must be registered in ascending ordinal order \
                     (got {} after {})",
                    w[1].ordinal, w[0].ordinal
                ));
            }
        }
        let known = |ep: &EndpointId| match *ep {
            EndpointId::Tx(t) => t.0 < n_tx,
            EndpointId::Rx(r) => r.0 < n_rx,
        };
        for slot in &self.links {
            for ep in slot.listeners.iter().filter(|ep| !known(ep)) {
                errors.push(format!(
                    "link {} listener {ep:?} is not registered",
                    slot.global
                ));
            }
        }
        if self.rx_delivery.len() > n_rx {
            errors.push("a delivery target names an unknown rx".to_string());
        }
        if self.rx_drain_after.len() > n_rx {
            errors.push("a drain point names an unknown rx".to_string());
        }
        self.rx_delivery.resize_with(n_rx, || None);
        self.rx_drain_after.resize_with(n_rx, || None);
        let deliveries: Vec<Delivery> = (self.rx_delivery.drain(..).enumerate())
            .map(|(i, d)| {
                let problem = match &d {
                    Some(Delivery::Forward(t)) => {
                        (t.0 >= n_tx).then_some("forwards into an unknown tx")
                    }
                    Some(Delivery::Collect(c)) => {
                        (c.0 >= n_col).then_some("delivers to an unknown collector")
                    }
                    None => Some("has no delivery target"),
                };
                errors.extend(problem.map(|p| format!("rx {i} {p}")));
                d.unwrap_or(Delivery::Collect(ColId(0)))
            })
            .collect();
        for (i, after) in self.rx_drain_after.iter().enumerate() {
            if let Some(l) = after.filter(|&l| l >= links) {
                errors.push(format!("rx {i} drains after unknown local link {l}"));
            }
        }
        for (i, s) in self.sources.iter().enumerate() {
            if s.tx.0 >= n_tx {
                errors.push(format!("source {i} feeds an unknown tx"));
            }
            if s.col.0 >= n_col {
                errors.push(format!("source {i} uses an unknown collector"));
            }
        }
        for (i, (c, _)) in self.expects.iter().enumerate() {
            if c.0 >= n_col {
                errors.push(format!("expect {i} references an unknown collector"));
            }
        }
        for (i, s) in self.samplers.iter().enumerate() {
            if s.col.0 >= n_col {
                errors.push(format!("sampler {i} feeds an unknown collector"));
            }
            if s.tx.0 >= n_tx || s.rxs.iter().any(|r| r.0 >= n_rx) {
                errors.push(format!("sampler {i} names an unknown endpoint"));
            }
        }
        if !self.samplers.is_empty() && self.sample_every == Duration::ZERO {
            errors.push("samplers need a positive sampling period".to_string());
        }
        for (i, (c, t)) in self.holdings.iter().enumerate() {
            if c.0 >= n_col {
                errors.push(format!("holding {i} feeds an unknown collector"));
            }
            if t.0 >= n_tx {
                errors.push(format!("holding {i} names an unknown tx"));
            }
        }
        if errors.is_empty() {
            if let Some(topo) = &self.topo {
                self.check_placement(topo, &deliveries, &mut errors);
            }
        }
        if !errors.is_empty() {
            return Err(TopologyError(errors));
        }
        let mut drains: Vec<Vec<RxId>> = vec![Vec::new(); links];
        for (i, after) in self.rx_drain_after.iter().enumerate() {
            drains[after.unwrap_or(links - 1)].push(RxId(i));
        }
        let undrained_txs = (0..n_tx)
            .map(TxId)
            .filter(|&t| self.holdings.iter().all(|&(_, h)| h != t))
            .collect();
        Ok(ShardSim {
            cal: Calendar::new(self.sources.len(), links),
            payload: Bytes::from(vec![0u8; self.payload_bytes]),
            links: self.links,
            txs: self.txs,
            rxs: self.rxs,
            deliveries,
            drains,
            collectors: self.collectors,
            expects: self.expects,
            sources: self.sources,
            samplers: self.samplers,
            holdings: self.holdings,
            undrained_txs,
            holding_buf: Vec::new(),
            sample_every: self.sample_every,
            deadline: Instant::ZERO,
            trace: telemetry::global_handle("channel"),
            prof: profile::current(),
            round: Vec::new(),
        })
    }

    /// The topology checks of [`ShardBuilder::place`]; runs only on
    /// wiring whose ids are already known to be in range.
    fn check_placement(&self, topo: &Topology, deliveries: &[Delivery], errors: &mut Vec<String>) {
        let specs: Option<Vec<_>> = self
            .links
            .iter()
            .map(|s| topo.links.get(s.global))
            .collect();
        let Some(specs) = specs else {
            errors.push("a link is not in the topology".to_string());
            return;
        };
        // An endpoint lives at the node its transmit link leaves from.
        let tx_host: Vec<NodeId> = self.tx_link.iter().map(|&l| specs[l].from).collect();
        let rx_host: Vec<NodeId> = self.rx_link.iter().map(|&l| specs[l].from).collect();
        let host = |ep: EndpointId| match ep {
            EndpointId::Tx(t) => tx_host[t.0],
            EndpointId::Rx(r) => rx_host[r.0],
        };
        for (slot, spec) in self.links.iter().zip(&specs) {
            for &ep in &slot.listeners {
                if host(ep) != spec.to {
                    errors.push(format!(
                        "link {} listener {ep:?} is not hosted at its far end",
                        slot.global
                    ));
                }
            }
        }
        for (r, d) in deliveries.iter().enumerate() {
            if let Delivery::Forward(t) = d {
                if rx_host[r] != tx_host[t.0] {
                    errors.push(format!("rx {r} forwards into a tx at a different node"));
                }
            }
        }
        for (node, role) in (0..).map(NodeId).zip(&topo.roles) {
            let sourced = self.sources.iter().any(|s| tx_host[s.tx.0] == node);
            let receiving = |collect: bool| {
                deliveries.iter().enumerate().any(|(r, d)| {
                    rx_host[r] == node && matches!(d, Delivery::Collect(_)) == collect
                })
            };
            let ok = match role {
                NodeRole::Source => sourced,
                NodeRole::Sink => receiving(true),
                NodeRole::Relay => receiving(false),
                NodeRole::Duplex => sourced && receiving(true),
            };
            if !ok {
                errors.push(format!(
                    "node {} does not exhibit its {role:?} role",
                    node.0
                ));
            }
        }
    }
}

/// Everything a finished run hands back for report assembly, in
/// registration order.
pub struct FinishedShard<T, R, C> {
    /// The senders.
    pub txs: Vec<T>,
    /// The receivers.
    pub rxs: Vec<R>,
    /// The collectors.
    pub collectors: Vec<C>,
    /// SDUs issued per source.
    pub issued: Vec<u64>,
    /// Instant the run completed, failed, ran dry or hit the deadline.
    pub finished_at: Instant,
    /// True if the deadline fired before completion.
    pub deadline_hit: bool,
}

/// A whole simulation run ([`ShardSim::run_solo`]).
pub struct SoloRun<T, R, C> {
    /// The endpoints, collectors and run outcome.
    pub finished: FinishedShard<T, R, C>,
    /// The calendar's profiling snapshot for this run.
    pub queue: QueueProfile,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
}

/// A runnable simulation: the pump over its links, driven by
/// [`ShardSim::run_solo`].
pub struct ShardSim<T, R, C>
where
    T: TxEndpoint,
{
    payload: Bytes,
    links: Vec<LinkSlot>,
    txs: Vec<T>,
    rxs: Vec<R>,
    deliveries: Vec<Delivery>,
    drains: Vec<Vec<RxId>>,
    collectors: Vec<C>,
    expects: Vec<(ColId, u64)>,
    sources: Vec<ShardSource>,
    samplers: Vec<Sampler>,
    holdings: Vec<(ColId, TxId)>,
    /// Senders no holding collector drains: their notifications are
    /// discarded every instant instead.
    undrained_txs: Vec<TxId>,
    /// Scratch for holding-time drains, reused across pump passes.
    holding_buf: Vec<f64>,
    sample_every: Duration,
    /// Run deadline: no sampling tick is scheduled past it.
    deadline: Instant,
    cal: Calendar<T::Frame>,
    trace: telemetry::Trace,
    prof: profile::Prof,
    /// Scratch buffer for one same-instant dispatch round.
    round: Vec<Event<T::Frame>>,
}

impl<T, R, C> ShardSim<T, R, C>
where
    T: TxEndpoint,
    R: RxEndpoint<Frame = T::Frame>,
    C: Collect,
{
    /// Start all endpoints at t = 0 and schedule the initial events
    /// (first push per source, the first sampling tick when the run
    /// samples, one wake). Sampling ticks stop at `deadline`.
    fn start(&mut self, deadline: Instant) {
        self.deadline = deadline;
        for t in self.txs.iter_mut() {
            t.start(Instant::ZERO);
        }
        for r in self.rxs.iter_mut() {
            r.start(Instant::ZERO);
        }
        for (s, src) in self.sources.iter_mut().enumerate() {
            if let Some((at, id)) = src.gen.next() {
                self.cal.push(s, at, id);
            }
        }
        if !self.samplers.is_empty() {
            self.cal.sample(Instant::ZERO);
        }
        self.cal.rearm_wake(Instant::ZERO);
    }

    /// Run the whole simulation on the caller's thread, up to
    /// `deadline`, between `run_started`/`run_finished` trace markers.
    pub fn run_solo(mut self, deadline: Duration) -> SoloRun<T, R, C> {
        let _run_span = self.prof.span("sim.run");
        let timer = RunTimer::start();
        // Structural run markers: observers (the live auditor, offline
        // trace analysis) reset per-run state at `run_started` and
        // finalise at `run_finished`, so one JSONL stream can carry any
        // number of runs back to back.
        let sim_trace = telemetry::global_handle("sim");
        sim_trace.emit(Instant::ZERO, || TraceEvent::RunStarted);
        let deadline = Instant::ZERO + deadline;
        self.start(deadline);
        let (finished_at, deadline_hit) = self.run();
        sim_trace.emit(finished_at, || TraceEvent::RunFinished { deadline_hit });
        SoloRun {
            queue: self.cal.profile(),
            finished: self.into_finished(finished_at, deadline_hit),
            wall_secs: timer.elapsed_secs(),
        }
    }

    /// The completion condition ("safe delivery", §4): every source
    /// exhausted, every expected collector total met, every sender
    /// drained (each frame positively acknowledged).
    fn done(&self) -> bool {
        self.sources.iter().all(|s| s.gen.issued() >= s.gen.total())
            && self
                .expects
                .iter()
                .all(|(c, n)| self.collectors[c.0].delivered_unique() >= *n)
            && self.txs.iter().all(|t| t.buffered() == 0)
    }

    /// Process queued events up to the deadline, returning the finish
    /// instant and whether the deadline cut the run short. The run
    /// ends at the first instant it completes or a sender declares
    /// link failure; a run whose calendar empties ends at its last
    /// event.
    fn run(&mut self) -> (Instant, bool) {
        let mut last_event_at = Instant::ZERO;
        while let Some(now) = self.cal.next_instant().filter(|&t| t <= self.deadline) {
            last_event_at = now;
            let dispatch_span = self.prof.span("sim.dispatch");
            self.dispatch_instant(now);
            drop(dispatch_span);
            self.pump(now);
            let collect_span = self.prof.span("sim.collect");
            for &(col, t) in &self.holdings {
                self.holding_buf.clear();
                self.txs[t.0].drain_holding(&mut self.holding_buf);
                self.collectors[col.0].on_holding(&self.holding_buf);
            }
            for &t in &self.undrained_txs {
                self.txs[t.0].discard_events();
            }
            let done = self.done();
            drop(collect_span);
            if done || self.txs.iter().any(|t| t.is_failed()) {
                return (now, false);
            }
            let _wake_span = self.prof.span("sim.wake");
            self.rearm_wake(now);
        }
        match self.cal.next_instant() {
            Some(_) => (self.deadline, true),
            None => (last_event_at, false),
        }
    }

    /// Dispatch every event at `now` in canonical order, in rounds: the
    /// events queued at `now`, then those the round itself scheduled at
    /// `now` (a dispatched push can schedule its source's next push at
    /// the same instant), and so on. The calendar hands each round out
    /// already in canonical order.
    fn dispatch_instant(&mut self, now: Instant) {
        let mut round = std::mem::take(&mut self.round);
        let mut again = true;
        while again {
            let pop_span = self.prof.span("queue.pop");
            self.cal.pop_round(now, &mut round);
            drop(pop_span);
            again = false;
            for ev in round.drain(..) {
                again |= self.dispatch(now, ev);
            }
        }
        self.round = round;
    }

    /// Dispatch one event; true if it scheduled another at `now` (only a
    /// push can: its source's next SDU may arrive at the same instant).
    fn dispatch(&mut self, now: Instant, ev: Event<T::Frame>) -> bool {
        match ev {
            Event::Push { source, id } => {
                let src = &mut self.sources[source];
                self.collectors[src.col.0].on_push(now, id);
                self.txs[src.tx.0].push(id, self.payload.clone());
                if let Some((at, nid)) = src.gen.next() {
                    let at = at.max(now);
                    self.cal.push(source, at, nid);
                    return at == now;
                }
            }
            Event::Arrive { link, frame, clean } => {
                // Single listener — the common wiring — moves the frame
                // straight through; only genuine fan-out (duplex links
                // feeding both co-located endpoints) pays a clone, and
                // only for the non-final copies.
                match self.links[link].listeners.as_slice() {
                    [ep] => match *ep {
                        EndpointId::Tx(t) => self.txs[t.0].handle_frame(now, frame, clean),
                        EndpointId::Rx(r) => self.rxs[r.0].handle_frame(now, frame, clean),
                    },
                    listeners => {
                        let last = listeners.len().saturating_sub(1);
                        let mut frame = Some(frame);
                        for (k, ep) in listeners.iter().enumerate() {
                            let f = if k == last {
                                frame.take().expect("frame consumed once")
                            } else {
                                frame.as_ref().expect("frame present").clone()
                            };
                            match *ep {
                                EndpointId::Tx(t) => self.txs[t.0].handle_frame(now, f, clean),
                                EndpointId::Rx(r) => self.rxs[r.0].handle_frame(now, f, clean),
                            }
                        }
                    }
                }
            }
            Event::Sample => {
                self.prof.sample_queue_depth(self.cal.len() as u64);
                for s in &self.samplers {
                    let worst_rx = s
                        .rxs
                        .iter()
                        .map(|r| self.rxs[r.0].occupancy())
                        .max()
                        .unwrap_or(0);
                    let tx = &self.txs[s.tx.0];
                    self.collectors[s.col.0].sample(now, tx.buffered(), worst_rx, tx.rate());
                }
                if now + self.sample_every <= self.deadline {
                    self.cal.sample(now + self.sample_every);
                }
            }
            // Popping the wake cleared the calendar's wake slot.
            Event::Wake => {}
        }
        false
    }

    /// The pump: timers, per-link serve/transmit, drains.
    fn pump(&mut self, now: Instant) {
        let timer_span = self.prof.span("sim.pump_timers");
        for t in self.txs.iter_mut() {
            t.on_timeout(now);
        }
        for r in self.rxs.iter_mut() {
            r.on_timeout(now);
        }
        drop(timer_span);
        let links_span = self.prof.span("sim.pump_links");
        for li in 0..self.links.len() {
            // Serve the link's senders in priority order while the
            // transmitter is idle (re-checking priority after each
            // frame: a control frame freed mid-pump still wins).
            let tx_span = self.prof.span("sim.tx_serve");
            while self.links[li].channel.idle(now) {
                let mut found = None;
                for ep in &self.links[li].senders {
                    found = match *ep {
                        EndpointId::Tx(t) => {
                            self.txs[t.0].poll_transmit(now).map(|f| (T::meta(&f), f))
                        }
                        EndpointId::Rx(r) => {
                            self.rxs[r.0].poll_transmit(now).map(|f| (R::meta(&f), f))
                        }
                    };
                    if found.is_some() {
                        break;
                    }
                }
                let Some((meta, frame)) = found else {
                    break;
                };
                let slot = &mut self.links[li];
                match slot.channel.transmit(now, meta.bytes, meta.is_info) {
                    Fate::Arrives { at, clean } => self.cal.arrive(li, at, frame, clean),
                    Fate::Lost => {
                        let dir = slot.dir;
                        self.trace.emit(now, || TraceEvent::ChannelDrop { dir });
                    }
                }
            }
            drop(tx_span);
            let _rx_span = self.prof.span("sim.rx_drain");
            for r in 0..self.drains[li].len() {
                let rid = self.drains[li][r];
                while let Some((id, _len)) = self.rxs[rid.0].poll_deliver(now) {
                    match self.deliveries[rid.0] {
                        Delivery::Collect(c) => self.collectors[c.0].on_deliver(now, id),
                        Delivery::Forward(t) => {
                            self.txs[t.0].push(id, self.payload.clone());
                        }
                    }
                }
            }
        }
        drop(links_span);
    }

    /// Re-arm the single wake at the earliest pending protocol instant
    /// over endpoints and channels. Exactly one wake is ever pending:
    /// re-arming an earlier wake *moves* it instead of piling up stale
    /// duplicates that would each buy a no-op pump.
    fn rearm_wake(&mut self, now: Instant) {
        let mut want: Option<Instant> = None;
        let mut consider = |c: Option<Instant>| {
            if let Some(t) = c {
                want = Some(want.map_or(t, |w| w.min(t)));
            }
        };
        for t in &self.txs {
            consider(t.poll_timeout());
        }
        for r in &self.rxs {
            consider(r.poll_timeout());
        }
        for slot in &self.links {
            if !slot.channel.idle(now) {
                consider(Some(slot.channel.free_at()));
            }
        }
        let Some(t) = want else {
            return;
        };
        // A want at or before `now` means the protocol is blocked on a
        // busy transmitter (the pump already did everything else
        // possible at `now`): waking again at `now` would spin without
        // advancing time, so defer to the earliest channel-free instant
        // — strictly in the future when busy.
        let t = if t > now {
            Some(t)
        } else {
            self.links
                .iter()
                .map(|s| &s.channel)
                .filter(|c| !c.idle(now))
                .map(|c| c.free_at())
                .min()
        };
        if let Some(t) = t {
            debug_assert!(t > now, "wake must advance time");
            self.cal.rearm_wake(t);
        }
    }

    /// Consume the simulation into its report-assembly pieces.
    fn into_finished(self, finished_at: Instant, deadline_hit: bool) -> FinishedShard<T, R, C> {
        FinishedShard {
            issued: self.sources.iter().map(|s| s.gen.issued()).collect(),
            txs: self.txs,
            rxs: self.rxs,
            collectors: self.collectors,
            finished_at,
            deadline_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FrameMeta;
    use crate::link::{DelayModel, ErrorModel};
    use crate::topology::LinkSpec;
    use crate::traffic::Pattern;
    use sim_core::SeedSplitter;
    use std::collections::VecDeque;

    /// A toy protocol: the sender emits each SDU once as a `u64` frame;
    /// the receiver delivers it and never talks back. Enough to exercise
    /// push/arrive/deliver/done plumbing.
    #[derive(Default)]
    struct EchoTx {
        queue: VecDeque<u64>,
        sent: u64,
        heard: u64,
    }

    impl TxEndpoint for EchoTx {
        type Frame = u64;

        fn start(&mut self, _now: Instant) {}
        fn push(&mut self, id: u64, _payload: Bytes) -> bool {
            self.queue.push_back(id);
            true
        }
        fn poll_transmit(&mut self, _now: Instant) -> Option<u64> {
            let f = self.queue.pop_front();
            if f.is_some() {
                self.sent += 1;
            }
            f
        }
        fn handle_frame(&mut self, _now: Instant, _frame: u64, _ok: bool) {
            self.heard += 1;
        }
        fn on_timeout(&mut self, _now: Instant) {}
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn buffered(&self) -> usize {
            self.queue.len()
        }
        fn meta(_frame: &u64) -> FrameMeta {
            FrameMeta {
                bytes: 64,
                is_info: true,
            }
        }
        fn drain_holding(&mut self, out: &mut Vec<f64>) {
            out.push(0.5);
        }
        fn transmissions(&self) -> u64 {
            self.sent
        }
        fn retransmissions(&self) -> u64 {
            0
        }
    }

    #[derive(Default)]
    struct EchoRx {
        pending: VecDeque<u64>,
    }

    impl RxEndpoint for EchoRx {
        type Frame = u64;

        fn start(&mut self, _now: Instant) {}
        fn handle_frame(&mut self, _now: Instant, frame: u64, ok: bool) {
            if ok {
                self.pending.push_back(frame);
            }
        }
        fn on_timeout(&mut self, _now: Instant) {}
        fn poll_timeout(&self) -> Option<Instant> {
            None
        }
        fn poll_transmit(&mut self, _now: Instant) -> Option<u64> {
            None
        }
        fn poll_deliver(&mut self, _now: Instant) -> Option<(u64, usize)> {
            self.pending.pop_front().map(|id| (id, 64))
        }
        fn occupancy(&self) -> usize {
            self.pending.len()
        }
        fn meta(_frame: &u64) -> FrameMeta {
            FrameMeta {
                bytes: 64,
                is_info: true,
            }
        }
    }

    #[derive(Default)]
    struct CountCollector {
        pushed: u64,
        delivered: u64,
        samples: Vec<Instant>,
        holding: u64,
    }

    impl Collect for CountCollector {
        fn on_push(&mut self, _now: Instant, _id: u64) {
            self.pushed += 1;
        }
        fn on_deliver(&mut self, _now: Instant, _id: u64) {
            self.delivered += 1;
        }
        fn on_holding(&mut self, samples: &[f64]) {
            self.holding += samples.len() as u64;
        }
        fn sample(&mut self, now: Instant, _tx: usize, _rx: usize, _rate: f64) {
            self.samples.push(now);
        }
        fn delivered_unique(&self) -> u64 {
            self.delivered
        }
    }

    type EchoBuilder = ShardBuilder<EchoTx, EchoRx, CountCollector>;

    fn clean_channel() -> Channel {
        Channel::new(
            1e6,
            DelayModel::Fixed(Duration::from_millis(1)),
            ErrorModel::Clean,
        )
    }

    fn batch(n: u64) -> TrafficGen {
        TrafficGen::new(Pattern::Batch, n, SeedSplitter::new(1).stream(2))
    }

    /// Source node 0 → sink node 1, forward link 0 and reverse link 1.
    fn p2p_topology(sink: NodeRole) -> Topology {
        let mut topo = Topology::default();
        let a = topo.node(NodeRole::Source);
        let z = topo.node(sink);
        topo.link(a, z, "fwd");
        topo.link(z, a, "rev");
        topo
    }

    /// A placed one-shard point-to-point build over `fwd`, sampled every
    /// 5 ms: (builder, tx, rx, collector).
    fn p2p_with(n: u64, fwd: Channel) -> (EchoBuilder, TxId, RxId, ColId) {
        let topo = p2p_topology(NodeRole::Sink);
        let mut b = EchoBuilder::new(64);
        b.place(&topo);
        let lf = b.link(0, fwd, "fwd");
        let lr = b.link(1, clean_channel(), "rev");
        let t = b.tx(lf, EchoTx::default());
        let r = b.rx(lr, EchoRx::default());
        b.listen(lf, r);
        b.listen(lr, t);
        let c = b.collector(CountCollector::default());
        b.expect(c, n);
        b.source(batch(n), t, c, 0);
        b.deliver(r, c);
        b.sample_every(Duration::from_millis(5));
        b.sample(c, t, vec![r]);
        b.holding(c, t);
        (b, t, r, c)
    }

    fn p2p(n: u64) -> EchoBuilder {
        p2p_with(n, clean_channel()).0
    }

    fn build_err(b: EchoBuilder) -> String {
        match b.build() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("invalid wiring accepted"),
        }
    }

    #[test]
    fn point_to_point_delivers_everything() {
        let out = p2p(10)
            .build()
            .expect("valid")
            .run_solo(Duration::from_secs(60));
        let col = &out.finished.collectors[0];
        assert_eq!(col.delivered, 10);
        assert_eq!(col.pushed, 10);
        assert!(col.holding > 0, "holding drained every pump pass");
        assert_eq!(col.samples.first(), Some(&Instant::ZERO));
        assert_eq!(out.finished.issued, vec![10]);
        assert!(!out.finished.deadline_hit);
        assert!(out.finished.finished_at > Instant::ZERO);
        assert!(out.queue.popped > 0);
    }

    #[test]
    fn repeated_runs_are_identical() {
        let a = p2p(25)
            .build()
            .expect("valid")
            .run_solo(Duration::from_secs(60));
        let b = p2p(25)
            .build()
            .expect("valid")
            .run_solo(Duration::from_secs(60));
        assert_eq!(a.finished.finished_at, b.finished.finished_at);
        assert_eq!(a.queue.scheduled, b.queue.scheduled);
        assert_eq!(a.queue.popped, b.queue.popped);
        assert_eq!(
            a.finished.collectors[0].samples,
            b.finished.collectors[0].samples
        );
    }

    #[test]
    fn sampling_ticks_stop_at_the_deadline() {
        // A forward link that corrupts nearly every frame, and no
        // retransmission: the run never completes, so it ends at the
        // deadline with a tick every 5 ms up to it.
        let lossy = Channel::new(
            1e6,
            DelayModel::Fixed(Duration::from_millis(1)),
            ErrorModel::uniform(1e-2, SeedSplitter::new(3).stream(0)),
        );
        let (b, ..) = p2p_with(50, lossy);
        let out = b
            .build()
            .expect("valid")
            .run_solo(Duration::from_millis(42));
        assert!(out.finished.deadline_hit);
        assert_eq!(out.finished.finished_at, Instant::from_millis(42));
        let samples = &out.finished.collectors[0].samples;
        assert_eq!(samples.len(), 9, "ticks at 0, 5, …, 40 ms");
        assert_eq!(samples.last(), Some(&Instant::from_millis(40)));
    }

    #[test]
    fn time_varying_delay_inside_a_shard() {
        let a = orbit::Satellite::new(1000.0, 80.0, 0.0, 0.0);
        let z = orbit::Satellite::new(1000.0, 80.0, 90.0, 0.0);
        let windows = orbit::visibility_windows(
            &a,
            &z,
            2.0 * a.period_s(),
            5.0,
            &orbit::LinkConstraints::default(),
        );
        let profile = orbit::LinkProfile::build(&a, &z, windows[0], 5.0, 0.0);
        let fwd = Channel::new(
            1e6,
            DelayModel::Profile {
                profile,
                t0_offset_s: 0.0,
            },
            ErrorModel::Clean,
        );
        let (b, ..) = p2p_with(40, fwd);
        let out = b.build().expect("profile delay on a link");
        let out = out.run_solo(Duration::from_secs(60));
        assert_eq!(out.finished.collectors[0].delivered, 40);
        assert!(!out.finished.deadline_hit);
    }

    #[test]
    fn duplex_fan_out_reaches_every_listener() {
        // Two duplex nodes; each link feeds both endpoints at its far
        // end (the receiver and the co-located sender, which hears the
        // peer's traffic as feedback).
        let mut topo = Topology::default();
        let na = topo.node(NodeRole::Duplex);
        let nb = topo.node(NodeRole::Duplex);
        topo.link(na, nb, "fwd");
        topo.link(nb, na, "rev");
        let mut b = EchoBuilder::new(64);
        b.place(&topo);
        let la = b.link(0, clean_channel(), "fwd");
        let lb = b.link(1, clean_channel(), "rev");
        let ra = b.rx(la, EchoRx::default());
        let ta = b.tx(la, EchoTx::default());
        let rb = b.rx(lb, EchoRx::default());
        let tb = b.tx(lb, EchoTx::default());
        b.listen(la, rb);
        b.listen(la, tb);
        b.listen(lb, ra);
        b.listen(lb, ta);
        let c0 = b.collector(CountCollector::default());
        let c1 = b.collector(CountCollector::default());
        b.expect(c0, 6);
        b.expect(c1, 4);
        b.source(batch(6), ta, c0, 0);
        b.source(batch(4), tb, c1, 1);
        b.deliver(rb, c0);
        b.deliver(ra, c1);
        let out = b
            .build()
            .expect("valid duplex")
            .run_solo(Duration::from_secs(60));
        let f = &out.finished;
        assert_eq!(
            (f.collectors[0].delivered, f.collectors[1].delivered),
            (6, 4)
        );
        assert_eq!(f.txs[0].heard, 4, "a's sender hears every frame b sent");
        assert_eq!(f.txs[1].heard, 6, "b's sender hears every frame a sent");
    }

    #[test]
    fn build_rejects_unwired_receiver() {
        let topo = p2p_topology(NodeRole::Sink);
        let mut b = EchoBuilder::new(64);
        b.place(&topo);
        let lf = b.link(0, clean_channel(), "fwd");
        let lr = b.link(1, clean_channel(), "rev");
        let t = b.tx(lf, EchoTx::default());
        let r = b.rx(lr, EchoRx::default());
        b.listen(lf, r);
        let c = b.collector(CountCollector::default());
        b.source(batch(1), t, c, 0);
        // No deliver()/forward() for r: must be rejected.
        let err = build_err(b);
        assert!(err.contains("no delivery target"), "{err}");
    }

    #[test]
    fn build_rejects_role_mismatch_and_bad_links() {
        let mut topo = Topology::default();
        let a = topo.node(NodeRole::Source);
        // Self-loop link, and a Source node with no source feeding it.
        topo.link(a, a, "fwd");
        let mut b = EchoBuilder::new(64);
        b.place(&topo);
        b.link(0, clean_channel(), "fwd");
        let err = build_err(b);
        assert!(err.contains("self-loop"), "{err}");
        // With the topology fixed, the unfed Source role is reported.
        let mut topo = p2p_topology(NodeRole::Sink);
        topo.links.push(LinkSpec {
            from: NodeId(0),
            to: NodeId(9),
            dir: "rev",
        });
        let mut b = EchoBuilder::new(64);
        b.place(&topo);
        b.link(2, clean_channel(), "rev");
        let err = build_err(b);
        assert!(err.contains("link 2 references an unknown node"), "{err}");
        let mut b = p2p(1);
        b.sources.clear();
        let err = build_err(b);
        assert!(err.contains("does not exhibit its Source role"), "{err}");
    }

    #[test]
    fn build_rejects_misplaced_endpoints() {
        // The receiver answers on the forward link, so it lives at the
        // source node: it is not at the forward link's far end, and the
        // sink node is left without a delivering receiver.
        let topo = p2p_topology(NodeRole::Sink);
        let mut b = EchoBuilder::new(64);
        b.place(&topo);
        let lf = b.link(0, clean_channel(), "fwd");
        b.link(1, clean_channel(), "rev");
        let t = b.tx(lf, EchoTx::default());
        let r = b.rx(lf, EchoRx::default());
        b.listen(lf, r);
        let c = b.collector(CountCollector::default());
        b.source(batch(1), t, c, 0);
        b.deliver(r, c);
        let err = build_err(b);
        assert!(err.contains("is not hosted at its far end"), "{err}");
        assert!(
            err.contains("node 1 does not exhibit its Sink role"),
            "{err}"
        );
        // A relay role wired to forward into the sender at the other node.
        let topo = p2p_topology(NodeRole::Relay);
        let mut b = EchoBuilder::new(64);
        b.place(&topo);
        let lf = b.link(0, clean_channel(), "fwd");
        let lr = b.link(1, clean_channel(), "rev");
        let t = b.tx(lf, EchoTx::default());
        let r = b.rx(lr, EchoRx::default());
        b.listen(lf, r);
        let c = b.collector(CountCollector::default());
        b.source(batch(1), t, c, 0);
        b.forward(r, t);
        let err = build_err(b);
        assert!(
            err.contains("rx 0 forwards into a tx at a different node"),
            "{err}"
        );
    }

    #[test]
    fn build_rejects_listen_on_unknown_link() {
        let mut b = p2p(1);
        b.listen(LinkId(7), RxId(0));
        let err = build_err(b);
        assert!(err.contains("listens on unknown local link 7"), "{err}");
    }

    #[test]
    fn build_rejects_drain_after_unknown_link() {
        let mut b = p2p(1);
        b.drain_after(RxId(0), LinkId(5));
        let err = build_err(b);
        assert!(
            err.contains("rx 0 drains after unknown local link 5"),
            "{err}"
        );
    }

    #[test]
    fn build_rejects_sampler_on_unknown_endpoint() {
        let mut b = p2p(1);
        b.sample(ColId(0), TxId(4), vec![RxId(0)]);
        let err = build_err(b);
        assert!(err.contains("sampler 1 names an unknown endpoint"), "{err}");
        // A sampler without a tick period is rejected as well.
        let mut b = p2p(1);
        b.sample_every(Duration::ZERO);
        let err = build_err(b);
        assert!(err.contains("positive sampling period"), "{err}");
    }

    #[test]
    fn build_rejects_holding_on_unknown_tx() {
        let mut b = p2p(1);
        b.holding(ColId(0), TxId(3));
        let err = build_err(b);
        assert!(err.contains("holding 1 names an unknown tx"), "{err}");
    }

    #[test]
    fn relay_forwarding_chain_delivers() {
        // 3 nodes, 2 hops: source → relay → sink, with per-hop drain
        // points so forwarded frames catch the next link's pump pass.
        let mut topo = Topology::default();
        let nodes = [NodeRole::Source, NodeRole::Relay, NodeRole::Sink].map(|r| topo.node(r));
        for h in 0..2 {
            topo.link(nodes[h], nodes[h + 1], "fwd");
            topo.link(nodes[h + 1], nodes[h], "rev");
        }
        let mut b = EchoBuilder::new(64);
        b.place(&topo);
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for h in 0..2 {
            let lf = b.link(2 * h, clean_channel(), "fwd");
            let lr = b.link(2 * h + 1, clean_channel(), "rev");
            let t = b.tx(lf, EchoTx::default());
            let r = b.rx(lr, EchoRx::default());
            b.listen(lf, r);
            b.listen(lr, t);
            b.drain_after(r, lr);
            txs.push(t);
            rxs.push(r);
        }
        let c = b.collector(CountCollector::default());
        b.expect(c, 7);
        b.source(batch(7), txs[0], c, 0);
        b.forward(rxs[0], txs[1]);
        b.deliver(rxs[1], c);
        b.sample_every(Duration::from_millis(5));
        b.sample(c, txs[0], rxs.clone());
        b.holding(c, txs[0]);
        let out = b
            .build()
            .expect("valid relay")
            .run_solo(Duration::from_secs(60));
        assert_eq!(out.finished.collectors[0].delivered, 7);
        assert_eq!(out.finished.txs[0].sent, 7);
        assert_eq!(
            out.finished.txs[1].sent, 7,
            "relay must forward every frame"
        );
    }

    #[test]
    fn builder_rejects_bad_link_wiring() {
        // Descending topology-id registration, a listener that was never
        // registered, and a delivery to an unknown collector: all
        // rejected.
        let mut b = EchoBuilder::new(64);
        let fwd = b.link(3, clean_channel(), "fwd");
        b.link(1, clean_channel(), "rev"); // descending: 1 after 3
        b.listen(fwd, RxId(5));
        let r = b.rx(fwd, EchoRx::default());
        b.deliver(r, ColId(0));
        let msg = build_err(b);
        assert!(msg.contains("ascending global-id order"), "{msg}");
        assert!(
            msg.contains("listener Rx(RxId(5)) is not registered"),
            "{msg}"
        );
        assert!(msg.contains("delivers to an unknown collector"), "{msg}");
    }

    #[test]
    fn build_rejects_non_ascending_source_ordinals() {
        // Two duplex nodes, each feeding its own sender: the sources'
        // lanes pop in registration order, so ordinals must ascend.
        let duplex = |first: u64, second: u64| {
            let mut topo = Topology::default();
            let na = topo.node(NodeRole::Duplex);
            let nb = topo.node(NodeRole::Duplex);
            topo.link(na, nb, "fwd");
            topo.link(nb, na, "rev");
            let mut b = EchoBuilder::new(64);
            b.place(&topo);
            let la = b.link(0, clean_channel(), "fwd");
            let lb = b.link(1, clean_channel(), "rev");
            let ra = b.rx(la, EchoRx::default());
            let ta = b.tx(la, EchoTx::default());
            let rb = b.rx(lb, EchoRx::default());
            let tb = b.tx(lb, EchoTx::default());
            b.listen(la, rb);
            b.listen(lb, ra);
            let c = b.collector(CountCollector::default());
            b.source(batch(1), ta, c, first);
            b.source(batch(1), tb, c, second);
            b.deliver(rb, c);
            b.deliver(ra, c);
            b
        };
        assert!(duplex(0, 1).build().is_ok());
        let err = build_err(duplex(1, 0));
        assert!(
            err.contains("ascending ordinal order (got 0 after 1)"),
            "{err}"
        );
        let err = build_err(duplex(2, 2));
        assert!(err.contains("(got 2 after 2)"), "{err}");
    }
}
