//! Run-level measurement collection.

use lams_dlc::Resequencer;
use sim_core::stats::{nearest_rank, Series, Summary, TimeWeighted};
use sim_core::{Duration, Instant, QueueProfile};
use telemetry::{Json, Registry, Trace, TraceEvent};

/// Everything measured over one scenario run.
pub struct RunReport {
    /// Protocol label ("lams", "sr-hdlc", "gbn-hdlc").
    pub protocol: String,
    /// SDUs offered by the traffic generator.
    pub offered: u64,
    /// Unique SDUs delivered (after deduplication).
    pub delivered_unique: u64,
    /// Duplicate deliveries observed (enforced-recovery or go-back
    /// replays that reached the top).
    pub duplicates: u64,
    /// SDUs never delivered by the end of the run.
    pub lost: u64,
    /// Instant the last unique SDU was delivered (or the run end).
    pub finished_at: Instant,
    /// True if the run hit the deadline before completing.
    pub deadline_hit: bool,
    /// True if the sender declared link failure.
    pub link_failed: bool,
    /// Link-level delivery delay: SDU push → receiver delivery
    /// (out-of-order allowed), seconds.
    pub delay: Summary,
    /// End-to-end in-order delay: SDU push → in-order release at the
    /// destination resequencer, seconds.
    pub e2e_delay: Summary,
    /// Every in-order delay sample, nanoseconds, in release order
    /// (quantiles via [`RunReport::e2e_delay_quantile`]).
    pub e2e_delays_ns: Vec<u64>,
    /// Sender-side holding times of released frames, seconds.
    pub holding: Summary,
    /// Sender-buffer occupancy trace, frames.
    pub tx_buffer: Series,
    /// Mean/peak of the sender buffer (time-weighted).
    pub tx_buffer_tw: TimeWeighted,
    /// Receiver-side buffer occupancy trace, frames.
    pub rx_buffer: Series,
    /// Destination resequencer occupancy trace, frames.
    pub reseq_buffer: Series,
    /// Flow-controlled sending-rate trace.
    pub rate: Series,
    /// Total I-frame transmissions.
    pub transmissions: u64,
    /// Of which retransmissions.
    pub retransmissions: u64,
    /// Serialization time of one I-frame on this link (channel bits), s.
    pub t_f_channel: f64,
    /// Peak resequencer occupancy.
    pub reseq_peak: usize,
    /// Protocol-specific sender counters.
    pub tx_extras: Registry,
    /// Protocol-specific receiver counters.
    pub rx_extras: Registry,
    /// Run-level accounting counters maintained by the [`Collector`]
    /// (e.g. `harness.collector.unmatched`: deliveries whose push instant was
    /// never recorded, so no delay sample could be taken).
    pub counters: Registry,
    /// Event-queue profiling snapshot of the run's scheduler.
    pub queue: QueueProfile,
    /// Wall-clock seconds the run took (for simulated-events/sec).
    pub wall_secs: f64,
}

impl RunReport {
    /// Look up a protocol-specific counter by name (sender first, then
    /// receiver, then the collector's run counters).
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.tx_extras
            .get(name)
            .or_else(|| self.rx_extras.get(name))
            .or_else(|| self.counters.get(name))
    }

    /// Wall-clock of the run in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.finished_at.as_secs_f64()
    }

    /// Delivered throughput in frames per second.
    pub fn throughput_fps(&self) -> f64 {
        if self.elapsed_s() <= 0.0 {
            0.0
        } else {
            self.delivered_unique as f64 / self.elapsed_s()
        }
    }

    /// Normalised efficiency: fraction of the line occupied by *unique*
    /// user I-frames, `delivered · t_f / elapsed` (directly comparable to
    /// the analysis crate's `η·t_f`).
    pub fn efficiency(&self) -> f64 {
        self.throughput_fps() * self.t_f_channel
    }

    /// Retransmission overhead ratio: retransmissions per delivered frame.
    pub fn retransmission_ratio(&self) -> f64 {
        if self.delivered_unique == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.delivered_unique as f64
        }
    }

    /// In-order delay quantile in seconds ([`nearest_rank`] over the
    /// exact samples; `None` with no samples).
    pub fn e2e_delay_quantile(&self, q: f64) -> Option<f64> {
        let mut sorted = self.e2e_delays_ns.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q).map(|ns| Duration::from_nanos(ns).as_secs_f64())
    }
}

/// JSON view of a queue profile plus the wall clock that drove it.
pub fn perf_json(q: &QueueProfile, wall_secs: f64) -> Json {
    Json::obj([
        ("scheduled", q.scheduled.into()),
        ("popped", q.popped.into()),
        ("cancelled", q.cancelled.into()),
        ("peak_depth", (q.peak_depth as u64).into()),
        ("horizon_s", q.horizon.as_secs_f64().into()),
        ("wall_secs", wall_secs.into()),
        ("events_per_sec", q.events_per_sec(wall_secs).into()),
    ])
}

thread_local! {
    /// Per-thread perf accumulator: (merged queue profile, wall seconds,
    /// number of runs folded in). Run loops feed it; `perf_take` drains
    /// it — the repro binary uses this for per-experiment perf blocks.
    static PERF_ACC: std::cell::RefCell<Option<(QueueProfile, f64, u64)>> =
        const { std::cell::RefCell::new(None) };
}

/// Fold one run's scheduler profile and wall clock into the thread's perf
/// accumulator.
pub fn perf_absorb(queue: &QueueProfile, wall_secs: f64) {
    perf_merge(queue, wall_secs, 1);
}

/// Fold an already-merged profile covering `runs` runs into the thread's
/// perf accumulator — used when replaying a worker thread's drained
/// accumulator into the orchestrating thread's.
pub fn perf_merge(queue: &QueueProfile, wall_secs: f64, runs: u64) {
    PERF_ACC.with(|acc| {
        let mut acc = acc.borrow_mut();
        let (p, w, n) = acc.get_or_insert((QueueProfile::default(), 0.0, 0));
        p.absorb(queue);
        *w += wall_secs;
        *n += runs;
    });
}

/// Drain the thread's perf accumulator: `(merged profile, total wall
/// seconds, runs)` since the last call, or `None` if nothing ran.
pub fn perf_take() -> Option<(QueueProfile, f64, u64)> {
    PERF_ACC.with(|acc| acc.borrow_mut().take())
}

/// Accumulates measurements during a run.
///
/// SDU ids are issued sequentially by the traffic generator, so the
/// per-id bookkeeping is id-indexed (a `Vec` of push instants) rather
/// than hashed, and the destination is the same [`Resequencer`] the
/// host pump releases through: no hashing or probing on the
/// per-delivery path.
pub struct Collector {
    push_times: Vec<Option<Instant>>,
    /// Deduplicates deliveries and releases them in order.
    reseq: Resequencer,
    /// When each SDU reached the destination (id-indexed, cleared on
    /// in-order release); only maintained while tracing, to stamp
    /// `ReseqHold` records for the latency-attribution layer.
    reseq_arrival: Vec<Option<Instant>>,
    /// Delay push → delivery.
    pub delay: Summary,
    /// Delay push → in-order release.
    pub e2e_delay: Summary,
    /// In-order delay samples, nanoseconds.
    pub e2e_delays_ns: Vec<u64>,
    /// Holding-time samples.
    pub holding: Summary,
    /// Occupancy traces.
    pub tx_buffer: Series,
    /// Time-weighted sender-buffer stats.
    pub tx_buffer_tw: TimeWeighted,
    /// Receive-buffer trace.
    pub rx_buffer: Series,
    /// Resequencer trace.
    pub reseq_buffer: Series,
    /// Rate trace.
    pub rate: Series,
    counters: Registry,
    /// Pre-resolved `harness.collector.unmatched` slot (per-delivery path).
    unmatched: telemetry::CounterHandle,
    trace: Trace,
    /// Self-profiling handle, resolved once at construction (disabled
    /// costs one branch per delivery).
    prof: profile::Prof,
    /// Next power-of-two sender-buffer level that will emit a rising
    /// watermark trace record.
    tx_watermark: usize,
}

/// Lowest sender-buffer watermark level traced (powers of two upward).
const TX_WATERMARK_BASE: usize = 64;

impl Collector {
    /// Fresh collector starting at t = 0.
    pub fn new() -> Self {
        // Resolve the per-delivery counter once; updates skip the name
        // scan. The entry exists (at 0) from the start, making the
        // "accounting went wrong" signal visible in every report.
        let mut counters = Registry::new();
        let unmatched = counters.handle("harness.collector.unmatched");
        Collector {
            push_times: Vec::new(),
            reseq: Resequencer::new(),
            reseq_arrival: Vec::new(),
            delay: Summary::new(),
            e2e_delay: Summary::new(),
            e2e_delays_ns: Vec::new(),
            holding: Summary::new(),
            tx_buffer: Series::new("tx_buffer_frames"),
            tx_buffer_tw: TimeWeighted::new(Instant::ZERO, 0.0),
            rx_buffer: Series::new("rx_buffer_frames"),
            reseq_buffer: Series::new("resequencer_frames"),
            rate: Series::new("send_rate_fraction"),
            counters,
            unmatched,
            trace: telemetry::global_handle("collector"),
            prof: profile::current(),
            tx_watermark: TX_WATERMARK_BASE,
        }
    }

    #[inline]
    fn push_time(&self, id: u64) -> Option<Instant> {
        self.push_times.get(id as usize).copied().flatten()
    }

    /// Release `id` in order at `now`: its end-to-end delay sample and,
    /// while tracing, how long it was held.
    fn release(&mut self, now: Instant, id: u64) {
        match self.push_time(id) {
            Some(p) => {
                let d = now.duration_since(p);
                self.e2e_delay.record(d.as_secs_f64());
                self.e2e_delays_ns.push(d.as_nanos());
            }
            None => self.counters.inc_handle(self.unmatched),
        }
        if self.trace.enabled() {
            if let Some(arrived) = self
                .reseq_arrival
                .get_mut(id as usize)
                .and_then(Option::take)
            {
                let held_ns = now.duration_since(arrived).as_nanos();
                if held_ns > 0 {
                    self.trace
                        .emit(now, || TraceEvent::ReseqHold { id, held_ns });
                }
            }
        }
    }

    /// Duplicate deliveries so far.
    pub fn duplicates(&self) -> u64 {
        self.reseq.stats().duplicates
    }

    /// In-order releases so far.
    pub fn released_in_order(&self) -> u64 {
        self.reseq.next()
    }

    /// Deliveries dropped from delay accounting (no matching push).
    pub fn unmatched(&self) -> u64 {
        self.counters
            .get("harness.collector.unmatched")
            .unwrap_or(0.0) as u64
    }

    /// Finalize into a report. The queue/wall perf fields start zeroed;
    /// the run loop stamps them afterwards (it owns the event queue).
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        self,
        protocol: &str,
        offered: u64,
        finished_at: Instant,
        deadline_hit: bool,
        link_failed: bool,
        transmissions: u64,
        retransmissions: u64,
        t_f_channel: Duration,
        tx_extras: Registry,
        rx_extras: Registry,
    ) -> RunReport {
        let delivered_unique = netsim::Collect::delivered_unique(&self);
        let stats = self.reseq.stats();
        RunReport {
            protocol: protocol.to_string(),
            offered,
            delivered_unique,
            duplicates: stats.duplicates,
            lost: offered - delivered_unique,
            finished_at,
            deadline_hit,
            link_failed,
            delay: self.delay,
            e2e_delay: self.e2e_delay,
            e2e_delays_ns: self.e2e_delays_ns,
            holding: self.holding,
            tx_buffer: self.tx_buffer,
            tx_buffer_tw: self.tx_buffer_tw,
            rx_buffer: self.rx_buffer,
            reseq_buffer: self.reseq_buffer,
            rate: self.rate,
            transmissions,
            retransmissions,
            t_f_channel: t_f_channel.as_secs_f64(),
            reseq_peak: stats.peak_held,
            tx_extras,
            rx_extras,
            counters: self.counters,
            queue: QueueProfile::default(),
            wall_secs: 0.0,
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

// The netsim event loop drives collectors through this trait.
impl netsim::Collect for Collector {
    /// Record an SDU entering the sender.
    fn on_push(&mut self, now: Instant, id: u64) {
        let idx = id as usize;
        if idx >= self.push_times.len() {
            self.push_times.resize(idx + 1, None);
        }
        self.push_times[idx] = Some(now);
    }

    /// Record a receiver delivery: dedup, then release every id now
    /// contiguous.
    fn on_deliver(&mut self, now: Instant, id: u64) {
        let _span = self.prof.span("collector.deliver");
        let Some(released) = self.reseq.offer(id) else {
            return;
        };
        match self.push_time(id) {
            Some(p) => self.delay.record(now.duration_since(p).as_secs_f64()),
            // A delivery with no matching push: the delay sample is
            // unrecordable. Count it so runs where accounting went wrong
            // are visible instead of silently under-sampled.
            None => self.counters.inc_handle(self.unmatched),
        }
        if self.trace.enabled() {
            let idx = id as usize;
            if idx >= self.reseq_arrival.len() {
                self.reseq_arrival.resize(idx + 1, None);
            }
            self.reseq_arrival[idx] = Some(now);
        }
        let reseq_span = self.prof.span("collector.reseq");
        for id in released {
            self.release(now, id);
        }
        drop(reseq_span);
    }

    /// Record a batch of holding-time samples (seconds).
    fn on_holding(&mut self, samples: &[f64]) {
        for &h in samples {
            self.holding.record(h);
        }
    }

    /// Sample the occupancy traces.
    fn sample(&mut self, now: Instant, tx_buf: usize, rx_buf: usize, rate: f64) {
        self.tx_buffer.push(now, tx_buf as f64);
        self.tx_buffer_tw.set(now, tx_buf as f64);
        self.rx_buffer.push(now, rx_buf as f64);
        self.reseq_buffer.push(now, self.reseq.held() as f64);
        self.rate.push(now, rate);
        // Trace power-of-two watermark crossings of the sender buffer:
        // one rising record per level filled, one falling once it drains
        // below a quarter of that level (hysteresis against flapping).
        if self.trace.enabled() {
            while tx_buf >= self.tx_watermark {
                let level = self.tx_watermark as u64;
                self.trace.emit(now, || TraceEvent::BufferWatermark {
                    buffer: "tx",
                    level,
                    rising: true,
                });
                self.tx_watermark *= 2;
            }
            while self.tx_watermark > TX_WATERMARK_BASE && tx_buf < self.tx_watermark / 4 {
                self.tx_watermark /= 2;
                let level = self.tx_watermark as u64;
                self.trace.emit(now, || TraceEvent::BufferWatermark {
                    buffer: "tx",
                    level,
                    rising: false,
                });
            }
        }
    }

    /// Unique deliveries so far.
    fn delivered_unique(&self) -> u64 {
        self.reseq.next() + self.reseq.held() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Collect;

    #[test]
    fn delivery_accounting() {
        let mut c = Collector::new();
        c.on_push(Instant::ZERO, 0);
        c.on_push(Instant::ZERO, 1);
        c.on_deliver(Instant::from_millis(10), 1); // out of order
        c.on_deliver(Instant::from_millis(12), 0);
        c.on_deliver(Instant::from_millis(13), 0); // duplicate
        assert_eq!(c.delivered_unique(), 2);
        assert_eq!(c.duplicates(), 1);
        assert_eq!(c.released_in_order(), 2);
        assert_eq!(c.delay.count(), 2);
        assert_eq!(c.unmatched(), 0);
        // e2e delays recorded at release time: both released at 12 ms.
        assert_eq!(c.e2e_delay.count(), 2);
        assert!(c.e2e_delay.min().unwrap() >= 0.012 - 1e-12);
        assert_eq!(c.e2e_delays_ns, [12_000_000, 12_000_000]);
    }

    #[test]
    fn held_count_and_peak() {
        let mut c = Collector::new();
        let mut held = Vec::new();
        for (k, id) in [2u64, 1, 2, 0, 3].into_iter().enumerate() {
            let now = Instant::from_millis(k as u64);
            c.on_push(Instant::ZERO, id);
            c.on_deliver(now, id);
            c.sample(now, 0, 0, 0.0);
            held.push(c.reseq_buffer.last_value().unwrap());
        }
        assert_eq!(held, [1.0, 2.0, 2.0, 0.0, 0.0]);
        let r = c.finish(
            "x",
            4,
            Instant::from_millis(4),
            false,
            false,
            5,
            0,
            Duration::ZERO,
            Registry::new(),
            Registry::new(),
        );
        assert_eq!((r.delivered_unique, r.duplicates, r.reseq_peak), (4, 1, 2));
    }

    #[test]
    fn unmatched_delivery_counted_not_sampled() {
        let mut c = Collector::new();
        // id 0 was never pushed: the delivery must not panic, must not
        // produce a delay sample, and must be counted.
        c.on_deliver(Instant::from_millis(5), 0);
        assert_eq!(c.delivered_unique(), 1);
        assert_eq!(c.delay.count(), 0);
        // Counted twice: once at delivery, once at in-order release.
        assert_eq!(c.unmatched(), 2);
        let r = c.finish(
            "x",
            1,
            Instant::from_millis(5),
            false,
            false,
            1,
            0,
            Duration::ZERO,
            Registry::new(),
            Registry::new(),
        );
        assert_eq!(r.extra("harness.collector.unmatched"), Some(2.0));
    }

    #[test]
    fn report_ratios() {
        let mut c = Collector::new();
        c.on_push(Instant::ZERO, 0);
        c.on_deliver(Instant::from_millis(1), 0);
        let r = c.finish(
            "lams",
            1,
            Instant::from_millis(1),
            false,
            false,
            3,
            2,
            Duration::from_micros(50),
            Registry::from_iter([("lams.sender.request_naks", 1.0)]),
            Registry::new(),
        );
        assert_eq!(r.delivered_unique, 1);
        assert_eq!(r.lost, 0);
        assert!((r.throughput_fps() - 1000.0).abs() < 1e-6);
        assert!((r.efficiency() - 0.05).abs() < 1e-9);
        assert_eq!(r.retransmission_ratio(), 2.0);
        assert_eq!(r.extra("lams.sender.request_naks"), Some(1.0));
    }

    #[test]
    fn zero_elapsed_guard() {
        let c = Collector::new();
        let r = c.finish(
            "x",
            0,
            Instant::ZERO,
            false,
            false,
            0,
            0,
            Duration::ZERO,
            Registry::new(),
            Registry::new(),
        );
        assert_eq!(r.throughput_fps(), 0.0);
        assert_eq!(r.retransmission_ratio(), 0.0);
        assert_eq!(r.extra("anything"), None);
    }
}
