//! Run-level measurement collection.

use sim_core::stats::{Histogram, Series, Summary, TimeWeighted};
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
    /// Distribution of the in-order delay (histogram over [0, 2 s),
    /// 400 bins of 5 ms — quantiles via [`Histogram::quantile`]).
    pub e2e_delay_hist: Histogram,
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
}

impl RunReport {
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

    /// Machine-readable form of the whole report. Schema (all times in
    /// seconds, all counters numbers):
    ///
    /// ```text
    /// {
    ///   "protocol": str,
    ///   "offered" | "delivered_unique" | "duplicates" | "lost": n,
    ///   "deadline_hit" | "link_failed": bool,
    ///   "elapsed_s" | "throughput_fps" | "efficiency"
    ///     | "retransmission_ratio" | "t_f_channel_s": n,
    ///   "transmissions" | "retransmissions": n,
    ///   "delay" | "e2e_delay" | "holding":
    ///     {"count", "mean", "std_dev", "min", "max"},
    ///   "e2e_delay_quantiles": {"p50", "p90", "p99"},   // null if empty
    ///   "tx_buffer": {"mean_tw", "peak"},
    ///   "reseq_peak": n,
    ///   "tx_extras" | "rx_extras" | "counters": {name: n, ...},
    ///   "perf": {"scheduled", "popped", "cancelled", "peak_depth",
    ///            "horizon_s", "wall_secs", "events_per_sec"}
    /// }
    /// ```
    pub fn to_json(&self) -> Json {
        let q = |p: f64| Json::from(self.e2e_delay_hist.quantile(p));
        Json::obj([
            ("protocol", Json::from(self.protocol.as_str())),
            ("offered", self.offered.into()),
            ("delivered_unique", self.delivered_unique.into()),
            ("duplicates", self.duplicates.into()),
            ("lost", self.lost.into()),
            ("deadline_hit", self.deadline_hit.into()),
            ("link_failed", self.link_failed.into()),
            ("elapsed_s", self.elapsed_s().into()),
            ("throughput_fps", self.throughput_fps().into()),
            ("efficiency", self.efficiency().into()),
            ("retransmission_ratio", self.retransmission_ratio().into()),
            ("t_f_channel_s", self.t_f_channel.into()),
            ("transmissions", self.transmissions.into()),
            ("retransmissions", self.retransmissions.into()),
            ("delay", summary_json(&self.delay)),
            ("e2e_delay", summary_json(&self.e2e_delay)),
            (
                "e2e_delay_quantiles",
                Json::obj([("p50", q(0.5)), ("p90", q(0.9)), ("p99", q(0.99))]),
            ),
            ("holding", summary_json(&self.holding)),
            (
                "tx_buffer",
                Json::obj([
                    (
                        "mean_tw",
                        self.tx_buffer_tw.mean_at(self.finished_at).into(),
                    ),
                    ("peak", self.tx_buffer_tw.peak().into()),
                ]),
            ),
            ("reseq_peak", (self.reseq_peak as u64).into()),
            ("tx_extras", self.tx_extras.to_json()),
            ("rx_extras", self.rx_extras.to_json()),
            ("counters", self.counters.to_json()),
            ("perf", perf_json(&self.queue, self.wall_secs)),
        ])
    }
}

/// JSON view of a [`Summary`] (`count`/`mean`/`std_dev`/`min`/`max`).
pub fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("count", s.count().into()),
        ("mean", s.mean().into()),
        ("std_dev", s.std_dev().into()),
        ("min", s.min().into()),
        ("max", s.max().into()),
    ])
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
/// per-id bookkeeping is id-indexed (a `Vec` of push instants and a
/// delivered bitset) rather than hashed — no hashing or probing on the
/// per-delivery path.
pub struct Collector {
    push_times: Vec<Option<Instant>>,
    /// One bit per id: set once delivered (duplicates detected here).
    delivered: Vec<u64>,
    delivered_count: u64,
    resequencer: lams_dlc::Resequencer,
    /// Scratch for the resequencer's in-order releases, reused across
    /// deliveries.
    reseq_out: Vec<(lams_dlc::PacketId, bytes::Bytes)>,
    /// When each SDU entered the resequencer (id-indexed, cleared on
    /// release); only maintained while tracing, to stamp `ReseqHold`
    /// records for the latency-attribution layer.
    reseq_arrival: Vec<Option<Instant>>,
    /// Delay push → delivery.
    pub delay: Summary,
    /// Delay push → in-order release.
    pub e2e_delay: Summary,
    /// In-order delay distribution.
    pub e2e_delay_hist: Histogram,
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
    duplicates: u64,
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
            delivered: Vec::new(),
            delivered_count: 0,
            resequencer: lams_dlc::Resequencer::new(0),
            reseq_out: Vec::new(),
            reseq_arrival: Vec::new(),
            delay: Summary::new(),
            e2e_delay: Summary::new(),
            e2e_delay_hist: Histogram::new(0.0, 2.0, 400),
            holding: Summary::new(),
            tx_buffer: Series::new("tx_buffer_frames"),
            tx_buffer_tw: TimeWeighted::new(Instant::ZERO, 0.0),
            rx_buffer: Series::new("rx_buffer_frames"),
            reseq_buffer: Series::new("resequencer_frames"),
            rate: Series::new("send_rate_fraction"),
            duplicates: 0,
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

    /// Duplicate deliveries so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// In-order releases so far.
    pub fn released_in_order(&self) -> u64 {
        self.resequencer.stats().released
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
        let delivered_unique = self.delivered_count;
        let reseq_peak = self.resequencer.stats().peak_buffered;
        RunReport {
            protocol: protocol.to_string(),
            offered,
            delivered_unique,
            duplicates: self.duplicates,
            lost: offered - delivered_unique,
            finished_at,
            deadline_hit,
            link_failed,
            delay: self.delay,
            e2e_delay: self.e2e_delay,
            e2e_delay_hist: self.e2e_delay_hist,
            holding: self.holding,
            tx_buffer: self.tx_buffer,
            tx_buffer_tw: self.tx_buffer_tw,
            rx_buffer: self.rx_buffer,
            reseq_buffer: self.reseq_buffer,
            rate: self.rate,
            transmissions,
            retransmissions,
            t_f_channel: t_f_channel.as_secs_f64(),
            reseq_peak,
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

    /// Record a receiver delivery; runs the destination resequencer for
    /// dedup + in-order accounting.
    fn on_deliver(&mut self, now: Instant, id: u64) {
        let _span = self.prof.span("collector.deliver");
        let word = (id >> 6) as usize;
        if word >= self.delivered.len() {
            self.delivered.resize(word + 1, 0);
        }
        let bit = 1u64 << (id & 63);
        if self.delivered[word] & bit != 0 {
            self.duplicates += 1;
            return;
        }
        self.delivered[word] |= bit;
        self.delivered_count += 1;
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
        let mut released = std::mem::take(&mut self.reseq_out);
        released.clear();
        self.resequencer
            .offer_into(lams_dlc::PacketId(id), bytes::Bytes::new(), &mut released);
        for (rid, _) in &released {
            match self.push_time(rid.0) {
                Some(p) => {
                    let d = now.duration_since(p).as_secs_f64();
                    self.e2e_delay.record(d);
                    self.e2e_delay_hist.record(d);
                }
                None => self.counters.inc_handle(self.unmatched),
            }
            if self.trace.enabled() {
                if let Some(slot) = self.reseq_arrival.get_mut(rid.0 as usize) {
                    if let Some(arrived) = slot.take() {
                        let held_ns = now.duration_since(arrived).as_nanos();
                        if held_ns > 0 {
                            let sdu = rid.0;
                            self.trace
                                .emit(now, || TraceEvent::ReseqHold { id: sdu, held_ns });
                        }
                    }
                }
            }
        }
        self.reseq_out = released;
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
        self.reseq_buffer
            .push(now, self.resequencer.buffered() as f64);
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
        self.delivered_count
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

    #[test]
    fn report_json_round_trips() {
        let mut c = Collector::new();
        c.on_push(Instant::ZERO, 0);
        c.on_push(Instant::ZERO, 1);
        c.on_deliver(Instant::from_millis(2), 0);
        c.on_deliver(Instant::from_millis(3), 1);
        let mut r = c.finish(
            "lams",
            2,
            Instant::from_millis(3),
            false,
            false,
            2,
            0,
            Duration::from_micros(50),
            Registry::from_iter([("lams.sender.request_naks", 4.0)]),
            Registry::from_iter([("lams.receiver.checkpoints_sent", 9.0)]),
        );
        r.wall_secs = 0.5;
        let rendered = r.to_json().render();
        let back = Json::parse(&rendered).expect("report JSON must parse");
        assert_eq!(back.get("protocol").and_then(Json::as_str), Some("lams"));
        assert_eq!(
            back.get("delivered_unique").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(back.get("lost").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            back.get("tx_extras")
                .and_then(|e| e.get("lams.sender.request_naks"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            back.get("delay")
                .and_then(|d| d.get("count"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        let perf = back.get("perf").expect("perf block");
        assert_eq!(perf.get("wall_secs").and_then(Json::as_f64), Some(0.5));
        // Round-trip is idempotent.
        assert_eq!(Json::parse(&back.render()).unwrap(), back);
    }
}
