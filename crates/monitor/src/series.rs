//! Fixed-interval windowed time series over the event stream.
//!
//! Windows are aligned to simulated time (`window index = t / width`),
//! so the series depends only on the trace content — a parallel run
//! reproduces a serial run's series byte-for-byte.
//!
//! Records arrive in time order, so almost every one lands in the
//! newest window: the series caches that window's bounds, and such a
//! record costs two compares. A record in a later window appends one;
//! a rewound record (stamped before the newest window) binary-searches
//! the windows, which are kept in index order.

use sim_core::{Duration, Instant};
use telemetry::Json;

/// One window's accumulators for one link.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowAcc {
    /// I-frame transmissions (new + retransmitted).
    pub tx: u64,
    /// Of which retransmissions.
    pub retx: u64,
    /// Unique clean deliveries at the receiver.
    pub delivered: u64,
    /// NAKs recorded by the receiver.
    pub naks: u64,
    /// Sender buffer releases.
    pub releases: u64,
    /// High-water mark of unresolved (buffered) frames.
    pub outstanding_hwm: u64,
    /// High-water mark of retransmissions awaiting resolution.
    pub retx_in_flight_hwm: u64,
}

/// Windowed accumulator for one link over one run.
#[derive(Debug)]
pub struct LinkSeries {
    width: Duration,
    /// Touched windows by index, ascending.
    windows: Vec<(u64, WindowAcc)>,
    /// The newest window's bounds `[start, end)` in nanoseconds; empty
    /// while no window is touched.
    newest: (u64, u64),
}

impl LinkSeries {
    /// A series with the given window width.
    pub fn new(width: Duration) -> Self {
        LinkSeries {
            width: if width.as_nanos() == 0 {
                Duration::from_millis(100)
            } else {
                width
            },
            windows: Vec::new(),
            newest: (0, 0),
        }
    }

    /// The window accumulator covering instant `t`.
    pub fn at(&mut self, t: Instant) -> &mut WindowAcc {
        let tn = t.as_nanos();
        let (start, end) = self.newest;
        if start <= tn && tn < end {
            let (_, acc) = self.windows.last_mut().expect("a window is cached");
            return acc;
        }
        self.locate(tn)
    }

    /// [`LinkSeries::at`] off the cached window: append a later window,
    /// or find (or insert) an earlier one.
    #[cold]
    fn locate(&mut self, tn: u64) -> &mut WindowAcc {
        let width = self.width.as_nanos();
        let idx = tn / width;
        let i = match self.windows.last() {
            Some(&(newest, _)) if newest >= idx => {
                match self.windows.binary_search_by_key(&idx, |&(i, _)| i) {
                    Ok(i) => i,
                    Err(i) => {
                        self.windows.insert(i, (idx, WindowAcc::default()));
                        i
                    }
                }
            }
            _ => {
                let start = idx * width;
                self.newest = (start, start.saturating_add(width));
                self.windows.push((idx, WindowAcc::default()));
                self.windows.len() - 1
            }
        };
        &mut self.windows[i].1
    }

    /// Number of touched windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window was touched.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Drain the touched windows in time order as JSONL-ready objects.
    /// `experiment`/`run`/`link` identify the series; `t0`/`t1` bound
    /// each window in seconds, and `throughput_fps` is the delivered
    /// rate over the window.
    pub fn drain_lines(&mut self, experiment: &str, run: u64, link: &str) -> Vec<Json> {
        let windows = std::mem::take(&mut self.windows);
        self.newest = (0, 0);
        self.render_lines(windows.iter(), experiment, run, link)
    }

    /// The touched windows so far, in time order, without draining —
    /// the live stats endpoint reads the series mid-run while the
    /// auditor keeps accumulating into it.
    pub fn peek_lines(&self, experiment: &str, run: u64, link: &str) -> Vec<Json> {
        self.render_lines(self.windows.iter(), experiment, run, link)
    }

    fn render_lines<'a>(
        &self,
        windows: impl Iterator<Item = &'a (u64, WindowAcc)>,
        experiment: &str,
        run: u64,
        link: &str,
    ) -> Vec<Json> {
        let width_s = self.width.as_secs_f64();
        windows
            .map(|&(idx, ref w)| {
                let t0 = idx as f64 * width_s;
                Json::obj([
                    ("experiment", experiment.into()),
                    ("run", run.into()),
                    ("link", link.into()),
                    ("t0_s", Json::Num(t0)),
                    ("t1_s", Json::Num(t0 + width_s)),
                    ("tx", w.tx.into()),
                    ("retx", w.retx.into()),
                    ("delivered", w.delivered.into()),
                    ("throughput_fps", Json::Num(w.delivered as f64 / width_s)),
                    ("naks", w.naks.into()),
                    ("releases", w.releases.into()),
                    ("outstanding_hwm", w.outstanding_hwm.into()),
                    ("retx_in_flight_hwm", w.retx_in_flight_hwm.into()),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Feed one record per stamp (ns): a transmission, plus the record's
    /// position as NAKs so merged windows show which records they took.
    fn feed(s: &mut LinkSeries, stamps: &[u64]) {
        for (k, &ns) in stamps.iter().enumerate() {
            let w = s.at(Instant::from_nanos(ns));
            w.tx += 1;
            w.naks += k as u64;
        }
    }

    /// The same records through an ordered map keyed by window index,
    /// the structure the cached window replaced: the oracle.
    fn map_lines(width: Duration, stamps: &[u64]) -> Vec<Json> {
        let mut map: BTreeMap<u64, WindowAcc> = BTreeMap::new();
        for (k, &ns) in stamps.iter().enumerate() {
            let w = map.entry(ns / width.as_nanos()).or_default();
            w.tx += 1;
            w.naks += k as u64;
        }
        let windows: Vec<(u64, WindowAcc)> = map.into_iter().collect();
        LinkSeries::new(width).render_lines(windows.iter(), "e1", 0, "l")
    }

    fn series_lines(width: Duration, stamps: &[u64]) -> Vec<Json> {
        let mut s = LinkSeries::new(width);
        feed(&mut s, stamps);
        let peeked = s.peek_lines("e1", 0, "l");
        let drained = s.drain_lines("e1", 0, "l");
        assert_eq!(peeked, drained);
        drained
    }

    #[test]
    fn a_record_on_a_window_boundary_opens_the_next_window() {
        let width = Duration::from_millis(10);
        let ms = 1_000_000;
        let stamps = [0, 10 * ms - 1, 10 * ms, 20 * ms, 20 * ms, 30 * ms - 1];
        let lines = series_lines(width, &stamps);
        assert_eq!(lines, map_lines(width, &stamps));
        let tx: Vec<f64> = lines.iter().filter_map(|l| l.get("tx")?.as_f64()).collect();
        assert_eq!(tx, vec![2.0, 1.0, 3.0]);
        // The last window of the clock, whose end does not fit in a u64.
        let stamps = [u64::MAX - 1, u64::MAX, 0, u64::MAX];
        assert_eq!(series_lines(width, &stamps), map_lines(width, &stamps));
    }

    #[test]
    fn a_rewound_record_lands_in_its_earlier_window() {
        let width = Duration::from_millis(10);
        let ms = 1_000_000;
        // Window 3, then 1 (new, before the newest), 3 again, 0 (new),
        // 1 again (existing), and 4 (new, after the newest).
        let stamps = [35 * ms, 12 * ms, 37 * ms, 3 * ms, 12 * ms, 45 * ms];
        let lines = series_lines(width, &stamps);
        assert_eq!(lines, map_lines(width, &stamps));
        let t0: Vec<f64> = lines
            .iter()
            .filter_map(|l| l.get("t0_s")?.as_f64())
            .collect();
        assert_eq!(t0, vec![0.0, 0.01, 0.03, 0.04], "index order");
        // A drained series starts over: the cached window is gone too.
        let mut s = LinkSeries::new(width);
        feed(&mut s, &stamps);
        s.drain_lines("e1", 0, "l");
        feed(&mut s, &[5 * ms]);
        assert_eq!(s.drain_lines("e1", 0, "l"), map_lines(width, &[5 * ms]));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn series_matches_the_ordered_map(
            stamps in proptest::collection::vec(0u64..80, 1..60),
            width_ms in 1u64..12,
        ) {
            // Mostly forward in time, with rewinds and equal stamps.
            let stamps: Vec<u64> = stamps.iter().map(|&ms| ms * 1_000_000).collect();
            let width = Duration::from_millis(width_ms);
            prop_assert_eq!(series_lines(width, &stamps), map_lines(width, &stamps));
        }
    }

    #[test]
    fn events_land_in_their_window() {
        let mut s = LinkSeries::new(Duration::from_millis(10));
        s.at(Instant::from_millis(3)).tx += 1;
        s.at(Instant::from_millis(9)).tx += 1;
        s.at(Instant::from_millis(10)).tx += 1; // next window
        let lines = s.drain_lines("e1", 0, "");
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("tx").and_then(Json::as_f64), Some(2.0));
        assert_eq!(lines[1].get("tx").and_then(Json::as_f64), Some(1.0));
        assert_eq!(lines[1].get("t0_s").and_then(Json::as_f64), Some(0.01));
        assert!(s.is_empty(), "drain resets the series");
    }

    #[test]
    fn throughput_is_per_second() {
        let mut s = LinkSeries::new(Duration::from_millis(100));
        s.at(Instant::from_millis(50)).delivered = 25;
        let lines = s.drain_lines("e2", 3, "a2b");
        assert_eq!(
            lines[0].get("throughput_fps").and_then(Json::as_f64),
            Some(250.0)
        );
        assert_eq!(lines[0].get("run").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn peek_does_not_drain() {
        let mut s = LinkSeries::new(Duration::from_millis(10));
        s.at(Instant::from_millis(3)).tx += 1;
        let peeked = s.peek_lines("e1", 0, "");
        assert_eq!(peeked.len(), 1);
        assert_eq!(s.len(), 1, "peek leaves the series intact");
        assert_eq!(s.drain_lines("e1", 0, ""), peeked, "same line shape");
    }

    #[test]
    fn zero_width_falls_back_to_default() {
        let mut s = LinkSeries::new(Duration::ZERO);
        s.at(Instant::from_millis(150)).naks += 1;
        assert_eq!(s.len(), 1);
    }
}
