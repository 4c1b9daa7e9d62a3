//! Per-frame lifecycle records: first send → NAKs → retransmits →
//! delivery → release.

use sim_core::Instant;
use telemetry::Json;

/// The complete history of one user frame on one link, reconstructed
/// from the trace: `Renumbered` events chain successive wire copies of
/// the same buffered SDU into a single lifecycle.
#[derive(Clone, Debug)]
pub struct FrameLifecycle {
    /// Link key (trace-label prefix, `""` for the point-to-point pair).
    pub link: &'static str,
    /// Wire sequence number of the first transmission.
    pub first_seq: u64,
    /// Wire sequence number of the copy that was finally released.
    pub final_seq: u64,
    /// First transmission instant.
    pub first_tx: Instant,
    /// NAKs recorded against any copy of the frame.
    pub naks: u32,
    /// Retransmissions (renumbered copies sent).
    pub retransmits: u32,
    /// First clean arrival at the receiver, if observed.
    pub delivered_at: Option<Instant>,
    /// Sender buffer release instant, if observed.
    pub released_at: Option<Instant>,
}

impl FrameLifecycle {
    /// Delivery latency: first send → first clean arrival, seconds.
    pub fn delivery_latency_s(&self) -> Option<f64> {
        self.delivered_at
            .map(|d| d.saturating_duration_since(self.first_tx).as_secs_f64())
    }

    /// Sender holding time: first send → buffer release, seconds.
    pub fn holding_s(&self) -> Option<f64> {
        self.released_at
            .map(|r| r.saturating_duration_since(self.first_tx).as_secs_f64())
    }

    /// Machine-readable form (one JSONL line in `trace-tools lifecycle`).
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        Json::obj([
            ("link", self.link.into()),
            ("first_seq", self.first_seq.into()),
            ("final_seq", self.final_seq.into()),
            ("first_tx_s", Json::Num(self.first_tx.as_secs_f64())),
            ("naks", u64::from(self.naks).into()),
            ("retransmits", u64::from(self.retransmits).into()),
            ("delivery_latency_s", opt(self.delivery_latency_s())),
            ("holding_s", opt(self.holding_s())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_derive_from_instants() {
        let lc = FrameLifecycle {
            link: "",
            first_seq: 7,
            final_seq: 9,
            first_tx: Instant::from_millis(10),
            naks: 1,
            retransmits: 1,
            delivered_at: Some(Instant::from_millis(25)),
            released_at: Some(Instant::from_millis(40)),
        };
        assert!((lc.delivery_latency_s().unwrap() - 0.015).abs() < 1e-12);
        assert!((lc.holding_s().unwrap() - 0.030).abs() < 1e-12);
        let j = lc.to_json();
        assert_eq!(j.get("final_seq").and_then(Json::as_f64), Some(9.0));
    }

    #[test]
    fn unfinished_lifecycle_serializes_nulls() {
        let lc = FrameLifecycle {
            link: "a2b",
            first_seq: 1,
            final_seq: 1,
            first_tx: Instant::ZERO,
            naks: 0,
            retransmits: 0,
            delivered_at: None,
            released_at: None,
        };
        assert_eq!(lc.delivery_latency_s(), None);
        assert_eq!(lc.to_json().get("holding_s"), Some(&Json::Null));
    }
}
