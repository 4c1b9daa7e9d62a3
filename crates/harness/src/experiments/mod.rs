//! The experiment suite: one module per paper artifact.
//!
//! Each experiment regenerates one table or figure from the paper's
//! evaluation (DESIGN.md §3 maps ids to paper artifacts) and, where the
//! artifact is analytic, validates the closed-form expression against a
//! discrete-event simulation of the actual protocols.
//!
//! Every module exposes `run(quick) -> ExperimentOutput`; `quick` shrinks
//! the workloads for CI. The `repro` binary prints any subset.

pub mod e01_retransmission;
pub mod e02_throughput_vs_traffic;
pub mod e03_throughput_vs_ber;
pub mod e04_throughput_vs_distance;
pub mod e05_buffer_occupancy;
pub mod e06_holding_time;
pub mod e07_low_traffic_delivery;
pub mod e08_burst_errors;
pub mod e09_enforced_recovery;
pub mod e10_numbering;
pub mod e11_flow_control;
pub mod e12_ablation;
pub mod e13_relay_chain;
pub mod e14_frame_size;
pub mod e15_duplex;
pub mod e16_delay_load;
pub mod e17_gbn;
pub mod e18_long_chain;

use crate::report::Table;
use sim_core::stats::Series;
use telemetry::Json;

/// The product of one experiment.
pub struct ExperimentOutput {
    /// Experiment id ("E1".."E12").
    pub id: &'static str,
    /// Human title (paper artifact).
    pub title: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Result traces.
    pub traces: Vec<Series>,
    /// Interpretation notes (expected shape, caveats).
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Render everything as text.
    pub fn render(&self) -> String {
        let mut out = format!("==== {}: {} ====\n\n", self.id, self.title);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for s in &self.traces {
            out.push_str(&crate::report::render_series(s, 48));
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("notes:\n");
            for n in &self.notes {
                out.push_str("  - ");
                out.push_str(n);
                out.push('\n');
            }
        }
        out
    }

    /// Machine-readable form:
    /// `{"id", "title", "tables": [...], "traces": [...], "notes": [str]}`
    /// (tables per [`Table::to_json`], traces per
    /// [`crate::report::series_json`], decimated to ≤ 512 points).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("title", Json::from(self.title.as_str())),
            (
                "tables",
                Json::from(self.tables.iter().map(Table::to_json).collect::<Vec<_>>()),
            ),
            (
                "traces",
                Json::from(
                    self.traces
                        .iter()
                        .map(|s| crate::report::series_json(s, 512))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "notes",
                Json::from(
                    self.notes
                        .iter()
                        .map(|n| Json::from(n.as_str()))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }
}

/// All experiment ids in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18",
];

/// Run one experiment by id ("e1".."e12"), or `None` if unknown.
pub fn run_by_id(id: &str, quick: bool) -> Option<ExperimentOutput> {
    Some(match id.to_ascii_lowercase().as_str() {
        "e1" => e01_retransmission::run(quick),
        "e2" => e02_throughput_vs_traffic::run(quick),
        "e3" => e03_throughput_vs_ber::run(quick),
        "e4" => e04_throughput_vs_distance::run(quick),
        "e5" => e05_buffer_occupancy::run(quick),
        "e6" => e06_holding_time::run(quick),
        "e7" => e07_low_traffic_delivery::run(quick),
        "e8" => e08_burst_errors::run(quick),
        "e9" => e09_enforced_recovery::run(quick),
        "e10" => e10_numbering::run(quick),
        "e11" => e11_flow_control::run(quick),
        "e12" => e12_ablation::run(quick),
        "e13" => e13_relay_chain::run(quick),
        "e14" => e14_frame_size::run(quick),
        "e15" => e15_duplex::run(quick),
        "e16" => e16_delay_load::run(quick),
        "e17" => e17_gbn::run(quick),
        "e18" => e18_long_chain::run(quick),
        _ => return None,
    })
}
