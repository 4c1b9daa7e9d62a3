//! Measurement collection for simulation experiments.
//!
//! - [`Summary`] — streaming mean/variance/min/max (Welford).
//! - [`nearest_rank`] — the one quantile rule: nearest rank over exact
//!   integer samples, for latency distributions.
//! - [`TimeWeighted`] — time-weighted average of a step function, for queue
//!   and buffer occupancy.
//! - [`Series`] — sampled `(t, value)` trace for plotting-style output.

mod quantile;
mod series;
mod summary;
mod time_weighted;

pub use quantile::nearest_rank;
pub use series::Series;
pub use summary::Summary;
pub use time_weighted::TimeWeighted;
