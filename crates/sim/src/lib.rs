//! # ninja-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the Ninja Migration reproduction. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time;
//! * [`SimRng`] — a platform-stable seeded RNG with forkable streams;
//! * [`Bytes`] / [`Bandwidth`] — data-size and rate units with explicit
//!   bits-vs-bytes semantics;
//! * [`Summary`], [`DurationSamples`], [`Histogram`] —
//!   measurement collectors implementing the paper's "best of three"
//!   methodology;
//! * [`Trace`] — structured phase/event tracing that the benchmark harness
//!   uses to compute overhead breakdowns: spans, and instants (zero-length
//!   spans with `level` and `detail` labels), in one arena layout;
//! * [`SpanRef`] / [`SpanLabels`] / [`LabelValue`] — a recorded span or
//!   instant borrowed from the trace, the handle that labels a new one,
//!   and a label's value (text, or an integer kept as one);
//! * [`MetricsRegistry`] — labeled counters, gauges and histograms with
//!   Prometheus text exposition;
//! * [`TimeSeriesRecorder`] / [`AlertEngine`] — a virtual-time metric
//!   scraper with timestamped exporters, and declarative
//!   threshold/rate/burn alert rules evaluated at each scrape;
//! * [`JsonWriter`] / [`Json`] / [`export`] — a dependency-free
//!   streaming JSON writer and parser used by every exporter and report
//!   in the workspace.
//!
//! Everything in the upper crates (`ninja-net`, `ninja-cluster`,
//! `ninja-vmm`, `ninja-mpi`, `ninja-symvirt`, `ninja-migration`) is built
//! on these primitives, and the whole stack is bit-for-bit reproducible
//! given a scenario seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod export;
pub mod metrics;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod trace;
pub mod units;

pub use alerts::{AlertEngine, AlertIncident, AlertRule};
pub use export::{parse, Json, JsonError, JsonWriter, WriteJson};
pub use metrics::{HistogramMetric, LabelSet, MetricsRegistry, SeriesId};
pub use rng::SimRng;
pub use span::{LabelValue, SpanLabels, SpanRef};
pub use stats::{DurationSamples, Histogram, Summary};
pub use time::{SimDuration, SimTime};
pub use timeseries::{ScrapeSample, SeriesPoint, TimeSeriesRecorder};
pub use trace::{
    critical_paths, spans_from_chrome, MigrationPath, PhaseAttribution, Trace, TraceLevel,
};
pub use units::{Bandwidth, Bytes};
