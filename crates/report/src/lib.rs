//! Trace analytics for characterization campaigns.
//!
//! The tracing layer (`cichar-trace`) writes two artifacts per campaign:
//! a JSONL event stream and a JSON run manifest. This crate turns those
//! artifacts into answers:
//!
//! - [`analysis`] — the trace-query engine: per-search probe anatomy,
//!   STP step distributions split by eq. 3 / eq. 4 walk orientation,
//!   cache-hit ratios, the retry → vote → quarantine recovery funnel,
//!   and GA / committee convergence, from one pass over the stream.
//! - [`perfetto`] — Chrome trace-event export, loadable in Perfetto or
//!   `chrome://tracing`, with phases and per-test searches as slices.
//! - [`diff`] — manifest comparison with a regression gate for CI:
//!   probe budget, quarantine rate, optional wall time, and trip-point
//!   extrema, each with a configurable threshold.
//! - [`watch`] — the live campaign follower: reads the telemetry
//!   sidecars (`heartbeat.jsonl`, `metrics.prom`) and renders a
//!   progress/health table.
//!
//! The `cichar-report` binary wraps all four as `summarize`,
//! `perfetto`, `diff` and `watch` subcommands.

pub mod analysis;
pub mod diff;
pub mod perfetto;
pub mod watch;

pub use analysis::{GaGeneration, PhaseSlice, SearchAnatomy, Stats, TraceAnalysis};
pub use diff::{DiffRow, GateConfig, ManifestDiff};
pub use perfetto::{chrome_trace_from_jsonl, to_chrome_trace, validate_chrome_trace};
pub use watch::{latest_heartbeat, read_watch_view, render_watch, WatchView};
