//! Every metric the benchmark emits: name, unit, and — for per-layer
//! metrics — the end-to-end metric and workload it is predicted to move.
//! `BENCHMARK.json` at the repository root lists the same names.

/// The workloads; `NOTES.md` says why each exists and which layer it
/// isolates, and `BENCHMARK.json` says it in one line.
pub const WORKLOADS: &[&str] = &["wafer_lot", "wafer_recover", "table1_hunt"];

/// An end-to-end metric: what a user of the campaign sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric a change to this layer moves.
    pub moves: &'static str,
    /// The workload on which it moves it (`all` for every workload).
    pub on: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// End-to-end metrics, printed with `--trace 0` on every workload.
/// Host-time metrics are medians of in-process repetitions; the rest are
/// simulated or counted and repeat exactly for a seed.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("campaign_s", "s", "lower", 0.25),
    e2e("trips_per_s", "1/s", "higher", 0.25),
    e2e("tester_ms_per_trip", "ms", "lower", 0.25),
    e2e("probes_per_trip", "count", "lower", 0.25),
    e2e("allocs_per_trip", "count", "lower", 0.15),
    e2e("peak_alloc_mib", "MiB", "lower", 0.15),
    e2e("worst_wcr", "ratio", "higher", 0.25),
    e2e("settled_share", "ratio", "higher", 0.05),
];

/// Per-layer metrics, printed with `--trace 1` on every workload (zero
/// where the workload does not reach the layer).
pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "dut.evals_per_trip",
        "count",
        "lower",
        "trips_per_s",
        "wafer_lot",
    ),
    layer("dut.ns_per_eval", "ns", "lower", "trips_per_s", "wafer_lot"),
    layer(
        "dut.prepares_per_trip",
        "count",
        "lower",
        "trips_per_s",
        "wafer_recover",
    ),
    layer("dut.share", "ratio", "lower", "trips_per_s", "wafer_lot"),
    layer(
        "ate.strobes_per_trip",
        "count",
        "lower",
        "tester_ms_per_trip",
        "all",
    ),
    layer(
        "ate.ns_per_strobe",
        "ns",
        "lower",
        "trips_per_s",
        "wafer_lot",
    ),
    layer("ate.share", "ratio", "lower", "trips_per_s", "wafer_lot"),
    layer(
        "search.ns_per_trip",
        "ns",
        "lower",
        "trips_per_s",
        "wafer_lot",
    ),
    layer(
        "search.speculative_share",
        "ratio",
        "lower",
        "probes_per_trip",
        "wafer_recover",
    ),
    layer(
        "search.retries_per_trip",
        "count",
        "lower",
        "tester_ms_per_trip",
        "wafer_recover",
    ),
    layer(
        "search.recovered_share",
        "ratio",
        "lower",
        "probes_per_trip",
        "wafer_recover",
    ),
    layer("search.share", "ratio", "lower", "trips_per_s", "wafer_lot"),
    layer(
        "wafer.ns_per_touchdown_fold",
        "ns",
        "lower",
        "trips_per_s",
        "wafer_lot",
    ),
    layer("wafer.share", "ratio", "lower", "trips_per_s", "wafer_lot"),
    layer(
        "exec.parallel_efficiency",
        "ratio",
        "higher",
        "trips_per_s",
        "wafer_recover",
    ),
    layer(
        "journal.bytes_per_chunk",
        "bytes",
        "lower",
        "allocs_per_trip",
        "wafer_recover",
    ),
    layer(
        "journal.commit_ms_per_chunk",
        "ms",
        "lower",
        "campaign_s",
        "wafer_recover",
    ),
    layer(
        "journal.load_ms_per_chunk",
        "ms",
        "lower",
        "campaign_s",
        "wafer_recover",
    ),
    layer(
        "journal.share",
        "ratio",
        "lower",
        "campaign_s",
        "wafer_recover",
    ),
    layer(
        "trace.events_per_trip",
        "count",
        "lower",
        "allocs_per_trip",
        "wafer_recover",
    ),
    layer(
        "trace.heartbeats",
        "count",
        "lower",
        "trips_per_s",
        "wafer_recover",
    ),
    layer(
        "trace.share",
        "ratio",
        "lower",
        "trips_per_s",
        "wafer_recover",
    ),
    layer(
        "neural.epochs",
        "count",
        "lower",
        "campaign_s",
        "table1_hunt",
    ),
    layer(
        "neural.ns_per_sample_epoch",
        "ns",
        "lower",
        "campaign_s",
        "table1_hunt",
    ),
    layer(
        "neural.share",
        "ratio",
        "lower",
        "campaign_s",
        "table1_hunt",
    ),
    layer(
        "genetic.fitness_evals",
        "count",
        "lower",
        "campaign_s",
        "table1_hunt",
    ),
    layer(
        "genetic.ns_per_eval",
        "ns",
        "lower",
        "campaign_s",
        "table1_hunt",
    ),
    layer(
        "genetic.share",
        "ratio",
        "lower",
        "campaign_s",
        "table1_hunt",
    ),
    layer(
        "bench.unexplained_share",
        "ratio",
        "lower",
        "campaign_s",
        "all",
    ),
    layer(
        "bench.tracing_overhead",
        "ratio",
        "lower",
        "campaign_s",
        "all",
    ),
];

/// The unit of a metric name, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}
