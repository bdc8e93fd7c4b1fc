//! Criterion bench `wafer_scale`: wafer-lot DSV throughput and memory
//! economy, emitting `BENCH_wafer_scale.json`.
//!
//! ```text
//! cargo bench -p cichar-bench --bench wafer_scale            # full run
//! cargo bench -p cichar-bench --bench wafer_scale -- --test  # CI smoke
//! ```
//!
//! Measures the streaming wafer engine on a 10^5-search lot:
//!
//! - trips/sec and trips/sec-per-core at 1, 4 and 8 worker threads;
//! - allocations per trip of the streaming pipeline vs a materializing
//!   baseline (one `DsvReport` per die, all held until the end);
//! - peak *allocated* bytes (a counting global allocator's high-water
//!   mark, resettable per phase — unlike the process RSS, which only
//!   grows) at N and 2N dies, proving the streaming peak is sub-linear
//!   in die count;
//! - the process-level `VmHWM` for the record.
//!
//! Correctness gates run before anything is timed (and are all `--test`
//! runs): the streamed aggregate is bit-identical across thread counts
//! and site groupings, and matches the materializing baseline exactly.

use cichar_ate::{Ate, AteConfig, MeasuredParam};
use cichar_core::dsv::{MultiTripRunner, SearchStrategy};
use cichar_core::stream::TripAggregate;
use cichar_core::wafer::{WaferConfig, WaferReport, WaferRunner};
use cichar_dut::{Die, Lot, MemoryDevice};
use cichar_exec::ExecPolicy;
use cichar_patterns::{random, Test, TestConditions};
use cichar_trace::Tracer;
use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Global allocator wrapper counting allocation calls and tracking the
/// live-bytes high-water mark. The bench crate's benches are separate
/// crate roots, so the library's `forbid(unsafe_code)` does not apply
/// here; the unsafety is confined to delegating to `System`.
struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Resets the call counter and rebases the high-water mark onto the
/// current live size; returns the rebased baseline.
fn reset_alloc_tracking() -> usize {
    ALLOC_CALLS.store(0, Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// `(allocation calls, peak bytes above `baseline`)` since the last reset.
fn alloc_tracking_since(baseline: usize) -> (u64, usize) {
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let peak = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline);
    (calls, peak)
}

const SITES: usize = 8;
const TESTS_PER_DIE: usize = 4;

#[derive(Serialize)]
struct BenchRecord {
    id: String,
    mean_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
}

#[derive(Serialize)]
struct Throughput {
    threads: usize,
    trips_per_sec: f64,
    trips_per_sec_per_core: f64,
}

#[derive(Serialize)]
struct WaferScaleReport {
    bench: &'static str,
    dies: usize,
    tests_per_die: usize,
    searches: usize,
    sites: usize,
    hardware_threads: usize,
    throughput: Vec<Throughput>,
    allocations_per_trip_streaming: f64,
    allocations_per_trip_materializing: f64,
    alloc_saving_pct: f64,
    peak_alloc_bytes_streaming: usize,
    peak_alloc_bytes_streaming_2x_dies: usize,
    peak_alloc_bytes_materializing: usize,
    /// Peak allocated bytes at 2N dies over peak at N dies; the streaming
    /// acceptance bar is sub-linear (ratio well under 2.0).
    peak_growth_ratio_2x_dies: f64,
    peak_rss_bytes: Option<u64>,
    bit_identical_across_thread_counts: bool,
    invariant_under_site_grouping: bool,
    matches_materializing_baseline: bool,
    results: Vec<BenchRecord>,
    note: String,
}

fn workload(dies: usize) -> (Vec<Die>, Vec<Test>) {
    let mut rng = StdRng::seed_from_u64(0x57AF_0001);
    let dies = Lot::default().sample_dies(&mut rng, dies);
    let tests = (0..TESTS_PER_DIE)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    (dies, tests)
}

fn runner(sites: usize, contact_check: bool) -> WaferRunner {
    WaferRunner::new(MeasuredParam::DataValidTime).with_config(WaferConfig {
        sites,
        contact_check,
        ..WaferConfig::default()
    })
}

fn stream(r: &WaferRunner, dies: &[Die], tests: &[Test], policy: ExecPolicy) -> WaferReport {
    r.run(
        &AteConfig::default(),
        dies,
        tests,
        SearchStrategy::SearchUntilTrip,
        policy,
    )
    .expect("no journal configured, no I/O to fail")
    .0
}

/// The pre-wafer baseline: one independent session per die, every
/// per-die `DsvReport` (entry vectors, per-entry test-name strings)
/// held until the whole lot is done, then folded.
fn materialize(dies: &[Die], tests: &[Test]) -> TripAggregate {
    let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
    let config = AteConfig::default();
    let reports: Vec<_> = dies
        .iter()
        .enumerate()
        .map(|(i, die)| {
            let mut ate = Ate::with_config(
                MemoryDevice::new(*die),
                AteConfig {
                    seed: cichar_exec::derive_seed(config.seed, i as u64),
                    ..config.clone()
                },
            );
            runner.run(
                &mut ate,
                tests,
                SearchStrategy::SearchUntilTrip,
                &Tracer::disabled(),
            )
        })
        .collect();
    let range = MeasuredParam::DataValidTime.generous_range();
    let mut aggregate = TripAggregate::new(range.start(), range.end(), 256);
    for report in &reports {
        for entry in &report.entries {
            aggregate.observe(entry.trip_point, &entry.status);
        }
    }
    aggregate
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let dies_n = if smoke { 600 } else { 25_000 };
    let (dies, tests) = workload(dies_n * 2);
    let (half, double) = (&dies[..dies_n], &dies[..]);
    let searches = dies_n * TESTS_PER_DIE;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ---- correctness gates (untimed) ----
    // Thread counts must not change a bit of the report.
    let gated = runner(SITES, true);
    let serial = stream(&gated, half, &tests, ExecPolicy::serial());
    let eight = stream(&gated, half, &tests, ExecPolicy::with_threads(8));
    assert_eq!(serial, eight, "streamed wafer must be bit-identical at 8 threads");
    // Touchdown grouping must not either (contact check off so sites=1
    // and sites=8 issue identical probe streams per die).
    let solo = stream(&runner(1, false), half, &tests, ExecPolicy::serial());
    let wide = stream(&runner(SITES, false), half, &tests, ExecPolicy::with_threads(4));
    assert_eq!(
        solo.aggregate, wide.aggregate,
        "site grouping must not change the aggregate"
    );
    // And the streamed aggregate must equal the materializing fold.
    let materialized = materialize(half, &tests);
    assert_eq!(
        solo.aggregate, materialized,
        "streaming must match the materializing baseline bit-for-bit"
    );

    // ---- allocation economy (untimed, serial for determinism) ----
    let quiet = runner(SITES, false);
    let baseline = reset_alloc_tracking();
    let report_n = stream(&quiet, half, &tests, ExecPolicy::serial());
    let (stream_calls, stream_peak) = alloc_tracking_since(baseline);

    // Allocation accounting must itself be deterministic: the identical
    // serial lot re-run in the same process performs exactly the same
    // allocator calls (every campaign builds its own prepared tests and
    // scratch arenas, so no warm-buffer state carries over between runs).
    // A drift here means a code path allocates data-dependently on
    // something other than the seeded workload — which would make the
    // manifest's allocs_per_trip gate flaky.
    let baseline = reset_alloc_tracking();
    let report_rerun = stream(&quiet, half, &tests, ExecPolicy::serial());
    let (rerun_calls, _) = alloc_tracking_since(baseline);
    assert_eq!(report_n, report_rerun, "serial re-run must reproduce the report");
    assert_eq!(
        stream_calls, rerun_calls,
        "allocation accounting must be deterministic across identical serial runs"
    );

    let baseline = reset_alloc_tracking();
    let report_2n = stream(&quiet, double, &tests, ExecPolicy::serial());
    let (_, stream_peak_2n) = alloc_tracking_since(baseline);

    let baseline = reset_alloc_tracking();
    let mat_aggregate = materialize(half, &tests);
    let (mat_calls, mat_peak) = alloc_tracking_since(baseline);
    assert_eq!(report_n.aggregate.entries + report_2n.aggregate.entries, (searches * 3) as u64);
    black_box(&mat_aggregate);

    let allocations_per_trip_streaming = stream_calls as f64 / searches as f64;
    let allocations_per_trip_materializing = mat_calls as f64 / searches as f64;
    let alloc_saving_pct =
        100.0 * (1.0 - allocations_per_trip_streaming / allocations_per_trip_materializing);
    let peak_growth_ratio_2x_dies = stream_peak_2n as f64 / stream_peak.max(1) as f64;
    assert!(
        allocations_per_trip_streaming < allocations_per_trip_materializing,
        "streaming must allocate less per trip: {allocations_per_trip_streaming:.1} vs \
         {allocations_per_trip_materializing:.1}"
    );
    assert!(
        peak_growth_ratio_2x_dies < 1.6,
        "streaming peak memory must be sub-linear in die count: \
         {stream_peak} bytes at {dies_n} dies vs {stream_peak_2n} at {}",
        dies_n * 2
    );
    println!(
        "allocs/trip: streaming {allocations_per_trip_streaming:.1} vs materializing \
         {allocations_per_trip_materializing:.1} ({alloc_saving_pct:.1}% saving); \
         peak alloc {:.2} MiB at {dies_n} dies -> {:.2} MiB at {} dies ({peak_growth_ratio_2x_dies:.2}x)",
        stream_peak as f64 / (1 << 20) as f64,
        stream_peak_2n as f64 / (1 << 20) as f64,
        dies_n * 2
    );
    if smoke {
        println!("wafer_scale smoke: determinism, grouping and memory gates passed");
        return;
    }

    // ---- wall-clock throughput at 1 / 4 / 8 threads ----
    let timed = runner(SITES, true);
    let mut criterion = Criterion::default();
    {
        let mut group = criterion.benchmark_group("wafer_scale");
        group.sample_size(3);
        for threads in [1usize, 4, 8] {
            let policy = if threads == 1 {
                ExecPolicy::serial()
            } else {
                ExecPolicy::with_threads(threads)
            };
            group.bench_function(&format!("stream_{threads}_threads"), |b| {
                b.iter(|| black_box(stream(&timed, black_box(half), &tests, policy)));
            });
        }
        group.bench_function("materialize_1_thread", |b| {
            b.iter(|| black_box(materialize(black_box(half), &tests)));
        });
        group.finish();
    }
    criterion.final_summary();

    let results: Vec<BenchRecord> = criterion
        .results()
        .iter()
        .map(|r| BenchRecord {
            id: r.id.clone(),
            mean_ns: r.mean_ns,
            min_ns: r.min_ns,
            max_ns: r.max_ns,
            samples: r.samples,
        })
        .collect();
    let throughput: Vec<Throughput> = [1usize, 4, 8]
        .iter()
        .map(|&threads| {
            let mean_ns = results
                .iter()
                .find(|r| r.id.ends_with(&format!("stream_{threads}_threads")))
                .expect("measured")
                .mean_ns;
            let trips_per_sec = searches as f64 / (mean_ns * 1e-9);
            Throughput {
                threads,
                trips_per_sec,
                trips_per_sec_per_core: trips_per_sec / threads as f64,
            }
        })
        .collect();

    let report = WaferScaleReport {
        bench: "wafer_scale",
        dies: dies_n,
        tests_per_die: TESTS_PER_DIE,
        searches,
        sites: SITES,
        hardware_threads,
        throughput,
        allocations_per_trip_streaming,
        allocations_per_trip_materializing,
        alloc_saving_pct,
        peak_alloc_bytes_streaming: stream_peak,
        peak_alloc_bytes_streaming_2x_dies: stream_peak_2n,
        peak_alloc_bytes_materializing: mat_peak,
        peak_growth_ratio_2x_dies,
        peak_rss_bytes: cichar_trace::peak_rss_bytes(),
        bit_identical_across_thread_counts: true,
        invariant_under_site_grouping: true,
        matches_materializing_baseline: true,
        results,
        note: format!(
            "{dies_n} dies x {TESTS_PER_DIE} random tests per die \
             (search-until-trip-point, {SITES}-site touchdowns, contact \
             checks on for timing; off for the materializing-equality gate, \
             which has no contact strobes). The materializing baseline holds \
             one DsvReport per die until the lot finishes; the streaming \
             engine folds each chunk into the incremental aggregate and \
             drops it, so its allocation peak stays flat as the lot doubles. \
             trips/sec-per-core divides by worker threads — on a \
             {hardware_threads}-hardware-thread host, widths beyond that \
             measure scheduling overhead, not speedup."
        ),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wafer_scale.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_wafer_scale.json");
    println!("wrote {path}");
}
