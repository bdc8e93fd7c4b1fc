//! Wafer-scale throughput campaign: streams a full lot of dies through
//! the multi-site DSV engine and reports trips/sec, per-core throughput
//! and the memory high-water mark — the numbers `cichar-report diff
//! --gate` ratchets in CI.
//!
//! ```text
//! cargo run --release -p cichar-bench --bin repro_wafer
//! cargo run --release -p cichar-bench --bin repro_wafer -- --sites 8 --threads 4
//! cargo run --release -p cichar-bench --bin repro_wafer -- --dies 640 --manifest out.json
//! cargo run --release -p cichar-bench --bin repro_wafer -- --fault-rate 0.02 --retries 4
//! cargo run --release -p cichar-bench --bin repro_wafer -- --journal /tmp/j --chunk-timeout-ms 250
//! cargo run --release -p cichar-bench --bin repro_wafer -- --journal /tmp/j --chunk-timeout-ms 250 --resume
//! cargo run --release -p cichar-bench --bin repro_wafer -- --device logic
//! cargo run --release -p cichar-bench --bin repro_wafer -- --telemetry tele --heartbeat-every 10
//! CICHAR_SCALE=full cargo run --release -p cichar-bench --bin repro_wafer
//! ```
//!
//! The campaign shape comes from `CICHAR_SCALE` (`quick`: 96 dies × 4
//! tests; `full`: 2000 × 50 — the ROADMAP's 10^5 searches); `--dies N`
//! overrides the die count.
//!
//! `--resume` repeats the flags of the run it resumes. Everything that
//! shapes the results (scale, dies, sites, device, faults, watchdog and
//! breaker) is in the journal's fingerprint, and a journal of another
//! campaign is refused with status 1; `--threads` may differ.

use cichar_ate::{AteConfig, MeasuredParam};
use cichar_bench::{Cli, Flags};
use cichar_core::dsv::SearchStrategy;
use cichar_core::journal::ResumeStats;
use cichar_core::wafer::{WaferConfig, WaferRunner};
use cichar_dut::Lot;
use cichar_patterns::{random, Test, TestConditions};
use cichar_trace::{RecoverySection, RunManifest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global allocator wrapper counting allocation calls so the manifest can
/// record allocator calls per finished trip-point search — the number the
/// `--max-allocs-per-trip-growth-pct` gate ratchets. Binary crate roots
/// sit outside the library's `forbid(unsafe_code)`; the unsafety is
/// confined to delegating to `System`.
struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    let cli = Cli::parse(&[
        Flags::Threads,
        Flags::Faults,
        Flags::TraceOutputs,
        Flags::Sites,
        Flags::Durability,
        Flags::Device,
        Flags::Telemetry,
        Flags::Dies,
    ]);
    let (scale, policy) = (cli.scale, cli.policy);
    let (tracer, telemetry) = cli.observe("wafer");

    let (default_dies, tests_per_die) = scale.wafer_shape();
    let die_count = cli.dies.unwrap_or(default_dies);

    // The default memory path samples dies and tests from one sequential
    // RNG stream — the historical, baseline-gated order. Other backends
    // sample dies through their own process model (index-seeded, so the
    // test stream below is unaffected).
    let mut rng = StdRng::seed_from_u64(scale.seed());
    let dies = if cli.default_device {
        Lot::default().sample_dies(&mut rng, die_count)
    } else {
        cli.device.sample_dies(scale.seed(), die_count)
    };
    let tests: Vec<Test> = (0..tests_per_die)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();

    let config = AteConfig {
        faults: cli.faults,
        ..AteConfig::default()
    };
    let mut wafer = WaferRunner::new(MeasuredParam::DataValidTime)
        .with_device(cli.device.clone())
        .with_config(WaferConfig {
            sites: cli.sites,
            journal_dir: cli.journal.clone(),
            chunk_timeout_ms: cli.chunk_timeout_ms,
            site_fault_threshold: cli.site_fault_threshold,
            ..WaferConfig::default()
        });
    if let Some(policy) = cli.recovery {
        wafer = wafer.with_recovery(policy);
    }
    wafer = wafer.with_telemetry(telemetry.clone());

    tracer.phase("wafer");
    ALLOC_CALLS.store(0, Ordering::Relaxed);
    let started = std::time::Instant::now();
    let strategy = SearchStrategy::SearchUntilTrip;
    let (report, ledger, resume_stats) = if cli.resume {
        match wafer.resume_traced(&config, &dies, &tests, strategy, policy, &tracer) {
            Ok((report, ledger, stats)) => (report, ledger, Some(stats)),
            Err(err) => {
                eprintln!("error: resume failed: {err}");
                std::process::exit(1);
            }
        }
    } else {
        match wafer.run_traced(&config, &dies, &tests, strategy, policy, &tracer) {
            Ok((report, ledger)) => (report, ledger, None),
            Err(err) => {
                eprintln!("error: campaign failed: {err}");
                std::process::exit(1);
            }
        }
    };
    let elapsed = started.elapsed();
    let alloc_calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let health = cli.finish(&telemetry);

    let searches = report.dies * report.tests;
    let trips_per_sec = searches as f64 / elapsed.as_secs_f64().max(1e-9);
    let allocs_per_trip = (searches > 0).then(|| alloc_calls as f64 / searches as f64);
    println!(
        "== Wafer-scale throughput: {} dies x {} tests ({} sites, {} threads) ==\n",
        report.dies,
        report.tests,
        report.sites,
        policy.threads()
    );
    let agg = &report.aggregate;
    println!("  searches:          {searches} ({} converged, {} quarantined, {} recovered)",
        agg.converged, agg.quarantined, agg.recovered);
    if let (Some(min), Some(max)) = (agg.min, agg.max) {
        println!("  trip point range:  [{min:.3}, {max:.3}] ns");
        println!(
            "  percentiles:       p50 {:.2}  p90 {:.2}  p99 {:.2} (±{:.2} ns sketch)",
            agg.quantile(0.50).unwrap_or(f64::NAN),
            agg.quantile(0.90).unwrap_or(f64::NAN),
            agg.quantile(0.99).unwrap_or(f64::NAN),
            agg.sketch.resolution()
        );
    }
    println!(
        "  touchdowns:        {} ({} contact faults)",
        report.touchdowns, report.contact_faults
    );
    if let Some(stats) = &resume_stats {
        println!(
            "  resumed:           {}/{} chunks replayed ({} touchdowns, {} entries)",
            stats.chunks_replayed,
            stats.chunks_total,
            stats.touchdowns_replayed,
            stats.entries_replayed
        );
    }
    if report.timeouts > 0 || !report.quarantined_sites.is_empty() {
        println!(
            "  self-healing:      {} watchdog timeouts, sites quarantined: {:?}",
            report.timeouts, report.quarantined_sites
        );
    }
    println!(
        "  throughput:        {trips_per_sec:.1} trips/s ({:.1} trips/s per core)",
        trips_per_sec / policy.threads() as f64
    );
    if let Some(allocs) = allocs_per_trip {
        println!("  allocation economy: {allocs:.2} allocator calls/trip");
    }
    if let (Some(dir), Some(health)) = (telemetry.dir(), &health) {
        println!(
            "  telemetry:         {} heartbeats, {} alarms raised -> {}",
            health.heartbeats,
            health.alarms_raised,
            dir.display()
        );
    }
    println!("\n{ledger}");

    cli.commit(&tracer, health, || {
        let mut manifest = RunManifest::new("wafer", scale.seed(), policy.threads())
            .with_config("scale", format!("{scale:?}"))
            .with_config("dies", report.dies)
            .with_config("tests", report.tests)
            .with_config("sites", report.sites)
            .with_config("strategy", "search_until_trip")
            .with_config("fault_rate", cli.faults.flip_rate());
        if let (Some(min), Some(max)) = (agg.min, agg.max) {
            manifest = manifest.with_config("trip_min", min).with_config("trip_max", max);
        }
        manifest.allocs_per_trip = allocs_per_trip;
        if cli.journal.is_some() {
            let stats = resume_stats.unwrap_or_else(|| ResumeStats {
                chunks_total: report
                    .touchdowns
                    .div_ceil(wafer.config().chunk_touchdowns.max(1) as u64),
                ..ResumeStats::default()
            });
            manifest.recovery = Some(RecoverySection {
                resumed: cli.resume,
                chunks_replayed: stats.chunks_replayed,
                chunks_total: stats.chunks_total,
                touchdowns_replayed: stats.touchdowns_replayed,
                entries_replayed: stats.entries_replayed,
                watchdog_timeouts: report.timeouts,
                breaker_trips: report.quarantined_sites.len() as u64,
                quarantined_sites: report.quarantined_sites.clone(),
            });
        }
        manifest
    });
}
