//! Tracing costs allocations per span, not per event.
//!
//! A counting global allocator (this binary's own, so no other test's
//! allocations land in the counts) counts allocator calls around the
//! quick wafer lot (96 dies, 4 sites, serial) at two test counts per die,
//! run untraced, traced into a `NullSink` and traced into a `JsonlSink`.
//!
//! - Over a sink that keeps nothing, spans only count: the traced lot may
//!   make at most one allocator call per span (the span's shared state)
//!   more than the untraced one, however many events each span emits.
//! - A sink that keeps events buffers them per span and writes each
//!   record through one reused line buffer, so the JSONL-traced lot stays
//!   under a quarter of an allocator call per record.

use cichar::ate::{AteConfig, MeasuredParam, TesterFaultModel};
use cichar::core::dsv::SearchStrategy;
use cichar::core::wafer::{WaferConfig, WaferRunner};
use cichar::dut::{Die, Lot};
use cichar::exec::ExecPolicy;
use cichar::patterns::{random, Test, TestConditions};
use cichar::search::RetryPolicy;
use cichar::trace::{JsonlSink, NullSink, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates to `System` unchanged; the wrapper only
// counts allocations and reallocations.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocator calls `f` makes.
fn calls(f: impl FnOnce()) -> u64 {
    let before = CALLS.load(Ordering::Relaxed);
    f();
    CALLS.load(Ordering::Relaxed) - before
}

const DIES: usize = 96;
const SITES: usize = 4;

fn lot(tests_per_die: usize) -> (Vec<Die>, Vec<Test>) {
    let mut rng = StdRng::seed_from_u64(2005);
    let dies = Lot::default().sample_dies(&mut rng, DIES);
    let tests = (0..tests_per_die)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    (dies, tests)
}

/// Allocator calls of one serial campaign over `tracer`, which is built
/// (and, for a file sink, opened) before the count starts.
fn campaign_calls(dies: &[Die], tests: &[Test], tracer: &Tracer) -> u64 {
    // Faults and a voting retry ladder, so spans carry retries, votes
    // and fault events besides the searches.
    let runner = WaferRunner::new(MeasuredParam::DataValidTime)
        .with_config(WaferConfig {
            sites: SITES,
            ..WaferConfig::default()
        })
        .with_recovery(RetryPolicy::new(3, 50.0).with_vote(2, 3));
    let config = AteConfig {
        faults: TesterFaultModel::transient(0.02, 0.01),
        seed: 5,
        ..AteConfig::default()
    };
    calls(|| {
        runner
            .run_traced(
                &config,
                dies,
                tests,
                SearchStrategy::SearchUntilTrip,
                ExecPolicy::serial(),
                tracer,
            )
            .expect("unjournaled campaigns do no I/O");
    })
}

/// One test, so no other thread of this binary allocates while it counts.
#[test]
fn tracing_allocates_per_span_not_per_event() {
    let dir = std::env::temp_dir().join(format!("cichar_trace_allocs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for tests_per_die in [4, 8] {
        let (dies, tests) = lot(tests_per_die);
        // Warm-up: one-off initialization stays out of the counts.
        campaign_calls(&dies, &tests, &Tracer::disabled());
        let untraced = campaign_calls(&dies, &tests, &Tracer::disabled());

        let counting = Tracer::new(Arc::new(NullSink));
        let counted = campaign_calls(&dies, &tests, &counting);
        let spans = DIES as u64;
        assert!(
            counted <= untraced + spans,
            "{tests_per_die} tests/die: a NullSink-traced lot made {counted} allocator calls, \
             {} more than untraced ({untraced}) over {spans} spans",
            counted.saturating_sub(untraced)
        );
        assert!(
            counting.metrics().probes_resolved > 0,
            "the lot was counted"
        );

        let path = dir.join(format!("lot_{tests_per_die}.jsonl"));
        let keeping = Tracer::new(Arc::new(JsonlSink::create(&path).expect("writable")));
        let kept = campaign_calls(&dies, &tests, &keeping);
        keeping.finish().expect("stream commits");
        let records = std::fs::read_to_string(&path)
            .expect("published")
            .lines()
            .count() as u64;
        // At least a start, a bracket and a finish per search.
        assert!(
            records >= 3 * spans * tests_per_die as u64,
            "{records} records"
        );
        let per_record = kept as f64 / records as f64;
        assert!(
            per_record < 0.25,
            "{tests_per_die} tests/die: a JsonlSink-traced lot made {kept} allocator calls \
             for {records} records ({per_record:.3} per record)"
        );
        assert_eq!(
            keeping.metrics(),
            counting.metrics(),
            "both sinks count alike"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
