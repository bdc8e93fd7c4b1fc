//! A tester session re-prepares its evaluation plan in place.
//!
//! A counting global allocator (this binary's own, so no other test's
//! allocations land in the count) counts allocator calls around 32
//! trip-point searches on one netlist tester session, each test at its
//! own conditions. The session installs a condition-hoisted plan per
//! search; the netlist plan re-hoists in place
//! (`PreparedEvaluator::retarget`), so the session boxes one plan for all
//! 32, and with a scratch sized on another session nothing else in a
//! search allocates.

use cichar::ate::{Ate, AteConfig, MeasuredParam, PreparedTest};
use cichar::dut::{Device, NetlistDevice};
use cichar::patterns::{random, ConditionSpace};
use cichar::search::{SearchScratch, SuccessiveApproximation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

const SEARCHES: usize = 32;

/// One full-range `T_DQ` search per prepared test, on `ate`.
fn search_each(ate: &mut Ate, prepared: &[PreparedTest<'_>], scratch: &mut SearchScratch) {
    let param = MeasuredParam::DataValidTime;
    let full = SuccessiveApproximation::new(param.generous_range(), param.resolution());
    for test in prepared {
        scratch.trace.clear();
        let forces = std::mem::take(&mut scratch.forces);
        let mut oracle = ate.trip_oracle_prepared(test, param, forces);
        let summary = full.run_in(param.region_order(), &mut oracle, scratch);
        assert!(summary.converged, "{} did not converge", test.test().name());
        scratch.forces = oracle.into_forces();
    }
}

#[test]
fn a_session_searching_at_32_conditions_allocates_one_plan() {
    let tests = random::random_suite(
        &mut StdRng::seed_from_u64(2005),
        &ConditionSpace::default(),
        SEARCHES,
    );
    for (i, test) in tests.iter().enumerate() {
        assert!(
            tests[..i]
                .iter()
                .all(|t| t.conditions().vdd != test.conditions().vdd),
            "every search runs at its own supply"
        );
    }
    let prepared: Vec<PreparedTest<'_>> = tests.iter().map(PreparedTest::new).collect();
    let device: Device = NetlistDevice::nominal().into();
    let session = || Ate::with_config(device.clone(), AteConfig::default());
    let mut scratch = SearchScratch::new();
    search_each(&mut session(), &prepared, &mut scratch);

    let mut ate = session();
    let before = CALLS.load(Ordering::Relaxed);
    search_each(&mut ate, &prepared, &mut scratch);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert!(
        calls <= 1,
        "{SEARCHES} searches at distinct conditions made {calls} allocator calls; \
         a retargetable plan costs one"
    );
}
