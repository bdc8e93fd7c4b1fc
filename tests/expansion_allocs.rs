//! Pattern expansion allocates the pattern, not a memory image.
//!
//! A counting global allocator (this binary's own, so no other test's
//! allocations land in the counts) records the bytes requested around
//! one `SegmentProgram::expand` and around a small GA run. Expansion
//! tracks only the cells a program writes, on top of the power-up
//! background, so a 1,000-vector expansion must stay far below the
//! 128 KiB a full copy of the 64 Ki-word image costs. The GA prepares
//! each individual once and hands its identity to the worst-case
//! database, so a fitness evaluation expands its test once and copies no
//! image.

use cichar_ate::Ate;
use cichar_core::optimization::{OptimizationConfig, OptimizationScheme};
use cichar_dut::MemoryDevice;
use cichar_genetic::GaConfig;
use cichar_patterns::SegmentProgram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates to `System` unchanged; the wrapper only
// counts the bytes of successful allocations and reallocations.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes `f` asks the allocator for, and what it returns.
fn bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (ALLOC_BYTES.load(Ordering::Relaxed) - before, out)
}

/// One test, so no other thread of this binary allocates while it counts.
#[test]
fn expansion_and_ga_fitness_copy_no_memory_image() {
    // Eight 125-cycle segments: exactly 1,000 vectors, no clamp, no pad.
    let mut genes = vec![8, 1];
    for seg in 0..8u32 {
        genes.extend_from_slice(&[seg % 5, 3, 4_099 * seg, 4, 77 + seg, 125, 1_000 * seg]);
    }
    let program = SegmentProgram::from_genes(&genes).expect("in-bounds genes");
    // Warm-up: any one-off initialization stays out of the count.
    let first = program.expand();
    let (expand_bytes, pattern) = bytes(|| program.expand());
    assert_eq!(pattern, first);
    assert_eq!(pattern.len(), 1_000);
    assert!(
        expand_bytes < EXPAND_BYTES_BOUND,
        "one 1,000-vector expansion allocated {expand_bytes} bytes"
    );

    let scheme = OptimizationScheme::new(OptimizationConfig {
        ga: GaConfig {
            population_size: 16,
            islands: 2,
            generations: 6,
            stagnation_restart: 8,
            target_fitness: Some(1.0),
            ..GaConfig::default()
        },
        ..OptimizationConfig::default()
    });
    let mut ate = Ate::noiseless(MemoryDevice::nominal());
    let mut rng = StdRng::seed_from_u64(3);
    let (run_bytes, outcome) = bytes(|| scheme.run(&mut ate, &[], None, &mut rng));
    let per_eval = run_bytes / outcome.ga.evaluations as u64;
    assert!(
        per_eval < EVAL_BYTES_BOUND,
        "{run_bytes} bytes over {} fitness evaluations: {per_eval} per evaluation",
        outcome.ga.evaluations
    );
}

/// Bytes one 1,000-vector expansion may allocate: the pattern's 6,000
/// bytes with room to spare. The image-copy expansion allocated 143,336,
/// of which 131,072 were the image.
const EXPAND_BYTES_BOUND: u64 = 16 << 10;

/// Bytes one fitness evaluation of the small run may allocate. It
/// allocates 17,910; the image-copy expansion, run once to prepare each
/// test and again for each database insert and eviction, made it 419,169.
const EVAL_BYTES_BOUND: u64 = 64 << 10;
