//! Pattern work allocates no memory image, and a stimulus walked for its
//! features builds no pattern at all.
//!
//! A counting global allocator (this binary's own, so no other test's
//! allocations land in the counts) records the bytes requested and the
//! allocator calls made around one `SegmentProgram::expand`, one
//! `PreparedTest::new`, a small GA run and a fuzzy-neural screen.
//! Expansion tracks only the cells a program writes, on top of the
//! power-up background, so a 1,000-vector expansion must stay far below
//! the 128 KiB a full copy of the 64 Ki-word image costs. Preparation
//! walks the stimulus once for its features, cycle count and hash, so it
//! makes no allocator call, and the GA prepares each individual once and
//! hands its identity to the worst-case database. The screen keeps only
//! its best candidates and votes through one reused scratch, so a
//! candidate costs only the allocations of its random test.

use cichar_ate::{Ate, PreparedTest};
use cichar_core::generator::NeuralTestGenerator;
use cichar_core::learning::{LearningConfig, LearningScheme};
use cichar_core::optimization::{OptimizationConfig, OptimizationScheme};
use cichar_dut::MemoryDevice;
use cichar_fuzzy::coding::CodingScheme;
use cichar_genetic::GaConfig;
use cichar_neural::TrainConfig;
use cichar_patterns::{SegmentProgram, Test, TestConditions, TestSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates to `System` unchanged; the wrapper only
// counts successful allocations and reallocations, and their bytes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
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

/// Allocator calls `f` makes, and what it returns.
fn calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, out)
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
    let test = Test::from_program(
        "p",
        TestSource::NeuralGa,
        program,
        TestConditions::nominal(),
    );
    let (prepare_calls, prepared) = calls(|| PreparedTest::new(&test));
    assert_eq!(prepared.pattern_cycles(), 1_000);
    // Building the pattern to prepare it made 8 calls.
    assert_eq!(prepare_calls, 0, "preparing a 1,000-vector program");

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

    let model = LearningScheme::new(LearningConfig {
        tests_per_round: 60,
        max_rounds: 2,
        committee_size: 3,
        hidden: vec![12],
        coding: CodingScheme::Numeric,
        train: TrainConfig {
            epochs: 50,
            ..TrainConfig::default()
        },
        ..LearningConfig::default()
    })
    .run(&mut ate, &mut rng);
    let generator = NeuralTestGenerator::new(&model);
    let screen = |candidates: usize| {
        let mut rng = StdRng::seed_from_u64(4);
        calls(|| generator.propose(candidates, 8, None, &mut rng)).0
    };
    // The calls 400 more candidates cost: the difference between two
    // screens with the same `top_k`.
    let (few, many) = (screen(200), screen(600));
    assert!(
        many - few <= 400 * CANDIDATE_CALLS_BOUND,
        "{few} allocator calls screening 200 candidates, {many} screening 600"
    );
}

/// Bytes one 1,000-vector expansion may allocate: the pattern's 6,000
/// bytes with room to spare. The image-copy expansion allocated 143,336,
/// of which 131,072 were the image.
const EXPAND_BYTES_BOUND: u64 = 16 << 10;

/// Bytes one fitness evaluation of the small run may allocate. It
/// allocates 551 (547 in the optimized build). Building each test's
/// pattern to prepare it made it 17,910, and the image-copy expansion,
/// run once to prepare each test and again for each database insert and
/// eviction, 419,169.
const EVAL_BYTES_BOUND: u64 = 1 << 10;

/// Allocator calls one more screened candidate may cost: the random
/// test's segment list and its name, which `format!` allocates and then
/// grows once past its capacity estimate. Scoring, naming and keeping
/// every candidate made it 24.2.
const CANDIDATE_CALLS_BOUND: u64 = 3;
