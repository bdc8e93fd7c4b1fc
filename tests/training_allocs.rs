//! Committee training allocates per run, never per epoch or per row.
//!
//! A counting global allocator (this binary's own, so no other test's
//! allocations land in the counts) records allocator calls around
//! `Trainer::train` and `Mlp::mse`. Training's buffers are sized once per
//! run, so 40 epochs must cost exactly as many calls as 10, and scoring
//! 100 rows exactly as many as 10.

use cichar_neural::{Dataset, Mlp, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates to `System` unchanged; the wrapper only
// counts successful allocations and reallocations.
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

/// Allocator calls `f` makes.
fn calls<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    drop(out);
    after - before
}

fn rows(rng: &mut StdRng, count: usize, width: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| (0..width).map(|_| rng.gen::<f64>()).collect())
        .collect()
}

/// One test, so no other thread of this binary allocates while it counts.
#[test]
fn training_and_scoring_allocate_per_run_not_per_epoch_or_row() {
    let mut rng = StdRng::seed_from_u64(1);
    let data = Dataset::new(rows(&mut rng, 40, 17), rows(&mut rng, 40, 1)).expect("aligned rows");
    let net = Mlp::new(&[17, 16, 8, 1], &mut rng).expect("valid topology");
    let train = |epochs: usize| {
        // No early stop: every run lasts exactly `epochs` epochs.
        let trainer = Trainer::new(TrainConfig {
            epochs,
            target_mse: 0.0,
            patience: usize::MAX,
            ..TrainConfig::default()
        });
        let mut mlp = net.clone();
        let mut rng = StdRng::seed_from_u64(2);
        calls(|| trainer.train(&mut mlp, &data, &mut rng))
    };
    let (short, long) = (train(10), train(40));
    assert_eq!(short, long, "allocator calls for 10 vs 40 epochs");

    let (xs, ts) = (rows(&mut rng, 100, 17), rows(&mut rng, 100, 1));
    let few = calls(|| net.mse(&xs[..10], &ts[..10]));
    let many = calls(|| net.mse(&xs, &ts));
    assert_eq!(few, many, "allocator calls for 10 vs 100 rows");
}
