//! Deterministic parallel execution layer for characterization hot paths.
//!
//! Every expensive loop in the reproduction — multi-trip-point DSV runs,
//! GA fitness evaluation, committee training, shmoo capture, lot
//! sampling — is a fan-out over independent work items. This crate
//! provides the shared machinery those paths use to go wide **without
//! giving up bit-reproducibility**:
//!
//! * [`ExecPolicy`] — thread-count selection (builder API, the
//!   `CICHAR_THREADS` environment variable, or available parallelism);
//! * [`par_map`] / [`par_map_ref`] — chunked, work-stealing fan-out over a
//!   scoped worker pool that returns results **by input index**, never by
//!   completion order;
//! * [`derive_seed`] — the per-item RNG seed derivation rule
//!   `(campaign seed, item index) → worker seed`, so the random stream an
//!   item sees is a pure function of its identity and not of scheduling.
//!
//! The determinism contract: callers hand each item a fresh RNG seeded
//! with `derive_seed(campaign_seed, index)` and merge outputs by index.
//! Under that contract results are bit-identical for every thread count,
//! including `threads = 1`, which runs the same schedule inline on the
//! caller's thread without spawning.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// How many chunks each worker should expect to claim, on average. More
/// chunks than workers gives the atomic claim counter room to balance
/// uneven per-item cost (the work-stealing effect) without per-item
/// claim traffic.
const CHUNKS_PER_WORKER: usize = 4;

/// Thread-count policy for the parallel characterization paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    threads: usize,
}

impl ExecPolicy {
    /// Policy running everything inline on the caller's thread.
    pub const fn serial() -> Self {
        ExecPolicy { threads: 1 }
    }

    /// Policy with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy {
            threads: threads.max(1),
        }
    }

    /// Policy from the `CICHAR_THREADS` environment variable: a positive
    /// integer is the worker count; unset, empty or `0` means the
    /// machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Any other value (junk, a negative or fractional count, bytes that
    /// are not UTF-8) is an error naming the variable: a typo must not
    /// silently run at a different width.
    pub fn from_env() -> Result<Self, String> {
        Self::from_var(std::env::var_os("CICHAR_THREADS"))
    }

    /// [`Self::from_env`] over the variable's value.
    fn from_var(raw: Option<std::ffi::OsString>) -> Result<Self, String> {
        let Some(raw) = raw else {
            return Ok(ExecPolicy::default());
        };
        let threads = match raw.to_str().map(str::trim) {
            Some("") => Some(0),
            Some(text) => text.parse::<usize>().ok(),
            None => None,
        };
        match threads {
            Some(0) => Ok(ExecPolicy::default()),
            Some(n) => Ok(ExecPolicy::with_threads(n)),
            None => Err(format!(
                "invalid CICHAR_THREADS value {raw:?}: expected a positive integer, \
                 or 0 or empty for the machine's available parallelism"
            )),
        }
    }

    /// The worker count this policy fans out to (always at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this policy runs inline without spawning workers.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }
}

impl Default for ExecPolicy {
    /// Defaults to the machine's available parallelism.
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecPolicy { threads }
    }
}

/// Derives a stable per-item RNG seed from a campaign seed and the item's
/// index.
///
/// This is the workspace's determinism rule: an item's random stream
/// depends only on `(campaign_seed, index)`, never on which worker runs it
/// or in what order. The mix is two rounds of the SplitMix64 finalizer
/// over the campaign seed and index, which decorrelates consecutive
/// indices and consecutive campaign seeds alike.
pub fn derive_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// Maps `f` over `items`, fanning out across `policy.threads()` scoped
/// workers, and returns the outputs **in input order**.
///
/// `f` receives each item's original index alongside the item, so callers
/// can derive per-item seeds ([`derive_seed`]) and label results. Workers
/// claim chunks of consecutive indices from a shared atomic counter
/// (work-stealing: a worker that finishes early claims the next chunk),
/// but every output lands in the slot of its input index, so the result
/// is independent of scheduling.
///
/// With a serial policy (or a single item) this runs inline on the
/// caller's thread with no pool, no locks, and no spawn overhead — the
/// legacy sequential code path.
pub fn par_map<T, U, F>(policy: ExecPolicy, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    if policy.is_serial() || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let len = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let workers = policy.threads().min(len);
    let chunk = (len / (workers * CHUNKS_PER_WORKER)).max(1);
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                for index in start..(start + chunk).min(len) {
                    let item = slots[index]
                        .lock()
                        .take()
                        .expect("each index is claimed exactly once");
                    let output = f(index, item);
                    *results[index].lock() = Some(output);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every index was processed by some worker")
        })
        .collect()
}

/// Borrowing variant of [`par_map`]: maps `f` over `&items` and returns
/// outputs in input order. Useful when items are reused after the fan-out.
pub fn par_map_ref<T, U, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    if policy.is_serial() || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let len = items.len();
    let results: Vec<Mutex<Option<U>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let workers = policy.threads().min(len);
    let chunk = (len / (workers * CHUNKS_PER_WORKER)).max(1);
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                for index in start..(start + chunk).min(len) {
                    let output = f(index, &items[index]);
                    *results[index].lock() = Some(output);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every index was processed by some worker")
        })
        .collect()
}

/// [`par_map_ref`] with a per-worker scratch arena: each worker calls
/// `init` once when it starts and threads the resulting state through
/// every item it claims, so buffer-heavy work (probe traces, force
/// vectors, vote buffers) amortizes its allocations over a whole worker's
/// share of the fan-out instead of paying them per item.
///
/// The determinism contract is unchanged — and sharpened: `f` must leave
/// no item-visible state in the scratch (clear what you use, or treat its
/// contents as garbage on entry), because which items share a scratch
/// depends on scheduling. Outputs still land by input index. The serial
/// path builds one scratch and runs the same schedule inline.
pub fn par_map_ref_scratch<T, U, S, F, I>(
    policy: ExecPolicy,
    items: &[T],
    init: I,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &T, &mut S) -> U + Sync,
{
    if policy.is_serial() || items.len() <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item, &mut scratch))
            .collect();
    }

    let len = items.len();
    let results: Vec<Mutex<Option<U>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let workers = policy.threads().min(len);
    let chunk = (len / (workers * CHUNKS_PER_WORKER)).max(1);
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    for index in start..(start + chunk).min(len) {
                        let output = f(index, &items[index], &mut scratch);
                        *results[index].lock() = Some(output);
                    }
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every index was processed by some worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 4, 8] {
            let got = par_map(ExecPolicy::with_threads(threads), items.clone(), |_, x| {
                x * 3
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_ref_matches_serial() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map_ref(ExecPolicy::serial(), &items, |i, x| i as u64 + x);
        let parallel = par_map_ref(ExecPolicy::with_threads(8), &items, |i, x| i as u64 + x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_passes_original_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map(ExecPolicy::with_threads(4), items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(ExecPolicy::with_threads(4), empty, |_, x: u32| x).is_empty());
        assert_eq!(
            par_map(ExecPolicy::with_threads(4), vec![7u32], |i, x| (i, x)),
            vec![(0, 7)]
        );
    }

    #[test]
    fn uneven_item_cost_still_lands_in_order() {
        // Early indices do far more work than late ones, so with several
        // workers the completion order differs wildly from input order.
        let items: Vec<u64> = (0..64).collect();
        let f = |_: usize, x: u64| {
            let spins = if x < 8 { 20_000 } else { 10 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        };
        let serial = par_map(ExecPolicy::serial(), items.clone(), f);
        let parallel = par_map(ExecPolicy::with_threads(8), items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_ref_scratch_matches_serial_with_dirty_scratch() {
        // The scratch buffer is deliberately left dirty after every item;
        // per-item results must still be a pure function of the index.
        let items: Vec<u64> = (0..300).collect();
        let init = Vec::<u64>::new;
        let f = |i: usize, x: &u64, scratch: &mut Vec<u64>| {
            scratch.clear();
            scratch.extend(0..(*x % 7));
            scratch.iter().sum::<u64>() + i as u64
        };
        let serial = par_map_ref_scratch(ExecPolicy::serial(), &items, init, f);
        for threads in [2, 4, 8] {
            let parallel =
                par_map_ref_scratch(ExecPolicy::with_threads(threads), &items, init, f);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn par_map_ref_scratch_inits_once_per_worker_serially() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let items = [1u32, 2, 3, 4];
        let got = par_map_ref_scratch(
            ExecPolicy::serial(),
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u32
            },
            |_, x, acc| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1, "one scratch inline");
        // Serial scratch is genuinely reused: the accumulator carries.
        assert_eq!(got, vec![1, 3, 6, 10]);
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| derive_seed(0xC1C4A7, i)).collect();
        assert_eq!(seeds.len(), 10_000, "no collisions over 10k indices");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn policy_parsing_and_clamping() {
        let var = |raw: &str| ExecPolicy::from_var(Some(raw.into()));
        assert_eq!(var("4"), Ok(ExecPolicy::with_threads(4)));
        assert_eq!(var(" 16 "), Ok(ExecPolicy::with_threads(16)));
        for available in ["0", "", "  "] {
            assert_eq!(var(available), Ok(ExecPolicy::default()), "{available:?}");
        }
        assert_eq!(ExecPolicy::from_var(None), Ok(ExecPolicy::default()));
        for junk in ["not-a-number", "-1", "2.5", "4 threads", "+", "0x4"] {
            let err = var(junk).expect_err(junk);
            assert!(err.contains("CICHAR_THREADS") && err.contains(junk), "{err}");
        }
        assert_eq!(ExecPolicy::with_threads(0).threads(), 1);
        assert!(ExecPolicy::serial().is_serial());
        assert!(ExecPolicy::default().threads() >= 1);
    }
}
