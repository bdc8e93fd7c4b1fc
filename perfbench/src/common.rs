//! Command line, result record and small helpers shared by the workloads.

use crate::catalog;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Per-layer (`true`) or end-to-end (`false`) metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let get = |flag: &str| {
            flags
                .get(flag)
                .cloned()
                .ok_or_else(|| format!("missing {flag}"))
        };
        let workload = get("--workload")?;
        if !catalog::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(String::from("--seconds must be positive"));
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One run's result: operations attempted and failed, and the metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Checked operations performed.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation, failed unless `ok`; reports the
    /// failure on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Records each layer's share of `den_ns` (`(metric, layer ns)`
    /// pairs) and, as `bench.unexplained_share`, what no layer explains.
    pub fn set_shares(&mut self, shares: &[(&'static str, f64)], den_ns: f64) {
        let mut explained = 0.0;
        for &(name, ns) in shares {
            let share = ns / den_ns;
            explained += share;
            self.set(name, share);
        }
        self.set("bench.unexplained_share", 1.0 - explained);
    }

    /// The result line: one JSON object with every metric and its unit.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = catalog::unit_of(name).expect("every emitted metric is catalogued");
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Wall seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// CPU seconds this process has run, all threads, from
/// `CLOCK_PROCESS_CPUTIME_ID`. The kernel excludes time the hypervisor
/// took the vCPU away (steal) and time spent blocked, e.g. on the disk.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_secs() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_secs() -> Option<f64> {
    None
}

/// Seconds `f` takes on the clock for a region on `threads` threads: the
/// process's CPU time on one thread, so that steal and blocked time do
/// not count, and wall time on several, where CPU time would add the
/// threads up. Falls back to wall time where there is no CPU clock.
fn timed_on<T>(threads: usize, f: impl FnOnce() -> T) -> (f64, T) {
    if threads <= 1 {
        if let Some(start) = process_cpu_secs() {
            let out = f();
            let end = process_cpu_secs().unwrap_or(start);
            return (end - start, out);
        }
    }
    timed(f)
}

/// Lanes × iterations of one reference-kernel pass.
const REFERENCE_ITERS: usize = 100_000;

/// Seconds one reference-kernel pass takes at the reference host speed:
/// its typical time on the 2-vCPU host the bounds were set on. Only a
/// scale — it keeps normalized seconds close to wall seconds.
const REFERENCE_NOMINAL_S: f64 = 0.0065;

/// The host-speed reference: a fixed, benchmark-owned mix of table
/// lookups, floating-point arithmetic and data-dependent branches over a
/// 256 KiB table — the instruction mix of the probe path, none of its
/// code. Program changes cannot move it; host speed changes do.
fn reference_kernel(iters: usize) -> f64 {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..32_768).map(|i| (f64::from(i) * 0.37).sin()).collect());
    let mut state = [0x1234u64, 0x5678, 0x9abc, 0xdef0];
    let mut acc = [0.0f64; 4];
    for _ in 0..iters {
        for (s, a) in state.iter_mut().zip(acc.iter_mut()) {
            *s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = table[(*s >> 49) as usize] * 1.0001 + *a * 0.5;
            *a = if v > 0.3 {
                v.sqrt()
            } else if v < -0.3 {
                -(-v).sqrt()
            } else {
                v * v
            };
        }
    }
    acc.iter().sum()
}

/// Records per heap-kernel pass.
const HEAP_RECORDS: usize = 7_000;

/// Formats `records` JSON-like lines, parses each back into a retained
/// record of owned strings and numbers, then folds them: the allocation
/// pattern and number parsing of a journal load, none of its code.
fn heap_kernel(records: usize) -> f64 {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut text = String::new();
    for i in 0..records {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let tp = (state >> 11) as f64 / (1u64 << 53) as f64 * 40.0;
        let _ = writeln!(
            text,
            "{{\"die\":{i},\"test\":{},\"trip\":{tp},\"low\":{},\"high\":{},\
             \"probes\":{},\"retries\":{},\"status\":\"converged\"}}",
            state % 384,
            tp * 0.5,
            tp * 1.5,
            state % 17,
            state % 3
        );
    }
    let rows: Vec<(String, Vec<f64>)> = text
        .lines()
        .map(|line| {
            let mut status = String::new();
            let mut values = Vec::new();
            for pair in line.trim_matches(|c| c == '{' || c == '}').split(',') {
                if let Some((_, value)) = pair.split_once(':') {
                    match value.parse::<f64>() {
                        Ok(v) => values.push(v),
                        Err(_) => status = value.trim_matches('"').to_owned(),
                    }
                }
            }
            (status, values)
        })
        .collect();
    rows.iter()
        .map(|(status, values)| status.len() as f64 + values.iter().sum::<f64>())
        .sum()
}

/// Bytes of the parse kernel's line: about one journal touchdown line of
/// `wafer_recover` (8 sites × 32 tests).
const PARSE_LINE_BYTES: usize = 20_000;

/// Seconds one journal-reference pass (four parse-kernel passes and one
/// heap-kernel pass) takes at the reference host speed: its typical time
/// on the same host as `REFERENCE_NOMINAL_S`.
const JOURNAL_NOMINAL_S: f64 = 0.03;

/// One JSON-like journal line of `PARSE_LINE_BYTES`, built once.
fn parse_line() -> &'static [u8] {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        let mut line = String::from("{\"touchdown\":3,\"entries\":[");
        let mut state = 0x2545_f491_4f6c_dd1du64;
        while line.len() < PARSE_LINE_BYTES {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let trip = (state >> 11) as f64 / (1u64 << 53) as f64 * 40.0;
            let _ = write!(
                line,
                "{{\"die\":{},\"test\":{},\"trip\":{trip},\"status\":\"Converged\",\
                 \"probes\":{}}},",
                state % 640,
                state % 32,
                state % 17
            );
        }
        line.push_str("]}");
        line
    })
    .as_bytes()
}

/// Reads `line` the way the repository's JSON reader does, one string character at a time
/// with UTF-8 validation of the rest of the line, numbers parsed from
/// their text, every (key, number) pair kept in a `Vec`. Its time goes
/// mostly to that validation, which streams the line from the L1 cache.
/// None of the program's code runs.
fn parse_kernel(line: &[u8]) -> f64 {
    let mut pos = 0;
    let mut key = String::new();
    let mut pairs: Vec<(String, f64)> = Vec::new();
    while pos < line.len() {
        match line[pos] {
            b'"' => {
                pos += 1;
                key = String::new();
                while pos < line.len() && line[pos] != b'"' {
                    let c = std::str::from_utf8(&line[pos..])
                        .ok()
                        .and_then(|rest| rest.chars().next())
                        .unwrap_or('?');
                    key.push(c);
                    pos += c.len_utf8();
                }
                pos += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = pos;
                while pos < line.len()
                    && matches!(line[pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    pos += 1;
                }
                let value = std::str::from_utf8(&line[start..pos])
                    .ok()
                    .and_then(|text| text.parse::<f64>().ok())
                    .unwrap_or(0.0);
                pairs.push((std::mem::take(&mut key), value));
            }
            _ => pos += 1,
        }
    }
    pairs.iter().map(|(k, v)| k.len() as f64 + v).sum()
}

/// The reference a timed region is scaled by, chosen to match its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Arithmetic, table lookups and branches: the probe path, training.
    Compute,
    /// Character-by-character JSON reading and record building: the
    /// journal load. One pass is four `parse_kernel` passes and one
    /// `heap_kernel` pass, about two thirds and one third of its time.
    /// Parsing alone slowed 1.6x as much as the heap work in one slow
    /// host phase; the resume slowed in between, as this mix does.
    Journal,
}

impl Reference {
    /// Seconds of one pass right now on the clock `timed_on` uses for
    /// `threads`: the fastest of five compute passes (compute-bound
    /// regions are tracked by the host's best speed), or the mean of two
    /// journal passes (parsing slows with contention bursts that a
    /// fastest-of would filter out).
    fn pass_secs(self, threads: usize) -> f64 {
        match self {
            Self::Compute => (0..5)
                .map(|_| {
                    timed_on(threads, || {
                        black_box(reference_kernel(black_box(REFERENCE_ITERS)))
                    })
                    .0
                })
                .fold(f64::INFINITY, f64::min),
            Self::Journal => {
                (0..2)
                    .map(|_| {
                        timed_on(threads, || {
                            for _ in 0..4 {
                                black_box(parse_kernel(black_box(parse_line())));
                            }
                            black_box(heap_kernel(black_box(HEAP_RECORDS)))
                        })
                        .0
                    })
                    .sum::<f64>()
                    / 2.0
            }
        }
    }

    /// The pass's typical time on the reference host.
    fn nominal_secs(self) -> f64 {
        match self {
            Self::Compute => REFERENCE_NOMINAL_S,
            Self::Journal => JOURNAL_NOMINAL_S,
        }
    }

    /// Seconds one pass takes right now per thread, with the kernel
    /// running on `threads` threads side by side. Several threads
    /// combine as the harmonic mean, the per-thread time of their summed
    /// throughput: a campaign on two threads slows when either vCPU does.
    fn secs(self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.pass_secs(threads);
        }
        let speeds: f64 = std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads)
                .map(|_| scope.spawn(move || self.pass_secs(threads)))
                .collect();
            let own = 1.0 / self.pass_secs(threads);
            own + others
                .into_iter()
                .map(|w| 1.0 / w.join().expect("reference kernel thread panicked"))
                .sum::<f64>()
        });
        threads as f64 / speeds
    }
}

/// Host time of `f`, run on `threads` threads, at the reference host
/// speed: its seconds on the `timed_on` clock scaled by the reference's
/// nominal time over its time on as many threads and the same clock,
/// measured just before and just after `f` (their mean). This host's
/// speed drifts by up to 2x over minutes with other tenants' load, per
/// vCPU; the reference drifts with it, so the ratio cancels the drift.
/// Returns the scaled seconds, the raw wall seconds, and `f`'s result.
pub fn timed_at_reference<T>(
    reference: Reference,
    threads: usize,
    f: impl FnOnce() -> T,
) -> (f64, f64, T) {
    let before = reference.secs(threads);
    let start = Instant::now();
    let (secs, out) = timed_on(threads, f);
    let raw = start.elapsed().as_secs_f64();
    let after = reference.secs(threads);
    (
        secs * 2.0 * reference.nominal_secs() / (before + after),
        raw,
        out,
    )
}

/// FNV-1a over a value's `Debug` form: `f64`s print their shortest
/// round-trip digits, so equal digests mean bit-identical values.
pub fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The scratch directory for journal, telemetry and harvest files: under
/// the build directory, which lives inside the checkout. Emptied at the
/// start and end of a run.
pub fn work_dir(workload: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-work").join(workload)
}

/// Removes and recreates `dir`.
///
/// # Errors
///
/// Propagates directory creation failures.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
}
