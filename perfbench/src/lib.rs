//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wafer_lot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). `NOTES.md`
//! explains each workload, the layer → end-to-end map and the method.

pub mod alloc;
pub mod catalog;
pub mod common;
pub mod isolate;
pub mod layers;
pub mod table1;
pub mod wafer;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Runs the workload `args` names and returns its result.
///
/// # Errors
///
/// Journal, telemetry or scratch-directory I/O failures.
pub fn run(args: &common::Args) -> std::io::Result<common::RunResult> {
    match args.workload.as_str() {
        "wafer_lot" => wafer::run(&wafer::LOT, args),
        "wafer_recover" => wafer::run(&wafer::RECOVER, args),
        "table1_hunt" => Ok(table1::run(args)),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}"),
        )),
    }
}
