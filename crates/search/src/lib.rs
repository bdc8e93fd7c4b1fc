//! Trip-point search algorithms for device characterization.
//!
//! A *trip point* is the pass/fail boundary of a device parameter (fig. 1).
//! This crate implements the searches the paper surveys in §1 — [`LinearSearch`],
//! [`BinarySearch`] and drift-tolerant [`SuccessiveApproximation`] — plus its
//! §4 contribution, the [`SearchUntilTrip`] *search-until-trip-point* algorithm
//! (eqs. 2–4) that re-uses a reference trip point to avoid re-searching the
//! full "generous range" on every test.
//!
//! All algorithms speak to the device only through a [`PassFailOracle`]
//! and report the trip point, the complete probe trace, and — crucially
//! for the fig. 3 reproduction — the number of measurements consumed.
//! The four searches each have one `run` that returns a
//! [`SearchOutcome`]. The ones a campaign runs
//! ([`SuccessiveApproximation`], [`SearchUntilTrip`], and
//! [`RebracketingStp`], its full-range fallback) have `run_traced_in`,
//! which emits trace events into a span and appends the probe trace to a
//! caller-owned [`SearchScratch`], returning a copyable
//! [`SearchSummary`]; steady-state searching through it allocates
//! nothing.
//!
//! # Examples
//!
//! ```
//! use cichar_search::{BinarySearch, FnOracle, RegionOrder};
//! use cichar_units::ParamRange;
//!
//! // A device that works up to 110 MHz (§4's example).
//! let mut oracle = FnOracle::new(|f| f <= 110.0);
//! let search = BinarySearch::new(ParamRange::new(80.0, 130.0)?, 0.5);
//! let outcome = search.run(RegionOrder::PassBelowFail, &mut oracle);
//! let trip = outcome.trip_point.expect("trip point in range");
//! assert!((trip - 110.0).abs() <= 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod linear;
mod outcome;
mod rebracket;
mod robust;
mod scratch;
mod stp;
mod successive;
mod traits;
mod warm;

pub use binary::BinarySearch;
pub use linear::LinearSearch;
pub use outcome::{trace_is_consistent, Probe, SearchOutcome, SearchSummary};
pub use rebracket::{RebracketSummary, RebracketingStp};
pub use scratch::SearchScratch;
pub use robust::{RecoveryStats, RetryPolicy, RobustOracle, ScriptedOracle};
pub use stp::SearchUntilTrip;
pub use successive::SuccessiveApproximation;
pub use traits::{BatchOracle, FnOracle, PassFailOracle, RegionOrder};
pub use warm::{TripPrediction, WarmStart, WarmStartPlanner, WarmStartSource};
