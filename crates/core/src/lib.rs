//! Intelligent device characterization — the DATE'05 paper's contribution,
//! end to end.
//!
//! This crate wires the substrates (`cichar-dut`, `cichar-ate`,
//! `cichar-search`) and the computational-intelligence building blocks
//! (`cichar-neural`, `cichar-fuzzy`, `cichar-genetic`) into the paper's
//! two schemes plus the evaluation harness:
//!
//! * [`wcr`] — the worst-case ratio of eqs. (5)–(6) with the fig. 6
//!   classification bands;
//! * [`dsv`] — multiple-trip-point characterization (§3, eq. 1): measure
//!   the trip point of many tests, the first with a full-range search
//!   (eq. 2's reference trip point), the rest with search-until-trip-point;
//! * [`learning`] — the fig. 4 learning scheme: random tests measured on
//!   the ATE, coded numerically or fuzzily, fed to a bagged NN committee
//!   with learnability/generalization gates;
//! * [`generator`] — the fuzzy-neural test generator: committee-screened
//!   random candidates become the GA's sub-optimal seeds;
//! * [`optimization`] — the fig. 5 optimization scheme: a two-species GA
//!   (sequence and condition chromosomes) maximizing measured WCR, with a
//!   worst-case database as the product;
//! * [`compare`] — the Table 1 harness: deterministic vs random vs NN+GA;
//! * [`report`] — text renderings of the paper's figures.
//!
//! # Examples
//!
//! Measure a deterministic test's `T_DQ` trip point and classify it:
//!
//! ```
//! use cichar_ate::{Ate, MeasuredParam};
//! use cichar_core::wcr::{CharacterizationObjective, WcrClass};
//! use cichar_dut::MemoryDevice;
//! use cichar_patterns::{march, Test};
//! use cichar_search::{BinarySearch, RegionOrder};
//!
//! let mut ate = Ate::noiseless(MemoryDevice::nominal());
//! let test = Test::deterministic("march_c-", march::march_c_minus(64));
//! let param = MeasuredParam::DataValidTime;
//! let outcome = BinarySearch::new(param.generous_range(), param.resolution())
//!     .run(param.region_order(), ate.trip_oracle(&test, param));
//! let t_dq = outcome.trip_point.expect("trip in range");
//!
//! // §6: spec = 20 ns, minimum drift analysis (eq. 6).
//! let objective = CharacterizationObjective::drift_to_minimum(20.0);
//! let wcr = objective.wcr(t_dq);
//! assert_eq!(objective.classify(t_dq), WcrClass::Pass);
//! assert!((wcr - 0.619).abs() < 0.02, "March row of Table 1, wcr = {wcr}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod compare;
pub mod db;
pub mod dsv;
pub mod encode;
pub mod generator;
pub mod journal;
pub mod learning;
pub mod multi;
pub mod optimization;
pub mod production;
pub mod report;
pub mod sample;
pub mod stream;
pub mod wafer;
pub mod wcr;

/// Where a campaign's measurement-heavy stages run — the one fork in a
/// runner body (`DESIGN.md` §7), and the session argument of
/// [`multi::MultiParamCampaign::run`]. Under noise or drift the two give
/// different answers, so neither may silently stand in for the other.
#[derive(Debug, Clone, Copy)]
pub enum Sessions {
    /// On the caller's `Ate`, in order, consuming its noise, drift and
    /// fault streams as they go.
    Shared,
    /// On derived-seed sessions cloned through `ParallelAte`, one per test
    /// or GA evaluation, fanned out under the policy.
    PerTest(cichar_exec::ExecPolicy),
}
