//! Behavioral model of the paper's 140 nm memory test chip.
//!
//! The original experiment interrogates proprietary silicon through an
//! industrial ATE. This crate substitutes a physically-motivated behavioral
//! model (see `DESIGN.md` §2 for the substitution argument): a
//! [`MemoryDevice`] carries per-die process variation ([`Die`], sampled
//! from a [`Lot`]) and maps any test — its stress features plus its
//! conditions — through a calibrated [`ResponseSurface`] to the device's
//! *true* parametric values ([`Parametrics`]):
//!
//! * `t_dq` — the data-output valid time of §6 (spec = 20 ns, smaller is
//!   worse),
//! * `f_max` — the §4 example's maximum operating frequency (pass region
//!   below the fail region, eq. 3's orientation),
//! * `vdd_min` — minimum operating voltage (pass region above the fail
//!   region, eq. 4's orientation).
//!
//! The ATE simulator (`cichar-ate`) adds measurement noise and drift on
//! top; this crate is deliberately noise-free so tests can assert exact
//! physics.
//!
//! # Examples
//!
//! ```
//! use cichar_dut::MemoryDevice;
//! use cichar_patterns::{march, Test};
//!
//! let device = MemoryDevice::nominal();
//! let test = Test::deterministic("march_c-", march::march_c_minus(64));
//! let p = device.evaluate(&test);
//! // A benign production test leaves a comfortable T_DQ margin…
//! assert!(p.t_dq.value() > 30.0);
//! // …far above the 20 ns specification.
//! assert!(p.t_dq.value() > cichar_dut::T_DQ_SPEC.value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod conformance;
mod device;
mod faults;
mod logic;
mod netlist;
mod physics;
mod process;
pub mod registry;

pub use backend::{Device, DeviceBackend, EvalPlan, PreparedEvaluator};
pub use device::{MemoryDevice, Parametrics};
pub use faults::{fault_coverage, Fault, FaultSet, FunctionalOutcome, MemorySim, Mismatch};
pub use logic::LogicDevice;
pub use netlist::NetlistDevice;
pub use physics::{ResponseSurface, StressBreakdown};
pub use process::{Die, Lot, ProcessCorner};
pub use registry::{BackendSchema, DeviceSpec, ParamSpec, Registry};

use cichar_units::Nanoseconds;

/// The data-output valid time specification of the paper's experiment:
/// `spec = 20 ns` (§6). A test whose measured `t_dq` falls below this is a
/// specification violation.
pub const T_DQ_SPEC: Nanoseconds = Nanoseconds::new(20.0);
