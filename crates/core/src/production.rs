//! Production test programs derived from characterization.
//!
//! §1 draws the line this crate exists on: "Production testing determines
//! if the device meets its design specification and, if it does not, stops
//! testing on first fail, bins the device and goes on to the next device",
//! while characterization's output "helps to define the final device
//! specification … and develop a production test program in manufacturing
//! test".
//!
//! [`ProductionProgram`] is that artifact: an ordered list of go/no-go
//! steps, each applying one test with the measured parameter forced to the
//! specification limit plus a guard band — a single measurement per step,
//! stop on first fail, bin. [`ProductionProgram::from_worst_cases`]
//! derives the steps from a worst-case database, which is how the paper's
//! method upgrades manufacturing test: the screen now contains the tests
//! that actually provoke the worst drift.

use crate::db::WorstCaseDatabase;
use crate::wcr::CharacterizationObjective;
use cichar_ate::{Ate, MeasuredParam};
use cichar_patterns::Test;
use cichar_search::Probe;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One go/no-go step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestStep {
    /// The stimulus and conditions to apply.
    pub test: Test,
    /// The parameter forced to the limit.
    pub param: MeasuredParam,
    /// The forced limit value (spec plus guard band, on the pass side).
    pub limit: f64,
}

impl fmt::Display for TestStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} forced to {:.3} {}",
            self.test.name(),
            self.param,
            self.limit,
            self.param.kind().unit_symbol()
        )
    }
}

/// The binning outcome of a production run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bin {
    /// Every step passed.
    Good,
    /// Testing stopped at the named step (0-based index).
    Reject {
        /// Index of the failing step.
        step: usize,
        /// Name of the failing step's test.
        test_name: String,
    },
}

impl Bin {
    /// `true` for [`Bin::Good`].
    pub fn is_good(&self) -> bool {
        matches!(self, Bin::Good)
    }
}

impl fmt::Display for Bin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bin::Good => f.write_str("bin 1 (good)"),
            Bin::Reject { step, test_name } => {
                write!(f, "reject at step {step} ({test_name})")
            }
        }
    }
}

/// An ordered go/no-go production program.
///
/// # Examples
///
/// See [`ProductionProgram::from_worst_cases`] and the
/// `production_screen` example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductionProgram {
    steps: Vec<TestStep>,
}

impl ProductionProgram {
    /// Builds a program from explicit steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty — an empty program bins everything good.
    pub fn new(steps: Vec<TestStep>) -> Self {
        assert!(!steps.is_empty(), "production program needs steps");
        Self { steps }
    }

    /// The steps in execution order.
    pub fn steps(&self) -> &[TestStep] {
        &self.steps
    }

    /// Derives a program from the worst-case database: the top
    /// `max_steps` database entries become go/no-go steps at the
    /// specification limit padded by `guard_band` (in the parameter's
    /// unit, applied toward the pass side).
    ///
    /// # Panics
    ///
    /// Panics if the database is empty or `guard_band` is negative.
    pub fn from_worst_cases(
        db: &WorstCaseDatabase,
        param: MeasuredParam,
        objective: CharacterizationObjective,
        guard_band: f64,
        max_steps: usize,
    ) -> Self {
        assert!(guard_band >= 0.0, "negative guard band {guard_band}");
        assert!(!db.is_empty(), "empty worst-case database");
        let limit = match objective {
            // Minimum-limited parameter (eq. 6): the device must still pass
            // with the parameter forced to spec + guard band.
            CharacterizationObjective::DriftToMinimum { vmin } => vmin + guard_band,
            // Maximum-limited parameter (eq. 5): forced to spec − guard band.
            CharacterizationObjective::DriftToMaximum { vmax } => vmax - guard_band,
        };
        let steps = db
            .entries()
            .iter()
            .take(max_steps.max(1))
            .map(|record| TestStep {
                test: record.test.clone(),
                param,
                limit,
            })
            .collect();
        Self::new(steps)
    }

    /// Screens one device: applies each step once, stops on first fail.
    ///
    /// Each step is exactly one ATE measurement — production economics,
    /// not characterization economics — and combines the guard-banded
    /// parametric check with the functional data compare, so both a
    /// marginal die and a defective array bin out.
    pub fn screen(&self, ate: &mut Ate) -> Bin {
        for (i, step) in self.steps.iter().enumerate() {
            if ate.measure_production(&step.test, step.param, step.limit) != Probe::Pass {
                return Bin::Reject {
                    step: i,
                    test_name: step.test.name().to_string(),
                };
            }
        }
        Bin::Good
    }
}

impl fmt::Display for ProductionProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "production program, {} steps:", self.steps.len())?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {i}: {step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::WorstCaseTest;
    
    use cichar_dut::{Die, Lot, MemoryDevice, ProcessCorner};
    use cichar_patterns::{march, Pattern, TestVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The resonant ping-pong stress pattern — a stand-in for a GA-found
    /// worst case.
    fn stress_test() -> Test {
        let mut v = Vec::new();
        v.push(TestVector::write(0x0000, 0x5555));
        v.push(TestVector::write(0xFFFF, 0xAAAA));
        while v.len() < 990 {
            v.push(TestVector::write(0x0000, 0x5555));
            for i in 0..12u16 {
                let (addr, w) = if i % 2 == 0 {
                    (0x0000, 0x5555)
                } else {
                    (0xFFFF, 0xAAAA)
                };
                v.push(TestVector::read(addr, w));
            }
        }
        Test::deterministic("wc_stress", Pattern::new_clamped(v))
    }

    fn objective() -> CharacterizationObjective {
        CharacterizationObjective::drift_to_minimum(20.0)
    }

    fn db_with(tests: &[(&str, Test, f64)]) -> WorstCaseDatabase {
        let mut db = WorstCaseDatabase::new(8);
        for (name, test, tp) in tests {
            db.insert(WorstCaseTest {
                test: test.relabel(*name, cichar_patterns::TestSource::NeuralGa),
                trip_point: *tp,
                wcr: objective().wcr(*tp),
                class: objective().classify(*tp),
                predicted_severity: None,
            });
        }
        db
    }

    fn march_program(guard_band: f64) -> ProductionProgram {
        let db = db_with(&[(
            "march",
            Test::deterministic("march", march::march_c_minus(64)),
            32.3,
        )]);
        ProductionProgram::from_worst_cases(
            &db,
            MeasuredParam::DataValidTime,
            objective(),
            guard_band,
            4,
        )
    }

    fn worst_case_program(guard_band: f64) -> ProductionProgram {
        let db = db_with(&[
            ("wc_stress", stress_test(), 22.5),
            ("march", Test::deterministic("march", march::march_c_minus(64)), 32.3),
        ]);
        ProductionProgram::from_worst_cases(
            &db,
            MeasuredParam::DataValidTime,
            objective(),
            guard_band,
            4,
        )
    }

    #[test]
    fn limits_apply_guard_band_toward_pass_side() {
        let p = march_program(1.5);
        assert_eq!(p.steps()[0].limit, 21.5);
        let eq5 = ProductionProgram::from_worst_cases(
            &db_with(&[("m", Test::deterministic("m", march::march_x(96)), 105.0)]),
            MeasuredParam::MaxFrequency,
            CharacterizationObjective::drift_to_maximum(110.0),
            2.0,
            4,
        );
        assert_eq!(eq5.steps()[0].limit, 108.0);
    }

    #[test]
    fn nominal_die_bins_good() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        assert_eq!(worst_case_program(1.0).screen(&mut ate), Bin::Good);
        // One measurement per step — production economics.
        assert_eq!(ate.ledger().measurements(), 2);
    }

    #[test]
    fn screen_stops_on_first_fail() {
        // A slow, stress-sensitive die: the worst-case step (first in WCR
        // order) rejects it immediately.
        let weak = Die::at_corner(ProcessCorner::Slow);
        let mut ate = Ate::noiseless(MemoryDevice::new(weak));
        let bin = worst_case_program(1.0).screen(&mut ate);
        match bin {
            Bin::Reject { step, ref test_name } => {
                assert_eq!(step, 0, "stops at the first (worst) step");
                assert_eq!(test_name, "wc_stress");
            }
            Bin::Good => panic!("slow sensitive die must be rejected"),
        }
        assert_eq!(
            ate.ledger().measurements(),
            1,
            "stop-on-first-fail spends one measurement"
        );
    }

    #[test]
    fn worst_case_program_catches_escapes_the_march_program_misses() {
        // §1's motivating scenario: a die that passes the deterministic
        // production screen but violates the spec under the true worst
        // case. The Noisy corner die (typical speed, outlier stress
        // sensitivity) is exactly that part.
        let escape_prone = Die::at_corner(ProcessCorner::Noisy);
        // Check the premise: its March t_dq is fine, its worst-case t_dq
        // is not (needs > 1 ns guard band to show).
        let device = MemoryDevice::new(escape_prone);
        let march_t = device
            .evaluate(&Test::deterministic("m", march::march_c_minus(64)))
            .t_dq
            .value();
        let stress_t = device.evaluate(&stress_test()).t_dq.value();
        assert!(march_t > 21.5 && stress_t < 21.5, "{march_t} vs {stress_t}");

        let mut ate_march = Ate::noiseless(MemoryDevice::new(escape_prone));
        let mut ate_wc = Ate::noiseless(MemoryDevice::new(escape_prone));
        assert_eq!(
            march_program(1.5).screen(&mut ate_march),
            Bin::Good,
            "the deterministic-only program lets the escape through"
        );
        assert!(
            !worst_case_program(1.5).screen(&mut ate_wc).is_good(),
            "the characterization-derived program catches it"
        );
    }

    #[test]
    fn defective_array_is_rejected_functionally() {
        use cichar_dut::{Fault, FaultSet};
        // A die with healthy parametrics but a stuck-at cell inside the
        // March sweep: only the functional compare can catch it.
        let device = MemoryDevice::nominal().with_faults(FaultSet::new(vec![Fault::StuckAt {
            address: 7,
            bit: 2,
            value: true,
        }]));
        let mut ate = Ate::noiseless(device);
        let program = march_program(1.5);
        assert!(
            !program.screen(&mut ate).is_good(),
            "the production screen must catch array defects"
        );
        assert_eq!(ate.ledger().measurements(), 1, "one application suffices");
    }

    #[test]
    fn defect_outside_the_swept_array_escapes_the_march_step() {
        use cichar_dut::{Fault, FaultSet};
        // March C- sweeps addresses 0..64; a defect at 0x4000 is invisible
        // to it — coverage is only as good as the address sweep.
        let device = MemoryDevice::nominal().with_faults(FaultSet::new(vec![Fault::StuckAt {
            address: 0x4000,
            bit: 0,
            value: true,
        }]));
        let mut ate = Ate::noiseless(device);
        assert_eq!(march_program(1.5).screen(&mut ate), Bin::Good);
    }

    #[test]
    fn batch_yield_reflects_lot_quality() {
        let program = worst_case_program(0.5);
        let lot = Lot::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut testers: Vec<Ate> = lot
            .sample_dies(&mut rng, 30)
            .into_iter()
            .map(|die| Ate::noiseless(MemoryDevice::new(die)))
            .collect();
        let good = testers
            .iter_mut()
            .map(|ate| program.screen(ate))
            .filter(|bin| bin.is_good())
            .count();
        assert!(good >= 20, "healthy lot yields well: {good}/30");
    }

    #[test]
    fn steps_ordered_by_database_severity() {
        let p = worst_case_program(1.0);
        assert_eq!(p.steps()[0].test.name(), "wc_stress");
        assert_eq!(p.steps()[1].test.name(), "march");
    }

    #[test]
    #[should_panic(expected = "empty worst-case database")]
    fn rejects_empty_database() {
        let db = WorstCaseDatabase::new(4);
        let _ = ProductionProgram::from_worst_cases(
            &db,
            MeasuredParam::DataValidTime,
            objective(),
            1.0,
            4,
        );
    }

    #[test]
    fn display_lists_steps_and_bins() {
        let p = worst_case_program(1.0);
        let text = p.to_string();
        assert!(text.contains("production program, 2 steps"), "{text}");
        assert!(Bin::Good.to_string().contains("good"));
        assert!(Bin::Reject {
            step: 0,
            test_name: "x".into()
        }
        .to_string()
        .contains("reject"));
    }
}
