//! The shmoo engine: pass/fail rasterized over two parameter axes.
//!
//! Fig. 8 of the paper is a shmoo plot with the Vdd supply on the Y axis
//! and the `T_DQ` timing parameter on the X axis, with "1000 tests
//! overlapping in a single shmoo plot" to expose the per-test trip-point
//! spread. [`ShmooPlot`] captures one test's raster; [`OverlayShmoo`]
//! accumulates many and reports the worst-case parameter-variation band.

use crate::ledger::MeasurementLedger;
use crate::parallel::ParallelAte;
use crate::tester::Ate;
use cichar_exec::ExecPolicy;
use cichar_patterns::{PatternFeatures, Test};
use cichar_search::RegionOrder;
use cichar_units::Axis;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One test's pass/fail raster over an X and a Y axis.
///
/// # Examples
///
/// ```
/// use cichar_ate::{Ate, ShmooPlot};
/// use cichar_dut::MemoryDevice;
/// use cichar_patterns::{march, Test};
/// use cichar_units::{Axis, ParamKind};
///
/// let mut ate = Ate::noiseless(MemoryDevice::nominal());
/// let test = Test::deterministic("march_c-", march::march_c_minus(64));
/// let x = Axis::new(ParamKind::StrobeDelay, 18.0, 36.0, 19)?;
/// let y = Axis::new(ParamKind::SupplyVoltage, 1.5, 2.1, 7)?;
/// let plot = ShmooPlot::capture(&mut ate, &test, x, y);
/// // Low strobe delays pass everywhere; the boundary moves with Vdd.
/// assert!(plot.at(0, 6), "18 ns strobe at 2.1 V passes");
/// assert!(!plot.at(18, 0), "36 ns strobe at 1.5 V fails");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShmooPlot {
    x: Axis,
    y: Axis,
    /// Row-major `[y][x]`, `true` = pass.
    grid: Vec<bool>,
}

impl ShmooPlot {
    /// Rasterizes the test over the two axes, one measurement per cell.
    ///
    /// Pattern features are extracted once; each cell forces both axis
    /// parameters and strobes the device.
    pub fn capture(ate: &mut Ate, test: &Test, x: Axis, y: Axis) -> Self {
        let pattern = test.pattern();
        let features = PatternFeatures::extract(&pattern);
        let cycles = pattern.len() as u64;
        let mut grid = Vec::with_capacity(x.len() * y.len());
        for yi in 0..y.len() {
            for xi in 0..x.len() {
                let verdict = ate.measure_features(
                    &features,
                    cycles,
                    test,
                    &[(x.kind(), x.at(xi)), (y.kind(), y.at(yi))],
                );
                grid.push(verdict.is_pass());
            }
        }
        Self { x, y, grid }
    }

    /// Rasterizes the test with rows fanned out across worker threads,
    /// one deterministic session per Y row from `blueprint`.
    ///
    /// Row *yi* always runs on the session seeded by
    /// `derive_seed(campaign seed, yi)` and rows are reassembled in Y
    /// order, so the raster is bit-identical for every thread count. For
    /// a noiseless, drift-free blueprint it also equals
    /// [`ShmooPlot::capture`] on a single session (verdicts are then pure
    /// functions of the forced cell).
    ///
    /// Returns the plot plus the merged ledger (row ledgers folded in Y
    /// order).
    pub fn capture_parallel(
        blueprint: &ParallelAte,
        test: &Test,
        x: Axis,
        y: Axis,
        policy: ExecPolicy,
    ) -> (Self, MeasurementLedger) {
        let pattern = test.pattern();
        let features = PatternFeatures::extract(&pattern);
        let cycles = pattern.len() as u64;
        let rows = cichar_exec::par_map(policy, (0..y.len()).collect(), |_, yi| {
            let mut session = blueprint.session(yi as u64);
            let row: Vec<bool> = (0..x.len())
                .map(|xi| {
                    session
                        .measure_features(
                            &features,
                            cycles,
                            test,
                            &[(x.kind(), x.at(xi)), (y.kind(), y.at(yi))],
                        )
                        .is_pass()
                })
                .collect();
            (row, *session.ledger())
        });
        let mut grid = Vec::with_capacity(x.len() * y.len());
        let mut ledger = MeasurementLedger::new();
        for (row, row_ledger) in rows {
            grid.extend(row);
            ledger.merge(&row_ledger);
        }
        (Self { x, y, grid }, ledger)
    }

    /// The X axis.
    pub fn x_axis(&self) -> &Axis {
        &self.x
    }

    /// The Y axis.
    pub fn y_axis(&self) -> &Axis {
        &self.y
    }

    /// Pass/fail at grid cell `(xi, yi)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn at(&self, xi: usize, yi: usize) -> bool {
        assert!(xi < self.x.len() && yi < self.y.len(), "index out of grid");
        self.grid[yi * self.x.len() + xi]
    }

    /// Total passing cells.
    pub fn pass_count(&self) -> usize {
        self.grid.iter().filter(|&&p| p).count()
    }

    /// The X-axis trip point for row `yi`: the last passing X before the
    /// first failure, scanning from the pass side given by `order`.
    ///
    /// Returns `None` if the whole row shares one state.
    pub fn row_boundary(&self, yi: usize, order: RegionOrder) -> Option<f64> {
        let row: Vec<bool> = (0..self.x.len()).map(|xi| self.at(xi, yi)).collect();
        let indices: Vec<usize> = match order {
            RegionOrder::PassBelowFail => (0..self.x.len()).collect(),
            RegionOrder::PassAboveFail => (0..self.x.len()).rev().collect(),
        };
        let mut last_pass = None;
        for &i in &indices {
            if row[i] {
                last_pass = Some(self.x.at(i));
            } else {
                return last_pass;
            }
        }
        None // never failed — boundary outside the axis
    }

    /// ASCII rendering: highest Y row first, `*` pass, `.` fail — the
    /// classic tester shmoo output.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for yi in (0..self.y.len()).rev() {
            out.push_str(&format!("{:8.3} |", self.y.at(yi)));
            for xi in 0..self.x.len() {
                out.push(if self.at(xi, yi) { '*' } else { '.' });
            }
            out.push('\n');
        }
        out.push_str(&axis_footer(&self.x));
        out
    }

    /// CSV rendering: `y,x,pass` triples with a header.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "{}_{},{}_{},pass\n",
            self.y.kind().unit_symbol(),
            "y",
            self.x.kind().unit_symbol(),
            "x"
        );
        for yi in 0..self.y.len() {
            for xi in 0..self.x.len() {
                out.push_str(&format!(
                    "{:.4},{:.4},{}\n",
                    self.y.at(yi),
                    self.x.at(xi),
                    u8::from(self.at(xi, yi))
                ));
            }
        }
        out
    }
}

impl fmt::Display for ShmooPlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_ascii())
    }
}

/// Many tests' shmoos accumulated cell-wise — fig. 8's "1000 tests
/// overlapping in a single shmoo plot".
///
/// Each cell counts how many tests passed there; rows additionally track
/// the min/max X boundary across tests, which is the *worst case trip
/// point variation* band of fig. 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlayShmoo {
    x: Axis,
    y: Axis,
    counts: Vec<u32>,
    tests: u32,
    /// Per-row `(min, max)` boundary across added tests.
    row_spread: Vec<Option<(f64, f64)>>,
    order: RegionOrder,
}

impl OverlayShmoo {
    /// Creates an empty overlay for the given axes; `order` defines which
    /// side of the X axis passes.
    pub fn new(x: Axis, y: Axis, order: RegionOrder) -> Self {
        let cells = x.len() * y.len();
        let rows = y.len();
        Self {
            x,
            y,
            counts: vec![0; cells],
            tests: 0,
            row_spread: vec![None; rows],
            order,
        }
    }

    /// Captures every test's shmoo on its own deterministic session from
    /// `blueprint` across worker threads and accumulates them in test
    /// order — the fig. 8 "1000 tests overlapping in a single shmoo
    /// plot" hot path.
    ///
    /// Test *i* always runs on the session seeded by
    /// `derive_seed(campaign seed, i)` and plots are folded back in test
    /// order, so the overlay (and merged ledger) are bit-identical for
    /// every thread count.
    pub fn capture_overlay(
        blueprint: &ParallelAte,
        tests: &[Test],
        x: Axis,
        y: Axis,
        order: RegionOrder,
        policy: ExecPolicy,
    ) -> (Self, MeasurementLedger) {
        let plots = cichar_exec::par_map_ref(policy, tests, |i, test| {
            let mut session = blueprint.session(i as u64);
            let plot = ShmooPlot::capture(&mut session, test, x.clone(), y.clone());
            (plot, *session.ledger())
        });
        let mut overlay = Self::new(x, y, order);
        let mut ledger = MeasurementLedger::new();
        for (plot, plot_ledger) in plots {
            overlay.add(&plot);
            ledger.merge(&plot_ledger);
        }
        (overlay, ledger)
    }

    /// Accumulates one test's shmoo.
    ///
    /// # Panics
    ///
    /// Panics if the plot's axes differ from the overlay's.
    pub fn add(&mut self, plot: &ShmooPlot) {
        assert_eq!(plot.x_axis(), &self.x, "x axis mismatch");
        assert_eq!(plot.y_axis(), &self.y, "y axis mismatch");
        for (cell, &pass) in self.counts.iter_mut().zip(&plot.grid) {
            *cell += u32::from(pass);
        }
        for yi in 0..self.y.len() {
            if let Some(boundary) = plot.row_boundary(yi, self.order) {
                let entry = &mut self.row_spread[yi];
                *entry = Some(match *entry {
                    None => (boundary, boundary),
                    Some((lo, hi)) => (lo.min(boundary), hi.max(boundary)),
                });
            }
        }
        self.tests += 1;
    }

    /// Number of accumulated tests.
    pub fn tests(&self) -> u32 {
        self.tests
    }

    /// Fraction of tests passing at cell `(xi, yi)`.
    pub fn pass_fraction(&self, xi: usize, yi: usize) -> f64 {
        assert!(xi < self.x.len() && yi < self.y.len(), "index out of grid");
        if self.tests == 0 {
            return 0.0;
        }
        f64::from(self.counts[yi * self.x.len() + xi]) / f64::from(self.tests)
    }

    /// The `(min, max)` X-boundary across tests for row `yi` — the
    /// parameter-variation band fig. 8 annotates.
    pub fn row_spread(&self, yi: usize) -> Option<(f64, f64)> {
        self.row_spread[yi]
    }

    /// The widest row spread on the plot, as `(y, min_x, max_x)`.
    pub fn worst_spread(&self) -> Option<(f64, f64, f64)> {
        (0..self.y.len())
            .filter_map(|yi| self.row_spread[yi].map(|(lo, hi)| (self.y.at(yi), lo, hi)))
            .max_by(|a, b| (a.2 - a.1).total_cmp(&(b.2 - b.1)))
    }

    /// ASCII rendering with a density ramp: cells where *every* test passes
    /// print `*`, cells where none do print `.`, the boundary band in
    /// between prints digits for the passing-test decile (1–9).
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for yi in (0..self.y.len()).rev() {
            out.push_str(&format!("{:8.3} |", self.y.at(yi)));
            for xi in 0..self.x.len() {
                let f = self.pass_fraction(xi, yi);
                out.push(if f >= 1.0 {
                    '*'
                } else if f <= 0.0 {
                    '.'
                } else {
                    char::from_digit(((f * 10.0) as u32).clamp(1, 9), 10)
                        .expect("decile is a digit")
                });
            }
            out.push('\n');
        }
        out.push_str(&axis_footer(&self.x));
        out
    }
}

impl fmt::Display for OverlayShmoo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_ascii())
    }
}

fn axis_footer(x: &Axis) -> String {
    let mut footer = format!("{:8} +{}\n", "", "-".repeat(x.len()));
    footer.push_str(&format!(
        "{:8}  {:<12.3}{:>width$.3} {}\n",
        "",
        x.at(0),
        x.at(x.len() - 1),
        x.kind().unit_symbol(),
        width = x.len().saturating_sub(12).max(1)
    ));
    footer
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_dut::MemoryDevice;
    use cichar_patterns::march;
    use cichar_units::ParamKind;

    fn axes() -> (Axis, Axis) {
        (
            Axis::new(ParamKind::StrobeDelay, 18.0, 36.0, 19).expect("valid"),
            Axis::new(ParamKind::SupplyVoltage, 1.5, 2.1, 7).expect("valid"),
        )
    }

    fn capture_march() -> ShmooPlot {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let test = Test::deterministic("march_c-", march::march_c_minus(64));
        let (x, y) = axes();
        ShmooPlot::capture(&mut ate, &test, x, y)
    }

    #[test]
    fn grid_has_axis_dimensions() {
        let plot = capture_march();
        assert_eq!(plot.grid.len(), 19 * 7);
        assert!(plot.pass_count() > 0);
        assert!(plot.pass_count() < plot.grid.len());
    }

    #[test]
    fn rows_are_monotone_pass_then_fail() {
        // T_DQ strobe: pass region below fail region — each row must be a
        // prefix of passes followed by fails (no holes in a noiseless
        // shmoo).
        let plot = capture_march();
        for yi in 0..plot.y_axis().len() {
            let mut seen_fail = false;
            for xi in 0..plot.x_axis().len() {
                let pass = plot.at(xi, yi);
                if seen_fail {
                    assert!(!pass, "hole at ({xi},{yi})");
                }
                if !pass {
                    seen_fail = true;
                }
            }
        }
    }

    #[test]
    fn boundary_rises_with_vdd() {
        let plot = capture_march();
        let low = plot
            .row_boundary(0, RegionOrder::PassBelowFail)
            .expect("boundary on axis");
        let high = plot
            .row_boundary(6, RegionOrder::PassBelowFail)
            .expect("boundary on axis");
        assert!(high > low, "window widens with Vdd: {low} vs {high}");
    }

    #[test]
    fn ascii_render_shape() {
        let plot = capture_march();
        let text = plot.render_ascii();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7 + 2, "7 rows + footer");
        assert!(lines[0].starts_with("   2.100"), "top row is highest Vdd");
        assert!(text.contains('*') && text.contains('.'));
    }

    #[test]
    fn csv_lists_every_cell() {
        let plot = capture_march();
        let csv = plot.to_csv();
        assert_eq!(csv.lines().count(), 1 + 19 * 7);
        assert!(csv.lines().nth(1).expect("row").ends_with(",1"));
    }

    #[test]
    fn overlay_accumulates_and_tracks_spread() {
        let (x, y) = axes();
        let mut overlay = OverlayShmoo::new(x, y, RegionOrder::PassBelowFail);
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let benign = Test::deterministic("march_c-", march::march_c_minus(64));
        let harsher = Test::deterministic("checkerboard", march::checkerboard(128));
        let (ax, ay) = axes();
        overlay.add(&ShmooPlot::capture(&mut ate, &benign, ax, ay));
        let (bx, by) = axes();
        overlay.add(&ShmooPlot::capture(&mut ate, &harsher, bx, by));
        assert_eq!(overlay.tests(), 2);
        let (_, lo, hi) = overlay.worst_spread().expect("both rows bounded");
        assert!(hi > lo, "two different tests spread the boundary");
    }

    #[test]
    fn overlay_fraction_extremes_render_as_star_and_dot() {
        let (x, y) = axes();
        let mut overlay = OverlayShmoo::new(x, y, RegionOrder::PassBelowFail);
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = Test::deterministic("march_c-", march::march_c_minus(64));
        let (ax, ay) = axes();
        overlay.add(&ShmooPlot::capture(&mut ate, &t, ax, ay));
        let text = overlay.render_ascii();
        assert!(text.contains('*') && text.contains('.'));
        assert_eq!(overlay.pass_fraction(0, 6), 1.0);
    }

    #[test]
    fn parallel_capture_matches_sequential_on_noiseless_sessions() {
        use crate::tester::AteConfig;
        use crate::{DriftModel, NoiseModel};
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::none(),
            seed: 0,
            ..AteConfig::default()
        };
        let blueprint = ParallelAte::new(MemoryDevice::nominal(), config);
        let test = Test::deterministic("march_c-", march::march_c_minus(64));
        let (x, y) = axes();
        let (parallel, ledger) =
            ShmooPlot::capture_parallel(&blueprint, &test, x, y, ExecPolicy::with_threads(4));
        assert_eq!(parallel, capture_march());
        assert_eq!(ledger.measurements(), (19 * 7) as u64);
    }

    #[test]
    fn parallel_capture_is_thread_count_invariant_even_with_noise() {
        use crate::tester::AteConfig;
        let blueprint = ParallelAte::new(
            MemoryDevice::nominal(),
            AteConfig {
                seed: 99,
                ..AteConfig::default()
            },
        );
        let test = Test::deterministic("march_c-", march::march_c_minus(64));
        let (x, y) = axes();
        let capture = |threads: usize| {
            ShmooPlot::capture_parallel(
                &blueprint,
                &test,
                x.clone(),
                y.clone(),
                ExecPolicy::with_threads(threads),
            )
        };
        assert_eq!(capture(1), capture(8));
    }

    #[test]
    fn parallel_overlay_matches_sequential_accumulation() {
        use crate::tester::AteConfig;
        use crate::{DriftModel, NoiseModel};
        let config = AteConfig {
            noise: NoiseModel::noiseless(),
            drift: DriftModel::none(),
            seed: 0,
            ..AteConfig::default()
        };
        let tests = vec![
            Test::deterministic("march_c-", march::march_c_minus(64)),
            Test::deterministic("checkerboard", march::checkerboard(128)),
            Test::deterministic("march_x", march::march_x(96)),
        ];
        let (x, y) = axes();
        let blueprint = ParallelAte::new(MemoryDevice::nominal(), config);
        let (overlay, ledger) = OverlayShmoo::capture_overlay(
            &blueprint,
            &tests,
            x.clone(),
            y.clone(),
            RegionOrder::PassBelowFail,
            ExecPolicy::with_threads(4),
        );
        // Sequential baseline: one shared noiseless session.
        let mut reference = OverlayShmoo::new(x.clone(), y.clone(), RegionOrder::PassBelowFail);
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        for t in &tests {
            reference.add(&ShmooPlot::capture(&mut ate, t, x.clone(), y.clone()));
        }
        assert_eq!(overlay, reference);
        assert_eq!(ledger.measurements(), ate.ledger().measurements());
        assert_eq!(overlay.tests(), 3);
    }

    #[test]
    #[should_panic(expected = "x axis mismatch")]
    fn overlay_rejects_mismatched_axes() {
        let (x, y) = axes();
        let mut overlay = OverlayShmoo::new(x, y, RegionOrder::PassBelowFail);
        let other_x = Axis::new(ParamKind::StrobeDelay, 10.0, 20.0, 5).expect("valid");
        let other_y = Axis::new(ParamKind::SupplyVoltage, 1.5, 2.1, 7).expect("valid");
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = Test::deterministic("march_c-", march::march_c_minus(64));
        overlay.add(&ShmooPlot::capture(&mut ate, &t, other_x, other_y));
    }

    #[test]
    #[should_panic(expected = "index out of grid")]
    fn at_rejects_out_of_range() {
        let plot = capture_march();
        let _ = plot.at(19, 0);
    }
}
