//! Text renderings of the paper's figures.
//!
//! The repro binaries in `cichar-bench` print these; each function maps to
//! one figure of the paper (see `DESIGN.md` §5).

use crate::dsv::DsvReport;
use cichar_search::SearchOutcome;
use std::fmt::Write as _;

/// Fig. 1 — the single-trip-point concept: a search trace plotted as
/// parameter value against search step, with pass/fail verdicts.
pub fn render_search_trace(outcome: &SearchOutcome, unit: &str) -> String {
    let mut out = String::from("step | value        | verdict\n-----+--------------+--------\n");
    for (i, (value, verdict)) in outcome.trace.iter().enumerate() {
        let _ = writeln!(out, "{i:>4} | {value:>9.3} {unit:<3}| {verdict}");
    }
    match (outcome.converged, outcome.trip_point) {
        (true, Some(tp)) => {
            let _ = writeln!(
                out,
                "trip point = {tp:.3} {unit} ({} measurements)",
                outcome.measurements()
            );
        }
        _ => {
            let _ = writeln!(out, "no trip point in range");
        }
    }
    out
}

/// Fig. 2 — the multiple-trip-point concept: each test's trip point as a
/// bar over the common parameter axis, with the worst-case variation band
/// annotated.
pub fn render_multi_trip(report: &DsvReport, unit: &str) -> String {
    let (Some(min), Some(max)) = (report.min(), report.max()) else {
        return String::from("no converged trip points\n");
    };
    let width = 46usize;
    let span = (max - min).max(1e-9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "multiple trip points over {} tests ({unit}):",
        report.entries.len()
    );
    for entry in &report.entries {
        let Some(tp) = entry.trip_point else {
            // Quarantined points say why they were excluded; a plain
            // unconverged search (no fault involved) keeps the old label.
            if entry.status.is_quarantined() {
                let _ = writeln!(
                    out,
                    "{:<20} | ({})",
                    truncate_name(&entry.test_name, 20),
                    entry.status
                );
            } else {
                let _ = writeln!(out, "{:<20} | (did not converge)", entry.test_name);
            }
            continue;
        };
        let pos = (((tp - min) / span) * (width - 1) as f64).round() as usize;
        let mut bar = vec![b'-'; width];
        bar[pos] = b'*';
        let _ = writeln!(
            out,
            "{:<20} |{}| {tp:.3}",
            truncate_name(&entry.test_name, 20),
            String::from_utf8(bar).expect("ascii")
        );
    }
    let _ = writeln!(
        out,
        "worst case trip point variation: {:.3} {unit} (min {min:.3}, max {max:.3})",
        max - min
    );
    let (recovered, quarantined) = (report.recovered(), report.quarantined());
    if recovered > 0 || quarantined > 0 {
        let _ = writeln!(
            out,
            "measurement robustness: {recovered} recovered, {quarantined} quarantined (excluded from the band)"
        );
    }
    out
}

/// Fig. 3 — the search-until-trip-point economics: measurement counts of
/// the full-range strategy against STP, per test and in total.
pub fn render_stp_saving(full: &DsvReport, stp: &DsvReport) -> String {
    let mut out = String::from(
        "test                 | full-range | search-until-trip\n\
         ---------------------+------------+------------------\n",
    );
    for (a, b) in full.entries.iter().zip(&stp.entries) {
        let _ = writeln!(
            out,
            "{:<20} | {:>10} | {:>17}",
            truncate_name(&a.test_name, 20),
            a.measurements,
            b.measurements
        );
    }
    let saving = 100.0 * (1.0 - stp.total_measurements as f64 / full.total_measurements.max(1) as f64);
    let _ = writeln!(
        out,
        "total                | {:>10} | {:>17}\nmeasurement saving: {saving:.1}%",
        full.total_measurements, stp.total_measurements
    );
    out
}

/// Fig. 6 — the WCR classification bands as a number line.
pub fn render_wcr_bands() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "WCR   0.0                0.8        1.0        >1");
    let _ = writeln!(out, "      |------------------|----------|----------->");
    let _ = writeln!(out, "            pass           weakness      fail");
    for (wcr, label) in [(0.619f64, "March"), (0.701, "Random"), (0.904, "NNGA")] {
        let pos = (wcr / 1.2 * 46.0).round() as usize;
        let _ = writeln!(out, "      {}^ {label} ({wcr})", " ".repeat(pos));
    }
    out
}

/// Fig. 7 — the `T_DQ` timing diagram: address change, data-invalid
/// window, then the valid window whose length is the measured parameter.
pub fn render_timing_diagram(t_dq_ns: f64, spec_ns: f64, cycle_ns: f64) -> String {
    let width = 60usize;
    let scale = width as f64 / cycle_ns;
    let invalid = ((cycle_ns - t_dq_ns) * scale).round() as usize;
    let invalid = invalid.min(width - 1);
    let valid = width - invalid;
    let mut out = String::new();
    let _ = writeln!(out, "Address   ==X{}", "=".repeat(width - 1));
    let _ = writeln!(
        out,
        "DQ bus      {}{}",
        "X".repeat(invalid),
        "V".repeat(valid)
    );
    let _ = writeln!(out, "            |- not valid | data valid |");
    let _ = writeln!(
        out,
        "T_DQ (data output valid time) = {t_dq_ns:.1} ns over a {cycle_ns:.0} ns cycle; spec >= {spec_ns:.0} ns"
    );
    let verdict = if t_dq_ns >= spec_ns { "meets" } else { "VIOLATES" };
    let _ = writeln!(out, "the measured window {verdict} the specification");
    out
}

fn truncate_name(name: &str, max: usize) -> String {
    if name.len() <= max {
        name.to_string()
    } else {
        format!("{}~", &name[..max - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsv::{MultiTripRunner, SearchStrategy};
    use cichar_ate::{Ate, MeasuredParam};
    use cichar_dut::MemoryDevice;
    use cichar_patterns::{march, random, Test, TestConditions};
    use cichar_search::{BinarySearch, Probe};
    use cichar_trace::Tracer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reports() -> (DsvReport, DsvReport) {
        let mut rng = StdRng::seed_from_u64(3);
        let tests: Vec<Test> = (0..8)
            .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
            .collect();
        let runner = MultiTripRunner::new(MeasuredParam::DataValidTime);
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let tracer = Tracer::disabled();
        let full = runner.run(&mut ate, &tests, SearchStrategy::FullRange, &tracer);
        let stp = runner.run(&mut ate, &tests, SearchStrategy::SearchUntilTrip, &tracer);
        (full, stp)
    }

    #[test]
    fn search_trace_lists_every_probe() {
        let mut ate = Ate::noiseless(MemoryDevice::nominal());
        let t = Test::deterministic("m", march::march_c_minus(64));
        let param = MeasuredParam::DataValidTime;
        let outcome = BinarySearch::new(param.generous_range(), param.resolution())
            .run(param.region_order(), ate.trip_oracle(&t, param));
        let text = render_search_trace(&outcome, "ns");
        assert_eq!(
            text.lines().count(),
            outcome.measurements() + 3,
            "{text}"
        );
        assert!(text.contains("trip point ="));
        assert!(text.contains("PASS") && text.contains("FAIL"));
    }

    #[test]
    fn unconverged_trace_says_so() {
        let outcome = SearchOutcome::unconverged(vec![(1.0, Probe::Pass)]);
        assert!(render_search_trace(&outcome, "V").contains("no trip point"));
    }

    #[test]
    fn multi_trip_shows_band() {
        let (_, stp) = reports();
        let text = render_multi_trip(&stp, "ns");
        assert!(text.contains("worst case trip point variation"));
        assert!(text.matches('*').count() >= stp.trip_points().len());
    }

    #[test]
    fn multi_trip_labels_quarantined_points() {
        use crate::dsv::{DsvEntry, QuarantineReason, TripStatus};
        let (_, mut stp) = reports();
        stp.entries.push(DsvEntry {
            test_name: String::from("flaky_contact"),
            trip_point: None,
            measurements: 12,
            status: TripStatus::Quarantined {
                reason: QuarantineReason::Dropout,
            },
        });
        stp.entries.push(DsvEntry {
            test_name: String::from("retried_ok"),
            trip_point: Some(stp.max().unwrap()),
            measurements: 9,
            status: TripStatus::Recovered {
                retries: 2,
                rebracketed: false,
            },
        });
        let text = render_multi_trip(&stp, "ns");
        assert!(text.contains("quarantined (dropout)"), "{text}");
        assert!(!text.contains("did not converge"), "{text}");
        assert!(
            text.contains("measurement robustness: 1 recovered, 1 quarantined"),
            "{text}"
        );
    }

    #[test]
    fn stp_saving_reports_percentage() {
        let (full, stp) = reports();
        let text = render_stp_saving(&full, &stp);
        assert!(text.contains("measurement saving:"), "{text}");
        assert!(text.contains('%'));
    }

    #[test]
    fn wcr_bands_mention_all_classes() {
        let text = render_wcr_bands();
        for word in ["pass", "weakness", "fail", "March", "NNGA"] {
            assert!(text.contains(word), "{text}");
        }
    }

    #[test]
    fn timing_diagram_scales_with_t_dq() {
        let wide = render_timing_diagram(32.3, 20.0, 60.0);
        let narrow = render_timing_diagram(22.1, 20.0, 60.0);
        let valid_len = |s: &str| s.matches('V').count();
        assert!(valid_len(&wide) > valid_len(&narrow));
        assert!(wide.contains("meets"));
        let violating = render_timing_diagram(18.0, 20.0, 60.0);
        assert!(violating.contains("VIOLATES"));
    }

    #[test]
    fn long_names_truncate() {
        assert_eq!(truncate_name("short", 20), "short");
        let t = truncate_name("a_very_long_test_name_indeed", 10);
        assert_eq!(t.len(), 10);
        assert!(t.ends_with('~'));
    }
}
