//! Fuzzy weakness analysis of a test — §5's closing recommendation made
//! executable.
//!
//! "We strongly recommend to use fuzzy variables to encode measurement
//! values as fuzzy logic can describe more than one analysis parameter;
//! such as *if A and B and C, then D is quite close to the limit of the
//! target device-spec*."
//!
//! [`WeaknessAnalyzer`] holds a Mamdani rule base over the pattern-stress
//! mechanisms (simultaneous switching, supply resonance, address activity)
//! and the supply condition, and produces a crisp *proximity-to-limit*
//! score plus a linguistic explanation — the engineer-facing half of
//! fig. 5's "analyze the potential design weaknesses" step.

use cichar_fuzzy::{LinguisticVariable, MembershipFunction, Rule, RuleSet};
use cichar_patterns::{PatternFeatures, Test};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The analyzer's verdict for one test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeaknessReport {
    /// Crisp proximity-to-limit in `[0, 1]` (centroid of the inferred
    /// fuzzy output; 0 = far from the spec limit, 1 = at/over it).
    pub proximity: f64,
    /// The linguistic term that best describes the proximity.
    pub verdict: String,
    /// Rule activations, `(rule description, firing strength)`, strongest
    /// first — the "why".
    pub activations: Vec<(String, f64)>,
}

impl WeaknessReport {
    /// The strongest firing rule, if any fired.
    pub fn dominant_cause(&self) -> Option<&str> {
        self.activations
            .first()
            .filter(|(_, a)| *a > 0.0)
            .map(|(d, _)| d.as_str())
    }
}

impl fmt::Display for WeaknessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "proximity to limit: {:.2} ({})",
            self.proximity, self.verdict
        )?;
        for (desc, act) in self.activations.iter().filter(|(_, a)| *a > 0.05) {
            writeln!(f, "  [{act:.2}] {desc}")?;
        }
        Ok(())
    }
}

/// The §5 fuzzy rule base over stress mechanisms and supply condition.
///
/// # Examples
///
/// ```
/// use cichar_core::analysis::WeaknessAnalyzer;
/// use cichar_patterns::{march, Test};
///
/// let analyzer = WeaknessAnalyzer::new();
/// let report = analyzer.analyze(&Test::deterministic(
///     "march_c-",
///     march::march_c_minus(64),
/// ));
/// // A benign production test sits far from the limit.
/// assert!(report.proximity < 0.4, "{report}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeaknessAnalyzer {
    rules: RuleSet,
    descriptions: Vec<String>,
}

impl WeaknessAnalyzer {
    /// Builds the rule base.
    pub fn new() -> Self {
        let low_high = |name: &str| {
            let mut v = LinguisticVariable::new(name, 0.0, 1.0);
            v.add_term("low", MembershipFunction::trapezoidal(0.0, 0.0, 0.25, 0.55));
            v.add_term("high", MembershipFunction::trapezoidal(0.25, 0.55, 1.0, 1.0));
            v
        };
        let sso = low_high("sso");
        let resonance = low_high("resonance");
        let addr = low_high("addr");
        let mut vdd = LinguisticVariable::new("vdd", 1.5, 2.1);
        vdd.add_term(
            "starved",
            MembershipFunction::trapezoidal(1.5, 1.5, 1.62, 1.75),
        );
        vdd.add_term(
            "healthy",
            MembershipFunction::trapezoidal(1.62, 1.75, 2.1, 2.1),
        );

        let mut proximity = LinguisticVariable::new("proximity", 0.0, 1.0);
        proximity.add_term("far", MembershipFunction::triangular(0.0, 0.0, 0.45));
        proximity.add_term("approaching", MembershipFunction::triangular(0.25, 0.5, 0.75));
        proximity.add_term(
            "close_to_limit",
            MembershipFunction::triangular(0.55, 1.0, 1.0),
        );

        let mut rules = RuleSet::new(vec![sso, resonance, addr, vdd], proximity);
        let mut descriptions = Vec::new();
        let add = |rules: &mut RuleSet,
                       descriptions: &mut Vec<String>,
                       clauses: &[(&str, &str)],
                       consequent: &str,
                       text: &str| {
            rules
                .add_rule(Rule::new(
                    clauses.iter().map(|&(v, t)| (v, t)),
                    consequent,
                ))
                .expect("rule references validated terms");
            descriptions.push(text.to_string());
        };

        // §5's canonical three-clause shape: if A and B and C then D is
        // quite close to the limit.
        add(
            &mut rules,
            &mut descriptions,
            &[("sso", "high"), ("resonance", "high"), ("addr", "high")],
            "close_to_limit",
            "simultaneous switching AND supply resonance AND address activity \
             all high -> quite close to the limit of the target device-spec",
        );
        add(
            &mut rules,
            &mut descriptions,
            &[("sso", "high"), ("resonance", "high")],
            "approaching",
            "switching outputs pumping the supply at its resonant rhythm",
        );
        add(
            &mut rules,
            &mut descriptions,
            &[("sso", "high"), ("vdd", "starved")],
            "close_to_limit",
            "heavy output switching on a starved supply",
        );
        add(
            &mut rules,
            &mut descriptions,
            &[("resonance", "high"), ("vdd", "starved")],
            "close_to_limit",
            "supply resonance with no voltage margin to absorb it",
        );
        add(
            &mut rules,
            &mut descriptions,
            &[("sso", "high"), ("resonance", "low"), ("addr", "low")],
            "approaching",
            "raw switching stress alone, no coupling partners",
        );
        add(
            &mut rules,
            &mut descriptions,
            &[("sso", "low"), ("resonance", "low")],
            "far",
            "quiet bus: neither switching nor resonance stress",
        );
        add(
            &mut rules,
            &mut descriptions,
            &[("sso", "low"), ("addr", "high")],
            "far",
            "address activity alone is benign for the output window",
        );

        Self {
            rules,
            descriptions,
        }
    }

    /// Number of rules in the base.
    pub fn rule_count(&self) -> usize {
        self.descriptions.len()
    }

    /// Analyzes a complete test (features extracted internally).
    pub fn analyze(&self, test: &Test) -> WeaknessReport {
        self.analyze_features(&test.stimulus().features(), test.conditions().vdd.value())
    }

    /// Analyzes pre-extracted features at a given supply.
    pub fn analyze_features(&self, features: &PatternFeatures, vdd: f64) -> WeaknessReport {
        let inputs = [
            ("sso", features.dq_sso_mean),
            ("resonance", features.burst_resonance),
            ("addr", features.addr_ham_mean),
            ("vdd", vdd),
        ];
        let proximity = self
            .rules
            .infer(&inputs)
            .expect("all rule inputs supplied");
        let raw = self
            .rules
            .rule_activations(&inputs)
            .expect("all rule inputs supplied");
        // The verdict is the consequent of the strongest-firing rule; ties
        // break toward the more severe term (the higher output peak). This
        // keeps the linguistic verdict stable even when the centroid sits
        // on a band boundary.
        let verdict = self
            .rules
            .rules()
            .iter()
            .zip(&raw)
            .filter(|(_, &a)| a > 0.0)
            .max_by(|(ra, &aa), (rb, &ab)| {
                aa.total_cmp(&ab).then_with(|| {
                    let peak = |r: &Rule| {
                        self.rules
                            .output()
                            .term(&r.consequent_term)
                            .expect("validated")
                            .peak()
                    };
                    peak(ra).total_cmp(&peak(rb))
                })
            })
            .map(|(r, _)| r.consequent_term.replace('_', " "))
            // No rule fired: the stress profile sits between every term's
            // support, so the base has nothing to say.
            .unwrap_or_else(|| "indeterminate".to_string());
        let mut activations: Vec<(String, f64)> = self
            .descriptions
            .iter()
            .cloned()
            .zip(raw)
            .collect();
        activations.sort_by(|a, b| b.1.total_cmp(&a.1));
        WeaknessReport {
            proximity,
            verdict,
            activations,
        }
    }
}

impl Default for WeaknessAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_patterns::{march, Pattern, TestVector};
    use cichar_units::Volts;

    /// Ping-pong storm: complementary data at complementary addresses,
    /// burst-read at the resonant rhythm — all three stress mechanisms at
    /// full intensity.
    fn storm_test(vdd: f64) -> Test {
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
        Test::deterministic("storm", Pattern::new_clamped(v)).with_conditions(
            cichar_patterns::TestConditions::nominal().with_vdd(Volts::new(vdd)),
        )
    }

    #[test]
    fn benign_test_is_far_from_limit() {
        let analyzer = WeaknessAnalyzer::new();
        let report = analyzer.analyze(&Test::deterministic("m", march::march_c_minus(64)));
        assert!(report.proximity < 0.4, "{report}");
        assert_eq!(report.verdict, "far");
    }

    #[test]
    fn storm_on_starved_supply_is_close_to_limit() {
        let analyzer = WeaknessAnalyzer::new();
        let report = analyzer.analyze(&storm_test(1.55));
        assert!(report.proximity > 0.6, "{report}");
        assert_eq!(report.verdict, "close to limit");
    }

    /// A storm over *sequential* addresses: switching and resonance high,
    /// address activity low — the three-clause rule stays quiet, so the
    /// supply condition is what tips the verdict.
    fn seq_storm(vdd: f64) -> Test {
        let mut v = Vec::new();
        for i in 0..200u16 {
            let w = if i % 2 == 0 { 0x5555 } else { 0xAAAA };
            v.push(TestVector::write(i, w));
        }
        let mut i = 0u16;
        while v.len() < 990 {
            v.push(TestVector::write(200, 0));
            for _ in 0..12 {
                let w = if i.is_multiple_of(2) { 0x5555 } else { 0xAAAA };
                v.push(TestVector::read(i % 200, w));
                i = i.wrapping_add(1);
            }
        }
        Test::deterministic("seq_storm", Pattern::new_clamped(v)).with_conditions(
            cichar_patterns::TestConditions::nominal().with_vdd(Volts::new(vdd)),
        )
    }

    #[test]
    fn supply_level_modulates_the_verdict() {
        let analyzer = WeaknessAnalyzer::new();
        let starved = analyzer.analyze(&seq_storm(1.55)).proximity;
        let healthy = analyzer.analyze(&seq_storm(2.05)).proximity;
        assert!(starved > healthy, "{starved} vs {healthy}");
        // Even on a healthy supply the storm approaches the limit.
        assert!(healthy > 0.4, "storm is never 'far': {healthy}");
    }

    #[test]
    fn dominant_cause_names_the_three_clause_rule_for_the_storm() {
        let analyzer = WeaknessAnalyzer::new();
        let report = analyzer.analyze(&storm_test(1.8));
        let cause = report.dominant_cause().expect("rules fired");
        assert!(
            cause.contains("simultaneous switching")
                || cause.contains("resonant rhythm"),
            "{cause}"
        );
    }

    #[test]
    fn activations_are_sorted_and_complete() {
        let analyzer = WeaknessAnalyzer::new();
        let report = analyzer.analyze(&storm_test(1.7));
        assert_eq!(report.activations.len(), analyzer.rule_count());
        for pair in report.activations.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn display_lists_firing_rules() {
        let analyzer = WeaknessAnalyzer::new();
        let text = analyzer.analyze(&storm_test(1.55)).to_string();
        assert!(text.contains("proximity to limit"), "{text}");
        assert!(text.contains('['), "at least one activation shown: {text}");
    }

    #[test]
    fn proximity_is_always_in_unit_interval() {
        let analyzer = WeaknessAnalyzer::new();
        for (name, p) in march::standard_suite() {
            let report = analyzer.analyze(&Test::deterministic(name, p));
            assert!((0.0..=1.0).contains(&report.proximity), "{name}");
        }
    }
}
