//! The backend admission test: device-level properties every registered
//! backend must satisfy for the search layers to characterize it.
//!
//! The workspace-level `tests/backend_conformance.rs` harness drives the
//! full battery (including ATE-level trip searches, a mini DSV and fault
//! recovery); this module holds the *device-level* half so backend
//! authors can run it from their own unit tests without pulling in the
//! tester crates.
//!
//! Every check returns `Result<(), String>` with a message naming the
//! violated property, so a failing backend reads as a contract report
//! rather than a panic backtrace.
//!
//! # Examples
//!
//! ```
//! use cichar_dut::{conformance, Registry};
//!
//! let device = Registry::builtin().create("netlist", &[]).unwrap();
//! conformance::verify_device(&device, &conformance::reference_patterns()).unwrap();
//! ```

use crate::backend::Device;
use crate::device::Parametrics;
use cichar_patterns::{march, ConditionSpace, Pattern, PatternFeatures, TestConditions};
use cichar_units::{Megahertz, Volts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The stimulus suite the battery sweeps: a benign march, a stressier
/// march and a hand-built worst-case-style toggle pattern, giving the
/// checks low-, mid- and high-stress operating points.
pub fn reference_patterns() -> Vec<Pattern> {
    vec![
        march::march_x(64),
        march::march_c_minus(64),
        march::march_c_minus(256),
    ]
}

/// Runs the full device-level battery against one backend instance.
pub fn verify_device(device: &Device, patterns: &[Pattern]) -> Result<(), String> {
    if patterns.is_empty() {
        return Err("conformance needs at least one stimulus pattern".to_string());
    }
    for pattern in patterns {
        let features = PatternFeatures::extract(pattern);
        check_physical_bounds(device, &features)?;
        check_single_crossing_axes(device, &features)?;
        check_monotone_supply_response(device, &features)?;
        check_stress_hoist_parity(device, &features)?;
        check_batch_parity(device, &features)?;
        check_prepared_parity(device, &features)?;
    }
    check_stress_is_die_and_condition_free(device, patterns)?;
    check_for_die_contract(device)?;
    check_seeded_die_sampling(device)?;
    check_corner_ordering(device)?;
    Ok(())
}

/// Parametrics must be finite and inside physically meaningful bounds at
/// every condition point of a coarse grid.
pub fn check_physical_bounds(device: &Device, features: &PatternFeatures) -> Result<(), String> {
    for c in condition_grid() {
        let p = device.evaluate_features(features, &c);
        let (t, f, v) = (p.t_dq.value(), p.f_max.value(), p.vdd_min.value());
        if !(t.is_finite() && f.is_finite() && v.is_finite()) {
            return Err(format!("non-finite parametrics at {c:?}: {p}"));
        }
        if !(t >= 1.0 && f >= 10.0 && (0.5..3.0).contains(&v)) {
            return Err(format!("parametrics outside physical bounds at {c:?}: {p}"));
        }
    }
    Ok(())
}

/// Single-crossing along the forced axes: raising the forced `vdd` must
/// never *raise* `vdd_min`, and raising the forced `clock` must never
/// *raise* `f_max`. Then `vdd - vdd_min(vdd)` and `clock - f_max(clock)`
/// are strictly increasing along their sweeps, so each axis crosses
/// pass/fail exactly once and bisection keeps its bracket.
pub fn check_single_crossing_axes(
    device: &Device,
    features: &PatternFeatures,
) -> Result<(), String> {
    let nominal = TestConditions::nominal();
    let mut prev: Option<(f64, f64)> = None;
    for step in 0..=40 {
        let vdd = 1.1 + 0.025 * f64::from(step);
        let p = device.evaluate_features(features, &nominal.with_vdd(Volts::new(vdd)));
        if let Some((pv, pm)) = prev {
            if p.vdd_min.value() > pm + 1e-12 {
                return Err(format!(
                    "vdd_min rises with forced vdd ({pm} V at {pv} V vs {} V at {vdd} V) — \
                     a MinVoltage sweep could cross pass/fail more than once",
                    p.vdd_min.value()
                ));
            }
        }
        prev = Some((vdd, p.vdd_min.value()));
    }
    let mut prev: Option<(f64, f64)> = None;
    for step in 0..=40 {
        let clock = 60.0 + 1.75 * f64::from(step);
        let p = device.evaluate_features(features, &nominal.with_clock(Megahertz::new(clock)));
        if let Some((pc, pf)) = prev {
            if p.f_max.value() > pf + 1e-12 {
                return Err(format!(
                    "f_max rises with forced clock ({pf} MHz at {pc} MHz vs {} MHz at {clock} MHz) — \
                     a MaxFrequency sweep could cross pass/fail more than once",
                    p.f_max.value()
                ));
            }
        }
        prev = Some((clock, p.f_max.value()));
    }
    Ok(())
}

/// Dropping the supply must never *improve* timing: `t_dq` and `f_max`
/// are weakly monotone in `vdd` across the characterization window, so a
/// fail region stays bracketed once found.
pub fn check_monotone_supply_response(
    device: &Device,
    features: &PatternFeatures,
) -> Result<(), String> {
    let nominal = TestConditions::nominal();
    let mut prev: Option<(f64, f64, f64)> = None;
    for step in 0..=40 {
        let vdd = 1.1 + 0.025 * f64::from(step);
        let p = device.evaluate_features(features, &nominal.with_vdd(Volts::new(vdd)));
        if let Some((pv, pt, pf)) = prev {
            if p.t_dq.value() + 1e-12 < pt {
                return Err(format!(
                    "t_dq not weakly increasing in vdd: {pt} ns at {pv} V but {} ns at {vdd} V",
                    p.t_dq.value()
                ));
            }
            if p.f_max.value() + 1e-12 < pf {
                return Err(format!(
                    "f_max not weakly increasing in vdd: {pf} MHz at {pv} V but {} MHz at {vdd} V",
                    p.f_max.value()
                ));
            }
        }
        prev = Some((vdd, p.t_dq.value(), p.f_max.value()));
    }
    Ok(())
}

/// `evaluate_with_stress(stress_total(f), c)` must be bit-identical to
/// `evaluate_features(f, c)` — the hoist the batched hot path performs.
pub fn check_stress_hoist_parity(
    device: &Device,
    features: &PatternFeatures,
) -> Result<(), String> {
    let stress = device.stress_total(features);
    for c in condition_grid() {
        let hoisted = device.evaluate_with_stress(stress, &c);
        let scalar = device.evaluate_features(features, &c);
        if hoisted != scalar {
            return Err(format!(
                "stress-hoisted evaluation diverges from scalar at {c:?}: {hoisted} vs {scalar}"
            ));
        }
    }
    Ok(())
}

/// Every element of `evaluate_batch` must be bit-identical to the
/// corresponding scalar call.
pub fn check_batch_parity(device: &Device, features: &PatternFeatures) -> Result<(), String> {
    let conditions = condition_grid();
    let batch = device.evaluate_batch(features, &conditions);
    if batch.len() != conditions.len() {
        return Err(format!(
            "evaluate_batch returned {} results for {} conditions",
            batch.len(),
            conditions.len()
        ));
    }
    for (c, got) in conditions.iter().zip(&batch) {
        let want = device.evaluate_features(features, c);
        if *got != want {
            return Err(format!(
                "batch element diverges from scalar at {c:?}: {got} vs {want}"
            ));
        }
    }
    // The buffer-reusing form must append (never clear) and match the
    // allocating form element for element.
    let sentinel = batch[0];
    let mut reused = vec![sentinel];
    device.evaluate_batch_into(features, &conditions, &mut reused);
    if reused.len() != conditions.len() + 1 || reused[0] != sentinel {
        return Err("evaluate_batch_into must append without clearing the buffer".to_string());
    }
    if reused[1..] != batch[..] {
        return Err("evaluate_batch_into diverges from evaluate_batch".to_string());
    }
    Ok(())
}

/// Prepared plans ([`crate::backend::PreparedEvaluator`]) must be
/// bit-identical to the scalar arithmetic: the hoisted fast path at the
/// plan's own conditions, the fallback for any other conditions the plan
/// is asked to serve, and a plan retargeted in place
/// ([`PreparedEvaluator::retarget`]), which must equal a plan freshly
/// prepared at its new conditions — or, declining, stay as it was.
///
/// [`PreparedEvaluator::retarget`]: crate::backend::PreparedEvaluator::retarget
pub fn check_prepared_parity(device: &Device, features: &PatternFeatures) -> Result<(), String> {
    let stress = device.stress_total(features);
    let grid = condition_grid();
    for c in &grid {
        let plan = device.prepare(c);
        if plan.conditions() != c {
            return Err(format!("prepare did not record its conditions at {c:?}"));
        }
        let fast = plan.evaluate_with_stress(stress);
        let want = device.evaluate_with_stress(stress, c);
        if fast != want {
            return Err(format!(
                "prepared evaluation diverges from scalar at {c:?}: {fast} vs {want}"
            ));
        }
        if device.evaluate_planned(plan.as_ref(), stress, c) != want {
            return Err(format!(
                "evaluate_planned missed the fast path at the plan's own conditions {c:?}"
            ));
        }
    }
    // A plan prepared at nominal serving the whole grid: every off-plan
    // point must fall back to the scalar arithmetic unchanged.
    let plan = device.prepare(&TestConditions::nominal());
    for c in &grid {
        let got = device.evaluate_planned(plan.as_ref(), stress, c);
        let want = device.evaluate_with_stress(stress, c);
        if got != want {
            return Err(format!(
                "planned fallback diverges from scalar at {c:?}: {got} vs {want}"
            ));
        }
    }
    check_retarget_parity(device, stress)
}

/// One plan retargeted along a seeded walk of random conditions, probed
/// at random stress totals around `stress` after every move.
fn check_retarget_parity(device: &Device, stress: f64) -> Result<(), String> {
    let bits = |p: Parametrics| [p.t_dq.value(), p.f_max.value(), p.vdd_min.value()].map(f64::to_bits);
    let space = ConditionSpace::default();
    let mut rng = StdRng::seed_from_u64(0x7E7A_4DE7);
    let mut plan = device.prepare(&space.sample(&mut rng));
    for _ in 0..48 {
        let from = *plan.conditions();
        let to = space.sample(&mut rng);
        let fresh = device.prepare(&to);
        let retargeted = plan.retarget(&to);
        let at = if retargeted { to } else { from };
        if *plan.conditions() != at {
            return Err(format!(
                "retarget from {from:?} to {to:?} (returning {retargeted}) left the plan at {:?}",
                plan.conditions()
            ));
        }
        for _ in 0..8 {
            let s = stress * rng.gen_range(0.0..2.0);
            let got = bits(plan.evaluate_with_stress(s));
            let scalar = bits(device.evaluate_with_stress(s, &at));
            if got != scalar {
                return Err(format!(
                    "plan retargeted from {from:?} to {to:?} diverges from scalar at stress {s}"
                ));
            }
            if retargeted && got != bits(fresh.evaluate_with_stress(s)) {
                return Err(format!(
                    "plan retargeted from {from:?} to {to:?} diverges from a fresh plan at stress {s}"
                ));
            }
        }
        if !retargeted {
            plan = fresh;
        }
    }
    Ok(())
}

/// The stress total is a function of the stimulus features alone: it
/// must be identical across dies of the same structure (conditions never
/// enter its signature at all).
pub fn check_stress_is_die_and_condition_free(
    device: &Device,
    patterns: &[Pattern],
) -> Result<(), String> {
    let other = device.for_die(device.sample_die(0xD1E5, 17));
    for pattern in patterns {
        let features = PatternFeatures::extract(pattern);
        let here = device.stress_total(&features);
        let there = other.stress_total(&features);
        if here.to_bits() != there.to_bits() {
            return Err(format!(
                "stress_total depends on the die ({here} vs {there}) — \
                 the multi-site shared hoist would be unsound"
            ));
        }
    }
    Ok(())
}

/// `for_die` must swap the die while preserving the structural key, so
/// touchdown sessions built from one prototype share stress arithmetic.
pub fn check_for_die_contract(device: &Device) -> Result<(), String> {
    let die = device.sample_die(0xA11CE, 5);
    let redied = device.for_die(die);
    if redied.die() != &die {
        return Err("for_die did not install the requested die".to_string());
    }
    if redied.structural_key() != device.structural_key() {
        return Err("for_die changed the structural key".to_string());
    }
    if redied.name() != device.name() {
        return Err("for_die changed the backend name".to_string());
    }
    Ok(())
}

/// Seeded die sampling must be reproducible, index-sensitive and
/// seed-sensitive — `derive_seed` compatibility for wafer determinism.
pub fn check_seeded_die_sampling(device: &Device) -> Result<(), String> {
    if device.sample_die(11, 4) != device.sample_die(11, 4) {
        return Err("sample_die is not reproducible for equal (seed, index)".to_string());
    }
    if device.sample_die(11, 4) == device.sample_die(11, 5) {
        return Err("sample_die ignores the die index".to_string());
    }
    if device.sample_die(11, 4).speed() == device.sample_die(12, 4).speed() {
        return Err("sample_die ignores the lot seed".to_string());
    }
    if device.sample_die(11, 4).id() != 4 {
        return Err("sample_die must stamp the die with its index as id".to_string());
    }
    Ok(())
}

/// Corner dies must order the way process corners do: fast silicon is
/// faster than slow silicon.
pub fn check_corner_ordering(device: &Device) -> Result<(), String> {
    use crate::process::ProcessCorner;
    let fast = device.corner_die(ProcessCorner::Fast);
    let slow = device.corner_die(ProcessCorner::Slow);
    if fast.speed() <= slow.speed() {
        return Err(format!(
            "corner dies out of order: fast speed {} <= slow speed {}",
            fast.speed(),
            slow.speed()
        ));
    }
    Ok(())
}

/// Two *different* backends given the same lot seed must draw
/// independent (non-correlated) die-parameter streams: per-backend
/// seed-salting keeps one backend's process model from aliasing
/// another's. Sameness is checked on the speed draw, the parameter every
/// backend uses.
pub fn check_draw_independence(a: &Device, b: &Device, lot_seed: u64, count: usize) -> Result<(), String> {
    if a.name() == b.name() {
        return Err("draw-independence check needs two different backends".to_string());
    }
    let draws_a: Vec<f64> = (0..count).map(|i| a.sample_die(lot_seed, i as u32).speed()).collect();
    let draws_b: Vec<f64> = (0..count).map(|i| b.sample_die(lot_seed, i as u32).speed()).collect();
    if draws_a == draws_b {
        return Err(format!(
            "backends '{}' and '{}' draw identical die streams for lot seed {lot_seed}",
            a.name(),
            b.name()
        ));
    }
    let corr = correlation(&draws_a, &draws_b);
    if corr.abs() > 0.5 {
        return Err(format!(
            "die draws of '{}' and '{}' are correlated (r={corr:.3}) for lot seed {lot_seed}",
            a.name(),
            b.name()
        ));
    }
    Ok(())
}

/// Pearson correlation of two equal-length samples (0.0 when degenerate).
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len()) as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / n;
    let (ma, mb) = (mean(a), mean(b));
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let var = |xs: &[f64], m: f64| xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    let denom = (var(a, ma) * var(b, mb)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        cov / denom
    }
}

/// The coarse condition grid the parity and bounds checks sweep: the
/// cross of supply, temperature and clock points spanning the
/// characterization windows.
fn condition_grid() -> Vec<TestConditions> {
    let mut grid = Vec::new();
    for vdd in [1.2, 1.5, 1.8, 2.0] {
        for temp in [0.0, 25.0, 85.0] {
            for clock in [60.0, 100.0, 125.0] {
                grid.push(
                    TestConditions::nominal()
                        .with_vdd(Volts::new(vdd))
                        .with_temperature(cichar_units::Celsius::new(temp))
                        .with_clock(Megahertz::new(clock)),
                );
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn every_builtin_backend_passes_the_device_battery() {
        let registry = Registry::builtin();
        let patterns = reference_patterns();
        for name in registry.names() {
            let device = registry.create(name, &[]).unwrap();
            verify_device(&device, &patterns)
                .unwrap_or_else(|err| panic!("backend '{name}' failed conformance: {err}"));
        }
    }

    #[test]
    fn builtin_backend_pairs_draw_independent_dies() {
        let registry = Registry::builtin();
        let devices: Vec<_> = registry
            .names()
            .iter()
            .map(|n| registry.create(n, &[]).unwrap())
            .collect();
        for i in 0..devices.len() {
            for j in (i + 1)..devices.len() {
                check_draw_independence(&devices[i], &devices[j], 0x5EED, 64)
                    .unwrap_or_else(|err| panic!("{err}"));
            }
        }
    }

    #[test]
    fn correlation_detects_identical_streams() {
        let xs: Vec<f64> = (0..32).map(f64::from).collect();
        assert!((correlation(&xs, &xs) - 1.0).abs() < 1e-12);
    }
}
