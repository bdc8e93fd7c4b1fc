//! Gate-level timing-netlist backend.
//!
//! Where the memory backend's response surface is a calibrated analytic
//! model, this backend actually *builds* a circuit: a deterministic
//! layered DAG of logic gates whose per-gate delays come from the gate
//! kind plus a seeded jitter draw, in the style of procedural CPU/ALU
//! circuit builders. The device's true `t_dq` is the strobe budget minus
//! the propagated critical-path delay, `f_max` is the reciprocal of that
//! propagation, and `vdd_min` is the retention floor of the deepest path
//! — so pass/fail is literally "did the strobe beat the propagation".
//!
//! The stress mechanisms are those of wide combinational logic rather
//! than a memory array: simultaneous-switching-output crosstalk, bus
//! turnaround contention and resonant burst alignment. Address/row terms
//! of the memory model do not exist here.
//!
//! # Examples
//!
//! ```
//! use cichar_dut::{Device, NetlistDevice};
//!
//! let device: Device = NetlistDevice::default().into();
//! assert_eq!(device.name(), "netlist");
//! assert!(device.descriptor().starts_with("netlist:levels=12"));
//! ```

use crate::backend::{fnv1a, fnv1a_f64, Device, DeviceBackend, EvalPlan, PreparedEvaluator, FNV_OFFSET};
use crate::device::Parametrics;
use crate::process::Die;
use cichar_patterns::{PatternFeatures, TestConditions};
use cichar_units::{Megahertz, Nanoseconds, Volts};

/// The four gate kinds the builder draws from, with their base
/// propagation delays in nanoseconds (loaded 140 nm-class standard
/// cells; XOR trees are the slow ones).
const GATE_KINDS: [(&str, f64); 4] = [
    ("inv", 0.38),
    ("nand", 0.52),
    ("nor", 0.57),
    ("xor", 0.71),
];

/// splitmix64: the per-gate deterministic draw behind delay jitter.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a gate's coordinates.
fn gate_draw(seed: u64, level: u32, col: u32) -> f64 {
    let state = seed
        .wrapping_mul(0x1000_0000_01B3)
        .wrapping_add(u64::from(level) << 32)
        .wrapping_add(u64::from(col));
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A gate-level timing netlist as a device under test.
///
/// Construction synthesizes a `levels × width` layered DAG: each gate at
/// `(level, col)` takes the slower of two fan-in arrivals from the
/// previous level (its own column and a seeded cross-link), adds its own
/// jittered gate delay, and propagates. The critical path is the maximum
/// arrival at the output level.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistDevice {
    die: Die,
    levels: u32,
    width: u32,
    seed: u64,
    jitter: f64,
    strobe_budget: f64,
    /// Synthesized at construction: nominal critical-path delay (ns) on a
    /// typical die at nominal conditions.
    critical_path_ns: f64,
}

impl NetlistDevice {
    /// Builds the netlist from its structural parameters on a given die.
    ///
    /// `levels` is the logic depth, `width` the gates per level, `seed`
    /// the synthesis seed, `jitter` the fractional per-gate delay spread,
    /// and `strobe_budget` the capture window (ns) the critical path is
    /// strobed against.
    pub fn new(die: Die, levels: u32, width: u32, seed: u64, jitter: f64, strobe_budget: f64) -> Self {
        let levels = levels.max(1);
        let width = width.max(1);
        let mut arrivals = vec![0.0_f64; width as usize];
        for level in 0..levels {
            let prev = arrivals.clone();
            for col in 0..width {
                let draw = gate_draw(seed, level, col);
                let kind = (splitmix64(seed ^ (u64::from(level) << 17) ^ u64::from(col))
                    % GATE_KINDS.len() as u64) as usize;
                let base = GATE_KINDS[kind].1;
                let delay = base * (1.0 + jitter * (draw - 0.5));
                let cross = (col as usize
                    + 1
                    + (splitmix64(seed ^ u64::from(level * 31 + col)) % u64::from(width.max(2) - 1))
                        as usize)
                    % width as usize;
                let fan_in = prev[col as usize].max(prev[cross]);
                arrivals[col as usize] = fan_in + delay;
            }
        }
        let critical_path_ns = arrivals.iter().copied().fold(0.0_f64, f64::max);
        Self {
            die,
            levels,
            width,
            seed,
            jitter,
            strobe_budget,
            critical_path_ns,
        }
    }

    /// The default netlist (12 levels × 8 gates) on the nominal die,
    /// calibrated so all three measured parameters trip inside their
    /// characterization ranges.
    pub fn nominal() -> Self {
        Self::new(Die::nominal(), 12, 8, 7, 0.15, 38.0)
    }

    /// The nominal critical-path delay (ns) of the synthesized netlist on
    /// a typical die at nominal conditions.
    pub fn critical_path_ns(&self) -> f64 {
        self.critical_path_ns
    }

    /// Critical-path propagation (ns) on this die under given conditions
    /// and stress.
    fn propagation(&self, stress_total: f64, c: &TestConditions) -> f64 {
        let structural = self.critical_path_ns / self.die.speed().max(0.1);
        structural * delay_scale(c)
            + 0.30 * self.die.stress_sensitivity() * stress_total
    }

    /// The plain-data inputs a prepared plan hoists from.
    fn hoist_inputs(&self) -> HoistInputs {
        HoistInputs {
            critical_path_ns: self.critical_path_ns,
            speed: self.die.speed(),
            sens: self.die.stress_sensitivity(),
            vdd_min_offset: self.die.vdd_min_offset(),
            strobe_budget: self.strobe_budget,
        }
    }
}

/// Supply/temperature derating of gate delay (1.0 at nominal; no clock
/// term — propagation does not depend on how fast you strobe, which is
/// exactly the single-crossing property `f_max` sweeps need). The slopes
/// are gentle enough that `f_max` keeps headroom above the §4 relax
/// clock (100 MHz) over the whole characterization condition box —
/// otherwise T_DQ searches at hot/low-Vdd corners fail through the
/// frequency envelope and quarantine as unconverged, the paper's "false
/// convergence" trap in its other orientation.
fn delay_scale(c: &TestConditions) -> f64 {
    let dv = 1.8 - c.vdd.value();
    let dt = (c.temperature.value() - 25.0) / 100.0;
    (1.0 + 0.12 * dv + 0.035 * dt).max(0.5)
}

impl Default for NetlistDevice {
    fn default() -> Self {
        Self::nominal()
    }
}

impl DeviceBackend for NetlistDevice {
    fn name(&self) -> &'static str {
        "netlist"
    }

    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("levels", f64::from(self.levels)),
            ("width", f64::from(self.width)),
            ("seed", self.seed as f64),
            ("jitter", self.jitter),
            ("strobe_budget", self.strobe_budget),
        ]
    }

    fn stress_axes(&self) -> &'static [&'static str] {
        &["crosstalk", "turnaround", "resonance"]
    }

    fn die(&self) -> &Die {
        &self.die
    }

    fn structural_key(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.name().as_bytes());
        for (_, v) in self.params() {
            h = fnv1a_f64(h, v);
        }
        fnv1a_f64(h, self.critical_path_ns)
    }

    fn for_die(&self, die: Die) -> Box<dyn DeviceBackend> {
        Box::new(Self { die, ..self.clone() })
    }

    fn stress_total(&self, f: &PatternFeatures) -> f64 {
        // Wide-logic mechanisms: SSO crosstalk dominates, bus turnaround
        // contends for the output drivers, and resonant bursts align
        // aggressor edges with the victim's sampling window.
        2.2 * f.dq_sso_mean
            + 1.1 * f.turnaround_density
            + 2.6 * f.burst_resonance * f.dq_sso_mean
            + 0.8 * f.data_toggle_mean
    }

    fn evaluate_with_stress(&self, stress_total: f64, c: &TestConditions) -> Parametrics {
        let prop = self.propagation(stress_total, c);
        let t_dq = (self.strobe_budget - prop).max(1.0);
        // f_max strobes the same propagation, slightly less
        // stress-sensitive because the launch edge re-arms per cycle.
        let prop_f = self.critical_path_ns / self.die.speed().max(0.1)
            * delay_scale(c)
            + 0.06 * self.die.stress_sensitivity() * stress_total;
        let f_max = (1000.0 / prop_f.max(1.0)).max(10.0);
        // Retention floor of the deepest path: depends on temperature and
        // stress, never on the forced vdd (single-crossing along the
        // MinVoltage axis).
        let dt = (c.temperature.value() - 25.0) / 100.0;
        let vdd_min = 1.16
            + 0.024 * self.critical_path_ns
            + self.die.vdd_min_offset()
            + 0.025 * dt
            + 0.016 * self.die.stress_sensitivity() * stress_total;
        Parametrics {
            t_dq: Nanoseconds::new(t_dq),
            f_max: Megahertz::new(f_max),
            vdd_min: Volts::new(vdd_min),
        }
    }

    fn prepare(&self, c: &TestConditions) -> EvalPlan {
        Box::new(NetlistPlan::hoist(self.hoist_inputs(), c))
    }
}

/// What a netlist plan hoists from: the device's structure and die terms
/// as plain data. A plan keeps them, so it re-hoists at new conditions
/// without its device, through the same [`NetlistPlan::hoist`] that
/// `prepare` uses.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HoistInputs {
    critical_path_ns: f64,
    /// The die's speed factor.
    speed: f64,
    /// The die's stress sensitivity.
    sens: f64,
    /// The die's retention-floor offset.
    vdd_min_offset: f64,
    strobe_budget: f64,
}

/// Condition-hoisted plan for the netlist backend: the derated
/// structural propagation and the per-die stress slopes folded once per
/// set of conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetlistPlan {
    inputs: HoistInputs,
    conditions: TestConditions,
    /// `critical_path / speed · delay_scale(c)` — stress-free propagation.
    prop_base: f64,
    /// `0.30 · sens` — t_dq propagation stress slope.
    k_prop: f64,
    /// `0.06 · sens` — f_max propagation stress slope.
    k_prop_f: f64,
    /// The stress-free retention floor.
    v_base: f64,
    /// `0.016 · sens` — vdd_min stress slope.
    k_v: f64,
}

impl NetlistPlan {
    /// The plan at `c`. Each hoisted constant is a left-associated prefix
    /// of the corresponding expression in
    /// [`NetlistDevice::evaluate_with_stress`], so the plan's arithmetic
    /// is bit-identical to the scalar path.
    fn hoist(inputs: HoistInputs, c: &TestConditions) -> Self {
        let structural = inputs.critical_path_ns / inputs.speed.max(0.1);
        let dt = (c.temperature.value() - 25.0) / 100.0;
        Self {
            inputs,
            conditions: *c,
            prop_base: structural * delay_scale(c),
            k_prop: 0.30 * inputs.sens,
            k_prop_f: 0.06 * inputs.sens,
            v_base: 1.16 + 0.024 * inputs.critical_path_ns + inputs.vdd_min_offset + 0.025 * dt,
            k_v: 0.016 * inputs.sens,
        }
    }
}

impl PreparedEvaluator for NetlistPlan {
    fn conditions(&self) -> &TestConditions {
        &self.conditions
    }

    fn evaluate_with_stress(&self, stress_total: f64) -> Parametrics {
        let prop = self.prop_base + self.k_prop * stress_total;
        let t_dq = (self.inputs.strobe_budget - prop).max(1.0);
        let prop_f = self.prop_base + self.k_prop_f * stress_total;
        let f_max = (1000.0 / prop_f.max(1.0)).max(10.0);
        let vdd_min = self.v_base + self.k_v * stress_total;
        Parametrics {
            t_dq: Nanoseconds::new(t_dq),
            f_max: Megahertz::new(f_max),
            vdd_min: Volts::new(vdd_min),
        }
    }

    fn retarget(&mut self, conditions: &TestConditions) -> bool {
        *self = Self::hoist(self.inputs, conditions);
        true
    }
}

impl From<NetlistDevice> for Device {
    fn from(device: NetlistDevice) -> Self {
        Device::from_backend(Box::new(device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_patterns::march;

    #[test]
    fn synthesis_is_deterministic() {
        assert_eq!(NetlistDevice::nominal(), NetlistDevice::nominal());
        let a = NetlistDevice::new(Die::nominal(), 12, 8, 7, 0.15, 38.0);
        let b = NetlistDevice::new(Die::nominal(), 12, 8, 8, 0.15, 38.0);
        assert_ne!(a.critical_path_ns(), b.critical_path_ns());
    }

    #[test]
    fn nominal_parametrics_land_inside_characterization_ranges() {
        let device = NetlistDevice::nominal();
        let f = PatternFeatures::extract(&march::march_c_minus(64));
        let p = device.evaluate_features(&f, &TestConditions::nominal());
        assert!(p.t_dq.value() > 5.0 && p.t_dq.value() < 40.0, "t_dq={}", p.t_dq);
        assert!(p.f_max.value() > 80.0 && p.f_max.value() < 130.0, "f_max={}", p.f_max);
        assert!(p.vdd_min.value() > 1.1 && p.vdd_min.value() < 2.1, "vdd_min={}", p.vdd_min);
    }

    #[test]
    fn deeper_netlists_are_slower() {
        let shallow = NetlistDevice::new(Die::nominal(), 6, 8, 7, 0.15, 38.0);
        let deep = NetlistDevice::new(Die::nominal(), 24, 8, 7, 0.15, 38.0);
        assert!(deep.critical_path_ns() > shallow.critical_path_ns());
    }

    #[test]
    fn prepared_plan_is_bit_identical_to_scalar_path() {
        use cichar_units::{Celsius, Volts as V};
        let f = PatternFeatures::extract(&march::march_c_minus(64));
        for corner in [crate::ProcessCorner::Fast, crate::ProcessCorner::Slow] {
            let device = NetlistDevice::new(Die::at_corner(corner), 12, 8, 7, 0.15, 38.0);
            let stress = device.stress_total(&f);
            for vdd in [1.4, 1.8, 2.0] {
                for temp in [0.0, 85.0] {
                    let c = TestConditions::nominal()
                        .with_vdd(V::new(vdd))
                        .with_temperature(Celsius::new(temp));
                    let plan = device.prepare(&c);
                    assert_eq!(plan.conditions(), &c);
                    assert_eq!(
                        plan.evaluate_with_stress(stress),
                        device.evaluate_with_stress(stress, &c)
                    );
                }
            }
        }
    }

    #[test]
    fn a_retargeted_plan_equals_a_fresh_plan_field_for_field() {
        use cichar_units::{Celsius, Volts as V};
        let device = NetlistDevice::new(Die::at_corner(crate::ProcessCorner::Slow), 12, 8, 7, 0.15, 38.0);
        let at = |vdd: f64, temp: f64| {
            TestConditions::nominal()
                .with_vdd(V::new(vdd))
                .with_temperature(Celsius::new(temp))
        };
        let mut plan = NetlistPlan::hoist(device.hoist_inputs(), &at(1.8, 25.0));
        for c in [at(1.4, 85.0), at(2.0, 0.0), at(1.8, 25.0)] {
            assert!(plan.retarget(&c));
            let fresh = NetlistPlan::hoist(device.hoist_inputs(), &c);
            assert_eq!(plan, fresh);
            assert_eq!(format!("{plan:?}"), format!("{fresh:?}"), "same bits");
        }
    }

    #[test]
    fn structural_key_ignores_die_but_not_parameters() {
        let nominal = NetlistDevice::nominal();
        let redied = NetlistDevice::new(Die::at_corner(crate::ProcessCorner::Slow), 12, 8, 7, 0.15, 38.0);
        assert_eq!(nominal.structural_key(), redied.structural_key());
        let wider = NetlistDevice::new(Die::nominal(), 12, 9, 7, 0.15, 38.0);
        assert_ne!(nominal.structural_key(), wider.structural_key());
    }
}
