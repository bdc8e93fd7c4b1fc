//! The oracle abstraction searches probe through.

use crate::outcome::Probe;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which side of the trip point the pass region lies on.
///
/// §4 distinguishes the two orientations with eqs. (3) and (4):
///
/// * [`RegionOrder::PassBelowFail`] — eq. (3): "the upper boundary value P
///   of the pass region is smaller than the lower boundary F of the fail
///   region", e.g. clock frequency (works up to `f_max`, fails above) or a
///   DQ strobe delay (data valid up to `t_dq`, stale after).
/// * [`RegionOrder::PassAboveFail`] — eq. (4): the pass region sits above
///   the fail region, e.g. supply voltage (works down to `vdd_min`, fails
///   below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionOrder {
    /// Pass region at low parameter values, fail region above (eq. 3).
    PassBelowFail,
    /// Pass region at high parameter values, fail region below (eq. 4).
    PassAboveFail,
}

impl RegionOrder {
    /// Signed direction from the pass region toward the fail region:
    /// `+1.0` when failure lies at higher values, `-1.0` when lower.
    pub fn toward_fail(self) -> f64 {
        match self {
            RegionOrder::PassBelowFail => 1.0,
            RegionOrder::PassAboveFail => -1.0,
        }
    }

    /// The opposite orientation.
    pub fn flipped(self) -> Self {
        match self {
            RegionOrder::PassBelowFail => RegionOrder::PassAboveFail,
            RegionOrder::PassAboveFail => RegionOrder::PassBelowFail,
        }
    }

    /// The short tag trace events carry: `eq3` for pass-below-fail,
    /// `eq4` for pass-above-fail — the paper's two step orientations.
    pub fn equation_tag(self) -> &'static str {
        match self {
            RegionOrder::PassBelowFail => "eq3",
            RegionOrder::PassAboveFail => "eq4",
        }
    }
}

impl fmt::Display for RegionOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RegionOrder::PassBelowFail => "pass<fail (eq.3)",
            RegionOrder::PassAboveFail => "fail<pass (eq.4)",
        })
    }
}

/// Anything that can answer "does the device pass at this parameter value?".
///
/// Implemented by the ATE simulator's measurement channels; tests use
/// [`FnOracle`]. Probing is `&mut self` because real measurements have
/// side effects — they cost test time, heat the device and advance drift.
pub trait PassFailOracle {
    /// Applies the parameter value and reports the device's verdict.
    fn probe(&mut self, value: f64) -> Probe;
}

impl<T: PassFailOracle + ?Sized> PassFailOracle for &mut T {
    fn probe(&mut self, value: f64) -> Probe {
        (**self).probe(value)
    }
}

/// An oracle that can resolve many probe values in one round trip.
///
/// Naturally-batched call sites — k-of-n vote strobes, GA fitness broods,
/// speculative bisection children — hand the whole value set to
/// [`BatchOracle::probe_batch_into`], letting the tester amortize ledger,
/// fault and trace bookkeeping over the batch instead of paying it per
/// probe. Both methods **append** their verdicts to a caller-owned buffer
/// (never clearing it), so hot loops can reuse one allocation across every
/// batch.
///
/// # Contract
///
/// `probe_batch_into(values, out)` must append exactly `values.len()`
/// verdicts, and element `i` must be **bit-identical** to what the `i`-th
/// of `values.len()` sequential [`PassFailOracle::probe`] calls would have
/// returned on the same oracle state — including noise draws, fault
/// injection and cache hits. Batching buys bookkeeping amortization, never
/// different physics. The default implementation is the scalar loop
/// itself, so any oracle satisfies the contract trivially.
pub trait BatchOracle: PassFailOracle {
    /// Resolves every value in order, as one batch, appending exactly
    /// `values.len()` verdicts to `out`. The default is the scalar probe
    /// loop.
    fn probe_batch_into(&mut self, values: &[f64], out: &mut Vec<Probe>) {
        out.reserve(values.len());
        for &v in values {
            let verdict = self.probe(v);
            out.push(verdict);
        }
    }

    /// [`Self::probe_batch_into`] with values from index
    /// `first_speculative` onward marked as *speculative*: pre-issued work
    /// (e.g. both children of the next bisection level) that the caller
    /// may discard unused.
    ///
    /// Verdicts are identical to [`Self::probe_batch_into`]; only the
    /// accounting differs — oracles with a measurement ledger mark the
    /// speculative tail so probe-economy numbers can subtract the waste.
    /// The default ignores the marker.
    fn probe_batch_speculative_into(
        &mut self,
        values: &[f64],
        first_speculative: usize,
        out: &mut Vec<Probe>,
    ) {
        let _ = first_speculative;
        self.probe_batch_into(values, out);
    }
}

impl<T: BatchOracle + ?Sized> BatchOracle for &mut T {
    fn probe_batch_into(&mut self, values: &[f64], out: &mut Vec<Probe>) {
        (**self).probe_batch_into(values, out)
    }

    fn probe_batch_speculative_into(
        &mut self,
        values: &[f64],
        first_speculative: usize,
        out: &mut Vec<Probe>,
    ) {
        (**self).probe_batch_speculative_into(values, first_speculative, out)
    }
}

/// A closure-backed oracle: `true` means pass.
///
/// # Examples
///
/// ```
/// use cichar_search::{FnOracle, PassFailOracle, Probe};
///
/// let mut oracle = FnOracle::new(|v| v >= 1.45);
/// assert_eq!(oracle.probe(1.8), Probe::Pass);
/// assert_eq!(oracle.probe(1.2), Probe::Fail);
/// assert_eq!(oracle.probes(), 2);
/// ```
#[derive(Debug)]
pub struct FnOracle<F> {
    f: F,
    probes: usize,
}

impl<F: FnMut(f64) -> bool> FnOracle<F> {
    /// Wraps a pass predicate.
    pub fn new(f: F) -> Self {
        Self { f, probes: 0 }
    }

    /// How many times the oracle has been probed.
    pub fn probes(&self) -> usize {
        self.probes
    }
}

impl<F: FnMut(f64) -> bool> PassFailOracle for FnOracle<F> {
    fn probe(&mut self, value: f64) -> Probe {
        self.probes += 1;
        if (self.f)(value) {
            Probe::Pass
        } else {
            Probe::Fail
        }
    }
}

impl<F: FnMut(f64) -> bool> BatchOracle for FnOracle<F> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toward_fail_signs() {
        assert_eq!(RegionOrder::PassBelowFail.toward_fail(), 1.0);
        assert_eq!(RegionOrder::PassAboveFail.toward_fail(), -1.0);
    }

    #[test]
    fn flipped_is_involution() {
        for order in [RegionOrder::PassBelowFail, RegionOrder::PassAboveFail] {
            assert_eq!(order.flipped().flipped(), order);
            assert_ne!(order.flipped(), order);
        }
    }

    #[test]
    fn fn_oracle_counts_probes() {
        let mut oracle = FnOracle::new(|v| v < 5.0);
        for i in 0..7 {
            let _ = oracle.probe(f64::from(i));
        }
        assert_eq!(oracle.probes(), 7);
    }

    #[test]
    fn mut_ref_is_an_oracle() {
        fn takes_oracle<O: PassFailOracle>(mut o: O) -> Probe {
            o.probe(0.0)
        }
        let mut oracle = FnOracle::new(|_| true);
        assert_eq!(takes_oracle(&mut oracle), Probe::Pass);
        assert_eq!(oracle.probes(), 1);
    }

    #[test]
    fn default_probe_batch_is_the_scalar_loop() {
        let values = [1.0, 7.0, 3.0, 9.0];
        let mut batched = FnOracle::new(|v| v < 5.0);
        let mut batch = Vec::new();
        batched.probe_batch_into(&values, &mut batch);
        let mut scalar = FnOracle::new(|v| v < 5.0);
        let loop_verdicts: Vec<Probe> = values.iter().map(|&v| scalar.probe(v)).collect();
        assert_eq!(batch, loop_verdicts);
        assert_eq!(batched.probes(), scalar.probes());
        // The speculative marker changes nothing for a ledger-less oracle.
        let mut spec = FnOracle::new(|v| v < 5.0);
        let mut spec_batch = Vec::new();
        spec.probe_batch_speculative_into(&values, 1, &mut spec_batch);
        assert_eq!(spec_batch, batch);
    }

    #[test]
    fn into_variants_append_without_clearing() {
        let values = [1.0, 7.0, 3.0];
        let mut oracle = FnOracle::new(|v| v < 5.0);
        let mut out = vec![Probe::Invalid];
        oracle.probe_batch_into(&values, &mut out);
        assert_eq!(
            out,
            vec![Probe::Invalid, Probe::Pass, Probe::Fail, Probe::Pass]
        );
        let mut spec_out = vec![Probe::Invalid];
        let mut spec = FnOracle::new(|v| v < 5.0);
        spec.probe_batch_speculative_into(&values, 1, &mut spec_out);
        assert_eq!(spec_out, out, "marker never changes verdicts");
    }

    #[test]
    fn mut_ref_is_a_batch_oracle() {
        fn takes_batch<O: BatchOracle>(mut o: O) -> Vec<Probe> {
            let mut out = Vec::new();
            o.probe_batch_into(&[0.0, 10.0], &mut out);
            o.probe_batch_speculative_into(&[0.0, 10.0], 1, &mut out);
            out
        }
        let mut oracle = FnOracle::new(|v| v < 5.0);
        assert_eq!(
            takes_batch(&mut oracle),
            vec![Probe::Pass, Probe::Fail, Probe::Pass, Probe::Fail]
        );
        assert_eq!(oracle.probes(), 4);
    }

    #[test]
    fn display_names_equations() {
        assert!(RegionOrder::PassBelowFail.to_string().contains("eq.3"));
        assert!(RegionOrder::PassAboveFail.to_string().contains("eq.4"));
    }
}
