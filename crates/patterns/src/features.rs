//! Stress-feature extraction from test patterns.
//!
//! The paper's premise is that the trip point depends on the input test
//! through physical stress mechanisms — simultaneous-switching output (SSO)
//! noise on the DQ bus, address-bus activity, supply resonance excited by
//! rhythmic read bursts, bus turnarounds. [`PatternFeatures`] condenses a
//! [`Pattern`] into a fixed-length vector of those mechanisms' intensities,
//! normalized to `[0, 1]`.
//!
//! Two consumers read the same features:
//!
//! * the device model (`cichar-dut`) maps them through its response surface
//!   to the true parametric values, and
//! * the neural network learns the mapping *features → trip point* from
//!   ATE measurements (fig. 4), which is exactly the function the device
//!   model implements — so the learning problem is well-posed but, thanks
//!   to interaction terms, not trivially linear.

use crate::pattern::Pattern;
use crate::vector::{hamming, MemOp, TestVector, DATA_BITS, ROW_SHIFT};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of scalar features in [`PatternFeatures::to_array`].
pub const FEATURE_COUNT: usize = 14;

/// Read-burst length (cycles) at which the simulated power-delivery network
/// resonates. Bursts near this length pump the supply hardest.
pub const RESONANT_BURST_LEN: f64 = 12.0;

/// Width (standard deviation, cycles) of the resonance window.
pub const RESONANCE_SIGMA: f64 = 3.0;

/// Names of the features, index-aligned with [`PatternFeatures::to_array`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureNames;

impl FeatureNames {
    /// The feature names in vector order.
    pub const ALL: [&'static str; FEATURE_COUNT] = [
        "read_fraction",
        "write_fraction",
        "nop_fraction",
        "addr_ham_mean",
        "addr_ham_max",
        "dq_sso_mean",
        "dq_sso_max",
        "read_burst_max",
        "read_burst_mean",
        "burst_resonance",
        "row_switch_fraction",
        "turnaround_density",
        "data_toggle_mean",
        "read_after_write_fraction",
    ];
}

/// The normalized stress features of one pattern.
///
/// Every field lies in `[0, 1]`. See the module docs for the physical
/// meaning of each mechanism.
///
/// # Examples
///
/// ```
/// use cichar_patterns::{march, PatternFeatures};
///
/// let f = PatternFeatures::extract(&march::march_c_minus(64));
/// // March C- interleaves reads and writes: many bus turnarounds…
/// assert!(f.turnaround_density > 0.5);
/// // …but no adjacent same-data read pairs that toggle the DQ bus.
/// assert!(f.dq_sso_mean < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternFeatures {
    /// Fraction of cycles that read.
    pub read_fraction: f64,
    /// Fraction of cycles that write.
    pub write_fraction: f64,
    /// Fraction of idle cycles.
    pub nop_fraction: f64,
    /// Mean address-bus Hamming distance between consecutive active cycles.
    pub addr_ham_mean: f64,
    /// Maximum address-bus Hamming distance observed.
    pub addr_ham_max: f64,
    /// Mean DQ-bus Hamming distance across *adjacent* read pairs — the
    /// simultaneous-switching-output intensity.
    pub dq_sso_mean: f64,
    /// Maximum adjacent-read DQ Hamming distance.
    pub dq_sso_max: f64,
    /// Longest run of consecutive reads, relative to the 125-cycle segment
    /// cap.
    pub read_burst_max: f64,
    /// Mean read-burst length, same normalization.
    pub read_burst_mean: f64,
    /// Supply-resonance score: SSO-weighted Gaussian window around
    /// [`RESONANT_BURST_LEN`], summed over bursts and normalized.
    pub burst_resonance: f64,
    /// Fraction of consecutive active cycles that change the row address.
    pub row_switch_fraction: f64,
    /// Fraction of consecutive active cycles that reverse bus direction
    /// (write→read or read→write).
    pub turnaround_density: f64,
    /// Mean Hamming distance between consecutive driven data words
    /// (any operation).
    pub data_toggle_mean: f64,
    /// Fraction of reads that hit the immediately previously written
    /// address (read-after-write locality).
    pub read_after_write_fraction: f64,
}

impl PatternFeatures {
    /// Walks the pattern once and extracts all features.
    ///
    /// Reads observe the data word carried by the vector (generators fill
    /// it from a tracked memory image, so it equals what the device drives
    /// out).
    pub fn extract(pattern: &Pattern) -> Self {
        let mut fold = FeatureFold::new();
        for &v in pattern {
            fold.push(v);
        }
        fold.finish()
    }

    /// The features as a fixed-length array, index-aligned with
    /// [`FeatureNames::ALL`]. This is the neural network's input encoding
    /// (conditions are appended separately by the learning scheme).
    pub fn to_array(&self) -> [f64; FEATURE_COUNT] {
        [
            self.read_fraction,
            self.write_fraction,
            self.nop_fraction,
            self.addr_ham_mean,
            self.addr_ham_max,
            self.dq_sso_mean,
            self.dq_sso_max,
            self.read_burst_max,
            self.read_burst_mean,
            self.burst_resonance,
            self.row_switch_fraction,
            self.turnaround_density,
            self.data_toggle_mean,
            self.read_after_write_fraction,
        ]
    }

    /// True when every feature lies in `[0, 1]` — the extractor's
    /// normalization invariant.
    pub fn is_normalized(&self) -> bool {
        self.to_array().iter().all(|&x| (0.0..=1.0).contains(&x))
    }
}

impl fmt::Display for PatternFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values = self.to_array();
        for (name, value) in FeatureNames::ALL.iter().zip(values) {
            writeln!(f, "{name:>26}: {value:.4}")?;
        }
        Ok(())
    }
}

/// [`PatternFeatures::extract`] as a fold: feed the vectors in order with
/// [`Self::push`], then [`Self::finish`]. A stimulus can then be walked
/// as it is generated, without building its [`Pattern`].
///
/// Each read burst is folded in as it closes. The per-burst sums
/// (`burst_lens`, `resonance`) add their terms in burst order from
/// `-0.0`, as `Iterator::sum` does, so a pattern without a read burst
/// keeps `burst_resonance == -0.0`; the per-pair sums start at `+0.0`.
/// Every feature is bit-identical to the collected-bursts extraction.
#[derive(Debug)]
pub(crate) struct FeatureFold {
    reads: usize,
    writes: usize,
    nops: usize,
    /// Consecutive active pairs; address, row, turnaround and data-toggle
    /// features all average over them.
    pairs: usize,
    addr_ham_sum: f64,
    addr_ham_max: u32,
    sso_sum: f64,
    sso_max: u32,
    sso_pairs: usize,
    row_switches: usize,
    turnarounds: usize,
    data_toggle_sum: f64,
    raw_hits: usize,
    /// The open read burst.
    burst_len: usize,
    burst_sso_sum: f64,
    burst_sso_pairs: usize,
    /// The closed read bursts.
    bursts: usize,
    burst_max: usize,
    burst_lens: f64,
    resonance: f64,
    prev_active: Option<(MemOp, u16, u16)>,
    last_write: Option<u16>,
}

impl FeatureFold {
    pub(crate) fn new() -> Self {
        Self {
            reads: 0,
            writes: 0,
            nops: 0,
            pairs: 0,
            addr_ham_sum: 0.0,
            addr_ham_max: 0,
            sso_sum: 0.0,
            sso_max: 0,
            sso_pairs: 0,
            row_switches: 0,
            turnarounds: 0,
            data_toggle_sum: 0.0,
            raw_hits: 0,
            burst_len: 0,
            burst_sso_sum: 0.0,
            burst_sso_pairs: 0,
            bursts: 0,
            burst_max: 0,
            burst_lens: -0.0,
            resonance: -0.0,
            prev_active: None,
            last_write: None,
        }
    }

    /// Vectors pushed so far.
    pub(crate) fn cycles(&self) -> usize {
        self.reads + self.writes + self.nops
    }

    /// Folds in the next vector cycle.
    #[inline]
    pub(crate) fn push(&mut self, v: TestVector) {
        match v.op {
            MemOp::Read => self.reads += 1,
            MemOp::Write => self.writes += 1,
            MemOp::Nop => {
                // A NOP breaks a read burst but leaves bus state untouched.
                self.nops += 1;
                self.close_burst();
                return;
            }
        }
        if let Some((prev_op, prev_addr, prev_data)) = self.prev_active {
            let ah = hamming(prev_addr, v.address);
            self.addr_ham_sum += f64::from(ah);
            self.addr_ham_max = self.addr_ham_max.max(ah);
            self.pairs += 1;
            if (prev_addr >> ROW_SHIFT) != (v.address >> ROW_SHIFT) {
                self.row_switches += 1;
            }
            if prev_op != v.op {
                self.turnarounds += 1;
            }
            let dh = hamming(prev_data, v.data);
            self.data_toggle_sum += f64::from(dh);
            if prev_op == MemOp::Read && v.op == MemOp::Read {
                self.sso_sum += f64::from(dh);
                self.sso_max = self.sso_max.max(dh);
                self.sso_pairs += 1;
                self.burst_sso_sum += f64::from(dh);
                self.burst_sso_pairs += 1;
            }
        }
        if v.op == MemOp::Read {
            self.burst_len += 1;
            if self.last_write == Some(v.address) {
                self.raw_hits += 1;
            }
        } else {
            self.close_burst();
            self.last_write = Some(v.address);
        }
        self.prev_active = Some((v.op, v.address, v.data));
    }

    /// Folds the open read burst, if any, into the burst statistics.
    ///
    /// Its resonance term is an SSO-weighted Gaussian window around the
    /// resonant length, scaled by the burst's own switching intensity.
    #[inline]
    fn close_burst(&mut self) {
        if self.burst_len == 0 {
            return;
        }
        let len = self.burst_len;
        self.bursts += 1;
        self.burst_max = self.burst_max.max(len);
        self.burst_lens += len as f64;
        let burst_sso = mean(self.burst_sso_sum, self.burst_sso_pairs) / BUS_BITS;
        let window = (-((len as f64 - RESONANT_BURST_LEN).powi(2))
            / (2.0 * RESONANCE_SIGMA * RESONANCE_SIGMA))
            .exp();
        self.resonance += window * burst_sso;
        self.burst_len = 0;
        self.burst_sso_sum = 0.0;
        self.burst_sso_pairs = 0;
    }

    /// The features of the vectors pushed so far.
    pub(crate) fn finish(mut self) -> PatternFeatures {
        self.close_burst();
        let n = self.cycles() as f64;
        // The resonance is normalized by the densest possible packing of
        // resonant bursts in this pattern.
        let max_bursts = (n / (RESONANT_BURST_LEN + 1.0)).max(1.0);
        PatternFeatures {
            read_fraction: self.reads as f64 / n,
            write_fraction: self.writes as f64 / n,
            nop_fraction: self.nops as f64 / n,
            addr_ham_mean: mean(self.addr_ham_sum, self.pairs) / BUS_BITS,
            addr_ham_max: f64::from(self.addr_ham_max) / BUS_BITS,
            dq_sso_mean: mean(self.sso_sum, self.sso_pairs) / BUS_BITS,
            dq_sso_max: f64::from(self.sso_max) / BUS_BITS,
            read_burst_max: (self.burst_max as f64 / 125.0).min(1.0),
            read_burst_mean: (mean(self.burst_lens, self.bursts) / 125.0).min(1.0),
            burst_resonance: (self.resonance / max_bursts).clamp(0.0, 1.0),
            row_switch_fraction: mean(self.row_switches as f64, self.pairs),
            turnaround_density: mean(self.turnarounds as f64, self.pairs),
            data_toggle_mean: mean(self.data_toggle_sum, self.pairs) / BUS_BITS,
            read_after_write_fraction: mean(self.raw_hits as f64, self.reads),
        }
    }
}

/// Data-bus width, the normalizer of every Hamming feature.
const BUS_BITS: f64 = DATA_BITS as f64;

/// `sum / count`, or 0 for no terms.
fn mean(sum: f64, count: usize) -> f64 {
    if count > 0 {
        sum / count as f64
    } else {
        0.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::march;
    use crate::pattern::Pattern;
    use crate::program::{AddrMode, DataMode, OpMode, Segment, SegmentProgram};
    use crate::vector::TestVector;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The extraction this module used before [`FeatureFold`], kept as
    /// the reference: it collects every read burst, then sums their
    /// lengths and resonance terms with `Iterator::sum`.
    pub(crate) fn extract_reference(pattern: &Pattern) -> PatternFeatures {
        let n = pattern.len() as f64;
        let mut reads = 0usize;
        let mut writes = 0usize;
        let mut nops = 0usize;

        let mut addr_ham_sum = 0.0;
        let mut addr_ham_max = 0u32;
        let mut addr_pairs = 0usize;

        let mut sso_sum = 0.0;
        let mut sso_max = 0u32;
        let mut sso_pairs = 0usize;

        let mut row_switches = 0usize;
        let mut turnarounds = 0usize;
        let mut data_toggle_sum = 0.0;
        let mut data_pairs = 0usize;

        let mut raw_hits = 0usize;

        let mut bursts: Vec<(usize, f64, usize)> = Vec::new(); // (len, sso_sum, sso_pairs)
        let mut burst_len = 0usize;
        let mut burst_sso_sum = 0.0;
        let mut burst_sso_pairs = 0usize;

        let mut prev_active: Option<(MemOp, u16, u16)> = None; // (op, addr, data)
        let mut last_write: Option<u16> = None;

        for v in pattern.iter() {
            match v.op {
                MemOp::Read => reads += 1,
                MemOp::Write => writes += 1,
                MemOp::Nop => nops += 1,
            }
            if v.op == MemOp::Nop {
                // A NOP breaks a read burst but leaves bus state untouched.
                if burst_len > 0 {
                    bursts.push((burst_len, burst_sso_sum, burst_sso_pairs));
                    burst_len = 0;
                    burst_sso_sum = 0.0;
                    burst_sso_pairs = 0;
                }
                continue;
            }
            if let Some((prev_op, prev_addr, prev_data)) = prev_active {
                let ah = hamming(prev_addr, v.address);
                addr_ham_sum += f64::from(ah);
                addr_ham_max = addr_ham_max.max(ah);
                addr_pairs += 1;
                if (prev_addr >> crate::vector::ROW_SHIFT) != (v.address >> crate::vector::ROW_SHIFT)
                {
                    row_switches += 1;
                }
                if prev_op != v.op {
                    turnarounds += 1;
                }
                let dh = hamming(prev_data, v.data);
                data_toggle_sum += f64::from(dh);
                data_pairs += 1;
                if prev_op == MemOp::Read && v.op == MemOp::Read {
                    sso_sum += f64::from(dh);
                    sso_max = sso_max.max(dh);
                    sso_pairs += 1;
                    burst_sso_sum += f64::from(dh);
                    burst_sso_pairs += 1;
                }
            }
            if v.op == MemOp::Read {
                burst_len += 1;
                if last_write == Some(v.address) {
                    raw_hits += 1;
                }
            } else if burst_len > 0 {
                bursts.push((burst_len, burst_sso_sum, burst_sso_pairs));
                burst_len = 0;
                burst_sso_sum = 0.0;
                burst_sso_pairs = 0;
            }
            if v.op == MemOp::Write {
                last_write = Some(v.address);
            }
            prev_active = Some((v.op, v.address, v.data));
        }
        if burst_len > 0 {
            bursts.push((burst_len, burst_sso_sum, burst_sso_pairs));
        }

        let bus_bits = f64::from(crate::vector::DATA_BITS);
        let mean = |sum: f64, count: usize| if count > 0 { sum / count as f64 } else { 0.0 };

        let burst_max = bursts.iter().map(|b| b.0).max().unwrap_or(0);
        let burst_mean = mean(bursts.iter().map(|b| b.0 as f64).sum(), bursts.len());

        // SSO-weighted resonance: each burst contributes a Gaussian window
        // around the resonant length scaled by the burst's own switching
        // intensity; normalized by the densest possible packing of
        // resonant bursts in this pattern.
        let resonance_raw: f64 = bursts
            .iter()
            .map(|&(len, s, p)| {
                let window = (-((len as f64 - RESONANT_BURST_LEN).powi(2))
                    / (2.0 * RESONANCE_SIGMA * RESONANCE_SIGMA))
                    .exp();
                let burst_sso = mean(s, p) / bus_bits;
                window * burst_sso
            })
            .sum();
        let max_bursts = (n / (RESONANT_BURST_LEN + 1.0)).max(1.0);
        let burst_resonance = (resonance_raw / max_bursts).clamp(0.0, 1.0);

        PatternFeatures {
            read_fraction: reads as f64 / n,
            write_fraction: writes as f64 / n,
            nop_fraction: nops as f64 / n,
            addr_ham_mean: mean(addr_ham_sum, addr_pairs) / bus_bits,
            addr_ham_max: f64::from(addr_ham_max) / bus_bits,
            dq_sso_mean: mean(sso_sum, sso_pairs) / bus_bits,
            dq_sso_max: f64::from(sso_max) / bus_bits,
            read_burst_max: (burst_max as f64 / 125.0).min(1.0),
            read_burst_mean: (burst_mean / 125.0).min(1.0),
            burst_resonance,
            row_switch_fraction: mean(row_switches as f64, addr_pairs),
            turnaround_density: mean(turnarounds as f64, addr_pairs),
            data_toggle_mean: mean(data_toggle_sum, data_pairs) / bus_bits,
            read_after_write_fraction: mean(raw_hits as f64, reads),
        }
    }

    /// Writes alternating 0x5555/0xAAAA to addresses, then reads them back
    /// in one long burst: maximal SSO.
    fn sso_storm(burst: u16) -> Pattern {
        let mut v = Vec::new();
        for i in 0..burst {
            let w = if i % 2 == 0 { 0x5555 } else { 0xAAAA };
            v.push(TestVector::write(i, w));
        }
        for i in 0..burst {
            let w = if i % 2 == 0 { 0x5555 } else { 0xAAAA };
            v.push(TestVector::read(i, w));
        }
        Pattern::new_clamped(v)
    }

    #[test]
    fn fractions_sum_to_one() {
        let f = PatternFeatures::extract(&march::march_c_minus(64));
        let total = f.read_fraction + f.write_fraction + f.nop_fraction;
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sso_storm_maxes_switching_features() {
        let f = PatternFeatures::extract(&sso_storm(64));
        assert!(f.dq_sso_mean > 0.95, "sso_mean = {}", f.dq_sso_mean);
        assert_eq!(f.dq_sso_max, 1.0);
    }

    #[test]
    fn march_c_minus_has_low_sso() {
        // March C- alternates read/write, and its all-same-background read
        // sweeps do not toggle the DQ bus.
        let f = PatternFeatures::extract(&march::march_c_minus(64));
        assert!(f.dq_sso_mean < 0.05, "sso_mean = {}", f.dq_sso_mean);
        assert!(f.turnaround_density > 0.5);
    }

    #[test]
    fn resonance_peaks_at_critical_burst_length() {
        // Many short read bursts at the resonant length, separated by one
        // write, all with full SSO.
        let storm_at = |burst_len: u16| {
            let mut v = Vec::new();
            for i in 0..200u16 {
                let w = if i % 2 == 0 { 0x5555 } else { 0xAAAA };
                v.push(TestVector::write(i, w));
            }
            let mut i = 0u16;
            while v.len() < 900 {
                v.push(TestVector::write(200, 0));
                for _ in 0..burst_len {
                    // Reads carry the alternating word written above, so
                    // every adjacent read pair toggles the full DQ bus.
                    let w = if i.is_multiple_of(2) { 0x5555 } else { 0xAAAA };
                    v.push(TestVector::read(i % 200, w));
                    i = i.wrapping_add(1);
                }
            }
            Pattern::new_clamped(v)
        };
        let resonant = PatternFeatures::extract(&storm_at(12)).burst_resonance;
        let long = PatternFeatures::extract(&storm_at(60)).burst_resonance;
        let short = PatternFeatures::extract(&storm_at(8)).burst_resonance;
        assert!(resonant > long, "resonant {resonant} vs long {long}");
        assert!(resonant > short, "resonant {resonant} vs short {short}");
    }

    #[test]
    fn nops_break_read_bursts() {
        let mut v = Vec::new();
        for i in 0..60u16 {
            v.push(TestVector::read(i, 0));
            if i % 2 == 1 {
                v.push(TestVector::nop());
            }
        }
        let with_nops = PatternFeatures::extract(&Pattern::new_clamped(v));
        let solid = PatternFeatures::extract(&{
            let v: Vec<_> = (0..60u16).map(|i| TestVector::read(i, 0)).collect();
            Pattern::new_clamped(v)
        });
        assert!(with_nops.read_burst_max < solid.read_burst_max);
    }

    #[test]
    fn read_after_write_detected() {
        let mut v = Vec::new();
        for i in 0..100u16 {
            v.push(TestVector::write(i, i));
            v.push(TestVector::read(i, i));
        }
        let f = PatternFeatures::extract(&Pattern::new_clamped(v));
        assert!((f.read_after_write_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toggle_addressing_maxes_addr_hamming() {
        let seg = Segment::new(
            OpMode::ReadOnly,
            AddrMode::Toggle { mask: 0xFFFF },
            DataMode::Constant(0),
            100,
            0x0000,
        )
        .expect("valid");
        let p = SegmentProgram::new(vec![seg]).expect("valid").expand();
        let f = PatternFeatures::extract(&p);
        assert_eq!(f.addr_ham_max, 1.0);
        assert!(f.addr_ham_mean > 0.95);
        assert_eq!(f.row_switch_fraction, 1.0);
    }

    #[test]
    fn feature_vector_is_aligned_with_names() {
        let f = PatternFeatures::extract(&march::march_x(96));
        assert_eq!(f.to_array().len(), FEATURE_COUNT);
        assert_eq!(FeatureNames::ALL.len(), FEATURE_COUNT);
    }

    #[test]
    fn display_lists_every_feature() {
        let s = PatternFeatures::extract(&march::march_x(96)).to_string();
        for name in FeatureNames::ALL {
            assert!(s.contains(name), "missing {name}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_patterns_stay_normalized(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = crate::random::random_program(&mut rng).expand();
            let f = PatternFeatures::extract(&p);
            prop_assert!(f.is_normalized(), "{f}");
        }

        #[test]
        fn extraction_is_deterministic(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = crate::random::random_program(&mut rng).expand();
            prop_assert_eq!(PatternFeatures::extract(&p), PatternFeatures::extract(&p));
        }
    }
}
