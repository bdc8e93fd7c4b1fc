//! Functional test patterns — bounded sequences of vector cycles.

use crate::vector::{MemOp, TestVector};
use serde::{Deserialize, Serialize, Value};
use std::error::Error;
use std::fmt;

/// Minimum pattern length in vector cycles.
///
/// §3 of the paper: "we define small test sequences in between 100 to 1000
/// vector cycles for each characterization measurement of a single trip
/// point", so that worst-case sequences can be pin-pointed precisely.
pub const MIN_PATTERN_LEN: usize = 100;

/// Maximum pattern length in vector cycles (see [`MIN_PATTERN_LEN`]).
pub const MAX_PATTERN_LEN: usize = 1000;

/// Error constructing a [`Pattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// The vector sequence was outside the 100–1000 cycle window of §3.
    Length(usize),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Length(n) => write!(
                f,
                "pattern has {n} cycles, outside the {MIN_PATTERN_LEN}..={MAX_PATTERN_LEN} window"
            ),
        }
    }
}

impl Error for PatternError {}

/// A functional test pattern: 100–1000 [`TestVector`] cycles.
///
/// Patterns are immutable once built; the device model and the feature
/// extractor both walk the same vector stream, which is what makes the
/// "trip point is test dependent" premise observable.
///
/// # Examples
///
/// ```
/// use cichar_patterns::{MemOp, Pattern, TestVector};
///
/// let vectors: Vec<TestVector> = (0..200u16)
///     .map(|i| TestVector::write(i, i.wrapping_mul(3)))
///     .collect();
/// let pattern = Pattern::new(vectors)?;
/// assert_eq!(pattern.len(), 200);
/// assert_eq!(pattern.count_of(MemOp::Write), 200);
/// # Ok::<(), cichar_patterns::PatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Pattern {
    vectors: Vec<TestVector>,
}

impl Deserialize for Pattern {
    /// Refuses what [`Pattern::new`] refuses: a vector count outside the
    /// [`MIN_PATTERN_LEN`]..=[`MAX_PATTERN_LEN`] window.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct PatternFile {
            vectors: Vec<TestVector>,
        }
        let PatternFile { vectors } = PatternFile::from_value(v)?;
        Self::new(vectors).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl Pattern {
    /// Builds a pattern from a vector sequence.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Length`] if the sequence is shorter than
    /// [`MIN_PATTERN_LEN`] or longer than [`MAX_PATTERN_LEN`].
    pub fn new(vectors: Vec<TestVector>) -> Result<Self, PatternError> {
        if !(MIN_PATTERN_LEN..=MAX_PATTERN_LEN).contains(&vectors.len()) {
            return Err(PatternError::Length(vectors.len()));
        }
        Ok(Self { vectors })
    }

    /// Builds a pattern, padding with NOP cycles up to [`MIN_PATTERN_LEN`]
    /// and truncating beyond [`MAX_PATTERN_LEN`].
    ///
    /// Generators use this so every recipe expands to a legal pattern.
    pub fn new_clamped(mut vectors: Vec<TestVector>) -> Self {
        vectors.truncate(MAX_PATTERN_LEN);
        while vectors.len() < MIN_PATTERN_LEN {
            vectors.push(TestVector::nop());
        }
        Self { vectors }
    }

    /// Number of vector cycles.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// A pattern is never empty (construction enforces ≥ 100 cycles).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The vector cycles in execution order.
    pub fn vectors(&self) -> &[TestVector] {
        &self.vectors
    }

    /// Iterator over the vector cycles.
    pub fn iter(&self) -> std::slice::Iter<'_, TestVector> {
        self.vectors.iter()
    }

    /// How many cycles perform the given operation.
    pub fn count_of(&self, op: MemOp) -> usize {
        self.vectors.iter().filter(|v| v.op == op).count()
    }

    /// Stable content hash of the pattern (FNV-1a over the vector stream).
    ///
    /// Used to deduplicate tests in the worst-case database without pulling
    /// in a hashing dependency.
    pub fn content_hash(&self) -> u64 {
        let mut hash = ContentHash::new();
        for &v in &self.vectors {
            hash.push(v);
        }
        hash.finish()
    }
}

/// [`Pattern::content_hash`] as a fold over the vector stream, so a
/// stimulus can be hashed as it is generated.
#[derive(Debug)]
pub(crate) struct ContentHash(u64);

impl ContentHash {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in the next vector: its operation, then the address and the
    /// data word, low byte first.
    #[inline]
    pub(crate) fn push(&mut self, v: TestVector) {
        let op: u8 = match v.op {
            MemOp::Write => 1,
            MemOp::Read => 2,
            MemOp::Nop => 3,
        };
        let [addr_lo, addr_hi] = v.address.to_le_bytes();
        let [data_lo, data_hi] = v.data.to_le_bytes();
        for byte in [op, addr_lo, addr_hi, data_lo, data_hi] {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl<'a> IntoIterator for &'a Pattern {
    type Item = &'a TestVector;
    type IntoIter = std::slice::Iter<'a, TestVector>;

    fn into_iter(self) -> Self::IntoIter {
        self.vectors.iter()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern[{} cycles: {}W/{}R/{}N]",
            self.len(),
            self.count_of(MemOp::Write),
            self.count_of(MemOp::Read),
            self.count_of(MemOp::Nop),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The hash this module computed before [`ContentHash`], kept as the
    /// reference.
    pub(crate) fn content_hash_reference(pattern: &Pattern) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for v in pattern.iter() {
            mix(match v.op {
                MemOp::Write => 1,
                MemOp::Read => 2,
                MemOp::Nop => 3,
            });
            mix((v.address & 0xff) as u8);
            mix((v.address >> 8) as u8);
            mix((v.data & 0xff) as u8);
            mix((v.data >> 8) as u8);
        }
        h
    }

    fn writes(n: usize) -> Vec<TestVector> {
        (0..n).map(|i| TestVector::write(i as u16, 0)).collect()
    }

    #[test]
    fn rejects_out_of_window_lengths() {
        assert_eq!(Pattern::new(writes(99)), Err(PatternError::Length(99)));
        assert_eq!(Pattern::new(writes(1001)), Err(PatternError::Length(1001)));
        assert!(Pattern::new(writes(100)).is_ok());
        assert!(Pattern::new(writes(1000)).is_ok());
    }

    #[test]
    fn clamped_pads_with_nops() {
        let p = Pattern::new_clamped(writes(10));
        assert_eq!(p.len(), MIN_PATTERN_LEN);
        assert_eq!(p.count_of(MemOp::Write), 10);
        assert_eq!(p.count_of(MemOp::Nop), 90);
    }

    #[test]
    fn clamped_truncates_long_sequences() {
        let p = Pattern::new_clamped(writes(5000));
        assert_eq!(p.len(), MAX_PATTERN_LEN);
    }

    #[test]
    fn counts_partition_length() {
        let mut v = writes(150);
        v.extend((0..50).map(|i| TestVector::read(i as u16, 0)));
        let p = Pattern::new(v).expect("valid length");
        assert_eq!(
            p.count_of(MemOp::Write) + p.count_of(MemOp::Read) + p.count_of(MemOp::Nop),
            p.len()
        );
    }

    #[test]
    fn content_hash_distinguishes_patterns() {
        let a = Pattern::new(writes(100)).expect("valid");
        let mut vs = writes(100);
        vs[50].data = 1;
        let b = Pattern::new(vs).expect("valid");
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(
            a.content_hash(),
            Pattern::new(writes(100)).expect("valid").content_hash()
        );
    }

    #[test]
    fn display_reports_mix() {
        let p = Pattern::new_clamped(writes(120));
        assert_eq!(p.to_string(), "pattern[120 cycles: 120W/0R/0N]");
    }

    #[test]
    fn iteration_orders_match() {
        let p = Pattern::new(writes(100)).expect("valid");
        let via_iter: Vec<_> = p.iter().copied().collect();
        assert_eq!(via_iter.as_slice(), p.vectors());
    }

    #[test]
    fn error_message_names_window() {
        let msg = PatternError::Length(5).to_string();
        assert!(msg.contains("100..=1000"), "{msg}");
    }

    proptest! {
        #[test]
        fn clamped_always_in_window(n in 0usize..3000) {
            let p = Pattern::new_clamped(writes(n));
            prop_assert!(p.len() >= MIN_PATTERN_LEN && p.len() <= MAX_PATTERN_LEN);
        }

        #[test]
        fn hash_is_deterministic(n in 100usize..300) {
            let a = Pattern::new(writes(n)).unwrap();
            let b = Pattern::new(writes(n)).unwrap();
            prop_assert_eq!(a.content_hash(), b.content_hash());
        }
    }
}
