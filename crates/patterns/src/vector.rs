//! Single-cycle test vectors and the device-under-test bus geometry.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Address bus width of the simulated memory test chip (64 Ki addresses).
pub const ADDR_BITS: u32 = 16;

/// Number of distinct addresses (`2^ADDR_BITS`).
pub const ADDR_SPACE: u32 = 1 << ADDR_BITS;

/// Data bus width in bits. `T_DQ` is measured on this bus.
pub const DATA_BITS: u32 = 16;

/// Bits of the address that select the row: `row = addr >> ROW_SHIFT`.
pub const ROW_SHIFT: u32 = 8;

/// Mask selecting the column bits of an address.
pub const COL_MASK: u16 = (1 << ROW_SHIFT) - 1;

/// One memory-bus operation, applied for one vector cycle.
///
/// # Examples
///
/// ```
/// use cichar_patterns::MemOp;
///
/// assert!(MemOp::Read.drives_outputs());
/// assert!(!MemOp::Write.drives_outputs());
/// assert_eq!(MemOp::Nop.to_string(), "NOP");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOp {
    /// Write the vector's data word to the vector's address.
    Write,
    /// Read the vector's address; the data word is the expected value.
    Read,
    /// Idle cycle — address and data buses hold their previous state.
    Nop,
}

impl MemOp {
    /// Whether this operation makes the device drive its DQ outputs.
    ///
    /// Only reads produce output switching, which is what couples into the
    /// data-output valid time through simultaneous-switching noise.
    pub fn drives_outputs(self) -> bool {
        matches!(self, MemOp::Read)
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemOp::Write => "W",
            MemOp::Read => "R",
            MemOp::Nop => "NOP",
        })
    }
}

/// One vector cycle: an operation, an address and a data word.
///
/// For [`MemOp::Write`] the data is driven into the device; for
/// [`MemOp::Read`] it is the value expected on DQ; for [`MemOp::Nop`] it is
/// ignored.
///
/// # Examples
///
/// ```
/// use cichar_patterns::{MemOp, TestVector};
///
/// let v = TestVector::new(MemOp::Write, 0x1234, 0x5555);
/// assert_eq!(v.row(), 0x12);
/// assert_eq!(v.col(), 0x34);
/// assert_eq!(format!("{v}"), "W @1234 =5555");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TestVector {
    /// The bus operation this cycle performs.
    pub op: MemOp,
    /// The address driven on the address bus.
    pub address: u16,
    /// The data word (driven for writes, expected for reads).
    pub data: u16,
}

impl TestVector {
    /// Creates a vector cycle.
    pub fn new(op: MemOp, address: u16, data: u16) -> Self {
        Self { op, address, data }
    }

    /// Convenience constructor for a write cycle.
    pub fn write(address: u16, data: u16) -> Self {
        Self::new(MemOp::Write, address, data)
    }

    /// Convenience constructor for a read cycle expecting `data`.
    pub fn read(address: u16, data: u16) -> Self {
        Self::new(MemOp::Read, address, data)
    }

    /// Convenience constructor for an idle cycle.
    pub fn nop() -> Self {
        Self::new(MemOp::Nop, 0, 0)
    }

    /// The row this address selects.
    pub fn row(self) -> u16 {
        self.address >> ROW_SHIFT
    }

    /// The column this address selects.
    pub fn col(self) -> u16 {
        self.address & COL_MASK
    }
}

impl fmt::Display for TestVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            MemOp::Nop => f.write_str("NOP"),
            op => write!(f, "{op} @{:04x} ={:04x}", self.address, self.data),
        }
    }
}

/// Number of bit positions in which two bus words differ.
///
/// This is the elementary measure behind every switching-activity feature:
/// each differing bit is one output driver toggling simultaneously.
///
/// # Examples
///
/// ```
/// use cichar_patterns::{MemOp, TestVector};
///
/// // 0x5555 -> 0xAAAA flips all 16 bus lines at once: worst-case SSO.
/// assert_eq!(cichar_patterns::hamming(0x5555, 0xAAAA), 16);
/// ```
pub fn hamming(a: u16, b: u16) -> u32 {
    (a ^ b).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(ADDR_SPACE, 65_536);
        assert_eq!(COL_MASK, 0x00ff);
        assert_eq!(ADDR_BITS - ROW_SHIFT, 8, "256 rows");
    }

    #[test]
    fn row_col_partition_address() {
        let v = TestVector::read(0xBEEF, 0);
        assert_eq!(v.row(), 0xBE);
        assert_eq!(v.col(), 0xEF);
        assert_eq!(
            (v.row() << ROW_SHIFT) | v.col(),
            0xBEEF
        );
    }

    #[test]
    fn only_reads_drive_outputs() {
        assert!(MemOp::Read.drives_outputs());
        assert!(!MemOp::Write.drives_outputs());
        assert!(!MemOp::Nop.drives_outputs());
    }

    #[test]
    fn nop_ignores_data_in_display() {
        assert_eq!(TestVector::nop().to_string(), "NOP");
        assert_eq!(TestVector::write(1, 2).to_string(), "W @0001 =0002");
    }

    #[test]
    fn hamming_extremes() {
        assert_eq!(hamming(0, 0), 0);
        assert_eq!(hamming(0, u16::MAX), 16);
        assert_eq!(hamming(0x00ff, 0xff00), 16);
    }

    proptest! {
        #[test]
        fn hamming_is_symmetric(a: u16, b: u16) {
            prop_assert_eq!(hamming(a, b), hamming(b, a));
        }

        #[test]
        fn hamming_triangle_inequality(a: u16, b: u16, c: u16) {
            prop_assert!(hamming(a, c) <= hamming(a, b) + hamming(b, c));
        }

        #[test]
        fn row_col_reconstruct(addr: u16) {
            let v = TestVector::read(addr, 0);
            prop_assert_eq!((v.row() << ROW_SHIFT) | v.col(), addr);
        }
    }
}
