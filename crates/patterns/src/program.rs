//! ALPG-style segment programs — the compact, evolvable pattern
//! representation.
//!
//! Real ATE does not store test patterns as flat vector lists; an
//! *algorithmic pattern generator* (ALPG) expands a short instruction
//! program into the vector stream on the fly. We mirror that: a
//! [`SegmentProgram`] is a list of [`Segment`] instructions, each of which
//! describes how addresses, data and operations evolve for a run of cycles.
//! The program expands deterministically into a [`Pattern`].
//!
//! The representation serves double duty as the genetic algorithm's
//! *test-sequence chromosome* (§5: "two different types of chromosomes —
//! test sequences and test conditions"): [`SegmentProgram::to_genes`] /
//! [`SegmentProgram::from_genes`] give a fixed-length integer encoding with
//! per-locus bounds ([`SegmentProgram::gene_bounds`]) that the GA mutates
//! and recombines.

use crate::pattern::Pattern;
use crate::vector::{MemOp, TestVector, ROW_SHIFT};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// How a segment sequences the address bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddrMode {
    /// `addr = base + stride * i` (wrapping). Stride is signed.
    Sequential {
        /// Per-cycle address increment (two's complement of the gene value).
        stride: i16,
    },
    /// Alternate `base` and `base ^ mask` — maximal address-bus toggling
    /// when the mask has many bits set.
    Toggle {
        /// XOR mask applied on odd cycles.
        mask: u16,
    },
    /// Hold `base` for the whole segment.
    Hold,
    /// Pseudo-random walk seeded by `seed` (deterministic LCG).
    Lcg {
        /// LCG seed; the same seed always produces the same walk.
        seed: u16,
    },
    /// Bounce between the base row and a row `distance` rows away, keeping
    /// the column — stresses row decoder and wordline drivers.
    RowBounce {
        /// Row distance of the far access.
        distance: u8,
    },
}

/// How a segment sequences the data bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataMode {
    /// Drive the same word every cycle.
    Constant(u16),
    /// Alternate `word` and `!word` — up to 16 simultaneously switching
    /// outputs on consecutive reads.
    Alternating(u16),
    /// Drive the complement of whatever was last on the data bus.
    InvertPrevious,
    /// A walking one: `1 << (i mod 16)`.
    WalkingOne,
    /// Pseudo-random data seeded by the wrapped value.
    Lcg(u16),
}

/// How a segment sequences operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpMode {
    /// Every cycle writes.
    WriteOnly,
    /// Every cycle reads (expected data comes from the tracked image).
    ReadOnly,
    /// Pairs of write-then-read at the same address (read-after-write).
    WritePairRead,
    /// Alternate write and read while the address keeps advancing.
    AlternateWriteRead,
    /// Ping-pong: the first two cycles write the segment's first two
    /// addresses, the rest burst-read them alternately — the classic
    /// read-hammer idiom of memory ALPGs.
    WriteOnceReadBurst,
}

/// Number of segments in every genome-encoded program.
const GENOME_SEGMENTS: usize = 8;

/// Maximum whole-program loop count (the ALPG outer loop register).
const MAX_LOOPS: u16 = 10;

/// Integer genes per segment in the chromosome encoding.
const GENES_PER_SEGMENT: usize = 7;

/// Minimum cycles a segment may run. Real ALPG instructions can be as
/// short as a single pair of cycles; short segments matter because the
/// worst-case stress rhythm interleaves one-write refreshes between
/// resonant read bursts.
const MIN_SEGMENT_LEN: u16 = 2;

/// Maximum cycles a segment may run (8 segments × 125 = 1000 = the §3 cap).
const MAX_SEGMENT_LEN: u16 = 125;

/// Error constructing a [`SegmentProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program had no segments or more than [`SegmentProgram::MAX_SEGMENTS`].
    SegmentCount(usize),
    /// A segment length was outside the allowed window.
    SegmentLen(u16),
    /// A gene string had the wrong length for the fixed genome layout.
    GeneCount {
        /// Genes provided by the caller.
        got: usize,
        /// Genes the fixed layout expects.
        expected: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::SegmentCount(n) => write!(
                f,
                "program has {n} segments, expected 1..={}",
                SegmentProgram::MAX_SEGMENTS
            ),
            ProgramError::SegmentLen(n) => write!(
                f,
                "segment length {n} outside {MIN_SEGMENT_LEN}..={MAX_SEGMENT_LEN}"
            ),
            ProgramError::GeneCount { got, expected } => {
                write!(f, "gene string has {got} genes, expected {expected}")
            }
        }
    }
}

impl Error for ProgramError {}

/// One ALPG instruction: run `len` cycles with the given address, data and
/// operation sequencing, starting from `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// Operation sequencing.
    pub op: OpMode,
    /// Address sequencing.
    pub addr: AddrMode,
    /// Data sequencing.
    pub data: DataMode,
    /// Cycles this segment runs (validated into `2..=125`).
    pub len: u16,
    /// Starting address.
    pub base: u16,
}

impl Segment {
    /// Creates a segment, validating the cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::SegmentLen`] if `len` is outside `2..=125`.
    pub fn new(
        op: OpMode,
        addr: AddrMode,
        data: DataMode,
        len: u16,
        base: u16,
    ) -> Result<Self, ProgramError> {
        if !(MIN_SEGMENT_LEN..=MAX_SEGMENT_LEN).contains(&len) {
            return Err(ProgramError::SegmentLen(len));
        }
        Ok(Self {
            op,
            addr,
            data,
            len,
            base,
        })
    }
}

/// A deterministic pattern program: up to [`Self::MAX_SEGMENTS`] segments
/// expanding to one [`Pattern`].
///
/// # Examples
///
/// ```
/// use cichar_patterns::{AddrMode, DataMode, OpMode, Segment, SegmentProgram};
///
/// let seg = Segment::new(
///     OpMode::ReadOnly,
///     AddrMode::Toggle { mask: 0xFFFF },
///     DataMode::Alternating(0x5555),
///     100,
///     0,
/// )?;
/// let program = SegmentProgram::new(vec![seg])?;
/// let pattern = program.expand();
/// assert_eq!(pattern.len(), 100);
///
/// // Gene round trip (the GA's view of the same program):
/// let genes = program.to_genes();
/// let back = SegmentProgram::from_genes(&genes)?;
/// assert_eq!(back.expand(), pattern);
/// # Ok::<(), cichar_patterns::ProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentProgram {
    segments: Vec<Segment>,
    /// Whole-program repetitions (the ALPG outer loop, `1..=10`). The
    /// memory image persists across iterations, so a short write/read
    /// rhythm looped many times builds a dense burst train — the shape of
    /// the worst-case stress.
    loops: u16,
}

impl SegmentProgram {
    /// Maximum number of segments a program may hold.
    pub const MAX_SEGMENTS: usize = GENOME_SEGMENTS;

    /// Total genes in the fixed-length chromosome encoding: one
    /// segment-count locus, one loop-count locus, then seven loci per
    /// segment slot.
    pub const GENE_COUNT: usize = 2 + GENOME_SEGMENTS * GENES_PER_SEGMENT;

    /// Creates a program from explicit segments.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::SegmentCount`] when empty or oversized.
    pub fn new(segments: Vec<Segment>) -> Result<Self, ProgramError> {
        if segments.is_empty() || segments.len() > Self::MAX_SEGMENTS {
            return Err(ProgramError::SegmentCount(segments.len()));
        }
        Ok(Self { segments, loops: 1 })
    }

    /// Sets the whole-program loop count (clamped into `1..=10`).
    pub fn with_loops(mut self, loops: u16) -> Self {
        self.loops = loops.clamp(1, MAX_LOOPS);
        self
    }

    /// The whole-program loop count.
    pub fn loops(&self) -> u16 {
        self.loops
    }

    /// The program's segments in execution order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Expands the program into its vector stream.
    ///
    /// Expansion is deterministic: the same program always yields the same
    /// [`Pattern`]. The memory is tracked — cells read as the device's
    /// power-up background, see [`power_up_word`], until the program
    /// writes them — so read cycles carry the data word the device will
    /// actually drive out, the quantity simultaneous-switching stress
    /// depends on.
    pub fn expand(&self) -> Pattern {
        let mut memory = WrittenCells::new();
        let mut vectors = Vec::with_capacity(
            self.cycle_count()
                .clamp(crate::MIN_PATTERN_LEN, crate::MAX_PATTERN_LEN),
        );
        let mut prev_data: u16 = 0;
        'outer: for _ in 0..self.loops {
        for seg in &self.segments {
            let mut lcg_addr = u32::from(match seg.addr {
                AddrMode::Lcg { seed } => seed,
                _ => 0,
            })
            .wrapping_add(1);
            let mut lcg_data = u32::from(match seg.data {
                DataMode::Lcg(seed) => seed,
                _ => 0,
            })
            .wrapping_add(1);
            let mut pair_addr = seg.base;
            let mut ping_pong = [seg.base; 2];
            for i in 0..seg.len {
                let i_usize = usize::from(i);
                let addr = match seg.addr {
                    AddrMode::Sequential { stride } => {
                        seg.base.wrapping_add((stride as u16).wrapping_mul(i))
                    }
                    AddrMode::Toggle { mask } => {
                        if i % 2 == 0 {
                            seg.base
                        } else {
                            seg.base ^ mask
                        }
                    }
                    AddrMode::Hold => seg.base,
                    AddrMode::Lcg { .. } => {
                        lcg_addr = step_lcg(lcg_addr);
                        (lcg_addr >> 8) as u16
                    }
                    AddrMode::RowBounce { distance } => {
                        if i % 2 == 0 {
                            seg.base
                        } else {
                            seg.base
                                .wrapping_add(u16::from(distance) << ROW_SHIFT)
                        }
                    }
                };
                let (op, addr) = match seg.op {
                    OpMode::WriteOnly => (MemOp::Write, addr),
                    OpMode::ReadOnly => (MemOp::Read, addr),
                    OpMode::WritePairRead => {
                        // Even cycles pick a fresh address and write it; odd
                        // cycles read the address just written.
                        if i % 2 == 0 {
                            pair_addr = addr;
                            (MemOp::Write, addr)
                        } else {
                            (MemOp::Read, pair_addr)
                        }
                    }
                    OpMode::AlternateWriteRead => {
                        if i % 2 == 0 {
                            (MemOp::Write, addr)
                        } else {
                            (MemOp::Read, addr)
                        }
                    }
                    OpMode::WriteOnceReadBurst => {
                        if i < 2 {
                            ping_pong[usize::from(i)] = addr;
                            (MemOp::Write, addr)
                        } else {
                            (MemOp::Read, ping_pong[usize::from(i % 2)])
                        }
                    }
                };
                let data = match op {
                    MemOp::Read => memory.read(addr),
                    MemOp::Write | MemOp::Nop => match seg.data {
                        DataMode::Constant(w) => w,
                        DataMode::Alternating(w) => {
                            if i % 2 == 0 {
                                w
                            } else {
                                !w
                            }
                        }
                        DataMode::InvertPrevious => !prev_data,
                        DataMode::WalkingOne => 1u16 << (i_usize % 16),
                        DataMode::Lcg(_) => {
                            lcg_data = step_lcg(lcg_data);
                            (lcg_data >> 12) as u16
                        }
                    },
                };
                if op == MemOp::Write {
                    memory.write(addr, data);
                }
                prev_data = data;
                vectors.push(TestVector::new(op, addr, data));
                if vectors.len() >= crate::MAX_PATTERN_LEN {
                    break 'outer;
                }
            }
        }
        }
        Pattern::new_clamped(vectors)
    }

    /// Inclusive `(low, high)` bounds for each locus of the gene encoding.
    ///
    /// The genetic algorithm uses these to keep mutation and initialization
    /// inside the valid domain, so every gene string decodes without error.
    pub fn gene_bounds() -> Vec<(u32, u32)> {
        let per_segment: [(u32, u32); GENES_PER_SEGMENT] = [
            (0, 4),                                        // op mode
            (0, 4),                                        // addr mode
            (0, u32::from(u16::MAX)),                      // addr parameter
            (0, 4),                                        // data mode
            (0, u32::from(u16::MAX)),                      // data parameter
            (u32::from(MIN_SEGMENT_LEN), u32::from(MAX_SEGMENT_LEN)), // len
            (0, u32::from(u16::MAX)),                      // base address
        ];
        let mut bounds = vec![
            (1u32, GENOME_SEGMENTS as u32),  // active segment count
            (1u32, u32::from(MAX_LOOPS)),    // whole-program loops
        ];
        bounds.extend((0..GENOME_SEGMENTS).flat_map(|_| per_segment.iter().copied()));
        bounds
    }

    /// Encodes the program as a fixed-length gene string.
    ///
    /// Locus 0 holds the active segment count; unused segment slots are
    /// padded with repeats of the last segment but stay dormant until a
    /// mutation of locus 0 re-activates them.
    pub fn to_genes(&self) -> Vec<u32> {
        let mut genes = Vec::with_capacity(Self::GENE_COUNT);
        genes.push(self.segments.len() as u32);
        genes.push(u32::from(self.loops));
        let last = *self.segments.last().expect("programs are non-empty");
        for idx in 0..GENOME_SEGMENTS {
            let seg = self.segments.get(idx).copied().unwrap_or(last);
            let op_g: u32 = match seg.op {
                OpMode::WriteOnly => 0,
                OpMode::ReadOnly => 1,
                OpMode::WritePairRead => 2,
                OpMode::AlternateWriteRead => 3,
                OpMode::WriteOnceReadBurst => 4,
            };
            let (addr_g, addr_p) = match seg.addr {
                AddrMode::Sequential { stride } => (0, u32::from(stride as u16)),
                AddrMode::Toggle { mask } => (1, u32::from(mask)),
                AddrMode::Hold => (2, 0),
                AddrMode::Lcg { seed } => (3, u32::from(seed)),
                AddrMode::RowBounce { distance } => (4, u32::from(distance)),
            };
            let (data_g, data_p) = match seg.data {
                DataMode::Constant(w) => (0, u32::from(w)),
                DataMode::Alternating(w) => (1, u32::from(w)),
                DataMode::InvertPrevious => (2, 0),
                DataMode::WalkingOne => (3, 0),
                DataMode::Lcg(s) => (4, u32::from(s)),
            };
            genes.extend_from_slice(&[
                op_g,
                addr_g,
                addr_p,
                data_g,
                data_p,
                u32::from(seg.len),
                u32::from(seg.base),
            ]);
        }
        genes
    }

    /// Decodes a fixed-length gene string produced by [`Self::to_genes`] or
    /// by the genetic algorithm.
    ///
    /// Out-of-range discriminants are folded back into range with a modulo
    /// so *any* gene string within [`Self::gene_bounds`] decodes — the GA
    /// never produces an invalid individual.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::GeneCount`] if the slice length differs from
    /// [`Self::GENE_COUNT`].
    pub fn from_genes(genes: &[u32]) -> Result<Self, ProgramError> {
        if genes.len() != Self::GENE_COUNT {
            return Err(ProgramError::GeneCount {
                got: genes.len(),
                expected: Self::GENE_COUNT,
            });
        }
        let active = ((genes[0].max(1) - 1) as usize % GENOME_SEGMENTS) + 1;
        let loops = ((genes[1].max(1) - 1) as u16 % MAX_LOOPS) + 1;
        let mut segments = Vec::with_capacity(active);
        for chunk in genes[2..2 + active * GENES_PER_SEGMENT].chunks_exact(GENES_PER_SEGMENT) {
            let op = match chunk[0] % 5 {
                0 => OpMode::WriteOnly,
                1 => OpMode::ReadOnly,
                2 => OpMode::WritePairRead,
                3 => OpMode::AlternateWriteRead,
                _ => OpMode::WriteOnceReadBurst,
            };
            let addr_p = (chunk[2] % (1 << 16)) as u16;
            let addr = match chunk[1] % 5 {
                0 => AddrMode::Sequential {
                    stride: addr_p as i16,
                },
                1 => AddrMode::Toggle { mask: addr_p },
                2 => AddrMode::Hold,
                3 => AddrMode::Lcg { seed: addr_p },
                _ => AddrMode::RowBounce {
                    distance: (addr_p & 0xff) as u8,
                },
            };
            let data_p = (chunk[4] % (1 << 16)) as u16;
            let data = match chunk[3] % 5 {
                0 => DataMode::Constant(data_p),
                1 => DataMode::Alternating(data_p),
                2 => DataMode::InvertPrevious,
                3 => DataMode::WalkingOne,
                _ => DataMode::Lcg(data_p),
            };
            let len_span = u32::from(MAX_SEGMENT_LEN - MIN_SEGMENT_LEN) + 1;
            let len = MIN_SEGMENT_LEN
                + (chunk[5].saturating_sub(u32::from(MIN_SEGMENT_LEN)) % len_span) as u16;
            let base = (chunk[6] % (1 << 16)) as u16;
            segments.push(Segment::new(op, addr, data, len, base).expect("len folded into range"));
        }
        Self::new(segments).map(|p| p.with_loops(loops))
    }

    /// Total cycles the program expands to (before clamping).
    pub fn cycle_count(&self) -> usize {
        self.segments.iter().map(|s| usize::from(s.len)).sum::<usize>()
            * usize::from(self.loops)
    }
}

impl fmt::Display for SegmentProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program[{} segments, {} cycles]",
            self.segments.len(),
            self.cycle_count()
        )
    }
}

/// One step of the deterministic 32-bit LCG used for pseudo-random address
/// and data sequencing (constants from glibc's `rand`).
fn step_lcg(x: u32) -> u32 {
    x.wrapping_mul(1_103_515_245).wrapping_add(12_345)
}

/// The data word address `addr` holds at device power-up.
///
/// SRAM/DRAM arrays power up in a pseudo-random state; reading a cell that
/// no test vector has written drives this word onto the DQ bus. The
/// background is fixed (same LCG stream for every expansion) so patterns
/// stay deterministic.
pub fn power_up_word(addr: u16) -> u16 {
    let x = step_lcg(step_lcg(u32::from(addr).wrapping_add(0xC1C4_A12D)));
    (x >> 8) as u16
}

/// log₂ of the slot count of [`WrittenCells`].
const OVERLAY_BITS: u32 = 11;

/// Slots in [`WrittenCells`]: twice [`crate::MAX_PATTERN_LEN`] rounded up
/// to a power of two, so the table is never more than half full.
const OVERLAY_SLOTS: usize = 1 << OVERLAY_BITS;

const _: () = assert!(OVERLAY_SLOTS >= 2 * crate::MAX_PATTERN_LEN);

/// The cells one expansion has written, over the power-up background.
///
/// An expansion stops at [`crate::MAX_PATTERN_LEN`] cycles, so it writes
/// at most that many cells; every other cell reads as [`power_up_word`].
/// The written cells live in an open-addressed table on the stack, made
/// and dropped by each call, so no state outlives an expansion.
struct WrittenCells {
    /// `addr + 1` of the cell in each slot; 0 marks an empty slot.
    keys: [u32; OVERLAY_SLOTS],
    /// The word last written to the cell in each slot.
    words: [u16; OVERLAY_SLOTS],
}

impl WrittenCells {
    fn new() -> Self {
        Self {
            keys: [0; OVERLAY_SLOTS],
            words: [0; OVERLAY_SLOTS],
        }
    }

    /// The slot holding `addr`, or the empty slot where it goes. Linear
    /// probing from a Fibonacci hash; the table is at most half full, so
    /// an empty slot always ends the walk.
    fn slot(&self, addr: u16) -> usize {
        let key = u32::from(addr) + 1;
        let mut slot = (u32::from(addr).wrapping_mul(0x9E37_79B9) >> (32 - OVERLAY_BITS)) as usize;
        while self.keys[slot] != 0 && self.keys[slot] != key {
            slot = (slot + 1) & (OVERLAY_SLOTS - 1);
        }
        slot
    }

    /// The word a read of `addr` sees.
    fn read(&self, addr: u16) -> u16 {
        let slot = self.slot(addr);
        if self.keys[slot] == 0 {
            power_up_word(addr)
        } else {
            self.words[slot]
        }
    }

    fn write(&mut self, addr: u16, word: u16) {
        let slot = self.slot(addr);
        self.keys[slot] = u32::from(addr) + 1;
        self.words[slot] = word;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo_segment() -> Segment {
        Segment::new(
            OpMode::AlternateWriteRead,
            AddrMode::Sequential { stride: 3 },
            DataMode::Alternating(0x5555),
            64,
            0x0100,
        )
        .expect("valid segment")
    }

    /// Folds arbitrary values into each locus's bounds, the way a GA
    /// initializer would.
    fn in_bounds(seed_genes: &[u32]) -> Vec<u32> {
        seed_genes
            .iter()
            .zip(&SegmentProgram::gene_bounds())
            .map(|(g, (lo, hi))| lo + g % (hi - lo + 1))
            .collect()
    }

    /// The expansion this module used before the written-cell overlay,
    /// kept as the reference: a copy of the full power-up image per call,
    /// indexed directly.
    fn expand_with_image(program: &SegmentProgram) -> Pattern {
        use std::sync::OnceLock;
        static IMAGE: OnceLock<Vec<u16>> = OnceLock::new();
        let mut image = IMAGE
            .get_or_init(|| (0..=u16::MAX).map(power_up_word).collect())
            .clone();
        let mut vectors = Vec::new();
        let mut prev_data: u16 = 0;
        'outer: for _ in 0..program.loops {
            for seg in &program.segments {
                let mut lcg_addr = u32::from(match seg.addr {
                    AddrMode::Lcg { seed } => seed,
                    _ => 0,
                })
                .wrapping_add(1);
                let mut lcg_data = u32::from(match seg.data {
                    DataMode::Lcg(seed) => seed,
                    _ => 0,
                })
                .wrapping_add(1);
                let mut pair_addr = seg.base;
                let mut ping_pong = [seg.base; 2];
                for i in 0..seg.len {
                    let i_usize = usize::from(i);
                    let addr = match seg.addr {
                        AddrMode::Sequential { stride } => {
                            seg.base.wrapping_add((stride as u16).wrapping_mul(i))
                        }
                        AddrMode::Toggle { mask } => {
                            if i % 2 == 0 {
                                seg.base
                            } else {
                                seg.base ^ mask
                            }
                        }
                        AddrMode::Hold => seg.base,
                        AddrMode::Lcg { .. } => {
                            lcg_addr = step_lcg(lcg_addr);
                            (lcg_addr >> 8) as u16
                        }
                        AddrMode::RowBounce { distance } => {
                            if i % 2 == 0 {
                                seg.base
                            } else {
                                seg.base.wrapping_add(u16::from(distance) << ROW_SHIFT)
                            }
                        }
                    };
                    let (op, addr) = match seg.op {
                        OpMode::WriteOnly => (MemOp::Write, addr),
                        OpMode::ReadOnly => (MemOp::Read, addr),
                        OpMode::WritePairRead => {
                            if i % 2 == 0 {
                                pair_addr = addr;
                                (MemOp::Write, addr)
                            } else {
                                (MemOp::Read, pair_addr)
                            }
                        }
                        OpMode::AlternateWriteRead => {
                            if i % 2 == 0 {
                                (MemOp::Write, addr)
                            } else {
                                (MemOp::Read, addr)
                            }
                        }
                        OpMode::WriteOnceReadBurst => {
                            if i < 2 {
                                ping_pong[usize::from(i)] = addr;
                                (MemOp::Write, addr)
                            } else {
                                (MemOp::Read, ping_pong[usize::from(i % 2)])
                            }
                        }
                    };
                    let data = match op {
                        MemOp::Read => image[usize::from(addr)],
                        MemOp::Write | MemOp::Nop => match seg.data {
                            DataMode::Constant(w) => w,
                            DataMode::Alternating(w) => {
                                if i % 2 == 0 {
                                    w
                                } else {
                                    !w
                                }
                            }
                            DataMode::InvertPrevious => !prev_data,
                            DataMode::WalkingOne => 1u16 << (i_usize % 16),
                            DataMode::Lcg(_) => {
                                lcg_data = step_lcg(lcg_data);
                                (lcg_data >> 12) as u16
                            }
                        },
                    };
                    if op == MemOp::Write {
                        image[usize::from(addr)] = data;
                    }
                    prev_data = data;
                    vectors.push(TestVector::new(op, addr, data));
                    if vectors.len() >= crate::MAX_PATTERN_LEN {
                        break 'outer;
                    }
                }
            }
        }
        Pattern::new_clamped(vectors)
    }

    #[test]
    fn segment_len_is_validated() {
        assert!(matches!(
            Segment::new(OpMode::WriteOnly, AddrMode::Hold, DataMode::WalkingOne, 1, 0),
            Err(ProgramError::SegmentLen(1))
        ));
        assert!(matches!(
            Segment::new(OpMode::WriteOnly, AddrMode::Hold, DataMode::WalkingOne, 126, 0),
            Err(ProgramError::SegmentLen(126))
        ));
    }

    #[test]
    fn program_segment_count_is_validated() {
        assert!(matches!(
            SegmentProgram::new(vec![]),
            Err(ProgramError::SegmentCount(0))
        ));
        let too_many = vec![demo_segment(); SegmentProgram::MAX_SEGMENTS + 1];
        assert!(matches!(
            SegmentProgram::new(too_many),
            Err(ProgramError::SegmentCount(9))
        ));
    }

    #[test]
    fn expansion_is_deterministic() {
        let p = SegmentProgram::new(vec![demo_segment(), demo_segment()]).expect("valid");
        assert_eq!(p.expand(), p.expand());
    }

    #[test]
    fn write_pair_read_reads_back_written_data() {
        let seg = Segment::new(
            OpMode::WritePairRead,
            AddrMode::Sequential { stride: 5 },
            DataMode::Lcg(99),
            32,
            0x2000,
        )
        .expect("valid");
        let pattern = SegmentProgram::new(vec![seg]).expect("valid").expand();
        let vs = pattern.vectors();
        for pair in vs[..32].chunks_exact(2) {
            assert_eq!(pair[0].op, MemOp::Write);
            assert_eq!(pair[1].op, MemOp::Read);
            assert_eq!(pair[0].address, pair[1].address, "read follows its write");
            assert_eq!(pair[0].data, pair[1].data, "read sees written data");
        }
    }

    #[test]
    fn reads_of_untouched_memory_see_power_up_background() {
        let seg = Segment::new(
            OpMode::ReadOnly,
            AddrMode::Sequential { stride: 1 },
            DataMode::Constant(0xDEAD),
            16,
            0x4000,
        )
        .expect("valid");
        let pattern = SegmentProgram::new(vec![seg]).expect("valid").expand();
        for (i, v) in pattern.vectors()[..16].iter().enumerate() {
            assert_eq!(v.data, power_up_word(0x4000 + i as u16));
        }
    }

    #[test]
    fn power_up_background_is_varied() {
        // Adjacent background words must differ in several bits, or reads
        // of virgin memory would not exercise the DQ bus at all.
        let mut total = 0u32;
        for a in 0..1000u16 {
            total += crate::hamming(power_up_word(a), power_up_word(a + 1));
        }
        let mean = f64::from(total) / 1000.0;
        assert!((6.0..10.0).contains(&mean), "mean background toggle {mean}");
    }

    #[test]
    fn toggle_mode_alternates_exactly() {
        let seg = Segment::new(
            OpMode::ReadOnly,
            AddrMode::Toggle { mask: 0xFFFF },
            DataMode::Constant(0),
            10,
            0x1234,
        )
        .expect("valid");
        let pattern = SegmentProgram::new(vec![seg]).expect("valid").expand();
        let vs = pattern.vectors();
        assert_eq!(vs[0].address, 0x1234);
        assert_eq!(vs[1].address, !0x1234u16);
        assert_eq!(vs[2].address, 0x1234);
    }

    #[test]
    fn row_bounce_keeps_column() {
        let seg = Segment::new(
            OpMode::ReadOnly,
            AddrMode::RowBounce { distance: 16 },
            DataMode::Constant(0),
            8,
            0x0305,
        )
        .expect("valid");
        let pattern = SegmentProgram::new(vec![seg]).expect("valid").expand();
        let vs = pattern.vectors();
        assert_eq!(vs[0].col(), vs[1].col());
        assert_eq!(vs[1].row(), vs[0].row() + 16);
    }

    #[test]
    fn gene_round_trip_preserves_expansion() {
        let p = SegmentProgram::new(vec![demo_segment()]).expect("valid");
        let back = SegmentProgram::from_genes(&p.to_genes()).expect("valid genes");
        assert_eq!(back.expand(), p.expand());
    }

    #[test]
    fn gene_count_is_fixed_and_bounded() {
        let p = SegmentProgram::new(vec![demo_segment(); 3]).expect("valid");
        let genes = p.to_genes();
        assert_eq!(genes.len(), SegmentProgram::GENE_COUNT);
        let bounds = SegmentProgram::gene_bounds();
        assert_eq!(bounds.len(), SegmentProgram::GENE_COUNT);
        for (g, (lo, hi)) in genes.iter().zip(&bounds) {
            assert!(g >= lo && g <= hi, "gene {g} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn from_genes_rejects_wrong_length() {
        assert!(matches!(
            SegmentProgram::from_genes(&[1, 2, 3]),
            Err(ProgramError::GeneCount { got: 3, .. })
        ));
    }

    #[test]
    fn error_display_mentions_numbers() {
        assert!(ProgramError::SegmentLen(200).to_string().contains("200"));
        assert!(ProgramError::SegmentCount(0).to_string().contains('0'));
    }

    /// Every op × address × data mode combination, with 1–8 segments,
    /// 1–10 loops and lengths across the window, expanded back to back,
    /// matches the image-copy reference. The sweep includes programs cut at
    /// the 1,000-vector clamp and programs padded up to 100 vectors.
    #[test]
    fn every_mode_combination_matches_the_image_copy_reference() {
        let (mut clamped, mut padded) = (0, 0);
        for combo in 0..125u32 {
            let mut genes = vec![1 + combo % 8, 1 + combo % 10];
            for seg in 0..8u32 {
                let param = combo.wrapping_mul(2_654_435_761).wrapping_add(seg * 40_503) >> 16;
                genes.extend_from_slice(&[
                    combo % 5,
                    combo / 5 % 5,
                    param,
                    combo / 25,
                    param ^ 0x5A5A,
                    2 + (combo * 37 + seg * 11) % 124,
                    (param * 7 + seg) % (1 << 16),
                ]);
            }
            let program = SegmentProgram::from_genes(&genes).expect("in-bounds genes");
            let cycles = program.cycle_count();
            clamped += usize::from(cycles > crate::MAX_PATTERN_LEN);
            padded += usize::from(cycles < crate::MIN_PATTERN_LEN);
            assert_eq!(
                program.expand(),
                expand_with_image(&program),
                "combination {combo}"
            );
        }
        assert!(
            clamped > 0 && padded > 0,
            "{clamped} clamped, {padded} padded"
        );
    }

    proptest! {
        #[test]
        fn any_in_bounds_gene_string_decodes_and_expands(
            seed_genes in proptest::collection::vec(0u32..=u32::from(u16::MAX), SegmentProgram::GENE_COUNT)
        ) {
            let program =
                SegmentProgram::from_genes(&in_bounds(&seed_genes)).expect("bounded genes decode");
            let pattern = program.expand();
            prop_assert!(pattern.len() >= crate::MIN_PATTERN_LEN);
            prop_assert!(pattern.len() <= crate::MAX_PATTERN_LEN);
        }

        #[test]
        fn decode_encode_decode_is_stable(
            seed_genes in proptest::collection::vec(0u32..=u32::from(u16::MAX), SegmentProgram::GENE_COUNT)
        ) {
            let once = SegmentProgram::from_genes(&in_bounds(&seed_genes)).expect("decodes");
            let twice = SegmentProgram::from_genes(&once.to_genes()).expect("re-decodes");
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn expansion_matches_the_image_copy_reference(
            programs in proptest::collection::vec(
                proptest::collection::vec(0u32..=u32::from(u16::MAX), SegmentProgram::GENE_COUNT),
                1..5,
            )
        ) {
            // Back to back: nothing one expansion writes may leak into the
            // next.
            for seed_genes in &programs {
                let program =
                    SegmentProgram::from_genes(&in_bounds(seed_genes)).expect("bounded genes decode");
                prop_assert_eq!(program.expand(), expand_with_image(&program));
            }
        }
    }
}
