//! The 4-bit lanes of the TCBF: sixteen 4-bit counters per `u64`
//! word, with SWAR (SIMD-within-a-register) merge kernels.
//!
//! There is one TCBF, [`LaneTcbf`](crate::LaneTcbf), written once over
//! its counter storage. This module supplies the narrow storage,
//! [`Lane4`]; the protocol's [`Tcbf`] uses 32-bit lanes. Two widths
//! exist because their callers need different counter ranges. The
//! paper experiments reinforce relay counters far past 15: in Fig. 7
//! they reach 233 801, and the Fig. 6 A-merge ablation saturates `u32`
//! on purpose. At the million-node scale tier, counters are bounded by
//! construction (`C ≤ 15`, saturating arithmetic), so a counter fits in
//! a nibble and a whole filter shrinks 8x: a 256-bit filter is sixteen
//! `u64` words, and every merge touches 16 words instead of 256
//! `u32`s.
//!
//! # Word layout
//!
//! Counter `i` lives in word `i / 16`, nibble `i % 16`, at bit offset
//! `4·(i % 16)` — little-endian nibble order within the word. All
//! kernels split a word into its even and odd nibbles spread across
//! 8-bit lanes (`x & 0x0F0F…` and `(x >> 4) & 0x0F0F…`): byte lanes
//! holding values ≤ 15 can be added, subtracted, and compared without
//! cross-lane carries, which is what makes the merges branch-free.
//!
//! The scalar reference implementations in [`reference`](mod@reference) define the
//! intended per-nibble semantics; `tests/packed.rs` checks the SWAR
//! kernels against them exhaustively at the 8-bit-lane level, and the
//! 4-bit filter against the 32-bit one over seeded key sets.
//!
//! [`Tcbf`]: crate::Tcbf

use crate::tcbf::Lanes;

/// Counters saturate at the largest nibble value.
pub const NIBBLE_MAX: u8 = 15;

/// Nibbles (counters) per `u64` word.
pub const NIBBLES_PER_WORD: usize = 16;

/// Low nibble of every byte lane.
const EVEN: u64 = 0x0F0F_0F0F_0F0F_0F0F;
/// Low bit of every byte lane.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;
/// High bit of every byte lane.
const LANE_MSB: u64 = 0x8080_8080_8080_8080;

/// Saturating add of two nibble-packed words (each nibble independently
/// clamps at 15).
#[must_use]
#[inline]
pub fn word_sat_add(a: u64, b: u64) -> u64 {
    let even = lane_sat((a & EVEN) + (b & EVEN));
    let odd = lane_sat(((a >> 4) & EVEN) + ((b >> 4) & EVEN));
    even | (odd << 4)
}

/// Clamps byte lanes holding nibble sums (≤ 30) back to ≤ 15: a lane
/// with bit 4 set overflowed and becomes 0xF.
#[inline]
fn lane_sat(sum: u64) -> u64 {
    let over = (sum >> 4) & LANE_LSB;
    // Each overflowed lane gets an 0x0F mask (0x01 * 0x0F never
    // carries between lanes).
    (sum | (over * 0x0F)) & EVEN
}

/// Per-nibble maximum of two nibble-packed words, branch-free.
#[must_use]
#[inline]
pub fn word_max(a: u64, b: u64) -> u64 {
    let even = lane_max(a & EVEN, b & EVEN);
    let odd = lane_max((a >> 4) & EVEN, (b >> 4) & EVEN);
    even | (odd << 4)
}

/// Byte-lane maximum for lanes holding values ≤ 15. `(a | 0x80) - b`
/// keeps the lane's high bit set exactly when `a ≥ b` (the guard bit
/// absorbs the borrow), which turns into a full-lane select mask.
#[inline]
fn lane_max(a: u64, b: u64) -> u64 {
    let ge = (((a | LANE_MSB) - b) >> 7) & LANE_LSB;
    let mask = ge * 0xFF;
    (a & mask) | (b & !mask)
}

/// Saturating subtract of the constant nibble `d` (≤ 15) from every
/// nibble of a packed word — the epoch-materialization kernel.
#[must_use]
#[inline]
pub fn word_sat_sub(a: u64, d: u8) -> u64 {
    debug_assert!(d <= NIBBLE_MAX);
    let bcast = u64::from(d) * LANE_LSB;
    let even = lane_sat_sub(a & EVEN, bcast);
    let odd = lane_sat_sub((a >> 4) & EVEN, bcast);
    even | (odd << 4)
}

/// Byte-lane saturating subtract for lanes ≤ 15: lanes where `a < b`
/// lose the guard bit and are zeroed by the select mask.
#[inline]
fn lane_sat_sub(a: u64, b: u64) -> u64 {
    let diff = (a | LANE_MSB) - b;
    let keep = ((diff >> 7) & LANE_LSB) * 0xFF;
    diff & keep & EVEN
}

/// A mask with bit `4·j` set for every non-zero nibble `j` — feeding
/// `count_ones` gives the word's set-bit (non-zero-counter) count.
#[must_use]
#[inline]
pub fn word_nonzero_nibbles(a: u64) -> u64 {
    (a | (a >> 1) | (a >> 2) | (a >> 3)) & 0x1111_1111_1111_1111
}

/// Reads nibble `i % 16` of a packed word.
#[must_use]
#[inline]
pub fn word_get(word: u64, i: usize) -> u8 {
    ((word >> ((i % NIBBLES_PER_WORD) * 4)) & 0xF) as u8
}

/// Returns `word` with nibble `i % 16` set to `v` (≤ 15).
#[must_use]
#[inline]
pub fn word_set(word: u64, i: usize, v: u8) -> u64 {
    debug_assert!(v <= NIBBLE_MAX);
    let shift = (i % NIBBLES_PER_WORD) * 4;
    (word & !(0xFu64 << shift)) | (u64::from(v) << shift)
}

/// Scalar per-nibble reference kernels: the executable specification
/// the SWAR kernels are tested against. Deliberately written as the
/// obvious loop over unpacked nibbles.
pub mod reference {
    use super::{NIBBLES_PER_WORD, NIBBLE_MAX};

    /// Unpacks a word into its 16 nibble values.
    #[must_use]
    pub fn unpack(word: u64) -> [u8; NIBBLES_PER_WORD] {
        std::array::from_fn(|i| ((word >> (i * 4)) & 0xF) as u8)
    }

    /// Packs 16 nibble values (each ≤ 15) into a word.
    #[must_use]
    pub fn pack(nibbles: [u8; NIBBLES_PER_WORD]) -> u64 {
        nibbles
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, &v)| w | (u64::from(v & 0xF) << (i * 4)))
    }

    /// Per-nibble saturating add.
    #[must_use]
    pub fn sat_add(a: u64, b: u64) -> u64 {
        let (a, b) = (unpack(a), unpack(b));
        pack(std::array::from_fn(|i| (a[i] + b[i]).min(NIBBLE_MAX)))
    }

    /// Per-nibble maximum.
    #[must_use]
    pub fn max(a: u64, b: u64) -> u64 {
        let (a, b) = (unpack(a), unpack(b));
        pack(std::array::from_fn(|i| a[i].max(b[i])))
    }

    /// Per-nibble saturating subtract of a constant.
    #[must_use]
    pub fn sat_sub(a: u64, d: u8) -> u64 {
        let a = unpack(a);
        pack(std::array::from_fn(|i| a[i].saturating_sub(d)))
    }
}

/// 4-bit counter lanes, sixteen per `u64` word, merged by the SWAR
/// kernels above: the storage of the scale tier's
/// [`LaneTcbf<Lane4>`](crate::LaneTcbf).
///
/// ```
/// use bsub_bloom::{Lane4, LaneTcbf};
///
/// let relay = LaneTcbf::<Lane4>::new(8192, 4, 8);
/// assert_eq!(relay.counter_bytes(), 8192 / 2); // half a byte per counter
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane4;

impl Lanes for Lane4 {
    type Word = u64;
    const MAX: u32 = NIBBLE_MAX as u32;
    const PER_WORD: usize = NIBBLES_PER_WORD;

    #[inline]
    fn get(words: &[u64], i: usize) -> u32 {
        u32::from(word_get(words[i / NIBBLES_PER_WORD], i))
    }

    #[inline]
    fn set(words: &mut [u64], i: usize, v: u32) {
        let w = &mut words[i / NIBBLES_PER_WORD];
        *w = word_set(*w, i, v as u8);
    }

    #[inline]
    fn sat_add(a: u64, b: u64) -> u64 {
        word_sat_add(a, b)
    }

    #[inline]
    fn max(a: u64, b: u64) -> u64 {
        word_max(a, b)
    }

    #[inline]
    fn sat_sub(a: u64, d: u32) -> u64 {
        word_sat_sub(a, d as u8)
    }

    #[inline]
    fn nonzero(a: u64) -> u32 {
        word_nonzero_nibbles(a).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_get_set_roundtrip() {
        let mut w = 0u64;
        for i in 0..NIBBLES_PER_WORD {
            w = word_set(w, i, (i % 16) as u8);
        }
        for i in 0..NIBBLES_PER_WORD {
            assert_eq!(word_get(w, i), (i % 16) as u8);
        }
    }

    #[test]
    fn sat_add_saturates_at_15() {
        let a = reference::pack([15; 16]);
        let b = reference::pack([1; 16]);
        assert_eq!(word_sat_add(a, b), a);
        assert_eq!(word_sat_add(a, a), a);
    }

    #[test]
    fn sat_sub_floors_at_zero() {
        let a = reference::pack(std::array::from_fn(|i| i as u8));
        assert_eq!(word_sat_sub(a, 15), 0);
        assert_eq!(word_sat_sub(a, 0), a);
    }

    #[test]
    fn nonzero_nibbles_counts() {
        let w = reference::pack([0, 1, 0, 15, 0, 0, 7, 0, 0, 0, 0, 2, 0, 0, 0, 9]);
        assert_eq!(word_nonzero_nibbles(w).count_ones(), 5);
        assert_eq!(word_nonzero_nibbles(0), 0);
    }
}
