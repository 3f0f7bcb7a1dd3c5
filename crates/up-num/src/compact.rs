//! Compact (memory) vs word-aligned (register) representations — Fig. 4.
//!
//! In memory and on disk a decimal is a **byte-aligned** array of `Lb`
//! bytes with the sign folded into the most significant bit; in registers
//! it expands to `Lw` 32-bit words plus a sign byte, because PTX carry
//! instructions operate on 32-bit operands at least (§III-B). Expression
//! evaluation follows the three steps of §III-B2: read compact → expand →
//! evaluate → write back compact.

use crate::bigint::{BigInt, Sign};
use crate::decimal::UpDecimal;
use crate::dtype::DecimalType;
use crate::limbs;
use crate::NumError;
use core::cmp::Ordering;

/// The word-aligned register-resident form: `Lw` little-endian 32-bit
/// words plus a sign byte (`Decimal<N>` in the paper's generated code).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordRepr {
    /// −1, 0 or +1.
    pub sign: i8,
    /// Exactly `Lw` words for the owning type, least significant first.
    pub words: Vec<u32>,
}

impl WordRepr {
    /// Expands a value to exactly `lw` words.
    pub fn from_decimal(v: &UpDecimal, lw: usize) -> WordRepr {
        let mag = v.unscaled().mag();
        debug_assert!(limbs::sig_limbs(mag) <= lw, "value wider than Lw");
        let mut words = vec![0u32; lw];
        let n = mag.len().min(lw);
        words[..n].copy_from_slice(&mag[..n]);
        let sign = match v.sign() {
            Sign::Minus => -1,
            Sign::Zero => 0,
            Sign::Plus => 1,
        };
        WordRepr { sign, words }
    }

    /// Collapses back to a value of type `ty`.
    pub fn to_decimal(&self, ty: DecimalType) -> UpDecimal {
        let sign = match self.sign {
            0 => Sign::Zero,
            s if s < 0 => Sign::Minus,
            _ => Sign::Plus,
        };
        let int = BigInt::from_sign_mag(
            if limbs::is_zero(&self.words) { Sign::Zero } else { sign },
            self.words.clone(),
        );
        UpDecimal::from_parts_unchecked(int, ty)
    }

    /// Bytes this representation occupies (the paper's "9 bytes in total"
    /// for `DECIMAL(10, 2)`): `4·Lw + 1`.
    pub fn size_bytes(&self) -> usize {
        4 * self.words.len() + 1
    }
}

/// Encodes a value into its compact `Lb`-byte form in `out` (which must be
/// exactly `ty.lb()` bytes): little-endian magnitude bytes with the sign in
/// the top bit of the last byte.
pub fn encode_compact_into(v: &UpDecimal, ty: DecimalType, out: &mut [u8]) -> Result<(), NumError> {
    let lb = ty.lb();
    debug_assert_eq!(out.len(), lb);
    let mag = v.unscaled().mag();
    let bits = limbs::bit_len(mag);
    if bits as usize > lb * 8 - 1 {
        return Err(NumError::Overflow { ty, digits: v.unscaled().dec_digits() });
    }
    out.fill(0);
    for (i, b) in out.iter_mut().enumerate().take(mag.len() * 4) {
        let limb = mag[i / 4];
        *b = (limb >> (8 * (i % 4))) as u8;
    }
    if v.unscaled().is_negative() {
        out[lb - 1] |= 0x80;
    }
    Ok(())
}

/// Encodes a value into a fresh compact buffer of `ty.lb()` bytes.
pub fn encode_compact(v: &UpDecimal, ty: DecimalType) -> Result<Vec<u8>, NumError> {
    let mut out = vec![0u8; ty.lb()];
    encode_compact_into(v, ty, &mut out)?;
    Ok(out)
}

/// Decodes a compact buffer back into a value of type `ty` ("expand",
/// §III-B2 step 1).
pub fn decode_compact(bytes: &[u8], ty: DecimalType) -> UpDecimal {
    let lb = ty.lb();
    debug_assert_eq!(bytes.len(), lb);
    let neg = bytes[lb - 1] & 0x80 != 0;
    let mut words = vec![0u32; ty.lw()];
    for (i, &b) in bytes.iter().enumerate() {
        let b = if i == lb - 1 { b & 0x7f } else { b };
        if b != 0 {
            words[i / 4] |= (b as u32) << (8 * (i % 4));
        }
    }
    let sign = if limbs::is_zero(&words) {
        Sign::Zero
    } else if neg {
        Sign::Minus
    } else {
        Sign::Plus
    };
    UpDecimal::from_parts_unchecked(BigInt::from_sign_mag(sign, words), ty)
}

/// Whether a compact cell's magnitude (every bit but the sign bit) is
/// zero.
fn compact_mag_is_zero(cell: &[u8]) -> bool {
    let (&last, rest) = cell.split_last().expect("a compact cell has Lb >= 1 bytes");
    last & 0x7f == 0 && rest.iter().all(|&b| b == 0)
}

/// Sign of a compact cell without decoding it. A cell with the sign bit
/// set and a zero magnitude is zero, exactly as [`decode_compact`] reads
/// it.
pub fn compact_sign(cell: &[u8]) -> Sign {
    if compact_mag_is_zero(cell) {
        Sign::Zero
    } else if cell[cell.len() - 1] & 0x80 != 0 {
        Sign::Minus
    } else {
        Sign::Plus
    }
}

/// Compares the magnitudes of two equal-length compact cells, most
/// significant byte first.
fn compact_cmp_mag(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len();
    (a[n - 1] & 0x7f)
        .cmp(&(b[n - 1] & 0x7f))
        .then_with(|| a[..n - 1].iter().rev().cmp(b[..n - 1].iter().rev()))
}

/// Compares two compact cells of one type by value, without decoding:
/// the same total order as [`UpDecimal::cmp_value`] on the decoded
/// values (negative zero equals zero).
pub fn compact_cmp(a: &[u8], b: &[u8]) -> Ordering {
    assert_eq!(a.len(), b.len(), "compact_cmp compares cells of one type");
    let negative = |c: &[u8]| c[c.len() - 1] & 0x80 != 0;
    // With equal sign bits the magnitudes decide, negative zero
    // included; with opposite ones only two zeros tie.
    let zeros = || compact_mag_is_zero(a) && compact_mag_is_zero(b);
    match (negative(a), negative(b)) {
        (false, false) => compact_cmp_mag(a, b),
        (true, true) => compact_cmp_mag(b, a),
        (true, false) if !zeros() => Ordering::Less,
        (false, true) if !zeros() => Ordering::Greater,
        _ => Ordering::Equal,
    }
}

/// The most significant magnitude word of a compact cell: its bytes
/// from `4·(ceil(Lb/4) − 1)` on, sign bit masked off.
#[inline]
fn top_word(cell: &[u8]) -> u32 {
    let lb = cell.len();
    let lo = 4 * ((lb - 1) / 4);
    let mut b = [0u8; 4];
    b[..lb - lo].copy_from_slice(&cell[lo..]);
    b[lb - 1 - lo] &= 0x7f;
    u32::from_le_bytes(b)
}

/// Adds (`add_carry`) or subtracts (`sub_borrow`) a cell's magnitude
/// into two's-complement `words`, carrying as far as needed. Every
/// magnitude word but the top one is four whole bytes that never hold
/// the sign bit.
#[inline(always)]
fn fold_words(words: &mut [u32], cell: &[u8], step: impl Fn(u32, u32, &mut bool) -> u32) {
    let top = cell.len().div_ceil(4) - 1;
    let (low, high) = words.split_at_mut(top);
    let mut carry = false;
    for (w, b) in low.iter_mut().zip(cell.chunks_exact(4)) {
        *w = step(*w, u32::from_le_bytes([b[0], b[1], b[2], b[3]]), &mut carry);
    }
    high[0] = step(high[0], top_word(cell), &mut carry);
    for w in high[1..].iter_mut() {
        if !carry {
            break;
        }
        *w = step(*w, 0, &mut carry);
    }
}

/// A fixed-width two's-complement sum of compact cells of one type.
/// Adding a cell is one carry chain over fixed-width words, the cheap
/// way to add midsize integers, so a fold never allocates.
///
/// Width: a cell's magnitude is below `2^(8·Lb − 1)` and fits
/// `ceil(Lb/4)` words. One more word is row headroom: the carries of up
/// to `2^32` cells. A final sign word keeps the two's-complement total
/// unambiguous. So no sequence of at most `2^32` adds and subtracts can
/// overflow it, and [`CompactSum::finish`] is exact.
#[derive(Clone, Debug)]
pub struct CompactSum {
    lb: usize,
    /// Two's-complement total, least significant word first.
    words: Vec<u32>,
    /// Cells folded in, including merged partials (bounded by the row
    /// headroom).
    rows: u64,
}

impl CompactSum {
    /// An empty sum for cells of type `ty`.
    pub fn new(ty: DecimalType) -> Self {
        let lb = ty.lb();
        CompactSum { lb, words: vec![0; lb.div_ceil(4) + 2], rows: 0 }
    }

    /// Adds one compact cell.
    pub fn add(&mut self, cell: &[u8]) {
        self.fold(cell, false);
    }

    /// Subtracts one compact cell.
    pub fn sub(&mut self, cell: &[u8]) {
        self.fold(cell, true);
    }

    fn fold(&mut self, cell: &[u8], negate: bool) {
        assert_eq!(cell.len(), self.lb, "CompactSum folds cells of its own type");
        self.rows += 1;
        assert!(self.rows <= 1 << 32, "CompactSum row headroom exhausted");
        if (cell[self.lb - 1] & 0x80 != 0) != negate {
            fold_words(&mut self.words, cell, limbs::sub_borrow);
        } else {
            fold_words(&mut self.words, cell, limbs::add_carry);
        }
    }

    /// Adds another partial sum of the same type into this one.
    pub fn merge(&mut self, other: &CompactSum) {
        assert_eq!(self.lb, other.lb, "CompactSum merges sums of its own type");
        self.rows += other.rows;
        assert!(self.rows <= 1 << 32, "CompactSum row headroom exhausted");
        // Two's-complement words add modulo 2^(32·len); the carry out of
        // the sign word is dropped.
        limbs::add_assign(&mut self.words, &other.words);
    }

    /// The exact total as a normalized [`BigInt`].
    pub fn finish(&self) -> BigInt {
        let negative = self.words.last().is_some_and(|&w| w & 0x8000_0000 != 0);
        if !negative {
            return BigInt::from_sign_mag(Sign::Plus, self.words.clone());
        }
        // Magnitude of a negative total: invert and add one.
        let mut mag: Vec<u32> = self.words.iter().map(|w| !w).collect();
        let mut carry = true;
        for w in mag.iter_mut() {
            if !carry {
                break;
            }
            *w = limbs::add_carry(*w, 0, &mut carry);
        }
        BigInt::from_sign_mag(Sign::Minus, mag)
    }
}

/// Expands a compact buffer straight to the word-aligned form (what the
/// generated kernel's `Decimal<N>(cDecimal*)` constructor does).
pub fn expand_compact(bytes: &[u8], ty: DecimalType) -> WordRepr {
    let v = decode_compact(bytes, ty);
    WordRepr::from_decimal(&v, ty.lw())
}

/// Storage cost per value of the **alternative representation** (§III-B1):
/// the decimal point sits between array elements, each 32-bit word right of
/// the point holding 9 digits (10⁹ states). Returns the word count
/// `ceil(int_digits/9) + ceil(scale/9)` (minimum one word per side used by
/// PostgreSQL/RateupDB-style layouts). Used by the representation ablation.
pub fn alt_repr_words(ty: DecimalType) -> usize {
    let int_words = (ty.int_digits() as usize).div_ceil(9).max(1);
    let frac_words = (ty.scale as usize).div_ceil(9);
    int_words + frac_words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(p: u32, s: u32) -> DecimalType {
        DecimalType::new_unchecked(p, s)
    }

    #[test]
    fn fig4_example_minus_1_23_in_decimal_10_2() {
        let t = ty(10, 2);
        let v = UpDecimal::parse("-1.23", t).unwrap();
        // Compact: 5 bytes, value 123, sign bit set in the last byte.
        let c = encode_compact(&v, t).unwrap();
        assert_eq!(c, vec![123, 0, 0, 0, 0x80]);
        // Word-aligned: 2 words + sign byte = 9 bytes.
        let w = WordRepr::from_decimal(&v, t.lw());
        assert_eq!(w.words, vec![123, 0]);
        assert_eq!(w.sign, -1);
        assert_eq!(w.size_bytes(), 9);
    }

    #[test]
    fn round_trip_positive_negative_zero() {
        let t = ty(20, 4);
        for s in ["0", "0.0001", "-0.0001", "12345.6789", "-9999999999999999.9999"] {
            let v = UpDecimal::parse(s, t).unwrap();
            let c = encode_compact(&v, t).unwrap();
            assert_eq!(c.len(), t.lb());
            let back = decode_compact(&c, t);
            assert_eq!(back, v, "{s}");
        }
    }

    #[test]
    fn zero_never_encodes_a_sign_bit() {
        let t = ty(10, 2);
        let z = UpDecimal::zero(t);
        let c = encode_compact(&z, t).unwrap();
        assert!(c.iter().all(|&b| b == 0));
    }

    #[test]
    fn word_repr_round_trip() {
        let t = ty(38, 10);
        let v = UpDecimal::parse("-1234567890123456789.0123456789", t).unwrap();
        let w = WordRepr::from_decimal(&v, t.lw());
        assert_eq!(w.words.len(), t.lw());
        assert_eq!(w.to_decimal(t), v);
    }

    #[test]
    fn compact_rejects_overwide_magnitude() {
        // A value that fits (4,0)'s digits but pretend Lb is for (2,0).
        let small = ty(2, 0);
        let v = UpDecimal::parse("9999", ty(4, 0)).unwrap();
        // 9999 needs 14 bits; Lb(2) = 1 byte = 7 magnitude bits.
        assert!(encode_compact(&v, small).is_err());
    }

    #[test]
    fn alternative_representation_storage_cost() {
        // §III-B1: representing 1.23 word-aligned needs two words (one for
        // 1, one for 0.23) — double the compact one word.
        let t = ty(4, 2);
        assert_eq!(alt_repr_words(t), 2);
        assert_eq!(t.lw(), 1);
        // High precision narrows the gap.
        let big = ty(76, 38);
        assert_eq!(alt_repr_words(big), 5 + 5);
        assert_eq!(big.lw(), 8);
    }

    #[test]
    fn expand_matches_decode_then_expand() {
        let t = ty(17, 5);
        let v = UpDecimal::parse("-123456789012.34567", t).unwrap();
        let c = encode_compact(&v, t).unwrap();
        let w = expand_compact(&c, t);
        assert_eq!(w.to_decimal(t), v);
    }
}
