//! The compact-cell fold helpers against their decoded references:
//! `CompactSum` must equal a `BigInt` sum of the decoded cells, and
//! `compact_sign`/`compact_cmp` must agree with `UpDecimal::sign` and
//! `UpDecimal::cmp_value`, for every `LEN` from 1 to 32 and for the
//! awkward cells: negative zero, the largest magnitude below the sign
//! bit, and carries and borrows across every limb boundary.

use proptest::prelude::*;
use up_num::bigint::{BigInt, Sign};
use up_num::dtype::{max_precision_for_lw, DecimalType};
use up_num::{compact_cmp, compact_sign, decode_compact, encode_compact, CompactSum, UpDecimal};

/// A precision whose `Lw` is exactly `len`, picked by `pick`.
fn precision_for_len(len: usize, pick: u64) -> u32 {
    let lo = if len == 1 {
        1
    } else {
        max_precision_for_lw(len - 1) + 1
    };
    let hi = max_precision_for_lw(len);
    lo + (pick % u64::from(hi - lo + 1)) as u32
}

/// SplitMix64, for filling cells from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Magnitude bits a cell of `ty` can carry: everything below the sign
/// bit, or only what `decode_compact` reads back when `decodable`
/// (`Lw` words can be a few bits narrower than `8·Lb − 1`).
fn mag_bits(ty: DecimalType, decodable: bool) -> usize {
    let below_sign = 8 * ty.lb() - 1;
    if decodable {
        below_sign.min(32 * ty.lw())
    } else {
        below_sign
    }
}

/// A compact cell of `ty` with at most `mag_bits` magnitude bits, drawn
/// from `seed`: random full-width bits, a random bit length, the
/// all-ones largest magnitude, or a zero magnitude — each with either
/// sign bit, so negative zero occurs.
fn cell(ty: DecimalType, mag_bits: usize, seed: u64) -> Vec<u8> {
    let lb = ty.lb();
    let mut st = seed;
    let mut c: Vec<u8> = (0..lb).map(|_| splitmix(&mut st) as u8).collect();
    let keep = match seed % 4 {
        0 => mag_bits,
        1 => (splitmix(&mut st) % (mag_bits as u64 + 1)) as usize,
        2 => {
            c.fill(0xff);
            mag_bits
        }
        _ => 0,
    };
    for bit in keep..8 * lb - 1 {
        c[bit / 8] &= !(1 << (bit % 8));
    }
    c[lb - 1] = (c[lb - 1] & 0x7f) | if seed & (1 << 40) != 0 { 0x80 } else { 0 };
    c
}

/// The signed integer a cell encodes, read independently of
/// `decode_compact` (which only reads `Lw` words).
fn int_of(c: &[u8]) -> BigInt {
    let lb = c.len();
    let mut mag = vec![0u32; lb.div_ceil(4)];
    for (i, &b) in c.iter().enumerate() {
        let b = if i == lb - 1 { b & 0x7f } else { b };
        mag[i / 4] |= u32::from(b) << (8 * (i % 4));
    }
    let sign = if c[lb - 1] & 0x80 != 0 {
        Sign::Minus
    } else {
        Sign::Plus
    };
    BigInt::from_sign_mag(sign, mag)
}

/// Folds `cells` (adding or subtracting each) into a `CompactSum` and
/// into a `BigInt`, and asserts they agree.
fn assert_sum_matches(ty: DecimalType, cells: &[(Vec<u8>, bool)]) {
    let mut acc = CompactSum::new(ty);
    let mut want = BigInt::zero();
    for (c, subtract) in cells {
        if *subtract {
            acc.sub(c);
            want = want.sub(&int_of(c));
        } else {
            acc.add(c);
            want = want.add(&int_of(c));
        }
    }
    assert_eq!(acc.finish(), want, "{ty}");
}

fn magnitude_cell(mag: &BigInt, negative: bool, ty: DecimalType) -> Vec<u8> {
    let v = if negative { mag.neg() } else { mag.clone() };
    encode_compact(&UpDecimal::from_parts_unchecked(v, ty), ty).expect("fits Lb")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_sum_matches_bigint_sum(
        len in 1usize..=32,
        pick in any::<u64>(),
        cells in prop::collection::vec((any::<u64>(), any::<bool>()), 1..48),
    ) {
        let ty = DecimalType::new_unchecked(precision_for_len(len, pick), 0);
        let cells: Vec<(Vec<u8>, bool)> =
            cells.iter().map(|&(seed, sub)| (cell(ty, mag_bits(ty, false), seed), sub)).collect();
        assert_sum_matches(ty, &cells);
        // Partials merged in order equal the one-pass total.
        let mid = cells.len() / 2;
        let mut left = CompactSum::new(ty);
        let mut right = CompactSum::new(ty);
        let mut whole = CompactSum::new(ty);
        for (k, (c, _)) in cells.iter().enumerate() {
            whole.add(c);
            if k < mid { left.add(c) } else { right.add(c) }
        }
        left.merge(&right);
        prop_assert_eq!(left.finish(), whole.finish());
    }

    #[test]
    fn compact_sign_and_cmp_match_decoded(
        len in 1usize..=32,
        pick in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let ty = DecimalType::new_unchecked(precision_for_len(len, pick), 2.min(len as u32));
        let bits = mag_bits(ty, true);
        let (ca, cb) = (cell(ty, bits, a), cell(ty, bits, b));
        let (da, db) = (decode_compact(&ca, ty), decode_compact(&cb, ty));
        prop_assert_eq!(compact_sign(&ca), da.sign());
        prop_assert_eq!(compact_cmp(&ca, &cb), da.cmp_value(&db));
        prop_assert_eq!(compact_cmp(&cb, &ca), db.cmp_value(&da));
        prop_assert_eq!(compact_cmp(&ca, &ca), core::cmp::Ordering::Equal);
    }
}

#[test]
fn every_lb_residue_sums_and_compares_exactly() {
    // Every precision up to LEN 32 covers Lb ≡ 0, 1, 2, 3 (mod 4).
    let mut residues = [false; 4];
    for p in 1..=max_precision_for_lw(32) {
        let ty = DecimalType::new_unchecked(p, 0);
        residues[ty.lb() % 4] = true;
        let seeds = (0..12u64).map(|k| k * 0x1_0000_0001 + u64::from(p));
        let wide: Vec<(Vec<u8>, bool)> = seeds
            .clone()
            .map(|s| (cell(ty, mag_bits(ty, false), s), s % 3 == 1))
            .collect();
        assert_sum_matches(ty, &wide);
        let cells: Vec<(Vec<u8>, bool)> = seeds
            .map(|s| (cell(ty, mag_bits(ty, true), s), s % 3 == 1))
            .collect();
        assert_sum_matches(ty, &cells);
        for (a, _) in &cells {
            for (b, _) in &cells {
                let (da, db) = (decode_compact(a, ty), decode_compact(b, ty));
                assert_eq!(compact_cmp(a, b), da.cmp_value(&db), "{ty}");
            }
        }
    }
    assert_eq!(residues, [true; 4]);
}

#[test]
fn carries_and_borrows_cross_every_limb_boundary() {
    let ty = DecimalType::new_unchecked(max_precision_for_lw(32), 0);
    let lb_bits = 8 * ty.lb() as u32 - 1;
    let one = BigInt::one();
    for k in 1..=lb_bits / 32 {
        // 2^(32k) − 1 plus one carries out of word k−1 into word k ...
        let below = BigInt::from(2u64).pow(32 * k).sub(&one);
        let ones = magnitude_cell(&below, false, ty);
        let unit = magnitude_cell(&one, false, ty);
        assert_sum_matches(ty, &[(ones.clone(), false), (unit.clone(), false)]);
        // ... and zero minus it borrows through every higher word.
        assert_sum_matches(ty, &[(ones.clone(), true)]);
        assert_sum_matches(ty, &[(unit.clone(), false), (ones.clone(), true)]);
        // Adding a negative cell is the same borrow.
        let neg = magnitude_cell(&below, true, ty);
        assert_sum_matches(
            ty,
            &[(unit.clone(), false), (neg.clone(), false), (neg, false)],
        );
        // Back and forth across zero at this boundary.
        assert_sum_matches(
            ty,
            &[
                (ones.clone(), true),
                (unit.clone(), true),
                (ones, false),
                (unit, false),
            ],
        );
    }
}

#[test]
fn top_magnitude_bit_just_below_the_sign_bit() {
    for p in [1, 2, 9, 10, 18, 19, 38, 39, 76, 77, 153, 307] {
        let ty = DecimalType::new_unchecked(p, 0);
        let below_sign = mag_bits(ty, false) as u32;
        let max = BigInt::from(2u64).pow(below_sign).sub(&BigInt::one());
        let top = BigInt::from(2u64).pow(below_sign - 1);
        let cells: Vec<(Vec<u8>, bool)> = (0..1000)
            .map(|k| {
                let mag = if k % 2 == 0 { &max } else { &top };
                (magnitude_cell(mag, k % 7 == 3, ty), k % 5 == 4)
            })
            .collect();
        assert_sum_matches(ty, &cells);
        // 1000 copies of the largest magnitude, each sign.
        for negative in [false, true] {
            let c = magnitude_cell(&max, negative, ty);
            let mut acc = CompactSum::new(ty);
            for _ in 0..1000 {
                acc.add(&c);
            }
            let want = max.mul(&BigInt::from(1000i64));
            let want = if negative { want.neg() } else { want };
            assert_eq!(acc.finish(), want, "{ty}");
        }
        let (cmax, ctop) = (
            magnitude_cell(&max, false, ty),
            magnitude_cell(&top, false, ty),
        );
        // The decoded order is a reference only where `Lw` words hold
        // the bit below the sign bit (not at p = 19 or 77).
        if mag_bits(ty, true) == mag_bits(ty, false) {
            let (dmax, dtop) = (decode_compact(&cmax, ty), decode_compact(&ctop, ty));
            assert_eq!(compact_cmp(&cmax, &ctop), dmax.cmp_value(&dtop));
        }
        assert_eq!(compact_cmp(&cmax, &ctop), core::cmp::Ordering::Greater);
        let (nmax, ntop) = (
            magnitude_cell(&max, true, ty),
            magnitude_cell(&top, true, ty),
        );
        assert_eq!(compact_cmp(&nmax, &ntop), core::cmp::Ordering::Less);
        assert_eq!(compact_cmp(&nmax, &cmax), core::cmp::Ordering::Less);
    }
}

#[test]
fn negative_zero_is_zero() {
    for p in [1, 4, 10, 38, 307] {
        let ty = DecimalType::new_unchecked(p, 0);
        let lb = ty.lb();
        let zero = vec![0u8; lb];
        let mut neg_zero = vec![0u8; lb];
        neg_zero[lb - 1] = 0x80;
        assert_eq!(compact_sign(&neg_zero), Sign::Zero);
        assert_eq!(compact_cmp(&neg_zero, &zero), core::cmp::Ordering::Equal);
        let one = magnitude_cell(&BigInt::one(), false, ty);
        let minus_one = magnitude_cell(&BigInt::one(), true, ty);
        assert_eq!(compact_cmp(&neg_zero, &one), core::cmp::Ordering::Less);
        assert_eq!(
            compact_cmp(&neg_zero, &minus_one),
            core::cmp::Ordering::Greater
        );
        let mut acc = CompactSum::new(ty);
        acc.add(&neg_zero);
        acc.sub(&neg_zero);
        assert_eq!(acc.finish(), BigInt::zero());
        assert_eq!(acc.finish().sign(), Sign::Zero);
        assert_sum_matches(
            ty,
            &[(one, false), (neg_zero.clone(), false), (minus_one, true)],
        );
    }
}
