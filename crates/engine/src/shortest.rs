//! Shortest-roundtrip number formatting for the response encoder.
//!
//! [`write_f64`] appends the same bytes as `format!("{x:?}")`: the
//! shortest decimal that parses back to `x`, closest to `x` among those,
//! in decimal form with at least one fractional digit (`1.0`, `0.0001`)
//! when `1e-4 <= |x| < 1e16` or `x == 0`, and in exponent form (`1e16`,
//! `2.5e-7`) otherwise; `-0.0` keeps its sign. It finds the digits with
//! Ryu (Adams, *Ryū: fast float-to-string conversion*, PLDI 2018), with
//! one change: where the exact value lies halfway between two shortest
//! candidates, std rounds up and so does this writer (reference Ryu
//! rounds such ties to even).
//!
//! The power-of-5 multiplier tables are built at compile time by `const`
//! evaluation over a small fixed-width bignum, so nothing is computed at
//! run time; a test recomputes them independently. [`write_u64`] is the
//! integer writer for counters and probe counts.

use std::fmt::Write as _;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_MASK: u64 = 0x7ff;
const BIAS: i32 = 1023;

/// Bits kept of each `5^i` (and of each `2^j / 5^i`) in the tables.
const POW5_BITCOUNT: u32 = 125;
const POW5_INV_BITCOUNT: u32 = 125;
/// `5^i` for `i < POW5_LEN` covers every binary exponent below zero.
const POW5_LEN: usize = 326;
/// `2^j / 5^i` for `i < POW5_INV_LEN` covers every exponent above zero.
const POW5_INV_LEN: usize = 342;

/// Limbs of the compile-time bignum: 960 bits hold `2^959`, the dividend
/// the inverse table is cut from (the largest shift it needs is 916).
const LIMBS: usize = 15;
const TOP_BIT: u32 = LIMBS as u32 * 64 - 1;

/// `5^i`, normalized to its top [`POW5_BITCOUNT`] bits.
static POW5: [u128; POW5_LEN] = pow5_table();
/// `floor(2^j / 5^i) + 1` with `j = bitlen(5^i) - 1 + POW5_INV_BITCOUNT`.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

const fn bit_len(x: &[u64; LIMBS]) -> u32 {
    let mut limb = LIMBS;
    while limb > 0 {
        limb -= 1;
        if x[limb] != 0 {
            return limb as u32 * 64 + 64 - x[limb].leading_zeros();
        }
    }
    0
}

const fn limb_or_zero(x: &[u64; LIMBS], i: usize) -> u128 {
    if i < LIMBS {
        x[i] as u128
    } else {
        0
    }
}

/// The 128 bits of `x` starting at bit `shift`.
const fn bits_at(x: &[u64; LIMBS], shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let offset = shift % 64;
    let low = limb_or_zero(x, limb) | (limb_or_zero(x, limb + 1) << 64);
    if offset == 0 {
        low
    } else {
        (low >> offset) | (limb_or_zero(x, limb + 2) << (128 - offset))
    }
}

const fn mul_small(x: &mut [u64; LIMBS], factor: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let product = x[i] as u128 * factor as u128 + carry;
        x[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
}

const fn div_small(x: &mut [u64; LIMBS], divisor: u64) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let current = (rem << 64) | x[i] as u128;
        x[i] = (current / divisor as u128) as u64;
        rem = current % divisor as u128;
    }
}

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0u128; POW5_LEN];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let len = bit_len(&pow);
        table[i] = if len > POW5_BITCOUNT {
            bits_at(&pow, len - POW5_BITCOUNT)
        } else {
            bits_at(&pow, 0) << (POW5_BITCOUNT - len)
        };
        mul_small(&mut pow, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0u128; POW5_INV_LEN];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    // floor(2^TOP_BIT / 5^i): dividing by 5 once per step keeps it exact,
    // since floor(floor(a / b) / c) == floor(a / (b c)).
    let mut quotient = [0u64; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let j = bit_len(&pow) - 1 + POW5_INV_BITCOUNT;
        // floor(2^j / 5^i) == floor(2^TOP_BIT / 5^i) >> (TOP_BIT - j).
        table[i] = bits_at(&quotient, TOP_BIT - j) + 1;
        mul_small(&mut pow, 5);
        div_small(&mut quotient, 5);
        i += 1;
    }
    table
}

/// `ceil(log2(5^e))` for `e >= 1`, and 1 for `e == 0`; exact for
/// `0 <= e <= 3528`.
fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `(m * mul) >> j` for a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Ryu's digit search: the shortest decimal `mantissa * 10^exponent` in
/// the rounding interval of the finite, nonzero double with the given
/// IEEE fields, closest to it, ties rounded up.
fn shortest_digits(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    // The rounding interval is (mv - 1 - mm_shift, mv + 2) * 2^e2 / 4.
    // Reference Ryu also tracks whether the value itself is exact, but
    // only to round exact ties to even; ties round up here, so only the
    // exactness of the lower bound matters.
    let mut vm_is_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10) = if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        let k = POW5_INV_BITCOUNT + pow5_bits(q) - 1;
        let shift = (q as i32 + k as i32 - e2) as u32;
        let mul = POW5_INV[q as usize];
        let mut vp = mul_shift(mv + 2, mul, shift);
        // At most one of mv, mv + 2 and mv - 1 - mm_shift is a multiple
        // of 5, and only a bound that is exact changes the result.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
        (
            mul_shift(mv, mul, shift),
            vp,
            mul_shift(mv - 1 - mm_shift, mul, shift),
            q as i32,
        )
    } else {
        let minus_e2 = (-e2) as u32;
        let q = log10_pow5(minus_e2) - u32::from(minus_e2 > 1);
        let i = minus_e2 - q;
        let k = pow5_bits(i) as i32 - POW5_BITCOUNT as i32;
        let shift = (q as i32 - k) as u32;
        let mul = POW5[i as usize];
        let mut vp = mul_shift(mv + 2, mul, shift);
        if q <= 1 {
            if accept_bounds {
                // mv - 1 - mm_shift has a trailing zero bit iff mm_shift.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mv + 2 always has a trailing zero bit.
                vp -= 1;
            }
        }
        (
            mul_shift(mv, mul, shift),
            vp,
            mul_shift(mv - 1 - mm_shift, mul, shift),
            q as i32 + e2,
        )
    };

    let mut removed = 0;
    let mut round_up = false;
    if vm_is_trailing_zeros {
        // Rare case: the lower bound is exact and may itself be the
        // shortest representation.
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                round_up = vr % 10 >= 5;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let below_interval = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
        return (vr + u64::from(below_interval || round_up), e10 + removed);
    }
    // Common case: drop two digits at a time while that stays in the
    // interval, then one at a time.
    if vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    (vr + u64::from(vr == vm || round_up), e10 + removed)
}

const DIGIT_PAIRS: [u8; 200] = digit_pairs();

const fn digit_pairs() -> [u8; 200] {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
}

/// Writes the decimal digits of `v` right-aligned into `buf`; returns the
/// index of the first digit.
fn digits_into(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut start = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + v as u8;
    }
    start
}

/// Appends bytes this module assembled. They are ASCII digits, signs,
/// points and `e`, so the UTF-8 check always passes.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        out.push_str(text);
    }
}

/// Appends `n` in decimal.
pub(crate) fn write_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = digits_into(n, &mut buf);
    push_ascii(out, &buf[start..]);
}

/// Appends `x` exactly as `format!("{x:?}")` would.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        // `NaN`, `inf`, `-inf`: left to std. Writing into a `String`
        // cannot fail.
        let _ = write!(out, "{x:?}");
        return;
    }
    // Sign, up to 17 digits, a point and the exponent or padding zeros
    // take at most 24 bytes.
    let mut text = [0u8; 32];
    let mut len = 0;
    let mut put = |bytes: &[u8]| {
        text[len..len + bytes.len()].copy_from_slice(bytes);
        len += bytes.len();
    };
    if x.is_sign_negative() {
        put(b"-");
    }
    let abs = x.abs();
    if abs == 0.0 {
        put(b"0.0");
        return push_ascii(out, &text[..len]);
    }
    let bits = x.to_bits();
    let (mantissa, exponent) = shortest_digits(
        bits & ((1u64 << MANTISSA_BITS) - 1),
        ((bits >> MANTISSA_BITS) & EXPONENT_MASK) as u32,
    );
    let mut buf = [0u8; 20];
    let start = digits_into(mantissa, &mut buf);
    let digits = &buf[start..];
    let count = digits.len() as i32;
    if (1e-4..1e16).contains(&abs) {
        // Decimal form, with at least one fractional digit.
        let point = count + exponent;
        if exponent >= 0 {
            put(digits);
            for _ in 0..exponent {
                put(b"0");
            }
            put(b".0");
        } else if point > 0 {
            let (int, frac) = digits.split_at(point as usize);
            put(int);
            put(b".");
            put(frac);
        } else {
            put(b"0.");
            for _ in 0..-point {
                put(b"0");
            }
            put(digits);
        }
    } else {
        let (first, rest) = digits.split_at(1);
        put(first);
        if !rest.is_empty() {
            put(b".");
            put(rest);
        }
        put(b"e");
        let scientific = exponent + count - 1;
        if scientific < 0 {
            put(b"-");
        }
        let mut exp_buf = [0u8; 20];
        let exp_start = digits_into(u64::from(scientific.unsigned_abs()), &mut exp_buf);
        put(&exp_buf[exp_start..]);
    }
    push_ascii(out, &text[..len]);
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::{RngCore, SeedableRng};

    use super::*;

    fn shortest(x: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, x);
        out
    }

    fn assert_matches_std(x: f64) {
        assert_eq!(shortest(x), format!("{x:?}"), "bits {:#018x}", x.to_bits());
    }

    /// `5^i` as little-endian `u32` limbs.
    fn pow5_big(i: usize) -> Vec<u32> {
        let mut big = vec![1u32];
        for _ in 0..i {
            let mut carry = 0u64;
            for limb in &mut big {
                let product = u64::from(*limb) * 5 + carry;
                *limb = product as u32;
                carry = product >> 32;
            }
            if carry > 0 {
                big.push(carry as u32);
            }
        }
        big
    }

    fn big_bit_len(big: &[u32]) -> u32 {
        let top = big.iter().rposition(|&limb| limb != 0).unwrap();
        top as u32 * 32 + 32 - big[top].leading_zeros()
    }

    /// `big * small` for a `u128` multiplier.
    fn big_mul(big: &[u32], small: u128) -> Vec<u32> {
        let factor: Vec<u32> = (0..4).map(|k| (small >> (32 * k)) as u32).collect();
        let mut product = vec![0u64; big.len() + factor.len() + 1];
        for (i, &a) in big.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in factor.iter().enumerate() {
                let cell = product[i + j] + u64::from(a) * u64::from(b) + carry;
                product[i + j] = cell & 0xffff_ffff;
                carry = cell >> 32;
            }
            product[i + factor.len()] += carry;
        }
        product.into_iter().map(|limb| limb as u32).collect()
    }

    /// Compares two little-endian bignums of any limb counts.
    fn big_cmp(a: &[u32], b: &[u32]) -> std::cmp::Ordering {
        let len = a.len().max(b.len());
        for k in (0..len).rev() {
            let x = a.get(k).copied().unwrap_or(0);
            let y = b.get(k).copied().unwrap_or(0);
            if x != y {
                return x.cmp(&y);
            }
        }
        std::cmp::Ordering::Equal
    }

    fn pow2_big(j: u32) -> Vec<u32> {
        let mut big = vec![0u32; j as usize / 32 + 1];
        big[j as usize / 32] = 1 << (j % 32);
        big
    }

    #[test]
    fn compile_time_tables_equal_a_bignum_recomputation() {
        for (i, &entry) in POW5.iter().enumerate() {
            // entry == floor(5^i * 2^(125 - bitlen)), checked as
            // entry * 2^s <= 5^i * 2^t < (entry + 1) * 2^s.
            let pow = pow5_big(i);
            let len = big_bit_len(&pow);
            let (scaled_pow, shift) = if len > POW5_BITCOUNT {
                (pow.clone(), len - POW5_BITCOUNT)
            } else {
                (big_mul(&pow, 1u128 << (POW5_BITCOUNT - len)), 0)
            };
            let low = big_mul(&pow2_big(shift), entry);
            let high = big_mul(&pow2_big(shift), entry + 1);
            assert_ne!(
                big_cmp(&low, &scaled_pow),
                std::cmp::Ordering::Greater,
                "5^{i}"
            );
            assert_eq!(
                big_cmp(&scaled_pow, &high),
                std::cmp::Ordering::Less,
                "5^{i}"
            );
            assert_eq!(
                128 - entry.leading_zeros(),
                POW5_BITCOUNT,
                "5^{i} is normalized"
            );
        }
        for (i, &entry) in POW5_INV.iter().enumerate() {
            // entry - 1 == floor(2^j / 5^i): (entry - 1) 5^i <= 2^j < entry 5^i.
            let pow = pow5_big(i);
            let j = big_bit_len(&pow) - 1 + POW5_INV_BITCOUNT;
            let target = pow2_big(j);
            let below = big_mul(&pow, entry - 1);
            let above = big_mul(&pow, entry);
            assert_ne!(
                big_cmp(&below, &target),
                std::cmp::Ordering::Greater,
                "2^{j}/5^{i}"
            );
            assert_eq!(
                big_cmp(&target, &above),
                std::cmp::Ordering::Less,
                "2^{j}/5^{i}"
            );
        }
    }

    #[test]
    fn matches_std_on_seeded_random_bit_patterns() {
        let mut rng = zeroconf_rng::rngs::StdRng::seed_from_u64(0x5eed_f10a7);
        for _ in 0..200_000 {
            assert_matches_std(f64::from_bits(rng.next_u64()));
        }
    }

    #[test]
    fn matches_std_on_structured_values() {
        let mut values = vec![
            0.0,
            5e-324,
            1e-323,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            1.0,
            0.1,
            0.3,
            2.0_f64.powi(-25),
            f64::NAN,
            f64::INFINITY,
            12.600000000000001,
        ];
        // Subnormals: the smallest few, the largest few, and a spread.
        for k in 1..2000u64 {
            values.push(f64::from_bits(k));
            values.push(f64::from_bits((1u64 << 52) - k));
            values.push(f64::from_bits(k * 2_251_799_813_685));
        }
        for e in -1074..=1023_i32 {
            values.push(if e < -1022 {
                f64::from_bits(1 << (e + 1074))
            } else {
                f64::from_bits(((e + 1023) as u64) << 52)
            });
        }
        for k in -323..=308 {
            values.push(format!("1e{k}").parse().unwrap());
        }
        for n in 0..100_000 {
            values.push(f64::from(n));
        }
        for k in 0..100_000 {
            values.push(f64::from(k) / 1000.0);
        }
        // The decimal/exponent boundaries and their neighbours.
        for edge in [1e-4, 1e16] {
            let bits = f64::to_bits(edge);
            values.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        for x in values {
            assert_matches_std(x);
            assert_matches_std(-x);
        }
    }

    #[test]
    fn ties_round_up_like_std() {
        // 2^-25 = 2.98023223876953125e-8 lies exactly between the two
        // 17-digit candidates; round-half-even would print ...312.
        assert_eq!(shortest(2.0_f64.powi(-25)), "2.9802322387695313e-8");
    }

    #[test]
    fn integers_print_in_decimal() {
        for n in [0, 7, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }
}
