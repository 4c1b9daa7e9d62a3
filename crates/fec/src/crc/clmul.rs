//! CRC-32 by carry-less-multiply folding (x86_64, PCLMULQDQ).
//!
//! The reflected-bit-order scheme of Gopal et al., "Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009),
//! folding one 16-byte block per step. In the reflected domain a 128-bit
//! register loaded little-endian holds the polynomial with its *earlier*
//! bytes (higher degree) in the low 64 bits, so one step is
//!
//! ```text
//! acc' = clmul(acc.lo, K3) ^ clmul(acc.hi, K4) ^ next_block
//! ```
//!
//! with `K3 = x^160 mod P` and `K4 = x^96 mod P` (each bit-reflected and
//! shifted left by one, the convention that absorbs the extra low bit of
//! a reflected 64×64 product). The last accumulator is folded 128 → 96
//! → 64 bits (`K4`, then `K5 = x^64 mod P`), which also appends the 32
//! zero bits that turn the message into its remainder, and a Barrett
//! reduction (`MU = floor(x^64 / P)`, `P`) yields the 32-bit register.
//!
//! An input of `n ≥ 16` bytes with `n % 16 != 0` is treated as
//! `z = 16 - n % 16` zero bytes followed by the input, so every block is
//! whole and no serial byte loop remains. The CRC register's update over
//! a zero byte is invertible, so [`ZERO_PREFIX_SEEDS`]`[z]` — the
//! all-ones initial register carried *back* through `z` zero bytes —
//! makes the padded input reach exactly the state the unpadded one
//! starts from.
//!
//! The padded first block never touches memory: the input's first 16
//! bytes, read as a little-endian `u128` and shifted up by `8·z` bits,
//! are exactly `z` zero bytes and then the input's first `16 - z`.
//!
//! This is the one module of the crate that uses `unsafe`: calling the
//! `#[target_feature]` kernel (sound only after the run-time PCLMULQDQ
//! check) and the unaligned 16-byte loads of whole blocks (each within
//! its slice).

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_loadu_si128,
    _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// The reflected CRC-32 polynomial, `0x04C11DB7` bit-reversed.
const POLY_REFLECTED: u32 = 0xEDB8_8320;

/// `x^(128+32) mod P`, reflected and shifted left by one: folds the
/// accumulator's low (earlier) half across one 16-byte block.
const K3: u64 = 0x1_7519_97D0;
/// `x^(128-32) mod P`, reflected and shifted: folds the high half
/// across one block, and the low half into the high one at the end.
const K4: u64 = 0x0_CCAA_009E;
/// `x^64 mod P`, reflected and shifted: the 96 → 64-bit fold.
const K5: u64 = 0x1_63CD_6124;
/// `floor(x^64 / P)`, reflected (33 bits): the Barrett quotient.
const MU: u64 = 0x1_F701_1641;
/// `P` itself, reflected (33 bits).
const P: u64 = 0x1_DB71_0641;

/// Undo one zero byte's update of the reflected register: each of the
/// eight bit steps `c' = c >> 1 ^ (c & 1) * POLY` is inverted by reading
/// the shifted-out bit back from bit 31 (set only when POLY was XORed,
/// since `c >> 1` never sets it).
const fn unshift_zero_byte(mut c: u32) -> u32 {
    let mut b = 0;
    while b < 8 {
        c = if c & 0x8000_0000 != 0 {
            ((c ^ POLY_REFLECTED) << 1) | 1
        } else {
            c << 1
        };
        b += 1;
    }
    c
}

/// `ZERO_PREFIX_SEEDS[z]` is the register that `z` zero bytes carry to
/// `0xFFFF_FFFF`, the CRC-32 initial value.
const ZERO_PREFIX_SEEDS: [u32; 16] = {
    let mut seeds = [0u32; 16];
    let mut reg = 0xFFFF_FFFF;
    let mut z = 0;
    while z < 16 {
        seeds[z] = reg;
        reg = unshift_zero_byte(reg);
        z += 1;
    }
    seeds
};

/// The CRC-32 of `data` (at least 16 bytes) by folding, or `None` when
/// this CPU lacks PCLMULQDQ and the caller must use the portable path.
pub(super) fn checksum(data: &[u8]) -> Option<u32> {
    debug_assert!(data.len() >= 16, "the fold needs one whole block");
    if !std::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    // SAFETY: `fold` is compiled with `pclmulqdq` enabled, which the
    // check above found on this CPU; its other instructions are SSE2,
    // part of the x86_64 baseline.
    Some(unsafe { fold(data) } ^ 0xFFFF_FFFF)
}

/// Fold `data` (at least 16 bytes) into the reflected CRC-32 register,
/// before the final XOR.
#[target_feature(enable = "pclmulqdq")]
fn fold(data: &[u8]) -> u32 {
    let z = (16 - data.len() % 16) % 16;
    let blocks = &data[16 - z..];
    debug_assert_eq!(blocks.len() % 16, 0, "the zero prefix makes blocks whole");
    // The zero-padded first block, built in registers (module doc), with
    // the seed XORed into its low (earliest) 32 bits.
    let head = u128::from_le_bytes(data[..16].try_into().expect("16 bytes"));
    let first = (head << (8 * z)) ^ ZERO_PREFIX_SEEDS[z] as u128;
    let mut acc = _mm_set_epi64x((first >> 64) as i64, first as i64);

    let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
    for block in blocks.chunks_exact(16) {
        // SAFETY: `chunks_exact(16)` yields 16-byte slices, so the
        // unaligned 16-byte load stays inside `block`.
        let next = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        let lo = _mm_clmulepi64_si128(acc, k3k4, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k3k4, 0x11);
        acc = _mm_xor_si128(_mm_xor_si128(lo, hi), next);
    }
    reduce(acc, k3k4)
}

/// Reduce the 128-bit accumulator (message times `x^32` still to be
/// taken) to the 32-bit register.
#[target_feature(enable = "pclmulqdq")]
fn reduce(acc: __m128i, k3k4: __m128i) -> u32 {
    let mask32 = _mm_set_epi32(0, 0, 0, -1);
    // 128 → 96 bits: the low half times x^96 onto the high half.
    let acc = _mm_xor_si128(
        _mm_srli_si128(acc, 8),
        _mm_clmulepi64_si128(acc, k3k4, 0x10),
    );
    // 96 → 64 bits: the low 32 bits times x^64 onto the rest.
    let k5 = _mm_set_epi64x(0, K5 as i64);
    let acc = _mm_xor_si128(
        _mm_srli_si128(acc, 4),
        _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), k5, 0x00),
    );
    // Barrett: q = floor(lo32 · MU / x^32), remainder = acc ^ q · P,
    // which leaves the register in bits 32..64.
    let mu_p = _mm_set_epi64x(MU as i64, P as i64);
    let q = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), mu_p, 0x10);
    let qp = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), mu_p, 0x00);
    _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, qp), 4)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x^n mod P` for the non-reflected `P = 0x1_04C1_1DB7`.
    fn x_pow_mod(n: u32) -> u32 {
        let mut r: u64 = 1;
        for _ in 0..n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= 0x1_04C1_1DB7;
            }
        }
        r as u32
    }

    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        let shifted = |n| (x_pow_mod(n).reverse_bits() as u64) << 1;
        assert_eq!(K3, shifted(128 + 32));
        assert_eq!(K4, shifted(128 - 32));
        assert_eq!(K5, shifted(64));
        // floor(x^64 / P) by long division, then reflected over 33 bits.
        let (mut rem, mut quo): (u128, u64) = (1 << 64, 0);
        for bit in (0..=32).rev() {
            if rem & (1u128 << (bit + 32)) != 0 {
                rem ^= 0x1_04C1_1DB7u128 << bit;
                quo |= 1 << bit;
            }
        }
        assert_eq!(MU, quo.reverse_bits() >> 31);
        assert_eq!(P, 0x1_04C1_1DB7u64.reverse_bits() >> 31);
    }

    #[test]
    fn zero_prefix_seeds_reach_all_ones() {
        for (z, &seed) in ZERO_PREFIX_SEEDS.iter().enumerate() {
            let mut reg = seed;
            for _ in 0..z {
                for _ in 0..8 {
                    reg = (reg >> 1) ^ if reg & 1 != 0 { POLY_REFLECTED } else { 0 };
                }
            }
            assert_eq!(reg, 0xFFFF_FFFF, "{z} zero bytes");
        }
    }
}
