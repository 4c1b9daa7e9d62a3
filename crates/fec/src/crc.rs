//! Frame check sequences.
//!
//! HDLC and LAMS-DLC frames both carry a CRC so the receiver can treat any
//! corruption as a *detectable* error (paper assumption 9: frame losses are
//! detectable errors; undetectable CRC violations are out of scope).
//!
//! Two generators are provided:
//!
//! * [`Crc16Ccitt`] — the X.25/HDLC FCS (poly 0x1021, reflected, init
//!   0xFFFF, final XOR 0xFFFF), used for control frames, computed
//!   slicing-by-8 like the CRC-32's portable path below (a LAMS
//!   checkpoint carries its cumulative NAK list, a few hundred bytes);
//! * [`Crc32`] — IEEE 802.3 (poly 0x04C11DB7 reflected), used for I-frames
//!   whose payloads are large enough that 16 bits of check would leave a
//!   non-negligible undetected-error rate.
//!
//! ## How the CRC-32 is computed
//!
//! Every I-frame pays for a CRC-32 twice on a real host (once to encode,
//! once to verify), so [`Crc32::checksum`] dispatches between two
//! implementations of the same function:
//!
//! * **Carry-less-multiply folding** (x86_64 only, inputs of 16 bytes or
//!   more, chosen at run time when the CPU reports PCLMULQDQ). The input
//!   is read 16 bytes at a time into a 128-bit accumulator; each step
//!   multiplies the accumulator's two halves by `x^160` and `x^96` mod P
//!   and XORs in the next block, and a final fold plus a Barrett
//!   reduction turns the 128-bit remainder into the 32-bit CRC. An input
//!   whose length is not a multiple of 16 is padded at the *front* with
//!   `z` zero bytes instead of finishing with a byte loop: the fold is
//!   seeded with the register that `z` zero bytes carry to the all-ones
//!   initial value, so the padded input has exactly the unpadded CRC.
//!   The padded first block is built in registers (the first 16 input
//!   bytes as a `u128` shifted up by `z` bytes), not copied into a
//!   stack buffer.
//! * **Slicing-by-8** (every target, and inputs under 16 bytes): eight
//!   table lookups advance the register by eight bytes.
//!
//! Both give bit-identical results; the tests check them against the
//! byte-at-a-time loop at every length up to 2,100 bytes and at 16
//! alignments, and the CRC-16 against its own byte loop at every length
//! up to 2,100 bytes and at 8 alignments. The folding kernel lives in
//! the private `clmul` submodule, the only code in this crate allowed
//! to use `unsafe`.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

/// CRC-16/X.25 (the HDLC frame check sequence), table-driven eight
/// bytes at a time (slicing-by-8).
pub struct Crc16Ccitt;

/// CRC-32 (IEEE 802.3): carry-less-multiply folding where the CPU has
/// it, table-driven eight bytes at a time (slicing-by-8) elsewhere.
pub struct Crc32;

/// Slicing-by-8 tables for a reflected CRC whose reflected polynomial
/// is `poly`: `t[0]` is the classic byte table, and `t[k][i]` is
/// `t[0][i]` carried through `k` more zero bytes, so eight lookups, one
/// per byte position, advance the CRC by eight bytes.
const fn make_tables(poly: u32) -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            b += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-16's tables (reflected polynomial `0x8408`, i.e. `0x1021`):
/// a 16-bit polynomial keeps every entry below `2^16`, so they narrow
/// to `u16` exactly (4 KB instead of 8).
const fn make_tables_16() -> [[u16; 256]; 8] {
    let wide = make_tables(0x8408);
    let mut t = [[0u16; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = wide[k][i] as u16;
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES_16: [[u16; 256]; 8] = make_tables_16();
/// The CRC-32's tables: reflected polynomial `0xEDB88320` (`0x04C11DB7`).
static TABLES_32: [[u32; 256]; 8] = make_tables(0xEDB8_8320);

impl Crc16Ccitt {
    /// Compute the FCS over `data`, eight bytes per step (slicing-by-8)
    /// and a byte loop for the last `len % 8`. The 16-bit register only
    /// reaches the first two bytes of each step; the other six index
    /// their tables directly.
    pub fn checksum(data: &[u8]) -> u16 {
        let t = &TABLES_16;
        let mut crc: u16 = 0xFFFF;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let x = crc ^ u16::from_le_bytes([c[0], c[1]]);
            crc = t[7][(x & 0xFF) as usize]
                ^ t[6][(x >> 8) as usize]
                ^ t[5][c[2] as usize]
                ^ t[4][c[3] as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u16) & 0xFF) as usize];
        }
        crc ^ 0xFFFF
    }

    /// Verify `data` whose trailing two bytes are the little-endian FCS.
    #[inline]
    pub fn verify(data_with_fcs: &[u8]) -> bool {
        if data_with_fcs.len() < 2 {
            return false;
        }
        let (data, fcs) = data_with_fcs.split_at(data_with_fcs.len() - 2);
        let expect = u16::from_le_bytes([fcs[0], fcs[1]]);
        Self::checksum(data) == expect
    }

    /// Append the FCS (little-endian) to `data`.
    #[inline]
    pub fn append(data: &mut Vec<u8>) {
        let fcs = Self::checksum(data);
        data.extend_from_slice(&fcs.to_le_bytes());
    }
}

impl Crc32 {
    /// Compute the CRC-32 over `data`: the folding kernel for inputs of
    /// 16 bytes or more on an x86_64 CPU with PCLMULQDQ, slicing-by-8
    /// otherwise (see the module doc).
    pub fn checksum(data: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= 16 {
            if let Some(crc) = clmul::checksum(data) {
                return crc;
            }
        }
        Self::checksum_portable(data)
    }

    /// The portable slicing-by-8 path alone: what [`Crc32::checksum`]
    /// computes on every target without the folding kernel.
    fn checksum_portable(data: &[u8]) -> u32 {
        let t = &TABLES_32;
        let mut crc: u32 = 0xFFFF_FFFF;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Verify `data` whose trailing four bytes are the little-endian CRC.
    #[inline]
    pub fn verify(data_with_crc: &[u8]) -> bool {
        if data_with_crc.len() < 4 {
            return false;
        }
        let (data, crc) = data_with_crc.split_at(data_with_crc.len() - 4);
        let expect = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
        Self::checksum(data) == expect
    }

    /// Append the CRC (little-endian) to `data`.
    #[inline]
    pub fn append(data: &mut Vec<u8>) {
        let crc = Self::checksum(data);
        data.extend_from_slice(&crc.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC-16 loop, kept as the oracle for
    /// [`Crc16Ccitt::checksum`].
    fn crc16_bytewise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES_16[0][((crc ^ byte as u16) & 0xFF) as usize];
        }
        crc ^ 0xFFFF
    }

    /// The byte-at-a-time CRC-32 loop, kept as the oracle for both
    /// paths of [`Crc32::checksum`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES_32[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    // Standard check values: CRC-16/X.25("123456789") = 0x906E,
    // CRC-32/ISO-HDLC("123456789") = 0xCBF43926.
    #[test]
    fn crc16_check_value() {
        assert_eq!(Crc16Ccitt::checksum(b"123456789"), 0x906E);
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
    }

    /// A check value long enough for the folding kernel: 43 bytes, two
    /// whole blocks after a 5-byte zero prefix.
    #[test]
    fn crc32_check_value_of_a_folded_input() {
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(fox.len(), 43);
        assert_eq!(Crc32::checksum(fox), 0x414F_A339);
        assert_eq!(Crc32::checksum_portable(fox), 0x414F_A339);
    }

    /// The kernel is what `checksum` runs on this machine whenever the
    /// CPU has it, so the agreement test below covers it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_folding_kernel_runs_where_the_cpu_has_it() {
        let data = [0x5Au8; 16];
        let folded = clmul::checksum(&data);
        assert_eq!(folded.is_some(), std::is_x86_feature_detected!("pclmulqdq"));
        if let Some(crc) = folded {
            assert_eq!(crc, crc32_bytewise(&data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

        #[test]
        fn every_crc32_path_matches_the_byte_loop(
            buf in proptest::collection::vec(proptest::num::u8::ANY, 2_116..2_117),
        ) {
            // Every length 0..=2,100 at every alignment of the 16-byte
            // block (and so of the 8-byte step) relative to the buffer.
            for start in 0..16 {
                for len in 0..=2_100 {
                    let data = &buf[start..start + len];
                    let want = crc32_bytewise(data);
                    prop_assert_eq!(
                        Crc32::checksum(data),
                        want,
                        "checksum: start {} len {}",
                        start,
                        len
                    );
                    prop_assert_eq!(
                        Crc32::checksum_portable(data),
                        want,
                        "portable: start {} len {}",
                        start,
                        len
                    );
                }
            }
        }
    }

    /// Every length 0..=2,100 at each of the 8 alignments of the 8-byte
    /// step, over a fixed pseudo-random buffer.
    #[test]
    fn crc16_matches_the_byte_loop_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..2_108u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=2_100 {
                let data = &buf[start..start + len];
                assert_eq!(
                    Crc16Ccitt::checksum(data),
                    crc16_bytewise(data),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn crc16_matches_the_byte_loop_on_arbitrary_input(
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..600),
        ) {
            prop_assert_eq!(Crc16Ccitt::checksum(&data), crc16_bytewise(&data));
        }
    }

    #[test]
    fn crc16_append_verify_roundtrip() {
        let mut data = b"hello LAMS".to_vec();
        Crc16Ccitt::append(&mut data);
        assert!(Crc16Ccitt::verify(&data));
    }

    #[test]
    fn crc32_append_verify_roundtrip() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 7) as u8;
        }
        Crc32::append(&mut data);
        assert!(Crc32::verify(&data));
    }

    #[test]
    fn crc16_detects_single_bit_flip() {
        let mut data = b"payload bytes".to_vec();
        Crc16Ccitt::append(&mut data);
        for i in 0..data.len() * 8 {
            let mut corrupted = data.clone();
            corrupted[i / 8] ^= 0x80 >> (i % 8);
            assert!(!Crc16Ccitt::verify(&corrupted), "missed flip at bit {i}");
        }
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = vec![0xA5; 64];
        Crc32::append(&mut data);
        for i in 0..data.len() * 8 {
            let mut corrupted = data.clone();
            corrupted[i / 8] ^= 0x80 >> (i % 8);
            assert!(!Crc32::verify(&corrupted), "missed flip at bit {i}");
        }
    }

    #[test]
    fn crc16_detects_burst_up_to_16_bits() {
        let mut data = b"burst error detection test".to_vec();
        Crc16Ccitt::append(&mut data);
        // Any burst of length <= 16 bits is detected by a 16-bit CRC.
        for start in 0..(data.len() * 8 - 16) {
            let mut corrupted = data.clone();
            for bit in start..start + 16 {
                corrupted[bit / 8] ^= 0x80 >> (bit % 8);
            }
            assert!(!Crc16Ccitt::verify(&corrupted), "missed burst at {start}");
        }
    }

    #[test]
    fn verify_too_short() {
        assert!(!Crc16Ccitt::verify(&[0x01]));
        assert!(!Crc32::verify(&[0x01, 0x02, 0x03]));
    }

    #[test]
    fn empty_payload() {
        let mut data = Vec::new();
        Crc16Ccitt::append(&mut data);
        assert_eq!(data.len(), 2);
        assert!(Crc16Ccitt::verify(&data));
    }
}
