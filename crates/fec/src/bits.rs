//! A compact growable bit buffer.
//!
//! The FEC pipeline (convolutional encoder, interleaver, channel,
//! Viterbi) operates on bit streams, not bytes. [`BitBuf`] stores bits
//! MSB-first within each byte, matching serial line order.

/// A growable sequence of bits, MSB-first within each backing byte.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitBuf {
    bytes: Vec<u8>,
    len: usize,
}

impl BitBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        BitBuf::default()
    }

    /// Empty buffer with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitBuf {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Build from a `bool` slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut b = BitBuf::with_capacity(bits.len());
        for &bit in bits {
            b.push(bit);
        }
        b
    }

    /// Build from bytes; every bit of every byte is included, MSB first.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        BitBuf {
            bytes: bytes.to_vec(),
            len: bytes.len() * 8,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let byte_idx = self.len / 8;
        let bit_idx = self.len % 8;
        if bit_idx == 0 {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte_idx] |= 0x80 >> bit_idx;
        }
        self.len += 1;
    }

    /// Read bit `i`. Panics if out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "BitBuf::get: index {i} out of range (len {})",
            self.len
        );
        (self.bytes[i / 8] >> (7 - i % 8)) & 1 == 1
    }

    /// Write bit `i`. Panics if out of range.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(
            i < self.len,
            "BitBuf::set: index {i} out of range (len {})",
            self.len
        );
        let mask = 0x80 >> (i % 8);
        if bit {
            self.bytes[i / 8] |= mask;
        } else {
            self.bytes[i / 8] &= !mask;
        }
    }

    /// Flip bit `i`.
    pub fn toggle(&mut self, i: usize) {
        let mask = 0x80 >> (i % 8);
        assert!(i < self.len);
        self.bytes[i / 8] ^= mask;
    }

    /// Iterate bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Return the underlying bytes. The final byte is zero-padded if the
    /// length is not a multiple of 8.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Convert back to exactly `len/8` bytes; panics if `len` is not a
    /// multiple of 8 (use when the content is byte-aligned payload).
    pub fn to_bytes_exact(&self) -> Vec<u8> {
        assert!(
            self.len.is_multiple_of(8),
            "to_bytes_exact: bit length {} is not byte aligned",
            self.len
        );
        self.bytes.clone()
    }

    /// Number of positions where `self` and `other` differ; both must have
    /// the same length.
    pub fn hamming_distance(&self, other: &BitBuf) -> usize {
        assert_eq!(self.len, other.len, "hamming_distance: length mismatch");
        let mut d = 0usize;
        for (i, (&a, &b)) in self.bytes.iter().zip(&other.bytes).enumerate() {
            let mut x = a ^ b;
            // Mask padding bits of the last byte.
            if i == self.bytes.len() - 1 && !self.len.is_multiple_of(8) {
                x &= !(0xFFu8 >> (self.len % 8));
            }
            d += x.count_ones() as usize;
        }
        d
    }
}

impl core::fmt::Debug for BitBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "BitBuf[{}; ", self.len)?;
        for (i, bit) in self.iter().enumerate() {
            if i >= 64 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{}", if bit { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitBuf {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut b = BitBuf::new();
        for bit in iter {
            b.push(bit);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let b = BitBuf::from_bits(&pattern);
        assert_eq!(b.len(), 9);
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(b.get(i), bit, "bit {i}");
        }
    }

    #[test]
    fn msb_first_layout() {
        let mut b = BitBuf::new();
        b.push(true); // bit 7 of byte 0
        for _ in 0..7 {
            b.push(false);
        }
        assert_eq!(b.as_bytes(), &[0x80]);
    }

    #[test]
    fn bytes_roundtrip() {
        let data = [0xDE, 0xAD, 0xBE, 0xEF];
        let b = BitBuf::from_bytes(&data);
        assert_eq!(b.len(), 32);
        assert_eq!(b.to_bytes_exact(), data);
    }

    #[test]
    fn set_and_toggle() {
        let mut b = BitBuf::from_bytes(&[0x00]);
        b.set(3, true);
        assert_eq!(b.as_bytes(), &[0x10]);
        b.toggle(3);
        assert_eq!(b.as_bytes(), &[0x00]);
        b.toggle(0);
        assert_eq!(b.as_bytes(), &[0x80]);
    }

    #[test]
    fn hamming() {
        let a = BitBuf::from_bytes(&[0b1010_1010]);
        let c = BitBuf::from_bytes(&[0b1010_1011]);
        assert_eq!(a.hamming_distance(&c), 1);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn hamming_ignores_padding() {
        let mut a = BitBuf::from_bits(&[true, false, true]);
        let b = BitBuf::from_bits(&[true, false, true]);
        // Corrupt padding region of the backing byte directly: distance
        // must still be 0 because only 3 bits are live.
        a.bytes[0] |= 0x01;
        assert_eq!(a.hamming_distance(&b), 0);
    }

    #[test]
    fn from_iterator() {
        let b: BitBuf = (0..10).map(|i| i % 3 == 0).collect();
        assert_eq!(b.len(), 10);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(3));
    }

    #[test]
    #[should_panic]
    fn get_out_of_range() {
        let b = BitBuf::from_bits(&[true]);
        b.get(1);
    }

    #[test]
    #[should_panic]
    fn to_bytes_exact_unaligned() {
        let b = BitBuf::from_bits(&[true, false]);
        b.to_bytes_exact();
    }
}
