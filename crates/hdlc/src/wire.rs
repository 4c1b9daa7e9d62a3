//! Byte-level wire format for the HDLC baselines.
//!
//! Layout (integers little-endian; sequence numbers compressed modulo
//! `M = 2^seq_bits` into a u32 field):
//!
//! ```text
//! Info: | 0x11 | ctl:u8 (bit0 = poll) | ns:u32 | packet_id:u64 | len:u16 | payload | CRC-32 |
//! RR:   | 0x12 | ctl:u8 (bit0 = fin)  | nr:u32 | CRC-16 |
//! SREJ: | 0x13 | 0    | nr:u32 | CRC-16 |
//! REJ:  | 0x14 | 0    | nr:u32 | CRC-16 |
//! ```
//!
//! Expansion of wire numbers back to logical values uses the receiver's
//! current window position as reference (the ½-window rule guaranteed by
//! `W ≤ M/2`).

use crate::frame::HdlcFrame;
use bytes::Bytes;
use fec::{Crc16Ccitt, Crc32};
use proto_core::seq;

const TYPE_INFO: u8 = 0x11;
const TYPE_RR: u8 = 0x12;
const TYPE_SREJ: u8 = 0x13;
const TYPE_REJ: u8 = 0x14;

/// Decode errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Structurally invalid.
    Truncated,
    /// Unknown type byte.
    UnknownType(u8),
    /// CRC failure.
    BadCrc,
    /// A sequence field not below the modulus.
    SeqOutOfRange,
}

/// Serialize a frame; `modulus = 2^seq_bits`.
pub fn encode(frame: &HdlcFrame, modulus: u64) -> Vec<u8> {
    match frame {
        HdlcFrame::Info {
            ns,
            packet_id,
            poll,
            payload,
        } => {
            let mut out = Vec::with_capacity(2 + 4 + 8 + 2 + payload.len() + 4);
            out.push(TYPE_INFO);
            out.push(*poll as u8);
            out.extend_from_slice(&seq::compress(*ns, modulus).to_le_bytes());
            out.extend_from_slice(&packet_id.to_le_bytes());
            let len: u16 = payload.len().try_into().expect("payload too large");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(payload);
            Crc32::append(&mut out);
            out
        }
        HdlcFrame::Rr { nr, fin } => supervisory(TYPE_RR, *fin as u8, *nr, modulus),
        HdlcFrame::Srej { nr } => supervisory(TYPE_SREJ, 0, *nr, modulus),
        HdlcFrame::Rej { nr } => supervisory(TYPE_REJ, 0, *nr, modulus),
    }
}

fn supervisory(ty: u8, ctl: u8, nr: u64, modulus: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 4 + 2);
    out.push(ty);
    out.push(ctl);
    out.extend_from_slice(&seq::compress(nr, modulus).to_le_bytes());
    Crc16Ccitt::append(&mut out);
    out
}

/// Parse a frame; `reference` anchors wire-number expansion.
pub fn decode(buf: &[u8], reference: u64, modulus: u64) -> Result<HdlcFrame, WireError> {
    let expand = |field: &[u8]| match u32::from_le_bytes(field.try_into().unwrap()) {
        wire if u64::from(wire) < modulus => Ok(seq::expand(wire, reference, modulus)),
        _ => Err(WireError::SeqOutOfRange),
    };
    let (&ty, _) = buf.split_first().ok_or(WireError::Truncated)?;
    match ty {
        TYPE_INFO => {
            if !Crc32::verify(buf) {
                return Err(WireError::BadCrc);
            }
            let body = &buf[1..buf.len() - 4];
            if body.len() < 1 + 4 + 8 + 2 {
                return Err(WireError::Truncated);
            }
            let poll = body[0] & 1 != 0;
            let packet_id = u64::from_le_bytes(body[5..13].try_into().unwrap());
            let len = u16::from_le_bytes(body[13..15].try_into().unwrap()) as usize;
            let payload = &body[15..];
            if payload.len() != len {
                return Err(WireError::Truncated);
            }
            Ok(HdlcFrame::Info {
                ns: expand(&body[1..5])?,
                packet_id,
                poll,
                payload: Bytes::copy_from_slice(payload),
            })
        }
        TYPE_RR | TYPE_SREJ | TYPE_REJ => {
            if !Crc16Ccitt::verify(buf) {
                return Err(WireError::BadCrc);
            }
            let body = &buf[1..buf.len() - 2];
            if body.len() != 5 {
                return Err(WireError::Truncated);
            }
            let ctl = body[0];
            let nr = expand(&body[1..5])?;
            Ok(match ty {
                TYPE_RR => HdlcFrame::Rr {
                    nr,
                    fin: ctl & 1 != 0,
                },
                TYPE_SREJ => HdlcFrame::Srej { nr },
                _ => HdlcFrame::Rej { nr },
            })
        }
        other => Err(WireError::UnknownType(other)),
    }
}

/// Encoded byte length without materialising the buffer.
pub fn encoded_len(frame: &HdlcFrame) -> usize {
    match frame {
        HdlcFrame::Info { payload, .. } => 2 + 4 + 8 + 2 + payload.len() + 4,
        _ => 2 + 4 + 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const M: u64 = 2048;

    fn roundtrip(f: &HdlcFrame, reference: u64) -> HdlcFrame {
        let b = encode(f, M);
        assert_eq!(b.len(), encoded_len(f));
        decode(&b, reference, M).expect("decode")
    }

    #[test]
    fn info_roundtrip() {
        let f = HdlcFrame::Info {
            ns: 5000,
            packet_id: 77,
            poll: true,
            payload: Bytes::from_static(b"window data"),
        };
        assert_eq!(roundtrip(&f, 4990), f);
    }

    #[test]
    fn supervisory_roundtrips() {
        for f in [
            HdlcFrame::Rr {
                nr: 1000,
                fin: true,
            },
            HdlcFrame::Rr {
                nr: 1000,
                fin: false,
            },
            HdlcFrame::Srej { nr: 999 },
            HdlcFrame::Rej { nr: 1001 },
        ] {
            assert_eq!(roundtrip(&f, 1000), f);
        }
    }

    #[test]
    fn corruption_detected() {
        let f = HdlcFrame::Rr { nr: 3, fin: true };
        let mut b = encode(&f, M);
        for i in 0..b.len() {
            b[i] ^= 0x08;
            assert!(decode(&b, 0, M).is_err(), "byte {i}");
            b[i] ^= 0x08;
        }
    }

    #[test]
    fn a_reference_near_the_top_does_not_overflow() {
        let f = HdlcFrame::Rr { nr: 5, fin: false };
        let back = decode(&encode(&f, M), u64::MAX - 3, M);
        assert_eq!(
            back,
            Ok(HdlcFrame::Rr {
                nr: u64::MAX - 2042,
                fin: false
            })
        );
    }

    #[test]
    fn a_field_past_the_modulus_is_rejected() {
        let mut b = encode(&HdlcFrame::Srej { nr: 7 }, M);
        b[2..6].copy_from_slice(&(M as u32).to_le_bytes());
        let n = b.len();
        b.truncate(n - 2);
        Crc16Ccitt::append(&mut b);
        assert_eq!(decode(&b, 0, M), Err(WireError::SeqOutOfRange));
    }

    #[test]
    fn unknown_and_truncated() {
        assert_eq!(decode(&[], 0, M), Err(WireError::Truncated));
        assert_eq!(
            decode(&[0xEE, 0, 0], 0, M),
            Err(WireError::UnknownType(0xEE))
        );
    }

    proptest! {
        #[test]
        fn prop_info_roundtrip(
            ns in 0u64..100_000,
            pid in proptest::num::u64::ANY,
            poll in proptest::bool::ANY,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
        ) {
            let f = HdlcFrame::Info { ns, packet_id: pid, poll, payload: Bytes::from(payload) };
            prop_assert_eq!(roundtrip(&f, ns), f);
        }

        #[test]
        fn prop_supervisory_roundtrip(nr in 0u64..100_000, fin in proptest::bool::ANY) {
            let f = HdlcFrame::Rr { nr, fin };
            prop_assert_eq!(roundtrip(&f, nr), f);
        }

        #[test]
        fn prop_reject_roundtrips(nr in 0u64..100_000, selective in proptest::bool::ANY) {
            let f = if selective {
                HdlcFrame::Srej { nr }
            } else {
                HdlcFrame::Rej { nr }
            };
            prop_assert_eq!(roundtrip(&f, nr), f);
        }

        #[test]
        fn prop_garbage_never_panics(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..96),
            reference in 0u64..1_000_000,
        ) {
            // Raw network input must never panic the decoder.
            let _ = decode(&bytes, reference, M);
        }

        #[test]
        fn prop_truncated_never_panics(
            ns in 0u64..100_000,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            cut in proptest::num::u64::ANY,
        ) {
            let f = HdlcFrame::Info {
                ns,
                packet_id: ns ^ 0x5A5A,
                poll: false,
                payload: Bytes::from(payload),
            };
            let bytes = encode(&f, M);
            let cut = (cut as usize) % bytes.len(); // strictly shorter
            prop_assert!(decode(&bytes[..cut], ns, M).is_err());
        }
    }
}
