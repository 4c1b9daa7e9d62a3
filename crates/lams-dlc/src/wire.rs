//! Byte-level wire format.
//!
//! The discrete-event harness exchanges [`Frame`] values directly (the
//! channel model decides corruption analytically), but the protocol is
//! also fully serializable for the bit-exact FEC path and for byte-count
//! accounting. Layout (all integers little-endian):
//!
//! ```text
//! I-frame:     | 0x01 | seq:u32 | packet_id:u64 | len:u16 | payload | CRC-32 |
//! CheckPoint:  | 0x02 | flags:u8 | index:u64 | covered:u32 | nak_count:u16 |
//!              | naks:u32 × n | (probe:u64)? | CRC-16 |
//! Request-NAK: | 0x03 | probe:u64 | CRC-16 |
//! ```
//!
//! Sequence numbers travel compressed modulo the configured numbering
//! size ([`proto_core::seq`]); `covered` and each NAK entry are
//! wire-compressed too. I-frames carry a CRC-32 (large payloads),
//! control frames the HDLC CRC-16 FCS — consistent with the two FEC
//! grades of assumption 4.
//! The checkpoint length **varies with the number of NAKs**, exactly as
//! §3.1 specifies ("their length varies according to the number of the
//! erroneous I-frames communicated").

use crate::frame::{CheckPoint, ControlFrame, Frame, InfoFrame, PacketId, StopGo};
use bytes::Bytes;
use fec::{Crc16Ccitt, Crc32};
use proto_core::seq;

const TYPE_INFO: u8 = 0x01;
const TYPE_CHECKPOINT: u8 = 0x02;
const TYPE_REQUEST_NAK: u8 = 0x03;

const FLAG_ENFORCED: u8 = 0b0000_0001;
const FLAG_STOP: u8 = 0b0000_0010;
const FLAG_PROBE: u8 = 0b0000_0100;

/// Errors from [`decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short or internally inconsistent lengths.
    Truncated,
    /// Unknown frame type byte.
    UnknownType(u8),
    /// CRC check failed — the frame is residually corrupted.
    BadCrc,
    /// A sequence field at or above the numbering modulus, which no
    /// sender encodes: a forged frame, not a corrupted one.
    SeqOutOfRange,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::BadCrc => write!(f, "CRC mismatch"),
            WireError::SeqOutOfRange => write!(f, "sequence field outside the modulus"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serialize a frame. `modulus` is the configured numbering size used to
/// compress sequence numbers.
pub fn encode(frame: &Frame, modulus: u64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(frame, modulus, &mut out);
    out
}

/// Serialize a frame into `out`, replacing its contents: the same bytes
/// as [`encode`], written into a buffer a host reuses for every datagram.
pub fn encode_into(frame: &Frame, modulus: u64, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(encoded_len(frame));
    match frame {
        Frame::Info(i) => {
            out.push(TYPE_INFO);
            out.extend_from_slice(&seq::compress(i.seq, modulus).to_le_bytes());
            out.extend_from_slice(&i.packet_id.0.to_le_bytes());
            let len: u16 = i
                .payload
                .len()
                .try_into()
                .expect("payload exceeds u16 length field");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&i.payload);
            Crc32::append(out);
        }
        Frame::Control(ControlFrame::CheckPoint(cp)) => {
            out.push(TYPE_CHECKPOINT);
            let mut flags = 0u8;
            if cp.enforced {
                flags |= FLAG_ENFORCED;
            }
            if cp.stop_go == StopGo::Stop {
                flags |= FLAG_STOP;
            }
            if cp.probe.is_some() {
                flags |= FLAG_PROBE;
            }
            out.push(flags);
            out.extend_from_slice(&cp.index.to_le_bytes());
            out.extend_from_slice(&seq::compress(cp.covered, modulus).to_le_bytes());
            let n: u16 = cp
                .naks
                .len()
                .try_into()
                .expect("too many NAKs for u16 count");
            out.extend_from_slice(&n.to_le_bytes());
            for &nak in &cp.naks {
                out.extend_from_slice(&seq::compress(nak, modulus).to_le_bytes());
            }
            if let Some(p) = cp.probe {
                out.extend_from_slice(&p.to_le_bytes());
            }
            Crc16Ccitt::append(out);
        }
        Frame::Control(ControlFrame::RequestNak { probe }) => {
            out.push(TYPE_REQUEST_NAK);
            out.extend_from_slice(&probe.to_le_bytes());
            Crc16Ccitt::append(out);
        }
    }
}

/// Parse a frame. `reference` is the receiver's highest logical sequence
/// number seen so far (used to expand compressed numbers); `modulus` must
/// match the sender's.
pub fn decode(buf: &[u8], reference: u64, modulus: u64) -> Result<Frame, WireError> {
    let expand = |wire: u32| match wire as u64 {
        w if w < modulus => Ok(seq::expand(wire, reference, modulus)),
        _ => Err(WireError::SeqOutOfRange),
    };
    let (&ty, _) = buf.split_first().ok_or(WireError::Truncated)?;
    match ty {
        TYPE_INFO => {
            if !Crc32::verify(buf) {
                return Err(WireError::BadCrc);
            }
            let body = &buf[1..buf.len() - 4];
            if body.len() < 4 + 8 + 2 {
                return Err(WireError::Truncated);
            }
            let wire_seq = u32::from_le_bytes(body[0..4].try_into().unwrap());
            let packet_id = u64::from_le_bytes(body[4..12].try_into().unwrap());
            let len = u16::from_le_bytes(body[12..14].try_into().unwrap()) as usize;
            let payload = &body[14..];
            if payload.len() != len {
                return Err(WireError::Truncated);
            }
            Ok(Frame::Info(InfoFrame {
                seq: expand(wire_seq)?,
                packet_id: PacketId(packet_id),
                payload: Bytes::copy_from_slice(payload),
            }))
        }
        TYPE_CHECKPOINT => {
            if !Crc16Ccitt::verify(buf) {
                return Err(WireError::BadCrc);
            }
            let body = &buf[1..buf.len() - 2];
            if body.len() < 1 + 8 + 4 + 2 {
                return Err(WireError::Truncated);
            }
            let flags = body[0];
            let index = u64::from_le_bytes(body[1..9].try_into().unwrap());
            let covered_wire = u32::from_le_bytes(body[9..13].try_into().unwrap());
            let n = u16::from_le_bytes(body[13..15].try_into().unwrap()) as usize;
            let mut off = 15;
            if body.len() < off + 4 * n {
                return Err(WireError::Truncated);
            }
            let mut naks = Vec::with_capacity(n);
            for _ in 0..n {
                let w = u32::from_le_bytes(body[off..off + 4].try_into().unwrap());
                naks.push(expand(w)?);
                off += 4;
            }
            let probe = if flags & FLAG_PROBE != 0 {
                if body.len() < off + 8 {
                    return Err(WireError::Truncated);
                }
                let p = u64::from_le_bytes(body[off..off + 8].try_into().unwrap());
                off += 8;
                Some(p)
            } else {
                None
            };
            if body.len() != off {
                return Err(WireError::Truncated);
            }
            Ok(Frame::Control(ControlFrame::CheckPoint(CheckPoint {
                index,
                covered: expand(covered_wire)?,
                naks,
                enforced: flags & FLAG_ENFORCED != 0,
                probe,
                stop_go: if flags & FLAG_STOP != 0 {
                    StopGo::Stop
                } else {
                    StopGo::Go
                },
            })))
        }
        TYPE_REQUEST_NAK => {
            if !Crc16Ccitt::verify(buf) {
                return Err(WireError::BadCrc);
            }
            let body = &buf[1..buf.len() - 2];
            if body.len() != 8 {
                return Err(WireError::Truncated);
            }
            Ok(Frame::Control(ControlFrame::RequestNak {
                probe: u64::from_le_bytes(body.try_into().unwrap()),
            }))
        }
        other => Err(WireError::UnknownType(other)),
    }
}

/// Encoded size in bytes without materialising the buffer (used for
/// transmission-time accounting in the harness).
pub fn encoded_len(frame: &Frame) -> usize {
    match frame {
        Frame::Info(i) => 1 + 4 + 8 + 2 + i.payload.len() + 4,
        Frame::Control(ControlFrame::CheckPoint(cp)) => {
            1 + 1 + 8 + 4 + 2 + 4 * cp.naks.len() + if cp.probe.is_some() { 8 } else { 0 } + 2
        }
        Frame::Control(ControlFrame::RequestNak { .. }) => 1 + 8 + 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const M: u64 = 1 << 16;

    fn roundtrip(f: &Frame, reference: u64) -> Frame {
        let bytes = encode(f, M);
        assert_eq!(bytes.len(), encoded_len(f));
        decode(&bytes, reference, M).expect("decode")
    }

    #[test]
    fn info_roundtrip() {
        let f = Frame::Info(InfoFrame {
            seq: 123_456,
            packet_id: PacketId(987),
            payload: Bytes::from_static(b"hello satellite"),
        });
        assert_eq!(roundtrip(&f, 123_450), f);
    }

    #[test]
    fn info_empty_payload() {
        let f = Frame::Info(InfoFrame {
            seq: 7,
            packet_id: PacketId(0),
            payload: Bytes::new(),
        });
        assert_eq!(roundtrip(&f, 0), f);
    }

    #[test]
    fn checkpoint_roundtrip_all_flags() {
        let f = Frame::Control(ControlFrame::CheckPoint(CheckPoint {
            index: 42,
            covered: 70_010,
            naks: vec![70_001, 70_003, 70_007],
            enforced: true,
            probe: Some(9),
            stop_go: StopGo::Stop,
        }));
        assert_eq!(roundtrip(&f, 70_000), f);
    }

    #[test]
    fn checkpoint_roundtrip_plain() {
        let f = Frame::Control(ControlFrame::CheckPoint(CheckPoint {
            index: 1,
            covered: 5,
            naks: vec![],
            enforced: false,
            probe: None,
            stop_go: StopGo::Go,
        }));
        assert_eq!(roundtrip(&f, 0), f);
    }

    #[test]
    fn request_nak_roundtrip() {
        let f = Frame::Control(ControlFrame::RequestNak { probe: u64::MAX });
        assert_eq!(roundtrip(&f, 0), f);
    }

    #[test]
    fn sequence_fields_outside_the_modulus_are_rejected() {
        // A forger can write any u32 into a sequence field and fix up
        // the checksum; no sender encodes a value at or above M.
        let info = encode(
            &Frame::Info(InfoFrame {
                seq: 7,
                packet_id: PacketId(0),
                payload: Bytes::new(),
            }),
            M,
        );
        let cp = encode(
            &Frame::Control(ControlFrame::CheckPoint(CheckPoint {
                index: 1,
                covered: 5,
                naks: vec![3],
                enforced: false,
                probe: None,
                stop_go: StopGo::Go,
            })),
            M,
        );
        // (datagram, field offset, CRC-32 trailer?): I-frame seq,
        // checkpoint covered, checkpoint NAK.
        for (frame, at, crc32) in [(&info, 1, true), (&cp, 10, false), (&cp, 16, false)] {
            for field in [M as u32, M as u32 + 1, u32::MAX] {
                let mut bad = frame[..frame.len() - if crc32 { 4 } else { 2 }].to_vec();
                bad[at..at + 4].copy_from_slice(&field.to_le_bytes());
                if crc32 {
                    Crc32::append(&mut bad);
                } else {
                    Crc16Ccitt::append(&mut bad);
                }
                assert_eq!(decode(&bad, 5, M), Err(WireError::SeqOutOfRange));
            }
        }
    }

    #[test]
    fn checkpoint_length_varies_with_naks() {
        // §3.1: control command length varies with the NAK count.
        let base = CheckPoint {
            index: 0,
            covered: 0,
            naks: vec![],
            enforced: false,
            probe: None,
            stop_go: StopGo::Go,
        };
        let with_naks = CheckPoint {
            naks: vec![1, 2, 3, 4],
            ..base.clone()
        };
        let l0 = encoded_len(&Frame::Control(ControlFrame::CheckPoint(base)));
        let l4 = encoded_len(&Frame::Control(ControlFrame::CheckPoint(with_naks)));
        assert_eq!(l4 - l0, 16);
    }

    #[test]
    fn corrupted_bytes_fail_crc() {
        let f = Frame::Info(InfoFrame {
            seq: 10,
            packet_id: PacketId(1),
            payload: Bytes::from_static(b"data"),
        });
        let mut bytes = encode(&f, M);
        for i in 0..bytes.len() {
            bytes[i] ^= 0x40;
            let r = decode(&bytes, 0, M);
            assert!(
                matches!(r, Err(WireError::BadCrc) | Err(WireError::UnknownType(_))),
                "byte {i}: {r:?}"
            );
            bytes[i] ^= 0x40;
        }
    }

    #[test]
    fn truncated_and_empty() {
        assert_eq!(decode(&[], 0, M), Err(WireError::Truncated));
        let f = Frame::Control(ControlFrame::RequestNak { probe: 1 });
        let bytes = encode(&f, M);
        for cut in 1..bytes.len() {
            let r = decode(&bytes[..cut], 0, M);
            assert!(r.is_err(), "cut {cut} decoded: {r:?}");
        }
    }

    #[test]
    fn unknown_type() {
        assert_eq!(
            decode(&[0x7F, 0, 0], 0, M),
            Err(WireError::UnknownType(0x7F))
        );
    }

    proptest! {
        #[test]
        fn prop_info_roundtrip(
            seq in 0u64..1_000_000,
            pid in proptest::num::u64::ANY,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..512),
        ) {
            let f = Frame::Info(InfoFrame {
                seq,
                packet_id: PacketId(pid),
                payload: Bytes::from(payload),
            });
            prop_assert_eq!(roundtrip(&f, seq), f);
        }

        #[test]
        fn prop_checkpoint_roundtrip(
            index in proptest::num::u64::ANY,
            base in 1000u64..1_000_000,
            offsets in proptest::collection::vec(0u64..100, 0..32),
            enforced in proptest::bool::ANY,
            stop in proptest::bool::ANY,
        ) {
            let mut naks: Vec<u64> = offsets.iter().map(|o| base + o).collect();
            naks.sort_unstable();
            naks.dedup();
            let f = Frame::Control(ControlFrame::CheckPoint(CheckPoint {
                index,
                covered: base + 100,
                naks,
                enforced,
                probe: None,
                stop_go: if stop { StopGo::Stop } else { StopGo::Go },
            }));
            prop_assert_eq!(roundtrip(&f, base), f);
        }

        #[test]
        fn prop_checkpoint_probe_roundtrip(
            index in proptest::num::u64::ANY,
            base in 1000u64..1_000_000,
            probe in proptest::num::u64::ANY,
            enforced in proptest::bool::ANY,
        ) {
            // The probe echo rides an extra trailing field gated by a
            // flag bit — exercise both the flag and the field.
            let f = Frame::Control(ControlFrame::CheckPoint(CheckPoint {
                index,
                covered: base,
                naks: vec![base - 1],
                enforced,
                probe: Some(probe),
                stop_go: StopGo::Stop,
            }));
            prop_assert_eq!(roundtrip(&f, base), f);
        }

        #[test]
        fn prop_request_nak_roundtrip(probe in proptest::num::u64::ANY) {
            let f = Frame::Control(ControlFrame::RequestNak { probe });
            prop_assert_eq!(roundtrip(&f, 0), f);
        }

        #[test]
        fn prop_encode_into_a_dirty_buffer_matches_encode(
            seq in 0u64..1_000_000,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
            offsets in proptest::collection::vec(0u64..1_000, 0..65),
            probe in proptest::num::u64::ANY,
            with_probe in proptest::bool::ANY,
            junk in 0u8..=255,
        ) {
            let mut naks: Vec<u64> = offsets.iter().map(|o| seq + o).collect();
            naks.sort_unstable();
            naks.dedup();
            let frames = [
                Frame::Info(InfoFrame {
                    seq,
                    packet_id: PacketId(probe),
                    payload: Bytes::from(payload),
                }),
                Frame::Control(ControlFrame::CheckPoint(CheckPoint {
                    index: probe >> 1,
                    covered: seq + 1_000,
                    naks,
                    enforced: with_probe,
                    probe: with_probe.then_some(probe),
                    stop_go: StopGo::Go,
                })),
                Frame::Control(ControlFrame::RequestNak { probe }),
            ];
            for f in &frames {
                let expected = encode(f, M);
                // Longer than any of these frames, full of stale bytes.
                let mut buf = vec![junk; expected.len() + 64];
                encode_into(f, M, &mut buf);
                prop_assert_eq!(&buf, &expected);
            }
        }

        #[test]
        fn prop_garbage_never_panics(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..128),
            reference in 0u64..1_000_000_000,
        ) {
            // Arbitrary datagrams must produce Ok or Err, never a panic
            // (hosts feed raw network input straight into decode).
            let _ = decode(&bytes, reference, M);
        }

        #[test]
        fn prop_truncated_never_panics(
            seq in 0u64..1_000_000,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            cut in proptest::num::u64::ANY,
        ) {
            let f = Frame::Info(InfoFrame {
                seq,
                packet_id: PacketId(seq ^ 0xABCD),
                payload: Bytes::from(payload),
            });
            let bytes = encode(&f, M);
            let cut = (cut as usize) % bytes.len(); // strictly shorter
            prop_assert!(decode(&bytes[..cut], seq, M).is_err());
        }
    }
}
