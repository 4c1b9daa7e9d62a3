//! A byte-exact pin of the SR-HDLC I-frame: 16 header bytes, a 40-byte
//! payload and the CRC-32, whose 56 checked bytes take the CRC's
//! folding path where the CPU has it. Produced by the slicing-by-8
//! codec.

use bytes::Bytes;
use hdlc::{wire, HdlcFrame};

#[test]
fn an_iframe_encodes_to_the_pinned_bytes() {
    let frame = HdlcFrame::Info {
        ns: 133,
        packet_id: 99,
        poll: true,
        payload: Bytes::from((0..40u8).map(|i| i.wrapping_mul(37)).collect::<Vec<u8>>()),
    };
    let bytes = wire::encode(&frame, 128);
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "1101050000006300000000000000280000254a6f94b9de03284d7297bce1062b50759abfe4092e53789dc2e70c31567ba0c5ea0f34597ea31e4973c8"
    );
    let back = wire::decode(&bytes, 133, 128).expect("pinned frame decodes");
    assert_eq!(back, frame);
}
