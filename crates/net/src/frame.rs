//! The cluster frame codec: every byte that crosses a socket.
//!
//! A frame is an 8-byte header followed by an opaque body (DESIGN.md
//! §12.4 is the normative layout; the tests here check field offsets
//! against that spec, not against this implementation):
//!
//! ```text
//! offset  size  field
//!      0     1  kind   — one of [`FrameKind`]'s discriminants
//!      1     1  flags  — reserved, must be 0
//!      2     4  len    — body length in bytes, u32 little-endian
//!      6     2  crc    — CRC-16/CCITT-FALSE, u16 little-endian
//!      8   len  body
//! ```
//!
//! The CRC covers header bytes 0–5 (kind, flags, len) plus the entire
//! body — the same CRC-16/CCITT-FALSE the TCBF wire codec uses
//! ([`bsub_bloom::wire::crc16`]), so one checksum discipline covers
//! both the filter payloads and the frames that carry them. A frame
//! that fails the CRC, carries an unknown kind, a nonzero flags byte,
//! or a length over its kind's bound is rejected with
//! [`std::io::ErrorKind::InvalidData`] and the connection is torn down
//! by the peer layer: streams never resynchronize mid-connection
//! (reset semantics, DESIGN.md §12.4).

use bsub_bloom::wire::crc16;
use std::io::{self, Read, Write};

/// Fixed size of the frame header in bytes.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame body. Node-state snapshots dominate frame
/// sizes and stay far below this even for large traces; anything
/// bigger is treated as stream corruption rather than read to
/// exhaustion. A HELLO is bounded tighter, at its exact 4 bytes.
pub const MAX_BODY_LEN: u32 = 64 * 1024 * 1024;

/// The message kinds of the cluster protocol (DESIGN.md §12.3).
///
/// Discriminants are the on-wire `kind` byte and are part of the wire
/// contract — they must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Handshake: body is the sender's peer id (u32 LE). First frame
    /// in each direction of every connection.
    Hello = 1,
    /// Coordinator → worker: execute one contact (body: contact
    /// index, u64 LE).
    Dispatch = 2,
    /// Executor → owner: request a node-state snapshot.
    StateReq = 3,
    /// Owner → executor: the requested snapshot.
    StateGrant = 4,
    /// Executor → owner: the post-exchange snapshot, returning
    /// ownership.
    StateRet = 5,
    /// Executor → coordinator: one contact's costs and deliveries.
    ExchangeResult = 6,
    /// Owner → coordinator: a returned node is consistent again and
    /// may appear in new dispatches.
    NodeFree = 7,
    /// Coordinator → workers: apply schedule publications (publish
    /// barrier).
    Advance = 8,
    /// Worker → coordinator: publications applied.
    PublishOk = 9,
    /// Coordinator → workers: the run is over, drain and exit.
    Done = 10,
    /// Observability plane (DESIGN.md §15). Worker → coordinator: a
    /// delta `ProfReport` (body: one stats op byte, then the
    /// `bsub_obs` wire codec). Coordinator → worker: a drain-time
    /// poll for the final delta (body: the request op byte alone).
    Stats = 11,
    /// Broker service plane (DESIGN.md §16). Client → broker: register
    /// interest in a key set with an optional real-clock deadline
    /// (body: `broker::SubscribeBody`).
    Subscribe = 12,
    /// Client → broker: withdraw every interest of the sending client
    /// (empty body).
    Unsubscribe = 13,
    /// Client → broker: match one keyed event against the live index
    /// (body: `broker::PublishBody`).
    Publish = 14,
    /// Broker → client: one matched publication, echoing the
    /// publisher's sequence number and send timestamp (body:
    /// `broker::DeliverBody`).
    Deliver = 15,
}

impl FrameKind {
    /// All kinds, in discriminant order.
    pub const ALL: [FrameKind; 15] = [
        FrameKind::Hello,
        FrameKind::Dispatch,
        FrameKind::StateReq,
        FrameKind::StateGrant,
        FrameKind::StateRet,
        FrameKind::ExchangeResult,
        FrameKind::NodeFree,
        FrameKind::Advance,
        FrameKind::PublishOk,
        FrameKind::Done,
        FrameKind::Stats,
        FrameKind::Subscribe,
        FrameKind::Unsubscribe,
        FrameKind::Publish,
        FrameKind::Deliver,
    ];

    /// Decodes the on-wire `kind` byte; `None` for unknown values.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Self> {
        Self::ALL.get(byte.wrapping_sub(1) as usize).copied()
    }

    /// The on-wire `kind` byte.
    #[must_use]
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// The largest body this kind may carry. A HELLO is one peer id,
    /// and it arrives before the sender is authenticated, so its bound
    /// is exact: a handshake header cannot make the reader allocate
    /// more than 4 bytes. Every other kind is bounded by
    /// [`MAX_BODY_LEN`].
    #[must_use]
    pub(crate) fn max_body_len(self) -> u32 {
        match self {
            FrameKind::Hello => 4,
            _ => MAX_BODY_LEN,
        }
    }

    /// Stable lowercase name, used in trace events and metric rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Hello => "hello",
            FrameKind::Dispatch => "dispatch",
            FrameKind::StateReq => "state_req",
            FrameKind::StateGrant => "state_grant",
            FrameKind::StateRet => "state_ret",
            FrameKind::ExchangeResult => "exchange_result",
            FrameKind::NodeFree => "node_free",
            FrameKind::Advance => "advance",
            FrameKind::PublishOk => "publish_ok",
            FrameKind::Done => "done",
            FrameKind::Stats => "stats",
            FrameKind::Subscribe => "subscribe",
            FrameKind::Unsubscribe => "unsubscribe",
            FrameKind::Publish => "publish",
            FrameKind::Deliver => "deliver",
        }
    }
}

/// One decoded frame: a kind and an opaque body. The body's meaning
/// is defined per kind by the `cluster` module's body codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message kind.
    pub kind: FrameKind,
    /// The body bytes (may be empty).
    pub body: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    #[must_use]
    pub fn new(kind: FrameKind, body: Vec<u8>) -> Self {
        Self { kind, body }
    }

    /// Total encoded size (header + body) in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.body.len()
    }

    /// Encodes the frame's 8-byte header (the body follows verbatim).
    #[must_use]
    fn header(&self) -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header[0] = self.kind.byte();
        header[1] = 0; // flags: reserved
        header[2..6].copy_from_slice(&(self.body.len() as u32).to_le_bytes());
        let crc = crc16([&header[..6], &self.body]);
        header[6..8].copy_from_slice(&crc.to_le_bytes());
        header
    }

    /// Writes the frame to `w` (header, then body) and flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; rejects bodies over the kind's bound (4
    /// bytes for HELLO, [`MAX_BODY_LEN`] otherwise) with
    /// [`io::ErrorKind::InvalidInput`] before writing anything.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        if self.body.len() > self.kind.max_body_len() as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame body exceeds the kind's maximum length",
            ));
        }
        w.write_all(&self.header())?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// Reads and validates one frame from `r`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for an unknown kind, nonzero
    /// flags, a length over the kind's bound (4 bytes for HELLO,
    /// [`MAX_BODY_LEN`] otherwise; checked before the body is
    /// allocated), or a CRC mismatch; otherwise whatever the
    /// underlying reads return (an EOF mid-frame
    /// surfaces as [`io::ErrorKind::UnexpectedEof`]).
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let kind = FrameKind::from_byte(header[0])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown frame kind"))?;
        if header[1] != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reserved frame flags must be zero",
            ));
        }
        let len = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
        if len > kind.max_body_len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame body length exceeds the kind's maximum",
            ));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?;
        let expected = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
        if crc16([&header[..6], &body]) != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame CRC mismatch",
            ));
        }
        Ok(Frame { kind, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no
    /// reflection, no final xor), implemented bit by bit from the
    /// DESIGN.md §12.4 spec so the test pins the algorithm rather
    /// than echoing the production table.
    fn spec_crc(bytes: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in bytes {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    fn encode(frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        frame.write_to(&mut out).unwrap();
        out
    }

    /// Field offsets as published in DESIGN.md §12.4: kind at 0,
    /// flags at 1, len LE at 2..6, CRC LE at 6..8, body at 8.
    #[test]
    fn header_layout_matches_spec_offsets() {
        let frame = Frame::new(FrameKind::Dispatch, vec![0xAA, 0xBB, 0xCC]);
        let bytes = encode(&frame);
        assert_eq!(bytes.len(), 8 + 3);
        assert_eq!(bytes[0], 2, "offset 0: kind byte (DISPATCH = 2)");
        assert_eq!(bytes[1], 0, "offset 1: flags, reserved as zero");
        assert_eq!(
            u32::from_le_bytes(bytes[2..6].try_into().unwrap()),
            3,
            "offsets 2..6: body length, u32 LE"
        );
        let mut covered = bytes[..6].to_vec();
        covered.extend_from_slice(&bytes[8..]);
        assert_eq!(
            u16::from_le_bytes(bytes[6..8].try_into().unwrap()),
            spec_crc(&covered),
            "offsets 6..8: CRC-16/CCITT-FALSE over header[0..6] + body, u16 LE"
        );
        assert_eq!(&bytes[8..], &[0xAA, 0xBB, 0xCC], "offset 8: body verbatim");
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in FrameKind::ALL {
            let frame = Frame::new(kind, vec![kind.byte(); kind.byte() as usize]);
            let bytes = encode(&frame);
            let back = Frame::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, frame);
            assert_eq!(frame.encoded_len(), bytes.len());
        }
    }

    #[test]
    fn empty_body_round_trips() {
        let frame = Frame::new(FrameKind::Done, Vec::new());
        let back = Frame::read_from(&mut encode(&frame).as_slice()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let good = encode(&Frame::new(FrameKind::StateGrant, b"snapshot".to_vec()));
        // Flip one body bit: CRC must catch it.
        let mut flipped = good.clone();
        flipped[10] ^= 0x01;
        let err = Frame::read_from(&mut flipped.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Unknown kind byte.
        let mut bad_kind = good.clone();
        bad_kind[0] = 0xEE;
        let err = Frame::read_from(&mut bad_kind.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Nonzero reserved flags.
        let mut bad_flags = good.clone();
        bad_flags[1] = 1;
        let err = Frame::read_from(&mut bad_flags.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Length pointing past MAX_BODY_LEN.
        let mut oversized = good.clone();
        oversized[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::read_from(&mut oversized.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// An unauthenticated HELLO header claiming the global maximum
    /// is rejected on its header alone: the reader consumes exactly
    /// the 8 header bytes and never reaches the body allocation.
    #[test]
    fn oversized_hello_is_rejected_after_the_header() {
        let mut bytes = vec![FrameKind::Hello.byte(), 0];
        bytes.extend_from_slice(&MAX_BODY_LEN.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        bytes.extend_from_slice(&[0xAB; 64]); // the would-be body
        let mut reader = io::Cursor::new(bytes);
        let err = Frame::read_from(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(reader.position(), HEADER_LEN as u64);
        // A well-formed HELLO still round-trips, and writing an
        // oversized one is refused.
        let hello = Frame::new(FrameKind::Hello, 7u32.to_le_bytes().to_vec());
        assert_eq!(
            Frame::read_from(&mut encode(&hello).as_slice()).unwrap(),
            hello
        );
        let err = Frame::new(FrameKind::Hello, vec![0; 5])
            .write_to(&mut Vec::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn partial_frame_is_unexpected_eof() {
        let bytes = encode(&Frame::new(FrameKind::StateRet, vec![7; 100]));
        // A connection dropped mid-body: header promises 100 bytes,
        // the stream delivers 10.
        let err = Frame::read_from(&mut &bytes[..HEADER_LEN + 10]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Dropped mid-header.
        let err = Frame::read_from(&mut &bytes[..4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn kind_bytes_are_stable() {
        // The discriminants are the wire contract (DESIGN.md §12.3).
        let expected: [(FrameKind, u8); 15] = [
            (FrameKind::Hello, 1),
            (FrameKind::Dispatch, 2),
            (FrameKind::StateReq, 3),
            (FrameKind::StateGrant, 4),
            (FrameKind::StateRet, 5),
            (FrameKind::ExchangeResult, 6),
            (FrameKind::NodeFree, 7),
            (FrameKind::Advance, 8),
            (FrameKind::PublishOk, 9),
            (FrameKind::Done, 10),
            (FrameKind::Stats, 11),
            (FrameKind::Subscribe, 12),
            (FrameKind::Unsubscribe, 13),
            (FrameKind::Publish, 14),
            (FrameKind::Deliver, 15),
        ];
        for (kind, byte) in expected {
            assert_eq!(kind.byte(), byte);
            assert_eq!(FrameKind::from_byte(byte), Some(kind));
        }
        assert_eq!(FrameKind::from_byte(0), None);
        assert_eq!(FrameKind::from_byte(16), None);
    }
}
