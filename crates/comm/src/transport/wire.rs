//! Hand-rolled wire format for the socket transport: length-prefixed
//! frames whose payloads are serialized through [`crate::CommMsg`]'s
//! `wire_encode`/`wire_decode` pair (serde cannot be vendored, and the
//! message set — `Vec<u8>` buffers, k-mer/triple batches, CSR panels —
//! is small enough that a bespoke codec stays honest and fast).
//!
//! Frames never leave the machine (ranks talk over Unix-domain sockets),
//! so multi-byte integers travel in **native endianness** and
//! plain-old-data batches are copied as raw bytes. This is a transport
//! framing format, not an archival one: the only compatibility contract
//! is "the same binary on the same host". The one exception is the
//! sorted runs — k-mer count records, routed matrix triples, a sparse
//! block's rows and columns — which travel as LEB128 varint gaps
//! ([`write_varint`], [`WireReader::read_varint`]) at their information
//! size.
//!
//! The frame-header items are public only for the wire-rejection tests
//! of `tests/failure_paths.rs`, which forge headers.

use std::fmt;

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually left in the buffer.
        have: usize,
    },
    /// A field decoded to something no encoder produces (bad magic,
    /// unknown frame kind, invalid `bool`/`char`/UTF-8, absurd length).
    Malformed(&'static str),
    /// The value decoded cleanly but left unconsumed bytes behind.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: bad {what}"),
            WireError::Trailing(n) => write!(f, "frame has {n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Largest element count a decoded vector header may claim. Frames are
/// produced by this binary on this machine, so anything beyond this is
/// corruption — rejecting it here keeps a garbage length from turning
/// into a huge allocation.
pub(crate) const MAX_VEC_ELEMS: u64 = 1 << 34;

/// Longest LEB128 encoding of a `u64`: ⌈64 / 7⌉ groups.
const MAX_VARINT_BYTES: usize = 10;

/// Append `value` as an unsigned LEB128 varint: seven bits per byte,
/// least significant group first, the top bit set on every byte but the
/// last. Values below 2⁷ take one byte, below 2¹⁴ two, and so on; the
/// sorted runs a message ships as gaps cost what their gaps need.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Bytes [`write_varint`] writes for `value` — what a message's
/// `nbytes` books for it.
#[inline]
pub fn varint_len(value: u64) -> usize {
    // ⌈bit length / 7⌉, with 0 taking one byte.
    let bits = 64 - (value | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// [`varint_len`] of a value below 2³², in a form whose sum over a slice
/// vectorizes when it is kept in `u32` lanes ([`sum_varint_lens`]).
#[inline]
pub fn varint_len_u32(value: u32) -> u32 {
    1 + u32::from(value >> 7 != 0)
        + u32::from(value >> 14 != 0)
        + u32::from(value >> 21 != 0)
        + u32::from(value >> 28 != 0)
}

/// Items summed per block in `u32` lanes by [`sum_varint_lens`]: five
/// bytes each at most, so a block's sum stays far below 2³².
pub const VARINT_LEN_BLOCK: usize = 1 << 16;

/// The bytes of the varints `code` gives `items`, each below 2³²: what a
/// message's `nbytes` books for a slice of them. The sum runs in `u32`
/// lanes per [`VARINT_LEN_BLOCK`] items, which vectorizes where a `usize`
/// sum does not.
#[inline]
pub fn sum_varint_lens<T>(items: &[T], code: impl Fn(&T) -> u32) -> usize {
    items
        .chunks(VARINT_LEN_BLOCK)
        .map(|block| {
            block
                .iter()
                .map(|item| varint_len_u32(code(item)))
                .sum::<u32>() as usize
        })
        .sum()
}

/// Cursor over an encoded payload; every `read_*` checks bounds and
/// returns [`WireError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed: the most elements of at least one byte
    /// each that a decoder may reserve room for.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes verbatim (`impl_comm_msg_pod!` decodes so).
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn read_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.read_bytes(1)?[0])
    }

    pub(crate) fn read_u32(&mut self) -> Result<u32, WireError> {
        let b = self.read_bytes(4)?;
        Ok(u32::from_ne_bytes(b.try_into().expect("4-byte read")))
    }

    pub fn read_u64(&mut self) -> Result<u64, WireError> {
        let b = self.read_bytes(8)?;
        Ok(u64::from_ne_bytes(b.try_into().expect("8-byte read")))
    }

    /// A `u64` length header, sanity-capped at 2³⁴ elements.
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        let n = self.read_u64()?;
        if n > MAX_VEC_ELEMS {
            return Err(WireError::Malformed("length header"));
        }
        Ok(n as usize)
    }

    /// A LEB128 varint written by [`write_varint`]. Only the one
    /// encoding that writer produces is accepted: a varint that runs out
    /// of buffer is `Truncated`, and one with a redundant zero top group
    /// (non-minimal), more than ten bytes, or bits beyond 64 is
    /// `Malformed`.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        for (i, &byte) in self.buf[self.pos..].iter().enumerate() {
            let group = u64::from(byte & 0x7F);
            if i == MAX_VARINT_BYTES - 1 && byte > 1 {
                return Err(WireError::Malformed("varint"));
            }
            value |= group << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(WireError::Malformed("varint"));
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(WireError::Truncated {
            needed: self.remaining() + 1,
            have: self.remaining(),
        })
    }

    /// Assert the value consumed the whole buffer.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

// ----------------------------------------------------------------------
// Socket frame header
// ----------------------------------------------------------------------

/// Frame magic: `"ELBA"`. The first thing checked on every frame — a
/// desynchronized or corrupted stream fails here instead of allocating.
pub(crate) const FRAME_MAGIC: [u8; 4] = *b"ELBA";

/// Encoded size of a [`FrameHeader`].
pub const FRAME_HEADER_BYTES: usize = 4 + 1 + 8 + 4 + 8 + 8;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Mesh handshake: `src` is the connecting process's world rank.
    Hello,
    /// One point-to-point message: `src` is the sender's world rank,
    /// `ctx` and `tag` the match key of the receive it is meant for, and
    /// the payload a `CommMsg::wire_encode` body of `len` bytes.
    Data,
    /// World rank `src` shut down (finished, panicked or was told to die
    /// by a fault plan); no further frames will arrive from it — a
    /// proactive version of the EOF its exit will deliver. `ctx` is
    /// ignored.
    Close,
}

/// Fixed-size prefix of every socket frame: magic, kind, communicator
/// context, source world rank, tag, payload length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub kind: FrameKind,
    /// Communicator context id: an opaque match key to the transport.
    pub ctx: u64,
    pub src: u32,
    pub tag: u64,
    pub len: u64,
}

/// Largest payload a frame may claim; beyond this the header is treated
/// as garbage rather than attempting the allocation.
pub const MAX_FRAME_LEN: u64 = 1 << 42;

impl FrameHeader {
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(match self.kind {
            FrameKind::Hello => 0,
            FrameKind::Data => 1,
            FrameKind::Close => 2,
        });
        out.extend_from_slice(&self.ctx.to_ne_bytes());
        out.extend_from_slice(&self.src.to_ne_bytes());
        out.extend_from_slice(&self.tag.to_ne_bytes());
        out.extend_from_slice(&self.len.to_ne_bytes());
    }

    /// Decode and validate a header; rejects bad magic, unknown kinds
    /// and absurd payload lengths.
    pub fn decode(bytes: &[u8; FRAME_HEADER_BYTES]) -> Result<FrameHeader, WireError> {
        let mut r = WireReader::new(bytes);
        if r.read_bytes(4)? != FRAME_MAGIC {
            return Err(WireError::Malformed("frame magic"));
        }
        let kind = match r.read_u8()? {
            0 => FrameKind::Hello,
            1 => FrameKind::Data,
            2 => FrameKind::Close,
            _ => return Err(WireError::Malformed("frame kind")),
        };
        let ctx = r.read_u64()?;
        let src = r.read_u32()?;
        let tag = r.read_u64()?;
        let len = r.read_u64()?;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Malformed("frame length"));
        }
        Ok(FrameHeader {
            kind,
            ctx,
            src,
            tag,
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let hdr = FrameHeader {
            kind: FrameKind::Data,
            ctx: 0xDEAD_BEEF,
            src: 3,
            tag: (1 << 63) | 42,
            len: 1024,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert_eq!(buf.len(), FRAME_HEADER_BYTES);
        let decoded = FrameHeader::decode(buf[..].try_into().expect("sized")).expect("valid");
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        FrameHeader {
            kind: FrameKind::Hello,
            ctx: 0,
            src: 0,
            tag: 0,
            len: 0,
        }
        .encode(&mut buf);
        buf[0] = b'X';
        assert_eq!(
            FrameHeader::decode(buf[..].try_into().expect("sized")),
            Err(WireError::Malformed("frame magic"))
        );
    }

    #[test]
    fn unknown_kind_and_huge_len_rejected() {
        let mut buf = Vec::new();
        FrameHeader {
            kind: FrameKind::Data,
            ctx: 0,
            src: 0,
            tag: 0,
            len: 0,
        }
        .encode(&mut buf);
        buf[4] = 9;
        assert_eq!(
            FrameHeader::decode(buf[..].try_into().expect("sized")),
            Err(WireError::Malformed("frame kind"))
        );
        buf[4] = 1;
        buf[FRAME_HEADER_BYTES - 8..].copy_from_slice(&u64::MAX.to_ne_bytes());
        assert_eq!(
            FrameHeader::decode(buf[..].try_into().expect("sized")),
            Err(WireError::Malformed("frame length"))
        );
    }

    #[test]
    fn reader_truncation_reports_counts() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.read_bytes(2), Ok(&[1u8, 2][..]));
        assert_eq!(
            r.read_u64(),
            Err(WireError::Truncated { needed: 8, have: 1 })
        );
    }

    #[test]
    fn varints_round_trip_at_every_group_boundary() {
        let mut values = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        for groups in 1..10 {
            let edge = 1u64 << (7 * groups);
            values.extend([edge - 1, edge, edge + 1]);
        }
        for value in values {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            assert_eq!(buf.len(), varint_len(value), "{value}");
            let mut r = WireReader::new(&buf);
            assert_eq!(r.read_varint(), Ok(value));
            assert_eq!(r.finish(), Ok(()));
            for cut in 0..buf.len() {
                let mut r = WireReader::new(&buf[..cut]);
                assert!(matches!(r.read_varint(), Err(WireError::Truncated { .. })));
            }
        }
        for value in [
            0,
            127,
            128,
            16_383,
            16_384,
            (1 << 21) - 1,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX,
        ] {
            assert_eq!(
                varint_len_u32(value) as usize,
                varint_len(u64::from(value)),
                "{value}"
            );
        }
        assert_eq!(sum_varint_lens(&[0u32, 128, u32::MAX], |&v| v), 1 + 2 + 5);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn only_the_minimal_varint_decodes() {
        let malformed = |bytes: &[u8]| {
            WireReader::new(bytes).read_varint() == Err(WireError::Malformed("varint"))
        };
        // Non-minimal: a zero top group after a continuation.
        assert!(malformed(&[0x80, 0x00]));
        assert!(malformed(&[0xFF, 0x80, 0x00]));
        // Overflowing: the tenth byte carries bits 63 and up.
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        assert!(malformed(&wide));
        // Over-long: a continuation on the tenth byte.
        let mut long = vec![0x80; 10];
        long.push(0x01);
        assert!(malformed(&long));
        assert!(WireReader::new(&[0x80; 3]).read_varint().is_err());
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(WireReader::new(&max).read_varint(), Ok(u64::MAX));
        let big = [0x80, 0x80, 0x80, 0x80, 0x10];
        assert_eq!(WireReader::new(&big).read_varint(), Ok(1 << 32));
    }

    #[test]
    fn finish_rejects_trailing() {
        let mut r = WireReader::new(&[0u8; 9]);
        let _ = r.read_u64().expect("in bounds");
        assert_eq!(r.finish(), Err(WireError::Trailing(1)));
    }
}
