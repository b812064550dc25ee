//! Message metering and serialization: everything sent through a
//! [`crate::Comm`] reports how many bytes it would occupy on an MPI wire,
//! so that the profiler can reconstruct communication volumes identical
//! to a real distributed run — and, since the socket transport, knows how
//! to serialize itself into a frame when the destination rank lives in
//! another process.

use crate::transport::wire::{WireError, WireReader};

/// A value that can travel between ranks.
///
/// Implementors report their wire size via [`CommMsg::nbytes`]; the
/// in-process transport moves the value itself through a channel without
/// copying, while the socket transport serializes it with
/// [`CommMsg::wire_encode`] / [`CommMsg::wire_decode`].
///
/// `nbytes` is the *modeled* MPI wire size (the number invariant 2 pins
/// across backends); the frame codec is free to use a different physical
/// layout — the two are reconciled nowhere, on purpose: byte accounting
/// happens above the transport, at send time.
pub trait CommMsg: Send + 'static {
    /// Number of bytes this value would occupy in an MPI message.
    fn nbytes(&self) -> usize;

    /// Serialize into a transport frame. Frames never cross a machine
    /// boundary (ranks exchange them over Unix-domain sockets), so
    /// integers travel native-endian.
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Inverse of [`CommMsg::wire_encode`]. Returns [`WireError`] on
    /// truncated or malformed input instead of panicking, so transport
    /// code can surface which peer produced a bad frame.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError>
    where
        Self: Sized;

    /// [`CommMsg::nbytes`] of a slice of values, as a container books
    /// them: the sum over the elements by default. Fixed-width messages
    /// override it with one multiplication, and `bool` with the packed
    /// size of [`CommMsg::wire_encode_slice`].
    #[doc(hidden)]
    fn wire_slice_nbytes(items: &[Self]) -> usize
    where
        Self: Sized,
    {
        items.iter().map(CommMsg::nbytes).sum()
    }

    /// Bulk-encode a slice of values. Element-wise by default; scalar and
    /// POD messages override with a single byte copy so multi-MB buffers
    /// do not serialize element-at-a-time.
    #[doc(hidden)]
    fn wire_encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.wire_encode(out);
        }
    }

    /// Bulk-decode `n` values; the inverse of
    /// [`CommMsg::wire_encode_slice`].
    #[doc(hidden)]
    fn wire_decode_slice(n: usize, r: &mut WireReader<'_>) -> Result<Vec<Self>, WireError>
    where
        Self: Sized,
    {
        // Capacity is clamped by what the buffer could possibly hold so
        // a corrupt length header cannot trigger a huge allocation.
        let mut out = Vec::with_capacity(n.min(r.remaining().max(1)));
        for _ in 0..n {
            out.push(Self::wire_decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! impl_scalar_msg {
    ($($t:ty),* $(,)?) => {
        $(impl CommMsg for $t {
            #[inline]
            fn nbytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }

            #[inline]
            fn wire_encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_ne_bytes());
            }

            #[inline]
            fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let b = r.read_bytes(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_ne_bytes(b.try_into().expect("sized read")))
            }

            #[inline]
            fn wire_slice_nbytes(items: &[Self]) -> usize {
                std::mem::size_of_val(items)
            }

            fn wire_encode_slice(items: &[Self], out: &mut Vec<u8>) {
                // Same-host frames: a scalar slice is its bytes.
                let bytes = unsafe {
                    std::slice::from_raw_parts(
                        items.as_ptr().cast::<u8>(),
                        std::mem::size_of_val(items),
                    )
                };
                out.extend_from_slice(bytes);
            }

            fn wire_decode_slice(
                n: usize,
                r: &mut WireReader<'_>,
            ) -> Result<Vec<Self>, WireError> {
                let size = std::mem::size_of::<$t>();
                let total = n
                    .checked_mul(size)
                    .ok_or(WireError::Malformed("length header"))?;
                let bytes = r.read_bytes(total)?;
                let mut out: Vec<$t> = Vec::with_capacity(n);
                // Safe for primitive scalars: no padding, every bit
                // pattern is a value (floats included).
                unsafe {
                    std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), total);
                    out.set_len(n);
                }
                Ok(out)
            }
        })*
    };
}

impl_scalar_msg!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

/// `usize`/`isize` travel as fixed 8-byte integers so the frame layout
/// does not depend on the platform's pointer width.
impl CommMsg for usize {
    #[inline]
    fn nbytes(&self) -> usize {
        std::mem::size_of::<usize>()
    }

    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_ne_bytes());
    }

    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.read_u64()?).map_err(|_| WireError::Malformed("usize"))
    }
}

impl CommMsg for isize {
    #[inline]
    fn nbytes(&self) -> usize {
        std::mem::size_of::<isize>()
    }

    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as i64).to_ne_bytes());
    }

    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let b = r.read_bytes(8)?;
        isize::try_from(i64::from_ne_bytes(b.try_into().expect("8-byte read")))
            .map_err(|_| WireError::Malformed("isize"))
    }
}

/// A lone `bool` is one byte, 0 or 1. A slice of them, such as a
/// `Vec<bool>` mask, packs eight to a byte, the first value in the
/// lowest bit, and the last byte's unused high bits are 0.
impl CommMsg for bool {
    #[inline]
    fn nbytes(&self) -> usize {
        1
    }

    #[inline]
    fn wire_slice_nbytes(items: &[Self]) -> usize {
        items.len().div_ceil(8)
    }

    fn wire_encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend(
            items
                .chunks(8)
                .map(|bits| bits.iter().rev().fold(0u8, |byte, &b| byte << 1 | b as u8)),
        );
    }

    /// The inverse of `wire_encode_slice`. The packed bytes are read
    /// before anything is allocated, so `n` values never reserve more
    /// than eight per remaining byte; a set padding bit is
    /// [`WireError::Malformed`].
    fn wire_decode_slice(n: usize, r: &mut WireReader<'_>) -> Result<Vec<Self>, WireError> {
        let bytes = r.read_bytes(n.div_ceil(8))?;
        if !n.is_multiple_of(8) && bytes[bytes.len() - 1] >> (n % 8) != 0 {
            return Err(WireError::Malformed("bool padding"));
        }
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }

    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool")),
        }
    }
}

impl CommMsg for char {
    #[inline]
    fn nbytes(&self) -> usize {
        4
    }

    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u32).to_ne_bytes());
    }

    #[inline]
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        char::from_u32(r.read_u32()?).ok_or(WireError::Malformed("char"))
    }
}

impl CommMsg for () {
    #[inline]
    fn nbytes(&self) -> usize {
        0
    }

    #[inline]
    fn wire_encode(&self, _out: &mut Vec<u8>) {}

    #[inline]
    fn wire_decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: CommMsg> CommMsg for Vec<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        // Length header (MPI count) + payload.
        8 + T::wire_slice_nbytes(self)
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_ne_bytes());
        T::wire_encode_slice(self, out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.read_len()?;
        T::wire_decode_slice(n, r)
    }
}

impl<T: CommMsg> CommMsg for Option<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        1 + self.as_ref().map_or(0, CommMsg::nbytes)
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_encode(out);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::wire_decode(r)?)),
            _ => Err(WireError::Malformed("option tag")),
        }
    }
}

impl<T: CommMsg> CommMsg for Box<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        self.as_ref().nbytes()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.as_ref().wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::wire_decode(r)?))
    }
}

/// An `Arc`-shared payload travels the mailboxes as a reference-count
/// bump, but on an MPI wire it would ship the full value — so its wire
/// size is the inner value's, and the frame codec ships the inner value
/// (the receiving process re-wraps it; sharing cannot cross an address
/// space). This is what keeps the profiled byte counters of a
/// [`crate::Comm::bcast`] of an `Arc<T>` byte-identical to the owned
/// broadcast of the same value: the zero-copy optimization is an
/// in-process transport detail, invisible to the communication model.
impl<T: CommMsg + Sync> CommMsg for std::sync::Arc<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        self.as_ref().nbytes()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.as_ref().wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::wire_decode(r)?))
    }
}

impl CommMsg for String {
    #[inline]
    fn nbytes(&self) -> usize {
        8 + self.len()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_ne_bytes());
        out.extend_from_slice(self.as_bytes());
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.read_len()?;
        let bytes = r.read_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("utf-8 string"))
    }
}

impl<A: CommMsg, B: CommMsg> CommMsg for (A, B) {
    #[inline]
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
        self.1.wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::wire_decode(r)?, B::wire_decode(r)?))
    }
}

impl<A: CommMsg, B: CommMsg, C: CommMsg> CommMsg for (A, B, C) {
    #[inline]
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes() + self.2.nbytes()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
        self.1.wire_encode(out);
        self.2.wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::wire_decode(r)?, B::wire_decode(r)?, C::wire_decode(r)?))
    }
}

impl<A: CommMsg, B: CommMsg, C: CommMsg, D: CommMsg> CommMsg for (A, B, C, D) {
    #[inline]
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes() + self.2.nbytes() + self.3.nbytes()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
        self.1.wire_encode(out);
        self.2.wire_encode(out);
        self.3.wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((
            A::wire_decode(r)?,
            B::wire_decode(r)?,
            C::wire_decode(r)?,
            D::wire_decode(r)?,
        ))
    }
}

/// Implement [`CommMsg`] for a plain-old-data struct whose wire size is its
/// in-memory size. Use for `#[derive(Clone, Copy)]` message structs such as
/// sparse-matrix triples.
///
/// The frame codec copies the struct's bytes verbatim (padding included)
/// and trusts them on decode — frames only ever come from the same binary
/// on the same machine, so field layouts match by construction. Do not
/// use for types with invariants a foreign byte pattern could break:
/// every field must accept every bit pattern, so a `bool`, `char` or
/// enum field (at any depth) disqualifies a type — decoding a byte
/// other than 0 or 1 into a `bool` is undefined behaviour. Such types
/// encode field by field instead (`SgEdge`, `SharedSeeds`).
#[macro_export]
macro_rules! impl_comm_msg_pod {
    ($($t:ty),* $(,)?) => {
        $(impl $crate::msg::CommMsg for $t {
            #[inline]
            fn nbytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }

            fn wire_encode(&self, out: &mut Vec<u8>) {
                let bytes = unsafe {
                    std::slice::from_raw_parts(
                        (self as *const $t).cast::<u8>(),
                        std::mem::size_of::<$t>(),
                    )
                };
                out.extend_from_slice(bytes);
            }

            fn wire_decode(
                r: &mut $crate::transport::wire::WireReader<'_>,
            ) -> Result<Self, $crate::transport::wire::WireError> {
                let bytes = r.read_bytes(std::mem::size_of::<$t>())?;
                Ok(unsafe { std::ptr::read_unaligned(bytes.as_ptr().cast::<$t>()) })
            }

            #[inline]
            fn wire_slice_nbytes(items: &[Self]) -> usize {
                std::mem::size_of_val(items)
            }

            fn wire_encode_slice(items: &[Self], out: &mut Vec<u8>) {
                let bytes = unsafe {
                    std::slice::from_raw_parts(
                        items.as_ptr().cast::<u8>(),
                        std::mem::size_of_val(items),
                    )
                };
                out.extend_from_slice(bytes);
            }

            fn wire_decode_slice(
                n: usize,
                r: &mut $crate::transport::wire::WireReader<'_>,
            ) -> Result<Vec<Self>, $crate::transport::wire::WireError> {
                let size = std::mem::size_of::<$t>();
                let total = n
                    .checked_mul(size)
                    .ok_or($crate::transport::wire::WireError::Malformed("length header"))?;
                let bytes = r.read_bytes(total)?;
                let mut out: Vec<$t> = Vec::with_capacity(n);
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        bytes.as_ptr(),
                        out.as_mut_ptr().cast::<u8>(),
                        total,
                    );
                    out.set_len(n);
                }
                Ok(out)
            }
        })*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: CommMsg + PartialEq + std::fmt::Debug>(value: &T) -> T {
        let mut buf = Vec::new();
        value.wire_encode(&mut buf);
        let mut r = WireReader::new(&buf);
        let decoded = T::wire_decode(&mut r).expect("decodes");
        assert_eq!(r.remaining(), 0, "decode must consume the whole buffer");
        decoded
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(1u8.nbytes(), 1);
        assert_eq!(1u64.nbytes(), 8);
        assert_eq!(1.0f64.nbytes(), 8);
        assert_eq!(true.nbytes(), 1);
        assert_eq!(().nbytes(), 0);
    }

    #[test]
    fn vec_includes_header() {
        let v = vec![0u32; 10];
        assert_eq!(v.nbytes(), 8 + 40);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(empty.nbytes(), 8);
    }

    #[test]
    fn nested_vec() {
        let v = vec![vec![0u8; 4], vec![0u8; 6]];
        assert_eq!(v.nbytes(), 8 + (8 + 4) + (8 + 6));
    }

    #[test]
    fn tuple_and_option() {
        assert_eq!((1u32, 2u64).nbytes(), 12);
        assert_eq!(Some(7u64).nbytes(), 9);
        assert_eq!(Option::<u64>::None.nbytes(), 1);
    }

    #[test]
    fn codec_round_trips() {
        assert_eq!(round_trip(&0xAB_u8), 0xAB);
        assert_eq!(round_trip(&-7i64), -7);
        assert_eq!(round_trip(&3.25f64), 3.25);
        assert_eq!(round_trip(&usize::MAX), usize::MAX);
        assert!(round_trip(&true));
        assert_eq!(round_trip(&'λ'), 'λ');
        assert_eq!(round_trip(&()), ());
        assert_eq!(round_trip(&String::from("contig")), "contig");
        assert_eq!(round_trip(&Some(vec![1u32, 2, 3])), Some(vec![1u32, 2, 3]));
        assert_eq!(round_trip(&Option::<u64>::None), None);
        assert_eq!(round_trip(&(1u8, 2u32, 3u64)), (1, 2, 3));
        assert_eq!(
            round_trip(&vec![vec![1u16, 2], vec![], vec![3]]),
            vec![vec![1u16, 2], vec![], vec![3]]
        );
        let arc = std::sync::Arc::new(vec![9u64; 5]);
        assert_eq!(*round_trip(&arc), vec![9u64; 5]);
    }

    #[test]
    fn codec_rejects_garbage() {
        let mut r = WireReader::new(&[2]);
        assert_eq!(bool::wire_decode(&mut r), Err(WireError::Malformed("bool")));
        let mut buf = Vec::new();
        0xFFFF_FFFFu32.wire_encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(char::wire_decode(&mut r), Err(WireError::Malformed("char")));
        // A vec header claiming more elements than any frame could hold.
        let mut buf = Vec::new();
        u64::MAX.wire_encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(
            Vec::<u64>::wire_decode(&mut r),
            Err(WireError::Malformed("length header"))
        );
        // Truncated mid-payload.
        let mut buf = Vec::new();
        vec![1u64, 2, 3].wire_encode(&mut buf);
        buf.truncate(buf.len() - 4);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            Vec::<u64>::wire_decode(&mut r),
            Err(WireError::Truncated { .. })
        ));
    }

    #[derive(Clone, Copy)]
    struct Triple {
        _r: u64,
        _c: u64,
        _v: f64,
    }
    impl_comm_msg_pod!(Triple);

    #[test]
    fn pod_macro() {
        let t = Triple {
            _r: 0,
            _c: 0,
            _v: 0.0,
        };
        assert_eq!(t.nbytes(), std::mem::size_of::<Triple>());
    }

    #[test]
    fn pod_codec_round_trips_bulk() {
        let items: Vec<Triple> = (0..100)
            .map(|i| Triple {
                _r: i,
                _c: i * 2,
                _v: i as f64 * 0.5,
            })
            .collect();
        let mut buf = Vec::new();
        items.wire_encode(&mut buf);
        assert_eq!(buf.len(), 8 + 100 * std::mem::size_of::<Triple>());
        let mut r = WireReader::new(&buf);
        let back = Vec::<Triple>::wire_decode(&mut r).expect("decodes");
        assert!(back
            .iter()
            .zip(&items)
            .all(|(a, b)| a._r == b._r && a._c == b._c && a._v == b._v));
    }
}
