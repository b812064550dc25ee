//! Runs of `u32` values at their information size: the one message type
//! for vertex-indexed `u32`s — degrees, k-mer column answers, FastSV's
//! parents and grandparents, its hooking updates, component labels, and
//! the read ids a rank asks their owners for.
//!
//! In memory a [`U32Run`] is its values; on the wire it is a varint
//! count, the code's header, and one LEB128 varint per value
//! (`elba_comm::transport::wire`). What each varint holds is its
//! [`RunCode`]'s choice, and is what the receiver cannot already know:
//! - [`Plain`]: the value itself (a degree, a column answer);
//! - [`PerVertex`]: `W` values per vertex, for consecutive vertices from
//!   `first`, each at most the one before it and the first at most its
//!   vertex, as the distance down: `v − x₀`, `x₀ − x₁`, … A FastSV
//!   parent and grandparent (`gp ≤ f ≤ v`) and a component label
//!   (`label ≤ v`, the component's least vertex) are small there
//!   however large the vertex ids grow;
//! - [`AtVertices`]: `(vertex, value)` pairs, vertices strictly
//!   ascending and each value below its vertex, as the vertex gap and
//!   `vertex − value − 1`;
//! - [`Ascending`]: strictly ascending values, as the gap to the value
//!   before (the first as itself), so a request for a run of read ids
//!   costs a byte an id.
//!
//! [`CommMsg::nbytes`] is the coded length, summed over the values when
//! the run is sent, in `u32` lanes that vectorize. Summing it also
//! checks every value against the code, so a
//! value the code cannot write is a panic at the sender, and the decoder
//! refuses a varint that would break the code — a parent above its
//! vertex, a count that is not a whole number of vertices — as
//! [`WireError::Malformed`], never a wrapped id. A run is its values and
//! its code, nothing more: a plain run is the size of the `Vec` it
//! wraps, so wrapping a buffer changes nothing the allocator sees.

use elba_comm::transport::wire::{
    sum_varint_lens, varint_len, varint_len_u32, write_varint, WireError, WireReader,
    VARINT_LEN_BLOCK,
};
use elba_comm::CommMsg;

/// How a [`U32Run`] codes its values.
pub trait RunCode: Copy + Send + Sync + 'static {
    /// Values per record: a run's length is a multiple of it.
    const STRIDE: usize;

    /// Bytes of the header written after the count.
    fn header_len(self) -> usize;

    /// Write the header.
    fn write_header(self, out: &mut Vec<u8>);

    /// Read the header.
    fn read_header(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Hand `code` each value's varint, in run order, and return whether
    /// the code can write every value (where it cannot, the varint
    /// handed over is junk). Every varint of a run the code can write is
    /// below 2³².
    fn codes(self, values: &[u32], code: impl FnMut(u32)) -> bool;

    /// The bytes of the varints [`RunCode::codes`] hands over, or `None`
    /// if the code cannot write every value.
    fn coded_len(self, values: &[u32]) -> Option<usize> {
        let mut bytes = 0;
        let ok = self.codes(values, |code| bytes += varint_len_u32(code) as usize);
        ok.then_some(bytes)
    }

    /// The value whose varint is `code` after the run's values `before`,
    /// or `None` for a varint no encoder writes.
    fn value(self, before: &[u32], code: u64) -> Option<u32>;
}

/// Each value as itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plain;

impl RunCode for Plain {
    const STRIDE: usize = 1;

    fn header_len(self) -> usize {
        0
    }

    fn write_header(self, _out: &mut Vec<u8>) {}

    fn read_header(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Plain)
    }

    #[inline]
    fn codes(self, values: &[u32], mut code: impl FnMut(u32)) -> bool {
        for &value in values {
            code(value);
        }
        true
    }

    #[inline]
    fn coded_len(self, values: &[u32]) -> Option<usize> {
        Some(sum_varint_lens(values, |&value| value))
    }

    #[inline]
    fn value(self, _before: &[u32], code: u64) -> Option<u32> {
        u32::try_from(code).ok()
    }
}

/// `W` values per vertex for the vertices `first, first + 1, …`, each
/// value at most the one before it and the first at most its vertex;
/// each travels as its distance down. The header is `first`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerVertex<const W: usize> {
    /// The vertex of the run's first values.
    pub first: u32,
}

impl<const W: usize> PerVertex<W> {
    /// Whether every vertex of a run of `values` is below 2³².
    #[inline]
    fn ids(self, values: &[u32]) -> bool {
        (values.len() / W) as u64 <= (1 << 32) - u64::from(self.first)
    }
}

impl<const W: usize> RunCode for PerVertex<W> {
    const STRIDE: usize = W;

    fn header_len(self) -> usize {
        varint_len(u64::from(self.first))
    }

    fn write_header(self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(self.first));
    }

    fn read_header(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let first =
            u32::try_from(r.read_varint()?).map_err(|_| WireError::Malformed("run vertex"))?;
        Ok(PerVertex { first })
    }

    #[inline]
    fn codes(self, values: &[u32], mut code: impl FnMut(u32)) -> bool {
        let mut ok = self.ids(values);
        for (vertex, chain) in (u64::from(self.first)..).zip(values.chunks_exact(W)) {
            let mut bound = vertex;
            for &value in chain {
                let value = u64::from(value);
                ok &= value <= bound;
                code(bound.wrapping_sub(value) as u32);
                bound = value;
            }
        }
        ok
    }

    /// [`RunCode::codes`]' loop summing in `u32` lanes per block of
    /// vertices, which vectorizes (a fifth of the time of a `usize` sum).
    fn coded_len(self, values: &[u32]) -> Option<usize> {
        let mut ok = self.ids(values);
        let mut bytes = 0;
        for (k, block) in values.chunks(W * VARINT_LEN_BLOCK).enumerate() {
            let first = self.first.wrapping_add((k * VARINT_LEN_BLOCK) as u32);
            let mut block_bytes = 0u32;
            for (i, chain) in block.chunks_exact(W).enumerate() {
                let mut bound = first.wrapping_add(i as u32);
                for &value in chain {
                    ok &= value <= bound;
                    block_bytes += varint_len_u32(bound.wrapping_sub(value));
                    bound = value;
                }
            }
            bytes += block_bytes as usize;
        }
        ok.then_some(bytes)
    }

    #[inline]
    fn value(self, before: &[u32], code: u64) -> Option<u32> {
        let bound = match before.len() % W {
            0 => u64::from(self.first) + (before.len() / W) as u64,
            _ => u64::from(before[before.len() - 1]),
        };
        // The bound of a vertex past `u32::MAX` is no id: the value
        // must still come out below 2³².
        u32::try_from(bound.checked_sub(code)?).ok()
    }
}

/// `(vertex, value)` pairs, the vertices strictly ascending and each
/// value below its vertex: the vertex as its gap `v − prev − 1` (the
/// first as itself), the value as `v − value − 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtVertices;

impl RunCode for AtVertices {
    const STRIDE: usize = 2;

    fn header_len(self) -> usize {
        0
    }

    fn write_header(self, _out: &mut Vec<u8>) {}

    fn read_header(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AtVertices)
    }

    #[inline]
    fn codes(self, values: &[u32], mut code: impl FnMut(u32)) -> bool {
        let (mut next, mut ok) = (0u64, true);
        for pair in values.chunks_exact(2) {
            let (vertex, value) = (pair[0], pair[1]);
            ok &= next <= u64::from(vertex) && value < vertex;
            code(u64::from(vertex).wrapping_sub(next) as u32);
            code(vertex.wrapping_sub(value).wrapping_sub(1));
            next = u64::from(vertex) + 1;
        }
        ok
    }

    #[inline]
    fn value(self, before: &[u32], code: u64) -> Option<u32> {
        let value = match before.len() {
            0 => code,
            n if n % 2 == 0 => (u64::from(before[n - 2]) + 1).checked_add(code)?,
            n => u64::from(before[n - 1]).checked_sub(code.checked_add(1)?)?,
        };
        u32::try_from(value).ok()
    }
}

/// Strictly ascending values, each as its gap `v − prev` to the value
/// before, the first as itself. A gap of 0 after the first value would
/// repeat a value, so no encoder writes one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ascending;

impl RunCode for Ascending {
    const STRIDE: usize = 1;

    fn header_len(self) -> usize {
        0
    }

    fn write_header(self, _out: &mut Vec<u8>) {}

    fn read_header(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Ascending)
    }

    #[inline]
    fn codes(self, values: &[u32], mut code: impl FnMut(u32)) -> bool {
        let mut ok = true;
        let mut prev = None;
        for &value in values {
            code(value.wrapping_sub(prev.unwrap_or(0)));
            ok &= prev.is_none_or(|prev| prev < value);
            prev = Some(value);
        }
        ok
    }

    #[inline]
    fn value(self, before: &[u32], code: u64) -> Option<u32> {
        let value = match before.last() {
            None => code,
            Some(_) if code == 0 => return None,
            Some(&prev) => u64::from(prev).checked_add(code)?,
        };
        u32::try_from(value).ok()
    }
}

/// A run of `u32` values bound for one rank, at varint size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct U32Run<C = Plain> {
    code: C,
    values: Vec<u32>,
}

impl<C: RunCode> U32Run<C> {
    /// Wrap a run. Panics unless its length is a whole number of
    /// records; a value `code` cannot write panics when the run is
    /// sized or encoded.
    pub fn new(code: C, values: Vec<u32>) -> Self {
        assert_eq!(
            values.len() % C::STRIDE,
            0,
            "a run holds whole records of {}",
            C::STRIDE
        );
        U32Run { code, values }
    }

    /// The values, in run order.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Unwrap the values.
    pub fn into_values(self) -> Vec<u32> {
        self.values
    }
}

impl<const W: usize> U32Run<PerVertex<W>> {
    /// Runs over consecutive vertex ranges, in vertex order, as one run.
    pub fn concat(parts: Vec<Self>) -> Self {
        let first = parts.first().map_or(0, |part| part.code.first);
        let mut values = Vec::with_capacity(parts.iter().map(|part| part.values.len()).sum());
        for part in parts {
            assert_eq!(
                u64::from(part.code.first),
                u64::from(first) + (values.len() / W) as u64,
                "the parts cover consecutive vertices"
            );
            values.extend_from_slice(&part.values);
        }
        U32Run::new(PerVertex { first }, values)
    }
}

impl<C: RunCode> CommMsg for U32Run<C> {
    fn nbytes(&self) -> usize {
        let coded = self
            .code
            .coded_len(&self.values)
            .expect("a value breaks the run's code");
        varint_len(self.values.len() as u64) + self.code.header_len() + coded
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.values.len() as u64);
        self.code.write_header(out);
        let ok = self
            .code
            .codes(&self.values, |varint| write_varint(out, u64::from(varint)));
        assert!(ok, "a value breaks the run's code");
    }

    /// The inverse of `wire_encode`. A count that is not a whole number
    /// of records, and a varint that would break the code, are
    /// [`WireError::Malformed`]; the values are reserved only as far as
    /// the remaining bytes (one per value) go.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.read_varint()?;
        if n % C::STRIDE as u64 != 0 {
            return Err(WireError::Malformed("run length"));
        }
        let code = C::read_header(r)?;
        let mut values = Vec::with_capacity((n as usize).min(r.remaining()));
        for _ in 0..n {
            let varint = r.read_varint()?;
            let value = code
                .value(&values, varint)
                .ok_or(WireError::Malformed("run value"))?;
            values.push(value);
        }
        Ok(U32Run { code, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<C: RunCode + PartialEq + std::fmt::Debug>(run: &U32Run<C>) -> U32Run<C> {
        let mut buf = Vec::new();
        run.wire_encode(&mut buf);
        assert_eq!(buf.len(), run.nbytes());
        let mut r = WireReader::new(&buf);
        let back = U32Run::<C>::wire_decode(&mut r).expect("decodes");
        r.finish().expect("whole frame");
        back
    }

    #[test]
    fn each_code_books_its_distances() {
        let plain = U32Run::new(Plain, vec![0, 127, 128]);
        assert_eq!(plain.nbytes(), 1 + 1 + 1 + 2);
        assert_eq!(round_trip(&plain), plain);
        // Vertices 1000 and 1001: (f, gp) = (1000, 990) and (3, 0).
        let pairs = U32Run::new(PerVertex::<2> { first: 1000 }, vec![1000, 990, 3, 0]);
        assert_eq!(pairs.nbytes(), 1 + 2 + 1 + 1 + 2 + 1);
        assert_eq!(round_trip(&pairs), pairs);
        // (7, 0) and (300, 299): gaps 7 and 292, distances 6 and 0.
        let updates = U32Run::new(AtVertices, vec![7, 0, 300, 299]);
        assert_eq!(updates.nbytes(), 1 + 1 + 1 + 2 + 1);
        assert_eq!(round_trip(&updates), updates);
        // Ids 5, 6 and 200: gaps 5, 1 and 194.
        let ids = U32Run::new(Ascending, vec![5, 6, 200]);
        assert_eq!(ids.nbytes(), 1 + 1 + 1 + 2);
        assert_eq!(round_trip(&ids), ids);
    }

    #[test]
    fn concatenated_runs_book_what_one_run_books() {
        let values = vec![10, 3, 11, 11, 5, 0, 13, 2];
        let whole = U32Run::new(PerVertex::<2> { first: 10 }, values.clone());
        let parts = vec![
            U32Run::new(PerVertex::<2> { first: 10 }, values[..2].to_vec()),
            U32Run::new(PerVertex::<2> { first: 11 }, Vec::new()),
            U32Run::new(PerVertex::<2> { first: 11 }, values[2..].to_vec()),
        ];
        assert_eq!(U32Run::concat(parts), whole);
    }

    #[test]
    #[should_panic(expected = "breaks the run's code")]
    fn a_parent_above_its_vertex_is_refused_at_the_sender() {
        U32Run::new(PerVertex::<1> { first: 5 }, vec![5, 7]).nbytes();
    }

    #[test]
    #[should_panic(expected = "breaks the run's code")]
    fn an_update_at_or_above_its_vertex_is_refused_at_the_sender() {
        U32Run::new(AtVertices, vec![4, 4]).wire_encode(&mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "breaks the run's code")]
    fn a_repeated_id_is_refused_at_the_sender() {
        U32Run::new(Ascending, vec![3, 3]).nbytes();
    }

    #[test]
    fn a_plain_run_is_the_size_of_its_vec() {
        assert_eq!(
            std::mem::size_of::<U32Run>(),
            std::mem::size_of::<Vec<u32>>()
        );
    }
}
