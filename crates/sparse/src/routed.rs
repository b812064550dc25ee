//! The buffer a router ships to each owner: `(row, col, value)`
//! triples, in the order the caller gave them — block-local ones from
//! [`crate::DistMat::from_triples`], and the induced subgraph's edges.
//!
//! On the wire a buffer takes one of two forms, named by the top bit of
//! its 8-byte entry-count header:
//! - flat: each entry as `(u32 row, u32 col, T)`, exactly a
//!   `Vec<(u32, u32, T)>`'s frame;
//! - run: when its rows ascend and its columns do not fall within a row
//!   (A's triples always), each row's run is `varint(row gap)` and
//!   `varint(run length − 1)`, then per entry `varint(column gap)` and
//!   `T`'s own wire form. A row gap is `row − prev − 1` (the first run's
//!   is its row); a column gap is `col − prev` (the first entry's is its
//!   column).
//!
//! The run form is taken whenever the buffer qualifies and it is no
//! larger than the flat form, so an unsorted buffer books exactly the
//! flat bytes. Decoding keeps the entry order either way, so the
//! receiver's `combine` folds duplicates exactly as it would have.

use elba_comm::transport::wire::{varint_len, write_varint, WireError, WireReader};
use elba_comm::CommMsg;

/// Header bit of a buffer in the run form.
const RUN_FORM: u64 = 1 << 63;

/// Largest entry count a header may claim (a `Vec`'s cap, 2³⁴).
const MAX_ENTRIES: u64 = 1 << 34;

/// Triples bound for one owner, in caller order, with the running size
/// of their run form: the router appends each entry once, and `nbytes`
/// does not read the buffer a second time.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedTriples<T> {
    triples: Vec<(u32, u32, T)>,
    code: RunCode,
}

/// The run form's size so far, kept entry by entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunCode {
    /// Whether rows ascend and columns do not fall within a row.
    sorted: bool,
    /// Structure bytes: row gaps, closed runs' lengths, column gaps (a
    /// falling step's gap is junk, and unused: `sorted` is false then).
    bytes: usize,
    /// `nbytes` of the values.
    values: usize,
    /// Entries in the open run, and the row after its row.
    run_len: usize,
    next_row: u64,
    /// The open run's last column.
    prev_col: u32,
}

impl Default for RunCode {
    fn default() -> Self {
        RunCode {
            sorted: true,
            bytes: 0,
            values: 0,
            run_len: 0,
            next_row: 0,
            prev_col: 0,
        }
    }
}

impl RunCode {
    #[inline]
    fn add(&mut self, row: u32, col: u32, value_bytes: usize) {
        let row = u64::from(row);
        if self.run_len == 0 || row + 1 != self.next_row {
            if self.run_len > 0 {
                self.bytes += varint_len(self.run_len as u64 - 1);
            }
            self.sorted &= row >= self.next_row;
            self.bytes += varint_len(row.wrapping_sub(self.next_row));
            (self.run_len, self.next_row, self.prev_col) = (0, row + 1, 0);
        }
        self.sorted &= col >= self.prev_col;
        self.bytes += varint_len(u64::from(col.wrapping_sub(self.prev_col)));
        self.values += value_bytes;
        self.run_len += 1;
        self.prev_col = col;
    }
}

impl<T> Default for RoutedTriples<T> {
    fn default() -> Self {
        RoutedTriples {
            triples: Vec::new(),
            code: RunCode::default(),
        }
    }
}

impl<T> RoutedTriples<T> {
    /// The triples, in the order they were given.
    pub fn triples(&self) -> &[(u32, u32, T)] {
        &self.triples
    }

    /// Unwrap the triples.
    pub fn into_triples(self) -> Vec<(u32, u32, T)> {
        self.triples
    }
}

impl<T: CommMsg> RoutedTriples<T> {
    /// Wrap a buffer; any order is allowed.
    pub fn new(triples: Vec<(u32, u32, T)>) -> Self {
        let mut code = RunCode::default();
        for (row, col, value) in &triples {
            code.add(*row, *col, value.nbytes());
        }
        RoutedTriples { triples, code }
    }

    /// Append one entry.
    #[inline]
    pub fn push(&mut self, (row, col, value): (u32, u32, T)) {
        self.code.add(row, col, value.nbytes());
        self.triples.push((row, col, value));
    }

    /// The buffer's wire form and its coded size: whether the run form
    /// is taken, and the bytes of the form taken.
    fn form(&self) -> (bool, usize) {
        let code = &self.code;
        let flat = 8 + 8 * self.triples.len() + code.values;
        let open_run = match code.run_len {
            0 => 0,
            len => varint_len(len as u64 - 1),
        };
        let run = 8 + code.bytes + open_run + code.values;
        if code.sorted && run <= flat {
            (true, run)
        } else {
            (false, flat)
        }
    }
}

impl<T: CommMsg> CommMsg for RoutedTriples<T> {
    fn nbytes(&self) -> usize {
        self.form().1
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        let n = self.triples.len() as u64;
        if !self.form().0 {
            out.extend_from_slice(&n.to_ne_bytes());
            <(u32, u32, T)>::wire_encode_slice(&self.triples, out);
            return;
        }
        out.extend_from_slice(&(n | RUN_FORM).to_ne_bytes());
        let mut next_row = 0;
        for run in self.triples.chunk_by(|a, b| a.0 == b.0) {
            let row = u64::from(run[0].0);
            write_varint(out, row - next_row);
            write_varint(out, run.len() as u64 - 1);
            let mut prev = 0;
            for (_, col, value) in run {
                write_varint(out, u64::from(col - prev));
                value.wire_encode(out);
                prev = *col;
            }
            next_row = row + 1;
        }
    }

    /// The inverse of `wire_encode`. A run-form buffer decodes only to
    /// what the encoder could have written — rows ascending, columns not
    /// falling within a row, every index a `u32`, runs that end at the
    /// header's entry count — or is [`WireError::Malformed`]. Entries are
    /// reserved only as far as the remaining bytes go, at the fewest an
    /// entry of a one-byte value takes: 9 flat, 2 in a run (its column
    /// gap and value).
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let header = r.read_u64()?;
        let n = header & !RUN_FORM;
        if n > MAX_ENTRIES {
            return Err(WireError::Malformed("length header"));
        }
        if header & RUN_FORM == 0 {
            // A flat entry is 8 B of indices and at least one of value.
            let mut triples = Vec::with_capacity((n as usize).min(r.remaining() / 9));
            for _ in 0..n {
                triples.push(<(u32, u32, T)>::wire_decode(r)?);
            }
            return Ok(RoutedTriples::new(triples));
        }
        let index = |base: u64, gap: u64| {
            base.checked_add(gap)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or(WireError::Malformed("triple index"))
        };
        let mut buf = RoutedTriples {
            triples: Vec::with_capacity((n as usize).min(r.remaining() / 2)),
            code: RunCode::default(),
        };
        let mut next_row = 0u64;
        while (buf.triples.len() as u64) < n {
            let row = index(next_row, r.read_varint()?)?;
            let len = r.read_varint()?;
            if len >= n - buf.triples.len() as u64 {
                return Err(WireError::Malformed("triple run length"));
            }
            let mut col = 0;
            for _ in 0..=len {
                col = index(u64::from(col), r.read_varint()?)?;
                buf.push((row, col, T::wire_decode(r)?));
            }
            next_row = u64::from(row) + 1;
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded<T: CommMsg>(value: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        value.wire_encode(&mut buf);
        buf
    }

    fn decoded(buf: &[u8]) -> Result<RoutedTriples<u32>, WireError> {
        let mut r = WireReader::new(buf);
        let value = RoutedTriples::<u32>::wire_decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn sorted_runs_travel_as_gaps_and_unsorted_buffers_flat() {
        let sorted = RoutedTriples::new(vec![(2, 5, 7u32), (2, 5, 8), (2, 9, 9), (4, 0, 1)]);
        // Header, then (gap 2, len − 1 = 2) with column gaps 5, 0, 4, and
        // (gap 1, len − 1 = 0) with column gap 0: 4 B per `u32` value.
        assert_eq!(sorted.form(), (true, 8 + 2 + 3 + 2 + 1 + 16));
        assert_eq!(encoded(&sorted).len(), sorted.nbytes());
        assert_eq!(decoded(&encoded(&sorted)), Ok(sorted.clone()));
        for unsorted in [
            vec![(4, 0, 1u32), (2, 5, 7)],
            vec![(2, 9, 1), (2, 5, 7)],
            vec![(2, 5, 1), (3, 0, 2), (2, 6, 3)],
        ] {
            let buf = RoutedTriples::new(unsorted.clone());
            assert_eq!(buf.form(), (false, 8 + 12 * unsorted.len()));
            assert_eq!(
                encoded(&buf),
                encoded(&unsorted),
                "the flat form is a Vec's"
            );
            assert_eq!(decoded(&encoded(&buf)), Ok(buf));
        }
    }

    #[test]
    fn a_run_larger_than_the_flat_form_travels_flat() {
        // Gaps of 2³¹ cost 5 B each: 8 + 5 + 1 + 5 + 5 + 1 + 5 + 8 > 8 + 24.
        let wide = RoutedTriples::new(vec![(1 << 31, 1 << 31, 0u32), (u32::MAX, u32::MAX, 0)]);
        assert_eq!(wide.form(), (false, 32));
        assert_eq!(decoded(&encoded(&wide)), Ok(wide));
    }

    #[test]
    fn run_frames_no_encoder_writes_are_malformed() {
        let frame = |n: u64, body: &[u8]| {
            let mut buf = (n | RUN_FORM).to_ne_bytes().to_vec();
            buf.extend_from_slice(body);
            buf
        };
        assert!(decoded(&frame(1, &[3, 0, 2, 1, 0, 0, 0])).is_ok());
        // A run longer than the entries the header leaves.
        assert_eq!(
            decoded(&frame(1, &[3, 1, 2, 1, 0, 0, 0])),
            Err(WireError::Malformed("triple run length"))
        );
        // A row or column past `u32::MAX`.
        let past = [0x80, 0x80, 0x80, 0x80, 0x10];
        let mut body = past.to_vec();
        body.extend_from_slice(&[0, 0, 1, 0, 0, 0]);
        assert_eq!(
            decoded(&frame(1, &body)),
            Err(WireError::Malformed("triple index"))
        );
        let mut body = vec![0, 0];
        body.extend_from_slice(&past);
        body.extend_from_slice(&[1, 0, 0, 0]);
        assert_eq!(
            decoded(&frame(1, &body)),
            Err(WireError::Malformed("triple index"))
        );
        // A count past the cap.
        assert_eq!(
            decoded(&frame(MAX_ENTRIES + 1, &[])),
            Err(WireError::Malformed("length header"))
        );
    }
}
