//! K-mer extraction: 2-bit packed k-mers (k ≤ 31, covering the paper's
//! `k = 31` and `k = 17` settings) with canonical form and rolling
//! extraction over a [`Seq`].

use crate::dna::Seq;
use crate::store::MAX_READ_LEN;

/// Maximum supported k (2 bits per base in a `u64`, one spare bit pair).
pub const MAX_K: usize = 31;

/// A k-mer occurrence within a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmerHit {
    /// Packed canonical k-mer.
    pub kmer: u64,
    /// 0-based position of the k-mer's first base in the read.
    pub pos: u32,
    /// `true` if the canonical form equals the forward strand occurrence.
    pub fwd: bool,
}

/// Pack the first `k` bases starting at `offset` (no canonicalization).
pub fn pack(seq: &Seq, offset: usize, k: usize) -> u64 {
    debug_assert!(k <= MAX_K && offset + k <= seq.len());
    let mut v = 0u64;
    for i in 0..k {
        v = (v << 2) | seq.get(offset + i) as u64;
    }
    v
}

/// Reverse complement of a packed k-mer.
pub fn revcomp_packed(kmer: u64, k: usize) -> u64 {
    let mut out = 0u64;
    let mut v = kmer;
    for _ in 0..k {
        out = (out << 2) | (3 - (v & 3));
        v >>= 2;
    }
    out
}

/// Canonical form: the lexicographically smaller of a k-mer and its
/// reverse complement, plus whether the forward strand won.
#[inline]
pub fn canonical(fwd: u64, rc: u64) -> (u64, bool) {
    if fwd <= rc {
        (fwd, true)
    } else {
        (rc, false)
    }
}

/// Rolling iterator over the canonical k-mers of a slice of 2-bit base
/// codes (each `< 4`): one shift-and-mask per strand per base, no copy of
/// the input. The read store's packed buffer and a [`Seq`] are scanned by
/// this same code.
pub struct KmerScan<'a> {
    codes: &'a [u8],
    /// Index of the base the next window ends on.
    end: usize,
    k: usize,
    fwd: u64,
    rc: u64,
    mask: u64,
    /// Bit offset of the reverse strand's incoming (leftmost) base.
    rc_shift: u32,
}

impl<'a> KmerScan<'a> {
    /// Panics if `k` is out of range, or if `codes` is longer than
    /// [`MAX_READ_LEN`] (positions are 31-bit; ingest refuses such
    /// reads with a typed error first).
    pub fn new(codes: &'a [u8], k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        assert!(
            codes.len() <= MAX_READ_LEN,
            "a read of {} bases exceeds MAX_READ_LEN",
            codes.len()
        );
        let mut scan = KmerScan {
            codes,
            end: codes.len(),
            k,
            fwd: 0,
            rc: 0,
            mask: (1u64 << (2 * k)) - 1,
            rc_shift: 2 * (k as u32 - 1),
        };
        if codes.len() >= k {
            // Prime both strands with the first k − 1 bases; every
            // `next` then rolls exactly one base in.
            for &b in &codes[..k - 1] {
                scan.roll(b);
            }
            scan.end = k - 1;
        }
        scan
    }

    #[inline]
    fn roll(&mut self, b: u8) {
        debug_assert!(b < 4);
        let b = b as u64;
        self.fwd = ((self.fwd << 2) | b) & self.mask;
        self.rc = (self.rc >> 2) | ((3 - b) << self.rc_shift);
    }
}

impl Iterator for KmerScan<'_> {
    type Item = KmerHit;

    #[inline]
    fn next(&mut self) -> Option<KmerHit> {
        let &b = self.codes.get(self.end)?;
        self.roll(b);
        self.end += 1;
        let (kmer, fwd) = canonical(self.fwd, self.rc);
        Some(KmerHit {
            kmer,
            pos: (self.end - self.k) as u32,
            fwd,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.codes.len() - self.end;
        (left, Some(left))
    }
}

/// All canonical k-mer hits of a sequence.
pub fn canonical_kmers(seq: &Seq, k: usize) -> Vec<KmerHit> {
    KmerScan::new(seq.codes(), k).collect()
}

/// Unpack a k-mer into ASCII (for debugging and FASTA headers).
pub fn unpack_to_string(kmer: u64, k: usize) -> String {
    (0..k)
        .rev()
        .map(|i| crate::dna::base_to_char(((kmer >> (2 * i)) & 3) as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        s.parse().expect("valid dna")
    }

    #[test]
    fn pack_unpack_round_trip() {
        let s = seq("ACGTTGCA");
        for k in 1..=8 {
            let packed = pack(&s, 0, k);
            assert_eq!(unpack_to_string(packed, k), s.to_string()[..k]);
        }
    }

    #[test]
    fn revcomp_packed_matches_seq_rc() {
        let s = seq("ACGTTGCAACGT");
        let k = 12;
        let packed = pack(&s, 0, k);
        let rc = revcomp_packed(packed, k);
        assert_eq!(unpack_to_string(rc, k), s.reverse_complement().to_string());
    }

    #[test]
    fn rolling_matches_fresh_pack() {
        let s = seq("ACGTTGCAACGTGGATCCAT");
        let k = 7;
        let hits = canonical_kmers(&s, k);
        assert_eq!(hits.len(), s.len() - k + 1);
        for hit in &hits {
            let fwd = pack(&s, hit.pos as usize, k);
            let rc = revcomp_packed(fwd, k);
            let (want, want_fwd) = canonical(fwd, rc);
            assert_eq!(hit.kmer, want, "pos {}", hit.pos);
            assert_eq!(hit.fwd, want_fwd);
        }
    }

    #[test]
    fn canonical_is_strand_invariant() {
        let s = seq("ACGTTGCAACGTGGATCCATTTACG");
        let rc = s.reverse_complement();
        let k = 9;
        let mut a: Vec<u64> = canonical_kmers(&s, k).into_iter().map(|h| h.kmer).collect();
        let mut b: Vec<u64> = canonical_kmers(&rc, k)
            .into_iter()
            .map(|h| h.kmer)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn short_sequence_yields_nothing() {
        assert!(canonical_kmers(&seq("ACG"), 5).is_empty());
    }

    #[test]
    fn k31_supported() {
        let s = seq(&"ACGT".repeat(10)); // 40 bases
        let hits = canonical_kmers(&s, 31);
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn palindrome_canonical_prefers_forward() {
        // ACGT is its own reverse complement; canonical must tie-break fwd.
        let s = seq("ACGT");
        let hits = canonical_kmers(&s, 4);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].fwd);
    }
}
