//! DNA alphabet and sequence type.
//!
//! Bases are stored one code per byte (`A=0, C=1, G=2, T=3`) and cross
//! ranks four per byte (the crate-private `pack` / `unpack` codec of the
//! read store's transfers); Watson–Crick complement is `3 − code`. [`Seq::paper_slice`] implements the inclusive
//! indexing convention of the paper's §4.4: `l[i:j]` with `i ≤ j` is the
//! substring `(l[i], …, l[j])`, and `l[j:i]` with `j > i` is its
//! *reverse-complement* substring `(l[j]ᶜ, l[j−1]ᶜ, …, l[i]ᶜ)` — the
//! operation local assembly uses to stitch contigs across strand flips.

/// One nucleotide code: `A=0, C=1, G=2, T=3`.
pub type Base = u8;

/// Watson–Crick complement of a base code.
#[inline]
pub fn complement(b: Base) -> Base {
    debug_assert!(b < 4);
    3 - b
}

/// ASCII letter for a base code.
#[inline]
pub fn base_to_char(b: Base) -> char {
    match b {
        0 => 'A',
        1 => 'C',
        2 => 'G',
        3 => 'T',
        _ => panic!("invalid base code {b}"),
    }
}

/// Base code for an ASCII letter (case-insensitive). `None` for ambiguity
/// codes (N etc.).
#[inline]
pub fn char_to_base(c: u8) -> Option<Base> {
    match c {
        b'A' | b'a' => Some(0),
        b'C' | b'c' => Some(1),
        b'G' | b'g' => Some(2),
        b'T' | b't' => Some(3),
        _ => None,
    }
}

/// Bytes of a packed sequence that follow 8 codes folded into one word:
/// code `i` lands in bits `2i..2i+2` of the word's byte 0 (codes 0–3)
/// and byte 4 (codes 4–7), provided every code is < 4.
#[inline]
fn squeeze(word: u64) -> [u8; 2] {
    let x = word | word >> 6 | word >> 12 | word >> 18;
    [x as u8, (x >> 32) as u8]
}

/// Bytes [`pack`] writes for `bases` codes.
#[inline]
pub(crate) fn packed_len(bases: usize) -> usize {
    bases.div_ceil(4)
}

/// Append `codes` to `out` packed four per byte, first base in the low
/// two bits: [`packed_len`] bytes, so each packed sequence starts on a
/// byte boundary. The wire form of a read; panics on a code ≥ 4.
pub(crate) fn pack(codes: &[Base], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + packed_len(codes.len()), 0);
    let packed = &mut out[start..];
    // Any bit above a code's two is a code ≥ 4: OR every word, test once.
    let mut high = 0u64;
    let mut words = codes.chunks_exact(8);
    let mut pairs = packed.chunks_exact_mut(2);
    for (word, pair) in (&mut words).zip(&mut pairs) {
        let word = u64::from_le_bytes(word.try_into().expect("8 codes"));
        high |= word;
        pair.copy_from_slice(&squeeze(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        let word = u64::from_le_bytes(word);
        high |= word;
        let last = &mut packed[codes.len() / 8 * 2..];
        last.copy_from_slice(&squeeze(word)[..last.len()]);
    }
    assert!(
        high & 0xFCFC_FCFC_FCFC_FCFC == 0,
        "cannot pack a base code ≥ 4"
    );
}

/// Byte → its four codes, low bits first.
static UNPACK: [[Base; 4]; 256] = {
    let mut table = [[0; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let b = byte as u8;
        table[byte] = [b & 3, b >> 2 & 3, b >> 4 & 3, b >> 6];
        byte += 1;
    }
    table
};

/// Inverse of [`pack`] for one sequence: fill `out` with the codes of
/// `packed`, which holds [`packed_len`]`(out.len())` bytes.
pub(crate) fn unpack(packed: &[u8], out: &mut [Base]) {
    debug_assert_eq!(packed.len(), packed_len(out.len()));
    let mut quads = out.chunks_exact_mut(4);
    for (quad, &byte) in (&mut quads).zip(packed) {
        quad.copy_from_slice(&UNPACK[byte as usize]);
    }
    let tail = quads.into_remainder();
    if !tail.is_empty() {
        let last = packed[packed.len() - 1];
        tail.copy_from_slice(&UNPACK[last as usize][..tail.len()]);
    }
}

/// A DNA sequence (read, contig, or genome).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Seq {
    codes: Vec<Base>,
}

impl Seq {
    pub fn new() -> Self {
        Seq { codes: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Seq {
            codes: Vec::with_capacity(cap),
        }
    }

    /// From base codes (each must be < 4).
    pub fn from_codes(codes: Vec<Base>) -> Self {
        debug_assert!(codes.iter().all(|&b| b < 4));
        Seq { codes }
    }

    /// Parse from ASCII; ambiguity codes are replaced by `A` (as common
    /// assemblers do when ingesting simulated data without Ns).
    pub fn from_ascii(s: &[u8]) -> Self {
        Seq {
            codes: s.iter().map(|&c| char_to_base(c).unwrap_or(0)).collect(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> Base {
        self.codes[i]
    }

    #[inline]
    pub fn codes(&self) -> &[Base] {
        &self.codes
    }

    #[inline]
    pub fn push(&mut self, b: Base) {
        debug_assert!(b < 4);
        self.codes.push(b);
    }

    /// Append another sequence (the `⊕` of the paper's contig equation).
    pub fn extend_from(&mut self, other: &Seq) {
        self.codes.extend_from_slice(&other.codes);
    }

    /// Reverse complement of the whole sequence.
    pub fn reverse_complement(&self) -> Seq {
        Seq {
            codes: self.codes.iter().rev().map(|&b| complement(b)).collect(),
        }
    }

    /// Inclusive paper slice: forward `l[a:b]` when `a ≤ b`, or the
    /// reverse-complement slice `l[a:b]` (reading from `a` down to `b`,
    /// complemented) when `a > b`. Bounds are inclusive on both ends.
    pub fn paper_slice(&self, a: usize, b: usize) -> Seq {
        if a <= b {
            Seq {
                codes: self.codes[a..=b].to_vec(),
            }
        } else {
            Seq {
                codes: (b..=a).rev().map(|i| complement(self.codes[i])).collect(),
            }
        }
    }

    /// Contiguous subsequence `start..end` (exclusive end, forward strand).
    pub fn substring(&self, start: usize, end: usize) -> Seq {
        Seq {
            codes: self.codes[start..end].to_vec(),
        }
    }
}

impl std::fmt::Display for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &b in &self.codes {
            write!(f, "{}", base_to_char(b))?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.len() <= 60 {
            write!(f, "Seq(\"{self}\")")
        } else {
            write!(
                f,
                "Seq(len={}, \"{}…\")",
                self.len(),
                self.paper_slice(0, 29)
            )
        }
    }
}

impl std::str::FromStr for Seq {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(Seq::from_ascii(s.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        s.parse().expect("valid")
    }

    #[test]
    fn round_trip_ascii() {
        let s = seq("ACGTACGT");
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn complement_pairs() {
        // A<->T and C<->G, as stated in the paper's background section.
        assert_eq!(
            base_to_char(complement(char_to_base(b'A').expect("base"))),
            'T'
        );
        assert_eq!(
            base_to_char(complement(char_to_base(b'C').expect("base"))),
            'G'
        );
    }

    #[test]
    fn paper_background_example() {
        // §2: "Given a string v = ATTCG, its reverse complement is CGAAT."
        assert_eq!(seq("ATTCG").reverse_complement().to_string(), "CGAAT");
    }

    #[test]
    fn reverse_complement_involution() {
        let s = seq("GATTACAGATTACA");
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn forward_paper_slice_is_inclusive() {
        // Fig. 3: l_u = AGAACT, overlap is l_u[2:5] = AACT.
        assert_eq!(seq("AGAACT").paper_slice(2, 5).to_string(), "AACT");
        // prefix l_0[0:pre(e0)] with pre = 1 -> "AG"
        assert_eq!(seq("AGAACT").paper_slice(0, 1).to_string(), "AG");
    }

    #[test]
    fn reverse_paper_slice_is_rc() {
        // Fig. 3 rc case: l_v^c = CTTCAGTT (rc of l1 = AACTGAAG);
        // l_v^c[7:4] must equal AACT (the overlap on the rc strand).
        let l1c = seq("AACTGAAG").reverse_complement();
        assert_eq!(l1c.to_string(), "CTTCAGTT");
        assert_eq!(l1c.paper_slice(7, 4).to_string(), "AACT");
    }

    #[test]
    fn fig3_contig_concatenation() {
        // l_r[α:pre(e0)] ⊕ l_c1[post(e0):pre(e1)] ⊕ l_r'[post(e1):β]
        // with l0=AGAACT (pre=1), l1=AACTGAAG (post=0, pre=4),
        // l2=TGAAGAA (post=2, β=|l2|-1) must rebuild the merged contig.
        let l0 = seq("AGAACT");
        let l1 = seq("AACTGAAG");
        let l2 = seq("TGAAGAA");
        let mut contig = l0.paper_slice(0, 1);
        contig.extend_from(&l1.paper_slice(0, 4));
        contig.extend_from(&l2.paper_slice(2, l2.len() - 1));
        assert_eq!(contig.to_string(), "AGAACTGAAGAA");
    }

    #[test]
    fn single_base_slice() {
        assert_eq!(seq("ACGT").paper_slice(2, 2).to_string(), "G");
    }

    #[test]
    fn substring_exclusive() {
        assert_eq!(seq("ACGTAC").substring(1, 4).to_string(), "CGT");
    }

    #[test]
    fn ambiguity_maps_to_a() {
        assert_eq!(seq("ANGT").to_string(), "AAGT");
    }

    #[test]
    fn pack_round_trips_every_length() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..=67usize {
            let codes: Vec<Base> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 62) as Base
                })
                .collect();
            // Appended after a one-byte prefix: a packed read starts on a
            // byte boundary and takes exactly ⌈len/4⌉ bytes.
            let mut packed = vec![0xA5];
            pack(&codes, &mut packed);
            assert_eq!(packed.len(), 1 + len.div_ceil(4), "len {len}");
            assert_eq!(packed[0], 0xA5);
            let mut back = vec![7; len];
            unpack(&packed[1..], &mut back);
            assert_eq!(back, codes, "len {len}");
        }
    }

    #[test]
    fn pack_puts_the_first_base_in_the_low_bits() {
        let mut packed = Vec::new();
        pack(&[3, 0, 0, 0, 1, 2], &mut packed);
        assert_eq!(packed, [0b00_00_00_11, 0b10_01]);
    }

    #[test]
    #[should_panic(expected = "cannot pack a base code ≥ 4")]
    fn pack_refuses_a_code_of_4_or_more_in_a_word() {
        pack(&[0, 1, 2, 3, 4, 0, 1, 2, 3], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "cannot pack a base code ≥ 4")]
    fn pack_refuses_a_code_of_4_or_more_in_the_tail() {
        pack(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 255], &mut Vec::new());
    }
}
