//! The overlap-detection semiring (BELLA) and transitive reduction's
//! masked fold (diBELLA 2D), instantiated over the generic
//! [`elba_sparse::Semiring`] / [`elba_sparse::MaskedFold`] machinery,
//! plus the reduction's general min-plus semiring, kept as the oracle
//! the fold is tested against.

use elba_align::SgEdge;
use elba_comm::transport::wire::{varint_len, write_varint, WireError, WireReader};
use elba_comm::CommMsg;
use elba_seq::AEntry;
use elba_sparse::{MaskedFold, Semiring};

/// One shared-k-mer seed between a read pair: the k-mer's position in
/// both reads and whether the two occurrences sat on the same strand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    pub pos_v: u32,
    pub pos_h: u32,
    pub same_strand: bool,
}

impl Seed {
    /// The seed a shared k-mer's occurrences in read *v* (`a`) and read
    /// *h* (`b`) make.
    #[inline(always)]
    fn shared(a: &AEntry, b: &AEntry) -> Seed {
        Seed {
            pos_v: a.pos,
            pos_h: b.pos,
            same_strand: a.fwd == b.fwd,
        }
    }
}

/// Value of the candidate overlap matrix `C = AAᵀ`: up to two retained
/// seeds to drive x-drop extension (BELLA keeps at most two; which two is
/// [`SharedSeeds::merge`]'s rule). An entry exists because at least one
/// shared k-mer landed on it; nothing downstream reads how many did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedSeeds {
    /// `0` while one seed is retained; otherwise `1 +` the `pos_v`
    /// distance of `seeds[1]` from `seeds[0]` (saturating at
    /// `u32::MAX`). A product whose distance from `seeds[0]` is below
    /// it cannot change the seeds, so [`OverlapSemiring::fold`] decides
    /// that from one comparison without reading `B`'s value.
    far: u32,
    seeds: [Seed; 2],
}

/// Field by field, zero-padded to `size_of` (what `nbytes` books), so
/// `same_strand` travels as one byte that must read 0 or 1.
impl CommMsg for Seed {
    #[inline]
    fn nbytes(&self) -> usize {
        std::mem::size_of::<Seed>()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        let end = out.len() + self.nbytes();
        self.pos_v.wire_encode(out);
        self.pos_h.wire_encode(out);
        self.same_strand.wire_encode(out);
        out.resize(end, 0);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let seed = Seed {
            pos_v: u32::wire_decode(r)?,
            pos_h: u32::wire_decode(r)?,
            same_strand: bool::wire_decode(r)?,
        };
        // The padding after two `u32` and a `bool`.
        r.read_bytes(std::mem::size_of::<Seed>() - 9)?;
        Ok(seed)
    }
}

/// Field by field like [`Seed`], zero-padded to `size_of`.
impl CommMsg for SharedSeeds {
    #[inline]
    fn nbytes(&self) -> usize {
        std::mem::size_of::<SharedSeeds>()
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        let end = out.len() + self.nbytes();
        self.far.wire_encode(out);
        for seed in &self.seeds {
            seed.wire_encode(out);
        }
        out.resize(end, 0);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let seeds = SharedSeeds {
            far: u32::wire_decode(r)?,
            seeds: [Seed::wire_decode(r)?, Seed::wire_decode(r)?],
        };
        r.read_bytes(std::mem::size_of::<SharedSeeds>() - 4 - 2 * std::mem::size_of::<Seed>())?;
        Ok(seeds)
    }
}
elba_mem::impl_deep_bytes_pod!(SharedSeeds, Seed);

impl SharedSeeds {
    pub fn single(seed: Seed) -> Self {
        SharedSeeds {
            far: 0,
            seeds: [seed, seed],
        }
    }

    /// Retained seeds (1 or 2).
    pub fn seeds(&self) -> &[Seed] {
        &self.seeds[..1 + (self.far != 0) as usize]
    }

    /// Merge another accumulation into this one. The first seed this
    /// accumulation ever saw stays `seeds[0]`; `seeds[1]` is the first
    /// seed offered after it whose `pos_v` lies farther from
    /// `seeds[0].pos_v` than any offered before it (while there is one
    /// seed, the first seed that differs from it at all). That is the
    /// farthest seed *from the first*, not the pair of seeds with the
    /// largest separation, and it depends on the order seeds arrive.
    pub fn merge(&mut self, other: SharedSeeds) {
        for &seed in other.seeds() {
            self.offer(seed);
        }
    }

    /// One seed under [`SharedSeeds::merge`]'s rule.
    /// `far` only filters: the comparison that decides is exact. Out of
    /// line so [`OverlapSemiring::fold`]'s common path stays a compare
    /// and a branch inside the kernel loop (measured: 3–5 % of the
    /// diagonal ranks' stage kernel).
    #[inline(never)]
    fn offer(&mut self, seed: Seed) {
        let [first, second] = self.seeds;
        let d_new = first.pos_v.abs_diff(seed.pos_v);
        let replace = if self.far == 0 {
            seed != first
        } else {
            d_new > first.pos_v.abs_diff(second.pos_v)
        };
        if replace {
            self.seeds[1] = seed;
            self.far = d_new.saturating_add(1);
        }
    }
}

/// `C = A ⊗ Aᵀ` semiring: multiplying the k-mer occurrence in read *v*
/// (row) with the occurrence in read *h* (column) yields a seed; addition
/// keeps ≤ 2 seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapSemiring;

impl Semiring for OverlapSemiring {
    type A = AEntry;
    type B = AEntry;
    type Out = SharedSeeds;

    #[inline]
    fn multiply(&self, a: &AEntry, b: &AEntry) -> Option<SharedSeeds> {
        Some(SharedSeeds::single(Seed::shared(a, b)))
    }

    #[inline]
    fn add(&self, acc: &mut SharedSeeds, other: SharedSeeds) {
        acc.merge(other);
    }

    /// `multiply` + `add` without building the product: only if `a`
    /// lies at least `far` from the first seed (or there is one seed)
    /// build the seed — the one read of `b`'s value — and offer it.
    /// `#[inline(always)]`: with plain `#[inline]` the kernel
    /// instantiated in this crate kept most of the default `fold`'s cost
    /// (diagonal-rank stage kernel ≈ 0.10–0.11 s, against 0.08 s here and
    /// 0.11–0.14 s for the default).
    #[inline(always)]
    fn fold(&self, acc: &mut SharedSeeds, a: &AEntry, b: &AEntry) {
        if a.pos.abs_diff(acc.seeds[0].pos_v) >= acc.far {
            acc.offer(Seed::shared(a, b));
        }
    }
}

/// Direction index of a directed string-graph edge: two bits encoding the
/// traversal orientation of source and destination (the bidirected
/// arrowheads).
#[inline]
pub fn dir_index(src_rev: bool, dst_rev: bool) -> usize {
    (src_rev as usize) << 1 | dst_rev as usize
}

/// Value of the general product `N = S ⊗ S` under [`ReductionSemiring`]:
/// the minimum two-hop overhang sum for each of the four direction
/// combinations. Test oracle only: the sweep keeps the one direction an
/// edge reads ([`ReductionFold`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinPlusDir {
    pub per_dir: [u32; 4],
}

elba_comm::impl_comm_msg_pod!(MinPlusDir);
elba_mem::impl_deep_bytes_pod!(MinPlusDir);

impl MinPlusDir {
    pub const EMPTY: MinPlusDir = MinPlusDir {
        per_dir: [u32::MAX; 4],
    };
}

/// What transitive reduction reads of an edge: its overhang and its two
/// arrowheads. The reduction's SUMMA runs on `R` projected to hops, so
/// a stage broadcast carries one varint per edge (1–2 bytes for an
/// overhang below 4 096, at most 5) instead of a 16-byte [`SgEdge`]
/// whose `pre` and `post` the product never reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    pub suffix: u32,
    pub src_rev: bool,
    pub dst_rev: bool,
}

impl Hop {
    /// The hop of a string-graph edge.
    #[inline]
    pub fn of(edge: &SgEdge) -> Hop {
        Hop {
            suffix: edge.suffix,
            src_rev: edge.src_rev,
            dst_rev: edge.dst_rev,
        }
    }

    /// The hop's direction pair, [`dir_index`].
    #[inline]
    pub fn dir(&self) -> usize {
        dir_index(self.src_rev, self.dst_rev)
    }

    /// The hop's wire code: the suffix above its direction pair.
    #[inline]
    fn code(&self) -> u64 {
        u64::from(self.suffix) << 2 | self.dir() as u64
    }
}

/// One LEB128 varint, `suffix << 2 | dir` ([`Hop::dir`]), booked at
/// its encoded length: an overhang costs what its bits need, not a
/// fixed `u32` and a flag byte. A code of 2³⁴ or more (a suffix past
/// `u32::MAX`) is a malformed frame.
impl CommMsg for Hop {
    #[inline]
    fn nbytes(&self) -> usize {
        varint_len(self.code())
    }

    fn wire_encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.code());
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let code = r.read_varint()?;
        let suffix = u32::try_from(code >> 2).map_err(|_| WireError::Malformed("hop suffix"))?;
        Ok(Hop {
            suffix,
            src_rev: code & 2 != 0,
            dst_rev: code & 1 != 0,
        })
    }
}

/// Transitive reduction's masked fold (diBELLA 2D): composing `u→w`
/// with `w→v` is legal only when `w` is traversed in one consistent
/// orientation (`dst_rev(u→w) == src_rev(w→v)`), and the edge `u→v` it
/// lands on reads only a path in its own direction
/// (`src_rev(u→w) == src_rev(u→v)`, `dst_rev(w→v) == dst_rev(u→v)`).
/// An edge's slot is the shortest such two-hop overhang sum, `u32::MAX`
/// while there is none: 4 bytes where an `Option<MinPlusDir>` takes 20.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionFold;

impl MaskedFold<Hop> for ReductionFold {
    type A = Hop;
    type B = Hop;
    type Slot = u32;

    #[inline]
    fn empty(&self, _: &Hop) -> u32 {
        u32::MAX
    }

    #[inline]
    fn fold(&self, shortest: &mut u32, edge: &Hop, e1: &Hop, e2: &Hop) {
        if e1.dst_rev == e2.src_rev && (e1.src_rev, e2.dst_rev) == (edge.src_rev, edge.dst_rev) {
            *shortest = (*shortest).min(e1.suffix.saturating_add(e2.suffix));
        }
    }
}

/// The general min-plus product [`ReductionFold`] reads one direction
/// of: the product records the overhang sum under the composite
/// direction of every consistently oriented two-hop path. Test oracle
/// only: the tests run it through the eager general product
/// `DistMat::spgemm_with`; the sweep has no use for the other three
/// directions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionSemiring;

impl Semiring for ReductionSemiring {
    type A = Hop;
    type B = Hop;
    type Out = MinPlusDir;

    #[inline]
    fn multiply(&self, e1: &Hop, e2: &Hop) -> Option<MinPlusDir> {
        if e1.dst_rev != e2.src_rev {
            return None;
        }
        let mut out = MinPlusDir::EMPTY;
        out.per_dir[dir_index(e1.src_rev, e2.dst_rev)] = e1.suffix.saturating_add(e2.suffix);
        Some(out)
    }

    #[inline]
    fn add(&self, acc: &mut MinPlusDir, other: MinPlusDir) {
        for (a, b) in acc.per_dir.iter_mut().zip(other.per_dir) {
            *a = (*a).min(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(pos_v: u32, pos_h: u32) -> Seed {
        Seed {
            pos_v,
            pos_h,
            same_strand: true,
        }
    }

    #[test]
    fn overlap_semiring_keeps_two_seeds() {
        let s = OverlapSemiring;
        let a = AEntry { pos: 10, fwd: true };
        let b = AEntry { pos: 20, fwd: true };
        let mut acc = s.multiply(&a, &b).expect("always produces a seed");
        for pos in [30u32, 50, 40] {
            let x = s
                .multiply(
                    &AEntry { pos, fwd: true },
                    &AEntry {
                        pos: pos + 5,
                        fwd: false,
                    },
                )
                .expect("seed");
            s.add(&mut acc, x);
        }
        assert_eq!(acc.seeds().len(), 2);
        // keeps the farthest pair: positions 10 and 50
        assert_eq!(acc.seeds()[0].pos_v, 10);
        assert_eq!(acc.seeds()[1].pos_v, 50);
    }

    #[test]
    fn strand_agreement_recorded() {
        let s = OverlapSemiring;
        let out = s
            .multiply(
                &AEntry { pos: 1, fwd: true },
                &AEntry { pos: 2, fwd: false },
            )
            .expect("seed");
        assert!(!out.seeds()[0].same_strand);
    }

    #[test]
    fn reduction_semiring_requires_consistent_middle() {
        let s = ReductionSemiring;
        let hop = |src_rev, dst_rev, suffix| Hop {
            suffix,
            src_rev,
            dst_rev,
        };
        let product = s
            .multiply(&hop(false, false, 10), &hop(false, true, 20))
            .expect("compatible");
        assert_eq!(product.per_dir[dir_index(false, true)], 30);
        // incompatible middle orientation annihilates
        assert_eq!(
            s.multiply(&hop(false, false, 10), &hop(true, false, 20)),
            None
        );
    }

    #[test]
    fn reduction_fold_keeps_the_shortest_path_in_the_edges_own_direction() {
        let hop = |src_rev, dst_rev, suffix| Hop {
            suffix,
            src_rev,
            dst_rev,
        };
        let edge = hop(false, true, 50);
        let mut shortest = ReductionFold.empty(&edge);
        assert_eq!(shortest, u32::MAX);
        // Forward-forward, reverse-reverse and reverse-forward paths are
        // shorter, and an inconsistent middle shorter still: none of
        // them is in the edge's direction.
        ReductionFold.fold(
            &mut shortest,
            &edge,
            &hop(false, false, 1),
            &hop(false, false, 1),
        );
        ReductionFold.fold(
            &mut shortest,
            &edge,
            &hop(true, true, 1),
            &hop(true, true, 1),
        );
        ReductionFold.fold(
            &mut shortest,
            &edge,
            &hop(true, false, 1),
            &hop(false, false, 1),
        );
        ReductionFold.fold(
            &mut shortest,
            &edge,
            &hop(false, false, 0),
            &hop(true, true, 0),
        );
        assert_eq!(shortest, u32::MAX);
        ReductionFold.fold(
            &mut shortest,
            &edge,
            &hop(false, true, 30),
            &hop(true, true, 20),
        );
        ReductionFold.fold(
            &mut shortest,
            &edge,
            &hop(false, false, 20),
            &hop(false, true, 40),
        );
        assert_eq!(shortest, 50);
        // A sum that saturates never undercuts a real one.
        ReductionFold.fold(
            &mut shortest,
            &edge,
            &hop(false, false, u32::MAX),
            &hop(false, true, 9),
        );
        assert_eq!(shortest, 50);
        // The general product's entry in the edge's direction, the same
        // products added: what the fold stands in for.
        let s = ReductionSemiring;
        let mut general = MinPlusDir::EMPTY;
        for (e1, e2) in [
            (hop(false, false, 1), hop(false, false, 1)),
            (hop(false, true, 30), hop(true, true, 20)),
            (hop(false, false, 20), hop(false, true, 40)),
        ] {
            if let Some(product) = s.multiply(&e1, &e2) {
                s.add(&mut general, product);
            }
        }
        assert_eq!(general.per_dir[edge.dir()], shortest);
    }

    #[test]
    fn a_hop_keeps_what_the_reduction_reads_of_an_edge() {
        for (src_rev, dst_rev) in [(false, false), (false, true), (true, false), (true, true)] {
            let edge = SgEdge {
                pre: 7,
                post: 9,
                src_rev,
                dst_rev,
                suffix: 120,
            };
            let hop = Hop::of(&edge);
            assert_eq!(
                (hop.suffix, hop.src_rev, hop.dst_rev),
                (120, src_rev, dst_rev)
            );
            assert_eq!(hop.dir(), dir_index(src_rev, dst_rev));
        }
    }

    #[test]
    fn reduction_add_takes_min_per_direction() {
        let s = ReductionSemiring;
        let mut acc = MinPlusDir::EMPTY;
        let mut a = MinPlusDir::EMPTY;
        a.per_dir[0] = 100;
        let mut b = MinPlusDir::EMPTY;
        b.per_dir[0] = 50;
        b.per_dir[3] = 70;
        s.add(&mut acc, a);
        s.add(&mut acc, b);
        assert_eq!(acc.per_dir[0], 50);
        assert_eq!(acc.per_dir[3], 70);
        assert_eq!(acc.per_dir[1], u32::MAX);
    }

    #[test]
    fn a_candidate_entry_is_two_seeds_and_their_distance() {
        // With its `u32` column, one accumulator entry of `C` is 32 B.
        assert_eq!(std::mem::size_of::<SharedSeeds>(), 28);
        let two = {
            let mut acc = SharedSeeds::single(seed(3, 4));
            acc.merge(SharedSeeds::single(seed(900, 5)));
            acc
        };
        assert_eq!(two.nbytes(), 28);
    }

    #[test]
    fn merge_dedups_identical_seed() {
        let mut acc = SharedSeeds::single(seed(5, 6));
        acc.merge(SharedSeeds::single(seed(5, 6)));
        assert_eq!(acc.seeds().len(), 1);
    }

    /// The `n`-based `SharedSeeds` and `merge` that `far` replaced (its
    /// seed rule verbatim): the oracle for the encoding and for `fold`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct OracleSeeds {
        n: u8,
        seeds: [Seed; 2],
    }

    impl OracleSeeds {
        fn single(seed: Seed) -> Self {
            OracleSeeds {
                n: 1,
                seeds: [seed, seed],
            }
        }

        fn seeds(&self) -> &[Seed] {
            &self.seeds[..self.n as usize]
        }

        fn merge(&mut self, other: OracleSeeds) {
            for &seed in other.seeds() {
                if self.n == 1 {
                    if seed != self.seeds[0] {
                        self.seeds[1] = seed;
                        self.n = 2;
                    }
                } else {
                    // Keep {first, farthest-from-first}.
                    let d_cur = self.seeds[0].pos_v.abs_diff(self.seeds[1].pos_v);
                    let d_new = self.seeds[0].pos_v.abs_diff(seed.pos_v);
                    if d_new > d_cur {
                        self.seeds[1] = seed;
                    }
                }
            }
        }
    }

    /// One pair's product stream split into SUMMA-stage runs, reduced
    /// three ways: each run as the SPA does it (first product by
    /// `multiply`, the rest by the overridden `fold`), each run by
    /// `multiply` + `add` (the default `fold`), and by the oracle; the
    /// runs are then merged with `add` in stage order. All three must
    /// agree.
    fn check_stream(products: &[(AEntry, AEntry)], runs: &[usize]) {
        let s = OverlapSemiring;
        let mut folded: Option<SharedSeeds> = None;
        let mut added: Option<SharedSeeds> = None;
        let mut oracle: Option<OracleSeeds> = None;
        let mut start = 0;
        for &len in runs {
            let run = &products[start..start + len];
            start += len;
            let (a0, b0) = &run[0];
            let mut f = s.multiply(a0, b0).expect("always a seed");
            let mut m = f;
            let mut o = OracleSeeds::single(Seed::shared(a0, b0));
            for (a, b) in &run[1..] {
                s.fold(&mut f, a, b);
                s.add(&mut m, s.multiply(a, b).expect("always a seed"));
                o.merge(OracleSeeds::single(Seed::shared(a, b)));
            }
            match (&mut folded, &mut added, &mut oracle) {
                (Some(fa), Some(ma), Some(oa)) => {
                    s.add(fa, f);
                    s.add(ma, m);
                    oa.merge(o);
                }
                _ => (folded, added, oracle) = (Some(f), Some(m), Some(o)),
            }
        }
        assert_eq!(start, products.len());
        let (f, m, o) = (
            folded.expect("a run"),
            added.expect("a run"),
            oracle.expect("a run"),
        );
        assert_eq!(
            f, m,
            "fold and multiply + add differ on {products:?} / {runs:?}"
        );
        assert_eq!(f.seeds(), o.seeds(), "{products:?} / {runs:?}");
    }

    #[test]
    fn fold_matches_the_n_based_merge_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..5000 {
            // A small position range repeats positions and makes ties;
            // a centre with room on both sides puts the ties on both
            // sides of whichever seed arrives first.
            let centre = rng.gen_range(0..4u32) * 1000 + 500;
            let spread = rng.gen_range(1..12u32);
            let len = rng.gen_range(1..14usize);
            let mut products: Vec<(AEntry, AEntry)> = Vec::with_capacity(len);
            while products.len() < len {
                if !products.is_empty() && rng.gen_bool(0.2) {
                    // An exact duplicate of an earlier product.
                    let i = rng.gen_range(0..products.len());
                    products.push(products[i]);
                    continue;
                }
                let offset = rng.gen_range(0..=spread);
                let pos = if rng.gen_bool(0.5) {
                    centre + offset
                } else {
                    centre - offset
                };
                let a = AEntry {
                    pos,
                    fwd: rng.gen_bool(0.5),
                };
                let b = AEntry {
                    pos: rng.gen_range(0..4),
                    fwd: rng.gen_bool(0.5),
                };
                products.push((a, b));
            }
            // 1–3 non-empty runs, like a block's SUMMA stages.
            let nruns = rng.gen_range(1..=3usize.min(len));
            let mut cuts: Vec<usize> = Vec::with_capacity(nruns);
            while cuts.len() + 1 < nruns {
                let cut = rng.gen_range(1..len);
                if !cuts.contains(&cut) {
                    cuts.push(cut);
                }
            }
            cuts.sort_unstable();
            cuts.push(len);
            let mut prev = 0;
            let runs: Vec<usize> = cuts
                .into_iter()
                .map(|cut| cut - std::mem::replace(&mut prev, cut))
                .collect();
            check_stream(&products, &runs);
        }
    }

    #[test]
    fn fold_at_the_full_u32_distance_does_not_overflow() {
        let at = |pos: u32, h: u32| (AEntry { pos, fwd: true }, AEntry { pos: h, fwd: true });
        // |Δpos| = u32::MAX on either side of the first seed, a tie at
        // that distance (must not replace), and seeds in between.
        for products in [
            vec![at(0, 0), at(u32::MAX, 1), at(u32::MAX, 2), at(7, 3)],
            vec![at(u32::MAX, 0), at(0, 1), at(0, 2), at(1, 3)],
            vec![at(0, 0), at(5, 1), at(u32::MAX, 2), at(u32::MAX, 3)],
            vec![
                at(0, 0),
                at(u32::MAX - 1, 1),
                at(u32::MAX, 2),
                at(u32::MAX, 3),
            ],
        ] {
            for runs in [vec![4], vec![1, 3], vec![2, 2], vec![1, 1, 2]] {
                check_stream(&products, &runs);
            }
        }
        let mut acc = OverlapSemiring
            .multiply(&at(0, 0).0, &at(0, 0).1)
            .expect("seed");
        OverlapSemiring.fold(&mut acc, &at(u32::MAX, 1).0, &at(u32::MAX, 1).1);
        OverlapSemiring.fold(&mut acc, &at(u32::MAX, 2).0, &at(u32::MAX, 2).1);
        assert_eq!(acc.far, u32::MAX);
        assert_eq!(acc.seeds(), &[seed(0, 0), seed(u32::MAX, 1)]);
    }
}
