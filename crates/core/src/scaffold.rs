//! Contig scaffolding — the paper's §7 future work: "One possibility is
//! to once again use the sparse matrix abstraction to find similarities
//! within the contig set and obtain even longer sequences."
//!
//! That is what runs here, literally: the contig set becomes a read set
//! and goes through [`string_graph`] (Algorithm 1: reliable k-mers,
//! `C = AAᵀ`, x-drop alignment, classification, transitive reduction)
//! and [`contig_generation`] (Algorithm 2: branch masking, connected
//! components, the linear walk). This module holds no overlapper, aligner
//! or walker of its own — [`ScaffoldConfig`] is six fields mapped onto a
//! [`PipelineConfig`].
//!
//! **The reliable band is [2, 2].** A join anchor is a k-mer counted
//! exactly twice over the whole contig set. Reads cover a locus `depth`
//! times, so the read pipeline needs a wide band; contigs cover it once,
//! or twice where two of them overlap. A k-mer counted three or more
//! times — across contigs or inside one — is a repeat, which BELLA's upper
//! bound (Algorithm 1 line 3) exists to drop: seeded from one, x-drop
//! aligns two copies of the repeat, not two ends of the genome.
//!
//! **Pass-through.** The walk emits chains of two or more contigs. Every
//! input contig that is in no walk and was not classified as contained
//! in another is emitted unchanged: contigs are joined or absorbed, and
//! nothing else leaves the set.
//!
//! **One rank.** A contig set is the paper's n ≪ reads case (§4.3 gathers
//! contig sizes on one processor for the same reason), so the pass runs
//! on a private one-rank in-process [`Runner`]: nothing is sent, and
//! nothing is booked into the profile of the assembly that made the
//! contigs.

use elba_align::Scoring;
use elba_comm::{ProcGrid, Runner};
use elba_seq::{ReadStore, Seq};

use crate::contig::contig_generation;
use crate::pipeline::{string_graph, PipelineConfig};

/// Scaffolding parameters.
#[derive(Debug, Clone)]
pub struct ScaffoldConfig {
    /// Seed k-mer length for contig-vs-contig overlap detection.
    pub k: usize,
    pub xdrop: i32,
    pub scoring: Scoring,
    /// Minimum end-overlap between two contigs to join them.
    pub min_overlap: usize,
    /// Score/span acceptance ratio (as in the pipeline).
    pub min_score_ratio: f64,
    /// Classification fuzz.
    pub fuzz: usize,
}

impl Default for ScaffoldConfig {
    fn default() -> Self {
        ScaffoldConfig {
            k: 31,
            xdrop: 20,
            scoring: Scoring::default(),
            min_overlap: 150,
            min_score_ratio: 0.6,
            fuzz: 100,
        }
    }
}

/// Outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaffoldStats {
    pub input_contigs: usize,
    pub joins: usize,
    pub output_scaffolds: usize,
    pub contained_dropped: usize,
}

impl ScaffoldConfig {
    /// Scaffolding as a pipeline parameterisation (module doc: the band).
    fn pipeline(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::default();
        cfg.kmer.k = self.k;
        cfg.kmer.reliable_min = 2;
        cfg.kmer.reliable_max = 2;
        cfg.overlap.k = self.k;
        cfg.overlap.xdrop = self.xdrop;
        cfg.overlap.scoring = self.scoring;
        cfg.overlap.min_overlap = self.min_overlap;
        cfg.overlap.min_score_ratio = self.min_score_ratio;
        cfg.overlap.fuzz = self.fuzz;
        cfg.tr_fuzz = self.fuzz as u32;
        cfg
    }
}

/// Scaffold a contig set: Algorithms 1 and 2 with the contigs as reads.
/// Returns the scaffolds longest first (ties by sequence) — a function of
/// the input alone.
pub fn scaffold_contigs(contigs: &[Seq], cfg: &ScaffoldConfig) -> (Vec<Seq>, ScaffoldStats) {
    let pipeline = cfg.pipeline();
    let reads = contigs.to_vec();
    let (walks, contained) = Runner::default()
        .run(move |comm| {
            let grid = ProcGrid::new(comm);
            let store = ReadStore::from_replicated(&grid, &reads);
            let graph = string_graph(&grid, &store, &pipeline);
            let (walks, _) = contig_generation(&grid, &graph.s, &store, &pipeline.contig);
            (walks, graph.contained.to_global(&grid))
        })
        .remove(0);

    // A walk over m contigs made m − 1 joins (m if it closed a cycle).
    let joins = walks
        .iter()
        .map(|w| w.read_ids.len() - usize::from(!w.circular))
        .sum();
    let mut passes_through: Vec<bool> = contained.iter().map(|&c| !c).collect();
    for &id in walks.iter().flat_map(|w| &w.read_ids) {
        passes_through[id as usize] = false;
    }
    let kept = contigs
        .iter()
        .zip(&passes_through)
        .filter(|&(_, &keep)| keep);
    let mut out: Vec<Seq> = walks.into_iter().map(|w| w.seq).collect();
    out.extend(kept.map(|(contig, _)| contig.clone()));
    out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.codes().cmp(b.codes())));
    let stats = ScaffoldStats {
        input_contigs: contigs.len(),
        joins,
        output_scaffolds: out.len(),
        contained_dropped: contained.iter().filter(|&&c| c).count(),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn genome(len: usize, seed: u64) -> Seq {
        let mut rng = StdRng::seed_from_u64(seed);
        Seq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect())
    }

    fn cfg() -> ScaffoldConfig {
        ScaffoldConfig {
            k: 15,
            min_overlap: 50,
            ..Default::default()
        }
    }

    #[test]
    fn two_overlapping_contigs_merge() {
        let g = genome(2_000, 1);
        let contigs = vec![g.substring(0, 1_100), g.substring(1_000, 2_000)];
        let (scaffolds, stats) = scaffold_contigs(&contigs, &cfg());
        assert_eq!(stats.joins, 1);
        assert_eq!(scaffolds.len(), 1);
        assert!(
            scaffolds[0] == g || scaffolds[0] == g.reverse_complement(),
            "scaffold len {} vs genome {}",
            scaffolds[0].len(),
            g.len()
        );
    }

    #[test]
    fn reverse_complement_contig_still_joins() {
        let g = genome(2_000, 2);
        let contigs = vec![
            g.substring(0, 1_100),
            g.substring(1_000, 2_000).reverse_complement(),
        ];
        let (scaffolds, stats) = scaffold_contigs(&contigs, &cfg());
        assert_eq!(stats.joins, 1);
        assert_eq!(scaffolds.len(), 1);
        assert!(scaffolds[0] == g || scaffolds[0] == g.reverse_complement());
    }

    #[test]
    fn chain_of_three_contigs() {
        let g = genome(3_000, 3);
        let contigs = vec![
            g.substring(0, 1_200),
            g.substring(1_100, 2_200),
            g.substring(2_100, 3_000),
        ];
        let (scaffolds, stats) = scaffold_contigs(&contigs, &cfg());
        assert_eq!(stats.joins, 2);
        assert_eq!(scaffolds.len(), 1);
        assert_eq!(scaffolds[0].len(), 3_000);
    }

    #[test]
    fn disjoint_contigs_pass_through() {
        let a = genome(1_000, 4);
        let b = genome(1_000, 5);
        let (scaffolds, stats) = scaffold_contigs(&[a.clone(), b.clone()], &cfg());
        assert_eq!(stats.joins, 0);
        assert_eq!(scaffolds.len(), 2);
        assert!(scaffolds.contains(&a) && scaffolds.contains(&b));
    }

    #[test]
    fn contained_contig_is_absorbed() {
        let g = genome(2_000, 6);
        let contigs = vec![g.clone(), g.substring(500, 1_200)];
        let (scaffolds, stats) = scaffold_contigs(&contigs, &cfg());
        assert_eq!(stats.contained_dropped, 1);
        assert_eq!(scaffolds.len(), 1);
        assert_eq!(scaffolds[0], g);
    }

    #[test]
    fn branching_join_is_masked() {
        // contig 0 overlaps both 1 and 2 at the same end region → degree 3
        // on 0 after symmetric edges; branch masking must avoid a chimeric
        // join (0 keeps at most a linear chain).
        let g = genome(3_000, 7);
        let shared = g.substring(900, 1_200);
        let mut c1 = g.substring(0, 1_200); // ends with `shared`
        let mut c2 = shared.clone();
        c2.extend_from(&genome(800, 8)); // divergent continuation A
        let mut c3 = shared.clone();
        c3.extend_from(&genome(800, 9)); // divergent continuation B
        let _ = &mut c1;
        let (scaffolds, _stats) = scaffold_contigs(&[c1, c2, c3], &cfg());
        // no scaffold may be longer than a single valid join
        assert!(scaffolds.len() >= 2, "branch must prevent a 3-way merge");
    }

    #[test]
    fn empty_input() {
        let (scaffolds, stats) = scaffold_contigs(&[], &cfg());
        assert!(scaffolds.is_empty());
        assert_eq!(stats.output_scaffolds, 0);
    }

    #[test]
    fn repeat_inside_one_contig_is_not_an_anchor() {
        // `a` carries the unit twice, `b` once: every k-mer of the unit
        // occurs three times in the set, so the [2, 2] band drops it and
        // the two contigs share no anchor. Counting k-mers once per
        // contig would see "in exactly two contigs", align b's copy to
        // one of a's and drop b as contained. Each copy sits between its
        // own pair of flanking bases, so no k-mer that reaches out of a
        // copy occurs twice by chance.
        let concat = |parts: &[&Seq]| {
            Seq::from_codes(parts.iter().flat_map(|p| p.codes()).copied().collect())
        };
        let unit = genome(298, 20);
        let copy = |flank: u8| {
            let flank = Seq::from_codes(vec![flank]);
            concat(&[&flank, &unit, &flank])
        };
        let a = concat(&[
            &genome(800, 21),
            &copy(0),
            &genome(500, 22),
            &copy(1),
            &genome(400, 23),
        ]);
        let b = concat(&[&genome(700, 24), &copy(2), &genome(700, 25)]);
        let (scaffolds, stats) = scaffold_contigs(&[a.clone(), b.clone()], &cfg());
        assert_eq!((stats.joins, stats.contained_dropped), (0, 0));
        assert_eq!(scaffolds, vec![a, b]);
    }

    #[test]
    fn transitive_overlap_is_reduced_not_branched() {
        // A–B, B–C and A–C all overlap: without transitive reduction B
        // would be walked with a spurious A–C edge beside it.
        let g = genome(3_600, 26);
        let contigs = vec![
            g.substring(0, 2_000),
            g.substring(800, 2_800),
            g.substring(1_600, 3_600),
        ];
        let (scaffolds, stats) = scaffold_contigs(&contigs, &cfg());
        assert_eq!(stats.joins, 2);
        assert_eq!(scaffolds.len(), 1);
        assert!(scaffolds[0] == g || scaffolds[0] == g.reverse_complement());
    }
}
