//! `--scaffold true` is held to the same two standards as the assembly
//! it post-processes: its output is a function of its input (invariant 1
//! — same contigs on every run), and it never makes the assembly worse
//! against the reference.

use elba::core::scaffold::{scaffold_contigs, ScaffoldConfig};
use elba::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_seq(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..4u8)).collect()
}

/// Two contigs whose 600-bp end overlap is noisy on the second one: 25
/// substitutions and one 60-bp insertion. The overlap holds hundreds of
/// shared k-mers on two diagonals, so an overlapper that seeds from
/// "whichever shared k-mer comes first" out of a randomly keyed hash map
/// extends from a different anchor on every call.
fn noisy_overlap_pair(seed: u64) -> Vec<Seq> {
    let mut rng = StdRng::seed_from_u64(seed);
    let genome = random_seq(&mut rng, 3_000);
    let a = genome[..1_800].to_vec();
    let mut b = genome[1_200..].to_vec();
    for _ in 0..25 {
        let at = rng.gen_range(0..600usize);
        b[at] = (b[at] + rng.gen_range(1..4u8)) % 4;
    }
    let at = rng.gen_range(150..450usize);
    let insertion = random_seq(&mut rng, 60);
    b.splice(at..at, insertion);
    vec![Seq::from_codes(a), Seq::from_codes(b)]
}

#[test]
fn scaffolding_is_deterministic() {
    let cfg = ScaffoldConfig {
        k: 15,
        min_overlap: 50,
        ..Default::default()
    };
    let differing: Vec<u64> = (0..40)
        .filter(|&seed| {
            let contigs = noisy_overlap_pair(seed);
            let first = scaffold_contigs(&contigs, &cfg);
            (0..30).any(|_| scaffold_contigs(&contigs, &cfg) != first)
        })
        .collect();
    assert!(
        differing.is_empty(),
        "inputs (by seed) whose scaffolds or stats changed between calls: {differing:?}"
    );
}

#[test]
fn scaffolding_never_lowers_completeness() {
    // `elba assemble --ranks 4 --tr-fuzz 30` on `simulate --dataset
    // osativa --scale 0.6 --seed 11`: the CLI's defaults, spelled out.
    let spec = DatasetSpec::by_name("osativa", 0.6, 11).expect("known dataset");
    let (genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let mut cfg = PipelineConfig::default();
    cfg.kmer.k = 31;
    cfg.overlap.k = 31;
    cfg.overlap.xdrop = 15;
    cfg.overlap.min_overlap = 100;
    cfg.overlap.min_score_ratio = 0.55;
    cfg.overlap.fuzz = 100;
    cfg.tr_fuzz = 30;
    let pipeline = cfg.clone();
    let contigs: Vec<Seq> = Runner::new(Backend::InProcess)
        .ranks(4)
        .run(move |comm| assemble_gathered(&ProcGrid::new(comm), &reads, &pipeline).0)
        .remove(0)
        .into_iter()
        .map(|c| c.seq)
        .collect();
    assert_eq!(contigs.len(), 4, "the input this test was recorded on");

    // The tandem repeats two of these contigs share are not a reason to
    // join them, and certainly not to drop one as contained in the other.
    let (scaffolds, stats) = scaffold_contigs(
        &contigs,
        &ScaffoldConfig {
            k: cfg.kmer.k.min(21),
            min_overlap: cfg.overlap.min_overlap,
            ..Default::default()
        },
    );
    assert_eq!(scaffolds.len(), 4, "{stats:?}");
    let quality = QualityConfig::default();
    assert_eq!(
        evaluate(&genome, &scaffolds, &quality).completeness,
        evaluate(&genome, &contigs, &quality).completeness,
    );
}
