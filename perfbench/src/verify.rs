//! Output checks: the contig-set hash that pins repetitions (and knob
//! variants) to each other, and the quality report against the
//! generated reference.

use std::collections::HashMap;

use elba_comm::profile::UNPHASED;
use elba_comm::RunProfile;
use elba_core::Contig;
use elba_quality::QualityConfig;
use elba_seq::Seq;

use crate::inputs::{ChainInputs, Fnv, Inputs};

/// Strand-canonical base codes: the smaller of a sequence and its
/// reverse complement.
pub fn canonical(seq: &Seq) -> Vec<u8> {
    let rc = seq.reverse_complement();
    if seq.codes() <= rc.codes() {
        seq.codes().to_vec()
    } else {
        rc.codes().to_vec()
    }
}

/// Order- and strand-independent hash of a contig set.
pub fn contig_set_hash(contigs: &[Contig]) -> u64 {
    let mut all: Vec<Vec<u8>> = contigs.iter().map(|c| canonical(&c.seq)).collect();
    all.sort_unstable();
    let mut hash = Fnv::new();
    for codes in &all {
        hash.write(codes);
        hash.write(&[0xff]);
    }
    hash.finish()
}

/// What a user of the assembly sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub completeness_pct: f64,
    pub ng50_bp: u64,
    pub misassembled_contigs: u64,
    pub n_contigs: u64,
    pub assembled_bp: u64,
    /// Chain workload only: contigs that are not an expected piece plus
    /// expected pieces that no contig reproduces. Must be 0.
    pub reference_mismatches: u64,
}

pub fn evaluate(inputs: &Inputs, contigs: &[Contig]) -> Quality {
    match inputs {
        Inputs::Reads(r) => {
            let seqs: Vec<Seq> = contigs.iter().map(|c| c.seq.clone()).collect();
            let report = elba_quality::evaluate(&r.genome, &seqs, &QualityConfig::default());
            Quality {
                completeness_pct: report.completeness,
                ng50_bp: report.ng50 as u64,
                misassembled_contigs: report.misassembled_contigs as u64,
                n_contigs: report.n_contigs as u64,
                assembled_bp: report.total_len as u64,
                reference_mismatches: 0,
            }
        }
        Inputs::Chains(c) => evaluate_chains(c, contigs),
    }
}

/// Exact check of the chain workload: completeness is the share of
/// chromosomes reproduced byte for byte (either strand), and every
/// contig that is not one of the expected pieces — or that appears more
/// often than expected — counts as misassembled.
fn evaluate_chains(inputs: &ChainInputs, contigs: &[Contig]) -> Quality {
    // canonical piece -> (times still expected, is a whole chromosome)
    let mut expected: HashMap<Vec<u8>, (u32, bool)> = HashMap::new();
    for (seq, whole) in inputs.expected_pieces() {
        expected.entry(canonical(&seq)).or_insert((0, whole)).0 += 1;
    }
    let mut whole_found = 0u64;
    let mut unexpected = 0u64;
    for contig in contigs {
        match expected.get_mut(&canonical(&contig.seq)) {
            Some((left, whole)) if *left > 0 => {
                *left -= 1;
                whole_found += u64::from(*whole);
            }
            _ => unexpected += 1,
        }
    }
    let missing: u64 = expected.values().map(|&(left, _)| u64::from(left)).sum();
    let reference_bp: usize = inputs.chromosomes.iter().map(Seq::len).sum();
    let mut lengths: Vec<usize> = contigs.iter().map(|c| c.seq.len()).collect();
    lengths.sort_unstable_by(|a, b| b.cmp(a));
    let mut acc = 0;
    let ng50 = lengths
        .iter()
        .find(|&&len| {
            acc += len;
            acc >= reference_bp / 2
        })
        .copied()
        .unwrap_or(0);
    Quality {
        completeness_pct: 100.0 * whole_found as f64 / inputs.chromosomes.len().max(1) as f64,
        ng50_bp: ng50 as u64,
        misassembled_contigs: unexpected,
        n_contigs: contigs.len() as u64,
        assembled_bp: lengths.iter().sum::<usize>() as u64,
        reference_mismatches: unexpected + missing,
    }
}

/// The five phases of the paper's Fig. 5, in pipeline order.
pub const PAPER_PHASES: [&str; 5] = [
    "CountKmer",
    "DetectOverlap",
    "Alignment",
    "TrReduction",
    "ExtractContig",
];

/// Whether profile phase `name` is paper phase `phase` or one of its
/// `phase:Sub` sub-phases. Communication books to the innermost active
/// phase, so a paper phase's traffic is the sum over both.
pub fn in_phase(name: &str, phase: &str) -> bool {
    name.strip_prefix(phase)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with(':'))
}

/// Profiled bytes each rank sent inside named phases — the quantity the
/// transports must agree on.
pub fn wire_bytes_per_rank(profile: &RunProfile) -> Vec<u64> {
    profile
        .rank_profiles()
        .iter()
        .map(|rank| {
            rank.phases()
                .filter(|(name, _)| *name != UNPHASED)
                .map(|(_, p)| p.bytes_sent())
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_phases_fold_into_their_paper_phase() {
        assert!(in_phase("ExtractContig", "ExtractContig"));
        assert!(in_phase("ExtractContig:LocalAssembly", "ExtractContig"));
        assert!(!in_phase("ExtractContigs", "ExtractContig"));
        assert!(!in_phase("Alignment", "ExtractContig"));
    }

    #[test]
    fn contig_hash_ignores_order_and_strand() {
        let contig = |s: &str| Contig {
            seq: s.parse().expect("dna"),
            read_ids: Vec::new(),
            circular: false,
        };
        let a = [contig("AACGT"), contig("GGGTA")];
        let b = [contig("TACCC"), contig("ACGTT")];
        assert_eq!(contig_set_hash(&a), contig_set_hash(&b));
        assert_ne!(contig_set_hash(&a), contig_set_hash(&a[..1]));
    }
}
