//! Invariant 2 pinned across transports: the pipeline's outputs AND its
//! profiled communication volume are properties of the algorithm, not
//! of the message plane. Running the same assembly on the in-process
//! mailbox backend and on the socket backend (ranks exchanging
//! serialized frames over Unix socketpairs) must produce byte-identical
//! contigs and byte-identical per-rank wire counts in every named
//! phase, on every grid shape.

use elba::prelude::*;

fn body(comm: Comm, reads: Vec<Seq>, cfg: PipelineConfig) -> (Vec<Contig>, PipelineResult) {
    let grid = ProcGrid::new(comm);
    assemble_gathered(&grid, &reads, &cfg)
}

/// Per-rank `(phase, bytes_sent, p2p_msgs)` over named phases — the
/// full shape of the communication, not just a total.
fn wire_shape(profile: &RunProfile) -> Vec<Vec<(String, u64, u64)>> {
    let names = profile.phase_names();
    profile
        .rank_profiles()
        .iter()
        .map(|rank| {
            names
                .iter()
                .filter_map(|name| {
                    rank.phase(name)
                        .map(|p| (name.clone(), p.bytes_sent(), p.p2p_msgs))
                })
                .collect()
        })
        .collect()
}

/// celegans 0.1 seed 7 assembles contigs at every p, so the comparison
/// covers contig bases and walks, and the Alignment phase's two mask
/// rounds on both backends.
#[test]
fn contigs_and_wire_bytes_match_across_transports() {
    let spec = DatasetSpec::celegans_like(0.1, 7);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let cfg = PipelineConfig::for_dataset(&spec);
    for p in [1usize, 4, 9] {
        let (reads_a, cfg_a) = (reads.clone(), cfg.clone());
        let (mut out_a, prof_a) = Runner::new(Backend::InProcess)
            .ranks(p)
            .run_profiled(move |comm| body(comm, reads_a.clone(), cfg_a.clone()));
        let (reads_b, cfg_b) = (reads.clone(), cfg.clone());
        let (mut out_b, prof_b) = Runner::new(Backend::Socket)
            .ranks(p)
            .run_profiled(move |comm| body(comm, reads_b.clone(), cfg_b.clone()));

        let (contigs_a, result_a) = out_a.remove(0);
        let (contigs_b, result_b) = out_b.remove(0);
        assert!(!contigs_a.is_empty(), "p={p}: the pinned input assembles");
        assert_eq!(contigs_a.len(), contigs_b.len(), "p={p}: contig count");
        for (ca, cb) in contigs_a.iter().zip(&contigs_b) {
            assert!(ca.seq == cb.seq, "p={p}: contig bases diverge");
            assert_eq!(ca.read_ids, cb.read_ids, "p={p}: contig walks diverge");
        }
        assert_eq!(
            result_a.n_reliable_kmers, result_b.n_reliable_kmers,
            "p={p}: reliable k-mers"
        );
        assert_eq!(
            result_a.string_graph_nnz, result_b.string_graph_nnz,
            "p={p}: string graph nnz"
        );
        assert_eq!(
            wire_shape(&prof_a),
            wire_shape(&prof_b),
            "p={p}: profiled wire traffic diverges between transports"
        );
    }
}

/// The k-mer stage's count runs and A's routed triples in many small
/// windows: at `batch_kmers = 1 << 10` every rank sends dozens of count
/// runs per peer, each frame coded and decoded on the socket backend.
#[test]
fn small_kmer_windows_match_across_transports() {
    let spec = DatasetSpec::celegans_like(0.1, 7);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let mut cfg = PipelineConfig::for_dataset(&spec);
    cfg.kmer.batch_kmers = 1 << 10;
    let run = |backend| {
        let (reads, cfg) = (reads.clone(), cfg.clone());
        let (mut out, profile) = Runner::new(backend)
            .ranks(4)
            .run_profiled(move |comm| body(comm, reads.clone(), cfg.clone()));
        (out.remove(0).0, wire_shape(&profile))
    };
    let (contigs_a, wire_a) = run(Backend::InProcess);
    let (contigs_b, wire_b) = run(Backend::Socket);
    assert!(!contigs_a.is_empty());
    assert_eq!(contigs_a.len(), contigs_b.len(), "contig count");
    for (ca, cb) in contigs_a.iter().zip(&contigs_b) {
        assert!(ca.seq == cb.seq, "contig bases diverge");
        assert_eq!(ca.read_ids, cb.read_ids, "contig walks diverge");
    }
    assert_eq!(wire_a, wire_b, "profiled wire traffic diverges");
}

/// `DistMat::from_triples` on both transports at p = 4, with every
/// rank's triples in row-major order (each owner's buffer travels as row
/// runs and column gaps) and reversed (each travels flat): the same
/// blocks, and the same per-rank bytes and messages on both backends.
#[test]
fn routed_triples_match_across_transports_in_both_forms() {
    use elba::seq::AEntry;
    const NROWS: u64 = 40;
    const NCOLS: u64 = 60;
    fn triples_of(rank: u64) -> Vec<(u64, u64, AEntry)> {
        (0..NROWS)
            .flat_map(|r| (0..NCOLS).map(move |c| (r, c)))
            .filter(|&(r, c)| (r * 7 + c * 3 + rank).is_multiple_of(5))
            .map(|(r, c)| {
                (
                    r,
                    c,
                    AEntry {
                        pos: (r * 100 + c) as u32,
                        fwd: c % 2 == 0,
                    },
                )
            })
            .collect()
    }
    let run = |backend, reverse: bool| {
        Runner::new(backend).ranks(4).run_profiled(move |comm| {
            let grid = ProcGrid::new(comm);
            let mut triples = triples_of(grid.world().rank() as u64);
            if reverse {
                triples.reverse();
            }
            let _g = grid.world().phase("Route");
            let (n, m) = (NROWS as usize, NCOLS as usize);
            let block = DistMat::from_triples(&grid, n, m, triples, |acc, v| *acc = (*acc).min(v));
            block.local().clone()
        })
    };
    let mut bytes = Vec::new();
    for reverse in [false, true] {
        let (blocks_a, prof_a) = run(Backend::InProcess, reverse);
        let (blocks_b, prof_b) = run(Backend::Socket, reverse);
        assert_eq!(blocks_a, blocks_b, "reverse={reverse}: blocks diverge");
        assert_eq!(
            wire_shape(&prof_a),
            wire_shape(&prof_b),
            "reverse={reverse}: profiled wire traffic diverges"
        );
        assert!(blocks_a.iter().all(|b| b.nnz() > 0));
        bytes.push((blocks_a, prof_a.total_bytes("Route")));
    }
    let (sorted, flat) = (&bytes[0], &bytes[1]);
    assert_eq!(
        sorted.0, flat.0,
        "the order of the triples shows in no block"
    );
    // Flat: one 8-byte header per owner and 12 B per triple, as a `Vec`.
    let triples: u64 = (0..4).map(|rank| triples_of(rank).len() as u64).sum();
    assert_eq!(flat.1, 4 * 4 * 8 + 12 * triples);
    assert!(
        sorted.1 < flat.1,
        "run form {} vs flat {}",
        sorted.1,
        flat.1
    );
}
