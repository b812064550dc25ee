//! Pins for `PipelineConfig` driven through the [`Runner`] entry point:
//! the sub-config's defaults are the pipeline's own, and the k-mer batch
//! size is transparent — byte-identical contigs.

use elba::prelude::*;

fn assemble_closure(
    reads: Vec<Seq>,
    cfg: PipelineConfig,
) -> impl Fn(Comm) -> Vec<Contig> + Send + Sync + 'static {
    move |comm| {
        let grid = ProcGrid::new(comm);
        let (contigs, _) = assemble_gathered(&grid, &reads, &cfg);
        contigs
    }
}

fn contig_strings(contigs: &[Contig]) -> Vec<String> {
    contigs.iter().map(|c| c.seq.to_string()).collect()
}

/// Defaults of the sub-config match the pipeline's own defaults, so
/// `..Default::default()` never silently changes a knob.
#[test]
fn sub_config_defaults_match_pipeline_defaults() {
    let base = PipelineConfig::default();
    let ch = ChainingConfig::default();
    assert_eq!(ch.chaining, base.overlap.chaining);
}

/// The k-mer exchange's batch size changes how occurrences move, never
/// what is assembled: a re-batched exchange must leave the contigs
/// byte-identical to the default batch.
#[test]
fn rebatched_kmer_exchange_leaves_contigs_unchanged() {
    let spec = DatasetSpec::celegans_like(0.08, 555);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let base = PipelineConfig::for_dataset(&spec);
    assert!(base.kmer.sample_rate > 1, "the k-mers are sampled");

    let run = |cfg: PipelineConfig| {
        let reads = reads.clone();
        let out = Runner::new(Backend::InProcess)
            .ranks(4)
            .run(assemble_closure(reads, cfg));
        contig_strings(&out[0])
    };

    let default_contigs = run(base.clone());
    assert!(!default_contigs.is_empty(), "probe produced no contigs");
    let mut rebatched = base;
    rebatched.kmer.batch_kmers = 4096;
    assert_eq!(
        default_contigs,
        run(rebatched),
        "batch_kmers broke transparency"
    );
}
