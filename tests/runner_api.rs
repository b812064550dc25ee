//! Pins for the `PipelineConfig` sub-config builders driven through the
//! [`Runner`] entry point: their defaults are the pipeline's own, and
//! the knobs they set are transparent — byte-identical contigs.

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

/// Defaults of the sub-configs match the pipeline's own defaults, so
/// `..Default::default()` never silently changes a knob.
#[test]
fn sub_config_defaults_match_pipeline_defaults() {
    let base = PipelineConfig::default();
    let kx = KmerExchangeConfig::default();
    assert_eq!(kx.exchange, base.kmer.exchange);
    assert_eq!(kx.batch_kmers, base.kmer.batch_kmers);
    let ch = ChainingConfig::default();
    assert_eq!(ch.chaining, base.overlap.chaining);
    assert_eq!(ch.chain_band, base.overlap.chain_band);
}

/// Knob transparency, pinned through both sub-config builders: a
/// re-batched streaming exchange (`kmer_exchange`) and extend-every-seed
/// alignment (`seed_chaining`) must each leave the contigs
/// byte-identical to the defaults.
#[test]
fn knob_transparency_holds_through_both_builder_paths() {
    let spec = DatasetSpec::celegans_like(0.08, 555);
    let (_genome, sim_reads) = spec.generate();
    let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
    let base = PipelineConfig::for_dataset(&spec);

    let run = |cfg: PipelineConfig| {
        let reads = reads.clone();
        let out = Runner::new(Backend::InProcess)
            .ranks(4)
            .run(assemble_closure(reads, cfg));
        contig_strings(&out[0])
    };

    let default_contigs = run(base.clone());
    assert!(!default_contigs.is_empty(), "probe produced no contigs");
    let exchange_contigs = run(base.clone().kmer_exchange(KmerExchangeConfig {
        exchange: KmerExchange::Streaming,
        batch_kmers: 4096,
    }));
    let chaining_contigs = run(base.seed_chaining(ChainingConfig {
        chaining: SeedChaining::All,
        ..ChainingConfig::default()
    }));

    assert_eq!(
        default_contigs, exchange_contigs,
        "kmer_exchange path broke transparency"
    );
    assert_eq!(
        default_contigs, chaining_contigs,
        "seed_chaining path broke transparency"
    );
}
