//! # elba-seq — genomics substrate for ELBA-RS
//!
//! Everything ELBA's pipeline needs below the sparse-matrix layer:
//!
//! * [`dna::Seq`] — DNA sequences with the paper's inclusive
//!   forward/reverse-complement slicing (`l[i:j]` / `l[j:i]`, §4.4),
//! * [`kmer`] — packed canonical k-mers (k ≤ 31) with rolling extraction,
//! * [`fasta`] — FASTA I/O,
//! * [`sim`] — seeded synthetic genome + long-read simulator standing in
//!   for the paper's Table 2 datasets (depth / read length / error rate /
//!   repeat content preserved at scaled genome sizes),
//! * [`store::ReadStore`] — the distributed packed char-array read store
//!   with offset tables and the MPI 2³¹−1-count contiguous-datatype
//!   exchange path (§4.3),
//! * [`kcount`] — distributed reliable k-mer counting and the
//!   |reads|×|k-mers| matrix A construction (`KmerCounter`/`GenerateA`
//!   of Algorithm 1) over a context-free k-mer sample.

pub mod dna;
pub mod fasta;
pub mod gfa;
pub mod kcount;
pub mod kmer;
pub mod sim;
pub mod store;

pub use dna::Seq;
pub use kcount::{
    build_a_triples, build_a_triples_with_stats, count_kmers, count_kmers_with_stats, kmer_sampled,
    AEntry, CountRun, ExchangeStats, KmerConfig, KmerTable,
};
pub use sim::{DatasetSpec, ReadSimConfig, SimulatedRead};
pub use store::{ReadHeaders, ReadStore, ReadTooLong, TooManyReads};
