//! # ELBA-RS
//!
//! A from-scratch Rust reproduction of **"Distributed-Memory Parallel
//! Contig Generation for De Novo Long-Read Genome Assembly"** (Guidi,
//! Raulet, Rokhsar, Oliker, Yelick, Buluç — ICPP 2022): the ELBA
//! assembler, including every substrate it depends on — an in-process
//! MPI-style runtime, a CombBLAS-style distributed sparse-matrix layer,
//! x-drop alignment, the diBELLA 2D overlap/layout stages, and the
//! paper's novel distributed contig generation.
//!
//! ## Quickstart
//!
//! ```
//! use elba::prelude::*;
//!
//! // 1. Simulate a small long-read dataset (stands in for Table 2).
//! let spec = DatasetSpec::celegans_like(0.08, 42); // 8 kb genome
//! let (genome, sim_reads) = spec.generate();
//! let reads: Vec<Seq> = sim_reads.into_iter().map(|r| r.seq).collect();
//!
//! // 2. Run the distributed pipeline on 4 in-process ranks.
//! let cfg = PipelineConfig::for_dataset(&spec);
//! let contigs = Runner::new(Backend::InProcess).ranks(4).run(move |comm| {
//!     let grid = ProcGrid::new(comm);
//!     let (contigs, _result) = assemble_gathered(&grid, &reads, &cfg);
//!     contigs
//! })
//! .remove(0);
//!
//! // 3. Evaluate against the known reference (Table 4 metrics).
//! let seqs: Vec<Seq> = contigs.iter().map(|c| c.seq.clone()).collect();
//! let report = evaluate(&genome, &seqs, &QualityConfig::default());
//! assert!(report.completeness > 10.0);
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios. Every table
//! and figure of the paper is regenerated by one program in
//! `crates/bench`: `cargo bench -p elba-bench --bench figures -- [NAME]…`
//! (`table1`…`table4`, `fig4`…`fig6`, `ablation`; no name prints all).

pub use elba_align as align;

/// Process exit codes shared by the `elba` binary, its `elba launch`
/// worker processes, and the chaos tests/CI scripts. The supervisor (and
/// anything scripting it) distinguishes "a rank crashed" from "bad
/// arguments" from "deadline blown" by exit code alone, without parsing
/// stderr.
pub mod exit {
    /// Generic failure: I/O errors, pipeline errors.
    pub const FAILURE: u8 = 1;
    /// Malformed command line or worker environment.
    pub const USAGE: u8 = 2;
    /// A read of 2³¹ bases or more: the input is refused before any rank
    /// starts (`elba_seq::ReadTooLong`). `elba launch` passes its
    /// workers' refusal through.
    pub const READ_TOO_LONG: u8 = 3;
    /// A read set of 2³² reads or more: read ids travel as `u32`, so the
    /// input is refused before any rank starts
    /// (`elba_seq::TooManyReads`). `elba launch` passes its workers'
    /// refusal through.
    pub const TOO_MANY_READS: u8 = 4;
    /// A rank failed: an in-process `elba assemble` rank died, or an
    /// `elba launch` worker exited abnormally. The message names the
    /// rank and its status.
    pub const RANK_FAILED: u8 = 10;
    /// `elba launch`: workers were still running when `--launch-timeout`
    /// expired; the supervisor killed them.
    pub const LAUNCH_TIMEOUT: u8 = 11;
    /// Worker: unwound cleanly after a peer rank died
    /// (`CommError::PeerGone`) — a cascade victim, not the root cause.
    pub const PEER_GONE: u8 = 13;
    /// Worker: terminated by an injected soft kill (a `FaultPlan`
    /// `kill:` action in process mode). The dying worker uses the comm
    /// crate's copy of this constant; they are one value.
    pub const FAULT_KILLED: u8 = elba_comm::transport::fault::FAULT_KILLED_EXIT;
}
pub use elba_baseline as baseline;
pub use elba_comm as comm;
pub use elba_core as core;
pub use elba_graph as graph;
pub use elba_mem as mem;
pub use elba_par as par;
pub use elba_quality as quality;
pub use elba_seq as seq;
pub use elba_sparse as sparse;

/// Everything needed for typical use in one import.
pub mod prelude {
    pub use elba_align::{OverlapAln, OverlapClass, Scoring, SgEdge, XdropKernel};
    pub use elba_baseline::{assemble_bog, assemble_minimizer, BaselineConfig};
    pub use elba_comm::{Backend, Comm, FaultPlan, ProcGrid, RunProfile, Runner};
    pub use elba_core::{
        assemble, assemble_gathered, contig_generation, gather_contigs, AssemblyConfig,
        ChainingConfig, Contig, ContigConfig, PartitionStrategy, PipelineConfig, PipelineResult,
    };
    pub use elba_graph::{OverlapConfig, SeedChaining};
    pub use elba_mem::{MemBudget, MemTracker};
    pub use elba_quality::{evaluate, QualityConfig, QualityReport};
    pub use elba_seq::{DatasetSpec, KmerConfig, ReadStore, Seq};
    pub use elba_sparse::{DistMat, DistVec, Semiring};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = Scoring::default();
        let _ = QualityConfig::default();
        let _ = BaselineConfig::default();
        let _ = PipelineConfig::default();
    }
}
