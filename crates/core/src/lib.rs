//! # elba-core — distributed contig generation (the ELBA contribution)
//!
//! Implementation of Algorithms 1 and 2 of *Distributed-Memory Parallel
//! Contig Generation for De Novo Long-Read Genome Assembly* (ICPP 2022):
//!
//! * [`mod@partition`] — LPT multiway number partitioning for contig load
//!   balancing (plus the ablation baselines),
//! * [`lacc`] — distributed connected components (Awerbuch–Shiloach
//!   family, FastSV formulation) over the unbranched string matrix,
//! * [`induced`] — the induced subgraph function with the row half of
//!   the Fig. 2 exchange (a row allgather of labels, each a varint of
//!   its distance below its vertex) and the custom all-to-all edge
//!   routing as varint row runs,
//! * [`assembly`] — per-rank linear-walk local assembly with the paper's
//!   `pre`/`post` concatenation over packed read buffers,
//! * [`contig`] — Algorithm 2 end-to-end (`ContigGeneration`),
//! * [`pipeline`] — Algorithm 1 end-to-end (`ELBA`), with the paper's
//!   phase names for profiling,
//! * [`job`] — one assembly job as an `elba assemble` command line:
//!   its flags, its reads, its run and its outputs,
//! * [`serve`] — many jobs over a pool of rank groups (`elba serve`).

pub mod assembly;
pub mod contig;
pub mod induced;
pub mod job;
pub mod lacc;
pub mod partition;
pub mod pipeline;
pub mod scaffold;
pub mod serve;

pub use assembly::{local_assembly, AssemblyConfig, AssemblyStats, Contig, WalkEdge};
pub use contig::{contig_generation, gather_contigs, ContigConfig, ContigStats};
pub use induced::{induced_subgraph, LocalGraph};
pub use job::AssembleJob;
pub use lacc::{connected_components, ComponentLabels, UnionFind};
pub use partition::{partition, PartitionStrategy, Partitioning};
pub use pipeline::{
    assemble, assemble_gathered, string_graph, ChainingConfig, PipelineConfig, PipelineResult,
    StringGraph,
};
pub use scaffold::{scaffold_contigs, ScaffoldConfig, ScaffoldStats};
pub use serve::{JobId, JobOutcome, JobResult, ServeConfig, Server, SubmitError};
