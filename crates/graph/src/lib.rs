//! # elba-graph — overlap graph construction and layout for ELBA-RS
//!
//! The `O` and `L` of the OLC pipeline, as diBELLA 2D / ELBA formulate
//! them in sparse linear algebra:
//!
//! * [`semirings`] — the BELLA overlap-detection semiring (≤2 retained
//!   seeds per read pair sharing a k-mer) and the direction-aware min-plus
//!   fold driving transitive reduction (one `u32` per edge), over the
//!   [`Hop`] projection of an edge, one varint on the wire,
//! * [`overlap_stage`] — `C = AAᵀ` over SUMMA, x-drop alignment of every
//!   candidate pair, classification into containment / internal /
//!   dovetail, and assembly of the symmetric overlap matrix `R` with
//!   contained reads pruned,
//! * [`reduction`] — bidirected transitive reduction of `R` into the
//!   string matrix `S` (plus a structural symmetrization pass).

pub mod overlap_stage;
pub mod reduction;
pub mod semirings;

pub use overlap_stage::{
    align_and_classify, align_pair, candidate_matrix, overlap_graph, AlignStats, OverlapConfig,
    SeedChaining,
};
pub use reduction::{symmetrize, transitive_reduction_with, ReductionStats};
pub use semirings::{
    dir_index, Hop, MinPlusDir, OverlapSemiring, ReductionFold, ReductionSemiring, Seed,
    SharedSeeds,
};
