//! # elba-align — pairwise alignment for ELBA-RS
//!
//! The x-drop seed-and-extend kernel applied to candidate overlaps
//! (nonzeros of `C = AAᵀ`), and the classification of alignments into
//! bidirected string-graph edges with the paper's `pre(e)` / `post(e)`
//! payloads (§4.4). The classifier handles all four dovetail orientations
//! plus containment (redundant vertices) and repeat-induced internal
//! matches.

pub mod overlap;
pub mod xdrop;

pub use overlap::{classify, dovetail_edges, OverlapAln, OverlapClass, SgEdge};
pub use xdrop::{
    extend_seed, extend_seed_greedy, extend_seed_with, greedy_extend, xdrop_extend,
    xdrop_extend_with, BufferHighWater, Extension, Scoring, SeedAlignment, XdropKernel,
    XdropWorkspace,
};
