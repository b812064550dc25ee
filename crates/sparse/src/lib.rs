//! # elba-sparse — sparse matrix substrate for ELBA-RS
//!
//! ELBA (ICPP 2022) expresses the whole assembly pipeline in the language
//! of sparse linear algebra over CombBLAS. This crate rebuilds that
//! substrate in Rust:
//!
//! * one local format, [`csr::Csr`]: the block of every distributed
//!   matrix and the symmetric subgraph local assembly walks, built by a
//!   counting sort from triples, with `u32` offsets; on the wire a
//!   block ships its non-empty rows and column gaps as varints, and
//!   [`routed::RoutedTriples`] a sorted triple buffer as row runs,
//! * [`semiring::Semiring`] overloading of `(+, ×)`, including filtering
//!   semirings (a `multiply` that can annihilate) and an in-place
//!   `fold` (`acc ⊕= a ⊗ b`) a semiring may specialise,
//! * local kernels: Gustavson SpGEMM with a sparse accumulator
//!   ([`SpGemmBatcher`], row windows, strict-upper restriction, threads;
//!   [`spgemm::spgemm`] is the one-call form) and its masked form
//!   [`spgemm::MaskedAccumulator`], one caller-chosen
//!   [`semiring::MaskedFold`] slot per mask entry,
//! * the 2D-distributed layer: [`dist_mat::DistMat`] (one pipelined
//!   SUMMA SpGEMM whose parameter is a memory budget, masked SpGEMM,
//!   transpose, prune, row reduction, branch masking) and
//!   [`dist_vec::DistVec`] (gather/scatter by global index, shipped as
//!   `u32` chunk offsets, the paper's Fig. 2 row-allgather +
//!   transposed-p2p `fetch_aligned` exchange and its row half
//!   `fetch_rows`),
//! * [`dense::Dense`], a tiny dense oracle used by the test suite.

mod build;
pub mod csr;
pub mod dense;
pub mod dist_mat;
pub mod dist_vec;
pub mod layout;
pub mod routed;
pub mod semiring;
pub mod spgemm;

pub use csr::Csr;
pub use dist_mat::{DistMat, SpGemmOptions};
pub use dist_vec::DistVec;
pub use layout::Layout2D;
pub use routed::RoutedTriples;
pub use semiring::{MaskedFold, Semiring, SemiringSlot};
pub use spgemm::SpGemmBatcher;
