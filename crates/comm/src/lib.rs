//! # elba-comm — in-process message-passing runtime for ELBA-RS
//!
//! The ICPP 2022 ELBA paper runs on MPI over thousands of ranks. Rust MPI
//! bindings are immature, so this crate provides the substitute substrate:
//! an in-process SPMD runtime where *each rank is an OS thread* and a
//! [`Comm`] handle exposes the MPI operations the paper's algorithms use:
//!
//! * point-to-point `send`/`recv`/`irecv` with tags (non-blocking
//!   buffered sends, matching-by-`(source, tag)` receives),
//! * the collectives used by ELBA: `barrier`, `bcast`, `gather`,
//!   `allgather`, `reduce`, `allreduce`, `reduce_scatter`, `alltoallv`,
//!   `exscan` — an `irecv` request (the pipelined SUMMAs' stage
//!   receives) books blocked time to a separate *wait* bucket so
//!   communication/computation overlap is measurable,
//! * communicator `split` (colors/keys) for building the
//!   √P×√P [`grid::ProcGrid`] with row and column sub-communicators,
//! * per-phase wall-time and message-volume accounting ([`profile`]).
//!
//! The message plane is pluggable ([`transport`]): by default ranks are
//! threads in one address space and payloads move as boxed values —
//! identical communication *structure* to MPI (who sends what to whom,
//! and how many bytes it would be on a wire) without serialization cost.
//! The socket backend ([`transport::socket`], [`Backend::Socket`],
//! `elba launch`) instead hosts each rank in its own process and ships
//! every cross-rank message as a serialized frame over Unix-domain
//! sockets. Byte volumes are metered through [`msg::CommMsg`] *above*
//! the transport, so profiled traffic is byte-identical across backends.
//!
//! Both backends sit behind one backend-generic entry point, the
//! [`Runner`] builder. A rank that dies mid-run surfaces as a typed
//! [`SpmdFailure`]: each survivor raises [`CommError::PeerGone`] where it
//! detects the death, and the runner catches it ([`error`]).
//!
//! ```
//! use elba_comm::{Backend, Runner};
//!
//! // SPMD "hello": every rank contributes its rank id, all check the sum.
//! let results = Runner::new(Backend::InProcess).ranks(4).run(|comm| {
//!     let sum: u64 = comm.allreduce(comm.rank() as u64, |a, b| a + b);
//!     sum
//! });
//! assert!(results.iter().all(|&s| s == 0 + 1 + 2 + 3));
//! ```

pub mod collectives;
pub mod error;
pub mod grid;
pub mod msg;
pub mod profile;
pub mod runtime;
pub mod transport;

pub use error::{CommError, FailureCause, RankFailure, SpmdFailure};
pub use grid::ProcGrid;
pub use msg::CommMsg;
pub use profile::{PhaseProfile, Profile, RunProfile};
pub use runtime::{Backend, Comm, MemCharge, Rank, RecvRequest, Runner, SharedMemCharge, Tag};
pub use transport::fault::FaultPlan;
pub use transport::socket::{run_worker, WorkerError};
