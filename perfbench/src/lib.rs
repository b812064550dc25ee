//! The repo's benchmark: six named workloads, end-to-end metrics from
//! untraced repetitions, per-layer metrics from a traced replay — all
//! measured from outside the program under test. See `README.md`.

#![deny(deprecated)]

pub mod bench;
pub mod calibrate;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stages;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
