//! # bow-benchmark — the instrument speed and simplicity claims are judged with
//!
//! Seven named workloads, ten end-to-end metrics and a per-layer trace
//! taken from outside, by timing calls into the public functions of the
//! repository's crates. `README.md` beside this crate says what each
//! number means; `BENCHMARK.json` at the repository root is the contract
//! the names, units and bounds come from.
//!
//! Host time is "host"; modelled time is "simulated".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
