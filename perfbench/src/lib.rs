//! The repository benchmark: three workloads driven through the public
//! APIs of `hfi-serve` and `hfi-sim`, with end-to-end metrics from an
//! untraced pass and per-layer metrics from a separate traced run. See
//! `README.md` in this directory for the workloads and the metric map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
