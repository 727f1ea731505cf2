//! The HERA benchmark: three workloads (`batch`, `anytime`, `serve`)
//! run against the public APIs of the workspace crates, with output
//! checks, end-to-end metrics from untraced runs and per-layer metrics
//! from traced runs. See `README.md` beside this crate for what each
//! workload isolates and what each metric means.

pub mod common;
pub mod pipeline;
pub mod report;
pub mod schedule;
pub mod staleness;
pub mod stats;
pub mod workloads;
