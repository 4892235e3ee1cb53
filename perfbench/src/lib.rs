//! Benchmark of the ARVI reproduction: workload drivers, the traced
//! per-layer run, and in-memory spans. `run.py` in this directory
//! builds the binaries, runs the workloads and reports the metrics;
//! see `README.md` here for what each metric means.

pub mod layers;
pub mod spans;
pub mod work;
