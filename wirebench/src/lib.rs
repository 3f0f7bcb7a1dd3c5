//! `wirebench` — the end-to-end SQL-over-the-wire benchmark.
//!
//! One command starts `UpServer` and `WireServer` in-process on a
//! loopback port, drives one of three seeded closed-loop workloads
//! through `up_net::Client`, checks every reply against expected rows,
//! and prints every metric by name with its unit. See `README.md`.

pub mod bench;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workload;
