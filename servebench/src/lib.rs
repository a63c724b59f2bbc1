//! Serving benchmark for the distribution-aware dataset search service.
//!
//! One run serves seeded inputs from a loopback `DdsServer`, drives it
//! with `DdsClient` under one named workload, checks every answer, and
//! prints either the end-to-end metrics or, traced, the per-layer ones.
//! `README.md` beside this crate describes the workloads and metrics.

use std::sync::atomic::AtomicU64;

pub mod bench;
pub mod json;
pub mod load;
pub mod report;
pub mod stats;
pub mod trace;

/// Heap allocations made by the whole process (client and server
/// threads alike), counted by the benchmark binary's global allocator.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
