//! Seeded end-to-end and per-layer benchmark of the F-Box audit pipeline.
//!
//! One process runs one workload: an auditor session that acquires
//! observations, builds unfairness cubes, answers top-k and comparison
//! questions, re-ranks to mitigate, keeps a store fresh under streaming
//! re-crawls, and recovers from durable state. The program under test is
//! driven only through its public API; every layer call goes through a
//! wrapper in [`calls`] so the traced run can put a span around it.
//! See `README.md` beside this crate for the metrics and workloads.

pub mod alloc;
pub mod calls;
pub mod layers;
pub mod machine;
pub mod queries;
pub mod rng;
pub mod session;
pub mod stats;
pub mod trace;
