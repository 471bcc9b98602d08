//! `mp-runtime` — the measurement runtime of the MicroProbe reproduction.
//!
//! The paper's methodology is embarrassingly parallel: hundreds of independent
//! `(micro-benchmark × CMP-SMT configuration)` runs feed the bottom-up/top-down power
//! models.  This crate supplies the two layers every measurement path in the workspace
//! runs through:
//!
//! 1. [`executor`] — one std-only [`par_map`]: scoped worker threads claim items from
//!    one atomic cursor, results land by input index, the worker count follows the
//!    `MP_THREADS` environment variable, job panics propagate to the caller, and a
//!    [`CostHint`] keeps batches too cheap to pay for spawning workers on the caller;
//! 2. [`session`] — a memoizing [`ExperimentSession`] that takes a declarative
//!    [`ExperimentPlan`] of measurement jobs, content-hashes each job, dedupes repeats
//!    and memoizes [`Measurement`](mp_sim::Measurement)s across plan submissions, so
//!    regenerating every figure (or running every test fixture) measures each unique
//!    pair exactly once per process;
//! 3. [`dse`] — a [`ParallelEvaluator`] bridging the core DSE search drivers onto the
//!    executor, so exhaustive and genetic searches score whole candidate batches in
//!    parallel with results identical to the serial path;
//! 4. [`store`] — a crash-safe, content-addressed persistent measurement store
//!    (opt-in via `MP_STORE_DIR`) that turns the session's memo cache into a second,
//!    disk-backed tier surviving restarts, with torn/corrupt/stale records quarantined
//!    and recomputed instead of crashing;
//! 5. [`codec`] — the one byte codec: little-endian writers, a bounds-checked
//!    [`Cursor`](codec::Cursor), and the canonical measurement and kernel encodings
//!    that the store, the wire protocol and the job keys all share;
//! 6. [`faults`] — deterministic, seeded fault injection (`MP_FAULTS`) that drives IO
//!    errors and torn writes into the store, panics into simulation jobs and delays
//!    into executor tasks, so every failure path above is provable in CI.
//!
//! `mp_bench::measure_benchmarks`, the experiment binaries, and the slow integration
//! tests are all thin wrappers over these layers.

#![forbid(unsafe_code)]

pub mod codec;
pub mod dse;
pub mod executor;
pub mod faults;
pub mod poison;
pub mod session;
pub mod shard;
pub mod store;

pub use dse::ParallelEvaluator;
pub use executor::{default_workers, par_map, worker_index, CostHint, THREADS_ENV};
pub use faults::{FaultPlan, FAULTS_ENV};
pub use session::{
    BatchRunner, ExperimentPlan, ExperimentSession, JobError, PlannedJob, SessionOptions,
    SessionStats,
};
pub use shard::ShardedCache;
pub use store::{Store, StoreStats, STORE_DIR_ENV};
