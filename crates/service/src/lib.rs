//! `mp-service`: the measurement service promoting [`ExperimentSession`] into a
//! shared, concurrent daemon.
//!
//! [`mp_runtime`]: mp_runtime
//! [`ExperimentSession`]: mp_runtime::ExperimentSession
//!
//! The paper's methodology measures hundreds of synthesized micro-benchmarks per
//! model fit; a fleet of experiment processes naïvely repeats every measurement.
//! This crate lets N processes share *one* memoizing session:
//!
//! - [`protocol`] — the `MPSVC1` wire format: length-prefixed, checksummed,
//!   little-endian frames, reusing the persistent store's measurement codec.
//! - [`daemon`] — [`MeasurementDaemon`], a std-net (`TcpListener` + plain threads —
//!   deliberately no async runtime) accept loop whose single dispatcher funnels all
//!   connections' jobs through one `measure_batch_resilient` call per batching
//!   window, so a job submitted by many clients simulates exactly once.
//! - [`client`] — [`RemoteRunner`], the [`BatchRunner`](mp_runtime::BatchRunner)
//!   that ships cache misses over TCP, and [`RemoteSession`], the drop-in wrapper
//!   the experiment driver uses when `MP_SERVICE_ADDR` is set.  Client-mode stdout
//!   is byte-identical to in-process runs because the session logic never moves:
//!   only tier-3 execution crosses the wire.
//!
//! Compatibility is enforced, not assumed: every connection handshakes on the
//! machine-spec digest ([`spec_digest`](mp_uarch::MicroArchitecture)), because the
//! wire encodes instructions by raw opcode index, which only identical specs number
//! identically.  Note the session's content keys do not cover `SimOptions`
//! (simulation scale), so daemon and clients must also run at the same scale — the
//! experiment binaries pass it on the command line, and `scripts/service_determinism.sh`
//! pins it.

pub mod client;
pub mod daemon;
pub mod protocol;

pub use client::{RemoteRunner, RemoteSession, SERVICE_ADDR_ENV};
pub use daemon::MeasurementDaemon;
pub use protocol::{DaemonStats, FrameError, MessageType, WireJob, WireResult};
