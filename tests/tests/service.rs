//! Integration tests for the measurement service ([`mp_service`]): client-mode
//! sessions produce byte-identical results to in-process execution, a daemon shared
//! by N concurrent clients simulates each unique job exactly once, and no protocol
//! garbage — truncated, corrupt, or outright random frames — ever takes the daemon
//! down.
//!
//! Determinism tests pin fault injection **off** (restoring the ambient `MP_FAULTS`
//! plan afterwards) so they stay meaningful under the CI fault-injection job;
//! `injected_faults_surface_as_per_job_errors_and_spare_the_daemon` then proves the
//! service against injected failures explicitly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use microprobe::ir::MicroBenchmark;
use microprobe::platform::{Platform, SimPlatform};
use microprobe::prelude::*;
use mp_integration::pin_faults;
use mp_runtime::{faults, ExperimentSession, FaultPlan, SessionOptions};
use mp_service::{protocol, MeasurementDaemon, MessageType, RemoteRunner, RemoteSession};
use mp_sim::Measurement;
use mp_uarch::{CmpSmtConfig, MicroArchitecture, SmtMode};

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

/// A platform that counts every real simulation — the proof that the daemon runs
/// each unique job exactly once no matter how many clients submit it.
struct CountingPlatform {
    inner: SimPlatform,
    runs: Arc<AtomicUsize>,
}

impl Platform for CountingPlatform {
    fn uarch(&self) -> &MicroArchitecture {
        self.inner.uarch()
    }

    fn run(&self, bench: &MicroBenchmark, config: CmpSmtConfig) -> Measurement {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.inner.run(bench, config)
    }

    fn run_heterogeneous(&self, benches: &[MicroBenchmark], config: CmpSmtConfig) -> Measurement {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.inner.run_heterogeneous(benches, config)
    }

    fn idle_power(&self) -> f64 {
        self.inner.idle_power()
    }
}

fn sample_benchmarks(count: u64) -> Vec<MicroBenchmark> {
    let computes = mp_uarch::power7().isa.compute_instructions();
    (0..count)
        .map(|seed| {
            let mut synth =
                Synthesizer::new(mp_uarch::power7()).with_name_prefix("svc").with_seed(seed);
            synth.add_pass(SkeletonPass::endless_loop(12));
            synth.add_pass(InstructionMixPass::uniform(computes.clone()));
            synth.synthesize().expect("benchmark synthesizes")
        })
        .collect()
}

fn jobs_of(benches: &[MicroBenchmark]) -> Vec<(&MicroBenchmark, CmpSmtConfig)> {
    let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
    benches.iter().flat_map(|b| configs.iter().map(move |&c| (b, c))).collect()
}

/// Spawns a counting daemon on an ephemeral loopback port; returns the address, the
/// run counter, and the accept-thread handle.
fn spawn_counting_daemon() -> (String, Arc<AtomicUsize>, std::thread::JoinHandle<()>) {
    let runs = Arc::new(AtomicUsize::new(0));
    let platform = CountingPlatform { inner: SimPlatform::power7_fast(), runs: Arc::clone(&runs) };
    // Explicit options: no store tier, so an ambient MP_STORE_DIR (e.g. the CI
    // persistence job) cannot satisfy jobs from disk and undercount `runs`.
    let session = ExperimentSession::with_options(platform, SessionOptions::default());
    let daemon =
        MeasurementDaemon::bind(session, "127.0.0.1:0").expect("bind an ephemeral loopback port");
    let addr = daemon.local_addr().to_string();
    (addr, runs, daemon.spawn())
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let digest = mp_uarch::power7().spec_digest;
    RemoteRunner::connect(addr, digest)
        .expect("daemon still serving")
        .shutdown_daemon()
        .expect("daemon acknowledges shutdown");
    handle.join().expect("daemon accept loop exits cleanly");
}

// ---------------------------------------------------------------------------
// Equivalence and exactly-once.
// ---------------------------------------------------------------------------

#[test]
fn one_client_matches_in_process_execution_exactly() {
    let _pin = pin_faults(None);
    let benches = sample_benchmarks(3);
    let jobs = jobs_of(&benches);

    let local =
        ExperimentSession::with_options(SimPlatform::power7_fast(), SessionOptions::default());
    let expected = local.measure_batch(&jobs);

    let (addr, runs, handle) = spawn_counting_daemon();
    let remote =
        RemoteSession::connect(SimPlatform::power7_fast(), &*addr).expect("daemon reachable");
    let got = remote.measure_batch(&jobs);
    assert_eq!(got, expected, "remote execution must be indistinguishable from local");

    // The client's own stats are in-process-identical too: same submissions, same
    // dedup, same miss count.
    assert_eq!(remote.stats(), local.stats());

    // Replay: every job is now a client-side memo hit; the daemon sees nothing new.
    let runs_before = runs.load(Ordering::SeqCst);
    assert_eq!(remote.measure_batch(&jobs), expected);
    assert_eq!(runs.load(Ordering::SeqCst), runs_before, "replay must not re-simulate");

    shutdown(&addr, handle);
    assert_eq!(runs_before, jobs.len(), "every unique job simulated exactly once");
}

#[test]
fn n_concurrent_clients_get_identical_results_and_each_job_simulates_once() {
    let _pin = pin_faults(None);
    let benches = sample_benchmarks(4);
    let jobs = jobs_of(&benches);

    let local =
        ExperimentSession::with_options(SimPlatform::power7_fast(), SessionOptions::default());
    let expected = local.measure_batch(&jobs);
    let unique_jobs = jobs.len();

    let (addr, runs, handle) = spawn_counting_daemon();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let jobs = &jobs;
                scope.spawn(move || {
                    let remote = RemoteSession::connect(SimPlatform::power7_fast(), &*addr)
                        .expect("daemon reachable");
                    remote.measure_batch(jobs)
                })
            })
            .collect();
        for handle in handles {
            let got = handle.join().expect("client thread completes");
            assert_eq!(got, expected, "every concurrent client sees identical results");
        }
    });

    // Four clients × all jobs, but the shared session memoizes: exactly one real
    // simulation per unique job, ever.
    assert_eq!(runs.load(Ordering::SeqCst), unique_jobs);

    let digest = mp_uarch::power7().spec_digest;
    let runner = RemoteRunner::connect(&*addr, digest).expect("daemon reachable");
    let stats = runner.daemon_stats().expect("stats round trip");
    assert_eq!(stats.misses as usize, unique_jobs);
    assert_eq!(stats.jobs as usize, 4 * unique_jobs);
    assert!(stats.connections >= 5, "four clients plus this probe");

    shutdown(&addr, handle);
}

#[test]
fn a_wrong_digest_is_refused_at_connect_time() {
    let _pin = pin_faults(None);
    let (addr, _runs, handle) = spawn_counting_daemon();
    let error = match RemoteRunner::connect(&*addr, 0xDEAD_BEEF) {
        Ok(_) => panic!("a mismatched spec digest must not connect"),
        Err(error) => error,
    };
    assert!(error.contains("digest"), "{error}");
    shutdown(&addr, handle);
}

// ---------------------------------------------------------------------------
// Protocol robustness: garbage in, daemon stays up.
// ---------------------------------------------------------------------------

#[test]
fn protocol_garbage_never_kills_the_daemon() {
    let _pin = pin_faults(None);
    let (addr, _runs, handle) = spawn_counting_daemon();

    // 1. Pure garbage: not even a magic.  At least one full header's worth, plus a
    // write-side close, so the daemon can never be left waiting for more header
    // bytes while we wait for its reply.
    let mut stream = TcpStream::connect(&*addr).expect("connect");
    stream.write_all(b"GET / HTTP/1.1\r\nHost: not-a-daemon\r\n\r\n").expect("write garbage");
    // Best effort: the daemon may have already dropped the connection, in which
    // case shutdown reports ENOTCONN — fine, read_to_end returns immediately.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply); // ErrorReply (best effort) then close.
    drop(stream);

    // 2. A truncated frame: valid header claiming more payload than ever arrives.
    let mut stream = TcpStream::connect(&*addr).expect("connect");
    let mut header = Vec::new();
    header.extend_from_slice(protocol::MAGIC);
    header.push(1); // SubmitBatch
    header.push(0);
    header.extend_from_slice(&1024u64.to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes());
    stream.write_all(&header).expect("write truncated frame");
    drop(stream); // EOF mid-payload.

    // 3. A well-framed but corrupt payload (checksum intact, content nonsense).
    let mut stream = TcpStream::connect(&*addr).expect("connect");
    protocol::write_frame(&mut stream, MessageType::SubmitBatch, b"not a batch")
        .expect("write frame");
    let (message, payload) = protocol::read_frame(&mut stream).expect("daemon replies");
    assert_eq!(message, MessageType::ErrorReply);
    let why = protocol::decode_error(&payload).expect("decodable error");
    assert!(why.contains("bad batch"), "{why}");

    // 4. A frame with a wrong checksum.
    let mut stream = TcpStream::connect(&*addr).expect("connect");
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, MessageType::StatsRequest, b"x").expect("build frame");
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    stream.write_all(&frame).expect("write corrupt frame");
    let reply = protocol::read_frame(&mut stream);
    assert!(
        matches!(reply, Ok((MessageType::ErrorReply, _)) | Err(_)),
        "a corrupt frame gets an error reply or a close, never a result"
    );

    // After all of that, the daemon still serves real work.
    let benches = sample_benchmarks(1);
    let jobs = jobs_of(&benches);
    let remote =
        RemoteSession::connect(SimPlatform::power7_fast(), &*addr).expect("daemon still up");
    let local =
        ExperimentSession::with_options(SimPlatform::power7_fast(), SessionOptions::default());
    assert_eq!(remote.measure_batch(&jobs), local.measure_batch(&jobs));

    shutdown(&addr, handle);
}

#[test]
fn injected_faults_surface_as_per_job_errors_and_spare_the_daemon() {
    // Deterministically panic every measurement job inside the daemon: the client
    // must see one clean error per job, and the daemon must keep serving.
    let _pin = pin_faults(Some(FaultPlan::parse("seed=7,panic=1").expect("a valid fault spec")));
    let benches = sample_benchmarks(2);
    let jobs = jobs_of(&benches);

    let (addr, _runs, handle) = spawn_counting_daemon();
    let remote =
        RemoteSession::connect(SimPlatform::power7_fast(), &*addr).expect("daemon reachable");
    let results = remote.measure_batch_resilient(&jobs);
    assert_eq!(results.len(), jobs.len());
    for result in &results {
        let error = result.as_ref().expect_err("every job's injected panic surfaces");
        assert!(error.message.contains("injected"), "{}", error.message);
    }

    // Clear the plan: the same jobs now succeed against the same daemon — failed
    // jobs were never cached, so they retry for real.
    faults::set_plan(None);
    let local =
        ExperimentSession::with_options(SimPlatform::power7_fast(), SessionOptions::default());
    assert_eq!(remote.measure_batch(&jobs), local.measure_batch(&jobs));

    shutdown(&addr, handle);
}
