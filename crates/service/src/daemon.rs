//! The measurement daemon: one shared [`ExperimentSession`] served over `std::net`.
//!
//! The daemon is deliberately std-only — a [`TcpListener`] accept loop, one plain
//! thread per connection, and channels.  Connections do not execute jobs themselves:
//! every `SubmitBatch` is queued with the [`Batcher`] and a *single* dispatcher thread
//! drains the queue, waits a small batching window so concurrent clients' jobs merge,
//! and funnels the union through one
//! [`measure_batch_resilient`](ExperimentSession::measure_batch_resilient) call.  One
//! dispatcher means batches are serialised against the session's memo cache, so a job
//! submitted by N clients at once is still simulated exactly once — the session's
//! in-batch dedup covers jobs that merged into the same window, and the memo cache
//! covers everything after.
//!
//! Protocol errors are per-connection, never fatal to the daemon: a corrupt frame
//! gets an `ErrorReply` (best effort) and the connection is dropped; a frame that
//! parses but decodes to an invalid batch gets an `ErrorReply` and the connection
//! keeps serving.

use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use microprobe::platform::Platform;
use mp_runtime::{poison, ExperimentSession};

use crate::protocol::{
    self, DaemonStats, FrameError, MessageType, WireJob, WireResult, MAX_JOBS_PER_FRAME,
};

/// How long the dispatcher waits after the first pending batch for other connections'
/// jobs to merge into the same session call: far below a single simulation, but long
/// enough that a burst of concurrent clients coalesces.
const BATCH_WINDOW: Duration = Duration::from_micros(1000);

/// One queued submission: the decoded jobs plus the channel the dispatcher answers on.
struct Pending {
    jobs: Vec<WireJob>,
    reply: mpsc::Sender<Vec<WireResult>>,
}

/// The cross-connection batch queue: connections push, the dispatcher drains.
#[derive(Default)]
struct Batcher {
    queue: Mutex<Vec<Pending>>,
    wake: Condvar,
}

struct Inner<P: Platform> {
    session: ExperimentSession<P>,
    digest: u128,
    batcher: Batcher,
    shutdown: AtomicBool,
    connections: AtomicU64,
    batches: AtomicU64,
    jobs: AtomicU64,
}

impl<P: Platform> Inner<P> {
    fn stats(&self) -> DaemonStats {
        let session = self.session.stats();
        DaemonStats {
            digest: self.digest,
            submitted: session.submitted as u64,
            hits: session.hits as u64,
            misses: session.misses as u64,
            connections: self.connections.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            jobs: self.jobs.load(Ordering::SeqCst),
        }
    }
}

/// A measurement daemon bound to a TCP address, serving one shared session.
pub struct MeasurementDaemon<P: Platform> {
    listener: TcpListener,
    local_addr: SocketAddr,
    inner: Arc<Inner<P>>,
}

impl<P: Platform + Send + Sync + 'static> MeasurementDaemon<P> {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns the bind error, e.g. when the address is taken.
    pub fn bind(session: ExperimentSession<P>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let digest = session.platform().uarch().spec_digest;
        Ok(Self {
            listener,
            local_addr,
            inner: Arc::new(Inner {
                session,
                digest,
                batcher: Batcher::default(),
                shutdown: AtomicBool::new(false),
                connections: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
            }),
        })
    }

    /// The address the daemon actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the accept loop until a client sends `Shutdown`.  In-flight batches settle
    /// before this returns (the dispatcher drains its queue on exit).
    pub fn run(self) {
        let dispatcher = {
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name("mpsvc-dispatch".to_owned())
                .spawn(move || dispatch_loop(&inner))
                .expect("spawn dispatcher thread")
        };
        for stream in self.listener.incoming() {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_id = self.inner.connections.fetch_add(1, Ordering::SeqCst);
            mp_telemetry::counter("service.connections", 1);
            let inner = Arc::clone(&self.inner);
            let _ = std::thread::Builder::new()
                .name(format!("mpsvc-conn-{conn_id}"))
                .spawn(move || serve_connection(&inner, stream, conn_id));
        }
        // Wake the dispatcher so it notices the shutdown flag and drains out.
        self.inner.batcher.wake.notify_all();
        let _ = dispatcher.join();
    }

    /// Runs the daemon on a background thread; returns the join handle.  Shut it down
    /// by sending a `Shutdown` frame (e.g. `RemoteSession::shutdown_daemon`).
    pub fn spawn(self) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name("mpsvc-accept".to_owned())
            .spawn(move || self.run())
            .expect("spawn daemon accept thread")
    }
}

/// The single dispatcher: drains the cross-connection queue into one session call per
/// batching window.
fn dispatch_loop<P: Platform>(inner: &Inner<P>) {
    loop {
        let drained: Vec<Pending> = {
            let mut queue = poison::lock(&inner.batcher.queue);
            while queue.is_empty() {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = poison::wait(&inner.batcher.wake, queue);
            }
            // First submission seen: hold the door open one batching window so
            // concurrent clients' jobs coalesce into the same session call.
            queue = poison::wait_timeout(&inner.batcher.wake, queue, BATCH_WINDOW);
            queue.drain(..).collect()
        };
        if drained.is_empty() {
            continue;
        }

        let _span = mp_telemetry::span("service.batch");
        let all_jobs: Vec<&WireJob> = drained.iter().flat_map(|p| p.jobs.iter()).collect();
        let batch: Vec<_> = all_jobs.iter().map(|j| (&j.benchmark, j.config)).collect();
        inner.batches.fetch_add(1, Ordering::SeqCst);
        mp_telemetry::counter("service.batches", 1);
        mp_telemetry::histogram("service.batch_jobs", all_jobs.len() as u64);
        mp_telemetry::histogram("service.batch_conns", drained.len() as u64);

        let results = inner.session.measure_batch_resilient(&batch);
        debug_assert_eq!(results.len(), batch.len(), "session returns one result per job");

        // Slice the flat result vector back per submission, echoing client keys.
        let mut cursor = results.into_iter();
        for pending in drained {
            let mut wire_results = Vec::with_capacity(pending.jobs.len());
            for job in &pending.jobs {
                let outcome = match cursor.next() {
                    Some(Ok(measurement)) => Ok(measurement),
                    Some(Err(error)) => {
                        mp_telemetry::counter("service.job_errors", 1);
                        Err(error.message)
                    }
                    None => Err("daemon dispatcher lost this job".to_owned()),
                };
                wire_results.push(WireResult { key: job.key, outcome });
            }
            // A receiver that hung up (client died mid-batch) is not an error.
            let _ = pending.reply.send(wire_results);
        }
    }
}

/// Serves one client connection until EOF, a corrupt frame, or shutdown.
fn serve_connection<P: Platform>(inner: &Inner<P>, stream: TcpStream, conn_id: u64) {
    let mut reader = match stream.try_clone() {
        Ok(reader) => reader,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);

    loop {
        let (message, payload) = match protocol::read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(_)) => {
                mp_telemetry::counter("service.protocol_errors", 1);
                return;
            }
            Err(FrameError::Corrupt(reason)) => {
                // The stream cannot be resynchronised after a framing violation;
                // explain, then drop the connection.  The daemon itself lives on.
                mp_telemetry::counter("service.protocol_errors", 1);
                let _ = protocol::write_frame(
                    &mut writer,
                    MessageType::ErrorReply,
                    &protocol::encode_error(&format!("corrupt frame: {reason}")),
                );
                return;
            }
        };
        mp_telemetry::counter("service.frames_in", 1);
        mp_telemetry::counter("service.bytes_in", (protocol::HEADER_LEN + payload.len()) as u64);

        let reply = match message {
            MessageType::SubmitBatch => {
                match protocol::decode_submit_batch(&payload, &inner.session.platform().uarch().isa)
                {
                    Ok((digest, _)) if digest != inner.digest => {
                        mp_telemetry::counter("service.protocol_errors", 1);
                        (
                            MessageType::ErrorReply,
                            protocol::encode_error(&format!(
                            "machine-spec digest mismatch: client {digest:032x}, daemon {:032x} — \
                             client and daemon must be built against identical specs",
                            inner.digest
                        )),
                        )
                    }
                    Ok((_, jobs)) => {
                        mp_telemetry::counter("service.jobs", jobs.len() as u64);
                        mp_telemetry::counter_indexed(
                            "service.conn_jobs",
                            (conn_id % 32) as u32,
                            jobs.len() as u64,
                        );
                        inner.jobs.fetch_add(jobs.len() as u64, Ordering::SeqCst);
                        let (reply_tx, reply_rx) = mpsc::channel();
                        {
                            let mut queue = poison::lock(&inner.batcher.queue);
                            queue.push(Pending { jobs, reply: reply_tx });
                        }
                        inner.batcher.wake.notify_all();
                        match reply_rx.recv() {
                            Ok(results) => {
                                (MessageType::Results, protocol::encode_results(&results))
                            }
                            Err(_) => (
                                MessageType::ErrorReply,
                                protocol::encode_error("daemon dispatcher exited mid-batch"),
                            ),
                        }
                    }
                    Err(reason) => {
                        // The frame itself was sound, only the batch inside was not:
                        // reply and keep serving this connection.
                        mp_telemetry::counter("service.protocol_errors", 1);
                        (
                            MessageType::ErrorReply,
                            protocol::encode_error(&format!("bad batch: {reason}")),
                        )
                    }
                }
            }
            MessageType::StatsRequest => {
                (MessageType::StatsReply, protocol::encode_stats(&inner.stats()))
            }
            MessageType::Shutdown => {
                inner.shutdown.store(true, Ordering::SeqCst);
                inner.batcher.wake.notify_all();
                let _ = protocol::write_frame(&mut writer, MessageType::ShutdownAck, &[]);
                mp_telemetry::counter("service.frames_out", 1);
                // The accept loop blocks in `incoming()`; a loopback dial unblocks it
                // so it can observe the flag and exit.
                if let Ok(local) = reader.local_addr() {
                    let _ = TcpStream::connect(local);
                }
                return;
            }
            other => {
                mp_telemetry::counter("service.protocol_errors", 1);
                (
                    MessageType::ErrorReply,
                    protocol::encode_error(&format!("unexpected client message {other:?}")),
                )
            }
        };

        mp_telemetry::counter("service.frames_out", 1);
        mp_telemetry::counter("service.bytes_out", (protocol::HEADER_LEN + reply.1.len()) as u64);
        if protocol::write_frame(&mut writer, reply.0, &reply.1).is_err() {
            return;
        }
    }
}

/// Upper bound on jobs the daemon accepts in one frame — re-exported so binaries can
/// sanity-check their chunking against the daemon's limit.
pub const MAX_BATCH_JOBS: usize = MAX_JOBS_PER_FRAME;
