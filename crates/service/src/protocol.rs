//! The `MPSVC1` wire protocol: length-prefixed, checksummed, little-endian frames.
//!
//! The framing follows the record conventions of [`mp_runtime::store`]: a fixed magic
//! that doubles as the format version (bump the trailing digit on any layout change —
//! old peers then fail the magic check instead of misparsing), an explicit payload
//! length, and an FNV-1a checksum over the payload so truncated or bit-rotted frames
//! are *detected*, never interpreted.  Payload bytes come from [`mp_runtime::codec`]:
//! measurements cross the wire in the store's own payload encoding and kernels in the
//! encoding the job keys hash — one codec end to end, whether a measurement is
//! persisted or served remotely.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic   6 bytes  b"MPSVC1"
//! type    1 byte   message type (below)
//! flags   1 byte   reserved, must be zero
//! len     8 bytes  payload length
//! check   8 bytes  FNV-1a over the payload bytes
//! payload len bytes
//! ```
//!
//! Messages: `SubmitBatch` (client → daemon: spec digest + a batch of jobs),
//! `Results` (daemon → client: one keyed ok/err entry per job, in request order),
//! `StatsRequest`/`StatsReply` (daemon identity + cumulative counters — also the
//! connect-time digest handshake), `Shutdown`/`ShutdownAck`, and `ErrorReply` for any
//! frame the daemon refuses (protocol errors never kill the daemon).
//!
//! A job is `key, cores, smt, name`, then the codec's kernel content.  Kernel
//! instructions are encoded by raw opcode index.  That is only meaningful between peers
//! whose machine specs are byte-identical, which is exactly what the digest handshake
//! enforces: [`spec_digest`](mp_uarch::MicroArchitecture) covers the ISA text, and
//! identical ISA text implies identical opcode numbering.  The decoder still
//! re-validates everything, so a corrupt or hostile frame yields a clean
//! per-connection error.

use std::io::{Read, Write};

use microprobe::ir::MicroBenchmark;
use mp_isa::fnv::fnv1a64;
use mp_isa::Isa;
use mp_runtime::codec::{
    decode_kernel, decode_measurement, encode_kernel, encode_measurement, put_bytes, put_u128,
    put_u32, put_u64, put_u8, Cursor,
};
use mp_sim::Measurement;
use mp_uarch::{CmpSmtConfig, SmtMode};

/// Frame magic: file-format identity and version in one.
pub const MAGIC: &[u8; 6] = b"MPSVC1";

/// Frame header length: magic(6) + type(1) + flags(1) + len(8) + checksum(8).
pub const HEADER_LEN: usize = 24;

/// Hard cap on a frame payload.  No legitimate batch approaches this; it bounds the
/// allocation a corrupt length field could request.
pub const MAX_FRAME_LEN: u64 = 1 << 28;

/// Hard cap on jobs per `SubmitBatch` frame; clients chunk larger submissions.
pub const MAX_JOBS_PER_FRAME: usize = 1024;

/// Caps on decoded lengths inside a batch: bound what corruption can ask for.
const MAX_NAME_LEN: usize = 1 << 12;
const MAX_CORES: u32 = 1 << 12;

/// Message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageType {
    /// Client → daemon: a batch of measurement jobs.
    SubmitBatch = 1,
    /// Daemon → client: one result per submitted job, in request order.
    Results = 2,
    /// Client → daemon: identity/stats request (also the connect handshake).
    StatsRequest = 3,
    /// Daemon → client: spec digest plus cumulative counters.
    StatsReply = 4,
    /// Client → daemon: stop accepting and exit once in-flight batches settle.
    Shutdown = 5,
    /// Daemon → client: shutdown acknowledged.
    ShutdownAck = 6,
    /// Daemon → client: the previous frame was refused (message says why).
    ErrorReply = 7,
}

impl MessageType {
    fn from_u8(value: u8) -> Option<Self> {
        match value {
            1 => Some(Self::SubmitBatch),
            2 => Some(Self::Results),
            3 => Some(Self::StatsRequest),
            4 => Some(Self::StatsReply),
            5 => Some(Self::Shutdown),
            6 => Some(Self::ShutdownAck),
            7 => Some(Self::ErrorReply),
            _ => None,
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Transport failure (includes mid-frame EOF).
    Io(std::io::Error),
    /// The bytes are not a valid frame (bad magic, bad checksum, oversized, unknown
    /// type).  The connection cannot be resynchronised after this.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::Io(error) => write!(f, "frame io error: {error}"),
            Self::Corrupt(message) => write!(f, "corrupt frame: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame(
    writer: &mut impl Write,
    message: MessageType,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[..6].copy_from_slice(MAGIC);
    header[6] = message as u8;
    header[7] = 0;
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one frame.  A clean EOF *before the first header byte* is
/// [`FrameError::Closed`]; EOF mid-frame is an [`FrameError::Io`] (truncation); any
/// structural violation is [`FrameError::Corrupt`].
pub fn read_frame(reader: &mut impl Read) -> Result<(MessageType, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                )))
            }
            Ok(n) => filled += n,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {}
            Err(error) => return Err(FrameError::Io(error)),
        }
    }
    if &header[..6] != MAGIC {
        return Err(FrameError::Corrupt("bad magic".to_owned()));
    }
    let message = MessageType::from_u8(header[6])
        .ok_or_else(|| FrameError::Corrupt(format!("unknown message type {}", header[6])))?;
    if header[7] != 0 {
        return Err(FrameError::Corrupt(format!("nonzero flags byte {}", header[7])));
    }
    let len = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Corrupt(format!("payload length {len} exceeds {MAX_FRAME_LEN}")));
    }
    let checksum = u64::from_le_bytes(header[16..24].try_into().expect("8-byte slice"));
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).map_err(FrameError::Io)?;
    if fnv1a64(&payload) != checksum {
        return Err(FrameError::Corrupt("payload checksum mismatch".to_owned()));
    }
    Ok((message, payload))
}

// ---------------------------------------------------------------------------
// Job and batch encoding.
// ---------------------------------------------------------------------------

/// One decoded measurement job.
#[derive(Debug, Clone, PartialEq)]
pub struct WireJob {
    /// The client-side content key; echoed back on the result entry.
    pub key: u128,
    /// The benchmark to run.
    pub benchmark: MicroBenchmark,
    /// The CMP-SMT configuration to run it on.
    pub config: CmpSmtConfig,
}

fn encode_job(out: &mut Vec<u8>, key: u128, benchmark: &MicroBenchmark, config: CmpSmtConfig) {
    let kernel = benchmark.kernel();
    put_u128(out, key);
    put_u32(out, config.cores);
    put_u32(out, config.smt.threads_per_core());
    put_bytes(out, kernel.name().as_bytes());
    encode_kernel(out, kernel);
}

fn decode_job(cur: &mut Cursor<'_>, isa: &Isa) -> Result<WireJob, String> {
    let key = cur.u128()?;
    let cores = cur.u32()?;
    if cores == 0 || cores > MAX_CORES {
        return Err(format!("core count {cores} out of range"));
    }
    let smt = SmtMode::from_threads(cur.u32()?).ok_or("invalid SMT thread count")?;
    let config = CmpSmtConfig::new(cores, smt);
    let name = String::from_utf8(cur.bytes(MAX_NAME_LEN)?.to_vec())
        .map_err(|_| "kernel name is not UTF-8".to_owned())?;
    let kernel = decode_kernel(cur, isa, name)?;
    Ok(WireJob { key, benchmark: MicroBenchmark::from_kernel(kernel), config })
}

/// Encodes a `SubmitBatch` payload: the client's spec digest, then each job.
pub fn encode_submit_batch(
    digest: u128,
    jobs: &[(&MicroBenchmark, CmpSmtConfig)],
    keys: &[u128],
) -> Vec<u8> {
    assert_eq!(jobs.len(), keys.len(), "one key per job");
    assert!(jobs.len() <= MAX_JOBS_PER_FRAME, "chunk submissions to MAX_JOBS_PER_FRAME");
    let mut out = Vec::with_capacity(64 + jobs.len() * 256);
    put_u128(&mut out, digest);
    put_u64(&mut out, jobs.len() as u64);
    for ((benchmark, config), &key) in jobs.iter().zip(keys) {
        encode_job(&mut out, key, benchmark, *config);
    }
    out
}

/// Decodes a `SubmitBatch` payload against the daemon's ISA.
///
/// # Errors
///
/// Returns a description of the first structural or semantic violation; the caller
/// turns it into an `ErrorReply`.
pub fn decode_submit_batch(payload: &[u8], isa: &Isa) -> Result<(u128, Vec<WireJob>), String> {
    let mut cur = Cursor::new(payload);
    let digest = cur.u128()?;
    let count = cur.u64()?;
    if count as usize > MAX_JOBS_PER_FRAME {
        return Err(format!("batch of {count} jobs exceeds {MAX_JOBS_PER_FRAME} per frame"));
    }
    let mut jobs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        jobs.push(decode_job(&mut cur, isa)?);
    }
    cur.finish()?;
    Ok((digest, jobs))
}

/// One entry of a `Results` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// The job's key, echoed from the submission.
    pub key: u128,
    /// The measurement, or the error that killed this job alone.
    pub outcome: Result<Measurement, String>,
}

/// Encodes a `Results` payload: one keyed ok/err entry per job, in request order.
/// Measurements use the store's payload codec.
pub fn encode_results(results: &[WireResult]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + results.len() * 256);
    put_u64(&mut out, results.len() as u64);
    for result in results {
        put_u128(&mut out, result.key);
        match &result.outcome {
            Ok(measurement) => {
                put_u8(&mut out, 0);
                put_bytes(&mut out, &encode_measurement(measurement));
            }
            Err(message) => {
                put_u8(&mut out, 1);
                put_bytes(&mut out, message.as_bytes());
            }
        }
    }
    out
}

/// Decodes a `Results` payload.
pub fn decode_results(payload: &[u8]) -> Result<Vec<WireResult>, String> {
    let mut cur = Cursor::new(payload);
    let count = cur.u64()?;
    if count > MAX_JOBS_PER_FRAME as u64 {
        return Err(format!("{count} results exceed {MAX_JOBS_PER_FRAME} per frame"));
    }
    let mut results = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let key = cur.u128()?;
        let outcome = match cur.u8()? {
            0 => {
                let bytes = cur.bytes(MAX_FRAME_LEN as usize)?;
                Ok(decode_measurement(bytes).ok_or("undecodable measurement payload")?)
            }
            1 => Err(String::from_utf8_lossy(cur.bytes(MAX_NAME_LEN)?).into_owned()),
            tag => return Err(format!("bad result status {tag}")),
        };
        results.push(WireResult { key, outcome });
    }
    cur.finish()?;
    Ok(results)
}

/// A `StatsReply` payload: the daemon's identity and cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    /// The daemon platform's machine-spec digest (the client compatibility check).
    pub digest: u128,
    /// Session jobs submitted (all connections).
    pub submitted: u64,
    /// Session memo/dedup hits.
    pub hits: u64,
    /// Session unique runs (platform runs + store loads).
    pub misses: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Cross-connection batches dispatched to the session.
    pub batches: u64,
    /// Jobs received over all `SubmitBatch` frames.
    pub jobs: u64,
}

/// Encodes a `StatsReply` payload.
pub fn encode_stats(stats: &DaemonStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u128(&mut out, stats.digest);
    for value in
        [stats.submitted, stats.hits, stats.misses, stats.connections, stats.batches, stats.jobs]
    {
        put_u64(&mut out, value);
    }
    out
}

/// Decodes a `StatsReply` payload.
pub fn decode_stats(payload: &[u8]) -> Result<DaemonStats, String> {
    let mut cur = Cursor::new(payload);
    let stats = DaemonStats {
        digest: cur.u128()?,
        submitted: cur.u64()?,
        hits: cur.u64()?,
        misses: cur.u64()?,
        connections: cur.u64()?,
        batches: cur.u64()?,
        jobs: cur.u64()?,
    };
    cur.finish()?;
    Ok(stats)
}

/// Encodes an `ErrorReply` payload.
pub fn encode_error(message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + message.len());
    put_bytes(&mut out, message.as_bytes());
    out
}

/// Decodes an `ErrorReply` payload.
pub fn decode_error(payload: &[u8]) -> Result<String, String> {
    let mut cur = Cursor::new(payload);
    let message = String::from_utf8_lossy(cur.bytes(MAX_NAME_LEN)?).into_owned();
    cur.finish()?;
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microprobe::prelude::*;

    fn sample_benchmark(seed: u64) -> MicroBenchmark {
        let arch = mp_uarch::power7();
        let computes = arch.isa.compute_instructions();
        let mut synth = Synthesizer::new(arch).with_name_prefix("wire").with_seed(seed);
        synth.add_pass(SkeletonPass::endless_loop(16));
        synth.add_pass(InstructionMixPass::uniform(computes));
        synth.synthesize().expect("benchmark synthesizes")
    }

    #[test]
    fn frames_round_trip() {
        let payload = b"arbitrary bytes".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, MessageType::SubmitBatch, &payload).expect("write");
        let (message, decoded) =
            read_frame(&mut wire.as_slice()).expect("well-formed frame reads back");
        assert_eq!(message, MessageType::SubmitBatch);
        assert_eq!(decoded, payload);
    }

    #[test]
    fn empty_payload_frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, MessageType::Shutdown, &[]).expect("write");
        let (message, decoded) = read_frame(&mut wire.as_slice()).expect("reads back");
        assert_eq!(message, MessageType::Shutdown);
        assert!(decoded.is_empty());
    }

    #[test]
    fn clean_eof_is_closed_and_mid_frame_eof_is_io() {
        assert!(matches!(read_frame(&mut [].as_slice()), Err(FrameError::Closed)));
        let mut wire = Vec::new();
        write_frame(&mut wire, MessageType::StatsRequest, b"x").expect("write");
        for cut in 1..wire.len() {
            match read_frame(&mut &wire[..cut]) {
                Err(FrameError::Io(_)) => {}
                other => panic!("truncation at {cut} must be an Io error, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misread() {
        let mut wire = Vec::new();
        write_frame(&mut wire, MessageType::SubmitBatch, b"payload").expect("write");

        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(read_frame(&mut bad_magic.as_slice()), Err(FrameError::Corrupt(_))));

        let mut bad_type = wire.clone();
        bad_type[6] = 200;
        assert!(matches!(read_frame(&mut bad_type.as_slice()), Err(FrameError::Corrupt(_))));

        let mut bad_flags = wire.clone();
        bad_flags[7] = 1;
        assert!(matches!(read_frame(&mut bad_flags.as_slice()), Err(FrameError::Corrupt(_))));

        let mut bad_payload = wire.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0x01;
        assert!(matches!(read_frame(&mut bad_payload.as_slice()), Err(FrameError::Corrupt(_))));

        let mut oversized = wire;
        oversized[8..16].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut oversized.as_slice()), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn submit_batch_round_trips_exactly() {
        let arch = mp_uarch::power7();
        let digest = arch.spec_digest;
        let benchmarks = [sample_benchmark(1), sample_benchmark(2)];
        let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(4, SmtMode::Smt2)];
        let jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> = benchmarks.iter().zip(configs).collect();
        let keys = [11u128, 22u128];

        let payload = encode_submit_batch(digest, &jobs, &keys);
        let (decoded_digest, decoded) =
            decode_submit_batch(&payload, &arch.isa).expect("round trip");
        assert_eq!(decoded_digest, digest);
        assert_eq!(decoded.len(), 2);
        for ((wire, (benchmark, config)), &key) in decoded.iter().zip(&jobs).zip(&keys) {
            assert_eq!(wire.key, key);
            assert_eq!(wire.config, *config);
            assert_eq!(wire.benchmark.kernel(), benchmark.kernel(), "kernel survives the wire");
        }
    }

    #[test]
    fn corrupt_batches_are_clean_errors() {
        let arch = mp_uarch::power7();
        let bench = sample_benchmark(3);
        let jobs = [(&bench, CmpSmtConfig::new(1, SmtMode::Smt1))];
        let good = encode_submit_batch(arch.spec_digest, &jobs, &[1]);

        // Truncations at every prefix length: never a panic, always Err.
        for cut in 0..good.len() {
            assert!(decode_submit_batch(&good[..cut], &arch.isa).is_err(), "cut at {cut}");
        }
        // Every single-byte corruption either decodes to *something* structurally
        // valid or errors — never panics.  (Flipping a payload byte can land on
        // another valid encoding; the frame checksum is what rejects bit rot in
        // transit.  This loop is about decoder robustness, not detection.)
        for index in 0..good.len() {
            let mut bent = good.clone();
            bent[index] ^= 0xFF;
            let _ = decode_submit_batch(&bent, &arch.isa);
        }
        // An opcode index beyond the ISA is a clean error.
        let mut bad = good.clone();
        // digest(16) + count(8) + key(16) + cores(4) + smt(4) = 48; name len(4) +
        // name + profile(1) + mispredict(8) + kernel len(4), then the first opcode.
        let name_len = u32::from_le_bytes(bad[48..52].try_into().unwrap()) as usize;
        let opcode_at = 52 + name_len + 1 + 8 + 4;
        bad[opcode_at..opcode_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let error = decode_submit_batch(&bad, &arch.isa).expect_err("out-of-range opcode");
        assert!(error.contains("opcode index"), "{error}");
    }

    #[test]
    fn results_round_trip_including_errors() {
        let platform = microprobe::platform::SimPlatform::power7_fast();
        let bench = sample_benchmark(4);
        let measurement = microprobe::platform::Platform::run(
            &platform,
            &bench,
            CmpSmtConfig::new(1, SmtMode::Smt1),
        );
        let results = [
            WireResult { key: 5, outcome: Ok(measurement.clone()) },
            WireResult { key: 6, outcome: Err("injected fault".to_owned()) },
        ];
        let payload = encode_results(&results);
        let decoded = decode_results(&payload).expect("round trip");
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].key, 5);
        assert_eq!(decoded[0].outcome.as_ref().expect("ok entry"), &measurement);
        assert_eq!(decoded[1].outcome.as_ref().expect_err("err entry"), "injected fault");
        for cut in 0..payload.len() {
            assert!(decode_results(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stats_and_error_payloads_round_trip() {
        let stats = DaemonStats {
            digest: 0xABCD,
            submitted: 10,
            hits: 4,
            misses: 6,
            connections: 3,
            batches: 2,
            jobs: 10,
        };
        assert_eq!(decode_stats(&encode_stats(&stats)), Ok(stats));
        assert_eq!(decode_error(&encode_error("nope")), Ok("nope".to_owned()));
        assert!(decode_stats(&encode_error("short")).is_err());
    }
}
