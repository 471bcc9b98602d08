//! `service-mixed`: clients of an in-process measurement daemon, replaying the traffic
//! of the repository's own service clients.
//!
//! The daemon runs on loopback with a store attached.  Its real clients are the
//! experiment binaries in client mode (`MP_SERVICE_ADDR`), and
//! `scripts/service_determinism.sh` drives them as one client against a fresh daemon,
//! then several concurrent clients against the warm one.  Recorded at the `MPSVC1`
//! frame level, one `reproduce_all quick` client sends its plan as [`PLAN`]: nine
//! `SubmitBatch` round trips of 687 distinct jobs.  Against a fresh daemon every job
//! is new; against the warm daemon every job is a memo hit, and concurrent clients
//! submit the same jobs at about the same time.
//!
//! One round here is that sequence on a plan of new seeded jobs: client 0 submits the
//! plan alone (every job simulated once and written to the store), then every client
//! submits the same plan at once (every job a memo hit, the clients' requests sharing
//! batching windows).  Rounds repeat with a new plan each, so a run never runs out of
//! new jobs.  This is the workload that exercises the `MPSVC1` codec, the batching
//! window and single dispatcher, cross-connection dedup, and store writes.

use std::collections::HashSet;
use std::thread::JoinHandle;
use std::time::Instant;

use microprobe::ir::MicroBenchmark;
use microprobe::platform::{Platform, SimPlatform};
use mp_runtime::{BatchRunner, ExperimentSession, SessionOptions, Store};
use mp_service::protocol::{decode_results, encode_results, encode_submit_batch};
use mp_service::{DaemonStats, MeasurementDaemon, RemoteRunner, WireResult};
use mp_sim::{ChipSim, Measurement};
use mp_uarch::CmpSmtConfig;

use crate::characterize::{load_spec, mix, store_probe, training_kernels, Size};
use crate::digest::{self, Digest};
use crate::trace::{self, Probe};
use crate::{peak_rss_mb, quantile, secs, set_up, Config, Outcome, Phase, Stopwatch};

/// Jobs per request of one client's plan, in order: the `SubmitBatch` sizes a
/// `reproduce_all quick` client sends to a fresh daemon.
const PLAN: [usize; 9] = [180, 90, 252, 54, 43, 3, 5, 30, 30];

type Job = (MicroBenchmark, CmpSmtConfig);

/// One round's plan: its requests, each with the jobs' keys.
struct Plan {
    requests: Vec<(Vec<Job>, Vec<u128>)>,
}

impl Plan {
    fn jobs(&self) -> usize {
        self.requests.iter().map(|(jobs, _)| jobs.len()).sum()
    }
}

/// Makes plans of jobs no earlier plan had: seeded training suites on every
/// configuration, shuffled, with already used keys skipped.
struct Planner {
    size: Size,
    arch: mp_uarch::MicroArchitecture,
    configs: Vec<CmpSmtConfig>,
    keys: ExperimentSession<SimPlatform>,
    seed: u64,
    suites: u64,
    state: u64,
    used: HashSet<u128>,
    /// Microseconds per job key, while tracing.
    key_us: Vec<f64>,
}

impl Planner {
    fn plan(&mut self, tiny: bool) -> Plan {
        let sizes: Vec<usize> =
            PLAN.iter().map(|&n| if tiny { n.div_ceil(20) } else { n }).collect();
        let wanted: usize = sizes.iter().sum();
        let mut jobs: Vec<(Job, u128)> = Vec::new();
        while jobs.len() < wanted {
            self.suites += 1;
            let seed = self.seed.wrapping_add(self.suites * 0x1_0000);
            let suite = training_kernels(
                &self.arch,
                self.size.training_scale,
                self.size.loop_instructions,
                seed,
            );
            let mut fresh: Vec<Job> = suite
                .iter()
                .flat_map(|k| self.configs.iter().map(|&c| (k.bench.clone(), c)))
                .collect();
            for i in (1..fresh.len()).rev() {
                fresh.swap(i, (mix(&mut self.state) % (i as u64 + 1)) as usize);
            }
            for job in fresh {
                let started = Instant::now();
                let key = self.keys.job_key(&job.0, job.1);
                if trace::on() {
                    self.key_us.push(secs(started) * 1e6);
                }
                if jobs.len() < wanted && self.used.insert(key) {
                    jobs.push((job, key));
                }
            }
        }
        let mut jobs = jobs.into_iter();
        let requests = sizes.iter().map(|&n| jobs.by_ref().take(n).unzip()).collect();
        Plan { requests }
    }
}

/// The daemon, its clients and the planner.
struct Service {
    platform: Probe,
    /// The same simulator, outside the daemon: the in-process reference.
    reference: SimPlatform,
    planner: Planner,
    /// The first round's plan, made in set-up.
    first: Option<Plan>,
    clients: Vec<RemoteRunner>,
    daemon: Option<JoinHandle<()>>,
    spec_load_ms: f64,
    generate_ms: f64,
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(handle) = self.daemon.take() {
            if let Err(error) = self.clients[0].shutdown_daemon() {
                eprintln!("# daemon shutdown failed: {error}");
            }
            let _ = handle.join();
        }
    }
}

impl Service {
    fn start(config: &Config, rep: usize) -> Self {
        let size = Size::of(config);
        let started = Instant::now();
        let arch = load_spec();
        let spec_load_ms = secs(started) * 1e3;

        let reference = SimPlatform::new(ChipSim::new(arch.clone()).with_options(size.sim.clone()));
        let started = Instant::now();
        let mut planner = Planner {
            configs: size.configs(&arch),
            size,
            arch,
            keys: ExperimentSession::with_options(reference.clone(), SessionOptions::default()),
            seed: config.seed,
            suites: 0,
            state: config.seed ^ 0x5e41_ce00,
            used: HashSet::new(),
            key_us: Vec::new(),
        };
        let first = planner.plan(config.tiny);
        let generate_ms = secs(started) * 1e3;

        let platform = Probe::new(reference.clone());
        let digest = platform.uarch().spec_digest;
        let store = Store::open(config.scratch.join(format!("daemon-store-{rep}")), digest)
            .expect("the daemon's store opens");
        let session = ExperimentSession::with_options(platform.clone(), SessionOptions::default())
            .with_workers(config.workers)
            .with_store(store);
        let daemon = MeasurementDaemon::bind(session, "127.0.0.1:0").expect("bind loopback");
        let addr = daemon.local_addr().to_string();
        let handle = daemon.spawn();
        let clients: Vec<RemoteRunner> = (0..config.workers)
            .map(|_| RemoteRunner::connect(addr.clone(), digest).expect("daemon handshake"))
            .collect();
        Self {
            platform,
            reference,
            planner,
            first: Some(first),
            clients,
            daemon: Some(handle),
            spec_load_ms,
            generate_ms,
        }
    }

    fn daemon_stats(&self) -> DaemonStats {
        self.clients[0].daemon_stats().expect("daemon answers a stats request")
    }
}

/// What the run saw beyond the phase counts.
#[derive(Default)]
struct Log {
    /// The distinct jobs of every round's plan.
    new_jobs: u64,
    /// The first round: its plan, each client's results of each submission of it (client
    /// 0's first), and each client's digest of them.
    first_plan: Option<Plan>,
    first_results: Vec<(usize, Vec<Measurement>)>,
    digests: Vec<Digest>,
}

/// Client `client` submits `plan`, one request per round trip; `alone` when no other
/// client is submitting meanwhile.  Returns the results in plan order.
fn submit(
    service: &Service,
    client: usize,
    plan: &Plan,
    alone: bool,
    phase: &mut Phase,
) -> Vec<Measurement> {
    let runner = &service.clients[client];
    let mut measured = Vec::with_capacity(plan.jobs());
    for (jobs, keys) in &plan.requests {
        let refs: Vec<(&MicroBenchmark, CmpSmtConfig)> =
            jobs.iter().map(|(b, c)| (b, *c)).collect();
        let watch = Stopwatch::start();
        let results = trace::span("service.run_batch", || runner.run_batch(&refs, keys));
        phase.batch(watch, alone);
        for result in results {
            phase.attempted += 1;
            match result {
                Ok(measurement) => {
                    phase.jobs += 1;
                    measured.push(measurement);
                }
                Err(error) => {
                    eprintln!("# {error}");
                    phase.failed += 1;
                }
            }
        }
    }
    measured
}

/// One round: a new plan, submitted by client 0 alone and then by every client at once.
fn round(service: &mut Service, config: &Config, log: &mut Log, phase: &mut Phase) {
    let watch = Stopwatch::start();
    let plan = match service.first.take() {
        Some(plan) => plan,
        None => service.planner.plan(config.tiny),
    };
    log.new_jobs += plan.jobs() as u64;
    let service = &*service;
    let mut results = vec![(0, submit(service, 0, &plan, true, phase))];
    let together = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..service.clients.len())
            .map(|client| {
                let plan = &plan;
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let measured = submit(service, client, plan, false, &mut phase);
                    (client, measured, phase)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    for (client, measured, client_phase) in together {
        phase.absorb(client_phase);
        results.push((client, measured));
    }
    phase.pass(watch);
    if log.first_plan.is_none() {
        log.digests = vec![Digest::default(); service.clients.len()];
        for (client, measured) in &results {
            for measurement in measured {
                log.digests[*client].measurement(measurement);
            }
        }
        log.first_plan = Some(plan);
        log.first_results = results;
    }
}

/// Whole rounds until `seconds` have elapsed (at least one).  Counts the daemon's
/// simulated instructions into the phase.
fn serve(service: &mut Service, config: &Config, log: &mut Log, seconds: f64) -> Phase {
    let mut phase = Phase::default();
    let instr_before = service.platform.instr();
    let watch = Stopwatch::start();
    loop {
        round(service, config, log, &mut phase);
        if watch.wall_s() >= seconds {
            break;
        }
    }
    phase.elapsed_s = watch.wall_s();
    phase.instr = service.platform.instr() - instr_before;
    phase
}

/// Re-measures the first round's plan in-process and counts the daemon's results that
/// are not byte-equal to it, or missing.
fn verify_in_process(config: &Config, service: &Service, log: &Log) -> u64 {
    let Some(plan) = &log.first_plan else { return 0 };
    let session = ExperimentSession::with_options(&service.reference, SessionOptions::default())
        .with_workers(config.workers);
    let refs: Vec<(&MicroBenchmark, CmpSmtConfig)> =
        plan.requests.iter().flat_map(|(jobs, _)| jobs).map(|(b, c)| (b, *c)).collect();
    let local = session.measure_batch(&refs);
    let encode = mp_runtime::store::encode_measurement;
    let mut mismatches = 0;
    for (_, measured) in &log.first_results {
        mismatches += measured.iter().zip(&local).filter(|(d, l)| encode(d) != encode(l)).count();
        mismatches += local.len() - measured.len();
    }
    if mismatches > 0 {
        eprintln!("# {mismatches} daemon results differ from in-process measurement");
    }
    mismatches as u64
}

/// `service-mixed`.
pub fn mixed(config: &Config) -> Outcome {
    let (mut service, setup) = set_up(config, 9, |rep| Service::start(config, rep));
    let mut log = Log::default();
    let sims_before = service.platform.runs();
    let mut plain = serve(&mut service, config, &mut log, config.phase_seconds());
    let traced = config.trace.then(|| {
        let before = service.daemon_stats();
        let new_before = log.new_jobs;
        let sims_before = service.platform.runs();
        mp_telemetry::reset();
        mp_telemetry::set_enabled(true);
        trace::start();
        let phase = serve(&mut service, config, &mut log, config.phase_seconds());
        let spans = trace::stop();
        mp_telemetry::set_enabled(false);
        let sims = service.platform.runs() - sims_before;
        let new = log.new_jobs - new_before;
        (phase, spans, before, service.daemon_stats(), sims as f64 / new.max(1) as f64)
    });

    // Exactly once: every new job simulates once, nothing else simulates.
    let sims = service.platform.runs() - sims_before;
    if sims != log.new_jobs {
        eprintln!("# {sims} simulations for {} new jobs", log.new_jobs);
    }
    plain.failed += sims.abs_diff(log.new_jobs) + verify_in_process(config, &service, &log);
    for (client, value) in log.digests.iter().map(|d| d.value()).enumerate() {
        let name = format!("service-mixed/{client}");
        eprintln!("# digest {name} seed {}: {value:016x}", config.seed);
        if !digest::matches_pin(config, &name, value) {
            plain.failed += log.first_plan.as_ref().map_or(1, Plan::jobs) as u64;
        }
    }

    let traced = traced.map(|(phase, spans, before, after, sims_per_key)| {
        let mut metrics = trace::layer_metrics(&spans, config.workers);
        let windows = after.batches - before.batches;
        let (codec_us, load_us, save_us) = probe_codec_and_store(config, &service, &log);
        metrics.extend([
            ("uarch.spec_load_ms", service.spec_load_ms),
            ("workloads.generate_ms", service.generate_ms),
            ("session.submitted", (after.submitted - before.submitted) as f64),
            ("session.hits", (after.hits - before.hits) as f64),
            ("session.misses", (after.misses - before.misses) as f64),
            ("session.key_us_p50", quantile(&service.planner.key_us, 0.5)),
            ("store.load_us_p50", load_us),
            ("store.save_us_p50", save_us),
            ("power.train_ms", 0.0),
            ("power.eval_ms", 0.0),
            ("stressmark.evaluate_ms", 0.0),
            ("stressmark.candidates", 0.0),
            ("service.codec_us_p50", codec_us),
            ("service.daemon_windows", windows as f64),
            ("service.jobs_per_window", (after.jobs - before.jobs) as f64 / windows.max(1) as f64),
            ("service.sims_per_unique_key", sims_per_key),
        ]);
        (phase, metrics)
    });
    // Shutting the daemon down ends its dispatcher thread, which hands over the
    // telemetry (store counters) it recorded.
    drop(service);
    let traced = traced.map(|(phase, mut metrics)| {
        metrics.extend(trace::telemetry_metrics(&mp_telemetry::snapshot()));
        (phase, metrics)
    });
    Outcome { setup, plain, traced, peak_rss_mb: peak_rss_mb() }
}

/// Times the wire codec (`encode_submit_batch` for each request of the first plan,
/// `decode_results` for its reply) and the store's `save` and `load` on the first
/// plan's results; returns the medians in microseconds.
fn probe_codec_and_store(config: &Config, service: &Service, log: &Log) -> (f64, f64, f64) {
    let (Some(plan), Some((_, measured))) = (&log.first_plan, log.first_results.first()) else {
        return (0.0, 0.0, 0.0);
    };
    let digest = service.reference.uarch().spec_digest;
    let mut codec_us = Vec::new();
    let mut results = measured.iter();
    for (jobs, keys) in &plan.requests {
        let refs: Vec<(&MicroBenchmark, CmpSmtConfig)> =
            jobs.iter().map(|(b, c)| (b, *c)).collect();
        let reply: Vec<WireResult> = keys
            .iter()
            .zip(results.by_ref())
            .map(|(&key, m)| WireResult { key, outcome: Ok(m.clone()) })
            .collect();
        let reply = encode_results(&reply);
        let started = Instant::now();
        let request = encode_submit_batch(digest, &refs, keys);
        let decoded = decode_results(&reply).expect("a reply this process encoded decodes");
        codec_us.push(secs(started) * 1e6);
        assert!(!request.is_empty() && decoded.len() == jobs.len());
    }
    let keys: Vec<u128> = plan.requests.iter().flat_map(|(_, keys)| keys).copied().collect();
    let (load_us, save_us) =
        store_probe(&config.scratch.join("probe-store"), digest, &keys, measured);
    (quantile(&codec_us, 0.5), load_us, save_us)
}
