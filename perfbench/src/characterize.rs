//! `characterize-cold` and `replay-warm`: the paper's three energy questions, composed
//! from the crates' public calls.
//!
//! One pass answers all three:
//!
//! 1. component-wise power projection — the training suite, SPEC proxies and extreme
//!    cases measured over the CMP/SMT configurations in [`BATCH_JOBS`]-job session
//!    submissions, then the bottom-up and three top-down models trained and evaluated
//!    on the SPEC proxies;
//! 2. energy per instruction — `ExperimentSession::bootstrap`;
//! 3. the max-power bound — `StressmarkSearch::evaluate_each` over the expert sets.
//!
//! `characterize-cold` runs each pass on a fresh session with no store, so the simulator
//! does all the work.  `replay-warm` fills a store in set-up; each pass then opens a
//! fresh session over it and answers everything twice, from disk and then from memory,
//! without a single simulation.

use std::path::Path;
use std::time::Instant;

use microprobe::bootstrap::BootstrapOptions;
use microprobe::ir::MicroBenchmark;
use microprobe::platform::{Platform, SimPlatform};
use mp_power::{paae, BottomUpModel, SampleKind, TopDownModel, TrainingSet, WorkloadSample};
use mp_runtime::{ExperimentSession, SessionOptions, Store};
use mp_sim::{ChipSim, Measurement, SimOptions};
use mp_stressmark::{expert_dse_sequences, expert_manual_set, SequenceCandidate, StressmarkSearch};
use mp_uarch::{CmpSmtConfig, MicroArchitecture, SmtMode};
use mp_workloads::{extreme_cases, spec_proxies, TrainingOptions, TrainingSuite};

use crate::digest::{self, Digest};
use crate::trace::{self, Probe};
use crate::{peak_rss_mb, quantile, secs, set_up, Config, Outcome, Phase, Stopwatch, BATCH_JOBS};

/// How big the inputs are.
pub struct Size {
    pub training_scale: f64,
    pub loop_instructions: usize,
    pub cores: Vec<u32>,
    pub sim: SimOptions,
    spec_proxies: usize,
    bootstrap: &'static [&'static str],
    dse_candidates: usize,
}

impl Size {
    pub fn of(config: &Config) -> Self {
        if config.tiny {
            Self::tiny()
        } else {
            Self::quick()
        }
    }

    /// Every SMT mode of the machine on each of the size's core counts.
    pub fn configs(&self, arch: &MicroArchitecture) -> Vec<CmpSmtConfig> {
        self.cores
            .iter()
            .flat_map(|&cores| arch.smt_modes.iter().map(move |&smt| CmpSmtConfig::new(cores, smt)))
            .collect()
    }

    /// About `ExperimentScale::Quick`: its training scale, loop length, core counts,
    /// simulator options and stressmark shape.
    fn quick() -> Self {
        Self {
            training_scale: 0.03,
            loop_instructions: 96,
            cores: vec![1, 2, 4],
            sim: SimOptions {
                warmup_cycles: 1_500,
                measure_cycles: 4_000,
                sample_cycles: 500,
                ..SimOptions::default()
            },
            spec_proxies: 4,
            bootstrap: &["mulldo", "lxvw4x", "xvmaddadp", "stfd"],
            dse_candidates: 3,
        }
    }

    /// Just enough for every model to train: the self-tests' size.
    fn tiny() -> Self {
        Self {
            training_scale: 0.01,
            loop_instructions: 24,
            cores: vec![1, 2],
            sim: SimOptions {
                warmup_cycles: 200,
                measure_cycles: 600,
                sample_cycles: 200,
                ..SimOptions::default()
            },
            spec_proxies: 3,
            bootstrap: &["add", "lbz"],
            dse_candidates: 2,
        }
    }
}

/// A kernel to measure on every configuration, with the label the models use.
pub struct Labelled {
    pub name: String,
    pub bench: MicroBenchmark,
    pub kind: SampleKind,
}

/// Everything a pass needs, generated in set-up from the seed.
pub struct Inputs {
    pub platform: Probe,
    idle_power: f64,
    pub kernels: Vec<Labelled>,
    /// `(kernel index, configuration)`, kernel-major: the measurement stage's jobs.
    pub jobs: Vec<(usize, CmpSmtConfig)>,
    bootstrap: BootstrapOptions,
    candidates: Vec<SequenceCandidate>,
    stress_cores: u32,
    stress_modes: Vec<SmtMode>,
    pub spec_load_ms: f64,
    pub generate_ms: f64,
}

/// Parses the POWER7 machine and ISA specs from their embedded texts, uncached, the way
/// `mp_uarch::backend` does on its first call in a process.
pub fn load_spec() -> MicroArchitecture {
    let machine = mp_uarch::spec::machine_spec_source("power7").expect("power7 spec is embedded");
    let spec = mp_uarch::spec::parse_machine(machine).expect("embedded machine spec parses");
    let isa_text =
        mp_isa::spec::isa_spec_source(&spec.isa_name).expect("the machine's ISA is embedded");
    let isa = mp_isa::spec::parse_isa(isa_text).expect("embedded ISA spec parses");
    let digest = mp_isa::spec::spec_digest(&[isa_text, machine]);
    spec.build(isa, digest).expect("embedded machine spec builds")
}

/// A splitmix64 step: the seeded choices the benchmark makes itself.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The training suite for `seed`, labelled for the models.
pub fn training_kernels(
    arch: &MicroArchitecture,
    scale: f64,
    loop_instructions: usize,
    seed: u64,
) -> Vec<Labelled> {
    let options = TrainingOptions { scale, loop_instructions, seed };
    let suite = TrainingSuite::generate(arch, options).expect("built-in families generate");
    suite
        .benchmarks()
        .iter()
        .map(|tb| Labelled {
            name: tb.benchmark.name().to_owned(),
            bench: tb.benchmark.clone(),
            kind: if tb.family.is_random() { SampleKind::Random } else { SampleKind::MicroArch },
        })
        .collect()
}

impl Inputs {
    pub fn generate(config: &Config) -> Self {
        let size = Size::of(config);
        let started = Instant::now();
        let arch = load_spec();
        let spec_load_ms = secs(started) * 1e3;

        let started = Instant::now();
        let loop_len = size.loop_instructions;
        let mut kernels = training_kernels(&arch, size.training_scale, loop_len, config.seed);
        for proxy in spec_proxies().iter().take(size.spec_proxies) {
            let bench = proxy.generate(&arch, loop_len).expect("SPEC proxies generate");
            kernels.push(Labelled { name: proxy.name.to_owned(), bench, kind: SampleKind::Spec });
        }
        for case in extreme_cases(&arch, loop_len).expect("extreme cases generate") {
            let (name, bench) = (case.name.to_owned(), case.benchmark);
            kernels.push(Labelled { name, bench, kind: SampleKind::Extreme });
        }
        // The expert-manual set plus a seeded sample of the expert-DSE space.
        let mut candidates = expert_manual_set(&arch);
        let mut dse = expert_dse_sequences(&arch);
        let mut state = config.seed ^ 0x5752_e55d;
        for _ in 0..size.dse_candidates.min(dse.len()) {
            let pick = (mix(&mut state) % dse.len() as u64) as usize;
            candidates.push(dse.swap_remove(pick));
        }
        let generate_ms = secs(started) * 1e3;

        let configs = size.configs(&arch);
        let jobs = (0..kernels.len())
            .flat_map(|index| configs.iter().map(move |&config| (index, config)))
            .collect();
        let stress_cores = size.cores.iter().copied().max().unwrap_or(1);
        let bootstrap = BootstrapOptions {
            loop_instructions: loop_len,
            config: CmpSmtConfig::new(stress_cores, SmtMode::Smt1),
            include: Some(size.bootstrap.iter().map(|&s| s.to_owned()).collect()),
        };
        let platform = Probe::new(SimPlatform::new(ChipSim::new(arch).with_options(size.sim)));
        let idle_power = platform.idle_power();
        Self {
            platform,
            idle_power,
            kernels,
            jobs,
            bootstrap,
            candidates,
            stress_cores,
            stress_modes: vec![SmtMode::Smt4],
            spec_load_ms,
            generate_ms,
        }
    }

    /// The measurement stage's jobs as the session takes them.
    pub fn job_refs(&self) -> Vec<(&MicroBenchmark, CmpSmtConfig)> {
        self.jobs.iter().map(|&(index, config)| (&self.kernels[index].bench, config)).collect()
    }

    /// A session over this input's platform with no store, whatever the environment says.
    pub fn session(&self, workers: usize) -> ExperimentSession<&Probe> {
        ExperimentSession::with_options(&self.platform, SessionOptions::default())
            .with_workers(workers)
    }
}

/// Trains the bottom-up model and the three top-down models on a pass's samples.
fn train(
    training: &TrainingSet,
    spec: &[WorkloadSample],
    idle_power: f64,
) -> Result<(BottomUpModel, Vec<TopDownModel>), mp_power::ModelError> {
    let bu = BottomUpModel::train(training, idle_power)?;
    let td = vec![
        TopDownModel::train("TD_Micro", training.of_kind(SampleKind::MicroArch))?,
        TopDownModel::train("TD_Random", training.of_kind(SampleKind::Random))?,
        TopDownModel::train("TD_SPEC", spec.iter())?,
    ];
    Ok((bu, td))
}

/// One pass over the three questions on `session`.  Returns the digest of every answer;
/// counts jobs, submissions and failures into `phase`.
pub fn characterize<P: Platform>(
    session: &ExperimentSession<P>,
    inputs: &Inputs,
    phase: &mut Phase,
) -> Digest {
    let mut digest = Digest::default();

    // 1. Component-wise power projection.
    let refs = inputs.job_refs();
    let mut training = TrainingSet::new();
    let mut spec = Vec::new();
    for (jobs, chunk) in inputs.jobs.chunks(BATCH_JOBS).zip(refs.chunks(BATCH_JOBS)) {
        let watch = Stopwatch::start();
        let results =
            trace::submission("session.submit", || session.measure_batch_resilient(chunk));
        phase.batch(watch, true);
        for (&(index, _), result) in jobs.iter().zip(results) {
            phase.attempted += 1;
            let measurement = match result {
                Ok(measurement) => measurement,
                Err(error) => {
                    eprintln!("# {error}");
                    phase.failed += 1;
                    continue;
                }
            };
            phase.jobs += 1;
            digest.measurement(&measurement);
            let kernel = &inputs.kernels[index];
            let sample = WorkloadSample::from_measurement(&kernel.name, &measurement);
            match kernel.kind {
                SampleKind::Spec => spec.push(sample),
                SampleKind::Extreme => {}
                kind => training.push(sample, kind),
            }
        }
    }
    phase.attempted += 1;
    match trace::span("power.train", || train(&training, &spec, inputs.idle_power)) {
        Ok((bu, td)) => {
            let answers = trace::span("power.eval", || {
                let breakdowns: Vec<_> = spec.iter().map(|s| bu.decompose(s)).collect();
                let mut errors = vec![paae(&bu, &spec).ok()];
                errors.extend(td.iter().map(|model| paae(model, &spec).ok()));
                (breakdowns, errors)
            });
            digest.debug(&answers);
        }
        Err(error) => {
            eprintln!("# model training failed: {error}");
            phase.failed += 1;
        }
    }

    // 2. Energy per instruction.
    let bootstrap_jobs = 2 * inputs.bootstrap.include.as_ref().map_or(0, Vec::len) as u64;
    phase.attempted += bootstrap_jobs;
    let bootstrap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        trace::submission("session.submit", || session.bootstrap(inputs.bootstrap.clone()))
    }));
    match bootstrap {
        Ok(Ok((_, records))) => {
            phase.jobs += bootstrap_jobs;
            digest.debug(&records);
        }
        _ => {
            eprintln!("# bootstrap failed");
            phase.failed += bootstrap_jobs;
        }
    }

    // 3. The max-power stressmark bound.
    let search = StressmarkSearch::with_session(session)
        .with_cores(inputs.stress_cores)
        .with_loop_instructions(inputs.bootstrap.loop_instructions)
        .with_smt_modes(inputs.stress_modes.clone());
    let results = trace::span("stressmark.evaluate", || {
        trace::submission("session.submit", || search.evaluate_each(&inputs.candidates))
    });
    let modes = inputs.stress_modes.len() as u64;
    for result in results {
        phase.attempted += modes;
        match result {
            Ok(result) => {
                phase.jobs += modes;
                digest.debug(&result);
            }
            Err(error) => {
                eprintln!("# stressmark candidate failed: {error}");
                phase.failed += modes;
            }
        }
    }
    digest
}

/// Re-measures the canary — the first submission of the default seed's inputs — and
/// checks it against its pin, so that a run on any seed notices changed results.
/// Returns the jobs it measured and how many of them count as failed.
pub fn canary(config: &Config) -> (u64, u64) {
    let config = Config { seed: digest::DEFAULT_SEED, ..config.clone() };
    let inputs = Inputs::generate(&config);
    let refs = inputs.job_refs();
    let mut canary = Digest::default();
    for measurement in inputs.session(config.workers).measure_batch(&refs[..BATCH_JOBS]) {
        canary.measurement(&measurement);
    }
    let jobs = BATCH_JOBS as u64;
    (jobs, if digest::matches_pin(&config, "canary", canary.value()) { 0 } else { jobs })
}

/// Repeats `pass` until `seconds` of wall time have elapsed (at least once).
pub fn timed(seconds: f64, mut pass: impl FnMut(&mut Phase)) -> Phase {
    let mut phase = Phase::default();
    let watch = Stopwatch::start();
    loop {
        pass(&mut phase);
        if watch.wall_s() >= seconds {
            break;
        }
    }
    phase.elapsed_s = watch.wall_s();
    phase
}

/// The untraced phase, then (with `--trace 1`) the traced one with its spans.  The
/// program's telemetry is on during the traced phase.
pub fn phases(
    config: &Config,
    mut pass: impl FnMut(&mut Phase),
) -> (Phase, Option<(Phase, Vec<trace::Span>)>) {
    let plain = timed(config.phase_seconds(), &mut pass);
    if !config.trace {
        return (plain, None);
    }
    mp_telemetry::reset();
    mp_telemetry::set_enabled(true);
    trace::start();
    let traced = timed(config.phase_seconds(), &mut pass);
    let spans = trace::stop();
    trace::write(&spans, &Path::new(".perfbench").join(format!("spans-{}.jsonl", config.workload)));
    (plain, Some((traced, spans)))
}

/// Per-layer metrics every characterize workload reports the same way: set-up layers,
/// span-derived layers, the program's telemetry, the session's job-key cost and the
/// store's load/save cost on this workload's keys and results.
fn layers(
    config: &Config,
    inputs: &Inputs,
    spans: &[trace::Span],
    stats: mp_runtime::SessionStats,
) -> Vec<(&'static str, f64)> {
    let mut metrics = trace::layer_metrics(spans, config.workers);
    metrics.extend(trace::telemetry_metrics(&mp_telemetry::snapshot()));
    mp_telemetry::set_enabled(false);

    let session = inputs.session(config.workers);
    let refs = inputs.job_refs();
    let mut key_us = Vec::new();
    let keys: Vec<u128> = refs
        .iter()
        .map(|&(bench, cfg)| {
            let started = Instant::now();
            let key = session.job_key(bench, cfg);
            key_us.push(secs(started) * 1e6);
            key
        })
        .collect();
    let measured = session.measure_batch(&refs[..refs.len().min(4 * BATCH_JOBS)]);
    let digest = inputs.platform.uarch().spec_digest;
    let (load_us, save_us) =
        store_probe(&config.scratch.join("probe-store"), digest, &keys, &measured);
    metrics.extend([
        ("uarch.spec_load_ms", inputs.spec_load_ms),
        ("workloads.generate_ms", inputs.generate_ms),
        ("session.submitted", stats.submitted as f64),
        ("session.hits", stats.hits as f64),
        ("session.misses", stats.misses as f64),
        ("session.key_us_p50", quantile(&key_us, 0.5)),
        ("store.load_us_p50", load_us),
        ("store.save_us_p50", save_us),
        ("stressmark.candidates", inputs.candidates.len() as f64),
        ("service.codec_us_p50", 0.0),
        ("service.daemon_windows", 0.0),
        ("service.jobs_per_window", 0.0),
        ("service.sims_per_unique_key", 0.0),
    ]);
    metrics
}

/// Times `Store::save` of each result under its key in a scratch store at `dir`, then
/// `Store::load` of each; returns the load and save medians in microseconds.
pub fn store_probe(
    dir: &Path,
    digest: u128,
    keys: &[u128],
    measured: &[Measurement],
) -> (f64, f64) {
    let store = Store::open(dir, digest).expect("the probe store opens");
    let mut save_us = Vec::new();
    for (&key, measurement) in keys.iter().zip(measured) {
        let started = Instant::now();
        store.save(key, measurement);
        save_us.push(secs(started) * 1e6);
    }
    let mut load_us = Vec::new();
    for &key in keys.iter().take(measured.len()) {
        let started = Instant::now();
        let loaded = store.load(key);
        load_us.push(secs(started) * 1e6);
        assert!(loaded.is_some(), "a record just saved loads back");
    }
    (quantile(&load_us, 0.5), quantile(&save_us, 0.5))
}

fn add_stats(total: &mut mp_runtime::SessionStats, stats: mp_runtime::SessionStats) {
    total.submitted += stats.submitted;
    total.hits += stats.hits;
    total.misses += stats.misses;
}

/// Checks a pass's digest against the run's reference (the first pass, or set-up's),
/// counting a mismatch as a failed pass's worth of jobs.
pub(crate) fn gate(reference: &mut Option<u64>, digest: Digest, phase: &mut Phase, jobs: u64) {
    let value = digest.value();
    match *reference {
        None => *reference = Some(value),
        Some(expected) if expected != value => {
            eprintln!("# pass digest {value:016x} != reference {expected:016x}");
            phase.failed += jobs;
        }
        Some(_) => {}
    }
}

/// `characterize-cold`.
pub fn cold(config: &Config) -> Outcome {
    let (inputs, setup) = set_up(config, 31, |_| Inputs::generate(config));
    let mut reference = None;
    let mut stats = mp_runtime::SessionStats::default();
    let (mut plain, traced) = phases(config, |phase| {
        let session = inputs.session(config.workers);
        let watch = Stopwatch::start();
        let (before, instr_before) = (phase.jobs, inputs.platform.instr());
        let digest = characterize(&session, &inputs, phase);
        phase.pass(watch);
        phase.instr += inputs.platform.instr() - instr_before;
        gate(&mut reference, digest, phase, phase.jobs - before);
        if trace::on() {
            add_stats(&mut stats, session.stats());
        }
    });
    if let Some(value) = reference {
        if !digest::matches_pin(config, "characterize-cold", value) {
            plain.failed += plain.jobs.max(1);
        }
        eprintln!("# digest characterize-cold seed {}: {value:016x}", config.seed);
    }
    let traced = traced.map(|(phase, spans)| {
        let metrics = layers(config, &inputs, &spans, stats);
        (phase, metrics)
    });
    Outcome { setup, plain, traced, peak_rss_mb: peak_rss_mb() }
}

/// `replay-warm`.
pub fn warm(config: &Config) -> Outcome {
    let store_dir = config.scratch.join("store");
    let digest_of_spec = |inputs: &Inputs| inputs.platform.uarch().spec_digest;
    let ((inputs, reference), setup) = set_up(config, 3, |_| {
        let inputs = Inputs::generate(config);
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = Store::open(&store_dir, digest_of_spec(&inputs)).expect("the store opens");
        let session = inputs.session(config.workers).with_store(store);
        let mut fill = Phase::default();
        let digest = characterize(&session, &inputs, &mut fill).value();
        assert_eq!(fill.failed, 0, "filling the store measures every job");
        (inputs, digest)
    });
    // A pass answers with the instructions the fill simulated, once from disk and once
    // from memory.
    let pass_instr = 2 * inputs.platform.instr();
    let mut failed = 0;
    if !digest::matches_pin(config, "characterize-cold", reference) {
        failed += 1;
    }
    eprintln!("# digest replay-warm seed {}: {reference:016x}", config.seed);

    let runs_before = inputs.platform.runs();
    let mut stats = mp_runtime::SessionStats::default();
    let (mut plain, traced) = phases(config, |phase| {
        let watch = Stopwatch::start();
        let store = Store::open(&store_dir, digest_of_spec(&inputs)).expect("the store opens");
        let session = inputs.session(config.workers).with_store(store);
        for _tier in ["disk", "memory"] {
            let before = phase.jobs;
            let digest = characterize(&session, &inputs, phase);
            gate(&mut Some(reference), digest, phase, phase.jobs - before);
        }
        phase.pass(watch);
        phase.instr += pass_instr;
        if trace::on() {
            add_stats(&mut stats, session.stats());
        }
    });
    // Every simulation in the timed phases is a failed operation: replay must be served.
    let sims = inputs.platform.runs() - runs_before;
    if sims > 0 {
        eprintln!("# replay-warm ran the simulator {sims} times");
    }
    plain.failed += failed + sims;
    let traced = traced.map(|(phase, spans)| {
        let metrics = layers(config, &inputs, &spans, stats);
        (phase, metrics)
    });
    Outcome { setup, plain, traced, peak_rss_mb: peak_rss_mb() }
}
