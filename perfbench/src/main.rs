//! End-to-end benchmark of the MicroProbe reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The paper's product is three answers — a component-wise power projection, the
//! energy per instruction, and a max-power stressmark bound — and each costs thousands
//! of simulated measurements.  This binary links the workspace crates and produces
//! those answers through their public API on three seeded workloads:
//!
//! - `characterize-cold` — the three queries at about `quick` size with an empty memo
//!   and no store: the simulator does all the work ([`characterize`]);
//! - `replay-warm` — the same queries served from a persistent store and then from the
//!   memo; the simulator never runs ([`characterize`]);
//! - `service-mixed` — clients of an in-process measurement daemon, replaying the
//!   request pattern recorded from the experiment binaries in client mode ([`service`]).
//!
//! The seed feeds the kernel generators; the program only sees generated kernels.  Each
//! run sets up several times (reporting the median set-up CPU time), then measures for
//! `--seconds` of wall time.  End-to-end times are the process's CPU time, which steal
//! time on a shared host does not inflate ([`END_TO_END`]).  With `--trace 0` it
//! prints the end-to-end metrics, with tracing off.
//! With `--trace 1` it measures half the time untraced and half traced, and prints the
//! per-layer metrics from the traced half plus the tracing overhead.  Per-layer timings
//! come from spans this benchmark records around its calls into each crate ([`trace`]).
//!
//! Every answer is hashed in job order ([`digest`]); a digest that differs from the
//! pinned one (on the pinned seeds), between passes, between the store and the
//! simulator, or between the daemon and in-process measurement counts as failed
//! operations.  After the workload every run re-measures a pinned canary, so a change
//! in results shows on any seed.  The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is non-zero when any operation failed.

mod characterize;
mod digest;
mod service;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
///
/// Times are the process's CPU time (every thread's, the in-process daemon's included),
/// not wall time: on a shared host the wall time of the same work doubles when other
/// tenants take the CPUs, while its CPU time, which leaves out steal time, moves by a
/// few percent.  The wall figures are reported per layer.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("jobs_per_cpu_s", "1/s"),
    ("sim_minstr_per_cpu_s", "Minstr/s"),
    ("batch_cpu_p50_ms", "ms"),
    ("batch_cpu_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("uarch.spec_load_ms", "ms"),
    ("workloads.generate_ms", "ms"),
    ("sim.runs", "count"),
    ("sim.busy_s", "s"),
    ("sim.run_p50_ms", "ms"),
    ("sim.run_p95_ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.minstr_per_busy_s", "Minstr/s"),
    ("sim.warmup_s", "s"),
    ("sim.cycle_loop_s", "s"),
    ("session.submitted", "count"),
    ("session.hits", "count"),
    ("session.misses", "count"),
    ("session.self_s", "s"),
    ("session.key_us_p50", "us"),
    ("store.load_us_p50", "us"),
    ("store.save_us_p50", "us"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("store.quarantined", "count"),
    ("executor.workers", "count"),
    ("executor.busy_share", "ratio"),
    ("power.train_ms", "ms"),
    ("power.eval_ms", "ms"),
    ("stressmark.evaluate_ms", "ms"),
    ("stressmark.candidates", "count"),
    ("service.codec_us_p50", "us"),
    ("service.daemon_windows", "count"),
    ("service.jobs_per_window", "count"),
    ("service.sims_per_unique_key", "ratio"),
    ("wall.setup_s", "s"),
    ("wall.pass_s", "s"),
    ("wall.jobs_per_s", "1/s"),
    ("wall.batch_p50_ms", "ms"),
    ("wall.batch_p95_ms", "ms"),
    ("batch.samples", "count"),
    ("pass.samples", "count"),
    ("tracing.overhead_share", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["characterize-cold", "replay-warm", "service-mixed"];

/// Jobs per session submission.
pub const BATCH_JOBS: usize = 16;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `tiny` inputs (self-tests) instead of the benchmark's `quick`-sized ones.
    pub tiny: bool,
    /// Measurement worker threads and daemon clients: the host's CPUs, at most 2.
    pub workers: usize,
    /// Where stores and the span file go (inside the working directory).
    pub scratch: PathBuf,
}

impl Config {
    /// Seconds of each timed phase: all of them untraced, or half untraced and half
    /// traced.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What one timed phase observed.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Wall and CPU seconds of each pass (the workload's unit of repeated work).
    pub pass_s: Vec<f64>,
    pub pass_cpu_s: Vec<f64>,
    /// Wall milliseconds of each session submission or daemon round trip.
    pub batch_ms: Vec<f64>,
    /// CPU milliseconds of each session submission or daemon round trip that nothing
    /// else overlapped.
    pub batch_cpu_ms: Vec<f64>,
    /// Measurement jobs answered, hits included.
    pub jobs: u64,
    /// Instructions completed in the measurement windows of the phase's simulator runs
    /// (replay-warm, which runs none: of the answers it served).
    pub instr: u64,
    /// Wall seconds of the whole phase.
    pub elapsed_s: f64,
    /// Operations attempted and failed (jobs, plus gate violations as failures).
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// Records a pass that started at `watch`.
    pub fn pass(&mut self, watch: Stopwatch) {
        self.pass_s.push(watch.wall_s());
        self.pass_cpu_s.push(watch.cpu_s());
    }

    /// Records a submission or round trip that started at `watch`; `alone` when nothing
    /// else ran meanwhile, so the process's CPU time is this submission's.
    pub fn batch(&mut self, watch: Stopwatch, alone: bool) {
        self.batch_ms.push(watch.wall_s() * 1e3);
        if alone {
            self.batch_cpu_ms.push(watch.cpu_s() * 1e3);
        }
    }

    /// Adds a concurrent client's round trips and counts.
    pub fn absorb(&mut self, client: Phase) {
        self.batch_ms.extend(client.batch_ms);
        self.jobs += client.jobs;
        self.instr += client.instr;
        self.attempted += client.attempted;
        self.failed += client.failed;
    }

    /// Median pass CPU time.
    pub fn pass_cpu_s(&self) -> f64 {
        quantile(&self.pass_cpu_s, 0.5)
    }

    fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
        let cpu_s: f64 = self.pass_cpu_s.iter().sum();
        vec![
            ("setup_s", setup_s),
            ("pass_cpu_s", self.pass_cpu_s()),
            ("jobs_per_cpu_s", self.jobs as f64 / cpu_s),
            ("sim_minstr_per_cpu_s", self.instr as f64 / 1e6 / cpu_s),
            ("batch_cpu_p50_ms", quantile(&self.batch_cpu_ms, 0.5)),
            ("batch_cpu_p95_ms", quantile(&self.batch_cpu_ms, 0.95)),
            ("peak_rss_mb", peak_rss_mb),
        ]
    }

    /// The wall-time counterparts, reported per layer.
    fn wall(&self, setup_wall_s: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("wall.setup_s", setup_wall_s),
            ("wall.pass_s", quantile(&self.pass_s, 0.5)),
            ("wall.jobs_per_s", self.jobs as f64 / self.elapsed_s),
            ("wall.batch_p50_ms", quantile(&self.batch_ms, 0.5)),
            ("wall.batch_p95_ms", quantile(&self.batch_ms, 0.95)),
        ]
    }
}

/// What a workload hands back to [`run`].
pub struct Outcome {
    /// Median set-up times.
    pub setup: SetUp,
    /// The untraced phase (the end-to-end numbers).
    pub plain: Phase,
    /// The traced phase and its per-layer metrics (`--trace 1` only).
    pub traced: Option<(Phase, Vec<(&'static str, f64)>)>,
    /// The process's peak resident set when the workload ended (before the canary), in
    /// MB.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// The metrics the run prints: end-to-end untraced, or per-layer traced.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        match &self.traced {
            None => self.plain.end_to_end(self.setup.cpu_s, self.peak_rss_mb),
            Some((traced, layers)) => {
                let mut all = layers.clone();
                all.extend(traced.wall(self.setup.wall_s));
                all.push(("batch.samples", traced.batch_cpu_ms.len() as f64));
                all.push(("pass.samples", traced.pass_s.len() as f64));
                let overhead = traced.pass_cpu_s() / self.plain.pass_cpu_s() - 1.0;
                all.push(("tracing.overhead_share", overhead));
                all
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.plain.attempted + self.traced.as_ref().map_or(0, |(t, _)| t.attempted)
    }

    pub fn failed(&self) -> u64 {
        self.plain.failed + self.traced.as_ref().map_or(0, |(t, _)| t.failed)
    }
}

/// The `q`-quantile by nearest rank (0 for no samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// CPU seconds this process has used, over all its threads (`CLOCK_PROCESS_CPUTIME_ID`).
/// Time the host gives to other tenants is not counted: the kernel leaves steal time
/// out of task run time.
pub fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process CPU time from a starting point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self { wall: Instant::now(), cpu: cpu_now() }
    }

    pub fn wall_s(&self) -> f64 {
        secs(self.wall)
    }

    pub fn cpu_s(&self) -> f64 {
        cpu_now() - self.cpu
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up's median CPU and wall seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Sets up `reps` times (once at the tiny size), keeping the last state, and returns it
/// with the median set-up times.
pub fn set_up<S>(config: &Config, reps: usize, mut f: impl FnMut(usize) -> S) -> (S, SetUp) {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut state = None;
    for rep in 0..if config.tiny { 1 } else { reps } {
        drop(state.take());
        let watch = Stopwatch::start();
        state = Some(f(rep));
        cpu.push(watch.cpu_s());
        wall.push(watch.wall_s());
    }
    let times = SetUp { cpu_s: quantile(&cpu, 0.5), wall_s: quantile(&wall, 0.5) };
    (state.expect("at least one set-up"), times)
}

/// Runs one workload: the single entry point of the CLI and the self-tests.
pub fn run(config: &Config) -> Result<Outcome, String> {
    // The program's telemetry is on only in the traced phase, whatever the environment.
    mp_telemetry::set_enabled(false);
    let mut outcome = match config.workload.as_str() {
        "characterize-cold" => characterize::cold(config),
        "replay-warm" => characterize::warm(config),
        "service-mixed" => service::mixed(config),
        other => return Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    };
    let (jobs, failed) = characterize::canary(config);
    outcome.plain.attempted += jobs;
    outcome.plain.failed += failed;
    Ok(outcome)
}

/// The result line: one JSON object with exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric printed with every digit and its unit.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let values = outcome.metrics();
    let mut metrics = String::new();
    for (index, (name, unit)) in table.iter().enumerate() {
        let value = values.iter().find(|(n, _)| n == name).map_or(f64::NAN, |&(_, v)| v);
        let value = if value.is_finite() { format!("{value:?}") } else { "null".to_owned() };
        let comma = if index == 0 { "" } else { ", " };
        let _ = write!(metrics, "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    let failed = outcome.failed();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0,
        outcome.attempted().max(1),
    )
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_owned());
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny: false,
        workers,
        scratch: PathBuf::from(".perfbench").join(format!("run-{}", std::process::id())),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("perfbench: {error}");
        std::process::exit(2);
    });
    let outcome = run(&config);
    let _ = std::fs::remove_dir_all(&config.scratch);
    let outcome = outcome.unwrap_or_else(|error| {
        eprintln!("perfbench: {error}");
        std::process::exit(2);
    });
    let plain = &outcome.plain;
    eprintln!(
        "# perfbench {} seed {}: {} jobs in {:.3} s untraced; {} passes of {:.3}/{:.3}/{:.3} s \
         CPU (min/p50/max), {:.3} s wall (p50); {} batches",
        config.workload,
        config.seed,
        plain.jobs,
        plain.elapsed_s,
        plain.pass_s.len(),
        quantile(&plain.pass_cpu_s, 0.0),
        plain.pass_cpu_s(),
        quantile(&plain.pass_cpu_s, 1.0),
        quantile(&plain.pass_s, 0.5),
        plain.batch_ms.len(),
    );
    println!("{}", result_line(&outcome, config.trace));
    if outcome.failed() > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
