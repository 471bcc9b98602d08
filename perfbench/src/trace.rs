//! The benchmark's own tracing: spans recorded around its calls into each crate, kept in
//! memory and written out when the run ends.
//!
//! Recording is off unless [`start`] was called, so the untraced phase pays one relaxed
//! load per call.  Simulator runs are observed by [`Probe`], a [`Platform`] wrapper the
//! sessions measure through; it also counts runs in both modes, which is how the
//! replay and service gates see a simulation that should not have happened.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use microprobe::ir::MicroBenchmark;
use microprobe::platform::{Platform, SimPlatform};
use mp_sim::Measurement;
use mp_uarch::{CmpSmtConfig, MicroArchitecture};

static ON: AtomicBool = AtomicBool::new(false);
/// Id + 1 of the open submission span (0: none); simulator spans on worker threads
/// name it as their cause.
static ACTIVE: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Simulated cycles (warm-up plus window) and completed instructions; simulator
    /// spans only.
    pub cycles: u64,
    pub instr: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn parent() -> Option<u32> {
    ACTIVE.load(Ordering::Relaxed).checked_sub(1)
}

fn push(span: Span) -> u32 {
    let mut spans = SPANS.lock().expect("span list never poisoned");
    spans.push(span);
    (spans.len() - 1) as u32
}

/// Whether spans are being recorded.
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Clears the span list and starts recording.
pub fn start() {
    SPANS.lock().expect("span list never poisoned").clear();
    ON.store(true, Ordering::SeqCst);
}

/// Stops recording and returns the spans.
pub fn stop() -> Vec<Span> {
    ON.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SPANS.lock().expect("span list never poisoned"))
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let start_ns = now_ns();
    let result = f();
    push(Span { name, start_ns, end_ns: now_ns(), parent: parent(), cycles: 0, instr: 0 });
    result
}

/// Runs `f` inside a submission span: simulator runs that happen meanwhile, on any
/// thread, record it as their cause.  Submissions do not nest.
pub fn submission<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let start_ns = now_ns();
    let id = push(Span { name, start_ns, end_ns: start_ns, parent: None, cycles: 0, instr: 0 });
    ACTIVE.store(id + 1, Ordering::SeqCst);
    let result = f();
    ACTIVE.store(0, Ordering::SeqCst);
    SPANS.lock().expect("span list never poisoned")[id as usize].end_ns = now_ns();
    result
}

/// Writes the spans as JSON lines to `path` (best effort: the file is for people).
pub fn write(spans: &[Span], path: &std::path::Path) {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"cycles\": {}, \"instr\": {}}}\n",
            s.name, s.start_ns, s.end_ns, s.cycles, s.instr
        ));
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(path, out);
}

/// A [`Platform`] that counts (and, while tracing, times) every simulator run.
#[derive(Clone)]
pub struct Probe {
    inner: SimPlatform,
    runs: Arc<AtomicU64>,
    instr: Arc<AtomicU64>,
}

impl Probe {
    pub fn new(inner: SimPlatform) -> Self {
        Self { inner, runs: Arc::default(), instr: Arc::default() }
    }

    /// Simulator runs so far, traced or not.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::SeqCst)
    }

    /// Instructions completed in the measurement windows of those runs.
    pub fn instr(&self) -> u64 {
        self.instr.load(Ordering::SeqCst)
    }

    fn observe(&self, run: impl FnOnce() -> Measurement) -> Measurement {
        self.runs.fetch_add(1, Ordering::SeqCst);
        let traced = on();
        let start_ns = if traced { now_ns() } else { 0 };
        let measurement = run();
        let instr = measurement.chip_counters().instr_completed;
        self.instr.fetch_add(instr, Ordering::SeqCst);
        if traced {
            push(Span {
                name: "sim.run",
                start_ns,
                end_ns: now_ns(),
                parent: parent(),
                cycles: self.inner.sim().options().warmup_cycles + measurement.cycles(),
                instr,
            });
        }
        measurement
    }
}

impl Platform for Probe {
    fn uarch(&self) -> &MicroArchitecture {
        self.inner.uarch()
    }

    fn run(&self, bench: &MicroBenchmark, config: CmpSmtConfig) -> Measurement {
        self.observe(|| self.inner.run(bench, config))
    }

    fn run_heterogeneous(&self, benches: &[MicroBenchmark], config: CmpSmtConfig) -> Measurement {
        self.observe(|| self.inner.run_heterogeneous(benches, config))
    }

    fn idle_power(&self) -> f64 {
        self.inner.idle_power()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per-layer metrics derived from the spans of one traced phase.
pub fn layer_metrics(spans: &[Span], workers: usize) -> Vec<(&'static str, f64)> {
    let sims: Vec<&Span> = spans.iter().filter(|s| s.name == "sim.run").collect();
    let busy_ns: u64 = sims.iter().map(|s| s.dur_ns()).sum();
    let cycles: u64 = sims.iter().map(|s| s.cycles).sum();
    let instr: u64 = sims.iter().map(|s| s.instr).sum();
    let run_ms: Vec<f64> = sims.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();

    // Session self time: each submission's span minus the part its simulator runs cover;
    // the executor's share: simulator busy time over the worker-seconds of the
    // submissions that simulated.
    let mut self_ns = 0u64;
    let mut simulating_ns = 0u64;
    for (id, submission) in spans.iter().enumerate().filter(|(_, s)| s.name == "session.submit") {
        let mut children: Vec<(u64, u64)> = sims
            .iter()
            .filter(|s| s.parent == Some(id as u32))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_ns +=
            submission.dur_ns() - covered_ns(&mut children, submission.start_ns, submission.end_ns);
        if !children.is_empty() {
            simulating_ns += submission.dur_ns();
        }
    }
    // Simulations the benchmark did not submit itself (the daemon's) have no submission
    // span: their wall is the time any of them was running.
    let mut orphans: Vec<(u64, u64)> =
        sims.iter().filter(|s| s.parent.is_none()).map(|s| (s.start_ns, s.end_ns)).collect();
    simulating_ns += covered_ns(&mut orphans, 0, u64::MAX);

    let p50_ms = |name: &str| -> f64 {
        let ms: Vec<f64> =
            spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect();
        crate::quantile(&ms, 0.5)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("sim.runs", sims.len() as f64),
        ("sim.busy_s", busy_ns as f64 / 1e9),
        ("sim.run_p50_ms", crate::quantile(&run_ms, 0.5)),
        ("sim.run_p95_ms", crate::quantile(&run_ms, 0.95)),
        ("sim.ns_per_cycle", ratio(busy_ns as f64, cycles as f64)),
        ("sim.minstr_per_busy_s", ratio(instr as f64 / 1e6, busy_ns as f64 / 1e9)),
        ("session.self_s", self_ns as f64 / 1e9),
        ("executor.workers", workers as f64),
        ("executor.busy_share", ratio(busy_ns as f64, workers as f64 * simulating_ns as f64)),
        ("power.train_ms", p50_ms("power.train")),
        ("power.eval_ms", p50_ms("power.eval")),
        ("stressmark.evaluate_ms", p50_ms("stressmark.evaluate")),
    ]
}

/// Folds in the program's own telemetry for the phase: simulator warm-up and cycle-loop
/// time, and the store counters (which also cover stores the benchmark cannot reach,
/// like the daemon's).
pub fn telemetry_metrics(agg: &mp_telemetry::Aggregate) -> Vec<(&'static str, f64)> {
    let span_s = |name: &str| agg.spans.get(name).map_or(0.0, |s| s.durations.sum as f64 / 1e9);
    let counter = |name: &str| -> f64 {
        agg.counters.iter().filter(|(k, _)| k.name == name).map(|(_, v)| *v).sum::<u64>() as f64
    };
    vec![
        ("sim.warmup_s", span_s("sim.warmup")),
        ("sim.cycle_loop_s", span_s("sim.cycle_loop")),
        ("store.hits", counter("store.hit")),
        ("store.writes", counter("store.write")),
        ("store.quarantined", counter("store.corrupt")),
    ]
}

#[cfg(test)]
mod tests {
    use super::covered_ns;

    #[test]
    fn covered_time_counts_overlaps_once_and_clips() {
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }
}
