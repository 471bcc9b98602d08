//! Self-tests: at a tiny size every named metric prints with its unit and every gate
//! holds; a corrupted measurement byte trips the digest gate; and the pinned digests
//! hold on the default and held-out seeds at the benchmark's own size.

use super::*;
use crate::characterize::{characterize, Inputs};
use crate::digest::{self, DEFAULT_SEED, HELD_OUT_SEED};
use microprobe::platform::Platform;

fn config(workload: &str, seed: u64, trace: bool, tiny: bool) -> Config {
    static RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    Config {
        workload: workload.to_owned(),
        seed,
        seconds: 0.05,
        trace,
        tiny,
        workers: 2,
        scratch: PathBuf::from(".perfbench").join(format!("test-{}-{run}", std::process::id())),
    }
}

/// Serializes the tests that measure: tracing and the program's telemetry are
/// process-wide.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs one workload and removes its scratch directory.
fn run_clean(config: &Config) -> Outcome {
    let _serial = serial();
    let outcome = run(config).expect("known workload");
    let _ = std::fs::remove_dir_all(&config.scratch);
    outcome
}

/// The metric entry as the result line prints it: `"name": {"value": <v>, "unit": "<u>"}`.
fn printed_value(line: &str, name: &str, unit: &str) -> Option<f64> {
    let head = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&head)? + head.len()..];
    let (value, rest) = rest.split_once(", ")?;
    rest.starts_with(&format!("\"unit\": \"{unit}\"}}")).then(|| value.parse().ok())?
}

#[test]
fn benchmark_json_names_the_metrics_and_workloads_this_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(spec.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    for workload in WORKLOADS {
        assert!(spec.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")), "{workload}");
    }
    assert_eq!(spec.matches("\"why\":").count(), WORKLOADS.len());
}

#[test]
fn every_named_metric_prints_with_its_unit_and_every_gate_holds() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run_clean(&config(workload, DEFAULT_SEED, trace, true));
            let line = result_line(&outcome, trace);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
            assert_eq!(outcome.failed(), 0, "{workload}: {line}");
            let table = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let value = printed_value(&line, name, unit);
                assert!(value.is_some(), "{workload} trace={trace}: no {name} in {unit}: {line}");
            }
            assert_eq!(line.matches("\"unit\":").count(), table.len(), "{line}");
            if !trace {
                for name in
                    ["pass_cpu_s", "jobs_per_cpu_s", "sim_minstr_per_cpu_s", "batch_cpu_p50_ms"]
                {
                    let unit = END_TO_END.iter().find(|(n, _)| *n == name).unwrap().1;
                    assert!(printed_value(&line, name, unit).unwrap() > 0.0, "{workload} {name}");
                }
            }
        }
    }
}

#[test]
fn replay_never_simulates_and_the_daemon_simulates_each_new_key_once() {
    let value = |workload: &str, name: &str| {
        let outcome = run_clean(&config(workload, DEFAULT_SEED, true, true));
        let metrics = outcome.metrics();
        metrics.iter().find(|(n, _)| *n == name).expect("metric reported").1
    };
    assert_eq!(value("replay-warm", "sim.runs"), 0.0);
    assert_eq!(value("service-mixed", "service.sims_per_unique_key"), 1.0);
    assert!(value("characterize-cold", "sim.runs") > 0.0);
}

#[test]
fn a_corrupted_measurement_byte_trips_the_digest_gate() {
    use mp_runtime::store::{decode_measurement, encode_measurement};
    use mp_runtime::Store;

    let _serial = serial();
    let config = config("replay-warm", DEFAULT_SEED, false, true);
    let inputs = Inputs::generate(&config);
    let digest = inputs.platform.uarch().spec_digest;
    let dir = config.scratch.join("store");
    let session = inputs.session(2).with_store(Store::open(&dir, digest).expect("store opens"));
    let reference = characterize(&session, &inputs, &mut Phase::default()).value();

    // Flip one byte of one stored measurement, and re-save it so the record's own
    // checksum is valid: only the digest gate can notice.
    let store = Store::open(&dir, digest).expect("store opens");
    let (bench, cfg) = inputs.job_refs()[inputs.jobs.len() / 2];
    let key = session.job_key(bench, cfg);
    let bytes = encode_measurement(&store.load(key).expect("the fill saved every job"));
    let corrupted = (0..bytes.len())
        .rev()
        .find_map(|at| {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            decode_measurement(&flipped).filter(|m| encode_measurement(m) == flipped)
        })
        .expect("some single-byte flip still decodes");
    store.save(key, &corrupted);

    let mut phase = Phase::default();
    let replayed = inputs.session(2).with_store(store);
    let answer = characterize(&replayed, &inputs, &mut phase);
    assert_eq!(phase.failed, 0, "the store serves the corrupted record as valid");
    characterize::gate(&mut Some(reference), answer, &mut phase, 7);
    assert_eq!(phase.failed, 7, "the digest gate fails the pass");
    let _ = std::fs::remove_dir_all(&config.scratch);
}

#[test]
fn the_uncached_spec_load_matches_the_embedded_backend() {
    let loaded = characterize::load_spec();
    assert_eq!(loaded.spec_digest, mp_uarch::power7().spec_digest);
}

#[test]
fn pinned_digests_hold_on_the_default_and_held_out_seeds() {
    assert!(digest::pinned("canary", DEFAULT_SEED).is_some());
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for pin in ["characterize-cold", "service-mixed/0", "service-mixed/1"] {
            assert!(digest::pinned(pin, seed).is_some(), "{pin} is pinned for seed {seed}");
        }
        for workload in WORKLOADS {
            let outcome = run_clean(&config(workload, seed, false, false));
            assert_eq!(outcome.failed(), 0, "{workload} seed {seed}");
        }
    }
}
