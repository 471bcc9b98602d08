//! Integration tests for the crash-safe persistent measurement store
//! ([`mp_runtime::store`]): disk round-trips are the identity, torn records at *every*
//! byte offset quarantine-and-recompute (never a wrong result), stale-backend records
//! are evicted, and a killed run resumes from pure disk hits with byte-identical
//! output.
//!
//! These tests pin fault injection **off** (restoring the ambient `MP_FAULTS` plan
//! afterwards): they prove the recovery machinery against hand-made corruption, while
//! the `fault_injection` suite proves it against injected failures.  That makes this
//! suite safe — and still meaningful — under the CI fault-injection job's ambient
//! `MP_FAULTS`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use microprobe::ir::MicroBenchmark;
use microprobe::platform::{Platform, SimPlatform};
use microprobe::prelude::*;
use mp_integration::{pin_faults, TempDir};
use mp_runtime::{ExperimentSession, Store};
use mp_sim::{EnergyBreakdown, Measurement, PowerTrace};
use mp_uarch::{CmpSmtConfig, CounterValues, MicroArchitecture, SmtMode};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

/// The documented record layout: `<root>/<2-hex-shard>/<key:032x>.mmt` with the shard
/// being the key's top byte.  Computed independently here so the tests double as a
/// contract check on the on-disk layout.
fn record_path(root: &Path, key: u128) -> PathBuf {
    root.join(format!("{:02x}", (key >> 120) as u8)).join(format!("{key:032x}.mmt"))
}

fn fast_platform() -> SimPlatform {
    SimPlatform::power7_fast()
}

fn tiny_benchmark(name: &str, seed: u64) -> MicroBenchmark {
    let arch = mp_uarch::power7();
    let computes = arch.isa.compute_instructions();
    let mut synth = Synthesizer::new(arch).with_name_prefix(name).with_seed(seed);
    synth.add_pass(SkeletonPass::endless_loop(24));
    synth.add_pass(InstructionMixPass::uniform(computes));
    synth.synthesize().expect("tiny benchmark synthesizes")
}

/// A platform wrapper that counts `run` calls — how the resume tests prove "pure disk
/// hits" (zero simulator invocations) instead of inferring it from timings.
struct CountingPlatform {
    inner: SimPlatform,
    runs: AtomicUsize,
}

impl CountingPlatform {
    fn new() -> Self {
        Self { inner: fast_platform(), runs: AtomicUsize::new(0) }
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::SeqCst)
    }
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

fn spec_digest() -> u128 {
    fast_platform().uarch().spec_digest
}

// ---------------------------------------------------------------------------
// Property: write → load is the identity for arbitrary measurements.
// ---------------------------------------------------------------------------

/// Builds an arbitrary-but-valid [`Measurement`] from one seed: random shape (cores,
/// SMT mode, sample count), random counters, and floats drawn from a pool that
/// includes the encoding's edge cases (negative zero, subnormals, infinities —
/// everything except NaN, which round-trips bit-exactly but defeats `PartialEq`).
fn arbitrary_measurement(seed: u64) -> Measurement {
    let mut rng = SmallRng::seed_from_u64(seed);
    let smt = [SmtMode::Smt1, SmtMode::Smt2, SmtMode::Smt4][rng.gen_range(0..3usize)];
    let config = CmpSmtConfig::new(rng.gen_range(1..=4u32), smt);
    let mut float = {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF10A7);
        move || -> f64 {
            match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::MIN_POSITIVE,
                5 => -f64::MAX,
                _ => rng.gen_range(-1e9..1e9f64),
            }
        }
    };
    let per_thread = (0..config.threads())
        .map(|_| CounterValues {
            cycles: rng.gen(),
            instr_completed: rng.gen(),
            fxu_ops: rng.gen(),
            lsu_ops: rng.gen(),
            vsu_ops: rng.gen(),
            dfu_ops: rng.gen(),
            bru_ops: rng.gen(),
            loads: rng.gen(),
            stores: rng.gen(),
            prefetches: rng.gen(),
            l1_hits: rng.gen(),
            l2_hits: rng.gen(),
            l3_hits: rng.gen(),
            mem_accesses: rng.gen(),
            l3_accesses: rng.gen(),
            l3_misses: rng.gen(),
            bw_stalls: rng.gen(),
        })
        .collect();
    let samples = (0..rng.gen_range(0..32usize)).map(|_| float()).collect();
    Measurement::new(
        config,
        rng.gen(),
        per_thread,
        float(),
        PowerTrace::new(samples, rng.gen()),
        EnergyBreakdown {
            idle: float(),
            uncore: float(),
            cmp: float(),
            smt: float(),
            dynamic_compute: float(),
            dynamic_memory: float(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_measurements_roundtrip_through_the_store(
        seed in 0u64..u64::MAX,
        key_lo in 0u64..u64::MAX,
        key_hi in 0u64..u64::MAX,
    ) {
        let _faults_off = pin_faults(None);
        let dir = TempDir::new("mp-store-it-roundtrip");
        let key = (u128::from(key_hi) << 64) | u128::from(key_lo);
        let store = Store::open(dir.path(), 7).expect("store opens");
        let original = arbitrary_measurement(seed);
        store.save(key, &original);
        // Write → load must be the identity.
        prop_assert_eq!(store.load(key), Some(original));
        prop_assert_eq!(store.stats().quarantined, 0);
    }
}

// ---------------------------------------------------------------------------
// Torn-write recovery.
// ---------------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_offset_quarantines_and_recomputes() {
    let _faults_off = pin_faults(None);
    let dir = TempDir::new("mp-store-it-torn-sweep");
    let store = Store::open(dir.path(), spec_digest()).expect("store opens");
    let measurement =
        fast_platform().run(&tiny_benchmark("torn", 3), CmpSmtConfig::new(1, SmtMode::Smt2));
    let key = 0x1234_5678_9abc_def0u128;
    store.save(key, &measurement);
    let path = record_path(dir.path(), key);
    let intact = std::fs::read(&path).expect("the record exists at its documented path");

    for len in 0..intact.len() {
        std::fs::create_dir_all(path.parent().expect("shard dir")).expect("shard dir recreates");
        std::fs::write(&path, &intact[..len]).expect("plant the torn record");
        assert_eq!(
            store.load(key),
            None,
            "a record truncated to {len}/{} bytes must be a miss, never a wrong result",
            intact.len()
        );
        assert!(!path.exists(), "the torn record must leave the lookup path (len {len})");
        // Recompute-and-save heals the entry; the healed record loads intact.
        store.save(key, &measurement);
        assert_eq!(
            store.load(key).as_ref(),
            Some(&measurement),
            "healed after truncation to {len}"
        );
    }
    assert_eq!(store.stats().quarantined as usize, intact.len(), "every tear was quarantined");
}

#[test]
fn stale_backend_records_are_evicted_not_served() {
    let _faults_off = pin_faults(None);
    let dir = TempDir::new("mp-store-it-stale");
    let measurement =
        fast_platform().run(&tiny_benchmark("stale", 9), CmpSmtConfig::new(1, SmtMode::Smt1));
    let key = 42u128;

    let old_backend = Store::open(dir.path(), 0xAAAA).expect("store opens");
    old_backend.save(key, &measurement);
    drop(old_backend);

    // The same root reopened for a different machine spec: the record's digest no
    // longer matches, so it is quarantined and recomputed — never served across specs.
    let new_backend = Store::open(dir.path(), 0xBBBB).expect("store reopens");
    assert_eq!(new_backend.load(key), None);
    assert_eq!(new_backend.stats().quarantined, 1);
    assert!(
        dir.path().join("quarantine").join(format!("{key:032x}.mmt")).exists(),
        "the stale record is preserved for post-mortems"
    );
}

// ---------------------------------------------------------------------------
// Kill-and-resume.
// ---------------------------------------------------------------------------

/// The measurement plan both "processes" of the resume tests run.
fn resume_jobs() -> (Vec<MicroBenchmark>, Vec<CmpSmtConfig>) {
    let benches = (0..3).map(|i| tiny_benchmark(&format!("resume{i}"), 40 + i)).collect();
    let configs = vec![CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
    (benches, configs)
}

fn run_plan(session: &ExperimentSession<CountingPlatform>) -> (String, String) {
    let (benches, configs) = resume_jobs();
    let jobs: Vec<(&MicroBenchmark, CmpSmtConfig)> =
        benches.iter().flat_map(|b| configs.iter().map(move |&c| (b, c))).collect();
    let measurements = session.measure_batch(&jobs);
    // The per-measurement "output" and the uniform stats line — the in-process stand-in
    // for the binary stdout the CI persistence step `cmp`s.
    (format!("{measurements:?}"), session.stats().summary_line())
}

#[test]
fn a_second_run_against_the_same_store_is_pure_disk_hits_with_identical_output() {
    let _faults_off = pin_faults(None);
    let dir = TempDir::new("mp-store-it-resume");

    // "Process" 1: cold store, every job simulated and persisted.
    let first = ExperimentSession::new(CountingPlatform::new())
        .with_workers(2)
        .with_store(Store::open(dir.path(), spec_digest()).expect("store opens"));
    let (cold_output, cold_stats) = run_plan(&first);
    let unique_jobs = first.platform().runs();
    assert!(unique_jobs > 0, "the cold run simulates");
    assert_eq!(first.store().expect("attached").stats().writes as usize, unique_jobs);
    drop(first);

    // "Process" 2 (after the kill): fresh session, same store root.
    let second = ExperimentSession::new(CountingPlatform::new())
        .with_workers(2)
        .with_store(Store::open(dir.path(), spec_digest()).expect("store reopens"));
    let (warm_output, warm_stats) = run_plan(&second);
    assert_eq!(second.platform().runs(), 0, "the resumed run must be pure disk hits");
    let store_stats = second.store().expect("attached").stats();
    assert_eq!(store_stats.hits as usize, unique_jobs);
    assert_eq!(store_stats.misses, 0);
    assert_eq!(warm_output, cold_output, "results are byte-identical across the restart");
    assert_eq!(warm_stats, cold_stats, "and so is the stdout stats line");
}

#[test]
fn a_run_killed_mid_write_resumes_without_corruption_or_divergence() {
    let _faults_off = pin_faults(None);
    let dir = TempDir::new("mp-store-it-killed");

    let first = ExperimentSession::new(CountingPlatform::new())
        .with_workers(2)
        .with_store(Store::open(dir.path(), spec_digest()).expect("store opens"));
    let (cold_output, cold_stats) = run_plan(&first);
    let unique_jobs = first.platform().runs();
    drop(first);

    // Simulate the kill arriving mid-write: one record's data never fully reached the
    // disk (truncate it in place), and an orphaned temp file survives in its shard.
    let mut shards: Vec<PathBuf> = std::fs::read_dir(dir.path())
        .expect("store root lists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    shards.sort();
    let victim = shards
        .iter()
        .flat_map(|shard| std::fs::read_dir(shard).expect("shard lists").filter_map(|e| e.ok()))
        .map(|entry| entry.path())
        .find(|p| p.extension().is_some_and(|ext| ext == "mmt"))
        .expect("the cold run left records");
    let bytes = std::fs::read(&victim).expect("record reads");
    std::fs::write(&victim, &bytes[..bytes.len() / 3]).expect("tear the record");
    std::fs::write(
        victim.with_extension("999-0.tmp"),
        b"half-written garbage from the killed process",
    )
    .expect("orphan temp file plants");

    // The resumed run must not crash, must not return a wrong result, and must only
    // recompute the one torn record.
    let second = ExperimentSession::new(CountingPlatform::new())
        .with_workers(2)
        .with_store(Store::open(dir.path(), spec_digest()).expect("store reopens"));
    let (warm_output, warm_stats) = run_plan(&second);
    assert_eq!(warm_output, cold_output, "output is byte-identical despite the torn record");
    assert_eq!(warm_stats, cold_stats);
    assert_eq!(second.platform().runs(), 1, "exactly the torn record is recomputed");
    let store_stats = second.store().expect("attached").stats();
    assert_eq!(store_stats.quarantined, 1);
    assert_eq!(store_stats.hits as usize, unique_jobs - 1);

    // A third run is fully warm again: the recompute healed the store.
    let third = ExperimentSession::new(CountingPlatform::new())
        .with_workers(2)
        .with_store(Store::open(dir.path(), spec_digest()).expect("store reopens again"));
    let (healed_output, _) = run_plan(&third);
    assert_eq!(healed_output, cold_output);
    assert_eq!(third.platform().runs(), 0);
}
