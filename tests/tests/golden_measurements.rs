//! Golden-measurement regression test: the simulator's observable results are pinned
//! bit-for-bit.
//!
//! The pre-decode rewrite (and any future simulator performance work) must not change
//! any measurable output: counters, power trace, energy breakdowns and the RNG-driven
//! branch/noise streams all feed figures and trained models, so even a last-bit f64
//! difference silently shifts every downstream number.  This test runs the fixed
//! reference kernel set through `ChipSim` across CMP/SMT configurations and compares a
//! fingerprint of every `Measurement` field against checked-in golden hashes.
//!
//! If a change *intends* to alter simulator results, regenerate the table by running
//! the test and copying the printed `actual` values — and say so in the PR.

use mp_isa::fnv::fnv1a64;
use mp_runtime::codec::{put_f64, put_u64};
use mp_sim::fixtures::{reference_kernels, uncore_contention_pair};
use mp_sim::{ChipSim, Kernel, Measurement, SimOptions, UncoreMode};
use mp_uarch::{power7, CmpSmtConfig, CounterId, SmtMode};

/// The counter set of the pre-shared-uncore simulator, in its original order.  The
/// private-mode golden hashes below were recorded over exactly these counters; the
/// uncore counters added later (`L3Accesses`, `L3Misses`, `BwStalls`) are hashed only
/// by the shared-mode table, so the legacy fingerprints stay byte-identical.
const LEGACY_COUNTERS: [CounterId; 14] = [
    CounterId::Cycles,
    CounterId::InstrCompleted,
    CounterId::FxuOps,
    CounterId::LsuOps,
    CounterId::VsuOps,
    CounterId::DfuOps,
    CounterId::BruOps,
    CounterId::Loads,
    CounterId::Stores,
    CounterId::Prefetches,
    CounterId::L1Hits,
    CounterId::L2Hits,
    CounterId::L3Hits,
    CounterId::MemAccesses,
];

/// Hashes every observable field of a measurement over the given counter set, in a
/// stable order.
fn fingerprint_with(m: &Measurement, counters: &[CounterId]) -> u64 {
    let mut bytes = Vec::new();
    put_u64(&mut bytes, u64::from(m.config().cores));
    put_u64(&mut bytes, u64::from(m.config().smt.threads_per_core()));
    put_u64(&mut bytes, m.cycles());
    for c in m.per_thread() {
        for &id in counters {
            put_u64(&mut bytes, c.get(id));
        }
    }
    put_f64(&mut bytes, m.average_power());
    put_u64(&mut bytes, m.trace().cycles_per_sample());
    for &s in m.trace().samples() {
        put_f64(&mut bytes, s);
    }
    let gt = m.ground_truth();
    for v in [gt.idle, gt.uncore, gt.cmp, gt.smt, gt.dynamic_compute, gt.dynamic_memory] {
        put_f64(&mut bytes, v);
    }
    fnv1a64(&bytes)
}

/// Options pinned forever — the golden hashes depend on every field.
fn golden_sim() -> ChipSim {
    ChipSim::new(power7()).with_options(SimOptions {
        warmup_cycles: 1_500,
        measure_cycles: 4_000,
        sample_cycles: 500,
        noise_fraction: 0.0025,
        prefetch_enabled: true,
        seed: 0x0060_1de2,
        uncore_mode: UncoreMode::Private,
    })
}

/// The same pinned options with the shared chip-level uncore enabled.
fn golden_shared_sim() -> ChipSim {
    let mut options = golden_sim().options().clone();
    options.uncore_mode = UncoreMode::Shared;
    ChipSim::new(power7()).with_options(options)
}

fn golden_runs() -> Vec<(String, u64)> {
    let sim = golden_sim();
    let kernels = reference_kernels(&sim.uarch().isa);
    let configs = [
        CmpSmtConfig::new(1, SmtMode::Smt1),
        CmpSmtConfig::new(1, SmtMode::Smt4),
        CmpSmtConfig::new(2, SmtMode::Smt2),
    ];
    let mut out = Vec::new();
    for kernel in &kernels {
        for config in configs {
            let m = sim.run(kernel, config);
            out.push((
                format!("{}/{}", kernel.name(), config.label()),
                fingerprint_with(&m, &LEGACY_COUNTERS),
            ));
        }
    }
    // A heterogeneous deployment exercises per-thread kernel state (distinct bodies,
    // data profiles and misprediction rates sharing one core's pipes).
    let config = CmpSmtConfig::new(1, SmtMode::Smt4);
    let mix: Vec<Kernel> =
        vec![kernels[0].clone(), kernels[1].clone(), kernels[2].clone(), kernels[0].clone()];
    let m = sim.run_heterogeneous(&mix, config);
    out.push(("heterogeneous/1-4".to_owned(), fingerprint_with(&m, &LEGACY_COUNTERS)));
    out
}

/// Shared-uncore golden runs: the reference kernels plus the contention pair, hashed
/// over the *full* counter set (including the uncore counters).
fn golden_shared_runs() -> Vec<(String, u64)> {
    let sim = golden_shared_sim();
    let isa = &sim.uarch().isa;
    let kernels = reference_kernels(isa);
    let (contender_a, contender_b) = uncore_contention_pair(isa);
    let mut out = Vec::new();
    for kernel in &kernels {
        let m = sim.run(kernel, CmpSmtConfig::new(1, SmtMode::Smt4));
        let label = format!("shared/{}/1-4", kernel.name());
        out.push((label, fingerprint_with(&m, &CounterId::ALL)));
    }
    let m = sim.run(&contender_a, CmpSmtConfig::new(1, SmtMode::Smt1));
    out.push(("shared/contender/1-1".to_owned(), fingerprint_with(&m, &CounterId::ALL)));
    let m = sim.run_heterogeneous(&[contender_a, contender_b], CmpSmtConfig::new(2, SmtMode::Smt1));
    out.push(("shared/contention_pair/2-1".to_owned(), fingerprint_with(&m, &CounterId::ALL)));
    out
}

const GOLDEN: [(&str, u64); 10] = [
    ("fix_compute/1-1", 0xc49715601ab61677),
    ("fix_compute/1-4", 0x7e3bd8a2c7dbfad9),
    ("fix_compute/2-2", 0x7a68d4aa210102ae),
    ("fix_memory/1-1", 0x9300859501889d14),
    ("fix_memory/1-4", 0xc1babfab1bb344e6),
    ("fix_memory/2-2", 0xd72109b67268b21f),
    ("fix_branchy/1-1", 0x615d4b9092408763),
    ("fix_branchy/1-4", 0xd457df3fdc4be690),
    ("fix_branchy/2-2", 0x0afb1539944ccc3a),
    ("heterogeneous/1-4", 0x6dcca0887ba54bba),
];

/// Shared-uncore golden hashes, recorded when the subsystem was introduced (full
/// counter set, same pinned options as the private table).
const GOLDEN_SHARED: [(&str, u64); 5] = [
    ("shared/fix_compute/1-4", 0x25a565137b457c01),
    ("shared/fix_memory/1-4", 0x962529a68ef91426),
    ("shared/fix_branchy/1-4", 0xfde6a1763782cb10),
    ("shared/contender/1-1", 0xc99dcdb40670f264),
    ("shared/contention_pair/2-1", 0x2f6dc90ba7f12f47),
];

fn assert_matches_golden(actual: &[(String, u64)], expected: &[(&str, u64)], table: &str) {
    let expected: Vec<(String, u64)> =
        expected.iter().map(|(label, hash)| ((*label).to_owned(), *hash)).collect();
    if actual != expected.as_slice() {
        for (label, hash) in actual {
            eprintln!("    (\"{label}\", {hash:#018x}),");
        }
        panic!(
            "simulator measurements diverged from the {table} golden table; if the \
             change is intentional, replace the table with the values printed above"
        );
    }
}

#[test]
fn measurements_match_golden_hashes() {
    assert_matches_golden(&golden_runs(), &GOLDEN, "private-mode");
}

#[test]
fn shared_uncore_measurements_match_golden_hashes() {
    assert_matches_golden(&golden_shared_runs(), &GOLDEN_SHARED, "shared-mode");
}

#[test]
fn golden_runs_are_reproducible_within_a_process() {
    assert_eq!(golden_runs(), golden_runs());
    assert_eq!(golden_shared_runs(), golden_shared_runs());
}
