//! Benches for the `mp_runtime` subsystem: cost-aware `par_map` against its serial
//! baseline at every worker count (the CI perf gate's primary targets), the fixed cost
//! of spawning `par_map`'s scoped workers, and the memoized replay path of a session.
//!
//! Every `<group>/serial` entry is the plain `iter().map().collect()` loop; the
//! numeric entries run the same workload through the cost-aware executor at that
//! worker count.  `bench_gate` asserts the numeric medians never exceed serial beyond
//! tolerance — the "parallelism never loses" invariant.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use microprobe::platform::SimPlatform;
use microprobe::prelude::*;
use mp_power::SampleKind;
use mp_runtime::{par_map, CostHint, ExperimentPlan, ExperimentSession};
use mp_uarch::{CmpSmtConfig, SmtMode};

/// ~55 ns of integer mixing per item (64 rounds): small enough that parallel dispatch
/// can only lose — the scheduler must run the batch inline.
fn mix64(x: &u64) -> u64 {
    let mut v = *x;
    for _ in 0..64 {
        v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ *x;
    }
    v
}

/// ~2 µs of integer mixing per item (2048 rounds): a batch of these clears the
/// inline threshold, so this exercises real parallel dispatch.
fn mix2k(x: &u64) -> u64 {
    let mut v = *x;
    for _ in 0..2048 {
        v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ *x;
    }
    v
}

fn bench_par_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/par_map");
    group.sample_size(10);

    // Tiny jobs: 512 × ~55 ns ≈ 28 µs of total work.  The honest per-item hint makes
    // the scheduler run these inline at every worker count (spawning workers alone
    // would cost more than the whole batch).
    let items: Vec<u64> = (0..512).collect();
    group.bench_function(BenchmarkId::new("mix64", "serial"), |b| {
        b.iter(|| black_box(items.iter().map(mix64).collect::<Vec<u64>>()))
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("mix64", workers), &workers, |b, &w| {
            b.iter(|| par_map(w, CostHint::per_item_ns(55), &items, mix64))
        });
    }

    // Heavy jobs: 1024 × ~2 µs ≈ 2 ms of total work.  This clears the inline
    // threshold, so the numeric entries measure genuine parallel dispatch on at most
    // the host's parallelism of scoped workers.
    let heavy_items: Vec<u64> = (0..1024).collect();
    group.bench_function(BenchmarkId::new("mix2k", "serial"), |b| {
        b.iter(|| black_box(heavy_items.iter().map(mix2k).collect::<Vec<u64>>()))
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("mix2k", workers), &workers, |b, &w| {
            b.iter(|| par_map(w, CostHint::per_item_ns(2_000), &heavy_items, mix2k))
        });
    }
    group.finish();
}

/// The parallel dispatch round trip: spawn `w` scoped workers, run one empty job
/// each, join them.  This is the fixed cost the inline threshold is calibrated
/// against.
fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/pool");
    group.sample_size(10);
    for workers in [2usize, 8] {
        let items = vec![(); workers];
        group.bench_with_input(BenchmarkId::new("dispatch", workers), &workers, |b, &w| {
            b.iter(|| par_map(w, CostHint::Unknown, &items, |_| ()))
        });
    }
    group.finish();
}

/// Hot memo-cache hammering: the workload of the measurement daemon, where many
/// client connections replay already-measured jobs against one shared session.  Total
/// work is held constant — `TOTAL_LOOKUPS` memoized `measure` calls, split across the
/// worker count — so the numeric entries isolate pure cache-path contention: with one
/// global map lock every thread serialises on the same mutex (and clones its
/// measurement while holding it); with the sharded cache, threads hammering distinct
/// keys take distinct locks.
fn bench_cache_contention(c: &mut Criterion) {
    // Enough lookups that one iteration spans several scheduler quanta — below that,
    // threads on a small host rarely preempt each other mid-critical-section and lock
    // convoys never show up in the measurement.
    const TOTAL_LOOKUPS: usize = 2048;

    let arch = mp_uarch::power7();
    let computes = arch.isa.compute_instructions();
    let config = CmpSmtConfig::new(1, SmtMode::Smt1);
    // One distinct kernel per hammering thread, so concurrent lookups are for
    // *different* keys — the daemon's steady state, and the case sharding helps.  The
    // kernels are deliberately tiny: content-hashing is proportional to kernel length,
    // and an over-long kernel would bury the cache path this group exists to measure.
    let benches: Vec<_> = (0..8)
        .map(|seed| {
            let mut synth = Synthesizer::new(mp_uarch::power7())
                .with_name_prefix("bench-contention")
                .with_seed(seed);
            synth.add_pass(SkeletonPass::endless_loop(6));
            synth.add_pass(InstructionMixPass::uniform(computes.clone()));
            synth.synthesize().expect("contention benchmark synthesizes")
        })
        .collect();

    let session = ExperimentSession::new(SimPlatform::power7_fast());
    for bench in &benches {
        let _ = session.measure(bench, config);
    }

    let mut group = c.benchmark_group("runtime/cache_contention");
    // Iterations here are ~15 ms, so samples hold a single iteration; a generous
    // sample count keeps the medians robust against sub-second ambient-noise bursts
    // (which would otherwise swallow a whole entry on a small CI host).
    //
    // Every variant — including 1 — goes through the same thread-scope path, and the
    // baseline is deliberately named `1`, not `serial`: bench_gate only pairs numeric
    // variants with a `serial` sibling, and this group is a contention *instrument*
    // (compare across snapshots, e.g. pre/post sharding), not a scheduling invariant.
    // All variants do identical total work, so on a single-CPU host their ordering is
    // pure scheduler noise — gating it against a 10% tolerance would be a coin flip.
    group.sample_size(60);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("hot_hits", threads), &threads, |b, &n| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for t in 0..n {
                        let session = &session;
                        let bench = &benches[t % benches.len()];
                        scope.spawn(move || {
                            for _ in 0..TOTAL_LOOKUPS / n {
                                black_box(session.measure(bench, config));
                            }
                        });
                    }
                })
            })
        });
    }
    group.finish();
}

fn bench_session(c: &mut Criterion) {
    let arch = mp_uarch::power7();
    let computes = arch.isa.compute_instructions();
    let mut synth = Synthesizer::new(arch).with_name_prefix("bench-session");
    synth.add_pass(SkeletonPass::endless_loop(32));
    synth.add_pass(InstructionMixPass::uniform(computes));
    let bench = synth.synthesize().expect("benchmark synthesizes");

    let mut plan = ExperimentPlan::new();
    let configs = [CmpSmtConfig::new(1, SmtMode::Smt1), CmpSmtConfig::new(2, SmtMode::Smt2)];
    plan.sweep("bench-session", &bench, &configs, SampleKind::Random);

    let session = ExperimentSession::new(SimPlatform::power7_fast());
    // Warm the memo cache; the bench then measures the pure replay path
    // (content-hashing + cache lookup + sample relabelling, no simulation).
    let _ = session.run(&plan);

    let mut group = c.benchmark_group("runtime/session");
    group.sample_size(10);
    group.bench_function("memoized_replay", |b| b.iter(|| black_box(session.run(&plan))));
    group.finish();
}

criterion_group!(
    runtime_benches,
    bench_par_map,
    bench_pool_dispatch,
    bench_cache_contention,
    bench_session
);
criterion_main!(runtime_benches);
