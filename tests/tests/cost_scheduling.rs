//! Property + regression tests for the cost-aware scheduler in `mp_runtime`.
//!
//! The scheduler may *route* a batch however it likes — inline on the caller or
//! spread over scoped workers — but the routing must be invisible in the results: for
//! every adversarial job-size mix, every cost hint and every worker count in `1..=8`,
//! `par_map` must be byte-identical to the plain serial loop.  The regression tests
//! then pin the two routing guarantees the benchmarks rely on: cheap hinted batches
//! never leave the caller's thread, and expensive hinted batches run on workers but
//! never on more of them than the host has cores.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

use mp_runtime::{par_map, worker_index, CostHint};
use proptest::prelude::*;

/// A deterministic integer-mixing job whose cost scales with `rounds` — the knob the
/// adversarial mixes turn.
fn spin(rounds: u32, x: u64) -> u64 {
    let mut v = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    for _ in 0..rounds {
        v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ x;
    }
    v
}

/// Adversarial job-size mixes, expressed as per-item `rounds` values: all-tiny,
/// all-huge, bimodal (tiny/huge interleaved), a single job, and a random mix.
fn job_mixes() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        (1usize..=64).prop_map(|n| vec![8u32; n]),
        (1usize..=8).prop_map(|n| vec![4096u32; n]),
        (2usize..=32).prop_map(|n| (0..n).map(|i| if i % 2 == 0 { 8u32 } else { 4096 }).collect()),
        Just(vec![4096u32]),
        proptest::collection::vec(0u32..2048, 1..48),
    ]
}

/// Cost hints covering every scheduling branch: the Unknown default (every requested
/// worker) and per-item estimates from "obviously inline" through "obviously
/// parallel" — including dishonest ones, which may only cost time, never correctness.
fn hints() -> impl Strategy<Value = CostHint> {
    prop_oneof![Just(CostHint::Unknown), (1u64..3_000_000).prop_map(CostHint::per_item_ns),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn scheduling_is_byte_identical_to_serial(jobs in job_mixes(), hint in hints()) {
        // Index-tagged items so a result landing in the wrong slot can never collide
        // with the right answer.
        let items: Vec<(u64, u32)> =
            jobs.iter().enumerate().map(|(i, &rounds)| (i as u64, rounds)).collect();
        let reference: Vec<u64> = items.iter().map(|&(i, rounds)| spin(rounds, i)).collect();
        for workers in 1usize..=8 {
            let mapped = par_map(workers, hint, &items, |&(i, rounds)| spin(rounds, i));
            prop_assert!(mapped == reference, "diverged at workers={} hint={:?}", workers, hint);
        }
    }
}

/// A batch whose hinted total cost sits far below the inline threshold must run
/// entirely on the caller's thread: no workers spawned, no `worker_index` identity.
#[test]
fn cheap_hinted_batches_never_reach_the_worker_pool() {
    let caller = thread::current().id();
    let items: Vec<u64> = (0..64).collect();
    let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    // 64 items × 100 ns ≈ 6.4 µs of hinted work — two orders of magnitude under the
    // default 500 µs threshold.
    let mapped = par_map(8, CostHint::per_item_ns(100), &items, |&x| {
        assert!(worker_index().is_none(), "inline job acquired a worker identity");
        threads.lock().expect("lock").insert(thread::current().id());
        x + 1
    });
    assert_eq!(mapped, (1..=64).collect::<Vec<u64>>());
    assert_eq!(
        *threads.lock().expect("lock"),
        HashSet::from([caller]),
        "an inline batch left the caller's thread"
    );
}

/// An expensive hinted batch runs on workers (every job carries a `worker_index`
/// identity), but on no more of them than the host has cores: hinted items are
/// independent, so extra workers would only thrash a small host's timeslices.
#[test]
fn expensive_hinted_batches_use_at_most_host_parallelism_workers() {
    const WORKERS: usize = 16;
    let host = thread::available_parallelism().map_or(4, |n| n.get());
    let items: Vec<u64> = (0..256).collect();
    let workers: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
    let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let mapped = par_map(WORKERS, CostHint::per_item_ns(1_000_000), &items, |&x| {
        let me = worker_index().expect("an expensive batch runs on workers");
        workers.lock().expect("lock").insert(me);
        threads.lock().expect("lock").insert(thread::current().id());
        spin(64, x)
    });
    assert_eq!(mapped, items.iter().map(|&x| spin(64, x)).collect::<Vec<u64>>());
    let workers = workers.into_inner().expect("lock");
    assert!(workers.iter().all(|&w| w < host), "worker index beyond the host cap: {workers:?}");
    let threads = threads.into_inner().expect("lock");
    assert!(threads.len() <= host, "{} threads ran a batch capped at {host}", threads.len());
    assert!(!threads.contains(&thread::current().id()), "a parallel batch ran on the caller");
}
