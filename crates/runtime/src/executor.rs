//! Layer 1: a deterministic parallel map over independent jobs.
//!
//! [`par_map`] is the whole API.  It picks a worker count for the batch; one worker
//! means the plain serial map on the caller's thread.  Otherwise it opens a
//! [`std::thread::scope`] with that many workers, and each worker claims the next
//! unclaimed item index from one shared atomic cursor until the batch runs dry.
//! Results land by input index, so the output is identical to the serial
//! `items.iter().map(f).collect()` for every worker count and interleaving.  A free
//! worker always takes the next unclaimed item, so one pathologically slow job never
//! strands the jobs queued behind it.
//!
//! The worker count is the requested count (explicit, else `MP_THREADS`, else the
//! host parallelism — see [`default_workers`]) capped at the batch length, and
//! then priced by the batch's [`CostHint`]: a hinted batch too cheap to pay for
//! spawning workers runs inline, and a larger one never asks for more workers than
//! the host has cores.  A panic in any job stops the remaining jobs and is re-raised
//! on the caller's thread once every worker has joined.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::faults;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "MP_THREADS";

/// A hinted batch estimated under this many nanoseconds of total serial work runs
/// inline on the caller.  Spawning scoped workers costs tens of microseconds for 2
/// workers and a few hundred for 8, so batches under half a millisecond cannot
/// reliably recover it; measurement jobs (simulations, ≥ ~1 ms each) clear this
/// threshold from two jobs up.
const INLINE_THRESHOLD_NS: u64 = 500_000;

/// The default worker count: `MP_THREADS` when set to a positive integer, otherwise the
/// host's available parallelism.
pub fn default_workers() -> usize {
    workers_from_env_value(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Parses an `MP_THREADS` value, falling back to the host parallelism when absent or
/// malformed (split out of [`default_workers`] so the parsing is unit-testable without
/// mutating the process environment).
fn workers_from_env_value(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(host_parallelism)
}

/// The host's available parallelism (4 when unknowable) — the useful upper bound on
/// workers for batches whose items are independent.  Read once per process: on Linux
/// the query reads cgroup files, which would cost a cheap inline batch more than its
/// work.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// The index of the [`par_map`] worker running the current thread, if any: jobs can
/// call this to attribute work to workers.  Inline batches run with `None`.
pub fn worker_index() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

thread_local! {
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// A caller's estimate of what one item of a [`par_map`] batch costs to compute.
///
/// The hint only ever changes *scheduling* — how many threads run the batch — never
/// results: every path orders results by input index, so output is byte-identical to
/// the serial map for any hint and worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostHint {
    /// Per-item cost unknown: use every requested worker.  This is the only safe
    /// choice for items that may wait on each other, so it is the default.
    #[default]
    Unknown,
    /// Items cost roughly this many nanoseconds of serial work each.  Batches whose
    /// estimated total is under half a millisecond run inline on the caller; larger
    /// ones run on at most the host's parallelism.
    PerItemNs(u64),
}

impl CostHint {
    /// A per-item estimate in nanoseconds (clamped to at least 1).
    pub fn per_item_ns(ns: u64) -> Self {
        Self::PerItemNs(ns.max(1))
    }
}

/// The pure scheduling decision: how many workers run a batch of `len` items, with 1
/// meaning the serial map on the caller.  `host` is the host's parallelism.
fn worker_count(workers: usize, len: usize, cost: CostHint, host: usize) -> usize {
    let workers = workers.max(1).min(len.max(1));
    match cost {
        CostHint::Unknown => workers,
        CostHint::PerItemNs(per) if per.saturating_mul(len as u64) < INLINE_THRESHOLD_NS => 1,
        // Hinted items are independent by contract, so workers beyond the host's cores
        // only add timeslice thrash.
        CostHint::PerItemNs(_) => workers.min(host),
    }
}

/// Maps `f` over `items` on up to `workers` threads (see the [module docs](self) for
/// how the count is chosen) with deterministic result ordering:
/// `result[i] == f(&items[i])`.
///
/// # Panics
///
/// Re-raises the first panic of any job (the lowest-numbered panicking worker's),
/// after every worker has joined.
pub fn par_map<T, R, F>(workers: usize, cost: CostHint, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = worker_count(workers, items.len(), cost, host_parallelism());
    if mp_telemetry::enabled() {
        mp_telemetry::counter("executor.par_map_calls", 1);
        mp_telemetry::counter("executor.jobs", items.len() as u64);
        mp_telemetry::gauge("executor.workers", workers as f64);
    }
    if workers == 1 {
        mp_telemetry::counter("executor.inline_jobs", items.len() as u64);
        return items.iter().map(f).collect();
    }

    let _scope_span = mp_telemetry::span("executor.scope");
    let (f, next, stop) = (&f, &AtomicUsize::new(0), &AtomicBool::new(false));
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let mut panic = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                std::thread::Builder::new()
                    .name(format!("mp-worker-{me}"))
                    .spawn_scoped(scope, move || worker(me, items, f, next, stop))
                    .expect("spawning a worker thread succeeds")
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    slots.into_iter().map(|slot| slot.expect("a worker computed every item")).collect()
}

/// One worker's life: claim item indices from `next` until the batch runs dry or a
/// job panics, returning the `(index, result)` pairs it computed.
fn worker<T, R>(
    me: usize,
    items: &[T],
    f: &(impl Fn(&T) -> R + Sync),
    next: &AtomicUsize,
    stop: &AtomicBool,
) -> Vec<(usize, R)> {
    WORKER_INDEX.with(|w| w.set(Some(me)));
    if mp_telemetry::enabled() {
        mp_telemetry::set_thread_label(&format!("worker-{me}"));
    }
    let mut done = Vec::new();
    // `Relaxed` suffices for both atomics: they publish no other data.  Each index is
    // claimed exactly once because read-modify-writes of one atomic are totally
    // ordered, and results and panic payloads reach the caller through the join.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        while !stop.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            // Injected delays reorder which worker runs what — never the results
            // (the determinism suites run under a delay plan to prove exactly that).
            faults::maybe_delay("executor.task");
            let _task_span = mp_telemetry::span("executor.task");
            done.push((i, f(item)));
        }
    }));
    // Drain this worker's telemetry buffer before returning: the scope joins the
    // worker's closure, not its thread-local destructors, so relying on the
    // thread-exit flush would race the caller's snapshot.
    mp_telemetry::flush();
    if let Err(payload) = outcome {
        stop.store(true, Ordering::Relaxed);
        resume_unwind(payload);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    #[test]
    fn par_map_matches_serial_for_every_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in 1..=8 {
            let parallel = par_map(workers, CostHint::Unknown, &items, |x| x * x + 1);
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn par_map_matches_serial_for_every_cost_hint() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31) ^ 5).collect();
        let hints = [
            CostHint::Unknown,
            CostHint::per_item_ns(1),
            CostHint::per_item_ns(10_000),
            CostHint::per_item_ns(u64::MAX),
        ];
        for hint in hints {
            for workers in [1usize, 2, 5, 8] {
                let parallel = par_map(workers, hint, &items, |x| x.wrapping_mul(31) ^ 5);
                assert_eq!(parallel, serial, "workers={workers} hint={hint:?}");
            }
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        assert_eq!(par_map(4, CostHint::Unknown, &[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(par_map(4, CostHint::Unknown, &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn scheduling_decisions_follow_the_cost_model() {
        const HOST: usize = 4;
        // Trivial shapes run serially regardless of hint.
        assert_eq!(worker_count(1, 100, CostHint::Unknown, HOST), 1);
        assert_eq!(worker_count(8, 1, CostHint::per_item_ns(10_000_000), HOST), 1);
        assert_eq!(worker_count(8, 0, CostHint::Unknown, HOST), 1);
        // Unknown cost: every requested worker (items may wait on each other), but
        // never more workers than items.
        assert_eq!(worker_count(8, 100, CostHint::Unknown, HOST), 8);
        assert_eq!(worker_count(8, 3, CostHint::Unknown, HOST), 3);
        // Cheap batch below the threshold: inline (512 * 60ns ≈ 31 µs).
        assert_eq!(worker_count(8, 512, CostHint::per_item_ns(60), HOST), 1);
        // Expensive batch: parallel, capped at the host's parallelism...
        assert_eq!(worker_count(8, 512, CostHint::per_item_ns(2_000), HOST), HOST);
        // ...and at the batch length (two jobs of 300 µs each).
        assert_eq!(worker_count(8, 2, CostHint::per_item_ns(300_000), HOST), 2);
        assert_eq!(worker_count(2, 100, CostHint::per_item_ns(1_000_000), HOST), 2);
        // A zero hint is free (inline), and an absurd one saturates.
        assert_eq!(worker_count(8, 4, CostHint::PerItemNs(0), HOST), 1);
        assert_eq!(worker_count(8, 4, CostHint::PerItemNs(u64::MAX), HOST), HOST);
    }

    #[test]
    fn cheap_hinted_batches_never_leave_the_caller_thread() {
        let items: Vec<u64> = (0..64).collect();
        let caller = std::thread::current().id();
        let results = par_map(8, CostHint::per_item_ns(50), &items, |x| {
            assert_eq!(std::thread::current().id(), caller, "inline batch must stay inline");
            assert_eq!(worker_index(), None, "inline jobs run outside any worker");
            x + 1
        });
        assert_eq!(results, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn job_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, CostHint::Unknown, &[1u32, 2, 3, 4, 5, 6], |x| {
                if *x == 4 {
                    panic!("job four exploded");
                }
                *x
            })
        });
        let payload = result.expect_err("the job panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "job four exploded");
    }

    #[test]
    fn env_override_parses_and_falls_back() {
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        assert_eq!(workers_from_env_value(Some("6")), 6);
        assert_eq!(workers_from_env_value(Some(" 2 ")), 2);
        assert_eq!(workers_from_env_value(Some("0")), host);
        assert_eq!(workers_from_env_value(Some("lots")), host);
        assert_eq!(workers_from_env_value(None), host);
    }

    /// Regression test for the chunk-per-thread scheduling this executor replaced: one
    /// pathologically slow job must not strand the jobs queued behind it.  Job 0 blocks
    /// until every other job has completed — under contiguous chunking the jobs sharing
    /// its chunk could never run and this would time out; with the shared cursor (and
    /// [`CostHint::Unknown`], which mutually dependent jobs rely on to get every
    /// requested worker) the other worker drains them while job 0 waits.
    #[test]
    fn stealing_keeps_workers_busy_behind_a_slow_job() {
        let jobs: Vec<usize> = (0..8).collect();
        let (done_tx, done_rx) = mpsc::channel::<usize>();
        let done_rx = Mutex::new(done_rx);
        let completion_order = Mutex::new(Vec::new());

        let results = par_map(2, CostHint::Unknown, &jobs, |&job| {
            if job == 0 {
                // The slow job: wait (with a generous timeout) for the other 7.
                let rx = done_rx.lock().expect("receiver lock never poisoned");
                for _ in 0..jobs.len() - 1 {
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("remaining jobs must complete while job 0 runs");
                }
                completion_order.lock().expect("order lock never poisoned").push(job);
            } else {
                completion_order.lock().expect("order lock never poisoned").push(job);
                done_tx.send(job).expect("receiver outlives the jobs");
            }
            worker_index().expect("jobs run on workers")
        });

        let order = completion_order.into_inner().expect("order lock never poisoned");
        assert_eq!(*order.last().expect("jobs ran"), 0, "the slow job must finish last");
        // The slow job pinned one worker, so the other worker must have run the rest.
        let workers: HashSet<usize> = results.iter().copied().collect();
        assert_eq!(workers.len(), 2, "both workers must execute jobs: {results:?}");
    }
}
