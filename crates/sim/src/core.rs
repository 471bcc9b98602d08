//! One SMT core: thread contexts, issue logic, execution pipes.
//!
//! The issue loop runs entirely over the pre-decoded kernel representation
//! ([`DecodedBody`]): per issue it does flat-array loads, one bitmask dependency scan
//! and one scoreboard update — no allocation, no hashing, no re-encoding.

use std::collections::VecDeque;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mp_isa::{IssueClass, Unit};
use mp_uarch::{CounterValues, MemLevel, MicroArchitecture};

use crate::cache_sim::CoreCaches;
use crate::decoded::{for_each_reg, masks_intersect, regs_ready, DecodedBody};
use crate::energy::{EnergyBreakdown, EnergyParams};
use crate::uncore::{UncoreMode, UncoreSim};

/// Number of in-flight instructions a thread can look ahead over when issuing — a small
/// out-of-order window standing in for POWER7's much larger out-of-order engine.
const ISSUE_WINDOW: usize = 12;
/// Pipeline flush penalty in cycles on a branch misprediction.
const MISPREDICT_PENALTY: u64 = 15;

/// One entry of a thread's issue window: a dynamic instance of a body instruction.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    body_idx: usize,
    issued: bool,
}

/// One execution pipe of a functional unit.
#[derive(Debug, Clone, Copy, Default)]
struct Pipe {
    busy_until: f64,
    last_encoding: u32,
}

/// Architectural state and issue window of one hardware thread.
#[derive(Debug)]
struct ThreadContext {
    /// The thread's kernel, compiled to the dense hot-loop representation.
    body: Rc<DecodedBody>,
    window: VecDeque<WindowEntry>,
    next_fetch: usize,
    /// Ready time of every register, indexed by the kernel's dense register id.
    reg_ready: Vec<u64>,
    stall_until: u64,
    counters: CounterValues,
    rng: SmallRng,
}

impl ThreadContext {
    fn new(body: Rc<DecodedBody>, seed: u64) -> Self {
        let reg_ready = vec![0; body.dense_regs()];
        Self {
            body,
            window: VecDeque::with_capacity(ISSUE_WINDOW),
            next_fetch: 0,
            reg_ready,
            stall_until: 0,
            counters: CounterValues::default(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn refill_window(&mut self) {
        while self.window.len() < ISSUE_WINDOW {
            self.window.push_back(WindowEntry { body_idx: self.next_fetch, issued: false });
            self.next_fetch = (self.next_fetch + 1) % self.body.len();
        }
    }

    fn retire_issued_head(&mut self) {
        while matches!(self.window.front(), Some(e) if e.issued) {
            self.window.pop_front();
        }
    }
}

/// The per-unit execution pipes of one core.
#[derive(Debug)]
struct Pipes {
    fxu: Vec<Pipe>,
    lsu: Vec<Pipe>,
    vsu: Vec<Pipe>,
    dfu: Vec<Pipe>,
    bru: Vec<Pipe>,
}

impl Pipes {
    /// Picks an execution pipe of `issue`'s class that frees up during cycle `now`.
    fn select(&self, issue: IssueClass, now: u64) -> Option<(Unit, usize)> {
        let deadline = (now + 1) as f64 - 1e-9;
        let free = |pipes: &[Pipe]| pipes.iter().position(|p| p.busy_until <= deadline);
        match issue {
            IssueClass::Fxu => free(&self.fxu).map(|i| (Unit::Fxu, i)),
            IssueClass::Lsu => free(&self.lsu).map(|i| (Unit::Lsu, i)),
            IssueClass::Vsu => free(&self.vsu).map(|i| (Unit::Vsu, i)),
            IssueClass::Dfu => free(&self.dfu).map(|i| (Unit::Dfu, i)),
            IssueClass::Bru => free(&self.bru).map(|i| (Unit::Bru, i)),
            IssueClass::FxuOrLsu => free(&self.fxu)
                .map(|i| (Unit::Fxu, i))
                .or_else(|| free(&self.lsu).map(|i| (Unit::Lsu, i))),
        }
    }

    fn get_mut(&mut self, unit: Unit, idx: usize) -> &mut Pipe {
        match unit {
            Unit::Fxu => &mut self.fxu[idx],
            Unit::Lsu => &mut self.lsu[idx],
            Unit::Vsu => &mut self.vsu[idx],
            Unit::Dfu => &mut self.dfu[idx],
            Unit::Bru => &mut self.bru[idx],
            Unit::Ifu | Unit::Isu => unreachable!("IFU/ISU are not execution pipes"),
        }
    }
}

/// One simulated SMT core.
#[derive(Debug)]
pub(crate) struct CoreSim {
    threads: Vec<ThreadContext>,
    caches: CoreCaches,
    pipes: Pipes,
    dispatch_width: u32,
    prefetch_counted: u64,
    /// Units that issued at least one instruction in the current cycle
    /// (FXU, LSU, VSU, DFU, BRU) — drives the per-active-cycle wake energy.
    cycle_units: [bool; 5],
}

fn unit_slot(unit: Unit) -> Option<usize> {
    match unit {
        Unit::Fxu => Some(0),
        Unit::Lsu => Some(1),
        Unit::Vsu => Some(2),
        Unit::Dfu => Some(3),
        Unit::Bru => Some(4),
        Unit::Ifu | Unit::Isu => None,
    }
}

const UNIT_SLOTS: [Unit; 5] = [Unit::Fxu, Unit::Lsu, Unit::Vsu, Unit::Dfu, Unit::Bru];

impl CoreSim {
    /// Creates a core running one pre-decoded kernel body per hardware thread.  The
    /// caller decodes each distinct kernel once (see `ChipSim::run_heterogeneous`) and
    /// shares the bodies across threads; the per-cycle loop never sees an
    /// `Instruction` again.
    pub(crate) fn new(
        uarch: &MicroArchitecture,
        bodies: Vec<Rc<DecodedBody>>,
        prefetch_enabled: bool,
        seed: u64,
        uncore_mode: UncoreMode,
    ) -> Self {
        let threads = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| ThreadContext::new(b, seed.wrapping_add(i as u64 * 7919)))
            .collect();
        let pipes = |n: u32| vec![Pipe::default(); n as usize];
        let caches = match uncore_mode {
            // Shared mode: the private L3 slice would never be touched, skip it.
            UncoreMode::Private => CoreCaches::new(&uarch.hierarchy, prefetch_enabled),
            UncoreMode::Shared => CoreCaches::new_shared(&uarch.hierarchy, prefetch_enabled),
        };
        Self {
            threads,
            caches,
            pipes: Pipes {
                fxu: pipes(uarch.pipes.fxu),
                lsu: pipes(uarch.pipes.lsu),
                vsu: pipes(uarch.pipes.vsu),
                dfu: pipes(uarch.pipes.dfu),
                bru: pipes(uarch.pipes.bru),
            },
            dispatch_width: uarch.pipes.dispatch_width,
            prefetch_counted: 0,
            cycle_units: [false; 5],
        }
    }

    /// Resets the performance counters (keeps caches and timing state), used at the end
    /// of the warm-up phase.
    pub(crate) fn reset_counters(&mut self) {
        for t in &mut self.threads {
            t.counters = CounterValues::default();
        }
        self.prefetch_counted = self.caches.prefetches_issued();
    }

    /// Per-thread counters, with the cycle counter set to `cycles`.
    pub(crate) fn counters(&self, cycles: u64) -> Vec<CounterValues> {
        self.threads
            .iter()
            .map(|t| {
                let mut c = t.counters;
                c.cycles = cycles;
                c
            })
            .collect()
    }

    /// Advances the core by one cycle, issuing instructions and accruing dynamic energy
    /// into `energy`.  Memory accesses beyond the private L2 go through `uncore` (the
    /// local L3 slice in private mode, the chip-shared L3 + memory port in shared mode).
    pub(crate) fn step(
        &mut self,
        now: u64,
        params: &EnergyParams,
        energy: &mut EnergyBreakdown,
        uncore: &mut UncoreSim,
    ) {
        let nthreads = self.threads.len();
        if nthreads == 0 {
            return;
        }
        let mut dispatch_left = self.dispatch_width;
        let start = (now as usize) % nthreads;
        self.cycle_units = [false; 5];

        for i in 0..nthreads {
            if dispatch_left == 0 {
                break;
            }
            let tid = (start + i) % nthreads;
            dispatch_left = self.step_thread(tid, now, params, energy, uncore, dispatch_left);
        }

        // Clock-gating: every unit that woke up this cycle pays a fixed wake-up energy,
        // independent of how many operations it executed.
        for (slot, unit) in UNIT_SLOTS.iter().enumerate() {
            if self.cycle_units[slot] {
                energy.dynamic_compute += params.wake_energy(*unit);
            }
        }
    }

    /// Tries to issue instructions from one thread; returns the remaining dispatch slots.
    fn step_thread(
        &mut self,
        tid: usize,
        now: u64,
        params: &EnergyParams,
        energy: &mut EnergyBreakdown,
        uncore: &mut UncoreSim,
        mut dispatch_left: u32,
    ) -> u32 {
        let Self { threads, caches, pipes, cycle_units, .. } = self;
        let thread = &mut threads[tid];
        if thread.stall_until > now {
            return dispatch_left;
        }
        thread.refill_window();
        let ThreadContext { body, window, reg_ready, stall_until, counters, rng, .. } =
            &mut *thread;
        let window = window.make_contiguous();

        for w in 0..window.len() {
            if dispatch_left == 0 {
                break;
            }
            let entry = window[w];
            if entry.issued {
                continue;
            }
            let idx = entry.body_idx;

            // Register dependencies: every source must have been produced (its writer
            // already issued) and its value must be available by this cycle.
            let ready = {
                let reads = body.reads_mask(idx);
                regs_ready(reads, reg_ready, now)
                    && !window[..w]
                        .iter()
                        .any(|e| !e.issued && masks_intersect(body.writes_mask(e.body_idx), reads))
            };
            if !ready {
                continue;
            }

            // Execution pipe of the right class must be free.
            let Some((unit, pipe_idx)) = pipes.select(body.issue_class(idx), now) else {
                continue;
            };

            // Shared-uncore back-pressure: a demand access that would need a memory
            // line transfer cannot issue while the port queue is full.  The thread
            // stalls for the cycle (an LSU reject/replay) and retries; the held-off
            // request keeps the queue logic powered, which is the bandwidth-stall
            // uncore energy term.
            if let Some(mem) = body.mem(idx) {
                if !body.flags(idx).is_prefetch() && !caches.admits(mem.address, now, uncore) {
                    counters.bw_stalls += 1;
                    energy.uncore += params.uncore_stall_energy;
                    break;
                }
            }

            // ---- issue ----
            dispatch_left -= 1;
            window[w].issued = true;
            if let Some(slot) = unit_slot(unit) {
                cycle_units[slot] = true;
            }

            let flags = body.flags(idx);
            let mut total_latency = body.latency(idx);

            // Memory access (demand or prefetch).
            let mut mem_energy = 0.0;
            let mut uncore_energy = 0.0;
            if let Some(mem) = body.mem(idx) {
                if flags.is_prefetch() {
                    if uncore.is_shared() {
                        uncore_energy += caches.prefetch_shared(mem.address, now, uncore, params);
                    } else {
                        caches.prefetch(mem.address);
                    }
                    // The prefetch instruction executes (and costs issue energy) even
                    // when a full port queue drops its line transfer.
                    counters.prefetches += 1;
                    mem_energy += params.prefetch_energy;
                } else {
                    let outcome = if uncore.is_shared() {
                        // L1/L2 stay core-side energy; the shared L3 and memory port
                        // accrue *uncore* energy, returned alongside the outcome.
                        let (outcome, event_energy) =
                            caches.access_shared(mem.address, now, uncore, params);
                        uncore_energy += event_energy;
                        if matches!(outcome.level, MemLevel::L1 | MemLevel::L2) {
                            mem_energy += params.access_energy(outcome.level);
                        }
                        outcome
                    } else {
                        let outcome = caches.access(mem.address);
                        mem_energy += params.access_energy(outcome.level);
                        outcome
                    };
                    total_latency += u64::from(outcome.latency);
                    if outcome.prefetched {
                        mem_energy += params.prefetch_energy;
                        counters.prefetches += 1;
                    }
                    if mem.is_store {
                        counters.stores += 1;
                    } else {
                        counters.loads += 1;
                    }
                    match outcome.level {
                        MemLevel::L1 => counters.l1_hits += 1,
                        MemLevel::L2 => counters.l2_hits += 1,
                        MemLevel::L3 => {
                            counters.l3_hits += 1;
                            counters.l3_accesses += 1;
                        }
                        MemLevel::Mem => {
                            counters.mem_accesses += 1;
                            counters.l3_accesses += 1;
                            counters.l3_misses += 1;
                        }
                    }
                    counters.bw_stalls += u64::from(outcome.bw_stall);
                }
            }

            // Destination registers become ready after the full latency.
            for_each_reg(body.writes_mask(idx), |reg| reg_ready[reg] = now + total_latency);

            // Occupy the pipe for the instruction's reciprocal throughput and charge the
            // order-dependent switching energy against the previous instruction executed
            // on the same physical pipe.
            let enc = body.encoding(idx);
            let pipe = pipes.get_mut(unit, pipe_idx);
            let switch_bits = (enc ^ pipe.last_encoding).count_ones();
            // Accumulate the fractional occupancy so that non-integer reciprocal
            // throughputs (e.g. 1.14 cycles) are honoured in the long-run average.
            pipe.busy_until = pipe.busy_until.max(now as f64) + body.recip_throughput(idx);
            pipe.last_encoding = enc;

            energy.dynamic_compute += params.instruction_energy(
                unit,
                body.complexity(idx),
                body.width(idx),
                switch_bits,
                body.switching_factor(),
            );
            energy.dynamic_memory += mem_energy;
            energy.uncore += uncore_energy;

            // Branches: conditional ones may mispredict and flush the thread.
            if flags.is_branch() {
                counters.bru_ops += 1;
                if flags.is_conditional() {
                    let rate = body.mispredict_rate();
                    if rate > 0.0 && rng.gen::<f64>() < rate {
                        *stall_until = now + MISPREDICT_PENALTY;
                        energy.dynamic_compute += params.flush_energy;
                    }
                }
            } else {
                match unit {
                    Unit::Fxu => counters.fxu_ops += 1,
                    Unit::Lsu => counters.lsu_ops += 1,
                    Unit::Vsu => counters.vsu_ops += 1,
                    Unit::Dfu => counters.dfu_ops += 1,
                    Unit::Bru => counters.bru_ops += 1,
                    Unit::Ifu | Unit::Isu => {}
                }
            }
            counters.instr_completed += 1;

            if *stall_until > now {
                break;
            }
        }

        thread.retire_issued_head();
        dispatch_left
    }

    /// Exposes the ISA needed to rebuild instruction info in tests.
    #[cfg(test)]
    pub(crate) fn thread_count(&self) -> usize {
        self.threads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_isa::{Instruction, Isa, Operand, RegRef};
    use mp_uarch::power7;

    fn rrr(isa: &Isa, m: &str, d: u16, a: u16, b: u16) -> Instruction {
        let (id, _) = isa.get(m).unwrap();
        Instruction::new(
            isa,
            id,
            vec![
                Operand::Reg(RegRef::gpr(d)),
                Operand::Reg(RegRef::gpr(a)),
                Operand::Reg(RegRef::gpr(b)),
            ],
            None,
        )
        .unwrap()
    }

    fn decode_all(uarch: &MicroArchitecture, kernels: &[Kernel]) -> Vec<Rc<DecodedBody>> {
        let props = uarch.opcode_props();
        kernels.iter().map(|k| Rc::new(DecodedBody::decode(k, uarch, &props))).collect()
    }

    fn run_core(
        uarch: &MicroArchitecture,
        kernel: Kernel,
        cycles: u64,
    ) -> (Vec<CounterValues>, EnergyBreakdown) {
        let mut core =
            CoreSim::new(uarch, decode_all(uarch, &[kernel]), false, 1, UncoreMode::Private);
        let mut uncore = UncoreSim::new(uarch, UncoreMode::Private);
        let mut energy = EnergyBreakdown::default();
        let params = EnergyParams::power7();
        // Warm up then measure.
        for now in 0..1000u64 {
            core.step(now, &params, &mut energy, &mut uncore);
        }
        core.reset_counters();
        let mut energy = EnergyBreakdown::default();
        for now in 1000..1000 + cycles {
            core.step(now, &params, &mut energy, &mut uncore);
        }
        (core.counters(cycles), energy)
    }

    #[test]
    fn independent_fxu_only_ops_reach_two_ipc() {
        let uarch = power7();
        let isa = &uarch.isa;
        // Independent subf instructions: writes to distinct registers, reads constants.
        let body: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "subf", (i % 8) as u16, 10, 11)).collect();
        let (counters, _) = run_core(&uarch, Kernel::new("subf", body), 4000);
        let ipc = counters[0].ipc();
        assert!((1.7..=2.2).contains(&ipc), "FXU-only IPC should be ~2.0, got {ipc}");
        assert!(counters[0].fxu_ops > 0);
        assert_eq!(counters[0].vsu_ops, 0);
    }

    #[test]
    fn simple_ops_exceed_three_ipc_using_both_fxu_and_lsu() {
        let uarch = power7();
        let isa = &uarch.isa;
        let body: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "add", (i % 8) as u16, 10, 11)).collect();
        let (counters, _) = run_core(&uarch, Kernel::new("add", body), 4000);
        let ipc = counters[0].ipc();
        assert!(ipc > 3.0, "simple integer IPC should exceed 3, got {ipc}");
        assert!(counters[0].fxu_ops > 0 && counters[0].lsu_ops > 0);
    }

    #[test]
    fn dependency_chain_limits_ipc_to_inverse_latency() {
        let uarch = power7();
        let isa = &uarch.isa;
        // mulld r3 <- r3, r3 chained: IPC ~ 1/latency (latency 4).
        let body: Vec<Instruction> = (0..64).map(|_| rrr(isa, "mulld", 3, 3, 3)).collect();
        let (counters, _) = run_core(&uarch, Kernel::new("chain", body), 4000);
        let ipc = counters[0].ipc();
        assert!((0.2..=0.3).contains(&ipc), "chained mulld IPC should be ~0.25, got {ipc}");
    }

    #[test]
    fn energy_scales_with_activity() {
        let uarch = power7();
        let isa = &uarch.isa;
        let busy: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "add", (i % 8) as u16, 10, 11)).collect();
        let lazy: Vec<Instruction> = (0..64).map(|_| rrr(isa, "mulld", 3, 3, 3)).collect();
        let (_, e_busy) = run_core(&uarch, Kernel::new("busy", busy), 4000);
        let (_, e_lazy) = run_core(&uarch, Kernel::new("lazy", lazy), 4000);
        assert!(e_busy.dynamic() > e_lazy.dynamic());
    }

    #[test]
    fn zero_data_reduces_energy() {
        let uarch = power7();
        let isa = &uarch.isa;
        let body: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "xor", (i % 8) as u16, 10, 11)).collect();
        let random = Kernel::new("rand", body.clone()).with_data_profile(DataProfile::Random);
        let zeros = Kernel::new("zeros", body).with_data_profile(DataProfile::Zeros);
        let (_, e_rand) = run_core(&uarch, random, 4000);
        let (_, e_zero) = run_core(&uarch, zeros, 4000);
        assert!(e_zero.dynamic_compute < e_rand.dynamic_compute);
    }

    use crate::kernel::{DataProfile, Kernel};

    #[test]
    fn smt_threads_share_core_resources() {
        let uarch = power7();
        let isa = &uarch.isa;
        let body: Vec<Instruction> =
            (0..64).map(|i| rrr(isa, "subf", (i % 8) as u16, 10, 11)).collect();
        let kernel = Kernel::new("subf", body);
        let params = EnergyParams::power7();

        let ipc_for = |n: usize| {
            let mut core = CoreSim::new(
                &uarch,
                decode_all(&uarch, &vec![kernel.clone(); n]),
                false,
                3,
                UncoreMode::Private,
            );
            let mut uncore = UncoreSim::new(&uarch, UncoreMode::Private);
            let mut e = EnergyBreakdown::default();
            for now in 0..3000u64 {
                core.step(now, &params, &mut e, &mut uncore);
            }
            core.reset_counters();
            for now in 3000..6000u64 {
                core.step(now, &params, &mut e, &mut uncore);
            }
            let total: u64 = core.counters(3000).iter().map(|c| c.instr_completed).sum();
            total as f64 / 3000.0
        };
        let one = ipc_for(1);
        let four = ipc_for(4);
        // FXU-only work saturates the 2 FXU pipes regardless of SMT: aggregate IPC stays
        // ~2 while per-thread IPC drops.
        assert!((one - 2.0).abs() < 0.3, "1-thread IPC {one}");
        assert!((four - 2.0).abs() < 0.3, "4-thread aggregate IPC {four}");
    }

    #[test]
    fn mispredicting_branches_reduce_throughput() {
        let uarch = power7();
        let isa = &uarch.isa;
        let (bc, _) = isa.get("bc").unwrap();
        let mut body: Vec<Instruction> =
            (0..32).map(|i| rrr(isa, "add", (i % 8) as u16, 10, 11)).collect();
        body.push(
            Instruction::new(isa, bc, vec![Operand::CrField(0), Operand::BranchTarget(-32)], None)
                .unwrap(),
        );
        let clean = Kernel::new("clean", body.clone());
        let noisy = Kernel::new("noisy", body).with_mispredict_rate(0.5);
        let (c_clean, _) = run_core(&uarch, clean, 4000);
        let (c_noisy, _) = run_core(&uarch, noisy, 4000);
        assert!(c_noisy[0].instr_completed < c_clean[0].instr_completed);
        assert!(c_noisy[0].bru_ops > 0);
    }

    #[test]
    fn core_reports_one_counter_set_per_thread() {
        let uarch = power7();
        let isa = &uarch.isa;
        let body: Vec<Instruction> = vec![rrr(isa, "add", 1, 2, 3)];
        let core = CoreSim::new(
            &uarch,
            decode_all(&uarch, &vec![Kernel::new("k", body); 4]),
            false,
            0,
            UncoreMode::Private,
        );
        assert_eq!(core.thread_count(), 4);
        assert_eq!(core.counters(10).len(), 4);
    }
}
