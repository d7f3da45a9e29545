//! The unified execution interface.
//!
//! Every paper experiment is a (kernel × isolation × executor) grid, and
//! the repository has three execution vehicles: the cycle-accurate
//! [`Machine`], the calibrated [`Functional`] interpreter, and the
//! Appendix A.2 *emulation* (the program transform of [`crate::emulation`]
//! run on the cycle core). [`Executor`] gives all three one interface —
//! `prepare` guest memory, `run`, read back a [`RunRecord`] — so harnesses
//! can fan a grid across executors without per-vehicle plumbing, and so
//! cross-validation (Fig. 2: functional vs. cycle, emulated vs. true HFI)
//! is a one-line swap.
//!
//! [`RunRecord`] is the machine-readable result: cycles, committed
//! instructions, and the full pipeline observability surface (ROB stalls,
//! squashes, cache and dTLB hit/miss counts, predictor accuracy, HFI
//! check/fault counts). It serializes itself to a JSON object so
//! harnesses can emit JSON-lines trajectories without a serde dependency.

use crate::core::{CoreStats, Machine, Stop};
use crate::emulation::{emulate, EMULATION_BASE};
use crate::functional::{Functional, FunctionalStats};
use crate::isa::Program;

/// Which execution vehicle produced a [`RunRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// The cycle-level out-of-order [`Machine`].
    Cycle,
    /// The calibrated [`Functional`] interpreter.
    Functional,
    /// The Appendix A.2 emulation transform on the cycle [`Machine`].
    Emulated,
}

impl ExecutorKind {
    /// Stable lowercase name used in JSON records and table headers.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecutorKind::Cycle => "cycle",
            ExecutorKind::Functional => "functional",
            ExecutorKind::Emulated => "emulated",
        }
    }
}

impl std::fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The unified, machine-readable result of one executor run.
///
/// Counters an executor cannot observe are zero (the functional model has
/// no caches, no ROB, and never mispredicts); `predictor_accuracy` is 1.0
/// when no branches ran.
///
/// The two host-side throughput fields (`sim_mips`, `host_ns_per_cycle`)
/// describe how fast the *simulator* ran, not the simulated machine; they
/// are excluded from `PartialEq` so records of identical simulations
/// compare equal across hosts and runs.
#[derive(Debug, Clone, Copy)]
pub struct RunRecord {
    /// Which vehicle ran.
    pub executor: ExecutorKind,
    /// Cycles (exact for the cycle core, modelled f64 for functional).
    pub cycles: f64,
    /// Committed (retired) instructions.
    pub committed: u64,
    /// Squashed wrong-path instructions.
    pub squashed: u64,
    /// Committed branches (conditional + indirect).
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// 1 − mispredicts/branches.
    pub predictor_accuracy: f64,
    /// Cycles the front end stalled on a full ROB.
    pub rob_stall_cycles: u64,
    /// Pipeline serializations (drains).
    pub serializations: u64,
    /// L1 instruction-cache hits.
    pub l1i_hits: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 data-cache hits.
    pub l1d_hits: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// Unified L2 hits.
    pub l2_hits: u64,
    /// Unified L2 misses.
    pub l2_misses: u64,
    /// dTLB hits.
    pub dtlb_hits: u64,
    /// dTLB misses.
    pub dtlb_misses: u64,
    /// HFI checks evaluated (fetch + implicit-data + `hmov`).
    pub hfi_checks: u64,
    /// Faults delivered.
    pub hfi_faults: u64,
    /// Syscalls redirected by HFI interposition.
    pub syscalls_redirected: u64,
    /// Syscalls serviced by the OS model.
    pub syscalls_to_os: u64,
    /// Host-side simulator throughput: committed simulated instructions
    /// per host microsecond (0.0 when the run was not timed).
    pub sim_mips: f64,
    /// Host nanoseconds spent per simulated cycle (0.0 when untimed).
    pub host_ns_per_cycle: f64,
    /// True when the program this run executed passed the `hfi-verify`
    /// static sandbox-safety check (set by harnesses; executors
    /// themselves report `false`). Like the host-timing fields this is
    /// provenance, not an architectural counter, so it is excluded from
    /// `PartialEq`.
    pub verified: bool,
    /// Provenance word of the static proof the run executed under
    /// (`hfi-verify`'s `ProofDigest::word()`), or 0 when no proof was
    /// attached. Set by harnesses alongside `verified`; excluded from
    /// `PartialEq` like the other provenance fields.
    pub proof_digest: u64,
}

impl PartialEq for RunRecord {
    /// Architectural equality: every counter except the host-side
    /// throughput fields, which vary run to run by construction.
    fn eq(&self, other: &Self) -> bool {
        self.executor == other.executor
            && self.cycles == other.cycles
            && self.committed == other.committed
            && self.squashed == other.squashed
            && self.branches == other.branches
            && self.mispredicts == other.mispredicts
            && self.predictor_accuracy == other.predictor_accuracy
            && self.rob_stall_cycles == other.rob_stall_cycles
            && self.serializations == other.serializations
            && self.l1i_hits == other.l1i_hits
            && self.l1i_misses == other.l1i_misses
            && self.l1d_hits == other.l1d_hits
            && self.l1d_misses == other.l1d_misses
            && self.l2_hits == other.l2_hits
            && self.l2_misses == other.l2_misses
            && self.dtlb_hits == other.dtlb_hits
            && self.dtlb_misses == other.dtlb_misses
            && self.hfi_checks == other.hfi_checks
            && self.hfi_faults == other.hfi_faults
            && self.syscalls_redirected == other.syscalls_redirected
            && self.syscalls_to_os == other.syscalls_to_os
    }
}

impl RunRecord {
    /// Fills the host-side throughput fields from the wall-clock time of
    /// the run (`host_ns` nanoseconds for the whole simulation).
    pub fn with_host_timing(mut self, host_ns: u64) -> Self {
        let host_ns = host_ns.max(1);
        self.sim_mips = self.committed as f64 / (host_ns as f64 / 1e9) / 1e6;
        self.host_ns_per_cycle = host_ns as f64 / self.cycles.max(1.0);
        self
    }

    /// The record's fields as `"key":value` JSON pairs, without enclosing
    /// braces — callers splice in their own context fields (figure,
    /// kernel, isolation) ahead of them.
    pub fn json_fields(&self) -> String {
        format!(
            "\"executor\":\"{}\",\"cycles\":{},\"committed\":{},\"squashed\":{},\
             \"branches\":{},\"mispredicts\":{},\"predictor_accuracy\":{:.6},\
             \"rob_stall_cycles\":{},\"serializations\":{},\
             \"l1i_hits\":{},\"l1i_misses\":{},\"l1d_hits\":{},\"l1d_misses\":{},\
             \"l2_hits\":{},\"l2_misses\":{},\"dtlb_hits\":{},\"dtlb_misses\":{},\
             \"hfi_checks\":{},\"hfi_faults\":{},\
             \"syscalls_redirected\":{},\"syscalls_to_os\":{},\
             \"sim_mips\":{:.3},\"host_ns_per_cycle\":{:.3},\"verified\":{},\
             \"proof_digest\":\"{:016x}\"",
            self.executor.as_str(),
            self.cycles,
            self.committed,
            self.squashed,
            self.branches,
            self.mispredicts,
            self.predictor_accuracy,
            self.rob_stall_cycles,
            self.serializations,
            self.l1i_hits,
            self.l1i_misses,
            self.l1d_hits,
            self.l1d_misses,
            self.l2_hits,
            self.l2_misses,
            self.dtlb_hits,
            self.dtlb_misses,
            self.hfi_checks,
            self.hfi_faults,
            self.syscalls_redirected,
            self.syscalls_to_os,
            self.sim_mips,
            self.host_ns_per_cycle,
            self.verified,
            self.proof_digest,
        )
    }

    /// The record as one standalone JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }
}

fn accuracy(branches: u64, mispredicts: u64) -> f64 {
    if branches == 0 {
        1.0
    } else {
        1.0 - mispredicts as f64 / branches as f64
    }
}

/// One execution vehicle behind a uniform prepare/run/stats interface.
///
/// `run`'s `limit` is in the executor's native unit — cycles for the
/// cycle-level vehicles, instructions for the functional interpreter —
/// matching the inherent `run` methods. Harnesses pass a budget large
/// enough for either interpretation.
pub trait Executor {
    /// Which vehicle this is.
    fn kind(&self) -> ExecutorKind;

    /// Writes kernel input bytes into guest memory before running.
    /// Emulated executors also mirror the bytes at the emulation base.
    fn prepare(&mut self, addr: u64, bytes: &[u8]);

    /// Runs to completion (or the budget) and reports why it stopped.
    ///
    /// A run resumes where the executor's last run stopped; a new or
    /// reset executor starts at the program's first instruction. A run
    /// that stopped with [`Stop::CycleLimit`] goes on at the next call;
    /// any other stop is final, and the executor is reset (or a new one
    /// built) before it runs again. The functional interpreter counts
    /// `limit` in steps of this call; the cycle-level vehicles count it
    /// in cycles since the last reset, so for them a resumed run needs a
    /// larger `limit` than the last one.
    fn run(&mut self, limit: u64) -> Stop;

    /// The unified counter snapshot.
    fn stats(&self) -> RunRecord;

    /// The architectural register file.
    fn regs(&self) -> [u64; 16];
}

fn machine_record(machine: &Machine, kind: ExecutorKind) -> RunRecord {
    let stats: CoreStats = machine.core_stats();
    let (l1i_hits, l1i_misses) = machine.caches.l1i.stats();
    let (l1d_hits, l1d_misses) = machine.caches.l1d.stats();
    let (l2_hits, l2_misses) = machine.caches.l2.stats();
    let (dtlb_hits, dtlb_misses) = machine.caches.dtlb.stats();
    RunRecord {
        executor: kind,
        cycles: machine.cycles() as f64,
        committed: stats.committed,
        squashed: stats.squashed,
        branches: stats.branches,
        mispredicts: stats.mispredicts,
        predictor_accuracy: accuracy(stats.branches, stats.mispredicts),
        rob_stall_cycles: stats.rob_stall_cycles,
        serializations: stats.serializations,
        l1i_hits,
        l1i_misses,
        l1d_hits,
        l1d_misses,
        l2_hits,
        l2_misses,
        dtlb_hits,
        dtlb_misses,
        hfi_checks: stats.hfi_checks,
        hfi_faults: stats.faults,
        syscalls_redirected: stats.syscalls_redirected,
        syscalls_to_os: stats.syscalls_to_os,
        sim_mips: 0.0,
        host_ns_per_cycle: 0.0,
        verified: false,
        proof_digest: 0,
    }
}

impl Executor for Machine {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Cycle
    }

    fn prepare(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
    }

    fn run(&mut self, limit: u64) -> Stop {
        Machine::run(self, limit).stop
    }

    fn stats(&self) -> RunRecord {
        machine_record(self, ExecutorKind::Cycle)
    }

    fn regs(&self) -> [u64; 16] {
        Machine::regs(self)
    }
}

impl Executor for Functional {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Functional
    }

    fn prepare(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
    }

    fn run(&mut self, limit: u64) -> Stop {
        Functional::run(self, limit).stop
    }

    fn stats(&self) -> RunRecord {
        let stats: FunctionalStats = self.functional_stats();
        RunRecord {
            executor: Executor::kind(self),
            cycles: self.cycles(),
            committed: stats.retired,
            squashed: 0,
            branches: stats.branches,
            mispredicts: 0,
            predictor_accuracy: 1.0,
            rob_stall_cycles: 0,
            serializations: stats.serializations,
            l1i_hits: 0,
            l1i_misses: 0,
            l1d_hits: 0,
            l1d_misses: 0,
            l2_hits: 0,
            l2_misses: 0,
            dtlb_hits: 0,
            dtlb_misses: 0,
            hfi_checks: stats.hfi_checks,
            hfi_faults: stats.faults,
            syscalls_redirected: stats.syscalls_redirected,
            syscalls_to_os: stats.syscalls_to_os,
            sim_mips: 0.0,
            host_ns_per_cycle: 0.0,
            verified: false,
            proof_digest: 0,
        }
    }

    fn regs(&self) -> [u64; 16] {
        Functional::regs(self)
    }
}

/// The Appendix A.2 emulation vehicle: the [`emulate`] transform applied
/// to a program, run on the cycle-level [`Machine`].
///
/// Emulated `hmov` accesses read `EMULATION_BASE + offset` instead of
/// `region_base + offset`, so [`Executor::prepare`] mirrors heap bytes at
/// both addresses (the mirror keeps non-hmov accesses through real heap
/// pointers working too).
pub struct Emulated {
    machine: Machine,
    heap_base: u64,
}

impl Emulated {
    /// Transforms `program` (see [`emulate`]) and wraps a fresh machine
    /// around it. `heap_base` is the guest heap base the original program
    /// was compiled against; `prepare` writes are mirrored from there to
    /// [`EMULATION_BASE`].
    ///
    /// Every call transforms anew, in one linear pass; the transformed
    /// program is the machine's own and lowers its plan on its first
    /// run, as any program does ([`Program::plan`]).
    pub fn new(program: &Program, heap_base: u64) -> Self {
        Self {
            machine: Machine::new(emulate(program)),
            heap_base,
        }
    }

    /// The wrapped cycle machine (for OS models, cost tweaks, probes).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }
}

impl std::fmt::Debug for Emulated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emulated")
            .field("heap_base", &self.heap_base)
            .field("machine", &self.machine)
            .finish()
    }
}

impl Executor for Emulated {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Emulated
    }

    fn prepare(&mut self, addr: u64, bytes: &[u8]) {
        self.machine.mem.write_bytes(addr, bytes);
        if addr >= self.heap_base {
            let mirrored = EMULATION_BASE + (addr - self.heap_base);
            self.machine.mem.write_bytes(mirrored, bytes);
        }
    }

    fn run(&mut self, limit: u64) -> Stop {
        Machine::run(&mut self.machine, limit).stop
    }

    fn stats(&self) -> RunRecord {
        machine_record(&self.machine, ExecutorKind::Emulated)
    }

    fn regs(&self) -> [u64; 16] {
        self.machine.regs()
    }
}

/// Compile-time witnesses that every executor is `Send`: the serving
/// scheduler (`hfi-serve`) hands prepared executors to shard workers
/// and lets idle workers steal them, so losing `Send` on any tier (for
/// example by boxing a non-`Send` `OsModel` or `ChaosHook`) must fail
/// the build here rather than at the distant spawn site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<Functional>();
    assert_send::<Emulated>();
    assert_send::<Box<dyn Executor + Send>>();
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::isa::{AluOp, Reg};

    fn square_program() -> Program {
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), 12);
        asm.alu(AluOp::Mul, Reg(0), Reg(0), Reg(0));
        asm.halt();
        asm.finish()
    }

    #[test]
    fn trait_runs_all_executors() {
        let program = Arc::new(square_program());
        // Every comparison executor shares the one program allocation;
        // only the emulation transform materializes a new instruction
        // stream (by necessity — it rewrites the program).
        let mut executors: Vec<Box<dyn Executor>> = vec![
            Box::new(Machine::new(Arc::clone(&program))),
            Box::new(Functional::new(Arc::clone(&program))),
            Box::new(Emulated::new(&program, 0x1000_0000)),
        ];
        for exec in &mut executors {
            let stop = exec.run(1_000_000);
            assert_eq!(stop, Stop::Halted, "{}", exec.kind());
            assert_eq!(exec.regs()[0], 144, "{}", exec.kind());
            let record = exec.stats();
            assert_eq!(record.executor, exec.kind());
            assert!(record.cycles > 0.0);
            assert!(record.committed >= 3);
        }
    }

    #[test]
    fn cycle_record_has_pipeline_counters() {
        let mut machine = Machine::new(square_program());
        let _ = Machine::run(&mut machine, 1_000_000);
        let record = Executor::stats(&machine);
        // The 3 instructions were fetched through L1I (cold misses).
        assert!(record.l1i_hits + record.l1i_misses > 0);
        assert!(record.predictor_accuracy >= 0.0 && record.predictor_accuracy <= 1.0);
    }

    #[test]
    fn json_record_is_wellformed() {
        let mut machine = Machine::new(square_program());
        let _ = Machine::run(&mut machine, 1_000_000);
        let json = Executor::stats(&machine).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"executor\":\"cycle\""));
        assert!(json.contains("\"l1d_hits\":"));
        assert!(json.contains("\"hfi_checks\":"));
        // Balanced quotes, no stray newlines (JSON-lines safety).
        assert_eq!(json.matches('"').count() % 2, 0);
        assert!(!json.contains('\n'));
    }

    #[test]
    fn emulated_prepare_mirrors_heap() {
        let heap_base = 0x1000_0000;
        let mut emulated = Emulated::new(&square_program(), heap_base);
        emulated.prepare(heap_base + 0x40, &[1, 2, 3, 4]);
        assert_eq!(
            emulated.machine_mut().mem.read(heap_base + 0x40, 4),
            0x04030201
        );
        assert_eq!(
            emulated.machine_mut().mem.read(EMULATION_BASE + 0x40, 4),
            0x04030201
        );
    }
}
