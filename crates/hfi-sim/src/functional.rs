//! The fast functional executor.
//!
//! The cycle-level [`Machine`](crate::core::Machine) is (like gem5) several
//! orders of magnitude slower than native execution, so — exactly as the
//! paper does (§5.2) — long-running workloads use a faster model: this
//! executor interprets the same [`Program`] architecturally and charges a
//! per-instruction-class cost calibrated against the cycle simulator
//! (Fig. 2 is the calibration experiment). HFI semantics are enforced
//! identically — all checks consult the same [`HfiContext`] — only the
//! timing model is simplified.

use std::sync::Arc;

use hfi_core::{
    Access, CostModel, ExitDisposition, HfiContext, HfiFault, SerializationEffect,
    SyscallDisposition, SyscallKind,
};

use crate::chaos::{ArchEvent, ChaosHook};
use crate::core::{Os, OsModel, Stop, SyscallOutcome};
use crate::isa::{effective_address, AluOp, Inst, Program, Reg};
use crate::mem::SparseMemory;
use crate::plan::{DecodedProgram, MicroOp, OpClass, NO_REG};

/// Per-class cycle costs for the functional timing model, calibrated so
/// that functional cycle counts track the cycle simulator on the
/// Sightglass kernels (see the Fig. 2 harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionalCosts {
    /// Simple ALU / move, amortized over superscalar issue.
    pub alu: f64,
    /// Multiply.
    pub mul: f64,
    /// Divide.
    pub div: f64,
    /// Load or store (average over cache behaviour).
    pub mem: f64,
    /// Conditional branch (average including mispredictions).
    pub branch: f64,
    /// Call/return pair contribution per instruction.
    pub control: f64,
}

impl Default for FunctionalCosts {
    fn default() -> Self {
        // Roughly 1/IPC contributions on the modelled 8-wide core.
        Self {
            alu: 0.35,
            mul: 1.0,
            div: 20.0,
            mem: 0.9,
            branch: 0.7,
            control: 1.0,
        }
    }
}

/// Execution statistics of a functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionalStats {
    /// Instructions retired.
    pub retired: u64,
    /// Memory operations retired.
    pub mem_ops: u64,
    /// Branches retired.
    pub branches: u64,
    /// Serializations performed.
    pub serializations: u64,
    /// HFI checks performed (fetch, implicit-data, and `hmov` checks
    /// evaluated while a sandbox was active).
    pub hfi_checks: u64,
    /// Faults delivered.
    pub faults: u64,
    /// Syscalls redirected by HFI.
    pub syscalls_redirected: u64,
    /// Syscalls serviced by the OS model.
    pub syscalls_to_os: u64,
}

/// Result of a functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalResult {
    /// Modelled cycles (float accumulation of per-class costs).
    pub cycles: f64,
    /// Why execution stopped.
    pub stop: Stop,
    /// Counters.
    pub stats: FunctionalStats,
    /// Final registers.
    pub regs: [u64; 16],
}

/// Where control goes after executing one micro-op: on to another
/// instruction index, or out of the run entirely.
enum StepExit {
    /// Continue at this instruction index (usually `pc + 1`; a branch
    /// target or fault-handler index otherwise).
    Next(usize),
    /// Execution is over (halt, exit, unhandled fault, bad handler).
    Stop(Stop),
}

/// What one op's class semantics ([`Functional::exec`]) produced.
enum Flow {
    /// Continue at this instruction index.
    Next(usize),
    /// The op raised this fault; it is delivered at the op's index.
    Fault(HfiFault),
    /// Execution is over (halt, exit, return from the outermost frame,
    /// a redirect to an unmapped handler).
    Stop(Stop),
    /// Block loop only: the op at the loop's `pc` takes the per-op
    /// [`Functional::step`] instead. Nothing was executed.
    Leave,
}

/// The functional executor.
pub struct Functional {
    /// The program under execution, set at construction or
    /// [`Functional::retarget`] and kept across [`Functional::reset`].
    /// Each run borrows its decoded plan ([`Program::plan`]).
    program: Arc<Program>,
    /// Data memory.
    pub mem: SparseMemory,
    /// HFI register state (identical semantics to the cycle model).
    pub hfi: HfiContext,
    /// Architectural cost constants (serialization etc.).
    pub costs: CostModel,
    /// Per-class timing weights.
    pub weights: FunctionalCosts,
    /// Signal handler byte PC for fault delivery.
    pub signal_handler: Option<u64>,
    os: Os,
    chaos: Option<Box<dyn ChaosHook>>,
    /// The instruction index the next run starts at: where the last run
    /// stopped, or 0 after construction or a reset.
    pc: usize,
    regs: [u64; 16],
    call_stack: Vec<usize>,
    cycles: f64,
    stats: FunctionalStats,
}

impl std::fmt::Debug for Functional {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Functional")
            .field("cycles", &self.cycles)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Functional {
    /// Creates a functional machine for `program`.
    ///
    /// Accepts a [`Program`] by value or an [`Arc<Program>`] (see
    /// [`Machine::new`](crate::core::Machine::new)).
    pub fn new(program: impl Into<Arc<Program>>) -> Self {
        Self {
            program: program.into(),
            mem: SparseMemory::new(),
            hfi: HfiContext::new(),
            costs: CostModel::default(),
            weights: FunctionalCosts::default(),
            signal_handler: None,
            os: Os::default(),
            chaos: None,
            pc: 0,
            regs: [0; 16],
            call_stack: Vec::new(),
            cycles: 0.0,
            stats: FunctionalStats::default(),
        }
    }

    /// Resets all per-tenant state, keeping the program and its shared
    /// plan: memory, HFI region context, registers, call stack, the
    /// point the next run starts at, cycles, counters, the signal
    /// handler, the OS model, and any installed chaos hook all return to
    /// their just-constructed values.
    /// This is the warm-pool teardown primitive: a reused instance
    /// behaves bit-identically to a freshly constructed one
    /// (`tests/warm_pool_safety.rs`), while the expensive artifacts —
    /// the `Arc<Program>`, its pre-decoded plan, and the memory's page
    /// buffers ([`SparseMemory::clear`]) — survive the reset, so it
    /// allocates nothing.
    pub fn reset(&mut self) {
        // Every field is named, so a field added later must be placed
        // here: reset, or kept on purpose.
        let Self {
            program: _,
            mem,
            hfi,
            costs,
            weights,
            signal_handler,
            os,
            chaos,
            pc,
            regs,
            call_stack,
            cycles,
            stats,
        } = self;
        mem.clear();
        *hfi = HfiContext::new();
        *costs = CostModel::default();
        *weights = FunctionalCosts::default();
        *signal_handler = None;
        *os = Os::default();
        *chaos = None;
        *pc = 0;
        *regs = [0; 16];
        call_stack.clear();
        *cycles = 0.0;
        *stats = FunctionalStats::default();
    }

    /// Points this executor at another program and resets it: afterwards
    /// it behaves exactly as `Functional::new(program)`, but keeps its
    /// buffers. A warm pool repurposing one tenant's idle instance for
    /// another takes this instead of building a new executor.
    pub fn retarget(&mut self, program: &Arc<Program>) {
        if !Arc::ptr_eq(&self.program, program) {
            self.program = Arc::clone(program);
        }
        self.reset();
    }

    /// Replaces the OS model.
    pub fn set_os(&mut self, os: Box<dyn OsModel>) {
        self.os = Os::Installed(os);
    }

    /// Installs a runtime fault-injection hook (see [`crate::chaos`]).
    /// [`Functional::run`] then takes the observed instance of its loop,
    /// which offers the hook every site, in the per-op order.
    pub fn set_chaos(&mut self, hook: Box<dyn ChaosHook>) {
        self.chaos = Some(hook);
    }

    /// Removes and returns the installed chaos hook, if any, so callers
    /// can inspect the engine/monitor state after a run.
    pub fn take_chaos(&mut self) -> Option<Box<dyn ChaosHook>> {
        self.chaos.take()
    }

    /// Sets a register before running.
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        self.regs[reg.0 as usize] = value;
    }

    /// Reads a register.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.0 as usize]
    }

    /// Snapshot of the architectural register file.
    pub fn regs(&self) -> [u64; 16] {
        self.regs
    }

    /// Modelled cycles so far.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Counters so far.
    pub fn functional_stats(&self) -> FunctionalStats {
        self.stats
    }

    /// The program under execution.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Value of a pre-resolved operand slot; unset slots ([`NO_REG`])
    /// read as zero, reproducing `MemOperand`'s optional base/index.
    #[inline(always)]
    fn slot(&self, r: u8) -> u64 {
        if r == NO_REG {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Forwards a retired architectural event to the chaos hook, if one
    /// is installed. Callers gate on `self.chaos.is_some()` so the event
    /// is only constructed when someone is listening.
    #[inline]
    fn chaos_observe(&mut self, event: ArchEvent) {
        if let Some(hook) = self.chaos.as_deref_mut() {
            hook.observe(&event);
        }
    }

    /// Delivers a fault raised by the op at instruction index `at`: counts
    /// it, charges the trap, and redirects to the handler's index — or
    /// stops with the fault when no mapped handler takes it.
    fn fault_exit(&mut self, fault: HfiFault, at: usize) -> StepExit {
        if self.chaos.is_some() {
            let pc = if at < self.program.len() {
                self.program.pc_of(at)
            } else {
                0
            };
            self.chaos_observe(ArchEvent::Fault { pc, fault });
        }
        self.stats.faults += 1;
        self.cycles += self.costs.serialize_cycles as f64; // trap overhead floor
        let disposition = self.hfi.deliver_fault(fault);
        let handler = match disposition {
            ExitDisposition::JumpToHandler(h) => Some(h),
            _ => self.signal_handler,
        };
        // Signal delivery is expensive (§3.3.2: OS delivers SIGSEGV).
        self.cycles += 3000.0;
        match handler.and_then(|h| self.program.index_of_pc(h)) {
            Some(idx) => StepExit::Next(idx),
            None => StepExit::Stop(Stop::Fault(fault)),
        }
    }

    /// Runs up to `max_insts` steps, from where the last run stopped
    /// (the program's first instruction after construction or a reset).
    ///
    /// A run that stops with [`Stop::CycleLimit`] is resumed by the next
    /// call: k runs of P steps end exactly where one run of k·P steps
    /// ends, in cycles, counters, registers, memory and chaos hook calls.
    /// The serving tier cancels a request at its deadline this way, by
    /// running its budget in slices and reading the clock between them.
    ///
    /// The loop is direct-threaded over the program's pre-decoded plan
    /// ([`Program::plan`]): each op is a flat [`MicroOp`] dispatched on its
    /// dense class byte — no `Inst` match and no operand `Option`
    /// walking — while the architectural semantics, the cost model, and
    /// every counter are identical to interpreting the `Inst` stream.
    /// Only the payload classes (`hfi_enter`, `hfi_enter_child`,
    /// `hfi_set_region`) reach back into the program for their full
    /// operands, off the hot path.
    ///
    /// Every run is block-stepped, whatever hook is installed; a chaos
    /// hook selects the loop's observed instance. Cycles, counters,
    /// registers, memory, the stop reason and the hook calls are
    /// bit-identical to the per-op [`Functional::run_reference`] — see
    /// `tests/predecode_differential.rs`.
    pub fn run(&mut self, max_insts: u64) -> FunctionalResult {
        // One `Arc` bump per call: the loop borrows the plan while it
        // mutates the rest of the executor.
        let program = Arc::clone(&self.program);
        let plan = program.plan();
        let stop = if self.chaos.is_some() {
            self.run_blocks::<true>(plan, max_insts)
        } else {
            self.run_blocks::<false>(plan, max_insts)
        };
        self.result(stop)
    }

    /// Runs up to `max_insts` steps one op at a time, each through
    /// [`Functional::step`], and resumes as [`Functional::run`] does. No
    /// hook selects this loop: it is the reference the block loop is
    /// tested against.
    pub fn run_reference(&mut self, max_insts: u64) -> FunctionalResult {
        let program = Arc::clone(&self.program);
        let plan = program.plan();
        let mut pc = self.pc;
        let mut budget = max_insts;
        let stop = loop {
            if budget == 0 {
                break Stop::CycleLimit;
            }
            if pc >= plan.len() {
                break Stop::Halted;
            }
            budget -= 1;
            match self.step(pc, plan) {
                StepExit::Next(next) => pc = next,
                StepExit::Stop(stop) => break stop,
            }
        };
        self.pc = pc;
        self.result(stop)
    }

    fn result(&self, stop: Stop) -> FunctionalResult {
        FunctionalResult {
            cycles: self.cycles,
            stop,
            stats: self.stats,
            regs: self.regs,
        }
    }

    /// The block-stepped loop, from the executor's resume point.
    ///
    /// Runs basic blocks back to back with the cycle sum, the counters
    /// and the remaining budget in locals, written back whenever
    /// control leaves the loop. A spent budget stops the run with
    /// [`Stop::CycleLimit`] before the end of the program is checked,
    /// as in [`Functional::run_reference`]. HFI's implicit code-region
    /// check — the one the hardware makes at decode (§4.1) — is made
    /// once per block entry instead of once per op. An entry is a block
    /// leader, or a mid-block op after a fault redirect or a per-op
    /// step; it goes on only if the budget covers the ops up to the end
    /// of its inline run (the block's end, or the first op of a class
    /// that [leaves the loop](OpClass::leaves_block)) and, while HFI is
    /// enabled, the bytes from this op to the run's last byte lie
    /// inside [`HfiContext::fetch_window`]. Every fetch of that span
    /// would pass, so each op still counts its fetch check in
    /// `hfi_checks`. Otherwise that one op takes [`Functional::step`].
    ///
    /// The window is read each time the loop is entered and needs no
    /// other invalidation: every op that can change the HFI context
    /// leaves the loop, and so does a fault. Cycles are still summed one
    /// op at a time in program order: an f64 sum depends on its order.
    ///
    /// The `OBSERVED` instance makes [`Functional::step`]'s hook calls
    /// in its order: `Retire` before each op, the op's sites, then
    /// [`Functional::after_op`]; when that reports a changed HFI context
    /// the loop leaves, so the enable bit and window are read again.
    fn run_blocks<const OBSERVED: bool>(&mut self, plan: &DecodedProgram, max_insts: u64) -> Stop {
        let ops = plan.ops();
        let mut pc = self.pc;
        let mut budget = max_insts;
        let stop = loop {
            let enabled = self.hfi.enabled();
            let (lo, hi) = self.hfi.fetch_window().into_inner();
            let mut cycles = self.cycles;
            let mut stats = self.stats;
            let left = 'blocks: loop {
                if budget == 0 {
                    break Flow::Stop(Stop::CycleLimit);
                }
                if pc >= ops.len() {
                    break Flow::Stop(Stop::Halted);
                }
                let tail = plan.tail(pc);
                let end = tail.end as usize;
                // `first_byte <= last_byte` fails only for a run that
                // goes past the top of the address space.
                let fetch_ok = !enabled
                    || (lo <= tail.first_byte
                        && tail.first_byte <= tail.last_byte
                        && tail.last_byte <= hi);
                if end == pc || budget < (end - pc) as u64 || !fetch_ok {
                    break Flow::Leave;
                }
                for (idx, uop) in ops.iter().enumerate().take(end).skip(pc) {
                    if OBSERVED {
                        self.chaos_observe(ArchEvent::Retire {
                            pc: plan.pc(idx),
                            len: uop.len,
                            sandboxed: enabled,
                        });
                    }
                    let flow =
                        self.exec::<OBSERVED>(idx, uop, plan, enabled, &mut cycles, &mut stats);
                    budget -= 1;
                    stats.retired += 1;
                    stats.hfi_checks += enabled as u64;
                    match flow {
                        Flow::Next(next) => {
                            pc = next;
                            if OBSERVED {
                                if self.after_op(idx, uop, plan) {
                                    break 'blocks flow;
                                }
                                debug_assert!(
                                    self.hfi.enabled() == enabled
                                        && self.hfi.fetch_window() == (lo..=hi),
                                    "a chaos hook changed the HFI context without reporting it"
                                );
                            }
                        }
                        left => {
                            pc = idx;
                            break 'blocks left;
                        }
                    }
                }
            };
            self.cycles = cycles;
            self.stats = stats;
            let exit = match left {
                // The hook changed the HFI context: re-read it.
                Flow::Next(next) => StepExit::Next(next),
                Flow::Fault(fault) => self.fault_exit(fault, pc),
                Flow::Leave => {
                    budget -= 1;
                    self.step(pc, plan)
                }
                Flow::Stop(stop) => break stop,
            };
            match exit {
                StepExit::Next(next) => pc = next,
                StepExit::Stop(stop) => break stop,
            }
        };
        self.pc = pc;
        stop
    }

    /// Executes exactly one micro-op at instruction index `pc` with full
    /// reference semantics — fetch check, counters, chaos observation and
    /// injection, cost accumulation, fault delivery — and reports where
    /// control goes next. The block loop takes it for each op it does not
    /// run inline; [`Functional::run_reference`] takes it for every op.
    fn step(&mut self, pc: usize, plan: &DecodedProgram) -> StepExit {
        let byte_pc = plan.pc(pc);
        let uop = plan.op(pc);
        let enabled = self.hfi.enabled();
        if enabled {
            self.stats.hfi_checks += 1;
        }
        if let Err(fault) = self.hfi.check_fetch(byte_pc, uop.len as u64) {
            return self.fault_exit(fault, pc);
        }
        self.stats.retired += 1;
        if self.chaos.is_some() {
            self.chaos_observe(ArchEvent::Retire {
                pc: byte_pc,
                len: uop.len,
                sandboxed: enabled,
            });
        }
        let (mut cycles, mut stats) = (self.cycles, self.stats);
        let flow = if uop.class.leaves_block() {
            self.exec_system(pc, uop, plan, &mut cycles, &mut stats)
        } else {
            self.exec::<true>(pc, uop, plan, enabled, &mut cycles, &mut stats)
        };
        self.cycles = cycles;
        self.stats = stats;
        match flow {
            Flow::Next(next) => {
                self.after_op(pc, uop, plan);
                StepExit::Next(next)
            }
            Flow::Fault(fault) => self.fault_exit(fault, pc),
            Flow::Stop(stop) => StepExit::Stop(stop),
            Flow::Leave => unreachable!("only the block loop leaves"),
        }
    }

    /// The chaos sites between two instructions, after the op at `pc`
    /// completed: corruption of its result and, for a springboard op, of
    /// its transition write, then corruption of the HFI context. Returns
    /// whether the hook changed the context; `false` with no hook.
    fn after_op(&mut self, pc: usize, uop: &MicroOp, plan: &DecodedProgram) -> bool {
        let Some(hook) = self.chaos.as_deref_mut() else {
            return false;
        };
        let byte_pc = plan.pc(pc);
        if uop.dst != NO_REG {
            let dst = uop.dst as usize;
            self.regs[dst] = hook.perturb_result(byte_pc, self.regs[dst]);
            // Transition corruption: a springboard op whose result never
            // lands — the register keeps junk in place of the
            // zeroed/switched value. The entry assertion at `hfi_enter`
            // must catch it.
            if uop.has(MicroOp::TRANSITION) && hook.corrupt_transition(byte_pc) {
                self.regs[dst] = crate::chaos::transition_junk(byte_pc);
            }
        }
        // "Between instructions": the retired op's architectural effects
        // are visible, the next fetch has not happened.
        hook.corrupt_context(&mut self.hfi)
    }

    /// The architectural semantics of the op at instruction index `pc`,
    /// after its fetch check: cost, counters, registers, memory, and
    /// where control goes. `enabled` is whether HFI was enabled when the
    /// op was fetched; `cycles` and `stats` are the caller's running
    /// totals.
    ///
    /// Covers the classes the block loop runs inline; the classes that
    /// [leave it](OpClass::leaves_block) are in
    /// [`Functional::exec_system`]. Written once for every loop: the
    /// `OBSERVED` instance makes the chaos hook calls of the data
    /// accesses, the other compiles them out.
    #[inline(always)]
    fn exec<const OBSERVED: bool>(
        &mut self,
        pc: usize,
        uop: &MicroOp,
        plan: &DecodedProgram,
        enabled: bool,
        cycles: &mut f64,
        stats: &mut FunctionalStats,
    ) -> Flow {
        let mut next = pc + 1;
        match uop.class {
            OpClass::AluRR => {
                *cycles += self.weight_of(uop.alu);
                self.regs[uop.dst as usize] =
                    uop.alu.eval(self.slot(uop.srcs[0]), self.slot(uop.srcs[1]));
            }
            OpClass::AluRI => {
                *cycles += self.weight_of(uop.alu);
                self.regs[uop.dst as usize] = uop.alu.eval(self.slot(uop.srcs[0]), uop.imm as u64);
            }
            OpClass::MovI => {
                *cycles += self.weights.alu;
                self.regs[uop.dst as usize] = uop.imm as u64;
            }
            OpClass::Mov => {
                *cycles += self.weights.alu;
                self.regs[uop.dst as usize] = self.slot(uop.srcs[0]);
            }
            OpClass::Load => {
                if let Err(fault) = self.data_access::<OBSERVED>(
                    pc,
                    uop,
                    plan,
                    Access::Read,
                    enabled,
                    cycles,
                    stats,
                ) {
                    return Flow::Fault(fault);
                }
            }
            OpClass::Store => {
                if let Err(fault) = self.data_access::<OBSERVED>(
                    pc,
                    uop,
                    plan,
                    Access::Write,
                    enabled,
                    cycles,
                    stats,
                ) {
                    return Flow::Fault(fault);
                }
            }
            OpClass::HmovLoad => {
                if let Err(fault) = self.hmov_access::<OBSERVED>(
                    pc,
                    uop,
                    plan,
                    Access::Read,
                    enabled,
                    cycles,
                    stats,
                ) {
                    return Flow::Fault(fault);
                }
            }
            OpClass::HmovStore => {
                if let Err(fault) = self.hmov_access::<OBSERVED>(
                    pc,
                    uop,
                    plan,
                    Access::Write,
                    enabled,
                    cycles,
                    stats,
                ) {
                    return Flow::Fault(fault);
                }
            }
            OpClass::Branch => {
                *cycles += self.weights.branch;
                stats.branches += 1;
                if uop
                    .cond
                    .eval(self.slot(uop.srcs[0]), self.slot(uop.srcs[1]))
                {
                    next = uop.target as usize;
                }
            }
            OpClass::BranchI => {
                *cycles += self.weights.branch;
                stats.branches += 1;
                if uop.cond.eval(self.slot(uop.srcs[0]), uop.imm as u64) {
                    next = uop.target as usize;
                }
            }
            OpClass::Jump => {
                *cycles += self.weights.control;
                next = uop.target as usize;
            }
            OpClass::Call => {
                *cycles += self.weights.control;
                self.call_stack.push(pc + 1);
                next = uop.target as usize;
            }
            OpClass::Ret => {
                *cycles += self.weights.control;
                next = match self.call_stack.pop() {
                    Some(idx) => idx,
                    None => return Flow::Stop(Stop::Halted),
                };
            }
            OpClass::Fence => {
                *cycles += 2.0;
            }
            OpClass::Flush => {
                *cycles += 3.0;
            }
            OpClass::Nop => {
                *cycles += self.weights.alu;
            }
            class => unreachable!("{class:?} leaves the block loop"),
        }
        Flow::Next(next)
    }

    /// [`Functional::exec`] for the classes that [leave the block
    /// loop](OpClass::leaves_block); only [`Functional::step`] runs it.
    fn exec_system(
        &mut self,
        pc: usize,
        uop: &MicroOp,
        plan: &DecodedProgram,
        cycles: &mut f64,
        stats: &mut FunctionalStats,
    ) -> Flow {
        let mut next = pc + 1;
        match uop.class {
            OpClass::Rdtsc => {
                *cycles += self.weights.alu;
                self.regs[uop.dst as usize] = *cycles as u64;
            }
            OpClass::JumpInd => {
                *cycles += self.weights.control;
                stats.branches += 1;
                let target_pc = self.slot(uop.srcs[0]);
                next = match self.program.index_of_pc(target_pc) {
                    Some(idx) => idx,
                    None => {
                        return Flow::Fault(match self.hfi.check_fetch(target_pc, 1) {
                            Err(fault) => fault,
                            Ok(()) => HfiFault::Hardware { addr: target_pc },
                        });
                    }
                };
            }
            OpClass::Syscall => {
                let number = self.regs[0];
                *cycles += self.costs.syscall_check_cycles as f64;
                match self.hfi.syscall(number, SyscallKind::Syscall) {
                    SyscallDisposition::Redirect(handler) => {
                        stats.syscalls_redirected += 1;
                        if pc + 1 < plan.len() {
                            self.regs[14] = plan.pc(pc + 1);
                        }
                        next = match self.program.index_of_pc(handler) {
                            Some(idx) => idx,
                            None => {
                                return Flow::Stop(Stop::Fault(HfiFault::Hardware {
                                    addr: handler,
                                }));
                            }
                        };
                    }
                    SyscallDisposition::Allow => {
                        stats.syscalls_to_os += 1;
                        let outcome: SyscallOutcome =
                            self.os.syscall(number, &mut self.regs, &mut self.mem);
                        *cycles += self.costs.syscall_roundtrip_cycles as f64
                            + outcome.extra_cycles as f64;
                        self.regs[0] = outcome.ret;
                        if outcome.exit {
                            return Flow::Stop(Stop::Exited { code: self.regs[1] });
                        }
                    }
                    SyscallDisposition::Fault => {
                        return Flow::Fault(HfiFault::PrivilegedInstruction)
                    }
                }
            }
            OpClass::Cpuid => {
                stats.serializations += 1;
                *cycles += self.costs.serialize_cycles as f64;
            }
            OpClass::HfiEnter => {
                let Inst::HfiEnter { config } = self.program.inst(pc) else {
                    unreachable!("plan class HfiEnter lowered from HfiEnter");
                };
                // Entry assertion: re-validate the springboard's
                // contract against the architectural register file
                // before the sandbox starts (free — the compares
                // overlap the enter microcode). This is the
                // fail-closed backstop for transition corruption.
                if let Some(contract) = self.program.contract() {
                    let mut skip = false;
                    if let Some(hook) = self.chaos.as_deref_mut() {
                        skip = hook.skip_transition_check(plan.pc(pc));
                    }
                    if !skip {
                        if let Some(reg) = contract.first_violation(&self.regs) {
                            return Flow::Fault(HfiFault::TransitionContract { reg });
                        }
                    }
                }
                *cycles += self.costs.enter_exit_base_cycles as f64;
                match self.hfi.enter(*config) {
                    Ok(effect) => self.count_serialize(effect, cycles, stats),
                    Err(fault) => return Flow::Fault(fault),
                }
            }
            OpClass::HfiEnterChild => {
                let Inst::HfiEnterChild { config, regions } = self.program.inst(pc) else {
                    unreachable!("plan class HfiEnterChild lowered from HfiEnterChild");
                };
                *cycles +=
                    (self.costs.enter_exit_base_cycles + self.costs.set_region_cycles) as f64;
                match self.hfi.enter_child(*config, **regions) {
                    Ok(effect) => self.count_serialize(effect, cycles, stats),
                    Err(fault) => return Flow::Fault(fault),
                }
            }
            OpClass::HfiExit => {
                *cycles += self.costs.enter_exit_base_cycles as f64;
                match self.hfi.exit() {
                    Ok((disposition, effect)) => {
                        self.count_serialize(effect, cycles, stats);
                        if let ExitDisposition::JumpToHandler(handler) = disposition {
                            next = match self.program.index_of_pc(handler) {
                                Some(idx) => idx,
                                None => {
                                    return Flow::Stop(Stop::Fault(HfiFault::Hardware {
                                        addr: handler,
                                    }));
                                }
                            };
                        }
                    }
                    Err(fault) => return Flow::Fault(fault),
                }
            }
            OpClass::HfiReenter => {
                *cycles += self.costs.enter_exit_base_cycles as f64;
                if let Err(fault) = self.hfi.reenter() {
                    return Flow::Fault(fault);
                }
            }
            OpClass::HfiSetRegion => {
                let Inst::HfiSetRegion { slot, region } = self.program.inst(pc) else {
                    unreachable!("plan class HfiSetRegion lowered from HfiSetRegion");
                };
                *cycles += self.costs.set_region_cycles as f64;
                match self.hfi.set_region(*slot as usize, *region) {
                    Ok(effect) => self.count_serialize(effect, cycles, stats),
                    Err(fault) => return Flow::Fault(fault),
                }
            }
            OpClass::HfiClearRegion => {
                *cycles += 1.0;
                if let Err(fault) = self.hfi.clear_region(uop.region as usize) {
                    return Flow::Fault(fault);
                }
            }
            OpClass::HfiClearAllRegions => {
                *cycles += 1.0;
                if let Err(fault) = self.hfi.clear_all_regions() {
                    return Flow::Fault(fault);
                }
            }
            OpClass::Halt => return Flow::Stop(Stop::Halted),
            class => unreachable!("{class:?} runs inside the block loop"),
        }
        Flow::Next(next)
    }

    /// Charges a serializing HFI instruction's drain, if it serialized.
    fn count_serialize(
        &self,
        effect: SerializationEffect,
        cycles: &mut f64,
        stats: &mut FunctionalStats,
    ) {
        if effect == SerializationEffect::Serialize {
            stats.serializations += 1;
            *cycles += self.costs.serialize_cycles as f64;
        }
    }

    /// A plain load or store through the implicit data regions (paper
    /// §3.2): the op's cost, counters, chaos sites and the access itself.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn data_access<const OBSERVED: bool>(
        &mut self,
        pc: usize,
        uop: &MicroOp,
        plan: &DecodedProgram,
        access: Access,
        enabled: bool,
        cycles: &mut f64,
        stats: &mut FunctionalStats,
    ) -> Result<(), HfiFault> {
        *cycles += self.weights.mem;
        stats.mem_ops += 1;
        if enabled {
            stats.hfi_checks += 1;
        }
        let (base, index) = (self.slot(uop.srcs[0]), self.slot(uop.srcs[1]));
        let mut addr = effective_address(base, index, uop.scale, uop.imm);
        let mut skip = false;
        if OBSERVED {
            if let Some(hook) = self.chaos.as_deref_mut() {
                addr = hook.perturb_ea(plan.pc(pc), addr);
                skip = hook.skip_guard(plan.pc(pc));
            }
        }
        // A disabled context checks nothing.
        if enabled && !skip {
            self.hfi.check_data(addr, uop.size as u64, access)?;
        }
        match access {
            Access::Write => self.mem.write(addr, self.slot(uop.srcs[2]), uop.size),
            _ => self.regs[uop.dst as usize] = self.mem.read(addr, uop.size),
        }
        if OBSERVED && self.chaos.is_some() {
            self.chaos_observe(ArchEvent::Mem {
                pc: plan.pc(pc),
                addr,
                size: uop.size,
                access,
                hmov: None,
                sandboxed: enabled,
            });
        }
        Ok(())
    }

    /// An `hmov` load or store through an explicit region (paper §3.2,
    /// §4.2): the op's cost, counters, chaos sites and the access itself.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn hmov_access<const OBSERVED: bool>(
        &mut self,
        pc: usize,
        uop: &MicroOp,
        plan: &DecodedProgram,
        access: Access,
        enabled: bool,
        cycles: &mut f64,
        stats: &mut FunctionalStats,
    ) -> Result<(), HfiFault> {
        *cycles += self.weights.mem;
        stats.mem_ops += 1;
        stats.hfi_checks += 1;
        let mut index = self.slot(uop.srcs[1]) as i64;
        let mut skip = false;
        if OBSERVED {
            if let Some(hook) = self.chaos.as_deref_mut() {
                // The flip lands in the address datapath upstream
                // of the §4.2 guard, which must still face it.
                index = hook.perturb_ea(plan.pc(pc), index as u64) as i64;
                skip = hook.skip_guard(plan.pc(pc));
            }
        }
        let scale = uop.scale as u64;
        let ea = match self.hfi.hmov_check_access(
            uop.region,
            index,
            scale,
            uop.imm,
            uop.size as u64,
            access,
        ) {
            Ok(ea) => ea,
            // A dropped guard micro-op: the raw AGU address proceeds
            // unchecked (fault injection only).
            Err(fault) => match self
                .hfi
                .hmov_unchecked_ea(uop.region, index, scale, uop.imm)
            {
                Some(ea) if skip => ea,
                _ => return Err(fault),
            },
        };
        match access {
            Access::Write => self.mem.write(ea, self.slot(uop.srcs[2]), uop.size),
            _ => self.regs[uop.dst as usize] = self.mem.read(ea, uop.size),
        }
        if OBSERVED && self.chaos.is_some() {
            self.chaos_observe(ArchEvent::Mem {
                pc: plan.pc(pc),
                addr: ea,
                size: uop.size,
                access,
                hmov: Some(uop.region),
                sandboxed: enabled,
            });
        }
        Ok(())
    }

    fn weight_of(&self, op: AluOp) -> f64 {
        match op {
            AluOp::Mul => self.weights.mul,
            AluOp::Div | AluOp::Rem => self.weights.div,
            _ => self.weights.alu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::isa::Cond;
    use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion};
    use hfi_core::{Region, SandboxConfig};

    #[test]
    fn functional_matches_simple_arithmetic() {
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), 6);
        asm.movi(Reg(1), 7);
        asm.alu(AluOp::Mul, Reg(2), Reg(0), Reg(1));
        asm.halt();
        let mut f = Functional::new(asm.finish());
        let result = f.run(1000);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[2], 42);
        assert!(result.cycles > 0.0);
    }

    #[test]
    fn functional_enforces_hmov_bounds() {
        let mut asm = ProgramBuilder::new(0x40_0000);
        let code = ImplicitCodeRegion::new(0x40_0000, 0xFFFF, true).unwrap();
        let heap = ExplicitDataRegion::large(0x100_0000, 1 << 16, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(6, Region::Explicit(heap));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.hmov_load(0, Reg(1), crate::isa::HmovOperand::disp(1 << 20), 8);
        asm.halt();
        let mut f = Functional::new(asm.finish());
        let result = f.run(1000);
        assert!(matches!(result.stop, Stop::Fault(HfiFault::Hmov { .. })));
    }

    #[test]
    fn a_run_resumes_where_the_last_one_stopped() {
        // Counts r0 up to 50, then halts: 2 + 50·2 + 1 steps.
        let program = {
            let mut asm = ProgramBuilder::new(0x1000);
            asm.movi(Reg(0), 0);
            asm.movi(Reg(1), 50);
            let top = asm.label();
            asm.place(top);
            asm.alu_ri(AluOp::Add, Reg(0), Reg(0), 1);
            asm.branch(Cond::Lt, Reg(0), Reg(1), top);
            asm.halt();
            Arc::new(asm.finish())
        };
        let whole = Functional::new(Arc::clone(&program)).run(1000);
        assert_eq!(whole.stop, Stop::Halted);
        assert_eq!(whole.stats.retired, 103);
        let mut sliced = Functional::new(program);
        let first = sliced.run(37);
        assert_eq!(first.stop, Stop::CycleLimit);
        assert_eq!(first.stats.retired, 37);
        assert_eq!(sliced.run(1000), whole, "the second run goes on");
        sliced.reset();
        assert_eq!(sliced.run(1000), whole, "a reset starts over");
    }

    #[test]
    fn serialized_transitions_cost_more() {
        let build = |serialize: bool| {
            let mut asm = ProgramBuilder::new(0x1000);
            let code = ImplicitCodeRegion::new(0x1000, 0xFFF, true).unwrap();
            asm.hfi_set_region(0, Region::Code(code));
            let config = if serialize {
                SandboxConfig::hybrid().serialized()
            } else {
                SandboxConfig::hybrid()
            };
            for _ in 0..10 {
                asm.hfi_enter(config);
                asm.hfi_exit();
            }
            asm.halt();
            asm.finish()
        };
        let mut fast = Functional::new(build(false));
        let mut slow = Functional::new(build(true));
        let fast_cycles = fast.run(10_000).cycles;
        let slow_cycles = slow.run(10_000).cycles;
        assert!(slow_cycles > fast_cycles + 10.0 * 2.0 * 30.0);
    }
}
