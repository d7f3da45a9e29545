//! The dataflow pass: a worklist fixpoint over the block table, then a
//! deterministic reporting pass.
//!
//! The analysis runs each basic block's micro-ops through a transfer
//! function over [`AbsVal`] register states plus three pieces of sandbox
//! state: an `hfi_enter`/`hfi_exit` *depth interval*, a call-depth
//! interval, and the abstract region-register file (which [`Region`] is
//! installed in which slot). Entry states of successor blocks are joined
//! until nothing changes; a second pass over the (now fixed) entry states
//! collects every [`Violation`] and, when there are none, the [`Proof`]
//! naming the guard instructions the result depends on.

use hfi_core::{slot_accepts, Region, FIRST_EXPLICIT_SLOT, NUM_REGIONS};
use hfi_sim::plan::{DecodedProgram, MicroOp, OpClass, NO_REG};
use hfi_sim::{AluOp, Cond, Inst, Program};

use crate::lattice::{AbsVal, NO_DEF};
use crate::spec::SandboxSpec;

/// Maximum tracked sandbox/call depth; intervals saturate here so the
/// fixpoint terminates even on unbalanced loops.
const DEPTH_CAP: u32 = 16;

/// Why a program failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// A plain load/store address depends on a register with no static
    /// bound.
    UnprovenAddress,
    /// A plain load/store's effective-address interval escapes every
    /// declared data window.
    OutOfWindow {
        /// Lowest possible effective address.
        lo: i128,
        /// Highest possible effective address (of the first byte).
        hi: i128,
    },
    /// A static branch/jump/call target does not land on a block-table
    /// entry (it is past the end of the program).
    BadBranchTarget {
        /// The offending instruction-index target.
        target: u32,
    },
    /// An `hfi_enter` names an exit handler that is not the start of a
    /// basic block (or no instruction at all).
    BadExitHandler {
        /// The handler byte PC.
        pc: u64,
    },
    /// `hfi_exit` may execute with no sandbox entered.
    ExitWithoutEnter,
    /// `halt` may execute with the sandbox still entered, but the spec
    /// requires exit-before-halt.
    HaltInsideSandbox,
    /// An `hmov` may execute with no sandbox entered (the hardware check
    /// would fault, so the program cannot work as compiled).
    HmovOutsideSandbox,
    /// An `hmov` names an explicit slot with no region installed on some
    /// path.
    SlotNotInstalled {
        /// The region-register slot.
        slot: u8,
    },
    /// A region installed (or required at enter) does not match the
    /// spec's metadata for that slot.
    RegionMismatch {
        /// The region-register slot.
        slot: u8,
    },
    /// At an `hfi_enter`, a spec-declared slot has no region installed.
    MissingRegionAtEnter {
        /// The region-register slot.
        slot: u8,
    },
    /// An `hmov` load/store needs a permission the installed region does
    /// not grant.
    PermissionDenied,
    /// An `hfi_set_region` violates the architectural slot-kind rule.
    BadSlotKind,
    /// An indirect jump through a register not proven to hold the
    /// hardware-written resume PC.
    IndirectJumpUnproven,
    /// The spec requires the program to enter its sandbox, but no
    /// reachable `hfi_enter` exists.
    MissingEnter,
    /// A `syscall` may execute outside the sandbox although the spec
    /// requires interposition.
    SyscallOutsideSandbox,
    /// The spec itself is malformed.
    SpecInvalid {
        /// What is wrong with it.
        detail: String,
    },
    /// The fixpoint failed to converge within its iteration budget.
    NoFixpoint,
    /// An emulated instruction does not correspond to its original under
    /// the A.2 transform rules.
    EmulationMismatch {
        /// What differs.
        detail: String,
    },
    /// The emulated program has a different instruction count than the
    /// original (the A.2 transform is index-preserving).
    EmulationLengthMismatch {
        /// Original instruction count.
        original: usize,
        /// Emulated instruction count.
        emulated: usize,
    },
    /// At an `hfi_enter`, a contract-declared register is not statically
    /// in its promised entry state (zeroed, or holding the declared
    /// stack top).
    TransitionContractViolated {
        /// The offending register.
        reg: u8,
    },
    /// The spec requires an elision proof, but some required-dead
    /// register is live into the sandbox (read before written after
    /// `hfi_enter`), so the springboard tax cannot be skipped.
    ElisionUnproven {
        /// Bit mask of live required-dead registers.
        live: u16,
    },
    /// The spec requires an elision proof, but guard state is mutated
    /// (or a syscall runs) inside the sandbox, so an unserialized
    /// zero-tax transition is not safe.
    SerializationRequired,
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reason::UnprovenAddress => f.write_str("address register has no static bound"),
            Reason::OutOfWindow { lo, hi } => {
                write!(
                    f,
                    "address interval [{lo:#x}, {hi:#x}] escapes every data window"
                )
            }
            Reason::BadBranchTarget { target } => {
                write!(f, "control target {target} is past the block table")
            }
            Reason::BadExitHandler { pc } => {
                write!(f, "exit handler pc {pc:#x} is not a block leader")
            }
            Reason::ExitWithoutEnter => f.write_str("hfi_exit may run with no sandbox entered"),
            Reason::HaltInsideSandbox => f.write_str("halt may run with the sandbox still entered"),
            Reason::HmovOutsideSandbox => f.write_str("hmov may run with no sandbox entered"),
            Reason::SlotNotInstalled { slot } => {
                write!(f, "explicit slot {slot} has no region installed")
            }
            Reason::RegionMismatch { slot } => {
                write!(f, "region in slot {slot} does not match the spec")
            }
            Reason::MissingRegionAtEnter { slot } => {
                write!(f, "slot {slot} not installed at hfi_enter")
            }
            Reason::PermissionDenied => f.write_str("region does not grant the access"),
            Reason::BadSlotKind => f.write_str("region kind does not match the slot"),
            Reason::IndirectJumpUnproven => {
                f.write_str("indirect jump register is not a hardware resume pc")
            }
            Reason::MissingEnter => f.write_str("no reachable hfi_enter"),
            Reason::SyscallOutsideSandbox => {
                f.write_str("syscall may run outside the sandbox (not interposed)")
            }
            Reason::SpecInvalid { detail } => write!(f, "spec invalid: {detail}"),
            Reason::NoFixpoint => f.write_str("dataflow fixpoint did not converge"),
            Reason::EmulationMismatch { detail } => write!(f, "emulation mismatch: {detail}"),
            Reason::EmulationLengthMismatch { original, emulated } => {
                write!(f, "emulation length {emulated} != original {original}")
            }
            Reason::TransitionContractViolated { reg } => {
                write!(f, "r{reg} is not provably in its contracted entry state")
            }
            Reason::ElisionUnproven { live } => {
                write!(
                    f,
                    "registers {live:#06x} are live into the sandbox; springboard not elidable"
                )
            }
            Reason::SerializationRequired => {
                f.write_str("guard state mutated inside the sandbox; serialization not elidable")
            }
        }
    }
}

/// One verification failure, locatable to an op and (when relevant) a
/// register with its offending lattice state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Instruction index of the offending op.
    pub op: usize,
    /// Its byte PC.
    pub pc: u64,
    /// The register at fault, when the failure is register-shaped.
    pub reg: Option<u8>,
    /// The lattice state the register was in.
    pub state: Option<AbsVal>,
    /// What went wrong.
    pub reason: Reason,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {} (pc {:#x}): {}", self.op, self.pc, self.reason)?;
        if let Some(reg) = self.reg {
            write!(f, " [r{reg}")?;
            if let Some(state) = &self.state {
                write!(f, " = {state:?}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// What role a load-bearing instruction plays in the proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardKind {
    /// A mask-and confining an address register.
    MaskAnd,
    /// A bounds-compare-and-branch guard.
    BoundsBranch,
    /// The instruction materializing a compared bound constant.
    BoundConst,
    /// A hardware-checked `hmov` access.
    CheckedHmov,
    /// An `hfi_enter` (with its at-enter slot obligations).
    Enter,
    /// An `hfi_exit` (pairing obligation).
    Exit,
    /// An `hfi_set_region` installing spec-checked metadata.
    SlotInstall,
}

/// One load-bearing instruction of a successful verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GuardSite {
    /// Instruction index.
    pub op: usize,
    /// Its role.
    pub kind: GuardKind,
}

/// The elision half of a transition proof: what the analysis learned
/// about whether the springboard tax (register zeroing, stack switch,
/// serialization) may be skipped for one `hfi_enter`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElisionProof {
    /// Registers read before written after the enter (live into the
    /// sandbox), as a bit mask.
    pub live_in: u16,
    /// The spec's required-dead mask ([`SandboxSpec::elision_regs`]).
    pub required_dead: u16,
    /// Instruction indices of in-sandbox guard-state mutations or
    /// syscalls (each one forbids eliding serialization).
    pub serialization_blockers: Vec<usize>,
}

impl ElisionProof {
    /// Register zeroing (and the stack switch) may be skipped: nothing
    /// the springboard would scrub is observable inside the sandbox.
    pub fn zeroing_elidable(&self) -> bool {
        self.live_in & self.required_dead == 0
    }

    /// Serialization may be skipped: guard state is never mutated while
    /// the sandbox runs.
    pub fn serialization_elidable(&self) -> bool {
        self.serialization_blockers.is_empty()
    }
}

/// Evidence attached to the proof for one reachable `hfi_enter`: which
/// instructions establish the springboard contract, and what the elision
/// analysis concluded. The transition mutation classes (`UnzeroedLeak`,
/// `SkippedStackSwitch`) draw their sites from here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionEvidence {
    /// Instruction index of the `hfi_enter` (or `hfi_enter_child`).
    pub enter_op: usize,
    /// `(register, defining op)` for every contract-zeroed register
    /// proven `== 0` at the enter.
    pub zeroing: Vec<(u8, u32)>,
    /// `(register, defining op)` for the proven stack-switch install.
    pub stack_switch: Option<(u8, u32)>,
    /// The elision analysis result (always computed when any transition
    /// evidence exists).
    pub elision: Option<ElisionProof>,
}

/// The artifact of a successful verification: which instructions the
/// safety argument rests on. The mutation harness corrupts exactly these
/// (plus control targets) and re-runs the verifier.
#[derive(Debug, Clone, Default)]
pub struct Proof {
    /// Load-bearing instructions, deduplicated, in instruction order.
    pub guards: Vec<GuardSite>,
    /// Guard instructions that *layer* a bound over a value that was
    /// already bounded by another instruction (e.g. the compiler's
    /// bounds branch over a kernel-code `and idx, 63`, or a synthesized
    /// emulation mask over an algorithmically-masked index). Removing or
    /// weakening any ONE of them leaves its partner still enforcing a
    /// bound — the mutant is equivalent, not unsafe — so single-site
    /// fault injection must skip these sites.
    pub paired: Vec<usize>,
    /// Number of memory micro-ops checked.
    pub mem_ops: usize,
    /// Number of reachable blocks analyzed.
    pub blocks: usize,
    /// Per-`hfi_enter` springboard evidence, in instruction order.
    pub transitions: Vec<TransitionEvidence>,
    /// Identity of the proof: spec hash, program hash, and verifier
    /// pass roster. Stamped by [`verify_program`]; the all-zero default
    /// only appears on hand-constructed proofs.
    pub digest: crate::cache::ProofDigest,
}

/// Per-block abstract state at block entry.
#[derive(Debug, Clone, PartialEq)]
struct BlockState {
    regs: [AbsVal; 16],
    /// Sandbox depth interval `[lo, hi]` (saturating at [`DEPTH_CAP`]).
    depth: (u32, u32),
    /// Call depth interval.
    calls: (u32, u32),
    /// Abstract region-register file: `Some` iff a region is installed
    /// on *every* path.
    slots: [Option<Region>; NUM_REGIONS],
}

impl BlockState {
    fn entry() -> Self {
        Self {
            regs: [AbsVal::Untrusted; 16],
            depth: (0, 0),
            calls: (0, 0),
            slots: [None; NUM_REGIONS],
        }
    }

    /// Joins `other` into `self`; true if anything changed.
    fn join_from(&mut self, other: &BlockState) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs.iter()) {
            let joined = AbsVal::join(*mine, *theirs);
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        let depth = (
            self.depth.0.min(other.depth.0),
            self.depth.1.max(other.depth.1),
        );
        if depth != self.depth {
            self.depth = depth;
            changed = true;
        }
        let calls = (
            self.calls.0.min(other.calls.0),
            self.calls.1.max(other.calls.1),
        );
        if calls != self.calls {
            self.calls = calls;
            changed = true;
        }
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots.iter()) {
            // Intersection join: keep only regions installed identically
            // on every path.
            if mine.is_some() && *mine != *theirs {
                *mine = None;
                changed = true;
            }
        }
        changed
    }
}

/// Collected during the reporting pass; `None` during fixpoint
/// iterations (which only propagate states).
#[derive(Default)]
struct Report {
    violations: Vec<Violation>,
    guards: Vec<GuardSite>,
    paired: Vec<usize>,
    mem_ops: usize,
    reachable_enter: bool,
    transitions: Vec<TransitionEvidence>,
}

impl Report {
    fn guard(&mut self, op: usize, kind: GuardKind) {
        let site = GuardSite { op, kind };
        if !self.guards.contains(&site) {
            self.guards.push(site);
        }
    }

    /// Marks a bound-enforcing site as redundantly paired with another
    /// (see [`Proof::paired`]).
    fn pair(&mut self, op: usize) {
        if !self.paired.contains(&op) {
            self.paired.push(op);
        }
    }

    /// Pairs every provenance index a bounded value carries: its
    /// defining guard and, for compare-checked values, the constant
    /// the comparison read.
    fn pair_provenance(&mut self, v: AbsVal) {
        if let Some(g) = v.guard_index() {
            self.pair(g as usize);
        }
        if let AbsVal::Checked { bound_def, .. } = v {
            if bound_def != NO_DEF {
                self.pair(bound_def as usize);
            }
        }
    }
}

struct Analysis<'a> {
    program: &'a Program,
    plan: &'a DecodedProgram,
    spec: &'a SandboxSpec,
    /// Entry state per block; `None` = not yet reached.
    entry: Vec<Option<BlockState>>,
}

/// The verifier's own successor derivation for a block, computed from the
/// terminator micro-op alone — deliberately *not* read from the plan's
/// pre-computed `fall_through`/`taken` fields, so the block table can be
/// cross-checked against it (see the property tests).
pub fn block_successors(plan: &DecodedProgram, block: usize) -> (Option<u32>, Option<u32>) {
    let b = plan.blocks()[block];
    let n = plan.len() as u32;
    let term = plan.op(b.end as usize - 1);
    let fall = (b.end < n).then_some(b.end);
    if !term.has(MicroOp::CONTROL) {
        return (fall, None);
    }
    let taken = ((term.target as usize) < n as usize).then_some(term.target);
    match term.class {
        OpClass::Branch | OpClass::BranchI | OpClass::Call => (fall, taken),
        OpClass::Jump => (None, taken),
        // Indirect jumps and returns have no static successor.
        _ => (None, None),
    }
}

impl<'a> Analysis<'a> {
    /// The abstract contribution interval of one EA operand slot, or an
    /// `Err` naming the unbounded register. `None` slot contributes zero.
    fn contribution(state: &BlockState, reg: u8) -> Result<(i128, i128), u8> {
        if reg == NO_REG {
            return Ok((0, 0));
        }
        let v = state.regs[reg as usize];
        match v.upper_bound() {
            Some(ub) => match v {
                AbsVal::Const { value, .. } => Ok((value as i128, value as i128)),
                _ => Ok((0, ub as i128)),
            },
            None => Err(reg),
        }
    }

    /// Runs one block's ops from `input`, returning the successor states.
    /// When `report` is given, also records violations and guard sites.
    fn run_block(
        &self,
        block: usize,
        input: &BlockState,
        mut report: Option<&mut Report>,
    ) -> Vec<(usize, BlockState)> {
        let b = self.plan.blocks()[block];
        let mut state = input.clone();
        let mut handler_seeds: Vec<(usize, BlockState)> = Vec::new();
        let mut halted = false;

        for i in b.start as usize..b.end as usize {
            let op = self.plan.op(i);
            let pc = self.plan.pc(i);
            let violate = |report: &mut Option<&mut Report>,
                           reg: Option<u8>,
                           state: Option<AbsVal>,
                           reason: Reason| {
                if let Some(r) = report.as_deref_mut() {
                    r.violations.push(Violation {
                        op: i,
                        pc,
                        reg,
                        state,
                        reason,
                    });
                }
            };
            match op.class {
                OpClass::MovI => {
                    state.regs[op.dst as usize] = AbsVal::Const {
                        value: op.imm as u64,
                        def: i as u32,
                    };
                }
                OpClass::Mov => {
                    state.regs[op.dst as usize] = state.regs[op.srcs[0] as usize];
                }
                OpClass::AluRI => {
                    let a = state.regs[op.srcs[0] as usize];
                    let imm = op.imm as u64;
                    // A mask applied to an already-bounded value layers
                    // two independent bounds: this site and the input's
                    // defining guard become a redundant pair.
                    if op.alu == AluOp::And
                        && op.imm >= 0
                        && matches!(a, AbsVal::Masked { .. } | AbsVal::Checked { .. })
                    {
                        if let Some(r) = report.as_deref_mut() {
                            r.pair(i);
                            r.pair_provenance(a);
                        }
                    }
                    state.regs[op.dst as usize] = match a {
                        AbsVal::Const { value, .. } => AbsVal::Const {
                            value: op.alu.eval(value, imm),
                            def: i as u32,
                        },
                        AbsVal::Bot => AbsVal::Bot,
                        _ => match op.alu {
                            // AND with a non-negative immediate bounds any
                            // input: result <= imm.
                            AluOp::And if op.imm >= 0 => {
                                if imm.wrapping_add(1).is_power_of_two() {
                                    AbsVal::Masked {
                                        mask: imm,
                                        by: i as u32,
                                    }
                                } else {
                                    AbsVal::Checked {
                                        lt: imm + 1,
                                        by: i as u32,
                                        bound_def: NO_DEF,
                                    }
                                }
                            }
                            // Identity ops preserve the operand's state.
                            AluOp::Add
                            | AluOp::Sub
                            | AluOp::Or
                            | AluOp::Xor
                            | AluOp::Shl
                            | AluOp::Shr
                                if op.imm == 0 =>
                            {
                                a
                            }
                            // Right shifts can only shrink an unsigned
                            // bounded value.
                            AluOp::Shr => match a.upper_bound() {
                                Some(ub) => AbsVal::Checked {
                                    lt: (ub >> (imm & 63)) + 1,
                                    by: i as u32,
                                    bound_def: NO_DEF,
                                },
                                None => AbsVal::Untrusted,
                            },
                            _ => AbsVal::Untrusted,
                        },
                    };
                }
                OpClass::AluRR => {
                    let a = state.regs[op.srcs[0] as usize];
                    let bb = state.regs[op.srcs[1] as usize];
                    state.regs[op.dst as usize] = match (a, bb) {
                        (AbsVal::Const { value: va, .. }, AbsVal::Const { value: vb, .. }) => {
                            AbsVal::Const {
                                value: op.alu.eval(va, vb),
                                def: i as u32,
                            }
                        }
                        (AbsVal::Bot, _) | (_, AbsVal::Bot) => AbsVal::Bot,
                        _ => AbsVal::Untrusted,
                    };
                }
                OpClass::Rdtsc => state.regs[op.dst as usize] = AbsVal::Untrusted,
                OpClass::Load | OpClass::Store => {
                    if let Some(r) = report.as_deref_mut() {
                        r.mem_ops += 1;
                    }
                    let base = Self::contribution(&state, op.srcs[0]);
                    let index = Self::contribution(&state, op.srcs[1]);
                    match (base, index) {
                        (Ok(b), Ok(x)) => {
                            let scale = op.scale as i128;
                            let lo = b.0 + x.0 * scale + op.imm as i128;
                            let hi = b.1 + x.1 * scale + op.imm as i128;
                            // A Bot contribution means this path is
                            // statically infeasible; the access is
                            // vacuously safe.
                            let infeasible = [op.srcs[0], op.srcs[1]]
                                .iter()
                                .any(|&r| r != NO_REG && state.regs[r as usize] == AbsVal::Bot);
                            if !infeasible {
                                let covered =
                                    self.spec.windows.iter().any(|w| w.covers(lo, hi, op.size));
                                if covered {
                                    if let Some(r) = report.as_deref_mut() {
                                        for &reg in &[op.srcs[0], op.srcs[1]] {
                                            if reg == NO_REG {
                                                continue;
                                            }
                                            self.credit_guards(r, state.regs[reg as usize]);
                                        }
                                    }
                                } else {
                                    violate(
                                        &mut report,
                                        None,
                                        None,
                                        Reason::OutOfWindow { lo, hi },
                                    );
                                }
                            }
                        }
                        (Err(reg), _) | (_, Err(reg)) => {
                            violate(
                                &mut report,
                                Some(reg),
                                Some(state.regs[reg as usize]),
                                Reason::UnprovenAddress,
                            );
                        }
                    }
                    if op.class == OpClass::Load {
                        state.regs[op.dst as usize] = AbsVal::Untrusted;
                    }
                }
                OpClass::HmovLoad | OpClass::HmovStore => {
                    if let Some(r) = report.as_deref_mut() {
                        r.mem_ops += 1;
                    }
                    self.check_hmov(i, op, &mut state, &mut report, pc);
                    if op.class == OpClass::HmovLoad {
                        state.regs[op.dst as usize] = AbsVal::Untrusted;
                    }
                }
                OpClass::Flush => {}
                OpClass::Branch | OpClass::BranchI | OpClass::Jump | OpClass::Call => {
                    // Static targets are checked structurally (over the
                    // whole program, reachable or not) in `verify_program`.
                }
                OpClass::JumpInd => {
                    let v = state.regs[op.srcs[0] as usize];
                    if v != AbsVal::ResumePc {
                        violate(
                            &mut report,
                            Some(op.srcs[0]),
                            Some(v),
                            Reason::IndirectJumpUnproven,
                        );
                    }
                }
                OpClass::Ret => {}
                OpClass::Syscall => {
                    // Redirected (in-sandbox) syscalls may clobber the
                    // handler's write set; plain OS syscalls write only
                    // the return register r0.
                    if state.depth.1 >= 1 {
                        for &r in &self.spec.syscall_clobbers {
                            state.regs[r as usize] = AbsVal::Untrusted;
                        }
                    }
                    state.regs[0] = AbsVal::Untrusted;
                }
                OpClass::Cpuid | OpClass::Fence | OpClass::Nop => {}
                OpClass::HfiEnter | OpClass::HfiEnterChild => {
                    if let Some(r) = report.as_deref_mut() {
                        r.reachable_enter = true;
                        r.guard(i, GuardKind::Enter);
                    }
                    // Springboard contract: every contract-zeroed register
                    // must provably hold 0, and the switched stack pointer
                    // its declared top, at the plain enter — the static
                    // twin of the executors' runtime entry assertion. The
                    // defining instructions become transition evidence
                    // (the sites the transition mutation classes corrupt).
                    let mut evidence = TransitionEvidence {
                        enter_op: i,
                        ..Default::default()
                    };
                    if op.class == OpClass::HfiEnter {
                        if let Some(contract) = &self.spec.transition_contract {
                            for reg in 0..16u8 {
                                if contract.zeroed & (1 << reg) == 0 {
                                    continue;
                                }
                                match state.regs[reg as usize] {
                                    AbsVal::Const { value: 0, def } if def != NO_DEF => {
                                        evidence.zeroing.push((reg, def));
                                    }
                                    AbsVal::Const { value: 0, .. } => {}
                                    other => violate(
                                        &mut report,
                                        Some(reg),
                                        Some(other),
                                        Reason::TransitionContractViolated { reg },
                                    ),
                                }
                            }
                            if let Some(sw) = &contract.stack {
                                match state.regs[sw.reg as usize] {
                                    AbsVal::Const { value, def }
                                        if value == sw.top && def != NO_DEF =>
                                    {
                                        evidence.stack_switch = Some((sw.reg, def));
                                    }
                                    AbsVal::Const { value, .. } if value == sw.top => {}
                                    other => violate(
                                        &mut report,
                                        Some(sw.reg),
                                        Some(other),
                                        Reason::TransitionContractViolated { reg: sw.reg },
                                    ),
                                }
                            }
                        }
                    }
                    if let Some(r) = report.as_deref_mut() {
                        r.transitions.push(evidence);
                    }
                    let config = match self.program.inst(i) {
                        Inst::HfiEnter { config } => Some(*config),
                        Inst::HfiEnterChild { config, regions } => {
                            state.slots = **regions;
                            Some(*config)
                        }
                        _ => None,
                    };
                    // Spec obligation: every declared slot installed, with
                    // exactly the declared metadata, before entering.
                    for (slot, region) in &self.spec.slots {
                        match state.slots[*slot as usize] {
                            None => violate(
                                &mut report,
                                None,
                                None,
                                Reason::MissingRegionAtEnter { slot: *slot },
                            ),
                            Some(installed) if installed != *region => violate(
                                &mut report,
                                None,
                                None,
                                Reason::RegionMismatch { slot: *slot },
                            ),
                            Some(_) => {}
                        }
                    }
                    if let Some(config) = config {
                        if let Some(handler_pc) = config.exit_handler {
                            match self.program.index_of_pc(handler_pc).filter(|&idx| {
                                self.plan.blocks()[self.plan.block_of(idx)].start as usize == idx
                            }) {
                                Some(idx) => {
                                    // The handler runs after a hardware
                                    // exit event: registers untrusted
                                    // except the resume PC in r14, depth
                                    // back at the pre-enter level.
                                    let mut seed = BlockState {
                                        regs: [AbsVal::Untrusted; 16],
                                        depth: state.depth,
                                        calls: state.calls,
                                        slots: state.slots,
                                    };
                                    seed.regs[14] = AbsVal::ResumePc;
                                    handler_seeds.push((self.plan.block_of(idx), seed));
                                }
                                None => violate(
                                    &mut report,
                                    None,
                                    None,
                                    Reason::BadExitHandler { pc: handler_pc },
                                ),
                            }
                        }
                    }
                    state.depth = (
                        (state.depth.0 + 1).min(DEPTH_CAP),
                        (state.depth.1 + 1).min(DEPTH_CAP),
                    );
                }
                OpClass::HfiExit => {
                    if let Some(r) = report.as_deref_mut() {
                        r.guard(i, GuardKind::Exit);
                    }
                    if state.depth.0 == 0 {
                        violate(&mut report, None, None, Reason::ExitWithoutEnter);
                    }
                    state.depth = (
                        state.depth.0.saturating_sub(1),
                        state.depth.1.saturating_sub(1),
                    );
                }
                OpClass::HfiReenter => {
                    state.depth = (
                        (state.depth.0 + 1).min(DEPTH_CAP),
                        (state.depth.1 + 1).min(DEPTH_CAP),
                    );
                }
                OpClass::HfiSetRegion => {
                    if let Inst::HfiSetRegion { slot, region } = self.program.inst(i) {
                        if slot_accepts(*slot as usize, region).is_err() {
                            violate(&mut report, None, None, Reason::BadSlotKind);
                        } else {
                            if let Some(expected) = self.spec.region_for_slot(*slot) {
                                if let Some(r) = report.as_deref_mut() {
                                    r.guard(i, GuardKind::SlotInstall);
                                    // Re-installing the region the slot
                                    // already holds on every path (the
                                    // memory.grow idiom) is idempotent:
                                    // dropping such a site leaves the
                                    // earlier install enforcing, so it
                                    // is no single-site mutation target.
                                    if state.slots[*slot as usize] == Some(*region) {
                                        r.pair(i);
                                    }
                                }
                                if expected != region {
                                    violate(
                                        &mut report,
                                        None,
                                        None,
                                        Reason::RegionMismatch { slot: *slot },
                                    );
                                }
                            }
                            state.slots[*slot as usize] = Some(*region);
                        }
                    }
                }
                OpClass::HfiClearRegion => {
                    state.slots[op.region as usize] = None;
                }
                OpClass::HfiClearAllRegions => {
                    state.slots = [None; NUM_REGIONS];
                }
                OpClass::Halt => {
                    if self.spec.require_exit_before_halt && state.depth.1 > 0 {
                        violate(&mut report, None, None, Reason::HaltInsideSandbox);
                    }
                    // Execution stops here; anything after this point in
                    // the block is unreachable through it.
                    halted = true;
                }
            }
            if halted {
                break;
            }
        }

        let mut successors = handler_seeds;
        if halted {
            return successors;
        }

        // Edge states, with branch refinement on the guard register.
        let term = self.plan.op(b.end as usize - 1);
        let (fall, taken) = block_successors(self.plan, block);
        let mut fall_state = state.clone();
        let mut taken_state = state.clone();
        match term.class {
            OpClass::Branch | OpClass::BranchI => {
                let (k, bound_def) = if term.class == OpClass::BranchI {
                    (Some(term.imm as u64), NO_DEF)
                } else {
                    match state.regs[term.srcs[1] as usize] {
                        AbsVal::Const { value, def } => (Some(value), def),
                        _ => (None, NO_DEF),
                    }
                };
                if let Some(k) = k {
                    let a = term.srcs[0] as usize;
                    let by = b.end - 1;
                    // A bounds compare over an already-bounded value
                    // (e.g. the compiler's per-access branch over a
                    // kernel-code mask) is a redundant pair: the branch,
                    // its bound constant, and the input's own guard each
                    // keep the value bounded without the others.
                    if matches!(term.cond, Cond::GeU | Cond::LtU)
                        && matches!(
                            state.regs[a],
                            AbsVal::Masked { .. } | AbsVal::Checked { .. }
                        )
                    {
                        if let Some(r) = report {
                            r.pair(by as usize);
                            if bound_def != NO_DEF {
                                r.pair(bound_def as usize);
                            }
                            r.pair_provenance(state.regs[a]);
                        }
                    }
                    // Refinement is deliberately forward-only: a loop
                    // back-edge (`blt i, n, top`) does bound the counter,
                    // but learning from it would let incidental loop
                    // bounds shadow the dedicated per-access guards — a
                    // proof should name the instruction that *guards* an
                    // access, not whichever comparison happened to pin
                    // the value down. Dedicated guards (compare-and-trap,
                    // mask-and) always refine forward.
                    let taken_is_forward = term.target as usize >= b.end as usize;
                    match term.cond {
                        // a >= k branches away: the fall-through knows a < k.
                        Cond::GeU => {
                            fall_state.regs[a] = state.regs[a].refine_lt(k, by, bound_def);
                        }
                        // a < k branches: the taken edge knows a < k.
                        Cond::LtU if taken_is_forward => {
                            taken_state.regs[a] = state.regs[a].refine_lt(k, by, bound_def);
                        }
                        Cond::LtU => {}
                        Cond::Eq if taken_is_forward => {
                            taken_state.regs[a] = AbsVal::Const {
                                value: k,
                                def: NO_DEF,
                            };
                        }
                        Cond::Eq => {}
                        Cond::Ne => {
                            fall_state.regs[a] = AbsVal::Const {
                                value: k,
                                def: NO_DEF,
                            };
                        }
                        // Signed compares are not used as sandbox guards.
                        Cond::Lt | Cond::Ge => {}
                    }
                }
            }
            OpClass::Call => {
                // The post-call continuation: assume a balanced callee
                // (registers havocked, sandbox state preserved).
                fall_state.regs = [AbsVal::Untrusted; 16];
                taken_state.calls = (
                    (state.calls.0 + 1).min(DEPTH_CAP),
                    (state.calls.1 + 1).min(DEPTH_CAP),
                );
            }
            _ => {}
        }
        // block_successors returns *instruction* indices of the leader
        // ops; the worklist is block-indexed.
        if let Some(f) = fall {
            successors.push((self.plan.block_of(f as usize), fall_state));
        }
        if let Some(t) = taken {
            successors.push((self.plan.block_of(t as usize), taken_state));
        }
        successors
    }

    fn credit_guards(&self, report: &mut Report, v: AbsVal) {
        match v {
            AbsVal::Masked { by, .. } => report.guard(by as usize, GuardKind::MaskAnd),
            AbsVal::Checked { by, bound_def, .. } => {
                if by != NO_DEF {
                    report.guard(by as usize, GuardKind::BoundsBranch);
                }
                if bound_def != NO_DEF && self.plan.op(bound_def as usize).class == OpClass::MovI {
                    report.guard(bound_def as usize, GuardKind::BoundConst);
                }
            }
            _ => {}
        }
    }

    fn check_hmov(
        &self,
        i: usize,
        op: &MicroOp,
        state: &mut BlockState,
        report: &mut Option<&mut Report>,
        pc: u64,
    ) {
        let violate = |report: &mut Option<&mut Report>, reason: Reason| {
            if let Some(r) = report.as_deref_mut() {
                r.violations.push(Violation {
                    op: i,
                    pc,
                    reg: None,
                    state: None,
                    reason,
                });
            }
        };
        if state.depth.0 == 0 {
            violate(report, Reason::HmovOutsideSandbox);
        }
        let slot = FIRST_EXPLICIT_SLOT + op.region as usize;
        let region = match state.slots.get(slot).copied().flatten() {
            Some(Region::Explicit(r)) => r,
            _ => {
                violate(report, Reason::SlotNotInstalled { slot: slot as u8 });
                return;
            }
        };
        let access_ok = if op.class == OpClass::HmovStore {
            region.write()
        } else {
            region.read()
        };
        if !access_ok {
            violate(report, Reason::PermissionDenied);
        }
        // Note: the *offset* needs no static check at all, even when it is
        // a known out-of-bounds constant — the hardware bounds check covers
        // every hmov (that is the point of hmov), and an access that always
        // faults is safe (it traps), merely useless. Deliberately-trapping
        // programs are legitimate, so this is not a violation.
        if let Some(r) = report.as_deref_mut() {
            r.guard(i, GuardKind::CheckedHmov);
        }
    }
}

/// Verifies a program against a spec, over its decoded plan
/// ([`Program::plan`], lowered on first use and shared with every
/// executor of the program).
///
/// On success, returns the [`Proof`] naming the guard instructions the
/// verdict depends on; on failure, every violation found (the reporting
/// pass does not stop at the first).
pub fn verify_program(program: &Program, spec: &SandboxSpec) -> Result<Proof, Vec<Violation>> {
    if let Err(detail) = spec.validate() {
        return Err(vec![Violation {
            op: 0,
            pc: program.base(),
            reg: None,
            state: None,
            reason: Reason::SpecInvalid { detail },
        }]);
    }
    let digest = crate::cache::ProofDigest::compute(program, spec);
    let plan = program.plan();
    if plan.is_empty() {
        return Ok(Proof {
            digest,
            ..Proof::default()
        });
    }

    let mut analysis = Analysis {
        program,
        plan,
        spec,
        entry: vec![None; plan.blocks().len()],
    };
    analysis.entry[0] = Some(BlockState::entry());

    // Worklist fixpoint over block entry states.
    let mut worklist: Vec<usize> = vec![0];
    let budget = plan.blocks().len() * 64 + 256;
    let mut visits = 0usize;
    while let Some(block) = worklist.pop() {
        visits += 1;
        if visits > budget {
            return Err(vec![Violation {
                op: plan.blocks()[block].start as usize,
                pc: plan.pc(plan.blocks()[block].start as usize),
                reg: None,
                state: None,
                reason: Reason::NoFixpoint,
            }]);
        }
        let input = analysis.entry[block]
            .clone()
            .expect("worklist blocks have states");
        for (succ, out_state) in analysis.run_block(block, &input, None) {
            match &mut analysis.entry[succ] {
                Some(existing) => {
                    if existing.join_from(&out_state) && !worklist.contains(&succ) {
                        worklist.push(succ);
                    }
                }
                slot @ None => {
                    *slot = Some(out_state);
                    if !worklist.contains(&succ) {
                        worklist.push(succ);
                    }
                }
            }
        }
    }

    // Reporting pass over the fixed entry states, in block order.
    let mut report = Report::default();

    // Structural pass: every static control target must land on a
    // block-table entry, *including in unreachable code* — dead blocks
    // are one stray indirect jump away from being reached, and the block
    // table itself (which everything downstream indexes through) is
    // derived from these targets. In-range targets are block leaders by
    // construction, so `target < len` is the whole check.
    for i in 0..plan.len() {
        let op = plan.op(i);
        match op.class {
            OpClass::Branch | OpClass::BranchI | OpClass::Jump | OpClass::Call
                if op.target as usize >= plan.len() =>
            {
                report.violations.push(Violation {
                    op: i,
                    pc: plan.pc(i),
                    reg: None,
                    state: None,
                    reason: Reason::BadBranchTarget { target: op.target },
                });
            }
            _ => {}
        }
    }

    let mut reachable_blocks = 0usize;
    for block in 0..plan.blocks().len() {
        let Some(input) = analysis.entry[block].clone() else {
            continue;
        };
        reachable_blocks += 1;
        let _ = analysis.run_block(block, &input, Some(&mut report));
    }

    if spec.interpose_syscalls {
        // Interposition families additionally require every reachable
        // syscall outside an exit handler to run inside the sandbox; see
        // `SandboxSpec` docs. Checked via the depth interval: a redirect
        // needs depth >= 1.
        check_interposed_syscalls(&analysis, &mut report);
    }
    if spec.require_enter && !report.reachable_enter {
        report.violations.push(Violation {
            op: 0,
            pc: plan.pc(0),
            reg: None,
            state: None,
            reason: Reason::MissingEnter,
        });
    }
    if !report.transitions.is_empty() {
        attach_elision(&analysis, &mut report, spec);
    }

    if report.violations.is_empty() {
        let mut guards = report.guards;
        guards.sort_by_key(|g| (g.op, g.kind as u8));
        let mut paired = report.paired;
        paired.sort_unstable();
        let mut transitions = report.transitions;
        transitions.sort_by_key(|t| t.enter_op);
        Ok(Proof {
            guards,
            paired,
            mem_ops: report.mem_ops,
            blocks: reachable_blocks,
            transitions,
            digest,
        })
    } else {
        report.violations.sort_by_key(|v| v.op);
        Err(report.violations)
    }
}

/// The elision analysis (the "isolation without taxation" argument): a
/// backward liveness fixpoint over the block table decides which
/// registers the sandbox could observe at entry, and a depth walk over
/// the reachable blocks collects in-sandbox guard-state mutations.
/// The result is attached to every [`TransitionEvidence`]; it only
/// *fails* verification when the spec requires an elision proof.
fn attach_elision(analysis: &Analysis<'_>, report: &mut Report, spec: &SandboxSpec) {
    let plan = analysis.plan;
    let nblocks = plan.blocks().len();

    let uses_defs = |i: usize| -> (u16, u16) {
        let op = plan.op(i);
        let mut uses = 0u16;
        let mut defs = 0u16;
        for &s in &op.srcs {
            if s != NO_REG {
                uses |= 1 << s;
            }
        }
        if op.class == OpClass::Syscall {
            // Reads the syscall number in r0; clobbers the spec's set.
            uses |= 1;
            defs |= 1;
            for &r in &spec.syscall_clobbers {
                defs |= 1 << r;
            }
        }
        if op.dst != NO_REG {
            defs |= 1 << op.dst;
        }
        (uses, defs)
    };

    // Block-level read-before-write (use) and write (def) masks.
    let mut use_mask = vec![0u16; nblocks];
    let mut def_mask = vec![0u16; nblocks];
    for (block, b) in plan.blocks().iter().enumerate() {
        for i in b.start as usize..b.end as usize {
            let (u, d) = uses_defs(i);
            use_mask[block] |= u & !def_mask[block];
            def_mask[block] |= d;
            if plan.op(i).class == OpClass::Halt {
                break;
            }
        }
    }

    // `ret` and indirect jumps have no static successor: everything may
    // be live there. `halt` (and falling off the program) ends the
    // machine: nothing is.
    let live_out = |block: usize, live_in: &[u16]| -> u16 {
        let b = plan.blocks()[block];
        let (fall, taken) = block_successors(plan, block);
        if fall.is_none() && taken.is_none() {
            return match plan.op(b.end as usize - 1).class {
                OpClass::Halt => 0,
                _ => 0xFFFF,
            };
        }
        let mut out = 0;
        if let Some(f) = fall {
            out |= live_in[plan.block_of(f as usize)];
        }
        if let Some(t) = taken {
            out |= live_in[plan.block_of(t as usize)];
        }
        out
    };

    // Backward fixpoint (monotone over a finite lattice: terminates).
    let mut live_in = vec![0u16; nblocks];
    loop {
        let mut changed = false;
        for block in (0..nblocks).rev() {
            let out = live_out(block, &live_in);
            let new = use_mask[block] | (out & !def_mask[block]);
            if new != live_in[block] {
                live_in[block] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // In-sandbox guard-state mutations (and syscalls), via the fixed
    // depth intervals — the guard-state-preservation half of the proof.
    let mut blockers: Vec<usize> = Vec::new();
    for block in 0..nblocks {
        let Some(input) = &analysis.entry[block] else {
            continue;
        };
        let mut depth_hi = input.depth.1;
        let b = plan.blocks()[block];
        for i in b.start as usize..b.end as usize {
            match plan.op(i).class {
                OpClass::HfiEnter | OpClass::HfiEnterChild | OpClass::HfiReenter => {
                    depth_hi = (depth_hi + 1).min(DEPTH_CAP);
                }
                OpClass::HfiExit => depth_hi = depth_hi.saturating_sub(1),
                OpClass::HfiSetRegion
                | OpClass::HfiClearRegion
                | OpClass::HfiClearAllRegions
                | OpClass::Syscall
                    if depth_hi >= 1 =>
                {
                    blockers.push(i);
                }
                OpClass::Halt => break,
                _ => {}
            }
        }
    }
    blockers.sort_unstable();
    blockers.dedup();

    for ev in &mut report.transitions {
        // Live registers just after the enter: the containing block's
        // live-out, walked backward to the op following the enter.
        let block = plan.block_of(ev.enter_op);
        let b = plan.blocks()[block];
        let mut live = live_out(block, &live_in);
        for i in (ev.enter_op + 1..b.end as usize).rev() {
            let (u, d) = uses_defs(i);
            live = (live & !d) | u;
        }
        // A configured exit handler can observe the register file at any
        // interruption point; no elision is provable then.
        let handler_configured = match analysis.program.inst(ev.enter_op) {
            Inst::HfiEnter { config } | Inst::HfiEnterChild { config, .. } => {
                config.exit_handler.is_some()
            }
            _ => false,
        };
        if handler_configured {
            live = 0xFFFF;
        }
        ev.elision = Some(ElisionProof {
            live_in: live,
            required_dead: spec.elision_regs,
            serialization_blockers: blockers.clone(),
        });
    }

    if spec.require_elision_proof {
        let mut violations = Vec::new();
        for ev in &report.transitions {
            let el = ev.elision.as_ref().expect("just attached");
            if !el.zeroing_elidable() {
                violations.push(Violation {
                    op: ev.enter_op,
                    pc: plan.pc(ev.enter_op),
                    reg: None,
                    state: None,
                    reason: Reason::ElisionUnproven {
                        live: el.live_in & el.required_dead,
                    },
                });
            }
            for &op in &el.serialization_blockers {
                violations.push(Violation {
                    op,
                    pc: plan.pc(op),
                    reg: None,
                    state: None,
                    reason: Reason::SerializationRequired,
                });
            }
        }
        report.violations.extend(violations);
    }
}

/// Every reachable syscall must be able to run only at sandbox depth 1
/// or deeper, unless it is handler-only code (reached at depth interval
/// with `ResumePc` seeded — i.e. a block whose entry has r14 = ResumePc
/// and depth.lo == 0 from the handler seed).
fn check_interposed_syscalls(analysis: &Analysis<'_>, report: &mut Report) {
    let plan = analysis.plan;
    for block in 0..plan.blocks().len() {
        let Some(input) = analysis.entry[block].clone() else {
            continue;
        };
        // Handler blocks are seeded with the hardware resume PC; their
        // syscalls legitimately run outside the sandbox.
        let handler_like = input.regs.contains(&AbsVal::ResumePc);
        if handler_like {
            continue;
        }
        let b = plan.blocks()[block];
        let mut depth_lo = input.depth.0;
        for i in b.start as usize..b.end as usize {
            let op = plan.op(i);
            match op.class {
                OpClass::Syscall if depth_lo == 0 => {
                    report.violations.push(Violation {
                        op: i,
                        pc: plan.pc(i),
                        reg: None,
                        state: None,
                        reason: Reason::SyscallOutsideSandbox,
                    });
                }
                OpClass::HfiEnter | OpClass::HfiEnterChild | OpClass::HfiReenter => {
                    depth_lo = (depth_lo + 1).min(DEPTH_CAP);
                }
                OpClass::HfiExit => depth_lo = depth_lo.saturating_sub(1),
                OpClass::Halt => break,
                _ => {}
            }
        }
    }
}

/// Translation validation of the index-preserving A.2 emulation: proves
/// the *original* program safe under `spec`, then checks that `emulated`
/// corresponds to it instruction-for-instruction under the transform's
/// rules (`hmov` → constant-base `mov` at `EMULATION_BASE`, serialized
/// enter/exit → `cpuid`, region updates → a value-preserving `or`).
///
/// The emulated stream itself is *not* independently sandbox-safe — the
/// plain A.2 transform keeps dynamic indices unguarded by design (it is
/// a cost-measurement vehicle, cross-validated dynamically in Fig. 2) —
/// which is exactly why validation against a verified original is the
/// right contract, following the VeriWasm/translation-validation line.
pub fn verify_emulation(
    original: &Program,
    emulated: &Program,
    spec: &SandboxSpec,
) -> Result<Proof, Vec<Violation>> {
    let proof = verify_program(original, spec)?;
    let violations = emulation_correspondence(original, emulated);
    if violations.is_empty() {
        Ok(proof)
    } else {
        Err(violations)
    }
}

/// The per-instruction half of emulation validation, shared with the
/// cached entry point (the original's proof memoizes; this linear check
/// runs every time).
pub(crate) fn emulation_correspondence(original: &Program, emulated: &Program) -> Vec<Violation> {
    let mut violations = Vec::new();
    if original.len() != emulated.len() {
        violations.push(Violation {
            op: 0,
            pc: emulated.base(),
            reg: None,
            state: None,
            reason: Reason::EmulationLengthMismatch {
                original: original.len(),
                emulated: emulated.len(),
            },
        });
        return violations;
    }
    for i in 0..original.len() {
        if let Some(detail) = emulation_mismatch(original.inst(i), emulated.inst(i)) {
            violations.push(Violation {
                op: i,
                pc: emulated.pc_of(i),
                reg: None,
                state: None,
                reason: Reason::EmulationMismatch { detail },
            });
        }
    }
    violations
}

/// The correspondence rules of the A.2 transform, restated independently
/// of `hfi_sim::emulation::emulate` (the point of translation validation
/// is to not trust the transformer).
fn emulation_mismatch(original: &Inst, emulated: &Inst) -> Option<String> {
    use hfi_sim::EMULATION_BASE;
    let ok = match (original, emulated) {
        (
            Inst::HmovLoad { dst, mem, size, .. },
            Inst::Load {
                dst: edst,
                mem: emem,
                size: esize,
            },
        ) => {
            dst == edst
                && size == esize
                && emem.base.is_none()
                && emem.index == mem.index
                && emem.scale == mem.scale
                && emem.disp == mem.disp + EMULATION_BASE as i64
        }
        (
            Inst::HmovStore { src, mem, size, .. },
            Inst::Store {
                src: esrc,
                mem: emem,
                size: esize,
            },
        ) => {
            src == esrc
                && size == esize
                && emem.base.is_none()
                && emem.index == mem.index
                && emem.scale == mem.scale
                && emem.disp == mem.disp + EMULATION_BASE as i64
        }
        (Inst::HfiEnter { config } | Inst::HfiEnterChild { config, .. }, e) => {
            if config.serialize {
                matches!(e, Inst::Cpuid)
            } else {
                matches!(e, Inst::Nop)
            }
        }
        (Inst::HfiExit | Inst::HfiReenter, e) => matches!(e, Inst::Cpuid),
        (Inst::HfiSetRegion { .. } | Inst::HfiClearRegion { .. } | Inst::HfiClearAllRegions, e) => {
            matches!(
                e,
                Inst::AluRI {
                    op: AluOp::Or,
                    dst: hfi_sim::Reg(15),
                    a: hfi_sim::Reg(15),
                    imm: 0,
                }
            )
        }
        (a, b) => a == b,
    };
    if ok {
        None
    } else {
        Some(format!("{original:?} does not correspond to {emulated:?}"))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use hfi_core::{ExplicitDataRegion, ImplicitCodeRegion, SandboxConfig};
    use hfi_sim::{AluOp, Cond, HmovOperand, MemOperand, ProgramBuilder, Reg};

    const HEAP_BASE: u64 = 0x1000_0000;
    const HEAP_SIZE: u64 = 0x10_0000;

    /// The bounds-check idiom the wasm compiler emits: clamp via a
    /// compare-and-branch against a movi'd bound, then access.
    fn bounds_checked_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new(0x1000);
        let trap = b.label();
        b.movi(Reg(15), HEAP_BASE as i64);
        b.movi(Reg(11), (HEAP_SIZE - 8) as i64);
        b.alu_ri(AluOp::Add, Reg(14), Reg(1), 0);
        b.branch(Cond::GeU, Reg(14), Reg(11), trap);
        b.load(
            Reg(0),
            MemOperand {
                base: Some(Reg(15)),
                index: Some(Reg(14)),
                scale: 1,
                disp: 0,
            },
            8,
        );
        b.halt();
        b.place(trap);
        b.halt();
        b.finish_arc()
    }

    fn heap_spec() -> SandboxSpec {
        SandboxSpec::new("test-heap").window("heap", HEAP_BASE, HEAP_SIZE)
    }

    #[test]
    fn bounds_checked_access_verifies_and_names_its_guards() {
        let p = bounds_checked_program();
        let proof = verify_program(&p, &heap_spec()).expect("verifies");
        assert_eq!(proof.mem_ops, 1);
        assert!(proof.guards.contains(&GuardSite {
            op: 3,
            kind: GuardKind::BoundsBranch
        }));
        assert!(proof.guards.contains(&GuardSite {
            op: 1,
            kind: GuardKind::BoundConst
        }));
    }

    #[test]
    fn dropping_the_bounds_branch_is_rejected() {
        let p = bounds_checked_program();
        let mut insts = p.insts().to_vec();
        insts[3] = Inst::Nop;
        let broken = Arc::new(p.with_insts(insts));
        let violations = verify_program(&broken, &heap_spec()).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.reason == Reason::UnprovenAddress && v.reg == Some(14)));
    }

    #[test]
    fn mask_guard_verifies_and_widened_window_escape_is_caught() {
        let mut b = ProgramBuilder::new(0x1000);
        b.alu_ri(AluOp::And, Reg(2), Reg(1), 0xFFF);
        b.movi(Reg(15), HEAP_BASE as i64);
        b.load(
            Reg(0),
            MemOperand {
                base: Some(Reg(15)),
                index: Some(Reg(2)),
                scale: 1,
                disp: 0,
            },
            8,
        );
        b.halt();
        let p = b.finish_arc();
        let proof = verify_program(&p, &heap_spec()).expect("verifies");
        assert!(proof.guards.contains(&GuardSite {
            op: 0,
            kind: GuardKind::MaskAnd
        }));

        // A window too small for the masked range is an OutOfWindow.
        let tight = SandboxSpec::new("tight").window("heap", HEAP_BASE, 0x800);
        let violations = verify_program(&p, &tight).unwrap_err();
        assert!(matches!(violations[0].reason, Reason::OutOfWindow { .. }));
    }

    fn heap_region() -> Region {
        Region::Explicit(
            ExplicitDataRegion::large(HEAP_BASE, HEAP_SIZE, true, true).expect("valid region"),
        )
    }

    fn hmov_program(install: bool, enter: bool, exit: bool) -> Arc<Program> {
        let mut b = ProgramBuilder::new(0x1000);
        if install {
            b.hfi_set_region(hfi_core::FIRST_EXPLICIT_SLOT as u8, heap_region());
        }
        if enter {
            b.hfi_enter(SandboxConfig::hybrid());
        }
        b.hmov_load(0, Reg(0), HmovOperand::disp(16), 8);
        if exit {
            b.hfi_exit();
        }
        b.halt();
        b.finish_arc()
    }

    fn hmov_spec() -> SandboxSpec {
        SandboxSpec::new("test-hmov")
            .slot(hfi_core::FIRST_EXPLICIT_SLOT as u8, heap_region())
            .require_enter()
            .require_exit()
    }

    #[test]
    fn hmov_kernel_shape_verifies() {
        let p = hmov_program(true, true, true);
        let proof = verify_program(&p, &hmov_spec()).expect("verifies");
        let kinds: Vec<GuardKind> = proof.guards.iter().map(|g| g.kind).collect();
        assert!(kinds.contains(&GuardKind::SlotInstall));
        assert!(kinds.contains(&GuardKind::Enter));
        assert!(kinds.contains(&GuardKind::Exit));
        assert!(kinds.contains(&GuardKind::CheckedHmov));
    }

    #[test]
    fn hmov_obligations_each_bite() {
        let no_install =
            verify_program(&hmov_program(false, true, true), &hmov_spec()).unwrap_err();
        assert!(no_install
            .iter()
            .any(|v| matches!(v.reason, Reason::MissingRegionAtEnter { .. })));
        assert!(no_install
            .iter()
            .any(|v| matches!(v.reason, Reason::SlotNotInstalled { .. })));

        let no_enter = verify_program(&hmov_program(true, false, true), &hmov_spec()).unwrap_err();
        assert!(no_enter
            .iter()
            .any(|v| v.reason == Reason::HmovOutsideSandbox));
        assert!(no_enter.iter().any(|v| v.reason == Reason::MissingEnter));
        assert!(no_enter
            .iter()
            .any(|v| v.reason == Reason::ExitWithoutEnter));

        let no_exit = verify_program(&hmov_program(true, true, false), &hmov_spec()).unwrap_err();
        assert!(no_exit
            .iter()
            .any(|v| v.reason == Reason::HaltInsideSandbox));

        // Region metadata disagreeing with the spec is a mismatch.
        let wrong_region = SandboxSpec::new("wrong")
            .slot(
                hfi_core::FIRST_EXPLICIT_SLOT as u8,
                Region::Explicit(
                    ExplicitDataRegion::large(HEAP_BASE, HEAP_SIZE * 2, true, true).unwrap(),
                ),
            )
            .require_enter()
            .require_exit();
        let mismatch = verify_program(&hmov_program(true, true, true), &wrong_region).unwrap_err();
        assert!(mismatch
            .iter()
            .any(|v| matches!(v.reason, Reason::RegionMismatch { .. })));
    }

    #[test]
    fn statically_oob_hmov_is_safe_because_the_hardware_faults() {
        let mut b = ProgramBuilder::new(0x1000);
        b.hfi_set_region(hfi_core::FIRST_EXPLICIT_SLOT as u8, heap_region());
        b.hfi_enter(SandboxConfig::hybrid());
        b.hmov_load(0, Reg(0), HmovOperand::disp(HEAP_SIZE as i64), 8);
        b.hfi_exit();
        b.halt();
        let p = b.finish_arc();
        verify_program(&p, &hmov_spec())
            .expect("an hmov that can only trap never escapes the sandbox");
    }

    /// A miniature of the hfi-native interposition program: sandboxed
    /// loop whose syscalls redirect to an exit handler that services and
    /// re-enters.
    fn interposition_program(enter: bool) -> Arc<Program> {
        let build_once = |handler_pc: u64| {
            let mut b = ProgramBuilder::new(0x40_0000);
            let code = ImplicitCodeRegion::new(0x40_0000, 0xFFFF, true).unwrap();
            let handler = b.label();
            let sandbox = b.label();
            b.hfi_set_region(0, Region::Code(code));
            b.jump(sandbox);
            b.place(handler);
            b.mov(Reg(6), Reg(14));
            b.syscall();
            b.hfi_reenter();
            b.jump_ind(Reg(6));
            b.place(sandbox);
            if enter {
                b.hfi_enter(SandboxConfig::native(handler_pc));
            }
            b.movi(Reg(0), 12);
            b.syscall();
            b.halt();
            let h = b.resolved(handler).expect("handler placed");
            (h, b.finish())
        };
        let (h_idx, first) = build_once(0x40_0000);
        let handler_pc = first.pc_of(h_idx);
        let (_, second) = build_once(handler_pc);
        Arc::new(second)
    }

    fn interposition_spec() -> SandboxSpec {
        let code = ImplicitCodeRegion::new(0x40_0000, 0xFFFF, true).unwrap();
        SandboxSpec::new("test-interposition")
            .slot(0, Region::Code(code))
            .require_enter()
            .interposed()
            .clobbers(&[0, 6, 14])
    }

    #[test]
    fn interposition_shape_verifies_including_the_handler() {
        let p = interposition_program(true);
        verify_program(&p, &interposition_spec()).expect("verifies");
    }

    #[test]
    fn uninterposed_syscall_and_unproven_indirect_jump_are_rejected() {
        let p = interposition_program(false);
        let violations = verify_program(&p, &interposition_spec()).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.reason == Reason::SyscallOutsideSandbox));
        assert!(violations.iter().any(|v| v.reason == Reason::MissingEnter));
    }

    #[test]
    fn retargeted_branch_is_rejected() {
        let p = bounds_checked_program();
        let mut insts = p.insts().to_vec();
        let Inst::Branch { cond, a, b, .. } = insts[3] else {
            panic!("op 3 is the bounds branch");
        };
        insts[3] = Inst::Branch {
            cond,
            a,
            b,
            target: insts.len(),
        };
        let broken = Arc::new(p.with_insts(insts));
        let violations = verify_program(&broken, &heap_spec()).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v.reason, Reason::BadBranchTarget { .. })));
    }

    #[test]
    fn emulation_of_a_verified_program_validates() {
        let p = hmov_program(true, true, true);
        let emulated = hfi_sim::emulate(&p);
        verify_emulation(&p, &emulated, &hmov_spec()).expect("emulation corresponds");

        // Perturbing the mirrored displacement breaks the correspondence.
        let mut insts = emulated.insts().to_vec();
        let site = insts
            .iter()
            .position(|i| matches!(i, Inst::Load { mem, .. } if mem.base.is_none()))
            .expect("emulated hmov present");
        if let Inst::Load { mem, .. } = &mut insts[site] {
            mem.disp += 8;
        }
        let broken = emulated.with_insts(insts);
        let violations = verify_emulation(&p, &broken, &hmov_spec()).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v.reason, Reason::EmulationMismatch { .. })));
    }

    #[test]
    fn loops_reach_a_fixpoint() {
        // A counted loop with a guarded access inside: requires the join
        // to stabilize rather than oscillate.
        let mut b = ProgramBuilder::new(0x1000);
        let trap = b.label();
        b.movi(Reg(15), HEAP_BASE as i64);
        b.movi(Reg(11), (HEAP_SIZE - 8) as i64);
        b.movi(Reg(5), 0);
        let top = b.label_here("top");
        b.alu_ri(AluOp::Add, Reg(14), Reg(1), 0);
        b.branch(Cond::GeU, Reg(14), Reg(11), trap);
        b.load(
            Reg(0),
            MemOperand {
                base: Some(Reg(15)),
                index: Some(Reg(14)),
                scale: 1,
                disp: 0,
            },
            8,
        );
        b.alu_ri(AluOp::Add, Reg(5), Reg(5), 1);
        b.branch_i(Cond::LtU, Reg(5), 100, top);
        b.halt();
        b.place(trap);
        b.halt();
        let p = b.finish_arc();
        let proof = verify_program(&p, &heap_spec()).expect("verifies");
        assert_eq!(proof.mem_ops, 1);
    }
}
