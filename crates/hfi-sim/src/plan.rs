//! Pre-decoded micro-op programs: the simulator front end's static plan.
//!
//! A SPEC-like cell executes the same few hundred static instructions
//! millions of times, yet the hot loops used to re-derive every static
//! fact — operand shape, mem-op class, branch kind, serialization class,
//! encoded length — through a 28-arm `match` on [`Inst`] per *dynamic*
//! instruction. [`DecodedProgram`] lowers a [`Program`] **once** into a
//! flat array of [`MicroOp`]s (dense `u8` opcode class, pre-resolved
//! operand slots, effective-address template, load/store and branch
//! flags, encoded length, static [`SerializeClass`], static branch
//! target) plus a [`BasicBlock`] table, and the program keeps its
//! lowering ([`Program::plan`]), so the verifier and every executor
//! holding one `Arc<Program>`, in every parallel grid cell, share one
//! plan.
//!
//! The plan is *purely static*: it holds facts derivable from the
//! instruction encoding alone. Everything dynamic — register values, HFI
//! context generations, predictions, cache state — stays in the pipeline
//! structures, which is why predecoding cannot change an architectural
//! counter (see `tests/golden_counters.rs` for the proof, and DESIGN.md
//! "Front end: predecode and block plans" for the argument).
//!
//! Rare, payload-carrying instructions (`hfi_enter`'s inline
//! `SandboxConfig`, `hfi_set_region`'s metadata) are not flattened into
//! the 24-byte micro-op; their executors fetch the full [`Inst`] from the
//! program that owns the plan via [`MicroOp::PAYLOAD`] — a cold path by
//! construction (sandbox transitions, not inner loops).

use crate::isa::{AluOp, Cond, Inst, Program};

/// Register sentinel: "this operand slot is unused".
pub const NO_REG: u8 = 0xFF;
/// Target sentinel: "no static successor of this kind".
pub const NO_TARGET: u32 = u32::MAX;

/// Dense opcode class of a [`MicroOp`] — one discriminant per [`Inst`]
/// shape, with every payload already spilled into the flat fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpClass {
    /// `dst = a op b`.
    AluRR,
    /// `dst = a op imm`.
    AluRI,
    /// `dst = imm`.
    MovI,
    /// `dst = src`.
    Mov,
    /// `dst = cycle counter`.
    Rdtsc,
    /// Plain load through a [`crate::isa::MemOperand`].
    Load,
    /// Plain store.
    Store,
    /// Explicit-region `hmov` load.
    HmovLoad,
    /// Explicit-region `hmov` store.
    HmovStore,
    /// Cache-line flush.
    Flush,
    /// Conditional branch on two registers.
    Branch,
    /// Conditional branch against an immediate.
    BranchI,
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump through a register byte-PC.
    JumpInd,
    /// Direct call.
    Call,
    /// Return.
    Ret,
    /// System call.
    Syscall,
    /// Serializing `cpuid`.
    Cpuid,
    /// Pipeline fence.
    Fence,
    /// `hfi_enter` (config payload in the backing program).
    HfiEnter,
    /// `hfi_enter` with switch-on-exit (payload in the backing program).
    HfiEnterChild,
    /// `hfi_exit`.
    HfiExit,
    /// `hfi_reenter`.
    HfiReenter,
    /// `hfi_set_region` (metadata payload in the backing program).
    HfiSetRegion,
    /// `hfi_clear_region` (slot inline).
    HfiClearRegion,
    /// `hfi_clear_all_regions`.
    HfiClearAllRegions,
    /// No-op.
    Nop,
    /// Stop.
    Halt,
}

impl OpClass {
    /// True for the classes the functional interpreter's block loop
    /// leaves for its per-op step: they read the cycle count, change the
    /// HFI context, jump through a byte-PC lookup, or stop the run.
    pub(crate) fn leaves_block(self) -> bool {
        matches!(
            self,
            OpClass::Rdtsc
                | OpClass::JumpInd
                | OpClass::Syscall
                | OpClass::Cpuid
                | OpClass::HfiEnter
                | OpClass::HfiEnterChild
                | OpClass::HfiExit
                | OpClass::HfiReenter
                | OpClass::HfiSetRegion
                | OpClass::HfiClearRegion
                | OpClass::HfiClearAllRegions
                | OpClass::Halt
        )
    }
}

/// Static serialization class of an instruction (paper §3.4 / §4.3):
/// whether decoding it drains the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SerializeClass {
    /// Never serializes.
    No,
    /// Always serializes (`cpuid`, `fence`, `syscall`, and `hfi_enter`
    /// of an is-serialized sandbox — the config is immediate, so the
    /// decision is static).
    Always,
    /// Serializes only while a sandbox is active (in-sandbox region
    /// updates, §4.3).
    IfEnabled,
    /// `hfi_exit`: serializes only when exiting a serialized,
    /// non-switch-on-exit sandbox — depends on the live context (§4.5).
    ExitDynamic,
}

/// One pre-decoded micro-op: every static fact of one [`Inst`], flat.
///
/// Operand slots follow the pipeline's fixed convention so the issue
/// stage can index blindly:
///
/// * slot 0 — first ALU/branch source, `mov` source, memory *base*,
///   indirect-jump register;
/// * slot 1 — second ALU/branch source, memory *index* (`hmov` uses only
///   this slot: its base is architecturally replaced by the region base);
/// * slot 2 — store data source.
///
/// The effective-address template is `v0 + v1 * scale + disp` with unset
/// slots contributing zero, which reproduces `MemOperand` semantics for
/// every addressing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Immediate operand (ALU/mov/branch) or address displacement.
    pub imm: i64,
    /// Static control-flow target as an instruction index
    /// ([`NO_TARGET`] for fall-through-only and indirect flow).
    pub target: u32,
    /// Opcode class.
    pub class: OpClass,
    /// ALU operation (meaningful for `AluRR`/`AluRI` only).
    pub alu: AluOp,
    /// Branch condition (meaningful for `Branch`/`BranchI` only).
    pub cond: Cond,
    /// Destination register, [`NO_REG`] when none.
    pub dst: u8,
    /// Source registers by slot, [`NO_REG`] when unused.
    pub srcs: [u8; 3],
    /// Address scale factor (1 when unused).
    pub scale: u8,
    /// Memory access size in bytes (0 when not a memory op).
    pub size: u8,
    /// `hmov` region index, or `hfi_clear_region` slot.
    pub region: u8,
    /// Encoded length in bytes (pre-computed [`Inst::encoded_len`]).
    pub len: u8,
    /// Static serialization class.
    pub serialize: SerializeClass,
    /// Static property bits (`IS_LOAD` …).
    pub flags: u8,
}

/// The effective-address recipe of one memory micro-op, unpacked from the
/// flat operand slots into named fields: `EA = base + index*scale + disp`,
/// with absent registers contributing zero.
///
/// For `hmov` ops `base` is always `None` — the base is architecturally
/// replaced by the region base (paper §3.2) and the recipe describes the
/// *region-relative offset* instead. Static tools (the `hfi-verify`
/// checker) consume this instead of re-deriving the slot convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EaTemplate {
    /// Base register, `None` for absolute or region-relative addressing.
    pub base: Option<u8>,
    /// Scaled index register, if any.
    pub index: Option<u8>,
    /// Index scale factor (1 when no index).
    pub scale: u8,
    /// Constant displacement.
    pub disp: i64,
    /// Access size in bytes.
    pub size: u8,
    /// True for stores, false for loads.
    pub is_store: bool,
    /// True for `hmov` ops: the address is relative to an explicit
    /// region's base, not to address zero.
    pub region_relative: bool,
}

impl MicroOp {
    /// Reads data memory.
    pub const IS_LOAD: u8 = 1 << 0;
    /// Writes data memory.
    pub const IS_STORE: u8 = 1 << 1;
    /// Competes for a memory issue port (exactly [`Inst::is_mem`]; note
    /// `clflush` addresses memory but gates on an ALU port, faithfully to
    /// the pre-plan pipeline).
    pub const GATE_MEM: u8 = 1 << 2;
    /// Mutates speculative HFI state at decode (opens an undo
    /// generation).
    pub const HFI_MUTATE: u8 = 1 << 3;
    /// Counts as a branch in the committed-branch statistics
    /// (conditional and indirect branches).
    pub const BRANCH_STAT: u8 = 1 << 4;
    /// Ends a fetch group (exactly [`Inst::is_control`]).
    pub const CONTROL: u8 = 1 << 5;
    /// Carries a payload too large to flatten; executors fetch the full
    /// [`Inst`] from the backing program (cold path).
    pub const PAYLOAD: u8 = 1 << 6;
    /// Part of a springboard (transition prologue/epilogue): a zeroing
    /// move, the stack switch, a serializing fence, or the entry
    /// canary. Set from [`Program::transition_ops`] at plan build (the
    /// per-[`Inst`] lowering cannot see program metadata). Transition
    /// ops are the sites the transition-corruption chaos class targets.
    pub const TRANSITION: u8 = 1 << 7;

    /// True if `flag` (one of the associated constants) is set.
    #[inline(always)]
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// The effective-address template of a load/store micro-op, or `None`
    /// for non-memory ops (including `clflush`, which addresses memory but
    /// is neither a data load nor a store).
    pub fn ea_template(&self) -> Option<EaTemplate> {
        if !self.has(Self::IS_LOAD | Self::IS_STORE) {
            return None;
        }
        let region_relative = matches!(self.class, OpClass::HmovLoad | OpClass::HmovStore);
        let slot = |r: u8| (r != NO_REG).then_some(r);
        Some(EaTemplate {
            base: slot(self.srcs[0]),
            index: slot(self.srcs[1]),
            scale: self.scale,
            disp: self.imm,
            size: self.size,
            is_store: self.has(Self::IS_STORE),
            region_relative,
        })
    }
}

/// One basic block of the plan: a maximal straight-line run of
/// micro-ops entered only at `start` and left only after `end - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock {
    /// First instruction index of the block.
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
    /// Successor when the terminator falls through (the not-taken edge,
    /// or the post-return continuation of a `call`); [`NO_TARGET`] when
    /// the block cannot fall through.
    pub fall_through: u32,
    /// Static taken-edge successor (branch/jump/call target);
    /// [`NO_TARGET`] for indirect or return terminators.
    pub taken: u32,
}

/// The straight-line run the functional interpreter's block loop checks
/// when it enters a block at one instruction: the rest of the block, cut
/// short before the first op that [leaves the loop](OpClass::leaves_block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockTail {
    /// Byte PC of the instruction.
    pub(crate) first_byte: u64,
    /// Address of the run's last byte. Wraps below `first_byte` only if
    /// the run goes past the top of the address space.
    pub(crate) last_byte: u64,
    /// One past the run's last instruction index; the instruction's own
    /// index when it leaves the block loop itself (an empty run).
    pub(crate) end: u32,
}

/// A program lowered to its static execution plan: flat micro-ops, byte
/// PCs, and the basic-block table. Built once per program and kept by it;
/// see [`Program::plan`].
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    ops: Vec<MicroOp>,
    pcs: Vec<u64>,
    blocks: Vec<BasicBlock>,
    block_of: Vec<u32>,
    tails: Vec<BlockTail>,
}

impl DecodedProgram {
    /// Lowers `program` into its static plan.
    ///
    /// # Panics
    ///
    /// Panics if the program has ≥ `u32::MAX` instructions (plans index
    /// with `u32`).
    pub(crate) fn build(program: &Program) -> Self {
        assert!(
            program.len() < u32::MAX as usize,
            "program too large for a u32-indexed plan"
        );
        let mut ops: Vec<MicroOp> = program.iter().map(lower).collect();
        // Springboard metadata lives on the program, not the encoding:
        // flag the marked ops so the executors see them.
        for &idx in program.transition_ops() {
            ops[idx as usize].flags |= MicroOp::TRANSITION;
        }
        let pcs: Vec<u64> = (0..program.len()).map(|i| program.pc_of(i)).collect();
        let (blocks, block_of) = build_blocks(&ops);
        // Back to front: each run ends where the next op's does, at its
        // block's end, or before an op that leaves the block loop.
        let mut tails = Vec::with_capacity(ops.len());
        let mut end = 0;
        for i in (0..ops.len()).rev() {
            if ops[i].class.leaves_block() {
                end = i as u32;
            } else if i as u32 + 1 == blocks[block_of[i] as usize].end {
                end = i as u32 + 1;
            }
            let last = (end as usize).max(i + 1) - 1;
            tails.push(BlockTail {
                first_byte: pcs[i],
                last_byte: pcs[last].wrapping_add(ops[last].len as u64 - 1),
                end,
            });
        }
        tails.reverse();
        Self {
            ops,
            pcs,
            blocks,
            block_of,
            tails,
        }
    }

    /// The micro-op at `index`.
    #[inline(always)]
    pub fn op(&self, index: usize) -> &MicroOp {
        &self.ops[index]
    }

    /// All micro-ops, in instruction order.
    #[inline(always)]
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Byte PC of instruction `index`.
    #[inline(always)]
    pub fn pc(&self, index: usize) -> u64 {
        self.pcs[index]
    }

    /// Number of instructions.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The basic-block table, in program order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Index (into [`DecodedProgram::blocks`]) of the block containing
    /// instruction `index`.
    pub fn block_of(&self, index: usize) -> usize {
        self.block_of[index] as usize
    }

    /// The rest of instruction `index`'s block, from `index` on.
    #[inline(always)]
    pub(crate) fn tail(&self, index: usize) -> BlockTail {
        self.tails[index]
    }
}

/// Lowers one instruction to its micro-op. Pure: consults nothing but
/// the encoding.
fn lower(inst: &Inst) -> MicroOp {
    let mut op = MicroOp {
        imm: 0,
        target: NO_TARGET,
        class: OpClass::Nop,
        alu: AluOp::Add,
        cond: Cond::Eq,
        dst: NO_REG,
        srcs: [NO_REG; 3],
        scale: 1,
        size: 0,
        region: 0,
        len: inst.encoded_len() as u8,
        serialize: SerializeClass::No,
        flags: 0,
    };
    match inst {
        Inst::AluRR { op: alu, dst, a, b } => {
            op.class = OpClass::AluRR;
            op.alu = *alu;
            op.dst = dst.0;
            op.srcs[0] = a.0;
            op.srcs[1] = b.0;
        }
        Inst::AluRI {
            op: alu,
            dst,
            a,
            imm,
        } => {
            op.class = OpClass::AluRI;
            op.alu = *alu;
            op.dst = dst.0;
            op.srcs[0] = a.0;
            op.imm = *imm;
        }
        Inst::MovI { dst, imm } => {
            op.class = OpClass::MovI;
            op.dst = dst.0;
            op.imm = *imm;
        }
        Inst::Mov { dst, src } => {
            op.class = OpClass::Mov;
            op.dst = dst.0;
            op.srcs[0] = src.0;
        }
        Inst::Rdtsc { dst } => {
            op.class = OpClass::Rdtsc;
            op.dst = dst.0;
        }
        Inst::Load { dst, mem, size } => {
            op.class = OpClass::Load;
            op.dst = dst.0;
            op.srcs[0] = mem.base.map_or(NO_REG, |r| r.0);
            op.srcs[1] = mem.index.map_or(NO_REG, |r| r.0);
            op.scale = mem.scale;
            op.imm = mem.disp;
            op.size = *size;
            op.flags |= MicroOp::IS_LOAD | MicroOp::GATE_MEM;
        }
        Inst::Store { src, mem, size } => {
            op.class = OpClass::Store;
            op.srcs[0] = mem.base.map_or(NO_REG, |r| r.0);
            op.srcs[1] = mem.index.map_or(NO_REG, |r| r.0);
            op.srcs[2] = src.0;
            op.scale = mem.scale;
            op.imm = mem.disp;
            op.size = *size;
            op.flags |= MicroOp::IS_STORE | MicroOp::GATE_MEM;
        }
        Inst::HmovLoad {
            region,
            dst,
            mem,
            size,
        } => {
            op.class = OpClass::HmovLoad;
            op.dst = dst.0;
            op.srcs[1] = mem.index.map_or(NO_REG, |r| r.0);
            op.scale = mem.scale;
            op.imm = mem.disp;
            op.size = *size;
            op.region = *region;
            op.flags |= MicroOp::IS_LOAD | MicroOp::GATE_MEM;
        }
        Inst::HmovStore {
            region,
            src,
            mem,
            size,
        } => {
            op.class = OpClass::HmovStore;
            op.srcs[1] = mem.index.map_or(NO_REG, |r| r.0);
            op.srcs[2] = src.0;
            op.scale = mem.scale;
            op.imm = mem.disp;
            op.size = *size;
            op.region = *region;
            op.flags |= MicroOp::IS_STORE | MicroOp::GATE_MEM;
        }
        Inst::Flush { mem } => {
            op.class = OpClass::Flush;
            op.srcs[0] = mem.base.map_or(NO_REG, |r| r.0);
            op.srcs[1] = mem.index.map_or(NO_REG, |r| r.0);
            op.scale = mem.scale;
            op.imm = mem.disp;
        }
        Inst::Branch { cond, a, b, target } => {
            op.class = OpClass::Branch;
            op.cond = *cond;
            op.srcs[0] = a.0;
            op.srcs[1] = b.0;
            op.target = *target as u32;
            op.flags |= MicroOp::BRANCH_STAT | MicroOp::CONTROL;
        }
        Inst::BranchI {
            cond,
            a,
            imm,
            target,
        } => {
            op.class = OpClass::BranchI;
            op.cond = *cond;
            op.srcs[0] = a.0;
            op.imm = *imm;
            op.target = *target as u32;
            op.flags |= MicroOp::BRANCH_STAT | MicroOp::CONTROL;
        }
        Inst::Jump { target } => {
            op.class = OpClass::Jump;
            op.target = *target as u32;
            op.flags |= MicroOp::CONTROL;
        }
        Inst::JumpInd { reg } => {
            op.class = OpClass::JumpInd;
            op.srcs[0] = reg.0;
            op.flags |= MicroOp::BRANCH_STAT | MicroOp::CONTROL;
        }
        Inst::Call { target } => {
            op.class = OpClass::Call;
            op.target = *target as u32;
            op.flags |= MicroOp::CONTROL;
        }
        Inst::Ret => {
            op.class = OpClass::Ret;
            op.flags |= MicroOp::CONTROL;
        }
        Inst::Syscall => {
            op.class = OpClass::Syscall;
            op.serialize = SerializeClass::Always;
        }
        Inst::Cpuid => {
            op.class = OpClass::Cpuid;
            op.serialize = SerializeClass::Always;
        }
        Inst::Fence => {
            op.class = OpClass::Fence;
            op.serialize = SerializeClass::Always;
        }
        Inst::HfiEnter { config } => {
            op.class = OpClass::HfiEnter;
            op.serialize = if config.serialize {
                SerializeClass::Always
            } else {
                SerializeClass::No
            };
            op.flags |= MicroOp::HFI_MUTATE | MicroOp::PAYLOAD;
        }
        Inst::HfiEnterChild { config, .. } => {
            op.class = OpClass::HfiEnterChild;
            op.serialize = if config.serialize {
                SerializeClass::Always
            } else {
                SerializeClass::No
            };
            op.flags |= MicroOp::HFI_MUTATE | MicroOp::PAYLOAD;
        }
        Inst::HfiExit => {
            op.class = OpClass::HfiExit;
            op.serialize = SerializeClass::ExitDynamic;
            op.flags |= MicroOp::HFI_MUTATE;
        }
        Inst::HfiReenter => {
            op.class = OpClass::HfiReenter;
            op.flags |= MicroOp::HFI_MUTATE;
        }
        Inst::HfiSetRegion { .. } => {
            op.class = OpClass::HfiSetRegion;
            op.serialize = SerializeClass::IfEnabled;
            op.flags |= MicroOp::HFI_MUTATE | MicroOp::PAYLOAD;
        }
        Inst::HfiClearRegion { slot } => {
            op.class = OpClass::HfiClearRegion;
            op.region = *slot;
            op.serialize = SerializeClass::IfEnabled;
            op.flags |= MicroOp::HFI_MUTATE;
        }
        Inst::HfiClearAllRegions => {
            op.class = OpClass::HfiClearAllRegions;
            op.serialize = SerializeClass::IfEnabled;
            op.flags |= MicroOp::HFI_MUTATE;
        }
        Inst::Nop => op.class = OpClass::Nop,
        Inst::Halt => op.class = OpClass::Halt,
    }
    op
}

/// Partitions the micro-op array into basic blocks: a leader is the
/// entry point, every static control target, and every instruction
/// following a control instruction.
fn build_blocks(ops: &[MicroOp]) -> (Vec<BasicBlock>, Vec<u32>) {
    let n = ops.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut leader = vec![false; n];
    leader[0] = true;
    for (i, op) in ops.iter().enumerate() {
        if op.has(MicroOp::CONTROL) {
            if (op.target as usize) < n {
                leader[op.target as usize] = true;
            }
            if i + 1 < n {
                leader[i + 1] = true;
            }
        }
    }
    let mut blocks = Vec::new();
    let mut block_of = vec![0u32; n];
    let mut start = 0usize;
    for end in 1..=n {
        if end == n || leader[end] {
            let term = &ops[end - 1];
            let (fall_through, taken) = if term.has(MicroOp::CONTROL) {
                match term.class {
                    // The not-taken edge, or the post-return point.
                    OpClass::Branch | OpClass::BranchI | OpClass::Call => {
                        let fall = if end < n { end as u32 } else { NO_TARGET };
                        (fall, term.target)
                    }
                    OpClass::Jump => (NO_TARGET, term.target),
                    // Indirect flow has no static successor.
                    _ => (NO_TARGET, NO_TARGET),
                }
            } else {
                let fall = if end < n { end as u32 } else { NO_TARGET };
                (fall, NO_TARGET)
            };
            let index = blocks.len() as u32;
            for slot in &mut block_of[start..end] {
                *slot = index;
            }
            blocks.push(BasicBlock {
                start: start as u32,
                end: end as u32,
                fall_through,
                taken,
            });
            start = end;
        }
    }
    (blocks, block_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{MemOperand, Reg};

    fn sample_program() -> Program {
        Program::new(
            vec![
                Inst::MovI {
                    dst: Reg(0),
                    imm: 4,
                }, // 0
                Inst::BranchI {
                    cond: Cond::Eq,
                    a: Reg(0),
                    imm: 0,
                    target: 4,
                }, // 1: block split
                Inst::AluRI {
                    op: AluOp::Sub,
                    dst: Reg(0),
                    a: Reg(0),
                    imm: 1,
                }, // 2
                Inst::Jump { target: 1 }, // 3
                Inst::Halt,               // 4
            ],
            0x1000,
        )
    }

    #[test]
    fn lowering_preserves_static_facts() {
        let program = sample_program();
        let plan = program.plan();
        assert_eq!(plan.len(), program.len());
        for i in 0..program.len() {
            assert_eq!(plan.op(i).len as u64, program.inst(i).encoded_len());
            assert_eq!(plan.pc(i), program.pc_of(i));
            assert_eq!(
                plan.op(i).has(MicroOp::CONTROL),
                program.inst(i).is_control()
            );
            assert_eq!(plan.op(i).has(MicroOp::GATE_MEM), program.inst(i).is_mem());
        }
        assert_eq!(plan.op(1).target, 4);
        assert_eq!(plan.op(3).target, 1);
    }

    #[test]
    fn mem_operand_slots_follow_the_convention() {
        let plan = DecodedProgram::build(&Program::new(
            vec![Inst::Store {
                src: Reg(7),
                mem: MemOperand::full(Reg(1), Reg(2), 8, -16),
                size: 4,
            }],
            0,
        ));
        let op = plan.op(0);
        assert_eq!(op.srcs, [1, 2, 7]);
        assert_eq!(op.scale, 8);
        assert_eq!(op.imm, -16);
        assert_eq!(op.size, 4);
        assert!(op.has(MicroOp::IS_STORE) && !op.has(MicroOp::IS_LOAD));
    }

    #[test]
    fn ea_templates_name_the_operand_slots() {
        use crate::isa::HmovOperand;
        let plan = DecodedProgram::build(&Program::new(
            vec![
                Inst::Store {
                    src: Reg(7),
                    mem: MemOperand::full(Reg(1), Reg(2), 8, -16),
                    size: 4,
                },
                Inst::HmovLoad {
                    region: 1,
                    dst: Reg(3),
                    mem: HmovOperand::indexed(Reg(4), 2, 0x20),
                    size: 8,
                },
                Inst::Nop,
            ],
            0,
        ));
        let store = plan.op(0).ea_template().expect("store has a template");
        assert_eq!(
            store,
            EaTemplate {
                base: Some(1),
                index: Some(2),
                scale: 8,
                disp: -16,
                size: 4,
                is_store: true,
                region_relative: false,
            }
        );
        let hmov = plan.op(1).ea_template().expect("hmov has a template");
        assert_eq!(hmov.base, None, "hmov base is the region base");
        assert_eq!(hmov.index, Some(4));
        assert_eq!(hmov.scale, 2);
        assert_eq!(hmov.disp, 0x20);
        assert!(hmov.region_relative && !hmov.is_store);
        assert_eq!(plan.op(2).ea_template(), None);
    }

    #[test]
    fn inline_runs_stop_before_ops_that_leave_the_block_loop() {
        let movi = |r: u8| Inst::MovI {
            dst: Reg(r),
            imm: 1,
        };
        // One straight-line block with a `cpuid` in the middle.
        let program = Program::new(
            vec![movi(0), movi(1), Inst::Cpuid, movi(2), Inst::Halt],
            0x1000,
        );
        let plan = DecodedProgram::build(&program);
        assert_eq!(plan.blocks().len(), 1);
        let ends: Vec<u32> = (0..plan.len()).map(|i| plan.tail(i).end).collect();
        assert_eq!(ends, [2, 2, 2, 4, 4]);
        assert_eq!(plan.tail(0).last_byte, plan.pc(2) - 1);
        assert_eq!(plan.tail(3).last_byte, plan.pc(4) - 1);
        // The sample's runs end at its blocks' ends, and at its `halt`.
        let plan = DecodedProgram::build(&sample_program());
        let ends: Vec<u32> = (0..plan.len()).map(|i| plan.tail(i).end).collect();
        assert_eq!(ends, [1, 2, 4, 4, 4]);
    }

    #[test]
    fn block_table_partitions_the_program() {
        let plan = DecodedProgram::build(&sample_program());
        // Leaders: 0, 1 (branch target of jump), 2 (post-branch), 4.
        let blocks = plan.blocks();
        assert_eq!(blocks.first().map(|b| b.start), Some(0));
        assert_eq!(blocks.last().map(|b| b.end), Some(5));
        for pair in blocks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "blocks must tile the program");
        }
        // The branch block: falls through to 2, takes to 4.
        let branch_block = blocks[plan.block_of(1)];
        assert_eq!(branch_block.end, 2);
        assert_eq!(branch_block.fall_through, 2);
        assert_eq!(branch_block.taken, 4);
        // The jump block: taken edge only.
        let jump_block = blocks[plan.block_of(3)];
        assert_eq!(jump_block.fall_through, NO_TARGET);
        assert_eq!(jump_block.taken, 1);
        // Every instruction maps into its containing block.
        for i in 0..plan.len() {
            let b = blocks[plan.block_of(i)];
            assert!(b.start as usize <= i && i < b.end as usize);
        }
    }

    #[test]
    fn serialize_classes_match_the_decode_rules() {
        use hfi_core::SandboxConfig;
        let insts = vec![
            Inst::Cpuid,
            Inst::Fence,
            Inst::Syscall,
            Inst::HfiEnter {
                config: SandboxConfig::hybrid().serialized(),
            },
            Inst::HfiEnter {
                config: SandboxConfig::hybrid(),
            },
            Inst::HfiExit,
            Inst::HfiReenter,
            Inst::HfiClearRegion { slot: 3 },
            Inst::HfiClearAllRegions,
            Inst::Nop,
        ];
        let plan = DecodedProgram::build(&Program::new(insts, 0));
        use SerializeClass::*;
        let expect = [
            Always,
            Always,
            Always,
            Always,
            No,
            ExitDynamic,
            No,
            IfEnabled,
            IfEnabled,
            No,
        ];
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(plan.op(i).serialize, *want, "inst {i}");
        }
        assert_eq!(plan.op(7).region, 3, "clear_region slot rides inline");
    }
}
