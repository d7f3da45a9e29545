//! A small assembler: label-based program construction.
//!
//! [`ProgramBuilder`] lets workload generators and tests write simulated
//! assembly with forward references:
//!
//! ```
//! use hfi_sim::asm::ProgramBuilder;
//! use hfi_sim::isa::{AluOp, Cond, Reg};
//!
//! let mut asm = ProgramBuilder::new(0x40_0000);
//! let r0 = Reg(0);
//! let r1 = Reg(1);
//! asm.movi(r0, 0);
//! asm.movi(r1, 10);
//! let top = asm.label_here("loop");
//! asm.alu_ri(AluOp::Add, r0, r0, 3);
//! asm.alu_ri(AluOp::Sub, r1, r1, 1);
//! asm.branch_i(Cond::Ne, r1, 0, top);
//! asm.halt();
//! let program = asm.finish();
//! assert_eq!(program.len(), 6);
//! ```

use std::collections::HashMap;

use hfi_core::{Region, SandboxConfig, TransitionContract};

use crate::isa::{AluOp, Cond, HmovOperand, Inst, MemOperand, Program, Reg};

/// An opaque label handle returned by [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builds a [`Program`] instruction-by-instruction with labels.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    base: u64,
    /// label id -> resolved instruction index
    resolved: HashMap<usize, usize>,
    /// (instruction index, label id) pairs awaiting resolution
    fixups: Vec<(usize, usize)>,
    next_label: usize,
    names: HashMap<String, Label>,
    /// Springboard entry contract, if a transition scheme declared one.
    contract: Option<TransitionContract>,
    /// Indices of instructions marked as springboard ops.
    transition_ops: Vec<u32>,
}

impl ProgramBuilder {
    /// Starts a program whose code is linked at byte address `base`.
    pub fn new(base: u64) -> Self {
        Self {
            base,
            ..Self::default()
        }
    }

    /// Creates an unplaced label for forward references.
    pub fn label(&mut self) -> Label {
        let id = self.next_label;
        self.next_label += 1;
        Label(id)
    }

    /// Places `label` at the current position.
    pub fn place(&mut self, label: Label) {
        let prev = self.resolved.insert(label.0, self.insts.len());
        assert!(prev.is_none(), "label placed twice");
    }

    /// Creates a named label at the current position and returns it.
    pub fn label_here(&mut self, name: &str) -> Label {
        let label = self.label();
        self.place(label);
        self.names.insert(name.to_owned(), label);
        label
    }

    /// Index the next instruction will occupy.
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// The instruction index a placed label resolved to, if placed.
    ///
    /// Useful for two-pass builds that need concrete byte PCs (e.g. to
    /// materialize a function pointer): build once with a placeholder of
    /// identical encoding length, read the layout, rebuild.
    pub fn resolved(&self, label: Label) -> Option<usize> {
        self.resolved.get(&label.0).copied()
    }

    /// Pushes a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Marks the most recently pushed instruction as a springboard
    /// (transition) op: the plan lowering flags it so the chaos engine
    /// can target it.
    ///
    /// # Panics
    ///
    /// Panics if no instruction has been pushed yet.
    pub fn mark_last_transition(&mut self) -> &mut Self {
        assert!(!self.insts.is_empty(), "no instruction to mark");
        self.transition_ops.push(self.insts.len() as u32 - 1);
        self
    }

    /// Declares the springboard entry contract the finished program
    /// will carry (checked by executors at `hfi_enter`).
    pub fn set_contract(&mut self, contract: TransitionContract) -> &mut Self {
        self.contract = Some(contract);
        self
    }

    fn push_branch(&mut self, inst: Inst, label: Label) {
        self.fixups.push((self.insts.len(), label.0));
        self.insts.push(inst);
    }

    /// `dst = imm`.
    pub fn movi(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Inst::MovI { dst, imm })
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Inst::Mov { dst, src })
    }

    /// `dst = a op b`.
    pub fn alu(&mut self, op: AluOp, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Inst::AluRR { op, dst, a, b })
    }

    /// `dst = a op imm`.
    pub fn alu_ri(&mut self, op: AluOp, dst: Reg, a: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluRI { op, dst, a, imm })
    }

    /// Load through a memory operand.
    pub fn load(&mut self, dst: Reg, mem: MemOperand, size: u8) -> &mut Self {
        self.push(Inst::Load { dst, mem, size })
    }

    /// Store through a memory operand.
    pub fn store(&mut self, src: Reg, mem: MemOperand, size: u8) -> &mut Self {
        self.push(Inst::Store { src, mem, size })
    }

    /// `hmov{region}` load.
    pub fn hmov_load(&mut self, region: u8, dst: Reg, mem: HmovOperand, size: u8) -> &mut Self {
        self.push(Inst::HmovLoad {
            region,
            dst,
            mem,
            size,
        })
    }

    /// `hmov{region}` store.
    pub fn hmov_store(&mut self, region: u8, src: Reg, mem: HmovOperand, size: u8) -> &mut Self {
        self.push(Inst::HmovStore {
            region,
            src,
            mem,
            size,
        })
    }

    /// Conditional branch to `label`.
    pub fn branch(&mut self, cond: Cond, a: Reg, b: Reg, label: Label) -> &mut Self {
        self.push_branch(
            Inst::Branch {
                cond,
                a,
                b,
                target: usize::MAX,
            },
            label,
        );
        self
    }

    /// Conditional branch (register vs. immediate) to `label`.
    pub fn branch_i(&mut self, cond: Cond, a: Reg, imm: i64, label: Label) -> &mut Self {
        self.push_branch(
            Inst::BranchI {
                cond,
                a,
                imm,
                target: usize::MAX,
            },
            label,
        );
        self
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.push_branch(Inst::Jump { target: usize::MAX }, label);
        self
    }

    /// Indirect jump through a register holding a byte PC.
    pub fn jump_ind(&mut self, reg: Reg) -> &mut Self {
        self.push(Inst::JumpInd { reg })
    }

    /// Call the function at `label`.
    pub fn call(&mut self, label: Label) -> &mut Self {
        self.push_branch(Inst::Call { target: usize::MAX }, label);
        self
    }

    /// Return from the current function.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst::Ret)
    }

    /// System call (number in `r0`).
    pub fn syscall(&mut self) -> &mut Self {
        self.push(Inst::Syscall)
    }

    /// Serializing `cpuid`.
    pub fn cpuid(&mut self) -> &mut Self {
        self.push(Inst::Cpuid)
    }

    /// Read the cycle counter.
    pub fn rdtsc(&mut self, dst: Reg) -> &mut Self {
        self.push(Inst::Rdtsc { dst })
    }

    /// Flush the cache line at the operand address.
    pub fn flush(&mut self, mem: MemOperand) -> &mut Self {
        self.push(Inst::Flush { mem })
    }

    /// Pipeline fence.
    pub fn fence(&mut self) -> &mut Self {
        self.push(Inst::Fence)
    }

    /// `hfi_enter`.
    pub fn hfi_enter(&mut self, config: SandboxConfig) -> &mut Self {
        self.push(Inst::HfiEnter { config })
    }

    /// `hfi_enter` with switch-on-exit: shadows the live register file
    /// and loads `regions` as the child's (paper §4.5).
    pub fn hfi_enter_child(
        &mut self,
        config: SandboxConfig,
        regions: [Option<Region>; hfi_core::NUM_REGIONS],
    ) -> &mut Self {
        self.push(Inst::HfiEnterChild {
            config,
            regions: Box::new(regions),
        })
    }

    /// `hfi_exit`.
    pub fn hfi_exit(&mut self) -> &mut Self {
        self.push(Inst::HfiExit)
    }

    /// `hfi_reenter`.
    pub fn hfi_reenter(&mut self) -> &mut Self {
        self.push(Inst::HfiReenter)
    }

    /// `hfi_set_region`.
    pub fn hfi_set_region(&mut self, slot: u8, region: Region) -> &mut Self {
        self.push(Inst::HfiSetRegion { slot, region })
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::Nop)
    }

    /// Halt the machine.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// Resolves all labels and lays out the program.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never placed.
    pub fn finish(mut self) -> Program {
        for (inst_idx, label_id) in &self.fixups {
            let target = *self
                .resolved
                .get(label_id)
                .unwrap_or_else(|| panic!("unplaced label {label_id} used at {inst_idx}"));
            match &mut self.insts[*inst_idx] {
                Inst::Branch { target: t, .. }
                | Inst::BranchI { target: t, .. }
                | Inst::Jump { target: t }
                | Inst::Call { target: t } => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        Program::new(self.insts, self.base).with_transition_meta(self.contract, self.transition_ops)
    }

    /// [`finish`](Self::finish), wrapped in an `Arc` for sharing.
    ///
    /// A program keeps its decoded plan ([`Program::plan`]), so one that
    /// will feed several executors should be finished into an `Arc`
    /// once and shared: every executor holding that `Arc` then runs
    /// from one lowering.
    pub fn finish_arc(self) -> std::sync::Arc<Program> {
        std::sync::Arc::new(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut asm = ProgramBuilder::new(0);
        let end = asm.label();
        let top = asm.label_here("top");
        asm.branch_i(Cond::Eq, Reg(0), 0, end);
        asm.jump(top);
        asm.place(end);
        asm.halt();
        let prog = asm.finish();
        match prog.inst(0) {
            Inst::BranchI { target, .. } => assert_eq!(*target, 2),
            other => panic!("unexpected {other:?}"),
        }
        match prog.inst(1) {
            Inst::Jump { target } => assert_eq!(*target, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unplaced label")]
    fn unplaced_label_panics() {
        let mut asm = ProgramBuilder::new(0);
        let nowhere = asm.label();
        asm.jump(nowhere);
        let _ = asm.finish();
    }

    #[test]
    #[should_panic(expected = "label placed twice")]
    fn double_placement_panics() {
        let mut asm = ProgramBuilder::new(0);
        let label = asm.label();
        asm.place(label);
        asm.place(label);
    }
}
