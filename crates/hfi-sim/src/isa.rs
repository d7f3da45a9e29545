//! The simulated instruction set.
//!
//! A micro-op-level ISA with x86-style addressing (`base + index*scale +
//! disp`), the HFI extension instructions of Appendix A.1, and the handful
//! of x86 system instructions the paper's methodology needs (`cpuid` for
//! serialization in the emulation, `rdtsc` for the Spectre probe,
//! `clflush` for the cache side channel, `syscall` for interposition).
//!
//! Every instruction carries a modelled *encoding length* in bytes; the
//! i-cache and the implicit code regions operate on byte PCs, which is what
//! makes the paper's 445.gobmk observation (longer `hmov` encodings
//! pressuring the i-cache, §6.1) reproducible.

use std::fmt::Write as _;
use std::sync::OnceLock;

use hfi_core::{Region, SandboxConfig, TransitionContract};

/// One of 16 general-purpose registers, `r0`–`r15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// All architectural registers.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..16).map(Reg)
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Integer ALU operations (64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (higher latency).
    Mul,
    /// Unsigned division; divide-by-zero yields 0 (the modelled machine
    /// does not fault on it).
    Div,
    /// Unsigned remainder; modulo-by-zero yields the dividend.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical left shift (masked to 63).
    Shl,
    /// Logical right shift (masked to 63).
    Shr,
    /// Arithmetic right shift (masked to 63).
    Sar,
    /// Set-if-less-than, unsigned (result 0/1).
    SltU,
    /// Set-if-less-than, signed (result 0/1).
    Slt,
    /// Set-if-equal (result 0/1).
    Seq,
    /// Rotate left (masked to 63).
    Rotl,
}

impl AluOp {
    /// Execution latency in cycles (Skylake-like).
    pub fn latency(self) -> u64 {
        match self {
            AluOp::Mul => 3,
            AluOp::Div | AluOp::Rem => 20,
            _ => 1,
        }
    }
}

/// Branch conditions comparing two operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-or-equal.
    GeU,
}

impl Cond {
    /// Evaluates the condition on two 64-bit values.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::LtU => a < b,
            Cond::GeU => a >= b,
        }
    }
}

/// An x86-style memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOperand {
    /// Base register, or `None` for absolute addressing (the emulated
    /// `hmov` of Appendix A.2 uses a constant base with no register).
    pub base: Option<Reg>,
    /// Optional scaled index register.
    pub index: Option<Reg>,
    /// Scale factor for the index (1, 2, 4, or 8).
    pub scale: u8,
    /// Constant displacement.
    pub disp: i64,
}

impl MemOperand {
    /// `[base + disp]`.
    pub fn base_disp(base: Reg, disp: i64) -> Self {
        Self {
            base: Some(base),
            index: None,
            scale: 1,
            disp,
        }
    }

    /// `[base + index*scale + disp]`.
    pub fn full(base: Reg, index: Reg, scale: u8, disp: i64) -> Self {
        Self {
            base: Some(base),
            index: Some(index),
            scale,
            disp,
        }
    }

    /// `[abs_disp]` — absolute, register-free addressing.
    pub fn absolute(disp: i64) -> Self {
        Self {
            base: None,
            index: None,
            scale: 1,
            disp,
        }
    }
}

/// The operand pattern of an `hmov`: the base is architecturally *ignored*
/// and replaced with the region base (paper §3.2), so only index/scale/disp
/// appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HmovOperand {
    /// Optional scaled index register.
    pub index: Option<Reg>,
    /// Scale factor (1, 2, 4, or 8).
    pub scale: u8,
    /// Constant displacement; negative values trap at execution.
    pub disp: i64,
}

impl HmovOperand {
    /// `[region_base + disp]`.
    pub fn disp(disp: i64) -> Self {
        Self {
            index: None,
            scale: 1,
            disp,
        }
    }

    /// `[region_base + index*scale + disp]`.
    pub fn indexed(index: Reg, scale: u8, disp: i64) -> Self {
        Self {
            index: Some(index),
            scale,
            disp,
        }
    }
}

/// One simulated instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = a op b`.
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Reg,
        /// Second source.
        b: Reg,
    },
    /// `dst = a op imm`.
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Source register.
        a: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = imm`.
    MovI {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Load `size` bytes (zero-extended) from a memory operand.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operand.
        mem: MemOperand,
        /// Access size in bytes (1, 2, 4, 8).
        size: u8,
    },
    /// Store the low `size` bytes of `src` to a memory operand.
    Store {
        /// Source register.
        src: Reg,
        /// Address operand.
        mem: MemOperand,
        /// Access size in bytes (1, 2, 4, 8).
        size: u8,
    },
    /// `hmov{region}` load: explicit-region-relative load (paper §4.2).
    HmovLoad {
        /// Explicit region index 0–3.
        region: u8,
        /// Destination register.
        dst: Reg,
        /// Region-relative operand.
        mem: HmovOperand,
        /// Access size in bytes.
        size: u8,
    },
    /// `hmov{region}` store.
    HmovStore {
        /// Explicit region index 0–3.
        region: u8,
        /// Source register.
        src: Reg,
        /// Region-relative operand.
        mem: HmovOperand,
        /// Access size in bytes.
        size: u8,
    },
    /// Conditional branch on two registers.
    Branch {
        /// Condition.
        cond: Cond,
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Conditional branch comparing a register with an immediate.
    BranchI {
        /// Condition.
        cond: Cond,
        /// Register operand.
        a: Reg,
        /// Immediate operand.
        imm: i64,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Indirect jump through a register holding a *byte* PC.
    JumpInd {
        /// Register holding the target byte address.
        reg: Reg,
    },
    /// Direct call (pushes return PC on the simulated RAS/stack register
    /// discipline is software's concern; the core models only the RAS).
    Call {
        /// Target instruction index.
        target: usize,
    },
    /// Return to the address saved by the matching `Call`.
    Ret,
    /// System call; the number lives in `r0` by convention.
    Syscall,
    /// Serializing identification instruction (used by the HFI emulation
    /// of Appendix A.2 to model enter/exit serialization).
    Cpuid,
    /// Read the cycle counter into `dst`.
    Rdtsc {
        /// Destination register.
        dst: Reg,
    },
    /// Flush the cache line containing the operand address (clflush).
    Flush {
        /// Address operand.
        mem: MemOperand,
    },
    /// Drain the pipeline (lfence-like; used around timing probes).
    Fence,
    /// `hfi_enter` with an inline configuration.
    HfiEnter {
        /// Sandbox parameters (the `sandbox_t` of Appendix A.1).
        config: SandboxConfig,
    },
    /// `hfi_enter` with switch-on-exit: shadows the live register file and
    /// loads the child's region file.
    HfiEnterChild {
        /// Sandbox parameters.
        config: SandboxConfig,
        /// The child's region registers (slot-indexed).
        regions: Box<[Option<Region>; hfi_core::NUM_REGIONS]>,
    },
    /// `hfi_exit`.
    HfiExit,
    /// `hfi_reenter`: re-enters the most recently exited sandbox.
    HfiReenter,
    /// `hfi_set_region slot, <inline metadata>`.
    HfiSetRegion {
        /// Region register slot (0–9).
        slot: u8,
        /// Metadata to install.
        region: Region,
    },
    /// `hfi_clear_region slot`.
    HfiClearRegion {
        /// Region register slot (0–9).
        slot: u8,
    },
    /// `hfi_clear_all_regions`.
    HfiClearAllRegions,
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,
}

impl Inst {
    /// Modelled encoding length in bytes.
    ///
    /// `hmov` uses a *prefix* on the x86 `mov` encoding (paper §5.2), so it
    /// is one byte longer than the equivalent `mov` — the source of the
    /// i-cache pressure seen on 445.gobmk (§6.1).
    pub fn encoded_len(&self) -> u64 {
        match self {
            Inst::AluRR { .. } | Inst::Mov { .. } => 3,
            Inst::AluRI { imm, .. } => {
                if *imm >= i32::MIN as i64 && *imm <= i32::MAX as i64 {
                    4
                } else {
                    8
                }
            }
            Inst::MovI { imm, .. } => {
                if *imm >= i32::MIN as i64 && *imm <= i32::MAX as i64 {
                    5
                } else {
                    10
                }
            }
            Inst::Load { .. } | Inst::Store { .. } => 4,
            Inst::HmovLoad { .. } | Inst::HmovStore { .. } => 5,
            Inst::Branch { .. } | Inst::BranchI { .. } => 4,
            Inst::Jump { .. } | Inst::Call { .. } => 5,
            Inst::JumpInd { .. } => 3,
            Inst::Ret | Inst::Nop | Inst::Halt => 1,
            Inst::Syscall | Inst::Cpuid | Inst::Rdtsc { .. } => 2,
            Inst::Flush { .. } => 4,
            Inst::Fence => 3,
            Inst::HfiEnter { .. } | Inst::HfiEnterChild { .. } => 4,
            Inst::HfiExit | Inst::HfiReenter => 3,
            Inst::HfiSetRegion { .. } => 6,
            Inst::HfiClearRegion { .. } => 4,
            Inst::HfiClearAllRegions => 3,
        }
    }

    /// True for instructions that end a fetch group (control flow).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. }
                | Inst::BranchI { .. }
                | Inst::Jump { .. }
                | Inst::JumpInd { .. }
                | Inst::Call { .. }
                | Inst::Ret
        )
    }

    /// True for instructions that access data memory.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::HmovLoad { .. } | Inst::HmovStore { .. }
        )
    }
}

/// FNV-1a over everything written into it. Content digests hash `Debug`
/// renderings of `#[derive(Debug)]` types with explicit-width integer
/// fields, so a digest is stable across platforms and runs.
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const PRIME: u64 = 0x100_0000_01b3;

    /// Folds `bytes` into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A hasher at the FNV-1a offset basis.
impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// An assembled program: instructions plus their byte-PC layout.
#[derive(Clone, Default)]
pub struct Program {
    insts: Vec<Inst>,
    /// Byte PC of each instruction.
    pcs: Vec<u64>,
    /// Total code size in bytes.
    code_len: u64,
    /// Base byte address the code is "linked" at.
    base: u64,
    /// The springboard entry contract, when the program was emitted
    /// under a zeroing/stack-switching transition scheme. Executors
    /// re-validate it when `hfi_enter` retires.
    contract: Option<TransitionContract>,
    /// Instruction indices of the springboard's own ops (zeroing
    /// moves, the stack switch, fences, the entry canary). The plan
    /// lowering flags these so the chaos engine can target them.
    transition_ops: Vec<u32>,
    /// [`Program::content_digest`], computed on first read. Every field
    /// above is private and fixed once the value exists (the one
    /// mutator, `with_transition_meta`, consumes `self` and clears
    /// this), so the memo always equals a recomputation.
    digest: OnceLock<u64>,
}

/// The `#[derive(Debug)]` rendering minus the digest memo, which caches
/// the other fields and is not content of its own.
impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("insts", &self.insts)
            .field("pcs", &self.pcs)
            .field("code_len", &self.code_len)
            .field("base", &self.base)
            .field("contract", &self.contract)
            .field("transition_ops", &self.transition_ops)
            .finish()
    }
}

impl Program {
    /// Lays out `insts` starting at byte address `base`.
    pub fn new(insts: Vec<Inst>, base: u64) -> Self {
        let mut pcs = Vec::with_capacity(insts.len());
        let mut pc = base;
        for inst in &insts {
            pcs.push(pc);
            pc += inst.encoded_len();
        }
        Self {
            insts,
            pcs,
            code_len: pc - base,
            base,
            contract: None,
            transition_ops: Vec::new(),
            digest: OnceLock::new(),
        }
    }

    /// Attaches springboard metadata: the entry contract and the
    /// instruction indices of the springboard's own ops.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn with_transition_meta(
        mut self,
        contract: Option<TransitionContract>,
        transition_ops: Vec<u32>,
    ) -> Self {
        assert!(
            transition_ops
                .iter()
                .all(|&i| (i as usize) < self.insts.len()),
            "transition op index out of range"
        );
        self.contract = contract;
        self.transition_ops = transition_ops;
        self.digest = OnceLock::new();
        self
    }

    /// Content hash: FNV-1a over the base address, the `Debug` rendering
    /// of every instruction, and the transition metadata (contract and
    /// springboard op set) — exactly the inputs the decoded plan, and
    /// therefore a verifier verdict, depends on. Computed once per
    /// program object; later reads (and clones) return the memo.
    pub fn content_digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut w = Fnv1a::default();
            let _ = write!(w, "base={:#x};", self.base);
            for inst in &self.insts {
                let _ = write!(w, "{inst:?};");
            }
            let _ = write!(
                w,
                "contract={:?};ops={:?}",
                self.contract, self.transition_ops
            );
            w.finish()
        })
    }

    /// The springboard entry contract, if one was declared.
    pub fn contract(&self) -> Option<&TransitionContract> {
        self.contract.as_ref()
    }

    /// Instruction indices of the springboard's own ops.
    pub fn transition_ops(&self) -> &[u32] {
        &self.transition_ops
    }

    /// The instruction at `index`.
    pub fn inst(&self, index: usize) -> &Inst {
        &self.insts[index]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Byte PC of instruction `index`.
    pub fn pc_of(&self, index: usize) -> u64 {
        self.pcs[index]
    }

    /// Maps a byte PC back to an instruction index (exact match only).
    pub fn index_of_pc(&self, pc: u64) -> Option<usize> {
        self.pcs.binary_search(&pc).ok()
    }

    /// Base byte address of the code.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Code footprint in bytes — what the i-cache sees.
    pub fn code_len(&self) -> u64 {
        self.code_len
    }

    /// Iterates over instructions.
    pub fn iter(&self) -> impl Iterator<Item = &Inst> {
        self.insts.iter()
    }

    /// The full instruction slice — bulk consumers (the plan lowering,
    /// the emulation transform, differential tests) index it directly
    /// instead of going through per-element [`Program::inst`] calls.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Replaces the instruction list, preserving base (relayouts PCs)
    /// and the transition metadata — the A.2 emulation transform and
    /// the mutation engine both substitute instructions 1:1, so the
    /// declared contract and springboard indices keep describing the
    /// same sites (which is exactly what lets the verifier catch a
    /// mutant that drops a zeroing op while the contract still stands).
    pub fn with_insts(&self, insts: Vec<Inst>) -> Program {
        let mut p = Program::new(insts, self.base);
        p.contract = self.contract;
        p.transition_ops = self.transition_ops.clone();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmov_is_longer_than_mov() {
        let mov = Inst::Load {
            dst: Reg(0),
            mem: MemOperand::base_disp(Reg(1), 0),
            size: 8,
        };
        let hmov = Inst::HmovLoad {
            region: 0,
            dst: Reg(0),
            mem: HmovOperand::disp(0),
            size: 8,
        };
        assert_eq!(hmov.encoded_len(), mov.encoded_len() + 1);
    }

    #[test]
    fn program_layout_is_cumulative() {
        let prog = Program::new(
            vec![
                Inst::Nop, // 1 byte at 0x1000
                Inst::MovI {
                    dst: Reg(0),
                    imm: 1,
                }, // 5 bytes at 0x1001
                Inst::Halt, // 1 byte at 0x1006
            ],
            0x1000,
        );
        assert_eq!(prog.pc_of(0), 0x1000);
        assert_eq!(prog.pc_of(1), 0x1001);
        assert_eq!(prog.pc_of(2), 0x1006);
        assert_eq!(prog.code_len(), 7);
        assert_eq!(prog.index_of_pc(0x1001), Some(1));
        assert_eq!(prog.index_of_pc(0x1002), None);
    }

    fn meta_program() -> Program {
        Program::new(
            vec![
                Inst::MovI {
                    dst: Reg(0),
                    imm: 1,
                },
                Inst::Halt,
            ],
            0x1000,
        )
    }

    #[test]
    fn digest_memo_is_cleared_by_transition_meta() {
        let program = meta_program();
        let bare = program.content_digest();
        let with_meta = program.with_transition_meta(None, vec![0]);
        assert_ne!(with_meta.content_digest(), bare, "a stale memo survived");
        assert_eq!(
            with_meta.content_digest(),
            meta_program()
                .with_transition_meta(None, vec![0])
                .content_digest(),
            "the memo must equal a fresh computation"
        );
    }

    #[test]
    fn clones_and_relayouts_digest_their_own_content() {
        let program = meta_program();
        let digest = program.content_digest();
        assert_eq!(program.clone().content_digest(), digest);

        let relaid = program.with_insts(vec![Inst::Halt]);
        assert!(relaid.digest.get().is_none(), "with_insts starts cold");
        assert_ne!(relaid.content_digest(), digest);
        assert_eq!(
            program
                .with_insts(program.insts().to_vec())
                .content_digest(),
            digest
        );
    }

    #[test]
    fn debug_rendering_leaves_out_the_digest_memo() {
        let program = meta_program();
        let cold = format!("{program:?}");
        program.content_digest();
        assert_eq!(format!("{program:?}"), cold);
        assert!(!cold.contains("digest"), "{cold}");
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
        assert!(!Cond::LtU.eval(u64::MAX, 0));
        assert!(Cond::GeU.eval(u64::MAX, 0));
        assert!(Cond::Eq.eval(7, 7));
        assert!(Cond::Ne.eval(7, 8));
        assert!(Cond::Ge.eval(0, -1i64 as u64));
    }

    #[test]
    fn large_immediates_encode_longer() {
        assert_eq!(
            Inst::MovI {
                dst: Reg(0),
                imm: 1
            }
            .encoded_len(),
            5
        );
        assert_eq!(
            Inst::MovI {
                dst: Reg(0),
                imm: 1 << 40
            }
            .encoded_len(),
            10
        );
    }
}
