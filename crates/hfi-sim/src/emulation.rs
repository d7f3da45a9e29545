//! The compiler-based HFI *emulation* of paper §5.2 / Appendix A.2.
//!
//! The paper's second evaluation vehicle replaces HFI instructions with
//! available x86 instructions of matching cost, so large workloads can run
//! at native speed on real hardware:
//!
//! * `hmov` → a regular `mov` with a **constant** (register-free) base —
//!   "the largest page-aligned address the x86 `mov` instruction can refer
//!   to via its constant field", capturing both the reserved-input operand
//!   shape and the register-pressure benefit;
//! * `hfi_enter`/`hfi_exit` → `cpuid`, a serializing instruction, plus the
//!   handler check an exit performs;
//! * `hfi_set_region` → moves of the region metadata into registers.
//!
//! [`emulate`] applies the same transformation to a simulated program; the
//! Fig. 2 harness runs both the true-HFI and emulated variants on the cycle
//! simulator and compares, mirroring the paper's gem5 cross-validation.

use hfi_core::NUM_REGIONS;

use crate::isa::{AluOp, Inst, MemOperand, Program, Reg};

/// The fixed base address emulated `hmov` accesses use (the paper uses
/// `0x7ffff000`, one page below 2 GiB).
pub const EMULATION_BASE: u64 = 0x7fff_f000;

/// Transforms a program with HFI instructions into its emulated
/// counterpart (no HFI instructions; approximately equal cost).
///
/// Branch targets are instruction indices and every HFI instruction maps
/// to *at least one* replacement, with padding `Nop`s inserted so that
/// instruction indices are preserved exactly — multi-instruction
/// expansions are modelled by cost-equivalent single instructions instead,
/// which keeps control flow intact without a relocation pass.
pub fn emulate(program: &Program) -> Program {
    let insts = program
        .iter()
        .map(|inst| match inst {
            Inst::HmovLoad { dst, mem, size, .. } => Inst::Load {
                dst: *dst,
                mem: MemOperand {
                    base: None,
                    index: mem.index,
                    scale: mem.scale,
                    disp: mem.disp + EMULATION_BASE as i64,
                },
                size: *size,
            },
            Inst::HmovStore { src, mem, size, .. } => Inst::Store {
                src: *src,
                mem: MemOperand {
                    base: None,
                    index: mem.index,
                    scale: mem.scale,
                    disp: mem.disp + EMULATION_BASE as i64,
                },
                size: *size,
            },
            // Serialization cost of enter/exit ≈ cpuid (Appendix A.2).
            Inst::HfiEnter { config } | Inst::HfiEnterChild { config, .. } => {
                if config.serialize {
                    Inst::Cpuid
                } else {
                    Inst::Nop
                }
            }
            Inst::HfiExit | Inst::HfiReenter => Inst::Cpuid,
            // Region metadata moves: modelled as a mov-class ALU op of
            // matching cost. The op must be *value-preserving* (`or r15,
            // r15, 0`): HFI builds reserve no registers — that is the
            // paper's register-pressure point — so r15 can hold a live
            // allocator value, and a clobbering `mov r15, imm` here would
            // change the architectural result (it did, on SPEC-like
            // kernels whose `memory.grow` lowers to `hfi_set_region`).
            Inst::HfiSetRegion { .. } | Inst::HfiClearRegion { .. } | Inst::HfiClearAllRegions => {
                Inst::AluRI {
                    op: AluOp::Or,
                    dst: Reg(15),
                    a: Reg(15),
                    imm: 0,
                }
            }
            other => other.clone(),
        })
        .collect();
    program.with_insts(insts)
}

/// Options for the *guarded* emulation variant ([`emulate_guarded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardedOptions {
    /// Scratch register the guard sequences may clobber. Must be dead in
    /// the source program (the hfi-wasm compiler's `SCRATCH_MEM` is free
    /// under HFI isolation, which never materializes addresses in it).
    pub scratch: Reg,
    /// Power-of-two bound every emulated `hmov` offset is masked into:
    /// the size of the mirrored window at [`EMULATION_BASE`].
    pub bound: u64,
}

/// A guarded-emulation result: the transformed program plus the index
/// relocation map (guard sequences change instruction counts, unlike the
/// index-preserving [`emulate`]).
#[derive(Debug, Clone)]
pub struct GuardedEmulation {
    /// The transformed program (no HFI instructions, every former `hmov`
    /// offset masked into `[0, bound)` before use).
    pub program: Program,
    /// `index_map[i]` is the new index of source instruction `i`; the
    /// extra final entry maps one-past-the-end (for labels at the end).
    pub index_map: Vec<usize>,
}

/// Why a program cannot be emulated with guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardedEmulationError {
    /// The bound is not a power of two, so a single AND cannot enforce it.
    BoundNotPowerOfTwo {
        /// The offending bound.
        bound: u64,
    },
    /// The program reads or writes the designated scratch register, so
    /// inserting guard sequences would corrupt it.
    ScratchLive {
        /// Index of the first instruction touching the scratch register.
        index: usize,
    },
    /// Indirect jumps cannot be relocated statically.
    IndirectJump {
        /// Index of the offending instruction.
        index: usize,
    },
}

impl std::fmt::Display for GuardedEmulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardedEmulationError::BoundNotPowerOfTwo { bound } => {
                write!(f, "guard bound {bound:#x} is not a power of two")
            }
            GuardedEmulationError::ScratchLive { index } => {
                write!(f, "scratch register is live at instruction {index}")
            }
            GuardedEmulationError::IndirectJump { index } => {
                write!(
                    f,
                    "indirect jump at instruction {index} cannot be relocated"
                )
            }
        }
    }
}

impl std::error::Error for GuardedEmulationError {}

fn touches(inst: &Inst, reg: Reg) -> bool {
    let mem_uses = |mem: &MemOperand| mem.base == Some(reg) || mem.index == Some(reg);
    match inst {
        Inst::AluRR { dst, a, b, .. } => *dst == reg || *a == reg || *b == reg,
        Inst::AluRI { dst, a, .. } => *dst == reg || *a == reg,
        Inst::MovI { dst, .. } | Inst::Rdtsc { dst } => *dst == reg,
        Inst::Mov { dst, src } => *dst == reg || *src == reg,
        Inst::Load { dst, mem, .. } => *dst == reg || mem_uses(mem),
        Inst::Store { src, mem, .. } => *src == reg || mem_uses(mem),
        Inst::HmovLoad { dst, mem, .. } => *dst == reg || mem.index == Some(reg),
        Inst::HmovStore { src, mem, .. } => *src == reg || mem.index == Some(reg),
        Inst::Flush { mem } => mem_uses(mem),
        Inst::Branch { a, b, .. } => *a == reg || *b == reg,
        Inst::BranchI { a, .. } => *a == reg,
        Inst::JumpInd { reg: r } => *r == reg,
        _ => false,
    }
}

/// Emits the guarded replacement of one `hmov` operand: computes the
/// region-relative offset into `scratch`, masks it into `[0, bound)`, and
/// returns the memory operand of the final access.
fn guard_sequence(
    mem: &crate::isa::HmovOperand,
    opts: &GuardedOptions,
    out: &mut Vec<Inst>,
) -> MemOperand {
    let mask = (opts.bound - 1) as i64;
    match mem.index {
        Some(index) => {
            if mem.scale > 1 {
                out.push(Inst::AluRI {
                    op: AluOp::Shl,
                    dst: opts.scratch,
                    a: index,
                    imm: mem.scale.trailing_zeros() as i64,
                });
                if mem.disp != 0 {
                    out.push(Inst::AluRI {
                        op: AluOp::Add,
                        dst: opts.scratch,
                        a: opts.scratch,
                        imm: mem.disp,
                    });
                }
            } else {
                // scale == 1: one add moves, offsets, and copies at once.
                out.push(Inst::AluRI {
                    op: AluOp::Add,
                    dst: opts.scratch,
                    a: index,
                    imm: mem.disp,
                });
            }
            out.push(Inst::AluRI {
                op: AluOp::And,
                dst: opts.scratch,
                a: opts.scratch,
                imm: mask,
            });
            MemOperand {
                base: Some(opts.scratch),
                index: None,
                scale: 1,
                disp: EMULATION_BASE as i64,
            }
        }
        // Constant offsets need no runtime guard: mask statically. An
        // out-of-bounds constant wraps into the window instead of
        // trapping — acceptable for the emulation vehicle, whose job is
        // cost fidelity, not fault fidelity.
        None => MemOperand::absolute(EMULATION_BASE as i64 + (mem.disp & mask)),
    }
}

/// The *guarded* A.2 emulation: like [`emulate`], but every former `hmov`
/// with a dynamic index gets an explicit mask-and guard confining its
/// offset to `[0, bound)` before the constant-base access — the SFI-style
/// sequence the `hfi-verify` static checker can prove safe without any
/// knowledge of the hardware check.
///
/// Unlike [`emulate`] this changes instruction counts, so direct branch /
/// jump / call targets are relocated through the returned index map.
/// The default [`emulate`] transform is deliberately untouched: its
/// 1:1 output is pinned byte-identically by the golden-counter tests.
///
/// # Errors
///
/// Fails if `bound` is not a power of two, if the scratch register is
/// live anywhere in the program, or if the program contains indirect
/// jumps (their byte-PC targets cannot be relocated statically).
pub fn emulate_guarded(
    program: &Program,
    opts: &GuardedOptions,
) -> Result<GuardedEmulation, GuardedEmulationError> {
    if !opts.bound.is_power_of_two() {
        return Err(GuardedEmulationError::BoundNotPowerOfTwo { bound: opts.bound });
    }
    for (index, inst) in program.iter().enumerate() {
        if touches(inst, opts.scratch) {
            return Err(GuardedEmulationError::ScratchLive { index });
        }
        if matches!(inst, Inst::JumpInd { .. }) {
            return Err(GuardedEmulationError::IndirectJump { index });
        }
    }

    let mut out: Vec<Inst> = Vec::with_capacity(program.len());
    let mut index_map = Vec::with_capacity(program.len() + 1);
    for inst in program.iter() {
        index_map.push(out.len());
        match inst {
            Inst::HmovLoad { dst, mem, size, .. } => {
                let mem = guard_sequence(mem, opts, &mut out);
                out.push(Inst::Load {
                    dst: *dst,
                    mem,
                    size: *size,
                });
            }
            Inst::HmovStore { src, mem, size, .. } => {
                let mem = guard_sequence(mem, opts, &mut out);
                out.push(Inst::Store {
                    src: *src,
                    mem,
                    size: *size,
                });
            }
            Inst::HfiEnter { config } | Inst::HfiEnterChild { config, .. } => {
                out.push(if config.serialize {
                    Inst::Cpuid
                } else {
                    Inst::Nop
                });
            }
            Inst::HfiExit | Inst::HfiReenter => out.push(Inst::Cpuid),
            Inst::HfiSetRegion { .. } | Inst::HfiClearRegion { .. } | Inst::HfiClearAllRegions => {
                out.push(Inst::AluRI {
                    op: AluOp::Or,
                    dst: Reg(15),
                    a: Reg(15),
                    imm: 0,
                });
            }
            other => out.push(other.clone()),
        }
    }
    index_map.push(out.len());

    // Relocate direct control flow through the index map.
    for inst in &mut out {
        match inst {
            Inst::Branch { target, .. }
            | Inst::BranchI { target, .. }
            | Inst::Jump { target }
            | Inst::Call { target } => *target = index_map[*target],
            _ => {}
        }
    }
    Ok(GuardedEmulation {
        program: program.with_insts(out),
        index_map,
    })
}

/// True if a program still contains HFI instructions (i.e. has not been
/// emulated).
pub fn uses_hfi(program: &Program) -> bool {
    program.iter().any(|inst| {
        matches!(
            inst,
            Inst::HmovLoad { .. }
                | Inst::HmovStore { .. }
                | Inst::HfiEnter { .. }
                | Inst::HfiEnterChild { .. }
                | Inst::HfiExit
                | Inst::HfiReenter
                | Inst::HfiSetRegion { .. }
                | Inst::HfiClearRegion { .. }
                | Inst::HfiClearAllRegions
        )
    })
}

/// Copies the *data* an emulated program expects: since emulated `hmov`
/// addresses are `EMULATION_BASE + offset` rather than `region_base +
/// offset`, heap contents must be mirrored at the emulation base.
///
/// Returns the (src, dst) ranges so callers can mirror with their own
/// memory type. `region_slots` lists the explicit-region bases/bounds in
/// use, exactly as the real program's `hfi_set_region` calls configure
/// them.
pub fn emulation_mirror_ranges(region_slots: &[(u64, u64)]) -> Vec<(u64, u64, u64)> {
    // (src_base, dst_base, len)
    region_slots
        .iter()
        .map(|&(base, bound)| (base, EMULATION_BASE, bound))
        .collect()
}

/// Sanity constant: slot count exposed for harnesses that mirror all
/// explicit regions.
pub const ALL_SLOTS: usize = NUM_REGIONS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::HmovOperand;

    #[test]
    fn emulated_program_has_no_hfi() {
        let prog = Program::new(
            vec![
                Inst::HfiEnter {
                    config: hfi_core::SandboxConfig::hybrid().serialized(),
                },
                Inst::HmovLoad {
                    region: 0,
                    dst: Reg(1),
                    mem: HmovOperand::disp(0x10),
                    size: 8,
                },
                Inst::HfiExit,
                Inst::Halt,
            ],
            0x1000,
        );
        assert!(uses_hfi(&prog));
        let emulated = emulate(&prog);
        assert!(!uses_hfi(&emulated));
        assert_eq!(emulated.len(), prog.len());
    }

    #[test]
    fn emulated_hmov_uses_constant_base() {
        let prog = Program::new(
            vec![Inst::HmovLoad {
                region: 2,
                dst: Reg(3),
                mem: HmovOperand::indexed(Reg(4), 8, 0x20),
                size: 4,
            }],
            0,
        );
        let emulated = emulate(&prog);
        match emulated.inst(0) {
            Inst::Load { mem, .. } => {
                assert_eq!(mem.base, None);
                assert_eq!(mem.index, Some(Reg(4)));
                assert_eq!(mem.disp, 0x20 + EMULATION_BASE as i64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn guarded_emulation_masks_and_relocates() {
        use crate::isa::Cond;
        let prog = Program::new(
            vec![
                Inst::HfiEnter {
                    config: hfi_core::SandboxConfig::hybrid().serialized(),
                }, // 0
                Inst::HmovLoad {
                    region: 0,
                    dst: Reg(1),
                    mem: HmovOperand::indexed(Reg(2), 8, 0x40),
                    size: 8,
                }, // 1 -> expands to shl/add/and/load
                Inst::BranchI {
                    cond: Cond::Ne,
                    a: Reg(1),
                    imm: 0,
                    target: 4,
                }, // 2
                Inst::HfiExit, // 3
                Inst::Halt,    // 4
            ],
            0x1000,
        );
        let opts = GuardedOptions {
            scratch: Reg(14),
            bound: 1 << 20,
        };
        let guarded = emulate_guarded(&prog, &opts).expect("guardable");
        assert!(!uses_hfi(&guarded.program));
        assert_eq!(guarded.index_map, vec![0, 1, 5, 6, 7, 8]);
        // The expansion: shl scratch, r2, 3; add scratch, scratch, 0x40;
        // and scratch, scratch, bound-1; load r1, [scratch + EMULATION_BASE].
        match guarded.program.inst(3) {
            Inst::AluRI { op, dst, imm, .. } => {
                assert_eq!(*op, AluOp::And);
                assert_eq!(*dst, Reg(14));
                assert_eq!(*imm, (1 << 20) - 1);
            }
            other => panic!("expected the mask, got {other:?}"),
        }
        match guarded.program.inst(4) {
            Inst::Load { mem, .. } => {
                assert_eq!(mem.base, Some(Reg(14)));
                assert_eq!(mem.disp, EMULATION_BASE as i64);
            }
            other => panic!("expected the load, got {other:?}"),
        }
        // The branch target moved with the expansion.
        match guarded.program.inst(5) {
            Inst::BranchI { target, .. } => assert_eq!(*target, 7),
            other => panic!("expected the branch, got {other:?}"),
        }
    }

    #[test]
    fn guarded_emulation_matches_plain_emulation_results() {
        use crate::core::Machine;
        // An architectural equivalence check: for in-bounds accesses the
        // guarded variant computes the same result as the plain A.2
        // emulation (the mask is a no-op on legal offsets).
        let heap = hfi_core::ExplicitDataRegion::large(0x1000_0000, 1 << 20, true, true).unwrap();
        let mut asm = crate::asm::ProgramBuilder::new(0x40_0000);
        asm.hfi_set_region(6, hfi_core::Region::Explicit(heap));
        asm.hfi_enter(hfi_core::SandboxConfig::hybrid());
        asm.movi(Reg(2), 8);
        asm.hmov_load(0, Reg(1), HmovOperand::indexed(Reg(2), 8, 0), 8);
        asm.hmov_store(0, Reg(1), HmovOperand::disp(0x100), 8);
        asm.hmov_load(0, Reg(3), HmovOperand::disp(0x100), 8);
        asm.hfi_exit();
        asm.halt();
        let prog = asm.finish();

        let run = |program: Program| {
            let mut machine = Machine::new(program);
            machine
                .mem
                .write_bytes(EMULATION_BASE + 0x40, &0xDEAD_BEEFu64.to_le_bytes());
            let result = machine.run(100_000);
            assert_eq!(result.stop, crate::core::Stop::Halted);
            machine.regs()
        };
        let plain = run(emulate(&prog));
        let opts = GuardedOptions {
            scratch: Reg(14),
            bound: 1 << 20,
        };
        let guarded = run(emulate_guarded(&prog, &opts).unwrap().program);
        assert_eq!(plain[1], 0xDEAD_BEEF);
        assert_eq!(plain[1], guarded[1]);
        assert_eq!(plain[3], guarded[3]);
    }

    #[test]
    fn guarded_emulation_rejects_bad_inputs() {
        let opts = GuardedOptions {
            scratch: Reg(14),
            bound: 1 << 20,
        };
        let indirect = Program::new(vec![Inst::JumpInd { reg: Reg(3) }], 0);
        assert_eq!(
            emulate_guarded(&indirect, &opts).unwrap_err(),
            GuardedEmulationError::IndirectJump { index: 0 }
        );
        let uses_scratch = Program::new(
            vec![Inst::MovI {
                dst: Reg(14),
                imm: 1,
            }],
            0,
        );
        assert_eq!(
            emulate_guarded(&uses_scratch, &opts).unwrap_err(),
            GuardedEmulationError::ScratchLive { index: 0 }
        );
        let fine = Program::new(vec![Inst::Halt], 0);
        assert_eq!(
            emulate_guarded(
                &fine,
                &GuardedOptions {
                    scratch: Reg(14),
                    bound: 3,
                }
            )
            .unwrap_err(),
            GuardedEmulationError::BoundNotPowerOfTwo { bound: 3 }
        );
    }

    #[test]
    fn serialized_enter_becomes_cpuid() {
        let serialized = Program::new(
            vec![Inst::HfiEnter {
                config: hfi_core::SandboxConfig::hybrid().serialized(),
            }],
            0,
        );
        assert!(matches!(emulate(&serialized).inst(0), Inst::Cpuid));
        let unserialized = Program::new(
            vec![Inst::HfiEnter {
                config: hfi_core::SandboxConfig::hybrid(),
            }],
            0,
        );
        assert!(matches!(emulate(&unserialized).inst(0), Inst::Nop));
    }
}
