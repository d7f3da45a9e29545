//! Differential testing for the pre-decode layer: a [`DecodedProgram`]
//! must agree, static fact by static fact, with a fresh per-[`Inst`]
//! derivation — and a plan-driven run must remain architecturally
//! identical between the functional interpreter and the cycle machine.
//!
//! The plan (`hfi_sim::plan`) is a pure lowering: every field of a
//! [`MicroOp`] is derivable from one instruction's encoding alone. These
//! tests re-derive each fact independently (encoded length, memory and
//! control classification, serialization class, operand slots, branch
//! targets) on random programs and compare, then check the basic-block
//! table's structural invariants, then run random halting programs on
//! both executors. Cases come from the vendored deterministic PRNG, so
//! every failure reproduces exactly.
//!
//! The functional interpreter runs every program on one block-stepped
//! loop, whatever hook is installed: a chaos hook selects the loop's
//! observed instance. Its reference is `Functional::run_reference`, a
//! per-op loop no hook selects. The `fused_and_unfused_*` tests (named
//! for the block-dispatch tier the block-stepped loop replaced) and the
//! `block_loop_*` tests demand identical results, registers and memory
//! from both loops: on random programs, at mid-block entries, when the
//! budget or the code region ends inside a block, and on every
//! verifyset kernel. The observed loop must make the reference's hook
//! calls, call for call, even when a hook corrupts the HFI context in
//! the middle of a block. Both loops resume where their last run
//! stopped, and the serving tier runs a request with a deadline in
//! slices on that: k runs of P steps must end exactly where one run of
//! k·P steps ends, with the same hook calls in the same order.

use std::sync::Arc;

use hfi_repro::hfi_core::region::ExplicitDataRegion;
use hfi_repro::hfi_core::{Region, SandboxConfig};
use hfi_repro::hfi_sim::plan::{NO_REG, NO_TARGET};
use hfi_repro::hfi_sim::{
    AluOp, Cond, Functional, FunctionalResult, HmovOperand, Inst, Machine, MemOperand, MicroOp,
    Program, Reg, SerializeClass, Stop,
};
use hfi_repro::hfi_util::Rng;

const ALUS: [AluOp; 6] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Xor,
    AluOp::And,
    AluOp::Or,
];
const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::LtU, Cond::GeU];

fn reg(rng: &mut Rng) -> Reg {
    Reg(rng.below(16) as u8)
}

fn mem_operand(rng: &mut Rng) -> MemOperand {
    MemOperand {
        base: rng.bool().then(|| reg(rng)),
        index: rng.bool().then(|| reg(rng)),
        scale: *rng.pick(&[1u8, 2, 4, 8]),
        disp: rng.range_i64(-4096, 4096),
    }
}

fn hmov_operand(rng: &mut Rng) -> HmovOperand {
    if rng.bool() {
        HmovOperand::disp(rng.range_i64(0, 4096))
    } else {
        HmovOperand::indexed(reg(rng), *rng.pick(&[1u8, 2, 4, 8]), rng.range_i64(0, 4096))
    }
}

/// One random instruction of any shape; control targets land in `0..n`.
fn random_inst(rng: &mut Rng, n: usize) -> Inst {
    let target = rng.below(n as u64) as usize;
    let size = *rng.pick(&[1u8, 2, 4, 8]);
    match rng.below(22) {
        0 => Inst::AluRR {
            op: *rng.pick(&ALUS),
            dst: reg(rng),
            a: reg(rng),
            b: reg(rng),
        },
        1 => Inst::AluRI {
            op: *rng.pick(&ALUS),
            dst: reg(rng),
            a: reg(rng),
            // Spans both the short and long immediate encodings.
            imm: if rng.bool() {
                rng.range_i64(-4096, 4096)
            } else {
                rng.range_i64(i64::MIN / 2, i64::MAX / 2)
            },
        },
        2 => Inst::MovI {
            dst: reg(rng),
            imm: rng.range_i64(-1 << 40, 1 << 40),
        },
        3 => Inst::Mov {
            dst: reg(rng),
            src: reg(rng),
        },
        4 => Inst::Rdtsc { dst: reg(rng) },
        5 => Inst::Load {
            dst: reg(rng),
            mem: mem_operand(rng),
            size,
        },
        6 => Inst::Store {
            src: reg(rng),
            mem: mem_operand(rng),
            size,
        },
        7 => Inst::HmovLoad {
            region: rng.below(8) as u8,
            dst: reg(rng),
            mem: hmov_operand(rng),
            size,
        },
        8 => Inst::HmovStore {
            region: rng.below(8) as u8,
            src: reg(rng),
            mem: hmov_operand(rng),
            size,
        },
        9 => Inst::Flush {
            mem: mem_operand(rng),
        },
        10 => Inst::Branch {
            cond: *rng.pick(&CONDS),
            a: reg(rng),
            b: reg(rng),
            target,
        },
        11 => Inst::BranchI {
            cond: *rng.pick(&CONDS),
            a: reg(rng),
            imm: rng.range_i64(-256, 256),
            target,
        },
        12 => Inst::Jump { target },
        13 => Inst::JumpInd { reg: reg(rng) },
        14 => Inst::Call { target },
        15 => Inst::Ret,
        16 => Inst::Syscall,
        17 => Inst::Cpuid,
        18 => Inst::Fence,
        19 => {
            let config = if rng.bool() {
                SandboxConfig::hybrid().serialized()
            } else {
                SandboxConfig::hybrid()
            };
            Inst::HfiEnter { config }
        }
        20 => match rng.below(4) {
            0 => Inst::HfiExit,
            1 => Inst::HfiReenter,
            2 => Inst::HfiClearRegion {
                slot: rng.below(8) as u8,
            },
            _ => Inst::HfiClearAllRegions,
        },
        _ => {
            if rng.bool() {
                let heap = ExplicitDataRegion::large(0x10_0000, 0x1_0000, true, true)
                    .expect("aligned region");
                Inst::HfiSetRegion {
                    slot: rng.below(8) as u8,
                    region: Region::Explicit(heap),
                }
            } else {
                Inst::Nop
            }
        }
    }
}

fn random_program(rng: &mut Rng) -> Arc<Program> {
    let n = rng.range_u64(8, 96) as usize;
    let insts: Vec<Inst> = (0..n).map(|_| random_inst(rng, n)).collect();
    Arc::new(Program::new(insts, rng.below(16) * 0x1000))
}

/// Independent re-derivation of the static serialization class (the
/// decode rules of paper §3.4/§4.3/§4.5), deliberately *not* shared with
/// the plan's `lower()`.
fn expected_serialize(inst: &Inst) -> SerializeClass {
    match inst {
        Inst::Cpuid | Inst::Fence | Inst::Syscall => SerializeClass::Always,
        Inst::HfiEnter { config } | Inst::HfiEnterChild { config, .. } => {
            if config.serialize {
                SerializeClass::Always
            } else {
                SerializeClass::No
            }
        }
        Inst::HfiExit => SerializeClass::ExitDynamic,
        Inst::HfiSetRegion { .. } | Inst::HfiClearRegion { .. } | Inst::HfiClearAllRegions => {
            SerializeClass::IfEnabled
        }
        _ => SerializeClass::No,
    }
}

#[test]
fn predecode_static_facts_match_fresh_derivation() {
    let mut rng = Rng::new(0x9DEC0DE);
    for case in 0..64 {
        let program = random_program(&mut rng);
        let plan = program.plan();
        assert_eq!(plan.len(), program.len(), "case {case}");
        for i in 0..program.len() {
            let inst = program.inst(i);
            let uop = plan.op(i);
            let at = format!("case {case}, inst {i} ({inst:?})");
            assert_eq!(uop.len as u64, inst.encoded_len(), "{at}: encoded length");
            assert_eq!(plan.pc(i), program.pc_of(i), "{at}: byte PC");
            assert_eq!(uop.has(MicroOp::GATE_MEM), inst.is_mem(), "{at}: mem class");
            assert_eq!(
                uop.has(MicroOp::CONTROL),
                inst.is_control(),
                "{at}: control class"
            );
            assert_eq!(uop.serialize, expected_serialize(inst), "{at}: serialize");
            assert_eq!(
                uop.has(MicroOp::IS_LOAD),
                matches!(inst, Inst::Load { .. } | Inst::HmovLoad { .. }),
                "{at}: load flag"
            );
            assert_eq!(
                uop.has(MicroOp::IS_STORE),
                matches!(inst, Inst::Store { .. } | Inst::HmovStore { .. }),
                "{at}: store flag"
            );
            match inst {
                Inst::Branch { target, .. }
                | Inst::BranchI { target, .. }
                | Inst::Jump { target }
                | Inst::Call { target } => {
                    assert_eq!(uop.target, *target as u32, "{at}: static target");
                }
                _ => assert_eq!(uop.target, NO_TARGET, "{at}: no static target"),
            }
            match inst {
                // hmov has no architectural base register: slot 0 must be
                // free (the region base replaces it).
                Inst::HmovLoad { region, mem, .. } | Inst::HmovStore { region, mem, .. } => {
                    assert_eq!(uop.srcs[0], NO_REG, "{at}: hmov uses no base slot");
                    assert_eq!(uop.region, *region, "{at}: region index");
                    assert_eq!(uop.imm, mem.disp, "{at}: displacement");
                }
                Inst::Load { mem, .. } | Inst::Store { mem, .. } => {
                    assert_eq!(
                        uop.srcs[0],
                        mem.base.map_or(NO_REG, |r| r.0),
                        "{at}: base slot"
                    );
                    assert_eq!(
                        uop.srcs[1],
                        mem.index.map_or(NO_REG, |r| r.0),
                        "{at}: index slot"
                    );
                    assert_eq!(uop.imm, mem.disp, "{at}: displacement");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn block_table_invariants_hold_on_random_programs() {
    let mut rng = Rng::new(0xB10C);
    for case in 0..64 {
        let program = random_program(&mut rng);
        let plan = program.plan();
        let blocks = plan.blocks();
        let n = plan.len() as u32;

        // Blocks tile the program exactly.
        assert_eq!(blocks.first().map(|b| b.start), Some(0), "case {case}");
        assert_eq!(blocks.last().map(|b| b.end), Some(n), "case {case}");
        for pair in blocks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "case {case}: tiling");
        }

        for (bi, block) in blocks.iter().enumerate() {
            assert!(block.start < block.end, "case {case}: empty block {bi}");
            // Control flow only at the terminator slot.
            for i in block.start..block.end - 1 {
                assert!(
                    !plan.op(i as usize).has(MicroOp::CONTROL),
                    "case {case}: control mid-block at {i}"
                );
            }
            // Every instruction maps back to its containing block.
            for i in block.start..block.end {
                assert_eq!(plan.block_of(i as usize), bi, "case {case}: block_of({i})");
            }
            // Edges match the terminator's shape.
            let term = plan.op(block.end as usize - 1);
            let fall_next = if block.end < n { block.end } else { NO_TARGET };
            match (term.has(MicroOp::CONTROL), term.class) {
                (true, hfi_repro::hfi_sim::OpClass::Jump) => {
                    assert_eq!(block.fall_through, NO_TARGET, "case {case}");
                    assert_eq!(block.taken, term.target, "case {case}");
                }
                (
                    true,
                    hfi_repro::hfi_sim::OpClass::Branch
                    | hfi_repro::hfi_sim::OpClass::BranchI
                    | hfi_repro::hfi_sim::OpClass::Call,
                ) => {
                    assert_eq!(block.fall_through, fall_next, "case {case}");
                    assert_eq!(block.taken, term.target, "case {case}");
                }
                (true, _) => {
                    // Indirect flow and returns: no static successors.
                    assert_eq!(block.fall_through, NO_TARGET, "case {case}");
                    assert_eq!(block.taken, NO_TARGET, "case {case}");
                }
                (false, _) => {
                    assert_eq!(block.fall_through, fall_next, "case {case}");
                    assert_eq!(block.taken, NO_TARGET, "case {case}");
                }
            }
            // Every in-range taken edge lands on a block leader.
            if block.taken != NO_TARGET && block.taken < n {
                assert_eq!(
                    blocks[plan.block_of(block.taken as usize)].start,
                    block.taken,
                    "case {case}: taken edge must be a leader"
                );
            }
        }
    }
}

/// Where the body of a [`random_runnable`] program starts, after the
/// register seeding.
const RUNNABLE_BODY: usize = 9;
/// Where the body of a [`random_guarded_runnable`] program starts, after
/// the register seeding and the HFI prologue.
const GUARDED_BODY: usize = 13;

/// A random *runnable* program: registers seeded with constants, ALU
/// traffic, loads/stores through a fixed in-bounds window, and
/// forward-only branches so termination is structural.
fn random_runnable(rng: &mut Rng) -> Arc<Program> {
    const BASE_REG: Reg = Reg(8);
    const HEAP: i64 = 0x2_0000;
    let body = rng.range_u64(16, 64) as usize;
    let mut insts: Vec<Inst> = Vec::new();
    for r in 0..8u8 {
        insts.push(Inst::MovI {
            dst: Reg(r),
            imm: rng.range_i64(-1 << 32, 1 << 32),
        });
    }
    insts.push(Inst::MovI {
        dst: BASE_REG,
        imm: HEAP,
    });
    let first = insts.len();
    assert_eq!(first, RUNNABLE_BODY);
    let halt = first + body;
    for i in first..halt {
        // Forward-only targets: anywhere strictly past this instruction,
        // up to and including the final halt.
        let target = rng.range_u64(i as u64 + 1, halt as u64 + 1) as usize;
        let mem = MemOperand {
            base: Some(BASE_REG),
            index: None,
            scale: 1,
            disp: rng.below(512) as i64 * 8,
        };
        let inst = match rng.below(10) {
            0 | 1 => Inst::AluRR {
                op: *rng.pick(&ALUS),
                dst: Reg(rng.below(8) as u8),
                a: Reg(rng.below(8) as u8),
                b: Reg(rng.below(8) as u8),
            },
            2 | 3 => Inst::AluRI {
                op: *rng.pick(&ALUS),
                dst: Reg(rng.below(8) as u8),
                a: Reg(rng.below(8) as u8),
                imm: rng.range_i64(-256, 256),
            },
            4 => Inst::Mov {
                dst: Reg(rng.below(8) as u8),
                src: Reg(rng.below(8) as u8),
            },
            5 => Inst::Load {
                dst: Reg(rng.below(8) as u8),
                mem,
                size: 8,
            },
            6 => Inst::Store {
                src: Reg(rng.below(8) as u8),
                mem,
                size: 8,
            },
            7 => Inst::Branch {
                cond: *rng.pick(&CONDS),
                a: Reg(rng.below(8) as u8),
                b: Reg(rng.below(8) as u8),
                target,
            },
            8 => Inst::BranchI {
                cond: *rng.pick(&CONDS),
                a: Reg(rng.below(8) as u8),
                imm: rng.range_i64(-4, 4),
                target,
            },
            _ => Inst::Jump { target },
        };
        insts.push(inst);
    }
    insts.push(Inst::Halt);
    Arc::new(Program::new(insts, 0x1000))
}

/// A random *guarded* runnable program: an HFI prologue installs a code
/// region, an implicit data region over the heap window, and an explicit
/// hmov region, then enters a hybrid sandbox; the body mixes checked
/// implicit accesses, checked `hmov` accesses (some deliberately
/// out-of-bounds through huge index registers), region clears, sandbox
/// exit/reenter, and forward-only branches. Faults are part of the
/// contract: a program that traps must trap identically on both tiers.
fn random_guarded_runnable(rng: &mut Rng) -> Arc<Program> {
    use hfi_repro::hfi_core::region::{ImplicitCodeRegion, ImplicitDataRegion};
    const BASE_REG: Reg = Reg(8);
    const CODE_BASE: i64 = 0x40_0000;
    const HEAP: i64 = 0x2_0000;
    let code = Region::Code(ImplicitCodeRegion::new(CODE_BASE as u64, 0xFFFF, true).expect("code"));
    let data =
        Region::Data(ImplicitDataRegion::new(HEAP as u64, 0xFFFF, true, true).expect("data"));
    let heap =
        Region::Explicit(ExplicitDataRegion::large(0x10_0000, 0x1_0000, true, true).expect("hmov"));

    let body = rng.range_u64(16, 64) as usize;
    let mut insts: Vec<Inst> = Vec::new();
    for r in 0..8u8 {
        insts.push(Inst::MovI {
            dst: Reg(r),
            imm: rng.range_i64(-1 << 32, 1 << 32),
        });
    }
    insts.push(Inst::MovI {
        dst: BASE_REG,
        imm: HEAP,
    });
    insts.push(Inst::HfiSetRegion {
        slot: 0,
        region: code,
    });
    insts.push(Inst::HfiSetRegion {
        slot: 2,
        region: data,
    });
    insts.push(Inst::HfiSetRegion {
        slot: 6,
        region: heap,
    });
    insts.push(Inst::HfiEnter {
        config: if rng.bool() {
            SandboxConfig::hybrid().serialized()
        } else {
            SandboxConfig::hybrid()
        },
    });
    let first = insts.len();
    assert_eq!(first, GUARDED_BODY);
    let halt = first + body;
    for i in first..halt {
        let target = rng.range_u64(i as u64 + 1, halt as u64 + 1) as usize;
        let mem = MemOperand {
            base: Some(BASE_REG),
            index: None,
            scale: 1,
            // Mostly in the data region; occasionally far out, so the
            // implicit guard's fault path is exercised too.
            disp: if rng.below(8) == 0 {
                0x50_0000
            } else {
                rng.below(512) as i64 * 8
            },
        };
        let hmov = if rng.below(4) == 0 {
            // A huge index register makes the §4.2 bounds check trap.
            HmovOperand::indexed(Reg(rng.below(8) as u8), 8, rng.below(256) as i64 * 8)
        } else {
            HmovOperand::disp(rng.below(512) as i64 * 8)
        };
        let inst = match rng.below(16) {
            0 | 1 => Inst::AluRR {
                op: *rng.pick(&ALUS),
                dst: Reg(rng.below(8) as u8),
                a: Reg(rng.below(8) as u8),
                b: Reg(rng.below(8) as u8),
            },
            2 | 3 => Inst::AluRI {
                op: *rng.pick(&ALUS),
                dst: Reg(rng.below(8) as u8),
                a: Reg(rng.below(8) as u8),
                imm: rng.range_i64(-256, 256),
            },
            4 | 5 => Inst::Load {
                dst: Reg(rng.below(8) as u8),
                mem,
                size: 8,
            },
            6 | 7 => Inst::Store {
                src: Reg(rng.below(8) as u8),
                mem,
                size: 8,
            },
            8 => Inst::HmovLoad {
                region: 6,
                dst: Reg(rng.below(8) as u8),
                mem: hmov,
                size: 8,
            },
            9 => Inst::HmovStore {
                region: 6,
                src: Reg(rng.below(8) as u8),
                mem: hmov,
                size: 8,
            },
            10 => Inst::Branch {
                cond: *rng.pick(&CONDS),
                a: Reg(rng.below(8) as u8),
                b: Reg(rng.below(8) as u8),
                target,
            },
            11 => Inst::BranchI {
                cond: *rng.pick(&CONDS),
                a: Reg(rng.below(8) as u8),
                imm: rng.range_i64(-4, 4),
                target,
            },
            12 => Inst::Jump { target },
            13 => match rng.below(4) {
                0 => Inst::HfiExit,
                1 => Inst::HfiReenter,
                2 => Inst::HfiClearRegion { slot: 6 },
                _ => Inst::HfiClearAllRegions,
            },
            _ => Inst::Nop,
        };
        insts.push(inst);
    }
    insts.push(Inst::Halt);
    Arc::new(Program::new(insts, CODE_BASE as u64))
}

/// `program` with its final `halt` turned into a jump back to the top
/// of its body, which starts at `body`: it runs until it faults or its
/// budget runs out.
fn looping(program: &Program, body: usize) -> Arc<Program> {
    let mut insts: Vec<Inst> = program.iter().cloned().collect();
    let last = insts.last_mut().expect("a program ends in halt");
    assert_eq!(*last, Inst::Halt);
    *last = Inst::Jump { target: body };
    Arc::new(Program::new(insts, program.pc_of(0)))
}

/// Runs `functional` on the per-op reference loop when `per_op`, on the
/// block-stepped loop otherwise, and returns the full result plus the
/// final contents of every memory window the random programs can touch.
fn run_capture(
    mut functional: Functional,
    per_op: bool,
    limit: u64,
) -> (FunctionalResult, Vec<u8>) {
    let result = if per_op {
        functional.run_reference(limit)
    } else {
        functional.run(limit)
    };
    (result, memory_image(&functional))
}

/// The final contents of every memory window the random programs can
/// touch.
fn memory_image(functional: &Functional) -> Vec<u8> {
    let mut image = functional.mem.read_bytes(0x2_0000, 0x1_0000);
    image.extend(functional.mem.read_bytes(0x10_0000, 0x1_0000));
    image
}

/// Runs `functional` as the serving tier runs a request whose deadline
/// never passes: up to `k` runs of `period` steps, on the reference loop
/// when `per_op`, stopping early on any stop other than
/// [`Stop::CycleLimit`]. Returns the last run's result and the memory.
fn run_sliced(
    functional: &mut Functional,
    per_op: bool,
    period: u64,
    k: u64,
) -> (FunctionalResult, Vec<u8>) {
    let mut result = None;
    for _ in 0..k {
        let slice = if per_op {
            functional.run_reference(period)
        } else {
            functional.run(period)
        };
        let done = slice.stop != Stop::CycleLimit;
        result = Some(slice);
        if done {
            break;
        }
    }
    let result = result.expect("at least one run");
    (result, memory_image(functional))
}

/// Runs `program` on the requested loop with a deterministic setup.
fn run_path(program: &Arc<Program>, per_op: bool, limit: u64) -> (FunctionalResult, Vec<u8>) {
    run_capture(Functional::new(Arc::clone(program)), per_op, limit)
}

#[test]
fn fused_and_unfused_agree_on_random_runnable_programs() {
    let mut rng = Rng::new(0xF05ED);
    for case in 0..48 {
        let program = random_runnable(&mut rng);
        let (per_op, mem_per_op) = run_path(&program, true, 50_000_000);
        let (blocks, mem_blocks) = run_path(&program, false, 50_000_000);
        assert_eq!(per_op, blocks, "case {case}: results diverged");
        assert_eq!(mem_per_op, mem_blocks, "case {case}: memory diverged");
    }
}

#[test]
fn fused_and_unfused_agree_on_random_guarded_programs() {
    let mut rng = Rng::new(0x6A4DED);
    let mut faulted = 0u32;
    let mut halted = 0u32;
    for case in 0..96 {
        let program = random_guarded_runnable(&mut rng);
        let (per_op, mem_per_op) = run_path(&program, true, 200_000);
        let (blocks, mem_blocks) = run_path(&program, false, 200_000);
        assert_eq!(per_op, blocks, "case {case}: results diverged");
        assert_eq!(mem_per_op, mem_blocks, "case {case}: memory diverged");
        match per_op.stop {
            Stop::Fault(_) => faulted += 1,
            Stop::Halted => halted += 1,
            _ => {}
        }
    }
    // The corpus must actually exercise both the guarded fast paths and
    // the fault paths, or the differential above proves nothing.
    assert!(halted > 0, "no guarded program ran to completion");
    assert!(faulted > 0, "no guarded program faulted");
}

/// Fault redirects: with a signal handler installed, a fault re-enters
/// the program at the handler's instruction index — which is rarely a
/// block leader, so the block loop must take its mid-block entry. Both
/// paths must agree on everything that follows.
#[test]
fn fused_and_unfused_agree_under_fault_handler_redirects() {
    let mut rng = Rng::new(0x51663);
    let mut redirected = 0u32;
    for case in 0..48 {
        let program = random_guarded_runnable(&mut rng);
        let handler_idx = rng.below(program.len() as u64) as usize;
        let handler = program.pc_of(handler_idx);
        let run = |per_op: bool| {
            let mut functional = Functional::new(Arc::clone(&program));
            functional.signal_handler = Some(handler);
            run_capture(functional, per_op, 100_000)
        };
        let (per_op, mem_per_op) = run(true);
        let (blocks, mem_blocks) = run(false);
        assert_eq!(per_op, blocks, "case {case}: results diverged");
        assert_eq!(mem_per_op, mem_blocks, "case {case}: memory diverged");
        if per_op.stats.faults > 0 {
            redirected += 1;
        }
    }
    assert!(redirected > 0, "no run ever took the handler redirect");
}

/// Every verifyset kernel, under every Fig. 3 isolation scheme, plus the
/// FaaS suite: the block-stepped loop must produce the per-op reference
/// loop's architectural record — same exit state, same counters
/// (retired, memory accesses, checks, faults), same modelled cycles —
/// and the same registers and heap.
#[test]
fn fused_and_unfused_agree_on_every_verifyset_kernel() {
    use hfi_repro::hfi_bench::{compile_cached, FIG3_SCHEMES, FUNCTIONAL_LIMIT};
    use hfi_repro::hfi_wasm::compiler::CompileOptions;
    use hfi_repro::hfi_wasm::kernels::{faas, sightglass, speclike};

    let mut kernels = sightglass::suite(1);
    kernels.extend(speclike::suite(1));
    kernels.extend(faas::suite(1));
    for kernel in &kernels {
        for iso in FIG3_SCHEMES {
            let opts = CompileOptions::new(iso);
            let compiled = compile_cached(kernel, &opts);
            let run = |per_op: bool| {
                let mut functional = Functional::new(Arc::clone(&compiled.program));
                for (off, bytes) in &kernel.heap_init {
                    functional
                        .mem
                        .write_bytes(opts.heap_base + *off as u64, bytes);
                }
                let result = if per_op {
                    functional.run_reference(FUNCTIONAL_LIMIT)
                } else {
                    functional.run(FUNCTIONAL_LIMIT)
                };
                let heap = functional.mem.read_bytes(opts.heap_base, 1 << 16);
                (result, heap)
            };
            let blocks = run(false);
            assert_eq!(blocks.0.stop, Stop::Halted, "{} under {iso:?}", kernel.name);
            assert_eq!(blocks.0.regs[0], kernel.expected, "{}", kernel.name);
            assert!(
                run(true) == blocks,
                "{} under {iso:?}: results, registers or heap diverged",
                kernel.name
            );
        }
    }
}

/// The chaos seam: a passive recording hook sees one retire event per
/// retired op — and its presence changes nothing: the observed run's
/// result and memory equal the unhooked run's.
#[test]
fn fused_and_unfused_emit_identical_event_traces_when_observed() {
    use hfi_repro::hfi_sim::{ArchEvent, ChaosHook};
    use std::sync::{Arc as SyncArc, Mutex};

    struct Recorder(SyncArc<Mutex<Vec<ArchEvent>>>);
    impl ChaosHook for Recorder {
        fn observe(&mut self, event: &ArchEvent) {
            self.0.lock().expect("recorder unpoisoned").push(*event);
        }
    }

    let mut rng = Rng::new(0x7ACE);
    for case in 0..24 {
        let program = random_guarded_runnable(&mut rng);
        let events = SyncArc::new(Mutex::new(Vec::new()));
        let mut observed = Functional::new(Arc::clone(&program));
        observed.set_chaos(Box::new(Recorder(SyncArc::clone(&events))));
        let (observed, mem_observed) = run_capture(observed, false, 100_000);
        let (blocks, mem_blocks) = run_path(&program, false, 100_000);
        assert_eq!(observed, blocks, "case {case}: observed results diverged");
        assert_eq!(mem_observed, mem_blocks, "case {case}: memory diverged");
        let trace = events.lock().expect("recorder unpoisoned");
        let retires = trace
            .iter()
            .filter(|e| matches!(e, ArchEvent::Retire { .. }))
            .count() as u64;
        assert_eq!(
            retires, observed.stats.retired,
            "case {case}: the hook must see every retired op"
        );
    }
}

/// Budgets that run out inside a block: the block loop must hand the
/// block's tail to the per-op step op by op and stop exactly where the
/// reference loop stops.
#[test]
fn block_loop_matches_per_op_path_when_the_budget_ends_mid_block() {
    let mut rng = Rng::new(0xB0D6E7);
    let mut mid_block = 0u32;
    for case in 0..32 {
        let program = if case % 2 == 0 {
            random_runnable(&mut rng)
        } else {
            random_guarded_runnable(&mut rng)
        };
        let full = run_path(&program, true, 200_000).0.stats.retired;
        for _ in 0..8 {
            let limit = rng.range_u64(1, full.max(1) + 2);
            let (per_op, mem_per_op) = run_path(&program, true, limit);
            let (blocks, mem_blocks) = run_path(&program, false, limit);
            assert_eq!(
                per_op, blocks,
                "case {case} limit {limit}: results diverged"
            );
            assert_eq!(mem_per_op, mem_blocks, "case {case} limit {limit}: memory");
            mid_block += u32::from(per_op.stop == Stop::CycleLimit);
        }
    }
    assert!(mid_block > 0, "no budget ever ran out");
}

/// Handler redirects aimed at mid-block ops only, with faults that
/// recur: every redirect is a mid-block entry for the block loop.
#[test]
fn block_loop_matches_per_op_path_at_mid_block_handler_entries() {
    let mut rng = Rng::new(0x3A1D);
    let mut entered = 0u32;
    for case in 0..48 {
        let program = random_guarded_runnable(&mut rng);
        let plan = program.plan();
        let mid: Vec<usize> = (0..plan.len())
            .filter(|&i| plan.blocks()[plan.block_of(i)].start as usize != i)
            .collect();
        let Some(&handler_idx) = mid.get(rng.below(mid.len().max(1) as u64) as usize) else {
            continue;
        };
        let run = |per_op: bool| {
            let mut functional = Functional::new(Arc::clone(&program));
            functional.signal_handler = Some(program.pc_of(handler_idx));
            run_capture(functional, per_op, 50_000)
        };
        let (per_op, mem_per_op) = run(true);
        let (blocks, mem_blocks) = run(false);
        assert_eq!(per_op, blocks, "case {case}: results diverged");
        assert_eq!(mem_per_op, mem_blocks, "case {case}: memory diverged");
        entered += u32::from(per_op.stats.faults > 0);
    }
    assert!(entered > 0, "no fault ever redirected to a mid-block op");
}

/// A code region that ends inside a block: the straight-line block
/// straddles the region's last byte at every offset in turn, so the
/// fetch fault lands on a different op each time, sometimes on an op
/// that starts inside the region and ends outside it. The block loop
/// must fault at that exact op with the reference loop's counters.
#[test]
fn block_loop_faults_at_the_exact_op_where_the_code_region_ends() {
    use hfi_repro::hfi_core::region::ImplicitCodeRegion;
    use hfi_repro::hfi_core::HfiFault;
    use hfi_repro::hfi_sim::ProgramBuilder;

    const CODE_BASE: u64 = 0x40_0000;
    let mut faulted_mid_block = 0u32;
    for pad in 0..48 {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFF, true).expect("code");
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.movi(Reg(1), 1);
        for _ in 0..pad {
            asm.nop();
        }
        let top = asm.label_here("top");
        // 60 four-byte ops: the block outlasts the region at every pad.
        for i in 0..60 {
            asm.alu_ri(AluOp::Add, Reg(2 + i % 4), Reg(1), i as i64);
        }
        asm.alu_ri(AluOp::Sub, Reg(1), Reg(1), 1);
        asm.branch_i(Cond::Ne, Reg(1), 0, top);
        asm.halt();
        let program = Arc::new(asm.finish());
        let (per_op, _) = run_path(&program, true, 10_000);
        let (blocks, _) = run_path(&program, false, 10_000);
        assert_eq!(per_op, blocks, "pad {pad}: results diverged");
        let Stop::Fault(HfiFault::CodeBounds { pc }) = per_op.stop else {
            panic!("pad {pad}: expected a fetch fault, got {:?}", per_op.stop);
        };
        let idx = program.index_of_pc(pc).expect("faulting op");
        let plan = program.plan();
        // The faulting op is the one holding the region's first
        // outside byte: every earlier op fits in the region.
        let len = program.inst(idx).encoded_len();
        let first_outside = CODE_BASE + 0x100;
        assert!(
            pc <= first_outside && first_outside < pc + len,
            "pad {pad}: faulted at {pc:#x}+{len}, not at the region's end"
        );
        faulted_mid_block += u32::from(plan.blocks()[plan.block_of(idx)].start as usize != idx);
    }
    assert!(faulted_mid_block > 0, "the region never ended mid-block");
}

/// More pages than the memory's page-translation cache has entries,
/// all mapping to the same entry: every access evicts the last, and
/// both paths must still read back what they wrote.
#[test]
fn block_loop_matches_per_op_path_over_pages_that_alias_in_the_page_cache() {
    use hfi_repro::hfi_sim::ProgramBuilder;

    const PAGES: i64 = 40;
    const STRIDE: i64 = 16 * 4096;
    let mut asm = ProgramBuilder::new(0x1000);
    asm.movi(Reg(1), 0x100_0000);
    asm.movi(Reg(2), PAGES);
    asm.movi(Reg(3), 0);
    let fill = asm.label_here("fill");
    asm.store(Reg(2), MemOperand::base_disp(Reg(1), 8), 8);
    asm.alu_ri(AluOp::Add, Reg(1), Reg(1), STRIDE);
    asm.alu_ri(AluOp::Sub, Reg(2), Reg(2), 1);
    asm.branch_i(Cond::Ne, Reg(2), 0, fill);
    asm.movi(Reg(1), 0x100_0000);
    asm.movi(Reg(2), PAGES);
    let sum = asm.label_here("sum");
    asm.load(Reg(4), MemOperand::base_disp(Reg(1), 8), 8);
    asm.alu(AluOp::Add, Reg(3), Reg(3), Reg(4));
    asm.alu_ri(AluOp::Add, Reg(1), Reg(1), STRIDE);
    asm.alu_ri(AluOp::Sub, Reg(2), Reg(2), 1);
    asm.branch_i(Cond::Ne, Reg(2), 0, sum);
    asm.halt();
    let program = Arc::new(asm.finish());
    let run = |per_op: bool| {
        let mut functional = Functional::new(Arc::clone(&program));
        let result = if per_op {
            functional.run_reference(100_000)
        } else {
            functional.run(100_000)
        };
        let pages = functional.mem.touched_pages();
        (result, pages)
    };
    let (per_op, pages) = run(true);
    assert_eq!(per_op.stop, Stop::Halted);
    assert_eq!(per_op.regs[3], (1..=PAGES as u64).sum::<u64>());
    assert_eq!(pages, PAGES as usize);
    assert_eq!(run(false), (per_op, pages));
}

#[test]
fn functional_and_cycle_agree_on_plan_driven_runs() {
    let mut rng = Rng::new(0xD1FF);
    for case in 0..48 {
        let program = random_runnable(&mut rng);

        let mut machine = Machine::new(Arc::clone(&program));
        let cycle = machine.run(50_000_000);
        assert_eq!(cycle.stop, Stop::Halted, "case {case}: cycle run");

        let mut functional = Functional::new(Arc::clone(&program));
        let func = functional.run(50_000_000);
        assert_eq!(func.stop, Stop::Halted, "case {case}: functional run");

        assert_eq!(
            cycle.regs, func.regs,
            "case {case}: architectural registers diverged"
        );
    }
}

/// A budget given as up to k runs of P steps, stopping early on any
/// stop other than `CycleLimit`, ends exactly where one run of k·P
/// steps ends: same result, counters, f64 cycle bits, registers and
/// memory, on both loops. Looping variants of the random programs run
/// until the budget stops them, so every (P, k) pair with k > 1 resumes
/// runs mid-flight.
#[test]
fn k_runs_of_p_steps_end_where_one_run_of_k_times_p_steps_ends() {
    let mut rng = Rng::new(0xF0E1);
    let mut resumed = 0u32;
    for case in 0..24 {
        let program = match case % 4 {
            0 => random_runnable(&mut rng),
            1 => random_guarded_runnable(&mut rng),
            2 => looping(&random_runnable(&mut rng), RUNNABLE_BODY),
            _ => looping(&random_guarded_runnable(&mut rng), GUARDED_BODY),
        };
        for period in [1u64, 2, 7, 64, 4096] {
            for k in [1u64, 2, 5] {
                for per_op in [false, true] {
                    let at = format!("case {case}, period {period}, k {k}, per_op {per_op}");
                    let mut functional = Functional::new(Arc::clone(&program));
                    let sliced = run_sliced(&mut functional, per_op, period, k);
                    let whole = run_path(&program, per_op, k * period);
                    assert_eq!(sliced, whole, "{at}");
                    assert_eq!(
                        sliced.0.cycles.to_bits(),
                        whole.0.cycles.to_bits(),
                        "{at}: cycle bits"
                    );
                    resumed += u32::from(whole.0.stats.retired > period);
                }
            }
        }
    }
    // A third of the 24 · 15 · 2 runs.
    assert!(resumed >= 240, "too few runs were resumed mid-flight");
}

/// A chaos-hooked run sliced into runs of 7 steps makes the hook calls
/// of one unsliced run of the same budget, in the same order, and ends
/// in the same result and memory, on both loops: under a passive site
/// counter, and under a region-corrupting engine whose injection lands
/// in one of the runs, with its state carried into the runs after it.
#[test]
fn sliced_runs_make_an_unsliced_runs_hook_calls_in_order() {
    use hfi_repro::hfi_chaos::{ChaosEngine, ChaosPlan, FaultClass, SiteCounter};

    let mut rng = Rng::new(0x511CE);
    let mut fired = 0u32;
    for case in 0..16u64 {
        let program = if case % 2 == 0 {
            random_guarded_runnable(&mut rng)
        } else {
            looping(&random_guarded_runnable(&mut rng), GUARDED_BODY)
        };
        for per_op in [false, true] {
            let counters = [SiteCounter::new(), SiteCounter::new()];
            let [whole, sliced] = [false, true].map(|sliced| {
                run_logged_in_slices(&program, counters[sliced as usize].clone(), per_op, sliced)
            });
            assert_eq!(whole, sliced, "case {case}, per_op {per_op}: passive");
            let sites = counters[0].counts().context;
            for trigger in (0..sites).step_by((sites as usize / 4).max(1)) {
                let plan = ChaosPlan {
                    seed: case ^ trigger,
                    class: FaultClass::RegionCorrupt,
                    trigger,
                };
                let engines = [ChaosEngine::new(plan), ChaosEngine::new(plan)];
                let [whole, sliced] = [false, true].map(|sliced| {
                    run_logged_in_slices(&program, engines[sliced as usize].clone(), per_op, sliced)
                });
                let at = format!("case {case}, per_op {per_op}, trigger {trigger}");
                assert_eq!(whole, sliced, "{at}: hook calls diverged");
                fired += u32::from(engines[0].fired().is_some());
            }
        }
    }
    assert!(fired > 0, "no region corruption ever landed");
}

/// Runs `program` under `hook`, logged, for 28,000 steps: in 4,000 runs
/// of 7 steps when `sliced`, else in one run; on the reference loop when
/// `per_op`. Returns the result, the memory, and every hook call in
/// order.
fn run_logged_in_slices(
    program: &Arc<Program>,
    hook: impl hfi_repro::hfi_sim::ChaosHook + 'static,
    per_op: bool,
    sliced: bool,
) -> ((FunctionalResult, Vec<u8>), Vec<HookCall>) {
    const PERIOD: u64 = 7;
    const RUNS: u64 = 4_000;
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut functional = Functional::new(Arc::clone(program));
    functional.set_chaos(Box::new(Logged {
        inner: hook,
        log: Arc::clone(&log),
    }));
    let run = if sliced {
        run_sliced(&mut functional, per_op, PERIOD, RUNS)
    } else {
        run_capture(functional, per_op, PERIOD * RUNS)
    };
    let calls = log.lock().expect("log unpoisoned").clone();
    (run, calls)
}

/// One call a chaos hook received, with its answer.
#[derive(Debug, Clone, PartialEq)]
enum HookCall {
    Ea { pc: u64, ea: u64, out: u64 },
    Result { pc: u64, value: u64, out: u64 },
    Guard { pc: u64, skip: bool },
    Transition { pc: u64, corrupt: bool },
    TransitionCheck { pc: u64, skip: bool },
    Context { changed: bool },
    Event(hfi_repro::hfi_sim::ArchEvent),
}

/// Logs every call to the wrapped hook, in order.
struct Logged<H> {
    inner: H,
    log: Arc<std::sync::Mutex<Vec<HookCall>>>,
}

impl<H: hfi_repro::hfi_sim::ChaosHook> Logged<H> {
    fn push(&self, call: HookCall) {
        self.log.lock().expect("log unpoisoned").push(call);
    }
}

impl<H: hfi_repro::hfi_sim::ChaosHook> hfi_repro::hfi_sim::ChaosHook for Logged<H> {
    fn perturb_ea(&mut self, pc: u64, ea: u64) -> u64 {
        let out = self.inner.perturb_ea(pc, ea);
        self.push(HookCall::Ea { pc, ea, out });
        out
    }

    fn perturb_result(&mut self, pc: u64, value: u64) -> u64 {
        let out = self.inner.perturb_result(pc, value);
        self.push(HookCall::Result { pc, value, out });
        out
    }

    fn skip_guard(&mut self, pc: u64) -> bool {
        let skip = self.inner.skip_guard(pc);
        self.push(HookCall::Guard { pc, skip });
        skip
    }

    fn corrupt_transition(&mut self, pc: u64) -> bool {
        let corrupt = self.inner.corrupt_transition(pc);
        self.push(HookCall::Transition { pc, corrupt });
        corrupt
    }

    fn skip_transition_check(&mut self, pc: u64) -> bool {
        let skip = self.inner.skip_transition_check(pc);
        self.push(HookCall::TransitionCheck { pc, skip });
        skip
    }

    fn corrupt_context(&mut self, hfi: &mut hfi_repro::hfi_core::HfiContext) -> bool {
        let changed = self.inner.corrupt_context(hfi);
        self.push(HookCall::Context { changed });
        changed
    }

    fn observe(&mut self, event: &hfi_repro::hfi_sim::ArchEvent) {
        self.inner.observe(event);
        self.push(HookCall::Event(*event));
    }
}

/// Runs `program` under `hook`, logged, on the reference loop when
/// `per_op`: the result, the memory, and every hook call in order.
fn run_logged(
    program: &Arc<Program>,
    hook: impl hfi_repro::hfi_sim::ChaosHook + 'static,
    per_op: bool,
) -> ((FunctionalResult, Vec<u8>), Vec<HookCall>) {
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut functional = Functional::new(Arc::clone(program));
    functional.set_chaos(Box::new(Logged {
        inner: hook,
        log: Arc::clone(&log),
    }));
    let run = run_capture(functional, per_op, 100_000);
    let calls = log.lock().expect("log unpoisoned").clone();
    (run, calls)
}

/// The observed instance of the block loop makes the per-op reference
/// loop's hook calls — every site, every `ArchEvent`, in the same order
/// — and ends in the same result and memory. Under a passive site
/// counter both loops count the same sites; under a region-corrupting
/// engine a `corrupt_context` that reports a change in the middle of a
/// block must make the block loop leave and re-read the fetch window,
/// or the two loops part at the next fetch check.
#[test]
fn observed_block_loop_makes_the_reference_loops_hook_calls_in_order() {
    use hfi_repro::hfi_chaos::{ChaosEngine, ChaosPlan, FaultClass, SiteCounter};

    let mut rng = Rng::new(0x0B5E);
    let mut corrupted = 0u32;
    let mut parted = 0u32;
    for case in 0..48u64 {
        let program = if case % 2 == 0 {
            random_guarded_runnable(&mut rng)
        } else {
            looping(&random_guarded_runnable(&mut rng), GUARDED_BODY)
        };
        let unhooked = run_path(&program, false, 100_000);
        let counters = [SiteCounter::new(), SiteCounter::new()];
        let [blocks, reference] = [false, true]
            .map(|per_op| run_logged(&program, counters[per_op as usize].clone(), per_op));
        assert_eq!(
            blocks, reference,
            "case {case}: passive hook calls diverged"
        );
        assert_eq!(
            blocks.0, unhooked,
            "case {case}: a passive hook changed the run"
        );
        assert_eq!(counters[0].counts(), counters[1].counts(), "case {case}");
        let sites = counters[0].counts().context;
        for trigger in (0..sites).step_by((sites as usize / 8).max(1)) {
            let plan = ChaosPlan {
                seed: case ^ trigger,
                class: FaultClass::RegionCorrupt,
                trigger,
            };
            let engines = [ChaosEngine::new(plan), ChaosEngine::new(plan)];
            let [blocks, reference] = [false, true]
                .map(|per_op| run_logged(&program, engines[per_op as usize].clone(), per_op));
            assert_eq!(
                blocks, reference,
                "case {case}, trigger {trigger}: hook calls diverged"
            );
            if engines[0].fired().is_some() {
                corrupted += 1;
                parted += u32::from(blocks.0 != unhooked);
            }
        }
    }
    assert!(corrupted > 0, "no region corruption ever landed");
    assert!(parted > 0, "no region corruption ever changed a run");
}
