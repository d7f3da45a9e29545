//! Property tests over randomly-generated guarded programs.
//!
//! A seeded generator (no wall-clock, fully reproducible) assembles
//! random sandbox programs in the idioms the verifier supports — masked
//! accesses, bounds-compared accesses, checked `hmov`s inside an
//! enter/exit bracket, loops and forward branches — and asserts:
//!
//! 1. every generated program verifies clean against its spec;
//! 2. the A.2 emulation of every HFI-using program translation-validates
//!    against the original;
//! 3. the verifier's independent CFG reconstruction
//!    ([`block_successors`]) agrees with the plan's own block table, and
//!    the plan's static facts (op count, per-op pc from encoded lengths)
//!    agree with the instruction stream.

use std::sync::Arc;

use hfi_core::region::ExplicitDataRegion;
use hfi_core::{Region, SandboxConfig, FIRST_EXPLICIT_SLOT};
use hfi_sim::plan::NO_TARGET;
use hfi_sim::{
    emulate, uses_hfi, AluOp, Cond, HmovOperand, MemOperand, Program, ProgramBuilder, Reg,
};
use hfi_util::rng::Rng;
use hfi_verify::{block_successors, verify_emulation, verify_program, SandboxSpec};

const HEAP_BASE: u64 = 0x1000_0000;
const HEAP_SIZE: u64 = 0x10_0000;
const MASK: i64 = 0xFFF;

fn heap_region() -> Region {
    Region::Explicit(
        ExplicitDataRegion::large(HEAP_BASE, HEAP_SIZE, true, true).expect("valid region"),
    )
}

fn spec(hfi: bool) -> SandboxSpec {
    let s = SandboxSpec::new("random").window("heap", HEAP_BASE, HEAP_SIZE);
    if hfi {
        s.slot(FIRST_EXPLICIT_SLOT as u8, heap_region())
            .require_enter()
            .require_exit()
    } else {
        s
    }
}

/// One random program: a prologue, then a random walk over guarded
/// access / arithmetic / loop / forward-skip gadgets, then an epilogue.
/// Every address register is freshly guarded before each access, so the
/// program is safe by construction.
fn random_program(rng: &mut Rng, hfi: bool) -> Arc<Program> {
    let mut b = ProgramBuilder::new(0x1000);
    let base = Reg(15);
    let addr = Reg(14);
    let val = Reg(3);

    if hfi {
        b.hfi_set_region(FIRST_EXPLICIT_SLOT as u8, heap_region());
        b.hfi_enter(SandboxConfig::hybrid());
    } else {
        b.movi(base, HEAP_BASE as i64);
    }
    b.movi(val, rng.range_i64(0, 1 << 30));

    for _ in 0..rng.range_u64(1, 12) {
        match rng.below(4) {
            // Masked (or hmov-checked) access gadget.
            0 => {
                let scramble = rng.range_i64(1, 1 << 40);
                b.movi(addr, scramble);
                if hfi {
                    let mem = HmovOperand {
                        index: Some(addr),
                        scale: 1,
                        disp: rng.range_i64(0, 64),
                    };
                    b.alu_ri(AluOp::And, addr, addr, MASK);
                    if rng.bool() {
                        b.hmov_load(0, val, mem, 8);
                    } else {
                        b.hmov_store(0, val, mem, 8);
                    }
                } else {
                    let mem = MemOperand {
                        base: Some(base),
                        index: Some(addr),
                        scale: 1,
                        disp: rng.range_i64(0, 64),
                    };
                    b.alu_ri(AluOp::And, addr, addr, MASK);
                    if rng.bool() {
                        b.load(val, mem, 8);
                    } else {
                        b.store(val, mem, 8);
                    }
                }
            }
            // Bounds-compared access gadget (branch to a forward skip).
            1 => {
                let skip = b.label();
                b.movi(addr, rng.range_i64(0, 1 << 40));
                b.branch_i(Cond::GeU, addr, (HEAP_SIZE - 8) as i64, skip);
                if hfi {
                    b.hmov_load(0, val, HmovOperand::disp(0), 8);
                } else {
                    b.load(
                        val,
                        MemOperand {
                            base: Some(base),
                            index: Some(addr),
                            scale: 1,
                            disp: 0,
                        },
                        8,
                    );
                }
                b.place(skip);
            }
            // Bounded counting loop (back-edge the verifier must not
            // learn a bound from).
            2 => {
                let counter = Reg(5);
                b.movi(counter, 0);
                let top = b.label_here("top");
                b.alu_ri(AluOp::Add, val, val, rng.range_i64(1, 9));
                b.alu_ri(AluOp::Add, counter, counter, 1);
                b.branch_i(Cond::LtU, counter, rng.range_i64(2, 17), top);
            }
            // Plain arithmetic scramble.
            _ => {
                let ops = [AluOp::Add, AluOp::Xor, AluOp::Rotl, AluOp::Sub];
                b.alu_ri(*rng.pick(&ops), val, val, rng.range_i64(0, 1 << 20));
            }
        }
    }

    if hfi {
        b.hfi_exit();
    }
    b.halt();
    b.finish_arc()
}

#[test]
fn random_guarded_programs_always_verify() {
    let mut rng = Rng::new(0x5eed_cafe_f00d_0001);
    for case in 0..200 {
        let hfi = rng.bool();
        let program = random_program(&mut rng, hfi);
        let result = verify_program(&program, &spec(hfi));
        assert!(
            result.is_ok(),
            "case {case} (hfi={hfi}) failed: {:#?}\nprogram: {:#?}",
            result.err(),
            program.insts()
        );
    }
}

#[test]
fn emulations_of_random_hfi_programs_validate() {
    let mut rng = Rng::new(0x5eed_cafe_f00d_0002);
    for case in 0..100 {
        let program = random_program(&mut rng, true);
        assert!(uses_hfi(&program), "generator always brackets with hfi");
        let emulated = emulate(&program);
        let result = verify_emulation(&program, &emulated, &spec(true));
        assert!(
            result.is_ok(),
            "case {case} emulation failed validation: {:#?}",
            result.err()
        );
    }
}

#[test]
fn plan_facts_agree_with_the_instruction_stream_and_verifier_cfg() {
    let mut rng = Rng::new(0x5eed_cafe_f00d_0003);
    for _ in 0..100 {
        let hfi = rng.bool();
        let program = random_program(&mut rng, hfi);
        let plan = program.plan();

        // One micro-op per instruction, at the pc the encoded lengths
        // dictate.
        assert_eq!(plan.len(), program.len());
        let mut pc = program.base();
        for i in 0..program.len() {
            assert_eq!(plan.pc(i), pc, "pc of op {i}");
            assert_eq!(program.pc_of(i), pc, "pc_of of inst {i}");
            pc += program.inst(i).encoded_len();
        }

        // The verifier's terminator-derived successor edges agree with
        // the plan's own block table, block by block.
        for (idx, block) in plan.blocks().iter().enumerate() {
            let (fall, taken) = block_successors(plan, idx);
            let table_fall = (block.fall_through != NO_TARGET).then_some(block.fall_through);
            let table_taken = (block.taken != NO_TARGET).then_some(block.taken);
            assert_eq!(fall, table_fall, "fall edge of block {idx}");
            assert_eq!(taken, table_taken, "taken edge of block {idx}");
        }
    }
}
