//! End-to-end checks for the executable transition schemes: every scheme
//! compiles, verifies against its published spec, and computes the same
//! answer on all three executor tiers; the zero-cost scheme carries a
//! machine-checked elision proof; and a corrupted springboard faults at
//! the `hfi_enter` contract assertion on both the functional and cycle
//! executors.

use hfi_core::HfiFault;
use hfi_sim::{Functional, Inst, Machine, Reg, Stop};
use hfi_wasm::ir::{AluOp, Cond};
use hfi_wasm::{
    cheapest_proven_scheme, compile, verify_kernel, CompileOptions, IrBuilder, IrFunction,
    Isolation, TransitionScheme, RESULT_REG,
};

/// A store/load/sum kernel: enough memory traffic to exercise the heap
/// window, no growth or syscalls, so the springboard tax is provably
/// elidable.
fn sum_kernel(n: i64) -> IrFunction {
    let mut b = IrBuilder::new("sum");
    let i = b.vreg();
    let val = b.vreg();
    let addr = b.vreg();
    let acc = b.vreg();
    b.constant(i, 0);
    let w = b.label_here();
    b.bin_i(AluOp::Mul, val, i, 3);
    b.bin_i(AluOp::Mul, addr, i, 8);
    b.store(val, addr, 0, 8);
    b.bin_i(AluOp::Add, i, i, 1);
    b.br_if_i(Cond::LtU, i, n, w);
    b.constant(acc, 0);
    b.constant(i, 0);
    let r = b.label_here();
    b.bin_i(AluOp::Mul, addr, i, 8);
    b.load(val, addr, 0, 8);
    b.bin(AluOp::Add, acc, acc, val);
    b.bin_i(AluOp::Add, i, i, 1);
    b.br_if_i(Cond::LtU, i, n, r);
    b.ret(acc);
    b.finish()
}

/// A kernel whose sandbox body mutates guard state (`memory_grow` lowers
/// to an in-sandbox `hfi_set_region`), defeating the elision proof.
fn growing_kernel() -> IrFunction {
    let mut b = IrBuilder::new("grow");
    let v = b.vreg();
    let addr = b.vreg();
    b.constant(addr, 0);
    b.constant(v, 7);
    b.memory_grow();
    b.store(v, addr, 0, 8);
    b.load(v, addr, 0, 8);
    b.ret(v);
    b.finish()
}

fn expected_sum(n: u64) -> u64 {
    (0..n).map(|i| i * 3).sum()
}

#[test]
fn every_scheme_compiles_and_verifies() {
    let kernel = sum_kernel(24);
    for scheme in TransitionScheme::ALL {
        let compiled = compile(&kernel, &CompileOptions::hfi_with_scheme(scheme));
        assert_eq!(
            compiled.verified(),
            Some(true),
            "{scheme:?} failed verification: {:?}",
            verify_kernel(&compiled).unwrap().err(),
        );
    }
}

#[test]
fn schemes_agree_across_all_three_tiers() {
    let kernel = sum_kernel(24);
    let expected = expected_sum(24);
    for scheme in TransitionScheme::ALL {
        let opts = CompileOptions::hfi_with_scheme(scheme);
        let compiled = compile(&kernel, &opts);

        let mut cycle = Machine::new(compiled.program.clone());
        let r = cycle.run(10_000_000);
        assert_eq!(r.stop, Stop::Halted, "{scheme:?} cycle tier did not halt");
        assert_eq!(r.regs[RESULT_REG.0 as usize], expected, "{scheme:?} cycle");

        let mut func = Functional::new(compiled.program.clone());
        let r = func.run(10_000_000);
        assert_eq!(r.stop, Stop::Halted, "{scheme:?} functional did not halt");
        assert_eq!(
            r.regs[RESULT_REG.0 as usize], expected,
            "{scheme:?} functional"
        );

        // The per-op reference loop must match the block-stepped run
        // exactly: result, counters, memory.
        let mut per_op = Functional::new(compiled.program.clone());
        assert_eq!(
            per_op.run_reference(10_000_000),
            r,
            "{scheme:?} per-op reference loop"
        );
        let heap = |f: &Functional| f.mem.read_bytes(opts.heap_base, 0x1000);
        assert_eq!(heap(&per_op), heap(&func), "{scheme:?} per-op memory");
    }
}

#[test]
fn taxed_schemes_mark_more_transition_ops() {
    let kernel = sum_kernel(8);
    let count = |scheme: TransitionScheme| {
        compile(&kernel, &CompileOptions::hfi_with_scheme(scheme))
            .program
            .transition_ops()
            .len()
    };
    let zero = count(TransitionScheme::ZeroCost);
    let unserialized = count(TransitionScheme::HfiUnserialized);
    let springboard = count(TransitionScheme::FullSpringboard);
    assert_eq!(
        zero, unserialized,
        "elision removes tax ops, not the enter/exit pair"
    );
    assert!(
        springboard > unserialized + 10,
        "springboard must add zeroing + stack switch + fences: {springboard} vs {unserialized}"
    );
}

#[test]
fn zero_cost_carries_an_elision_proof() {
    let kernel = sum_kernel(16);
    let compiled = compile(
        &kernel,
        &CompileOptions::hfi_with_scheme(TransitionScheme::ZeroCost),
    );
    let proof = verify_kernel(&compiled)
        .expect("hfi kernels have specs")
        .expect("zero-cost sum kernel verifies");
    assert!(!proof.transitions.is_empty(), "no transition evidence");
    for evidence in &proof.transitions {
        let elision = evidence
            .elision
            .as_ref()
            .expect("zero-cost evidence must carry an elision proof");
        assert!(
            elision.zeroing_elidable(),
            "springboard registers live into the sandbox: {:04x}",
            elision.live_in
        );
        assert!(
            elision.serialization_elidable(),
            "unexpected serialization blockers: {:?}",
            elision.serialization_blockers
        );
    }
}

#[test]
fn cheapest_proven_scheme_elides_the_tax_for_pure_kernels() {
    let kernel = sum_kernel(12);
    let (scheme, compiled) = cheapest_proven_scheme(&kernel, &CompileOptions::new(Isolation::Hfi))
        .expect("some scheme proves");
    assert_eq!(scheme, TransitionScheme::ZeroCost);
    assert_eq!(compiled.verified(), Some(true));
}

#[test]
fn guard_state_mutation_defeats_the_elision_proof() {
    let kernel = growing_kernel();
    // ZeroCost alone is rejected: the in-sandbox `hfi_set_region` from
    // `memory_grow` is a serialization blocker.
    let zero = compile(
        &kernel,
        &CompileOptions::hfi_with_scheme(TransitionScheme::ZeroCost),
    );
    assert_eq!(zero.verified(), Some(false), "elision wrongly proven");
    // So selection falls back to the cheapest taxed scheme.
    let (scheme, compiled) = cheapest_proven_scheme(&kernel, &CompileOptions::new(Isolation::Hfi))
        .expect("taxed schemes still prove");
    assert_eq!(scheme, TransitionScheme::HfiUnserialized);
    assert_eq!(compiled.verified(), Some(true));
}

#[test]
fn corrupted_springboard_faults_at_entry_on_both_executors() {
    let kernel = sum_kernel(8);
    let compiled = compile(
        &kernel,
        &CompileOptions::hfi_with_scheme(TransitionScheme::FullSpringboard),
    );
    let proof = verify_kernel(&compiled)
        .expect("hfi kernels have specs")
        .expect("springboard kernel verifies");
    let evidence = proof
        .transitions
        .first()
        .expect("springboard kernel has transition evidence");
    let &(reg, def) = evidence
        .zeroing
        .first()
        .expect("springboard evidence names its zeroing defs");

    // Replace the zeroing instruction with a write of attacker-visible
    // junk, keeping the declared contract: the entry assertion must trip.
    let mut insts = compiled.program.insts().to_vec();
    assert!(
        matches!(insts[def as usize], Inst::MovI { dst, imm: 0 } if dst == Reg(reg)),
        "evidence def must name the zeroing movi"
    );
    insts[def as usize] = Inst::MovI {
        dst: Reg(reg),
        imm: 0xDEAD,
    };
    let program = compiled.program.with_insts(insts);

    let mut func = Functional::new(program.clone());
    let r = func.run(10_000_000);
    assert!(
        matches!(r.stop, Stop::Fault(HfiFault::TransitionContract { reg: r }) if r == reg),
        "functional: expected contract fault on r{reg}, got {:?}",
        r.stop
    );

    let mut cycle = Machine::new(program);
    let r = cycle.run(10_000_000);
    assert!(
        matches!(r.stop, Stop::Fault(HfiFault::TransitionContract { reg: r }) if r == reg),
        "cycle: expected contract fault on r{reg}, got {:?}",
        r.stop
    );
}
