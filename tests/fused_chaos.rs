//! Chaos reachability on the functional tier's observed block loop.
//!
//! Every run is block-stepped: it checks fetch once per block and keeps
//! its counters in locals. With no hook installed the loop's hook sites
//! are compiled out. The chaos seam's contract is that an installed
//! [`ChaosHook`](hfi_sim::ChaosHook) selects the observed instance of
//! the same loop, which visits every perturbable site (EA computations,
//! result writebacks, guard micro-ops, instruction boundaries) the
//! per-op reference loop does. These tests prove that contract from
//! the outside, on a sandboxed workload whose hot loop is made of the
//! straight-line runs the block loop runs inline:
//!
//! * every functional-tier [`FaultClass`] fires and never produces an
//!   escape;
//! * the deliberately-weakened build still produces a *visible*
//!   escape — the oracle is not blind.
//!
//! The file and test names come from the block-dispatch ("fused") tier
//! whose hooked path these tests first covered.

use std::sync::Arc;

use hfi_chaos::{
    classify, ChaosEngine, ChaosPlan, FaultClass, Rig, ShadowMonitor, SiteCounter, WeakenedEngine,
};
use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion, ImplicitDataRegion};
use hfi_core::{Region, SandboxConfig};
use hfi_sim::isa::MemOperand;
use hfi_sim::{AluOp, Cond, Functional, HmovOperand, Program, ProgramBuilder, Reg, Stop};
use hfi_verify::SandboxSpec;

const CODE_BASE: u64 = 0x40_0000;
const DATA_BASE: u64 = 0x10_0000;
const HEAP_BASE: u64 = 0x100_0000;

/// A sandboxed workload whose hot loop is built from straight-line runs:
/// back-to-back implicitly-checked stores/loads, back-to-back `hmov`
/// accesses, ALU traffic, and a compare+branch loop tail.
fn workload() -> Arc<Program> {
    let mut asm = ProgramBuilder::new(CODE_BASE);
    let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
    let data = ImplicitDataRegion::new(DATA_BASE, 0xFFFF, true, true).unwrap();
    let heap = ExplicitDataRegion::large(HEAP_BASE, 1 << 16, true, true).unwrap();
    // Springboard: marked zeroing ops feeding a declared entry contract,
    // so the prologue carries transition-corrupt sites.
    for r in [6u8, 7, 8] {
        asm.movi(Reg(r), 0);
        asm.mark_last_transition();
    }
    asm.set_contract(hfi_core::TransitionContract {
        zeroed: (1 << 6) | (1 << 7) | (1 << 8),
        stack: None,
    });
    asm.hfi_set_region(0, Region::Code(code));
    asm.hfi_set_region(2, Region::Data(data));
    asm.hfi_set_region(6, Region::Explicit(heap));
    asm.hfi_enter(SandboxConfig::hybrid());
    asm.movi(Reg(0), 0);
    asm.movi(Reg(1), 12);
    asm.movi(Reg(2), DATA_BASE as i64);
    let top = asm.label_here("top");
    // Guarded-access run: four consecutive implicit accesses.
    asm.store(Reg(1), MemOperand::base_disp(Reg(2), 0x40), 8);
    asm.store(Reg(0), MemOperand::base_disp(Reg(2), 0x48), 8);
    asm.load(Reg(3), MemOperand::base_disp(Reg(2), 0x40), 8);
    asm.load(Reg(4), MemOperand::base_disp(Reg(2), 0x48), 8);
    asm.alu(AluOp::Add, Reg(0), Reg(0), Reg(3));
    // Hmov chain: three consecutive explicit accesses.
    asm.hmov_store(0, Reg(0), HmovOperand::disp(0x80), 8);
    asm.hmov_store(0, Reg(3), HmovOperand::disp(0x88), 8);
    asm.hmov_load(0, Reg(5), HmovOperand::disp(0x80), 8);
    asm.alu_ri(AluOp::Sub, Reg(1), Reg(1), 1);
    asm.branch_i(Cond::Ne, Reg(1), 0, top);
    asm.hfi_exit();
    asm.halt();
    Arc::new(asm.finish())
}

fn spec() -> SandboxSpec {
    SandboxSpec::new("functional-chaos")
        .window("data", DATA_BASE, 0x1_0000)
        .window("heap", HEAP_BASE, 1 << 16)
        .slot(
            0,
            Region::Code(ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap()),
        )
}

fn run_hooked(hook: Box<dyn hfi_sim::ChaosHook>) -> Stop {
    let mut functional = Functional::new(workload());
    functional.set_chaos(hook);
    functional.run(1_000_000).stop
}

/// The functional-tier fault classes: the two wrong-path classes only
/// have sites on the cycle machine's speculative front end.
const FUNCTIONAL_CLASSES: [FaultClass; 5] = [
    FaultClass::EaFlip,
    FaultClass::OperandFlip,
    FaultClass::GuardSkip,
    FaultClass::RegionCorrupt,
    FaultClass::TransitionCorrupt,
];

#[test]
fn every_functional_fault_class_still_fires_and_never_escapes_when_fused() {
    // Site counts per class, measured once.
    let counter = SiteCounter::new();
    let monitor = ShadowMonitor::from_spec(&spec());
    let stop = run_hooked(Box::new(Rig::new(counter.clone(), monitor.clone())));
    assert_eq!(stop, Stop::Halted);
    assert!(monitor.report().clean());
    let counts = counter.counts();
    for class in FUNCTIONAL_CLASSES {
        let sites = counts.for_class(class);
        assert!(sites > 0, "{class}: no sites");
        // Spread triggers across the whole run, capped for test runtime.
        let step = (sites / 12).max(1);
        let mut fired = 0u64;
        for trigger in (0..sites).step_by(step as usize) {
            let engine = ChaosEngine::new(ChaosPlan {
                seed: 0xF05E ^ trigger,
                class,
                trigger,
            });
            let monitor = ShadowMonitor::from_spec(&spec());
            run_hooked(Box::new(Rig::new(engine.clone(), monitor.clone())));
            if engine.fired().is_some() {
                fired += 1;
            }
            let verdict = classify(&monitor.report(), false);
            assert!(
                !verdict.is_escape(),
                "{class} trigger {trigger}: ESCAPE after {:?}",
                engine.fired()
            );
        }
        assert!(fired > 0, "{class}: no injection ever fired");
    }
}

#[test]
fn weakened_build_still_escapes_on_the_fused_tier() {
    let counter = SiteCounter::new();
    run_hooked(Box::new(Rig::new(
        counter.clone(),
        ShadowMonitor::from_spec(&spec()),
    )));
    let sites = counter.counts().ea;
    let mut escaped = false;
    'search: for seed in 0..64u64 {
        for trigger in 0..sites {
            let engine = ChaosEngine::new(ChaosPlan {
                seed,
                class: FaultClass::EaFlip,
                trigger,
            });
            let weakened = WeakenedEngine::new(engine);
            let monitor = ShadowMonitor::from_spec(&spec());
            run_hooked(Box::new(Rig::new(weakened, monitor.clone())));
            if classify(&monitor.report(), false).is_escape() {
                escaped = true;
                break 'search;
            }
        }
    }
    assert!(
        escaped,
        "the oracle never reported an escape on the weakened build"
    );
}
