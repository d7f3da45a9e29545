//! # hfi-chaos — runtime fault injection with a fail-closed oracle
//!
//! The static verifier (`hfi-verify`) proves that *programs* cannot
//! escape their sandbox contract. This crate attacks the other half of
//! the trust story: the *mechanism*. HFI's security argument (paper
//! §3.3.2, §4.1) is fail-closed — a transient hardware fault in the
//! datapath (a flipped address bit, a dropped guard micro-op, a
//! corrupted region register) must either be architecturally masked or
//! end in a precise trap; it must never let an out-of-spec access
//! retire silently.
//!
//! The pieces:
//!
//! * [`ChaosPlan`] / [`FaultClass`] — one deterministic, seeded
//!   injection: fault class × trigger site × RNG seed.
//! * [`ChaosEngine`] — a [`ChaosHook`] that performs exactly that
//!   injection through the executors' chaos seam; [`SiteCounter`]
//!   measures how many eligible sites a run has so triggers can be
//!   drawn uniformly; [`WeakenedEngine`] disables every guard to prove
//!   the oracle reports escapes when the mechanism is actually broken.
//! * [`ShadowMonitor`] — the oracle: rebuilds the allowed address set
//!   from the published [`SandboxSpec`](hfi_verify::SandboxSpec)
//!   (never from the — corruptible — live region registers) and checks
//!   every retired access and fetch against it.
//! * [`Rig`] — glues one injector and one monitor into the single
//!   [`ChaosHook`] slot an executor holds.
//! * [`Verdict`] / [`classify`] — folds a run into the campaign's
//!   three-way outcome: fail-closed, benign, or ESCAPE.
//! * [`ServeFaultClass`] / [`PanicHook`] — *serving-level* fault models
//!   (worker death, wedged request, panic-on-dispatch, compile-failure
//!   burst) for the fault-containment soak `chaos_campaign --serve`
//!   drives through the `hfi-serve` scheduler.
//!
//! The `chaos_campaign` binary in `hfi-bench` sweeps the verification
//! target suite × every fault class and enforces zero escapes.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod monitor;
mod plan;
mod serve;

pub use engine::{ChaosEngine, SiteCounter, SiteCounts, WeakenedEngine};
pub use monitor::{MonitorReport, ShadowMonitor, SpecViolation};
pub use plan::{ChaosPlan, FaultClass, Injection};
pub use serve::{silence_injected_panics, PanicHook, ServeFaultClass};

use hfi_core::{HfiContext, HfiFault};
use hfi_sim::{ArchEvent, ChaosHook};

/// One injector plus the shadow monitor, in the executor's single
/// [`ChaosHook`] slot: perturbation calls go to the injector, the
/// architectural event stream goes to both.
///
/// Both halves use shared-state clones, so the caller keeps its own
/// handles and reads them back after the run — no downcasting out of
/// the `Box<dyn ChaosHook>`.
#[derive(Debug, Clone)]
pub struct Rig<I: ChaosHook> {
    /// The perturbing half.
    pub injector: I,
    /// The observing half.
    pub monitor: ShadowMonitor,
}

impl<I: ChaosHook> Rig<I> {
    /// Combines an injector with a monitor.
    pub fn new(injector: I, monitor: ShadowMonitor) -> Self {
        Rig { injector, monitor }
    }
}

impl<I: ChaosHook> ChaosHook for Rig<I> {
    fn perturb_ea(&mut self, pc: u64, ea: u64) -> u64 {
        self.injector.perturb_ea(pc, ea)
    }

    fn perturb_result(&mut self, pc: u64, value: u64) -> u64 {
        self.injector.perturb_result(pc, value)
    }

    fn skip_guard(&mut self, pc: u64) -> bool {
        self.injector.skip_guard(pc)
    }

    fn flip_prediction(&mut self, pc: u64) -> bool {
        self.injector.flip_prediction(pc)
    }

    fn corrupt_context(&mut self, hfi: &mut HfiContext) -> bool {
        self.injector.corrupt_context(hfi)
    }

    fn corrupt_transition(&mut self, pc: u64) -> bool {
        self.injector.corrupt_transition(pc)
    }

    fn skip_transition_check(&mut self, pc: u64) -> bool {
        self.injector.skip_transition_check(pc)
    }

    fn clobber_predictors(&mut self) -> bool {
        self.injector.clobber_predictors()
    }

    fn observe(&mut self, event: &ArchEvent) {
        self.monitor.observe(event);
        self.injector.observe(event);
    }
}

/// The three-way outcome of one injected run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The fault was caught: a precise [`HfiFault`] trap was delivered
    /// and no out-of-spec access retired first. This is the designed
    /// response (§3.3.2).
    FailClosed {
        /// The delivered fault (exit-reason MSR contents).
        fault: HfiFault,
    },
    /// The fault was architecturally masked: no trap, no out-of-spec
    /// access. `identical` is true when the run's full counter surface
    /// is bit-identical to the uninjected baseline (expected for the
    /// purely microarchitectural classes).
    Benign {
        /// Counters bit-identical to the baseline run.
        identical: bool,
    },
    /// **Security failure**: at least one out-of-spec access retired
    /// silently. The campaign treats any escape as fatal.
    Escape {
        /// How many violations the monitor recorded (capped at
        /// [`ShadowMonitor::MAX_VIOLATIONS`]).
        violations: usize,
    },
}

impl Verdict {
    /// Stable label for telemetry and matrices.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::FailClosed { .. } => "fail-closed",
            Verdict::Benign { identical: true } => "benign-identical",
            Verdict::Benign { identical: false } => "benign-divergent",
            Verdict::Escape { .. } => "ESCAPE",
        }
    }

    /// True for [`Verdict::Escape`].
    pub fn is_escape(&self) -> bool {
        matches!(self, Verdict::Escape { .. })
    }
}

/// Folds one run's monitor report into a [`Verdict`]. `identical` is
/// the caller's comparison of the run's counters against the uninjected
/// baseline ([`RunRecord`](hfi_sim::RunRecord)'s `PartialEq` already
/// ignores host-timing fields).
pub fn classify(report: &MonitorReport, identical: bool) -> Verdict {
    if !report.clean() {
        Verdict::Escape {
            violations: report.violations.len(),
        }
    } else if let Some((_, fault)) = report.trap {
        Verdict::FailClosed { fault }
    } else {
        Verdict::Benign { identical }
    }
}

/// Compile-time witnesses that every hook in this crate is `Send`
/// (required by `ChaosHook: Send` and by `chaos_campaign --serve`,
/// which boxes hooks into requests that cross the serving scheduler's
/// shard workers).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SiteCounter>();
    assert_send::<ChaosEngine>();
    assert_send::<WeakenedEngine>();
    assert_send::<ShadowMonitor>();
    assert_send::<Rig<ChaosEngine>>();
    assert_send::<PanicHook>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion, ImplicitDataRegion};
    use hfi_core::{Access, Region, SandboxConfig};
    use hfi_sim::isa::MemOperand;
    use hfi_sim::{AluOp, Cond, Functional, HmovOperand, Machine, ProgramBuilder, Reg, Stop};
    use hfi_verify::SandboxSpec;

    const CODE_BASE: u64 = 0x40_0000;
    const DATA_BASE: u64 = 0x10_0000;
    const HEAP_BASE: u64 = 0x100_0000;

    /// A sandboxed program: stores then loads inside the implicit data
    /// region, does an `hmov` store into the explicit heap region, and
    /// exits cleanly.
    fn sandboxed_program() -> ProgramBuilder {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let data = ImplicitDataRegion::new(DATA_BASE, 0xFFFF, true, true).unwrap();
        let heap = ExplicitDataRegion::large(HEAP_BASE, 1 << 16, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(2, Region::Data(data));
        asm.hfi_set_region(6, Region::Explicit(heap));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.movi(Reg(0), 0);
        asm.movi(Reg(1), 16);
        asm.movi(Reg(2), DATA_BASE as i64);
        let top = asm.label_here("top");
        asm.store(Reg(1), MemOperand::base_disp(Reg(2), 0x40), 8);
        asm.load(Reg(3), MemOperand::base_disp(Reg(2), 0x40), 8);
        asm.alu(AluOp::Add, Reg(0), Reg(0), Reg(3));
        asm.hmov_store(0, Reg(0), HmovOperand::disp(0x80), 8);
        asm.alu_ri(AluOp::Sub, Reg(1), Reg(1), 1);
        asm.branch_i(Cond::Ne, Reg(1), 0, top);
        asm.hfi_exit();
        asm.halt();
        asm
    }

    /// A sandboxed program with a declared springboard: three marked
    /// zeroing ops feeding the entry contract, then a store/load pair
    /// whose address flows through one of the scrubbed registers — the
    /// state a corrupted springboard would leak through.
    fn springboard_program() -> ProgramBuilder {
        springboard_zeroing(&[3, 4, 5])
    }

    /// The springboard workload, zeroing only `regs` of the three
    /// registers its contract declares zeroed.
    fn springboard_zeroing(regs: &[u8]) -> ProgramBuilder {
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let data = ImplicitDataRegion::new(DATA_BASE, 0xFFFF, true, true).unwrap();
        let heap = ExplicitDataRegion::large(HEAP_BASE, 1 << 16, true, true).unwrap();
        for &r in regs {
            asm.movi(Reg(r), 0);
            asm.mark_last_transition();
        }
        asm.set_contract(hfi_core::TransitionContract {
            zeroed: (1 << 3) | (1 << 4) | (1 << 5),
            stack: None,
        });
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(2, Region::Data(data));
        asm.hfi_set_region(6, Region::Explicit(heap));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.movi(Reg(1), 42);
        // Address = DATA_BASE + 0x40 + r4; the springboard guarantees
        // r4 == 0 here, so honest runs stay in the data window.
        asm.movi(Reg(2), DATA_BASE as i64);
        asm.alu(AluOp::Add, Reg(2), Reg(2), Reg(4));
        asm.store(Reg(1), MemOperand::base_disp(Reg(2), 0x40), 8);
        asm.load(Reg(3), MemOperand::base_disp(Reg(2), 0x40), 8);
        asm.hfi_exit();
        asm.halt();
        asm
    }

    fn spec() -> SandboxSpec {
        SandboxSpec::new("chaos-test")
            .window("data", DATA_BASE, 0x1_0000)
            .window("heap", HEAP_BASE, 1 << 16)
            .slot(
                0,
                Region::Code(ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap()),
            )
    }

    fn run_machine(hook: Box<dyn hfi_sim::ChaosHook>) -> Stop {
        let mut machine = Machine::new(sandboxed_program().finish());
        machine.set_chaos(hook);
        machine.run(1_000_000).stop
    }

    fn run_functional(hook: Box<dyn hfi_sim::ChaosHook>) -> Stop {
        let mut functional = Functional::new(std::sync::Arc::new(sandboxed_program().finish()));
        functional.set_chaos(hook);
        functional.run(1_000_000).stop
    }

    #[test]
    fn baseline_is_clean_on_both_executors() {
        for runner in [run_machine, run_functional] {
            let counter = SiteCounter::new();
            let monitor = ShadowMonitor::from_spec(&spec());
            let stop = runner(Box::new(Rig::new(counter.clone(), monitor.clone())));
            assert_eq!(stop, Stop::Halted);
            let report = monitor.report();
            assert!(report.clean(), "baseline violations: {report:?}");
            assert!(report.trap.is_none());
            assert!(report.checked_accesses > 0);
            let counts = counter.counts();
            assert!(counts.ea > 0);
            assert!(counts.result > 0);
            assert!(counts.guard > 0);
            assert!(counts.context > 0);
        }
    }

    #[test]
    fn every_seeded_ea_flip_fails_closed_or_is_benign() {
        // Sweep triggers exhaustively on the functional executor: every
        // flipped address either still lands in spec (benign) or traps.
        let counter = SiteCounter::new();
        let monitor = ShadowMonitor::from_spec(&spec());
        run_functional(Box::new(Rig::new(counter.clone(), monitor)));
        let sites = counter.counts().ea;
        assert!(sites > 0);
        let mut trapped = 0;
        for trigger in 0..sites {
            let plan = ChaosPlan {
                seed: 0x5EED ^ trigger,
                class: FaultClass::EaFlip,
                trigger,
            };
            let engine = ChaosEngine::new(plan);
            let monitor = ShadowMonitor::from_spec(&spec());
            run_functional(Box::new(Rig::new(engine.clone(), monitor.clone())));
            let report = monitor.report();
            let verdict = classify(&report, false);
            assert!(
                !verdict.is_escape(),
                "trigger {trigger}: escape {report:?} after {:?}",
                engine.fired()
            );
            if matches!(verdict, Verdict::FailClosed { .. }) {
                trapped += 1;
            }
        }
        assert!(trapped > 0, "no EA flip ever trapped across {sites} sites");
    }

    #[test]
    fn guard_skip_alone_never_escapes_with_honest_addresses() {
        // Dropping a guard on an in-spec access changes nothing the
        // monitor can see: the access was legal anyway.
        let counter = SiteCounter::new();
        run_functional(Box::new(Rig::new(
            counter.clone(),
            ShadowMonitor::from_spec(&spec()),
        )));
        for trigger in 0..counter.counts().guard {
            let engine = ChaosEngine::new(ChaosPlan {
                seed: 7,
                class: FaultClass::GuardSkip,
                trigger,
            });
            let monitor = ShadowMonitor::from_spec(&spec());
            let stop = run_functional(Box::new(Rig::new(engine, monitor.clone())));
            assert_eq!(stop, Stop::Halted);
            assert!(monitor.report().clean());
        }
    }

    #[test]
    fn weakened_build_produces_a_visible_escape() {
        // Guards disabled + an EA flip that lands outside the spec: the
        // monitor must flag the silently-retired access. Sweep seeds
        // until one flip actually leaves the windows (a flip can land
        // in-spec; the campaign does the same search).
        let counter = SiteCounter::new();
        run_functional(Box::new(Rig::new(
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
                run_functional(Box::new(Rig::new(weakened, monitor.clone())));
                if classify(&monitor.report(), false).is_escape() {
                    escaped = true;
                    break 'search;
                }
            }
        }
        assert!(
            escaped,
            "oracle never reported an escape on the weakened build"
        );
    }

    #[test]
    fn region_corrupt_on_machine_fails_closed_or_benign() {
        let counter = SiteCounter::new();
        let base_monitor = ShadowMonitor::from_spec(&spec());
        run_machine(Box::new(Rig::new(counter.clone(), base_monitor)));
        let sites = counter.counts().context;
        assert!(sites > 0);
        let step = (sites / 16).max(1);
        for trigger in (0..sites).step_by(step as usize) {
            let engine = ChaosEngine::new(ChaosPlan {
                seed: 0xC0FFEE ^ trigger,
                class: FaultClass::RegionCorrupt,
                trigger,
            });
            let monitor = ShadowMonitor::from_spec(&spec());
            run_machine(Box::new(Rig::new(engine.clone(), monitor.clone())));
            let verdict = classify(&monitor.report(), false);
            assert!(
                !verdict.is_escape(),
                "trigger {trigger}: {:?} escaped after {:?}",
                monitor.report(),
                engine.fired()
            );
        }
    }

    #[test]
    fn wrong_path_and_predictor_clobber_are_architecturally_invisible() {
        // Forced mispredictions and predictor clobbers may cost cycles
        // but must not change any architectural outcome.
        let monitor = ShadowMonitor::from_spec(&spec());
        let stop = run_machine(Box::new(Rig::new(SiteCounter::new(), monitor.clone())));
        assert_eq!(stop, Stop::Halted);
        for class in [FaultClass::WrongPath, FaultClass::PredictorClobber] {
            for trigger in [0, 3, 11] {
                let engine = ChaosEngine::new(ChaosPlan {
                    seed: 3,
                    class,
                    trigger,
                });
                let monitor = ShadowMonitor::from_spec(&spec());
                let stop = run_machine(Box::new(Rig::new(engine, monitor.clone())));
                assert_eq!(stop, Stop::Halted, "{class} trigger {trigger}");
                let report = monitor.report();
                assert!(report.clean() && report.trap.is_none());
            }
        }
    }

    #[test]
    fn transition_corrupt_fails_closed_on_both_executors() {
        // Corrupting any springboard zeroing op breaks the declared
        // entry contract; the `hfi_enter` assertion must trap before
        // the sandbox observes the leaked value.
        for trigger in 0..3u64 {
            let engine = ChaosEngine::new(ChaosPlan {
                seed: 11 ^ trigger,
                class: FaultClass::TransitionCorrupt,
                trigger,
            });
            let monitor = ShadowMonitor::from_spec(&spec());
            let stop = {
                let mut functional = Functional::new(springboard_program().finish());
                functional.set_chaos(Box::new(Rig::new(engine.clone(), monitor.clone())));
                functional.run(1_000_000).stop
            };
            assert!(engine.fired().is_some(), "trigger {trigger} never fired");
            assert!(
                matches!(stop, Stop::Fault(HfiFault::TransitionContract { .. })),
                "trigger {trigger}: expected contract trap, got {stop:?}"
            );
            let verdict = classify(&monitor.report(), false);
            assert!(
                matches!(verdict, Verdict::FailClosed { .. }),
                "trigger {trigger}: {verdict:?}"
            );
        }
        // The same trap with no injection, from a springboard that skips
        // a declared zeroing: the block-stepped loop and the per-op
        // reference loop must stop identically, with identical registers
        // and memory.
        let leaky = std::sync::Arc::new(springboard_zeroing(&[3, 5]).finish());
        let run = |per_op: bool| {
            let mut functional = Functional::new(std::sync::Arc::clone(&leaky));
            functional.set_reg(Reg(4), 0xDEAD);
            let result = if per_op {
                functional.run_reference(1_000_000)
            } else {
                functional.run(1_000_000)
            };
            (result, functional.mem.read_bytes(DATA_BASE, 0x100))
        };
        let fast = run(false);
        assert!(
            matches!(
                fast.0.stop,
                Stop::Fault(HfiFault::TransitionContract { .. })
            ),
            "expected contract trap, got {:?}",
            fast.0.stop
        );
        assert_eq!(fast, run(true));
        // Same sweep on the cycle machine.
        for trigger in 0..3u64 {
            let engine = ChaosEngine::new(ChaosPlan {
                seed: 13 ^ trigger,
                class: FaultClass::TransitionCorrupt,
                trigger,
            });
            let monitor = ShadowMonitor::from_spec(&spec());
            let mut machine = Machine::new(springboard_program().finish());
            machine.set_chaos(Box::new(Rig::new(engine.clone(), monitor.clone())));
            let stop = machine.run(1_000_000).stop;
            assert!(
                matches!(stop, Stop::Fault(HfiFault::TransitionContract { .. })),
                "cycle trigger {trigger}: expected contract trap, got {stop:?}"
            );
            assert!(matches!(
                classify(&monitor.report(), false),
                Verdict::FailClosed { .. }
            ));
        }
    }

    #[test]
    fn machine_site_totals_with_loads_stalled_behind_stores_are_pinned() {
        // Campaign trigger indices number the sites a baseline run
        // visits. A plain load stalled behind an older store parks on
        // that store, hooked or not, and offers its EA site again only
        // when it is dispatched again: once per dispatch, not once per
        // stalled cycle. The totals pin that, and the hooked run must
        // take the unhooked run's pipeline path cycle for cycle.
        let mut asm = ProgramBuilder::new(CODE_BASE);
        let code = ImplicitCodeRegion::new(CODE_BASE, 0xFFFF, true).unwrap();
        let data = ImplicitDataRegion::new(DATA_BASE, 0xFFFF, true, true).unwrap();
        let heap = ExplicitDataRegion::large(HEAP_BASE, 1 << 16, true, true).unwrap();
        asm.hfi_set_region(0, Region::Code(code));
        asm.hfi_set_region(2, Region::Data(data));
        asm.hfi_set_region(6, Region::Explicit(heap));
        asm.hfi_enter(SandboxConfig::hybrid());
        asm.movi(Reg(0), 0);
        asm.movi(Reg(1), DATA_BASE as i64);
        asm.movi(Reg(3), 4);
        let top = asm.label_here("top");
        // A cold load yields the store's address; the loads behind the
        // store stall until it resolves.
        asm.load(Reg(2), MemOperand::base_disp(Reg(1), 0), 8);
        asm.store(Reg(3), MemOperand::base_disp(Reg(2), 0), 8);
        asm.load(Reg(4), MemOperand::base_disp(Reg(1), 0x40), 8);
        asm.hmov_load(0, Reg(5), HmovOperand::disp(0x40), 8);
        asm.alu(AluOp::Add, Reg(0), Reg(0), Reg(4));
        asm.alu(AluOp::Add, Reg(0), Reg(0), Reg(5));
        asm.alu_ri(AluOp::Add, Reg(1), Reg(1), 0x800);
        asm.alu_ri(AluOp::Sub, Reg(3), Reg(3), 1);
        asm.branch_i(Cond::Ne, Reg(3), 0, top);
        asm.hfi_exit();
        asm.halt();
        let program = std::sync::Arc::new(asm.finish());
        let machine = || {
            let mut machine = Machine::new(std::sync::Arc::clone(&program));
            for it in 0..4u64 {
                let row = DATA_BASE + it * 0x800;
                machine.mem.write(row, DATA_BASE + 0x8000 + it * 8, 8);
                machine.mem.write(row + 0x40, it, 8);
            }
            machine.mem.write(HEAP_BASE + 0x40, 10, 8);
            machine
        };
        let unhooked = machine().run(1_000_000);
        let mut hooked = machine();
        let counter = SiteCounter::new();
        hooked.set_chaos(Box::new(counter.clone()));
        let result = hooked.run(1_000_000);
        assert_eq!(result.stop, Stop::Halted);
        assert_eq!(result.regs[0], 6 + 4 * 10);
        assert_eq!(result.stats, unhooked.stats);
        assert_eq!(result.cycles, unhooked.cycles);
        assert_eq!(
            counter.counts(),
            SiteCounts {
                ea: 23,
                result: 45,
                guard: 16,
                transition: 0,
                branch: 4,
                context: 45,
                predictor: 45,
            }
        );
    }

    #[test]
    fn weakened_transition_corrupt_escapes() {
        // With the entry assertion and guards disabled, the junk value
        // walks into the sandbox, the store retires out of every spec
        // window, and the oracle must call it an escape.
        let engine = ChaosEngine::new(ChaosPlan {
            seed: 5,
            class: FaultClass::TransitionCorrupt,
            trigger: 1, // the r4 zeroing op — the one the address uses
        });
        let weakened = WeakenedEngine::new(engine.clone());
        let monitor = ShadowMonitor::from_spec(&spec());
        let mut functional = Functional::new(std::sync::Arc::new(springboard_program().finish()));
        functional.set_chaos(Box::new(Rig::new(weakened, monitor.clone())));
        functional.run(1_000_000);
        assert!(engine.fired().is_some());
        assert!(
            classify(&monitor.report(), false).is_escape(),
            "oracle missed the weakened transition escape: {:?}",
            monitor.report()
        );
    }

    #[test]
    fn monitor_flags_an_out_of_spec_store_directly() {
        struct NoHfi;
        impl hfi_sim::ChaosHook for NoHfi {}
        // A sandboxed store outside every window, observed through a
        // narrower spec than the installed regions: pure monitor test.
        let narrow = SandboxSpec::new("narrow").window("tiny", DATA_BASE, 0x50);
        let monitor = ShadowMonitor::from_spec(&narrow);
        let mut rig = Rig::new(NoHfi, monitor.clone());
        rig.observe(&ArchEvent::Mem {
            pc: CODE_BASE,
            addr: DATA_BASE + 0x48,
            size: 8,
            access: Access::Write,
            hmov: None,
            sandboxed: true,
        });
        assert!(monitor.report().clean());
        rig.observe(&ArchEvent::Mem {
            pc: CODE_BASE,
            addr: DATA_BASE + 0x49,
            size: 8,
            access: Access::Write,
            hmov: None,
            sandboxed: true,
        });
        let report = monitor.report();
        assert_eq!(report.violations.len(), 1);
        assert!(classify(&report, true).is_escape());
        // Unsandboxed accesses are unrestricted.
        rig.observe(&ArchEvent::Mem {
            pc: 0,
            addr: 0xDEAD_0000,
            size: 8,
            access: Access::Read,
            hmov: None,
            sandboxed: false,
        });
        assert_eq!(monitor.report().violations.len(), 1);
    }

    #[test]
    fn classify_orders_escape_over_trap() {
        let report = MonitorReport {
            violations: vec![SpecViolation {
                pc: 1,
                addr: 2,
                size: 8,
                access: Access::Read,
            }],
            trap: Some((1, HfiFault::PrivilegedInstruction)),
            checked_accesses: 1,
            checked_fetches: 0,
        };
        assert!(classify(&report, false).is_escape());
        let report = MonitorReport {
            trap: Some((1, HfiFault::PrivilegedInstruction)),
            ..Default::default()
        };
        assert_eq!(
            classify(&report, false),
            Verdict::FailClosed {
                fault: HfiFault::PrivilegedInstruction
            }
        );
        assert_eq!(
            classify(&MonitorReport::default(), true).label(),
            "benign-identical"
        );
    }
}
