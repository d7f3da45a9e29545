//! In-place executor resets: a machine that ran, was reset (or pointed
//! at another program) and ran again must be indistinguishable from a
//! new machine.
//!
//! The warm pools (`crates/hfi-serve/src/pool.rs`) reset an instance's
//! executor between leases, and retarget an LRU victim's executor when
//! they recycle its slot, instead of building new ones. This test runs
//! every Fig. 3 cell on the cycle-level `Machine` three ways: on a new
//! machine, on the machine that ran the previous cell retargeted to this
//! one, and on that machine again after a reset. It demands equal
//! `RunResult`s (cycles, `CoreStats`, registers, exit reason), equal
//! `RunRecord`s (every cache, dTLB and predictor counter) and equal
//! memory. Before each reset it installs a chaos hook, a costlier OS
//! model and slower cache latencies, so a reset that kept any of them
//! would show.

use std::sync::Arc;

use hfi_bench::{compile_cached, MACHINE_LIMIT};
use hfi_sim::core::DefaultOs;
use hfi_sim::{ChaosHook, Executor, Machine, ProgramBuilder, Reg, RunRecord, RunResult, Stop};
use hfi_wasm::compiler::{CompileOptions, Isolation};
use hfi_wasm::kernels::{speclike, Kernel};

/// Inverts every predicted branch direction: a hook a reset failed to
/// detach changes the mispredict count of the next run.
struct FlipEveryPrediction;

impl ChaosHook for FlipEveryPrediction {
    fn flip_prediction(&mut self, _pc: u64) -> bool {
        true
    }
}

/// Everything a run leaves that a fresh machine must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: RunResult,
    record: RunRecord,
    memory: Vec<(u64, Vec<u8>)>,
}

fn run(machine: &mut Machine, kernel: &Kernel, heap_base: u64) -> Outcome {
    for (off, bytes) in &kernel.heap_init {
        Executor::prepare(machine, heap_base + *off as u64, bytes);
    }
    let result = machine.run(MACHINE_LIMIT);
    assert_eq!(result.stop, Stop::Halted, "{} must halt", kernel.name);
    assert_eq!(result.regs[0], kernel.expected, "{} result", kernel.name);
    Outcome {
        result,
        record: Executor::stats(machine),
        memory: machine.mem.snapshot(),
    }
}

/// Installs per-tenant state a reset must undo.
fn dirty(machine: &mut Machine) {
    machine.set_chaos(Box::new(FlipEveryPrediction));
    machine.set_os(Box::new(DefaultOs {
        filter_cycles: 10_000,
        serviced: 0,
    }));
    machine.caches.latencies.memory *= 3;
    machine.caches.latencies.tlb_miss += 50;
    machine.signal_handler = Some(0x40);
}

#[test]
fn reset_and_retarget_match_a_new_machine_on_every_fig3_cell() {
    let schemes = [
        Isolation::GuardPages,
        Isolation::BoundsChecks,
        Isolation::Hfi,
    ];
    let mut carried: Option<Machine> = None;
    for kernel in speclike::suite(1) {
        for isolation in schemes {
            let opts = CompileOptions::new(isolation);
            let program = compile_cached(&kernel, &opts).program;
            let cell = format!("{}/{isolation:?}", kernel.name);
            let fresh = run(
                &mut Machine::new(Arc::clone(&program)),
                &kernel,
                opts.heap_base,
            );

            let mut machine = match carried.take() {
                Some(mut machine) => {
                    dirty(&mut machine);
                    machine.retarget(&program);
                    machine
                }
                None => Machine::new(Arc::clone(&program)),
            };
            let retargeted = run(&mut machine, &kernel, opts.heap_base);
            assert!(retargeted == fresh, "{cell}: retargeted machine diverged");

            dirty(&mut machine);
            machine.reset();
            let reset = run(&mut machine, &kernel, opts.heap_base);
            assert!(reset == fresh, "{cell}: reset machine diverged");
            carried = Some(machine);
        }
    }
}

#[test]
fn reset_restores_the_os_model() {
    // Two syscalls that reach the OS model: a costlier model left
    // installed shows in the cycle count.
    let mut asm = ProgramBuilder::new(0x1000);
    for _ in 0..2 {
        asm.movi(Reg(0), 3);
        asm.syscall();
    }
    asm.halt();
    let mut machine = Machine::new(asm.finish());
    let fresh = machine.run(1_000_000);
    assert_eq!(fresh.stop, Stop::Halted);
    assert_eq!(fresh.stats.syscalls_to_os, 2);

    dirty(&mut machine);
    machine.reset();
    assert_eq!(machine.run(1_000_000), fresh);

    machine.reset();
    dirty(&mut machine);
    let dirtied = machine.run(1_000_000);
    assert!(
        dirtied.cycles > fresh.cycles,
        "the installed model costs more"
    );
}
