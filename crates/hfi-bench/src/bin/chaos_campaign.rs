//! `chaos_campaign` — sweep seeded runtime fault injection over the HFI
//! kernel suite and enforce the fail-closed contract.
//!
//! For every HFI-sandboxed kernel the experiments run, the campaign
//! first takes an uninjected **baseline** on the cycle machine with a
//! site counter and the shadow monitor attached (the baseline must
//! halt, return the reference result, and be violation-free — that
//! check is what makes the monitor's silence on injected runs
//! meaningful). It then runs one injected cell per (kernel × fault
//! class × rep): a seeded [`ChaosEngine`] perturbs exactly one site,
//! the [`ShadowMonitor`] replays every retired access against the
//! kernel's published [`SandboxSpec`], and the run is classified
//! fail-closed, benign, or **ESCAPE** (an out-of-spec access retired
//! silently — the one outcome the mechanism promises can never happen,
//! paper §3.3.2/§4.1).
//!
//! The per-class verdict matrix is printed as a Markdown table (CI
//! pastes it into the step summary) followed by a machine-greppable
//! `chaos-verdicts:` line; any escape exits nonzero.
//!
//! `--weaken` deliberately breaks the mechanism (every guard micro-op
//! dropped via [`WeakenedEngine`]) and inverts the acceptance: the
//! sweep must now produce at least one escape, proving the oracle can
//! actually see one. A zero-escape claim from an oracle that cannot
//! fail is worthless; CI runs both modes.
//!
//! `--serve` routes every injected cell through the `hfi-serve`
//! scheduler instead of running it inline: cells become [`Request`]s
//! with the chaos rig attached as the per-run hook, tenants pass the
//! verify-before-admit gate, and instances are *reused* across
//! injections via the warm pool (the pool's release reset must detach
//! the hook and scrub the scribbled state, or a fault would leak into
//! the next tenant's run). Zero escapes by exit code on the served
//! path proves the fail-closed contract survives warm reuse. It serves
//! on the functional tier, where the two speculative fault classes
//! (wrong-path, predictor-clobber) have no sites and are accounted
//! under `no-site`.
//!
//! Cells run under the supervised harness (panic isolation, watchdog,
//! retries) and stream to `chaos.jsonl`; `--resume` skips journaled
//! cells and re-counts their recorded verdicts, so a killed sweep
//! continues without losing (or double-counting) its escape tally.
//! `--smoke` truncates the kernel suite, matching the other binaries.

use std::collections::BTreeMap;
use std::sync::Arc;

use hfi_bench::harness::{CellOutcome, Cli, Flag};
use hfi_bench::{compile_cached, print_table, FUNCTIONAL_LIMIT, MACHINE_LIMIT};
use hfi_chaos::{
    classify, ChaosEngine, ChaosPlan, FaultClass, PanicHook, Rig, ServeFaultClass, ShadowMonitor,
    SiteCounter, SiteCounts, Verdict, WeakenedEngine,
};
use hfi_core::TransitionScheme;
use hfi_serve::{
    AdmitPolicy, Outcome as ServeOutcome, Request, Scheduler, ServeConfig, TenantSpec, Tier,
    WarmPools,
};
use hfi_sim::{
    AluOp, Executor, Functional, Machine, Program, ProgramBuilder, Reg, RunRecord, Stop,
};
use hfi_util::{split_mix64, Rng};
use hfi_verify::SandboxSpec;
use hfi_wasm::compiler::{CompileOptions, Isolation};
use hfi_wasm::kernels::{sightglass, speclike};
use hfi_wasm::sandbox_spec;

/// Which executor carries the injected runs.
#[derive(Clone, Copy, PartialEq)]
enum Vehicle {
    /// The cycle-accurate machine (default).
    Machine,
    /// The functional tier (`--serve`).
    Functional,
}

/// One HFI kernel the campaign perturbs.
struct Target {
    name: String,
    program: Arc<Program>,
    spec: SandboxSpec,
    heap_base: u64,
    heap_init: Vec<(u32, Vec<u8>)>,
    expected: u64,
    verdict: hfi_wasm::compiler::VerifyVerdict,
    vehicle: Vehicle,
}

/// Baseline facts an injected cell is judged against.
#[derive(Clone)]
struct Baseline {
    counts: SiteCounts,
    record: RunRecord,
    /// Cycle budget for injected runs: generous multiple of the
    /// baseline (an operand flip can lengthen loops) but bounded, so a
    /// corruption-induced livelock cannot hang a cell.
    limit: u64,
}

/// Everything one supervised cell needs, self-contained (the grid
/// closure is `'static`).
struct Cell {
    target_idx: usize,
    name: String,
    program: Arc<Program>,
    spec: SandboxSpec,
    heap_base: u64,
    heap_init: Vec<(u32, Vec<u8>)>,
    class: FaultClass,
    rep: u64,
    seed: u64,
    sites: u64,
    baseline: Baseline,
    weaken: bool,
    vehicle: Vehicle,
}

/// One classified injected run.
struct CellResult {
    target_idx: usize,
    name: String,
    class: FaultClass,
    rep: u64,
    seed: u64,
    trigger: u64,
    fired: bool,
    stop: Stop,
    verdict: Verdict,
    record: RunRecord,
    violation: Option<String>,
}

fn load_heap(machine: &mut Machine, heap_base: u64, heap_init: &[(u32, Vec<u8>)]) {
    for (off, bytes) in heap_init {
        machine.prepare(heap_base + *off as u64, bytes);
    }
}

fn targets(smoke: bool, vehicle: Vehicle) -> Vec<Target> {
    let mut kernels = sightglass::suite(1);
    kernels.extend(speclike::suite(1));
    if smoke {
        kernels.truncate(3);
    }
    let opts = CompileOptions::new(Isolation::Hfi);
    let mut targets: Vec<Target> = kernels
        .iter()
        .map(|kernel| {
            let compiled = compile_cached(kernel, &opts);
            Target {
                name: kernel.name.clone(),
                program: compiled.program.clone(),
                spec: sandbox_spec(&opts).expect("sandboxed HFI kernels publish a spec"),
                heap_base: opts.heap_base,
                heap_init: kernel.heap_init.clone(),
                expected: kernel.expected,
                verdict: compiled.verdict.clone(),
                vehicle,
            }
        })
        .collect();
    // Springboard-compiled variants: the default scheme emits no marked
    // transition micro-ops, so without these the transition-corrupt
    // class would have zero sites campaign-wide. Two kernels suffice —
    // every springboard carries the same zeroing/stack-switch sequence.
    let springboard = CompileOptions::hfi_with_scheme(TransitionScheme::FullSpringboard);
    for kernel in kernels.iter().take(2) {
        let compiled = compile_cached(kernel, &springboard);
        targets.push(Target {
            name: format!("{}/springboard", kernel.name),
            program: compiled.program.clone(),
            spec: sandbox_spec(&springboard).expect("sandboxed HFI kernels publish a spec"),
            heap_base: springboard.heap_base,
            heap_init: kernel.heap_init.clone(),
            expected: kernel.expected,
            verdict: compiled.verdict.clone(),
            vehicle,
        });
    }
    targets
}

/// Runs one hooked execution on the campaign's vehicle and returns the
/// stop reason, counter record, and final registers.
fn run_hooked(
    program: &Arc<Program>,
    heap_base: u64,
    heap_init: &[(u32, Vec<u8>)],
    vehicle: Vehicle,
    hook: Box<dyn hfi_sim::ChaosHook>,
    limit: u64,
) -> (Stop, RunRecord, [u64; 16]) {
    match vehicle {
        Vehicle::Machine => {
            let mut machine = Machine::new(program.clone());
            load_heap(&mut machine, heap_base, heap_init);
            machine.set_chaos(hook);
            let stop = Executor::run(&mut machine, limit);
            (stop, Executor::stats(&machine), Executor::regs(&machine))
        }
        Vehicle::Functional => {
            let mut functional = Functional::new(program.clone());
            for (off, bytes) in heap_init {
                Executor::prepare(&mut functional, heap_base + *off as u64, bytes);
            }
            functional.set_chaos(hook);
            let stop = Executor::run(&mut functional, limit);
            (
                stop,
                Executor::stats(&functional),
                Executor::regs(&functional),
            )
        }
    }
}

/// Uninjected run with counter + monitor attached. Panics (loudly) if
/// the baseline itself misbehaves — an injected sweep over a broken
/// baseline proves nothing.
fn run_baseline(target: &Target) -> Baseline {
    let counter = SiteCounter::new();
    let monitor = ShadowMonitor::from_spec(&target.spec);
    let budget = if target.vehicle == Vehicle::Machine {
        MACHINE_LIMIT
    } else {
        FUNCTIONAL_LIMIT
    };
    let (stop, record, regs) = run_hooked(
        &target.program,
        target.heap_base,
        &target.heap_init,
        target.vehicle,
        Box::new(Rig::new(counter.clone(), monitor.clone())),
        budget,
    );
    assert_eq!(stop, Stop::Halted, "{}: baseline did not halt", target.name);
    assert_eq!(
        regs[0], target.expected,
        "{}: baseline returned the wrong result",
        target.name
    );
    let report = monitor.report();
    assert!(
        report.clean() && report.trap.is_none(),
        "{}: baseline violates its own spec — monitor/spec mismatch: {report:?}",
        target.name
    );
    // Pure-compute kernels (fib2, nestedloop) have no sandboxed memory
    // traffic; the oracle still checks every sandboxed fetch there.
    assert!(
        report.checked_accesses + report.checked_fetches > 0,
        "{}: monitor saw no sandboxed effects at all; the oracle would be vacuous",
        target.name
    );
    // Budget for injected runs: generous multiple of the baseline, in
    // the vehicle's own unit — cycles for the machine, retired
    // instructions for the functional tier.
    let limit = if target.vehicle == Vehicle::Machine {
        ((record.cycles as u64).saturating_mul(8) + 1_000_000).min(MACHINE_LIMIT)
    } else {
        (record.committed.saturating_mul(8) + 1_000_000).min(FUNCTIONAL_LIMIT)
    };
    Baseline {
        counts: counter.counts(),
        record,
        limit,
    }
}

fn run_cell(cell: &Cell) -> CellResult {
    let mut rng = Rng::new(cell.seed);
    let trigger = rng.below(cell.sites.max(1));
    let plan = ChaosPlan {
        seed: rng.next_u64(),
        class: cell.class,
        trigger,
    };
    let engine = ChaosEngine::new(plan);
    let monitor = ShadowMonitor::from_spec(&cell.spec);
    let hook: Box<dyn hfi_sim::ChaosHook> = if cell.weaken {
        Box::new(Rig::new(
            WeakenedEngine::new(engine.clone()),
            monitor.clone(),
        ))
    } else {
        Box::new(Rig::new(engine.clone(), monitor.clone()))
    };
    let (stop, record, _) = run_hooked(
        &cell.program,
        cell.heap_base,
        &cell.heap_init,
        cell.vehicle,
        hook,
        cell.baseline.limit,
    );
    let report = monitor.report();
    let identical = stop == Stop::Halted && record == cell.baseline.record;
    let verdict = classify(&report, identical);
    CellResult {
        target_idx: cell.target_idx,
        name: cell.name.clone(),
        class: cell.class,
        rep: cell.rep,
        seed: cell.seed,
        trigger,
        fired: engine.fired().is_some(),
        stop,
        verdict,
        record,
        violation: report.violations.first().map(|v| {
            format!(
                "pc={:#x} {} {} byte(s) at {:#x}",
                v.pc, v.access, v.size, v.addr
            )
        }),
    }
}

/// Runs every injected cell through the `hfi-serve` scheduler instead
/// of inline: one warm-pooled tenant per target, the chaos rig riding
/// [`Request::chaos`], classification from the rig's shared handles
/// after the completion comes back. Instance reuse across injections is
/// the point — a hook or scribbled heap leaking past the pool's release
/// reset would show up here as a divergent (or escaped) later cell.
fn run_cells_served(
    targets: &[Target],
    cells: Vec<Cell>,
    vehicle: Vehicle,
    workers: usize,
) -> Vec<CellOutcome<CellResult>> {
    let tier = match vehicle {
        Vehicle::Functional => Tier::Functional,
        Vehicle::Machine => unreachable!("--serve always picks the functional tier"),
    };
    let tenants: Vec<TenantSpec> = targets
        .iter()
        .map(|t| {
            TenantSpec::from_program(
                t.name.clone(),
                t.program.clone(),
                t.verdict.clone(),
                Isolation::Hfi,
                tier,
                t.heap_base,
                t.heap_init
                    .iter()
                    .map(|(off, bytes)| (*off as u64, bytes.clone()))
                    .collect(),
                Some(t.expected),
            )
        })
        .collect();
    let pools = Arc::new(WarmPools::new(
        Arc::new(tenants),
        42,
        64 << 20,
        AdmitPolicy::RequireVerified,
    ));
    let scheduler = Scheduler::new(Arc::clone(&pools), workers);

    // Submit everything; `arrival_ns` carries the cell index so the
    // out-of-order completions can be matched back.
    let mut rigs = Vec::with_capacity(cells.len());
    for (idx, cell) in cells.iter().enumerate() {
        let mut rng = Rng::new(cell.seed);
        let trigger = rng.below(cell.sites.max(1));
        let plan = ChaosPlan {
            seed: rng.next_u64(),
            class: cell.class,
            trigger,
        };
        let engine = ChaosEngine::new(plan);
        let monitor = ShadowMonitor::from_spec(&cell.spec);
        let hook: Box<dyn hfi_sim::ChaosHook> = if cell.weaken {
            Box::new(Rig::new(
                WeakenedEngine::new(engine.clone()),
                monitor.clone(),
            ))
        } else {
            Box::new(Rig::new(engine.clone(), monitor.clone()))
        };
        rigs.push((trigger, engine, monitor));
        scheduler.submit(Request {
            tenant: cell.target_idx,
            arrival_ns: idx as u64,
            limit: cell.baseline.limit,
            deadline: None,
            chaos: Some(hook),
        });
    }

    let mut by_cell: Vec<Option<hfi_serve::Completion>> = (0..cells.len()).map(|_| None).collect();
    for completion in scheduler.finish() {
        let idx = completion.arrival_ns as usize;
        by_cell[idx] = Some(completion);
    }
    let stats = pools.stats();
    eprintln!(
        "[chaos-serve] workers={} tier={} warm_hits={} cold_builds={} recycled={} peak_resident={}",
        workers,
        tier.as_str(),
        stats.warm_hits,
        stats.cold_builds,
        stats.recycled,
        stats.peak_resident,
    );

    cells
        .iter()
        .zip(rigs)
        .zip(by_cell)
        .map(|((cell, (trigger, engine, monitor)), completion)| {
            let Some(completion) = completion else {
                return CellOutcome::Panicked {
                    msg: format!("{}: completion lost by the scheduler", cell.name),
                };
            };
            match completion.outcome {
                ServeOutcome::Done { stop, record, .. } => {
                    let report = monitor.report();
                    let identical = stop == Stop::Halted && *record == cell.baseline.record;
                    let verdict = classify(&report, identical);
                    CellOutcome::Ok(CellResult {
                        target_idx: cell.target_idx,
                        name: cell.name.clone(),
                        class: cell.class,
                        rep: cell.rep,
                        seed: cell.seed,
                        trigger,
                        fired: engine.fired().is_some(),
                        stop,
                        verdict,
                        record: *record,
                        violation: report.violations.first().map(|v| {
                            format!(
                                "pc={:#x} {} {} byte(s) at {:#x}",
                                v.pc, v.access, v.size, v.addr
                            )
                        }),
                    })
                }
                ServeOutcome::Rejected { verified, stale } => CellOutcome::Panicked {
                    msg: format!(
                        "{}: admission rejected a baseline-verified tenant (verified={verified:?} stale={stale})",
                        cell.name
                    ),
                },
                ServeOutcome::Overloaded => CellOutcome::Panicked {
                    msg: format!("{}: serving pool stayed overloaded", cell.name),
                },
                // Cells carry no deadline and the default config never
                // sheds or opens a breaker on Done outcomes, so the
                // fault-containment variants are bugs here.
                other => CellOutcome::Panicked {
                    msg: format!("{}: unexpected serving outcome {other:?}", cell.name),
                },
            }
        })
        .collect()
}

/// Per-class outcome tallies of the serving fault soak.
#[derive(Default)]
struct SoakRow {
    done: usize,
    deadline: usize,
    circuit_open: usize,
    panicked: usize,
    rejected: usize,
    shed: usize,
    overloaded: usize,
    /// ShadowMonitor violations or a trap on a healthy run.
    escapes: usize,
    /// Healthy runs returning the wrong result.
    wrong_results: usize,
}

impl SoakRow {
    fn classified(&self) -> usize {
        self.done
            + self.deadline
            + self.circuit_open
            + self.panicked
            + self.rejected
            + self.shed
            + self.overloaded
    }
}

/// One request of a soak scenario, with the oracle handle to read back.
struct SoakReq {
    request: Request,
    /// True when this is the rogue tenant's request.
    rogue: bool,
    /// Healthy requests carry a monitor; the report must stay clean.
    monitor: Option<ShadowMonitor>,
    /// Healthy requests know their architectural result.
    expected: Option<u64>,
}

/// A kernel that increments forever: only a deadline can stop it.
fn runaway_program() -> Arc<Program> {
    let mut asm = ProgramBuilder::new(0x1000);
    asm.movi(Reg(0), 0);
    let top = asm.label();
    asm.place(top);
    asm.alu_ri(AluOp::Add, Reg(0), Reg(0), 1);
    asm.jump(top);
    asm.halt();
    Arc::new(asm.finish())
}

/// Runs one serving-fault class as its own scheduler instance: healthy
/// tenants (with shadow monitors riding every request) interleaved with
/// the class's rogue traffic, then checks the containment contract —
/// the rogue degrades only itself, the healthy side stays bit-correct
/// and escape-free, and every submission completes.
fn run_soak_class(
    class: ServeFaultClass,
    healthy: &[&Target],
    tier: Tier,
    seed: u64,
    workers: usize,
    failures: &mut Vec<String>,
) -> SoakRow {
    let mut rng = Rng::new(seed);
    let breaker_threshold = 3u32;
    let mut tenants: Vec<TenantSpec> = healthy
        .iter()
        .map(|t| {
            TenantSpec::from_program(
                t.name.clone(),
                t.program.clone(),
                t.verdict.clone(),
                Isolation::Hfi,
                tier,
                t.heap_base,
                t.heap_init
                    .iter()
                    .map(|(off, bytes)| (*off as u64, bytes.clone()))
                    .collect(),
                Some(t.expected),
            )
        })
        .collect();
    let rogue_tenant = tenants.len();
    let rogue_count = match class {
        ServeFaultClass::WorkerDeath => 0,
        ServeFaultClass::WedgedRequest => 4,
        _ => 8,
    };
    match class {
        ServeFaultClass::WorkerDeath => {}
        ServeFaultClass::WedgedRequest => tenants.push(TenantSpec::from_program(
            "rogue/wedged".to_string(),
            runaway_program(),
            hfi_wasm::compiler::VerifyVerdict::Unchecked,
            Isolation::Hfi,
            tier,
            0x1000_0000,
            Vec::new(),
            None,
        )),
        // The panicking tenant runs a perfectly healthy kernel — the
        // fault is the injected host bug, not the program.
        ServeFaultClass::PanicOnDispatch => tenants.push(TenantSpec::from_program(
            "rogue/panics".to_string(),
            healthy[0].program.clone(),
            healthy[0].verdict.clone(),
            Isolation::Hfi,
            tier,
            healthy[0].heap_base,
            healthy[0]
                .heap_init
                .iter()
                .map(|(off, bytes)| (*off as u64, bytes.clone()))
                .collect(),
            Some(healthy[0].expected),
        )),
        // A tenant whose verify verdict is a rejection: every admission
        // attempt fails, modeling a persistent compile/verify burst.
        ServeFaultClass::CompileFailureBurst => tenants.push(TenantSpec::from_program(
            "rogue/unverifiable".to_string(),
            healthy[0].program.clone(),
            hfi_wasm::compiler::VerifyVerdict::Rejected(Vec::new()),
            Isolation::Hfi,
            tier,
            healthy[0].heap_base,
            Vec::new(),
            None,
        )),
    }
    let pools = Arc::new(WarmPools::new(
        Arc::new(tenants),
        42,
        64 << 20,
        AdmitPolicy::VerifiedOrExempt,
    ));
    let (workers, config) = match class {
        // Kill worker 0 after two serves; 1 and 2 must absorb its shard.
        ServeFaultClass::WorkerDeath => (
            3,
            ServeConfig {
                breaker_threshold,
                worker_deaths: vec![(0, 2)],
                ..ServeConfig::default()
            },
        ),
        _ => (
            workers.max(1),
            ServeConfig {
                breaker_threshold,
                // Long cooldown: no half-open probes inside the soak, so
                // rogue outcomes partition cleanly into failed-then-shed.
                breaker_cooldown: std::time::Duration::from_secs(60),
                ..ServeConfig::default()
            },
        ),
    };
    let scheduler = Scheduler::with_config(Arc::clone(&pools), workers, config);

    // Interleave healthy and rogue traffic, rogue-first so the faults
    // land while healthy requests are in flight behind them.
    let mut reqs: Vec<SoakReq> = Vec::new();
    for i in 0..rogue_count {
        let (deadline, limit, chaos): (_, _, Option<Box<dyn hfi_sim::ChaosHook>>) = match class {
            ServeFaultClass::WedgedRequest => {
                (Some(std::time::Duration::from_millis(25)), u64::MAX, None)
            }
            ServeFaultClass::PanicOnDispatch => (
                None,
                FUNCTIONAL_LIMIT,
                Some(Box::new(PanicHook::new(rng.below(6)))),
            ),
            _ => (None, FUNCTIONAL_LIMIT, None),
        };
        let _ = i;
        reqs.push(SoakReq {
            request: Request {
                tenant: rogue_tenant,
                arrival_ns: 0,
                limit,
                deadline,
                chaos,
            },
            rogue: true,
            monitor: None,
            expected: None,
        });
    }
    for round in 0..6 {
        let _ = round;
        for target in healthy {
            let monitor = ShadowMonitor::from_spec(&target.spec);
            let idx = healthy
                .iter()
                .position(|t| std::ptr::eq(*t, *target))
                .expect("target comes from the healthy slice");
            reqs.push(SoakReq {
                request: Request {
                    tenant: idx,
                    arrival_ns: 0,
                    limit: FUNCTIONAL_LIMIT,
                    deadline: None,
                    chaos: Some(Box::new(Rig::new(SiteCounter::new(), monitor.clone()))),
                },
                rogue: false,
                monitor: Some(monitor),
                expected: Some(target.expected),
            });
        }
    }
    let total = reqs.len();
    let mut oracles: Vec<(bool, Option<ShadowMonitor>, Option<u64>)> = Vec::with_capacity(total);
    for (idx, soak_req) in reqs.into_iter().enumerate() {
        let SoakReq {
            mut request,
            rogue,
            monitor,
            expected,
        } = soak_req;
        request.arrival_ns = idx as u64;
        oracles.push((rogue, monitor, expected));
        scheduler.submit(request);
    }
    let completions = scheduler.finish();
    if completions.len() != total {
        failures.push(format!(
            "{class}: {} of {total} submissions completed — requests were lost",
            completions.len()
        ));
    }

    let mut row = SoakRow::default();
    let mut healthy_done = 0usize;
    for completion in &completions {
        let (rogue, monitor, expected) = &oracles[completion.arrival_ns as usize];
        match &completion.outcome {
            ServeOutcome::Done { stop, r0, .. } => {
                row.done += 1;
                if !rogue {
                    healthy_done += 1;
                    if *stop != Stop::Halted || Some(*r0) != *expected {
                        row.wrong_results += 1;
                        failures.push(format!(
                            "{class}: healthy tenant {} returned {stop:?}/r0={r0} (expected {expected:?})",
                            completion.tenant
                        ));
                    }
                    if let Some(monitor) = monitor {
                        let report = monitor.report();
                        if !report.clean() || report.trap.is_some() {
                            row.escapes += 1;
                            failures.push(format!(
                                "{class}: healthy tenant {} monitor report not clean: {report:?}",
                                completion.tenant
                            ));
                        }
                    }
                }
            }
            ServeOutcome::DeadlineExceeded { .. } => row.deadline += 1,
            ServeOutcome::CircuitOpen => row.circuit_open += 1,
            ServeOutcome::Panicked { .. } => row.panicked += 1,
            ServeOutcome::Rejected { .. } => row.rejected += 1,
            ServeOutcome::Shed => row.shed += 1,
            ServeOutcome::Overloaded => row.overloaded += 1,
        }
        if !rogue && !matches!(completion.outcome, ServeOutcome::Done { .. }) {
            failures.push(format!(
                "{class}: healthy tenant {} degraded to {:?} — containment leaked",
                completion.tenant, completion.outcome
            ));
        }
    }
    let healthy_total = total - rogue_count;
    if healthy_done != healthy_total {
        failures.push(format!(
            "{class}: only {healthy_done} of {healthy_total} healthy requests finished Done"
        ));
    }
    // Class-specific contract on the rogue outcomes.
    let stats = pools.stats();
    match class {
        ServeFaultClass::WorkerDeath => {}
        ServeFaultClass::WedgedRequest => {
            if row.deadline != rogue_count {
                failures.push(format!(
                    "{class}: expected {rogue_count} DeadlineExceeded, got {}",
                    row.deadline
                ));
            }
        }
        ServeFaultClass::PanicOnDispatch => {
            if row.panicked == 0 || row.panicked + row.circuit_open != rogue_count {
                failures.push(format!(
                    "{class}: expected panics then breaker sheds over {rogue_count} rogue \
                     requests, got panicked={} circuit_open={}",
                    row.panicked, row.circuit_open
                ));
            }
            if stats.quarantined != row.panicked as u64 {
                failures.push(format!(
                    "{class}: {} panics but {} quarantined instances",
                    row.panicked, stats.quarantined
                ));
            }
            if pools.quarantined_serials(rogue_tenant).len() != row.panicked {
                failures.push(format!(
                    "{class}: quarantine set does not match the panic count"
                ));
            }
        }
        ServeFaultClass::CompileFailureBurst => {
            if row.rejected == 0 || row.rejected + row.circuit_open != rogue_count {
                failures.push(format!(
                    "{class}: expected rejections then breaker sheds over {rogue_count} rogue \
                     requests, got rejected={} circuit_open={}",
                    row.rejected, row.circuit_open
                ));
            }
        }
    }
    row
}

/// The serving fault soak: every [`ServeFaultClass`] driven through a
/// real scheduler with shadow monitors riding the healthy traffic.
/// Returns the printed matrix rows; containment violations accumulate
/// in `failures`.
fn serve_fault_soak(
    targets: &[Target],
    tier: Tier,
    seed: u64,
    workers: usize,
    failures: &mut Vec<String>,
) -> Vec<Vec<String>> {
    // The injected panics are caught and classified; keep their default
    // backtrace spam out of the soak's stderr.
    hfi_chaos::silence_injected_panics();
    // Healthy cohort: the first few non-springboard kernels (the
    // springboard variants add nothing at the scheduler level).
    let healthy: Vec<&Target> = targets
        .iter()
        .filter(|t| !t.name.contains("springboard"))
        .take(3)
        .collect();
    assert!(
        !healthy.is_empty(),
        "soak needs at least one healthy kernel"
    );
    let mut rows = Vec::new();
    for (idx, class) in ServeFaultClass::ALL.iter().enumerate() {
        let mut class_seed = seed ^ ((idx as u64 + 1) << 48);
        let class_seed = split_mix64(&mut class_seed);
        let row = run_soak_class(*class, &healthy, tier, class_seed, workers, failures);
        rows.push(vec![
            class.label().to_string(),
            row.done.to_string(),
            row.deadline.to_string(),
            row.circuit_open.to_string(),
            row.panicked.to_string(),
            row.rejected.to_string(),
            (row.shed + row.overloaded).to_string(),
            row.escapes.to_string(),
            row.classified().to_string(),
        ]);
    }
    rows
}

fn context_for(name: &str, class: FaultClass, rep: u64) -> Vec<(&'static str, String)> {
    vec![
        ("kernel", name.to_string()),
        ("class", class.label().to_string()),
        ("rep", rep.to_string()),
    ]
}

fn main() {
    let cli = Cli::from_env(&[Flag::Switch("--weaken"), Flag::Switch("--serve")]);
    let weaken = cli.switch("--weaken");
    let serve = cli.switch("--serve");
    let vehicle = if serve {
        Vehicle::Functional
    } else {
        Vehicle::Machine
    };
    let figure = match (serve, weaken) {
        (false, false) => "chaos",
        (false, true) => "chaos-weakened",
        (true, false) => "chaos-serve",
        (true, true) => "chaos-serve-weakened",
    };
    let mut harness = cli.harness(figure);

    let targets = targets(harness.smoke(), vehicle);
    let reps = harness.iters(3, 1);
    let campaign_seed = harness.seed_or(0x48_46_49); // "HFI"

    // Baselines in parallel (compilation is already cached+shared).
    let baselines: Vec<Baseline> = harness.run_grid(&targets, run_baseline);

    // Escapes already journaled by a previous, interrupted run.
    let mut resumed_cells = 0usize;
    let mut resumed_escapes = 0usize;
    let mut cells = Vec::new();
    let mut no_site: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (target_idx, (target, baseline)) in targets.iter().zip(&baselines).enumerate() {
        for (class_idx, &class) in FaultClass::ALL.iter().enumerate() {
            let sites = baseline.counts.for_class(class);
            for rep in 0..reps {
                if sites == 0 {
                    *no_site.entry(class.label()).or_default() += 1;
                    continue;
                }
                let context = context_for(&target.name, class, rep);
                if harness.have(&context) {
                    resumed_cells += 1;
                    // `have` only proves the line exists; re-scan it for
                    // the verdict so resumed escapes still fail the run.
                    let prefix = format!("\"kernel\":\"{}\"", target.name);
                    resumed_escapes += harness
                        .lines()
                        .iter()
                        .filter(|l| {
                            l.contains(&prefix)
                                && l.contains(&format!("\"class\":\"{}\"", class.label()))
                                && l.contains(&format!("\"rep\":\"{rep}\""))
                                && l.contains("\"verdict\":\"ESCAPE\"")
                        })
                        .count();
                    continue;
                }
                let mut seed =
                    campaign_seed ^ ((target_idx as u64) << 40) ^ ((class_idx as u64) << 32) ^ rep;
                seed = split_mix64(&mut seed);
                cells.push(Cell {
                    target_idx,
                    name: target.name.clone(),
                    program: target.program.clone(),
                    spec: target.spec.clone(),
                    heap_base: target.heap_base,
                    heap_init: target.heap_init.clone(),
                    class,
                    rep,
                    seed,
                    sites,
                    baseline: baseline.clone(),
                    weaken,
                    vehicle,
                });
            }
        }
    }

    let outcomes = if serve {
        run_cells_served(&targets, cells, vehicle, harness.jobs().max(1))
    } else {
        harness.run_grid_supervised(cells, run_cell)
    };

    // verdict-label -> count per class, plus supervision failures.
    let mut matrix: BTreeMap<&'static str, BTreeMap<&'static str, usize>> = BTreeMap::new();
    let mut escapes = 0usize;
    let mut cell_failures = 0usize;
    let mut retried = 0usize;
    for outcome in &outcomes {
        match outcome {
            CellOutcome::Ok(result) | CellOutcome::Retried { result, .. } => {
                if matches!(outcome, CellOutcome::Retried { .. }) {
                    retried += 1;
                }
                *matrix
                    .entry(result.class.label())
                    .or_default()
                    .entry(result.verdict.label())
                    .or_default() += 1;
                if result.verdict.is_escape() {
                    escapes += 1;
                    eprintln!(
                        "ESCAPE: {} class={} rep={} seed={:#x} trigger={} ({})",
                        result.name,
                        result.class,
                        result.rep,
                        result.seed,
                        result.trigger,
                        result.violation.as_deref().unwrap_or("no detail")
                    );
                }
                let mut context = context_for(&result.name, result.class, result.rep);
                context.push(("seed", format!("{:#x}", result.seed)));
                context.push(("trigger", result.trigger.to_string()));
                context.push(("fired", result.fired.to_string()));
                context.push(("stop", format!("{:?}", result.stop)));
                context.push(("verdict", result.verdict.label().to_string()));
                context.push(("weaken", weaken.to_string()));
                context.push(("baseline_idx", result.target_idx.to_string()));
                let record = result.record;
                harness.record(&context, &record);
            }
            CellOutcome::Panicked { msg } => {
                cell_failures += 1;
                eprintln!("cell panicked: {msg}");
            }
            CellOutcome::TimedOut => {
                cell_failures += 1;
                eprintln!("cell timed out");
            }
        }
    }

    let verdict_labels = [
        "fail-closed",
        "benign-identical",
        "benign-divergent",
        "ESCAPE",
    ];
    let rows: Vec<Vec<String>> = FaultClass::ALL
        .iter()
        .map(|class| {
            let by_verdict = matrix.get(class.label());
            let mut row = vec![class.label().to_string()];
            for label in verdict_labels {
                let n = by_verdict.and_then(|m| m.get(label)).copied().unwrap_or(0);
                row.push(n.to_string());
            }
            row.push(no_site.get(class.label()).copied().unwrap_or(0).to_string());
            row
        })
        .collect();
    print_table(
        match (serve, weaken) {
            (false, false) => "Chaos verdict matrix",
            (false, true) => "Chaos verdict matrix (WEAKENED build: guards disabled)",
            (true, false) => "Chaos verdict matrix (served, functional tier)",
            (true, true) => "Chaos verdict matrix (served, WEAKENED build: guards disabled)",
        },
        &[
            "class",
            "fail-closed",
            "benign-identical",
            "benign-divergent",
            "ESCAPE",
            "no-site",
        ],
        &rows,
    );

    // The serving fault soak: containment classes through a live
    // scheduler, after the site-level sweep so its matrix prints last.
    let mut soak_failures: Vec<String> = Vec::new();
    if serve {
        let soak_rows = serve_fault_soak(
            &targets,
            Tier::Functional,
            campaign_seed,
            harness.jobs().max(1),
            &mut soak_failures,
        );
        print_table(
            "Serving fault-containment soak (functional tier)",
            &[
                "class",
                "done",
                "deadline",
                "circuit-open",
                "panicked",
                "rejected",
                "shed",
                "escapes",
                "total",
            ],
            &soak_rows,
        );
        println!(
            "\nserve-soak: classes={} failures={}",
            ServeFaultClass::ALL.len(),
            soak_failures.len()
        );
    }

    let total_escapes = escapes + resumed_escapes;
    println!(
        "\nchaos-verdicts: kernels={} cells={} resumed={} retried={} failures={} escapes={}",
        targets.len(),
        outcomes.len(),
        resumed_cells,
        retried,
        cell_failures,
        total_escapes,
    );
    if let Ok(path) = harness.finish() {
        eprintln!("[chaos] journal: {}", path.display());
    }

    if cell_failures > 0 {
        eprintln!("FAIL: {cell_failures} cell(s) did not complete");
        std::process::exit(1);
    }
    if !soak_failures.is_empty() {
        for failure in &soak_failures {
            eprintln!("SOAK FAIL: {failure}");
        }
        eprintln!(
            "FAIL: {} serving fault-containment violation(s)",
            soak_failures.len()
        );
        std::process::exit(1);
    }
    if weaken {
        if total_escapes == 0 {
            eprintln!(
                "FAIL: weakened build produced no escape — the oracle cannot detect a broken \
                 mechanism, so its zero-escape claim on the real build is meaningless"
            );
            std::process::exit(1);
        }
        println!("weakened build escaped as expected: the oracle bites");
    } else if total_escapes > 0 {
        eprintln!(
            "FAIL: {total_escapes} silent out-of-spec retirement(s) — HFI is not fail-closed"
        );
        std::process::exit(1);
    }
}
