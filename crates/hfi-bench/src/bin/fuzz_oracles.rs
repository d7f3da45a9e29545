//! `fuzz_oracles` — the closed-loop verifier ⇔ chaos differential
//! fuzzer.
//!
//! Seeded random guarded programs ([`hfi_bench::fuzzgen`]) are pushed
//! through *both* oracles and the run fails on any violation of the two
//! implications that tie them together:
//!
//! 1. **Accept ⇒ no escape.** Every generated program must verify
//!    clean (it is safe by construction), its uninjected baseline must
//!    halt cleanly under the shadow monitor, and a chaos sweep across
//!    every fault class with sites must never produce an `ESCAPE`
//!    verdict — if the static argument holds, runtime fault injection
//!    cannot make an out-of-spec access retire silently.
//! 2. **Reject ⇒ real escape.** Every proof-guided mutant of an
//!    accepted program must be *rejected* by the verifier (an accepted
//!    mutant is a verifier hole), and across the sweep at least one
//!    rejected mutant must demonstrate its unsafety dynamically: run
//!    under the *weakened* chaos engine (hardware checks disabled, the
//!    state a verifier-rejected program would actually execute in on a
//!    broken part), the shadow monitor must witness a real out-of-spec
//!    access. A verifier that rejects for unfalsifiable reasons would
//!    fail this leg — the rejections must be backed by demonstrable
//!    escapes.
//!
//! Any violation is **shrunk**: the offending genome is greedily
//! reduced to a 1-minimal gadget list that still violates the same
//! predicate, and the reproducer (seed, genome, predicate) is printed.
//!
//! `--weaken-verifier` swaps in a deliberately broken verifier (one
//! that waves through memory-safety rejections) and *inverts* the
//! acceptance criterion, mirroring `chaos_campaign --weaken`: the
//! sweep must now **catch** at least one weakened-accepted mutant via
//! a dynamic escape, proving the differential loop is not vacuous.
//!
//! The sweep journals per-case results through the bench harness
//! (`target/bench-records/fuzz-oracles*.jsonl`), so `--resume` skips
//! already-journaled cases, and `--jobs N` fans cases across the
//! worker pool. `--smoke` caps the budget for CI (still ≥ 200
//! programs).

use std::collections::BTreeMap;
use std::sync::Arc;

use hfi_bench::fuzzgen::{build_program, fuzz_spec, random_genome, shrink, Genome};
use hfi_bench::harness::{Cli, Flag};
use hfi_bench::print_table;
use hfi_chaos::{
    classify, ChaosEngine, ChaosPlan, FaultClass, Rig, ShadowMonitor, SiteCounter, Verdict,
    WeakenedEngine,
};
use hfi_sim::{Executor, Functional, Program, RunRecord, Stop};
use hfi_util::{split_mix64, Rng};
use hfi_verify::{direct_mutants, verify_program, Proof, Reason, SandboxSpec, Violation};

/// Instruction budget per run: generated programs retire at most a few
/// hundred ops, so this only bites on a runaway mutant.
const RUN_LIMIT: u64 = 1_000_000;
/// Injected triggers sampled per fault class per program.
const TRIGGERS_PER_CLASS: u64 = 3;
/// Rejected mutants given a weakened-hardware dynamic run per program
/// (each is one full execution; the cap keeps the sweep linear in
/// cases, and the escape criterion is sweep-level anyway).
const DYNAMIC_MUTANTS_PER_CASE: usize = 4;

/// How one case violated the differential contract.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Violated {
    /// Implication 1a: a safe-by-construction program was rejected.
    GeneratorRejected { violations: usize },
    /// Implication 1b: the uninjected baseline misbehaved.
    BaselineBroken { detail: String },
    /// Implication 1c: an injected run escaped on a verified program.
    ChaosEscape { class: FaultClass, trigger: u64 },
    /// Implication 2a: the verifier accepted a proof-guided mutant.
    MutantAccepted { description: String },
}

impl Violated {
    fn label(&self) -> &'static str {
        match self {
            Violated::GeneratorRejected { .. } => "generator-rejected",
            Violated::BaselineBroken { .. } => "baseline-broken",
            Violated::ChaosEscape { .. } => "chaos-escape",
            Violated::MutantAccepted { .. } => "mutant-accepted",
        }
    }
}

/// Outcome of one fuzz case (one generated program, both oracles).
struct CaseResult {
    case: u64,
    seed: u64,
    gadgets: usize,
    insts: usize,
    /// Chaos cells run, keyed by (class, verdict-label).
    chaos_cells: BTreeMap<(&'static str, &'static str), u64>,
    /// Classes that had no eligible site on this program.
    classes_without_sites: u64,
    mutants: u64,
    mutants_killed: u64,
    /// Rejected mutants whose unsafety was confirmed by a weakened run.
    escapes_confirmed: u64,
    /// Weakened-verifier mode: broken-verifier acceptances caught
    /// dynamically.
    weakened_caught: u64,
    violations: Vec<(Violated, Genome)>,
}

struct CaseJob {
    case: u64,
    seed: u64,
    weaken_verifier: bool,
}

/// The uninjected reference run: stop reason, counters, monitor report.
fn baseline_run(
    program: &Arc<Program>,
    spec: &SandboxSpec,
) -> (
    Stop,
    RunRecord,
    hfi_chaos::MonitorReport,
    hfi_chaos::SiteCounts,
) {
    let counter = SiteCounter::new();
    let monitor = ShadowMonitor::from_spec(spec);
    let mut functional = Functional::new(Arc::clone(program));
    functional.set_chaos(Box::new(Rig::new(counter.clone(), monitor.clone())));
    let stop = Executor::run(&mut functional, RUN_LIMIT);
    let record = Executor::stats(&functional);
    (stop, record, monitor.report(), counter.counts())
}

/// `None` when the baseline is clean, `Some(detail)` otherwise.
fn baseline_problem(stop: Stop, report: &hfi_chaos::MonitorReport) -> Option<String> {
    if stop != Stop::Halted {
        return Some(format!("baseline stopped with {stop:?}"));
    }
    if !report.clean() || report.trap.is_some() {
        return Some(format!(
            "baseline violates its own spec: {} violation(s), trap={:?}",
            report.violations.len(),
            report.trap
        ));
    }
    if report.checked_accesses + report.checked_fetches == 0 {
        return Some("monitor saw no sandboxed effects; the oracle would be vacuous".to_string());
    }
    None
}

/// One injected run; returns the chaos verdict.
fn injected_run(
    program: &Arc<Program>,
    spec: &SandboxSpec,
    baseline: &RunRecord,
    plan: ChaosPlan,
    weaken: bool,
) -> Verdict {
    let engine = ChaosEngine::new(plan);
    let monitor = ShadowMonitor::from_spec(spec);
    let hook: Box<dyn hfi_sim::ChaosHook> = if weaken {
        Box::new(Rig::new(WeakenedEngine::new(engine), monitor.clone()))
    } else {
        Box::new(Rig::new(engine, monitor.clone()))
    };
    let mut functional = Functional::new(Arc::clone(program));
    functional.set_chaos(hook);
    let stop = Executor::run(&mut functional, RUN_LIMIT);
    let record = Executor::stats(&functional);
    let identical = stop == Stop::Halted && record == *baseline;
    classify(&monitor.report(), identical)
}

/// Runs a rejected (or weaken-accepted) mutant under the weakened
/// engine — hardware checks off, monitor on — and reports whether the
/// monitor witnessed a real out-of-spec access.
fn mutant_escapes_dynamically(program: &Arc<Program>, spec: &SandboxSpec) -> bool {
    // A plan that never fires: the weakening itself (skip every guard
    // and transition check) is the fault under test.
    let plan = ChaosPlan {
        seed: 0,
        class: FaultClass::GuardSkip,
        trigger: u64::MAX,
    };
    let engine = ChaosEngine::new(plan);
    let monitor = ShadowMonitor::from_spec(spec);
    let mut functional = Functional::new(Arc::clone(program));
    functional.set_chaos(Box::new(Rig::new(
        WeakenedEngine::new(engine),
        monitor.clone(),
    )));
    let _ = Executor::run(&mut functional, RUN_LIMIT);
    !monitor.report().clean()
}

/// The deliberately broken verifier for `--weaken-verifier`: waves a
/// program through when every violation is a memory-safety finding
/// (unproven or out-of-window address) — the exact class of bug the
/// dynamic leg must be able to catch.
fn weakened_accepts(violations: &[Violation]) -> bool {
    !violations.is_empty()
        && violations.iter().all(|v| {
            matches!(
                v.reason,
                Reason::UnprovenAddress | Reason::OutOfWindow { .. }
            )
        })
}

/// Chaos sweep over every fault class with sites; pushes an escape
/// violation per escaping (class, trigger).
fn chaos_sweep(
    program: &Arc<Program>,
    spec: &SandboxSpec,
    baseline: &RunRecord,
    counts: &hfi_chaos::SiteCounts,
    case_seed: u64,
    result: &mut CaseResult,
    genome: &Genome,
) {
    for (class_idx, &class) in FaultClass::ALL.iter().enumerate() {
        let sites = counts.for_class(class);
        if sites == 0 {
            result.classes_without_sites += 1;
            continue;
        }
        let mut rng = Rng::new(case_seed ^ ((class_idx as u64) << 48) | 1);
        for _ in 0..TRIGGERS_PER_CLASS.min(sites) {
            let trigger = rng.below(sites);
            let plan = ChaosPlan {
                seed: rng.next_u64(),
                class,
                trigger,
            };
            let verdict = injected_run(program, spec, baseline, plan, false);
            *result
                .chaos_cells
                .entry((class.label(), verdict.label()))
                .or_default() += 1;
            if verdict.is_escape() {
                result
                    .violations
                    .push((Violated::ChaosEscape { class, trigger }, genome.clone()));
            }
        }
    }
}

fn run_case(job: &CaseJob) -> CaseResult {
    let mut rng = Rng::new(job.seed);
    let genome = random_genome(&mut rng);
    let program = build_program(&genome);
    let spec = fuzz_spec(genome.springboard);
    let mut result = CaseResult {
        case: job.case,
        seed: job.seed,
        gadgets: genome.gadgets.len(),
        insts: program.len(),
        chaos_cells: BTreeMap::new(),
        classes_without_sites: 0,
        mutants: 0,
        mutants_killed: 0,
        escapes_confirmed: 0,
        weakened_caught: 0,
        violations: Vec::new(),
    };

    // Oracle leg 1: the verifier must accept (safe by construction).
    let proof: Proof = match verify_program(&program, &spec) {
        Ok(proof) => proof,
        Err(violations) => {
            result.violations.push((
                Violated::GeneratorRejected {
                    violations: violations.len(),
                },
                genome.clone(),
            ));
            return result;
        }
    };

    // Oracle leg 2: the uninjected baseline must be clean.
    let (stop, record, report, counts) = baseline_run(&program, &spec);
    if let Some(detail) = baseline_problem(stop, &report) {
        result
            .violations
            .push((Violated::BaselineBroken { detail }, genome.clone()));
        return result;
    }

    // Implication 1: accept ⇒ no chaos escape.
    chaos_sweep(
        &program,
        &spec,
        &record,
        &counts,
        job.seed,
        &mut result,
        &genome,
    );

    // Implication 2: every proof-guided mutant must be rejected, and
    // the rejections must be dynamically demonstrable.
    let mut dynamic_budget = DYNAMIC_MUTANTS_PER_CASE;
    for mutant in direct_mutants(&program, &proof) {
        result.mutants += 1;
        match verify_program(&mutant.program, &spec) {
            Ok(_) => {
                result.violations.push((
                    Violated::MutantAccepted {
                        description: mutant.description.clone(),
                    },
                    genome.clone(),
                ));
            }
            Err(violations) => {
                result.mutants_killed += 1;
                if job.weaken_verifier && weakened_accepts(&violations) {
                    // The broken verifier waves this mutant through —
                    // the dynamic leg must catch it.
                    if mutant_escapes_dynamically(&mutant.program, &spec) {
                        result.weakened_caught += 1;
                    }
                } else if dynamic_budget > 0 {
                    dynamic_budget -= 1;
                    if mutant_escapes_dynamically(&mutant.program, &spec) {
                        result.escapes_confirmed += 1;
                    }
                }
            }
        }
    }

    result
}

/// Shrinks the genome behind a violation to a 1-minimal reproducer by
/// re-checking the same predicate on each candidate.
fn shrink_violation(violated: &Violated, genome: &Genome) -> Genome {
    shrink(genome, |candidate| {
        let program = build_program(candidate);
        let spec = fuzz_spec(candidate.springboard);
        match violated {
            Violated::GeneratorRejected { .. } => verify_program(&program, &spec).is_err(),
            Violated::BaselineBroken { .. } => {
                if verify_program(&program, &spec).is_err() {
                    return false;
                }
                let (stop, _, report, _) = baseline_run(&program, &spec);
                baseline_problem(stop, &report).is_some()
            }
            Violated::ChaosEscape { class, trigger } => {
                if verify_program(&program, &spec).is_err() {
                    return false;
                }
                let (stop, record, report, counts) = baseline_run(&program, &spec);
                if baseline_problem(stop, &report).is_some() {
                    return false;
                }
                let sites = counts.for_class(*class);
                if sites == 0 {
                    return false;
                }
                // The site index shifts as gadgets vanish: re-probe the
                // whole (small) trigger space for the same class.
                (0..sites.min(trigger + 8)).any(|t| {
                    let plan = ChaosPlan {
                        seed: 1,
                        class: *class,
                        trigger: t,
                    };
                    injected_run(&program, &spec, &record, plan, false).is_escape()
                })
            }
            Violated::MutantAccepted { .. } => match verify_program(&program, &spec) {
                Err(_) => false,
                Ok(proof) => direct_mutants(&program, &proof)
                    .iter()
                    .any(|m| verify_program(&m.program, &spec).is_ok()),
            },
        }
    })
}

fn main() {
    let cli = Cli::from_env(&[Flag::Switch("--weaken-verifier"), Flag::Switch("--resume")]);
    let weaken_verifier = cli.switch("--weaken-verifier");
    let figure = if weaken_verifier {
        "fuzz-oracles-weakened"
    } else {
        "fuzz-oracles"
    };
    let mut harness = cli.harness(figure);
    let cases = harness.iters(1000, 200);
    let sweep_seed = harness.seed_or(0x48_46_49); // "HFI"

    let mut resumed = 0u64;
    let mut jobs = Vec::new();
    for case in 0..cases {
        if harness.have(&[("case", case.to_string())]) {
            resumed += 1;
            continue;
        }
        let mut state = sweep_seed ^ (case << 16);
        jobs.push(CaseJob {
            case,
            seed: split_mix64(&mut state),
            weaken_verifier,
        });
    }
    let results: Vec<CaseResult> = harness.run_grid(&jobs, run_case);

    // Resumed lines still count toward the pass/fail criteria.
    let mut resumed_violations = 0u64;
    let mut resumed_caught = 0u64;
    for line in harness.lines() {
        if line.contains("\"violated\":") {
            resumed_violations += 1;
        }
        if let Some(idx) = line.find("\"weakened_caught\":\"") {
            let rest = &line[idx + "\"weakened_caught\":\"".len()..];
            if let Some(end) = rest.find('"') {
                resumed_caught += rest[..end].parse::<u64>().unwrap_or(0);
            }
        }
    }

    let mut matrix: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut no_sites = 0u64;
    let mut total_mutants = 0u64;
    let mut total_killed = 0u64;
    let mut escapes_confirmed = 0u64;
    let mut weakened_caught = resumed_caught;
    let mut violation_count = resumed_violations;
    for result in &results {
        for (&cell, &n) in &result.chaos_cells {
            *matrix.entry(cell).or_default() += n;
        }
        no_sites += result.classes_without_sites;
        total_mutants += result.mutants;
        total_killed += result.mutants_killed;
        escapes_confirmed += result.escapes_confirmed;
        weakened_caught += result.weakened_caught;

        let mut context = vec![
            ("case", result.case.to_string()),
            ("seed", format!("{:#x}", result.seed)),
            ("gadgets", result.gadgets.to_string()),
            ("insts", result.insts.to_string()),
            ("mutants", result.mutants.to_string()),
            ("mutants_killed", result.mutants_killed.to_string()),
            ("escapes_confirmed", result.escapes_confirmed.to_string()),
            ("weakened_caught", result.weakened_caught.to_string()),
        ];
        if let Some((violated, _)) = result.violations.first() {
            context.push(("violated", violated.label().to_string()));
        }
        harness.note(&context);

        for (violated, genome) in &result.violations {
            violation_count += 1;
            let minimal = shrink_violation(violated, genome);
            eprintln!(
                "VIOLATION: case={} seed={:#x} {violated:?}\n  minimal reproducer ({} gadget(s)): {minimal:?}",
                result.case,
                result.seed,
                minimal.gadgets.len(),
            );
        }
    }

    println!("== Fuzz oracle matrix ==\n");
    let verdict_labels = [
        "fail-closed",
        "benign-identical",
        "benign-divergent",
        "ESCAPE",
    ];
    let rows: Vec<Vec<String>> = FaultClass::ALL
        .iter()
        .map(|class| {
            let mut row = vec![class.label().to_string()];
            for verdict in verdict_labels {
                row.push(
                    matrix
                        .get(&(class.label(), verdict))
                        .copied()
                        .unwrap_or(0)
                        .to_string(),
                );
            }
            row
        })
        .collect();
    print_table(
        "Chaos verdicts on verifier-accepted programs",
        &[
            "class",
            "fail-closed",
            "benign-identical",
            "benign-divergent",
            "ESCAPE",
        ],
        &rows,
    );

    let ran = results.len() as u64;
    println!(
        "\nfuzz-oracles: cases={} resumed={resumed} violations={violation_count} \
         mutants={total_mutants} killed={total_killed} escapes_confirmed={escapes_confirmed} \
         weakened_caught={weakened_caught} classes_without_sites={no_sites} weaken_verifier={weaken_verifier}",
        ran + resumed,
    );

    match harness.finish() {
        Ok(path) => eprintln!("[fuzz-oracles] journal: {}", path.display()),
        Err(e) => eprintln!("[fuzz-oracles] journal write failed: {e}"),
    }

    let failed = if weaken_verifier {
        // Inverted criterion: the loop must *catch* the broken verifier.
        weakened_caught == 0
    } else {
        // Sweep-level non-vacuity: at least one rejected mutant must
        // demonstrate its unsafety dynamically.
        violation_count > 0 || (ran > 0 && escapes_confirmed == 0)
    };
    if failed {
        std::process::exit(1);
    }
}
