//! `verify_all` — run the static sandbox-safety verifier over every
//! program family the experiments execute.
//!
//! The sweep proves in **parallel** across the harness job pool
//! (`--jobs N` / `HFI_JOBS`) and runs twice over the same target set:
//! a *cold* pass from an empty proof cache (every target pays the full
//! abstract interpretation) and a *warm* pass that must be served
//! almost entirely from the incremental proof cache. Both passes are
//! timed and the speedup printed, followed by a machine-greppable
//! `proof-cache:` line with the cache counters — CI gates on the warm
//! pass actually hitting.
//!
//! Default mode prints one row per target (kernel × family) with its
//! verdict, proof digest, proof size, and memory-op count, and exits
//! nonzero if any target fails verification.
//!
//! `--mutants` additionally runs the proof-guided fault-injection suite:
//! every verified target is corrupted one site at a time across the
//! mutation classes (including the transition-contract classes
//! `unzeroed-leak` and `skipped-stack-switch`), and every mutant must
//! be rejected — the (target × mutant) cells are spread over the same
//! job pool. The per-class kill matrix is printed as a Markdown table
//! (CI pastes it into the step summary) followed by a machine-greppable
//! `mutation-kill:` line; any surviving mutant exits nonzero.
//!
//! `--smoke` truncates the kernel suites, matching the other binaries.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hfi_bench::harness::{Cli, Flag};
use hfi_bench::print_table;
use hfi_bench::verifyset::{all_targets, mutant_killed, mutants_for, verify_target, VerifyTarget};
use hfi_verify::{proof_cache_stats, reset_proof_cache, Mutant, MutationClass, Proof, Violation};

fn main() {
    let cli = Cli::from_env(&[Flag::Switch("--mutants")]);
    let harness = cli.harness("verify-all");
    let want_mutants = cli.switch("--mutants");

    let targets = all_targets(harness.smoke());

    // Building the target set compiles kernels, and compilation itself
    // verifies (and caches) — drop those entries so the cold pass
    // measures full proving work, not compile-time leftovers.
    reset_proof_cache();
    let cold_start = Instant::now();
    let cold: Vec<Result<Arc<Proof>, Vec<Violation>>> = harness.run_grid(&targets, verify_target);
    let cold_elapsed = cold_start.elapsed();
    let cold_stats = proof_cache_stats();

    // Warm pass: the *same* target vector — same program `Arc`s, same
    // specs — so every cell should resolve by cache identity lookup.
    let warm_start = Instant::now();
    let warm: Vec<Result<Arc<Proof>, Vec<Violation>>> = harness.run_grid(&targets, verify_target);
    let warm_elapsed = warm_start.elapsed();
    let stats = proof_cache_stats();

    let mut rows = Vec::new();
    let mut failures = 0usize;
    for (target, outcome) in targets.iter().zip(&cold) {
        match outcome {
            Ok(proof) => {
                rows.push(vec![
                    target.name.clone(),
                    "ok".to_string(),
                    format!("{:016x}", proof.digest.word()),
                    proof.guards.len().to_string(),
                    proof.mem_ops.to_string(),
                    proof.blocks.to_string(),
                ]);
            }
            Err(violations) => {
                failures += 1;
                rows.push(vec![
                    target.name.clone(),
                    format!("FAIL ({})", violations.len()),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
                for v in violations.iter().take(5) {
                    eprintln!("  {}: {v}", target.name);
                }
            }
        }
    }
    print_table(
        "Static sandbox-safety verification",
        &["target", "verdict", "digest", "guards", "mem ops", "blocks"],
        &rows,
    );
    println!(
        "\nverified: {}/{} targets ({} jobs)",
        targets.len() - failures,
        targets.len(),
        harness.jobs(),
    );

    // A warm re-verification that silently re-proved everything would
    // still print "ok" per target — gate on the cache counters and the
    // measured speedup instead. (Proofs are compared by digest: the
    // warm pass must return the same proof identities.)
    let divergent = cold
        .iter()
        .zip(&warm)
        .filter(|(c, w)| match (c, w) {
            (Ok(a), Ok(b)) => a.digest != b.digest,
            (Err(_), Err(_)) => false,
            _ => true,
        })
        .count();
    let cold_ms = cold_elapsed.as_secs_f64() * 1e3;
    let warm_ms = warm_elapsed.as_secs_f64() * 1e3;
    let speedup = cold_ms / warm_ms.max(1e-6);
    print_table(
        "Incremental proof cache (cold vs. warm full re-verification)",
        &["pass", "wall ms", "hits", "misses"],
        &[
            vec![
                "cold".to_string(),
                format!("{cold_ms:.2}"),
                (cold_stats.hits_identity + cold_stats.hits_digest).to_string(),
                cold_stats.misses.to_string(),
            ],
            vec![
                "warm".to_string(),
                format!("{warm_ms:.2}"),
                (stats.hits_identity + stats.hits_digest
                    - cold_stats.hits_identity
                    - cold_stats.hits_digest)
                    .to_string(),
                (stats.misses - cold_stats.misses).to_string(),
            ],
        ],
    );
    println!(
        "\nproof-cache: cold={cold_ms:.2}ms warm={warm_ms:.2}ms speedup={speedup:.1}x \
         hits_identity={} hits_digest={} misses={} invalidations={} entries={} divergent={divergent}",
        stats.hits_identity, stats.hits_digest, stats.misses, stats.invalidations, stats.entries,
    );
    let warm_hits = (stats.hits_identity + stats.hits_digest)
        - (cold_stats.hits_identity + cold_stats.hits_digest);
    let cache_broken = divergent > 0 || warm_hits < targets.len() as u64;
    if cache_broken {
        eprintln!("ERROR: warm pass did not hit the proof cache (or returned divergent proofs)");
    }

    let mut survivors = 0usize;
    if want_mutants {
        // One grid cell per (target, mutant): `mutant_killed` re-runs
        // the full verifier per mutant, which dominates the sweep — so
        // the cells, not the targets, are what the pool load-balances.
        let cells: Vec<(&VerifyTarget, Mutant)> = targets
            .iter()
            .zip(&cold)
            .filter_map(|(target, outcome)| outcome.as_ref().ok().map(|proof| (target, proof)))
            .flat_map(|(target, proof)| {
                mutants_for(target, proof)
                    .into_iter()
                    .map(move |mutant| (target, mutant))
            })
            .collect();
        let killed_flags: Vec<bool> =
            harness.run_grid(&cells, |(target, mutant)| mutant_killed(target, mutant));

        // killed/total per class, accumulated across every target.
        let mut matrix: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for ((target, mutant), killed) in cells.iter().zip(&killed_flags) {
            let cell = matrix.entry(class_name(mutant.class)).or_insert((0, 0));
            cell.1 += 1;
            if *killed {
                cell.0 += 1;
            } else {
                survivors += 1;
                eprintln!(
                    "SURVIVOR: {} [{}] {}",
                    target.name, mutant.class, mutant.description
                );
            }
        }
        let (mut killed, mut total) = (0, 0);
        println!("\n### Mutation-kill matrix\n");
        println!("| class | mutants | killed | survived |");
        println!("|---|---|---|---|");
        for (class, (k, t)) in &matrix {
            println!("| {class} | {t} | {k} | {} |", t - k);
            killed += k;
            total += t;
        }
        println!("\nmutation-kill: {killed}/{total}");
    }

    if failures > 0 || survivors > 0 || cache_broken {
        std::process::exit(1);
    }
}

fn class_name(class: MutationClass) -> &'static str {
    match class {
        MutationClass::DropGuard => "drop-guard",
        MutationClass::WidenMask => "widen-mask",
        MutationClass::UncheckMov => "uncheck-mov",
        MutationClass::RetargetBranch => "retarget-branch",
        MutationClass::UnzeroedLeak => "unzeroed-leak",
        MutationClass::SkippedStackSwitch => "skipped-stack-switch",
    }
}
