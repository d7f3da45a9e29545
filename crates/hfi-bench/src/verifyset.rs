//! The workspace-wide verification-target set.
//!
//! Every program family the experiments execute, paired with the safety
//! contract it publishes: the `hfi-wasm` kernels under each statically
//! checkable isolation strategy (direct, A.2-emulated, guard-emulated)
//! and the `hfi-native` interposition benchmark. The `verify_all` binary
//! and the mutation-kill integration test both iterate this set, so "the
//! verifier accepts everything we ship" and "the verifier rejects every
//! single-site corruption" are claims about the same programs.

use std::sync::Arc;

use hfi_core::TransitionScheme;
use hfi_native::{benchmark_program, interposition_spec, Interposition};
use hfi_sim::{emulate, uses_hfi, Program};
use hfi_verify::{
    direct_mutants, emulation_mutants, verify_emulation, verify_emulation_cached, verify_program,
    verify_program_cached, Mutant, Proof, SandboxSpec, Violation,
};
use hfi_wasm::compiler::{CompileOptions, Isolation};
use hfi_wasm::kernels::{sightglass, speclike};
use hfi_wasm::{guarded_emulation, guarded_spec, sandbox_spec};

use crate::compile_cached;

/// How a target's program is checked against its spec.
#[derive(Debug, Clone)]
pub enum VerifyMode {
    /// Direct dataflow verification of the program itself.
    Direct,
    /// Translation validation: verify `original`, then structurally
    /// validate the target's (emulated) program against it.
    Emulation {
        /// The pre-transform program the emulated stream must mirror.
        original: Arc<Program>,
    },
}

/// One program + contract pair the workspace must be able to verify.
#[derive(Debug, Clone)]
pub struct VerifyTarget {
    /// Human-readable `kernel/family` label.
    pub name: String,
    /// The published safety contract.
    pub spec: SandboxSpec,
    /// How the program is checked.
    pub mode: VerifyMode,
    /// The program under verification (the emulated stream in
    /// [`VerifyMode::Emulation`]).
    pub program: Arc<Program>,
}

/// Verifies one target according to its mode, through the incremental
/// proof cache — a target whose program `Arc` (or content digest) was
/// already proven under the same spec returns its cached proof.
pub fn verify_target(target: &VerifyTarget) -> Result<Arc<Proof>, Vec<Violation>> {
    match &target.mode {
        VerifyMode::Direct => verify_program_cached(&target.program, &target.spec),
        VerifyMode::Emulation { original } => {
            verify_emulation_cached(original, &target.program, &target.spec)
        }
    }
}

/// Checks one mutant of `target`: `true` when the verifier rejects it
/// (the mutant is *killed*). Deliberately uncached: every mutant is a
/// fresh single-use program, so a cache lookup could only miss — and a
/// mutant that *hit* its parent's entry would be a cache-soundness bug
/// (pinned by the `proof_cache` test suite).
pub fn mutant_killed(target: &VerifyTarget, mutant: &Mutant) -> bool {
    match &target.mode {
        VerifyMode::Direct => verify_program(&mutant.program, &target.spec).is_err(),
        VerifyMode::Emulation { original } => {
            verify_emulation(original, &mutant.program, &target.spec).is_err()
        }
    }
}

/// Proof-guided mutants of a verified target (see `hfi_verify::mutate`).
pub fn mutants_for(target: &VerifyTarget, proof: &Proof) -> Vec<Mutant> {
    match &target.mode {
        VerifyMode::Direct => direct_mutants(&target.program, proof),
        VerifyMode::Emulation { .. } => emulation_mutants(&target.program),
    }
}

/// The full target set. `smoke` truncates each kernel suite to its first
/// three entries (the CI convention across the bench binaries).
pub fn all_targets(smoke: bool) -> Vec<VerifyTarget> {
    let mut targets = Vec::new();
    let mut kernels = sightglass::suite(1);
    kernels.extend(speclike::suite(1));
    if smoke {
        kernels.truncate(3);
    }

    for kernel in &kernels {
        // Explicit software bounds checks: direct verification.
        let bounds_opts = CompileOptions::new(Isolation::BoundsChecks);
        let bounds = compile_cached(kernel, &bounds_opts);
        let spec = sandbox_spec(&bounds_opts).expect("bounds checks publish a spec");
        targets.push(VerifyTarget {
            name: format!("{}/bounds", kernel.name),
            spec,
            mode: VerifyMode::Direct,
            program: bounds.program.clone(),
        });

        // HFI: the real instructions, their A.2 emulation (translation
        // validation), and the guarded emulation (standalone).
        let hfi_opts = CompileOptions::new(Isolation::Hfi);
        let hfi = compile_cached(kernel, &hfi_opts);
        let spec = sandbox_spec(&hfi_opts).expect("sandboxed hfi publishes a spec");
        targets.push(VerifyTarget {
            name: format!("{}/hfi", kernel.name),
            spec: spec.clone(),
            mode: VerifyMode::Direct,
            program: hfi.program.clone(),
        });
        if uses_hfi(&hfi.program) {
            targets.push(VerifyTarget {
                name: format!("{}/hfi-emulated", kernel.name),
                spec,
                mode: VerifyMode::Emulation {
                    original: hfi.program.clone(),
                },
                program: Arc::new(emulate(&hfi.program)),
            });
        }
        let guarded = guarded_emulation(&hfi).expect("hfi kernels are guardable");
        targets.push(VerifyTarget {
            name: format!("{}/hfi-guarded", kernel.name),
            spec: guarded_spec(&hfi.options),
            mode: VerifyMode::Direct,
            program: Arc::new(guarded.program),
        });
    }

    // Transition-scheme variants. The springboard build publishes the
    // zeroing + stack-switch contract, which is what gives the
    // `unzeroed-leak` / `skipped-stack-switch` mutation classes their
    // sites; the zero-cost build of the pure-compute probe exercises
    // the elision-proof pass (it only verifies because the probe's body
    // provably cannot observe the elided springboard).
    let probe = sightglass::fib2(1);
    let spring_opts = CompileOptions::hfi_with_scheme(TransitionScheme::FullSpringboard);
    let spring = compile_cached(&kernels[0], &spring_opts);
    targets.push(VerifyTarget {
        name: format!("{}/hfi-springboard", kernels[0].name),
        spec: sandbox_spec(&spring_opts).expect("sandboxed hfi publishes a spec"),
        mode: VerifyMode::Direct,
        program: spring.program.clone(),
    });
    let zero_opts = CompileOptions::hfi_with_scheme(TransitionScheme::ZeroCost);
    let zero = compile_cached(&probe, &zero_opts);
    targets.push(VerifyTarget {
        name: format!("{}/hfi-zerocost", probe.name),
        spec: sandbox_spec(&zero_opts).expect("sandboxed hfi publishes a spec"),
        mode: VerifyMode::Direct,
        program: zero.program.clone(),
    });

    // The hfi-native §6.4.1 interposition benchmark under each mechanism.
    for mechanism in [
        Interposition::None,
        Interposition::Seccomp,
        Interposition::Hfi,
    ] {
        targets.push(VerifyTarget {
            name: format!("syscalls/{mechanism:?}").to_lowercase(),
            spec: interposition_spec(mechanism),
            mode: VerifyMode::Direct,
            program: Arc::new(benchmark_program(20, mechanism)),
        });
    }

    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_smoke_set_covers_every_family_and_verifies() {
        let targets = all_targets(true);
        for family in [
            "/bounds",
            "/hfi",
            "/hfi-emulated",
            "/hfi-guarded",
            "/hfi-springboard",
            "/hfi-zerocost",
            "syscalls/",
        ] {
            assert!(
                targets.iter().any(|t| t.name.contains(family)),
                "no target from family {family}"
            );
        }
        for target in &targets {
            let result = verify_target(target);
            assert!(
                result.is_ok(),
                "{} failed verification: {:?}",
                target.name,
                result.err()
            );
        }
    }
}
