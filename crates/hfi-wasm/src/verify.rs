//! The compiler's published safety contracts, and the verify-after-compile
//! hook.
//!
//! VeriWasm-style: the compiler *publishes* what its output is supposed to
//! be allowed to do (a [`SandboxSpec`] per isolation strategy), and the
//! independent `hfi-verify` dataflow pass checks the generated code against
//! it. The spec is derived from [`CompileOptions`] alone — never from the
//! emitted instructions — so a compiler bug cannot silently relax the
//! contract it is checked against.

use std::sync::Arc;

use hfi_core::region::{ExplicitDataRegion, ImplicitCodeRegion, ImplicitDataRegion};
use hfi_core::Region;
use hfi_core::TransitionScheme;
use hfi_sim::{
    emulate, emulate_guarded, GuardedEmulation, GuardedEmulationError, GuardedOptions,
    EMULATION_BASE,
};
use hfi_verify::{verify_emulation_cached, verify_program_cached, Proof, SandboxSpec, Violation};

use crate::compiler::{compile, CompileOptions, CompiledKernel, Isolation};
use crate::ir::IrFunction;

/// Size of the spill/stack window: the 64 MiB implicit data region the
/// HFI prologue installs (and the area spill slots live in under every
/// strategy).
const SPILL_WINDOW: u64 = 0x400_0000;

/// Scratch register the guarded emulation masks addresses through: the
/// bounds-check scratch, which the HFI backend never allocates or touches.
const GUARD_SCRATCH: hfi_sim::Reg = hfi_sim::Reg(14);

/// The safety contract programs compiled under `opts` must satisfy, or
/// `None` for strategies with nothing statically checkable
/// ([`Isolation::None`]/[`Isolation::GuardPages`] rely on the MMU, and an
/// unsandboxed HFI build is a code-size measurement vehicle, not a
/// sandbox).
pub fn sandbox_spec(opts: &CompileOptions) -> Option<SandboxSpec> {
    match opts.isolation {
        Isolation::None | Isolation::GuardPages => None,
        Isolation::BoundsChecks => Some(
            SandboxSpec::new("wasm-bounds")
                .window("heap", opts.heap_base, opts.heap_size)
                .window("spill", opts.spill_base, SPILL_WINDOW),
        ),
        Isolation::Hfi => {
            if !opts.sandboxed {
                return None;
            }
            let code = ImplicitCodeRegion::new(opts.code_base, 0xF_FFFF, true).ok()?;
            let stack = ImplicitDataRegion::new(opts.spill_base, 0x3FF_FFFF, true, true).ok()?;
            let heap =
                ExplicitDataRegion::large(opts.heap_base, opts.heap_size, true, true).ok()?;
            let mut spec = SandboxSpec::new("wasm-hfi")
                .window("spill", opts.spill_base, SPILL_WINDOW)
                .slot(0, Region::Code(code))
                .slot(2, Region::Data(stack))
                .slot(6, Region::Explicit(heap))
                .require_enter()
                .require_exit();
            // The springboard obligations are derived from the options,
            // never from the emitted code: a scheme that promises zeroing
            // or a stack switch must statically establish it at the
            // enter, and the zero-cost scheme must *prove* the whole tax
            // elidable instead.
            if let Some(contract) = crate::compiler::transition_contract_for(opts) {
                spec = spec.transition_contract(contract);
            }
            let springboard_regs = crate::compiler::SPRINGBOARD_ZEROED_MASK
                | (1 << crate::compiler::SPRINGBOARD_STACK.0);
            spec.elision_regs = springboard_regs;
            if opts.scheme.requires_elision_proof() {
                spec = spec.require_elision(springboard_regs);
            }
            Some(spec)
        }
    }
}

/// The contract for the *guarded* A.2 emulation of an HFI kernel: no HFI
/// state left to check, but every former `hmov` must stay inside the
/// software mirror of the heap (mask guards), and spills inside the spill
/// window.
pub fn guarded_spec(opts: &CompileOptions) -> SandboxSpec {
    SandboxSpec::new("wasm-guarded")
        .window("mirror", EMULATION_BASE, opts.heap_size + 8)
        .window("spill", opts.spill_base, SPILL_WINDOW)
}

/// Compiles `func` under every [`TransitionScheme`] cheapest-first and
/// returns the first whose output the static verifier admits — the
/// verify-before-admit selection rule the serving tier uses per tenant.
///
/// The zero-cost scheme is only admitted when the verifier can *prove*
/// the springboard tax elidable (all springboard registers dead into the
/// sandbox, no in-sandbox guard-state mutation or syscall); kernels that
/// grow memory or take an exit handler organically fall back to the
/// cheapest taxed scheme. `None` only if no scheme verifies at all, or
/// the options carry no checkable spec (then nothing is "proven").
pub fn cheapest_proven_scheme(
    func: &IrFunction,
    base: &CompileOptions,
) -> Option<(TransitionScheme, CompiledKernel)> {
    for scheme in TransitionScheme::ALL {
        let mut opts = *base;
        opts.scheme = scheme;
        let compiled = compile(func, &opts);
        if compiled.verified() == Some(true) {
            return Some((scheme, compiled));
        }
    }
    None
}

/// Runs the static verifier on a compiled kernel against its published
/// spec, through the incremental proof cache. `None` when the strategy
/// has no spec.
pub fn verify_kernel(kernel: &CompiledKernel) -> Option<Result<Arc<Proof>, Vec<Violation>>> {
    let spec = sandbox_spec(&kernel.options)?;
    Some(verify_program_cached(&kernel.program, &spec))
}

/// Translation-validates the plain A.2 emulation of a kernel: the
/// original must verify under its spec, and the emulated stream must
/// correspond to it instruction-for-instruction. `None` when the kernel
/// has no spec or no HFI instructions to emulate.
pub fn verify_emulated_kernel(
    kernel: &CompiledKernel,
) -> Option<Result<Arc<Proof>, Vec<Violation>>> {
    let spec = sandbox_spec(&kernel.options)?;
    if !hfi_sim::uses_hfi(&kernel.program) {
        return None;
    }
    Some(verify_emulation_cached(
        &kernel.program,
        &emulate(&kernel.program),
        &spec,
    ))
}

/// The *guarded* emulation of an HFI kernel: index-masked software bounds
/// enforcement in place of the hardware check, independently verifiable
/// with [`guarded_spec`]. Uses the bounds-check scratch register, which
/// the HFI backend leaves dead.
pub fn guarded_emulation(
    kernel: &CompiledKernel,
) -> Result<GuardedEmulation, GuardedEmulationError> {
    emulate_guarded(
        &kernel.program,
        &GuardedOptions {
            scratch: GUARD_SCRATCH,
            bound: kernel.options.heap_size,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::kernels::sightglass_suite;
    use hfi_verify::verify_program;

    #[test]
    fn every_kernel_verifies_under_checkable_strategies() {
        for kernel in sightglass_suite(10) {
            for isolation in [Isolation::BoundsChecks, Isolation::Hfi] {
                let compiled = compile(&kernel.func, &CompileOptions::new(isolation));
                assert_eq!(
                    compiled.verified(),
                    Some(true),
                    "{} under {isolation} failed verification: {:?}",
                    kernel.name,
                    verify_kernel(&compiled).unwrap().err(),
                );
            }
        }
    }

    #[test]
    fn uncheckable_strategies_have_no_spec() {
        let kernel = &sightglass_suite(10)[0];
        for isolation in [Isolation::None, Isolation::GuardPages] {
            let compiled = compile(&kernel.func, &CompileOptions::new(isolation));
            assert_eq!(compiled.verified(), None);
        }
        let mut opts = CompileOptions::new(Isolation::Hfi);
        opts.sandboxed = false;
        let compiled = compile(&kernel.func, &opts);
        assert_eq!(compiled.verified(), None);
    }

    #[test]
    fn emulations_of_every_hfi_kernel_validate() {
        for kernel in sightglass_suite(10) {
            let compiled = compile(&kernel.func, &CompileOptions::new(Isolation::Hfi));
            let result = verify_emulated_kernel(&compiled).expect("hfi kernels have specs");
            assert!(
                result.is_ok(),
                "{} emulation failed validation: {:?}",
                kernel.name,
                result.err()
            );
        }
    }

    #[test]
    fn guarded_emulations_verify_standalone() {
        for kernel in sightglass_suite(10) {
            let compiled = compile(&kernel.func, &CompileOptions::new(Isolation::Hfi));
            let guarded = guarded_emulation(&compiled).expect("guardable");
            let spec = guarded_spec(&compiled.options);
            let result = verify_program(&guarded.program, &spec);
            assert!(
                result.is_ok(),
                "{} guarded emulation failed verification: {:?}",
                kernel.name,
                result.err()
            );
        }
    }
}
