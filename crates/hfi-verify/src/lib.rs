//! Static sandbox-safety verification for HFI programs, in the
//! VeriWasm tradition of checking the *output* of a sandboxing compiler
//! rather than trusting the compiler itself.
//!
//! The HFI paper's security story rests on two legs: the hardware bounds
//! checks of `hmov` (§3), and — for the A.2 *emulation* used to measure
//! overheads on today's silicon — the claim that the emulated
//! instruction stream faithfully stands in for the real one. Both legs
//! are only as strong as the code emitter. This crate closes that gap
//! with an abstract-interpretation dataflow pass over the program's
//! pre-decoded plan ([`hfi_sim::Program::plan`]):
//!
//! 1. **Memory safety** — every plain load/store effective address is
//!    provably confined to a spec-declared data window, via a
//!    value-range lattice ([`AbsVal`]) that recognizes the three guard
//!    idioms in use: bounds-compare-and-branch, mask-and, and the
//!    hardware-checked `hmov` itself.
//! 2. **Control safety** — every static branch/jump/call target lands on
//!    a block-table entry, indirect jumps only flow the hardware resume
//!    PC, and `hfi_enter`/`hfi_exit` pair correctly on all paths (a
//!    depth-interval analysis).
//! 3. **Region metadata** — the `hfi_set_region` payloads match the
//!    [`SandboxSpec`] the producer published, under the architectural
//!    slot-kind rule re-checked from `hfi-core`.
//!
//! A successful run returns a [`Proof`] naming the guard instructions
//! the verdict rests on; [`mutate`] turns those into fault-injection
//! mutants that the test suite demands are *all* rejected — the
//! verifier is continuously shown to bite, not just to accept.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod lattice;
pub mod mutate;
pub mod spec;
pub mod verify;

pub use cache::{
    passes_hash, proof_cache_stats, reset_proof_cache, spec_hash, verify_emulation_cached,
    verify_program_cached, ProofCacheStats, ProofDigest, PASS_VERSIONS,
};
pub use lattice::{AbsVal, NO_DEF};
pub use mutate::{direct_mutants, emulation_mutants, Mutant, MutationClass};
pub use spec::{DataWindow, SandboxSpec};
pub use verify::{
    block_successors, verify_emulation, verify_program, ElisionProof, GuardKind, GuardSite, Proof,
    Reason, TransitionEvidence, Violation,
};
