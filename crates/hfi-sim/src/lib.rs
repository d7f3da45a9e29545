//! # hfi-sim — cycle-level CPU simulation for HFI (the gem5 substitute)
//!
//! The paper evaluates HFI with two vehicles (§5.2): a gem5 Skylake-like
//! out-of-order simulation, and a compiler-based emulation validated
//! against it. This crate rebuilds both:
//!
//! * [`core::Machine`] — a ROB-based speculative out-of-order core with
//!   branch prediction, L1/L2 caches and a dTLB, plus the HFI datapath of
//!   the paper's Fig. 1: implicit-region and `hmov` checks in parallel
//!   with the dTLB lookup (zero latency, and a failing check blocks the
//!   cache fill — the Spectre defence), code-region checks at decode
//!   (faulting NOPs), serialization drains, and syscall microcode
//!   redirection.
//! * [`functional::Functional`] — a fast architectural interpreter with a
//!   calibrated cost model for long-running workloads.
//! * [`emulation::emulate`] — the Appendix A.2 program transform
//!   (`hmov`→constant-base `mov`, enter/exit→`cpuid`), so the Fig. 2
//!   cross-validation can be reproduced: run both variants on the cycle
//!   core and compare.
//!
//! Programs are written against a micro-op-level ISA ([`isa`]) through a
//! label-based assembler ([`asm::ProgramBuilder`]).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod cache;
pub mod chaos;
pub mod core;
pub mod emulation;
pub mod exec;
pub mod functional;
pub mod isa;
pub mod mem;
pub mod plan;
pub mod predictor;

pub use crate::core::{CoreConfig, CoreStats, Machine, OsModel, RunResult, Stop, SyscallOutcome};
pub use asm::{Label, ProgramBuilder};
pub use cache::{Cache, CacheHierarchy, CacheLatencies};
pub use chaos::{ArchEvent, ChaosHook};
pub use emulation::{
    emulate, emulate_arc, emulate_guarded, uses_hfi, GuardedEmulation, GuardedEmulationError,
    GuardedOptions, EMULATION_BASE,
};
pub use exec::{Emulated, Executor, ExecutorKind, RunRecord};
pub use functional::{Functional, FunctionalCosts, FunctionalResult, FunctionalStats};
pub use isa::{AluOp, Cond, Fnv1a, HmovOperand, Inst, MemOperand, Program, Reg};
pub use mem::SparseMemory;
pub use plan::{plan_of, BasicBlock, DecodedProgram, EaTemplate, MicroOp, OpClass, SerializeClass};
