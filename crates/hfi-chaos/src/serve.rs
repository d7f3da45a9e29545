//! Serving-level fault classes: what a *tenant or host* does wrong, as
//! opposed to the datapath bit-flips in [`FaultClass`](crate::FaultClass).
//!
//! The site-level campaign proves the *mechanism* is fail-closed; this
//! module supplies the fault models for proving the *serving tier* is
//! fault-contained — one misbehaving tenant degrades only its own
//! requests. Each class maps to a concrete scheduler-visible scenario
//! driven by `chaos_campaign --serve`:
//!
//! * [`ServeFaultClass::WorkerDeath`] — a shard worker exits mid-shift
//!   (`ServeConfig::worker_deaths` in `hfi-serve`); survivors must
//!   steal the orphaned queue and every request still completes.
//! * [`ServeFaultClass::WedgedRequest`] — a runaway kernel that never
//!   halts; the request's deadline, read by the scheduler between
//!   slices of the run, must cancel it (`DeadlineExceeded`) instead of
//!   wedging the worker.
//! * [`ServeFaultClass::PanicOnDispatch`] — a [`PanicHook`] unwinds the
//!   Nth dispatch; the scheduler must contain it (`Panicked`),
//!   quarantine the poisoned instance, and keep serving co-tenants.
//! * [`ServeFaultClass::CompileFailureBurst`] — a tenant that can never
//!   pass verify-before-admit; repeated `Rejected` outcomes must trip
//!   its circuit breaker (`CircuitOpen`) so the pool stops paying the
//!   admission cost.
//!
//! The hooks here are deterministic: [`PanicHook`] fires on an exact
//! observed-event ordinal, so a soak is reproducible from its seed.

use hfi_sim::{ArchEvent, ChaosHook};

/// The serving-tier fault classes `chaos_campaign --serve` soaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeFaultClass {
    /// A shard worker thread exits mid-shift; its queue must be stolen.
    WorkerDeath,
    /// A kernel that never halts; only the deadline can stop it.
    WedgedRequest,
    /// A run panics on its Nth dispatched event; the instance must be
    /// quarantined and the panic contained to that one request.
    PanicOnDispatch,
    /// A tenant that persistently fails verify-before-admit; its
    /// breaker must open.
    CompileFailureBurst,
}

impl ServeFaultClass {
    /// Every class, in matrix order.
    pub const ALL: [ServeFaultClass; 4] = [
        ServeFaultClass::WorkerDeath,
        ServeFaultClass::WedgedRequest,
        ServeFaultClass::PanicOnDispatch,
        ServeFaultClass::CompileFailureBurst,
    ];

    /// Stable label for matrices and journals.
    pub fn label(&self) -> &'static str {
        match self {
            ServeFaultClass::WorkerDeath => "worker-death",
            ServeFaultClass::WedgedRequest => "wedged-request",
            ServeFaultClass::PanicOnDispatch => "panic-on-dispatch",
            ServeFaultClass::CompileFailureBurst => "compile-failure-burst",
        }
    }
}

impl std::fmt::Display for ServeFaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A [`ChaosHook`] that panics when the run retires its `nth` observed
/// architectural event (0-based), modeling a guest-triggered host bug —
/// the poster-child fault the serving tier must contain rather than
/// crash on. Deterministic: same program, same `nth`, same panic site.
#[derive(Debug)]
pub struct PanicHook {
    remaining: u64,
}

impl PanicHook {
    /// A hook that panics on observed event number `nth` (0-based).
    pub fn new(nth: u64) -> Self {
        PanicHook { remaining: nth }
    }
}

impl ChaosHook for PanicHook {
    fn observe(&mut self, _event: &ArchEvent) {
        if self.remaining == 0 {
            panic!("injected serve-fault panic (PanicOnDispatch)");
        }
        self.remaining -= 1;
    }
}

/// Installs a process-wide panic hook that swallows the default
/// backtrace spam from *injected* serve-fault panics — the scheduler
/// catches and classifies them, so the stderr noise carries no
/// information — while forwarding every other panic to the previous
/// hook untouched. Idempotent; call it once at the top of a soak.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected serve-fault panic"));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfi_sim::{Executor, Functional, ProgramBuilder, Reg, Stop};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn straight_line_program() -> Arc<hfi_sim::Program> {
        let mut asm = ProgramBuilder::new(0x1000);
        for i in 0..8 {
            asm.movi(Reg(0), i);
        }
        asm.halt();
        Arc::new(asm.finish())
    }

    #[test]
    fn panic_hook_fires_on_the_exact_nth_event() {
        let program = straight_line_program();
        // nth beyond the run: no panic, run completes.
        let mut functional = Functional::new(program.clone());
        functional.set_chaos(Box::new(PanicHook::new(1_000_000)));
        assert_eq!(Executor::run(&mut functional, 1_000), Stop::Halted);

        // nth inside the run: the panic unwinds out of `run`.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut functional = Functional::new(program);
            functional.set_chaos(Box::new(PanicHook::new(2)));
            Executor::run(&mut functional, 1_000)
        }));
        let payload = result.expect_err("the hook must panic mid-run");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-string payload");
        assert!(message.contains("PanicOnDispatch"), "got: {message}");
    }

    #[test]
    fn class_labels_are_stable_and_distinct() {
        let labels: Vec<&str> = ServeFaultClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "worker-death",
                "wedged-request",
                "panic-on-dispatch",
                "compile-failure-burst"
            ]
        );
    }
}
