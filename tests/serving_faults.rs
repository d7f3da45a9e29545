//! Serving-outcome taxonomy: every fault-containment [`Outcome`]
//! variant is reachable through a deterministic scenario, and the
//! classification is identical with and without a request deadline.
//!
//! This is the serving-tier sibling of
//! `crates/hfi-sim/tests/fault_taxonomy.rs` (which pins the
//! *architectural* fault taxonomy). A served run is block-stepped
//! whatever hook it carries; a request with a deadline runs its step
//! budget in slices, each resuming where the last one stopped, and the
//! scheduler reads the clock between them. A fault class that only
//! classified correctly without that slicing would make chaos campaigns
//! and degradation gates deadline-dependent — so each scenario whose
//! request has neither a deadline nor a chaos hook of its own runs twice
//! ([`PATHS`]), with no deadline and with one that never fires, and
//! asserts the same outcome shape. A scenario built on a deadline or a
//! hook runs once.
//!
//! The test names say "both tiers" after the two interpreter loops the
//! deadline once chose between.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hfi_chaos::PanicHook;
use hfi_serve::{
    AdmitPolicy, Outcome, Request, Scheduler, ServeConfig, TenantSpec, Tier, WarmPools,
};
use hfi_sim::{AluOp, Program, ProgramBuilder, Reg, Stop};
use hfi_wasm::compiler::{Isolation, VerifyVerdict};

const HEAP_BASE: u64 = 0x1000_0000;

fn tiny_program(result: u64) -> Arc<Program> {
    let mut asm = ProgramBuilder::new(0x1000);
    asm.movi(Reg(0), result as i64);
    asm.halt();
    Arc::new(asm.finish())
}

/// A kernel that increments forever; only a deadline can stop it.
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

fn pools_with(program: Arc<Program>, verdict: VerifyVerdict) -> Arc<WarmPools> {
    let tenants = vec![TenantSpec::from_program(
        "t0".to_string(),
        program,
        verdict,
        Isolation::Hfi,
        Tier::Functional,
        HEAP_BASE,
        Vec::new(),
        None,
    )];
    Arc::new(WarmPools::new(
        Arc::new(tenants),
        42,
        64 << 20,
        AdmitPolicy::VerifiedOrExempt,
    ))
}

fn request(limit: u64, deadline: Option<Duration>) -> Request {
    Request {
        tenant: 0,
        arrival_ns: 0,
        limit,
        deadline,
        chaos: None,
    }
}

/// The two deadlines every plain scenario runs under: none, and one far
/// enough out never to fire (the run goes on from slice to slice). Both
/// runs take the block-stepped loop.
const PATHS: [Option<Duration>; 2] = [None, Some(Duration::from_secs(600))];

#[test]
fn zero_deadline_classifies_as_queue_expiry_on_both_tiers() {
    let pools = pools_with(tiny_program(7), VerifyVerdict::Unchecked);
    let scheduler = Scheduler::new(Arc::clone(&pools), 1);
    scheduler.submit(request(1_000, Some(Duration::ZERO)));
    let completions = scheduler.finish();
    assert_eq!(completions.len(), 1);
    assert_eq!(
        completions[0].outcome,
        Outcome::DeadlineExceeded { ran: false },
        "a zero budget must expire in queue"
    );
    assert_eq!(
        pools.stats().cold_builds,
        0,
        "an expired request must not pay for a checkout"
    );
}

#[test]
fn runaway_kernels_are_cancelled_mid_run_on_both_tiers() {
    let pools = pools_with(runaway_program(), VerifyVerdict::Unchecked);
    let scheduler = Scheduler::new(pools, 1);
    let started = Instant::now();
    scheduler.submit(request(u64::MAX, Some(Duration::from_millis(20))));
    let completions = scheduler.finish();
    assert_eq!(completions.len(), 1);
    assert_eq!(
        completions[0].outcome,
        Outcome::DeadlineExceeded { ran: true },
        "the deadline must cancel the runaway mid-run"
    );
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "cancellation must come from the deadline, not budget exhaustion"
    );
}

#[test]
fn panics_quarantine_then_trip_the_breaker_identically_on_both_tiers() {
    hfi_chaos::silence_injected_panics();
    for deadline in PATHS {
        let pools = pools_with(tiny_program(7), VerifyVerdict::Unchecked);
        let config = ServeConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(300),
            ..ServeConfig::default()
        };
        let scheduler = Scheduler::with_config(Arc::clone(&pools), 1, config);
        for _ in 0..3 {
            scheduler.submit(Request {
                chaos: Some(Box::new(PanicHook::new(0))),
                ..request(1_000, deadline)
            });
        }
        let mut completions = scheduler.finish();
        completions.sort_by_key(|c| c.finish_ns);
        let labels: Vec<&str> = completions
            .iter()
            .map(|c| match &c.outcome {
                Outcome::Panicked { .. } => "panicked",
                Outcome::CircuitOpen => "circuit-open",
                other => panic!("{deadline:?}: unexpected outcome {other:?}"),
            })
            .collect();
        assert_eq!(
            labels,
            vec!["panicked", "panicked", "circuit-open"],
            "{deadline:?}: two panics open the breaker, the third sheds"
        );
        assert_eq!(
            pools.stats().quarantined,
            2,
            "{deadline:?}: each panicked lease is quarantined"
        );
    }
}

#[test]
fn admission_rejections_classify_identically_on_both_tiers() {
    for deadline in PATHS {
        let pools = pools_with(tiny_program(7), VerifyVerdict::Rejected(Vec::new()));
        let scheduler = Scheduler::new(pools, 1);
        scheduler.submit(request(1_000, deadline));
        let completions = scheduler.finish();
        assert_eq!(completions.len(), 1, "{deadline:?}");
        assert!(
            matches!(
                completions[0].outcome,
                Outcome::Rejected { stale: false, .. }
            ),
            "{deadline:?}: got {:?}",
            completions[0].outcome
        );
    }
}

#[test]
fn zero_capacity_queues_shed_deterministically_on_both_tiers() {
    for deadline in PATHS {
        let pools = pools_with(tiny_program(7), VerifyVerdict::Unchecked);
        let config = ServeConfig {
            queue_cap: 0,
            ..ServeConfig::default()
        };
        let scheduler = Scheduler::with_config(pools, 1, config);
        for _ in 0..4 {
            scheduler.submit(request(1_000, deadline));
        }
        let completions = scheduler.finish();
        assert_eq!(
            completions.len(),
            4,
            "{deadline:?}: shed requests still complete"
        );
        for completion in &completions {
            assert_eq!(completion.outcome, Outcome::Shed, "{deadline:?}");
            assert_eq!(completion.service_ns, 0, "{deadline:?}");
        }
    }
}

#[test]
fn healthy_requests_complete_bit_identically_across_tiers() {
    // The containment plumbing (slicing, catch_unwind, breakers)
    // must be invisible to a healthy run: same Stop, same result, and
    // the RunRecord counter surface identical between a run with no
    // deadline and one under a deadline that never fires.
    let mut records = Vec::new();
    for deadline in PATHS {
        let pools = pools_with(tiny_program(42), VerifyVerdict::Unchecked);
        let scheduler = Scheduler::new(pools, 1);
        scheduler.submit(request(1_000, deadline));
        let completions = scheduler.finish();
        match &completions[0].outcome {
            Outcome::Done { stop, record, r0 } => {
                assert_eq!(*stop, Stop::Halted, "{deadline:?}");
                assert_eq!(*r0, 42, "{deadline:?}");
                records.push(record.clone());
            }
            other => panic!("{deadline:?}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(
        records[0], records[1],
        "both runs must retire identical counter surfaces"
    );
}

#[test]
fn a_budget_that_is_not_a_multiple_of_the_slice_ends_where_an_unsliced_run_ends() {
    // A runaway under a deadline that never fires runs 10,000 steps as
    // two full slices and a short third: it must stop at its budget, not
    // at a slice boundary, with the counters of a run without deadline.
    let mut runs = Vec::new();
    for deadline in PATHS {
        let pools = pools_with(runaway_program(), VerifyVerdict::Unchecked);
        let scheduler = Scheduler::new(pools, 1);
        scheduler.submit(request(10_000, deadline));
        let completions = scheduler.finish();
        match &completions[0].outcome {
            Outcome::Done { stop, record, r0 } => {
                assert_eq!(*stop, Stop::CycleLimit, "{deadline:?}");
                assert_eq!(record.committed, 10_000, "{deadline:?}");
                runs.push((record.clone(), *r0));
            }
            other => panic!("{deadline:?}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(
        runs[0], runs[1],
        "a sliced run must retire the unsliced run's counter surface"
    );
}
