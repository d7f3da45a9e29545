//! Recycled-slot safety: a cold build that repurposes another tenant's
//! idle slot must be indistinguishable from a fresh instance.
//!
//! When a scheme's address space is full, `WarmPools` takes the
//! least-recently-used idle instance of that scheme and retargets its
//! executor to the new tenant's program: a plan swap plus an in-place
//! reset that keeps the memory's page buffers
//! (`crates/hfi-serve/src/pool.rs`). If anything of the victim survived
//! (a byte of its memory, its plan, a predictor entry, a cache line), a
//! tenant could observe its predecessor. This test serves GuardPages
//! tenants of several kernels on both tiers through a 35-bit address
//! space that holds only a few 8 GiB guard reservations, so most cold
//! builds retarget another tenant's executor. Every run's `RunRecord`,
//! `r0`, touched pages and their bytes must equal a fresh instance's.

use std::sync::Arc;

use hfi_bench::{compile_cached, FUNCTIONAL_LIMIT, MACHINE_LIMIT};
use hfi_serve::{AdmitPolicy, TenantSpec, Tier, WarmPools};
use hfi_sim::{Executor, Functional, Machine, RunRecord, Stop};
use hfi_util::Rng;
use hfi_wasm::compiler::{CompileOptions, Isolation};
use hfi_wasm::kernels::{sightglass, Kernel};

/// Kernels served on the cycle tier as well; the rest run functional
/// only. Their cycle-level runs take milliseconds.
const CYCLE_KERNELS: [&str; 3] = ["fib2", "ackermann", "ctype"];

/// Random checkouts over the tenant table.
const STEPS: usize = 240;

/// What a fresh instance of a tenant produces.
#[derive(Debug, PartialEq)]
struct Outcome {
    record: RunRecord,
    r0: u64,
    memory: Vec<(u64, Vec<u8>)>,
}

fn limit(tier: Tier) -> u64 {
    match tier {
        Tier::Cycle => MACHINE_LIMIT,
        Tier::Functional => FUNCTIONAL_LIMIT,
    }
}

fn fresh_outcome(kernel: &Kernel, opts: &CompileOptions, tier: Tier) -> Outcome {
    let program = compile_cached(kernel, opts).program;
    let run = |executor: &mut dyn Executor| {
        for (off, bytes) in &kernel.heap_init {
            executor.prepare(opts.heap_base + *off as u64, bytes);
        }
        assert_eq!(executor.run(limit(tier)), Stop::Halted);
        (executor.stats(), executor.regs()[0])
    };
    let ((record, r0), memory) = match tier {
        Tier::Cycle => {
            let mut machine = Machine::new(program);
            (run(&mut machine), machine.mem.snapshot())
        }
        Tier::Functional => {
            let mut functional = Functional::new(program);
            (run(&mut functional), functional.mem.snapshot())
        }
    };
    Outcome { record, r0, memory }
}

#[test]
fn recycled_slots_are_indistinguishable_from_fresh_instances() {
    let opts = CompileOptions::new(Isolation::GuardPages);
    let mut tenants = Vec::new();
    let mut fresh = Vec::new();
    for kernel in sightglass::suite(1) {
        if kernel.name == "sieve" {
            continue;
        }
        let mut tiers = vec![Tier::Functional];
        if CYCLE_KERNELS.contains(&kernel.name.as_str()) {
            tiers.push(Tier::Cycle);
        }
        for tier in tiers {
            fresh.push(fresh_outcome(&kernel, &opts, tier));
            assert_eq!(fresh.last().map(|o| o.r0), Some(kernel.expected));
            let name = format!("{}@{}", kernel.name, tier.as_str());
            tenants.push(TenantSpec::from_kernel(
                name,
                kernel.clone(),
                opts,
                tier,
                compile_cached,
            ));
        }
    }
    let n = tenants.len();
    let pools = WarmPools::new(
        Arc::new(tenants),
        35,
        64 << 20,
        AdmitPolicy::VerifiedOrExempt,
    );

    let mut rng = Rng::new(0x4EC7_C1ED);
    for step in 0..STEPS {
        let tenant = rng.below(n as u64) as usize;
        let spec = &pools.tenants()[tenant];
        let mut lease = pools.checkout(tenant).expect("an idle slot recycles");
        let executor = lease.instance.executor_mut();
        assert_eq!(
            executor.run(limit(spec.tier)),
            Stop::Halted,
            "{}",
            spec.name
        );
        let outcome = Outcome {
            record: executor.stats(),
            r0: executor.regs()[0],
            memory: lease.instance.memory().snapshot(),
        };
        assert!(
            outcome == fresh[tenant],
            "step {step}: {} (warm: {}, generation {}) diverged from a fresh instance",
            spec.name,
            lease.warm,
            lease.instance.generation()
        );
        pools.release(lease);
    }

    let stats = pools.stats();
    assert!(
        pools.resident() < n as u64 / 4,
        "the space holds only a few slots"
    );
    assert!(
        stats.recycled * 4 > STEPS as u64 * 3,
        "most checkouts recycle another tenant's slot ({} of {STEPS})",
        stats.recycled
    );
    assert_eq!(stats.warm_hits + stats.cold_builds, STEPS as u64);
}
