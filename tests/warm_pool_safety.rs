//! Warm-pool generation safety: a reused (warm) instance must be
//! indistinguishable from a freshly built one.
//!
//! The serving tier's whole economy rests on reuse — `release` resets
//! the executor and re-prepares the heap image instead of tearing the
//! sandbox down (`crates/hfi-serve/src/pool.rs`). If any guest state
//! survived that reset (registers, sparse memory, the page-translation
//! cache, the chaos hook, the point the next run resumes at), a tenant
//! could observe — or be corrupted by — a previous run. This property
//! test drives a seeded random checkout sequence over the full HFI
//! kernel suite and demands that every run's `RunRecord`, result
//! register, and final heap window are byte-identical to a single-use
//! reference instance of the same kernel. Leased runs are block-stepped;
//! every other kernel's
//! reference runs on the per-op reference loop instead
//! (`Functional::run_reference`), so the comparison also spans both
//! interpreter loops.

use std::sync::Arc;

use hfi_bench::{compile_cached, FUNCTIONAL_LIMIT};
use hfi_serve::{AdmitPolicy, Lease, TenantSpec, Tier, WarmPools};
use hfi_sim::{Executor, Functional, Program, RunRecord, Stop};
use hfi_util::Rng;
use hfi_wasm::compiler::{CompileOptions, Isolation};
use hfi_wasm::kernels::{sightglass, speclike};

/// Heap bytes compared after every run. The suite's kernels keep their
/// working set well inside this window, so any stray write a reset
/// failed to scrub lands in the comparison.
const MEM_WINDOW: usize = 64 * 1024;

/// Random checkout steps over the tenant table.
const STEPS: usize = 150;

/// What a single-use instance of a kernel produces.
struct Reference {
    record: RunRecord,
    r0: u64,
    heap: Vec<u8>,
}

fn fresh_reference(
    program: &Arc<Program>,
    per_op: bool,
    heap_base: u64,
    heap_init: &[(u32, Vec<u8>)],
) -> Reference {
    let mut functional = Functional::new(Arc::clone(program));
    for (off, bytes) in heap_init {
        Executor::prepare(&mut functional, heap_base + *off as u64, bytes);
    }
    let stop = if per_op {
        functional.run_reference(FUNCTIONAL_LIMIT).stop
    } else {
        Executor::run(&mut functional, FUNCTIONAL_LIMIT)
    };
    assert_eq!(stop, Stop::Halted, "reference run must halt");
    Reference {
        record: Executor::stats(&functional),
        r0: Executor::regs(&functional)[0],
        heap: functional.mem.read_bytes(heap_base, MEM_WINDOW),
    }
}

/// Runs a leased instance once and checks it against the single-use
/// reference for its kernel.
fn run_and_check(lease: &mut Lease, reference: &Reference, heap_base: u64, name: &str) {
    let executor = lease.instance.executor_mut();
    let stop = executor.run(FUNCTIONAL_LIMIT);
    assert_eq!(stop, Stop::Halted, "{name}: leased run must halt");
    let record = executor.stats();
    let r0 = executor.regs()[0];
    assert_eq!(
        record, reference.record,
        "{name}: reused instance's RunRecord diverged from a fresh one"
    );
    assert_eq!(
        r0, reference.r0,
        "{name}: reused instance returned a different result"
    );
    let functional = lease
        .instance
        .functional_mut()
        .expect("suite tenants run on the functional tier");
    let heap = functional.mem.read_bytes(heap_base, MEM_WINDOW);
    assert!(
        heap == reference.heap,
        "{name}: final heap image diverged between fresh and reused instances"
    );
}

#[test]
fn warm_reuse_is_indistinguishable_from_fresh_instances() {
    let mut kernels = sightglass::suite(1);
    kernels.extend(speclike::suite(1));
    let opts = CompileOptions::new(Isolation::Hfi);
    let heap_base = opts.heap_base;

    let mut references = Vec::with_capacity(kernels.len());
    let mut tenants = Vec::with_capacity(kernels.len());
    for (i, kernel) in kernels.iter().enumerate() {
        let compiled = compile_cached(kernel, &opts);
        references.push(fresh_reference(
            &compiled.program,
            i % 2 == 0,
            heap_base,
            &kernel.heap_init,
        ));
        assert_eq!(
            references[i].r0, kernel.expected,
            "{}: reference disagrees with the kernel's published result",
            kernel.name
        );
        tenants.push(TenantSpec::from_program(
            kernel.name.clone(),
            compiled.program.clone(),
            compiled.verdict.clone(),
            Isolation::Hfi,
            Tier::Functional,
            heap_base,
            kernel
                .heap_init
                .iter()
                .map(|(off, bytes)| (*off as u64, bytes.clone()))
                .collect(),
            Some(kernel.expected),
        ));
    }
    let n = tenants.len();
    let pools = WarmPools::new(
        Arc::new(tenants),
        42,
        64 << 20,
        AdmitPolicy::RequireVerified,
    );

    let mut rng = Rng::new(0x5741_524D); // "WARM"
    let mut checkouts = 0u64;
    let mut warm_seen = 0u64;
    for _ in 0..STEPS {
        let j = rng.below(n as u64) as usize;
        let name = &pools.tenants()[j].name.clone();
        if rng.below(8) == 0 {
            // Occasionally hold two leases of the same tenant at once:
            // the second checkout must cold-build a second instance,
            // and both must still match the reference independently.
            let mut first = pools.checkout(j).expect("first lease");
            let mut second = pools.checkout(j).expect("second lease");
            run_and_check(&mut first, &references[j], heap_base, name);
            run_and_check(&mut second, &references[j], heap_base, name);
            checkouts += 2;
            warm_seen += u64::from(first.warm) + u64::from(second.warm);
            if rng.below(2) == 0 {
                pools.release(first);
                pools.release(second);
            } else {
                pools.release(second);
                pools.release(first);
            }
        } else {
            let mut lease = pools.checkout(j).expect("lease");
            if lease.warm {
                warm_seen += 1;
                assert!(
                    lease.instance.generation() >= 1,
                    "{name}: warm hit on a never-reused instance"
                );
            }
            run_and_check(&mut lease, &references[j], heap_base, name);
            checkouts += 1;
            pools.release(lease);
        }
    }

    let stats = pools.stats();
    assert_eq!(
        stats.warm_hits + stats.cold_builds,
        checkouts,
        "every checkout is either a warm hit or a cold build"
    );
    assert_eq!(stats.warm_hits, warm_seen);
    assert!(
        stats.warm_hits > stats.cold_builds,
        "the sequence must actually exercise reuse (warm {} vs cold {})",
        stats.warm_hits,
        stats.cold_builds
    );
    assert_eq!(stats.admission_rejects, 0);
}

/// Quarantine safety: after a random interleaving of panicking and
/// healthy checkouts across the full kernel suite, no quarantined
/// instance (tracked by its pool-unique serial) is ever leased again,
/// and healthy reuse stays byte-identical to a fresh instance — a
/// poisoned neighbor must not perturb the survivors.
#[test]
fn quarantined_instances_never_return_and_reuse_stays_pristine() {
    let mut kernels = sightglass::suite(1);
    kernels.extend(speclike::suite(1));
    let opts = CompileOptions::new(Isolation::Hfi);
    let heap_base = opts.heap_base;

    let mut references = Vec::with_capacity(kernels.len());
    let mut tenants = Vec::with_capacity(kernels.len());
    for (i, kernel) in kernels.iter().enumerate() {
        let compiled = compile_cached(kernel, &opts);
        references.push(fresh_reference(
            &compiled.program,
            i % 2 == 0,
            heap_base,
            &kernel.heap_init,
        ));
        tenants.push(TenantSpec::from_program(
            kernel.name.clone(),
            compiled.program.clone(),
            compiled.verdict.clone(),
            Isolation::Hfi,
            Tier::Functional,
            heap_base,
            kernel
                .heap_init
                .iter()
                .map(|(off, bytes)| (*off as u64, bytes.clone()))
                .collect(),
            Some(kernel.expected),
        ));
    }
    let n = tenants.len();
    let pools = WarmPools::new(
        Arc::new(tenants),
        42,
        64 << 20,
        AdmitPolicy::RequireVerified,
    );

    let mut rng = Rng::new(0x5155_4152); // "QUAR"
    let mut quarantined_serials: Vec<u64> = Vec::new();
    let mut quarantines = 0u64;
    let mut healthy_runs = 0u64;
    for _ in 0..STEPS {
        let j = rng.below(n as u64) as usize;
        let name = &pools.tenants()[j].name.clone();
        let mut lease = pools.checkout(j).expect("lease");
        assert!(
            !quarantined_serials.contains(&lease.instance.serial()),
            "{name}: a quarantined instance was leased again"
        );
        if rng.below(4) == 0 {
            // A "panicking" checkout: the instance is scribbled on
            // mid-run (partial state, as an unwound run leaves behind)
            // and then quarantined instead of released.
            let executor = lease.instance.executor_mut();
            let _ = executor.run(64); // partial run: mid-flight state
            if let Some(functional) = lease.instance.functional_mut() {
                functional
                    .mem
                    .write_bytes(heap_base, &[0xBA, 0xD0, 0xBA, 0xD0]);
            }
            quarantined_serials.push(lease.instance.serial());
            pools.quarantine(lease);
            quarantines += 1;
        } else {
            run_and_check(&mut lease, &references[j], heap_base, name);
            healthy_runs += 1;
            pools.release(lease);
        }
    }

    let stats = pools.stats();
    assert_eq!(stats.quarantined, quarantines);
    assert!(
        quarantines > 0 && healthy_runs > 0,
        "the sequence must mix panicking ({quarantines}) and healthy ({healthy_runs}) checkouts"
    );
    // The pool's own quarantine ledger agrees with ours.
    let ledger: u64 = (0..n)
        .map(|t| pools.quarantined_serials(t).len() as u64)
        .sum();
    assert_eq!(ledger, quarantines);
    for tenant in 0..n {
        for serial in pools.quarantined_serials(tenant) {
            assert!(
                quarantined_serials.contains(&serial),
                "pool quarantined a serial this test never condemned"
            );
        }
    }
}
