//! The three workloads: their tenants, their seeded request sequences,
//! and the timed set-up that compiles, verifies and provisions them.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use hfi_serve::{
    schedule, AdmitPolicy, Arrival, ArrivalProcess, PoolError, TenantSpec, Tier, WarmPools,
};
use hfi_sim::{Functional, Machine};
use hfi_util::Rng;
use hfi_verify::{proof_cache_stats, reset_proof_cache};
use hfi_wasm::compiler::{compile, CompileOptions, CompiledKernel, Isolation};
use hfi_wasm::kernels::{sightglass, speclike, Kernel};

use crate::trace;

/// Tenants of the two serving workloads.
pub const TENANTS: usize = 1200;
/// Address-space width of the serving runtimes (4 TiB): GuardPages fits
/// 511 resident instances here, HFI every tenant.
pub const VA_BITS: u32 = 42;
/// Per-sandbox heap reservation (64 MiB).
pub const MAX_HEAP: u64 = 64 << 20;
/// Fixed open-loop rate of `faas-warm`, requests per second.
pub const WARM_RATE_RPS: f64 = 1000.0;
/// Requests outstanding in the `faas-churn` closed loop.
pub const CHURN_OUTSTANDING: usize = 16;
/// Sightglass kernels left out of `faas-warm`: `sieve` alone would set
/// the tail, and the two tiny kernels are `faas-churn`'s.
const WARM_EXCLUDED: [&str; 3] = ["sieve", "fib2", "ackermann"];
/// The tiny kernels `faas-churn` serves.
const CHURN_KERNELS: [&str; 2] = ["fib2", "ackermann"];
/// Left out of `fig3-cycle`: one cell takes seconds on its own.
const FIG3_EXCLUDED: &str = "401.bzip2-like";
/// The isolation schemes of Fig. 3, in presentation order.
pub const FIG3_SCHEMES: [Isolation; 3] = [
    Isolation::GuardPages,
    Isolation::BoundsChecks,
    Isolation::Hfi,
];
/// Instruction budget of a functional-tier request.
const FUNCTIONAL_LIMIT: u64 = 50_000_000_000;
/// Cycle budget of a cycle-tier request.
const MACHINE_LIMIT: u64 = 4_000_000_000;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson traffic over 1,200 warm HFI tenants.
    FaasWarm,
    /// Closed-loop traffic over 1,200 GuardPages tenants that churn
    /// through 511 resident slots.
    FaasChurn,
    /// The Fig. 3 grid on the cycle-level machine, one cell at a time.
    Fig3Cycle,
}

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Seeded Poisson arrivals at a fixed rate, regardless of progress.
    Open {
        /// Offered rate, requests per second.
        rate_rps: f64,
    },
    /// A fixed number of requests in flight; each completion releases
    /// the next. The run ends on a multiple of `pass` submissions.
    Closed {
        /// Requests in flight.
        outstanding: usize,
        /// Submissions that make one whole pass over the sequence.
        pass: usize,
    },
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::FaasWarm, Workload::FaasChurn, Workload::Fig3Cycle];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FaasWarm => "faas-warm",
            Workload::FaasChurn => "faas-churn",
            Workload::Fig3Cycle => "fig3-cycle",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How this workload offers its requests.
    pub fn traffic(self) -> Traffic {
        match self {
            Workload::FaasWarm => Traffic::Open {
                rate_rps: WARM_RATE_RPS,
            },
            Workload::FaasChurn => Traffic::Closed {
                outstanding: CHURN_OUTSTANDING,
                pass: 1,
            },
            Workload::Fig3Cycle => Traffic::Closed {
                outstanding: 1,
                pass: fig3_kernels().len() * FIG3_SCHEMES.len(),
            },
        }
    }

    /// Run budget of one request, in the tier's native unit.
    pub fn limit(self) -> u64 {
        match self {
            Workload::Fig3Cycle => MACHINE_LIMIT,
            _ => FUNCTIONAL_LIMIT,
        }
    }

    fn tier(self) -> Tier {
        match self {
            Workload::Fig3Cycle => Tier::Cycle,
            _ => Tier::Functional,
        }
    }

    fn admit(self) -> AdmitPolicy {
        match self {
            // Every HFI tenant carries a proof; demand it.
            Workload::FaasWarm => AdmitPolicy::RequireVerified,
            // Guard pages publish no checkable contract.
            _ => AdmitPolicy::VerifiedOrExempt,
        }
    }

    /// The tenant table as (kernel, compile options) pairs.
    pub fn cells(self) -> Vec<(Kernel, CompileOptions)> {
        match self {
            Workload::FaasWarm => replicate(
                sightglass::suite(1)
                    .into_iter()
                    .filter(|k| !WARM_EXCLUDED.contains(&k.name.as_str()))
                    .collect(),
                Isolation::Hfi,
            ),
            Workload::FaasChurn => replicate(
                sightglass::suite(1)
                    .into_iter()
                    .filter(|k| CHURN_KERNELS.contains(&k.name.as_str()))
                    .collect(),
                Isolation::GuardPages,
            ),
            Workload::Fig3Cycle => fig3_kernels()
                .into_iter()
                .flat_map(|k| {
                    FIG3_SCHEMES
                        .into_iter()
                        .map(move |iso| (k.clone(), CompileOptions::new(iso)))
                })
                .collect(),
        }
    }
}

/// `kernels` round-robin over [`TENANTS`] tenants under `isolation`.
fn replicate(kernels: Vec<Kernel>, isolation: Isolation) -> Vec<(Kernel, CompileOptions)> {
    (0..TENANTS)
        .map(|i| {
            (
                kernels[i % kernels.len()].clone(),
                CompileOptions::new(isolation),
            )
        })
        .collect()
}

fn fig3_kernels() -> Vec<Kernel> {
    speclike::suite(1)
        .into_iter()
        .filter(|k| k.name != FIG3_EXCLUDED)
        .collect()
}

/// An endless seeded tenant stream: uniform draws, or back-to-back
/// seeded permutations of every tenant, so that every run serves the
/// same mix of kernels whatever its seed.
pub struct TenantStream {
    rng: Rng,
    tenants: usize,
    permute: bool,
    queue: Vec<usize>,
}

impl TenantStream {
    /// The stream `seed` gives `workload`.
    pub fn new(workload: Workload, seed: u64) -> TenantStream {
        TenantStream {
            rng: Rng::new(seed),
            tenants: workload.cells().len(),
            // faas-churn draws uniformly so that a tenant's instance is
            // sometimes still resident at its next request.
            permute: workload != Workload::FaasChurn,
            queue: Vec::new(),
        }
    }
}

impl Iterator for TenantStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if !self.permute {
            return Some(self.rng.below(self.tenants as u64) as usize);
        }
        if self.queue.is_empty() {
            // Fisher-Yates; popped from the back.
            self.queue = (0..self.tenants).collect();
            for i in (1..self.tenants).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.queue.swap(i, j);
            }
        }
        self.queue.pop()
    }
}

/// The seeded arrivals of an open workload offered at `rate_rps` for
/// `seconds`: times from the serving tier's Poisson schedule, tenants
/// from the workload's stream.
pub fn arrivals(workload: Workload, rate_rps: f64, seed: u64, seconds: u64) -> Vec<Arrival> {
    schedule(
        seed,
        ArrivalProcess::Poisson { rate_rps },
        seconds * 1_000_000_000,
        1,
    )
    .into_iter()
    .zip(TenantStream::new(workload, seed))
    .map(|(arrival, tenant)| Arrival { tenant, ..arrival })
    .collect()
}

/// The first `n` tenants of the sequence `seed` gives `workload`, open
/// or closed.
pub fn tenant_prefix(workload: Workload, seed: u64, n: usize) -> Vec<usize> {
    TenantStream::new(workload, seed).take(n).collect()
}

/// Compiled kernels by (kernel name, `Debug` of the compile options).
static COMPILE_MEMO: Mutex<BTreeMap<(String, String), CompiledKernel>> =
    Mutex::new(BTreeMap::new());

fn memo() -> MutexGuard<'static, BTreeMap<(String, String), CompiledKernel>> {
    COMPILE_MEMO.lock().expect("compile memo unpoisoned")
}

/// The compile entry point handed to every `TenantSpec`: memoized per
/// kernel × options, so all replicas of a kernel share one program.
/// Called inside a benchmark span it records a `compile` span (a hit
/// shows as a short span inside the checkout that asked); calls from
/// scheduler workers record nothing, which keeps the traced pass as
/// cheap as the untraced one.
pub fn compile_memo(kernel: &Kernel, opts: &CompileOptions) -> CompiledKernel {
    let span = trace::nested().then(|| trace::open("compile"));
    let key = (kernel.name.clone(), format!("{opts:?}"));
    let hit = memo().get(&key).cloned();
    let missed = hit.is_none();
    let compiled = hit.unwrap_or_else(|| {
        let compiled = compile(&kernel.func, opts);
        memo().insert(key, compiled.clone());
        compiled
    });
    if let Some(mut span) = span {
        span.set_detail(if missed { "miss" } else { "hit" });
        span.close();
    }
    compiled
}

/// Timings and counts of one set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    /// Whole set-up, seconds.
    pub total_s: f64,
    /// Compiling every distinct kernel × options (verification inside
    /// the compiler included), nanoseconds.
    pub compile_ns: u64,
    /// Cold-building and releasing every tenant, nanoseconds.
    pub provision_ns: u64,
    /// Proof-cache hits over the set-up.
    pub proof_hits: u64,
    /// Proof-cache misses over the set-up.
    pub proof_misses: u64,
}

/// Builds `workload` from nothing: generates its kernels, clears the
/// compile memo and the proof cache, compiles and verifies every
/// distinct cell, then cold-builds and releases every tenant into fresh
/// pools. This is what `setup_s` times.
///
/// # Errors
///
/// A tenant the pools refuse: the workload is misconfigured.
pub fn setup(workload: Workload) -> Result<(Arc<WarmPools>, SetupReport), PoolError> {
    let setup = trace::open("setup");
    memo().clear();
    reset_proof_cache();
    let cells = workload.cells();
    let mut report = SetupReport::default();
    for (kernel, opts) in distinct(&cells) {
        let t0 = trace::now_ns();
        compile_memo(kernel, opts);
        report.compile_ns += trace::now_ns() - t0;
    }
    let provision = trace::open("provision");
    let pools = provision_pools(workload, cells)?;
    report.provision_ns = provision.close();
    let proofs = proof_cache_stats();
    report.proof_hits = proofs.hits_identity + proofs.hits_digest;
    report.proof_misses = proofs.misses;
    report.total_s = setup.close() as f64 / 1e9;
    Ok((pools, report))
}

/// The first cell of each kernel × isolation in `cells`.
fn distinct(cells: &[(Kernel, CompileOptions)]) -> Vec<&(Kernel, CompileOptions)> {
    let mut seen: Vec<(&str, Isolation)> = Vec::new();
    cells
        .iter()
        .filter(|(kernel, opts)| {
            let key = (kernel.name.as_str(), opts.isolation);
            let new = !seen.contains(&key);
            if new {
                seen.push(key);
            }
            new
        })
        .collect()
}

/// Layer timings of a set-up's parts that `setup` itself does not
/// repeat, measured apart from it.
#[derive(Debug, Clone, Default)]
pub struct LayerProbe {
    /// Verifying every distinct program with the proof cache cleared,
    /// nanoseconds.
    pub verify_cold_ns: u64,
    /// Building one executor per distinct program, which includes its
    /// pre-decode, nanoseconds.
    pub engine_new_ns: u64,
}

/// Times `verify_kernel` on a cold proof cache and one executor build
/// for every distinct program of `workload`, in `verify` and
/// `engine_new` spans. The programs come from the compile memo, so this
/// runs after [`setup`]; it leaves every program's proof cached again.
pub fn probe_layers(workload: Workload) -> LayerProbe {
    let cells = workload.cells();
    let programs: Vec<CompiledKernel> = distinct(&cells)
        .into_iter()
        .map(|(kernel, opts)| compile_memo(kernel, opts))
        .collect();
    let mut probe = LayerProbe::default();
    reset_proof_cache();
    for kernel in &programs {
        let span = trace::open("verify");
        let verdict = hfi_wasm::verify_kernel(kernel);
        probe.verify_cold_ns += span.close();
        std::hint::black_box(verdict);
    }
    for kernel in &programs {
        let span = trace::open("engine_new");
        match workload.tier() {
            Tier::Cycle => drop(std::hint::black_box(Machine::new(Arc::clone(
                &kernel.program,
            )))),
            _ => drop(std::hint::black_box(Functional::new(Arc::clone(
                &kernel.program,
            )))),
        }
        probe.engine_new_ns += span.close();
    }
    probe
}

/// Fresh pools over `workload`'s tenants, every tenant cold-built and
/// released once (the compile memo is used as it stands).
///
/// # Errors
///
/// A tenant the pools refuse.
pub fn provision(workload: Workload) -> Result<Arc<WarmPools>, PoolError> {
    let span = trace::open("provision");
    let pools = provision_pools(workload, workload.cells());
    span.close();
    pools
}

fn provision_pools(
    workload: Workload,
    cells: Vec<(Kernel, CompileOptions)>,
) -> Result<Arc<WarmPools>, PoolError> {
    let specs: Vec<TenantSpec> = cells
        .into_iter()
        .enumerate()
        .map(|(i, (kernel, opts))| {
            let name = format!("{}/{:?}#{i}", kernel.name, opts.isolation);
            TenantSpec::from_kernel(name, kernel, opts, workload.tier(), compile_memo)
        })
        .collect();
    let pools = Arc::new(WarmPools::new(
        Arc::new(specs),
        VA_BITS,
        MAX_HEAP,
        workload.admit(),
    ));
    for tenant in 0..pools.tenants().len() {
        let mut checkout = trace::open("checkout");
        let lease = pools.checkout(tenant)?;
        checkout.set_detail(if lease.warm { "warm" } else { "cold" });
        checkout.close();
        let release = trace::open("release");
        pools.release(lease);
        release.close();
    }
    Ok(pools)
}
