//! Offered-load sweeps over the `hfi-serve` scheduler — the serving
//! side of the paper's §6.3.2 density story, measured end to end.
//!
//! For each Fig. 3 isolation scheme the benchmark provisions ~1,200
//! warm tenants (kernel × replica, each a distinct FaaS function) over
//! the verifyset kernel suites, then drives deterministic open-loop
//! arrival schedules (seeded Poisson at several offered loads plus one
//! bursty MMPP level) through the sharded work-stealing scheduler on
//! the functional executor tier, and emits `BENCH_serving.json`:
//!
//! ```text
//! cargo run --release -p hfi-bench --bin serve_bench -- --smoke
//! ```
//!
//! Flags (plus the shared harness flags, `--smoke`, `--seed N`):
//!
//! * `--workers N` — scheduler worker threads (default: all cores).
//! * `--scheme <label|auto>` — transition scheme for the HFI tenants:
//!   a [`TransitionScheme`] label (e.g. `zero-cost`,
//!   `full-springboard`) pins every HFI tenant to that scheme; `auto`
//!   lets the pool pick the cheapest scheme whose elision proof the
//!   verifier accepts, per tenant. Default leaves the compiler default
//!   (so committed baselines stay comparable). Non-HFI schemes ignore
//!   the flag — they have no HFI springboard to vary.
//! * `--check <baseline.json>` — gate p99 latency (at the lowest
//!   Poisson load) and achieved throughput (at the highest) per scheme
//!   against a previous summary through [`hfi_bench::gate`].
//! * `--out <path>` — output path (default `BENCH_serving.json`).
//! * `--degrade` — append the graceful-degradation sweep: offered load
//!   from 0.5x to 3x of measured capacity, each level run clean and
//!   with induced faults (a panicking rogue tenant, periodically
//!   wedged requests under deadline, bounded queues, per-tenant
//!   breakers). Emits `degrade_*` keys and a `degrade_cells` array;
//!   gates healthy-tenant p99 under faults at sub-saturation loads and
//!   full offered-vs-achieved outcome accounting.
//!
//! # What the numbers mean
//!
//! * Latency is `finish - arrival` in *scheduler* time: an arrival that
//!   queued behind a saturated shard pays its queueing delay in full
//!   (the generator is open-loop — it never self-throttles).
//! * `warm_hit_rate` is the fraction of requests served from a warm
//!   pool instance. GuardPages caps at 512 resident instances in a
//!   42-bit address space (8 GiB guard reservation each), so with
//!   ~1,200 tenants it churns; HFI holds every tenant warm.
//! * `density_*` is the peak number of concurrently live sandbox
//!   instances per scheme, charged against the real `SandboxRuntime`.
//!
//! # Gate semantics
//!
//! `--check` compares, per scheme, `p99_ms_<scheme>` (must not grow by
//! more than [`REGRESSION_BUDGET`] plus [`P99_SLACK_MS`] of absolute
//! slack) and `achieved_rps_<scheme>` (must not shrink by more than
//! the budget); with `--degrade`, also the faulty variant's
//! `degrade_faulty_<load>_healthy_p99_ms` at 0.5x and 1x, under the
//! p99 budget, so a baseline recorded without `--degrade` exits 2.
//! Latency budgets are wider than the throughput benchmark's because
//! tail latency on a shared CI host is inherently noisier than
//! aggregate sim-MIPS. The in-run invariants (correct results, exact
//! outcome accounting, HFI density, and the degradation sweep's) are
//! rows of the same gate table.

use std::sync::Arc;
use std::time::Duration;

use hfi_bench::gate::{self, Gate, Rule, Summary};
use hfi_bench::harness::usage_error;
use hfi_bench::{compile_cached, median, print_table, Cli, Flag, FIG3_SCHEMES, FUNCTIONAL_LIMIT};
use hfi_chaos::PanicHook;
use hfi_core::TransitionScheme;
use hfi_serve::{
    schedule, AdmitPolicy, Arrival, ArrivalProcess, Outcome, Request, Scheduler, ServeConfig,
    TenantSpec, Tier, WarmPools,
};
use hfi_sim::{AluOp, ProgramBuilder, Reg, Stop};
use hfi_util::{split_mix64, Rng};
use hfi_wasm::compiler::{CompileOptions, Isolation, VerifyVerdict};
use hfi_wasm::kernels::{sightglass, speclike};

/// How `--scheme` resolves the HFI tenants' transition scheme.
#[derive(Clone, Copy)]
enum SchemeChoice {
    /// Compiler default (what committed baselines were recorded with).
    Default,
    /// Per-tenant cheapest verified scheme via the warm pool's selector.
    Auto,
    /// Every HFI tenant pinned to one scheme.
    Fixed(TransitionScheme),
}

impl SchemeChoice {
    fn label(self) -> String {
        match self {
            SchemeChoice::Default => TransitionScheme::default().label().to_string(),
            SchemeChoice::Auto => "auto".to_string(),
            SchemeChoice::Fixed(s) => s.label().to_string(),
        }
    }
}

/// Allowed fractional regression (p99 growth / throughput shrink)
/// before `--check` fails. Tail latency on shared CI hosts is far
/// noisier than sim-MIPS, hence the wider budget than the throughput
/// benchmark's 20%.
const REGRESSION_BUDGET: f64 = 0.50;

/// Absolute slack added to the p99 ceiling. A smoke level serves only
/// a few dozen requests, so its p99 is nearly the max; measured on a
/// single-core container, back-to-back runs flap between 0.25 ms and
/// ~2 ms purely from host stalls. A real scheduling regression —
/// starvation, livelock, lost completions — overshoots this by orders
/// of magnitude (and trips the overload / achieved-rps / correctness
/// checks besides), so the generous slack costs no detection power.
const P99_SLACK_MS: f64 = 5.0;

/// The rule every p99 latency gate applies.
const P99_RULE: Rule = Rule::Ceiling {
    frac: REGRESSION_BUDGET,
    slack: P99_SLACK_MS,
};

/// Tenant floor: every scheme gets at least this many tenants so the
/// density comparison is about address space, not workload size.
const TENANT_FLOOR: usize = 1200;

/// Address-space width for the serving runtimes — 4 TiB, the same
/// setting `hfi-faas`'s Table 1 uses, where GuardPages caps at 512
/// sandboxes and HFI holds tens of thousands.
const VA_BITS: u32 = 42;

/// Per-sandbox heap reservation (64 MiB).
const MAX_HEAP: u64 = 64 << 20;

/// One measured (scheme × load level) cell.
struct LevelResult {
    scheme: String,
    level: String,
    offered_rps: f64,
    achieved_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    warm_hit_rate: f64,
    stolen: u64,
    done: u64,
    overloaded: u64,
    shed: u64,
    requests: u64,
}

/// Per-scheme summary across all levels.
struct SchemeResult {
    scheme: String,
    density: u64,
    setup_warm_p50_us: f64,
    setup_cold_p50_us: f64,
    provisioned: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Paces the arrival schedule onto the scheduler in host time,
/// submitting `request(index, arrival, arrival_ns)` for each arrival, and
/// returns the epoch offset arrivals were rebased to.
fn drive(
    scheduler: &Scheduler,
    arrivals: &[Arrival],
    mut request: impl FnMut(usize, &Arrival, u64) -> Request,
) -> u64 {
    let epoch = scheduler.now_ns();
    for (idx, arrival) in arrivals.iter().enumerate() {
        let target = epoch + arrival.at_ns;
        loop {
            let now = scheduler.now_ns();
            if now >= target {
                break;
            }
            let gap = target - now;
            if gap > 200_000 {
                std::thread::sleep(Duration::from_nanos(gap - 100_000));
            } else {
                std::hint::spin_loop();
            }
        }
        scheduler.submit(request(idx, arrival, target));
    }
    epoch
}

/// One measured degradation cell: (variant × load multiplier).
struct DegradeCell {
    variant: &'static str,
    mult: &'static str,
    offered: u64,
    done: u64,
    deadline: u64,
    circuit_open: u64,
    panicked: u64,
    shed: u64,
    overloaded: u64,
    rejected: u64,
    healthy_p50_ms: f64,
    healthy_p99_ms: f64,
    achieved_rps: f64,
    offered_rps: f64,
    quarantined: u64,
    /// Healthy requests that finished with a wrong result.
    wrong: u64,
}

impl DegradeCell {
    fn accounted(&self) -> u64 {
        self.done
            + self.deadline
            + self.circuit_open
            + self.panicked
            + self.shed
            + self.overloaded
            + self.rejected
    }
}

/// Request deadline in the degradation sweep: generous against healthy
/// service times, tight against queue collapse — under overload the
/// system sheds late requests instead of queueing unboundedly.
const DEGRADE_DEADLINE: Duration = Duration::from_millis(250);

/// Wedged (runaway) requests get a short budget; the fuel hook must
/// cancel them near this bound instead of wedging a worker.
const WEDGE_DEADLINE: Duration = Duration::from_millis(5);

/// Every Nth arrival in a faulty run is redirected to the runaway
/// tenant (a kernel that never halts).
const WEDGE_PERIOD: usize = 32;

/// The graceful-degradation sweep: HFI tenants on the functional tier,
/// offered load at multiplier × measured capacity, run clean and with
/// induced faults (rogue tenant 0 panics on dispatch; every
/// [`WEDGE_PERIOD`]th request is a runaway under a short deadline),
/// behind bounded queues and per-tenant breakers. Healthy-tenant
/// latency excludes the rogues; [`degrade_rows`] gates the outcome.
fn run_degrade(
    kernels: &[hfi_wasm::Kernel],
    seed: u64,
    workers: usize,
    smoke: bool,
) -> (f64, Vec<DegradeCell>) {
    // The injected panics are caught and classified; keep their default
    // backtrace spam out of the sweep's stderr.
    hfi_chaos::silence_injected_panics();
    let opts = CompileOptions::new(Isolation::Hfi);
    let replicas = (24usize).div_ceil(kernels.len()).max(1);
    let mut tenants: Vec<TenantSpec> = (0..replicas)
        .flat_map(|r| {
            kernels.iter().map(move |kernel| {
                TenantSpec::from_kernel(
                    format!("{}@deg{r}", kernel.name),
                    kernel.clone(),
                    opts,
                    Tier::Functional,
                    compile_cached,
                )
            })
        })
        .collect();
    let tenant_count = tenants.len();
    // The runaway tenant: an infinite counting loop, admissible (no
    // spec to verify against) but unable to ever halt.
    let runaway = {
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), 0);
        let top = asm.label();
        asm.place(top);
        asm.alu_ri(AluOp::Add, Reg(0), Reg(0), 1);
        asm.jump(top);
        asm.halt();
        Arc::new(asm.finish())
    };
    let wedge_tenant = tenants.len();
    tenants.push(TenantSpec::from_program(
        "rogue/runaway".to_string(),
        runaway,
        VerifyVerdict::Unchecked,
        Isolation::Hfi,
        Tier::Functional,
        opts.heap_base,
        Vec::new(),
        None,
    ));
    let rogue_tenant = 0usize;
    let tenants = Arc::new(tenants);

    // Capacity estimate: drain a warm burst through a fault-free
    // scheduler and take its aggregate service rate.
    let pools = Arc::new(WarmPools::new(
        Arc::clone(&tenants),
        VA_BITS,
        MAX_HEAP,
        AdmitPolicy::VerifiedOrExempt,
    ));
    for tenant in 0..tenant_count {
        let _ = pools.provision(tenant);
    }
    let burst = if smoke { 120 } else { 480 };
    let scheduler = Scheduler::new(Arc::clone(&pools), workers);
    let epoch = scheduler.now_ns();
    for i in 0..burst {
        scheduler.submit(Request {
            tenant: i % tenant_count,
            arrival_ns: epoch,
            limit: FUNCTIONAL_LIMIT,
            deadline: None,
            chaos: None,
        });
    }
    let completions = scheduler.finish();
    let span_ns = completions
        .iter()
        .map(|c| c.finish_ns)
        .max()
        .unwrap_or(epoch)
        .saturating_sub(epoch)
        .max(1);
    let capacity_rps = burst as f64 / (span_ns as f64 / 1e9);
    eprintln!(
        "[serving] degrade capacity estimate: {capacity_rps:.0} rps \
         ({burst} requests over {tenant_count} tenants, {workers} workers)"
    );

    let duration_ns: u64 = if smoke { 300_000_000 } else { 1_000_000_000 };
    let mut cells = Vec::new();
    let mut rng_seed = seed ^ 0xDE64_ADE0;
    for (mult, factor) in [("05x", 0.5), ("1x", 1.0), ("2x", 2.0), ("3x", 3.0)] {
        let rate = (capacity_rps * factor).max(10.0);
        let arrivals = schedule(
            seed ^ 0xDE64,
            ArrivalProcess::Poisson { rate_rps: rate },
            duration_ns,
            tenant_count,
        );
        for variant in ["clean", "faulty"] {
            let faulty = variant == "faulty";
            let pools = Arc::new(WarmPools::new(
                Arc::clone(&tenants),
                VA_BITS,
                MAX_HEAP,
                AdmitPolicy::VerifiedOrExempt,
            ));
            for tenant in 0..tenant_count {
                let _ = pools.provision(tenant);
            }
            let config = ServeConfig {
                queue_cap: if smoke { 64 } else { 256 },
                breaker_threshold: 3,
                seed: split_mix64(&mut rng_seed),
                ..ServeConfig::default()
            };
            let scheduler = Scheduler::with_config(Arc::clone(&pools), workers, config);
            let mut hook_rng = Rng::new(split_mix64(&mut rng_seed));
            let epoch = drive(&scheduler, &arrivals, |idx, arrival, arrival_ns| {
                let wedged = faulty && idx % WEDGE_PERIOD == WEDGE_PERIOD - 1;
                let tenant = if wedged { wedge_tenant } else { arrival.tenant };
                let chaos: Option<Box<dyn hfi_sim::ChaosHook>> =
                    if faulty && !wedged && tenant == rogue_tenant {
                        Some(Box::new(PanicHook::new(hook_rng.below(6))))
                    } else {
                        None
                    };
                Request {
                    tenant,
                    arrival_ns,
                    limit: if wedged { u64::MAX } else { FUNCTIONAL_LIMIT },
                    deadline: Some(if wedged {
                        WEDGE_DEADLINE
                    } else {
                        DEGRADE_DEADLINE
                    }),
                    chaos,
                }
            });
            let completions = scheduler.finish();
            let mut cell = DegradeCell {
                variant,
                mult,
                offered: arrivals.len() as u64,
                done: 0,
                deadline: 0,
                circuit_open: 0,
                panicked: 0,
                shed: 0,
                overloaded: 0,
                rejected: 0,
                healthy_p50_ms: f64::NAN,
                healthy_p99_ms: f64::NAN,
                achieved_rps: 0.0,
                offered_rps: rate,
                quarantined: pools.stats().quarantined,
                wrong: 0,
            };
            let mut healthy_ms: Vec<f64> = Vec::new();
            let mut last_finish_ns = epoch;
            for completion in &completions {
                last_finish_ns = last_finish_ns.max(completion.finish_ns);
                match &completion.outcome {
                    Outcome::Done { stop, r0, .. } => {
                        cell.done += 1;
                        let healthy =
                            completion.tenant != rogue_tenant && completion.tenant != wedge_tenant;
                        if healthy {
                            healthy_ms
                                .push((completion.finish_ns - completion.arrival_ns) as f64 / 1e6);
                            let spec = &pools.tenants()[completion.tenant];
                            if *stop != Stop::Halted || spec.expected != Some(*r0) {
                                cell.wrong += 1;
                                eprintln!(
                                    "[serving] FAIL: degrade {variant}/{mult}: {} returned \
                                     {r0} ({stop:?}), expected {:?}",
                                    spec.name, spec.expected
                                );
                            }
                        }
                    }
                    Outcome::DeadlineExceeded { .. } => cell.deadline += 1,
                    Outcome::CircuitOpen => cell.circuit_open += 1,
                    Outcome::Panicked { .. } => cell.panicked += 1,
                    Outcome::Shed => cell.shed += 1,
                    Outcome::Overloaded => cell.overloaded += 1,
                    Outcome::Rejected { .. } => cell.rejected += 1,
                }
            }
            healthy_ms.sort_by(f64::total_cmp);
            cell.healthy_p50_ms = percentile(&healthy_ms, 0.50);
            cell.healthy_p99_ms = percentile(&healthy_ms, 0.99);
            let span_s = (last_finish_ns.saturating_sub(epoch)).max(1) as f64 / 1e9;
            cell.achieved_rps = cell.done as f64 / span_s;
            cells.push(cell);
        }
    }

    (capacity_rps, cells)
}

/// The degradation sweep's in-run invariants, as gate rows.
fn degrade_rows(gate: &mut Gate, cells: &[DegradeCell]) {
    let total = |variant: &str, f: fn(&DegradeCell) -> u64| -> u64 {
        cells.iter().filter(|c| c.variant == variant).map(f).sum()
    };
    // Every submission is accounted for, healthy results are right, and
    // a fault-free run neither panics nor trips a breaker (deadline
    // expiry under deep overload is legitimate).
    let lost = cells.iter().filter(|c| c.accounted() != c.offered).count() as u64;
    let wrong = cells.iter().map(|c| c.wrong).sum();
    let contained = total("clean", |c| c.panicked + c.circuit_open + c.rejected);
    for (name, n) in [
        ("degrade: cells with lost requests", lost),
        ("degrade: wrong healthy results", wrong),
        (
            "degrade clean: panicked + circuit_open + rejected",
            contained,
        ),
    ] {
        gate.check(name, n, "= 0", n == 0);
    }
    // The induced faults actually happened and were contained as their
    // own outcome class.
    for (name, f) in [
        ("panicked", (|c| c.panicked) as fn(&DegradeCell) -> u64),
        ("deadline_exceeded", |c| c.deadline),
        ("circuit_open", |c| c.circuit_open),
    ] {
        let n = total("faulty", f);
        gate.check(&format!("degrade faulty: {name}"), n, "> 0", n > 0);
    }
    // Healthy-tenant p99 under faults at sub-saturation load: the gate
    // the whole containment layer exists for.
    for mult in ["05x", "1x"] {
        let p99 = |variant: &str| format!("degrade_{variant}_{mult}_healthy_p99_ms");
        gate.relative(p99("faulty"), p99("clean"), P99_RULE);
    }
}

fn main() {
    let flags = [
        Flag::Switch("--degrade"),
        Flag::Value("--workers"),
        Flag::Value("--scheme"),
    ];
    let cli = Cli::from_env(&[&gate::FLAGS[..], &flags].concat());
    let harness = cli.harness("serving");
    let seed = harness.seed_or(0x5EED_F00D);
    let degrade = cli.switch("--degrade");
    let workers = cli.parsed("--workers").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(4)
    });
    let scheme_choice = match cli.value("--scheme") {
        None => SchemeChoice::Default,
        Some("auto") => SchemeChoice::Auto,
        Some(label) => SchemeChoice::Fixed(TransitionScheme::parse(label).unwrap_or_else(|| {
            let labels: Vec<&str> = TransitionScheme::ALL.iter().map(|t| t.label()).collect();
            usage_error(&format!(
                "unknown --scheme {label:?}; expected 'auto' or one of: {}",
                labels.join(", ")
            ))
        })),
    };
    let scheme_label = scheme_choice.label();
    // A baseline recorded with other workers or another seed measures a
    // different run, so its latency and throughput rows would not mean
    // anything.
    let mut rules = vec![
        ("workers".to_string(), Rule::Exact),
        ("seed".to_string(), Rule::Exact),
    ];
    for scheme in FIG3_SCHEMES {
        let name = format!("{scheme:?}").to_lowercase();
        rules.push((format!("p99_ms_{name}"), P99_RULE));
        rules.push((
            format!("achieved_rps_{name}"),
            Rule::Floor(REGRESSION_BUDGET),
        ));
    }
    for mult in ["05x", "1x"].iter().filter(|_| degrade) {
        rules.push((format!("degrade_faulty_{mult}_healthy_p99_ms"), P99_RULE));
    }
    let mut gate = Gate::load(&cli, "serving", "BENCH_serving.json", rules);

    // The verifyset kernel suites; smoke keeps the three cheapest
    // sightglass kernels so CI debug runs stay fast.
    let kernels = if harness.smoke() {
        harness.subset(sightglass::suite(1), 3)
    } else {
        let mut kernels = sightglass::suite(1);
        kernels.extend(speclike::suite(1));
        kernels
    };
    let replicas = TENANT_FLOOR.div_ceil(kernels.len());
    let tenant_count = kernels.len() * replicas;

    // Offered-load levels: a Poisson sweep plus one bursty MMPP level.
    // Virtual duration is short — open-loop latency only needs enough
    // arrivals per level for stable percentiles.
    let duration_ns: u64 = if harness.smoke() {
        400_000_000
    } else {
        2_000_000_000
    };
    let poisson_loads: &[f64] = if harness.smoke() {
        &[100.0, 250.0, 500.0]
    } else {
        &[200.0, 500.0, 1000.0, 1500.0]
    };
    let mut levels: Vec<(String, ArrivalProcess)> = poisson_loads
        .iter()
        .map(|rps| {
            (
                format!("poisson-{rps:.0}"),
                ArrivalProcess::Poisson { rate_rps: *rps },
            )
        })
        .collect();
    let base = poisson_loads[0];
    levels.push((
        "mmpp".to_string(),
        ArrivalProcess::Mmpp {
            base_rps: base,
            burst_rps: base * 10.0,
            mean_phase_ns: duration_ns / 8,
        },
    ));

    // One arrival schedule per level, shared across schemes so every
    // scheme faces byte-identical offered load.
    let schedules: Vec<(String, Vec<Arrival>)> = levels
        .iter()
        .map(|(name, process)| {
            (
                name.clone(),
                schedule(seed, *process, duration_ns, tenant_count),
            )
        })
        .collect();

    let mut level_results: Vec<LevelResult> = Vec::new();
    let mut scheme_results: Vec<SchemeResult> = Vec::new();
    let mut wrong = 0u64;
    let mut lost_levels = 0u64;

    for scheme in FIG3_SCHEMES {
        let scheme_name = format!("{scheme:?}").to_lowercase();
        let mut opts = CompileOptions::new(scheme);
        // --scheme only varies HFI springboards; the other isolation
        // schemes have no HFI enter/exit sequence to re-plan.
        let auto = if opts.isolation == Isolation::Hfi {
            match scheme_choice {
                SchemeChoice::Default => false,
                SchemeChoice::Auto => true,
                SchemeChoice::Fixed(s) => {
                    opts.scheme = s;
                    false
                }
            }
        } else {
            false
        };
        let tenants: Vec<TenantSpec> = (0..replicas)
            .flat_map(|r| {
                kernels.iter().map(move |kernel| {
                    let name = format!("{}#{r}", kernel.name);
                    if auto {
                        TenantSpec::from_kernel_cheapest_scheme(
                            name,
                            kernel.clone(),
                            opts,
                            Tier::Functional,
                            compile_cached,
                        )
                    } else {
                        TenantSpec::from_kernel(
                            name,
                            kernel.clone(),
                            opts,
                            Tier::Functional,
                            compile_cached,
                        )
                    }
                })
            })
            .collect();
        let pools = Arc::new(WarmPools::new(
            Arc::new(tenants),
            VA_BITS,
            MAX_HEAP,
            AdmitPolicy::VerifiedOrExempt,
        ));

        // Provisioning phase: pre-warm every tenant (cold build +
        // release). Each call is one cold-setup latency sample; the
        // eviction machinery keeps over-capacity schemes at their
        // address-space cap instead of failing.
        let mut cold_setup_ns: Vec<f64> = Vec::with_capacity(tenant_count);
        let mut provisioned = 0usize;
        for tenant in 0..tenant_count {
            let started = std::time::Instant::now();
            if pools.provision(tenant).is_ok() {
                provisioned += 1;
                cold_setup_ns.push(started.elapsed().as_nanos() as f64);
            }
        }
        let density_after_provision = pools.resident();
        eprintln!(
            "[serving] {scheme_name}: provisioned {provisioned}/{tenant_count} tenants, \
             {density_after_provision} resident"
        );

        let mut warm_setup_ns: Vec<f64> = Vec::new();
        for (level_name, arrivals) in &schedules {
            let scheduler = Scheduler::new(Arc::clone(&pools), workers);
            let epoch = drive(&scheduler, arrivals, |_, arrival, arrival_ns| Request {
                tenant: arrival.tenant,
                arrival_ns,
                limit: FUNCTIONAL_LIMIT,
                deadline: None,
                chaos: None,
            });
            let completions = scheduler.finish();

            let mut latencies_ms: Vec<f64> = Vec::with_capacity(completions.len());
            let mut warm_hits = 0u64;
            let mut stolen = 0u64;
            let mut overloaded = 0u64;
            let mut shed = 0u64;
            let mut last_finish_ns = epoch;
            for completion in &completions {
                last_finish_ns = last_finish_ns.max(completion.finish_ns);
                if completion.stolen {
                    stolen += 1;
                }
                match &completion.outcome {
                    Outcome::Done { stop, r0, .. } => {
                        latencies_ms
                            .push((completion.finish_ns - completion.arrival_ns) as f64 / 1e6);
                        if completion.warm {
                            warm_hits += 1;
                            warm_setup_ns.push(completion.setup_ns as f64);
                        }
                        let spec = &pools.tenants()[completion.tenant];
                        if *stop != Stop::Halted || spec.expected != Some(*r0) {
                            wrong += 1;
                            eprintln!(
                                "[serving] FAIL: {} returned {r0} ({stop:?}), expected {:?}",
                                spec.name, spec.expected
                            );
                        }
                    }
                    Outcome::Overloaded => overloaded += 1,
                    Outcome::Shed => shed += 1,
                    // The main sweep serves verified tenants with no
                    // deadlines, caps, or fault injection, so a rejection
                    // or a containment outcome is a bug, not a load effect.
                    other => {
                        wrong += 1;
                        eprintln!("[serving] FAIL: {other:?} in the fault-free sweep");
                    }
                }
            }
            latencies_ms.sort_by(f64::total_cmp);
            let span_s = (last_finish_ns.saturating_sub(epoch)).max(1) as f64 / 1e9;
            let done = latencies_ms.len() as u64;
            // Offered-vs-achieved accounting: every submission must be
            // accounted for by some outcome — shed and overloaded
            // requests are *counted against the offered load*, never
            // silently dropped from the denominator.
            lost_levels += u64::from(completions.len() != arrivals.len());
            eprintln!(
                "[serving] {scheme_name}/{level_name}: offered={} completed={} done={done} \
                 overloaded={overloaded} shed={shed}",
                arrivals.len(),
                completions.len()
            );
            level_results.push(LevelResult {
                scheme: scheme_name.clone(),
                level: level_name.clone(),
                offered_rps: arrivals.len() as f64 / (duration_ns as f64 / 1e9),
                achieved_rps: done as f64 / span_s,
                p50_ms: percentile(&latencies_ms, 0.50),
                p99_ms: percentile(&latencies_ms, 0.99),
                p999_ms: percentile(&latencies_ms, 0.999),
                warm_hit_rate: warm_hits as f64 / (done.max(1)) as f64,
                stolen,
                done,
                overloaded,
                shed,
                requests: completions.len() as u64,
            });
        }

        scheme_results.push(SchemeResult {
            scheme: scheme_name,
            density: pools.stats().peak_resident,
            setup_warm_p50_us: median(&warm_setup_ns) / 1e3,
            setup_cold_p50_us: median(&cold_setup_ns) / 1e3,
            provisioned,
        });
    }

    // The graceful-degradation sweep rides the same output file so one
    // committed baseline carries both gates.
    let degrade_results = degrade.then(|| run_degrade(&kernels, seed, workers, harness.smoke()));

    let rows: Vec<Vec<String>> = level_results
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.level.clone(),
                format!("{:.0}", r.offered_rps),
                format!("{:.0}", r.achieved_rps),
                format!("{:.2}", r.p50_ms),
                format!("{:.2}", r.p99_ms),
                format!("{:.2}", r.p999_ms),
                format!("{:.1}%", r.warm_hit_rate * 100.0),
                r.stolen.to_string(),
                r.overloaded.to_string(),
                r.shed.to_string(),
            ]
        })
        .collect();
    print_table(
        "Serving latency under open-loop load (functional tier)",
        &[
            "scheme", "level", "offered", "achieved", "p50ms", "p99ms", "p999ms", "warm", "stolen",
            "overload", "shed",
        ],
        &rows,
    );
    println!();
    for s in &scheme_results {
        println!(
            "  {:>12}: density {} (provisioned {}/{tenant_count}), setup p50 warm {:.1}us / \
             cold {:.1}us",
            s.scheme, s.density, s.provisioned, s.setup_warm_p50_us, s.setup_cold_p50_us
        );
    }

    if let Some((capacity_rps, cells)) = &degrade_results {
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.variant.to_string(),
                    c.mult.to_string(),
                    c.offered.to_string(),
                    format!("{:.0}", c.achieved_rps),
                    format!("{:.2}", c.healthy_p50_ms),
                    format!("{:.2}", c.healthy_p99_ms),
                    c.done.to_string(),
                    c.deadline.to_string(),
                    c.circuit_open.to_string(),
                    c.panicked.to_string(),
                    c.shed.to_string(),
                    c.quarantined.to_string(),
                ]
            })
            .collect();
        println!();
        print_table(
            &format!(
                "Graceful degradation (capacity ~{capacity_rps:.0} rps, healthy-tenant latency)"
            ),
            &[
                "variant", "load", "offered", "achieved", "h-p50ms", "h-p99ms", "done", "dline",
                "circuit", "panic", "shed", "quar",
            ],
            &rows,
        );
    }

    // Flat summary keys for the gate: per scheme, p99 at the lowest
    // Poisson load and achieved throughput at the highest.
    let lowest = format!("poisson-{:.0}", poisson_loads[0]);
    let highest = format!("poisson-{:.0}", poisson_loads[poisson_loads.len() - 1]);
    let level = |scheme: &str, name: &str| {
        let mut found = level_results.iter().filter(|r| r.scheme == scheme);
        found
            .find(|r| r.level == name)
            .expect("every level measured")
    };
    let tier = Tier::Functional.as_str();
    let mut summary = gate
        .summary(&harness)
        .int("seed", seed)
        .int("workers", workers as u64)
        .int("tenants", tenant_count as u64)
        .text("tier", tier)
        .text("transition_scheme", &scheme_label);
    for s in &scheme_results {
        let warm = level_results
            .iter()
            .filter(|r| r.scheme == s.scheme)
            .map(|r| r.warm_hit_rate)
            .sum::<f64>()
            / schedules.len() as f64;
        let name = &s.scheme;
        summary = summary
            .num(&format!("p99_ms_{name}"), level(name, &lowest).p99_ms, 3)
            .num(
                &format!("achieved_rps_{name}"),
                level(name, &highest).achieved_rps,
                1,
            )
            .int(&format!("density_{name}"), s.density)
            .num(&format!("warm_hit_rate_{name}"), warm, 4)
            .num(&format!("setup_warm_p50_us_{name}"), s.setup_warm_p50_us, 2)
            .num(&format!("setup_cold_p50_us_{name}"), s.setup_cold_p50_us, 2);
    }
    if let Some((capacity_rps, cells)) = &degrade_results {
        summary = summary.num("degrade_capacity_rps", *capacity_rps, 1);
        for c in cells {
            let key = |what: &str| format!("degrade_{}_{}_{what}", c.variant, c.mult);
            summary = summary
                .num(&key("healthy_p99_ms"), c.healthy_p99_ms, 3)
                .num(&key("achieved_rps"), c.achieved_rps, 1)
                .int(
                    &key("shed"),
                    c.shed + c.deadline + c.circuit_open + c.overloaded,
                );
        }
    }
    summary = summary.array(
        "cells",
        level_results.iter().map(|r| {
            Summary::default()
                .text("scheme", &r.scheme)
                .text("level", &r.level)
                .int("seed", seed)
                .text("tier", tier)
                .text("transition_scheme", &scheme_label)
                .num("offered_rps", r.offered_rps, 1)
                .num("achieved_rps", r.achieved_rps, 1)
                .num("p50_ms", r.p50_ms, 3)
                .num("p99_ms", r.p99_ms, 3)
                .num("p999_ms", r.p999_ms, 3)
                .num("warm_hit_rate", r.warm_hit_rate, 4)
                .int("stolen", r.stolen)
                .int("done", r.done)
                .int("overloaded", r.overloaded)
                .int("shed", r.shed)
                .int("requests", r.requests)
        }),
    );
    if let Some((_, cells)) = &degrade_results {
        summary = summary.array(
            "degrade_cells",
            cells.iter().map(|c| {
                Summary::default()
                    .text("variant", c.variant)
                    .text("load", c.mult)
                    .int("seed", seed)
                    .int("offered", c.offered)
                    .num("offered_rps", c.offered_rps, 1)
                    .num("achieved_rps", c.achieved_rps, 1)
                    .num("healthy_p50_ms", c.healthy_p50_ms, 3)
                    .num("healthy_p99_ms", c.healthy_p99_ms, 3)
                    .int("done", c.done)
                    .int("deadline_exceeded", c.deadline)
                    .int("circuit_open", c.circuit_open)
                    .int("panicked", c.panicked)
                    .int("shed", c.shed)
                    .int("overloaded", c.overloaded)
                    .int("rejected", c.rejected)
                    .int("quarantined", c.quarantined)
            }),
        );
    }

    // Invariants this benchmark exists to demonstrate.
    gate.check(
        "wrong, rejected or contained requests",
        wrong,
        "= 0",
        wrong == 0,
    );
    gate.check(
        "levels with lost requests",
        lost_levels,
        "= 0",
        lost_levels == 0,
    );
    let density = |name: &str| {
        scheme_results
            .iter()
            .find(|s| s.scheme == name)
            .expect("every scheme measured")
            .density
    };
    let (hfi, guard) = (density("hfi"), density("guardpages"));
    gate.check("density_hfi", hfi, ">= 1000", hfi >= 1000);
    gate.check(
        "density_hfi vs density_guardpages",
        hfi,
        format!("> {guard}"),
        hfi > guard,
    );
    if let Some((_, cells)) = &degrade_results {
        degrade_rows(&mut gate, cells);
    }
    gate.finish(summary);
}
