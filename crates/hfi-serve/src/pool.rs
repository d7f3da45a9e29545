//! Warm-instance pools with generation-based reuse and verify-before-
//! admit, charged against a real [`SandboxRuntime`] address space.
//!
//! One pool entry per tenant holds ready-to-run executor instances. A
//! **warm hit** pops an instance whose program and decode plan are
//! already resolved and whose heap image is already loaded — the
//! request pays a queue pop. A **cold build** pays the verify-before-
//! admit check, an executor (a new one for a fresh slot, the victim's
//! retargeted one for a recycled slot), and the heap image. A tenant's
//! program is resolved once, on its first cold build: its compile
//! function (memoized process-wide by the caller, so only the first
//! tenant of a kernel × options pair pays the real compiler) is not
//! called again. This is `hfi-faas::lifecycle`'s cheap-teardown story
//! *measured*: teardown of a reused instance is an in-place executor
//! reset ([`hfi_sim::Functional::reset`], [`hfi_sim::Machine::reset`])
//! plus re-preparing the heap, not a recompile and not a rebuild.
//!
//! Address-space accounting is not re-modeled here: every live instance
//! holds a real sandbox in a per-scheme [`SandboxRuntime`], so a
//! GuardPages instance charges the full 8 GiB guard reservation and an
//! HFI instance charges only its heap — the §6.3.2 density limit
//! emerges from the same runtime `hfi-faas` measures. Crucially, that
//! runtime never returns a reservation to the allocator (`teardown`
//! discards pages, not address space — the paper's point about VA
//! exhaustion), so when a cold build cannot reserve address space the
//! pool *recycles*: it takes the least-recently-used idle instance of
//! the same scheme and repurposes its live sandbox slot for the new
//! tenant — the victim's executor retargeted to the new program and
//! reset, a fresh heap image, the same reservation. At the cap, a
//! scheme serves its whole tenant set through a fixed set of resident
//! slots; the churn shows up as a depressed warm-hit rate.
//!
//! Every checkout stamps the instance's **generation** (reuse count).
//! Reuse safety — a tenant must never observe a prior tenant's memory,
//! register, or HFI region state — rests on the executors' resets and
//! is pinned by the `warm_pool_safety` and `recycled_slots` tests:
//! fresh-vs-reused and fresh-vs-recycled counters and final memory
//! must be bit-identical.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use hfi_sim::{Executor, Functional, Machine, Program, SparseMemory};
use hfi_wasm::compiler::{CompileOptions, CompiledKernel, Isolation, VerifyVerdict};
use hfi_wasm::kernels::Kernel;
use hfi_wasm::runtime::{SandboxId, SandboxRuntime};
use hfi_wasm::TransitionScheme;

/// Picks the cheapest [`TransitionScheme`] the static verifier admits
/// for `kernel` under `base`, compiling through the caller's memoizing
/// entry point (so per-scheme probe compiles are shared with the
/// serving pools). Schemes are tried cheapest-first; the zero-cost
/// scheme only wins when its elision proof goes through, so tenants
/// that mutate guard state in-sandbox organically fall back to a taxed
/// scheme. Non-HFI (or unsandboxed) options are returned unchanged —
/// there is no transition to price.
pub fn select_cheapest_scheme(
    kernel: &Kernel,
    base: &CompileOptions,
    compile: fn(&Kernel, &CompileOptions) -> CompiledKernel,
) -> CompileOptions {
    if base.isolation != Isolation::Hfi || !base.sandboxed {
        return *base;
    }
    for scheme in TransitionScheme::ALL {
        let mut opts = *base;
        opts.scheme = scheme;
        if compile(kernel, &opts).verified() == Some(true) {
            return opts;
        }
    }
    // Nothing proved: keep the base options and let the admission gate
    // decide (RequireVerified will refuse the tenant).
    *base
}

/// Which executor tier serves a tenant's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The cycle-accurate `Machine`.
    Cycle,
    /// The functional interpreter.
    Functional,
}

impl Tier {
    /// Stable label for telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Cycle => "cycle",
            Tier::Functional => "functional",
        }
    }
}

/// Admission policy for the verify-before-admit gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitPolicy {
    /// Only tenants carrying a *proof* are admitted — and the proof's
    /// digest must cover the program actually being installed (a stale
    /// or mismatched proof is a [`AdmitDecision::DeniedStaleProof`]
    /// denial, not an admission).
    RequireVerified,
    /// Tenants proven safe are admitted, tenants *rejected* by the
    /// verifier are refused, and tenants whose strategy publishes no
    /// statically checkable contract (e.g. guard pages) are exempt —
    /// their isolation story is the MMU, not a proof. Exempt admissions
    /// are counted separately ([`PoolStats::admitted_exempt`]): "waved
    /// through" is not "proven".
    VerifiedOrExempt,
}

/// The admission gate's ruling on one tenant: proof-carrying admission
/// distinguishes *how* a tenant got in (proven vs. exempt) and *why*
/// one was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Admitted: the tenant carries a proof whose digest covers the
    /// installed program.
    Proven,
    /// Admitted without a proof (no checkable contract) under
    /// [`AdmitPolicy::VerifiedOrExempt`].
    Exempt,
    /// Refused: no proof and the policy requires one.
    DeniedUnproven,
    /// Refused: the verifier rejected the program.
    DeniedRejected,
    /// Refused: the tenant carries a proof, but its digest does not
    /// cover the program being installed — the proof is stale (the
    /// program was rebuilt since) or was paired with the wrong program.
    DeniedStaleProof {
        /// Program hash the proof's digest covers.
        expected: u64,
        /// Hash of the program actually being installed.
        actual: u64,
    },
}

impl AdmitDecision {
    /// True when the decision admits the tenant.
    pub fn admitted(self) -> bool {
        matches!(self, AdmitDecision::Proven | AdmitDecision::Exempt)
    }
}

impl AdmitPolicy {
    /// Rules on a tenant: the verifier's verdict *and* — when a proof
    /// is present — whether its digest covers `program`, the
    /// proof-carrying half of admission. A proof that does not match
    /// the installed program is refused under **both** policies: a
    /// mismatched proof is positive evidence something is wrong, unlike
    /// the absence of a contract.
    pub fn decide(self, verdict: &VerifyVerdict, program: &Program) -> AdmitDecision {
        match (verdict, self) {
            (VerifyVerdict::Proven(proof), _) => {
                if proof.digest.matches_program(program) {
                    AdmitDecision::Proven
                } else {
                    AdmitDecision::DeniedStaleProof {
                        expected: proof.digest.program_hash,
                        actual: program.content_digest(),
                    }
                }
            }
            (VerifyVerdict::Rejected(_), _) => AdmitDecision::DeniedRejected,
            (VerifyVerdict::Unchecked, AdmitPolicy::RequireVerified) => {
                AdmitDecision::DeniedUnproven
            }
            (VerifyVerdict::Unchecked, AdmitPolicy::VerifiedOrExempt) => AdmitDecision::Exempt,
        }
    }
}

/// Where a tenant's program comes from.
pub enum TenantSource {
    /// A benchmark kernel, compiled by the caller-supplied compile
    /// function on the tenant's first cold build; the pools keep the
    /// program and verdict for every later one. Pass
    /// `hfi_bench::compile_cached` so all tenants of one kernel ×
    /// options pair share a single `Arc<Program>` and its memoized
    /// plans.
    Kernel {
        /// The kernel to compile.
        kernel: Kernel,
        /// Compile options (isolation scheme, layout).
        opts: CompileOptions,
        /// The (memoizing) compiler entry point.
        compile: fn(&Kernel, &CompileOptions) -> CompiledKernel,
    },
    /// A pre-compiled program (e.g. a chaos-campaign cell) with its
    /// verifier verdict — carrying the proof when there is one —
    /// supplied by the caller.
    Program {
        /// The runnable program.
        program: Arc<Program>,
        /// Verifier verdict for the admission gate; when `Proven`, the
        /// proof's digest is checked against `program` at admission.
        verdict: VerifyVerdict,
    },
}

/// One tenant: a named sandbox owner with a program source, an
/// isolation scheme (for address-space charging), a serving tier, and a
/// heap image.
pub struct TenantSpec {
    /// Display name (`kernel#replica` in the serving benchmark).
    pub name: String,
    /// Isolation scheme, decides address-space charging and teardown
    /// policy.
    pub isolation: Isolation,
    /// Executor tier serving this tenant.
    pub tier: Tier,
    /// Program source.
    pub source: TenantSource,
    /// Heap base address for loading `heap_init`.
    pub heap_base: u64,
    /// Initial heap contents as (address offset, bytes) pairs.
    pub heap_init: Vec<(u64, Vec<u8>)>,
    /// Expected architectural result (`r0` after halt), when known.
    pub expected: Option<u64>,
}

impl TenantSpec {
    /// A tenant serving `kernel` under `opts` on `tier`; `compile`
    /// should be a memoizing entry point (`hfi_bench::compile_cached`).
    pub fn from_kernel(
        name: String,
        kernel: Kernel,
        opts: CompileOptions,
        tier: Tier,
        compile: fn(&Kernel, &CompileOptions) -> CompiledKernel,
    ) -> Self {
        let heap_base = opts.heap_base;
        let heap_init = kernel
            .heap_init
            .iter()
            .map(|(off, bytes)| (*off as u64, bytes.clone()))
            .collect();
        let expected = Some(kernel.expected);
        TenantSpec {
            name,
            isolation: opts.isolation,
            tier,
            source: TenantSource::Kernel {
                kernel,
                opts,
                compile,
            },
            heap_base,
            heap_init,
            expected,
        }
    }

    /// A tenant serving `kernel` under the *cheapest verifier-proven*
    /// transition scheme (see [`select_cheapest_scheme`]): the
    /// per-tenant selection rule the serving benchmark's `--scheme auto`
    /// mode uses.
    pub fn from_kernel_cheapest_scheme(
        name: String,
        kernel: Kernel,
        base: CompileOptions,
        tier: Tier,
        compile: fn(&Kernel, &CompileOptions) -> CompiledKernel,
    ) -> Self {
        let opts = select_cheapest_scheme(&kernel, &base, compile);
        Self::from_kernel(name, kernel, opts, tier, compile)
    }

    /// The transition scheme this tenant's sandbox transitions use, when
    /// the tenant is kernel-sourced (pre-compiled program tenants carry
    /// no compile options to read it from).
    pub fn scheme(&self) -> Option<TransitionScheme> {
        match &self.source {
            TenantSource::Kernel { opts, .. } => Some(opts.scheme),
            TenantSource::Program { .. } => None,
        }
    }

    /// A tenant serving a pre-compiled program, with the verifier
    /// verdict (and proof, when proven) the admission gate rules on.
    #[allow(clippy::too_many_arguments)]
    pub fn from_program(
        name: String,
        program: Arc<Program>,
        verdict: VerifyVerdict,
        isolation: Isolation,
        tier: Tier,
        heap_base: u64,
        heap_init: Vec<(u64, Vec<u8>)>,
        expected: Option<u64>,
    ) -> Self {
        TenantSpec {
            name,
            isolation,
            tier,
            source: TenantSource::Program { program, verdict },
            heap_base,
            heap_init,
            expected,
        }
    }
}

/// The executor held by a warm instance.
enum Engine {
    Cycle(Box<Machine>),
    Func(Box<Functional>),
}

impl Engine {
    /// A new executor for `program` on `tier`.
    fn new(tier: Tier, program: &Arc<Program>) -> Engine {
        match tier {
            Tier::Cycle => Engine::Cycle(Box::new(Machine::new(Arc::clone(program)))),
            Tier::Functional => Engine::Func(Box::new(Functional::new(Arc::clone(program)))),
        }
    }

    /// This executor pointed at `program` and reset, when it already
    /// runs on `tier`; a new one otherwise.
    fn retarget(self, tier: Tier, program: &Arc<Program>) -> Engine {
        match (self, tier) {
            (Engine::Cycle(mut m), Tier::Cycle) => {
                m.retarget(program);
                Engine::Cycle(m)
            }
            (Engine::Func(mut f), Tier::Functional) => {
                f.retarget(program);
                Engine::Func(f)
            }
            _ => Engine::new(tier, program),
        }
    }

    fn reset(&mut self) {
        match self {
            Engine::Cycle(m) => m.reset(),
            Engine::Func(f) => f.reset(),
        }
    }

    fn executor_mut(&mut self) -> &mut dyn Executor {
        match self {
            Engine::Cycle(m) => m.as_mut(),
            Engine::Func(f) => f.as_mut(),
        }
    }
}

/// A live, prepared sandbox instance owned by a pool (or leased out).
pub struct WarmInstance {
    engine: Engine,
    sandbox: SandboxId,
    generation: u64,
    /// Pool-unique identity, stamped at cold build. Two instances of
    /// the same tenant can share a generation (both start at 0); the
    /// serial is what the quarantine property test keys on to prove a
    /// poisoned instance is never seen again.
    serial: u64,
}

impl WarmInstance {
    /// The executor, ready to run (heap image already prepared).
    pub fn executor_mut(&mut self) -> &mut dyn Executor {
        self.engine.executor_mut()
    }

    /// Direct access to the functional engine (tier `Functional`), for
    /// state inspection in tests.
    pub fn functional_mut(&mut self) -> Option<&mut Functional> {
        match &mut self.engine {
            Engine::Func(f) => Some(f.as_mut()),
            Engine::Cycle(_) => None,
        }
    }

    /// The instance's guest memory, on either tier (state inspection in
    /// tests).
    pub fn memory(&self) -> &SparseMemory {
        match &self.engine {
            Engine::Cycle(m) => &m.mem,
            Engine::Func(f) => &f.mem,
        }
    }

    /// How many times this instance has been leased.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Pool-unique identity of this instance (stable across leases).
    pub fn serial(&self) -> u64 {
        self.serial
    }
}

/// A checked-out instance: run it, then hand it back with
/// [`WarmPools::release`] (or drop it via [`WarmPools::discard`]).
pub struct Lease {
    /// Tenant index this lease serves.
    pub tenant: usize,
    /// True when the checkout was a warm hit.
    pub warm: bool,
    /// The instance (leases expose the executor directly).
    pub instance: WarmInstance,
}

/// Why a checkout failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The verify-before-admit gate refused the tenant (unproven under
    /// `RequireVerified`, or rejected by the verifier).
    AdmissionDenied {
        /// The verifier verdict the policy rejected.
        verified: Option<bool>,
    },
    /// The tenant carries a proof, but its digest does not cover the
    /// program being installed — stale or mismatched safety evidence,
    /// distinct from having none.
    StaleProof {
        /// Program hash the proof's digest covers.
        expected: u64,
        /// Hash of the program actually being installed.
        actual: u64,
    },
    /// The scheme's address space is exhausted and no idle instance of
    /// that scheme was available to recycle (every slot is leased).
    AtCapacity,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::AdmissionDenied { verified } => {
                write!(f, "admission denied (verified: {verified:?})")
            }
            PoolError::StaleProof { expected, actual } => {
                write!(
                    f,
                    "stale proof: digest covers program {expected:016x}, installing {actual:016x}"
                )
            }
            PoolError::AtCapacity => f.write_str("address space at capacity"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Counters the pool accumulates across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts satisfied by an idle warm instance of the same tenant.
    pub warm_hits: u64,
    /// Checkouts that built a new instance (fresh slot or recycled).
    pub cold_builds: u64,
    /// Cold builds that repurposed another tenant's idle slot because
    /// the scheme's address space was exhausted.
    pub recycled: u64,
    /// Tenants refused by the admission gate (all denial kinds,
    /// including stale proofs).
    pub admission_rejects: u64,
    /// Cold admissions whose tenant carried a digest-matching proof.
    pub admitted_proven: u64,
    /// Cold admissions waved through without a proof (no checkable
    /// contract, `VerifiedOrExempt` only).
    pub admitted_exempt: u64,
    /// Denials specifically for a stale/mismatched proof digest (also
    /// counted in `admission_rejects`).
    pub stale_proofs: u64,
    /// High-water mark of live instances across all schemes.
    pub peak_resident: u64,
    /// Leases surrendered to [`WarmPools::quarantine`] (a panic escaped
    /// the executor mid-lease). Quarantined instances are parked
    /// forever: never re-leased, never recycled.
    pub quarantined: u64,
}

/// One idle instance's place in its scheme's release order: its tenant
/// and its neighbours, as indices into [`IdleOrder::nodes`].
#[derive(Debug, Clone, Copy)]
struct Node {
    tenant: usize,
    prev: u32,
    next: u32,
}

/// The release order of the idle instances, oldest first, one list per
/// isolation scheme: an exact LRU with one entry per idle instance. Each
/// list is circular and doubly linked through a slab, behind a sentinel
/// node of its own (node `k` for `Isolation::ALL[k]`), so a warm hit
/// unlinks its instance and a recycle takes its scheme's oldest, both in
/// O(1) and without allocating once the slab has grown to the pools'
/// most idle instances.
#[derive(Debug)]
struct IdleOrder {
    nodes: Vec<Node>,
    /// Unlinked nodes, reused before the slab grows.
    free: Vec<u32>,
}

impl IdleOrder {
    fn new() -> Self {
        let sentinels = 0..Isolation::ALL.len() as u32;
        IdleOrder {
            nodes: sentinels
                .map(|k| Node {
                    tenant: usize::MAX,
                    prev: k,
                    next: k,
                })
                .collect(),
            free: Vec::new(),
        }
    }

    fn sentinel(isolation: Isolation) -> u32 {
        let k = Isolation::ALL
            .iter()
            .position(|&scheme| scheme == isolation);
        k.expect("Isolation::ALL lists every scheme") as u32
    }

    /// Lists a newly idle instance of `tenant` as the newest of
    /// `isolation`; returns its node.
    fn push_newest(&mut self, isolation: Isolation, tenant: usize) -> u32 {
        let sentinel = Self::sentinel(isolation);
        let newest = self.nodes[sentinel as usize].prev;
        let node = Node {
            tenant,
            prev: newest,
            next: sentinel,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
        };
        self.nodes[newest as usize].next = id;
        self.nodes[sentinel as usize].prev = id;
        id
    }

    /// The oldest idle instance of `isolation`: its node and tenant.
    fn oldest(&self, isolation: Isolation) -> Option<(u32, usize)> {
        let sentinel = Self::sentinel(isolation);
        let oldest = self.nodes[sentinel as usize].next;
        (oldest != sentinel).then(|| (oldest, self.nodes[oldest as usize].tenant))
    }

    fn unlink(&mut self, id: u32) {
        let Node { prev, next, .. } = self.nodes[id as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
        self.free.push(id);
    }

    /// Idle instances listed.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.nodes.len() - self.free.len() - Isolation::ALL.len()
    }
}

struct PoolsState {
    spaces: HashMap<Isolation, SandboxRuntime>,
    /// Idle instances per tenant, oldest release first, each with its
    /// node in `order`.
    idle: Vec<VecDeque<(u32, WarmInstance)>>,
    order: IdleOrder,
    /// Per-tenant quarantine: instances whose lease ended in a panic.
    /// Deliberately a dead end — entries never return to `idle`, never
    /// appear in `order`, and their sandbox slots are never recycled, so
    /// a poisoned instance (and its address space) is provably out of
    /// circulation. Kept (rather than dropped) as postmortem evidence.
    quarantine: Vec<Vec<WarmInstance>>,
    /// Next instance serial to stamp at cold build.
    next_serial: u64,
    stats: PoolStats,
}

/// The warm-instance pools of one serving engine (shared across shard
/// workers behind one mutex; every critical section is queue surgery or
/// modeled sandbox accounting, never a kernel run).
pub struct WarmPools {
    tenants: Arc<Vec<TenantSpec>>,
    /// Each kernel-sourced tenant's compiled program and verdict, from
    /// its first cold build.
    compiled: Box<[OnceLock<CompiledKernel>]>,
    va_bits: u32,
    max_heap: u64,
    admit: AdmitPolicy,
    state: Mutex<PoolsState>,
}

impl WarmPools {
    /// Empty pools over `tenants`, charging each scheme's instances
    /// against a `va_bits`-bit address space with `max_heap`-byte heap
    /// reservations.
    pub fn new(
        tenants: Arc<Vec<TenantSpec>>,
        va_bits: u32,
        max_heap: u64,
        admit: AdmitPolicy,
    ) -> Self {
        let idle = tenants.iter().map(|_| VecDeque::new()).collect();
        let quarantine = tenants.iter().map(|_| Vec::new()).collect();
        let compiled = tenants.iter().map(|_| OnceLock::new()).collect();
        WarmPools {
            tenants,
            compiled,
            va_bits,
            max_heap,
            admit,
            state: Mutex::new(PoolsState {
                spaces: HashMap::new(),
                idle,
                order: IdleOrder::new(),
                quarantine,
                next_serial: 0,
                stats: PoolStats::default(),
            }),
        }
    }

    /// The tenant table the pools serve.
    pub fn tenants(&self) -> &Arc<Vec<TenantSpec>> {
        &self.tenants
    }

    /// Counters so far.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().expect("pool unpoisoned").stats
    }

    /// Live instances (idle + leased) across all schemes.
    pub fn resident(&self) -> u64 {
        Self::live_total(&self.state.lock().expect("pool unpoisoned"))
    }

    /// Live sandboxes summed over the per-scheme runtimes: one counter
    /// read per scheme, independent of how many slots each holds.
    fn live_total(state: &PoolsState) -> u64 {
        state.spaces.values().map(|s| s.live_count() as u64).sum()
    }

    /// A tenant's program and verifier verdict: borrowed from a
    /// program-sourced tenant; for a kernel-sourced one, compiled by its
    /// compile function on the first call and kept from then on.
    fn resolve(&self, tenant: usize) -> (&Arc<Program>, &VerifyVerdict) {
        match &self.tenants[tenant].source {
            TenantSource::Kernel {
                kernel,
                opts,
                compile,
            } => {
                let compiled = self.compiled[tenant].get_or_init(|| compile(kernel, opts));
                (&compiled.program, &compiled.verdict)
            }
            TenantSource::Program { program, verdict } => (program, verdict),
        }
    }

    /// Takes the least-recently-used idle instance of `isolation` so
    /// its live sandbox slot can be repurposed. Returns `None` when no
    /// instance of that scheme is idle.
    fn recycle_idle(state: &mut PoolsState, isolation: Isolation) -> Option<WarmInstance> {
        let (node, tenant) = state.order.oldest(isolation)?;
        let (listed, victim) = state.idle[tenant]
            .pop_front()
            .expect("a listed instance is idle");
        debug_assert_eq!(
            listed, node,
            "a tenant's oldest idle instance is its oldest listed"
        );
        state.order.unlink(node);
        Some(victim)
    }

    /// Reserves a fresh sandbox for `isolation`, or — when the scheme's
    /// address space is exhausted (reservations are never returned to
    /// the allocator) — recycles an idle instance's slot, handing back
    /// the victim's executor for the new tenant to retarget.
    fn reserve(
        &self,
        state: &mut PoolsState,
        isolation: Isolation,
    ) -> Result<(SandboxId, Option<Engine>), PoolError> {
        let va_bits = self.va_bits;
        let max_heap = self.max_heap;
        let space = state.spaces.entry(isolation).or_insert_with(|| {
            let mut runtime = SandboxRuntime::new(isolation, va_bits);
            runtime.set_max_heap(max_heap);
            runtime
        });
        match space.create_sandbox(16) {
            Ok(id) => {
                let resident = Self::live_total(state);
                state.stats.peak_resident = state.stats.peak_resident.max(resident);
                Ok((id, None))
            }
            Err(_) => match Self::recycle_idle(state, isolation) {
                Some(victim) => {
                    state.stats.recycled += 1;
                    Ok((victim.sandbox, Some(victim.engine)))
                }
                None => Err(PoolError::AtCapacity),
            },
        }
    }

    /// Checks out an instance for `tenant`: a warm pop when one is
    /// idle, otherwise admission + cold build.
    ///
    /// # Errors
    ///
    /// [`PoolError::AdmissionDenied`] when the verify-before-admit gate
    /// refuses the tenant, [`PoolError::AtCapacity`] when the scheme's
    /// address space is exhausted and nothing is idle to evict.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn checkout(&self, tenant: usize) -> Result<Lease, PoolError> {
        {
            let mut state = self.state.lock().expect("pool unpoisoned");
            if let Some((node, mut instance)) = state.idle[tenant].pop_back() {
                state.order.unlink(node);
                state.stats.warm_hits += 1;
                instance.generation += 1;
                return Ok(Lease {
                    tenant,
                    warm: true,
                    instance,
                });
            }
        }
        // Cold path: resolve and verify-admit outside the lock (the
        // tenant's program is compiled on its first cold build only, and
        // the digest check reads the program's memoized content digest),
        // then reserve address space under the lock, then build or
        // retarget the executor and load the heap image outside it again.
        let spec = &self.tenants[tenant];
        let (program, verdict) = self.resolve(tenant);
        match self.admit.decide(verdict, program) {
            AdmitDecision::Proven => {
                let mut state = self.state.lock().expect("pool unpoisoned");
                state.stats.admitted_proven += 1;
            }
            AdmitDecision::Exempt => {
                let mut state = self.state.lock().expect("pool unpoisoned");
                state.stats.admitted_exempt += 1;
            }
            AdmitDecision::DeniedStaleProof { expected, actual } => {
                let mut state = self.state.lock().expect("pool unpoisoned");
                state.stats.admission_rejects += 1;
                state.stats.stale_proofs += 1;
                return Err(PoolError::StaleProof { expected, actual });
            }
            AdmitDecision::DeniedUnproven | AdmitDecision::DeniedRejected => {
                let mut state = self.state.lock().expect("pool unpoisoned");
                state.stats.admission_rejects += 1;
                return Err(PoolError::AdmissionDenied {
                    verified: verdict.verified(),
                });
            }
        }
        let (sandbox, victim, serial) = {
            let mut state = self.state.lock().expect("pool unpoisoned");
            let (sandbox, victim) = self.reserve(&mut state, spec.isolation)?;
            state.stats.cold_builds += 1;
            let serial = state.next_serial;
            state.next_serial += 1;
            (sandbox, victim, serial)
        };
        let engine = match victim {
            Some(engine) => engine.retarget(spec.tier, program),
            None => Engine::new(spec.tier, program),
        };
        let mut instance = WarmInstance {
            engine,
            sandbox,
            generation: 0,
            serial,
        };
        prepare_heap(spec, &mut instance);
        Ok(Lease {
            tenant,
            warm: false,
            instance,
        })
    }

    /// Returns a leased instance to its pool: the executor is reset in
    /// place (the measured cheap teardown) and the heap image
    /// re-prepared, so the next checkout is run-ready.
    pub fn release(&self, mut lease: Lease) {
        let spec = &self.tenants[lease.tenant];
        lease.instance.engine.reset();
        prepare_heap(spec, &mut lease.instance);
        let mut state = self.state.lock().expect("pool unpoisoned");
        let node = state.order.push_newest(spec.isolation, lease.tenant);
        state.idle[lease.tenant].push_back((node, lease.instance));
    }

    /// Drops a leased instance entirely, releasing its address space
    /// under the scheme's teardown policy.
    pub fn discard(&self, lease: Lease) {
        let spec = &self.tenants[lease.tenant];
        let mut state = self.state.lock().expect("pool unpoisoned");
        if let Some(space) = state.spaces.get_mut(&spec.isolation) {
            let _ = space.teardown(lease.instance.sandbox);
        }
    }

    /// Quarantines a leased instance whose run panicked: the instance
    /// is generation-bumped (so any aliased bookkeeping of its last
    /// served generation goes stale) and parked in the tenant's
    /// quarantine set — never re-leased, never recycled, its sandbox
    /// slot deliberately left out of the address-space reuse paths. The
    /// instance's guest state is preserved untouched as postmortem
    /// evidence; no reset is attempted, because a panic mid-run means
    /// the engine's invariants can no longer be trusted.
    pub fn quarantine(&self, mut lease: Lease) {
        lease.instance.generation += 1;
        let mut state = self.state.lock().expect("pool unpoisoned");
        state.stats.quarantined += 1;
        state.quarantine[lease.tenant].push(lease.instance);
    }

    /// Serials of `tenant`'s quarantined instances, in quarantine order
    /// (telemetry / property tests).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn quarantined_serials(&self, tenant: usize) -> Vec<u64> {
        let state = self.state.lock().expect("pool unpoisoned");
        state.quarantine[tenant].iter().map(|i| i.serial).collect()
    }

    /// Pre-warms one instance for `tenant` (cold build + immediate
    /// release). Returns whether the build fit in the address space.
    ///
    /// # Errors
    ///
    /// Propagates [`WarmPools::checkout`] errors.
    pub fn provision(&self, tenant: usize) -> Result<(), PoolError> {
        let lease = self.checkout(tenant)?;
        self.release(lease);
        Ok(())
    }
}

fn prepare_heap(spec: &TenantSpec, instance: &mut WarmInstance) {
    for (off, bytes) in &spec.heap_init {
        instance
            .engine
            .executor_mut()
            .prepare(spec.heap_base + off, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfi_sim::{MemOperand, ProgramBuilder, Reg, Stop};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_program(result: u64) -> Arc<Program> {
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), result as i64);
        asm.halt();
        Arc::new(asm.finish())
    }

    /// A real verdict for `program`: `Some(true)` proves it against a
    /// windowless spec (a pure-compute program verifies trivially),
    /// `Some(false)` fabricates a rejection, `None` is unchecked.
    fn verdict_for(program: &Arc<Program>, verified: Option<bool>) -> VerifyVerdict {
        match verified {
            None => VerifyVerdict::Unchecked,
            Some(true) => VerifyVerdict::Proven(Arc::new(
                hfi_verify::verify_program(program, &hfi_verify::SandboxSpec::new("test"))
                    .expect("pure-compute test program proves"),
            )),
            Some(false) => VerifyVerdict::Rejected(Vec::new()),
        }
    }

    fn tenant(name: &str, isolation: Isolation, verified: Option<bool>) -> TenantSpec {
        let program = tiny_program(42);
        let verdict = verdict_for(&program, verified);
        TenantSpec::from_program(
            name.to_string(),
            program,
            verdict,
            isolation,
            Tier::Functional,
            0x1000_0000,
            Vec::new(),
            Some(42),
        )
    }

    fn pools(tenants: Vec<TenantSpec>, va_bits: u32, admit: AdmitPolicy) -> WarmPools {
        WarmPools::new(Arc::new(tenants), va_bits, 64 << 20, admit)
    }

    #[test]
    fn cheapest_scheme_selection_is_per_tenant_and_admissible() {
        fn compile_kernel(k: &Kernel, o: &CompileOptions) -> CompiledKernel {
            hfi_wasm::compile(&k.func, o)
        }
        // A pure compute kernel proves the elision and gets zero-cost
        // transitions; a growing kernel mutates guard state in-sandbox
        // and falls back to the cheapest taxed scheme. Both admit.
        let pure = hfi_wasm::sightglass_suite(6)
            .into_iter()
            .next()
            .expect("suite nonempty");
        let growing = hfi_wasm::spec_suite(4)
            .into_iter()
            .find(|k| {
                let opts = CompileOptions::hfi_with_scheme(hfi_wasm::TransitionScheme::ZeroCost);
                compile_kernel(k, &opts).verified() == Some(false)
            })
            .expect("some SPEC-like kernel grows memory in-sandbox");
        let base = CompileOptions::new(Isolation::Hfi);
        let tenants = vec![
            TenantSpec::from_kernel_cheapest_scheme(
                "pure".into(),
                pure,
                base,
                Tier::Functional,
                compile_kernel,
            ),
            TenantSpec::from_kernel_cheapest_scheme(
                "growing".into(),
                growing,
                base,
                Tier::Functional,
                compile_kernel,
            ),
        ];
        assert_eq!(
            tenants[0].scheme(),
            Some(hfi_wasm::TransitionScheme::ZeroCost)
        );
        assert_eq!(
            tenants[1].scheme(),
            Some(hfi_wasm::TransitionScheme::HfiUnserialized)
        );
        let pools = pools(tenants, 42, AdmitPolicy::RequireVerified);
        for tenant in 0..2 {
            let lease = pools.checkout(tenant).expect("selected schemes admit");
            pools.release(lease);
        }
        assert_eq!(pools.stats().admission_rejects, 0);
    }

    #[test]
    fn warm_hit_reuses_the_instance_and_bumps_its_generation() {
        let pools = pools(
            vec![tenant("a", Isolation::Hfi, Some(true))],
            42,
            AdmitPolicy::RequireVerified,
        );
        let mut lease = pools.checkout(0).expect("cold build fits");
        assert!(!lease.warm);
        assert_eq!(lease.instance.generation(), 0);
        assert_eq!(lease.instance.executor_mut().run(1_000), Stop::Halted);
        assert_eq!(lease.instance.executor_mut().regs()[0], 42);
        pools.release(lease);

        let mut lease = pools.checkout(0).expect("warm pop");
        assert!(lease.warm);
        assert_eq!(lease.instance.generation(), 1);
        assert_eq!(lease.instance.executor_mut().run(1_000), Stop::Halted);
        assert_eq!(lease.instance.executor_mut().regs()[0], 42);
        pools.release(lease);

        let stats = pools.stats();
        assert_eq!(stats.cold_builds, 1);
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.recycled, 0);
        assert_eq!(pools.resident(), 1);
    }

    #[test]
    fn admission_policies_gate_on_the_verifier_verdict() {
        let pools = pools(
            vec![
                tenant("proven", Isolation::Hfi, Some(true)),
                tenant("rejected", Isolation::Hfi, Some(false)),
                tenant("exempt", Isolation::GuardPages, None),
            ],
            42,
            AdmitPolicy::RequireVerified,
        );
        assert!(pools.checkout(0).is_ok());
        assert_eq!(
            pools.checkout(1).err(),
            Some(PoolError::AdmissionDenied {
                verified: Some(false)
            })
        );
        assert_eq!(
            pools.checkout(2).err(),
            Some(PoolError::AdmissionDenied { verified: None }),
            "RequireVerified refuses contract-free strategies"
        );
        assert_eq!(pools.stats().admission_rejects, 2);
        assert_eq!(pools.stats().admitted_proven, 1);
        assert_eq!(pools.stats().admitted_exempt, 0);

        let exempting = self::pools(
            vec![
                tenant("rejected", Isolation::Hfi, Some(false)),
                tenant("exempt", Isolation::GuardPages, None),
            ],
            42,
            AdmitPolicy::VerifiedOrExempt,
        );
        assert!(exempting.checkout(0).is_err(), "a rejection always gates");
        assert!(exempting.checkout(1).is_ok(), "guard pages are exempt");
        // "Waved through" is accounted separately from "proven".
        assert_eq!(exempting.stats().admitted_proven, 0);
        assert_eq!(exempting.stats().admitted_exempt, 1);
    }

    #[test]
    fn stale_proofs_are_denied_with_a_distinct_error() {
        // A proof over program A paired with program B: positive
        // evidence of a mismatch, denied under *both* policies.
        let proven_a = verdict_for(&tiny_program(7), Some(true));
        for admit in [AdmitPolicy::RequireVerified, AdmitPolicy::VerifiedOrExempt] {
            let program_b = tiny_program(42);
            let expected = match &proven_a {
                VerifyVerdict::Proven(p) => p.digest.program_hash,
                _ => unreachable!(),
            };
            let actual = program_b.content_digest();
            assert_ne!(expected, actual, "distinct programs must hash apart");
            let spec = TenantSpec::from_program(
                "stale".to_string(),
                program_b,
                proven_a.clone(),
                Isolation::Hfi,
                Tier::Functional,
                0x1000_0000,
                Vec::new(),
                Some(42),
            );
            let pools = pools(vec![spec], 42, admit);
            assert_eq!(
                pools.checkout(0).err(),
                Some(PoolError::StaleProof { expected, actual }),
                "{admit:?}"
            );
            let stats = pools.stats();
            assert_eq!(stats.stale_proofs, 1);
            assert_eq!(stats.admission_rejects, 1);
        }

        // The matching proof is admitted as proven, not exempt.
        let program = tiny_program(42);
        let verdict = verdict_for(&program, Some(true));
        let spec = TenantSpec::from_program(
            "fresh".to_string(),
            program,
            verdict,
            Isolation::Hfi,
            Tier::Functional,
            0x1000_0000,
            Vec::new(),
            Some(42),
        );
        let pools = pools(vec![spec], 42, AdmitPolicy::RequireVerified);
        assert!(pools.checkout(0).is_ok());
        assert_eq!(pools.stats().admitted_proven, 1);
        assert_eq!(pools.stats().stale_proofs, 0);
    }

    #[test]
    fn exhausted_address_space_recycles_lru_idle_slots() {
        // 35-bit address space = 32 GiB: room for four 8 GiB guard
        // reservations, and reservations are never returned.
        let tenants: Vec<TenantSpec> = (0..6)
            .map(|i| tenant(&format!("t{i}"), Isolation::GuardPages, None))
            .collect();
        let pools = pools(tenants, 35, AdmitPolicy::VerifiedOrExempt);
        for i in 0..6 {
            pools.provision(i).expect("recycling absorbs the overflow");
        }
        let stats = pools.stats();
        let resident = pools.resident();
        assert!(
            resident <= 4,
            "32 GiB holds at most four guard reservations, got {resident}"
        );
        assert_eq!(stats.cold_builds, 6);
        assert_eq!(
            stats.recycled,
            6 - resident,
            "every over-capacity build recycled an idle slot"
        );
        assert_eq!(stats.peak_resident, resident);

        // The last-provisioned tenant is still warm; the first was
        // recycled away and needs a (recycling) cold build again.
        let lease = pools.checkout(5).expect("checkout");
        assert!(lease.warm);
        pools.release(lease);
        let lease = pools.checkout(0).expect("checkout");
        assert!(!lease.warm, "tenant 0's slot was recycled away");
        pools.release(lease);
    }

    #[test]
    fn all_slots_leased_is_at_capacity() {
        let tenants: Vec<TenantSpec> = (0..8)
            .map(|i| tenant(&format!("t{i}"), Isolation::GuardPages, None))
            .collect();
        // 35 bits = 32 GiB: at most four 8 GiB guard reservations, so
        // holding every lease must hit the capacity wall within eight
        // checkouts — recycling needs an *idle* instance.
        let pools = pools(tenants, 35, AdmitPolicy::VerifiedOrExempt);
        let mut leases = Vec::new();
        let mut blocked_tenant = None;
        for i in 0..8 {
            match pools.checkout(i) {
                Ok(lease) => leases.push(lease),
                Err(PoolError::AtCapacity) => {
                    blocked_tenant = Some(i);
                    break;
                }
                Err(e) => panic!("unexpected checkout error: {e}"),
            }
        }
        let blocked = blocked_tenant.expect("every slot leased must exhaust the space");
        // Releasing one instance makes its slot recyclable again.
        pools.release(leases.pop().expect("at least one lease"));
        let lease = pools.checkout(blocked).expect("recycles the freed slot");
        assert!(!lease.warm);
        assert!(pools.stats().recycled >= 1);
    }

    #[test]
    fn quarantined_instances_are_never_leased_again() {
        let pools = pools(
            vec![tenant("a", Isolation::Hfi, Some(true))],
            42,
            AdmitPolicy::RequireVerified,
        );
        let lease = pools.checkout(0).expect("cold build");
        let poisoned_serial = lease.instance.serial();
        pools.quarantine(lease);
        assert_eq!(pools.stats().quarantined, 1);
        assert_eq!(pools.quarantined_serials(0), vec![poisoned_serial]);

        // The next checkout must be a fresh cold build, not the
        // quarantined instance.
        let lease = pools.checkout(0).expect("fresh cold build");
        assert!(!lease.warm, "a quarantined instance must not warm-hit");
        assert_ne!(lease.instance.serial(), poisoned_serial);
        pools.release(lease);
        // And warm reuse afterwards still avoids the quarantined one.
        let lease = pools.checkout(0).expect("warm");
        assert!(lease.warm);
        assert_ne!(lease.instance.serial(), poisoned_serial);
        pools.release(lease);
        assert_eq!(pools.stats().cold_builds, 2);
    }

    #[test]
    fn quarantined_slots_are_not_recycled_under_va_pressure() {
        // 35-bit space: at most four 8 GiB guard reservations.
        // Quarantine every slot the space holds; further builds must
        // report AtCapacity rather than repurpose a poisoned slot.
        let tenants: Vec<TenantSpec> = (0..5)
            .map(|i| tenant(&format!("t{i}"), Isolation::GuardPages, None))
            .collect();
        let pools = pools(tenants, 35, AdmitPolicy::VerifiedOrExempt);
        let mut quarantined = 0u64;
        for i in 0..4 {
            match pools.checkout(i) {
                Ok(lease) => {
                    pools.quarantine(lease);
                    quarantined += 1;
                }
                Err(PoolError::AtCapacity) => break,
                Err(e) => panic!("unexpected checkout error: {e}"),
            }
        }
        assert!(quarantined >= 1, "the space must hold at least one slot");
        assert_eq!(
            pools.checkout(4).err(),
            Some(PoolError::AtCapacity),
            "a poisoned slot must never be recycled for a new build"
        );
        assert_eq!(pools.stats().quarantined, quarantined);
        assert_eq!(pools.stats().recycled, 0);
    }

    #[test]
    fn recycling_takes_the_least_recently_used_idle_instance() {
        // A 35-bit space holds a few 8 GiB guard reservations: fill its
        // slots, lease tenant 0 again, then build one tenant more.
        // Tenant 0 was provisioned first but used last, so tenant 1 is
        // the LRU victim.
        let tenants = || -> Vec<TenantSpec> {
            (0..6)
                .map(|i| tenant(&format!("t{i}"), Isolation::GuardPages, None))
                .collect()
        };
        let probe = pools(tenants(), 35, AdmitPolicy::VerifiedOrExempt);
        (0..6).for_each(|i| probe.provision(i).expect("recycles"));
        let slots = probe.resident() as usize;
        assert!(slots >= 2, "the space must hold two slots");

        let pools = pools(tenants(), 35, AdmitPolicy::VerifiedOrExempt);
        for i in 0..slots {
            pools.provision(i).expect("fits");
        }
        assert_eq!(pools.stats().recycled, 0);
        let lease = pools.checkout(0).expect("warm");
        assert!(lease.warm);
        pools.release(lease);
        pools.provision(slots).expect("recycles");
        assert_eq!(pools.stats().recycled, 1);
        let lease = pools.checkout(0).expect("checkout");
        assert!(lease.warm, "the most recently used tenant keeps its slot");
        pools.release(lease);
        let lease = pools.checkout(1).expect("checkout");
        assert!(!lease.warm, "the least recently used tenant lost its slot");
        pools.release(lease);
    }

    #[test]
    fn the_lru_holds_one_entry_per_idle_instance() {
        // A pool that never recycles: every checkout after the first few
        // is a warm hit, and the release order must not grow with them.
        let tenants: Vec<TenantSpec> = (0..6)
            .map(|i| tenant(&format!("t{i}"), Isolation::Hfi, Some(true)))
            .collect();
        let pools = pools(tenants, 42, AdmitPolicy::RequireVerified);
        let mut state = 0x1D1E_u64;
        for cycle in 0..10_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let tenant = (state >> 33) as usize % 6;
            let first = pools.checkout(tenant).expect("lease");
            // Now and then hold a second lease of the same tenant, so
            // tenants come to own more than one idle instance.
            let second = (cycle % 7 == 0).then(|| pools.checkout(tenant).expect("lease"));
            pools.release(first);
            if let Some(second) = second {
                pools.release(second);
            }
            let state = pools.state.lock().expect("pool unpoisoned");
            let idle: usize = state.idle.iter().map(VecDeque::len).sum();
            assert_eq!(state.order.len(), idle, "cycle {cycle}");
            assert!(state.order.nodes.len() <= idle + Isolation::ALL.len());
        }
        let stats = pools.stats();
        assert_eq!(stats.recycled, 0);
        assert!(stats.warm_hits > 10_000);
    }

    /// Calls of [`counting_compile`]: one test uses it, so no other test
    /// moves the count.
    static COMPILES: AtomicU64 = AtomicU64::new(0);

    fn counting_compile(kernel: &Kernel, opts: &CompileOptions) -> CompiledKernel {
        COMPILES.fetch_add(1, Ordering::Relaxed);
        hfi_wasm::compile(&kernel.func, opts)
    }

    #[test]
    fn a_kernel_tenant_is_compiled_once_across_recycling_cold_builds() {
        // Eight tenants round-robin through the few guard-page slots a
        // 35-bit space holds, so every checkout is a cold build, and all
        // but the first few recycle.
        let kernel = hfi_wasm::sightglass_suite(1)
            .into_iter()
            .find(|k| k.name == "fib2")
            .expect("fib2 is in the suite");
        let opts = CompileOptions::new(Isolation::GuardPages);
        let tenants: Vec<TenantSpec> = (0..8)
            .map(|i| {
                let name = format!("fib2#{i}");
                TenantSpec::from_kernel(
                    name,
                    kernel.clone(),
                    opts,
                    Tier::Functional,
                    counting_compile,
                )
            })
            .collect();
        let pools = pools(tenants, 35, AdmitPolicy::VerifiedOrExempt);
        for i in 0..1_000 {
            let mut lease = pools.checkout(i % 8).expect("recycles");
            assert!(!lease.warm);
            assert_eq!(lease.instance.executor_mut().run(1 << 30), Stop::Halted);
            assert_eq!(lease.instance.executor_mut().regs()[0], kernel.expected);
            pools.release(lease);
        }
        let stats = pools.stats();
        assert_eq!(stats.cold_builds, 1_000);
        assert_eq!(stats.recycled, 1_000 - pools.resident());
        assert_eq!(
            stats.admitted_exempt, 1_000,
            "admission rules on every cold build"
        );
        assert_eq!(COMPILES.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn an_instances_page_buffers_stay_constant_across_lease_cycles() {
        // Writes to three pages outside the heap image, on top of the
        // image's own page.
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), 42);
        asm.movi(Reg(1), 0x2000_0000);
        for page in 0..3 {
            asm.store(Reg(0), MemOperand::base_disp(Reg(1), page * 4096), 8);
        }
        asm.halt();
        let program = Arc::new(asm.finish());
        let spec = TenantSpec::from_program(
            "pages".into(),
            program,
            VerifyVerdict::Unchecked,
            Isolation::GuardPages,
            Tier::Functional,
            0x1000_0000,
            vec![(0, vec![7; 64])],
            Some(42),
        );
        let pools = pools(vec![spec], 42, AdmitPolicy::VerifiedOrExempt);
        let mut buffers = None;
        for cycle in 0..1_000 {
            let mut lease = pools.checkout(0).expect("lease");
            assert_eq!(lease.instance.memory().touched_pages(), 1, "the heap image");
            assert_eq!(lease.instance.executor_mut().run(1_000), Stop::Halted);
            let memory = lease.instance.memory();
            assert_eq!(memory.touched_pages(), 4);
            let held = *buffers.get_or_insert(memory.page_buffers());
            assert_eq!(memory.page_buffers(), held, "cycle {cycle}");
            pools.release(lease);
        }
        assert_eq!(buffers, Some(4));
        assert_eq!(pools.stats().cold_builds, 1);
    }

    #[test]
    fn release_resets_tenant_state_for_the_next_checkout() {
        let mut spec = tenant("a", Isolation::Hfi, Some(true));
        spec.heap_init = vec![(0, vec![7, 7, 7])];
        let pools = pools(vec![spec], 42, AdmitPolicy::RequireVerified);
        let mut lease = pools.checkout(0).expect("cold");
        // Scribble over guest state mid-lease.
        let functional = lease.instance.functional_mut().expect("functional tier");
        functional.mem.write_bytes(0x1000_0000, &[9, 9, 9]);
        assert_eq!(functional.mem.read_bytes(0x1000_0000, 3), vec![9, 9, 9]);
        pools.release(lease);

        let mut lease = pools.checkout(0).expect("warm");
        let functional = lease.instance.functional_mut().expect("functional tier");
        assert_eq!(
            functional.mem.read_bytes(0x1000_0000, 3),
            vec![7, 7, 7],
            "reused instance must present the pristine heap image"
        );
        pools.release(lease);
    }
}
