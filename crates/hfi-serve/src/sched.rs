//! A sharded, work-stealing serving scheduler over the warm pools,
//! with tenant-level fault containment.
//!
//! One worker thread per shard. `submit` round-robins requests across
//! bounded shard queues (over-cap submissions shed immediately as
//! [`Outcome::Shed`]); each worker drains its own shard FIFO (front)
//! and, when empty, steals from the *back* of sibling shards — FIFO
//! for the owner preserves arrival order per shard, LIFO stealing
//! takes the work least likely to be cache-warm on the victim. A
//! worker with nothing to pop parks its thread, and `submit` unparks
//! the shard's owner. All of it is hand-rolled on `std` primitives
//! (`Mutex<VecDeque>`, atomics, mpsc, thread park/unpark), keeping the
//! workspace's `forbid(unsafe_code)` posture.
//!
//! **Fault containment** (see `faults.rs` and DESIGN.md): requests may
//! carry a wall-clock deadline, checked at dispatch and enforced
//! mid-run through the executors' cooperative-cancellation fuel hook,
//! so a runaway kernel cannot wedge its worker; a panic that escapes a
//! run is caught at the lease boundary and the instance quarantined
//! ([`crate::pool::WarmPools::quarantine`]) — never re-leased; each
//! tenant sits behind a circuit breaker whose consecutive failures
//! shed that tenant's traffic fast ([`Outcome::CircuitOpen`]) while
//! co-tenants are unaffected; and `AtCapacity` checkouts retry on
//! seeded jittered-exponential backoff with the retry count stamped
//! into the completion.
//!
//! Timestamps are nanoseconds since the scheduler's epoch, read from
//! the host monotonic clock only at the edges (request pickup,
//! checkout done, run done) — scheduling decisions never consume
//! wall-clock randomness, so a run's *logic* is as deterministic as
//! its inputs; only the measured latencies vary with the host.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hfi_sim::{ChaosHook, RunRecord, Stop};
use hfi_util::split_mix64;

use crate::faults::{Backoff, CircuitBreaker};
use crate::pool::{PoolError, WarmPools};

/// One unit of work: run tenant `tenant`'s program once.
pub struct Request {
    /// Index into the pools' tenant table.
    pub tenant: usize,
    /// Virtual arrival time (ns since schedule epoch), echoed into the
    /// completion so queueing delay is `start_ns - arrival_ns`.
    pub arrival_ns: u64,
    /// Run budget, in the serving tier's native unit (instructions for
    /// the functional tier, cycles for the cycle tier).
    pub limit: u64,
    /// Optional wall-clock budget, measured from submission. A request
    /// still queued past its deadline completes as
    /// [`Outcome::DeadlineExceeded`] without running; one that is
    /// mid-run when the deadline passes is cooperatively cancelled via
    /// the executor's fuel hook (functional tier; the cycle tier has
    /// no cancellation seam and runs to its `limit`). The hook runs the
    /// same block-stepped loop as a request without a deadline, and
    /// polls the clock every 4096 steps.
    pub deadline: Option<Duration>,
    /// Optional fault-injection hook, installed for this run only
    /// (functional tier; the cycle tier has no chaos seam).
    pub chaos: Option<Box<dyn ChaosHook>>,
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The run finished (any [`Stop`]); counters and `r0` attached.
    Done {
        /// Why the executor stopped.
        stop: Stop,
        /// Unified counter snapshot of the run (boxed — it is an order
        /// of magnitude larger than the other variants).
        record: Box<RunRecord>,
        /// Architectural result register.
        r0: u64,
    },
    /// The verify-before-admit gate refused the tenant.
    Rejected {
        /// The verifier verdict the admission policy rejected.
        verified: Option<bool>,
        /// True when the denial was specifically a stale/mismatched
        /// proof digest ([`PoolError::StaleProof`]): the tenant carried
        /// safety evidence, but not for the program being installed.
        stale: bool,
    },
    /// The scheme's address space stayed exhausted across the retry
    /// budget (every instance leased, nothing idle to evict).
    Overloaded,
    /// The request's wall-clock budget expired.
    DeadlineExceeded {
        /// `false`: the deadline passed while the request was still
        /// queued (it never ran). `true`: the run was cooperatively
        /// cancelled mid-flight by the fuel hook.
        ran: bool,
    },
    /// The tenant's circuit breaker was open: shed without checkout.
    CircuitOpen,
    /// The run panicked; the leased instance was quarantined and the
    /// panic contained to this one request.
    Panicked {
        /// The panic payload's message, for the journal.
        message: String,
    },
    /// Shed at submission: the target shard queue was at its depth cap.
    Shed,
}

/// One completed request with its full latency breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Tenant index served.
    pub tenant: usize,
    /// Worker that ran the request (for [`Outcome::Shed`], the shard it
    /// would have queued on).
    pub worker: usize,
    /// True when the request was stolen from another shard.
    pub stolen: bool,
    /// True when the checkout was a warm-pool hit.
    pub warm: bool,
    /// Reuse count of the instance that served the request.
    pub generation: u64,
    /// Virtual arrival time echoed from the request (ns).
    pub arrival_ns: u64,
    /// Host time the request was picked up (ns since scheduler epoch).
    pub start_ns: u64,
    /// Host time the run finished (ns since scheduler epoch).
    pub finish_ns: u64,
    /// Checkout cost: warm pop or cold compile+admit+build (ns).
    pub setup_ns: u64,
    /// Pure run time (ns).
    pub service_ns: u64,
    /// `AtCapacity` checkout retries this request burned through the
    /// jittered-backoff loop before a lease (or `Overloaded`).
    pub retries: u32,
    /// How the request ended.
    pub outcome: Outcome,
}

/// Fault-containment knobs of one scheduler instance.
///
/// The default configuration preserves the historical scheduler
/// behavior wherever a knob is about *policy* (unbounded queues) and
/// enables containment where it is purely defensive (breakers): a
/// healthy workload never trips any of it. Panic quarantine is always
/// on; the capacity-retry backoff and the deadline poll period are
/// constants.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-shard queue depth cap; submissions beyond it complete
    /// immediately as [`Outcome::Shed`]. `usize::MAX` = unbounded.
    pub queue_cap: usize,
    /// Consecutive per-tenant failures that open the tenant's circuit
    /// breaker; `0` disables breakers.
    pub breaker_threshold: u32,
    /// Open-circuit cooldown before the half-open probe is admitted.
    pub breaker_cooldown: Duration,
    /// Seed for the backoff jitter streams (one per worker, split from
    /// this) — the retry schedule is deterministic under `--seed`.
    pub seed: u64,
    /// Injected worker deaths for chaos campaigns: worker `id` exits
    /// its loop after serving `n` requests, and the survivors steal the
    /// dead shard's queue. At least one worker must stay alive.
    pub worker_deaths: Vec<(usize, u64)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: usize::MAX,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(2),
            seed: 0x4641_554C,
            worker_deaths: Vec::new(),
        }
    }
}

/// `AtCapacity` checkout retries before [`Outcome::Overloaded`].
const CAPACITY_RETRIES: u32 = 32;
/// First backoff sleep of the capacity-retry loop.
const BACKOFF_BASE: Duration = Duration::from_micros(5);
/// Ceiling on any single backoff sleep.
const BACKOFF_CAP: Duration = Duration::from_millis(1);
/// Steps between deadline polls of the fuel hook: the cancellation
/// latency. The poll splits the functional tier's step budget, so it
/// costs one clock read per period and changes no loop.
const FUEL_PERIOD: u64 = 4096;

/// Longest a parked worker waits before it looks at its siblings'
/// shards again. `submit` wakes only the shard's owner, so this bounds
/// how late an idle worker steals from a busy sibling or picks up a
/// dead worker's shard; it is not the idle wake-up (see `worker_loop`).
/// `finish` also polls `pending` at this period.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// A queued request plus its submission timestamp (the deadline's
/// anchor).
struct Queued {
    request: Request,
    queued_ns: u64,
}

struct Inner {
    shards: Vec<Mutex<std::collections::VecDeque<Queued>>>,
    pools: Arc<WarmPools>,
    config: ServeConfig,
    /// One breaker per tenant, indexed like the pools' tenant table.
    breakers: Vec<Mutex<CircuitBreaker>>,
    epoch: Instant,
    /// Requests submitted and not yet completed.
    pending: AtomicU64,
    /// Round-robin cursor for `submit`.
    cursor: AtomicU64,
    shutdown: AtomicBool,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The serving scheduler: shard queues, worker threads, and a
/// completion stream.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// Submission-side sender, used to emit `Shed` completions without
    /// touching a worker.
    tx: Sender<Completion>,
    completions: Mutex<Receiver<Completion>>,
}

impl Scheduler {
    /// Spawns `workers` shard workers over `pools` with the default
    /// [`ServeConfig`].
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn new(pools: Arc<WarmPools>, workers: usize) -> Self {
        Self::with_config(pools, workers, ServeConfig::default())
    }

    /// Spawns `workers` shard workers over `pools` with explicit
    /// fault-containment knobs.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero, or when `config.worker_deaths`
    /// would leave no worker alive (every submitted request must still
    /// complete).
    pub fn with_config(pools: Arc<WarmPools>, workers: usize, config: ServeConfig) -> Self {
        assert!(workers > 0, "the scheduler needs at least one worker");
        let dying = config
            .worker_deaths
            .iter()
            .filter(|(id, _)| *id < workers)
            .count();
        assert!(
            dying < workers,
            "injected worker deaths must leave at least one worker alive"
        );
        let breakers = pools
            .tenants()
            .iter()
            .map(|_| {
                Mutex::new(CircuitBreaker::new(
                    config.breaker_threshold,
                    config.breaker_cooldown,
                ))
            })
            .collect();
        let inner = Arc::new(Inner {
            shards: (0..workers)
                .map(|_| Mutex::new(std::collections::VecDeque::new()))
                .collect(),
            pools,
            config,
            breakers,
            epoch: Instant::now(),
            pending: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::channel();
        let handles = (0..workers)
            .map(|id| {
                let inner = Arc::clone(&inner);
                let tx: Sender<Completion> = tx.clone();
                std::thread::spawn(move || worker_loop(id, &inner, &tx))
            })
            .collect();
        Scheduler {
            inner,
            workers: handles,
            tx,
            completions: Mutex::new(rx),
        }
    }

    /// Nanoseconds since the scheduler's epoch (host monotonic) — the
    /// clock completions are stamped with, exposed so the load harness
    /// can pace virtual arrivals against it.
    pub fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    /// The warm pools behind the shards.
    pub fn pools(&self) -> &Arc<WarmPools> {
        &self.inner.pools
    }

    /// Requests submitted and not yet completed.
    pub fn pending(&self) -> u64 {
        self.inner.pending.load(Ordering::Acquire)
    }

    /// Enqueues a request on the next shard (round-robin) and wakes the
    /// shard's worker. A shard at its depth cap sheds the request
    /// immediately: it completes as [`Outcome::Shed`] through the
    /// normal completion stream (so offered-vs-achieved accounting
    /// always balances) without ever occupying queue memory or worker
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `request.tenant` is out of range of the pools' tenant
    /// table.
    pub fn submit(&self, request: Request) {
        // Checked here, on the caller's thread: a worker indexing an
        // out-of-range tenant would die with the request still pending,
        // and `finish` would wait for it forever.
        assert!(
            request.tenant < self.inner.breakers.len(),
            "tenant {} is out of range of {} tenants",
            request.tenant,
            self.inner.breakers.len()
        );
        let shard =
            (self.inner.cursor.fetch_add(1, Ordering::Relaxed) as usize) % self.inner.shards.len();
        let queued_ns = self.inner.now_ns();
        {
            let mut queue = self.inner.shards[shard].lock().expect("shard unpoisoned");
            if queue.len() < self.inner.config.queue_cap {
                self.inner.pending.fetch_add(1, Ordering::AcqRel);
                queue.push_back(Queued { request, queued_ns });
                drop(queue);
                self.workers[shard].thread().unpark();
                return;
            }
        }
        let _ = self.tx.send(Completion {
            tenant: request.tenant,
            worker: shard,
            stolen: false,
            warm: false,
            generation: 0,
            arrival_ns: request.arrival_ns,
            start_ns: queued_ns,
            finish_ns: queued_ns,
            setup_ns: 0,
            service_ns: 0,
            retries: 0,
            outcome: Outcome::Shed,
        });
    }

    /// Non-blocking drain of completions accumulated so far.
    pub fn drain_completions(&self) -> Vec<Completion> {
        let rx = self.completions.lock().expect("completions unpoisoned");
        let mut out = Vec::new();
        while let Ok(c) = rx.try_recv() {
            out.push(c);
        }
        out
    }

    /// Waits for every submitted request to complete, stops the
    /// workers, and returns the remaining completions.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked. (A *request* panicking is
    /// contained — caught at the lease boundary, the instance
    /// quarantined, the completion reported as [`Outcome::Panicked`] —
    /// so a worker-thread panic here means a bug in the scheduler or
    /// pool plumbing itself, not tenant misbehavior.)
    pub fn finish(self) -> Vec<Completion> {
        while self.inner.pending.load(Ordering::Acquire) > 0 {
            std::thread::sleep(IDLE_SLEEP);
        }
        self.inner.shutdown.store(true, Ordering::Release);
        for handle in &self.workers {
            handle.thread().unpark();
        }
        for handle in self.workers {
            handle.join().expect("worker thread panicked");
        }
        let rx = self
            .completions
            .into_inner()
            .expect("completions unpoisoned");
        rx.try_iter().collect()
    }
}

/// Pops work for worker `id`: own shard front first (FIFO), then the
/// back of sibling shards (steal). Returns the request and whether it
/// was stolen.
fn pop_work(id: usize, inner: &Inner) -> Option<(Queued, bool)> {
    if let Some(req) = inner.shards[id]
        .lock()
        .expect("shard unpoisoned")
        .pop_front()
    {
        return Some((req, false));
    }
    let n = inner.shards.len();
    for offset in 1..n {
        let victim = (id + offset) % n;
        if let Some(req) = inner.shards[victim]
            .lock()
            .expect("shard unpoisoned")
            .pop_back()
        {
            return Some((req, true));
        }
    }
    None
}

fn worker_loop(id: usize, inner: &Inner, tx: &Sender<Completion>) {
    // Per-worker jitter stream, split from the scheduler seed so the
    // backoff schedule is deterministic under `--seed` yet workers
    // colliding on an exhausted pool decorrelate.
    let mut stream = inner.config.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut backoff = Backoff::new(BACKOFF_BASE, BACKOFF_CAP, split_mix64(&mut stream));
    let die_after = inner
        .config
        .worker_deaths
        .iter()
        .find(|(worker, _)| *worker == id)
        .map(|(_, after)| *after);
    let mut served = 0u64;
    loop {
        match pop_work(id, inner) {
            Some((queued, stolen)) => {
                let completion = serve_one(id, stolen, queued, inner, &mut backoff);
                // The scheduler may already have dropped its receiver
                // (finish() joined with a full channel buffer); a send
                // failure only loses telemetry, never work.
                let _ = tx.send(completion);
                inner.pending.fetch_sub(1, Ordering::AcqRel);
                served += 1;
                if die_after.is_some_and(|after| served >= after) {
                    // Injected worker death (chaos campaigns): exit the
                    // loop mid-shift. The shard queue is shared, so the
                    // surviving workers steal the orphaned requests and
                    // `finish` still drains to zero.
                    return;
                }
            }
            None => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // `submit` unparks this thread after its push, so a
                // request queued since `pop_work` looked leaves the park
                // token set and this returns at once. The timeout only
                // bounds stealing: siblings' submits never unpark us.
                std::thread::park_timeout(IDLE_SLEEP);
            }
        }
    }
}

/// A completion for a request that never reached an executor (shed,
/// expired, refused): all pre-lease time is accounted as setup.
#[allow(clippy::too_many_arguments)]
fn refused(
    worker: usize,
    stolen: bool,
    request: &Request,
    start_ns: u64,
    finish_ns: u64,
    retries: u32,
    outcome: Outcome,
) -> Completion {
    Completion {
        tenant: request.tenant,
        worker,
        stolen,
        warm: false,
        generation: 0,
        arrival_ns: request.arrival_ns,
        start_ns,
        finish_ns,
        setup_ns: finish_ns - start_ns,
        service_ns: 0,
        retries,
        outcome,
    }
}

/// Renders a caught panic payload for the completion journal.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one request end to end: deadline and breaker gates, checkout
/// (with jittered-backoff capacity retries), run under `catch_unwind`,
/// snapshot counters, release — or quarantine on panic.
fn serve_one(
    worker: usize,
    stolen: bool,
    queued: Queued,
    inner: &Inner,
    backoff: &mut Backoff,
) -> Completion {
    let Queued { request, queued_ns } = queued;
    let start_ns = inner.now_ns();
    // Gate 1: a request already past its deadline is dead on arrival —
    // classify it without paying for a checkout. Not a breaker event:
    // queue delay is the scheduler's doing, not the tenant's.
    if let Some(deadline) = request.deadline {
        if start_ns.saturating_sub(queued_ns) >= deadline.as_nanos() as u64 {
            let finish_ns = inner.now_ns();
            return refused(
                worker,
                stolen,
                &request,
                start_ns,
                finish_ns,
                0,
                Outcome::DeadlineExceeded { ran: false },
            );
        }
    }
    // Gate 2: the tenant's circuit breaker. An open circuit sheds in
    // O(1); a half-open one admits exactly this request as the probe.
    {
        let mut breaker = inner.breakers[request.tenant]
            .lock()
            .expect("breaker unpoisoned");
        if !breaker.admit(start_ns) {
            drop(breaker);
            let finish_ns = inner.now_ns();
            return refused(
                worker,
                stolen,
                &request,
                start_ns,
                finish_ns,
                0,
                Outcome::CircuitOpen,
            );
        }
    }
    let mut retries: u32 = 0;
    let lease = loop {
        match inner.pools.checkout(request.tenant) {
            Ok(lease) => break Ok(lease),
            Err(PoolError::AdmissionDenied { verified }) => {
                break Err(Outcome::Rejected {
                    verified,
                    stale: false,
                })
            }
            Err(PoolError::StaleProof { .. }) => {
                break Err(Outcome::Rejected {
                    verified: Some(true),
                    stale: true,
                })
            }
            Err(PoolError::AtCapacity) => {
                if retries >= CAPACITY_RETRIES {
                    break Err(Outcome::Overloaded);
                }
                std::thread::sleep(backoff.delay(retries));
                retries += 1;
            }
        }
    };
    let mut lease = match lease {
        Ok(lease) => lease,
        Err(outcome) => {
            let finish_ns = inner.now_ns();
            let mut breaker = inner.breakers[request.tenant]
                .lock()
                .expect("breaker unpoisoned");
            match &outcome {
                // An admission denial is the tenant's own defect (a
                // compile/verify failure burst): it counts toward the
                // breaker, so a tenant denied again and again is turned
                // away at the breaker instead of re-running the admission
                // check on every request.
                Outcome::Rejected { .. } => breaker.record_failure(finish_ns),
                // Capacity exhaustion is the pool's state, not this
                // tenant's health; inconclusive for a probe.
                _ => breaker.record_neutral(finish_ns),
            }
            drop(breaker);
            return refused(
                worker, stolen, &request, start_ns, finish_ns, retries, outcome,
            );
        }
    };
    let setup_done_ns = inner.now_ns();
    let warm = lease.warm;
    let generation = lease.instance.generation();
    if let Some(hook) = request.chaos {
        // Chaos hooks ride the functional tier; the pool's release
        // reset detaches the hook, so it never leaks into the next run.
        if let Some(functional) = lease.instance.functional_mut() {
            functional.set_chaos(hook);
        }
    }
    let deadline_at = request
        .deadline
        .map(|deadline| inner.epoch + Duration::from_nanos(queued_ns) + deadline);
    if let Some(at) = deadline_at {
        // Cooperative cancellation: the fuel hook polls the wall clock
        // every `FUEL_PERIOD` steps and stops the run (as
        // `Stop::CycleLimit`) once the deadline passes, so a runaway
        // kernel cannot hold this worker hostage. The pool's release
        // reset detaches the hook.
        if let Some(functional) = lease.instance.functional_mut() {
            functional.set_fuel(FUEL_PERIOD, Box::new(move || Instant::now() < at));
        }
    }
    let limit = request.limit;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let executor = lease.instance.executor_mut();
        let stop = executor.run(limit);
        let record = Box::new(executor.stats());
        let r0 = executor.regs()[0];
        (stop, record, r0)
    }));
    let finish_ns = inner.now_ns();
    let outcome = match ran {
        Ok((stop, record, r0)) => {
            // A CycleLimit stop past the deadline is the fuel hook's
            // cancellation (or a budget exhaustion that would have been
            // cancelled anyway — same SLA verdict either way).
            let expired = deadline_at.is_some_and(|at| Instant::now() >= at);
            inner.pools.release(lease);
            if stop == Stop::CycleLimit && expired {
                Outcome::DeadlineExceeded { ran: true }
            } else {
                Outcome::Done { stop, record, r0 }
            }
        }
        Err(payload) => {
            // Panic containment: the unwound instance's invariants are
            // gone, so it is quarantined — generation-bumped and parked
            // out of every reuse path — and the worker survives.
            let message = panic_message(payload.as_ref());
            inner.pools.quarantine(lease);
            Outcome::Panicked { message }
        }
    };
    {
        let mut breaker = inner.breakers[request.tenant]
            .lock()
            .expect("breaker unpoisoned");
        match &outcome {
            Outcome::Done { .. } => breaker.record_success(),
            Outcome::Panicked { .. } | Outcome::DeadlineExceeded { .. } => {
                breaker.record_failure(finish_ns);
            }
            _ => breaker.record_neutral(finish_ns),
        }
    }
    Completion {
        tenant: request.tenant,
        worker,
        stolen,
        warm,
        generation,
        arrival_ns: request.arrival_ns,
        start_ns,
        finish_ns,
        setup_ns: setup_done_ns - start_ns,
        service_ns: finish_ns - setup_done_ns,
        retries,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{AdmitPolicy, TenantSpec, Tier, WarmPools};
    use hfi_sim::chaos::ArchEvent;
    use hfi_sim::{Program, ProgramBuilder, Reg};
    use hfi_wasm::compiler::{Isolation, VerifyVerdict};

    fn tiny_program(result: u64) -> Arc<Program> {
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), result as i64);
        asm.halt();
        Arc::new(asm.finish())
    }

    /// A program that never halts (counts forever).
    fn loop_program() -> Arc<Program> {
        let mut asm = ProgramBuilder::new(0x1000);
        asm.movi(Reg(0), 0);
        let top = asm.label();
        asm.place(top);
        asm.alu_ri(hfi_sim::AluOp::Add, Reg(0), Reg(0), 1);
        asm.jump(top);
        asm.halt();
        Arc::new(asm.finish())
    }

    fn proven(program: &Arc<Program>) -> hfi_wasm::compiler::VerifyVerdict {
        let proof = hfi_verify::verify_program(program, &hfi_verify::SandboxSpec::new("test"))
            .expect("tiny program proves under an unconstrained spec");
        hfi_wasm::compiler::VerifyVerdict::Proven(Arc::new(proof))
    }

    fn pools(tenants: usize) -> Arc<WarmPools> {
        let tenants: Vec<TenantSpec> = (0..tenants)
            .map(|i| {
                let program = tiny_program(100 + i as u64);
                let verdict = proven(&program);
                TenantSpec::from_program(
                    format!("t{i}"),
                    program,
                    verdict,
                    Isolation::Hfi,
                    Tier::Functional,
                    0x1000_0000,
                    Vec::new(),
                    Some(100 + i as u64),
                )
            })
            .collect();
        Arc::new(WarmPools::new(
            Arc::new(tenants),
            42,
            64 << 20,
            AdmitPolicy::RequireVerified,
        ))
    }

    fn request(tenant: usize) -> Request {
        Request {
            tenant,
            arrival_ns: 0,
            limit: 1_000,
            deadline: None,
            chaos: None,
        }
    }

    /// A chaos hook that panics on the first observed event.
    struct PanicHook;
    impl ChaosHook for PanicHook {
        fn observe(&mut self, _event: &ArchEvent) {
            panic!("injected dispatch panic");
        }
    }

    #[test]
    fn every_submitted_request_completes_correctly() {
        let pools = pools(4);
        let scheduler = Scheduler::new(Arc::clone(&pools), 3);
        let n = 60;
        for i in 0..n {
            scheduler.submit(Request {
                arrival_ns: scheduler.now_ns(),
                ..request(i % 4)
            });
        }
        let completions = scheduler.finish();
        assert_eq!(completions.len(), n);
        for completion in &completions {
            match &completion.outcome {
                Outcome::Done { stop, r0, .. } => {
                    assert_eq!(*stop, Stop::Halted);
                    assert_eq!(*r0, 100 + completion.tenant as u64);
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
            assert!(completion.finish_ns >= completion.start_ns);
            assert!(completion.finish_ns >= completion.arrival_ns);
            assert_eq!(
                completion.finish_ns - completion.start_ns,
                completion.setup_ns + completion.service_ns
            );
            assert!(completion.worker < 3);
            assert_eq!(completion.retries, 0, "a warm pool never hits capacity");
        }
        // Four tenants need at least one cold build each (two workers
        // racing on the same cold tenant may build a few extra); every
        // other request is a warm hit.
        let stats = pools.stats();
        assert!(stats.cold_builds >= 4);
        assert_eq!(stats.warm_hits + stats.cold_builds, n as u64);
        let warm = completions.iter().filter(|c| c.warm).count();
        assert_eq!(warm as u64, stats.warm_hits);
    }

    #[test]
    fn completions_report_growing_generations_per_tenant() {
        let pools = pools(1);
        let scheduler = Scheduler::new(pools, 1);
        for _ in 0..5 {
            scheduler.submit(request(0));
        }
        let mut completions = scheduler.finish();
        completions.sort_by_key(|c| c.finish_ns);
        let generations: Vec<u64> = completions.iter().map(|c| c.generation).collect();
        assert_eq!(generations, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_deadline_requests_expire_in_queue_without_running() {
        let pools = pools(1);
        let scheduler = Scheduler::new(Arc::clone(&pools), 1);
        for _ in 0..3 {
            scheduler.submit(Request {
                deadline: Some(Duration::ZERO),
                ..request(0)
            });
        }
        let completions = scheduler.finish();
        assert_eq!(completions.len(), 3);
        for completion in &completions {
            assert_eq!(
                completion.outcome,
                Outcome::DeadlineExceeded { ran: false },
                "a zero budget can never be met"
            );
            assert_eq!(completion.service_ns, 0, "the request must never run");
        }
        assert_eq!(
            pools.stats().cold_builds,
            0,
            "expired requests must not pay for a checkout"
        );
    }

    #[test]
    fn runaway_kernels_are_cancelled_at_their_deadline() {
        // An infinite loop with a huge instruction budget: only the
        // wall-clock deadline (via the fuel hook) can stop it.
        let program = loop_program();
        let tenants = vec![TenantSpec::from_program(
            "runaway".to_string(),
            program,
            VerifyVerdict::Unchecked,
            Isolation::Hfi,
            Tier::Functional,
            0x1000_0000,
            Vec::new(),
            None,
        )];
        let pools = Arc::new(WarmPools::new(
            Arc::new(tenants),
            42,
            64 << 20,
            AdmitPolicy::VerifiedOrExempt,
        ));
        let scheduler = Scheduler::new(pools, 1);
        let started = Instant::now();
        scheduler.submit(Request {
            deadline: Some(Duration::from_millis(20)),
            limit: u64::MAX,
            ..request(0)
        });
        let completions = scheduler.finish();
        assert_eq!(completions.len(), 1);
        assert_eq!(
            completions[0].outcome,
            Outcome::DeadlineExceeded { ran: true },
            "the fuel hook must cancel the run mid-flight"
        );
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "cancellation must be prompt, not budget exhaustion"
        );
    }

    #[test]
    fn panics_are_contained_quarantined_and_trip_the_breaker() {
        let pools = pools(2);
        let config = ServeConfig {
            breaker_threshold: 2,
            // Longer than the test: once open, stays open.
            breaker_cooldown: Duration::from_secs(300),
            ..ServeConfig::default()
        };
        let scheduler = Scheduler::with_config(Arc::clone(&pools), 1, config);
        // Two panicking requests open tenant 0's breaker; the third is
        // shed as CircuitOpen. Tenant 1 is unaffected throughout.
        for _ in 0..3 {
            scheduler.submit(Request {
                chaos: Some(Box::new(PanicHook)),
                ..request(0)
            });
        }
        scheduler.submit(request(1));
        let mut completions = scheduler.finish();
        completions.sort_by_key(|c| c.finish_ns);
        let tenant0: Vec<&Completion> = completions.iter().filter(|c| c.tenant == 0).collect();
        assert!(matches!(
            tenant0[0].outcome,
            Outcome::Panicked { ref message } if message.contains("injected")
        ));
        assert!(matches!(tenant0[1].outcome, Outcome::Panicked { .. }));
        assert_eq!(tenant0[2].outcome, Outcome::CircuitOpen);
        let healthy: Vec<&Completion> = completions.iter().filter(|c| c.tenant == 1).collect();
        assert!(
            matches!(
                &healthy[0].outcome,
                Outcome::Done {
                    stop: Stop::Halted,
                    r0: 101,
                    ..
                }
            ),
            "the co-tenant must be untouched by the panics"
        );
        let stats = pools.stats();
        assert_eq!(stats.quarantined, 2, "each panicked lease is quarantined");
        assert_eq!(pools.quarantined_serials(0).len(), 2);
    }

    #[test]
    fn over_cap_submissions_shed_immediately() {
        let pools = pools(1);
        let config = ServeConfig {
            queue_cap: 0,
            ..ServeConfig::default()
        };
        let scheduler = Scheduler::with_config(pools, 1, config);
        for _ in 0..5 {
            scheduler.submit(request(0));
        }
        let completions = scheduler.finish();
        assert_eq!(completions.len(), 5, "shed requests still complete");
        for completion in &completions {
            assert_eq!(completion.outcome, Outcome::Shed);
            assert_eq!(completion.setup_ns, 0);
            assert_eq!(completion.service_ns, 0);
        }
    }

    #[test]
    fn surviving_workers_drain_a_dead_workers_shard() {
        let pools = pools(2);
        let config = ServeConfig {
            // Worker 0 dies after its first request; workers 1 and 2
            // must steal the rest of its shard.
            worker_deaths: vec![(0, 1)],
            ..ServeConfig::default()
        };
        let scheduler = Scheduler::with_config(Arc::clone(&pools), 3, config);
        let n = 30;
        for i in 0..n {
            scheduler.submit(request(i % 2));
        }
        let completions = scheduler.finish();
        assert_eq!(completions.len(), n, "no request may be lost to the death");
        for completion in &completions {
            assert!(
                matches!(
                    completion.outcome,
                    Outcome::Done {
                        stop: Stop::Halted,
                        ..
                    }
                ),
                "unexpected outcome: {:?}",
                completion.outcome
            );
        }
        // Worker 0 exits after its first serve. (It can also serve
        // zero: siblings may steal its whole shard before it wakes.)
        assert!(
            completions.iter().filter(|c| c.worker == 0).count() <= 1,
            "worker 0 must serve at most one request before dying"
        );
    }

    #[test]
    fn an_idle_worker_starts_a_request_without_waiting_out_a_sleep() {
        let scheduler = Scheduler::new(pools(1), 1);
        let mut rng = hfi_util::Rng::new(17);
        let mut waits_ns = Vec::new();
        for _ in 0..300 {
            // A seeded pause after the previous completion, so the
            // worker has gone idle (and the pause is out of phase with
            // any fixed poll period) at every submit.
            std::thread::sleep(Duration::from_micros(rng.range_u64(100, 401)));
            scheduler.submit(Request {
                arrival_ns: scheduler.now_ns(),
                ..request(0)
            });
            let completion = loop {
                if let Some(c) = scheduler.drain_completions().pop() {
                    break c;
                }
                std::thread::yield_now();
            };
            assert!(matches!(completion.outcome, Outcome::Done { .. }));
            waits_ns.push(completion.start_ns - completion.arrival_ns);
        }
        scheduler.finish();
        waits_ns.sort_unstable();
        let median = Duration::from_nanos(waits_ns[waits_ns.len() / 2]);
        assert!(
            median < IDLE_SLEEP / 2,
            "an idle worker took {median:?} (median) to start a request"
        );
    }

    #[test]
    fn out_of_range_tenants_panic_at_submit_and_serving_goes_on() {
        let scheduler = Scheduler::new(pools(1), 1);
        let submitted = catch_unwind(AssertUnwindSafe(|| scheduler.submit(request(5))));
        assert!(
            submitted.is_err(),
            "tenant 5 of 1 must be refused on the caller's thread"
        );
        scheduler.submit(request(0));
        let completions = scheduler.finish();
        assert_eq!(completions.len(), 1);
        assert!(matches!(
            completions[0].outcome,
            Outcome::Done {
                stop: Stop::Halted,
                r0: 100,
                ..
            }
        ));
    }

    #[test]
    fn killing_every_worker_is_refused() {
        let result = std::panic::catch_unwind(|| {
            Scheduler::with_config(
                pools(1),
                2,
                ServeConfig {
                    worker_deaths: vec![(0, 1), (1, 1)],
                    ..ServeConfig::default()
                },
            )
        });
        assert!(result.is_err(), "a fully-dying worker set must be rejected");
    }
}
