//! Drives a workload's requests through the serving tier and checks
//! every result: the scheduler pass that end-to-end metrics come from,
//! and the single-threaded replay that times the pool's checkout and
//! release from outside.

use std::sync::Arc;
use std::time::Duration;

use hfi_serve::{
    Arrival, Completion, Outcome, PoolError, PoolStats, Request, Scheduler, WarmPools,
};
use hfi_sim::{RunRecord, Stop};
use hfi_wasm::compiler::Isolation;

use crate::reference::Reference;
use crate::trace;
use crate::workload::{self, TenantStream, Traffic, Workload};

/// Scheduler workers: one, so the load generator has the other core.
pub const WORKERS: usize = 1;

/// How long the closed-loop client first sleeps when no completion is
/// ready; each empty poll doubles it up to `CLIENT_POLL_MAX`.
const CLIENT_POLL: Duration = Duration::from_micros(50);
const CLIENT_POLL_MAX: Duration = Duration::from_millis(1);

/// Checks outcomes against each tenant's expected result and, when a
/// reference is given, each cycle-tier cell's recorded cycle and
/// instruction counts.
pub struct Checker<'a> {
    /// Per tenant: display name, isolation, expected `r0`.
    tenants: Vec<(String, Isolation, u64)>,
    reference: Option<&'a Reference>,
    /// Corrupt the first checked result (exercises the check itself).
    inject: bool,
    /// Results checked.
    pub checked: u64,
    /// Results found wrong.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl<'a> Checker<'a> {
    /// A checker for `workload`'s tenants.
    pub fn new(workload: Workload, reference: Option<&'a Reference>, inject: bool) -> Self {
        let tenants = workload
            .cells()
            .into_iter()
            .map(|(kernel, opts)| (kernel.name, opts.isolation, kernel.expected))
            .collect();
        Checker {
            tenants,
            reference,
            inject,
            checked: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts `n` requests that were offered but never completed.
    pub fn lost(&mut self, n: u64) {
        if n > 0 {
            self.checked += n;
            self.fail(n, format!("{n} offered requests never completed"));
        }
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Counts a checkout the pools refused.
    pub fn refused(&mut self, tenant: usize, error: &PoolError) {
        self.checked += 1;
        let (name, isolation, _) = &self.tenants[tenant];
        self.fail(
            1,
            format!("{name}/{isolation:?} (tenant {tenant}): {error}"),
        );
    }

    /// True when `outcome` is a correct completion of `tenant`'s request.
    pub fn check(&mut self, tenant: usize, outcome: &Outcome) -> bool {
        self.checked += 1;
        let verdict = self.verdict(tenant, outcome);
        if let Err(why) = &verdict {
            let (name, isolation, _) = &self.tenants[tenant];
            self.fail(1, format!("{name}/{isolation:?} (tenant {tenant}): {why}"));
        }
        verdict.is_ok()
    }

    fn verdict(&mut self, tenant: usize, outcome: &Outcome) -> Result<(), String> {
        let Outcome::Done { stop, record, r0 } = outcome else {
            return Err(format!("{outcome:?}"));
        };
        let mut r0 = *r0;
        if std::mem::take(&mut self.inject) {
            r0 ^= 1;
        }
        let (name, isolation, expected) = &self.tenants[tenant];
        if *stop != Stop::Halted || r0 != *expected {
            return Err(format!(
                "stopped {stop:?} with r0 = {r0}, expected Halted with {expected}"
            ));
        }
        if let Some(reference) = self.reference {
            let want = reference
                .cell(name, *isolation)
                .ok_or_else(|| "no reference cell".to_string())?;
            let got = (record.cycles as u64, record.committed);
            if got != (want.sim_cycles, want.committed) {
                return Err(format!(
                    "sim_cycles/committed {got:?}, reference {:?}",
                    (want.sim_cycles, want.committed)
                ));
            }
        }
        Ok(())
    }
}

/// What one completion contributes to the metrics.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Tenant served.
    pub tenant: usize,
    /// Due time (open loop) or submission time (closed loop), scheduler ns.
    pub arrival_ns: u64,
    /// Picked up by the worker, scheduler ns.
    pub start_ns: u64,
    /// Run finished, scheduler ns.
    pub finish_ns: u64,
    /// Checkout time, ns.
    pub setup_ns: u64,
    /// Run time, ns.
    pub service_ns: u64,
    /// Instructions committed (0 unless the request ran).
    pub committed: u64,
    /// Simulated cycles (0 unless the request ran).
    pub cycles: f64,
    /// Stolen from another worker's shard.
    pub stolen: bool,
    /// Which outcome class ended the request.
    pub outcome: OutcomeClass,
}

/// Outcome classes the benchmark counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Halted with the expected result.
    Correct,
    /// Ran, but stopped otherwise or returned a wrong result.
    Wrong,
    /// Admission refused the tenant.
    Rejected,
    /// The address space stayed exhausted.
    Overloaded,
    /// The deadline passed.
    DeadlineExceeded,
    /// The tenant's breaker was open.
    CircuitOpen,
    /// The run panicked.
    Panicked,
    /// Shed at a full queue.
    Shed,
}

impl OutcomeClass {
    /// Short label for span details.
    pub fn label(self) -> &'static str {
        match self {
            OutcomeClass::Correct => "correct",
            OutcomeClass::Wrong => "wrong",
            OutcomeClass::Rejected => "rejected",
            OutcomeClass::Overloaded => "overloaded",
            OutcomeClass::DeadlineExceeded => "deadline_exceeded",
            OutcomeClass::CircuitOpen => "circuit_open",
            OutcomeClass::Panicked => "panicked",
            OutcomeClass::Shed => "shed",
        }
    }
}

fn sample(completion: &Completion, checker: &mut Checker) -> Sample {
    let correct = checker.check(completion.tenant, &completion.outcome);
    let (committed, cycles) = match &completion.outcome {
        Outcome::Done { record, .. } => (record.committed, record.cycles),
        _ => (0, 0.0),
    };
    let outcome = match &completion.outcome {
        Outcome::Done { .. } if correct => OutcomeClass::Correct,
        Outcome::Done { .. } => OutcomeClass::Wrong,
        Outcome::Rejected { .. } => OutcomeClass::Rejected,
        Outcome::Overloaded => OutcomeClass::Overloaded,
        Outcome::DeadlineExceeded { .. } => OutcomeClass::DeadlineExceeded,
        Outcome::CircuitOpen => OutcomeClass::CircuitOpen,
        Outcome::Panicked { .. } => OutcomeClass::Panicked,
        Outcome::Shed => OutcomeClass::Shed,
    };
    Sample {
        tenant: completion.tenant,
        arrival_ns: completion.arrival_ns,
        start_ns: completion.start_ns,
        finish_ns: completion.finish_ns,
        setup_ns: completion.setup_ns,
        service_ns: completion.service_ns,
        committed,
        cycles,
        stolen: completion.stolen,
        outcome,
    }
}

/// One scheduler pass over a workload's requests.
pub struct Pass {
    /// Requests submitted.
    pub offered: u64,
    /// One sample per completion, in completion order.
    pub samples: Vec<Sample>,
    /// How late each submission was: behind its due time (open loop) or
    /// behind the completion that freed its slot (closed loop), ns.
    pub lateness_ns: Vec<u64>,
    /// First submission to last completion, ns.
    pub wall_ns: u64,
    /// Add to a scheduler timestamp to get trace time.
    pub trace_offset_ns: i64,
    /// Submissions per whole pass over the sequence.
    pub pass: usize,
    /// Scheduler time of the first submission, ns.
    pub epoch_ns: u64,
    /// Length of the measured phase: the schedule (open loop) or the
    /// time new requests were offered (closed loop), ns.
    pub measured_ns: u64,
    /// True for open-loop traffic.
    pub open: bool,
}

impl Pass {
    /// Completions that halted with the expected result.
    pub fn correct(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(|s| s.outcome == OutcomeClass::Correct)
    }

    /// Completions ending in `class`.
    pub fn count(&self, class: OutcomeClass) -> u64 {
        self.samples.iter().filter(|s| s.outcome == class).count() as u64
    }
}

/// Sleeps, then spins, until the scheduler clock reaches `target_ns`.
fn pace(scheduler: &Scheduler, target_ns: u64) {
    loop {
        let now = scheduler.now_ns();
        if now >= target_ns {
            return;
        }
        let gap = target_ns - now;
        if gap > 200_000 {
            std::thread::sleep(Duration::from_nanos(gap - 100_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs the requests `seed` gives `workload` through a one-worker
/// scheduler over `pools`: open traffic paced to its schedule, closed
/// traffic for `seconds` and then to the end of the current pass.
pub fn run_pass(
    workload: Workload,
    pools: &Arc<WarmPools>,
    seed: u64,
    seconds: u64,
    checker: &mut Checker,
) -> Pass {
    let span = trace::open("schedule");
    match workload.traffic() {
        Traffic::Open { rate_rps } => {
            let arrivals = workload::arrivals(workload, rate_rps, seed, seconds);
            span.close();
            run_open(workload, pools, &arrivals, seconds, checker)
        }
        Traffic::Closed { outstanding, pass } => {
            let tenants = TenantStream::new(workload, seed);
            span.close();
            run_closed(
                workload,
                pools,
                tenants,
                outstanding,
                pass,
                seconds,
                checker,
            )
        }
    }
}

fn request(workload: Workload, tenant: usize, arrival_ns: u64) -> Request {
    Request {
        tenant,
        arrival_ns,
        limit: workload.limit(),
        deadline: None,
        chaos: None,
    }
}

/// Submits each arrival at its due time, however far behind the
/// scheduler is; latency counts from the due time.
pub fn run_open(
    workload: Workload,
    pools: &Arc<WarmPools>,
    arrivals: &[Arrival],
    seconds: u64,
    checker: &mut Checker,
) -> Pass {
    let scheduler = Scheduler::new(Arc::clone(pools), WORKERS);
    let trace_offset_ns = trace::now_ns() as i64 - scheduler.now_ns() as i64;
    let epoch = scheduler.now_ns();
    let mut lateness_ns = Vec::with_capacity(arrivals.len());
    for arrival in arrivals {
        let due = epoch + arrival.at_ns;
        pace(&scheduler, due);
        lateness_ns.push(scheduler.now_ns() - due);
        scheduler.submit(request(workload, arrival.tenant, due));
    }
    let samples: Vec<Sample> = scheduler
        .finish()
        .iter()
        .map(|c| sample(c, checker))
        .collect();
    let last = samples.iter().map(|s| s.finish_ns).max().unwrap_or(epoch);
    Pass {
        offered: arrivals.len() as u64,
        samples,
        lateness_ns,
        wall_ns: last.saturating_sub(epoch).max(1),
        trace_offset_ns,
        pass: 1,
        epoch_ns: epoch,
        measured_ns: seconds * 1_000_000_000,
        open: true,
    }
}

/// Keeps `outstanding` requests from `tenants` in flight, submitting
/// the next as each completes, for `seconds` and then up to a multiple
/// of `pass` submissions.
pub fn run_closed(
    workload: Workload,
    pools: &Arc<WarmPools>,
    mut tenants: impl Iterator<Item = usize>,
    outstanding: usize,
    pass: usize,
    seconds: u64,
    checker: &mut Checker,
) -> Pass {
    let scheduler = Scheduler::new(Arc::clone(pools), WORKERS);
    let trace_offset_ns = trace::now_ns() as i64 - scheduler.now_ns() as i64;
    let epoch = scheduler.now_ns();
    let end = epoch + seconds * 1_000_000_000;
    let mut next = || tenants.next().expect("tenant streams are endless");
    let mut lateness_ns = Vec::new();
    let mut samples = Vec::new();
    let mut submitted = 0u64;
    let mut poll = CLIENT_POLL;
    for _ in 0..outstanding {
        scheduler.submit(request(workload, next(), scheduler.now_ns()));
        submitted += 1;
    }
    while (samples.len() as u64) < submitted {
        let drained = scheduler.drain_completions();
        if drained.is_empty() {
            // Sleep rather than spin, backing off while nothing
            // completes: a busy client competes with the worker for its
            // core (or its SMT sibling). The worker keeps
            // `outstanding - 1` queued requests meanwhile.
            std::thread::sleep(poll);
            poll = (poll * 2).min(CLIENT_POLL_MAX);
        } else {
            poll = CLIENT_POLL;
        }
        for completion in drained {
            samples.push(sample(&completion, checker));
            let now = scheduler.now_ns();
            if now < end || !submitted.is_multiple_of(pass as u64) {
                lateness_ns.push(now.saturating_sub(completion.finish_ns));
                scheduler.submit(request(workload, next(), now));
                submitted += 1;
            }
        }
    }
    samples.extend(scheduler.finish().iter().map(|c| sample(c, checker)));
    let last = samples.iter().map(|s| s.finish_ns).max().unwrap_or(epoch);
    Pass {
        offered: submitted,
        samples,
        lateness_ns,
        wall_ns: last.saturating_sub(epoch).max(1),
        trace_offset_ns,
        pass,
        epoch_ns: epoch,
        measured_ns: seconds * 1_000_000_000,
        open: false,
    }
}

/// Detail of the `queue`, `checkout` and `run` spans cut from a traced
/// pass's completions, which sets them apart from the replay's.
pub const PASS_DETAIL: &str = "served";

/// Records the first `cap` completions of a traced pass as spans: a
/// `request` span from due time to finish, with `queue`, `checkout` and
/// `run` children cut from the completion's own stamps.
pub fn record_pass_spans(pass: &Pass, cap: usize) {
    let at = |ns: u64| (ns as i64 + pass.trace_offset_ns).max(0) as u64;
    for (i, s) in pass.samples.iter().take(cap).enumerate() {
        let request = Some(i as u64);
        let id = trace::next_id();
        let run_start = s.start_ns + s.setup_ns;
        trace::record(trace::Span {
            id,
            name: "request",
            detail: s.outcome.label().to_string(),
            start_ns: at(s.arrival_ns),
            end_ns: at(s.finish_ns),
            parent: None,
            request,
        });
        for (name, start, end) in [
            ("queue", s.arrival_ns, s.start_ns),
            ("checkout", s.start_ns, run_start),
            ("run", run_start, s.finish_ns),
        ] {
            trace::record(trace::Span {
                id: trace::next_id(),
                name,
                detail: PASS_DETAIL.to_string(),
                start_ns: at(start),
                end_ns: at(end),
                parent: Some(id),
                request,
            });
        }
    }
}

/// The replay's exact results.
pub struct Replay {
    /// Counter snapshot of every correct run, in sequence order.
    pub records: Vec<(usize, RunRecord)>,
    /// Pool counters the replay added.
    pub pool: PoolStats,
    /// Pool high-water mark of live instances after the replay.
    pub peak_resident: u64,
}

/// Serves `tenants` in order on this thread — checkout, run, release,
/// each in its own span — so the pool's layers are timed from outside.
pub fn replay(
    workload: Workload,
    pools: &WarmPools,
    tenants: &[usize],
    checker: &mut Checker,
) -> Replay {
    let before = pools.stats();
    let mut records = Vec::with_capacity(tenants.len());
    for (i, &tenant) in tenants.iter().enumerate() {
        let request = trace::open("request").request(i as u64);
        let mut checkout = trace::open("checkout").request(i as u64);
        let lease = pools.checkout(tenant);
        checkout.set_detail(match &lease {
            Ok(lease) if lease.warm => "warm",
            Ok(_) => "cold",
            Err(_) => "refused",
        });
        checkout.close();
        let mut lease = match lease {
            Ok(lease) => lease,
            Err(e) => {
                checker.refused(tenant, &e);
                request.close();
                continue;
            }
        };
        let run = trace::open("run").request(i as u64);
        let executor = lease.instance.executor_mut();
        let stop = executor.run(workload.limit());
        run.close();
        let record = executor.stats();
        let outcome = Outcome::Done {
            stop,
            record: Box::new(record),
            r0: executor.regs()[0],
        };
        if checker.check(tenant, &outcome) {
            records.push((tenant, record));
        }
        let release = trace::open("release").request(i as u64);
        pools.release(lease);
        release.close();
        request.close();
    }
    let after = pools.stats();
    Replay {
        records,
        pool: PoolStats {
            warm_hits: after.warm_hits - before.warm_hits,
            cold_builds: after.cold_builds - before.cold_builds,
            recycled: after.recycled - before.recycled,
            ..PoolStats::default()
        },
        peak_resident: after.peak_resident,
    }
}
