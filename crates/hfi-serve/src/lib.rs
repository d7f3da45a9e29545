//! hfi-serve: a sharded, multi-tenant sandbox-serving engine over the
//! HFI executor tiers.
//!
//! The FaaS density experiments in `hfi-faas` *model* the paper's
//! §6.3.2 claim — HFI sandboxes are cheap enough to tear down and
//! re-provision that a host can pack tens of thousands of them where a
//! guard-page runtime exhausts its address space at a few hundred.
//! This crate *measures* the serving side of that claim end to end:
//!
//! * [`pool`] — warm-instance pools keyed by tenant, with
//!   generation-stamped reuse, verify-before-admit, and address-space
//!   charging against the real [`hfi_wasm::runtime::SandboxRuntime`]
//!   (GuardPages pays the 8 GiB reservation per live instance, HFI
//!   pays only its heap);
//! * [`sched`] — a hand-rolled work-stealing scheduler (one worker per
//!   shard, FIFO for owners, LIFO stealing) multiplexing tenants over
//!   the executor tiers, stamping every completion with queueing,
//!   setup, and service nanoseconds;
//! * [`faults`] — tenant-level fault containment: per-tenant circuit
//!   breakers (closed → open → half-open probe) and seeded
//!   jittered-exponential backoff, composed by the scheduler with the
//!   pools' panic quarantine and its own deadline loop, which runs a
//!   request in resumable slices and reads the clock between them;
//! * [`loadgen`] — a deterministic open-loop arrival generator
//!   (seeded Poisson and two-state MMPP over virtual time), so the
//!   offered-load sweeps in `serve_bench` are reproducible
//!   byte-for-byte from a seed.
//!
//! The `serve_bench` binary in `hfi-bench` drives all three and
//! commits `BENCH_serving.json`; the `serving-smoke` CI job gates its
//! p99 and throughput against the committed baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod loadgen;
pub mod pool;
pub mod sched;

pub use faults::{Backoff, BreakerState, CircuitBreaker};
pub use loadgen::{schedule, Arrival, ArrivalProcess};
pub use pool::{
    select_cheapest_scheme, AdmitDecision, AdmitPolicy, Lease, PoolError, PoolStats, TenantSource,
    TenantSpec, Tier, WarmInstance, WarmPools,
};
pub use sched::{Completion, Outcome, Request, Scheduler, ServeConfig};

// The whole serving engine is shared across worker threads; keep the
// Send/Sync obligations visible at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WarmPools>();
    const fn assert_send<T: Send>() {}
    assert_send::<Request>();
    assert_send::<Completion>();
};
