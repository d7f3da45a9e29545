//! # hfi-bench — experiment harnesses for every table and figure
//!
//! One binary per experiment (see DESIGN.md's experiment index). This
//! library holds the shared plumbing:
//!
//! * [`Harness`] — job-grid fan-out over worker threads with
//!   deterministic result ordering, `--smoke` scaling, and JSON-lines
//!   [`RunRecord`] telemetry under `target/bench-records/`.
//! * Cell runners ([`run_on_machine`], [`run_functional`],
//!   [`run_emulated`], [`run_cell`]) — compile a kernel, execute it on
//!   one [`Executor`] vehicle, check the architectural result against
//!   the kernel's Rust reference, and capture the full counter surface.
//! * Shared figure grids ([`fig3_grid`], [`fig2_grid`]) used by both
//!   the binaries and the cross-executor integration tests.
//! * [`gate`] — the one path from a measurement to a committed
//!   `BENCH_*.json` and its verdict against a baseline.
//! * Plain-text table output and summary statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzzgen;
pub mod gate;
pub mod harness;
pub mod transitions;
pub mod verifyset;

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use hfi_sim::{Emulated, Executor, Functional, Machine, RunRecord, Stop};
use hfi_wasm::compiler::{compile, CompileOptions, CompiledKernel, Isolation};
use hfi_wasm::kernels::{sightglass, speclike, Kernel};

pub use harness::{run_supervised, CellOutcome, Cli, Flag, GridOptions, Harness};

/// Cache key for [`compile_cached`]: a cheap structural fingerprint of
/// the kernel (name alone is not unique — suites are parameterized by
/// scale) plus the full `Debug` rendering of the compile options.
type CompileKey = (String, u64, usize, usize, String);

/// Process-wide compile memo backing [`compile_cached`].
static COMPILE_CACHE: OnceLock<Mutex<HashMap<CompileKey, CompiledKernel>>> = OnceLock::new();

/// Compiles `kernel` under `opts`, memoized per kernel × options for the
/// lifetime of the process.
///
/// Every vehicle wrapper below funnels through this, so a grid that runs
/// the same (kernel, isolation) cell on the cycle, emulated, and
/// functional executors compiles it once and hands all three the *same*
/// `Arc<Program>` allocation — which in turn means the identity-keyed
/// pre-decode (`plan_of`) and A.2-transform (`emulate_arc`) caches in
/// `hfi-sim` hit instead of re-lowering per executor.
///
/// A cache hit clones only counters and an `Arc` pointer; the program's
/// instruction vector is shared.
pub fn compile_cached(kernel: &Kernel, opts: &CompileOptions) -> CompiledKernel {
    let key: CompileKey = (
        kernel.name.clone(),
        kernel.expected,
        kernel.func.insts.len(),
        kernel.heap_init_len(),
        format!("{opts:?}"),
    );
    let cache = COMPILE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // The cache is insert-only, so a lock poisoned by a panicking grid
    // worker still guards a consistent map: recover the guard instead of
    // cascading that one panic into every subsequent cell.
    if let Some(hit) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return hit.clone();
    }
    // Compile outside the lock so parallel grid workers never serialize
    // on a miss; a racing duplicate insert just loses to `or_insert`.
    let compiled = compile(&kernel.func, opts);
    cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(key)
        .or_insert(compiled)
        .clone()
}

/// Prints a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Cycle budget for cycle-level runs (the machine stops past this).
pub const MACHINE_LIMIT: u64 = 4_000_000_000;
/// Instruction budget for functional runs.
pub const FUNCTIONAL_LIMIT: u64 = 50_000_000_000;

/// Result of running one kernel on a cycle-level vehicle.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Cycles consumed.
    pub cycles: u64,
    /// Instructions committed.
    pub instructions: u64,
    /// The compiled artifact (for code-size reporting).
    pub compiled: CompiledKernel,
    /// The full counter surface of the run.
    pub record: RunRecord,
}

/// Loads a kernel's heap image, runs `executor` to completion, checks
/// the result against the kernel's Rust reference, and returns the
/// unified counter snapshot. This is the one code path every vehicle
/// shares; the per-vehicle wrappers below only pick the executor.
///
/// # Panics
///
/// Panics if the kernel misbehaves (does not halt or returns a wrong
/// result) — harnesses must not silently report nonsense.
pub fn run_cell(executor: &mut dyn Executor, kernel: &Kernel, heap_base: u64) -> RunRecord {
    for (off, bytes) in &kernel.heap_init {
        executor.prepare(heap_base + *off as u64, bytes);
    }
    let limit = match executor.kind() {
        hfi_sim::ExecutorKind::Functional => FUNCTIONAL_LIMIT,
        _ => MACHINE_LIMIT,
    };
    let started = std::time::Instant::now();
    let stop = executor.run(limit);
    let host_ns = started.elapsed().as_nanos() as u64;
    assert_eq!(
        stop,
        Stop::Halted,
        "{} did not halt on {}",
        kernel.name,
        executor.kind()
    );
    assert_eq!(
        executor.regs()[0],
        kernel.expected,
        "{} wrong result on {}",
        kernel.name,
        executor.kind()
    );
    executor.stats().with_host_timing(host_ns)
}

/// Compiles and runs `kernel` on the cycle-level machine.
///
/// # Panics
///
/// Panics if the kernel misbehaves.
pub fn run_on_machine(kernel: &Kernel, isolation: Isolation) -> KernelRun {
    let opts = CompileOptions::new(isolation);
    run_on_machine_with(kernel, &opts)
}

/// Like [`run_on_machine`] with explicit compile options.
///
/// # Panics
///
/// Panics if the kernel misbehaves.
pub fn run_on_machine_with(kernel: &Kernel, opts: &CompileOptions) -> KernelRun {
    let compiled = compile_cached(kernel, opts);
    let mut machine = Machine::new(compiled.program.clone());
    let mut record = run_cell(&mut machine, kernel, opts.heap_base);
    record.verified = compiled.verified() == Some(true);
    record.proof_digest = compiled.proof_digest_word();
    KernelRun {
        cycles: record.cycles as u64,
        instructions: record.committed,
        compiled,
        record,
    }
}

/// Compiles and runs `kernel` through the Appendix A.2 emulation
/// transform on the cycle-level machine (the Fig. 2 "emulated" leg).
///
/// # Panics
///
/// Panics if the kernel misbehaves.
pub fn run_emulated(kernel: &Kernel, isolation: Isolation) -> KernelRun {
    let opts = CompileOptions::new(isolation);
    let compiled = compile_cached(kernel, &opts);
    let mut emulated = Emulated::from_arc(&compiled.program, opts.heap_base);
    let mut record = run_cell(&mut emulated, kernel, opts.heap_base);
    // The emulated stream carries its own proof: translation validation
    // against the (verified) original, not trust in the transform.
    match hfi_wasm::verify_emulated_kernel(&compiled) {
        Some(Ok(proof)) => {
            record.verified = true;
            record.proof_digest = proof.digest.word();
        }
        _ => record.verified = false,
    }
    KernelRun {
        cycles: record.cycles as u64,
        instructions: record.committed,
        compiled,
        record,
    }
}

/// Runs `kernel` on the fast functional executor; returns modelled
/// cycles and the counter snapshot.
///
/// # Panics
///
/// Panics if the kernel misbehaves.
pub fn run_functional_record(kernel: &Kernel, isolation: Isolation) -> RunRecord {
    let opts = CompileOptions::new(isolation);
    let compiled = compile_cached(kernel, &opts);
    let mut functional = Functional::new(compiled.program.clone());
    let mut record = run_cell(&mut functional, kernel, opts.heap_base);
    record.verified = compiled.verified() == Some(true);
    record.proof_digest = compiled.proof_digest_word();
    record
}

/// Runs `kernel` on the fast functional executor; returns modelled cycles.
///
/// # Panics
///
/// Panics if the kernel misbehaves.
pub fn run_functional(kernel: &Kernel, isolation: Isolation) -> f64 {
    run_functional_record(kernel, isolation).cycles
}

/// The isolation schemes of the Fig. 3 comparison, in presentation order.
pub const FIG3_SCHEMES: [Isolation; 3] = [
    Isolation::GuardPages,
    Isolation::BoundsChecks,
    Isolation::Hfi,
];

/// One (kernel × isolation) cell of the Fig. 3 grid.
#[derive(Debug, Clone)]
pub struct Fig3Cell {
    /// Kernel name.
    pub kernel: String,
    /// Isolation scheme this cell ran under.
    pub isolation: Isolation,
    /// The cycle-level run.
    pub run: KernelRun,
}

/// Runs the Fig. 3 grid — the SPEC-like suite × [`FIG3_SCHEMES`] — on
/// the cycle simulator through `harness`, in suite-major order. In smoke
/// mode the suite is truncated to its first three kernels.
///
/// # Panics
///
/// Panics if any kernel misbehaves.
pub fn fig3_grid(harness: &Harness) -> Vec<Fig3Cell> {
    let kernels = harness.subset(speclike::suite(1), 3);
    let cells: Vec<(&Kernel, Isolation)> = kernels
        .iter()
        .flat_map(|kernel| FIG3_SCHEMES.iter().map(move |iso| (kernel, *iso)))
        .collect();
    harness.run_grid(&cells, |(kernel, isolation)| Fig3Cell {
        kernel: kernel.name.clone(),
        isolation: *isolation,
        run: run_on_machine(kernel, *isolation),
    })
}

/// One kernel of the Fig. 2 cross-executor grid: the same program on all
/// three vehicles under HFI.
#[derive(Debug, Clone)]
pub struct Fig2Cell {
    /// Kernel name.
    pub kernel: String,
    /// Real HFI instructions on the cycle simulator.
    pub cycle: KernelRun,
    /// The Appendix A.2 emulation on the cycle simulator.
    pub emulated: KernelRun,
    /// The calibrated functional interpreter.
    pub functional: RunRecord,
}

/// Runs the Fig. 2 cross-executor grid — the Sightglass-like suite on
/// cycle, emulated, and functional vehicles — through `harness`. In
/// smoke mode the suite is truncated to its first three kernels.
///
/// # Panics
///
/// Panics if any kernel misbehaves on any vehicle.
pub fn fig2_grid(harness: &Harness) -> Vec<Fig2Cell> {
    let kernels = harness.subset(sightglass::suite(1), 3);
    harness.run_grid(&kernels, |kernel| Fig2Cell {
        kernel: kernel.name.clone(),
        cycle: run_on_machine(kernel, Isolation::Hfi),
        emulated: run_emulated(kernel, Isolation::Hfi),
        functional: run_functional_record(kernel, Isolation::Hfi),
    })
}

/// Geometric mean of a slice.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median of a slice (`NaN` for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    // total_cmp orders NaN after +inf, so a poisoned sample skews the
    // stat instead of panicking a whole figure binary mid-sweep.
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-9);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn median_tolerates_nan_samples() {
        // total_cmp sorts NaN after +inf: the stat degrades gracefully
        // instead of panicking the binary.
        assert!((median(&[1.0, f64::NAN, 2.0]) - 2.0).abs() < 1e-9);
        assert!(median(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn compile_cache_shares_one_program_per_cell() {
        let kernel = hfi_wasm::kernels::sightglass::fib2(1);
        let opts = CompileOptions::new(Isolation::Hfi);
        let a = compile_cached(&kernel, &opts);
        let b = compile_cached(&kernel, &opts);
        assert!(
            std::sync::Arc::ptr_eq(&a.program, &b.program),
            "same kernel × options must share one Arc<Program>"
        );
        // A different option set (or kernel scale) is a different cell.
        let other_opts = CompileOptions::new(Isolation::BoundsChecks);
        let c = compile_cached(&kernel, &other_opts);
        assert!(!std::sync::Arc::ptr_eq(&a.program, &c.program));
        let scaled = hfi_wasm::kernels::sightglass::fib2(2);
        let d = compile_cached(&scaled, &opts);
        assert!(!std::sync::Arc::ptr_eq(&a.program, &d.program));
    }

    #[test]
    fn machine_runner_checks_results() {
        let kernel = hfi_wasm::kernels::sightglass::fib2(1);
        let run = run_on_machine(&kernel, Isolation::Hfi);
        assert!(run.cycles > 0);
        assert!(run.instructions > 0);
        assert!(
            run.record.hfi_checks > 0,
            "HFI run must exercise the checker"
        );
    }

    #[test]
    fn all_three_vehicles_agree_on_results() {
        let kernel = hfi_wasm::kernels::sightglass::fib2(1);
        let cycle = run_on_machine(&kernel, Isolation::Hfi);
        let emulated = run_emulated(&kernel, Isolation::Hfi);
        let functional = run_functional_record(&kernel, Isolation::Hfi);
        // Same committed work on both cycle-level vehicles (the A.2
        // transform is index-preserving) and a successful functional run.
        assert!(emulated.instructions > 0);
        assert!(functional.committed > 0);
        assert!(cycle.cycles > 0 && emulated.cycles > 0);
    }

    #[test]
    fn fig3_smoke_grid_is_parallel_deterministic() {
        let sequential = fig3_grid(&Harness::new("fig3", 1, true));
        let parallel = fig3_grid(&Harness::new("fig3", 4, true));
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(a.isolation, b.isolation);
            assert_eq!(a.run.cycles, b.run.cycles, "{}", a.kernel);
            assert_eq!(a.run.record, b.run.record, "{}", a.kernel);
        }
    }
}
