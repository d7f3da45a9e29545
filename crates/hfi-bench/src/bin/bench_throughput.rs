//! Host-side throughput of the simulator tiers on the Fig. 3 workload —
//! the scaling lever for every figure in the reproduction.
//!
//! Runs the SPEC-like suite under the three Fig. 3 isolation schemes on
//! each executor tier — the cycle `Machine` and the functional
//! interpreter — sequentially (per-core simulated-instruction
//! throughput is the metric; the parallel harness already saturates
//! cores), and emits `BENCH_throughput.json` at the repo root:
//!
//! ```text
//! cargo run --release -p hfi-bench --bin bench_throughput -- --smoke
//! ```
//!
//! Flags (plus the shared harness flags):
//!
//! * `--smoke` / `HFI_SMOKE=1` — first three kernels only (CI).
//! * `--check <baseline.json>` — gate this run against a previous
//!   summary through [`hfi_bench::gate`].
//! * `--out <path>` — output path (default `BENCH_throughput.json`).
//!
//! # Gate semantics
//!
//! Per tier, `sim_mips_<tier>` may fall at most [`REGRESSION_BUDGET`]
//! below the baseline, and `total_committed_<tier>` and
//! `total_cycles_<tier>` must equal it exactly: they are simulated
//! counts, so any change is a diff to explain. Gating per tier matters:
//! an interpreter rewrite that accidentally slowed the cycle machine
//! (or vice versa) must not be able to hide inside a blended aggregate.
//! Absolute MIPS are host-dependent, so a baseline is only meaningful
//! against runs on the same machine class.

use std::time::Instant;

use hfi_bench::gate::{self, Gate, Rule, Summary};
use hfi_bench::{
    compile_cached, print_table, run_functional_record, run_on_machine, Cli, FIG3_SCHEMES,
};
use hfi_wasm::compiler::CompileOptions;
use hfi_wasm::kernels::speclike;

/// Allowed fractional sim-MIPS regression before `--check` fails.
const REGRESSION_BUDGET: f64 = 0.20;

/// The executor tiers the benchmark sweeps, in presentation order.
const TIERS: [&str; 2] = ["cycle", "functional"];

struct CellResult {
    tier: &'static str,
    kernel: String,
    isolation: String,
    committed: u64,
    cycles: u64,
    host_ns: u64,
}

fn main() {
    let cli = Cli::from_env(&gate::FLAGS);
    let harness = cli.harness("throughput");
    let mut rules = Vec::new();
    for tier in TIERS {
        rules.push((format!("sim_mips_{tier}"), Rule::Floor(REGRESSION_BUDGET)));
        rules.push((format!("total_committed_{tier}"), Rule::Exact));
        rules.push((format!("total_cycles_{tier}"), Rule::Exact));
    }
    let gate = Gate::load(&cli, "throughput", "BENCH_throughput.json", rules);

    let kernels = harness.subset(speclike::suite(1), 3);

    // Warm the compile cache so the first timed tier does not pay
    // wasm-compilation costs the later tiers get for free.
    for kernel in &kernels {
        for isolation in FIG3_SCHEMES {
            compile_cached(kernel, &CompileOptions::new(isolation));
        }
    }

    let mut cells = Vec::new();
    for tier in TIERS {
        for kernel in &kernels {
            for isolation in FIG3_SCHEMES {
                let started = Instant::now();
                let (committed, cycles) = match tier {
                    "cycle" => {
                        let run = run_on_machine(kernel, isolation);
                        (run.instructions, run.cycles)
                    }
                    "functional" => {
                        let record = run_functional_record(kernel, isolation);
                        (record.committed, record.cycles as u64)
                    }
                    _ => unreachable!(),
                };
                let host_ns = started.elapsed().as_nanos() as u64;
                cells.push(CellResult {
                    tier,
                    kernel: kernel.name.clone(),
                    isolation: format!("{isolation:?}"),
                    committed,
                    cycles,
                    host_ns,
                });
            }
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let mips = c.committed as f64 / (c.host_ns.max(1) as f64 / 1e9) / 1e6;
            vec![
                c.tier.to_string(),
                c.kernel.clone(),
                c.isolation.clone(),
                c.committed.to_string(),
                format!("{:.1}ms", c.host_ns as f64 / 1e6),
                format!("{mips:.2}"),
            ]
        })
        .collect();
    print_table(
        "Simulator throughput on the Fig. 3 workload (per tier)",
        &[
            "tier",
            "kernel",
            "isolation",
            "committed",
            "host time",
            "sim-MIPS",
        ],
        &rows,
    );
    println!();
    let mut summary = gate.summary(&harness);
    let mut host_ns_per_cycle = 0.0;
    for tier in TIERS {
        let sum = |f: fn(&CellResult) -> u64| -> u64 {
            cells.iter().filter(|c| c.tier == tier).map(f).sum()
        };
        let (committed, cycles) = (sum(|c| c.committed), sum(|c| c.cycles));
        let host_ns = sum(|c| c.host_ns).max(1);
        let sim_mips = committed as f64 / (host_ns as f64 / 1e9) / 1e6;
        let ms = host_ns as f64 / 1e6;
        println!("  {tier:>10}: {committed} instructions in {ms:.1} ms -> {sim_mips:.2} sim-MIPS");
        if tier == "cycle" {
            host_ns_per_cycle = host_ns as f64 / cycles.max(1) as f64;
        }
        summary = summary
            .num(&format!("sim_mips_{tier}"), sim_mips, 3)
            .int(&format!("total_committed_{tier}"), committed)
            .int(&format!("total_cycles_{tier}"), cycles)
            .int(&format!("total_host_ns_{tier}"), host_ns);
    }
    println!("  host-ns/cycle (cycle tier): {host_ns_per_cycle:.1}");
    let cells = cells.iter().map(|c| {
        Summary::default()
            .text("tier", c.tier)
            .text("kernel", &c.kernel)
            .text("isolation", &c.isolation)
            .int("committed", c.committed)
            .int("cycles", c.cycles)
            .int("host_ns", c.host_ns)
    });
    let summary = summary.num("host_ns_per_cycle", host_ns_per_cycle, 3);
    gate.finish(summary.array("cells", cells));
}
