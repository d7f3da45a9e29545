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
//! Flags:
//!
//! * `--smoke` / `HFI_SMOKE=1` — first three kernels only (CI).
//! * `--check <baseline.json>` (alias `--baseline <baseline.json>`) —
//!   after measuring, gate each tier against the baseline file's
//!   `"sim_mips_<tier>"` value and print the old → new delta per tier.
//! * `--out <path>` — output path (default `BENCH_throughput.json`).
//!
//! # Gate semantics
//!
//! The gate compares each tier's aggregate sim-MIPS against the
//! baseline's matching `sim_mips_cycle` / `sim_mips_functional` field
//! **independently** and fails (exit 1) if any tier regressed more than
//! [`REGRESSION_BUDGET`] (the printed gate lines quote the budget from
//! that constant — the one source of truth for the threshold). Gating
//! per tier matters: an interpreter rewrite that accidentally slowed
//! the cycle machine (or vice versa) must not be able to hide inside a
//! blended aggregate. The baseline is read
//! *before* the output file is written, so `--check
//! BENCH_throughput.json --out BENCH_throughput.json` gates against the
//! previously committed numbers — never against the file this run is
//! about to write. A missing or unreadable baseline, or a baseline
//! missing a tier's key, is a usage error (exit 2), not a pass: a gate
//! that silently skips its comparison would green-light any regression.
//! Absolute MIPS are host-dependent, so a baseline is only meaningful
//! against runs on the same machine class.

use std::time::Instant;

use hfi_bench::{
    compile_cached, print_table, run_functional_record, run_on_machine, Harness, FIG3_SCHEMES,
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

struct TierResult {
    tier: &'static str,
    committed: u64,
    cycles: u64,
    host_ns: u64,
    sim_mips: f64,
}

fn extract_json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && c != '+' && c != 'e' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let harness = Harness::from_env("throughput");
    let mut check: Option<String> = None;
    let mut out_path = "BENCH_throughput.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" | "--baseline" => check = args.next(),
            "--out" => {
                if let Some(p) = args.next() {
                    out_path = p;
                }
            }
            _ => {}
        }
    }

    // Read the baseline up front: before the output file is written, so
    // `--check` against the default output path gates on the previous
    // run and not the file this run is about to write — and before the
    // measurement, so a mispointed path fails fast. A missing or
    // malformed baseline is a usage error (exit 2): silently skipping
    // the comparison would turn the gate into a no-op exactly when it
    // is mispointed.
    let baseline_mips: Option<Vec<(&str, f64)>> = check.as_ref().map(|baseline_path| {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "[throughput] ERROR: cannot read baseline {baseline_path}: {e}\n\
                     [throughput] run once without --check to record a baseline first"
                );
                std::process::exit(2);
            }
        };
        TIERS
            .iter()
            .map(|tier| {
                let key = format!("sim_mips_{tier}");
                let mips = extract_json_number(&baseline, &key).unwrap_or_else(|| {
                    eprintln!(
                        "[throughput] ERROR: no \"{key}\" field in baseline {baseline_path}\n\
                         [throughput] re-record the baseline with this binary first"
                    );
                    std::process::exit(2);
                });
                (*tier, mips)
            })
            .collect()
    });

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

    let tiers: Vec<TierResult> = TIERS
        .iter()
        .map(|tier| {
            let tier_cells: Vec<&CellResult> = cells.iter().filter(|c| c.tier == *tier).collect();
            let committed: u64 = tier_cells.iter().map(|c| c.committed).sum();
            let cycles: u64 = tier_cells.iter().map(|c| c.cycles).sum();
            let host_ns: u64 = tier_cells.iter().map(|c| c.host_ns).sum::<u64>().max(1);
            TierResult {
                tier,
                committed,
                cycles,
                host_ns,
                sim_mips: committed as f64 / (host_ns as f64 / 1e9) / 1e6,
            }
        })
        .collect();

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
    for t in &tiers {
        println!(
            "  {:>10}: {} instructions in {:.1} ms -> {:.2} sim-MIPS",
            t.tier,
            t.committed,
            t.host_ns as f64 / 1e6,
            t.sim_mips
        );
    }
    let cycle = &tiers[0];
    println!(
        "  host-ns/cycle (cycle tier): {:.1}",
        cycle.host_ns as f64 / cycle.cycles.max(1) as f64
    );

    let mut json = String::from("{");
    json.push_str(&format!(
        "\"figure\":\"throughput\",\"mode\":\"{}\"",
        if harness.smoke() { "smoke" } else { "full" }
    ));
    for t in &tiers {
        json.push_str(&format!(
            ",\"sim_mips_{}\":{:.3},\"total_committed_{}\":{},\"total_cycles_{}\":{},\
             \"total_host_ns_{}\":{}",
            t.tier, t.sim_mips, t.tier, t.committed, t.tier, t.cycles, t.tier, t.host_ns
        ));
    }
    json.push_str(&format!(
        ",\"host_ns_per_cycle\":{:.3},\"cells\":[",
        cycle.host_ns as f64 / cycle.cycles.max(1) as f64
    ));
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"tier\":\"{}\",\"kernel\":\"{}\",\"isolation\":\"{}\",\"committed\":{},\
             \"cycles\":{},\"host_ns\":{}}}",
            c.tier, c.kernel, c.isolation, c.committed, c.cycles, c.host_ns
        ));
    }
    json.push_str("]}");
    std::fs::write(&out_path, format!("{json}\n")).expect("write throughput json");
    eprintln!("[throughput] wrote {out_path}");

    if let Some(baseline_mips) = baseline_mips {
        let mut failed = false;
        for (tier, baseline) in baseline_mips {
            let measured = tiers
                .iter()
                .find(|t| t.tier == tier)
                .expect("baseline tiers mirror TIERS")
                .sim_mips;
            let floor = baseline * (1.0 - REGRESSION_BUDGET);
            let delta_pct = (measured / baseline - 1.0) * 100.0;
            println!(
                "  gate[{tier}]: {baseline:.2} -> {measured:.2} sim-MIPS ({delta_pct:+.1}%, \
                 floor {floor:.2})"
            );
            if measured < floor {
                eprintln!(
                    "[throughput] FAIL: {tier} tier regressed more than {:.0}% \
                     ({measured:.2} < {floor:.2})",
                    REGRESSION_BUDGET * 100.0
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("  gate: OK (all tiers within budget)");
    }
}
