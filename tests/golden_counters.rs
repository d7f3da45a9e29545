//! Golden counter-exactness gate for the cycle simulator.
//!
//! The hot-loop optimizations (ring-buffer ROB, zero-clone issue, delta
//! undo journals, page/cache flattening, the event-driven issue stage)
//! must not change a single architectural counter: every figure in the
//! reproduction depends on them. This test runs the Fig. 3 smoke grid,
//! the two ROB-bound SPEC-like cells and the §6.4.1 syscall
//! interposition kernels on the cycle-level `Machine` and compares the
//! *full* counter surface — cycles, committed, squashed, branches,
//! mispredicts, ROB stalls, serializations, every cache and dTLB
//! hit/miss count, HFI checks/faults, and syscall routing — against the
//! values recorded from the pre-optimization simulator.
//!
//! Both cycle-level vehicles are pinned: the true-HFI `Machine` runs and
//! the Appendix A.2 **emulated** runs (the `emulate` program transform on
//! the same cycle core), so neither the hot-loop work nor the predecode
//! front end can silently drift the A.2 emulation story.
//!
//! To re-record after an *intentional* timing-model change:
//!
//! ```text
//! HFI_BLESS=1 cargo test --release --test golden_counters
//! git diff tests/golden/counters.txt   # review every changed counter!
//! ```

use std::fmt::Write as _;

use hfi_bench::{run_emulated, run_functional_record, run_fused_record, run_on_machine};
use hfi_native::syscalls::{run_benchmark, Interposition};
use hfi_sim::RunRecord;
use hfi_wasm::compiler::Isolation;
use hfi_wasm::kernels::speclike;

const GOLDEN_PATH: &str = "tests/golden/counters.txt";

/// The architectural counter surface of one run, serialized one line per
/// cell. Host-side throughput fields (`sim_mips`, `host_ns_per_cycle`)
/// are deliberately absent: they vary run to run and carry no
/// architectural meaning.
fn record_line(label: &str, record: &RunRecord) -> String {
    format!(
        "{label} cycles={} committed={} squashed={} branches={} mispredicts={} \
         rob_stall_cycles={} serializations={} \
         l1i={}/{} l1d={}/{} l2={}/{} dtlb={}/{} \
         hfi_checks={} hfi_faults={} sys_redirected={} sys_to_os={}",
        record.cycles,
        record.committed,
        record.squashed,
        record.branches,
        record.mispredicts,
        record.rob_stall_cycles,
        record.serializations,
        record.l1i_hits,
        record.l1i_misses,
        record.l1d_hits,
        record.l1d_misses,
        record.l2_hits,
        record.l2_misses,
        record.dtlb_hits,
        record.dtlb_misses,
        record.hfi_checks,
        record.hfi_faults,
        record.syscalls_redirected,
        record.syscalls_to_os,
    )
}

fn collect_counters() -> String {
    let mut out = String::new();

    // The Fig. 3 smoke grid: first three SPEC-like kernels under all
    // three isolation schemes (matches `fig3_grid`'s smoke subset).
    let kernels = {
        let mut suite = speclike::suite(1);
        suite.truncate(3);
        suite
    };
    let schemes = [
        Isolation::GuardPages,
        Isolation::BoundsChecks,
        Isolation::Hfi,
    ];
    // Plus the two ROB-bound cells, whose issue windows hold the most
    // parked entries; only their Hfi runs stall `hmov` loads behind
    // older stores, the path where `hfi_checks` counts every retry.
    let rob_bound: Vec<_> = speclike::suite(1)
        .into_iter()
        .filter(|k| matches!(k.name.as_str(), "456.hmmer-like" | "462.libquantum-like"))
        .collect();
    assert_eq!(rob_bound.len(), 2, "ROB-bound kernels renamed?");
    for kernel in kernels.iter().chain(&rob_bound) {
        for isolation in schemes {
            let run = run_on_machine(kernel, isolation);
            let label = format!("fig3/{}/{:?}", kernel.name, isolation);
            writeln!(out, "{}", record_line(&label, &run.record)).unwrap();
        }
    }

    // The same grid through the Appendix A.2 emulation transform on the
    // cycle core: pins the transform itself (hmov -> constant-base mov,
    // enter/exit -> cpuid) as well as the machine that runs it.
    for kernel in &kernels {
        for isolation in schemes {
            let run = run_emulated(kernel, isolation);
            let label = format!("fig3-emulated/{}/{:?}", kernel.name, isolation);
            writeln!(out, "{}", record_line(&label, &run.record)).unwrap();
        }
    }

    // §6.4.1 syscall interposition: the machine-level stats of the
    // open/read/close loop under each mechanism.
    for mechanism in [
        Interposition::None,
        Interposition::Hfi,
        Interposition::Seccomp,
    ] {
        let run = run_benchmark(200, mechanism);
        let stats = run.result.stats;
        writeln!(
            out,
            "syscall/{:?} cycles={} committed={} squashed={} branches={} mispredicts={} \
             rob_stall_cycles={} serializations={} hfi_checks={} hfi_faults={} \
             sys_redirected={} sys_to_os={}",
            mechanism,
            run.result.cycles,
            stats.committed,
            stats.squashed,
            stats.branches,
            stats.mispredicts,
            stats.rob_stall_cycles,
            stats.serializations,
            stats.hfi_checks,
            stats.faults,
            stats.syscalls_redirected,
            stats.syscalls_to_os,
        )
        .unwrap();
    }

    out
}

/// Fused-vs-unfused differential over the same Fig. 3 smoke grid: the
/// block-threaded superinstruction tier must reproduce the reference
/// functional tier's full architectural counter surface — cycles,
/// retired, branches, serializations, HFI checks, faults, syscall
/// routing — on every cell. The golden file pins the cycle core to the
/// recorded seed; this test pins the fused tier to the functional
/// reference at the same per-counter granularity (the serialized line
/// format is shared so a divergence prints exactly which counter moved).
#[test]
fn fused_tier_matches_functional_reference_on_fig3_grid() {
    let kernels = {
        let mut suite = speclike::suite(1);
        suite.truncate(3);
        suite
    };
    let schemes = [
        Isolation::GuardPages,
        Isolation::BoundsChecks,
        Isolation::Hfi,
    ];
    for kernel in &kernels {
        for isolation in schemes {
            let label = format!("fig3-fused/{}/{:?}", kernel.name, isolation);
            let unfused = run_functional_record(kernel, isolation);
            let fused = run_fused_record(kernel, isolation);
            assert_eq!(
                record_line(&label, &unfused),
                record_line(&label, &fused),
                "{label}: fused tier diverged from the functional reference"
            );
        }
    }
}

#[test]
fn counters_are_bit_identical_to_recorded_seed() {
    let actual = collect_counters();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var("HFI_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!(
            "[golden] blessed {} -> {}",
            actual.lines().count(),
            path.display()
        );
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with HFI_BLESS=1",
            path.display()
        )
    });
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            if a != e {
                eprintln!("line {}:\n  expected: {e}\n  actual:   {a}", i + 1);
            }
        }
        let (an, en) = (actual.lines().count(), expected.lines().count());
        assert_eq!(an, en, "golden line-count mismatch");
        panic!(
            "architectural counters diverged from the recorded seed; if the \
             timing model changed intentionally, re-bless with HFI_BLESS=1 \
             and review the diff"
        );
    }
}
