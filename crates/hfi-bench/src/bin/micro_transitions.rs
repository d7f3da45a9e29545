//! §1/§2/§3.4: sandbox transition costs — the modeled cost spectrum
//! *and* the executed per-scheme round trips measured from real
//! prologue/epilogue instructions on both executor tiers.
//!
//! The modeled table keeps the paper's context-switch spectrum (Wasm
//! call → HFI variants → MPK → process IPC). The executed tables come
//! from [`hfi_bench::transitions`]: each [`TransitionScheme`] compiles
//! a pure-compute probe with its real springboard, and the overhead
//! over the unsandboxed body *is* the transition tax — so zeroing,
//! stack switching, and serialization are priced by execution, not by
//! constants. The amortization sweep then spreads that tax over
//! growing bodies, and everything lands in `BENCH_transitions.json`:
//!
//! ```text
//! cargo run --release -p hfi-bench --bin micro_transitions
//! ```
//!
//! Flags (plus the shared harness flags, `--smoke`, `--jobs N`):
//!
//! * `--check <baseline.json>` — gate the executed round trips against
//!   a previous summary through [`hfi_bench::gate`].
//! * `--out <path>` — output path (default `BENCH_transitions.json`).
//!
//! # Gate semantics
//!
//! * **Elision invariant** (always on): the ZeroCost scheme's executed
//!   round trip must be at most *half* the FullSpringboard round trip
//!   on both tiers — the verified-elision payoff the tentpole claims.
//! * **Baseline** (`--check`): per scheme, `rt_func_<label>` and
//!   `rt_cycle_<label>` must equal the baseline exactly. Both tiers are
//!   deterministic simulators, so any change is a diff to explain.

use hfi_bench::gate::{self, Gate, Rule, Summary};
use hfi_bench::{print_table, transitions, Cli};
use hfi_core::{CostModel, TransitionScheme};
use hfi_wasm::Transition;

fn main() {
    let cli = Cli::from_env(&gate::FLAGS);
    let mut harness = cli.harness("micro_transitions");
    let mut rules = Vec::new();
    for scheme in TransitionScheme::ALL {
        rules.push((format!("rt_func_{}", scheme.label()), Rule::Exact));
        rules.push((format!("rt_cycle_{}", scheme.label()), Rule::Exact));
    }
    let mut gate = Gate::load(&cli, "transitions", "BENCH_transitions.json", rules);

    // --- The modeled spectrum (kept: the paper's §2 context table). ---
    let costs = CostModel::default();
    let cycles = harness.run_grid(&Transition::ALL, |t| t.round_trip_cycles(&costs));
    let zero = cycles[0] as f64;
    let rows: Vec<Vec<String>> = Transition::ALL
        .iter()
        .zip(&cycles)
        .map(|(t, c)| {
            vec![
                t.to_string(),
                c.to_string(),
                format!("{:.1}x", *c as f64 / zero),
            ]
        })
        .collect();
    print_table(
        "Modeled transition round-trip spectrum",
        &["mechanism", "cycles", "vs function call"],
        &rows,
    );
    for (t, c) in Transition::ALL.iter().zip(&cycles) {
        harness.note(&[
            ("mechanism", t.to_string()),
            ("round_trip_cycles", c.to_string()),
        ]);
    }

    // --- Executed round trips: real prologues on both tiers. ---
    let measured = harness.run_grid(&TransitionScheme::ALL, |s| transitions::measure(*s, 1));
    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|m| {
            vec![
                m.scheme.label().to_string(),
                m.transition_ops.to_string(),
                format!("{:?}", m.verified),
                m.round_trip_functional.to_string(),
                m.round_trip_cycle.to_string(),
                Transition::for_scheme(m.scheme)
                    .round_trip_cycles(&costs)
                    .to_string(),
            ]
        })
        .collect();
    print_table(
        "Executed enter/exit round trips per scheme (overhead vs unsandboxed body)",
        &[
            "scheme",
            "springboard ops",
            "verified",
            "functional",
            "cycle machine",
            "modeled",
        ],
        &rows,
    );
    for m in &measured {
        harness.note(&[
            ("scheme", m.scheme.label().to_string()),
            ("rt_functional", m.round_trip_functional.to_string()),
            ("rt_cycle", m.round_trip_cycle.to_string()),
            ("transition_ops", m.transition_ops.to_string()),
        ]);
    }

    // --- Amortization: the same tax over growing bodies. ---
    let scales = harness.subset(vec![1u32, 2, 4, 8], 2);
    let grid: Vec<(TransitionScheme, u32)> = TransitionScheme::ALL
        .iter()
        .flat_map(|s| scales.iter().map(move |scale| (*s, *scale)))
        .collect();
    let points = harness.run_grid(&grid, |(scheme, scale)| {
        transitions::amortize(*scheme, *scale)
    });
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.scheme.label().to_string(),
                p.scale.to_string(),
                p.body_cycles.to_string(),
                p.total_cycles.to_string(),
                p.overhead_cycles.to_string(),
                format!("{:.2}%", p.overhead_pct),
            ]
        })
        .collect();
    print_table(
        "Amortization: executed transition tax vs body size (functional tier)",
        &["scheme", "scale", "body", "total", "overhead", "overhead %"],
        &rows,
    );
    println!("\n  paper: Wasm transitions are 'low 10s of cycles, roughly a function call';");
    println!("  IPC is 1000x-10000x; switch-on-exit removes most serialization cost (S4.5);");
    println!("  Kolosick-style elision drops the springboard tax when the verifier proves it.");
    for p in &points {
        harness.note(&[
            ("scheme", p.scheme.label().to_string()),
            ("scale", p.scale.to_string()),
            ("body_cycles", p.body_cycles.to_string()),
            ("total_cycles", p.total_cycles.to_string()),
            ("overhead_cycles", p.overhead_cycles.to_string()),
        ]);
    }

    // --- BENCH_transitions.json and its gate. ---
    let mut summary = gate.summary(&harness);
    for m in &measured {
        let label = m.scheme.label();
        summary = summary
            .int(&format!("rt_func_{label}"), m.round_trip_functional)
            .int(&format!("rt_cycle_{label}"), m.round_trip_cycle);
    }
    let summary = summary.array(
        "amortization",
        points.iter().map(|p| {
            Summary::default()
                .text("scheme", p.scheme.label())
                .int("scale", p.scale.into())
                .int("body_cycles", p.body_cycles)
                .int("total_cycles", p.total_cycles)
                .int("overhead_cycles", p.overhead_cycles)
                .num("overhead_pct", p.overhead_pct, 3)
        }),
    );
    harness.finish().expect("write bench records");

    let by = |s: TransitionScheme| measured.iter().find(|m| m.scheme == s).expect("measured");
    let (zero, spring) = (
        by(TransitionScheme::ZeroCost),
        by(TransitionScheme::FullSpringboard),
    );
    let tiers = [
        (
            "func",
            zero.round_trip_functional,
            spring.round_trip_functional,
        ),
        ("cycle", zero.round_trip_cycle, spring.round_trip_cycle),
    ];
    for (tier, z, s) in tiers {
        let bound = format!("<= {s} (rt_{tier}_full-springboard)");
        gate.check(
            &format!("elision: 2 x rt_{tier}_zero-cost"),
            z * 2,
            bound,
            z * 2 <= s,
        );
    }
    gate.finish(summary);
}
