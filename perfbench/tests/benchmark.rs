//! The benchmark's own guarantees: seeded inputs repeat exactly, exact
//! counts repeat exactly, the correctness check catches a wrong result,
//! and `BENCHMARK.json` names exactly the metrics the program prints.

use std::sync::Mutex;

use hfi_perfbench::drive::{self, Checker};
use hfi_perfbench::reference::{Reference, REFERENCE_JSON};
use hfi_perfbench::report::{per_layer, replay_span_ns, END_TO_END};
use hfi_perfbench::trace;
use hfi_perfbench::workload::{self, Traffic, Workload};
use hfi_serve::Outcome;
use hfi_sim::Stop;

/// Set-up clears the process-wide compile memo and proof cache, so the
/// tests that build pools take turns.
static POOLS: Mutex<()> = Mutex::new(());

fn arrivals(workload: Workload, seed: u64) -> Vec<(u64, usize)> {
    match workload.traffic() {
        Traffic::Open { rate_rps } => workload::arrivals(workload, rate_rps, seed, 2)
            .iter()
            .map(|a| (a.at_ns, a.tenant))
            .collect(),
        Traffic::Closed { .. } => workload::tenant_prefix(workload, seed, 2000)
            .into_iter()
            .map(|t| (0, t))
            .collect(),
    }
}

#[test]
fn a_seed_fixes_the_request_sequence() {
    for workload in Workload::ALL {
        let a = arrivals(workload, 7);
        assert!(!a.is_empty(), "{}", workload.name());
        assert_eq!(a, arrivals(workload, 7), "{}", workload.name());
        assert_ne!(a, arrivals(workload, 8), "{}", workload.name());
    }
}

#[test]
fn permuted_streams_serve_every_tenant_once_per_pass() {
    for workload in [Workload::FaasWarm, Workload::Fig3Cycle] {
        let tenants = workload.cells().len();
        let mut pass = workload::tenant_prefix(workload, 3, tenants);
        pass.sort_unstable();
        assert_eq!(
            pass,
            (0..tenants).collect::<Vec<_>>(),
            "{}",
            workload.name()
        );
    }
}

/// Replays the first `n` requests of `seed` on fresh pools; returns the
/// exact counts the benchmark reports.
fn exact_counts(workload: Workload, seed: u64, n: usize) -> (Vec<(usize, u64, u64)>, [u64; 4]) {
    let (pools, _) = workload::setup(workload).expect("set-up succeeds");
    let tenants = workload::tenant_prefix(workload, seed, n);
    let mut checker = Checker::new(workload, None, false);
    let replay = drive::replay(workload, &pools, &tenants, &mut checker);
    assert_eq!(checker.failed, 0, "{:?}", checker.failures);
    let records = replay
        .records
        .iter()
        .map(|(t, r)| (*t, r.committed, r.cycles as u64))
        .collect();
    let pool = replay.pool;
    (
        records,
        [
            pool.warm_hits,
            pool.cold_builds,
            pool.recycled,
            replay.peak_resident,
        ],
    )
}

#[test]
fn a_seed_fixes_the_exact_counts() {
    let _turn = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    for (workload, n) in [(Workload::FaasChurn, 3000), (Workload::FaasWarm, 300)] {
        let first = exact_counts(workload, 11, n);
        assert_eq!(first, exact_counts(workload, 11, n), "{}", workload.name());
        assert_eq!(first.0.len(), n, "every replayed request is correct");
    }
}

#[test]
fn the_pools_are_loaded_and_bypassed_as_designed() {
    let _turn = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    let (_, [warm, cold, recycled, peak]) = exact_counts(Workload::FaasWarm, 5, 200);
    assert_eq!((warm, cold, recycled, peak), (200, 0, 0, 1200));
    let (_, [warm, cold, recycled, peak]) = exact_counts(Workload::FaasChurn, 5, 3000);
    assert_eq!(peak, 511, "guard pages cap residency");
    assert!(
        warm < cold,
        "most churn checkouts are cold: {warm} warm, {cold} cold"
    );
    assert_eq!(recycled, cold, "every churn cold build recycles a slot");
}

#[test]
fn pool_layer_metrics_time_the_replay_alone() {
    let _turn = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    trace::enable();
    drop(trace::take());
    // Provisioning cold-builds and releases all 1,200 tenants; the
    // replay that follows checks out warm instances only.
    let pools = workload::provision(Workload::FaasWarm).expect("provisioning succeeds");
    let tenants = workload::tenant_prefix(Workload::FaasWarm, 5, 50);
    let mut checker = Checker::new(Workload::FaasWarm, None, false);
    drive::replay(Workload::FaasWarm, &pools, &tenants, &mut checker);
    let spans = trace::take();
    assert_eq!(checker.failed, 0, "{:?}", checker.failures);
    assert!(spans.iter().filter(|s| s.name == "checkout").count() > 1200);
    assert!(replay_span_ns(&spans, "checkout", Some("cold")).is_empty());
    assert_eq!(replay_span_ns(&spans, "checkout", Some("warm")).len(), 50);
    assert_eq!(replay_span_ns(&spans, "release", None).len(), 50);
}

#[test]
fn cheap_fig3_cells_match_the_reference() {
    let _turn = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    let reference = Reference::parse(REFERENCE_JSON).expect("reference parses");
    assert_eq!(reference.cells.len(), Workload::Fig3Cycle.cells().len());
    let cheap: Vec<usize> = Workload::Fig3Cycle
        .cells()
        .iter()
        .enumerate()
        .filter(|(_, (k, _))| k.name == "458.sjeng-like" || k.name == "445.gobmk-like")
        .map(|(i, _)| i)
        .collect();
    let (pools, _) = workload::setup(Workload::Fig3Cycle).expect("set-up succeeds");
    let mut checker = Checker::new(Workload::Fig3Cycle, Some(&reference), false);
    let replay = drive::replay(Workload::Fig3Cycle, &pools, &cheap, &mut checker);
    assert_eq!(checker.failed, 0, "{:?}", checker.failures);
    assert_eq!(replay.records.len(), 6);
}

#[test]
fn wrong_results_and_other_outcomes_fail_the_check() {
    let (kernel, opts) = &Workload::FaasChurn.cells()[0];
    let program = workload::compile_memo(kernel, opts).program;
    let record = hfi_sim::Executor::stats(&hfi_sim::Functional::new(program));
    let done = |r0| Outcome::Done {
        stop: Stop::Halted,
        record: Box::new(record),
        r0,
    };
    let mut checker = Checker::new(Workload::FaasChurn, None, false);
    assert!(checker.check(0, &done(kernel.expected)));
    assert!(!checker.check(0, &done(kernel.expected + 1)));
    assert!(!checker.check(0, &Outcome::Shed));
    checker.lost(3);
    assert_eq!((checker.checked, checker.failed), (6, 5));

    let mut injected = Checker::new(Workload::FaasChurn, None, true);
    assert!(
        !injected.check(0, &done(kernel.expected)),
        "injection corrupts"
    );
    assert!(
        injected.check(0, &done(kernel.expected)),
        "only the first result"
    );
}

#[test]
fn benchmark_json_names_every_printed_metric() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let entry = |name: &str, unit: &str, higher: bool| {
        let better = if higher { "higher" } else { "lower" };
        format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"")
    };
    for (name, unit, higher) in END_TO_END {
        assert!(text.contains(&entry(name, unit, higher)), "{name}");
    }
    let layers = per_layer();
    for (name, unit, higher) in &layers {
        assert!(text.contains(&entry(name, unit, *higher)), "{name}");
    }
    assert_eq!(
        text.matches("\"better\"").count(),
        END_TO_END.len() + layers.len(),
        "BENCHMARK.json lists a metric the program does not print"
    );
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
