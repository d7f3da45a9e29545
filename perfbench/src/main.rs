//! Runs one workload of the repository benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload faas-warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any incorrect
//! result exits 1; a usage error exits 2 without a result.
//! `--record` measures the reference (`reference.json`) instead.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfi_perfbench::drive::{self, Checker, Pass};
use hfi_perfbench::reference::{Cell, Reference, REFERENCE_JSON};
use hfi_perfbench::report::{self, EndToEnd, Traced, END_TO_END};
use hfi_perfbench::stats::{percentile, sorted};
use hfi_perfbench::trace;
use hfi_perfbench::workload::{self, TenantStream, Traffic, Workload, WARM_RATE_RPS};
use hfi_serve::WarmPools;

/// Set-ups are repeated for this long before the pass and again after
/// it. `setup_s` is the [`SETUP_QUANTILE`] of all of them, so like the
/// pass it samples the host over the whole run.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Fewest set-ups in each of the two phases.
const MIN_SETUPS: usize = 5;
/// Quantile of the set-up times reported as `setup_s`. The host runs at
/// a fast or a slow speed for seconds at a time, often for a whole
/// one-second phase, so a median of set-ups taken in two phases jumps
/// between the two speeds from run to run; the tenth percentile follows
/// the fast speed unless nine tenths of the set-ups ran slow.
const SETUP_QUANTILE: f64 = 0.1;
/// Replayed requests on workloads whose sequence has no pass structure.
const REPLAY_REQUESTS: usize = 5000;
/// Completions of the traced pass kept as request spans.
const PASS_SPANS: usize = 5000;

const USAGE: &str = "usage: hfi-perfbench --workload <faas-warm|faas-churn|fig3-cycle> \
                     [--seed N] [--seconds S] [--trace 0|1] [--inject-wrong-result]\n       \
                     hfi-perfbench --record [--seconds S]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject: bool,
    record: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        inject: false,
        record: false,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--inject-wrong-result" => parsed.inject = true,
            "--record" => parsed.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload.is_none() && !parsed.record {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("hfi-perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let reference = Reference::parse(REFERENCE_JSON).unwrap_or_else(|e| {
        eprintln!("hfi-perfbench: reference.json: {e}");
        std::process::exit(2);
    });
    let code = match (args.record, args.workload) {
        (true, _) => record(args.seconds),
        (false, Some(workload)) => run(workload, &args, &reference),
        (false, None) => unreachable!("parse_args requires a workload"),
    };
    std::process::exit(code);
}

/// Builds `workload` again and again for `SETUP_BUDGET` (at least
/// `MIN_SETUPS` times), pushing each set-up's time; returns the last
/// pools.
fn timed_setups(workload: Workload, times: &mut Vec<f64>) -> Arc<WarmPools> {
    let started = Instant::now();
    let mut pools = None;
    for rep in 0.. {
        if rep >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET {
            break;
        }
        drop(pools.take());
        let (fresh, report) = setup_or_exit(workload);
        times.push(report.total_s);
        pools = Some(fresh);
    }
    pools.expect("at least one set-up")
}

fn setup_or_exit(workload: Workload) -> (Arc<WarmPools>, workload::SetupReport) {
    workload::setup(workload).unwrap_or_else(|e| {
        eprintln!("hfi-perfbench: {} set-up failed: {e}", workload.name());
        std::process::exit(1);
    })
}

/// One pass of `workload`'s seeded requests; lost requests count as
/// failures.
fn pass(workload: Workload, pools: &Arc<WarmPools>, args: &Args, checker: &mut Checker) -> Pass {
    let pass = drive::run_pass(workload, pools, args.seed, args.seconds, checker);
    checker.lost(pass.offered - pass.samples.len() as u64);
    pass
}

fn print_loadgen(label: &str, pass: &Pass) {
    let late: Vec<f64> = pass.lateness_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let late = sorted(&late);
    let at = |q| percentile(&late, q).unwrap_or(0.0);
    println!(
        "[{label}] offered={} completed={} gen_late_p50_us={:.2} gen_late_p99_us={:.2} n={}",
        pass.offered,
        pass.samples.len(),
        at(0.5),
        at(0.99),
        late.len()
    );
}

/// Prints the spread of the set-up times: `times[..before]` were taken
/// before the pass, the rest after it.
fn print_setups(label: &str, times: &[f64], before: usize) {
    let quantiles = |times: &[f64]| {
        let sorted = sorted(times);
        let at = |q| percentile(&sorted, q).unwrap_or(0.0);
        format!(
            "n={} p10={:.5} p25={:.5} p50={:.5} s",
            times.len(),
            at(0.1),
            at(0.25),
            at(0.5)
        )
    };
    println!(
        "[{label}] set-ups before the pass {}; after it {}",
        quantiles(&times[..before]),
        quantiles(&times[before..])
    );
}

fn run(workload: Workload, args: &Args, reference: &Reference) -> i32 {
    let name = workload.name();
    let cells = (workload == Workload::Fig3Cycle).then_some(reference);
    let mut checker = Checker::new(workload, cells, args.inject);

    let mut setup_times = Vec::new();
    let pools = timed_setups(workload, &mut setup_times);
    let untraced_pass = pass(workload, &pools, args, &mut checker);
    drop(pools);
    let before = setup_times.len();
    drop(timed_setups(workload, &mut setup_times));
    let setup_s = percentile(&sorted(&setup_times), SETUP_QUANTILE).expect("at least one set-up");
    let untraced = EndToEnd::measure(&untraced_pass, setup_s);
    let label = format!("{name} seed={} untraced", args.seed);
    untraced.print(&label, setup_times.len());
    print_setups(&label, &setup_times, before);
    print_loadgen(&label, &untraced_pass);
    if workload == Workload::FaasWarm && reference.warm_capacity_rps > 0.0 {
        println!(
            "[{label}] offered {WARM_RATE_RPS} req/s = {:.3} of the recorded closed-loop capacity {:.1} req/s",
            WARM_RATE_RPS / reference.warm_capacity_rps,
            reference.warm_capacity_rps
        );
    }
    drop(untraced_pass);

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        traced_metrics(workload, args, &mut checker, &untraced)
    } else {
        END_TO_END
            .iter()
            .zip(untraced.values())
            .map(|(&(name, unit, _), value)| (name.to_string(), value, unit))
            .collect()
    };

    let correct = checker.failed == 0;
    for failure in &checker.failures {
        eprintln!("hfi-perfbench: FAIL {failure}");
    }
    println!(
        "[{name}] fail_frac={} ({} failed of {} attempted)",
        checker.failed as f64 / checker.checked.max(1) as f64,
        checker.failed,
        checker.checked
    );
    println!(
        "{}",
        report::result_json(correct, checker.checked.max(1), checker.failed, &metrics)
    );
    i32::from(!correct)
}

/// The traced run: a traced set-up and pass, the layer probe, then a
/// replay on fresh pools; writes the spans and returns the per-layer
/// metrics.
fn traced_metrics(
    workload: Workload,
    args: &Args,
    checker: &mut Checker,
    untraced: &EndToEnd,
) -> Vec<(String, f64, &'static str)> {
    let name = workload.name();
    trace::enable();
    let (pools, setup) = setup_or_exit(workload);
    let traced_pass = pass(workload, &pools, args, checker);
    drop(pools);
    let probe = workload::probe_layers(workload);
    drive::record_pass_spans(&traced_pass, PASS_SPANS);
    let traced = EndToEnd::measure(&traced_pass, setup.total_s);
    let label = format!("{name} seed={} traced", args.seed);
    traced.print(&label, 1);
    print_loadgen(&label, &traced_pass);

    let replay_len = match workload.traffic() {
        Traffic::Closed { pass, .. } if pass > 1 => pass,
        _ => REPLAY_REQUESTS,
    };
    let tenants = workload::tenant_prefix(workload, args.seed, replay_len);
    let fresh = workload::provision(workload).unwrap_or_else(|e| {
        eprintln!("hfi-perfbench: {name} provisioning failed: {e}");
        std::process::exit(1);
    });
    let replay = drive::replay(workload, &fresh, &tenants, checker);
    drop(fresh);
    if workload == Workload::Fig3Cycle {
        for line in cell_lines(&replay) {
            println!("[{name}] cell {line}");
        }
    }

    let spans = trace::take();
    let metrics = Traced {
        untraced,
        traced: &traced,
        pass: &traced_pass,
        setup: &setup,
        probe: &probe,
        replay: &replay,
        spans: &spans,
    }
    .metrics();
    write_spans(name, args.seed, &spans);
    for (layer, ns) in trace::self_time_ns(&spans) {
        println!("[{label}] self time {layer}: {:.3} ms", ns as f64 / 1e6);
    }
    report::per_layer()
        .into_iter()
        .map(|(metric, unit, _)| {
            let value = *metrics
                .get(&metric)
                .unwrap_or_else(|| panic!("per-layer metric {metric} was not measured"));
            (metric, value, unit)
        })
        .collect()
}

/// Writes `spans` as JSON lines under `out/` in the benchmark directory.
fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for span in spans {
            writeln!(out, "{}", trace::to_json(span))?;
        }
        out.flush()
    });
    match written {
        Ok(()) => println!("[{workload}] {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("hfi-perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Each replayed `fig3-cycle` cell's exact counters as a reference line.
fn cell_lines(replay: &drive::Replay) -> Vec<String> {
    let cells = Workload::Fig3Cycle.cells();
    replay
        .records
        .iter()
        .map(|(tenant, r)| {
            let (kernel, opts) = &cells[*tenant];
            Cell {
                kernel: kernel.name.clone(),
                scheme: format!("{:?}", opts.isolation),
                sim_cycles: r.cycles as u64,
                committed: r.committed,
                l1d_misses: r.l1d_misses,
                mispredicts: r.mispredicts,
            }
            .to_json()
        })
        .collect()
}

/// Measures the reference: every `fig3-cycle` cell's exact counters,
/// and the closed-loop capacity of the `faas-warm` tenant mix driven by
/// the `faas-churn` closed loop for `seconds`. Prints `reference.json`.
fn record(seconds: u64) -> i32 {
    let mut checker = Checker::new(Workload::Fig3Cycle, None, false);
    let (pools, _) = setup_or_exit(Workload::Fig3Cycle);
    let pass = Workload::Fig3Cycle.cells().len();
    let tenants = workload::tenant_prefix(Workload::Fig3Cycle, 1, pass);
    let replay = drive::replay(Workload::Fig3Cycle, &pools, &tenants, &mut checker);
    drop(pools);
    let mut lines = cell_lines(&replay);
    lines.sort();

    let (pools, _) = setup_or_exit(Workload::FaasWarm);
    let mut warm_checker = Checker::new(Workload::FaasWarm, None, false);
    let closed = drive::run_closed(
        Workload::FaasWarm,
        &pools,
        TenantStream::new(Workload::FaasWarm, 1),
        workload::CHURN_OUTSTANDING,
        1,
        seconds,
        &mut warm_checker,
    );
    let capacity = EndToEnd::measure(&closed, 0.0).throughput_rps;
    let ok = checker.failed == 0 && warm_checker.failed == 0;
    println!("{{");
    println!(
        "  \"faas_warm_capacity\": {{\"method\": \"faas-churn closed loop\", \"outstanding\": {}, \"workers\": {}, \"seconds\": {seconds}, \"closed_loop_rps\": {capacity:.1}, \"offered_rps\": {WARM_RATE_RPS}, \"utilisation\": {:.3}}},",
        workload::CHURN_OUTSTANDING,
        drive::WORKERS,
        WARM_RATE_RPS / capacity
    );
    println!("  \"fig3_cells\": [");
    for (i, line) in lines.iter().enumerate() {
        let comma = if i + 1 < lines.len() { "," } else { "" };
        println!("    {line}{comma}");
    }
    println!("  ]");
    println!("}}");
    i32::from(!ok)
}
