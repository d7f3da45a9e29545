//! Turns passes, replays and set-up reports into the named metrics of
//! `BENCHMARK.json`, and prints them.

use std::collections::BTreeMap;

use crate::drive::{OutcomeClass, Pass, Replay, Sample, PASS_DETAIL};
use crate::stats::{percentile, relative_iqr, sorted};
use crate::trace::{self, Span};
use crate::workload::{LayerProbe, SetupReport};

/// End-to-end metrics: name, unit, true when higher is better.
pub const END_TO_END: [(&str, &str, bool); 5] = [
    ("setup_s", "s", false),
    ("p50_ms", "ms", false),
    ("p90_ms", "ms", false),
    ("throughput_rps", "req/s", true),
    ("sim_mips", "Minstr/s", true),
];

/// Span names whose self time is reported.
pub const SELF_TIMED: [&str; 11] = [
    "setup",
    "schedule",
    "request",
    "queue",
    "checkout",
    "run",
    "release",
    "compile",
    "verify",
    "engine_new",
    "provision",
];

/// Per-layer metrics other than self times and tracing overheads.
pub const LAYERS: [(&str, &str, bool); 36] = [
    ("gen_late_p50_us", "us", false),
    ("gen_late_p99_us", "us", false),
    ("queue_wait_p50_us", "us", false),
    ("queue_wait_p90_us", "us", false),
    ("untimed_us_per_req", "us", false),
    ("stolen", "count", false),
    ("checkout_warm_p50_us", "us", false),
    ("checkout_cold_p50_us", "us", false),
    ("checkout_cold_p90_us", "us", false),
    ("warm_hit_ratio", "ratio", true),
    ("warm_hits", "count", true),
    ("cold_builds", "count", false),
    ("recycled", "count", false),
    ("peak_resident", "count", true),
    ("release_p50_us", "us", false),
    ("release_p90_us", "us", false),
    ("provision_ms", "ms", false),
    ("circuit_open", "count", false),
    ("deadline_exceeded", "count", false),
    ("panicked", "count", false),
    ("shed", "count", false),
    ("service_p50_us", "us", false),
    ("service_mean_us", "us", false),
    ("interp_mops", "Mop/s", true),
    ("ops_per_req", "count", false),
    ("sim_cycles_per_req", "count", false),
    ("hfi_checks_per_req", "count", false),
    ("serializations_per_req", "count", false),
    ("l1d_misses_per_req", "count", false),
    ("mispredicts_per_req", "count", false),
    ("compile_ms", "ms", false),
    ("verify_cold_ms", "ms", false),
    ("proof_cache_hits", "count", true),
    ("proof_cache_misses", "count", false),
    ("engine_new_ms", "ms", false),
    ("host_ns_per_sim_cycle", "ns", false),
];

/// Every per-layer metric in output order: name, unit, higher-is-better.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut all: Vec<(String, &'static str, bool)> = LAYERS
        .iter()
        .map(|&(name, unit, higher)| (name.to_string(), unit, higher))
        .collect();
    all.extend(
        SELF_TIMED
            .iter()
            .map(|name| (format!("self_ms.{name}"), "ms", false)),
    );
    all.extend(
        END_TO_END
            .iter()
            .map(|&(name, unit, higher)| (format!("traced_minus_untraced.{name}"), unit, higher)),
    );
    all
}

/// Length of one measurement window of a serving pass.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// The end-to-end result of one pass. Rates are totals over the pass.
/// Latency percentiles are means over the pass's windows — one-second
/// slices of the schedule (open loop) or of the offering phase (closed
/// loop), or whole passes over the sequence (`fig3-cycle`). A shared
/// host switches between a fast and a slow speed for seconds at a time:
/// a median over windows jumps to whichever speed held more than half of
/// them, while the mean moves with the share of each, and a stall that
/// spoils one window moves it by that window's share only.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Mean over windows of the windows' median latency, ms.
    pub p50_ms: f64,
    /// Mean over windows of the windows' 90th percentile latency, ms.
    pub p90_ms: f64,
    /// Median latency over the whole pass, ms: a diagnostic.
    pub pass_p50_ms: f64,
    /// 90th percentile latency over the whole pass, ms: a diagnostic.
    pub pass_p90_ms: f64,
    /// 99th percentile latency over the whole pass, ms: a diagnostic,
    /// too noisy on a shared host to bound.
    pub p99_ms: f64,
    /// Correct completions behind the latency percentiles.
    pub latency_n: usize,
    /// Correct completions per second of the pass's wall time.
    pub throughput_rps: f64,
    /// Committed instructions per microsecond of run time, over the
    /// whole pass.
    pub sim_mips: f64,
    /// Windows the latency means were taken over.
    pub windows: usize,
    /// Per window, in order: p50_ms, p90_ms and sim_mips (the last shows
    /// how much the host's speed moved during the pass).
    pub by_window: [Vec<f64>; 3],
}

fn mips<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> f64 {
    let (committed, ns) = samples.into_iter().fold((0u64, 0u64), |(c, ns), s| {
        (c + s.committed, ns + s.service_ns)
    });
    committed as f64 * 1e3 / ns.max(1) as f64
}

/// The pass's measurement windows: one-second slices by due time (open
/// loop) or completion time (closed loop), or whole passes.
fn windows(pass: &Pass) -> Vec<Vec<&Sample>> {
    if pass.pass > 1 {
        return pass
            .samples
            .chunks_exact(pass.pass)
            .map(|chunk| chunk.iter().collect())
            .collect();
    }
    let count = (pass.measured_ns / WINDOW_NS).max(1) as usize;
    let mut windows = vec![Vec::new(); count];
    for s in &pass.samples {
        let at = if pass.open { s.arrival_ns } else { s.finish_ns };
        let index = (at.saturating_sub(pass.epoch_ns) / WINDOW_NS) as usize;
        if let Some(window) = windows.get_mut(index) {
            window.push(s);
        }
    }
    windows
}

fn latencies_ms<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    sorted(
        &samples
            .into_iter()
            .filter(|s| s.outcome == OutcomeClass::Correct)
            .map(|s| (s.finish_ns - s.arrival_ns) as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

impl EndToEnd {
    /// Metrics of `pass` after a set-up of `setup_s` seconds.
    pub fn measure(pass: &Pass, setup_s: f64) -> EndToEnd {
        let windows = windows(pass);
        let mut p50 = Vec::new();
        let mut p90 = Vec::new();
        let mut mips_w = Vec::new();
        for samples in &windows {
            let latencies = latencies_ms(samples.iter().copied());
            p50.extend(percentile(&latencies, 0.5));
            p90.extend(percentile(&latencies, 0.9));
            mips_w.push(mips(samples.iter().copied()));
        }
        let all = latencies_ms(&pass.samples);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let at = |q| percentile(&all, q).unwrap_or(0.0);
        EndToEnd {
            setup_s,
            p50_ms: mean(&p50),
            p90_ms: mean(&p90),
            pass_p50_ms: at(0.5),
            pass_p90_ms: at(0.9),
            p99_ms: at(0.99),
            latency_n: all.len(),
            throughput_rps: all.len() as f64 * 1e9 / pass.wall_ns as f64,
            sim_mips: mips(&pass.samples),
            windows: windows.len(),
            by_window: [p50, p90, mips_w],
        }
    }

    /// The metrics by name, in `END_TO_END` order.
    pub fn values(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.p50_ms,
            self.p90_ms,
            self.throughput_rps,
            self.sim_mips,
        ]
    }

    /// Prints every metric with its unit and sample count.
    pub fn print(&self, label: &str, setups: usize) {
        println!(
            "[{label}] setup_s={:.4} s (from {setups} set-ups)",
            self.setup_s
        );
        println!(
            "[{label}] p50_ms={:.4} ms  p90_ms={:.4} ms (means over {} windows; {} latencies)",
            self.p50_ms, self.p90_ms, self.windows, self.latency_n
        );
        println!(
            "[{label}] whole pass: p50_ms={:.4} ms  p90_ms={:.4} ms  p99_ms={:.4} ms (diagnostic, n={})",
            self.pass_p50_ms, self.pass_p90_ms, self.p99_ms, self.latency_n
        );
        println!(
            "[{label}] throughput_rps={:.1} req/s  sim_mips={:.3} Minstr/s (whole pass)",
            self.throughput_rps, self.sim_mips
        );
        for (name, values) in ["p50_ms", "p90_ms", "sim_mips"].iter().zip(&self.by_window) {
            let each: Vec<String> = values.iter().map(|v| format!("{v:.5}")).collect();
            println!(
                "[{label}] {name} by window (relative IQR {:.3}): {}",
                relative_iqr(values).unwrap_or(0.0),
                each.join(" ")
            );
        }
    }
}

/// Nearest-rank percentile of `values` in microseconds (0 for none).
fn pct_us(values: &[u64], q: f64) -> f64 {
    let us: Vec<f64> = values.iter().map(|&ns| ns as f64 / 1e3).collect();
    percentile(&sorted(&us), q).unwrap_or(0.0)
}

/// Durations of the replay's `name` spans (with `detail`, when given).
/// Provisioning spans carry no request id, so they are left out; the
/// traced pass's request children are left out by their detail,
/// `served`, which no replay span has.
pub fn replay_span_ns(spans: &[Span], name: &str, detail: Option<&str>) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| {
            s.name == name
                && s.request.is_some()
                && s.detail != PASS_DETAIL
                && detail.is_none_or(|d| s.detail == d)
        })
        .map(Span::ns)
        .collect()
}

/// Everything the traced run measured.
pub struct Traced<'a> {
    /// The untraced pass's end-to-end result.
    pub untraced: &'a EndToEnd,
    /// The traced pass's end-to-end result.
    pub traced: &'a EndToEnd,
    /// The traced pass.
    pub pass: &'a Pass,
    /// The traced set-up.
    pub setup: &'a SetupReport,
    /// Cold verification and executor builds, timed apart from it.
    pub probe: &'a LayerProbe,
    /// The replay on fresh pools.
    pub replay: &'a Replay,
    /// Every span of the traced run.
    pub spans: &'a [Span],
}

impl Traced<'_> {
    /// Every per-layer metric by name.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let pass = self.pass;
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        let mut put = |name: &str, value: f64| {
            m.insert(name.to_string(), value);
        };
        put("gen_late_p50_us", pct_us(&pass.lateness_ns, 0.5));
        put("gen_late_p99_us", pct_us(&pass.lateness_ns, 0.99));
        let waits: Vec<u64> = pass
            .samples
            .iter()
            .map(|s| s.start_ns.saturating_sub(s.arrival_ns))
            .collect();
        put("queue_wait_p50_us", pct_us(&waits, 0.5));
        put("queue_wait_p90_us", pct_us(&waits, 0.9));
        let busy: u64 = pass.samples.iter().map(|s| s.setup_ns + s.service_ns).sum();
        let workers = crate::drive::WORKERS as u64;
        let done = pass.samples.len().max(1) as f64;
        put(
            "untimed_us_per_req",
            (pass.wall_ns * workers).saturating_sub(busy) as f64 / 1e3 / done,
        );
        put(
            "stolen",
            pass.samples.iter().filter(|s| s.stolen).count() as f64,
        );

        let spans = self.spans;
        put(
            "checkout_warm_p50_us",
            pct_us(&replay_span_ns(spans, "checkout", Some("warm")), 0.5),
        );
        let cold = replay_span_ns(spans, "checkout", Some("cold"));
        put("checkout_cold_p50_us", pct_us(&cold, 0.5));
        put("checkout_cold_p90_us", pct_us(&cold, 0.9));
        let pool = &self.replay.pool;
        let checkouts = (pool.warm_hits + pool.cold_builds).max(1) as f64;
        put("warm_hit_ratio", pool.warm_hits as f64 / checkouts);
        put("warm_hits", pool.warm_hits as f64);
        put("cold_builds", pool.cold_builds as f64);
        put("recycled", pool.recycled as f64);
        put("peak_resident", self.replay.peak_resident as f64);
        let release = replay_span_ns(spans, "release", None);
        put("release_p50_us", pct_us(&release, 0.5));
        put("release_p90_us", pct_us(&release, 0.9));
        put("provision_ms", self.setup.provision_ns as f64 / 1e6);

        for (name, class) in [
            ("circuit_open", OutcomeClass::CircuitOpen),
            ("deadline_exceeded", OutcomeClass::DeadlineExceeded),
            ("panicked", OutcomeClass::Panicked),
            ("shed", OutcomeClass::Shed),
        ] {
            put(name, pass.count(class) as f64);
        }

        let service: Vec<u64> = pass.correct().map(|s| s.service_ns).collect();
        put("service_p50_us", pct_us(&service, 0.5));
        put(
            "service_mean_us",
            service.iter().sum::<u64>() as f64 / 1e3 / service.len().max(1) as f64,
        );
        put("interp_mops", mips(pass.correct()));
        let cycles: f64 = pass.correct().map(|s| s.cycles).sum();
        put(
            "host_ns_per_sim_cycle",
            service.iter().sum::<u64>() as f64 / cycles.max(1.0),
        );

        let records = &self.replay.records;
        let per_req = |f: &dyn Fn(&hfi_sim::RunRecord) -> f64| {
            records.iter().map(|(_, r)| f(r)).sum::<f64>() / records.len().max(1) as f64
        };
        put("ops_per_req", per_req(&|r| r.committed as f64));
        put("sim_cycles_per_req", per_req(&|r| r.cycles));
        put("hfi_checks_per_req", per_req(&|r| r.hfi_checks as f64));
        put(
            "serializations_per_req",
            per_req(&|r| r.serializations as f64),
        );
        put("l1d_misses_per_req", per_req(&|r| r.l1d_misses as f64));
        put("mispredicts_per_req", per_req(&|r| r.mispredicts as f64));

        let setup = self.setup;
        put("compile_ms", setup.compile_ns as f64 / 1e6);
        put("verify_cold_ms", self.probe.verify_cold_ns as f64 / 1e6);
        put("proof_cache_hits", setup.proof_hits as f64);
        put("proof_cache_misses", setup.proof_misses as f64);
        put("engine_new_ms", self.probe.engine_new_ns as f64 / 1e6);

        let self_ns = trace::self_time_ns(spans);
        for name in SELF_TIMED {
            put(
                &format!("self_ms.{name}"),
                self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6,
            );
        }
        for (i, (name, _, _)) in END_TO_END.iter().enumerate() {
            put(
                &format!("traced_minus_untraced.{name}"),
                self.traced.values()[i] - self.untraced.values()[i],
            );
        }
        m
    }
}

/// The result line: `metrics` are (name, value, unit) in output order.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, detail: &str, ns: u64, request: Option<u64>) -> Span {
        Span {
            id: 0,
            name,
            detail: detail.to_string(),
            start_ns: 0,
            end_ns: ns,
            parent: None,
            request,
        }
    }

    #[test]
    fn layer_metrics_count_only_replay_spans() {
        let spans = vec![
            // Provisioning: no request id.
            span("checkout", "cold", 1, None),
            span("release", "", 2, None),
            // The traced pass's children of a request.
            span("checkout", PASS_DETAIL, 3, Some(0)),
            // The replay.
            span("checkout", "warm", 4, Some(0)),
            span("release", "", 5, Some(0)),
            span("checkout", "cold", 6, Some(1)),
            span("release", "", 7, Some(1)),
        ];
        assert_eq!(replay_span_ns(&spans, "checkout", Some("cold")), [6]);
        assert_eq!(replay_span_ns(&spans, "checkout", Some("warm")), [4]);
        assert_eq!(replay_span_ns(&spans, "checkout", None), [4, 6]);
        assert_eq!(replay_span_ns(&spans, "release", None), [5, 7]);
    }
}
