//! Metric arithmetic, the self-checks of traced runs, and the output format.

use crate::runner::{Pass, Phase, WindowLayers};
use crate::schedule::Schedule;
use crate::trace::Layer;
use lofat::wire::code;
use std::time::Duration;

/// Sessions per p99 interval: enough to leave 10 samples beyond the p99.
pub const P99_INTERVAL: usize = 1000;

/// Largest share by which the layer table may miss the traced session time.
pub const LAYER_SUM_TOLERANCE: f64 = 0.10;

/// One metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether the metric goes into the JSON result line; the others are
    /// printed and gated only.
    pub listed: bool,
}

/// Metrics in print order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit, listed: true });
    }

    fn push_unlisted(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit, listed: false });
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `p` of the samples at or below it.  Returns the sample and how many
/// samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of `values` (upper median for an even count; 0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records the end-to-end metrics of `timed` and returns the checks it fails.
/// Host times are in reference time: each pass's by its own scale.
pub fn end_to_end(
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
    schedule: &Schedule,
    setup_times: &mut [f64],
    peak_rss_mb: f64,
    timed: &Phase,
    min_beyond_p99: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    let pass_len = schedule.entries.len() as u64;
    let rate = |p: &Pass, scale: f64| p.good as f64 / (p.time.as_secs_f64() * scale);
    let mut rates: Vec<f64> = timed.passes.iter().map(|p| rate(p, p.scale)).collect();
    let mut host_rates: Vec<f64> = timed.passes.iter().map(|p| rate(p, 1.0)).collect();
    let mut slowdowns: Vec<f64> = timed.passes.iter().map(|p| 1.0 / p.scale).collect();
    let mut latencies: Vec<f64> = timed
        .passes
        .iter()
        .flat_map(|p| p.latencies.iter().map(move |&l| f64::from(l) * p.scale))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let (p50, _) = percentile(&latencies, 0.50);
    // p99 per interval of consecutive passes, then their median: a burst of
    // host noise moves the p99 of the intervals it hits, not the run's.
    let mut interval_p99s = Vec::new();
    let mut beyond = usize::MAX;
    let mut interval: Vec<f64> = Vec::new();
    for p in &timed.passes {
        interval.extend(p.latencies.iter().map(|&l| f64::from(l) * p.scale));
        if interval.len() >= P99_INTERVAL {
            interval.sort_by(f64::total_cmp);
            let (p99, past) = percentile(&interval, 0.99);
            interval_p99s.push(p99);
            beyond = beyond.min(past);
            interval.clear();
        }
    }
    if interval_p99s.is_empty() {
        beyond = percentile(&latencies, 0.99).1;
        interval_p99s.push(percentile(&latencies, 0.99).0);
    }
    let intervals = interval_p99s.len();
    let p99 = median(&mut interval_p99s);
    if beyond < min_beyond_p99 {
        violations.push(format!(
            "only {beyond} latency samples beyond p99 ({} in all); at least {min_beyond_p99} needed",
            latencies.len()
        ));
    }
    let counts = timed.passes.first().map(|p| p.counts.clone()).unwrap_or_default();

    metrics.push("setup_s", median(setup_times), "s");
    metrics.push("sessions_per_s", median(&mut rates), "1/s");
    metrics.push("session_p50_us", p50, "us");
    metrics.push("session_p99_us", p99, "us");
    metrics.push_unlisted("failed_ratio", per(timed.failed as f64, timed.attempted), "ratio");
    metrics.push("peak_rss_mb", peak_rss_mb, "MiB");
    metrics.push("sim_cycles_per_session", per(counts.sim_cycles as f64, pass_len), "cycles");
    metrics.push_unlisted(
        "stall_cycles_per_session",
        per(counts.stall_cycles as f64, pass_len),
        "cycles",
    );

    notes.push(format!("setup_s: median of {} set-ups, in reference time", setup_times.len()));
    notes.push(format!(
        "sessions_per_s: median over {} passes of {pass_len} sessions, in reference time; \
         host time: median {:.1}/s; reference kernel ran {:.2}x its nominal time (median)",
        timed.passes.len(),
        median(&mut host_rates),
        median(&mut slowdowns),
    ));
    notes.push(format!(
        "session latency: {} samples; p99 is the median over {intervals} intervals of at least \
         {P99_INTERVAL} sessions, each with {beyond}+ samples beyond it; failed {} of {} attempted",
        latencies.len(),
        timed.failed,
        timed.attempted
    ));
    violations
}

/// Records the per-layer metrics of a traced run, and returns the self-checks
/// it fails: identical deterministic counts in the untraced and traced phases,
/// a layer table that adds up to the traced session time, and expected codes
/// in the recorded window.
pub fn per_layer(
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
    schedule: &Schedule,
    untraced: &Phase,
    traced: &Phase,
    window: &WindowLayers,
) -> Vec<String> {
    let mut violations = Vec::new();
    let pass_len = schedule.entries.len() as u64;
    let sessions = traced.pass_sessions(schedule.entries.len());
    let t = &traced.tracer;
    // One host -> reference factor for the whole traced phase.
    let factor = traced.reference_elapsed() / traced.elapsed().as_secs_f64();
    let layer = |l: Layer| per(us(t.total(l)) * factor, sessions);
    let windowed = |d: Duration| per(us(d) * factor, window.sessions);
    let networked = schedule.workload.networked();

    let rv32 = layer(Layer::Rv32Exec);
    let engine_self = layer(Layer::EngineAttested) - rv32;
    let finalize = layer(Layer::EngineFinalize);
    let sign = layer(Layer::CryptoSign);
    // The session's prover span minus its probed children is the prover's
    // own step loop and report assembly.
    let prover = layer(Layer::ProverRespond);
    let prover_self = prover - (rv32 + engine_self + finalize + sign);
    let (open, verify) = if networked {
        (windowed(window.open), windowed(window.verify))
    } else {
        (layer(Layer::ServiceOpen), layer(Layer::ServiceVerify))
    };
    let encode = layer(Layer::WireEncode);
    let decode = layer(Layer::WireDecode);
    let send = layer(Layer::NetSend);
    let wait = layer(Layer::NetRecv);
    let pool_wait = windowed(window.pool_wait);
    let net = &traced.net;
    let verdict_rtt = per(us(net.verdict_rtt) * factor, net.verdicts);

    let before = &traced.stats_before;
    let after = &traced.stats_after;
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let code_delta = |c: u16| {
        after.rejections_by_code.get(&c).copied().unwrap_or(0)
            - before.rejections_by_code.get(&c).copied().unwrap_or(0)
    };
    let rejected = (after.rejected + after.expired) - (before.rejected + before.expired);
    let bad_signature = code_delta(code::BAD_SIGNATURE);
    let replayed = code_delta(code::NONCE_REPLAYED);

    let counts = traced.passes.first().map(|p| p.counts.clone()).unwrap_or_default();
    let per_session = |v: u64| per(v as f64, pass_len);
    let hashed_or_compressed = counts.pairs_hashed + counts.pairs_compressed;

    let (session, layer_sum) = if networked {
        (per(traced.reference_elapsed() * 1e6, sessions), encode + decode + prover + send + wait)
    } else {
        (layer(Layer::Session), open + encode + decode + prover + verify)
    };
    let untraced_rate =
        untraced.pass_sessions(schedule.entries.len()) as f64 / untraced.reference_elapsed();
    let traced_rate = sessions as f64 / traced.reference_elapsed();

    metrics.push("rv32.exec_us", rv32, "us");
    metrics.push("engine.self_us", engine_self, "us");
    metrics.push("engine.finalize_us", finalize, "us");
    metrics.push("crypto.sign_us", sign, "us");
    metrics.push("prover.self_us", prover_self, "us");
    metrics.push("crypto.mac_verify_us", windowed(window.mac_verify), "us");
    metrics.push("measurement_db.check_us", windowed(window.db_check), "us");
    metrics.push("service.open_us", open, "us");
    metrics.push("service.verify_us", verify, "us");
    metrics.push("service.cache_hit_ratio", per(hits as f64, hits + misses), "ratio");
    metrics.push(
        "service.reject_ratio.bad_signature",
        per(bad_signature as f64, sessions),
        "ratio",
    );
    metrics.push("service.reject_ratio.nonce_replayed", per(replayed as f64, sessions), "ratio");
    metrics.push(
        "service.reject_ratio.other",
        per((rejected - bad_signature - replayed) as f64, sessions),
        "ratio",
    );
    metrics.push("wire.encode_us", encode, "us");
    metrics.push("wire.decode_us", decode, "us");
    metrics.push("pool.queue_wait_us", pool_wait, "us");
    metrics.push("net.challenge_rtt_us", per(us(net.challenge_rtt) * factor, net.challenges), "us");
    metrics.push("net.verdict_rtt_us", verdict_rtt, "us");
    metrics.push("net.transport_us", if networked { verdict_rtt - pool_wait } else { 0.0 }, "us");
    metrics.push("net.send_us", send, "us");
    metrics.push("net.wait_us", wait, "us");
    metrics.push("net.bytes_per_session", per(net.bytes as f64, sessions), "bytes");
    metrics.push("net.reconnects", net.reconnects as f64, "count");
    metrics.push("engine.branch_events", per_session(counts.branch_events), "count");
    metrics.push("engine.pairs_hashed", per_session(counts.pairs_hashed), "count");
    metrics.push("engine.pairs_compressed", per_session(counts.pairs_compressed), "count");
    metrics.push(
        "engine.compression_ratio",
        per(counts.pairs_compressed as f64, hashed_or_compressed),
        "ratio",
    );
    metrics.push("engine.loops_entered", per_session(counts.loops_entered), "count");
    metrics.push("engine.max_nesting", counts.max_nesting as f64, "count");
    metrics.push(
        "engine.internal_latency_cycles",
        per_session(counts.internal_latency_cycles),
        "cycles",
    );
    metrics.push("sim.instr_per_session", per_session(counts.instructions), "count");
    metrics.push("sim.cpi", per(counts.sim_cycles as f64, counts.instructions), "cycles");
    metrics.push("trace.session_us", session, "us");
    metrics.push("trace.layer_sum_us", layer_sum, "us");
    metrics.push("trace.layer_sum_ratio", layer_sum / session, "ratio");
    metrics.push("trace.untraced_sessions_per_s", untraced_rate, "1/s");
    metrics.push("trace.traced_sessions_per_s", traced_rate, "1/s");
    metrics.push("trace.overhead_ratio", untraced_rate / traced_rate, "ratio");
    metrics.push("trace.host_slowdown", 1.0 / factor, "ratio");

    notes.push(format!(
        "traced phase: {} passes of {pass_len} sessions; untraced phase: {} passes; \
         recorded window: {} sessions",
        traced.passes.len(),
        untraced.passes.len(),
        window.sessions
    ));
    notes.push(format!(
        "tracing overhead: untraced {untraced_rate:.1}/s vs traced {traced_rate:.1}/s"
    ));
    notes.push(format!(
        "layer sum {layer_sum:.2} us vs traced session {session:.2} us ({})",
        if networked {
            "client time per session, window drained each pass"
        } else {
            "mean latency"
        }
    ));

    match (untraced.passes.first(), traced.passes.first()) {
        (Some(u), Some(t)) if u.counts != t.counts => violations.push(format!(
            "deterministic counts differ between the untraced and traced phases: {:?} vs {:?}",
            u.counts, t.counts
        )),
        _ => {}
    }
    if !(session > 0.0 && (layer_sum / session - 1.0).abs() <= LAYER_SUM_TOLERANCE) {
        violations.push(format!(
            "layer table ({layer_sum:.2} us) misses the traced session time ({session:.2} us) \
             by more than {:.0}%",
            LAYER_SUM_TOLERANCE * 100.0
        ));
    }
    if window.wrong_codes > 0 {
        violations.push(format!(
            "{} recorded-window replies had unexpected outcomes",
            window.wrong_codes
        ));
    }
    violations
}

/// The host fingerprint printed with every result.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("cpu=\"{cpu}\" nproc={nproc} simd={}", lofat_simd::active_tier())
}

/// The result line: one JSON object with the listed metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .filter(|m| m.listed)
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
