//! Seeded whole-session benchmark of the LO-FAT reproduction.
//!
//! One run sets a workload up several times, warms it, and then drives
//! closed-loop attestation sessions for a fixed time, with the prover inside
//! the timed loop.  Untraced runs report the end-to-end metrics; traced runs
//! repeat the untraced phase, add a traced one and report the per-layer
//! metrics.  Every run checks every verdict, the service's conservation laws,
//! zero stall cycles and the determinism of the simulated counts, and fails
//! on any violation.  See `README.md` for the workloads and the layer map.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod reference;
pub mod runner;
pub mod schedule;
pub mod trace;

use metrics::Metrics;
use runner::{Phase, Runner, World};
use schedule::{Schedule, Workload};
use std::time::Instant;

/// How a run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Host seconds of closed-loop sessions (a traced run splits them between
    /// its untraced and traced phases).
    pub seconds: f64,
    /// Set-ups timed; `setup_s` is their median.
    pub setups: usize,
    /// Host seconds of untimed warm-up sessions.
    pub warmup_seconds: f64,
    /// Latency samples the run must leave beyond p99.
    pub min_beyond_p99: usize,
}

impl RunConfig {
    /// The shape of a measured run of `seconds`.
    pub fn measured(seconds: f64) -> Self {
        Self { seconds, setups: 11, warmup_seconds: 1.0, min_beyond_p99: 10 }
    }

    /// A run just long enough to exercise every path.
    pub fn smoke() -> Self {
        Self { seconds: 0.0, setups: 1, warmup_seconds: 0.0, min_beyond_p99: 0 }
    }
}

/// Everything a run measured, and every check it failed.
#[derive(Debug)]
pub struct Report {
    /// Every metric, in print order.
    pub metrics: Metrics,
    /// Sessions attempted in the measured phases.
    pub attempted: u64,
    /// Sessions that did not end with their expected verdict.
    pub failed: u64,
    /// Violated checks; empty when the run is correct.
    pub violations: Vec<String>,
    /// Lines describing the run's shape and sample counts.
    pub notes: Vec<String>,
}

/// Runs `workload` for `seed`: end-to-end metrics when `traced` is false,
/// per-layer metrics when it is true.
pub fn run(workload: Workload, seed: u64, config: RunConfig, traced: bool) -> Report {
    let schedule = Schedule::generate(workload, seed);
    let catalogue = lofat_workloads::catalog::by_name(workload.program_name())
        .expect("benchmark programs are in the catalogue");
    let expected: Vec<u32> =
        schedule.inputs.iter().map(|input| catalogue.expected_result(input)).collect();

    // Each set-up is scaled to reference time by the kernel timed around it.
    let mut setup_times = Vec::with_capacity(config.setups.max(1));
    let mut world: Option<World> = None;
    let mut before = reference::measure();
    for _ in 0..config.setups.max(1) {
        let start = Instant::now();
        let built = World::setup(&schedule);
        let host = start.elapsed();
        let after = reference::measure();
        setup_times.push(host.as_secs_f64() * reference::scale((before + after) / 2));
        before = after;
        match built {
            Ok(built) => {
                if let Some(old) = world.replace(built) {
                    old.shutdown();
                }
            }
            Err(e) => {
                return Report {
                    metrics: Metrics::default(),
                    attempted: 0,
                    failed: 0,
                    violations: vec![format!("set-up failed: {e}")],
                    notes: Vec::new(),
                };
            }
        }
    }
    let mut runner = Runner::new(&schedule, expected, world.expect("at least one set-up"));

    // Warm caches, the verdict cache and the replay ring; at least one pass.
    let warmup = runner.phase(config.warmup_seconds, false);
    let mut violations = phase_violations("warm-up", &warmup);

    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    let (attempted, failed);
    if traced {
        let untraced = runner.phase(config.seconds / 2.0, false);
        let traced_phase = runner.phase(config.seconds / 2.0, true);
        let window = runner.recorded_window();
        violations.extend(phase_violations("untraced", &untraced));
        violations.extend(phase_violations("traced", &traced_phase));
        violations.extend(metrics::per_layer(
            &mut metrics,
            &mut notes,
            &schedule,
            &untraced,
            &traced_phase,
            &window,
        ));
        attempted = untraced.attempted + traced_phase.attempted;
        failed = untraced.failed + traced_phase.failed;
    } else {
        let timed = runner.phase(config.seconds, false);
        // Read before the analysis below allocates.
        let peak_rss_mb = metrics::peak_rss_mb();
        violations.extend(phase_violations("timed", &timed));
        violations.extend(metrics::end_to_end(
            &mut metrics,
            &mut notes,
            &schedule,
            &mut setup_times,
            peak_rss_mb,
            &timed,
            config.min_beyond_p99,
        ));
        attempted = timed.attempted;
        failed = timed.failed;
    }

    let world = runner.into_world();
    let service = world.service();
    let stats = service.stats();
    if !stats.is_conserved(service.live_sessions()) {
        violations.push(format!(
            "service books do not balance: {stats:?} with {} live",
            service.live_sessions()
        ));
    }
    world.shutdown();
    Report { metrics, attempted, failed, violations, notes }
}

/// The checks every phase must pass.
fn phase_violations(name: &str, phase: &Phase) -> Vec<String> {
    let mut out = Vec::new();
    if phase.failed > 0 {
        out.push(format!(
            "{name} phase: {} of {} sessions failed, e.g. {}",
            phase.failed,
            phase.attempted,
            phase.errors.join("; ")
        ));
    }
    if phase.passes.is_empty() {
        out.push(format!("{name} phase completed no pass"));
    }
    if let Some(first) = phase.passes.first() {
        if phase.passes.iter().any(|pass| pass.counts != first.counts) {
            out.push(format!("{name} phase: simulated counts differ between passes"));
        }
        if first.counts.stall_cycles != 0 {
            out.push(format!(
                "{name} phase: {} processor stall cycles per pass, LO-FAT's claim is 0",
                first.counts.stall_cycles
            ));
        }
    }
    if phase.probe_cycle_mismatches > 0 {
        out.push(format!(
            "{name} phase: {} attested runs took other cycle counts than the plain run",
            phase.probe_cycle_mismatches
        ));
    }
    out
}
