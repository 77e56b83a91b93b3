//! Shared helpers for the LO-FAT benchmark harness.
//!
//! Each bench target under `benches/` regenerates one experiment of the paper's
//! evaluation (see `DESIGN.md` §4 and `EXPERIMENTS.md`): it first prints the table
//! or series the experiment reports, then uses Criterion to time the relevant
//! operation.  The helpers here mirror the workload conventions used by the
//! integration tests.

use lofat::{EngineConfig, LofatEngine, Measurement};
use lofat_rv32::{Cpu, ExitInfo, Program};
use lofat_workloads::Workload;

pub mod json;
pub mod service_bench;

/// Cycle budget for benchmark runs.
pub const MAX_CYCLES: u64 = 50_000_000;

/// Loads `input` into a fresh CPU for `program` (workload convention: `input` buffer
/// plus optional `input_len`).
pub fn cpu_with_input(program: &Program, input: &[u32]) -> Cpu {
    let mut cpu = Cpu::new(program).expect("load program");
    if !input.is_empty() {
        let addr = program.symbol("input").expect("workload defines `input`");
        let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
        cpu.poke_bytes(addr, &bytes).expect("poke input");
        if let Some(len) = program.symbol("input_len") {
            cpu.poke_bytes(len, &(input.len() as u32).to_le_bytes()).expect("poke input_len");
        }
    }
    cpu
}

/// Runs `program` on `input` without attestation.
pub fn run_plain(program: &Program, input: &[u32]) -> ExitInfo {
    let mut cpu = cpu_with_input(program, input);
    cpu.run(MAX_CYCLES).expect("plain run")
}

/// Runs `program` on `input` with a LO-FAT engine attached.
pub fn run_attested(
    program: &Program,
    input: &[u32],
    config: EngineConfig,
) -> (Measurement, ExitInfo) {
    let mut engine = LofatEngine::for_program(program, config).expect("engine");
    let mut cpu = cpu_with_input(program, input);
    let exit = cpu.run_traced(MAX_CYCLES, &mut engine).expect("attested run");
    (engine.finalize().expect("finalize"), exit)
}

/// Convenience: attest a catalogue workload with the default configuration.
pub fn attest_workload(workload: &Workload, input: &[u32]) -> (Measurement, ExitInfo) {
    let program = workload.program().expect("assemble workload");
    run_attested(&program, input, EngineConfig::default())
}

pub mod throughput {
    //! E10 — hot-path throughput measurements and the `BENCH_e10.json` format.
    //!
    //! Three numbers summarise the simulator's hot paths: attested instructions
    //! per second on the syringe-pump workload (CPU + trace port + engine),
    //! hashed bytes per second of the software SHA-3-512 (sponge absorb path)
    //! and nanoseconds per Keccak-f\[1600\] permutation.  [`measure`] samples
    //! them with a best-of-N wall-clock harness (this machine's clock is noisy;
    //! the *best* window is the least-perturbed one), and [`to_json`] renders
    //! the baseline/current pair that `lofat bench-json` writes to
    //! `BENCH_e10.json`.

    use super::{run_attested, run_plain};
    use lofat::EngineConfig;
    use lofat_crypto::keccak::KeccakState;
    use lofat_crypto::Sha3_512;
    use lofat_workloads::catalog;
    use std::time::Instant;

    /// Syringe-pump units used by the throughput workload (≈ 62k instructions
    /// per run, enough for the steady-state loop path to dominate setup).
    pub const SYRINGE_UNITS: u32 = 2000;

    /// One set of hot-path throughput numbers.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ThroughputSample {
        /// Attested instructions per second (syringe-pump, [`SYRINGE_UNITS`]).
        pub attested_instructions_per_sec: f64,
        /// Un-attested instructions per second on the same workload.
        pub plain_instructions_per_sec: f64,
        /// Software SHA-3-512 bytes per second over a 1 MiB buffer.
        pub hashed_bytes_per_sec: f64,
        /// Bytes per second hashing four independent 1 MiB buffers through the
        /// 4-way packed permutation (`Sha3_512::digest_many`).
        pub hashed_bytes_per_sec_x4: f64,
        /// Nanoseconds per Keccak-f\[1600\] permutation.
        pub ns_per_permutation: f64,
    }

    /// Pre-PR baseline, measured on the development machine at commit
    /// `ae46754` (decode-on-fetch CPU, per-step `MonitorOutput` allocation,
    /// byte-wise sponge absorb, offer/pump-per-word hash controller) with the
    /// same best-of-N harness as [`measure`], interleaved with the current
    /// build to equalise machine noise.
    pub const BASELINE: ThroughputSample = ThroughputSample {
        attested_instructions_per_sec: 17_490_491.0,
        plain_instructions_per_sec: 52_985_835.0,
        hashed_bytes_per_sec: 132_518_219.0,
        // The baseline build predates the batch API: four independent digests
        // ran sequentially through the scalar sponge, so its batched rate is
        // its scalar rate.
        hashed_bytes_per_sec_x4: 132_518_219.0,
        ns_per_permutation: 403.8,
    };

    /// Runs `f` repeatedly for `window_secs` and returns the achieved rate in
    /// `units_per_call / elapsed` terms, taking the best of `reps` windows.
    fn best_rate(window_secs: f64, reps: u32, units_per_call: f64, mut f: impl FnMut()) -> f64 {
        let mut best = 0.0f64;
        for _ in 0..reps.max(1) {
            let mut calls = 0u64;
            let start = Instant::now();
            loop {
                f();
                calls += 1;
                if start.elapsed().as_secs_f64() >= window_secs {
                    break;
                }
            }
            let rate = calls as f64 * units_per_call / start.elapsed().as_secs_f64();
            best = best.max(rate);
        }
        best
    }

    /// Measures the three hot paths with `reps` windows of `window_secs` each
    /// (best window wins).  Smoke mode (CI) uses short windows; the recorded
    /// trajectory numbers come from full windows.
    pub fn measure(window_secs: f64, reps: u32) -> ThroughputSample {
        let workload = catalog::by_name("syringe-pump").expect("workload in catalogue");
        let program = workload.program().expect("assemble");
        let input = [SYRINGE_UNITS];
        // One warm-up run also yields the per-run instruction count.
        let (_, exit) = run_attested(&program, &input, EngineConfig::default());
        let instructions = exit.instructions as f64;

        // Plain first (it warms the CPU-model path the attested run shares);
        // the attested headline metric gets two extra windows.
        let plain = best_rate(window_secs, reps, instructions, || {
            std::hint::black_box(run_plain(&program, &input));
        });
        let attested = best_rate(window_secs, reps + 2, instructions, || {
            std::hint::black_box(run_attested(&program, &input, EngineConfig::default()));
        });

        let buf = vec![0xA5u8; 1 << 20];
        let hashed = best_rate(window_secs, reps, buf.len() as f64, || {
            std::hint::black_box(Sha3_512::digest(&buf));
        });

        // Four independent 1 MiB buffers through the packed 4-way permutation —
        // the batch shape the verifier uses to drain concurrent sessions.
        let bufs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0xA5 ^ i; 1 << 20]).collect();
        let hashed_x4 = best_rate(window_secs, reps, (4 << 20) as f64, || {
            std::hint::black_box(Sha3_512::digest_many(&bufs));
        });

        // Chain permutations through one state so the measurement reflects the
        // dependent-latency figure the hash engine actually experiences.
        let mut state = KeccakState::new();
        let per_call = 64u32;
        let perms_per_sec = best_rate(window_secs, reps, f64::from(per_call), || {
            for _ in 0..per_call {
                state.permute();
            }
        });
        std::hint::black_box(&state);
        let ns_per_permutation = 1e9 / perms_per_sec;

        ThroughputSample {
            attested_instructions_per_sec: attested,
            plain_instructions_per_sec: plain,
            hashed_bytes_per_sec: hashed,
            hashed_bytes_per_sec_x4: hashed_x4,
            ns_per_permutation,
        }
    }

    fn sample_object(w: &mut crate::json::JsonWriter, name: &str, sample: &ThroughputSample) {
        w.begin_object(Some(name));
        w.field_f64("attested_instructions_per_sec", sample.attested_instructions_per_sec, 1);
        w.field_f64("plain_instructions_per_sec", sample.plain_instructions_per_sec, 1);
        w.field_f64("hashed_bytes_per_sec", sample.hashed_bytes_per_sec, 1);
        w.field_f64("hashed_bytes_per_sec_x4", sample.hashed_bytes_per_sec_x4, 1);
        w.field_f64("ns_per_permutation", sample.ns_per_permutation, 1);
        w.end_object();
    }

    /// Renders the `BENCH_e10.json` document for a baseline/current pair
    /// (schema version 2: the shared bench-trajectory schema, emitted through
    /// [`crate::json::JsonWriter`] like `BENCH_service.json`).
    pub fn to_json(baseline: &ThroughputSample, current: &ThroughputSample) -> String {
        let mut w = crate::json::JsonWriter::new();
        w.begin_object(None);
        w.field_str("bench", "e10_throughput");
        w.field_u64("schema_version", crate::json::SCHEMA_VERSION);
        w.field_str("workload", "syringe-pump");
        w.field_u64("input_units", u64::from(SYRINGE_UNITS));
        // Which packed-Keccak kernel `current` ran with: the x4 rate is only
        // comparable against a baseline measured on the same tier.
        w.field_str("simd_tier", lofat_crypto::simd_tier());
        w.field_str("baseline_commit", "ae46754 (pre predecode/alloc-free/unrolled-keccak)");
        w.field_str(
            "measurement_note",
            "baseline and current measured interleaved in the same session (best of N 1-2s \
             wall-clock windows per build); regenerate `current` with `lofat bench-json`",
        );
        sample_object(&mut w, "baseline", baseline);
        sample_object(&mut w, "current", current);
        w.begin_object(Some("speedup"));
        w.field_f64(
            "attested_instructions_per_sec",
            current.attested_instructions_per_sec / baseline.attested_instructions_per_sec,
            1,
        );
        w.field_f64(
            "plain_instructions_per_sec",
            current.plain_instructions_per_sec / baseline.plain_instructions_per_sec,
            1,
        );
        w.field_f64(
            "hashed_bytes_per_sec",
            current.hashed_bytes_per_sec / baseline.hashed_bytes_per_sec,
            1,
        );
        w.field_f64(
            "hashed_bytes_per_sec_x4",
            current.hashed_bytes_per_sec_x4 / baseline.hashed_bytes_per_sec_x4,
            1,
        );
        w.field_f64(
            "ns_per_permutation",
            baseline.ns_per_permutation / current.ns_per_permutation,
            1,
        );
        w.end_object();
        w.end_object();
        w.finish()
    }
}
