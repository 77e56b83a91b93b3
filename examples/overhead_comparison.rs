//! LO-FAT vs. software attestation overhead across the workload corpus (§6.1).
//!
//! ```text
//! cargo run --example overhead_comparison
//! ```
//!
//! For every workload in the catalogue the example runs three configurations —
//! un-attested, LO-FAT-attested and C-FLAT-style software-attested — and prints the
//! processor cycles of each.  LO-FAT's column always equals the un-attested one
//! (zero overhead, the paper's headline claim), while the software baseline's
//! overhead grows with the number of control-flow events.

use lofat::{attest_program, EngineConfig};
use lofat_cflat::CflatAttestor;
use lofat_rv32::Cpu;
use lofat_workloads::catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "workload", "events", "baseline", "LO-FAT", "C-FLAT", "C-FLAT ovh"
    );
    println!("{}", "-".repeat(76));

    for workload in catalog::all() {
        let program = workload.program()?;
        let input = &workload.default_input;

        let load = |cpu: &mut Cpu| -> Result<(), Box<dyn std::error::Error>> {
            if !input.is_empty() {
                let addr = program.symbol("input").expect("input symbol");
                let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
                cpu.poke_bytes(addr, &bytes)?;
                if let Some(len) = program.symbol("input_len") {
                    cpu.poke_bytes(len, &(input.len() as u32).to_le_bytes())?;
                }
            }
            Ok(())
        };

        // Un-attested baseline.
        let mut cpu = Cpu::new(&program)?;
        load(&mut cpu)?;
        let baseline = cpu.run(10_000_000)?;

        // LO-FAT: attach the engine to the trace port; input-free path uses the
        // convenience helper, otherwise drive the CPU manually.
        let lofat_cycles = if input.is_empty() {
            attest_program(&program, EngineConfig::default(), 10_000_000)?.1.cycles
        } else {
            let mut engine = lofat::LofatEngine::for_program(&program, EngineConfig::default())?;
            let mut cpu = Cpu::new(&program)?;
            load(&mut cpu)?;
            let exit = cpu.run_traced(10_000_000, &mut engine)?;
            engine.finalize()?;
            exit.cycles
        };

        // C-FLAT-style software attestation.
        let mut cpu = Cpu::new(&program)?;
        load(&mut cpu)?;
        let cflat = CflatAttestor::new().attest_cpu(&mut cpu, 10_000_000)?;

        println!(
            "{:<16} {:>8} {:>12} {:>12} {:>12} {:>9.0}%",
            workload.name,
            cflat.events,
            baseline.cycles,
            lofat_cycles,
            cflat.instrumented_cycles(),
            cflat.overhead_ratio() * 100.0
        );
    }
    println!();
    println!("LO-FAT == baseline on every row: the engine observes the trace port in parallel");
    println!("and never stalls the pipeline; the software baseline pays per control-flow event.");
    Ok(())
}
