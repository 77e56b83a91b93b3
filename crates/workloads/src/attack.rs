//! Run-time attack injection (the three attack classes of Fig. 1).
//!
//! The paper's adversary "has full control over the data memory of P and can utilize
//! standard memory corruption vulnerabilities to modify arbitrary writable memory
//! locations", but cannot modify the `rx` code segment.  The constructors in this
//! module return fault-injection hooks with exactly that power; they are plugged
//! into `lofat::Prover::attest_with_adversary` (every `FnMut(&mut Cpu, u64)` is an
//! adversary) and drive experiment E8:
//!
//! * [`poke_at_instruction`] / [`loop_counter_attack`] — class ② (loop-counter
//!   manipulation) and class ① (non-control-data corruption of decision variables);
//! * [`code_pointer_attack`] — class ③ via an in-memory function-pointer table;
//! * [`return_address_attack`] — class ③ via a smashed saved return address
//!   (ROP-style);
//! * [`data_only_attack`] — a pure data-oriented manipulation that does not alter
//!   control flow and is therefore (by design) *not* detectable by control-flow
//!   attestation.

use lofat_rv32::{Cpu, Reg};

/// A boxed fault-injection hook (any `FnMut(&mut Cpu, u64)` works as a
/// `lofat::Adversary`).
pub type Fault = Box<dyn FnMut(&mut Cpu, u64)>;

/// Overwrites the 32-bit word at `addr` with `value` once, just before the
/// instruction with retire-index `at_retired` executes.
pub fn poke_at_instruction(at_retired: u64, addr: u32, value: u32) -> Fault {
    let mut done = false;
    Box::new(move |cpu: &mut Cpu, retired: u64| {
        if !done && retired >= at_retired {
            cpu.poke_bytes(addr, &value.to_le_bytes()).expect("writable memory");
            done = true;
        }
    })
}

/// Class ② — loop-counter manipulation: rewrites the in-memory loop bound (e.g. the
/// requested dispense volume of the syringe pump) early in the run.
pub fn loop_counter_attack(bound_addr: u32, malicious_bound: u32) -> Fault {
    poke_at_instruction(1, bound_addr, malicious_bound)
}

/// Class ① — non-control-data attack: corrupts a data variable that a later branch
/// decision depends on (same mechanics as [`loop_counter_attack`], separated for
/// readability of the experiments).
pub fn non_control_data_attack(decision_addr: u32, malicious_value: u32) -> Fault {
    poke_at_instruction(1, decision_addr, malicious_value)
}

/// Class ③ — code-pointer overwrite: replaces an entry of an in-memory function
/// pointer table so a later indirect call lands on `malicious_target`.
pub fn code_pointer_attack(table_addr: u32, entry_index: u32, malicious_target: u32) -> Fault {
    poke_at_instruction(1, table_addr + 4 * entry_index, malicious_target)
}

/// Class ③ — ROP-style return-address smash: when execution reaches `trigger_pc`
/// (a point after the victim spilled `ra`), the word at `sp + slot_offset` is
/// overwritten with `malicious_target`, so the following `ret` is hijacked.
pub fn return_address_attack(trigger_pc: u32, slot_offset: u32, malicious_target: u32) -> Fault {
    let mut done = false;
    Box::new(move |cpu: &mut Cpu, _retired: u64| {
        if !done && cpu.pc() == trigger_pc {
            let slot = cpu.reg(Reg::SP).wrapping_add(slot_offset);
            cpu.poke_bytes(slot, &malicious_target.to_le_bytes()).expect("stack is writable");
            done = true;
        }
    })
}

/// A pure data-oriented attack: corrupts an output value that no branch ever tests,
/// leaving the control flow untouched.  Control-flow attestation does not (and is
/// not claimed to) detect this class (§3).
pub fn data_only_attack(output_addr: u32, malicious_value: u32) -> Fault {
    Box::new(move |cpu: &mut Cpu, retired: u64| {
        // Re-assert the malicious value periodically so the program's own writes do
        // not mask it, but never touch anything control flow depends on.
        if retired > 0 && retired.is_multiple_of(16) {
            cpu.poke_bytes(output_addr, &malicious_value.to_le_bytes()).expect("writable memory");
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use lofat_rv32::Cpu;

    fn load(source: &str, input: &[u32]) -> (lofat_rv32::Program, Cpu) {
        let program = programs::build(source).unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        if !input.is_empty() {
            let addr = program.symbol("input").unwrap();
            let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
            cpu.poke_bytes(addr, &bytes).unwrap();
            if let Some(len) = program.symbol("input_len") {
                cpu.poke_bytes(len, &(input.len() as u32).to_le_bytes()).unwrap();
            }
        }
        (program, cpu)
    }

    fn run_with_fault(
        source: &str,
        input: &[u32],
        mut fault: Fault,
    ) -> (lofat_rv32::Program, Cpu, u32) {
        let (program, mut cpu) = load(source, input);
        let result = loop {
            let retired = cpu.instructions();
            fault(&mut cpu, retired);
            if let Some(exit) = cpu.step(&mut lofat_rv32::trace::NullSink).unwrap() {
                break exit.register_a0;
            }
            assert!(cpu.cycles() < 10_000_000);
        };
        (program, cpu, result)
    }

    #[test]
    fn loop_counter_attack_changes_dispensed_volume() {
        let program = programs::build(programs::SYRINGE_PUMP).unwrap();
        let input_addr = program.symbol("input").unwrap();
        let fault = loop_counter_attack(input_addr, 50);
        let (_, _, result) = run_with_fault(programs::SYRINGE_PUMP, &[3], fault);
        assert_eq!(result, 50, "the pump dispenses far more than the requested 3 units");
    }

    #[test]
    fn code_pointer_attack_redirects_dispatch() {
        let program = programs::build(programs::DISPATCH).unwrap();
        let table = program.symbol("table").unwrap();
        let clear_handler = program.symbol("op_clear").unwrap();
        // Redirect opcode 0 (add 5) to the clear handler: the accumulator stays 0.
        let fault = code_pointer_attack(table, 0, clear_handler);
        let (_, _, result) = run_with_fault(programs::DISPATCH, &[0, 0, 0], fault);
        assert_eq!(result, 0);
        assert_eq!(programs::dispatch_expected(&[0, 0, 0]), 15);
    }

    #[test]
    fn return_address_attack_reaches_privileged_code() {
        let program = programs::build(programs::RETURN_VICTIM).unwrap();
        let privileged = program.symbol("privileged").unwrap();
        // Trigger right after `sw ra, 12(sp)` inside `process`; that store is the
        // second instruction of the function.
        let process = program.symbol("process").unwrap();
        let trigger_pc = process + 8;
        let fault = return_address_attack(trigger_pc, 12, privileged);
        let (_, _, result) = run_with_fault(programs::RETURN_VICTIM, &[21], fault);
        assert_eq!(result, 4919, "execution was hijacked into the privileged routine");
        assert_eq!(programs::return_victim_expected(&[21]), 42);
    }

    #[test]
    fn data_only_attack_preserves_control_flow_result() {
        let program = programs::build(programs::SYRINGE_PUMP).unwrap();
        let pulses_addr = program.symbol("motor_pulses").unwrap();
        let fault = data_only_attack(pulses_addr, 9999);
        let (_, cpu, result) = run_with_fault(programs::SYRINGE_PUMP, &[4], fault);
        // The architectural result (a0, derived from registers) is unchanged …
        assert_eq!(result, 4);
        // … but the recorded pulse count in memory was silently corrupted.
        let pulses = cpu.memory().load(pulses_addr, 4).unwrap();
        assert_ne!(pulses, 16);
    }

    #[test]
    fn poke_fires_exactly_once() {
        let program = programs::build(programs::FIG4_LOOP).unwrap();
        let input_addr = program.symbol("input").unwrap();
        let mut fault = poke_at_instruction(3, input_addr, 1);
        let mut cpu = Cpu::new(&program).unwrap();
        cpu.poke_bytes(input_addr, &5u32.to_le_bytes()).unwrap();
        for _ in 0..4 {
            let retired = cpu.instructions();
            fault(&mut cpu, retired);
            cpu.step(&mut lofat_rv32::trace::NullSink).unwrap();
        }
        assert_eq!(cpu.memory().load(input_addr, 4).unwrap(), 1);
        // Later program writes are not re-overwritten by the one-shot fault.
        cpu.poke_bytes(input_addr, &7u32.to_le_bytes()).unwrap();
        let retired = cpu.instructions();
        fault(&mut cpu, retired);
        assert_eq!(cpu.memory().load(input_addr, 4).unwrap(), 7);
    }
}
