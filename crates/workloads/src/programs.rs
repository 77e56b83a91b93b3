//! The RV32 assembly sources of the evaluation workloads.
//!
//! Every workload follows the same conventions: the verifier input is written (by
//! the prover) into the `input` buffer with the word count in `input_len` when
//! present, the result is returned in `a0` and the program terminates with `ecall`.

use lofat_rv32::asm::assemble;
use lofat_rv32::{Program, Rv32Error};

/// The Fig. 4 example: `while (cond1) { if (cond2) bb4 else bb5; bb6 }`.
///
/// Input: `[iterations]`.  Result: sum of 10 per odd counter value and 1 per even.
pub const FIG4_LOOP: &str = r#"
    .data
    input:
        .space 8
    .text
    main:
        la   t0, input
        lw   t0, 0(t0)         # loop bound (cond1 counter)
        li   a0, 0
    while_head:
        beqz t0, exit          # N2
        andi t1, t0, 1
        beqz t1, else_arm      # N3
        addi a0, a0, 10        # N4 (then)
        j    body_end
    else_arm:
        addi a0, a0, 1         # N5 (else)
    body_end:
        addi t0, t0, -1        # N6
        j    while_head
    exit:
        ecall                  # N7
"#;

/// Reference model of [`FIG4_LOOP`].
pub fn fig4_loop_expected(input: &[u32]) -> u32 {
    let n = input.first().copied().unwrap_or(0);
    (1..=n).map(|k| if k % 2 == 1 { 10 } else { 1 }).sum()
}

/// Syringe-pump controller: the paper's motivating embedded application.
///
/// Input: `[requested_units]`.  Each unit drives four motor pulses through a nested
/// loop; the dispensed amount and pulse count are recorded in data memory.  Result:
/// dispensed units.
pub const SYRINGE_PUMP: &str = r#"
    .data
    input:
        .space 8
    dispensed:
        .word 0
    motor_pulses:
        .word 0
    .text
    main:
        la   t0, input
        lw   t1, 0(t0)         # requested units
        li   t2, 0             # dispensed so far
        beqz t1, pump_done
    dispense_loop:
        li   t3, 4             # pulses per unit
    pulse_loop:
        la   t4, motor_pulses
        lw   t5, 0(t4)
        addi t5, t5, 1
        sw   t5, 0(t4)
        addi t3, t3, -1
        bnez t3, pulse_loop
        addi t2, t2, 1
        blt  t2, t1, dispense_loop
    pump_done:
        la   t4, dispensed
        sw   t2, 0(t4)
        mv   a0, t2
        ecall
"#;

/// Reference model of [`SYRINGE_PUMP`].
pub fn syringe_pump_expected(input: &[u32]) -> u32 {
    input.first().copied().unwrap_or(0)
}

/// In-place bubble sort of `input[0..input_len]`.  Result: number of swaps.
pub const BUBBLE_SORT: &str = r#"
    .data
    input:
        .space 256
    input_len:
        .word 0
    .text
    main:
        la   s0, input
        la   t0, input_len
        lw   s1, 0(t0)         # n
        li   a0, 0             # swap count
        li   t6, 1
        ble  s1, t6, sort_done
    outer_loop:
        li   t1, 0             # i
        li   t2, 0             # swapped flag
        addi t3, s1, -1        # n - 1
    inner_loop:
        slli t4, t1, 2
        add  t4, s0, t4
        lw   t5, 0(t4)
        lw   t6, 4(t4)
        ble  t5, t6, no_swap
        sw   t6, 0(t4)
        sw   t5, 4(t4)
        addi a0, a0, 1
        li   t2, 1
    no_swap:
        addi t1, t1, 1
        blt  t1, t3, inner_loop
        bnez t2, outer_loop
    sort_done:
        ecall
"#;

/// Reference model of [`BUBBLE_SORT`] (returns the swap count of a bubble sort with
/// early exit, matching the assembly).
pub fn bubble_sort_expected(input: &[u32]) -> u32 {
    let mut data: Vec<i32> = input.iter().map(|&w| w as i32).collect();
    let n = data.len();
    let mut swaps = 0;
    if n <= 1 {
        return 0;
    }
    loop {
        let mut swapped = false;
        for i in 0..n - 1 {
            if data[i] > data[i + 1] {
                data.swap(i, i + 1);
                swaps += 1;
                swapped = true;
            }
        }
        if !swapped {
            break;
        }
    }
    swaps
}

/// Word-wise CRC-32 (reflected polynomial 0xEDB88320) over `input[0..input_len]`.
pub const CRC32: &str = r#"
    .data
    input:
        .space 256
    input_len:
        .word 0
    .text
    main:
        la   s0, input
        la   t0, input_len
        lw   s1, 0(t0)
        li   a0, -1            # crc = 0xFFFFFFFF
        li   s2, 0             # word index
        li   s3, 0xEDB88320
        beqz s1, crc_done
    word_loop:
        slli t1, s2, 2
        add  t1, s0, t1
        lw   t2, 0(t1)
        xor  a0, a0, t2
        li   t3, 32
    bit_loop:
        andi t4, a0, 1
        srli a0, a0, 1
        beqz t4, no_poly
        xor  a0, a0, s3
    no_poly:
        addi t3, t3, -1
        bnez t3, bit_loop
        addi s2, s2, 1
        blt  s2, s1, word_loop
    crc_done:
        xori a0, a0, -1
        ecall
"#;

/// Reference model of [`CRC32`].
pub fn crc32_expected(input: &[u32]) -> u32 {
    let mut crc = u32::MAX;
    for &word in input {
        crc ^= word;
        for _ in 0..32 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// Recursive Fibonacci.  Input: `[n]` (kept small).  Result: `fib(n)`.
pub const FIBONACCI: &str = r#"
    .data
    input:
        .space 8
    .text
    main:
        la   t0, input
        lw   a0, 0(t0)
        call fib
        ecall
    fib:
        li   t0, 2
        blt  a0, t0, fib_base
        addi sp, sp, -16
        sw   ra, 12(sp)
        sw   a0, 8(sp)
        addi a0, a0, -1
        call fib
        sw   a0, 4(sp)
        lw   a0, 8(sp)
        addi a0, a0, -2
        call fib
        lw   t1, 4(sp)
        add  a0, a0, t1
        lw   ra, 12(sp)
        addi sp, sp, 16
        ret
    fib_base:
        ret
"#;

/// Reference model of [`FIBONACCI`].
pub fn fibonacci_expected(input: &[u32]) -> u32 {
    fn fib(n: u32) -> u32 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }
    fib(input.first().copied().unwrap_or(0))
}

/// Matrix-product checksum with three nested loops and no memory traffic:
/// `sum over i,j,k of (i+k)*(k+j)` for an `n × n` problem.  Input: `[n]`.
pub const MATRIX_CHECKSUM: &str = r#"
    .data
    input:
        .space 8
    .text
    main:
        la   t0, input
        lw   s1, 0(t0)         # n
        li   a0, 0
        li   s2, 0             # i
        beqz s1, mat_done
    i_loop:
        li   s3, 0             # j
    j_loop:
        li   s4, 0             # k
    k_loop:
        add  t1, s2, s4        # i + k
        add  t2, s4, s3        # k + j
        mul  t3, t1, t2
        add  a0, a0, t3
        addi s4, s4, 1
        blt  s4, s1, k_loop
        addi s3, s3, 1
        blt  s3, s1, j_loop
        addi s2, s2, 1
        blt  s2, s1, i_loop
    mat_done:
        ecall
"#;

/// Reference model of [`MATRIX_CHECKSUM`].
pub fn matrix_checksum_expected(input: &[u32]) -> u32 {
    let n = input.first().copied().unwrap_or(0);
    let mut acc = 0u32;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                acc = acc.wrapping_add((i + k).wrapping_mul(k + j));
            }
        }
    }
    acc
}

/// A byte-code interpreter dispatching through an in-memory function-pointer table:
/// the indirect-call-in-a-loop pattern of §5.2.  Input: `input_len` opcodes in
/// `input` (taken modulo 4).  Result: the accumulator after interpreting them.
pub const DISPATCH: &str = r#"
    .data
    input:
        .space 256
    input_len:
        .word 0
    table:
        .word op_add, op_sub, op_double, op_clear
    .text
    main:
        la   s0, input
        la   t0, input_len
        lw   s1, 0(t0)
        la   s2, table
        li   a0, 0
        li   s3, 0             # index
        beqz s1, dispatch_done
    dispatch_loop:
        slli t1, s3, 2
        add  t1, s0, t1
        lw   t2, 0(t1)         # opcode
        andi t2, t2, 3
        slli t2, t2, 2
        add  t2, s2, t2
        lw   t3, 0(t2)         # handler address
        jalr ra, t3, 0         # indirect call
        addi s3, s3, 1
        blt  s3, s1, dispatch_loop
    dispatch_done:
        ecall
    op_add:
        addi a0, a0, 5
        ret
    op_sub:
        addi a0, a0, -1
        ret
    op_double:
        add  a0, a0, a0
        ret
    op_clear:
        li   a0, 0
        ret
"#;

/// Reference model of [`DISPATCH`].
pub fn dispatch_expected(input: &[u32]) -> u32 {
    let mut acc = 0u32;
    for &op in input {
        match op % 4 {
            0 => acc = acc.wrapping_add(5),
            1 => acc = acc.wrapping_sub(1),
            2 => acc = acc.wrapping_add(acc),
            _ => acc = 0,
        }
    }
    acc
}

/// Three-level nested counting loops with independently controlled trip counts.
/// Input: `[n1, n2, n3]`.  Result: `n1 * n2 * n3`.
pub const NESTED_LOOPS: &str = r#"
    .data
    input:
        .space 16
    .text
    main:
        la   t0, input
        lw   s1, 0(t0)         # n1
        lw   s2, 4(t0)         # n2
        lw   s3, 8(t0)         # n3
        li   a0, 0
        li   s4, 0
        beqz s1, nest_done
        beqz s2, nest_done
        beqz s3, nest_done
    level1:
        li   s5, 0
    level2:
        li   s6, 0
    level3:
        addi a0, a0, 1
        addi s6, s6, 1
        blt  s6, s3, level3
        addi s5, s5, 1
        blt  s5, s2, level2
        addi s4, s4, 1
        blt  s4, s1, level1
    nest_done:
        ecall
"#;

/// Reference model of [`NESTED_LOOPS`].
pub fn nested_loops_expected(input: &[u32]) -> u32 {
    let n1 = input.first().copied().unwrap_or(0);
    let n2 = input.get(1).copied().unwrap_or(0);
    let n3 = input.get(2).copied().unwrap_or(0);
    n1 * n2 * n3
}

/// A loop whose body contains three data-dependent diamonds: 2³ = 8 distinct paths
/// per iteration, exercising the path encoder and the metadata size (E7).
/// Input: `[iterations]`.  Result: a data-dependent accumulator.
pub const DIAMOND_PATHS: &str = r#"
    .data
    input:
        .space 8
    .text
    main:
        la   t0, input
        lw   s1, 0(t0)         # iterations
        li   a0, 0
        li   s2, 0             # counter
        beqz s1, diamond_done
    diamond_loop:
        andi t1, s2, 1
        beqz t1, skip_one
        addi a0, a0, 1
    skip_one:
        andi t1, s2, 2
        beqz t1, skip_two
        addi a0, a0, 10
    skip_two:
        andi t1, s2, 4
        beqz t1, skip_four
        addi a0, a0, 100
    skip_four:
        addi s2, s2, 1
        blt  s2, s1, diamond_loop
    diamond_done:
        ecall
"#;

/// Reference model of [`DIAMOND_PATHS`].
pub fn diamond_paths_expected(input: &[u32]) -> u32 {
    let n = input.first().copied().unwrap_or(0);
    let mut acc = 0;
    for counter in 0..n {
        if counter & 1 != 0 {
            acc += 1;
        }
        if counter & 2 != 0 {
            acc += 10;
        }
        if counter & 4 != 0 {
            acc += 100;
        }
    }
    acc
}

/// A victim routine that spills its return address to the stack, plus a privileged
/// routine that must never execute in benign runs — the target of the code-pointer
/// (ROP-style) attack of experiment E8.  Input: `[value]`.  Benign result: `2·value`.
pub const RETURN_VICTIM: &str = r#"
    .data
    input:
        .space 8
    .text
    main:
        la   t0, input
        lw   a0, 0(t0)
        call process
        ecall
    process:
        addi sp, sp, -16
        sw   ra, 12(sp)
        add  a0, a0, a0
        lw   ra, 12(sp)
        addi sp, sp, 16
        ret
    privileged:
        li   a0, 4919          # 0x1337 — "unlock the syringe pump"
        ecall
"#;

/// Reference model of [`RETURN_VICTIM`] (benign behaviour).
pub fn return_victim_expected(input: &[u32]) -> u32 {
    2 * input.first().copied().unwrap_or(0)
}

/// Assembles one of the workload sources.
///
/// # Errors
///
/// Returns the assembler error if the source is malformed (never the case for the
/// constants in this module — covered by tests).
pub fn build(source: &str) -> Result<Program, Rv32Error> {
    assemble(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat_rv32::Cpu;

    fn run(source: &str, input: &[u32]) -> u32 {
        let program = build(source).expect("assemble");
        let mut cpu = Cpu::new(&program).expect("load");
        if !input.is_empty() {
            let addr = program.symbol("input").expect("input symbol");
            let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
            cpu.poke_bytes(addr, &bytes).unwrap();
            if let Some(len) = program.symbol("input_len") {
                cpu.poke_bytes(len, &(input.len() as u32).to_le_bytes()).unwrap();
            }
        }
        cpu.run(10_000_000).expect("run").register_a0
    }

    #[test]
    fn fig4_loop_matches_reference() {
        for n in [0u32, 1, 2, 5, 9] {
            assert_eq!(run(FIG4_LOOP, &[n]), fig4_loop_expected(&[n]), "n = {n}");
        }
    }

    #[test]
    fn syringe_pump_matches_reference() {
        for units in [0u32, 1, 3, 10] {
            assert_eq!(run(SYRINGE_PUMP, &[units]), syringe_pump_expected(&[units]));
        }
    }

    #[test]
    fn syringe_pump_records_motor_pulses() {
        let program = build(SYRINGE_PUMP).unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        let addr = program.symbol("input").unwrap();
        cpu.poke_bytes(addr, &5u32.to_le_bytes()).unwrap();
        cpu.run(1_000_000).unwrap();
        let pulses_addr = program.symbol("motor_pulses").unwrap();
        let pulses = cpu.memory().load(pulses_addr, 4).unwrap();
        assert_eq!(pulses, 20, "4 pulses per dispensed unit");
    }

    #[test]
    fn bubble_sort_matches_reference_and_sorts() {
        let inputs: &[&[u32]] = &[&[], &[7], &[3, 1, 2], &[9, 8, 7, 6, 5, 4, 3, 2, 1], &[5, 5, 5]];
        for input in inputs {
            assert_eq!(run(BUBBLE_SORT, input), bubble_sort_expected(input), "{input:?}");
        }
        // And the array really ends up sorted.
        let program = build(BUBBLE_SORT).unwrap();
        let mut cpu = Cpu::new(&program).unwrap();
        let input = [4u32, 2, 9, 1, 7];
        let addr = program.symbol("input").unwrap();
        let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
        cpu.poke_bytes(addr, &bytes).unwrap();
        cpu.poke_bytes(program.symbol("input_len").unwrap(), &5u32.to_le_bytes()).unwrap();
        cpu.run(1_000_000).unwrap();
        let sorted: Vec<u32> =
            (0..5).map(|i| cpu.memory().load(addr + 4 * i, 4).unwrap()).collect();
        assert_eq!(sorted, vec![1, 2, 4, 7, 9]);
    }

    #[test]
    fn crc32_matches_reference() {
        let inputs: &[&[u32]] = &[&[], &[0], &[0xdead_beef], &[1, 2, 3, 4, 5]];
        for input in inputs {
            assert_eq!(run(CRC32, input), crc32_expected(input), "{input:?}");
        }
    }

    #[test]
    fn fibonacci_matches_reference() {
        for n in [0u32, 1, 2, 7, 10] {
            assert_eq!(run(FIBONACCI, &[n]), fibonacci_expected(&[n]), "n = {n}");
        }
    }

    #[test]
    fn matrix_checksum_matches_reference() {
        for n in [0u32, 1, 3, 5] {
            assert_eq!(run(MATRIX_CHECKSUM, &[n]), matrix_checksum_expected(&[n]), "n = {n}");
        }
    }

    #[test]
    fn dispatch_matches_reference() {
        let inputs: &[&[u32]] = &[&[], &[0, 0, 1], &[0, 2, 1, 3, 0], &[7, 6, 5, 4]];
        for input in inputs {
            assert_eq!(run(DISPATCH, input), dispatch_expected(input), "{input:?}");
        }
    }

    #[test]
    fn nested_loops_match_reference() {
        let inputs: &[&[u32]] = &[&[0, 5, 5], &[2, 3, 4], &[1, 1, 1], &[3, 0, 2]];
        for input in inputs {
            assert_eq!(run(NESTED_LOOPS, input), nested_loops_expected(input), "{input:?}");
        }
    }

    #[test]
    fn diamond_paths_match_reference() {
        for n in [0u32, 1, 7, 16] {
            assert_eq!(run(DIAMOND_PATHS, &[n]), diamond_paths_expected(&[n]), "n = {n}");
        }
    }

    #[test]
    fn return_victim_benign_behaviour() {
        for v in [0u32, 21, 100] {
            assert_eq!(run(RETURN_VICTIM, &[v]), return_victim_expected(&[v]));
        }
    }
}

/// Euclid's algorithm.  Input: `[a, b]`.  Result: `gcd(a, b)`.
pub const GCD: &str = r#"
    .data
    input:
        .space 8
    .text
    main:
        la   t0, input
        lw   a0, 0(t0)
        lw   a1, 4(t0)
    gcd_loop:
        beqz a1, gcd_done
        remu t1, a0, a1
        mv   a0, a1
        mv   a1, t1
        j    gcd_loop
    gcd_done:
        ecall
"#;

/// Reference model of [`GCD`].
pub fn gcd_expected(input: &[u32]) -> u32 {
    let mut a = input.first().copied().unwrap_or(0);
    let mut b = input.get(1).copied().unwrap_or(0);
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Iterative binary search over a sorted array.
/// Input: `[target, sorted values...]` with `input_len` covering all words.
/// Result: the index of the probe that matched (data-dependent search path), or
/// `0xffffffff` when the target is absent.
pub const BINARY_SEARCH: &str = r#"
    .data
    input:
        .space 256
    input_len:
        .word 0
    .text
    main:
        la   s0, input
        la   t0, input_len
        lw   t1, 0(t0)         # total input words
        lw   s1, 0(s0)         # target
        addi s0, s0, 4         # array base
        addi t1, t1, -1        # n
        li   t2, 0             # lo
        mv   t3, t1            # hi (exclusive)
        li   a0, -1
        blez t1, bsearch_done
    bsearch_loop:
        bgeu t2, t3, bsearch_done
        add  t4, t2, t3
        srli t4, t4, 1         # mid
        slli t5, t4, 2
        add  t5, s0, t5
        lw   t6, 0(t5)         # a[mid]
        beq  t6, s1, bsearch_found
        bltu t6, s1, bsearch_right
        mv   t3, t4            # hi = mid
        j    bsearch_loop
    bsearch_right:
        addi t2, t4, 1         # lo = mid + 1
        j    bsearch_loop
    bsearch_found:
        mv   a0, t4
    bsearch_done:
        ecall
"#;

/// Reference model of [`BINARY_SEARCH`] (replicates the same probe sequence).
pub fn binary_search_expected(input: &[u32]) -> u32 {
    let Some((&target, array)) = input.split_first() else { return u32::MAX };
    if array.is_empty() {
        return u32::MAX;
    }
    let mut lo = 0u32;
    let mut hi = array.len() as u32;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let value = array[mid as usize];
        if value == target {
            return mid;
        }
        if value < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    u32::MAX
}

#[cfg(test)]
mod extra_workload_tests {
    use super::*;
    use lofat_rv32::Cpu;

    fn run(source: &str, input: &[u32]) -> u32 {
        let program = build(source).expect("assemble");
        let mut cpu = Cpu::new(&program).expect("load");
        if !input.is_empty() {
            let addr = program.symbol("input").expect("input symbol");
            let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
            cpu.poke_bytes(addr, &bytes).unwrap();
            if let Some(len) = program.symbol("input_len") {
                cpu.poke_bytes(len, &(input.len() as u32).to_le_bytes()).unwrap();
            }
        }
        cpu.run(10_000_000).expect("run").register_a0
    }

    #[test]
    fn gcd_matches_reference() {
        let cases: &[&[u32]] = &[&[0, 0], &[12, 0], &[0, 12], &[1071, 462], &[17, 5], &[48, 36]];
        for input in cases {
            assert_eq!(run(GCD, input), gcd_expected(input), "{input:?}");
        }
    }

    #[test]
    fn binary_search_matches_reference() {
        let sorted = [2u32, 5, 8, 13, 23, 42, 77, 100];
        for target in [2u32, 13, 23, 100, 3, 999, 0] {
            let mut input = vec![target];
            input.extend_from_slice(&sorted);
            assert_eq!(
                run(BINARY_SEARCH, &input),
                binary_search_expected(&input),
                "target {target}"
            );
        }
        // Degenerate inputs: empty array and single element.
        assert_eq!(run(BINARY_SEARCH, &[7]), binary_search_expected(&[7]));
        assert_eq!(run(BINARY_SEARCH, &[7, 7]), binary_search_expected(&[7, 7]));
        assert_eq!(run(BINARY_SEARCH, &[7, 9]), binary_search_expected(&[7, 9]));
    }
}
