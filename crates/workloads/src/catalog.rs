//! The workload catalogue used by tests, examples and the benchmark harness.

use crate::programs;
use lofat_rv32::{Program, Rv32Error};

/// Reference model: computes the expected `a0` result for a given input.
pub type ReferenceModel = fn(&[u32]) -> u32;

/// One evaluation workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short identifier (used as the program id in the attestation protocol).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// RV32 assembly source.
    pub source: &'static str,
    /// A representative input.
    pub default_input: Vec<u32>,
    /// Reference model producing the expected result for an input.
    pub expected: ReferenceModel,
    /// Whether the workload reads `input_len` (i.e. accepts variable-length inputs).
    pub variable_length_input: bool,
}

impl Workload {
    /// Assembles the workload.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors (the catalogue's sources are covered by tests and
    /// always assemble).
    pub fn program(&self) -> Result<Program, Rv32Error> {
        programs::build(self.source)
    }

    /// Expected result for `input` according to the reference model.
    pub fn expected_result(&self, input: &[u32]) -> u32 {
        (self.expected)(input)
    }
}

/// All workloads of the evaluation corpus.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "fig4-loop",
            description: "the paper's Fig. 4 while/if-else loop",
            source: programs::FIG4_LOOP,
            default_input: vec![6],
            expected: programs::fig4_loop_expected,
            variable_length_input: false,
        },
        Workload {
            name: "syringe-pump",
            description: "syringe-pump controller with nested pulse loop",
            source: programs::SYRINGE_PUMP,
            default_input: vec![8],
            expected: programs::syringe_pump_expected,
            variable_length_input: false,
        },
        Workload {
            name: "bubble-sort",
            description: "in-place bubble sort with data-dependent swaps",
            source: programs::BUBBLE_SORT,
            default_input: vec![9, 3, 7, 1, 8, 2],
            expected: programs::bubble_sort_expected,
            variable_length_input: true,
        },
        Workload {
            name: "crc32",
            description: "word-wise CRC-32 with a 32-iteration bit loop",
            source: programs::CRC32,
            default_input: vec![0xdead_beef, 0x1234_5678, 42],
            expected: programs::crc32_expected,
            variable_length_input: true,
        },
        Workload {
            name: "fibonacci",
            description: "recursive Fibonacci (call/return heavy)",
            source: programs::FIBONACCI,
            default_input: vec![9],
            expected: programs::fibonacci_expected,
            variable_length_input: false,
        },
        Workload {
            name: "matrix-checksum",
            description: "triple-nested loop matrix-product checksum",
            source: programs::MATRIX_CHECKSUM,
            default_input: vec![4],
            expected: programs::matrix_checksum_expected,
            variable_length_input: false,
        },
        Workload {
            name: "dispatch",
            description: "byte-code interpreter with indirect calls in a loop",
            source: programs::DISPATCH,
            default_input: vec![0, 0, 2, 1, 0, 3, 0],
            expected: programs::dispatch_expected,
            variable_length_input: true,
        },
        Workload {
            name: "nested-loops",
            description: "three-level nested counting loops",
            source: programs::NESTED_LOOPS,
            default_input: vec![3, 4, 5],
            expected: programs::nested_loops_expected,
            variable_length_input: false,
        },
        Workload {
            name: "diamond-paths",
            description: "loop with 8 distinct paths per iteration",
            source: programs::DIAMOND_PATHS,
            default_input: vec![12],
            expected: programs::diamond_paths_expected,
            variable_length_input: false,
        },
        Workload {
            name: "return-victim",
            description: "victim routine spilling its return address (attack target)",
            source: programs::RETURN_VICTIM,
            default_input: vec![21],
            expected: programs::return_victim_expected,
            variable_length_input: false,
        },
        Workload {
            name: "gcd",
            description: "Euclid's algorithm (data-dependent loop trip count)",
            source: programs::GCD,
            default_input: vec![1071, 462],
            expected: programs::gcd_expected,
            variable_length_input: false,
        },
        Workload {
            name: "binary-search",
            description: "binary search with a data-dependent probe path",
            source: programs::BINARY_SEARCH,
            default_input: vec![23, 2, 5, 8, 13, 23, 42, 77, 100],
            expected: programs::binary_search_expected,
            variable_length_input: true,
        },
    ]
}

/// Looks up a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat_rv32::Cpu;

    #[test]
    fn catalogue_is_nonempty_and_names_are_unique() {
        let workloads = all();
        assert!(workloads.len() >= 10);
        let mut names: Vec<_> = workloads.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), workloads.len());
    }

    #[test]
    fn every_workload_assembles_and_matches_its_reference_on_default_input() {
        for workload in all() {
            let program = workload
                .program()
                .unwrap_or_else(|e| panic!("workload `{}` failed to assemble: {e}", workload.name));
            let mut cpu = Cpu::new(&program).unwrap();
            let input = &workload.default_input;
            if !input.is_empty() {
                let addr = program.symbol("input").expect("input symbol");
                let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
                cpu.poke_bytes(addr, &bytes).unwrap();
                if let Some(len) = program.symbol("input_len") {
                    cpu.poke_bytes(len, &(input.len() as u32).to_le_bytes()).unwrap();
                }
            }
            let exit = cpu.run(10_000_000).unwrap();
            assert_eq!(
                exit.register_a0,
                workload.expected_result(input),
                "workload `{}` result mismatch",
                workload.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("syringe-pump").is_some());
        assert!(by_name("does-not-exist").is_none());
    }
}
