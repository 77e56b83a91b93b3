//! The benchmark's own tests: seeded determinism of its inputs, smoke-scale
//! runs of every workload, and agreement with `BENCHMARK.json`.

use perfbench::schedule::{Kind, Schedule, Workload};
use perfbench::{run, RunConfig};

#[test]
fn same_seed_gives_identical_inputs_and_adversary_schedule() {
    for workload in Workload::ALL {
        let a = Schedule::generate(workload, 42).to_bytes();
        let b = Schedule::generate(workload, 42).to_bytes();
        assert_eq!(a, b, "{}", workload.name());
    }
}

#[test]
fn different_seeds_give_different_schedules() {
    for workload in Workload::ALL {
        let a = Schedule::generate(workload, 42);
        let b = Schedule::generate(workload, 43);
        assert_ne!(a.to_bytes(), b.to_bytes(), "{}", workload.name());
    }
    let kinds = |seed| -> Vec<Kind> {
        Schedule::generate(Workload::SearchChurn, seed).entries.iter().map(|e| e.kind).collect()
    };
    assert_ne!(kinds(42), kinds(43), "the adversary schedule follows the seed");
}

#[test]
fn search_churn_mixes_accepts_and_both_rejections_over_a_large_database() {
    let schedule = Schedule::generate(Workload::SearchChurn, 5);
    assert!(schedule.inputs.len() >= 16 * 1024, "database dwarfs the verdict cache");
    let count = |f: fn(&Kind) -> bool| schedule.entries.iter().filter(|e| f(&e.kind)).count();
    assert!(count(|k| *k == Kind::Forged) > 0);
    assert!(count(|k| matches!(k, Kind::Replayed { .. })) > 0);
    assert!(count(|k| *k == Kind::Honest) > schedule.entries.len() / 2);
}

/// `(name, unit)` of every metric a section of `BENCHMARK.json` lists.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> String {
        let rest = &line[line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    body.lines()
        .filter(|line| line.contains("\"name\":"))
        .map(|line| (field(line, "name"), field(line, "unit")))
        .collect()
}

fn reported(report: &perfbench::Report) -> Vec<(String, String)> {
    report.metrics.0.iter().filter(|m| m.listed).map(|m| (m.name.into(), m.unit.into())).collect()
}

#[test]
fn smoke_runs_of_every_workload_pass_their_checks() {
    for workload in Workload::ALL {
        let report = run(workload, 1, RunConfig::smoke(), false);
        assert!(report.violations.is_empty(), "{}: {:?}", workload.name(), report.violations);
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "{}: failed_ratio must be 0", workload.name());
        assert_eq!(report.metrics.get("failed_ratio"), Some(0.0));
        assert_eq!(report.metrics.get("stall_cycles_per_session"), Some(0.0));
        assert_eq!(reported(&report), listed("end_to_end"), "{}", workload.name());
    }
}

#[test]
fn smoke_traced_runs_report_every_layer_and_identical_counts() {
    for workload in Workload::ALL {
        let report = run(workload, 1, RunConfig::smoke(), true);
        assert_eq!(report.failed, 0, "{}", workload.name());
        // The layer-sum check compares host times, which a loaded test host
        // can skew; every other check must hold.
        let others: Vec<_> =
            report.violations.iter().filter(|v| !v.starts_with("layer table")).collect();
        assert!(others.is_empty(), "{}: {others:?}", workload.name());
        assert_eq!(reported(&report), listed("per_layer"), "{}", workload.name());
    }
}
