//! The benchmark's own checks: a seed fixes the request stream and
//! every modeled figure, tracing changes no modeled figure, and
//! `BENCHMARK.json` declares exactly the metrics the program prints.
//!
//! Each round runs in its own process, as in a benchmark run, with the
//! measured window shortened so the tests stay quick.

use std::process::Command;

use mcbench::report::{END_TO_END, PER_LAYER};
use mcbench::workloads::{specs, Round};

fn round(workload: &str, seed: u64, traced: bool) -> Round {
    let out = Command::new(env!("CARGO_BIN_EXE_mcbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--round", "--window-ms", "4"])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Round::decode(stdout.lines().last().expect("a round line")).expect("a readable round")
}

#[test]
fn same_seed_models_the_same_round() {
    for spec in specs() {
        let a = round(spec.name, 7, false);
        let b = round(spec.name, 7, false);
        assert!(a.m.attempted > 0, "{}: nothing measured", spec.name);
        assert_eq!(a.m.wrong, 0, "{}: wrong values", spec.name);
        assert_eq!(a.m.ledger_breaches, 0, "{}: ledger", spec.name);
        assert_eq!(a.m, b.m, "{}: same seed, different outcome", spec.name);
    }
}

#[test]
fn another_seed_gives_another_stream() {
    for spec in specs() {
        let a = round(spec.name, 7, false);
        let b = round(spec.name, 8, false);
        assert_ne!(a.m.stream_hash, b.m.stream_hash, "{}", spec.name);
    }
}

#[test]
fn tracing_changes_no_modeled_figure() {
    for spec in specs() {
        let plain = round(spec.name, 11, false);
        let traced = round(spec.name, 11, true);
        assert_eq!(plain.m, traced.m, "{}", spec.name);
        assert!(plain.traced.is_none());
        let t = traced.traced.expect("a traced round reports its spans");
        assert!(
            t.step_calls > 0 && t.loadgen_calls > 0,
            "{}: {t:?}",
            spec.name
        );
    }
}

#[test]
fn round_lines_round_trip() {
    let r = round("get_small_pipelined", 3, true);
    assert_eq!(Round::decode(&r.encode()), Some(r));
    assert_eq!(Round::decode("round m.nonsense=1"), None);
}

#[test]
fn benchmark_json_declares_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = text.matches("\"name\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + specs().len(),
        "BENCHMARK.json names a metric or workload the program does not"
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for s in specs() {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", s.name)),
            "{}",
            s.name
        );
    }
}
