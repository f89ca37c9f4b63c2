//! Every workload at ~1/200 size through the real binary: the contract in
//! `BENCHMARK.json` is what the binary prints, counters repeat exactly for
//! a seed and move with it, and nothing fails.
//!
//! Run with `cargo test --release --offline --manifest-path benchmark/Cargo.toml`
//! (the package is its own workspace, so the root `cargo test` does not
//! reach it).

use std::collections::BTreeMap;
use std::process::Command;

use reweb_benchmark::spec::{
    all_workloads, benchmark_json, MetricSpec, END_TO_END, EXACT, PER_LAYER, WORKLOADS,
};

const SCALE: &str = "0.005";

/// What one run printed: the human-readable `name value unit` lines, the
/// `events/round` and `reactions/round` counts, and the result line.
struct Run {
    printed: Vec<(String, f64, String)>,
    result: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--scale", SCALE])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let known = |name: &str| END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name);
    let printed = stdout
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [name, value, unit] if known(name) => {
                    Some((name.to_string(), value.parse().ok()?, unit.to_string()))
                }
                _ => None,
            }
        })
        .collect();
    Run {
        printed,
        result: stdout.lines().last().expect("a result line").to_string(),
    }
}

fn assert_prints_exactly(run: &Run, specs: &[MetricSpec], what: &str) {
    for m in specs {
        let hits: Vec<_> = run.printed.iter().filter(|(n, _, _)| n == m.name).collect();
        assert_eq!(
            hits.len(),
            1,
            "{what}: `{}` printed {} times",
            m.name,
            hits.len()
        );
        assert_eq!(hits[0].2, m.unit, "{what}: unit of `{}`", m.name);
        assert!(
            run.result
                .contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{what}: `{}` missing from the result line",
            m.name
        );
    }
    assert_eq!(
        run.printed.len(),
        specs.len(),
        "{what}: extra metrics printed"
    );
    assert!(
        run.result
            .starts_with("{\"correct\": true, \"attempted\": "),
        "{what}: {}",
        run.result
    );
    assert!(
        run.result.contains("\"failed\": 0,"),
        "{what}: {}",
        run.result
    );
}

fn exact_counters(run: &Run) -> BTreeMap<String, f64> {
    run.printed
        .iter()
        .filter(|(n, _, _)| EXACT.contains(&n.as_str()))
        .map(|(n, v, _)| (n.clone(), *v))
        .collect()
}

#[test]
fn benchmark_json_is_the_spec() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `benchmark --spec > BENCHMARK.json`"
    );
}

#[test]
fn spec_respects_the_contract_limits() {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<&str> = all_workloads().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    for n in &names {
        assert!(name_ok(n), "bad name `{n}`");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for w in all_workloads() {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
        assert!(m.better == "lower" || m.better == "higher");
    }
    assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    assert!(EXACT.iter().all(|n| PER_LAYER.iter().any(|m| m.name == *n)));
}

#[test]
fn every_workload_prints_the_contract_and_repeats_its_counters() {
    // Ungated workloads are held to the same contract, so promoting one is
    // only a matter of listing it.
    for w in all_workloads() {
        assert_prints_exactly(&run(w.name, 7, false), END_TO_END, w.name);

        let first = run(w.name, 7, true);
        assert_prints_exactly(&first, PER_LAYER, w.name);
        let again = exact_counters(&run(w.name, 7, true));
        assert_eq!(
            exact_counters(&first),
            again,
            "{}: counters differ for one seed",
            w.name
        );
        // Where the seed decides how many rules fire or how long the log
        // records are, another seed must show in the counters.
        if ["wire-blast", "match-mix", "durable-ingest"].contains(&w.name) {
            let other = exact_counters(&run(w.name, 8, true));
            assert_ne!(again, other, "{}: counters ignore the seed", w.name);
        }
    }
}
