//! `benchmark` — see `README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark [--seed N] [--seconds S] [--traced]             a full set, one process per workload
//! benchmark --aa [--runs R]                                 two full sets of R runs, compared with the bounds
//! benchmark --spec                                          print BENCHMARK.json
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use reweb_benchmark::measure::{fs_type, median, peak_rss_mb, quantile};
use reweb_benchmark::spans::Spans;
use reweb_benchmark::spec::{self, all_workloads, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use reweb_benchmark::{default_conns, run_rounds, workloads, Cfg, Layers};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    runs: usize,
    scale: f64,
    spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        aa: false,
        runs: 10,
        scale: 1.0,
        spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--traced" => a.trace = true,
            "--aa" => a.aa = true,
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--scale" => {
                a.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--spec" => a.spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !all_workloads().any(|s| s.name == w) {
            let names: Vec<_> = all_workloads().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `benchmark/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    PathBuf::from(manifest).join("out")
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn print_metrics(specs: &[MetricSpec], values: &BTreeMap<&str, f64>) {
    for m in specs {
        println!(
            "{:<44} {:>16.4} {}",
            m.name,
            values.get(m.name).copied().unwrap_or(0.0),
            m.unit
        );
    }
}

/// One run of one workload in this process.
fn run_one(name: &str, a: &Args) -> ExitCode {
    let scratch = out_dir().join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory under benchmark/out");
    let cfg = Cfg {
        seed: a.seed,
        scale: a.scale,
        conns: default_conns(),
        scratch: scratch.clone(),
    };
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  nproc {}  conns {}  scratch {} ({})",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cfg.conns,
        scratch.display(),
        fs_type(&scratch),
    );
    let mut w = workloads::build(name, cfg).expect("validated workload name");
    let budget = Duration::from_secs_f64(a.seconds);
    let epoch = Instant::now();
    let mut off = Spans::new(false, epoch);

    let code = if !a.trace {
        let mut s = run_rounds(w.as_mut(), budget, 2, &mut off);
        s.metrics.insert("peak_rss_mb", peak_rss_mb());
        let correct = s.failed == 0 && s.counters_repeat;
        println!(
            "rounds {} (+1 warm-up)  events/round {}  reactions/round {}  latency samples {}  failed_share {:.6}  counters repeat: {}",
            s.rounds,
            s.events,
            s.reactions,
            s.samples,
            s.failed as f64 / s.attempted.max(1) as f64,
            s.counters_repeat
        );
        print_metrics(END_TO_END, &s.metrics);
        println!(
            "{}",
            json_line(correct, s.attempted, s.failed, END_TO_END, &s.metrics)
        );
        correct
    } else {
        // End-to-end numbers always come from untraced rounds; the traced
        // rounds give the per-layer counters and spans, and the difference
        // between the two is the tracing overhead.
        let untraced = run_rounds(w.as_mut(), budget.mul_f64(0.35), 1, &mut off);
        let mut spans = Spans::new(true, epoch);
        let traced = run_rounds(w.as_mut(), budget.mul_f64(0.35), 1, &mut spans);
        let (replayed, addends) = w.replay(&mut spans, &traced.layers);
        let mut layers: Layers = traced.layers.clone();
        layers.extend(replayed);
        let eps = |s: &reweb_benchmark::Summary| s.metrics["events_per_s"];
        layers.insert(
            "obs.tracing_overhead_share",
            1.0 - eps(&traced) / eps(&untraced),
        );
        layers.insert("term.sym_table_len", reweb_term::Sym::table_len() as f64);
        let e2e_ns = untraced.metrics["cpu_us_per_event"] * 1e3;
        let attributed: f64 = addends.iter().map(|(_, ns)| ns).sum();
        layers.insert("budget.e2e_ns_per_event", e2e_ns);
        layers.insert("budget.attributed_ns_per_event", attributed);
        layers.insert("budget.unattributed_share", 1.0 - attributed / e2e_ns);

        std::fs::create_dir_all(out_dir()).expect("benchmark/out");
        let trace_path = out_dir().join(format!("trace-{name}.json"));
        spans.write_json(&trace_path).expect("span file written");
        println!("{} spans -> {}", spans.len(), trace_path.display());
        println!(
            "{:<44} {:>10} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (span, t) in spans.totals() {
            println!(
                "{span:<44} {:>10} {:>14.3} {:>14.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        println!("stage budget (CPU ns per input event; e2e = untraced cpu_us_per_event):");
        for (stage, ns) in &addends {
            println!("  {stage:<42} {ns:>16.1} ns  {:>6.1}%", 100.0 * ns / e2e_ns);
        }
        for name in layers.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "per-layer metric `{name}` is not in the spec"
            );
        }
        print_metrics(PER_LAYER, &layers);
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        let correct = failed == 0 && untraced.counters_repeat && traced.counters_repeat;
        println!(
            "{}",
            json_line(correct, attempted, failed, PER_LAYER, &layers)
        );
        correct
    };
    let _ = std::fs::remove_dir_all(&scratch);
    exit_code(code)
}

/// Run one workload in a child process (so `peak_rss_mb` is its own) and
/// return the metrics of its result line, or `None` if it failed.
fn run_child(name: &str, seed: u64, a: &Args, echo: bool) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--scale",
            &a.scale.to_string(),
        ])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("child benchmark process runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        eprintln!("{name} (seed {seed}) failed: {}", out.status);
        return None;
    }
    // The result line is our own format: `"<name>": {"value": <number>, …`.
    let line = stdout.lines().last()?;
    let mut metrics = BTreeMap::new();
    for part in line
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
    {
        let name = part[0].rsplit('"').next()?;
        let value = part[1].split(',').next()?.parse().ok()?;
        metrics.insert(name.to_string(), value);
    }
    Some(metrics)
}

/// `--aa`: two sets of `runs` runs per workload on this build; per
/// workload × end-to-end metric print both medians, quartiles, spread and
/// relative difference against the bound, and fail if any exceeds it.
fn run_aa(a: &Args) -> ExitCode {
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![
            WORKLOADS
                .iter()
                .find(|s| s.name == w)
                .expect("validated")
                .name,
        ],
        None => WORKLOADS.iter().map(|s| s.name).collect(),
    };
    // sets[set][workload][metric] = one value per run
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> = Vec::new();
    for set in ["A", "B"] {
        let mut by_workload = BTreeMap::new();
        for name in &names {
            let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for run in 0..a.runs {
                eprintln!("set {set}: {name} run {}/{}", run + 1, a.runs);
                let Some(metrics) = run_child(name, a.seed + run as u64, a, false) else {
                    return ExitCode::FAILURE;
                };
                for (m, v) in metrics {
                    by_metric.entry(m).or_default().push(v);
                }
            }
            by_workload.insert(*name, by_metric);
        }
        sets.push(by_workload);
    }
    println!(
        "| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B vs A (worse +) | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for name in &names {
        for m in END_TO_END {
            let stat = |set: usize| {
                let v = &sets[set][name][m.name];
                let (q1, med, q3) = (quantile(v, 0.25), median(v), quantile(v, 0.75));
                (med, q1, q3, (q3 - q1) / med)
            };
            let (a_med, a_q1, a_q3, a_spread) = stat(0);
            let (b_med, b_q1, b_q3, b_spread) = stat(1);
            let worse = if m.better == "lower" {
                b_med / a_med - 1.0
            } else {
                1.0 - b_med / a_med
            };
            let spread_ok = m.name == "setup_s" || a_spread.max(b_spread) <= m.bound;
            let pass = worse <= m.bound && spread_ok;
            ok &= pass;
            println!(
                "| {name} | {} ({}) | {a_med:.4} [{a_q1:.4}, {a_q3:.4}] | {a_spread:.3} | {b_med:.4} [{b_q1:.4}, {b_q3:.4}] | {b_spread:.3} | {worse:+.3} | {} | {} |",
                m.name,
                m.unit,
                m.bound,
                if pass { "ok" } else { "EXCEEDS" }
            );
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if a.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if a.aa {
        return run_aa(&a);
    }
    match &a.workload {
        Some(name) => run_one(name, &a),
        None => {
            let mut ok = true;
            for w in all_workloads() {
                if !WORKLOADS.iter().any(|g| g.name == w.name) {
                    println!("(not gated by BENCHMARK.json, see BASELINE.md)");
                }
                ok &= run_child(w.name, a.seed, &a, true).is_some();
                println!();
            }
            exit_code(ok)
        }
    }
}
