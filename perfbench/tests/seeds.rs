//! Two runs of the benchmark on different seeds agree within the bounds
//! `BENCHMARK.json` fixes.
//!
//! The benchmark is judged by the spread of ten runs per workload
//! (`perfbench/spread.py`); this test is the cheap local form of that
//! check: two short runs of `cold-calibrate` (the workload that gathers
//! samples fastest), compared on the metrics whose single-run value is
//! steady. Set-up time is only meaningful as a median over many runs and
//! is left to `perfbench/spread.py`.

use std::path::{Path, PathBuf};
use std::process::Command;

use zeroconf_engine::wire::{parse_json, Json};

const STEADY: [&str; 5] = [
    "latency_mean_ms",
    "throughput_rps",
    "cells_per_s",
    "daemon_cpu_ms_per_req",
    "daemon_rss_mb",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
}

/// The target directory this test's benchmark binary was built into.
fn target_dir() -> PathBuf {
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    exe.ancestors()
        .nth(2)
        .expect("binary lives in <target>/<profile>/")
        .to_path_buf()
}

fn run(seed: u64) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "cold-calibrate",
            "--seconds",
            "4",
            "--trace",
            "0",
        ])
        .args(["--seed", &seed.to_string()])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target_dir())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "seed {seed}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).expect("the result line is JSON")
}

fn value(result: &Json, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(v)) => *v,
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn a_second_seed_stays_within_the_bounds() {
    let built = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "zeroconf-serve",
            "--bin",
            "zeroconf-serve",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target_dir())
        .status()
        .expect("cargo runs");
    assert!(built.success(), "building the daemon");
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse_json(&spec).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        panic!("BENCHMARK.json lacks end_to_end");
    };
    let bound = |name: &str| {
        metrics
            .iter()
            .find(|m| m.get("name") == Some(&Json::Str(name.to_owned())))
            .and_then(|m| match m.get("bound") {
                Some(Json::Num(b)) => Some(*b),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no bound for {name}"))
    };
    let (first, second) = (run(1), run(2));
    for result in [&first, &second] {
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
    }
    for name in STEADY {
        let (a, b) = (value(&first, name), value(&second, name));
        let change = (b - a).abs() / a;
        assert!(
            change <= bound(name),
            "{name}: seed 1 {a}, seed 2 {b} ({:.1}% apart, bound {})",
            change * 100.0,
            bound(name)
        );
    }
}
