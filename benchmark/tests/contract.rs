//! The binary against its contract, at smoke scale: every workload prints
//! exactly the metrics `BENCHMARK.json` names, fails nothing, and the
//! whole smoke run set checks against itself.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use bow_benchmark::metrics::{spec, NOT_MEASURED};
use bow_util::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_bow-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bow-benchmark-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn result_line(workload: &str, trace: bool, out: &PathBuf) -> Json {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--out"])
        .arg(out)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    bow_util::parse_json(stdout.lines().last().expect("a last line"))
        .expect("the last line is the result object")
}

#[test]
fn every_workload_prints_exactly_the_contract_s_metrics() {
    let s = spec();
    let out = scratch("keys");
    let mut nonzero_somewhere = std::collections::BTreeSet::new();
    for w in &s.workloads {
        for trace in [false, true] {
            let result = result_line(&w.name, trace, &out);
            let keys: Vec<&str> = result
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{}",
                w.name
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{}",
                w.name
            );
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = s.metrics(trace).iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, want, "{} trace={trace}", w.name);
            for ((name, m), def) in metrics.iter().zip(s.metrics(trace)) {
                let value = m.get("value").and_then(Json::as_f64).expect("a number");
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(def.unit.as_str())
                );
                assert!(value.is_finite(), "{}: {name} = {value}", w.name);
                if trace {
                    if value != 0.0 {
                        nonzero_somewhere.insert(name.clone());
                    }
                } else {
                    // The driver divides by end-to-end medians.
                    assert!(value != 0.0, "{}: {name} reads 0", w.name);
                }
            }
            let measured = |name: &str| {
                metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, m)| m.get("value"))
                    .and_then(Json::as_f64)
                    .is_some_and(|v| v != NOT_MEASURED)
            };
            if !trace {
                for name in ["setup_s", "wall_s", "ops_per_s", "peak_rss_mb"] {
                    assert!(measured(name), "{}: {name} not measured", w.name);
                }
                assert_eq!(measured("bowwr_ipc_gain_pct"), w.name.starts_with("fig_"));
                assert_eq!(measured("sim_kwips"), w.name != "corpus_gen");
                assert!(!measured("fail_share"), "{}: operations failed", w.name);
            }
        }
        assert!(
            out.join(format!("trace_{}.json", w.name)).is_file(),
            "no span file for {}",
            w.name
        );
    }
    // Every per-layer metric of the contract is produced by some workload.
    // The two scaling ratios need a second core.
    let two_cores = bow_benchmark::host::nproc() >= 2;
    for def in &s.per_layer {
        let needs_cores = matches!(
            def.name.as_str(),
            "sim.parallel_speedup_t2"
                | "sim.parallel_fingerprint_match"
                | "bow.suite_speedup_jobs2"
        );
        // Counts of things that should not happen, or that smoke-sized
        // kernels are too small to provoke.
        let may_be_zero = matches!(
            def.name.as_str(),
            "server.http_non2xx" | "sim.forced_evictions" | "sim.retired_completions"
        );
        if (needs_cores && !two_cores) || may_be_zero {
            continue;
        }
        assert!(
            nonzero_somewhere.contains(&def.name),
            "no workload produces {}",
            def.name
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn the_smoke_run_set_is_quick_and_checks_against_itself() {
    let out = scratch("set");
    let start = Instant::now();
    let status = Command::new(BIN)
        .args(["--smoke", "--seed", "9", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run the benchmark binary");
    let took = start.elapsed();
    assert!(status.success(), "smoke run set failed");
    // The 20 s budget is for the release build `run.sh` makes; the test
    // profile is slower, and cargo may be running the other test beside
    // this one.
    let budget = if cfg!(debug_assertions) { 120 } else { 20 };
    assert!(took.as_secs() < budget, "smoke took {took:?}");
    let latest = out.join("latest.json");
    let set = bow_util::parse_json(&std::fs::read_to_string(&latest).expect("latest.json"))
        .expect("latest.json parses");
    for key in [
        "statements",
        "provenance",
        "seed",
        "seconds",
        "smoke",
        "workloads",
    ] {
        assert!(set.get(key).is_some(), "latest.json has no {key}");
    }
    for w in &spec().workloads {
        let runs = set
            .get("workloads")
            .and_then(|ws| ws.get(&w.name))
            .expect("workload");
        for section in ["end_to_end", "per_layer"] {
            let detail = runs
                .get(section)
                .and_then(|r| r.get("detail"))
                .expect("detail");
            assert!(detail.get("samples").and_then(Json::as_arr).is_some());
            assert!(detail.get("passes").and_then(Json::as_u64) >= Some(1));
        }
    }
    let check = |a: &PathBuf, b: &PathBuf| {
        Command::new(BIN)
            .arg("--check")
            .args([a, b])
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run --check")
            .success()
    };
    assert!(check(&latest, &latest));
    // An exact count that moved is a breach.
    let text = std::fs::read_to_string(&latest).expect("latest.json");
    let cycles = text
        .lines()
        .find(|l| l.contains("\"sim.cycles\"") && !l.contains(": 0.0"))
        .expect("a measured sim.cycles");
    let moved = out.join("moved.json");
    std::fs::write(&moved, text.replacen(cycles, "\"sim.cycles\": 1.0,", 1)).expect("write");
    assert!(!check(&latest, &moved));
    let _ = std::fs::remove_dir_all(&out);
}
