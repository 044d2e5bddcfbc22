//! What the command prints and writes: one run's result line, the whole
//! run set (`latest.json`), and the comparison of two run sets against
//! the contract's bounds.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Stdio};

use bow_util::json::Json;

use crate::host;
use crate::metrics::{spec, MetricDef, EXACT, NOT_MEASURED};
use crate::workloads::{self, RunOpts, RunOutput};

/// Said with every run, so no number is read as more than it is.
pub const STATEMENTS: [&str; 4] = [
    "Times and rates are HOST time (this machine running the simulator); cycles, IPC, \
     energy and bypass shares are SIMULATED (the modelled GPU) and repeat exactly.",
    "Modelled caches start EMPTY at every cell: one Gpu::new per (kernel, config) cell, \
     no warm-up of the modelled memory hierarchy.",
    "The repository holds no hardware reference, so the model is UNVALIDATED AGAINST \
     HARDWARE and no error figure is given.",
    "The only reference beside the simulated gains is the paper's published averages at \
     IW3: BOW-WR +13 % IPC, -55 % RF dynamic energy, 59 % of reads bypassed.",
];

/// The line the per-run detail (passes, sample counts, failure messages)
/// travels on from a workload's process to the one assembling the set.
const DETAIL_PREFIX: &str = "#detail ";

fn format_value(v: f64) -> String {
    if v == NOT_MEASURED {
        "n/a".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

fn print_metric(def: &MetricDef, value: f64) {
    let bound = def
        .bound
        .map_or_else(|| "-".to_string(), |b| format!("{:.1}%", 100.0 * b));
    // `fail_share` is floored where other metrics read "not measured".
    let shown = if def.name == "fail_share" && value == NOT_MEASURED {
        "0".to_string()
    } else {
        format_value(value)
    };
    println!(
        "  {:<32} {:>16} {:<9} {:<7} {bound}",
        def.name,
        shown,
        def.unit,
        if def.higher_is_better {
            "higher"
        } else {
            "lower"
        },
    );
}

fn print_metric_header() {
    println!(
        "  {:<32} {:>16} {:<9} {:<7} bound",
        "metric", "value", "unit", "better"
    );
}

fn detail_json(opts: &RunOpts, out: &RunOutput) -> Json {
    Json::obj([
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("passes", Json::from(out.passes)),
        (
            "pass_wall_s",
            Json::Arr(out.pass_wall_s.iter().map(|w| Json::Num(*w)).collect()),
        ),
        (
            "samples",
            Json::Arr(
                out.samples
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("metric", Json::from(s.metric.as_str())),
                            ("samples", Json::from(s.samples)),
                            ("percentile", s.percentile.map_or(Json::Null, Json::from)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(
                out.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
    ])
}

/// One run of one workload: prints the statements, the metrics and, as
/// the last line of stdout, the result object. Returns whether every
/// output check passed.
pub fn single(workload: &str, opts: &RunOpts) -> bool {
    // One line per caught panic instead of a backtrace each.
    std::panic::set_hook(Box::new(|info| eprintln!("caught: {info}")));
    let mut out = match workloads::run(workload, opts) {
        Ok(out) => out,
        Err(message) => {
            eprintln!("error: {message}");
            return false;
        }
    };
    if !opts.trace {
        let share = out.failed as f64 / out.attempted.max(1) as f64;
        out.values.set("fail_share", share.max(NOT_MEASURED));
        if let Some(mb) = host::peak_rss_mb() {
            out.values.set("peak_rss_mb", mb);
        }
    }
    let correct = out.attempted > 0 && out.passes > 0 && out.failed == 0 && out.failures.is_empty();
    let defs = spec().metrics(opts.trace);
    // Per-layer metrics have no bound and may read 0 where the workload
    // does not run the layer; end-to-end metrics may not.
    let unmeasured = if opts.trace { 0.0 } else { NOT_MEASURED };
    let metrics = out.values.to_contract_json(defs, unmeasured);

    for s in STATEMENTS {
        println!("note: {s}");
    }
    println!("provenance: {}", host::provenance().to_string_compact());
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  {}  passes {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke {
            "SMOKE sizes"
        } else {
            "measured sizes"
        },
        out.passes
    );
    print_metric_header();
    for def in defs {
        print_metric(def, out.values.get(&def.name).unwrap_or(unmeasured));
    }
    for s in &out.samples {
        let rank = s
            .percentile
            .map_or(String::new(), |p| format!(" (tail = p{p})"));
        println!("  samples: {} <- {}{rank}", s.metric, s.samples);
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "{DETAIL_PREFIX}{}",
        detail_json(opts, &out).to_string_compact()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(out.attempted.max(1))),
            ("failed", Json::from(out.failed)),
            ("metrics", metrics),
        ])
        .to_string_compact()
    );
    correct
}

/// Runs one workload in a process of its own and returns its result
/// object with the detail merged in.
fn spawn_run(workload: &str, opts: &RunOpts, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| bow_util::parse_json(l).ok())
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|l| bow_util::parse_json(l).ok())
        .unwrap_or(Json::Null);
    let flat = |metrics: &Json| -> Json {
        Json::Obj(
            metrics
                .as_obj()
                .unwrap_or(&[])
                .iter()
                .map(|(k, m)| (k.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
                .collect(),
        )
    };
    Ok(Json::obj([
        (
            "correct",
            result.get("correct").cloned().unwrap_or(Json::Bool(false)),
        ),
        (
            "attempted",
            result.get("attempted").cloned().unwrap_or(Json::Null),
        ),
        (
            "failed",
            result.get("failed").cloned().unwrap_or(Json::Null),
        ),
        ("detail", detail),
        (
            "metrics",
            flat(result.get("metrics").unwrap_or(&Json::Null)),
        ),
    ]))
}

fn print_run(defs: &[MetricDef], run: &Json, skip_zero: bool) {
    print_metric_header();
    let mut skipped = 0;
    for def in defs {
        let value = run
            .get("metrics")
            .and_then(|m| m.get(&def.name))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        if skip_zero && value == 0.0 {
            skipped += 1;
        } else {
            print_metric(def, value);
        }
    }
    if skipped > 0 {
        println!("  ({skipped} per-layer metrics read 0: the workload does not run those layers)");
    }
    if let Some(failures) = run
        .get("detail")
        .and_then(|d| d.get("failures"))
        .and_then(Json::as_arr)
    {
        for f in failures {
            println!("  FAILED: {}", f.as_str().unwrap_or("?"));
        }
    }
}

/// Every workload, each in its own process, untraced then traced. Prints
/// every metric and writes the run set to `file` in the output
/// directory. Returns the set when every output check passed. With
/// `only`, just those workloads are run.
pub fn all(opts: &RunOpts, file: &str, only: Option<&BTreeSet<String>>) -> Option<Json> {
    let s = spec();
    for statement in STATEMENTS {
        println!("note: {statement}");
    }
    let provenance = host::provenance();
    println!("provenance: {}", provenance.to_string_compact());
    println!(
        "seed {}  seconds {}  {}",
        opts.seed,
        opts.seconds,
        if opts.smoke {
            "SMOKE sizes: test-scale inputs, one pass each, not a measurement"
        } else {
            "measured sizes"
        }
    );
    let mut ok = true;
    let mut runs = Vec::new();
    for w in &s.workloads {
        if only.is_some_and(|set| !set.contains(&w.name)) {
            continue;
        }
        let mut entry = vec![("why".to_string(), Json::from(w.why.as_str()))];
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            eprintln!("running {} ({key}) ...", w.name);
            let run = match spawn_run(&w.name, opts, trace) {
                Ok(run) => run,
                Err(message) => {
                    eprintln!("error: {message}");
                    ok = false;
                    continue;
                }
            };
            let correct = run.get("correct").and_then(Json::as_bool) == Some(true);
            ok &= correct;
            println!(
                "\n== {} [{key}] {} — attempted {} failed {} passes {}",
                w.name,
                if correct { "correct" } else { "INCORRECT" },
                run.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                run.get("failed").and_then(Json::as_u64).unwrap_or(0),
                run.get("detail")
                    .and_then(|d| d.get("passes"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            );
            if !trace {
                println!("   {}", w.why);
            }
            print_run(s.metrics(trace), &run, trace);
            entry.push((key.to_string(), run));
        }
        runs.push((w.name.clone(), Json::Obj(entry)));
    }
    let set = Json::obj([
        ("schema", Json::from(1u64)),
        (
            "statements",
            Json::Arr(STATEMENTS.iter().map(|s| Json::from(*s)).collect()),
        ),
        ("provenance", provenance),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::from(opts.smoke)),
        ("workloads", Json::Obj(runs)),
    ]);
    let path = opts.out_dir.join(file);
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, set.to_string_pretty() + "\n"));
    match written {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            ok = false;
        }
    }
    if !ok {
        println!("SOME OUTPUT CHECKS FAILED");
    }
    ok.then_some(set)
}

fn metric_of(set: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .as_f64()
}

/// One way run set `b` falls short of run set `a`.
#[derive(Clone, Debug, PartialEq)]
pub struct Breach {
    /// The workload it was seen on.
    pub workload: String,
    /// The metric.
    pub metric: String,
    /// A host-time or memory metric beyond its bound, which the host's
    /// noise alone can cause; the other kind (an exact count that
    /// differs, a missing metric) cannot be noise.
    pub by_bound: bool,
    /// The line to print.
    pub message: String,
}

/// Compares run set `b` with run set `a`, metric by metric: an
/// end-to-end metric may not be worse in `b` by more than its bound (as
/// a share of `a`'s value), and no exact count may differ at all.
/// Only the workloads in `only` are compared, when it is given.
pub fn check(a: &Json, b: &Json, only: Option<&BTreeSet<String>>) -> Vec<Breach> {
    let s = spec();
    let mut breaches = Vec::new();
    for w in &s.workloads {
        if only.is_some_and(|set| !set.contains(&w.name)) {
            continue;
        }
        let mut breach = |def: &MetricDef, by_bound: bool, message: String| {
            breaches.push(Breach {
                workload: w.name.clone(),
                metric: def.name.clone(),
                by_bound,
                message: format!("{}: {message}", w.name),
            });
        };
        for (section, defs) in [("end_to_end", &s.end_to_end), ("per_layer", &s.per_layer)] {
            for def in defs {
                let (Some(va), Some(vb)) = (
                    metric_of(a, &w.name, section, &def.name),
                    metric_of(b, &w.name, section, &def.name),
                ) else {
                    breach(
                        def,
                        false,
                        format!("{} is missing from a run set", def.name),
                    );
                    continue;
                };
                if EXACT.contains(&def.name.as_str()) {
                    if va != vb {
                        breach(
                            def,
                            false,
                            format!("exact {} differs: {va} vs {vb}", def.name),
                        );
                    }
                    continue;
                }
                let Some(bound) = def.bound else { continue };
                let worse_by = if def.higher_is_better {
                    va - vb
                } else {
                    vb - va
                };
                let share = worse_by / va.abs();
                if share > bound {
                    let message = format!(
                        "{} worse by {:.1}% (bound {:.1}%): {} -> {} {}",
                        def.name,
                        100.0 * share,
                        100.0 * bound,
                        format_value(va),
                        format_value(vb),
                        def.unit
                    );
                    breach(def, true, message);
                }
            }
        }
    }
    breaches
}

fn report_breaches(breaches: &[Breach]) -> bool {
    for b in breaches {
        println!("BREACH {}", b.message);
    }
    if breaches.is_empty() {
        println!(
            "check passed: every end-to-end metric within its bound, every exact count identical"
        );
    }
    breaches.is_empty()
}

/// `--check A.json B.json`.
pub fn check_files(a: &Path, b: &Path) -> bool {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        bow_util::parse_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => report_breaches(&check(&a, &b, None)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            false
        }
    }
}

/// Both directions of [`check`].
fn disagreements(a: &Json, b: &Json, only: Option<&BTreeSet<String>>) -> Vec<Breach> {
    let mut breaches = check(a, b, only);
    breaches.extend(check(b, a, only));
    breaches
}

/// `--selfcheck`: two run sets of the same commit must agree, in both
/// directions. A run set is one run per workload, and a shared host can
/// slow a whole run by more than any bound, so a metric beyond its bound
/// counts only if it is beyond it again when the workload is measured a
/// second time in both sets. An exact count that differs counts at once.
pub fn selfcheck(opts: &RunOpts) -> bool {
    let (Some(a), Some(b)) = (
        all(opts, "selfcheck_a.json", None),
        all(opts, "selfcheck_b.json", None),
    ) else {
        return false;
    };
    let mut breaches = disagreements(&a, &b, None);
    let disputed: BTreeSet<String> = breaches
        .iter()
        .filter(|b| b.by_bound)
        .map(|b| b.workload.clone())
        .collect();
    if !disputed.is_empty() {
        for b in breaches.iter().filter(|b| b.by_bound) {
            println!("to be confirmed: {}", b.message);
        }
        let (Some(a2), Some(b2)) = (
            all(opts, "selfcheck_a2.json", Some(&disputed)),
            all(opts, "selfcheck_b2.json", Some(&disputed)),
        ) else {
            return false;
        };
        let again = disagreements(&a2, &b2, Some(&disputed));
        breaches.retain(|b| {
            !b.by_bound
                || again
                    .iter()
                    .any(|x| x.workload == b.workload && x.metric == b.metric)
        });
        breaches.extend(again.into_iter().filter(|x| !x.by_bound));
    }
    report_breaches(&breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with(workload: &str, section: &str, name: &str, value: f64) -> Json {
        // A full set where everything reads 1.0 except one metric.
        let s = spec();
        let runs = s
            .workloads
            .iter()
            .map(|w| {
                let section_json = |key: &str, defs: &[MetricDef]| {
                    let metrics = defs
                        .iter()
                        .map(|d| {
                            let v = if w.name == workload && key == section && d.name == name {
                                value
                            } else {
                                1.0
                            };
                            (d.name.clone(), Json::Num(v))
                        })
                        .collect();
                    Json::obj([("metrics", Json::Obj(metrics))])
                };
                (
                    w.name.clone(),
                    Json::obj([
                        ("end_to_end", section_json("end_to_end", &s.end_to_end)),
                        ("per_layer", section_json("per_layer", &s.per_layer)),
                    ]),
                )
            })
            .collect();
        Json::obj([("workloads", Json::Obj(runs))])
    }

    #[test]
    fn check_applies_direction_and_bound() {
        let bound_of = |name: &str| {
            let defs = &spec().end_to_end;
            let def = defs.iter().find(|m| m.name == name).expect("in contract");
            def.bound.expect("a bound")
        };
        let base = set_with("fig_pascal", "end_to_end", "wall_s", 1.0);
        assert!(check(&base, &base, None).is_empty());
        // wall_s: lower is better.
        let b = bound_of("wall_s");
        let slower = set_with("fig_pascal", "end_to_end", "wall_s", 1.0 + b + 0.01);
        let faster = set_with("fig_pascal", "end_to_end", "wall_s", 0.5);
        let within = set_with("fig_pascal", "end_to_end", "wall_s", 1.0 + b - 0.01);
        let breaches = check(&base, &slower, None);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0]
            .message
            .starts_with("fig_pascal: wall_s worse by "));
        assert!(breaches[0].by_bound);
        assert!(check(&base, &faster, None).is_empty());
        assert!(check(&base, &within, None).is_empty());
        // ops_per_s: higher is better.
        let b = bound_of("ops_per_s");
        let fewer = set_with("server_mix", "end_to_end", "ops_per_s", 1.0 - b - 0.01);
        let more = set_with("server_mix", "end_to_end", "ops_per_s", 2.0);
        assert_eq!(check(&base, &fewer, None).len(), 1);
        assert!(check(&base, &more, None).is_empty());
    }

    #[test]
    fn check_rejects_any_exact_difference_and_ignores_unbounded_timings() {
        let base = set_with("fig_modern", "per_layer", "sim.cycles", 1.0);
        let moved = set_with("fig_modern", "per_layer", "sim.cycles", 1.000001);
        let breaches = check(&base, &moved, None);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0].message.contains("exact sim.cycles differs"));
        assert!(!breaches[0].by_bound);
        let others: BTreeSet<String> = ["fig_pascal".to_string()].into();
        assert!(check(&base, &moved, Some(&others)).is_empty());
        let gain = set_with("fig_modern", "end_to_end", "bowwr_ipc_gain_pct", 1.0000001);
        assert_eq!(check(&base, &gain, None).len(), 1);
        let layer = set_with("fig_modern", "per_layer", "sim.run_with_s", 9.0);
        assert!(check(&base, &layer, None).is_empty());
        // A missing workload is a breach, not a pass.
        let empty = Json::obj([("workloads", Json::Obj(Vec::new()))]);
        assert!(!check(&base, &empty, None).is_empty());
    }

    #[test]
    fn unmeasured_and_plain_values_format_readably() {
        assert_eq!(format_value(NOT_MEASURED), "n/a");
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(12345.678), "12345.7");
        assert_eq!(format_value(5.88123), "5.8812");
        assert_eq!(format_value(0.000123), "0.000123");
    }
}
