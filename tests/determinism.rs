//! Determinism suite for the windowed parallel execution engine.
//!
//! The engine in `bow_sim::parallel` shards a launch's SM pipelines
//! across a worker pool, but its windowed commit protocol is designed so
//! that `sim_threads` is a *pure execution knob*: results are
//! byte-identical at any thread count, on any host. These tests pin that
//! contract at the public-API level, across the whole Table III suite:
//!
//! * every workload × every collector design produces the same
//!   [`SimStats::fingerprint`] under `sim_threads` ∈ {1, 2, 8};
//! * the architectural oracle (memory mode, and per-instruction lockstep
//!   for race-free kernels) still agrees with the pipeline when the
//!   pipeline runs threaded;
//! * the race sanitizer's report renders byte-identically under every
//!   engine — serial, windowed at any worker count, whole-budget — and
//!   `bfs` (the one benchmark with real findings) is pinned against a
//!   golden snapshot (`BOW_BLESS=1` to re-bless).
//!
//! [`SimStats::fingerprint`]: bow_sim::SimStats::fingerprint

use bow::corpus::adversarial;
use bow::experiment::{Config, ConfigBuilder};
use bow::prelude::*;
use bow::sim::OracleCheck;
use bow::suite::Suite;
use bow_isa::fuzz::{FuzzKernel, PARAMS};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The four collector designs the golden suite pins, on a chosen core.
fn configs_on(threads: u32, core: CoreModelKind) -> Vec<Config> {
    vec![
        ConfigBuilder::baseline()
            .sim_threads(threads)
            .core_model(core)
            .build(),
        ConfigBuilder::bow(3)
            .sim_threads(threads)
            .core_model(core)
            .build(),
        ConfigBuilder::bow_wr(3)
            .sim_threads(threads)
            .core_model(core)
            .build(),
        ConfigBuilder::rfc()
            .sim_threads(threads)
            .core_model(core)
            .build(),
    ]
}

/// One fingerprint line per (benchmark × config) cell, in sweep order.
fn fingerprint_table(threads: u32) -> Vec<String> {
    fingerprint_table_on(threads, CoreModelKind::Pascal)
}

fn fingerprint_table_on(threads: u32, core: CoreModelKind) -> Vec<String> {
    let sweep = Suite::new(Scale::Test)
        .configs(configs_on(threads, core))
        .progress(false)
        .run();
    sweep.assert_checked();
    sweep
        .rows
        .iter()
        .flat_map(|row| {
            row.records.iter().map(|r| {
                format!(
                    "{}/{} {:016x}",
                    r.benchmark,
                    r.label,
                    r.outcome.result.stats.fingerprint()
                )
            })
        })
        .collect()
}

/// The headline contract: the full suite's stats fingerprints are
/// byte-identical for `sim_threads` ∈ {1, 2, 8}. 1 exercises the inline
/// host, 2 a genuine shard split, and 8 more workers than the scaled
/// model has SMs (workers own uneven shard sizes, some empty).
#[test]
fn suite_fingerprints_invariant_under_thread_count() {
    let serial = fingerprint_table(1);
    assert_eq!(serial.len(), 15 * 4, "suite shape changed");
    for threads in [2u32, 8] {
        let threaded = fingerprint_table(threads);
        for (s, t) in serial.iter().zip(&threaded) {
            assert_eq!(s, t, "cell diverged at sim_threads={threads}");
        }
        assert_eq!(serial.len(), threaded.len());
    }
}

/// The same contract on the modern core: sub-core state, the control-bit
/// interlock and the uniform register file all live inside one SM's
/// pipeline, so the windowed engine's shard-commit protocol must keep
/// `sim_threads` a pure execution knob there too.
#[test]
fn modern_suite_fingerprints_invariant_under_thread_count() {
    let serial = fingerprint_table_on(1, CoreModelKind::Modern);
    assert_eq!(serial.len(), 15 * 4, "suite shape changed");
    for threads in [2u32, 8] {
        let threaded = fingerprint_table_on(threads, CoreModelKind::Modern);
        for (s, t) in serial.iter().zip(&threaded) {
            assert_eq!(s, t, "modern cell diverged at sim_threads={threads}");
        }
        assert_eq!(serial.len(), threaded.len());
    }
}

/// The same contract under the convergence-barrier divergence model:
/// the per-warp barrier registers (arm/park/join) replace the SIMT
/// stack as the reconvergence bookkeeping, and that bookkeeping is
/// per-warp state inside one SM's pipeline, so the shard-commit
/// protocol must keep `sim_threads` a pure execution knob on both
/// cores there too.
#[test]
fn barrier_suite_fingerprints_invariant_under_thread_count() {
    for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
        let table = |threads: u32| {
            let with = |b: ConfigBuilder| {
                b.sim_threads(threads)
                    .core_model(core)
                    .divergence(DivergenceModel::Barrier)
                    .build()
            };
            let configs: Vec<Config> = vec![
                with(ConfigBuilder::baseline()),
                with(ConfigBuilder::bow(3)),
                with(ConfigBuilder::bow_wr(3)),
                with(ConfigBuilder::rfc()),
            ];
            let sweep = Suite::new(Scale::Test)
                .configs(configs)
                .progress(false)
                .run();
            sweep.assert_checked();
            sweep
                .rows
                .iter()
                .flat_map(|row| {
                    row.records.iter().map(|r| {
                        format!(
                            "{}/{} {:016x}",
                            r.benchmark,
                            r.label,
                            r.outcome.result.stats.fingerprint()
                        )
                    })
                })
                .collect::<Vec<_>>()
        };
        let serial = table(1);
        assert_eq!(serial.len(), 15 * 4, "suite shape changed");
        assert!(
            serial.iter().all(|line| line.contains("+barrier")),
            "every cell ran under the barrier model"
        );
        let threaded = table(8);
        for (s, t) in serial.iter().zip(&threaded) {
            assert_eq!(s, t, "{core:?} barrier cell diverged at sim_threads=8");
        }
        assert_eq!(serial.len(), threaded.len());
    }
}

/// The full chip: `GpuModel::TitanX` spreads each launch's blocks over 56
/// SMs, so at `sim_threads = 4` every worker owns a 14-SM shard and most
/// commit windows carry cross-shard traffic — the regime the 2-SM scaled
/// model above never reaches. (This is the one assertion the retired
/// `bench_throughput` binary made that nothing else did.)
#[test]
fn full_chip_fingerprints_invariant_under_thread_count() {
    for core in CoreModelKind::ALL {
        let table = |threads: u32| {
            let config = ConfigBuilder::bow_wr(3)
                .model(GpuModel::TitanX)
                .core_model(core)
                .sim_threads(threads)
                .build();
            assert_eq!(config.gpu.num_sms, 56);
            let sweep = Suite::over(
                ["vectoradd", "backprop", "bfs"]
                    .iter()
                    .map(|n| bow::workloads::by_name(n, Scale::Test).expect("suite benchmark"))
                    .collect(),
            )
            .config(config)
            .progress(false)
            .run();
            sweep.assert_checked();
            sweep
                .all_records()
                .map(|r| (r.benchmark.clone(), r.outcome.result.stats.fingerprint()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            table(1),
            table(4),
            "{}: full-chip cell diverged at sim_threads=4",
            core.name()
        );
    }
}

/// The architectural oracle runs under the threaded engine too (the
/// checked launch routes through the same windowed dispatcher), so the
/// pipeline == oracle == host-reference triangle must close with the
/// pipeline sharded across workers.
#[test]
fn oracle_crosscheck_passes_under_threaded_engine() {
    for bench in suite(Scale::Test) {
        let mut cfg = GpuConfig::scaled(CollectorKind::bow_wr(3));
        cfg.oracle_check = OracleCheck::Memory;
        cfg.sim_threads = 8;
        let kernel = annotate(&bench.kernel(), 3).0;
        let mut gpu = Gpu::new(cfg);
        // An oracle/pipeline mismatch panics inside the launch.
        let outcome = bench.run_with(&mut gpu, &kernel);
        assert!(outcome.result.completed, "{}: watchdog fired", bench.name());
        if let Err(e) = outcome.checked {
            panic!("{}: host reference disagrees: {e}", bench.name());
        }
    }
}

/// Per-instruction lockstep is the strictest oracle mode; it must also
/// be schedule-independent under the threaded engine. `bfs` is excluded
/// for the same reason as in the serial cross-check: a benign cross-warp
/// race makes its intermediate register values schedule-dependent.
#[test]
fn lockstep_oracle_passes_under_threaded_engine() {
    for bench in suite(Scale::Test) {
        if bench.name() == "bfs" {
            continue;
        }
        let mut cfg = GpuConfig::scaled(CollectorKind::Baseline);
        cfg.oracle_check = OracleCheck::Lockstep;
        cfg.sim_threads = 4;
        let mut gpu = Gpu::new(cfg);
        let outcome = bench.run_with(&mut gpu, &bench.kernel());
        assert!(outcome.result.completed, "{}: watchdog fired", bench.name());
        if let Err(e) = outcome.checked {
            panic!("{}: host reference disagrees: {e}", bench.name());
        }
    }
}

/// Engine configurations the sanitizer must agree across: serial,
/// windowed at two worker counts, and the whole-budget windowed engine.
const SANITIZER_ENGINES: [u32; 4] = [1, 2, 8, 0];

/// Runs `bench` under BOW-WR IW3 with the sanitizer attached at the
/// given intra-run thread count and returns the rendered report.
fn sanitizer_workload_report(bench: &str, core: CoreModelKind, sim_threads: u32) -> String {
    let b = bow::workloads::by_name(bench, Scale::Test).expect("known benchmark");
    let mut cfg = ConfigBuilder::bow_wr(3).core_model(core).build();
    cfg.gpu.sanitize = true;
    cfg.gpu.sim_threads = sim_threads;
    let rec = bow::experiment::run(b.as_ref(), cfg);
    rec.outcome
        .result
        .sanitizer
        .expect("sanitize flag attaches the probe")
        .render()
}

/// Launches one adversarial kernel under the campaign configuration at
/// the given thread count and returns the rendered report.
fn sanitizer_adversarial_report(name: &str, sim_threads: u32) -> String {
    let adv = adversarial::all()
        .into_iter()
        .find(|a| a.name == name)
        .unwrap_or_else(|| panic!("adversarial table has {name}"));
    let kernel = (adv.build)();
    let mut cfg = ConfigBuilder::bow_wr(3).sanitize(true).build().gpu;
    cfg.sim_threads = sim_threads;
    let mut gpu = Gpu::new(cfg);
    let result = gpu.launch(&kernel, FuzzKernel::dims(), &PARAMS);
    result
        .sanitizer
        .expect("sanitize flag attaches the probe")
        .render()
}

/// The sanitizer folds a per-SM event stream into shadow state, so its
/// report must not depend on how the engine schedules that stream. The
/// canonical ordering in `SanitizerReport` is what makes this hold.
#[test]
fn sanitizer_report_is_byte_identical_across_engines() {
    let serial = sanitizer_workload_report("bfs", CoreModelKind::Pascal, 1);
    assert!(!serial.is_empty(), "bfs report is non-trivial");
    for t in SANITIZER_ENGINES {
        assert_eq!(
            sanitizer_workload_report("bfs", CoreModelKind::Pascal, t),
            serial,
            "bfs report diverged at sim_threads {t}"
        );
    }
    for name in ["adv_b015_definite_race", "adv_b016_uninit_shared"] {
        let serial = sanitizer_adversarial_report(name, 1);
        assert!(!serial.is_empty(), "{name} report is non-trivial");
        for t in SANITIZER_ENGINES {
            assert_eq!(
                sanitizer_adversarial_report(name, t),
                serial,
                "{name} report diverged at sim_threads {t}"
            );
        }
    }
}

#[test]
fn sanitizer_off_leaves_no_report() {
    // The flag is the only thing that attaches the probe: a plain run
    // must not pay for (or expose) shadow state.
    let b = bow::workloads::by_name("bfs", Scale::Test).expect("known benchmark");
    let rec = bow::experiment::run(b.as_ref(), ConfigBuilder::bow_wr(3).build());
    assert!(rec.outcome.result.sanitizer.is_none());
}

fn sanitizer_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("sanitizer_bfs.txt")
}

#[test]
fn bfs_is_the_only_workload_the_sanitizer_flags() {
    // The suite-wide sweep the golden pin rests on: every other
    // benchmark is sanitizer-clean. A new finding elsewhere is either a
    // real workload hazard or a sanitizer false positive — both need a
    // human decision, not a silent bless.
    let mut flagged: Vec<String> = Vec::new();
    for b in suite(Scale::Test) {
        let report = sanitizer_workload_report(b.name(), CoreModelKind::Pascal, 1);
        if !report.is_empty() {
            flagged.push(b.name().to_string());
        }
    }
    assert_eq!(flagged, ["bfs"], "sanitizer-flagged workloads changed");
}

#[test]
fn bfs_sanitizer_findings_match_the_golden_pin() {
    let mut got = String::from(
        "# bfs sanitizer findings under bow-wr iw3, per core model (Scale::Test).\n\
         # Regenerate with: BOW_BLESS=1 cargo test -p bow --test determinism\n",
    );
    for core in CoreModelKind::ALL {
        writeln!(got, "== {} ==", core.name()).expect("write to String");
        got.push_str(&sanitizer_workload_report("bfs", core, 1));
    }
    let path = sanitizer_golden_path();
    if std::env::var_os("BOW_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write goldens");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (bless with BOW_BLESS=1)", path.display()));
    assert_eq!(
        got,
        want,
        "bfs sanitizer pin diverged from {} — an intentional model change \
         needs BOW_BLESS=1",
        path.display()
    );
}
