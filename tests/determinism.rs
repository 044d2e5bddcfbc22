//! Full-chip and sanitizer pins.
//!
//! * The seven multi-block kernels of the benchmark's `chip_*` workloads
//!   run on the full 56-SM TITAN X, check against their host references
//!   and match pinned [`SimStats::fingerprint`]s: the regime (block
//!   dispatch over many SMs, most of them idle, stores crossing SMs) the
//!   2-SM scaled model the golden tables use never reaches.
//! * The race sanitizer's findings: `bfs` is the one benchmark it flags,
//!   pinned against a golden snapshot (`BOW_BLESS=1` to re-bless), and a
//!   plain run carries no report.
//!
//! [`SimStats::fingerprint`]: bow_sim::SimStats::fingerprint

#[path = "../crates/bow/tests/common/mod.rs"]
mod common;

use bow::experiment::ConfigBuilder;
use bow::prelude::*;
use bow::suite::Suite;
use std::fmt::Write as _;

/// The kernels of the benchmark's `chip_serial` / `chip_threaded`.
const FULL_CHIP_KERNELS: [&str; 7] = [
    "lps",
    "wp",
    "backprop",
    "gaussian",
    "srad",
    "squeezenet",
    "vectoradd",
];

/// `core/kernel fingerprint` under bow-wr iw3 on `GpuModel::TitanX` at
/// `Scale::Test`.
const FULL_CHIP_PINS: &str = "\
pascal/lps bbbd7bb346e70f43\n\
pascal/wp 0433eceab7fea217\n\
pascal/backprop bf429601ada5e940\n\
pascal/gaussian 83dc9bb58ab2dc32\n\
pascal/srad 838abffbe96c61f4\n\
pascal/squeezenet b00008f4b2d5a6a0\n\
pascal/vectoradd 3dd06e1fce5a7b38\n\
modern/lps abbcabcc069cc1aa\n\
modern/wp d7f5e292273db08b\n\
modern/backprop 1de860e183d1dbe5\n\
modern/gaussian f768ab2bf238c3b6\n\
modern/srad 08ddb4548ce94354\n\
modern/squeezenet 10d12d85789566a5\n\
modern/vectoradd 74e8727b9a077121\n\
";

#[test]
fn full_chip_kernels_check_and_match_pinned_fingerprints() {
    let mut got = String::new();
    for core in CoreModelKind::ALL {
        let config = ConfigBuilder::bow_wr(3)
            .model(GpuModel::TitanX)
            .core_model(core)
            .build();
        assert_eq!(config.gpu.num_sms, 56);
        let sweep = Suite::over(
            FULL_CHIP_KERNELS
                .iter()
                .map(|n| bow::workloads::by_name(n, Scale::Test).expect("suite benchmark"))
                .collect(),
        )
        .config(config)
        .progress(false)
        .run();
        sweep.assert_checked();
        for r in sweep.all_records() {
            let fingerprint = r.outcome.result.stats.fingerprint();
            writeln!(got, "{}/{} {fingerprint:016x}", core.name(), r.benchmark)
                .expect("write to String");
        }
    }
    assert_eq!(got, FULL_CHIP_PINS, "full-chip fingerprints moved");
}

/// Runs `bench` under BOW-WR IW3 with the sanitizer attached and returns
/// the rendered report.
fn sanitizer_workload_report(bench: &str, core: CoreModelKind) -> String {
    let b = bow::workloads::by_name(bench, Scale::Test).expect("known benchmark");
    let mut cfg = ConfigBuilder::bow_wr(3).core_model(core).build();
    cfg.gpu.sanitize = true;
    let rec = bow::experiment::run(b.as_ref(), cfg);
    rec.outcome
        .result
        .sanitizer
        .expect("sanitize flag attaches the probe")
        .render()
}

#[test]
fn sanitizer_off_leaves_no_report() {
    // The flag is the only thing that attaches the probe: a plain run
    // must not pay for (or expose) shadow state.
    let b = bow::workloads::by_name("bfs", Scale::Test).expect("known benchmark");
    let rec = bow::experiment::run(b.as_ref(), ConfigBuilder::bow_wr(3).build());
    assert!(rec.outcome.result.sanitizer.is_none());
}

#[test]
fn bfs_is_the_only_workload_the_sanitizer_flags() {
    // The suite-wide sweep the golden pin rests on: every other
    // benchmark is sanitizer-clean. A new finding elsewhere is either a
    // real workload hazard or a sanitizer false positive — both need a
    // human decision, not a silent bless.
    let mut flagged: Vec<String> = Vec::new();
    for b in suite(Scale::Test) {
        let report = sanitizer_workload_report(b.name(), CoreModelKind::Pascal);
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
        got.push_str(&sanitizer_workload_report("bfs", core));
    }
    common::check_golden("sanitizer_bfs.txt", &got);
}
