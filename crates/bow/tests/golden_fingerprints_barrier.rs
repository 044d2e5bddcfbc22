//! Golden-fingerprint regression suite for the convergence-barrier
//! divergence model.
//!
//! Same shape as `golden_fingerprints.rs` — every Table III benchmark
//! under the four collector designs at test scale — but with
//! `divergence = barrier` on *both* core models: every kernel runs
//! through `lower_to_barriers`, so the SIMT stack is gone and
//! reconvergence rides the per-warp convergence-barrier registers
//! (BSSY arms, BSYNC parks-and-joins).
//!
//! This tier pins no table of its own. ROADMAP item 3(b) asked which
//! counters make stack and barrier fingerprints differ; the measured
//! answer is *none*: all 120 rows of the barrier table this file used to
//! keep were byte-identical to the 60 rows of `fingerprints.txt` plus the
//! 60 of `fingerprints_modern.txt` once the `+barrier` suffix was
//! stripped, and [`SimStats::fingerprint`] folds every counter. So the
//! assertion is exactly that: each barrier cell equals the pinned *stack*
//! row of the same workload × collector × core. A barrier-model change
//! that moves any counter fails here; an intentional stack-model change
//! re-blesses the stack tables (`golden_fingerprints{,_modern}.rs`) and
//! this tier follows.
//!
//! [`SimStats::fingerprint`]: bow::prelude::SimStats::fingerprint

use bow::experiment::{Config, ConfigBuilder};
use bow::prelude::{CoreModelKind, DivergenceModel};
use bow::suite::Suite;
use bow_workloads::Scale;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The four collector columns under barrier divergence, on one core.
fn configs_on(core: CoreModelKind) -> Vec<Config> {
    let with = |b: ConfigBuilder| {
        b.core_model(core)
            .divergence(DivergenceModel::Barrier)
            .build()
    };
    vec![
        with(ConfigBuilder::baseline()),
        with(ConfigBuilder::bow(3)),
        with(ConfigBuilder::bow_wr(3)),
        with(ConfigBuilder::rfc()),
    ]
}

/// Both core models: the barrier machinery lives in the warp scheduler,
/// so it has to hold up under the Pascal pipeline *and* the sub-core
/// modern pipeline with its control-bit interlock.
fn all_configs() -> Vec<Config> {
    CoreModelKind::ALL
        .into_iter()
        .flat_map(configs_on)
        .collect()
}

/// The pinned stack-divergence rows of both cores, `benchmark/label` to
/// fingerprint.
fn stack_goldens() -> HashMap<String, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut rows = HashMap::new();
    for table in ["fingerprints.txt", "fingerprints_modern.txt"] {
        let path = dir.join(table);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (cell, hex) = line.rsplit_once(' ').expect("`benchmark/label hex` row");
            rows.insert(cell.to_string(), hex.to_string());
        }
    }
    rows
}

#[test]
fn barrier_stats_fingerprints_match_goldens() {
    let sweep = Suite::new(Scale::Test)
        .configs(all_configs())
        .progress(false)
        .run();
    sweep.assert_checked();
    let stack = stack_goldens();
    let suffix = format!("+{}", DivergenceModel::Barrier.name());
    let mut diff = String::new();
    let mut cells = 0;
    for rec in sweep.all_records() {
        let stack_cell = format!("{}/{}", rec.benchmark, rec.label.replace(&suffix, ""));
        let want = stack
            .get(&stack_cell)
            .unwrap_or_else(|| panic!("no pinned stack row for {stack_cell}"));
        let got = format!("{:016x}", rec.outcome.result.stats.fingerprint());
        if got != *want {
            writeln!(
                diff,
                "  {}/{}: got {got}, stack row {want}",
                rec.benchmark, rec.label
            )
            .expect("write to String");
        }
        cells += 1;
    }
    assert_eq!(cells, 15 * 4 * 2, "suite shape changed");
    assert!(
        diff.is_empty(),
        "barrier-divergence fingerprints no longer equal their pinned stack \
         rows — stack and barrier reconvergence now differ in some counter:\n{diff}"
    );
}

/// Every label in the barrier tier must carry the `+barrier` marker —
/// the tier is worthless if a config silently fell back to the stack.
#[test]
fn barrier_tier_labels_carry_the_model_marker() {
    for config in all_configs() {
        assert!(
            config.label.contains("+barrier"),
            "{}: barrier config label must say so",
            config.label
        );
    }
}
