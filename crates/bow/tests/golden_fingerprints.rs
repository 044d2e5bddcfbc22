//! Golden-fingerprint regression suite: the {pascal, modern} × {stack,
//! barrier} scenario matrix.
//!
//! Runs every benchmark of the Table III suite under the four collector
//! designs the paper compares (baseline, BOW, BOW-WR, RFC) at test scale
//! and pins a [`SimStats::fingerprint`] digest per cell against a
//! checked-in table, so any refactor of the SM pipeline is provably
//! behavior-preserving: the digest covers every counter the figures
//! consume, and the comparison is byte-identical.
//!
//! Each core model has a table of its own ([`TABLES`]), pinned under stack
//! divergence; the two are independent, so a change to either core is
//! caught without re-blessing the other. The barrier scenarios — every
//! kernel through `lower_to_barriers`, no SIMT stack anywhere — pin no
//! table: stack and barrier reconvergence were measured to differ in *no*
//! counter, so each barrier cell must equal the pinned stack row of the
//! same workload × collector × core. A barrier-model change that moves a
//! counter fails there; an intentional stack-model change re-blesses the
//! stack tables and the barrier rows follow.
//!
//! To re-bless after an *intentional* model change:
//!
//! ```text
//! BOW_BLESS=1 cargo test -p bow --test golden_fingerprints
//! ```
//!
//! [`SimStats::fingerprint`]: bow_sim::SimStats::fingerprint

mod common;

use bow::experiment::{Config, ConfigBuilder};
use bow::prelude::{CoreModelKind, DivergenceModel};
use bow::suite::{Suite, SweepResult};
use bow_workloads::Scale;
use common::{assert_golden, check_golden};
use std::fmt::Write as _;

/// Each core's pinned table and its header, which is part of the pinned
/// bytes (the modern one still names the test target it was blessed from).
const TABLES: [(CoreModelKind, &str, &str); 2] = [
    (
        CoreModelKind::Pascal,
        "fingerprints.txt",
        "# SimStats fingerprints: 15 workloads x 4 collector configs (Scale::Test).\n\
         # Regenerate with: BOW_BLESS=1 cargo test -p bow --test golden_fingerprints\n",
    ),
    (
        CoreModelKind::Modern,
        "fingerprints_modern.txt",
        "# SimStats fingerprints: 15 workloads x 4 collector configs \
         (Scale::Test, core_model=modern).\n\
         # Regenerate with: BOW_BLESS=1 cargo test -p bow --test golden_fingerprints_modern\n",
    ),
];

/// The four columns the acceptance criteria pin, in one scenario.
fn configs(core: CoreModelKind, divergence: DivergenceModel) -> [Config; 4] {
    [
        ConfigBuilder::baseline(),
        ConfigBuilder::bow(3),
        ConfigBuilder::bow_wr(3),
        ConfigBuilder::rfc(),
    ]
    .map(|b| b.core_model(core).divergence(divergence).build())
}

/// The sweep as golden rows: one `benchmark/config hex` line per cell,
/// configs in column order, benchmarks in suite order.
fn rows(sweep: &SweepResult) -> String {
    sweep.assert_checked();
    let mut out = String::new();
    for rec in sweep.all_records() {
        let fingerprint = rec.outcome.result.stats.fingerprint();
        writeln!(out, "{}/{} {fingerprint:016x}", rec.benchmark, rec.label)
            .expect("write to String");
    }
    out
}

/// The whole suite at test scale in one scenario, as golden rows.
fn suite_rows(core: CoreModelKind, divergence: DivergenceModel) -> String {
    let suite = Suite::new(Scale::Test).configs(configs(core, divergence));
    rows(&suite.progress(false).run())
}

fn pin_stack_table((core, file, header): (CoreModelKind, &str, &str)) {
    let rows = suite_rows(core, DivergenceModel::Stack);
    check_golden(file, &format!("{header}{rows}"));
}

#[test]
fn stats_fingerprints_match_goldens() {
    pin_stack_table(TABLES[0]);
}

#[test]
fn modern_stats_fingerprints_match_goldens() {
    pin_stack_table(TABLES[1]);
}

#[test]
fn barrier_stats_fingerprints_match_goldens() {
    let marker = format!("+{}", DivergenceModel::Barrier.name());
    for (core, file, header) in TABLES {
        let rows = suite_rows(core, DivergenceModel::Barrier);
        assert_eq!(rows.lines().count(), 15 * 4, "suite shape changed");
        assert_golden(file, &format!("{header}{}", rows.replace(&marker, "")));
    }
}

/// Every label in the barrier scenarios must carry the `+barrier` marker —
/// they are worthless if a config silently fell back to the stack.
#[test]
fn barrier_tier_labels_carry_the_model_marker() {
    for core in CoreModelKind::ALL {
        for config in configs(core, DivergenceModel::Barrier) {
            assert!(config.label.contains("+barrier"), "{}", config.label);
        }
    }
}

/// `bfs` at paper scale is the one cell in the repository whose counts
/// depend on *when* one SM's global stores reach another (its frontier
/// race across SMs is value-convergent, not count-convergent), so it is
/// what pins the device loop's store-visibility rule — the test-scale
/// tables above hold with the rule removed.
#[test]
fn bfs_paper_scale_fingerprints_match_goldens() {
    let mut got = String::from(
        "# SimStats fingerprints: bfs at Scale::Paper x 4 collector configs x 2 cores.\n\
         # Regenerate with: BOW_BLESS=1 cargo test -p bow --test golden_fingerprints\n",
    );
    for core in CoreModelKind::ALL {
        let bfs = bow::workloads::by_name("bfs", Scale::Paper).expect("suite benchmark");
        let suite = Suite::over(vec![bfs]).configs(configs(core, DivergenceModel::Stack));
        got.push_str(&rows(&suite.progress(false).run()));
    }
    check_golden("fingerprints_bfs_paper.txt", &got);
}
