//! Golden-fingerprint regression suite.
//!
//! Runs every benchmark of the Table III suite under the four collector
//! designs the paper compares (baseline, BOW, BOW-WR, RFC) at test scale
//! and pins a [`SimStats::fingerprint`] digest per cell against a
//! checked-in table. The table was captured at the pre-stage-graph
//! commit, so any refactor of the SM pipeline is provably
//! behavior-preserving: the digest covers every counter the figures
//! consume, and the comparison is byte-identical.
//!
//! To re-bless after an *intentional* model change:
//!
//! ```text
//! BOW_BLESS=1 cargo test -p bow --test golden_fingerprints
//! ```
//!
//! [`SimStats::fingerprint`]: bow_sim::SimStats::fingerprint

use bow::experiment::ConfigBuilder;
use bow::prelude::CoreModelKind;
use bow::suite::Suite;
use bow_workloads::Scale;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The four columns the acceptance criteria pin.
fn designs() -> [ConfigBuilder; 4] {
    [
        ConfigBuilder::baseline(),
        ConfigBuilder::bow(3),
        ConfigBuilder::bow_wr(3),
        ConfigBuilder::rfc(),
    ]
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

/// Appends the sweep to a golden table: one `benchmark/config hex` line
/// per cell, configs in column order, benchmarks in suite order.
fn push_rows(out: &mut String, sweep: &bow::suite::SweepResult) {
    for rec in sweep.all_records() {
        writeln!(
            out,
            "{}/{} {:016x}",
            rec.benchmark,
            rec.label,
            rec.outcome.result.stats.fingerprint()
        )
        .expect("write to String");
    }
}

/// Compares `got` with the table at `path`, or writes it under
/// `BOW_BLESS=1`.
fn check_golden(path: &std::path::Path, got: &str) {
    if std::env::var_os("BOW_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(path, got).expect("write goldens");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e} (bless with BOW_BLESS=1)", path.display()));
    if got != want {
        let mut diff = String::new();
        for (g, w) in got.lines().zip(want.lines()) {
            if g != w {
                writeln!(diff, "  got  {g}\n  want {w}").expect("write to String");
            }
        }
        panic!(
            "stats fingerprints diverged from {} — the pipeline is no longer \
             behavior-preserving (or an intentional change needs BOW_BLESS=1):\n{diff}",
            path.display()
        );
    }
}

#[test]
fn stats_fingerprints_match_goldens() {
    let sweep = Suite::new(Scale::Test)
        .configs(designs().map(ConfigBuilder::build))
        .progress(false)
        .run();
    sweep.assert_checked();
    let mut got = String::from(
        "# SimStats fingerprints: 15 workloads x 4 collector configs (Scale::Test).\n\
         # Regenerate with: BOW_BLESS=1 cargo test -p bow --test golden_fingerprints\n",
    );
    push_rows(&mut got, &sweep);
    check_golden(&golden_path("fingerprints.txt"), &got);
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
        let sweep = Suite::over(vec![bfs])
            .configs(designs().map(|b| b.core_model(core).build()))
            .progress(false)
            .run();
        sweep.assert_checked();
        push_rows(&mut got, &sweep);
    }
    check_golden(&golden_path("fingerprints_bfs_paper.txt"), &got);
}
