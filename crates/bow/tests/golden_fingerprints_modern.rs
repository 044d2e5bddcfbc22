//! Golden-fingerprint regression suite for the modern (post-Volta) core.
//!
//! Same shape as `golden_fingerprints.rs` — every Table III benchmark
//! under the four collector designs at test scale — but with
//! `core_model = modern`, pinning the sub-core pipeline, the control-bit
//! interlock (every kernel runs through `emit_ctrl`) and the uniform
//! register file against a checked-in table. The Pascal table is
//! untouched: the two tiers are independent, so a change to either core
//! model is caught without re-blessing the other.
//!
//! To re-bless after an *intentional* modern-core change:
//!
//! ```text
//! BOW_BLESS=1 cargo test -p bow --test golden_fingerprints_modern
//! ```

use bow::experiment::{Config, ConfigBuilder};
use bow::prelude::CoreModelKind;
use bow::suite::Suite;
use bow_workloads::Scale;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The four collector columns, all on the modern core.
fn configs() -> Vec<Config> {
    vec![
        ConfigBuilder::baseline()
            .core_model(CoreModelKind::Modern)
            .build(),
        ConfigBuilder::bow(3)
            .core_model(CoreModelKind::Modern)
            .build(),
        ConfigBuilder::bow_wr(3)
            .core_model(CoreModelKind::Modern)
            .build(),
        ConfigBuilder::rfc()
            .core_model(CoreModelKind::Modern)
            .build(),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("fingerprints_modern.txt")
}

/// Renders the sweep as the golden table: one `benchmark/config hex`
/// line per cell, configs in column order, benchmarks in suite order.
fn render(sweep: &bow::suite::SweepResult) -> String {
    let mut out = String::from(
        "# SimStats fingerprints: 15 workloads x 4 collector configs \
         (Scale::Test, core_model=modern).\n\
         # Regenerate with: BOW_BLESS=1 cargo test -p bow --test golden_fingerprints_modern\n",
    );
    for config in configs() {
        let records = sweep
            .records(&config.label)
            .unwrap_or_else(|| panic!("sweep has a {:?} row", config.label));
        for rec in records {
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
    out
}

#[test]
fn modern_stats_fingerprints_match_goldens() {
    let sweep = Suite::new(Scale::Test)
        .configs(configs())
        .progress(false)
        .run();
    sweep.assert_checked();
    let got = render(&sweep);
    let path = golden_path();
    if std::env::var_os("BOW_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write goldens");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (bless with BOW_BLESS=1)", path.display()));
    if got != want {
        let mut diff = String::new();
        for (g, w) in got.lines().zip(want.lines()) {
            if g != w {
                writeln!(diff, "  got  {g}\n  want {w}").expect("write to String");
            }
        }
        panic!(
            "modern-core fingerprints diverged from {} — the modern pipeline \
             changed (an intentional change needs BOW_BLESS=1):\n{diff}",
            path.display()
        );
    }
}
