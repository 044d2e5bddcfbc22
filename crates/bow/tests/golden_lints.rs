//! Golden lint-report snapshots.
//!
//! Annotates every benchmark of the Table III suite with the §IV-B hint
//! pass at the repo-default window (IW3) and pins the full rendered
//! [`LintReport`] — every diagnostic, note and register-pressure row —
//! against a checked-in snapshot. Any change to a lint pass, the hint
//! verifier, the hint producer or a workload kernel shows up as a
//! readable diff instead of a silent behavior change.
//!
//! The suite must also stay *clean*: no errors and no warnings on any
//! workload (advisories such as `B003`/`B012` are allowed), which is the
//! same gate CI applies through `bow-cli lint --all-workloads
//! --deny-warnings`.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! BOW_BLESS=1 cargo test -p bow --test golden_lints
//! ```
//!
//! [`LintReport`]: bow_compiler::LintReport

mod common;

use bow_compiler::{annotate, lint_kernel, LintOptions};
use bow_workloads::{suite, Scale};
use std::fmt::Write as _;

const WINDOW: u32 = 3;

/// Renders the whole-suite snapshot: each kernel's rustc-style report in
/// suite order, separated by a `== name ==` header.
fn render() -> String {
    let mut out = String::from(
        "# Lint reports: 15 annotated workloads at IW3 (Scale::Test).\n\
         # Regenerate with: BOW_BLESS=1 cargo test -p bow --test golden_lints\n",
    );
    let opts = LintOptions {
        window: WINDOW,
        check_hints: true,
        ..LintOptions::default()
    };
    for b in suite(Scale::Test) {
        let kernel = annotate(&b.kernel(), WINDOW).0;
        let report = lint_kernel(&kernel, &opts);
        assert!(
            report.passes_deny_warnings(),
            "{}: workload suite must lint clean (got {} error(s), {} warning(s))",
            b.name(),
            report.errors(),
            report.warnings()
        );
        writeln!(out, "\n== {} ==", b.name()).expect("write to String");
        out.push_str(&report.render(&kernel, None));
    }
    out
}

#[test]
fn lint_reports_match_goldens() {
    // A mismatch means a lint pass, the hint verifier or a workload changed.
    common::check_golden("lints.txt", &render());
}
