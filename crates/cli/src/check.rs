//! The checking commands: `fuzz` runs generated kernels against the
//! architectural oracle under every collector model, and `lint` runs the
//! static-analysis suite and the hint verifier over a kernel file or the
//! workload suite, audits the verifier itself (`--mutate`) or explains a
//! diagnostic code (`--explain`).

use crate::{err, Args, Subcommand};
use bow::error::BowError;
use bow::experiment::{render_table, CompilePlan};
use bow::fuzz::FuzzOptions;
use bow::prelude::*;
use bow::verdict::{Check, Finding, Verdict};
use std::fmt::Write as _;
use std::path::PathBuf;

/// `fuzz`: differential kernel fuzzing against the architectural oracle.
pub const FUZZ: Subcommand = Subcommand {
    name: "fuzz",
    synopsis: "  bow-cli fuzz [--cases N] [--seed S] [--jobs N] [--size N] [--out DIR] [--smoke]
               [--core-model] [--divergence]
",
    run: fuzz,
};

/// `lint`: the lint suite and hint verifier over a file or the suite, the
/// mutation sanitizer that audits the verifier, or a code's description.
pub const LINT: Subcommand = Subcommand {
    name: "lint",
    synopsis: "  bow-cli lint <file.s> [--window N] [--deny-warnings] [--json FILE]
              [--core-model] [--divergence]
  bow-cli lint --all-workloads [--window N] [--deny-warnings] [--json FILE]
              [--core-model] [--divergence]
  bow-cli lint --mutate [--smoke] [--jobs N] [--json FILE]
                [--divergence]
  bow-cli lint --explain [B0xx]
",
    run: lint,
};

fn fuzz(args: &Args) -> Result<String, BowError> {
    let gpu = args.config()?.gpu;
    let jobs = args.jobs()?;
    let defaults = if args.pins("--smoke", &["--cases", "--seed", "--size"])? {
        FuzzOptions::smoke()
    } else {
        FuzzOptions::default()
    };
    let report = bow::fuzz::run_fuzz(&FuzzOptions {
        cases: args.number("--cases")?.unwrap_or(defaults.cases),
        seed: args.number("--seed")?.unwrap_or(defaults.seed),
        jobs,
        size: args.number("--size")?.unwrap_or(defaults.size),
        out_dir: args.opt("--out").map_or(defaults.out_dir, PathBuf::from),
        core_model: gpu.core_model,
        divergence: gpu.divergence,
    });
    let summary = report.summary();
    report.verdict.into_result(summary)
}

fn lint(args: &Args) -> Result<String, BowError> {
    if args.flag("--explain") {
        // Under `--explain` the positional is the code to explain (none
        // lists every code); otherwise it is the file to lint.
        return explain(args.target.unwrap_or_default());
    }
    let design = args.config()?;
    let json = args.opt("--json");
    if args.flag("--mutate") {
        let mut opts = if args.flag("--smoke") {
            bow::mutate::MutateOptions::smoke()
        } else {
            bow::mutate::MutateOptions::full()
        };
        opts.jobs = args.jobs()?;
        opts.divergence = design.gpu.divergence;
        let report = bow::mutate::run_mutation(&opts);
        if let Some(p) = json {
            std::fs::write(p, report.to_json().to_string_pretty())
                .map_err(|e| BowError::io(p, e))?;
        }
        let summary = report.summary();
        return report.verdict.into_result(summary);
    }

    // Lint the artifact the pipeline would consume under the targeted
    // models: the same compile plan a launch of the design goes through —
    // hint pass, then barrier lowering (puts B017/B018 in play), then the
    // control-bit emitter on the modern core (B013/B014). The passes only
    // set hints, rewrite opcodes and attach a sidecar, so pc -> source-line
    // tables stay valid.
    let plan = CompilePlan::of(&design);
    let Some(window) = plan.hints else {
        unreachable!("the CLI's design, BOW-WR, runs the hint pass")
    };
    // (kernel, pc -> source line when it came from a .s file)
    let mut targets: Vec<(Kernel, Option<Vec<usize>>)> = Vec::new();
    if let Some(p) = args.target {
        let text = std::fs::read_to_string(p).map_err(|e| BowError::io(p, e))?;
        let (k, lines) = bow_isa::asm::parse_kernel_lines(&text).map_err(|e| err(e.to_string()))?;
        // Lint hand-annotated kernels as written; run the hint pass on
        // bare ones so B010 judges real compiler output.
        let hand_annotated = k.insts.iter().any(|i| i.hint != WritebackHint::Both);
        let plan = CompilePlan {
            hints: plan.hints.filter(|_| !hand_annotated),
            ..plan
        };
        targets.push((plan.apply(k)?.0, Some(lines)));
    } else if args.flag("--all-workloads") {
        for b in suite(Scale::Test) {
            targets.push((plan.apply(b.kernel())?.0, None));
        }
    } else {
        return Err(err(
            "lint: pass a file, --all-workloads, --mutate or --explain",
        ));
    }

    let opts = bow_compiler::LintOptions {
        window,
        ..Default::default()
    };
    let reports: Vec<_> = targets
        .iter()
        .map(|(k, _)| bow_compiler::lint_kernel(k, &opts))
        .collect();
    if let Some(p) = json {
        let doc = bow::util::json::Json::arr(reports.iter().map(|r| r.to_json()));
        std::fs::write(p, doc.to_string_pretty()).map_err(|e| BowError::io(p, e))?;
    }

    let mut out = String::new();
    for ((k, lines), report) in targets.iter().zip(&reports) {
        out.push_str(&report.render(k, lines.as_deref()));
        out.push('\n');
    }
    let deny_warnings = args.flag("--deny-warnings");
    let verdict: Verdict = reports
        .iter()
        .filter(|r| r.errors() > 0 || (deny_warnings && !r.passes_deny_warnings()))
        .map(|r| {
            let detail = format!("{} error(s), {} warning(s)", r.errors(), r.warnings());
            Finding::new(Check::Lint, &r.kernel, &design.label, detail)
        })
        .collect();
    let status = match verdict.findings.len() {
        0 => "clean".to_string(),
        n => format!("{n} failing"),
    };
    writeln!(
        out,
        "linted {} kernel(s) at IW{window}: {status}",
        reports.len()
    )
    .unwrap();
    verdict.into_result(out)
}

/// `lint --explain`: the long-form description of `code`, or with no code
/// every known code with its severity and summary.
fn explain(code: &str) -> Result<String, BowError> {
    if code.is_empty() {
        let rows: Vec<Vec<String>> = bow_compiler::LINT_DOCS
            .iter()
            .map(|d| {
                vec![
                    d.code.to_string(),
                    d.severity.to_string(),
                    d.summary.to_string(),
                ]
            })
            .collect();
        let mut out = render_table(&["code", "severity", "summary"], &rows);
        out.push_str("\nuse `bow-cli lint --explain B0xx` for the full description\n");
        return Ok(out);
    }
    bow_compiler::explain(code)
        .ok_or_else(|| err(format!("lint: unknown diagnostic code `{code}`")))
}
