//! The benchmark commands: `suite` lists the suite, `run` runs one
//! benchmark under one design, and `compare` and `sweep` tabulate a set of
//! designs side by side on the parallel sweep engine.

use crate::{Args, Subcommand};
use bow::api::config_from_json;
use bow::error::BowError;
use bow::experiment::{pct, render_table, Collector};
use bow::prelude::*;
use bow::verdict::{Check, Finding, Verdict};
use std::fmt::Write as _;

/// `suite`: list the benchmark suite.
pub const SUITE: Subcommand = Subcommand {
    name: "suite",
    synopsis: "  bow-cli suite\n",
    run: list,
};

/// `run`: one benchmark under one design, with IPC, traffic and the
/// reference check.
pub const RUN: Subcommand = Subcommand {
    name: "run",
    synopsis: "  bow-cli run <bench> [--collector C] [--window N] [--scale] [--reorder]
              [--core-model] [--divergence] [--sanitize]
",
    run: run_one,
};

/// `compare`: every collector design on one benchmark.
pub const COMPARE: Subcommand = Subcommand {
    name: "compare",
    synopsis: "  bow-cli compare <bench> [--scale] [--jobs N]
                  [--core-model] [--divergence]
",
    run: compare,
};

/// `sweep`: BOW-WR at windows 1..7 on one benchmark.
pub const SWEEP: Subcommand = Subcommand {
    name: "sweep",
    synopsis: "  bow-cli sweep <bench> [--scale] [--jobs N]
                [--core-model] [--divergence]
",
    run: sweep,
};

fn list(_: &Args) -> Result<String, BowError> {
    let rows: Vec<Vec<String>> = suite(Scale::Paper)
        .iter()
        .map(|b| {
            vec![
                b.name().to_string(),
                b.suite().to_string(),
                b.description().to_string(),
            ]
        })
        .collect();
    Ok(render_table(&["benchmark", "suite", "description"], &rows))
}

fn run_one(args: &Args) -> Result<String, BowError> {
    let scale = args.axis()?.unwrap_or(Scale::Test);
    let design = args.design()?;
    let bench = args.positional("benchmark name")?;
    let b = bow::experiment::benchmark(bench, scale)?;
    let mut cfg = config_from_json(&design)?;
    cfg.gpu.sanitize = args.flag("--sanitize");
    let label = cfg.label.clone();
    let rec = bow::experiment::run(b.as_ref(), cfg);
    let mut verdict = Verdict::of_records([&rec]);
    let s = &rec.outcome.result.stats;
    let mut out = String::new();
    let checked = if verdict.is_clean() {
        "OK (results verified)"
    } else {
        "results differ from the reference"
    };
    writeln!(out, "{bench} under {label}: {checked}").unwrap();
    writeln!(out, "  cycles             {}", rec.outcome.result.cycles).unwrap();
    writeln!(out, "  warp instructions  {}", s.warp_instructions).unwrap();
    writeln!(out, "  IPC                {:.3}", rec.ipc()).unwrap();
    writeln!(out, "  RF reads/writes    {} / {}", s.rf.reads, s.rf.writes).unwrap();
    writeln!(out, "  read bypass        {}", pct(s.read_bypass_rate())).unwrap();
    writeln!(out, "  write bypass       {}", pct(s.write_bypass_rate())).unwrap();
    if let Some(c) = &rec.compiler {
        writeln!(
            out,
            "  compiler           {} transient / {} persistent / {} rf-only; {} regs elided",
            c.transient,
            c.persistent,
            c.rf_only,
            c.transient_regs.len()
        )
        .unwrap();
    }
    if let Some(san) = &rec.outcome.result.sanitizer {
        // Under `run --sanitize` every dynamic finding fails.
        let found = match san.findings.len() {
            0 => "clean".to_string(),
            n => format!("{n} finding(s)"),
        };
        writeln!(out, "  sanitizer          {found}").unwrap();
        verdict.findings.extend(
            san.findings
                .iter()
                .map(|f| Finding::new(Check::Sanitizer, bench, &label, f.to_string())),
        );
    }
    verdict.into_result(out)
}

fn compare(args: &Args) -> Result<String, BowError> {
    // Every collector spec at its default sizes.
    let designs = Collector::SPECS
        .iter()
        .map(|&(_, collector, half)| ConfigBuilder::new(collector).half_size(half))
        .collect();
    let rows = design_table(args, designs)?;
    let headers = [
        "config",
        "ipc",
        "vs base",
        "rd bypass",
        "wr bypass",
        "energy",
    ];
    Ok(render_table(&headers, &rows))
}

fn sweep(args: &Args) -> Result<String, BowError> {
    let mut designs = vec![ConfigBuilder::baseline()];
    designs.extend((1..=7u32).map(ConfigBuilder::bow_wr));
    let table = design_table(args, designs)?;
    // One row per window (the baseline row is the yardstick), named by the
    // window and without the absolute-IPC column.
    let rows: Vec<Vec<String>> = (1..=7u32)
        .zip(&table[1..])
        .map(|(w, row)| [&[format!("IW{w}")], &row[2..]].concat())
        .collect();
    Ok(render_table(
        &["window", "ipc vs base", "rd bypass", "wr bypass", "energy"],
        &rows,
    ))
}

/// Runs the benchmark `args` names under `designs`, each on the chosen
/// core and divergence model, through the sweep engine (every cell must
/// pass its reference check) and tabulates each design against the first,
/// the baseline: label, IPC, IPC vs baseline, read and write bypass rate,
/// normalized RF energy.
fn design_table(args: &Args, designs: Vec<ConfigBuilder>) -> Result<Vec<Vec<String>>, BowError> {
    let scale = args.axis()?.unwrap_or(Scale::Test);
    let gpu = args.config()?.gpu;
    let jobs = args.jobs()?;
    let b = bow::experiment::benchmark(args.positional("benchmark name")?, scale)?;
    let configs = designs.into_iter().map(|d| {
        d.core_model(gpu.core_model)
            .divergence(gpu.divergence)
            .build()
    });
    let result = Suite::over(vec![b]).configs(configs).jobs(jobs).run();
    Verdict::of_records(result.all_records()).into_result(String::new())?;
    let model = EnergyModel::table_iv();
    let base = &result.row(0).records[0];
    let base_counts = base.outcome.result.stats.access_counts();
    let row = |rec: &RunRecord| {
        let s = &rec.outcome.result.stats;
        let energy = EnergyReport::normalized(&model, &s.access_counts(), &base_counts);
        vec![
            rec.label.clone(),
            format!("{:.3}", rec.ipc()),
            format!("{:+.1}%", 100.0 * (rec.ipc() / base.ipc() - 1.0)),
            pct(s.read_bypass_rate()),
            pct(s.write_bypass_rate()),
            format!("{:.2}", energy.total_norm()),
        ]
    };
    Ok(result.all_records().map(row).collect())
}
