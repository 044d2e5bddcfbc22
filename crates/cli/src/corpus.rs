//! The `corpus` verbs over the stratified thousand-kernel population
//! (docs/TESTING.md, `Corpus tier`): `gen` draws and writes a manifest,
//! `stats` tabulates one, `sweep` runs the retained kernels through the
//! collector models (locally or through a `bow-server`), and `sanitize`
//! cross-validates the race sanitizer against the static lints.

use crate::service::post_run;
use crate::{err, Args, Subcommand};
use bow::corpus::{self, Manifest};
use bow::error::BowError;
use bow::experiment::render_table;
use bow::prelude::*;
use bow::sanitize_campaign::CampaignOptions;
use bow::verdict::Verdict;
use bow_util::json::Json;
use std::fmt::Write as _;

/// `corpus gen`: draw a corpus and write `<dir>/manifest.json`.
pub const GEN: Subcommand = Subcommand {
    name: "corpus gen",
    synopsis: "  bow-cli corpus gen [--count N] [--seed S] [--dir DIR]\n",
    run: gen,
};

/// `corpus stats`: tabulate a generated manifest.
pub const STATS: Subcommand = Subcommand {
    name: "corpus stats",
    synopsis: "  bow-cli corpus stats [--dir DIR]\n",
    run: stats,
};

/// `corpus sweep`: the retained kernels under the four collector models,
/// as per-stratum distributions.
pub const SWEEP: Subcommand = Subcommand {
    name: "corpus sweep",
    synopsis: "  bow-cli corpus sweep [--dir DIR] [--limit N] [--jobs N]
                 [--core-model pascal|modern] [--divergence stack|barrier]
                 [--addr HOST:PORT] [--out FILE]
",
    run: sweep,
};

/// `corpus sanitize`: the dynamic race sanitizer against the static lint
/// suite over the corpus plus the adversarial stratum.
pub const SANITIZE: Subcommand = Subcommand {
    name: "corpus sanitize",
    synopsis:
        "  bow-cli corpus sanitize [--count N] [--seed S] [--jobs N] [--smoke] [--out FILE]\n",
    run: sanitize,
};

fn gen(args: &Args) -> Result<String, BowError> {
    let count = args.number("--count")?.unwrap_or(corpus::DEFAULT_COUNT);
    let seed = args.number("--seed")?.unwrap_or(corpus::DEFAULT_SEED);
    let dir = args.text("--dir", "corpus");
    let manifest = corpus::generate(seed, count);
    std::fs::create_dir_all(dir).map_err(|e| BowError::io(dir, e))?;
    let path = manifest_path(dir);
    std::fs::write(&path, json_text(&manifest.to_json())).map_err(|e| BowError::io(&path, e))?;
    let retained = manifest.retained().count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus: seed {seed:#x}, {count} generated candidates, \
         {retained}/{} entries retained → {path}",
        manifest.entries.len()
    );
    out.push_str(&stratum_table(&manifest));
    Ok(out)
}

fn stats(args: &Args) -> Result<String, BowError> {
    let manifest = load_manifest(args.text("--dir", "corpus"))?;
    let retained = manifest.retained().count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus: seed {:#x}, count {}, {retained}/{} entries retained",
        manifest.seed,
        manifest.count,
        manifest.entries.len()
    );
    out.push_str(&stratum_table(&manifest));
    Ok(out)
}

fn sweep(args: &Args) -> Result<String, BowError> {
    let (core_model, divergence) = args.models()?;
    let jobs = args.jobs()?;
    let limit = args.number("--limit")?.unwrap_or(0);
    let manifest = load_manifest(args.text("--dir", "corpus"))?;
    let doc = if let Some(addr) = args.opt("--addr") {
        server_sweep(&manifest, limit, addr, core_model, divergence)?
    } else {
        let opts = corpus::SweepOptions {
            limit,
            jobs,
            core_model,
            divergence,
            progress: true,
        };
        let result = corpus::sweep(&manifest, &opts);
        let cells = result.all_records().count();
        Verdict::of_records(result.all_records())
            .into_result(format!("corpus sweep: {cells} cells checked\n"))?;
        corpus::distribution_json(&manifest, &result, core_model, divergence)
    };
    let text = json_text(&doc);
    if let Some(out_path) = args.opt("--out") {
        std::fs::write(out_path, &text).map_err(|e| BowError::io(out_path, e))?;
    }
    Ok(text)
}

fn sanitize(args: &Args) -> Result<String, BowError> {
    let jobs = args.jobs()?;
    let defaults = if args.pins("--smoke", &["--count", "--seed"])? {
        CampaignOptions::smoke()
    } else {
        CampaignOptions::full()
    };
    let opts = CampaignOptions {
        count: args.number("--count")?.unwrap_or(defaults.count),
        seed: args.number("--seed")?.unwrap_or(defaults.seed),
        jobs,
    };
    let out_path = args.text("--out", "results/sanitizer_campaign.json");
    let report = bow::sanitize_campaign::run_campaign(&opts);
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| BowError::io(dir.display().to_string(), e))?;
        }
    }
    std::fs::write(out_path, json_text(&report.to_json()))
        .map_err(|e| BowError::io(out_path, e))?;
    let summary = format!("{}report → {out_path}\n", report.summary());
    report.verdict.into_result(summary)
}

/// `doc` pretty-printed, newline-terminated: the on-disk form of every
/// JSON artifact the corpus verbs write.
fn json_text(doc: &Json) -> String {
    let mut text = doc.to_string_pretty();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text
}

fn manifest_path(dir: &str) -> String {
    format!("{dir}/manifest.json")
}

fn load_manifest(dir: &str) -> Result<Manifest, BowError> {
    let path = manifest_path(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| BowError::io(&path, e))?;
    let json = bow_util::json::parse(&text).map_err(|e| err(format!("{path}: {e}")))?;
    Manifest::from_json(&json).map_err(|e| err(format!("{path}: {e}")))
}

/// Per-stratum retention table shared by `corpus gen` and `corpus stats`.
fn stratum_table(manifest: &Manifest) -> String {
    let rejected_in = |stratum: &str| -> u64 {
        manifest
            .rejected
            .iter()
            .find(|(s, _)| s == stratum)
            .map_or(0, |(_, n)| *n)
    };
    let mean = |xs: &[u64]| -> String {
        format!("{:.1}", xs.iter().sum::<u64>() as f64 / xs.len() as f64)
    };
    let rows: Vec<Vec<String>> = manifest
        .strata()
        .iter()
        .map(|stratum| {
            let entries: Vec<_> = manifest
                .entries
                .iter()
                .filter(|e| &e.stratum == stratum)
                .collect();
            let retained = entries.iter().filter(|e| e.retained).count();
            let col = |f: &dyn Fn(&corpus::ManifestEntry) -> u64| {
                mean(&entries.iter().map(|e| f(e)).collect::<Vec<u64>>())
            };
            vec![
                (*stratum).to_string(),
                retained.to_string(),
                (entries.len() - retained + rejected_in(stratum) as usize).to_string(),
                col(&|e| u64::from(e.traits.insts)),
                col(&|e| u64::from(e.traits.regs_written)),
                col(&|e| e.traits.reuse_x100 / 100),
                col(&|e| u64::from(e.traits.branch_depth)),
                col(&|e| u64::from(e.traits.mem_per_ki)),
            ]
        })
        .collect();
    render_table(
        &[
            "stratum", "kept", "rejected", "insts", "regs", "reuse", "depth", "mem/ki",
        ],
        &rows,
    )
}

/// Drives the corpus sweep through a running `bow-server`: every selected
/// kernel is submitted inline (assembly text) under each of the four
/// collector columns, and the per-stratum IPC-gain distributions are
/// reduced client-side. The server runs inline kernels under its
/// synthetic-parameter convention with the memory oracle, so this path
/// reports IPC only — bypass-rate distributions need the local pool.
fn server_sweep(
    manifest: &Manifest,
    limit: usize,
    addr: &str,
    core: CoreModelKind,
    divergence: DivergenceModel,
) -> Result<Json, BowError> {
    const COLLECTORS: [&str; 4] = ["baseline", "bow", "bow-wr", "rfc"];
    let picked = corpus::select(manifest, limit);
    if picked.is_empty() {
        return Err(err("corpus sweep: manifest has no retained kernels"));
    }
    let mut ipc: Vec<Vec<f64>> = vec![Vec::new(); COLLECTORS.len()];
    for entry in &picked {
        let kernel = corpus::kernel_for(entry).ok_or_else(|| {
            err(format!(
                "{}: cannot re-materialize from manifest",
                entry.name
            ))
        })?;
        let asm = kernel.disassemble();
        for (ci, collector) in COLLECTORS.iter().enumerate() {
            let kernel = Json::obj([
                ("asm", Json::from(asm.as_str())),
                ("blocks", Json::from(bow_isa::fuzz::GRID.0)),
                ("threads", Json::from(bow_isa::fuzz::BLOCK.0)),
            ]);
            let config = Json::obj([
                ("collector", Json::from(*collector)),
                ("window", Json::from(3_u32)),
                ("model", Json::from(GpuModel::Scaled.name())),
                ("core_model", Json::from(core.name())),
                ("divergence", Json::from(divergence.name())),
            ]);
            let response = post_run(addr, kernel, config, true)?;
            if response.status >= 400 {
                return Err(BowError::io(addr, response.body.trim_end()));
            }
            let parsed = response
                .json()
                .map_err(|e| err(format!("server response: {e}")))?;
            let value = parsed
                .get("result")
                .and_then(|r| r.get("ipc"))
                .and_then(Json::as_f64)
                .ok_or_else(|| err("server response has no `result.ipc`"))?;
            ipc[ci].push(value);
        }
    }

    // The same reduction as a local sweep, minus the bypass-rate column
    // the server path cannot observe.
    let strata: Vec<&str> = picked.iter().map(|e| e.stratum.as_str()).collect();
    let baseline = ipc.remove(0);
    let columns: Vec<corpus::DesignColumn> = COLLECTORS[1..]
        .iter()
        .zip(ipc)
        .map(|(label, ipc)| corpus::DesignColumn {
            label,
            ipc,
            read_bypass: None,
        })
        .collect();
    Ok(corpus::distributions(
        &strata, &baseline, &columns, core, divergence,
    ))
}
