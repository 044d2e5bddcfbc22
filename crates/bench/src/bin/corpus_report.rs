//! Corpus distribution report: sweeps the stratified kernel corpus
//! through the paper's four collector configurations on both core
//! models and emits per-stratum IPC-gain and bypass-rate distributions
//! (median/p10/p90) — the population view behind the EXPERIMENTS.md
//! §V-A ordering claim.
//!
//! Outputs:
//!
//! * `results/corpus_pascal.json` / `results/corpus_modern.json` —
//!   distributions per stratum × collector on each core model (stack
//!   divergence), plus `..._barrier.json` twins under the stack-less
//!   convergence-barrier divergence model;
//! * `results/corpus_manifest_summary.json` — corpus provenance (seed,
//!   counts, per-stratum retention) so a report is traceable to the
//!   exact population that produced it.
//!
//! ```sh
//! cargo run --release -p bow-bench --bin corpus_report
//! # CI smoke (64 kernels, 16-kernel sweep):
//! BOW_CORPUS_COUNT=64 BOW_CORPUS_SAMPLE=16 cargo run --release -p bow-bench --bin corpus_report
//! ```
//!
//! Environment knobs: `BOW_CORPUS_COUNT` (generated kernels, default
//! 1000), `BOW_CORPUS_SAMPLE` (kernels swept per core model, default
//! 200, 0 = all), `BOW_CORPUS_SEED` (hex or decimal master seed).
//! `--jobs N` passes through to the sweep pool.

use bow::corpus;
use bow_bench::{jobs_from_args, write_json};
use bow_sim::{CoreModelKind, DivergenceModel};
use bow_util::json::Json;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_seed(default: u64) -> u64 {
    let Ok(raw) = std::env::var("BOW_CORPUS_SEED") else {
        return default;
    };
    let parsed = raw
        .strip_prefix("0x")
        .map_or_else(|| raw.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok());
    parsed.unwrap_or_else(|| panic!("BOW_CORPUS_SEED `{raw}` is not a number"))
}

fn main() {
    let count = env_usize("BOW_CORPUS_COUNT", corpus::DEFAULT_COUNT);
    let sample = env_usize("BOW_CORPUS_SAMPLE", 200);
    let seed = env_seed(corpus::DEFAULT_SEED);
    let jobs = jobs_from_args();

    eprintln!("corpus_report: generating {count} kernels (seed {seed:#x})");
    let manifest = corpus::generate(seed, count);
    let retained = manifest.retained().count();
    eprintln!(
        "corpus_report: {retained}/{} entries retained across {} strata",
        manifest.entries.len(),
        manifest.strata().len()
    );

    let mut summary_rejects = Vec::new();
    for (stratum, dirty) in &manifest.rejected {
        summary_rejects.push(Json::obj([
            ("stratum", Json::from(stratum.as_str())),
            ("rejected", Json::from(*dirty)),
            (
                "retained",
                Json::from(
                    manifest
                        .retained()
                        .filter(|e| &e.stratum == stratum)
                        .count() as u64,
                ),
            ),
        ]));
    }
    write_json(
        "corpus_manifest_summary",
        &Json::obj([
            ("schema_version", Json::from(corpus::MANIFEST_VERSION)),
            ("seed", Json::from(format!("{seed:#x}"))),
            ("count", Json::from(count as u64)),
            ("retained", Json::from(retained as u64)),
            ("strata", Json::Arr(summary_rejects)),
        ]),
    );

    // The full scenario matrix: {pascal, modern} × {stack, barrier}.
    // Stack sweeps keep their historical artifact names; barrier sweeps
    // get a `_barrier` suffix so both populations sit side by side.
    for core in CoreModelKind::ALL {
        for divergence in DivergenceModel::ALL {
            let name = core.name();
            eprintln!(
                "corpus_report: sweeping {name} core / {} divergence (sample {sample})",
                divergence.name()
            );
            let opts = corpus::SweepOptions {
                limit: sample,
                jobs,
                core_model: core,
                divergence,
                progress: true,
            };
            let result = corpus::sweep(&manifest, &opts);
            result.assert_checked();
            let doc = corpus::distribution_json(&manifest, &result, core, divergence);
            let artifact = match divergence {
                DivergenceModel::Stack => format!("corpus_{name}"),
                DivergenceModel::Barrier => format!("corpus_{name}_barrier"),
            };
            write_json(&artifact, &doc);
        }
    }
    eprintln!("corpus_report: done");
}
