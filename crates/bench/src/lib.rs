//! Shared machinery for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` builds one (benchmark × configuration)
//! matrix, hands it to the parallel sweep engine ([`bow::suite::Suite`])
//! via [`sweep`], prints the same rows/series the paper's figure reports
//! and drops a machine-readable copy in `results/<name>.json`. The tier
//! is selected with the `BOW_SCALE` environment variable — `test` or
//! `paper` (default) run the scaled 2-SM model, `chip` runs paper-scale
//! problems on the full 56-SM TITAN X and suffixes result files with
//! `_chip` — and the worker count with `--jobs N` (or `BOW_JOBS`,
//! default: all cores). Progress lines go to stderr only, so redirected
//! stdout tables are byte-identical at any job count.

use bow::prelude::*;
use bow::suite::SweepResult;
use bow_isa::{Kernel, Reg, WritebackHint};
use bow_util::json::Json;
use std::collections::HashMap;
use std::path::PathBuf;

/// Reads the problem scale from `BOW_SCALE` (default: `paper`). The
/// `chip` tier runs paper-scale problems.
pub fn scale_from_env() -> Scale {
    match std::env::var("BOW_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Paper,
    }
}

/// The bench tier `BOW_SCALE` selects: the problem scale plus the GPU
/// model the configurations run on.
///
/// * `test` — small problems, scaled 2-SM model (CI);
/// * `paper` (default) — paper-size problems, scaled 2-SM model;
/// * `chip` — paper-size problems on the full 56-SM TITAN X of Table II
///   ([`GpuModel::TitanX`]); result files gain a `_chip` suffix so
///   full-chip runs never overwrite the scaled-tier artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BenchTier {
    /// Problem scale for the workload suite.
    pub scale: Scale,
    /// GPU model every configuration runs on.
    pub model: GpuModel,
}

impl BenchTier {
    /// Reads the tier from `BOW_SCALE`.
    pub fn from_env() -> BenchTier {
        match std::env::var("BOW_SCALE").as_deref() {
            Ok("test") => BenchTier {
                scale: Scale::Test,
                model: GpuModel::Scaled,
            },
            Ok("chip") => BenchTier {
                scale: Scale::Paper,
                model: GpuModel::TitanX,
            },
            _ => BenchTier {
                scale: Scale::Paper,
                model: GpuModel::Scaled,
            },
        }
    }

    /// Suffix for result-file names (`"_chip"` on the full-chip tier).
    pub fn suffix(&self) -> &'static str {
        match self.model {
            GpuModel::TitanX => "_chip",
            GpuModel::Scaled => "",
        }
    }

    /// Applies the tier's GPU model to a configuration builder.
    pub fn configure(&self, builder: ConfigBuilder) -> Config {
        builder.model(self.model).build()
    }
}

/// Worker count for the sweep engine: `--jobs N` / `--jobs=N` / `-j N`
/// on the command line, else the `BOW_JOBS` environment variable, else
/// `0` (one worker per core).
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    if let Some(n) = parse_jobs(&args[1..]) {
        return n;
    }
    std::env::var("BOW_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Extracts a jobs request from an argument list (first match wins).
pub fn parse_jobs(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" || a == "-j" {
            return it.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().ok();
        }
    }
    None
}

/// Runs the full suite under every configuration on the parallel sweep
/// engine, asserting functional correctness of every cell. Rows come
/// back in the order `configs` lists them, records in suite order.
pub fn sweep(configs: impl IntoIterator<Item = Config>, scale: Scale) -> SweepResult {
    let result = Suite::new(scale)
        .configs(configs)
        .jobs(jobs_from_args())
        .run();
    result.assert_checked();
    result
}

/// Runs every benchmark under one configuration (a single-row [`sweep`])
/// and returns the records in suite order.
pub fn run_suite(config: &Config, scale: Scale) -> Vec<RunRecord> {
    let mut result = sweep([config.clone()], scale);
    result.rows.remove(0).records
}

/// Pairs each record with its benchmark name, plus an `average` row built
/// by `avg` over the values produced by `f`.
pub fn rows_with_average(
    records: &[RunRecord],
    f: impl Fn(&RunRecord) -> Vec<String>,
    avg: Vec<String>,
) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            let mut row = vec![r.benchmark.clone()];
            row.extend(f(r));
            row
        })
        .collect();
    let mut avg_row = vec!["average".to_string()];
    avg_row.extend(avg);
    rows.push(avg_row);
    rows
}

/// Geometric-mean speedup of `new` over `base` cycles across the suite.
pub fn geomean_speedup(base: &[RunRecord], new: &[RunRecord]) -> f64 {
    assert_eq!(base.len(), new.len());
    let log_sum: f64 = base
        .iter()
        .zip(new)
        .map(|(b, n)| (b.outcome.result.cycles as f64 / n.outcome.result.cycles as f64).ln())
        .sum();
    (log_sum / base.len() as f64).exp()
}

/// The directory machine-readable results land in: `BOW_RESULTS_DIR` if
/// set, else `results/` under the current directory.
pub fn results_dir() -> PathBuf {
    std::env::var("BOW_RESULTS_DIR").map_or_else(|_| PathBuf::from("results"), PathBuf::from)
}

/// Writes `doc` to `results/<name>.json` (pretty-printed). Errors are
/// reported on stderr, never fatal — the textual tables are the primary
/// artifact.
pub fn write_json(name: &str, doc: &Json) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Serializes a completed sweep to `results/<name>.json`: every cell's
/// full [`RunRecord`] (stats block included) plus per-cell wall times.
pub fn export_sweep(name: &str, result: &SweepResult) {
    let mut doc = result.to_json();
    if let Json::Obj(fields) = &mut doc {
        fields.insert(0, ("experiment".to_string(), Json::from(name)));
    }
    write_json(name, &doc);
}

/// Per-register RF write counts for the Table I fragment under the three
/// write policies: `[write-through, write-back, compiler]` × `[r0..r3]`.
///
/// This is an exact replay of the sliding extended window over the
/// fragment (the same semantics the simulator's BOC implements), kept
/// self-contained so the table is reproducible without timing noise.
pub fn table1_counts(kernel: &Kernel, range: std::ops::Range<usize>, window: u64) -> [[u32; 4]; 3] {
    let classes: HashMap<usize, bow_compiler::HintClass> =
        bow_compiler::classify_kernel(kernel, window as u32)
            .into_iter()
            .collect();
    let reg_slot = |r: Reg| -> Option<usize> {
        bow_workloads::snippet::TABLE_I_REGS
            .iter()
            .position(|&x| x == r.index())
    };

    let mut out = [[0u32; 4]; 3];

    // Column 0: write-through — every write reaches the RF.
    for pc in range.clone() {
        if let Some(slot) = kernel.insts[pc].dst_reg().and_then(reg_slot) {
            out[0][slot] += 1;
        }
    }

    // Columns 1 and 2: replay the window; on eviction a dirty value costs
    // an RF write unless (column 2 only) its hint says transient.
    for (col, hinted) in [(1usize, false), (2usize, true)] {
        // reg -> (last_touch, dirty, defining pc)
        let mut present: HashMap<u8, (u64, bool, usize)> = HashMap::new();
        let evict = |e: (u8, (u64, bool, usize)), out: &mut [[u32; 4]; 3]| {
            let (reg, (_, dirty, def_pc)) = e;
            if !dirty {
                return;
            }
            let hint = if hinted {
                classes
                    .get(&def_pc)
                    .map(|c| c.to_hint())
                    .unwrap_or(WritebackHint::Both)
            } else {
                WritebackHint::Both
            };
            if hint.to_rf() {
                if let Some(slot) = reg_slot(Reg::r(reg)) {
                    out[col][slot] += 1;
                }
            }
        };
        for (seq0, pc) in range.clone().enumerate() {
            let seq = seq0 as u64;
            let inst = &kernel.insts[pc];
            // Slide.
            let expired: Vec<u8> = present
                .iter()
                .filter(|(_, (touch, _, _))| seq.saturating_sub(*touch) >= window)
                .map(|(&r, _)| r)
                .collect();
            for r in expired {
                let e = present.remove_entry(&r).expect("present");
                evict(e, &mut out);
            }
            for r in inst.unique_src_regs() {
                if let Some(e) = present.get_mut(&r.index()) {
                    e.0 = seq;
                } else {
                    present.insert(r.index(), (seq, false, usize::MAX));
                }
            }
            if let Some(d) = inst.dst_reg() {
                // Overwrite while present consolidates silently.
                present.insert(d.index(), (seq, true, pc));
            }
        }
        for e in present.drain() {
            evict((e.0, e.1), &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_workloads::snippet::{fig6_kernel, fragment_range};

    #[test]
    fn table1_reproduces_the_papers_pattern() {
        let k = fig6_kernel();
        let counts = table1_counts(&k, fragment_range(), 3);
        // Write-through: counted straight off the listing.
        assert_eq!(counts[0], [3, 4, 3, 1]);
        // Write-back: the window consolidates r1's double update, r0's
        // double update and r2's load+shift pair.
        assert_eq!(counts[1], [1, 2, 2, 1]);
        // Compiler hints: only the two truly persistent values remain —
        // identical to the paper's column (r1 = 1, r3 = 1).
        assert_eq!(counts[2], [0, 1, 0, 1]);
        let totals: Vec<u32> = counts.iter().map(|c| c.iter().sum()).collect();
        assert_eq!(totals, vec![11, 6, 2]);
    }

    #[test]
    fn geomean_of_identical_runs_is_one() {
        let b = bow::workloads::by_name("vectoradd", Scale::Test).unwrap();
        let r1 = vec![bow::experiment::run(
            b.as_ref(),
            ConfigBuilder::baseline().build(),
        )];
        let r2 = vec![bow::experiment::run(
            b.as_ref(),
            ConfigBuilder::baseline().build(),
        )];
        let g = geomean_speedup(&r1, &r2);
        assert!((g - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scale_env_defaults_to_paper() {
        // Do not set the variable; just exercise the default path.
        if std::env::var("BOW_SCALE").is_err() {
            assert_eq!(scale_from_env(), Scale::Paper);
        }
    }

    #[test]
    fn parse_jobs_accepts_all_spellings() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert_eq!(parse_jobs(&argv("--jobs 4")), Some(4));
        assert_eq!(parse_jobs(&argv("--jobs=16")), Some(16));
        assert_eq!(parse_jobs(&argv("-j 1")), Some(1));
        assert_eq!(parse_jobs(&argv("foo --jobs 2 bar")), Some(2));
        assert_eq!(parse_jobs(&argv("--jobs")), None);
        assert_eq!(parse_jobs(&argv("")), None);
    }

    #[test]
    fn chip_tier_selects_the_full_titan_x() {
        // `from_env` is env-dependent; check the tier mechanics directly.
        let chip = BenchTier {
            scale: Scale::Paper,
            model: GpuModel::TitanX,
        };
        assert_eq!(chip.suffix(), "_chip");
        let cfg = chip.configure(ConfigBuilder::bow_wr(3));
        assert_eq!(cfg.gpu.num_sms, 56);
        assert_eq!(cfg.label, "bow-wr iw3");

        let scaled = BenchTier {
            scale: Scale::Test,
            model: GpuModel::Scaled,
        };
        assert_eq!(scaled.suffix(), "");
        assert_eq!(scaled.configure(ConfigBuilder::baseline()).gpu.num_sms, 2);
    }
}
