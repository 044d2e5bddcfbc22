//! The differential kernel fuzzer: generated kernels × collector configs.
//!
//! Each case draws a structured program from [`bow_isa::fuzz`] and runs
//! it under every collector configuration (baseline, BOW, BOW-WR with
//! hints on and off, RFC), each launch judged by all four launch checks
//! of [`Check`]. The reference, [`FuzzKernel::expected`], shares no code
//! with the simulator, so it catches a semantics bug in `exec.rs` that
//! the oracle (which reuses `exec.rs`) cannot; the sanitizer's hint
//! replay catches a `.wb.boc` value read after the window dropped it,
//! which neither can see.
//!
//! The program, the judged launch and the pool are the campaign module's.
//! This module owns the session: its options, designs and report, the
//! cases ([`case_seed`]), and what a failing cell becomes — shrunk to a
//! minimal statement tree in the worker, written as a runnable `.asm`
//! repro file, and one [`Finding`] of the [`Verdict`].
//!
//! Case `i` of seed `s` derives its RNG from `s ^ (i * GOLDEN)`, so any
//! failure reproduces from the printed seed and case number alone, at any
//! `--jobs`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::campaign::{map_programs, Program};
use crate::experiment::{Config, ConfigBuilder};
use crate::verdict::{Check, Finding, Verdict};
use bow_isa::fuzz::{self, FuzzKernel};
use bow_sim::{CoreModelKind, DivergenceModel};
use bow_util::XorShift;

/// Per-case seed derivation constant (splitmix golden ratio).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The checks every fuzz cell runs, in order.
const CHECKS: [Check; 4] = [
    Check::Lint,
    Check::Oracle,
    Check::Reference,
    Check::Sanitizer,
];

/// Options for a fuzzing session.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Number of generated cases.
    pub cases: u64,
    /// Master seed; case `i` derives its own stream from it.
    pub seed: u64,
    /// Worker threads (`0` = all cores).
    pub jobs: usize,
    /// Statement budget per generated program.
    pub size: usize,
    /// Directory minimized `.asm` repro files are written to.
    pub out_dir: PathBuf,
    /// SM core model every case runs on (`Modern` runs each kernel's
    /// compiler-emitted control bits).
    pub core_model: CoreModelKind,
    /// Reconvergence machinery every case runs under (`Barrier` lowers
    /// SSY/SYNC to convergence barriers).
    pub divergence: DivergenceModel,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            cases: 256,
            seed: 0xb0f_f00d,
            jobs: 0,
            size: 24,
            out_dir: PathBuf::from("results/fuzz"),
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
        }
    }
}

impl FuzzOptions {
    /// The fixed 64-case smoke configuration CI runs.
    pub fn smoke() -> FuzzOptions {
        FuzzOptions {
            cases: 64,
            seed: 0x5330_c0de,
            ..FuzzOptions::default()
        }
    }
}

/// The outcome of a fuzzing session.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Configuration labels each case ran under.
    pub configs: Vec<String>,
    /// One finding per failing (case, config) cell, from its shrunk
    /// program; the detail names the case seed and the repro file.
    pub verdict: Verdict,
    /// Total dynamic instructions lockstep-checked across all runs.
    pub checked_instructions: u64,
    /// Wall-clock time of the session.
    pub wall: Duration,
}

impl FuzzReport {
    /// The session's statistics in one line.
    pub fn summary(&self) -> String {
        format!(
            "fuzz: {} cases x {} configs, {} instructions lockstep-checked, {:.1}s\n",
            self.cases,
            self.configs.len(),
            self.checked_instructions,
            self.wall.as_secs_f64()
        )
    }
}

/// The collector configurations every case runs under, on a chosen core
/// and divergence model: the full design space of the paper's Table I
/// plus the RFC baseline, hints on and off. Both cores run the same five.
pub fn fuzz_configs_for(core: CoreModelKind, divergence: DivergenceModel) -> Vec<Config> {
    [
        ConfigBuilder::baseline(),
        ConfigBuilder::bow(3),
        ConfigBuilder::bow_wr(3),
        ConfigBuilder::bow_wr(3).hints(false),
        ConfigBuilder::rfc(),
    ]
    .map(|b| b.core_model(core).divergence(divergence).build())
    .into()
}

/// Derives the per-case RNG seed from the session seed and case index.
pub fn case_seed(seed: u64, case: u64) -> u64 {
    seed ^ case.wrapping_mul(GOLDEN)
}

/// Case `case` of session seed `seed` as a program named
/// `{prefix}_{case}`: a generated program of `size` statements and its
/// input, both drawn from the case's own stream ([`case_seed`]). The
/// population of the fuzzer and of the mutation campaign.
pub(crate) fn case_program(prefix: &str, seed: u64, case: u64, size: usize) -> Program {
    let mut rng = XorShift::new(case_seed(seed, case));
    let program = FuzzKernel::generate_sized(&mut rng, size);
    let input = FuzzKernel::gen_input(&mut rng);
    Program::generated(format!("{prefix}_{case}"), program, false, input)
}

/// Runs a fuzzing session and returns the report. Deterministic for a
/// given `(seed, cases, size)` at any worker count.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let start = Instant::now();
    let configs = fuzz_configs_for(opts.core_model, opts.divergence);
    let cases = map_programs(
        opts.cases as usize,
        opts.jobs,
        |case| Some(case_program("fuzz_case", opts.seed, case as u64, opts.size)),
        |case, program| {
            let cell = |config| run_cell(opts, case as u64, program, config);
            configs.iter().map(cell).collect::<Vec<_>>()
        },
    );
    let cells: Vec<(u64, Option<Finding>)> = cases.into_iter().flatten().flatten().collect();

    FuzzReport {
        cases: opts.cases,
        configs: configs.into_iter().map(|c| c.label).collect(),
        checked_instructions: cells.iter().map(|(checked, _)| checked).sum(),
        verdict: cells.into_iter().filter_map(|(_, f)| f).collect(),
        wall: start.elapsed(),
    }
}

/// The launchable form of a case under a config. Generated control flow
/// is structured by construction and the hint producer is gated by the
/// lint check, so the plan refusing a case is a generator/compiler bug.
fn kernel_under(program: &Program, config: &Config, case: u64) -> bow_isa::Kernel {
    let refused = |e| panic!("fuzz case {case}: {e}");
    program.kernel_under(config).unwrap_or_else(refused)
}

/// One (case, config) cell: the lockstep-checked instruction count when
/// every check agrees, otherwise the first finding on the shrunk program,
/// whose repro is written to the session's directory.
fn run_cell(
    opts: &FuzzOptions,
    case: u64,
    program: &Program,
    config: &Config,
) -> (u64, Option<Finding>) {
    let judged = |p: &Program| p.judge(&kernel_under(p, config, case), config, &CHECKS);
    let first = judged(program);
    let Some(finding) = first.findings.into_iter().next() else {
        return (first.checked, None);
    };
    // Shrink: keep any simplification that still fails this config (any
    // failure detail counts, not just the same).
    let minimized = program
        .shrink(|cand| !judged(cand).findings.is_empty())
        .expect("a fuzz case is a generated program");
    let mut finding = judged(&minimized)
        .findings
        .into_iter()
        .next()
        .unwrap_or(finding);
    let cseed = case_seed(opts.seed, case);
    let repro = render_repro(&minimized, opts.seed, case, cseed, config, &finding.detail);
    let written = write_repro(&opts.out_dir, case, config, &repro)
        .map(|p| format!(", repro: {}", p.display()))
        .unwrap_or_default();
    finding.detail += &format!(
        " [case seed {cseed:#x}, {} -> {} stmts{written}]",
        program.stmts(),
        minimized.stmts()
    );
    (0, Some(finding))
}

/// Renders a minimized failing case as runnable `.asm` text with a
/// comment header carrying everything needed to reproduce it.
///
/// The kernel goes through the same preparation as the failing run —
/// including the hint pass — so the `.wb.*` suffixes that may have
/// *caused* the failure survive into the repro and round-trip through
/// `bow_isa::asm`.
fn render_repro(
    minimized: &Program,
    seed: u64,
    case: u64,
    case_seed: u64,
    config: &Config,
    detail: &str,
) -> String {
    let (kernel, input) = (kernel_under(minimized, config, case), &minimized.input);
    let params: Vec<String> = fuzz::PARAMS.iter().map(|p| format!("{p:#x}")).collect();
    let (label, params, words) = (&config.label, params.join(", "), input.len());
    let ((gx, gy), (bx, by), base) = (fuzz::GRID, fuzz::BLOCK, fuzz::INPUT_BASE);
    let mut s = format!(
        "// bow fuzz repro (minimized)\n\
         // session seed {seed:#x}, case {case}, case seed {case_seed:#x}\n\
         // config: {label}\n\
         // failure: {detail}\n\
         // launch: grid ({gx},{gy}) block ({bx},{by}), params [{params}]\n\
         // input: {words} words at {base:#x}, listed below\n"
    );
    for chunk in input.chunks(8) {
        let words: Vec<String> = chunk.iter().map(|w| format!("{w:#010x}")).collect();
        s += &format!("//   {}\n", words.join(" "));
    }
    s + "\n" + &kernel.disassemble()
}

/// Writes a failing cell's repro file; returns its path (best effort — an
/// unwritable directory degrades to `None`).
fn write_repro(dir: &Path, case: u64, config: &Config, repro: &str) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let slug: String = config
        .label
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("case{case}_{slug}.asm"));
    std::fs::write(&path, repro).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_session_over_a_few_cases() {
        let report = run_fuzz(&FuzzOptions {
            cases: 4,
            seed: 0xfeed_beef,
            jobs: 2,
            size: 16,
            out_dir: std::env::temp_dir().join("bow_fuzz_test"),
            core_model: CoreModelKind::Pascal,
            divergence: DivergenceModel::Stack,
        });
        assert!(report.verdict.is_clean(), "{}", report.verdict);
        assert_eq!(report.configs.len(), 5);
        assert!(report.checked_instructions > 0);
    }

    #[test]
    fn a_session_tallies_the_same_at_any_worker_count() {
        // Every (case, config) cell is judged and counted once: a dropped
        // cell, check or design moves the pinned count.
        for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
            let session = |jobs| {
                run_fuzz(&FuzzOptions {
                    cases: 8,
                    jobs,
                    core_model: core,
                    out_dir: std::env::temp_dir().join("bow_fuzz_jobs_test"),
                    ..FuzzOptions::smoke()
                })
            };
            let (one, three) = (session(1), session(3));
            assert_eq!(one.configs, three.configs, "{core:?}");
            assert_eq!(one.verdict, three.verdict, "{core:?}");
            assert!(one.verdict.is_clean(), "{core:?}: {}", one.verdict);
            assert_eq!(one.checked_instructions, 12_160, "{core:?}");
            assert_eq!(three.checked_instructions, 12_160, "{core:?}");
        }
    }

    #[test]
    fn barrier_divergence_fuzzes_clean_under_the_lockstep_oracle() {
        // Every case lowers to BSSY/BSYNC convergence barriers; the
        // stack-less split/join machinery must still satisfy lockstep,
        // final memory and the independent host model, on both cores.
        for core in [CoreModelKind::Pascal, CoreModelKind::Modern] {
            let report = run_fuzz(&FuzzOptions {
                cases: 4,
                seed: 0xfeed_beef,
                jobs: 2,
                size: 16,
                out_dir: std::env::temp_dir().join("bow_fuzz_barrier_test"),
                core_model: core,
                divergence: DivergenceModel::Barrier,
            });
            assert!(report.verdict.is_clean(), "{}", report.verdict);
            assert!(
                report.configs.iter().all(|l| l.contains("+barrier")),
                "{:?}",
                report.configs
            );
            assert!(report.checked_instructions > 0);
        }
    }

    #[test]
    fn modern_core_fuzzes_clean_under_the_lockstep_oracle() {
        let report = run_fuzz(&FuzzOptions {
            cases: 4,
            seed: 0xfeed_beef,
            jobs: 2,
            size: 16,
            out_dir: std::env::temp_dir().join("bow_fuzz_modern_test"),
            core_model: CoreModelKind::Modern,
            divergence: DivergenceModel::Stack,
        });
        assert!(report.verdict.is_clean(), "{}", report.verdict);
        assert_eq!(report.configs.len(), 5);
        assert!(
            report.configs.iter().all(|l| l.contains("+modern")),
            "{:?}",
            report.configs
        );
        assert!(report.checked_instructions > 0);
    }

    #[test]
    fn both_cores_fuzz_the_same_designs() {
        let designs = |core, div| -> Vec<_> {
            fuzz_configs_for(core, div)
                .into_iter()
                .map(|c| (c.gpu.collector, c.hints))
                .collect()
        };
        for div in [DivergenceModel::Stack, DivergenceModel::Barrier] {
            let pascal = designs(CoreModelKind::Pascal, div);
            assert_eq!(pascal.len(), 5);
            assert_eq!(pascal, designs(CoreModelKind::Modern, div), "{div:?}");
        }
    }

    #[test]
    fn case_seeds_are_distinct_and_stable() {
        assert_eq!(case_seed(7, 0), 7);
        assert_ne!(case_seed(7, 1), case_seed(7, 2));
        assert_eq!(case_seed(7, 3), case_seed(7, 3));
    }

    #[test]
    fn repro_text_reparses_as_a_kernel() {
        let program = case_program("fuzz_case", 123, 2, 8);
        let config = ConfigBuilder::baseline().build();
        let text = render_repro(&program, 1, 2, 3, &config, "test");
        let k = bow_isa::asm::parse_kernel(&text).expect("repro is runnable asm");
        assert!(!k.insts.is_empty());
    }

    #[test]
    fn repro_round_trips_writeback_hints() {
        // Under a hinted config the repro must carry the same hints as the
        // kernel that actually failed — reparsing it reproduces the case.
        let program = case_program("fuzz_case", 123, 2, 16);
        let config = ConfigBuilder::bow_wr(3).build();
        let text = render_repro(&program, 1, 2, 3, &config, "test");
        let reparsed = bow_isa::asm::parse_kernel(&text).expect("repro is runnable asm");
        let annotated = kernel_under(&program, &config, 2);
        let hints: Vec<_> = annotated.insts.iter().map(|i| i.hint).collect();
        let back: Vec<_> = reparsed.insts.iter().map(|i| i.hint).collect();
        assert_eq!(hints, back, "hints lost in the .asm round trip");
        assert!(
            text.contains(".wb."),
            "an annotated fuzz kernel should carry at least one non-default hint:\n{text}"
        );
    }
}
