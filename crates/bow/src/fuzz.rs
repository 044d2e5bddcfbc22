//! The differential kernel fuzzer: generated kernels × collector configs,
//! judged by four independent checks ([`Check`]).
//!
//! Each case draws a structured program from [`bow_isa::fuzz`], lowers it
//! to a kernel, and runs it under every collector configuration
//! (baseline, BOW, BOW-WR with hints on and off, RFC). Every run must
//! satisfy, in order:
//!
//! * **Lint**: the static residency verifier accepts the annotated
//!   kernel, so a hint-producer bug is pinned before it launches.
//! * **Oracle**: every executed instruction's destination values match
//!   the warp-serial architectural oracle ([`bow_sim::oracle`]) — a
//!   pipeline/collector bug is pinned to the first diverging instruction
//!   — and so do the instruction count and final global memory.
//! * **Reference**: every word the program writes matches
//!   [`FuzzKernel::expected`], an independent reimplementation of the
//!   ISA semantics that shares no code with the simulator — a semantics
//!   bug in `exec.rs` itself (invisible to the oracle, which reuses
//!   `exec.rs`) fails here.
//! * **Sanitizer**: the race sanitizer ([`bow_sim::GpuConfig::sanitize`])
//!   reports no dynamic finding a static lint code does not vouch for
//!   ([`crate::sanitize_campaign::unvouched`]). Its hint replay is how a
//!   `.wb.boc` value read after the operand window dropped it fails a
//!   case: the timing model carries no values, so the oracle and the
//!   reference cannot see a write-back policy.
//!
//! The oracle and the sanitizer ride one launch per cell: both subscribe
//! to the same event stream ([`bow_sim::GpuConfig::oracle_check`]), and
//! the launch reports both; the reference reads the memory it left.
//!
//! Cases fan out over the same thread pool as the experiment
//! sweeps ([`crate::suite`]); a failing cell shrinks to a minimal
//! statement tree, is written as a runnable `.asm` repro file and becomes
//! one [`Finding`] of the session's [`Verdict`].
//!
//! Everything is deterministic: case `i` of seed `s` derives its RNG from
//! `s ^ (i * GOLDEN)`, so any failure reproduces from the printed seed
//! and case number alone, at any `--jobs`.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::experiment::{CompilePlan, Config, ConfigBuilder};
use crate::sanitize_campaign::unvouched;
use crate::suite::{effective_jobs, map_parallel_grouped};
use crate::verdict::{Check, Finding, Verdict};
use bow_compiler::verify_hints;
use bow_isa::fuzz::{self, FuzzKernel};
use bow_isa::Kernel;
use bow_mem::GlobalMemory;
use bow_sim::{CoreModelKind, DivergenceModel, Gpu, LaunchResult, OracleCheck};
use bow_util::XorShift;

/// Per-case seed derivation constant (splitmix golden ratio).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Cycle watchdog for fuzzed launches: generated kernels are small and
/// always terminate, so hitting this means the *pipeline* hung.
pub(crate) const FUZZ_MAX_CYCLES: u64 = 5_000_000;

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
    /// SM core model every case runs on. `Modern` routes each kernel
    /// through the control-bits emitter, so the fixed-latency interlock
    /// runs under the same lockstep oracle.
    pub core_model: CoreModelKind,
    /// Reconvergence machinery every case runs under. `Barrier` lowers
    /// each case's SSY/SYNC to convergence barriers, so the stack-less
    /// split/join model faces the same lockstep oracle and host model.
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

/// Runs a fuzzing session and returns the report. Deterministic for a
/// given `(seed, cases, size)` at any worker count.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let start = Instant::now();
    let configs = fuzz_configs_for(opts.core_model, opts.divergence);
    let ncfg = configs.len();
    let total = (opts.cases as usize) * ncfg;
    let workers = effective_jobs(opts.jobs).min(total.max(1));

    // One pool task per (case, config) cell, case-major, and a case's
    // cells one pool group: they run back to back on one thread and share
    // one oracle run. A case's program, input and host-model writes depend
    // on the case alone: the first of its cells to run derives them for
    // all.
    let cases: Vec<OnceLock<(FuzzKernel, Vec<u32>, ExpectedWrites)>> =
        (0..opts.cases).map(|_| OnceLock::new()).collect();
    let run_cell = |cell: usize| -> (u64, Option<Finding>) {
        let case = (cell / ncfg) as u64;
        let config = &configs[cell % ncfg];
        let cseed = case_seed(opts.seed, case);
        let (program, input, expected) = cases[case as usize].get_or_init(|| {
            let mut rng = XorShift::new(cseed);
            let program = FuzzKernel::generate_sized(&mut rng, opts.size);
            let input = FuzzKernel::gen_input(&mut rng);
            let expected = ExpectedWrites::of(&program, &input);
            (program, input, expected)
        });
        match run_checks(program, input, expected, config, case) {
            Ok(checked) => (checked, None),
            Err(finding) => {
                // Shrink: keep any simplification that still fails this
                // config (any failure detail counts, not just the same).
                let checks = |cand: &FuzzKernel| {
                    run_checks(cand, input, &ExpectedWrites::of(cand, input), config, case)
                };
                let minimized = program.shrink(|cand| checks(cand).is_err());
                let mut finding = checks(&minimized).err().unwrap_or(finding);
                let repro = render_repro(
                    &minimized,
                    input,
                    opts.seed,
                    case,
                    cseed,
                    config,
                    &finding.detail,
                );
                let written = write_repro(&opts.out_dir, case, config, &repro)
                    .map(|p| format!(", repro: {}", p.display()))
                    .unwrap_or_default();
                finding.detail += &format!(
                    " [case seed {cseed:#x}, {} -> {} stmts{written}]",
                    program.count_stmts(),
                    minimized.count_stmts()
                );
                (0, Some(finding))
            }
        }
    };
    let results = map_parallel_grouped(
        total,
        ncfg,
        workers,
        &run_cell,
        |_, _: &(u64, Option<Finding>)| {},
    );

    FuzzReport {
        cases: opts.cases,
        configs: configs.into_iter().map(|c| c.label).collect(),
        checked_instructions: results.iter().map(|(checked, _)| checked).sum(),
        verdict: results.into_iter().filter_map(|(_, f)| f).collect(),
        wall: start.elapsed(),
    }
}

/// Builds the launchable kernel for a case under a config: the config's
/// compile plan over the generated program.
fn build_kernel(program: &FuzzKernel, config: &Config, case: u64) -> Kernel {
    // Generated control flow is structured by construction and the hint
    // producer is gated separately (the lint check), so the plan refusing
    // a case is itself a generator/compiler bug.
    match CompilePlan::of(config).apply(program.build(&format!("fuzz_case_{case}"))) {
        Ok((kernel, _)) => kernel,
        Err(e) => panic!("fuzz case {case}: {e}"),
    }
}

/// Launches a fuzz-shaped kernel on `gpu`: `input` written at
/// [`fuzz::INPUT_BASE`], the fixed [`FuzzKernel::dims`] grid and
/// [`fuzz::PARAMS`].
pub(crate) fn launch_case(gpu: &mut Gpu, kernel: &Kernel, input: &[u32]) -> LaunchResult {
    gpu.global_mut()
        .write_slice_u32(u64::from(fuzz::INPUT_BASE), input);
    gpu.launch(kernel, FuzzKernel::dims(), &fuzz::PARAMS)
}

/// A program's host-model writes on its input ([`FuzzKernel::expected`]),
/// packed to be kept for every launch of the program: the written words
/// in order, and the runs of consecutive addresses they fill (a
/// program's outputs are one run, its scratch stores a few short ones).
pub(crate) struct ExpectedWrites {
    /// `(first address, words)` of each run, in write order. The fuzz
    /// memory map is 32-bit ([`fuzz::OUT_BASE`], [`fuzz::SCRATCH_BASE`]).
    runs: Box<[(u32, u32)]>,
    values: Box<[u32]>,
}

impl ExpectedWrites {
    /// Runs the host model of `program` on `input`.
    pub(crate) fn of(program: &FuzzKernel, input: &[u32]) -> ExpectedWrites {
        let writes = program.expected(input);
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &(addr, _) in &writes {
            let addr = u32::try_from(addr).expect("fuzz addresses are 32-bit");
            match runs.last_mut() {
                Some((first, words)) if *first + 4 * *words == addr => *words += 1,
                _ => runs.push((addr, 1)),
            }
        }
        ExpectedWrites {
            runs: runs.into(),
            values: writes.iter().map(|&(_, v)| v).collect(),
        }
    }

    /// Each run as its first address and the words written to it, in
    /// the host model's order.
    fn runs(&self) -> impl Iterator<Item = (u64, &[u32])> + '_ {
        let mut rest = &self.values[..];
        self.runs.iter().map(move |&(first, words)| {
            let (run, later) = rest.split_at(words as usize);
            rest = later;
            (u64::from(first), run)
        })
    }

    /// Every `(address, word)` write, in the host model's order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let run = |&(first, words): &(u32, u32)| (first..first + 4 * words).step_by(4);
        let addrs = self.runs.iter().flat_map(run).map(u64::from);
        addrs.zip(self.values.iter().copied())
    }
}

/// The oracle-then-host-model judgement of one launch of a generated
/// kernel, shared by the fuzzer and the corpus sweep: the oracle's first
/// mismatch, else the first word of `expected` that differs in `global`.
/// [`Check::of_failed`] tells the two apart.
pub(crate) fn judge_case(
    expected: &ExpectedWrites,
    result: &LaunchResult,
    global: &GlobalMemory,
) -> Result<(), String> {
    result.oracle_verdict()?;
    // Each run is gathered a warp's width at a time into one stack buffer,
    // so the judgement allocates nothing.
    const CHUNK: usize = 32;
    let mut buf = [0u32; CHUNK];
    for (first, wants) in expected.runs() {
        for (c, wants) in wants.chunks(CHUNK).enumerate() {
            let base = first + 4 * (c * CHUNK) as u64;
            let got = &mut buf[..wants.len()];
            global.gather((0..wants.len()).map(|i| (i, base + 4 * i as u64)), got);
            if let Some(i) = (0..wants.len()).find(|&i| got[i] != wants[i]) {
                let (addr, got, want) = (base + 4 * i as u64, got[i], wants[i]);
                return Err(format!(
                    "host model: mem[{addr:#x}] = {got:#x}, expected {want:#x}"
                ));
            }
        }
    }
    Ok(())
}

/// Runs one (program, input, config) cell through the checks, `expected`
/// being the program's host-model writes on `input`. Returns the number
/// of lockstep-checked instructions on agreement, or the first check's
/// finding.
fn run_checks(
    program: &FuzzKernel,
    input: &[u32],
    expected: &ExpectedWrites,
    config: &Config,
    case: u64,
) -> Result<u64, Finding> {
    let kernel = build_kernel(program, config, case);
    let finding = |check, detail: String| Finding::new(check, &kernel.name, &config.label, detail);

    // Lint: the static residency verifier must accept the annotated
    // kernel before it is allowed anywhere near the pipeline. A rejection
    // is a hint-producer bug, pinned here rather than surfacing as a
    // hint violation in the sanitizer check.
    if let Some(window) = CompilePlan::of(config).hints {
        let audit = verify_hints(&kernel, window as usize);
        if !audit.is_sound() {
            let pcs: Vec<String> = audit.unsound().map(|f| f.pc.to_string()).collect();
            let detail = format!(
                "static verifier: unsound hint(s) at pc [{}]",
                pcs.join(", ")
            );
            return Err(finding(Check::Lint, detail));
        }
    }

    // One launch carries the oracle and the sanitizer: both subscribe to
    // its event stream.
    let mut gpu_cfg = config.gpu.clone();
    gpu_cfg.max_cycles = FUZZ_MAX_CYCLES;
    gpu_cfg.oracle_check = OracleCheck::Lockstep;
    gpu_cfg.sanitize = true;
    let mut gpu = Gpu::new(gpu_cfg);
    let result = launch_case(&mut gpu, &kernel, input);
    let oracle = result
        .oracle
        .as_ref()
        .expect("oracle_check attaches the oracle");
    if !oracle.completed {
        let detail = "oracle did not complete (runaway generated kernel?)".into();
        return Err(finding(Check::Oracle, detail));
    }
    if !result.completed {
        let detail = format!("pipeline hit the {FUZZ_MAX_CYCLES}-cycle watchdog");
        return Err(finding(Check::Oracle, detail));
    }

    // Oracle, then reference: lockstep (every destination value, then the
    // instruction count), final global memory, then every written word vs
    // the independent host model — the check a shared `exec.rs` semantics
    // bug fails.
    if let Err(detail) = judge_case(expected, &result, gpu.global()) {
        return Err(finding(Check::of_failed(&result), detail));
    }

    // Sanitizer: every dynamic finding needs a static voucher. Generated
    // kernels keep barriers and exchanges convergent by construction, so
    // an unvouched finding is a sanitizer false positive, a generator
    // regression or, for a hint violation, a hint the static verifier
    // wrongly accepted.
    let dynamic = result
        .sanitizer
        .as_ref()
        .expect("sanitize flag attaches the probe");
    if !dynamic.is_clean() {
        let window = config.gpu.collector.window().unwrap_or(3);
        let opts = bow_compiler::LintOptions {
            window,
            ..Default::default()
        };
        let report = bow_compiler::lint_kernel(&kernel, &opts);
        let first = unvouched(dynamic, &report, &kernel.name, &config.label).next();
        if let Some(f) = first {
            return Err(f);
        }
    }
    Ok(oracle.checked)
}

/// Renders a minimized failing case as runnable `.asm` text with a
/// comment header carrying everything needed to reproduce it.
///
/// The kernel goes through the same preparation as the failing run —
/// including the hint pass — so the `.wb.*` suffixes that may have
/// *caused* the failure survive into the repro and round-trip through
/// `bow_isa::asm`.
fn render_repro(
    minimized: &FuzzKernel,
    input: &[u32],
    seed: u64,
    case: u64,
    case_seed: u64,
    config: &Config,
    detail: &str,
) -> String {
    let kernel = build_kernel(minimized, config, case);
    let mut s = String::new();
    s.push_str("// bow fuzz repro (minimized)\n");
    s.push_str(&format!(
        "// session seed {seed:#x}, case {case}, case seed {case_seed:#x}\n"
    ));
    s.push_str(&format!("// config: {}\n", config.label));
    s.push_str(&format!("// failure: {detail}\n"));
    let params: Vec<String> = fuzz::PARAMS.iter().map(|p| format!("{p:#x}")).collect();
    s.push_str(&format!(
        "// launch: grid ({},{}) block ({},{}), params [{}]\n",
        fuzz::GRID.0,
        fuzz::GRID.1,
        fuzz::BLOCK.0,
        fuzz::BLOCK.1,
        params.join(", ")
    ));
    s.push_str(&format!(
        "// input: {} words at {:#x}, listed below\n",
        input.len(),
        fuzz::INPUT_BASE
    ));
    for chunk in input.chunks(8) {
        let words: Vec<String> = chunk.iter().map(|w| format!("{w:#010x}")).collect();
        s.push_str(&format!("//   {}\n", words.join(" ")));
    }
    s.push('\n');
    s.push_str(&kernel.disassemble());
    s
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
    fn kept_expected_writes_replay_the_host_model_exactly() {
        for case in 0..8 {
            let mut rng = XorShift::new(case_seed(0x5eed, case));
            let program = FuzzKernel::generate_sized(&mut rng, 24);
            let input = FuzzKernel::gen_input(&mut rng);
            let kept = ExpectedWrites::of(&program, &input);
            let writes = program.expected(&input);
            assert_eq!(kept.iter().collect::<Vec<_>>(), writes, "case {case}");
            assert!(
                kept.runs.len() < writes.len() / 4,
                "case {case}: runs do not pack"
            );
        }
    }

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
        let mut rng = XorShift::new(123);
        let program = FuzzKernel::generate_sized(&mut rng, 8);
        let input = FuzzKernel::gen_input(&mut rng);
        let config = ConfigBuilder::baseline().build();
        let text = render_repro(&program, &input, 1, 2, 3, &config, "test");
        let k = bow_isa::asm::parse_kernel(&text).expect("repro is runnable asm");
        assert!(!k.insts.is_empty());
    }

    #[test]
    fn repro_round_trips_writeback_hints() {
        // Under a hinted config the repro must carry the same hints as the
        // kernel that actually failed — reparsing it reproduces the case.
        let mut rng = XorShift::new(123);
        let program = FuzzKernel::generate_sized(&mut rng, 16);
        let input = FuzzKernel::gen_input(&mut rng);
        let config = ConfigBuilder::bow_wr(3).build();
        let text = render_repro(&program, &input, 1, 2, 3, &config, "test");
        let reparsed = bow_isa::asm::parse_kernel(&text).expect("repro is runnable asm");
        let annotated = build_kernel(&program, &config, 2);
        let hints: Vec<_> = annotated.insts.iter().map(|i| i.hint).collect();
        let back: Vec<_> = reparsed.insts.iter().map(|i| i.hint).collect();
        assert_eq!(hints, back, "hints lost in the .asm round trip");
        assert!(
            text.contains(".wb."),
            "an annotated fuzz kernel should carry at least one non-default hint:\n{text}"
        );
    }
}
