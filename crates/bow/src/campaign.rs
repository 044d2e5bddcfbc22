//! One campaign module for `fuzz`, `corpus sanitize` and `lint --mutate`,
//! which judge populations of programs against independent references:
//! the program (`Program`, built by `fuzz::case_program` and
//! `corpus::program`, and also the corpus sweep's [`Benchmark`]), the
//! judged launch (`Program::judge`) and the pool (`map_programs`).
//!
//! Two verbs stay apart. `lint --mutate`'s per-mutant loop judges each
//! mutant against one oracle stream that does not depend on hints, so
//! mutants are not cells (shared code would branch on the verb); `corpus
//! sweep` stays a [`Suite`](crate::suite::Suite) run, whose run records its
//! distributions need.

use std::sync::OnceLock;

use crate::error::BowError;
use crate::experiment::{CompilePlan, Config};
use crate::sanitize_campaign::unvouched;
use crate::suite::{effective_jobs, map_parallel};
use crate::verdict::{Check, Finding};
use bow_compiler::{lint_kernel, verify_hints, LintOptions};
use bow_isa::fuzz::{self, FuzzKernel};
use bow_isa::Kernel;
use bow_mem::GlobalMemory;
use bow_sim::{Gpu, LaunchResult, OracleCheck, SanitizerReport};
use bow_workloads::{Benchmark, RunOutcome};

/// Cycle watchdog for generated programs: they are small and always
/// terminate, so hitting it means the *pipeline* hung.
const GENERATED_MAX_CYCLES: u64 = 5_000_000;

/// What a program launches.
enum Body {
    /// A generated program, shrinkable. `pruned` builds it without the
    /// prologue setup its body never observes (corpus entries).
    Generated { program: FuzzKernel, pruned: bool },
    /// A fixed kernel, launched as built.
    Fixed(Kernel),
}

/// One program of a population.
pub(crate) struct Program {
    /// The kernel's name, and the finding's.
    pub(crate) name: String,
    /// `name`, leaked at the first [`Benchmark::name`] call (a benchmark
    /// names itself with a `&'static str`): once per corpus-swept program.
    static_name: OnceLock<&'static str>,
    body: Body,
    /// The words written at [`fuzz::INPUT_BASE`] before each launch.
    pub(crate) input: Vec<u32>,
    /// The host model's writes on `input`, derived at first use.
    expected: OnceLock<ExpectedWrites>,
    /// The cycle watchdog of a judged launch.
    max_cycles: u64,
}

impl Program {
    /// A generated program on `input`.
    pub(crate) fn generated(
        name: String,
        program: FuzzKernel,
        pruned: bool,
        input: Vec<u32>,
    ) -> Program {
        let body = Body::Generated { program, pruned };
        Program::new(name, body, input, GENERATED_MAX_CYCLES)
    }

    /// A fixed kernel with no input, under a `max_cycles` watchdog.
    pub(crate) fn fixed(name: String, kernel: Kernel, max_cycles: u64) -> Program {
        Program::new(name, Body::Fixed(kernel), Vec::new(), max_cycles)
    }

    fn new(name: String, body: Body, input: Vec<u32>, max_cycles: u64) -> Program {
        Program {
            name,
            static_name: OnceLock::new(),
            body,
            input,
            expected: OnceLock::new(),
            max_cycles,
        }
    }

    /// The program as authored.
    pub(crate) fn kernel(&self) -> Kernel {
        match &self.body {
            Body::Generated { program, pruned } if *pruned => program.build_pruned(&self.name),
            Body::Generated { program, .. } => program.build(&self.name),
            Body::Fixed(kernel) => kernel.clone(),
        }
    }

    /// The launchable form under `design`: its compile plan over
    /// [`kernel`](Self::kernel).
    pub(crate) fn kernel_under(&self, design: &Config) -> Result<Kernel, BowError> {
        Ok(CompilePlan::of(design).apply(self.kernel())?.0)
    }

    /// The statements of a generated body (a fixed one has none).
    pub(crate) fn stmts(&self) -> usize {
        match &self.body {
            Body::Generated { program, .. } => program.count_stmts(),
            Body::Fixed(_) => 0,
        }
    }

    /// The host model's writes on the input, shared by every cell; `None`
    /// for a fixed body, which has no host model.
    fn expected(&self) -> Option<&ExpectedWrites> {
        let Body::Generated { program, .. } = &self.body else {
            return None;
        };
        let host = || ExpectedWrites::of(program, &self.input);
        Some(self.expected.get_or_init(host))
    }

    /// The minimal program [`FuzzKernel::shrink`] reaches on the same
    /// input, keeping every simplification that still `fails`; `None` for
    /// a fixed body.
    pub(crate) fn shrink(&self, fails: impl Fn(&Program) -> bool) -> Option<Program> {
        let Body::Generated { program, pruned } = &self.body else {
            return None;
        };
        let with = |program: &FuzzKernel| {
            let (program, pruned) = (program.clone(), *pruned);
            let body = Body::Generated { program, pruned };
            Program::new(self.name.clone(), body, self.input.clone(), self.max_cycles)
        };
        Some(with(&program.shrink(|cand| fails(&with(cand)))))
    }

    /// Launches `kernel`, a launchable form of the program, once on its
    /// input under `design` and its watchdog, judged by `checks`: `Lint`
    /// (the hint verifier must accept `kernel` when the design runs the
    /// hint pass, or nothing launches), `Oracle` (the lockstep oracle rides
    /// the launch; it and the pipeline must finish and agree), `Reference`
    /// (then every host-model write must match memory) and `Sanitizer`
    /// (each dynamic finding needs a static voucher, [`unvouched`]). A
    /// design that attaches the sanitizer itself gets its report without
    /// the voucher rule.
    pub(crate) fn judge(&self, kernel: &Kernel, design: &Config, checks: &[Check]) -> Judged {
        let asked = |check| checks.contains(&check);
        let finding =
            |check, detail: String| Finding::new(check, &self.name, &design.label, detail);
        if let Some(window) = CompilePlan::of(design).hints.filter(|_| asked(Check::Lint)) {
            let audit = verify_hints(kernel, window as usize);
            if !audit.is_sound() {
                let pcs: Vec<String> = audit.unsound().map(|f| f.pc.to_string()).collect();
                let pcs = pcs.join(", ");
                let detail = format!("static verifier: unsound hint(s) at pc [{pcs}]");
                let findings = vec![finding(Check::Lint, detail)];
                return Judged {
                    findings,
                    ..Judged::default()
                };
            }
        }

        // One launch carries the oracle and the sanitizer: both subscribe to
        // its event stream, and the reference reads the memory it left.
        let mut gpu_cfg = design.gpu.clone();
        gpu_cfg.max_cycles = self.max_cycles;
        if asked(Check::Oracle) {
            gpu_cfg.oracle_check = OracleCheck::Lockstep;
        }
        gpu_cfg.sanitize |= asked(Check::Sanitizer);
        let mut gpu = Gpu::new(gpu_cfg);
        let result = launch_case(&mut gpu, kernel, &self.input);

        let (oracle, watchdog) = (result.oracle.as_ref(), self.max_cycles);
        let agreed = || match oracle {
            Some(o) if !o.completed => {
                Err("oracle did not complete (runaway generated kernel?)".into())
            }
            Some(_) if !result.completed => {
                Err(format!("pipeline hit the {watchdog}-cycle watchdog"))
            }
            _ => result.oracle_verdict(),
        };
        let reference = || match asked(Check::Reference).then(|| self.expected()) {
            Some(Some(expected)) => expected.judge(gpu.global()),
            _ => Ok(()),
        };
        let mut findings = Vec::new();
        if let Err(detail) = agreed() {
            findings.push(finding(Check::Oracle, detail));
        } else if let Err(detail) = reference() {
            findings.push(finding(Check::Reference, detail));
        }
        if asked(Check::Sanitizer) {
            let dynamic = result
                .sanitizer
                .as_ref()
                .expect("the sanitizer check attaches the probe");
            if !dynamic.is_clean() {
                let window = design.gpu.collector.window().unwrap_or(3);
                let opts = LintOptions {
                    window,
                    ..Default::default()
                };
                let report = lint_kernel(kernel, &opts);
                findings.extend(unvouched(dynamic, &report, &self.name, &design.label));
            }
        }
        Judged {
            findings,
            checked: oracle.map_or(0, |o| o.checked),
            sanitizer: result.sanitizer,
            completed: result.completed,
        }
    }
}

/// A corpus sweep's benchmark: the suite pool, its prepared-kernel cache
/// and its progress lines drive the program, judged by the oracle and
/// then the host model.
impl Benchmark for Program {
    fn name(&self) -> &'static str {
        let leak = || &*Box::leak(self.name.clone().into_boxed_str());
        self.static_name.get_or_init(leak)
    }

    fn suite(&self) -> &'static str {
        "corpus"
    }

    fn description(&self) -> &'static str {
        "stratified corpus kernel"
    }

    fn kernel(&self) -> Kernel {
        Program::kernel(self)
    }

    fn run_with(&self, gpu: &mut Gpu, kernel: &Kernel) -> RunOutcome {
        let result = launch_case(gpu, kernel, &self.input);
        let host = |e: &ExpectedWrites| e.judge(gpu.global());
        let checked = result
            .oracle_verdict()
            .and_then(|()| self.expected().map_or(Ok(()), host));
        RunOutcome { result, checked }
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
struct ExpectedWrites {
    /// `(first address, words)` of each run, in write order. The fuzz
    /// memory map is 32-bit ([`fuzz::OUT_BASE`], [`fuzz::SCRATCH_BASE`]).
    runs: Box<[(u32, u32)]>,
    values: Box<[u32]>,
}

impl ExpectedWrites {
    /// Runs the host model of `program` on `input`.
    fn of(program: &FuzzKernel, input: &[u32]) -> ExpectedWrites {
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

    /// The first written word that differs in `global`, in the host
    /// model's order.
    fn judge(&self, global: &GlobalMemory) -> Result<(), String> {
        // Each run is gathered a warp's width at a time into one stack
        // buffer, so the judgement allocates nothing.
        const CHUNK: usize = 32;
        let mut buf = [0u32; CHUNK];
        let mut rest = &self.values[..];
        for &(first, words) in &self.runs {
            let (run, later) = rest.split_at(words as usize);
            rest = later;
            for (c, wants) in run.chunks(CHUNK).enumerate() {
                let base = u64::from(first) + 4 * (c * CHUNK) as u64;
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
}

/// What one judged launch saw.
#[derive(Default)]
pub(crate) struct Judged {
    /// The asked checks' findings, in [`Check`] order.
    pub(crate) findings: Vec<Finding>,
    /// Instructions the lockstep oracle checked (0 without it).
    pub(crate) checked: u64,
    /// The race sanitizer's report, when the launch attached it.
    pub(crate) sanitizer: Option<SanitizerReport>,
    /// Whether the pipeline finished within the watchdog.
    pub(crate) completed: bool,
}

/// The campaign pool: `cells` over programs `0..count` on `jobs` workers
/// (`0` = all cores), one task per program. A task derives its program
/// (`None`: nothing to judge, no result), judges it and drops it, so a
/// program's design cells run back to back on one thread in the task's
/// [`share_runs`](bow_sim::oracle::share_runs) scope and share one oracle
/// run at any `jobs`. Results come back in program order.
pub(crate) fn map_programs<T: Send>(
    count: usize,
    jobs: usize,
    program: impl Fn(usize) -> Option<Program> + Sync,
    cells: impl Fn(usize, &Program) -> T + Sync,
) -> Vec<Option<T>> {
    let workers = effective_jobs(jobs).min(count.max(1));
    let task = |i: usize| program(i).map(|p| cells(i, &p));
    map_parallel(count, workers, &task, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::case_seed;
    use bow_util::XorShift;

    #[test]
    fn kept_expected_writes_replay_the_host_model_exactly() {
        for case in 0..8 {
            let mut rng = XorShift::new(case_seed(0x5eed, case));
            let program = FuzzKernel::generate_sized(&mut rng, 24);
            let input = FuzzKernel::gen_input(&mut rng);
            let kept = ExpectedWrites::of(&program, &input);
            let writes = program.expected(&input);
            let run = |&(first, words): &(u32, u32)| (first..first + 4 * words).step_by(4);
            let addrs = kept.runs.iter().flat_map(run).map(u64::from);
            let replayed: Vec<(u64, u32)> = addrs.zip(kept.values.iter().copied()).collect();
            assert_eq!(replayed, writes, "case {case}");
            assert!(
                kept.runs.len() < writes.len() / 4,
                "case {case}: runs do not pack"
            );
            // The judgement reads the writes back from memory.
            let mut global = GlobalMemory::new();
            assert!(kept.judge(&global).is_err(), "case {case}");
            for &(addr, word) in &writes {
                global.write_u32(addr, word);
            }
            assert_eq!(kept.judge(&global), Ok(()), "case {case}");
        }
    }
}
