//! The mutation sanitizer: does the static hint verifier catch *every*
//! unsound write-back hint that actually loses a value?
//!
//! [`run_mutation`] generates the same deterministic kernel corpus as the
//! fuzzer ([`crate::fuzz`]), annotates each kernel with the §IV-B hint
//! pass, and then flips sound hints to `BocOnly` one static write at a
//! time — the exact corruption an incorrect hint producer would commit.
//! Every mutant is judged twice, by two independent layers:
//!
//! * **Ground truth** — the mutant's *dynamic* per-warp instruction
//!   streams (extracted from the [`bow_sim::oracle`] write log, which is
//!   hint-independent) replay through [`ArchWindow`], the architectural
//!   operand window the race sanitizer and Fig. 3 share: reads re-touch
//!   entries, entries evict at `window` instructions since last touch, a
//!   dirty `BocOnly` eviction drops the value, an `RfOnly` write-back
//!   invalidates a superseded buffered copy, and a guarded rewrite does
//!   not revive a dropped value on the lanes it leaves alone. A read that
//!   observes a register-file generation older than the architectural
//!   one is a *stale read*: the mutant is ground-truth unsound.
//! * **The accused** — [`bow_compiler::verify_hints`], the path-sensitive
//!   static verifier under audit.
//!
//! The sanitizer's contract is the verifier's conservativeness theorem:
//! every ground-truth-unsound mutant must be statically flagged. A missed
//! mutant is a verifier bug and fails the run. The reverse direction is
//! reported but not enforced — the verifier is deliberately conservative
//! (lane-mask-blind outside serialized diamonds, guarded redefinitions
//! are only may-kills, dynamic rescues ignored), so statically-flagged
//! but dynamically-clean mutants are counted as `overcautious`.
//!
//! Every ground-truth-unsound mutant is also launched once on the bow-wr
//! pipeline with the race sanitizer attached, and must draw a
//! `hint-violation` finding. The sanitizer replays the stream the
//! pipeline dispatched, not the oracle's log, through the same
//! [`ArchWindow`], so the confirmation checks that the cycle-level
//! pipeline executes the dynamic stream the ground truth judged.

use std::time::{Duration, Instant};

use crate::experiment::{CompilePlan, ConfigBuilder};
use crate::fuzz::{case_seed, launch_case, FUZZ_MAX_CYCLES};
use crate::suite::{effective_jobs, map_parallel};
use bow_compiler::verify_hints;
use bow_isa::fuzz::{self, FuzzKernel};
use bow_isa::{Kernel, Reg, WritebackHint};
use bow_sim::oracle::run_oracle;
use bow_sim::{ArchWindow, CoreModelKind, DivergenceModel, Gpu, SanitizerFinding};
use bow_util::json::Json;
use bow_util::XorShift;

/// Options for one sanitizer session.
#[derive(Clone, Debug)]
pub struct MutateOptions {
    /// Number of generated corpus kernels.
    pub cases: u64,
    /// Master seed (shares [`case_seed`] derivation with the fuzzer).
    pub seed: u64,
    /// Worker threads (`0` = all cores).
    pub jobs: usize,
    /// Statement budget per generated program.
    pub size: usize,
    /// Operand-window size to annotate, mutate and replay under.
    pub window: u32,
    /// `passed()` requires at least this many injected mutants…
    pub min_mutants: u64,
    /// …and at least this many of them ground-truth unsound.
    pub min_unsound: u64,
    /// Print per-case progress to stderr.
    pub progress: bool,
    /// Reconvergence machinery the campaign runs under. `Barrier` lowers
    /// every annotated kernel (and so every mutant) to convergence
    /// barriers, auditing the verifier's barrier-form serialization model
    /// with the same replay and sanitizer confirmation.
    pub divergence: DivergenceModel,
}

impl MutateOptions {
    /// The full fixed-seed campaign: ≥500 ground-truth-unsound mutants.
    pub fn full() -> MutateOptions {
        MutateOptions {
            cases: 64,
            seed: 0x5eed_b0c5,
            jobs: 0,
            size: 24,
            window: 3,
            min_mutants: 800,
            min_unsound: 500,
            progress: false,
            divergence: DivergenceModel::Stack,
        }
    }

    /// The CI smoke configuration: ≥64 injected mutants.
    pub fn smoke() -> MutateOptions {
        MutateOptions {
            cases: 8,
            min_mutants: 64,
            min_unsound: 20,
            ..MutateOptions::full()
        }
    }
}

/// A ground-truth-unsound mutant the static verifier failed to flag —
/// a verifier bug.
#[derive(Clone, Debug)]
pub struct MissedMutant {
    /// Corpus case index.
    pub case: u64,
    /// Derived per-case seed (regenerates the kernel alone).
    pub case_seed: u64,
    /// The mutated write.
    pub pc: usize,
    /// Its destination register.
    pub reg: Reg,
    /// The sound hint that was flipped to `BocOnly`.
    pub hint_was: WritebackHint,
    /// Stale reads the replayer observed.
    pub stale_reads: u64,
}

/// The outcome of a sanitizer session.
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// Corpus kernels generated.
    pub cases: u64,
    /// Window size used throughout.
    pub window: u32,
    /// Injected mutants (one per sound `Both`/`RfOnly` write).
    pub mutants_total: u64,
    /// Mutants the replayer proved lose a live value.
    pub mutants_unsound: u64,
    /// Unsound mutants the verifier flagged (must equal `mutants_unsound`).
    pub caught: u64,
    /// Unsound mutants the verifier missed (must be empty).
    pub missed: Vec<MissedMutant>,
    /// Statically flagged but dynamically clean (conservatism, not a bug).
    pub overcautious: u64,
    /// Neither flagged nor dynamically unsound (e.g. all reads in-window).
    pub benign: u64,
    /// Stale reads in *unmutated* annotated kernels (must be 0).
    pub baseline_stale_reads: u64,
    /// Unmutated annotated kernels the verifier rejected (must be 0).
    pub baseline_rejected: u64,
    /// Unsound mutants whose sanitized pipeline launch reported a hint
    /// violation (must equal `mutants_unsound`).
    pub sanitizer_confirmed: u64,
    /// Floors copied from the options, for `passed()`.
    pub min_mutants: u64,
    /// See `min_mutants`.
    pub min_unsound: u64,
    /// Wall-clock time of the session.
    pub wall: Duration,
}

impl MutationReport {
    /// Whether the session upholds the sanitizer contract.
    pub fn passed(&self) -> bool {
        self.missed.is_empty()
            && self.baseline_stale_reads == 0
            && self.baseline_rejected == 0
            && self.mutants_total >= self.min_mutants
            && self.mutants_unsound >= self.min_unsound
            && self.sanitizer_confirmed == self.mutants_unsound
    }

    /// A one-paragraph human summary.
    pub fn summary(&self) -> String {
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let mut s = format!(
            "mutation sanitizer: {verdict} — {} kernels, {} mutants injected \
             (window {}), {} ground-truth unsound, {} caught, {} missed, \
             {} overcautious, {} benign; sanitizer confirmed {}/{} \
             unsound; {:.1}s",
            self.cases,
            self.mutants_total,
            self.window,
            self.mutants_unsound,
            self.caught,
            self.missed.len(),
            self.overcautious,
            self.benign,
            self.sanitizer_confirmed,
            self.mutants_unsound,
            self.wall.as_secs_f64()
        );
        if self.baseline_rejected > 0 || self.baseline_stale_reads > 0 {
            s.push_str(&format!(
                "; BASELINE BROKEN ({} rejected, {} stale reads)",
                self.baseline_rejected, self.baseline_stale_reads
            ));
        }
        for m in &self.missed {
            s.push_str(&format!(
                "\n  MISSED: case {} (seed {:#x}) pc {} {} {:?}->BocOnly, {} stale read(s)",
                m.case, m.case_seed, m.pc, m.reg, m.hint_was, m.stale_reads
            ));
        }
        s
    }

    /// The report as a JSON object (the CI artifact format).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("passed", Json::Bool(self.passed())),
            ("cases", Json::Num(self.cases as f64)),
            ("window", Json::Num(f64::from(self.window))),
            ("mutants_total", Json::Num(self.mutants_total as f64)),
            ("mutants_unsound", Json::Num(self.mutants_unsound as f64)),
            ("caught", Json::Num(self.caught as f64)),
            ("missed", Json::Num(self.missed.len() as f64)),
            ("overcautious", Json::Num(self.overcautious as f64)),
            ("benign", Json::Num(self.benign as f64)),
            (
                "baseline_stale_reads",
                Json::Num(self.baseline_stale_reads as f64),
            ),
            (
                "baseline_rejected",
                Json::Num(self.baseline_rejected as f64),
            ),
            (
                "sanitizer_confirmed",
                Json::Num(self.sanitizer_confirmed as f64),
            ),
            ("wall_seconds", Json::Num(self.wall.as_secs_f64())),
        ])
    }
}

/// One warp's dynamic instruction stream: `(seq, pc, mask)` in issue
/// order. Control instructions are absent but still consumed their
/// sequence numbers, so window distances computed over `seq` are exact.
type WarpStream = Vec<(u64, usize, u32)>;

/// Total stale reads across every warp of a launch.
fn replay_kernel(kernel: &Kernel, streams: &[WarpStream], window: u32) -> u64 {
    let mut stale = 0u64;
    for stream in streams {
        ArchWindow::replay(window, kernel, stream, |_, _, _, _| stale += 1);
    }
    stale
}

/// Per-case tallies folded into the session report.
#[derive(Clone, Debug, Default)]
struct CaseOutcome {
    mutants_total: u64,
    mutants_unsound: u64,
    caught: u64,
    missed: Vec<MissedMutant>,
    overcautious: u64,
    benign: u64,
    baseline_stale_reads: u64,
    baseline_rejected: u64,
    sanitizer_confirmed: u64,
}

/// Runs a sanitizer session. Deterministic for a given `(seed, cases,
/// size, window)` at any worker count.
pub fn run_mutation(opts: &MutateOptions) -> MutationReport {
    let start = Instant::now();
    let total = opts.cases as usize;
    let workers = effective_jobs(opts.jobs).min(total.max(1));
    let run_case = |case_idx: usize| run_one_case(opts, case_idx as u64);
    let progress = opts.progress;
    let results = map_parallel(total, workers, &run_case, |done, o: &CaseOutcome| {
        if progress {
            eprintln!(
                "[{done:>3}/{total}] +{} mutants ({} unsound, {} missed)",
                o.mutants_total,
                o.mutants_unsound,
                o.missed.len()
            );
        }
    });

    let mut report = MutationReport {
        cases: opts.cases,
        window: opts.window,
        mutants_total: 0,
        mutants_unsound: 0,
        caught: 0,
        missed: Vec::new(),
        overcautious: 0,
        benign: 0,
        baseline_stale_reads: 0,
        baseline_rejected: 0,
        sanitizer_confirmed: 0,
        min_mutants: opts.min_mutants,
        min_unsound: opts.min_unsound,
        wall: Duration::default(),
    };
    for o in results {
        report.mutants_total += o.mutants_total;
        report.mutants_unsound += o.mutants_unsound;
        report.caught += o.caught;
        report.missed.extend(o.missed);
        report.overcautious += o.overcautious;
        report.benign += o.benign;
        report.baseline_stale_reads += o.baseline_stale_reads;
        report.baseline_rejected += o.baseline_rejected;
        report.sanitizer_confirmed += o.sanitizer_confirmed;
    }
    report.wall = start.elapsed();
    report
}

/// Corpus case `case`, annotated at the campaign window, with its input.
/// Under the barrier model the pipeline executes the lowered form, so that
/// is what gets mutated and verified. `None` when the compile plan
/// refuses the kernel.
fn annotated_case(opts: &MutateOptions, case: u64) -> Option<(Kernel, Vec<u32>)> {
    let mut rng = XorShift::new(case_seed(opts.seed, case));
    let program = FuzzKernel::generate_sized(&mut rng, opts.size);
    let input = FuzzKernel::gen_input(&mut rng);
    let plan = CompilePlan {
        reorder: false,
        hints: Some(opts.window),
        verify: false,
        divergence: opts.divergence,
        core_model: CoreModelKind::Pascal,
    };
    let (annotated, _) = plan
        .apply(program.build(&format!("mutate_case_{case}")))
        .ok()?;
    Some((annotated, input))
}

fn run_one_case(opts: &MutateOptions, case: u64) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let cseed = case_seed(opts.seed, case);
    // Generated control flow is structured by construction; a refusal
    // here is a generator/compiler bug and is surfaced through the
    // baseline-rejected counter (must stay 0).
    let Some((annotated, input)) = annotated_case(opts, case) else {
        out.baseline_rejected += 1;
        return out;
    };

    // The unmutated annotation must be statically sound…
    if !verify_hints(&annotated, opts.window as usize).is_sound() {
        out.baseline_rejected += 1;
        return out;
    }

    // One oracle run per case: the write log is hint-independent, so the
    // same dynamic streams ground-truth every mutant of this kernel.
    let mut global = bow_mem::GlobalMemory::new();
    global.write_slice_u32(u64::from(fuzz::INPUT_BASE), &input);
    let oracle = run_oracle(&annotated, FuzzKernel::dims(), &fuzz::PARAMS, global, true);
    if !oracle.completed {
        // Runaway corpus kernel: nothing to ground-truth against. The
        // generator is designed to always terminate, so surface loudly.
        out.baseline_rejected += 1;
        return out;
    }
    let mut by_uid: std::collections::BTreeMap<u64, WarpStream> = std::collections::BTreeMap::new();
    for (&(uid, seq), rec) in &oracle.log {
        by_uid.entry(uid).or_default().push((seq, rec.pc, rec.mask));
    }
    let streams: Vec<WarpStream> = by_uid
        .into_values()
        .map(|mut s| {
            s.sort_unstable();
            s
        })
        .collect();

    // …and dynamically clean.
    out.baseline_stale_reads = replay_kernel(&annotated, &streams, opts.window);
    if out.baseline_stale_reads > 0 {
        return out;
    }

    // Flip every sound RF-bound hint to BocOnly, one at a time.
    for pc in 0..annotated.insts.len() {
        let inst = &annotated.insts[pc];
        let Some(reg) = inst.dst_reg() else { continue };
        if inst.hint == WritebackHint::BocOnly {
            continue;
        }
        let hint_was = inst.hint;
        let mut mutant = annotated.clone();
        mutant.insts[pc].hint = WritebackHint::BocOnly;
        out.mutants_total += 1;

        let stale_reads = replay_kernel(&mutant, &streams, opts.window);
        let flagged = !verify_hints(&mutant, opts.window as usize).is_sound();
        if stale_reads > 0 {
            out.mutants_unsound += 1;
            if sanitizer_confirms(&mutant, &input, opts.window) {
                out.sanitizer_confirmed += 1;
            }
        }
        match (stale_reads > 0, flagged) {
            (true, true) => out.caught += 1,
            (true, false) => {
                out.missed.push(MissedMutant {
                    case,
                    case_seed: cseed,
                    pc,
                    reg,
                    hint_was,
                    stale_reads,
                });
            }
            (false, true) => out.overcautious += 1,
            (false, false) => out.benign += 1,
        }
    }
    out
}

/// Launches `mutant` once on the bow-wr pipeline with the race sanitizer
/// attached; true when its hint replay reports a hint violation.
fn sanitizer_confirms(mutant: &Kernel, input: &[u32], window: u32) -> bool {
    let mut gpu_cfg = ConfigBuilder::bow_wr(window).sanitize(true).build().gpu;
    gpu_cfg.max_cycles = FUZZ_MAX_CYCLES;
    let result = launch_case(&mut Gpu::new(gpu_cfg), mutant, input);
    let report = result.sanitizer.expect("sanitize flag attaches the probe");
    report
        .findings
        .iter()
        .any(|f| matches!(f, SanitizerFinding::HintViolation { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "full campaign; run with --ignored or via `bow-cli lint --mutate`"]
    fn full_session_meets_the_unsound_floor() {
        let report = run_mutation(&MutateOptions::full());
        assert!(report.passed(), "{}", report.summary());
        assert!(report.mutants_unsound >= 500, "{}", report.summary());
    }

    #[test]
    fn smoke_session_catches_every_unsound_mutant() {
        let report = run_mutation(&MutateOptions {
            jobs: 2,
            progress: false,
            ..MutateOptions::smoke()
        });
        assert!(report.passed(), "{}", report.summary());
        // The ground truth's exact numbers: a change to the window rule
        // shows up here as a diff, not as a silent shift.
        let counts = "8 kernels, 198 mutants injected (window 3), 179 ground-truth unsound, \
                      179 caught, 0 missed, 18 overcautious, 1 benign; sanitizer \
                      confirmed 179/179 unsound";
        assert!(report.summary().contains(counts), "{}", report.summary());
        let json = report.to_json().to_string_compact();
        assert!(json.contains("\"passed\":true"), "{json}");
    }

    #[test]
    fn sanitizer_confirms_a_value_dropped_behind_an_all_false_guard() {
        // Full campaign, case 18: `@p3 isub r12, r12, r9` (pc 53) runs with
        // p3 false on every lane. It still takes its window slot, so its
        // BocOnly write replaces the buffered `fmin r12` snapshot and drops
        // it at eviction; the `stg` of r12 six instructions later reads the
        // register file's older copy. The ground truth replays that slot;
        // the sanitizer used to skip it.
        let opts = MutateOptions::full();
        let (annotated, input) = annotated_case(&opts, 18).expect("case 18 compiles");
        let mut mutant = annotated;
        assert!(mutant.insts[53].guard.is_some(), "{}", mutant.insts[53]);
        mutant.insts[53].hint = WritebackHint::BocOnly;
        assert!(sanitizer_confirms(&mutant, &input, opts.window));
    }

    #[test]
    fn barrier_smoke_session_catches_every_unsound_mutant() {
        // Same campaign with every kernel lowered to convergence barriers:
        // the verifier's barrier-form serialization model must catch the
        // same class of injected hint bugs, with no baseline rejections
        // (lowering must accept every generated kernel).
        let report = run_mutation(&MutateOptions {
            jobs: 2,
            progress: false,
            divergence: DivergenceModel::Barrier,
            ..MutateOptions::smoke()
        });
        assert!(report.passed(), "{}", report.summary());
        assert_eq!(report.baseline_rejected, 0, "{}", report.summary());
        assert!(report.mutants_unsound > 0, "{}", report.summary());
    }
}
