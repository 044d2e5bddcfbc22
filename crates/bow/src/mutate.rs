//! The mutation sanitizer: does the static hint verifier catch *every*
//! unsound write-back hint that actually loses a value?
//!
//! [`run_mutation`] takes the fuzzer's cases ([`crate::fuzz`]), annotates
//! each with the §IV-B hint pass, and flips sound hints to `BocOnly` one
//! static write at a time — the exact corruption an incorrect hint
//! producer would commit. Every mutant is judged by two independent
//! layers:
//!
//! * **Ground truth** — the unmutated kernel's *dynamic* per-warp streams
//!   (from the [`bow_sim::oracle`] write log, which does not depend on
//!   hints) replay through [`ArchWindow`], the architectural operand
//!   window the race sanitizer and Fig. 3 share. A read that observes a
//!   register-file generation older than the architectural one is a
//!   *stale read*: the mutant is ground-truth unsound.
//! * **The accused** — [`bow_compiler::verify_hints`], the path-sensitive
//!   static verifier under audit.
//!
//! The contract is the verifier's conservativeness theorem: every
//! ground-truth-unsound mutant must be statically flagged, or it is a
//! verifier bug and a [`Finding`] of the run's [`Verdict`]. The reverse
//! is reported, not enforced: the verifier is deliberately conservative
//! (lane-mask-blind outside serialized diamonds, guarded redefinitions
//! are only may-kills), so flagged but dynamically clean mutants count as
//! `overcautious`.
//!
//! Every unsound mutant must also draw a `hint-violation` from one
//! sanitized bow-wr launch (the campaign module's judged launch), whose
//! replay of the dispatched stream through the same [`ArchWindow`] checks
//! that the pipeline executes the stream the ground truth judged. An
//! unconfirmed mutant is a finding too, as is an unmutated annotation
//! that is not clean and a session below its mutant floors. The
//! per-mutant loop stays here, not in the campaign's cells: every mutant
//! of a case is judged against one oracle stream.

use std::time::{Duration, Instant};

use crate::campaign::{map_programs, Program};
use crate::experiment::{Config, ConfigBuilder};
use crate::fuzz::case_program;
use crate::verdict::{Check, Finding, Verdict};
use bow_compiler::verify_hints;
use bow_isa::fuzz::{self, FuzzKernel};
use bow_isa::{Kernel, WritebackHint};
use bow_mem::GlobalMemory;
use bow_sim::oracle::run_oracle;
use bow_sim::{ArchWindow, DivergenceModel, SanitizerFinding};
use bow_util::json::Json;

/// Options for one sanitizer session.
#[derive(Clone, Debug)]
pub struct MutateOptions {
    /// Number of generated corpus kernels.
    pub cases: u64,
    /// Master seed (shares [`case_seed`](crate::fuzz::case_seed)
    /// derivation with the fuzzer).
    pub seed: u64,
    /// Worker threads (`0` = all cores).
    pub jobs: usize,
    /// Statement budget per generated program.
    pub size: usize,
    /// Operand-window size to annotate, mutate and replay under.
    pub window: u32,
    /// A session injecting fewer mutants than this is a finding…
    pub min_mutants: u64,
    /// …and so is one with fewer ground-truth-unsound mutants than this.
    pub min_unsound: u64,
    /// Reconvergence machinery the campaign runs under. `Barrier` lowers
    /// every annotated kernel, and so every mutant, to convergence
    /// barriers.
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

/// The outcome of a sanitizer session (or, folded into it, of one case).
#[derive(Clone, Debug, Default)]
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
    /// Unsound mutants the verifier missed (must be 0).
    pub missed: u64,
    /// Statically flagged but dynamically clean (conservatism, not a bug).
    pub overcautious: u64,
    /// Neither flagged nor dynamically unsound (e.g. all reads in-window).
    pub benign: u64,
    /// Unsound mutants whose sanitized pipeline launch reported a hint
    /// violation (must equal `mutants_unsound`).
    pub sanitizer_confirmed: u64,
    /// Missed and unconfirmed mutants, unmutated kernels that are not a
    /// clean starting point, and floor shortfalls.
    pub verdict: Verdict,
    /// Wall-clock time of the session.
    pub wall: Duration,
}

impl MutationReport {
    /// The session's statistics in one line.
    pub fn summary(&self) -> String {
        format!(
            "mutation sanitizer: {} kernels, {} mutants injected (window {}), {} \
             ground-truth unsound, {} caught, {} missed, {} overcautious, {} benign; \
             sanitizer confirmed {}/{} unsound; {:.1}s\n",
            self.cases,
            self.mutants_total,
            self.window,
            self.mutants_unsound,
            self.caught,
            self.missed,
            self.overcautious,
            self.benign,
            self.sanitizer_confirmed,
            self.mutants_unsound,
            self.wall.as_secs_f64()
        )
    }

    /// The report as a JSON object (the CI artifact format).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("passed", Json::Bool(self.verdict.is_clean())),
            ("cases", Json::Num(self.cases as f64)),
            ("window", Json::Num(f64::from(self.window))),
            ("mutants_total", Json::Num(self.mutants_total as f64)),
            ("mutants_unsound", Json::Num(self.mutants_unsound as f64)),
            ("caught", Json::Num(self.caught as f64)),
            ("missed", Json::Num(self.missed as f64)),
            ("overcautious", Json::Num(self.overcautious as f64)),
            ("benign", Json::Num(self.benign as f64)),
            (
                "sanitizer_confirmed",
                Json::Num(self.sanitizer_confirmed as f64),
            ),
            ("findings", self.verdict.to_json()),
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

/// The design a session annotates, mutates and confirms under: BOW-WR
/// at the session window on the session's divergence model, with the
/// race sanitizer attached (the compile plan and the label ignore it).
fn design(opts: &MutateOptions) -> Config {
    ConfigBuilder::bow_wr(opts.window)
        .divergence(opts.divergence)
        .sanitize(true)
        .build()
}

/// Runs a sanitizer session. Deterministic for a given `(seed, cases,
/// size, window)` at any worker count.
pub fn run_mutation(opts: &MutateOptions) -> MutationReport {
    let start = Instant::now();
    let design = design(opts);
    let case = |case: usize| case_program("mutate_case", opts.seed, case as u64, opts.size);
    let outcomes = map_programs(
        opts.cases as usize,
        opts.jobs,
        |c| Some(case(c)),
        |_, program| mutate_case(program, &design, opts.window),
    );

    let mut report = MutationReport {
        cases: opts.cases,
        window: opts.window,
        ..MutationReport::default()
    };
    for o in outcomes.into_iter().flatten() {
        report.mutants_total += o.mutants_total;
        report.mutants_unsound += o.mutants_unsound;
        report.caught += o.caught;
        report.missed += o.missed;
        report.overcautious += o.overcautious;
        report.benign += o.benign;
        report.sanitizer_confirmed += o.sanitizer_confirmed;
        report.verdict.findings.extend(o.verdict.findings);
    }
    let kernels = format!("{} kernels", opts.cases);
    for (what, got, floor) in [
        ("mutants injected", report.mutants_total, opts.min_mutants),
        (
            "ground-truth-unsound mutants",
            report.mutants_unsound,
            opts.min_unsound,
        ),
    ] {
        if got < floor {
            let detail = format!("mutation: {got} {what}, below the floor of {floor}");
            let finding = Finding::new(Check::Mutation, &kernels, &design.label, detail);
            report.verdict.findings.push(finding);
        }
    }
    report.wall = start.elapsed();
    report
}

/// A corpus case's annotated kernel under `design` as the mutants'
/// starting point, with the oracle's per-warp streams. Under the barrier
/// model the pipeline executes the lowered form, so that is what gets
/// mutated and verified. The unmutated annotation must compile, be
/// statically sound, complete on the oracle and replay without a stale
/// read; `Err` says which it does not — a generator or compiler bug.
fn unmutated(
    program: &Program,
    design: &Config,
    window: u32,
) -> Result<(Kernel, Vec<WarpStream>), String> {
    let annotated = program
        .kernel_under(design)
        .map_err(|_| "the compile plan refuses the unmutated kernel")?;
    if !verify_hints(&annotated, window as usize).is_sound() {
        return Err("the verifier rejects the unmutated annotation".into());
    }

    // One oracle run per case: the write log is hint-independent, so the
    // same dynamic streams ground-truth every mutant of this kernel.
    let mut global = GlobalMemory::new();
    global.write_slice_u32(u64::from(fuzz::INPUT_BASE), &program.input);
    let oracle = run_oracle(&annotated, FuzzKernel::dims(), &fuzz::PARAMS, global, true);
    if !oracle.completed {
        // Runaway corpus kernel: nothing to ground-truth against.
        return Err("the oracle did not complete the unmutated kernel".into());
    }
    let streams: Vec<WarpStream> = (0..oracle.log.warps())
        .map(|uid| {
            let row = oracle.log.row(uid);
            row.map(|(seq, rec)| (seq, rec.pc, rec.mask)).collect()
        })
        .collect();
    match replay_kernel(&annotated, &streams, window) {
        0 => Ok((annotated, streams)),
        stale => Err(format!("{stale} stale read(s) in the unmutated annotation")),
    }
}

/// Whether one sanitized launch of `mutant` on `program`'s input under
/// `design` reports a hint violation.
fn confirms(program: &Program, mutant: &Kernel, design: &Config) -> bool {
    let report = program.judge(mutant, design, &[]).sanitizer;
    let report = report.expect("the design attaches the sanitizer");
    report
        .findings
        .iter()
        .any(|f| matches!(f, SanitizerFinding::HintViolation { .. }))
}

/// The mutant loop over one case: every sound RF-bound hint of its
/// annotation flipped to `BocOnly`, one at a time, each judged by the
/// replayed ground truth, the verifier and, when unsound, one sanitized
/// launch.
fn mutate_case(program: &Program, design: &Config, window: u32) -> MutationReport {
    let mut out = MutationReport::default();
    let finding = |detail: String| {
        let detail = format!("mutation: {detail}");
        Finding::new(Check::Mutation, &program.name, &design.label, detail)
    };
    let (annotated, streams) = match unmutated(program, design, window) {
        Ok(start) => start,
        Err(why) => {
            out.verdict.findings.push(finding(why));
            return out;
        }
    };

    for pc in 0..annotated.insts.len() {
        let inst = &annotated.insts[pc];
        let Some(reg) = inst.dst_reg() else { continue };
        if inst.hint == WritebackHint::BocOnly {
            continue;
        }
        let mutant_of = format!("pc {pc} {reg} {:?}->BocOnly", inst.hint);
        let mut mutant = annotated.clone();
        mutant.insts[pc].hint = WritebackHint::BocOnly;
        out.mutants_total += 1;

        let stale_reads = replay_kernel(&mutant, &streams, window);
        let flagged = !verify_hints(&mutant, window as usize).is_sound();
        if stale_reads > 0 {
            out.mutants_unsound += 1;
            if confirms(program, &mutant, design) {
                out.sanitizer_confirmed += 1;
            } else {
                out.verdict.findings.push(finding(format!(
                    "{mutant_of} loses a value ({stale_reads} stale read(s)) but the \
                     sanitized launch reports no hint violation"
                )));
            }
        }
        match (stale_reads > 0, flagged) {
            (true, true) => out.caught += 1,
            (true, false) => {
                out.missed += 1;
                out.verdict.findings.push(finding(format!(
                    "{mutant_of} loses a value ({stale_reads} stale read(s)) but the \
                     verifier accepts it"
                )));
            }
            (false, true) => out.overcautious += 1,
            (false, false) => out.benign += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "full campaign; run with --ignored or via `bow-cli lint --mutate`"]
    fn full_session_meets_the_unsound_floor() {
        let report = run_mutation(&MutateOptions::full());
        assert!(report.verdict.is_clean(), "{}", report.verdict);
        assert!(report.mutants_unsound >= 500, "{}", report.summary());
    }

    #[test]
    fn smoke_session_catches_every_unsound_mutant() {
        let report = run_mutation(&MutateOptions {
            jobs: 2,
            ..MutateOptions::smoke()
        });
        assert!(report.verdict.is_clean(), "{}", report.verdict);
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
    fn a_smoke_session_tallies_the_same_at_any_worker_count() {
        let session = |jobs| {
            let report = run_mutation(&MutateOptions {
                jobs,
                ..MutateOptions::smoke()
            });
            let summary = report.summary();
            // The summary up to its wall time.
            summary[..summary.rfind(';').unwrap()].to_string()
        };
        assert_eq!(session(1), session(2));
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
        let design = design(&opts);
        let program = case_program("mutate_case", opts.seed, 18, opts.size);
        let mut mutant = program.kernel_under(&design).expect("case 18 compiles");
        assert!(mutant.insts[53].guard.is_some(), "{}", mutant.insts[53]);
        mutant.insts[53].hint = WritebackHint::BocOnly;
        assert!(confirms(&program, &mutant, &design));
    }

    #[test]
    fn barrier_smoke_session_catches_every_unsound_mutant() {
        // Same campaign with every kernel lowered to convergence barriers:
        // the verifier's barrier-form serialization model must catch the
        // same class of injected hint bugs, with no baseline rejections
        // (lowering must accept every generated kernel).
        let report = run_mutation(&MutateOptions {
            jobs: 2,
            divergence: DivergenceModel::Barrier,
            ..MutateOptions::smoke()
        });
        assert!(report.verdict.is_clean(), "{}", report.verdict);
        assert!(report.mutants_unsound > 0, "{}", report.summary());
    }
}
