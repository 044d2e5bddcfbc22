//! Golden digest of the static pipeline: hints, control bits, lints,
//! hint audits and fingerprints over generated kernels.
//!
//! The corpus gate (`corpus::lint_gate`) runs `annotate` → `emit_ctrl` →
//! `lint_kernel`, then fingerprints what it keeps; `CompilePlan::apply`
//! and `annotate_checked` run the same passes on every cold launch. Their
//! output must depend only on the kernel, never on how the passes are
//! implemented. This test pins all of it at once: 512 kernels drawn
//! round-robin from [`corpus::strata`], each at windows 1–4, plus an
//! all-`BocOnly` mutant of each annotated kernel (so the hint verifier's
//! counterexample paths are exercised, not just its sound verdicts).
//!
//! One SHA-256 covers a canonical rendering of
//! * every instruction's write-back hint after `annotate`;
//! * every `CtrlBits::pack()` word `emit_ctrl` produces;
//! * each diagnostic's code, severity, pc, message and notes;
//! * the `B006` pressure rows;
//! * each `verify_hints` verdict, with its witnesses or its
//!   counterexample path;
//! * `corpus::fingerprint` of the input and of the annotated kernel.
//!
//! [`PINNED`] was captured before the static gate's data structures were
//! reworked (barrier facts as bit sets, one hint explorer per kernel,
//! analyses built once, allocation-free encoding): the rework had to
//! reproduce it exactly. A change that moves it changes what the
//! compiler or the lint suite concludes, and needs a reason of its own.

use bow::corpus;
use bow_compiler::{
    annotate, emit_ctrl, lint_kernel, verify_hints, CtrlLatencies, HintVerdict, LintOptions,
    LintReport,
};
use bow_isa::{FuzzKernel, Kernel, WritebackHint};
use bow_util::{Sha256, XorShift};
use std::fmt::Write as _;

/// Kernels drawn from the strata.
const KERNELS: u64 = 512;

/// Digest of the rendering below, captured before the rework.
const PINNED: &str = "cade97ea2383dad84df27f94a561127df07675079f6ed7ce18c3d328c7aceac1";

fn render_lints(out: &mut String, report: &LintReport) {
    for d in &report.diagnostics {
        write!(
            out,
            "diag {} {} {:?} {}",
            d.code, d.severity, d.pc, d.message
        )
        .unwrap();
        for n in &d.notes {
            write!(out, " | {n}").unwrap();
        }
        out.push('\n');
    }
    for p in &report.pressure {
        writeln!(
            out,
            "b006 {} {}..{} {} {}",
            p.block, p.start, p.end, p.max_live, p.loop_header
        )
        .unwrap();
    }
}

fn render_audit(out: &mut String, kernel: &Kernel, window: usize) {
    let audit = verify_hints(kernel, window);
    writeln!(out, "audit window {}", audit.window).unwrap();
    for f in &audit.findings {
        write!(out, "hint #{} {} {}: ", f.pc, f.reg, f.hint).unwrap();
        match &f.verdict {
            HintVerdict::TrivialRf => out.push_str("rf"),
            HintVerdict::Sound { witnesses } => write!(out, "sound {witnesses:?}").unwrap(),
            HintVerdict::Unsound { read_pc, path } => {
                write!(out, "unsound at #{read_pc} via {path:?}").unwrap()
            }
        }
        out.push('\n');
    }
}

/// Everything the static pipeline says about `kernel` at `window`.
fn render_window(out: &mut String, kernel: &Kernel, window: u32) {
    let lat = CtrlLatencies::default();
    let opts = LintOptions {
        window,
        check_hints: true,
        latencies: lat,
    };
    let (annotated, report) = annotate(kernel, window);
    writeln!(out, "window {window} {report:?}").unwrap();
    let hints: String = annotated.insts.iter().map(|i| i.hint.to_string()).collect();
    writeln!(out, "hints {hints}").unwrap();
    writeln!(out, "fp {}", corpus::fingerprint(&annotated)).unwrap();
    let ctrl = emit_ctrl(&annotated, &lat);
    let words: Vec<u32> = ctrl.ctrl.iter().map(|c| c.pack()).collect();
    writeln!(out, "ctrl {words:x?}").unwrap();
    render_lints(out, &lint_kernel(&ctrl, &opts));
    render_audit(out, &annotated, window as usize);

    // Every write `BocOnly`: most of these hints are unsound, so the
    // audit and B010 report counterexample paths.
    let mut mutant = annotated;
    for inst in &mut mutant.insts {
        if inst.dst_reg().is_some() {
            inst.hint = WritebackHint::BocOnly;
        }
    }
    out.push_str("mutant\n");
    render_lints(out, &lint_kernel(&emit_ctrl(&mutant, &lat), &opts));
    render_audit(out, &mutant, window as usize);
}

/// The digest, plus how many counterexample paths the rendering holds.
fn digest() -> (String, usize) {
    let defs = corpus::strata();
    let mut h = Sha256::new();
    let mut out = String::new();
    let mut unsound = 0;
    for i in 0..KERNELS {
        let def = &defs[i as usize % defs.len()];
        let mut rng = XorShift::new(0x57a7_1c00 + i);
        let fk = FuzzKernel::generate_with(&mut rng, def.budget, &def.params).scrub();
        let kernel = fk.build_pruned(&format!("golden_{}_{i}", def.name));
        out.clear();
        writeln!(out, "== {} {}", kernel.name, corpus::fingerprint(&kernel)).unwrap();
        for window in 1..=4 {
            render_window(&mut out, &kernel, window);
        }
        unsound += out.matches("unsound at").count();
        h.update(out.as_bytes());
    }
    let hex = h.finish().iter().map(|b| format!("{b:02x}")).collect();
    (hex, unsound)
}

#[test]
fn static_pipeline_output_matches_the_pinned_digest() {
    let (hex, unsound) = digest();
    assert!(
        unsound > 0,
        "the mutants must exercise counterexample paths"
    );
    assert_eq!(hex, PINNED);
}
