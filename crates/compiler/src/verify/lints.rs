//! The lint suite: every static check over a kernel, reported as
//! [`Diagnostic`]s with stable codes.
//!
//! | code | severity | finding                                             |
//! |------|----------|-----------------------------------------------------|
//! | B001 | warning  | read of a register that may be uninitialized        |
//! | B002 | error    | barrier under divergence (in-SSY or guarded `bar`)  |
//! | B003 | info     | race candidate the address analysis cannot rule out |
//! | B004 | warning  | dead write (value never read afterwards)            |
//! | B005 | warning  | unreachable basic block                             |
//! | B010 | error    | unsound `BocOnly` write-back hint                   |
//! | B011 | error    | broken SSY/SYNC reconvergence structure             |
//! | B012 | info     | guarded branch assumed warp-uniform                 |
//! | B013 | error    | barrier-guarded register used without a wait        |
//! | B014 | warning  | stall count under the fixed-latency RAW gap         |
//! | B015 | error    | definite cross-thread race (same word, same barrier interval) |
//! | B016 | warning  | shared read no store in the kernel initializes      |
//! | B017 | warning  | convergence barrier not post-dominating its fork    |
//! | B018 | info     | guarded branch with no convergence barrier          |
//!
//! `B003`/`B015`/`B016` come from the barrier-interval dataflow in
//! [`super::interval`]; the machine-readable descriptions behind
//! `bow-cli lint --explain` live in [`LINT_DOCS`].
//!
//! `B013`/`B014` check the control-bits sidecar (`Kernel::ctrl`) the
//! modern core consumes, so they only run on annotated kernels. They adopt
//! the emitter's serialization assumptions: within a block, issue gaps are
//! `max(1, stall)` and barrier facts survive until an instruction waits on
//! them; across blocks they stay silent — the emitter's conservative
//! entry waits make cross-block violations an intra-block fact anyway.
//!
//! `B006` is the per-block register-pressure report; it is a table on the
//! [`LintReport`] rather than a diagnostic because it states facts, not
//! findings.

use crate::analysis::Analysis;
use crate::cfg::Cfg;
use crate::ctrl::CtrlLatencies;
use crate::divergence::{check_structure_on, StructureIssue};
use crate::regset::{BarrierGuards, RegSet};
use crate::verify::dataflow;
use crate::verify::diag::{BlockPressure, Diagnostic, LintReport, Severity};
use crate::verify::residency::{each_finding, modelled_window, HintVerdict};
use bow_isa::{Kernel, Opcode};

/// Knobs for one lint run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LintOptions {
    /// Operand-window size the hint verifier models (the repo-wide default
    /// window is 3).
    pub window: u32,
    /// Whether to run the hint-soundness verifier (`B010`). Off for
    /// kernels that have not been annotated yet.
    pub check_hints: bool,
    /// Fixed pipeline latencies the control-bits checks (`B013`/`B014`)
    /// assume; must match what the sidecar was emitted against.
    pub latencies: CtrlLatencies,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions {
            window: 3,
            check_hints: true,
            latencies: CtrlLatencies::default(),
        }
    }
}

/// Runs every lint pass over `kernel` and collects the report.
pub fn lint_kernel(kernel: &Kernel, opts: &LintOptions) -> LintReport {
    lint_with(kernel, &Analysis::new(kernel), opts)
}

/// [`lint_kernel`] over `kernel`'s analysis bundle.
pub fn lint_with(kernel: &Kernel, an: &Analysis, opts: &LintOptions) -> LintReport {
    debug_assert!(an.describes(kernel), "the bundle of another kernel");
    let mut report = LintReport {
        kernel: kernel.name.clone(),
        pressure: Vec::with_capacity(an.cfg().len()),
        ..LintReport::default()
    };

    if opts.check_hints {
        hint_lints(kernel, an, opts.window, &mut report);
    }
    if !kernel.ctrl.is_empty() && kernel.ctrl.len() == kernel.insts.len() {
        ctrl_lints(kernel, an, &opts.latencies, &mut report);
    }
    structure_lints(kernel, an.cfg(), &mut report);
    convergence_lints(kernel, an.cfg(), &mut report);
    uninit_lints(an, &mut report);
    barrier_lints(kernel, an.cfg(), &mut report);
    super::interval::interval_lints(kernel, an, &mut report);
    dead_write_lints(an, &mut report);
    unreachable_lints(an.cfg(), an.dominators(), &mut report);
    pressure_report(an, &mut report);
    report
}

/// `B010` from the residency verifier.
fn hint_lints(kernel: &Kernel, an: &Analysis, window: u32, report: &mut LintReport) {
    let window = modelled_window(window as usize);
    each_finding(kernel, an.ops(), window, false, |f| {
        if let HintVerdict::Unsound { read_pc, path } = &f.verdict {
            report.diagnostics.push(
                Diagnostic::new(
                    "B010",
                    Severity::Error,
                    format!(
                        "unsound .wb.boc hint: {} may be read at #{read_pc} after \
                         window eviction (window {window})",
                        f.reg
                    ),
                )
                .at(f.pc)
                .note(format!(
                    "counterexample path: {}",
                    path.iter()
                        .map(|p| format!("#{p}"))
                        .collect::<Vec<_>>()
                        .join(" → ")
                ))
                .note("a BocOnly hint suppresses the register-file write-back"),
            );
        }
    });
}

/// `B013`/`B014`: control-bits soundness under the modern core's
/// serialization model. Per block: replay issue times (`max(1, stall)`
/// apart), track which registers are guarded by a pending write or read
/// barrier, and flag (a) uses of a guarded register with no intervening
/// wait on its barrier — an ordering violation a ctrl-trusting core would
/// execute wrong — and (b) fixed-latency RAW gaps the stall counts do not
/// cover, which only costs the in-order dispatch gate cycles here but
/// means the sidecar under-serializes.
fn ctrl_lints(kernel: &Kernel, an: &Analysis, lat: &CtrlLatencies, report: &mut LintReport) {
    // `ready[r]` is non-zero only for registers in the block's `timed`
    // set, and cleared again at the block's end.
    let mut ready = [0u64; 256];
    for block in an.cfg().blocks() {
        let mut timed = RegSet::new();
        let mut wr_guard = BarrierGuards::new();
        let mut rd_guard = BarrierGuards::new();
        let mut t: u64 = 0;
        for pc in block.range() {
            let inst = &kernel.insts[pc];
            let bits = kernel.ctrl[pc];

            // The wait executes before the operand use: clear what it
            // covers first.
            wr_guard.release(bits.wait_mask);
            rd_guard.release(bits.wait_mask);

            let op = &an.ops()[pc];
            for &s in &op.unique {
                let i = s.index() as usize;
                if let Some(b) = wr_guard.of(s) {
                    report.diagnostics.push(
                        Diagnostic::new(
                            "B013",
                            Severity::Error,
                            format!("{s} is guarded by write barrier {b} but read without a wait"),
                        )
                        .at(pc)
                        .note("a core trusting the control bits would read a stale value"),
                    );
                    wr_guard.set(s, None); // one report per pending fact
                }
                if ready[i] > t {
                    report.diagnostics.push(
                        Diagnostic::new(
                            "B014",
                            Severity::Warning,
                            format!(
                                "{s} becomes ready {} cycle(s) after this issue: stall \
                                 counts under-cover the fixed-latency dependence",
                                ready[i] - t
                            ),
                        )
                        .at(pc),
                    );
                    ready[i] = 0;
                }
            }
            if let Some(d) = op.def {
                if let Some(b) = rd_guard.of(d) {
                    rd_guard.set(d, None);
                    report.diagnostics.push(
                        Diagnostic::new(
                            "B013",
                            Severity::Error,
                            format!(
                                "{d} is still being read under read barrier {b} but is \
                                 overwritten without a wait"
                            ),
                        )
                        .at(pc)
                        .note("write-after-read over a memory operand needs the read barrier"),
                    );
                }
            }

            // Record this instruction's own production.
            let variable =
                inst.op.fu_class() == bow_isa::FuClass::Mem && lat.fixed(inst.op).is_none();
            if variable {
                if let (Some(d), Some(b)) = (op.def, bits.wr_bar) {
                    wr_guard.set(d, Some(b));
                    ready[d.index() as usize] = 0;
                }
                if let (None, Some(b)) = (op.def, bits.rd_bar) {
                    for &s in &op.unique {
                        rd_guard.set(s, Some(b));
                    }
                }
            } else if let Some(d) = op.def {
                if let Some(l) = lat.fixed(inst.op) {
                    ready[d.index() as usize] = t + u64::from(l);
                    timed.insert(d);
                    wr_guard.set(d, None);
                }
            }
            t += u64::from(bits.stall.max(1));
        }
        for r in timed.iter() {
            ready[r.index() as usize] = 0;
        }
    }
}

/// `B011` (errors), `B012` (stack advisories) and `B018` (barrier
/// advisories) wrapping `divergence.rs` — the checker picks the protocol
/// matching the kernel's divergence model, so the same pass covers both.
fn structure_lints(kernel: &Kernel, cfg: &Cfg, report: &mut LintReport) {
    let structure = check_structure_on(kernel, cfg);
    for issue in &structure.issues {
        let (code, severity) = match issue {
            _ if issue.is_error() => ("B011", Severity::Error),
            StructureIssue::MissingConvergenceBarrier { .. } => ("B018", Severity::Info),
            _ => ("B012", Severity::Info),
        };
        let pc = match issue {
            StructureIssue::SyncWithoutSsy { pc }
            | StructureIssue::AssumedUniformBranch { pc }
            | StructureIssue::BsyncUnarmed { pc, .. }
            | StructureIssue::MissingConvergenceBarrier { pc } => Some(*pc),
            StructureIssue::UnbalancedJoin { .. }
            | StructureIssue::UnclosedSsy { .. }
            | StructureIssue::UnbalancedBarrierJoin { .. } => None,
        };
        let mut d = Diagnostic::new(code, severity, issue.to_string());
        if let Some(pc) = pc {
            d = d.at(pc);
        }
        report.diagnostics.push(d);
    }
}

/// `B017`: a `bssy` whose named reconvergence point does not post-dominate
/// the fork. Threads on the bypassing path reach an exit without passing
/// the `bsync`; the warp only converges because exit-retire disarms
/// abandoned barriers, so the barrier never actually joins the paths.
fn convergence_lints(kernel: &Kernel, cfg: &Cfg, report: &mut LintReport) {
    if !kernel.uses_convergence_barriers() {
        return;
    }
    let pdom = cfg.postdominators();
    for (pc, inst) in kernel.iter() {
        if inst.op != Opcode::Bssy {
            continue;
        }
        let target = inst.target.expect("validated bssy target");
        let fork = cfg.block_of(pc);
        if !pdom.reaches_exit(fork) {
            continue; // unreachable-from-exit forks are B005/structure turf
        }
        if !pdom.postdominates(cfg.block_of(target), fork) {
            let bar = inst.cbar().unwrap_or(0);
            report.diagnostics.push(
                Diagnostic::new(
                    "B017",
                    Severity::Warning,
                    format!(
                        "reconvergence point #{target} of b{bar} does not post-dominate \
                         the fork"
                    ),
                )
                .at(pc)
                .note("a path from this bssy reaches an exit without passing the bsync"),
            );
        }
    }
}

/// `B001`: forward must-init — a read of a register outside the
/// written-on-every-path set may observe an uninitialized value.
fn uninit_lints(an: &Analysis, report: &mut LintReport) {
    let facts = dataflow::must_init_over(an.cfg(), an.summaries());
    for (b, block) in an.cfg().blocks().iter().enumerate() {
        if !an.dominators().is_reachable(b) {
            continue;
        }
        let mut init = facts.entry[b];
        for pc in block.range() {
            let op = &an.ops()[pc];
            for &s in &op.unique {
                if !init.contains(s) {
                    report.diagnostics.push(
                        Diagnostic::new(
                            "B001",
                            Severity::Warning,
                            format!("read of {s} which may be uninitialized"),
                        )
                        .at(pc)
                        .note(format!(
                            "{s} is not written on every path from the kernel entry \
                             to this read"
                        )),
                    );
                }
            }
            // Mirror the must-init transfer: a guarded write is only a
            // may-def and proves nothing about initialization.
            if let Some(d) = op.kill() {
                init.insert(d);
            }
        }
    }
}

/// `B002`: a block-wide barrier executed where the warp may be divergent —
/// inside an open SSY region, an armed convergence-barrier region, or
/// under a predicate guard — can deadlock or mis-count arrivals.
fn barrier_lints(kernel: &Kernel, cfg: &Cfg, report: &mut LintReport) {
    // First-seen divergent-region depth per block: open SSY regions plus
    // armed convergence barriers (conflicts are B011's problem).
    let n = cfg.len();
    let mut depth_in: Vec<Option<usize>> = vec![None; n];
    if n == 0 {
        return;
    }
    depth_in[0] = Some(0);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut depth = depth_in[b].expect("scheduled blocks have a depth");
        for pc in cfg.blocks()[b].range() {
            let inst = &kernel.insts[pc];
            match inst.op {
                Opcode::Ssy | Opcode::Bssy => depth += 1,
                Opcode::Sync | Opcode::Bsync => depth = depth.saturating_sub(1),
                Opcode::Bar => {
                    if depth > 0 {
                        report.diagnostics.push(
                            Diagnostic::new(
                                "B002",
                                Severity::Error,
                                "barrier inside a divergent (open ssy/bssy) region",
                            )
                            .at(pc)
                            .note(format!("divergent-region depth here is {depth}")),
                        );
                    }
                    if inst.guard.is_some() {
                        report.diagnostics.push(
                            Diagnostic::new(
                                "B002",
                                Severity::Error,
                                "predicated barrier: threads that skip it deadlock the block",
                            )
                            .at(pc),
                        );
                    }
                }
                _ => {}
            }
        }
        for &s in &cfg.blocks()[b].succs {
            if depth_in[s].is_none() {
                depth_in[s] = Some(depth);
                work.push(s);
            }
        }
    }
}

/// One row of the lint documentation table: the stable code, its severity
/// as rendered, a one-line summary and the long-form explanation printed
/// by `bow-cli lint --explain`.
#[derive(Clone, Copy, Debug)]
pub struct LintDoc {
    /// Stable diagnostic code (`"B001"`, ...).
    pub code: &'static str,
    /// Severity as a lowercase word (`"error"`, `"warning"`, `"info"`).
    pub severity: &'static str,
    /// One-line summary, matching the table in the module docs.
    pub summary: &'static str,
    /// Long-form rustc-`--explain`-style description.
    pub detail: &'static str,
}

/// Every stable diagnostic code, machine readable. `B006` is included even
/// though it is a report table rather than a diagnostic.
pub const LINT_DOCS: &[LintDoc] = &[
    LintDoc {
        code: "B001",
        severity: "warning",
        summary: "read of a register that may be uninitialized",
        detail: "The forward must-init dataflow found a read of a register that is not \
                 written on every path from the kernel entry to the read. The hardware \
                 register file starts with undefined contents, so the value observed \
                 depends on whatever ran before this kernel. Guarded writes are may-defs \
                 and do not count as initialization.",
    },
    LintDoc {
        code: "B002",
        severity: "error",
        summary: "barrier under divergence (in-SSY or guarded bar)",
        detail: "A block-wide `bar` executes inside an open SSY region or under a \
                 predicate guard. Threads masked off by the divergence never arrive, so \
                 the barrier either deadlocks the block or mis-counts arrivals.",
    },
    LintDoc {
        code: "B003",
        severity: "info",
        summary: "race candidate the address analysis cannot rule out",
        detail: "Two memory accesses (at least one a store) can fall in the same barrier \
                 interval, and the affine address analysis cannot prove them disjoint — \
                 the addresses are nonlinear, guarded, or coincide only at some non-zero \
                 thread distance. Advisory: thread-local and provably strided patterns \
                 are already filtered out, but a may-race is not a proof. Definite races \
                 are promoted to B015.",
    },
    LintDoc {
        code: "B004",
        severity: "warning",
        summary: "dead write (value never read afterwards)",
        detail: "The backward liveness dataflow found a register write whose value is \
                 never read on any path before being overwritten or the kernel exiting. \
                 Dead writes waste issue slots, register-file energy and — under BOW — \
                 operand-collector window slots.",
    },
    LintDoc {
        code: "B005",
        severity: "warning",
        summary: "unreachable basic block",
        detail: "No path from the kernel entry reaches this block. Unreachable code is \
                 skipped by every other analysis, so nothing else in the report covers \
                 it; it is usually a sign of a mislowered branch.",
    },
    LintDoc {
        code: "B006",
        severity: "info",
        summary: "per-block register pressure table",
        detail: "Not a finding: the per-block maximum-live-register table reported on \
                 the lint report itself, used to size register allocation and operand \
                 windows. Loop headers are marked because their pressure bounds the \
                 steady-state working set.",
    },
    LintDoc {
        code: "B010",
        severity: "error",
        summary: "unsound BocOnly write-back hint",
        detail: "The residency verifier found a path on which a register annotated \
                 `.wb.boc` (write to the bypass network only, skip the register file) is \
                 read after the producing value has been evicted from the operand \
                 window. A core honouring the hint would read a stale register-file \
                 value. The diagnostic carries the counterexample path.",
    },
    LintDoc {
        code: "B011",
        severity: "error",
        summary: "broken SSY/SYNC reconvergence structure",
        detail: "The divergence-structure checker found a `sync` without a matching \
                 `ssy`, an unclosed `ssy` region, or a join that unbalances the \
                 reconvergence stack. The SIMT stack would underflow or reconverge at \
                 the wrong pc. On barrier-form kernels the same code covers the \
                 stack-less protocol's hard errors: a `bsync` waiting on a barrier no \
                 path arms, or paths joining with different armed-barrier sets.",
    },
    LintDoc {
        code: "B012",
        severity: "info",
        summary: "guarded branch assumed warp-uniform",
        detail: "A guarded backward branch closes a loop without an SSY/SYNC region. \
                 The model executes it as warp-uniform (all active threads agree on the \
                 predicate); if the predicate is actually thread-varying the loop \
                 trip-counts diverge. Advisory because uniform trip-counts are the \
                 common case for compiler-generated loops.",
    },
    LintDoc {
        code: "B013",
        severity: "error",
        summary: "barrier-guarded register used without a wait",
        detail: "The control-bits sidecar marks a register as guarded by a scoreboard \
                 barrier, but an instruction reads (or overwrites) it without an \
                 intervening wait on that barrier. A core trusting the sidecar — like \
                 the modern core model — would use a stale value.",
    },
    LintDoc {
        code: "B014",
        severity: "warning",
        summary: "stall count under the fixed-latency RAW gap",
        detail: "Replaying the block's issue times shows a source register becoming \
                 ready after the instruction that reads it issues: the emitted stall \
                 counts under-cover a fixed-latency dependence. The in-order dispatch \
                 gate absorbs the error at a cycle cost, but the sidecar is \
                 under-serialized.",
    },
    LintDoc {
        code: "B015",
        severity: "error",
        summary: "definite cross-thread race (same word, same barrier interval)",
        detail: "The barrier-interval dataflow proved that two accesses (at least one a \
                 store, with provably different data if both are stores) hit the same \
                 word in the same barrier interval for some pair of threads, with no \
                 guard that could mask the conflict. No execution order is enforced \
                 between warps without a barrier, so the outcome is \
                 schedule-dependent. The dynamic sanitizer (`--sanitize`) confirms \
                 these at runtime.",
    },
    LintDoc {
        code: "B016",
        severity: "warning",
        summary: "shared read no store in the kernel initializes",
        detail: "A shared-memory load reads an address that every shared store in the \
                 kernel provably misses (or the kernel has no shared store at all). \
                 Shared memory starts undefined on each launch, so the loaded value is \
                 garbage. The dynamic sanitizer reports the same condition as \
                 `uninit-shared`.",
    },
    LintDoc {
        code: "B017",
        severity: "warning",
        summary: "convergence barrier not post-dominating its fork",
        detail: "A `bssy` names a reconvergence point that does not post-dominate the \
                 block arming the barrier: some path from the fork reaches an exit \
                 without passing the matching `bsync`. Threads on that path never \
                 arrive, and the warp only converges because the exit-retire path \
                 disarms abandoned barriers — the barrier does not actually join the \
                 divergent paths. The barrier-lowering pass refuses such placements; \
                 this lint catches hand-written or mutated barrier kernels.",
    },
    LintDoc {
        code: "B018",
        severity: "info",
        summary: "guarded branch with no convergence barrier",
        detail: "In a kernel compiled for the stack-less divergence model, a guarded \
                 branch executes outside every armed convergence-barrier region, so it \
                 has no reconvergence point. The model executes it as warp-uniform — \
                 the barrier-form analogue of B012. Advisory because uniform \
                 trip-counts are the common case for loop back-edges.",
    },
];

/// The long-form description behind `bow-cli lint --explain CODE`, rendered
/// rustc style. `None` for unknown codes.
pub fn explain(code: &str) -> Option<String> {
    let doc = LINT_DOCS.iter().find(|d| d.code == code)?;
    Some(format!(
        "{}: {} ({})\n\n{}\n",
        doc.code, doc.summary, doc.severity, doc.detail
    ))
}

/// `B004`: a register write whose value is never read afterwards on any
/// path. (RZ writes are already discarded by the ISA and never get here.)
fn dead_write_lints(an: &Analysis, report: &mut LintReport) {
    for (b, block) in an.cfg().blocks().iter().enumerate() {
        if !an.dominators().is_reachable(b) {
            continue;
        }
        let mut live = *an.live_out(b);
        for pc in block.range().rev() {
            let op = &an.ops()[pc];
            if let Some(d) = op.def {
                if !live.contains(d) {
                    report.diagnostics.push(
                        Diagnostic::new(
                            "B004",
                            Severity::Warning,
                            format!("dead write: {d} is never read after this point"),
                        )
                        .at(pc),
                    );
                }
            }
            op.live_transfer(&mut live);
        }
    }
}

/// `B005`: blocks no path from the entry reaches.
fn unreachable_lints(cfg: &Cfg, doms: &crate::cfg::Dominators, report: &mut LintReport) {
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !doms.is_reachable(b) {
            report.diagnostics.push(
                Diagnostic::new(
                    "B005",
                    Severity::Warning,
                    format!(
                        "unreachable block {b} (instructions #{}..#{})",
                        block.start, block.end
                    ),
                )
                .at(block.start),
            );
        }
    }
}

/// `B006`: the per-block max-live table, instruction-granular.
fn pressure_report(an: &Analysis, report: &mut LintReport) {
    let doms = an.dominators();
    for (b, block) in an.cfg().blocks().iter().enumerate() {
        if !doms.is_reachable(b) {
            continue;
        }
        let max_live = an.max_live(b);
        let loop_header = block.preds.iter().any(|&p| doms.is_back_edge(p, b));
        report.pressure.push(BlockPressure {
            block: b,
            start: block.start,
            end: block.end,
            max_live,
            loop_header,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{CmpOp, KernelBuilder, Operand, Pred, Reg, WritebackHint};

    fn r(i: u8) -> Reg {
        Reg::r(i)
    }

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_kernel_yields_no_diagnostics() {
        let k = KernelBuilder::new("clean")
            .mov_imm(r(0), 1)
            .iadd(r(1), r(0).into(), Operand::Imm(2))
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.pressure.len(), 1);
        assert!(rep.passes_deny_warnings());
    }

    #[test]
    fn b001_flags_a_maybe_uninitialized_read() {
        // r9 written on one arm only, read after the join.
        let k = KernelBuilder::new("uninit")
            .isetp(CmpOp::Ne, Pred::p(0), Operand::Imm(0), Operand::Imm(0))
            .ssy("join")
            .bra_if(Pred::p(0), false, "skip")
            .mov_imm(r(9), 1)
            .label("skip")
            .label("join")
            .sync()
            .iadd(r(1), r(9).into(), Operand::Imm(1))
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        let b001: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B001")
            .collect();
        assert_eq!(b001.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(b001[0].pc, Some(5));
        assert!(!rep.passes_deny_warnings());
    }

    #[test]
    fn b002_flags_a_barrier_in_an_open_ssy_region() {
        let k = KernelBuilder::new("divbar")
            .ssy("join")
            .bra_if(Pred::p(0), false, "join")
            .bar() // on the fallthrough arm, depth 1
            .label("join")
            .sync()
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(codes(&rep).contains(&"B002"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn b002_flags_a_guarded_barrier() {
        let k = KernelBuilder::new("guardbar")
            .guard(Pred::p(0), false)
            .bar()
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(codes(&rep).contains(&"B002"));
    }

    #[test]
    fn same_word_store_load_pair_is_a_definite_race() {
        // Uniform-address sts/lds in one barrier interval: the interval
        // pass proves the overlap, so this is B015 (error), not the old
        // phase-counting B003 advisory.
        let k = KernelBuilder::new("race")
            .mov_imm(r(0), 0)
            .sts(r(0), 0, r(0).into())
            .lds(r(1), r(0), 0) // same interval as the sts
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(codes(&rep).contains(&"B015"), "{:?}", rep.diagnostics);
        assert!(!rep.passes_deny_warnings(), "B015 is an error");

        let fixed = KernelBuilder::new("fixed")
            .mov_imm(r(0), 0)
            .sts(r(0), 0, r(0).into())
            .bar()
            .lds(r(1), r(0), 0)
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&fixed, &LintOptions::default());
        assert!(!codes(&rep).contains(&"B015"), "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"B003"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn explain_covers_every_documented_code() {
        for doc in LINT_DOCS {
            let text = explain(doc.code).expect("documented code explains");
            assert!(text.starts_with(doc.code), "{text}");
            assert!(text.contains(doc.severity), "{text}");
        }
        // Every code any pass can emit has a row.
        for code in [
            "B001", "B002", "B003", "B004", "B005", "B006", "B010", "B011", "B012", "B013", "B014",
            "B015", "B016", "B017", "B018",
        ] {
            assert!(explain(code).is_some(), "{code} missing from LINT_DOCS");
        }
        assert!(explain("B999").is_none());
        assert!(explain("nonsense").is_none());
    }

    #[test]
    fn b004_flags_a_dead_write() {
        let k = KernelBuilder::new("dead")
            .mov_imm(r(0), 1)
            .mov_imm(r(0), 2) // kills the first write before any read
            .stg(r(0), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        let dead: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B004")
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].pc, Some(0));
    }

    #[test]
    fn b005_flags_unreachable_code() {
        let k = KernelBuilder::new("unreach")
            .bra("end")
            .mov_imm(r(0), 1)
            .label("end")
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(codes(&rep).contains(&"B005"));
    }

    #[test]
    fn b010_flags_an_unsound_hint_with_its_path() {
        let mut b = KernelBuilder::new("bad")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::BocOnly);
        for _ in 0..5 {
            b = b.nop();
        }
        let k = b
            .iadd(r(1), r(0).into(), Operand::Imm(1))
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        let b010: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B010")
            .collect();
        assert_eq!(b010.len(), 1);
        assert_eq!(b010[0].pc, Some(0));
        assert!(b010[0].notes[0].contains("→"), "{:?}", b010[0].notes);
        assert_eq!(rep.errors(), 1);

        // Hint checking can be disabled for un-annotated kernels.
        let rep = lint_kernel(
            &k,
            &LintOptions {
                check_hints: false,
                ..LintOptions::default()
            },
        );
        assert!(!codes(&rep).contains(&"B010"));
    }

    #[test]
    fn b013_flags_a_missing_barrier_wait() {
        let mut k = KernelBuilder::new("nowait")
            .ldc(r(0), 0)
            .ldg(r(1), r(0), 0)
            .iadd(r(2), r(1).into(), Operand::Imm(1)) // reads r1, no wait
            .stg(r(0), 4, r(2).into())
            .exit()
            .build()
            .unwrap();
        k.ctrl = vec![bow_isa::CtrlBits::default(); k.insts.len()];
        k.ctrl[1].wr_bar = Some(0);
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(codes(&rep).contains(&"B013"), "{:?}", rep.diagnostics);
        assert!(!rep.passes_deny_warnings());

        // Waiting on the barrier fixes it.
        k.ctrl[2].wait_mask = 0b1;
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(!codes(&rep).contains(&"B013"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn b014_flags_an_undersized_stall() {
        let mut k = KernelBuilder::new("short")
            .mov_imm(r(0), 3)
            .iadd(r(1), r(0).into(), Operand::Imm(1))
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        k.ctrl = vec![bow_isa::CtrlBits::default(); k.insts.len()];
        k.ctrl[0].stall = 2; // ALU latency is 4: two cycles short
        k.ctrl[1].stall = 4;
        let rep = lint_kernel(&k, &LintOptions::default());
        let b014: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B014")
            .collect();
        assert_eq!(b014.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(b014[0].pc, Some(1));
    }

    #[test]
    fn emitted_ctrl_lints_clean() {
        let k = KernelBuilder::new("emitted")
            .ldc(r(0), 0)
            .ldg(r(1), r(0), 0)
            .iadd(r(2), r(1).into(), Operand::Imm(1))
            .stg(r(0), 4, r(2).into())
            .mov_imm(r(0), 5) // WAR over the store's address register
            .stg(r(0), 8, r(0).into())
            .exit()
            .build()
            .unwrap();
        let annotated = crate::ctrl::emit_ctrl(&k, &CtrlLatencies::default());
        let rep = lint_kernel(&annotated, &LintOptions::default());
        assert!(
            !codes(&rep).contains(&"B013") && !codes(&rep).contains(&"B014"),
            "{:?}",
            rep.diagnostics
        );
    }

    /// The `B013` findings `ctrl_lints` reports, as `(pc, message)`.
    fn b013(kernel: &Kernel) -> Vec<(Option<usize>, String)> {
        let mut rep = LintReport::default();
        ctrl_lints(
            kernel,
            &Analysis::new(kernel),
            &CtrlLatencies::default(),
            &mut rep,
        );
        rep.diagnostics
            .into_iter()
            .filter(|d| d.code == "B013")
            .map(|d| (d.pc, d.message))
            .collect()
    }

    #[test]
    fn b013_tracks_reused_barriers_register_by_register() {
        let k = crate::ctrl::tests::barrier_reuse_kernel();
        let emitted = crate::ctrl::emit_ctrl(&k, &CtrlLatencies::default());
        assert!(b013(&emitted).is_empty());

        // Drop the WAW wait at #6 (the lint does not demand it): r1 moves
        // from barrier 0 to barrier 5 unreleased. The wait on barrier 0 at
        // #8 must not release it, so the read at #9 without a wait on
        // barrier 5 is a finding.
        let mut moved = emitted.clone();
        moved.ctrl[6].wait_mask = 0;
        moved.ctrl[9].wait_mask = 0;
        assert_eq!(
            b013(&moved),
            vec![(
                Some(9),
                "r1 is guarded by write barrier 5 but read without a wait".to_string()
            )]
        );

        // Without the wait at #11, both registers the store's read barrier
        // guards are overwritten unprotected; with it (above), neither is.
        let mut unwaited = emitted;
        unwaited.ctrl[11].wait_mask = 0;
        let pcs: Vec<_> = b013(&unwaited).into_iter().map(|(pc, _)| pc).collect();
        assert_eq!(pcs, vec![Some(11), Some(12)]);
    }

    #[test]
    fn lowered_diamond_lints_as_clean_as_its_stack_twin() {
        let k = KernelBuilder::new("d")
            .mov_imm(r(0), 5)
            .isetp(CmpOp::Ne, Pred::p(0), r(0).into(), Operand::Imm(0))
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 2)
            .label("join")
            .sync()
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let low = crate::barrier::lower_to_barriers(&k).unwrap();
        let stack_rep = lint_kernel(&k, &LintOptions::default());
        let barrier_rep = lint_kernel(&low, &LintOptions::default());
        assert_eq!(codes(&stack_rep), codes(&barrier_rep), "same diagnostics");
        assert!(barrier_rep.passes_deny_warnings());
    }

    #[test]
    fn b017_flags_a_non_postdominating_reconvergence_point() {
        // The bssy's named join only terminates the taken arm; the
        // fall-through arm exits directly.
        let k = KernelBuilder::new("bad")
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "join")
            .mov_imm(r(0), 1)
            .exit()
            .label("join")
            .bsync(0)
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        let b017: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B017")
            .collect();
        assert_eq!(b017.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(b017[0].pc, Some(0));
        assert!(!rep.passes_deny_warnings());
    }

    #[test]
    fn b018_is_advisory_for_barrier_form_uniform_loops() {
        let k = KernelBuilder::new("bloop")
            .mov_imm(r(1), 0)
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "join")
            .mov_imm(r(1), 1)
            .label("join")
            .bsync(0)
            .mov_imm(r(0), 0)
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .isetp(CmpOp::Lt, Pred::p(1), r(0).into(), Operand::Imm(4))
            .bra_if(Pred::p(1), false, "top")
            .stg(r(0), 0, r(0).into())
            .stg(r(1), 4, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        let b018: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B018")
            .collect();
        assert_eq!(b018.len(), 1, "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"B012"), "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"B017"), "{:?}", rep.diagnostics);
        assert!(rep.passes_deny_warnings(), "B018 is info");
    }

    #[test]
    fn b002_flags_a_bar_inside_an_armed_barrier_region() {
        let k = KernelBuilder::new("divbar")
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "join")
            .bar() // on the fallthrough arm, b0 armed
            .label("join")
            .bsync(0)
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(codes(&rep).contains(&"B002"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn b012_is_advisory_for_uniform_loops() {
        let k = KernelBuilder::new("loop")
            .mov_imm(r(0), 0)
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(4))
            .bra_if(Pred::p(0), false, "top")
            .stg(r(0), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert_eq!(codes(&rep), vec!["B012"], "{:?}", rep.diagnostics);
        assert!(rep.passes_deny_warnings());
        let header = rep
            .pressure
            .iter()
            .find(|p| p.loop_header)
            .expect("loop header in the pressure table");
        assert_eq!(header.block, 1);
    }
}
