//! Static validation of SIMT divergence structure.
//!
//! The pipeline reconverges with an explicit SSY/SYNC stack (as NVIDIA
//! hardware does pre-Volta): `ssy L` pushes a reconvergence point, the
//! paths meet at the `sync` at `L`. That protocol has structural
//! invariants a kernel must satisfy or warps will retire lanes at the
//! wrong mask:
//!
//! * stack *balance*: every path into a block must arrive with the same
//!   SSY depth, `sync` must never pop an empty stack;
//! * divergence *coverage*: a guarded branch executed at depth 0 has no
//!   reconvergence point — legal only if the branch is warp-uniform at
//!   runtime (loop back-edges typically are), so the checker reports these
//!   as *assumed-uniform* rather than errors.
//!
//! The workload suite passes with zero errors; the checker exists so new
//! kernels fail fast instead of mis-reconverging in the simulator.
//!
//! Kernels compiled for the stack-less divergence model (any `bssy`/`bsync`
//! present — see [`crate::barrier`]) are checked against the barrier
//! protocol's invariants instead: every `bsync` must find its barrier
//! armed, all paths into a block must agree on which barriers are armed,
//! and a guarded branch outside every armed region has no reconvergence
//! point (advisory, like the stack form's assumed-uniform case). The two
//! checkers share the [`StructureIssue`] vocabulary so the `B011`/`B012`
//! lints are divergence-model agnostic.

use crate::cfg::Cfg;
use bow_isa::{Kernel, Opcode};

/// A structural problem (or advisory) found by [`check_structure`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StructureIssue {
    /// A `sync` executes with no `ssy` entry on the stack.
    SyncWithoutSsy {
        /// Instruction index of the sync.
        pc: usize,
    },
    /// Two paths reach the same block with different SSY depths.
    UnbalancedJoin {
        /// Block id where the depths disagree.
        block: usize,
        /// The two depths observed.
        depths: (usize, usize),
    },
    /// A kernel exit (or fall-through) with entries still on the stack.
    UnclosedSsy {
        /// Block id whose terminator leaves depth > 0.
        block: usize,
        /// Remaining depth.
        depth: usize,
    },
    /// Advisory: a guarded branch at depth 0 relies on being warp-uniform.
    AssumedUniformBranch {
        /// Instruction index of the branch.
        pc: usize,
    },
    /// A `bsync` waits on a barrier no path has armed (barrier form).
    BsyncUnarmed {
        /// Instruction index of the bsync.
        pc: usize,
        /// The barrier id it names.
        bar: u8,
    },
    /// Two paths reach the same block with different armed-barrier sets
    /// (barrier form) — some threads would wait on a barrier others never
    /// release.
    UnbalancedBarrierJoin {
        /// Block id where the armed sets disagree.
        block: usize,
        /// The two armed-barrier bitmasks observed.
        masks: (u8, u8),
    },
    /// Advisory (barrier form): a guarded branch outside every armed
    /// barrier region relies on being warp-uniform.
    MissingConvergenceBarrier {
        /// Instruction index of the branch.
        pc: usize,
    },
}

impl std::fmt::Display for StructureIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructureIssue::SyncWithoutSsy { pc } => {
                write!(f, "sync at #{pc} pops an empty reconvergence stack")
            }
            StructureIssue::UnbalancedJoin { block, depths } => write!(
                f,
                "block {block} reached with ssy depths {} and {}",
                depths.0, depths.1
            ),
            StructureIssue::UnclosedSsy { block, depth } => {
                write!(f, "block {block} exits with {depth} unclosed ssy region(s)")
            }
            StructureIssue::AssumedUniformBranch { pc } => {
                write!(
                    f,
                    "guarded branch at #{pc} has no ssy region (assumed uniform)"
                )
            }
            StructureIssue::BsyncUnarmed { pc, bar } => {
                write!(f, "bsync at #{pc} waits on b{bar} which no path arms")
            }
            StructureIssue::UnbalancedBarrierJoin { block, masks } => write!(
                f,
                "block {block} reached with armed-barrier sets {:#04x} and {:#04x}",
                masks.0, masks.1
            ),
            StructureIssue::MissingConvergenceBarrier { pc } => write!(
                f,
                "guarded branch at #{pc} has no convergence barrier (assumed uniform)"
            ),
        }
    }
}

impl StructureIssue {
    /// Whether this issue is a hard error (as opposed to an advisory).
    pub fn is_error(&self) -> bool {
        !matches!(
            self,
            StructureIssue::AssumedUniformBranch { .. }
                | StructureIssue::MissingConvergenceBarrier { .. }
        )
    }
}

/// The checker's report.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StructureReport {
    /// All issues found, in discovery order.
    pub issues: Vec<StructureIssue>,
}

impl StructureReport {
    /// Hard errors only.
    pub fn errors(&self) -> impl Iterator<Item = &StructureIssue> {
        self.issues.iter().filter(|i| i.is_error())
    }

    /// Whether the kernel's divergence structure is sound.
    pub fn is_ok(&self) -> bool {
        self.errors().next().is_none()
    }
}

/// Checks `kernel`'s reconvergence structure: SSY/SYNC stack depth for
/// stack-form kernels, armed-barrier sets for barrier-form kernels (the
/// divergence-model seam — callers never need to know which model the
/// kernel was compiled for).
pub fn check_structure(kernel: &Kernel) -> StructureReport {
    check_structure_on(kernel, &Cfg::build(kernel))
}

/// [`check_structure`] over the kernel's already-built `cfg`.
pub(crate) fn check_structure_on(kernel: &Kernel, cfg: &Cfg) -> StructureReport {
    if kernel.uses_convergence_barriers() {
        return check_barrier_structure(kernel, cfg);
    }
    let mut report = StructureReport::default();
    let n = cfg.len();
    if n == 0 {
        return report;
    }
    // Depth on entry to each block; None = not yet reached.
    let mut depth_in: Vec<Option<usize>> = vec![None; n];
    depth_in[0] = Some(0);
    let mut work = vec![0usize];
    let mut advisories_seen = std::collections::HashSet::new();

    while let Some(b) = work.pop() {
        let mut depth = depth_in[b].expect("scheduled blocks have a depth");
        for pc in cfg.blocks()[b].range() {
            let inst = &kernel.insts[pc];
            match inst.op {
                Opcode::Ssy => depth += 1,
                Opcode::Sync => {
                    if depth == 0 {
                        report.issues.push(StructureIssue::SyncWithoutSsy { pc });
                    } else {
                        depth -= 1;
                    }
                }
                Opcode::Bra if inst.guard.is_some() && depth == 0 && advisories_seen.insert(pc) => {
                    report
                        .issues
                        .push(StructureIssue::AssumedUniformBranch { pc });
                }
                Opcode::Exit if depth != 0 => {
                    report
                        .issues
                        .push(StructureIssue::UnclosedSsy { block: b, depth });
                }
                _ => {}
            }
        }
        for &s in &cfg.blocks()[b].succs {
            match depth_in[s] {
                None => {
                    depth_in[s] = Some(depth);
                    work.push(s);
                }
                Some(d) if d != depth => {
                    let issue = StructureIssue::UnbalancedJoin {
                        block: s,
                        depths: (d, depth),
                    };
                    if !report.issues.contains(&issue) {
                        report.issues.push(issue);
                    }
                }
                Some(_) => {}
            }
        }
    }
    report
}

/// The barrier-form structure checker: propagates the armed-barrier bitmask
/// (one bit per convergence barrier) over the CFG. An `exit` inside an
/// armed region is deliberately *not* an issue — the simulator's
/// exit-retire path removes exited lanes from the pending set, so an exit
/// in a divergent arm is a supported pattern under barriers (unlike the
/// stack form's `UnclosedSsy`).
fn check_barrier_structure(kernel: &Kernel, cfg: &Cfg) -> StructureReport {
    let mut report = StructureReport::default();
    let n = cfg.len();
    if n == 0 {
        return report;
    }
    // Armed-barrier bitmask on entry to each block; None = not yet reached.
    let mut armed_in: Vec<Option<u8>> = vec![None; n];
    armed_in[0] = Some(0);
    let mut work = vec![0usize];
    let mut advisories_seen = std::collections::HashSet::new();

    while let Some(b) = work.pop() {
        let mut armed = armed_in[b].expect("scheduled blocks have an armed set");
        for pc in cfg.blocks()[b].range() {
            let inst = &kernel.insts[pc];
            match inst.op {
                Opcode::Bssy => {
                    let bar = inst.cbar().expect("validated bssy carries an id");
                    armed |= 1 << bar;
                }
                Opcode::Bsync => {
                    let bar = inst.cbar().expect("validated bsync carries an id");
                    if armed & (1 << bar) == 0 {
                        report.issues.push(StructureIssue::BsyncUnarmed { pc, bar });
                    } else {
                        armed &= !(1 << bar);
                    }
                }
                Opcode::Bra if inst.guard.is_some() && armed == 0 && advisories_seen.insert(pc) => {
                    report
                        .issues
                        .push(StructureIssue::MissingConvergenceBarrier { pc });
                }
                _ => {}
            }
        }
        for &s in &cfg.blocks()[b].succs {
            match armed_in[s] {
                None => {
                    armed_in[s] = Some(armed);
                    work.push(s);
                }
                Some(m) if m != armed => {
                    let issue = StructureIssue::UnbalancedBarrierJoin {
                        block: s,
                        masks: (m, armed),
                    };
                    if !report.issues.contains(&issue) {
                        report.issues.push(issue);
                    }
                }
                Some(_) => {}
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{KernelBuilder, Operand, Pred, Reg};

    #[test]
    fn well_formed_diamond_is_clean() {
        let r = Reg::r;
        let k = KernelBuilder::new("ok")
            .isetp(bow_isa::CmpOp::Ne, Pred::p(0), r(0).into(), Operand::Imm(0))
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 2)
            .label("join")
            .sync()
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep.is_ok(), "{:?}", rep.issues);
        assert!(rep.issues.is_empty());
    }

    #[test]
    fn sync_without_ssy_is_flagged() {
        let k = KernelBuilder::new("bad").sync().exit().build().unwrap();
        let rep = check_structure(&k);
        assert!(!rep.is_ok());
        assert!(matches!(
            rep.issues[0],
            StructureIssue::SyncWithoutSsy { pc: 0 }
        ));
    }

    #[test]
    fn unbalanced_join_is_flagged() {
        // One path pushes ssy, the other doesn't, then they meet.
        let r = Reg::r;
        let k = KernelBuilder::new("bad")
            .bra_if(Pred::p(0), false, "meet") // depth 0 path
            .ssy("meet") //                       depth 1 path
            .label("meet")
            .mov_imm(r(0), 1)
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep
            .issues
            .iter()
            .any(|i| matches!(i, StructureIssue::UnbalancedJoin { .. })));
    }

    #[test]
    fn exit_inside_ssy_region_is_flagged() {
        let k = KernelBuilder::new("bad")
            .ssy("end")
            .exit()
            .label("end")
            .sync()
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep
            .issues
            .iter()
            .any(|i| matches!(i, StructureIssue::UnclosedSsy { .. })));
    }

    #[test]
    fn uniform_loop_is_advisory_only() {
        let r = Reg::r;
        let k = KernelBuilder::new("loop")
            .mov_imm(r(0), 0)
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .isetp(bow_isa::CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(4))
            .bra_if(Pred::p(0), false, "top")
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep.is_ok());
        assert_eq!(rep.issues.len(), 1);
        assert!(!rep.issues[0].is_error());
    }

    #[test]
    fn backward_branch_into_a_diamond_arm_is_unbalanced() {
        // After the diamond reconverges, a depth-0 branch jumps back into
        // the fall-through arm, which was first reached at depth 1: the
        // re-entry would run the arm without a reconvergence point and
        // the `sync` at the join would pop an empty stack.
        let r = Reg::r;
        let k = KernelBuilder::new("bad")
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .label("arm")
            .mov_imm(r(1), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 2)
            .label("join")
            .sync()
            .bra_if(Pred::p(1), false, "arm")
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(!rep.is_ok(), "{:?}", rep.issues);
        assert!(
            rep.issues
                .iter()
                .any(|i| matches!(i, StructureIssue::UnbalancedJoin { depths: (1, 0), .. })),
            "{:?}",
            rep.issues
        );
    }

    #[test]
    fn barrier_on_one_arm_is_not_a_structural_issue() {
        // A `bar` on one arm of a diamond deadlocks the warp, but the
        // SSY/SYNC bookkeeping is balanced — the structure checker must
        // stay quiet and leave the finding to the `B002` lint, which
        // reads the same SSY regions.
        let r = Reg::r;
        let k = KernelBuilder::new("bad")
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 1)
            .bra("join")
            .label("then")
            .bar()
            .mov_imm(r(1), 2)
            .label("join")
            .sync()
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep.is_ok(), "{:?}", rep.issues);
        let lint = crate::verify::lint_kernel(&k, &crate::verify::LintOptions::default());
        assert!(
            lint.diagnostics.iter().any(|d| d.code == "B002"),
            "{lint:?}"
        );
    }

    #[test]
    fn unreachable_tail_block_is_skipped_not_misjudged() {
        // Dead code after the exit contains a bare `sync`; the abstract
        // stack never reaches it, so the structure checker must not
        // report SyncWithoutSsy. Reporting the dead block itself is the
        // `B005` lint's job.
        let k = KernelBuilder::new("tail")
            .bra("end")
            .label("dead")
            .sync()
            .label("end")
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep.is_ok(), "{:?}", rep.issues);
        assert!(rep.issues.is_empty(), "{:?}", rep.issues);
        let lint = crate::verify::lint_kernel(&k, &crate::verify::LintOptions::default());
        assert!(
            lint.diagnostics.iter().any(|d| d.code == "B005"),
            "{lint:?}"
        );
    }

    #[test]
    fn issue_messages_are_readable() {
        assert_eq!(
            StructureIssue::SyncWithoutSsy { pc: 7 }.to_string(),
            "sync at #7 pops an empty reconvergence stack"
        );
        assert_eq!(
            StructureIssue::BsyncUnarmed { pc: 3, bar: 2 }.to_string(),
            "bsync at #3 waits on b2 which no path arms"
        );
    }

    #[test]
    fn well_formed_barrier_diamond_is_clean() {
        let r = Reg::r;
        let k = KernelBuilder::new("bok")
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 2)
            .label("join")
            .bsync(0)
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep.is_ok(), "{:?}", rep.issues);
        assert!(rep.issues.is_empty());
    }

    #[test]
    fn unarmed_bsync_is_flagged() {
        let k = KernelBuilder::new("bad").bsync(3).exit().build().unwrap();
        let rep = check_structure(&k);
        assert!(!rep.is_ok());
        assert!(matches!(
            rep.issues[0],
            StructureIssue::BsyncUnarmed { pc: 0, bar: 3 }
        ));
    }

    #[test]
    fn unbalanced_barrier_join_is_flagged() {
        // One path arms b0, the other bypasses the bssy, then they meet at
        // the bsync: the bypassing threads wait on nothing.
        let r = Reg::r;
        let k = KernelBuilder::new("bad")
            .bra_if(Pred::p(0), false, "meet")
            .bssy(0, "meet")
            .mov_imm(r(0), 1)
            .label("meet")
            .bsync(0)
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(
            rep.issues
                .iter()
                .any(|i| matches!(i, StructureIssue::UnbalancedBarrierJoin { .. })),
            "{:?}",
            rep.issues
        );
    }

    #[test]
    fn barrier_form_uniform_loop_is_advisory_only() {
        // A guarded back-edge outside every armed region: advisory, exactly
        // mirroring the stack form's assumed-uniform case. The kernel still
        // needs one bssy/bsync so the checker takes the barrier path.
        let r = Reg::r;
        let k = KernelBuilder::new("bloop")
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 2)
            .label("join")
            .bsync(0)
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .isetp(bow_isa::CmpOp::Lt, Pred::p(1), r(0).into(), Operand::Imm(4))
            .bra_if(Pred::p(1), false, "top")
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep.is_ok(), "{:?}", rep.issues);
        assert_eq!(rep.issues.len(), 1, "{:?}", rep.issues);
        assert!(matches!(
            rep.issues[0],
            StructureIssue::MissingConvergenceBarrier { .. }
        ));
    }

    #[test]
    fn exit_inside_armed_region_is_supported_under_barriers() {
        // The stack form flags UnclosedSsy; the barrier form's exit-retire
        // disarms abandoned barriers, so this is clean.
        let r = Reg::r;
        let k = KernelBuilder::new("bexit")
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 1)
            .bra("join")
            .label("then")
            .exit()
            .label("join")
            .bsync(0)
            .exit()
            .build()
            .unwrap();
        let rep = check_structure(&k);
        assert!(rep.is_ok(), "{:?}", rep.issues);
        assert!(rep.issues.is_empty(), "{:?}", rep.issues);
    }
}
