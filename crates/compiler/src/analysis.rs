//! The per-kernel analysis bundle every static pass reads.
//!
//! `annotate`, `emit_ctrl`, the lint suite and `characterize` all need the
//! same facts about a kernel: its [`Cfg`] and dominators, which registers
//! each instruction reads and writes, and may-live. None of those facts
//! depends on write-back hints or control bits, so one [`Analysis`] built
//! from a kernel serves every annotated or control-bit-carrying copy of it.
//! `bow::corpus` builds one per candidate and runs the whole static gate
//! on it; the public single-kernel entry points ([`crate::annotate`],
//! [`crate::emit_ctrl`], [`crate::lint_kernel`], [`crate::characterize()`],
//! …) build one and call the `*_with` form.
//!
//! The operand table is decoded once: a pass asks `Operands::reads`
//! (one bit test) where it used to rebuild an instruction's source list
//! inside its fixpoints and searches. May-live is solved over per-block
//! gen/kill summaries (`BlockSummary`), so each fixpoint step is a few
//! word operations per block instead of a replay of every instruction.

use crate::cfg::{Cfg, Dominators};
use crate::regset::RegSet;
use crate::verify::dataflow::{self, Facts};
use bow_isa::{Instruction, Kernel, Reg, RegList};

/// The register operands of one instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Operands {
    /// Every register the instruction reads (sources and memory base).
    pub(crate) reads: RegSet,
    /// The same registers without duplicates, in first-occurrence order
    /// ([`Instruction::unique_src_regs`]).
    pub(crate) unique: RegList,
    /// The register written, if any (RZ writes are no write).
    pub(crate) def: Option<Reg>,
    /// Whether the write is unguarded, so it certainly replaces the old
    /// value. A guarded (`@p`) write is only a may-def.
    pub(crate) kills: bool,
}

impl Operands {
    /// Decodes one instruction's register operands.
    pub(crate) fn of(inst: &Instruction) -> Operands {
        let unique = inst.unique_src_regs();
        let def = inst.dst_reg();
        Operands {
            reads: unique.iter().copied().collect(),
            unique,
            def,
            kills: def.is_some() && inst.guard.is_none(),
        }
    }

    /// The register this instruction certainly overwrites.
    pub(crate) fn kill(&self) -> Option<Reg> {
        self.def.filter(|_| self.kills)
    }

    /// Whether the instruction reads `r`.
    pub(crate) fn reads(&self, r: Reg) -> bool {
        self.reads.contains(r)
    }

    /// The may-live transfer across this instruction, backwards: `live`
    /// holds the registers live after it and becomes those live before.
    pub(crate) fn live_transfer(&self, live: &mut RegSet) {
        if let Some(d) = self.kill() {
            live.remove(d);
        }
        live.union_with(&self.reads);
    }
}

/// The gen/kill summary of one basic block.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct BlockSummary {
    /// Registers read before any unguarded write in the block
    /// (upward-exposed uses).
    pub(crate) uses: RegSet,
    /// Registers some unguarded instruction of the block writes.
    pub(crate) kills: RegSet,
    /// Registers any instruction of the block writes, guarded or not.
    pub(crate) defs: RegSet,
}

/// One summary per block of `cfg`, from the operand table `ops`.
pub(crate) fn summarize(cfg: &Cfg, ops: &[Operands]) -> Vec<BlockSummary> {
    cfg.blocks()
        .iter()
        .map(|block| {
            let mut s = BlockSummary::default();
            for op in ops[block.range()].iter().rev() {
                if let Some(d) = op.def {
                    s.defs.insert(d);
                }
                if let Some(d) = op.kill() {
                    s.uses.remove(d);
                    s.kills.insert(d);
                }
                s.uses.union_with(&op.reads);
            }
            s
        })
        .collect()
}

/// The operand table of `kernel`, one row per instruction.
pub(crate) fn operand_table(kernel: &Kernel) -> Vec<Operands> {
    kernel.insts.iter().map(Operands::of).collect()
}

/// The facts about a kernel that hints and control bits cannot change:
/// its CFG and dominators, the operand table and may-live.
#[derive(Clone, Debug)]
pub struct Analysis {
    cfg: Cfg,
    doms: Dominators,
    ops: Vec<Operands>,
    blocks: Vec<BlockSummary>,
    live: Facts,
}

impl Analysis {
    /// Builds the bundle for `kernel`. It stays valid for every kernel
    /// that differs from this one only in write-back hints and control
    /// bits.
    pub fn new(kernel: &Kernel) -> Analysis {
        let cfg = Cfg::build(kernel);
        let doms = cfg.dominators();
        let ops = operand_table(kernel);
        let blocks = summarize(&cfg, &ops);
        let live = dataflow::may_live_over(&cfg, &blocks);
        Analysis {
            cfg,
            doms,
            ops,
            blocks,
            live,
        }
    }

    /// The control-flow graph.
    pub(crate) fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The dominator tree and entry reachability.
    pub(crate) fn dominators(&self) -> &Dominators {
        &self.doms
    }

    /// The operand table, indexed by pc.
    pub(crate) fn ops(&self) -> &[Operands] {
        &self.ops
    }

    /// The gen/kill summaries, indexed by block.
    pub(crate) fn summaries(&self) -> &[BlockSummary] {
        &self.blocks
    }

    /// Registers live on exit from block `b`.
    pub(crate) fn live_out(&self, b: usize) -> &RegSet {
        &self.live.exit[b]
    }

    /// Registers that may be read before any write on some path from the
    /// kernel entry.
    pub(crate) fn entry_live(&self) -> RegSet {
        self.live.entry.first().copied().unwrap_or_default()
    }

    /// The most registers simultaneously live at any point of block `b`:
    /// its exit fact replayed backwards one instruction at a time. The
    /// `B006` pressure report tabulates it per block; `characterize` takes
    /// its maximum as the live-register peak.
    pub(crate) fn max_live(&self, b: usize) -> usize {
        let mut set = self.live.exit[b];
        let mut max = set.len();
        for op in self.ops[self.cfg.blocks()[b].range()].iter().rev() {
            op.live_transfer(&mut set);
            max = max.max(set.len());
        }
        max
    }

    /// Whether this bundle describes `kernel`: same length and the same
    /// register operands at every pc (checked in debug builds by every
    /// `*_with` pass).
    pub(crate) fn describes(&self, kernel: &Kernel) -> bool {
        self.ops.len() == kernel.insts.len()
            && self
                .ops
                .iter()
                .zip(&kernel.insts)
                .all(|(op, inst)| *op == Operands::of(inst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{CmpOp, KernelBuilder, Operand, Pred};

    #[test]
    fn summaries_replay_like_the_instructions() {
        let r = Reg::r;
        let k = KernelBuilder::new("loop")
            .mov_imm(r(0), 0)
            .label("top")
            .iadd(r(1), r(0).into(), r(2).into())
            .guard(Pred::p(1), false)
            .mov_imm(r(2), 1)
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(10))
            .bra_if(Pred::p(0), false, "top")
            .stg(r(1), 0, r(2).into())
            .exit()
            .build()
            .unwrap();
        let an = Analysis::new(&k);
        assert!(an.describes(&k));
        let body = an.cfg().block_of(1);
        let s = &an.summaries()[body];
        assert!(s.uses.contains(r(0)) && s.uses.contains(r(2)));
        assert!(s.kills.contains(r(0)) && s.kills.contains(r(1)));
        assert!(!s.kills.contains(r(2)), "a guarded write is no kill");
        assert!(s.defs.contains(r(2)));
        // The summary transfer equals the instruction-wise replay.
        for b in 0..an.cfg().len() {
            let mut live = *an.live_out(b);
            for op in an.ops()[an.cfg().blocks()[b].range()].iter().rev() {
                op.live_transfer(&mut live);
            }
            assert_eq!(live, an.live.entry[b], "block {b}");
        }
    }
}
