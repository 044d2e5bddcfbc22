//! A generic iterative dataflow engine over [`Cfg`] + [`RegSet`] lattices.
//!
//! One solver covers the four classic combinations of direction and meet:
//!
//! | analysis        | direction | meet      | built on the engine by     |
//! |-----------------|-----------|-----------|----------------------------|
//! | may-live        | backward  | union     | [`may_live`] (→ `Liveness`)|
//! | must-init       | forward   | intersect | [`must_init`]              |
//! | may-init        | forward   | union     | [`may_init`]               |
//!
//! Facts are kept per block boundary, and every transfer is a per-block
//! gen/kill summary; passes that need per-instruction facts replay the
//! block from the operand table of [`Analysis`](crate::Analysis) (see
//! `lints.rs`, and `Analysis::max_live` for the register-pressure
//! replay), which keeps the fixpoint state and each of
//! its steps `O(blocks)` instead of `O(instructions)`.

use crate::analysis::{operand_table, summarize, BlockSummary};
use crate::cfg::Cfg;
use crate::regset::RegSet;
use bow_isa::Kernel;

/// Direction a dataflow problem propagates facts in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Facts flow entry → exit along CFG edges.
    Forward,
    /// Facts flow exit → entry against CFG edges.
    Backward,
}

/// How facts from multiple CFG paths combine at a block boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Meet {
    /// May-analysis: a fact holds if it holds on *some* path.
    Union,
    /// Must-analysis: a fact holds only if it holds on *every* path.
    Intersect,
}

impl Meet {
    fn apply(self, acc: &mut RegSet, other: &RegSet) {
        match self {
            Meet::Union => {
                acc.union_with(other);
            }
            Meet::Intersect => {
                acc.intersect_with(other);
            }
        }
    }

    /// The identity element of the meet (⊥ for union, ⊤ for intersect) —
    /// the optimistic initial value every non-boundary fact starts from.
    fn identity(self) -> RegSet {
        match self {
            Meet::Union => RegSet::new(),
            Meet::Intersect => RegSet::full(),
        }
    }
}

/// The solved facts: one [`RegSet`] pair per block. `entry[b]` is the fact
/// at the block's first instruction, `exit[b]` at its last — for both
/// directions (the solver normalizes the orientation).
#[derive(Clone, Debug)]
pub struct Facts {
    /// Fact holding at each block's entry boundary.
    pub entry: Vec<RegSet>,
    /// Fact holding at each block's exit boundary.
    pub exit: Vec<RegSet>,
}

/// Solves a dataflow problem to its least (union) or greatest (intersect)
/// fixpoint.
///
/// `transfer(block, input)` maps the fact across one block: entry → exit
/// for [`Direction::Forward`], exit → entry for [`Direction::Backward`].
/// `boundary` seeds the entry block (forward) or every exit-less block
/// (backward).
pub fn solve<F>(cfg: &Cfg, dir: Direction, meet: Meet, boundary: RegSet, transfer: F) -> Facts
where
    F: Fn(usize, &RegSet) -> RegSet,
{
    let n = cfg.len();
    let mut entry = vec![meet.identity(); n];
    let mut exit = vec![meet.identity(); n];
    if n == 0 {
        return Facts { entry, exit };
    }
    match dir {
        Direction::Forward => entry[0] = boundary,
        Direction::Backward => {
            for (b, block) in cfg.blocks().iter().enumerate() {
                if block.succs.is_empty() {
                    exit[b] = boundary;
                }
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        match dir {
            Direction::Forward => {
                for b in 0..n {
                    if b != 0 && !cfg.blocks()[b].preds.is_empty() {
                        let mut acc = meet.identity();
                        for &p in &cfg.blocks()[b].preds {
                            meet.apply(&mut acc, &exit[p]);
                        }
                        if acc != entry[b] {
                            entry[b] = acc;
                            changed = true;
                        }
                    }
                    let out = transfer(b, &entry[b]);
                    if out != exit[b] {
                        exit[b] = out;
                        changed = true;
                    }
                }
            }
            Direction::Backward => {
                for b in (0..n).rev() {
                    if !cfg.blocks()[b].succs.is_empty() {
                        let mut acc = meet.identity();
                        for &s in &cfg.blocks()[b].succs {
                            meet.apply(&mut acc, &entry[s]);
                        }
                        if acc != exit[b] {
                            exit[b] = acc;
                            changed = true;
                        }
                    }
                    let inn = transfer(b, &exit[b]);
                    if inn != entry[b] {
                        entry[b] = inn;
                        changed = true;
                    }
                }
            }
        }
    }
    Facts { entry, exit }
}

/// Backward may-live analysis: `entry[b]` / `exit[b]` are the registers
/// whose current value may still be read (the facts `Liveness` exposes).
pub fn may_live(kernel: &Kernel, cfg: &Cfg) -> Facts {
    may_live_over(cfg, &summarize(cfg, &operand_table(kernel)))
}

/// [`may_live`] over per-block gen/kill summaries:
/// `in = uses ∪ (out − kills)`.
pub(crate) fn may_live_over(cfg: &Cfg, blocks: &[BlockSummary]) -> Facts {
    solve(
        cfg,
        Direction::Backward,
        Meet::Union,
        RegSet::new(),
        |b, out| {
            let mut live = *out;
            live.subtract(&blocks[b].kills);
            live.union_with(&blocks[b].uses);
            live
        },
    )
}

/// Forward must-init analysis: `entry[b]` is the set of registers written
/// on **every** path from the kernel entry to `b`. A read of a register
/// outside this set may observe an uninitialized value on some path.
pub fn must_init(kernel: &Kernel, cfg: &Cfg) -> Facts {
    must_init_over(cfg, &summarize(cfg, &operand_table(kernel)))
}

/// [`must_init`] over per-block summaries. A guarded write initializes
/// nothing for certain: the predicate-false lanes keep whatever was there
/// before, so only the block's kills count.
pub(crate) fn must_init_over(cfg: &Cfg, blocks: &[BlockSummary]) -> Facts {
    solve(
        cfg,
        Direction::Forward,
        Meet::Intersect,
        RegSet::new(),
        |b, inp| {
            let mut init = *inp;
            init.union_with(&blocks[b].kills);
            init
        },
    )
}

/// Forward may-init analysis: registers written on **some** path from the
/// entry. The complement of `entry[b]` is definitely-uninitialized at `b`.
pub fn may_init(kernel: &Kernel, cfg: &Cfg) -> Facts {
    let blocks = summarize(cfg, &operand_table(kernel));
    solve(
        cfg,
        Direction::Forward,
        Meet::Union,
        RegSet::new(),
        |b, inp| {
            let mut init = *inp;
            init.union_with(&blocks[b].defs);
            init
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{KernelBuilder, Operand, Pred, Reg};

    fn diamond() -> Kernel {
        // r0 written on the else arm only; r1 on both; read after the join.
        let r = Reg::r;
        KernelBuilder::new("d")
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(0), 1) // else arm: writes r0 and r1
            .mov_imm(r(1), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 2) // then arm: writes r1 only
            .label("join")
            .sync()
            .iadd(r(2), r(0).into(), r(1).into())
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn must_init_intersects_across_arms() {
        let k = diamond();
        let cfg = Cfg::build(&k);
        let f = must_init(&k, &cfg);
        let join = cfg.block_of(7);
        assert!(f.entry[join].contains(Reg::r(1)), "written on both arms");
        assert!(
            !f.entry[join].contains(Reg::r(0)),
            "then arm skips the write"
        );
    }

    #[test]
    fn may_init_unions_across_arms() {
        let k = diamond();
        let cfg = Cfg::build(&k);
        let f = may_init(&k, &cfg);
        let join = cfg.block_of(7);
        assert!(f.entry[join].contains(Reg::r(0)));
        assert!(f.entry[join].contains(Reg::r(1)));
        assert!(!f.entry[join].contains(Reg::r(9)), "never written anywhere");
    }

    #[test]
    fn may_live_matches_the_liveness_pass() {
        let k = diamond();
        let cfg = Cfg::build(&k);
        let f = may_live(&k, &cfg);
        let lv = crate::liveness::Liveness::compute(&k, &cfg);
        for b in 0..cfg.len() {
            assert_eq!(&f.entry[b], lv.live_in(b), "live_in of block {b}");
            assert_eq!(&f.exit[b], lv.live_out(b), "live_out of block {b}");
        }
    }

    #[test]
    fn loop_reaches_its_own_fixpoint() {
        let r = Reg::r;
        let k = KernelBuilder::new("loop")
            .mov_imm(r(0), 0)
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .isetp(bow_isa::CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(9))
            .bra_if(Pred::p(0), false, "top")
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        let f = must_init(&k, &cfg);
        let body = cfg.block_of(1);
        assert!(f.entry[body].contains(r(0)), "defined before the loop");
        let lv = may_live(&k, &cfg);
        assert!(lv.entry[body].contains(r(0)), "loop-carried");
        assert!(lv.entry[0].is_empty(), "nothing entry-live");
    }
}
