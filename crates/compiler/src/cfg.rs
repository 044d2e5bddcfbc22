//! Control-flow-graph construction over BOW kernels.

use bow_isa::{Kernel, Opcode};

/// One basic block: a maximal straight-line range of instructions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// First instruction index (inclusive).
    pub start: usize,
    /// Last instruction index (exclusive).
    pub end: usize,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

impl Block {
    /// Instruction indices in the block.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block holds no instructions (never true in a built CFG).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The control-flow graph of a kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cfg {
    blocks: Vec<Block>,
    /// Block id containing each instruction.
    block_of: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG. Leaders are: instruction 0, every branch/SSY target,
    /// and every instruction following a branch or exit.
    pub fn build(kernel: &Kernel) -> Cfg {
        let n = kernel.insts.len();
        let mut leader = vec![false; n + 1];
        leader[0] = true;
        leader[n] = true;
        for (pc, inst) in kernel.iter() {
            match inst.op {
                Opcode::Bra => {
                    if let Some(t) = inst.target {
                        leader[t] = true;
                    }
                    leader[pc + 1] = true;
                }
                // The reconvergence point begins a block: two paths meet
                // there. `bssy` names its reconvergence point the same way.
                Opcode::Ssy | Opcode::Bssy if inst.target.is_some() => {
                    leader[inst.target.expect("guarded by the arm")] = true;
                }
                Opcode::Exit => leader[pc + 1] = true,
                _ => {}
            }
        }
        let starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
        let mut blocks: Vec<Block> = Vec::with_capacity(starts.len());
        let mut block_of = vec![0usize; n];
        for (bi, &s) in starts.iter().enumerate() {
            let e = starts.get(bi + 1).copied().unwrap_or(n);
            for slot in &mut block_of[s..e] {
                *slot = bi;
            }
            blocks.push(Block {
                start: s,
                end: e,
                succs: Vec::new(),
                preds: Vec::new(),
            });
        }
        // Edges.
        for bi in 0..blocks.len() {
            let last = blocks[bi].end - 1;
            let inst = &kernel.insts[last];
            let mut succs = Vec::new();
            match inst.op {
                Opcode::Exit => {}
                Opcode::Bra => {
                    let t = inst.target.expect("validated branch target");
                    succs.push(block_of[t]);
                    if inst.guard.is_some() && blocks[bi].end < n {
                        succs.push(block_of[blocks[bi].end]);
                    }
                }
                _ => {
                    if blocks[bi].end < n {
                        succs.push(block_of[blocks[bi].end]);
                    }
                }
            }
            succs.dedup();
            for &s in &succs {
                blocks[s].preds.push(bi);
            }
            blocks[bi].succs = succs;
        }
        Cfg { blocks, block_of }
    }

    /// The blocks, in program order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The block containing instruction `pc`.
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has no blocks (only for empty kernels).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Computes the dominator tree (Cooper–Harvey–Kennedy iteration over
    /// reverse postorder) together with entry reachability.
    pub fn dominators(&self) -> Dominators {
        let n = self.blocks.len();
        let (idom, reachable, rpo) =
            idom_fixpoint(n, 0, |b| &self.blocks[b].succs, |b| &self.blocks[b].preds);
        Dominators {
            idom,
            reachable,
            rpo,
        }
    }

    /// Computes the post-dominator tree: the same CHK fixpoint run on the
    /// reversed CFG, with a virtual exit node fed by every `exit`-terminated
    /// block. The virtual node lets kernels with several `exit`s (or exits
    /// inside divergent arms) still have a single post-dominance root.
    pub fn postdominators(&self) -> PostDominators {
        let n = self.blocks.len();
        let vexit = n; // virtual exit node id
        let mut succs = vec![Vec::new(); n + 1];
        let mut preds = vec![Vec::new(); n + 1];
        for (bi, b) in self.blocks.iter().enumerate() {
            // Reversed edges: a block's successors in the reverse graph are
            // its CFG predecessors.
            succs[bi] = b.preds.clone();
            preds[bi] = b.succs.clone();
            if b.succs.is_empty() {
                // Exit-terminated block: flows to the virtual exit, so the
                // reverse graph has an edge vexit -> bi.
                succs[vexit].push(bi);
                preds[bi].push(vexit);
            }
        }
        let (ipdom, reachable, _) = idom_fixpoint(n + 1, vexit, |b| &succs[b], |b| &preds[b]);
        PostDominators {
            ipdom,
            reachable,
            vexit,
        }
    }
}

/// Cooper–Harvey–Kennedy immediate-dominator fixpoint over an adjacency
/// list (`succs(b)` / `preds(b)` of node `b`). Returns `(idom, reachable, rpo)` where `idom[entry] =
/// entry`, unreachable nodes map to `usize::MAX`, and `rpo` lists reachable
/// nodes in reverse postorder from `entry`. Running it on the reversed graph
/// from a virtual exit yields post-dominators.
fn idom_fixpoint<'g>(
    n: usize,
    entry: usize,
    succs: impl Fn(usize) -> &'g [usize],
    preds: impl Fn(usize) -> &'g [usize],
) -> (Vec<usize>, Vec<bool>, Vec<usize>) {
    let mut postorder_of = vec![usize::MAX; n];
    let mut rpo = Vec::new();
    if n > 0 {
        // Iterative DFS postorder from the entry node.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
        visited[entry] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(&s) = succs(b).get(*next) {
                *next += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        for (i, &b) in post.iter().enumerate() {
            postorder_of[b] = i;
        }
        rpo = post;
        rpo.reverse();
    }
    let reachable: Vec<bool> = postorder_of.iter().map(|&p| p != usize::MAX).collect();

    // idom fixpoint; the entry is its own idom while iterating.
    let mut idom = vec![usize::MAX; n];
    if n > 0 {
        idom[entry] = entry;
        let intersect = |idom: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while postorder_of[a] < postorder_of[b] {
                    a = idom[a];
                }
                while postorder_of[b] < postorder_of[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new = usize::MAX;
                for &p in preds(b) {
                    if idom[p] == usize::MAX {
                        continue; // unprocessed or unreachable
                    }
                    new = if new == usize::MAX {
                        p
                    } else {
                        intersect(&idom, new, p)
                    };
                }
                if new != usize::MAX && idom[b] != new {
                    idom[b] = new;
                    changed = true;
                }
            }
        }
    }
    (idom, reachable, rpo)
}

/// The dominator tree and reachability facts of a [`Cfg`] (see
/// [`Cfg::dominators`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dominators {
    /// Immediate dominator per block; the entry maps to itself and
    /// unreachable blocks to `usize::MAX`.
    idom: Vec<usize>,
    reachable: Vec<bool>,
    rpo: Vec<usize>,
}

impl Dominators {
    /// Whether block `b` is reachable from the entry.
    pub fn is_reachable(&self, b: usize) -> bool {
        self.reachable[b]
    }

    /// The immediate dominator of `b` (`None` for the entry block and for
    /// unreachable blocks).
    pub fn idom(&self, b: usize) -> Option<usize> {
        (self.reachable[b] && b != 0).then(|| self.idom[b])
    }

    /// Whether `a` dominates `b` (reflexive). False if either block is
    /// unreachable.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if !self.reachable.get(a).copied().unwrap_or(false)
            || !self.reachable.get(b).copied().unwrap_or(false)
        {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == 0 {
                return false;
            }
            cur = self.idom[cur];
        }
    }

    /// Whether the edge `from → to` is a back edge (its target dominates
    /// its source) — the loop-identifying test.
    pub fn is_back_edge(&self, from: usize, to: usize) -> bool {
        self.dominates(to, from)
    }

    /// Reachable blocks in reverse postorder (the canonical forward
    /// iteration order for dataflow).
    pub fn reverse_postorder(&self) -> &[usize] {
        &self.rpo
    }
}

/// The post-dominator tree of a [`Cfg`] (see [`Cfg::postdominators`]).
///
/// Rooted at a virtual exit node so kernels with multiple `exit`s have a
/// single post-dominance root. Blocks that cannot reach any exit (e.g. an
/// infinite loop) post-dominate nothing and have no immediate
/// post-dominator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PostDominators {
    /// Immediate post-dominator per node (indices `0..=vexit`); nodes that
    /// cannot reach an exit map to `usize::MAX`.
    ipdom: Vec<usize>,
    reachable: Vec<bool>,
    /// Id of the virtual exit node (`cfg.len()`).
    vexit: usize,
}

impl PostDominators {
    /// Whether block `b` can reach an exit (i.e. participates in
    /// post-dominance at all).
    pub fn reaches_exit(&self, b: usize) -> bool {
        self.reachable.get(b).copied().unwrap_or(false)
    }

    /// The immediate post-dominator of `b`. `None` when `b` cannot reach an
    /// exit or when its only post-dominator is the virtual exit (every
    /// `exit`-terminated block).
    pub fn ipdom(&self, b: usize) -> Option<usize> {
        if !self.reaches_exit(b) {
            return None;
        }
        let p = self.ipdom[b];
        (p != self.vexit).then_some(p)
    }

    /// Whether `a` post-dominates `b` (reflexive): every path from `b` to an
    /// exit passes through `a`. False if either block cannot reach an exit.
    pub fn postdominates(&self, a: usize, b: usize) -> bool {
        if !self.reaches_exit(a) || !self.reaches_exit(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.vexit {
                return false;
            }
            cur = self.ipdom[cur];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{CmpOp, KernelBuilder, Operand, Pred, Reg};

    fn loop_kernel() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("loop")
            .mov_imm(r(0), 0) //            B0
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1)) // B1
            .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(10))
            .bra_if(Pred::p(0), false, "top")
            .exit() //                      B2
            .build()
            .unwrap()
    }

    #[test]
    fn straight_line_is_one_block() {
        let r = Reg::r;
        let k = KernelBuilder::new("s")
            .mov_imm(r(0), 1)
            .mov_imm(r(1), 2)
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.blocks()[0].range(), 0..3);
        assert!(cfg.blocks()[0].succs.is_empty());
    }

    #[test]
    fn loop_forms_three_blocks_with_back_edge() {
        let cfg = Cfg::build(&loop_kernel());
        assert_eq!(cfg.len(), 3);
        let b1 = &cfg.blocks()[1];
        assert_eq!(b1.range(), 1..4);
        assert!(b1.succs.contains(&1), "back edge");
        assert!(b1.succs.contains(&2), "fallthrough");
        assert_eq!(cfg.blocks()[2].preds, vec![1]);
    }

    #[test]
    fn unconditional_branch_has_single_successor() {
        let r = Reg::r;
        let k = KernelBuilder::new("j")
            .bra("end")
            .mov_imm(r(0), 1) // dead block
            .label("end")
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks()[0].succs, vec![2]);
        assert!(cfg.blocks()[1].preds.is_empty(), "dead code has no preds");
    }

    #[test]
    fn ssy_target_starts_a_block() {
        let r = Reg::r;
        let k = KernelBuilder::new("d")
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(0), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(0), 2)
            .label("join")
            .sync()
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        // Blocks: [ssy,bra] [mov,bra] [mov] [sync,exit]
        assert_eq!(cfg.len(), 4);
        let join = cfg.block_of(6);
        assert_eq!(cfg.blocks()[join].preds.len(), 2, "both paths reach join");
    }

    #[test]
    fn dominators_of_a_diamond() {
        let r = Reg::r;
        let k = KernelBuilder::new("d")
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(0), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(0), 2)
            .label("join")
            .sync()
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        let doms = cfg.dominators();
        // Blocks: 0 = [ssy,bra], 1 = else arm, 2 = then arm, 3 = join.
        let join = cfg.block_of(6);
        assert!(doms.dominates(0, join), "entry dominates the join");
        assert!(!doms.dominates(1, join), "an arm does not");
        assert!(!doms.dominates(2, join));
        assert_eq!(doms.idom(join), Some(0));
        assert!(doms.dominates(join, join), "reflexive");
        assert_eq!(doms.idom(0), None, "entry has no idom");
    }

    #[test]
    fn back_edge_identifies_the_loop() {
        let cfg = Cfg::build(&loop_kernel());
        let doms = cfg.dominators();
        assert!(doms.is_back_edge(1, 1), "self-loop on the body block");
        assert!(!doms.is_back_edge(0, 1));
        assert_eq!(doms.reverse_postorder()[0], 0);
    }

    #[test]
    fn unreachable_block_is_flagged() {
        let r = Reg::r;
        let k = KernelBuilder::new("j")
            .bra("end")
            .mov_imm(r(0), 1) // dead block
            .label("end")
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        let doms = cfg.dominators();
        assert!(doms.is_reachable(0));
        assert!(!doms.is_reachable(1));
        assert!(doms.is_reachable(2));
        assert!(!doms.dominates(0, 1), "dominance undefined off the CFG");
        assert_eq!(doms.idom(1), None);
        assert_eq!(doms.reverse_postorder().len(), 2);
    }

    /// if (p0) { if (p1) {..} else {..} join_inner } else {..} join_outer
    fn nested_diamond_kernel() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("nest")
            .ssy("join_outer")
            .bra_if(Pred::p(0), false, "outer_then") // B0
            .ssy("join_inner")
            .bra_if(Pred::p(1), false, "inner_then") // B1 (outer else arm head)
            .mov_imm(r(0), 1)
            .bra("join_inner") // B2 (inner else)
            .label("inner_then")
            .mov_imm(r(0), 2) // B3
            .label("join_inner")
            .sync()
            .bra("join_outer") // B4
            .label("outer_then")
            .mov_imm(r(0), 3) // B5
            .label("join_outer")
            .sync()
            .exit() // B6
            .build()
            .unwrap()
    }

    #[test]
    fn postdominators_of_a_diamond() {
        let r = Reg::r;
        let k = KernelBuilder::new("d")
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(0), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(0), 2)
            .label("join")
            .sync()
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        let pdom = cfg.postdominators();
        // Blocks: 0 = [ssy,bra], 1 = else arm, 2 = then arm, 3 = join.
        let join = cfg.block_of(6);
        assert!(pdom.postdominates(join, 0), "join post-dominates the fork");
        assert!(pdom.postdominates(join, 1));
        assert!(pdom.postdominates(join, 2));
        assert!(!pdom.postdominates(1, 0), "an arm does not");
        assert_eq!(pdom.ipdom(0), Some(join));
        assert_eq!(pdom.ipdom(1), Some(join));
        assert_eq!(pdom.ipdom(2), Some(join));
        assert_eq!(pdom.ipdom(join), None, "exit block's only pdom is virtual");
        assert!(pdom.postdominates(join, join), "reflexive");
    }

    #[test]
    fn postdominators_of_nested_diamonds() {
        let cfg = Cfg::build(&nested_diamond_kernel());
        let pdom = cfg.postdominators();
        let inner_fork = cfg.block_of(2); // block holding the inner ssy
        let inner_join = cfg.block_of(8); // inner sync
        let outer_join = cfg.block_of(11); // outer sync
        assert_eq!(pdom.ipdom(inner_fork), Some(inner_join));
        assert!(pdom.postdominates(outer_join, inner_fork));
        assert!(pdom.postdominates(outer_join, 0));
        assert!(
            !pdom.postdominates(inner_join, 0),
            "outer-then arm bypasses the inner join"
        );
        assert_eq!(pdom.ipdom(inner_join), Some(outer_join));
    }

    #[test]
    fn postdominators_of_a_loop_with_break() {
        let r = Reg::r;
        // while (p0) { if (p1) break; body } tail
        let k = KernelBuilder::new("brk")
            .mov_imm(r(0), 0) // B0
            .label("top")
            .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(10))
            .bra_if(Pred::p(0), true, "tail") // B1: loop exit test
            .bra_if(Pred::p(1), false, "tail") // B2: break
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .bra("top") // B3: body + back edge
            .label("tail")
            .exit() // B4
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        let pdom = cfg.postdominators();
        let tail = cfg.block_of(6);
        // Every path out of the loop funnels through the tail.
        for b in 0..cfg.len() {
            assert!(pdom.postdominates(tail, b), "tail post-dominates B{b}");
        }
        // The body does not post-dominate the header: the break bypasses it.
        let header = cfg.block_of(1);
        let body = cfg.block_of(4);
        assert!(!pdom.postdominates(body, header));
        assert_eq!(pdom.ipdom(body), Some(header), "back edge re-enters header");
    }

    #[test]
    fn infinite_loop_does_not_reach_exit() {
        let r = Reg::r;
        let k = KernelBuilder::new("inf")
            .bra_if(Pred::p(0), false, "spin") // B0
            .exit() // B1
            .label("spin")
            .mov_imm(r(0), 1)
            .bra("spin") // B2: no path to exit
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        let pdom = cfg.postdominators();
        let spin = cfg.block_of(2);
        assert!(!pdom.reaches_exit(spin));
        assert_eq!(pdom.ipdom(spin), None);
        assert!(!pdom.postdominates(spin, 0));
        assert!(pdom.reaches_exit(0), "entry still reaches the exit arm");
    }

    #[test]
    fn unreachable_block_still_postdominated_by_its_exit_path() {
        let r = Reg::r;
        let k = KernelBuilder::new("j")
            .bra("end")
            .mov_imm(r(0), 1) // dead block, falls through to end
            .label("end")
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        let pdom = cfg.postdominators();
        // Post-dominance is about reaching exits, not entry reachability:
        // the dead block still flows into the exit block.
        assert!(pdom.reaches_exit(1));
        assert_eq!(pdom.ipdom(1), Some(2));
    }

    #[test]
    fn bssy_target_starts_a_block() {
        let r = Reg::r;
        let k = KernelBuilder::new("bd")
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(0), 1)
            .bra("join")
            .label("then")
            .mov_imm(r(0), 2)
            .label("join")
            .bsync(0)
            .exit()
            .build()
            .unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.len(), 4, "bssy target is a leader like ssy's");
        let join = cfg.block_of(6);
        assert_eq!(cfg.blocks()[join].preds.len(), 2);
    }

    #[test]
    fn block_of_is_consistent() {
        let k = loop_kernel();
        let cfg = Cfg::build(&k);
        for (bi, b) in cfg.blocks().iter().enumerate() {
            for pc in b.range() {
                assert_eq!(cfg.block_of(pc), bi);
            }
        }
    }
}
