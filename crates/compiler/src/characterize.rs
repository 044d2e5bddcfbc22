//! Static kernel characterization along the paper's workload axes.
//!
//! The corpus machinery (`bow::corpus`) stratifies generated kernels by
//! register pressure, operand reuse distance, divergence and memory
//! intensity — the axes §II of the paper argues drive bypass
//! opportunity. [`characterize`] measures where a *concrete* kernel
//! actually landed, independent of the generator knobs that produced it,
//! using the same dataflow engine the lint suite runs on:
//!
//! * **live-register peak** — per-instruction replay of the may-live
//!   fixpoint, the maximum number of simultaneously live registers at
//!   any program point (an upper bound on how much state a breathing
//!   window must keep resident);
//! * **mean reuse distance** — average def→use gap in instruction slots,
//!   the quantity the operand-window eviction policy races against;
//! * **divergence nesting** — maximum `SSY` reconvergence-stack depth;
//! * **memory density** — loads + stores per 1000 instructions.
//!
//! Everything is integral (the mean is reported ×100) so downstream
//! manifests serialize byte-identically on every platform.

use crate::analysis::Analysis;
use crate::regset::RegSet;
use bow_isa::{Kernel, Opcode};

/// The static characterization vector of one kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelTraits {
    /// Static instruction count.
    pub insts: u32,
    /// Maximum simultaneously live registers at any program point.
    pub live_peak: u32,
    /// Distinct destination registers — the static register footprint.
    pub regs_written: u32,
    /// Mean def→use distance in instruction slots, ×100 (0 if the kernel
    /// has no register reuse at all).
    pub reuse_x100: u64,
    /// Maximum `SSY` reconvergence nesting depth.
    pub branch_depth: u32,
    /// Loads + stores per 1000 static instructions.
    pub mem_per_ki: u32,
    /// Static loads (global, shared and constant).
    pub loads: u32,
    /// Static stores (global and shared).
    pub stores: u32,
    /// Static block-wide barriers.
    pub barriers: u32,
}

/// Measures `kernel` along the corpus axes. Pure and deterministic: the
/// same kernel yields the same vector on every platform.
pub fn characterize(kernel: &Kernel) -> KernelTraits {
    characterize_with(kernel, &Analysis::new(kernel))
}

/// [`characterize`] over `kernel`'s analysis bundle.
pub fn characterize_with(kernel: &Kernel, an: &Analysis) -> KernelTraits {
    debug_assert!(an.describes(kernel), "the bundle of another kernel");
    // Live peak: the B006 pressure replay, maximised over every
    // reachable block.
    let live_peak = (0..an.cfg().len())
        .filter(|&b| an.dominators().is_reachable(b))
        .map(|b| an.max_live(b))
        .max()
        .unwrap_or(0);

    // Reuse distance: linear def→use gaps. Straight-line distance is the
    // quantity the operand window sees for the bypass-eligible reads; a
    // use reaching across a branch is charged its textual distance, the
    // same pessimistic metric the window-eviction model uses.
    let mut last_def = [None::<usize>; 256];
    let mut gap_sum = 0u64;
    let mut gap_n = 0u64;
    // Register footprint: distinct destinations.
    let mut written = RegSet::new();
    for (pc, op) in an.ops().iter().enumerate() {
        for src in &op.unique {
            if let Some(d) = last_def[src.index() as usize] {
                gap_sum += (pc - d) as u64;
                gap_n += 1;
            }
        }
        if let Some(d) = op.def {
            last_def[d.index() as usize] = Some(pc);
            written.insert(d);
        }
    }
    let regs_written = written.len() as u32;

    // Divergence nesting and memory mix from one linear opcode walk.
    let mut depth = 0u32;
    let mut branch_depth = 0u32;
    let mut loads = 0u32;
    let mut stores = 0u32;
    let mut barriers = 0u32;
    for inst in &kernel.insts {
        match inst.op {
            Opcode::Ssy => {
                depth += 1;
                branch_depth = branch_depth.max(depth);
            }
            Opcode::Sync => depth = depth.saturating_sub(1),
            Opcode::Ldg | Opcode::Lds | Opcode::Ldc => loads += 1,
            Opcode::Stg | Opcode::Sts => stores += 1,
            Opcode::Bar => barriers += 1,
            _ => {}
        }
    }

    let insts = kernel.insts.len() as u32;
    KernelTraits {
        insts,
        live_peak: live_peak as u32,
        regs_written,
        reuse_x100: (gap_sum * 100).checked_div(gap_n).unwrap_or(0),
        branch_depth,
        mem_per_ki: ((loads + stores) * 1000).checked_div(insts).unwrap_or(0),
        loads,
        stores,
        barriers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{KernelBuilder, Operand, Reg};

    fn r(i: u8) -> Reg {
        Reg::r(i)
    }

    #[test]
    fn straight_line_traits() {
        let k = KernelBuilder::new("t")
            .mov_imm(r(0), 1)
            .mov_imm(r(1), 2)
            .iadd(r(2), r(0).into(), r(1).into())
            .stg(r(2), 0, r(2).into())
            .exit()
            .build()
            .unwrap();
        let t = characterize(&k);
        assert_eq!(t.insts, 5);
        assert_eq!(t.branch_depth, 0);
        assert_eq!(t.stores, 1);
        assert_eq!(t.loads, 0);
        // r0 used at distance 2, r1 at 1, r2 at 1 (base + data collapse
        // to one unique read) → mean = (2 + 1 + 1) / 3 ×100 = 133.
        assert_eq!(t.reuse_x100, 133);
        // r0 and r1 live together before the add.
        assert!(t.live_peak >= 2);
    }

    #[test]
    fn diamond_counts_nesting() {
        use bow_isa::{CmpOp, Pred};
        let k = KernelBuilder::new("d")
            .mov_imm(r(0), 1)
            .isetp(CmpOp::Ne, Pred::p(0), r(0).into(), Operand::Imm(0))
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 2)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 3)
            .label("join")
            .sync()
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let t = characterize(&k);
        assert_eq!(t.branch_depth, 1);
    }

    #[test]
    fn fuzz_kernels_characterize_deterministically() {
        use bow_isa::fuzz::FuzzKernel;
        use bow_util::XorShift;
        let mut rng = XorShift::new(0xc0ffee);
        for _ in 0..10 {
            let k = FuzzKernel::generate(&mut rng).build("c");
            assert_eq!(characterize(&k), characterize(&k));
        }
    }
}
