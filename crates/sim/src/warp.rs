//! Per-warp architectural state: register rows, predicates, divergence
//! bookkeeping (SIMT reconvergence stack or stack-less convergence
//! barriers, depending on the divergence model) and barrier/exit state.

use bow_isa::{Pred, Reg, NUM_CBARS, WARP_SIZE};

/// One warp register: a value per lane. The register file reads and
/// writes a warp register as one entry, and execution moves it as one row.
pub type Lanes = [u32; WARP_SIZE];

/// The lanes set in `mask`, ascending.
pub(crate) fn lanes_in(mask: u32) -> impl Iterator<Item = usize> {
    let mut left = mask;
    std::iter::from_fn(move || {
        let lane = (left != 0).then(|| left.trailing_zeros() as usize);
        left &= left.wrapping_sub(1);
        lane
    })
}

/// Why an entry sits on the SIMT stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackKind {
    /// Pushed by `ssy`: the reconvergence point and the pre-divergence mask.
    Sync,
    /// Pushed by a divergent branch: the not-taken path still to execute.
    Div,
}

/// One SIMT reconvergence stack entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StackEntry {
    /// Entry kind.
    pub kind: StackKind,
    /// Program counter to resume at.
    pub pc: usize,
    /// Active mask to resume with.
    pub mask: u32,
}

/// A parked thread group under the stack-less (barrier) divergence model.
///
/// A divergent branch parks the not-taken lanes as a *runnable* split
/// (`waiting_on == None`, resume at `pc`); a `bsync` that cannot yet
/// reconverge parks the arriving lanes as a *waiting* split
/// (`waiting_on == Some(b)`, resume at `pc + 1` once barrier `b` releases).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Split {
    /// Program counter of the split: the resume point for runnable splits,
    /// the `bsync` itself for waiting splits.
    pub pc: usize,
    /// Lanes parked in this group.
    pub mask: u32,
    /// Convergence barrier the group waits on, `None` when runnable.
    pub waiting_on: Option<u8>,
}

/// Architectural and control state of one warp.
///
/// A register is one [`Lanes`] row (`regs[reg][lane]`), as in the banked
/// register file, and a predicate one 32-lane bitmask. The struct owns no
/// timing state — the pipeline models hold that — so cloning a `Warp`
/// snapshots exactly the architectural state.
#[derive(Clone, Debug, PartialEq)]
pub struct Warp {
    /// Warp slot index within its SM.
    pub id: usize,
    /// Resident-block slot this warp belongs to.
    pub block_slot: usize,
    /// Flat warp index within its thread block.
    pub warp_in_block: u32,
    /// One row per register, indexed by register.
    regs: Vec<Lanes>,
    /// Per-predicate 32-lane masks (`P0..P6`).
    preds: [u32; 7],
    /// Next instruction to issue.
    pub pc: usize,
    /// Currently active lanes.
    pub active: u32,
    /// Lanes that executed `exit`.
    pub exited: u32,
    /// Lanes that exist at all (partial warps have holes at the top).
    pub valid: u32,
    /// SIMT reconvergence stack.
    pub stack: Vec<StackEntry>,
    /// Whether this warp runs the stack-less (convergence-barrier)
    /// divergence model: divergent branches park splits instead of pushing
    /// `Div` stack entries. Set from the kernel the warp executes.
    pub barrier_mode: bool,
    /// Parked thread groups (barrier model only).
    pub splits: Vec<Split>,
    /// Per-convergence-barrier participation masks (armed by `bssy`).
    pub cbar_part: [u32; NUM_CBARS],
    /// Per-convergence-barrier arrived masks (lanes parked at a `bsync`).
    pub cbar_arrived: [u32; NUM_CBARS],
    /// The warp finished (all valid lanes exited).
    pub done: bool,
    /// The warp arrived at a `bar` and waits for its block.
    pub at_barrier: bool,
    /// Dynamic instruction sequence number (drives the bypass window).
    pub seq: u64,
    /// Instructions in flight (issued, not yet completed).
    pub inflight: u32,
}

impl Warp {
    /// Creates a warp with `lanes` valid threads (1..=32), all registers and
    /// predicates zeroed, starting at `pc = 0`.
    pub fn new(
        id: usize,
        block_slot: usize,
        warp_in_block: u32,
        lanes: u32,
        num_regs: u16,
    ) -> Warp {
        assert!(
            lanes >= 1 && lanes <= WARP_SIZE as u32,
            "lanes out of range"
        );
        let valid = if lanes == 32 {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        Warp {
            id,
            block_slot,
            warp_in_block,
            regs: vec![[0; WARP_SIZE]; usize::from(num_regs)],
            preds: [0; 7],
            pc: 0,
            active: valid,
            exited: 0,
            valid,
            stack: Vec::new(),
            barrier_mode: false,
            splits: Vec::new(),
            cbar_part: [0; NUM_CBARS],
            cbar_arrived: [0; NUM_CBARS],
            done: false,
            at_barrier: false,
            seq: 0,
            inflight: 0,
        }
    }

    // The per-lane accessors stand apart from the row accessors below:
    // `exec.rs`'s lane-by-lane reference interpreter is built on them
    // alone, so a slip in the row code cannot hide in both.

    /// Reads `reg` for `lane`; RZ reads as zero.
    pub fn read_reg(&self, lane: usize, reg: Reg) -> u32 {
        if reg.is_zero() {
            0
        } else {
            self.regs[usize::from(reg.index())][lane]
        }
    }

    /// Writes `reg` for `lane`; RZ writes are discarded.
    pub fn write_reg(&mut self, lane: usize, reg: Reg, value: u32) {
        if !reg.is_zero() {
            self.regs[usize::from(reg.index())][lane] = value;
        }
    }

    /// Every lane of `reg`; RZ reads as zeros.
    #[inline]
    pub fn lanes_of(&self, reg: Reg) -> Lanes {
        if reg.is_zero() {
            [0; WARP_SIZE]
        } else {
            self.regs[usize::from(reg.index())]
        }
    }

    /// Writes `values` into the lanes of `reg` set in `mask`, leaving the
    /// others; RZ writes are discarded.
    #[inline]
    pub fn write_lanes(&mut self, reg: Reg, mask: u32, values: &Lanes) {
        if reg.is_zero() {
            return;
        }
        // A bitwise blend of every lane, not a store per masked lane: the
        // compiler vectorizes the one and leaves the other 32 branches.
        let row = &mut self.regs[usize::from(reg.index())];
        for (lane, (old, &new)) in row.iter_mut().zip(values).enumerate() {
            let take = u32::from(mask & 1 << lane != 0).wrapping_neg();
            *old = new & take | *old & !take;
        }
    }

    /// Reads predicate `p` for `lane`; PT reads as true.
    pub fn read_pred(&self, lane: usize, p: Pred) -> bool {
        if p.is_true_reg() {
            true
        } else {
            self.preds[usize::from(p.index())] & (1 << lane) != 0
        }
    }

    /// Writes predicate `p` for `lane`; PT writes are discarded.
    pub fn write_pred(&mut self, lane: usize, p: Pred, value: bool) {
        if p.is_true_reg() {
            return;
        }
        let bit = 1u32 << lane;
        if value {
            self.preds[usize::from(p.index())] |= bit;
        } else {
            self.preds[usize::from(p.index())] &= !bit;
        }
    }

    /// Predicate `p` as a 32-lane mask; PT reads as all ones.
    #[inline]
    pub fn pred_bits(&self, p: Pred) -> u32 {
        if p.is_true_reg() {
            u32::MAX
        } else {
            self.preds[usize::from(p.index())]
        }
    }

    /// Sets the lanes of predicate `p` in `mask` to their bit in `bits`,
    /// leaving the others; PT writes are discarded.
    #[inline]
    pub fn write_pred_bits(&mut self, p: Pred, mask: u32, bits: u32) {
        if !p.is_true_reg() {
            let old = &mut self.preds[usize::from(p.index())];
            *old = *old & !mask | bits & mask;
        }
    }

    /// The mask of lanes that would execute an instruction guarded by
    /// `guard` (the active mask filtered by the predicate).
    pub fn guard_mask(&self, guard: Option<bow_isa::PredGuard>) -> u32 {
        let Some(g) = guard else { return self.active };
        let neg = if g.negated { u32::MAX } else { 0 };
        self.active & (self.pred_bits(g.pred) ^ neg)
    }

    /// Retires the active lanes (an `exit`): marks them exited and resumes
    /// pending SIMT paths (stack entries or barrier-model splits) if any
    /// remain; otherwise the warp is done.
    pub fn retire_active(&mut self) {
        self.exited |= self.active;
        self.active = 0;
        while let Some(e) = self.stack.pop() {
            let mask = e.mask & !self.exited;
            if mask != 0 {
                self.active = mask;
                self.pc = e.pc;
                return;
            }
        }
        if self.schedule_next_group() {
            return;
        }
        if self.exited == self.valid {
            self.done = true;
        } else {
            // No pending paths but live lanes remain: they fell out of the
            // divergence bookkeeping, which indicates a malformed kernel
            // (or, in the barrier model, a convergence deadlock).
            debug_assert!(
                false,
                "live lanes {:#x} outside divergence bookkeeping",
                self.valid & !self.exited
            );
            self.done = true;
        }
    }

    /// Barrier-model scheduler step: with no group active, disarms
    /// convergence barriers whose participants all exited, releases any
    /// barrier whose live participants have all arrived, or resumes the most
    /// recently parked runnable split (LIFO, which reproduces the stack
    /// model's taken-arm-first serialization on structured code).
    ///
    /// Returns `false` when no group can run: the warp is empty, or every
    /// live lane waits on a barrier that cannot release (malformed kernel).
    /// A no-op for stack-model warps (no splits, no armed barriers).
    pub(crate) fn schedule_next_group(&mut self) -> bool {
        debug_assert_eq!(self.active, 0, "scheduling with a group active");
        for b in 0..NUM_CBARS {
            if self.cbar_part[b] != 0 && self.cbar_part[b] & !self.exited == 0 {
                // Every participant exited: the barrier can never be
                // sync'd again; disarm it.
                self.cbar_part[b] = 0;
                self.cbar_arrived[b] = 0;
            }
        }
        for b in 0..NUM_CBARS {
            let pending = self.cbar_part[b] & !self.exited;
            if self.cbar_part[b] == 0 || pending & !self.cbar_arrived[b] != 0 {
                continue;
            }
            // All live participants are parked at the bsync: reconverge
            // them. The most recently parked waiter fixes the resume pc
            // (well-formed kernels park every waiter at the same bsync).
            let mut mask = 0u32;
            let mut resume_pc = None;
            self.splits.retain(|s| {
                if s.waiting_on == Some(b as u8) {
                    mask |= s.mask;
                    resume_pc = Some(s.pc + 1);
                    false
                } else {
                    true
                }
            });
            self.cbar_part[b] = 0;
            self.cbar_arrived[b] = 0;
            mask &= !self.exited;
            if let Some(pc) = resume_pc {
                if mask != 0 {
                    self.active = mask;
                    self.pc = pc;
                    return true;
                }
            }
        }
        while let Some(idx) = self.splits.iter().rposition(|s| s.waiting_on.is_none()) {
            let s = self.splits.remove(idx);
            let mask = s.mask & !self.exited;
            if mask != 0 {
                self.active = mask;
                self.pc = s.pc;
                return true;
            }
        }
        false
    }

    /// Registers per thread this warp was allocated.
    pub fn num_regs(&self) -> u16 {
        self.regs.len() as u16
    }

    /// Iterator over active lane indices.
    pub fn active_lanes(&self) -> impl Iterator<Item = usize> {
        lanes_in(self.active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp() -> Warp {
        Warp::new(0, 0, 0, 32, 8)
    }

    #[test]
    fn registers_roundtrip_per_lane() {
        let mut w = warp();
        w.write_reg(3, Reg::r(2), 99);
        assert_eq!(w.read_reg(3, Reg::r(2)), 99);
        assert_eq!(w.read_reg(2, Reg::r(2)), 0);
        assert_eq!(w.read_reg(3, Reg::r(3)), 0);
    }

    #[test]
    fn rz_is_hardwired_zero() {
        let mut w = warp();
        w.write_reg(0, Reg::RZ, 7);
        assert_eq!(w.read_reg(0, Reg::RZ), 0);
    }

    #[test]
    fn predicates_roundtrip_and_pt() {
        let mut w = warp();
        w.write_pred(5, Pred::p(1), true);
        assert!(w.read_pred(5, Pred::p(1)));
        assert!(!w.read_pred(4, Pred::p(1)));
        assert!(w.read_pred(0, Pred::PT));
        w.write_pred(0, Pred::PT, false);
        assert!(w.read_pred(0, Pred::PT));
    }

    #[test]
    fn partial_warp_mask() {
        let w = Warp::new(0, 0, 0, 5, 4);
        assert_eq!(w.valid, 0b11111);
        assert_eq!(w.active, 0b11111);
    }

    #[test]
    fn guard_mask_filters_by_predicate() {
        let mut w = warp();
        for lane in 0..16 {
            w.write_pred(lane, Pred::p(0), true);
        }
        let g = bow_isa::PredGuard {
            pred: Pred::p(0),
            negated: false,
        };
        assert_eq!(w.guard_mask(Some(g)), 0x0000_ffff);
        let ng = bow_isa::PredGuard {
            pred: Pred::p(0),
            negated: true,
        };
        assert_eq!(w.guard_mask(Some(ng)), 0xffff_0000);
        assert_eq!(w.guard_mask(None), u32::MAX);
    }

    #[test]
    fn retire_all_lanes_finishes_warp() {
        let mut w = warp();
        w.retire_active();
        assert!(w.done);
        assert_eq!(w.exited, u32::MAX);
    }

    #[test]
    fn retire_resumes_pending_divergent_path() {
        let mut w = warp();
        // Simulate divergence: half the lanes take an exit path.
        w.stack.push(StackEntry {
            kind: StackKind::Sync,
            pc: 10,
            mask: u32::MAX,
        });
        w.stack.push(StackEntry {
            kind: StackKind::Div,
            pc: 5,
            mask: 0xffff_0000,
        });
        w.active = 0x0000_ffff;
        w.retire_active();
        assert!(!w.done);
        assert_eq!(w.active, 0xffff_0000);
        assert_eq!(w.pc, 5);
        // And when those exit too, the sync entry has no live lanes left.
        w.retire_active();
        assert!(w.done);
    }

    #[test]
    fn active_lanes_iterates_set_bits() {
        let mut w = warp();
        w.active = 0b1010;
        assert_eq!(w.active_lanes().collect::<Vec<_>>(), vec![1, 3]);
        w.active = 0x8000_0001;
        assert_eq!(w.active_lanes().collect::<Vec<_>>(), vec![0, 31]);
        w.active = 0;
        assert_eq!(w.active_lanes().count(), 0);
        w.active = u32::MAX;
        assert!(w.active_lanes().eq(0..WARP_SIZE));
    }

    #[test]
    fn lanes_of_reads_a_row_and_rz_as_zeros() {
        let mut w = warp();
        for lane in 0..WARP_SIZE {
            w.write_reg(lane, Reg::r(4), 1000 + lane as u32);
        }
        let row = w.lanes_of(Reg::r(4));
        assert!(row.iter().enumerate().all(|(l, &v)| v == 1000 + l as u32));
        assert_eq!(w.lanes_of(Reg::r(5)), [0; WARP_SIZE], "rows are separate");
        w.write_reg(7, Reg::RZ, 9);
        assert_eq!(w.lanes_of(Reg::RZ), [0; WARP_SIZE]);
    }

    #[test]
    fn write_lanes_blends_under_the_mask() {
        let mut w = warp();
        let old: Lanes = std::array::from_fn(|l| l as u32);
        let new: Lanes = std::array::from_fn(|l| 100 + l as u32);
        w.write_lanes(Reg::r(1), u32::MAX, &old);
        assert_eq!(w.lanes_of(Reg::r(1)), old, "a full mask writes the row");
        w.write_lanes(Reg::r(1), 0, &new);
        assert_eq!(w.lanes_of(Reg::r(1)), old, "an empty mask writes nothing");
        let mask = 0x8000_00f1;
        w.write_lanes(Reg::r(1), mask, &new);
        for lane in 0..WARP_SIZE {
            let want = if mask >> lane & 1 == 1 {
                new[lane]
            } else {
                old[lane]
            };
            assert_eq!(w.read_reg(lane, Reg::r(1)), want, "lane {lane}");
        }
        w.write_lanes(Reg::RZ, u32::MAX, &new);
        assert_eq!(w.lanes_of(Reg::RZ), [0; WARP_SIZE]);
        assert_eq!(w.lanes_of(Reg::r(0)), [0; WARP_SIZE], "RZ is no row");
        assert_eq!(w.lanes_of(Reg::r(7)), [0; WARP_SIZE], "RZ is no row");
    }

    #[test]
    fn pred_bits_reads_the_mask_and_pt_as_all_ones() {
        let mut w = warp();
        w.write_pred(0, Pred::p(6), true);
        w.write_pred(31, Pred::p(6), true);
        assert_eq!(w.pred_bits(Pred::p(6)), 0x8000_0001);
        assert_eq!(w.pred_bits(Pred::p(5)), 0);
        assert_eq!(w.pred_bits(Pred::PT), u32::MAX);
    }

    #[test]
    fn write_pred_bits_updates_only_the_masked_lanes() {
        let mut w = warp();
        w.write_pred_bits(Pred::p(2), u32::MAX, 0xf0f0_f0f0);
        assert_eq!(w.pred_bits(Pred::p(2)), 0xf0f0_f0f0);
        // Inside the mask lanes take their new bit, set or clear; outside
        // they keep the old one whatever `bits` holds there.
        w.write_pred_bits(Pred::p(2), 0x0000_ffff, 0xffff_0f0f);
        assert_eq!(w.pred_bits(Pred::p(2)), 0xf0f0_0f0f);
        w.write_pred_bits(Pred::p(2), 0, u32::MAX);
        assert_eq!(w.pred_bits(Pred::p(2)), 0xf0f0_0f0f);
        assert_eq!(w.pred_bits(Pred::p(3)), 0, "predicates are separate");
        w.write_pred_bits(Pred::PT, u32::MAX, 0);
        assert_eq!(w.pred_bits(Pred::PT), u32::MAX);
        assert!((0..7).all(|p| p == 2 || w.pred_bits(Pred::p(p)) == 0));
    }

    #[test]
    fn guard_mask_on_pt_and_inactive_lanes() {
        let mut w = warp();
        w.active = 0x00ff_00ff;
        w.write_pred_bits(Pred::p(4), u32::MAX, 0x0f0f_0f0f);
        let guard = |pred, negated| Some(bow_isa::PredGuard { pred, negated });
        assert_eq!(w.guard_mask(guard(Pred::p(4), false)), 0x000f_000f);
        assert_eq!(w.guard_mask(guard(Pred::p(4), true)), 0x00f0_00f0);
        assert_eq!(w.guard_mask(guard(Pred::PT, false)), 0x00ff_00ff);
        assert_eq!(w.guard_mask(guard(Pred::PT, true)), 0);
    }
}
