//! Per-warp scoreboard: blocks RAW, WAW and WAR hazards at issue.
//!
//! Two kinds of reservations exist:
//!
//! * **pending writes** — a destination register/predicate of an issued,
//!   not-yet-completed instruction. A later instruction reading (RAW) or
//!   writing (WAW) it stalls. Released at writeback, which in BOW terms is
//!   the moment the value lands in the BOC/RF and becomes forwardable.
//! * **pending reads** — source registers and read predicates (guard and
//!   predicate sources) of instructions that have been issued to a
//!   collector but not yet dispatched (their values are read from
//!   architectural state at dispatch). A later instruction writing one
//!   (WAR) stalls. Released at dispatch.
//!
//! Reservations are bit sets and an instruction arrives decoded
//! ([`InstMeta`]), so the check every issue scan makes per warp is a few
//! `AND`s against the instruction's masks.

use crate::decode::{set_put, InstMeta, RegSet};
use bow_isa::{Pred, Reg};

/// Scoreboard state for one warp.
#[derive(Clone, Debug)]
pub struct Scoreboard {
    /// Registers with a pending write.
    write_regs: RegSet,
    /// Predicates with a pending write, one bit each.
    write_preds: u8,
    /// Pending-read reference counts per register.
    read_regs: [u16; 256],
    /// Registers whose `read_regs` count is non-zero.
    read_set: RegSet,
    /// Pending-read reference counts per predicate.
    read_preds: [u16; 8],
    /// Predicates whose `read_preds` count is non-zero, one bit each.
    read_pred_set: u8,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard::new()
    }
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    pub fn new() -> Scoreboard {
        Scoreboard {
            write_regs: [0; 4],
            write_preds: 0,
            read_regs: [0; 256],
            read_set: [0; 4],
            read_preds: [0; 8],
            read_pred_set: 0,
        }
    }

    /// Whether `inst` can issue without a hazard.
    pub fn can_issue(&self, inst: &InstMeta) -> bool {
        // RAW + WAW: neither sources nor destination may be pending writes;
        // WAR: the destination must not be a pending read.
        let regs_blocked = (0..4).any(|i| {
            self.write_regs[i] & (inst.src_mask[i] | inst.dst_mask[i]) != 0
                || self.read_set[i] & inst.dst_mask[i] != 0
        });
        !regs_blocked
            && self.write_preds & (inst.src_preds | inst.dst_pred_mask) == 0
            && self.read_pred_set & inst.dst_pred_mask == 0
    }

    /// Records the reservations of an issuing instruction.
    pub fn issue(&mut self, inst: &InstMeta) {
        for i in 0..4 {
            self.write_regs[i] |= inst.dst_mask[i];
        }
        self.write_preds |= inst.dst_pred_mask;
        for &r in &inst.src_regs {
            self.read_regs[r.index() as usize] += 1;
            set_put(&mut self.read_set, r, true);
        }
        let mut preds = inst.src_preds;
        while preds != 0 {
            self.read_preds[preds.trailing_zeros() as usize] += 1;
            preds &= preds - 1;
        }
        self.read_pred_set |= inst.src_preds;
    }

    /// Releases the source-read reservations (at dispatch).
    pub fn dispatch(&mut self, inst: &InstMeta) {
        for &r in &inst.src_regs {
            let c = &mut self.read_regs[r.index() as usize];
            debug_assert!(*c > 0, "dispatch without matching issue for {r}");
            *c = c.saturating_sub(1);
            if *c == 0 {
                set_put(&mut self.read_set, r, false);
            }
        }
        let mut preds = inst.src_preds;
        while preds != 0 {
            let p = preds.trailing_zeros();
            let c = &mut self.read_preds[p as usize];
            debug_assert!(*c > 0, "dispatch without matching issue for p{p}");
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.read_pred_set &= !(1 << p);
            }
            preds &= preds - 1;
        }
    }

    /// Releases the destination reservation (at writeback).
    pub fn writeback_reg(&mut self, reg: Reg) {
        set_put(&mut self.write_regs, reg, false);
    }

    /// Releases a predicate destination reservation.
    pub fn writeback_pred(&mut self, pred: Pred) {
        self.write_preds &= !(1 << pred.index());
    }

    /// Whether nothing is reserved. A warp that has exited with nothing
    /// in flight must be clear: the pipeline asserts it (debug builds)
    /// when it retires the warp, so a leaked reservation fails loudly.
    pub fn is_clear(&self) -> bool {
        self.write_regs == [0; 4]
            && self.write_preds == 0
            && self.read_set == [0; 4]
            && self.read_pred_set == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{CmpOp, Dst, Instruction, KernelBuilder, Operand};
    use bow_util::XorShift;

    fn m(inst: &Instruction) -> InstMeta {
        InstMeta::of(inst)
    }

    fn insts() -> Vec<Instruction> {
        KernelBuilder::new("t")
            .iadd(Reg::r(2), Reg::r(0).into(), Reg::r(1).into()) // 0: r2 = r0+r1
            .imul(Reg::r(3), Reg::r(2).into(), Reg::r(2).into()) // 1: reads r2
            .mov_imm(Reg::r(0), 5) //                               2: writes r0
            .isetp(
                CmpOp::Ne,
                bow_isa::Pred::p(0),
                Reg::r(3).into(),
                Operand::Imm(0),
            ) // 3
            .guard(bow_isa::Pred::p(0), false)
            .mov_imm(Reg::r(4), 1) //                               4: guarded by p0
            .exit()
            .build()
            .unwrap()
            .insts
    }

    #[test]
    fn raw_blocks_until_writeback() {
        let mut sb = Scoreboard::new();
        let i = insts();
        assert!(sb.can_issue(&m(&i[0])));
        sb.issue(&m(&i[0]));
        assert!(!sb.can_issue(&m(&i[1])), "RAW on r2");
        sb.dispatch(&m(&i[0]));
        assert!(!sb.can_issue(&m(&i[1])), "still pending until writeback");
        sb.writeback_reg(Reg::r(2));
        assert!(sb.can_issue(&m(&i[1])));
    }

    #[test]
    fn war_blocks_until_dispatch() {
        let mut sb = Scoreboard::new();
        let i = insts();
        sb.issue(&m(&i[0])); // reads r0, r1
        assert!(!sb.can_issue(&m(&i[2])), "WAR on r0");
        sb.dispatch(&m(&i[0]));
        assert!(sb.can_issue(&m(&i[2])), "read released at dispatch");
    }

    #[test]
    fn waw_blocks() {
        let mut sb = Scoreboard::new();
        let i = insts();
        sb.issue(&m(&i[0])); // writes r2
        let mut clobber = i[0].clone();
        clobber.srcs = [Operand::Imm(1), Operand::Imm(2)].into_iter().collect();
        assert!(!sb.can_issue(&m(&clobber)), "WAW on r2");
    }

    #[test]
    fn predicate_hazards() {
        let mut sb = Scoreboard::new();
        let i = insts();
        sb.issue(&m(&i[3])); // writes p0
        assert!(!sb.can_issue(&m(&i[4])), "guard reads p0");
        sb.writeback_pred(bow_isa::Pred::p(0));
        assert!(sb.can_issue(&m(&i[4])));
    }

    #[test]
    fn predicate_war_holds_until_the_reader_dispatches() {
        // `sel r15, r11, r13, p2` reads p2 at dispatch, so a younger
        // `isetp` writing p2 must wait for that dispatch, exactly as a
        // register WAR does; a guard read holds its predicate the same way.
        let p2 = bow_isa::Pred::p(2);
        let k = KernelBuilder::new("t")
            .sel(Reg::r(15), Reg::r(11).into(), Reg::r(13).into(), p2)
            .isetp(CmpOp::Gt, p2, Reg::r(13).into(), Reg::r(14).into())
            .guard(p2, false)
            .mov_imm(Reg::r(1), 1)
            .exit()
            .build()
            .unwrap();
        let (sel, setp, guarded) = (m(&k.insts[0]), m(&k.insts[1]), m(&k.insts[2]));
        for reader in [&sel, &guarded] {
            let mut sb = Scoreboard::new();
            sb.issue(reader);
            assert!(!sb.can_issue(&setp), "WAR on p2 before the read");
            assert!(!sb.is_clear());
            sb.dispatch(reader);
            assert!(sb.can_issue(&setp), "released at dispatch");
            if let Some(d) = reader.dst_reg {
                sb.writeback_reg(d);
            }
            assert!(sb.is_clear());
        }
    }

    #[test]
    fn clear_after_full_lifecycle() {
        let mut sb = Scoreboard::new();
        let i = insts();
        sb.issue(&m(&i[0]));
        assert!(!sb.is_clear());
        sb.dispatch(&m(&i[0]));
        sb.writeback_reg(Reg::r(2));
        assert!(sb.is_clear());
    }

    #[test]
    fn duplicate_sources_hold_two_read_reservations() {
        // imul r3, r2, r2 reads r2 twice; both references must be held at
        // issue and both released by the single dispatch call, or a WAR
        // writer would either slip in early or deadlock.
        let mut sb = Scoreboard::new();
        let square = KernelBuilder::new("t")
            .imul(Reg::r(3), Reg::r(2).into(), Reg::r(2).into())
            .exit()
            .build()
            .unwrap()
            .insts[0]
            .clone();
        let mut write_r2 = insts()[2].clone(); // mov r0, 5
        write_r2.dst = Dst::Reg(Reg::r(2));
        sb.issue(&m(&square));
        assert!(!sb.can_issue(&m(&write_r2)), "WAR on r2");
        sb.dispatch(&m(&square));
        assert!(sb.can_issue(&m(&write_r2)), "both refs released together");
        sb.writeback_reg(Reg::r(3));
        assert!(sb.is_clear());
    }

    #[test]
    fn war_release_waits_for_every_reader() {
        // Two in-flight readers of r1: the writer stays blocked until the
        // *last* reader dispatches, regardless of dispatch order.
        let mut sb = Scoreboard::new();
        let i = insts();
        let reader_a = &i[0]; // iadd r2, r0, r1
        let mut reader_b = i[0].clone(); // iadd r3, r0, r1
        reader_b.dst = Dst::Reg(Reg::r(3));
        let mut write_r1 = i[2].clone(); // mov r0, 5
        write_r1.dst = Dst::Reg(Reg::r(1));
        sb.issue(&m(reader_a));
        sb.issue(&m(&reader_b));
        assert!(!sb.can_issue(&m(&write_r1)));
        sb.dispatch(&m(&reader_b));
        assert!(!sb.can_issue(&m(&write_r1)), "one reader still pending");
        sb.dispatch(&m(reader_a));
        assert!(sb.can_issue(&m(&write_r1)), "last reader releases the WAR");
    }

    #[test]
    fn raw_release_is_per_register() {
        // Writing back an unrelated register must not release the hazard.
        let mut sb = Scoreboard::new();
        let i = insts();
        sb.issue(&m(&i[0])); // writes r2
        sb.dispatch(&m(&i[0]));
        sb.writeback_reg(Reg::r(3));
        assert!(
            !sb.can_issue(&m(&i[1])),
            "r2 still pending after r3 writeback"
        );
        sb.writeback_reg(Reg::r(2));
        assert!(sb.can_issue(&m(&i[1])));
    }

    #[test]
    fn rz_never_reserves() {
        let mut sb = Scoreboard::new();
        let mut i = insts()[0].clone();
        i.dst = Dst::Reg(Reg::RZ);
        i.srcs = [Operand::Reg(Reg::RZ), Operand::Imm(1)]
            .into_iter()
            .collect();
        sb.issue(&m(&i));
        assert!(sb.is_clear());
    }

    /// The `bool`-array scoreboard the bit sets replaced, kept as the
    /// reference the differential test compares against.
    struct ArrayScoreboard {
        write_regs: [bool; 256],
        write_preds: [bool; 8],
        read_regs: [u16; 256],
        read_preds: [u16; 8],
    }

    impl ArrayScoreboard {
        fn can_issue(&self, inst: &Instruction) -> bool {
            let w = |r: Reg| self.write_regs[r.index() as usize];
            let wp = |p: Pred| self.write_preds[p.index() as usize];
            !inst.src_regs().into_iter().any(w)
                && !inst.src_preds().into_iter().any(wp)
                && !inst
                    .dst_reg()
                    .is_some_and(|d| w(d) || self.read_regs[d.index() as usize] > 0)
                && !inst
                    .dst
                    .pred()
                    .is_some_and(|p| wp(p) || self.read_preds[p.index() as usize] > 0)
        }

        fn issue(&mut self, inst: &Instruction) {
            if let Some(d) = inst.dst_reg() {
                self.write_regs[d.index() as usize] = true;
            }
            if let Some(p) = inst.dst.pred() {
                self.write_preds[p.index() as usize] = true;
            }
            for r in inst.src_regs() {
                self.read_regs[r.index() as usize] += 1;
            }
            for p in inst.src_preds() {
                self.read_preds[p.index() as usize] += 1;
            }
        }

        fn dispatch(&mut self, inst: &Instruction) {
            for r in inst.src_regs() {
                self.read_regs[r.index() as usize] -= 1;
            }
            for p in inst.src_preds() {
                self.read_preds[p.index() as usize] -= 1;
            }
        }

        fn is_clear(&self) -> bool {
            !self.write_regs.contains(&true)
                && !self.write_preds.contains(&true)
                && self.read_regs.iter().all(|&c| c == 0)
                && self.read_preds.iter().all(|&c| c == 0)
        }
    }

    /// A random instruction over a handful of registers and predicates (so
    /// hazards are common): RZ/PT operands, duplicate sources, guards,
    /// predicate sources and destinations, memory bases, `ldc`'s ignored one.
    fn random_inst(rng: &mut XorShift) -> Instruction {
        use bow_isa::{MemRef, Opcode, PredGuard};
        let reg = |rng: &mut XorShift| match rng.below(8) {
            7 => Reg::RZ,
            // The top register exercises the last mask word.
            6 => Reg::r(Reg::MAX_INDEX),
            i => Reg::r(i as u8),
        };
        let pred = |rng: &mut XorShift| match rng.below(4) {
            3 => Pred::PT,
            i => Pred::p(i as u8),
        };
        let src = |rng: &mut XorShift| match rng.below(4) {
            0 => Operand::Imm(rng.next_u32()),
            _ => Operand::Reg(reg(rng)),
        };
        let mem = |rng: &mut XorShift| {
            Some(MemRef {
                base: reg(rng),
                offset: 4,
            })
        };
        let dst = Dst::Reg(reg(rng));
        let mut inst = match rng.below(7) {
            0 => Instruction::new(Opcode::Mov, dst, vec![src(rng)]),
            1 => Instruction::new(Opcode::IAdd, dst, vec![src(rng), src(rng)]),
            2 => Instruction::new(Opcode::IMad, dst, vec![src(rng), src(rng), src(rng)]),
            3 => Instruction::new(
                Opcode::Sel,
                dst,
                vec![src(rng), src(rng), Operand::Pred(pred(rng))],
            ),
            4 => Instruction::new(
                Opcode::ISetp(CmpOp::Lt),
                Dst::Pred(pred(rng)),
                vec![src(rng), src(rng)],
            ),
            5 => {
                let op = *rng.choose(&[Opcode::Ldg, Opcode::Lds, Opcode::Ldc]);
                let mut ld = Instruction::new(op, dst, vec![]);
                ld.mem = mem(rng);
                ld
            }
            _ => {
                let mut st = Instruction::new(Opcode::Stg, Dst::None, vec![src(rng)]);
                st.mem = mem(rng);
                st
            }
        };
        if rng.next_bool() {
            inst.guard = Some(PredGuard {
                pred: pred(rng),
                negated: rng.next_bool(),
            });
        }
        inst.validate()
            .expect("generator builds valid instructions");
        inst
    }

    #[test]
    fn bitset_scoreboard_answers_like_the_array_scoreboard() {
        let mut rng = XorShift::new(0x5c0_4eb0a4d);
        let mut sb = Scoreboard::new();
        let mut reference = ArrayScoreboard {
            write_regs: [false; 256],
            write_preds: [false; 8],
            read_regs: [0; 256],
            read_preds: [0; 8],
        };
        // Issued instructions and whether each has dispatched.
        let mut inflight: Vec<(Instruction, bool)> = Vec::new();
        let (mut issued, mut blocked) = (0, 0);
        for step in 0..20_000 {
            match rng.below(3) {
                0 => {
                    let inst = random_inst(&mut rng);
                    let can = reference.can_issue(&inst);
                    assert_eq!(sb.can_issue(&m(&inst)), can, "step {step}: {inst}");
                    if can {
                        reference.issue(&inst);
                        sb.issue(&m(&inst));
                        inflight.push((inst, false));
                        issued += 1;
                    } else {
                        blocked += 1;
                    }
                }
                1 => {
                    if let Some((inst, dispatched)) = inflight.iter_mut().find(|(_, d)| !d) {
                        reference.dispatch(inst);
                        sb.dispatch(&m(inst));
                        *dispatched = true;
                    }
                }
                _ => {
                    // Complete a random dispatched instruction.
                    let done: Vec<usize> = (0..inflight.len()).filter(|&i| inflight[i].1).collect();
                    if !done.is_empty() {
                        let (inst, _) = inflight.remove(*rng.choose(&done));
                        if let Some(d) = inst.dst_reg() {
                            reference.write_regs[d.index() as usize] = false;
                            sb.writeback_reg(d);
                        }
                        if let Some(p) = inst.dst.pred() {
                            reference.write_preds[p.index() as usize] = false;
                            sb.writeback_pred(p);
                        }
                    }
                }
            }
            assert_eq!(sb.is_clear(), reference.is_clear(), "step {step}");
            assert!(sb.is_clear() || !inflight.is_empty(), "step {step}");
        }
        assert!(
            issued > 2_000 && blocked > 2_000,
            "{issued} issued, {blocked} blocked"
        );
    }
}
