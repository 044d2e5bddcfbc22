//! Independent hint-soundness verifier: abstract interpretation of operand
//! window residency.
//!
//! [`verify_hints`] re-derives, from first principles, whether each
//! write-back hint in a kernel is *safe* — deliberately **not** by re-running
//! the producer's algorithm. `hints.rs` classifies writes with a forward
//! walk of each basic block plus block-boundary liveness; this module
//! instead explores the product automaton of (program counter × entry age)
//! path-sensitively, so the two can only agree by both being right about the
//! window semantics:
//!
//! * a destination write creates a window entry with age 0;
//! * every subsequent instruction on a path ages the entry by 1 (issue order
//!   is the window clock — control instructions tick it too);
//! * a read of the register at age `< window` is a *hit* and re-touches the
//!   entry (age resets to 0);
//! * at age `>= window` the entry has been evicted: a `BocOnly` value is
//!   gone for good (that hint suppressed the RF write-back), so a read now
//!   observes a stale register file — the counterexample;
//! * any later *unguarded* write of the same register ends the value's
//!   life. A guarded (`@p`) write is only a may-kill — squashed when its
//!   predicate is false, leaving the old value architectural — so the
//!   exploration walks straight through it.
//!
//! The exploration saturates ages at the window size, so the state space is
//! `O(insts × window)` per static write and termination is structural.
//! Verdicts are [`HintVerdict::Sound`] (with the witnessing reads),
//! [`HintVerdict::Unsound`] (with a shortest counterexample path), or
//! [`HintVerdict::TrivialRf`] for hints that always reach the register file.
//!
//! Treating every later unguarded write as a kill is justified by the
//! collector's write-back port, which consolidates same-register entries: a
//! `Both`/`BocOnly` write-back upserts the buffered entry in place and an
//! `RfOnly` write-back invalidates it (`WarpWindow::invalidate` in the
//! simulator), so a superseded buffered copy can neither forward to a
//! later read nor write back over the newer value.
//!
//! **Divergent serialization.** A CFG path under-counts the window clock
//! when a warp diverges: at a structured `ssy L; bra_if` diamond (or its
//! barrier-form twin `bssy bN, L; bra_if` — both divergence models
//! serialize the arms in the same taken-first order) the warp
//! executes *both* arms back to back before reconverging at the `sync`, so
//! the dynamic distance from a write before the branch to a read at or
//! after the join is the *sum* of the arms, not the length of either. The
//! explorer therefore adds serialization edges for every such diamond —
//! from each taken-arm exit to the start of the fall-through arm, matching
//! the machine's fixed scheduling (a divergent branch runs the taken side
//! and pushes the not-taken continuation) — so the diverged walk joins the
//! two uniform executions, which are ordinary CFG paths, in the explored
//! set. Guarded branches *without* an `ssy` region cannot diverge —
//! the reconvergence stack would mis-track if they did — and the structure
//! checker ([`crate::divergence::check_structure`]) reports them as
//! assumed-uniform, so they keep their ordinary CFG edges here.
//!
//! Serialized walks get one mask refinement (the *mode* component of the
//! product state): within a single divergence instance the two arms run
//! under complementary lane masks, so a read in the fall-through arm
//! cannot observe lanes a taken-arm def wrote and is not a counterexample
//! for it — though it still re-touches the lane-blind CAM entry. Reads
//! reached any other way (after the join, or on a later loop iteration
//! through either arm) execute under masks that may overlap the def's and
//! are judged normally. See `Explorer` for the exact state semantics.
//!
//! Dynamic rescues the real pipeline performs (forced capacity evictions and
//! late-arriving write-backs both force an RF write) are deliberately **not**
//! modelled: a hint whose safety depends on collector pressure is still an
//! unsound hint. The verifier is therefore a conservative over-approximation
//! of the dynamic replayer in `bow::mutate` — everything the replayer
//! observes as a stale read is reachable here as a counterexample path.

use crate::analysis::{operand_table, Analysis, Operands};
use bow_isa::{Kernel, Opcode, Reg, WritebackHint};
use bow_util::InlineVec;

/// Cap on the modelled window size: beyond the kernel length every age is
/// equivalent (nothing can evict), and this bounds the product state space.
const MAX_MODELLED_WINDOW: usize = 1024;

/// The verifier's verdict for one static register write.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HintVerdict {
    /// The hint writes back to the register file (`RfOnly`/`Both`), so no
    /// read can observe a stale RF value; soundness is structural.
    TrivialRf,
    /// `BocOnly`, and every path from the write reaches each read of the
    /// value while the window entry is still resident. The witnesses are
    /// the consuming read pcs that discharge the hint.
    Sound {
        /// Program counters of the in-window reads.
        witnesses: Vec<usize>,
    },
    /// `BocOnly`, but some path reaches a read of the value after the
    /// window has evicted (and, for `BocOnly`, dropped) it.
    Unsound {
        /// The stale read.
        read_pc: usize,
        /// A shortest instruction path from the write to the stale read
        /// (inclusive of both endpoints).
        path: Vec<usize>,
    },
}

/// One static write and its verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HintFinding {
    /// Program counter of the write.
    pub pc: usize,
    /// Destination register.
    pub reg: Reg,
    /// The hint under scrutiny.
    pub hint: WritebackHint,
    /// What the verifier concluded.
    pub verdict: HintVerdict,
}

/// Everything [`verify_hints`] concluded about one kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HintAudit {
    /// The window size the audit modelled.
    pub window: usize,
    /// One finding per static register write.
    pub findings: Vec<HintFinding>,
}

impl HintAudit {
    /// The unsound findings only.
    pub fn unsound(&self) -> impl Iterator<Item = &HintFinding> {
        self.findings
            .iter()
            .filter(|f| matches!(f.verdict, HintVerdict::Unsound { .. }))
    }

    /// Whether every hint is safe.
    pub fn is_sound(&self) -> bool {
        self.unsound().next().is_none()
    }
}

/// Instruction-level successors (the verifier works on instructions, not
/// blocks, because entry ages advance per instruction). At most two: a
/// guarded branch's target and its fall-through.
fn succs(kernel: &Kernel, pc: usize) -> InlineVec<usize, 2> {
    let inst = &kernel.insts[pc];
    let n = kernel.insts.len();
    let mut v = InlineVec::new();
    match inst.op {
        Opcode::Exit => {}
        Opcode::Bra => {
            let t = inst.target.expect("validated branch target");
            v.push(t);
            if inst.guard.is_some() && pc + 1 < n && pc + 1 != t {
                v.push(pc + 1);
            }
        }
        _ if pc + 1 < n => v.push(pc + 1),
        _ => {}
    }
    v
}

/// One structured `ssy; bra_if` diamond: fall-through arm `[b+1, t)`,
/// taken arm `[t, join)`, reconverging at the sync at `join`.
#[derive(Clone, Copy, Debug)]
struct Diamond {
    /// Pc of the guarded branch (its `ssy` sits at `b - 1`).
    b: usize,
    /// Branch target: start of the taken arm, end of the fall-through arm.
    t: usize,
    /// Reconvergence point.
    join: usize,
}

impl Diamond {
    /// Whether `pc` lies in the taken arm (executes under the taken mask).
    fn in_taken_arm(&self, pc: usize) -> bool {
        (self.t..self.join).contains(&pc)
    }

    /// Whether `pc` lies in the fall-through arm.
    fn in_fall_arm(&self, pc: usize) -> bool {
        (self.b + 1..self.t).contains(&pc)
    }
}

/// A serialization successor: taking it enters diamond `did`'s
/// fall-through arm straight from its taken arm.
#[derive(Clone, Copy, Debug)]
struct SerEdge {
    to: usize,
    did: usize,
}

/// Structured divergence geometry: the diamonds and, per pc, the
/// serialization edges modelling the diverged execution order (see the
/// module docs). Computed once per kernel and shared by every write's
/// exploration.
struct Divergence {
    diamonds: Vec<Diamond>,
    /// `edges[pc]`: extra successors of `pc`.
    edges: Vec<Vec<SerEdge>>,
}

fn divergence_geometry(kernel: &Kernel) -> Divergence {
    let n = kernel.insts.len();
    let mut diamonds = Vec::new();
    let mut edges: Vec<Vec<SerEdge>> = vec![Vec::new(); n];
    for (s, inst) in kernel.iter() {
        // The divergence-model seam: a `bssy` heads a diamond exactly like
        // an `ssy` (same target-names-the-join shape), and the barrier
        // model's LIFO split scheduling reproduces the stack's
        // taken-arm-first serialization on structured code, so one
        // geometry covers both models.
        if !matches!(inst.op, Opcode::Ssy | Opcode::Bssy) {
            continue;
        }
        let join = inst.target.expect("validated ssy target");
        // The structured idiom puts the guarded branch right after its ssy.
        let b = s + 1;
        let Some(bra) = kernel.insts.get(b) else {
            continue;
        };
        if bra.op != Opcode::Bra || bra.guard.is_none() {
            continue;
        }
        let t = bra.target.expect("validated branch target");
        if t <= b || t > join || join > n {
            continue; // not a forward diamond under this ssy
        }
        // A diverged branch runs the taken arm first and pushes the
        // not-taken continuation (`StackKind::Div` in the simulator), so
        // the serialized order is fixed: target arm, then fall-through
        // arm, then the sync. Exactly one direction of edge keeps the
        // walk set acyclic — each arm executes once per divergence. An
        // empty fall-through arm needs no edge (the CFG path already is
        // the serialization).
        let did = diamonds.len();
        diamonds.push(Diamond { b, t, join });
        if b + 1 < t {
            for (q, out) in edges.iter_mut().enumerate().take(join).skip(t) {
                if succs(kernel, q).contains(&join) {
                    out.push(SerEdge { to: b + 1, did });
                }
            }
        }
    }
    Divergence { diamonds, edges }
}

/// Explores the (pc, age, mode) product from a write and returns the
/// verdict for a `BocOnly` hint: a breadth-first search for a read of the
/// value at age ≥ window (shortest counterexample first). One explorer
/// serves every write of a kernel: each exploration resets only the
/// states the previous one visited.
///
/// The *mode* component carries the mask-disjointness refinement for
/// serialized walks: mode `d + 1` means the walk crossed diamond `d`'s
/// serialization edge while the def sits in `d`'s taken arm and has stayed
/// inside `d`'s fall-through arm since. Everything executing there runs
/// under the complement of the taken mask, so a read cannot observe any
/// lane the def wrote — it is neither a counterexample nor a witness. It
/// still re-touches the per-register CAM entry (window operations are
/// lane-blind), except that once the age has saturated the entry is gone:
/// the read's bank refetch buffers a *pre-def* snapshot, so the age must
/// stay saturated or later full-mask reads would look fresh. Leaving the
/// fall-through arm (the join, or any pc outside it) drops back to mode 0.
struct Explorer<'k> {
    kernel: &'k Kernel,
    ops: &'k [Operands],
    window: usize,
    /// Whether a sound verdict lists its witnessing reads (the lint suite
    /// reads only unsound verdicts, so it skips the list).
    witnesses: bool,
    diverge: &'k Divergence,
    /// Per diamond: does this exploration's def sit in the taken arm?
    def_in_taken: Vec<bool>,
    /// Breadth-first parent state per visited state, for path extraction;
    /// [`NO_PARENT`] everywhere between explorations.
    parent: Vec<usize>,
    /// The breadth-first queue, never drained: `queue[head..]` is still to
    /// visit and the whole of it is every state the exploration reached,
    /// which is what the next one must reset.
    queue: Vec<usize>,
}

const NO_PARENT: usize = usize::MAX;

/// Parent marker of the states one step from the write.
const ROOT: usize = usize::MAX - 1;

impl<'k> Explorer<'k> {
    fn new(
        kernel: &'k Kernel,
        ops: &'k [Operands],
        window: usize,
        witnesses: bool,
        diverge: &'k Divergence,
    ) -> Explorer<'k> {
        let modes = diverge.diamonds.len() + 1;
        let states = kernel.insts.len() * (window + 1) * modes;
        Explorer {
            kernel,
            ops,
            window,
            witnesses,
            diverge,
            def_in_taken: Vec::with_capacity(diverge.diamonds.len()),
            parent: vec![NO_PARENT; states],
            // An exploration queues each state at most once.
            queue: Vec::with_capacity(states),
        }
    }

    fn modes(&self) -> usize {
        self.diverge.diamonds.len() + 1
    }

    fn state(&self, pc: usize, age: usize, mode: usize) -> usize {
        (pc * (self.window + 1) + age) * self.modes() + mode
    }

    fn pc_of(&self, state: usize) -> usize {
        state / ((self.window + 1) * self.modes())
    }

    /// The mode a walk in `mode` lands in when stepping to `to` over an
    /// ordinary CFG edge: disjointness survives only while the walk stays
    /// inside the crossed diamond's fall-through arm.
    fn carry_mode(&self, mode: usize, to: usize) -> usize {
        if mode > 0 && self.diverge.diamonds[mode - 1].in_fall_arm(to) {
            mode
        } else {
            0
        }
    }

    /// Queues every successor (pc, mode) pair of `pc` in `mode` at `age`,
    /// reached from state `from`, unless an earlier step reached it: CFG
    /// edges carry the mode per [`Self::carry_mode`]; serialization edges
    /// enter the disjoint mode when the def lives in that diamond's taken
    /// arm.
    fn expand(&mut self, pc: usize, mode: usize, age: usize, from: usize) {
        let diverge = self.diverge;
        for s in succs(self.kernel, pc) {
            self.visit(s, age, self.carry_mode(mode, s), from);
        }
        for e in &diverge.edges[pc] {
            let m = if self.def_in_taken[e.did] {
                e.did + 1
            } else {
                self.carry_mode(mode, e.to)
            };
            self.visit(e.to, age, m, from);
        }
    }

    fn visit(&mut self, pc: usize, age: usize, mode: usize, from: usize) {
        let st = self.state(pc, age, mode);
        if self.parent[st] == NO_PARENT {
            self.parent[st] = from;
            self.queue.push(st);
        }
    }

    /// Reconstructs the instruction path `def_pc .. end_state` from the
    /// breadth-first parent links.
    fn path_to(&self, def_pc: usize, end_state: usize) -> Vec<usize> {
        let mut path = Vec::with_capacity(self.ancestry(end_state).count() + 1);
        path.extend(self.ancestry(end_state).map(|st| self.pc_of(st)));
        path.push(def_pc);
        path.reverse();
        path.dedup(); // def and its first successor can share a pc in tight loops
        path
    }

    /// `state` and its breadth-first ancestors, back to the first step
    /// after the write.
    fn ancestry(&self, state: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(state), |&st| {
            Some(self.parent[st]).filter(|&p| p != NO_PARENT && p != ROOT)
        })
    }

    /// Verdict for a `BocOnly` write of `reg` at `def_pc`.
    fn verify_boc(&mut self, def_pc: usize, reg: Reg) -> HintVerdict {
        let verdict = self.explore(def_pc, reg);
        for &st in &self.queue {
            self.parent[st] = NO_PARENT;
        }
        self.queue.clear();
        verdict
    }

    /// The breadth-first search behind [`Self::verify_boc`], from a clean
    /// parent table.
    fn explore(&mut self, def_pc: usize, reg: Reg) -> HintVerdict {
        let w = self.window;
        self.def_in_taken.clear();
        self.def_in_taken
            .extend(self.diverge.diamonds.iter().map(|d| d.in_taken_arm(def_pc)));
        let mut witnesses: Vec<usize> = Vec::new();
        self.expand(def_pc, 0, 1.min(w), ROOT);
        let mut head = 0;
        while let Some(&st) = self.queue.get(head) {
            head += 1;
            let pc = self.pc_of(st);
            let age = (st / self.modes()) % (w + 1);
            let mode = st % self.modes();
            let op = &self.ops[pc];
            let reads = op.reads(reg);
            if reads && mode == 0 {
                if age >= w {
                    return HintVerdict::Unsound {
                        read_pc: pc,
                        path: self.path_to(def_pc, st),
                    };
                }
                if self.witnesses && !witnesses.contains(&pc) {
                    witnesses.push(pc);
                }
            }
            // An unguarded write of the register ends the tracked value's
            // life (reads at the same pc were serviced above, before the
            // write). A *guarded* write is only a may-kill: if its
            // predicate is false at runtime the instruction is squashed,
            // the old value stays architectural, and a later out-of-window
            // read of it is still a counterexample — so the walk continues
            // through it, aging normally.
            if op.kill() == Some(reg) {
                continue;
            }
            // A read re-touches the resident entry; once the age has
            // saturated (entry evicted) it stays saturated — a mode > 0
            // read at that point merely refetches a pre-def snapshot.
            let next_age = if reads && age < w {
                1.min(w)
            } else {
                (age + 1).min(w)
            };
            self.expand(pc, mode, next_age, st);
        }
        witnesses.sort_unstable();
        HintVerdict::Sound { witnesses }
    }
}

/// Audits every static register write of `kernel` against a `window`-deep
/// operand window, path-sensitively. See the module docs for the abstract
/// semantics and the soundness argument.
pub fn verify_hints(kernel: &Kernel, window: usize) -> HintAudit {
    audit(kernel, &operand_table(kernel), window)
}

/// [`verify_hints`] over `kernel`'s analysis bundle.
pub fn verify_hints_with(kernel: &Kernel, an: &Analysis, window: usize) -> HintAudit {
    debug_assert!(an.describes(kernel), "the bundle of another kernel");
    audit(kernel, an.ops(), window)
}

fn audit(kernel: &Kernel, ops: &[Operands], window: usize) -> HintAudit {
    let window = modelled_window(window);
    let writes = ops.iter().filter(|op| op.def.is_some()).count();
    let mut findings = Vec::with_capacity(writes);
    each_finding(kernel, ops, window, true, |f| findings.push(f));
    HintAudit { window, findings }
}

/// The window the verifier models for a requested `window`.
pub(crate) fn modelled_window(window: usize) -> usize {
    window.min(MAX_MODELLED_WINDOW)
}

/// Judges every static register write of `kernel` in pc order against a
/// [`modelled_window`] `w` and hands each [`HintFinding`] to `each`.
/// Sound verdicts list their witnesses only if `witnesses` is set.
pub(crate) fn each_finding(
    kernel: &Kernel,
    ops: &[Operands],
    w: usize,
    witnesses: bool,
    mut each: impl FnMut(HintFinding),
) {
    let diverge = divergence_geometry(kernel);
    // Built on the first `BocOnly` write: a kernel without one never pays
    // for the state table.
    let mut explorer: Option<Explorer> = None;
    for (pc, (inst, op)) in kernel.insts.iter().zip(ops).enumerate() {
        let Some(reg) = op.def else { continue };
        let verdict = match inst.hint {
            WritebackHint::RfOnly | WritebackHint::Both => HintVerdict::TrivialRf,
            WritebackHint::BocOnly => explorer
                .get_or_insert_with(|| Explorer::new(kernel, ops, w, witnesses, &diverge))
                .verify_boc(pc, reg),
        };
        each(HintFinding {
            pc,
            reg,
            hint: inst.hint,
            verdict,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{CmpOp, KernelBuilder, Operand, Pred};

    fn r(i: u8) -> Reg {
        Reg::r(i)
    }

    /// def r0 .wb.boc, `gap` nops, then a read.
    fn straight(gap: usize) -> Kernel {
        let mut b = KernelBuilder::new("s")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::BocOnly);
        for _ in 0..gap {
            b = b.nop();
        }
        b.iadd(r(1), r(0).into(), Operand::Imm(1))
            .exit()
            .build()
            .unwrap()
    }

    fn verdict_of(audit: &HintAudit, pc: usize) -> &HintVerdict {
        &audit
            .findings
            .iter()
            .find(|f| f.pc == pc)
            .expect("finding for pc")
            .verdict
    }

    #[test]
    fn in_window_read_is_witnessed() {
        let k = straight(2);
        let audit = verify_hints(&k, 8);
        match verdict_of(&audit, 0) {
            HintVerdict::Sound { witnesses } => assert_eq!(witnesses, &vec![3]),
            v => panic!("expected sound, got {v:?}"),
        }
        assert!(audit.is_sound());
    }

    #[test]
    fn read_past_the_window_is_a_counterexample() {
        let k = straight(8); // read at age 9
        let audit = verify_hints(&k, 8);
        match verdict_of(&audit, 0) {
            HintVerdict::Unsound { read_pc, path } => {
                assert_eq!(*read_pc, 9);
                assert_eq!(path.first(), Some(&0));
                assert_eq!(path.last(), Some(&9));
                assert_eq!(path.len(), 10, "shortest path visits every gap pc");
            }
            v => panic!("expected unsound, got {v:?}"),
        }
        assert!(!audit.is_sound());
    }

    #[test]
    fn reads_retouch_the_entry() {
        // Two reads each 3 apart with window 4: sound even though the
        // total distance exceeds the window.
        let k = KernelBuilder::new("touch")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::BocOnly)
            .nop()
            .nop()
            .iadd(r(1), r(0).into(), Operand::Imm(1))
            .nop()
            .nop()
            .iadd(r(2), r(0).into(), Operand::Imm(2))
            .exit()
            .build()
            .unwrap();
        let audit = verify_hints(&k, 4);
        match verdict_of(&audit, 0) {
            HintVerdict::Sound { witnesses } => assert_eq!(witnesses, &vec![3, 6]),
            v => panic!("expected sound, got {v:?}"),
        }
    }

    #[test]
    fn unsoundness_is_path_sensitive() {
        // One arm reads immediately; the other delays past the window.
        // A forward block walk that stops at the first consuming read
        // would miss this; the product automaton must not.
        let mut b = KernelBuilder::new("paths")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::BocOnly)
            .bra_if(Pred::p(0), false, "slow")
            .iadd(r(1), r(0).into(), Operand::Imm(1)) // fast arm: in-window
            .exit()
            .label("slow");
        for _ in 0..6 {
            b = b.nop();
        }
        let k = b
            .iadd(r(2), r(0).into(), Operand::Imm(2)) // slow arm: age 8 > 4
            .exit()
            .build()
            .unwrap();
        let audit = verify_hints(&k, 4);
        assert!(
            matches!(verdict_of(&audit, 0), HintVerdict::Unsound { .. }),
            "slow arm must be found: {:?}",
            verdict_of(&audit, 0)
        );
    }

    #[test]
    fn overwrite_kills_the_tracked_value() {
        // r0 is rewritten before the window expires; the late read sees
        // the new value, so the *first* write's BocOnly hint is sound.
        let mut b = KernelBuilder::new("kill")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::BocOnly)
            .mov_imm(r(0), 8);
        for _ in 0..10 {
            b = b.nop();
        }
        let k = b
            .iadd(r(1), r(0).into(), Operand::Imm(1))
            .exit()
            .build()
            .unwrap();
        let audit = verify_hints(&k, 4);
        match verdict_of(&audit, 0) {
            HintVerdict::Sound { witnesses } => assert!(witnesses.is_empty()),
            v => panic!("expected sound-by-death, got {v:?}"),
        }
    }

    #[test]
    fn loop_carried_boc_value_is_checked_around_the_back_edge() {
        // def before a loop; the read sits mid-body. Whether any read goes
        // stale depends on the window against both the entry distance and
        // the loop round-trip, because each hit re-touches the entry.
        let k = KernelBuilder::new("loop")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::BocOnly)
            .mov_imm(r(1), 0)
            .label("top")
            .nop()
            .nop()
            .nop()
            .nop()
            .iadd(r(2), r(0).into(), Operand::Imm(1)) // age 6 on iter 1 via pc1
            .isetp(CmpOp::Lt, Pred::p(0), r(1).into(), Operand::Imm(4))
            .bra_if(Pred::p(0), false, "top")
            .exit()
            .build()
            .unwrap();
        // window 8: first read at age 6 (hit), each later iteration re-reads
        // at distance 7 (hit) — sound.
        assert!(verify_hints(&k, 8).is_sound());
        // window 6: first read hits at age 6? No — 6 >= 6 is evicted.
        assert!(!verify_hints(&k, 6).is_sound());
    }

    #[test]
    fn guarded_overwrite_is_only_a_may_kill() {
        // r0 .wb.boc, a guarded redefinition of r0 inside the window, then
        // a read past the window. When the predicate is false the redef is
        // squashed and the read demands the first def's value from a stale
        // RF — the exploration must walk through the guarded write and
        // report the counterexample.
        let mut b = KernelBuilder::new("gkill")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::BocOnly)
            .guard(Pred::p(3), false)
            .mov_imm(r(0), 8);
        for _ in 0..10 {
            b = b.nop();
        }
        let k = b
            .iadd(r(1), r(0).into(), Operand::Imm(1))
            .exit()
            .build()
            .unwrap();
        let audit = verify_hints(&k, 4);
        match verdict_of(&audit, 0) {
            HintVerdict::Unsound { read_pc, .. } => assert_eq!(*read_pc, 12),
            v => panic!("guarded redef must not kill the tracked value: {v:?}"),
        }
    }

    #[test]
    fn rf_bound_hints_are_trivially_sound() {
        let k = KernelBuilder::new("rf")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::RfOnly)
            .mov_imm(r(1), 8) // default Both
            .exit()
            .build()
            .unwrap();
        let audit = verify_hints(&k, 4);
        assert!(audit.is_sound());
        assert_eq!(verdict_of(&audit, 0), &HintVerdict::TrivialRf);
        assert_eq!(verdict_of(&audit, 1), &HintVerdict::TrivialRf);
    }

    #[test]
    fn divergent_diamond_arms_serialize_on_the_window_clock() {
        // def r0 .wb.boc, then an ssy diamond and a read of r0 right after
        // the sync. The CFG paths reach the read at ages 6 (then arm) and
        // 7 (else arm incl. its bra); the diverged warp executes the taken
        // arm, then the else arm, reaching it at age 9. Window 8 is safe
        // on every per-path walk but unsound under divergence — the
        // serialization edges must find it.
        let build = || {
            KernelBuilder::new("diamond")
                .mov_imm(r(0), 7)
                .hint(WritebackHint::BocOnly)
                .ssy("join")
                .bra_if(Pred::p(0), false, "then")
                .nop()
                .nop()
                .bra("join")
                .label("then")
                .nop()
                .nop()
                .label("join")
                .sync()
                .iadd(r(1), r(0).into(), Operand::Imm(1))
                .exit()
                .build()
                .unwrap()
        };
        let k = build();
        assert!(
            !verify_hints(&k, 8).is_sound(),
            "serialized arms put the read at age 9 >= 8"
        );
        assert!(
            verify_hints(&k, 10).is_sound(),
            "window 10 covers the full serialization"
        );
    }

    #[test]
    fn barrier_form_diamond_serializes_identically() {
        // The same diamond lowered to convergence barriers must get the
        // same verdicts: the barrier model's LIFO split scheduling runs
        // taken arm then fall-through arm, exactly like the stack.
        let k = KernelBuilder::new("bdiamond")
            .mov_imm(r(0), 7)
            .hint(WritebackHint::BocOnly)
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "then")
            .nop()
            .nop()
            .bra("join")
            .label("then")
            .nop()
            .nop()
            .label("join")
            .bsync(0)
            .iadd(r(1), r(0).into(), Operand::Imm(1))
            .exit()
            .build()
            .unwrap();
        assert!(
            !verify_hints(&k, 8).is_sound(),
            "bssy diamond must serialize on the window clock too"
        );
        assert!(verify_hints(&k, 10).is_sound());
    }

    #[test]
    fn rf_only_overwrite_of_a_buffered_value_is_sound() {
        // r5 .wb.both is still buffered (dirty) when r5 .wb.rf writes the
        // RF directly. The write-back port invalidates the superseded
        // entry (the simulator's `WarpWindow::invalidate`), so neither a
        // stale forward nor a late eviction regression can occur — every
        // write is a kill, and the audit stays sound.
        let k = KernelBuilder::new("waw")
            .mov_imm(r(5), 1)
            .nop()
            .mov_imm(r(5), 2)
            .hint(WritebackHint::RfOnly)
            .exit()
            .build()
            .unwrap();
        assert!(verify_hints(&k, 8).is_sound());
    }
}
