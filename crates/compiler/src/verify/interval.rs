//! Barrier-interval race dataflow: the static half of the race arsenal.
//!
//! The dynamic half (`bow_sim::sanitize`) watches one concrete execution;
//! this pass proves facts about *all* executions of a kernel by abstract
//! interpretation over its CFG:
//!
//! 1. **Barrier intervals.** Every pc gets an interval `[lo, hi]` of
//!    possible barrier counts from the kernel entry (`hi = ∞` once a loop
//!    containing a `bar` makes the count unbounded). Two accesses can only
//!    race if their intervals overlap — a `bar` between them on every path
//!    orders them across warps.
//! 2. **Affine addresses.** Registers are tracked in a lane-linear domain
//!    `base + Σ cᵢ·symᵢ` over the symbols `tid.x`, `ctaid.x`, `ntid.x`,
//!    kernel parameters, and *opaque* block-uniform values. A nonlinear
//!    operation over block-uniform inputs mints a fresh opaque symbol keyed
//!    by its pc (so `gtid = ctaid*ntid + tid` stays `opaque + tid` instead
//!    of collapsing to ⊤); a nonlinear operation over thread-varying inputs
//!    goes to ⊤. Loads always produce ⊤ (racing stores make the value
//!    unstable).
//! 3. **Pair analysis.** For every same-space pair of memory accesses with
//!    at least one store and overlapping barrier intervals, the two affine
//!    addresses are compared. When the symbolic coefficients are identical
//!    everything uniform cancels and the address gap reduces to
//!    `Δbase + c_tid·Δtid`, which classifies the pair exactly (word
//!    granular, matching the sanitizer's `addr & !3`):
//!
//!    | `c_tid` | `Δbase`            | verdict                          |
//!    |---------|--------------------|----------------------------------|
//!    | 0       | 0                  | definite overlap → **B015** error|
//!    | 0       | ≠ 0                | disjoint → silent                |
//!    | ≠ 0     | 0                  | thread-local → silent            |
//!    | ≠ 0     | `k·c_tid`, k ≠ 0   | may overlap → **B003** info      |
//!    | ≠ 0     | otherwise          | disjoint → silent                |
//!
//!    Differing coefficients (or ⊤) demote to **B003** info for shared
//!    memory and stay silent for global memory — distinct global buffers
//!    are indistinguishable from aliasing ones without pointer provenance,
//!    and flagging every load/store pair would drown the report.
//!
//! A **B015** is only claimed when neither access is predicate-guarded or
//! inside an open SSY region (a guard can mask the conflicting threads), and
//! a write/write pair whose stored values are provably the same block-uniform
//! expression is left silent — value-convergent races are benign, mirroring
//! the sanitizer. **B016** (warning) flags a shared load that no shared
//! store in the kernel can initialize: every `sts` address is provably
//! disjoint from the load's, or the kernel has no `sts` at all.
//!
//! The domain assumes a launch with at least two warps per block and
//! compares accesses within one block (`ctaid`/`ntid`/params cancel);
//! cross-block global aliasing is out of scope, exactly like the sanitizer's
//! per-CTA shadow state.

use crate::analysis::{Analysis, Operands};
use crate::cfg::Cfg;
use crate::verify::diag::{Diagnostic, LintReport, Severity};
use bow_isa::{Instruction, Kernel, Opcode, Operand, Special};
use bow_util::InlineVec;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;

/// Symbols of the affine domain. All are uniform across a thread block
/// except [`Sym::Tid`], which is the per-thread linear term.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
enum Sym {
    /// `%tid.x` — the only thread-varying symbol.
    #[default]
    Tid,
    /// `%ctaid.x` (block-uniform).
    Ctaid,
    /// `%ntid.x` (launch constant).
    Ntid,
    /// Kernel parameter word `n` (launch constant).
    Param(u16),
    /// A block-uniform value the domain cannot express linearly, keyed by
    /// the pc that produced it (same pc ⇒ same value, per block).
    Opaque(u32),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Tid => write!(f, "tid"),
            Sym::Ctaid => write!(f, "ctaid"),
            Sym::Ntid => write!(f, "ntid"),
            Sym::Param(n) => write!(f, "param{n}"),
            Sym::Opaque(pc) => write!(f, "op#{pc}"),
        }
    }
}

/// Terms an expression holds inline. Real address arithmetic needs two or
/// three (`tid`, a parameter, an opaque base); a longer expression spills.
const INLINE_TERMS: usize = 4;

/// The `(sym, coeff)` terms of a [`LinExpr`], sorted by symbol and
/// non-zero: inline up to [`INLINE_TERMS`], on the heap beyond. A spill
/// keeps every term — the domain never widens to ⊤ to fit the inline
/// bound. The form is canonical (inline exactly when the terms fit), so
/// derived equality is term-list equality.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Terms {
    Inline(InlineVec<(Sym, i64), INLINE_TERMS>),
    Spilled(Vec<(Sym, i64)>),
}

impl Terms {
    fn new() -> Terms {
        Terms::Inline(InlineVec::new())
    }

    fn push(&mut self, term: (Sym, i64)) {
        match self {
            Terms::Inline(v) if v.len() < INLINE_TERMS => v.push(term),
            Terms::Inline(v) => {
                let mut spilled = Vec::with_capacity(2 * INLINE_TERMS);
                spilled.extend_from_slice(v);
                spilled.push(term);
                *self = Terms::Spilled(spilled);
            }
            Terms::Spilled(v) => v.push(term),
        }
    }
}

impl Default for Terms {
    fn default() -> Terms {
        Terms::new()
    }
}

impl Deref for Terms {
    type Target = [(Sym, i64)];

    fn deref(&self) -> &[(Sym, i64)] {
        match self {
            Terms::Inline(v) => v,
            Terms::Spilled(v) => v,
        }
    }
}

/// `base + Σ coeff·sym`, coefficients sorted by symbol and non-zero.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct LinExpr {
    base: i64,
    coeffs: Terms,
}

impl LinExpr {
    fn constant(v: i64) -> LinExpr {
        LinExpr {
            base: v,
            coeffs: Terms::new(),
        }
    }

    fn sym(s: Sym) -> LinExpr {
        let mut coeffs = Terms::new();
        coeffs.push((s, 1));
        LinExpr { base: 0, coeffs }
    }

    fn tid_coeff(&self) -> i64 {
        self.coeffs
            .iter()
            .find(|(s, _)| *s == Sym::Tid)
            .map_or(0, |(_, c)| *c)
    }

    /// Uniform across the block: no `tid` term.
    fn is_uniform(&self) -> bool {
        self.tid_coeff() == 0
    }

    fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// `self + k·other`, or `None` on i64 overflow.
    fn add_scaled(&self, other: &LinExpr, k: i64) -> Option<LinExpr> {
        let base = self.base.checked_add(other.base.checked_mul(k)?)?;
        let mut coeffs = Terms::new();
        let (mut i, mut j) = (0, 0);
        while i < self.coeffs.len() || j < other.coeffs.len() {
            let (sym, c) = match (self.coeffs.get(i), other.coeffs.get(j)) {
                (Some(&(sa, ca)), Some(&(sb, cb))) if sa == sb => {
                    i += 1;
                    j += 1;
                    (sa, ca.checked_add(cb.checked_mul(k)?)?)
                }
                (Some(&(sa, ca)), Some(&(sb, _))) if sa < sb => {
                    i += 1;
                    (sa, ca)
                }
                (Some(&(sa, ca)), None) => {
                    i += 1;
                    (sa, ca)
                }
                (_, Some(&(sb, cb))) => {
                    j += 1;
                    (sb, cb.checked_mul(k)?)
                }
                (None, None) => unreachable!(),
            };
            if c != 0 {
                coeffs.push((sym, c));
            }
        }
        Some(LinExpr { base, coeffs })
    }

    fn scaled(&self, k: i64) -> Option<LinExpr> {
        LinExpr::constant(0).add_scaled(self, k)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.base)?;
        for (s, c) in self.coeffs.iter() {
            if *c < 0 {
                write!(f, " - {}*{s}", -c)?;
            } else {
                write!(f, " + {c}*{s}")?;
            }
        }
        Ok(())
    }
}

/// The abstract value lattice: affine < ⊤. (No ⊥ is needed: the entry
/// state is all-⊤ and unreachable blocks are never joined.)
#[derive(Clone, PartialEq, Eq, Debug)]
enum Aff {
    /// A lane-linear expression.
    Lin(LinExpr),
    /// Anything, possibly thread-varying.
    Top,
}

impl Aff {
    fn constant(v: i64) -> Aff {
        Aff::Lin(LinExpr::constant(v))
    }

    fn from_opt(e: Option<LinExpr>) -> Aff {
        e.map_or(Aff::Top, Aff::Lin)
    }

    /// A lane-linear value with no `tid` term.
    fn is_uniform(&self) -> bool {
        matches!(self, Aff::Lin(l) if l.is_uniform())
    }

    fn join(&self, other: &Aff) -> Aff {
        match (self, other) {
            (Aff::Lin(a), Aff::Lin(b)) if a == b => self.clone(),
            _ => Aff::Top,
        }
    }

    fn add(&self, other: &Aff) -> Aff {
        match (self, other) {
            (Aff::Lin(a), Aff::Lin(b)) => Aff::from_opt(a.add_scaled(b, 1)),
            _ => Aff::Top,
        }
    }

    fn sub(&self, other: &Aff) -> Aff {
        match (self, other) {
            (Aff::Lin(a), Aff::Lin(b)) => Aff::from_opt(a.add_scaled(b, -1)),
            _ => Aff::Top,
        }
    }

    /// Multiplication stays linear only when one side is a known constant;
    /// otherwise it falls through to the nonlinear rule.
    fn mul(&self, other: &Aff, pc: usize) -> Aff {
        match (self, other) {
            (Aff::Lin(a), Aff::Lin(b)) if a.is_constant() => Aff::from_opt(b.scaled(a.base)),
            (Aff::Lin(a), Aff::Lin(b)) if b.is_constant() => Aff::from_opt(a.scaled(b.base)),
            _ => Aff::nonlinear(self.is_uniform() && other.is_uniform(), pc),
        }
    }

    /// The generative rule: a nonlinear function of block-uniform inputs
    /// (`uniform`: every input [`Aff::is_uniform`]) is itself a
    /// block-uniform value — mint an opaque symbol for it instead of giving
    /// up. Thread-varying (or unknown) inputs go to ⊤.
    fn nonlinear(uniform: bool, pc: usize) -> Aff {
        if uniform {
            Aff::Lin(LinExpr::sym(Sym::Opaque(pc as u32)))
        } else {
            Aff::Top
        }
    }
}

impl fmt::Display for Aff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aff::Lin(l) => l.fmt(f),
            Aff::Top => write!(f, "?"),
        }
    }
}

fn special_aff(s: Special, pc: usize) -> Aff {
    match s {
        Special::TidX => Aff::Lin(LinExpr::sym(Sym::Tid)),
        Special::CtaidX => Aff::Lin(LinExpr::sym(Sym::Ctaid)),
        Special::NtidX => Aff::Lin(LinExpr::sym(Sym::Ntid)),
        // Block-uniform launch values without a dedicated symbol.
        Special::CtaidY | Special::NtidY | Special::NctaidX | Special::NctaidY => {
            Aff::Lin(LinExpr::sym(Sym::Opaque(pc as u32)))
        }
        // Thread-varying within a block.
        Special::TidY | Special::LaneId | Special::WarpId => Aff::Top,
    }
}

fn operand_aff(state: &[Aff], op: Option<&Operand>, pc: usize) -> Aff {
    match op {
        Some(Operand::Reg(r)) if r.is_zero() => Aff::constant(0),
        Some(Operand::Reg(r)) => state[r.index() as usize].clone(),
        Some(Operand::Imm(v)) => Aff::constant(i64::from(*v as i32)),
        Some(Operand::Pred(_)) => Aff::Top,
        Some(Operand::Special(s)) => special_aff(*s, pc),
        None => Aff::Top,
    }
}

/// Abstract value the destination register takes after `inst`.
fn eval(state: &[Aff], inst: &Instruction, pc: usize) -> Aff {
    let src = |i: usize| operand_aff(state, inst.srcs.get(i), pc);
    match inst.op {
        Opcode::Mov | Opcode::S2R => src(0),
        Opcode::IAdd => src(0).add(&src(1)),
        Opcode::ISub => src(0).sub(&src(1)),
        Opcode::IMul => src(0).mul(&src(1), pc),
        Opcode::IMad => src(0).mul(&src(1), pc).add(&src(2)),
        Opcode::Shl => match src(1) {
            Aff::Lin(k) if k.is_constant() && (0..32).contains(&k.base) => match src(0) {
                Aff::Lin(a) => Aff::from_opt(a.scaled(1i64 << k.base)),
                other => Aff::nonlinear(other.is_uniform(), pc),
            },
            _ => Aff::nonlinear(src(0).is_uniform() && src(1).is_uniform(), pc),
        },
        Opcode::Ldc => match inst.mem {
            Some(m) if m.offset >= 0 && m.offset % 4 == 0 => {
                Aff::Lin(LinExpr::sym(Sym::Param((m.offset / 4) as u16)))
            }
            _ => Aff::Lin(LinExpr::sym(Sym::Opaque(pc as u32))),
        },
        // A loaded value is never a stable symbol: a racing store can
        // change it between two evaluations of the same pc.
        Opcode::Ldg | Opcode::Lds => Aff::Top,
        _ => Aff::nonlinear((0..inst.srcs.len()).all(|i| src(i).is_uniform()), pc),
    }
}

fn transfer(state: &mut [Aff], inst: &Instruction, op: &Operands, pc: usize) {
    let Some(d) = op.def else { return };
    let new = eval(state, inst, pc);
    let slot = &mut state[d.index() as usize];
    // A guarded write is a may-def: predicate-false threads keep the old
    // value, so the post-state is the join.
    *slot = if op.kills { new } else { slot.join(&new) };
}

/// A block worklist that holds each block at most once: pushing a queued
/// block is a no-op. The transfers it drives are monotone, so the order
/// blocks are revisited in does not change the fixpoint, and the list never
/// outgrows the block count however many rounds the fixpoint takes.
struct Worklist {
    stack: Vec<usize>,
    queued: Vec<bool>,
}

impl Worklist {
    /// A worklist over `n` blocks holding the entry block.
    fn from_entry(n: usize) -> Worklist {
        let mut w = Worklist {
            stack: Vec::with_capacity(n),
            queued: vec![false; n],
        };
        w.push(0);
        w
    }

    fn push(&mut self, b: usize) {
        if !self.queued[b] {
            self.queued[b] = true;
            self.stack.push(b);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let b = self.stack.pop()?;
        self.queued[b] = false;
        Some(b)
    }
}

/// Per-block entry states to fixpoint. Entry block starts all-⊤ (argument
/// registers are unknown); unreachable blocks stay `None`.
fn fixpoint_states(kernel: &Kernel, an: &Analysis) -> Vec<Option<Vec<Aff>>> {
    let cfg = an.cfg();
    let n = cfg.len();
    let regs = usize::from(kernel.num_regs).max(1);
    let mut entry: Vec<Option<Vec<Aff>>> = vec![None; n];
    if n == 0 {
        return entry;
    }
    entry[0] = Some(vec![Aff::Top; regs]);
    // One state buffer, refilled from a block's entry per visit.
    let mut state: Vec<Aff> = Vec::with_capacity(regs);
    let mut work = Worklist::from_entry(n);
    while let Some(b) = work.pop() {
        state.clear();
        state.extend_from_slice(entry[b].as_deref().expect("scheduled blocks have a state"));
        let block = &cfg.blocks()[b];
        for pc in block.range() {
            transfer(&mut state, &kernel.insts[pc], &an.ops()[pc], pc);
        }
        for &s in &block.succs {
            let changed = match &mut entry[s] {
                Some(old) => {
                    let mut any = false;
                    for (o, new) in old.iter_mut().zip(&state) {
                        let j = o.join(new);
                        if j != *o {
                            *o = j;
                            any = true;
                        }
                    }
                    any
                }
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed {
                work.push(s);
            }
        }
    }
    entry
}

/// Inclusive barrier-count interval; `hi == u32::MAX` means unbounded
/// (a loop around a `bar`).
type EpochIv = (u32, u32);

fn iv_overlap(a: EpochIv, b: EpochIv) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

fn iv_bump(iv: EpochIv, bars: u32, total: u32) -> EpochIv {
    let lo = iv.0.saturating_add(bars);
    let hi = if iv.1 == u32::MAX {
        u32::MAX
    } else {
        let h = iv.1 + bars;
        // More bars than the kernel contains means we went around a loop:
        // the count is unbounded from here on.
        if h > total {
            u32::MAX
        } else {
            h
        }
    };
    (lo, hi)
}

/// Per-block entry barrier intervals to fixpoint.
fn epoch_entries(kernel: &Kernel, cfg: &Cfg) -> Vec<Option<EpochIv>> {
    let total = kernel.insts.iter().filter(|i| i.op == Opcode::Bar).count() as u32;
    let n = cfg.len();
    let mut entry: Vec<Option<EpochIv>> = vec![None; n];
    if n == 0 {
        return entry;
    }
    entry[0] = Some((0, 0));
    let mut work = Worklist::from_entry(n);
    while let Some(b) = work.pop() {
        let block = &cfg.blocks()[b];
        let bars = block
            .range()
            .filter(|&pc| kernel.insts[pc].op == Opcode::Bar)
            .count() as u32;
        let out = iv_bump(
            entry[b].expect("scheduled blocks have an interval"),
            bars,
            total,
        );
        for &s in &block.succs {
            let joined = match entry[s] {
                Some((lo, hi)) => (lo.min(out.0), hi.max(out.1)),
                None => out,
            };
            if entry[s] != Some(joined) {
                entry[s] = Some(joined);
                work.push(s);
            }
        }
    }
    entry
}

/// First-seen SSY depth per pc (depth conflicts are B011's concern).
fn ssy_depth_per_pc(kernel: &Kernel, cfg: &Cfg) -> Vec<usize> {
    let n = cfg.len();
    let mut depth_pc = vec![0usize; kernel.insts.len()];
    let mut depth_in: Vec<Option<usize>> = vec![None; n];
    if n == 0 {
        return depth_pc;
    }
    depth_in[0] = Some(0);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut depth = depth_in[b].expect("scheduled blocks have a depth");
        for pc in cfg.blocks()[b].range() {
            depth_pc[pc] = depth;
            match kernel.insts[pc].op {
                Opcode::Ssy => depth += 1,
                Opcode::Sync => depth = depth.saturating_sub(1),
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
    depth_pc
}

/// One reachable memory access with its abstract address and, for stores,
/// abstract stored value.
struct MemAccess {
    pc: usize,
    shared: bool,
    store: bool,
    addr: Aff,
    value: Aff,
    epoch: EpochIv,
    /// Predicate-guarded or inside an open SSY region: the conflicting
    /// threads may be masked off, so nothing is *definite*.
    guarded: bool,
}

impl MemAccess {
    fn kind(&self) -> &'static str {
        if self.store {
            "store"
        } else {
            "load"
        }
    }

    fn space(&self) -> &'static str {
        if self.shared {
            "shared"
        } else {
            "global"
        }
    }
}

/// How two identical-coefficient affine addresses relate across threads.
#[derive(PartialEq, Eq, Debug)]
enum Rel {
    /// Same word for every pair of distinct threads.
    Definite,
    /// Overlap at some thread distance `k ≠ 0` (if the block is that big).
    May,
    /// Same word only for the same thread — program-ordered, not a race.
    ThreadLocal,
    /// Provably distinct words for all thread pairs.
    Disjoint,
}

/// No GPU launches blocks wider than this (the CUDA architectural limit),
/// so a coincidence at a larger thread distance is unreachable.
const MAX_BLOCK_THREADS: i64 = 1024;

fn classify(a: &LinExpr, b: &LinExpr) -> Rel {
    debug_assert_eq!(a.coeffs, b.coeffs);
    let ct = a.tid_coeff();
    let db = b.base - a.base;
    if ct == 0 {
        // Word-granular, like the sanitizer's `addr & !3`.
        if (db >> 2) == 0 && (-db >> 2) == 0 {
            Rel::Definite
        } else {
            Rel::Disjoint
        }
    } else if db == 0 {
        Rel::ThreadLocal
    } else if db % ct == 0 && (db / ct).abs() < MAX_BLOCK_THREADS {
        Rel::May
    } else {
        Rel::Disjoint
    }
}

/// Both stores write the same block-uniform expression: every thread stores
/// the same value, so even a definite overlap is benign (mirrors the
/// sanitizer's value-convergence rule).
fn value_convergent(x: &MemAccess, y: &MemAccess) -> bool {
    x.store
        && y.store
        && matches!((&x.value, &y.value),
            (Aff::Lin(a), Aff::Lin(b)) if a == b && a.is_uniform())
}

/// Can a store at `sts` initialize the word a load at `lds` reads?
/// Conservative: only a proven-disjoint pair says "no".
fn may_initialize(lds: &Aff, sts: &Aff) -> bool {
    match (lds, sts) {
        (Aff::Lin(a), Aff::Lin(b)) if a.coeffs == b.coeffs => classify(a, b) != Rel::Disjoint,
        _ => true,
    }
}

/// The barrier-interval race pass: emits `B015` (definite race, error),
/// `B003` (may-race, info) and `B016` (never-initialized shared read,
/// warning). See the module docs for the rules.
pub(crate) fn interval_lints(kernel: &Kernel, an: &Analysis, report: &mut LintReport) {
    let (cfg, doms) = (an.cfg(), an.dominators());
    let states = fixpoint_states(kernel, an);
    let epochs = epoch_entries(kernel, cfg);
    let depths = ssy_depth_per_pc(kernel, cfg);

    // Collect every reachable memory access with its abstract facts.
    let total_bars = kernel.insts.iter().filter(|i| i.op == Opcode::Bar).count() as u32;
    let mem_ops = kernel
        .insts
        .iter()
        .filter(|i| matches!(i.op, Opcode::Ldg | Opcode::Stg | Opcode::Lds | Opcode::Sts))
        .count();
    let mut accesses: Vec<MemAccess> = Vec::with_capacity(mem_ops);
    let mut state: Vec<Aff> = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !doms.is_reachable(b) {
            continue;
        }
        let Some(entry_state) = &states[b] else {
            continue;
        };
        let Some(entry_epoch) = epochs[b] else {
            continue;
        };
        state.clear();
        state.extend_from_slice(entry_state);
        let mut epoch = entry_epoch;
        for pc in block.range() {
            let inst = &kernel.insts[pc];
            match inst.op {
                Opcode::Bar => epoch = iv_bump(epoch, 1, total_bars),
                Opcode::Ldg | Opcode::Stg | Opcode::Lds | Opcode::Sts => {
                    let mem = inst.mem.expect("memory opcodes carry a MemRef");
                    let base = if mem.base.is_zero() {
                        Aff::constant(0)
                    } else {
                        state[mem.base.index() as usize].clone()
                    };
                    let store = matches!(inst.op, Opcode::Stg | Opcode::Sts);
                    accesses.push(MemAccess {
                        pc,
                        shared: matches!(inst.op, Opcode::Lds | Opcode::Sts),
                        store,
                        addr: base.add(&Aff::constant(i64::from(mem.offset))),
                        value: if store {
                            operand_aff(&state, inst.srcs.first(), pc)
                        } else {
                            Aff::Top
                        },
                        epoch,
                        guarded: inst.guard.is_some() || depths[pc] > 0,
                    });
                }
                _ => {}
            }
            transfer(&mut state, inst, &an.ops()[pc], pc);
        }
    }

    // One advisory per anchor pc keeps may-race noise bounded; definite
    // races (errors) are always reported.
    let mut advised: HashSet<usize> = HashSet::new();
    let mut advise = |report: &mut LintReport, pc: usize, d: Diagnostic| {
        if advised.insert(pc) {
            report.diagnostics.push(d);
        }
    };

    for i in 0..accesses.len() {
        // Self pair: one store, executed by every active thread.
        let x = &accesses[i];
        if x.store && !x.guarded {
            if let Aff::Lin(addr) = &x.addr {
                if addr.is_uniform() {
                    match &x.value {
                        Aff::Lin(v) if !v.is_uniform() => {
                            report.diagnostics.push(
                                Diagnostic::new(
                                    "B015",
                                    Severity::Error,
                                    format!(
                                        "definite {} race: every thread stores a different \
                                         value ({v}) to the same word",
                                        x.space()
                                    ),
                                )
                                .at(x.pc)
                                .note(format!("the store address {addr} is block-uniform")),
                            );
                        }
                        Aff::Top => {
                            advise(
                                report,
                                x.pc,
                                Diagnostic::new(
                                    "B003",
                                    Severity::Info,
                                    format!(
                                        "{} store to a block-uniform address: threads may \
                                         store different values to the same word",
                                        x.space()
                                    ),
                                )
                                .at(x.pc)
                                .note(format!("the store address {addr} is block-uniform")),
                            );
                        }
                        _ => {}
                    }
                }
            }
        }

        for j in i + 1..accesses.len() {
            let (x, y) = (&accesses[i], &accesses[j]);
            if x.shared != y.shared || !(x.store || y.store) || !iv_overlap(x.epoch, y.epoch) {
                continue;
            }
            match (&x.addr, &y.addr) {
                (Aff::Lin(a), Aff::Lin(b)) if a.coeffs == b.coeffs => match classify(a, b) {
                    Rel::Definite => {
                        if value_convergent(x, y) {
                            continue;
                        }
                        let definite_values = match (&x.value, &y.value) {
                            // Read/write: the read observes the racing
                            // write regardless of value.
                            _ if !(x.store && y.store) => true,
                            // Write/write is only definite when the stored
                            // values provably differ.
                            (Aff::Lin(v), Aff::Lin(w)) => v != w,
                            _ => false,
                        };
                        if definite_values && !x.guarded && !y.guarded {
                            report.diagnostics.push(
                                Diagnostic::new(
                                    "B015",
                                    Severity::Error,
                                    format!(
                                        "definite {} race: this {} always overlaps the {} \
                                         at #{} in the same barrier interval",
                                        y.space(),
                                        y.kind(),
                                        x.kind(),
                                        x.pc
                                    ),
                                )
                                .at(y.pc)
                                .note(format!("both addresses resolve to {a} (word-granular)"))
                                .note(
                                    "no execution order is enforced between warps without \
                                     a barrier",
                                ),
                            );
                        } else {
                            advise(
                                report,
                                y.pc,
                                Diagnostic::new(
                                    "B003",
                                    Severity::Info,
                                    format!(
                                        "{} {} may race with the {} at #{}: same address, \
                                         no separating barrier",
                                        y.space(),
                                        y.kind(),
                                        x.kind(),
                                        x.pc
                                    ),
                                )
                                .at(y.pc)
                                .note("a guard or stored value keeps the conflict unproven"),
                            );
                        }
                    }
                    Rel::May => {
                        advise(
                            report,
                            y.pc,
                            Diagnostic::new(
                                "B003",
                                Severity::Info,
                                format!(
                                    "{} {} may race with the {} at #{}: the addresses \
                                     coincide at thread distance {}",
                                    y.space(),
                                    y.kind(),
                                    x.kind(),
                                    x.pc,
                                    (b.base - a.base) / a.tid_coeff(),
                                ),
                            )
                            .at(y.pc)
                            .note(format!("{a} vs {b}")),
                        );
                    }
                    Rel::ThreadLocal | Rel::Disjoint => {}
                },
                _ if x.shared => {
                    advise(
                        report,
                        y.pc,
                        Diagnostic::new(
                            "B003",
                            Severity::Info,
                            format!(
                                "shared {} may race with the {} at #{}: address analysis \
                                 cannot prove the accesses disjoint",
                                y.kind(),
                                x.kind(),
                                x.pc
                            ),
                        )
                        .at(y.pc)
                        .note(format!("addresses: {} vs {}", x.addr, y.addr)),
                    );
                }
                // Global accesses with differing shapes: almost always
                // distinct buffers; silent by design (see module docs).
                _ => {}
            }
        }
    }

    // B016: a shared load no shared store can initialize.
    for lds in accesses.iter().filter(|a| a.shared && !a.store) {
        let initialized = accesses
            .iter()
            .filter(|a| a.shared && a.store)
            .any(|sts| may_initialize(&lds.addr, &sts.addr));
        if !initialized {
            report.diagnostics.push(
                Diagnostic::new(
                    "B016",
                    Severity::Warning,
                    "shared load of memory no store in the kernel initializes",
                )
                .at(lds.pc)
                .note(format!("load address {}", lds.addr))
                .note("shared memory starts undefined; the loaded value is garbage"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::lints::{lint_kernel, LintOptions};
    use bow_isa::{CmpOp, KernelBuilder, Operand, Pred, Reg, Special};

    fn r(i: u8) -> Reg {
        Reg::r(i)
    }

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn affine_terms_past_the_inline_bound_spill_exactly() {
        // tid + param0 + … + param5: seven terms, three past the bound.
        let mut e = LinExpr::sym(Sym::Tid);
        for n in 0..6 {
            e = e.add_scaled(&LinExpr::sym(Sym::Param(n)), 1).unwrap();
        }
        assert!(matches!(e.coeffs, Terms::Spilled(_)));
        assert_eq!(e.coeffs.len(), 7);
        assert_eq!(e.tid_coeff(), 1);
        // Cancelling back under the bound returns to the inline form,
        // equal to the expression built inline.
        for n in 0..6 {
            e = e.add_scaled(&LinExpr::sym(Sym::Param(n)), -1).unwrap();
        }
        assert!(matches!(e.coeffs, Terms::Inline(_)));
        assert_eq!(e, LinExpr::sym(Sym::Tid));

        // A five-parameter uniform address is still exact: every thread
        // storing its own tid there is a definite race, not a ⊤ address.
        let mut b = KernelBuilder::new("wide");
        for n in 0..5u8 {
            b = b.ldc(r(n + 1), 4 * i32::from(n));
        }
        for n in 2..=5 {
            b = b.iadd(r(1), r(1).into(), r(n).into());
        }
        let k = b
            .s2r(r(0), Special::TidX)
            .sts(r(1), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(codes(&rep).contains(&"B015"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn b015_flags_a_definite_shared_race_and_a_barrier_clears_it() {
        let k = KernelBuilder::new("race")
            .mov_imm(r(0), 0)
            .sts(r(0), 0, r(0).into())
            .lds(r(1), r(0), 0)
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        let b015: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B015")
            .collect();
        assert_eq!(b015.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(b015[0].pc, Some(2));
        assert!(!rep.passes_deny_warnings());

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
    fn per_thread_slots_are_proven_disjoint() {
        // sts [4*tid]; lds [4*tid] — the classic exchange prologue, safe.
        let k = KernelBuilder::new("slots")
            .s2r(r(0), Special::TidX)
            .shl(r(1), r(0).into(), Operand::Imm(2))
            .sts(r(1), 0, r(0).into())
            .lds(r(2), r(1), 0)
            .stg(r(1), 0x100, r(2).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(!codes(&rep).contains(&"B015"), "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"B003"), "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"B016"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn neighbor_stride_is_a_may_race() {
        // sts [4*tid]; lds [4*tid + 4] — reads the neighbor's slot.
        let k = KernelBuilder::new("neighbor")
            .s2r(r(0), Special::TidX)
            .shl(r(1), r(0).into(), Operand::Imm(2))
            .sts(r(1), 0, r(0).into())
            .lds(r(2), r(1), 4)
            .stg(r(1), 0x100, r(2).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        let b003: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B003")
            .collect();
        assert_eq!(b003.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(b003[0].pc, Some(3));
        assert!(!codes(&rep).contains(&"B015"));
    }

    #[test]
    fn uniform_store_of_thread_varying_value_is_definite() {
        let k = KernelBuilder::new("clobber")
            .s2r(r(0), Special::TidX)
            .ldc(r(1), 0)
            .stg(r(1), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(codes(&rep).contains(&"B015"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn guarded_accesses_demote_to_advisory() {
        let k = KernelBuilder::new("guarded")
            .s2r(r(0), Special::TidX)
            .isetp(CmpOp::Eq, Pred::p(0), r(0).into(), Operand::Imm(0))
            .mov_imm(r(1), 0)
            .guard(Pred::p(0), false)
            .sts(r(1), 0, r(0).into())
            .lds(r(2), r(1), 0)
            .stg(r(1), 0x100, r(2).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(!codes(&rep).contains(&"B015"), "{:?}", rep.diagnostics);
        assert!(codes(&rep).contains(&"B003"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn b016_flags_an_uninitialized_shared_read() {
        let k = KernelBuilder::new("uninit-shared")
            .mov_imm(r(0), 0)
            .lds(r(1), r(0), 0)
            .stg(r(0), 0x100, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        let b016: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "B016")
            .collect();
        assert_eq!(b016.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(b016[0].pc, Some(1));
        assert!(!rep.passes_deny_warnings());
    }

    #[test]
    fn value_convergent_stores_stay_silent() {
        // Two unconditional stores of the same constant to the same word:
        // a benign idiom (flag setting), mirrored by the sanitizer.
        let k = KernelBuilder::new("convergent")
            .ldc(r(0), 0)
            .mov_imm(r(1), 7)
            .stg(r(0), 0, r(1).into())
            .stg(r(0), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(!codes(&rep).contains(&"B015"), "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"B003"), "{:?}", rep.diagnostics);
    }

    #[test]
    fn opaque_gtid_keeps_epilogue_strides_disjoint() {
        // gtid = ctaid*ntid + tid is nonlinear, but the generative opaque
        // rule keeps it `op# + tid`, so stores at stride 32 with byte
        // offsets 0 and 4 are provably disjoint.
        let k = KernelBuilder::new("epilogue")
            .s2r(r(0), Special::TidX)
            .s2r(r(1), Special::CtaidX)
            .s2r(r(2), Special::NtidX)
            .imad(r(0), r(1).into(), r(2).into(), r(0).into())
            .shl(r(3), r(0).into(), Operand::Imm(5))
            .ldc(r(4), 0)
            .iadd(r(3), r(3).into(), r(4).into())
            .stg(r(3), 0, r(0).into())
            .stg(r(3), 4, r(0).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn a_loop_with_a_barrier_separates_intervals() {
        // The store before the loop is interval [0,0]; the load after the
        // in-loop bar is [1,∞) — never the same interval.
        let k = KernelBuilder::new("loopbar")
            .mov_imm(r(0), 0)
            .mov_imm(r(1), 0)
            .sts(r(1), 0, r(0).into())
            .label("top")
            .bar()
            .lds(r(2), r(1), 0)
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(4))
            .bra_if(Pred::p(0), false, "top")
            .s2r(r(3), Special::TidX)
            .shl(r(3), r(3).into(), Operand::Imm(2))
            .stg(r(3), 0x100, r(2).into())
            .exit()
            .build()
            .unwrap();
        let rep = lint_kernel(&k, &LintOptions::default());
        assert!(!codes(&rep).contains(&"B015"), "{:?}", rep.diagnostics);
        assert!(!codes(&rep).contains(&"B003"), "{:?}", rep.diagnostics);
    }
}
