//! Structured kernel fuzzer with an independent host-side evaluator.
//!
//! [`FuzzKernel`] is a small structured program — straight-line ALU work,
//! predicate-guarded instructions, global loads/stores, shared-memory
//! exchanges across barriers, nested diamonds and bounded loops — drawn
//! deterministically from a [`XorShift`] stream. It lowers to a real
//! [`Kernel`] via [`FuzzKernel::build`], and [`FuzzKernel::expected`]
//! evaluates the *same* structured program on the host with plain Rust
//! arithmetic: a second, independent implementation of the ISA semantics
//! that never touches the simulator. A divergence between the two is a bug
//! in one of them — this is the differential half of the `bow fuzz`
//! subsystem (the architectural oracle in `bow-sim` is the lockstep half).
//!
//! Failing cases shrink via [`FuzzKernel::shrink`]: greedy delta-debugging
//! over the statement tree (drop statements, flatten diamonds and loops,
//! strip guards) until no smaller program still fails.
//!
//! ## Register convention of lowered kernels
//!
//! | register | role |
//! |----------|------|
//! | `r0`     | global thread id (`gtid`) |
//! | `r1,r2`  | lowering scratch |
//! | `r3`     | `INPUT_BASE + gtid*4` (input pointer) |
//! | `r4,r5`  | loop counters (outer, inner) |
//! | `r6`     | shared-memory slot base (`tid_in_block * 16`) |
//! | `r7`     | this thread's input word |
//! | `r8..r15`| the eight fuzzed data registers |
//!
//! Every lowered kernel ends by storing all eight data registers to
//! `OUT_BASE + gtid*32`, so the final global memory is a complete
//! observation of the program's architectural effect.

use crate::builder::KernelBuilder;
use crate::kernel::{Kernel, KernelDims};
use crate::opcode::CmpOp;
use crate::operand::{Operand, Special};
use crate::reg::{Pred, Reg};
use bow_util::XorShift;

/// Grid dimensions of every fuzzed launch (x, y).
pub const GRID: (u32, u32) = (2, 1);
/// Block dimensions of every fuzzed launch (x, y).
pub const BLOCK: (u32, u32) = (64, 1);
/// Total threads in a fuzzed launch.
pub const NUM_THREADS: u32 = GRID.0 * GRID.1 * BLOCK.0 * BLOCK.1;

/// Base address of the per-thread output block (8 words per thread).
pub const OUT_BASE: u32 = 0x10_0000;
/// Base address of the scratch store region (16 word slots per thread).
pub const SCRATCH_BASE: u32 = 0x20_0000;
// [`FuzzKernel::expected`] lists the output words before the scratch
// words, which is ascending address order only while this holds.
const _: () = assert!(OUT_BASE + NUM_THREADS * 4 * DATA_REGS as u32 <= SCRATCH_BASE);
/// Base address of the read-only input region (1 word per thread).
pub const INPUT_BASE: u32 = 0x30_0000;

/// Kernel parameter words every fuzzed kernel is launched with.
pub const PARAMS: [u32; 4] = [INPUT_BASE, OUT_BASE, 0x1234_5678, 0x9e37_79b9];

/// Number of fuzzed data registers (`r8..r15`).
pub const DATA_REGS: u8 = 8;
/// Maximum per-thread scratch store slots.
const MAX_STORE_SLOTS: u8 = 16;
/// Maximum shared-memory exchange slots (4 words per thread).
const MAX_XCHG_SLOTS: u8 = 4;
/// Shared bytes per block: 4 exchange slots per thread.
const SHARED_BYTES: u32 = BLOCK.0 * 16;

const DATA_BASE: u8 = 8;
const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const XOR_PARTNERS: [u8; 9] = [1, 2, 3, 5, 8, 17, 32, 33, 63];

/// Closed ALU opcode set the fuzzer draws from. Mirrors the data opcodes
/// of [`crate::Opcode`]; each variant lowers to exactly one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AluOp {
    IAdd,
    ISub,
    IMul,
    IMad,
    IMin,
    IMax,
    IAbs,
    ISad,
    And,
    Or,
    Xor,
    Not,
    Shl,
    Shr,
    Sar,
    FAdd,
    FSub,
    FMul,
    FFma,
    FMin,
    FMax,
    FRcp,
    FSqrt,
    FLog2,
    FExp2,
    I2F,
    F2I,
    MovImm,
    Sel,
    S2R,
}

const ALU_OPS: [AluOp; 30] = [
    AluOp::IAdd,
    AluOp::ISub,
    AluOp::IMul,
    AluOp::IMad,
    AluOp::IMin,
    AluOp::IMax,
    AluOp::IAbs,
    AluOp::ISad,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Not,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sar,
    AluOp::FAdd,
    AluOp::FSub,
    AluOp::FMul,
    AluOp::FFma,
    AluOp::FMin,
    AluOp::FMax,
    AluOp::FRcp,
    AluOp::FSqrt,
    AluOp::FLog2,
    AluOp::FExp2,
    AluOp::I2F,
    AluOp::F2I,
    AluOp::MovImm,
    AluOp::Sel,
    AluOp::S2R,
];

const SPECIALS: [Special; 7] = [
    Special::TidX,
    Special::TidY,
    Special::CtaidX,
    Special::NtidX,
    Special::NctaidX,
    Special::LaneId,
    Special::WarpId,
];

/// One statement of the structured fuzz program.
///
/// Register indices (`dst`, `a`, `b`, `c`, `src`) select among the
/// [`DATA_REGS`] data registers; predicate indices select `p2`/`p3`.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A single data instruction over the data registers.
    Alu {
        /// Which operation.
        op: AluOp,
        /// Destination data register index.
        dst: u8,
        /// First source data register index.
        a: u8,
        /// Second source data register index.
        b: u8,
        /// Third source data register index (IMad/ISad/FFma/Sel).
        c: u8,
        /// Immediate payload: shift amount, MovImm value, S2R selector.
        imm: u32,
        /// Optional `@p`/`@!p` guard: (predicate index 0..2 → p2/p3, negated).
        guard: Option<(u8, bool)>,
    },
    /// Compare two data registers into `p2`/`p3`.
    Setp {
        /// Predicate index 0..2 (→ p2/p3).
        pred: u8,
        /// Index into the comparison-op table.
        cmp: u8,
        /// Float compare instead of integer.
        float: bool,
        /// First source data register index.
        a: u8,
        /// Second source data register index.
        b: u8,
    },
    /// Load a kernel parameter word from constant memory.
    LdConst {
        /// Destination data register index.
        dst: u8,
        /// Parameter word index (0..4).
        word: u8,
    },
    /// Load from the input region at `gtid + delta` words (clamped to 0
    /// for out-of-range reads by memory semantics).
    GlobalLoad {
        /// Destination data register index.
        dst: u8,
        /// Word offset relative to this thread's input word (-1, 0, 1).
        delta: i8,
    },
    /// Store a data register to this thread's private scratch slot.
    GlobalStore {
        /// Source data register index.
        src: u8,
        /// Per-thread scratch slot (unique per static store, below
        /// the 16 slots a thread owns).
        slot: u8,
    },
    /// Branch on a bit of a data register: `if bit set { then } else { els }`.
    Diamond {
        /// Data register index supplying the condition.
        src: u8,
        /// Which bit of the register to test (0..32).
        bit: u8,
        /// Taken branch body.
        then: Vec<Stmt>,
        /// Not-taken branch body.
        els: Vec<Stmt>,
    },
    /// A counted loop with a compile-time trip count.
    Loop {
        /// Trip count (1..=4).
        trips: u8,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Shared-memory exchange: every thread publishes `src` to its own
    /// slot, barriers, then reads partner `tid ^ xor`'s slot into `dst`.
    Exchange {
        /// Source data register index.
        src: u8,
        /// Destination data register index.
        dst: u8,
        /// Partner XOR mask (< block width).
        xor: u8,
        /// Shared slot (unique per static exchange).
        slot: u8,
    },
    /// A bare block-wide barrier.
    Barrier,
}

impl Stmt {
    fn count(&self) -> usize {
        match self {
            Stmt::Diamond { then, els, .. } => {
                1 + then.iter().map(Stmt::count).sum::<usize>()
                    + els.iter().map(Stmt::count).sum::<usize>()
            }
            Stmt::Loop { body, .. } => 1 + body.iter().map(Stmt::count).sum::<usize>(),
            _ => 1,
        }
    }
}

/// A structured fuzz program plus its launch input.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzKernel {
    /// Top-level statement list.
    pub stmts: Vec<Stmt>,
}

/// Steerable knobs of the structured generator: the paper's workload
/// axes (register pressure, operand reuse distance, branch divergence,
/// memory-op density) plus the raw statement-kind mix.
///
/// [`GenParams::default`] reproduces the classic fuzzer distribution
/// *byte for byte* — the same `XorShift` consumption, so every historic
/// repro seed still regenerates the same kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenParams {
    /// Register pressure: data registers in play (1..=[`DATA_REGS`]).
    /// Destinations and uniform sources are drawn from `r8..r8+n`.
    pub active_regs: u8,
    /// Operand reuse distance: when > 0, three source draws out of four
    /// come from the `reuse_window` most-recently-written data registers
    /// instead of the uniform pool, shortening def→use distances (the
    /// bypass-friendly regime). 0 keeps sources uniform.
    pub reuse_window: u8,
    /// Maximum diamond nesting depth (0..=2). 0 disables divergence.
    pub branch_depth: u32,
    /// Maximum loop nesting depth (0..=2). 0 disables loops.
    pub loop_depth: u32,
    /// Statement-kind weights (relative; bands are rolled out of their
    /// sum, so only ratios matter).
    pub w_alu: u32,
    /// Weight of predicate-setting compares.
    pub w_setp: u32,
    /// Weight of constant-bank parameter loads.
    pub w_ldconst: u32,
    /// Weight of global loads.
    pub w_load: u32,
    /// Weight of global scratch stores.
    pub w_store: u32,
    /// Weight of branch diamonds.
    pub w_branch: u32,
    /// Weight of counted loops.
    pub w_loop: u32,
    /// Weight of shared-memory exchanges (barrier + cross-thread read).
    pub w_exchange: u32,
    /// Weight of bare block-wide barriers.
    pub w_barrier: u32,
}

impl Default for GenParams {
    fn default() -> GenParams {
        GenParams {
            active_regs: DATA_REGS,
            reuse_window: 0,
            branch_depth: 2,
            loop_depth: 2,
            // The classic percentage bands: 45/10/5/6/8/8/6/6/6 = 100.
            w_alu: 45,
            w_setp: 10,
            w_ldconst: 5,
            w_load: 6,
            w_store: 8,
            w_branch: 8,
            w_loop: 6,
            w_exchange: 6,
            w_barrier: 6,
        }
    }
}

impl GenParams {
    /// Sum of the statement-kind weights (the roll modulus).
    fn total_weight(&self) -> u64 {
        u64::from(self.w_alu)
            + u64::from(self.w_setp)
            + u64::from(self.w_ldconst)
            + u64::from(self.w_load)
            + u64::from(self.w_store)
            + u64::from(self.w_branch)
            + u64::from(self.w_loop)
            + u64::from(self.w_exchange)
            + u64::from(self.w_barrier)
    }

    /// Clamps every knob into the range the lowering supports.
    fn clamped(mut self) -> GenParams {
        self.active_regs = self.active_regs.clamp(1, DATA_REGS);
        self.branch_depth = self.branch_depth.min(2);
        self.loop_depth = self.loop_depth.min(2);
        if self.total_weight() == 0 {
            self.w_alu = 1;
        }
        self
    }
}

/// Generation context threaded through recursive block generation.
struct GenCtx {
    store_slot: u8,
    xchg_slot: u8,
    /// Most-recently-written data registers, newest first (deduplicated).
    /// Feeds the reuse-distance knob; unused when `reuse_window` is 0.
    recent: Vec<u8>,
}

impl FuzzKernel {
    /// Generates a program with the default statement budget.
    pub fn generate(rng: &mut XorShift) -> FuzzKernel {
        Self::generate_sized(rng, 24)
    }

    /// Generates a program with roughly `budget` statements.
    pub fn generate_sized(rng: &mut XorShift, budget: usize) -> FuzzKernel {
        Self::generate_with(rng, budget, &GenParams::default())
    }

    /// Generates a program with roughly `budget` statements, steered by
    /// `params`. Out-of-range knobs are clamped rather than rejected so
    /// every parameter point is a valid generator.
    pub fn generate_with(rng: &mut XorShift, budget: usize, params: &GenParams) -> FuzzKernel {
        let params = params.clamped();
        let mut ctx = GenCtx {
            store_slot: 0,
            xchg_slot: 0,
            recent: Vec::new(),
        };
        let mut stmts = Vec::new();
        let mut budget = budget as i64;
        gen_block(rng, &mut ctx, &params, 0, 0, true, &mut budget, &mut stmts);
        FuzzKernel { stmts }
    }

    /// Total statement count (tree-wide), the metric shrinking minimizes.
    pub fn count_stmts(&self) -> usize {
        self.stmts.iter().map(Stmt::count).sum()
    }

    /// Removes statements whose written value can never be observed: a
    /// backward statement-level liveness pass mirroring the compiler's
    /// may-live analysis (a guarded write is only a may-def and does not
    /// kill; diamond arms union; loop bodies run to a back-edge
    /// fixpoint). Purely semantics-preserving — every store, exchange
    /// and final data-register value is unchanged, so [`Self::expected`]
    /// agrees before and after.
    ///
    /// Random programs overwrite unread intermediates constantly; the
    /// corpus pipeline scrubs candidates so the `B004` dead-write lint
    /// judges real hazards instead of generator noise. Deterministic:
    /// same program in, same program out.
    pub fn scrub(&self) -> FuzzKernel {
        let mut stmts = self.stmts.clone();
        loop {
            // The lowering epilogue stores every data register, so all
            // of them are live at program exit.
            let mut live = [true; DATA_REGS as usize];
            if !scrub_block(&mut stmts, &mut live) {
                break;
            }
        }
        FuzzKernel { stmts }
    }

    /// Launch dimensions every fuzzed kernel uses.
    pub fn dims() -> KernelDims {
        KernelDims {
            grid: GRID,
            block: BLOCK,
        }
    }

    /// Generates the per-thread input words for a case.
    pub fn gen_input(rng: &mut XorShift) -> Vec<u32> {
        (0..NUM_THREADS).map(|_| rng.next_u32()).collect()
    }

    /// Lowers the structured program to a runnable [`Kernel`].
    pub fn build(&self, name: &str) -> Kernel {
        self.build_inner(name, false)
    }

    /// Like [`Self::build`], but the fixed prologue is pruned to what the
    /// program can actually observe: data registers that are dead on
    /// entry (overwritten on every path before any read) are not seeded,
    /// and the input-pointer / input-load / shared-base setup is emitted
    /// only when something downstream reads it. Observable behaviour is
    /// identical to [`Self::build`] — [`Self::expected`] holds for both —
    /// but the pruned form carries no dead prologue writes, so the `B004`
    /// lint judges the program body rather than boilerplate. The classic
    /// [`Self::build`] lowering is unchanged (historic fingerprints).
    pub fn build_pruned(&self, name: &str) -> Kernel {
        self.build_inner(name, true)
    }

    fn build_inner(&self, name: &str, prune: bool) -> Kernel {
        let r = Reg::r;
        // Which data registers the body can read before writing — the
        // rest are seeded for nothing. The epilogue reads all of them,
        // so a dead-on-entry register is rewritten on every path.
        let seed_mask: LiveSet = if prune {
            let mut live = [true; DATA_REGS as usize];
            analyze_block(&self.stmts, &mut live);
            live
        } else {
            [true; DATA_REGS as usize]
        };
        let any_seed = seed_mask.iter().any(|&x| x);
        let has_gload = stmt_any(&self.stmts, &|s| matches!(s, Stmt::GlobalLoad { .. }));
        let has_exchange = stmt_any(&self.stmts, &|s| matches!(s, Stmt::Exchange { .. }));
        let need_input_ptr = !prune || any_seed || has_gload;
        let need_input_word = !prune || any_seed;
        let need_shared_base = !prune || has_exchange;

        let mut b = KernelBuilder::new(name)
            .num_regs(16)
            .shared_bytes(SHARED_BYTES)
            .param_words(PARAMS.len() as u16)
            // r0 = gtid = ctaid.x * ntid.x + tid.x
            .s2r(r(0), Special::TidX)
            .s2r(r(1), Special::CtaidX)
            .s2r(r(2), Special::NtidX)
            .imad(
                r(0),
                Operand::Reg(r(1)),
                Operand::Reg(r(2)),
                Operand::Reg(r(0)),
            );
        if need_input_ptr {
            // r3 = INPUT_BASE + gtid*4
            b = b.shl(r(3), Operand::Reg(r(0)), Operand::Imm(2)).iadd(
                r(3),
                Operand::Reg(r(3)),
                Operand::Imm(INPUT_BASE),
            );
        }
        if need_input_word {
            // r7 = input[gtid]
            b = b.ldg(r(7), r(3), 0);
        }
        if need_shared_base {
            // r6 = tid_in_block * 16 (shared slot base)
            b = b
                .s2r(r(6), Special::TidX)
                .shl(r(6), Operand::Reg(r(6)), Operand::Imm(4));
        }
        // Seed the data registers from gtid and the input word.
        for i in 0..DATA_REGS {
            if !seed_mask[i as usize] {
                continue;
            }
            let d = r(DATA_BASE + i);
            b = b
                .imad(
                    d,
                    Operand::Reg(r(0)),
                    Operand::Imm(2 * u32::from(i) + 3),
                    Operand::Imm(seed_const(i)),
                )
                .xor(d, Operand::Reg(d), Operand::Reg(r(7)));
        }
        let mut labels = 0u32;
        for s in &self.stmts {
            b = lower_stmt(b, s, 0, &mut labels);
        }
        // Epilogue: r1 = OUT_BASE + gtid*32, store all data registers.
        b = b.shl(r(1), Operand::Reg(r(0)), Operand::Imm(5)).iadd(
            r(1),
            Operand::Reg(r(1)),
            Operand::Imm(OUT_BASE),
        );
        for i in 0..DATA_REGS {
            b = b.stg(r(1), i32::from(i) * 4, Operand::Reg(r(DATA_BASE + i)));
        }
        b.exit().build().expect("fuzz kernel lowering is valid")
    }

    /// Evaluates the structured program on the host with plain Rust
    /// arithmetic and returns the final `(address, value)` pairs of every
    /// global word the kernel writes (scratch stores + the epilogue dump).
    ///
    /// This is an independent reimplementation of the ISA semantics — it
    /// shares no code with `bow-sim`'s `exec` module, so a mismatch
    /// against the simulator flags a real semantics divergence.
    ///
    /// The pairs come in ascending address order: every thread's eight
    /// output words by `gtid`, then every scratch slot a thread stored to,
    /// by `gtid` and slot.
    pub fn expected(&self, input: &[u32]) -> Vec<(u64, u32)> {
        assert_eq!(input.len(), NUM_THREADS as usize);
        let threads_per_block = (BLOCK.0 * BLOCK.1) as usize;
        let mut threads: Vec<HostThread> = (0..NUM_THREADS as usize)
            .map(|g| HostThread::new(g / threads_per_block, g % threads_per_block, input))
            .collect();
        for block in threads.chunks_mut(threads_per_block) {
            let mut shared = vec![0u32; (SHARED_BYTES / 4) as usize];
            eval_block(&self.stmts, block, &mut shared, input);
        }
        let outputs = threads.iter().flat_map(|th| {
            let base = u64::from(OUT_BASE) + u64::from(th.gtid) * 32;
            (th.regs.iter().enumerate()).map(move |(i, &v)| (base + 4 * i as u64, v))
        });
        let scratch = threads.iter().flat_map(|th| {
            let base = u64::from(SCRATCH_BASE) + u64::from(th.gtid) * 64;
            let stored = th.scratch.iter().enumerate();
            stored.filter_map(move |(slot, &v)| Some((base + 4 * slot as u64, v?)))
        });
        outputs.chain(scratch).collect()
    }

    /// Greedy delta-debugging: repeatedly applies the smallest-first
    /// simplification whose result still makes `fails` return `true`.
    /// `fails` must be deterministic; the original program must fail.
    pub fn shrink<F: FnMut(&FuzzKernel) -> bool>(&self, mut fails: F) -> FuzzKernel {
        let mut cur = self.clone();
        loop {
            let mut improved = false;
            for cand in variants(&cur.stmts) {
                let cand = FuzzKernel { stmts: cand };
                if cand.count_stmts() <= cur.count_stmts() && cand != cur && fails(&cand) {
                    cur = cand;
                    improved = true;
                    break;
                }
            }
            if !improved {
                return cur;
            }
        }
    }
}

fn seed_const(i: u8) -> u32 {
    0x9e37_79b9u32.wrapping_mul(u32::from(i) + 1)
}

/// Draws a source data-register index. Uniform over the active pool by
/// default; with a reuse window, three draws out of four come from the
/// most-recently-written registers.
fn pick_src(rng: &mut XorShift, ctx: &GenCtx, p: &GenParams) -> u8 {
    if p.reuse_window > 0 && !ctx.recent.is_empty() {
        if rng.below(4) != 0 {
            let w = (p.reuse_window as usize).min(ctx.recent.len());
            return ctx.recent[rng.below(w as u64) as usize];
        }
        return rng.below_u8(p.active_regs);
    }
    rng.below_u8(p.active_regs)
}

/// Draws a destination data-register index from the active pool.
fn pick_dst(rng: &mut XorShift, p: &GenParams) -> u8 {
    rng.below_u8(p.active_regs)
}

/// Records a data-register write for the reuse-distance heuristic.
fn note_write(ctx: &mut GenCtx, reg: u8) {
    ctx.recent.retain(|&r| r != reg);
    ctx.recent.insert(0, reg);
    ctx.recent.truncate(DATA_REGS as usize);
}

#[allow(clippy::too_many_arguments)]
fn gen_block(
    rng: &mut XorShift,
    ctx: &mut GenCtx,
    p: &GenParams,
    depth: u32,
    loop_depth: u32,
    top: bool,
    budget: &mut i64,
    out: &mut Vec<Stmt>,
) {
    // Cumulative band edges; a roll below `c_x` but past the previous
    // edge selects band x. Bands whose structural guard fails (slot
    // budget spent, nesting too deep, not at top level) fall back to a
    // plain ALU statement, exactly like the classic generator.
    let c_alu = u64::from(p.w_alu);
    let c_setp = c_alu + u64::from(p.w_setp);
    let c_ldconst = c_setp + u64::from(p.w_ldconst);
    let c_load = c_ldconst + u64::from(p.w_load);
    let c_store = c_load + u64::from(p.w_store);
    let c_branch = c_store + u64::from(p.w_branch);
    let c_loop = c_branch + u64::from(p.w_loop);
    let c_xchg = c_loop + u64::from(p.w_exchange);
    let total = c_xchg + u64::from(p.w_barrier);
    while *budget > 0 {
        *budget -= 1;
        let roll = rng.below(total);
        let stmt = if roll < c_alu {
            gen_alu(rng, ctx, p)
        } else if roll < c_setp {
            Stmt::Setp {
                pred: rng.below_u8(2),
                cmp: rng.below_u8(CMPS.len() as u8),
                float: rng.below(4) == 0,
                a: pick_src(rng, ctx, p),
                b: pick_src(rng, ctx, p),
            }
        } else if roll < c_ldconst {
            Stmt::LdConst {
                dst: pick_dst(rng, p),
                word: rng.below_u8(PARAMS.len() as u8),
            }
        } else if roll < c_load {
            Stmt::GlobalLoad {
                dst: pick_dst(rng, p),
                delta: (rng.below(3) as i8) - 1,
            }
        } else if roll < c_store {
            if ctx.store_slot < MAX_STORE_SLOTS {
                let slot = ctx.store_slot;
                ctx.store_slot += 1;
                Stmt::GlobalStore {
                    src: pick_src(rng, ctx, p),
                    slot,
                }
            } else {
                gen_alu(rng, ctx, p)
            }
        } else if roll < c_branch {
            if depth < p.branch_depth && *budget > 2 {
                let mut then = Vec::new();
                let mut els = Vec::new();
                let mut sub = (*budget / 2).min(6);
                *budget -= sub;
                gen_block(
                    rng,
                    ctx,
                    p,
                    depth + 1,
                    loop_depth,
                    false,
                    &mut sub,
                    &mut then,
                );
                let mut sub = (*budget / 2).min(6);
                *budget -= sub;
                gen_block(
                    rng,
                    ctx,
                    p,
                    depth + 1,
                    loop_depth,
                    false,
                    &mut sub,
                    &mut els,
                );
                Stmt::Diamond {
                    src: pick_src(rng, ctx, p),
                    bit: rng.below_u8(32),
                    then,
                    els,
                }
            } else {
                gen_alu(rng, ctx, p)
            }
        } else if roll < c_loop {
            if loop_depth < p.loop_depth && *budget > 2 {
                let mut body = Vec::new();
                let mut sub = (*budget / 2).min(6);
                *budget -= sub;
                gen_block(
                    rng,
                    ctx,
                    p,
                    depth,
                    loop_depth + 1,
                    false,
                    &mut sub,
                    &mut body,
                );
                Stmt::Loop {
                    trips: 1 + rng.below_u8(if loop_depth == 0 { 4 } else { 3 }),
                    body,
                }
            } else {
                gen_alu(rng, ctx, p)
            }
        } else if roll < c_xchg {
            if top && ctx.xchg_slot < MAX_XCHG_SLOTS {
                let slot = ctx.xchg_slot;
                ctx.xchg_slot += 1;
                Stmt::Exchange {
                    src: pick_src(rng, ctx, p),
                    dst: pick_dst(rng, p),
                    xor: *rng.choose(&XOR_PARTNERS),
                    slot,
                }
            } else {
                gen_alu(rng, ctx, p)
            }
        } else if top {
            Stmt::Barrier
        } else {
            gen_alu(rng, ctx, p)
        };
        match &stmt {
            Stmt::Alu { dst, .. }
            | Stmt::LdConst { dst, .. }
            | Stmt::GlobalLoad { dst, .. }
            | Stmt::Exchange { dst, .. } => note_write(ctx, *dst),
            _ => {}
        }
        out.push(stmt);
    }
}

fn gen_alu(rng: &mut XorShift, ctx: &GenCtx, p: &GenParams) -> Stmt {
    let op = *rng.choose(&ALU_OPS);
    let imm = match op {
        AluOp::Shl | AluOp::Shr | AluOp::Sar => rng.below(32) as u32,
        AluOp::S2R => rng.below(SPECIALS.len() as u64) as u32,
        _ => rng.next_u32(),
    };
    let guard = if rng.below(5) == 0 {
        Some((rng.below_u8(2), rng.next_bool()))
    } else {
        None
    };
    Stmt::Alu {
        op,
        dst: pick_dst(rng, p),
        a: pick_src(rng, ctx, p),
        b: pick_src(rng, ctx, p),
        c: pick_src(rng, ctx, p),
        imm,
        guard,
    }
}

// ---------------------------------------------------------------------------
// Lowering to bow-isa instructions
// ---------------------------------------------------------------------------

fn data_reg(i: u8) -> Reg {
    Reg::r(DATA_BASE + i)
}

fn fuzz_pred(i: u8) -> Pred {
    Pred::p(2 + i)
}

/// Which of `(a, b, c)` an ALU statement actually reads, matching the
/// lowering in [`lower_stmt`] operand for operand.
fn alu_srcs(op: AluOp) -> (bool, bool, bool) {
    match op {
        AluOp::IMad | AluOp::ISad | AluOp::FFma => (true, true, true),
        AluOp::IAdd
        | AluOp::ISub
        | AluOp::IMul
        | AluOp::IMin
        | AluOp::IMax
        | AluOp::And
        | AluOp::Or
        | AluOp::Xor
        | AluOp::FAdd
        | AluOp::FSub
        | AluOp::FMul
        | AluOp::FMin
        | AluOp::FMax
        | AluOp::Sel => (true, true, false),
        AluOp::IAbs
        | AluOp::Not
        | AluOp::Shl
        | AluOp::Shr
        | AluOp::Sar
        | AluOp::FRcp
        | AluOp::FSqrt
        | AluOp::FLog2
        | AluOp::FExp2
        | AluOp::I2F
        | AluOp::F2I => (true, false, false),
        AluOp::MovImm | AluOp::S2R => (false, false, false),
    }
}

type LiveSet = [bool; DATA_REGS as usize];

/// Does any statement in the tree satisfy `f`?
fn stmt_any(stmts: &[Stmt], f: &dyn Fn(&Stmt) -> bool) -> bool {
    stmts.iter().any(|s| {
        f(s) || match s {
            Stmt::Diamond { then, els, .. } => stmt_any(then, f) || stmt_any(els, f),
            Stmt::Loop { body, .. } => stmt_any(body, f),
            _ => false,
        }
    })
}

/// The backward liveness transfer of one statement (no removal).
fn stmt_transfer(s: &Stmt, live: &mut LiveSet) {
    match s {
        Stmt::Alu {
            op,
            dst,
            a,
            b,
            c,
            guard,
            ..
        } => {
            if guard.is_none() {
                live[*dst as usize] = false;
            }
            let (ra, rb, rc) = alu_srcs(*op);
            if ra {
                live[*a as usize] = true;
            }
            if rb {
                live[*b as usize] = true;
            }
            if rc {
                live[*c as usize] = true;
            }
        }
        Stmt::Setp { a, b, .. } => {
            live[*a as usize] = true;
            live[*b as usize] = true;
        }
        Stmt::LdConst { dst, .. } | Stmt::GlobalLoad { dst, .. } => {
            live[*dst as usize] = false;
        }
        Stmt::GlobalStore { src, .. } => {
            live[*src as usize] = true;
        }
        Stmt::Diamond { src, then, els, .. } => {
            let mut l_then = *live;
            let mut l_els = *live;
            analyze_block(then, &mut l_then);
            analyze_block(els, &mut l_els);
            for (l, (t, e)) in live.iter_mut().zip(l_then.iter().zip(l_els.iter())) {
                *l = *t || *e;
            }
            live[*src as usize] = true;
        }
        Stmt::Loop { body, .. } => {
            let exit = loop_fixpoint(body, live);
            *live = exit;
            analyze_block(body, live);
        }
        Stmt::Exchange { src, dst, .. } => {
            live[*dst as usize] = false;
            live[*src as usize] = true;
        }
        Stmt::Barrier => {}
    }
}

/// Backward liveness over a statement list (no removal).
fn analyze_block(stmts: &[Stmt], live: &mut LiveSet) {
    for s in stmts.iter().rev() {
        stmt_transfer(s, live);
    }
}

/// Liveness at the **end** of a loop body: the live-after set of the
/// loop joined, to a fixpoint, with whatever the back edge feeds in
/// from the body's own entry liveness.
fn loop_fixpoint(body: &[Stmt], live_after: &LiveSet) -> LiveSet {
    let mut exit = *live_after;
    loop {
        let mut l = exit;
        analyze_block(body, &mut l);
        let mut grew = false;
        for (x, entry) in exit.iter_mut().zip(l.iter()) {
            if *entry && !*x {
                *x = true;
                grew = true;
            }
        }
        if !grew {
            return exit;
        }
    }
}

/// One backward scrub pass: removes `Alu`/`LdConst`/`GlobalLoad`
/// statements whose destination is not live (a guarded write of a dead
/// value is still removable — it is unobservable either way). Exchanges
/// are never removed: their barrier and shared-store side effects are
/// observable by other threads.
fn scrub_block(stmts: &mut Vec<Stmt>, live: &mut LiveSet) -> bool {
    let mut changed = false;
    let mut i = stmts.len();
    while i > 0 {
        i -= 1;
        let dead = match &stmts[i] {
            Stmt::Alu { dst, .. } | Stmt::LdConst { dst, .. } | Stmt::GlobalLoad { dst, .. } => {
                !live[*dst as usize]
            }
            _ => false,
        };
        if dead {
            stmts.remove(i);
            changed = true;
            continue;
        }
        match &mut stmts[i] {
            Stmt::Diamond { src, then, els, .. } => {
                let mut l_then = *live;
                let mut l_els = *live;
                changed |= scrub_block(then, &mut l_then);
                changed |= scrub_block(els, &mut l_els);
                for (l, (t, e)) in live.iter_mut().zip(l_then.iter().zip(l_els.iter())) {
                    *l = *t || *e;
                }
                live[*src as usize] = true;
            }
            Stmt::Loop { body, .. } => {
                let mut exit = loop_fixpoint(body, live);
                changed |= scrub_block(body, &mut exit);
                *live = exit;
            }
            s => stmt_transfer(s, live),
        }
    }
    changed
}

fn lower_stmt(mut b: KernelBuilder, s: &Stmt, loop_depth: u32, labels: &mut u32) -> KernelBuilder {
    let r = Reg::r;
    match s {
        Stmt::Alu {
            op,
            dst,
            a,
            b: src_b,
            c,
            imm,
            guard,
        } => {
            if let Some((p, neg)) = guard {
                b = b.guard(fuzz_pred(*p), *neg);
            }
            let d = data_reg(*dst);
            let a = Operand::Reg(data_reg(*a));
            let bb = Operand::Reg(data_reg(*src_b));
            let cc = Operand::Reg(data_reg(*c));
            match op {
                AluOp::IAdd => b.iadd(d, a, bb),
                AluOp::ISub => b.isub(d, a, bb),
                AluOp::IMul => b.imul(d, a, bb),
                AluOp::IMad => b.imad(d, a, bb, cc),
                AluOp::IMin => b.imin(d, a, bb),
                AluOp::IMax => b.imax(d, a, bb),
                AluOp::IAbs => b.iabs(d, a),
                AluOp::ISad => b.isad(d, a, bb, cc),
                AluOp::And => b.and(d, a, bb),
                AluOp::Or => b.or(d, a, bb),
                AluOp::Xor => b.xor(d, a, bb),
                AluOp::Not => b.not(d, a),
                AluOp::Shl => b.shl(d, a, Operand::Imm(*imm)),
                AluOp::Shr => b.shr(d, a, Operand::Imm(*imm)),
                AluOp::Sar => b.sar(d, a, Operand::Imm(*imm)),
                AluOp::FAdd => b.fadd(d, a, bb),
                AluOp::FSub => b.fsub(d, a, bb),
                AluOp::FMul => b.fmul(d, a, bb),
                AluOp::FFma => b.ffma(d, a, bb, cc),
                AluOp::FMin => b.fmin(d, a, bb),
                AluOp::FMax => b.fmax(d, a, bb),
                AluOp::FRcp => b.frcp(d, a),
                AluOp::FSqrt => b.fsqrt(d, a),
                AluOp::FLog2 => b.flog2(d, a),
                AluOp::FExp2 => b.fexp2(d, a),
                AluOp::I2F => b.i2f(d, a),
                AluOp::F2I => b.f2i(d, a),
                AluOp::MovImm => b.mov_imm(d, *imm),
                AluOp::Sel => b.sel(d, a, bb, fuzz_pred((*imm & 1) as u8)),
                AluOp::S2R => b.s2r(d, SPECIALS[*imm as usize % SPECIALS.len()]),
            }
        }
        Stmt::Setp {
            pred,
            cmp,
            float,
            a,
            b: src_b,
        } => {
            let p = fuzz_pred(*pred);
            let op = CMPS[*cmp as usize % CMPS.len()];
            let a = Operand::Reg(data_reg(*a));
            let bb = Operand::Reg(data_reg(*src_b));
            if *float {
                b.fsetp(op, p, a, bb)
            } else {
                b.isetp(op, p, a, bb)
            }
        }
        Stmt::LdConst { dst, word } => b.ldc(data_reg(*dst), i32::from(*word) * 4),
        Stmt::GlobalLoad { dst, delta } => b.ldg(data_reg(*dst), r(3), i32::from(*delta) * 4),
        Stmt::GlobalStore { src, slot } => {
            // r1 = SCRATCH_BASE + gtid*64; store at slot*4.
            b.shl(r(1), Operand::Reg(r(0)), Operand::Imm(6))
                .iadd(r(1), Operand::Reg(r(1)), Operand::Imm(SCRATCH_BASE))
                .stg(r(1), i32::from(*slot) * 4, Operand::Reg(data_reg(*src)))
        }
        Stmt::Diamond {
            src,
            bit,
            then,
            els,
        } => {
            let n = *labels;
            *labels += 1;
            let l_then = format!("d{n}_then");
            let l_join = format!("d{n}_join");
            b = b
                .and(r(1), Operand::Reg(data_reg(*src)), Operand::Imm(1 << bit))
                .isetp(CmpOp::Ne, Pred::p(0), Operand::Reg(r(1)), Operand::Imm(0))
                .ssy(l_join.as_str())
                .bra_if(Pred::p(0), false, l_then.as_str());
            for s in els {
                b = lower_stmt(b, s, loop_depth, labels);
            }
            b = b.bra(l_join.as_str()).label(l_then.as_str());
            for s in then {
                b = lower_stmt(b, s, loop_depth, labels);
            }
            b.label(l_join.as_str()).sync()
        }
        Stmt::Loop { trips, body } => {
            let n = *labels;
            *labels += 1;
            let l_top = format!("loop{n}");
            let ctr = r(4 + loop_depth as u8);
            b = b.mov_imm(ctr, 0).label(l_top.as_str());
            for s in body {
                b = lower_stmt(b, s, loop_depth + 1, labels);
            }
            b.iadd(ctr, Operand::Reg(ctr), Operand::Imm(1))
                .isetp(
                    CmpOp::Lt,
                    Pred::p(1),
                    Operand::Reg(ctr),
                    Operand::Imm(u32::from(*trips)),
                )
                .bra_if(Pred::p(1), false, l_top.as_str())
        }
        Stmt::Exchange {
            src,
            dst,
            xor,
            slot,
        } => b
            .sts(r(6), i32::from(*slot) * 4, Operand::Reg(data_reg(*src)))
            .bar()
            .s2r(r(1), Special::TidX)
            .xor(r(1), Operand::Reg(r(1)), Operand::Imm(u32::from(*xor)))
            .shl(r(1), Operand::Reg(r(1)), Operand::Imm(4))
            .lds(data_reg(*dst), r(1), i32::from(*slot) * 4),
        Stmt::Barrier => b.bar(),
    }
}

// ---------------------------------------------------------------------------
// Independent host-side evaluator
// ---------------------------------------------------------------------------

/// Float results collapse NaNs to the canonical 0x7fffffff, matching the
/// device model (and NVIDIA hardware, which does not preserve f32 NaN
/// payloads). Independently re-stated here rather than imported: this
/// evaluator must not share code with the simulator it checks.
fn canon_f32(v: f32) -> u32 {
    if v.is_nan() {
        0x7fff_ffff
    } else {
        v.to_bits()
    }
}

struct HostThread {
    gtid: u32,
    tid: u32,
    block: u32,
    regs: [u32; DATA_REGS as usize],
    preds: [bool; 2],
    /// The last value stored to each scratch slot, if any.
    scratch: [Option<u32>; MAX_STORE_SLOTS as usize],
}

impl HostThread {
    fn new(block: usize, tid: usize, input: &[u32]) -> HostThread {
        let threads_per_block = BLOCK.0 * BLOCK.1;
        let gtid = block as u32 * threads_per_block + tid as u32;
        let input_word = input[gtid as usize];
        let mut regs = [0u32; DATA_REGS as usize];
        for (i, reg) in regs.iter_mut().enumerate() {
            *reg = gtid
                .wrapping_mul(2 * i as u32 + 3)
                .wrapping_add(seed_const(i as u8))
                ^ input_word;
        }
        HostThread {
            gtid,
            tid: tid as u32,
            block: block as u32,
            regs,
            preds: [false; 2],
            scratch: [None; MAX_STORE_SLOTS as usize],
        }
    }

    fn special(&self, sp: Special) -> u32 {
        // Geometry mirrors the simulator: a flat block index decomposed by
        // the x-width, 1-wide in y for the fuzzer's fixed BLOCK/GRID.
        match sp {
            Special::TidX => self.tid % BLOCK.0,
            Special::TidY => self.tid / BLOCK.0,
            Special::CtaidX => self.block % GRID.0,
            Special::NtidX => BLOCK.0,
            Special::NctaidX => GRID.0,
            Special::LaneId => self.tid % 32,
            Special::WarpId => self.tid / 32,
            _ => 0,
        }
    }
}

fn eval_block(stmts: &[Stmt], threads: &mut [HostThread], shared: &mut [u32], input: &[u32]) {
    for s in stmts {
        match s {
            Stmt::Exchange {
                src,
                dst,
                xor,
                slot,
            } => {
                // Phase 1: everyone publishes; barrier; phase 2: read partner.
                for th in threads.iter() {
                    shared[(th.tid * 4 + u32::from(*slot)) as usize] = th.regs[*src as usize];
                }
                for th in threads.iter_mut() {
                    let partner = th.tid ^ u32::from(*xor);
                    th.regs[*dst as usize] = shared[(partner * 4 + u32::from(*slot)) as usize];
                }
            }
            Stmt::Barrier => {}
            _ => {
                for th in threads.iter_mut() {
                    eval_thread(s, th, input);
                }
            }
        }
    }
}

fn eval_thread(s: &Stmt, th: &mut HostThread, input: &[u32]) {
    match s {
        Stmt::Alu {
            op,
            dst,
            a,
            b,
            c,
            imm,
            guard,
        } => {
            if let Some((p, neg)) = guard {
                if th.preds[*p as usize] == *neg {
                    return;
                }
            }
            let a = th.regs[*a as usize];
            let b = th.regs[*b as usize];
            let c = th.regs[*c as usize];
            let fa = f32::from_bits(a);
            let fb = f32::from_bits(b);
            let fc = f32::from_bits(c);
            let v = match op {
                AluOp::IAdd => a.wrapping_add(b),
                AluOp::ISub => a.wrapping_sub(b),
                AluOp::IMul => a.wrapping_mul(b),
                AluOp::IMad => a.wrapping_mul(b).wrapping_add(c),
                AluOp::IMin => (a as i32).min(b as i32) as u32,
                AluOp::IMax => (a as i32).max(b as i32) as u32,
                AluOp::IAbs => (a as i32).unsigned_abs(),
                AluOp::ISad => (a as i32).abs_diff(b as i32).wrapping_add(c),
                AluOp::And => a & b,
                AluOp::Or => a | b,
                AluOp::Xor => a ^ b,
                AluOp::Not => !a,
                AluOp::Shl => a.wrapping_shl(*imm),
                AluOp::Shr => a.wrapping_shr(*imm),
                AluOp::Sar => (a as i32).wrapping_shr(*imm) as u32,
                AluOp::FAdd => canon_f32(fa + fb),
                AluOp::FSub => canon_f32(fa - fb),
                AluOp::FMul => canon_f32(fa * fb),
                AluOp::FFma => canon_f32(fa.mul_add(fb, fc)),
                AluOp::FMin => canon_f32(fa.min(fb)),
                AluOp::FMax => canon_f32(fa.max(fb)),
                AluOp::FRcp => canon_f32(1.0 / fa),
                AluOp::FSqrt => canon_f32(fa.sqrt()),
                AluOp::FLog2 => canon_f32(fa.log2()),
                AluOp::FExp2 => canon_f32(fa.exp2()),
                AluOp::I2F => (a as i32 as f32).to_bits(),
                AluOp::F2I => (fa as i32) as u32,
                AluOp::MovImm => *imm,
                AluOp::Sel => {
                    if th.preds[(*imm & 1) as usize] {
                        a
                    } else {
                        b
                    }
                }
                AluOp::S2R => th.special(SPECIALS[*imm as usize % SPECIALS.len()]),
            };
            th.regs[*dst as usize] = v;
        }
        Stmt::Setp {
            pred,
            cmp,
            float,
            a,
            b,
        } => {
            let op = CMPS[*cmp as usize % CMPS.len()];
            let a = th.regs[*a as usize];
            let b = th.regs[*b as usize];
            th.preds[*pred as usize] = if *float {
                op.eval_f32(f32::from_bits(a), f32::from_bits(b))
            } else {
                op.eval_i32(a as i32, b as i32)
            };
        }
        Stmt::LdConst { dst, word } => {
            th.regs[*dst as usize] = PARAMS[*word as usize];
        }
        Stmt::GlobalLoad { dst, delta } => {
            let idx = i64::from(th.gtid) + i64::from(*delta);
            th.regs[*dst as usize] = if (0..input.len() as i64).contains(&idx) {
                input[idx as usize]
            } else {
                0
            };
        }
        Stmt::GlobalStore { src, slot } => {
            th.scratch[*slot as usize] = Some(th.regs[*src as usize]);
        }
        Stmt::Diamond {
            src,
            bit,
            then,
            els,
        } => {
            let taken = (th.regs[*src as usize] >> bit) & 1 != 0;
            let body = if taken { then } else { els };
            for s in body {
                eval_thread(s, th, input);
            }
        }
        Stmt::Loop { trips, body } => {
            for _ in 0..*trips {
                for s in body {
                    eval_thread(s, th, input);
                }
            }
        }
        Stmt::Exchange { .. } | Stmt::Barrier => {
            unreachable!("block-wide statements are evaluated in eval_block")
        }
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// All one-step simplifications of a statement list, smallest-delta first.
fn variants(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        // Drop the statement entirely.
        let mut v = stmts.to_vec();
        v.remove(i);
        out.push(v);
        match &stmts[i] {
            Stmt::Diamond { then, els, .. } => {
                // Flatten to either branch body.
                for repl in [then, els] {
                    let mut v = stmts.to_vec();
                    v.splice(i..i + 1, repl.iter().cloned());
                    out.push(v);
                }
                // Recurse into both branches.
                for sub in variants(then) {
                    let mut v = stmts.to_vec();
                    if let Stmt::Diamond { then, .. } = &mut v[i] {
                        *then = sub;
                    }
                    out.push(v);
                }
                for sub in variants(els) {
                    let mut v = stmts.to_vec();
                    if let Stmt::Diamond { els, .. } = &mut v[i] {
                        *els = sub;
                    }
                    out.push(v);
                }
            }
            Stmt::Loop { trips, body } => {
                // Flatten to one unrolled body.
                let mut v = stmts.to_vec();
                v.splice(i..i + 1, body.iter().cloned());
                out.push(v);
                // Reduce the trip count.
                if *trips > 1 {
                    let mut v = stmts.to_vec();
                    if let Stmt::Loop { trips, .. } = &mut v[i] {
                        *trips = 1;
                    }
                    out.push(v);
                }
                for sub in variants(body) {
                    let mut v = stmts.to_vec();
                    if let Stmt::Loop { body, .. } = &mut v[i] {
                        *body = sub;
                    }
                    out.push(v);
                }
            }
            Stmt::Alu { guard: Some(_), .. } => {
                let mut v = stmts.to_vec();
                if let Stmt::Alu { guard, .. } = &mut v[i] {
                    *guard = None;
                }
                out.push(v);
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_kernels_validate() {
        let mut rng = XorShift::new(0xf022);
        for _ in 0..50 {
            let fk = FuzzKernel::generate(&mut rng);
            let k = fk.build("fuzz");
            k.validate().expect("lowered kernel validates");
            assert!(k.insts.len() < 512, "kernel stays small");
        }
    }

    #[test]
    fn lowering_roundtrips_through_asm() {
        let mut rng = XorShift::new(7);
        let fk = FuzzKernel::generate(&mut rng);
        let k = fk.build("fuzz");
        let text = k.disassemble();
        let k2 = crate::asm::parse_kernel(&text).expect("reparses");
        assert_eq!(k.insts, k2.insts);
    }

    #[test]
    fn expected_is_deterministic_and_covers_epilogue() {
        let mut rng = XorShift::new(42);
        let fk = FuzzKernel::generate(&mut rng);
        let input = FuzzKernel::gen_input(&mut rng);
        let a = fk.expected(&input);
        let b = fk.expected(&input);
        assert_eq!(a, b);
        // The epilogue always dumps all data regs of all threads.
        assert!(a.len() >= (NUM_THREADS * u32::from(DATA_REGS)) as usize);
    }

    #[test]
    fn shrink_reaches_a_local_minimum() {
        let mut rng = XorShift::new(99);
        let fk = FuzzKernel::generate_sized(&mut rng, 16);
        // "Fails" whenever the program still contains a GlobalStore.
        let has_store = |k: &FuzzKernel| {
            fn any_store(stmts: &[Stmt]) -> bool {
                stmts.iter().any(|s| match s {
                    Stmt::GlobalStore { .. } => true,
                    Stmt::Diamond { then, els, .. } => any_store(then) || any_store(els),
                    Stmt::Loop { body, .. } => any_store(body),
                    _ => false,
                })
            }
            any_store(&k.stmts)
        };
        if !has_store(&fk) {
            return; // nothing to shrink toward in this draw
        }
        let min = fk.shrink(has_store);
        assert!(has_store(&min));
        assert_eq!(min.count_stmts(), 1, "minimal failing program is 1 stmt");
    }

    fn max_reg(stmts: &[Stmt]) -> u8 {
        let mut m = 0;
        for s in stmts {
            match s {
                Stmt::Alu { dst, a, b, c, .. } => m = m.max(*dst).max(*a).max(*b).max(*c),
                Stmt::Setp { a, b, .. } => m = m.max(*a).max(*b),
                Stmt::LdConst { dst, .. } | Stmt::GlobalLoad { dst, .. } => m = m.max(*dst),
                Stmt::GlobalStore { src, .. } => m = m.max(*src),
                Stmt::Diamond { src, then, els, .. } => {
                    m = m.max(*src).max(max_reg(then)).max(max_reg(els));
                }
                Stmt::Loop { body, .. } => m = m.max(max_reg(body)),
                Stmt::Exchange { src, dst, .. } => m = m.max(*src).max(*dst),
                Stmt::Barrier => {}
            }
        }
        m
    }

    fn count_kind(stmts: &[Stmt], f: &dyn Fn(&Stmt) -> bool) -> usize {
        stmts
            .iter()
            .map(|s| {
                let inner = match s {
                    Stmt::Diamond { then, els, .. } => count_kind(then, f) + count_kind(els, f),
                    Stmt::Loop { body, .. } => count_kind(body, f),
                    _ => 0,
                };
                usize::from(f(s)) + inner
            })
            .sum()
    }

    #[test]
    fn default_params_match_the_classic_generator() {
        // generate_sized and generate_with(default) must consume the
        // rng identically: historic repro seeds depend on it.
        let mut a = XorShift::new(0xfeed);
        let mut b = XorShift::new(0xfeed);
        for _ in 0..20 {
            let ka = FuzzKernel::generate_sized(&mut a, 24);
            let kb = FuzzKernel::generate_with(&mut b, 24, &GenParams::default());
            assert_eq!(ka, kb);
        }
        assert_eq!(a.next_u64(), b.next_u64(), "streams stayed in sync");
    }

    #[test]
    fn active_regs_caps_the_register_pool() {
        let p = GenParams {
            active_regs: 3,
            ..GenParams::default()
        };
        let mut rng = XorShift::new(11);
        for _ in 0..20 {
            let fk = FuzzKernel::generate_with(&mut rng, 32, &p);
            assert!(max_reg(&fk.stmts) < 3, "only r8..r10 in play");
            fk.build("cap").validate().expect("valid");
        }
    }

    #[test]
    fn zero_weights_disable_statement_kinds() {
        let p = GenParams {
            w_branch: 0,
            w_loop: 0,
            w_load: 0,
            w_store: 0,
            ..GenParams::default()
        };
        let mut rng = XorShift::new(12);
        for _ in 0..20 {
            let fk = FuzzKernel::generate_with(&mut rng, 32, &p);
            let control = count_kind(&fk.stmts, &|s| {
                matches!(
                    s,
                    Stmt::Diamond { .. }
                        | Stmt::Loop { .. }
                        | Stmt::GlobalLoad { .. }
                        | Stmt::GlobalStore { .. }
                )
            });
            assert_eq!(control, 0, "disabled kinds never appear");
        }
    }

    #[test]
    fn reuse_window_shortens_source_distances() {
        // With a tight reuse window, sources should mostly re-read the
        // most recent writes; measure via mean def→use gap in statement
        // order over a large draw.
        fn mean_gap(p: &GenParams, seed: u64) -> f64 {
            let mut rng = XorShift::new(seed);
            let mut sum = 0usize;
            let mut n = 0usize;
            for _ in 0..40 {
                let fk = FuzzKernel::generate_with(&mut rng, 32, p);
                let mut last = [None::<usize>; DATA_REGS as usize];
                for (i, s) in fk.stmts.iter().enumerate() {
                    if let Stmt::Alu { dst, a, b, c, .. } = s {
                        for src in [a, b, c] {
                            if let Some(d) = last[*src as usize] {
                                sum += i - d;
                                n += 1;
                            }
                        }
                        last[*dst as usize] = Some(i);
                    }
                }
            }
            sum as f64 / n as f64
        }
        let near = GenParams {
            reuse_window: 2,
            ..GenParams::default()
        };
        let far = GenParams::default();
        assert!(
            mean_gap(&near, 77) < mean_gap(&far, 77),
            "reuse window shortens operand distances"
        );
    }

    #[test]
    fn clamping_keeps_degenerate_params_generating() {
        let p = GenParams {
            active_regs: 0,
            reuse_window: 1,
            branch_depth: 9,
            loop_depth: 9,
            w_alu: 0,
            w_setp: 0,
            w_ldconst: 0,
            w_load: 0,
            w_store: 0,
            w_branch: 0,
            w_loop: 0,
            w_exchange: 0,
            w_barrier: 0,
        };
        let mut rng = XorShift::new(13);
        let fk = FuzzKernel::generate_with(&mut rng, 8, &p);
        assert!(!fk.stmts.is_empty());
        fk.build("degenerate").validate().expect("valid");
    }

    #[test]
    fn scrub_preserves_semantics_and_reaches_a_fixpoint() {
        let mut rng = XorShift::new(0x5c2b);
        for _ in 0..100 {
            let fk = FuzzKernel::generate_sized(&mut rng, 24);
            let input = FuzzKernel::gen_input(&mut rng);
            let scrubbed = fk.scrub();
            assert!(
                scrubbed.count_stmts() <= fk.count_stmts(),
                "scrubbing never grows the program"
            );
            assert_eq!(
                fk.expected(&input),
                scrubbed.expected(&input),
                "dead-code elimination is semantics-preserving"
            );
            assert_eq!(scrubbed.scrub(), scrubbed, "scrub is idempotent");
            scrubbed.build("scrubbed").validate().expect("valid");
        }
    }

    #[test]
    fn pruned_build_only_drops_prologue_code() {
        let mut rng = XorShift::new(0x9127);
        for _ in 0..50 {
            let fk = FuzzKernel::generate_sized(&mut rng, 24).scrub();
            let full = fk.build("k");
            let pruned = fk.build_pruned("k");
            pruned.validate().expect("pruned kernel validates");
            assert!(
                pruned.insts.len() <= full.insts.len(),
                "pruning never grows the kernel"
            );
            // The body and epilogue are untouched: the pruned program is
            // a suffix-preserving subsequence of the full lowering.
            let mut full_it = full.insts.iter();
            for inst in &pruned.insts {
                assert!(
                    full_it.any(|f| f.op == inst.op),
                    "pruned stream stays a subsequence (lost {:?})",
                    inst.op
                );
            }
        }
    }

    /// The host model's output over 512 generated programs and inputs,
    /// budgets 8 to 64 statements (so every store slot and nested loops
    /// occur): a SHA-256 over every `(address, value)` pair, each as
    /// little-endian bytes. Captured from the ordered-map evaluator this
    /// model replaced; a change to the evaluator that moves one word of
    /// one case moves the digest.
    const HOST_MODEL_DIGEST: &str =
        "253375e6f7fc8fa9ed61b0ba688adbfcf0a8c52d7b87ce9cd1449b708fb2c255";

    #[test]
    fn host_model_output_is_pinned_and_strictly_ascending() {
        let mut rng = XorShift::new(0x5eed_0b0e);
        let mut digest = bow_util::Sha256::new();
        for case in 0..512usize {
            let program = FuzzKernel::generate_sized(&mut rng, 8 + (case % 8) * 8);
            let input = FuzzKernel::gen_input(&mut rng);
            let out = program.expected(&input);
            assert!(
                out.windows(2).all(|w| w[0].0 < w[1].0),
                "case {case}: addresses must be strictly ascending"
            );
            for (addr, value) in out {
                digest.update(&addr.to_le_bytes());
                digest.update(&value.to_le_bytes());
            }
        }
        let hex: String = digest.finish().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, HOST_MODEL_DIGEST);
    }

    #[test]
    fn exchange_swaps_values_between_partners() {
        let fk = FuzzKernel {
            stmts: vec![Stmt::Exchange {
                src: 0,
                dst: 1,
                xor: 1,
                slot: 0,
            }],
        };
        let input = vec![0u32; NUM_THREADS as usize];
        let out = fk.expected(&input);
        // Thread 0's r9 (dst=1) must hold thread 1's r8 seed.
        let t1_r8 = 1u32.wrapping_mul(3).wrapping_add(seed_const(0));
        let t0_r9 = out
            .iter()
            .find(|(a, _)| *a == u64::from(OUT_BASE) + 4)
            .expect("epilogue word")
            .1;
        assert_eq!(t0_r9, t1_r8);
    }
}
