//! Allocation guard for the static gate: the whole gate allocates per
//! kernel and per basic block, never per instruction, per write, per
//! visited state or per fixpoint round.
//!
//! `bow::corpus::lint_gate` runs `annotate` → `emit_ctrl` → `lint_kernel`
//! on every corpus candidate, and `corpus::fingerprint` encodes each one
//! it keeps. Two of the costs that used to dominate were heap traffic in
//! inner loops: the `B010` hint verifier (`verify_hints`) built a fresh
//! state table per `BocOnly` write and two `Vec`s per visited state, and
//! `encode_kernel` built a payload `Vec` per instruction. This test keeps
//! both closed with a counting global allocator:
//!
//! * `verify_hints` on a kernel with `k` `BocOnly` writes allocates at
//!   most a constant plus a few per write, however many states each
//!   write's exploration visits — both when every hint is sound (each
//!   walk runs to the exit) and when every hint is unsound (each walk
//!   ends in a long counterexample path);
//! * `encode_kernel` allocates exactly its output vector;
//! * `annotate` → `emit_ctrl` → `lint_kernel` with the hint verifier on,
//!   on straight-line, diamond and loop kernels of about 16, 128 and 1024
//!   instructions, makes the same number of allocations at every size of
//!   a shape, under a constant plus a per-block bound — the operand
//!   table, may-live over block summaries, the allocation-free affine
//!   domain of the interval pass and an inline source list in every
//!   instruction;
//! * `Kernel::clone` makes the same few allocations at every size.
//!
//! Timing-free, so it cannot flake; `scripts/ci.sh` runs it in release.

use bow_compiler::{
    annotate, emit_ctrl, lint_kernel, verify_hints, CtrlLatencies, HintVerdict, LintOptions,
};
use bow_isa::{encode_kernel, CmpOp, Kernel, KernelBuilder, Operand, Pred, Reg, Special};
use bow_isa::{WritebackHint, MAX_SRC_OPERANDS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap acquisitions made by this thread (tests run on parallel
    /// threads, so the count must not be process-wide).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every call that acquires or grows a block.
struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down. The cell is const-initialized and has no destructor, so the
    // access itself never allocates.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// side effect that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` describe a block this allocator returned,
        // i.e. one `System` returned.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `k` `BocOnly` writes of `r1..=rk` and `gap` nops. With `read_late`
/// every value is first read after the gap, past any small window, so
/// every hint is unsound; otherwise each value is read right after its
/// write and every hint is sound, but each exploration still walks the
/// gap to the exit. A guarded backward branch closes the kernel in a
/// loop, so each walk also meets a join.
fn boc_kernel(k: u8, gap: usize, read_late: bool) -> Kernel {
    let r = Reg::r;
    let mut b = KernelBuilder::new("boc").mov_imm(r(200), 0).label("top");
    for i in 1..=k {
        b = b.mov_imm(r(i), u32::from(i)).hint(WritebackHint::BocOnly);
        if !read_late {
            b = b.iadd(r(100 + i), r(i).into(), Operand::Imm(1));
        }
    }
    for _ in 0..gap {
        b = b.nop();
    }
    if read_late {
        for i in 1..=k {
            b = b.iadd(r(100 + i), r(i).into(), Operand::Imm(1));
        }
    }
    b.iadd(r(200), r(200).into(), Operand::Imm(1))
        .isetp(CmpOp::Lt, Pred::p(0), r(200).into(), Operand::Imm(4))
        .bra_if(Pred::p(0), false, "top")
        .exit()
        .build()
        .unwrap()
}

/// Allocations one `verify_hints` run makes, after checking the verdicts
/// are the ones the kernel was built for.
fn audit_allocs(kernel: &Kernel, window: usize, sound: bool) -> u64 {
    let (audit, allocs) = counted(|| verify_hints(kernel, window));
    for f in audit
        .findings
        .iter()
        .filter(|f| f.hint == WritebackHint::BocOnly)
    {
        match (&f.verdict, sound) {
            (HintVerdict::Sound { .. }, true) | (HintVerdict::Unsound { .. }, false) => {}
            (v, _) => panic!("{} at #{}: unexpected verdict {v:?}", f.reg, f.pc),
        }
    }
    allocs
}

#[test]
fn hint_audit_allocates_per_write_not_per_state() {
    for read_late in [false, true] {
        for k in [1u8, 4, 16] {
            for gap in [8usize, 64, 512] {
                let kernel = boc_kernel(k, gap, read_late);
                let allocs = audit_allocs(&kernel, 3, !read_late);
                // A handful for the kernel (state table, queue, findings
                // growth) and at most a witness list or a path per write;
                // one allocation per visited state would be thousands.
                let bound = 8 + 2 * u64::from(k);
                assert!(
                    allocs <= bound,
                    "k = {k}, gap = {gap}, late reads = {read_late}: {allocs} allocations \
                     (bound {bound})"
                );
            }
        }
    }
}

#[test]
fn encode_kernel_allocates_only_its_output() {
    let r = Reg::r;
    let kernel = KernelBuilder::new("enc")
        .ldc(r(0), 0)
        .s2r(r(1), Special::TidX)
        .ldg(r(2), r(0), 4)
        .isetp(CmpOp::Ge, Pred::p(1), r(2).into(), Operand::Imm(9))
        .ssy("join")
        .bra_if(Pred::p(1), true, "join")
        .imad(r(3), r(1).into(), r(2).into(), Operand::Imm(7))
        .label("join")
        .sync()
        .sts(r(1), 8, r(3).into())
        .stg(r(0), 12, r(3).into())
        .exit()
        .build()
        .unwrap();
    assert!(kernel
        .insts
        .iter()
        .any(|i| i.srcs.len() == MAX_SRC_OPERANDS));
    let annotated = emit_ctrl(&annotate(&kernel, 3).0, &CtrlLatencies::default());
    for k in [&kernel, &annotated] {
        let (words, allocs) = counted(|| encode_kernel(k));
        assert_eq!(allocs, 1, "{} words in {allocs} allocations", words.len());
    }
}

/// The three control-flow shapes the gate guard runs over.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One basic block.
    Straight,
    /// `ssy; @p bra` over two arms, joined by a `sync`.
    Diamond,
    /// A counted loop around the body.
    Loop,
}

/// A lint-clean kernel of `shape` whose body repeats `reps` times a
/// five-instruction group: a load of the thread's own word, two ALU ops
/// and a store back, so the hint pass, the control-bit emitter and every
/// lint (the interval pass's affine addresses included) have work at
/// every instruction.
fn gate_kernel(shape: Shape, reps: usize) -> Kernel {
    let r = Reg::r;
    let group = |b: KernelBuilder| {
        b.ldg(r(3), r(1), 0)
            .iadd(r(4), r(3).into(), Operand::Imm(1))
            .imul(r(5), r(4).into(), r(3).into())
            .xor(r(6), r(5).into(), r(2).into())
            .stg(r(1), 0, r(6).into())
    };
    let body = |mut b: KernelBuilder, reps: usize| {
        for _ in 0..reps {
            b = group(b);
        }
        b
    };
    let b = KernelBuilder::new("gate")
        .s2r(r(0), Special::TidX)
        .ldc(r(1), 0)
        .shl(r(2), r(0).into(), Operand::Imm(2))
        .iadd(r(1), r(1).into(), r(2).into());
    match shape {
        Shape::Straight => body(b, reps),
        Shape::Diamond => {
            let b = b
                .and(r(7), r(0).into(), Operand::Imm(1))
                .isetp(CmpOp::Ne, Pred::p(0), r(7).into(), Operand::Imm(0))
                .ssy("join")
                .bra_if(Pred::p(0), false, "then");
            let b = body(b, reps / 2).bra("join").label("then");
            body(b, reps - reps / 2).label("join").sync()
        }
        Shape::Loop => {
            let b = body(b.mov_imm(r(8), 0).label("top"), reps);
            b.iadd(r(8), r(8).into(), Operand::Imm(1))
                .isetp(CmpOp::Lt, Pred::p(0), r(8).into(), Operand::Imm(4))
                .bra_if(Pred::p(0), false, "top")
        }
    }
    .exit()
    .build()
    .unwrap()
}

/// Allocations of one pass of the static gate over `kernel` (the corpus
/// gate's order: annotate, emit control bits, lint with the hint
/// verifier on), after checking the kernel lints clean.
fn gate_allocs(kernel: &Kernel) -> u64 {
    let latencies = CtrlLatencies::default();
    let opts = LintOptions {
        window: 3,
        check_hints: true,
        latencies,
    };
    let (report, allocs) = counted(|| {
        let (annotated, _) = annotate(kernel, 3);
        let ctrl = emit_ctrl(&annotated, &latencies);
        lint_kernel(&ctrl, &opts)
    });
    assert!(
        report.passes_deny_warnings(),
        "{}: {:?}",
        kernel.insts.len(),
        report.diagnostics
    );
    allocs
}

#[test]
fn the_gate_allocates_per_kernel_and_per_block_not_per_instruction() {
    for shape in [Shape::Straight, Shape::Diamond, Shape::Loop] {
        let mut counts = Vec::new();
        for reps in [3usize, 25, 204] {
            let kernel = gate_kernel(shape, reps);
            let blocks = bow_compiler::Cfg::build(&kernel).len() as u64;
            let allocs = gate_allocs(&kernel);
            // The passes' per-kernel tables and reports, and each block's
            // edge lists and first interval state.
            let bound = 96 + 12 * blocks;
            assert!(
                allocs <= bound,
                "{shape:?}, {} instructions: {allocs} allocations (bound {bound})",
                kernel.insts.len()
            );
            counts.push((kernel.insts.len(), allocs));
        }
        assert!(
            counts.iter().all(|&(_, a)| a == counts[0].1),
            "{shape:?}: the count moves with the instruction count: {counts:?}"
        );
    }
}

#[test]
fn a_kernel_clone_allocates_the_same_at_every_size() {
    let mut counts = Vec::new();
    for reps in [3usize, 25, 204] {
        let kernel = emit_ctrl(
            &annotate(&gate_kernel(Shape::Loop, reps), 3).0,
            &CtrlLatencies::default(),
        );
        let (copy, allocs) = counted(|| kernel.clone());
        assert_eq!(copy, kernel);
        // The name, the instruction stream and the control-bit sidecar.
        assert_eq!(allocs, 3, "{} instructions", kernel.insts.len());
        counts.push(allocs);
    }
    assert!(counts.iter().all(|&a| a == counts[0]), "{counts:?}");
}
