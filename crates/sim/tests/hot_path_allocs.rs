//! Allocation guard: a warmed-up `Sm::tick` never touches the heap.
//!
//! The per-cycle path (issue → collect → dispatch → writeback) runs a few
//! hundred million times in a figure sweep, so a `Vec` built per warp per
//! scan is the difference between 1.1 µs and 0.5 µs per warp instruction
//! (EXPERIMENTS.md, "Where a simulated cycle goes"). This test keeps that
//! class of cost closed: a counting global allocator, a launch warmed past
//! the point where every reusable buffer (the completion slab and its far
//! heap, the SIMT stacks, the slot list) has reached its high-water
//! mark, then **zero** allocations over the next few thousand ticks under
//! `NullProbe`, for every collector on both cores. The SM ticks against
//! device memory exactly as the device loop drives it, so its global
//! stores are in the count.
//! Two shapes of SM are counted: sixteen warps over four schedulers, and
//! ninety-six warps under one scheduler (every per-warp bit set spans two
//! words); and one kernel's loads miss to DRAM, so its completions take
//! the completion queue's far path.
//!
//! A third shape keeps two warps waiting on DRAM, so the SM is quiet for
//! most cycles and skips them (docs/ARCHITECTURE.md, hot-path rule 6):
//! the skipped spans and the settles that charge them are counted too.
//!
//! A relaunch resets each SM's memory hierarchy in place, so
//! `MemSystem::reset` on a warmed hierarchy is counted too.
//!
//! The checked launch is held to the same rule: the ticks of a launch with
//! the lockstep oracle's checker listening allocate nothing either — the
//! checker-only pipeline, in which the checker is the tick's probe, on
//! every collector and on memory-heavy ticks too — and a recorded oracle
//! run grows its write log per warp by doubling, not by one allocation per
//! dynamic instruction.
//!
//! Timing-free, so it cannot flake; `scripts/ci.sh` runs it in release.

use bow_isa::ctrl::CtrlBits;
use bow_isa::{
    CmpOp, Instruction, Kernel, KernelBuilder, KernelDims, Opcode, Operand, Pred, Reg, Special,
};
use bow_mem::{AccessKind, GlobalMemory, MemConfig, MemSystem};
use bow_sim::collector::CollectorKind;
use bow_sim::config::{CoreModelKind, GpuConfig, SchedPolicy};
use bow_sim::decode::DecodedKernel;
use bow_sim::oracle::{run_oracle, LockstepChecker};
use bow_sim::probe::{NullProbe, Probe};
use bow_sim::sm::Sm;
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

const A_BUF: u64 = 0x10_0000;
const B_BUF: u64 = 0x20_0000;
/// Words in each global buffer (a power of two: indices wrap with `and`).
const BUF_WORDS: u32 = 4096;
/// Loop trip count: far more than the test ever ticks through.
const FOREVER: u32 = 1 << 30;

const WARMUP_TICKS: u32 = 3_000;
/// Warm-up of the DRAM kernel: each of its loop iterations is a 350-cycle
/// round trip, so its busiest cycles come that much later (at 3000 ticks
/// the dispatch stage's pick list still grows once, from 4 to 8 slots).
const DRAM_WARMUP_TICKS: u32 = 8_000;
const MEASURED_TICKS: u32 = 4_000;

/// Closes a kernel's loop: `i += 1; if i < trips goto top`.
fn loop_back(b: KernelBuilder, i: Reg, trips: u32) -> Kernel {
    b.iadd(i, i.into(), Operand::Imm(1))
        .isetp(CmpOp::Lt, Pred::p(0), i.into(), Operand::Imm(trips))
        .bra_if(Pred::p(0), false, "top")
        .exit()
        .build()
        .unwrap()
}

/// Integer, float, multiply and SFU work over registers only; reads the
/// same register twice and selects on a predicate. Loops `trips` times.
fn alu_kernel(trips: u32) -> Kernel {
    let r = Reg::r;
    let b = KernelBuilder::new("alu")
        .s2r(r(0), Special::TidX)
        .mov_imm(r(1), 0)
        .i2f(r(4), r(0).into())
        .label("top")
        .imad(r(2), r(0).into(), r(0).into(), r(1).into())
        .xor(r(3), r(2).into(), r(1).into())
        .ffma(r(4), r(4).into(), Operand::fimm(1.0001), Operand::fimm(0.5))
        .fsqrt(r(5), r(4).into())
        .isetp(CmpOp::Gt, Pred::p(1), r(3).into(), r(0).into())
        .sel(r(6), r(2).into(), r(5).into(), Pred::p(1))
        .shl(r(7), r(6).into(), Operand::Imm(1))
        .iadd(r(3), r(3).into(), r(7).into());
    loop_back(b, r(1), trips)
}

/// `ldg` → `sts` → `lds` → `stg` round trips over two host-written
/// buffers, so no global page is first-touched by the kernel.
fn memory_kernel() -> Kernel {
    let r = Reg::r;
    let b = KernelBuilder::new("mem")
        .shared_bytes(1024)
        .s2r(r(0), Special::TidX)
        .ldc(r(2), 0)
        .ldc(r(3), 4)
        .mov_imm(r(1), 0)
        .label("top")
        .imad(r(4), r(1).into(), Operand::Imm(33), r(0).into())
        .and(r(4), r(4).into(), Operand::Imm(BUF_WORDS - 1))
        .shl(r(4), r(4).into(), Operand::Imm(2))
        .iadd(r(5), r(2).into(), r(4).into())
        .ldg(r(6), r(5), 0)
        .and(r(7), r(4).into(), Operand::Imm(1020))
        .sts(r(7), 0, r(6).into())
        .lds(r(8), r(7), 0)
        .iadd(r(9), r(3).into(), r(4).into())
        .stg(r(9), 0, r(8).into());
    loop_back(b, r(1), FOREVER)
}

/// Global gathers and scatters without [`memory_kernel`]'s races, `trips`
/// times: a thread loads any word of the first buffer, which nothing
/// stores to, and stores only to its own word of the second, so the
/// lockstep oracle's warp-serial order agrees with the pipeline's.
fn private_memory_kernel(trips: u32) -> Kernel {
    let r = Reg::r;
    let b = KernelBuilder::new("private_mem")
        .s2r(r(0), Special::TidX)
        .s2r(r(10), Special::CtaidX)
        .shl(r(10), r(10).into(), Operand::Imm(6))
        .iadd(r(10), r(10).into(), r(0).into())
        .shl(r(11), r(10).into(), Operand::Imm(2))
        .ldc(r(2), 0)
        .ldc(r(3), 4)
        .iadd(r(9), r(3).into(), r(11).into())
        .mov_imm(r(1), 0)
        .label("top")
        .imad(r(4), r(1).into(), Operand::Imm(33), r(10).into())
        .and(r(4), r(4).into(), Operand::Imm(BUF_WORDS - 1))
        .shl(r(4), r(4).into(), Operand::Imm(2))
        .iadd(r(5), r(2).into(), r(4).into())
        .ldg(r(6), r(5), 0)
        .iadd(r(8), r(6).into(), r(1).into())
        .stg(r(9), 0, r(8).into());
    loop_back(b, r(1), trips)
}

/// A diamond on the lane's parity inside the loop: SIMT-stack pushes and
/// pops, partial masks, guarded branches.
fn divergent_kernel() -> Kernel {
    let r = Reg::r;
    let b = KernelBuilder::new("div")
        .s2r(r(0), Special::TidX)
        .mov_imm(r(1), 0)
        .mov_imm(r(3), 1)
        .label("top")
        .iadd(r(2), r(0).into(), r(1).into())
        .and(r(2), r(2).into(), Operand::Imm(1))
        .isetp(CmpOp::Eq, Pred::p(1), r(2).into(), Operand::Imm(0))
        .ssy("join")
        .bra_if(Pred::p(1), false, "then")
        .iadd(r(3), r(3).into(), Operand::Imm(3))
        .bra("join")
        .label("then")
        .imul(r(3), r(3).into(), Operand::Imm(5))
        .label("join")
        .sync();
    loop_back(b, r(1), FOREVER)
}

/// Loads that miss both caches: every iteration each warp reads the next
/// fresh 128-byte line of a 64 MiB window no host or kernel store touched
/// (an untouched page reads as zeros without being allocated), and the
/// sum waits for each load, so completions come back at DRAM latency.
fn dram_kernel() -> Kernel {
    let r = Reg::r;
    let b = KernelBuilder::new("dram")
        .s2r(r(0), Special::TidX)
        .shl(r(0), r(0).into(), Operand::Imm(2))
        .s2r(r(2), Special::CtaidX)
        .shl(r(2), r(2).into(), Operand::Imm(8))
        .iadd(r(0), r(0).into(), r(2).into())
        .mov_imm(r(1), 0)
        .mov_imm(r(7), 0)
        .label("top")
        .shl(r(4), r(1).into(), Operand::Imm(11))
        .iadd(r(4), r(4).into(), r(0).into())
        .and(r(4), r(4).into(), Operand::Imm((1 << 26) - 1))
        .iadd(r(5), r(4).into(), Operand::Imm(0x100_0000))
        .ldg(r(6), r(5), 0)
        .iadd(r(7), r(7).into(), r(6).into());
    loop_back(b, r(1), FOREVER)
}

/// How the measured SM is populated.
struct Shape {
    name: &'static str,
    /// Resident blocks of 64 threads (two warps each).
    blocks: u32,
    config: fn(&mut GpuConfig),
    /// Whether the SM is quiet for most cycles: most measured ticks are
    /// then skipped rather than busy.
    sleeps: bool,
}

/// Sixteen warps, four per scheduler. A full SM would not reach a steady
/// state under greedy-then-oldest scheduling: it starves the youngest
/// warps of a full SM for arbitrarily long, and a warp's first
/// instructions are what size its own buffers (SIMT stack, bypass window).
const SIXTEEN_WARPS: Shape = Shape {
    name: "16 warps / 4 schedulers",
    blocks: 8,
    config: |_| {},
    sleeps: false,
};

/// Ninety-six warp slots, all resident, all under one scheduler:
/// round-robin, so every warp reaches its steady state in the warm-up.
const NINETY_SIX_WARPS: Shape = Shape {
    name: "96 warps / 1 scheduler",
    blocks: 48,
    config: |c| {
        c.max_warps_per_sm = 96;
        c.max_blocks_per_sm = 48;
        c.schedulers_per_sm = 1;
        c.sched = SchedPolicy::Lrr;
    },
    sleeps: false,
};

/// One block whose two warps wait on DRAM loads: most cycles are quiet.
const TWO_SLEEPING_WARPS: Shape = Shape {
    name: "2 warps, mostly asleep",
    blocks: 1,
    config: |_| {},
    sleeps: true,
};

/// The device memory every launch starts from: both buffers hold their
/// word indices.
fn launch_memory() -> GlobalMemory {
    let mut global = GlobalMemory::new();
    let words: Vec<u32> = (0..BUF_WORDS).collect();
    global.write_slice_u32(A_BUF, &words);
    global.write_slice_u32(B_BUF, &words);
    global
}

/// Puts `shape.blocks` blocks of `kernel` on one SM, warms it up and
/// counts the heap acquisitions of the ticks that follow, with `probe`
/// listening to every tick.
fn allocations_in_steady_state<P: Probe>(
    kernel: &Kernel,
    kind: CollectorKind,
    core_model: CoreModelKind,
    shape: &Shape,
    warmup: u32,
    probe: &mut P,
) -> u64 {
    let mut config = GpuConfig::scaled(kind);
    config.core_model = core_model;
    (shape.config)(&mut config);
    let mut kernel = kernel.clone();
    if core_model == CoreModelKind::Modern {
        // Run under the control-bit interlock proper rather than its
        // unannotated one-in-flight fallback. The bits are timing-only;
        // a uniform stall paces each warp like real annotations do. A
        // sleeping shape's warps also wait for their loads, each load
        // setting a write barrier every instruction waits on.
        let paced = |inst: &Instruction| CtrlBits {
            stall: 4,
            wr_bar: (shape.sleeps && inst.op == Opcode::Ldg).then_some(0),
            wait_mask: u8::from(shape.sleeps),
            ..Default::default()
        };
        kernel.ctrl = kernel.insts.iter().map(paced).collect();
    }
    let mut global = launch_memory();

    let mut sm = Sm::new(0, &config);
    sm.reset_for_launch(&[A_BUF as u32, B_BUF as u32]);
    let dims = KernelDims::linear(shape.blocks, 64);
    for block in 0..shape.blocks {
        sm.assign_block(&kernel, (block, 0), dims, u64::from(block));
    }
    let decoded = DecodedKernel::new(&kernel);

    for _ in 0..warmup {
        sm.tick(&decoded, &mut global, probe);
    }
    let issued_before = sm.stats().warp_instructions;

    let before = ALLOCS.with(Cell::get);
    let mut skipped = 0;
    for _ in 0..MEASURED_TICKS {
        skipped += u64::from(sm.quiet_cycles() > 0);
        sm.tick(&decoded, &mut global, probe);
    }
    sm.settle(probe);
    let allocs = ALLOCS.with(Cell::get) - before;

    let issued = sm.stats().warp_instructions - issued_before;
    assert!(sm.busy(), "the launch must outlast the measurement");
    let what = format!("{} {kind:?} {core_model:?} {}", kernel.name, shape.name);
    if shape.sleeps {
        assert!(
            skipped > u64::from(MEASURED_TICKS) / 2 && issued > 0,
            "{what}: {skipped} of {MEASURED_TICKS} ticks skipped, {issued} warp \
             instructions — the SM is not sleeping between loads"
        );
    } else {
        assert!(
            issued > u64::from(MEASURED_TICKS) / 4,
            "{what}: only {issued} warp instructions in {MEASURED_TICKS} ticks — \
             the pipeline is not being exercised"
        );
    }
    if kernel.name == "dram" {
        let mem = sm.stats().mem;
        assert!(
            mem.dram_accesses == mem.loads && mem.avg_latency() >= 350.0,
            "{kind:?} {core_model:?}: the loads must come back from DRAM: {mem:?}"
        );
    }
    allocs
}

fn assert_heap_free(kernel: &Kernel, shape: &Shape, warmup: u32) {
    for core_model in [CoreModelKind::Pascal, CoreModelKind::Modern] {
        for kind in [
            CollectorKind::Baseline,
            CollectorKind::bow(3),
            CollectorKind::bow_wr(3),
            CollectorKind::rfc6(),
        ] {
            let allocs = allocations_in_steady_state(
                kernel,
                kind,
                core_model,
                shape,
                warmup,
                &mut NullProbe,
            );
            assert_eq!(
                allocs, 0,
                "{} on {kind:?} / {core_model:?}, {}: {allocs} heap allocations in \
                 {MEASURED_TICKS} warmed-up ticks",
                kernel.name, shape.name
            );
        }
    }
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    let before = ALLOCS.with(Cell::get);
    let v = std::hint::black_box(vec![1u8; 64]);
    assert!(ALLOCS.with(Cell::get) > before);
    drop(v);
}

#[test]
fn alu_heavy_ticks_are_heap_free() {
    assert_heap_free(&alu_kernel(FOREVER), &SIXTEEN_WARPS, WARMUP_TICKS);
}

#[test]
fn memory_heavy_ticks_are_heap_free() {
    assert_heap_free(&memory_kernel(), &SIXTEEN_WARPS, WARMUP_TICKS);
}

#[test]
fn divergent_ticks_are_heap_free() {
    assert_heap_free(&divergent_kernel(), &SIXTEEN_WARPS, WARMUP_TICKS);
}

#[test]
fn single_scheduler_96_warp_ticks_are_heap_free() {
    assert_heap_free(&alu_kernel(FOREVER), &NINETY_SIX_WARPS, WARMUP_TICKS);
    assert_heap_free(&memory_kernel(), &NINETY_SIX_WARPS, WARMUP_TICKS);
}

#[test]
fn dram_latency_ticks_are_heap_free() {
    assert_heap_free(&dram_kernel(), &SIXTEEN_WARPS, DRAM_WARMUP_TICKS);
}

#[test]
fn skipped_quiet_cycles_and_their_settles_are_heap_free() {
    assert_heap_free(&dram_kernel(), &TWO_SLEEPING_WARPS, DRAM_WARMUP_TICKS);
}

#[test]
fn ticks_with_the_lockstep_checker_listening_are_heap_free() {
    // Enough trips that every warp outlasts warm-up and measurement.
    let kernel = alu_kernel(400);
    let shape = &SIXTEEN_WARPS;
    let dims = KernelDims::linear(shape.blocks, 64);
    let oracle = run_oracle(
        &kernel,
        dims,
        &[A_BUF as u32, B_BUF as u32],
        launch_memory(),
        true,
    );
    assert!(oracle.completed);
    for core_model in [CoreModelKind::Pascal, CoreModelKind::Modern] {
        for kind in [CollectorKind::Baseline, CollectorKind::bow_wr(3)] {
            let mut checker = LockstepChecker::new(&oracle.log);
            let allocs = allocations_in_steady_state(
                &kernel,
                kind,
                core_model,
                shape,
                WARMUP_TICKS,
                &mut checker,
            );
            assert!(checker.checked > 0 && checker.divergence.is_none());
            assert_eq!(
                allocs, 0,
                "{kind:?} / {core_model:?}: {allocs} heap allocations in \
                 {MEASURED_TICKS} warmed-up checked ticks"
            );
        }
    }
}

#[test]
fn the_checker_only_pipeline_is_heap_free_on_every_collector() {
    // The pipeline a checked launch runs when the checker is its only
    // subscriber: the checker itself is the probe, so the stages build no
    // memory or control trace. Global gathers and scatters, and ALU work,
    // on every collector and both cores.
    let shape = &SIXTEEN_WARPS;
    let dims = KernelDims::linear(shape.blocks, 64);
    for kernel in [private_memory_kernel(300), alu_kernel(400)] {
        let params = [A_BUF as u32, B_BUF as u32];
        let oracle = run_oracle(&kernel, dims, &params, launch_memory(), true);
        assert!(oracle.completed);
        for core_model in [CoreModelKind::Pascal, CoreModelKind::Modern] {
            for kind in [
                CollectorKind::Baseline,
                CollectorKind::bow(3),
                CollectorKind::bow_wr(3),
                CollectorKind::rfc6(),
            ] {
                let mut checker = LockstepChecker::new(&oracle.log);
                let allocs = allocations_in_steady_state(
                    &kernel,
                    kind,
                    core_model,
                    shape,
                    WARMUP_TICKS,
                    &mut checker,
                );
                let what = format!("{} {kind:?} / {core_model:?}", kernel.name);
                assert!(
                    checker.checked > 0 && checker.divergence.is_none(),
                    "{what}: {:?}",
                    checker.divergence
                );
                assert_eq!(
                    allocs, 0,
                    "{what}: {allocs} heap allocations in {MEASURED_TICKS} warmed-up \
                     checked ticks"
                );
            }
        }
    }
}

#[test]
fn a_recorded_oracle_run_allocates_per_warp_not_per_instruction() {
    // Two warps; ten times the trips is ten times the records.
    let dims = KernelDims::linear(1, 64);
    let run = |trips: u32| {
        let kernel = alu_kernel(trips);
        let memory = launch_memory();
        let before = ALLOCS.with(Cell::get);
        let oracle = run_oracle(&kernel, dims, &[], memory, true);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(oracle.completed);
        (allocs, oracle.log.len())
    };
    let (short, short_records) = run(40);
    let (long, long_records) = run(400);
    assert!(long_records >= 9 * short_records);
    // A row doubles its capacity as it grows: ten times the records is at
    // most four more doublings per warp.
    assert!(
        long <= short + 4 * 2,
        "{short} allocations for {short_records} records, \
         {long} for {long_records}"
    );
}

#[test]
fn mem_system_reset_is_heap_free() {
    let mut mem = MemSystem::new(MemConfig::default());
    // Warm both levels and fill the MSHRs: scattered stores and loads,
    // one transaction per lane, all issued in the same few cycles.
    for round in 0..64u64 {
        let addrs: Vec<u64> = (0..32).map(|l| (round * 32 + l) * 4096).collect();
        let kind = if round % 2 == 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        mem.access(kind, &addrs, round / 8);
    }
    assert!(mem.stats().l2.misses > 0 && mem.stats().transactions == 64 * 32);

    let before = ALLOCS.with(Cell::get);
    for _ in 0..8 {
        mem.reset();
        mem.access(AccessKind::Load, &[0, 4096, 8192], 0);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "{allocs} heap allocations in eight resets");
}
