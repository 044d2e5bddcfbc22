//! The SM pipeline: one instruction flow for both cores.
//!
//! A streaming multiprocessor is two pieces of state:
//!
//! * [`SmCtx`]: the architectural machine state — warps, resident blocks,
//!   the register file, the memory pipe, and the SM's own [`SimStats`];
//! * [`Pipeline`]: everything microarchitectural about instruction flow —
//!   the warp schedulers, the collector **partitions** (an
//!   [`OperandStage`] and its [`DispatchLatch`] each), the
//!   [`CompletionQueue`] and the hazard interlock.
//!
//! Each cycle the pipeline runs its stages in reverse order —
//! writeback → collect → dispatch → issue — so each observes what its
//! predecessor left one cycle earlier. There is exactly one of each stage.
//! What `GpuConfig::core_model` selects is data:
//!
//! * the **partition count** — 1 for `pascal` (an SM-wide collector
//!   pool), `schedulers_per_sm` for `modern` (a sub-core per scheduler,
//!   each with a private slice of the collectors and crossbar; warp `w`
//!   lives on partition `w % n`). Only the memory system, functional-unit
//!   issue budgets and the completion crossbar are SM-wide;
//! * the **interlock** — per-warp scoreboards, or compiler-emitted
//!   control bits plus the uniform register file (the `Interlock` trait
//!   of `stage/interlock.rs` and its two implementors).
//!
//! The interlock is resolved once per SM-cycle ([`Pipeline::tick`]) and
//! the stages are monomorphized over it, like they are over the probe, so
//! the hot path pays one match per cycle and nothing per warp.
//!
//! After each tick the pipeline says when it next has work
//! ([`Pipeline::next_tick`]): a cycle in which nothing can issue,
//! collect, dispatch or write back is *quiet*, and the SM skips a run of
//! them and charges them in one step ([`Pipeline::settle`]) instead of
//! ticking each.
//!
//! Stages communicate with the outside world only through the probe bus
//! ([`crate::probe`]): every counter update and trace point is a typed
//! [`PipeEvent`](crate::probe::PipeEvent) emission, so instrumentation
//! composes without touching stage code.
//!
//! [`SimStats`]: crate::stats::SimStats

pub mod dispatch;
mod interlock;
mod issue;
pub mod writeback;

pub use dispatch::DispatchLatch;
pub use writeback::CompletionQueue;

use crate::collector::OperandStage;
use crate::config::{CoreModelKind, GpuConfig};
use crate::decode::DecodedKernel;
use crate::exec::BlockInfo;
use crate::probe::Probe;
use crate::regfile::RegFile;
use crate::scheduler::WarpScheduler;
use crate::stats::SimStats;
use crate::warp::Warp;
use bow_mem::{GlobalMemory, MemSystem, SharedMemory};
use interlock::{ControlBits, Interlock, Scoreboards};
use issue::ReadySet;

/// A thread block resident on the SM.
#[derive(Debug)]
pub(crate) struct BlockCtx {
    pub(crate) shared: SharedMemory,
    pub(crate) info: BlockInfo,
    /// Warp slots belonging to this block.
    pub(crate) warp_slots: Vec<usize>,
    pub(crate) warps_done: usize,
    /// Unique id of the block's first warp (for the bypass analyzer).
    pub(crate) base_uid: u64,
}

/// The architectural machine state of one SM.
///
/// Fields are crate-private: the pipeline and the [`Sm`](crate::sm::Sm)
/// shell borrow them disjointly; external code observes the SM only
/// through `Sm`'s public API and the probe bus.
pub struct SmCtx {
    pub(crate) id: usize,
    pub(crate) config: GpuConfig,
    pub(crate) cycle: u64,
    pub(crate) warps: Vec<Option<Warp>>,
    pub(crate) warp_age: Vec<u64>,
    pub(crate) age_counter: u64,
    pub(crate) blocks: Vec<Option<BlockCtx>>,
    pub(crate) rf: RegFile,
    pub(crate) mem: MemSystem,
    /// The kernel's parameter words for the current launch.
    pub(crate) params: Vec<u32>,
    pub(crate) stats: SimStats,
}

impl SmCtx {
    /// The launch-unique id of `warp` (block uid base + warp-in-block,
    /// tagged with the SM index) that trace subscribers key on.
    pub(crate) fn uid_of(&self, warp: &Warp) -> u64 {
        self.blocks[warp.block_slot]
            .as_ref()
            .map(|b| b.base_uid + u64::from(warp.warp_in_block))
            .unwrap_or(0)
            | ((self.id as u64) << 48)
    }

    /// Retires a finished warp: flushes its buffered state out of `oc`
    /// (its partition's collector) and releases its block slot when it
    /// was the last warp standing.
    pub(crate) fn finalize_warp<P: Probe>(
        &mut self,
        oc: &mut OperandStage,
        wslot: usize,
        probe: &mut P,
    ) {
        oc.flush_warp(wslot, &mut self.rf, &mut self.stats, probe);
        let warp = self.warps[wslot].take().expect("finalize live warp");
        let bslot = warp.block_slot;
        let block = self.blocks[bslot].as_mut().expect("warp's block resident");
        block.warps_done += 1;
        if block.warps_done == block.warp_slots.len() {
            self.blocks[bslot] = None;
        }
    }

    /// Releases a block-wide barrier once every live warp of `wslot`'s
    /// block has arrived (or exited), telling `released` each slot it
    /// frees.
    pub(crate) fn maybe_release_barrier(&mut self, wslot: usize, mut released: impl FnMut(usize)) {
        let bslot = self.warps[wslot].as_ref().expect("live").block_slot;
        let slots = &self.blocks[bslot].as_ref().expect("resident").warp_slots;
        let all_arrived = slots.iter().all(|&ws| {
            self.warps[ws]
                .as_ref()
                .is_none_or(|w| w.done || w.at_barrier)
        });
        if all_arrived {
            for &ws in slots {
                if let Some(w) = self.warps[ws].as_mut() {
                    w.at_barrier = false;
                    released(ws);
                }
            }
        }
    }
}

/// One collector partition: a slice of the operand collectors and the
/// latch carrying its ready-slot set from collect to dispatch.
struct Part {
    oc: OperandStage,
    latch: DispatchLatch,
}

/// The stages' own state: everything in the pipeline but the interlock,
/// which [`Pipeline::tick`] resolves and passes alongside.
struct Stages {
    parts: Vec<Part>,
    /// Scheduler `s` picks among warps `w % schedulers.len() == s`.
    schedulers: Vec<WarpScheduler>,
    /// Every warp slot's issue class, kept current by events.
    ready: ReadySet,
    /// Dispatch → writeback: in-flight results, SM-wide.
    completions: CompletionQueue,
    /// One-dispatch-per-warp-per-cycle gate of the in-order dispatch an
    /// inexact interlock needs (an entry is cleared once its slot left).
    warp_dispatched: Vec<bool>,
    /// Scratch buffers (reused across cycles).
    ready_buf: Vec<usize>,
    picked_buf: Vec<usize>,
    values_buf: Vec<u32>,
    addr_buf: Vec<u64>,
}

enum InterlockKind {
    Scoreboard(Scoreboards),
    ControlBits(ControlBits),
}

/// The instruction pipeline of one SM.
pub struct Pipeline {
    stages: Stages,
    interlock: InterlockKind,
}

/// Splits the collector pool and the crossbar evenly over `n` partitions
/// (at least one OCU and one crossbar lane each).
fn build_parts(config: &GpuConfig, n: usize) -> Vec<Part> {
    let build = |_| Part {
        oc: OperandStage::new(
            config.collector,
            config.max_warps_per_sm as usize,
            (config.num_ocus as usize / n).max(1),
            u64::from(config.rf_read_latency),
            (config.xbar_width / n as u32).max(1),
        ),
        latch: DispatchLatch::default(),
    };
    (0..n).map(build).collect()
}

impl Pipeline {
    /// Builds the pipeline `config.core_model` selects.
    pub fn new(config: &GpuConfig) -> Pipeline {
        let max_warps = config.max_warps_per_sm as usize;
        let nsched = config.schedulers_per_sm.max(1) as usize;
        let (nparts, interlock) = match config.core_model {
            CoreModelKind::Pascal => (1, InterlockKind::Scoreboard(Scoreboards::new(max_warps))),
            CoreModelKind::Modern => (
                nsched,
                InterlockKind::ControlBits(ControlBits::new(max_warps)),
            ),
        };
        Pipeline {
            stages: Stages {
                parts: build_parts(config, nparts),
                schedulers: (0..nsched)
                    .map(|_| WarpScheduler::new(config.sched))
                    .collect(),
                ready: ReadySet::new(max_warps, nsched, nparts),
                completions: CompletionQueue::default(),
                warp_dispatched: vec![false; max_warps],
                ready_buf: Vec::new(),
                picked_buf: Vec::new(),
                values_buf: Vec::new(),
                addr_buf: Vec::new(),
            },
            interlock,
        }
    }

    /// Rebuilds the collector partitions between launches (the SM is
    /// quiescent) and re-classifies every warp slot. Scheduler state (GTO
    /// greedy pick, LRR cursor) intentionally persists — the behavior the
    /// goldens have always pinned — and interlock state is re-armed per
    /// warp by [`reset_warp`](Self::reset_warp).
    pub fn reset_for_launch(&mut self, config: &GpuConfig) {
        self.stages.parts = build_parts(config, self.stages.parts.len());
        self.stages.ready.reset();
        self.stages.completions.restart();
    }

    /// Completions queued in the far heap since the pipeline was built.
    #[cfg(test)]
    pub(crate) fn far_completions(&self) -> u64 {
        self.stages.completions.far_pushes
    }

    /// Re-arms the interlock of slot `w` for a freshly assigned warp.
    pub fn reset_warp(&mut self, w: usize) {
        self.stages.ready.mark(w);
        match &mut self.interlock {
            InterlockKind::Scoreboard(il) => il.reset_warp(w),
            InterlockKind::ControlBits(il) => il.reset_warp(w),
        }
    }

    /// Whether no instruction is in flight past dispatch.
    /// (`Sm::busy` is `blocks remain || !is_empty()`.)
    pub fn is_empty(&self) -> bool {
        self.stages.completions.is_empty()
    }

    /// Advances the pipeline by one cycle against device memory.
    pub fn tick<P: Probe>(
        &mut self,
        ctx: &mut SmCtx,
        kernel: &DecodedKernel<'_>,
        global: &mut GlobalMemory,
        probe: &mut P,
    ) {
        match &mut self.interlock {
            InterlockKind::Scoreboard(il) => self.stages.tick(il, ctx, kernel, global, probe),
            InterlockKind::ControlBits(il) => self.stages.tick(il, ctx, kernel, global, probe),
        }
    }

    /// The next cycle after a tick at `ctx.cycle` that can do any work:
    /// `ctx.cycle + 1` unless the pipeline is quiet, when no tick before
    /// the returned one issues, collects, dispatches or writes back
    /// (`u64::MAX` when only a new block can wake it).
    ///
    /// Quiet means every collector partition is empty, the register file
    /// has no queued write, and no warp is ready or awaits
    /// re-classification. Then only time moves anything: the next
    /// completion falling due, or the next stall count running out.
    pub fn next_tick(&self, ctx: &SmCtx) -> u64 {
        let stages = &self.stages;
        let quiet = stages.parts.iter().all(|p| p.oc.occupied() == 0)
            && ctx.rf.queued_writes() == 0
            && stages.ready.is_settled();
        if !quiet {
            return ctx.cycle + 1;
        }
        let due = stages.completions.next_due().unwrap_or(u64::MAX);
        let expiry = stages.ready.next_expiry(ctx.cycle).unwrap_or(u64::MAX);
        due.min(expiry).max(ctx.cycle + 1)
    }

    /// Charges the `span` quiet cycles through `ctx.cycle` that were
    /// skipped instead of ticked: each would have scanned every scheduler
    /// once, found the same warps held and issued nothing, so each
    /// scheduler's stall counts are charged `span` times in one `Stalls`
    /// event per kind; the interlock's clock advances by `span`.
    pub fn settle<P: Probe>(&mut self, ctx: &mut SmCtx, span: u64, probe: &mut P) {
        let stages = &mut self.stages;
        for s in 0..stages.schedulers.len() {
            stages.ready.charge_stalls(s, span, &mut ctx.stats, probe);
        }
        stages.completions.idle_through(ctx.cycle);
        match &mut self.interlock {
            InterlockKind::Scoreboard(il) => il.advance(span),
            InterlockKind::ControlBits(il) => il.advance(span),
        }
    }
}

impl Stages {
    fn tick<I: Interlock, P: Probe>(
        &mut self,
        il: &mut I,
        ctx: &mut SmCtx,
        kernel: &DecodedKernel<'_>,
        global: &mut GlobalMemory,
        probe: &mut P,
    ) {
        ctx.rf.begin_cycle();
        self.writeback(il, ctx, kernel, probe);
        // Collect: claim register-bank ports for pending fetches and
        // publish each partition's ready-slot set to its dispatch latch
        // (an empty partition has neither; its latch stays empty).
        for part in &mut self.parts {
            if part.oc.occupied() == 0 {
                continue;
            }
            part.oc.collect(ctx.cycle, &mut ctx.rf);
            part.latch.fill(&part.oc, ctx.cycle);
        }
        self.dispatch(il, ctx, kernel, global, probe);
        self.issue(il, ctx, kernel, probe);
        for part in &self.parts {
            part.oc.sample_occupancy(&mut ctx.stats, probe);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::collector::CollectorKind;
    use crate::config::{CoreModelKind, GpuConfig};
    use crate::decode::DecodedKernel;
    use crate::pipetrace::PipeTrace;
    use crate::probe::{NullProbe, PipeEvent, Probe};
    use crate::sm::Sm;
    use crate::stats::SimStats;
    use bow_isa::ctrl::{CtrlBits, MAX_STALL};
    use bow_isa::{CmpOp, Kernel, KernelBuilder, KernelDims, Operand, Pred, Reg, Special};
    use bow_mem::GlobalMemory;

    fn modern_config(kind: CollectorKind) -> GpuConfig {
        let mut c = GpuConfig::scaled(kind);
        c.core_model = CoreModelKind::Modern;
        c
    }

    fn run_on(config: &GpuConfig, kernel: &Kernel, threads: u32, g: &mut GlobalMemory) -> SimStats {
        let mut sm = Sm::new(0, config);
        sm.reset_for_launch(&[0x1000]);
        sm.assign_block(kernel, (0, 0), KernelDims::linear(1, threads), 0);
        sm.run_to_idle(&DecodedKernel::new(kernel), g, &mut NullProbe);
        sm.stats()
    }

    fn store_iota() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("iota")
            .s2r(r(0), Special::TidX)
            .ldc(r(1), 0)
            .shl(r(2), r(0).into(), Operand::Imm(2))
            .iadd(r(1), r(1).into(), r(2).into())
            .stg(r(1), 0, r(0).into())
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn modern_core_runs_all_collectors_identically() {
        let kernel = store_iota();
        let mut finals = Vec::new();
        for kind in [
            CollectorKind::Baseline,
            CollectorKind::bow(3),
            CollectorKind::bow_wr(3),
            CollectorKind::rfc6(),
        ] {
            let mut g = GlobalMemory::new();
            run_on(&modern_config(kind), &kernel, 32, &mut g);
            for i in 0..32u64 {
                assert_eq!(g.read_u32(0x1000 + 4 * i), i as u32, "{kind:?} lane {i}");
            }
            finals.push(g);
        }
        assert!(finals.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn annotated_kernel_matches_unannotated_memory() {
        // Control bits are timing-only: even deliberately tight (all-zero
        // stall) annotations must not change architectural results.
        let mut kernel = store_iota();
        let plain = {
            let mut g = GlobalMemory::new();
            run_on(
                &modern_config(CollectorKind::bow_wr(3)),
                &kernel,
                32,
                &mut g,
            );
            g
        };
        kernel.ctrl = vec![CtrlBits::default(); kernel.insts.len()];
        let mut g = GlobalMemory::new();
        let st = run_on(
            &modern_config(CollectorKind::bow_wr(3)),
            &kernel,
            32,
            &mut g,
        );
        assert!(g == plain);
        assert_eq!(st.warp_instructions, 6);
    }

    #[test]
    fn annotated_issue_is_no_slower_checked_by_barrier_timing() {
        // A load consumer guarded by a write barrier: the annotated run
        // must still produce correct data (barrier released at writeback).
        let r = Reg::r;
        let mut kernel = KernelBuilder::new("ldchain")
            .ldc(r(0), 0)
            .ldg(r(1), r(0), 0)
            .iadd(r(2), r(1).into(), Operand::Imm(1))
            .stg(r(0), 4, r(2).into())
            .exit()
            .build()
            .unwrap();
        kernel.ctrl = vec![
            CtrlBits {
                wr_bar: Some(0),
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b1,
                wr_bar: Some(1),
                rd_bar: Some(2),
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b10,
                stall: 4,
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b100,
                ..Default::default()
            },
            CtrlBits::default(),
        ];
        kernel.validate().unwrap();
        let mut g = GlobalMemory::new();
        g.write_u32(0x1000, 41);
        run_on(
            &modern_config(CollectorKind::bow_wr(3)),
            &kernel,
            32,
            &mut g,
        );
        assert_eq!(g.read_u32(0x1000 + 4), 42);
    }

    #[test]
    fn divergence_and_loops_work_on_modern() {
        let r = Reg::r;
        let kernel = KernelBuilder::new("diverge")
            .s2r(r(0), Special::TidX)
            .isetp(
                bow_isa::CmpOp::Lt,
                Pred::p(0),
                r(0).into(),
                Operand::Imm(16),
            )
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 9)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 5)
            .label("join")
            .sync()
            .ldc(r(2), 0)
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .iadd(r(2), r(2).into(), r(3).into())
            .stg(r(2), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let mut g = GlobalMemory::new();
        run_on(
            &modern_config(CollectorKind::bow_wr(3)),
            &kernel,
            32,
            &mut g,
        );
        for i in 0..32u64 {
            let expect = if i < 16 { 5 } else { 9 };
            assert_eq!(g.read_u32(0x1000 + 4 * i), expect, "lane {i}");
        }
    }

    #[test]
    fn barrier_synchronizes_across_sub_cores() {
        // Two warps land on different sub-cores (w % nsub); the block
        // barrier must still rendezvous them.
        let r = Reg::r;
        let kernel = KernelBuilder::new("bar")
            .shared_bytes(256)
            .s2r(r(0), Special::TidX)
            .shl(r(1), r(0).into(), Operand::Imm(2))
            .sts(r(1), 0, r(0).into())
            .bar()
            .xor(r(2), r(1).into(), Operand::Imm(128))
            .lds(r(3), r(2), 0)
            .ldc(r(4), 0)
            .iadd(r(4), r(4).into(), r(1).into())
            .stg(r(4), 0, r(3).into())
            .exit()
            .build()
            .unwrap();
        let config = modern_config(CollectorKind::bow_wr(3));
        let mut g = GlobalMemory::new();
        let mut sm = Sm::new(0, &config);
        sm.reset_for_launch(&[0x2000]);
        sm.assign_block(&kernel, (0, 0), KernelDims::linear(1, 64), 0);
        sm.run_to_idle(&DecodedKernel::new(&kernel), &mut g, &mut NullProbe);
        for i in 0..64u64 {
            assert_eq!(g.read_u32(0x2000 + 4 * i), (i as u32) ^ 32, "thread {i}");
        }
    }

    #[test]
    fn uniform_rf_cuts_bank_reads() {
        // ldc produces a uniform value consumed repeatedly: the uniform
        // RF should serve those reads, so the modern core performs fewer
        // bank reads than Pascal on the same kernel and collector.
        let r = Reg::r;
        let kernel = KernelBuilder::new("unireads")
            .ldc(r(0), 0)
            .s2r(r(1), Special::TidX)
            .iadd(r(2), r(0).into(), r(1).into())
            .iadd(r(3), r(0).into(), r(2).into())
            .iadd(r(4), r(0).into(), r(3).into())
            .shl(r(5), r(1).into(), Operand::Imm(2))
            .iadd(r(5), r(0).into(), r(5).into())
            .stg(r(5), 0, r(4).into())
            .exit()
            .build()
            .unwrap();
        let pascal = GpuConfig::scaled(CollectorKind::Baseline);
        let mut g1 = GlobalMemory::new();
        let ps = run_on(&pascal, &kernel, 32, &mut g1);
        let mut g2 = GlobalMemory::new();
        let ms = run_on(
            &modern_config(CollectorKind::Baseline),
            &kernel,
            32,
            &mut g2,
        );
        assert!(g1 == g2, "same architectural state");
        assert!(
            ms.rf.reads < ps.rf.reads,
            "uniform reads must skip banks: {} !< {}",
            ms.rf.reads,
            ps.rf.reads
        );
    }

    #[test]
    fn a_warp_blocked_twice_is_charged_to_the_check_its_interlock_puts_first() {
        // One warp, one collector unit, and a chain in which every
        // instruction reads its predecessor's result: whenever the
        // collector is full the hazard is pending too, so which counter
        // moves is decided by the order of the two checks alone.
        let r = Reg::r;
        let kernel = KernelBuilder::new("chain")
            .ldc(r(1), 0)
            .iadd(r(1), r(1).into(), Operand::Imm(4))
            .iadd(r(1), r(1).into(), Operand::Imm(4))
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let run = |core_model| {
            let mut config = GpuConfig::scaled(CollectorKind::Baseline);
            config.core_model = core_model;
            config.num_ocus = 1;
            let mut g = GlobalMemory::new();
            let st = run_on(&config, &kernel, 32, &mut g);
            assert_eq!(g.read_u32(0x1008), 0x1008, "{core_model:?}");
            st
        };
        let pascal = run(CoreModelKind::Pascal);
        assert!(pascal.stall_no_collector > 0, "collector is tested first");
        assert!(pascal.stall_scoreboard > 0, "RAW outlives the collector");
        let modern = run(CoreModelKind::Modern);
        assert_eq!(modern.stall_no_collector, 0, "interlock is tested first");
        assert!(modern.stall_scoreboard > 0);
    }

    // The ready set's edges. Each case runs under `NullProbe` and under a
    // listening probe, the two instantiations of the tick, which must
    // agree on every counter and on the final memory; in debug builds
    // every scan of both runs also re-classifies all of its scheduler's
    // warps and asserts the maintained classes and stall counts.

    fn both_cores(kind: CollectorKind) -> [GpuConfig; 2] {
        [GpuConfig::scaled(kind), modern_config(kind)]
    }

    /// `blocks` blocks of `threads` threads of `kernel` on one fresh SM,
    /// global memory prepared by `init`; the stats and the final memory.
    fn run_checked(
        config: &GpuConfig,
        kernel: &Kernel,
        blocks: u32,
        threads: u32,
        init: impl Fn(&mut GlobalMemory),
    ) -> (SimStats, GlobalMemory) {
        let run = |listen: bool| {
            let mut g = GlobalMemory::new();
            init(&mut g);
            let mut sm = Sm::new(0, config);
            sm.reset_for_launch(&[0x1000]);
            let dims = KernelDims::linear(blocks, threads);
            for b in 0..blocks {
                sm.assign_block(kernel, (b, 0), dims, u64::from(b));
            }
            let decoded = DecodedKernel::new(kernel);
            if listen {
                sm.run_to_idle(&decoded, &mut g, &mut PipeTrace::new());
            } else {
                sm.run_to_idle(&decoded, &mut g, &mut NullProbe);
            }
            (sm.stats(), g)
        };
        let (quiet, g) = run(false);
        let (listened, g2) = run(true);
        assert_eq!(quiet, listened, "the counters depend on the probe");
        assert!(g == g2);
        (quiet, g)
    }

    #[test]
    fn a_barrier_releases_warps_of_every_scheduler() {
        // Eight warps spread over all schedulers (and all sub-cores on
        // modern) reach the barrier after 1..=8 loop trips, then read a
        // word another warp stored before it.
        let r = Reg::r;
        let kernel = KernelBuilder::new("staggered_bar")
            .shared_bytes(1024)
            .s2r(r(0), Special::TidX)
            .shr(r(1), r(0).into(), Operand::Imm(5))
            .mov_imm(r(2), 0)
            .label("top")
            .iadd(r(2), r(2).into(), Operand::Imm(1))
            .isetp(CmpOp::Le, Pred::p(0), r(2).into(), r(1).into())
            .bra_if(Pred::p(0), false, "top")
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .sts(r(3), 0, r(0).into())
            .bar()
            .iadd(r(4), r(0).into(), Operand::Imm(32))
            .and(r(4), r(4).into(), Operand::Imm(255))
            .shl(r(4), r(4).into(), Operand::Imm(2))
            .lds(r(5), r(4), 0)
            .ldc(r(6), 0)
            .iadd(r(6), r(6).into(), r(3).into())
            .stg(r(6), 0, r(5).into())
            .exit()
            .build()
            .unwrap();
        for kind in [CollectorKind::Baseline, CollectorKind::bow_wr(3)] {
            for config in both_cores(kind) {
                let (_, g) = run_checked(&config, &kernel, 1, 256, |_| {});
                for t in 0..256u64 {
                    let got = g.read_u32(0x1000 + 4 * t);
                    assert_eq!(got, (t as u32 + 32) % 256, "thread {t} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn a_one_ocu_pool_flips_every_warp_of_its_partition() {
        // One OCU per partition, two warps or more on each: every insert
        // fills the shared pool and every dispatch drains it, so the whole
        // partition changes class back and forth.
        for kind in [CollectorKind::Baseline, CollectorKind::rfc6()] {
            for mut config in both_cores(kind) {
                config.num_ocus = 1;
                let (st, g) = run_checked(&config, &store_iota(), 1, 256, |_| {});
                for i in 0..256u64 {
                    assert_eq!(g.read_u32(0x1000 + 4 * i), i as u32, "{kind:?} lane {i}");
                }
                assert!(st.stall_no_collector > 0, "{kind:?}: the pool never filled");
            }
        }
    }

    #[test]
    fn a_full_bypass_window_readmits_its_warp_at_dispatch() {
        // A one-instruction window: each insert fills the warp's BOC and
        // the dispatch that empties it must re-admit the warp in the same
        // cycle's issue stage, not at the instruction's writeback. (All-zero
        // control bits, so the modern interlock, tested first, never holds
        // the warp in the window's place.)
        let mut kernel = store_iota();
        kernel.ctrl = vec![CtrlBits::default(); kernel.insts.len()];
        for kind in [CollectorKind::bow(1), CollectorKind::bow_wr(1)] {
            for config in both_cores(kind) {
                let (st, g) = run_checked(&config, &kernel, 1, 64, |_| {});
                for i in 0..64u64 {
                    assert_eq!(g.read_u32(0x1000 + 4 * i), i as u32, "{kind:?} lane {i}");
                }
                assert!(
                    st.stall_no_collector > 0,
                    "{kind:?}: the window never filled"
                );
            }
        }
    }

    /// Records the cycle of every issued instruction.
    #[derive(Default)]
    struct IssueCycles(Vec<u64>);

    impl Probe for IssueCycles {
        fn on_event(&mut self, ev: &PipeEvent<'_>) {
            if let PipeEvent::Issue { cycle, .. } | PipeEvent::Control { cycle, .. } = *ev {
                self.0.push(cycle);
            }
        }
    }

    #[test]
    fn a_control_bit_stall_holds_a_warp_exactly_its_count() {
        // Independent moves, each holding the warp for its stall count,
        // from none (the second scan of the same cycle issues again) to the
        // longest count there is: the next issue comes exactly that many
        // cycles later.
        let stalls = [1, MAX_STALL, 2, 0, 17, 5, 1];
        let r = Reg::r;
        let mut b = KernelBuilder::new("stalls");
        for (i, _) in stalls.iter().enumerate() {
            b = b.mov_imm(r(i as u8 + 1), i as u32);
        }
        let mut kernel = b.exit().build().unwrap();
        kernel.ctrl = stalls
            .iter()
            .chain(&[0])
            .map(|&stall| CtrlBits {
                stall,
                ..Default::default()
            })
            .collect();
        let config = modern_config(CollectorKind::bow_wr(3));
        let (st, _) = run_checked(&config, &kernel, 1, 32, |_| {});
        let mut sm = Sm::new(0, &config);
        sm.reset_for_launch(&[0x1000]);
        sm.assign_block(&kernel, (0, 0), KernelDims::linear(1, 32), 0);
        let mut issued = IssueCycles::default();
        let mut g = GlobalMemory::new();
        sm.run_to_idle(&DecodedKernel::new(&kernel), &mut g, &mut issued);
        let gaps: Vec<u64> = issued.0.windows(2).map(|w| w[1] - w[0]).collect();
        let expect: Vec<u64> = stalls.iter().map(|&s| u64::from(s)).collect();
        // The exit waits for the pipeline to drain: only its gap is open.
        assert_eq!(gaps[..stalls.len() - 1], expect[..stalls.len() - 1]);
        assert!(gaps[stalls.len() - 1] >= expect[stalls.len() - 1]);
        // Held in the second scan of its issue cycle and in the one scan of
        // every later cycle of the count — except after a zero count, when
        // the next move takes that second scan and no scan is left.
        let zeros = stalls.iter().filter(|&&s| s == 0).count() as u64;
        let held: u64 = stalls.iter().map(|&s| u64::from(s)).sum::<u64>() - zeros;
        assert_eq!(st.stall_scoreboard, held);
    }

    #[test]
    fn a_warp_exits_and_retires_while_its_sibling_waits() {
        // Warp 0 exits at once; warp 1 waits on a load, then meets a
        // barrier its finished sibling counts as arrived at.
        let r = Reg::r;
        let kernel = KernelBuilder::new("exit_early")
            .s2r(r(0), Special::TidX)
            .shr(r(1), r(0).into(), Operand::Imm(5))
            .isetp(CmpOp::Eq, Pred::p(0), r(1).into(), Operand::Imm(0))
            .bra_if(Pred::p(0), false, "done")
            .ldc(r(2), 0)
            .ldg(r(3), r(2), 0)
            .iadd(r(3), r(3).into(), Operand::Imm(1))
            .bar()
            .stg(r(2), 4, r(3).into())
            .label("done")
            .exit()
            .build()
            .unwrap();
        for kind in [
            CollectorKind::Baseline,
            CollectorKind::bow(3),
            CollectorKind::rfc6(),
        ] {
            for config in both_cores(kind) {
                let (st, g) = run_checked(&config, &kernel, 1, 64, |g| g.write_u32(0x1000, 41));
                assert_eq!(g.read_u32(0x1004), 42, "{kind:?}");
                assert!(st.stall_scoreboard > 0, "{kind:?}: nobody waited");
            }
        }
    }

    #[test]
    fn a_second_launch_on_one_sm_queues_near_completions_in_the_wheel() {
        // The SM clock restarts at 0 for every launch; the completion
        // wheel must too, or the second launch's ALU results, due long
        // before the first launch's last cycle, all go to the far heap.
        let kernel = store_iota();
        let decoded = DecodedKernel::new(&kernel);
        for config in both_cores(CollectorKind::bow_wr(3)) {
            let mut sm = Sm::new(0, &config);
            let mut g = GlobalMemory::new();
            let mut far_after_launch = || {
                sm.reset_for_launch(&[0x1000]);
                sm.assign_block(&kernel, (0, 0), KernelDims::linear(1, 64), 0);
                sm.run_to_idle(&decoded, &mut g, &mut NullProbe);
                sm.far_completions()
            };
            let first = far_after_launch();
            let second = far_after_launch() - first;
            assert_eq!(second, first, "{:?}", config.core_model);
        }
    }

    #[test]
    fn back_to_back_launches_on_one_sm_match_a_fresh_sm() {
        // The first launch leaves classes, dirty marks and stall deadlines
        // behind, and its second wave of blocks lands on slots the first
        // wave retired from (as the device loop refills an SM); the second
        // launch must run exactly as on a fresh SM.
        let mut paced = store_iota();
        paced.ctrl = vec![
            CtrlBits {
                stall: 3,
                ..Default::default()
            };
            paced.insts.len()
        ];
        for kind in [CollectorKind::Baseline, CollectorKind::bow_wr(3)] {
            for config in both_cores(kind) {
                let decoded = DecodedKernel::new(&paced);
                let mut g = GlobalMemory::new();
                let mut sm = Sm::new(0, &config);
                sm.reset_for_launch(&[0x1000]);
                for wave in 0..2 {
                    for b in 0..3 {
                        let dims = KernelDims::linear(6, 96);
                        sm.assign_block(&paced, (3 * wave + b, 0), dims, u64::from(3 * wave + b));
                    }
                    sm.run_to_idle(&decoded, &mut g, &mut NullProbe);
                }
                for i in 0..96u64 {
                    assert_eq!(g.read_u32(0x1000 + 4 * i), i as u32, "{kind:?}");
                }
                sm.reset_for_launch(&[0x2000]);
                for b in 0..3 {
                    sm.assign_block(&paced, (b, 0), KernelDims::linear(3, 96), u64::from(b));
                }
                sm.run_to_idle(&decoded, &mut g, &mut NullProbe);
                let mut fresh = Sm::new(0, &config);
                fresh.reset_for_launch(&[0x2000]);
                for b in 0..3 {
                    fresh.assign_block(&paced, (b, 0), KernelDims::linear(3, 96), u64::from(b));
                }
                let mut g2 = GlobalMemory::new();
                fresh.run_to_idle(&decoded, &mut g2, &mut NullProbe);
                assert_eq!(
                    sm.stats(),
                    fresh.stats(),
                    "{kind:?} {:?}",
                    config.core_model
                );
                for i in 0..96u64 {
                    assert_eq!(g.read_u32(0x2000 + 4 * i), i as u32, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn ninety_six_warps_under_one_scheduler_run_to_the_reference_result() {
        // Every per-warp bit set spans two words; one scheduler scans all
        // 96 slots.
        let r = Reg::r;
        let kernel = KernelBuilder::new("iota_blocks")
            .s2r(r(0), Special::TidX)
            .s2r(r(5), Special::CtaidX)
            .shl(r(5), r(5).into(), Operand::Imm(10))
            .iadd(r(0), r(0).into(), r(5).into())
            .ldc(r(1), 0)
            .shl(r(2), r(0).into(), Operand::Imm(2))
            .iadd(r(1), r(1).into(), r(2).into())
            .imul(r(3), r(0).into(), Operand::Imm(3))
            .stg(r(1), 0, r(3).into())
            .exit()
            .build()
            .unwrap();
        for kind in [CollectorKind::Baseline, CollectorKind::bow_wr(3)] {
            for mut config in both_cores(kind) {
                config.max_warps_per_sm = 96;
                config.schedulers_per_sm = 1;
                let (st, g) = run_checked(&config, &kernel, 3, 1024, |_| {});
                assert_eq!(st.warp_instructions, 96 * 10, "{kind:?}");
                for t in 0..3072u64 {
                    assert_eq!(
                        g.read_u32(0x1000 + 4 * t),
                        3 * t as u32,
                        "{kind:?} thread {t}"
                    );
                }
            }
        }
    }
}
