//! The streaming multiprocessor: a thin shell over the one pipeline.
//!
//! `Sm` owns the architectural machine state ([`SmCtx`]) and the
//! instruction [`Pipeline`] — writeback → collect → dispatch → issue,
//! partitioned and interlocked as `GpuConfig::core_model` selects (see
//! [`crate::stage`]). All instrumentation (statistics, pipeline tracing,
//! the bypass analyzer) flows through the probe bus: [`Sm::tick`] is
//! generic over [`Probe`], and launching with
//! [`NullProbe`](crate::probe::NullProbe) monomorphizes an
//! instrumentation-free pipeline.
//!
//! A quiet cycle is skipped, not ticked (docs/ARCHITECTURE.md, hot-path
//! rule 6): after each tick the pipeline names the next cycle that can do
//! any work ([`Pipeline::next_tick`]), the SM lets the cycles before it
//! pass without ticking them, and it charges them in one step
//! ([`Sm::settle`]) before its next tick or when the launch ends.

use crate::config::{CoreModelKind, GpuConfig};
use crate::decode::DecodedKernel;
use crate::probe::Probe;
use crate::regfile::RegFile;
use crate::stage::{BlockCtx, Pipeline, SmCtx};
use crate::stats::SimStats;
use crate::warp::Warp;
use bow_isa::{Kernel, WARP_SIZE};
use bow_mem::{GlobalMemory, MemSystem, SharedMemory};

/// One streaming multiprocessor.
pub struct Sm {
    ctx: SmCtx,
    pipeline: Pipeline,
    /// The next cycle to tick: every cycle before it is quiet.
    wake: u64,
    /// Quiet cycles skipped since the last tick and not yet charged.
    owed: u64,
    /// Ticks every cycle, quiet or not: the reference skipping is held to.
    #[cfg(test)]
    pub(crate) tick_every_cycle: bool,
}

impl Sm {
    /// Creates an idle SM.
    pub fn new(id: usize, config: &GpuConfig) -> Sm {
        let max_warps = config.max_warps_per_sm as usize;
        Sm {
            ctx: SmCtx {
                id,
                config: config.clone(),
                cycle: 0,
                warps: (0..max_warps).map(|_| None).collect(),
                warp_age: vec![0; max_warps],
                age_counter: 0,
                blocks: (0..config.max_blocks_per_sm as usize)
                    .map(|_| None)
                    .collect(),
                rf: Self::build_rf(config),
                mem: MemSystem::new(config.mem),
                params: Vec::new(),
                stats: SimStats::default(),
            },
            pipeline: Pipeline::new(config),
            wake: 0,
            owed: 0,
            #[cfg(test)]
            tick_every_cycle: false,
        }
    }

    /// The SM index.
    pub fn id(&self) -> usize {
        self.ctx.id
    }

    fn build_rf(config: &GpuConfig) -> RegFile {
        // The modern core gives each sub-core a private bank group when
        // the bank count splits evenly over the schedulers; Pascal keeps
        // the flat SM-wide mapping.
        let banks = config.rf_banks as usize;
        let groups = match config.core_model {
            CoreModelKind::Modern => {
                let nsub = config.schedulers_per_sm.max(1) as usize;
                if banks.is_multiple_of(nsub) {
                    nsub
                } else {
                    1
                }
            }
            CoreModelKind::Pascal => 1,
        };
        RegFile::new_clustered(banks, groups)
    }

    /// Prepares the SM for a new launch: the memory hierarchy, the
    /// register file and the collector partitions empty in place (what
    /// [`Sm::new`] built is reused, not rebuilt) and all statistics restart
    /// so each launch reports only its own work.
    pub fn reset_for_launch(&mut self, params: &[u32]) {
        assert!(!self.busy(), "reset_for_launch on a busy SM");
        let ctx = &mut self.ctx;
        ctx.params.clear();
        ctx.params.extend_from_slice(params);
        ctx.mem.reset();
        ctx.rf.reset();
        ctx.stats = SimStats::default();
        ctx.cycle = 0;
        self.pipeline.reset_for_launch();
        (self.wake, self.owed) = (0, 0);
    }

    /// The register file and collector partitions, rendered: a launch
    /// reset must leave exactly what [`Sm::new`] builds.
    #[cfg(test)]
    pub(crate) fn launch_state(&self) -> String {
        format!("{:?}\n{}", self.ctx.rf, self.pipeline.parts_state())
    }

    /// Completions the pipeline has queued in its far heap.
    #[cfg(test)]
    pub(crate) fn far_completions(&self) -> u64 {
        self.pipeline.far_completions()
    }

    /// Whether any block or instruction is still in flight.
    pub fn busy(&self) -> bool {
        self.ctx.blocks.iter().any(Option::is_some) || !self.pipeline.is_empty()
    }

    /// Whether this SM can host one more block of `warps_needed` warps.
    pub fn can_host_block(&self, warps_needed: u32) -> bool {
        self.ctx.blocks.iter().any(Option::is_none)
            && self.ctx.warps.iter().filter(|w| w.is_none()).count() >= warps_needed as usize
    }

    /// Installs a block on the SM.
    ///
    /// # Panics
    ///
    /// Panics if capacity was not checked with
    /// [`can_host_block`](Self::can_host_block).
    pub fn assign_block(
        &mut self,
        kernel: &Kernel,
        ctaid: (u32, u32),
        dims: bow_isa::KernelDims,
        block_index: u64,
    ) {
        let threads = dims.threads_per_block();
        let warps = dims.warps_per_block();
        let ctx = &mut self.ctx;
        let slot = ctx
            .blocks
            .iter()
            .position(Option::is_none)
            .expect("assign_block without free block slot");
        let mut warp_slots = Vec::with_capacity(warps as usize);
        for w in 0..warps {
            let wslot = ctx
                .warps
                .iter()
                .position(Option::is_none)
                .expect("assign_block without free warp slots");
            let lanes = (threads - w * WARP_SIZE as u32).min(WARP_SIZE as u32);
            let mut warp = Warp::new(wslot, slot, w, lanes, kernel.num_regs);
            warp.barrier_mode = kernel.uses_convergence_barriers();
            ctx.warps[wslot] = Some(warp);
            self.pipeline.reset_warp(wslot);
            ctx.warp_age[wslot] = ctx.age_counter;
            ctx.age_counter += 1;
            warp_slots.push(wslot);
        }
        ctx.blocks[slot] = Some(BlockCtx {
            shared: SharedMemory::new(kernel.shared_bytes),
            info: crate::exec::BlockInfo {
                ctaid,
                ntid: dims.block,
                nctaid: dims.grid,
            },
            warp_slots,
            warps_done: 0,
            base_uid: block_index * u64::from(warps),
        });
        self.wake = 0;
    }

    /// Accumulated statistics (memory counters folded in), through the
    /// last [`settle`](Self::settle) or tick.
    pub fn stats(&self) -> SimStats {
        let mut s = self.ctx.stats.clone();
        s.rf = self.ctx.rf.stats();
        s.mem = self.ctx.mem.stats();
        s
    }

    /// Advances the SM by one cycle, emitting all pipeline events to
    /// `probe` (statistics accumulate regardless of the probe). `kernel`
    /// is the launch's kernel, decoded once for all SMs; `global` is
    /// device memory, which a global store writes when it executes.
    ///
    /// A quiet cycle is only counted, to be charged by the next
    /// [`settle`](Self::settle), which every tick that does work begins
    /// with.
    pub fn tick<P: Probe>(
        &mut self,
        kernel: &DecodedKernel<'_>,
        global: &mut GlobalMemory,
        probe: &mut P,
    ) {
        if self.quiet_cycles() > 0 {
            self.skip(1);
            return;
        }
        self.settle(probe);
        let ctx = &mut self.ctx;
        ctx.cycle += 1;
        ctx.stats.cycles = ctx.cycle;
        self.pipeline.tick(ctx, kernel, global, probe);
        self.wake = self.pipeline.next_tick(ctx);
        #[cfg(test)]
        if self.tick_every_cycle {
            self.wake = 0;
        }
    }

    /// How many of the coming cycles are quiet: they can pass without
    /// being ticked.
    pub fn quiet_cycles(&self) -> u64 {
        self.wake.saturating_sub(self.ctx.cycle + 1)
    }

    /// Lets `cycles` quiet cycles pass untouched; the next
    /// [`settle`](Self::settle) charges them.
    pub(crate) fn skip(&mut self, cycles: u64) {
        debug_assert!(cycles <= self.quiet_cycles(), "skipping a cycle with work");
        self.ctx.cycle += cycles;
        self.owed += cycles;
    }

    /// Charges the skipped quiet cycles as if each had been ticked: the
    /// cycle count, each scheduler's stall counts (one `Stalls` event per
    /// kind for the whole span) and the interlock's clock. The statistics
    /// are exact after a settle; a launch settles every SM when it ends.
    pub fn settle<P: Probe>(&mut self, probe: &mut P) {
        if self.owed == 0 {
            return;
        }
        let ctx = &mut self.ctx;
        ctx.stats.cycles = ctx.cycle;
        self.pipeline.settle(ctx, self.owed, probe);
        self.owed = 0;
    }

    /// Ticks the SM until it goes idle, as a one-SM device would.
    #[cfg(test)]
    pub(crate) fn run_to_idle<P: Probe>(
        &mut self,
        kernel: &DecodedKernel<'_>,
        global: &mut GlobalMemory,
        probe: &mut P,
    ) {
        let mut guard = 0;
        while self.busy() {
            self.tick(kernel, global, probe);
            guard += 1;
            assert!(guard < 1_000_000, "kernel did not terminate");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorKind;
    use crate::trace::BypassAnalyzer;
    use bow_isa::{KernelBuilder, KernelDims, Operand, Pred, Reg, Special};
    use bow_mem::GlobalMemory;

    fn run_kernel(kind: CollectorKind, kernel: &Kernel, global: &mut GlobalMemory) -> SimStats {
        let config = GpuConfig::scaled(kind);
        let mut sm = Sm::new(0, &config);
        sm.reset_for_launch(&[0x1000]);
        let dims = KernelDims::linear(1, 32);
        sm.assign_block(kernel, (0, 0), dims, 0);
        let kernel = &DecodedKernel::new(kernel);
        sm.run_to_idle(kernel, global, &mut BypassAnalyzer::new(&[]));
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
    fn baseline_runs_and_produces_correct_memory() {
        let mut g = GlobalMemory::new();
        let st = run_kernel(CollectorKind::Baseline, &store_iota(), &mut g);
        for i in 0..32u64 {
            assert_eq!(g.read_u32(0x1000 + 4 * i), i as u32);
        }
        assert_eq!(st.warp_instructions, 6);
        assert!(st.cycles > 0);
        assert!(st.rf.reads > 0);
    }

    #[test]
    fn all_collectors_produce_identical_memory() {
        let kernel = store_iota();
        let mut finals = Vec::new();
        for kind in [
            CollectorKind::Baseline,
            CollectorKind::bow(3),
            CollectorKind::bow_wr(3),
            CollectorKind::BowWr {
                window: 3,
                half_size: true,
            },
            CollectorKind::rfc6(),
        ] {
            let mut g = GlobalMemory::new();
            run_kernel(kind, &kernel, &mut g);
            finals.push((kind, g));
        }
        for (kind, g) in &finals[1..] {
            assert!(*g == finals[0].1, "state diverged under {kind:?}");
        }
    }

    #[test]
    fn bow_bypasses_reads_baseline_does_not() {
        let kernel = store_iota();
        let mut g1 = GlobalMemory::new();
        let base = run_kernel(CollectorKind::Baseline, &kernel, &mut g1);
        let mut g2 = GlobalMemory::new();
        let bow = run_kernel(CollectorKind::bow(3), &kernel, &mut g2);
        assert_eq!(base.bypassed_reads, 0);
        assert!(bow.bypassed_reads > 0, "r1/r2/r0 reuse must bypass");
        assert!(bow.rf.reads < base.rf.reads);
    }

    #[test]
    fn bow_wr_reduces_rf_writes() {
        // A register overwritten repeatedly within the window.
        let r = Reg::r;
        let kernel = KernelBuilder::new("overwrite")
            .mov_imm(r(0), 1)
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .ldc(r(1), 0)
            .stg(r(1), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let mut g1 = GlobalMemory::new();
        let base = run_kernel(CollectorKind::Baseline, &kernel, &mut g1);
        let mut g2 = GlobalMemory::new();
        let wr = run_kernel(CollectorKind::bow_wr(3), &kernel, &mut g2);
        assert_eq!(g2.read_u32(0x1000), 3);
        assert!(
            wr.rf.writes < base.rf.writes,
            "{} !< {}",
            wr.rf.writes,
            base.rf.writes
        );
        assert!(wr.bypassed_writes >= 2);
    }

    #[test]
    fn divergent_kernel_reconverges_and_matches() {
        // if (tid < 16) r1 = 5 else r1 = 9; store r1.
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
        for kind in [CollectorKind::Baseline, CollectorKind::bow_wr(3)] {
            let mut g = GlobalMemory::new();
            run_kernel(kind, &kernel, &mut g);
            for i in 0..32u64 {
                let expect = if i < 16 { 5 } else { 9 };
                assert_eq!(
                    g.read_u32(0x1000 + 4 * i),
                    expect,
                    "lane {i} under {kind:?}"
                );
            }
        }
    }

    #[test]
    fn loop_kernel_terminates_with_correct_sum() {
        // r0 = sum(0..10); store.
        let r = Reg::r;
        let kernel = KernelBuilder::new("loop")
            .mov_imm(r(0), 0)
            .mov_imm(r(1), 0)
            .label("top")
            .iadd(r(0), r(0).into(), r(1).into())
            .iadd(r(1), r(1).into(), Operand::Imm(1))
            .isetp(
                bow_isa::CmpOp::Lt,
                Pred::p(0),
                r(1).into(),
                Operand::Imm(10),
            )
            .bra_if(Pred::p(0), false, "top")
            .ldc(r(2), 0)
            .stg(r(2), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let mut g = GlobalMemory::new();
        run_kernel(CollectorKind::bow_wr(3), &kernel, &mut g);
        assert_eq!(g.read_u32(0x1000), 45);
    }

    #[test]
    fn barrier_synchronizes_shared_memory() {
        // Warp 0 writes smem[tid], both warps read smem[tid^32 ... ] — use
        // two warps: each thread stores tid to smem, barrier, loads
        // neighbour warp's value.
        let r = Reg::r;
        let kernel = KernelBuilder::new("bar")
            .shared_bytes(256)
            .s2r(r(0), Special::TidX)
            .shl(r(1), r(0).into(), Operand::Imm(2))
            .sts(r(1), 0, r(0).into())
            .bar()
            .xor(r(2), r(1).into(), Operand::Imm(128)) // partner word
            .lds(r(3), r(2), 0)
            .ldc(r(4), 0)
            .iadd(r(4), r(4).into(), r(1).into())
            .stg(r(4), 0, r(3).into())
            .exit()
            .build()
            .unwrap();
        let config = GpuConfig::scaled(CollectorKind::bow_wr(3));
        let mut sm = Sm::new(0, &config);
        sm.reset_for_launch(&[0x2000]);
        let dims = KernelDims::linear(1, 64);
        sm.assign_block(&kernel, (0, 0), dims, 0);
        let kernel = DecodedKernel::new(&kernel);
        let mut g = GlobalMemory::new();
        sm.run_to_idle(&kernel, &mut g, &mut BypassAnalyzer::new(&[]));
        for i in 0..64u64 {
            assert_eq!(g.read_u32(0x2000 + 4 * i), (i as u32) ^ 32, "thread {i}");
        }
    }

    #[test]
    fn oc_residency_is_tracked() {
        let mut g = GlobalMemory::new();
        let st = run_kernel(CollectorKind::Baseline, &store_iota(), &mut g);
        assert!(st.oc_cycles() > 0);
        assert!(st.insts_mem >= 2, "ldc + stg");
        assert!(st.insts_nonmem >= 3);
    }

    #[test]
    fn null_probe_tick_matches_instrumented_tick() {
        let kernel = store_iota();
        let kernel = DecodedKernel::new(&kernel);
        let config = GpuConfig::scaled(CollectorKind::bow_wr(3));
        let run = |probe_on: bool| {
            let mut sm = Sm::new(0, &config);
            sm.reset_for_launch(&[0x1000]);
            sm.assign_block(&kernel, (0, 0), KernelDims::linear(1, 32), 0);
            let mut g = GlobalMemory::new();
            let mut trace = crate::pipetrace::PipeTrace::new();
            if probe_on {
                sm.run_to_idle(&kernel, &mut g, &mut trace);
            } else {
                sm.run_to_idle(&kernel, &mut g, &mut crate::probe::NullProbe);
            }
            (sm.stats(), trace.len())
        };
        let (instrumented, events) = run(true);
        let (bare, none) = run(false);
        assert_eq!(instrumented, bare, "probe must not perturb the model");
        assert!(events > 0, "trace subscriber saw the pipeline");
        assert_eq!(none, 0);
    }
}
